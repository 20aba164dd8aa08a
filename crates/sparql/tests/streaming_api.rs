//! Behavioural tests of the streaming `QueryEngine` API: lazy `Solution`
//! rows, row limits, cancellation mid-stream, ASK streaming, and the
//! aggregation operator's agreement across the three consumption modes.

use std::time::{Duration, Instant};

use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::{Cancellation, Error, QueryEngine, QueryOptions, QueryResult};
use sp2b_store::{ShardBackend, TripleStore};

mod common;
use common::{load, NATIVE};

fn graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..20 {
        let s = Subject::iri(format!("http://x/d{i}"));
        g.add(
            s.clone(),
            Iri::new("http://x/type"),
            Term::iri(format!("http://x/c{}", i % 4)),
        );
        g.add(
            s.clone(),
            Iri::new("http://x/rank"),
            Term::Literal(Literal::integer(i)),
        );
        if i % 3 == 0 {
            g.add(
                s,
                Iri::new("http://x/tag"),
                Term::Literal(Literal::string("x")),
            );
        }
    }
    g
}

#[test]
fn streaming_equals_execute_on_both_stores() {
    let g = graph();
    let queries = [
        "SELECT ?d ?c WHERE { ?d <http://x/type> ?c } ORDER BY ?d",
        "SELECT DISTINCT ?c WHERE { ?d <http://x/type> ?c } ORDER BY ?c",
        "SELECT ?d ?t WHERE { ?d <http://x/rank> ?r OPTIONAL { ?d <http://x/tag> ?t } } ORDER BY ?r LIMIT 7 OFFSET 2",
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?c } GROUP BY ?c ORDER BY DESC(?n)",
    ];
    let stores: [sp2b_store::SharedStore; 2] = [
        load(&g, ShardBackend::Mem).into_shared(),
        load(&g, NATIVE).into_shared(),
    ];
    for store in stores {
        let engine = QueryEngine::new(store);
        for q in queries {
            let prepared = engine.prepare(q).unwrap();
            let QueryResult::Solutions { rows, .. } = engine.execute(&prepared).unwrap() else {
                panic!("SELECT query")
            };
            let streamed: Vec<Vec<Option<Term>>> = engine
                .solutions(&prepared)
                .map(|s| s.unwrap().materialize())
                .collect();
            assert_eq!(streamed, rows, "stream/execute disagree on {q}");
            assert_eq!(engine.count(&prepared).unwrap(), rows.len() as u64, "{q}");
        }
    }
}

#[test]
fn ask_streams_zero_or_one_empty_solution() {
    let engine = QueryEngine::new(load(&graph(), ShardBackend::Mem).into_shared());
    let yes = engine
        .prepare("ASK { ?d <http://x/type> <http://x/c1> }")
        .unwrap();
    let rows: Vec<_> = engine.solutions(&yes).collect::<Result<_, _>>().unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].is_empty(), "the ASK witness has no columns");
    let no = engine
        .prepare("ASK { ?d <http://x/type> <http://x/nope> }")
        .unwrap();
    assert_eq!(engine.solutions(&no).count(), 0);
}

#[test]
fn cancellation_mid_stream_surfaces_once() {
    let engine = QueryEngine::new(load(&graph(), ShardBackend::Mem).into_shared());
    let p = engine
        .prepare("SELECT ?a ?b WHERE { ?a <http://x/type> ?x . ?b <http://x/type> ?y }")
        .unwrap();
    let cancel = Cancellation::none();
    let mut stream = engine.solutions_with(&p, &cancel);
    assert!(stream.next().unwrap().is_ok(), "stream starts fine");
    cancel.cancel();
    assert!(matches!(stream.next(), Some(Err(Error::Cancelled))));
    assert!(stream.next().is_none(), "stream ends after the error");
}

#[test]
fn deadline_cancels_a_stream() {
    let engine = QueryEngine::new(load(&graph(), ShardBackend::Mem).into_shared());
    let p = engine
        .prepare("SELECT ?a ?b WHERE { ?a <http://x/type> ?x . ?b <http://x/type> ?y }")
        .unwrap();
    let cancel = Cancellation::with_deadline(Instant::now() - Duration::from_secs(1));
    let mut stream = engine.solutions_with(&p, &cancel);
    assert!(matches!(stream.next(), Some(Err(Error::Cancelled))));
    assert!(stream.next().is_none());
}

/// The deadline is read once per 1024 cancellation checks, so every check
/// site has to check per unit of bounded work. A keyless join's unit is
/// one candidate pair, not one probe row — each probe row here merges
/// with all 30 000 build rows, and a per-row check would overrun the
/// deadline by 1024 × 30 000 merges.
#[test]
fn a_passing_deadline_stops_a_nested_loop_join_promptly() {
    let mut g = Graph::new();
    for i in 0..30_000 {
        g.add(
            Subject::iri(format!("http://x/s{i}")),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
    }
    let engine = QueryEngine::with_options(
        load(&g, NATIVE).into_shared(),
        QueryOptions::new()
            .parallelism(1)
            .timeout(Duration::from_millis(50)),
    );
    let p = engine
        .prepare("SELECT ?a ?b WHERE { { ?a <http://x/p> ?x } { ?b <http://x/p> ?y } }")
        .unwrap();
    let start = Instant::now();
    assert!(matches!(engine.count(&p), Err(Error::Cancelled)));
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "noticed after {took:?}");
}

#[test]
fn aggregate_streams_lazily_too() {
    let engine = QueryEngine::new(load(&graph(), NATIVE).into_shared());
    let p = engine
        .prepare(
            "SELECT ?c (COUNT(?d) AS ?n) WHERE { ?d <http://x/type> ?c } \
             GROUP BY ?c ORDER BY ?c",
        )
        .unwrap();
    assert!(p.is_aggregate());
    let mut counts = Vec::new();
    for solution in engine.solutions(&p) {
        let row = solution.unwrap();
        // Count columns decode to integer literals on demand.
        let Some(Term::Literal(l)) = row.get(1) else {
            panic!("count bound")
        };
        counts.push(l.as_integer().unwrap());
    }
    assert_eq!(counts, [5, 5, 5, 5]);
}

#[test]
fn prepared_exposes_columns() {
    let engine = QueryEngine::new(load(&graph(), ShardBackend::Mem).into_shared());
    let p = engine
        .prepare("SELECT ?c (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?c } GROUP BY ?c")
        .unwrap();
    assert_eq!(p.variables(), ["c", "n"]);
    let select = engine
        .prepare("SELECT ?d ?c WHERE { ?d <http://x/type> ?c }")
        .unwrap();
    assert_eq!(select.variables(), ["d", "c"]);
}
