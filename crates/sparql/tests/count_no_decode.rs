//! Acceptance check for the streaming count path: `QueryEngine::count`
//! must perform **no term decoding** — counting is pure id-space work
//! (ORDER BY skipped, OFFSET/LIMIT arithmetic, DISTINCT and GROUP BY over
//! raw ids, value FILTERs over the dictionary's value keys).
//!
//! Uses the debug-build-only `DECODE_CALLS` counter in `sp2b_store`. This
//! file holds a single test so the process-wide counter sees no
//! interference from parallel tests (integration test files run as
//! separate processes).

#![cfg(debug_assertions)]

use sp2b_datagen::{generate_graph, Config};
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::QueryEngine;
use sp2b_store::{dictionary::DECODE_CALLS, ShardedStore, TripleStore};
use std::sync::atomic::Ordering;

mod common;
use common::{load, NATIVE};

fn store() -> ShardedStore {
    let mut g = Graph::new();
    for i in 0..50 {
        let s = Subject::iri(format!("http://x/doc{i}"));
        g.add(
            s.clone(),
            Iri::new("http://x/type"),
            Term::iri(format!("http://x/class{}", i % 3)),
        );
        g.add(
            s.clone(),
            Iri::new("http://x/year"),
            Term::Literal(Literal::integer(1990 + (i % 7) as i64)),
        );
        if i % 2 == 0 {
            g.add(
                s,
                Iri::new("http://x/cites"),
                Term::iri(format!("http://x/doc{}", (i + 1) % 50)),
            );
        }
    }
    load(&g, NATIVE)
}

#[test]
fn count_never_decodes_terms() {
    let engine = QueryEngine::new(store().into_shared());

    // A deliberately operator-rich workload: BGP + OPTIONAL + DISTINCT +
    // ORDER BY + LIMIT/OFFSET, a GROUP BY aggregate, and value FILTERs
    // between distinct literal ids — `<` and `=` (a hash join on value
    // classes), in Q4's DISTINCT-over-a-chain shape too — which the value
    // keys answer without reading a term.
    let queries = [
        "SELECT ?d WHERE { ?d <http://x/type> ?c } ORDER BY ?d",
        "SELECT DISTINCT ?c WHERE { ?d <http://x/type> ?c } ORDER BY ?c LIMIT 2 OFFSET 1",
        "SELECT ?d ?o WHERE { ?d <http://x/year> ?y OPTIONAL { ?d <http://x/cites> ?o } } ORDER BY ?y",
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?c } GROUP BY ?c",
        "ASK { ?d <http://x/type> <http://x/class1> }",
        "SELECT ?d ?e WHERE { ?d <http://x/year> ?y1 . ?e <http://x/year> ?y2 FILTER (?y1 < ?y2) }",
        "SELECT ?d ?e WHERE { ?d <http://x/year> ?y1 . ?e <http://x/year> ?y2 FILTER (?y1 = ?y2) }",
        "SELECT DISTINCT ?y1 ?y2 WHERE {
            ?d1 <http://x/type> ?c . ?d1 <http://x/year> ?y1 .
            ?d2 <http://x/type> ?c . ?d2 <http://x/year> ?y2
            FILTER (?y1 < ?y2) }",
    ];

    for q in queries {
        let prepared = engine.prepare(q).expect("query prepares");
        let before = DECODE_CALLS.load(Ordering::Relaxed);
        let n = engine.count(&prepared).expect("count succeeds");
        let after = DECODE_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            after,
            before,
            "count path decoded {} terms for {q}",
            after - before
        );

        // Sanity: execute agrees on cardinality and *does* decode.
        let result = engine.execute(&prepared).expect("execute succeeds");
        assert_eq!(n, result.row_count() as u64, "count vs execute for {q}");
    }

    // The paper's Q4 (DISTINCT over a split, `?name1 < ?name2` in the
    // probe) and Q5a (`?name = ?name2` as a hash join's value keys) on
    // a generated document.
    let (graph, _) = generate_graph(Config::triples(5_000));
    let generated = QueryEngine::new(load(&graph, NATIVE).into_shared());
    for q in [
        "SELECT DISTINCT ?name1 ?name2 WHERE {
            ?article1 rdf:type bench:Article . ?article2 rdf:type bench:Article .
            ?article1 dc:creator ?author1 . ?author1 foaf:name ?name1 .
            ?article2 dc:creator ?author2 . ?author2 foaf:name ?name2 .
            ?article1 swrc:journal ?journal . ?article2 swrc:journal ?journal
            FILTER (?name1 < ?name2) }",
        "SELECT DISTINCT ?person ?name WHERE {
            ?article rdf:type bench:Article . ?article dc:creator ?person .
            ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?person2 .
            ?person foaf:name ?name . ?person2 foaf:name ?name2
            FILTER (?name = ?name2) }",
    ] {
        let prepared = generated.prepare(q).expect("query prepares");
        let before = DECODE_CALLS.load(Ordering::Relaxed);
        let n = generated.count(&prepared).expect("count succeeds");
        assert!(n > 0, "{q}");
        let decoded = DECODE_CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(decoded, 0, "count path decoded {decoded} terms for {q}");
    }

    // Sanity for the counter itself: materializing decodes something.
    let prepared = engine
        .prepare("SELECT ?d WHERE { ?d <http://x/type> ?c }")
        .unwrap();
    let before = DECODE_CALLS.load(Ordering::Relaxed);
    let _ = engine.execute(&prepared).unwrap();
    assert!(
        DECODE_CALLS.load(Ordering::Relaxed) > before,
        "execute must decode"
    );
}
