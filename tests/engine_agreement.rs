//! All four engine configurations must agree on every benchmark query:
//! the optimizations and storage layouts are performance choices, never
//! semantic ones.

use std::time::Duration;

use sp2bench::core::{BenchQuery, Engine, EngineKind, Outcome, StoreLayout};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::rdf::ntriples::parse_document;
use sp2bench::rdf::{Graph, Term};
use sp2bench::sparql::QueryResult;
use sp2bench::store::ShardBy;

const TRIPLES: u64 = 6_000;
const TIMEOUT: Duration = Duration::from_secs(300);

#[test]
fn all_engines_agree_on_all_17_queries() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let engines: Vec<Engine> = EngineKind::ALL
        .iter()
        .map(|&k| Engine::load(k, &graph))
        .collect();

    for query in BenchQuery::ALL {
        let counts: Vec<(EngineKind, u64)> = engines
            .iter()
            .map(|e| {
                let (outcome, _) = e.run(query, Some(TIMEOUT));
                (
                    e.kind(),
                    outcome
                        .count()
                        .unwrap_or_else(|| panic!("{query} failed on {}", e.kind())),
                )
            })
            .collect();
        let reference = counts[0].1;
        for (kind, count) in &counts {
            assert_eq!(*count, reference, "{query}: {kind} disagrees ({counts:?})");
        }
    }
}

#[test]
fn materialized_results_agree_not_just_counts() {
    // Counts could coincide while rows differ; compare sorted row sets for
    // the queries that stay small. `mem-naive` is the reference: no
    // reordering, no pushing, and for Q5a/Q6/Q12a the nested loop the
    // optimized engines replace with a value-equality hash join.
    let (graph, _) = generate_graph(Config::triples(6_000));
    let reference = Engine::load(EngineKind::MemNaive, &graph);
    let others = [
        EngineKind::MemOpt,
        EngineKind::NativeBase,
        EngineKind::NativeOpt,
    ]
    .map(|kind| Engine::load(kind, &graph));

    for query in [
        BenchQuery::Q1,
        BenchQuery::Q2,
        BenchQuery::Q3b,
        BenchQuery::Q5a,
        BenchQuery::Q6,
        BenchQuery::Q7,
        BenchQuery::Q8,
        BenchQuery::Q9,
        BenchQuery::Q10,
        BenchQuery::Q11,
        BenchQuery::Q12a,
    ] {
        let rows = |e: &Engine| -> Vec<String> {
            let (outcome, _) = e.run_text(query.text(), Some(TIMEOUT), true);
            let sp2bench::core::Outcome::Success {
                result: Some(result),
                ..
            } = outcome
            else {
                panic!("{query} failed on {}", e.kind())
            };
            let rows = match result {
                sp2bench::sparql::QueryResult::Solutions { rows, .. } => rows,
                sp2bench::sparql::QueryResult::Boolean(b) => return vec![format!("ask:{b}")],
            };
            let mut rendered: Vec<String> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|t| t.as_ref().map_or("-".to_owned(), ToString::to_string))
                        .collect::<Vec<_>>()
                        .join("\t")
                })
                .collect();
            rendered.sort();
            rendered
        };
        let expected = rows(&reference);
        for engine in &others {
            assert_eq!(
                expected,
                rows(engine),
                "{query} rows differ on {}",
                engine.kind()
            );
        }
    }
}

#[test]
fn ordered_results_keep_order_across_engines() {
    // Q11 is ORDER BY + LIMIT/OFFSET: the *sequence* must match, not just
    // the set.
    let (graph, _) = generate_graph(Config::triples(6_000));
    let mut sequences: Vec<Vec<String>> = Vec::new();
    for kind in EngineKind::ALL {
        let e = Engine::load(kind, &graph);
        let (outcome, _) = e.run_text(BenchQuery::Q11.text(), Some(TIMEOUT), true);
        let sp2bench::core::Outcome::Success {
            result: Some(sp2bench::sparql::QueryResult::Solutions { rows, .. }),
            ..
        } = outcome
        else {
            panic!("Q11 failed on {kind}")
        };
        sequences.push(
            rows.iter()
                .map(|r| r[0].as_ref().expect("?ee bound").to_string())
                .collect(),
        );
    }
    for s in &sequences[1..] {
        assert_eq!(s, &sequences[0]);
    }
}

/// `ORDER BY` over integers mixed with plain literals whose text starts
/// with digits — once a cycle in the term order (`"2"^^xsd:integer <
/// "10"^^xsd:integer < "15x" < "2"^^xsd:integer`), which made the sort
/// panic. Every engine layout returns all 80 rows, each sorted after
/// the one before it.
#[test]
fn order_by_mixed_literals_sorts_on_every_engine() {
    let mut graph = Graph::new();
    for triple in parse_document(include_str!("data/mixed_literals.nt")).expect("fixture parses") {
        graph.insert(triple);
    }
    let query = include_str!("data/mixed_literals.rq");
    let engines = [
        Engine::load(EngineKind::MemNaive, &graph),
        Engine::load(EngineKind::NativeOpt, &graph),
        Engine::load_with(
            EngineKind::NativeOpt,
            &graph,
            &StoreLayout::sharded(3, ShardBy::Subject),
        ),
    ];
    for engine in &engines {
        let (outcome, _) = engine.run_text(query, Some(TIMEOUT), true);
        let Outcome::Success {
            result: Some(QueryResult::Solutions { rows, .. }),
            ..
        } = outcome
        else {
            panic!("{}: {outcome:?}", engine.kind())
        };
        let terms: Vec<&Term> = rows.iter().map(|r| r[0].as_ref().expect("bound")).collect();
        assert_eq!(terms.len(), 80, "{}", engine.kind());
        for pair in terms.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{}: {} before {}",
                engine.kind(),
                pair[0],
                pair[1]
            );
        }
    }
}

/// Filters of groups without patterns decide on the group's one empty
/// row. A variable-free conjunct of such a group used to be parked where
/// the optimized engines never ran it: on a 1 000-triple document they
/// answered 1, yes, 1 000, 2 and 1 where the oracle answers 0, no, 0, 1
/// and 1. Every engine must match `mem-naive` in rows, in `count` and in
/// the materialized row count, sequentially and with an exchange.
#[test]
fn filters_of_pattern_free_groups_decide_on_every_engine() {
    let (graph, _) = generate_graph(Config::triples(1_000));
    let reference = Engine::load(EngineKind::MemNaive, &graph);
    let others = [
        EngineKind::MemOpt,
        EngineKind::NativeBase,
        EngineKind::NativeOpt,
    ]
    .map(|kind| Engine::load(kind, &graph));
    let cases: [(&str, u64); 5] = [
        ("SELECT * WHERE { FILTER (1 = 2) }", 0),
        ("ASK { FILTER (1 = 2) }", 0),
        ("SELECT ?s WHERE { ?s ?p ?o { FILTER (1 = 2) } }", 0),
        (
            "SELECT * WHERE { { FILTER (1 = 2) } UNION { FILTER (1 = 1) } }",
            1,
        ),
        ("SELECT * WHERE { FILTER (1 = 1) }", 1),
    ];
    for (text, oracle) in cases {
        for threads in [1, 4] {
            let answer = |e: &Engine| {
                let engine = e.query_engine_with(Some(TIMEOUT), Some(threads));
                let prepared = engine.prepare(text).expect("parses");
                let result = engine.execute(&prepared).expect("evaluates");
                let counted = engine.count(&prepared).expect("counts");
                let rows = match &result {
                    QueryResult::Solutions { rows, .. } => rows.len().to_string(),
                    QueryResult::Boolean(b) => format!("ask:{b}"),
                };
                (rows, result.row_count() as u64, counted)
            };
            let expected = answer(&reference);
            assert_eq!(expected.2, oracle, "{text}: the oracle's count");
            for engine in &others {
                assert_eq!(
                    answer(engine),
                    expected,
                    "{text} at {threads} thread(s) on {}",
                    engine.kind()
                );
            }
        }
    }
}
