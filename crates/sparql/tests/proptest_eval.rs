//! Seeded model tests for the evaluator's join semantics: the hash-based
//! Join/LeftJoin implementations, negation, UNION, DISTINCT and slicing
//! must match a trivially-correct reference (nested loops over
//! materialized sides, straight from the SPARQL algebra definitions) on
//! random little graphs. Every case runs at parallelism 1 and 2 (its
//! exchange handing off after the first morsel — debug builds), with
//! counters attached and detached: the rows may not change, and the rows
//! the pattern steps emit may not depend on the degree. Each graph comes
//! from a fixed seed, printed in every assertion message.

use std::collections::HashSet;
use std::sync::Arc;

use sp2b_datagen::rng::SplitMix64;
use sp2b_rdf::{Graph, Iri, Subject, Term};
use sp2b_sparql::{OptimizerConfig, QueryEngine, QueryOptions, QueryResult, ScanCounters};
use sp2b_store::{SharedStore, TripleStore};

mod common;
use common::{load, NATIVE};

/// Graphs per property.
const CASES: u64 = 96;

/// Up to 40 triples over five subjects, three predicates and five
/// objects: small enough for nested loops, dense enough to join.
fn random_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut g = Graph::new();
    for _ in 0..rng.next_u64() % 40 {
        let (s, p, o) = (rng.next_u64() % 5, rng.next_u64() % 3, rng.next_u64() % 5);
        g.add(
            Subject::iri(format!("http://j/s{s}")),
            Iri::new(format!("http://j/p{p}")),
            Term::iri(format!("http://j/o{o}")),
        );
    }
    g
}

/// Runs `property` on the graph of every seed.
fn for_each_graph(property: impl Fn(u64, &SharedStore)) {
    #[cfg(debug_assertions)]
    sp2b_sparql::par::diag::fan_out_at_once(true);
    for seed in 0..CASES {
        let store = load(&random_graph(seed), NATIVE).into_shared();
        property(seed, &store);
    }
}

/// `query`'s rows, stringified (`-` for unbound), the same at parallelism
/// 1 and 2 with counters attached and detached, whose pattern steps emit
/// the same rows at both degrees.
fn rows(seed: u64, store: &SharedStore, query: &str) -> Vec<Vec<String>> {
    let run = |degree: usize, counters: Option<&Arc<ScanCounters>>| {
        let options = QueryOptions::new()
            .optimizer(OptimizerConfig::default())
            .parallelism(degree);
        let mut engine = QueryEngine::with_options(store.clone(), options);
        if let Some(counters) = counters {
            engine = engine.scan_counters(Arc::clone(counters));
        }
        let prepared = engine.prepare(query).expect("query parses");
        let result = engine.execute(&prepared);
        let Ok(QueryResult::Solutions { rows, .. }) = result else {
            panic!("seed {seed}: {query} evaluates to {result:?}")
        };
        let cell = |t: &Option<Term>| t.as_ref().map_or("-".to_owned(), ToString::to_string);
        let rows: Vec<Vec<String>> = rows.iter().map(|r| r.iter().map(cell).collect()).collect();
        rows
    };
    let plain = run(1, None);
    let mut scanned = Vec::new();
    for degree in [1, 2] {
        let counters = Arc::new(ScanCounters::default());
        let watched = run(degree, Some(&counters));
        assert_eq!(watched, plain, "seed {seed}: {query} watched at {degree}");
        assert_eq!(run(degree, None), plain, "seed {seed}: {query} at {degree}");
        scanned.push(counters.total_rows());
    }
    assert_eq!(scanned[0], scanned[1], "seed {seed}: {query} rows scanned");
    plain
}

/// A single-pattern query as (subject, object) pairs.
fn scan_pairs(seed: u64, store: &SharedStore, predicate: &str) -> Vec<(String, String)> {
    let q = format!("SELECT ?s ?o WHERE {{ ?s <{predicate}> ?o }}");
    rows(seed, store, &q)
        .into_iter()
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect()
}

fn sorted(mut v: Vec<Vec<String>>) -> Vec<Vec<String>> {
    v.sort();
    v
}

/// Join(p0, p1) on the shared subject == reference nested loop.
#[test]
fn join_matches_reference() {
    for_each_graph(|seed, store| {
        let q = "SELECT ?s ?a ?b WHERE { ?s <http://j/p0> ?a . ?s <http://j/p1> ?b }";
        let engine_rows = sorted(rows(seed, store, q));
        let left = scan_pairs(seed, store, "http://j/p0");
        let right = scan_pairs(seed, store, "http://j/p1");
        let mut expected = Vec::new();
        for (s1, a) in &left {
            for (s2, b) in &right {
                if s1 == s2 {
                    expected.push(vec![s1.clone(), a.clone(), b.clone()]);
                }
            }
        }
        assert_eq!(engine_rows, sorted(expected), "seed {seed}");
    });
}

/// LeftJoin == matched join rows plus unmatched left rows.
#[test]
fn left_join_matches_reference() {
    for_each_graph(|seed, store| {
        let q = "SELECT ?s ?a ?b WHERE { ?s <http://j/p0> ?a OPTIONAL { ?s <http://j/p1> ?b } }";
        let engine_rows = sorted(rows(seed, store, q));
        let left = scan_pairs(seed, store, "http://j/p0");
        let right = scan_pairs(seed, store, "http://j/p1");
        let mut expected = Vec::new();
        for (s1, a) in &left {
            let matches: Vec<_> = right.iter().filter(|(s2, _)| s1 == s2).collect();
            if matches.is_empty() {
                expected.push(vec![s1.clone(), a.clone(), "-".to_owned()]);
            }
            for (_, b) in matches {
                expected.push(vec![s1.clone(), a.clone(), b.clone()]);
            }
        }
        assert_eq!(engine_rows, sorted(expected), "seed {seed}");
    });
}

/// LeftJoin with a condition implements the spec's Filter∪Diff
/// definition: rows where the condition holds, plus left rows with no
/// passing partner.
#[test]
fn conditional_left_join_matches_reference() {
    for_each_graph(|seed, store| {
        let q = "SELECT ?s ?a ?b WHERE { ?s <http://j/p0> ?a \
                 OPTIONAL { ?s <http://j/p1> ?b FILTER (?b != ?a) } }";
        let engine_rows = sorted(rows(seed, store, q));
        let left = scan_pairs(seed, store, "http://j/p0");
        let right = scan_pairs(seed, store, "http://j/p1");
        let mut expected = Vec::new();
        for (s1, a) in &left {
            let passing: Vec<_> = right.iter().filter(|(s2, b)| s1 == s2 && b != a).collect();
            if passing.is_empty() {
                expected.push(vec![s1.clone(), a.clone(), "-".to_owned()]);
            }
            for (_, b) in passing {
                expected.push(vec![s1.clone(), a.clone(), b.clone()]);
            }
        }
        assert_eq!(engine_rows, sorted(expected), "seed {seed}");
    });
}

/// !bound() negation == set difference of the two scans.
#[test]
fn negation_matches_set_difference() {
    for_each_graph(|seed, store| {
        let q = "SELECT ?s ?a WHERE { ?s <http://j/p0> ?a \
                 OPTIONAL { ?s <http://j/p1> ?b } FILTER (!bound(?b)) }";
        let engine_rows = sorted(rows(seed, store, q));
        let right = scan_pairs(seed, store, "http://j/p1");
        let right_subjects: HashSet<String> = right.into_iter().map(|(s, _)| s).collect();
        let expected: Vec<Vec<String>> = scan_pairs(seed, store, "http://j/p0")
            .into_iter()
            .filter(|(s, _)| !right_subjects.contains(s))
            .map(|(s, a)| vec![s, a])
            .collect();
        assert_eq!(engine_rows, sorted(expected), "seed {seed}");
    });
}

/// UNION == concatenation (multiset semantics, before DISTINCT).
#[test]
fn union_is_multiset_concatenation() {
    for_each_graph(|seed, store| {
        let q = "SELECT ?s ?o WHERE { { ?s <http://j/p0> ?o } UNION { ?s <http://j/p1> ?o } }";
        let union_rows = rows(seed, store, q);
        let mut expected: Vec<Vec<String>> = Vec::new();
        for predicate in ["http://j/p0", "http://j/p1"] {
            let pairs = scan_pairs(seed, store, predicate);
            expected.extend(pairs.into_iter().map(|(s, o)| vec![s, o]));
        }
        assert_eq!(sorted(union_rows), sorted(expected), "seed {seed}");
    });
}

/// DISTINCT dedups exactly.
#[test]
fn distinct_semantics() {
    for_each_graph(|seed, store| {
        let all = rows(seed, store, "SELECT ?s WHERE { ?s ?p ?o }");
        let distinct = rows(seed, store, "SELECT DISTINCT ?s WHERE { ?s ?p ?o }");
        let unique: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(distinct.len(), unique.len(), "seed {seed}");
        assert_eq!(
            distinct.into_iter().collect::<HashSet<_>>(),
            unique,
            "seed {seed}"
        );
    });
}

/// OFFSET/LIMIT slice the ordered stream exactly.
#[test]
fn slice_windows_ordered_results() {
    for_each_graph(|seed, store| {
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let (offset, limit) = (rng.next_u64() % 10, 1 + rng.next_u64() % 9);
        let all = rows(
            seed,
            store,
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o",
        );
        let q = format!(
            "SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }} ORDER BY ?s ?p ?o LIMIT {limit} OFFSET {offset}"
        );
        let expected: Vec<_> = all
            .into_iter()
            .skip(offset as usize)
            .take(limit as usize)
            .collect();
        assert_eq!(rows(seed, store, &q), expected, "seed {seed}: {q}");
    });
}
