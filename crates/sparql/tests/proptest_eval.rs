//! Seeded model tests for the evaluator's join semantics: the hash-based
//! Join/LeftJoin implementations, negation, UNION, DISTINCT and slicing
//! must match a trivially-correct reference (nested loops over
//! materialized sides, straight from the SPARQL algebra definitions) on
//! random little graphs. Every case runs at parallelism 1 and 2 (its
//! exchange handing off after the first morsel — debug builds), with
//! counters attached and detached: the rows may not change, and the rows
//! the pattern steps emit may not depend on the degree. An ORDER BY under
//! LIMIT/OFFSET must deliver the full sort's sequence, sliced. Each graph
//! comes from a fixed seed, printed in every assertion message.

use std::collections::HashSet;
use std::sync::Arc;

use sp2b_datagen::rng::SplitMix64;
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::{OptimizerConfig, QueryEngine, QueryOptions, QueryResult, ScanCounters};
use sp2b_store::{ShardBackend, SharedStore, TripleStore};

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

/// Up to 30 triples whose subjects are IRIs and blank nodes and whose
/// objects mix IRIs, blank nodes, integers and strings, few enough
/// distinct values that ORDER BY keys tie. `p1` is missing for some
/// subjects, so an OPTIONAL over it leaves values unbound.
fn mixed_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut g = Graph::new();
    let subject = |n: u64| match n % 3 {
        0 => Subject::blank(format!("b{n}")),
        _ => Subject::iri(format!("http://t/s{n}")),
    };
    let object = |n: u64| match n % 4 {
        0 => Term::iri(format!("http://t/o{n}")),
        1 => Term::blank(format!("c{n}")),
        2 => Term::Literal(Literal::integer(n as i64 - 3)),
        _ => Term::Literal(Literal::string(format!("v{}", n % 5))),
    };
    for _ in 0..rng.next_u64() % 30 {
        let (s, p, o) = (rng.next_u64() % 6, rng.next_u64() % 3, rng.next_u64() % 8);
        g.add(subject(s), Iri::new(format!("http://t/p{p}")), object(o));
    }
    g
}

/// An OFFSET or LIMIT for a result of `len` rows: 0, inside it, or past
/// its end.
fn slice_bound(rng: &mut SplitMix64, len: usize) -> usize {
    match rng.next_u64() % 3 {
        0 => 0,
        1 => (rng.next_u64() % (len as u64 + 1)) as usize,
        _ => len + 1 + (rng.next_u64() % 5) as usize,
    }
}

/// 1–3 ORDER BY keys, ASC or DESC, over variables and expressions — or,
/// for a GROUP BY query, over the group key and the count.
fn order_keys(rng: &mut SplitMix64, grouped: bool) -> String {
    const ROW_KEYS: [&str; 10] = [
        "?s",
        "?o",
        "?v",
        "DESC(?s)",
        "DESC(?o)",
        "ASC(?v)",
        "DESC(?v)",
        "ASC(bound(?v))",
        "DESC(bound(?v))",
        "DESC(?o = ?v)",
    ];
    const GROUP_KEYS: [&str; 4] = ["?o", "DESC(?o)", "?n", "DESC(?n)"];
    let pool: &[&str] = if grouped { &GROUP_KEYS } else { &ROW_KEYS };
    let n = 1 + rng.next_u64() % 3;
    (0..n)
        .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// An ORDER BY under LIMIT/OFFSET keeps a bounded heap of offset + limit
/// rows; its sequence must be the full sort's, sliced, ties in arrival
/// order — on a native store with the optimizer and a memory store
/// without, at parallelism 1 and 4.
#[test]
fn a_sliced_sort_is_the_full_sort_sliced() {
    #[cfg(debug_assertions)]
    sp2b_sparql::par::diag::fan_out_at_once(true);
    for seed in 0..CASES {
        let graph = mixed_graph(seed);
        let mut rng = SplitMix64::new(seed ^ 0x70C4);
        let grouped = rng.next_u64().is_multiple_of(3);
        let body = if grouped {
            "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <http://t/p0> ?o } GROUP BY ?o"
        } else {
            "SELECT ?s ?o ?v WHERE { ?s <http://t/p0> ?o OPTIONAL { ?s <http://t/p1> ?v } }"
        };
        let full = format!("{body} ORDER BY {}", order_keys(&mut rng, grouped));
        for (backend, optimizer) in [
            (NATIVE, OptimizerConfig::full()),
            (ShardBackend::Mem, OptimizerConfig::default()),
        ] {
            let store = load(&graph, backend).into_shared();
            let run = |query: &str, degree: usize| {
                let options = QueryOptions::new().optimizer(optimizer).parallelism(degree);
                let engine = QueryEngine::with_options(store.clone(), options);
                let prepared = engine.prepare(query).expect("query parses");
                let Ok(QueryResult::Solutions { rows, .. }) = engine.execute(&prepared) else {
                    panic!("seed {seed}: {query} fails")
                };
                rows
            };
            let all = run(&full, 1);
            let mut slices = SplitMix64::new(seed);
            for _ in 0..3 {
                let offset = slice_bound(&mut slices, all.len());
                let limit = slice_bound(&mut slices, all.len());
                let sliced = format!("{full} LIMIT {limit} OFFSET {offset}");
                let want: Vec<_> = all.iter().skip(offset).take(limit).cloned().collect();
                for degree in [1, 4] {
                    assert_eq!(run(&full, degree), all, "seed {seed}: {full} at {degree}");
                    assert_eq!(
                        run(&sliced, degree),
                        want,
                        "seed {seed}: {sliced} at {degree}"
                    );
                }
            }
            // A cancelled sliced sort yields no rows, only the error.
            let engine = QueryEngine::with_options(store.clone(), QueryOptions::new());
            let prepared = engine.prepare(&format!("{full} LIMIT 3")).expect("parses");
            let cancel = engine.cancellation();
            cancel.cancel();
            let items: Vec<_> = engine.solutions_with(&prepared, &cancel).collect();
            assert!(
                matches!(&items[..], [Err(sp2b_sparql::Error::Cancelled)]),
                "seed {seed}: a cancelled sort delivered {} items",
                items.len()
            );
        }
    }
}
