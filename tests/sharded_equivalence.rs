//! Sharded-vs-unsharded equivalence: hash partitioning the store is a
//! loading/throughput feature, never a semantic one. For every benchmark
//! query (Q1–Q12 and the A1–A5 aggregation extension) on a generated
//! document, a store sharded 2/4/8 ways must produce the same result
//! multiset (and count) as the unsharded store — sequentially and under
//! morsel-driven parallel execution across shards — and the parallel
//! channel loader must produce stores whose per-query results are
//! independent of the shard count. Subject hashing must also keep the
//! shards balanced on SP²Bench data.

use sp2bench::core::{BenchQuery, ExtQuery};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::sparql::{QueryEngine, QueryOptions, QueryResult};
use sp2bench::store::{
    sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, SharedStore, TripleStore,
};

mod common;
use common::{load, sharded, NATIVE};

const TRIPLES: u64 = 8_000;
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

fn all_query_texts() -> Vec<(&'static str, &'static str)> {
    let mut queries: Vec<(&'static str, &'static str)> = BenchQuery::ALL
        .iter()
        .map(|q| (q.label(), q.text()))
        .collect();
    queries.extend(ExtQuery::ALL.iter().map(|q| (q.label(), q.text())));
    queries
}

fn engine(store: &SharedStore, parallelism: usize) -> QueryEngine {
    QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(parallelism))
}

/// A result as a sorted multiset of stringified rows (ASK → its answer).
fn multiset(result: &QueryResult) -> Vec<String> {
    match result {
        QueryResult::Solutions { rows, .. } => {
            let mut out: Vec<String> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|t| t.as_ref().map_or("-".to_owned(), |t| t.to_string()))
                        .collect::<Vec<_>>()
                        .join("\t")
                })
                .collect();
            out.sort();
            out
        }
        QueryResult::Boolean(b) => vec![format!("ask:{b}")],
    }
}

fn run_all(store: &SharedStore, parallelism: usize) -> Vec<(String, Vec<String>, u64)> {
    let qe = engine(store, parallelism);
    all_query_texts()
        .into_iter()
        .map(|(label, text)| {
            let prepared = qe.prepare(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            let result = qe
                .execute(&prepared)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let count = qe
                .count(&prepared)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            (label.to_owned(), multiset(&result), count)
        })
        .collect()
}

#[test]
fn sharded_and_unsharded_agree_on_all_queries() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let flat = load(&graph, NATIVE).into_shared();
    let reference = run_all(&flat, 1);

    for shards in SHARD_COUNTS {
        let sharded = sharded(
            &graph,
            shards,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        )
        .into_shared();
        assert_eq!(sharded.len(), flat.len(), "{shards} shards");
        let got = run_all(&sharded, 1);
        for ((label, rows, count), (rlabel, rrows, rcount)) in got.iter().zip(&reference) {
            assert_eq!(label, rlabel);
            assert_eq!(
                rows, rrows,
                "{label}: {shards} shards changed the result multiset"
            );
            assert_eq!(count, rcount, "{label}: {shards} shards changed the count");
        }
    }
}

#[test]
fn parallel_execution_over_shards_agrees_too() {
    // The morsel exchange fans out over the concatenated per-shard
    // chunk lists; results must not depend on the worker count.
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let sharded = sharded(
        &graph,
        4,
        ShardBy::Subject,
        ShardBackend::Native(IndexSelection::all()),
    )
    .into_shared();
    let reference = run_all(&sharded, 1);
    for degree in [2, 8] {
        let got = run_all(&sharded, degree);
        for ((label, rows, count), (_, rrows, rcount)) in got.iter().zip(&reference) {
            assert_eq!(rows, rrows, "{label}@{degree}: multiset");
            assert_eq!(count, rcount, "{label}@{degree}: count");
        }
    }
}

#[test]
fn pso_sharding_agrees_on_a_subset() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let flat = load(&graph, NATIVE).into_shared();
    let sharded = sharded(
        &graph,
        4,
        ShardBy::PredicateSubject,
        ShardBackend::Native(IndexSelection::all()),
    )
    .into_shared();
    let flat_engine = engine(&flat, 1);
    let sharded_engine = engine(&sharded, 1);
    for q in [
        BenchQuery::Q2,
        BenchQuery::Q4,
        BenchQuery::Q5a,
        BenchQuery::Q8,
        BenchQuery::Q12c,
    ] {
        let fp = flat_engine.prepare(q.text()).unwrap();
        let sp = sharded_engine.prepare(q.text()).unwrap();
        assert_eq!(
            multiset(&sharded_engine.execute(&sp).unwrap()),
            multiset(&flat_engine.execute(&fp).unwrap()),
            "{q}: pso sharding changed the result"
        );
    }
}

/// The sharded-load determinism satellite: loading the same document
/// through the parallel channel loader with 1, 2 and 8 shards yields
/// identical `len()` and identical Q5a/Q8 result multisets, and subject
/// hashing keeps shards balanced (no shard above twice the mean).
#[test]
fn channel_loader_is_deterministic_across_shard_counts_and_balanced() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let mut doc = Vec::new();
    sp2bench::rdf::ntriples::write_document(&mut doc, graph.iter()).unwrap();

    let reference_store = sharded_store_from_reader(
        doc.as_slice(),
        1,
        ShardBy::Subject,
        ShardBackend::Native(IndexSelection::all()),
    )
    .unwrap();
    let reference_len = reference_store.len();
    let reference: Vec<(String, Vec<String>, u64)> = run_all(&reference_store.into_shared(), 1)
        .into_iter()
        .filter(|(label, _, _)| label == "Q5a" || label == "Q8")
        .collect();
    assert_eq!(reference.len(), 2);

    for shards in [2usize, 8] {
        let store = sharded_store_from_reader(
            doc.as_slice(),
            shards,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        )
        .unwrap();
        assert_eq!(store.len(), reference_len, "{shards} shards: len");
        let lens = store.shard_lens();
        assert_eq!(lens.len(), shards);
        let mean = store.len() as f64 / shards as f64;
        for (i, &len) in lens.iter().enumerate() {
            assert!(
                (len as f64) <= 2.0 * mean,
                "shard {i}/{shards} holds {len} triples, > 2× the mean {mean:.0}: {lens:?}"
            );
        }
        let got: Vec<(String, Vec<String>, u64)> = run_all(&store.into_shared(), 1)
            .into_iter()
            .filter(|(label, _, _)| label == "Q5a" || label == "Q8")
            .collect();
        assert_eq!(got, reference, "{shards} shards: Q5a/Q8 results");
    }
}

#[test]
fn mem_backed_shards_agree_on_a_subset() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let flat = load(&graph, ShardBackend::Mem).into_shared();
    let sharded = sharded(&graph, 4, ShardBy::Subject, ShardBackend::Mem).into_shared();
    let flat_engine = engine(&flat, 1);
    let sharded_engine = engine(&sharded, 1);
    for q in [
        BenchQuery::Q2,
        BenchQuery::Q5b,
        BenchQuery::Q9,
        BenchQuery::Q11,
    ] {
        let fp = flat_engine.prepare(q.text()).unwrap();
        let sp = sharded_engine.prepare(q.text()).unwrap();
        assert_eq!(
            multiset(&sharded_engine.execute(&sp).unwrap()),
            multiset(&flat_engine.execute(&fp).unwrap()),
            "{q}: mem-backed sharding changed the result"
        );
    }
}
