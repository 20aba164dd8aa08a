//! Disk-vs-memory equivalence: persisting a document as checksummed
//! segments (`sp2b save`) and reopening it is a storage feature, never a
//! semantic one. For every benchmark query (Q1–Q12 and the A1–A5
//! aggregation extension), a reopened disk store — at 1, 2 and 4 shards,
//! sequentially and under morsel-driven parallel execution — must
//! produce the same result multiset (and count) as the in-memory native
//! store built from the same graph. And reopening must be genuinely
//! out-of-core: a saved document answers queries after its N-Triples
//! source is deleted, and keeps answering them identically when the
//! block cache's byte budget is smaller than any single sorted run.

use std::path::{Path, PathBuf};

use sp2bench::core::{BenchQuery, ExtQuery};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::sparql::{QueryEngine, QueryOptions, QueryResult};
use sp2bench::store::{open_store, open_store_with, save_graph, ShardBy, SharedStore, TripleStore};

mod common;
use common::{load, NATIVE};

const TRIPLES: u64 = 6_000;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("sp2b-disk-eq-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir(&path).expect("create scratch dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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

/// The tentpole acceptance: save → reopen at 1/2/4 shards; every query
/// agrees with the in-memory native store on multiset and count, both
/// sequentially and with the morsel exchange fanning out over the
/// lazily-loaded sorted runs.
#[test]
fn reopened_disk_store_agrees_with_memory_on_all_queries() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let flat = load(&graph, NATIVE).into_shared();
    let reference = run_all(&flat, 1);

    for shards in SHARD_COUNTS {
        let dir = TempDir::new(&format!("agree-{shards}"));
        let stats = save_graph(dir.path(), &graph, shards, ShardBy::Subject)
            .unwrap_or_else(|e| panic!("{shards} shards: save failed: {e}"));
        assert_eq!(stats.triples, graph.len() as u64, "{shards} shards: save");
        assert_eq!(stats.shard_lens.len(), shards);

        let disk = open_store(dir.path())
            .unwrap_or_else(|e| panic!("{shards} shards: open failed: {e}"))
            .into_shared();
        assert_eq!(disk.len(), flat.len(), "{shards} shards: len");

        for parallelism in [1usize, 4] {
            let got = run_all(&disk, parallelism);
            for ((label, rows, count), (rlabel, rrows, rcount)) in got.iter().zip(&reference) {
                assert_eq!(label, rlabel);
                assert_eq!(
                    rows, rrows,
                    "{label}: disk @ {shards} shards, parallelism {parallelism} \
                     changed the result multiset"
                );
                assert_eq!(
                    count, rcount,
                    "{label}: disk @ {shards} shards, parallelism {parallelism} \
                     changed the count"
                );
            }
        }
    }
}

/// The out-of-core tentpole: a cache budget smaller than any single
/// sorted run forces every query to stream blocks through eviction —
/// and the answers must not change. Opens the saved segments with a
/// 32 KiB budget (each 2-shard run here is ~36 KB) the way the CLI's
/// `--cache-bytes` does, runs Q1–Q12/A1–A5 sequentially and morsel-parallel against the
/// in-memory reference, then reads the cache gauges back: evictions
/// actually happened and peak resident block bytes never exceeded the
/// budget (the cache itself debug-asserts the same invariant on every
/// insert, so a debug-build test run proves it block by block).
#[test]
fn tiny_cache_budget_streams_blocks_without_changing_results() {
    const BUDGET: u64 = 32 * 1024;
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let flat = load(&graph, NATIVE).into_shared();
    let reference = run_all(&flat, 1);

    let dir = TempDir::new("tiny-cache");
    let stats = save_graph(dir.path(), &graph, 2, ShardBy::Subject).expect("save");
    // Premise: the budget is smaller than any one run, so no shard can
    // simply hold a whole permutation resident.
    assert!(
        stats.shard_lens.iter().all(|&l| (l as u64) * 12 > BUDGET),
        "premise: every run ({:?} triples at 12 B) must exceed the {BUDGET} B budget",
        stats.shard_lens
    );

    let disk = open_store_with(dir.path(), Some(BUDGET))
        .expect("open with tiny cache")
        .into_shared();

    for parallelism in [1usize, 4] {
        let got = run_all(&disk, parallelism);
        for ((label, rows, count), (rlabel, rrows, rcount)) in got.iter().zip(&reference) {
            assert_eq!(label, rlabel);
            assert_eq!(
                rows, rrows,
                "{label}: tiny cache @ parallelism {parallelism} changed the result multiset"
            );
            assert_eq!(
                count, rcount,
                "{label}: tiny cache @ parallelism {parallelism} changed the count"
            );
        }
    }

    let cache = disk.cache_stats().expect("disk store exposes cache stats");
    assert_eq!(cache.budget_bytes, BUDGET);
    assert!(
        cache.evictions > 0,
        "a budget below any run must evict: {cache:?}"
    );
    assert!(
        cache.peak_resident_bytes <= BUDGET,
        "peak resident {} B exceeded the {BUDGET} B budget",
        cache.peak_resident_bytes
    );
    assert!(cache.resident_bytes <= BUDGET, "{cache:?}");
}

/// PSO-partitioned segments agree too — the saved partition key round-
/// trips through the root header and routes bound-predicate scans.
#[test]
fn pso_partitioned_segments_agree_on_a_subset() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let flat = load(&graph, NATIVE).into_shared();
    let dir = TempDir::new("pso");
    save_graph(dir.path(), &graph, 4, ShardBy::PredicateSubject).expect("save");
    let disk = open_store(dir.path()).expect("open").into_shared();
    let flat_engine = engine(&flat, 1);
    let disk_engine = engine(&disk, 1);
    for q in [
        BenchQuery::Q2,
        BenchQuery::Q4,
        BenchQuery::Q5a,
        BenchQuery::Q8,
        BenchQuery::Q12c,
    ] {
        let fp = flat_engine.prepare(q.text()).unwrap();
        let dp = disk_engine.prepare(q.text()).unwrap();
        assert_eq!(
            multiset(&disk_engine.execute(&dp).unwrap()),
            multiset(&flat_engine.execute(&fp).unwrap()),
            "{q}: pso-partitioned disk store changed the result"
        );
    }
}

/// The out-of-core guarantee: after `sp2b save`, the N-Triples source is
/// dead weight. Saving from a file, deleting that file and reopening the
/// segment directory still answers Q1 (exactly one solution, per the
/// paper) — nothing reparses the document.
#[test]
fn reopen_answers_q1_without_the_ntriples_source() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let dir = TempDir::new("no-source");
    let doc = dir.path().join("doc.nt");
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&doc).unwrap());
        sp2bench::rdf::ntriples::write_document(&mut out, graph.iter()).unwrap();
    }
    let segs = dir.path().join("segs");
    std::fs::create_dir(&segs).unwrap();
    let source = std::io::BufReader::new(std::fs::File::open(&doc).unwrap());
    let stats = sp2bench::store::save_segments_from_reader(source, &segs, 2, ShardBy::Subject)
        .expect("save from file");
    assert_eq!(stats.triples, graph.len() as u64);

    // The document is gone; only the segments remain.
    std::fs::remove_file(&doc).unwrap();

    let disk = open_store(&segs).expect("reopen").into_shared();
    let qe = engine(&disk, 1);
    let prepared = qe.prepare(BenchQuery::Q1.text()).unwrap();
    assert_eq!(qe.count(&prepared).unwrap(), 1, "Q1 after source deletion");
}
