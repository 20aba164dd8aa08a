//! The four engine configurations standing in for the paper's engines.
//!
//! | Paper engine | Configuration | Store | Optimizer |
//! |---|---|---|---|
//! | ARQ        | `mem-naive`   | hash-indexed memory | none |
//! | Sesame-M   | `mem-opt`     | hash-indexed memory | reorder + push |
//! | Sesame-DB  | `native-base` | four sorted runs    | none |
//! | Virtuoso   | `native-opt`  | four sorted runs    | reorder + push + substitute |
//!
//! As in the paper, in-memory engines pay their document load on every
//! query evaluation ("in-memory engines always must load the document"),
//! while native engines load once — with index build time — and are
//! measured separately (`LOADING TIME` metric).

use std::path::Path;
use std::time::Duration;

use sp2b_rdf::Graph;
use sp2b_sparql::{Error as SparqlError, OptimizerConfig, QueryEngine, QueryResult};
use sp2b_store::{
    IndexSelection, MemStore, NativeStore, ShardBackend, ShardBy, ShardedStore, SharedStore,
    TripleStore,
};

use crate::metrics::{measure, Measurement};
use crate::queries::BenchQuery;

/// The engine configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// In-memory store, naive evaluation order (ARQ role).
    MemNaive,
    /// In-memory store, heuristic optimization (Sesame-Memory role).
    MemOpt,
    /// Native four-run store, naive evaluation order (Sesame-DB role).
    NativeBase,
    /// Native four-run store, full cost-based optimization (Virtuoso role).
    NativeOpt,
}

impl EngineKind {
    /// All configurations, in report order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::MemNaive,
        EngineKind::MemOpt,
        EngineKind::NativeBase,
        EngineKind::NativeOpt,
    ];

    /// Short identifier used on the CLI and in reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::MemNaive => "mem-naive",
            EngineKind::MemOpt => "mem-opt",
            EngineKind::NativeBase => "native-base",
            EngineKind::NativeOpt => "native-opt",
        }
    }

    /// The paper engine whose design point this configuration occupies.
    pub fn paper_role(self) -> &'static str {
        match self {
            EngineKind::MemNaive => "ARQ",
            EngineKind::MemOpt => "SesameM",
            EngineKind::NativeBase => "SesameDB",
            EngineKind::NativeOpt => "Virtuoso",
        }
    }

    /// Parses a label.
    pub fn from_label(s: &str) -> Option<EngineKind> {
        Self::ALL.into_iter().find(|e| e.label() == s)
    }

    /// True for the index-backed configurations.
    pub fn is_native(self) -> bool {
        matches!(self, EngineKind::NativeBase | EngineKind::NativeOpt)
    }

    /// The optimizer settings of this configuration.
    pub fn optimizer(self) -> OptimizerConfig {
        match self {
            EngineKind::MemNaive | EngineKind::NativeBase => OptimizerConfig::default(),
            EngineKind::MemOpt => OptimizerConfig::heuristic(),
            EngineKind::NativeOpt => OptimizerConfig::full(),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How an engine's store is laid out: one monolithic store (the
/// default), or N hash-partitioned shards behind a shared dictionary
/// (`sp2b … --shards N [--shard-by subject|pso]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLayout {
    /// Shard count; `1` means the classic unsharded store.
    pub shards: usize,
    /// The partition key (only meaningful when `shards > 1`).
    pub shard_by: ShardBy,
}

impl Default for StoreLayout {
    /// One unsharded store, subject partitioning if sharded later.
    fn default() -> Self {
        StoreLayout {
            shards: 1,
            shard_by: ShardBy::Subject,
        }
    }
}

impl StoreLayout {
    /// A sharded layout.
    pub fn sharded(shards: usize, shard_by: ShardBy) -> Self {
        StoreLayout { shards, shard_by }
    }

    /// True when this layout actually shards (> 1 shard).
    pub fn is_sharded(&self) -> bool {
        self.shards > 1
    }
}

/// Per-shard loading facts of a sharded engine: triple counts and build
/// wall times in shard order, for the loading report.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// The partition key.
    pub shard_by: ShardBy,
    /// Short shard backend name ("mem", "native", "disk").
    pub backend: &'static str,
    /// Triples per shard.
    pub lens: Vec<usize>,
    /// Build wall time per shard (index sort / posting inserts; segment
    /// open validation for disk shards).
    pub build_times: Vec<Duration>,
}

impl ShardInfo {
    /// Number of shards.
    pub fn count(&self) -> usize {
        self.lens.len()
    }

    /// One human line: shard count, key, per-shard triples and build
    /// times — the "per-shard load" note in runner progress and reports.
    pub fn summary(&self) -> String {
        let lens = self
            .lens
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("/");
        let times = self
            .build_times
            .iter()
            .map(|t| format!("{:.1}ms", t.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
            .join("/");
        format!(
            "{} shard(s) by {} [{}]: {} triples, builds {}",
            self.count(),
            self.shard_by,
            self.backend,
            lens,
            times
        )
    }
}

/// A loaded engine: a shared store handle plus its optimizer settings.
/// The store lives behind an `Arc`, so one `Engine` can back any number
/// of concurrent [`QueryEngine`]s and multi-user client threads.
pub struct Engine {
    kind: EngineKind,
    store: SharedStore,
    /// Loading measurement (dictionary encode + index build). For
    /// in-memory engines this is also re-charged per query.
    pub loading: Measurement,
    /// Sharding facts when the store is sharded (`None` for the classic
    /// monolithic layout).
    shards: Option<ShardInfo>,
}

/// Outcome of one query execution.
#[derive(Debug)]
pub enum Outcome {
    /// Completed with this many solutions.
    Success {
        /// Solution count (ASK → 1 for `true`, 0 for `false` — consistent
        /// between the counting and materializing paths).
        count: u64,
        /// The materialized result (only kept when requested).
        result: Option<QueryResult>,
    },
    /// Hit the timeout.
    Timeout,
    /// Parser/evaluation error.
    Error(String),
}

impl Outcome {
    /// The solution count if successful.
    pub fn count(&self) -> Option<u64> {
        match self {
            Outcome::Success { count, .. } => Some(*count),
            _ => None,
        }
    }

    /// Success marker letters as in Table IV.
    pub fn status_letter(&self) -> char {
        match self {
            Outcome::Success { .. } => '+',
            Outcome::Timeout => 'T',
            Outcome::Error(_) => 'E',
        }
    }
}

impl Engine {
    /// Loads a document (as a parsed graph) into this engine
    /// configuration as one monolithic store, timing the load.
    pub fn load(kind: EngineKind, graph: &Graph) -> Engine {
        Self::load_with(kind, graph, &StoreLayout::default())
    }

    /// Like [`Engine::load`] with an explicit [`StoreLayout`]: with
    /// `shards > 1` the document loads into a [`ShardedStore`] —
    /// per-shard index builds run in parallel, and scans/point lookups
    /// parallelize/route across shards. Everything downstream
    /// ([`QueryEngine`], exchange, server, multi-user driver) is
    /// unchanged: the sharded store is just another `TripleStore` behind
    /// the same `Arc`.
    ///
    /// A configuration whose planner reorders patterns also gathers the
    /// store's statistics here, as part of the timed load. The stores
    /// collect them on first use; left to that, the first query prepared
    /// pays for a pass over the whole document — an `ASK` that answers in
    /// microseconds then reads as slow as the statistics build.
    pub fn load_with(kind: EngineKind, graph: &Graph, layout: &StoreLayout) -> Engine {
        let with_stats = |store: SharedStore| {
            if kind.optimizer().reorder_patterns {
                store.stats();
            }
            store
        };
        if !layout.is_sharded() {
            let (store, loading) = measure(|| -> SharedStore {
                with_stats(match kind {
                    EngineKind::MemNaive | EngineKind::MemOpt => {
                        MemStore::from_graph(graph).into_shared()
                    }
                    EngineKind::NativeBase | EngineKind::NativeOpt => {
                        NativeStore::with_indexes(graph, IndexSelection::all()).into_shared()
                    }
                })
            });
            return Engine {
                kind,
                store,
                loading,
                shards: None,
            };
        }
        let backend = if kind.is_native() {
            ShardBackend::Native(IndexSelection::all())
        } else {
            ShardBackend::Mem
        };
        let ((store, info), loading) = measure(|| {
            let sharded = ShardedStore::from_graph(graph, layout.shards, layout.shard_by, backend);
            let info = ShardInfo {
                shard_by: sharded.shard_by(),
                backend: backend.label(),
                lens: sharded.shard_lens(),
                build_times: sharded.shard_build_times().to_vec(),
            };
            (with_stats(sharded.into_shared()), info)
        });
        Engine {
            kind,
            store,
            loading,
            shards: Some(info),
        }
    }

    /// Opens a saved segment directory (written by `sp2b save`) as an
    /// engine, timing the open. The open reads only the segment root,
    /// the shared dictionary and the per-shard block indexes — no
    /// N-Triples parsing, no index sort; scans stream fixed-size blocks
    /// of the sorted runs through a shared LRU cache of `cache_bytes`
    /// (`None` = a fraction of the document size), so resident memory
    /// stays bounded however large the document is. Only the native
    /// configurations apply: segments hold index-ordered runs, which is
    /// the native engines' storage model.
    pub fn open_disk(
        kind: EngineKind,
        dir: &Path,
        cache_bytes: Option<u64>,
    ) -> Result<Engine, String> {
        let (opened, loading) = measure(|| sp2b_store::open_store_with(dir, cache_bytes));
        let store = opened.map_err(|e| e.to_string())?;
        let info = ShardInfo {
            shard_by: store.shard_by(),
            backend: "disk",
            lens: store.shard_lens(),
            build_times: store.shard_build_times().to_vec(),
        };
        Ok(Engine {
            kind,
            store: store.into_shared(),
            loading,
            shards: Some(info),
        })
    }

    /// The configuration.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Sharding facts (`None` for a monolithic store).
    pub fn shards(&self) -> Option<&ShardInfo> {
        self.shards.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &dyn TripleStore {
        &*self.store
    }

    /// One human line of the store's load-time statistics — what the
    /// cost-based planner runs on.
    pub fn stats_summary(&self) -> String {
        let stats = self.store.stats();
        format!(
            "statistics: {} predicates, {} characteristic sets over {} triples",
            stats.predicates.len(),
            stats.characteristic_sets.len(),
            stats.triples
        )
    }

    /// What loading took and what the dictionary it filled costs, for
    /// the load line: `tme=0.3012s usr+sys=0.2900s, terms 124388,
    /// dictionary 12.0 MiB` (arena, spans and id table — the part of a
    /// store that is resident whatever the backend).
    pub fn load_summary(&self) -> String {
        let dict = self.store.dictionary();
        format!(
            "{}, terms {}, dictionary {:.1} MiB",
            self.loading.summary(),
            dict.len(),
            dict.heap_bytes() as f64 / (1 << 20) as f64
        )
    }

    /// One human line of the out-of-core block cache's counters, or
    /// `None` for fully in-memory stores. Counters are cumulative over
    /// the engine's lifetime, so printing this after a workload shows
    /// how the bounded cache behaved under it.
    pub fn cache_summary(&self) -> Option<String> {
        Some(format!("cache: {}", self.store.cache_stats()?.summary()))
    }

    /// An owning handle to the store — what the multi-user driver hands
    /// to each client thread.
    pub fn shared_store(&self) -> SharedStore {
        self.store.clone()
    }

    /// Runs one benchmark query with a timeout; counts solutions without
    /// materializing terms. For in-memory engines the reported time
    /// includes the (already measured) loading share, mirroring the
    /// paper's measurement model.
    pub fn run(&self, query: BenchQuery, timeout: Option<Duration>) -> (Outcome, Measurement) {
        self.run_text(query.text(), timeout, false)
    }

    /// A [`QueryEngine`] facade owning a handle to this engine's store,
    /// carrying its optimizer configuration and the given timeout.
    /// Parallelism is the facade default (all available cores); use
    /// [`Engine::query_engine_with`] to pin a thread count.
    pub fn query_engine(&self, timeout: Option<Duration>) -> QueryEngine {
        self.query_engine_with(timeout, None)
    }

    /// Like [`Engine::query_engine`] with an explicit degree of
    /// parallelism (`Some(1)` forces single-threaded evaluation; `None`
    /// keeps the default of all available cores). This is what the CLI's
    /// `--threads` flag and the thread-scaling experiment drive.
    pub fn query_engine_with(
        &self,
        timeout: Option<Duration>,
        parallelism: Option<usize>,
    ) -> QueryEngine {
        let mut engine = QueryEngine::new(self.shared_store()).optimizer(self.kind.optimizer());
        if let Some(t) = timeout {
            engine = engine.timeout(t);
        }
        if let Some(p) = parallelism {
            engine = engine.parallelism(p);
        }
        engine
    }

    /// Runs arbitrary SPARQL text. With `materialize`, terms are decoded
    /// and returned; otherwise only the streaming count path runs (no term
    /// decoding at all — the Table V result-size model).
    pub fn run_text(
        &self,
        text: &str,
        timeout: Option<Duration>,
        materialize: bool,
    ) -> (Outcome, Measurement) {
        let engine = self.query_engine(timeout);
        let (outcome, mut m) = measure(|| {
            let prepared = match engine.prepare(text) {
                Ok(p) => p,
                Err(e) => return Outcome::Error(e.to_string()),
            };
            if materialize {
                match engine.execute(&prepared) {
                    Ok(r) => Outcome::Success {
                        count: r.row_count() as u64,
                        result: Some(r),
                    },
                    Err(SparqlError::Cancelled) => Outcome::Timeout,
                    Err(e) => Outcome::Error(e.to_string()),
                }
            } else {
                match engine.count(&prepared) {
                    Ok(count) => Outcome::Success {
                        count,
                        result: None,
                    },
                    Err(SparqlError::Cancelled) => Outcome::Timeout,
                    Err(e) => Outcome::Error(e.to_string()),
                }
            }
        });
        if !self.kind.is_native() {
            // In-memory engines: evaluation includes loading the document.
            m.tme += self.loading.tme;
            if let (Some(u), Some(lu)) = (m.usr, self.loading.usr) {
                m.usr = Some(u + lu);
            }
            if let (Some(s), Some(ls)) = (m.sys, self.loading.sys) {
                m.sys = Some(s + ls);
            }
        }
        (outcome, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2b_datagen::{generate_graph, Config};

    fn tiny_graph() -> Graph {
        generate_graph(Config::triples(4_000)).0
    }

    #[test]
    fn all_engines_answer_q1_identically() {
        let g = tiny_graph();
        let mut counts = Vec::new();
        for kind in EngineKind::ALL {
            let engine = Engine::load(kind, &g);
            let (outcome, _) = engine.run(BenchQuery::Q1, None);
            counts.push(outcome.count().unwrap_or_else(|| panic!("{kind} failed")));
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert_eq!(counts[0], 1, "Q1 returns exactly one row");
    }

    #[test]
    fn ask_queries_return_single_answer() {
        let g = tiny_graph();
        let engine = Engine::load(EngineKind::NativeOpt, &g);
        let (outcome, _) = engine.run_text(crate::queries::Q12C, None, true);
        let Outcome::Success {
            result: Some(r), ..
        } = outcome
        else {
            panic!("Q12c must succeed")
        };
        assert_eq!(r.as_bool(), Some(false), "John Q. Public must not exist");
    }

    #[test]
    fn timeout_reports_as_timeout() {
        let g = tiny_graph();
        let engine = Engine::load(EngineKind::MemNaive, &g);
        // Q4 with a zero timeout cannot finish.
        let (outcome, _) = engine.run(BenchQuery::Q4, Some(Duration::ZERO));
        assert!(matches!(outcome, Outcome::Timeout), "{outcome:?}");
        assert_eq!(outcome.status_letter(), 'T');
    }

    #[test]
    fn labels_roundtrip() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::from_label(e.label()), Some(e));
        }
        assert_eq!(EngineKind::from_label("nope"), None);
    }

    #[test]
    fn sharded_engines_answer_like_monolithic_ones() {
        let g = tiny_graph();
        for kind in [EngineKind::NativeOpt, EngineKind::MemOpt] {
            let flat = Engine::load(kind, &g);
            assert!(flat.shards().is_none());
            let layout = StoreLayout::sharded(3, ShardBy::Subject);
            let sharded = Engine::load_with(kind, &g, &layout);
            let info = sharded.shards().expect("sharded engine reports shards");
            assert_eq!(info.count(), 3);
            assert_eq!(info.lens.iter().sum::<usize>(), g.len());
            assert_eq!(info.build_times.len(), 3);
            assert!(info.summary().contains("3 shard(s) by subject"));
            for q in [BenchQuery::Q1, BenchQuery::Q5a, BenchQuery::Q9] {
                let (a, _) = flat.run(q, None);
                let (b, _) = sharded.run(q, None);
                assert_eq!(a.count(), b.count(), "{kind} {q}");
            }
        }
    }

    #[test]
    fn disk_engine_opens_saved_segments_and_agrees() {
        let g = tiny_graph();
        let dir = std::env::temp_dir().join(format!("sp2b-core-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        sp2b_store::save_graph(&dir, &g, 2, ShardBy::Subject).expect("save");
        let flat = Engine::load(EngineKind::NativeOpt, &g);
        let disk = Engine::open_disk(EngineKind::NativeOpt, &dir, None).expect("open");
        let info = disk.shards().expect("disk engines report shards");
        assert_eq!(info.count(), 2);
        assert!(info.summary().contains("2 shard(s) by subject [disk]"));
        for q in [BenchQuery::Q1, BenchQuery::Q5a, BenchQuery::Q9] {
            let (a, _) = flat.run(q, None);
            let (b, _) = disk.run(q, None);
            assert_eq!(a.count(), b.count(), "{q}");
        }
        // Disk engines surface their block-cache counters; in-memory
        // engines don't have any.
        assert!(flat.cache_summary().is_none());
        let cache = disk.cache_summary().expect("disk engine has a cache");
        assert!(cache.contains("misses"), "{cache}");
        let summary = disk.stats_summary();
        assert!(summary.starts_with("statistics: "), "{summary}");
        // An explicit budget is honored verbatim.
        let tiny = Engine::open_disk(EngineKind::NativeOpt, &dir, Some(4096)).expect("open");
        let (_, _) = tiny.run(BenchQuery::Q1, None);
        assert!(
            tiny.cache_summary().unwrap().contains("of 4096 B budget"),
            "{}",
            tiny.cache_summary().unwrap()
        );
        let err = Engine::open_disk(EngineKind::NativeOpt, Path::new("/nonexistent/segs"), None)
            .err()
            .expect("missing directory must fail");
        assert!(err.contains("does not exist"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_engines_charge_loading_into_queries() {
        let g = tiny_graph();
        let mem = Engine::load(EngineKind::MemNaive, &g);
        let (_, m) = mem.run(BenchQuery::Q1, None);
        assert!(
            m.tme >= mem.loading.tme,
            "load share missing from query time"
        );
    }
}
