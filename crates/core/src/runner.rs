//! The benchmark runner: Section VI-B's protocol.
//!
//! For every document scale the runner generates the N-Triples document
//! once, untimed (deterministic, so results are reproducible), loads its
//! bytes into each engine configuration (timed — the LOADING TIME metric:
//! parse, intern and build, the store's one load route), executes every
//! selected query `runs` times under a timeout, and records status,
//! wall/CPU time, memory watermark and result count. The report type
//! feeds the Table IV/V/VI/VII and Figure 5–8 formatters in
//! [`crate::report`].

use std::time::Duration;

use sp2b_datagen::{generate_document, Config};

use crate::endpoint::{Endpoint, HttpTransport};
use crate::engines::{Engine, EngineKind, Outcome, ShardInfo, StoreLayout};
use crate::metrics::{Measurement, PENALTY_SECONDS};
use crate::multiuser::{InProcessTransport, MultiuserConfig, WorkTransport};
use crate::queries::BenchQuery;
use crate::workload::{run_workload, WorkloadReport};

/// Execution status of one query cell, as lettered in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// `+` — success.
    Success,
    /// `T` — timeout.
    Timeout,
    /// `M` — memory exhaustion (reported when the store/load path fails
    /// to allocate; rare under cooperative evaluation).
    Memory,
    /// `E` — error.
    Error,
}

impl Status {
    /// The Table IV letter.
    pub fn letter(self) -> char {
        match self {
            Status::Success => '+',
            Status::Timeout => 'T',
            Status::Memory => 'M',
            Status::Error => 'E',
        }
    }
}

/// Averaged result of one (scale, engine, query) cell.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Document scale in triples.
    pub scale: u64,
    /// Engine configuration.
    pub engine: EngineKind,
    /// The query.
    pub query: BenchQuery,
    /// Worst status across runs.
    pub status: Status,
    /// Mean measurement over successful runs (or over all runs if none
    /// succeeded — timeout cells carry the timeout duration).
    pub measurement: Measurement,
    /// Result cardinality (from the first successful run).
    pub count: Option<u64>,
}

impl QueryRecord {
    /// Time in seconds used for the aggregate means (penalty on failure).
    pub fn penalized_seconds(&self) -> f64 {
        match self.status {
            Status::Success => self.measurement.tme.as_secs_f64(),
            _ => PENALTY_SECONDS,
        }
    }
}

/// Loading record per (scale, engine).
#[derive(Debug, Clone)]
pub struct LoadRecord {
    /// Document scale in triples.
    pub scale: u64,
    /// Engine configuration.
    pub engine: EngineKind,
    /// The load measurement (dictionary + index build).
    pub measurement: Measurement,
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Document scales (triples). The paper uses 10k/50k/250k/1M/5M/25M.
    pub scales: Vec<u64>,
    /// Engines to benchmark.
    pub engines: Vec<EngineKind>,
    /// Queries to run.
    pub queries: Vec<BenchQuery>,
    /// Per-query timeout (the paper: 30 min).
    pub timeout: Duration,
    /// Runs per cell (the paper: 3).
    pub runs: usize,
    /// Generator seed.
    pub seed: u64,
}

impl RunnerConfig {
    /// The paper's protocol at reduced scale: 10k/50k/250k/1M documents,
    /// all engines, all 17 queries, 3 runs. The timeout defaults to 30 s
    /// (the paper's 30 min divided by the hardware generation gap; set
    /// `timeout` explicitly to reproduce the original).
    pub fn paper_defaults() -> Self {
        RunnerConfig {
            scales: vec![10_000, 50_000, 250_000, 1_000_000],
            engines: EngineKind::ALL.to_vec(),
            queries: BenchQuery::ALL.to_vec(),
            timeout: Duration::from_secs(30),
            runs: 3,
            seed: sp2b_datagen::Rng::DEFAULT_SEED,
        }
    }

    /// A seconds-scale smoke configuration for tests and demos.
    pub fn quick() -> Self {
        RunnerConfig {
            scales: vec![5_000, 20_000],
            engines: EngineKind::ALL.to_vec(),
            queries: BenchQuery::ALL.to_vec(),
            timeout: Duration::from_secs(5),
            runs: 1,
            seed: sp2b_datagen::Rng::DEFAULT_SEED,
        }
    }
}

/// A completed benchmark: all cells plus loading times.
#[derive(Debug, Clone, Default)]
pub struct BenchmarkReport {
    /// Scales actually run.
    pub scales: Vec<u64>,
    /// Engines actually run.
    pub engines: Vec<EngineKind>,
    /// Queries actually run.
    pub queries: Vec<BenchQuery>,
    /// Per-cell records.
    pub records: Vec<QueryRecord>,
    /// Per-(scale, engine) loading measurements.
    pub loads: Vec<LoadRecord>,
}

impl BenchmarkReport {
    /// The record for a cell.
    pub fn cell(&self, scale: u64, engine: EngineKind, query: BenchQuery) -> Option<&QueryRecord> {
        self.records
            .iter()
            .find(|r| r.scale == scale && r.engine == engine && r.query == query)
    }

    /// The best-known result count for (scale, query): prefers native-opt.
    pub fn result_count(&self, scale: u64, query: BenchQuery) -> Option<u64> {
        let mut best: Option<u64> = None;
        for r in &self.records {
            if r.scale == scale && r.query == query {
                if let Some(c) = r.count {
                    if r.engine == EngineKind::NativeOpt {
                        return Some(c);
                    }
                    best = Some(c);
                }
            }
        }
        best
    }
}

/// An already-built system to drive a workload against.
pub enum WorkloadTarget<'a> {
    /// In-process: the clients share the engine's store (a loaded
    /// document, or a segment directory opened with
    /// [`Engine::open_disk`]).
    Engine(&'a Engine),
    /// A live SPARQL endpoint over HTTP: the server owns the store, and
    /// every measured latency includes the full network path (connect,
    /// request framing, result-set transfer).
    Endpoint(&'a Endpoint),
}

/// What a finished run was driven against — the report header's facts.
#[derive(Debug, Clone)]
pub enum TargetFacts {
    /// An in-process store.
    Store {
        /// Document scale in triples.
        scale: u64,
        /// Engine configuration driven.
        engine: EngineKind,
        /// Loading measurement of the shared store.
        load: Measurement,
        /// The store's shards (count, per-shard triple counts and build
        /// times).
        shards: ShardInfo,
    },
    /// A live endpoint, by URL.
    Endpoint(String),
}

/// A completed mixed-workload run: what was driven plus the driver's
/// report (formatted by [`crate::report::mixed_workload_report`]).
#[derive(Debug, Clone)]
pub struct MixedWorkloadReport {
    /// The system under test.
    pub target: TargetFacts,
    /// The workload driver's outcome.
    pub workload: WorkloadReport,
}

/// Drives the multi-user workload (the paper's Section VII scenario: N
/// concurrent clients sharing one store) against a target that is
/// already built — the whole protocol behind `sp2b multiuser`, whose
/// front end opens the engine or names the endpoint. For an engine the
/// reported scale is the store's triple count. `progress` receives one
/// line per phase.
pub fn run_workload_on(
    target: WorkloadTarget<'_>,
    cfg: &MultiuserConfig,
    mut progress: impl FnMut(&str),
) -> MixedWorkloadReport {
    let (facts, against, transport): (_, _, Box<dyn WorkTransport>) = match target {
        WorkloadTarget::Engine(engine) => (
            TargetFacts::Store {
                scale: engine.store().len() as u64,
                engine: engine.kind(),
                load: engine.loading,
                shards: engine.shards().clone(),
            },
            format!("per-query parallelism {}", cfg.parallelism),
            Box::new(InProcessTransport::new(engine.shared_store(), cfg)),
        ),
        WorkloadTarget::Endpoint(endpoint) => (
            TargetFacts::Endpoint(endpoint.url()),
            format!("against {}", endpoint.url()),
            Box::new(HttpTransport::new(endpoint.clone())),
        ),
    };
    progress(&format!(
        "driving {} client(s), arrival {}, {against}…",
        cfg.clients, cfg.arrival
    ));
    let workload = run_workload(transport.as_ref(), cfg);
    let intended = workload
        .intended_rate()
        .map_or(String::new(), |r| format!(", intended {r:.1} q/s"));
    progress(&format!(
        "{} of {} queries completed in {:.2?} ({:.1} q/s{intended})",
        workload.completed,
        workload.issued,
        workload.wall,
        workload.completed_rate(),
    ));
    MixedWorkloadReport {
        target: facts,
        workload,
    }
}

/// Runs the benchmark. `progress` receives one line per completed cell.
pub fn run_benchmark(cfg: &RunnerConfig, mut progress: impl FnMut(&str)) -> BenchmarkReport {
    let mut report = BenchmarkReport {
        scales: cfg.scales.clone(),
        engines: cfg.engines.clone(),
        queries: cfg.queries.clone(),
        ..Default::default()
    };

    for &scale in &cfg.scales {
        progress(&format!("generating {scale} triples…"));
        let (doc, _) = generate_document(Config::triples(scale).with_seed(cfg.seed));
        for &kind in &cfg.engines {
            run_engine(cfg, &doc, scale, kind, &mut report, &mut progress);
        }
    }
    report
}

fn run_engine(
    cfg: &RunnerConfig,
    doc: &[u8],
    scale: u64,
    kind: EngineKind,
    report: &mut BenchmarkReport,
    progress: &mut impl FnMut(&str),
) {
    let engine = Engine::load(kind, doc, &StoreLayout::default())
        .expect("the generator writes valid N-Triples");
    report.loads.push(LoadRecord {
        scale,
        engine: kind,
        measurement: engine.loading,
    });
    progress(&format!(
        "loaded {scale} triples into {kind} ({})",
        engine.load_summary()
    ));

    for &query in &cfg.queries {
        let mut status = Status::Success;
        let mut count = None;
        let mut times: Vec<Measurement> = Vec::new();
        for _run in 0..cfg.runs.max(1) {
            let (outcome, m) = engine.run(query, Some(cfg.timeout));
            match outcome {
                Outcome::Success { count: c, .. } => {
                    count.get_or_insert(c);
                    times.push(m);
                }
                Outcome::Timeout => {
                    status = Status::Timeout;
                    times.push(m);
                    break; // further runs would time out identically
                }
                Outcome::Error(_) => {
                    status = Status::Error;
                    times.push(m);
                    break;
                }
            }
        }
        let measurement = average(&times);
        progress(&format!(
            "{scale:>9} {kind:<12} {query:<5} {} {}",
            status.letter(),
            measurement.summary()
        ));
        report.records.push(QueryRecord {
            scale,
            engine: kind,
            query,
            status,
            measurement,
            count,
        });
    }
}

fn average(ms: &[Measurement]) -> Measurement {
    if ms.is_empty() {
        return Measurement::default();
    }
    let n = ms.len() as u32;
    let tme = ms.iter().map(|m| m.tme).sum::<Duration>() / n;
    let sum_opt = |f: fn(&Measurement) -> Option<Duration>| -> Option<Duration> {
        let vals: Vec<Duration> = ms.iter().filter_map(f).collect();
        if vals.len() == ms.len() {
            Some(vals.iter().sum::<Duration>() / n)
        } else {
            None
        }
    };
    Measurement {
        tme,
        usr: sum_opt(|m| m.usr),
        sys: sum_opt(|m| m.sys),
        rmem_kib: ms.iter().filter_map(|m| m.rmem_kib).max(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RunnerConfig {
        RunnerConfig {
            scales: vec![3_000],
            engines: vec![EngineKind::MemOpt, EngineKind::NativeOpt],
            queries: vec![
                BenchQuery::Q1,
                BenchQuery::Q3c,
                BenchQuery::Q9,
                BenchQuery::Q12c,
            ],
            timeout: Duration::from_secs(10),
            runs: 2,
            seed: sp2b_datagen::Rng::DEFAULT_SEED,
        }
    }

    #[test]
    fn runner_produces_full_grid() {
        let cfg = tiny_config();
        let report = run_benchmark(&cfg, |_| {});
        assert_eq!(report.records.len(), 2 * 4);
        assert_eq!(report.loads.len(), 2);
        for r in &report.records {
            assert_eq!(r.status, Status::Success, "{:?}", r);
        }
    }

    #[test]
    fn invariant_counts_hold() {
        let report = run_benchmark(&tiny_config(), |_| {});
        assert_eq!(report.result_count(3_000, BenchQuery::Q1), Some(1));
        assert_eq!(report.result_count(3_000, BenchQuery::Q3c), Some(0));
        assert_eq!(report.result_count(3_000, BenchQuery::Q9), Some(4));
        // ASK counts one solution (the boolean).
        assert_eq!(report.result_count(3_000, BenchQuery::Q12c), Some(0));
    }

    #[test]
    fn mixed_workload_mode_reports_clients() {
        use crate::multiuser::{StopCondition, WorkItem};
        let mut cfg = MultiuserConfig::new(2, StopCondition::Rounds(1));
        cfg.mix = vec![
            WorkItem::bench(BenchQuery::Q1),
            WorkItem::bench(BenchQuery::Q3c),
        ];
        let (doc, _) = generate_document(Config::triples(2_000));
        let engine =
            Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default()).unwrap();
        let mut lines = Vec::new();
        let report = run_workload_on(WorkloadTarget::Engine(&engine), &cfg, |l| {
            lines.push(l.to_owned())
        });
        assert_eq!(report.workload.clients.len(), 2);
        assert_eq!(
            report.workload.completed, 4,
            "1 round × 2 queries × 2 clients"
        );
        assert!(report.workload.clients.iter().all(|c| c.errors == 0));
        assert!(
            matches!(report.target, TargetFacts::Store { scale: 2_000, .. }),
            "{:?}",
            report.target
        );
        assert!(lines.iter().any(|l| l.contains("driving 2 client(s)")));
    }

    #[test]
    fn penalized_seconds_applies_penalty() {
        let rec = QueryRecord {
            scale: 1,
            engine: EngineKind::MemNaive,
            query: BenchQuery::Q1,
            status: Status::Timeout,
            measurement: Measurement::default(),
            count: None,
        };
        assert_eq!(rec.penalized_seconds(), PENALTY_SECONDS);
    }
}
