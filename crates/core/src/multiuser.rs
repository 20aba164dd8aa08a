//! The multi-client mixed workload — the paper's Section VII
//! "multi-user scenario": many clients issuing a mix of cheap and
//! expensive queries against **one shared store**, which real-world
//! query-log studies (Bonifati et al.) show is what production engines
//! actually face.
//!
//! This module holds what a run is *configured* with
//! ([`MultiuserConfig`]: clients, mix, stop condition, arrival process)
//! and *how* a client reaches the store ([`WorkTransport`]): the
//! in-process transport ([`InProcessTransport`]) gives every client its
//! own [`QueryEngine`] over a clone of the same [`SharedStore`] handle,
//! while [`crate::endpoint::HttpTransport`] drives a live `sp2b serve`
//! endpoint over real sockets so the measured path includes connection
//! handling, HTTP framing and result-set transfer. The one driver that
//! runs either, closed or open loop, is
//! [`crate::workload::run_workload`].

use std::time::{Duration, Instant};

use sp2b_sparql::{Cancellation, Error as SparqlError, QueryEngine, QueryOptions};
use sp2b_store::SharedStore;

use crate::ext_queries::ExtQuery;
use crate::queries::BenchQuery;
use crate::workload::Arrival;

// ---------------------------------------------------------------------------
// Workload configuration
// ---------------------------------------------------------------------------

/// One entry of a client's query mix.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Display label (Q1…Q12c, A1…A5, or caller-chosen).
    pub label: String,
    /// SPARQL text.
    pub text: String,
}

impl WorkItem {
    /// A benchmark query as a mix entry.
    pub fn bench(q: BenchQuery) -> WorkItem {
        WorkItem {
            label: q.label().to_owned(),
            text: q.text().to_owned(),
        }
    }

    /// An aggregation extension query as a mix entry.
    pub fn ext(q: ExtQuery) -> WorkItem {
        WorkItem {
            label: q.label().to_owned(),
            text: q.text().to_owned(),
        }
    }
}

/// The default mix: all of Q1–Q12 plus the A1–A5 aggregation extension —
/// the full cheap-to-expensive spread of the benchmark.
pub fn default_mix() -> Vec<WorkItem> {
    BenchQuery::ALL
        .iter()
        .map(|&q| WorkItem::bench(q))
        .chain(ExtQuery::ALL.iter().map(|&q| WorkItem::ext(q)))
        .collect()
}

/// When a multi-user run ends.
#[derive(Debug, Clone, Copy)]
pub enum StopCondition {
    /// Wall-clock bound (the CLI's `--duration`). Queries still in flight
    /// at the deadline are cancelled and not recorded.
    Duration(Duration),
    /// Every client performs exactly this many passes over its mix —
    /// deterministic, for tests and apples-to-apples comparisons.
    Rounds(u32),
}

/// Multi-user workload configuration.
#[derive(Debug, Clone)]
pub struct MultiuserConfig {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Intra-query parallelism per client (`QueryOptions::parallelism`) —
    /// the CLI's `--threads`.
    pub parallelism: usize,
    /// When to stop.
    pub stop: StopCondition,
    /// Per-query timeout (counted as a timeout, not an error).
    pub timeout: Duration,
    /// The query mix every client cycles through (each client starts at
    /// its own rotation offset). Must not be empty.
    pub mix: Vec<WorkItem>,
    /// Rotation seed, so reruns are comparable.
    pub seed: u64,
    /// Compute per-execution result checksums on the in-process
    /// transport: solutions stream through the TSV serializer into an
    /// order-insensitive fold ([`crate::endpoint::ChecksumWriter`])
    /// instead of the zero-decode counting path, so checksum stability
    /// is asserted like count stability, and values are directly
    /// comparable with HTTP TSV bodies. Off by default (counting is the
    /// benchmark fast path); the HTTP transport folds checksums from its
    /// TSV bodies unconditionally — they are free there.
    pub checksums: bool,
    /// The arrival process: where each request's *intended* send time
    /// comes from. [`Arrival::Closed`] (the default) means the client's
    /// previous completion; the open processes mean a schedule thread's
    /// stamp (see [`crate::workload`]).
    pub arrival: Arrival,
    /// Warmup period measured from the run start: outcomes that start
    /// (closed loop) or were intended (open loop) inside it execute
    /// normally but are excluded from every histogram and from
    /// count/checksum-stability tracking, tallied separately
    /// ([`crate::workload::ClientReport::warmup_excluded`]).
    pub warmup: Duration,
    /// Per-template popularity weights paralleling `mix`, from the mix
    /// DSL or `--zipf` ([`crate::workload::WeightedMix`]). Empty (the
    /// default) means the closed loop walks the mix in rotation and the
    /// open loops sample it uniformly; non-empty switches both to seeded
    /// weighted sampling.
    pub weights: Vec<f64>,
}

impl MultiuserConfig {
    /// `clients` clients over the default mix: 30 s per-query timeout,
    /// per-query parallelism 1 (concurrency comes from the clients).
    pub fn new(clients: usize, stop: StopCondition) -> Self {
        MultiuserConfig {
            clients: clients.max(1),
            parallelism: 1,
            stop,
            timeout: Duration::from_secs(30),
            mix: default_mix(),
            seed: 0,
            checksums: false,
            arrival: Arrival::Closed,
            warmup: Duration::ZERO,
            weights: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// Outcome of one transported query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Completed.
    Completed {
        /// Result row count (ASK: 1/0).
        rows: u64,
        /// Order-insensitive result checksum
        /// ([`crate::endpoint::ResultChecksum`]) when the transport
        /// computed one — the HTTP transport folds it from the TSV body,
        /// the in-process transport when
        /// [`MultiuserConfig::checksums`] is set. `None` means "count
        /// only" (the zero-decode fast path).
        checksum: Option<u64>,
    },
    /// Hit the per-query timeout (engine cancellation, HTTP `408`, or a
    /// socket timeout).
    TimedOut,
    /// Failed for any other reason.
    Failed,
}

/// How a benchmark client reaches the store under test. The in-process
/// transport calls the [`QueryEngine`] directly; the HTTP transport
/// ([`crate::endpoint::HttpTransport`]) posts to a live endpoint over
/// real sockets. Both feed the same histogram/report pipeline.
pub trait WorkTransport: Sync {
    /// Per-client setup: prepare statements / open a connection for the
    /// given mix. Entries unusable at setup are left out of
    /// [`SessionSetup::labels`]; every request drawn for one is recorded
    /// as an error.
    fn open(&self, client: usize, mix: &[WorkItem]) -> SessionSetup;
}

/// One client's executable state, produced by [`WorkTransport::open`].
pub struct SessionSetup {
    /// Labels of the executable mix entries, in mix order.
    pub labels: Vec<String>,
    /// The executor for `labels` slots.
    pub session: Box<dyn WorkSession>,
}

/// A client session: executes mix slots until the driver stops.
pub trait WorkSession {
    /// Runs slot `slot` (an index into [`SessionSetup::labels`]), giving
    /// up at `stop_at`.
    fn execute(&mut self, slot: usize, stop_at: Instant) -> ExecOutcome;
}

/// The in-process transport: each session owns a [`QueryEngine`] clone
/// over the shared store and executes via the counting path (no term
/// decoding) — or, with checksums enabled, streams solutions through
/// the TSV serializer into an order-insensitive checksum fold — with
/// the per-query deadline enforced through [`Cancellation`].
pub struct InProcessTransport {
    store: SharedStore,
    parallelism: usize,
    checksums: bool,
}

impl InProcessTransport {
    /// A transport over `store` with `cfg`'s intra-query parallelism and
    /// checksum setting ([`MultiuserConfig::checksums`]).
    pub fn new(store: SharedStore, cfg: &MultiuserConfig) -> Self {
        InProcessTransport {
            store,
            parallelism: cfg.parallelism.max(1),
            checksums: cfg.checksums,
        }
    }
}

impl WorkTransport for InProcessTransport {
    fn open(&self, _client: usize, mix: &[WorkItem]) -> SessionSetup {
        let engine = QueryEngine::with_options(
            self.store.clone(),
            QueryOptions::new().parallelism(self.parallelism),
        );
        // Prepare the whole mix once — the long-lived-server execution
        // model: plans are reused across every execution of this client.
        let mut labels = Vec::with_capacity(mix.len());
        let mut prepared = Vec::with_capacity(mix.len());
        for item in mix {
            if let Ok(p) = engine.prepare(&item.text) {
                labels.push(item.label.clone());
                prepared.push(p);
            }
        }
        SessionSetup {
            labels,
            session: Box::new(InProcessSession {
                engine,
                prepared,
                checksums: self.checksums,
            }),
        }
    }
}

struct InProcessSession {
    engine: QueryEngine,
    prepared: Vec<sp2b_sparql::Prepared>,
    checksums: bool,
}

impl WorkSession for InProcessSession {
    fn execute(&mut self, slot: usize, stop_at: Instant) -> ExecOutcome {
        let cancel = Cancellation::with_deadline(stop_at);
        let prepared = &self.prepared[slot];
        if self.checksums {
            // Stream rows through the TSV serializer into the checksum
            // fold — byte-identical to what the HTTP endpoint puts on
            // the wire, so in-process and endpoint checksums compare.
            let mut sink = crate::endpoint::ChecksumWriter::new(!prepared.is_ask());
            let mut solutions = self.engine.solutions_with(prepared, &cancel);
            return match sp2b_sparql::results::write_solutions(
                &mut sink,
                sp2b_sparql::results::Format::Tsv,
                &mut solutions,
                prepared.is_ask(),
            ) {
                Ok(rows) => ExecOutcome::Completed {
                    rows,
                    checksum: Some(sink.finish()),
                },
                Err(sp2b_sparql::results::WriteError::Query(SparqlError::Cancelled)) => {
                    ExecOutcome::TimedOut
                }
                Err(_) => ExecOutcome::Failed,
            };
        }
        match self.engine.count_with(prepared, &cancel) {
            Ok(count) => ExecOutcome::Completed {
                rows: count,
                checksum: None,
            },
            Err(SparqlError::Cancelled) => ExecOutcome::TimedOut,
            Err(_) => ExecOutcome::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_workload, WorkloadReport};
    use sp2b_datagen::{generate_document, Config};
    use sp2b_store::{
        sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, TripleStore,
    };

    fn native(triples: u64) -> SharedStore {
        let (doc, _) = generate_document(Config::triples(triples));
        let backend = ShardBackend::Native(IndexSelection::all());
        let store = sharded_store_from_reader(&doc[..], 1, ShardBy::Subject, backend).unwrap();
        store.into_shared()
    }

    fn run(store: &SharedStore, cfg: &MultiuserConfig) -> WorkloadReport {
        run_workload(&InProcessTransport::new(store.clone(), cfg), cfg)
    }

    #[test]
    fn rounds_mode_is_deterministic_and_consistent() {
        let store = native(2_000);
        let mut cfg = MultiuserConfig::new(3, StopCondition::Rounds(2));
        cfg.mix = vec![
            WorkItem::bench(BenchQuery::Q1),
            WorkItem::bench(BenchQuery::Q3a),
            WorkItem::ext(ExtQuery::A1),
        ];
        let report = run(&store, &cfg);
        assert_eq!(report.clients.len(), 3);
        for c in &report.clients {
            assert_eq!(c.completed, 6, "2 rounds × 3 queries");
            assert_eq!(c.errors, 0);
            assert_eq!(c.timeouts, 0);
            assert!(c.inconsistent.is_empty());
            assert_eq!(c.counts.len(), 3);
        }
        // All clients observe identical result counts over the shared store.
        let first = &report.clients[0].counts;
        for c in &report.clients[1..] {
            assert_eq!(&c.counts, first);
        }
        assert_eq!(report.completed, 18);
        assert!(report.completed_rate() > 0.0);
    }

    #[test]
    fn checksums_are_stable_and_identical_across_clients() {
        let store = native(2_000);
        let mut cfg = MultiuserConfig::new(3, StopCondition::Rounds(2));
        cfg.checksums = true;
        cfg.mix = vec![
            WorkItem::bench(BenchQuery::Q2),
            WorkItem::bench(BenchQuery::Q5a),
            WorkItem::bench(BenchQuery::Q12c), // ASK: boolean-line checksum
            WorkItem::ext(ExtQuery::A1),
        ];
        let report = run(&store, &cfg);
        for c in &report.clients {
            assert!(c.inconsistent.is_empty(), "{:?}", c.inconsistent);
            assert_eq!(c.checksums.len(), 4, "every label carries a checksum");
            assert_eq!(c.completed, 8, "2 rounds × 4 queries");
        }
        // All clients fold identical checksums over the shared store.
        let first = &report.clients[0].checksums;
        for c in &report.clients[1..] {
            assert_eq!(&c.checksums, first);
        }
        // The checksum path reports the same counts as the counting path.
        cfg.checksums = false;
        let counted = run(&store, &cfg);
        assert_eq!(counted.clients[0].counts, report.clients[0].counts);
        assert!(
            counted.clients[0].checksums.is_empty(),
            "counting path folds nothing"
        );
    }

    #[test]
    fn duration_mode_stops() {
        let store = native(1_000);
        let mut cfg = MultiuserConfig::new(2, StopCondition::Duration(Duration::from_millis(200)));
        cfg.mix = vec![WorkItem::bench(BenchQuery::Q1)];
        let report = run(&store, &cfg);
        assert!(report.completed > 0, "something must complete");
        // The run must not overshoot the wall by more than a cancellation.
        assert!(report.wall < Duration::from_secs(30), "{:?}", report.wall);
    }
}
