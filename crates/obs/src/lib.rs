//! Zero-dependency observability for SP²Bench.
//!
//! SP²Bench is a *measurement* tool, yet most of the engine's runtime
//! signals historically lived in scattered islands: debug-only exchange
//! gauges, per-scan row counters, block-cache statistics, server
//! counters, and the multi-user driver's latency histogram. This crate
//! unifies them behind four small pieces:
//!
//! - [`LatencyHistogram`]: the log-bucketed single-writer histogram the
//!   multi-user driver records into, plus [`AtomicHistogram`], its
//!   lock-free shared-writer sibling with identical bucket math.
//! - [`MetricsRegistry`]: a process-global, `std`-only registry of
//!   unlabeled series — callbacks over state their owner already keeps,
//!   and [`Histogram`]s — rendered on demand as Prometheus text
//!   exposition ([`MetricsRegistry::render_prometheus`]) or JSON
//!   ([`MetricsRegistry::render_json`]). Recording into a histogram is a
//!   relaxed atomic op; nothing allocates on the hot path.
//! - [`QueryTrace`]: a per-query span record — timed phases plus
//!   per-operator estimated/actual rows, sampled time, access paths and
//!   exchange facts — rendered by `sp2b query --explain`, the server's
//!   slow-query log and `sp2b scaling`.
//! - [`WorkloadRecorder`]: the coordinated-omission-safe recorder behind
//!   the open-loop workload driver — latency measured from *intended*
//!   send time, queue delay and service time as separate histograms, and
//!   a [`WindowedSeries`] throughput/p99 time series.
//!
//! Everything here is dependency-free so every other crate in the
//! workspace (store, sparql, server, core, CLI) can depend on it without
//! cycles.

mod hist;
mod recorder;
mod registry;
mod trace;

pub use hist::{AtomicHistogram, LatencyHistogram};
pub use recorder::{TemplateSnapshot, WindowSnapshot, WindowedSeries, WorkloadRecorder};
pub use registry::{global, histogram_json, Histogram, MetricsRegistry};
pub use trace::{ExchangeRun, OpKind, OpSpan, QueryTrace, StepAccess};
