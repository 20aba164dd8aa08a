//! # sp2b-core — the SP²Bench benchmark
//!
//! The paper's primary contribution, assembled: the 17 benchmark queries
//! ([`queries`]), the engine configurations standing in for the paper's
//! systems under test ([`engines`]), the measurement metrics of Section
//! VI-B ([`metrics`]), the benchmark protocol ([`runner`]), the
//! Section VII multi-user scenario — its configuration and in-process
//! transport ([`multiuser`]), an HTTP transport ([`endpoint`]) that
//! drives a live `sp2b serve` SPARQL endpoint over real sockets, and the
//! workload model ([`workload`]): weighted template mixes, closed and
//! open arrival processes, and the one coordinated-omission-safe driver
//! behind them, [`workload::run_workload`], with its one report — and
//! formatters that print the paper's tables and figure series
//! ([`report`]).
//!
//! ```no_run
//! use sp2b_core::runner::{run_benchmark, RunnerConfig};
//! use sp2b_core::report::full_report;
//!
//! let report = run_benchmark(&RunnerConfig::quick(), |line| eprintln!("{line}"));
//! println!("{}", full_report(&report));
//! ```

pub mod endpoint;
pub mod engines;
pub mod ext_queries;
pub mod metrics;
pub mod multiuser;
pub mod queries;
pub mod report;
pub mod runner;
pub mod workload;

pub use endpoint::{Endpoint, HttpTransport};
pub use engines::{Engine, EngineKind, Outcome, ShardInfo, StoreLayout};
pub use ext_queries::ExtQuery;
pub use metrics::{measure, Measurement};
pub use multiuser::{
    ExecOutcome, InProcessTransport, MultiuserConfig, StopCondition, WorkItem, WorkTransport,
};
pub use queries::BenchQuery;
pub use runner::{
    run_benchmark, run_workload_on, BenchmarkReport, MixedWorkloadReport, RunnerConfig, Status,
    TargetFacts, WorkloadTarget,
};
pub use workload::{
    run_workload, Arrival, ArrivalSchedule, ClientReport, MixSampler, SplitMix64, TemplateReport,
    WeightedMix, WorkloadReport,
};
