//! # sp2bench — SP²Bench: A SPARQL Performance Benchmark, in Rust
//!
//! A full-stack, from-scratch reproduction of *Schmidt, Hornung, Lausen,
//! Pinkel: "SP²Bench: A SPARQL Performance Benchmark" (ICDE 2009)*:
//!
//! * [`datagen`] — the deterministic DBLP-like RDF data generator with the
//!   paper's fitted distributions (Sections III/IV);
//! * [`rdf`] — the RDF data model and N-Triples I/O;
//! * [`store`] — two storage engines, a hash-indexed in-memory store and a
//!   four-run (SPO/PSO/POS/OSP) native store, loaded along one streaming
//!   route from N-Triples, optionally in hash-partitioned shards;
//! * [`sparql`] — a SPARQL engine: parser, algebra (spec-faithful
//!   `OPTIONAL`/`FILTER` translation), optimizer, streaming evaluator and
//!   the [`QueryEngine`] facade with lazy result rows;
//! * [`core`] — the 17 benchmark queries, the four engine configurations,
//!   metrics, the benchmark runner, the workload model (one closed/open
//!   loop driver and report over in-process and HTTP transports) and the
//!   table/figure formatters;
//! * [`server`] — the SPARQL Protocol endpoint: a std-only HTTP/1.1
//!   server streaming JSON/CSV/TSV results off one shared store.
//!
//! ## Quick start
//!
//! ```
//! use sp2bench::datagen::{generate_document, Config};
//! use sp2bench::core::{BenchQuery, Engine, EngineKind, StoreLayout};
//!
//! // 1. Generate a DBLP-like N-Triples document of exactly 10k triples.
//! let (doc, stats) = generate_document(Config::triples(10_000));
//! assert_eq!(stats.triples, 10_000);
//!
//! // 2. Load it into the optimized native engine: parse, intern, build.
//! let engine = Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default()).unwrap();
//!
//! // 3. Run benchmark query Q1 — exactly one solution, per the paper.
//! let (outcome, measurement) = engine.run(BenchQuery::Q1, None);
//! assert_eq!(outcome.count(), Some(1));
//! println!("Q1: {}", measurement.summary());
//!
//! // 4. Or query directly through the streaming facade: prepare once,
//! //    then stream, materialize or count off one evaluation path.
//! use sp2bench::sparql::QueryEngine;
//! let qe = QueryEngine::new(engine.shared_store());
//! let prepared = qe.prepare(BenchQuery::Q1.text()).unwrap();
//! assert_eq!(qe.count(&prepared).unwrap(), 1); // decodes no terms
//! for solution in qe.solutions(&prepared) {
//!     let row = solution.unwrap(); // lazy: columns decode on access
//!     assert!(row.get(0).is_some());
//! }
//! ```
//!
//! The `sp2b` binary (crate `sp2b-bench`) regenerates every table and
//! figure of the paper's evaluation section; see README.md.

pub use sp2b_core as core;
pub use sp2b_datagen as datagen;
pub use sp2b_obs as obs;
pub use sp2b_rdf as rdf;
pub use sp2b_server as server;
pub use sp2b_sparql as sparql;
pub use sp2b_store as store;

// Convenience re-exports of the most common entry points.
pub use sp2b_core::{BenchQuery, Engine, EngineKind, RunnerConfig, StoreLayout};
pub use sp2b_datagen::{generate_document, generate_graph, generate_to_path, Config};
pub use sp2b_sparql::{OptimizerConfig, QueryEngine, QueryOptions, QueryResult};
pub use sp2b_store::{MemStore, NativeStore, TripleStore};
