//! # sp2b-server — the SPARQL Protocol endpoint
//!
//! SP²Bench frames its workload as what a SPARQL engine *behind an
//! endpoint* must sustain; this crate is that endpoint: a hand-rolled,
//! **std-only** HTTP/1.1 server (the workspace is deliberately
//! dependency-free) exposing one shared store over the SPARQL Protocol.
//!
//! * `GET /sparql?query=…` and `POST /sparql` (both
//!   `application/sparql-query` and url-encoded form bodies);
//! * result formats via `Accept` negotiation —
//!   `application/sparql-results+json` (default), `text/csv`,
//!   `text/tab-separated-values` (ASK in the latter two is a bare
//!   `true`/`false` line, labelled `text/boolean`);
//! * **streaming** responses: rows serialize straight off the
//!   [`sp2b_sparql::Solutions`] iterator (small results get
//!   `Content-Length`, larger ones switch to chunked transfer coding),
//!   so SELECT results never materialize server-side;
//! * per-request timeout through the engine's
//!   [`sp2b_sparql::Cancellation`] (`408` when it fires before the first
//!   spill), `400` for bad requests/queries, `406` for unsupported
//!   `Accept`, `500` for engine failures;
//! * keep-alive connection reuse, and **graceful shutdown** that drains
//!   in-flight requests and joins every thread;
//! * a fixed worker pool, each worker owning a cloned
//!   [`sp2b_sparql::QueryEngine`] over the same `Arc`'d store;
//! * live telemetry: `GET /metrics` (Prometheus text exposition) and
//!   `GET /stats` (JSON) serve the process metrics registry
//!   ([`sp2b_obs`]), and [`ServerConfig::slow_log`] ([`SlowLog`]) logs
//!   one line per query slower than a threshold, with per-operator
//!   rows/time read back from the query's scan counters.
//!
//! ```no_run
//! use sp2b_sparql::QueryEngine;
//! use sp2b_store::{sharded_store_from_reader, ShardBackend, ShardBy, TripleStore};
//! use sp2b_server::{spawn, ServerConfig};
//!
//! let empty = std::io::empty();
//! let store = sharded_store_from_reader(empty, 1, ShardBy::Subject, ShardBackend::Mem).unwrap();
//! let store = store.into_shared();
//! let handle = spawn(QueryEngine::new(store), &ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.endpoint_url());
//! // … drive traffic …
//! let stats = handle.shutdown();
//! println!("served {stats}");
//! ```

pub mod http;
pub mod server;

pub use server::{spawn, ServerConfig, ServerHandle, SlowLog, StatsSnapshot};
