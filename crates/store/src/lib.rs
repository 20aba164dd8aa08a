//! # sp2b-store — RDF storage substrate
//!
//! Two storage engines occupying the design points the paper benchmarks:
//!
//! * [`MemStore`] — a triple list with a hash posting list per term and
//!   position, answering a pattern from its shortest applicable list
//!   (the "in-memory engine" class: ARQ, Sesame-Memory);
//! * [`NativeStore`] — dictionary-encoded triples sorted into the four
//!   runs of the [`run`] table (SPO/PSO/POS/OSP), each with a major-key
//!   directory, giving range scans and exact cardinality estimates (the
//!   "native engine" class: Sesame-DB, Virtuoso).
//!
//! Both implement [`TripleStore`], which the SPARQL engine evaluates
//! against; [`Dictionary`] provides the term↔id mapping.
//! [`ShardedStore`] composes N of either store into one hash-partitioned
//! logical store behind a shared dictionary, so loading, index build and
//! scans parallelize across shards (see [`shard`]); one shard is the
//! unsharded layout.
//!
//! ## One load route
//!
//! Every resident store streams in from N-Triples along one route
//! ([`load`], [`sharded_store_from_reader`]): parse → intern into the
//! shared dictionary in document order → route by [`ShardBy`] →
//! per-shard builder threads → [`ShardedStore`]. The segment savers run
//! the same intern-and-route loop and write its buckets instead of
//! building them; [`save_graph`] is the one adapter from an in-memory
//! graph. Loading time is therefore always parse + intern + build.
//!
//! A store can also be **saved** as a directory of
//! checksummed binary segments ([`segment`]) and reopened out-of-core
//! ([`disk`]): open reads only the header, the dictionary and the
//! per-shard block indexes, and scans pull fixed-size blocks of the
//! sorted runs through a byte-budgeted shared LRU [`BlockCache`] — so a
//! document larger than RAM serves at O(cache budget) resident memory.
//!
//! Resident and saved shards are two *sources* of one sorted-run design:
//! [`run`] owns the order table, the choice of run for a pattern and
//! the key-bound search; [`native`] applies it to whole runs in memory,
//! [`disk`] to block first keys and then inside the cached blocks.
//!
//! ## One store contract
//!
//! Every store answers every [`TripleStore`] method. Each single store —
//! [`MemStore`], [`NativeStore`], [`DiskShardStore`] — has one inherent
//! `range(pattern)`, its whole candidate range as one [`ScanChunk`]: a
//! posting list or a triple table, a sorted-run span, or a run's block
//! bounds, each with what iterating it needs (the residual pattern to
//! test, or none when the range is exact; a disk shard's run plan).
//! `scan` iterates that chunk and `scan_chunks` splits it with
//! `ScanChunk::split`, whose pieces concatenate to the chunk — so the
//! chunks of a scan concatenate to the scan by construction.
//! [`ShardedStore`] routes a pattern to
//! one shard or apportions the chunk budget over all of them, in shard
//! order. `tests/proptest_indexes.rs` checks the concatenation on every
//! store, pattern mask and a range of budgets.
//!
//! [`TripleStore::stats`] is required too: resident stores collect their
//! [`StoreStats`] on first request, saved ones read them at open, and a
//! sharded store merges its shards'.

pub mod dictionary;
pub mod disk;
pub mod hash;
pub mod load;
pub mod mem;
pub mod native;
pub mod run;
pub mod segment;
pub mod shard;
pub mod stats;
pub mod traits;

pub use dictionary::{Dictionary, Id, IdTriple, ValueClass, ValueKey};
pub use disk::{open_store, open_store_with, save_graph, BlockCache, DiskShardStore};
pub use load::{save_segments_from_reader, sharded_store_from_reader, SaveError};
pub use mem::MemStore;
pub use native::{IndexSelection, NativeStore};
pub use run::IndexOrder;
pub use segment::{SegmentError, SegmentStats};
pub use shard::{ShardBackend, ShardBy, ShardedStore};
pub use stats::{CharacteristicSet, PredicateStats, StoreStats};
pub use traits::{CacheStats, Pattern, ScanChunk, SharedStore, TripleStore};
