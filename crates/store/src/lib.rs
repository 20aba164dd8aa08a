//! # sp2b-store — RDF storage substrate
//!
//! Two storage engines occupying the design points the paper benchmarks:
//!
//! * [`MemStore`] — a flat, unindexed triple list answering every pattern
//!   by linear scan (the "in-memory engine" class: ARQ, Sesame-Memory);
//! * [`NativeStore`] — dictionary-encoded triples sorted into the four
//!   runs of the [`run`] table (SPO/PSO/POS/OSP) with binary-searched
//!   range scans and exact cardinality estimates (the "native engine"
//!   class: Sesame-DB, Virtuoso).
//!
//! Both implement [`TripleStore`], which the SPARQL engine evaluates
//! against; [`Dictionary`] provides the term↔id mapping. For large
//! documents, [`ShardedStore`] composes N of either store into one
//! hash-partitioned logical store behind a shared dictionary, so
//! loading, index build and scans parallelize across shards (see
//! [`shard`]). A store can also be **saved** as a directory of
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

pub use dictionary::{Dictionary, Id, IdTriple};
pub use disk::{
    open_store, open_store_with, save_graph, save_graph_with, BlockCache, DiskShardStore,
};
pub use load::{
    save_segments_from_path, save_segments_from_reader, sharded_store_from_reader, SaveError,
};
pub use mem::MemStore;
pub use native::{IndexSelection, NativeStore};
pub use run::IndexOrder;
pub use segment::{SegmentError, SegmentStats};
pub use shard::{ShardBackend, ShardBy, ShardedStore};
pub use stats::{CharacteristicSet, PredicateStats, StoreStats};
pub use traits::{
    debug_assert_chunks_cover, split_ranges, BlockSource, CacheStats, Pattern, ScanChunk,
    SharedStore, TripleStore,
};
