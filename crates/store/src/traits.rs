//! The store abstraction the SPARQL engine evaluates against.

use std::sync::Arc;

use sp2b_rdf::Term;

use crate::dictionary::{Dictionary, Id, IdTriple};
use crate::stats::StoreStats;

/// A shared, owning store handle: what a long-lived query engine holds.
///
/// [`TripleStore`] implementations are immutable once loaded (the update
/// stream mutates through `&mut` before sharing), so one `Arc` can back
/// any number of concurrent query engines, detached exchange worker
/// threads, and benchmark client threads at once.
pub type SharedStore = Arc<dyn TripleStore>;

/// A triple-scan pattern: `None` means "any" (a variable position),
/// `Some(id)` a bound term, in (s, p, o) order.
pub type Pattern = [Option<Id>; 3];

/// Common interface of the two storage engines.
///
/// The engine asks for matching triples ([`TripleStore::scan`]) and for
/// cardinality estimates ([`TripleStore::estimate`], driving the
/// selectivity-based join reordering of Section V). Implementations must
/// be `Send + Sync` so the benchmark runner can enforce timeouts from a
/// watchdog thread.
pub trait TripleStore: Send + Sync {
    /// The term dictionary backing this store.
    fn dictionary(&self) -> &Dictionary;

    /// Total number of stored triples.
    fn len(&self) -> usize;

    /// True if the store holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all triples matching `pattern`, in store order.
    fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a>;

    /// Splits the scan of `pattern` into about `n` disjoint chunks whose
    /// concatenation, in chunk order, yields exactly the triples of
    /// [`TripleStore::scan`] in scan order — that coverage contract is
    /// the hard one; `n` is a budget. Single stores return at most `n`
    /// chunks; a composite store may return slightly more when disjoint
    /// physical partitions each need at least one chunk (the sharded
    /// store returns at most one extra chunk per shard). The chunk
    /// handles are `Send`, so a morsel-driven driver can fan them out to
    /// worker threads.
    ///
    /// Implementations must be **deterministic**: the same `pattern` and
    /// `n` on an unchanged store must return the same chunk list. Detached
    /// exchange workers rely on this — each worker re-derives the chunk
    /// list from its own [`SharedStore`] handle and claims chunk *indices*
    /// from a shared counter, so divergent lists would split the scan
    /// inconsistently.
    ///
    /// The default returns an empty vector, meaning "this store cannot
    /// partition the scan" — callers must fall back to [`TripleStore::scan`].
    /// [`crate::NativeStore`] splits the binary-searched run range,
    /// [`crate::MemStore`] splits the posting list (or the row span of a
    /// full scan).
    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
        let _ = (pattern, n);
        Vec::new()
    }

    /// Estimated number of triples matching `pattern`. Index-backed stores
    /// return exact counts; scan stores return heuristics.
    fn estimate(&self, pattern: Pattern) -> u64;

    /// The load-time statistics summary ([`StoreStats`]), if this store
    /// collected one — the cost-based planner's input. The default
    /// (`None`) keeps bare stores working; the planner then falls back
    /// to per-pattern [`TripleStore::estimate`] heuristics.
    fn stats(&self) -> Option<&StoreStats> {
        None
    }

    /// True if at least one triple matches.
    fn contains(&self, pattern: Pattern) -> bool {
        self.scan(pattern).next().is_some()
    }

    /// Convenience: encodes a term against the dictionary (read-only).
    /// `None` means the term does not occur in the data, so any pattern
    /// containing it yields no matches.
    fn resolve(&self, term: &Term) -> Option<Id> {
        self.dictionary().lookup(term)
    }

    /// Counters of the block cache this store serves scans through, for
    /// stores that read decoded disk blocks out of a bounded shared
    /// cache (the out-of-core segment store, [`crate::disk`]). `None`
    /// for fully in-memory stores. A composite store returns its
    /// shards' shared cache once, not a per-shard sum.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Moves this store behind a [`SharedStore`] handle — the form the
    /// owned `QueryEngine` and the multi-client benchmark driver consume.
    fn into_shared(self) -> SharedStore
    where
        Self: Sized + 'static,
    {
        Arc::new(self)
    }
}

/// A snapshot of a block cache's counters (see
/// [`TripleStore::cache_stats`]): how an out-of-core store's bounded
/// memory is behaving under the current workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that had to read and decode from disk.
    pub misses: u64,
    /// Blocks evicted to stay within the byte budget.
    pub evictions: u64,
    /// Decoded blocks currently resident.
    pub resident_blocks: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// The high-water mark of `resident_bytes` — never exceeds
    /// `budget_bytes` (cached residency is bounded; blocks being
    /// actively iterated are working memory, not residency).
    pub peak_resident_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// One human line of the counters, shared by the engine boot
    /// summary and the `--explain` `Cache:` line.
    pub fn summary(&self) -> String {
        format!(
            "{} hits, {} misses, {} evictions, {} block(s) resident \
             ({} B, peak {} B) of {} B budget",
            self.hits,
            self.misses,
            self.evictions,
            self.resident_blocks,
            self.resident_bytes,
            self.peak_resident_bytes,
            self.budget_bytes
        )
    }
}

/// A store that can iterate ranges of fixed-size decoded blocks — what
/// a [`ScanChunk::Blocks`] handle dereferences through. Implemented by
/// the out-of-core `DiskShardStore`, whose blocks live behind a shared
/// LRU cache rather than borrowed slices, so a chunk cannot hand out a
/// `&[IdTriple]` that an eviction would invalidate; instead the chunk
/// carries a block range and pulls each block through the cache as it
/// is reached.
pub trait BlockSource: Send + Sync {
    /// Iterates the triples of blocks `blocks` of sorted run `run` that
    /// match `pattern`, in run order. `run` and the block range must
    /// come from this source's own `scan_chunks` answer for the same
    /// `pattern` — the source re-derives the key bounds from `pattern`
    /// and applies the same lower-bound skip / upper-bound stop /
    /// residual filtering as its full scan, so concatenating the chunks
    /// of one answer reproduces the scan exactly.
    fn iter_blocks<'a>(
        &'a self,
        run: usize,
        blocks: std::ops::Range<usize>,
        pattern: Pattern,
    ) -> Box<dyn Iterator<Item = IdTriple> + 'a>;
}

/// One disjoint portion of a partitioned scan (see
/// [`TripleStore::scan_chunks`]): a cheap `Copy` handle over borrowed
/// store data that each worker thread turns into triples with
/// [`ScanChunk::iter`]. All variants still apply residual pattern
/// filtering, so chunks are safe for partial-prefix index ranges and
/// posting lists alike.
#[derive(Clone, Copy)]
pub enum ScanChunk<'a> {
    /// A contiguous run of candidate triples (an index-range or
    /// triple-table span).
    Triples(&'a [IdTriple]),
    /// Candidate row numbers (a posting-list span) into a triple table.
    Rows {
        /// Indices into `table`.
        rows: &'a [u32],
        /// The full triple table the rows point into.
        table: &'a [IdTriple],
    },
    /// A range of on-disk blocks of one sorted run, materialized
    /// through the source's block cache only when iterated.
    Blocks {
        /// The store that owns the blocks.
        source: &'a dyn BlockSource,
        /// Which sorted run ([`crate::run::RUN_ORDERS`] slot) the blocks belong to.
        run: usize,
        /// First candidate block (inclusive).
        start: usize,
        /// Last candidate block (exclusive).
        end: usize,
        /// Total triples in the candidate blocks (before filtering).
        len: usize,
    },
}

impl std::fmt::Debug for ScanChunk<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanChunk::Triples(t) => f.debug_tuple("Triples").field(&t.len()).finish(),
            ScanChunk::Rows { rows, .. } => {
                f.debug_struct("Rows").field("rows", &rows.len()).finish()
            }
            ScanChunk::Blocks {
                run,
                start,
                end,
                len,
                ..
            } => f
                .debug_struct("Blocks")
                .field("run", run)
                .field("blocks", &(start..end))
                .field("len", len)
                .finish(),
        }
    }
}

impl<'a> ScanChunk<'a> {
    /// Number of candidate triples (before residual filtering).
    pub fn len(&self) -> usize {
        match self {
            ScanChunk::Triples(t) => t.len(),
            ScanChunk::Rows { rows, .. } => rows.len(),
            ScanChunk::Blocks { len, .. } => *len,
        }
    }

    /// True if the chunk holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the chunk's triples matching `pattern`, in chunk order.
    pub fn iter(self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        match self {
            ScanChunk::Triples(triples) => Box::new(
                triples
                    .iter()
                    .filter(move |t| matches(t, &pattern))
                    .copied(),
            ),
            ScanChunk::Rows { rows, table } => Box::new(
                rows.iter()
                    .map(move |&r| table[r as usize])
                    .filter(move |t| matches(t, &pattern)),
            ),
            ScanChunk::Blocks {
                source,
                run,
                start,
                end,
                ..
            } => source.iter_blocks(run, start..end, pattern),
        }
    }
}

/// Splits `0..len` into at most `n` contiguous near-even ranges (empty for
/// `len == 0`; fewer than `n` ranges when `len < n`). Shared by the store
/// implementations of [`TripleStore::scan_chunks`].
pub fn split_ranges(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let n = n.max(1).min(len);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        // Distribute the remainder over the first `len % n` ranges.
        let end = start + len / n + usize::from(i < len % n);
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, len);
    out
}

/// Does `triple` match `pattern`?
#[inline]
pub fn matches(triple: &IdTriple, pattern: &Pattern) -> bool {
    pattern
        .iter()
        .zip(triple.iter())
        .all(|(p, v)| p.is_none_or(|id| id == *v))
}

/// Debug-build check of the [`TripleStore::scan_chunks`] contract: the
/// chunks' concatenation, in chunk order, must equal the store's
/// [`TripleStore::scan`] of the same pattern — full coverage, no
/// overlap, same order. Every store implementation calls this on the
/// chunk list it is about to return, turning the trait doc into a
/// checked invariant; release builds (the benchmarks) pay nothing.
#[inline]
pub fn debug_assert_chunks_cover(
    store: &dyn TripleStore,
    pattern: Pattern,
    chunks: &[ScanChunk<'_>],
) {
    #[cfg(debug_assertions)]
    {
        let sequential: Vec<IdTriple> = store.scan(pattern).collect();
        let chunked: Vec<IdTriple> = chunks.iter().flat_map(|c| c.iter(pattern)).collect();
        assert_eq!(
            chunked, sequential,
            "scan_chunks broke the coverage contract for pattern {pattern:?}: \
             concatenated chunks must equal the scan"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (store, pattern, chunks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        assert!(split_ranges(0, 4).is_empty());
        assert_eq!(split_ranges(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(split_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(5, 1), vec![0..5]);
        // n = 0 is treated as 1.
        assert_eq!(split_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn scan_chunk_iter_filters_residually() {
        let table: Vec<IdTriple> = vec![[1, 2, 3], [1, 9, 3], [4, 2, 3]];
        let chunk = ScanChunk::Triples(&table);
        assert_eq!(chunk.len(), 3);
        let hits: Vec<IdTriple> = chunk.iter([None, Some(2), None]).collect();
        assert_eq!(hits, vec![[1, 2, 3], [4, 2, 3]]);

        let rows: Vec<u32> = vec![2, 0];
        let chunk = ScanChunk::Rows {
            rows: &rows,
            table: &table,
        };
        let hits: Vec<IdTriple> = chunk.iter([None, None, Some(3)]).collect();
        assert_eq!(hits, vec![[4, 2, 3], [1, 2, 3]], "chunk order is row order");
    }

    #[test]
    fn chunk_coverage_assertion_catches_gaps() {
        struct Fixed(Vec<IdTriple>);
        impl TripleStore for Fixed {
            fn dictionary(&self) -> &Dictionary {
                unimplemented!("not needed for chunk coverage")
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
                Box::new(self.0.iter().filter(move |t| matches(t, &pattern)).copied())
            }
            fn estimate(&self, _: Pattern) -> u64 {
                self.0.len() as u64
            }
        }
        let store = Fixed(vec![[1, 2, 3], [4, 5, 6], [7, 8, 9]]);
        let pattern: Pattern = [None, None, None];
        // A correct split passes…
        let good = [
            ScanChunk::Triples(&store.0[..1]),
            ScanChunk::Triples(&store.0[1..]),
        ];
        debug_assert_chunks_cover(&store, pattern, &good);
        // …a gap (dropped triple) and an overlap (repeated triple) panic
        // in debug builds.
        let gap = [ScanChunk::Triples(&store.0[..1])];
        let overlap = [
            ScanChunk::Triples(&store.0[..2]),
            ScanChunk::Triples(&store.0[1..]),
        ];
        for bad in [&gap[..], &overlap[..]] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                debug_assert_chunks_cover(&store, pattern, bad);
            }));
            assert_eq!(caught.is_err(), cfg!(debug_assertions));
        }
    }

    #[test]
    fn matches_respects_bound_positions() {
        let t: IdTriple = [1, 2, 3];
        assert!(matches(&t, &[None, None, None]));
        assert!(matches(&t, &[Some(1), None, None]));
        assert!(matches(&t, &[Some(1), Some(2), Some(3)]));
        assert!(!matches(&t, &[Some(9), None, None]));
        assert!(!matches(&t, &[None, None, Some(9)]));
    }
}
