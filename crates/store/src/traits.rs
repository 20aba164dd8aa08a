//! The store abstraction the SPARQL engine evaluates against.

use std::sync::Arc;

use sp2b_rdf::Term;

use crate::dictionary::{Dictionary, Id, IdTriple};
use crate::disk::DiskShardStore;
use crate::run::RunPlan;
use crate::stats::StoreStats;

/// A shared, owning store handle: what a long-lived query engine holds.
///
/// [`TripleStore`] implementations are immutable once loaded, so one
/// `Arc` can back any number of concurrent query engines, detached
/// exchange worker threads, and benchmark client threads at once.
pub type SharedStore = Arc<dyn TripleStore>;

/// A triple-scan pattern: `None` means "any" (a variable position),
/// `Some(id)` a bound term, in (s, p, o) order.
pub type Pattern = [Option<Id>; 3];

/// Common interface of the stores.
///
/// The engine asks for matching triples ([`TripleStore::scan`]), for the
/// same scan split into morsels ([`TripleStore::scan_chunks`]), for
/// cardinality estimates ([`TripleStore::estimate`]) and for the
/// load-time statistics summary ([`TripleStore::stats`]) that drive the
/// cost-based join ordering of Section V. Every store answers all four.
/// Implementations must be `Send + Sync` so the benchmark runner can
/// enforce timeouts from a watchdog thread.
///
/// A single store (`MemStore`, `NativeStore`, `DiskShardStore`) answers
/// a pattern with one candidate range, a [`ScanChunk`] from its inherent
/// `range`; `scan` iterates that chunk and `scan_chunks` splits it with
/// `ScanChunk::split`. The chunks of one range concatenate to the
/// range by construction, which is the coverage contract below.
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
    /// chunks, and none when nothing can match; the sharded store may
    /// return one extra chunk per shard, since every shard it visits
    /// needs at least one. The chunk handles are `Send`, so a
    /// morsel-driven driver can fan them out to worker threads.
    ///
    /// Implementations must be **deterministic**: the same `pattern` and
    /// `n` on an unchanged store must return the same chunk list. Detached
    /// exchange workers rely on this — each worker re-derives the chunk
    /// list from its own [`SharedStore`] handle and claims chunk *indices*
    /// from a shared counter, so divergent lists would split the scan
    /// inconsistently.
    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>>;

    /// Estimated number of triples matching `pattern`. Index-backed stores
    /// return exact counts; scan stores return heuristics.
    fn estimate(&self, pattern: Pattern) -> u64;

    /// The load-time statistics summary ([`StoreStats`]): the cost-based
    /// planner's input. Resident stores collect it on first request,
    /// a saved store reads it from its segments at open.
    fn stats(&self) -> &StoreStats;

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

    /// The first read failure this store met after it opened — a segment
    /// block that no longer reads back as it was saved — if any. Scans
    /// have no error channel: a failing one ends, and the query reads
    /// this afterwards to fail rather than answer short. Sticky: once
    /// set, the store serves no further block of its own, and every query
    /// fails with this message until the segments are re-saved. Stores
    /// that read nothing after open never fault. A composite store
    /// forwards its parts' first fault.
    fn fault(&self) -> Option<&str> {
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

/// A candidate range of one single store, or a piece of one (see
/// [`TripleStore::scan_chunks`]): a cheap `Copy` handle over borrowed
/// store data that [`ScanChunk::iter`] turns into the matching triples,
/// on whichever thread holds it. Each variant carries what its iteration
/// needs — resident spans the pattern still to test, disk blocks their
/// shard and run plan — so a chunk never goes back to the pattern it
/// came from.
#[derive(Clone, Copy)]
pub enum ScanChunk<'a> {
    /// A contiguous span of candidate triples: part of a sorted run or
    /// of a triple table.
    Triples {
        /// The candidates, in store order.
        triples: &'a [IdTriple],
        /// The pattern candidates must still match; `None` when every
        /// candidate is a match.
        residual: Option<Pattern>,
    },
    /// Candidate row numbers (a posting-list span) into a triple table.
    Rows {
        /// Indices into `table`.
        rows: &'a [u32],
        /// The full triple table the rows point into.
        table: &'a [IdTriple],
        /// As for [`ScanChunk::Triples`].
        residual: Option<Pattern>,
    },
    /// Blocks `start..end` of the run `plan` chose in one saved shard,
    /// pulled through the shard's block cache only when iterated — an
    /// eviction can never invalidate the handle.
    Blocks {
        /// The shard that owns the blocks.
        shard: &'a DiskShardStore,
        /// The pattern's run and key bounds: what narrows each block.
        plan: RunPlan,
        /// First candidate block (inclusive).
        start: usize,
        /// Last candidate block (exclusive).
        end: usize,
    },
}

impl<'a> ScanChunk<'a> {
    /// Number of candidate triples (before residual filtering).
    pub fn len(&self) -> usize {
        match self {
            ScanChunk::Triples { triples, .. } => triples.len(),
            ScanChunk::Rows { rows, .. } => rows.len(),
            ScanChunk::Blocks {
                shard, start, end, ..
            } => shard.candidates(*start..*end),
        }
    }

    /// True if the chunk holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the chunk's matching triples, in chunk order.
    pub fn iter(self) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        match self {
            ScanChunk::Triples {
                triples,
                residual: None,
            } => Box::new(triples.iter().copied()),
            ScanChunk::Triples {
                triples,
                residual: Some(p),
            } => Box::new(triples.iter().filter(move |t| matches(t, &p)).copied()),
            ScanChunk::Rows {
                rows,
                table,
                residual: None,
            } => Box::new(rows.iter().map(move |&r| table[r as usize])),
            ScanChunk::Rows {
                rows,
                table,
                residual: Some(p),
            } => Box::new(
                rows.iter()
                    .map(move |&r| table[r as usize])
                    .filter(move |t| matches(t, &p)),
            ),
            ScanChunk::Blocks {
                shard,
                plan,
                start,
                end,
            } => Box::new(shard.block_scan(plan, start..end)),
        }
    }

    /// Splits the chunk into at most `n` contiguous near-even pieces
    /// that concatenate, in order, to the chunk itself — none when it is
    /// empty. What every single store's `scan_chunks` is.
    pub(crate) fn split(self, n: usize) -> Vec<ScanChunk<'a>> {
        let len = match self {
            ScanChunk::Triples { triples, .. } => triples.len(),
            ScanChunk::Rows { rows, .. } => rows.len(),
            ScanChunk::Blocks { start, end, .. } => end - start,
        };
        split_ranges(len, n)
            .into_iter()
            .map(|r| match self {
                ScanChunk::Triples { triples, residual } => ScanChunk::Triples {
                    triples: &triples[r],
                    residual,
                },
                ScanChunk::Rows {
                    rows,
                    table,
                    residual,
                } => ScanChunk::Rows {
                    rows: &rows[r],
                    table,
                    residual,
                },
                ScanChunk::Blocks {
                    shard, plan, start, ..
                } => ScanChunk::Blocks {
                    shard,
                    plan,
                    start: start + r.start,
                    end: start + r.end,
                },
            })
            .collect()
    }
}

/// Splits `0..len` into at most `n` contiguous near-even ranges (empty for
/// `len == 0`; fewer than `n` ranges when `len < n`).
fn split_ranges(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
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
        let chunk = ScanChunk::Triples {
            triples: &table,
            residual: Some([None, Some(2), None]),
        };
        assert_eq!(chunk.len(), 3);
        let hits: Vec<IdTriple> = chunk.iter().collect();
        assert_eq!(hits, vec![[1, 2, 3], [4, 2, 3]]);
        let exact = ScanChunk::Triples {
            triples: &table,
            residual: None,
        };
        assert_eq!(exact.iter().count(), 3, "an exact range is not tested");

        let rows: Vec<u32> = vec![2, 0];
        let chunk = ScanChunk::Rows {
            rows: &rows,
            table: &table,
            residual: Some([None, None, Some(3)]),
        };
        let hits: Vec<IdTriple> = chunk.iter().collect();
        assert_eq!(hits, vec![[4, 2, 3], [1, 2, 3]], "chunk order is row order");
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
