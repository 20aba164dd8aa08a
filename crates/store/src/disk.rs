//! The out-of-core persistent store: a [`ShardedStore`] whose shards
//! window block-sized reads through a shared, byte-budgeted LRU cache.
//!
//! [`open_store`] turns a directory written by `sp2b save` (see
//! [`crate::segment`] for the format) back into a queryable store. The
//! open path reads the checksummed segment root, the shared dictionary
//! and each shard's block index — O(header + dictionary + index), never
//! O(parse) — and validates each shard file's existence and exact size.
//! Triple payload stays on disk: this is the block-cached *source* of
//! the sorted runs [`crate::run`] plans over. A scan resolves its
//! pattern with the same [`RunPlan`] a resident [`crate::NativeStore`]
//! uses, binary-searches the chosen run's block first keys to the
//! blocks the key range covers, then pulls those blocks one at a time
//! through the [`BlockCache`] every shard of one store shares. Each
//! block is checksum-verified as it is read and decoded once while
//! cached, so resident memory is O(cache budget + blocks currently
//! being iterated) — a document larger than RAM serves fine, and a
//! skewed workload's hot blocks stay resident while cold ones never
//! displace them for long.
//!
//! Because the shards sit behind the ordinary [`ShardedStore`] (same
//! shared dictionary, same routing, same chunk concatenation), the
//! morsel exchange, bound-key routing and every equivalence guarantee
//! of the in-memory stores apply unchanged; a shard's candidate range is
//! a [`ScanChunk::Blocks`] handle — its run plan and block bounds, not
//! borrowed slices — so an eviction can never invalidate a worker's
//! chunk.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sp2b_rdf::Graph;

use crate::dictionary::{Dictionary, IdTriple};
use crate::hash::FxHashMap;
use crate::load::route_buckets;
use crate::run::{RunPlan, RUN_ORDERS};
use crate::segment::{
    self, read_block_index, read_header, read_stats, shard_file_name, write_segments, BlockIndex,
    Checksum, SegmentError, SegmentStats, ShardMeta, TRIPLE_BYTES,
};
use crate::shard::{ShardBy, ShardedStore};
use crate::stats::StoreStats;
use crate::traits::{matches, CacheStats, Pattern, ScanChunk, TripleStore};

/// The default cache budget is this fraction of the document's total
/// run payload (all shards, every run), floored at
/// [`MIN_CACHE_BYTES`] — enough to keep a skewed workload's hot blocks
/// resident without approaching a whole-document footprint.
pub const DEFAULT_CACHE_FRACTION: u64 = 4;

/// Floor of the default cache budget: small documents cache whole.
pub const MIN_CACHE_BYTES: u64 = 1 << 20;

/// Fixed per-entry bookkeeping charged against the budget on top of a
/// block's decoded payload bytes.
const SLOT_OVERHEAD: u64 = 64;

/// Saves an in-memory graph as a segment directory, the one [`Graph`]
/// adapter of the load route: [`crate::load`]'s intern-and-route loop
/// fills the buckets (ids identical to a load of the same document) and
/// [`write_segments`] lays the block-cut runs out on disk.
pub fn save_graph(
    dir: &Path,
    graph: &Graph,
    shards: usize,
    shard_by: ShardBy,
) -> Result<SegmentStats, SegmentError> {
    let (dict, buckets) =
        route_buckets(graph.iter(), shards, shard_by).unwrap_or_else(|e| match e {});
    write_segments(dir, &dict, shard_by, buckets)
}

/// Opens a segment directory as a [`ShardedStore`] of block-windowed
/// disk shards with the default cache budget. See [`open_store_with`].
pub fn open_store(dir: &Path) -> Result<ShardedStore, SegmentError> {
    open_store_with(dir, None)
}

/// Opens a segment directory as a [`ShardedStore`] of block-windowed
/// disk shards sharing one [`BlockCache`] of `cache_bytes` (default: a
/// quarter of the document's run payload, at least 1 MiB).
///
/// Cost: the segment root, the dictionary, each shard's block index,
/// and one `stat` per shard file (existence + exact expected size, so
/// truncation surfaces here as a clean error rather than later as a
/// failed read). No triple payload is read until a query scans it.
pub fn open_store_with(dir: &Path, cache_bytes: Option<u64>) -> Result<ShardedStore, SegmentError> {
    let header = read_header(dir)?;
    let dict = segment::read_dictionary(dir, &header)?;
    let stats = read_stats(dir, &header)?;
    let payload = header.triples * TRIPLE_BYTES * RUN_ORDERS.len() as u64;
    let budget =
        cache_bytes.unwrap_or_else(|| (payload / DEFAULT_CACHE_FRACTION).max(MIN_CACHE_BYTES));
    let cache = Arc::new(BlockCache::new(budget));
    let mut built: Vec<(Box<dyn TripleStore>, std::time::Duration)> =
        Vec::with_capacity(header.shards.len());
    for ((i, meta), shard_stats) in header.shards.iter().enumerate().zip(stats) {
        let t0 = Instant::now();
        let shard = DiskShardStore::open(
            dir,
            i,
            meta,
            header.block_triples,
            shard_stats,
            Arc::clone(&cache),
        )?;
        built.push((Box::new(shard), t0.elapsed()));
    }
    Ok(ShardedStore::assemble(dict, header.shard_by, built))
}

const NIL: usize = usize::MAX;

/// One cached decoded block, threaded into the LRU list by slot index.
struct Slot {
    key: u64,
    block: Option<Arc<Vec<IdTriple>>>,
    bytes: u64,
    prev: usize,
    next: usize,
}

/// The LRU bookkeeping behind one mutex: a key → slot map plus an
/// intrusive recency list over a slot arena (no per-access allocation).
struct Lru {
    map: FxHashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    resident_bytes: u64,
}

impl Lru {
    fn new() -> Self {
        Lru {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head == NIL {
            self.tail = i;
        } else {
            self.slots[self.head].prev = i;
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
    }

    fn insert(&mut self, key: u64, block: Arc<Vec<IdTriple>>, bytes: u64) {
        let slot = Slot {
            key,
            block: Some(block),
            bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.resident_bytes += bytes;
        self.push_front(i);
    }

    fn evict_tail(&mut self) {
        let i = self.tail;
        debug_assert_ne!(i, NIL, "eviction from an empty cache");
        self.detach(i);
        let slot = &mut self.slots[i];
        self.map.remove(&slot.key);
        self.resident_bytes -= slot.bytes;
        slot.block = None;
        self.free.push(i);
    }
}

/// A thread-safe LRU cache of decoded segment blocks, capped by a byte
/// budget and shared by every shard of one opened store. Lookups and
/// recency updates hold one short mutex; disk reads happen outside it,
/// so concurrent workers never serialize on I/O (two threads missing
/// the same block may both read it — the first insert wins, the other
/// copy is transient working memory).
///
/// The budget is a hard bound on *cached* residency: a block larger
/// than the whole budget is served uncached to its caller, and an
/// insert evicts from the cold tail until the total fits again, so
/// `resident_bytes <= budget_bytes` holds at every instant (asserted in
/// debug builds, witnessed by the monotone peak gauge in release).
pub struct BlockCache {
    budget_bytes: u64,
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    peak_resident_bytes: AtomicU64,
}

impl BlockCache {
    /// An empty cache with a `budget_bytes` cap.
    pub fn new(budget_bytes: u64) -> Self {
        BlockCache {
            budget_bytes,
            lru: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_resident_bytes: AtomicU64::new(0),
        }
    }

    fn pack(shard: usize, run: usize, block: usize) -> u64 {
        debug_assert!(shard < (1 << 24) && run < RUN_ORDERS.len() && block < (1 << 32));
        (shard as u64) << 40 | (run as u64) << 32 | block as u64
    }

    /// The block `(shard, run, block)`, from cache or — on a miss — via
    /// `read` (called without the cache lock held). A read that fails
    /// (`None`) caches nothing.
    pub fn get_or_read(
        &self,
        shard: usize,
        run: usize,
        block: usize,
        read: impl FnOnce() -> Option<Vec<IdTriple>>,
    ) -> Option<Arc<Vec<IdTriple>>> {
        let key = Self::pack(shard, run, block);
        {
            let mut lru = self.lru.lock().expect("block cache lock");
            if let Some(&i) = lru.map.get(&key) {
                lru.touch(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(
                    lru.slots[i].block.as_ref().expect("mapped slot is filled"),
                ));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let block_arc = Arc::new(read()?);
        let bytes = block_arc.len() as u64 * TRIPLE_BYTES + SLOT_OVERHEAD;
        if bytes > self.budget_bytes {
            // Larger than the whole budget: serve uncached. The
            // caller's Arc is working memory, not residency.
            return Some(block_arc);
        }
        let mut lru = self.lru.lock().expect("block cache lock");
        if let Some(&i) = lru.map.get(&key) {
            // Another thread read the same block meanwhile; keep the
            // incumbent so concurrent holders share one copy.
            lru.touch(i);
            return Some(Arc::clone(
                lru.slots[i].block.as_ref().expect("mapped slot is filled"),
            ));
        }
        lru.insert(key, Arc::clone(&block_arc), bytes);
        while lru.resident_bytes > self.budget_bytes {
            lru.evict_tail();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        debug_assert!(
            lru.resident_bytes <= self.budget_bytes,
            "resident block bytes exceed the cache budget"
        );
        self.peak_resident_bytes
            .fetch_max(lru.resident_bytes, Ordering::Relaxed);
        Some(block_arc)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lru.lock().expect("block cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_blocks: lru.map.len() as u64,
            resident_bytes: lru.resident_bytes,
            peak_resident_bytes: self.peak_resident_bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget_bytes,
        }
    }
}

/// One shard of a saved segment store: the block-cut runs of
/// [`RUN_ORDERS`] on disk, scanned through the store-wide
/// [`BlockCache`]. Like the in-memory shard stores it carries an empty
/// dictionary — ids live in the shared dictionary the enclosing
/// [`ShardedStore`] owns.
pub struct DiskShardStore {
    dict: Dictionary,
    path: PathBuf,
    file: File,
    shard: usize,
    index: BlockIndex,
    cache: Arc<BlockCache>,
    /// The persisted statistics summary of this shard, decoded from the
    /// segment's stats section at open — what lets
    /// [`DiskShardStore::estimate`] answer the planner without reading
    /// a single block.
    stats: StoreStats,
    /// Blocks actually read off disk per run (cache misses through this
    /// shard) — the laziness tests' gauge.
    blocks_read: [AtomicU64; RUN_ORDERS.len()],
    /// The first block that failed to read or verify after open
    /// ([`TripleStore::fault`]).
    fault: OnceLock<String>,
}

impl DiskShardStore {
    /// Binds shard `index` of the segment directory, validating that
    /// its file exists with exactly the size the root records and
    /// reading its checksummed block index. `stats` is the shard's
    /// summary from [`read_stats`]; `cache` the store-wide block cache.
    pub fn open(
        dir: &Path,
        index: usize,
        meta: &ShardMeta,
        block_triples: u32,
        stats: StoreStats,
        cache: Arc<BlockCache>,
    ) -> Result<Self, SegmentError> {
        let path = dir.join(shard_file_name(index));
        let size = match std::fs::metadata(&path) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SegmentError::Invalid(format!(
                    "missing shard file '{}'",
                    path.display()
                )));
            }
            Err(e) => return Err(e.into()),
        };
        if size != meta.file_bytes(block_triples) {
            return Err(SegmentError::Invalid(format!(
                "shard file '{}' is truncated: expected {} bytes, found {size}",
                path.display(),
                meta.file_bytes(block_triples)
            )));
        }
        let block_index = read_block_index(&path, meta, block_triples)?;
        let file = File::open(&path)?;
        Ok(DiskShardStore {
            dict: Dictionary::new(),
            path,
            file,
            shard: index,
            index: block_index,
            cache,
            stats,
            blocks_read: Default::default(),
            fault: OnceLock::new(),
        })
    }

    /// How many blocks of run `i` this shard has read off disk (cache
    /// misses; hits and untouched blocks don't count).
    pub fn blocks_read(&self, i: usize) -> u64 {
        self.blocks_read[i].load(Ordering::Relaxed)
    }

    /// This shard's block cache counters (shared store-wide).
    pub fn block_cache(&self) -> &BlockCache {
        &self.cache
    }

    /// One block's raw payload bytes, positioned-read so concurrent
    /// workers never contend on a shared seek offset.
    fn read_block_bytes(&self, run: usize, block: usize) -> std::io::Result<Vec<u8>> {
        let offset = self.index.block_offset(run, block);
        let mut buf = vec![0u8; self.index.block_len(block) * TRIPLE_BYTES as usize];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(&mut buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = File::open(&self.path)?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut buf)?;
        }
        Ok(buf)
    }

    /// Block `block` of run `run`, from the shared cache or freshly
    /// read, verified and decoded. Corruption found after open (the file
    /// changed under us after its size and index were validated) is
    /// recorded as the shard's [`TripleStore::fault`] and yields `None`,
    /// as does every read after it: serving wrong triples silently would
    /// be worse than failing the query.
    fn block(&self, run: usize, block: usize) -> Option<Arc<Vec<IdTriple>>> {
        if self.fault.get().is_some() {
            return None;
        }
        let read = || {
            self.blocks_read[run].fetch_add(1, Ordering::Relaxed);
            let bytes = self.read_block_bytes(run, block).map_err(|e| {
                format!(
                    "reading block {block} of run {:?} in '{}': {e}",
                    RUN_ORDERS[run],
                    self.path.display()
                )
            })?;
            if Checksum::of(&bytes) != self.index.runs[run].checksums[block] {
                return Err(format!(
                    "block checksum mismatch in '{}' (run {:?}, block {block}): corrupted after open; re-save the segments",
                    self.path.display(),
                    RUN_ORDERS[run]
                ));
            }
            Ok(segment::decode_triples(&bytes))
        };
        self.cache.get_or_read(self.shard, run, block, || {
            read().map_err(|msg| self.fault.get_or_init(|| msg)).ok()
        })
    }

    /// The candidate range of `pattern`: the run [`RunPlan::for_pattern`]
    /// picks and the blocks of it whose first keys bracket the plan's
    /// key bounds, found by binary search on the block index. Touches no
    /// payload.
    pub(crate) fn range(&self, pattern: Pattern) -> ScanChunk<'_> {
        let plan = RunPlan::for_pattern(&pattern, RUN_ORDERS.len());
        let blocks = self.index.candidate_blocks(plan.run, plan.lo, plan.hi);
        ScanChunk::Blocks {
            shard: self,
            plan,
            start: blocks.start,
            end: blocks.end,
        }
    }

    /// Triples stored in `blocks` (of any run: every run cuts the same
    /// block sizes).
    pub(crate) fn candidates(&self, blocks: std::ops::Range<usize>) -> usize {
        blocks.map(|b| self.index.block_len(b)).sum()
    }

    pub(crate) fn block_scan(
        &self,
        plan: RunPlan,
        blocks: std::ops::Range<usize>,
    ) -> BlockScan<'_> {
        BlockScan {
            shard: self,
            plan,
            blocks,
            cur: None,
        }
    }
}

/// Streams the matching triples of a candidate block range, pulling one
/// block at a time through the cache and narrowing inside it with the
/// plan's key bounds — a no-op except in the range's boundary blocks,
/// whose heads may sit below the lower bound and tails past the upper.
pub(crate) struct BlockScan<'a> {
    shard: &'a DiskShardStore,
    plan: RunPlan,
    blocks: std::ops::Range<usize>,
    cur: Option<(Arc<Vec<IdTriple>>, std::ops::Range<usize>)>,
}

impl Iterator for BlockScan<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        loop {
            if let Some((block, range)) = &mut self.cur {
                for i in range {
                    match &self.plan.residual {
                        Some(p) if !matches(&block[i], p) => continue,
                        _ => return Some(block[i]),
                    }
                }
            }
            let block = self.shard.block(self.plan.run, self.blocks.next()?)?;
            let range = self.plan.range_in(&block);
            self.cur = Some((block, range));
        }
    }
}

impl TripleStore for DiskShardStore {
    fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    fn len(&self) -> usize {
        self.index.triples as usize
    }

    fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        self.range(pattern).iter()
    }

    /// Chunks carry block numbers, not borrowed triples — a worker
    /// materializes each block through the cache when it gets there.
    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
        self.range(pattern).split(n)
    }

    /// Answered entirely from the persisted statistics summary — the
    /// cold path: estimating never reads a block off disk, so a freshly
    /// opened store plans a whole workload at O(header) memory.
    fn estimate(&self, pattern: Pattern) -> u64 {
        self.stats.estimate_pattern(pattern)
    }

    fn stats(&self) -> &StoreStats {
        &self.stats
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn fault(&self) -> Option<&str> {
        self.fault.get().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::tests::{load, NATIVE};
    use crate::segment::tests::TempDir;
    use crate::segment::write_segments_with;
    use sp2b_rdf::{Iri, Subject, Term};

    /// [`save_graph`] with `block_triples`-triple blocks: tiny blocks
    /// exercise boundary handling.
    fn save_blocks(dir: &Path, g: &Graph, shards: usize, block_triples: u32) -> SegmentStats {
        let by = ShardBy::Subject;
        let (dict, buckets) = route_buckets(g.iter(), shards, by).unwrap();
        write_segments_with(dir, &dict, by, buckets, block_triples).expect("save")
    }

    fn graph(n: usize) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add(
                Subject::iri(format!("http://x/s{}", i % 23)),
                Iri::new(format!("http://x/p{}", i % 7)),
                Term::iri(format!("http://x/o{}", i % 13)),
            );
        }
        g
    }

    fn decoded(store: &dyn TripleStore, pattern: Pattern) -> Vec<String> {
        let mut v: Vec<String> = store
            .scan(pattern)
            .map(|t| format!("{} {} {}", t[0], t[1], t[2]))
            .collect();
        v.sort();
        v
    }

    /// Opens shard 0 of a saved single-shard directory with its own
    /// cache of `budget` bytes.
    fn open_shard0(dir: &Path, budget: u64) -> DiskShardStore {
        let header = read_header(dir).expect("header");
        let stats = read_stats(dir, &header).expect("stats");
        DiskShardStore::open(
            dir,
            0,
            &header.shards[0],
            header.block_triples,
            stats[0].clone(),
            Arc::new(BlockCache::new(budget)),
        )
        .expect("open")
    }

    #[test]
    fn saved_store_reopens_and_agrees_with_native_at_all_shard_counts() {
        let g = graph(400);
        let flat = load(&g, 1, ShardBy::Subject, NATIVE);
        for shards in [1usize, 2, 4] {
            let tmp = TempDir::new("open-agree");
            // Tiny blocks: every run spans many blocks, so boundary
            // handling is exercised at every pattern shape.
            let stats = save_blocks(tmp.path(), &g, shards, 7);
            assert_eq!(stats.triples as usize, g.len());
            let opened = open_store(tmp.path()).expect("open");
            assert_eq!(opened.len(), flat.len());
            assert_eq!(opened.shard_count(), shards);
            assert_eq!(opened.dictionary().len(), flat.dictionary().len());
            // Ids transfer: both stores interned in document order.
            let s1 = opened.resolve(&Term::iri("http://x/s1"));
            let p2 = opened.resolve(&Term::iri("http://x/p2"));
            let o3 = opened.resolve(&Term::iri("http://x/o3"));
            assert_eq!(s1, flat.resolve(&Term::iri("http://x/s1")));
            for pattern in [
                [None, None, None],
                [s1, None, None],
                [None, p2, None],
                [None, None, o3],
                [s1, p2, None],
                [None, p2, o3],
                [s1, p2, o3],
            ] {
                assert_eq!(
                    decoded(&opened, pattern),
                    decoded(&flat, pattern),
                    "{shards} shards, pattern {pattern:?}"
                );
                assert_eq!(
                    opened.scan(pattern).count() as u64,
                    flat.estimate(pattern),
                    "{shards} shards, pattern {pattern:?}: count"
                );
                assert_eq!(
                    opened.contains(pattern),
                    flat.scan(pattern).next().is_some(),
                    "{shards} shards, pattern {pattern:?}: contains"
                );
            }
        }
    }

    #[test]
    fn blocks_load_lazily_per_access_pattern() {
        let g = graph(200);
        let tmp = TempDir::new("lazy");
        save_graph(tmp.path(), &g, 1, ShardBy::Subject).expect("save");
        let shard = open_shard0(tmp.path(), 1 << 20);
        let reads = |shard: &DiskShardStore| -> Vec<u64> {
            (0..RUN_ORDERS.len())
                .map(|i| shard.blocks_read(i))
                .collect()
        };
        assert_eq!(
            reads(&shard),
            vec![0; RUN_ORDERS.len()],
            "open reads no payload"
        );
        let p = 1u32; // any id; the scan route matters, not the hits
        shard.scan([None, Some(p), None]).count();
        assert!(shard.blocks_read(1) > 0, "P-bound scan reads the PSO run");
        let others = reads(&shard)
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i != 1);
        assert!(others.map(|(_, n)| n).all(|n| n == 0), "only that one");
        shard.scan([None, None, None]).count();
        assert!(shard.blocks_read(0) > 0, "full scan reads the SPO run");
        // A repeat of the same scans is all cache hits: no new reads.
        let before = reads(&shard);
        shard.scan([None, Some(p), None]).count();
        shard.scan([None, None, None]).count();
        assert_eq!(before, reads(&shard), "warm scans hit the cache");
        assert!(shard.block_cache().stats().hits > 0);
    }

    #[test]
    fn bound_scans_touch_only_candidate_blocks() {
        let g = graph(400);
        let tmp = TempDir::new("window");
        // 7-triple blocks: a subject-bound scan covers a small slice of
        // the many SPO blocks.
        save_blocks(tmp.path(), &g, 1, 7);
        let shard = open_shard0(tmp.path(), 1 << 20);
        let total_blocks = shard.index.blocks() as u64;
        assert!(total_blocks > 10, "test premise: many blocks per run");
        let flat = load(&g, 1, ShardBy::Subject, NATIVE);
        let s1 = flat.resolve(&Term::iri("http://x/s1"));
        shard.scan([s1, None, None]).count();
        let read = shard.blocks_read(0);
        assert!(read > 0, "the scan read something");
        assert!(
            read < total_blocks / 2,
            "a one-subject scan read {read} of {total_blocks} SPO blocks"
        );
    }

    #[test]
    fn estimates_read_no_blocks_on_a_cold_store() {
        let g = graph(300);
        let tmp = TempDir::new("cold-estimate");
        save_graph(tmp.path(), &g, 2, ShardBy::Subject).expect("save");
        let header = read_header(tmp.path()).expect("header");
        let stats = read_stats(tmp.path(), &header).expect("stats");
        let cache = Arc::new(BlockCache::new(1 << 20));
        let mut shards = Vec::new();
        for ((i, meta), s) in header.shards.iter().enumerate().zip(stats) {
            shards.push(
                DiskShardStore::open(
                    tmp.path(),
                    i,
                    meta,
                    header.block_triples,
                    s,
                    Arc::clone(&cache),
                )
                .expect("open"),
            );
        }
        let opened = open_store(tmp.path()).expect("open");
        let s1 = opened.resolve(&Term::iri("http://x/s1"));
        let p1 = opened.resolve(&Term::iri("http://x/p1"));
        let o1 = opened.resolve(&Term::iri("http://x/o1"));
        // Every bound-position combination, on the sharded store and on
        // the bare shards: none may read a block.
        for pattern in [
            [None, None, None],
            [s1, None, None],
            [None, p1, None],
            [None, None, o1],
            [s1, p1, None],
            [s1, None, o1],
            [None, p1, o1],
            [s1, p1, o1],
        ] {
            opened.estimate(pattern);
            opened.stats();
            for shard in &shards {
                shard.estimate(pattern);
                // Block-range resolution itself is also I/O-free.
                shard.range(pattern);
            }
        }
        for shard in &shards {
            assert!(
                (0..RUN_ORDERS.len()).all(|i| shard.blocks_read(i) == 0),
                "estimation or range planning read a block"
            );
        }
        assert_eq!(cache.stats().misses, 0, "the cache never saw a read");
        // Estimates stay sane: the full pattern matches everything.
        assert_eq!(opened.estimate([None, None, None]), g.len() as u64);
        assert_eq!(
            opened.estimate([None, p1, None]),
            opened.scan([None, p1, None]).count() as u64,
            "single-predicate estimates are exact from per-predicate stats"
        );
    }

    #[test]
    fn scan_chunks_cover_like_the_other_stores() {
        let g = graph(300);
        let tmp = TempDir::new("chunks");
        save_blocks(tmp.path(), &g, 2, 7);
        let opened = open_store(tmp.path()).expect("open");
        let p1 = opened.resolve(&Term::iri("http://x/p1"));
        let s1 = opened.resolve(&Term::iri("http://x/s1"));
        for pattern in [[None, None, None], [None, p1, None], [s1, None, None]] {
            let sequential: Vec<IdTriple> = opened.scan(pattern).collect();
            for n in [1, 3, 8] {
                let chunks = opened.scan_chunks(pattern, n);
                let chunked: Vec<IdTriple> = chunks.into_iter().flat_map(ScanChunk::iter).collect();
                assert_eq!(chunked, sequential, "pattern {pattern:?} n {n}");
            }
        }
    }

    /// The two sources of one run table: a resident and a saved store of
    /// the same document plan every pattern onto the same run of the
    /// same buckets, so they must emit the same *sequence* — through a
    /// cache far smaller than one run, and chunked or not.
    #[test]
    fn resident_and_block_sources_scan_the_same_sequence() {
        let g = graph(400);
        let budget = 4 * (7 * TRIPLE_BYTES + SLOT_OVERHEAD);
        for shards in [1usize, 2, 4] {
            let tmp = TempDir::new("differential");
            save_blocks(tmp.path(), &g, shards, 7);
            let disk = open_store_with(tmp.path(), Some(budget)).expect("open");
            let resident = load(&g, shards, ShardBy::Subject, NATIVE);
            // Triple 30 of the document is (s7, p2, o4): every mask hits.
            let s = disk.resolve(&Term::iri("http://x/s7"));
            let p = disk.resolve(&Term::iri("http://x/p2"));
            let o = disk.resolve(&Term::iri("http://x/o4"));
            for mask in 0..8 {
                let pattern = [
                    s.filter(|_| mask & 1 != 0),
                    p.filter(|_| mask & 2 != 0),
                    o.filter(|_| mask & 4 != 0),
                ];
                let want: Vec<IdTriple> = resident.scan(pattern).collect();
                assert!(!want.is_empty(), "{shards} shards, pattern {pattern:?}");
                let got: Vec<IdTriple> = disk.scan(pattern).collect();
                assert_eq!(got, want, "{shards} shards, pattern {pattern:?}");
                for n in [1, 3, 8] {
                    let chunks = disk.scan_chunks(pattern, n);
                    let chunked: Vec<IdTriple> =
                        chunks.into_iter().flat_map(ScanChunk::iter).collect();
                    assert_eq!(chunked, want, "{shards} shards, pattern {pattern:?}, n {n}");
                }
            }
            let cache = disk.cache_stats().expect("disk store exposes its cache");
            assert!(cache.evictions > 0, "the budget is smaller than one run");
            assert!(cache.peak_resident_bytes <= budget);
        }
    }

    #[test]
    fn lru_cache_evicts_cold_blocks_within_its_budget() {
        let g = graph(400);
        let tmp = TempDir::new("lru");
        save_blocks(tmp.path(), &g, 1, 16);
        // Room for a handful of 16-triple (192 B + overhead) blocks,
        // far fewer than one run holds.
        let budget = 4 * (16 * TRIPLE_BYTES + SLOT_OVERHEAD);
        let shard = open_shard0(tmp.path(), budget);
        let run_blocks = shard.index.blocks() as u64;
        assert!(run_blocks > 8, "test premise: more blocks than fit");
        shard.scan([None, None, None]).count();
        let stats = shard.block_cache().stats();
        assert_eq!(stats.misses, run_blocks, "every SPO block read once");
        assert!(stats.evictions > 0, "the full scan overflowed the budget");
        assert!(stats.resident_bytes <= budget);
        assert!(stats.peak_resident_bytes <= budget, "budget is a hard cap");
        assert!(stats.resident_blocks <= 4);
        // A second full scan re-reads what was evicted (sequential
        // flooding is LRU's worst case) but never exceeds the budget.
        shard.scan([None, None, None]).count();
        let stats = shard.block_cache().stats();
        assert!(stats.peak_resident_bytes <= budget);
        // Hammering one hot block is all hits once resident.
        let hits_before = shard.block_cache().stats().hits;
        for _ in 0..10 {
            shard.block(0, 0);
        }
        assert!(shard.block_cache().stats().hits >= hits_before + 9);
    }

    #[test]
    fn oversized_blocks_bypass_the_cache_entirely() {
        let g = graph(200);
        let tmp = TempDir::new("bypass");
        save_graph(tmp.path(), &g, 1, ShardBy::Subject).expect("save");
        // Budget smaller than any single block: nothing is ever cached,
        // but scans still answer correctly.
        let shard = open_shard0(tmp.path(), 16);
        let flat = load(&g, 1, ShardBy::Subject, NATIVE);
        assert_eq!(
            decoded(&shard, [None, None, None]),
            decoded(&flat, [None, None, None])
        );
        let stats = shard.block_cache().stats();
        assert!(stats.misses > 0);
        assert_eq!(stats.resident_blocks, 0, "nothing fits, nothing resides");
        assert_eq!(stats.peak_resident_bytes, 0);
    }

    #[test]
    fn shards_of_one_store_share_one_cache() {
        let g = graph(300);
        let tmp = TempDir::new("shared");
        save_graph(tmp.path(), &g, 3, ShardBy::Subject).expect("save");
        let opened = open_store_with(tmp.path(), Some(1 << 20)).expect("open");
        opened.scan([None, None, None]).count();
        let stats = opened.cache_stats().expect("disk store exposes its cache");
        assert_eq!(stats.budget_bytes, 1 << 20);
        // All three shards' SPO reads landed in the same cache.
        assert_eq!(stats.misses, 3, "one default-size block per shard");
    }

    #[test]
    fn missing_and_truncated_shard_files_fail_open_cleanly() {
        let g = graph(150);
        let tmp = TempDir::new("shard-missing");
        save_graph(tmp.path(), &g, 2, ShardBy::Subject).expect("save");
        // ShardedStore carries no Debug impl, so unwrap the error by hand.
        fn open_err(dir: &Path) -> SegmentError {
            match open_store(dir) {
                Err(e) => e,
                Ok(_) => panic!("open of a damaged directory must fail"),
            }
        }
        let shard1 = tmp.path().join(shard_file_name(1));
        let bytes = std::fs::read(&shard1).unwrap();
        std::fs::remove_file(&shard1).unwrap();
        let err = open_err(tmp.path());
        assert!(err.to_string().contains("missing shard file"), "{err}");
        std::fs::write(&shard1, &bytes[..bytes.len() - 12]).unwrap();
        let err = open_err(tmp.path());
        assert!(err.to_string().contains("truncated"), "{err}");
        // An index flipped in place (size intact) fails open by its
        // checksum.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        std::fs::write(&shard1, &corrupt).unwrap();
        let err = open_err(tmp.path());
        assert!(err.to_string().contains("block index checksum"), "{err}");
    }

    #[test]
    fn post_open_block_corruption_faults_with_the_checksum_message() {
        let g = graph(150);
        let tmp = TempDir::new("block-corrupt");
        save_graph(tmp.path(), &g, 1, ShardBy::Subject).expect("save");
        let opened = open_store(tmp.path()).expect("open validates sizes and index only");
        assert_eq!(opened.fault(), None);
        // Corrupt a triple body *after* open: same size, wrong bytes.
        // Offset 6 sits inside the first (SPO) block, the one a full
        // scan reads.
        let shard0 = tmp.path().join(shard_file_name(0));
        let mut bytes = std::fs::read(&shard0).unwrap();
        bytes[6] ^= 0xff;
        std::fs::write(&shard0, &bytes).unwrap();
        // The scan ends at the bad block instead of serving it, and the
        // store names what it found.
        assert_eq!(opened.scan([None, None, None]).count(), 0);
        let msg = opened
            .fault()
            .expect("the corrupted block faults the store")
            .to_owned();
        assert!(msg.contains("checksum"), "fault names the checksum: {msg}");
        // Sticky: repairing the bytes under the open store does not bring
        // it back, and no block of the shard is served any more.
        bytes[6] ^= 0xff;
        std::fs::write(&shard0, &bytes).unwrap();
        assert_eq!(opened.scan([None, None, None]).count(), 0);
        assert_eq!(
            opened.scan_chunks([None, None, None], 1)[0].iter().count(),
            0
        );
        assert_eq!(opened.fault(), Some(msg.as_str()));
    }

    #[test]
    fn pso_partitioning_survives_the_roundtrip() {
        let g = graph(200);
        let tmp = TempDir::new("pso");
        save_graph(tmp.path(), &g, 4, ShardBy::PredicateSubject).expect("save");
        let opened = open_store(tmp.path()).expect("open");
        assert_eq!(opened.shard_by(), ShardBy::PredicateSubject);
        let flat = load(&g, 1, ShardBy::Subject, NATIVE);
        assert_eq!(
            decoded(&opened, [None, None, None]),
            decoded(&flat, [None, None, None])
        );
    }
}
