//! The on-disk segment format behind [`crate::disk`].
//!
//! A saved store is a directory of immutable files:
//!
//! ```text
//! root.sp2b       the segment root: magic, version, partition key,
//!                 block size, counts, and per-section checksums
//!                 (written last via tmp + rename, so it doubles as the
//!                 atomic root pointer a future hot-swap flips)
//! dict.bin        the shared dictionary: every term serialized in id
//!                 order, so re-interning sequentially reproduces the
//!                 exact ids of the original load
//! stats.bin       one serialized [`StoreStats`] summary per shard
//!                 (length-prefixed, in shard order), so a reopened
//!                 store plans with full statistics without touching
//!                 any triple run
//! shard-NNNN.seg  one file per shard: the four sorted id-triple runs
//!                 of [`RUN_ORDERS`] (SPO, PSO, POS, OSP) of 12 bytes
//!                 per triple, each run cut into fixed-size blocks,
//!                 followed by the shard's block index (per run, per
//!                 block: the block's first sort key and its own
//!                 64-bit [`Checksum`])
//! ```
//!
//! All integers are little-endian. Every section carries a 64-bit
//! [`Checksum`] (FNV-1a folded over 8-byte words) recorded in the root;
//! the root itself ends with a checksum over its own preceding bytes.
//! Opening costs O(root + dictionary +
//! block index): triple payloads are validated by file size at open and
//! per block, by checksum, when a block is actually read. The block
//! granularity is what lets [`crate::disk`] serve a document larger
//! than RAM — a scan touches only the blocks its key range covers, and
//! decoded blocks live in a byte-budgeted cache instead of whole runs
//! pinned for the store's lifetime.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use sp2b_rdf::{LiteralRef, TermRef};

use crate::dictionary::{Dictionary, IdTriple};
use crate::run::{sort_runs, Key, RUN_ORDERS};
use crate::shard::ShardBy;
use crate::stats::StoreStats;

/// Magic prefix of the segment root.
pub const MAGIC: [u8; 8] = *b"SP2BSEG1";

/// Format version written into the root. Version 2 added the per-shard
/// statistics section (`stats.bin`) and its root fields; version 3 cut
/// the runs into checksummed fixed-size blocks with a per-run sparse
/// first-key index, replacing the per-run whole-file checksums; version
/// 4 added the POS run, so a saved shard holds the same run table
/// ([`RUN_ORDERS`]) a resident one sorts; version 5 changed every
/// checksum from byte-serial FNV-1a to the word-folding [`Checksum`].
pub const VERSION: u32 = 5;

/// Default triples per block: 1024 triples = 12 KiB of payload, inside
/// the 4–64 KiB sweet spot where a block is large enough to amortize a
/// read syscall and small enough that a point lookup decodes little.
pub const DEFAULT_BLOCK_TRIPLES: u32 = 1024;

/// The segment root file name.
pub const ROOT_FILE: &str = "root.sp2b";

/// The serialized dictionary file name.
pub const DICT_FILE: &str = "dict.bin";

/// The serialized per-shard statistics file name.
pub const STATS_FILE: &str = "stats.bin";

/// Bytes per serialized triple (three little-endian `u32` ids).
pub const TRIPLE_BYTES: u64 = 12;

/// The shard file name for shard `i`.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:04}.seg")
}

/// Why a segment directory could not be written or opened. Display is a
/// single line, suitable for the CLI's one-line hard errors.
#[derive(Debug)]
pub enum SegmentError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The directory is not a saved segment store: missing files,
    /// truncation, bad magic/version, or a checksum mismatch.
    Invalid(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "i/o error: {e}"),
            SegmentError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        SegmentError::Io(e)
    }
}

pub(crate) fn invalid(msg: impl Into<String>) -> SegmentError {
    SegmentError::Invalid(msg.into())
}

/// The per-section checksum: streaming FNV-1a over 8-byte little-endian
/// words instead of bytes, the words dealt round-robin onto
/// [`Checksum::LANES`] independent accumulators. Byte-serial FNV is one
/// multiply chain as long as the input — 12 288 dependent multiplies to
/// verify a 12 KiB block, most of what a block-cache miss cost — where
/// the lanes keep four multiplies in flight and each covers eight bytes.
/// Every step (`xor` a word in, multiply by an odd prime) is a bijection
/// of the lane, and [`Checksum::finish`] folds the lanes, the zero-padded
/// tail and the length through the same step, so a change confined to
/// one word — any single flipped byte — always changes the digest.
///
/// Self-contained so that incremental hashing agrees with whole-buffer
/// hashing for *any* split of the input (the segment writer feeds it
/// the dictionary a buffer at a time, the reader whole sections), which the
/// crate's chunking [`crate::hash::FxHasher`] does not guarantee: bytes
/// short of a word wait in `pending` until the next update completes it.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [Lane; Self::LANES],
    /// The lane the next word goes to.
    next: usize,
    /// Bytes of the word not yet complete, and how many there are.
    pending: [u8; 8],
    pending_len: usize,
    /// Bytes folded in so far.
    len: u64,
}

/// One accumulator, held sixteen bytes from the next. With the four
/// side by side, their write-back at the end of [`Checksum::update`] is
/// one contiguous store, which LLVM takes as the cue to do the four
/// multiplies as one vector operation — and no x86 level below AVX-512
/// has a 64-bit vector multiply, so it emulates each with three 32-bit
/// ones: 1.4 µs a 12 KiB block against 0.45 µs for the four scalar
/// chains this layout keeps.
#[derive(Debug, Clone, Copy)]
struct Lane {
    acc: u64,
    _apart: u64,
}

impl Checksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const LANES: usize = 4;

    /// A fresh accumulator.
    pub fn new() -> Self {
        let lane = Lane {
            acc: Self::OFFSET,
            _apart: 0,
        };
        Checksum {
            lanes: [lane; Self::LANES],
            next: 0,
            pending: [0; 8],
            pending_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(Self::PRIME)
    }

    #[inline]
    fn word(&mut self, word: u64) {
        let lane = &mut self.lanes[self.next].acc;
        *lane = Self::step(*lane, word);
        self.next = (self.next + 1) % Self::LANES;
    }

    /// Folds in more bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let le = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        // Words up to the next lane-0 boundary, then the bulk a full
        // round of lanes at a time with the accumulators in registers —
        // the loop a block verification spends its time in.
        while self.next != 0 && bytes.len() >= 8 {
            self.word(le(&bytes[..8]));
            bytes = &bytes[8..];
        }
        let (bulk, tail) = bytes.split_at(bytes.len() - bytes.len() % (8 * Self::LANES));
        let [mut a, mut b, mut c, mut d] = self.lanes.map(|lane| lane.acc);
        for round in bulk.chunks_exact(8 * Self::LANES) {
            a = Self::step(a, le(&round[0..8]));
            b = Self::step(b, le(&round[8..16]));
            c = Self::step(c, le(&round[16..24]));
            d = Self::step(d, le(&round[24..32]));
        }
        for (lane, acc) in self.lanes.iter_mut().zip([a, b, c, d]) {
            lane.acc = acc;
        }
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            self.word(le(w));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        let mut tail = [0u8; 8];
        tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        let mut h = Self::OFFSET;
        for lane in &self.lanes {
            h = Self::step(h, lane.acc);
        }
        h = Self::step(h, u64::from_le_bytes(tail));
        Self::step(h, self.len)
    }

    /// One-shot digest of a buffer.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = Checksum::new();
        c.update(bytes);
        c.finish()
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// Bytes of one block-index entry: a 12-byte first key plus an 8-byte
/// block checksum.
const INDEX_ENTRY_BYTES: usize = 20;

/// Number of blocks each of a shard's runs is cut into.
pub fn blocks_in_run(triples: u64, block_triples: u32) -> usize {
    triples.div_ceil(block_triples as u64) as usize
}

/// Byte size of one shard's block-index section: per run, per block, a
/// first key and a checksum.
pub fn index_bytes(triples: u64, block_triples: u32) -> u64 {
    (RUN_ORDERS.len() * blocks_in_run(triples, block_triples) * INDEX_ENTRY_BYTES) as u64
}

/// Root-recorded facts about one shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Triples in this shard (every run holds exactly this many).
    pub triples: u64,
    /// Checksum of the shard's block-index section. The per-block
    /// payload checksums live inside that section, so this one value
    /// transitively covers the whole file.
    pub index_checksum: u64,
}

impl ShardMeta {
    /// Exact byte size of the shard file these facts describe: the run
    /// payloads plus the trailing block index.
    pub fn file_bytes(&self, block_triples: u32) -> u64 {
        self.triples * TRIPLE_BYTES * RUN_ORDERS.len() as u64
            + index_bytes(self.triples, block_triples)
    }
}

/// The index entries of one sorted run, in block order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunIndex {
    /// Each block's first triple, as its sort key (ids permuted into
    /// the run's major/mid/minor order) — the binary-search target that
    /// turns a key range into a block range without touching payload.
    pub first_keys: Vec<Key>,
    /// Each block's payload checksum.
    pub checksums: Vec<u64>,
}

/// One shard's decoded block index: the sparse first-key tables and
/// per-block checksums of its runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    /// Triples per run (from the root).
    pub triples: u64,
    /// Triples per full block (from the root; the last block of a run
    /// may be shorter).
    pub block_triples: u32,
    /// Per-run entries, in [`RUN_ORDERS`] order.
    pub runs: [RunIndex; RUN_ORDERS.len()],
}

impl BlockIndex {
    /// Number of blocks in each run.
    pub fn blocks(&self) -> usize {
        blocks_in_run(self.triples, self.block_triples)
    }

    /// Triples in block `block` (the last block may be short).
    pub fn block_len(&self, block: usize) -> usize {
        debug_assert!(block < self.blocks());
        let start = block as u64 * self.block_triples as u64;
        (self.triples - start).min(self.block_triples as u64) as usize
    }

    /// Byte offset of block `block` of run `run` within the shard file.
    pub fn block_offset(&self, run: usize, block: usize) -> u64 {
        run as u64 * self.triples * TRIPLE_BYTES
            + block as u64 * self.block_triples as u64 * TRIPLE_BYTES
    }

    /// The blocks of run `run` that may hold sort keys in `[lo, hi]`
    /// (inclusive), by binary search on the first-key table. The range
    /// is conservative at both ends — the block before the first
    /// key ≥ `lo` may still start below `lo` and reach into the range —
    /// so callers skip below-`lo` keys inside the first block and stop
    /// past `hi`; no payload is touched here.
    pub fn candidate_blocks(&self, run: usize, lo: Key, hi: Key) -> std::ops::Range<usize> {
        let keys = &self.runs[run].first_keys;
        let start = keys.partition_point(|k| *k < lo).saturating_sub(1);
        let end = keys.partition_point(|k| *k <= hi);
        if end <= start {
            0..0
        } else {
            start..end
        }
    }
}

/// The decoded segment root.
#[derive(Debug, Clone)]
pub struct SegmentHeader {
    /// The partition key the triples were routed by.
    pub shard_by: ShardBy,
    /// Triples per full block in every shard file.
    pub block_triples: u32,
    /// Total triples across shards.
    pub triples: u64,
    /// Distinct terms in the dictionary.
    pub terms: u64,
    /// Byte length of `dict.bin`.
    pub dict_bytes: u64,
    /// Checksum of `dict.bin`.
    pub dict_checksum: u64,
    /// Byte length of `stats.bin`.
    pub stats_bytes: u64,
    /// Checksum of `stats.bin`.
    pub stats_checksum: u64,
    /// Per-shard facts, in shard order.
    pub shards: Vec<ShardMeta>,
}

/// What a save wrote, for reporting.
#[derive(Debug, Clone)]
pub struct SegmentStats {
    /// Total triples written.
    pub triples: u64,
    /// Distinct terms written.
    pub terms: u64,
    /// Triples per shard, in shard order.
    pub shard_lens: Vec<usize>,
    /// Total bytes across all files.
    pub bytes: u64,
}

fn shard_by_code(shard_by: ShardBy) -> u32 {
    match shard_by {
        ShardBy::Subject => 0,
        ShardBy::PredicateSubject => 1,
    }
}

fn shard_by_from_code(code: u32) -> Option<ShardBy> {
    match code {
        0 => Some(ShardBy::Subject),
        1 => Some(ShardBy::PredicateSubject),
        _ => None,
    }
}

/// Writes a complete segment store into `dir` with the default block
/// size. See [`write_segments_with`].
pub fn write_segments(
    dir: &Path,
    dict: &Dictionary,
    shard_by: ShardBy,
    buckets: Vec<Vec<IdTriple>>,
) -> Result<SegmentStats, SegmentError> {
    write_segments_with(dir, dict, shard_by, buckets, DEFAULT_BLOCK_TRIPLES)
}

/// Writes a complete segment store into `dir`: dictionary, one file of
/// sorted block-cut runs per bucket, and — last, via tmp + rename — the
/// checksummed root. A crash before the rename leaves no valid root, so
/// a partially written directory never opens.
///
/// Each bucket is sorted by [`sort_runs`], the builder a resident
/// [`NativeStore`](crate::NativeStore) uses, and its statistics are read
/// off those runs ([`StoreStats::from_runs`]) — one copy of the bucket
/// per run is held while its file is being written.
pub fn write_segments_with(
    dir: &Path,
    dict: &Dictionary,
    shard_by: ShardBy,
    buckets: Vec<Vec<IdTriple>>,
    block_triples: u32,
) -> Result<SegmentStats, SegmentError> {
    assert!(block_triples > 0, "block size must be at least one triple");
    if !dir.is_dir() {
        return Err(invalid(format!(
            "'{}' is not a directory (create it first)",
            dir.display()
        )));
    }
    // The dictionary section, straight from the dictionary: terms are
    // serialized into one reused buffer, and each full buffer is
    // checksummed once and written once.
    let mut dict_file = File::create(dir.join(DICT_FILE))?;
    let mut dict_checksum = Checksum::new();
    let mut dict_bytes = 0u64;
    let mut buf = Vec::with_capacity(WRITE_BUFFER_BYTES);
    let mut flush = |buf: &mut Vec<u8>| {
        dict_checksum.update(buf);
        dict_bytes += buf.len() as u64;
        let written = dict_file.write_all(buf);
        buf.clear();
        written
    };
    for (_, term) in dict.iter() {
        put_term(&mut buf, term);
        if buf.len() >= WRITE_BUFFER_BYTES {
            flush(&mut buf)?;
        }
    }
    flush(&mut buf)?;
    let dict_checksum = dict_checksum.finish();
    dict_file.sync_all()?;

    // Each bucket's sorted runs make its shard file and its summary for
    // the statistics section, so a reopened store plans with full
    // statistics for the cost of reading that file. The runs of one
    // bucket at a time are held; the bucket itself goes once sorted.
    let mut stats_bytes = Vec::new();
    let mut metas = Vec::with_capacity(buckets.len());
    let mut total_bytes = dict_bytes;
    for (i, bucket) in buckets.into_iter().enumerate() {
        let sorted = sort_runs(&bucket, RUN_ORDERS.len());
        let triples = bucket.len() as u64;
        drop(bucket);
        let blob = StoreStats::from_runs(&sorted).encode();
        stats_bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        stats_bytes.extend_from_slice(&blob);
        let mut file = File::create(dir.join(shard_file_name(i)))?;
        // Payload first (every run, block-cut), index entries
        // accumulated on the side and appended after. A block is
        // encoded into the reused buffer, checksummed and written, each
        // once.
        let mut index = Vec::with_capacity(index_bytes(triples, block_triples) as usize);
        for (run, order) in sorted.iter().zip(RUN_ORDERS) {
            for block in run.triples.chunks(block_triples as usize) {
                buf.clear();
                for id in block.iter().flatten() {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
                file.write_all(&buf)?;
                for id in order.key(&block[0]) {
                    index.extend_from_slice(&id.to_le_bytes());
                }
                index.extend_from_slice(&Checksum::of(&buf).to_le_bytes());
            }
        }
        let index_checksum = Checksum::of(&index);
        file.write_all(&index)?;
        file.sync_all()?;
        let meta = ShardMeta {
            triples,
            index_checksum,
        };
        total_bytes += meta.file_bytes(block_triples);
        metas.push(meta);
    }
    let stats_checksum = Checksum::of(&stats_bytes);
    let mut stats_file = File::create(dir.join(STATS_FILE))?;
    stats_file.write_all(&stats_bytes)?;
    stats_file.sync_all()?;
    total_bytes += stats_bytes.len() as u64;

    let triples: u64 = metas.iter().map(|m| m.triples).sum();
    let mut root = Vec::with_capacity(64 + metas.len() * 32);
    root.extend_from_slice(&MAGIC);
    root.extend_from_slice(&VERSION.to_le_bytes());
    root.extend_from_slice(&shard_by_code(shard_by).to_le_bytes());
    root.extend_from_slice(&(metas.len() as u32).to_le_bytes());
    root.extend_from_slice(&block_triples.to_le_bytes());
    root.extend_from_slice(&triples.to_le_bytes());
    root.extend_from_slice(&(dict.len() as u64).to_le_bytes());
    root.extend_from_slice(&dict_bytes.to_le_bytes());
    root.extend_from_slice(&dict_checksum.to_le_bytes());
    root.extend_from_slice(&(stats_bytes.len() as u64).to_le_bytes());
    root.extend_from_slice(&stats_checksum.to_le_bytes());
    for meta in &metas {
        root.extend_from_slice(&meta.triples.to_le_bytes());
        root.extend_from_slice(&meta.index_checksum.to_le_bytes());
    }
    let trailer = Checksum::of(&root);
    root.extend_from_slice(&trailer.to_le_bytes());
    total_bytes += root.len() as u64;

    // The atomic root flip: readers either see the previous root or the
    // complete new one, never a torn write.
    let tmp = dir.join(format!("{ROOT_FILE}.tmp"));
    let mut root_file = File::create(&tmp)?;
    root_file.write_all(&root)?;
    root_file.sync_all()?;
    drop(root_file);
    fs::rename(&tmp, dir.join(ROOT_FILE))?;

    Ok(SegmentStats {
        triples,
        terms: dict.len() as u64,
        shard_lens: metas.iter().map(|m| m.triples as usize).collect(),
        bytes: total_bytes,
    })
}

/// Reads and validates the segment root of `dir`. This is the whole
/// fixed cost of discovering a saved store: a few dozen bytes per shard.
pub fn read_header(dir: &Path) -> Result<SegmentHeader, SegmentError> {
    if !dir.is_dir() {
        return Err(invalid(format!(
            "segment directory '{}' does not exist",
            dir.display()
        )));
    }
    let path = dir.join(ROOT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(invalid(format!(
                "no segment root in '{}' (expected a directory written by `sp2b save`)",
                dir.display()
            )));
        }
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < MAGIC.len() + 8 {
        return Err(invalid("segment root is truncated"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if Checksum::of(body) != recorded {
        return Err(invalid(
            "segment root checksum mismatch (truncated or corrupted save)",
        ));
    }
    let mut cur = Cursor::new(body, "segment root");
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(invalid("not a segment root (bad magic)"));
    }
    let version = cur.u32()?;
    if version != VERSION {
        // A valid older root, just the wrong generation: say exactly
        // what to do about it rather than panicking or misreading.
        return Err(invalid(format!(
            "segment version {version}, expected {VERSION} — re-run `sp2b save`"
        )));
    }
    let shard_by = shard_by_from_code(cur.u32()?)
        .ok_or_else(|| invalid("segment root names an unknown partition key"))?;
    let shard_count = cur.u32()? as usize;
    let block_triples = cur.u32()?;
    if block_triples == 0 {
        return Err(invalid("segment root records a zero block size"));
    }
    let triples = cur.u64()?;
    let terms = cur.u64()?;
    let dict_bytes = cur.u64()?;
    let dict_checksum = cur.u64()?;
    let stats_bytes = cur.u64()?;
    let stats_checksum = cur.u64()?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let shard_triples = cur.u64()?;
        let index_checksum = cur.u64()?;
        shards.push(ShardMeta {
            triples: shard_triples,
            index_checksum,
        });
    }
    if !cur.done() {
        return Err(invalid("trailing bytes in segment root"));
    }
    let shard_sum: u64 = shards.iter().map(|m| m.triples).sum();
    if shard_sum != triples {
        return Err(invalid(
            "segment root is inconsistent: shard counts do not sum to the total",
        ));
    }
    Ok(SegmentHeader {
        shard_by,
        block_triples,
        triples,
        terms,
        dict_bytes,
        dict_checksum,
        stats_bytes,
        stats_checksum,
        shards,
    })
}

/// Reads and verifies the per-shard statistics section, in shard order.
/// O(stats bytes) — no triple run is touched, which is what keeps
/// planning against a freshly opened store cold-path-free.
pub fn read_stats(dir: &Path, header: &SegmentHeader) -> Result<Vec<StoreStats>, SegmentError> {
    let bytes = read_section(
        &dir.join(STATS_FILE),
        "statistics",
        header.stats_bytes,
        header.stats_checksum,
    )?;
    let mut cur = Cursor::new(&bytes, "statistics section");
    let mut out = Vec::with_capacity(header.shards.len());
    for (i, meta) in header.shards.iter().enumerate() {
        let len = cur.u32()? as usize;
        let mut blob = Cursor::new(cur.take(len)?, "shard statistics");
        let stats = StoreStats::decode(&mut blob)?;
        if !blob.done() {
            return Err(invalid(format!(
                "statistics of shard {i} hold trailing bytes"
            )));
        }
        if stats.triples != meta.triples {
            return Err(invalid(format!(
                "statistics of shard {i} are inconsistent: root records {} triples, summary {}",
                meta.triples, stats.triples
            )));
        }
        out.push(stats);
    }
    if !cur.done() {
        return Err(invalid("trailing bytes in statistics section"));
    }
    Ok(out)
}

/// Reads the whole of a checksummed section file. The file's size is
/// compared with the root's record *before* anything is read, so a
/// wrong-sized file costs a `stat`, not an allocation of its length.
fn read_section(
    path: &Path,
    name: &str,
    recorded_bytes: u64,
    recorded_checksum: u64,
) -> Result<Vec<u8>, SegmentError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(invalid(format!("missing {name} file '{}'", path.display())));
        }
        Err(e) => return Err(e.into()),
    };
    let held = file.metadata()?.len();
    if held != recorded_bytes {
        return Err(invalid(format!(
            "{name} section is truncated: root records {recorded_bytes} bytes, file holds {held}"
        )));
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if Checksum::of(&bytes) != recorded_checksum {
        return Err(invalid(format!(
            "{name} checksum mismatch (corrupted save; re-run `sp2b save`)"
        )));
    }
    Ok(bytes)
}

/// Reads, verifies and re-interns the shared dictionary. Sequential
/// re-interning reproduces the exact ids the saved store was encoded
/// with (ids are dense, first-seen ordered), so saved triple runs and
/// fresh query plans agree without any translation.
pub fn read_dictionary(dir: &Path, header: &SegmentHeader) -> Result<Dictionary, SegmentError> {
    let bytes = read_section(
        &dir.join(DICT_FILE),
        "dictionary",
        header.dict_bytes,
        header.dict_checksum,
    )?;
    decode_terms(&bytes, header.terms)
}

/// Reads and verifies the block-index section at the tail of a shard
/// file. This is the only part of a shard that open-time reads — 20
/// bytes per block — and the structure every later block read is
/// checked against.
pub fn read_block_index(
    path: &Path,
    meta: &ShardMeta,
    block_triples: u32,
) -> Result<BlockIndex, SegmentError> {
    let payload = meta.triples * TRIPLE_BYTES * RUN_ORDERS.len() as u64;
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(payload))?;
    let mut bytes = vec![0u8; index_bytes(meta.triples, block_triples) as usize];
    file.read_exact(&mut bytes).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid(format!("shard file '{}' is truncated", path.display()))
        } else {
            SegmentError::Io(e)
        }
    })?;
    if Checksum::of(&bytes) != meta.index_checksum {
        return Err(invalid(format!(
            "block index checksum mismatch in '{}' (corrupted save)",
            path.display()
        )));
    }
    let blocks = blocks_in_run(meta.triples, block_triples);
    let mut cur = Cursor::new(&bytes, "block index");
    let mut runs: [RunIndex; RUN_ORDERS.len()] = Default::default();
    for run in &mut runs {
        run.first_keys.reserve_exact(blocks);
        run.checksums.reserve_exact(blocks);
        for _ in 0..blocks {
            run.first_keys.push([cur.u32()?, cur.u32()?, cur.u32()?]);
            run.checksums.push(cur.u64()?);
        }
    }
    debug_assert!(cur.done());
    Ok(BlockIndex {
        triples: meta.triples,
        block_triples,
        runs,
    })
}

/// Decodes a block payload (contiguous little-endian id triples).
pub fn decode_triples(bytes: &[u8]) -> Vec<IdTriple> {
    debug_assert_eq!(bytes.len() % TRIPLE_BYTES as usize, 0);
    bytes
        .chunks_exact(TRIPLE_BYTES as usize)
        .map(|chunk| {
            [
                u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes")),
                u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes")),
            ]
        })
        .collect()
}

/// Reads and verifies one block of one run out of a shard file. `run`
/// indexes [`RUN_ORDERS`], `block` the run's block sequence.
pub fn read_block(
    path: &Path,
    run: usize,
    block: usize,
    index: &BlockIndex,
) -> Result<Vec<IdTriple>, SegmentError> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(index.block_offset(run, block)))?;
    let mut bytes = vec![0u8; index.block_len(block) * TRIPLE_BYTES as usize];
    file.read_exact(&mut bytes).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid(format!("shard file '{}' is truncated", path.display()))
        } else {
            SegmentError::Io(e)
        }
    })?;
    if Checksum::of(&bytes) != index.runs[run].checksums[block] {
        return Err(invalid(format!(
            "block checksum mismatch in '{}' (run {run}, block {block}; corrupted save)",
            path.display()
        )));
    }
    Ok(decode_triples(&bytes))
}

/// Reads one whole sorted run block by block, verifying every block
/// checksum — a convenience for tests and tools; the query path reads
/// individual blocks through the cache instead.
pub fn read_run(
    path: &Path,
    run: usize,
    index: &BlockIndex,
) -> Result<Vec<IdTriple>, SegmentError> {
    let mut out = Vec::with_capacity(index.triples as usize);
    for block in 0..index.blocks() {
        out.extend(read_block(path, run, block, index)?);
    }
    Ok(out)
}

// Term tags of the dictionary serialization.
const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_PLAIN: u8 = 2;
const TAG_TYPED: u8 = 3;
const TAG_LANG: u8 = 4;
const TAG_TYPED_LANG: u8 = 5;

/// Bytes the writer stages before it checksums and writes them.
const WRITE_BUFFER_BYTES: usize = 1 << 16;

/// Bytes of the shortest record: a tag and one length prefix.
const MIN_RECORD_BYTES: usize = 5;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Serializes one term: a one-byte tag followed by length-prefixed
/// UTF-8 fields.
fn put_term(buf: &mut Vec<u8>, term: TermRef<'_>) {
    let (tag, lexical) = match term {
        TermRef::Iri(iri) => (TAG_IRI, iri),
        TermRef::Blank(label) => (TAG_BLANK, label),
        TermRef::Literal(l) => match (l.datatype, l.language) {
            (None, None) => (TAG_PLAIN, l.lexical),
            (Some(_), None) => (TAG_TYPED, l.lexical),
            (None, Some(_)) => (TAG_LANG, l.lexical),
            (Some(_), Some(_)) => (TAG_TYPED_LANG, l.lexical),
        },
    };
    buf.push(tag);
    put_str(buf, lexical);
    if let TermRef::Literal(l) = term {
        for field in [l.datatype, l.language].into_iter().flatten() {
            put_str(buf, field);
        }
    }
}

/// Serializes every term in id order ([`put_term`]) — one pass over the
/// dictionary's arena.
pub fn encode_terms(dict: &Dictionary) -> Vec<u8> {
    let mut buf = Vec::new();
    for (_, term) in dict.iter() {
        put_term(&mut buf, term);
    }
    buf
}

/// Deserializes a dictionary section of `terms` terms (the root's
/// record) in one validating walk: each record's fields are checked to
/// be whole UTF-8 strings inside the section and interned straight from
/// the section's bytes, so ids come out in file order. The count is
/// bounded by the section's size before it sizes anything.
pub fn decode_terms(bytes: &[u8], terms: u64) -> Result<Dictionary, SegmentError> {
    let capacity = usize::try_from(terms)
        .ok()
        .filter(|n| *n <= bytes.len() / MIN_RECORD_BYTES)
        .ok_or_else(|| {
            invalid(format!(
                "dictionary is inconsistent: root records {terms} terms, more than {} bytes hold",
                bytes.len()
            ))
        })?;
    let mut cur = Cursor::new(bytes, "dictionary");
    let mut dict = Dictionary::with_capacity(capacity, bytes.len() - capacity * MIN_RECORD_BYTES);
    while !cur.done() {
        let tag = cur.take(1)?[0];
        let term = match tag {
            TAG_IRI => TermRef::Iri(cur.str()?),
            TAG_BLANK => TermRef::Blank(cur.str()?),
            TAG_PLAIN | TAG_TYPED | TAG_LANG | TAG_TYPED_LANG => {
                let lexical = cur.str()?;
                let mut field = |present: bool| present.then(|| cur.str()).transpose();
                TermRef::Literal(LiteralRef {
                    lexical,
                    datatype: field(matches!(tag, TAG_TYPED | TAG_TYPED_LANG))?,
                    language: field(matches!(tag, TAG_LANG | TAG_TYPED_LANG))?,
                })
            }
            other => {
                return Err(invalid(format!(
                    "dictionary holds an unknown term tag {other}"
                )));
            }
        };
        let next = dict.len() as u64;
        let id = dict.try_encode(term).map_err(|e| invalid(e.to_string()))?;
        if id as u64 != next {
            return Err(invalid("dictionary holds a duplicate term"));
        }
    }
    if dict.len() as u64 != terms {
        return Err(invalid(format!(
            "dictionary is inconsistent: root records {terms} terms, section decodes {}",
            dict.len()
        )));
    }
    Ok(dict)
}

/// A bounds-checked little-endian reader over a byte section — the one
/// every decoder of the format reads through.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            what,
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(invalid(format!(
                "truncated {} (needed {n} bytes at offset {})",
                self.what, self.pos
            ))),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SegmentError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SegmentError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length-prefixed string, borrowed from the section.
    fn str(&mut self) -> Result<&'a str, SegmentError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        std::str::from_utf8(self.take(len)?).map_err(|_| {
            invalid(format!(
                "{} holds a field that is not UTF-8 text (at offset {at})",
                self.what
            ))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sp2b_rdf::{Iri, Literal, Term};

    /// A self-cleaning temp directory for segment tests.
    pub(crate) struct TempDir(pub std::path::PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "sp2b-seg-{}-{}-{}",
                std::process::id(),
                tag,
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn corpus() -> Vec<Term> {
        let mut lang = Literal::plain("grüße");
        lang.language = Some("de".into());
        let mut typed_lang = Literal::typed("両方", Iri::new("http://x/dt"));
        typed_lang.language = Some("ja".into());
        vec![
            Term::iri("http://example.org/article/1"),
            Term::blank("Jürgen_Müller"),
            Term::Literal(Literal::plain("plain ascii")),
            Term::Literal(Literal::plain("naïve café — 数据库 🦀")),
            Term::Literal(Literal::string("Journal 1 (1940)")),
            Term::Literal(Literal::integer(-42)),
            Term::Literal(lang),
            Term::Literal(typed_lang),
            Term::iri("http://example.org/ölpreis"),
        ]
    }

    #[test]
    fn dictionary_codec_roundtrips_including_non_ascii() {
        let mut dict = Dictionary::new();
        for t in corpus() {
            dict.encode(&t);
        }
        let bytes = encode_terms(&dict);
        let back = decode_terms(&bytes, dict.len() as u64).expect("decode");
        assert_eq!(back.len(), dict.len());
        for ((id, term), owned) in dict.iter().zip(corpus()) {
            assert_eq!(term, owned.as_ref(), "term {id} is what was interned");
            assert_eq!(back.decode(id), term, "term {id} survives the roundtrip");
            assert_eq!(back.lookup(term), Some(id), "id {id} is reproduced");
        }
        // The root's count is part of the section's contract.
        for wrong in [dict.len() as u64 - 1, dict.len() as u64 + 1, u64::MAX] {
            let err = decode_terms(&bytes, wrong).unwrap_err();
            assert!(err.to_string().contains("inconsistent"), "{err}");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let mut dict = Dictionary::new();
        for t in corpus() {
            dict.encode(&t);
        }
        let bytes = encode_terms(&dict);
        let terms = dict.len() as u64;
        let err = decode_terms(&bytes[..bytes.len() - 3], terms).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        let mut bad = bytes.clone();
        bad[0] = 250;
        let err = decode_terms(&bad, terms).unwrap_err();
        assert!(err.to_string().contains("unknown term tag"), "{err}");
    }

    /// One serialized record: a tag and its length-prefixed fields.
    fn record(tag: u8, fields: &[(u32, &[u8])]) -> Vec<u8> {
        let mut buf = vec![tag];
        for (len, bytes) in fields {
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        buf
    }

    #[test]
    fn decode_rejects_overlong_prefixes_split_characters_and_duplicates() {
        // A length prefix that runs past the section — by a byte, and by
        // as much as a `u32` can claim.
        for claimed in [4, u32::MAX] {
            let err = decode_terms(&record(TAG_IRI, &[(claimed, b"abc")]), 1).unwrap_err();
            assert!(err.to_string().contains("truncated dictionary"), "{err}");
        }
        // "é" is two bytes: prefixes of 1 + 2 put the lexical/datatype
        // boundary inside it, though the record as a whole is UTF-8.
        let whole = record(TAG_TYPED, &[(2, "é".as_bytes()), (1, b"x")]);
        assert_eq!(decode_terms(&whole, 1).expect("well-formed").len(), 1);
        let e = "é".as_bytes();
        let split = record(TAG_TYPED, &[(1, &e[..1]), (2, &[e[1], b'x'])]);
        assert_eq!(split.len(), whole.len());
        let err = decode_terms(&split, 1).unwrap_err();
        assert!(err.to_string().contains("not UTF-8"), "{err}");
        // The same term twice.
        let twice = [whole.clone(), whole].concat();
        let err = decode_terms(&twice, 2).unwrap_err();
        assert_eq!(err.to_string(), "dictionary holds a duplicate term");
    }

    fn demo_store() -> (Dictionary, Vec<Vec<IdTriple>>) {
        let mut dict = Dictionary::new();
        for t in corpus() {
            dict.encode(&t);
        }
        let n = dict.len() as u32;
        let mut buckets = vec![Vec::new(), Vec::new()];
        for i in 0..40u32 {
            let t = [i % n, (i * 7) % n, (i * 13) % n];
            buckets[ShardBy::Subject.shard_of(&t, 2)].push(t);
        }
        (dict, buckets)
    }

    #[test]
    fn header_and_dictionary_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let (dict, buckets) = demo_store();
        let total: usize = buckets.iter().map(Vec::len).sum();
        let stats = write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        assert_eq!(stats.triples as usize, total);
        assert_eq!(stats.terms as usize, dict.len());

        let header = read_header(tmp.path()).expect("header");
        assert_eq!(header.shard_by, ShardBy::Subject);
        assert_eq!(header.triples as usize, total);
        assert_eq!(header.shards.len(), 2);
        let back = read_dictionary(tmp.path(), &header).expect("dict");
        assert_eq!(back.len(), dict.len());
        for (id, term) in dict.iter() {
            assert_eq!(back.decode(id), term);
        }
    }

    #[test]
    fn runs_are_sorted_and_checksummed() {
        let tmp = TempDir::new("runs");
        let (dict, buckets) = demo_store();
        let expected = buckets.clone();
        // A 7-triple block size forces several blocks per run, with a
        // short tail block, out of the 40-triple demo store.
        write_segments_with(tmp.path(), &dict, ShardBy::Subject, buckets, 7).expect("write");
        let header = read_header(tmp.path()).expect("header");
        assert_eq!(header.block_triples, 7);
        for (i, meta) in header.shards.iter().enumerate() {
            let path = tmp.path().join(shard_file_name(i));
            let index = read_block_index(&path, meta, header.block_triples).expect("index");
            assert_eq!(index.blocks(), blocks_in_run(meta.triples, 7));
            for (slot, order) in RUN_ORDERS.iter().enumerate() {
                let run = read_run(&path, slot, &index).expect("run");
                assert!(
                    run.windows(2).all(|w| order.key(&w[0]) <= order.key(&w[1])),
                    "shard {i} run {order:?} is sorted"
                );
                let mut expect = expected[i].clone();
                expect.sort_unstable_by_key(|t| order.key(t));
                assert_eq!(run, expect, "shard {i} run {order:?} holds the bucket");
                // The index records each block's first key, and each
                // block reads back as the matching slice of the run.
                for block in 0..index.blocks() {
                    let start = block * index.block_triples as usize;
                    let triples = read_block(&path, slot, block, &index).expect("block");
                    assert_eq!(index.block_len(block), triples.len());
                    assert_eq!(triples, expect[start..start + triples.len()]);
                    assert_eq!(
                        index.runs[slot].first_keys[block],
                        order.key(&expect[start]),
                        "shard {i} run {order:?} block {block} first key"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_blocks_bracket_key_ranges() {
        let mut index = BlockIndex {
            triples: 9,
            block_triples: 3,
            runs: Default::default(),
        };
        index.runs[0] = RunIndex {
            first_keys: vec![[1, 0, 0], [4, 2, 0], [4, 9, 0]],
            checksums: vec![0; 3],
        };
        // A key below everything, inside each block, and above everything.
        assert_eq!(
            index.candidate_blocks(0, [0, 0, 0], [0, u32::MAX, u32::MAX]),
            0..0
        );
        assert_eq!(
            index.candidate_blocks(0, [1, 0, 0], [1, u32::MAX, u32::MAX]),
            0..1
        );
        // Key 4 spans the boundary of blocks 1 and 2, and block 0 may
        // still reach into it (conservative left edge).
        assert_eq!(
            index.candidate_blocks(0, [4, 0, 0], [4, u32::MAX, u32::MAX]),
            0..3
        );
        assert_eq!(index.candidate_blocks(0, [4, 9, 0], [4, 9, u32::MAX]), 1..3);
        assert_eq!(
            index.candidate_blocks(0, [9, 0, 0], [9, u32::MAX, u32::MAX]),
            2..3
        );
        // The unbounded range covers every block.
        assert_eq!(index.candidate_blocks(0, [0, 0, 0], [u32::MAX; 3]), 0..3);
    }

    #[test]
    fn parallel_run_sorts_are_byte_identical_across_saves() {
        let (dict, buckets) = demo_store();
        let (a, b) = (TempDir::new("det-a"), TempDir::new("det-b"));
        write_segments(a.path(), &dict, ShardBy::Subject, buckets.clone()).expect("write a");
        write_segments(b.path(), &dict, ShardBy::Subject, buckets).expect("write b");
        for i in 0..2 {
            let fa = fs::read(a.path().join(shard_file_name(i))).unwrap();
            let fb = fs::read(b.path().join(shard_file_name(i))).unwrap();
            assert_eq!(fa, fb, "shard {i} files are byte-identical");
        }
        assert_eq!(
            fs::read(a.path().join(ROOT_FILE)).unwrap(),
            fs::read(b.path().join(ROOT_FILE)).unwrap()
        );
    }

    #[test]
    fn saved_bytes_match_the_golden_checksums() {
        // Constants computed by this test at the commit before the
        // block-at-a-time writer and the arena dictionary: the format
        // did not move. Seven-triple blocks give each run of the
        // 40-triple demo store several blocks and a short tail.
        let tmp = TempDir::new("golden");
        let (dict, buckets) = demo_store();
        write_segments_with(tmp.path(), &dict, ShardBy::Subject, buckets, 7).expect("write");
        let digest = |name: &str| Checksum::of(&fs::read(tmp.path().join(name)).unwrap());
        for (name, golden) in [
            (DICT_FILE.to_owned(), 0x3f4f_c727_5324_b223u64),
            (STATS_FILE.to_owned(), 0xe6a2_8a40_8983_4eed),
            (shard_file_name(0), 0x0880_5ae3_cb2d_55fb),
            (shard_file_name(1), 0xd7d8_df93_bdb4_38b7),
            (ROOT_FILE.to_owned(), 0x4e4b_4b8d_da12_2380),
        ] {
            assert_eq!(digest(&name), golden, "{name}: {:#018x}", digest(&name));
        }
    }

    #[test]
    fn corrupted_block_payload_is_caught_by_its_block_checksum() {
        let tmp = TempDir::new("block-corrupt");
        let (dict, buckets) = demo_store();
        write_segments_with(tmp.path(), &dict, ShardBy::Subject, buckets, 7).expect("write");
        let header = read_header(tmp.path()).expect("header");
        let path = tmp.path().join(shard_file_name(0));
        let index = read_block_index(&path, &header.shards[0], 7).expect("index");
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte in run 1, block 1 — only that block must fail.
        let victim = index.block_offset(1, 1) as usize;
        bytes[victim] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(read_block(&path, 1, 0, &index).is_ok());
        assert!(read_block(&path, 0, 1, &index).is_ok());
        let err = read_block(&path, 1, 1, &index).unwrap_err();
        assert!(err.to_string().contains("block checksum mismatch"), "{err}");
    }

    #[test]
    fn stats_section_roundtrips_per_shard() {
        let tmp = TempDir::new("stats");
        let (dict, buckets) = demo_store();
        let expected: Vec<StoreStats> = buckets
            .iter()
            .map(|b| StoreStats::from_triples(b))
            .collect();
        write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        let header = read_header(tmp.path()).expect("header");
        let stats = read_stats(tmp.path(), &header).expect("stats");
        assert_eq!(stats, expected);
    }

    #[test]
    fn corrupted_stats_section_is_rejected() {
        let tmp = TempDir::new("stats-corrupt");
        let (dict, buckets) = demo_store();
        write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        let header = read_header(tmp.path()).expect("header");
        let path = tmp.path().join(STATS_FILE);
        let good = fs::read(&path).unwrap();

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        let err = read_stats(tmp.path(), &header).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        fs::write(&path, &good[..good.len() - 3]).unwrap();
        let err = read_stats(tmp.path(), &header).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        fs::remove_file(&path).unwrap();
        let err = read_stats(tmp.path(), &header).unwrap_err();
        assert!(err.to_string().contains("missing statistics"), "{err}");
    }

    #[test]
    fn corrupted_dictionary_reports_checksum_not_garbage() {
        let tmp = TempDir::new("dict-corrupt");
        let (dict, buckets) = demo_store();
        write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        // Flip one byte inside a term's UTF-8 payload: without the
        // checksum this could silently decode to a different term.
        let path = tmp.path().join(DICT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let header = read_header(tmp.path()).expect("root is untouched");
        let err = read_dictionary(tmp.path(), &header).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // A file of the wrong size is refused by its size alone.
        bytes.extend_from_slice(&[0; 64]);
        fs::write(&path, &bytes).unwrap();
        let err = read_dictionary(tmp.path(), &header).unwrap_err();
        assert!(
            err.to_string().contains("dictionary section is truncated"),
            "{err}"
        );
        fs::remove_file(&path).unwrap();
        let err = read_dictionary(tmp.path(), &header).unwrap_err();
        assert!(err.to_string().contains("missing dictionary"), "{err}");
    }

    #[test]
    fn corrupted_or_truncated_root_is_rejected() {
        let tmp = TempDir::new("root-corrupt");
        let (dict, buckets) = demo_store();
        write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        let path = tmp.path().join(ROOT_FILE);
        let good = fs::read(&path).unwrap();

        let mut flipped = good.clone();
        flipped[12] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        let err = read_header(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        fs::write(&path, &good[..good.len() - 5]).unwrap();
        let err = read_header(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        fs::write(&path, b"short").unwrap();
        let err = read_header(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        // Re-stamp the trailer so only the magic is wrong.
        let body_len = bad_magic.len() - 8;
        let cks = Checksum::of(&bad_magic[..body_len]);
        bad_magic[body_len..].copy_from_slice(&cks.to_le_bytes());
        fs::write(&path, &bad_magic).unwrap();
        let err = read_header(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn older_roots_are_rejected_with_a_resave_hint() {
        let tmp = TempDir::new("version-skew");
        let (dict, buckets) = demo_store();
        write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        let path = tmp.path().join(ROOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Stamp an earlier format version (2: no blocks; 3: no POS run;
        // 4: byte-serial checksums) into an otherwise valid root (version sits right after the
        // 8-byte magic), re-sign the trailer, and open: the reader must
        // refuse with the one-line skew message, not a checksum
        // complaint or a misread.
        for old in [2u32, 3, 4] {
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let body_len = bytes.len() - 8;
            let cks = Checksum::of(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&cks.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = read_header(tmp.path()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("segment version {old}, expected 5 — re-run `sp2b save`")
            );
        }
    }

    #[test]
    fn missing_directory_and_missing_root_have_clear_errors() {
        let err = read_header(Path::new("/nonexistent/sp2b-segments")).unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
        let tmp = TempDir::new("empty");
        let err = read_header(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("no segment root"), "{err}");
        assert!(err.to_string().contains("sp2b save"), "{err}");
    }

    #[test]
    fn truncated_shard_file_is_rejected() {
        let tmp = TempDir::new("run-truncated");
        let (dict, buckets) = demo_store();
        write_segments(tmp.path(), &dict, ShardBy::Subject, buckets).expect("write");
        let header = read_header(tmp.path()).expect("header");
        let path = tmp.path().join(shard_file_name(0));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let meta = &header.shards[0];
        // The trailing block index no longer has all its bytes.
        let err = read_block_index(&path, meta, header.block_triples).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    /// Seeded bytes for the checksum tests.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn checksum_streams_to_the_one_shot_digest_at_every_split() {
        // Lengths around the word and the lane-round sizes, tails that
        // are not a multiple of 8 included; two- and three-way splits at
        // every point, and the writer's 12-byte feed.
        for len in [0, 1, 7, 8, 9, 12, 31, 32, 33, 63, 64, 65, 100, 131] {
            let bytes = noise(len);
            let whole = Checksum::of(&bytes);
            for at in 0..=len {
                let mut two = Checksum::new();
                two.update(&bytes[..at]);
                two.update(&bytes[at..]);
                assert_eq!(two.finish(), whole, "len {len} split at {at}");
                let mid = at + (len - at) / 2;
                let mut three = Checksum::new();
                three.update(&bytes[..at]);
                three.update(&bytes[at..mid]);
                three.update(&bytes[mid..]);
                assert_eq!(three.finish(), whole, "len {len} split at {at},{mid}");
            }
            let mut per_triple = Checksum::new();
            for chunk in bytes.chunks(TRIPLE_BYTES as usize) {
                per_triple.update(chunk);
            }
            assert_eq!(per_triple.finish(), whole, "len {len} fed per triple");
        }
        // A length extension by zeros is not the same input.
        assert_ne!(Checksum::of(&[0; 7]), Checksum::of(&[0; 8]));
        assert_ne!(Checksum::of(b""), Checksum::of(&[0]));
    }

    #[test]
    fn checksum_detects_any_single_flipped_byte_of_a_block() {
        // A full block and a short last block with a ragged tail.
        for len in [
            DEFAULT_BLOCK_TRIPLES as usize * TRIPLE_BYTES as usize,
            12 * 37 + 5,
        ] {
            let good = noise(len);
            let digest = Checksum::of(&good);
            let mut bad = good.clone();
            for i in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    bad[i] ^= flip;
                    assert_ne!(Checksum::of(&bad), digest, "byte {i} ^ {flip:#x}");
                    bad[i] ^= flip;
                }
            }
        }
    }
}
