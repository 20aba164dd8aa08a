//! The sharded triple store: one logical [`TripleStore`] over N
//! hash-partitioned shards.
//!
//! At the top of the paper's scalability range (documents up to 25M
//! triples) a single store serializes exactly the phases the paper
//! times — parsing/loading, index construction, and full-document
//! scans. [`ShardedStore`] partitions the *store*: every triple is
//! routed by a hash of its partition key ([`ShardBy`]) to one of N
//! independent shard stores, so
//!
//! * **loading and index build fan out** — each shard sorts its own
//!   runs on its own thread (see
//!   [`ShardedStore::from_graph`] and the streaming channel loader in
//!   [`crate::load::sharded_store_from_reader`]);
//! * **scans parallelize across shards** — [`TripleStore::scan_chunks`]
//!   returns the concatenation of per-shard chunk lists, so the
//!   morsel-driven exchange upstream spreads workers over shards with
//!   zero evaluator changes;
//! * **point lookups route** — a pattern that binds the partition key
//!   touches exactly one shard ([`ShardedStore::route`]).
//!
//! ## Dictionary: shared, not per-shard
//!
//! All shards sit behind **one shared [`Dictionary`]** owned by the
//! `ShardedStore`; the shard stores carry empty dictionaries and operate
//! purely on ids. The alternative — per-shard dictionaries with a global
//! remap — would parallelize term interning too, but every cross-shard
//! operation (plan binding, join keys, result decoding, the exchange
//! merge) would then need an id translation layer, and the remap pass
//! itself is a serial barrier of the same order as interning. Interning
//! is a hash insert per term while index build is a sort per shard, so
//! the shared dictionary keeps the cheap part serial and fans out the
//! expensive part — and ids stay identical to an unsharded load of the
//! same document (first-seen order), which is what makes sharded and
//! unsharded stores directly comparable in tests.
//!
//! Scan order is deterministic: shard 0's triples first, then shard 1's,
//! …, each in its shard's store order. That order differs from an
//! unsharded store's (partitioning permutes the document), but it is
//! stable for a given (document, shard count, partition key), and
//! `scan_chunks` concatenates to exactly this order — the contract the
//! exchange merge relies on.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sp2b_rdf::{Graph, Triple};

use crate::dictionary::{Dictionary, Id, IdTriple};
use crate::mem::MemStore;
use crate::native::{IndexSelection, NativeStore};
use crate::stats::StoreStats;
use crate::traits::{CacheStats, Pattern, ScanChunk, TripleStore};

/// The partition key of a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardBy {
    /// Hash the subject id. Point lookups with a bound subject route to
    /// one shard; SP²Bench subjects (articles, people, …) are numerous
    /// and near-uniform under the hash, so shards balance well.
    Subject,
    /// Hash (predicate, subject) — the PSO-flavoured key. Spreads the
    /// triples of one hot subject across shards (per-predicate), at the
    /// cost of routing only patterns that bind *both* positions.
    PredicateSubject,
}

impl ShardBy {
    /// The CLI spelling (`--shard-by subject|pso`).
    pub fn label(self) -> &'static str {
        match self {
            ShardBy::Subject => "subject",
            ShardBy::PredicateSubject => "pso",
        }
    }

    /// Parses a CLI label.
    pub fn from_label(s: &str) -> Option<ShardBy> {
        match s {
            "subject" => Some(ShardBy::Subject),
            "pso" => Some(ShardBy::PredicateSubject),
            _ => None,
        }
    }

    /// The shard owning an encoded triple, among `n` shards.
    #[inline]
    pub fn shard_of(self, triple: &IdTriple, n: usize) -> usize {
        (self.key_hash(triple[0], triple[1]) % n as u64) as usize
    }

    #[inline]
    fn key_hash(self, s: Id, p: Id) -> u64 {
        match self {
            ShardBy::Subject => mix64(s as u64),
            ShardBy::PredicateSubject => mix64(((p as u64) << 32) | s as u64),
        }
    }
}

impl std::fmt::Display for ShardBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// SplitMix64 finalizer: dictionary ids are dense small integers, so the
/// partition hash needs strong avalanche to spread consecutive ids over
/// shards (a modulo alone would stripe, not shard).
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What each shard is built as — the same two design points as the
/// unsharded stores. (Disk shards are never *built* from buckets: they
/// are written by `sp2b save` and reopened by [`crate::disk::open_store`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackend {
    /// Hash-indexed [`MemStore`] shards (posting lists, no sorting).
    Mem,
    /// Index-backed [`NativeStore`] shards: each shard sorts its own
    /// runs, which is the part of loading that fans out.
    Native(IndexSelection),
}

impl ShardBackend {
    /// Short backend name for loading reports.
    pub fn label(self) -> &'static str {
        match self {
            ShardBackend::Mem => "mem",
            ShardBackend::Native(_) => "native",
        }
    }
}

/// One logical store over N hash-partitioned shard stores sharing one
/// dictionary. See the module docs for the design; it implements
/// [`TripleStore`], so `into_shared()`, the `QueryEngine`, the exchange
/// and the HTTP server all work over it unchanged.
pub struct ShardedStore {
    dict: Dictionary,
    shard_by: ShardBy,
    shards: Vec<Box<dyn TripleStore>>,
    /// Wall time each shard spent building (index sort / posting-list
    /// inserts), for the per-shard loading report.
    build_times: Vec<Duration>,
    len: usize,
    /// Lazily merged per-shard statistics.
    stats: OnceLock<StoreStats>,
}

impl ShardedStore {
    /// Builds a sharded store from a graph: terms are interned into the
    /// shared dictionary in document order (ids identical to an
    /// unsharded load), triples are routed to per-shard buckets, and the
    /// shard stores build **in parallel** on scoped threads.
    pub fn from_graph(
        graph: &Graph,
        shards: usize,
        shard_by: ShardBy,
        backend: ShardBackend,
    ) -> ShardedStore {
        let (dict, buckets) = route_graph(graph, shards, shard_by);
        let built: Vec<(Box<dyn TripleStore>, Duration)> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| s.spawn(move || build_shard(backend, std::iter::once(bucket))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build thread panicked"))
                .collect()
        });
        Self::assemble(dict, shard_by, built)
    }

    /// Assembles the logical store from built shards.
    pub(crate) fn assemble(
        dict: Dictionary,
        shard_by: ShardBy,
        built: Vec<(Box<dyn TripleStore>, Duration)>,
    ) -> ShardedStore {
        let (shards, build_times): (Vec<_>, Vec<_>) = built.into_iter().unzip();
        let len = shards.iter().map(|s| s.len()).sum();
        ShardedStore {
            dict,
            shard_by,
            shards,
            build_times,
            len,
            stats: OnceLock::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partition key.
    pub fn shard_by(&self) -> ShardBy {
        self.shard_by
    }

    /// Triple count per shard, in shard order (the balance report).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Per-shard build wall time (index sort / inserts), in shard order.
    pub fn shard_build_times(&self) -> &[Duration] {
        &self.build_times
    }

    /// The single shard a pattern resolves to, when it binds the whole
    /// partition key — `None` means the scan must visit every shard.
    fn route(&self, pattern: &Pattern) -> Option<usize> {
        let n = self.shards.len();
        match self.shard_by {
            ShardBy::Subject => {
                pattern[0].map(|s| (self.shard_by.key_hash(s, 0) % n as u64) as usize)
            }
            ShardBy::PredicateSubject => match (pattern[0], pattern[1]) {
                (Some(s), Some(p)) => Some((self.shard_by.key_hash(s, p) % n as u64) as usize),
                _ => None,
            },
        }
    }
}

/// Interns `triples` into a fresh dictionary in document order (ids
/// identical to an unsharded load) and routes each encoded triple by
/// `shard_by` into one of `shards` buckets. The first source error
/// aborts the routing.
pub(crate) fn route<T: Borrow<Triple>, E>(
    triples: impl IntoIterator<Item = Result<T, E>>,
    shards: usize,
    shard_by: ShardBy,
) -> Result<(Dictionary, Vec<Vec<IdTriple>>), E> {
    let n = shards.max(1);
    let mut dict = Dictionary::new();
    let mut buckets = vec![Vec::new(); n];
    for t in triples {
        let enc = dict.encode_triple(t?.borrow());
        buckets[shard_by.shard_of(&enc, n)].push(enc);
    }
    Ok((dict, buckets))
}

/// [`route`] over an in-memory graph, which cannot fail.
pub(crate) fn route_graph(
    graph: &Graph,
    shards: usize,
    shard_by: ShardBy,
) -> (Dictionary, Vec<Vec<IdTriple>>) {
    let routed = route(graph.iter().map(Ok::<_, Infallible>), shards, shard_by);
    routed.unwrap_or_else(|e| match e {})
}

/// Builds one shard store from the batches of its bucket, as they
/// arrive. The reported duration is the shard's *busy* build time —
/// batch inserts for mem shards, the run sort for native shards — not
/// time spent waiting for the next batch.
pub(crate) fn build_shard(
    backend: ShardBackend,
    mut batches: impl Iterator<Item = Vec<IdTriple>>,
) -> (Box<dyn TripleStore>, Duration) {
    match backend {
        ShardBackend::Mem => {
            let mut store = MemStore::new();
            let mut busy = Duration::ZERO;
            for batch in batches {
                let t0 = Instant::now();
                for t in batch {
                    store.insert_encoded(t);
                }
                busy += t0.elapsed();
            }
            (Box::new(store), busy)
        }
        ShardBackend::Native(selection) => {
            // Grow the first batch in place: a whole bucket arrives as one.
            let mut triples = batches.next().unwrap_or_default();
            triples.extend(batches.flatten());
            let t0 = Instant::now();
            // The shard's own dictionary stays empty: ids live in the
            // shared dictionary the ShardedStore owns.
            let store = NativeStore::from_encoded(Dictionary::new(), triples, selection);
            (Box::new(store), t0.elapsed())
        }
    }
}

impl TripleStore for ShardedStore {
    fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    fn len(&self) -> usize {
        self.len
    }

    fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        match self.route(&pattern) {
            Some(shard) => self.shards[shard].scan(pattern),
            None => Box::new(self.shards.iter().flat_map(move |s| s.scan(pattern))),
        }
    }

    /// Per-shard chunk lists, concatenated in shard order — so the
    /// chunks' concatenation equals [`ShardedStore::scan`]'s order, and a
    /// morsel driver naturally spreads workers across shards. The `n`
    /// budget is apportioned over shards by their estimates (largest
    /// remainder, deterministic); every shard is asked for at least one
    /// chunk so coverage never depends on estimate quality, which can
    /// push the chunk count slightly past `n` (at most one extra chunk
    /// per shard).
    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
        if let Some(shard) = self.route(&pattern) {
            return self.shards[shard].scan_chunks(pattern, n);
        }
        let n = n.max(1);
        let ests: Vec<u64> = self.shards.iter().map(|s| s.estimate(pattern)).collect();
        let total: u128 = ests.iter().map(|&e| e as u128).sum();
        let shares: Vec<usize> = if total == 0 {
            vec![1; self.shards.len()]
        } else {
            apportion(n, &ests, total)
        };
        let mut out = Vec::new();
        for (shard, share) in self.shards.iter().zip(shares) {
            out.extend(shard.scan_chunks(pattern, share.max(1)));
        }
        out
    }

    /// Shard-aware estimate: routed patterns ask their one shard;
    /// everything else sums across shards. The sum of exact per-shard
    /// counts is exact, so the optimizer's cost model sees the same
    /// numbers as over an unsharded store.
    fn estimate(&self, pattern: Pattern) -> u64 {
        match self.route(&pattern) {
            Some(shard) => self.shards[shard].estimate(pattern),
            None => self.shards.iter().map(|s| s.estimate(pattern)).sum(),
        }
    }

    /// Per-shard summaries merged once, lazily — stats sum across shards
    /// exactly like estimates do (see [`StoreStats::merge`] for which
    /// merged counts stay exact under which partition key).
    fn stats(&self) -> &StoreStats {
        self.stats.get_or_init(|| {
            let mut merged = StoreStats::default();
            for shard in &self.shards {
                merged.merge(shard.stats());
            }
            merged
        })
    }

    /// Disk shards share one store-wide block cache, so the first
    /// shard that has one answers for all of them (summing would count
    /// the same cache once per shard).
    fn cache_stats(&self) -> Option<CacheStats> {
        self.shards.iter().find_map(|s| s.cache_stats())
    }

    fn fault(&self) -> Option<&str> {
        self.shards.iter().find_map(|s| s.fault())
    }

    fn contains(&self, pattern: Pattern) -> bool {
        match self.route(&pattern) {
            Some(shard) => self.shards[shard].contains(pattern),
            None => self.shards.iter().any(|s| s.contains(pattern)),
        }
    }
}

/// Largest-remainder apportionment of `n` chunks over shards by
/// estimate. Deterministic: quotas floor, the leftover goes to the
/// largest remainders (ties to the lower shard index).
fn apportion(n: usize, ests: &[u64], total: u128) -> Vec<usize> {
    let mut shares: Vec<usize> = ests
        .iter()
        .map(|&e| ((n as u128 * e as u128) / total) as usize)
        .collect();
    let assigned: usize = shares.iter().sum();
    let mut by_remainder: Vec<usize> = (0..ests.len()).collect();
    by_remainder.sort_by_key(|&i| (std::cmp::Reverse((n as u128 * ests[i] as u128) % total), i));
    for &i in by_remainder.iter().take(n.saturating_sub(assigned)) {
        shares[i] += 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2b_rdf::{Iri, Subject, Term};

    fn graph(n: usize) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add(
                Subject::iri(format!("http://x/s{}", i % 37)),
                Iri::new(format!("http://x/p{}", i % 5)),
                Term::iri(format!("http://x/o{}", i % 11)),
            );
        }
        g
    }

    fn decoded(store: &dyn TripleStore, pattern: Pattern) -> Vec<String> {
        let mut v: Vec<String> = store
            .scan(pattern)
            .map(|t| {
                format!(
                    "{} {} {}",
                    store.dictionary().decode(t[0]),
                    store.dictionary().decode(t[1]),
                    store.dictionary().decode(t[2])
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn sharded_scans_agree_with_unsharded_for_all_access_patterns() {
        let g = graph(200);
        let flat = NativeStore::from_graph(&g);
        for shard_by in [ShardBy::Subject, ShardBy::PredicateSubject] {
            for shards in [1, 2, 3, 8] {
                let sharded = ShardedStore::from_graph(
                    &g,
                    shards,
                    shard_by,
                    ShardBackend::Native(IndexSelection::all()),
                );
                assert_eq!(sharded.len(), flat.len());
                let s1 = sharded.resolve(&Term::iri("http://x/s1"));
                let p2 = sharded.resolve(&Term::iri("http://x/p2"));
                let o3 = sharded.resolve(&Term::iri("http://x/o3"));
                for pattern in [
                    [None, None, None],
                    [s1, None, None],
                    [None, p2, None],
                    [None, None, o3],
                    [s1, p2, None],
                    [s1, p2, o3],
                    [None, p2, o3],
                ] {
                    // Ids are identical (shared dictionary interned in
                    // document order), so raw patterns transfer.
                    assert_eq!(
                        decoded(&sharded, pattern),
                        decoded(&flat, pattern),
                        "{shard_by} × {shards} shards, pattern {pattern:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mem_backend_agrees_too() {
        let g = graph(120);
        let flat = MemStore::from_graph(&g);
        let sharded = ShardedStore::from_graph(&g, 4, ShardBy::Subject, ShardBackend::Mem);
        assert_eq!(sharded.len(), flat.len());
        let p0 = sharded.resolve(&Term::iri("http://x/p0"));
        for pattern in [[None, None, None], [None, p0, None]] {
            assert_eq!(decoded(&sharded, pattern), decoded(&flat, pattern));
        }
    }

    #[test]
    fn scan_chunks_concatenate_to_scan_order() {
        let g = graph(300);
        let s = ShardedStore::from_graph(
            &g,
            4,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        let p1 = s.resolve(&Term::iri("http://x/p1"));
        let s1 = s.resolve(&Term::iri("http://x/s1"));
        for pattern in [[None, None, None], [None, p1, None], [s1, None, None]] {
            let sequential: Vec<IdTriple> = s.scan(pattern).collect();
            for n in [1, 2, 5, 16, 64] {
                let chunks = s.scan_chunks(pattern, n);
                let chunked: Vec<IdTriple> = chunks.iter().flat_map(|c| c.iter()).collect();
                assert_eq!(chunked, sequential, "pattern {pattern:?} n {n}");
                assert!(
                    chunks.len() <= n + s.shard_count(),
                    "chunk overshoot is bounded by one per shard"
                );
            }
        }
    }

    #[test]
    fn scan_chunks_are_deterministic() {
        let g = graph(300);
        let s = ShardedStore::from_graph(
            &g,
            3,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        let a: Vec<usize> = s
            .scan_chunks([None, None, None], 12)
            .iter()
            .map(|c| c.len())
            .collect();
        let b: Vec<usize> = s
            .scan_chunks([None, None, None], 12)
            .iter()
            .map(|c| c.len())
            .collect();
        assert_eq!(a, b, "same pattern and n must chunk identically");
    }

    #[test]
    fn bound_key_patterns_route_to_one_shard() {
        let g = graph(200);
        let s = ShardedStore::from_graph(
            &g,
            4,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        let sub = s.resolve(&Term::iri("http://x/s5")).unwrap();
        let shard = s.route(&[Some(sub), None, None]).expect("subject routes");
        // The owning shard answers the whole pattern…
        assert_eq!(
            s.shards[shard].scan([Some(sub), None, None]).count(),
            s.scan([Some(sub), None, None]).count()
        );
        // …and no other shard holds any of its triples.
        for (i, other) in s.shards.iter().enumerate() {
            if i != shard {
                assert_eq!(other.scan([Some(sub), None, None]).count(), 0);
            }
        }
        // PSO sharding routes only fully-bound keys.
        let pso = ShardedStore::from_graph(
            &g,
            4,
            ShardBy::PredicateSubject,
            ShardBackend::Native(IndexSelection::all()),
        );
        assert!(pso.route(&[Some(sub), None, None]).is_none());
        let p = pso.resolve(&Term::iri("http://x/p1")).unwrap();
        assert!(pso.route(&[Some(sub), Some(p), None]).is_some());
    }

    #[test]
    fn estimates_sum_across_shards_and_stay_exact() {
        let g = graph(250);
        let flat = NativeStore::from_graph(&g);
        let s = ShardedStore::from_graph(
            &g,
            4,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        let p1 = s.resolve(&Term::iri("http://x/p1"));
        for pattern in [[None, None, None], [None, p1, None]] {
            assert_eq!(s.estimate(pattern), flat.estimate(pattern));
            assert_eq!(s.estimate(pattern), s.scan(pattern).count() as u64);
        }
    }

    #[test]
    fn ids_match_the_unsharded_load_order() {
        // The shared dictionary interns in document order regardless of
        // the shard count, so ids — and with them bound plans — transfer
        // between sharded and unsharded stores of the same document.
        let g = graph(100);
        let flat = NativeStore::from_graph(&g);
        let sharded = ShardedStore::from_graph(
            &g,
            8,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        for term in [
            Term::iri("http://x/s3"),
            Term::iri("http://x/p4"),
            Term::iri("http://x/o9"),
        ] {
            assert_eq!(sharded.resolve(&term), flat.resolve(&term));
        }
        assert_eq!(sharded.dictionary().len(), flat.dictionary().len());
    }

    #[test]
    fn shard_metadata_is_reported() {
        let g = graph(200);
        let s = ShardedStore::from_graph(
            &g,
            4,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_build_times().len(), 4);
        assert_eq!(s.shard_lens().iter().sum::<usize>(), s.len());
        assert_eq!(s.shard_by(), ShardBy::Subject);
    }

    #[test]
    fn empty_and_single_shard_behave() {
        let s = ShardedStore::from_graph(
            &Graph::new(),
            4,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        );
        assert!(s.is_empty());
        assert!(s.scan_chunks([None, None, None], 8).is_empty());
        let g = graph(50);
        let one = ShardedStore::from_graph(&g, 1, ShardBy::Subject, ShardBackend::Mem);
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.len(), g.len());
    }

    #[test]
    fn apportion_is_proportional_and_complete() {
        assert_eq!(apportion(8, &[100, 100, 0], 200), vec![4, 4, 0]);
        let shares = apportion(7, &[5, 3, 2], 10);
        assert_eq!(shares.iter().sum::<usize>(), 7);
        assert!(
            shares[0] >= shares[1] && shares[1] >= shares[2],
            "{shares:?}"
        );
    }

    #[test]
    fn labels_roundtrip() {
        for by in [ShardBy::Subject, ShardBy::PredicateSubject] {
            assert_eq!(ShardBy::from_label(by.label()), Some(by));
        }
        assert_eq!(ShardBy::from_label("nope"), None);
    }
}
