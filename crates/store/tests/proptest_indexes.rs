//! Seeded model test of the stores: the native store's sorted runs
//! agree with the memory store's posting lists on every access pattern,
//! the native store's estimates are exact and the memory store's are
//! upper bounds, the dictionary round-trips, on every store the chunks
//! of `scan_chunks` concatenate to `scan`, and a range read from the
//! native runs' major-key directories is the binary-searched one.
//!
//! Each graph comes from a seed printed in every assertion message;
//! `SP2B_SEED=<n> cargo test -p sp2b-store --test proptest_indexes`
//! replays that one graph.

use std::path::{Path, PathBuf};

use sp2b_datagen::rng::SplitMix64;
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_store::run::{RunPlan, RUN_ORDERS};
use sp2b_store::segment::write_segments_with;
use sp2b_store::{
    open_store, sharded_store_from_reader, Dictionary, Id, IdTriple, IndexSelection, NativeStore,
    Pattern, ScanChunk, ShardBackend, ShardBy, ShardedStore, TripleStore,
};

const NATIVE: ShardBackend = ShardBackend::Native(IndexSelection::all());

/// `g` through the load route, as `shards` shards of `backend`.
fn load(g: &Graph, shards: usize, by: ShardBy, backend: ShardBackend) -> ShardedStore {
    sharded_store_from_reader(&g.to_ntriples()[..], shards, by, backend).expect("valid N-Triples")
}

/// `g` as one unsharded store of `backend`.
fn one(g: &Graph, backend: ShardBackend) -> ShardedStore {
    load(g, 1, ShardBy::Subject, backend)
}

/// Saves `g` by subject in 7-triple blocks: a run spans several blocks
/// even at this size, so chunks split block ranges and boundary blocks
/// are narrowed.
fn save_in_small_blocks(dir: &Path, g: &Graph, shards: usize) {
    let by = ShardBy::Subject;
    let mut dict = Dictionary::new();
    let mut buckets = vec![Vec::new(); shards];
    for t in g {
        let enc = dict.encode_triple(t);
        buckets[by.shard_of(&enc, shards)].push(enc);
    }
    write_segments_with(dir, &dict, by, buckets, 7).expect("save");
}

/// Graphs per property.
const CASES: u64 = 64;

/// The chunk budgets the coverage property asks for.
const BUDGETS: [usize; 4] = [1, 2, 3, 7];

/// One random graph and a triple of it whose terms the patterns bind.
struct Case {
    seed: u64,
    graph: Graph,
    probe: [Term; 3],
}

/// Every third object number is an integer literal, the rest are IRIs.
fn object(o: u64) -> Term {
    if o.is_multiple_of(3) {
        Term::Literal(Literal::integer(o as i64))
    } else {
        Term::iri(format!("http://x/o{o}"))
    }
}

/// 1–80 triples over subjects s0..s9, predicates p0..p4 and twelve
/// objects, probed at one of its own triples.
fn random_case(seed: u64) -> Case {
    let mut rng = SplitMix64::new(seed);
    let mut graph = Graph::new();
    let mut spo = Vec::new();
    for _ in 0..1 + rng.next_u64() % 80 {
        let (s, p, o) = (rng.next_u64() % 10, rng.next_u64() % 5, rng.next_u64() % 12);
        graph.add(
            Subject::iri(format!("http://x/s{s}")),
            Iri::new(format!("http://x/p{p}")),
            object(o),
        );
        spo.push((s, p, o));
    }
    let (s, p, o) = spo[(rng.next_u64() % spo.len() as u64) as usize];
    let probe = [
        Term::iri(format!("http://x/s{s}")),
        Term::iri(format!("http://x/p{p}")),
        object(o),
    ];
    Case { seed, graph, probe }
}

/// The seeds to run: every case, or the one `SP2B_SEED` names.
fn cases() -> impl Iterator<Item = Case> {
    let seeds: Vec<u64> = match std::env::var("SP2B_SEED") {
        Ok(seed) => vec![seed.parse().expect("SP2B_SEED is a number")],
        Err(_) => (0..CASES).collect(),
    };
    seeds.into_iter().map(random_case)
}

impl Case {
    /// All 8 bound/unbound combinations over the probe triple, as ids of
    /// `store` (every one matches at least the probe).
    fn patterns(&self, store: &dyn TripleStore) -> Vec<Pattern> {
        let ids = self.probe.each_ref().map(|t| store.resolve(t));
        (0..8)
            .map(|mask| std::array::from_fn(|i| ids[i].filter(|_| mask & (1 << i) != 0)))
            .collect()
    }
}

fn decode_sorted(store: &dyn TripleStore, pattern: Pattern) -> Vec<String> {
    let dict = store.dictionary();
    let mut rows: Vec<String> = store
        .scan(pattern)
        .map(|t| {
            format!(
                "{} {} {}",
                dict.decode(t[0]),
                dict.decode(t[1]),
                dict.decode(t[2])
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn native_agrees_with_mem_on_all_patterns() {
    for case in cases() {
        let mem = one(&case.graph, ShardBackend::Mem);
        let native = one(&case.graph, NATIVE);
        // Patterns are resolved per store but bind the same terms.
        for (mp, np) in case.patterns(&mem).into_iter().zip(case.patterns(&native)) {
            assert_eq!(
                decode_sorted(&mem, mp),
                decode_sorted(&native, np),
                "seed {}: pattern {np:?}",
                case.seed
            );
        }
    }
}

#[test]
fn native_estimates_are_exact() {
    for case in cases() {
        let native = one(&case.graph, NATIVE);
        for pattern in case.patterns(&native) {
            let exact = native.scan(pattern).count() as u64;
            assert_eq!(
                native.estimate(pattern),
                exact,
                "seed {}: pattern {pattern:?}",
                case.seed
            );
        }
    }
}

#[test]
fn spo_only_store_agrees_with_full_store() {
    for case in cases() {
        let full = one(&case.graph, NATIVE);
        let spo = one(
            &case.graph,
            ShardBackend::Native(IndexSelection::spo_only()),
        );
        for (fp, sp) in case.patterns(&full).into_iter().zip(case.patterns(&spo)) {
            assert_eq!(
                decode_sorted(&full, fp),
                decode_sorted(&spo, sp),
                "seed {}: pattern {fp:?}",
                case.seed
            );
        }
    }
}

#[test]
fn mem_estimates_are_upper_bounds() {
    for case in cases() {
        let mem = one(&case.graph, ShardBackend::Mem);
        for pattern in case.patterns(&mem) {
            let exact = mem.scan(pattern).count() as u64;
            assert!(
                mem.estimate(pattern) >= exact,
                "seed {}: pattern {pattern:?} estimated {} < {exact}",
                case.seed,
                mem.estimate(pattern)
            );
        }
    }
}

#[test]
fn dictionary_roundtrips_random_graphs() {
    for case in cases() {
        let native = one(&case.graph, NATIVE);
        let dict = native.dictionary();
        for (id, term) in dict.iter() {
            assert_eq!(dict.lookup(term), Some(id), "seed {}: {term}", case.seed);
        }
    }
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(seed: u64) -> TempDir {
        let name = format!("sp2b-store-model-{}-{seed}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir(&path).expect("create scratch dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `scan_chunks` contract on one store: for every budget `n`, the
/// chunks concatenate, in order, to the scan — nothing dropped, nothing
/// repeated, same order — and there are at most `n + extra` of them.
fn assert_chunks_cover(
    seed: u64,
    tag: &str,
    extra: usize,
    store: &dyn TripleStore,
    patterns: &[Pattern],
) {
    for &pattern in patterns {
        let scan: Vec<IdTriple> = store.scan(pattern).collect();
        for n in BUDGETS {
            let chunks = store.scan_chunks(pattern, n);
            assert!(
                chunks.len() <= n + extra,
                "seed {seed}: {tag}, pattern {pattern:?}: {} chunks for n {n}",
                chunks.len()
            );
            let chunked: Vec<IdTriple> = chunks.into_iter().flat_map(ScanChunk::iter).collect();
            assert_eq!(
                chunked, scan,
                "seed {seed}: {tag}, pattern {pattern:?}, n {n}: chunks must concatenate to the scan"
            );
        }
    }
}

#[test]
fn chunks_concatenate_to_the_scan_on_every_store() {
    let sharded = |g: &Graph, by| -> Box<dyn TripleStore> { Box::new(load(g, 3, by, NATIVE)) };
    for case in cases() {
        let g = &case.graph;
        let dir = TempDir::new(case.seed);
        save_in_small_blocks(dir.path(), g, 2);
        // (tag, store, extra chunks allowed: one per shard of a sharded store)
        let stores: Vec<(&str, Box<dyn TripleStore>, usize)> = vec![
            ("mem", Box::new(one(g, ShardBackend::Mem)), 0),
            ("native", Box::new(one(g, NATIVE)), 0),
            (
                "spo-only native",
                Box::new(one(g, ShardBackend::Native(IndexSelection::spo_only()))),
                0,
            ),
            ("3 shards by subject", sharded(g, ShardBy::Subject), 3),
            ("3 shards by pso", sharded(g, ShardBy::PredicateSubject), 3),
            (
                "disk, 2 shards",
                Box::new(open_store(dir.path()).expect("open")),
                2,
            ),
        ];
        for (tag, store, extra) in &stores {
            let patterns = case.patterns(store.as_ref());
            assert_chunks_cover(case.seed, tag, *extra, store.as_ref(), &patterns);
        }
    }
}

/// The native store reads a pattern's range from its runs' major-key
/// directories; the range must be the one a binary search over the
/// whole planned run finds — same triples, same residual — for every
/// mask over ids that occur, ids past every major key and random ones,
/// on a full and an SPO-only run table, unsharded and over 3 shards,
/// and on an empty store.
#[test]
fn the_directory_range_is_the_binary_search_range() {
    let empty = Case {
        seed: u64::MAX,
        graph: Graph::new(),
        probe: [
            Term::iri("http://x/s0"),
            Term::iri("http://x/p0"),
            object(1),
        ],
    };
    for case in cases().chain([empty]) {
        let seed = case.seed;
        let mut dict = Dictionary::new();
        let triples: Vec<IdTriple> = case.graph.iter().map(|t| dict.encode_triple(t)).collect();
        let past = dict.len() as Id + 3;
        let probe = case
            .probe
            .each_ref()
            .map(|t| dict.lookup(t).unwrap_or(past));
        let mut rng = SplitMix64::new(seed);
        let random = std::array::from_fn(|_| (rng.next_u64() % (u64::from(past) + 2)) as Id);
        for shards in [1, 3] {
            let mut buckets = vec![Vec::new(); shards];
            for t in &triples {
                buckets[ShardBy::Subject.shard_of(t, shards)].push(*t);
            }
            for selection in [IndexSelection::all(), IndexSelection::spo_only()] {
                let built = if selection == IndexSelection::all() {
                    RUN_ORDERS.len()
                } else {
                    1
                };
                for bucket in &buckets {
                    let store =
                        NativeStore::from_encoded(Dictionary::new(), bucket.clone(), selection);
                    for ids in [probe, [past; 3], random] {
                        for mask in 0..8 {
                            let pattern: Pattern =
                                std::array::from_fn(|i| (mask & (1 << i) != 0).then_some(ids[i]));
                            let plan = RunPlan::for_pattern(&pattern, built);
                            let mut run = bucket.clone();
                            run.sort_by_key(|t| RUN_ORDERS[plan.run].key(t));
                            let want = &run[plan.range_in(&run)];
                            let got: Vec<IdTriple> = store
                                .scan_chunks(pattern, 1)
                                .into_iter()
                                .flat_map(|chunk| match chunk {
                                    ScanChunk::Triples { triples, residual } => {
                                        assert_eq!(residual, plan.residual, "seed {seed}");
                                        triples.to_vec()
                                    }
                                    _ => panic!("a native store answers with triples"),
                                })
                                .collect();
                            assert_eq!(
                                got, want,
                                "seed {seed}: {shards} shard(s), {built} run(s), {pattern:?}"
                            );
                            if plan.residual.is_none() {
                                assert_eq!(store.estimate(pattern), want.len() as u64);
                            }
                        }
                    }
                }
            }
        }
    }
}
