//! The sorted-run table every index-backed store shares.
//!
//! A *run* is a bucket of id triples sorted by one permutation of
//! (s, p, o). Four orders — [`RUN_ORDERS`] — give every one of the eight
//! bound/unbound masks a run whose key starts with exactly the bound
//! positions, so any triple pattern resolves to one contiguous,
//! binary-searchable key range:
//!
//! ```text
//! s..  sp.  spo  ...  → SPO      .p.  → PSO      .po  → POS      ..o  s.o  → OSP
//! ```
//!
//! (SOP and OPS, the other two of the Hexastore six, are never the
//! first longest prefix for any mask, and no benchmark query selected
//! them while they existed.) [`RunPlan::for_pattern`] is the one place
//! that choice and the inclusive key bounds are derived; the two
//! *sources* of sorted triples — a resident run with its major-key
//! directory ([`crate::NativeStore`]) and block-cut runs behind a cache
//! ([`crate::DiskShardStore`]) — both narrow with
//! [`RunPlan::range_in`], the former inside the major key's group its
//! directory gives, the latter inside each candidate block its first-key
//! index selects.

use crate::dictionary::{Id, IdTriple};
use crate::traits::Pattern;

/// One sort order of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexOrder {
    /// subject, predicate, object.
    Spo,
    /// predicate, subject, object.
    Pso,
    /// predicate, object, subject.
    Pos,
    /// object, subject, predicate.
    Osp,
}

/// The runs a full store keeps, in slot order — also the file order of
/// a saved shard ([`crate::segment`]). A partial store
/// ([`crate::IndexSelection::spo_only`]) keeps a leading part of it.
pub const RUN_ORDERS: [IndexOrder; 4] = [
    IndexOrder::Spo,
    IndexOrder::Pso,
    IndexOrder::Pos,
    IndexOrder::Osp,
];

/// A triple's sort key under some order: its ids in (major, mid, minor)
/// position, compared lexicographically.
pub type Key = [Id; 3];

impl IndexOrder {
    /// The triple positions in key order: `perm[0]` is the major key.
    fn permutation(self) -> [usize; 3] {
        match self {
            IndexOrder::Spo => [0, 1, 2],
            IndexOrder::Pso => [1, 0, 2],
            IndexOrder::Pos => [1, 2, 0],
            IndexOrder::Osp => [2, 0, 1],
        }
    }

    /// The sort key of `t` under this order.
    #[inline]
    pub fn key(self, t: &IdTriple) -> Key {
        let perm = self.permutation();
        [t[perm[0]], t[perm[1]], t[perm[2]]]
    }
}

/// One sorted run and its major-key directory: `starts[k]..starts[k + 1]`
/// is the group of triples whose major key is id `k`, so a pattern
/// binding the major key finds its group in two loads and binary-searches
/// only inside it, and only when it binds a second position. An id past
/// the directory's end is the major key of no triple.
pub(crate) struct SortedRun {
    /// The triples, in this run's key order.
    pub(crate) triples: Vec<IdTriple>,
    /// Group starts by major key, plus the run's end: one entry more
    /// than the largest major key present (just `[0]` when empty).
    starts: Vec<u32>,
}

impl SortedRun {
    /// Sorts `bucket` by `order`: a counting sort on the major key, whose
    /// bucket offsets become the directory, then each group sorted by its
    /// (mid, minor) key. The result is the full-key order.
    fn sort(bucket: &[IdTriple], order: IndexOrder) -> SortedRun {
        let major = |t: &IdTriple| order.key(t)[0] as usize;
        assert!(
            u32::try_from(bucket.len()).is_ok(),
            "a run holds fewer than 2^32 triples"
        );
        let groups = bucket.iter().map(|t| major(t) + 1).max().unwrap_or(0);
        // Counts land one slot up, so their prefix sums are group starts;
        // scattering then advances each start to its group's end, which is
        // the next group's start: shifting back by one restores them.
        let mut starts = vec![0u32; groups + 1];
        for t in bucket {
            starts[major(t) + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut triples = vec![[0; 3]; bucket.len()];
        for t in bucket {
            let slot = &mut starts[major(t)];
            triples[*slot as usize] = *t;
            *slot += 1;
        }
        starts.copy_within(..groups, 1);
        starts[0] = 0;
        for group in starts.windows(2) {
            triples[group[0] as usize..group[1] as usize].sort_unstable_by_key(|t| order.key(t));
        }
        SortedRun { triples, starts }
    }

    /// The span of [`Self::triples`] whose keys lie in `plan`'s bounds —
    /// what [`RunPlan::range_in`] finds over the whole run, read from the
    /// directory.
    pub(crate) fn range(&self, plan: &RunPlan) -> std::ops::Range<usize> {
        if plan.prefix_len == 0 {
            return 0..self.triples.len();
        }
        let major = plan.lo[0] as usize;
        let Some(&[start, end]) = self.starts.get(major..major + 2) else {
            return self.triples.len()..self.triples.len();
        };
        let group = start as usize..end as usize;
        if plan.prefix_len == 1 {
            return group;
        }
        let inner = plan.range_in(&self.triples[group.clone()]);
        group.start + inner.start..group.start + inner.end
    }
}

/// Sorts `bucket` into each of the first `built` [`RUN_ORDERS`]
/// ([`SortedRun::sort`]). The full (major, mid, minor) key is a total
/// order under which byte-identical duplicates are interchangeable, so
/// the output is deterministic. The orders are sorted one after another
/// on the calling thread: the counting sort is bound by memory more than
/// by a core, the shards of a load already sort side by side, and runs
/// allocated on four threads per shard kept a repeated 250k ingest's peak
/// RSS 11–15 % higher on a 2-core host, in the allocator's per-thread
/// arenas.
pub(crate) fn sort_runs(bucket: &[IdTriple], built: usize) -> Vec<SortedRun> {
    RUN_ORDERS[..built]
        .iter()
        .map(|&order| SortedRun::sort(bucket, order))
        .collect()
}

/// A pattern resolved against the run table: which run serves it and
/// the inclusive key range of that run holding every match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Slot in [`RUN_ORDERS`] of the chosen run.
    pub run: usize,
    /// How many leading key positions the pattern binds.
    pub prefix_len: usize,
    /// Smallest key that can match: the bound prefix, then zeros.
    pub lo: Key,
    /// Largest key that can match: the bound prefix, then `Id::MAX`.
    pub hi: Key,
    /// The pattern itself when it binds positions outside the prefix —
    /// triples inside `[lo, hi]` must then still be filtered. Always
    /// `None` over the whole table.
    pub residual: Option<Pattern>,
}

impl RunPlan {
    /// Plans `pattern` over the first `built` [`RUN_ORDERS`]: the first
    /// order whose key starts with the most bound positions.
    pub fn for_pattern(pattern: &Pattern, built: usize) -> RunPlan {
        let (mut run, mut prefix_len) = (0, 0);
        for (slot, order) in RUN_ORDERS[..built].iter().enumerate() {
            let perm = order.permutation();
            let prefix = perm.iter().take_while(|&&p| pattern[p].is_some()).count();
            if prefix > prefix_len {
                (run, prefix_len) = (slot, prefix);
            }
        }
        let perm = RUN_ORDERS[run].permutation();
        let (mut lo, mut hi) = ([0; 3], [Id::MAX; 3]);
        for slot in 0..prefix_len {
            let id = pattern[perm[slot]].expect("prefix position is bound");
            (lo[slot], hi[slot]) = (id, id);
        }
        let bound = pattern.iter().flatten().count();
        RunPlan {
            run,
            prefix_len,
            lo,
            hi,
            residual: (bound > prefix_len).then_some(*pattern),
        }
    }

    /// The sub-range of `sorted` — any contiguous piece of the planned
    /// run — whose keys lie in `[lo, hi]`.
    pub fn range_in(&self, sorted: &[IdTriple]) -> std::ops::Range<usize> {
        if self.prefix_len == 0 {
            return 0..sorted.len();
        }
        let order = RUN_ORDERS[self.run];
        let start = sorted.partition_point(|t| order.key(t) < self.lo);
        let end = start + sorted[start..].partition_point(|t| order.key(t) <= self.hi);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::matches;

    /// All 8 bound/unbound masks over the probe ids (s, p, o) = (1, 2, 3).
    fn masks() -> [Pattern; 8] {
        std::array::from_fn(|mask| {
            [
                (mask & 1 != 0).then_some(1),
                (mask & 2 != 0).then_some(2),
                (mask & 4 != 0).then_some(3),
            ]
        })
    }

    #[test]
    fn four_orders_give_every_mask_a_full_prefix() {
        use IndexOrder::*;
        let expected = [Spo, Spo, Pso, Spo, Osp, Osp, Pos, Spo];
        for (pattern, order) in masks().iter().zip(expected) {
            let plan = RunPlan::for_pattern(pattern, RUN_ORDERS.len());
            let bound = pattern.iter().flatten().count();
            assert_eq!(plan.prefix_len, bound, "pattern {pattern:?}");
            assert_eq!(plan.residual, None, "pattern {pattern:?}");
            assert_eq!(RUN_ORDERS[plan.run], order, "pattern {pattern:?}");
        }
    }

    #[test]
    fn a_partial_table_falls_back_to_residual_filtering() {
        let plan = RunPlan::for_pattern(&[None, Some(2), Some(3)], 1);
        assert_eq!((plan.run, plan.prefix_len), (0, 0));
        assert_eq!(plan.residual, Some([None, Some(2), Some(3)]));
        let plan = RunPlan::for_pattern(&[Some(1), None, Some(3)], 1);
        assert_eq!((plan.run, plan.prefix_len), (0, 1));
        assert!(plan.residual.is_some());
    }

    #[test]
    fn range_in_brackets_exactly_the_matches() {
        let bucket: Vec<IdTriple> = (0..60).map(|i| [i % 4, i % 3 + 1, i % 5]).collect();
        let runs = sort_runs(&bucket, RUN_ORDERS.len());
        for pattern in masks() {
            let plan = RunPlan::for_pattern(&pattern, RUN_ORDERS.len());
            let run = &runs[plan.run].triples;
            let range = plan.range_in(run);
            for (i, t) in run.iter().enumerate() {
                assert_eq!(
                    range.contains(&i),
                    matches(t, &pattern),
                    "{pattern:?} {t:?}"
                );
            }
            // Any contiguous piece narrows the same way.
            let piece = &run[7..41];
            let hits = piece[plan.range_in(piece)].to_vec();
            let want: Vec<IdTriple> = piece
                .iter()
                .filter(|t| matches(t, &pattern))
                .copied()
                .collect();
            assert_eq!(hits, want, "{pattern:?}");
        }
    }

    #[test]
    fn the_directory_finds_what_the_binary_search_finds() {
        let bucket: Vec<IdTriple> = (0..90).map(|i| [i % 7 * 2, i % 3 + 1, i % 11]).collect();
        let runs = sort_runs(&bucket, RUN_ORDERS.len());
        for (run, order) in runs.iter().zip(RUN_ORDERS) {
            let mut want = bucket.clone();
            want.sort_by_key(|t| order.key(t));
            assert_eq!(run.triples, want, "{order:?} is the full-key order");
        }
        // Probe ids inside, between and past every major key.
        for probe in [0, 1, 2, 5, 12, 13, 40] {
            for mask in 0..8 {
                let pattern: Pattern =
                    std::array::from_fn(|i| (mask & 1 << i != 0).then_some(probe));
                for built in [1, RUN_ORDERS.len()] {
                    let runs = &runs[..built];
                    let plan = RunPlan::for_pattern(&pattern, built);
                    let run = &runs[plan.run];
                    assert_eq!(run.range(&plan), plan.range_in(&run.triples), "{pattern:?}");
                }
            }
        }
        let empty = sort_runs(&[], RUN_ORDERS.len());
        let plan = RunPlan::for_pattern(&[Some(3), None, None], RUN_ORDERS.len());
        assert_eq!(empty[plan.run].range(&plan), 0..0);
        assert_eq!(empty[0].starts, [0]);
    }
}
