//! Load-time store statistics driving cost-based query planning.
//!
//! A [`StoreStats`] summary is read once per shard off the shard's sorted
//! runs ([`StoreStats::from_runs`]: one pass over each of SPO, PSO, POS
//! and OSP, which already hold every order a count needs, so nothing is
//! copied or sorted) — by a resident store on first use and by a segment
//! save, which writes it to the stats section a reopened store decodes
//! in O(bytes). It answers the planner's cardinality questions without
//! touching triple data:
//!
//! * per-predicate triple counts plus distinct-subject / distinct-object
//!   counts — the classic distinct-count ratios behind bound-variable
//!   join selectivity;
//! * characteristic sets (the distinct *sets* of predicates occurring on
//!   a subject, with subject counts and per-predicate triple counts) —
//!   the star-shape estimator of Neumann & Moerkotte, which is exactly
//!   the shape that dominates real SPARQL logs (Bonifati et al.).
//!
//! Stats are collected **per shard** and [`StoreStats::merge`]d, so a
//! sharded store's summary sums the same way its estimates do. Under
//! subject sharding the merged subject-side numbers stay exact (a
//! subject lives in exactly one shard); predicate/object distinct counts
//! are upper bounds after a merge, which is the safe direction for a
//! planner (it never underestimates a fan-out into a cross product).

use crate::dictionary::{Id, IdTriple};
use crate::hash::FxHashMap;
use crate::run::{sort_runs, SortedRun, RUN_ORDERS};
use crate::segment::{invalid, Cursor, SegmentError};
use crate::traits::Pattern;

/// Distinct characteristic sets beyond which collection is abandoned:
/// a corpus whose subjects are near-unique in their predicate sets gains
/// nothing from CS estimation, and the planner falls back to
/// distinct-count ratios. Keeps the summary O(small) regardless of data.
pub const MAX_CHARACTERISTIC_SETS: usize = 4096;

/// Per-predicate summary: triple count and distinct subject/object
/// counts, the inputs to distinct-count-ratio selectivity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateStats {
    /// The predicate's dictionary id.
    pub predicate: Id,
    /// Triples carrying this predicate.
    pub triples: u64,
    /// Distinct subjects among those triples.
    pub distinct_subjects: u64,
    /// Distinct objects among those triples.
    pub distinct_objects: u64,
}

/// One characteristic set: the (sorted) set of predicates some group of
/// subjects shares, how many subjects share it, and how many triples
/// each predicate contributes across those subjects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharacteristicSet {
    /// The predicate ids of the set, sorted ascending.
    pub predicates: Vec<Id>,
    /// Number of subjects whose predicate set is exactly this set.
    pub subjects: u64,
    /// Triple counts per predicate, parallel to `predicates`.
    pub pred_triples: Vec<u64>,
}

/// The load-time statistics summary of one store (or one shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total triples.
    pub triples: u64,
    /// Distinct subjects across all triples.
    pub distinct_subjects: u64,
    /// Distinct objects across all triples.
    pub distinct_objects: u64,
    /// Per-predicate summaries, sorted by predicate id.
    pub predicates: Vec<PredicateStats>,
    /// Characteristic sets sorted by predicate-set key; empty when the
    /// data exceeded [`MAX_CHARACTERISTIC_SETS`] distinct sets (or when
    /// merged stats overflowed the cap).
    pub characteristic_sets: Vec<CharacteristicSet>,
}

impl StoreStats {
    /// Collects the summary from a slice of encoded triples: sorts them
    /// into the runs a store keeps and reads the summary off those
    /// ([`StoreStats::from_runs`]), O(n log n) once at load time.
    pub fn from_triples(triples: &[IdTriple]) -> StoreStats {
        StoreStats::from_runs(&sort_runs(triples, RUN_ORDERS.len()))
    }

    /// Reads the summary off a bucket's sorted runs — all of
    /// [`RUN_ORDERS`], in that order — each of which already holds a
    /// count's order: subjects and their characteristic sets come from
    /// SPO, per-predicate triples and subjects from PSO, per-predicate
    /// objects from POS and the distinct objects from OSP. One pass over
    /// each run; nothing is copied or sorted. The one counting routine:
    /// a resident store, a segment save and [`StoreStats::from_triples`]
    /// all end here.
    pub(crate) fn from_runs(runs: &[SortedRun]) -> StoreStats {
        assert_eq!(runs.len(), RUN_ORDERS.len(), "statistics read every run");
        let [spo, pso, pos, osp] = [0, 1, 2, 3].map(|i| &runs[i].triples[..]);
        let same = |at: usize| move |a: &IdTriple, b: &IdTriple| a[at] == b[at];
        let (s, p, o) = (0, 1, 2);

        // Characteristic sets: each subject's predicates and their
        // triple counts, a subject's triples adjacent and sorted by
        // predicate. The scratch set is reused; a new set copies it.
        let mut sets: FxHashMap<Vec<Id>, (u64, Vec<u64>)> = FxHashMap::default();
        let mut overflowed = false;
        let (mut preds, mut counts) = (Vec::new(), Vec::new());
        let mut distinct_subjects = 0;
        for subject in spo.chunk_by(same(s)) {
            distinct_subjects += 1;
            if overflowed {
                continue;
            }
            preds.clear();
            counts.clear();
            for run in subject.chunk_by(same(p)) {
                preds.push(run[0][p]);
                counts.push(run.len() as u64);
            }
            if let Some((subjects, totals)) = sets.get_mut(&preds) {
                *subjects += 1;
                for (t, c) in totals.iter_mut().zip(&counts) {
                    *t += c;
                }
            } else if sets.len() >= MAX_CHARACTERISTIC_SETS {
                overflowed = true;
                sets.clear();
            } else {
                sets.insert(preds.clone(), (1, counts.clone()));
            }
        }
        let mut characteristic_sets: Vec<CharacteristicSet> = sets
            .into_iter()
            .map(|(predicates, (subjects, pred_triples))| CharacteristicSet {
                predicates,
                subjects,
                pred_triples,
            })
            .collect();
        characteristic_sets.sort_unstable_by(|a, b| a.predicates.cmp(&b.predicates));

        // Per predicate: its PSO group counts triples and subjects, its
        // POS group (the same predicates, in the same order) objects.
        let predicates = pso
            .chunk_by(same(p))
            .zip(pos.chunk_by(same(p)))
            .map(|(by_subject, by_object)| {
                debug_assert_eq!(by_subject[0][p], by_object[0][p]);
                PredicateStats {
                    predicate: by_subject[0][p],
                    triples: by_subject.len() as u64,
                    distinct_subjects: by_subject.chunk_by(same(s)).count() as u64,
                    distinct_objects: by_object.chunk_by(same(o)).count() as u64,
                }
            })
            .collect();
        StoreStats {
            triples: spo.len() as u64,
            distinct_subjects,
            distinct_objects: osp.chunk_by(same(o)).count() as u64,
            predicates,
            characteristic_sets,
        }
    }

    /// Folds another summary (typically of a sibling shard) into this
    /// one. Triple counts sum exactly; distinct counts sum into upper
    /// bounds (exact on the subject side under subject sharding, where
    /// no subject spans shards). Characteristic sets merge by set key;
    /// if the union exceeds [`MAX_CHARACTERISTIC_SETS`] the merged
    /// summary drops them and the planner falls back to ratios.
    pub fn merge(&mut self, other: &StoreStats) {
        self.triples += other.triples;
        self.distinct_subjects += other.distinct_subjects;
        self.distinct_objects += other.distinct_objects;
        let mut merged: Vec<PredicateStats> =
            Vec::with_capacity(self.predicates.len() + other.predicates.len());
        let (mut a, mut b) = (self.predicates.iter().peekable(), other.predicates.iter());
        let mut next_b = b.next();
        while let Some(pa) = a.peek() {
            match next_b {
                Some(pb) if pb.predicate < pa.predicate => {
                    merged.push(pb.clone());
                    next_b = b.next();
                }
                Some(pb) if pb.predicate == pa.predicate => {
                    let pa = a.next().expect("peeked");
                    merged.push(PredicateStats {
                        predicate: pa.predicate,
                        triples: pa.triples + pb.triples,
                        distinct_subjects: pa.distinct_subjects + pb.distinct_subjects,
                        distinct_objects: pa.distinct_objects + pb.distinct_objects,
                    });
                    next_b = b.next();
                }
                _ => merged.push(a.next().expect("peeked").clone()),
            }
        }
        while let Some(pb) = next_b {
            merged.push(pb.clone());
            next_b = b.next();
        }
        self.predicates = merged;

        if self.characteristic_sets.is_empty() && self.triples > other.triples {
            // This summary already overflowed: stay overflowed.
            return;
        }
        if other.characteristic_sets.is_empty() && other.triples > 0 {
            // The other summary overflowed: the union is unknowable.
            self.characteristic_sets.clear();
            return;
        }
        let mut sets: FxHashMap<Vec<Id>, (u64, Vec<u64>)> = FxHashMap::default();
        for cs in self
            .characteristic_sets
            .drain(..)
            .chain(other.characteristic_sets.iter().cloned())
        {
            if let Some((subjects, totals)) = sets.get_mut(&cs.predicates) {
                *subjects += cs.subjects;
                for (t, c) in totals.iter_mut().zip(&cs.pred_triples) {
                    *t += c;
                }
            } else {
                sets.insert(cs.predicates, (cs.subjects, cs.pred_triples));
            }
        }
        if sets.len() > MAX_CHARACTERISTIC_SETS {
            self.characteristic_sets = Vec::new();
            return;
        }
        let mut merged: Vec<CharacteristicSet> = sets
            .into_iter()
            .map(|(predicates, (subjects, pred_triples))| CharacteristicSet {
                predicates,
                subjects,
                pred_triples,
            })
            .collect();
        merged.sort_unstable_by(|a, b| a.predicates.cmp(&b.predicates));
        self.characteristic_sets = merged;
    }

    /// The per-predicate summary for `p`, if any triple carries it.
    pub fn predicate(&self, p: Id) -> Option<&PredicateStats> {
        self.predicates
            .binary_search_by_key(&p, |ps| ps.predicate)
            .ok()
            .map(|i| &self.predicates[i])
    }

    /// True when characteristic sets were collected (not overflowed).
    pub fn has_characteristic_sets(&self) -> bool {
        !self.characteristic_sets.is_empty()
    }

    /// Subjects whose predicate set contains every predicate in `preds`
    /// (sorted). Zero when `preds` is empty or CS were not collected.
    pub fn subjects_with_predicates(&self, preds: &[Id]) -> u64 {
        if preds.is_empty() {
            return 0;
        }
        self.characteristic_sets
            .iter()
            .filter(|cs| is_subset(preds, &cs.predicates))
            .map(|cs| cs.subjects)
            .sum()
    }

    /// Triples of predicate `next` on subjects whose predicate set
    /// contains every predicate in `preds` **and** `next` — the star-step
    /// output estimate: dividing by
    /// [`StoreStats::subjects_with_predicates`]`(preds)` gives the
    /// per-subject fan-out of extending the star with `next`.
    pub fn star_triples(&self, preds: &[Id], next: Id) -> u64 {
        self.characteristic_sets
            .iter()
            .filter(|cs| is_subset(preds, &cs.predicates))
            .filter_map(|cs| {
                let i = cs.predicates.binary_search(&next).ok()?;
                Some(cs.pred_triples[i])
            })
            .sum()
    }

    /// Cardinality estimate for `pattern` from the summary alone — no
    /// triple data, no index: the cold-path-free estimator the disk
    /// store answers planning queries with. Bound-position ratios; a
    /// fully bound pattern estimates 1 (0 if the predicate is unknown).
    pub fn estimate_pattern(&self, pattern: Pattern) -> u64 {
        let [s, p, o] = pattern;
        let pred = p.map(|p| self.predicate(p));
        if let Some(None) = pred {
            return 0; // bound predicate that no triple carries
        }
        match (s, pred.flatten(), o) {
            (None, None, None) => self.triples,
            (None, Some(ps), None) => ps.triples,
            (Some(_), None, None) => ratio(self.triples, self.distinct_subjects),
            (None, None, Some(_)) => ratio(self.triples, self.distinct_objects),
            (Some(_), Some(ps), None) => ratio(ps.triples, ps.distinct_subjects),
            (None, Some(ps), Some(_)) => ratio(ps.triples, ps.distinct_objects),
            (Some(_), None, Some(_)) => ratio(self.triples, self.distinct_subjects)
                .min(ratio(self.triples, self.distinct_objects)),
            (Some(_), Some(_), Some(_)) => 1,
        }
    }

    /// Serializes the summary (little-endian, length-prefixed) for the
    /// segment's stats section.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.triples.to_le_bytes());
        out.extend_from_slice(&self.distinct_subjects.to_le_bytes());
        out.extend_from_slice(&self.distinct_objects.to_le_bytes());
        out.extend_from_slice(&(self.predicates.len() as u32).to_le_bytes());
        for ps in &self.predicates {
            out.extend_from_slice(&ps.predicate.to_le_bytes());
            out.extend_from_slice(&ps.triples.to_le_bytes());
            out.extend_from_slice(&ps.distinct_subjects.to_le_bytes());
            out.extend_from_slice(&ps.distinct_objects.to_le_bytes());
        }
        out.extend_from_slice(&(self.characteristic_sets.len() as u32).to_le_bytes());
        for cs in &self.characteristic_sets {
            out.extend_from_slice(&(cs.predicates.len() as u32).to_le_bytes());
            out.extend_from_slice(&cs.subjects.to_le_bytes());
            for (p, t) in cs.predicates.iter().zip(&cs.pred_triples) {
                out.extend_from_slice(&p.to_le_bytes());
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a summary written by [`StoreStats::encode`] from
    /// where `cur` stands, leaving it behind the summary.
    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<StoreStats, SegmentError> {
        let triples = cur.u64()?;
        let distinct_subjects = cur.u64()?;
        let distinct_objects = cur.u64()?;
        let n_preds = cur.u32()? as usize;
        let mut predicates = Vec::with_capacity(n_preds.min(1 << 16));
        for _ in 0..n_preds {
            predicates.push(PredicateStats {
                predicate: cur.u32()?,
                triples: cur.u64()?,
                distinct_subjects: cur.u64()?,
                distinct_objects: cur.u64()?,
            });
        }
        let n_sets = cur.u32()? as usize;
        if n_sets > MAX_CHARACTERISTIC_SETS {
            return Err(invalid(format!(
                "statistics are corrupt: {n_sets} characteristic sets exceeds the cap"
            )));
        }
        let mut characteristic_sets = Vec::with_capacity(n_sets);
        for _ in 0..n_sets {
            let n = cur.u32()? as usize;
            let subjects = cur.u64()?;
            let mut preds = Vec::with_capacity(n.min(1 << 16));
            let mut counts = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                preds.push(cur.u32()?);
                counts.push(cur.u64()?);
            }
            characteristic_sets.push(CharacteristicSet {
                predicates: preds,
                subjects,
                pred_triples: counts,
            });
        }
        Ok(StoreStats {
            triples,
            distinct_subjects,
            distinct_objects,
            predicates,
            characteristic_sets,
        })
    }
}

/// `triples / distinct`, at least 1 when any triple exists.
fn ratio(triples: u64, distinct: u64) -> u64 {
    if triples == 0 {
        0
    } else {
        (triples / distinct.max(1)).max(1)
    }
}

/// Is sorted `needle` a subset of sorted `haystack`?
fn is_subset(needle: &[Id], haystack: &[Id]) -> bool {
    let mut hay = haystack.iter();
    'outer: for n in needle {
        for h in hay.by_ref() {
            match h.cmp(n) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<IdTriple> {
        // Subjects 1, 2 carry {10, 11}; subject 3 carries {10} twice.
        vec![
            [1, 10, 100],
            [1, 11, 101],
            [2, 10, 100],
            [2, 11, 102],
            [3, 10, 103],
            [3, 10, 104],
        ]
    }

    #[test]
    fn collects_predicate_and_subject_counts() {
        let s = StoreStats::from_triples(&sample());
        assert_eq!(s.triples, 6);
        assert_eq!(s.distinct_subjects, 3);
        assert_eq!(s.distinct_objects, 5);
        let p10 = s.predicate(10).expect("p10");
        assert_eq!(
            (p10.triples, p10.distinct_subjects, p10.distinct_objects),
            (4, 3, 3)
        );
        let p11 = s.predicate(11).expect("p11");
        assert_eq!(
            (p11.triples, p11.distinct_subjects, p11.distinct_objects),
            (2, 2, 2)
        );
        assert!(s.predicate(99).is_none());
    }

    #[test]
    fn collects_characteristic_sets() {
        let s = StoreStats::from_triples(&sample());
        assert!(s.has_characteristic_sets());
        assert_eq!(s.characteristic_sets.len(), 2);
        // {10}: subject 3, two triples of predicate 10.
        assert_eq!(s.subjects_with_predicates(&[10]), 3);
        assert_eq!(s.subjects_with_predicates(&[10, 11]), 2);
        assert_eq!(s.subjects_with_predicates(&[11]), 2);
        assert_eq!(s.star_triples(&[10], 11), 2);
        assert_eq!(s.star_triples(&[], 10), 4);
        assert_eq!(s.subjects_with_predicates(&[99]), 0);
    }

    #[test]
    fn estimates_patterns_from_the_summary() {
        let s = StoreStats::from_triples(&sample());
        assert_eq!(s.estimate_pattern([None, None, None]), 6);
        assert_eq!(s.estimate_pattern([None, Some(10), None]), 4);
        assert_eq!(s.estimate_pattern([None, Some(99), None]), 0);
        assert_eq!(s.estimate_pattern([Some(1), None, None]), 2); // 6/3
        assert_eq!(s.estimate_pattern([None, None, Some(100)]), 1); // 6/5
        assert_eq!(s.estimate_pattern([Some(1), Some(10), None]), 1); // 4/3
        assert_eq!(s.estimate_pattern([None, Some(10), Some(100)]), 1);
        assert_eq!(s.estimate_pattern([Some(1), Some(10), Some(100)]), 1);
        assert_eq!(s.estimate_pattern([Some(1), Some(99), Some(100)]), 0);
    }

    #[test]
    fn merge_sums_counts_and_sets() {
        let mut a = StoreStats::from_triples(&sample()[..3]);
        let b = StoreStats::from_triples(&sample()[3..]);
        a.merge(&b);
        let whole = StoreStats::from_triples(&sample());
        assert_eq!(a.triples, whole.triples);
        // Subject 2 spans the split, so subject-side distincts overcount
        // by one — merged counts are upper bounds.
        assert_eq!(a.distinct_subjects, 4);
        let p10 = a.predicate(10).expect("p10");
        assert_eq!(p10.triples, 4);
        // Split subject 2's set {10} + {11} instead of {10,11}.
        assert_eq!(a.subjects_with_predicates(&[10]), 3);
    }

    #[test]
    fn merge_of_disjoint_subjects_is_exact_on_the_subject_side() {
        let all = sample();
        let mut a = StoreStats::from_triples(&all[..2]); // subject 1
        let b = StoreStats::from_triples(&all[2..]); // subjects 2, 3
        a.merge(&b);
        let whole = StoreStats::from_triples(&all);
        // No subject spans the split, so everything keyed by subject is
        // exact; object distincts overcount (object 100 is in both
        // halves) — the documented upper-bound direction.
        assert_eq!(a.triples, whole.triples);
        assert_eq!(a.distinct_subjects, whole.distinct_subjects);
        assert_eq!(a.characteristic_sets, whole.characteristic_sets);
        for p in [10, 11] {
            let (ma, mw) = (a.predicate(p).unwrap(), whole.predicate(p).unwrap());
            assert_eq!(ma.triples, mw.triples);
            assert_eq!(ma.distinct_subjects, mw.distinct_subjects);
            assert!(ma.distinct_objects >= mw.distinct_objects);
        }
        assert!(a.distinct_objects >= whole.distinct_objects);
    }

    #[test]
    fn encode_decode_round_trips() {
        for s in [
            StoreStats::from_triples(&sample()),
            StoreStats::from_triples(&[]),
        ] {
            let bytes = s.encode();
            let mut cur = Cursor::new(&bytes, "stats");
            assert_eq!(StoreStats::decode(&mut cur).expect("decode"), s);
            assert!(cur.done());
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = StoreStats::from_triples(&sample()).encode();
        for cut in [0, 8, bytes.len() - 1] {
            let mut cur = Cursor::new(&bytes[..cut], "stats");
            assert!(StoreStats::decode(&mut cur).is_err(), "cut {cut}");
        }
    }

    /// The summary as three sorts of one scratch copy computed it before
    /// the runs were read instead: the oracle `from_runs` must match.
    fn three_sorts(triples: &[IdTriple]) -> StoreStats {
        let mut stats = StoreStats {
            triples: triples.len() as u64,
            ..StoreStats::default()
        };
        if triples.is_empty() {
            return stats;
        }
        let mut scratch: Vec<IdTriple> = triples.to_vec();
        scratch.sort_unstable_by_key(|t| (t[0], t[1]));
        let mut sets: FxHashMap<Vec<Id>, (u64, Vec<u64>)> = FxHashMap::default();
        let mut overflowed = false;
        let mut i = 0;
        while i < scratch.len() {
            let subject = scratch[i][0];
            let mut preds: Vec<Id> = Vec::new();
            let mut counts: Vec<u64> = Vec::new();
            while i < scratch.len() && scratch[i][0] == subject {
                let p = scratch[i][1];
                if preds.last() == Some(&p) {
                    *counts.last_mut().expect("parallel to preds") += 1;
                } else {
                    preds.push(p);
                    counts.push(1);
                }
                i += 1;
            }
            stats.distinct_subjects += 1;
            if overflowed {
                continue;
            }
            if let Some((subjects, totals)) = sets.get_mut(&preds) {
                *subjects += 1;
                for (t, c) in totals.iter_mut().zip(&counts) {
                    *t += c;
                }
            } else if sets.len() >= MAX_CHARACTERISTIC_SETS {
                overflowed = true;
                sets.clear();
            } else {
                sets.insert(preds, (1, counts));
            }
        }
        let mut characteristic_sets: Vec<CharacteristicSet> = sets
            .into_iter()
            .map(|(predicates, (subjects, pred_triples))| CharacteristicSet {
                predicates,
                subjects,
                pred_triples,
            })
            .collect();
        characteristic_sets.sort_unstable_by(|a, b| a.predicates.cmp(&b.predicates));
        stats.characteristic_sets = characteristic_sets;
        scratch.sort_unstable_by_key(|t| (t[1], t[0]));
        let mut i = 0;
        while i < scratch.len() {
            let predicate = scratch[i][1];
            let (mut count, mut subjects, mut last_subject) = (0u64, 0u64, None);
            while i < scratch.len() && scratch[i][1] == predicate {
                count += 1;
                if last_subject != Some(scratch[i][0]) {
                    subjects += 1;
                    last_subject = Some(scratch[i][0]);
                }
                i += 1;
            }
            stats.predicates.push(PredicateStats {
                predicate,
                triples: count,
                distinct_subjects: subjects,
                distinct_objects: 0,
            });
        }
        scratch.sort_unstable_by_key(|t| (t[1], t[2]));
        let (mut i, mut pred_idx) = (0, 0);
        while i < scratch.len() {
            let predicate = scratch[i][1];
            let (mut objects, mut last_object) = (0u64, None);
            while i < scratch.len() && scratch[i][1] == predicate {
                if last_object != Some(scratch[i][2]) {
                    objects += 1;
                    last_object = Some(scratch[i][2]);
                }
                i += 1;
            }
            stats.predicates[pred_idx].distinct_objects = objects;
            pred_idx += 1;
        }
        let mut objects: Vec<Id> = triples.iter().map(|t| t[2]).collect();
        objects.sort_unstable();
        objects.dedup();
        stats.distinct_objects = objects.len() as u64;
        stats
    }

    /// `from_runs` over `bucket`'s runs is the three-sort summary, to the
    /// byte of its encoding.
    fn assert_runs_agree(what: &str, bucket: &[IdTriple]) {
        let from_runs = StoreStats::from_runs(&sort_runs(bucket, RUN_ORDERS.len()));
        let oracle = three_sorts(bucket);
        assert_eq!(from_runs, oracle, "{what}");
        assert_eq!(from_runs.encode(), oracle.encode(), "{what}");
    }

    #[test]
    fn runs_give_the_summary_three_sorts_give() {
        use crate::load::route_buckets;
        use crate::shard::ShardBy;
        use sp2b_datagen::rng::SplitMix64;
        use sp2b_datagen::{generate_document, Config};
        use sp2b_rdf::ntriples::Parser;

        assert_runs_agree("empty", &[]);
        assert_runs_agree("one triple", &[[3, 1, 4]]);
        assert_runs_agree("one triple, repeated", &[[2, 2, 2]; 50]);
        // Random buckets over id spaces from one id (every triple the
        // same) to sparse ids far apart; small spaces are duplicate-heavy.
        for seed in 0..256 {
            let mut rng = SplitMix64::new(seed);
            let ids = [1, 2, 5, 40, 1 << 20][(seed % 5) as usize];
            let len = rng.next_u64() % 400;
            let bucket: Vec<IdTriple> = (0..len)
                .map(|_| [(); 3].map(|_| (rng.next_u64() % ids) as Id))
                .collect();
            assert_runs_agree(&format!("seed {seed}"), &bucket);
        }
        // More distinct predicate sets than the cap.
        let wide: Vec<IdTriple> = (0..(MAX_CHARACTERISTIC_SETS as u32 + 8))
            .flat_map(|i| [[i, 2 * i, 1], [i, 2 * i + 1, 1]])
            .collect();
        assert_runs_agree("over the cap", &wide);
        // The buckets a generated document routes to at 3 shards.
        let (doc, _) = generate_document(Config::triples(5_000));
        for by in [ShardBy::Subject, ShardBy::PredicateSubject] {
            let (_, buckets) = route_buckets(Parser::new(&doc[..]), 3, by).expect("parses");
            for (i, bucket) in buckets.iter().enumerate() {
                assert_runs_agree(&format!("{} shard {i}", by.label()), bucket);
            }
        }
    }

    #[test]
    fn overflow_drops_characteristic_sets() {
        // Every subject gets a unique predicate set — far over the cap.
        let triples: Vec<IdTriple> = (0..(MAX_CHARACTERISTIC_SETS as u32 + 8))
            .flat_map(|i| [[i, 2 * i, 1], [i, 2 * i + 1, 1]])
            .collect();
        let s = StoreStats::from_triples(&triples);
        assert!(!s.has_characteristic_sets());
        assert_eq!(s.triples, triples.len() as u64);
        assert_eq!(s.distinct_subjects, MAX_CHARACTERISTIC_SETS as u64 + 8);
    }
}
