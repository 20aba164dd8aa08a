//! The hash-indexed in-memory store.
//!
//! Models the paper's "in-memory engines" (ARQ/Jena, Sesame-Memory):
//! the document lives as a flat triple list plus per-term **hash adjacency
//! lists** for each position (Jena's memory model keeps exactly such S/P/O
//! hash indexes). Loading is cheap (hash inserts, no sorting) and pattern
//! scans walk the shortest applicable posting list with residual
//! filtering. Unlike [`crate::NativeStore`] there are no sorted range
//! indexes and no exact statistics — cardinality estimates are posting-
//! list heuristics, which is precisely the gap the `native-opt`
//! configuration's cost-based reordering exploits.

use std::sync::OnceLock;

use crate::dictionary::{Dictionary, Id, IdTriple};
use crate::hash::FxHashMap;
use crate::stats::StoreStats;
use crate::traits::{Pattern, ScanChunk, TripleStore};

/// Posting-list walks for multi-bound estimates are capped at this many
/// candidates; longer lists fall back to the list-length upper bound so
/// [`MemStore::estimate`] stays cheap for the optimizer's repeated probes.
const EXACT_ESTIMATE_CAP: usize = 1 << 10;

/// Posting lists for one triple position.
#[derive(Debug, Default)]
struct PositionIndex {
    lists: FxHashMap<Id, Vec<u32>>,
}

impl PositionIndex {
    fn push(&mut self, id: Id, row: u32) {
        self.lists.entry(id).or_default().push(row);
    }

    fn get(&self, id: Id) -> &[u32] {
        self.lists.get(&id).map_or(&[], Vec::as_slice)
    }
}

/// In-memory store with hash adjacency lists per position.
#[derive(Debug, Default)]
pub struct MemStore {
    dict: Dictionary,
    triples: Vec<IdTriple>,
    by_subject: PositionIndex,
    by_predicate: PositionIndex,
    by_object: PositionIndex,
    stats: OnceLock<StoreStats>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Inserts an already-encoded triple without touching this store's
    /// dictionary: the load route's shard build ([`crate::load`]), where
    /// ids live in the shared dictionary the [`crate::ShardedStore`] owns.
    pub fn insert_encoded(&mut self, t: IdTriple) {
        self.stats = OnceLock::new(); // summary is stale once data changes
        let row = u32::try_from(self.triples.len()).expect("mem store row overflow");
        self.by_subject.push(t[0], row);
        self.by_predicate.push(t[1], row);
        self.by_object.push(t[2], row);
        self.triples.push(t);
    }

    /// The candidate range of `pattern`: the shortest posting list of a
    /// bound position, tested against the pattern when it binds more
    /// than that one position, or the whole triple table when it binds
    /// none.
    pub(crate) fn range(&self, pattern: Pattern) -> ScanChunk<'_> {
        let lists = [
            pattern[0].map(|id| self.by_subject.get(id)),
            pattern[1].map(|id| self.by_predicate.get(id)),
            pattern[2].map(|id| self.by_object.get(id)),
        ];
        match lists.into_iter().flatten().min_by_key(|list| list.len()) {
            Some(rows) => ScanChunk::Rows {
                rows,
                table: &self.triples,
                residual: (pattern.iter().flatten().count() > 1).then_some(pattern),
            },
            None => ScanChunk::Triples {
                triples: &self.triples,
                residual: None,
            },
        }
    }
}

impl TripleStore for MemStore {
    fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    fn len(&self) -> usize {
        self.triples.len()
    }

    fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        self.range(pattern).iter()
    }

    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
        self.range(pattern).split(n)
    }

    /// Heuristic estimate: the length of the shortest posting list of a
    /// bound position. When the pattern binds more than that position
    /// and the list is small (≤ [`EXACT_ESTIMATE_CAP`] candidates), the
    /// list is walked with residual filtering for an exact count —
    /// tightening doubly-bound patterns whose positions are individually
    /// frequent but jointly rare. Longer lists keep the length upper
    /// bound (in-memory engines hold no multi-column statistics).
    fn estimate(&self, pattern: Pattern) -> u64 {
        let range = self.range(pattern);
        match range {
            ScanChunk::Rows {
                rows,
                residual: Some(_),
                ..
            } if rows.len() <= EXACT_ESTIMATE_CAP => range.iter().count() as u64,
            _ => range.len() as u64,
        }
    }

    /// Lazily computed (and cached) on first request; inserts reset the
    /// cache, so incremental shard builds pay nothing until asked.
    fn stats(&self) -> &StoreStats {
        self.stats
            .get_or_init(|| StoreStats::from_triples(&self.triples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::tests::load;
    use crate::shard::{ShardBackend, ShardBy, ShardedStore};
    use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};

    fn store() -> ShardedStore {
        let mut g = Graph::new();
        g.add(
            Subject::iri("http://x/s1"),
            Iri::new("http://x/p1"),
            Term::iri("http://x/o1"),
        );
        g.add(
            Subject::iri("http://x/s1"),
            Iri::new("http://x/p2"),
            Term::Literal(Literal::integer(5)),
        );
        g.add(
            Subject::iri("http://x/s2"),
            Iri::new("http://x/p1"),
            Term::iri("http://x/o1"),
        );
        load(&g, 1, ShardBy::Subject, ShardBackend::Mem)
    }

    #[test]
    fn scan_all() {
        let s = store();
        assert_eq!(s.scan([None, None, None]).count(), 3);
    }

    #[test]
    fn scan_by_positions() {
        let s = store();
        let p1 = s.resolve(&Term::iri("http://x/p1")).unwrap();
        let s1 = s.resolve(&Term::iri("http://x/s1")).unwrap();
        let o1 = s.resolve(&Term::iri("http://x/o1")).unwrap();
        assert_eq!(s.scan([None, Some(p1), None]).count(), 2);
        assert_eq!(s.scan([Some(s1), None, None]).count(), 2);
        assert_eq!(s.scan([None, None, Some(o1)]).count(), 2);
        assert_eq!(s.scan([Some(s1), Some(p1), Some(o1)]).count(), 1);
        assert_eq!(s.scan([Some(s1), Some(p1), Some(s1)]).count(), 0);
    }

    #[test]
    fn missing_term_resolves_to_none() {
        let s = store();
        assert!(s.resolve(&Term::iri("http://x/absent")).is_none());
    }

    #[test]
    fn estimates_use_shortest_posting_list() {
        let s = store();
        let p1 = s.resolve(&Term::iri("http://x/p1")).unwrap();
        let p2 = s.resolve(&Term::iri("http://x/p2")).unwrap();
        assert_eq!(s.estimate([None, Some(p1), None]), 2);
        assert_eq!(s.estimate([None, Some(p2), None]), 1);
        assert_eq!(s.estimate([None, None, None]), 3);
    }

    #[test]
    fn doubly_bound_estimates_are_tightened_by_a_list_walk() {
        let s = store();
        let s1 = s.resolve(&Term::iri("http://x/s1")).unwrap();
        let p1 = s.resolve(&Term::iri("http://x/p1")).unwrap();
        let o1 = s.resolve(&Term::iri("http://x/o1")).unwrap();
        // s1 and p1 both have 2 triples, but only one triple carries both:
        // the walked estimate is 1, not the posting-list minimum of 2.
        assert_eq!(s.estimate([Some(s1), Some(p1), None]), 1);
        // A jointly impossible combination estimates to exactly zero.
        assert_eq!(s.estimate([Some(s1), Some(p1), Some(s1)]), 0);
        // Fully bound point lookups are exact too.
        assert_eq!(s.estimate([Some(s1), Some(p1), Some(o1)]), 1);
    }

    #[test]
    fn scan_chunks_concatenate_to_scan_order() {
        let s = store();
        let s1 = s.resolve(&Term::iri("http://x/s1"));
        let p1 = s.resolve(&Term::iri("http://x/p1"));
        for pattern in [
            [None, None, None],
            [None, p1, None],
            [s1, p1, None], // residual filtering over the posting list
        ] {
            let sequential: Vec<IdTriple> = s.scan(pattern).collect();
            for n in [1, 2, 5] {
                let chunked: Vec<IdTriple> = s
                    .scan_chunks(pattern, n)
                    .into_iter()
                    .flat_map(ScanChunk::iter)
                    .collect();
                assert_eq!(chunked, sequential, "pattern {pattern:?} n {n}");
            }
        }
    }

    #[test]
    fn contains_point_lookup() {
        let s = store();
        let s1 = s.resolve(&Term::iri("http://x/s1")).unwrap();
        assert!(s.contains([Some(s1), None, None]));
        assert!(!s.contains([Some(s1), Some(s1), None]));
    }
}
