//! The index-backed "native" store: the resident source of sorted runs.
//!
//! Models the paper's engines with a physical backend (Sesame-DB,
//! Virtuoso): at load time the document is dictionary-encoded and sorted
//! into the **four runs** of [`RUN_ORDERS`] (SPO, PSO, POS, OSP — the
//! subset of the Hexastore six, the paper's reference 13, that any
//! pattern ever selects), so *every* triple pattern, whatever its bound
//! positions, resolves to one contiguous binary-searched range (see
//! [`crate::run`]). Loading therefore costs sort time — mirroring the
//! paper's separate loading-time metric — and pattern scans plus
//! cardinality estimates are exact and cheap, which is what enables the
//! `native-opt` configuration's cost-based join reordering.

use std::sync::OnceLock;

use sp2b_rdf::Graph;

use crate::dictionary::{Dictionary, IdTriple};
use crate::run::{sort_runs, RunPlan, RUN_ORDERS};
use crate::stats::StoreStats;
use crate::traits::{Pattern, ScanChunk, TripleStore};

/// Which runs to build: how many leading [`RUN_ORDERS`]. The default is
/// all of them; the ablation configuration keeps only SPO, forcing
/// residual filtering for non-prefix patterns (DESIGN.md §7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSelection(usize);

impl IndexSelection {
    /// Every run of the table.
    pub fn all() -> Self {
        IndexSelection(RUN_ORDERS.len())
    }

    /// Only the SPO run (a "simple triple store").
    pub fn spo_only() -> Self {
        IndexSelection(1)
    }
}

/// The native store: dictionary + resident sorted runs, the leading
/// `runs.len()` of [`RUN_ORDERS`] (never empty: SPO is always built).
pub struct NativeStore {
    dict: Dictionary,
    runs: Vec<Vec<IdTriple>>,
    stats: OnceLock<StoreStats>,
}

impl NativeStore {
    /// Builds a store with every run from a graph.
    pub fn from_graph(graph: &Graph) -> Self {
        Self::with_indexes(graph, IndexSelection::all())
    }

    /// Builds a store with a chosen run subset.
    pub fn with_indexes(graph: &Graph, selection: IndexSelection) -> Self {
        let mut dict = Dictionary::new();
        let triples: Vec<IdTriple> = graph.iter().map(|t| dict.encode_triple(t)).collect();
        Self::from_encoded(dict, triples, selection)
    }

    /// Builds from already-encoded triples (bulk-load path).
    pub fn from_encoded(
        dict: Dictionary,
        triples: Vec<IdTriple>,
        selection: IndexSelection,
    ) -> Self {
        NativeStore {
            dict,
            runs: sort_runs(&triples, selection.0),
            stats: OnceLock::new(),
        }
    }

    /// The candidate range of `pattern`: the binary-searched key range
    /// of the run [`RunPlan::for_pattern`] picks, tested against the
    /// pattern only where it binds positions outside the run's prefix.
    pub(crate) fn range(&self, pattern: Pattern) -> ScanChunk<'_> {
        let plan = RunPlan::for_pattern(&pattern, self.runs.len());
        let run = &self.runs[plan.run];
        ScanChunk::Triples {
            triples: &run[plan.range_in(run)],
            residual: plan.residual,
        }
    }
}

impl TripleStore for NativeStore {
    fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    fn len(&self) -> usize {
        self.runs[0].len()
    }

    fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        self.range(pattern).iter()
    }

    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
        self.range(pattern).split(n)
    }

    /// Exact estimates via run-range width — the "statistics" that let
    /// native engines answer Q3c in constant time and drive cost-based
    /// join ordering. With a partial run set (ablation) the range width
    /// is an upper bound.
    fn estimate(&self, pattern: Pattern) -> u64 {
        self.range(pattern).len() as u64
    }

    /// Lazily computed from the SPO run and cached.
    fn stats(&self) -> &StoreStats {
        self.stats
            .get_or_init(|| StoreStats::from_triples(&self.runs[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2b_rdf::{Iri, Literal, Subject, Term};

    fn graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            g.add(
                Subject::iri(format!("http://x/s{}", i % 5)),
                Iri::new(format!("http://x/p{}", i % 3)),
                Term::iri(format!("http://x/o{}", i % 7)),
            );
        }
        g.add(
            Subject::iri("http://x/special"),
            Iri::new("http://x/p0"),
            Term::Literal(Literal::integer(42)),
        );
        g
    }

    fn agree_with_memstore(pattern_terms: [Option<&str>; 3]) {
        let g = graph();
        let native = NativeStore::from_graph(&g);
        let mem = crate::mem::MemStore::from_graph(&g);
        let npat: Pattern = [
            pattern_terms[0].and_then(|t| native.resolve(&Term::iri(t))),
            pattern_terms[1].and_then(|t| native.resolve(&Term::iri(t))),
            pattern_terms[2].and_then(|t| native.resolve(&Term::iri(t))),
        ];
        let mpat: Pattern = [
            pattern_terms[0].and_then(|t| mem.resolve(&Term::iri(t))),
            pattern_terms[1].and_then(|t| mem.resolve(&Term::iri(t))),
            pattern_terms[2].and_then(|t| mem.resolve(&Term::iri(t))),
        ];
        // Compare decoded term sets (ids differ across stores).
        let mut a: Vec<String> = native
            .scan(npat)
            .map(|t| {
                format!(
                    "{} {} {}",
                    native.dictionary().decode(t[0]),
                    native.dictionary().decode(t[1]),
                    native.dictionary().decode(t[2])
                )
            })
            .collect();
        let mut b: Vec<String> = mem
            .scan(mpat)
            .map(|t| {
                format!(
                    "{} {} {}",
                    mem.dictionary().decode(t[0]),
                    mem.dictionary().decode(t[1]),
                    mem.dictionary().decode(t[2])
                )
            })
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "pattern {pattern_terms:?}");
    }

    #[test]
    fn all_access_patterns_agree_with_memstore() {
        agree_with_memstore([None, None, None]);
        agree_with_memstore([Some("http://x/s1"), None, None]);
        agree_with_memstore([None, Some("http://x/p1"), None]);
        agree_with_memstore([None, None, Some("http://x/o2")]);
        agree_with_memstore([Some("http://x/s1"), Some("http://x/p1"), None]);
        agree_with_memstore([Some("http://x/s1"), None, Some("http://x/o2")]);
        agree_with_memstore([None, Some("http://x/p1"), Some("http://x/o2")]);
        agree_with_memstore([
            Some("http://x/s1"),
            Some("http://x/p1"),
            Some("http://x/o1"),
        ]);
    }

    #[test]
    fn estimates_are_exact_with_all_indexes() {
        let g = graph();
        let s = NativeStore::from_graph(&g);
        for pattern in [
            [None, None, None],
            [s.resolve(&Term::iri("http://x/s1")), None, None],
            [None, s.resolve(&Term::iri("http://x/p0")), None],
            [None, None, s.resolve(&Term::iri("http://x/o3"))],
        ] {
            let exact = s.scan(pattern).count() as u64;
            assert_eq!(s.estimate(pattern), exact, "pattern {pattern:?}");
        }
    }

    #[test]
    fn spo_only_still_answers_everything() {
        let g = graph();
        let s = NativeStore::with_indexes(&g, IndexSelection::spo_only());
        let p0 = s.resolve(&Term::iri("http://x/p0")).unwrap();
        let full = NativeStore::from_graph(&g);
        let p0f = full.resolve(&Term::iri("http://x/p0")).unwrap();
        assert_eq!(
            s.scan([None, Some(p0), None]).count(),
            full.scan([None, Some(p0f), None]).count()
        );
        // No run has `p` as a prefix, so the estimate is the whole run's
        // width: an upper bound, not a count.
        assert_eq!(s.estimate([None, Some(p0), None]), s.len() as u64);
    }

    #[test]
    fn point_lookup_finds_single_triple() {
        let g = graph();
        let s = NativeStore::from_graph(&g);
        let sp = s.resolve(&Term::iri("http://x/special")).unwrap();
        let p0 = s.resolve(&Term::iri("http://x/p0")).unwrap();
        let v = s.resolve(&Term::Literal(Literal::integer(42))).unwrap();
        let hits: Vec<_> = s.scan([Some(sp), Some(p0), Some(v)]).collect();
        assert_eq!(hits.len(), 1);
        assert!(s.contains([Some(sp), None, None]));
    }

    #[test]
    fn scan_chunks_concatenate_to_scan_order() {
        let g = graph();
        let s = NativeStore::from_graph(&g);
        let p1 = s.resolve(&Term::iri("http://x/p1"));
        let o2 = s.resolve(&Term::iri("http://x/o2"));
        for pattern in [
            [None, None, None],
            [None, p1, None],
            [None, p1, o2], // full prefix on the POS run
            [s.resolve(&Term::iri("http://x/s1")), None, o2],
        ] {
            let sequential: Vec<IdTriple> = s.scan(pattern).collect();
            for n in [1, 2, 3, 7, 64] {
                let chunks = s.scan_chunks(pattern, n);
                assert!(chunks.len() <= n.max(1), "at most n chunks");
                let chunked: Vec<IdTriple> = chunks.into_iter().flat_map(ScanChunk::iter).collect();
                assert_eq!(chunked, sequential, "pattern {pattern:?} n {n}");
            }
        }
    }

    #[test]
    fn scan_chunks_of_empty_range_are_empty() {
        let g = graph();
        let s = NativeStore::from_graph(&g);
        // An id that exists only as an object never matches as predicate:
        // the range is empty, so there is nothing to partition.
        let o1 = s.resolve(&Term::iri("http://x/o1"));
        assert!(s.scan_chunks([None, o1, None], 4).is_empty());
    }

    #[test]
    fn empty_store_behaves() {
        let s = NativeStore::from_graph(&Graph::new());
        assert!(s.is_empty());
        assert_eq!(s.scan([None, None, None]).count(), 0);
        assert_eq!(s.estimate([None, None, None]), 0);
    }
}
