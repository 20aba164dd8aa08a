//! Property tests: the native store's sorted runs agree with
//! the scan-based memory store on every access pattern, and its
//! cardinality estimates are exact.

use proptest::prelude::*;

use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_store::{IndexSelection, MemStore, NativeStore, Pattern, TripleStore};

fn graph_strategy() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u8..10, 0u8..5, 0u8..12), 0..80).prop_map(|v| {
        let mut g = Graph::new();
        for (s, p, o) in v {
            let object: Term = if o % 3 == 0 {
                Term::Literal(Literal::integer(o as i64))
            } else {
                Term::iri(format!("http://x/o{o}"))
            };
            g.add(
                Subject::iri(format!("http://x/s{s}")),
                Iri::new(format!("http://x/p{p}")),
                object,
            );
        }
        g
    })
}

/// All 8 bound/unbound combinations over a probe triple.
fn patterns_for(store: &dyn TripleStore, s: u8, p: u8, o: u8) -> Vec<Pattern> {
    let sid = store.resolve(&Term::iri(format!("http://x/s{s}")));
    let pid = store.resolve(&Term::iri(format!("http://x/p{p}")));
    let oid = store.resolve(&Term::iri(format!("http://x/o{o}")));
    let mut out = Vec::new();
    for mask in 0..8u8 {
        out.push([
            if mask & 1 != 0 { sid } else { None },
            if mask & 2 != 0 { pid } else { None },
            if mask & 4 != 0 { oid } else { None },
        ]);
    }
    out
}

fn decode_sorted(store: &dyn TripleStore, pattern: Pattern) -> Vec<String> {
    let dict = store.dictionary();
    let mut rows: Vec<String> = store
        .scan(pattern)
        .map(|t| format!("{} {} {}", dict.decode(t[0]), dict.decode(t[1]), dict.decode(t[2])))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn native_agrees_with_mem_on_all_patterns(
        g in graph_strategy(),
        s in 0u8..10, p in 0u8..5, o in 0u8..12,
    ) {
        let mem = MemStore::from_graph(&g);
        let native = NativeStore::from_graph(&g);
        // Patterns are resolved per store (ids differ) but bind the same
        // terms by construction.
        let mem_patterns = patterns_for(&mem, s, p, o);
        let native_patterns = patterns_for(&native, s, p, o);
        for (mp, np) in mem_patterns.into_iter().zip(native_patterns) {
            // Skip pattern pairs where term resolution differs (a term
            // absent in the data resolves to None in both stores, so this
            // only guards the mask alignment).
            prop_assert_eq!(decode_sorted(&mem, mp), decode_sorted(&native, np));
        }
    }

    #[test]
    fn native_estimates_are_exact(
        g in graph_strategy(),
        s in 0u8..10, p in 0u8..5, o in 0u8..12,
    ) {
        let native = NativeStore::from_graph(&g);
        for pattern in patterns_for(&native, s, p, o) {
            let exact = native.scan(pattern).count() as u64;
            prop_assert_eq!(native.estimate(pattern), exact, "pattern {:?}", pattern);
        }
    }

    #[test]
    fn spo_only_store_agrees_with_full_store(
        g in graph_strategy(),
        s in 0u8..10, p in 0u8..5, o in 0u8..12,
    ) {
        let full = NativeStore::from_graph(&g);
        let spo = NativeStore::with_indexes(&g, IndexSelection::spo_only());
        let full_patterns = patterns_for(&full, s, p, o);
        let spo_patterns = patterns_for(&spo, s, p, o);
        for (fp, sp) in full_patterns.into_iter().zip(spo_patterns) {
            prop_assert_eq!(decode_sorted(&full, fp), decode_sorted(&spo, sp));
        }
    }

    #[test]
    fn mem_estimates_are_upper_bounds(
        g in graph_strategy(),
        s in 0u8..10, p in 0u8..5,
    ) {
        let mem = MemStore::from_graph(&g);
        for pattern in patterns_for(&mem, s, p, 0) {
            let exact = mem.scan(pattern).count() as u64;
            prop_assert!(mem.estimate(pattern) >= exact);
        }
    }

    #[test]
    fn dictionary_roundtrips_random_graphs(g in graph_strategy()) {
        let native = NativeStore::from_graph(&g);
        let dict = native.dictionary();
        for (id, term) in dict.iter() {
            prop_assert_eq!(dict.lookup(term), Some(id));
        }
    }
}
