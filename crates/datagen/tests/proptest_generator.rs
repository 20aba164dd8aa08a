//! Seeded property tests for the generator's contract: determinism,
//! incrementality, exact triple limits, and structural invariants — for
//! arbitrary seeds and limits, not just the defaults.
//!
//! Each case comes from a seed printed in every assertion message;
//! `SP2B_SEED=<n> cargo test -p sp2b-datagen --test proptest_generator`
//! replays that one case.

use std::collections::HashSet;

use sp2b_datagen::rng::SplitMix64;
use sp2b_datagen::{generate_graph, Config, DocClass};
use sp2b_rdf::vocab::{bench, dc, foaf, rdf};
use sp2b_rdf::Term;

/// Cases per property.
const CASES: u64 = 24;

/// The seeds to run: every case, or the one `SP2B_SEED` names.
fn seeds() -> Vec<u64> {
    match std::env::var("SP2B_SEED") {
        Ok(seed) => vec![seed.parse().expect("SP2B_SEED is a number")],
        Err(_) => (0..CASES).collect(),
    }
}

/// Draws from one case's seed.
struct Gen(SplitMix64);

impl Gen {
    fn new(case: u64) -> Self {
        Gen(SplitMix64::new(case))
    }

    /// A document seed: any `u64`.
    fn seed(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A value in `lo..hi`.
    fn within(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.0.next_u64() % (hi - lo)
    }
}

#[test]
fn triple_limit_is_exact_for_any_limit() {
    for case in seeds() {
        let mut gen = Gen::new(case);
        let (limit, seed) = (gen.within(50, 4_000), gen.seed());
        let (g, stats) = generate_graph(Config::triples(limit).with_seed(seed));
        assert_eq!(g.len() as u64, limit, "case {case}: seed {seed}");
        assert_eq!(stats.triples, limit, "case {case}: seed {seed}");
    }
}

#[test]
fn same_seed_same_output() {
    for case in seeds() {
        let mut gen = Gen::new(case);
        let (limit, seed) = (gen.within(100, 2_000), gen.seed());
        let (a, _) = generate_graph(Config::triples(limit).with_seed(seed));
        let (b, _) = generate_graph(Config::triples(limit).with_seed(seed));
        assert!(a == b, "case {case}: seed {seed}, {limit} triples");
    }
}

#[test]
fn smaller_documents_are_prefixes() {
    for case in seeds() {
        let mut gen = Gen::new(case);
        let seed = gen.seed();
        let small = gen.within(100, 1_000);
        let large = small + gen.within(1, 2_000);
        let (small_doc, _) = generate_graph(Config::triples(small).with_seed(seed));
        let (large_doc, _) = generate_graph(Config::triples(large).with_seed(seed));
        assert!(
            small_doc.as_slice() == &large_doc.as_slice()[..small as usize],
            "case {case}: seed {seed}, {small} of {large} triples"
        );
    }
}

#[test]
fn persons_are_introduced_before_use() {
    // Referential consistency under truncation: every dc:creator object
    // must already be typed foaf:Person earlier in the stream.
    for case in seeds() {
        let seed = Gen::new(case).seed();
        let (g, _) = generate_graph(Config::triples(3_000).with_seed(seed));
        let mut persons: HashSet<String> = HashSet::new();
        for t in g.iter() {
            if t.predicate.as_str() == rdf::TYPE {
                if let Term::Iri(class) = &t.object {
                    if class.as_str() == foaf::PERSON {
                        persons.insert(t.subject.to_term().to_string());
                    }
                }
            }
            if t.predicate.as_str() == dc::CREATOR {
                assert!(
                    persons.contains(&t.object.to_string()),
                    "case {case}: seed {seed}: creator {} referenced before introduction",
                    t.object
                );
            }
        }
    }
}

#[test]
fn author_names_unique_per_document() {
    for case in seeds() {
        let seed = Gen::new(case).seed();
        let (g, _) = generate_graph(Config::triples(5_000).with_seed(seed));
        let mut names = HashSet::new();
        for t in g.with_predicate(foaf::NAME) {
            let lex = &t.object.as_literal().expect("names are literals").lexical;
            assert!(
                names.insert(lex.clone()),
                "case {case}: seed {seed}: duplicate author name {lex}"
            );
        }
    }
}

#[test]
fn stats_counts_match_document_content() {
    for case in seeds() {
        let mut gen = Gen::new(case);
        let (seed, limit) = (gen.seed(), gen.within(1_000, 6_000));
        let (g, stats) = generate_graph(Config::triples(limit).with_seed(seed));
        // A document's rdf:type triple comes first, so a truncated
        // document is typed if it is counted at all.
        let articles = g.instances_of(bench::ARTICLE).count() as u64;
        let at = format!("case {case}: seed {seed}, {limit} triples");
        assert_eq!(stats.count(DocClass::Article), articles, "{at}");
        let creators = g.with_predicate(dc::CREATOR).count() as u64;
        assert_eq!(stats.total_authors, creators, "{at}");
    }
}
