//! The arena dictionary against the obvious one. A `HashMap<Term, Id>`
//! plus a `Vec<Term>` is the reference model; seeded random terms —
//! drawn from a small pool of strings so that repeats, empties,
//! non-ASCII text and terms that differ in one field only are the rule —
//! go into both, and every observable answer must agree.

use std::collections::HashMap;

use sp2b_datagen::rng::SplitMix64;
use sp2b_rdf::{Iri, Literal, Term};
use sp2b_store::{Dictionary, Id};

/// Strings chosen to collide: prefixes of each other, the two halves of
/// a field-boundary twin, multi-byte characters, and the empty string.
const POOL: &[&str] = &[
    "",
    "a",
    "ab",
    "abc",
    "b",
    "bc",
    "c",
    "en",
    "é",
    "éa",
    "日本語",
    "a\u{301}",
    "🦀",
    "http://x/a",
    "http://www.w3.org/2001/XMLSchema#string",
    "http://www.w3.org/2001/XMLSchema#integer",
    "7",
    "07",
];

fn pick(rng: &mut SplitMix64) -> String {
    // One draw in four is fresh text, so the dictionary keeps growing.
    if rng.next_u64().is_multiple_of(4) {
        format!(
            "{}{}",
            POOL[rng.next_u64() as usize % POOL.len()],
            rng.next_u64() % 5000
        )
    } else {
        POOL[rng.next_u64() as usize % POOL.len()].to_owned()
    }
}

fn random_term(rng: &mut SplitMix64) -> Term {
    let text = pick(rng);
    match rng.next_u64() % 6 {
        0 => Term::iri(text),
        1 => Term::blank(text),
        2 => Term::Literal(Literal::plain(text)),
        3 => Term::Literal(Literal::typed(text, Iri::new(pick(rng)))),
        kind => {
            let mut l = Literal::plain(text);
            l.language = Some(pick(rng));
            if kind == 5 {
                l.datatype = Some(Iri::new(pick(rng)));
            }
            Term::Literal(l)
        }
    }
}

/// The reference: first-seen dense ids over owned terms.
#[derive(Default)]
struct Model {
    ids: HashMap<Term, Id>,
    terms: Vec<Term>,
}

impl Model {
    fn encode(&mut self, term: &Term) -> Id {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = self.terms.len() as Id;
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }
}

/// Every term the model holds has its id, and every id its term.
fn assert_agrees(dict: &Dictionary, model: &Model, seed: u64) {
    assert_eq!(dict.len(), model.terms.len(), "seed {seed}");
    for (id, term) in model.terms.iter().enumerate() {
        let id = id as Id;
        assert_eq!(dict.lookup(term), Some(id), "seed {seed}: lookup of {term}");
        assert_eq!(
            dict.decode(id),
            term.as_ref(),
            "seed {seed}: decode of {id}"
        );
    }
}

#[test]
fn random_terms_get_the_models_ids_through_every_growth() {
    for seed in [1, 2, 3, 0xDEAD_BEEF] {
        let mut rng = SplitMix64::new(seed);
        let (mut dict, mut model) = (Dictionary::new(), Model::default());
        for _ in 0..30_000 {
            let term = random_term(&mut rng);
            let before = dict.len();
            assert_eq!(
                dict.encode(&term),
                model.encode(&term),
                "seed {seed}: {term}"
            );
            // The table doubles when a term would fill it past three
            // quarters: at 13, 25, 49, … terms. Right after each
            // doubling (and after every new term while that is cheap)
            // nothing interned so far may have moved out of reach.
            let len = dict.len();
            let doubled = (len - 1) % 12 == 0 && ((len - 1) / 12).is_power_of_two();
            if len > before && (len <= 200 || doubled) {
                assert_agrees(&dict, &model, seed);
            }
        }
        assert!(model.terms.len() > 5000, "seed {seed}: the run must grow");
        assert_agrees(&dict, &model, seed);

        // Owned round trip, the id-order iterator, and a clone.
        let copy = dict.clone();
        for ((id, term), owned) in dict.iter().zip(&model.terms) {
            assert_eq!(&term.to_term(), owned, "seed {seed}: id {id}");
            assert_eq!(copy.lookup(term), Some(id));
        }

        // Terms the model never saw are absent — and stay absent.
        let mut absent = 0;
        while absent < 2000 {
            let term = random_term(&mut rng);
            if !model.ids.contains_key(&term) {
                assert_eq!(dict.lookup(&term), None, "seed {seed}: {term}");
                absent += 1;
            }
        }
        assert_eq!(dict.len(), model.terms.len());

        // The borrowed view orders and prints as the owned term does.
        for _ in 0..20_000 {
            let a = rng.next_u64() as usize % model.terms.len();
            let b = rng.next_u64() as usize % model.terms.len();
            let (ta, tb) = (&model.terms[a], &model.terms[b]);
            let (ra, rb) = (dict.decode(a as Id), dict.decode(b as Id));
            assert_eq!(ra.cmp(&rb), ta.cmp(tb), "seed {seed}: {ta} vs {tb}");
            assert_eq!(ra == rb, ta == tb);
            assert_eq!(ra.to_string(), ta.to_string());
        }
    }
}

#[test]
fn terms_that_differ_in_one_respect_are_different_terms() {
    let typed = |lexical: &str, dt: &str| Term::Literal(Literal::typed(lexical, Iri::new(dt)));
    let tagged = |lexical: &str, lang: &str, dt: Option<&str>| {
        let mut l = Literal::plain(lexical);
        l.language = Some(lang.to_owned());
        l.datatype = dt.map(Iri::new);
        Term::Literal(l)
    };
    let zoo = [
        // One text, three kinds.
        Term::iri("a"),
        Term::blank("a"),
        Term::Literal(Literal::plain("a")),
        // Field-boundary twins: the same bytes, cut differently.
        typed("ab", "c"),
        typed("a", "bc"),
        typed("abc", ""),
        typed("", "abc"),
        tagged("ab", "c", None),
        tagged("a", "bc", None),
        tagged("a", "c", Some("b")),
        tagged("a", "bc", Some("")),
        tagged("a", "", Some("bc")),
        // Only the datatype, or only the language, differs.
        typed("7", "http://www.w3.org/2001/XMLSchema#integer"),
        typed("7", "http://www.w3.org/2001/XMLSchema#string"),
        tagged("chat", "fr", None),
        tagged("chat", "en", None),
        // Absent is not empty.
        Term::Literal(Literal::plain("")),
        typed("", ""),
        tagged("", "", None),
        tagged("", "", Some("")),
        Term::iri(""),
        Term::blank(""),
        // Multi-byte text on both sides of a boundary.
        typed("é", "é"),
        typed("éé", ""),
    ];
    let mut dict = Dictionary::new();
    for (i, term) in zoo.iter().enumerate() {
        assert_eq!(dict.lookup(term), None, "{term} before it is interned");
        assert_eq!(dict.encode(term), i as Id, "{term} is a term of its own");
    }
    for (i, term) in zoo.iter().enumerate() {
        assert_eq!(dict.encode(term), i as Id, "{term} is found again");
        assert_eq!(dict.decode(i as Id).to_term(), *term);
    }
    assert_eq!(dict.len(), zoo.len());
}

#[test]
fn the_dictionary_is_plain_shared_data() {
    fn plain<T: Clone + Send + Sync>() {}
    plain::<Dictionary>();
    let mut dict = Dictionary::new();
    assert_eq!(dict.heap_bytes(), 0, "an empty dictionary owns nothing");
    dict.encode(&Term::iri("http://x/a"));
    assert!(dict.heap_bytes() >= "http://x/a".len());
}
