//! Dictionary encoding: RDF terms ↔ dense integer ids.
//!
//! Both stores map every distinct term to a `u32` id at load time and
//! evaluate queries entirely over ids; terms are read again only when
//! rendering results, sorting them (ORDER BY decodes each row's keys
//! once, when the row arrives, never per comparison), or comparing a
//! literal the value ranks below do not cover. This is the standard RDF storage
//! technique the paper's "native engines" rely on, and the ablation
//! benchmark (`DESIGN.md` §7.4) quantifies what it buys.
//!
//! **Value ranks.** Ids are first-seen order, which says nothing about
//! values, so by ids alone a `FILTER (?name1 < ?name2)` needs both
//! names' text. [`Dictionary::value_key`] answers it from a side table:
//! each literal with a value mapping ([`sp2b_rdf::LitValue`]) gets a
//! [`ValueKey`] — its class (`xsd:integer` by value, plain and
//! `xsd:string` by lexical form, `xsd:boolean`) and its dense rank among
//! the class's values, equal values sharing a rank — and every other
//! term gets none. Two keys of one class order exactly as their values
//! do; keys of two classes are two value spaces. The table is built on
//! the first call, one pass over the terms and a sort per class (≈4.5 ms
//! for the 26 813 terms of 50k triples), and dropped when a term is
//! added, so a store that only loads, saves or serves lookups need not
//! pay for it; [`Dictionary::rank_values`] builds it ahead of the first
//! query, as `sp2b_core`'s engines do inside their timed load.
//! Renumbering ids into value order would give the same comparisons
//! without the table, but would change every saved id and the order
//! rows come out in.
//!
//! A term is stored once, as bytes. Its strings are appended to one text
//! arena, `spans[id]` records where they sit and what kind of term they
//! make, and an open-addressing table of `(hash tag, id)` slots finds an
//! id by hashing the *borrowed* fields of the term asked about and
//! comparing them with arena slices. A hit allocates nothing; a miss
//! copies the term's bytes once; [`Dictionary::decode`] lends the arena
//! back as a [`TermRef`] without building a `Term`.

use std::hash::Hasher;
use std::sync::OnceLock;

use sp2b_rdf::{LitValue, LiteralRef, TermRef, TripleRef};

use crate::hash::FxHasher;

/// A dictionary-encoded term identifier.
pub type Id = u32;

/// Debug-build-only process-wide count of [`Dictionary::decode`] calls.
/// Lets tests assert that counting paths never read terms back; release
/// builds (the benchmarks) pay nothing.
#[cfg(debug_assertions)]
pub static DECODE_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// An encoded triple in (s, p, o) id order.
pub type IdTriple = [Id; 3];

/// Why a term could not be interned: the dictionary has outgrown the
/// width of its offsets or ids. Display is one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DictionaryFull(&'static str);

impl std::fmt::Display for DictionaryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// An arena position as a span stores it.
fn offset(at: usize) -> Result<u32, DictionaryFull> {
    u32::try_from(at)
        .map_err(|_| DictionaryFull("dictionary text exceeds the 4 GiB its 32-bit offsets address"))
}

/// Which strings a term is made of. With the kind known, "no datatype"
/// and "an empty datatype" are different terms although both store an
/// empty string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Iri,
    Blank,
    Plain,
    Typed,
    Lang,
    TypedLang,
}

/// A term asked about, taken apart into its kind and strings (absent
/// ones empty): the shape the table hashes and compares with the arena.
#[derive(Debug, Clone, Copy)]
struct Fields<'a> {
    kind: Kind,
    /// The lexical form of a literal; the IRI or label otherwise.
    lexical: &'a str,
    datatype: &'a str,
    language: &'a str,
}

impl<'a> Fields<'a> {
    fn of(term: TermRef<'a>) -> Self {
        let (kind, lexical, datatype, language) = match term {
            TermRef::Iri(iri) => (Kind::Iri, iri, "", ""),
            TermRef::Blank(label) => (Kind::Blank, label, "", ""),
            TermRef::Literal(l) => match (l.datatype, l.language) {
                (None, None) => (Kind::Plain, l.lexical, "", ""),
                (Some(dt), None) => (Kind::Typed, l.lexical, dt, ""),
                (None, Some(lang)) => (Kind::Lang, l.lexical, "", lang),
                (Some(dt), Some(lang)) => (Kind::TypedLang, l.lexical, dt, lang),
            },
        };
        Fields {
            kind,
            lexical,
            datatype,
            language,
        }
    }

    /// The upper half of the Fx hash of the strings, then of the kind
    /// and the field lengths (so `"ab"`+`"c"` and `"a"`+`"bc"` part
    /// ways). Its leading bits are a slot's home position, so a table
    /// can move its slots without reading a term again.
    fn tag(&self) -> u32 {
        let mut h = FxHasher::default();
        h.write(self.lexical.as_bytes());
        h.write(self.datatype.as_bytes());
        h.write(self.language.as_bytes());
        h.write_u64(
            self.kind as u64
                ^ ((self.lexical.len() as u64) << 3)
                ^ ((self.datatype.len() as u64) << 35),
        );
        (h.finish() >> 32) as u32
    }
}

/// Where term `id`'s strings sit in the arena: the lexical form at
/// `start`, the datatype after it, and the language tag from there to
/// the next term's `start`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    lexical: u32,
    datatype: u32,
    kind: Kind,
}

/// `a == b` for byte strings of one length. Most terms are one string,
/// so two of a comparison's three pairs are empty, and the query's
/// empties are `""` constants, whose pointer dangles: a zero-length
/// `memcmp` from there measured 100 ns on the benchmark host (against
/// 2 ns for a 50-byte IRI), which made it most of a lookup.
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.is_empty() || a == b
}

/// One slot of the id table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: Id,
}

/// The id of a vacant slot — the one value a term never gets.
const VACANT: Id = Id::MAX;

/// Slots of the smallest table; a power of two, as every table size is.
const MIN_SLOTS: usize = 16;

/// Slots a table needs so that `terms` fill at most three quarters of
/// it: linear probing stays short, and a vacant slot always ends a probe.
fn slots_for(terms: usize) -> usize {
    (terms.saturating_mul(4) / 3 + 1)
        .next_power_of_two()
        .max(MIN_SLOTS)
}

/// The value space of a [`ValueKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueClass {
    /// `xsd:integer` literals, by value.
    Int,
    /// Plain and `xsd:string` literals, by lexical form.
    Str,
    /// `xsd:boolean` literals, by value.
    Bool,
}

/// Where a literal's value sits among the values of its class in one
/// dictionary (see the module docs): two keys of one class compare as
/// the values do, and are equal exactly when the values are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueKey {
    /// The value space.
    pub class: ValueClass,
    /// The value's dense rank in its class.
    pub rank: u32,
}

/// Bidirectional term↔id mapping. Ids are dense and allocation order is
/// first-seen order, so encoding the same document always yields the same
/// ids (determinism end to end).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Every term's strings, back to back in id order.
    text: String,
    spans: Vec<Span>,
    /// The id table: empty, or a power of two of slots. A term's home
    /// slot is the leading bits of its tag; collisions probe linearly.
    slots: Vec<Slot>,
    /// `tag >> shift` is the home slot.
    shift: u32,
    /// Each id's [`ValueKey`], built on first use.
    keys: OnceLock<Box<[Option<ValueKey>]>>,
    /// The subject and the predicate id of the last triple encoded
    /// ([`Dictionary::encode_triple`]).
    recent: [Option<Id>; 2],
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// An empty dictionary with room for `terms` terms of `text_bytes`
    /// bytes in total, so filling it never moves the arena or the table.
    pub(crate) fn with_capacity(terms: usize, text_bytes: usize) -> Self {
        let mut dict = Dictionary {
            text: String::with_capacity(text_bytes),
            spans: Vec::with_capacity(terms),
            ..Dictionary::default()
        };
        // A table past the id space is refused when a term needs it.
        let _ = dict.resize_table(slots_for(terms));
        dict
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bytes of heap the dictionary holds: the arena, the spans and the
    /// table, each at its capacity, and the value keys once built.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self
                .keys
                .get()
                .map_or(0, |keys| std::mem::size_of_val(&**keys))
    }

    /// Interns a term, returning its id (existing or fresh). Takes a
    /// `&Term`, `&Subject`, `&Iri` or a [`TermRef`]; none is cloned.
    /// Panics when the dictionary is full ([`Dictionary::try_encode`]).
    pub fn encode<'t>(&mut self, term: impl Into<TermRef<'t>>) -> Id {
        self.try_encode(term)
            .unwrap_or_else(|full| panic!("{full}"))
    }

    /// [`Dictionary::encode`] for terms of untrusted volume: a term that
    /// would push the arena past its offsets, or the ids past `u32`, is
    /// an error and leaves the dictionary as it was.
    pub(crate) fn try_encode<'t>(
        &mut self,
        term: impl Into<TermRef<'t>>,
    ) -> Result<Id, DictionaryFull> {
        self.intern(&Fields::of(term.into()))
    }

    /// The id of the term with these fields, interned if it is new.
    fn intern(&mut self, fields: &Fields<'_>) -> Result<Id, DictionaryFull> {
        let tag = fields.tag();
        match self.find(tag, fields) {
            Some(id) => Ok(id),
            None => self.push(tag, fields),
        }
    }

    /// Encodes a whole triple: a [`TripleRef`], or a `&Triple`. A
    /// subject or predicate equal to the previous triple's takes that
    /// triple's id after one comparison with the arena, without hashing
    /// — N-Triples documents group by subject. Panics when the
    /// dictionary is full, as [`Dictionary::encode`] does.
    pub fn encode_triple<'t>(&mut self, t: impl Into<TripleRef<'t>>) -> IdTriple {
        let t = t.into();
        [
            self.encode_recent(0, t.subject),
            self.encode_recent(1, TermRef::Iri(t.predicate)),
            self.encode(t.object),
        ]
    }

    /// Interns the term at `position` (0 subject, 1 predicate) of a
    /// triple, trying the previous triple's term there first.
    fn encode_recent(&mut self, position: usize, term: TermRef<'_>) -> Id {
        let fields = Fields::of(term);
        if let Some(id) = self.recent[position].filter(|&id| self.holds(id, &fields)) {
            return id;
        }
        let id = self.intern(&fields).unwrap_or_else(|full| panic!("{full}"));
        self.recent[position] = Some(id);
        id
    }

    /// Looks up a term's id without interning.
    pub fn lookup<'t>(&self, term: impl Into<TermRef<'t>>) -> Option<Id> {
        let fields = Fields::of(term.into());
        self.find(fields.tag(), &fields)
    }

    /// Lends an id's term back, straight out of the arena. Panics on a
    /// foreign id (ids are only ever produced by this dictionary).
    #[inline]
    pub fn decode(&self, id: Id) -> TermRef<'_> {
        #[cfg(debug_assertions)]
        DECODE_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.term(id)
    }

    /// True if `id` names a literal — the one kind of term that can
    /// equal another in *value* without being the same term. Reads the
    /// id's span and no text, so `=`/`!=` between an IRI or blank node
    /// and anything else is settled by ids alone.
    #[inline]
    pub fn is_literal(&self, id: Id) -> bool {
        !matches!(self.spans[id as usize].kind, Kind::Iri | Kind::Blank)
    }

    /// The value key of term `id` (see the module docs): `None` for
    /// IRIs, blank nodes and literals without a value mapping. The first
    /// call builds the table for every term; later ones read one entry.
    #[inline]
    pub fn value_key(&self, id: Id) -> Option<ValueKey> {
        self.rank_values()[id as usize]
    }

    /// Builds the value-key table now if no call has yet, so the first
    /// comparison does not pay for it: what a caller that times its
    /// load, and not its first query, wants. Returns every id's key.
    #[inline]
    pub fn rank_values(&self) -> &[Option<ValueKey>] {
        self.keys.get_or_init(|| self.ranked())
    }

    /// Every term's [`ValueKey`]: its class, and its value's place among
    /// the distinct values of the class.
    fn ranked(&self) -> Box<[Option<ValueKey>]> {
        let mut keys: Box<[Option<ValueKey>]> = vec![None; self.len()].into();
        let (mut ints, mut strs) = (Vec::new(), Vec::new());
        for id in 0..self.len() as Id {
            let TermRef::Literal(literal) = self.term(id) else {
                continue;
            };
            match literal.value() {
                LitValue::Int(i) => ints.push((i, id)),
                LitValue::Str(s) => strs.push((s, id)),
                LitValue::Bool(b) => {
                    keys[id as usize] = Some(ValueKey {
                        class: ValueClass::Bool,
                        rank: b as u32,
                    })
                }
                LitValue::Opaque => {}
            }
        }
        fn rank<V: Ord + Copy>(
            keys: &mut [Option<ValueKey>],
            class: ValueClass,
            mut values: Vec<(V, Id)>,
        ) {
            values.sort_unstable_by_key(|&(v, _)| v);
            let mut rank = 0;
            for (i, &(value, id)) in values.iter().enumerate() {
                if i > 0 && values[i - 1].0 != value {
                    rank += 1;
                }
                keys[id as usize] = Some(ValueKey { class, rank });
            }
        }
        rank(&mut keys, ValueClass::Int, ints);
        rank(&mut keys, ValueClass::Str, strs);
        keys
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, TermRef<'_>)> {
        (0..self.spans.len() as Id).map(|id| (id, self.term(id)))
    }

    /// Where term `id`'s strings end: at the next term, or the arena's end.
    #[inline]
    fn end(&self, id: Id) -> usize {
        match self.spans.get(id as usize + 1) {
            Some(next) => next.start as usize,
            None => self.text.len(),
        }
    }

    /// Term `id`, cut out of the arena. Only the strings its kind has
    /// are sliced: a slice checks its bounds and that it starts and ends
    /// between characters, and FILTERs decode once per operand per row.
    #[inline]
    fn term(&self, id: Id) -> TermRef<'_> {
        let span = self.spans[id as usize];
        let (start, end) = (span.start as usize, self.end(id));
        let lexical = start + span.lexical as usize;
        let datatype = lexical + span.datatype as usize;
        let literal = |datatype, language| {
            TermRef::Literal(LiteralRef {
                lexical: &self.text[start..lexical],
                datatype,
                language,
            })
        };
        match span.kind {
            Kind::Iri => TermRef::Iri(&self.text[start..end]),
            Kind::Blank => TermRef::Blank(&self.text[start..end]),
            Kind::Plain => literal(None, None),
            Kind::Typed => literal(Some(&self.text[lexical..end]), None),
            Kind::Lang => literal(None, Some(&self.text[lexical..end])),
            Kind::TypedLang => literal(
                Some(&self.text[lexical..datatype]),
                Some(&self.text[datatype..end]),
            ),
        }
    }

    /// True if term `id` is made of exactly these fields: the same kind,
    /// the same cuts, the same bytes — asked of the term's bytes as they
    /// lie, without slicing them into strings first.
    fn holds(&self, id: Id, fields: &Fields<'_>) -> bool {
        let span = self.spans[id as usize];
        let (lexical, datatype, language) = (
            fields.lexical.as_bytes(),
            fields.datatype.as_bytes(),
            fields.language.as_bytes(),
        );
        let stored = &self.text.as_bytes()[span.start as usize..self.end(id)];
        if span.kind != fields.kind
            || span.lexical as usize != lexical.len()
            || span.datatype as usize != datatype.len()
            || stored.len() != lexical.len() + datatype.len() + language.len()
        {
            return false;
        }
        let (stored_lexical, rest) = stored.split_at(lexical.len());
        let (stored_datatype, stored_language) = rest.split_at(datatype.len());
        same_bytes(stored_lexical, lexical)
            && same_bytes(stored_datatype, datatype)
            && same_bytes(stored_language, language)
    }

    /// The id of the term with these fields, if it is interned.
    fn find(&self, tag: u32, fields: &Fields<'_>) -> Option<Id> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = (tag >> self.shift) as usize;
        loop {
            let slot = self.slots[at];
            if slot.id == VACANT {
                return None;
            }
            if slot.tag == tag && self.holds(slot.id, fields) {
                return Some(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends a term `find` did not, after checking that it fits.
    fn push(&mut self, tag: u32, fields: &Fields<'_>) -> Result<Id, DictionaryFull> {
        let id = Id::try_from(self.spans.len())
            .ok()
            .filter(|&id| id != VACANT)
            .ok_or(DictionaryFull(
                "dictionary holds 2^32 - 1 terms, as many as ids can name",
            ))?;
        let bytes = fields.lexical.len() + fields.datatype.len() + fields.language.len();
        let span = Span {
            start: offset(self.text.len())?,
            lexical: offset(fields.lexical.len())?,
            datatype: offset(fields.datatype.len())?,
            kind: fields.kind,
        };
        // The next term starts where this one ends, so the end must be
        // an offset too.
        offset(self.text.len().saturating_add(bytes))?;
        let slots = slots_for(self.spans.len() + 1);
        if self.slots.len() < slots {
            self.resize_table(slots)?;
        }
        self.text.push_str(fields.lexical);
        self.text.push_str(fields.datatype);
        self.text.push_str(fields.language);
        self.spans.push(span);
        self.place(Slot { tag, id });
        // A new value may fall between two ranked ones.
        self.keys = OnceLock::new();
        Ok(id)
    }

    /// Puts a slot into the first vacant position from its home.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut at = (slot.tag >> self.shift) as usize;
        while self.slots[at].id != VACANT {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    /// Moves every slot into a table of `slots` slots (a power of two).
    /// Tags carry the home position, so no term is read or hashed again.
    fn resize_table(&mut self, slots: usize) -> Result<(), DictionaryFull> {
        let bits = slots.trailing_zeros();
        if bits > u32::BITS {
            return Err(DictionaryFull(
                "dictionary table exceeds the 2^32 slots its 32-bit tags address",
            ));
        }
        let vacant = Slot { tag: 0, id: VACANT };
        let old = std::mem::replace(&mut self.slots, vec![vacant; slots]);
        self.shift = u32::BITS - bits;
        for slot in old {
            if slot.id != VACANT {
                self.place(slot);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2b_rdf::vocab::xsd;
    use sp2b_rdf::{Iri, Literal, Subject, Term, Triple};

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://a/x"),
            Term::blank("b1"),
            Term::Literal(Literal::string("hello")),
            Term::Literal(Literal::integer(42)),
        ];
        let ids: Vec<Id> = terms.iter().map(|t| d.encode(t)).collect();
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(d.decode(id), t.as_ref());
            assert_eq!(d.lookup(t), Some(id));
        }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let t = Term::iri("http://a/x");
        let a = d.encode(&t);
        let b = d.encode(&t);
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode(&Term::iri("http://a/1")), 0);
        assert_eq!(d.encode(&Term::iri("http://a/2")), 1);
        assert_eq!(d.encode(&Term::iri("http://a/1")), 0);
        assert_eq!(d.encode(&Term::iri("http://a/3")), 2);
    }

    #[test]
    fn distinct_literal_datatypes_get_distinct_ids() {
        let mut d = Dictionary::new();
        let plain = d.encode(&Term::Literal(Literal::plain("7")));
        let typed = d.encode(&Term::Literal(Literal::integer(7)));
        assert_ne!(plain, typed);
    }

    #[test]
    fn encode_triple_encodes_positions() {
        let mut d = Dictionary::new();
        let t = Triple::new(
            Subject::iri("http://a/s"),
            Iri::new("http://a/p"),
            Term::iri("http://a/s"),
        );
        let [s, p, o] = d.encode_triple(&t);
        assert_eq!(s, o, "same term must get the same id in any position");
        assert_ne!(s, p);
    }

    #[test]
    fn a_repeated_subject_or_predicate_gets_the_id_a_lookup_gives() {
        // Subjects and predicates repeat, reappear after others, turn up
        // in other positions, and differ from the previous only in kind.
        let lines = [
            ("http://a/s", "http://a/p", Term::iri("http://a/o")),
            (
                "http://a/s",
                "http://a/p",
                Term::Literal(Literal::plain("x")),
            ),
            ("http://a/s", "http://a/q", Term::iri("http://a/s")),
            ("http://a/o", "http://a/q", Term::iri("http://a/p")),
            ("http://a/s", "http://a/p", Term::blank("http://a/s")),
            ("http://a/p", "http://a/s", Term::iri("http://a/q")),
        ];
        let mut d = Dictionary::new();
        for (s, p, o) in lines {
            let blank = Triple::new(Subject::blank(s), Iri::new(p), o.clone());
            for t in [Triple::new(Subject::iri(s), Iri::new(p), o), blank] {
                let ids = d.encode_triple(&t);
                let want = [
                    d.lookup(&t.subject),
                    d.lookup(&t.predicate),
                    d.lookup(&t.object),
                ];
                assert_eq!(want, ids.map(Some), "{t}");
            }
        }
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("http://nowhere")), None);
    }

    #[test]
    fn a_sized_dictionary_fills_without_moving_and_holds_less() {
        let terms: Vec<_> = (0..1000)
            .map(|i| Term::iri(format!("http://a/{i}")))
            .collect();
        let text: usize = terms
            .iter()
            .map(|t| t.as_iri().unwrap().as_str().len())
            .sum();
        let mut grown = Dictionary::new();
        let mut sized = Dictionary::with_capacity(terms.len(), text);
        let before = sized.heap_bytes();
        for t in &terms {
            assert_eq!(grown.encode(t), sized.encode(t));
        }
        assert_eq!(sized.heap_bytes(), before, "no buffer was reallocated");
        assert!(sized.heap_bytes() <= grown.heap_bytes());
        assert!(sized.heap_bytes() >= text + terms.len() * 24);
    }

    #[test]
    fn value_keys_rank_each_class_and_follow_new_terms() {
        let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, Iri::new(dt)));
        let mut d = Dictionary::new();
        let ids: Vec<Id> = [
            Term::Literal(Literal::integer(10)),
            typed("01", xsd::INTEGER),
            Term::Literal(Literal::integer(-5)),
            Term::Literal(Literal::integer(1)),
            Term::Literal(Literal::plain("b")),
            Term::Literal(Literal::string("a")),
            Term::Literal(Literal::string("b")),
            typed("true", xsd::BOOLEAN),
            typed("0", xsd::BOOLEAN),
            typed("2000-01-01", "http://www.w3.org/2001/XMLSchema#date"),
            Term::iri("http://a/x"),
        ]
        .iter()
        .map(|t| d.encode(t))
        .collect();
        let key = |d: &Dictionary, id| d.value_key(id).map(|k| (k.class, k.rank));
        use ValueClass::{Bool, Int, Str};
        let expected = [
            Some((Int, 2)),
            Some((Int, 1)),
            Some((Int, 0)),
            Some((Int, 1)),
            Some((Str, 1)),
            Some((Str, 0)),
            Some((Str, 1)),
            Some((Bool, 1)),
            Some((Bool, 0)),
            None,
            None,
        ];
        for (&id, want) in ids.iter().zip(expected) {
            assert_eq!(key(&d, id), want, "term {}", d.decode(id));
        }
        // A value between two ranked ones re-ranks on the next call.
        let five = d.encode(&Term::Literal(Literal::integer(5)));
        assert_eq!(key(&d, five), Some((Int, 2)));
        assert_eq!(key(&d, ids[0]), Some((Int, 3)));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn positions_past_the_offset_width_are_refused_not_wrapped() {
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        let err = offset(u32::MAX as usize + 1).unwrap_err();
        assert!(err.to_string().contains("4 GiB"), "{err}");
        // A table the tags cannot address is refused before it is built.
        let mut d = Dictionary::new();
        assert!(d.resize_table(1 << 33).is_err());
        assert!(d.is_empty() && d.slots.is_empty());
    }
}
