//! RDF terms: IRIs, blank nodes and literals.
//!
//! Positions are typed the way the RDF abstract syntax restricts them:
//! subjects are IRIs or blank nodes ([`Subject`]), predicates are IRIs
//! ([`Iri`]) and objects are any [`Term`]. The benchmark only needs plain,
//! `xsd:string`- and `xsd:integer`-typed literals, but [`Literal`] carries
//! an arbitrary datatype IRI and an optional language tag so the model is
//! complete.

use std::cmp::Ordering;
use std::fmt;

use crate::vocab::xsd;

/// An IRI (the paper calls these URIs), stored in full resolved form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(pub String);

impl Iri {
    /// Creates an IRI from anything string-like.
    pub fn new(iri: impl Into<String>) -> Self {
        Iri(iri.into())
    }

    /// The full IRI string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri(s.to_owned())
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri(s)
    }
}

/// A blank node, identified by its local label (without the `_:` prefix).
///
/// The generator mints labels like `Givenname_Lastname` for persons and
/// `references17` for citation bags, exactly as Section IV describes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(pub String);

impl BlankNode {
    /// Creates a blank node with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        BlankNode(label.into())
    }

    /// The label (without the `_:` prefix).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a datatype IRI or a language
/// tag (or neither, for plain literals).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The lexical form (unescaped).
    pub lexical: String,
    /// Datatype IRI, if the literal is typed.
    pub datatype: Option<Iri>,
    /// Language tag, if the literal is language-tagged (mutually exclusive
    /// with `datatype` in RDF 1.0, which the benchmark follows).
    pub language: Option<String>,
}

impl Literal {
    /// A plain (untyped, untagged) literal.
    pub fn plain(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// An `xsd:string`-typed literal — the form the generator emits for
    /// all textual attribute values.
    pub fn string(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: Some(Iri::new(xsd::STRING)),
            language: None,
        }
    }

    /// An `xsd:integer`-typed literal — used for years, months, volumes…
    pub fn integer(value: i64) -> Self {
        Literal {
            lexical: value.to_string(),
            datatype: Some(Iri::new(xsd::INTEGER)),
            language: None,
        }
    }

    /// A literal with an explicit datatype IRI.
    pub fn typed(lexical: impl Into<String>, datatype: Iri) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: Some(datatype),
            language: None,
        }
    }

    /// True if the datatype is `xsd:integer` and the lexical form parses.
    pub fn as_integer(&self) -> Option<i64> {
        self.as_ref().as_integer()
    }

    /// True if this is a plain or `xsd:string` literal.
    pub fn is_stringish(&self) -> bool {
        self.as_ref().is_stringish()
    }

    /// The borrowed view of this literal.
    pub fn as_ref(&self) -> LiteralRef<'_> {
        LiteralRef {
            lexical: &self.lexical,
            datatype: self.datatype.as_ref().map(Iri::as_str),
            language: self.language.as_deref(),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A [`Literal`] whose strings are borrowed — from an owned literal, or
/// from wherever a store keeps its terms. `Copy`; everything an owned
/// literal answers (value views, `Display`) is defined here, and
/// [`Literal`] delegates, so the two cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LiteralRef<'a> {
    /// The lexical form (unescaped).
    pub lexical: &'a str,
    /// Datatype IRI, if the literal is typed.
    pub datatype: Option<&'a str>,
    /// Language tag, if the literal is language-tagged.
    pub language: Option<&'a str>,
}

impl<'a> LiteralRef<'a> {
    /// True if the datatype is `xsd:integer` and the lexical form parses.
    pub fn as_integer(&self) -> Option<i64> {
        match self.datatype {
            Some(xsd::INTEGER) => self.lexical.parse().ok(),
            _ => None,
        }
    }

    /// True if this is a plain or `xsd:string` literal.
    pub fn is_stringish(&self) -> bool {
        match self.datatype {
            None => self.language.is_none(),
            Some(dt) => dt == xsd::STRING,
        }
    }

    /// The literal's value, for the datatypes SPARQL value comparisons
    /// know: what `=`, `<` and a store's value ranks all classify a
    /// literal by, so they cannot disagree.
    pub fn value(&self) -> LitValue<'a> {
        if let Some(i) = self.as_integer() {
            return LitValue::Int(i);
        }
        if self.is_stringish() {
            return LitValue::Str(self.lexical);
        }
        if self.datatype == Some(xsd::BOOLEAN) {
            match self.lexical {
                "true" | "1" => return LitValue::Bool(true),
                "false" | "0" => return LitValue::Bool(false),
                _ => {}
            }
        }
        LitValue::Opaque
    }

    /// An owned copy.
    pub fn to_literal(&self) -> Literal {
        Literal {
            lexical: self.lexical.to_owned(),
            datatype: self.datatype.map(Iri::new),
            language: self.language.map(str::to_owned),
        }
    }
}

impl fmt::Display for LiteralRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", self.lexical)?;
        if let Some(lang) = self.language {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// A literal's value ([`LiteralRef::value`]): an integer, a string or a
/// boolean, or none SPARQL comparisons know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LitValue<'a> {
    /// A well-formed `xsd:integer`, by value.
    Int(i64),
    /// A plain or `xsd:string` literal, by lexical form.
    Str(&'a str),
    /// A well-formed `xsd:boolean`, by value.
    Bool(bool),
    /// Any other literal: equal only to itself.
    Opaque,
}

/// Any RDF term: the object position of a triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI.
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// The IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// True for blank nodes.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The borrowed view of this term.
    pub fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(i) => TermRef::Iri(i.as_str()),
            Term::Blank(b) => TermRef::Blank(b.as_str()),
            Term::Literal(l) => TermRef::Literal(l.as_ref()),
        }
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order over terms, following the SPARQL `ORDER BY` convention:
/// blank nodes sort before IRIs, which sort before literals; within a kind
/// the comparison is lexical, except that integer literals sort by value
/// before every other literal (see [`TermRef`]'s `Ord`). The `FILTER`
/// comparisons (`?yr2 < ?yr`) live in the SPARQL expression layer; this
/// `Ord` exists so results can be sorted deterministically.
impl Ord for Term {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A [`Term`] whose strings are borrowed: what a dictionary hands out
/// for an id, and what an owned term lends ([`Term::as_ref`]) so one
/// comparison, one `Display` and one hash serve both. `Copy`, and
/// building one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermRef<'a> {
    /// An IRI, in full resolved form.
    Iri(&'a str),
    /// A blank node, by label (without the `_:` prefix).
    Blank(&'a str),
    /// A literal.
    Literal(LiteralRef<'a>),
}

impl TermRef<'_> {
    /// An owned copy.
    pub fn to_term(&self) -> Term {
        match self {
            TermRef::Iri(i) => Term::iri(*i),
            TermRef::Blank(b) => Term::blank(*b),
            TermRef::Literal(l) => Term::Literal(l.to_literal()),
        }
    }

    /// Rank used for cross-kind ordering (SPARQL `ORDER BY` total order:
    /// blank nodes < IRIs < literals).
    fn kind_rank(&self) -> u8 {
        match self {
            TermRef::Blank(_) => 0,
            TermRef::Iri(_) => 1,
            TermRef::Literal(_) => 2,
        }
    }
}

impl PartialOrd for TermRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TermRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (TermRef::Blank(a), TermRef::Blank(b)) => a.cmp(b),
            (TermRef::Iri(a), TermRef::Iri(b)) => a.cmp(b),
            // Integers compare by value so ORDER BY ?yr is chronological
            // rather than lexicographic, and sort before every other
            // literal: ordering an integer against a string by lexical
            // form would make `"2"^^xsd:integer < "10"^^xsd:integer <
            // "15x" < "2"^^xsd:integer` a cycle. The lexical form breaks
            // ties between equal values (`"01"`, `"1"`).
            (TermRef::Literal(a), TermRef::Literal(b)) => match (a.as_integer(), b.as_integer()) {
                (Some(x), Some(y)) => x.cmp(&y).then_with(|| a.lexical.cmp(b.lexical)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => {
                    (a.lexical, a.datatype, a.language).cmp(&(b.lexical, b.datatype, b.language))
                }
            },
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl fmt::Display for TermRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermRef::Iri(i) => write!(f, "<{i}>"),
            TermRef::Blank(b) => write!(f, "_:{b}"),
            TermRef::Literal(l) => l.fmt(f),
        }
    }
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(t: &'a Term) -> Self {
        t.as_ref()
    }
}

impl<'a> From<&'a Iri> for TermRef<'a> {
    fn from(i: &'a Iri) -> Self {
        TermRef::Iri(i.as_str())
    }
}

impl<'a> From<&'a Subject> for TermRef<'a> {
    fn from(s: &'a Subject) -> Self {
        match s {
            Subject::Iri(i) => TermRef::Iri(i.as_str()),
            Subject::Blank(b) => TermRef::Blank(b.as_str()),
        }
    }
}

impl From<Iri> for Term {
    fn from(i: Iri) -> Self {
        Term::Iri(i)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

/// The subject position of a triple: an IRI or a blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subject {
    /// An IRI subject.
    Iri(Iri),
    /// A blank-node subject.
    Blank(BlankNode),
}

impl Subject {
    /// Convenience constructor for an IRI subject.
    pub fn iri(iri: impl Into<String>) -> Self {
        Subject::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank-node subject.
    pub fn blank(label: impl Into<String>) -> Self {
        Subject::Blank(BlankNode::new(label))
    }

    /// Widens to a [`Term`].
    pub fn to_term(&self) -> Term {
        match self {
            Subject::Iri(i) => Term::Iri(i.clone()),
            Subject::Blank(b) => Term::Blank(b.clone()),
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Iri(i) => i.fmt(f),
            Subject::Blank(b) => b.fmt(f),
        }
    }
}

impl From<Iri> for Subject {
    fn from(i: Iri) -> Self {
        Subject::Iri(i)
    }
}

impl From<BlankNode> for Subject {
    fn from(b: BlankNode) -> Self {
        Subject::Blank(b)
    }
}

impl TryFrom<Term> for Subject {
    type Error = Term;

    fn try_from(t: Term) -> Result<Self, Term> {
        match t {
            Term::Iri(i) => Ok(Subject::Iri(i)),
            Term::Blank(b) => Ok(Subject::Blank(b)),
            other @ Term::Literal(_) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_constructors() {
        let s = Literal::string("Journal 1 (1940)");
        assert_eq!(s.datatype.as_ref().unwrap().as_str(), xsd::STRING);
        assert!(s.is_stringish());
        assert_eq!(s.as_integer(), None);

        let i = Literal::integer(1940);
        assert_eq!(i.as_integer(), Some(1940));
        assert!(!i.is_stringish());

        let p = Literal::plain("hello");
        assert!(p.is_stringish());
    }

    #[test]
    fn term_display_forms() {
        assert_eq!(Term::iri("http://a/b").to_string(), "<http://a/b>");
        assert_eq!(Term::blank("John_Due").to_string(), "_:John_Due");
        assert_eq!(
            Term::Literal(Literal::integer(7)).to_string(),
            "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::Literal(Literal::plain("x")).to_string(), "\"x\"");
        let mut lang = Literal::plain("chat");
        lang.language = Some("fr".into());
        assert_eq!(Term::Literal(lang).to_string(), "\"chat\"@fr");
    }

    #[test]
    fn term_ordering_ranks_kinds() {
        let b = Term::blank("a");
        let i = Term::iri("http://a");
        let l = Term::Literal(Literal::plain("a"));
        assert!(b < i);
        assert!(i < l);
    }

    #[test]
    fn integer_literals_order_numerically() {
        let two = Term::Literal(Literal::integer(2));
        let ten = Term::Literal(Literal::integer(10));
        assert!(
            two < ten,
            "2 must sort before 10 despite lexicographic order"
        );
    }

    #[test]
    fn integers_sort_before_other_literals() {
        let int = |i| Term::Literal(Literal::integer(i));
        let one = Term::Literal(Literal::typed("01", Iri::new(xsd::INTEGER)));
        let plain = Term::Literal(Literal::plain("15x"));
        // By value 2 < 10, by text "10" < "15x" < "2": integers go first.
        assert!(int(2) < int(10) && int(10) < plain && int(2) < plain);
        // Equal values, distinct terms: never `Equal`.
        assert_eq!(one.cmp(&int(1)), Ordering::Less);
        assert!(int(0) < one && one < int(2));
    }

    #[test]
    fn literal_values() {
        let boolean = |lex: &str| Literal::typed(lex, Iri::new(xsd::BOOLEAN));
        assert_eq!(Literal::integer(-3).as_ref().value(), LitValue::Int(-3));
        assert_eq!(Literal::plain("a").as_ref().value(), LitValue::Str("a"));
        assert_eq!(Literal::string("a").as_ref().value(), LitValue::Str("a"));
        assert_eq!(boolean("1").as_ref().value(), LitValue::Bool(true));
        assert_eq!(boolean("false").as_ref().value(), LitValue::Bool(false));
        assert_eq!(boolean("yes").as_ref().value(), LitValue::Opaque);
        let ill_typed = Literal::typed("15x", Iri::new(xsd::INTEGER));
        assert_eq!(ill_typed.as_ref().value(), LitValue::Opaque);
        let mut tagged = Literal::plain("a");
        tagged.language = Some("en".into());
        assert_eq!(tagged.as_ref().value(), LitValue::Opaque);
    }

    #[test]
    fn subject_round_trips_through_term() {
        let s = Subject::blank("p1");
        let t = s.to_term();
        assert_eq!(Subject::try_from(t).unwrap(), s);
        let lit = Term::Literal(Literal::plain("no"));
        assert!(Subject::try_from(lit).is_err());
    }
}
