//! RDF triples.

use std::fmt;

use crate::term::{Iri, Subject, Term, TermRef};

/// A single RDF statement `(subject, predicate, object)`.
///
/// Visualized as an edge from the subject node to the object node under the
/// predicate label (Section IV, "The RDF Data Model").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject: IRI or blank node.
    pub subject: Subject,
    /// Predicate: always an IRI.
    pub predicate: Iri,
    /// Object: any term.
    pub object: Term,
}

impl Triple {
    /// Creates a triple from its three components.
    pub fn new(
        subject: impl Into<Subject>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
    ) -> Self {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// The borrowed view of this triple.
    pub fn as_ref(&self) -> TripleRef<'_> {
        TripleRef {
            subject: (&self.subject).into(),
            predicate: self.predicate.as_str(),
            object: self.object.as_ref(),
        }
    }
}

/// A [`Triple`] whose strings are borrowed: what the N-Triples parser
/// lends out of its line buffer, what the generator emits from its own
/// buffers and what a store interns. `Copy`, and building one allocates
/// nothing. The subject is a [`TermRef`] like the object, but only an
/// IRI or a blank node makes a triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TripleRef<'a> {
    /// Subject: an IRI or a blank node.
    pub subject: TermRef<'a>,
    /// Predicate IRI.
    pub predicate: &'a str,
    /// Object: any term.
    pub object: TermRef<'a>,
}

impl TripleRef<'_> {
    /// An owned copy. Panics on a literal subject, which no parser or
    /// generator produces.
    pub fn to_triple(&self) -> Triple {
        let subject = match self.subject {
            TermRef::Iri(iri) => Subject::iri(iri),
            TermRef::Blank(label) => Subject::blank(label),
            TermRef::Literal(l) => panic!("a literal cannot be a subject: {l}"),
        };
        Triple {
            subject,
            predicate: Iri::new(self.predicate),
            object: self.object.to_term(),
        }
    }
}

impl<'a> From<&'a Triple> for TripleRef<'a> {
    fn from(t: &'a Triple) -> Self {
        t.as_ref()
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use crate::vocab::{bench, dc, rdf};

    #[test]
    fn display_is_ntriples_shaped() {
        let t = Triple::new(
            Subject::iri("http://localhost/publications/journals/Journal1/1940"),
            Iri::new(rdf::TYPE),
            Term::iri(bench::JOURNAL),
        );
        let s = t.to_string();
        assert!(s.starts_with('<') && s.ends_with(" ."), "{s}");
    }

    #[test]
    fn blank_subject_and_literal_object() {
        let t = Triple::new(
            Subject::blank("Paul_Erdoes"),
            Iri::new(dc::TITLE),
            Term::Literal(Literal::string("On graphs")),
        );
        assert!(t.subject.to_term().is_blank());
        assert!(t.object.as_literal().is_some());
    }

    #[test]
    fn borrowed_view_round_trips() {
        let t = Triple::new(
            Subject::blank("Paul_Erdoes"),
            Iri::new(dc::TITLE),
            Term::Literal(Literal::integer(1940)),
        );
        assert_eq!(t.as_ref().to_triple(), t);
    }
}
