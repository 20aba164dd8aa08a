//! RDF triples.

use std::fmt;

use crate::term::{Iri, Subject, Term};

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
}
