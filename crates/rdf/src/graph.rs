//! A minimal in-memory RDF graph: an ordered multiset of triples.
//!
//! Stores never load from a [`Graph`]: they stream N-Triples. `Graph`
//! stays a thin `Vec` wrapper with convenience accessors for the
//! generator's in-memory sink, tests and examples, and
//! [`Graph::to_ntriples`] turns one into a document a store can load.

use std::slice;

use crate::term::{Iri, Subject, Term};
use crate::triple::Triple;

/// An in-memory collection of triples, in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    triples: Vec<Triple>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// An empty graph with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Graph {
            triples: Vec::with_capacity(cap),
        }
    }

    /// Appends a triple.
    pub fn insert(&mut self, triple: Triple) {
        self.triples.push(triple);
    }

    /// Appends a triple built from its components.
    pub fn add(&mut self, s: impl Into<Subject>, p: impl Into<Iri>, o: impl Into<Term>) {
        self.triples.push(Triple::new(s, p, o));
    }

    /// Number of triples (counting duplicates).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterates over the triples in insertion order.
    pub fn iter(&self) -> slice::Iter<'_, Triple> {
        self.triples.iter()
    }

    /// Borrow the triples as a slice.
    pub fn as_slice(&self) -> &[Triple] {
        &self.triples
    }

    /// Consumes the graph, returning its triples.
    pub fn into_triples(self) -> Vec<Triple> {
        self.triples
    }

    /// The graph as an N-Triples document, in insertion order.
    pub fn to_ntriples(&self) -> Vec<u8> {
        let mut doc = Vec::new();
        crate::ntriples::write_document(&mut doc, self).expect("writing to a Vec cannot fail");
        doc
    }

    /// All triples with the given predicate (linear scan; test helper).
    pub fn with_predicate<'a>(
        &'a self,
        predicate: &'a str,
    ) -> impl Iterator<Item = &'a Triple> + 'a {
        self.triples
            .iter()
            .filter(move |t| t.predicate.as_str() == predicate)
    }

    /// All distinct subjects that have `rdf:type == class` (linear scan).
    pub fn instances_of<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a Subject> + 'a {
        self.triples.iter().filter_map(move |t| {
            if t.predicate.as_str() == crate::vocab::rdf::TYPE
                && matches!(&t.object, Term::Iri(i) if i.as_str() == class)
            {
                Some(&t.subject)
            } else {
                None
            }
        })
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph {
            triples: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::vec::IntoIter<Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = &'a Triple;
    type IntoIter = slice::Iter<'a, Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter()
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        self.triples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use crate::vocab::{bench, dc, rdf};

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.add(
            Subject::iri("http://x/article1"),
            Iri::new(rdf::TYPE),
            Term::iri(bench::ARTICLE),
        );
        g.add(
            Subject::iri("http://x/article1"),
            Iri::new(dc::TITLE),
            Term::Literal(Literal::string("t")),
        );
        g
    }

    #[test]
    fn insert_iterate_len() {
        let g = sample();
        assert_eq!(g.len(), 2);
        assert_eq!(g.iter().count(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn instances_of_filters_by_class() {
        let g = sample();
        let arts: Vec<_> = g.instances_of(bench::ARTICLE).collect();
        assert_eq!(arts.len(), 1);
        assert_eq!(g.instances_of(bench::JOURNAL).count(), 0);
    }

    #[test]
    fn with_predicate_scans() {
        let g = sample();
        assert_eq!(g.with_predicate(dc::TITLE).count(), 1);
        assert_eq!(g.with_predicate(dc::CREATOR).count(), 0);
    }

    #[test]
    fn collects_from_iterator() {
        let g = sample();
        let g2: Graph = g.iter().cloned().collect();
        assert_eq!(g, g2);
    }
}
