//! # sp2b-rdf — RDF data model substrate
//!
//! The foundation layer of the SP²Bench reproduction: RDF terms
//! ([`Term`], [`Iri`], [`BlankNode`], [`Literal`], and the borrowed views
//! [`TermRef`]/[`LiteralRef`] a store decodes ids to), triples ([`Triple`] and the borrowed [`TripleRef`]),
//! the vocabularies used by the DBLP scenario ([`vocab`]) and a fast
//! N-Triples serializer/parser ([`ntriples`]).
//!
//! The benchmark data uses exactly the RDF constructs the paper calls out:
//! URIs, blank nodes (persons, reference bags), typed literals
//! (`xsd:string`, `xsd:integer`) and `rdf:Bag` containers. This crate keeps
//! the model small and allocation-conscious; higher layers (the stores)
//! dictionary-encode terms into integer ids and only fall back to these
//! owned representations at the edges (parsing, result rendering).

pub mod graph;
pub mod ntriples;
pub mod term;
pub mod triple;
pub mod vocab;

pub use graph::Graph;
pub use term::{BlankNode, Iri, LitValue, Literal, LiteralRef, Subject, Term, TermRef};
pub use triple::{Triple, TripleRef};
