//! Vocabularies of the SP²Bench DBLP scenario.
//!
//! The generator borrows FOAF for persons, SWRC and DC/DCTERMS for
//! scientific resources, and introduces a `bench` namespace for the
//! DBLP-specific document classes (Section IV, "The DBLP RDF Scheme").
//! Namespace IRIs match the released SP²Bench distribution so generated
//! documents and queries are interchangeable with the original tooling.

/// `rdf:` — the RDF base vocabulary.
pub mod rdf {
    /// Namespace IRI.
    pub const NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    /// `rdf:type`.
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `rdf:Bag` — container class used for reference lists.
    pub const BAG: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Bag";

    /// `rdf:_n` membership property for container element `n` (1-based).
    pub fn member(n: usize) -> String {
        format!("{NS}_{n}")
    }

    /// Parses a container-membership property IRI back to its index.
    pub fn member_index(iri: &str) -> Option<usize> {
        iri.strip_prefix(NS)?.strip_prefix('_')?.parse().ok()
    }
}

/// `rdfs:` — RDF Schema.
pub mod rdfs {
    /// Namespace IRI.
    pub const NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    /// `rdfs:subClassOf`.
    pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `rdfs:seeAlso` — the mapping target of DBLP's `ee` attribute.
    pub const SEE_ALSO: &str = "http://www.w3.org/2000/01/rdf-schema#seeAlso";
}

/// `xsd:` — XML Schema datatypes.
pub mod xsd {
    /// Namespace IRI.
    pub const NS: &str = "http://www.w3.org/2001/XMLSchema#";
    /// `xsd:string`.
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    /// `xsd:integer`.
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:boolean`.
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
}

/// `foaf:` — Friend of a Friend, used for persons and documents.
pub mod foaf {
    /// Namespace IRI.
    pub const NS: &str = "http://xmlns.com/foaf/0.1/";
    /// `foaf:Person` — authors and editors are blank nodes of this class.
    pub const PERSON: &str = "http://xmlns.com/foaf/0.1/Person";
    /// `foaf:Document` — superclass of all benchmark document classes.
    pub const DOCUMENT: &str = "http://xmlns.com/foaf/0.1/Document";
    /// `foaf:name`.
    pub const NAME: &str = "http://xmlns.com/foaf/0.1/name";
    /// `foaf:homepage` — the mapping target of DBLP's `url` attribute.
    pub const HOMEPAGE: &str = "http://xmlns.com/foaf/0.1/homepage";
}

/// `swrc:` — Semantic Web for Research Communities ontology.
pub mod swrc {
    /// Namespace IRI.
    pub const NS: &str = "http://swrc.ontoware.org/ontology#";
    /// `swrc:address`.
    pub const ADDRESS: &str = "http://swrc.ontoware.org/ontology#address";
    /// `swrc:chapter`.
    pub const CHAPTER: &str = "http://swrc.ontoware.org/ontology#chapter";
    /// `swrc:editor`.
    pub const EDITOR: &str = "http://swrc.ontoware.org/ontology#editor";
    /// `swrc:isbn`.
    pub const ISBN: &str = "http://swrc.ontoware.org/ontology#isbn";
    /// `swrc:journal`.
    pub const JOURNAL: &str = "http://swrc.ontoware.org/ontology#journal";
    /// `swrc:month`.
    pub const MONTH: &str = "http://swrc.ontoware.org/ontology#month";
    /// `swrc:number`.
    pub const NUMBER: &str = "http://swrc.ontoware.org/ontology#number";
    /// `swrc:pages`.
    pub const PAGES: &str = "http://swrc.ontoware.org/ontology#pages";
    /// `swrc:series`.
    pub const SERIES: &str = "http://swrc.ontoware.org/ontology#series";
    /// `swrc:volume`.
    pub const VOLUME: &str = "http://swrc.ontoware.org/ontology#volume";
}

/// `dc:` — Dublin Core elements.
pub mod dc {
    /// Namespace IRI.
    pub const NS: &str = "http://purl.org/dc/elements/1.1/";
    /// `dc:creator` — the mapping target of DBLP's `author` attribute.
    pub const CREATOR: &str = "http://purl.org/dc/elements/1.1/creator";
    /// `dc:publisher` — target of both `publisher` and `school`.
    pub const PUBLISHER: &str = "http://purl.org/dc/elements/1.1/publisher";
    /// `dc:title`.
    pub const TITLE: &str = "http://purl.org/dc/elements/1.1/title";
}

/// `dcterms:` — Dublin Core terms.
pub mod dcterms {
    /// Namespace IRI.
    pub const NS: &str = "http://purl.org/dc/terms/";
    /// `dcterms:issued` — the mapping target of DBLP's `year` attribute.
    pub const ISSUED: &str = "http://purl.org/dc/terms/issued";
    /// `dcterms:partOf` — the mapping target of DBLP's `crossref`.
    pub const PART_OF: &str = "http://purl.org/dc/terms/partOf";
    /// `dcterms:references` — links a document to its `rdf:Bag` of citations.
    pub const REFERENCES: &str = "http://purl.org/dc/terms/references";
}

/// `bench:` — the SP²Bench-specific vocabulary.
pub mod bench {
    /// Namespace IRI.
    pub const NS: &str = "http://localhost/vocabulary/bench/";
    /// `bench:Journal`.
    pub const JOURNAL: &str = "http://localhost/vocabulary/bench/Journal";
    /// `bench:Article`.
    pub const ARTICLE: &str = "http://localhost/vocabulary/bench/Article";
    /// `bench:Inproceedings`.
    pub const INPROCEEDINGS: &str = "http://localhost/vocabulary/bench/Inproceedings";
    /// `bench:Proceedings`.
    pub const PROCEEDINGS: &str = "http://localhost/vocabulary/bench/Proceedings";
    /// `bench:Book`.
    pub const BOOK: &str = "http://localhost/vocabulary/bench/Book";
    /// `bench:Incollection`.
    pub const INCOLLECTION: &str = "http://localhost/vocabulary/bench/Incollection";
    /// `bench:PhDThesis`.
    pub const PHD_THESIS: &str = "http://localhost/vocabulary/bench/PhDThesis";
    /// `bench:MastersThesis`.
    pub const MASTERS_THESIS: &str = "http://localhost/vocabulary/bench/MastersThesis";
    /// `bench:Www`.
    pub const WWW: &str = "http://localhost/vocabulary/bench/Www";
    /// `bench:booktitle`.
    pub const BOOKTITLE: &str = "http://localhost/vocabulary/bench/booktitle";
    /// `bench:cdrom`.
    pub const CDROM: &str = "http://localhost/vocabulary/bench/cdrom";
    /// `bench:note`.
    pub const NOTE: &str = "http://localhost/vocabulary/bench/note";
    /// `bench:abstract` — the property the generator adds to ~1% of
    /// articles/inproceedings with comparably large string values.
    pub const ABSTRACT: &str = "http://localhost/vocabulary/bench/abstract";
}

/// `person:` — instance namespace for fixed persons.
pub mod person {
    /// Namespace IRI.
    pub const NS: &str = "http://localhost/persons/";
    /// The fixed URI of Paul Erdős, the benchmark's entry-point author.
    pub const PAUL_ERDOES: &str = "http://localhost/persons/Paul_Erdoes";
    /// A person guaranteed to be absent (Q12c asks for it).
    pub const JOHN_Q_PUBLIC: &str = "http://localhost/persons/John_Q_Public";
}

/// The prefix table used by the query parser and serializers.
///
/// Order is stable; each entry is `(prefix, namespace IRI)`.
pub const PREFIXES: &[(&str, &str)] = &[
    ("rdf", rdf::NS),
    ("rdfs", rdfs::NS),
    ("xsd", xsd::NS),
    ("foaf", foaf::NS),
    ("swrc", swrc::NS),
    ("dc", dc::NS),
    ("dcterms", dcterms::NS),
    ("bench", bench::NS),
    ("person", person::NS),
];

/// Expands a `prefix:local` pair against [`PREFIXES`].
pub fn expand(prefix: &str, local: &str) -> Option<String> {
    PREFIXES
        .iter()
        .find(|(p, _)| *p == prefix)
        .map(|(_, ns)| format!("{ns}{local}"))
}

/// Compacts a full IRI to `prefix:local` form when a prefix matches.
/// Used by report/debug output only; the engine works on full IRIs.
pub fn compact(iri: &str) -> Option<String> {
    // Longest-namespace match so dcterms: wins over dc: where applicable.
    PREFIXES
        .iter()
        .filter(|(_, ns)| iri.starts_with(ns))
        .max_by_key(|(_, ns)| ns.len())
        .map(|(p, ns)| format!("{p}:{}", &iri[ns.len()..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_known_prefixes() {
        assert_eq!(expand("bench", "Article").as_deref(), Some(bench::ARTICLE));
        assert_eq!(expand("dc", "creator").as_deref(), Some(dc::CREATOR));
        assert_eq!(expand("nope", "x"), None);
    }

    #[test]
    fn compact_prefers_longest_namespace() {
        // dcterms:references must not compact to a dc: prefix.
        assert_eq!(
            compact(dcterms::REFERENCES).as_deref(),
            Some("dcterms:references")
        );
        assert_eq!(compact(dc::CREATOR).as_deref(), Some("dc:creator"));
        assert_eq!(compact("http://unknown/x"), None);
    }

    #[test]
    fn bag_membership_roundtrip() {
        let m = rdf::member(17);
        assert_eq!(rdf::member_index(&m), Some(17));
        assert_eq!(rdf::member_index(rdf::TYPE), None);
    }

    #[test]
    fn prefixes_are_unique() {
        for (i, (p, _)) in PREFIXES.iter().enumerate() {
            for (q, _) in &PREFIXES[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }
}
