//! Extension queries — the aggregate workload the paper's conclusion
//! anticipates: "the detailed knowledge of the document class counts and
//! distributions (cf. Section III) facilitates the design of challenging
//! aggregate queries with fixed characteristics."
//!
//! Each query aggregates over a distribution Section III pins down, so
//! its result shape is predictable: A1 mirrors Table VIII's class counts,
//! A2 the logistic growth curves, A3 `µ_auth` (authors per paper), A4 the
//! power-law citation in-degrees, A5 the distinct-author ratio.

/// Identifies one extension (aggregate) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtQuery {
    /// A1 — documents per class (Table VIII's count columns as a query).
    A1,
    /// A2 — articles per year (the `f_article` logistic curve).
    A2,
    /// A3 — authors per inproceedings paper, per paper (input to `d_auth`).
    A3,
    /// A4 — incoming citations per document (power-law in-degrees).
    A4,
    /// A5 — distinct authors vs. total author attributes.
    A5,
}

impl ExtQuery {
    /// All extension queries.
    pub const ALL: [ExtQuery; 5] = [
        ExtQuery::A1,
        ExtQuery::A2,
        ExtQuery::A3,
        ExtQuery::A4,
        ExtQuery::A5,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ExtQuery::A1 => "A1",
            ExtQuery::A2 => "A2",
            ExtQuery::A3 => "A3",
            ExtQuery::A4 => "A4",
            ExtQuery::A5 => "A5",
        }
    }

    /// The SPARQL text (aggregation-extension syntax).
    pub fn text(self) -> &'static str {
        match self {
            ExtQuery::A1 => A1,
            ExtQuery::A2 => A2,
            ExtQuery::A3 => A3,
            ExtQuery::A4 => A4,
            ExtQuery::A5 => A5,
        }
    }
}

impl std::fmt::Display for ExtQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A1: documents per class, largest classes first.
pub const A1: &str = r#"
SELECT ?class (COUNT(*) AS ?instances)
WHERE { ?doc rdf:type ?class . ?class rdfs:subClassOf foaf:Document }
GROUP BY ?class
ORDER BY DESC(?instances)"#;

/// A2: articles per year — regenerates the `f_article` growth curve.
pub const A2: &str = r#"
SELECT ?yr (COUNT(*) AS ?articles)
WHERE { ?doc rdf:type bench:Article . ?doc dcterms:issued ?yr }
GROUP BY ?yr
ORDER BY ?yr"#;

/// A3: authors per inproceedings paper (the `d_auth` distribution's raw
/// material), most-authored papers first.
pub const A3: &str = r#"
SELECT ?doc (COUNT(?author) AS ?authors)
WHERE { ?doc rdf:type bench:Inproceedings . ?doc dc:creator ?author }
GROUP BY ?doc
ORDER BY DESC(?authors)
LIMIT 20"#;

/// A4: incoming citations per document — the power-law in-degrees of
/// Section III-D, most-cited first. A reference bag's members are its
/// citations; its `rdf:type rdf:Bag` is not.
pub const A4: &str = r#"
SELECT ?cited (COUNT(?bag) AS ?incoming)
WHERE { ?bag ?member ?cited . ?doc dcterms:references ?bag FILTER (?member != rdf:type) }
GROUP BY ?cited
ORDER BY DESC(?incoming)
LIMIT 20"#;

/// A5: total author attributes vs. distinct persons (the `f_dauth` ratio).
pub const A5: &str = r#"
SELECT (COUNT(?author) AS ?total) (COUNT(DISTINCT ?author) AS ?distinct)
WHERE { ?doc dc:creator ?author }"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{Engine, EngineKind, Outcome, StoreLayout};
    use sp2b_datagen::{generate_document, Config};
    use sp2b_sparql::QueryResult;

    fn run(q: ExtQuery) -> (Vec<String>, Vec<Vec<Option<sp2b_rdf::Term>>>) {
        let (doc, _) = generate_document(Config::triples(20_000));
        let engine =
            Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default()).unwrap();
        let (outcome, _) = engine.run_text(q.text(), None, true);
        match outcome {
            Outcome::Success {
                result: Some(QueryResult::Solutions { variables, rows }),
                ..
            } => (variables, rows),
            other => panic!("{q} failed: {other:?}"),
        }
    }

    fn int(t: &Option<sp2b_rdf::Term>) -> i64 {
        match t {
            Some(sp2b_rdf::Term::Literal(l)) => l.as_integer().expect("integer"),
            other => panic!("expected integer, got {other:?}"),
        }
    }

    #[test]
    fn all_extension_queries_parse() {
        for q in ExtQuery::ALL {
            sp2b_sparql::parse(q.text()).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn a1_matches_generator_statistics() {
        let (doc, stats) = generate_document(Config::triples(20_000));
        let engine =
            Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default()).unwrap();
        let (outcome, _) = engine.run_text(ExtQuery::A1.text(), None, true);
        let Outcome::Success {
            result: Some(QueryResult::Solutions { rows, .. }),
            ..
        } = outcome
        else {
            panic!("A1 failed")
        };
        // The article row must carry exactly the stats count.
        let article_row = rows
            .iter()
            .find(|r| r[0].as_ref().unwrap().to_string().contains("Article"))
            .expect("articles exist");
        assert_eq!(
            int(&article_row[1]) as u64,
            stats.count(sp2b_datagen::DocClass::Article)
        );
        // Ordered by descending instance count.
        let counts: Vec<i64> = rows.iter().map(|r| int(&r[1])).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(counts, sorted);
    }

    #[test]
    fn a2_counts_grow_over_time() {
        let (_, rows) = run(ExtQuery::A2);
        assert!(rows.len() > 5, "several simulated years");
        // Logistic growth: the last year's count exceeds the first's.
        let first = int(&rows.first().unwrap()[1]);
        let last = int(&rows.last().unwrap()[1]);
        assert!(last > first, "growth curve: {first} → {last}");
    }

    #[test]
    fn a3_caps_at_limit_and_descends() {
        let (_, rows) = run(ExtQuery::A3);
        assert!(rows.len() <= 20);
        let counts: Vec<i64> = rows.iter().map(|r| int(&r[1])).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] >= 1);
    }

    #[test]
    fn a4_shows_power_law_head() {
        let (_, rows) = run(ExtQuery::A4);
        if rows.len() >= 5 {
            let top = int(&rows[0][1]);
            let fifth = int(&rows[4][1]);
            assert!(top >= fifth, "descending in-degrees");
        }
    }

    #[test]
    fn a4_counts_documents_not_the_bag_class() {
        // `?bag ?member ?cited` also matches a bag's own `rdf:type
        // rdf:Bag`, which is no citation.
        let (_, rows) = run(ExtQuery::A4);
        assert!(!rows.is_empty());
        let bag = sp2b_rdf::Term::iri(sp2b_rdf::vocab::rdf::BAG);
        assert!(rows.iter().all(|r| r[0] != Some(bag.clone())), "{rows:?}");
    }

    #[test]
    fn a5_distinct_at_most_total() {
        let (vars, rows) = run(ExtQuery::A5);
        assert_eq!(vars, ["total", "distinct"]);
        assert_eq!(rows.len(), 1);
        let total = int(&rows[0][0]);
        let distinct = int(&rows[0][1]);
        assert!(distinct <= total);
        assert!(distinct > 0);
    }

    #[test]
    fn a5_matches_generator_statistics() {
        let (doc, stats) = generate_document(Config::triples(20_000));
        let engine =
            Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default()).unwrap();
        let (outcome, _) = engine.run_text(ExtQuery::A5.text(), None, true);
        let Outcome::Success {
            result: Some(QueryResult::Solutions { rows, .. }),
            ..
        } = outcome
        else {
            panic!("A5 failed")
        };
        assert_eq!(int(&rows[0][0]) as u64, stats.total_authors);
        assert_eq!(int(&rows[0][1]) as u64, stats.distinct_authors);
    }
}
