//! The Erdős scenario: the generator scripts Paul Erdős with 10
//! publications and 2 editor activities per year (1940–1996), giving
//! queries a person with fixed characteristics as an entry point.
//!
//! This example reproduces Q8 (Erdős numbers 1 and 2) and Q10 (everything
//! related to Erdős), then walks the coauthor graph with custom queries —
//! all through the streaming `QueryEngine` facade, so no result set is
//! ever materialized in full.
//!
//! ```sh
//! cargo run --release --example erdos_network
//! ```

use sp2bench::core::{BenchQuery, Engine, EngineKind, StoreLayout};
use sp2bench::datagen::{generate_document, Config};
use sp2bench::rdf::Term;
use sp2bench::sparql::QueryEngine;

fn main() {
    let (doc, _) = generate_document(Config::triples(100_000));
    let engine = Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default())
        .expect("generated N-Triples parse");
    let qe = QueryEngine::new(engine.shared_store());

    // Q8: names of authors with Erdős number 1 or 2.
    let (outcome, m) = engine.run(BenchQuery::Q8, None);
    println!(
        "Q8 — authors with Erdős number 1 or 2: {} [{}]",
        outcome.count().expect("succeeds"),
        m.summary()
    );

    // Q10: all edges pointing at Paul Erdős, tallied by predicate while
    // the rows stream past (only the predicate column ever decodes).
    let q10 = qe.prepare(BenchQuery::Q10.text()).expect("Q10 prepares");
    let mut by_predicate: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut total = 0usize;
    for solution in qe.solutions(&q10) {
        let row = solution.expect("Q10 evaluates");
        total += 1;
        if let Some(Term::Iri(iri)) = row.get(1) {
            let label = sp2bench::rdf::vocab::compact(iri.as_str())
                .unwrap_or_else(|| iri.as_str().to_owned());
            *by_predicate.entry(label).or_insert(0) += 1;
        }
    }
    println!("\nQ10 — relations to Paul Erdős ({total} total):");
    for (pred, n) in by_predicate {
        println!("  {pred:<16} {n}");
    }

    // Custom: Erdős number 1 — direct coauthors only, streamed with an
    // early print cutoff (the stream keeps counting cheaply).
    let direct = qe
        .prepare(
            r#"
        SELECT DISTINCT ?name
        WHERE {
            ?doc dc:creator person:Paul_Erdoes .
            ?doc dc:creator ?author .
            ?author foaf:name ?name
            FILTER (?author != person:Paul_Erdoes)
        }
    "#,
        )
        .expect("coauthor query prepares");
    println!(
        "\nErdős number 1 (direct coauthors): {}",
        qe.count(&direct).expect("counts")
    );
    for solution in qe.solutions(&direct).take(8) {
        let row = solution.expect("evaluates");
        println!("  {}", row.get(0).expect("name bound"));
    }

    // Custom: in which years was Erdős most productive here?
    let per_year = qe
        .prepare(
            r#"
        SELECT ?yr ?doc
        WHERE {
            ?doc dc:creator person:Paul_Erdoes .
            ?doc dcterms:issued ?yr
        }
    "#,
        )
        .expect("per-year query prepares");
    let mut per_year_counts: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for solution in qe.solutions(&per_year) {
        let row = solution.expect("evaluates");
        if let Some(Term::Literal(l)) = row.get(0) {
            *per_year_counts.entry(l.lexical.clone()).or_insert(0) += 1;
        }
    }
    println!("\npublications per year (first 10 active years):");
    for (yr, n) in per_year_counts.iter().take(10) {
        println!("  {yr}: {n}  (the generator scripts 10/year, 1940–1996)");
    }
}
