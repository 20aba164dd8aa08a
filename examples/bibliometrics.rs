//! Bibliometrics: validate that the generated data exhibits the
//! social-world distributions of Section III — the limited-growth curves
//! (Figure 2b), the authors-per-paper drift, and the publication-count
//! power law (Figure 2c) — using the generator's per-year statistics, then
//! re-deriving one curve straight from the document with a SPARQL
//! aggregation through the `QueryEngine` facade.
//!
//! ```sh
//! cargo run --release --example bibliometrics
//! ```

use sp2bench::datagen::{generate_document, params, Config, DocClass, Generator, NullSink};
use sp2bench::sparql::QueryEngine;
use sp2bench::store::{
    sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, TripleStore,
};

fn main() {
    // Simulate through 1985 with detailed statistics.
    let stats = Generator::new(Config::up_to_year(1985).with_detailed_stats())
        .run(&mut NullSink)
        .expect("null sink cannot fail");

    println!("documents per class after {} years:", stats.years.len());
    for class in DocClass::ALL {
        println!("  {:<14} {:>8}", class.label(), stats.count(class));
    }

    // Limited growth: article counts per decade against the logistic fit.
    println!("\narticles per year vs. the paper's logistic fit f_article:");
    for year in [1945, 1955, 1965, 1975, 1985] {
        let rec = stats
            .years
            .iter()
            .find(|r| r.year == year)
            .expect("year simulated");
        println!(
            "  {year}: generated {:>6}   fit {:>6}",
            rec.class_counts[DocClass::Article.index()],
            params::F_ARTICLE.count(year)
        );
    }

    // Authors per paper grow over time (µ_auth limited-growth curve).
    // Observed mean = author attributes / publications created that year
    // (venues barely carry authors, so the publication classes suffice).
    println!("\nmean authors per paper (observed vs µ_auth):");
    for year in [1950, 1965, 1985] {
        let rec = stats
            .years
            .iter()
            .find(|r| r.year == year)
            .expect("simulated");
        let papers: u64 = [
            DocClass::Article,
            DocClass::Inproceedings,
            DocClass::Incollection,
            DocClass::Book,
            DocClass::PhdThesis,
            DocClass::MastersThesis,
            DocClass::Www,
        ]
        .iter()
        .map(|c| rec.class_counts[c.index()])
        .sum();
        let observed = rec.total_authors as f64 / papers.max(1) as f64;
        println!(
            "  {year}: observed ≈ {observed:.2}   µ_auth = {:.2}",
            params::d_auth(year).mu
        );
    }

    // Power law: many single-publication authors, few prolific ones.
    let last = stats.years.last().expect("years recorded");
    let ones = *last.publications_histogram.get(&1).unwrap_or(&0);
    let five_plus: u64 = last
        .publications_histogram
        .iter()
        .filter(|(x, _)| **x >= 5)
        .map(|(_, n)| *n)
        .sum();
    println!(
        "\npublication counts in {}: {} authors with 1 publication, {} with ≥5 \
         (power law head ≫ tail)",
        last.year, ones, five_plus
    );

    // The citation Gaussian (Figure 2a): the bulk's mode sits near
    // µ=16.82. (x=1 collects the clamped left tail — the paper's "left
    // limit x = 1" caveat — so the mode is taken over x ≥ 2.)
    let (mode, _) = stats
        .citation_histogram
        .iter()
        .filter(|(x, _)| **x >= 2)
        .max_by_key(|(_, n)| **n)
        .map(|(x, n)| (*x, *n))
        .unwrap_or((0, 0));
    println!(
        "outgoing-citation bulk mode: {} (d_cite fit µ = {:.2})",
        mode,
        params::D_CITE.mu
    );

    // The same growth curve straight from the document: articles per year
    // as a GROUP BY/COUNT aggregation, streamed through the QueryEngine
    // facade (the aggregation runs as a plan operator, not a post-pass).
    let (doc, _) = generate_document(Config::up_to_year(1965));
    let native = ShardBackend::Native(IndexSelection::all());
    let store = sharded_store_from_reader(&doc[..], 1, ShardBy::Subject, native);
    let qe = QueryEngine::new(store.expect("generated N-Triples parse").into_shared());
    let per_year = qe
        .prepare(
            "SELECT ?yr (COUNT(*) AS ?articles) \
             WHERE { ?doc rdf:type bench:Article . ?doc dcterms:issued ?yr } \
             GROUP BY ?yr ORDER BY ?yr",
        )
        .expect("aggregate query prepares");
    println!("\narticles per year, re-derived from the RDF document via SPARQL:");
    let rows: Vec<_> = qe
        .solutions(&per_year)
        .map(|s| s.expect("aggregation evaluates"))
        .collect();
    for row in rows.iter().rev().take(5).rev() {
        println!(
            "  {}: {}",
            row.get(0).expect("year bound"),
            row.get(1).expect("count bound")
        );
    }
}
