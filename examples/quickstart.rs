//! Quickstart: generate a DBLP-like document, load it into an engine, run
//! benchmark queries and a custom query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sp2bench::core::{BenchQuery, Engine, EngineKind, StoreLayout};
use sp2bench::datagen::{generate_document, Config};
use sp2bench::sparql::QueryEngine;

fn main() {
    // 1. Generate a document of exactly 25k triples (deterministic: the
    //    same call always produces the same document).
    let (doc, stats) = generate_document(Config::triples(25_000));
    println!(
        "generated {} triples: {} articles, {} inproceedings, {} journals, data up to {}",
        stats.triples,
        stats.count(sp2bench::datagen::DocClass::Article),
        stats.count(sp2bench::datagen::DocClass::Inproceedings),
        stats.journals,
        stats.end_year
    );

    // 2. Load the N-Triples into the optimized native engine (parse,
    //    intern, sort four runs: the paper's loading time).
    let engine = Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default())
        .expect("generated N-Triples parse");
    println!("loaded in {}", engine.loading.summary());

    // 3. Run a few benchmark queries.
    for query in [
        BenchQuery::Q1,
        BenchQuery::Q5b,
        BenchQuery::Q8,
        BenchQuery::Q10,
    ] {
        let (outcome, m) = engine.run(query, None);
        println!(
            "{:<4} -> {:>8} solutions  [{}]",
            query.label(),
            outcome.count().expect("small document, no timeout"),
            m.summary()
        );
    }

    // 4. Run a custom SPARQL query through the streaming facade: prepare
    //    once, then pull rows lazily — terms decode only when read.
    let custom = r#"
        SELECT ?title ?yr
        WHERE {
            ?j rdf:type bench:Journal .
            ?j dc:title ?title .
            ?j dcterms:issued ?yr
        }
        ORDER BY DESC(?yr) ?title
        LIMIT 5
    "#;
    let qe = QueryEngine::new(engine.shared_store());
    let prepared = qe.prepare(custom).expect("custom query prepares");
    println!("\nfive journals with the latest issue years:");
    for solution in qe.solutions(&prepared) {
        let row = solution.expect("small document, no timeout");
        let title = row.get(0).expect("title bound");
        let yr = row.get(1).expect("year bound");
        println!("  {title} issued {yr}");
    }

    // 5. Counting reuses the same prepared statement and decodes nothing.
    let journals = qe
        .prepare("SELECT ?j WHERE { ?j rdf:type bench:Journal }")
        .expect("count query prepares");
    println!(
        "\n{} journal issues in total",
        qe.count(&journals).expect("counts")
    );
}
