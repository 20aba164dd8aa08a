//! Closed-world negation in SPARQL 1.0 — the paper's Q6/Q7 pattern.
//!
//! SPARQL 1.0 has no `NOT EXISTS`; negation is encoded as
//! `OPTIONAL { … FILTER C } FILTER (!bound(?v))`: the optional part finds
//! a counter-witness, and the outer filter keeps rows where none was
//! found. This example runs Q6 (authors' debut publications) and Q7
//! (double negation over the citation system), then a custom negation:
//! venues without any editor — cross-checked against the positive count
//! with the `QueryEngine` facade's decode-free counting path.
//!
//! ```sh
//! cargo run --release --example negation_queries
//! ```

use sp2bench::core::{BenchQuery, Engine, EngineKind, StoreLayout};
use sp2bench::datagen::{generate_document, Config};
use std::time::Duration;

fn main() {
    let (doc, _) = generate_document(Config::triples(60_000));
    let engine = Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default())
        .expect("generated N-Triples parse");
    let timeout = Some(Duration::from_secs(120));

    // Q6: publications whose authors had no earlier publication. Every
    // row pairs a debut year with an author name.
    let (outcome, m) = engine.run(BenchQuery::Q6, timeout);
    match outcome.count() {
        Some(n) => println!("Q6 — debut publications: {n} [{}]", m.summary()),
        None => println!("Q6 timed out (the paper sees the same from 250k triples on)"),
    }

    // Q7: titles of documents cited at least once but only by documents
    // that are themselves cited (double negation). The DBLP citation
    // system is sparse, so counts stay small (Table V: 0 at 10k, 2 at 50k).
    let (outcome, m) = engine.run(BenchQuery::Q7, timeout);
    println!(
        "Q7 — doubly-negated citations: {} [{}]",
        outcome.count().map_or("timeout".into(), |c| c.to_string()),
        m.summary()
    );

    // Custom negation with the same encoding: proceedings without any
    // editor (Table IX gives editors to ~80% of proceedings). One facade,
    // three prepared statements, counting only — nothing materializes.
    let qe = engine.query_engine(timeout);
    let count = |q: &str| -> u64 {
        let prepared = qe.prepare(q).expect("query prepares");
        qe.count(&prepared).expect("succeeds")
    };
    let without = count(
        r#"
        SELECT ?proc
        WHERE {
            ?proc rdf:type bench:Proceedings
            OPTIONAL { ?proc swrc:editor ?e }
            FILTER (!bound(?e))
        }
    "#,
    );
    let total = count(r#"SELECT ?proc WHERE { ?proc rdf:type bench:Proceedings }"#);
    let with = count(
        r#"
        SELECT DISTINCT ?proc
        WHERE { ?proc rdf:type bench:Proceedings . ?proc swrc:editor ?e }
    "#,
    );
    println!(
        "\nproceedings without editors: {without} of {total} (complement of {with} with editors)"
    );
    assert_eq!(without + with, total, "negation must complement");
    println!("negation complements the positive query — closed-world semantics hold");
}
