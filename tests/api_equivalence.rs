//! API-equivalence suite: for every benchmark query (Q1–Q12 and the A1–A5
//! aggregation extension queries) on a generated ~10k-triple document,
//! streaming iteration, materialized execution and the decode-free count
//! path must agree exactly — and all three must report cancellation when a
//! pre-triggered `Cancellation` is supplied.

use sp2bench::core::{BenchQuery, ExtQuery};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::rdf::Term;
use sp2bench::sparql::{Cancellation, Error, QueryEngine, QueryResult};
use sp2bench::store::TripleStore;

mod common;
use common::{load, NATIVE};

const TRIPLES: u64 = 10_000;

fn all_query_texts() -> Vec<(&'static str, &'static str)> {
    let mut queries: Vec<(&'static str, &'static str)> = BenchQuery::ALL
        .iter()
        .map(|q| (q.label(), q.text()))
        .collect();
    queries.extend(ExtQuery::ALL.iter().map(|q| (q.label(), q.text())));
    queries
}

#[test]
fn streaming_materialized_and_count_agree_on_all_queries() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let engine = QueryEngine::new(load(&graph, NATIVE).into_shared());

    for (label, text) in all_query_texts() {
        let prepared = engine
            .prepare(text)
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        let count = engine
            .count(&prepared)
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        let result = engine
            .execute(&prepared)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            result.row_count() as u64,
            count,
            "{label}: count() vs execute() row_count()"
        );

        let streamed: Vec<Vec<Option<Term>>> = engine
            .solutions(&prepared)
            .map(|s| s.unwrap_or_else(|e| panic!("{label}: {e}")).materialize())
            .collect();
        assert_eq!(streamed.len() as u64, count, "{label}: streamed row count");
        match &result {
            QueryResult::Solutions { rows, .. } => {
                assert_eq!(
                    &streamed, rows,
                    "{label}: streamed rows vs materialized rows"
                );
            }
            QueryResult::Boolean(b) => {
                // ASK streams one empty witness row iff true.
                assert_eq!(streamed.len(), usize::from(*b), "{label}: ASK stream");
                assert!(
                    streamed.iter().all(Vec::is_empty),
                    "{label}: ASK rows are empty"
                );
            }
        }
    }
}

#[test]
fn pre_triggered_cancellation_fails_every_path() {
    let (graph, _) = generate_graph(Config::triples(4_000));
    let engine = QueryEngine::new(load(&graph, NATIVE).into_shared());

    for (label, text) in all_query_texts() {
        let prepared = engine
            .prepare(text)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let cancel = Cancellation::none();
        cancel.cancel();

        assert!(
            matches!(
                engine.execute_with(&prepared, &cancel),
                Err(Error::Cancelled)
            ),
            "{label}: execute under cancellation"
        );
        assert!(
            matches!(engine.count_with(&prepared, &cancel), Err(Error::Cancelled)),
            "{label}: count under cancellation"
        );
        let mut stream = engine.solutions_with(&prepared, &cancel);
        assert!(
            matches!(stream.next(), Some(Err(Error::Cancelled))),
            "{label}: stream under cancellation"
        );
        assert!(
            stream.next().is_none(),
            "{label}: stream ends after the error"
        );
    }
}
