//! The runtime behaviours Section V/VI call out: ASK early termination
//! ("engines should break as soon a solution has been found") and the
//! cooperative timeout machinery backing the SUCCESS RATE metric.

mod common;

use common::loaded;
use std::time::{Duration, Instant};

use sp2bench::core::{BenchQuery, EngineKind, Outcome};
use sp2bench::datagen::{generate_graph, Config};

#[test]
fn ask_terminates_early_on_large_documents() {
    // Q12a's witness lives in the first 10k triples of any document
    // (incremental generation); ASK must not enumerate all solutions.
    let (graph, _) = generate_graph(Config::triples(150_000));
    let engine = loaded(EngineKind::NativeOpt, &graph);

    let start = Instant::now();
    let (outcome, _) = engine.run(BenchQuery::Q12a, Some(Duration::from_secs(60)));
    let ask_time = start.elapsed();
    assert_eq!(outcome.count(), Some(1), "Q12a answers yes");

    // Its SELECT counterpart Q5a enumerates everything; the ASK variant
    // must be dramatically faster (the paper criticizes engines where it
    // is not).
    let start = Instant::now();
    let (_, _) = engine.run(BenchQuery::Q5a, Some(Duration::from_secs(60)));
    let select_time = start.elapsed();
    assert!(
        ask_time * 10 < select_time.max(Duration::from_millis(100)),
        "ASK {ask_time:?} should be ≪ SELECT {select_time:?}"
    );
}

#[test]
fn negative_ask_is_constant_time_on_native_stores() {
    // Q12c asks for a triple that is not present; with indexes this is a
    // point lookup regardless of document size.
    let (small, _) = generate_graph(Config::triples(10_000));
    let (large, _) = generate_graph(Config::triples(120_000));
    let time_q12c = |graph| {
        let engine = loaded(EngineKind::NativeOpt, graph);
        let start = Instant::now();
        let (outcome, _) = engine.run(BenchQuery::Q12c, None);
        assert_eq!(outcome.count(), Some(0));
        start.elapsed()
    };
    let t_small = time_q12c(&small);
    let t_large = time_q12c(&large);
    // Not strictly constant on wall clocks, but far from linear: allow a
    // generous factor where the data grew 12x.
    assert!(
        t_large < t_small * 6 + Duration::from_millis(5),
        "small {t_small:?} vs large {t_large:?}"
    );
}

#[test]
fn timeouts_fire_and_report_as_timeout() {
    let (graph, _) = generate_graph(Config::triples(60_000));
    let engine = loaded(EngineKind::MemNaive, &graph);
    let start = Instant::now();
    let (outcome, _) = engine.run(BenchQuery::Q4, Some(Duration::from_millis(200)));
    let elapsed = start.elapsed();
    assert!(matches!(outcome, Outcome::Timeout), "{outcome:?}");
    // Cooperative cancellation reacts promptly (well under a second).
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation too slow: {elapsed:?}"
    );
}

#[test]
fn successful_queries_are_unaffected_by_generous_timeouts() {
    let (graph, _) = generate_graph(Config::triples(10_000));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let (with_timeout, _) = engine.run(BenchQuery::Q2, Some(Duration::from_secs(600)));
    let (without, _) = engine.run(BenchQuery::Q2, None);
    assert_eq!(with_timeout.count(), without.count());
}

#[test]
fn per_engine_timeout_letters_match_table_iv_conventions() {
    let (graph, _) = generate_graph(Config::triples(40_000));
    let engine = loaded(EngineKind::MemNaive, &graph);
    let (ok, _) = engine.run(BenchQuery::Q1, Some(Duration::from_secs(30)));
    assert_eq!(ok.status_letter(), '+');
    let (timeout, _) = engine.run(BenchQuery::Q4, Some(Duration::ZERO));
    assert_eq!(timeout.status_letter(), 'T');
}
