//! Multi-user concurrency acceptance: N client threads hammering one
//! shared store must each observe *exactly* the results a single client
//! observes — concurrency is a throughput feature, never a semantic one
//! (the paper's Section VII multi-user scenario).

mod common;

use common::loaded;
use sp2bench::core::multiuser::{InProcessTransport, MultiuserConfig, StopCondition, WorkItem};
use sp2bench::core::WorkloadReport;
use sp2bench::core::{report, run_workload, BenchQuery, Engine, EngineKind, ExtQuery};
use sp2bench::datagen::{generate_graph, Config};

fn run(engine: &Engine, cfg: &MultiuserConfig) -> WorkloadReport {
    run_workload(&InProcessTransport::new(engine.shared_store(), cfg), cfg)
}

const TRIPLES: u64 = 6_000;

/// A cheap-to-expensive spread: point lookup, long BGP chain, unbound
/// scan, ordered modifiers, ASK, and two aggregates.
fn mix() -> Vec<WorkItem> {
    vec![
        WorkItem::bench(BenchQuery::Q1),
        WorkItem::bench(BenchQuery::Q2),
        WorkItem::bench(BenchQuery::Q3a),
        WorkItem::bench(BenchQuery::Q9),
        WorkItem::bench(BenchQuery::Q11),
        WorkItem::bench(BenchQuery::Q12c),
        WorkItem::ext(ExtQuery::A1),
        WorkItem::ext(ExtQuery::A4),
    ]
}

#[test]
fn every_client_matches_the_single_client_run() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let engine = loaded(EngineKind::NativeOpt, &graph);

    // Reference: one client, one pass over the mix.
    let mut reference_cfg = MultiuserConfig::new(1, StopCondition::Rounds(1));
    reference_cfg.mix = mix();
    let reference = run(&engine, &reference_cfg);
    let expected = reference.clients[0].counts.clone();
    assert_eq!(expected.len(), mix().len(), "reference covered the mix");

    // Concurrent: 4 clients × 3 rounds, with intra-query parallelism 2 so
    // the detached-worker exchange runs *under* client concurrency too.
    let mut cfg = MultiuserConfig::new(4, StopCondition::Rounds(3));
    cfg.mix = mix();
    cfg.parallelism = 2;
    let report = run(&engine, &cfg);

    assert_eq!(report.clients.len(), 4);
    for client in &report.clients {
        assert_eq!(client.errors, 0, "client {}", client.client);
        assert_eq!(client.timeouts, 0, "client {}", client.client);
        assert!(
            client.inconsistent.is_empty(),
            "client {} saw shifting counts: {:?}",
            client.client,
            client.inconsistent
        );
        assert_eq!(
            client.counts, expected,
            "client {} disagrees with the single-client run",
            client.client
        );
        assert_eq!(client.completed, 3 * mix().len() as u64);
    }
    assert_eq!(report.completed, 4 * 3 * mix().len() as u64);
    // The closed loop shares the open loops' accounting identity, sends
    // every request the instant it is drawn (no queue delay), and finds
    // no drift across clients either.
    assert_eq!(report.issued, 4 * 3 * mix().len() as u64);
    assert_eq!(
        report.completed + report.timeouts + report.errors + report.warmup_excluded,
        report.issued
    );
    assert_eq!(report.queue_delay.max(), std::time::Duration::ZERO);
    assert!(report.inconsistent.is_empty(), "{:?}", report.inconsistent);
    assert_eq!(report.counts, expected);
}

#[test]
fn report_carries_latency_and_throughput() {
    let (graph, _) = generate_graph(Config::triples(2_000));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let mut cfg = MultiuserConfig::new(2, StopCondition::Rounds(2));
    cfg.mix = vec![
        WorkItem::bench(BenchQuery::Q1),
        WorkItem::bench(BenchQuery::Q3c),
    ];
    let multiuser = run(&engine, &cfg);
    assert_eq!(
        multiuser.latency.count(),
        multiuser.completed,
        "every completed query is in the aggregate histogram"
    );
    assert_eq!(
        multiuser
            .clients
            .iter()
            .map(|c| c.latency.count())
            .sum::<u64>(),
        multiuser.completed,
        "and in exactly one client's"
    );
    assert!(multiuser.completed_rate() > 0.0);
    for client in &multiuser.clients {
        let p50 = client.latency.quantile(0.50);
        let p99 = client.latency.quantile(0.99);
        assert!(p50 > std::time::Duration::ZERO);
        assert!(p99 >= p50, "quantiles are monotone");
    }
    // The report section renders per-client and aggregate rows.
    let table = report::workload_table(&multiuser);
    assert!(table.contains("p99[ms]"), "{table}");
    let rows = |prefix: &str| table.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(
        (rows("client "), rows("0 "), rows("1 "), rows("all ")),
        (1, 1, 1, 1),
        "header + 2 clients + aggregate:\n{table}"
    );
    // A closed-loop run dumps the same JSON report an open one does.
    let json = report::workload_json(&multiuser);
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{json}"
    );
    assert!(json.contains("\"arrival\":\"closed\""), "{json}");
}
