//! Open-loop workload acceptance over a real store: the schedule issues
//! exactly what the stop condition promises, every issued request is
//! accounted for exactly once (completed, timeout, error or
//! warmup-excluded — never lost, never double-counted), per-template
//! rows partition the total, result counts stay stable under open-loop
//! concurrency, and the JSON report is balanced and self-consistent.

mod common;

use common::loaded;
use std::time::Duration;

use sp2bench::core::multiuser::{InProcessTransport, MultiuserConfig, StopCondition, WorkItem};
use sp2bench::core::{report, run_workload, Arrival, BenchQuery, WeightedMix, WorkloadReport};
use sp2bench::core::{Engine, EngineKind};
use sp2bench::datagen::{generate_graph, Config};

fn run(engine: &Engine, cfg: &MultiuserConfig) -> WorkloadReport {
    run_workload(&InProcessTransport::new(engine.shared_store(), cfg), cfg)
}

const TRIPLES: u64 = 4_000;

fn open_cfg(arrival: Arrival, rounds: u32) -> MultiuserConfig {
    let mix = WeightedMix::parse("q1:80,q3a:15,q11:5").expect("mix spec parses");
    let mut cfg = MultiuserConfig::new(2, StopCondition::Rounds(rounds));
    cfg.mix = mix.items;
    cfg.weights = mix.weights;
    cfg.arrival = arrival;
    cfg.seed = 42;
    cfg
}

#[test]
fn open_loop_accounts_for_every_scheduled_request() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let cfg = open_cfg(Arrival::Poisson { rate: 400.0 }, 8);
    let report = run(&engine, &cfg);

    // Rounds(r) schedules exactly r × clients × mix.len() requests.
    assert_eq!(report.issued, 8 * 2 * 3, "schedule honored Rounds");
    // Accounting identity: nothing lost, nothing counted twice.
    assert_eq!(
        report.completed + report.timeouts + report.errors + report.warmup_excluded,
        report.issued,
        "every issued request lands in exactly one bucket"
    );
    assert_eq!(report.errors, 0);
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.latency.count(), report.completed);
    assert_eq!(report.queue_delay.count(), report.completed);
    assert_eq!(report.service.count(), report.completed);

    // Per-template rows partition the totals, in mix order.
    let labels: Vec<&str> = report.templates.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(labels, ["Q1", "Q3a", "Q11"]);
    let per_template: u64 = report.templates.iter().map(|t| t.completed).sum();
    assert_eq!(per_template, report.completed);

    // Read-only store: counts were recorded and never drifted.
    assert!(
        report.inconsistent.is_empty(),
        "counts drifted: {:?}",
        report.inconsistent
    );
    assert!(!report.counts.is_empty(), "result counts were recorded");

    // Latency from intended send time dominates both components.
    let snap = &report.latency;
    assert!(snap.max() >= report.service.max());

    // The rendered table carries the rate line and the template rows.
    let table = report::workload_table(&report);
    assert!(table.contains("rate: intended"), "{table}");
    assert!(table.contains("\nQ1 "), "{table}");

    // The JSON dump is balanced and names every template.
    let json = report::workload_json(&report);
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{json}"
    );
    assert_eq!(
        json.matches('[').count(),
        json.matches(']').count(),
        "{json}"
    );
    assert!(
        json.starts_with("{\"schema\":\"sp2b-workload/1\""),
        "{json}"
    );
    for label in ["Q1", "Q3a", "Q11"] {
        assert!(
            json.contains(&format!("\"template\":\"{label}\"")),
            "{json}"
        );
    }
}

#[test]
fn seeded_open_loop_replays_are_deterministic_in_shape() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let cfg = open_cfg(Arrival::Constant { rate: 500.0 }, 6);
    let a = run(&engine, &cfg);
    let b = run(&engine, &cfg);
    // Same seed ⇒ same sample sequence ⇒ identical per-template issue
    // counts (wall-clock latency differs; the workload must not).
    let shape = |r: &WorkloadReport| {
        r.templates
            .iter()
            .map(|t| (t.label.clone(), t.completed + t.timeouts + t.errors))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&a), shape(&b));
    assert_eq!(a.counts, b.counts, "result counts agree across replays");
}

#[test]
fn closed_loop_warmup_is_excluded_from_histograms() {
    let (graph, _) = generate_graph(Config::triples(2_000));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let mut cfg = MultiuserConfig::new(2, StopCondition::Duration(Duration::from_millis(400)));
    cfg.mix = vec![WorkItem::bench(BenchQuery::Q1)];
    // A warmup longer than the run: everything lands before the cutoff.
    cfg.warmup = Duration::from_secs(60);
    let report = run(&engine, &cfg);
    let excluded: u64 = report.clients.iter().map(|c| c.warmup_excluded).sum();
    assert!(excluded > 0, "the run executed queries during warmup");
    assert_eq!(excluded, report.warmup_excluded);
    assert_eq!(report.completed, 0, "warmup queries left the stats");
    assert_eq!(report.latency.count(), 0);
    assert!(report.clients.iter().all(|c| c.latency.count() == 0));
    assert!(
        report.counts.is_empty(),
        "nor do they feed stability tracking"
    );
    let table = report::workload_table(&report);
    assert!(table.contains("warmup:"), "{table}");
}
