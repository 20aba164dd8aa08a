//! Open-loop workload acceptance over real sockets: the client harness
//! from `sp2b-core` drives a live server on an ephemeral port with a
//! weighted mix and an open arrival process, and the report accounts
//! for every request — per template too, in the rows the `sp2b
//! multiuser` table and `--report json` render.

use std::time::Duration;

use sp2b_core::multiuser::{MultiuserConfig, StopCondition};
use sp2b_core::report::workload_json;
use sp2b_core::{run_workload_on, Arrival, Endpoint, TargetFacts, WeightedMix, WorkloadTarget};
use sp2b_datagen::{generate_graph, Config};
use sp2b_server::{spawn, ServerConfig};
use sp2b_sparql::{QueryEngine, QueryOptions};
use sp2b_store::TripleStore;

mod common;
use common::{load, NATIVE};

#[test]
fn open_loop_endpoint_run_reports_per_template_latency() {
    let (graph, _) = generate_graph(Config::triples(3_000));
    let engine = QueryEngine::with_options(
        load(&graph, NATIVE).into_shared(),
        QueryOptions::new().parallelism(1),
    );
    let handle = spawn(engine, &ServerConfig::default()).expect("bind ephemeral port");
    let endpoint = Endpoint::parse(&format!("http://{}/sparql", handle.addr())).unwrap();

    let mix = WeightedMix::parse("q1:3,q11:1").unwrap();
    let mut cfg = MultiuserConfig::new(2, StopCondition::Rounds(4));
    cfg.mix = mix.items;
    cfg.weights = mix.weights;
    cfg.arrival = Arrival::Constant { rate: 200.0 };
    cfg.seed = 7;
    cfg.timeout = Duration::from_secs(30);
    let run = run_workload_on(WorkloadTarget::Endpoint(&endpoint), &cfg, |_| {});
    assert!(
        matches!(&run.target, TargetFacts::Endpoint(url) if *url == endpoint.url()),
        "{:?}",
        run.target
    );
    let report = run.workload;

    // The schedule issued exactly Rounds × clients × mix entries, and
    // every request is accounted for exactly once.
    assert_eq!(report.issued, 4 * 2 * 2);
    assert_eq!(
        report.completed + report.timeouts + report.errors + report.warmup_excluded,
        report.issued
    );
    assert_eq!(report.errors, 0, "inconsistent: {:?}", report.inconsistent);
    assert!(report.completed > 0);

    // Each template's latency histogram holds exactly its recorded
    // completions, and together they hold the run's.
    let labels: Vec<&str> = report.templates.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(labels, ["Q1", "Q11"]);
    for t in &report.templates {
        assert_eq!(t.latency.count(), t.completed, "{}", t.label);
    }
    let per_template: u64 = report.templates.iter().map(|t| t.completed).sum();
    assert_eq!(per_template, report.completed);
    let json = workload_json(&report);
    for label in labels {
        assert!(
            json.contains(&format!("{{\"template\":\"{label}\",")),
            "missing {label} row in:\n{json}"
        );
    }

    let stats = handle.shutdown();
    assert!(stats.requests > 0);
}
