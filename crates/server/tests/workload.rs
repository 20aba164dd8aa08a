//! Open-loop workload acceptance over real sockets: the client harness
//! from `sp2b-core` drives a live server on an ephemeral port with a
//! weighted mix and an open arrival process, and the per-template
//! latency series land in the process-global metrics registry under
//! `sp2b_multiuser_latency_seconds{template=…}` — the same renderers
//! that serve the server's own `/metrics` and `/stats`.
//!
//! This binary runs in its own process, so its registry assertions
//! cannot race the `observability.rs` suite.

use std::time::Duration;

use sp2b_core::multiuser::{MultiuserConfig, StopCondition};
use sp2b_core::{run_workload_on, Arrival, Endpoint, TargetFacts, WeightedMix, WorkloadTarget};
use sp2b_datagen::{generate_graph, Config};
use sp2b_server::{spawn, ServerConfig};
use sp2b_sparql::{QueryEngine, QueryOptions};
use sp2b_store::{NativeStore, TripleStore};

#[test]
fn open_loop_endpoint_run_registers_per_template_series() {
    let (graph, _) = generate_graph(Config::triples(3_000));
    let engine = QueryEngine::with_options(
        NativeStore::from_graph(&graph).into_shared(),
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

    // The per-template histograms went through the global registry and
    // render through the same Prometheus/JSON paths as the server's own
    // request series: one shared preamble, one labeled series per
    // template.
    let prom = sp2b_obs::global().render_prometheus();
    assert!(
        prom.contains("# TYPE sp2b_multiuser_latency_seconds histogram"),
        "{prom}"
    );
    for label in ["Q1", "Q11"] {
        assert!(
            prom.contains(&format!(
                "sp2b_multiuser_latency_seconds_bucket{{template=\"{label}\",le=\""
            )),
            "missing {label} buckets in:\n{prom}"
        );
        assert!(
            prom.contains(&format!(
                "sp2b_multiuser_latency_seconds_count{{template=\"{label}\"}}"
            )),
            "{prom}"
        );
    }
    let json = sp2b_obs::global().render_json();
    for label in ["Q1", "Q11"] {
        assert!(
            json.contains(&format!(
                "\"sp2b_multiuser_latency_seconds{{template={label}}}\""
            )),
            "missing {label} series in:\n{json}"
        );
    }

    // Registry counts cover at least this run's completions (the series
    // are process-global and cumulative).
    let count_of = |label: &str| -> u64 {
        let needle = format!("sp2b_multiuser_latency_seconds_count{{template=\"{label}\"}} ");
        prom.lines()
            .find_map(|l| l.strip_prefix(needle.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    let registered: u64 = count_of("Q1") + count_of("Q11");
    assert!(
        registered >= report.completed,
        "registry holds {registered} < {} completions",
        report.completed
    );

    let stats = handle.shutdown();
    assert!(stats.requests > 0);
}
