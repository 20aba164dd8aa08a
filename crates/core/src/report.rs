//! Formatters that print the paper's tables and figure data series from a
//! [`BenchmarkReport`], plus the multi-user workload section from a
//! [`MixedWorkloadReport`]: the workload table ([`workload_table`]) with
//! its rate line, latency decomposition, per-template and per-client
//! percentile rows, and the machine-readable JSON dump
//! ([`workload_json`]) behind `--report json:FILE` — the same two
//! renderers for closed- and open-loop runs, in-process or over HTTP.

use std::time::Duration;

use sp2b_obs::LatencyHistogram;

use crate::metrics::{arithmetic_mean, geometric_mean};
use crate::runner::{BenchmarkReport, MixedWorkloadReport, TargetFacts};
use crate::workload::WorkloadReport;

/// Human-readable scale label (10000 → "10k", 1000000 → "1M").
pub fn scale_label(n: u64) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000 && n.is_multiple_of(1_000) {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Table IV: success-rate matrix. One row per scale per engine, one status
/// letter per query (paper order).
pub fn success_table(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str("TABLE IV — SUCCESS RATES (+ success, T timeout, M memory, E error)\n\n");
    let queries = &report.queries;
    out.push_str(&format!("{:<9} {:<12} ", "scale", "engine"));
    for q in queries {
        out.push_str(&format!("{:<5}", q.label()));
    }
    out.push('\n');
    for &scale in &report.scales {
        for &engine in &report.engines {
            out.push_str(&format!(
                "{:<9} {:<12} ",
                scale_label(scale),
                engine.label()
            ));
            for &q in queries {
                let letter = report
                    .cell(scale, engine, q)
                    .map_or('?', |r| r.status.letter());
                out.push_str(&format!("{letter:<5}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Table V: number of query results per scale (SELECT row counts; ASK
/// queries report 1/0 for yes/no).
pub fn result_sizes_table(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str("TABLE V — NUMBER OF QUERY RESULTS\n\n");
    out.push_str(&format!("{:<9}", "scale"));
    for q in &report.queries {
        out.push_str(&format!("{:>12}", q.label()));
    }
    out.push('\n');
    for &scale in &report.scales {
        out.push_str(&format!("{:<9}", scale_label(scale)));
        for &q in &report.queries {
            match report.result_count(scale, q) {
                Some(c) => out.push_str(&format!("{c:>12}")),
                None => out.push_str(&format!("{:>12}", "n/a")),
            }
        }
        out.push('\n');
    }
    out
}

/// Tables VI & VII: arithmetic/geometric mean of execution time and mean
/// memory consumption, split by engine class exactly like the paper.
pub fn means_table(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str(
        "TABLES VI/VII — MEANS OF EXECUTION TIME (Ta/Tg, failures = 3600 s) AND MEMORY (Ma)\n\n",
    );
    out.push_str(&format!(
        "{:<9} {:<12} {:>12} {:>12} {:>12}\n",
        "scale", "engine", "Ta[s]", "Tg[s]", "Ma[MB]"
    ));
    for &scale in &report.scales {
        for &engine in &report.engines {
            let times: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.scale == scale && r.engine == engine)
                .map(|r| r.penalized_seconds())
                .collect();
            if times.is_empty() {
                continue;
            }
            let mem: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.scale == scale && r.engine == engine)
                .filter_map(|r| r.measurement.rmem_kib)
                .map(|k| k as f64 / 1024.0)
                .collect();
            let ma = if mem.is_empty() {
                f64::NAN
            } else {
                arithmetic_mean(&mem)
            };
            out.push_str(&format!(
                "{:<9} {:<12} {:>12.3} {:>12.3} {:>12.1}\n",
                scale_label(scale),
                engine.label(),
                arithmetic_mean(&times),
                geometric_mean(&times),
                ma,
            ));
        }
    }
    out
}

/// Loading times (Figure 5, bottom-left; LOADING TIME metric).
pub fn loading_table(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str("LOADING TIMES (N-Triples parse + dictionary encoding + index build)\n\n");
    out.push_str(&format!(
        "{:<9} {:<12} {:>12} {:>12} {:>12}\n",
        "scale", "engine", "tme[s]", "usr[s]", "sys[s]"
    ));
    for l in &report.loads {
        out.push_str(&format!(
            "{:<9} {:<12} {:>12.4} {:>12.4} {:>12.4}\n",
            scale_label(l.scale),
            l.engine.label(),
            l.measurement.tme.as_secs_f64(),
            l.measurement.usr.map_or(f64::NAN, |d| d.as_secs_f64()),
            l.measurement.sys.map_or(f64::NAN, |d| d.as_secs_f64()),
        ));
    }
    out
}

/// Figures 5–8: per-query data series — for each query and engine, one
/// line per scale with tme and usr+sys (or "Failure", as the paper plots).
pub fn figure_series(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str(
        "FIGURES 5-8 — PER-QUERY EVALUATION DATA (time in seconds, log-scale in the paper)\n",
    );
    for &q in &report.queries {
        out.push_str(&format!("\n{} ", q.label()));
        out.push_str(&"-".repeat(70 - q.label().len()));
        out.push('\n');
        out.push_str(&format!("{:<12}", "engine"));
        for &scale in &report.scales {
            out.push_str(&format!("{:>16}", scale_label(scale)));
        }
        out.push('\n');
        for &engine in &report.engines {
            // tme row.
            out.push_str(&format!("{:<12}", engine.label()));
            for &scale in &report.scales {
                let cell = report.cell(scale, engine, q);
                match cell {
                    Some(r) if r.status == crate::runner::Status::Success => {
                        out.push_str(&format!("{:>16.4}", r.measurement.tme.as_secs_f64()));
                    }
                    Some(r) => out.push_str(&format!("{:>16}", r.status.letter())),
                    None => out.push_str(&format!("{:>16}", "-")),
                }
            }
            out.push('\n');
            // usr+sys row (indented), when available.
            let has_cpu = report.scales.iter().any(|&s| {
                report
                    .cell(s, engine, q)
                    .and_then(|r| r.measurement.usr)
                    .is_some()
            });
            if has_cpu {
                out.push_str(&format!("{:<12}", "  usr+sys"));
                for &scale in &report.scales {
                    let v = report.cell(scale, engine, q).and_then(|r| {
                        Some((r.measurement.usr? + r.measurement.sys?).as_secs_f64())
                    });
                    match v {
                        Some(v) => out.push_str(&format!("{v:>16.4}")),
                        None => out.push_str(&format!("{:>16}", "-")),
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

/// `p50 p95 p99 max` of `h` in milliseconds, as four right-aligned
/// table cells.
fn percentile_cells(h: &LatencyHistogram) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    format!(
        "{:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        ms(h.quantile(0.50)),
        ms(h.quantile(0.95)),
        ms(h.quantile(0.99)),
        ms(h.max()),
    )
}

const PERCENTILE_HEADER: &str = "   p50[ms]    p95[ms]    p99[ms]    max[ms]";

/// The workload table: the run header (arrival process, clients, wall),
/// the rate line (intended vs completed for an open arrival), the
/// latency/queue-delay/service decomposition, one percentile row per
/// template plus the aggregate `all` row, one row per client, and the
/// windowed throughput/p99 time series.
pub fn workload_table(report: &WorkloadReport) -> String {
    let mut out = format!(
        "MULTI-USER WORKLOAD — arrival {}, {} client(s), seed {}, wall {:.2} s\n",
        report.arrival,
        report.clients.len(),
        report.seed,
        report.wall.as_secs_f64()
    );
    let done = format!(
        "completed {:.1} q/s ({} done, {} timeouts, {} errors)",
        report.completed_rate(),
        report.completed,
        report.timeouts,
        report.errors,
    );
    match (report.intended_rate(), report.schedule_span) {
        (Some(intended), Some(span)) => out.push_str(&format!(
            "rate: intended {:.1} q/s ({} issued over {:.2} s), {done} — drift {:+.1}%\n",
            intended,
            report.issued,
            span.as_secs_f64(),
            (report.completed_rate() - intended) / intended * 100.0,
        )),
        _ => out.push_str(&format!("rate: {done}\n")),
    }
    if report.warmup > Duration::ZERO {
        out.push_str(&format!(
            "warmup: {:.1} s ({} queries excluded)\n",
            report.warmup.as_secs_f64(),
            report.warmup_excluded
        ));
    }
    out.push_str(&format!("\n{:<12} {PERCENTILE_HEADER}\n", "phase"));
    for (name, h) in [
        ("latency", &report.latency),
        ("queue-delay", &report.queue_delay),
        ("service", &report.service),
    ] {
        out.push_str(&format!("{name:<12} {}\n", percentile_cells(h)));
    }
    out.push_str(&format!(
        "\n{:<8} {:>8} {:>9} {:>9} {PERCENTILE_HEADER} {:>9} {:>7}\n",
        "template", "weight%", "queries", "q/s", "timeouts", "errors"
    ));
    let wall = report.wall.as_secs_f64().max(1e-9);
    let total_weight: f64 = report.templates.iter().map(|t| t.weight).sum();
    for t in &report.templates {
        out.push_str(&format!(
            "{:<8} {:>8.1} {:>9} {:>9.1} {} {:>9} {:>7}\n",
            t.label,
            t.weight / total_weight.max(1e-9) * 100.0,
            t.completed,
            t.completed as f64 / wall,
            percentile_cells(&t.latency),
            t.timeouts,
            t.errors,
        ));
    }
    out.push_str(&format!(
        "{:<8} {:>8} {:>9} {:>9.1} {} {:>9} {:>7}\n",
        "all",
        "",
        report.completed,
        report.completed_rate(),
        percentile_cells(&report.latency),
        report.timeouts,
        report.errors,
    ));
    out.push_str(&format!(
        "\n{:<8} {:>9} {:>9} {PERCENTILE_HEADER} {:>9} {:>7}\n",
        "client", "queries", "q/s", "timeouts", "errors"
    ));
    for c in &report.clients {
        out.push_str(&format!(
            "{:<8} {:>9} {:>9.1} {} {:>9} {:>7}\n",
            c.client,
            c.completed,
            c.completed as f64 / wall,
            percentile_cells(&c.latency),
            c.timeouts,
            c.errors,
        ));
    }
    if report.windows.len() > 1 {
        let width = report.windows[1].start.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "\nthroughput/p99 by {:.0} s window:\n{:<7} {:>9} {:>9} {:>10} {:>10} {:>10}\n",
            width, "t[s]", "queries", "q/s", "p50[ms]", "p99[ms]", "max[ms]"
        ));
        for w in &report.windows {
            out.push_str(&format!(
                "{:<7.0} {:>9} {:>9.1} {:>10.3} {:>10.3} {:>10.3}\n",
                w.start.as_secs_f64(),
                w.completed,
                w.completed as f64 / width,
                w.p50.as_secs_f64() * 1e3,
                w.p99.as_secs_f64() * 1e3,
                w.max.as_secs_f64() * 1e3,
            ));
        }
    }
    // A read-only store must answer every client identically every time:
    // any label whose count or checksum drifted is a correctness bug,
    // not noise — surface it loudly.
    if !report.inconsistent.is_empty() {
        out.push_str(&format!(
            "WARNING: unstable results (count/checksum drift) for: {}\n",
            report.inconsistent.join(", ")
        ));
    }
    out
}

/// The machine-readable workload report behind `--report json:FILE`
/// (schema `sp2b-workload/1`) — every histogram rendered through
/// [`sp2b_obs::histogram_json`], the same shape the server's `/stats`
/// endpoint uses. `intended_rate` is `null` for a closed loop.
pub fn workload_json(report: &WorkloadReport) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":\"sp2b-workload/1\",\"arrival\":\"{}\",\"clients\":{},\"seed\":{},\
         \"wall_seconds\":{},\"warmup_seconds\":{},\"warmup_excluded\":{},\
         \"issued\":{},\"completed\":{},\"timeouts\":{},\"errors\":{},\
         \"intended_rate\":{},\"completed_rate\":{}",
        report.arrival,
        report.clients.len(),
        report.seed,
        report.wall.as_secs_f64(),
        report.warmup.as_secs_f64(),
        report.warmup_excluded,
        report.issued,
        report.completed,
        report.timeouts,
        report.errors,
        report
            .intended_rate()
            .map_or("null".to_owned(), |r| r.to_string()),
        report.completed_rate(),
    );
    let _ = write!(
        out,
        ",\"latency\":{},\"queue_delay\":{},\"service\":{}",
        sp2b_obs::histogram_json(&report.latency),
        sp2b_obs::histogram_json(&report.queue_delay),
        sp2b_obs::histogram_json(&report.service),
    );
    let _ = write!(
        out,
        ",\"templates\":{},\"per_client\":{},\"windows\":{}}}",
        json_array(&report.templates, |t| format!(
            "{{\"template\":\"{}\",\"weight\":{},\"completed\":{},\"timeouts\":{},\
             \"errors\":{},\"latency\":{}}}",
            t.label,
            t.weight,
            t.completed,
            t.timeouts,
            t.errors,
            sp2b_obs::histogram_json(&t.latency),
        )),
        json_array(&report.clients, |c| format!(
            "{{\"client\":{},\"completed\":{},\"timeouts\":{},\"errors\":{},\
             \"warmup_excluded\":{},\"latency\":{}}}",
            c.client,
            c.completed,
            c.timeouts,
            c.errors,
            c.warmup_excluded,
            sp2b_obs::histogram_json(&c.latency),
        )),
        json_array(&report.windows, |w| format!(
            "{{\"start_seconds\":{},\"completed\":{},\"p50_seconds\":{},\
             \"p99_seconds\":{},\"max_seconds\":{}}}",
            w.start.as_secs_f64(),
            w.completed,
            w.p50.as_secs_f64(),
            w.p99.as_secs_f64(),
            w.max.as_secs_f64(),
        )),
    );
    out
}

/// `[a,b,…]` with each item rendered by `render`.
fn json_array<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
    format!(
        "[{}]",
        items.iter().map(render).collect::<Vec<_>>().join(",")
    )
}

/// The full mixed-workload report: what was driven — scale, engine,
/// load time and sharding facts for an in-process store, the URL for a
/// live endpoint (whose latencies include connection handling, request
/// framing and result-set transfer, not just evaluation) — plus the
/// [`workload_table`].
pub fn mixed_workload_report(report: &MixedWorkloadReport) -> String {
    let mut out = match &report.target {
        TargetFacts::Store {
            scale,
            engine,
            load,
            shards,
        } => {
            let mut header = format!(
                "MIXED WORKLOAD — {} triples on {} (loaded in {})\n",
                scale_label(*scale),
                engine.label(),
                load.summary()
            );
            if shards.count() > 1 {
                header.push_str(&format!("{}\n", shards.summary()));
            }
            header
        }
        TargetFacts::Endpoint(url) => {
            format!("SPARQL ENDPOINT WORKLOAD — {url} (latency includes the network path)\n")
        }
    };
    out.push('\n');
    out.push_str(&workload_table(&report.workload));
    out
}

/// The full report: all tables and series.
pub fn full_report(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str(&success_table(report));
    out.push('\n');
    out.push_str(&result_sizes_table(report));
    out.push('\n');
    out.push_str(&means_table(report));
    out.push('\n');
    out.push_str(&loading_table(report));
    out.push('\n');
    out.push_str(&figure_series(report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::EngineKind;
    use crate::metrics::Measurement;
    use crate::queries::BenchQuery;
    use crate::runner::{LoadRecord, QueryRecord, Status};
    use std::time::Duration;

    fn fake_report() -> BenchmarkReport {
        let mut report = BenchmarkReport {
            scales: vec![10_000, 50_000],
            engines: vec![EngineKind::MemNaive, EngineKind::NativeOpt],
            queries: vec![BenchQuery::Q1, BenchQuery::Q4],
            ..Default::default()
        };
        for &scale in &[10_000u64, 50_000] {
            for engine in [EngineKind::MemNaive, EngineKind::NativeOpt] {
                report.loads.push(LoadRecord {
                    scale,
                    engine,
                    measurement: Measurement {
                        tme: Duration::from_millis(5),
                        ..Default::default()
                    },
                });
                for (query, status, count) in [
                    (BenchQuery::Q1, Status::Success, Some(1)),
                    (
                        BenchQuery::Q4,
                        if engine == EngineKind::MemNaive {
                            Status::Timeout
                        } else {
                            Status::Success
                        },
                        if engine == EngineKind::MemNaive {
                            None
                        } else {
                            Some(23_226)
                        },
                    ),
                ] {
                    report.records.push(QueryRecord {
                        scale,
                        engine,
                        query,
                        status,
                        measurement: Measurement {
                            tme: Duration::from_millis(12),
                            rmem_kib: Some(2048),
                            ..Default::default()
                        },
                        count,
                    });
                }
            }
        }
        report
    }

    #[test]
    fn scale_labels() {
        assert_eq!(scale_label(10_000), "10k");
        assert_eq!(scale_label(1_000_000), "1M");
        assert_eq!(scale_label(1_234), "1234");
    }

    #[test]
    fn success_table_shows_letters() {
        let s = success_table(&fake_report());
        assert!(s.contains("mem-naive"), "{s}");
        assert!(s.contains('T'), "timeout letter missing:\n{s}");
        assert!(s.contains('+'));
    }

    #[test]
    fn result_sizes_prefer_successful_engines() {
        let s = result_sizes_table(&fake_report());
        assert!(s.contains("23226"), "{s}");
    }

    #[test]
    fn means_apply_penalty() {
        let s = means_table(&fake_report());
        // mem-naive has one timeout of 3600 s and one 12 ms run →
        // Ta ≈ 1800 s.
        assert!(s.contains("1800."), "{s}");
    }

    #[test]
    fn figure_series_include_failures() {
        let s = figure_series(&fake_report());
        assert!(s.contains("Q4"));
        assert!(s.contains("T"), "{s}");
    }

    #[test]
    fn full_report_concatenates_everything() {
        let s = full_report(&fake_report());
        assert!(s.contains("TABLE IV"));
        assert!(s.contains("TABLE V"));
        assert!(s.contains("TABLES VI/VII"));
        assert!(s.contains("LOADING"));
        assert!(s.contains("FIGURES 5-8"));
    }

    fn hist(millis: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &m in millis {
            h.record(Duration::from_millis(m));
        }
        h
    }

    fn client(i: usize, queries: u64) -> crate::workload::ClientReport {
        crate::workload::ClientReport {
            client: i,
            completed: queries,
            latency: hist(&(1..=queries).collect::<Vec<_>>()),
            ..Default::default()
        }
    }

    /// A closed-loop run: 2 clients, 30 queries in 2 s.
    fn closed_report() -> WorkloadReport {
        use crate::workload::{Arrival, TemplateReport};
        WorkloadReport {
            arrival: Arrival::Closed,
            seed: 0,
            warmup: Duration::ZERO,
            wall: Duration::from_secs(2),
            issued: 30,
            schedule_span: None,
            warmup_excluded: 0,
            completed: 30,
            timeouts: 0,
            errors: 0,
            latency: hist(&[1, 2, 3]),
            queue_delay: hist(&[0, 0, 0]),
            service: hist(&[1, 2, 3]),
            templates: vec![TemplateReport {
                label: "Q1".into(),
                weight: 1.0,
                completed: 30,
                timeouts: 0,
                errors: 0,
                latency: hist(&[1, 2, 3]),
            }],
            clients: vec![client(0, 10), client(1, 20)],
            windows: Vec::new(),
            counts: Default::default(),
            inconsistent: Vec::new(),
        }
    }

    #[test]
    fn endpoint_report_carries_the_url_and_table() {
        let report = MixedWorkloadReport {
            target: TargetFacts::Endpoint("http://127.0.0.1:8088/sparql".into()),
            workload: closed_report(),
        };
        let s = mixed_workload_report(&report);
        assert!(s.contains("SPARQL ENDPOINT WORKLOAD"), "{s}");
        assert!(s.contains("http://127.0.0.1:8088/sparql"), "{s}");
        assert!(s.contains("p99[ms]"), "{s}");
    }

    #[test]
    fn workload_table_has_per_client_and_aggregate_rows() {
        let report = MixedWorkloadReport {
            target: TargetFacts::Store {
                scale: 10_000,
                engine: EngineKind::NativeOpt,
                load: Measurement {
                    tme: Duration::from_millis(7),
                    ..Default::default()
                },
                shards: crate::engines::ShardInfo {
                    shard_by: sp2b_store::ShardBy::Subject,
                    backend: "native",
                    lens: vec![5_100, 4_900],
                    build_times: vec![Duration::from_millis(3), Duration::from_millis(4)],
                },
            },
            workload: closed_report(),
        };
        let s = mixed_workload_report(&report);
        assert!(s.contains("MIXED WORKLOAD"), "{s}");
        assert!(s.contains("10k"), "{s}");
        assert!(s.contains("2 shard(s) by subject"), "{s}");
        assert!(s.contains("5100/4900"), "{s}");
        assert!(s.contains("p99[ms]"), "{s}");
        assert!(s.contains("arrival closed, 2 client(s)"), "{s}");
        assert!(
            s.contains("rate: completed 15.0 q/s (30 done"),
            "aggregate throughput 30/2s, and no intended rate to compare with:\n{s}"
        );
        assert!(
            s.lines().filter(|l| l.starts_with("all")).count() == 1,
            "{s}"
        );
        // One row per client, after the `client` header.
        let client_rows: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.starts_with("client "))
            .skip(1)
            .take(2)
            .collect();
        assert!(
            client_rows[0].starts_with("0 ") && client_rows[0].contains(" 10 "),
            "{s}"
        );
        assert!(
            client_rows[1].starts_with("1 ") && client_rows[1].contains(" 20 "),
            "{s}"
        );
        assert!(
            client_rows[1].contains("10.0"),
            "client 1 throughput 20/2s:\n{s}"
        );

        // The same run dumps as JSON: closed arrival, no intended rate.
        let json = workload_json(&report.workload);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"arrival\":\"closed\""), "{json}");
        assert!(json.contains("\"intended_rate\":null"), "{json}");
        assert!(
            json.contains("\"per_client\":[{\"client\":0,\"completed\":10,"),
            "{json}"
        );
    }

    #[test]
    fn open_loop_report_renders_rate_line_template_rows_and_json() {
        use crate::workload::{Arrival, TemplateReport};
        use sp2b_obs::WindowSnapshot;

        let report = WorkloadReport {
            arrival: Arrival::Poisson { rate: 200.0 },
            seed: 42,
            warmup: Duration::from_secs(1),
            wall: Duration::from_secs(10),
            issued: 2_000,
            schedule_span: Some(Duration::from_secs(10)),
            warmup_excluded: 180,
            completed: 1_815,
            timeouts: 3,
            errors: 2,
            latency: hist(&[2, 5, 9]),
            queue_delay: hist(&[1, 1, 2]),
            service: hist(&[1, 4, 7]),
            templates: vec![
                TemplateReport {
                    label: "Q1".into(),
                    weight: 90.0,
                    completed: 1_640,
                    timeouts: 2,
                    errors: 1,
                    latency: hist(&[2, 5]),
                },
                TemplateReport {
                    label: "Q8".into(),
                    weight: 10.0,
                    completed: 175,
                    timeouts: 1,
                    errors: 1,
                    latency: hist(&[9]),
                },
            ],
            clients: vec![client(0, 900), client(1, 915)],
            windows: vec![
                WindowSnapshot {
                    start: Duration::ZERO,
                    completed: 900,
                    p50: Duration::from_millis(3),
                    p99: Duration::from_millis(8),
                    max: Duration::from_millis(9),
                },
                WindowSnapshot {
                    start: Duration::from_secs(1),
                    completed: 915,
                    p50: Duration::from_millis(3),
                    p99: Duration::from_millis(9),
                    max: Duration::from_millis(9),
                },
            ],
            counts: Default::default(),
            inconsistent: Vec::new(),
        };

        let s = workload_table(&report);
        assert!(
            s.contains("MULTI-USER WORKLOAD — arrival poisson:200/s, 2 client(s), seed 42"),
            "{s}"
        );
        assert!(s.contains("rate: intended 200.0 q/s"), "{s}");
        assert!(s.contains("drift "), "{s}");
        assert!(s.contains("warmup: 1.0 s (180 queries excluded)"), "{s}");
        assert!(s.contains("queue-delay"), "{s}");
        assert!(s.lines().any(|l| l.starts_with("Q1 ")), "{s}");
        assert!(s.lines().any(|l| l.starts_with("Q8 ")), "{s}");
        assert!(
            s.lines().filter(|l| l.starts_with("all")).count() == 1,
            "{s}"
        );
        assert!(s.contains("throughput/p99 by 1 s window"), "{s}");

        let json = workload_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"schema\":\"sp2b-workload/1\""), "{json}");
        assert!(json.contains("\"arrival\":\"poisson:200/s\""), "{json}");
        assert!(json.contains("\"clients\":2,"), "{json}");
        assert!(json.contains("\"template\":\"Q1\""), "{json}");
        assert!(json.contains("\"intended_rate\":200"), "{json}");
        assert!(json.contains("\"queue_delay\":{\"count\":3"), "{json}");
        assert!(
            json.contains("\"windows\":[{\"start_seconds\":0,"),
            "{json}"
        );
    }
}
