//! Telemetry-surface tests against a live server on an ephemeral port:
//! `/metrics` is valid Prometheus text exposition whose counters are
//! monotone across scrapes, `/stats` is one balanced JSON object that
//! agrees with [`ServerHandle::stats`], unknown paths still 404, and a
//! tiny slow-log threshold emits exactly one `slow-query:` line per
//! query, whose `op_rows` are the rows the query's pattern steps scanned.
//!
//! The metrics registry is process-global and [`spawn`] re-registers
//! the callback series on every call, so every test here serializes on
//! one mutex — two servers alive at once would race over who owns the
//! gauges.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use sp2b_core::BenchQuery;
use sp2b_datagen::{generate_graph, Config};
use sp2b_obs::OpKind;
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_server::{spawn, ServerConfig, ServerHandle, SlowLog};
use sp2b_sparql::{query_trace, QueryEngine, QueryOptions, ScanCounters};
use sp2b_store::TripleStore;

mod common;
use common::{load, NATIVE};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine(rows: i64) -> QueryEngine {
    let mut g = Graph::new();
    for i in 0..rows {
        g.add(
            Subject::iri(format!("http://x/s{i:04}")),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
    }
    QueryEngine::with_options(
        load(&g, NATIVE).into_shared(),
        QueryOptions::new().parallelism(1),
    )
}

fn server(cfg: &ServerConfig) -> ServerHandle {
    spawn(engine(10), cfg).expect("bind ephemeral port")
}

/// One `Connection: close` request; returns the full response text.
fn get(handle: &ServerHandle, path: &str) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Runs one query (10 rows) through the endpoint.
fn run_query(handle: &ServerHandle) {
    let q = "SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fx%2Fp%3E%20%3Fo%20%7D";
    let resp = get(handle, &format!("/sparql?query={q}"));
    assert_eq!(status_of(&resp), 200, "{resp}");
}

/// The value column of the series `name` in a `/metrics` scrape.
fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or_else(|| panic!("series {name} not in scrape:\n{text}"))
        .parse()
        .unwrap_or_else(|_| panic!("unparsable value for {name}"))
}

#[test]
fn metrics_is_valid_exposition_with_the_advertised_series() {
    let _guard = serialize();
    let handle = server(&ServerConfig::default());
    run_query(&handle);
    let resp = get(&handle, "/metrics");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(
        resp.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{resp}"
    );
    let text = body_of(&resp);

    // Every series the issue promises: requests, queue depth, the
    // latency histogram, the cache counters, the exchange gauges.
    for name in [
        "sp2b_requests_total",
        "sp2b_responses_ok_total",
        "sp2b_rows_total",
        "sp2b_queue_depth",
        "sp2b_workers_waiting",
        "sp2b_request_seconds_count",
        "sp2b_request_seconds_sum",
        "sp2b_cache_hits_total",
        "sp2b_cache_misses_total",
        "sp2b_exchange_live_workers",
        "sp2b_exchange_in_flight_batches",
        "sp2b_exchange_peak_in_flight_batches",
        "sp2b_dictionary_bytes",
        "sp2b_store_triples",
        "sp2b_slow_queries_total",
    ] {
        series(text, name);
    }
    assert!(series(text, "sp2b_dictionary_bytes") > 0.0, "{text}");
    assert!(
        text.contains("sp2b_request_seconds_bucket{le=\"+Inf\"}"),
        "{text}"
    );

    // Exposition shape: every series has a HELP and TYPE preamble, every
    // non-comment line is exactly `name[{labels}] value`.
    let mut seen_help = std::collections::HashSet::new();
    let mut seen_type = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            seen_help.insert(rest.split_whitespace().next().unwrap().to_owned());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap();
            assert!(seen_type.insert(name.to_owned()), "second preamble: {line}");
            let kind = parts.next().unwrap();
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
        } else if !line.is_empty() {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let base = name
                .split('{')
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                seen_help.contains(base) && seen_type.contains(base),
                "series {name} has no HELP/TYPE preamble"
            );
            let value = parts.next().unwrap_or_else(|| panic!("no value: {line}"));
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
            assert_eq!(parts.next(), None, "trailing columns: {line}");
        }
    }

    // The latency histogram's cumulative buckets are monotone and end at
    // the count.
    let mut previous = 0.0f64;
    for line in text.lines() {
        if line.starts_with("sp2b_request_seconds_bucket{") {
            let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert!(v >= previous, "bucket not cumulative: {line}");
            previous = v;
        }
    }
    assert_eq!(previous, series(text, "sp2b_request_seconds_count"));
}

#[test]
fn metrics_counters_are_monotone_across_scrapes() {
    let _guard = serialize();
    let handle = server(&ServerConfig::default());
    run_query(&handle);
    let first = get(&handle, "/metrics");
    run_query(&handle);
    let second = get(&handle, "/metrics");
    let (first, second) = (body_of(&first), body_of(&second));
    for name in [
        "sp2b_connections_total",
        "sp2b_requests_total",
        "sp2b_responses_ok_total",
        "sp2b_rows_total",
        "sp2b_request_seconds_count",
    ] {
        let (a, b) = (series(first, name), series(second, name));
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    // The second scrape definitely saw more requests: the query plus the
    // first scrape itself.
    assert!(
        series(second, "sp2b_requests_total") >= series(first, "sp2b_requests_total") + 2.0,
        "expected at least two more requests between scrapes"
    );
    assert_eq!(series(second, "sp2b_rows_total"), 20.0);
}

#[test]
fn stats_is_one_json_object_agreeing_with_the_handle() {
    let _guard = serialize();
    let handle = server(&ServerConfig::default());
    run_query(&handle);
    let resp = get(&handle, "/stats");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("Content-Type: application/json"), "{resp}");
    let body = body_of(&resp).trim();
    assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
    assert_eq!(
        body.matches('{').count(),
        body.matches('}').count(),
        "{body}"
    );
    assert!(!body.contains('\n'), "one line: {body}");
    for key in [
        "\"server\":{",
        "\"metrics\":{",
        "\"sp2b_request_seconds\":{",
    ] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    // The server block round-trips the handle's own snapshot: the query
    // delivered 10 rows, and `rows` appears in both representations.
    assert_eq!(handle.stats().rows, 10);
    assert!(body.contains("\"rows\":10"), "{body}");
    assert!(body.contains("\"sp2b_rows_total\":10"), "{body}");
}

#[test]
fn unknown_paths_are_still_404_and_metrics_is_get_only() {
    let _guard = serialize();
    let handle = server(&ServerConfig::default());
    let resp = get(&handle, "/metricsx");
    assert_eq!(status_of(&resp), 404, "{resp}");
    let resp = get(&handle, "/nope");
    assert_eq!(status_of(&resp), 404, "{resp}");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert_eq!(status_of(&out), 405, "{out}");
}

#[test]
fn tiny_slow_threshold_logs_exactly_one_line_per_query() {
    let _guard = serialize();
    let (slow_log, buffer) = SlowLog::to_buffer(Duration::ZERO);
    let cfg = ServerConfig {
        slow_log: Some(slow_log),
        ..ServerConfig::default()
    };
    let handle = server(&cfg);
    run_query(&handle);
    // Non-query requests never hit the slow log, however slow.
    let resp = get(&handle, "/metrics");
    assert_eq!(status_of(&resp), 200, "{resp}");

    let log = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 1, "expected exactly one slow-log line:\n{log}");
    let line = lines[0];
    assert!(line.starts_with("slow-query: total="), "{line}");
    for field in [
        "prepare=",
        "execute=",
        "ops=",
        "op_rows=",
        "rows=10",
        "query=\"SELECT",
    ] {
        assert!(line.contains(field), "missing {field}: {line}");
    }
    // The slow counter moved with it, in every surface.
    let scrape = get(&handle, "/metrics");
    assert_eq!(series(body_of(&scrape), "sp2b_slow_queries_total"), 1.0);
    assert!(body_of(&get(&handle, "/stats")).contains("\"slow_queries\":1}"));
    assert_eq!(handle.shutdown().slow_queries, 1);
}

/// `op_rows` counts what the pattern steps scanned — `--explain`'s
/// `emitted` total and the ledger's `ScanCounters::total_rows` — not the
/// rows joins emit on top: Q2's left join outputs hundreds of rows that
/// are the query's result, not scan work.
#[test]
fn slow_log_op_rows_are_the_rows_the_pattern_steps_scanned() {
    let _guard = serialize();
    let (graph, _) = generate_graph(Config::triples(5_000));
    let store = load(&graph, NATIVE).into_shared();
    let engine = QueryEngine::with_options(store, QueryOptions::new().parallelism(1));
    let q2 = BenchQuery::Q2.text();

    let counters = Arc::new(ScanCounters::default());
    let watched = engine.clone().scan_counters(counters.clone());
    let prepared = watched.prepare(q2).unwrap();
    watched.execute(&prepared).unwrap();
    let trace = query_trace(&prepared, watched.store(), &counters);
    let joined: u64 = trace
        .operators
        .iter()
        .filter(|o| o.kind == OpKind::Join)
        .map(|o| o.rows)
        .sum();
    assert!(joined > 0, "Q2 plans a left join that emits rows");

    let (slow_log, buffer) = SlowLog::to_buffer(Duration::ZERO);
    let cfg = ServerConfig {
        slow_log: Some(slow_log),
        ..ServerConfig::default()
    };
    let handle = spawn(engine, &cfg).expect("bind ephemeral port");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let request = format!(
        "POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{q2}",
        q2.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert_eq!(status_of(&response), 200, "{response}");

    let log = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let op_rows = log
        .split_whitespace()
        .find_map(|field| field.strip_prefix("op_rows="))
        .unwrap_or_else(|| panic!("no op_rows in {log}"));
    assert_eq!(op_rows, counters.total_rows().to_string(), "{log}");
    assert_eq!(op_rows, trace.scanned_rows().to_string(), "{log}");
}
