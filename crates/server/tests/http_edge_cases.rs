//! Protocol-conformance and edge-case tests against a live server on an
//! ephemeral port: malformed request lines, oversized heads, bad and
//! missing `Content-Length`, percent-decoding of the `query` parameter,
//! `Accept` negotiation (including `406`), method/path routing,
//! keep-alive reuse, per-request timeouts (`408`), and graceful
//! shutdown with the final stats snapshot.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_server::{spawn, ServerConfig, ServerHandle};
use sp2b_sparql::{QueryEngine, QueryOptions};
use sp2b_store::TripleStore;

mod common;
use common::{load, NATIVE};

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

fn server() -> ServerHandle {
    spawn(engine(10), &ServerConfig::default()).expect("bind ephemeral port")
}

/// Sends raw bytes, reads until the server closes, returns the response
/// text. Every request here either carries `Connection: close` or is
/// malformed enough that the server closes on its own.
fn roundtrip(handle: &ServerHandle, raw: &str) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
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

#[test]
fn malformed_request_line_is_400() {
    let handle = server();
    let resp = roundtrip(&handle, "THIS IS NOT HTTP AT ALL\r\n\r\n");
    assert_eq!(status_of(&resp), 400, "{resp}");
    let resp = roundtrip(&handle, "GET /sparql HTTP/2\r\n\r\n");
    assert_eq!(status_of(&resp), 400, "{resp}");
}

#[test]
fn oversized_headers_are_431() {
    let handle = server();
    let resp = roundtrip(
        &handle,
        &format!(
            "GET /sparql HTTP/1.1\r\nBig: {}\r\nConnection: close\r\n\r\n",
            "x".repeat(64 * 1024)
        ),
    );
    assert_eq!(status_of(&resp), 431, "{resp}");
}

#[test]
fn content_length_problems_map_to_411_400_413() {
    let handle = server();
    let resp = roundtrip(
        &handle,
        "POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 411, "missing Content-Length: {resp}");
    let resp = roundtrip(
        &handle,
        "POST /sparql HTTP/1.1\r\nContent-Length: banana\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 400, "bad Content-Length: {resp}");
    let resp = roundtrip(
        &handle,
        "POST /sparql HTTP/1.1\r\nContent-Length: 99999999\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 413, "huge Content-Length: {resp}");
}

#[test]
fn query_parameter_is_percent_decoded() {
    let handle = server();
    // `SELECT ?s WHERE { ?s <http://x/p> ?o }`, fully escaped, with `+`
    // for spaces in one spot.
    let q = "SELECT+%3Fs%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fx%2Fp%3E%20%3Fo%20%7D";
    let resp = roundtrip(
        &handle,
        &format!("GET /sparql?query={q} HTTP/1.1\r\nAccept: text/csv\r\nConnection: close\r\n\r\n"),
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    // Header + 10 data rows.
    assert_eq!(body_of(&resp).lines().count(), 11, "{resp}");
    // A broken escape is a 400, not a silent mis-parse.
    let resp = roundtrip(
        &handle,
        "GET /sparql?query=ASK%2 HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 400, "{resp}");
    // Missing query parameter entirely.
    let resp = roundtrip(
        &handle,
        "GET /sparql?other=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 400, "{resp}");
}

#[test]
fn unsupported_accept_is_406_and_negotiation_picks_formats() {
    let handle = server();
    let ask = "query=ASK%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fx%2Fp%3E%201%20%7D";
    let resp = roundtrip(
        &handle,
        &format!(
            "GET /sparql?{ask} HTTP/1.1\r\nAccept: application/xml\r\nConnection: close\r\n\r\n"
        ),
    );
    assert_eq!(status_of(&resp), 406, "{resp}");
    // JSON by default…
    let resp = roundtrip(
        &handle,
        &format!("GET /sparql?{ask} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    );
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("application/sparql-results+json"), "{resp}");
    assert!(body_of(&resp).contains("\"boolean\":true"), "{resp}");
    // …text/boolean for an ASK under CSV accept.
    let resp = roundtrip(
        &handle,
        &format!("GET /sparql?{ask} HTTP/1.1\r\nAccept: text/csv\r\nConnection: close\r\n\r\n"),
    );
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("text/boolean"), "{resp}");
    assert_eq!(body_of(&resp).trim(), "true", "{resp}");
}

#[test]
fn routing_and_methods() {
    let handle = server();
    let resp = roundtrip(
        &handle,
        "GET /elsewhere HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 404, "{resp}");
    let resp = roundtrip(
        &handle,
        "DELETE /sparql HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 405, "{resp}");
    let resp = roundtrip(
        &handle,
        "POST /sparql HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 5\r\nConnection: close\r\n\r\nASK{}",
    );
    assert_eq!(status_of(&resp), 415, "{resp}");
    let resp = roundtrip(&handle, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(body_of(&resp).contains("/sparql"), "{resp}");
}

#[test]
fn post_bodies_work_in_both_encodings() {
    let handle = server();
    let query = "SELECT ?s WHERE { ?s <http://x/p> 3 }";
    let resp = roundtrip(
        &handle,
        &format!(
            "POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\n\
             Content-Length: {}\r\nAccept: text/tab-separated-values\r\nConnection: close\r\n\r\n{query}",
            query.len()
        ),
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert_eq!(body_of(&resp).lines().count(), 2, "header + 1 row: {resp}");

    let form = "query=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fx%2Fp%3E%203%20%7D";
    let resp = roundtrip(
        &handle,
        &format!(
            "POST /sparql HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\nAccept: text/csv\r\nConnection: close\r\n\r\n{form}",
            form.len()
        ),
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert_eq!(body_of(&resp).lines().count(), 2, "{resp}");
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let handle = server();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let ask = "GET /sparql?query=ASK%7B%7D HTTP/1.1\r\nAccept: text/csv\r\n\r\n";
    let last =
        "GET /sparql?query=ASK%7B%7D HTTP/1.1\r\nAccept: text/csv\r\nConnection: close\r\n\r\n";
    stream.write_all(ask.as_bytes()).unwrap();
    stream.write_all(ask.as_bytes()).unwrap();
    stream.write_all(last.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert_eq!(
        out.matches("HTTP/1.1 200").count(),
        3,
        "three responses on one connection: {out}"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.connections, 1, "{stats:?}");
    assert_eq!(stats.requests, 3, "{stats:?}");
}

/// Reads exactly one `Content-Length`-framed response off a keep-alive
/// connection.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    let head_text = String::from_utf8(head).unwrap();
    let length: usize = head_text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("framed response")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).unwrap();
    head_text + &String::from_utf8(body).unwrap()
}

/// More live connections than workers must round-robin, not starve:
/// with 2 workers and 4 keep-alive connections, every connection gets
/// every one of its requests answered (a worker whose connection goes
/// idle while others wait hands it back to the queue).
#[test]
fn more_connections_than_workers_round_robin() {
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = spawn(engine(10), &cfg).unwrap();
    let request = "GET /sparql?query=ASK%7B%7D HTTP/1.1\r\nAccept: text/csv\r\n\r\n";
    let mut conns: Vec<TcpStream> = (0..4)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s
        })
        .collect();
    for _round in 0..3 {
        for conn in &mut conns {
            conn.write_all(request.as_bytes()).unwrap();
            let response = read_one_response(conn);
            assert_eq!(status_of(&response), 200, "{response}");
            assert_eq!(body_of(&response).trim(), "true", "{response}");
        }
    }
    drop(conns);
    let stats = handle.shutdown();
    assert_eq!(stats.ok, 12, "4 connections × 3 rounds: {stats:?}");
    assert_eq!(stats.connections, 4, "{stats:?}");
}

/// Load shedding: with a zero-depth accept queue and the only worker
/// pinned to a live keep-alive connection, new connections must be
/// answered `503` + `Retry-After` and closed — and never counted as
/// accepted — instead of queueing unboundedly.
#[test]
fn overloaded_accept_queue_sheds_with_503_retry_after() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue: 0,
        ..ServerConfig::default()
    };
    let handle = spawn(engine(10), &cfg).unwrap();
    // Pin the only worker: serve one request, then hold the connection
    // open (keep-alive) so the worker sits in its idle loop, not in the
    // queue's waiting set.
    let mut busy = TcpStream::connect(handle.addr()).unwrap();
    busy.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    busy.write_all(b"GET /sparql?query=ASK%7B%7D HTTP/1.1\r\nAccept: text/csv\r\n\r\n")
        .unwrap();
    let response = read_one_response(&mut busy);
    assert_eq!(status_of(&response), 200, "{response}");
    // A realistic client writes its request immediately; the server
    // never reads it (shedding happens at accept), but the lingering
    // close must still deliver the full 503 — not an RST that destroys
    // it. Also cover a client that connects without sending anything.
    let requests: [&str; 2] = ["GET / HTTP/1.1\r\nConnection: close\r\n\r\n", ""];
    for request in requests {
        let mut shed = TcpStream::connect(handle.addr()).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        if !request.is_empty() {
            shed.write_all(request.as_bytes()).unwrap();
        }
        let mut resp = String::new();
        shed.read_to_string(&mut resp).unwrap();
        assert_eq!(status_of(&resp), 503, "{resp}");
        assert!(resp.contains("Retry-After: 1"), "{resp}");
        assert!(
            resp.to_ascii_lowercase().contains("connection: close"),
            "{resp}"
        );
    }
    drop(busy);
    let stats = handle.shutdown();
    assert_eq!(stats.shed, 2, "{stats:?}");
    assert_eq!(
        stats.connections, 1,
        "shed connections must not count as accepted: {stats:?}"
    );
    assert_eq!(stats.ok, 1, "{stats:?}");
}

#[test]
fn query_errors_are_400_with_a_message() {
    let handle = server();
    let resp = roundtrip(
        &handle,
        "GET /sparql?query=SELECT+WHERE HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(!body_of(&resp).trim().is_empty(), "error body: {resp}");
    // `SELECT (COUNT(?o) AS ?s) WHERE { ?s <http://x/p> ?o }`: an alias
    // naming a pattern variable.
    let resp = roundtrip(
        &handle,
        "GET /sparql?query=SELECT%20%28COUNT%28%3Fo%29%20AS%20%3Fs%29%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fx%2Fp%3E%20%3Fo%20%7D HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(
        body_of(&resp).contains("AS ?s names a variable already in scope"),
        "{resp}"
    );
}

#[test]
fn zero_timeout_maps_to_408() {
    let cfg = ServerConfig {
        timeout: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let handle = spawn(engine(10), &cfg).unwrap();
    let resp = roundtrip(
        &handle,
        "GET /sparql?query=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Fx%2Fp%3E%20%3Fo%20%7D HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 408, "{resp}");
    let stats = handle.shutdown();
    assert_eq!(stats.timeouts, 1, "{stats:?}");
}

#[test]
fn graceful_shutdown_reports_stats_and_stops_accepting() {
    let handle = server();
    let addr = handle.addr();
    let resp = roundtrip(
        &handle,
        "GET /sparql?query=ASK%7B%7D HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 200);
    let stats = handle.shutdown();
    assert_eq!(stats.ok, 1, "{stats:?}");
    // The listener is gone: connections are refused (or reset instantly).
    let after = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(mut stream) = after {
        let mut buf = [0u8; 1];
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert!(
            matches!(stream.read(&mut buf), Ok(0) | Err(_)),
            "a post-shutdown connection must not be served"
        );
    }
}
