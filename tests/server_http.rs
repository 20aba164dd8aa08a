//! Endpoint acceptance: a live `sp2b_server` on an ephemeral port must
//! deliver, for every benchmark query Q1–Q12 and extension query A1–A5,
//! exactly the result counts the in-process `QueryEngine` computes —
//! over both JSON and CSV wire formats — and a client that kills its
//! connection mid-stream must have its query cancelled without leaking
//! an exchange worker thread (checked via the `par::diag` gauges).

mod common;

use common::loaded;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use sp2bench::core::endpoint::{count_result_rows, query_once, Endpoint};
use sp2bench::core::{BenchQuery, EngineKind, ExtQuery};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::server::{spawn, ServerConfig, ServerHandle};
use sp2bench::sparql::QueryEngine;

/// The exchange diag gauges are process-wide: serialize the tests.
static SERIAL: Mutex<()> = Mutex::new(());

const TRIPLES: u64 = 6_000;

fn boot(parallelism: usize, triples: u64) -> (ServerHandle, QueryEngine) {
    let (graph, _) = generate_graph(Config::triples(triples));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let qe = engine.query_engine_with(None, Some(parallelism));
    let cfg = ServerConfig {
        timeout: Some(Duration::from_secs(120)),
        workers: 3,
        ..ServerConfig::default()
    };
    let handle = spawn(qe.clone(), &cfg).expect("bind ephemeral port");
    assert_ne!(handle.addr().port(), 0, "ephemeral port must be resolved");
    (handle, qe)
}

#[test]
fn http_counts_match_in_process_for_every_benchmark_query() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, qe) = boot(2, TRIPLES);
    let endpoint = Endpoint::parse(&handle.endpoint_url()).unwrap();
    let mut queries: Vec<(String, &'static str)> = BenchQuery::ALL
        .iter()
        .map(|q| (q.label().to_owned(), q.text()))
        .collect();
    queries.extend(
        ExtQuery::ALL
            .iter()
            .map(|q| (q.label().to_owned(), q.text())),
    );
    assert_eq!(queries.len(), 22, "Q1–Q12 (incl. variants) + A1–A5");

    for (label, text) in &queries {
        let prepared = qe.prepare(text).unwrap_or_else(|e| panic!("{label}: {e}"));
        let expected = qe
            .count(&prepared)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        for accept in ["application/sparql-results+json", "text/csv"] {
            let response = query_once(&endpoint, text, accept, Duration::from_secs(120))
                .unwrap_or_else(|e| panic!("{label} over {accept}: {e}"));
            assert_eq!(
                response.status,
                200,
                "{label} over {accept}: {}",
                response.text()
            );
            let counted = count_result_rows(&response.content_type(), &response.body)
                .unwrap_or_else(|e| panic!("{label} over {accept}: {e}"));
            assert_eq!(
                counted, expected,
                "{label} over {accept}: HTTP delivered {counted}, in-process counted {expected}"
            );
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.ok, 2 * queries.len() as u64, "{stats:?}");
    assert_eq!(stats.server_errors, 0, "{stats:?}");
    assert_eq!(stats.client_errors, 0, "{stats:?}");
}

/// Endpoint-mode checksums: the multi-user driver over HTTP must fold
/// exactly the checksums the in-process transport folds for the same
/// mix over the same store — order-insensitive content equality, not
/// just cardinality — including the ASK boolean-line form.
#[test]
fn endpoint_checksums_match_in_process_checksums() {
    use sp2bench::core::multiuser::{InProcessTransport, MultiuserConfig, StopCondition, WorkItem};
    use sp2bench::core::{run_workload, HttpTransport};

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, qe) = boot(1, TRIPLES);
    let mut cfg = MultiuserConfig::new(1, StopCondition::Rounds(1));
    cfg.checksums = true;
    cfg.timeout = Duration::from_secs(120);
    cfg.mix = vec![
        WorkItem::bench(BenchQuery::Q2),
        WorkItem::bench(BenchQuery::Q5a),
        WorkItem::bench(BenchQuery::Q8),
        WorkItem::bench(BenchQuery::Q12c), // ASK → text/boolean checksum
        WorkItem::ext(ExtQuery::A1),
    ];
    let inproc = run_workload(&InProcessTransport::new(qe.shared_store(), &cfg), &cfg);
    let endpoint = Endpoint::parse(&handle.endpoint_url()).unwrap();
    let http = run_workload(&HttpTransport::new(endpoint), &cfg);
    handle.shutdown();

    let a = &inproc.clients[0];
    let b = &http.clients[0];
    assert_eq!(a.errors + b.errors, 0, "{a:?} {b:?}");
    assert!(a.inconsistent.is_empty() && b.inconsistent.is_empty());
    assert_eq!(a.counts, b.counts, "row counts must transfer");
    assert_eq!(a.checksums.len(), cfg.mix.len(), "{:?}", a.checksums);
    assert_eq!(
        a.checksums, b.checksums,
        "HTTP TSV checksums must equal in-process folds"
    );
}

#[test]
fn killed_client_connection_cancels_the_query_without_leaking_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A bigger document and a full scan, so the response far exceeds the
    // socket buffers and the server is still streaming when the client
    // vanishes; parallelism 4 makes the scan run through the exchange,
    // so worker-thread cleanup is actually exercised.
    let (handle, _qe) = boot(4, 60_000);
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
        stream
            .write_all(
                format!(
                    "POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\n\
                     Content-Length: {}\r\nAccept: text/tab-separated-values\r\n\r\n{query}",
                    query.len()
                )
                .as_bytes(),
            )
            .unwrap();
        // Read a token amount — proof the stream started — then kill the
        // connection with most of the response unread.
        let mut first = [0u8; 1024];
        stream.read_exact(&mut first).unwrap();
        assert!(
            first.starts_with(b"HTTP/1.1 200"),
            "stream must have started"
        );
        // Dropped here: the OS resets the connection with unread data.
    }
    // The server's next write fails, which must cancel the query, drop
    // the Solutions stream and join every exchange worker.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let aborted = handle.stats().aborted;
        #[cfg(debug_assertions)]
        let workers_done = sp2bench::sparql::par::diag::live_workers() == 0;
        #[cfg(not(debug_assertions))]
        let workers_done = true;
        if aborted >= 1 && workers_done {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never noticed the dead client (aborted = {aborted})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = handle.shutdown();
    assert_eq!(stats.aborted, 1, "{stats:?}");
    #[cfg(debug_assertions)]
    assert_eq!(
        sp2bench::sparql::par::diag::live_workers(),
        0,
        "no exchange worker may outlive the dead connection"
    );
}
