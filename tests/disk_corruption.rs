//! Corruption found after open is a query error, never a panic and never
//! a short answer. A segment block whose bytes change under an open
//! store fails every query that reads it with the block's checksum
//! message — through `count`, `solutions` and `execute`, sequentially
//! and with an exchange — and the SPARQL endpoint answers such a query
//! with a 500 and its worker goes on serving.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use sp2bench::core::endpoint::{query_once, Endpoint};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::server::{spawn, ServerConfig};
use sp2bench::sparql::{Error, QueryEngine, QueryOptions};
use sp2bench::store::segment::shard_file_name;
use sp2bench::store::{open_store, save_graph, ShardBy, SharedStore, TripleStore};

/// Reads every triple, shard 0's SPO run first.
const QUERY: &str = "SELECT ?s ?o WHERE { ?s ?p ?o }";

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 2-shard segment store, opened, whose first SPO block of shard 0 is
/// then corrupted on disk: same size, one byte flipped.
fn corrupted(tag: &str) -> (TempDir, SharedStore) {
    let (graph, _) = generate_graph(Config::triples(2_000));
    let dir =
        TempDir(std::env::temp_dir().join(format!("sp2b-corrupt-{}-{tag}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir(&dir.0).expect("create scratch dir");
    save_graph(&dir.0, &graph, 2, ShardBy::Subject).expect("save");
    let store = open_store(&dir.0).expect("open").into_shared();
    let shard0 = dir.0.join(shard_file_name(0));
    let mut bytes = std::fs::read(&shard0).expect("read shard");
    bytes[6] ^= 0xff;
    std::fs::write(&shard0, &bytes).expect("rewrite shard");
    (dir, store)
}

/// The one-line checksum message of a store error.
fn checksum_message(e: &Error) -> &str {
    let Error::Store(msg) = e else {
        panic!("a store error, not {e:?}")
    };
    assert!(msg.contains("checksum"), "{msg}");
    assert!(!msg.contains('\n'), "one line: {msg}");
    msg
}

#[test]
fn a_block_corrupted_after_open_fails_the_query_with_its_checksum() {
    for degree in [1, 2] {
        let (_dir, store) = corrupted(&format!("engine-{degree}"));
        let engine =
            QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(degree));
        let prepared = engine.prepare(QUERY).expect("parses");
        let counted = engine.count(&prepared).expect_err("no short count");
        let msg = checksum_message(&counted).to_owned();
        assert_eq!(store.fault(), Some(msg.as_str()), "the store keeps it");
        // The stream ends in the error, and the error ends the stream.
        let items: Vec<_> = engine.solutions(&prepared).collect();
        let (last, before) = items.split_last().expect("the stream says something");
        let Err(e) = last else {
            panic!("@{degree}: the stream ended Ok")
        };
        assert_eq!(checksum_message(e), msg);
        assert!(before.iter().all(Result::is_ok), "@{degree}: one error");
        let executed = engine.execute(&prepared).expect_err("no short result");
        assert_eq!(checksum_message(&executed), msg);
    }
}

/// A whole HTTP/1.1 exchange over one connection.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

#[test]
fn the_endpoint_answers_a_corrupted_read_with_500_and_keeps_serving() {
    let (_dir, store) = corrupted("serve");
    let engine = QueryEngine::with_options(store, QueryOptions::new().parallelism(2));
    let cfg = ServerConfig {
        timeout: Some(Duration::from_secs(60)),
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = spawn(engine, &cfg).expect("bind ephemeral port");
    let endpoint = Endpoint::parse(&handle.endpoint_url()).expect("endpoint");
    for _ in 0..2 {
        let response = query_once(
            &endpoint,
            QUERY,
            "application/sparql-results+json",
            Duration::from_secs(60),
        )
        .expect("the server answers");
        assert_eq!(response.status, 500, "{}", response.text());
        assert!(response.text().contains("checksum"), "{}", response.text());
        // The one worker lived through it.
        let stats = get(handle.addr(), "/stats");
        assert!(stats.starts_with("HTTP/1.1 200"), "{stats}");
    }
    let stats = handle.shutdown();
    assert_eq!(stats.server_errors, 2, "{stats:?}");
}
