//! What the exchange does when a store breaks the `scan_chunks` contract:
//! workers re-derive the chunk list the consumer split the scan into, and
//! a list of another length makes morsel indices meaningless. The query
//! must then *fail* — in release builds too, where it used to end early
//! and return the rows it had as the answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::par::{diag, FAN_OUT_AFTER};
use sp2b_sparql::{QueryEngine, QueryOptions};
use sp2b_store::{Dictionary, IdTriple, NativeStore, Pattern, ScanChunk, StoreStats, TripleStore};

/// A native store whose every other `scan_chunks` answer has half the
/// chunks asked for. Each call also takes as long as the fan-out budget,
/// so an exchange over it hands off after morsel 0 in any build.
struct Fickle {
    inner: NativeStore,
    calls: AtomicUsize,
}

impl TripleStore for Fickle {
    fn dictionary(&self) -> &Dictionary {
        self.inner.dictionary()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        self.inner.scan(pattern)
    }
    fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
        std::thread::sleep(FAN_OUT_AFTER);
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner
            .scan_chunks(pattern, if call.is_multiple_of(2) { n } else { n / 2 })
    }
    fn estimate(&self, pattern: Pattern) -> u64 {
        self.inner.estimate(pattern)
    }
    fn stats(&self) -> &StoreStats {
        self.inner.stats()
    }
}

#[test]
fn a_store_with_unstable_chunks_fails_the_query_instead_of_truncating_it() {
    const TRIPLES: i64 = 4_000;
    let mut g = Graph::new();
    for i in 0..TRIPLES {
        g.add(
            Subject::iri(format!("http://x/s{i:04}")),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
    }
    for degree in [2, 4] {
        let store = Fickle {
            inner: NativeStore::from_graph(&g),
            calls: AtomicUsize::new(0),
        };
        let options = QueryOptions::new().parallelism(degree);
        let engine = QueryEngine::with_options(store.into_shared(), options);
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let query = engine
                .prepare("SELECT ?s ?v WHERE { ?s <http://x/p> ?v }")
                .unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| engine.count(&query)));
            let _ = tx.send(outcome);
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Err(_panic)) => {}
            Ok(Ok(count)) => panic!(
                "degree {degree}: returned {count:?} — the whole answer is {TRIPLES} rows, \
                 and half the workers saw another chunk list"
            ),
            Err(_) => panic!("degree {degree}: the query hangs"),
        }
        assert_eq!(diag::live_workers(), 0, "every worker is joined");
    }
}
