//! Lifecycle tests for the exchange, built on the gauges and debug-only
//! hooks in `sp2b_sparql::par::diag` and on the execution's own trace
//! (`sp2b_sparql::query_trace`), which records where its morsels ran:
//!
//! * **fan-out is earned** — under the default budget a short query runs
//!   every morsel on the consumer's thread and never spawns; with the
//!   budget at zero, or used up inside morsel 0, the rest goes to workers
//!   and the rows come out in the sequential order all the same;
//! * **flat memory** — the high-water mark of batches in flight on the
//!   morsel channels never exceeds what the channels of the morsels out
//!   at once can hold (plus the single batch the consumer holds while
//!   accounting), whether the scan is balanced, one morsel is slow, or
//!   every morsel outgrows its channel;
//! * **no thread leak** — dropping a `Solutions` stream early (before or
//!   just after the hand-off), cancelling or exhausting it joins every
//!   detached worker thread, and the batches it leaves unread leave the
//!   in-flight gauge;
//! * **a dying worker fails the query** — a worker that panics mid-scan
//!   surfaces as that panic in the consumer, not as a hang and not as a
//!   shorter answer.
//!
//! The gauges and hooks are process-wide, so the tests serialize on a
//! mutex.

#![cfg(debug_assertions)]

use std::sync::{Arc, Mutex};

use sp2b_obs::{ExchangeRun, QueryTrace};
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::par::diag;
use sp2b_sparql::{query_trace, Cancellation, Error, QueryEngine, QueryOptions, ScanCounters};
use sp2b_store::{SharedStore, TripleStore};

mod common;
use common::{load, NATIVE};

/// Counter serialization: one exchange under observation at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const TRIPLES: i64 = 12_000;

fn big_store() -> SharedStore {
    let mut g = Graph::new();
    for i in 0..TRIPLES {
        g.add(
            Subject::iri(format!("http://x/s{i:05}")),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
    }
    load(&g, NATIVE).into_shared()
}

fn engine(parallelism: usize) -> QueryEngine {
    QueryEngine::with_options(big_store(), QueryOptions::new().parallelism(parallelism))
}

const FULL_SCAN: &str = "SELECT ?s ?v WHERE { ?s <http://x/p> ?v }";

/// Morsels of `FULL_SCAN` at parallelism 4, 750 rows each.
const MORSELS: usize = 4 * sp2b_sparql::par::MORSELS_PER_WORKER;

/// The fan-out budget at zero while it lives: exchanges hand off after
/// morsel 0 however short the query. Restores the default on drop, also
/// when the test panics.
struct ZeroBudget;

impl ZeroBudget {
    fn set() -> ZeroBudget {
        diag::fan_out_at_once(true);
        ZeroBudget
    }
}

impl Drop for ZeroBudget {
    fn drop(&mut self) {
        diag::fan_out_at_once(false);
    }
}

/// The `?v` column of every row, in the order the stream delivers them.
fn values(engine: &QueryEngine, query: &str) -> Vec<i64> {
    let prepared = engine.prepare(query).unwrap();
    engine
        .solutions(&prepared)
        .map(|solution| {
            let Some(Term::Literal(lit)) = solution.unwrap().get(1) else {
                panic!("?v must be an integer literal")
            };
            lit.as_integer().unwrap()
        })
        .collect()
}

/// The exchanges `trace` records, by the step they split.
fn exchanges(trace: &QueryTrace) -> Vec<(usize, ExchangeRun)> {
    trace.exchanges().collect()
}

/// The degree-4 exchange over step 1 of `FULL_SCAN` (and the short query
/// below), having run `inline` morsels on the consumer's thread and handed
/// the rest to `workers` workers.
fn full_scan_run(inline: usize, workers: usize) -> Vec<(usize, ExchangeRun)> {
    let run = ExchangeRun {
        degree: 4,
        morsels: MORSELS,
        inline,
        workers,
    };
    vec![(1, run)]
}

/// A query that finishes inside the default budget never leaves the
/// consumer's thread, whatever the parallelism — and `--explain` says so.
#[test]
fn a_short_query_runs_every_morsel_inline_and_spawns_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Three rows a morsel: microseconds of work against a millisecond.
    let short = "SELECT ?s ?v WHERE { ?s <http://x/p> ?v FILTER (?v < 48) }";
    let mut g = Graph::new();
    for i in 0..48 {
        g.add(
            Subject::iri(format!("http://x/s{i:02}")),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
    }
    let counters = Arc::new(ScanCounters::default());
    let options = QueryOptions::new().parallelism(4);
    let engine = QueryEngine::with_options(load(&g, NATIVE).into_shared(), options)
        .scan_counters(counters.clone());
    let prepared = engine.prepare(short).unwrap();
    assert!(sp2b_sparql::plan::has_exchange(prepared.plan()));
    let mut rows = 0;
    for solution in engine.solutions(&prepared) {
        solution.unwrap();
        rows += 1;
        assert_eq!(diag::live_workers(), 0, "after row {rows}");
    }
    assert_eq!(rows, 48);
    let trace = query_trace(&prepared, engine.store(), &counters);
    assert_eq!(exchanges(&trace), full_scan_run(MORSELS, 0));
    let line = format!("\n  exchange ×4 over step 1: {MORSELS} morsels, all inline\n");
    assert!(trace.render().contains(&line), "{}", trace.render());
}

/// Whenever the hand-off happens — at once, or when morsel 0 alone uses
/// up the default budget — workers take over *after* the morsels the
/// consumer evaluated, and the row sequence is the sequential one.
#[test]
fn a_hand_off_at_any_point_keeps_the_sequential_row_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = values(&engine(1), FULL_SCAN);
    assert_eq!(sequential.len() as i64, TRIPLES);
    let handed_off = |what: &str| {
        let counters = Arc::new(ScanCounters::default());
        let engine = engine(4).scan_counters(counters.clone());
        assert_eq!(values(&engine, FULL_SCAN), sequential, "{what}");
        assert_eq!(diag::live_workers(), 0, "{what}");
        let prepared = engine.prepare(FULL_SCAN).unwrap();
        let trace = query_trace(&prepared, engine.store(), &counters);
        assert_eq!(exchanges(&trace), full_scan_run(1, 4), "{what}");
        let line = format!(
            "\n  exchange ×4 over step 1: morsels 0–0 of {MORSELS} inline, 1–{} on 4 workers\n",
            MORSELS - 1
        );
        assert!(trace.render().contains(&line), "{what}: {}", trace.render());
    };
    {
        let _zero = ZeroBudget::set();
        handed_off("budget zero");
    }
    let _guard = StallGuard;
    diag::stall_morsel(0, 20);
    handed_off("morsel 0 outlasts the default budget");
}

#[test]
fn pre_triggered_cancellation_yields_nothing_and_spawns_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _zero = ZeroBudget::set();
    let counters = Arc::new(ScanCounters::default());
    let engine = engine(4).scan_counters(counters.clone());
    let prepared = engine.prepare(FULL_SCAN).unwrap();
    let cancel = Cancellation::none();
    cancel.cancel();
    let mut stream = engine.solutions_with(&prepared, &cancel);
    assert!(matches!(stream.next(), Some(Err(Error::Cancelled))));
    assert!(stream.next().is_none());
    drop(stream);
    assert_eq!(engine.count_with(&prepared, &cancel).ok(), None);
    let trace = query_trace(&prepared, engine.store(), &counters);
    assert_eq!(exchanges(&trace), full_scan_run(MORSELS, 0));
    assert_eq!(trace.scanned_rows(), 0);
    assert_eq!(diag::live_workers(), 0);
}

#[test]
fn full_scan_stays_within_the_channel_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _zero = ZeroBudget::set();
    let engine = engine(4);
    let prepared = engine.prepare(FULL_SCAN).unwrap();
    diag::reset_channel_stats();
    let mut rows = 0i64;
    for solution in engine.solutions(&prepared) {
        solution.unwrap();
        rows += 1;
    }
    assert_eq!(rows, TRIPLES);
    let (peak, bound) = diag::channel_stats();
    assert!(
        peak > 0,
        "the exchange must actually run (plan: {:?})",
        prepared.plan()
    );
    assert_eq!(bound, channel_bound());
    assert!(
        peak <= bound,
        "peak in-flight batches {peak} exceeded the channel bound {bound}"
    );
    assert_eq!(diag::live_workers(), 0, "exhaustion joins every worker");
}

#[test]
fn dropping_a_stream_early_joins_every_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _zero = ZeroBudget::set();
    let engine = engine(4);
    let prepared = engine.prepare(FULL_SCAN).unwrap();
    let morsel = TRIPLES as usize / MORSELS;
    // One row: still in morsel 0, on the consumer's thread. One row past
    // morsel 0: the workers have just been spawned.
    for (rows, handed_off) in [(1, false), (morsel + 1, true)] {
        let mut stream = engine.solutions(&prepared);
        for _ in 0..rows {
            stream.next().expect("rows left").unwrap();
        }
        assert_eq!(diag::live_workers() > 0, handed_off, "after {rows} rows");
        drop(stream); // with most of the result unread
        assert_eq!(
            diag::live_workers(),
            0,
            "dropping Solutions after {rows} rows must terminate and join every worker"
        );
    }
}

/// A stream dropped while the workers' channels still hold batches
/// leaves the in-flight gauge where it found it: the batches discarded at
/// shutdown are accounted like received ones, however often it happens.
#[test]
fn dropping_a_stream_early_returns_the_in_flight_gauge_to_zero() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _zero = ZeroBudget::set();
    let engine = engine(4);
    let prepared = engine.prepare(FULL_SCAN).unwrap();
    diag::reset_channel_stats();
    for round in 1..=3 {
        let mut stream = engine.solutions(&prepared);
        for _ in 0..800 {
            stream.next().expect("rows left").unwrap();
        }
        drop(stream);
        assert_eq!(diag::in_flight_batches(), 0, "after drop {round}");
        assert_eq!(diag::live_workers(), 0, "after drop {round}");
    }
}

/// Clears the morsel-stall fault injection even when the test panics.
struct StallGuard;

impl Drop for StallGuard {
    fn drop(&mut self) {
        diag::stall_morsel(usize::MAX, 0);
    }
}

/// The most batches that may wait for the consumer: every morsel out at
/// once with a full channel, plus the one batch being accounted.
fn channel_bound() -> i64 {
    (sp2b_sparql::par::MAX_MERGE_AHEAD * sp2b_sparql::par::BATCHES_PER_MORSEL + 1) as i64
}

/// Skew regression: an artificially slow first morsel *of the workers'*
/// (morsel 0 is the consumer's) must not let the rest of the scan pile
/// up behind it. Only `MAX_MERGE_AHEAD` morsels are handed out at once,
/// each with a channel of `BATCHES_PER_MORSEL` batches, so what waits for
/// the consumer stays within that.
#[test]
fn slow_first_morsel_keeps_parked_batches_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = StallGuard;
    let _zero = ZeroBudget::set();
    diag::stall_morsel(1, 150);
    let engine = engine(4);
    let prepared = engine.prepare(FULL_SCAN).unwrap();
    diag::reset_channel_stats();
    let mut rows = 0i64;
    let mut previous = -1i64;
    for solution in engine.solutions(&prepared) {
        let row = solution.unwrap();
        // Order must survive the skew: values arrive ascending.
        let Some(sp2b_rdf::Term::Literal(lit)) = row.get(1) else {
            panic!("?v must be an integer literal")
        };
        let v = lit.as_integer().unwrap();
        assert!(
            v > previous,
            "out of order after skew: {v} after {previous}"
        );
        previous = v;
        rows += 1;
    }
    assert_eq!(rows, TRIPLES);
    // Every morsel here is one batch. While morsel 1 stalls, the other
    // workers finish the morsels handed out after it, and their batches
    // wait — but only in the channels of the morsels out at once.
    // Without the bound, the stalled morsel would hold up nearly every
    // other morsel's batches (≈ n_morsels - 1).
    let (peak, bound) = diag::channel_stats();
    assert!(
        peak > 1,
        "the stalled first morsel must actually hold up later batches (peak {peak})"
    );
    assert_eq!(bound, channel_bound());
    assert!(
        peak <= bound,
        "peak in-flight batches {peak} exceeded the skew bound {bound}"
    );
    assert_eq!(diag::live_workers(), 0, "exhaustion joins every worker");
}

/// Morsels that outgrow their channel: each emits more than
/// `BATCHES_PER_MORSEL` batches, so a worker ahead of the front blocks on
/// its own full channel until the consumer reaches its morsel. Every
/// subject of the 12 000-row scan joins twelve `q` values: 750 × 12 =
/// 9 000 rows a morsel, against a channel of 2 × 4 096.
#[test]
fn morsels_larger_than_their_channel_block_their_worker_and_keep_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = StallGuard;
    let _zero = ZeroBudget::set();
    let mut g = Graph::new();
    for i in 0..TRIPLES {
        let s = format!("http://x/s{i:05}");
        g.add(
            Subject::iri(s.clone()),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
        for k in 0..12 {
            g.add(
                Subject::iri(s.clone()),
                Iri::new("http://x/q"),
                Term::Literal(Literal::integer(k)),
            );
        }
    }
    let store = load(&g, NATIVE).into_shared();
    let engine = |parallelism| {
        let options = QueryOptions::new().parallelism(parallelism);
        QueryEngine::with_options(store.clone(), options)
    };
    let joined = "SELECT ?s ?v ?k WHERE { ?s <http://x/p> ?v . ?s <http://x/q> ?k }";
    let rows = |engine: &QueryEngine| -> Vec<Vec<Option<Term>>> {
        let prepared = engine.prepare(joined).unwrap();
        engine
            .solutions(&prepared)
            .map(|solution| {
                let solution = solution.unwrap();
                (0..3).map(|i| solution.get(i)).collect()
            })
            .collect()
    };
    let sequential = rows(&engine(1));
    assert_eq!(sequential.len() as i64, TRIPLES * 12);
    let per_morsel = sequential.len() / MORSELS;
    assert!(
        per_morsel > sp2b_sparql::par::BATCHES_PER_MORSEL * sp2b_sparql::par::BATCH_ROWS,
        "{per_morsel} rows a morsel fit its channel"
    );
    diag::stall_morsel(1, 150);
    let counters = Arc::new(ScanCounters::default());
    let engine = engine(4).scan_counters(counters.clone());
    diag::reset_channel_stats();
    assert!(rows(&engine) == sequential, "rows out of sequential order");
    let (peak, bound) = diag::channel_stats();
    assert!(
        peak > sp2b_sparql::par::BATCHES_PER_MORSEL as i64,
        "morsels after the stalled one must fill their channels (peak {peak})"
    );
    assert_eq!(bound, channel_bound());
    assert!(
        peak <= bound,
        "peak in-flight batches {peak} exceeded the bound {bound}"
    );
    assert_eq!(diag::live_workers(), 0, "exhaustion joins every worker");
    let prepared = engine.prepare(joined).unwrap();
    let trace = query_trace(&prepared, engine.store(), &counters);
    assert_eq!(exchanges(&trace), full_scan_run(1, 4), "{}", trace.render());
}

#[test]
fn cancellation_mid_stream_stops_and_joins_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _zero = ZeroBudget::set();
    let engine = engine(4);
    let prepared = engine.prepare(FULL_SCAN).unwrap();
    let cancel = Cancellation::none();
    let mut stream = engine.solutions_with(&prepared, &cancel);
    for _ in 0..=TRIPLES as usize / MORSELS {
        assert!(stream.next().unwrap().is_ok(), "stream starts fine");
    }
    assert!(diag::live_workers() > 0, "past morsel 0 the workers run");
    cancel.cancel();
    assert!(matches!(stream.next(), Some(Err(Error::Cancelled))));
    assert!(stream.next().is_none(), "error terminates the stream");
    drop(stream);
    assert_eq!(diag::live_workers(), 0, "cancellation joins every worker");
}

/// SP²Bench Q4, the benchmark's longest chain.
const Q4: &str = "SELECT DISTINCT ?name1 ?name2 WHERE {
    ?article1 rdf:type bench:Article . ?article2 rdf:type bench:Article .
    ?article1 dc:creator ?author1 . ?author1 foaf:name ?name1 .
    ?article2 dc:creator ?author2 . ?author2 foaf:name ?name2 .
    ?article1 swrc:journal ?journal . ?article2 swrc:journal ?journal
    FILTER (?name1 < ?name2) }";

/// Clears the morsel-failure fault injection even when the test panics.
struct FailGuard;

impl Drop for FailGuard {
    fn drop(&mut self) {
        diag::fail_morsel(usize::MAX);
    }
}

/// A worker that dies takes its morsel's completion marker with it. Left
/// alone, that either hangs the query — the first morsel never completes,
/// the other workers nap at the merge-ahead window and the merger waits on
/// them — or, when too few morsels are left to fill the window, lets the
/// others finish and the stream end *normally*, short. Either way the
/// consumer must get the worker's panic instead, promptly, with every
/// thread joined.
#[test]
fn a_failing_morsel_panics_the_consumer_instead_of_hanging_or_truncating() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FailGuard;
    let _zero = ZeroBudget::set();
    let (graph, _) = sp2b_datagen::generate_graph(sp2b_datagen::Config::triples(10_000));
    let store = load(&graph, NATIVE).into_shared();
    for degree in [2, 4] {
        let options = QueryOptions::new().parallelism(degree);
        let engine = QueryEngine::with_options(store.clone(), options);
        let prepared = engine.prepare(Q4).unwrap();
        let expected = engine.count(&prepared).unwrap();
        assert!(expected > 0);
        let morsels = degree * sp2b_sparql::par::MORSELS_PER_WORKER;
        // The workers' first morsel (0 is the consumer's) and their last.
        for failing in [1, morsels - 1] {
            diag::fail_morsel(failing);
            let (tx, rx) = channel();
            let (engine, query) = (engine.clone(), engine.prepare(Q4).unwrap());
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| engine.count(&query)));
                let _ = tx.send(outcome);
            });
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(Err(_panic)) => {}
                Ok(Ok(count)) => panic!(
                    "degree {degree}, morsel {failing} failed: returned {count:?} \
                     (the whole answer is {expected} rows)"
                ),
                Err(_) => panic!("degree {degree}, morsel {failing} failed: the query hangs"),
            }
            assert_eq!(diag::live_workers(), 0, "every worker is joined");
            diag::fail_morsel(usize::MAX);
        }
        assert_eq!(engine.count(&prepared).unwrap(), expected, "and recovers");
    }
}
