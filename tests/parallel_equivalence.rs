//! Parallel-vs-sequential equivalence: morsel-driven execution is a
//! performance choice, never a semantic one. For every benchmark query
//! (Q1–Q12 and the A1–A5 aggregation extension) on a generated document,
//! execution at parallelism 2, 4 and 8 must produce the same result
//! multiset (and count) as strictly sequential execution — including
//! under a pre-triggered cancellation, with a row limit applied, and
//! when the streaming iterator is dropped early (the detached-worker
//! exchange must deliver identical prefixes and then tear down
//! cleanly). And on every engine configuration and store layout the row
//! *sequence* is the sequential one, whether the exchange keeps to the
//! consumer's thread (the default budget, on documents this small) or
//! hands off after its first morsel (the budget forced to zero).

use std::sync::Arc;

use sp2bench::core::{BenchQuery, Engine, EngineKind, ExtQuery, StoreLayout};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::sparql::{
    query_trace, Cancellation, Error, QueryEngine, QueryOptions, QueryResult, ScanCounters,
};
use sp2bench::store::{save_graph, MemStore, NativeStore, ShardBy, SharedStore, TripleStore};

const TRIPLES: u64 = 8_000;
const PARALLEL_DEGREES: [usize; 3] = [2, 4, 8];

fn all_query_texts() -> Vec<(&'static str, &'static str)> {
    let mut queries: Vec<(&'static str, &'static str)> = BenchQuery::ALL
        .iter()
        .map(|q| (q.label(), q.text()))
        .collect();
    queries.extend(ExtQuery::ALL.iter().map(|q| (q.label(), q.text())));
    queries
}

fn engine(store: &SharedStore, parallelism: usize) -> QueryEngine {
    QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(parallelism))
}

/// A result as a sorted multiset of stringified rows (ASK → its answer).
fn multiset(result: &QueryResult) -> Vec<String> {
    match result {
        QueryResult::Solutions { rows, .. } => {
            let mut out: Vec<String> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|t| t.as_ref().map_or("-".to_owned(), |t| t.to_string()))
                        .collect::<Vec<_>>()
                        .join("\t")
                })
                .collect();
            out.sort();
            out
        }
        QueryResult::Boolean(b) => vec![format!("ask:{b}")],
    }
}

#[test]
fn parallel_and_sequential_agree_on_all_queries() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = NativeStore::from_graph(&graph).into_shared();
    let sequential = engine(&store, 1);

    for (label, text) in all_query_texts() {
        let prepared = sequential
            .prepare(text)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let reference = multiset(
            &sequential
                .execute(&prepared)
                .unwrap_or_else(|e| panic!("{label}: {e}")),
        );
        let reference_count = sequential
            .count(&prepared)
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        for degree in PARALLEL_DEGREES {
            let parallel = engine(&store, degree);
            let prepared = parallel
                .prepare(text)
                .unwrap_or_else(|e| panic!("{label}@{degree}: {e}"));
            let result = parallel
                .execute(&prepared)
                .unwrap_or_else(|e| panic!("{label}@{degree}: {e}"));
            assert_eq!(
                multiset(&result),
                reference,
                "{label}: parallelism {degree} changed the result multiset"
            );
            assert_eq!(
                parallel.count(&prepared).unwrap(),
                reference_count,
                "{label}: parallelism {degree} changed the count"
            );
            let mut streamed = 0u64;
            for s in parallel.solutions(&prepared) {
                s.unwrap_or_else(|e| panic!("{label}@{degree}: {e}"));
                streamed += 1;
            }
            assert_eq!(
                streamed, reference_count,
                "{label}: parallelism {degree} changed the streamed row count"
            );
        }
    }
}

#[test]
fn mem_store_agrees_too() {
    // The memory store partitions posting lists instead of index ranges;
    // a representative subset keeps the runtime modest.
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = MemStore::from_graph(&graph).into_shared();
    let sequential = engine(&store, 1);
    for q in [
        BenchQuery::Q2,
        BenchQuery::Q5b,
        BenchQuery::Q9,
        BenchQuery::Q11,
    ] {
        let prepared = sequential.prepare(q.text()).unwrap();
        let reference = multiset(&sequential.execute(&prepared).unwrap());
        for degree in PARALLEL_DEGREES {
            let parallel = engine(&store, degree);
            let prepared = parallel.prepare(q.text()).unwrap();
            assert_eq!(
                multiset(&parallel.execute(&prepared).unwrap()),
                reference,
                "{q}: MemStore parallelism {degree}"
            );
        }
    }
}

#[test]
fn pre_triggered_cancellation_cancels_parallel_execution() {
    let (graph, _) = generate_graph(Config::triples(4_000));
    let store = NativeStore::from_graph(&graph).into_shared();
    for degree in [2, 4] {
        let parallel = engine(&store, degree);
        for (label, text) in all_query_texts() {
            let prepared = parallel
                .prepare(text)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let cancel = Cancellation::none();
            cancel.cancel();
            assert!(
                matches!(
                    parallel.execute_with(&prepared, &cancel),
                    Err(Error::Cancelled)
                ),
                "{label}@{degree}: execute must cancel"
            );
            assert!(
                matches!(
                    parallel.count_with(&prepared, &cancel),
                    Err(Error::Cancelled)
                ),
                "{label}@{degree}: count must cancel"
            );
            let mut stream = parallel.solutions_with(&prepared, &cancel);
            assert!(
                matches!(stream.next(), Some(Err(Error::Cancelled))),
                "{label}@{degree}: stream must cancel"
            );
            assert!(stream.next().is_none(), "{label}@{degree}: stream ends");
        }
    }
}

#[test]
fn queries_with_limit_modifiers_agree_in_order() {
    // LIMIT/OFFSET queries with ORDER BY have fully deterministic output:
    // parallel and sequential rows must match *in order*, not just as
    // multisets (Q11 is ORDER BY + LIMIT + OFFSET).
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = NativeStore::from_graph(&graph).into_shared();
    let sequential = engine(&store, 1);
    let prepared = sequential.prepare(BenchQuery::Q11.text()).unwrap();
    let QueryResult::Solutions {
        rows: reference, ..
    } = sequential.execute(&prepared).unwrap()
    else {
        panic!("Q11 is a SELECT")
    };
    for degree in PARALLEL_DEGREES {
        let parallel = engine(&store, degree);
        let prepared = parallel.prepare(BenchQuery::Q11.text()).unwrap();
        let QueryResult::Solutions { rows, .. } = parallel.execute(&prepared).unwrap() else {
            panic!()
        };
        assert_eq!(rows, reference, "Q11@{degree}: ordered rows must match");
    }
}

/// Row sequences, not multisets: every benchmark and extension query on
/// all four engine configurations over a monolithic and a sharded store,
/// and on the native ones over saved segments, returns at parallelism 2
/// and 4 exactly the rows of parallelism 1 in exactly their order — Q6
/// (left join keyed on `?author = ?author2`) and Q5a (two BGP components
/// joined on `?name = ?name2`) included, which have no ORDER BY. Once
/// under the default fan-out budget, which nothing this small outlives,
/// and (debug builds) once with the budget at zero, where workers
/// evaluate every morsel but the first. The only test of this binary that
/// touches the process-wide budget; the others hold under either.
#[test]
fn row_sequences_do_not_depend_on_parallelism_or_the_fan_out_budget() {
    let (graph, _) = generate_graph(Config::triples(1_500));
    let dir = std::env::temp_dir().join(format!("sp2b-par-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir(&dir).expect("create scratch dir");
    save_graph(&dir, &graph, 2, ShardBy::Subject).expect("save");

    let mut engines: Vec<(String, Engine)> = Vec::new();
    for kind in EngineKind::ALL {
        engines.push((kind.to_string(), Engine::load(kind, &graph)));
        let layout = StoreLayout::sharded(3, ShardBy::Subject);
        let sharded = Engine::load_with(kind, &graph, &layout);
        engines.push((format!("{kind} × 3 shards"), sharded));
        if kind.is_native() {
            let disk = Engine::open_disk(kind, &dir, Some(64 * 1024)).expect("open");
            engines.push((format!("{kind} on disk"), disk));
        }
    }
    // Watched: the trace of each execution says whether it fanned out.
    let rows_at = |engine: &Engine, text: &str, degree: usize| {
        let counters = Arc::new(ScanCounters::default());
        let engine = engine
            .query_engine_with(None, Some(degree))
            .scan_counters(counters.clone());
        let prepared = engine.prepare(text).expect("prepares");
        let rows = engine.execute(&prepared).expect("evaluates");
        (rows, query_trace(&prepared, engine.store(), &counters))
    };
    // How many of the parallel executions handed morsels to workers.
    let agree = |budget: &str| {
        let mut fanned_out = 0;
        for (name, engine) in &engines {
            for (label, text) in all_query_texts() {
                let (sequential, _) = rows_at(engine, text, 1);
                for degree in [2, 4] {
                    let (parallel, trace) = rows_at(engine, text, degree);
                    assert!(
                        parallel == sequential,
                        "{label} on {name} @{degree}, {budget}: rows or their order changed"
                    );
                    fanned_out += usize::from(trace.fanned_out());
                }
            }
        }
        fanned_out
    };
    agree("default budget");
    #[cfg(debug_assertions)]
    {
        use sp2bench::sparql::par::diag;
        diag::fan_out_at_once(true);
        let fanned_out = agree("budget zero");
        diag::fan_out_at_once(false);
        assert!(fanned_out > 0, "the workers were exercised");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn early_stream_drop_matches_sequential_prefix() {
    // Pulling k rows and hanging up mid-stream must (a) deliver exactly
    // the sequential prefix — the detached-worker merge preserves morsel
    // order — and (b) tear the exchange down without wedging: every
    // worker is joined when the `Solutions` iterator drops, so a fresh
    // run over the same store behaves identically.
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = NativeStore::from_graph(&graph).into_shared();
    let sequential = engine(&store, 1);
    for q in [BenchQuery::Q2, BenchQuery::Q3a, BenchQuery::Q5b] {
        let prepared = sequential.prepare(q.text()).unwrap();
        let prefix: Vec<String> = sequential
            .solutions(&prepared)
            .take(7)
            .map(|s| render(&s.unwrap()))
            .collect();
        for degree in PARALLEL_DEGREES {
            let parallel = engine(&store, degree);
            let prepared = parallel.prepare(q.text()).unwrap();
            for _ in 0..2 {
                let mut stream = parallel.solutions(&prepared);
                let got: Vec<String> = stream
                    .by_ref()
                    .take(7)
                    .map(|s| render(&s.unwrap()))
                    .collect();
                assert_eq!(got, prefix, "{q}@{degree}: early-drop prefix");
                drop(stream); // hang up with most of the result unread
            }
        }
    }
}

fn render(solution: &sp2bench::sparql::Solution<'_>) -> String {
    (0..solution.len())
        .map(|i| solution.get(i).map_or("-".into(), |t| t.to_string()))
        .collect::<Vec<_>>()
        .join("\t")
}
