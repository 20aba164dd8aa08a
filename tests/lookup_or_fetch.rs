//! Where a pattern step's triples come from — a store lookup per input
//! row, or one fetched table once the lookups have paid for it — is
//! decided while the query runs, and must never show in its result.
//!
//! At 50k triples Q5b's chain passes its break-even many times over, and
//! so do the `type` and `journal` steps of each of Q4's two stars, which
//! are fed 5.9k and 4.4k rows against 3.5k-triple patterns before the
//! stars hash-join on `?journal`; Q2 and Q9 are the stars and short
//! chains that must not change either, and so is Q8, whose union
//! branches each start from the one `?erdoes` row and feed no step more
//! than 3.4k rows against its 5.9k-triple pattern. Two oracles: the
//! *same* plan bound without fetch rules (every row in the same place,
//! at parallelism 1, 2 and 4), and the engine kinds that never fetch
//! (`mem-naive`, `native-base`: same multiset), alongside the one that
//! fetches through a disk store's 128 KiB block cache. Those two kinds
//! start Q4's one chain with a 12-million-row product at 50k — minutes
//! in a debug build — so they check Q4 at 6k, where its steps pass their
//! break-even just the same.

use std::path::PathBuf;
use std::sync::Arc;

use sp2bench::core::{BenchQuery, Engine, EngineKind};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::sparql::algebra::translate_query;
use sp2bench::sparql::optimizer::optimize;
use sp2bench::sparql::plan::{bind, has_exchange};
use sp2bench::sparql::{
    parse, query_trace, Cancellation, EvalContext, OptimizerConfig, QueryEngine, QueryOptions,
    ScanCounters,
};
use sp2bench::store::{save_graph, Id, ShardBy, SharedStore, TripleStore};

mod common;
use common::{load, loaded, NATIVE};

const TRIPLES: u64 = 50_000;

const QUERIES: [BenchQuery; 5] = [
    BenchQuery::Q2,
    BenchQuery::Q4,
    BenchQuery::Q5b,
    BenchQuery::Q8,
    BenchQuery::Q9,
];

/// The rows of `query` under its fully optimized plan with every step
/// held to lookups, in sequential evaluation order.
fn lookup_only_rows(store: &SharedStore, query: BenchQuery) -> Vec<Vec<Option<Id>>> {
    let translated = translate_query(&parse(query.text()).expect("parses")).expect("translates");
    let algebra = optimize(
        translated.algebra,
        &**store,
        &OptimizerConfig::full(),
        &translated.projection,
    );
    // The all-off configuration binds no fetch rules — onto the join
    // order the full one chose.
    let plan = bind(&algebra, &**store, &OptimizerConfig::default());
    let ctx = EvalContext {
        store: &**store,
        shared: None,
        cancel: Cancellation::none(),
        width: translated.vars.len(),
        counters: None,
        steps: Arc::default(),
    };
    ctx.eval(&plan)
        .map(|row| translated.projection.iter().map(|&v| row.get(v)).collect())
        .collect()
}

#[test]
fn rows_and_their_order_are_those_of_pure_lookups_at_any_parallelism() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = load(&graph, NATIVE).into_shared();
    for query in QUERIES {
        let expected = lookup_only_rows(&store, query);
        assert!(!expected.is_empty(), "{query}");
        for degree in [1, 2, 4] {
            let counters = Arc::new(ScanCounters::default());
            // Workers take every morsel but the first (debug builds; the
            // default budget of a release build keeps a document this
            // small on one thread). No test of this binary minds.
            #[cfg(debug_assertions)]
            sp2bench::sparql::par::diag::fan_out_at_once(true);
            let engine =
                QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(degree))
                    .scan_counters(counters.clone());
            let prepared = engine.prepare(query.text()).expect("prepares");
            assert_eq!(
                has_exchange(prepared.plan()),
                degree > 1,
                "{query}@{degree}"
            );
            let rows: Vec<Vec<Option<Id>>> = engine
                .solutions(&prepared)
                .map(|s| {
                    let s = s.expect("evaluates");
                    (0..s.len()).map(|i| s.id(i)).collect()
                })
                .collect();
            assert!(
                rows == expected,
                "{query}@{degree}: rows or their order changed"
            );
            let fetched = query_trace(&prepared, engine.store(), &counters)
                .operators
                .iter()
                .filter(|s| s.access.is_some_and(|a| a.fetched.is_some()))
                .count();
            let passes_break_even = matches!(query, BenchQuery::Q4 | BenchQuery::Q5b);
            assert_eq!(
                fetched > 0,
                passes_break_even,
                "{query}@{degree}: {fetched} steps fetched"
            );
        }
    }
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `queries` return one multiset on every kind of `kinds` and on the
/// document saved and reopened behind a 128 KiB block cache.
fn assert_same_multisets(triples: u64, queries: &[BenchQuery], kinds: &[EngineKind]) {
    let (graph, _) = generate_graph(Config::triples(triples));
    let dir =
        TempDir(std::env::temp_dir().join(format!("sp2b-fetch-{}-{triples}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir(&dir.0).expect("create scratch dir");
    save_graph(&dir.0, &graph, 1, ShardBy::Subject).expect("save");

    let mut engines: Vec<(String, QueryEngine)> = kinds
        .iter()
        .map(|&kind| {
            let engine = loaded(kind, &graph).query_engine_with(None, Some(1));
            (kind.to_string(), engine)
        })
        .collect();
    let disk = Engine::open_disk(EngineKind::NativeOpt, &dir.0, Some(128 * 1024)).expect("open");
    engines.push(("disk".to_owned(), disk.query_engine_with(None, Some(2))));

    for &query in queries {
        let multisets: Vec<Vec<String>> = engines
            .iter()
            .map(|(name, engine)| {
                let prepared = engine.prepare(query.text()).expect("prepares");
                let mut rows: Vec<String> = engine
                    .solutions(&prepared)
                    .map(|s| {
                        let row = s.unwrap_or_else(|e| panic!("{query} on {name}: {e}"));
                        row.materialize()
                            .iter()
                            .map(|t| t.as_ref().map_or("-".to_owned(), ToString::to_string))
                            .collect::<Vec<_>>()
                            .join("\t")
                    })
                    .collect();
                rows.sort_unstable();
                rows
            })
            .collect();
        for ((name, _), rows) in engines.iter().zip(&multisets).skip(1) {
            assert!(
                *rows == multisets[0],
                "{query}@{triples}: {name} ({} rows) disagrees with {} ({} rows)",
                rows.len(),
                engines[0].0,
                multisets[0].len()
            );
        }
    }
}

#[test]
fn every_engine_kind_and_the_disk_store_return_the_same_multiset() {
    use BenchQuery::{Q5b, Q2, Q4, Q8, Q9};
    assert_same_multisets(TRIPLES, &[Q2, Q5b, Q8, Q9], &EngineKind::ALL);
    // Q4 at 50k on the kinds that fetch (the test above ties `native-opt`
    // to pure lookups there); on all four where the naive ones finish.
    let fetching = [EngineKind::NativeOpt, EngineKind::MemOpt];
    assert_same_multisets(TRIPLES, &[Q4], &fetching);
    assert_same_multisets(6_000, &[Q4], &EngineKind::ALL);
}
