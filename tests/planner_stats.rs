//! The statistics-driven cost-based planner is a performance feature,
//! never a semantic one — and it must actually pay.
//!
//! * Equivalence: for every benchmark query (Q1–Q12 and the A1–A5
//!   aggregation extension), the fully optimized plan — stats-planned
//!   join order, pushed filters, substitution — must produce the same
//!   result multiset and count as the written-order oracle
//!   (`OptimizerConfig::default()`, every rewrite off) on the same store:
//!   in-memory, native, sharded and reopened-disk.
//! * Regression: on the join-heavy queries the paper calls out (Q4,
//!   Q5a, Q8, Q9), the stats-planned order must emit *fewer*
//!   intermediate rows (instrumented per-pattern counters) than the
//!   syntactic pattern order.
//! * The per-step lookup-or-fetch choice, in machine-independent counts:
//!   no step issues more lookups than a fetch of its pattern costs, a
//!   step that does not get that far never fetches, and what each
//!   operator emits is what it emitted when every step looked up.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use sp2bench::core::{BenchQuery, ExtQuery};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::obs::{ExchangeRun, OpKind, OpSpan};
use sp2bench::rdf::{Graph, Iri, Subject, Term};
use sp2bench::sparql::eval::LOOKUP_FLUSH;
use sp2bench::sparql::plan::{
    operators, FetchRule, JoinKind, Operator, Plan, PlanPattern, PlanSlot, FETCH_CAP,
};
use sp2bench::sparql::{
    query_trace, Cancellation, Error, OptimizerConfig, Prepared, QueryEngine, QueryOptions,
    QueryResult, ScanCounters,
};
use sp2bench::store::{
    open_store, save_graph, IndexSelection, ShardBackend, ShardBy, SharedStore, TripleStore,
};

mod common;
use common::{load, sharded, NATIVE};

const TRIPLES: u64 = 6_000;

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("sp2b-planner-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir(&path).expect("create scratch dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn all_query_texts() -> Vec<(&'static str, &'static str)> {
    let mut queries: Vec<(&'static str, &'static str)> = BenchQuery::ALL
        .iter()
        .map(|q| (q.label(), q.text()))
        .collect();
    queries.extend(ExtQuery::ALL.iter().map(|q| (q.label(), q.text())));
    queries
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

fn run_all(store: &SharedStore, cfg: OptimizerConfig) -> Vec<(String, Vec<String>, u64)> {
    let options = QueryOptions::new().optimizer(cfg).parallelism(1);
    let qe = QueryEngine::with_options(store.clone(), options);
    all_query_texts()
        .into_iter()
        .map(|(label, text)| {
            let prepared = qe.prepare(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            let result = qe
                .execute(&prepared)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let count = qe
                .count(&prepared)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            (label.to_owned(), multiset(&result), count)
        })
        .collect()
}

/// Fully optimized vs the written-order oracle on one store: identical
/// multisets and counts for every query.
fn assert_planner_equivalence(tag: &str, store: SharedStore) {
    assert!(
        store.stats().triples > 0,
        "{tag}: the planner must have statistics to order by"
    );
    let planned = run_all(&store, OptimizerConfig::full());
    let written = run_all(&store, OptimizerConfig::default());
    for ((label, rows_p, count_p), (_, rows_w, count_w)) in planned.into_iter().zip(written) {
        assert_eq!(
            count_p, count_w,
            "{tag}/{label}: optimized count diverged from the written-order oracle"
        );
        assert_eq!(
            rows_p, rows_w,
            "{tag}/{label}: optimized multiset diverged from the written-order oracle"
        );
    }
}

#[test]
fn stats_planner_matches_heuristic_on_mem_store() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    assert_planner_equivalence("mem", load(&graph, ShardBackend::Mem).into_shared());
}

#[test]
fn stats_planner_matches_heuristic_on_native_store() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    assert_planner_equivalence("native", load(&graph, NATIVE).into_shared());
}

#[test]
fn stats_planner_matches_heuristic_on_sharded_store() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = sharded(
        &graph,
        3,
        ShardBy::Subject,
        ShardBackend::Native(IndexSelection::all()),
    );
    assert_planner_equivalence("sharded", store.into_shared());
}

#[test]
fn stats_planner_matches_heuristic_on_disk_store() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let dir = TempDir::new("equiv");
    save_graph(dir.path(), &graph, 2, ShardBy::Subject).expect("save");
    let disk = open_store(dir.path()).expect("open").into_shared();
    assert_planner_equivalence("disk", disk);
}

/// Total intermediate rows the BGP pattern steps emit for one query
/// under one optimizer configuration (sequential, so counts are exact).
fn emitted_rows(store: &SharedStore, text: &str, cfg: OptimizerConfig) -> u64 {
    let counters = Arc::new(ScanCounters::default());
    let qe = QueryEngine::with_options(
        store.clone(),
        QueryOptions::new().optimizer(cfg).parallelism(1),
    )
    .scan_counters(counters.clone());
    let prepared = qe.prepare(text).expect("query parses");
    qe.count(&prepared).expect("query evaluates");
    counters.total_rows()
}

/// The paper's join-heavy queries: the stats-driven order must beat the
/// syntactic pattern order on intermediate-result volume, not just tie
/// it. (Reordering off keeps filter pushing and substitution on, so the
/// comparison isolates the join order itself.)
#[test]
fn stats_order_emits_fewer_rows_than_syntactic_order() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = load(&graph, NATIVE).into_shared();
    let syntactic = OptimizerConfig {
        reorder_patterns: false,
        push_filters: true,
        substitute_filters: true,
    };
    // Q9's syntactic order already leads each UNION branch with the
    // selective rdf:type pattern, so the planner can only tie it there;
    // everywhere else it must strictly reduce the intermediate volume.
    for (label, strict) in [("Q4", true), ("Q5a", true), ("Q8", true), ("Q9", false)] {
        let query = BenchQuery::from_label(label).expect("known label");
        let planned = emitted_rows(&store, query.text(), OptimizerConfig::full());
        let unplanned = emitted_rows(&store, query.text(), syntactic);
        assert!(
            if strict {
                planned < unplanned
            } else {
                planned <= unplanned
            },
            "{label}: stats-planned order emitted {planned} rows, \
             syntactic order {unplanned} — the planner must win"
        );
    }
}

/// Tallies are per pattern *occurrence*: each branch of Q9's UNION opens
/// with the same `?person rdf:type foaf:Person` pattern, and each
/// occurrence must report its own rows — not share one tally and report
/// the sum twice — so the per-operator spans `--explain` and the slow log
/// render add up to `ScanCounters::total_rows()`.
#[test]
fn repeated_patterns_keep_their_own_tallies() {
    let (graph, _) = generate_graph(Config::triples(5_000));
    let store = load(&graph, NATIVE).into_shared();
    let counters = Arc::new(ScanCounters::default());
    let qe = QueryEngine::with_options(store, QueryOptions::new().parallelism(1))
        .scan_counters(counters.clone());
    let q9 = BenchQuery::from_label("Q9").expect("known label");
    let prepared = qe.prepare(q9.text()).expect("query parses");
    qe.count(&prepared).expect("query evaluates");

    let trace = query_trace(&prepared, qe.store(), &counters);
    let person: Vec<_> = trace
        .operators
        .iter()
        .filter(|s| {
            s.label
                .ends_with("ns#type> <http://xmlns.com/foaf/0.1/Person>")
        })
        .collect();
    assert_eq!(person.len(), 2, "one rdf:type foaf:Person step per branch");
    for span in &person {
        // The pattern's constants are exact, so each occurrence emits
        // its estimate — once.
        assert_eq!(span.rows, span.est_rows, "{}", span.label);
        assert!(span.rows > 0);
    }
    assert_eq!(trace.scanned_rows(), counters.total_rows());
    // The same holds when exchange workers evaluate the plan per morsel.
    let parallel = Arc::new(ScanCounters::default());
    let qe = qe.parallelism(4).scan_counters(parallel.clone());
    let prepared = qe.prepare(q9.text()).expect("query parses");
    qe.count(&prepared).expect("query evaluates");
    let trace = query_trace(&prepared, qe.store(), &parallel);
    assert_eq!(trace.scanned_rows(), parallel.total_rows());
}

/// An exchange splits the driving scan into morsels, and each morsel's
/// rows are still the driving pattern's rows: every operator — that
/// pattern, the steps after it, the build side's patterns, the joins —
/// must report the same rows at parallelism 2 and 4 as sequentially, or
/// `--explain`, the slow log and `ScanCounters::total_rows` undercount
/// (or, were a build side filled per worker or per morsel, overcount).
#[test]
fn operator_rows_do_not_depend_on_parallelism() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = load(&graph, NATIVE).into_shared();
    for label in ["Q2", "Q4", "Q5a", "Q6"] {
        let query = BenchQuery::from_label(label).expect("known label");
        let rows_at = |degree: usize| {
            let counters = Arc::new(ScanCounters::default());
            fan_out_at_once();
            let qe =
                QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(degree))
                    .scan_counters(counters.clone());
            let prepared = qe.prepare(query.text()).expect("query parses");
            assert_eq!(
                sp2bench::sparql::plan::has_exchange(prepared.plan()),
                degree > 1,
                "{label}@{degree}"
            );
            qe.count(&prepared).expect("query evaluates");
            let rows: Vec<(String, u64)> = query_trace(&prepared, qe.store(), &counters)
                .operators
                .into_iter()
                .map(|s| (s.label, s.rows))
                .collect();
            (rows, counters.total_rows())
        };
        let (sequential, total) = rows_at(1);
        assert!(sequential[0].1 > 0, "{label}: the driving pattern ran");
        for degree in [2, 4] {
            let (parallel, parallel_total) = rows_at(degree);
            assert_eq!(parallel, sequential, "{label}@{degree}");
            assert_eq!(parallel_total, total, "{label}@{degree}");
        }
    }
}

/// The ordinals of a plan's joins and of the pattern steps that feed
/// their build sides.
fn joins_and_build_steps(prepared: &Prepared) -> (Vec<usize>, Vec<usize>) {
    let (mut joins, mut build_steps) = (Vec::new(), Vec::new());
    for op in operators(prepared.plan()) {
        if let Operator::Join { build, ordinal, .. } = op {
            joins.push(ordinal);
            build_steps.extend(operators(build).into_iter().filter_map(|op| match op {
                Operator::Scan(step) => Some(step.ordinal),
                Operator::Join { .. } => None,
            }));
        }
    }
    (joins, build_steps)
}

/// A join's build side belongs to one execution: the consumer, or
/// whichever exchange worker asks first, fills it once and every morsel
/// probes that table — so the build side's steps scan what they scan
/// sequentially, at any degree — and the next execution of the same
/// `Prepared` starts without one and scans it all again.
#[test]
fn build_sides_are_built_once_per_execution_and_never_kept() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = load(&graph, NATIVE).into_shared();
    for label in ["Q2", "Q5a"] {
        let query = BenchQuery::from_label(label).expect("known label");
        let mut sequential = None;
        for degree in [1, 2, 4] {
            let (engine, counters) = counting_engine(&store, degree);
            let prepared = engine.prepare(query.text()).expect("query parses");
            let (joins, build_steps) = joins_and_build_steps(&prepared);
            assert_eq!(joins.len(), 1, "{label} plans one join");
            assert!(!build_steps.is_empty(), "{label}");
            let rows_now = || -> Vec<u64> {
                let spans = query_trace(&prepared, engine.store(), &counters).operators;
                let of_interest = build_steps.iter().chain(&joins);
                of_interest.map(|&ordinal| spans[ordinal].rows).collect()
            };
            engine.count(&prepared).expect("query evaluates");
            let once = rows_now();
            assert!(
                once.iter().all(|&rows| rows > 0),
                "{label}@{degree}: {once:?}"
            );
            assert_eq!(
                *sequential.get_or_insert_with(|| once.clone()),
                once,
                "{label}@{degree}: build-side and join rows depend on the degree"
            );
            engine.count(&prepared).expect("query evaluates again");
            let doubled: Vec<u64> = once.iter().map(|rows| 2 * rows).collect();
            assert_eq!(rows_now(), doubled, "{label}@{degree}: second execution");
        }
    }
}

/// An exchange builds its joins' tables before it spawns a worker; a
/// cancellation that is already triggered must stop that too, not just
/// the spawn (`eval.rs::exchange_honours_pre_triggered_cancellation`).
#[test]
fn pre_triggered_cancellation_scans_no_build_input() {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let store = load(&graph, NATIVE).into_shared();
    for label in ["Q2", "Q5a"] {
        let query = BenchQuery::from_label(label).expect("known label");
        let (engine, counters) = counting_engine(&store, 4);
        let prepared = engine.prepare(query.text()).expect("query parses");
        assert!(sp2bench::sparql::plan::has_exchange(prepared.plan()));
        let cancel = Cancellation::none();
        cancel.cancel();
        let mut stream = engine.solutions_with(&prepared, &cancel);
        assert!(
            matches!(stream.next(), Some(Err(Error::Cancelled))),
            "{label}"
        );
        drop(stream);
        assert_eq!(counters.total_rows(), 0, "{label}: nothing was scanned");
        let trace = query_trace(&prepared, engine.store(), &counters);
        assert!(
            trace.operators.iter().all(|s| s.access.is_none()),
            "{label}: {trace:?}"
        );
        // The exchange opened its morsels and ran none of them: nothing
        // was handed to a worker.
        assert!(!trace.fanned_out(), "{label}: {trace:?}");
    }
}

/// `tests/timeout_and_ask.rs` holds ASK's early exit to a wall-clock
/// ratio; this is the same guarantee in machine-independent terms, on
/// two shapes. Q12a and Q5a plan as the same hash join, and the ASK must
/// neither materialize a join input nor fan out before its first
/// witness: its join emits one row and its patterns scan a sliver of what
/// the SELECT's do. Q12b and Q8 plan as the same union of two chains,
/// and the ASK must not open a branch's exchange either. At any
/// parallelism an ASK plans no exchange at all: a one-row consumer hangs
/// up long before one would fan out.
#[test]
fn ask_scans_a_prefix_of_what_its_select_enumerates() {
    let (graph, _) = generate_graph(Config::triples(50_000));
    let store = load(&graph, NATIVE).into_shared();
    let run = |query: BenchQuery, degree: usize| {
        let counters = Arc::new(ScanCounters::default());
        fan_out_at_once();
        let qe = QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(degree))
            .scan_counters(counters.clone());
        let prepared = qe.prepare(query.text()).expect("query parses");
        let count = qe.count(&prepared).expect("query evaluates");
        let trace = query_trace(&prepared, qe.store(), &counters);
        let exchanges: Vec<(usize, ExchangeRun)> = trace.exchanges().collect();
        if degree > 1 && !query.is_ask() {
            assert!(!exchanges.is_empty(), "{query}@{degree}");
            assert!(
                exchanges[0].1.morsels > 0,
                "{query}@{degree}: {exchanges:?}"
            );
        } else {
            assert_eq!(exchanges, [], "{query}@{degree}");
        }
        let join = trace
            .operators
            .iter()
            .find(|s| s.label.starts_with("hash-join"))
            .map(|s| s.rows);
        (count, join, counters.total_rows())
    };
    let (_, select_joined, select_scanned) = run(BenchQuery::Q5a, 1);
    assert!(
        select_joined.is_some_and(|rows| rows > 1_000),
        "Q5a enumerates: {select_joined:?}"
    );
    let (q8, no_join, q8_scanned) = run(BenchQuery::Q8, 1);
    assert_eq!((q8, no_join), (491, None), "Q8 is a union of two chains");
    for degree in [1, 4] {
        let (answer, ask_joined, ask_scanned) = run(BenchQuery::Q12a, degree);
        assert_eq!(answer, 1, "Q12a answers yes");
        assert_eq!(ask_joined, Some(1), "ASK stops at the first witness");
        assert!(
            ask_scanned * 20 < select_scanned,
            "Q12a@{degree} scanned {ask_scanned} rows, Q5a {select_scanned}"
        );
        let (answer, _, ask_scanned) = run(BenchQuery::Q12b, degree);
        assert_eq!(answer, 1, "Q12b answers yes");
        assert!(
            ask_scanned * 20 < q8_scanned,
            "Q12b@{degree} scanned {ask_scanned} rows, Q8 {q8_scanned}"
        );
    }
}

/// The instrumentation itself: counters see exactly the rows a trivial
/// single-pattern scan emits, and detach cleanly (a fresh engine without
/// counters adds nothing).
#[test]
fn scan_counters_record_emitted_rows() {
    let (graph, _) = generate_graph(Config::triples(500));
    let store = load(&graph, NATIVE).into_shared();
    let counters = Arc::new(ScanCounters::default());
    let qe = QueryEngine::with_options(store.clone(), QueryOptions::new().parallelism(1))
        .scan_counters(counters.clone());
    let prepared = qe.prepare("SELECT ?s WHERE { ?s ?p ?o }").expect("parses");
    let n = qe.count(&prepared).expect("evaluates");
    assert_eq!(counters.total_rows(), n, "one emitted row per solution");
    // An engine without attached counters must not touch them.
    let plain = QueryEngine::with_options(store, QueryOptions::new().parallelism(1));
    let prepared = plain
        .prepare("SELECT ?s WHERE { ?s ?p ?o }")
        .expect("parses");
    plain.count(&prepared).expect("evaluates");
    assert_eq!(counters.total_rows(), n, "detached engines add nothing");
}

/// The default 50k document on a resident native store (exact estimates),
/// built once for the lookup-or-fetch tests below.
fn store_50k() -> SharedStore {
    static STORE: OnceLock<SharedStore> = OnceLock::new();
    STORE
        .get_or_init(|| {
            let (graph, _) = generate_graph(Config::triples(50_000));
            load(&graph, NATIVE).into_shared()
        })
        .clone()
}

/// Exchanges hand off after their first morsel however short the query
/// (debug builds; a release build runs these tests under the default
/// budget, where most documents here stay on one thread). Process-wide,
/// and never cleared: no test of this binary depends on the default.
fn fan_out_at_once() {
    #[cfg(debug_assertions)]
    sp2bench::sparql::par::diag::fan_out_at_once(true);
}

/// An engine over `store` at `degree` (its exchanges fanning out at once)
/// and the counters it reports into.
fn counting_engine(store: &SharedStore, degree: usize) -> (QueryEngine, Arc<ScanCounters>) {
    let counters = Arc::new(ScanCounters::default());
    fan_out_at_once();
    let options = QueryOptions::new().parallelism(degree);
    let engine = QueryEngine::with_options(store.clone(), options).scan_counters(counters.clone());
    (engine, counters)
}

/// Prepares and counts `text` at `degree`; its operator spans, and per
/// operator the triples a fetch of its pattern reads — the break-even of
/// its [`FetchRule`] (`None`: a join, or a step that may not fetch).
fn spans_of(store: &SharedStore, text: &str, degree: usize) -> (Vec<OpSpan>, Vec<Option<u64>>) {
    let (engine, counters) = counting_engine(store, degree);
    let prepared = engine.prepare(text).expect("query parses");
    engine.count(&prepared).expect("query evaluates");
    let spans = query_trace(&prepared, engine.store(), &counters).operators;
    (spans, fetch_costs(&prepared))
}

/// Per operator of `prepared`, what a fetch of its pattern reads.
fn fetch_costs(prepared: &Prepared) -> Vec<Option<u64>> {
    let rule = |op| match op {
        Operator::Scan(step) => step.fetch.map(|rule: FetchRule| rule.after),
        Operator::Join { .. } => None,
    };
    operators(prepared.plan()).into_iter().map(rule).collect()
}

fn fetched_steps(spans: &[OpSpan]) -> Vec<usize> {
    let fetched = |s: &OpSpan| s.access.is_some_and(|a| a.fetched.is_some());
    (1..=spans.len())
        .filter(|&n| fetched(&spans[n - 1]))
        .collect()
}

/// What each operator of Q4, Q5b and Q8 emitted on `native-opt` at 50k
/// when every step was a lookup (joins last, as `--explain` lists them).
/// Q4's star runs once, 4 431 rows, as the build side of the join that
/// pairs it with itself by journal: the build side keeps one row per
/// distinct `(?name2, ?journal)`, 3 681 of them, and the probe side reads
/// those rows back instead of deriving the star again. Of the pairs, the
/// 76 258 it emits pass `?name1 < ?name2`, checked inside the probe
/// (88 602 when the probe side ran its own star, 106 738 when the build
/// side kept every row as well). Q8's two union branches each open at the
/// one-row `?erdoes` pattern.
const ROWS_BEFORE_FETCHING: [(&str, &[u64]); 3] = [
    ("Q4", &[2338, 5874, 4437, 4431, 76258]),
    ("Q5b", &[1128, 1380, 1380, 9050, 5874]),
    (
        "Q8",
        &[1, 1, 260, 569, 2652, 3352, 749, 1, 1, 260, 569, 309],
    ),
];

/// The pattern steps of every BGP in `plan` — each chain of steps down to
/// its `Unit` — in operator order.
fn bgps(plan: &Plan) -> Vec<Vec<&PlanPattern>> {
    /// The steps of the chain `plan` tops, first step first.
    fn chain<'p>(plan: &'p Plan, steps: &mut Vec<&'p PlanPattern>) {
        match plan {
            Plan::Step { input, pattern } => {
                chain(input, steps);
                steps.push(pattern);
            }
            Plan::Filter(_, inner) => chain(inner, steps),
            _ => {}
        }
    }
    match plan {
        Plan::Step { .. } | Plan::Unit => {
            let mut steps = Vec::new();
            chain(plan, &mut steps);
            vec![steps]
        }
        Plan::Join { left, right, .. } | Plan::Union(left, right) => {
            [left, right].into_iter().flat_map(|p| bgps(p)).collect()
        }
        Plan::Filter(_, inner)
        | Plan::Distinct(inner)
        | Plan::Project(_, inner)
        | Plan::OrderBy(_, inner) => bgps(inner),
        Plan::Slice { input, .. } | Plan::Group { input, .. } => bgps(input),
        Plan::Exchange { input, .. } => bgps(input),
        Plan::Reuse { .. } => Vec::new(),
    }
}

/// The variables each join of `plan` deduplicates its build side on:
/// the joins whose build side is `Distinct(Project(vars, …))`.
fn distinct_build_sides(plan: &Plan) -> Vec<&[usize]> {
    let vars = |op| match op {
        Operator::Join {
            build: Plan::Distinct(inner),
            ..
        } => match inner.as_ref() {
            Plan::Project(vars, _) => Some(vars.as_slice()),
            _ => None,
        },
        _ => None,
    };
    operators(plan).into_iter().filter_map(vars).collect()
}

/// The key of every inner join in `plan`.
fn inner_join_keys(plan: &Plan) -> Vec<&[usize]> {
    let key = |op| match op {
        Operator::Join {
            kind: JoinKind::Inner,
            key,
            ..
        } => Some(key),
        _ => None,
    };
    operators(plan).into_iter().filter_map(key).collect()
}

/// A join over a UNION distributes when its other side is a flat group:
/// Q8's one-row `?erdoes` group joins each branch as one BGP, so each
/// branch opens at the `"Paul Erdoes"` pattern instead of enumerating
/// every co-author pair for a hash table (325 210 pattern rows when it
/// did). The naive configuration keeps the join — it is the oracle.
#[test]
fn q8_branches_start_from_erdoes() {
    let store = store_50k();
    for degree in [1, 4] {
        let (engine, counters) = counting_engine(&store, degree);
        let prepared = engine.prepare(BenchQuery::Q8.text()).expect("parses");
        assert!(
            inner_join_keys(prepared.plan()).is_empty(),
            "Q8@{degree} plans no join"
        );
        assert_eq!(engine.count(&prepared).expect("evaluates"), 491);
        let trace = query_trace(&prepared, engine.store(), &counters);
        // No join: each BGP is a branch of the union.
        let branches = bgps(prepared.plan());
        assert_eq!(branches.len(), 2, "Q8@{degree}");
        for steps in branches {
            let label = &trace.operators[steps[0].ordinal].label;
            assert!(label.contains("\"Paul Erdoes\""), "Q8@{degree}: {label}");
        }
        let rows = counters.total_rows();
        assert!(rows < 10_000, "Q8@{degree} scanned {rows} rows");
    }
    let naive = QueryEngine::with_options(
        store,
        QueryOptions::new()
            .optimizer(OptimizerConfig::default())
            .parallelism(1),
    );
    let prepared = naive.prepare(BenchQuery::Q8.text()).expect("parses");
    assert_eq!(
        inner_join_keys(prepared.plan()).len(),
        1,
        "native-base keeps Q8's hash join"
    );
}

/// Q4 is two `article–creator–name–type` stars meeting at `?journal`:
/// planned as one chain, the second star is re-derived for each of the
/// first's 172k `(article, journal)` extensions — 804 220 pattern rows at
/// 50k. Split at the cut, a hash join on the journal pairs them; and the
/// two stars are one under a renaming, so the join's probe side reads the
/// star's build rows instead of deriving them again: one 4-step star,
/// whose 17 080 pattern rows appear once, at any degree. The naive
/// configuration keeps the chain — it is the oracle — and a star (Q2)
/// never splits: its suffix on its own would start from a full scan.
#[test]
fn q4_splits_at_journal() {
    let store = store_50k();
    let journal = Term::iri("http://swrc.ontoware.org/ontology#journal");
    let journal = PlanSlot::Const(store.resolve(&journal));
    for degree in [1, 4] {
        let (engine, counters) = counting_engine(&store, degree);
        let prepared = engine.prepare(BenchQuery::Q4.text()).expect("parses");
        let keys = inner_join_keys(prepared.plan());
        let [&[cut]] = keys.as_slice() else {
            panic!("Q4@{degree}: one join on one variable, not {keys:?}")
        };
        let stars = bgps(prepared.plan());
        let [star] = stars.as_slice() else {
            panic!("Q4@{degree}: one star, not {stars:?}")
        };
        assert_eq!(star.len(), 4, "Q4@{degree}: {star:?}");
        let meets = |p: &&PlanPattern| p.slots[1..] == [journal, PlanSlot::Var(cut)];
        assert!(star.iter().any(meets), "Q4@{degree} joins on ?journal");
        // The probe side reads the build side's ?name2 as its ?name1 and
        // the journal as itself.
        let reads: Vec<_> = operators(prepared.plan())
            .into_iter()
            .filter_map(|op| match op {
                Operator::Join { reuse, .. } => reuse,
                Operator::Scan(_) => None,
            })
            .collect();
        assert_eq!(reads, [&[(3, 5), (6, 6)]], "Q4@{degree}");
        // Under its DISTINCT the build side keeps what is observed of
        // it: ?name2 (projected, and in the filter) and ?journal (the cut).
        let deduped = distinct_build_sides(prepared.plan());
        assert_eq!(deduped, [&[5, 6]], "Q4@{degree}");
        assert_eq!(engine.count(&prepared).expect("evaluates"), 71_317);
        let trace = query_trace(&prepared, engine.store(), &counters);
        let scans = trace.operators.iter().filter(|s| s.kind == OpKind::Scan);
        let pattern_rows: u64 = scans.map(|s| s.rows).sum();
        assert_eq!(pattern_rows, 17_080, "Q4@{degree}: the star runs once");
    }
    let naive = QueryEngine::with_options(
        store.clone(),
        QueryOptions::new()
            .optimizer(OptimizerConfig::default())
            .parallelism(1),
    );
    let prepared = naive.prepare(BenchQuery::Q4.text()).expect("parses");
    let chain: Vec<usize> = bgps(prepared.plan()).iter().map(|b| b.len()).collect();
    assert_eq!(chain, [8], "native-base keeps Q4's chain");
    assert!(distinct_build_sides(prepared.plan()).is_empty());
    let (engine, _) = counting_engine(&store, 1);
    let prepared = engine.prepare(BenchQuery::Q2.text()).expect("parses");
    assert!(
        inner_join_keys(prepared.plan()).is_empty(),
        "Q2 stays a star"
    );
}

/// The kind of every join of `plan`, in operator order.
fn join_kinds(plan: &Plan) -> Vec<JoinKind> {
    let kind = |op| match op {
        Operator::Join { kind, .. } => Some(kind),
        Operator::Scan(_) => None,
    };
    operators(plan).into_iter().filter_map(kind).collect()
}

/// `plan` below its projection and duplicate elimination.
fn body(plan: &Plan) -> &Plan {
    match plan {
        Plan::Project(_, inner) | Plan::Distinct(inner) => body(inner),
        other => other,
    }
}

/// Closed-world negation, `OPTIONAL { … } FILTER (!bound(?v))`, plans as
/// an anti-join that keeps a probe row only when nothing matches it: Q6
/// has one, and Q7 two — its inner `!bound(?doc4)`, the outer OPTIONAL's
/// condition as written, moves down onto the inner OPTIONAL. Q6's join
/// emits exactly Q6's answers, where the left join it replaces emitted
/// 45 575 rows for the filter to drop. The naive configuration keeps the
/// filter over the OPTIONAL — it is the oracle.
#[test]
fn negation_is_an_anti_join() {
    let store = store_50k();
    for degree in [1, 4] {
        let (engine, counters) = counting_engine(&store, degree);
        let q6 = engine.prepare(BenchQuery::Q6.text()).expect("parses");
        assert_eq!(join_kinds(q6.plan()), [JoinKind::Anti], "Q6@{degree}");
        let answers = engine.count(&q6).expect("evaluates");
        assert_eq!(answers, 3_606, "Q6@{degree}");
        let trace = query_trace(&q6, engine.store(), &counters);
        let join = trace.operators.last().expect("Q6 has operators");
        assert_eq!(join.kind, OpKind::Join, "Q6@{degree}: {}", join.label);
        assert_eq!(join.rows, answers, "Q6@{degree}: {}", join.label);
        // The anti-join's probe side reads the `subClassOf–type–issued–
        // creator` star it negates from the build side, and adds only its
        // `name` step: the star runs once, 15 429 pattern rows, where
        // deriving it on both sides took 36 731 in all.
        let steps: Vec<usize> = bgps(q6.plan()).iter().map(|b| b.len()).collect();
        assert_eq!(steps, [1, 4], "Q6@{degree}");
        assert!(join.reads_build.is_some(), "Q6@{degree}: {}", join.label);
        let scans = trace.operators.iter().filter(|s| s.kind == OpKind::Scan);
        let pattern_rows: u64 = scans.map(|s| s.rows).sum();
        assert_eq!(pattern_rows, 21_302, "Q6@{degree}: the star runs once");
        let q7 = engine.prepare(BenchQuery::Q7.text()).expect("parses");
        let anti = join_kinds(q7.plan())
            .into_iter()
            .filter(|&k| k == JoinKind::Anti)
            .count();
        assert_eq!(anti, 2, "Q7@{degree}");
        assert_eq!(engine.count(&q7).expect("evaluates"), 2, "Q7@{degree}");
    }
    let naive = QueryEngine::with_options(
        store,
        QueryOptions::new()
            .optimizer(OptimizerConfig::default())
            .parallelism(1),
    );
    for query in [BenchQuery::Q6, BenchQuery::Q7] {
        let prepared = naive.prepare(query.text()).expect("parses");
        let label = query.label();
        assert!(
            !join_kinds(prepared.plan()).contains(&JoinKind::Anti),
            "{label}"
        );
        let Plan::Filter(_, join) = body(prepared.plan()) else {
            panic!("native-base keeps {label}'s filter on top")
        };
        assert!(
            matches!(
                **join,
                Plan::Join {
                    kind: JoinKind::Optional,
                    ..
                }
            ),
            "native-base keeps {label}'s filter over its OPTIONAL"
        );
    }
}

/// The ski-rental invariant: a step rents lookups only until they have
/// cost what a fetch of its pattern costs — the pattern's constants-only
/// cardinality, exact on this store and its [`FetchRule`]'s break-even —
/// so no step ever issues more than that, give or take the lookups
/// concurrent instances had not yet reported. Sequentially the switch is exact.
/// And only the source of the triples changes: every operator emits what
/// it emitted before steps could fetch.
#[test]
fn no_step_issues_more_lookups_than_a_fetch_costs() {
    let store = store_50k();
    for (label, rows_before) in ROWS_BEFORE_FETCHING {
        let query = BenchQuery::from_label(label).expect("known label");
        for degree in [1usize, 4] {
            let (spans, fetch_costs) = spans_of(&store, query.text(), degree);
            let rows: Vec<u64> = spans.iter().map(|s| s.rows).collect();
            assert_eq!(rows, rows_before, "{label}@{degree}");
            // Beside the instance that reaches the break-even: the other
            // workers, and the consumer if it is still inside the morsel
            // it handed off from.
            let slack = if degree > 1 { degree as u64 } else { 0 } * LOOKUP_FLUSH;
            for (n, (span, fetch_cost)) in spans.iter().zip(&fetch_costs).enumerate() {
                let Some(access) = span.access else { continue };
                assert_eq!(span.kind, OpKind::Scan);
                // A step that may not fetch is a BGP's first, fed one
                // empty row.
                let Some(pattern) = *fetch_cost else {
                    assert_eq!(
                        (access.lookups, access.fetched),
                        (1, None),
                        "{label}@{degree}"
                    );
                    continue;
                };
                assert!(
                    access.lookups <= pattern + slack,
                    "{label}@{degree} step {}: {access} against {pattern} triples",
                    n + 1,
                );
                if let Some(triples) = access.fetched {
                    assert_eq!(triples, pattern, "{label}@{degree}: {access}");
                    assert!(access.lookups >= pattern, "{label}@{degree}: {access}");
                    assert!(access.probes > 0, "{label}@{degree}: {access}");
                }
                // An input row is looked up or probed, never both (inline
                // filters may drop rows between steps).
                assert!(
                    access.lookups + access.probes <= spans[n - 1].rows,
                    "{label}@{degree}: {access}"
                );
            }
            if label == "Q4" {
                // In the star the type and journal steps are fed 5 874
                // and 4 437 rows against 3.5k-triple patterns; the creator
                // step is fed 2 338 against 5 874.
                assert_eq!(fetched_steps(&spans), [3, 4], "{label}@{degree}");
            }
        }
    }
}

/// A consumer that hangs up early never issues a pattern's worth of
/// lookups, so never pays for a fetch it would not use; neither does a
/// star (Q2) or a chain (Q8's branches, fed at most 3.4k rows against
/// 5.9k-triple patterns) whose every step is fed fewer rows than its
/// pattern holds.
#[test]
fn early_hang_ups_and_small_inputs_never_fetch() {
    let store = store_50k();
    for label in ["Q12b", "Q11", "Q2", "Q8"] {
        let query = BenchQuery::from_label(label).expect("known label");
        for degree in [1, 4] {
            let (spans, _) = spans_of(&store, query.text(), degree);
            assert_eq!(fetched_steps(&spans), [0usize; 0], "{label}@{degree}");
            assert!(spans.iter().any(|s| s.rows > 0), "{label}@{degree} ran");
        }
    }
}

/// `subjects` subjects with two `big` triples each: the chain below feeds
/// its third step four rows per subject — twice the pattern.
fn two_per_subject(subjects: u64) -> SharedStore {
    let mut g = Graph::new();
    for i in 0..subjects {
        for o in 0..2 {
            g.add(
                Subject::iri(format!("http://x/s{i}")),
                Iri::new("http://x/big"),
                Term::iri(format!("http://x/o{o}")),
            );
        }
    }
    load(&g, NATIVE).into_shared()
}

/// The cap on what a step may fetch is on the pattern, not on the input:
/// however many lookups a step above it issues, it keeps issuing them.
#[test]
fn pattern_above_the_cap_never_fetches() {
    let chain = "SELECT ?a ?b ?c WHERE { ?x <http://x/big> ?a . ?x <http://x/big> ?b . ?x <http://x/big> ?c }";
    for (subjects, fetches) in [(FETCH_CAP / 2 - 100, true), (FETCH_CAP / 2 + 100, false)] {
        let (spans, fetch_costs) = spans_of(&two_per_subject(subjects), chain, 1);
        let pattern = 2 * subjects;
        assert_eq!(spans[2].rows, 4 * pattern);
        let access = spans[2].access.expect("the third step ran");
        assert_eq!(fetch_costs[2], fetches.then_some(pattern));
        if fetches {
            assert_eq!(access.fetched, Some(pattern), "{access}");
            assert_eq!(access.lookups, pattern, "{access}");
        } else {
            assert_eq!(access.fetched, None, "{access}");
            assert_eq!(access.lookups, 2 * pattern, "one per input row: {access}");
        }
    }
}

/// The lookup count and the fetched table belong to one execution: run
/// twice, a prepared query rents its way to the same fetch twice.
#[test]
fn prepared_query_starts_on_lookups_every_time() {
    let store = store_50k();
    let (engine, counters) = counting_engine(&store, 1);
    let q5b = BenchQuery::from_label("Q5b").expect("known label");
    let prepared: Prepared = engine.prepare(q5b.text()).expect("query parses");
    let mut runs = Vec::new();
    for _ in 0..2 {
        engine.count(&prepared).expect("query evaluates");
        runs.push(query_trace(&prepared, engine.store(), &counters).operators);
    }
    let last = |spans: &[OpSpan]| spans[4].access.expect("the last step ran");
    let (first, both) = (last(&runs[0]), last(&runs[1]));
    let pattern = fetch_costs(&prepared)[4].expect("the last step may fetch");
    assert_eq!(first.fetched, Some(pattern), "{first}");
    assert_eq!(first.lookups, pattern, "{first}");
    // The counters accumulate over executions: the second run added the
    // same lookups, the same fetch and the same probes again.
    assert_eq!(both.lookups, 2 * first.lookups, "{both}");
    assert_eq!(both.fetched, Some(2 * pattern), "{both}");
    assert_eq!(both.probes, 2 * first.probes, "{both}");
}
