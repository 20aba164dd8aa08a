//! Seeded equivalence tests: every optimizer rewrite must preserve query
//! semantics.
//!
//! Random small graphs + a pool of query shapes covering the rewrite
//! rules (BGP reordering, filter pushing into BGPs/joins, IRI-equality
//! substitution, left-join handling, a join distributed over a UNION, a
//! BGP split at a cut variable, a split's build side deduplicated under
//! DISTINCT, DISTINCT on packed ids, negation as an anti-join, filters
//! checked inside a join's probe);
//! naive, heuristic and fully-optimized plans must return identical
//! result multisets on both stores. Each graph comes from a seed printed
//! in every assertion message; `SP2B_SEED=<n> cargo test --test
//! optimizer_equivalence` replays that one graph.

use sp2bench::core::BenchQuery;
use sp2bench::datagen::rng::SplitMix64;
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::rdf::{Graph, Iri, Literal, Subject, Term};
use sp2bench::sparql::algebra::{translate, Algebra};
use sp2bench::sparql::optimizer::optimize;
use sp2bench::sparql::plan::{bind, operators, Operator, Plan};
use sp2bench::sparql::{
    parse, OptimizerConfig, QueryEngine, QueryOptions, QueryResult, ScanCounters,
};
use sp2bench::store::{ShardBackend, SharedStore, TripleStore};

mod common;
use common::{load, NATIVE};

/// Graphs per property.
const CASES: u64 = 64;

/// Up to 60 triples over subjects s0..s5 and predicates p0..p3; objects
/// mix IRIs, integers and the subjects themselves, so chains join.
fn random_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut g = Graph::new();
    for _ in 0..1 + rng.next_u64() % 60 {
        let (s, p, o) = (rng.next_u64() % 6, rng.next_u64() % 4, rng.next_u64() % 11);
        let object: Term = match o {
            0..=3 => Term::iri(format!("http://t/o{o}")),
            4..=7 => Term::Literal(Literal::integer(o as i64)),
            _ => Term::iri(format!("http://t/s{}", o - 8)),
        };
        g.add(
            Subject::iri(format!("http://t/s{s}")),
            Iri::new(format!("http://t/p{p}")),
            object,
        );
    }
    g
}

/// Query shapes exercising each rewrite rule.
const QUERY_POOL: &[&str] = &[
    // Plain BGP (reordering).
    "SELECT ?a ?b WHERE { ?a <http://t/p0> ?b . ?b ?p ?c . ?a <http://t/p1> ?c }",
    // Filter pushing into a BGP.
    "SELECT ?a WHERE { ?a <http://t/p0> ?b . ?a <http://t/p1> ?c FILTER (?b != ?c) }",
    // IRI-equality substitution (var not projected).
    "SELECT ?a WHERE { ?a ?p ?v FILTER (?p = <http://t/p2>) }",
    // Substitution must NOT fire (var projected).
    "SELECT ?p WHERE { ?a ?p ?v FILTER (?p = <http://t/p2>) }",
    // Two BGP parts no equality links: a keyless join of the parts, each
    // filtering on its own, the cross conjunct above.
    "SELECT ?a ?x WHERE { ?a <http://t/p0> ?b . ?x <http://t/p1> ?y FILTER (?y != <http://t/o1> && ?b != ?y) }",
    // Filter distribution into join branches.
    "SELECT ?a ?x WHERE { { ?a <http://t/p0> ?b } { ?x <http://t/p1> ?y } FILTER (?y != <http://t/o1>) }",
    // Left join with condition (OPTIONAL-FILTER).
    "SELECT ?a ?c WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c FILTER (?c != ?b) } }",
    // Closed-world negation.
    "SELECT ?a WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c } FILTER (!bound(?c)) }",
    // Union + filter.
    "SELECT ?a WHERE { { ?a <http://t/p0> ?b } UNION { ?a <http://t/p1> ?b } FILTER (?a != <http://t/s0>) }",
    // Modifiers on top.
    "SELECT DISTINCT ?a WHERE { ?a ?p ?b . ?b ?q ?c } ORDER BY ?a LIMIT 7 OFFSET 2",
    // Numeric comparison filter.
    "SELECT ?a ?v WHERE { ?a <http://t/p1> ?v FILTER (?v >= 5) }",
    // Q8's shape: a selective group joined with a two-branch union whose
    // branches filter on their own and the group's variables.
    "SELECT DISTINCT ?c WHERE { ?e <http://t/p0> <http://t/o1> . ?e <http://t/p1> ?x .
       { ?a <http://t/p2> ?e . ?a <http://t/p3> ?c FILTER (?c != ?e && ?a != ?e) }
       UNION { ?a <http://t/p1> ?e . ?a <http://t/p0> ?c FILTER (?c != <http://t/o2>) } }",
    // The union on the join's left.
    "SELECT ?a ?x WHERE { { ?a <http://t/p0> ?e } UNION { ?a <http://t/p1> ?e FILTER (?e != <http://t/o0>) }
       ?e <http://t/p2> ?x }",
    // A three-branch union.
    "SELECT ?a ?b WHERE { ?a <http://t/p0> ?x . { ?x <http://t/p1> ?b } UNION { ?x <http://t/p2> ?b }
       UNION { ?b <http://t/p3> ?x } }",
    // A branch FILTER naming a variable only the outer group binds: in
    // its own group it is unbound, so that branch contributes nothing —
    // it must not merge with the group that binds it.
    "SELECT ?a ?b WHERE { ?a <http://t/p0> ?x . { ?a <http://t/p1> ?b FILTER (?b != ?x) }
       UNION { ?a <http://t/p2> ?b } }",
    // A branch holding an OPTIONAL stays a join.
    "SELECT ?a ?b ?c WHERE { ?a <http://t/p0> ?x . { ?a <http://t/p1> ?b OPTIONAL { ?b <http://t/p2> ?c } }
       UNION { ?a <http://t/p3> ?b } }",
    // A join of two plain groups.
    "SELECT ?a ?b WHERE { { ?a <http://t/p0> ?x FILTER (?x != <http://t/o1>) } { ?a <http://t/p1> ?b } }",
    // Substitution must NOT fire on a variable a join, a left join or a
    // filter above shares with the group: dropping its binding there
    // would unconstrain the other side.
    "SELECT ?x WHERE { { ?v <http://t/p0> ?x FILTER (?v = <http://t/s1>) } { ?v <http://t/p1> ?y } }",
    "SELECT ?x ?y WHERE { ?v <http://t/p0> ?x OPTIONAL { ?v <http://t/p1> ?y } FILTER (?v = <http://t/s1>) }",
    "SELECT ?x WHERE { ?v <http://t/p0> ?x OPTIONAL { ?x <http://t/p1> ?y }
       FILTER (?v = <http://t/s1> && ?v != ?y) }",
    // Q4's shape: two stars meeting at a variable, a BGP that may split
    // at the cut into two hash-joined halves.
    "SELECT ?n ?m WHERE { ?a <http://t/p0> ?j . ?a <http://t/p1> ?n . ?a <http://t/p2> ?x .
       ?b <http://t/p0> ?j . ?b <http://t/p1> ?m . ?b <http://t/p2> ?y }",
    // Three stars on a path.
    "SELECT ?a ?c ?u WHERE { ?a <http://t/p0> ?u . ?a <http://t/p1> ?j . ?b <http://t/p1> ?j .
       ?b <http://t/p2> ?k . ?c <http://t/p2> ?k . ?c <http://t/p3> ?w }",
    // A split BGP's conjuncts: one per half, and two across the halves
    // that must stay above the join.
    "SELECT DISTINCT ?n ?m WHERE { ?a <http://t/p0> ?j . ?a <http://t/p1> ?n . ?b <http://t/p0> ?j .
       ?b <http://t/p1> ?m FILTER (?n < ?m && ?a != ?b && ?n != <http://t/o1> && ?m != 5) }",
    // Closed-world negation as an anti-join, and the shapes it must leave
    // alone: a variable the OPTIONAL only possibly binds (its own nested
    // OPTIONAL) and one the left side may bind stay optional joins.
    "SELECT ?a WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c OPTIONAL { ?c <http://t/p2> ?d } }
       FILTER (!bound(?d)) }",
    "SELECT ?a ?c WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p2> ?c } OPTIONAL { ?a <http://t/p1> ?c }
       FILTER (!bound(?c)) }",
    // A negation beside another conjunct: pushed into the left side, or
    // (the left only possibly binding ?x) kept in a filter over the
    // anti-join.
    "SELECT ?a ?b WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c }
       FILTER (!bound(?c) && ?b != <http://t/o1>) }",
    "SELECT ?a ?x WHERE { ?a <http://t/p0> ?b OPTIONAL { ?b <http://t/p3> ?x } OPTIONAL { ?a <http://t/p1> ?c }
       FILTER (!bound(?c) && ?x != <http://t/o1>) }",
    // A negation under `||` is not a conjunct.
    "SELECT ?a ?c WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c }
       FILTER (!bound(?c) || ?c = <http://t/o2>) }",
    // Q7's double negation: the inner `!bound(?d)` is the outer
    // OPTIONAL's condition as written; once beside a conjunct on an outer
    // variable, which must stay in the condition.
    "SELECT ?a WHERE { ?a <http://t/p0> ?b OPTIONAL { ?c <http://t/p1> ?a
       OPTIONAL { ?d <http://t/p2> ?c } FILTER (!bound(?d)) } FILTER (!bound(?c)) }",
    "SELECT ?a ?c WHERE { ?a <http://t/p0> ?b OPTIONAL { ?c <http://t/p1> ?a
       OPTIONAL { ?d <http://t/p2> ?c } FILTER (!bound(?d) && ?c != ?b) } }",
    // A condition conjunct on the optional side's variables alone moves
    // into that side, where substitution may fold it — unless a negation
    // above still observes the variable.
    "SELECT ?a ?b WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c FILTER (?c = <http://t/o1>) } }",
    "SELECT ?a ?b WHERE { ?a <http://t/p0> ?b OPTIONAL { ?a <http://t/p1> ?c FILTER (?c = <http://t/o1>) }
       FILTER (!bound(?c)) }",
    // A filter across a join runs in its probe: one that errors on a
    // variable the left side only possibly binds (and on IRIs), and a
    // keyless one.
    "SELECT ?a ?m WHERE { { ?a <http://t/p0> ?n OPTIONAL { ?a <http://t/p2> ?u } } { ?a <http://t/p1> ?m }
       FILTER (?u < ?m) }",
    "SELECT ?n ?m WHERE { { ?a <http://t/p0> ?n } { ?b <http://t/p1> ?m } FILTER (?n < ?m) }",
    // DISTINCT keyed on packed ids: a variable only an OPTIONAL binds
    // (unbound is no id), and five projected variables (the wide key).
    "SELECT DISTINCT ?a ?c WHERE { ?a <http://t/p0> ?b OPTIONAL { ?b <http://t/p1> ?c } }",
    "SELECT DISTINCT ?a ?b ?c ?d ?e WHERE { ?a <http://t/p0> ?b . ?b ?p ?c . ?a ?q ?e
       OPTIONAL { ?c <http://t/p2> ?d } }",
    // A split under DISTINCT keeps one build row per value of what is
    // observed of it (see `SPLITS`): Q4's shape, one variable projected
    // from each half; a filter above the split on a build variable
    // nothing projects; an OPTIONAL above it on one; and COUNT over the
    // split, where every row counts.
    "SELECT DISTINCT ?n ?m WHERE { ?a <http://t/p0> ?j . ?a <http://t/p1> ?n . ?a <http://t/p2> ?x .
       ?b <http://t/p0> ?j . ?b <http://t/p1> ?m . ?b <http://t/p2> ?y }",
    "SELECT DISTINCT ?n ?m WHERE { ?a <http://t/p0> ?j . ?a <http://t/p1> ?n . ?a <http://t/p2> ?x .
       ?b <http://t/p0> ?j . ?b <http://t/p1> ?m . ?b <http://t/p2> ?y FILTER (?x != ?y) }",
    "SELECT DISTINCT ?n ?z WHERE { ?a <http://t/p0> ?j . ?a <http://t/p1> ?n . ?a <http://t/p2> ?x .
       ?b <http://t/p0> ?j . ?b <http://t/p1> ?m . ?b <http://t/p2> ?y OPTIONAL { ?y <http://t/p3> ?z } }",
    "SELECT (COUNT(*) AS ?c) WHERE { ?a <http://t/p0> ?j . ?a <http://t/p1> ?n . ?a <http://t/p2> ?x .
       ?b <http://t/p0> ?j . ?b <http://t/p1> ?m . ?b <http://t/p2> ?y }",
];

/// Where the split shapes sit in [`QUERY_POOL`].
const SPLITS: std::ops::Range<usize> = QUERY_POOL.len() - 4..QUERY_POOL.len();

/// The seeds to run: every case, or the one `SP2B_SEED` names.
fn seeds() -> Vec<u64> {
    match std::env::var("SP2B_SEED") {
        Ok(seed) => vec![seed.parse().expect("SP2B_SEED is a number")],
        Err(_) => (0..CASES).collect(),
    }
}

/// `query`'s result as a sorted multiset of stringified rows.
fn run_sorted(seed: u64, store: &SharedStore, query: &str, cfg: OptimizerConfig) -> Vec<String> {
    let options = QueryOptions::new().optimizer(cfg).parallelism(1);
    sorted_rows(
        seed,
        &QueryEngine::with_options(store.clone(), options),
        query,
    )
}

/// What `engine` answers to `query`, as a sorted multiset of stringified
/// rows.
fn sorted_rows(seed: u64, engine: &QueryEngine, query: &str) -> Vec<String> {
    let prepared = engine.prepare(query).expect("pool query parses");
    let result = engine.execute(&prepared);
    let Ok(QueryResult::Solutions { rows, .. }) = result else {
        panic!("seed {seed}: {query} evaluates to {result:?}")
    };
    let mut rendered: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|t| t.as_ref().map_or("-".to_owned(), ToString::to_string))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rendered.sort();
    rendered
}

/// Naive, heuristic and full optimization agree on every pool query over
/// the graph of every seed, on the store `build` makes.
fn assert_configs_agree(build: impl Fn(&Graph) -> SharedStore) {
    for seed in seeds() {
        let store = build(&random_graph(seed));
        for query in QUERY_POOL {
            let naive = run_sorted(seed, &store, query, OptimizerConfig::default());
            for (name, cfg) in [
                ("full", OptimizerConfig::full()),
                ("heuristic", OptimizerConfig::heuristic()),
            ] {
                assert_eq!(
                    run_sorted(seed, &store, query, cfg),
                    naive,
                    "seed {seed}: {name} vs naive on {query}"
                );
            }
        }
    }
}

#[test]
fn optimized_equals_naive_on_mem_store() {
    assert_configs_agree(|g| load(g, ShardBackend::Mem).into_shared());
}

#[test]
fn optimized_equals_naive_on_native_store() {
    assert_configs_agree(|g| load(g, NATIVE).into_shared());
}

#[test]
fn stores_agree_under_full_optimization() {
    for seed in seeds() {
        let g = random_graph(seed);
        let mem = load(&g, ShardBackend::Mem).into_shared();
        let native = load(&g, NATIVE).into_shared();
        for query in QUERY_POOL {
            let cfg = OptimizerConfig::full();
            assert_eq!(
                run_sorted(seed, &mem, query, cfg),
                run_sorted(seed, &native, query, cfg),
                "seed {seed}: mem vs native on {query}"
            );
        }
    }
}

/// The variables each join of `plan` deduplicates its build side on.
fn distinct_build_sides(plan: &Plan) -> Vec<Vec<usize>> {
    let vars = |op| match op {
        Operator::Join {
            build: Plan::Distinct(inner),
            ..
        } => match inner.as_ref() {
            Plan::Project(vars, _) => Some(vars.clone()),
            _ => None,
        },
        _ => None,
    };
    operators(plan).into_iter().filter_map(vars).collect()
}

/// `query`'s plan under full optimization.
fn full_plan(store: &SharedStore, query: &str) -> Plan {
    let options = QueryOptions::new().parallelism(1);
    let engine = QueryEngine::with_options(store.clone(), options);
    engine.prepare(query).expect("query parses").plan().clone()
}

/// The random graphs do split the pool's split shapes, and deduplicate
/// exactly the build sides under a DISTINCT — so the equivalence above
/// has compared deduplicated plans with the naive ones.
#[test]
fn random_graphs_exercise_build_side_dedupe() {
    let mut deduped = [0; 4];
    for seed in seeds() {
        let store = load(&random_graph(seed), NATIVE).into_shared();
        for (n, query) in QUERY_POOL[SPLITS].iter().enumerate() {
            deduped[n] += distinct_build_sides(&full_plan(&store, query)).len();
        }
    }
    if std::env::var("SP2B_SEED").is_err() {
        assert!(deduped[..3].iter().all(|&n| n > 0), "{deduped:?}");
    }
    assert_eq!(deduped[3], 0, "COUNT observes every row");
}

/// On Q4 over a generated document: the build side keeps ?journal and
/// the one build variable observed above it, ?name2, projected or not
/// (the filter reads it); a split under a slice — DISTINCT over LIMIT,
/// which no query text can write, built here on the algebra — or under
/// COUNT keeps every row.
#[test]
fn q4_dedupes_its_build_side_only_under_distinct() {
    let (graph, _) = generate_graph(Config::triples(10_000));
    let store = load(&graph, NATIVE).into_shared();
    let q4 = BenchQuery::Q4.text();
    let keep = [distinct_build_sides(&full_plan(&store, q4))];
    assert_eq!(keep[0].len(), 1, "{keep:?}");
    let projects_name1 = q4.replace("?name1 ?name2", "?name1");
    assert_eq!(
        distinct_build_sides(&full_plan(&store, &projects_name1)),
        keep[0]
    );
    let counts = q4.replace("DISTINCT ?name1 ?name2", "(COUNT(*) AS ?n)");
    assert!(distinct_build_sides(&full_plan(&store, &counts)).is_empty());

    let full = OptimizerConfig::full();
    let t = translate(&parse(q4).expect("Q4 parses"));
    let Algebra::Distinct(inner) = t.algebra else {
        panic!("Q4 is a DISTINCT query")
    };
    let over_slice = Algebra::Distinct(Box::new(Algebra::Slice {
        offset: 0,
        limit: Some(10),
        input: inner,
    }));
    let optimized = optimize(over_slice, &*store, &full, &t.projection);
    assert!(distinct_build_sides(&bind(&optimized, &*store, &full)).is_empty());
}

/// Two BGP parts that no equality links are joined, not chained: each
/// runs once with its own filter inside, and a keyless join pairs them.
/// As one chain the second part was looked up once per row of the first
/// and filtered after the product — 9 000 000 pattern rows here.
#[test]
fn unlinked_components_run_once_each() {
    const TRIPLES: i64 = 3_000;
    let mut g = Graph::new();
    for i in 0..TRIPLES {
        g.add(
            Subject::iri(format!("http://x/s{i}")),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(i)),
        );
    }
    let store = load(&g, NATIVE).into_shared();
    let query =
        "SELECT ?s ?v ?w WHERE { ?s <http://x/p> ?v . ?t <http://x/p> ?w FILTER (?w < 12) }";
    let counters = std::sync::Arc::new(ScanCounters::default());
    let options = QueryOptions::new().parallelism(1);
    let engine = QueryEngine::with_options(store.clone(), options).scan_counters(counters.clone());
    let rows = sorted_rows(0, &engine, query);
    assert_eq!(rows.len(), 12 * TRIPLES as usize);
    assert_eq!(
        rows,
        run_sorted(0, &store, query, OptimizerConfig::default())
    );
    let scanned = counters.total_rows();
    assert!(
        scanned <= 2 * TRIPLES as u64,
        "{scanned} pattern rows for two parts of {TRIPLES}"
    );
}
