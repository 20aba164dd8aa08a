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
use sp2bench::sparql::eval::{Cancellation, EvalContext, StepState};
use sp2bench::sparql::optimizer::optimize;
use sp2bench::sparql::plan::{bind, operators, Operator, Plan};
use sp2bench::sparql::{
    parse, OptimizerConfig, QueryEngine, QueryOptions, QueryResult, ScanCounters,
};
use sp2bench::store::{open_store, save_graph, ShardBackend, ShardBy, SharedStore, TripleStore};

mod common;
use common::{load, sharded, NATIVE};

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

// ---------------------------------------------------------------------------
// A join whose probe side reads its build rows (a star repeated up to a
// renaming of its variables)
// ---------------------------------------------------------------------------

/// A seeded star on `?{subject}`: two or three patterns with distinct
/// predicates; the first meets the other star at the shared `?j`, the
/// second's object is a variable (what the `<` residuals compare), the
/// third's a variable or a constant. Pattern N's object variable is
/// `?{prefix}N`.
#[derive(Clone)]
struct Star(Vec<(u64, Option<u64>)>);

impl Star {
    fn draw(rng: &mut SplitMix64) -> Star {
        let first = rng.next_u64() % 4;
        let mut preds = (0..4).filter(|&p| p != first).collect::<Vec<u64>>();
        let second = preds.remove((rng.next_u64() % 3) as usize);
        let mut star = vec![(first, None), (second, None)];
        if rng.next_u64().is_multiple_of(2) {
            let third = preds[(rng.next_u64() % 2) as usize];
            let object = rng.next_u64().is_multiple_of(2).then(|| rng.next_u64() % 4);
            star.push((third, object));
        }
        Star(star)
    }

    /// The star's patterns, with the join variable `?{join}` (Q4's
    /// `?journal`) or a variable of its own.
    fn text(&self, subject: &str, prefix: &str, join: Option<&str>) -> String {
        let object = |i: usize, o: Option<u64>| match (i, o, join) {
            (0, _, Some(j)) => format!("?{j}"),
            (_, Some(o), _) => format!("<http://t/o{o}>"),
            (_, None, _) => format!("?{prefix}{i}"),
        };
        let patterns = self.0.iter().enumerate();
        patterns
            .map(|(i, &(p, o))| format!("?{subject} <http://t/p{p}> {} .", object(i, o)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A graph of many-valued stars: 40 subjects with up to one object for
/// each of p0..p3, few enough distinct objects that stars meet, so that
/// the full planner splits a BGP of two stars at the one they share.
fn star_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut g = Graph::new();
    for s in 0..40 {
        for p in 0..4 {
            if rng.next_u64().is_multiple_of(5) {
                continue;
            }
            let o = rng.next_u64() % 10;
            let object: Term = match o {
                0..=3 => Term::iri(format!("http://t/o{o}")),
                _ => Term::Literal(Literal::integer(o as i64)),
            };
            g.add(
                Subject::iri(format!("http://t/s{s}")),
                Iri::new(format!("http://t/p{p}")),
                object,
            );
        }
    }
    g
}

/// The shapes a repeated star is asked in, from `star`: whether the
/// full configuration may plan reuse for each, and its text.
fn repeated_star_shapes(star: &Star) -> Vec<(&'static str, bool, String)> {
    let (a, b) = (
        star.text("a", "n", Some("j")),
        star.text("b", "m", Some("j")),
    );
    // As written in Q4 — one BGP, which the planner splits at `?j` only
    // where its estimates favour it — and as two groups, always a join.
    let (flat, pair) = (format!("{a} {b}"), format!("{{ {a} }} {{ {b} }}"));
    // Q6's two stars share no variable: the OPTIONAL's condition pairs
    // them (an eq pair and a residual).
    let (a0, b0) = (star.text("a", "n", None), star.text("b", "m", None));
    let negation = |extra: &str| {
        format!(
            "SELECT ?a ?n1 WHERE {{ {a0} {extra} OPTIONAL {{ {b0} FILTER (?n0 = ?m0 && ?m1 < ?n1) }} \
             FILTER (!bound(?b)) }}"
        )
    };
    // Near misses: the copy's last object is another constant (or a
    // constant where the original has a variable), or the copy repeats a
    // variable the original does not.
    let mut other = star.clone();
    let last = other.0.len() - 1;
    other.0[last].1 = Some(other.0[last].1.map_or(0, |o| (o + 1) % 4));
    let other = other.text("b", "m", Some("j"));
    let repeats = b.replacen("?m1 .", "?b .", 1);
    vec![
        (
            "q4",
            true,
            format!("SELECT DISTINCT ?n1 ?m1 WHERE {{ {flat} FILTER (?n1 < ?m1) }}"),
        ),
        (
            "q4 groups",
            true,
            format!("SELECT DISTINCT ?n1 ?m1 WHERE {{ {pair} FILTER (?n1 < ?m1) }}"),
        ),
        ("q6", true, negation("")),
        ("q6+step", true, negation("?n1 <http://t/p3> ?z .")),
        (
            "limit",
            true,
            format!("SELECT ?a ?n1 ?m1 WHERE {{ {pair} FILTER (?n1 < ?m1) }} LIMIT 5"),
        ),
        (
            "order",
            true,
            format!("SELECT ?n1 ?m1 ?b WHERE {{ {pair} }} ORDER BY DESC(?n1) ?m1"),
        ),
        (
            "count",
            true,
            format!("SELECT (COUNT(*) AS ?c) WHERE {{ {pair} FILTER (?n1 < ?m1) }}"),
        ),
        ("ask", false, format!("ASK {{ {pair} FILTER (?n1 < ?m1) }}")),
        (
            "other constant",
            false,
            format!("SELECT DISTINCT ?n1 ?m1 WHERE {{ {{ {a} }} {{ {other} }} }}"),
        ),
        // Under DISTINCT the build side keeps ?m1 and ?j; the probe side's
        // ?a, projected, reads ?b, which it drops.
        (
            "unkept variable",
            false,
            format!("SELECT DISTINCT ?a ?m1 WHERE {{ {flat} FILTER (?n1 < ?m1) }}"),
        ),
        (
            "repeated variable",
            false,
            format!("SELECT DISTINCT ?n1 ?a WHERE {{ {{ {a} }} {{ {repeats} }} }}"),
        ),
    ]
}

/// `query`'s answer from `engine`, row by row in order (an ASK's as one
/// row).
fn rows_in_order(seed: u64, engine: &QueryEngine, query: &str) -> Vec<String> {
    let prepared = engine.prepare(query).expect("shape parses");
    match engine.execute(&prepared) {
        Ok(QueryResult::Solutions { rows, .. }) => rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|t| t.as_ref().map_or("-".to_owned(), ToString::to_string))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect(),
        Ok(QueryResult::Boolean(yes)) => vec![yes.to_string()],
        Err(e) => panic!("seed {seed}: {query}: {e}"),
    }
}

/// Whether some join of `plan` has its probe side read its build rows.
fn reuses(plan: &Plan) -> bool {
    operators(plan)
        .iter()
        .any(|op| matches!(op, Operator::Join { reuse: Some(_), .. }))
}

/// `query`'s rows, as ids in order, from `plan` on `store` at degree 1.
fn plan_rows(store: &SharedStore, query: &str, plan: &Plan) -> Vec<Vec<Option<u32>>> {
    let t = translate(&parse(query).expect("shape parses"));
    let ctx = EvalContext {
        store: &**store,
        shared: None,
        cancel: Cancellation::none(),
        width: t.vars.len(),
        counters: None,
        steps: (0..operators(plan).len())
            .map(|_| StepState::default())
            .collect(),
    };
    ctx.eval(plan)
        .map(|row| t.projection.iter().map(|&v| row.get(v)).collect())
        .collect()
}

/// A star repeated up to a renaming runs once where the full planner
/// may serve the join's probe side from its build rows — Q4's shape
/// (DISTINCT, a `<` residual, the build side deduplicated), Q6's
/// (OPTIONAL with `!bound`), and the same under LIMIT, ORDER BY and
/// COUNT, where nothing is deduplicated — and never in an ASK or where
/// the stars differ in one constant or one repeated variable. Every shape
/// answers as the naive configuration does; the full plan's rows come in
/// exactly the order of the same plan without the reuse, and exactly the
/// same sequence at parallelism 1, 2 and 4, over three shards and from
/// saved segments.
#[test]
fn repeated_stars_read_the_build_rows_and_answer_the_same() {
    #[cfg(debug_assertions)]
    sp2bench::sparql::par::diag::fan_out_at_once(true);
    let mut reused: std::collections::BTreeMap<&str, u64> = Default::default();
    for seed in seeds() {
        let graph = star_graph(seed);
        let star = Star::draw(&mut SplitMix64::new(seed ^ 0x5eed));
        let native = load(&graph, NATIVE).into_shared();
        let shards = sharded(&graph, 3, ShardBy::Subject, NATIVE).into_shared();
        let dir =
            std::env::temp_dir().join(format!("sp2b-equivalence-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir(&dir).expect("create scratch dir");
        save_graph(&dir, &graph, 2, ShardBy::Subject).expect("save");
        let disk = open_store(&dir).expect("open").into_shared();
        for (shape, may_reuse, query) in repeated_star_shapes(&star) {
            let at = |store: &SharedStore, degree: usize| {
                let options = QueryOptions::new().parallelism(degree);
                let engine = QueryEngine::with_options(store.clone(), options);
                rows_in_order(seed, &engine, &query)
            };
            let naive = QueryOptions::new()
                .optimizer(OptimizerConfig::default())
                .parallelism(1);
            // Which rows a LIMIT keeps depends on the order they come in:
            // the naive answer is the query's without it, and the
            // limited one must be as many of those as the limit allows.
            let (unlimited, limit) = match query.strip_suffix(" LIMIT 5") {
                Some(unlimited) => (unlimited, 5),
                None => (query.as_str(), usize::MAX),
            };
            let mut expected = rows_in_order(
                seed,
                &QueryEngine::with_options(native.clone(), naive),
                unlimited,
            );
            expected.sort();
            // A sharded store scans shard by shard, so each store has its
            // own sequence; the degree must not change it.
            for (store, label) in [(&native, "native"), (&shards, "3 shards"), (&disk, "disk")] {
                let sequence = at(store, 1);
                let mut got = sequence.clone();
                got.sort();
                let mut left = expected.clone();
                got.retain(|row| match left.iter().position(|r| r == row) {
                    Some(at) => {
                        left.remove(at);
                        true
                    }
                    None => false,
                });
                assert_eq!(
                    (got.len(), sequence.len()),
                    (expected.len().min(limit), expected.len().min(limit)),
                    "seed {seed}: {shape} {label} vs naive: {query}"
                );
                for degree in [2, 4] {
                    assert_eq!(
                        at(store, degree),
                        sequence,
                        "seed {seed}: {shape} {label} at {degree}: {query}"
                    );
                }
            }
            let plan = full_plan(&native, &query);
            if !may_reuse {
                assert!(!reuses(&plan), "seed {seed}: {shape} reuses: {query}");
                continue;
            }
            if reuses(&plan) {
                *reused.entry(shape).or_default() += 1;
                if !distinct_build_sides(&plan).is_empty() {
                    *reused.entry("deduplicated").or_default() += 1;
                }
                let full = OptimizerConfig::full();
                let t = translate(&parse(&query).expect("shape parses"));
                let algebra = optimize(t.algebra, &*native, &full, &t.projection);
                let without = bind(&algebra, &*native, &full);
                assert_eq!(
                    plan_rows(&native, &query, &plan),
                    plan_rows(&native, &query, &without),
                    "seed {seed}: {shape} in another order than without reuse: {query}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if std::env::var("SP2B_SEED").is_err() {
        let shapes = [
            "q4",
            "q4 groups",
            "q6",
            "q6+step",
            "limit",
            "order",
            "count",
        ];
        for shape in shapes.into_iter().chain(["deduplicated"]) {
            assert!(
                reused.get(shape).is_some_and(|&n| n > 0),
                "{shape}: {reused:?}"
            );
        }
    }
}
