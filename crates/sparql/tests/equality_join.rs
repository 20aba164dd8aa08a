//! `?x = ?y` filter conjuncts as hash-join keys: the optimized plans
//! (hash join on value-equality classes) against naive evaluation (the
//! nested loop that applies the filter per merged row) on a hand-built
//! store where the equalities hold *by value only* — `"01"` vs `"1"`, a
//! plain literal vs its `xsd:string` twin — so bucketing by dictionary id
//! would lose matches.

use sp2b_rdf::vocab::xsd;
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::plan::Plan;
use sp2b_sparql::{OptimizerConfig, Prepared, QueryEngine, QueryResult};
use sp2b_store::{SharedStore, TripleStore};

mod common;
use common::{load, NATIVE};

fn store() -> SharedStore {
    let mut g = Graph::new();
    let mut add = |s: &str, p: &str, o: Term| {
        g.add(
            Subject::iri(format!("http://x/{s}")),
            Iri::new(format!("http://x/{p}")),
            o,
        );
    };
    let integer = |lexical: &str| Term::Literal(Literal::typed(lexical, Iri::new(xsd::INTEGER)));
    for p in ["p1", "p2", "p3", "p4"] {
        add(p, "type", Term::iri("http://x/Person"));
    }
    // p1 and p2 are the same age by value, not by term; p4 has none.
    add("p1", "age", integer("1"));
    add("p2", "age", integer("01"));
    add("p3", "age", integer("2"));
    add("i1", "size", integer("1"));
    add("i2", "size", integer("01"));
    add("i3", "size", integer("3"));
    // A plain literal equals its xsd:string twin.
    add("p1", "name", Term::Literal(Literal::plain("a")));
    add("p3", "name", Term::Literal(Literal::string("b")));
    add("i1", "label", Term::Literal(Literal::string("a")));
    add("i2", "label", Term::Literal(Literal::plain("a")));
    add("i3", "label", Term::Literal(Literal::plain("c")));
    // Same text, different term kind: never equal.
    add("i3", "label", Term::iri("http://x/a"));
    load(&g, NATIVE).into_shared()
}

fn sorted_rows(engine: &QueryEngine, prepared: &Prepared) -> Vec<String> {
    let QueryResult::Solutions { rows, .. } = engine.execute(prepared).unwrap() else {
        panic!("SELECT expected")
    };
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|t| t.as_ref().map_or("-".to_owned(), ToString::to_string))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    out.sort();
    out
}

/// The equality pairs of the first join met below the streaming wrappers.
fn join_pairs(plan: &Plan) -> &[(usize, usize)] {
    match plan {
        Plan::Project(_, inner) | Plan::Distinct(inner) | Plan::Filter(_, inner) => {
            join_pairs(inner)
        }
        Plan::Join { eq, .. } => eq,
        other => panic!("no join in {other:?}"),
    }
}

/// Runs `query` optimized and naive, asserts the same rows, and returns
/// them with the optimized plan's join key pairs.
fn agree(query: &str) -> (Vec<String>, usize) {
    let store = store();
    let naive = QueryEngine::new(store.clone())
        .optimizer(OptimizerConfig::default())
        .parallelism(1);
    let reference = sorted_rows(&naive, &naive.prepare(query).unwrap());
    let mut pairs = 0;
    for cfg in [OptimizerConfig::full(), OptimizerConfig::heuristic()] {
        let optimized = QueryEngine::new(store.clone())
            .optimizer(cfg)
            .parallelism(1);
        let prepared = optimized.prepare(query).unwrap();
        assert_eq!(sorted_rows(&optimized, &prepared), reference, "{query}");
        pairs = join_pairs(prepared.plan()).len();
    }
    (reference, pairs)
}

#[test]
fn optional_equality_matches_by_value() {
    let (rows, pairs) = agree(
        "SELECT ?p ?i WHERE { ?p <http://x/age> ?a
           OPTIONAL { ?i <http://x/size> ?s FILTER (?a = ?s) } }",
    );
    assert_eq!(pairs, 1, "?a = ?s keys the left join");
    // "1" and "01" each match both sizes of value 1; age 2 matches none.
    assert_eq!(
        rows,
        [
            "<http://x/p1> <http://x/i1>",
            "<http://x/p1> <http://x/i2>",
            "<http://x/p2> <http://x/i1>",
            "<http://x/p2> <http://x/i2>",
            "<http://x/p3> -",
        ]
    );
}

#[test]
fn plain_and_typed_strings_share_a_bucket() {
    let (rows, pairs) = agree(
        "SELECT ?p ?i WHERE { ?p <http://x/name> ?n
           OPTIONAL { ?i <http://x/label> ?l FILTER (?n = ?l) } }",
    );
    assert_eq!(pairs, 1);
    // The IRI <http://x/a> is not the string "a".
    assert_eq!(
        rows,
        [
            "<http://x/p1> <http://x/i1>",
            "<http://x/p1> <http://x/i2>",
            "<http://x/p3> -",
        ]
    );
}

#[test]
fn unbound_key_variable_keeps_the_left_row_unmatched() {
    // ?a is only possibly bound on the left (p4 has no age): such a row
    // makes `?a = ?s` an error for every candidate, so it survives alone.
    let (rows, pairs) = agree(
        "SELECT ?p ?i WHERE { ?p <http://x/type> <http://x/Person>
           OPTIONAL { ?p <http://x/age> ?a }
           OPTIONAL { ?i <http://x/size> ?s FILTER (?a = ?s) } }",
    );
    assert_eq!(pairs, 1);
    assert_eq!(rows.len(), 6);
    assert!(rows.contains(&"<http://x/p4> -".to_owned()));
}

#[test]
fn residual_conjuncts_still_decide() {
    let (rows, pairs) = agree(
        "SELECT ?p ?i WHERE { ?p <http://x/age> ?a
           OPTIONAL { ?i <http://x/size> ?s FILTER (?a = ?s && ?i != <http://x/i2>) } }",
    );
    assert_eq!(pairs, 1);
    assert_eq!(
        rows,
        [
            "<http://x/p1> <http://x/i1>",
            "<http://x/p2> <http://x/i1>",
            "<http://x/p3> -",
        ]
    );
}

#[test]
fn equality_under_a_disjunction_is_not_a_key() {
    // A row can pass through the other disjunct, so bucketing on
    // `?a = ?s` would lose i3.
    let (rows, pairs) = agree(
        "SELECT ?p ?i WHERE { ?p <http://x/age> ?a
           OPTIONAL { ?i <http://x/size> ?s FILTER (?a = ?s || ?s = 3) } }",
    );
    assert_eq!(pairs, 0, "nested loop");
    assert_eq!(rows.len(), 7);
    assert!(rows.contains(&"<http://x/p3> <http://x/i3>".to_owned()));
}

#[test]
fn filter_equality_joins_disconnected_patterns_by_value() {
    let (rows, pairs) = agree(
        "SELECT ?p ?i WHERE { ?p <http://x/age> ?a . ?i <http://x/size> ?s
           FILTER (?a = ?s) }",
    );
    assert_eq!(pairs, 1, "the cartesian BGP became a hash join");
    assert_eq!(
        rows,
        [
            "<http://x/p1> <http://x/i1>",
            "<http://x/p1> <http://x/i2>",
            "<http://x/p2> <http://x/i1>",
            "<http://x/p2> <http://x/i2>",
        ]
    );
    // Three components, two linked: the third joins as a plain product.
    let (rows, _) = agree(
        "SELECT ?p ?i ?n WHERE { ?p <http://x/age> ?a . ?i <http://x/size> ?s .
           ?q <http://x/name> ?n FILTER (?a = ?s && ?n != \"b\") }",
    );
    assert_eq!(rows.len(), 4);
}

#[test]
fn ask_over_an_equality_join_agrees_with_the_nested_loop() {
    // An ASK runs the hash join symmetrically (neither side materialized
    // first). The witnesses here match by value only; the "no" answers
    // make it exhaust both inputs.
    let store = store();
    for (pattern, expected) in [
        (
            "?p <http://x/age> ?a . ?i <http://x/size> ?s FILTER (?a = ?s)",
            true,
        ),
        (
            "?p <http://x/name> ?n . ?i <http://x/label> ?l
             FILTER (?n = ?l && ?i = <http://x/i1>)",
            true,
        ),
        (
            "?p <http://x/age> ?a . ?i <http://x/label> ?l FILTER (?a = ?l)",
            false,
        ),
        (
            "?p <http://x/age> ?a . ?i <http://x/size> ?s FILTER (?a = ?s && ?s > 1)",
            false,
        ),
    ] {
        let query = format!("ASK {{ {pattern} }}");
        for cfg in [
            OptimizerConfig::default(),
            OptimizerConfig::heuristic(),
            OptimizerConfig::full(),
        ] {
            let engine = QueryEngine::new(store.clone()).optimizer(cfg);
            let answer = engine.run(&query).unwrap();
            assert_eq!(
                answer,
                QueryResult::Boolean(expected),
                "{query} under {cfg:?}"
            );
        }
    }
}
