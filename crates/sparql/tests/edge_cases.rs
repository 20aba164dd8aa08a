//! Evaluator edge cases beyond the benchmark queries' shapes.

use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::{OptimizerConfig, QueryEngine, QueryResult};
use sp2b_store::{ShardBackend, ShardedStore, TripleStore};

mod common;
use common::{load, NATIVE};

fn store() -> ShardedStore {
    let mut g = Graph::new();
    g.add(
        Subject::iri("http://x/a"),
        Iri::new("http://x/p"),
        Term::iri("http://x/b"),
    );
    g.add(
        Subject::iri("http://x/b"),
        Iri::new("http://x/p"),
        Term::iri("http://x/c"),
    );
    g.add(
        Subject::iri("http://x/a"),
        Iri::new("http://x/q"),
        Term::Literal(Literal::integer(1)),
    );
    g.add(
        Subject::iri("http://x/b"),
        Iri::new("http://x/q"),
        Term::Literal(Literal::integer(2)),
    );
    load(&g, ShardBackend::Mem)
}

fn rows(q: &str) -> Vec<Vec<Option<Term>>> {
    match QueryEngine::new(store().into_shared()).run(q).unwrap() {
        QueryResult::Solutions { rows, .. } => rows,
        other => panic!("{other:?}"),
    }
}

#[test]
fn constant_true_filter_keeps_all() {
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER (1 < 2) }").len(),
        2
    );
}

#[test]
fn constant_false_filter_drops_all() {
    assert!(rows("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER (2 < 1) }").is_empty());
}

#[test]
fn boolean_literal_filters() {
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER (true) }").len(),
        2
    );
    assert!(rows("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER (false) }").is_empty());
}

#[test]
fn select_star_includes_optional_vars() {
    let r = QueryEngine::new(store().into_shared())
        .optimizer(OptimizerConfig::default())
        .run("SELECT * WHERE { ?s <http://x/p> ?o OPTIONAL { ?o <http://x/q> ?v } }")
        .unwrap();
    let QueryResult::Solutions { variables, rows } = r else {
        panic!()
    };
    assert_eq!(variables, ["s", "o", "v"]);
    assert_eq!(rows.len(), 2);
    // ?v bound only where it joins (b has q, c does not).
    let bound = rows.iter().filter(|r| r[2].is_some()).count();
    assert_eq!(bound, 1);
}

#[test]
fn union_inside_optional() {
    let r = rows(
        "SELECT ?s ?x WHERE { ?s <http://x/p> ?o \
         OPTIONAL { { ?s <http://x/q> ?x } UNION { ?o <http://x/q> ?x } } }",
    );
    // a: q(a)=1 and q(b)=2 via ?o → two optional matches; b: q(b)=2 and
    // q(c) missing → one match.
    assert_eq!(r.len(), 3);
    assert!(r.iter().all(|row| row[1].is_some()));
}

#[test]
fn property_list_sugar_evaluates() {
    let r = rows("SELECT ?o ?v WHERE { <http://x/a> <http://x/p> ?o ; <http://x/q> ?v }");
    assert_eq!(r.len(), 1);
}

#[test]
fn empty_group_yields_single_empty_solution() {
    let r = rows("SELECT ?s WHERE { }");
    assert_eq!(r.len(), 1, "the empty BGP has one (empty) solution");
    assert!(r[0][0].is_none());
}

#[test]
fn offset_beyond_results_is_empty() {
    assert!(rows("SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 5 OFFSET 100").is_empty());
}

#[test]
fn limit_zero_is_empty() {
    assert!(rows("SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 0").is_empty());
}

#[test]
fn filter_referencing_never_bound_variable_drops_rows() {
    // ?nope is never bound: comparison errors eliminate every row.
    assert!(rows("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER (?nope = 1) }").is_empty());
    // But bound(?nope) is false, so !bound keeps rows.
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER (!bound(?nope)) }").len(),
        2
    );
}

#[test]
fn duplicate_triples_produce_duplicate_solutions() {
    let mut g = Graph::new();
    for _ in 0..3 {
        g.add(
            Subject::iri("http://x/s"),
            Iri::new("http://x/p"),
            Term::iri("http://x/o"),
        );
    }
    let engine = QueryEngine::new(load(&g, ShardBackend::Mem).into_shared())
        .optimizer(OptimizerConfig::default());
    let r = engine
        .run("SELECT ?s WHERE { ?s <http://x/p> ?o }")
        .unwrap();
    assert_eq!(r.len(), 3, "bag semantics before DISTINCT");
    let d = engine
        .run("SELECT DISTINCT ?s WHERE { ?s <http://x/p> ?o }")
        .unwrap();
    assert_eq!(d.len(), 1);
}

#[test]
fn deeply_nested_optionals() {
    // Q7's triple-nesting shape on synthetic data.
    let q = "SELECT ?a ?b ?c ?d WHERE {
        ?a <http://x/p> ?b
        OPTIONAL {
            ?b <http://x/p> ?c
            OPTIONAL { ?c <http://x/p> ?d }
        }
    }";
    let r = rows(q);
    assert_eq!(r.len(), 2);
    // a→b→c chain exists; c has no successor.
    let full = r.iter().find(|row| row[2].is_some()).expect("chained row");
    assert!(full[3].is_none(), "no third hop exists");
}

#[test]
fn ask_with_optional() {
    let r = QueryEngine::new(store().into_shared())
        .optimizer(OptimizerConfig::default())
        .run("ASK { ?s <http://x/p> ?o OPTIONAL { ?o <http://x/q> ?v } }")
        .unwrap();
    assert_eq!(r.as_bool(), Some(true));
}

#[test]
fn stores_agree_on_variable_predicate_queries() {
    let mut g = Graph::new();
    g.add(
        Subject::iri("http://x/s"),
        Iri::new("http://x/p1"),
        Term::iri("http://x/o"),
    );
    g.add(
        Subject::iri("http://x/s"),
        Iri::new("http://x/p2"),
        Term::iri("http://x/o"),
    );
    let q = "SELECT DISTINCT ?p WHERE { <http://x/s> ?p <http://x/o> }";
    let a = QueryEngine::new(load(&g, ShardBackend::Mem).into_shared())
        .run(q)
        .unwrap()
        .len();
    let b = QueryEngine::new(load(&g, NATIVE).into_shared())
        .run(q)
        .unwrap()
        .len();
    assert_eq!(a, 2);
    assert_eq!(a, b);
}
