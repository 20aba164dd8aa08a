//! Tests for the aggregation extension (GROUP BY + COUNT) — the paper's
//! Section VII: "Concerning aggregations, the detailed knowledge of the
//! document class counts and distributions facilitates the design of
//! challenging aggregate queries."

mod common;

use common::load;
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
use sp2b_sparql::{Error, QueryEngine, QueryResult};
use sp2b_store::{ShardBackend, ShardedStore, TripleStore};

fn store() -> ShardedStore {
    let mut g = Graph::new();
    // Three classes with 3, 2, 1 instances; persons with names.
    for (i, class) in [(0, "A"), (1, "A"), (2, "A"), (3, "B"), (4, "B"), (5, "C")] {
        g.add(
            Subject::iri(format!("http://x/d{i}")),
            Iri::new("http://x/type"),
            Term::iri(format!("http://x/{class}")),
        );
    }
    // d0 has two creators; d1 one; d2 none.
    for (d, p) in [(0, "alice"), (0, "bob"), (1, "alice")] {
        g.add(
            Subject::iri(format!("http://x/d{d}")),
            Iri::new("http://x/creator"),
            Term::iri(format!("http://x/{p}")),
        );
    }
    g.add(
        Subject::iri("http://x/alice"),
        Iri::new("http://x/age"),
        Term::Literal(Literal::integer(30)),
    );
    load(&g, ShardBackend::Mem)
}

fn rows(query: &str) -> (Vec<String>, Vec<Vec<Option<Term>>>) {
    match QueryEngine::new(store().into_shared()).run(query).unwrap() {
        QueryResult::Solutions { variables, rows } => (variables, rows),
        other => panic!("{other:?}"),
    }
}

fn int(t: &Option<Term>) -> i64 {
    match t {
        Some(Term::Literal(l)) => l.as_integer().expect("integer literal"),
        other => panic!("expected integer, got {other:?}"),
    }
}

#[test]
fn count_star_grouped_by_class() {
    let (vars, rows) = rows(
        "SELECT ?class (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?class } \
         GROUP BY ?class ORDER BY DESC(?n)",
    );
    assert_eq!(vars, ["class", "n"]);
    assert_eq!(rows.len(), 3);
    let counts: Vec<i64> = rows.iter().map(|r| int(&r[1])).collect();
    assert_eq!(counts, [3, 2, 1], "ordered by descending count");
}

#[test]
fn count_variable_skips_unbound() {
    // d2 has a class but no creator: COUNT(?p) must not count its row.
    let (_, rows) = rows(
        "SELECT ?d (COUNT(?p) AS ?n) WHERE { ?d <http://x/type> <http://x/A> \
         OPTIONAL { ?d <http://x/creator> ?p } } GROUP BY ?d",
    );
    assert_eq!(rows.len(), 3);
    let mut counts: Vec<i64> = rows.iter().map(|r| int(&r[1])).collect();
    counts.sort_unstable();
    assert_eq!(counts, [0, 1, 2]);
}

#[test]
fn count_distinct() {
    // alice creates d0 and d1 → plain count 3 creator edges, distinct
    // creators = 2.
    let (_, plain) = rows("SELECT (COUNT(?p) AS ?n) WHERE { ?d <http://x/creator> ?p }");
    assert_eq!(int(&plain[0][0]), 3);
    let (_, distinct) =
        rows("SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?d <http://x/creator> ?p }");
    assert_eq!(int(&distinct[0][0]), 2);
}

#[test]
fn global_count_over_empty_pattern_is_zero_row() {
    // SPARQL 1.1: implicit group over an empty solution set yields one
    // row with count 0.
    let (_, rows) = rows("SELECT (COUNT(*) AS ?n) WHERE { ?d <http://x/nonexistent> ?x }");
    assert_eq!(rows.len(), 1);
    assert_eq!(int(&rows[0][0]), 0);
}

#[test]
fn grouped_count_over_empty_pattern_is_empty() {
    let (_, rows) =
        rows("SELECT ?d (COUNT(*) AS ?n) WHERE { ?d <http://x/nonexistent> ?x } GROUP BY ?d");
    assert!(rows.is_empty());
}

#[test]
fn limit_and_offset_apply_to_groups() {
    let (_, rows) = rows(
        "SELECT ?class (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?class } \
         GROUP BY ?class ORDER BY DESC(?n) LIMIT 1 OFFSET 1",
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(int(&rows[0][1]), 2, "second-largest group");
}

#[test]
fn multiple_aggregates_in_one_query() {
    let (vars, rows) = rows(
        "SELECT ?d (COUNT(?p) AS ?edges) (COUNT(DISTINCT ?p) AS ?people) \
         WHERE { ?d <http://x/creator> ?p } GROUP BY ?d",
    );
    assert_eq!(vars, ["d", "edges", "people"]);
    // d0: 2 edges 2 people; d1: 1 edge 1 person.
    let d0 = rows
        .iter()
        .find(|r| r[0].as_ref().unwrap().to_string().contains("d0"))
        .expect("d0 group");
    assert_eq!(int(&d0[1]), 2);
    assert_eq!(int(&d0[2]), 2);
}

#[test]
fn projection_restriction_enforced() {
    // ?d projected next to an aggregate but not grouped → parse error.
    let result = QueryEngine::new(store().into_shared())
        .run("SELECT ?d (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?c }");
    assert!(result.is_err());
}

#[test]
fn group_by_without_aggregate_rejected() {
    let result = QueryEngine::new(store().into_shared())
        .run("SELECT ?c WHERE { ?d <http://x/type> ?c } GROUP BY ?c");
    assert!(result.is_err());
}

#[test]
fn aggregate_count_method_returns_group_count() {
    let engine = QueryEngine::new(store().into_shared());
    let p = engine
        .prepare(
            "SELECT ?class (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?class } GROUP BY ?class",
        )
        .unwrap();
    assert_eq!(engine.count(&p).unwrap(), 3);
}

#[test]
fn deterministic_output_order_without_order_by() {
    // Grouped results sort by the full row when no ORDER BY is given.
    let q = "SELECT ?class (COUNT(*) AS ?n) WHERE { ?d <http://x/type> ?class } GROUP BY ?class";
    let (_, a) = rows(q);
    let (_, b) = rows(q);
    assert_eq!(a, b);
}

#[test]
fn tied_counts_come_out_in_column_order() {
    // d0 has three triples, d1 two, and alice and d2–d5 one each: the
    // ties under DESC(?n) come out ascending on ?d, then ?n.
    let (_, rows) =
        rows("SELECT ?d (COUNT(?x) AS ?n) WHERE { ?d ?p ?x } GROUP BY ?d ORDER BY DESC(?n)");
    let order: Vec<(String, i64)> = rows
        .iter()
        .map(|r| (r[0].as_ref().unwrap().to_string(), int(&r[1])))
        .collect();
    let expected = [
        ("d0", 3),
        ("d1", 2),
        ("alice", 1),
        ("d2", 1),
        ("d3", 1),
        ("d4", 1),
        ("d5", 1),
    ]
    .map(|(d, n)| (format!("<http://x/{d}>"), n));
    assert_eq!(order, expected);
}

#[test]
fn counts_order_as_numbers() {
    // Ten and nine: as text "10" would sort before "9".
    let mut g = Graph::new();
    for (s, n) in [("ten", 10), ("nine", 9)] {
        for i in 0..n {
            g.add(
                Subject::iri(format!("http://x/{s}")),
                Iri::new("http://x/p"),
                Term::Literal(Literal::integer(i)),
            );
        }
    }
    let engine = QueryEngine::new(load(&g, ShardBackend::Mem).into_shared());
    for (order, expected) in [("?n", [9, 10]), ("DESC(?n)", [10, 9])] {
        let q = format!(
            "SELECT ?s (COUNT(*) AS ?n) WHERE {{ ?s <http://x/p> ?v }} GROUP BY ?s ORDER BY {order}"
        );
        let QueryResult::Solutions { rows, .. } = engine.run(&q).unwrap() else {
            panic!("{q}")
        };
        let counts: Vec<i64> = rows.iter().map(|r| int(&r[1])).collect();
        assert_eq!(counts, expected, "{q}");
    }
}

#[test]
fn an_alias_must_name_a_new_variable() {
    // SPARQL 1.1 §18.2.4.1: not a pattern variable, a GROUP BY variable
    // or another alias.
    let engine = QueryEngine::new(store().into_shared());
    for (query, alias) in [
        (
            "SELECT ?c (COUNT(*) AS ?c) WHERE { ?d <http://x/type> ?c } GROUP BY ?c",
            "c",
        ),
        (
            "SELECT (COUNT(?d) AS ?n) (COUNT(?d) AS ?n) WHERE { ?d <http://x/type> ?c }",
            "n",
        ),
        (
            "SELECT (COUNT(?d) AS ?c) WHERE { ?d <http://x/type> ?c }",
            "c",
        ),
        (
            "SELECT (COUNT(?d) AS ?f) WHERE { ?d <http://x/type> ?c FILTER (?f != ?c) }",
            "f",
        ),
    ] {
        let err = engine.prepare(query).unwrap_err();
        assert!(
            matches!(err, Error::AliasInUse(ref v) if v == alias),
            "{query}: {err}"
        );
        assert_eq!(
            err.to_string(),
            format!("AS ?{alias} names a variable already in scope")
        );
    }
    // An alias is no pattern variable: a COUNT cannot count it.
    let err = engine
        .prepare("SELECT (COUNT(*) AS ?n) (COUNT(?n) AS ?m) WHERE { ?d <http://x/type> ?c }")
        .unwrap_err();
    assert!(
        matches!(err, Error::UnboundVariable(ref v) if v == "n"),
        "{err}"
    );
}
