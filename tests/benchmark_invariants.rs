//! Table V invariants: result cardinalities that any faithful SP²Bench
//! data + engine combination must satisfy, regardless of scale or seed
//! (DESIGN.md §5).

use std::time::Duration;

use sp2bench::core::{BenchQuery, Engine, EngineKind, Outcome, StoreLayout};
use sp2bench::datagen::{generate_document, Config};
use sp2bench::rdf::Term;
use sp2bench::sparql::QueryResult;

const TRIPLES: u64 = 12_000;
const TIMEOUT: Duration = Duration::from_secs(120);

fn engine() -> Engine {
    native_opt(Config::triples(TRIPLES))
}

fn native_opt(cfg: Config) -> Engine {
    let (doc, _) = generate_document(cfg);
    Engine::load(EngineKind::NativeOpt, &doc[..], &StoreLayout::default()).expect("valid N-Triples")
}

fn count(engine: &Engine, q: BenchQuery) -> u64 {
    let (outcome, _) = engine.run(q, Some(TIMEOUT));
    outcome.count().unwrap_or_else(|| panic!("{q} failed"))
}

#[test]
fn q1_returns_exactly_one_row() {
    // "This simple query returns exactly one result (for arbitrarily
    // large documents)."
    assert_eq!(count(&engine(), BenchQuery::Q1), 1);
}

#[test]
fn q1_result_is_1940() {
    let e = engine();
    let (outcome, _) = e.run_text(BenchQuery::Q1.text(), Some(TIMEOUT), true);
    let Outcome::Success {
        result: Some(QueryResult::Solutions { rows, .. }),
        ..
    } = outcome
    else {
        panic!("Q1 must succeed");
    };
    let Some(Term::Literal(yr)) = &rows[0][0] else {
        panic!("?yr must be a literal")
    };
    assert_eq!(yr.as_integer(), Some(1940));
}

#[test]
fn q3c_is_empty() {
    // Table IX: P(isbn | Article) = 0 — "the filter condition in Q3c is
    // never satisfied".
    assert_eq!(count(&engine(), BenchQuery::Q3c), 0);
}

#[test]
fn q3_selectivities_are_ordered() {
    // pages (92.61%) ≫ month (0.65%) > isbn (0%).
    let e = engine();
    let a = count(&e, BenchQuery::Q3a);
    let b = count(&e, BenchQuery::Q3b);
    let c = count(&e, BenchQuery::Q3c);
    assert!(a > 50 * b.max(1), "Q3a={a} should dwarf Q3b={b}");
    assert!(b > c, "Q3b={b} must be nonempty, Q3c={c} empty");
}

#[test]
fn q4_pairs_are_ordered_and_irreflexive() {
    let e = engine();
    let (outcome, _) = e.run_text(BenchQuery::Q4.text(), Some(TIMEOUT), true);
    let Outcome::Success {
        result: Some(QueryResult::Solutions { rows, .. }),
        ..
    } = outcome
    else {
        panic!("Q4 must succeed at 12k triples");
    };
    assert!(!rows.is_empty());
    for row in &rows {
        let (Some(Term::Literal(n1)), Some(Term::Literal(n2))) = (&row[0], &row[1]) else {
            panic!("names must be literals")
        };
        assert!(n1.lexical < n2.lexical, "FILTER (?name1 < ?name2) violated");
    }
}

#[test]
fn q5a_equals_q5b() {
    // "the one-to-one mapping between authors and their names … implies
    // equivalence" — author names are primary keys.
    let e = engine();
    assert_eq!(count(&e, BenchQuery::Q5a), count(&e, BenchQuery::Q5b));
}

#[test]
fn q6_returns_debut_publications_only() {
    let e = engine();
    let n = count(&e, BenchQuery::Q6);
    assert!(n > 0, "new authors exist every year");
    // Upper bound: no more rows than (document, author) pairs.
    let all_creators = {
        let (o, _) = e.run_text(
            "SELECT ?doc ?author WHERE { ?doc dc:creator ?author }",
            Some(TIMEOUT),
            false,
        );
        o.count().expect("creator scan succeeds")
    };
    assert!(n <= all_creators);
}

#[test]
fn q7_is_small_but_query_succeeds() {
    // The citation system is sparse ("very incomplete"): Table V reports
    // 0 at 10k. The query itself must evaluate without error.
    let n = count(&engine(), BenchQuery::Q7);
    assert!(n < 100, "Q7 result must stay small at 12k triples, got {n}");
}

#[test]
fn q8_includes_direct_coauthors() {
    let e = engine();
    let q8 = count(&e, BenchQuery::Q8);
    let direct = {
        let (o, _) = e.run_text(
            r#"SELECT DISTINCT ?name WHERE {
                ?doc dc:creator person:Paul_Erdoes .
                ?doc dc:creator ?author .
                ?author foaf:name ?name
                FILTER (?author != person:Paul_Erdoes)
            }"#,
            Some(TIMEOUT),
            false,
        );
        o.count().expect("direct coauthors query succeeds")
    };
    assert!(
        q8 >= direct,
        "Erdős-1 ∪ Erdős-2 ⊇ Erdős-1: {q8} vs {direct}"
    );
    assert!(direct > 0, "Erdős has coauthors from 1940 on");
}

#[test]
fn q9_returns_exactly_four_predicates() {
    // dc:creator + swrc:editor incoming, rdf:type + foaf:name outgoing.
    let e = engine();
    assert_eq!(count(&e, BenchQuery::Q9), 4);
    let (outcome, _) = e.run_text(BenchQuery::Q9.text(), Some(TIMEOUT), true);
    let Outcome::Success {
        result: Some(QueryResult::Solutions { rows, .. }),
        ..
    } = outcome
    else {
        panic!()
    };
    let mut predicates: Vec<String> = rows
        .iter()
        .map(|r| r[0].as_ref().expect("predicate bound").to_string())
        .collect();
    predicates.sort();
    let expected_fragments = ["creator", "editor", "name", "type"];
    for fragment in expected_fragments {
        assert!(
            predicates.iter().any(|p| p.contains(fragment)),
            "missing {fragment} in {predicates:?}"
        );
    }
}

#[test]
fn q10_results_all_point_at_erdoes() {
    let e = engine();
    let n = count(&e, BenchQuery::Q10);
    assert!(n > 0);
    // Erdős is active 1940–1996 with 10 + 2 scripted activities per year;
    // a 12k-triple document reaches the early 1950s → ≥ 100 edges.
    assert!(n >= 100, "expected scripted Erdős activity, got {n}");
}

#[test]
fn q11_returns_exactly_ten() {
    assert_eq!(count(&engine(), BenchQuery::Q11), 10);
}

#[test]
fn q11_is_sorted_lexicographically() {
    let e = engine();
    let (outcome, _) = e.run_text(BenchQuery::Q11.text(), Some(TIMEOUT), true);
    let Outcome::Success {
        result: Some(QueryResult::Solutions { rows, .. }),
        ..
    } = outcome
    else {
        panic!()
    };
    let values: Vec<String> = rows
        .iter()
        .map(|r| match &r[0] {
            Some(Term::Literal(l)) => l.lexical.clone(),
            other => panic!("?ee must be a literal, got {other:?}"),
        })
        .collect();
    let mut sorted = values.clone();
    sorted.sort();
    assert_eq!(values, sorted, "ORDER BY ?ee violated");
}

#[test]
fn ask_queries_answer_as_the_paper_states() {
    // "They always return yes for sufficiently large documents" (Q12a/b);
    // Q12c asks for a triple that is not present.
    let e = engine();
    for (q, expected) in [
        (BenchQuery::Q12a, true),
        (BenchQuery::Q12b, true),
        (BenchQuery::Q12c, false),
    ] {
        let (outcome, _) = e.run_text(q.text(), Some(TIMEOUT), true);
        let Outcome::Success {
            result: Some(r), ..
        } = outcome
        else {
            panic!("{q} must succeed")
        };
        assert_eq!(r.as_bool(), Some(expected), "{q}");
    }
}

#[test]
fn invariants_hold_for_other_seeds() {
    // The invariants are properties of the generator model, not of one
    // seed.
    for seed in [7u64, 99, 123456] {
        let e = native_opt(Config::triples(8_000).with_seed(seed));
        assert_eq!(count_on(&e, BenchQuery::Q1), 1, "seed {seed}");
        assert_eq!(count_on(&e, BenchQuery::Q3c), 0, "seed {seed}");
        assert_eq!(count_on(&e, BenchQuery::Q9), 4, "seed {seed}");
        assert_eq!(count_on(&e, BenchQuery::Q11), 10, "seed {seed}");
        assert_eq!(
            count_on(&e, BenchQuery::Q5a),
            count_on(&e, BenchQuery::Q5b),
            "seed {seed}"
        );
    }
}

fn count_on(e: &Engine, q: BenchQuery) -> u64 {
    let (outcome, _) = e.run(q, Some(TIMEOUT));
    outcome.count().unwrap_or_else(|| panic!("{q} failed"))
}
