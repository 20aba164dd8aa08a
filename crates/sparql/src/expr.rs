//! FILTER expression evaluation with SPARQL error semantics.
//!
//! SPARQL expression evaluation is three-valued: an expression yields
//! `true`, `false` or a *type error* (e.g. comparing an unbound variable,
//! or ordering incomparable terms). Errors eliminate solutions at FILTER
//! and LeftJoin-condition boundaries, but `!`, `&&` and `||` propagate
//! them per the spec's partial truth tables — `false && error = false`,
//! `true || error = true`. Getting this right matters for the benchmark's
//! negation queries: `!bound(?v)` must be `true` (not an error) when `?v`
//! is unbound.
//!
//! A comparison of two terms the store holds — bound variables, and
//! constants that occur in the data — reads no text when either has a
//! value key ([`sp2b_store::Dictionary::value_key`]): two keys of one
//! class decide all six operators by rank, and two value spaces are
//! unequal and unordered. Of two keyless terms (IRIs, blank nodes,
//! literals without a value mapping) none can be ordered, and only two
//! such literals need their datatypes read to settle `=`. Text is read
//! there and for constants absent from the store, through the same
//! [`LitValue`] view the keys were ranked by.

use std::cmp::Ordering;

use sp2b_rdf::{LitValue, Term, TermRef};
use sp2b_store::{Dictionary, Id, TripleStore, ValueClass, ValueKey};

use crate::algebra::Expr;
use crate::ast::CmpOp;
use crate::eval::Bindings;

/// A SPARQL expression type error (its only payload is *that* it errored;
/// the spec does not distinguish error kinds observably).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeError;

/// Expression result: `Ok(bool)` or a type error.
pub type ExprResult = Result<bool, TypeError>;

/// A term operand during evaluation: either interned (fast id comparisons
/// possible) or a plan constant that may not occur in the store at all.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    /// Bound variable value: its dictionary id, decoded when (and if) a
    /// comparison needs the text.
    Interned(Id, &'a Dictionary),
    /// Expression constant (with its dictionary id if the term occurs).
    Constant(Option<Id>, &'a Term),
}

impl<'a> Operand<'a> {
    fn term(&self) -> TermRef<'a> {
        match self {
            Operand::Interned(id, dict) => dict.decode(*id),
            Operand::Constant(_, t) => t.as_ref(),
        }
    }

    fn is_literal(&self) -> bool {
        match self {
            Operand::Interned(id, dict) => dict.is_literal(*id),
            Operand::Constant(_, t) => matches!(t, Term::Literal(_)),
        }
    }

    fn id(&self) -> Option<Id> {
        match self {
            Operand::Interned(id, _) => Some(*id),
            Operand::Constant(id, _) => *id,
        }
    }
}

/// A compiled expression bound to a store: constants carry their
/// (optional) dictionary ids so equality tests can use id comparison.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Variable by index.
    Var(usize),
    /// Constant with pre-resolved id.
    Const(Option<Id>, Term),
    /// `bound(?v)`.
    Bound(usize),
    /// `!e`.
    Not(Box<BoundExpr>),
    /// `a && b`.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// `a || b`.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Comparison.
    Compare(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
}

impl BoundExpr {
    /// Resolves constants of `expr` against `store`'s dictionary.
    pub fn bind(expr: &Expr, store: &dyn TripleStore) -> BoundExpr {
        match expr {
            Expr::Var(i) => BoundExpr::Var(*i),
            Expr::Const(t) => BoundExpr::Const(store.resolve(t), t.clone()),
            Expr::Bound(i) => BoundExpr::Bound(*i),
            Expr::Not(a) => BoundExpr::Not(Box::new(Self::bind(a, store))),
            Expr::And(a, b) => BoundExpr::And(
                Box::new(Self::bind(a, store)),
                Box::new(Self::bind(b, store)),
            ),
            Expr::Or(a, b) => BoundExpr::Or(
                Box::new(Self::bind(a, store)),
                Box::new(Self::bind(b, store)),
            ),
            Expr::Compare(op, a, b) => BoundExpr::Compare(
                *op,
                Box::new(Self::bind(a, store)),
                Box::new(Self::bind(b, store)),
            ),
        }
    }

    /// Evaluates to the expression's effective boolean value.
    pub fn evaluate(&self, bindings: &Bindings, store: &dyn TripleStore) -> ExprResult {
        match self {
            BoundExpr::Bound(i) => Ok(bindings.get(*i).is_some()),
            BoundExpr::Not(a) => a.evaluate(bindings, store).map(|b| !b),
            BoundExpr::And(a, b) => {
                // Kleene AND: false dominates errors.
                match (a.evaluate(bindings, store), b.evaluate(bindings, store)) {
                    (Ok(false), _) | (_, Ok(false)) => Ok(false),
                    (Ok(true), Ok(true)) => Ok(true),
                    _ => Err(TypeError),
                }
            }
            BoundExpr::Or(a, b) => {
                // Kleene OR: true dominates errors.
                match (a.evaluate(bindings, store), b.evaluate(bindings, store)) {
                    (Ok(true), _) | (_, Ok(true)) => Ok(true),
                    (Ok(false), Ok(false)) => Ok(false),
                    _ => Err(TypeError),
                }
            }
            BoundExpr::Compare(op, a, b) => {
                let left = a.operand(bindings, store).ok_or(TypeError)?;
                let right = b.operand(bindings, store).ok_or(TypeError)?;
                compare(*op, left, right, store.dictionary())
            }
            // A bare variable/constant in boolean position: its EBV.
            BoundExpr::Var(_) | BoundExpr::Const(..) => {
                let v = self.operand(bindings, store).ok_or(TypeError)?;
                effective_boolean_value(v.term())
            }
        }
    }

    /// Resolves this node to a term operand (only Var/Const can).
    fn operand<'a>(
        &'a self,
        bindings: &Bindings,
        store: &'a dyn TripleStore,
    ) -> Option<Operand<'a>> {
        match self {
            BoundExpr::Var(i) => {
                let id = bindings.get(*i)?;
                Some(Operand::Interned(id, store.dictionary()))
            }
            BoundExpr::Const(id, t) => Some(Operand::Constant(*id, t)),
            _ => None,
        }
    }

    /// Variable indices referenced by this expression.
    pub fn variables(&self) -> Vec<usize> {
        fn walk(e: &BoundExpr, out: &mut Vec<usize>) {
            match e {
                BoundExpr::Var(i) | BoundExpr::Bound(i) => {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
                BoundExpr::Const(..) => {}
                BoundExpr::Not(a) => walk(a, out),
                BoundExpr::And(a, b) | BoundExpr::Or(a, b) | BoundExpr::Compare(_, a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// SPARQL `=` / `!=` / ordering over two operands of `dict`'s store.
fn compare(op: CmpOp, a: Operand<'_>, b: Operand<'_>, dict: &Dictionary) -> ExprResult {
    if let (Some(x), Some(y)) = (a.id(), b.id()) {
        match (dict.value_key(x), dict.value_key(y)) {
            (Some(p), Some(q)) if p.class == q.class => return Ok(holds(op, p.rank.cmp(&q.rank))),
            // Two value spaces, or a value and a term without one.
            (Some(_), _) | (_, Some(_)) => return unrelated(op),
            // One keyless term: RDFterm-equal to itself, never ordered.
            (None, None) if x == y => {
                return match op {
                    CmpOp::Eq => Ok(true),
                    CmpOp::Ne => Ok(false),
                    _ => Err(TypeError),
                }
            }
            // Only two literals can be unequal *and* incomparable.
            (None, None) if !(a.is_literal() && b.is_literal()) => return unrelated(op),
            (None, None) => {}
        }
    }
    compare_terms(op, a.term(), b.term())
}

/// `op` on two terms read as text: the comparison [`compare`] answers
/// from value keys where it can, and agrees with everywhere.
fn compare_terms(op: CmpOp, a: TermRef<'_>, b: TermRef<'_>) -> ExprResult {
    match op {
        CmpOp::Eq => term_equal(a, b),
        CmpOp::Ne => term_equal(a, b).map(|b| !b),
        _ => value_order(a, b).map(|ord| holds(op, ord)).ok_or(TypeError),
    }
}

/// Whether `op` holds between two comparable values ordered `ord`.
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// `op` between two terms that are unequal and have no order: values of
/// two classes, or a term that has a value and one that has none.
fn unrelated(op: CmpOp) -> ExprResult {
    match op {
        CmpOp::Eq => Ok(false),
        CmpOp::Ne => Ok(true),
        _ => Err(TypeError),
    }
}

/// RDFterm-equal with value semantics for known literal types.
fn term_equal(a: TermRef<'_>, b: TermRef<'_>) -> ExprResult {
    match (a, b) {
        (TermRef::Iri(x), TermRef::Iri(y)) => Ok(x == y),
        (TermRef::Blank(x), TermRef::Blank(y)) => Ok(x == y),
        (TermRef::Literal(x), TermRef::Literal(y)) => match (x.value(), y.value()) {
            (LitValue::Int(i), LitValue::Int(j)) => Ok(i == j),
            (LitValue::Str(s), LitValue::Str(t)) => Ok(s == t),
            (LitValue::Bool(p), LitValue::Bool(q)) => Ok(p == q),
            (LitValue::Opaque, LitValue::Opaque) => {
                if x == y {
                    Ok(true)
                } else if x.datatype == y.datatype {
                    Ok(false)
                } else {
                    // Incomparable typed literals: per spec, an error.
                    Err(TypeError)
                }
            }
            // Mixed value spaces (e.g. int vs string): unequal values.
            _ => Ok(false),
        },
        // Different term kinds are never RDFterm-equal.
        _ => Ok(false),
    }
}

/// What a hash join buckets a term under when the join key comes from a
/// `?x = ?y` conjunct: SPARQL `=` is value equality, so two distinct
/// dictionary ids (`"01"^^xsd:integer` and `"1"^^xsd:integer`, a plain
/// `"a"` and `"a"^^xsd:string`) can be equal and must share a bucket.
///
/// The class is the term's value key where it has one, and the term
/// itself otherwise — the split [`compare`] decides `=` by — as one
/// integer, what a join key holds: IRIs, blank nodes and literals with no
/// value mapping are equal only to themselves, and their class is their
/// id, below 2^32; a value key is its rank above that, tagged with its
/// value space. The invariant the join relies on: `term_equal(a, b) ==
/// Ok(true)` ⇒ `eq_class(a) == eq_class(b)`. The converse need not hold —
/// the join keeps the whole condition as its residual, so a shared bucket
/// only nominates candidates.
pub(crate) fn eq_class(dict: &Dictionary, id: Id) -> u64 {
    let Some(ValueKey { class, rank }) = dict.value_key(id) else {
        return u64::from(id);
    };
    let space: u64 = match class {
        ValueClass::Int => 1,
        ValueClass::Str => 2,
        ValueClass::Bool => 3,
    };
    space << 32 | u64::from(rank)
}

/// Value ordering for `<`-family operators. `None` = incomparable (error).
fn value_order(a: TermRef<'_>, b: TermRef<'_>) -> Option<Ordering> {
    match (a, b) {
        (TermRef::Literal(x), TermRef::Literal(y)) => match (x.value(), y.value()) {
            (LitValue::Int(i), LitValue::Int(j)) => Some(i.cmp(&j)),
            (LitValue::Str(s), LitValue::Str(t)) => Some(s.cmp(t)),
            (LitValue::Bool(p), LitValue::Bool(q)) => Some(p.cmp(&q)),
            _ => None,
        },
        // IRIs and blanks have no `<` ordering in SPARQL 1.0 filters.
        _ => None,
    }
}

/// SPARQL effective boolean value of a term.
fn effective_boolean_value(t: TermRef<'_>) -> ExprResult {
    match t {
        TermRef::Literal(l) => match l.value() {
            LitValue::Bool(b) => Ok(b),
            LitValue::Int(i) => Ok(i != 0),
            LitValue::Str(s) => Ok(!s.is_empty()),
            LitValue::Opaque => Err(TypeError),
        },
        _ => Err(TypeError),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::load;
    use sp2b_rdf::vocab::xsd;
    use sp2b_rdf::{Graph, Iri, Literal};
    use sp2b_store::{ShardBackend, ShardedStore};

    fn store_with(terms: &[Term]) -> ShardedStore {
        // Materialize terms by inserting dummy triples mentioning them.
        let mut g = Graph::new();
        for (i, t) in terms.iter().enumerate() {
            g.add(
                sp2b_rdf::Subject::iri(format!("http://dummy/{i}")),
                sp2b_rdf::Iri::new("http://dummy/p"),
                t.clone(),
            );
        }
        load(&g, ShardBackend::Mem)
    }

    fn bindings_for(store: &ShardedStore, values: &[Option<&Term>]) -> Bindings {
        Bindings::new(
            values
                .iter()
                .map(|v| v.map(|t| store.resolve(t).expect("term interned")))
                .collect(),
        )
    }

    fn int(i: i64) -> Term {
        Term::Literal(Literal::integer(i))
    }

    fn s(v: &str) -> Term {
        Term::Literal(Literal::string(v))
    }

    #[test]
    fn bound_semantics() {
        let store = store_with(&[int(1)]);
        let b = bindings_for(&store, &[Some(&int(1)), None]);
        let e = BoundExpr::Bound(0);
        assert_eq!(e.evaluate(&b, &store), Ok(true));
        let e = BoundExpr::Bound(1);
        assert_eq!(e.evaluate(&b, &store), Ok(false));
        // !bound(unbound var) is TRUE, not an error — Q6/Q7 depend on it.
        let e = BoundExpr::Not(Box::new(BoundExpr::Bound(1)));
        assert_eq!(e.evaluate(&b, &store), Ok(true));
    }

    #[test]
    fn numeric_comparisons() {
        let store = store_with(&[int(1940), int(1965)]);
        let b = bindings_for(&store, &[Some(&int(1940)), Some(&int(1965))]);
        let lt = BoundExpr::Compare(
            CmpOp::Lt,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(lt.evaluate(&b, &store), Ok(true));
        let ge = BoundExpr::Compare(
            CmpOp::Ge,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(ge.evaluate(&b, &store), Ok(false));
    }

    #[test]
    fn numeric_compare_is_by_value_not_lexical() {
        let store = store_with(&[int(2), int(10)]);
        let b = bindings_for(&store, &[Some(&int(2)), Some(&int(10))]);
        let lt = BoundExpr::Compare(
            CmpOp::Lt,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(lt.evaluate(&b, &store), Ok(true), "2 < 10 numerically");
    }

    #[test]
    fn string_comparisons() {
        let store = store_with(&[s("Anna Alpha"), s("Bert Beta")]);
        let b = bindings_for(&store, &[Some(&s("Anna Alpha")), Some(&s("Bert Beta"))]);
        let lt = BoundExpr::Compare(
            CmpOp::Lt,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(lt.evaluate(&b, &store), Ok(true));
    }

    #[test]
    fn equality_between_term_kinds_is_false_not_error() {
        let store = store_with(&[Term::iri("http://x"), s("http://x")]);
        let b = bindings_for(
            &store,
            &[Some(&Term::iri("http://x")), Some(&s("http://x"))],
        );
        let eq = BoundExpr::Compare(
            CmpOp::Eq,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(eq.evaluate(&b, &store), Ok(false));
    }

    #[test]
    fn distinct_ids_settle_equality_unless_both_are_literals() {
        let one = Term::Literal(Literal::typed("01", sp2b_rdf::Iri::new(xsd::INTEGER)));
        let terms = [Term::iri("http://a"), Term::iri("http://b"), int(1), one];
        let store = store_with(&terms);
        let all: Vec<Option<&Term>> = terms.iter().map(Some).collect();
        let b = bindings_for(&store, &all);
        let cmp = |op, l, r| {
            BoundExpr::Compare(op, Box::new(BoundExpr::Var(l)), Box::new(BoundExpr::Var(r)))
                .evaluate(&b, &store)
        };
        // Two IRIs, an IRI and a literal: the ids answer.
        assert_eq!(cmp(CmpOp::Ne, 0, 1), Ok(true));
        assert_eq!(cmp(CmpOp::Eq, 0, 1), Ok(false));
        assert_eq!(cmp(CmpOp::Ne, 0, 2), Ok(true));
        // Two literals with two ids can still be one value.
        assert_eq!(cmp(CmpOp::Eq, 2, 3), Ok(true));
        assert_eq!(cmp(CmpOp::Ne, 2, 3), Ok(false));
    }

    #[test]
    fn unbound_comparison_is_error_and_kleene_tables() {
        let store = store_with(&[int(1)]);
        let b = bindings_for(&store, &[Some(&int(1)), None]);
        let err = BoundExpr::Compare(
            CmpOp::Eq,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(err.evaluate(&b, &store), Err(TypeError));
        // false && error = false.
        let f = BoundExpr::Compare(
            CmpOp::Ne,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(0)),
        );
        let and = BoundExpr::And(Box::new(f.clone()), Box::new(err.clone()));
        assert_eq!(and.evaluate(&b, &store), Ok(false));
        // true || error = true.
        let t = BoundExpr::Compare(
            CmpOp::Eq,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(0)),
        );
        let or = BoundExpr::Or(Box::new(t.clone()), Box::new(err.clone()));
        assert_eq!(or.evaluate(&b, &store), Ok(true));
        // true && error = error; false || error = error.
        let and = BoundExpr::And(Box::new(t), Box::new(err.clone()));
        assert_eq!(and.evaluate(&b, &store), Err(TypeError));
        let or = BoundExpr::Or(Box::new(f), Box::new(err));
        assert_eq!(or.evaluate(&b, &store), Err(TypeError));
    }

    #[test]
    fn constant_not_in_store_still_compares_by_value() {
        let store = store_with(&[int(1940)]);
        let b = bindings_for(&store, &[Some(&int(1940))]);
        // 2000 does not occur in the data.
        let e = BoundExpr::Compare(
            CmpOp::Lt,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Const(None, int(2000))),
        );
        assert_eq!(e.evaluate(&b, &store), Ok(true));
    }

    #[test]
    fn equal_terms_share_an_equality_class() {
        let typed = |lex: &str, dt: &str| {
            Term::Literal(Literal::typed(
                lex,
                sp2b_rdf::Iri::new(format!("{}{dt}", xsd::NS)),
            ))
        };
        let zoo = [
            int(1),
            typed("01", "integer"),
            int(2),
            Term::Literal(Literal::plain("a")),
            s("a"),
            s("b"),
            typed("true", "boolean"),
            typed("1", "boolean"),
            typed("false", "boolean"),
            // Same text, different term kinds.
            Term::iri("http://x/a"),
            s("http://x/a"),
            Term::iri("http://x/b"),
            // No value mapping: equal only to themselves.
            typed("2000-01-01", "date"),
            typed("2000-01-02", "date"),
            typed("2000-01-01", "gYear"),
            Term::blank("b0"),
            Term::blank("b1"),
        ];
        let store = store_with(&zoo);
        let class = |t: &Term| eq_class(store.dictionary(), store.resolve(t).expect("interned"));
        let mut equal_pairs = 0;
        for a in &zoo {
            for b in &zoo {
                if term_equal(a.as_ref(), b.as_ref()) == Ok(true) {
                    equal_pairs += 1;
                    assert_eq!(class(a), class(b), "{a} = {b} but the classes differ");
                }
            }
        }
        // Every term equals itself, plus the three value-equal pairs
        // (both ways): 1/01, "a"/"a"^^xsd:string, true/1.
        assert_eq!(equal_pairs, zoo.len() + 6);
        // And kinds stay apart where `=` says false.
        assert_ne!(class(&zoo[9]), class(&zoo[10]), "IRI vs string");
        assert_ne!(class(&zoo[0]), class(&zoo[7]), "integer 1 vs boolean 1");
    }

    /// Every operator over every pair of a seeded mix of terms gives the
    /// same result from value keys as from the terms' text — whether an
    /// operand is a bound variable, a constant the store holds, or a
    /// constant it does not.
    #[test]
    fn value_keys_decide_as_the_text_does() {
        let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, Iri::new(dt)));
        let mut rng = sp2b_datagen::rng::SplitMix64::new(29);
        let mut draw = |n: u64| rng.next_u64() % n;
        let zoo: Vec<Term> = (0..48)
            .map(|_| {
                let n = draw(7) as i64 - 3;
                let digits = n.abs().to_string();
                match draw(11) {
                    0 => int(n),
                    // "01"-style and "+1"-style forms of the same values.
                    1 => typed(&format!("0{digits}"), xsd::INTEGER),
                    2 => typed(&format!("+{digits}"), xsd::INTEGER),
                    // Plain and xsd:string twins of the integers' text.
                    3 => Term::Literal(Literal::plain(digits)),
                    4 => s(&digits),
                    5 => {
                        let mut tagged = Literal::plain(digits);
                        tagged.language = Some(["en", "de"][draw(2) as usize].into());
                        Term::Literal(tagged)
                    }
                    6 => typed(["true", "false", "1", "0"][draw(4) as usize], xsd::BOOLEAN),
                    7 => typed(
                        &format!("200{digits}-01-01"),
                        "http://www.w3.org/2001/XMLSchema#date",
                    ),
                    8 => Term::iri(format!("http://x/{digits}")),
                    9 => Term::blank(format!("b{digits}")),
                    _ => typed(&format!("{digits}x"), xsd::INTEGER),
                }
            })
            .collect();
        // The store holds the first two thirds; the rest are constants
        // only (unless drawn twice).
        let (held, _) = zoo.split_at(32);
        let store = store_with(held);
        let b = bindings_for(&store, &held.iter().map(Some).collect::<Vec<_>>());
        let forms = |i: usize| {
            let t = &zoo[i];
            let constant = BoundExpr::Const(store.resolve(t), t.clone());
            if i < held.len() {
                vec![BoundExpr::Var(i), constant]
            } else {
                vec![constant]
            }
        };
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for (i, x) in zoo.iter().enumerate() {
            for (j, y) in zoo.iter().enumerate() {
                for op in ops {
                    let text = compare_terms(op, x.as_ref(), y.as_ref());
                    for l in forms(i) {
                        for r in forms(j) {
                            let e = BoundExpr::Compare(op, Box::new(l.clone()), Box::new(r));
                            assert_eq!(e.evaluate(&b, &store), text, "{x} {op:?} {y}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn iri_ordering_is_error() {
        let store = store_with(&[Term::iri("http://a"), Term::iri("http://b")]);
        let b = bindings_for(
            &store,
            &[Some(&Term::iri("http://a")), Some(&Term::iri("http://b"))],
        );
        let lt = BoundExpr::Compare(
            CmpOp::Lt,
            Box::new(BoundExpr::Var(0)),
            Box::new(BoundExpr::Var(1)),
        );
        assert_eq!(lt.evaluate(&b, &store), Err(TypeError));
    }

    #[test]
    fn ebv_of_plain_string() {
        let store = store_with(&[s("x"), s("")]);
        let b = bindings_for(&store, &[Some(&s("x")), Some(&s(""))]);
        assert_eq!(BoundExpr::Var(0).evaluate(&b, &store), Ok(true));
        assert_eq!(BoundExpr::Var(1).evaluate(&b, &store), Ok(false));
    }
}
