//! Translation from the AST to the SPARQL algebra (spec §12.2.1).
//!
//! The translation is the part that makes the closed-world-negation
//! queries (Q6, Q7) work: a `FILTER` that is the last element of an
//! `OPTIONAL` group becomes the *condition* of the resulting
//! [`Algebra::LeftJoin`] — evaluated over the merged bindings of both
//! sides — rather than an inner filter, so it can reference variables of
//! the outer group (`?author = ?author2 && ?yr2 < ?yr`).
//!
//! Variables are resolved to dense indices ([`VarTable`]) here; the
//! evaluator represents a solution as one lane per variable. An `AS
//! ?alias` is a variable too: its lane holds a group's count.

use sp2b_rdf::Term;

use crate::ast::{
    CmpOp, Expression, GroupElement, GroupPattern, Query, QueryForm, TermOrVar, TriplePattern,
};

/// Maps variable names to dense indices.
#[derive(Debug, Default, Clone)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Index of `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        self.names.push(name.to_owned());
        self.names.len() - 1
    }

    /// Index of `name`, if known.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Name of variable `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variable was interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// A triple-pattern slot after variable resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A constant term.
    Const(Term),
    /// Variable by index.
    Var(usize),
}

impl Slot {
    /// The variable index, if a variable.
    pub fn as_var(&self) -> Option<usize> {
        match self {
            Slot::Var(i) => Some(*i),
            Slot::Const(_) => None,
        }
    }
}

/// A resolved triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPattern {
    /// Subject slot.
    pub s: Slot,
    /// Predicate slot.
    pub p: Slot,
    /// Object slot.
    pub o: Slot,
    /// The rows the optimizer estimates its BGP to hold once this step
    /// has run, when it ordered the BGP on statistics; `None` out of
    /// translation.
    pub est_rows: Option<u64>,
}

impl ResolvedPattern {
    /// The slots as an (s, p, o) array.
    pub fn slots(&self) -> [&Slot; 3] {
        [&self.s, &self.p, &self.o]
    }

    /// Variable indices of this pattern.
    pub fn variables(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots().into_iter().filter_map(Slot::as_var)
    }
}

/// A compiled filter expression (variables by index).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference.
    Var(usize),
    /// Constant term.
    Const(Term),
    /// `bound(?v)`.
    Bound(usize),
    /// `!e`.
    Not(Box<Expr>),
    /// `a && b`.
    And(Box<Expr>, Box<Expr>),
    /// `a || b`.
    Or(Box<Expr>, Box<Expr>),
    /// Comparison.
    Compare(CmpOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Collects variable indices (deduplicated).
    pub fn variables(&self) -> Vec<usize> {
        fn walk(e: &Expr, out: &mut Vec<usize>) {
            match e {
                Expr::Var(i) | Expr::Bound(i) => {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
                Expr::Const(_) => {}
                Expr::Not(a) => walk(a, out),
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Compare(_, a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Splits a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Re-folds conjuncts into a single expression.
    pub fn fold_and(mut conjuncts: Vec<Expr>) -> Option<Expr> {
        let mut acc = conjuncts.pop()?;
        while let Some(e) = conjuncts.pop() {
            acc = Expr::And(Box::new(e), Box::new(acc));
        }
        Some(acc)
    }
}

/// A compiled ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedOrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub descending: bool,
    /// The key is a count's lane ([`CountSpec::lane`]): it holds a
    /// number, not a term, and compares numerically.
    pub count: bool,
}

/// One COUNT of an [`Algebra::Group`].
#[derive(Debug, Clone, PartialEq)]
pub struct CountSpec {
    /// Counted variable; `None` for `COUNT(*)`.
    pub target: Option<usize>,
    /// `COUNT(DISTINCT …)`.
    pub distinct: bool,
    /// The variable `AS ?alias` names: the lane a group's count lands in.
    pub lane: usize,
}

/// `(left variable, right variable)` pairs of top-level `?x = ?y`
/// conjuncts a join may key its hash table on (see
/// [`crate::optimizer`]): a hint that narrows the candidates, never the
/// semantics — the conjuncts themselves stay where they were and are
/// still evaluated per candidate row.
pub type EqPairs = Vec<(usize, usize)>;

/// The SPARQL algebra, over resolved patterns and expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Algebra {
    /// Basic graph pattern. `inline_filters` holds `(position, expr)`
    /// pairs placed by the optimizer's filter pushing: `expr` runs as soon
    /// as pattern `position` has been matched.
    Bgp {
        /// Triple patterns in evaluation order.
        patterns: Vec<ResolvedPattern>,
        /// Pushed-down filters: evaluated after `patterns[pos]` binds.
        inline_filters: Vec<(usize, Expr)>,
    },
    /// Inner join, with the [`EqPairs`] the optimizer recognised in the
    /// filter above it (empty out of translation) and, for a BGP the
    /// optimizer split at a cut variable, the rows it estimates the join
    /// to emit.
    Join(Box<Algebra>, Box<Algebra>, EqPairs, Option<u64>),
    /// Left outer join with optional condition (the OPTIONAL translation)
    /// and the [`EqPairs`] the optimizer recognised in that condition.
    LeftJoin(Box<Algebra>, Box<Algebra>, Option<Expr>, EqPairs),
    /// Union.
    Union(Box<Algebra>, Box<Algebra>),
    /// Filter.
    Filter(Expr, Box<Algebra>),
    /// Duplicate elimination (order-preserving).
    Distinct(Box<Algebra>),
    /// Projection to the given variable indices.
    Project(Vec<usize>, Box<Algebra>),
    /// Sorting.
    OrderBy(Vec<ResolvedOrderKey>, Box<Algebra>),
    /// OFFSET/LIMIT.
    Slice {
        /// Rows to skip.
        offset: u64,
        /// Maximum rows to return (`None` = unlimited).
        limit: Option<u64>,
        /// Input.
        input: Box<Algebra>,
    },
    /// GROUP BY + COUNT (aggregation extension): one row per group of the
    /// input, binding the group's keys and each count's lane.
    Group {
        /// Group-key variables (none: one implicit group).
        keys: Vec<usize>,
        /// The counts, in projection order.
        counts: Vec<CountSpec>,
        /// The rows to group.
        input: Box<Algebra>,
    },
}

impl Algebra {
    /// The empty BGP (the algebra's unit element).
    pub fn unit() -> Algebra {
        Algebra::Bgp {
            patterns: Vec::new(),
            inline_filters: Vec::new(),
        }
    }

    /// True for the unit element.
    pub fn is_unit(&self) -> bool {
        matches!(self, Algebra::Bgp { patterns, .. } if patterns.is_empty())
    }

    /// Variables *certainly* bound in every solution (drives hash-join
    /// keys): BGP binds all its variables; a union binds the intersection
    /// of its branches; a left join guarantees only its left side.
    pub fn certain_vars(&self) -> Vec<usize> {
        match self {
            Algebra::Bgp { patterns, .. } => {
                let mut vars = Vec::new();
                for p in patterns {
                    for v in p.variables() {
                        if !vars.contains(&v) {
                            vars.push(v);
                        }
                    }
                }
                vars
            }
            Algebra::Join(a, b, ..) => {
                let mut vars = a.certain_vars();
                for v in b.certain_vars() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                vars
            }
            Algebra::LeftJoin(a, _, _, _) => a.certain_vars(),
            Algebra::Union(a, b) => {
                let bv = b.certain_vars();
                a.certain_vars()
                    .into_iter()
                    .filter(|v| bv.contains(v))
                    .collect()
            }
            Algebra::Filter(_, inner)
            | Algebra::Distinct(inner)
            | Algebra::OrderBy(_, inner)
            | Algebra::Slice { input: inner, .. } => inner.certain_vars(),
            Algebra::Project(vars, inner) => {
                let inner_vars = inner.certain_vars();
                vars.iter()
                    .copied()
                    .filter(|v| inner_vars.contains(v))
                    .collect()
            }
            // Every group has its counts.
            Algebra::Group {
                keys,
                counts,
                input,
            } => {
                let inner_vars = input.certain_vars();
                let keys = keys.iter().copied().filter(|v| inner_vars.contains(v));
                keys.chain(counts.iter().map(|c| c.lane)).collect()
            }
        }
    }

    /// Variables *possibly* bound (scoping / SELECT *).
    pub fn all_vars(&self) -> Vec<usize> {
        fn add(out: &mut Vec<usize>, vars: impl IntoIterator<Item = usize>) {
            for v in vars {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        match self {
            Algebra::Bgp { patterns, .. } => {
                let mut out = Vec::new();
                for p in patterns {
                    add(&mut out, p.variables());
                }
                out
            }
            Algebra::Join(a, b, ..) | Algebra::Union(a, b) | Algebra::LeftJoin(a, b, ..) => {
                let mut out = a.all_vars();
                add(&mut out, b.all_vars());
                out
            }
            Algebra::Filter(_, inner)
            | Algebra::Distinct(inner)
            | Algebra::OrderBy(_, inner)
            | Algebra::Slice { input: inner, .. } => inner.all_vars(),
            Algebra::Project(vars, _) => vars.clone(),
            Algebra::Group { keys, counts, .. } => {
                let lanes = counts.iter().map(|c| c.lane);
                keys.iter().copied().chain(lanes).collect()
            }
        }
    }
}

/// A fully translated query.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The algebra tree (projection/modifiers included for SELECT).
    pub algebra: Algebra,
    /// The variable table.
    pub vars: VarTable,
    /// The variables of the output columns (empty for ASK). For aggregate
    /// queries these are the group keys followed by the COUNT aliases.
    pub projection: Vec<usize>,
    /// Output column names, one per projected variable.
    pub columns: Vec<String>,
    /// The output columns that hold counts, not terms.
    pub counts: Vec<usize>,
    /// True for ASK.
    pub ask: bool,
}

/// What can go wrong turning an AST into algebra (aggregation extension;
/// plain SPARQL 1.0 queries always translate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// A GROUP BY or COUNT variable does not occur in the WHERE pattern.
    UnboundVariable(String),
    /// An `AS ?alias` names a variable already in scope: one of the
    /// pattern (GROUP BY variables included) or another alias (SPARQL 1.1
    /// §18.2.4.1).
    AliasInUse(String),
    /// A construct the algebra cannot express.
    Unsupported(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::UnboundVariable(v) => {
                write!(f, "variable ?{v} is not bound in the query pattern")
            }
            TranslateError::AliasInUse(v) => {
                write!(f, "AS ?{v} names a variable already in scope")
            }
            TranslateError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translates a parsed query. Infallible convenience for non-aggregate
/// queries (the benchmark set); aggregate queries go through
/// [`translate_query`], which can reject unbound group/count variables
/// and aliases that collide.
pub fn translate(query: &Query) -> Translated {
    translate_query(query).expect("non-aggregate queries always translate")
}

/// Translates a parsed query, surfacing aggregation errors. The solution
/// modifiers nest in spec order, `Slice(Distinct(Project(OrderBy(…))))`,
/// over the pattern or, for an aggregate query, over its
/// [`Algebra::Group`].
pub fn translate_query(query: &Query) -> Result<Translated, TranslateError> {
    let mut vars = VarTable::default();
    let pattern = translate_group(&query.pattern, &mut vars);
    let QueryForm::Select {
        distinct,
        variables,
    } = &query.form
    else {
        return Ok(Translated {
            algebra: pattern,
            vars,
            projection: Vec::new(),
            columns: Vec::new(),
            counts: Vec::new(),
            ask: true,
        });
    };

    let (mut algebra, projection, keys) = if query.is_aggregate() {
        group(query, pattern, &mut vars)?
    } else {
        let projection: Vec<usize> = if variables.is_empty() {
            pattern.all_vars() // SELECT *
        } else {
            variables.iter().map(|v| vars.intern(v)).collect()
        };
        let keys = query
            .order_by
            .iter()
            .map(|k| ResolvedOrderKey {
                expr: compile_expr(&k.expression, &mut vars),
                descending: k.descending,
                count: false,
            })
            .collect();
        (pattern, projection, keys)
    };
    if !keys.is_empty() {
        algebra = Algebra::OrderBy(keys, Box::new(algebra));
    }
    algebra = Algebra::Project(projection.clone(), Box::new(algebra));
    if *distinct {
        algebra = Algebra::Distinct(Box::new(algebra));
    }
    if query.limit.is_some() || query.offset.is_some() {
        algebra = Algebra::Slice {
            offset: query.offset.unwrap_or(0),
            limit: query.limit,
            input: Box::new(algebra),
        };
    }
    let columns = projection
        .iter()
        .map(|&i| vars.name(i).to_owned())
        .collect();
    // The aliases are the last columns.
    let counts = (projection.len() - query.aggregates.len()..projection.len()).collect();
    Ok(Translated {
        algebra,
        vars,
        projection,
        columns,
        counts,
        ask: false,
    })
}

/// The aggregation extension: `pattern` grouped on the GROUP BY
/// variables, each `AS ?alias` interned as the variable its count lands
/// in. Returns the group, the output columns' variables (the group keys,
/// then the aliases) and the ORDER BY keys.
/// Every ORDER BY key must name a column; every column follows,
/// ascending, so that ties come out in one order. Group and count
/// variables must occur in the pattern, and an alias must not: either is
/// a preparation error, not a panic.
fn group(
    query: &Query,
    pattern: Algebra,
    vars: &mut VarTable,
) -> Result<(Algebra, Vec<usize>, Vec<ResolvedOrderKey>), TranslateError> {
    let bound = |v: &String| {
        vars.lookup(v)
            .ok_or_else(|| TranslateError::UnboundVariable(v.clone()))
    };
    let keys: Vec<usize> = query.group_by.iter().map(bound).collect::<Result<_, _>>()?;
    let targets: Vec<Option<usize>> = query
        .aggregates
        .iter()
        .map(|a| a.target.as_ref().map(bound).transpose())
        .collect::<Result<_, _>>()?;
    let mut counts = Vec::new();
    for (a, target) in query.aggregates.iter().zip(targets) {
        if vars.lookup(&a.alias).is_some() {
            return Err(TranslateError::AliasInUse(a.alias.clone()));
        }
        counts.push(CountSpec {
            target,
            distinct: a.distinct,
            lane: vars.intern(&a.alias),
        });
    }

    let mut projection = keys.clone();
    projection.extend(counts.iter().map(|c| c.lane));
    let column = |v: usize, descending| ResolvedOrderKey {
        expr: Expr::Var(v),
        descending,
        count: !keys.contains(&v),
    };
    let mut order: Vec<ResolvedOrderKey> = query
        .order_by
        .iter()
        .map(|k| match &k.expression {
            Expression::Var(v) => vars
                .lookup(v)
                .filter(|i| projection.contains(i))
                .map(|i| column(i, k.descending))
                .ok_or_else(|| {
                    TranslateError::Unsupported(format!(
                        "ORDER BY ?{v} must name a GROUP BY variable or aggregate alias"
                    ))
                }),
            other => Err(TranslateError::Unsupported(format!(
                "aggregate ORDER BY supports plain variables, got {other}"
            ))),
        })
        .collect::<Result<_, _>>()?;
    order.extend(projection.iter().map(|&v| column(v, false)));
    let group = Algebra::Group {
        keys,
        counts,
        input: Box::new(pattern),
    };
    Ok((group, projection, order))
}

/// Spec §12.2.1: group translation. Filters scope over the whole group and
/// are applied at the end — except that a filter inside an OPTIONAL group
/// becomes the LeftJoin condition (handled by the caller seeing the
/// `Filter` wrapper).
fn translate_group(group: &GroupPattern, vars: &mut VarTable) -> Algebra {
    let mut g = Algebra::unit();
    let mut filters: Vec<Expr> = Vec::new();

    for element in &group.elements {
        match element {
            GroupElement::Triples(patterns) => {
                let bgp = Algebra::Bgp {
                    patterns: patterns.iter().map(|p| resolve_pattern(p, vars)).collect(),
                    inline_filters: Vec::new(),
                };
                g = join(g, bgp);
            }
            GroupElement::Optional(inner) => {
                let translated = translate_group(inner, vars);
                // OPTIONAL { P FILTER C } → LeftJoin(G, P, C).
                let (algebra, condition) = match translated {
                    Algebra::Filter(c, a) => (*a, Some(c)),
                    other => (other, None),
                };
                g = Algebra::LeftJoin(Box::new(g), Box::new(algebra), condition, EqPairs::new());
            }
            GroupElement::Union(branches) => {
                let mut it = branches.iter();
                let first = translate_group(it.next().expect("nonempty union"), vars);
                let union = it.fold(first, |acc, b| {
                    Algebra::Union(Box::new(acc), Box::new(translate_group(b, vars)))
                });
                g = join(g, union);
            }
            GroupElement::Group(inner) => {
                let translated = translate_group(inner, vars);
                g = join(g, translated);
            }
            GroupElement::Filter(e) => filters.push(compile_expr(e, vars)),
        }
    }

    match Expr::fold_and(filters) {
        Some(f) => Algebra::Filter(f, Box::new(g)),
        None => g,
    }
}

/// `Join(unit, X) = X`; otherwise a Join node.
fn join(a: Algebra, b: Algebra) -> Algebra {
    if a.is_unit() {
        b
    } else if b.is_unit() {
        a
    } else {
        Algebra::Join(Box::new(a), Box::new(b), EqPairs::new(), None)
    }
}

fn resolve_slot(t: &TermOrVar, vars: &mut VarTable) -> Slot {
    match t {
        TermOrVar::Term(term) => Slot::Const(term.clone()),
        TermOrVar::Var(name) => Slot::Var(vars.intern(name)),
    }
}

fn resolve_pattern(p: &TriplePattern, vars: &mut VarTable) -> ResolvedPattern {
    ResolvedPattern {
        s: resolve_slot(&p.subject, vars),
        p: resolve_slot(&p.predicate, vars),
        o: resolve_slot(&p.object, vars),
        est_rows: None,
    }
}

/// Compiles an AST expression to variable indices.
pub fn compile_expr(e: &Expression, vars: &mut VarTable) -> Expr {
    match e {
        Expression::Var(v) => Expr::Var(vars.intern(v)),
        Expression::Constant(t) => Expr::Const(t.clone()),
        Expression::Bound(v) => Expr::Bound(vars.intern(v)),
        Expression::Not(a) => Expr::Not(Box::new(compile_expr(a, vars))),
        Expression::And(a, b) => Expr::And(
            Box::new(compile_expr(a, vars)),
            Box::new(compile_expr(b, vars)),
        ),
        Expression::Or(a, b) => Expr::Or(
            Box::new(compile_expr(a, vars)),
            Box::new(compile_expr(b, vars)),
        ),
        Expression::Compare(op, a, b) => Expr::Compare(
            *op,
            Box::new(compile_expr(a, vars)),
            Box::new(compile_expr(b, vars)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn translated(q: &str) -> Translated {
        translate(&parse(q).unwrap())
    }

    #[test]
    fn simple_bgp_translation() {
        let t = translated("SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z }");
        // Project(Bgp).
        let Algebra::Project(proj, inner) = &t.algebra else {
            panic!()
        };
        assert_eq!(proj.len(), 1);
        let Algebra::Bgp { patterns, .. } = inner.as_ref() else {
            panic!()
        };
        assert_eq!(patterns.len(), 2);
    }

    #[test]
    fn optional_filter_becomes_leftjoin_condition() {
        let t = translated(
            "SELECT ?a WHERE { ?a <http://p> ?b OPTIONAL { ?b <http://q> ?c FILTER (?c = ?a) } }",
        );
        let Algebra::Project(_, inner) = &t.algebra else {
            panic!()
        };
        let Algebra::LeftJoin(_, _, cond, _) = inner.as_ref() else {
            panic!("expected LeftJoin, got {inner:?}")
        };
        assert!(
            cond.is_some(),
            "inner FILTER must become the join condition"
        );
    }

    #[test]
    fn plain_optional_has_no_condition() {
        let t = translated("SELECT ?a WHERE { ?a <http://p> ?b OPTIONAL { ?b <http://q> ?c } }");
        let Algebra::Project(_, inner) = &t.algebra else {
            panic!()
        };
        let Algebra::LeftJoin(_, _, cond, _) = inner.as_ref() else {
            panic!()
        };
        assert!(cond.is_none());
    }

    #[test]
    fn group_filters_scope_over_whole_group() {
        // Filter placed syntactically in the middle still applies last.
        let t =
            translated("SELECT ?a WHERE { ?a <http://p> ?b FILTER (?b = ?c) ?a <http://q> ?c }");
        let Algebra::Project(_, inner) = &t.algebra else {
            panic!()
        };
        let Algebra::Filter(_, filtered) = inner.as_ref() else {
            panic!("expected group-level filter, got {inner:?}")
        };
        // Both triple blocks joined beneath the filter.
        match filtered.as_ref() {
            Algebra::Join(..) | Algebra::Bgp { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn union_translation() {
        let t = translated(
            "SELECT ?x WHERE { { ?x <http://a> ?y } UNION { ?x <http://b> ?y } UNION { ?x <http://c> ?y } }",
        );
        let Algebra::Project(_, inner) = &t.algebra else {
            panic!()
        };
        let Algebra::Union(left, _) = inner.as_ref() else {
            panic!("{inner:?}")
        };
        assert!(
            matches!(left.as_ref(), Algebra::Union(..)),
            "left-deep union chain"
        );
    }

    #[test]
    fn modifiers_nest_in_spec_order() {
        let t = translated(
            "SELECT DISTINCT ?x WHERE { ?x <http://p> ?y } ORDER BY ?x LIMIT 10 OFFSET 5",
        );
        // Slice(Distinct(Project(OrderBy(Bgp)))).
        let Algebra::Slice {
            offset,
            limit,
            input,
        } = &t.algebra
        else {
            panic!()
        };
        assert_eq!((*offset, *limit), (5, Some(10)));
        let Algebra::Distinct(inner) = input.as_ref() else {
            panic!()
        };
        let Algebra::Project(_, inner) = inner.as_ref() else {
            panic!()
        };
        assert!(matches!(inner.as_ref(), Algebra::OrderBy(..)));
    }

    #[test]
    fn aggregate_modifiers_are_the_select_ones() {
        let t = translated(
            "SELECT ?c (COUNT(*) AS ?n) WHERE { ?d <http://p> ?c } GROUP BY ?c ORDER BY DESC(?n) LIMIT 3",
        );
        let (c, n) = (t.vars.lookup("c").unwrap(), t.vars.lookup("n").unwrap());
        assert_eq!((&t.projection[..], &t.counts[..]), (&[c, n][..], &[1][..]));
        // Slice(Project(OrderBy(Group(Bgp)))), ties settled by every
        // column ascending; a key over the alias is marked a count.
        let Algebra::Slice { input, .. } = &t.algebra else {
            panic!()
        };
        let Algebra::Project(_, inner) = input.as_ref() else {
            panic!()
        };
        let Algebra::OrderBy(keys, inner) = inner.as_ref() else {
            panic!()
        };
        let keys: Vec<_> = keys
            .iter()
            .map(|k| (k.expr.clone(), k.descending, k.count))
            .collect();
        let by = |v, descending| (Expr::Var(v), descending, v == n);
        assert_eq!(keys, [by(n, true), by(c, false), by(n, false)]);
        let Algebra::Group { keys, counts, .. } = inner.as_ref() else {
            panic!()
        };
        assert_eq!((&keys[..], counts[0].lane), (&[c][..], n));
    }

    #[test]
    fn certain_vars_of_leftjoin_is_left_side() {
        let t = translated("SELECT ?a WHERE { ?a <http://p> ?b OPTIONAL { ?b <http://q> ?c } }");
        let Algebra::Project(_, inner) = &t.algebra else {
            panic!()
        };
        let certain = inner.certain_vars();
        let a = t.vars.lookup("a").unwrap();
        let b = t.vars.lookup("b").unwrap();
        let c = t.vars.lookup("c").unwrap();
        assert!(certain.contains(&a));
        assert!(certain.contains(&b));
        assert!(!certain.contains(&c), "optional var is not certain");
        assert!(inner.all_vars().contains(&c));
    }

    #[test]
    fn union_certain_vars_is_intersection() {
        let t = translated("SELECT ?x WHERE { { ?x <http://a> ?y } UNION { ?x <http://b> ?z } }");
        let Algebra::Project(_, inner) = &t.algebra else {
            panic!()
        };
        let certain = inner.certain_vars();
        assert_eq!(certain, vec![t.vars.lookup("x").unwrap()]);
    }

    #[test]
    fn ask_has_no_projection() {
        let t = translated("ASK { ?x <http://p> ?y }");
        assert!(t.ask);
        assert!(t.projection.is_empty());
        assert!(matches!(t.algebra, Algebra::Bgp { .. }));
    }

    #[test]
    fn conjunct_split_and_fold() {
        let mut vars = VarTable::default();
        let e = compile_expr(
            &parse(
                "SELECT ?a WHERE { ?a <http://p> ?b FILTER (?a != ?b && bound(?a) && ?b != ?a) }",
            )
            .map(|q| match &q.pattern.elements[1] {
                GroupElement::Filter(f) => f.clone(),
                _ => panic!(),
            })
            .unwrap(),
            &mut vars,
        );
        let parts = e.clone().conjuncts();
        assert_eq!(parts.len(), 3);
        let folded = Expr::fold_and(parts).unwrap();
        // Refolding preserves the conjunct set (evaluation semantics equal).
        assert_eq!(folded.variables(), e.variables());
    }
}
