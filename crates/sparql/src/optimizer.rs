//! The query optimizer: the three techniques Section V singles out.
//!
//! 1. **Triple-pattern reordering by selectivity estimation** (the paper's
//!    reference 5, akin to relational join reordering): within each BGP, a greedy
//!    ordering picks the cheapest next pattern given the variables bound
//!    so far. A pattern's own size is [`sp2b_store::TripleStore::estimate`]
//!    (exact counts on the native store, posting-list heuristics on the
//!    memory store); what it adds to the rows bound so far comes from the
//!    store's [`sp2b_store::StoreStats`] — characteristic sets for star
//!    steps, distinct counts elsewhere (every store carries them; an
//!    empty store keeps the written order). Disconnected patterns
//!    (cartesian products) are heavily penalized.
//!    A step is priced at its output plus the cheaper of two ways to get
//!    its triples, `min(rows, base)`: a lookup per input row, or one
//!    fetch of the whole pattern probed as a hash table
//!    (`candidate_cost`). The executor honours both — but picks between
//!    them itself, while running, because `rows` here is an estimate that
//!    compounds every fan-out error of the steps before it (see
//!    [`crate::eval`]); plans bound under this switch carry the
//!    break-even, [`crate::plan::FetchRule`], and the rows each step is
//!    estimated to leave, which `--explain` prints beside the actual
//!    ones.
//!
//!    A chain is left-deep: it re-derives whatever follows a many-to-many
//!    step once per row. So the chain is also priced
//!    against **splitting it at a cut** (`Costing::shape`). Close the
//!    chain after a prefix P whose variables meet those of the remaining
//!    suffix S — S connected on its own — in the *cut*, the variables
//!    the two share; plan S standalone; hash-join the two on the cut.
//!    Continuing costs the chain's remaining steps. The split costs S's
//!    standalone chain, plus |P| + |S| for building and probing, plus
//!    the join's output |P|·|S| / distinct(cut), where distinct(cut) is
//!    the number of values the cut can take (per variable, the larger of
//!    the two sides' distinct counts at the positions it fills). The
//!    cheapest prefix wins, if it beats the chain; the result is
//!    `Join(Bgp(P), Bgp(S))` with the smaller side as the build side,
//!    each half keeping the conjuncts it binds inline and the others in
//!    a `Filter` above: the connected counterpart of `join_components`.
//!    The paper's Q4 is the case — two `article–creator–name–type` stars
//!    meeting at `?journal`, which has 93 values at 50k triples: each
//!    star runs once and the join pairs them (34k pattern rows instead of
//!    804k; 17k once the probe side reads the build rows, below). A star never splits: its suffix standalone starts from a
//!    full scan, which costs more than extending the rows the prefix
//!    already holds.
//!
//!    Under a DISTINCT, a split also **dedupes its build side** when
//!    only projections, filters, joins, OPTIONALs and UNIONs stand
//!    between the two: the build side S becomes `Distinct(Project(keep,
//!    S))`, `keep` being S's variables that something above reads —
//!    projected, shared with the probe side or another join, named by a
//!    condition above. It is exact and keeps row order: a build row that
//!    repeats an earlier one on `keep` lands in the same bucket after it
//!    and passes the same conditions with every probe row, so each merge
//!    it would make follows one that looks the same from above, and the
//!    DISTINCT drops it. A LIMIT/OFFSET, an ORDER BY or a COUNT between
//!    them observes how many rows there are or in which order equal ones
//!    come, and stops it (`assemble`). Q4's build side keeps `(?name2,
//!    ?journal)`, 3 681 of its 4 431 rows.
//!
//!    The probe side is deduplicated only where it *is* the build side:
//!    Q4's two stars are one under a renaming, so once the plan is bound
//!    the probe side reads the build side's rows instead of deriving its
//!    star again ([`crate::plan::reuse_build_rows`]). Under the same
//!    DISTINCT condition, and when every probe variable read above maps
//!    to a kept build variable, it reads the deduplicated rows: a probe
//!    row that repeats an earlier one on everything read of it only adds
//!    rows that repeat earlier ones, so the DISTINCT's output sequence is
//!    unchanged. That dedupe is global — done once, before any morsel
//!    runs — so the rows each operator emits do not depend on the degree,
//!    even with an exchange splitting the probe side. Q4's star runs
//!    once, and its join emits 76 258 rows instead of 88 602 (106 738
//!    with neither side deduplicated).
//! 2. **Filter pushing**: conjuncts of a group filter move into the BGP
//!    and run as soon as their variables are bound, shrinking
//!    intermediate results; filters over a join/left-join distribute into
//!    the branch that certainly binds their variables. Pushing also
//!    recognises the join a top-level `?x = ?y` conjunct encodes (the
//!    paper's Q5a-vs-Q5b and Q6 points): in an OPTIONAL's condition it
//!    becomes a hash key of the left join, and between otherwise
//!    disconnected parts of a BGP it turns the cartesian product into a
//!    hash join of the parts (`join_components`). Parts no equality links
//!    are joined too, on an empty key: each runs once with its own
//!    conjuncts inside instead of once per row of the parts before it. SPARQL `=` compares
//!    values, not terms, so such a key buckets by equality class
//!    ([`crate::expr`]: `"01"^^xsd:integer` with `"1"^^xsd:integer`, a
//!    plain literal with its `xsd:string` twin), and the conjunct itself
//!    is still evaluated on every candidate row. A conjunct qualifies
//!    when each of its two variables is *mentioned* by exactly one side
//!    of the join (`orient`). That includes a variable its side only
//!    possibly binds — inside that side's own OPTIONAL, say: where it is
//!    unbound the conjunct is an error, the row matches nothing, and the
//!    hash table rightly offers it no bucket (pinned by
//!    `tests/equality_join.rs`). A variable both sides mention could be
//!    bound by either, so its equality stays a plain residual, as does
//!    any equality under `||` or `!`.
//!
//!    What stays above a join moves *into* it when the plan is bound
//!    ([`crate::plan::bind`]), so that a candidate is checked on one
//!    scratch row before any row is built for it:
//!    - **Condition into probe.** A filter directly over an inner join
//!      — the conjuncts that span both sides, like Q4's `?name1 <
//!      ?name2` — becomes the join's condition: the same rows pass, and
//!      only they are materialized.
//!    - **Negation as an anti-join.** SPARQL 1.0's closed-world
//!      negation, `OPTIONAL { B } FILTER (!bound(?v))` (Q6, Q7), becomes
//!      an anti-join when `!bound(?v)` is a top-level conjunct, `B`
//!      certainly binds `?v` and the preserved side never mentions it.
//!      It is exact: every merged row binds `?v` and is dropped, and
//!      every preserved row leaves it unbound and is kept — so a probe
//!      row survives iff it has no match, and the probe stops at the
//!      first. A negation under `||` or `!`, or of a variable `B` only
//!      possibly binds, or one the other side may bind, stays a filter
//!      over the left join.
//!    - To give Q7's inner OPTIONAL its negation, a conjunct of an
//!      OPTIONAL's condition that names no variable of the preserved
//!      side moves into a `Filter` over the optional side
//!      (`rewrite_left_join`): a preserved row binds none of its
//!      variables, so it holds of a merged row exactly when it holds of
//!      the optional row.
//! 3. **Filter substitution** (constant propagation): an equality conjunct
//!    `?v = <const>` whose variable is otherwise unobserved is folded into
//!    the patterns, turning Q3-style "attribute test" filters into
//!    indexable constants. A variable observed above the group — projected,
//!    ordered on, named by a conjunct that stays above a join, or shared
//!    with the other side of a join or left join — is never substituted.
//!
//! One algebra rewrite rides on the reordering switch: **a join
//! distributes over UNION** (`rewrite_join`). `Join(A, Union(B1,
//! B2))` with no key pairs, A a *flat group* — a BGP, possibly under
//! filters, whose filter variables its own patterns all bind — becomes
//! `Union(Join(A, B1), Join(A, B2))` (recursively for longer unions, and
//! the same with the union on the left), and each `Join(A, Bi)` whose
//! `Bi` is flat too becomes one BGP carrying both groups' conjuncts,
//! which the greedy ordering above then plans like any other. Bag
//! semantics make the distribution always valid; flatness makes the
//! merge valid, since no conjunct then sees a variable its own group did
//! not bind. A branch that is not flat (an OPTIONAL, a nested group, a
//! filter on an outer variable) stays a join with A. The paper's Q8 is
//! the case: its one-row `?erdoes` group used to probe a hash table of
//! every co-author pair the branches enumerate (325k pattern rows at 50k
//! triples); now each branch opens at `?erdoes foaf:name "Paul Erdoes"`
//! and chains by lookups (8.7k). A is evaluated once per branch; there is
//! no estimate-based guard, because the merged BGP starts from whichever
//! side is selective.
//!
//! Every rewrite is result-preserving; the seeded tests in
//! `tests/optimizer_equivalence.rs` check optimized vs. naive evaluation
//! on random graphs.

use sp2b_rdf::Term;
use sp2b_store::{Id, StoreStats, TripleStore};

use crate::algebra::{Algebra, EqPairs, Expr, ResolvedPattern, Slot};
use crate::ast::CmpOp;

/// Which optimizations to apply. `Default` is all-off (the naive engine
/// configurations); [`OptimizerConfig::full`] enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizerConfig {
    /// Greedy selectivity-based reordering of BGP patterns.
    pub reorder_patterns: bool,
    /// Push filter conjuncts down to their earliest application point —
    /// for a `?x = ?y` conjunct across a join, into the join's hash key.
    pub push_filters: bool,
    /// Fold `?v = const` equalities into pattern constants.
    pub substitute_filters: bool,
}

impl OptimizerConfig {
    /// Everything on (the `native-opt` engine configuration).
    pub fn full() -> Self {
        OptimizerConfig {
            reorder_patterns: true,
            push_filters: true,
            substitute_filters: true,
        }
    }

    /// Reordering and pushing, no substitution (the `mem-opt`
    /// configuration: heuristic engines reorder but do not rewrite).
    pub fn heuristic() -> Self {
        OptimizerConfig {
            reorder_patterns: true,
            push_filters: true,
            substitute_filters: false,
        }
    }
}

/// Optimizes an algebra tree for a store. `needed` carries the variables
/// observable above the root (projection + order keys).
pub fn optimize(
    algebra: Algebra,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    needed: &[usize],
) -> Algebra {
    let mut needed: Vec<usize> = needed.to_vec();
    rewrite(algebra, store, cfg, &mut needed, false)
}

/// Rewrites `algebra` given what is observed of it from above: the
/// variables in `needed`, and with `distinct` set, only the first of
/// rows that agree on them — `algebra` sits under a DISTINCT that only
/// Project, Filter, Join, OPTIONAL and UNION separate from it (see
/// [`assemble`]).
fn rewrite(
    algebra: Algebra,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    needed: &mut Vec<usize>,
    distinct: bool,
) -> Algebra {
    match algebra {
        Algebra::Filter(expr, inner) => rewrite_filter(expr, *inner, store, cfg, needed, distinct),
        Algebra::Bgp {
            patterns,
            inline_filters,
        } => finish_bgp(
            patterns,
            inline_filters.into_iter().map(|(_, e)| e).collect(),
            store,
            cfg,
            needed,
            distinct,
        ),
        Algebra::Join(a, b, eq, _) => rewrite_join(*a, *b, eq, store, cfg, needed, distinct),
        Algebra::LeftJoin(a, b, cond, _) => {
            rewrite_left_join(*a, *b, cond, store, cfg, needed, distinct)
        }
        Algebra::Union(a, b) => {
            let a = rewrite(*a, store, cfg, needed, distinct);
            let b = rewrite(*b, store, cfg, needed, distinct);
            Algebra::Union(Box::new(a), Box::new(b))
        }
        Algebra::Distinct(inner) => {
            Algebra::Distinct(Box::new(rewrite(*inner, store, cfg, needed, true)))
        }
        Algebra::Project(vars, inner) => {
            extend(needed, vars.iter().copied());
            Algebra::Project(
                vars,
                Box::new(rewrite(*inner, store, cfg, needed, distinct)),
            )
        }
        // A sort, a slice and a count each observe how many rows there
        // are, or in which order equal ones come.
        Algebra::OrderBy(keys, inner) => {
            for k in &keys {
                extend(needed, k.expr.variables());
            }
            Algebra::OrderBy(keys, Box::new(rewrite(*inner, store, cfg, needed, false)))
        }
        Algebra::Slice {
            offset,
            limit,
            input,
        } => Algebra::Slice {
            offset,
            limit,
            input: Box::new(rewrite(*input, store, cfg, needed, false)),
        },
        Algebra::Group {
            keys,
            counts,
            input,
        } => {
            // The group keys and count targets are the only variables
            // observable above the aggregation.
            extend(needed, keys.iter().copied());
            extend(needed, counts.iter().filter_map(|c| c.target));
            let input = Box::new(rewrite(*input, store, cfg, needed, false));
            Algebra::Group {
                keys,
                counts,
                input,
            }
        }
    }
}

fn extend(needed: &mut Vec<usize>, vars: impl IntoIterator<Item = usize>) {
    for v in vars {
        if !needed.contains(&v) {
            needed.push(v);
        }
    }
}

/// Handles `Filter(e, inner)`: distributes/pushes conjuncts where the
/// configuration allows, recursing into `inner`.
fn rewrite_filter(
    expr: Expr,
    inner: Algebra,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    needed: &mut Vec<usize>,
    distinct: bool,
) -> Algebra {
    if !cfg.push_filters {
        // Still recurse below the filter.
        for v in expr.variables() {
            extend(needed, [v]);
        }
        let inner = rewrite(inner, store, cfg, needed, distinct);
        return Algebra::Filter(expr, Box::new(inner));
    }

    match inner {
        Algebra::Bgp {
            patterns,
            inline_filters,
        } => {
            let mut filters: Vec<Expr> = inline_filters.into_iter().map(|(_, e)| e).collect();
            filters.extend(expr.conjuncts());
            finish_bgp(patterns, filters, store, cfg, needed, distinct)
        }
        Algebra::Join(a, b, eq, _) => {
            let (into_a, into_b, stay) = distribute(expr, &a, &b, /*left_only=*/ false);
            // What stays above still observes its variables there.
            extend(needed, stay.iter().flat_map(Expr::variables));
            let mut left = *a;
            let mut right = *b;
            if let Some(e) = into_a {
                left = Algebra::Filter(e, Box::new(left));
            }
            if let Some(e) = into_b {
                right = Algebra::Filter(e, Box::new(right));
            }
            let joined = rewrite_join(left, right, eq, store, cfg, needed, distinct);
            match stay {
                Some(e) => Algebra::Filter(e, Box::new(joined)),
                None => joined,
            }
        }
        Algebra::LeftJoin(a, b, cond, _) => {
            // Only the preserved side may absorb filters.
            let (into_a, _, stay) = distribute(expr, &a, &b, /*left_only=*/ true);
            // What stays above still observes its variables there.
            extend(needed, stay.iter().flat_map(Expr::variables));
            let mut left = *a;
            if let Some(e) = into_a {
                left = Algebra::Filter(e, Box::new(left));
            }
            let lj = rewrite_left_join(left, *b, cond, store, cfg, needed, distinct);
            match stay {
                Some(e) => Algebra::Filter(e, Box::new(lj)),
                None => lj,
            }
        }
        other => {
            for v in expr.variables() {
                extend(needed, [v]);
            }
            Algebra::Filter(expr, Box::new(rewrite(other, store, cfg, needed, distinct)))
        }
    }
}

/// Rewrites an inner join. Under `reorder_patterns` a join of a flat
/// group ([`is_flat`]) with a UNION distributes over the union's
/// branches first — `Join(A, Union(B1, B2))` becomes `Union(Join(A, B1),
/// Join(A, B2))`, the mirror image likewise — and is rewritten as that
/// union (a nested union distributes again on the way down); the module
/// doc says why this is valid and what it buys Q8. Every other join
/// keeps its shape.
fn rewrite_join(
    a: Algebra,
    b: Algebra,
    eq: EqPairs,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    needed: &mut Vec<usize>,
    distinct: bool,
) -> Algebra {
    let distribute = cfg.reorder_patterns && eq.is_empty();
    let (a, b) = match (a, b) {
        (group, Algebra::Union(x, y)) if distribute && is_flat(&group) => {
            let union = Algebra::Union(join_branch(group.clone(), *x), join_branch(group, *y));
            return rewrite(union, store, cfg, needed, distinct);
        }
        (Algebra::Union(x, y), group) if distribute && is_flat(&group) => {
            let union = Algebra::Union(join_branch(*x, group.clone()), join_branch(*y, group));
            return rewrite(union, store, cfg, needed, distinct);
        }
        sides => sides,
    };
    keep_shared(needed, &a, &b);
    let a = rewrite(a, store, cfg, needed, distinct);
    let b = rewrite(b, store, cfg, needed, distinct);
    Algebra::Join(Box::new(a), Box::new(b), eq, None)
}

/// Marks the variables both sides of a join mention as observable: the
/// join compares them, so substituting one away inside a side would
/// leave the other side unconstrained.
fn keep_shared(needed: &mut Vec<usize>, a: &Algebra, b: &Algebra) {
    let vb = b.all_vars();
    extend(needed, a.all_vars().into_iter().filter(|v| vb.contains(v)));
}

/// One branch of a distributed join: one BGP when both sides are flat
/// ([`merge_flat`]), otherwise still a join.
fn join_branch(left: Algebra, right: Algebra) -> Box<Algebra> {
    Box::new(if is_flat(&left) && is_flat(&right) {
        merge_flat(left, right)
    } else {
        Algebra::Join(Box::new(left), Box::new(right), EqPairs::new(), None)
    })
}

/// A *flat group*: a BGP, possibly under filters, whose every filter
/// variable its own patterns bind. Such a group's conjuncts see the same
/// values inside a larger BGP as in their own — never a variable the
/// group did not bind — so two flat groups join as one BGP.
fn is_flat(a: &Algebra) -> bool {
    let mut filters: Vec<&Expr> = Vec::new();
    let mut inner = a;
    while let Algebra::Filter(e, below) = inner {
        filters.push(e);
        inner = below;
    }
    let Algebra::Bgp {
        patterns,
        inline_filters,
    } = inner
    else {
        return false;
    };
    let bound: Vec<usize> = patterns.iter().flat_map(|p| p.variables()).collect();
    filters
        .into_iter()
        .chain(inline_filters.iter().map(|(_, e)| e))
        .all(|e| e.variables().iter().all(|v| bound.contains(v)))
}

/// The join of two flat groups as one BGP — `a`'s patterns, then `b`'s —
/// under the conjunction of both groups' filters.
fn merge_flat(a: Algebra, b: Algebra) -> Algebra {
    fn take(group: Algebra, patterns: &mut Vec<ResolvedPattern>, filters: &mut Vec<Expr>) {
        match group {
            Algebra::Filter(e, inner) => {
                filters.extend(e.conjuncts());
                take(*inner, patterns, filters);
            }
            Algebra::Bgp {
                patterns: own,
                inline_filters,
            } => {
                patterns.extend(own);
                filters.extend(inline_filters.into_iter().map(|(_, e)| e));
            }
            other => unreachable!("not a flat group: {other:?}"),
        }
    }
    let (mut patterns, mut filters) = (Vec::new(), Vec::new());
    take(a, &mut patterns, &mut filters);
    take(b, &mut patterns, &mut filters);
    let bgp = Algebra::Bgp {
        patterns,
        inline_filters: Vec::new(),
    };
    with_filter(filters, bgp)
}

/// Rewrites both sides of a left join and, under `push_filters`, hands
/// the join the equality conjuncts of its condition as hash-key pairs
/// (Q6: `?author = ?author2`), which stay in the condition every
/// candidate row is checked against. A conjunct of the condition that
/// names no variable of the preserved side moves into a `Filter` over
/// the optional side first: a left row binds none of its variables, so
/// it holds of a merged row exactly when it holds of the build row (Q7:
/// `!bound(?doc4)`, which then negates the inner OPTIONAL).
fn rewrite_left_join(
    a: Algebra,
    mut b: Algebra,
    mut cond: Option<Expr>,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    needed: &mut Vec<usize>,
    distinct: bool,
) -> Algebra {
    if cfg.push_filters {
        if let Some(c) = cond.take() {
            let va = a.all_vars();
            let (into_b, stay): (Vec<Expr>, Vec<Expr>) = c
                .conjuncts()
                .into_iter()
                .partition(|c| c.variables().iter().all(|v| !va.contains(v)));
            b = with_filter(into_b, b);
            cond = Expr::fold_and(stay);
        }
    }
    // The condition's variables must stay observable in both sides.
    if let Some(c) = &cond {
        extend(needed, c.variables());
    }
    keep_shared(needed, &a, &b);
    let a = rewrite(a, store, cfg, needed, distinct);
    let b = rewrite(b, store, cfg, needed, distinct);
    let eq = match &cond {
        Some(c) if cfg.push_filters => {
            let (va, vb) = (a.all_vars(), b.all_vars());
            var_equalities(c)
                .into_iter()
                .filter_map(|(x, y)| orient(x, y, &va, &vb))
                .collect()
        }
        _ => EqPairs::new(),
    };
    Algebra::LeftJoin(Box::new(a), Box::new(b), cond, eq)
}

/// The `(x, y)` of every top-level conjunct `?x = ?y` of `e`. Equalities
/// under `||` or `!` are not conjuncts — a row can pass without them
/// holding — and are left out.
fn var_equalities(e: &Expr) -> EqPairs {
    match e {
        Expr::And(a, b) => {
            let mut out = var_equalities(a);
            out.extend(var_equalities(b));
            out
        }
        Expr::Compare(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(x), Expr::Var(y)) => vec![(*x, *y)],
            _ => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// `?x = ?y` as a `(left var, right var)` key pair for a join whose sides
/// can bind `left` / `right`, when each variable belongs to exactly one
/// side. Then the merged row takes `?x` from the left row and `?y` from
/// the right row, so the conjunct holds only if both are bound there and
/// fall in one [`crate::expr`] equality class — which is what the join
/// buckets on. A variable both sides mention could be bound by either;
/// such an equality stays a plain residual.
fn orient(x: usize, y: usize, left: &[usize], right: &[usize]) -> Option<(usize, usize)> {
    let only_left = |v| left.contains(&v) && !right.contains(&v);
    let only_right = |v| right.contains(&v) && !left.contains(&v);
    if only_left(x) && only_right(y) {
        Some((x, y))
    } else if only_left(y) && only_right(x) {
        Some((y, x))
    } else {
        None
    }
}

/// Splits `expr`'s conjuncts into (into-left, into-right, stay) by
/// certain-variable coverage. With `left_only`, the right side never
/// absorbs (LeftJoin safety).
fn distribute(
    expr: Expr,
    a: &Algebra,
    b: &Algebra,
    left_only: bool,
) -> (Option<Expr>, Option<Expr>, Option<Expr>) {
    let ca = a.certain_vars();
    let cb = b.certain_vars();
    let mut into_a = Vec::new();
    let mut into_b = Vec::new();
    let mut stay = Vec::new();
    for c in expr.conjuncts() {
        let vars = c.variables();
        if vars.iter().all(|v| ca.contains(v)) {
            into_a.push(c);
        } else if !left_only && vars.iter().all(|v| cb.contains(v)) {
            into_b.push(c);
        } else {
            stay.push(c);
        }
    }
    (
        Expr::fold_and(into_a),
        Expr::fold_and(into_b),
        Expr::fold_and(stay),
    )
}

/// Applies substitution, reordering and inline-filter placement to a BGP
/// whose candidate filters are `filters` (conjuncts that may or may not
/// reference only BGP variables). Under `push_filters`, a BGP whose
/// patterns fall into several components linked only by `?x = ?y`
/// conjuncts becomes a join of those components instead (see
/// [`join_components`]). With `distinct`, a split's build side keeps
/// only what `needed` and the conditions above observe ([`assemble`]).
fn finish_bgp(
    mut patterns: Vec<ResolvedPattern>,
    filters: Vec<Expr>,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    needed: &[usize],
    distinct: bool,
) -> Algebra {
    // Which variables does the BGP bind?
    let bgp_vars: Vec<usize> = patterns.iter().flat_map(|p| p.variables()).collect();

    let mut remaining = filters;
    if cfg.substitute_filters {
        // Substituting `?v = const` is only safe when dropping ?v's
        // binding is unobservable: ?v not needed above, and mentioned by
        // no other filter conjunct.
        let mut kept: Vec<Expr> = Vec::new();
        for (idx, c) in remaining.iter().enumerate() {
            let substitutable = as_var_eq_const(c).filter(|(v, _)| {
                bgp_vars.contains(v)
                    && !needed.contains(v)
                    && !remaining
                        .iter()
                        .enumerate()
                        .any(|(j, other)| j != idx && other.variables().contains(v))
            });
            if let Some((v, term)) = substitutable {
                for p in &mut patterns {
                    for slot in [&mut p.s, &mut p.p, &mut p.o] {
                        if slot.as_var() == Some(v) {
                            *slot = Slot::Const(term.clone());
                        }
                    }
                }
            } else {
                kept.push(c.clone());
            }
        }
        remaining = kept;
    }

    let observed = distinct.then_some(needed);
    if cfg.push_filters {
        if let Some(joined) = join_components(&patterns, &remaining, store, cfg, observed) {
            return joined;
        }
    }
    order_and_place(patterns, remaining, store, cfg, observed)
}

/// Plans one BGP — reordered, and under statistics possibly split at a
/// cut ([`Costing::shape`]) — and attaches each filter conjunct it fully
/// binds where it binds it ([`assemble`]); the others stay in a `Filter`
/// above. `observed`, when the BGP is under a DISTINCT, is what the
/// operators above it read of its rows.
fn order_and_place(
    patterns: Vec<ResolvedPattern>,
    filters: Vec<Expr>,
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    observed: Option<&[usize]>,
) -> Algebra {
    let mut residual: Vec<Expr> = Vec::new();
    let mut pushable: Vec<Expr> = Vec::new();
    let bgp_vars: Vec<usize> = patterns.iter().flat_map(|p| p.variables()).collect();
    for c in filters {
        if cfg.push_filters && c.variables().iter().all(|v| bgp_vars.contains(v)) {
            pushable.push(c);
        } else {
            residual.push(c);
        }
    }
    let shape = if cfg.reorder_patterns {
        plan_shape(&patterns, store)
    } else {
        Shape::unestimated(0..patterns.len())
    };
    let observed = observed.map(|vars| {
        let mut vars = vars.to_vec();
        extend(&mut vars, residual.iter().flat_map(Expr::variables));
        vars
    });
    with_filter(
        residual,
        assemble(shape, &patterns, pushable, observed.as_deref()),
    )
}

/// `inner` under the conjunction of `conjuncts`, if there are any.
fn with_filter(conjuncts: Vec<Expr>, inner: Algebra) -> Algebra {
    match Expr::fold_and(conjuncts) {
        Some(e) => Algebra::Filter(e, Box::new(inner)),
        None => inner,
    }
}

/// How one BGP is evaluated.
enum Shape {
    /// One chain of pattern steps: each pattern's index, with the rows
    /// estimated after it when the order came from statistics.
    Chain(Vec<(usize, Option<u64>)>),
    /// Two sub-plans hash-joined on the variables they share: the probe
    /// side streams, the build side — the one estimated smaller — is
    /// materialized.
    Split {
        probe: Box<Shape>,
        build: Box<Shape>,
        est_rows: u64,
    },
}

impl Shape {
    /// A chain in `order` that carries no estimates.
    fn unestimated(order: impl IntoIterator<Item = usize>) -> Shape {
        Shape::Chain(order.into_iter().map(|i| (i, None)).collect())
    }

    /// The variables the shape's patterns bind.
    fn vars(&self, patterns: &[ResolvedPattern]) -> Vec<usize> {
        match self {
            Shape::Chain(steps) => steps
                .iter()
                .flat_map(|&(i, _)| patterns[i].variables())
                .collect(),
            Shape::Split { probe, build, .. } => {
                let mut vars = probe.vars(patterns);
                vars.extend(build.vars(patterns));
                vars
            }
        }
    }
}

/// The algebra of a planned BGP, given the conjuncts its patterns bind.
/// A chain is one BGP whose steps carry their estimates, each conjunct
/// running after the first step that binds all its variables. A split is
/// the join of its halves: a conjunct one half binds goes into that
/// half, any other into a `Filter` above the join.
///
/// With `observed` — the BGP is under a DISTINCT, and these variables
/// are all the operators above it read — a split's build side B becomes
/// `Distinct(Project(keep, B))`, where `keep` is B's variables that are
/// observed, shared with the probe side or named by a conjunct above the
/// join. Nothing between the DISTINCT and the join counts rows or sorts
/// them ([`rewrite`]), so this is exact: a build row that agrees with an
/// earlier one on `keep` lands in the same bucket after it, passes the
/// same conditions with every probe row, and so only ever adds a merge
/// that follows an identical-looking one — a row the outer DISTINCT
/// drops. The rows it keeps come in the order they did, at any degree:
/// the probe side, which an exchange splits, is untouched. When `keep`
/// is all of B's variables the build side is left alone: a BGP's rows
/// are already distinct.
fn assemble(
    shape: Shape,
    patterns: &[ResolvedPattern],
    filters: Vec<Expr>,
    observed: Option<&[usize]>,
) -> Algebra {
    match shape {
        Shape::Chain(steps) => {
            let patterns: Vec<ResolvedPattern> = steps
                .into_iter()
                .map(|(i, est_rows)| ResolvedPattern {
                    est_rows,
                    ..patterns[i].clone()
                })
                .collect();
            let mut inline: Vec<(usize, Expr)> = Vec::new();
            for c in filters {
                let vars = c.variables();
                let mut bound: Vec<usize> = Vec::new();
                let mut pos = patterns.len().saturating_sub(1);
                for (i, p) in patterns.iter().enumerate() {
                    bound.extend(p.variables());
                    if vars.iter().all(|v| bound.contains(v)) {
                        pos = i;
                        break;
                    }
                }
                inline.push((pos, c));
            }
            Algebra::Bgp {
                patterns,
                inline_filters: inline,
            }
        }
        Shape::Split {
            probe,
            build,
            est_rows,
        } => {
            let (probe_vars, build_vars) = (probe.vars(patterns), build.vars(patterns));
            let (mut into_probe, mut into_build, mut above) = (Vec::new(), Vec::new(), Vec::new());
            for c in filters {
                let vars = c.variables();
                if vars.iter().all(|v| probe_vars.contains(v)) {
                    into_probe.push(c);
                } else if vars.iter().all(|v| build_vars.contains(v)) {
                    into_build.push(c);
                } else {
                    above.push(c);
                }
            }
            let mut build = assemble(*build, patterns, into_build, None);
            if let Some(observed) = observed {
                let mut keep = build_vars;
                keep.sort_unstable();
                keep.dedup();
                let all = keep.len();
                let above_vars: Vec<usize> = above.iter().flat_map(Expr::variables).collect();
                keep.retain(|v| {
                    observed.contains(v) || probe_vars.contains(v) || above_vars.contains(v)
                });
                if keep.len() < all {
                    build = Algebra::Distinct(Box::new(Algebra::Project(keep, Box::new(build))));
                }
            }
            let join = Algebra::Join(
                Box::new(assemble(*probe, patterns, into_probe, None)),
                Box::new(build),
                EqPairs::new(),
                Some(est_rows),
            );
            with_filter(above, join)
        }
    }
}

/// One side of the join tree [`join_components`] grows: a sub-plan, the
/// variables it binds, and the estimate of its most selective pattern
/// (the scan that will drive it) as a size proxy.
struct Component {
    algebra: Algebra,
    vars: Vec<usize>,
    estimate: u64,
}

/// The implicit join a FILTER equality encodes (Q5a, Q12a): when the
/// patterns fall into several connected components — no shared variable
/// between them — evaluating them as one BGP is a cartesian product, its
/// later components looked up once per row of the earlier ones and their
/// own conjuncts checked only after the product. Instead each component
/// becomes its own BGP (with the conjuncts it binds pushed inside) and
/// runs once; components an `?x = ?y` conjunct links hash-join on the
/// equality's value classes with the smaller one as build side, and
/// every cross-component conjunct — the linking equalities included —
/// stays in a `Filter` above, so the join only has to nominate a
/// superset. Components no equality reaches join with an empty key: the
/// same product, built once.
///
/// `None` when the patterns are one component; the caller then plans the
/// single BGP.
fn join_components(
    patterns: &[ResolvedPattern],
    filters: &[Expr],
    store: &dyn TripleStore,
    cfg: &OptimizerConfig,
    observed: Option<&[usize]>,
) -> Option<Algebra> {
    let parts = connected_components(patterns);
    if parts.len() < 2 {
        return None;
    }
    let vars_of = |part: &[usize]| -> Vec<usize> {
        part.iter().flat_map(|&i| patterns[i].variables()).collect()
    };
    let part_vars: Vec<Vec<usize>> = parts.iter().map(|p| vars_of(p)).collect();
    let home = |v: usize| part_vars.iter().position(|vars| vars.contains(&v));

    // A conjunct whose variables all live in one component is that
    // component's own; everything else is decided above the joins.
    let mut local: Vec<Vec<Expr>> = vec![Vec::new(); parts.len()];
    let mut above: Vec<Expr> = Vec::new();
    let mut links: EqPairs = Vec::new();
    for c in filters {
        let vars = c.variables();
        match vars.first().and_then(|&v| home(v)) {
            Some(h) if vars.iter().all(|&v| home(v) == Some(h)) => local[h].push(c.clone()),
            _ => {
                links.extend(var_equalities(c).into_iter().filter(|&(x, y)| {
                    home(x).is_some() && home(y).is_some() && home(x) != home(y)
                }));
                above.push(c.clone());
            }
        }
    }
    // The conjuncts above the joins read their variables too.
    let observed = observed.map(|vars| {
        let mut vars = vars.to_vec();
        extend(&mut vars, above.iter().flat_map(Expr::variables));
        vars
    });

    let mut groups: Vec<Component> = parts
        .iter()
        .zip(part_vars)
        .zip(local)
        .map(|((part, vars), filters)| {
            let part: Vec<ResolvedPattern> = part.iter().map(|&i| patterns[i].clone()).collect();
            let estimate = part
                .iter()
                .map(|p| resolve_consts(p, store).map_or(0, |pat| store.estimate(pat)))
                .min()
                .unwrap_or(0);
            Component {
                algebra: order_and_place(part, filters, store, cfg, observed.as_deref()),
                vars,
                estimate,
            }
        })
        .collect();

    // Join linked groups pairwise until no equality crosses a boundary.
    let group_of = |groups: &[Component], v: usize| {
        groups
            .iter()
            .position(|g| g.vars.contains(&v))
            .expect("link variables belong to a component")
    };
    while let Some((i, j)) = links.iter().find_map(|&(x, y)| {
        let (i, j) = (group_of(&groups, x), group_of(&groups, y));
        (i != j).then_some((i.min(j), i.max(j)))
    }) {
        let second = groups.remove(j);
        let first = groups.remove(i);
        // The hash table is built over the right side: make it the
        // smaller one.
        let (left, right) = if first.estimate >= second.estimate {
            (first, second)
        } else {
            (second, first)
        };
        let eq: EqPairs = links
            .iter()
            .filter_map(|&(x, y)| orient(x, y, &left.vars, &right.vars))
            .collect();
        let mut vars = left.vars;
        vars.extend(right.vars);
        groups.push(Component {
            algebra: Algebra::Join(Box::new(left.algebra), Box::new(right.algebra), eq, None),
            vars,
            estimate: left.estimate.max(right.estimate),
        });
    }
    let joined = groups
        .into_iter()
        .map(|g| g.algebra)
        .reduce(|acc, g| Algebra::Join(Box::new(acc), Box::new(g), EqPairs::new(), None))
        .expect("at least two components");
    Some(with_filter(above, joined))
}

/// Partitions pattern indices into the connected components of the graph
/// whose edges are shared variables, each component in pattern order and
/// components in order of their first pattern.
fn connected_components(patterns: &[ResolvedPattern]) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = Vec::new();
    let mut unplaced: Vec<usize> = (0..patterns.len()).collect();
    while !unplaced.is_empty() {
        // Seed a part with the first unplaced pattern, then absorb
        // whatever shares a variable with it until nothing more does.
        let mut part = vec![unplaced.remove(0)];
        let mut vars: Vec<usize> = patterns[part[0]].variables().collect();
        while let Some(at) = unplaced
            .iter()
            .position(|&i| patterns[i].variables().any(|v| vars.contains(&v)))
        {
            let i = unplaced.remove(at);
            vars.extend(patterns[i].variables());
            part.push(i);
        }
        part.sort_unstable();
        parts.push(part);
    }
    parts
}

/// Recognizes `?v = const` / `const = ?v`.
fn as_var_eq_const(e: &Expr) -> Option<(usize, Term)> {
    if let Expr::Compare(CmpOp::Eq, a, b) = e {
        match (a.as_ref(), b.as_ref()) {
            (Expr::Var(v), Expr::Const(t)) | (Expr::Const(t), Expr::Var(v)) => {
                // Only IRIs are safe to substitute: literal equality is
                // value-based (e.g. "01"^^xsd:integer = "1"^^xsd:integer),
                // which pattern matching by id cannot capture.
                if matches!(t, Term::Iri(_)) {
                    return Some((*v, t.clone()));
                }
            }
            _ => {}
        }
    }
    None
}

/// The cartesian penalty: a pattern sharing no variable with the bound
/// set multiplies the intermediate result — only ever pick one when
/// nothing connected remains.
const CARTESIAN_PENALTY: f64 = 1e9;

/// Cost-based planning of one BGP's patterns through
/// [`Costing::shape`]: a greedy chain on estimated cardinalities, or two
/// sub-plans hash-joined at a cut where that is cheaper. An empty store
/// has nothing to estimate and keeps the written order.
fn plan_shape(patterns: &[ResolvedPattern], store: &dyn TripleStore) -> Shape {
    if patterns.len() <= 1 || store.is_empty() {
        return Shape::unestimated(0..patterns.len());
    }
    // Constant slots resolve once; `None` marks a pattern holding a term
    // absent from the data — zero matches, so it orders first and cuts
    // the plan immediately (the paper's "Q3c in constant time via
    // statistics").
    let resolved: Vec<Option<sp2b_store::Pattern>> =
        patterns.iter().map(|p| resolve_consts(p, store)).collect();
    let base: Vec<f64> = resolved
        .iter()
        .map(|r| r.map_or(0.0, |pat| store.estimate(pat) as f64))
        .collect();
    Costing {
        patterns,
        resolved,
        base,
        stats: store.stats(),
    }
    .shape()
}

/// The pattern's constant slots as store ids; `None` when a constant
/// does not occur in the data at all.
fn resolve_consts(p: &ResolvedPattern, store: &dyn TripleStore) -> Option<sp2b_store::Pattern> {
    let mut pattern: sp2b_store::Pattern = [None, None, None];
    for (i, slot) in p.slots().into_iter().enumerate() {
        if let Slot::Const(t) = slot {
            pattern[i] = Some(store.resolve(t)?);
        }
    }
    Some(pattern)
}

/// What the statistics-driven planner knows of one BGP: its patterns,
/// their constants as ids and their base estimates.
struct Costing<'a> {
    patterns: &'a [ResolvedPattern],
    resolved: Vec<Option<sp2b_store::Pattern>>,
    base: Vec<f64>,
    stats: &'a StoreStats,
}

/// One step of a [`Costing::chain`]: the pattern, the partial join's
/// estimated rows after it, and what adding it was priced at.
struct Step {
    pattern: usize,
    rows: f64,
    cost: f64,
}

impl Costing<'_> {
    /// The statistics-driven greedy over the patterns `subset` names:
    /// tracks the partial join's estimated cardinality and, per
    /// candidate, the per-binding fan-out of adding it — from
    /// characteristic sets for star steps (a bound subject variable
    /// extended by another constant predicate), from distinct-count
    /// ratios everywhere else — and picks the cheapest
    /// [`candidate_cost`] next.
    fn chain(&self, subset: &[usize]) -> Vec<Step> {
        let mut remaining: Vec<usize> = subset.to_vec();
        let mut steps = Vec::with_capacity(subset.len());
        let mut bound = VarSet::default();
        // Per subject *variable*: the sorted constant-predicate ids of the
        // star placed on it so far — the characteristic-set context.
        let mut stars: Vec<(usize, Vec<Id>)> = Vec::new();
        let mut rows = 1.0f64;

        while !remaining.is_empty() {
            let mut best_pos = 0;
            let mut best_score = f64::INFINITY;
            let mut best_rows = 0.0;
            for (pos, &idx) in remaining.iter().enumerate() {
                let (out, cost) = candidate_cost(
                    &self.patterns[idx],
                    &self.resolved[idx],
                    self.base[idx],
                    self.stats,
                    &bound,
                    &stars,
                    rows,
                );
                if cost < best_score {
                    best_score = cost;
                    best_pos = pos;
                    best_rows = out;
                }
            }
            let idx = remaining.remove(best_pos);
            rows = best_rows.max(0.0);
            // Extend the star context: a constant predicate on a variable
            // subject contributes to that variable's characteristic set.
            if let (Slot::Var(sv), Some(pat)) = (&self.patterns[idx].s, &self.resolved[idx]) {
                if let Some(pid) = pat[1] {
                    match stars.iter_mut().find(|(v, _)| v == sv) {
                        Some((_, preds)) => {
                            if let Err(at) = preds.binary_search(&pid) {
                                preds.insert(at, pid);
                            }
                        }
                        None => stars.push((*sv, vec![pid])),
                    }
                }
            }
            for v in self.patterns[idx].variables() {
                bound.insert(v);
            }
            steps.push(Step {
                pattern: idx,
                rows,
                cost: best_score,
            });
        }
        steps
    }

    /// The cheapest plan for the BGP: its greedy chain, or that chain
    /// closed after some prefix and hash-joined with the rest planned
    /// standalone (the module doc prices the two). Each half stays the
    /// chain it was priced as.
    fn shape(&self) -> Shape {
        let all: Vec<usize> = (0..self.patterns.len()).collect();
        let chain = self.chain(&all);
        let order: Vec<usize> = chain.iter().map(|s| s.pattern).collect();
        let vars_of = |part: &[usize]| -> Vec<usize> {
            part.iter()
                .flat_map(|&i| self.patterns[i].variables())
                .collect()
        };
        let mut cheapest: f64 = chain.iter().map(|s| s.cost).sum();
        // The cheapest split so far: prefix length, suffix chain, join rows.
        let mut split: Option<(usize, Vec<Step>, f64)> = None;
        let mut prefix_cost = 0.0;
        for k in 1..chain.len().saturating_sub(1) {
            prefix_cost += chain[k - 1].cost;
            let (prefix, suffix) = order.split_at(k);
            let prefix_rows = chain[k - 1].rows;
            // A split costs at least the prefix, its rows and the scan
            // that opens the suffix's own chain; one that cannot beat the
            // cheapest plan so far is not priced.
            let scan = suffix
                .iter()
                .map(|&i| self.base[i])
                .fold(f64::INFINITY, f64::min);
            if prefix_cost + prefix_rows + scan >= cheapest {
                continue;
            }
            let prefix_vars = vars_of(prefix);
            let mut cut = vars_of(suffix);
            cut.retain(|v| prefix_vars.contains(v));
            cut.sort_unstable();
            cut.dedup();
            let suffix_patterns: Vec<ResolvedPattern> =
                suffix.iter().map(|&i| self.patterns[i].clone()).collect();
            if cut.is_empty() || connected_components(&suffix_patterns).len() > 1 {
                continue;
            }
            let standalone = self.chain(suffix);
            let suffix_rows = standalone.last().map_or(0.0, |s| s.rows);
            let joined = prefix_rows * suffix_rows / self.cut_values(&cut, prefix, suffix);
            let price = prefix_cost
                + standalone.iter().map(|s| s.cost).sum::<f64>()
                + prefix_rows
                + suffix_rows
                + joined;
            if price < cheapest {
                cheapest = price;
                split = Some((k, standalone, joined));
            }
        }
        let estimated = |steps: &[Step]| {
            Shape::Chain(
                steps
                    .iter()
                    .map(|s| (s.pattern, Some(s.rows.round() as u64)))
                    .collect(),
            )
        };
        let Some((k, suffix, joined)) = split else {
            return estimated(&chain);
        };
        let (prefix_rows, suffix_rows) = (chain[k - 1].rows, suffix[suffix.len() - 1].rows);
        let (prefix, suffix) = (estimated(&chain[..k]), estimated(&suffix));
        let (probe, build) = if suffix_rows <= prefix_rows {
            (prefix, suffix)
        } else {
            (suffix, prefix)
        };
        Shape::Split {
            probe: Box::new(probe),
            build: Box::new(build),
            est_rows: joined.round() as u64,
        }
    }

    /// How many value combinations the cut variables can take in a join
    /// of `left` and `right`: per variable the larger of the two sides'
    /// counts ([`Costing::values`]), the textbook denominator of an
    /// equi-join's size, multiplied over the cut.
    fn cut_values(&self, cut: &[usize], left: &[usize], right: &[usize]) -> f64 {
        let side = |part: &[usize], v: usize| {
            part.iter()
                .filter(|&&i| self.patterns[i].variables().any(|x| x == v))
                .map(|&i| self.values(i, v))
                .fold(f64::INFINITY, f64::min)
        };
        cut.iter()
            .map(|&v| side(left, v).max(side(right, v)))
            .product::<f64>()
            .max(1.0)
    }

    /// The distinct values pattern `i` can give variable `v`: at most its
    /// matches, and at most the distinct count of each position `v`
    /// fills.
    fn values(&self, i: usize, v: usize) -> f64 {
        let (pattern, stats) = (&self.patterns[i], self.stats);
        let pred = self.resolved[i]
            .and_then(|pat| pat[1])
            .and_then(|p| stats.predicate(p));
        let mut values = self.base[i];
        if pattern.s.as_var() == Some(v) {
            let distinct = pred.map_or(stats.distinct_subjects, |ps| ps.distinct_subjects);
            values = values.min(distinct as f64);
        }
        if pattern.p.as_var() == Some(v) {
            values = values.min(stats.predicates.len() as f64);
        }
        if pattern.o.as_var() == Some(v) {
            let distinct = pred.map_or(stats.distinct_objects, |ps| ps.distinct_objects);
            values = values.min(distinct as f64);
        }
        values
    }
}

/// Estimated `(output_rows, cost)` of adding one candidate to a partial
/// join of `rows` estimated rows. The cost charges the cheaper of a
/// per-binding index lookup (one probe per current row) and fetching the
/// whole pattern once (a scan-then-hash-join shape), plus the rows the
/// step emits. [`crate::eval::PatternBind`] realizes that minimum to
/// within a factor of two without knowing `rows`: it looks up until it
/// has issued `base` lookups, then fetches.
fn candidate_cost(
    pattern: &ResolvedPattern,
    resolved: &Option<sp2b_store::Pattern>,
    base: f64,
    stats: &StoreStats,
    bound: &VarSet,
    stars: &[(usize, Vec<Id>)],
    rows: f64,
) -> (f64, f64) {
    if resolved.is_none() || base == 0.0 {
        return (0.0, 0.0); // matches nothing: cut the plan right here
    }
    let pat = resolved.as_ref().expect("checked above");
    let s_bound = pattern.s.as_var().is_some_and(|v| bound.contains(v));
    let p_bound = pattern.p.as_var().is_some_and(|v| bound.contains(v));
    let o_bound = pattern.o.as_var().is_some_and(|v| bound.contains(v));
    let connected = bound.is_empty() || s_bound || p_bound || o_bound;

    // Per-binding fan-out of the candidate. A driving scan (nothing
    // bound yet) and a cartesian step (bound, but disjoint) both fan
    // out by the full pattern; the latter is penalized below.
    let fanout = if bound.is_empty() || !connected {
        base
    } else if s_bound && pat[1].is_some() {
        star_fanout(pattern, pat, base, stats, stars)
    } else {
        ratio_fanout(pat, base, stats, s_bound, p_bound, o_bound)
    };
    let out = rows * fanout;
    // Fetch + hash-join pays the whole pattern once; per-binding lookup
    // pays one probe per current row — the step ends up paying about
    // whichever is cheaper (it switches from the second to the first after
    // `base` lookups).
    let mut cost = out + rows.min(base);
    if !connected {
        cost *= CARTESIAN_PENALTY;
    }
    (out, cost)
}

/// Characteristic-set fan-out for a star step: the subject variable is
/// bound and the candidate adds constant predicate `p_new` to it. Among
/// subjects carrying the star's predicates so far, how many `p_new`
/// triples does each contribute on average?
fn star_fanout(
    pattern: &ResolvedPattern,
    pat: &sp2b_store::Pattern,
    base: f64,
    stats: &StoreStats,
    stars: &[(usize, Vec<Id>)],
) -> f64 {
    let p_new = pat[1].expect("caller checked the predicate is const");
    let star = pattern
        .s
        .as_var()
        .and_then(|sv| stars.iter().find(|(v, _)| *v == sv))
        .map(|(_, preds)| preds.as_slice())
        .filter(|preds| !preds.is_empty());
    if let (Some(preds), true) = (star, stats.has_characteristic_sets()) {
        let subjects = stats.subjects_with_predicates(preds);
        if subjects > 0 {
            let matched = stats.star_triples(preds, p_new) as f64;
            let mut fanout = matched / subjects as f64;
            // A bound or constant object filters further by its
            // distinct-count ratio.
            if pat[2].is_some() || pattern.o.as_var().is_none() {
                // Constant object: `base` already accounts for it — scale
                // the CS number by the same selectivity base implies.
                if let Some(ps) = stats.predicate(p_new) {
                    if ps.triples > 0 {
                        fanout *= base / ps.triples as f64;
                    }
                }
            }
            return fanout;
        }
    }
    // No star context (or CS overflowed): distinct-subject ratio.
    match stats.predicate(p_new) {
        Some(ps) => base / ps.distinct_subjects.max(1) as f64,
        None => 0.0,
    }
}

/// Distinct-count-ratio fan-out: the candidate's base estimate divided
/// by the distinct count of every position joining on a bound variable.
fn ratio_fanout(
    pat: &sp2b_store::Pattern,
    base: f64,
    stats: &StoreStats,
    s_bound: bool,
    p_bound: bool,
    o_bound: bool,
) -> f64 {
    let pred = pat[1].and_then(|p| stats.predicate(p));
    let mut fanout = base;
    if s_bound {
        let distinct = pred.map_or(stats.distinct_subjects, |ps| ps.distinct_subjects);
        fanout /= distinct.max(1) as f64;
    }
    if o_bound {
        let distinct = pred.map_or(stats.distinct_objects, |ps| ps.distinct_objects);
        fanout /= distinct.max(1) as f64;
    }
    if p_bound {
        fanout /= (stats.predicates.len() as u64).max(1) as f64;
    }
    fanout
}

/// A dense variable-index set backed by bit words — the bound-variable
/// tracker (replacing the old O(n²) `Vec::contains` scan).
#[derive(Default)]
struct VarSet {
    words: Vec<u64>,
    len: usize,
}

impl VarSet {
    fn insert(&mut self, v: usize) {
        let word = v / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (v % 64);
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.len += 1;
        }
    }

    fn contains(&self, v: usize) -> bool {
        self.words
            .get(v / 64)
            .is_some_and(|w| w & (1u64 << (v % 64)) != 0)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::translate;
    use crate::parser::parse;
    use crate::testing::{load, NATIVE};
    use sp2b_rdf::{Graph, Iri, Subject};
    use sp2b_store::ShardedStore;

    fn store() -> ShardedStore {
        let mut g = Graph::new();
        // 100 "common" triples, 2 "rare" ones.
        for i in 0..100 {
            g.add(
                Subject::iri(format!("http://x/s{i}")),
                Iri::new("http://x/common"),
                Term::iri("http://x/o"),
            );
        }
        for i in 0..2 {
            g.add(
                Subject::iri(format!("http://x/s{i}")),
                Iri::new("http://x/rare"),
                Term::iri(format!("http://x/val{i}")),
            );
        }
        load(&g, NATIVE)
    }

    fn bgp_of(alg: &Algebra) -> (&Vec<ResolvedPattern>, &Vec<(usize, Expr)>) {
        match alg {
            Algebra::Project(_, inner) | Algebra::Distinct(inner) => bgp_of(inner),
            Algebra::Filter(_, inner) => bgp_of(inner),
            Algebra::Bgp {
                patterns,
                inline_filters,
            } => (patterns, inline_filters),
            other => panic!("no BGP in {other:?}"),
        }
    }

    #[test]
    fn reorders_rare_pattern_first() {
        let t = translate(
            &parse("SELECT ?s WHERE { ?s <http://x/common> ?o . ?s <http://x/rare> ?v }").unwrap(),
        );
        let s = store();
        let optimized = optimize(
            t.algebra.clone(),
            &s,
            &OptimizerConfig::full(),
            &t.projection,
        );
        let (patterns, _) = bgp_of(&optimized);
        // The rare pattern must come first now.
        assert_eq!(
            patterns[0].p,
            Slot::Const(Term::iri("http://x/rare")),
            "{patterns:?}"
        );
    }

    #[test]
    fn no_reorder_when_disabled() {
        let t = translate(
            &parse("SELECT ?s WHERE { ?s <http://x/common> ?o . ?s <http://x/rare> ?v }").unwrap(),
        );
        let s = store();
        let optimized = optimize(
            t.algebra.clone(),
            &s,
            &OptimizerConfig::default(),
            &t.projection,
        );
        let (patterns, _) = bgp_of(&optimized);
        assert_eq!(patterns[0].p, Slot::Const(Term::iri("http://x/common")));
    }

    #[test]
    fn pushes_filter_inline() {
        let t = translate(
            &parse(
                "SELECT ?s WHERE { ?s <http://x/common> ?o . ?s <http://x/rare> ?v FILTER (?v != <http://x/val0>) }",
            )
            .unwrap(),
        );
        let s = store();
        let optimized = optimize(
            t.algebra.clone(),
            &s,
            &OptimizerConfig::full(),
            &t.projection,
        );
        let (_, inline) = bgp_of(&optimized);
        assert_eq!(inline.len(), 1, "filter must be inlined");
        // And no residual Filter node above the BGP.
        let Algebra::Project(_, inner) = &optimized else {
            panic!()
        };
        assert!(matches!(inner.as_ref(), Algebra::Bgp { .. }));
    }

    #[test]
    fn substitutes_iri_equality() {
        let t = translate(
            &parse("SELECT ?s WHERE { ?s ?p ?v FILTER (?p = <http://x/rare>) }").unwrap(),
        );
        let s = store();
        let optimized = optimize(
            t.algebra.clone(),
            &s,
            &OptimizerConfig::full(),
            &t.projection,
        );
        let (patterns, inline) = bgp_of(&optimized);
        assert_eq!(patterns[0].p, Slot::Const(Term::iri("http://x/rare")));
        assert!(inline.is_empty(), "equality folded away");
    }

    #[test]
    fn does_not_substitute_projected_variable() {
        let t = translate(
            &parse("SELECT ?p WHERE { ?s ?p ?v FILTER (?p = <http://x/rare>) }").unwrap(),
        );
        let s = store();
        let optimized = optimize(
            t.algebra.clone(),
            &s,
            &OptimizerConfig::full(),
            &t.projection,
        );
        // ?p is projected: substituting would lose its binding. The filter
        // must survive in some form (inline or residual).
        let (patterns, inline) = bgp_of(&optimized);
        let still_var = patterns[0].p == Slot::Var(t.vars.lookup("p").unwrap());
        assert!(still_var || !inline.is_empty());
    }

    fn optimized(query: &str, cfg: &OptimizerConfig) -> (Algebra, crate::algebra::VarTable) {
        let t = translate(&parse(query).unwrap());
        (optimize(t.algebra, &store(), cfg, &t.projection), t.vars)
    }

    #[test]
    fn left_join_condition_equalities_become_key_pairs() {
        let pairs = |condition: &str, cfg: &OptimizerConfig| {
            let (algebra, vars) = optimized(
                &format!(
                    "SELECT ?a WHERE {{ ?a <http://x/common> ?x
                       OPTIONAL {{ ?b <http://x/rare> ?y FILTER ({condition}) }} }}"
                ),
                cfg,
            );
            let Algebra::Project(_, inner) = algebra else {
                panic!()
            };
            let Algebra::LeftJoin(_, _, cond, eq) = *inner else {
                panic!("{inner:?}")
            };
            assert!(cond.is_some(), "the condition stays as the residual");
            let var = |n: &str| vars.lookup(n).unwrap();
            (eq, var("a"), var("x"), var("b"), var("y"))
        };
        let full = OptimizerConfig::full();
        // Either way round, pairs come out (left var, right var).
        let (eq, a, x, b, y) = pairs("?y = ?x && ?a = ?b && ?x != ?y", &full);
        assert_eq!(eq, vec![(x, y), (a, b)]);
        // Not a conjunct: the row may pass through the other disjunct.
        assert!(pairs("?x = ?y || ?a = ?b", &full).0.is_empty());
        assert!(pairs("!(?x = ?y)", &full).0.is_empty());
        // Both variables on one side: nothing to join on.
        assert!(pairs("?a = ?x", &full).0.is_empty());
        // The naive configurations keep the nested loop.
        assert!(pairs("?x = ?y", &OptimizerConfig::default()).0.is_empty());
    }

    #[test]
    fn equality_linked_components_become_a_join() {
        let query = "SELECT ?a ?b WHERE { ?a <http://x/common> ?x . ?b <http://x/rare> ?y .
                       ?b <http://x/common> ?z FILTER (?x = ?y && ?z != ?y && ?a != ?b) }";
        let (algebra, vars) = optimized(query, &OptimizerConfig::full());
        let Algebra::Project(_, inner) = algebra else {
            panic!()
        };
        // Cross-component conjuncts stay above the join, linking equality
        // included; the one inside a component is pushed into its BGP.
        let Algebra::Filter(above, joined) = *inner else {
            panic!("{inner:?}")
        };
        assert_eq!(above.conjuncts().len(), 2);
        let Algebra::Join(left, right, eq, _) = *joined else {
            panic!("{joined:?}")
        };
        let var = |n: &str| vars.lookup(n).unwrap();
        // The 2-row `rare` component is the build (right) side.
        assert_eq!(eq, vec![(var("x"), var("y"))]);
        assert_eq!(bgp_of(&left).0.len(), 1);
        let (patterns, inline) = bgp_of(&right);
        assert_eq!((patterns.len(), inline.len()), (2, 1));
        // Without pushing, one BGP.
        let (algebra, _) = optimized(query, &OptimizerConfig::default());
        assert_eq!(bgp_of(&algebra).0.len(), 3);
        // Without a linking equality, a keyless join under the filter.
        let (algebra, _) = optimized(
            "SELECT ?a ?b WHERE { ?a <http://x/common> ?x . ?b <http://x/rare> ?y FILTER (?x != ?y) }",
            &OptimizerConfig::full(),
        );
        let Algebra::Project(_, inner) = algebra else {
            panic!()
        };
        let Algebra::Filter(_, joined) = *inner else {
            panic!("{inner:?}")
        };
        let Algebra::Join(left, right, eq, _) = *joined else {
            panic!("{joined:?}")
        };
        assert!(eq.is_empty());
        assert_eq!((bgp_of(&left).0.len(), bgp_of(&right).0.len()), (1, 1));
    }

    #[test]
    fn join_distributes_over_a_union_of_flat_groups() {
        let query = "SELECT ?s WHERE { ?s <http://x/rare> ?r FILTER (?r != <http://x/o>)
            { ?s <http://x/common> ?o FILTER (?o != ?s) } UNION { ?s <http://x/rare> ?v }
            UNION { ?t <http://x/common> ?o FILTER (?o != ?s) } }";
        let (algebra, _) = optimized(query, &OptimizerConfig::full());
        let Algebra::Project(_, inner) = algebra else {
            panic!()
        };
        let Algebra::Union(flat, not_flat) = *inner else {
            panic!("{inner:?}")
        };
        // The third branch's filter names ?s, which only the outer group
        // binds: that branch stays a join.
        assert!(matches!(*not_flat, Algebra::Join(..)), "{not_flat:?}");
        let Algebra::Union(first, second) = *flat else {
            panic!("{flat:?}")
        };
        for branch in [&first, &second] {
            let (patterns, _) = bgp_of(branch);
            assert_eq!(patterns.len(), 2, "{branch:?}");
            assert_eq!(patterns[0].p, Slot::Const(Term::iri("http://x/rare")));
        }
        // Each merged BGP runs the group's filter and its branch's inline.
        assert_eq!((bgp_of(&first).1.len(), bgp_of(&second).1.len()), (2, 1));
        // Without reordering the join keeps its shape.
        let (algebra, _) = optimized(query, &OptimizerConfig::default());
        let Algebra::Project(_, inner) = algebra else {
            panic!()
        };
        let Algebra::Filter(_, joined) = *inner else {
            panic!("{inner:?}")
        };
        assert!(matches!(*joined, Algebra::Join(..)), "{joined:?}");
    }

    /// 40 subjects, each with one `p1` name of its own and one `p2`
    /// attribute, spread over two `p0` groups: two stars that meet at the
    /// group pair every subject with half the others.
    fn grouped_store() -> ShardedStore {
        let mut g = Graph::new();
        for i in 0..40 {
            let s = Subject::iri(format!("http://x/s{i}"));
            for (p, o) in [
                ("p0", format!("g{}", i % 2)),
                ("p1", format!("n{i}")),
                ("p2", format!("a{i}")),
            ] {
                g.add(
                    s.clone(),
                    Iri::new(format!("http://x/{p}")),
                    Term::iri(format!("http://x/{o}")),
                );
            }
        }
        load(&g, NATIVE)
    }

    #[test]
    fn bgp_splits_at_a_cut_and_a_star_does_not() {
        let query = "SELECT ?n ?m WHERE { ?a <http://x/p0> ?g . ?a <http://x/p1> ?n .
            ?b <http://x/p0> ?g . ?b <http://x/p1> ?m FILTER (?n != ?m && ?m != <http://x/n0>) }";
        let t = translate(&parse(query).unwrap());
        let algebra = optimize(
            t.algebra,
            &grouped_store(),
            &OptimizerConfig::full(),
            &t.projection,
        );
        let Algebra::Project(_, inner) = algebra else {
            panic!()
        };
        // The conjunct across the halves stays above their join…
        let Algebra::Filter(above, joined) = *inner else {
            panic!("{inner:?}")
        };
        assert_eq!(above.conjuncts().len(), 1);
        // …a chain would pair 40 rows with 20 each: 800 rows, estimated.
        let Algebra::Join(probe, build, eq, Some(800)) = *joined else {
            panic!("{joined:?}")
        };
        assert!(
            eq.is_empty(),
            "the cut is the shared variable: no filter key"
        );
        let (probe, probe_inline) = bgp_of(&probe);
        let (build, build_inline) = bgp_of(&build);
        assert_eq!((probe.len(), build.len()), (2, 2));
        // The conjunct one half binds runs in that half.
        assert_eq!(probe_inline.len() + build_inline.len(), 1);
        let g = t.vars.lookup("g").unwrap();
        assert!(probe.iter().chain(build).all(|p| p.s.as_var().is_some()));
        assert!([probe, build]
            .iter()
            .all(|half| half.iter().any(|p| p.o == Slot::Var(g))));
        assert_eq!(
            probe[1].est_rows,
            Some(40),
            "each step carries its estimate"
        );

        // One subject's star: its suffix alone would start from a full scan.
        let star =
            "SELECT ?n WHERE { ?a <http://x/p0> ?g . ?a <http://x/p1> ?n . ?a <http://x/p2> ?x }";
        let t = translate(&parse(star).unwrap());
        let algebra = optimize(
            t.algebra,
            &grouped_store(),
            &OptimizerConfig::full(),
            &t.projection,
        );
        assert_eq!(bgp_of(&algebra).0.len(), 3);
        // Without reordering the two-star BGP stays one chain.
        let t = translate(&parse(query).unwrap());
        let algebra = optimize(
            t.algebra,
            &grouped_store(),
            &OptimizerConfig::default(),
            &t.projection,
        );
        assert_eq!(bgp_of(&algebra).0.len(), 4);
    }

    #[test]
    fn filter_distributes_into_join_branches() {
        let t = translate(
            &parse(
                "SELECT ?a WHERE { { ?a <http://x/common> ?x } { ?b <http://x/rare> ?y } FILTER (?y != <http://x/val0>) }",
            )
            .unwrap(),
        );
        let s = store();
        let optimized = optimize(
            t.algebra.clone(),
            &s,
            &OptimizerConfig::full(),
            &t.projection,
        );
        // The filter must not remain at the top.
        let Algebra::Project(_, inner) = &optimized else {
            panic!()
        };
        assert!(
            matches!(inner.as_ref(), Algebra::Join(..)),
            "filter should be absorbed by a branch: {inner:?}"
        );
    }
}
