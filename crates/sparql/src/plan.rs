//! Physical plans: the algebra bound to a concrete store.
//!
//! A basic graph pattern is no operator of its own: it binds as a chain
//! of [`Plan::Step`]s over [`Plan::Unit`], the one empty row —
//! `Step(… Step(Unit, p0) …, pn)` in the optimizer's order — and each of
//! its filters becomes an ordinary [`Plan::Filter`] right after the step
//! that binds the last of its variables, or directly over `Unit` when
//! the group has no pattern. Steps, joins and filters are links of one
//! chain, which the evaluator walks with one `match` ([`crate::eval`]).
//! Aggregation is a link like the others: [`Plan::Group`] emits one
//! ordinary row per group, each count in the lane of its alias, and the
//! sort, projection and slice above it are the ones every SELECT has.
//!
//! Binding resolves every constant term to its dictionary id (or `None`
//! when the term does not occur in the data — such a pattern matches
//! nothing, which is how Q3c/Q12c become constant-time on any store) and
//! precomputes hash-join keys (shared *certain* variables). Residual
//! possibly-shared variables need no plan field: the evaluator's
//! [`crate::eval::Bindings::merge_into`] verifies *every* position at
//! merge time, which subsumes any explicit check list.
//!
//! Under [`OptimizerConfig::push_filters`] binding also moves conditions
//! into joins: a filter directly over an inner join becomes the join's
//! condition, and closed-world negation over an OPTIONAL becomes an
//! anti-join (see [`bind`]). The probe then checks each candidate on one
//! scratch row before it builds any.
//!
//! Binding is also where a pattern step learns whether it may *fetch*:
//! under [`OptimizerConfig::reorder_patterns`] every step that joins its
//! input through a variable gets a [`FetchRule`] — the number of index
//! lookups that cost as much as reading the whole pattern once. The
//! evaluator counts against it at run time ([`crate::eval`]).
//!
//! [`reuse_build_rows`] is the pass after binding that lets a join's
//! probe side read the join's own build rows where its chain would only
//! derive them again (Q4's two stars, Q6's negated star): the chain
//! becomes a [`Plan::Reuse`] leaf, and the star runs once.
//!
//! [`parallelize`] is the physical pass behind
//! [`crate::QueryOptions::parallelism`]: it inserts [`Plan::Exchange`]
//! above every pipeline whose driving source can be split into morsels.
//! Whether an execution actually fans out is the exchange's decision,
//! made while it runs (see [`crate::par`]).

use std::sync::Arc;

use sp2b_store::{Id, TripleStore};

use crate::algebra::{Algebra, CountSpec, EqPairs, Expr, ResolvedPattern, Slot};
use crate::expr::BoundExpr;
use crate::optimizer::OptimizerConfig;

/// A pattern slot bound to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSlot {
    /// Constant term: its id, or `None` if absent from the data.
    Const(Option<Id>),
    /// Variable by index.
    Var(usize),
}

/// A store-bound triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPattern {
    /// (s, p, o) slots.
    pub slots: [PlanSlot; 3],
    /// This occurrence's number in [`operators`] order — one numbering
    /// over pattern steps and joins — assigned by [`bind`]. It is what
    /// [`crate::eval::ScanCounters`] keys tallies by — two occurrences of
    /// the same slots (Q9's two `rdf:type foaf:Person` steps) stay apart
    /// — and the slot of [`crate::eval::EvalContext::steps`] the step's
    /// per-execution state lives in.
    pub ordinal: usize,
    /// When the step may stop looking its input rows up one by one and
    /// fetch the whole pattern instead; `None` keeps it on lookups.
    pub fetch: Option<FetchRule>,
    /// The rows the planner expects after this step: the estimate its
    /// ordering propagated through the steps before
    /// ([`ResolvedPattern::est_rows`]), or, for a BGP ordered without
    /// statistics, the store's estimate of the pattern's constants
    /// alone.
    pub est_rows: u64,
}

/// The largest pattern — in triples matching its constants — a step may
/// fetch. A fetched table lives as long as the execution, outside the disk
/// store's block cache, so this is what keeps `--cache-bytes` a promise
/// about memory: at most 768 KiB of triples (plus their hash index) per
/// fetching step, however large the document. Patterns above it are
/// looked up row by row, as before.
pub const FETCH_CAP: u64 = 1 << 16;

/// A pattern step's break-even between its two triple sources (see
/// [`crate::eval::PatternBind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRule {
    /// The store's estimate of the triples matching the pattern's
    /// constants alone: what one fetch reads, and so how many lookups the
    /// step issues before it has spent as much and fetches.
    pub after: u64,
    /// The positions the step's input rows bind through a variable — the
    /// key the fetched triples are grouped by.
    pub key: [bool; 3],
}

impl PlanPattern {
    /// Binds one step of a BGP whose earlier steps bind `bound`.
    fn bind(
        p: &ResolvedPattern,
        store: &dyn TripleStore,
        ordinal: usize,
        bound: Option<&[usize]>,
    ) -> Self {
        let bind_slot = |s: &Slot| match s {
            Slot::Const(t) => PlanSlot::Const(store.resolve(t)),
            Slot::Var(i) => PlanSlot::Var(*i),
        };
        let mut step = PlanPattern {
            slots: [bind_slot(&p.s), bind_slot(&p.p), bind_slot(&p.o)],
            ordinal,
            fetch: None,
            est_rows: 0,
        };
        step.fetch = bound.and_then(|bound| step.fetch_rule(store, bound));
        step.est_rows = match p.est_rows {
            _ if step.is_unsatisfiable() => 0,
            Some(rows) => rows,
            None => store.estimate(const_pattern(&step)),
        };
        step
    }

    /// The step's [`FetchRule`] given the variables its input binds:
    /// `None` when no position joins the input (the driving scan, a
    /// cartesian step — every lookup already is the whole pattern), when
    /// the pattern can match nothing, or when it is estimated above
    /// [`FETCH_CAP`].
    fn fetch_rule(&self, store: &dyn TripleStore, bound: &[usize]) -> Option<FetchRule> {
        let key = self
            .slots
            .map(|s| matches!(s, PlanSlot::Var(v) if bound.contains(&v)));
        if key == [false; 3] || self.is_unsatisfiable() {
            return None;
        }
        let after = store.estimate(const_pattern(self));
        (after <= FETCH_CAP).then_some(FetchRule { after, key })
    }

    /// True if a constant failed to resolve (pattern can never match).
    pub fn is_unsatisfiable(&self) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s, PlanSlot::Const(None)))
    }
}

/// ORDER BY key in the plan.
#[derive(Debug, Clone)]
pub enum PlanOrderKey {
    /// Order by a variable's term value (the common case).
    Var {
        /// Variable index.
        var: usize,
        /// Descending?
        descending: bool,
    },
    /// Order by a count ([`Plan::Group`]): its lane holds a number, not an
    /// id, and compares numerically.
    Count {
        /// The count's lane.
        lane: usize,
        /// Descending?
        descending: bool,
    },
    /// Order by an expression's effective boolean value (rare).
    Expr {
        /// The expression.
        expr: BoundExpr,
        /// Descending?
        descending: bool,
    },
}

/// The physical plan tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// The one empty row: what a group's first step extends, and what the
    /// filters of a group without patterns test.
    Unit,
    /// The build rows of the join numbered `join`, read back at the bottom
    /// of that join's probe chain in place of the steps that would derive
    /// them again ([`reuse_build_rows`]): each row, in the order it was
    /// filed, with its lanes renamed. The join fills its build side
    /// before it evaluates its probe side, so the rows are there.
    Reuse {
        /// The join's ordinal (see [`PlanPattern::ordinal`]): whose
        /// [`crate::eval::StepState`] holds the rows.
        join: usize,
        /// `(probe variable, build variable)`: the lanes the leaf fills,
        /// each from the build row's lane of the same star position.
        lanes: Vec<(usize, usize)>,
        /// The rows the replaced chain was estimated to emit.
        est_rows: u64,
    },
    /// One pattern step, an index nested loop: each row of `input`
    /// extended by the triples matching `pattern` under it. A step
    /// carrying a [`FetchRule`] may turn into a hash probe of its fetched
    /// pattern mid-execution. The step over [`Plan::Unit`] is a group's
    /// driving scan.
    Step {
        /// The rows to extend: the group's earlier steps and filters.
        input: Box<Plan>,
        /// The pattern.
        pattern: PlanPattern,
    },
    /// Hash join. Variables shared but only *possibly* bound on a side
    /// are not part of the key; they are enforced by the evaluator's
    /// full-row merge ([`crate::eval::Bindings::merge_into`]). With `key`
    /// and `eq` both empty it degenerates to a nested loop over the whole
    /// build side. Each candidate is merged into one scratch row and
    /// `condition` is evaluated there, so a candidate that fails it costs
    /// no row; `kind` says what the candidates that pass — the probe
    /// row's *matches* — become.
    Join {
        /// Probe side (streamed).
        left: Box<Plan>,
        /// Build side (materialized).
        right: Box<Plan>,
        /// Hash-key variables (certainly bound on both sides), joined by
        /// dictionary id.
        key: Vec<usize>,
        /// Further key components from `?l = ?r` conjuncts the optimizer
        /// recognised (see [`crate::algebra::EqPairs`]): the probe row's
        /// `?l` and the build row's `?r` must fall in one SPARQL-`=`
        /// equality class. The conjunct itself still decides, in
        /// `condition` or in a filter above.
        eq: EqPairs,
        /// Inner, OPTIONAL or anti-join.
        kind: JoinKind,
        /// What a merged row must satisfy to be a match: an OPTIONAL's
        /// condition, or the filter over an inner join (see [`bind`]).
        condition: Option<BoundExpr>,
        /// The rows the planner expects the join to emit: the optimizer's
        /// estimate for a join it planned by splitting a BGP; for an
        /// OPTIONAL or anti-join, the probe side's estimate (it emits at
        /// least, or at most, one row per probe row); otherwise the
        /// build side's driving scan.
        est_rows: u64,
        /// Position in the operator numbering (see
        /// [`PlanPattern::ordinal`]) — what join tallies are keyed by.
        ordinal: usize,
    },
    /// Concatenation.
    Union(Box<Plan>, Box<Plan>),
    /// Row filter.
    Filter(BoundExpr, Box<Plan>),
    /// Order-preserving duplicate elimination.
    Distinct(Box<Plan>),
    /// Keep only the given variables bound.
    Project(Vec<usize>, Box<Plan>),
    /// Materializing sort.
    OrderBy(Vec<PlanOrderKey>, Box<Plan>),
    /// OFFSET/LIMIT.
    Slice {
        /// Rows to skip.
        offset: u64,
        /// Max rows.
        limit: Option<u64>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// GROUP BY + COUNT (the aggregation extension), materializing: one
    /// ordinary row per group of `input`'s rows, with the group's key ids
    /// in the `keys` lanes and each count, as a number, in its
    /// [`CountSpec::lane`]. Sorting, slicing and counting the groups is
    /// what the operators above do to any rows.
    Group {
        /// Group-key variables (none: one implicit group).
        keys: Vec<usize>,
        /// The counts.
        counts: Vec<CountSpec>,
        /// The rows to group.
        input: Box<Plan>,
    },
    /// Morsel-driven execution (inserted by [`parallelize`]): the driving
    /// source of `input` ([`driving`]) — at the bottom of the leftmost
    /// chain, reached through steps, join probe sides and filters — is
    /// split into disjoint morsels, chunks of a step's scan via
    /// [`sp2b_store::TripleStore::scan_chunks`] or ranges of the build
    /// rows a [`Plan::Reuse`] leaf reads, and `input` is
    /// evaluated once per morsel: on the consumer's thread at first, on
    /// `degree` worker threads once the execution has proved long, all
    /// sharing its build sides and fetched tables. Per-morsel results
    /// come out in morsel order, so the output order equals sequential
    /// evaluation. See [`crate::par`].
    Exchange {
        /// Worker threads a fan-out starts (always ≥ 2; a degree of 1 is
        /// never planned — sequential plans simply omit the operator).
        degree: usize,
        /// The plan each worker evaluates per morsel — shared with the
        /// workers, which outlive the borrow an evaluation holds.
        input: Arc<Plan>,
    },
}

/// What a [`Plan::Join`] emits per probe row, given its matches: the
/// merges with build rows that pass the join's condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Every match.
    Inner,
    /// Every match, or the probe row itself when it has none (OPTIONAL).
    Optional,
    /// The probe row itself when it has no match, otherwise nothing: the
    /// probe stops at the first match.
    Anti,
}

/// Binds an algebra tree to a store, numbering operators in
/// [`operators`] order (see [`PlanPattern::ordinal`]). Pattern steps get
/// their [`FetchRule`]s when `cfg` reorders patterns — the planner whose
/// cost model charges a step the cheaper of per-row lookups and one
/// fetch; the unordered configurations (`mem-naive`, `native-base`) stay
/// on lookups throughout and serve as the oracle.
///
/// When `cfg` pushes filters, a filter moves into the join below it:
/// - `Filter(e, Join(a, b))` binds as an inner join with condition `e` —
///   what is left there spans both sides (Q4's `?name1 < ?name2`);
/// - `Filter(e, LeftJoin(a, b, c))` binds as an anti-join with condition
///   `c` under a filter of `e`'s other conjuncts, when `e` negates a
///   variable only `b` binds (`negation_rest`: Q6, Q7);
/// - any other filter over an OPTIONAL stays above it, which is also
///   what the naive configurations keep for the oracle.
pub fn bind(algebra: &Algebra, store: &dyn TripleStore, cfg: &OptimizerConfig) -> Plan {
    Binder {
        store,
        cfg,
        next: 0,
    }
    .plan(algebra)
}

/// The state of one [`bind`]: the next operator ordinal.
struct Binder<'s> {
    store: &'s dyn TripleStore,
    cfg: &'s OptimizerConfig,
    next: usize,
}

impl Binder<'_> {
    /// Sub-plans bind left to right, the order `operators` walks.
    fn sub(&mut self, algebra: &Algebra) -> Box<Plan> {
        Box::new(self.plan(algebra))
    }

    fn plan(&mut self, algebra: &Algebra) -> Plan {
        let store = self.store;
        let filter =
            |e: &Expr, inner: Plan| Plan::Filter(BoundExpr::bind(e, store), Box::new(inner));
        match algebra {
            Algebra::Bgp {
                patterns,
                inline_filters,
            } => {
                // A group starts from one empty row, so what a step's input
                // binds is exactly the variables of the steps before it.
                let fetch = self.cfg.reorder_patterns;
                let mut bound: Vec<usize> = Vec::new();
                let mut plan = Plan::Unit;
                for (pos, p) in patterns.iter().enumerate() {
                    let ordinal = self.ordinal();
                    let pattern = PlanPattern::bind(p, store, ordinal, fetch.then_some(&bound));
                    bound.extend(p.variables());
                    plan = Plan::Step {
                        input: Box::new(plan),
                        pattern,
                    };
                    for (_, e) in inline_filters.iter().filter(|(at, _)| *at == pos) {
                        plan = filter(e, plan);
                    }
                }
                // A group without patterns tests its filters on the one
                // empty row.
                if patterns.is_empty() {
                    for (_, e) in inline_filters {
                        plan = filter(e, plan);
                    }
                }
                plan
            }
            Algebra::Join(a, b, eq, est_rows) => {
                self.join(a, b, eq, JoinKind::Inner, None, *est_rows)
            }
            Algebra::LeftJoin(a, b, cond, eq) => {
                self.join(a, b, eq, JoinKind::Optional, cond.as_ref(), None)
            }
            // The filter decides on the merged row: it is the join's
            // condition.
            Algebra::Filter(e, inner) if self.cfg.push_filters => match inner.as_ref() {
                Algebra::Join(a, b, eq, est_rows) => {
                    self.join(a, b, eq, JoinKind::Inner, Some(e), *est_rows)
                }
                Algebra::LeftJoin(a, b, cond, eq) => match negation_rest(e, a, b) {
                    Some(rest) => {
                        let anti = self.join(a, b, eq, JoinKind::Anti, cond.as_ref(), None);
                        match Expr::fold_and(rest) {
                            Some(rest) => filter(&rest, anti),
                            None => anti,
                        }
                    }
                    None => filter(e, self.plan(inner)),
                },
                _ => filter(e, self.plan(inner)),
            },
            Algebra::Filter(e, inner) => filter(e, self.plan(inner)),
            Algebra::Union(a, b) => Plan::Union(self.sub(a), self.sub(b)),
            Algebra::Distinct(inner) => Plan::Distinct(self.sub(inner)),
            Algebra::Project(vars, inner) => Plan::Project(vars.clone(), self.sub(inner)),
            Algebra::OrderBy(keys, inner) => Plan::OrderBy(
                keys.iter()
                    .map(|k| match &k.expr {
                        Expr::Var(i) if k.count => PlanOrderKey::Count {
                            lane: *i,
                            descending: k.descending,
                        },
                        Expr::Var(i) => PlanOrderKey::Var {
                            var: *i,
                            descending: k.descending,
                        },
                        other => PlanOrderKey::Expr {
                            expr: BoundExpr::bind(other, store),
                            descending: k.descending,
                        },
                    })
                    .collect(),
                self.sub(inner),
            ),
            Algebra::Slice {
                offset,
                limit,
                input,
            } => Plan::Slice {
                offset: *offset,
                limit: *limit,
                input: self.sub(input),
            },
            Algebra::Group {
                keys,
                counts,
                input,
            } => Plan::Group {
                keys: keys.clone(),
                counts: counts.clone(),
                input: self.sub(input),
            },
        }
    }

    /// Binds a join of `a` (probe side) and `b` (build side); `est_rows`
    /// is the optimizer's estimate, when it has one.
    fn join(
        &mut self,
        a: &Algebra,
        b: &Algebra,
        eq: &EqPairs,
        kind: JoinKind,
        condition: Option<&Expr>,
        est_rows: Option<u64>,
    ) -> Plan {
        let left = self.plan(a);
        let right = self.plan(b);
        let est_rows = match (kind, est_rows, driving(&right)) {
            (JoinKind::Inner, Some(rows), _) => rows,
            (JoinKind::Inner, None, Some(Driving::Scan(p))) => p.est_rows,
            (JoinKind::Inner, None, _) => 0,
            (JoinKind::Optional | JoinKind::Anti, ..) => output_estimate(&left),
        };
        Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            key: join_key(a, b),
            eq: eq.clone(),
            kind,
            condition: condition.map(|c| BoundExpr::bind(c, self.store)),
            est_rows,
            ordinal: self.ordinal(),
        }
    }

    fn ordinal(&mut self) -> usize {
        self.next += 1;
        self.next - 1
    }
}

/// Closed-world negation: when a top-level conjunct of `e` is
/// `!bound(?v)` with `?v` certainly bound by `b` and never mentioned by
/// `a`, `Filter(e, LeftJoin(a, b, c))` is `Filter(rest, anti-join of a
/// and b on c)` — and this returns `rest`, the other conjuncts. Exact: a
/// merged row binds `?v` (every row of `b` does) and fails the conjunct;
/// a preserved row of `a` leaves `?v` unbound and passes it. `None` when
/// no conjunct qualifies; one under `||` or `!` is not a conjunct.
fn negation_rest(e: &Expr, a: &Algebra, b: &Algebra) -> Option<Vec<Expr>> {
    let (certain, mentioned) = (b.certain_vars(), a.all_vars());
    let negates = |c: &Expr| match c {
        Expr::Not(inner) => matches!(**inner, Expr::Bound(v)
            if certain.contains(&v) && !mentioned.contains(&v)),
        _ => false,
    };
    let (negations, rest): (Vec<Expr>, Vec<Expr>) =
        e.clone().conjuncts().into_iter().partition(negates);
    (!negations.is_empty()).then_some(rest)
}

/// The rows `plan` is estimated to emit, as far as its operators carry
/// estimates: a chain's last step, a join's own.
pub(crate) fn output_estimate(plan: &Plan) -> u64 {
    match plan {
        Plan::Unit => 1,
        Plan::Reuse { est_rows, .. } => *est_rows,
        Plan::Step { pattern, .. } => pattern.est_rows,
        Plan::Join { est_rows, .. } => *est_rows,
        Plan::Union(a, b) => output_estimate(a).saturating_add(output_estimate(b)),
        Plan::Filter(_, inner)
        | Plan::Distinct(inner)
        | Plan::Project(_, inner)
        | Plan::OrderBy(_, inner) => output_estimate(inner),
        Plan::Slice { input, .. } | Plan::Group { input, .. } => output_estimate(input),
        Plan::Exchange { input, .. } => output_estimate(input),
    }
}

/// Hash-join key: the variables certainly bound on both sides. Shared
/// variables that are only *possibly* bound on a side (e.g. bound inside
/// an OPTIONAL) must not key the hash table — they are enforced at merge
/// time by [`crate::eval::Bindings::merge_into`], which compares every
/// position of both rows.
fn join_key(a: &Algebra, b: &Algebra) -> Vec<usize> {
    let ca = a.certain_vars();
    let cb = b.certain_vars();
    ca.iter().copied().filter(|v| cb.contains(v)).collect()
}

// ---------------------------------------------------------------------------
// Reuse (a join's probe side reads the join's build rows)
// ---------------------------------------------------------------------------

/// Lets a join's probe side read the join's own build rows where the
/// bottom of its chain would only derive them again. The paper's two
/// heaviest queries repeat a star on both sides of a join: Q4 pairs two
/// `article–creator–name–journal` stars on `?journal`, and Q6's negation
/// probes with the `subClassOf–type–issued–creator` star it anti-joins
/// against. The bottom of the probe chain becomes a [`Plan::Reuse`] leaf,
/// so the star runs once — as the build side the join fills before it
/// probes anyway — and the operators are numbered again. Planning it is
/// linear in the steps.
///
/// A join qualifies when its build side is a chain of steps and filters
/// over [`Plan::Unit`], possibly deduplicated (below), and the bottom of
/// its probe chain equals that chain under a bijection of variables:
/// step for step the same constants, a variable repeated where the other
/// repeats one, the same fetch rule, the same filters. The join must pair
/// the star with itself: a key variable the star binds maps to itself,
/// and an eq pair's probe variable to the pair's build variable (Q4's
/// `?journal`; Q6's `?author` and `?author2`). Reading the rows back is
/// exact: a chain over the one empty row derives its rows from its
/// patterns alone, so the build rows, renamed, are the rows the probe
/// chain would have derived, in its order.
///
/// A build side the optimizer deduplicated under a DISTINCT —
/// `Distinct(Project(keep, chain))`, see [`crate::optimizer`] — holds one
/// row per value of `keep`. The probe reads those rows only when the same
/// argument holds of it: a DISTINCT sits above with nothing but
/// projections, filters, joins and unions between, and every probe
/// variable something above the leaf reads maps into `keep`. A probe row
/// that repeats an earlier one on everything read of it then only adds
/// rows that repeat earlier ones, which the DISTINCT drops, so its output
/// sequence is unchanged; and the rows are deduplicated once, globally,
/// so what each operator emits does not depend on the degree. Otherwise
/// the join keeps its chain.
///
/// Only configurations that reorder patterns plan reuse — the naive ones
/// are the oracle — and an ASK plans none (its symmetric inner join fills
/// no build side first): [`crate::QueryEngine::prepare`] leaves the pass
/// out for it.
pub fn reuse_build_rows(mut plan: Plan, cfg: &OptimizerConfig) -> Plan {
    if cfg.reorder_patterns {
        reuse(&mut plan, &[], false);
        number(&mut plan, &mut 0);
    }
    plan
}

/// `vars` and `more`, each once.
fn union(vars: &[usize], more: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut out = vars.to_vec();
    for v in more {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// The variables a pattern names.
fn pattern_vars(pattern: &PlanPattern) -> impl Iterator<Item = usize> + '_ {
    pattern.slots.iter().filter_map(|slot| match slot {
        PlanSlot::Var(v) => Some(*v),
        PlanSlot::Const(_) => None,
    })
}

/// The variables `plan`'s rows may bind.
fn vars_of(plan: &Plan) -> Vec<usize> {
    match plan {
        Plan::Unit => Vec::new(),
        Plan::Reuse { lanes, .. } => lanes.iter().map(|&(to, _)| to).collect(),
        Plan::Step { input, pattern } => union(&vars_of(input), pattern_vars(pattern)),
        Plan::Join { left, right, .. } | Plan::Union(left, right) => {
            union(&vars_of(left), vars_of(right))
        }
        Plan::Project(vars, _) => vars.clone(),
        Plan::Group { keys, counts, .. } => union(keys, counts.iter().map(|c| c.lane)),
        Plan::Filter(_, inner) | Plan::Distinct(inner) | Plan::OrderBy(_, inner) => vars_of(inner),
        Plan::Slice { input, .. } => vars_of(input),
        Plan::Exchange { input, .. } => vars_of(input),
    }
}

/// [`reuse_build_rows`] below an operator that reads the variables
/// `observed` of `plan`'s rows — with `distinct`, one under a DISTINCT
/// that only projections, filters, joins and unions separate from it.
fn reuse(plan: &mut Plan, observed: &[usize], distinct: bool) {
    match plan {
        Plan::Unit | Plan::Reuse { .. } | Plan::Exchange { .. } => {}
        Plan::Step { input, pattern } => {
            reuse(input, &union(observed, pattern_vars(pattern)), distinct)
        }
        Plan::Filter(e, inner) => reuse(inner, &union(observed, e.variables()), distinct),
        Plan::Distinct(inner) => {
            let keyed = union(observed, vars_of(inner));
            reuse(inner, &keyed, true)
        }
        Plan::Project(vars, inner) => reuse(inner, vars, distinct),
        // A sort, a slice and a count each observe how many rows there
        // are, or in which order equal ones come.
        Plan::OrderBy(keys, inner) => {
            let read = keys.iter().flat_map(|k| match k {
                PlanOrderKey::Var { var, .. } => vec![*var],
                PlanOrderKey::Count { lane, .. } => vec![*lane],
                PlanOrderKey::Expr { expr, .. } => expr.variables(),
            });
            reuse(inner, &union(observed, read), false)
        }
        Plan::Slice { input, .. } => reuse(input, observed, false),
        Plan::Group {
            keys,
            counts,
            input,
        } => reuse(
            input,
            &union(keys, counts.iter().filter_map(|c| c.target)),
            false,
        ),
        Plan::Union(a, b) => {
            reuse(a, observed, distinct);
            reuse(b, observed, distinct);
        }
        Plan::Join {
            left,
            right,
            key,
            eq,
            condition,
            ..
        } => {
            // A join reads its key and condition, and its merge compares
            // every lane the other side binds.
            let cond = condition.as_ref().map(BoundExpr::variables);
            let at_join = union(
                &union(observed, key.iter().copied()),
                cond.into_iter().flatten(),
            );
            let probe_reads = union(&at_join, eq.iter().map(|&(l, _)| l).chain(vars_of(right)));
            let build_reads = union(&at_join, eq.iter().map(|&(_, r)| r).chain(vars_of(left)));
            if let Some((depth, leaf)) = reused_chain(left, right, key, eq, &probe_reads, distinct)
            {
                *chain_link(left, depth) = leaf;
            }
            reuse(left, &probe_reads, distinct);
            reuse(right, &build_reads, distinct);
        }
    }
}

/// The links — steps and filters — of the chain `plan` tops, first link
/// first; `None` unless it bottoms out in [`Plan::Unit`].
fn chain_links(plan: &Plan) -> Option<Vec<&Plan>> {
    let mut links = Vec::new();
    let mut at = plan;
    loop {
        match at {
            Plan::Step { input, .. } | Plan::Filter(_, input) => {
                links.push(at);
                at = input;
            }
            Plan::Unit => break,
            _ => return None,
        }
    }
    links.reverse();
    Some(links)
}

/// The link `depth` links below the top of the chain `plan` tops, or its
/// bottom if the chain is shorter.
fn chain_link(plan: &mut Plan, depth: usize) -> &mut Plan {
    if depth == 0 {
        return plan;
    }
    match plan {
        Plan::Step { input, .. } | Plan::Filter(_, input) => chain_link(input, depth - 1),
        other => other,
    }
}

/// A bijection between the variables of two chains, grown link by link.
#[derive(Default)]
struct Renaming(Vec<(usize, usize)>);

impl Renaming {
    /// Pairs probe variable `a` with build variable `b`: false when either
    /// is already paired with another.
    fn pair(&mut self, a: usize, b: usize) -> bool {
        match self.0.iter().find(|&&(x, y)| x == a || y == b) {
            Some(&pair) => pair == (a, b),
            None => {
                self.0.push((a, b));
                true
            }
        }
    }

    /// The build variable `a` is paired with.
    fn of(&self, a: usize) -> Option<usize> {
        self.0.iter().find(|&&(x, _)| x == a).map(|&(_, y)| y)
    }

    /// Whether links `a` (probe side) and `b` (build side) are the same
    /// under the renaming, extended as they require.
    fn same_link(&mut self, a: &Plan, b: &Plan) -> bool {
        match (a, b) {
            (Plan::Step { pattern: p, .. }, Plan::Step { pattern: q, .. }) => {
                p.fetch == q.fetch
                    && p.slots.iter().zip(&q.slots).all(|pair| match pair {
                        (PlanSlot::Var(x), PlanSlot::Var(y)) => self.pair(*x, *y),
                        (x, y) => x == y,
                    })
            }
            (Plan::Filter(e, _), Plan::Filter(f, _)) => self.same_expr(e, f),
            _ => false,
        }
    }

    fn same_expr(&mut self, a: &BoundExpr, b: &BoundExpr) -> bool {
        use BoundExpr::{And, Bound, Compare, Const, Not, Or, Var};
        match (a, b) {
            (Var(x), Var(y)) | (Bound(x), Bound(y)) => self.pair(*x, *y),
            (Const(i, s), Const(j, t)) => i == j && s == t,
            (Not(x), Not(y)) => self.same_expr(x, y),
            (And(a1, a2), And(b1, b2)) | (Or(a1, a2), Or(b1, b2)) => {
                self.same_expr(a1, b1) && self.same_expr(a2, b2)
            }
            (Compare(o, a1, a2), Compare(p, b1, b2)) => {
                o == p && self.same_expr(a1, b1) && self.same_expr(a2, b2)
            }
            _ => false,
        }
    }
}

/// Whether `probe`, a join's probe side, may read the join's build rows
/// (see [`reuse_build_rows`]): how many links above its chain's bottom
/// the leaf goes, and the leaf — numbered later. `read` is what the
/// operators above the probe side read of its rows.
fn reused_chain(
    probe: &Plan,
    build: &Plan,
    key: &[usize],
    eq: &EqPairs,
    read: &[usize],
    distinct: bool,
) -> Option<(usize, Plan)> {
    let (build, keep) = match build {
        Plan::Distinct(inner) => match inner.as_ref() {
            Plan::Project(keep, chain) => (chain.as_ref(), Some(keep)),
            _ => return None,
        },
        chain => (chain, None),
    };
    let (links, star) = (chain_links(probe)?, chain_links(build)?);
    let depth = links.len().checked_sub(star.len())?;
    if !star.iter().any(|link| matches!(link, Plan::Step { .. })) {
        return None;
    }
    let mut names = Renaming::default();
    if !links.iter().zip(&star).all(|(a, b)| names.same_link(a, b)) {
        return None;
    }
    let pairs_itself = key.iter().all(|&k| names.of(k).is_none_or(|b| b == k))
        && eq.iter().all(|&(l, r)| names.of(l).is_none_or(|b| b == r));
    if !pairs_itself {
        return None;
    }
    let lanes: Vec<(usize, usize)> = match keep {
        None => names.0,
        Some(keep) => {
            // What the links above the leaf read is read of it too.
            let above = links[star.len()..].iter().flat_map(|link| match link {
                Plan::Step { pattern, .. } => pattern_vars(pattern).collect(),
                Plan::Filter(e, _) => e.variables(),
                _ => Vec::new(),
            });
            let read = union(read, above);
            let kept = |&(_, b): &(usize, usize)| keep.contains(&b);
            let unread = |&(a, _): &(usize, usize)| !read.contains(&a);
            if !distinct || !names.0.iter().all(|pair| kept(pair) || unread(pair)) {
                return None;
            }
            names.0.into_iter().filter(kept).collect()
        }
    };
    let est_rows = output_estimate(links[star.len() - 1]);
    Some((
        depth,
        Plan::Reuse {
            join: usize::MAX,
            lanes,
            est_rows,
        },
    ))
}

/// Numbers the operators of `plan` from `next` on, in [`operators`]
/// order, and points each [`Plan::Reuse`] leaf at its join's number.
fn number(plan: &mut Plan, next: &mut usize) {
    fn take(next: &mut usize) -> usize {
        *next += 1;
        *next - 1
    }
    match plan {
        Plan::Unit | Plan::Reuse { .. } => {}
        Plan::Step { input, pattern } => {
            number(input, next);
            pattern.ordinal = take(next);
        }
        Plan::Join {
            left,
            right,
            ordinal,
            ..
        } => {
            number(left, next);
            number(right, next);
            *ordinal = take(next);
            if let Plan::Reuse { join, .. } = chain_link(left, usize::MAX) {
                *join = *ordinal;
            }
        }
        Plan::Union(a, b) => {
            number(a, next);
            number(b, next);
        }
        Plan::Filter(_, inner)
        | Plan::Distinct(inner)
        | Plan::Project(_, inner)
        | Plan::OrderBy(_, inner) => number(inner, next),
        Plan::Slice { input, .. } | Plan::Group { input, .. } => number(input, next),
        Plan::Exchange { input, .. } => number(Arc::make_mut(input), next),
    }
}

// ---------------------------------------------------------------------------
// Parallelization (the physical pass behind QueryOptions::parallelism)
// ---------------------------------------------------------------------------

/// Inserts [`Plan::Exchange`] operators for a target `degree` of
/// parallelism. The pass descends through merge-side operators (project,
/// sort, distinct, grouping, union branches) and wraps each pipeline
/// segment — a chain of steps, joins and filters — with a driving source.
/// Nothing is estimated here: an exchange runs on its consumer's thread
/// until the execution has earned its workers ([`crate::par`]), so one
/// above a short pipeline costs nothing. With `degree <= 1` the plan is
/// returned unchanged.
///
/// `Slice` is a barrier: LIMIT/OFFSET execute as a lazy skip/take, and
/// an exchange below them that does fan out would run ahead of a
/// consumer about to hang up. The pass only crosses a `Slice` when a
/// materializing sort sits directly beneath it (the `ORDER BY … LIMIT`
/// shape, e.g. Q11), where laziness is already gone.
pub fn parallelize(plan: Plan, degree: usize) -> Plan {
    if degree <= 1 {
        return plan;
    }
    let sub = |inner: Box<Plan>| Box::new(parallelize(*inner, degree));
    match plan {
        Plan::Project(vars, inner) => Plan::Project(vars, sub(inner)),
        Plan::OrderBy(keys, inner) => Plan::OrderBy(keys, sub(inner)),
        Plan::Distinct(inner) => Plan::Distinct(sub(inner)),
        // Keep a lazy skip/take lazy: no exchange below it.
        Plan::Slice {
            offset,
            limit,
            input,
        } => Plan::Slice {
            offset,
            limit,
            input: if materializes_anyway(&input) {
                sub(input)
            } else {
                input
            },
        },
        Plan::Group {
            keys,
            counts,
            input,
        } => Plan::Group {
            keys,
            counts,
            input: sub(input),
        },
        Plan::Union(a, b) => Plan::Union(sub(a), sub(b)),
        // What an exchange can run per morsel is what has a driving
        // source: a chain that bottoms out in a step over `Unit` or in a
        // reuse leaf. (An exchange has none: the pass is idempotent.)
        other => match driving(&other) {
            Some(_) => Plan::Exchange {
                degree,
                input: Arc::new(other),
            },
            None => other,
        },
    }
}

/// True when a `Slice` input materializes regardless of parallelism — a
/// sort somewhere beneath its streaming wrappers (the `ORDER BY … LIMIT`
/// shape binds as `Slice(Project(OrderBy(…)))`). Only then is an
/// exchange below the slice free of a laziness cost.
fn materializes_anyway(plan: &Plan) -> bool {
    match plan {
        Plan::OrderBy(..) => true,
        Plan::Project(_, inner) | Plan::Distinct(inner) => materializes_anyway(inner),
        _ => false,
    }
}

/// Whether a plan tree contains a [`Plan::Exchange`].
pub fn has_exchange(plan: &Plan) -> bool {
    !exchanges(plan).is_empty()
}

/// Every [`Plan::Exchange`] of the plan, in plan order, as its degree and
/// the ordinal of the operator its morsels come from ([`Driving::ordinal`]).
pub fn exchanges(plan: &Plan) -> Vec<(usize, usize)> {
    fn walk(plan: &Plan, out: &mut Vec<(usize, usize)>) {
        match plan {
            // `parallelize` only wraps what has a driving source, and
            // never nests exchanges.
            Plan::Exchange { degree, input } => {
                out.extend(driving(input).map(|source| (*degree, source.ordinal())));
            }
            Plan::Unit | Plan::Reuse { .. } | Plan::Step { .. } => {}
            Plan::Join { left, right, .. } | Plan::Union(left, right) => {
                walk(left, out);
                walk(right, out);
            }
            Plan::Filter(_, inner)
            | Plan::Distinct(inner)
            | Plan::Project(_, inner)
            | Plan::OrderBy(_, inner) => walk(inner, out),
            Plan::Slice { input, .. } | Plan::Group { input, .. } => walk(input, out),
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// One instrumented operator of a plan (see [`operators`]).
#[derive(Debug, Clone, Copy)]
pub enum Operator<'p> {
    /// A pattern step.
    Scan(&'p PlanPattern),
    /// A [`Plan::Join`] node.
    Join {
        /// The node's `kind`.
        kind: JoinKind,
        /// The materialized side.
        build: &'p Plan,
        /// The lanes of the [`Plan::Reuse`] leaf its probe side reads its
        /// build rows through, if it does.
        reuse: Option<&'p [(usize, usize)]>,
        /// The node's `key`.
        key: &'p [usize],
        /// The node's `eq`.
        eq: &'p [(usize, usize)],
        /// Whether the node carries a condition to check.
        residual: bool,
        /// The node's `est_rows`.
        est_rows: u64,
        /// The node's `ordinal`.
        ordinal: usize,
    },
}

/// Every instrumented operator of the plan in ordinal order: the pattern
/// steps in join order (probe side before build side), each join
/// after both its inputs — the order of [`crate::query_trace`]'s spans,
/// which `--explain` numbers its steps by.
pub fn operators(plan: &Plan) -> Vec<Operator<'_>> {
    fn walk<'p>(plan: &'p Plan, out: &mut Vec<Operator<'p>>) {
        match plan {
            Plan::Unit | Plan::Reuse { .. } => {}
            Plan::Step { input, pattern } => {
                walk(input, out);
                out.push(Operator::Scan(pattern));
            }
            Plan::Join {
                left,
                right,
                key,
                eq,
                kind,
                condition,
                est_rows,
                ordinal,
            } => {
                walk(left, out);
                walk(right, out);
                out.push(Operator::Join {
                    kind: *kind,
                    build: right,
                    reuse: match chain_bottom(left) {
                        Plan::Reuse { lanes, .. } => Some(lanes),
                        _ => None,
                    },
                    key,
                    eq,
                    residual: condition.is_some(),
                    est_rows: *est_rows,
                    ordinal: *ordinal,
                });
            }
            Plan::Union(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Plan::Filter(_, inner)
            | Plan::Distinct(inner)
            | Plan::Project(_, inner)
            | Plan::OrderBy(_, inner) => walk(inner, out),
            Plan::Slice { input, .. } | Plan::Group { input, .. } => walk(input, out),
            Plan::Exchange { input, .. } => walk(input, out),
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// Where a pipeline's rows start, which an exchange splits into morsels
/// (see [`driving`]).
#[derive(Debug, Clone, Copy)]
pub enum Driving<'p> {
    /// The step over [`Plan::Unit`]: its scan is split into chunks.
    Scan(&'p PlanPattern),
    /// A [`Plan::Reuse`] leaf: the build rows of the join it names are
    /// split into ranges.
    Rows {
        /// The join's ordinal.
        join: usize,
    },
}

impl Driving<'_> {
    /// The operator whose span records where the morsels ran: the
    /// driving step, or the join whose build rows are split.
    pub fn ordinal(&self) -> usize {
        match self {
            Driving::Scan(step) => step.ordinal,
            Driving::Rows { join } => *join,
        }
    }
}

/// The driving source of a pipeline: what sits at the bottom of the
/// leftmost chain, reached through earlier steps, join probe (streamed)
/// sides and filters — a step over [`Plan::Unit`] or a [`Plan::Reuse`]
/// leaf. `None` when the pipeline has none to partition (e.g. a union,
/// or a group without patterns).
pub fn driving(plan: &Plan) -> Option<Driving<'_>> {
    match plan {
        Plan::Step { input, pattern } if matches!(**input, Plan::Unit) => {
            Some(Driving::Scan(pattern))
        }
        Plan::Reuse { join, .. } => Some(Driving::Rows { join: *join }),
        Plan::Step { input, .. } | Plan::Filter(_, input) => driving(input),
        Plan::Join { left, .. } => driving(left),
        _ => None,
    }
}

/// The bottom of the chain of steps and filters `plan` tops: [`Plan::Unit`]
/// for a group's chain, or what else ends it.
fn chain_bottom(plan: &Plan) -> &Plan {
    match plan {
        Plan::Step { input, .. } | Plan::Filter(_, input) => chain_bottom(input),
        other => other,
    }
}

/// The store pattern of a plan pattern's constant slots — exactly the
/// pattern the driving scan issues for an empty input row (variables
/// unbound).
pub(crate) fn const_pattern(p: &PlanPattern) -> sp2b_store::Pattern {
    let mut out: sp2b_store::Pattern = [None, None, None];
    for (i, slot) in p.slots.iter().enumerate() {
        if let PlanSlot::Const(Some(id)) = slot {
            out[i] = Some(*id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::translate;
    use crate::parser::parse;
    use crate::testing::load;
    use sp2b_rdf::{Graph, Iri, Subject, Term};
    use sp2b_store::{ShardBackend, ShardedStore};

    /// Lookup-only plans: what these tests are about does not depend on
    /// fetch rules.
    fn bind(algebra: &Algebra, store: &dyn TripleStore) -> Plan {
        super::bind(algebra, store, &OptimizerConfig::default())
    }

    fn store() -> ShardedStore {
        let mut g = Graph::new();
        g.add(
            Subject::iri("http://x/s"),
            Iri::new("http://x/p"),
            Term::iri("http://x/o"),
        );
        load(&g, ShardBackend::Mem)
    }

    #[test]
    fn binding_resolves_constants() {
        let t = translate(&parse("SELECT ?s WHERE { ?s <http://x/p> <http://x/o> }").unwrap());
        let plan = bind(&t.algebra, &store());
        let Plan::Project(_, inner) = plan else {
            panic!()
        };
        let Plan::Step { pattern, .. } = *inner else {
            panic!()
        };
        assert!(!pattern.is_unsatisfiable());
        assert!(matches!(pattern.slots[1], PlanSlot::Const(Some(_))));
    }

    #[test]
    fn missing_constant_marks_unsatisfiable() {
        let t = translate(&parse("SELECT ?s WHERE { ?s <http://x/nope> ?o }").unwrap());
        let plan = bind(&t.algebra, &store());
        let Plan::Project(_, inner) = plan else {
            panic!()
        };
        let Plan::Step { pattern, .. } = *inner else {
            panic!()
        };
        assert!(pattern.is_unsatisfiable());
    }

    #[test]
    fn join_keys_are_shared_certain_vars() {
        let t = translate(
            &parse("SELECT ?x WHERE { { ?x <http://x/p> ?y } { ?x <http://x/p> ?z } }").unwrap(),
        );
        let plan = bind(&t.algebra, &store());
        let Plan::Project(_, inner) = plan else {
            panic!()
        };
        let Plan::Join { key, .. } = *inner else {
            panic!("{inner:?}")
        };
        assert_eq!(key, vec![t.vars.lookup("x").unwrap()]);
    }

    #[test]
    fn possibly_bound_shared_var_stays_out_of_key() {
        // ?c appears in both branches but is only *possibly* bound on the
        // left (inside an OPTIONAL): it must not enter the hash key — the
        // evaluator's full-row merge enforces it instead (see
        // eval::tests::join_merges_possibly_bound_shared_variable).
        let t = translate(
            &parse(
                "SELECT ?a WHERE {
                    { ?a <http://x/p> ?b OPTIONAL { ?b <http://x/q> ?c } }
                    { ?a <http://x/r> ?c }
                 }",
            )
            .unwrap(),
        );
        let plan = bind(&t.algebra, &store());
        let Plan::Project(_, inner) = plan else {
            panic!()
        };
        let Plan::Join { key, .. } = *inner else {
            panic!("{inner:?}")
        };
        let a = t.vars.lookup("a").unwrap();
        let c = t.vars.lookup("c").unwrap();
        assert_eq!(key, vec![a], "only the certainly-shared var keys the join");
        assert!(!key.contains(&c), "?c is not certain on the left");
    }

    /// The kind of every join of `query`'s plan under `cfg`, in operator
    /// order, and whether a filter is left anywhere in the plan.
    fn join_kinds(query: &str, cfg: &OptimizerConfig) -> (Vec<JoinKind>, bool) {
        fn has_filter(plan: &Plan) -> bool {
            match plan {
                Plan::Filter(..) => true,
                Plan::Join { left, right, .. } => has_filter(left) || has_filter(right),
                Plan::Project(_, inner) => has_filter(inner),
                _ => false,
            }
        }
        let store = store();
        let t = translate(&parse(query).unwrap());
        let algebra = crate::optimizer::optimize(t.algebra, &store, cfg, &t.projection);
        let plan = super::bind(&algebra, &store, cfg);
        let kinds = operators(&plan)
            .into_iter()
            .filter_map(|op| match op {
                Operator::Join { kind, .. } => Some(kind),
                Operator::Scan(_) => None,
            })
            .collect();
        (kinds, has_filter(&plan))
    }

    #[test]
    fn negation_binds_as_an_anti_join_only_when_exact() {
        use JoinKind::{Anti, Inner, Optional};
        let full = OptimizerConfig::full();
        let q = |body: &str| format!("SELECT * WHERE {{ ?a <http://x/p> ?b {body} }}");
        let cases: [(&str, &[JoinKind], bool); 6] = [
            // The negated variable only the OPTIONAL binds, and certainly.
            (
                "OPTIONAL { ?a <http://x/q> ?c } FILTER (!bound(?c))",
                &[Anti],
                false,
            ),
            // Only possibly bound inside it.
            (
                "OPTIONAL { ?a <http://x/q> ?c OPTIONAL { ?c <http://x/r> ?d } } FILTER (!bound(?d))",
                &[Optional, Optional],
                true,
            ),
            // Also mentioned on the left.
            (
                "OPTIONAL { ?a <http://x/r> ?c } OPTIONAL { ?a <http://x/q> ?c } FILTER (!bound(?c))",
                &[Optional, Optional],
                true,
            ),
            // Under `||`.
            (
                "OPTIONAL { ?a <http://x/q> ?c } FILTER (!bound(?c) || ?c = <http://x/o>)",
                &[Optional],
                true,
            ),
            // Beside a conjunct the left only possibly binds: it stays
            // above.
            (
                "OPTIONAL { ?b <http://x/r> ?x } OPTIONAL { ?a <http://x/q> ?c }
                 FILTER (!bound(?c) && ?x != <http://x/o>)",
                &[Optional, Anti],
                true,
            ),
            // Q7's shape: the inner negation moves onto the inner OPTIONAL.
            (
                "OPTIONAL { ?c <http://x/q> ?a OPTIONAL { ?d <http://x/r> ?c } FILTER (!bound(?d)) }
                 FILTER (!bound(?c))",
                &[Anti, Anti],
                false,
            ),
        ];
        for (body, kinds, filtered) in cases {
            let query = q(body);
            assert_eq!(
                join_kinds(&query, &full),
                (kinds.to_vec(), filtered),
                "{body}"
            );
            // The naive configuration plans no anti-join.
            let (naive, _) = join_kinds(&query, &OptimizerConfig::default());
            assert!(naive.iter().all(|&k| k == Optional), "{body}: {naive:?}");
        }
        // A filter across an inner join is its condition.
        let cross =
            "SELECT * WHERE { { ?a <http://x/p> ?n } { ?b <http://x/q> ?m } FILTER (?n < ?m) }";
        assert_eq!(join_kinds(cross, &full), (vec![Inner], false));
        assert_eq!(
            join_kinds(cross, &OptimizerConfig::default()),
            (vec![Inner], true)
        );
    }

    const SCAN: &str = "SELECT ?s WHERE { ?s <http://x/p> ?o }";

    fn parallel_plan(query: &str, degree: usize) -> Plan {
        let t = translate(&parse(query).unwrap());
        parallelize(bind(&t.algebra, &store()), degree)
    }

    #[test]
    fn parallelize_wraps_the_driving_scan() {
        // Exchange sits below the merge-side operators, above the BGP.
        let plan = parallel_plan(&format!("{SCAN} ORDER BY ?s"), 4);
        let Plan::Project(_, inner) = plan else {
            panic!()
        };
        let Plan::OrderBy(_, inner) = *inner else {
            panic!("{inner:?}")
        };
        let Plan::Exchange { degree, input } = *inner else {
            panic!("{inner:?}")
        };
        assert_eq!(degree, 4);
        assert!(matches!(*input, Plan::Step { .. }));
    }

    #[test]
    fn parallelize_does_not_cross_a_lazy_slice() {
        // LIMIT without ORDER BY: the skip/take stays lazy — an exchange
        // below it could run ahead of a consumer about to hang up.
        let plan = parallel_plan(&format!("{SCAN} LIMIT 3"), 4);
        assert!(!has_exchange(&plan), "{plan:?}");
        // ORDER BY + LIMIT: the sort materializes anyway, so the exchange
        // below it is fair game.
        let plan = parallel_plan(&format!("{SCAN} ORDER BY ?s LIMIT 3"), 4);
        assert!(has_exchange(&plan), "{plan:?}");
    }

    #[test]
    fn parallelize_skips_degree_one() {
        assert!(has_exchange(&parallel_plan(SCAN, 2)));
        let plan = parallel_plan(SCAN, 1);
        assert!(!has_exchange(&plan), "{plan:?}");
    }
}
