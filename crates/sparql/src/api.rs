//! The crate's high-level query API.
//!
//! [`QueryEngine`] is the facade: it **owns** its store (a
//! [`SharedStore`], i.e. `Arc<dyn TripleStore>`) and a [`QueryOptions`]
//! policy bundle (optimizer configuration, timeout, row-limit), prepares
//! queries into reusable [`Prepared`] statements and executes them three
//! ways off one evaluation path:
//!
//! * [`QueryEngine::solutions`] — a streaming [`Solutions`] iterator whose
//!   items are lazy [`Solution`] row handles that decode terms against the
//!   dictionary *on demand*;
//! * [`QueryEngine::execute`] — the materialized [`QueryResult`] (every
//!   term decoded), for callers that want plain rows;
//! * [`QueryEngine::count`] — the solution count alone, decoding nothing
//!   (the Table V result-size harness path).
//!
//! Aggregation (`GROUP BY` + `COUNT`) is a first-class plan operator
//! ([`crate::plan::Plan::Group`]), not an api-layer post-pass: a group is
//! an ordinary row, so it is sorted, sliced, streamed and counted like
//! every other, and all three consumers above agree by construction. Only
//! reading a count column differs: its lane holds a number, rendered as
//! an `xsd:integer` ([`Solution::with_term`]).
//!
//! Owning the store (rather than borrowing it, as the engine did before
//! this redesign) is what enables the two concurrent workloads the
//! benchmark targets: detached exchange worker threads that stream
//! morsel results past the lifetime of the `eval` call ([`crate::par`]),
//! and any number of client threads sharing one store through cheap
//! engine clones — the long-lived-server prerequisite. Migration:
//! `QueryEngine::new(&store)` becomes
//! `QueryEngine::new(store.into_shared())` (or `Arc::new(store)`), and
//! engines handed to other threads take an `Arc` clone.

use std::fmt;
use std::time::{Duration, Instant};

use sp2b_obs::QueryTrace;
use sp2b_rdf::vocab::xsd;
use sp2b_rdf::{LiteralRef, Term, TermRef};
use sp2b_store::{Dictionary, Id, SharedStore, TripleStore};

use std::sync::Arc;

use crate::algebra::{translate_query, TranslateError};
use crate::ast::Query;
use crate::eval::{Bindings, Cancellation, EvalContext, Observe, RowIter, ScanCounters, StepState};
use crate::optimizer::{optimize, OptimizerConfig};
use crate::parser::{parse, ParseError};
use crate::plan::{bind, operators, parallelize, reuse_build_rows, Plan};

/// Everything that can go wrong preparing or running a query.
#[derive(Debug)]
pub enum Error {
    /// Syntax error.
    Parse(ParseError),
    /// A GROUP BY or COUNT variable is not bound in the query pattern.
    UnboundVariable(String),
    /// An `AS ?alias` names a variable already in scope.
    AliasInUse(String),
    /// Evaluation hit the timeout / was cancelled.
    Cancelled,
    /// A construct the engine does not support.
    Unsupported(String),
    /// The store failed under the query: a segment block that no longer
    /// reads back as saved (see `sp2b_store::TripleStore::fault`).
    Store(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => e.fmt(f),
            Error::UnboundVariable(v) => {
                write!(f, "variable ?{v} is not bound in the query pattern")
            }
            Error::AliasInUse(v) => write!(f, "AS ?{v} names a variable already in scope"),
            Error::Cancelled => f.write_str("query evaluation cancelled (timeout)"),
            Error::Unsupported(what) => write!(f, "unsupported: {what}"),
            Error::Store(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<TranslateError> for Error {
    fn from(e: TranslateError) -> Self {
        match e {
            TranslateError::UnboundVariable(v) => Error::UnboundVariable(v),
            TranslateError::AliasInUse(v) => Error::AliasInUse(v),
            TranslateError::Unsupported(s) => Error::Unsupported(s),
        }
    }
}

/// Execution policy of a [`QueryEngine`]: optimizer configuration, the
/// per-execution timeout and the degree of intra-query parallelism.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    optimizer: OptimizerConfig,
    timeout: Option<Duration>,
    parallelism: usize,
}

impl Default for QueryOptions {
    /// Full optimization, no timeout, parallelism = number of available
    /// cores.
    fn default() -> Self {
        QueryOptions {
            optimizer: OptimizerConfig::full(),
            timeout: None,
            parallelism: default_parallelism(),
        }
    }
}

/// The default execution parallelism: every available core (1 when the
/// platform cannot report a count).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl QueryOptions {
    /// The default policy (full optimization, no timeout, parallelism =
    /// available cores).
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the optimizer configuration.
    pub fn optimizer(mut self, cfg: OptimizerConfig) -> Self {
        self.optimizer = cfg;
        self
    }

    /// Sets the per-execution timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the degree of intra-query parallelism: the number of worker
    /// threads a query that outlives [`crate::par::FAN_OUT_AFTER`] hands
    /// the rest of its driving source to (see [`crate::par`]); a shorter
    /// one runs on its consumer's thread whatever the degree. `1` plans
    /// no exchange at all; `0` is treated as `1`. The default is the
    /// number of available cores.
    ///
    /// Parallel execution preserves result *multisets* for every query,
    /// and the current merge preserves row order too; deterministic
    /// ordering is only *guaranteed* when the query has `ORDER BY` (or
    /// consumers are order-insensitive, e.g. `DISTINCT` sets and counts)
    /// — otherwise treat the order as unspecified, like SPARQL does.
    pub fn parallelism(mut self, degree: usize) -> Self {
        self.parallelism = degree.max(1);
        self
    }
}

/// The query facade: an **owned** store handle plus a [`QueryOptions`]
/// policy. Cloning an engine is an `Arc` bump — hand clones to as many
/// client threads as the workload needs; they all query the one store.
///
/// ```
/// use sp2b_store::{sharded_store_from_reader, ShardBackend, ShardBy, TripleStore};
/// use sp2b_sparql::QueryEngine;
///
/// let doc = "<http://x/s> <http://x/p> <http://x/o> .\n";
/// let store = sharded_store_from_reader(doc.as_bytes(), 1, ShardBy::Subject, ShardBackend::Mem);
/// let store = store.unwrap();
///
/// let engine = QueryEngine::new(store.into_shared());
/// let prepared = engine.prepare("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
/// // Stream rows lazily…
/// for solution in engine.solutions(&prepared) {
///     let row = solution.unwrap();
///     assert!(row.get(0).is_some());
/// }
/// // …or just count, which decodes nothing.
/// assert_eq!(engine.count(&prepared).unwrap(), 1);
/// ```
#[derive(Clone)]
pub struct QueryEngine {
    store: SharedStore,
    options: QueryOptions,
    counters: Option<Arc<ScanCounters>>,
}

impl QueryEngine {
    /// An engine owning `store`, with default options (full optimization,
    /// no timeout). Build the handle with
    /// [`TripleStore::into_shared`] or `Arc::new`.
    pub fn new(store: SharedStore) -> Self {
        QueryEngine {
            store,
            options: QueryOptions::default(),
            counters: None,
        }
    }

    /// An engine with an explicit policy.
    pub fn with_options(store: SharedStore, options: QueryOptions) -> Self {
        QueryEngine {
            store,
            options,
            counters: None,
        }
    }

    /// Replaces the optimizer configuration.
    pub fn optimizer(mut self, cfg: OptimizerConfig) -> Self {
        self.options.optimizer = cfg;
        self
    }

    /// Sets the per-execution timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.options.timeout = Some(timeout);
        self
    }

    /// Sets the degree of intra-query parallelism (see
    /// [`QueryOptions::parallelism`]). Affects plans produced by
    /// subsequent [`QueryEngine::prepare`] calls — `stream`, `execute`
    /// and `count` all run whatever the prepared plan contains.
    pub fn parallelism(mut self, degree: usize) -> Self {
        self.options = self.options.parallelism(degree);
        self
    }

    /// Attaches per-operator instrumentation: every execution through
    /// this engine adds what each operator did to `counters` (see
    /// [`ScanCounters`]), which [`query_trace`] reads back for
    /// `--explain`, the slow-query log and the planner regression tests.
    /// Instrumentation is off (and free) unless attached.
    pub fn scan_counters(mut self, counters: Arc<ScanCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// The store this engine queries.
    pub fn store(&self) -> &dyn TripleStore {
        &*self.store
    }

    /// An owning handle to the store — e.g. to build another engine with
    /// different options over the same data.
    pub fn shared_store(&self) -> SharedStore {
        self.store.clone()
    }

    /// The active policy.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Counters of the store's block cache — `Some` only for
    /// out-of-core stores (see `TripleStore::cache_stats`), where they
    /// show how the bounded-memory budget is behaving under the
    /// workload this engine has run.
    pub fn cache_stats(&self) -> Option<sp2b_store::CacheStats> {
        self.store.cache_stats()
    }

    /// Parses and prepares a query. Preparation resolves constants against
    /// the store, applies the optimizer, binds the physical plan and —
    /// unless the query is an ASK — lets a join's probe side read the
    /// join's build rows where it repeats them
    /// ([`crate::plan::reuse_build_rows`]) and, when the configured
    /// [`QueryOptions::parallelism`] exceeds 1, inserts a morsel-driven
    /// [`Plan::Exchange`] above every driving source. The result is
    /// reusable across executions.
    pub fn prepare(&self, text: &str) -> Result<Prepared, Error> {
        let query = parse(text)?;
        self.prepare_query(&query)
    }

    /// Prepares an already-parsed query.
    pub fn prepare_query(&self, query: &Query) -> Result<Prepared, Error> {
        let translated = translate_query(query)?;
        let needed: Vec<usize> = translated.projection.clone();
        let algebra = optimize(
            translated.algebra,
            self.store(),
            &self.options.optimizer,
            &needed,
        );
        let plan = bind(&algebra, self.store(), &self.options.optimizer);
        // An ASK hangs up at its first row, long before an exchange would
        // have earned its workers: it plans none. Nor does it plan reuse:
        // its inner joins run symmetrically and fill no build side first.
        let plan = if translated.ask {
            plan
        } else {
            let plan = reuse_build_rows(plan, &self.options.optimizer);
            parallelize(plan, self.options.parallelism)
        };
        Ok(Prepared {
            operators: operators(&plan).len(),
            plan,
            width: translated.vars.len(),
            projection: translated.projection,
            columns: translated.columns,
            counts: translated.counts,
            ask: translated.ask,
        })
    }

    /// A fresh cancellation handle honouring the configured timeout.
    pub fn cancellation(&self) -> Cancellation {
        match self.options.timeout {
            Some(t) => Cancellation::with_deadline(Instant::now() + t),
            None => Cancellation::none(),
        }
    }

    fn context(&self, prepared: &Prepared, cancel: &Cancellation) -> EvalContext<'_> {
        EvalContext {
            store: &*self.store,
            // The owning handle detached exchange workers hold on to.
            shared: Some(self.store.clone()),
            cancel: cancel.clone(),
            width: prepared.width,
            counters: self.counters.clone(),
            // Fresh per execution: every run of a prepared query starts
            // its pattern steps on lookups and its joins without a table.
            steps: (0..prepared.operators)
                .map(|_| StepState::default())
                .collect(),
        }
    }

    /// Streams solutions lazily; terms decode only when a [`Solution`]
    /// column is read. Cancellation (from the configured timeout) surfaces
    /// as an `Err(Error::Cancelled)` item, a store fault as an
    /// `Err(Error::Store)` item in place of the next row.
    ///
    /// An ASK streams the `Witness` walk ([`Observe`]) up to its first
    /// row, as one zero-column solution: the answer is whether it comes.
    pub fn solutions<'p>(&'p self, prepared: &'p Prepared) -> Solutions<'p> {
        let cancel = self.cancellation();
        self.solutions_with(prepared, &cancel)
    }

    /// Like [`QueryEngine::solutions`] with an externally owned
    /// cancellation handle (e.g. shared with a watchdog thread).
    pub fn solutions_with<'p>(
        &'p self,
        prepared: &'p Prepared,
        cancel: &Cancellation,
    ) -> Solutions<'p> {
        let rows = self
            .context(prepared, cancel)
            .rows(&prepared.plan, prepared.observe(Observe::Rows));
        Solutions {
            store: &*self.store,
            cancel: cancel.clone(),
            prepared,
            rows: Some(rows),
        }
    }

    /// Executes, materializing every term.
    pub fn execute(&self, prepared: &Prepared) -> Result<QueryResult, Error> {
        let cancel = self.cancellation();
        self.execute_with(prepared, &cancel)
    }

    /// Like [`QueryEngine::execute`] with an external cancellation handle:
    /// [`QueryEngine::solutions_with`], drained.
    pub fn execute_with(
        &self,
        prepared: &Prepared,
        cancel: &Cancellation,
    ) -> Result<QueryResult, Error> {
        let rows = self
            .solutions_with(prepared, cancel)
            .map(|solution| Ok(solution?.materialize()))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(if prepared.is_ask() {
            QueryResult::Boolean(!rows.is_empty())
        } else {
            QueryResult::Solutions {
                variables: prepared.columns.clone(),
                rows,
            }
        })
    }

    /// Executes, returning only the solution count (ASK → 0/1; aggregate
    /// queries → number of groups). This path never decodes a term: ORDER
    /// BY and projections are skipped, OFFSET/LIMIT skip and take without
    /// building a row, and grouping runs over raw dictionary ids.
    pub fn count(&self, prepared: &Prepared) -> Result<u64, Error> {
        let cancel = self.cancellation();
        self.count_with(prepared, &cancel)
    }

    /// Like [`QueryEngine::count`] with an external cancellation handle.
    pub fn count_with(&self, prepared: &Prepared, cancel: &Cancellation) -> Result<u64, Error> {
        if cancel.should_stop() {
            return Err(Error::Cancelled);
        }
        let observe = prepared.observe(Observe::Count);
        let n = self
            .context(prepared, cancel)
            .count(&prepared.plan, observe);
        interrupted(self.store(), cancel).map(|()| n)
    }

    /// One-shot convenience: parse, prepare and execute.
    pub fn run(&self, text: &str) -> Result<QueryResult, Error> {
        let prepared = self.prepare(text)?;
        self.execute(&prepared)
    }
}

/// A query prepared against a specific store (constants resolved,
/// optimizations applied, physical plan bound). Reusable across
/// executions of the [`QueryEngine`] that prepared it.
#[derive(Debug)]
pub struct Prepared {
    plan: Plan,
    /// Instrumented operators in the plan: ordinals run below this.
    operators: usize,
    /// Number of pattern variables (the bindings row width).
    width: usize,
    /// The output columns' variables (empty for ASK).
    projection: Vec<usize>,
    /// Output column names.
    columns: Vec<String>,
    /// The output columns that hold counts.
    counts: Vec<usize>,
    ask: bool,
}

impl Prepared {
    /// The physical plan (diagnostics, tests).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Output column names (projected variables, or group keys followed by
    /// aggregate aliases; empty for ASK).
    pub fn variables(&self) -> &[String] {
        &self.columns
    }

    /// True for ASK queries.
    pub fn is_ask(&self) -> bool {
        self.ask
    }

    /// True for an aggregate query: one with count columns.
    pub fn is_aggregate(&self) -> bool {
        !self.counts.is_empty()
    }

    /// How a consumer that would read `otherwise` reads this query's
    /// rows: an ASK only ever reads whether there is one.
    fn observe(&self, otherwise: Observe) -> Observe {
        if self.ask {
            Observe::Witness
        } else {
            otherwise
        }
    }
}

/// What cut an execution short, if anything: its cancellation, or a fault
/// the store found while it ran — rows it could not read, which no
/// answer may leave out.
fn interrupted(store: &dyn TripleStore, cancel: &Cancellation) -> Result<(), Error> {
    if cancel.was_triggered() {
        return Err(Error::Cancelled);
    }
    store
        .fault()
        .map_or(Ok(()), |msg| Err(Error::Store(msg.to_owned())))
}

/// The [`QueryTrace`] of the executions `counters` recorded of
/// `prepared`: one [`sp2b_obs::OpSpan`] per operator in
/// [`crate::plan::operators`] order — pattern steps in join order, each
/// join after its inputs. A pattern's label renders its slots and
/// `est_rows` is the planner's [`crate::plan::PlanPattern::est_rows`];
/// a join's label names the algorithm, kind and key (`hash-anti-join
/// ?3≍?8 + residual`, `nested-loop-left-join`; `+ residual` when it
/// checks a condition; `, build distinct ?5 ?6` when its build side is
/// deduplicated on those variables) and `est_rows` is the plan's
/// [`crate::plan::Plan::Join`] estimate; a join whose probe side reads
/// its build rows says which variable reads which (`?3←?5 ?6←?6`).
/// Rows, time (a join's is its probe time) and access are
/// the tallies per operator *occurrence*; each planned exchange's driving
/// step — or the join whose build rows it splits — carries where its
/// morsels ran (`morsels: 0`: not split). Phases are the caller's to
/// add.
pub fn query_trace(
    prepared: &Prepared,
    store: &dyn TripleStore,
    counters: &ScanCounters,
) -> QueryTrace {
    use crate::plan::{exchanges, JoinKind, Operator, PlanSlot};
    use sp2b_obs::{ExchangeRun, OpKind, OpSpan, StepAccess};
    let dict = store.dictionary();
    let slot = |s: &PlanSlot| match s {
        PlanSlot::Var(v) => format!("?{v}"),
        PlanSlot::Const(Some(id)) => dict.decode(*id).to_string(),
        PlanSlot::Const(None) => "<absent-from-data>".to_owned(),
    };
    let span = |kind, label, est_rows, ordinal| {
        let tally = counters.tally(ordinal);
        OpSpan {
            kind,
            label,
            est_rows,
            rows: tally.rows,
            time: Duration::from_nanos(tally.nanos),
            access: Some(tally.access).filter(|a| *a != StepAccess::default()),
            reads_build: None,
            exchange: None,
        }
    };
    let mut trace = QueryTrace::default();
    trace.operators = operators(prepared.plan())
        .into_iter()
        .map(|op| match op {
            Operator::Scan(p) => {
                let label = format!(
                    "{} {} {}",
                    slot(&p.slots[0]),
                    slot(&p.slots[1]),
                    slot(&p.slots[2])
                );
                span(OpKind::Scan, label, p.est_rows, p.ordinal)
            }
            Operator::Join {
                kind,
                build,
                reuse,
                key,
                eq,
                residual,
                est_rows,
                ordinal,
            } => {
                let name = match kind {
                    JoinKind::Inner => "join",
                    JoinKind::Optional => "left-join",
                    JoinKind::Anti => "anti-join",
                };
                let mut label = if key.is_empty() && eq.is_empty() {
                    format!("nested-loop-{name}")
                } else {
                    format!("hash-{name}")
                };
                for v in key {
                    label.push_str(&format!(" ?{v}"));
                }
                for (l, r) in eq {
                    label.push_str(&format!(" ?{l}≍?{r}"));
                }
                if residual {
                    label.push_str(" + residual");
                }
                if let Plan::Distinct(inner) = build {
                    if let Plan::Project(vars, _) = inner.as_ref() {
                        label.push_str(", build distinct");
                        for v in vars {
                            label.push_str(&format!(" ?{v}"));
                        }
                    }
                }
                let mut join = span(OpKind::Join, label, est_rows, ordinal);
                join.reads_build = reuse.map(|lanes| {
                    let pairs = lanes.iter().map(|(to, from)| format!("?{to}←?{from}"));
                    pairs.collect::<Vec<_>>().join(" ")
                });
                join
            }
        })
        .collect();
    // Ordinals number the operators in this order.
    let ran = crate::eval::lock(&counters.exchanges);
    for (degree, ordinal) in exchanges(prepared.plan()) {
        let not_split = ExchangeRun {
            degree,
            ..ExchangeRun::default()
        };
        let run = ran.get(&ordinal).copied().unwrap_or(not_split);
        trace.operators[ordinal].exchange = Some(run);
    }
    trace
}

/// Result of a materializing execution.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// SELECT (or aggregate): column names + rows of optional terms.
    Solutions {
        /// Output column names.
        variables: Vec<String>,
        /// Result rows aligned with `variables`.
        rows: Vec<Vec<Option<Term>>>,
    },
    /// ASK: yes/no.
    Boolean(bool),
}

impl QueryResult {
    /// Number of solutions, *counting an ASK boolean as one solution* —
    /// even `Boolean(false)` has `len() == 1`, because the answer itself
    /// is the solution. Use [`QueryResult::row_count`] for the value that
    /// agrees with [`QueryEngine::count`], and [`QueryResult::as_bool`]
    /// for the ASK answer.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Solutions { rows, .. } => rows.len(),
            QueryResult::Boolean(_) => 1,
        }
    }

    /// Number of result rows: SELECT row count; ASK → 1 if `true`, else 0.
    /// Always equals what [`QueryEngine::count`] reports for the same
    /// query.
    pub fn row_count(&self) -> usize {
        match self {
            QueryResult::Solutions { rows, .. } => rows.len(),
            QueryResult::Boolean(b) => usize::from(*b),
        }
    }

    /// True if a SELECT returned no rows (ASK is never "empty").
    pub fn is_empty(&self) -> bool {
        matches!(self, QueryResult::Solutions { rows, .. } if rows.is_empty())
    }

    /// The boolean of an ASK result.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryResult::Boolean(b) => Some(*b),
            QueryResult::Solutions { .. } => None,
        }
    }
}

/// A streaming result set: pulls rows out of the evaluator one at a time.
/// Memory stays bounded by the plan (no result-set materialization), and
/// a triggered cancellation or a store fault surfaces as a single `Err`
/// item followed by end-of-stream.
pub struct Solutions<'a> {
    store: &'a dyn TripleStore,
    cancel: Cancellation,
    prepared: &'a Prepared,
    /// The walk's rows; `None` once exhausted (end of stream or error
    /// delivered).
    rows: Option<RowIter<'a>>,
}

impl<'a> Solutions<'a> {
    /// Output column names.
    pub fn variables(&self) -> &'a [String] {
        &self.prepared.columns
    }

    /// The cancellation handle driving this stream (e.g. to hand to a
    /// watchdog thread).
    pub fn cancellation(&self) -> &Cancellation {
        &self.cancel
    }
}

impl<'a> Iterator for Solutions<'a> {
    type Item = Result<Solution<'a>, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let rows = self.rows.as_mut()?;
        // Cooperative stop between rows (evaluation also checks inside
        // operators; this catches pre-triggered handles and deadlines that
        // pass while the consumer holds the stream).
        if self.cancel.should_stop() {
            self.rows = None;
            return Some(Err(Error::Cancelled));
        }
        let row = rows.next();
        // No row after a fault: what an operator computed over the rows
        // it could read (a sort, a group) is not the answer.
        if let Err(e) = interrupted(self.store, &self.cancel) {
            self.rows = None;
            return Some(Err(e));
        }
        let Some(bindings) = row else {
            self.rows = None;
            return None;
        };
        Some(Ok(Solution {
            dict: self.store.dictionary(),
            bindings,
            prepared: self.prepared,
        }))
    }
}

/// One solution row, decoded lazily: reading a column decodes exactly that
/// column. Consumers that never read a column never pay for its term.
pub struct Solution<'a> {
    dict: &'a Dictionary,
    /// The row, its terms still dictionary ids.
    bindings: Bindings,
    /// Which variable each output column reads, and which columns are
    /// counts.
    prepared: &'a Prepared,
}

impl Solution<'_> {
    /// Number of output columns.
    pub fn len(&self) -> usize {
        self.prepared.projection.len()
    }

    /// True for a zero-column row (the ASK witness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads column `i` through a borrowed view (`None` when unbound or
    /// out of range): a bound variable or group key lends the
    /// dictionary's own bytes, a COUNT its value as an `xsd:integer`
    /// literal. Nothing is cloned — what the serializers read a cell with.
    pub fn with_term<R>(&self, i: usize, read: impl FnOnce(TermRef<'_>) -> R) -> Option<R> {
        let lane = self.lane(i)?;
        if !self.prepared.counts.contains(&i) {
            return Some(read(self.dict.decode(lane)));
        }
        let count = LiteralRef {
            lexical: &lane.to_string(),
            datatype: Some(xsd::INTEGER),
            language: None,
        };
        Some(read(TermRef::Literal(count)))
    }

    /// Decodes column `i` into an owned term (`None` when unbound or out
    /// of range).
    pub fn get(&self, i: usize) -> Option<Term> {
        self.with_term(i, |term| term.to_term())
    }

    /// The dictionary id of column `i` without decoding — `None` when
    /// unbound, out of range, or a count (COUNT columns have no
    /// dictionary id).
    pub fn id(&self, i: usize) -> Option<Id> {
        self.lane(i).filter(|_| !self.prepared.counts.contains(&i))
    }

    /// What column `i`'s lane holds, if bound.
    fn lane(&self, i: usize) -> Option<Id> {
        let var = self.prepared.projection.get(i)?;
        self.bindings.get(*var)
    }

    /// Decodes the whole row.
    pub fn materialize(&self) -> Vec<Option<Term>> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::load;
    use sp2b_rdf::{Graph, Iri, Literal, Subject};
    use sp2b_store::{ShardBackend, ShardedStore};

    fn store() -> ShardedStore {
        let mut g = Graph::new();
        for i in 0..10 {
            g.add(
                Subject::iri(format!("http://x/s{i}")),
                Iri::new("http://x/value"),
                Term::Literal(Literal::integer(i)),
            );
        }
        load(&g, ShardBackend::Mem)
    }

    #[test]
    fn execute_select() {
        let r = QueryEngine::new(store().into_shared())
            .run("SELECT ?v WHERE { ?s <http://x/value> ?v FILTER (?v >= 7) }")
            .unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn execute_ask() {
        let engine = QueryEngine::new(store().into_shared()).optimizer(OptimizerConfig::default());
        let yes = engine.run("ASK { ?s <http://x/value> 5 }").unwrap();
        assert_eq!(yes.as_bool(), Some(true));
        let no = engine.run("ASK { ?s <http://x/value> 99 }").unwrap();
        assert_eq!(no.as_bool(), Some(false));
    }

    #[test]
    fn ask_len_vs_row_count() {
        // The historical surprise, now documented and split: `len()`
        // counts the boolean itself (always 1), `row_count()` agrees with
        // `count()` (1 for yes, 0 for no).
        let engine = QueryEngine::new(store().into_shared());
        let no = engine.run("ASK { ?s <http://x/value> 99 }").unwrap();
        assert_eq!(no.len(), 1);
        assert_eq!(no.row_count(), 0);
        let p = engine.prepare("ASK { ?s <http://x/value> 99 }").unwrap();
        assert_eq!(engine.count(&p).unwrap(), 0);
        let yes = engine.run("ASK { ?s <http://x/value> 5 }").unwrap();
        assert_eq!(yes.len(), 1);
        assert_eq!(yes.row_count(), 1);
    }

    #[test]
    fn count_matches_execute_and_stream() {
        let engine = QueryEngine::new(store().into_shared()).optimizer(OptimizerConfig::default());
        let p = engine
            .prepare("SELECT ?v WHERE { ?s <http://x/value> ?v }")
            .unwrap();
        assert_eq!(engine.count(&p).unwrap(), 10);
        assert_eq!(engine.execute(&p).unwrap().len(), 10);
        assert_eq!(engine.solutions(&p).count(), 10);
    }

    #[test]
    fn streaming_rows_decode_lazily() {
        let engine = QueryEngine::new(store().into_shared());
        let p = engine
            .prepare("SELECT ?s ?v WHERE { ?s <http://x/value> ?v FILTER (?v = 3) }")
            .unwrap();
        let mut stream = engine.solutions(&p);
        let row = stream.next().unwrap().unwrap();
        assert_eq!(row.len(), 2);
        assert_eq!(row.get(0), Some(Term::iri("http://x/s3")));
        assert!(row.id(0).is_some(), "ids are readable without decoding");
        assert!(stream.next().is_none());
    }

    #[test]
    fn cancelled_query_errors() {
        let engine = QueryEngine::new(store().into_shared()).optimizer(OptimizerConfig::default());
        let p = engine
            .prepare("SELECT ?a ?b WHERE { ?a <http://x/value> ?x . ?b <http://x/value> ?y }")
            .unwrap();
        let cancel = Cancellation::none();
        cancel.cancel();
        assert!(matches!(
            engine.execute_with(&p, &cancel),
            Err(Error::Cancelled)
        ));
        assert!(matches!(
            engine.count_with(&p, &cancel),
            Err(Error::Cancelled)
        ));
        let mut stream = engine.solutions_with(&p, &cancel);
        assert!(matches!(stream.next(), Some(Err(Error::Cancelled))));
        assert!(stream.next().is_none(), "error terminates the stream");
    }

    #[test]
    fn parse_error_surfaces() {
        assert!(matches!(
            QueryEngine::new(store().into_shared()).run("SELECT WHERE"),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn unbound_group_variable_is_an_error_not_a_panic() {
        let engine = QueryEngine::new(store().into_shared());
        // ?g never occurs in the pattern.
        let err = engine
            .prepare("SELECT ?g (COUNT(*) AS ?n) WHERE { ?s <http://x/value> ?v } GROUP BY ?g")
            .unwrap_err();
        assert!(
            matches!(err, Error::UnboundVariable(ref v) if v == "g"),
            "{err}"
        );
        // Same for a COUNT target.
        let err = engine
            .prepare("SELECT (COUNT(?nope) AS ?n) WHERE { ?s <http://x/value> ?v }")
            .unwrap_err();
        assert!(
            matches!(err, Error::UnboundVariable(ref v) if v == "nope"),
            "{err}"
        );
    }

    #[test]
    fn aggregate_runs_through_plan_operator() {
        let engine = QueryEngine::new(store().into_shared());
        let p = engine
            .prepare("SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/value> ?v }")
            .unwrap();
        assert!(p.is_aggregate(), "a count column makes an aggregate");
        let QueryResult::Solutions { rows, .. } = engine.execute(&p).unwrap() else {
            panic!()
        };
        assert_eq!(rows, vec![vec![Some(Term::Literal(Literal::integer(10)))]]);
        assert_eq!(engine.count(&p).unwrap(), 1, "one group");
        let streamed: Vec<_> = engine
            .solutions(&p)
            .map(|s| s.unwrap().materialize())
            .collect();
        assert_eq!(
            streamed,
            vec![vec![Some(Term::Literal(Literal::integer(10)))]]
        );
    }

    #[test]
    fn timeout_in_options_cancels() {
        let engine = QueryEngine::new(store().into_shared())
            .optimizer(OptimizerConfig::default())
            .timeout(Duration::ZERO);
        let p = engine
            .prepare("SELECT ?a ?b WHERE { ?a <http://x/value> ?x . ?b <http://x/value> ?y }")
            .unwrap();
        assert!(matches!(engine.execute(&p), Err(Error::Cancelled)));
    }
}
