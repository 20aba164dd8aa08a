//! The pull-based plan evaluator: one walk over one plan shape.
//!
//! [`EvalContext::eval_over`] is the only walk, with one arm per operator.
//! Solutions stream lazily wherever the algebra allows: a group's pattern
//! steps ([`PatternBind`]) extend rows one at a time, hash joins
//! materialize only their build side, and sorting, grouping and duplicate
//! elimination materialize by nature — a sort under `LIMIT`/`OFFSET` only
//! the offset + limit rows it can deliver (`SortBuffer`). A group ([`Plan::Group`]) is an
//! ordinary row: its key ids in their lanes, each count, as a number, in
//! the lane of its alias — so the groups are sorted, projected, sliced
//! and counted by the same arms as any other rows.
//!
//! # What the consumer observes
//!
//! The walk is told what its consumer reads of the rows ([`Observe`]),
//! and takes exactly the liberties that leaves it:
//! - `Rows` (result delivery) takes none.
//! - `Count` ([`crate::QueryEngine::count`]) passes through the solution
//!   modifiers only. `ORDER BY` is skipped — sorting cannot change how
//!   many rows there are, and its keys decode terms — and so is a
//!   projection, whose cleared lanes nobody reads. `Distinct(Project(vars,
//!   x))` counts the survivors of `x` keyed on `vars`, unprojected, and a
//!   slice is skip/take over its input.
//! - `Witness` (`ASK`: "engines should break as soon a solution has been
//!   found") passes through filters, unions and inner joins. An inner join
//!   runs symmetrically ([`symmetric_join_rows`]) instead of filling its
//!   build side before the first probe, so the work done is proportional
//!   to where the first witness sits in the two inputs, not to the size of
//!   either. The rows are the same; their order is not, which a one-row
//!   consumer cannot see.
//!
//! Every other operator reads its inputs as `Rows`. A join's build side
//! always does: every lane of every build row may be merged into an
//! output row, so there is nothing for it to skip, and it is filled once
//! per execution for whichever instance of the join asks first.
//!
//! # Lookup or fetch, decided while running
//!
//! A pattern step can get a row's matching triples two ways: look them
//! up — one store scan with the row's bindings in the pattern, the
//! index-nested-loop join — or *fetch* the pattern once with only its
//! constants bound, group the triples by the positions the input binds,
//! and answer every row from that table: a hash join whose build side is
//! the pattern. The planner prices a step at the cheaper of the two
//! (`optimizer::candidate_cost`: `min(rows, base)`), but which one that
//! is hangs on `rows`, the step's input cardinality, and that estimate is
//! routinely off by a large factor deep in a chain (planned as one chain,
//! Q4's fifth step was estimated at 78 815 rows and emitted 172 103). So
//! the plan only says *where the break-even is*
//! ([`crate::plan::FetchRule`]) and the step
//! decides by ski rental: it rents lookups, counting them, and when it
//! has issued as many as the pattern has triples it has spent what
//! buying — one fetch — costs, and buys. Whatever the input turns out to
//! be, the step pays at most twice the better pure strategy; a consumer
//! that hangs up early (`ASK`, `LIMIT`) never reaches the count and never
//! fetches; and a step fed few rows never pays for a table it would not
//! use.
//!
//! Only where a step's triples come from changes: the group of a fetched
//! table holds exactly the triples the bound scan would return, in the
//! same order (pinned over every bound mask and store family by the unit
//! tests below), so rows, row order and every tally are those of pure
//! lookups.
//!
//! # What one execution builds, it builds once
//!
//! A [`Plan`] is immutable and shared; everything an execution
//! materializes lives beside it in [`EvalContext::steps`], one
//! [`StepState`] slot per operator ordinal, allocated per execution and
//! dropped with it — a prepared query starts from nothing every time it
//! runs. A pattern step's slot holds its lookup count and, once bought,
//! its fetched table; a join's slot holds its build side
//! ([`EvalContext::build_side`], the one place a hash table is filled).
//! Both are `OnceLock`s: whoever gets there first builds, everyone else
//! reads. That is all an exchange ([`crate::par`]) needs to be *this*
//! evaluator on a chunk: its workers run [`EvalContext::eval_over`] — the
//! same `match` over the same borrowed plan, with the driving scan
//! reading one morsel instead of the store — against the execution's one
//! set of slots, so every morsel probes the tables the sequential
//! evaluation would have built, and builds none of its own.
//!
//! # Rows are values, not allocations
//!
//! A solution row ([`Bindings`]) is one 4-byte lane per query variable:
//! the bound term's dictionary id, or [`UNBOUND`] — `Id::MAX`, which the
//! dictionary never issues. Up to [`INLINE_LANES`] (16, one cache line)
//! are held inline, which covers every SP²Bench query; a wider row spills
//! its lanes to a boxed slice. So on the paths every row takes — a step
//! extending its input row, a join emitting a match, a projection, a
//! build side or an `ORDER BY` buffer filing a row, an exchange batch —
//! a row is copied, never allocated. The keys built from rows are values
//! too: a join key of up to four components is an inline array, a
//! `DISTINCT` key of up to four lanes one packed integer ([`Seen`]), and
//! a join's probe reuses one match buffer. What still allocates is per
//! operator or per table, and the boxed scan iterator of each store
//! lookup.
//!
//! Every row produced passes a [`Cancellation`] check, which is how the
//! benchmark runner enforces the paper's 30-minute query timeout without
//! detaching runaway threads.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sp2b_obs::{ExchangeRun, OpKind, StepAccess};
use sp2b_rdf::TermRef;
use sp2b_store::{Dictionary, Id, IdTriple, Pattern, ScanChunk, SharedStore, TripleStore};

use crate::algebra::{CountSpec, EqPairs};
use crate::expr::{eq_class, BoundExpr};
use crate::plan::{
    const_pattern, driving, output_estimate, FetchRule, JoinKind, Plan, PlanOrderKey, PlanPattern,
    PlanSlot, FETCH_CAP,
};

use sp2b_store::hash::{FxHashMap, FxHashSet};

/// How many variables a row holds inline: sixteen 4-byte lanes, one
/// 64-byte cache line. Every SP²Bench query fits (the widest, Q7, has 14
/// variables); a wider row spills its lanes to the heap.
pub const INLINE_LANES: usize = 16;

/// A lane's value for an unbound variable: the one id [`Dictionary`]
/// never issues.
pub const UNBOUND: Id = Id::MAX;

/// One solution row: a lane per query variable, holding the bound term's
/// dictionary id or [`UNBOUND`].
///
/// Rows of up to [`INLINE_LANES`] variables live inline, so making,
/// cloning and dropping one — a step extending its input row, a join
/// emitting a match, a projection, a row parked in a build side, an
/// `ORDER BY` buffer or an exchange batch — copies 72 bytes and never
/// touches the allocator. A wider row spills its lanes to one boxed
/// slice, and then each clone allocates.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bindings(Lanes);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Lanes {
    /// `width` lanes in use; the rest stay [`UNBOUND`].
    Inline {
        width: u8,
        lanes: [Id; INLINE_LANES],
    },
    Spilled(Box<[Id]>),
}

impl Bindings {
    /// All-unbound row of the given width.
    pub fn empty(width: usize) -> Self {
        Bindings(if width <= INLINE_LANES {
            Lanes::Inline {
                width: width as u8,
                lanes: [UNBOUND; INLINE_LANES],
            }
        } else {
            Lanes::Spilled(vec![UNBOUND; width].into())
        })
    }

    /// Wraps explicit values.
    pub fn new(values: Vec<Option<Id>>) -> Self {
        let mut row = Bindings::empty(values.len());
        for (slot, value) in row.lanes_mut().iter_mut().zip(values) {
            *slot = value.unwrap_or(UNBOUND);
        }
        row
    }

    /// The lanes in use.
    #[inline]
    fn lanes(&self) -> &[Id] {
        match &self.0 {
            Lanes::Inline { width, lanes } => &lanes[..usize::from(*width)],
            Lanes::Spilled(lanes) => lanes,
        }
    }

    #[inline]
    fn lanes_mut(&mut self) -> &mut [Id] {
        match &mut self.0 {
            Lanes::Inline { width, lanes } => &mut lanes[..usize::from(*width)],
            Lanes::Spilled(lanes) => lanes,
        }
    }

    /// Value of variable `i` (`None` when unbound or past the width).
    #[inline]
    pub fn get(&self, i: usize) -> Option<Id> {
        self.lanes().get(i).copied().filter(|&id| id != UNBOUND)
    }

    /// Binds variable `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Id) {
        debug_assert_ne!(v, UNBOUND, "no term has the unbound lane's id");
        self.lanes_mut()[i] = v;
    }

    /// Number of variables.
    pub fn width(&self) -> usize {
        self.lanes().len()
    }

    /// Every variable's value, in variable order.
    pub fn values(&self) -> impl Iterator<Item = Option<Id>> + '_ {
        (0..self.width()).map(|i| self.get(i))
    }

    /// SPARQL merge into `out`, a row of the same width, without
    /// allocating: `false` on a conflict (`out` then holds no meaningful
    /// row), otherwise `true` with `out` the union of both rows' bindings.
    /// [`UNBOUND`] is the largest id, so a lane's merge is the smaller of
    /// the two — a branch-free pass over whole inline rows.
    #[inline]
    pub fn merge_into(&self, other: &Bindings, out: &mut Bindings) -> bool {
        debug_assert_eq!(self.width(), other.width());
        debug_assert_eq!(self.width(), out.width());
        fn merge(mine: &[Id], theirs: &[Id], out: &mut [Id]) -> bool {
            let mut conflict = false;
            for ((slot, &a), &b) in out.iter_mut().zip(mine).zip(theirs) {
                conflict |= a != b && a != UNBOUND && b != UNBOUND;
                *slot = a.min(b);
            }
            !conflict
        }
        match (&self.0, &other.0, &mut out.0) {
            (
                Lanes::Inline { lanes: a, .. },
                Lanes::Inline { lanes: b, .. },
                Lanes::Inline { lanes: o, .. },
            ) => merge(a, b, o),
            _ => merge(self.lanes(), other.lanes(), out.lanes_mut()),
        }
    }
}

impl std::fmt::Debug for Bindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

/// Cooperative cancellation: a deadline and/or an external flag.
///
/// Clones share one state (`Clone` is an `Arc` bump), so a streaming
/// [`crate::Solutions`] iterator can *own* its cancellation handle while a
/// watchdog thread holds another — no scoped borrows required.
#[derive(Debug, Clone, Default)]
pub struct Cancellation {
    state: Arc<CancelState>,
}

#[derive(Debug, Default)]
struct CancelState {
    deadline: Option<Instant>,
    flag: AtomicBool,
    triggered: AtomicBool,
    /// Set by the first check that compared the clock to `deadline`.
    clock_read: AtomicBool,
}

/// How many [`Cancellation::should_stop`] calls share one clock read.
/// The check runs per row and a deadline is seconds away, while an
/// `Instant::now()` per row is measurable — the 34-million-check Q6 took
/// 3.1 s with a deadline set and 2.25 s without.
const CLOCK_STRIDE: u32 = 1024;

thread_local! {
    /// Checks left on this thread before the next clock read. Per thread
    /// rather than per handle because every operator of a pipeline holds
    /// its own clone of the context — and of the handle in it — so a
    /// countdown inside the handle would pace one operator's checks, not
    /// the thread's; and not in the shared state, where exchange workers
    /// would bounce its cache line between cores on every row. A new thread starts at zero, so an
    /// exchange worker's first check reads the clock as well.
    static CLOCK_COUNTDOWN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl Cancellation {
    /// Never cancels.
    pub fn none() -> Self {
        Cancellation::default()
    }

    /// Cancels when `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Cancellation {
            state: Arc::new(CancelState {
                deadline: Some(deadline),
                ..Default::default()
            }),
        }
    }

    /// Requests cancellation (observed by every clone).
    pub fn cancel(&self) {
        self.state.flag.store(true, AtomicOrdering::Relaxed);
    }

    /// Checks whether evaluation should stop (records the trigger). The
    /// flag is read on every call; the clock on a handle's first check —
    /// an already-expired deadline stops before any work — and from then
    /// on once per 1024 checks (`CLOCK_STRIDE`) on the calling thread, so a
    /// passing deadline is noticed at most that many rows late.
    #[inline]
    pub fn should_stop(&self) -> bool {
        let state = &*self.state;
        if state.triggered.load(AtomicOrdering::Relaxed) {
            return true;
        }
        let hit = state.flag.load(AtomicOrdering::Relaxed)
            || state
                .deadline
                .is_some_and(|d| state.clock_due() && Instant::now() >= d);
        if hit {
            state.triggered.store(true, AtomicOrdering::Relaxed);
        }
        hit
    }

    /// Whether a stop was ever triggered (distinguishes "stream ended"
    /// from "stream aborted" after evaluation).
    pub fn was_triggered(&self) -> bool {
        self.state.triggered.load(AtomicOrdering::Relaxed)
    }
}

impl CancelState {
    /// Whether this check is one that reads the clock.
    fn clock_due(&self) -> bool {
        if !self.clock_read.load(AtomicOrdering::Relaxed) {
            self.clock_read.store(true, AtomicOrdering::Relaxed);
            return true;
        }
        CLOCK_COUNTDOWN.with(|left| match left.get() {
            0 => {
                left.set(CLOCK_STRIDE - 1);
                true
            }
            n => {
                left.set(n - 1);
                false
            }
        })
    }
}

/// What executions did, per operator — the record [`crate::query_trace`]
/// renders: rows, sampled time ([`TIMING_STRIDE`]) and, for a step,
/// [`StepAccess`], keyed by the operator's *occurrence*
/// ([`PlanPattern::ordinal`]: Q9's two `rdf:type foaf:Person` steps keep
/// two tallies), and where each exchange ran its morsels. Time sums over
/// exchange workers. Unattached (the default), it costs one branch per
/// operator call and no clock read.
#[derive(Debug, Default)]
pub struct ScanCounters {
    tallies: Mutex<FxHashMap<usize, OperatorTally>>,
    /// The latest run of each exchange, by its driving step's ordinal; an
    /// exchange that split nothing (its consumer hung up first) has no
    /// entry.
    pub(crate) exchanges: Mutex<FxHashMap<usize, ExchangeRun>>,
}

/// What one operator did, summed over its instances and executions.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OperatorTally {
    /// Pattern steps' rows are scan work; joins' are output.
    kind: OpKind,
    pub(crate) rows: u64,
    pub(crate) nanos: u64,
    /// Pattern steps only.
    pub(crate) access: StepAccess,
}

impl OperatorTally {
    fn add(&mut self, other: &OperatorTally) {
        self.kind = other.kind;
        self.rows += other.rows;
        self.nanos += other.nanos;
        self.access.lookups += other.access.lookups;
        self.access.probes += other.access.probes;
        if let Some(triples) = other.access.fetched {
            *self.access.fetched.get_or_insert(0) += triples;
        }
    }
}

/// Every update leaves the map valid, so a poisoned lock is still readable
/// — and [`LocalTally`] flushes from a `Drop`, which must not panic.
pub(crate) fn lock<T>(map: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    map.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ScanCounters {
    /// The tally of the operator numbered `ordinal` (zeros if it never
    /// ran). Under an exchange the time sums across workers.
    pub(crate) fn tally(&self, ordinal: usize) -> OperatorTally {
        lock(&self.tallies)
            .get(&ordinal)
            .copied()
            .unwrap_or_default()
    }

    /// Total rows emitted across all pattern steps — the query's
    /// intermediate-result volume, the planner's work metric. Rows joins
    /// emit are not part of it.
    pub fn total_rows(&self) -> u64 {
        let tallies = lock(&self.tallies);
        let steps = tallies.values().filter(|t| t.kind == OpKind::Scan);
        steps.map(|t| t.rows).sum()
    }
}

/// How a running operator samples the clock while counters are attached:
/// after its first [`EXACT_CALLS`] calls it times each call with
/// probability 1 / `TIMING_STRIDE` — at Fibonacci-hashed positions from a
/// random offset, so no periodic call pattern aliases with it — weighted
/// by `TIMING_STRIDE`: unbiased however few calls an instance makes.
/// Per-call clock reads made a watched Q4 2.5× slower; sampled, a few %.
pub const TIMING_STRIDE: u64 = 64;

/// Calls an operator instance times before it samples. Few: an exchange
/// starts an instance of every step per morsel, and timing 64 calls of
/// each pushed a watched 1 ms Q2 past the fan-out budget.
const EXACT_CALLS: u64 = 8;

/// One running operator's share of a [`ScanCounters`] tally: counts
/// locally — the per-row path stays a plain increment — and flushes once,
/// when the operator is dropped. Clock reads only happen when counters are
/// attached, and then only on the calls [`TIMING_STRIDE`] samples.
struct LocalTally {
    counters: Option<Arc<ScanCounters>>,
    ordinal: usize,
    local: OperatorTally,
    /// Calls started so far (with counters attached).
    calls: u64,
    /// Where this instance's sampled calls fall (random).
    offset: u64,
    /// Nanoseconds of the current call already booked by
    /// [`LocalTally::once`], which the call's weight must not multiply.
    booked: u64,
}

/// What timing an empty call reads: the clock's own latency (~30 ns on the
/// 2-core development host), which a sampled call's weight would multiply
/// — uncorrected, a plain BGP's operators summed to twice its execute time.
fn clock_floor() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let empty = || Instant::now().elapsed().as_nanos() as u64;
        (0..64).map(|_| empty()).min().unwrap_or(0)
    })
}

impl LocalTally {
    fn new(ctx: &EvalContext<'_>, ordinal: usize, kind: OpKind) -> Self {
        let random = |_| RandomState::new().hash_one(ordinal);
        LocalTally {
            counters: ctx.counters.clone(),
            ordinal,
            local: OperatorTally {
                kind,
                ..OperatorTally::default()
            },
            calls: 0,
            offset: ctx.counters.as_ref().map_or(0, random),
            booked: 0,
        }
    }

    /// Starts a call; the clock reading to time it by if it is sampled.
    #[inline]
    fn start(&mut self) -> Option<Instant> {
        self.counters.as_ref()?;
        self.calls += 1;
        self.booked = 0;
        let position = self.calls.wrapping_add(self.offset);
        let sampled = position.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 == 0;
        (self.calls <= EXACT_CALLS || sampled).then(Instant::now)
    }

    /// Books a call: its rows and, if timed, its time for the calls its
    /// weight stands for — unless it took over [`TIMING_STRIDE`] times the
    /// mean so far (a descheduled thread, a page fault): then it stands for
    /// itself and the rest are booked at the mean.
    #[inline]
    fn stop(&mut self, started: Option<Instant>, rows: u64) {
        self.local.rows += rows;
        let Some(t0) = started else { return };
        let took = t0.elapsed().as_nanos() as u64;
        let took = took.saturating_sub(self.booked + clock_floor());
        if self.calls <= EXACT_CALLS {
            self.local.nanos += took;
            return;
        }
        let mean = self.local.nanos / (self.calls - 1);
        let typical = Some(took).filter(|&t| t <= TIMING_STRIDE * mean);
        self.local.nanos += (TIMING_STRIDE - 1) * typical.unwrap_or(mean) + took;
    }

    /// Runs a one-off piece of the current call — a step's fetch — and
    /// books its time at face value: sampled with the call, it would be
    /// counted [`TIMING_STRIDE`] times over.
    fn once<T>(&mut self, work: impl FnOnce() -> T) -> T {
        if self.counters.is_none() {
            return work();
        }
        let t0 = Instant::now();
        let out = work();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.local.nanos += nanos;
        self.booked += nanos;
        out
    }

    /// Books one row the operator handed on, outside any timed step.
    #[inline]
    fn emitted(&mut self) {
        self.local.rows += 1;
    }

    /// Runs one step of the operator, booking the rows it reports and —
    /// with counters attached — the time it took.
    fn record<T>(&mut self, step: impl FnOnce() -> (T, u64)) -> T {
        let started = self.start();
        let (out, rows) = step();
        self.stop(started, rows);
        out
    }
}

impl Drop for LocalTally {
    fn drop(&mut self) {
        if let (Some(counters), 1..) = (&self.counters, self.calls) {
            lock(&counters.tallies)
                .entry(self.ordinal)
                .or_default()
                .add(&self.local);
        }
    }
}

/// How many lookups a running pattern step counts privately before adding
/// them to its shared [`StepState`]: exchange workers then touch the
/// shared counter once per this many lookups instead of bouncing its
/// cache line on every row, and a step overshoots its
/// [`FetchRule::after`] by less than this per concurrent instance.
pub const LOOKUP_FLUSH: u64 = 64;

/// Per-execution state of one operator, shared by every running instance
/// of it — the sequential pipeline's one, or one per exchange morsel. A
/// BGP pattern step keeps the lookups issued so far and, once they have
/// paid for it, the fetched pattern; a join keeps its build side. Lives
/// in [`EvalContext::steps`] and is dropped with the execution.
#[derive(Debug, Default)]
pub struct StepState {
    /// Lookups issued, as far as the instances have reported them.
    lookups: AtomicU64,
    /// The fetched pattern; `Some(None)` when it turned out to hold more
    /// than [`FETCH_CAP`] triples (the bind-time figure is an estimate)
    /// and the step stays on lookups for good. Set once: the instance
    /// that reaches the break-even builds it while the others wait.
    fetched: OnceLock<Option<Fetched>>,
    /// A join's build side ([`EvalContext::build_side`]).
    build: OnceLock<Arc<BuildSide>>,
}

/// A pattern's triples as one fetch read them, grouped by the key
/// positions ([`FetchRule::key`]).
#[derive(Debug)]
struct Fetched {
    /// Scan order, stably sorted by key: each group is contiguous and
    /// keeps the order the store scanned it in — which is the order a
    /// lookup with the key bound returns (the free positions sort the
    /// same way in the run either scan reads; shards concatenate in shard
    /// order either way).
    triples: Vec<IdTriple>,
    /// Key (non-key positions zeroed) → its group's range in `triples`.
    groups: FxHashMap<IdTriple, (u32, u32)>,
}

impl Fetched {
    fn key_of(key: [bool; 3], triple: &IdTriple) -> IdTriple {
        std::array::from_fn(|i| if key[i] { triple[i] } else { 0 })
    }

    /// Scans `pattern` with its constants bound; `None` past the cap.
    /// Both allocations are sized to what they hold: the table stays for
    /// the rest of the execution.
    fn build(store: &dyn TripleStore, pattern: &PlanPattern, rule: &FetchRule) -> Option<Fetched> {
        let cap = FETCH_CAP as usize;
        let mut triples: Vec<IdTriple> = Vec::with_capacity((rule.after as usize).min(cap));
        triples.extend(store.scan(const_pattern(pattern)).take(cap + 1));
        if triples.len() > cap {
            return None;
        }
        triples.shrink_to_fit();
        let key = |t: &IdTriple| Self::key_of(rule.key, t);
        triples.sort_by_key(key);
        let same_key = |a: &IdTriple, b: &IdTriple| key(a) == key(b);
        let mut groups = FxHashMap::default();
        groups.reserve(triples.chunk_by(same_key).count());
        let mut start = 0u32;
        for group in triples.chunk_by(same_key) {
            let end = start + group.len() as u32;
            groups.insert(key(&group[0]), (start, end));
            start = end;
        }
        Some(Fetched { triples, groups })
    }

    /// The group `bound` — the pattern under one input row — selects;
    /// `None` if the row leaves a key position unbound.
    fn group(&self, key: [bool; 3], bound: &Pattern) -> Option<std::ops::Range<usize>> {
        let mut wanted: IdTriple = [0; 3];
        for i in 0..3 {
            if key[i] {
                wanted[i] = bound[i]?;
            }
        }
        let (start, end) = self.groups.get(&wanted).copied().unwrap_or((0, 0));
        Some(start as usize..end as usize)
    }
}

/// Evaluation context: store + cancellation + row width. Cloning is cheap
/// (a reference copy plus an `Arc` bump), so the lazy iterators capture it
/// by value.
#[derive(Clone)]
pub struct EvalContext<'a> {
    /// The store being queried (the borrow every lazy scan iterator ties
    /// its lifetime to).
    pub store: &'a dyn TripleStore,
    /// An *owning* handle to the same store, when the caller has one.
    /// This is what [`crate::par`] hands to detached exchange worker
    /// threads — they cannot borrow `store` because they outlive the call
    /// that spawned them. `None` (a raw, borrow-only context) disables
    /// detached parallelism: `Plan::Exchange` then degrades to sequential
    /// evaluation, never to unsoundness.
    pub shared: Option<SharedStore>,
    /// Cancellation control.
    pub cancel: Cancellation,
    /// Number of variables (row width).
    pub width: usize,
    /// Row-count instrumentation, when the caller wants it (see
    /// [`ScanCounters`]).
    pub counters: Option<std::sync::Arc<ScanCounters>>,
    /// This execution's operator states, indexed by operator ordinal
    /// ([`PlanPattern::ordinal`]; see [`StepState`]). An operator without
    /// an entry — an empty slice is a valid value — keeps nothing: a
    /// pattern step only ever looks up, a join builds its table every
    /// time it is evaluated. A plan with a [`Plan::Reuse`] leaf needs its
    /// join's entry: that is where the leaf finds the rows.
    pub steps: Arc<[StepState]>,
}

/// A stream of solutions.
pub type RowIter<'a> = Box<dyn Iterator<Item = Bindings> + 'a>;

/// One morsel of a pipeline's driving source ([`crate::plan::driving`]),
/// which an exchange hands to [`EvalContext::eval_over`] in its place.
#[derive(Clone)]
pub(crate) enum Drive<'a> {
    /// A chunk of the driving step's scan.
    Scan(ScanChunk<'a>),
    /// A range of the build rows a [`Plan::Reuse`] leaf reads.
    Rows(std::ops::Range<usize>),
}

/// What the consumer of a walk reads of its rows — the liberties the
/// walk may take (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Every row, in order, as delivered.
    Rows,
    /// How many rows there are: the solution modifiers skip `ORDER BY`
    /// and projections.
    Count,
    /// Whether there is a row: the consumer takes one and hangs up, so an
    /// inner join runs symmetrically and the rows come in any order.
    Witness,
}

impl<'a> EvalContext<'a> {
    /// Evaluates a plan to a lazy solution stream, every row in order.
    pub fn eval(self, plan: &'a Plan) -> RowIter<'a> {
        self.eval_over(plan, None, Observe::Rows)
    }

    /// The rows a consumer reading `plan` by `observe` gets: a `Witness`
    /// consumer takes the first, if any.
    pub fn rows(self, plan: &'a Plan, observe: Observe) -> RowIter<'a> {
        let rows = self.eval_over(plan, None, observe);
        match observe {
            Observe::Witness => Box::new(rows.take(1)),
            Observe::Rows | Observe::Count => rows,
        }
    }

    /// How many solutions a consumer reading `plan` by `observe` gets,
    /// decoding no term. This is the engine behind
    /// [`crate::QueryEngine::count`] and the Table V result-size harness.
    pub fn count(self, plan: &'a Plan, observe: Observe) -> u64 {
        self.rows(plan, observe).count() as u64
    }

    /// The one walk: `plan`'s rows as `observe` reads them, with the
    /// plan's driving source ([`driving`]) reading only the morsel
    /// `drive` when there is one — how an exchange ([`crate::par`]) runs
    /// the plan on one morsel, on the consumer's thread or a worker's.
    /// Only the step over [`Plan::Unit`] and a [`Plan::Reuse`] leaf read
    /// `drive`; steps, filters and join probe sides hand it down, and
    /// build sides, like every other operator, never see it.
    pub(crate) fn eval_over(
        self,
        plan: &'a Plan,
        drive: Option<Drive<'a>>,
        observe: Observe,
    ) -> RowIter<'a> {
        debug_assert!(
            drive.is_none() || driving(plan).is_some(),
            "a morsel needs a driving source to stand in for"
        );
        // How an operator reads its input: a witness passes through
        // filters, unions and inner joins, a count through the solution
        // modifiers, and everything else reads rows.
        let (past_filters, past_modifiers) = match observe {
            Observe::Rows => (Observe::Rows, Observe::Rows),
            Observe::Count => (Observe::Rows, Observe::Count),
            Observe::Witness => (Observe::Witness, Observe::Rows),
        };
        match plan {
            Plan::Unit => Box::new(std::iter::once(Bindings::empty(self.width))),
            Plan::Step { input, pattern } => match drive {
                // The chunk is the driving step's scan of the one empty
                // row: same row extension, cancellation checks and tallies.
                Some(Drive::Scan(chunk)) if matches!(**input, Plan::Unit) => {
                    let (none, empty) = (Box::new(std::iter::empty()), Bindings::empty(self.width));
                    Box::new(PatternBind::start(self, pattern, none, empty, chunk.iter()))
                }
                _ => {
                    let input = self.clone().eval_over(input, drive, Observe::Rows);
                    Box::new(PatternBind::new(self, pattern, input))
                }
            },
            Plan::Join {
                left,
                right,
                key,
                eq,
                kind,
                condition,
                ordinal,
                ..
            } => {
                let (condition, ordinal) = (condition.as_ref(), *ordinal);
                if *kind == JoinKind::Inner && observe == Observe::Witness {
                    let left = self.clone().eval_over(left, drive, observe);
                    let right = self.clone().eval_over(right, None, observe);
                    return symmetric_join_rows(self, [left, right], key, eq, condition, ordinal);
                }
                let build = self.build_side(right, key, eq, ordinal);
                let probe = self.clone().eval_over(left, drive, Observe::Rows);
                join_rows(self, probe, build, *kind, condition, ordinal)
            }
            // The join above has filled its build side before it
            // evaluates its probe side, which this leaf is the bottom of.
            Plan::Reuse { join, lanes, .. } => {
                let build = self.reused_build(*join);
                let rows = match drive {
                    Some(Drive::Rows(rows)) => rows,
                    _ => 0..build.rows().len(),
                };
                let (cancel, width) = (self.cancel, self.width);
                Box::new(rows.map_while(move |i| {
                    if cancel.should_stop() {
                        return None;
                    }
                    let from = &build.rows()[i];
                    let mut row = Bindings::empty(width);
                    for &(to, read) in lanes {
                        if let Some(id) = from.get(read) {
                            row.set(to, id);
                        }
                    }
                    Some(row)
                }))
            }
            Plan::Exchange { degree, input } => crate::par::eval_exchange(self, *degree, input),
            // The right side is not opened until the left is drained.
            Plan::Union(a, b) => Box::new(self.clone().eval_over(a, None, past_filters).chain(
                std::iter::once_with(move || self.eval_over(b, None, past_filters)).flatten(),
            )),
            Plan::Filter(expr, inner) => {
                let store = self.store;
                let input = self.eval_over(inner, drive, past_filters);
                Box::new(input.filter(move |row| expr.evaluate(row, store) == Ok(true)))
            }
            // Under `Distinct(Project(vars, x))` the rows of `x` are
            // deduplicated on `vars` ([`Seen::of`]) and only the survivors
            // are projected — or, counted, not even they.
            Plan::Distinct(inner) => {
                let (mut seen, below) = Seen::of(inner, self.width);
                let width = self.width;
                let survivors: RowIter<'a> = Box::new(
                    self.eval_over(below, None, past_modifiers)
                        .filter(move |row| seen.insert(row)),
                );
                match inner.as_ref() {
                    Plan::Project(vars, _) if observe != Observe::Count => {
                        project_rows(survivors, vars, width)
                    }
                    _ => survivors,
                }
            }
            Plan::Project(_, inner) | Plan::OrderBy(_, inner) if observe == Observe::Count => {
                self.eval_over(inner, None, past_modifiers)
            }
            Plan::Project(vars, inner) => {
                let width = self.width;
                let input = self.eval(inner);
                project_rows(input, vars, width)
            }
            Plan::OrderBy(keys, inner) => self.sorted(keys, inner, usize::MAX),
            Plan::Slice {
                offset,
                limit,
                input,
            } => {
                let skip = usize::try_from(*offset).unwrap_or(usize::MAX);
                let take = limit.map(|n| usize::try_from(n).unwrap_or(usize::MAX));
                // A sort under a limited slice, `[Project] OrderBy`, keeps
                // only the rows the slice can deliver.
                let (projection, below) = match input.as_ref() {
                    Plan::Project(vars, below) => (Some(vars), below.as_ref()),
                    other => (None, other),
                };
                let it = match (take, below) {
                    (Some(n), Plan::OrderBy(keys, inner)) if past_modifiers == Observe::Rows => {
                        let width = self.width;
                        let rows = self.sorted(keys, inner, skip.saturating_add(n));
                        match projection {
                            Some(vars) => project_rows(rows, vars, width),
                            None => rows,
                        }
                    }
                    _ => self.eval_over(input, None, past_modifiers),
                };
                match take {
                    Some(n) => Box::new(it.skip(skip).take(n)),
                    None => Box::new(it.skip(skip)),
                }
            }
            Plan::Group {
                keys,
                counts,
                input,
            } => Box::new(self.groups(keys, counts, input).into_iter()),
        }
    }

    /// The rows of a [`Plan::Group`]: `input`'s rows grouped on the `keys`
    /// lanes, checking cancellation per row, and one row per group binding
    /// those and each count's lane, in no particular order. With no keys,
    /// an empty input still makes one group, of zero counts (SPARQL 1.1).
    fn groups(self, keys: &[usize], counts: &[CountSpec], input: &'a Plan) -> Vec<Bindings> {
        #[derive(Clone, Default)]
        struct Tally {
            rows: u64,
            distinct: FxHashSet<Id>,
        }
        let mut groups: FxHashMap<Vec<Id>, Vec<Tally>> = FxHashMap::default();
        for row in self.clone().eval(input) {
            if self.cancel.should_stop() {
                break;
            }
            let key = keys.iter().map(|&v| row.get(v).unwrap_or(UNBOUND));
            let tallies = groups
                .entry(key.collect())
                .or_insert_with(|| vec![Tally::default(); counts.len()]);
            for (tally, count) in tallies.iter_mut().zip(counts) {
                // COUNT(?v) counts the rows binding ?v, COUNT(*) every row.
                let Some(value) = count.target.map_or(Some(UNBOUND), |v| row.get(v)) else {
                    continue;
                };
                if count.distinct {
                    tally.distinct.insert(value);
                } else {
                    tally.rows += 1;
                }
            }
        }
        if groups.is_empty() && keys.is_empty() {
            groups.insert(Vec::new(), vec![Tally::default(); counts.len()]);
        }
        let row = |(key, tallies): (Vec<Id>, Vec<Tally>)| {
            let mut row = Bindings::empty(self.width);
            for (&v, id) in keys.iter().zip(key).filter(|&(_, id)| id != UNBOUND) {
                row.set(v, id);
            }
            for (tally, count) in tallies.iter().zip(counts) {
                let n = if count.distinct {
                    tally.distinct.len() as u64
                } else {
                    tally.rows
                };
                let n = Id::try_from(n).ok().filter(|&n| n != UNBOUND);
                row.set(count.lane, n.expect("a count stays below 2^32 - 1"));
            }
            row
        };
        groups.into_iter().map(row).collect()
    }

    // -- joins ---------------------------------------------------------

    /// A join's build side (see [`BuildSide`]): materialized by whoever
    /// asks first and kept in the join's [`StepState`], so an execution
    /// builds it once however often the join is evaluated — an exchange
    /// evaluates it once per morsel, on several threads. The one place a
    /// build side is filled (the symmetric ASK join keeps its own pair).
    pub(crate) fn build_side(
        &self,
        plan: &'a Plan,
        key: &[usize],
        eq: &EqPairs,
        ordinal: usize,
    ) -> Arc<BuildSide> {
        let materialize = || {
            let mut build = BuildSide::new(key, eq);
            let dict = self.store.dictionary();
            for row in self.clone().eval(plan) {
                if self.cancel.should_stop() {
                    break;
                }
                build.insert(dict, row);
            }
            Arc::new(build)
        };
        match self.steps.get(ordinal) {
            Some(state) => Arc::clone(state.build.get_or_init(materialize)),
            None => materialize(),
        }
    }

    /// The build side the join numbered `join` has filled, for a
    /// [`Plan::Reuse`] leaf of its probe side to read.
    fn reused_build(&self, join: usize) -> Arc<BuildSide> {
        let state = self.steps.get(join).and_then(|state| state.build.get());
        Arc::clone(state.expect("a join fills its build side before its probe side reads it"))
    }

    /// Fills the build side a [`Plan::Reuse`] leaf reads — that of the
    /// join numbered `join` on `plan`'s probe spine — if no one has yet,
    /// and says how many rows it holds: what an exchange driven by the
    /// leaf splits into morsels.
    pub(crate) fn fill_reused_build(&self, plan: &'a Plan, join: usize) -> usize {
        match plan {
            Plan::Join {
                right,
                key,
                eq,
                ordinal,
                ..
            } if *ordinal == join => self.build_side(right, key, eq, join).rows().len(),
            Plan::Step { input, .. } | Plan::Filter(_, input) | Plan::Join { left: input, .. } => {
                self.fill_reused_build(input, join)
            }
            _ => unreachable!("a reuse leaf sits on its join's probe spine"),
        }
    }

    // -- ordering ------------------------------------------------------

    /// `input`'s rows in `keys` order, ties in arrival order (a stable
    /// sort's), of which only the first `keep` are kept ([`SortBuffer`]).
    /// Cancellation is checked per row, and a cancelled sort yields no
    /// rows.
    fn sorted(self, keys: &'a [PlanOrderKey], input: &'a Plan, keep: usize) -> RowIter<'a> {
        let mut buffer = SortBuffer::new(keys, self.store, keep);
        for row in self.clone().eval(input) {
            if self.cancel.should_stop() {
                break;
            }
            buffer.offer(row);
        }
        if self.cancel.was_triggered() {
            return Box::new(std::iter::empty());
        }
        Box::new(buffer.into_rows())
    }
}

/// One row's value of one ORDER BY key, computed when the row arrives so
/// that comparing two rows decodes nothing: a term (its id, which settles
/// equal terms, and its text), a count, or an expression's boolean. An
/// unbound term sorts first.
#[derive(Clone, Copy)]
enum SortKey<'s> {
    Term(Option<(Id, TermRef<'s>)>),
    Count(Option<Id>),
    Bool(bool),
}

impl SortKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (SortKey::Term(Some((x, a))), SortKey::Term(Some((y, b)))) if x != y => a.cmp(b),
            (SortKey::Term(a), SortKey::Term(b)) => a.is_some().cmp(&b.is_some()),
            (SortKey::Count(a), SortKey::Count(b)) => a.cmp(b),
            (SortKey::Bool(a), SortKey::Bool(b)) => a.cmp(b),
            _ => unreachable!("one ORDER BY key has one kind of value"),
        }
    }
}

/// The one ORDER BY buffer. Each row is filed in a slot with its keys
/// ([`SortKey`], one per ORDER BY key) and its arrival number, and rows
/// order by (keys, arrival). At most `keep` slots are filled: once they
/// are, they form a max-heap, and a row gets in only by displacing the
/// largest — a top-k that holds offset + limit rows under a slice, and a
/// plain sort of every row when `keep` is `usize::MAX`. Slots are pushed
/// as rows arrive, so a huge `keep` reserves nothing.
struct SortBuffer<'s> {
    keys: &'s [PlanOrderKey],
    store: &'s dyn TripleStore,
    keep: usize,
    /// `keys.len()` values per slot.
    values: Vec<SortKey<'s>>,
    rows: Vec<Bindings>,
    arrivals: Vec<u64>,
    /// Slot numbers as a max-heap; empty until every slot is filled.
    heap: Vec<usize>,
    arrived: u64,
}

impl<'s> SortBuffer<'s> {
    fn new(keys: &'s [PlanOrderKey], store: &'s dyn TripleStore, keep: usize) -> Self {
        SortBuffer {
            keys,
            store,
            keep,
            values: Vec::new(),
            rows: Vec::new(),
            arrivals: Vec::new(),
            heap: Vec::new(),
            arrived: 0,
        }
    }

    /// Files `row` if it is among the `keep` first in order so far.
    fn offer(&mut self, row: Bindings) {
        let arrival = self.arrived;
        self.arrived += 1;
        if self.keep == 0 {
            return;
        }
        let dict = self.store.dictionary();
        for key in self.keys {
            self.values.push(match key {
                PlanOrderKey::Var { var, .. } => {
                    SortKey::Term(row.get(*var).map(|id| (id, dict.decode(id))))
                }
                PlanOrderKey::Count { lane, .. } => SortKey::Count(row.get(*lane)),
                PlanOrderKey::Expr { expr, .. } => {
                    SortKey::Bool(expr.evaluate(&row, self.store).unwrap_or(false))
                }
            });
        }
        self.rows.push(row);
        self.arrivals.push(arrival);
        let slot = self.rows.len() - 1;
        if slot < self.keep {
            if slot + 1 == self.keep {
                self.heap = (0..self.keep).collect();
                for i in (0..self.keep / 2).rev() {
                    self.sift_down(i);
                }
            }
            return;
        }
        // Full: the newcomer sits in a spare slot past the heap. It
        // arrived last, so a tie keeps it out.
        let top = self.heap[0];
        if self.cmp(slot, top) == Ordering::Less {
            let n = self.keys.len();
            self.values.copy_within(slot * n..(slot + 1) * n, top * n);
            self.rows.swap(top, slot);
            self.arrivals[top] = arrival;
            self.sift_down(0);
        }
        self.values.truncate(slot * self.keys.len());
        self.rows.truncate(slot);
        self.arrivals.truncate(slot);
    }

    /// Slot `a` against slot `b`: keys in their directions, then arrival.
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        let n = self.keys.len();
        let (va, vb) = (
            &self.values[a * n..(a + 1) * n],
            &self.values[b * n..(b + 1) * n],
        );
        for ((key, x), y) in self.keys.iter().zip(va).zip(vb) {
            let (PlanOrderKey::Var { descending, .. }
            | PlanOrderKey::Count { descending, .. }
            | PlanOrderKey::Expr { descending, .. }) = key;
            let ord = if *descending { y.cmp(x) } else { x.cmp(y) };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.arrivals[a].cmp(&self.arrivals[b])
    }

    /// Restores the max-heap below heap position `i`.
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len()
                    && self.cmp(self.heap[child], self.heap[largest]) == Ordering::Greater
                {
                    largest = child;
                }
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// The kept rows, in order.
    fn into_rows(mut self) -> impl Iterator<Item = Bindings> + 's {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_unstable_by(|&a, &b| self.cmp(a, b));
        let mut rows = std::mem::take(&mut self.rows);
        order
            .into_iter()
            .map(move |slot| std::mem::replace(&mut rows[slot], Bindings::empty(0)))
    }
}

/// The rows a `DISTINCT` has let through, keyed on the variables a
/// projection right below it keeps — evaluated without that projection,
/// which only the survivors then go through (the `Distinct` arm of
/// [`EvalContext::eval_over`]) — or on every variable when nothing
/// projects there. The key is the variables' lanes ([`UNBOUND`] for an
/// unbound one), packed into one integer as far as they fit — up to two
/// into a `u64` (Q4's `(?name1, ?name2)`), up to four into a `u128` — so
/// checking a row allocates and clones nothing; a wider key is a boxed
/// slice of the lanes. The set is sized up front for the rows the
/// planner expects below it ([`output_estimate`]), up to
/// [`SEEN_RESERVE_CAP`], so a `DISTINCT` over tens of thousands of rows
/// does not rehash its way up from empty.
enum Seen {
    Narrow(Vec<usize>, FxHashSet<u64>),
    Packed(Vec<usize>, FxHashSet<u128>),
    Wide(Vec<usize>, FxHashSet<Box<[Id]>>),
}

/// The most keys a `DISTINCT` set reserves room for before its first row:
/// an estimate can be off by orders of magnitude, and room beyond this is
/// bought by growing, when rows actually come. The table rounds 2^17 keys
/// at its 7/8 load up to 2^18 buckets of at most 16 bytes (a `u128` key,
/// or a boxed slice's pointer and length; a `u64` key half that) plus a
/// control byte each — at most about 4.25 MiB per set, and a query holds
/// one per `DISTINCT` it runs (Q4 two: its build side's and its own).
pub const SEEN_RESERVE_CAP: usize = 1 << 17;

impl Seen {
    /// The set for `Distinct(inner)`, and the plan whose rows it checks:
    /// `inner`'s input when `inner` is a projection, `inner` otherwise.
    fn of(inner: &Plan, width: usize) -> (Self, &Plan) {
        let (vars, below) = match inner {
            Plan::Project(vars, below) => (vars.clone(), &**below),
            _ => ((0..width).collect(), inner),
        };
        let room = usize::try_from(output_estimate(inner))
            .map_or(SEEN_RESERVE_CAP, |n| n.min(SEEN_RESERVE_CAP));
        (Seen::keyed_on(vars, room), below)
    }

    /// The set keyed on the lanes of `vars`, with room for `room` keys:
    /// the narrowest form their number of lanes fits.
    fn keyed_on(vars: Vec<usize>, room: usize) -> Self {
        fn reserved<K>(room: usize) -> FxHashSet<K> {
            FxHashSet::with_capacity_and_hasher(room, Default::default())
        }
        match vars.len() {
            0..=2 => Seen::Narrow(vars, reserved(room)),
            3..=4 => Seen::Packed(vars, reserved(room)),
            _ => Seen::Wide(vars, reserved(room)),
        }
    }

    /// Whether `row`'s key is new (and from now on seen).
    #[inline]
    fn insert(&mut self, row: &Bindings) -> bool {
        let lane = |v: usize| row.get(v).unwrap_or(UNBOUND);
        match self {
            Seen::Narrow(vars, seen) => seen.insert(
                vars.iter()
                    .fold(0, |key, &v| key << 32 | u64::from(lane(v))),
            ),
            Seen::Packed(vars, seen) => seen.insert(
                vars.iter()
                    .fold(0, |key, &v| key << 32 | u128::from(lane(v))),
            ),
            Seen::Wide(vars, seen) => seen.insert(vars.iter().map(|&v| lane(v)).collect()),
        }
    }
}

/// Keeps only `vars` bound in each row (the Project operator's mapping).
fn project_rows<'a>(input: RowIter<'a>, vars: &'a [usize], width: usize) -> RowIter<'a> {
    Box::new(input.map(move |row| {
        let mut out = Bindings::empty(width);
        for &v in vars {
            if let Some(val) = row.get(v) {
                out.set(v, val);
            }
        }
        out
    }))
}

/// A join's materialized build side: rows bucketed by join key, plus a
/// flat list of the rows that have none. The key ([`JoinKey`]) is the
/// build row's shared `key` variables, joined by id, plus the equality
/// class of each `eq` pair's right variable (see
/// [`crate::expr::eq_class`]); a probe row looks up the same ids and the
/// classes of the pairs' left variables. With no key at all — or a key
/// variable unbound in the row, possible under partial optional results —
/// a build row goes to the flat list, which every probe scans, so no
/// match is lost: a bucket only narrows the candidates, and
/// [`Bindings::merge_into`] plus the join's condition decide.
///
/// The buckets and the flat list share one row vector, which holds every
/// row in arrival order — the order a probe side that reads the rows back
/// ([`Plan::Reuse`]) gets them in — each bucket a chain through `next`,
/// so filing a row allocates nothing of its own.
#[derive(Debug)]
pub(crate) struct BuildSide {
    key: Vec<usize>,
    eq: EqPairs,
    /// Key → first and last row of its bucket, as indices into `rows`.
    map: FxHashMap<JoinKey, (u32, u32)>,
    /// Every row, in arrival order.
    rows: Vec<Bindings>,
    /// Per row of `rows`, the next row of its bucket ([`CHAIN_END`] for
    /// the last, and for a row without a key).
    next: Vec<u32>,
    /// The rows without a key, as indices into `rows`.
    flat: Vec<u32>,
}

/// The `next` of a bucket's last row.
const CHAIN_END: u32 = u32::MAX;

/// How many components a [`JoinKey`] holds inline.
const KEY_LANES: usize = 4;

/// A bucket key: ids of the shared variables, then the classes of the
/// `eq` pairs ([`crate::expr::eq_class`]), one `u64` each. Up to
/// [`KEY_LANES`] components — Q4's one id, Q5a's and Q6's one class — are
/// an inline value, the unused lanes zero; every key of one join has the
/// same length, so the padding is never ambiguous. A wider key is boxed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Inline([u64; KEY_LANES]),
    Wide(Box<[u64]>),
}

impl BuildSide {
    fn new(key: &[usize], eq: &EqPairs) -> Self {
        BuildSide {
            key: key.to_vec(),
            eq: eq.clone(),
            map: FxHashMap::default(),
            rows: Vec::new(),
            next: Vec::new(),
            flat: Vec::new(),
        }
    }

    /// The join key of `row`, taking each `eq` pair's variable for `side`;
    /// `None` when the join has no key or the row leaves part of it
    /// unbound.
    #[inline]
    fn key_of(
        &self,
        dict: &Dictionary,
        row: &Bindings,
        side: fn(&(usize, usize)) -> usize,
    ) -> Option<JoinKey> {
        let len = self.key.len() + self.eq.len();
        if len == 0 {
            return None;
        }
        let ids = self.key.iter().map(|&v| row.get(v).map(u64::from));
        let classes = self
            .eq
            .iter()
            .map(|pair| Some(eq_class(dict, row.get(side(pair))?)));
        let mut components = ids.chain(classes);
        if len > KEY_LANES {
            return components.collect::<Option<_>>().map(JoinKey::Wide);
        }
        let mut lanes = [0; KEY_LANES];
        for (lane, component) in lanes.iter_mut().zip(&mut components) {
            *lane = component?;
        }
        Some(JoinKey::Inline(lanes))
    }

    /// Files one build-side row. Rows arrive in evaluation order, which
    /// is bucket order — and with it probe output order.
    fn insert(&mut self, dict: &Dictionary, row: Bindings) {
        let at = u32::try_from(self.rows.len()).expect("a build side holds under 2^32 rows");
        let key = self.key_of(dict, &row, |pair| pair.1);
        self.rows.push(row);
        self.next.push(CHAIN_END);
        let Some(key) = key else {
            self.flat.push(at);
            return;
        };
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut bucket) => {
                let (_, last) = bucket.get_mut();
                self.next[*last as usize] = at;
                *last = at;
            }
            std::collections::hash_map::Entry::Vacant(bucket) => {
                bucket.insert((at, at));
            }
        }
    }

    /// Starts probing with `row`: its candidates are its bucket, then
    /// the flat list.
    #[inline]
    fn probe(&self, dict: &Dictionary, row: Bindings) -> Probe {
        let at = self
            .key_of(dict, &row, |pair| pair.0)
            .and_then(|k| self.map.get(&k))
            .map_or(CHAIN_END, |&(first, _)| first);
        Probe {
            row,
            at,
            flat: 0,
            matched: false,
        }
    }

    /// The next candidate of `probe`, advancing it.
    #[inline]
    fn next_candidate(&self, probe: &mut Probe) -> Option<&Bindings> {
        if probe.at != CHAIN_END {
            let row = &self.rows[probe.at as usize];
            probe.at = self.next[probe.at as usize];
            return Some(row);
        }
        let &at = self.flat.get(probe.flat)?;
        probe.flat += 1;
        Some(&self.rows[at as usize])
    }

    /// Every row, in the order it was filed.
    pub(crate) fn rows(&self) -> &[Bindings] {
        &self.rows
    }
}

/// One probe row's walk over its candidates: a cursor into its bucket
/// chain, then into the flat list, so probing can stop after any match
/// and resume where it left off.
struct Probe {
    row: Bindings,
    /// The next row of the bucket ([`CHAIN_END`] once it is done).
    at: u32,
    /// The next row of the flat list, once the bucket is done.
    flat: usize,
    /// Whether a candidate has matched.
    matched: bool,
}

/// Matches a probe copies out per pass over its candidates. A consumer
/// that stops early pays for at most this many rows it never reads. One
/// match per pass costs Q4's join at 50k about a quarter more time than
/// a probe row's whole bucket at once: each pass re-enters the walk and
/// interleaves it with the consumer's work.
const PROBE_BATCH: usize = 64;

/// Rows a probe found and not yet delivered: at most [`PROBE_BATCH`].
/// One buffer serves every probe row of a join instance.
type Matches = std::collections::VecDeque<Bindings>;

/// The probe half of a hash join: streams `input`, probing `build` with
/// each row ([`probe_into`]), and books rows out and probe time against
/// the join's `ordinal`.
fn join_rows<'a>(
    ctx: EvalContext<'a>,
    mut input: RowIter<'a>,
    build: Arc<BuildSide>,
    kind: JoinKind,
    condition: Option<&'a BoundExpr>,
    ordinal: usize,
) -> RowIter<'a> {
    let mut tally = LocalTally::new(&ctx, ordinal, OpKind::Join);
    let mut scratch = Bindings::empty(ctx.width);
    let (mut probe, mut out) = (None, Matches::new());
    Box::new(std::iter::from_fn(move || loop {
        if let Some(row) = out.pop_front() {
            tally.emitted();
            return Some(row);
        }
        // Pulling the next input row is the upstream operators' time.
        let next = match probe {
            Some(_) => None,
            None if ctx.cancel.should_stop() => return None,
            None => Some(input.next()?),
        };
        tally.record(|| {
            if let Some(l) = next {
                probe = Some(build.probe(ctx.store.dictionary(), l));
            }
            probe_into(
                &ctx,
                &build,
                kind,
                condition,
                &mut probe,
                &mut scratch,
                &mut out,
            );
            ((), 0)
        });
    }))
}

/// An inner hash join that materializes neither input ahead of the
/// other: rows are pulled from the two inputs in turn, each probes the
/// table of the opposite input's rows seen so far and is then filed in its
/// own, so every matching pair is emitted exactly once — when the later of
/// its two rows arrives. Same tables, same probe ([`probe_into`]) and
/// same tally as [`join_rows`]; what differs is that the first output row
/// costs only the input prefixes up to it, which is what a
/// [`Observe::Witness`] walk wants.
fn symmetric_join_rows<'a>(
    ctx: EvalContext<'a>,
    inputs: [RowIter<'a>; 2],
    key: &[usize],
    eq: &EqPairs,
    condition: Option<&'a BoundExpr>,
    ordinal: usize,
) -> RowIter<'a> {
    // A table is probed through each pair's first variable and filed
    // through its second, so the table of left rows takes the pairs
    // flipped.
    let flipped: EqPairs = eq.iter().map(|&(l, r)| (r, l)).collect();
    let [left, right] = inputs;
    let mut sides = [
        (Some(left), BuildSide::new(key, &flipped)),
        (Some(right), BuildSide::new(key, eq)),
    ];
    let mut turn = 0;
    let mut tally = LocalTally::new(&ctx, ordinal, OpKind::Join);
    let mut scratch = Bindings::empty(ctx.width);
    // The running probe walks the table of the side whose turn is next.
    // That table gains no row until the probe is done: only its own input
    // files into it, and that input is not pulled meanwhile.
    let (mut probe, mut out) = (None, Matches::new());
    Box::new(std::iter::from_fn(move || loop {
        if let Some(row) = out.pop_front() {
            tally.emitted();
            return Some(row);
        }
        if probe.is_none() {
            if ctx.cancel.should_stop() {
                return None;
            }
            let [a, b] = &mut sides;
            let ((input, seen), (other_input, other_seen)) =
                if turn == 0 { (a, b) } else { (b, a) };
            turn ^= 1;
            let Some(row) = input.as_mut().and_then(Iterator::next) else {
                *input = None;
                if other_input.is_none() {
                    return None;
                }
                continue;
            };
            // A merge is the same row whichever side it starts from.
            probe = Some(other_seen.probe(ctx.store.dictionary(), row.clone()));
            // Nothing will probe this table once the other input has ended.
            if other_input.is_some() {
                seen.insert(ctx.store.dictionary(), row);
            }
        }
        let table = &sides[turn].1;
        tally.record(|| {
            let inner = JoinKind::Inner;
            probe_into(
                &ctx,
                table,
                inner,
                condition,
                &mut probe,
                &mut scratch,
                &mut out,
            );
            ((), 0)
        });
    }))
}

/// Walks the running `probe`'s candidates, appending what it emits to
/// `out`, until [`PROBE_BATCH`] matches are out (the probe stays, to
/// resume) or the candidates run out (the probe ends, `None` left
/// behind). Each candidate is merged into `scratch`
/// ([`Bindings::merge_into`], which checks every shared position,
/// possibly-bound ones included) and `condition` is evaluated there, so
/// only a match — a merge that passes — is ever copied into a row of its
/// own. An inner join emits its matches; an OPTIONAL its matches or, with
/// none, the probe row; an anti-join the probe row when there is no match
/// and nothing otherwise, stopping at the first. Cancellation is checked
/// per candidate, not per probe row: a keyless join's candidates are the
/// whole build side, and the deadline is only read every `CLOCK_STRIDE`
/// checks.
fn probe_into(
    ctx: &EvalContext<'_>,
    build: &BuildSide,
    kind: JoinKind,
    condition: Option<&BoundExpr>,
    probe: &mut Option<Probe>,
    scratch: &mut Bindings,
    out: &mut Matches,
) {
    let Some(p) = probe.as_mut() else { return };
    let mut copied = 0;
    while let Some(r) = build.next_candidate(p) {
        if ctx.cancel.should_stop() {
            break;
        }
        if !p.row.merge_into(r, scratch)
            || condition.is_some_and(|c| c.evaluate(scratch, ctx.store) != Ok(true))
        {
            continue;
        }
        p.matched = true;
        if kind == JoinKind::Anti {
            break;
        }
        out.push_back(scratch.clone());
        copied += 1;
        if copied == PROBE_BATCH {
            return;
        }
    }
    let done = probe
        .take()
        .filter(|done| !done.matched && kind != JoinKind::Inner);
    out.extend(done.map(|done| done.row));
}

/// One pattern step ([`Plan::Step`]): extends every input row by the triples
/// matching the pattern under that row's bindings. The triples come from
/// a store lookup per row until the step has issued as many lookups as a
/// fetch of the whole pattern costs, and from the fetched table after
/// that (see the module docs); rows, their order, cancellation checks and
/// tallies do not depend on which.
struct PatternBind<'a> {
    ctx: EvalContext<'a>,
    pattern: &'a PlanPattern,
    input: RowIter<'a>,
    /// The input row being extended and what is left of its candidates.
    base: Bindings,
    triples: Triples<'a>,
    /// Lookups not yet added to the shared [`StepState`] count.
    unflushed: u64,
    tally: LocalTally,
}

/// The candidate triples of one input row.
enum Triples<'a> {
    /// A store scan with the row's bindings in the pattern.
    Lookup(Box<dyn Iterator<Item = IdTriple> + 'a>),
    /// What is left of a group of the step's fetched table.
    Group(std::ops::Range<usize>),
}

/// A step's fetch rule and this execution's state for it, when it has
/// both.
fn rented<'p, 's>(
    pattern: &'p PlanPattern,
    steps: &'s [StepState],
) -> Option<(&'p FetchRule, &'s StepState)> {
    pattern.fetch.as_ref().zip(steps.get(pattern.ordinal))
}

impl<'a> PatternBind<'a> {
    fn new(ctx: EvalContext<'a>, pattern: &'a PlanPattern, input: RowIter<'a>) -> Self {
        let none_yet = Box::new(std::iter::empty());
        Self::start(ctx, pattern, input, Bindings::empty(0), none_yet)
    }

    /// The step in the middle of `base` — `scan` left of its candidates —
    /// with `input` still to come.
    fn start(
        ctx: EvalContext<'a>,
        pattern: &'a PlanPattern,
        input: RowIter<'a>,
        base: Bindings,
        scan: Box<dyn Iterator<Item = IdTriple> + 'a>,
    ) -> Self {
        let tally = LocalTally::new(&ctx, pattern.ordinal, OpKind::Scan);
        PatternBind {
            ctx,
            pattern,
            input,
            base,
            triples: Triples::Lookup(scan),
            unflushed: 0,
            tally,
        }
    }

    /// The step's fetched table, if it has one.
    fn fetched(&self) -> Option<&Fetched> {
        let (_, state) = rented(self.pattern, &self.ctx.steps)?;
        state.fetched.get()?.as_ref()
    }

    /// Moves on to input row `row`: binds the pattern under it and picks
    /// where its triples come from.
    fn open(&mut self, row: Bindings) {
        let mut bound: Pattern = [None, None, None];
        let mut dead = false;
        for (i, slot) in self.pattern.slots.iter().enumerate() {
            match slot {
                PlanSlot::Const(Some(id)) => bound[i] = Some(*id),
                PlanSlot::Const(None) => dead = true,
                PlanSlot::Var(v) => bound[i] = row.get(*v),
            }
        }
        self.base = row;
        self.triples = if dead {
            Triples::Lookup(Box::new(std::iter::empty()))
        } else if let Some(group) = self.group_of(&bound) {
            self.tally.local.access.probes += 1;
            Triples::Group(group)
        } else {
            self.tally.local.access.lookups += 1;
            Triples::Lookup(self.ctx.store.scan(bound))
        };
    }

    /// The ski-rental decision for one row: `None` while the step is
    /// still renting — the row is to be looked up — and the row's group
    /// of the fetched table once it has bought, fetching it first if this
    /// is the row that finds the break-even reached.
    fn group_of(&mut self, bound: &Pattern) -> Option<std::ops::Range<usize>> {
        let (rule, state) = rented(self.pattern, &self.ctx.steps)?;
        if state.fetched.get().is_none() {
            // Relaxed throughout: the count publishes nothing (the table
            // is published by the OnceLock), and elsewhere it changes only
            // once per LOOKUP_FLUSH lookups, so this read stays cheap.
            let issued = state.lookups.load(AtomicOrdering::Relaxed) + self.unflushed;
            let renting = issued < rule.after;
            self.unflushed += u64::from(renting);
            if !renting || self.unflushed == LOOKUP_FLUSH {
                let unflushed = std::mem::take(&mut self.unflushed);
                state.lookups.fetch_add(unflushed, AtomicOrdering::Relaxed);
            }
            if renting {
                return None;
            }
            // Whoever gets here first builds; the others wait for it
            // instead of issuing lookups the table is about to make
            // unnecessary.
            state.fetched.get_or_init(|| {
                let (store, pattern) = (self.ctx.store, self.pattern);
                let fetched = self.tally.once(|| Fetched::build(store, pattern, rule));
                self.tally.local.access.fetched = fetched.as_ref().map(|f| f.triples.len() as u64);
                fetched
            });
        }
        state.fetched.get()?.as_ref()?.group(rule.key, bound)
    }

    /// The next extension of the current input row.
    fn advance(&mut self) -> Option<Bindings> {
        loop {
            if self.ctx.cancel.should_stop() {
                return None;
            }
            let triple = match &mut self.triples {
                Triples::Lookup(scan) => scan.next()?,
                Triples::Group(group) => {
                    let i = group.next()?;
                    self.fetched()?.triples[i]
                }
            };
            if let Some(row) = extend_row(&self.base, self.pattern, &triple) {
                return Some(row);
            }
        }
    }
}

impl Iterator for PatternBind<'_> {
    type Item = Bindings;

    fn next(&mut self) -> Option<Bindings> {
        loop {
            let started = self.tally.start();
            let row = self.advance();
            self.tally.stop(started, u64::from(row.is_some()));
            if row.is_some() || self.ctx.cancel.was_triggered() {
                return row;
            }
            // Pulling the next input row is the upstream operators' time.
            let next = self.input.next()?;
            let started = self.tally.start();
            self.open(next);
            self.tally.stop(started, 0);
        }
    }
}

impl Drop for PatternBind<'_> {
    /// A finished instance reports the lookups it held back, so the
    /// shared count is exact however many morsels a step ran as.
    fn drop(&mut self) {
        if let Some((_, state)) = rented(self.pattern, &self.ctx.steps) {
            state
                .lookups
                .fetch_add(self.unflushed, AtomicOrdering::Relaxed);
        }
    }
}

/// Extends `base` with the variable bindings `pattern` takes from
/// `triple`; `None` when a variable disagrees across positions — either
/// with the base row or repeated within the pattern (e.g. `?x ?p ?x`).
fn extend_row(base: &Bindings, pattern: &PlanPattern, triple: &IdTriple) -> Option<Bindings> {
    let mut row = base.clone();
    for (i, slot) in pattern.slots.iter().enumerate() {
        if let PlanSlot::Var(v) = slot {
            match row.get(*v) {
                Some(existing) if existing != triple[i] => return None,
                Some(_) => {}
                None => row.set(*v, triple[i]),
            }
        }
    }
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::translate;
    use crate::optimizer::OptimizerConfig;
    use crate::parser::parse;
    use crate::plan::bind;
    use crate::testing::{load, NATIVE};
    use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
    use sp2b_store::ShardBackend;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let p = |s: &str| Subject::iri(format!("http://x/{s}"));
        let i = |s: &str| Iri::new(format!("http://x/{s}"));
        let t = |s: &str| Term::iri(format!("http://x/{s}"));
        g.add(p("alice"), i("knows"), t("bob"));
        g.add(p("bob"), i("knows"), t("carol"));
        g.add(p("carol"), i("knows"), t("alice"));
        g.add(p("alice"), i("age"), Term::Literal(Literal::integer(30)));
        g.add(p("bob"), i("age"), Term::Literal(Literal::integer(40)));
        g.add(
            p("alice"),
            i("name"),
            Term::Literal(Literal::string("Alice")),
        );
        g
    }

    fn run(query: &str) -> Vec<Vec<Option<String>>> {
        run_on(&load(&graph(), ShardBackend::Mem), query)
    }

    fn run_on(store: &dyn TripleStore, query: &str) -> Vec<Vec<Option<String>>> {
        let t = translate(&parse(query).unwrap());
        let plan = bind(&t.algebra, store, &OptimizerConfig::default());
        let cancel = Cancellation::none();
        let ctx = EvalContext {
            store,
            shared: None,
            cancel: cancel.clone(),
            width: t.vars.len(),
            counters: None,
            steps: Arc::default(),
        };
        ctx.eval(&plan)
            .map(|row| {
                t.projection
                    .iter()
                    .map(|&v| {
                        row.get(v)
                            .map(|id| store.dictionary().decode(id).to_string())
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rows_hold_sixteen_lanes_inline_and_spill_past_them() {
        assert_eq!(
            std::mem::size_of::<Bindings>(),
            72,
            "one cache line of lanes"
        );
        assert_eq!(std::mem::size_of::<Option<Bindings>>(), 72);
        for width in [0, 3, INLINE_LANES, INLINE_LANES + 1, 40] {
            let lanes = |bound: fn(Id) -> bool| -> Vec<Option<Id>> {
                (0..width as Id).map(|i| bound(i).then_some(i)).collect()
            };
            let values = lanes(|i| i % 3 != 0);
            let row = Bindings::new(values.clone());
            assert_eq!(row.width(), width);
            assert_eq!(row.values().collect::<Vec<_>>(), values);
            assert_eq!(row.get(width), None, "past the width");
            // Merging in the lanes the row leaves unbound binds them all.
            let other = Bindings::new(lanes(|i| i % 3 == 0));
            let mut out = Bindings::empty(width);
            assert!(row.merge_into(&other, &mut out));
            assert_eq!(out.values().collect::<Vec<_>>(), lanes(|_| true));
            if width > 1 {
                let mut conflicting = other.clone();
                conflicting.set(1, 99);
                assert!(
                    !row.merge_into(&conflicting, &mut out),
                    "lane 1 is 1 in `row`"
                );
            }
        }
    }

    #[test]
    fn single_pattern() {
        let rows = run("SELECT ?o WHERE { <http://x/alice> <http://x/knows> ?o }");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_deref(), Some("<http://x/bob>"));
    }

    #[test]
    fn two_pattern_chain() {
        let rows = run(
            "SELECT ?c WHERE { <http://x/alice> <http://x/knows> ?b . ?b <http://x/knows> ?c }",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_deref(), Some("<http://x/carol>"));
    }

    #[test]
    fn filter_on_integer() {
        let rows = run("SELECT ?p WHERE { ?p <http://x/age> ?a FILTER (?a > 35) }");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_deref(), Some("<http://x/bob>"));
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let rows =
            run("SELECT ?p ?n WHERE { ?p <http://x/age> ?a OPTIONAL { ?p <http://x/name> ?n } }");
        assert_eq!(rows.len(), 2);
        let with_name = rows.iter().filter(|r| r[1].is_some()).count();
        assert_eq!(with_name, 1, "only alice has a name");
    }

    #[test]
    fn optional_filter_condition_scopes_outer_vars() {
        // The LeftJoin condition references ?a from the outer group: only
        // persons older than 35 get the name joined (nobody, since only
        // alice has a name and she is 30) — all rows survive unmatched.
        let rows = run(
            "SELECT ?p ?n WHERE { ?p <http://x/age> ?a OPTIONAL { ?p <http://x/name> ?n FILTER (?a > 35) } }",
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[1].is_none()));
    }

    #[test]
    fn closed_world_negation() {
        // Persons with age but no name: bob.
        let rows = run(
            "SELECT ?p WHERE { ?p <http://x/age> ?x OPTIONAL { ?p <http://x/name> ?n } FILTER (!bound(?n)) }",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_deref(), Some("<http://x/bob>"));
    }

    #[test]
    fn union_concatenates() {
        let rows =
            run("SELECT ?x WHERE { { ?x <http://x/age> ?y } UNION { ?x <http://x/name> ?y } }");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn distinct_deduplicates() {
        let rows = run("SELECT DISTINCT ?p WHERE { ?s ?p ?o }");
        assert_eq!(rows.len(), 3); // knows, age, name
    }

    #[test]
    fn order_by_with_limit_offset() {
        let rows = run("SELECT ?s WHERE { ?s <http://x/knows> ?o } ORDER BY ?s LIMIT 2 OFFSET 1");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].as_deref(), Some("<http://x/bob>"));
        assert_eq!(rows[1][0].as_deref(), Some("<http://x/carol>"));
    }

    #[test]
    fn order_by_desc() {
        let rows = run("SELECT ?a WHERE { ?p <http://x/age> ?a } ORDER BY DESC(?a)");
        assert_eq!(
            rows[0][0].as_deref(),
            Some("\"40\"^^<http://www.w3.org/2001/XMLSchema#integer>")
        );
    }

    #[test]
    fn repeated_variable_in_pattern() {
        // ?x knows ?x — nobody knows themselves.
        let rows = run("SELECT ?x WHERE { ?x <http://x/knows> ?x }");
        assert!(rows.is_empty());
    }

    #[test]
    fn join_merges_possibly_bound_shared_variable() {
        // ?c is shared between the two join sides but only *possibly*
        // bound on the left (inside an OPTIONAL): it cannot be part of
        // the hash key, so the residual compatibility must come from the
        // full-row merge. alice's left row carries ?c = "Alice"; her
        // right rows bind ?c = "Alice" (compatible → merges) and
        // ?c = "Wonderland" (conflict → dropped). bob's left row leaves
        // ?c unbound, so it merges with his right binding.
        let mut g = graph();
        let p = |s: &str| Subject::iri(format!("http://x/{s}"));
        let i = |s: &str| Iri::new(format!("http://x/{s}"));
        g.add(
            p("alice"),
            i("likes"),
            Term::Literal(Literal::string("Alice")),
        );
        g.add(
            p("alice"),
            i("likes"),
            Term::Literal(Literal::string("Wonderland")),
        );
        g.add(p("bob"), i("likes"), Term::Literal(Literal::string("Math")));
        let store = load(&g, ShardBackend::Mem);
        let mut rows = run_on(
            &store,
            "SELECT ?p ?c WHERE {
                { ?p <http://x/age> ?a OPTIONAL { ?p <http://x/name> ?c } }
                { ?p <http://x/likes> ?c }
             }",
        );
        rows.sort();
        let string_lit = |s: &str| format!("\"{s}\"^^<http://www.w3.org/2001/XMLSchema#string>");
        assert_eq!(
            rows,
            vec![
                vec![
                    Some("<http://x/alice>".to_owned()),
                    Some(string_lit("Alice"))
                ],
                vec![Some("<http://x/bob>".to_owned()), Some(string_lit("Math"))],
            ],
            "conflicting ?c must be rejected, unbound ?c must merge"
        );
    }

    #[test]
    fn witness_evaluation_finds_the_same_rows_in_another_order() {
        // One-row consumers run inner joins symmetrically; drained, that
        // must still be every row of the ordinary join, each once.
        let store = load(&graph(), ShardBackend::Mem);
        for q in [
            "SELECT * WHERE { { ?p <http://x/knows> ?o } { ?p <http://x/age> ?a } }",
            "SELECT * WHERE { { ?a <http://x/age> ?x } { ?b <http://x/knows> ?y } }",
            "SELECT * WHERE { { { ?p <http://x/knows> ?o } { ?p <http://x/age> ?a } } { ?o <http://x/knows> ?q } }",
        ] {
            let t = translate(&parse(q).unwrap());
            let Plan::Project(_, join) = bind(&t.algebra, &store, &OptimizerConfig::default()) else {
                panic!()
            };
            assert!(matches!(*join, Plan::Join { .. }), "{q}");
            let ctx = || EvalContext {
                store: &store,
                shared: None,
                cancel: Cancellation::none(),
                width: t.vars.len(),
                counters: None,
                steps: Arc::default(),
            };
            let sorted = |rows: RowIter<'_>| {
                let mut rows: Vec<Vec<_>> = rows.map(|r| r.values().collect()).collect();
                rows.sort();
                rows
            };
            let expected = sorted(ctx().eval(&join));
            assert!(!expected.is_empty(), "{q}");
            let witness = ctx().eval_over(&join, None, Observe::Witness);
            assert_eq!(sorted(witness), expected, "{q}");
        }
    }

    #[test]
    fn exchange_matches_sequential_order_exactly() {
        // A store big enough for several morsels; the Exchange output
        // must equal the sequential rows in the same order — also when
        // workers produce all but the first morsel (a 3000-row scan is
        // far too short to earn them by itself).
        #[cfg(debug_assertions)]
        crate::par::diag::fan_out_at_once(true);
        let mut g = Graph::new();
        for i in 0..3000 {
            g.add(
                Subject::iri(format!("http://x/s{i:04}")),
                Iri::new("http://x/p"),
                Term::Literal(Literal::integer(i)),
            );
        }
        let store: SharedStore = load(&g, NATIVE).into_shared();
        let t = translate(&parse("SELECT ?s ?v WHERE { ?s <http://x/p> ?v }").unwrap());
        let plan = bind(&t.algebra, &*store, &OptimizerConfig::default());
        let Plan::Project(vars, inner) = plan else {
            panic!()
        };
        let parallel = Plan::Project(
            vars.clone(),
            Box::new(Plan::Exchange {
                degree: 4,
                input: inner.clone().into(),
            }),
        );
        let sequential = Plan::Project(vars, inner);
        let ctx = || EvalContext {
            store: &*store,
            shared: Some(store.clone()),
            cancel: Cancellation::none(),
            width: t.vars.len(),
            counters: None,
            steps: Arc::default(),
        };
        let seq: Vec<Bindings> = ctx().eval(&sequential).collect();
        let par: Vec<Bindings> = ctx().eval(&parallel).collect();
        assert_eq!(seq.len(), 3000);
        assert_eq!(seq, par, "parallel merge must preserve sequential order");
    }

    #[test]
    fn exchange_honours_pre_triggered_cancellation() {
        let mut g = Graph::new();
        for i in 0..2000 {
            g.add(
                Subject::iri(format!("http://x/s{i}")),
                Iri::new("http://x/p"),
                Term::Literal(Literal::integer(i)),
            );
        }
        let store: SharedStore = load(&g, NATIVE).into_shared();
        let t = translate(&parse("SELECT ?s WHERE { ?s <http://x/p> ?v }").unwrap());
        let Plan::Project(_, inner) = bind(&t.algebra, &*store, &OptimizerConfig::default()) else {
            panic!()
        };
        let plan = Plan::Exchange {
            degree: 4,
            input: inner.into(),
        };
        let cancel = Cancellation::none();
        cancel.cancel();
        let ctx = EvalContext {
            store: &*store,
            shared: Some(store.clone()),
            cancel: cancel.clone(),
            width: t.vars.len(),
            counters: None,
            steps: Arc::default(),
        };
        assert_eq!(ctx.eval(&plan).count(), 0);
        assert!(cancel.was_triggered());
    }

    /// Runs one pattern step over `inputs`, with `rule` as its fetch rule,
    /// and says whether it ended up with a fetched table.
    fn step_rows(
        store: &dyn TripleStore,
        slots: [PlanSlot; 3],
        rule: Option<FetchRule>,
        inputs: &[Bindings],
    ) -> (Vec<Bindings>, bool) {
        let pattern = PlanPattern {
            slots,
            ordinal: 0,
            fetch: rule,
            est_rows: 0,
        };
        let ctx = EvalContext {
            store,
            shared: None,
            cancel: Cancellation::none(),
            width: 3,
            counters: None,
            steps: Arc::new([StepState::default()]),
        };
        let steps = Arc::clone(&ctx.steps);
        let rows: Vec<Bindings> =
            PatternBind::new(ctx, &pattern, Box::new(inputs.iter().cloned())).collect();
        let fetched = matches!(steps[0].fetched.get(), Some(Some(_)));
        (rows, fetched)
    }

    #[test]
    fn fetched_step_emits_the_bound_scans_sequence() {
        // Nodes double as subjects and objects, so `?x p ?x` can match.
        let mut g = Graph::new();
        for s in 0..7u32 {
            for p in 0..3u32 {
                for o in 0..7u32 {
                    if (s * 31 + p * 17 + o * 7) % 3 != 0 {
                        g.add(
                            Subject::iri(format!("http://x/n{s}")),
                            Iri::new(format!("http://x/p{p}")),
                            Term::iri(format!("http://x/n{o}")),
                        );
                    }
                }
            }
        }
        // The native store serves each bound mask from the run whose
        // prefix it is — all four get used below; the sharded store
        // concatenates or routes; the memory store walks posting lists.
        let stores: [(&str, Box<dyn TripleStore>); 3] = [
            ("native", Box::new(load(&g, NATIVE))),
            (
                "sharded",
                Box::new(crate::testing::sharded(
                    &g,
                    2,
                    sp2b_store::ShardBy::Subject,
                    NATIVE,
                )),
            ),
            ("mem", Box::new(load(&g, ShardBackend::Mem))),
        ];
        for (name, store) in &stores {
            let store: &dyn TripleStore = store.as_ref();
            let ids = store.dictionary().len() as Id;
            let id = |iri: &str| store.resolve(&Term::iri(iri)).expect("term is in the data");
            let consts = [id("http://x/n3"), id("http://x/p1"), id("http://x/n3")];
            // Per position: a constant, a variable the input binds, or a
            // free variable. `alias` makes the object the subject's
            // variable (`?x p ?x`).
            for shape in 0..27usize {
                for alias in [false, true] {
                    let kind = [shape % 3, shape / 3 % 3, shape / 9];
                    if alias && (kind[0] == 0 || kind[2] != kind[0]) {
                        continue;
                    }
                    let var = |i: usize| if alias && i == 2 { 0 } else { i };
                    let slots: [PlanSlot; 3] = std::array::from_fn(|i| match kind[i] {
                        0 => PlanSlot::Const(Some(consts[i])),
                        _ => PlanSlot::Var(var(i)),
                    });
                    let key: [bool; 3] = std::array::from_fn(|i| kind[i] == 1);
                    if key == [false; 3] {
                        continue;
                    }
                    // Every combination of ids for the bound variables,
                    // matching or not.
                    let keyed: Vec<usize> = (0..3).filter(|&i| key[i] && var(i) == i).collect();
                    let mut inputs = vec![Bindings::empty(3)];
                    for &v in &keyed {
                        inputs = inputs
                            .iter()
                            .flat_map(|row| {
                                (0..ids).map(move |value| {
                                    let mut row = row.clone();
                                    row.set(v, value);
                                    row
                                })
                            })
                            .collect();
                    }
                    let (looked_up, fetched) = step_rows(store, slots, None, &inputs);
                    assert!(!fetched);
                    // Fetching at once, and part-way through the input.
                    for after in [0, inputs.len() as u64 / 2] {
                        let rule = FetchRule { after, key };
                        let (rows, fetched) = step_rows(store, slots, Some(rule), &inputs);
                        assert!(fetched, "{name} {slots:?}");
                        assert_eq!(rows, looked_up, "{name} {slots:?} fetch after {after}");
                    }
                    // Never reaching the break-even, never fetching.
                    let rule = FetchRule {
                        after: inputs.len() as u64,
                        key,
                    };
                    let (rows, fetched) = step_rows(store, slots, Some(rule), &inputs);
                    assert!(!fetched, "{name} {slots:?}");
                    assert_eq!(rows, looked_up);
                }
            }
        }
    }

    #[test]
    fn pattern_that_outgrows_the_cap_stays_on_lookups() {
        // The rule's figure is the store's estimate; the cap holds against
        // what the scan actually returns.
        let mut g = Graph::new();
        for i in 0..=FETCH_CAP {
            g.add(
                Subject::iri(format!("http://x/s{}", i % 50)),
                Iri::new("http://x/p"),
                Term::Literal(Literal::integer(i as i64)),
            );
        }
        let store = load(&g, NATIVE);
        let p = store.resolve(&Term::iri("http://x/p")).unwrap();
        let s7 = store.resolve(&Term::iri("http://x/s7")).unwrap();
        let slots = [PlanSlot::Var(0), PlanSlot::Const(Some(p)), PlanSlot::Var(1)];
        let mut row = Bindings::empty(3);
        row.set(0, s7);
        let inputs = vec![row; 3];
        let rule = FetchRule {
            after: 1,
            key: [true, false, false],
        };
        let (rows, fetched) = step_rows(&store, slots, Some(rule), &inputs);
        assert!(!fetched);
        assert_eq!(rows, step_rows(&store, slots, None, &inputs).0);
        assert_eq!(
            rows.len(),
            3 * store.scan([Some(s7), Some(p), None]).count()
        );
    }

    #[test]
    fn a_join_stops_probing_when_its_consumer_stops() {
        // Every `?t` row matches the first `?s` row: copying a probe row's
        // matches out ahead of the consumer emitted all 12 000 of them.
        let mut g = Graph::new();
        for i in 0..12_000 {
            g.add(
                Subject::iri(format!("http://x/s{i}")),
                Iri::new("http://x/p"),
                Term::Literal(Literal::integer(i)),
            );
        }
        let store = load(&g, NATIVE).into_shared();
        for q in [
            "SELECT ?s ?t WHERE { ?s <http://x/p> ?v . ?t <http://x/p> ?w } LIMIT 1",
            "SELECT ?s ?t WHERE { ?s <http://x/p> ?v OPTIONAL { ?t <http://x/p> ?w } } LIMIT 1",
        ] {
            let counters = Arc::new(ScanCounters::default());
            let options = crate::QueryOptions::new().parallelism(1);
            let engine = crate::QueryEngine::with_options(store.clone(), options)
                .scan_counters(counters.clone());
            let prepared = engine.prepare(q).unwrap();
            assert_eq!(engine.solutions(&prepared).count(), 1, "{q}");
            let tallies = lock(&counters.tallies);
            let joins: Vec<_> = tallies
                .values()
                .filter(|t| t.kind == OpKind::Join)
                .collect();
            assert_eq!(joins.len(), 1, "{q}");
            assert!(
                joins[0].rows <= 2,
                "{q}: the join emitted {} rows",
                joins[0].rows
            );
        }
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let rows = run("SELECT ?a ?b WHERE { { ?a <http://x/age> ?x } { ?b <http://x/name> ?y } }");
        assert_eq!(rows.len(), 2); // 2 ages × 1 name
    }

    #[test]
    fn native_store_agrees_with_mem_store() {
        let g = graph();
        let mem = load(&g, ShardBackend::Mem);
        let native = load(&g, NATIVE);
        for q in [
            "SELECT ?s ?o WHERE { ?s <http://x/knows> ?o }",
            "SELECT ?p WHERE { ?p <http://x/age> ?a FILTER (?a > 35) }",
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
            "SELECT ?p ?n WHERE { ?p <http://x/age> ?a OPTIONAL { ?p <http://x/name> ?n } }",
        ] {
            let mut a = run_on(&mem, q);
            let mut b = run_on(&native, q);
            a.sort();
            b.sort();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn cancellation_stops_evaluation() {
        let store = load(&graph(), ShardBackend::Mem);
        let t = translate(&parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s2 ?p2 ?o2 }").unwrap());
        let plan = bind(&t.algebra, &store, &OptimizerConfig::default());
        let cancel = Cancellation::none();
        cancel.cancel();
        let ctx = EvalContext {
            store: &store,
            shared: None,
            cancel: cancel.clone(),
            width: t.vars.len(),
            counters: None,
            steps: Arc::default(),
        };
        assert_eq!(ctx.eval(&plan).count(), 0);
        assert!(cancel.was_triggered());
    }

    #[test]
    fn a_cancelled_sort_yields_no_rows_sliced_or_not() {
        let store = load(&graph(), NATIVE);
        for query in [
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s)",
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 2 OFFSET 1",
        ] {
            let t = translate(&parse(query).unwrap());
            let plan = bind(&t.algebra, &store, &OptimizerConfig::full());
            let ctx = |cancel: &Cancellation| EvalContext {
                store: &store,
                shared: None,
                cancel: cancel.clone(),
                width: t.vars.len(),
                counters: None,
                steps: Arc::default(),
            };
            assert!(
                ctx(&Cancellation::none()).eval(&plan).count() > 0,
                "{query}"
            );
            let cancel = Cancellation::none();
            cancel.cancel();
            assert_eq!(ctx(&cancel).eval(&plan).count(), 0, "{query}");
        }
    }

    #[test]
    fn unbound_rows_sort_first() {
        let rows = run(
            "SELECT ?p ?n WHERE { ?p <http://x/age> ?a OPTIONAL { ?p <http://x/name> ?n } } ORDER BY ?n",
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[0][1].is_none());
        assert!(rows[1][1].is_some());
    }

    /// A `DISTINCT` key packs its lanes into the narrowest integer their
    /// number fits — a `u64` for up to two, a `u128` for up to four — and
    /// must still tell exactly the rows apart that the lanes themselves
    /// do: over seeded rows of small ids and unbound lanes (which pack as
    /// [`UNBOUND`], the largest id), `insert` answers as a set of the
    /// lanes' values does.
    #[test]
    fn packed_distinct_keys_answer_as_a_set_of_lanes() {
        use std::collections::BTreeSet;
        let mut rng = sp2b_datagen::rng::SplitMix64::new(41);
        for lanes in 1..=4usize {
            let width = lanes + 2;
            // The key lanes, scattered over a wider row.
            let vars: Vec<usize> = (0..lanes).map(|i| (i * 3 + 1) % width).collect();
            let mut seen = Seen::keyed_on(vars.clone(), 16);
            let form = (
                matches!(seen, Seen::Narrow(..)),
                matches!(seen, Seen::Packed(..)),
            );
            assert_eq!(form, (lanes <= 2, lanes > 2), "{lanes} lanes");
            let mut oracle: BTreeSet<Vec<Option<Id>>> = BTreeSet::new();
            for _ in 0..4_000 {
                let values: Vec<Option<Id>> = (0..width)
                    .map(|_| match rng.next_u64() % 6 {
                        0 => None,
                        // Ids at both ends of the range, so a lane that
                        // spilled into its neighbour would show.
                        1 => Some(UNBOUND - 1 - (rng.next_u64() % 2) as Id),
                        _ => Some((rng.next_u64() % 5) as Id),
                    })
                    .collect();
                let key = vars.iter().map(|&v| values[v]).collect();
                let row = Bindings::new(values);
                assert_eq!(seen.insert(&row), oracle.insert(key), "{lanes} lanes");
            }
            // Both answers came up, many times over.
            let keys = oracle.len();
            assert!((8..3_000).contains(&keys), "{lanes} lanes: {keys} keys");
        }
    }
}
