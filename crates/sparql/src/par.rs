//! Morsel-driven evaluation of [`Plan::Exchange`]: the same plan,
//! evaluated once per chunk of its driving scan — on the consumer's
//! thread until the query has shown it is long, on **detached,
//! streaming** worker threads from then on.
//!
//! The driving scan (the step over [`Plan::Unit`] at the bottom of the
//! leftmost chain under the exchange) is partitioned into disjoint
//! chunks via [`sp2b_store::TripleStore::scan_chunks`] — more chunks
//! than workers, so fast workers keep taking morsels off a shared job
//! queue while slow ones finish (the classic morsel-driven
//! load-balancing of Leis et al.). A morsel is not a second executor:
//! it is
//! [`EvalContext::eval_over`] on the exchange's input — the plan the
//! sequential evaluator walks, shared through an [`Arc`] — with the
//! morsel's chunk standing in for the driving scan. Everything the
//! execution materializes — hash-join build sides, fetched pattern
//! tables, lookup counts — lives in the execution's one set of
//! [`crate::eval::StepState`]s, so every morsel on every thread probes
//! the same tables.
//!
//! **Fan-out is bought at run time**, by the ski-rental rule a pattern
//! step uses for lookup-or-fetch ([`crate::eval`]): the exchange *rents*
//! the consumer's thread, evaluating morsels there in order, and *buys*
//! worker threads only once it has run for [`FAN_OUT_AFTER`] with at
//! least two morsels left — no estimate takes part. A query that
//! finishes, or whose consumer hangs up, inside that budget runs the
//! sequential pipeline whatever the configured parallelism. Morsel 0
//! always runs inline, so the joins of the probe spine build their tables
//! on the consumer's thread before a worker exists to wait for one.
//!
//! Workers are detached threads holding an owning [`SharedStore`] handle,
//! so they can outlive the `eval_exchange` call. Results therefore
//! *stream*, and the consumer's [`Exchange`] — a pull-based iterator —
//! keeps them in morsel order by **handing the morsels out**: each job it
//! queues carries that morsel's own bounded channel, and it reads only the
//! channel of the first morsel it has not finished. No more than
//! [`MAX_MERGE_AHEAD`] morsels are out at once — finishing one hands out
//! the next — so the output order equals sequential evaluation exactly
//! and memory is bounded by construction: at most `MAX_MERGE_AHEAD ×`
//! [`BATCHES_PER_MORSEL`] batches wait for the consumer, however large or
//! skewed the morsels are. A worker ahead of the front blocks on its own
//! full channel; one without a job blocks on the queue.
//!
//! Lifecycle guarantees, enforced by [`Exchange::shutdown`] (run on
//! exhaustion, on cancellation, and from `Drop`):
//!
//! * cancellation/timeout propagate per row — every worker checks the
//!   shared [`Cancellation`], and a pre-triggered handle yields no rows
//!   and spawns no threads, exactly like the sequential evaluator;
//! * dropping the iterator early (a `LIMIT`-style consumer hanging up)
//!   closes the sink flag, the job queue and every morsel channel, which
//!   wakes the workers blocked on them; the drop then **joins** every
//!   worker, so no detached thread outlives its stream — observable
//!   through the always-on [`diag::live_workers`] gauge;
//! * a worker that panics closes the sink on its way out, which stops the
//!   others, and the consumer — once it has delivered what came before
//!   the morsel whose channel disconnected — joins them all and re-raises
//!   the panic on its own thread: a query fails the same way at any
//!   parallelism, never by hanging or by ending early with the rows it
//!   had.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sp2b_obs::ExchangeRun;
use sp2b_store::{Pattern, ScanChunk, SharedStore, TripleStore};

use crate::eval::{lock, Bindings, Cancellation, EvalContext, Observe, RowIter};
use crate::plan::{const_pattern, driving_scan, Plan, PlanPattern};

/// Morsels per worker: enough over-partitioning that an unlucky skewed
/// morsel cannot serialize the whole query.
pub const MORSELS_PER_WORKER: usize = 4;

/// Rows per merge-channel message: batches amortize channel overhead
/// while keeping worker-side buffering bounded. Also how many rows an
/// inline morsel emits between two looks at the clock.
pub const BATCH_ROWS: usize = 4096;

/// How long an exchange runs its morsels on the consumer's thread before
/// it hands the remaining ones to workers — the one constant of the
/// fan-out decision.
///
/// Ski rental. Fanning out has a price that does not depend on the query:
/// spawning and joining the workers (25–50 µs for two threads, 50–100 µs
/// for four — min and mean of 2 000 rounds on the 2-core development
/// host), their first batches crossing the channel, their cold caches;
/// end to end, a fan-out that gains nothing costs Q5b and Q7 at 50k
/// triples 0.2–0.5 ms there. What it buys depends on the work left, which
/// nothing known before the query runs predicts (the planner's estimate
/// is off by 50× deep in Q4) — but a query that has already run for a
/// multiple of the price is likely to go on, and cheap to be wrong about.
/// One millisecond is 2–5× the measured price and 10–40× the bare
/// spawn+join: a shorter query never pays it, and one that fans out in
/// vain has paid less than half of what it had already spent.
///
/// The clock is read between morsels and every [`BATCH_ROWS`] rows within
/// one. It runs from the moment the exchange is evaluated, so the joins'
/// build sides (filled when morsel 0 opens) count as time spent, and so
/// does a consumer that is slow to pull.
pub const FAN_OUT_AFTER: Duration = Duration::from_millis(1);

/// Batches a morsel's channel holds: how far a worker may run ahead of
/// the consumer within one morsel before it blocks.
pub const BATCHES_PER_MORSEL: usize = 2;

/// Skew bound: how many morsels are handed out at once — the first one
/// the consumer has not finished, and the ones after it. However slow
/// one morsel is, the rest wait in at most this many channels: a
/// pathological morsel stalls the hand-out, not memory.
pub const MAX_MERGE_AHEAD: usize = 4;

/// Evaluates a [`Plan::Exchange`]: morsels in order on the consumer's
/// thread, then — if the query outlives [`FAN_OUT_AFTER`] — the rest on
/// detached workers, read back in morsel order. Evaluates the input as it
/// stands when there is nothing to split (degree ≤ 1, no owning store
/// handle in the context, or an input without a driving scan) —
/// [`Plan::Exchange`] is a performance hint, never a semantic
/// obligation.
pub(crate) fn eval_exchange<'a>(
    ctx: EvalContext<'a>,
    degree: usize,
    input: &'a Arc<Plan>,
) -> RowIter<'a> {
    // Detached workers need to *own* the store; a borrow-only context
    // evaluates sequentially instead.
    let (true, Some(driving), 2..) = (ctx.shared.is_some(), driving_scan(input), degree) else {
        return ctx.eval(input);
    };
    if driving.is_unsatisfiable() {
        return Box::new(std::iter::empty());
    }
    let started = Instant::now();
    let chunks = ctx
        .store
        .scan_chunks(const_pattern(driving), degree * MORSELS_PER_WORKER);
    if chunks.is_empty() {
        // The driving scan matches nothing, so neither does the input.
        return Box::new(std::iter::empty());
    }
    let exchange = Exchange {
        ctx,
        degree,
        input,
        driving,
        chunks,
        started,
        current: Box::new(std::iter::empty()),
        front: 0,
        rows: 0,
        workers: None,
    };
    exchange.record(exchange.chunks.len(), 0);
    Box::new(exchange)
}

/// A running exchange: a pull-based iterator over its morsels' rows, in
/// morsel order. Up to the hand-off it evaluates the morsels itself; from
/// then on it hands them out to the workers and reads what they send,
/// one morsel's channel at a time, on demand. Exhaustion, cancellation
/// and early drop all funnel into [`Exchange::shutdown`], which wakes and
/// joins every worker.
struct Exchange<'a> {
    /// Its `shared` store handle is what detached workers hold on to.
    ctx: EvalContext<'a>,
    degree: usize,
    input: &'a Arc<Plan>,
    /// The step whose scan `chunks` splits.
    driving: &'a PlanPattern,
    /// The morsels, in scan order.
    chunks: Vec<ScanChunk<'a>>,
    /// When the exchange began renting the consumer's thread.
    started: Instant,
    /// The rows being delivered: the pipeline of a morsel evaluated on
    /// this thread, or a batch a worker sent.
    current: RowIter<'a>,
    /// Where the morsels not yet in `current` start: the next one to
    /// open inline — so where a hand-off starts the workers — and after
    /// it the one whose channel is being read.
    front: usize,
    /// Rows the inline morsels have delivered.
    rows: usize,
    /// Whom morsels `front..` were handed to, once they were.
    workers: Option<Workers>,
}

/// The consumer's end of a fan-out.
struct Workers {
    /// Where morsels are handed out; `None` once the last one has been,
    /// which lets idle workers exit.
    jobs: Option<Sender<Job>>,
    /// The channels of the morsels handed out and not yet finished, in
    /// morsel order: the first is [`Exchange::front`]'s.
    out: VecDeque<Receiver<Msg>>,
    handles: Vec<JoinHandle<()>>,
    sink_open: Arc<AtomicBool>,
}

impl Workers {
    /// Hands out the morsel after the ones out, which start at `front`,
    /// if there is one; closes the job queue once the last one is out.
    fn hand_out(&mut self, front: usize, morsels: usize) {
        let morsel = front + self.out.len();
        let Some(jobs) = self.jobs.as_ref().filter(|_| morsel < morsels) else {
            return;
        };
        let (tx, rx) = sync_channel(BATCHES_PER_MORSEL);
        // Fails only when every worker has exited, dropping the job and
        // so disconnecting `rx`: the consumer learns of it there.
        let _ = jobs.send(Job { morsel, tx });
        self.out.push_back(rx);
        if morsel + 1 == morsels {
            self.jobs = None;
        }
    }
}

impl Exchange<'_> {
    /// Records in the execution's counters, if any, that morsels
    /// `..inline` are the consumer thread's and the rest went to
    /// `workers` threads.
    fn record(&self, inline: usize, workers: usize) {
        if let Some(counters) = &self.ctx.counters {
            let run = ExchangeRun {
                degree: self.degree,
                morsels: self.chunks.len(),
                inline,
                workers,
            };
            lock(&counters.exchanges).insert(self.driving.ordinal, run);
        }
    }

    /// Hands morsels `front..` to workers if the budget is spent and at
    /// least two are left — one would only move the work to another
    /// thread — but never morsel 0, which fills the build sides. Called
    /// between morsels and every [`BATCH_ROWS`] rows within one: a morsel
    /// the consumer is in the middle of is finished here while the
    /// workers start on the ones after it. Spawns no more workers than
    /// morsels can be out at once.
    fn fan_out_if_due(&mut self) {
        let left = self.chunks.len() - self.front;
        let settled = self.workers.is_some() || self.front == 0 || left < 2;
        if settled || self.started.elapsed() < diag::fan_out_after() {
            return;
        }
        let store = self.ctx.shared.as_ref().expect("eval_exchange checked");
        let window = left.min(MAX_MERGE_AHEAD);
        let workers = self.degree.min(window);
        self.record(self.front, workers);
        diag::note_capacity(window * BATCHES_PER_MORSEL);
        let (jobs, queue) = channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let sink_open = Arc::new(AtomicBool::new(true));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            diag::LIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
            let worker = Worker {
                store: Arc::clone(store),
                input: Arc::clone(self.input),
                cancel: self.ctx.cancel.clone(),
                sink_open: Arc::clone(&sink_open),
                jobs: Arc::clone(&queue),
                scan_pattern: const_pattern(self.driving),
                chunk_target: self.degree * MORSELS_PER_WORKER,
                n_morsels: self.chunks.len(),
                width: self.ctx.width,
                counters: self.ctx.counters.clone(),
                steps: Arc::clone(&self.ctx.steps),
            };
            handles.push(
                std::thread::Builder::new()
                    .name("sp2b-exchange".into())
                    .spawn(move || worker.run())
                    .expect("spawn exchange worker"),
            );
        }
        let mut handed = Workers {
            jobs: Some(jobs),
            out: VecDeque::with_capacity(window),
            handles,
            sink_open,
        };
        for _ in 0..window {
            handed.hand_out(self.front, self.chunks.len());
        }
        self.workers = Some(handed);
    }

    /// Stops the workers, if there are any: closes the sink flag and the
    /// job queue, drains every morsel channel until its sender is gone
    /// (waking workers blocked on `send`; the batches discarded leave the
    /// in-flight gauge like received ones) and joins every worker thread.
    /// Idempotent; runs on stream exhaustion, cancellation, and drop.
    /// Returns what the first worker that panicked, if any, panicked with.
    fn shutdown(&mut self) -> Option<Box<dyn Any + Send>> {
        let workers = self.workers.as_mut()?;
        workers.sink_open.store(false, Ordering::Relaxed);
        workers.jobs = None;
        // In morsel order: a morsel whose job is still queued has every
        // later one queued behind it, so no worker it waits for is blocked
        // on a channel not yet drained.
        for rx in workers.out.drain(..) {
            rx.iter().for_each(|_| diag::note_recv());
        }
        let joined: Vec<_> = workers.handles.drain(..).map(JoinHandle::join).collect();
        joined.into_iter().find_map(Result::err)
    }

    /// Ends the stream: [`Exchange::shutdown`], then a worker's panic
    /// goes on unwinding here, in the consumer — the rows so far are not
    /// the answer.
    fn finish(&mut self) -> Option<Bindings> {
        if let Some(panic) = self.shutdown() {
            std::panic::resume_unwind(panic);
        }
        None
    }
}

impl Iterator for Exchange<'_> {
    type Item = Bindings;

    fn next(&mut self) -> Option<Bindings> {
        loop {
            if let Some(row) = self.current.next() {
                if self.workers.is_none() {
                    self.rows += 1;
                    if self.rows.is_multiple_of(BATCH_ROWS) {
                        self.fan_out_if_due();
                    }
                }
                return Some(row);
            }
            // Dry: dropped, not polled again while the workers are awaited.
            self.current = Box::new(std::iter::empty());
            // (A pre-triggered handle stops here, before morsel 0: nothing
            // evaluated, nothing spawned.)
            if self.ctx.cancel.should_stop() || self.front >= self.chunks.len() {
                return self.finish();
            }
            self.fan_out_if_due();
            let Some(workers) = &mut self.workers else {
                #[cfg(debug_assertions)]
                diag::inject_faults(self.front);
                let (ctx, chunk) = (self.ctx.clone(), Some(self.chunks[self.front]));
                self.current = ctx.eval_over(self.input, chunk, Observe::Rows);
                self.front += 1;
                continue;
            };
            let Some(Ok(msg)) = workers.out.front().map(Receiver::recv) else {
                // The front morsel's channel disconnected before its last
                // batch: cancellation, or a worker panicked.
                return self.finish();
            };
            diag::note_recv();
            if msg.last {
                workers.out.pop_front();
                self.front += 1;
                workers.hand_out(self.front, self.chunks.len());
            }
            self.current = Box::new(msg.rows.into_iter());
        }
    }
}

impl Drop for Exchange<'_> {
    /// A consumer that hangs up is not owed a worker's panic (and may be
    /// unwinding from it already).
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A morsel handed out: its index, and the sending end of its channel.
struct Job {
    morsel: usize,
    tx: SyncSender<Msg>,
}

/// One message on a morsel's channel: a batch of its rows. `last` marks
/// the morsel complete — every morsel a worker finishes sends exactly one
/// final message (possibly with an empty batch), which is what lets the
/// consumer move on to the next channel.
struct Msg {
    rows: Vec<Bindings>,
    last: bool,
}

/// A detached exchange worker: owns a store handle and a share of the
/// plan, re-derives the (deterministic) chunk list, and takes the morsels
/// the consumer hands out until the job queue closes or the query stops.
struct Worker {
    store: SharedStore,
    /// The exchange's input: what `eval_over` runs on each morsel.
    input: Arc<Plan>,
    cancel: Cancellation,
    sink_open: Arc<AtomicBool>,
    /// The job queue, shared by the workers.
    jobs: Arc<Mutex<Receiver<Job>>>,
    scan_pattern: Pattern,
    chunk_target: usize,
    n_morsels: usize,
    width: usize,
    counters: Option<Arc<crate::eval::ScanCounters>>,
    /// The execution's operator states: build sides, fetched tables and
    /// lookup counts are shared with the consumer and the other workers.
    steps: Arc<[crate::eval::StepState]>,
}

impl Worker {
    fn run(self) {
        let _live = diag::WorkerGuard(&self.sink_open);
        let store: &dyn TripleStore = &*self.store;
        let ctx = EvalContext {
            store,
            // The input has a driving scan, so no exchange nests in what
            // a morsel evaluates: workers need no owning handle of their
            // own.
            shared: None,
            cancel: self.cancel.clone(),
            width: self.width,
            counters: self.counters.clone(),
            steps: Arc::clone(&self.steps),
        };
        let chunks = store.scan_chunks(self.scan_pattern, self.chunk_target);
        // Not a debug assertion: morsel indices mean nothing across two
        // different chunk lists, and a worker that bowed out quietly
        // would let the consumer read its disconnect as a stop — a prefix
        // returned as the answer. The panic fails the query on the
        // consumer's thread.
        assert_eq!(
            chunks.len(),
            self.n_morsels,
            "scan_chunks must be deterministic (see TripleStore::scan_chunks)"
        );
        loop {
            // Waits for a morsel to be handed out: the lock is released
            // once one is, and the worker exits when the queue closes.
            let Ok(Job { morsel, tx }) = lock(&self.jobs).recv() else {
                return;
            };
            if self.stopped() {
                return;
            }
            #[cfg(debug_assertions)]
            diag::inject_faults(morsel);
            let mut batch: Vec<Bindings> = Vec::new();
            let chunk = Some(chunks[morsel]);
            for row in ctx.clone().eval_over(&self.input, chunk, Observe::Rows) {
                if self.stopped() {
                    // No completion marker: dropping `tx` disconnects the
                    // morsel's channel, which is how the consumer learns
                    // of the abort.
                    return;
                }
                batch.push(row);
                if batch.len() >= BATCH_ROWS && !send(&tx, std::mem::take(&mut batch), false) {
                    return; // the consumer hung up — stop producing
                }
            }
            if !send(&tx, batch, true) {
                return;
            }
        }
    }

    /// True when the query was cancelled (timeout/explicit) or the
    /// consumer dropped the stream.
    fn stopped(&self) -> bool {
        !self.sink_open.load(Ordering::Relaxed) || self.cancel.should_stop()
    }
}

/// Sends one batch on a morsel's channel, blocking while it is full;
/// `false` when the consumer is gone.
fn send(tx: &SyncSender<Msg>, rows: Vec<Bindings>, last: bool) -> bool {
    tx.send(Msg { rows, last })
        .inspect(|()| diag::note_send())
        .is_ok()
}

/// Exchange observability: always-on relaxed-atomic gauges — the
/// live-worker gauge behind the no-thread-leak test, the in-flight batch
/// high-water mark behind the flat-memory tests — plus
/// debug-only hooks for the tests: fault injection (skew, worker
/// failure) and a zero fan-out budget. The gauges cost one relaxed
/// atomic op per event on paths that already cross a channel or spawn a
/// thread, so they stay on in release builds and feed the process metrics
/// registry (see [`diag::register_metrics`]).
pub mod diag {
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
    use std::time::Duration;

    pub(super) static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
    static IN_FLIGHT: AtomicI64 = AtomicI64::new(0);
    static PEAK_IN_FLIGHT: AtomicI64 = AtomicI64::new(0);
    static BOUND: AtomicI64 = AtomicI64::new(0);
    #[cfg(debug_assertions)]
    static STALL_MORSEL: AtomicUsize = AtomicUsize::new(usize::MAX);
    #[cfg(debug_assertions)]
    static STALL_MILLIS: AtomicUsize = AtomicUsize::new(0);
    #[cfg(debug_assertions)]
    static FAIL_MORSEL: AtomicUsize = AtomicUsize::new(usize::MAX);
    #[cfg(debug_assertions)]
    static FAN_OUT_AT_ONCE: AtomicBool = AtomicBool::new(false);

    /// A worker's exit, however it exits: decrements the live-worker
    /// gauge and, if the exit is a panic, closes the exchange's sink — the
    /// morsel it held will never complete, so the other workers must stop
    /// and the consumer must learn of it from that morsel's channel
    /// disconnecting.
    pub(super) struct WorkerGuard<'w>(pub(super) &'w AtomicBool);

    impl Drop for WorkerGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(false, Ordering::Relaxed);
            }
            LIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Number of exchange workers currently alive (spawned, not yet
    /// joined). Zero once every solution stream has been dropped —
    /// [`super::Exchange`] joins its workers on drop (the join is
    /// the happens-before edge that makes the relaxed load exact).
    pub fn live_workers() -> usize {
        LIVE_WORKERS.load(Ordering::Relaxed)
    }

    /// The budget exchanges run under: [`super::FAN_OUT_AFTER`], unless a
    /// test has set it to zero.
    pub(super) fn fan_out_after() -> Duration {
        #[cfg(debug_assertions)]
        if FAN_OUT_AT_ONCE.load(Ordering::SeqCst) {
            return Duration::ZERO;
        }
        super::FAN_OUT_AFTER
    }

    /// Test hook: with `on`, exchanges fan out at their first look at the
    /// clock — after morsel 0, or [`super::BATCH_ROWS`] rows into it —
    /// however short the query, so small documents exercise the workers.
    /// Debug builds only, and process-wide: a test that depends on the
    /// default budget lives in a binary that never sets this, or
    /// serializes with the ones that do.
    #[cfg(debug_assertions)]
    pub fn fan_out_at_once(on: bool) {
        FAN_OUT_AT_ONCE.store(on, Ordering::SeqCst);
    }

    /// Batches currently in flight on the morsel channels (sent, not yet
    /// received).
    pub fn in_flight_batches() -> i64 {
        IN_FLIGHT.load(Ordering::Relaxed)
    }

    /// Clears the channel counters. Call before the query under test;
    /// meaningless while exchanges run concurrently.
    pub fn reset_channel_stats() {
        IN_FLIGHT.store(0, Ordering::Relaxed);
        PEAK_IN_FLIGHT.store(0, Ordering::Relaxed);
        BOUND.store(0, Ordering::Relaxed);
    }

    /// Fault injection for the skew regression test: whoever evaluates
    /// morsel `morsel` — a worker, or the consumer's thread inline —
    /// sleeps `millis` first. Pass `(usize::MAX, 0)` to clear. Debug
    /// builds only; serialize tests that use it.
    #[cfg(debug_assertions)]
    pub fn stall_morsel(morsel: usize, millis: u64) {
        STALL_MILLIS.store(millis as usize, Ordering::SeqCst);
        STALL_MORSEL.store(morsel, Ordering::SeqCst);
    }

    /// Fault injection for the worker-failure test: whoever is about to
    /// evaluate morsel `morsel` panics instead. Pass `usize::MAX` to
    /// clear. Debug builds only; serialize tests that use it.
    #[cfg(debug_assertions)]
    pub fn fail_morsel(morsel: usize) {
        FAIL_MORSEL.store(morsel, Ordering::SeqCst);
    }

    #[cfg(debug_assertions)]
    pub(super) fn inject_faults(morsel: usize) {
        if STALL_MORSEL.load(Ordering::SeqCst) == morsel {
            let ms = STALL_MILLIS.load(Ordering::SeqCst) as u64;
            if ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        if FAIL_MORSEL.load(Ordering::SeqCst) == morsel {
            panic!("injected failure of morsel {morsel}");
        }
    }

    /// `(peak, bound)` — the high-water mark of in-flight batches since
    /// the last reset, and the limit it must never exceed: what the
    /// channels of the morsels out at once hold (at most
    /// [`super::MAX_MERGE_AHEAD`] × [`super::BATCHES_PER_MORSEL`]) plus
    /// the one batch the consumer holds between receiving and accounting.
    pub fn channel_stats() -> (i64, i64) {
        (
            PEAK_IN_FLIGHT.load(Ordering::Relaxed),
            BOUND.load(Ordering::Relaxed),
        )
    }

    pub(super) fn note_capacity(capacity: usize) {
        BOUND.fetch_max(capacity as i64 + 1, Ordering::Relaxed);
    }

    pub(super) fn note_send() {
        let now = IN_FLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK_IN_FLIGHT.fetch_max(now, Ordering::Relaxed);
    }

    pub(super) fn note_recv() {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }

    /// Registers the exchange gauges with the process metrics registry
    /// (idempotent; the server calls this on spawn).
    pub fn register_metrics() {
        let reg = sp2b_obs::global();
        reg.gauge_fn(
            "sp2b_exchange_live_workers",
            "Exchange worker threads currently alive (spawned, not yet joined)",
            || live_workers() as i64,
        );
        reg.gauge_fn(
            "sp2b_exchange_in_flight_batches",
            "Batches sent on the exchange's morsel channels but not yet received",
            in_flight_batches,
        );
        reg.gauge_fn(
            "sp2b_exchange_peak_in_flight_batches",
            "High-water mark of batches in flight on the exchange's morsel channels since the last reset",
            || channel_stats().0,
        );
    }
}
