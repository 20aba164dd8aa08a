//! The workload model: weighted template mixes, arrival processes, and
//! the one driver that runs them.
//!
//! A closed loop issues the next query the moment the previous one
//! returns, so when the store stalls the driver stalls with it: load
//! drops exactly when the system is struggling, and the stall never
//! reaches the percentiles. That defect has a name — *coordinated
//! omission* — and the query-log studies the multi-user scenario is
//! modeled on (skewed template popularity, bursty arrivals) are
//! precisely the traffic shapes it hides. The open arrivals keep the
//! schedule independent of the system under test instead.
//!
//! - [`WeightedMix`] — template popularity, from the
//!   `--mix q1:80,q5a:15,q8:5` DSL ([`WeightedMix::parse`]) or a
//!   Zipfian ranking of the full benchmark mix ([`WeightedMix::zipf`]),
//!   sampled by a seeded [`MixSampler`] (SplitMix64, deterministic
//!   replay);
//! - [`Arrival`] — where a request's *intended* send time comes from:
//!   the client's previous completion ([`Arrival::Closed`]), or a
//!   schedule of constant spacing, Poisson (exponential gaps) or on/off
//!   bursts, realized as intended-send offsets by [`ArrivalSchedule`];
//! - [`run_workload`] — `clients` workers execute requests over any
//!   [`WorkTransport`] and record every outcome into one
//!   [`sp2b_obs::WorkloadRecorder`]. Latency is measured **from the
//!   intended send time**, with queue delay and service time kept as
//!   separate histograms — so if open-loop workers can't keep up, the
//!   numbers say so instead of quietly thinning the load; in a closed
//!   loop the intended and the actual send coincide, so queue delay is
//!   zero by construction. Every run yields one [`WorkloadReport`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sp2b_obs::{LatencyHistogram, WindowSnapshot, WorkloadRecorder};

use crate::ext_queries::ExtQuery;
use crate::multiuser::{
    default_mix, ExecOutcome, MultiuserConfig, StopCondition, WorkItem, WorkTransport,
};
use crate::queries::BenchQuery;

/// Width of the throughput/p99 time-series windows in workload reports.
pub const WINDOW_WIDTH: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Deterministic sampling
// ---------------------------------------------------------------------------

// One SplitMix64 for the whole workspace: the generator seeds its
// xoshiro state from it, the workload model samples from it directly.
pub use sp2b_datagen::SplitMix64;

// ---------------------------------------------------------------------------
// The mix DSL
// ---------------------------------------------------------------------------

/// A query mix with per-template popularity weights (`items[i]` is drawn
/// with probability `weights[i] / Σ weights`).
#[derive(Debug, Clone)]
pub struct WeightedMix {
    /// The templates, in DSL (or benchmark) order.
    pub items: Vec<WorkItem>,
    /// Parallel positive weights.
    pub weights: Vec<f64>,
}

/// Resolves a template label — of the mix DSL or of `--queries` — to a
/// benchmark query (Q1…Q12c) or an aggregation extension query (A1…A5),
/// case-insensitive.
pub fn resolve_template(label: &str) -> Option<WorkItem> {
    if let Some(q) = BenchQuery::from_label(label) {
        return Some(WorkItem::bench(q));
    }
    ExtQuery::ALL
        .iter()
        .find(|q| q.label().eq_ignore_ascii_case(label))
        .map(|&q| WorkItem::ext(q))
}

impl WeightedMix {
    /// Parses the mix DSL: comma-separated `LABEL:WEIGHT` entries, e.g.
    /// `q1:80,q5a:15,q8:5`. Weights are positive integers (relative
    /// popularity, not percentages). Zero weights, unknown templates,
    /// duplicates and malformed entries are hard errors.
    pub fn parse(spec: &str) -> Result<WeightedMix, String> {
        let mut items = Vec::new();
        let mut weights = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            let Some((label, weight)) = entry.split_once(':') else {
                return Err(format!("mix entry '{entry}' must be LABEL:WEIGHT"));
            };
            let (label, weight) = (label.trim(), weight.trim());
            let item = resolve_template(label)
                .ok_or_else(|| format!("unknown query template '{label}'"))?;
            if items
                .iter()
                .any(|existing: &WorkItem| existing.label == item.label)
            {
                return Err(format!("duplicate template '{label}' in mix"));
            }
            let w: u64 = weight
                .parse()
                .map_err(|_| format!("weight '{weight}' for '{label}' is not an integer"))?;
            if w == 0 {
                return Err(format!("weight for '{label}' must be positive"));
            }
            items.push(item);
            weights.push(w as f64);
        }
        if items.is_empty() {
            return Err("the mix must name at least one template".to_string());
        }
        Ok(WeightedMix { items, weights })
    }

    /// The full benchmark mix (Q1…Q12c then A1…A5) with Zipfian
    /// popularity: the template at rank *r* (1-based, benchmark order)
    /// gets weight *r*⁻ˢ. `s` must be a positive finite exponent;
    /// larger `s` skews harder toward the head.
    pub fn zipf(s: f64) -> Result<WeightedMix, String> {
        if !s.is_finite() || s <= 0.0 {
            return Err(format!(
                "zipf exponent must be positive and finite, got '{s}'"
            ));
        }
        let items = default_mix();
        let weights = (1..=items.len()).map(|r| (r as f64).powf(-s)).collect();
        Ok(WeightedMix { items, weights })
    }
}

/// Draws template slots from a [`WeightedMix`]'s weights — seeded, so a
/// replay with the same seed draws the same sequence.
#[derive(Debug, Clone)]
pub struct MixSampler {
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl MixSampler {
    /// A sampler over `weights` (must be non-empty, all positive).
    pub fn new(weights: &[f64], seed: u64) -> Self {
        assert!(!weights.is_empty(), "sampler needs at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w > 0.0 && w.is_finite(), "weights must be positive");
            total += w;
            cumulative.push(total);
        }
        MixSampler {
            cumulative,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next slot index (into the weight vector).
    pub fn sample(&mut self) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = self.rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

/// When requests are *supposed* to be sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Closed loop: each client issues the next query when the previous
    /// returns — a request's intended send time *is* its client's
    /// previous completion. No schedule, no queueing visibility.
    Closed,
    /// Open loop, evenly spaced at `rate` requests/second.
    Constant {
        /// Requests per second.
        rate: f64,
    },
    /// Open loop, exponentially distributed inter-arrivals with mean
    /// `1/rate` — the memoryless traffic most queueing results assume.
    Poisson {
        /// Mean requests per second.
        rate: f64,
    },
    /// Open loop, an on/off train: within each `period`, requests arrive
    /// at `rate` during the first `duty` fraction and then stop.
    Burst {
        /// In-burst requests per second.
        rate: f64,
        /// Cycle length.
        period: Duration,
        /// Fraction of the period that is on, in `(0, 1]`.
        duty: f64,
    },
}

/// Parses a rate like `5000/s`, `5000`, or `12.5/s`.
fn parse_rate(s: &str) -> Result<f64, String> {
    let digits = s.strip_suffix("/s").unwrap_or(s).trim();
    let rate: f64 = digits
        .parse()
        .map_err(|_| format!("rate '{s}' is not a number"))?;
    if !rate.is_finite() || rate <= 0.0 {
        return Err(format!("arrival rate must be positive, got '{s}'"));
    }
    Ok(rate)
}

impl Arrival {
    /// Parses an `--arrival` spec: `closed`, `constant:RATE[/s]`,
    /// `poisson:RATE[/s]`, or `burst:RATE[/s],PERIOD[s],DUTY`.
    pub fn parse(spec: &str) -> Result<Arrival, String> {
        let spec = spec.trim();
        if spec == "closed" {
            return Ok(Arrival::Closed);
        }
        if let Some(rate) = spec.strip_prefix("constant:") {
            return Ok(Arrival::Constant {
                rate: parse_rate(rate)?,
            });
        }
        if let Some(rate) = spec.strip_prefix("poisson:") {
            return Ok(Arrival::Poisson {
                rate: parse_rate(rate)?,
            });
        }
        if let Some(rest) = spec.strip_prefix("burst:") {
            let parts: Vec<&str> = rest.split(',').collect();
            if parts.len() != 3 {
                return Err(format!("burst spec '{rest}' must be RATE,PERIOD,DUTY"));
            }
            let rate = parse_rate(parts[0])?;
            let period_str = parts[1].trim();
            let period: f64 = period_str
                .strip_suffix('s')
                .unwrap_or(period_str)
                .parse()
                .map_err(|_| format!("burst period '{period_str}' is not a number"))?;
            if !period.is_finite() || period <= 0.0 {
                return Err(format!("burst period must be positive, got '{period_str}'"));
            }
            let duty_str = parts[2].trim();
            let duty: f64 = duty_str
                .parse()
                .map_err(|_| format!("burst duty '{duty_str}' is not a number"))?;
            if !duty.is_finite() || duty <= 0.0 || duty > 1.0 {
                return Err(format!("burst duty must be in (0, 1], got '{duty_str}'"));
            }
            return Ok(Arrival::Burst {
                rate,
                period: Duration::from_secs_f64(period),
                duty,
            });
        }
        Err(format!(
            "unknown arrival process '{spec}' \
             (expected closed, constant:RATE/s, poisson:RATE/s, or burst:RATE,PERIOD,DUTY)"
        ))
    }

    /// True for every open-loop process (everything but
    /// [`Arrival::Closed`]).
    pub fn is_open(&self) -> bool {
        !matches!(self, Arrival::Closed)
    }
}

impl fmt::Display for Arrival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrival::Closed => write!(f, "closed"),
            Arrival::Constant { rate } => write!(f, "constant:{rate}/s"),
            Arrival::Poisson { rate } => write!(f, "poisson:{rate}/s"),
            Arrival::Burst { rate, period, duty } => {
                write!(f, "burst:{rate}/s,{}s,{duty}", period.as_secs_f64())
            }
        }
    }
}

/// The realized schedule of an open-loop [`Arrival`]: an infinite
/// iterator of intended-send offsets from the run start, computed purely
/// from the process parameters and the seed — never from the clock — so
/// a slow system cannot bend the schedule (that is the whole point).
pub struct ArrivalSchedule {
    arrival: Arrival,
    rng: SplitMix64,
    /// Next intended offset, in seconds from the run start.
    t: f64,
}

impl ArrivalSchedule {
    /// The schedule of `arrival` (must be open-loop).
    pub fn new(arrival: Arrival, seed: u64) -> Self {
        assert!(arrival.is_open(), "closed loop has no arrival schedule");
        ArrivalSchedule {
            arrival,
            rng: SplitMix64::new(seed),
            t: 0.0,
        }
    }
}

impl Iterator for ArrivalSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        match self.arrival {
            Arrival::Closed => unreachable!("checked in new()"),
            Arrival::Constant { rate } => self.t += 1.0 / rate,
            Arrival::Poisson { rate } => {
                // Exponential inter-arrival via inverse transform;
                // 1 - u is in (0, 1], so ln() is finite.
                let u = self.rng.next_f64();
                self.t += -(1.0 - u).ln() / rate;
            }
            Arrival::Burst { rate, period, duty } => {
                let period = period.as_secs_f64();
                self.t += 1.0 / rate;
                // Landed in the off-phase: snap to the next period start.
                // The epsilon guards float modulo at period boundaries
                // (a snapped `t` is an exact multiple of `period` only
                // up to rounding, so `pos` may read ≈`period`, not 0).
                let pos = self.t % period;
                if pos > period * duty + 1e-9 && pos < period - 1e-9 {
                    self.t = (self.t / period).floor() * period + period;
                }
            }
        }
        Some(Duration::from_secs_f64(self.t))
    }
}

// ---------------------------------------------------------------------------
// The request queue
// ---------------------------------------------------------------------------

/// One scheduled request: the mix slot to run and its intended send
/// offset from the run start.
#[derive(Debug, Clone, Copy)]
struct Request {
    slot: usize,
    offset: Duration,
}

/// The workers' end of the bounded schedule → worker channel
/// (`mpsc::sync_channel`, shared behind a mutex). The schedule thread's
/// `send` blocks when the channel is full — backpressure there is safe
/// because intended send times are computed from the schedule, not from
/// when the send happens; the delay shows up where it belongs, in the
/// queue-delay and latency histograms.
type RequestQueue = Mutex<Receiver<Request>>;

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// One template's outcomes in a workload run.
#[derive(Debug, Clone)]
pub struct TemplateReport {
    /// Template label.
    pub label: String,
    /// Its mix weight (as configured, not normalized; 1 when the mix is
    /// unweighted).
    pub weight: f64,
    /// Recorded completions (excludes warmup).
    pub completed: u64,
    /// Recorded per-query timeouts.
    pub timeouts: u64,
    /// Recorded errors.
    pub errors: u64,
    /// Latency from intended send time.
    pub latency: LatencyHistogram,
}

/// What one client (worker thread) experienced.
#[derive(Debug, Clone, Default)]
pub struct ClientReport {
    /// Client index (0-based).
    pub client: usize,
    /// Successfully completed queries.
    pub completed: u64,
    /// Executions that hit the per-query timeout.
    pub timeouts: u64,
    /// Executions that errored (prepare or evaluation).
    pub errors: u64,
    /// Latency of completed queries, from intended send time.
    pub latency: LatencyHistogram,
    /// Result cardinality per query label, from the first completed
    /// execution.
    pub counts: BTreeMap<String, u64>,
    /// Order-insensitive result checksum per query label, from the first
    /// completed execution that carried one (see
    /// [`ExecOutcome::Completed`]).
    pub checksums: BTreeMap<String, u64>,
    /// Labels whose result count **or checksum** *changed* between two
    /// executions by this client — always empty over a read-only store;
    /// the concurrency test asserts it.
    pub inconsistent: Vec<String>,
    /// Executions excluded because they started (closed loop) or were
    /// intended (open loop) inside the configured warmup period
    /// ([`MultiuserConfig::warmup`]); they appear in no other tally.
    pub warmup_excluded: u64,
}

/// A finished workload run — closed or open loop, in-process or over
/// HTTP: the one type every driver entry point returns and every
/// renderer in [`crate::report`] consumes.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The arrival process that paced the run.
    pub arrival: Arrival,
    /// The sampler/schedule seed (same seed ⇒ same schedule).
    pub seed: u64,
    /// Configured warmup.
    pub warmup: Duration,
    /// Wall clock from run start to last completion.
    pub wall: Duration,
    /// Requests issued: by the schedule (open loop), or sent by the
    /// clients and not cancelled by the wall deadline (closed loop).
    pub issued: u64,
    /// Intended offset of the last scheduled request — the schedule's
    /// own span, which [`WorkloadReport::intended_rate`] divides by.
    /// `None` in a closed loop, which has no schedule.
    pub schedule_span: Option<Duration>,
    /// Observations excluded because they fell inside warmup.
    pub warmup_excluded: u64,
    /// Recorded completions.
    pub completed: u64,
    /// Recorded per-query timeouts.
    pub timeouts: u64,
    /// Recorded errors.
    pub errors: u64,
    /// Latency from *intended* send time — queueing included.
    pub latency: LatencyHistogram,
    /// Intended send → actual send (all zero in a closed loop).
    pub queue_delay: LatencyHistogram,
    /// Actual send → completion.
    pub service: LatencyHistogram,
    /// Per-template breakdown, in mix order.
    pub templates: Vec<TemplateReport>,
    /// Per-client breakdown, in client order.
    pub clients: Vec<ClientReport>,
    /// Throughput/p99 time series ([`WINDOW_WIDTH`] wide windows).
    pub windows: Vec<WindowSnapshot>,
    /// Result cardinality per template, from the first recorded
    /// completion by any client.
    pub counts: BTreeMap<String, u64>,
    /// Templates whose result count or checksum drifted between two
    /// executions — by one client or across clients. Always empty over
    /// a read-only store.
    pub inconsistent: Vec<String>,
}

impl WorkloadReport {
    /// The rate the schedule asked for, realized: issued requests over
    /// the schedule's own span. `None` in a closed loop, where the
    /// system under test sets the pace.
    pub fn intended_rate(&self) -> Option<f64> {
        self.schedule_span
            .map(|span| self.issued as f64 / span.as_secs_f64().max(1e-9))
    }

    /// Recorded completions per second of the recorded part of the run:
    /// the wall clock minus the warmup, whose completions are excluded
    /// from `completed` too.
    pub fn completed_rate(&self) -> f64 {
        let recorded = self.wall.saturating_sub(self.warmup);
        self.completed as f64 / recorded.as_secs_f64().max(1e-9)
    }
}

impl ClientReport {
    /// Count/checksum stability: records `rows`/`checksum` for `label`
    /// on first sight; afterwards a different value lists the label
    /// (once) in `inconsistent`.
    fn observe(&mut self, label: &str, rows: u64, checksum: Option<u64>) {
        let drifted = |seen: &mut BTreeMap<String, u64>, value: u64| match seen.get(label) {
            Some(&previous) => previous != value,
            None => {
                seen.insert(label.to_owned(), value);
                false
            }
        };
        let count_drifted = drifted(&mut self.counts, rows);
        let checksum_drifted = checksum.is_some_and(|cs| drifted(&mut self.checksums, cs));
        if (count_drifted || checksum_drifted) && !self.inconsistent.iter().any(|l| l == label) {
            self.inconsistent.push(label.to_owned());
        }
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Drives the workload over `transport`: `cfg.clients` worker threads,
/// each with its own session, execute requests until `cfg.stop` is met
/// and record every outcome into one shared recorder.
///
/// `cfg.arrival` decides only where a request — and its *intended* send
/// time — comes from ([`Feed`]):
///
/// - [`Arrival::Closed`]: each worker draws its own next request the
///   moment the previous one completed, walking the mix from a
///   per-client rotation offset (or a per-client seeded sampler when the
///   mix is weighted). [`StopCondition::Rounds`]`(r)` is `r` passes over
///   the mix per client; [`StopCondition::Duration`] is a wall deadline
///   that also cancels the queries in flight (not counted as timeouts).
/// - the open arrivals: a schedule thread realizes the process, stamping
///   each request with its intended send offset and pushing into a
///   bounded queue the workers pull from. `Rounds(r)` issues exactly
///   `r × clients × mix.len()` requests (the closed loop's volume);
///   `Duration` issues until the schedule offset passes it, then the
///   queue drains.
pub fn run_workload(transport: &dyn WorkTransport, cfg: &MultiuserConfig) -> WorkloadReport {
    assert!(!cfg.mix.is_empty(), "the query mix must not be empty");
    assert!(
        cfg.weights.is_empty() || cfg.weights.len() == cfg.mix.len(),
        "weights must parallel the mix"
    );
    let clients = cfg.clients.max(1);
    let labels: Vec<String> = cfg.mix.iter().map(|i| i.label.clone()).collect();
    let recorder = WorkloadRecorder::new(&labels, cfg.warmup, WINDOW_WIDTH);
    let (schedule_tx, queue) = sync_channel((clients * 2).max(8));
    let queue: RequestQueue = Mutex::new(queue);
    let start = Instant::now();

    let (client_reports, scheduled) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let (recorder, queue) = (&recorder, &queue);
                s.spawn(move || {
                    let feed = Feed::new(cfg, client, start, queue);
                    worker_loop(client, transport, cfg, start, feed, recorder)
                })
            })
            .collect();
        // Returning drops the sender: the workers drain what is queued,
        // then see the channel closed.
        let scheduled = cfg
            .arrival
            .is_open()
            .then(|| schedule_loop(cfg, clients, start, schedule_tx));
        let reports: Vec<ClientReport> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        (reports, scheduled)
    });
    let wall = start.elapsed();

    let templates: Vec<TemplateReport> = recorder
        .templates()
        .into_iter()
        .enumerate()
        .map(|(slot, t)| TemplateReport {
            label: t.label,
            weight: cfg.weights.get(slot).copied().unwrap_or(1.0),
            completed: t.completed,
            timeouts: t.timeouts,
            errors: t.errors,
            latency: t.latency,
        })
        .collect();
    // Any client may run any template, so stability is also checked
    // *across* clients: replay every client's first-seen values into one
    // merged view of the run.
    let mut merged = ClientReport::default();
    for c in &client_reports {
        for (label, &rows) in &c.counts {
            merged.observe(label, rows, c.checksums.get(label).copied());
        }
        merged.inconsistent.extend(c.inconsistent.iter().cloned());
    }
    merged.inconsistent.sort_unstable();
    merged.inconsistent.dedup();
    let tallied = |c: &ClientReport| c.completed + c.timeouts + c.errors + c.warmup_excluded;
    let (issued, schedule_span) = match scheduled {
        Some((issued, span)) => (issued, Some(span)),
        None => (client_reports.iter().map(tallied).sum(), None),
    };
    WorkloadReport {
        arrival: cfg.arrival,
        seed: cfg.seed,
        warmup: cfg.warmup,
        wall,
        issued,
        schedule_span,
        warmup_excluded: recorder.warmup_excluded(),
        completed: templates.iter().map(|t| t.completed).sum(),
        timeouts: templates.iter().map(|t| t.timeouts).sum(),
        errors: templates.iter().map(|t| t.errors).sum(),
        latency: recorder.latency(),
        queue_delay: recorder.queue_delay(),
        service: recorder.service(),
        templates,
        clients: client_reports,
        windows: recorder.windows(),
        counts: merged.counts,
        inconsistent: merged.inconsistent,
    }
}

/// One request a worker is about to execute.
struct Next {
    /// Mix slot to run.
    slot: usize,
    /// When it was *supposed* to go out — what latency is measured from.
    intended: Instant,
    /// When it actually goes out.
    sent: Instant,
}

/// Where a worker's next request — and that request's intended send
/// time — comes from. This is the whole difference between the closed
/// and the open loop; everything downstream of [`Feed::next`] is shared.
enum Feed<'a> {
    /// Closed loop: the worker's own previous completion. The request
    /// is drawn now and sent now, so queue delay is zero by
    /// construction.
    Closed(Rotation),
    /// Open loop: the schedule thread's stamp, popped from the queue.
    Scheduled {
        queue: &'a RequestQueue,
        start: Instant,
    },
}

/// One closed-loop client's walk over the mix.
struct Rotation {
    /// Per-client seeded sampler when the mix is weighted; `None` walks
    /// the mix in rotation from `offset`, so at any instant the store
    /// serves a genuine mix of query shapes.
    sampler: Option<MixSampler>,
    offset: usize,
    slots: usize,
    drawn: u64,
    /// `Rounds(r)`: `r` passes over the mix.
    limit: Option<u64>,
    /// `Duration(d)`: the wall deadline, which also cancels the query in
    /// flight (an open loop has none: it stops *scheduling* at the
    /// duration and lets the queue drain).
    deadline: Option<Instant>,
}

impl<'a> Feed<'a> {
    fn new(cfg: &MultiuserConfig, client: usize, start: Instant, queue: &'a RequestQueue) -> Self {
        if cfg.arrival.is_open() {
            return Feed::Scheduled { queue, start };
        }
        let slots = cfg.mix.len();
        let (limit, deadline) = match cfg.stop {
            StopCondition::Rounds(r) => (Some(r as u64 * slots as u64), None),
            StopCondition::Duration(d) => (None, Some(start + d)),
        };
        let client_seed = cfg.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Feed::Closed(Rotation {
            sampler: (!cfg.weights.is_empty()).then(|| MixSampler::new(&cfg.weights, client_seed)),
            offset: (cfg.seed as usize).wrapping_add(client) % slots,
            slots,
            drawn: 0,
            limit,
            deadline,
        })
    }

    /// The next request, or `None` when the run is over for this worker.
    fn next(&mut self) -> Option<Next> {
        match self {
            Feed::Closed(walk) => {
                let now = Instant::now();
                if walk.limit.is_some_and(|l| walk.drawn >= l)
                    || walk.deadline.is_some_and(|d| now >= d)
                {
                    return None;
                }
                let slot = match &mut walk.sampler {
                    Some(sampler) => sampler.sample(),
                    None => (walk.offset + walk.drawn as usize) % walk.slots,
                };
                walk.drawn += 1;
                Some(Next {
                    slot,
                    intended: now,
                    sent: now,
                })
            }
            Feed::Scheduled { queue, start } => {
                // Blocks while the queue is empty; `Err` once the
                // schedule is done **and** the queue drained.
                let request = queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .recv()
                    .ok()?;
                Some(Next {
                    slot: request.slot,
                    intended: *start + request.offset,
                    sent: Instant::now(),
                })
            }
        }
    }
}

/// The schedule thread body: realizes the open arrival process, sleeping
/// until each intended send time and pushing the stamped request.
/// Returns `(issued, span of the schedule)`.
fn schedule_loop(
    cfg: &MultiuserConfig,
    clients: usize,
    start: Instant,
    queue: SyncSender<Request>,
) -> (u64, Duration) {
    let mut sampler = if cfg.weights.is_empty() {
        MixSampler::new(&vec![1.0; cfg.mix.len()], cfg.seed)
    } else {
        MixSampler::new(&cfg.weights, cfg.seed)
    };
    // A separate stream for the arrival gaps, so mix sampling and
    // schedule jitter don't entangle across replays.
    let schedule = ArrivalSchedule::new(cfg.arrival, cfg.seed.wrapping_add(0xD1B5_4A32_D192_ED03));
    let per_round = clients as u64 * cfg.mix.len() as u64;
    let mut issued = 0u64;
    let mut span = Duration::ZERO;
    for offset in schedule {
        match cfg.stop {
            StopCondition::Rounds(r) if issued >= r as u64 * per_round => break,
            StopCondition::Duration(d) if offset >= d => break,
            _ => {}
        }
        let slot = sampler.sample();
        // Sleep to the intended time, then push. The timestamp is the
        // *intended* offset either way — a backed-up queue delays the
        // push, not the clock the latency is measured from.
        if let Some(wait) = (start + offset).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if queue.send(Request { slot, offset }).is_err() {
            break; // every worker is gone
        }
        issued += 1;
        span = offset;
    }
    (issued, span)
}

/// The one execute-and-record loop: pull the next request from `feed`,
/// run it on this worker's session, and record the outcome against its
/// intended send time.
fn worker_loop(
    client: usize,
    transport: &dyn WorkTransport,
    cfg: &MultiuserConfig,
    start: Instant,
    mut feed: Feed<'_>,
    recorder: &WorkloadRecorder,
) -> ClientReport {
    let mut report = ClientReport {
        client,
        ..ClientReport::default()
    };
    let setup = transport.open(client, &cfg.mix);
    let mut session = setup.session;
    // Mix slot → session slot; a template that failed setup maps to
    // `None` and every request drawn for it is recorded as an error.
    let slot_map: Vec<Option<usize>> = cfg
        .mix
        .iter()
        .map(|item| setup.labels.iter().position(|l| *l == item.label))
        .collect();
    let deadline = match &feed {
        Feed::Closed(walk) => walk.deadline,
        Feed::Scheduled { .. } => None,
    };
    while let Some(Next {
        slot,
        intended,
        sent,
    }) = feed.next()
    {
        let offset = intended.saturating_duration_since(start);
        // The execution deadline is the earlier of the per-query
        // timeout and the wall deadline, so a run overshoots its
        // configured duration by at most one cancellation latency.
        let stop_at = deadline.map_or(sent + cfg.timeout, |d| d.min(sent + cfg.timeout));
        let outcome = match slot_map[slot] {
            Some(session_slot) => session.execute(session_slot, stop_at),
            None => ExecOutcome::Failed,
        };
        // Every `record_*` answers whether the observation counted or
        // fell inside warmup — warmup executions prime caches and plans
        // but pollute neither histograms nor stability tracking.
        let recorded = match outcome {
            ExecOutcome::Completed { rows, checksum } => {
                let end = Instant::now();
                let latency = end.saturating_duration_since(intended);
                let recorded = recorder.record_completed(
                    slot,
                    offset,
                    end.saturating_duration_since(start),
                    latency,
                    sent.saturating_duration_since(intended),
                    end.saturating_duration_since(sent),
                );
                if recorded {
                    report.latency.record(latency);
                    report.completed += 1;
                    report.observe(&cfg.mix[slot].label, rows, checksum);
                }
                recorded
            }
            ExecOutcome::TimedOut => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break; // wall deadline, not a per-query timeout
                }
                let recorded = recorder.record_timeout(slot, offset);
                report.timeouts += u64::from(recorded);
                recorded
            }
            ExecOutcome::Failed => {
                let recorded = recorder.record_error(slot, offset);
                report.errors += u64::from(recorded);
                recorded
            }
        };
        report.warmup_excluded += u64::from(!recorded);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiuser::{SessionSetup, WorkSession};

    // -- the mix DSL --------------------------------------------------------

    #[test]
    fn mix_dsl_parses_labels_and_weights() {
        let mix = WeightedMix::parse("q1:80,q5a:15,A1:5").unwrap();
        let labels: Vec<&str> = mix.items.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, ["Q1", "Q5a", "A1"]);
        assert_eq!(mix.weights, [80.0, 15.0, 5.0]);
    }

    #[test]
    fn mix_dsl_rejects_malformed_entries() {
        let zero = WeightedMix::parse("q1:0").unwrap_err();
        assert!(zero.contains("must be positive"), "{zero}");
        let unknown = WeightedMix::parse("q99:5").unwrap_err();
        assert!(
            unknown.contains("unknown query template 'q99'"),
            "{unknown}"
        );
        let duplicate = WeightedMix::parse("q1:5,Q1:3").unwrap_err();
        assert!(duplicate.contains("duplicate template"), "{duplicate}");
        let missing = WeightedMix::parse("q1").unwrap_err();
        assert!(missing.contains("LABEL:WEIGHT"), "{missing}");
        let garbage = WeightedMix::parse("q1:eighty").unwrap_err();
        assert!(garbage.contains("not an integer"), "{garbage}");
        assert!(WeightedMix::parse("").is_err());
    }

    #[test]
    fn zipf_ranks_the_benchmark_mix_head_heavy() {
        let mix = WeightedMix::zipf(1.0).unwrap();
        assert_eq!(mix.items.len(), default_mix().len());
        assert_eq!(mix.items[0].label, "Q1");
        for pair in mix.weights.windows(2) {
            assert!(pair[0] > pair[1], "weights must strictly decrease");
        }
        assert!(WeightedMix::zipf(0.0).is_err());
        assert!(WeightedMix::zipf(f64::NAN).is_err());
    }

    // -- the sampler --------------------------------------------------------

    #[test]
    fn same_seed_draws_the_same_template_sequence() {
        let mix = WeightedMix::parse("q1:80,q5a:15,q8:5").unwrap();
        let mut a = MixSampler::new(&mix.weights, 42);
        let mut b = MixSampler::new(&mix.weights, 42);
        let seq_a: Vec<usize> = (0..100).map(|_| a.sample()).collect();
        let seq_b: Vec<usize> = (0..100).map(|_| b.sample()).collect();
        assert_eq!(seq_a, seq_b, "deterministic replay");
        let mut c = MixSampler::new(&mix.weights, 43);
        let seq_c: Vec<usize> = (0..100).map(|_| c.sample()).collect();
        assert_ne!(seq_a, seq_c, "a different seed draws differently");
    }

    #[test]
    fn sampler_respects_the_weights() {
        let mut sampler = MixSampler::new(&[8.0, 1.0, 1.0], 7);
        let mut hits = [0u32; 3];
        for _ in 0..4_000 {
            hits[sampler.sample()] += 1;
        }
        let head = hits[0] as f64 / 4_000.0;
        assert!((0.72..0.88).contains(&head), "80% weight drew {head}");
        assert!(hits[1] > 0 && hits[2] > 0, "{hits:?}");
    }

    // -- arrival processes --------------------------------------------------

    #[test]
    fn arrival_specs_parse_and_render() {
        assert_eq!(Arrival::parse("closed").unwrap(), Arrival::Closed);
        assert_eq!(
            Arrival::parse("constant:5000/s").unwrap(),
            Arrival::Constant { rate: 5000.0 }
        );
        assert_eq!(
            Arrival::parse("poisson:12.5").unwrap(),
            Arrival::Poisson { rate: 12.5 }
        );
        let burst = Arrival::parse("burst:1000/s,2s,0.25").unwrap();
        assert_eq!(
            burst,
            Arrival::Burst {
                rate: 1000.0,
                period: Duration::from_secs(2),
                duty: 0.25
            }
        );
        assert_eq!(burst.to_string(), "burst:1000/s,2s,0.25");
        assert_eq!(
            Arrival::parse("poisson:200/s").unwrap().to_string(),
            "poisson:200/s"
        );
    }

    #[test]
    fn arrival_specs_reject_nonsense() {
        for bad in [
            "constant:0/s",
            "constant:-5",
            "poisson:0",
            "poisson:wat",
            "burst:100,0,0.5",
            "burst:100,1s,0",
            "burst:100,1s,1.5",
            "burst:100,1s",
            "uniform:5",
        ] {
            let err = Arrival::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad} must be rejected");
        }
        assert!(Arrival::parse("constant:0/s")
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn poisson_inter_arrival_mean_is_one_over_rate() {
        let rate = 1000.0;
        let offsets: Vec<Duration> = ArrivalSchedule::new(Arrival::Poisson { rate }, 11)
            .take(20_000)
            .collect();
        let mut sum = 0.0;
        for pair in offsets.windows(2) {
            sum += (pair[1] - pair[0]).as_secs_f64();
        }
        let mean = sum / (offsets.len() - 1) as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean gap {mean}, expected {expected}"
        );
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a: Vec<Duration> = ArrivalSchedule::new(Arrival::Poisson { rate: 500.0 }, 3)
            .take(50)
            .collect();
        let b: Vec<Duration> = ArrivalSchedule::new(Arrival::Poisson { rate: 500.0 }, 3)
            .take(50)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn burst_schedule_stays_inside_the_duty_window() {
        let period = 0.05;
        let duty = 0.4;
        let schedule = ArrivalSchedule::new(
            Arrival::Burst {
                rate: 1000.0,
                period: Duration::from_secs_f64(period),
                duty,
            },
            0,
        );
        let mut in_first_window = 0;
        for offset in schedule.take(300) {
            let pos = offset.as_secs_f64() % period;
            // A period boundary may read as ≈`period` under float modulo.
            let pos = if pos >= period - 1e-6 { 0.0 } else { pos };
            assert!(
                pos <= period * duty + 1e-6,
                "offset {offset:?} lands in the off-phase"
            );
            if offset.as_secs_f64() < period {
                in_first_window += 1;
            }
        }
        // 1000/s over a 20 ms on-phase ⇒ ~20 requests per period.
        assert!((15..=25).contains(&in_first_window), "{in_first_window}");
    }

    // -- the driver --------------------------------------------------------

    /// A transport whose sessions answer instantly with a per-slot row
    /// count — for determinism and accounting tests.
    struct InstantTransport;

    struct InstantSession;

    impl WorkTransport for InstantTransport {
        fn open(&self, _client: usize, mix: &[WorkItem]) -> SessionSetup {
            SessionSetup {
                labels: mix.iter().map(|i| i.label.clone()).collect(),
                session: Box::new(InstantSession),
            }
        }
    }

    impl WorkSession for InstantSession {
        fn execute(&mut self, slot: usize, _stop_at: Instant) -> ExecOutcome {
            ExecOutcome::Completed {
                rows: slot as u64 + 1,
                checksum: None,
            }
        }
    }

    /// A transport that stalls a fixed 100 ms per query — the
    /// coordinated-omission regression fixture.
    struct StalledTransport {
        delay: Duration,
    }

    struct StalledSession {
        delay: Duration,
    }

    impl WorkTransport for StalledTransport {
        fn open(&self, _client: usize, mix: &[WorkItem]) -> SessionSetup {
            SessionSetup {
                labels: mix.iter().map(|i| i.label.clone()).collect(),
                session: Box::new(StalledSession { delay: self.delay }),
            }
        }
    }

    impl WorkSession for StalledSession {
        fn execute(&mut self, _slot: usize, _stop_at: Instant) -> ExecOutcome {
            std::thread::sleep(self.delay);
            ExecOutcome::Completed {
                rows: 1,
                checksum: None,
            }
        }
    }

    fn open_cfg(clients: usize, stop: StopCondition) -> MultiuserConfig {
        let mut cfg = MultiuserConfig::new(clients, stop);
        cfg.mix = vec![
            WorkItem::bench(BenchQuery::Q1),
            WorkItem::bench(BenchQuery::Q8),
        ];
        cfg.weights = vec![9.0, 1.0];
        cfg.arrival = Arrival::Constant { rate: 2_000.0 };
        cfg.seed = 42;
        cfg
    }

    #[test]
    fn open_loop_accounting_adds_up_and_replays_deterministically() {
        let cfg = open_cfg(2, StopCondition::Rounds(25));
        let a = run_workload(&InstantTransport, &cfg);
        // Rounds ⇒ exactly rounds × clients × mix.len() scheduled.
        assert_eq!(a.issued, 25 * 2 * 2);
        assert_eq!(
            a.issued,
            a.completed + a.timeouts + a.errors + a.warmup_excluded
        );
        assert_eq!(a.errors, 0);
        assert_eq!(a.clients.len(), 2);
        assert_eq!(
            a.clients.iter().map(|c| c.completed).sum::<u64>(),
            a.completed,
            "per-client rows partition the total"
        );
        assert_eq!(a.templates.len(), 2);
        assert!(
            a.templates[0].completed > a.templates[1].completed,
            "9:1 mix"
        );
        // Per-slot row counts are constant, so stability must hold.
        assert!(a.inconsistent.is_empty());
        assert_eq!(a.counts["Q1"], 1);
        assert_eq!(a.counts["Q8"], 2);
        assert!(a.intended_rate().is_some_and(|r| r > 0.0));
        assert!(!a.windows.is_empty());

        let b = run_workload(&InstantTransport, &cfg);
        assert_eq!(a.issued, b.issued);
        for (ta, tb) in a.templates.iter().zip(&b.templates) {
            assert_eq!(ta.completed, tb.completed, "same seed, same draws");
        }
    }

    #[test]
    fn warmup_is_excluded_but_tallied() {
        let mut cfg = open_cfg(1, StopCondition::Rounds(10));
        cfg.mix.truncate(1);
        cfg.weights.truncate(1);
        cfg.arrival = Arrival::Constant { rate: 100.0 };
        cfg.warmup = Duration::from_millis(100);
        let report = run_workload(&InstantTransport, &cfg);
        assert_eq!(report.issued, 10);
        assert!(report.warmup_excluded > 0, "the first ~10 are warmup");
        assert!(report.completed > 0, "later requests are recorded");
        assert_eq!(report.completed + report.warmup_excluded, report.issued);
        assert_eq!(report.latency.count(), report.completed);
    }

    /// With a warmup, the completed rate is taken over the recorded part
    /// of the run, so an open loop that keeps up shows no drift — over
    /// the whole wall it would read low by the warmup share (here half).
    #[test]
    fn warmup_does_not_read_as_open_loop_drift() {
        let mut cfg = open_cfg(1, StopCondition::Rounds(400));
        cfg.mix.truncate(1);
        cfg.weights.truncate(1);
        cfg.arrival = Arrival::Constant { rate: 400.0 };
        cfg.warmup = Duration::from_millis(500);
        let report = run_workload(&InstantTransport, &cfg);
        assert_eq!(report.issued, 400);
        assert_eq!(report.completed + report.warmup_excluded, report.issued);
        let intended = report.intended_rate().expect("open loop has a schedule");
        let drift = (report.completed_rate() - intended) / intended;
        assert!(drift.abs() < 0.1, "drift {drift:+.3} at {intended:.1} q/s");
    }

    /// The coordinated-omission regression: a transport that stalls
    /// 100 ms per query is driven at 100/s by a single worker, so the
    /// queue backs up and the *observed* latency must include that
    /// queueing — a closed-loop measurement would report ~100 ms flat
    /// (and a naive "measure from actual send" open loop even less).
    #[test]
    fn stalled_transport_latency_includes_queue_delay() {
        let mut cfg = open_cfg(1, StopCondition::Rounds(8));
        cfg.mix.truncate(1);
        cfg.weights.truncate(1);
        cfg.arrival = Arrival::Constant { rate: 100.0 }; // 10 ms spacing
        let transport = StalledTransport {
            delay: Duration::from_millis(100),
        };
        let report = run_workload(&transport, &cfg);
        assert_eq!(report.issued, 8);
        assert_eq!(report.completed, 8);
        // Intended sends are 10 ms apart but service is 100 ms, so the
        // backlog grows ~90 ms per request; the p99 must reflect the
        // worst queueing, not the 100 ms service time — and certainly
        // not sub-millisecond.
        assert!(
            report.latency.quantile(0.99) >= Duration::from_millis(250),
            "p99 {:?} hides the queue",
            report.latency.quantile(0.99)
        );
        assert!(
            report.latency.quantile(0.50) >= Duration::from_millis(100),
            "p50 {:?}",
            report.latency.quantile(0.50)
        );
        // The decomposition shows where the time went.
        assert!(
            report.queue_delay.max() >= Duration::from_millis(200),
            "queue delay max {:?}",
            report.queue_delay.max()
        );
        let p50_service = report.service.quantile(0.50);
        assert!(
            (Duration::from_millis(50)..Duration::from_secs(2)).contains(&p50_service),
            "service p50 {p50_service:?}"
        );
    }

    /// The closed loop is one more arrival through the same driver: the
    /// same accounting identity holds, and because a closed-loop request
    /// is sent the instant it is drawn, queue delay is zero by
    /// construction — latency and service coincide.
    #[test]
    fn closed_loop_shares_the_accounting_and_has_no_queue_delay() {
        let mut cfg = open_cfg(3, StopCondition::Rounds(5));
        cfg.arrival = Arrival::Closed;
        for weights in [vec![9.0, 1.0], Vec::new()] {
            cfg.weights = weights;
            let report = run_workload(&InstantTransport, &cfg);
            assert_eq!(report.issued, 3 * 5 * 2, "r passes per client");
            assert_eq!(
                report.completed + report.timeouts + report.errors + report.warmup_excluded,
                report.issued
            );
            assert_eq!(report.completed, report.issued);
            assert_eq!(report.queue_delay.count(), report.completed);
            assert_eq!(report.queue_delay.max(), Duration::ZERO);
            assert_eq!(report.latency.max(), report.service.max());
            assert_eq!(
                report.intended_rate(),
                None,
                "no schedule, no intended rate"
            );
            assert!(report.clients.iter().all(|c| c.completed == 10));
            assert!(report.inconsistent.is_empty());
        }
        // Unweighted, every client walks the whole mix each pass.
        let report = run_workload(&InstantTransport, &cfg);
        assert!(report.templates.iter().all(|t| t.completed == 15));
    }

    /// Stability is checked across clients too: two clients that each
    /// see a stable — but different — count for the same template.
    #[test]
    fn cross_client_count_drift_is_flagged() {
        struct PerClientRows;
        struct Rows(u64);
        impl WorkTransport for PerClientRows {
            fn open(&self, client: usize, mix: &[WorkItem]) -> SessionSetup {
                SessionSetup {
                    labels: mix.iter().map(|i| i.label.clone()).collect(),
                    session: Box::new(Rows(client as u64)),
                }
            }
        }
        impl WorkSession for Rows {
            fn execute(&mut self, _slot: usize, _stop_at: Instant) -> ExecOutcome {
                ExecOutcome::Completed {
                    rows: self.0,
                    checksum: None,
                }
            }
        }
        let mut cfg = open_cfg(2, StopCondition::Rounds(2));
        cfg.arrival = Arrival::Closed;
        cfg.weights.clear();
        let report = run_workload(&PerClientRows, &cfg);
        assert!(report.clients.iter().all(|c| c.inconsistent.is_empty()));
        assert_eq!(report.inconsistent, ["Q1", "Q8"]);
    }

    #[test]
    fn failed_setup_slots_surface_as_errors() {
        /// Prepares only the first template; the rest fail setup.
        struct HalfTransport;
        impl WorkTransport for HalfTransport {
            fn open(&self, _client: usize, mix: &[WorkItem]) -> SessionSetup {
                SessionSetup {
                    labels: vec![mix[0].label.clone()],
                    session: Box::new(InstantSession),
                }
            }
        }
        let mut cfg = open_cfg(1, StopCondition::Rounds(20));
        for arrival in [cfg.arrival, Arrival::Closed] {
            cfg.arrival = arrival;
            let report = run_workload(&HalfTransport, &cfg);
            assert_eq!(report.issued, 40);
            assert!(report.errors > 0, "Q8 draws must error");
            assert_eq!(report.templates[1].errors, report.errors);
            assert_eq!(
                report.issued,
                report.completed + report.timeouts + report.errors + report.warmup_excluded
            );
        }
    }
}
