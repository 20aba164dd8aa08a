//! The endpoint server: a `TcpListener` accept loop feeding a fixed
//! worker thread pool, every worker holding a cloned [`QueryEngine`]
//! over the one shared store.
//!
//! Lifecycle: [`spawn`] binds, starts the accept thread and the workers,
//! and returns a [`ServerHandle`]. The accept thread pushes connections
//! into a requeue-capable [`ConnQueue`] the workers pull from — bounded
//! by [`ServerConfig::max_queue`]: when every worker is busy and the
//! backlog is full, new connections are **shed** with
//! `503 Service Unavailable` + `Retry-After` instead of queueing
//! unboundedly, so overload degrades into fast explicit rejections
//! rather than creeping latency for everyone. Each
//! worker runs a keep-alive loop per connection — and hands an *idle*
//! connection back to the queue whenever other connections are waiting,
//! so more clients than workers round-robin instead of starving —
//! parsing requests with the strict reader in [`crate::http`] and
//! answering them via the streaming result writers in
//! [`sp2b_sparql::results`]. [`ServerHandle::shutdown`] (also
//! run on drop) flips the shutdown flag, wakes the listener with a
//! loopback connection, lets in-flight requests finish, and joins every
//! thread — the graceful-drain contract the CI smoke job asserts.
//!
//! Response strategy: bodies buffer up to a spill threshold; results
//! that fit are sent with `Content-Length` (and query timeouts can still
//! become a clean `408`), larger results switch mid-flight to chunked
//! transfer coding and stream straight off the [`Solutions`] iterator —
//! SELECT results never materialize server-side. A client that
//! disconnects mid-stream surfaces as a write error, which cancels the
//! query and (via `Solutions` drop) joins any exchange workers it had
//! fanned out.
//!
//! Observability: [`spawn`] registers the server's sources with the
//! process-global metrics registry ([`sp2b_obs::global`]) — callbacks
//! over its counters, its queue and the engine's store/cache/exchange
//! state, plus the one histogram the workers record into, request
//! latency — and two extra routes surface them live: `GET /metrics`
//! (Prometheus text exposition) and `GET /stats` (JSON). Configure
//! [`ServerConfig::slow_log`] to additionally log one parseable line per
//! query whose handling time meets a threshold, with the summary of the
//! query's trace (`sp2b_sparql::query_trace`) read back from the
//! [`ScanCounters`] it ran with; each such line counts in
//! [`StatsSnapshot::slow_queries`].

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sp2b_obs::Histogram;
use sp2b_sparql::results::{write_solutions, WriteError};
use sp2b_sparql::{Error as SparqlError, QueryEngine, ScanCounters, Solutions};

use crate::http::{
    form_value, negotiate_format, read_request, write_response, ChunkedWriter, ReadError, Request,
    Version,
};

/// How often an idle keep-alive connection re-checks the shutdown flag.
const IDLE_TICK: Duration = Duration::from_millis(250);

/// Read deadline once a request has started arriving.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-syscall write deadline. A client that stops *reading* mid-response
/// stalls the worker in `write` via TCP backpressure; this bounds the
/// stall (the write errors, the query is cancelled, the connection is
/// dropped) so a handful of zombie readers cannot wedge the pool — or
/// make the join-everything shutdown hang forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Bodies up to this many bytes are sent with `Content-Length`; larger
/// ones spill into chunked streaming.
const SPILL_THRESHOLD: usize = 64 * 1024;

/// Target chunk size of streamed bodies.
const CHUNK_BYTES: usize = 16 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (port 0 for an ephemeral port — see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: SocketAddr,
    /// Worker threads (each holding its own engine clone). Connections
    /// beyond this many queue at the accept channel.
    pub workers: usize,
    /// Per-request query timeout (`None`: no timeout). Applied on top of
    /// whatever timeout the engine already carries.
    pub timeout: Option<Duration>,
    /// Load-shedding bound on the accept queue: when no worker is idle
    /// and this many connections already wait for one, a newly accepted
    /// connection is answered `503 Service Unavailable` with
    /// `Retry-After` and closed instead of queueing unboundedly (the
    /// shed count lands in [`StatsSnapshot::shed`]). Keep-alive
    /// connections a worker hands back for fairness are never shed —
    /// shedding applies to *new* arrivals only.
    pub max_queue: usize,
    /// Slow-query logging (`None`: off). When set, every query whose
    /// end-to-end handling time meets the threshold emits one line to
    /// the sink, and per-operator scan counters are attached to each
    /// query so the line carries an operator breakdown.
    pub slow_log: Option<SlowLog>,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 4 workers, 30 s query timeout, a
    /// 1024-connection accept queue, no slow-query log.
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            timeout: Some(Duration::from_secs(30)),
            max_queue: 1024,
            slow_log: None,
        }
    }
}

/// Slow-query logging policy: a threshold plus a shared line sink. The
/// sink is behind a mutex so worker threads never interleave bytes —
/// every slow query is exactly one `slow-query: …` line (the CI smoke
/// job greps for the prefix).
#[derive(Clone)]
pub struct SlowLog {
    threshold: Duration,
    sink: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl SlowLog {
    /// Log queries at or above `threshold` to stderr (the `sp2b serve
    /// --slow-ms` sink).
    pub fn stderr(threshold: Duration) -> SlowLog {
        SlowLog {
            threshold,
            sink: Arc::new(Mutex::new(Box::new(io::stderr()))),
        }
    }

    /// Log into an in-memory buffer the caller can inspect — the test
    /// sink (count lines, assert content).
    pub fn to_buffer(threshold: Duration) -> (SlowLog, Arc<Mutex<Vec<u8>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let log = SlowLog {
            threshold,
            sink: Arc::new(Mutex::new(Box::new(SharedBuffer(Arc::clone(&buffer))))),
        };
        (log, buffer)
    }

    fn note(&self, line: &str) {
        if let Ok(mut sink) = self.sink.lock() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

/// [`Write`] adapter over the shared buffer [`SlowLog::to_buffer`] hands
/// back.
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if let Ok(mut buf) = self.0.lock() {
            buf.extend_from_slice(data);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Monotonic counters the workers update; snapshot with
/// [`ServerHandle::stats`].
#[derive(Debug, Default)]
struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    client_errors: AtomicU64,
    timeouts: AtomicU64,
    server_errors: AtomicU64,
    aborted: AtomicU64,
    write_timeouts: AtomicU64,
    rows: AtomicU64,
    shed: AtomicU64,
    slow_queries: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Accepted connections.
    pub connections: u64,
    /// Requests parsed far enough to be routed.
    pub requests: u64,
    /// `200` responses completed.
    pub ok: u64,
    /// `4xx` responses (excluding timeouts).
    pub client_errors: u64,
    /// `408` responses plus queries cancelled mid-stream by the timeout.
    pub timeouts: u64,
    /// `5xx` responses.
    pub server_errors: u64,
    /// Connections lost mid-response (client hung up; query cancelled).
    pub aborted: u64,
    /// Responses killed by the per-write deadline — the client held the
    /// connection open but stopped *reading*, so a `write` stalled past
    /// [`WRITE_TIMEOUT`]. Distinct from `aborted` (an outright
    /// disconnect): a rising `write_timeouts` means slow or stalled
    /// consumers, not flaky ones.
    pub write_timeouts: u64,
    /// Result rows delivered over the wire.
    pub rows: u64,
    /// Connections shed with `503` because the accept queue was full
    /// (see [`ServerConfig::max_queue`]). Shed connections are not
    /// counted in `connections`/`requests`.
    pub shed: u64,
    /// Queries at or above the slow-log threshold (see
    /// [`ServerConfig::slow_log`]): one per `slow-query:` line.
    pub slow_queries: u64,
}

/// Every counter of a [`StatsSnapshot`], once: its `/stats` key, its
/// `/metrics` series and help text, and how to read it. The `/stats`
/// body, the metric registrations and `Display` are loops over this
/// table.
type CounterRow = (
    &'static str,
    &'static str,
    &'static str,
    fn(&StatsSnapshot) -> u64,
);
const COUNTERS: [CounterRow; 11] = [
    (
        "connections",
        "sp2b_connections_total",
        "Connections accepted by the SPARQL endpoint",
        |s| s.connections,
    ),
    (
        "requests",
        "sp2b_requests_total",
        "Requests parsed far enough to be routed",
        |s| s.requests,
    ),
    (
        "ok",
        "sp2b_responses_ok_total",
        "200 responses completed",
        |s| s.ok,
    ),
    (
        "client_errors",
        "sp2b_client_errors_total",
        "4xx responses (excluding timeouts)",
        |s| s.client_errors,
    ),
    (
        "timeouts",
        "sp2b_timeouts_total",
        "408 responses plus queries cancelled mid-stream by the timeout",
        |s| s.timeouts,
    ),
    (
        "server_errors",
        "sp2b_server_errors_total",
        "5xx responses",
        |s| s.server_errors,
    ),
    (
        "aborted",
        "sp2b_aborted_total",
        "Connections lost mid-response (client hung up; query cancelled)",
        |s| s.aborted,
    ),
    (
        "write_timeouts",
        "sp2b_write_timeouts_total",
        "Responses killed by the per-write deadline (client stopped reading)",
        |s| s.write_timeouts,
    ),
    (
        "rows",
        "sp2b_rows_total",
        "Result rows delivered over the wire",
        |s| s.rows,
    ),
    (
        "shed",
        "sp2b_shed_total",
        "Connections shed with 503 because the accept queue was full",
        |s| s.shed,
    ),
    (
        "slow_queries",
        "sp2b_slow_queries_total",
        "Queries at or above the configured slow-log threshold",
        |s| s.slow_queries,
    ),
];

/// `connections 3, requests 5, ok 5, …` — the counters under their
/// `/stats` keys.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (key, _, _, read)) in COUNTERS.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{key} {}", read(self))?;
        }
        Ok(())
    }
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            server_errors: self.server_errors.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            write_timeouts: self.write_timeouts.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            slow_queries: self.slow_queries.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (prefer calling [`ServerHandle::shutdown`] to also get
/// the final counters).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<Stats>,
}

impl ServerHandle {
    /// The resolved listen address (the actual port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The query endpoint URL.
    pub fn endpoint_url(&self) -> String {
        format!("http://{}/sparql", self.addr)
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every thread, return the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        self.stats.snapshot()
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a loopback connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One live connection: the socket plus its buffered reader (which may
/// hold a pipelined next request), so a connection can move between
/// workers without losing framing state.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let reader = BufReader::with_capacity(8 * 1024, stream.try_clone()?);
        Ok(Conn { stream, reader })
    }
}

/// The connection queue between the accept thread and the workers: a
/// deque (so requeued keep-alive connections line up behind newly
/// accepted ones) plus a closed flag for shutdown. Unlike a plain
/// channel this supports **requeueing**, which is what keeps more
/// clients than workers from starving: a worker whose connection has
/// gone idle while others wait puts it back and picks up the next one,
/// round-robining the pool across all live connections. It also tracks
/// how many workers are *parked* waiting for a connection, which is
/// what makes [`ConnQueue::try_push`]'s load-shedding decision exact: a
/// connection is shed only when nobody could serve it promptly.
#[derive(Default)]
struct QueueState {
    conns: VecDeque<Conn>,
    closed: bool,
    /// Workers currently parked in [`ConnQueue::pop`]. A woken worker
    /// leaves the count only once it holds the lock again, so until then
    /// the connection that woke it is still in `conns`: parked workers
    /// *not yet claimed* number `waiting − conns.len()`.
    waiting: usize,
}

#[derive(Default)]
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// Signalled each time a worker parks (see [`ConnQueue::wait_parked`]).
    parked: Condvar,
}

impl ConnQueue {
    /// Unconditional enqueue — the worker *requeue* path (a live
    /// keep-alive client must never be shed once accepted).
    fn push(&self, conn: Conn) {
        if let Ok(mut state) = self.state.lock() {
            state.conns.push_back(conn);
            self.ready.notify_one();
        }
    }

    /// Bounded enqueue — the accept path: every queued connection claims
    /// one parked worker, and beyond those `max_depth` more may wait.
    /// Refuses (returning the connection for a `503`) past that. Counting
    /// parked workers alone would admit a burst of any size in the window
    /// before the one parked worker wakes.
    fn try_push(&self, conn: Conn, max_depth: usize) -> Result<(), Conn> {
        let Ok(mut state) = self.state.lock() else {
            return Err(conn);
        };
        if state.conns.len() >= state.waiting + max_depth {
            return Err(conn);
        }
        state.conns.push_back(conn);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once the queue is closed
    /// *and* drained (workers exit then).
    fn pop(&self) -> Option<Conn> {
        let mut state = self.state.lock().ok()?;
        loop {
            if let Some(conn) = state.conns.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state.waiting += 1;
            self.parked.notify_all();
            match self.ready.wait(state) {
                Ok(mut s) => {
                    s.waiting -= 1;
                    state = s;
                }
                Err(_) => return None,
            }
        }
    }

    /// Blocks until `workers` workers are parked in [`ConnQueue::pop`] —
    /// how [`spawn`] makes sure its fresh pool counts as idle before the
    /// first connection is judged: a worker thread that has started but
    /// not yet parked is indistinguishable from a busy one, and a server
    /// with a short backlog would shed its first clients.
    fn wait_parked(&self, workers: usize) {
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        while state.waiting < workers {
            match self.parked.wait(state) {
                Ok(s) => state = s,
                Err(_) => return,
            }
        }
    }

    /// Connections currently queued for a worker (the `sp2b_queue_depth`
    /// gauge).
    fn depth(&self) -> usize {
        self.state.lock().map(|s| s.conns.len()).unwrap_or(0)
    }

    /// Workers currently parked waiting for a connection (the
    /// `sp2b_workers_waiting` gauge).
    fn waiting(&self) -> usize {
        self.state.lock().map(|s| s.waiting).unwrap_or(0)
    }

    /// True when another connection is waiting for a worker.
    fn has_pending(&self) -> bool {
        self.state
            .lock()
            .map(|s| !s.conns.is_empty())
            .unwrap_or(false)
    }

    fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
            self.ready.notify_all();
        }
    }
}

/// Binds and starts the server: an accept thread plus
/// [`ServerConfig::workers`] worker threads, each owning a clone of
/// `engine` (an `Arc` bump over the one shared store).
pub fn spawn(engine: QueryEngine, cfg: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(cfg.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(Stats::default());
    let engine = match cfg.timeout {
        Some(t) => engine.timeout(t),
        None => engine,
    };
    let queue = Arc::new(ConnQueue::default());
    let latency = register_metrics(&stats, &queue, &engine);
    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let worker = Worker {
            engine: engine.clone(),
            shutdown: Arc::clone(&shutdown),
            stats: Arc::clone(&stats),
            queue: Arc::clone(&queue),
            latency: latency.clone(),
            slow_log: cfg.slow_log.clone(),
        };
        workers.push(
            std::thread::Builder::new()
                .name(format!("sp2b-http-{i}"))
                .spawn(move || worker.run())?,
        );
    }
    // No connection is accepted before the pool is parked (see
    // `ConnQueue::wait_parked`); until then clients sit in the listener's
    // backlog.
    queue.wait_parked(workers.len());
    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        let queue = Arc::clone(&queue);
        let max_queue = cfg.max_queue;
        std::thread::Builder::new()
            .name("sp2b-http-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(conn) = Conn::new(stream) else {
                        continue;
                    };
                    match queue.try_push(conn, max_queue) {
                        Ok(()) => {
                            stats.connections.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(conn) => {
                            // Load shedding: every worker is busy and the
                            // backlog is full.
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                            shed_connection(conn);
                        }
                    }
                }
                // Closing the queue lets idle workers drain and exit.
                queue.close();
            })?
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        workers,
        stats,
    })
}

/// Registers the server's metric sources with the process-global
/// registry and returns the one series the workers record into directly,
/// the request-latency histogram.
///
/// Everything else is a *callback*: the counters read the same
/// [`Stats`] the request paths already increment — `/metrics` scrapes,
/// `/stats` and [`ServerHandle::stats`] can never disagree — and
/// re-registering on every spawn hands the series to the newest server.
/// Queue gauges hold only a [`Weak`] so a dead server reads as zero
/// instead of keeping its queue alive; cache and store sources read
/// through an engine clone (an `Arc` bump over the shared store).
fn register_metrics(stats: &Arc<Stats>, queue: &Arc<ConnQueue>, engine: &QueryEngine) -> Histogram {
    let reg = sp2b_obs::global();
    for (_, name, help, read) in COUNTERS {
        let s = Arc::clone(stats);
        reg.counter_fn(name, help, move || read(&s.snapshot()));
    }
    let q = Arc::downgrade(queue);
    reg.gauge_fn(
        "sp2b_queue_depth",
        "Connections queued for a worker",
        move || q.upgrade().map_or(0, |q| q.depth() as i64),
    );
    let q = Arc::downgrade(queue);
    reg.gauge_fn(
        "sp2b_workers_waiting",
        "Worker threads blocked waiting for a connection",
        move || q.upgrade().map_or(0, |q| q.waiting() as i64),
    );
    let e = engine.clone();
    reg.counter_fn(
        "sp2b_cache_hits_total",
        "Block lookups served from the store's block cache",
        move || e.cache_stats().map_or(0, |c| c.hits),
    );
    let e = engine.clone();
    reg.counter_fn(
        "sp2b_cache_misses_total",
        "Block lookups that read and decoded from disk",
        move || e.cache_stats().map_or(0, |c| c.misses),
    );
    let e = engine.clone();
    reg.counter_fn(
        "sp2b_cache_evictions_total",
        "Blocks evicted to stay within the cache byte budget",
        move || e.cache_stats().map_or(0, |c| c.evictions),
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_cache_resident_bytes",
        "Bytes currently charged against the cache budget",
        move || e.cache_stats().map_or(0, |c| c.resident_bytes as i64),
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_cache_resident_blocks",
        "Decoded blocks currently resident in the cache",
        move || e.cache_stats().map_or(0, |c| c.resident_blocks as i64),
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_cache_peak_resident_bytes",
        "High-water mark of cache residency since open",
        move || e.cache_stats().map_or(0, |c| c.peak_resident_bytes as i64),
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_cache_budget_bytes",
        "The configured cache byte budget",
        move || e.cache_stats().map_or(0, |c| c.budget_bytes as i64),
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_dictionary_bytes",
        "Heap bytes of the served store's dictionary (arena, spans, id table)",
        move || e.store().dictionary().heap_bytes() as i64,
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_store_triples",
        "Triples in the served store",
        move || e.store().len() as i64,
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_store_predicates",
        "Distinct predicates in the served store's statistics",
        move || e.store().stats().predicates.len() as i64,
    );
    let e = engine.clone();
    reg.gauge_fn(
        "sp2b_store_characteristic_sets",
        "Characteristic sets in the served store's statistics",
        move || e.store().stats().characteristic_sets.len() as i64,
    );
    sp2b_sparql::par::diag::register_metrics();
    reg.histogram(
        "sp2b_request_seconds",
        "End-to-end request handling time (routing through response)",
    )
}

/// How long a shed connection may linger while its request bytes drain
/// (see [`shed_connection`]); also the byte cap's time bound on the
/// accept loop per shed.
const SHED_LINGER: Duration = Duration::from_millis(250);

/// Sheds one connection with `503` + `Retry-After`, then **lingers**:
/// the response goes out first, `shutdown(Write)` sends the FIN so the
/// client sees a complete response, and the client's (never-read)
/// request bytes are drained until EOF — closing a socket with unread
/// data in its receive buffer would send an RST that can destroy the
/// queued 503 before the client reads it. The drain is bounded in both
/// time ([`SHED_LINGER`]) and bytes, so a shed storm stalls the accept
/// loop by at most the linger per connection — at which point the
/// kernel's SYN backlog sheds for us.
fn shed_connection(conn: Conn) {
    let _ = write_response(
        &mut (&mut &conn.stream),
        503,
        "text/plain; charset=utf-8",
        b"server overloaded; please retry\n",
        false,
        &["Retry-After: 1"],
    );
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    let _ = conn.stream.set_read_timeout(Some(SHED_LINGER));
    let mut reader = conn.reader;
    let mut discard = [0u8; 4096];
    let mut drained = 0usize;
    while let Ok(n) = std::io::Read::read(&mut reader, &mut discard) {
        if n == 0 {
            break; // client closed after reading the 503: clean FIN
        }
        drained += n;
        if drained >= 64 * 1024 {
            break;
        }
    }
}

/// Per-thread server state: an owned engine clone plus the shared flags.
struct Worker {
    engine: QueryEngine,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Stats>,
    queue: Arc<ConnQueue>,
    /// The `sp2b_request_seconds` series — every routed request records.
    latency: Histogram,
    slow_log: Option<SlowLog>,
}

impl Worker {
    fn run(&self) {
        while let Some(conn) = self.queue.pop() {
            if let Some(idle) = self.serve_connection(conn) {
                // The connection went idle while others were waiting:
                // rotate it to the back of the queue and serve the next.
                self.queue.push(idle);
            }
        }
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// One connection's keep-alive loop: wait (in shutdown-checkable
    /// ticks) for the next request, serve it, repeat until the peer
    /// closes, an error breaks framing, or the server drains. Returns
    /// `Some(conn)` to hand an idle connection back to the queue when
    /// other connections are waiting for a worker (fairness under more
    /// clients than workers).
    fn serve_connection(&self, mut conn: Conn) -> Option<Conn> {
        loop {
            // Idle wait at the request boundary.
            let _ = conn.stream.set_read_timeout(Some(IDLE_TICK));
            match idle_fill(&mut conn.reader) {
                Ok(false) => return None, // peer closed cleanly
                Ok(true) => {}
                Err(e) if would_block(&e) => {
                    if self.stopping() {
                        return None;
                    }
                    if self.queue.has_pending() {
                        return Some(conn); // yield the worker
                    }
                    continue;
                }
                Err(_) => return None,
            }
            // Bytes have arrived: finish reading this request even while
            // draining (the response still goes out), but bound the read.
            let _ = conn.stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT));
            match read_request(&mut conn.reader) {
                Ok(request) => {
                    let keep = self.handle(&conn.stream, &request);
                    if !keep || self.stopping() {
                        return None;
                    }
                    // Served and still healthy: if nothing is pipelined
                    // and others wait, rotate; otherwise keep serving.
                    if conn.reader.buffer().is_empty() && self.queue.has_pending() {
                        return Some(conn);
                    }
                }
                Err(ReadError::Closed) | Err(ReadError::Io(_)) => return None,
                Err(e) => {
                    // Framing is broken (or suspect): answer and close.
                    let (status, message) = match e {
                        ReadError::Bad(m) => (400, m),
                        ReadError::HeadTooLarge => (431, "request head too large"),
                        ReadError::BodyTooLarge => (413, "request body too large"),
                        ReadError::LengthRequired => (411, "Content-Length required"),
                        ReadError::BadLength => (400, "invalid Content-Length"),
                        ReadError::Closed | ReadError::Io(_) => unreachable!(),
                    };
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let _ = self.error(&conn.stream, status, message, false);
                    return None;
                }
            }
        }
    }

    /// Routes one request, recording its end-to-end handling time into
    /// the request-latency histogram. Returns whether to keep the
    /// connection.
    fn handle(&self, stream: &TcpStream, request: &Request) -> bool {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let keep = self.route(stream, request);
        self.latency.record(started.elapsed());
        keep
    }

    fn route(&self, stream: &TcpStream, request: &Request) -> bool {
        let keep = request.keep_alive();
        match (request.method.as_str(), request.path()) {
            ("GET", "/") | ("HEAD", "/") => {
                let body = "sp2b SPARQL endpoint\n\nPOST /sparql (application/sparql-query or \
                            form) or GET /sparql?query=...\nResult formats (Accept): \
                            application/sparql-results+json, text/csv, \
                            text/tab-separated-values\nTelemetry: GET /metrics (Prometheus \
                            text), GET /stats (JSON)\n";
                self.stats.ok.fetch_add(1, Ordering::Relaxed);
                write_response(
                    &mut (&mut &*stream),
                    200,
                    "text/plain; charset=utf-8",
                    if request.method == "HEAD" {
                        b""
                    } else {
                        body.as_bytes()
                    },
                    keep,
                    &[],
                )
                .is_ok()
                    && keep
            }
            ("GET", "/metrics") | ("HEAD", "/metrics") => {
                let body = sp2b_obs::global().render_prometheus();
                self.stats.ok.fetch_add(1, Ordering::Relaxed);
                write_response(
                    &mut (&mut &*stream),
                    200,
                    // The Prometheus text exposition format version.
                    "text/plain; version=0.0.4; charset=utf-8",
                    if request.method == "HEAD" {
                        b""
                    } else {
                        body.as_bytes()
                    },
                    keep,
                    &[],
                )
                .is_ok()
                    && keep
            }
            ("GET", "/stats") | ("HEAD", "/stats") => {
                let body = self.stats_json();
                self.stats.ok.fetch_add(1, Ordering::Relaxed);
                write_response(
                    &mut (&mut &*stream),
                    200,
                    "application/json",
                    if request.method == "HEAD" {
                        b""
                    } else {
                        body.as_bytes()
                    },
                    keep,
                    &[],
                )
                .is_ok()
                    && keep
            }
            (_, "/metrics") | (_, "/stats") => {
                self.error(stream, 405, "method not allowed; use GET", keep)
            }
            ("GET", "/sparql") => match self.query_from_get(request) {
                Ok(text) => self.run_query(stream, request, &text, keep),
                Err(message) => self.error(stream, 400, message, keep),
            },
            ("POST", "/sparql") => match self.query_from_post(request) {
                Ok(text) => self.run_query(stream, request, &text, keep),
                Err((status, message)) => self.error(stream, status, message, keep),
            },
            (_, "/sparql") | (_, "/") => {
                self.error(stream, 405, "method not allowed; use GET or POST", keep)
            }
            _ => self.error(stream, 404, "unknown path; the endpoint is /sparql", keep),
        }
    }

    fn query_from_get(&self, request: &Request) -> Result<String, &'static str> {
        let qs = request
            .query_string()
            .ok_or("missing query parameter: GET /sparql?query=...")?;
        match form_value(qs, "query") {
            Some(Ok(text)) => Ok(text),
            Some(Err(e)) => Err(e),
            None => Err("missing query parameter: GET /sparql?query=..."),
        }
    }

    fn query_from_post(&self, request: &Request) -> Result<String, (u16, &'static str)> {
        let content_type = request
            .header("content-type")
            .map(|ct| {
                ct.split(';')
                    .next()
                    .unwrap_or(ct)
                    .trim()
                    .to_ascii_lowercase()
            })
            .unwrap_or_default();
        match content_type.as_str() {
            "application/sparql-query" => String::from_utf8(request.body.clone())
                .map_err(|_| (400, "query body is not UTF-8")),
            "application/x-www-form-urlencoded" => {
                let body = std::str::from_utf8(&request.body)
                    .map_err(|_| (400, "form body is not UTF-8"))?;
                match form_value(body, "query") {
                    Some(Ok(text)) => Ok(text),
                    Some(Err(e)) => Err((400, e)),
                    None => Err((400, "missing query form field")),
                }
            }
            _ => Err((
                415,
                "unsupported Content-Type; use application/sparql-query or \
                 application/x-www-form-urlencoded",
            )),
        }
    }

    /// Prepares and streams one query. Returns whether to keep the
    /// connection open.
    fn run_query(&self, stream: &TcpStream, request: &Request, text: &str, keep: bool) -> bool {
        let Some(format) = negotiate_format(request.header("accept")) else {
            return self.error(
                stream,
                406,
                "no supported result format in Accept; supported: \
                 application/sparql-results+json, text/csv, text/tab-separated-values",
                keep,
            );
        };
        let started = Instant::now();
        // Scan counters are attached per query only when the slow log is
        // on — they buy the per-operator breakdown at the cost of a
        // sampled clock read (see `sp2b_sparql::eval::TIMING_STRIDE`).
        let counters = self
            .slow_log
            .as_ref()
            .map(|_| Arc::new(ScanCounters::default()));
        let traced = counters
            .as_ref()
            .map(|c| self.engine.clone().scan_counters(Arc::clone(c)));
        let engine = traced.as_ref().unwrap_or(&self.engine);
        let prepared = match engine.prepare(text) {
            Ok(p) => p,
            // Parse errors, unbound variables and unsupported constructs
            // are all the client's query, not our failure: 400.
            Err(e) => return self.error(stream, 400, &e.to_string(), keep),
        };
        let prepare_time = started.elapsed();
        let ask = prepared.is_ask();
        let cancel = engine.cancellation();
        let mut solutions: Solutions<'_> = engine.solutions_with(&prepared, &cancel);
        let content_type = if ask {
            format.ask_content_type()
        } else {
            format.content_type()
        };
        let mut body = StreamBody::new(stream, content_type, keep, request.version);
        let mut rows_sent = 0u64;
        let keep_after = match write_solutions(&mut body, format, &mut solutions, ask) {
            Ok(rows) => match body.finish() {
                Ok(keep_after) => {
                    self.stats.ok.fetch_add(1, Ordering::Relaxed);
                    self.stats.rows.fetch_add(rows, Ordering::Relaxed);
                    rows_sent = rows;
                    keep_after
                }
                Err(e) => {
                    self.note_disconnect(&e);
                    false
                }
            },
            Err(WriteError::Query(e)) => {
                let status = match e {
                    SparqlError::Cancelled => 408,
                    _ => 500,
                };
                if body.is_buffering() {
                    // Headers not sent yet: a clean error response.
                    self.error(stream, status, &describe(&e), keep)
                } else {
                    // Mid-stream: the status line is gone; truncate the
                    // chunked body (no terminating chunk) and close, so
                    // the client sees a broken transfer, not a clean end.
                    match status {
                        408 => self.stats.timeouts.fetch_add(1, Ordering::Relaxed),
                        _ => self.stats.server_errors.fetch_add(1, Ordering::Relaxed),
                    };
                    false
                }
            }
            Err(WriteError::Io(e)) => {
                // The client hung up (or stopped reading) mid-stream:
                // cancel the query so the evaluator (and any exchange
                // workers, via the Solutions drop below) stop immediately
                // instead of computing rows nobody will read.
                cancel.cancel();
                self.note_disconnect(&e);
                false
            }
        };
        // Joins any exchange workers, so the scan counters are complete.
        drop(solutions);
        if let (Some(log), Some(counters)) = (&self.slow_log, &counters) {
            let total = started.elapsed();
            if total >= log.threshold {
                self.stats.slow_queries.fetch_add(1, Ordering::Relaxed);
                let mut trace = sp2b_sparql::query_trace(&prepared, engine.store(), counters);
                trace.phase("prepare", prepare_time);
                trace.phase("execute", total - prepare_time);
                log.note(&format!(
                    "slow-query: total={:.1} ms {} rows={rows_sent} query={:?}",
                    total.as_secs_f64() * 1e3,
                    trace.summary(),
                    truncated(text, 200),
                ));
            }
        }
        keep_after
    }

    /// Books a mid-response connection loss under the counter that
    /// explains it: a stalled `write` hitting the per-syscall deadline
    /// (`write_timeouts` — the client stopped reading) vs an outright
    /// disconnect (`aborted`).
    fn note_disconnect(&self, e: &io::Error) {
        if would_block(e) {
            self.stats.write_timeouts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The `/stats` body: this server's counters plus every registered
    /// metric series, as one JSON object.
    fn stats_json(&self) -> String {
        let s = self.stats.snapshot();
        let server: Vec<String> = COUNTERS
            .iter()
            .map(|(key, _, _, read)| format!("\"{key}\":{}", read(&s)))
            .collect();
        format!(
            "{{\"server\":{{{}}},\"metrics\":{}}}",
            server.join(","),
            sp2b_obs::global().render_json(),
        )
    }

    fn error(&self, stream: &TcpStream, status: u16, message: &str, keep: bool) -> bool {
        match status {
            408 => &self.stats.timeouts,
            400..=499 => &self.stats.client_errors,
            _ => &self.stats.server_errors,
        }
        .fetch_add(1, Ordering::Relaxed);
        let body = format!("{message}\n");
        write_response(
            &mut (&mut &*stream),
            status,
            "text/plain; charset=utf-8",
            body.as_bytes(),
            keep,
            &[],
        )
        .is_ok()
            && keep
    }
}

/// The slow-log rendering of a query text: newlines collapsed so the
/// line stays a line, capped at `max` characters.
fn truncated(text: &str, max: usize) -> String {
    let flat: String = text
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    if flat.chars().count() <= max {
        return flat;
    }
    let mut out: String = flat.chars().take(max).collect();
    out.push('…');
    out
}

/// Human phrasing of mid-query errors on the wire.
fn describe(e: &SparqlError) -> String {
    match e {
        SparqlError::Cancelled => "query timed out".to_owned(),
        other => other.to_string(),
    }
}

/// The idle wait at a request boundary: `Ok(true)` once request bytes
/// are buffered, `Ok(false)` when the peer closed cleanly. A signal
/// landing on the worker mid-wait (`EINTR`) is not the peer's doing and
/// must not cost it its keep-alive connection, so `Interrupted` retries
/// — as `read_until`/`read_exact` inside `read_request` already do.
fn idle_fill(reader: &mut impl BufRead) -> io::Result<bool> {
    loop {
        match reader.fill_buf() {
            Ok(buffered) => return Ok(!buffered.is_empty()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The response body sink: buffers up to [`SPILL_THRESHOLD`] bytes so
/// small results (and errors surfacing before the first flush) get a
/// fixed `Content-Length` response, then spills into chunked streaming
/// (HTTP/1.1) or a close-delimited raw stream (HTTP/1.0).
struct StreamBody<'a> {
    stream: &'a TcpStream,
    content_type: &'a str,
    keep: bool,
    version: Version,
    state: BodyState<'a>,
}

enum BodyState<'a> {
    Buffering(Vec<u8>),
    Chunked(ChunkedWriter<&'a TcpStream>),
    Raw(&'a TcpStream),
}

impl<'a> StreamBody<'a> {
    fn new(stream: &'a TcpStream, content_type: &'a str, keep: bool, version: Version) -> Self {
        StreamBody {
            stream,
            content_type,
            keep,
            version,
            state: BodyState::Buffering(Vec::with_capacity(4 * 1024)),
        }
    }

    /// True while the status line has not been sent (errors can still
    /// become clean responses).
    fn is_buffering(&self) -> bool {
        matches!(self.state, BodyState::Buffering(_))
    }

    /// Sends the response head and the buffered prefix, switching to the
    /// streaming state.
    fn spill(&mut self) -> io::Result<()> {
        let BodyState::Buffering(buf) =
            std::mem::replace(&mut self.state, BodyState::Raw(self.stream))
        else {
            return Ok(());
        };
        let mut out = self.stream;
        match self.version {
            Version::Http11 => {
                write!(
                    out,
                    "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n\
                     Connection: {}\r\n\r\n",
                    self.content_type,
                    if self.keep { "keep-alive" } else { "close" }
                )?;
                let mut chunked = ChunkedWriter::new(self.stream, CHUNK_BYTES);
                chunked.write_all(&buf)?;
                self.state = BodyState::Chunked(chunked);
            }
            Version::Http10 => {
                // No chunked coding in 1.0: stream raw, delimit by close.
                self.keep = false;
                write!(
                    out,
                    "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nConnection: close\r\n\r\n",
                    self.content_type
                )?;
                out.write_all(&buf)?;
                self.state = BodyState::Raw(self.stream);
            }
        }
        Ok(())
    }

    /// Completes the response; returns whether the connection stays
    /// usable.
    fn finish(self) -> io::Result<bool> {
        match self.state {
            BodyState::Buffering(buf) => {
                write_response(
                    &mut (&mut &*self.stream),
                    200,
                    self.content_type,
                    &buf,
                    self.keep,
                    &[],
                )?;
                Ok(self.keep)
            }
            BodyState::Chunked(chunked) => {
                chunked.finish()?;
                Ok(self.keep)
            }
            BodyState::Raw(mut stream) => {
                stream.flush()?;
                Ok(false)
            }
        }
    }
}

impl Write for StreamBody<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if let BodyState::Buffering(buf) = &mut self.state {
            buf.extend_from_slice(data);
            if buf.len() > SPILL_THRESHOLD {
                self.spill()?;
            }
            return Ok(data.len());
        }
        match &mut self.state {
            BodyState::Chunked(chunked) => chunked.write(data),
            BodyState::Raw(stream) => stream.write(data),
            BodyState::Buffering(_) => unreachable!(),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.state {
            BodyState::Buffering(_) => Ok(()),
            BodyState::Chunked(chunked) => chunked.flush(),
            BodyState::Raw(stream) => stream.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails its first read with `EINTR`, then serves `bytes`.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        bytes: &'a [u8],
    }

    impl io::Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn an_interrupted_idle_read_still_yields_the_request() {
        let mut reader = BufReader::new(InterruptedOnce {
            interrupted: false,
            bytes: b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n",
        });
        assert!(
            idle_fill(&mut reader).expect("EINTR must be retried, not surfaced"),
            "request bytes are buffered"
        );
        let request = read_request(&mut reader).expect("the request parses");
        assert_eq!((request.method.as_str(), request.path()), ("GET", "/stats"));
        // The peer closing cleanly afterwards still reads as closed.
        assert!(!idle_fill(&mut reader).expect("clean EOF"));
    }
}
