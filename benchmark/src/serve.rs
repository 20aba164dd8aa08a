//! `serve-mix-50k`: `sp2b_server::spawn` in process over the resident
//! 50k store, driven over loopback by two keep-alive connections with a
//! seeded mix of lookups, stars and short chains, JSON results. The
//! serializer, the HTTP write and the request parse dominate; joins do
//! almost nothing — the opposite of the protocol workloads.
//!
//! Closed loop (each connection sends its next request when the last
//! one returned) gives the end-to-end metrics: it is what a 2-CPU
//! sandbox measures repeatably. The traced run adds an open loop —
//! Poisson arrivals at fixed rates, latency from the *intended* send
//! time — whose numbers are reported per layer.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sp2b_core::endpoint::{body_checksum, ChecksumWriter};
use sp2b_core::workload::{Arrival, ArrivalSchedule, MixSampler, WeightedMix};
use sp2b_server::{ServerConfig, ServerHandle, StatsSnapshot};
use sp2b_sparql::results::{write_solutions, Format};
use sp2b_sparql::{parse, QueryEngine};
use sp2b_store::TripleStore;

use crate::harness::{
    repeat_setup, timed_passes, trace_overhead_pct, Checker, EndToEnd, Outcome, RunArgs,
    SectionCost,
};
use crate::layers;
use crate::pipeline::{self, Stages};
use crate::protocol::SCALE;
use crate::spec::Measured;
use crate::stats::{median, p99_or_tail, percentile_sorted, sorted, summarize};
use crate::trace::Tracer;

/// Weighted towards lookups, stars and short chains, as query-log
/// studies (Bonifati et al.) measure real endpoints to be.
pub const MIX: &str = "q1:20,q10:20,q3b:10,q3c:10,q11:10,q12c:10,q2:8,q9:8,q3a:4";

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Requests in one closed-loop pass (one seeded replay of the mix).
pub const CLOSED_REQUESTS: usize = 4000;

/// Open-loop rates: the reference rate and the ladder around it.
const RATE_REFERENCE: f64 = 800.0;
const RATE_LADDER: [f64; 2] = [400.0, 1200.0];
const OPEN_ROUNDS: usize = 3;

/// A rate is sustained when p99 stays within this limit, nothing fails
/// and the backlog is not growing.
const LATENCY_LIMIT_MS: f64 = 20.0;
const BACKLOG_LIMIT_MS: f64 = 5.0;

const JSON: &str = "application/sparql-results+json";
const TSV: &str = "text/tab-separated-values";

/// One template of the mix: its request bytes and the body the server
/// must answer with, byte for byte.
struct Template {
    label: String,
    text: String,
    weight: f64,
    request: Vec<u8>,
    expected: Vec<u8>,
}

fn request_bytes(addr: SocketAddr, accept: &str, query: &str) -> Vec<u8> {
    format!(
        "POST /sparql HTTP/1.1\r\nHost: {addr}\r\nAccept: {accept}\r\n\
         User-Agent: sp2b-benchmark\r\nContent-Type: application/sparql-query\r\n\
         Content-Length: {}\r\n\r\n{query}",
        query.len()
    )
    .into_bytes()
}

/// When one request was written, first answered and fully read.
#[derive(Clone, Copy)]
struct Stamps {
    start: Instant,
    sent: Instant,
    first_byte: Instant,
    done: Instant,
}

/// A keep-alive HTTP/1.1 client that stamps the three moments the
/// client-side spans need; the body stays in `body` for the caller to
/// compare.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    body: Vec<u8>,
    /// Whether the request in flight has seen a response byte yet.
    answered: bool,
    /// Requests resent on a fresh connection (see [`Client::fetch`]).
    reconnects: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Client {
            addr,
            stream,
            reader,
            body: Vec::new(),
            answered: false,
            reconnects: 0,
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_owned())
    }

    /// Sends `request` and reads the whole response; returns the status.
    fn request(&mut self, request: &[u8]) -> io::Result<(u16, Stamps)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let start = Instant::now();
        self.answered = false;
        self.stream.write_all(request)?;
        let sent = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.answered = true;
        let first_byte = Instant::now();
        let status: u16 = self
            .line()?
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut chunked) = (None, false);
        loop {
            let line = self.line()?;
            let Some((name, value)) = line.split_once(':') else {
                break; // the blank line ending the head
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.trim().eq_ignore_ascii_case("chunked");
            }
        }
        self.body.clear();
        if chunked {
            loop {
                let size = usize::from_str_radix(self.line()?.trim(), 16)
                    .map_err(|_| bad("malformed chunk size"))?;
                if size == 0 {
                    while !self.line()?.is_empty() {} // trailers
                    break;
                }
                let at = self.body.len();
                self.body.resize(at + size, 0);
                self.reader.read_exact(&mut self.body[at..])?;
                self.line()?; // the CRLF after the chunk
            }
        } else {
            let n = length.ok_or_else(|| bad("response without a length"))?;
            self.body.resize(n, 0);
            self.reader.read_exact(&mut self.body)?;
        }
        Ok((
            status,
            Stamps {
                start,
                sent,
                first_byte,
                done: Instant::now(),
            },
        ))
    }

    /// One request of the mix: the stamps if the server answered 200 with
    /// exactly the expected body, else what went wrong. A connection the
    /// server closed before answering a single byte is replaced and the
    /// request sent once more — what any keep-alive client does with an
    /// idempotent request (`core::endpoint` too) — and counted in
    /// `reconnects`; the latency still runs from the first attempt.
    fn fetch(&mut self, template: &Template, tr: &mut Tracer) -> Result<Stamps, String> {
        tr.enter(&template.label);
        let first_start = Instant::now();
        let mut result = self.request(&template.request);
        if result.is_err() && !self.answered {
            if let Ok(fresh) = Client::connect(self.addr) {
                let reconnects = self.reconnects + 1;
                *self = Client {
                    reconnects,
                    ..fresh
                };
                result = self.request(&template.request).map(|(status, stamps)| {
                    let start = first_start;
                    (status, Stamps { start, ..stamps })
                });
            }
        }
        let outcome = match result {
            Ok((200, stamps)) if self.body == template.expected => {
                tr.record("send", stamps.start, stamps.sent);
                tr.record("first_byte", stamps.sent, stamps.first_byte);
                tr.record("read_body", stamps.first_byte, stamps.done);
                Ok(stamps)
            }
            Ok((200, _)) => Err(format!(
                "body of {} bytes, expected {}",
                self.body.len(),
                template.expected.len()
            )),
            Ok((status, _)) => Err(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&self.body[..self.body.len().min(120)])
            )),
            Err(e) => {
                // Mid-response failure: the framing is gone, start over.
                if let Ok(fresh) = Client::connect(self.addr) {
                    let reconnects = self.reconnects;
                    *self = Client {
                        reconnects,
                        ..fresh
                    };
                }
                Err(format!("I/O error: {e}"))
            }
        };
        tr.exit();
        outcome
    }
}

/// One completed (or failed) request of a phase.
struct Sample {
    template: usize,
    /// When the request was due (open loop only).
    due: Option<Instant>,
    /// Whether the client was idle before the due time (then `start −
    /// due` is how late the generator ran, not queueing).
    idle_before: bool,
    stamps: Result<Stamps, String>,
}

/// The server plus what the clients need to drive and check it.
struct Rig {
    handle: ServerHandle,
    engine: QueryEngine,
    templates: Vec<Template>,
    stages: Stages,
    doc_bytes: usize,
    terms: usize,
}

fn build(seed: u64, tr: &mut Tracer) -> Rig {
    let mut stages = Stages::default();
    tr.enter("setup");
    let loaded = pipeline::load(SCALE, seed, tr, &mut stages);
    // `sp2b serve` defaults: per-query parallelism 1 (concurrency comes
    // from the clients), 30 s timeout.
    let engine = QueryEngine::new(loaded.store.into_shared())
        .parallelism(1)
        .timeout(REQUEST_TIMEOUT);
    let handle = tr.span("server.spawn", || {
        sp2b_server::spawn(
            engine.clone(),
            &ServerConfig {
                workers: WORKERS,
                ..ServerConfig::default()
            },
        )
        .expect("binding a loopback port")
    });
    let mix = WeightedMix::parse(MIX).expect("the committed mix parses");
    let templates = mix
        .items
        .iter()
        .zip(&mix.weights)
        .map(|(item, &weight)| Template {
            label: format!("request:{}", item.label),
            text: item.text.clone(),
            weight,
            request: request_bytes(handle.addr(), JSON, &item.text),
            expected: serialize(&engine, &item.text, Format::Json, tr).unwrap_or_default(),
        })
        .collect();
    tr.exit();
    Rig {
        handle,
        engine,
        templates,
        stages,
        doc_bytes: loaded.doc.len(),
        terms: loaded.terms,
    }
}

/// The in-process answer to `text`: parse → plan → execute + serialize,
/// one span each. `None` if the query fails.
fn serialize(engine: &QueryEngine, text: &str, format: Format, tr: &mut Tracer) -> Option<Vec<u8>> {
    let query = tr.span("sparql.parse", || parse(text)).ok()?;
    let prepared = tr
        .span("sparql.plan", || engine.prepare_query(&query))
        .ok()?;
    tr.span("sparql.serialize", || {
        let mut out = Vec::new();
        let mut solutions = engine.solutions(&prepared);
        write_solutions(&mut out, format, &mut solutions, prepared.is_ask())
            .ok()
            .map(|_| out)
    })
}

/// The seeded template sequence of one replay.
pub fn mix_sequence(weights: &[f64], seed: u64, len: usize) -> Vec<usize> {
    let mut sampler = MixSampler::new(weights, seed);
    (0..len).map(|_| sampler.sample()).collect()
}

/// The seeded Poisson schedule of one open-loop round: due offsets in
/// seconds and the template due at each.
pub fn poisson_schedule(weights: &[f64], seed: u64, rate: f64, seconds: f64) -> Vec<(f64, usize)> {
    // Two streams of one seed would draw the same numbers, tying each
    // template to its gap; the sampler gets a derived seed.
    let mut sampler = MixSampler::new(weights, seed ^ 0x9E37_79B9_7F4A_7C15);
    ArrivalSchedule::new(Arrival::Poisson { rate }, seed)
        .map(|due| due.as_secs_f64())
        .take_while(|&due| due < seconds)
        .map(|due| (due, sampler.sample()))
        .collect()
}

/// Drives `schedule` through the clients: each pulls the next request,
/// waits until it is due (immediately, in the closed loop) and sends it.
/// Returns the wall seconds, the samples in schedule order and each
/// client's spans.
fn drive(
    clients: &mut [Client],
    templates: &[Template],
    schedule: &[(f64, usize)],
    open: bool,
    tr: &Tracer,
) -> (f64, Vec<Sample>, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let begin = Instant::now();
    let per_client: Vec<(Vec<(usize, Sample)>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                let mut tr = Tracer::new(tr.enabled(), tr.epoch());
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(due_s, template)) = schedule.get(k) else {
                            return (samples, tr);
                        };
                        let due = open.then(|| begin + Duration::from_secs_f64(due_s));
                        let wait = due.and_then(|d| d.checked_duration_since(Instant::now()));
                        if let Some(wait) = wait {
                            std::thread::sleep(wait);
                        }
                        let stamps = client.fetch(&templates[template], &mut tr);
                        samples.push((
                            k,
                            Sample {
                                template,
                                due,
                                idle_before: wait.is_some(),
                                stamps,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = begin.elapsed().as_secs_f64();
    let mut samples: Vec<(usize, Sample)> = Vec::with_capacity(schedule.len());
    let mut tracers = Vec::new();
    for (s, t) in per_client {
        samples.extend(s);
        tracers.push(t);
    }
    samples.sort_by_key(|(k, _)| *k);
    let ordered = samples.into_iter().map(|(_, s)| s).collect();
    (wall, ordered, tracers)
}

fn check_samples(samples: &[Sample], templates: &[Template], checker: &mut Checker) {
    for s in samples {
        checker.check(s.stamps.is_ok(), || {
            let why = s.stamps.as_ref().err().map_or("", String::as_str);
            format!("{} failed: {why}", templates[s.template].label)
        });
    }
}

/// What one open-loop round measured, in milliseconds.
struct Round {
    lat_p50: f64,
    lat_p99: f64,
    service_p50: f64,
    service_p99: f64,
    queue_p99: f64,
    lateness_p99: f64,
    failed: usize,
    /// Median queue delay over the last quarter of the schedule.
    backlog: f64,
}

impl Round {
    fn sustained(&self) -> bool {
        self.failed == 0 && self.lat_p99 <= LATENCY_LIMIT_MS && self.backlog <= BACKLOG_LIMIT_MS
    }
}

fn summarize_round(samples: &[Sample]) -> Round {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut lat, mut service, mut queue, mut lateness) = (vec![], vec![], vec![], vec![]);
    for s in samples {
        let (Ok(st), Some(due)) = (&s.stamps, s.due) else {
            continue;
        };
        let waited = ms(st.start.saturating_duration_since(due));
        lat.push(ms(st.done.saturating_duration_since(due)));
        service.push(ms(st.done - st.start));
        queue.push(waited);
        if s.idle_before {
            lateness.push(waited);
        }
    }
    let last_quarter = &queue[queue.len() - queue.len() / 4..];
    let (lat, service) = (sorted(&lat), sorted(&service));
    Round {
        lat_p50: percentile_sorted(&lat, 0.5),
        lat_p99: p99_or_tail(&lat),
        service_p50: percentile_sorted(&service, 0.5),
        service_p99: p99_or_tail(&service),
        queue_p99: p99_or_tail(&sorted(&queue)),
        lateness_p99: p99_or_tail(&sorted(&lateness)),
        failed: samples.iter().filter(|s| s.stamps.is_err()).count(),
        backlog: median(last_quarter),
    }
}

/// Per-template closed-loop latencies (seconds), across passes.
struct TemplateLatencies(Vec<Vec<f64>>);

impl TemplateLatencies {
    fn push(&mut self, samples: &[Sample]) {
        for s in samples {
            if let Ok(st) = &s.stamps {
                self.0[s.template].push((st.done - st.start).as_secs_f64());
            }
        }
    }

    /// Per-template medians; a template that never succeeded is `None`.
    fn medians(&self) -> Vec<Option<f64>> {
        self.0
            .iter()
            .map(|v| (!v.is_empty()).then(|| median(v)))
            .collect()
    }
}

fn connect_clients(addr: SocketAddr) -> Vec<Client> {
    (0..CLIENTS)
        .map(|_| Client::connect(addr).expect("connecting to the in-process server"))
        .collect()
}

/// The TSV answer over HTTP must fold to the same checksum as the
/// in-process TSV stream — rows, not just counts, agree across the wire.
fn check_checksums(rig: &Rig, client: &mut Client, checker: &mut Checker) {
    for t in &rig.templates {
        let over_http = client
            .request(&request_bytes(rig.handle.addr(), TSV, &t.text))
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|_| {
                let is_ask = t.text.trim_start().starts_with("ASK");
                let media = if is_ask { "text/boolean" } else { TSV };
                body_checksum(media, &client.body)
            });
        let in_process = parse(&t.text)
            .ok()
            .and_then(|q| rig.engine.prepare_query(&q).ok())
            .and_then(|p| {
                let mut sink = ChecksumWriter::new(!p.is_ask());
                let mut solutions = rig.engine.solutions(&p);
                write_solutions(&mut sink, Format::Tsv, &mut solutions, p.is_ask()).ok()?;
                Some(sink.finish())
            });
        if over_http.is_none() || over_http != in_process {
            checker.problem(format!(
                "{}: HTTP checksum {over_http:?} != in-process {in_process:?}",
                t.label
            ));
        }
    }
}

/// Closes the connections, drains the server and reports its counters
/// with the clients' reconnects.
fn hang_up(clients: Vec<Client>, server: ServerHandle) -> (StatsSnapshot, u64) {
    let reconnects = clients.iter().map(|c| c.reconnects).sum();
    drop(clients);
    let stats = server.shutdown();
    eprintln!("server: {stats}; {reconnects} reconnect(s)");
    (stats, reconnects)
}

pub fn run(args: RunArgs) -> Outcome {
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut m = Measured::default();
    let mut checker = Checker::default();

    // Each repetition's drop shuts its server down, outside the timing.
    let mut stage_reps = Vec::new();
    let (rig, setup_s) = repeat_setup(|| {
        let rig = build(args.seed, &mut tr);
        stage_reps.push(rig.stages.clone());
        rig
    });
    let templates = &rig.templates;
    let weights: Vec<f64> = templates.iter().map(|t| t.weight).collect();
    for t in templates {
        if t.expected.is_empty() {
            checker.problem(format!("{} failed in process", t.label));
        }
    }
    if rig.engine.store().len() as u64 != SCALE {
        checker.problem(format!("store holds {} triples", rig.engine.store().len()));
    }

    // Warm-up: the checksum agreement, then one untimed replay so both
    // connections, both workers and the allocator are warm.
    let warm = Instant::now();
    let mut clients = connect_clients(rig.handle.addr());
    check_checksums(&rig, &mut clients[0], &mut checker);
    let closed: Vec<(f64, usize)> = mix_sequence(&weights, args.seed, CLOSED_REQUESTS)
        .into_iter()
        .map(|t| (0.0, t))
        .collect();
    tr.set_enabled(false);
    let (_, samples, _) = drive(&mut clients, templates, &closed, false, &tr);
    check_samples(&samples, templates, &mut checker);
    tr.set_enabled(args.trace);
    let warmup_s = warm.elapsed().as_secs_f64();

    let budget = Duration::from_secs_f64(args.seconds);
    let mut latencies = TemplateLatencies(vec![Vec::new(); templates.len()]);
    if !args.trace {
        let cost = SectionCost::start();
        let walls = timed_passes(budget, |_| {
            let (_, samples, _) = drive(&mut clients, templates, &closed, false, &tr);
            check_samples(&samples, templates, &mut checker);
            latencies.push(&samples);
        });
        cost.finish(walls.len(), &mut m);
        EndToEnd {
            setup_reps_s: &setup_s,
            warmup_s,
            load_s: &stage_reps.iter().map(Stages::load_s).collect::<Vec<_>>(),
            kind_medians: &latencies.medians(),
        }
        .record(&mut m);
        hang_up(clients, rig.handle);
        return Outcome {
            measured: m,
            checker,
            tracer: tr,
        };
    }

    // Closed loop, untraced and traced passes alternating.
    let (mut untraced_s, mut traced_s, mut qps, mut bytes_per_s) = (vec![], vec![], vec![], vec![]);
    let pass_bytes: usize = closed
        .iter()
        .map(|&(_, t)| templates[t].expected.len())
        .sum();
    timed_passes(budget.mul_f64(0.3), |i| {
        let traced = i % 2 == 1;
        tr.set_enabled(traced);
        let (wall, samples, tracers) = drive(&mut clients, templates, &closed, false, &tr);
        check_samples(&samples, templates, &mut checker);
        latencies.push(&samples);
        tracers.into_iter().for_each(|t| tr.absorb(t));
        if traced {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(wall);
        qps.push(closed.len() as f64 / wall);
        bytes_per_s.push(pass_bytes as f64 / wall);
    });
    tr.set_enabled(true);
    m.set("server.closed_qps", summarize(&qps));
    m.set("server.bytes_per_s", summarize(&bytes_per_s));
    m.set_exact(
        "core.trace_overhead_pct",
        trace_overhead_pct(&untraced_s, &traced_s),
    );

    // Open loop: rounds at the reference rate, then one per ladder rung.
    let round_s = args.seconds * 0.55 / (OPEN_ROUNDS + RATE_LADDER.len()) as f64;
    let mut open_round = |rate: f64, round: usize, tr: &mut Tracer, checker: &mut Checker| {
        let schedule = poisson_schedule(
            &weights,
            args.seed.wrapping_add(round as u64),
            rate,
            round_s,
        );
        let (_, samples, tracers) = drive(&mut clients, templates, &schedule, true, tr);
        check_samples(&samples, templates, checker);
        tracers.into_iter().for_each(|t| tr.absorb(t));
        summarize_round(&samples)
    };
    let rounds: Vec<Round> = (0..OPEN_ROUNDS)
        .map(|i| open_round(RATE_REFERENCE, i, &mut tr, &mut checker))
        .collect();
    let over_rounds = |f: fn(&Round) -> f64| summarize(&rounds.iter().map(f).collect::<Vec<_>>());
    m.set("server.lat_p50_ms", over_rounds(|r| r.lat_p50));
    m.set("server.lat_p99_ms", over_rounds(|r| r.lat_p99));
    m.set("server.service_p50_ms", over_rounds(|r| r.service_p50));
    m.set("server.service_p99_ms", over_rounds(|r| r.service_p99));
    m.set("core.queue_delay_p99_ms", over_rounds(|r| r.queue_p99));
    m.set("core.gen_lateness_p99_ms", over_rounds(|r| r.lateness_p99));
    let mut sustained = if rounds.iter().all(Round::sustained) {
        RATE_REFERENCE
    } else {
        0.0
    };
    for (rate, name) in RATE_LADDER
        .into_iter()
        .zip(["server.lat_p99_400_ms", "server.lat_p99_1200_ms"])
    {
        let round = open_round(rate, OPEN_ROUNDS, &mut tr, &mut checker);
        m.set_exact(name, round.lat_p99);
        if round.sustained() {
            sustained = sustained.max(rate);
        }
    }
    m.set_exact("server.rate_ok_qps", sustained);

    // Floors and the in-process reference the overhead is taken against.
    let q12c = templates
        .iter()
        .find(|t| t.label == "request:Q12c")
        .expect("Q12c is in the mix");
    tr.set_enabled(false);
    let rtt: Vec<f64> = (0..300)
        .filter_map(|_| clients[0].fetch(q12c, &mut tr).ok())
        .map(|st| (st.done - st.start).as_secs_f64() * 1e3)
        .collect();
    tr.set_enabled(true);
    m.set("server.rtt_floor_ms", summarize(&rtt));
    let canned = request_bytes(rig.handle.addr(), JSON, &templates[0].text);
    let reads = 2000;
    let read = crate::harness::median_seconds(5, || {
        for _ in 0..reads {
            std::hint::black_box(sp2b_server::http::read_request(&mut &canned[..]).is_ok());
        }
    });
    m.set(
        "server.read_request_us",
        read.scaled(1e6 / f64::from(reads)),
    );

    let mut in_process = vec![Vec::new(); templates.len()];
    let mut layer_ns = [0u64; 3];
    let reference_reps = 5;
    for _ in 0..reference_reps {
        for (t, samples) in templates.iter().zip(&mut in_process) {
            let mark = tr.mark();
            tr.enter(&format!("inprocess:{}", t.label));
            let start = Instant::now();
            let body = serialize(&rig.engine, &t.text, Format::Json, &mut tr);
            samples.push(start.elapsed().as_secs_f64());
            tr.exit();
            if body.as_deref() != Some(&t.expected[..]) {
                checker.problem(format!("{} is not repeatable in process", t.label));
            }
            let totals = tr.totals_since(mark);
            for (ns, name) in
                layer_ns
                    .iter_mut()
                    .zip(["sparql.parse", "sparql.plan", "sparql.serialize"])
            {
                *ns += totals.get(name).copied().unwrap_or(0);
            }
        }
    }
    let per_rep = |ns: u64| ns as f64 / 1e9 / f64::from(reference_reps);
    m.set_exact("sparql.parse_s", per_rep(layer_ns[0]));
    m.set_exact("sparql.plan_s", per_rep(layer_ns[1]));
    m.set_exact("sparql.exec_s", per_rep(layer_ns[2]));
    let total_weight: f64 = weights.iter().sum();
    let overhead_s: f64 = latencies
        .medians()
        .iter()
        .zip(&in_process)
        .zip(&weights)
        .map(|((rtt, local), w)| (rtt.unwrap_or(0.0) - median(local)) * w / total_weight)
        .sum();
    m.set_exact("server.overhead_ms", overhead_s * 1e3);
    m.set_exact(
        "core.span_coverage",
        crate::trace::child_coverage(tr.spans(), "request:"),
    );

    layers::pipeline_metrics(&stage_reps, SCALE, rig.doc_bytes, &mut m);
    m.set_exact("store.terms", rig.terms as f64);
    layers::sparql_serialize(&rig.engine, &mut m);
    layers::core_measure_overhead(&mut m);
    layers::obs_record(&mut m);
    let (stats, reconnects) = hang_up(clients, rig.handle);
    m.set_exact("server.reconnects", reconnects as f64);
    m.set_exact("server.shed", stats.shed as f64);
    m.set_exact("server.aborted", stats.aborted as f64);
    m.set_exact("core.fail_ratio", checker.fail_ratio());
    Outcome {
        measured: m,
        checker,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> Vec<f64> {
        WeightedMix::parse(MIX).unwrap().weights
    }

    #[test]
    fn equal_seeds_replay_the_same_mix_and_schedule() {
        let w = weights();
        assert_eq!(mix_sequence(&w, 7, 500), mix_sequence(&w, 7, 500));
        assert_ne!(mix_sequence(&w, 7, 500), mix_sequence(&w, 8, 500));
        let a = poisson_schedule(&w, 7, 800.0, 2.0);
        assert_eq!(a, poisson_schedule(&w, 7, 800.0, 2.0));
        assert_ne!(a, poisson_schedule(&w, 8, 800.0, 2.0));
        // ~1600 arrivals, strictly increasing, all inside the round.
        assert!((1400..1800).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|p| p[0].0 < p[1].0));
        assert!(a.last().unwrap().0 < 2.0);
    }

    #[test]
    fn the_mix_follows_its_weights() {
        let w = weights();
        assert_eq!(w.len(), 9);
        let seq = mix_sequence(&w, 1, 20_000);
        let share = |slot: usize| seq.iter().filter(|&&s| s == slot).count() as f64 / 20_000.0;
        assert!((share(0) - 0.20).abs() < 0.02, "q1 {}", share(0));
        assert!((share(8) - 0.04).abs() < 0.01, "q3a {}", share(8));
    }

    #[test]
    fn a_round_is_sustained_only_within_every_limit() {
        let ok = Round {
            lat_p50: 1.0,
            lat_p99: 19.0,
            service_p50: 1.0,
            service_p99: 10.0,
            queue_p99: 2.0,
            lateness_p99: 0.2,
            failed: 0,
            backlog: 0.5,
        };
        assert!(ok.sustained());
        assert!(!Round {
            lat_p99: 21.0,
            ..ok
        }
        .sustained());
        assert!(!Round { failed: 1, ..ok }.sustained());
        assert!(!Round { backlog: 6.0, ..ok }.sustained());
    }
}
