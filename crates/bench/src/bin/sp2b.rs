//! `sp2b` — the SP²Bench command-line harness.
//!
//! One subcommand per paper experiment (DESIGN.md §6), plus the server:
//!
//! ```text
//! sp2b gen      --triples 50k [--seed N] --out doc.nt     generate a document
//! sp2b save     --out DIR [--triples 50k|--data F]        write checksummed on-disk
//!               [--seed N] [--shards N] [--shard-by …]    segments for --store disk:DIR
//! sp2b table3   [--max-exp 7]                             generator scaling
//! sp2b table8   [--sizes 10k,50k,250k,1M]                 document characteristics
//! sp2b table5   [--sizes …] [--timeout 60]                query result sizes
//! sp2b bench    [--sizes …] [--timeout 30] [--runs 3]     full protocol →
//!               [--engines mem-naive,…] [--queries q1,…]  tables IV/V/VI/VII + figures
//! sp2b fig2a    [--triples 250k]                          citation distribution
//! sp2b fig2b    [--year 1980]                             class instances per year
//! sp2b fig2c    [--year 1985] [--years 1955,1965,…]       publications power law
//! sp2b ablation [--triples 50k] [--timeout 30]            optimizer/index ablation
//! sp2b scaling  [--triples 50k] [--threads 1,2,4,8]       thread-scaling speedups
//! sp2b calibrate [--triples 20k] [--threads 2] [--runs 3] measure per-morsel overhead →
//!                                                         suggested parallel_threshold base
//! sp2b smoke    [--triples 5k] [--threads 4] [--shards N] generate → load → all queries
//!               [--store disk:DIR [--cache-bytes 64k]]    …or against saved segments with
//!                                                         a pinned block-cache budget
//! sp2b serve    [--addr 127.0.0.1:8088] [--threads 4]     SPARQL protocol endpoint over
//!               [--timeout 30] [--triples 50k|--data F]   one shared store (HTTP/1.1)
//!               [--duration S] [--parallelism N]          …plus GET /metrics (Prometheus)
//!               [--queue 1024] [--shards N]               503-shedding accept bound, sharding
//!               [--slow-ms N]                             log queries slower than N ms
//! sp2b multiuser --clients 8 [--threads 2] [--duration 30] N concurrent clients, mixed
//!               [--triples 50k] [--queries q1,a1,…]       workload → latency/throughput
//!               [--mix q1:80,q8:20 | --zipf S] [--seed N] weighted/Zipfian template mix,
//!               [--arrival closed|constant:R/s|           deterministic replay; open-loop
//!                poisson:R/s|burst:R,P,D]                 arrivals with intended-send-time
//!               [--warmup SECS] [--report json:FILE]      (CO-safe) latency, warmup cutoff,
//!               [--shards N] [--checksums]                machine-readable report dump,
//!               [--endpoint http://host:port/sparql]      …over real sockets instead
//! sp2b query    Q4 [--triples 50k] [--engine native-opt]  run one query, print rows
//!               [--format table|json|csv|tsv] [--explain] …and the join order with
//!               [--trace]                                 estimated vs actual rows, or the
//!                                                         full per-operator time breakdown
//! ```
//!
//! `run`, `query`, `smoke` and the experiments accept `--threads N` to
//! pin the degree of morsel-driven parallelism (default: all cores;
//! `--threads 1` is strictly single-threaded evaluation), and `run`,
//! `query`, `serve`, `multiuser` and `smoke` accept
//! `--shards N [--shard-by subject|pso]` to load the document into a
//! hash-partitioned sharded store (parallel per-shard index build,
//! shard-parallel scans). `run`, `query`, `serve`, `multiuser` and
//! `smoke` also accept `--store disk:DIR` to reopen a segment directory
//! written by `sp2b save` instead of loading or generating a document —
//! open is O(header + dictionary + block index); scans pull fixed-size
//! blocks of the sorted runs through a shared LRU cache whose byte
//! budget `--cache-bytes BYTES` pins (default: a quarter of the run
//! payload), so a document larger than RAM serves at bounded resident
//! memory. `run` and `query` accept `--explain` to print the chosen BGP
//! join order with each pattern's estimated cardinality next to the
//! rows it actually emitted (and whether store statistics or the
//! fixed-discount heuristic ordered it), and `--trace` for the fuller
//! per-query breakdown: phase timings (prepare/execute) plus each
//! operator's estimate, actual rows *and wall time*. `serve` exposes
//! `GET /metrics` (Prometheus text) and `GET /stats` (JSON) from the
//! process metrics registry, and `--slow-ms N` logs one `slow-query:`
//! line to stderr for every query at or over N milliseconds.
//! `--timeout`, `--addr` and `--store` are strictly validated:
//! malformed values are hard usage errors, never silent fallbacks.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use sp2b_bench::experiments::{self, DEFAULT_SIZES};
use sp2b_bench::Args;
use sp2b_core::multiuser::{MultiuserConfig, StopCondition};
use sp2b_core::report;
use sp2b_core::runner::{
    run_benchmark, run_mixed_workload, run_workload_on, MixedWorkloadConfig, RunnerConfig,
    WorkloadTarget,
};
use sp2b_core::{measure, BenchQuery, Endpoint, Engine, EngineKind, StoreLayout};
use sp2b_datagen::{generate_graph, generate_to_path, Config};
use sp2b_rdf::Graph;
use sp2b_server::ServerConfig;
use sp2b_sparql::results::{self, Format, WriteError};
use sp2b_sparql::{Error as SparqlError, Prepared, QueryEngine, ScanCounters};
use sp2b_store::{ShardBy, TripleStore};

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let Some(command) = args.positional.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command {
        "gen" => cmd_gen(&args),
        "save" => cmd_save(&args),
        "table3" => {
            println!("{}", experiments::table3(args.get_u64("max-exp", 7) as u32));
            Ok(())
        }
        "table8" => {
            println!("{}", experiments::table8(&sizes(&args)));
            Ok(())
        }
        "table5" => cmd_table5(&args),
        "bench" => cmd_bench(&args),
        "fig2a" => {
            println!("{}", experiments::fig2a(args.get_u64("triples", 250_000)));
            Ok(())
        }
        "fig2b" => {
            println!("{}", experiments::fig2b(args.get_u64("year", 1980) as i32));
            Ok(())
        }
        "fig2c" => cmd_fig2c(&args),
        "ablation" => cmd_ablation(&args),
        "scaling" => cmd_scaling(&args),
        "calibrate" => cmd_calibrate(&args),
        "smoke" => cmd_smoke(&args),
        "serve" => cmd_serve(&args),
        "multiuser" => cmd_multiuser(&args),
        "query" => cmd_query(&args),
        "ext" => cmd_ext(&args),
        "run" => cmd_run(&args),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sp2b: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: sp2b <gen|save|table3|table5|table8|bench|fig2a|fig2b|fig2c|ablation|scaling|calibrate|smoke|serve|multiuser|query|ext|run> [options]
run `sp2b bench` for the full paper protocol, `sp2b serve --addr 127.0.0.1:8088` for the SPARQL
endpoint, `sp2b multiuser --clients N [--arrival poisson:R/s] [--mix q1:80,q8:20] [--endpoint http://…]`
for the concurrent-client workload (closed or open loop),
`sp2b save --out DIR` to persist a document as checksummed segments reopened via --store disk:DIR;
see crate docs for options";

fn sizes(args: &Args) -> Vec<u64> {
    match args.get_list("sizes") {
        Some(list) => list
            .iter()
            .filter_map(|s| sp2b_bench::args::parse_scaled(s))
            .collect(),
        None => DEFAULT_SIZES.to_vec(),
    }
}

/// The `--timeout` flag in seconds: absent → `default_secs`; malformed
/// or zero → hard usage error (the `Args::get_positive` contract shared
/// with `--clients`/`--threads` — a benchmark must never silently run
/// under a timeout the operator did not ask for).
fn timeout(args: &Args, default_secs: u64) -> Result<Duration, String> {
    Ok(Duration::from_secs(
        args.get_positive("timeout", default_secs as usize)? as u64,
    ))
}

/// The `--threads` flag: `Ok(None)` keeps the engine default (all
/// cores); a malformed or zero value is a hard error with a usage
/// message, never a silent fallback (see `Args::get_positive_opt`).
fn threads(args: &Args) -> Result<Option<usize>, String> {
    args.get_positive_opt("threads")
}

/// The `--shards N [--shard-by subject|pso]` flags: `--shards 1` (the
/// default) keeps the classic monolithic store; `--shards N` loads into
/// a hash-partitioned sharded store (parallel per-shard index build,
/// shard-parallel scans, routed point lookups). Malformed values are
/// hard usage errors.
fn store_layout(args: &Args) -> Result<StoreLayout, String> {
    // Every command that builds a store in memory comes through here;
    // the block cache only exists behind `--store disk:DIR`, so a
    // `--cache-bytes` that would silently do nothing is a hard error.
    if args.has("cache-bytes") {
        return Err(
            "--cache-bytes only applies with --store disk:DIR (the block cache serves \
             saved segments; in-memory stores are fully resident)"
                .into(),
        );
    }
    let shards = args.get_positive("shards", 1)?;
    let shard_by = match args.get("shard-by") {
        None => ShardBy::Subject,
        Some(label) => ShardBy::from_label(label).ok_or_else(|| {
            format!("unknown --shard-by '{label}'\nusage: --shard-by subject|pso")
        })?,
    };
    Ok(StoreLayout { shards, shard_by })
}

/// Loads the document into the engine under the requested layout and
/// reports the load (plus per-shard facts when sharded) on stderr.
fn load_engine(kind: EngineKind, graph: &Graph, layout: &StoreLayout) -> Engine {
    let engine = Engine::load_with(kind, graph, layout);
    eprintln!(
        "loaded {} triples into {kind} ({})",
        graph.len(),
        engine.loading.summary()
    );
    if let Some(info) = engine.shards() {
        eprintln!("{}", info.summary());
    }
    if let Some(stats) = engine.stats_summary() {
        eprintln!("{stats}");
    }
    engine
}

/// The `--format` flag: `None` is the human table preview; `json`,
/// `csv` and `tsv` stream the full result through the same serializers
/// the HTTP endpoint uses.
fn output_format(args: &Args) -> Result<Option<Format>, String> {
    match args.get("format") {
        None | Some("table") => Ok(None),
        Some(s) => Format::from_media_type(s)
            .map(Some)
            .ok_or_else(|| format!("unknown --format '{s}'\nusage: --format table|json|csv|tsv")),
    }
}

/// The document for `run`/`serve`: parsed from `--data FILE` or
/// generated from `--triples N`.
fn document(args: &Args, default_triples: u64) -> Result<Graph, String> {
    match args.get("data") {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let reader = std::io::BufReader::with_capacity(1 << 16, file);
            let triples: Result<Vec<_>, _> = sp2b_rdf::ntriples::Parser::new(reader).collect();
            Ok(triples.map_err(|e| e.to_string())?.into_iter().collect())
        }
        None => Ok(generate_graph(Config::triples(args.get_u64("triples", default_triples))).0),
    }
}

fn engine_kind(args: &Args) -> Result<EngineKind, String> {
    match args.get("engine") {
        Some(l) => EngineKind::from_label(l).ok_or_else(|| format!("unknown engine '{l}'")),
        None => Ok(EngineKind::NativeOpt),
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let n = args.get_u64("triples", 10_000);
    let seed = args.get_u64("seed", sp2b_datagen::Rng::DEFAULT_SEED);
    let out = args.get("out").unwrap_or("sp2bench.nt");
    let cfg = Config::triples(n).with_seed(seed);
    let stats = generate_to_path(cfg, std::path::Path::new(out)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} triples ({} bytes) up to year {} to {out}",
        stats.triples,
        stats.bytes.unwrap_or(0),
        stats.end_year
    );
    Ok(())
}

/// `sp2b save --out DIR`: writes the document (generated from
/// `--triples`/`--seed` or parsed from `--data FILE`) as a directory of
/// immutable checksummed segments — shared dictionary plus per-shard
/// sorted SPO/PSO/OSP runs — that `--store disk:DIR` reopens in
/// O(header + dictionary) with no reparse and no index rebuild.
/// `--shards N [--shard-by subject|pso]` fix the persisted
/// partitioning. `--out` is strictly validated: a path whose parent
/// does not exist, or that names a non-directory, is a one-line error.
fn cmd_save(args: &Args) -> Result<(), String> {
    let out = args
        .get("out")
        .filter(|s| !s.is_empty())
        .ok_or("provide --out DIR  (the segment directory to write)")?;
    let dir = std::path::Path::new(out);
    if dir.exists() && !dir.is_dir() {
        return Err(format!("--out '{out}' exists and is not a directory"));
    }
    if !dir.exists() {
        // Create one level, like `sp2b gen` writing a file: the parent
        // must already exist (a typo'd deep path should not silently
        // mkdir -p its way into being).
        match dir.parent() {
            Some(p) if p.as_os_str().is_empty() || p.is_dir() => {
                std::fs::create_dir(dir).map_err(|e| format!("cannot create --out '{out}': {e}"))?
            }
            _ => {
                return Err(format!(
                    "cannot create --out '{out}': its parent directory does not exist"
                ))
            }
        }
    }
    let layout = store_layout(args)?;
    let (saved, m) = match args.get("data") {
        Some(path) => measure(|| {
            sp2b_store::save_segments_from_path(
                std::path::Path::new(path),
                dir,
                layout.shards,
                layout.shard_by,
            )
            .map_err(|e| e.to_string())
        }),
        None => {
            let n = args.get_u64("triples", 50_000);
            let seed = args.get_u64("seed", sp2b_datagen::Rng::DEFAULT_SEED);
            let (graph, _) = generate_graph(Config::triples(n).with_seed(seed));
            measure(|| {
                sp2b_store::save_graph(dir, &graph, layout.shards, layout.shard_by)
                    .map_err(|e| e.to_string())
            })
        }
    };
    let stats = saved?;
    eprintln!(
        "saved {} triples ({} terms, {} shard(s) by {}, {} bytes) to {out} in {}",
        stats.triples,
        stats.terms,
        stats.shard_lens.len(),
        layout.shard_by,
        stats.bytes,
        m.summary()
    );
    Ok(())
}

/// Opens a saved segment directory (`--store disk:DIR`) as the engine.
/// The segments fix the document and its sharding, so flags that would
/// silently not apply — and non-native engines, which the sorted runs
/// cannot back — are hard errors, not quiet no-ops.
fn open_disk_engine(args: &Args, dir: &std::path::Path) -> Result<Engine, String> {
    open_disk_engine_rejecting(
        args,
        dir,
        &["data", "triples", "seed", "shards", "shard-by"],
    )
}

/// [`open_disk_engine`] with the rejected-flag list explicit: `sp2b
/// multiuser` drops `"seed"` from it because there `--seed` is the
/// workload sampler/arrival seed, not the generator seed the segments
/// already fixed.
fn open_disk_engine_rejecting(
    args: &Args,
    dir: &std::path::Path,
    fixed_flags: &[&str],
) -> Result<Engine, String> {
    for &flag in fixed_flags {
        if args.has(flag) {
            return Err(format!(
                "--{flag} does not apply with --store disk: the saved segments fix the \
                 document and sharding; re-run `sp2b save` to change them"
            ));
        }
    }
    let kind = engine_kind(args)?;
    if !kind.is_native() {
        return Err(format!(
            "engine '{}' does not apply with --store disk: segments open as native \
             sorted indexes; use native-base or native-opt",
            kind.label()
        ));
    }
    let cache_bytes = args.get_bytes_opt("cache-bytes")?;
    let engine = Engine::open_disk_with(kind, dir, cache_bytes)
        .map_err(|e| format!("opening {out}: {e}", out = dir.display()))?;
    eprintln!(
        "opened {} triples from {} into {kind} ({})",
        engine.store().len(),
        dir.display(),
        engine.loading.summary()
    );
    if let Some(info) = engine.shards() {
        eprintln!("{}", info.summary());
    }
    if let Some(stats) = engine.stats_summary() {
        eprintln!("{stats}");
    }
    Ok(engine)
}

fn cmd_table5(args: &Args) -> Result<(), String> {
    println!("{}", experiments::table5(&sizes(args), timeout(args, 60)?));
    Ok(())
}

fn cmd_ablation(args: &Args) -> Result<(), String> {
    println!(
        "{}",
        experiments::ablation(args.get_u64("triples", 50_000), timeout(args, 30)?)
    );
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let mut cfg = RunnerConfig::paper_defaults();
    cfg.scales = sizes(args);
    cfg.timeout = timeout(args, 30)?;
    cfg.runs = args.get_u64("runs", 3) as usize;
    if let Some(labels) = args.get_list("engines") {
        cfg.engines = experiments::parse_engines(&labels)?;
    }
    if let Some(labels) = args.get_list("queries") {
        cfg.queries = experiments::parse_queries(&labels)?;
    }
    let quiet = args.has("quiet");
    let report = run_benchmark(&cfg, |line| {
        if !quiet {
            eprintln!("{line}");
        }
    });
    println!("{}", report::full_report(&report));
    Ok(())
}

fn cmd_fig2c(args: &Args) -> Result<(), String> {
    let year = args.get_u64("year", 1985) as i32;
    let years: Vec<i32> = match args.get_list("years") {
        Some(list) => list.iter().filter_map(|s| s.parse().ok()).collect(),
        None => vec![1955, 1965, 1975, 1985],
    };
    println!("{}", experiments::fig2c(year, &years));
    Ok(())
}

/// Streams a prepared query through `engine`, printing up to `limit`
/// rows (indented by `indent`) while the remainder is only counted —
/// the shared table-preview writer in `sp2b_sparql::results`. Returns
/// `(total, shown)`.
fn stream_rows(
    engine: &QueryEngine,
    prepared: &Prepared,
    limit: usize,
    indent: &str,
) -> Result<(u64, usize), WriteError> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut solutions = engine.solutions(prepared);
    results::write_table_preview(&mut out, &mut solutions, limit, indent)
}

/// Streams the full result set to stdout in a wire format — the exact
/// serializers the HTTP endpoint uses. Prints the row count to stderr.
fn serialize_to_stdout(
    engine: &QueryEngine,
    prepared: &Prepared,
    format: Format,
) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut solutions = engine.solutions(prepared);
    let rows = results::write_solutions(&mut out, format, &mut solutions, prepared.is_ask())
        .map_err(describe)?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!("{rows} row(s) as {}", format.label());
    Ok(())
}

/// Thread-scaling experiment: speedup per query as `--threads` grows.
fn cmd_scaling(args: &Args) -> Result<(), String> {
    let n = args.get_u64("triples", 50_000);
    let thread_counts: Vec<usize> = match args.get_list("threads") {
        Some(list) => list
            .iter()
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("invalid --threads value '{s}' (expected a number)"))
            })
            .collect::<Result<_, String>>()?,
        None => vec![1, 2, 4, 8],
    };
    if thread_counts.is_empty() {
        return Err("provide at least one thread count, e.g. --threads 1,2,4".into());
    }
    let queries = match args.get_list("queries") {
        Some(labels) => experiments::parse_queries(&labels)?,
        None => BenchQuery::ALL.to_vec(),
    };
    println!(
        "{}",
        experiments::thread_scaling(n, &thread_counts, timeout(args, 60)?, &queries)
    );
    Ok(())
}

/// Measured threshold calibration: times per-morsel fan-out overhead on
/// generated data and prints a suggested `plan::parallel_threshold`
/// base, verified by re-running with the suggestion fed through
/// `QueryOptions::parallel_base`.
fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let triples = args.get_u64("triples", 20_000);
    let degree = args.get_positive("threads", 2)?;
    let runs = args.get_positive("runs", 3)?;
    println!("{}", experiments::calibrate(triples, degree, runs)?);
    Ok(())
}

/// Tiny end-to-end smoke: generate → load → execute (count) every
/// benchmark and extension query at the requested thread count. Exits
/// nonzero on any parse error, evaluation error or timeout — the CI job
/// runs this at `--threads 1` and `--threads 4` so both the sequential
/// and the morsel-parallel paths are exercised on every push.
fn cmd_smoke(args: &Args) -> Result<(), String> {
    let t = threads(args)?;
    let engine = match args.get_store_dir()? {
        Some(dir) => open_disk_engine(args, &dir)?,
        None => {
            let n = args.get_u64("triples", 5_000);
            let layout = store_layout(args)?;
            let (graph, _) = generate_graph(Config::triples(n));
            load_engine(EngineKind::NativeOpt, &graph, &layout)
        }
    };
    let qe = engine.query_engine_with(Some(timeout(args, 120)?), t);
    let mut texts: Vec<(&'static str, &'static str)> = BenchQuery::ALL
        .iter()
        .map(|q| (q.label(), q.text()))
        .collect();
    texts.extend(
        sp2b_core::ExtQuery::ALL
            .iter()
            .map(|q| (q.label(), q.text())),
    );
    println!(
        "smoke: {} triples, threads = {}, shards = {}",
        engine.store().len(),
        t.map_or("default".to_owned(), |t| t.to_string()),
        engine.shards().map_or(1, |i| i.count())
    );
    for (label, text) in texts {
        let prepared = qe.prepare(text).map_err(|e| format!("{label}: {e}"))?;
        let (counted, m) = measure(|| qe.count(&prepared));
        let count = counted.map_err(|e| format!("{label}: {e}"))?;
        println!("  {label:<5} {count:>10} solutions ({})", m.summary());
    }
    // After the workload, not at open: a cold cache reports nothing but
    // zeros. The CI out-of-core job greps this line for evictions.
    if let Some(line) = engine.cache_summary() {
        println!("  {line}");
    }
    Ok(())
}

/// The SPARQL Protocol endpoint: loads (or generates) one document and
/// serves it over HTTP from a fixed worker pool sharing the store.
/// `--threads` sizes the HTTP worker pool, `--parallelism` pins the
/// per-query morsel parallelism (default 1 — concurrency comes from the
/// clients), `--timeout` bounds every request, and `--duration` runs
/// the server that long before shutting down gracefully (omit it to
/// serve until the process is killed). `--addr`/`--timeout` are
/// strictly validated; malformed values are hard usage errors.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get_addr("addr", "127.0.0.1:8088")?;
    let workers = args.get_positive("threads", 4)?;
    let per_query_timeout = timeout(args, 30)?;
    let parallelism = args.get_positive_opt("parallelism")?.unwrap_or(1);
    let duration = args.get_positive_opt("duration")?;
    let max_queue = args.get_positive("queue", 1024)?;
    let slow_ms = args.get_positive_opt("slow-ms")?;
    let engine = match args.get_store_dir()? {
        Some(dir) => open_disk_engine(args, &dir)?,
        None => {
            let kind = engine_kind(args)?;
            let layout = store_layout(args)?;
            let graph = document(args, 50_000)?;
            load_engine(kind, &graph, &layout)
        }
    };
    let qe = engine.query_engine_with(None, Some(parallelism));
    let cfg = ServerConfig {
        addr,
        workers,
        timeout: Some(per_query_timeout),
        max_queue,
        slow_log: slow_ms.map(|ms| sp2b_server::SlowLog::stderr(Duration::from_millis(ms as u64))),
    };
    let handle = sp2b_server::spawn(qe, &cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!(
        "serving SPARQL on {} ({} worker(s), per-query parallelism {}, timeout {}s)",
        handle.endpoint_url(),
        workers,
        parallelism,
        per_query_timeout.as_secs()
    );
    eprintln!("telemetry: GET /metrics (Prometheus text), GET /stats (JSON)");
    if let Some(ms) = slow_ms {
        eprintln!("slow-query log: queries at or over {ms} ms go to stderr");
    }
    match duration {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs as u64)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let stats = handle.shutdown();
    eprintln!("server shut down cleanly: {stats}");
    Ok(())
}

/// Applies the shared workload-model flags (`--arrival`, `--mix` /
/// `--zipf`, `--warmup`, `--seed`) onto a [`MultiuserConfig`]. The
/// `--queries` rotation (if any) was applied by the caller; the
/// weighted mix replaces it outright and `workload_flags` already
/// rejected the contradictory combination.
fn apply_workload_flags(cfg: &mut MultiuserConfig, wl: &experiments::WorkloadFlags) {
    cfg.arrival = wl.arrival;
    cfg.warmup = wl.warmup;
    if let Some(seed) = wl.seed {
        cfg.seed = seed;
    }
    if let Some((items, weights)) = &wl.mix {
        cfg.mix = items.clone();
        cfg.weights = weights.clone();
    }
}

/// The multi-user mixed workload (paper Section VII's "multi-user
/// scenario"): N client threads issue a mix of Q1–Q12/A1–A5, reporting
/// latency percentiles per template and per client plus aggregate
/// queries/sec. `--arrival` says where a request's intended send time
/// comes from: the default `closed` is the classic closed loop (each
/// client issues the next query when the previous answer returns,
/// rotation offset per client); `constant:R/s|poisson:R/s|burst:…` is
/// the open-loop model — a schedule thread stamps intended send times,
/// latency is measured from those stamps (coordinated-omission-safe),
/// and the report splits queue-delay from service time. `--mix
/// q1:80,q8:20` / `--zipf S` weight the template mix, `--warmup SECS`
/// excludes the cold start, `--seed N` replays the exact
/// sample/arrival sequence and `--report json:FILE` dumps the report.
/// Without `--endpoint` the clients share one in-process store
/// (generated, or reopened with `--store disk:DIR`); with `--endpoint
/// http://…` they drive a live `sp2b serve` instance over real sockets.
/// One driver, one report either way. All flags are strictly validated:
/// malformed or contradictory values are hard errors.
fn cmd_multiuser(args: &Args) -> Result<(), String> {
    let clients = args.get_positive("clients", 4)?;
    let stop = match args.get_positive_opt("rounds")? {
        Some(rounds) => StopCondition::Rounds(rounds as u32),
        None => StopCondition::Duration(Duration::from_secs(
            args.get_positive("duration", 30)? as u64
        )),
    };
    let quiet = args.has("quiet");
    let wl = experiments::workload_flags(args)?;
    let mut progress = |line: &str| {
        if !quiet {
            eprintln!("{line}");
        }
    };
    let mut cfg = MultiuserConfig::new(clients, stop);
    cfg.timeout = timeout(args, 30)?;
    if let Some(labels) = args.get_list("queries") {
        cfg.mix = experiments::parse_mix(&labels)?;
    }
    apply_workload_flags(&mut cfg, &wl);

    let report = if let Some(url) = args.get("endpoint") {
        // Endpoint mode: the server owns the store, its parallelism and
        // its engine — flags that silently would not apply are errors.
        for flag in [
            "triples",
            "engine",
            "threads",
            "shards",
            "shard-by",
            "store",
            "cache-bytes",
        ] {
            if args.has(flag) {
                return Err(format!(
                    "--{flag} does not apply with --endpoint (the server owns the store); \
                     configure it on `sp2b serve` instead"
                ));
            }
        }
        let endpoint = Endpoint::parse(url)?;
        run_workload_on(WorkloadTarget::Endpoint(&endpoint), &cfg, &mut progress)
    } else {
        cfg.parallelism = args.get_positive("threads", 1)?;
        cfg.checksums = args.has("checksums");
        match args.get_store_dir()? {
            // Disk mode: the saved segments fix the document and
            // sharding (`--seed` stays: here it seeds the workload, not
            // the generator).
            Some(dir) => {
                let engine = open_disk_engine_rejecting(
                    args,
                    &dir,
                    &["data", "triples", "shards", "shard-by"],
                )?;
                run_workload_on(WorkloadTarget::Engine(&engine), &cfg, &mut progress)
            }
            None => {
                let mut mixed =
                    MixedWorkloadConfig::new(args.get_u64("triples", 50_000), clients, stop);
                mixed.engine = engine_kind(args)?;
                mixed.layout = store_layout(args)?;
                mixed.multiuser = cfg;
                run_mixed_workload(&mixed, &mut progress)
            }
        }
    };
    println!("{}", report::mixed_workload_report(&report));
    if let Some(path) = &wl.report_path {
        std::fs::write(path, report::workload_json(&report.workload))
            .map_err(|e| format!("cannot write --report {}: {e}", path.display()))?;
        progress(&format!("wrote workload report to {}", path.display()));
    }
    Ok(())
}

/// Runs the A1–A5 aggregate extension queries (Section VII's
/// "aggregation support" future work) and prints their result heads.
fn cmd_ext(args: &Args) -> Result<(), String> {
    let n = args.get_u64("triples", 50_000);
    let limit = args.get_u64("limit", 10) as usize;
    let (graph, _) = generate_graph(Config::triples(n));
    let engine = Engine::load(EngineKind::NativeOpt, &graph);
    let qe = engine.query_engine_with(Some(timeout(args, 300)?), threads(args)?);
    for q in sp2b_core::ExtQuery::ALL {
        let prepared = qe.prepare(q.text()).map_err(|e| format!("{q}: {e}"))?;
        println!("\n{q}:");
        let (streamed, m) = measure(|| stream_rows(&qe, &prepared, limit, "  "));
        match streamed {
            Ok((total, shown)) => {
                println!("  {total} groups ({})", m.summary());
                if total > shown as u64 {
                    println!("  … ({} more groups)", total - shown as u64);
                }
            }
            Err(WriteError::Query(SparqlError::Cancelled)) => println!("{q}: timeout"),
            Err(e) => return Err(format!("{q}: {e}")),
        }
    }
    Ok(())
}

/// Runs arbitrary SPARQL (from `--query-file` or inline after `run`)
/// against an N-Triples document (`--data FILE`) or freshly generated
/// data (`--triples N`).
fn cmd_run(args: &Args) -> Result<(), String> {
    let text = match (args.get("query-file"), args.positional.get(1)) {
        (Some(path), _) => std::fs::read_to_string(path).map_err(|e| e.to_string())?,
        (None, Some(inline)) => inline.clone(),
        (None, None) => {
            return Err("provide a query: `sp2b run 'SELECT …'` or --query-file q.rq".into())
        }
    };
    let engine = match args.get_store_dir()? {
        Some(dir) => open_disk_engine(args, &dir)?,
        None => {
            let kind = engine_kind(args)?;
            let layout = store_layout(args)?;
            let graph = document(args, 50_000)?;
            load_engine(kind, &graph, &layout)
        }
    };
    let limit = args.get_u64("limit", 50) as usize;
    let explain = args.has("explain");
    let trace = args.has("trace");
    let counters = std::sync::Arc::new(ScanCounters::default());
    let mut qe = engine.query_engine_with(Some(timeout(args, 300)?), threads(args)?);
    if explain || trace {
        qe = qe.scan_counters(counters.clone());
    }
    let prep_started = std::time::Instant::now();
    let prepared = qe.prepare(&text).map_err(|e| e.to_string())?;
    let prepare_time = prep_started.elapsed();
    if let Some(format) = output_format(args)? {
        return serialize_to_stdout(&qe, &prepared, format);
    }
    if prepared.is_ask() {
        let (result, m) = measure(|| qe.execute(&prepared));
        let r = result.map_err(|e| format!("{e} ({})", m.summary()))?;
        println!(
            "{}",
            if r.as_bool() == Some(true) {
                "yes"
            } else {
                "no"
            }
        );
        if explain {
            println!("{}", explain_report(&prepared, qe.store(), &counters));
        }
        if trace {
            println!(
                "{}",
                trace_report(&prepared, &qe, &counters, prepare_time, m.tme)
            );
        }
        return Ok(());
    }
    // Stream: the first `limit` rows decode and print; the rest are only
    // counted (no materialization, memory stays flat).
    let (streamed, m) = measure(|| stream_rows(&qe, &prepared, limit, ""));
    let (total, shown) = streamed.map_err(|e| format!("{} ({})", describe(e), m.summary()))?;
    eprintln!("{total} solutions in {}", m.summary());
    if total > shown as u64 {
        eprintln!("… ({} more rows; raise --limit)", total - shown as u64);
    }
    if explain {
        println!("{}", explain_report(&prepared, qe.store(), &counters));
    }
    if trace {
        println!(
            "{}",
            trace_report(&prepared, &qe, &counters, prepare_time, m.tme)
        );
    }
    Ok(())
}

/// `--explain`: renders the prepared plan's BGP join order with, per
/// pattern, the store's estimated cardinality next to the rows the step
/// actually emitted during execution (read back from the attached
/// [`ScanCounters`]). The first line states which statistics the planner
/// ordered with.
fn explain_report(prepared: &Prepared, store: &dyn TripleStore, counters: &ScanCounters) -> String {
    use sp2b_sparql::plan::{Plan, PlanPattern, PlanSlot};
    fn collect<'p>(plan: &'p Plan, out: &mut Vec<&'p PlanPattern>) {
        match plan {
            Plan::Bgp { patterns, .. } => out.extend(patterns.iter()),
            Plan::Join { left, right, .. } | Plan::LeftJoin { left, right, .. } => {
                collect(left, out);
                collect(right, out);
            }
            Plan::Union(a, b) => {
                collect(a, out);
                collect(b, out);
            }
            Plan::Filter(_, inner)
            | Plan::Distinct(inner)
            | Plan::Project(_, inner)
            | Plan::OrderBy(_, inner) => collect(inner, out),
            Plan::Slice { input, .. }
            | Plan::GroupAggregate { input, .. }
            | Plan::Exchange { input, .. } => collect(input, out),
        }
    }
    let dict = store.dictionary();
    let slot = |s: &PlanSlot| match s {
        PlanSlot::Var(v) => format!("?{v}"),
        PlanSlot::Const(Some(id)) => dict.decode(*id).to_string(),
        PlanSlot::Const(None) => "<absent-from-data>".to_owned(),
    };
    let mut patterns = Vec::new();
    collect(prepared.plan(), &mut patterns);
    let mut out = String::from("join order (estimated cardinality vs actual rows emitted):\n");
    match store.stats() {
        Some(stats) => out.push_str(&format!(
            "  statistics: {} predicates, {} characteristic sets over {} triples\n",
            stats.predicates.len(),
            stats.characteristic_sets.len(),
            stats.triples
        )),
        None => out.push_str("  statistics: none (fixed-discount heuristic order)\n"),
    }
    let mut est_total: u64 = 0;
    let mut actual_total: u64 = 0;
    for (i, p) in patterns.iter().enumerate() {
        let mut store_pattern: sp2b_store::Pattern = [None, None, None];
        for (pos, s) in p.slots.iter().enumerate() {
            if let PlanSlot::Const(Some(id)) = s {
                store_pattern[pos] = Some(*id);
            }
        }
        let est = if p.is_unsatisfiable() {
            0
        } else {
            store.estimate(store_pattern)
        };
        let actual = counters.rows_for(&p.slots);
        est_total = est_total.saturating_add(est);
        actual_total = actual_total.saturating_add(actual);
        out.push_str(&format!(
            "  {:>2}. {} {} {}  est {est}, rows {actual}\n",
            i + 1,
            slot(&p.slots[0]),
            slot(&p.slots[1]),
            slot(&p.slots[2]),
        ));
    }
    out.push_str(&format!(
        "  total: estimated {est_total}, emitted {actual_total} rows"
    ));
    if let Some(cache) = store.cache_stats() {
        out.push_str(&format!("\n  cache: {}", cache.summary()));
    }
    out
}

/// `--trace`: the fuller per-query breakdown — phase timings
/// (prepare/execute) plus, per operator, the planner's estimate against
/// the rows it actually emitted *and the wall time it consumed*, read
/// back from the same [`ScanCounters`] `--explain` uses.
fn trace_report(
    prepared: &Prepared,
    qe: &QueryEngine,
    counters: &ScanCounters,
    prepare: Duration,
    execute: Duration,
) -> String {
    let mut trace = sp2b_obs::QueryTrace::new();
    trace.phase("prepare", prepare);
    trace.phase("execute", execute);
    trace.operators = sp2b_sparql::operator_spans(prepared, qe.store(), counters);
    let mut out = trace.render();
    if let Some(cache) = qe.cache_stats() {
        out.push_str(&format!("cache: {}\n", cache.summary()));
    }
    out.truncate(out.trim_end().len());
    out
}

/// Human phrasing for streaming errors on the CLI.
fn describe(e: WriteError) -> String {
    match e {
        WriteError::Query(SparqlError::Cancelled) => "query timed out".to_owned(),
        other => other.to_string(),
    }
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let label = args
        .positional
        .get(1)
        .ok_or("query label required, e.g. `sp2b query Q4`")?;
    let query = BenchQuery::from_label(label).ok_or_else(|| format!("unknown query '{label}'"))?;
    let limit = args.get_u64("limit", 20);

    let engine = match args.get_store_dir()? {
        Some(dir) => open_disk_engine(args, &dir)?,
        None => {
            let n = args.get_u64("triples", 50_000);
            let kind = engine_kind(args)?;
            let layout = store_layout(args)?;
            let (graph, _) = generate_graph(Config::triples(n));
            load_engine(kind, &graph, &layout)
        }
    };
    let n = engine.store().len();
    let engine_label = engine.kind();
    let explain = args.has("explain");
    let trace = args.has("trace");
    let counters = std::sync::Arc::new(ScanCounters::default());
    let mut qe = engine.query_engine_with(Some(timeout(args, 300)?), threads(args)?);
    if explain || trace {
        qe = qe.scan_counters(counters.clone());
    }
    let prep_started = std::time::Instant::now();
    let prepared = qe.prepare(query.text()).map_err(|e| e.to_string())?;
    let prepare_time = prep_started.elapsed();
    if let Some(format) = output_format(args)? {
        return serialize_to_stdout(&qe, &prepared, format);
    }
    if prepared.is_ask() {
        let (result, m) = measure(|| qe.execute(&prepared));
        let r = result.map_err(|e| format!("{query}: {e} ({})", m.summary()))?;
        println!(
            "{query} on {n} triples via {engine_label}: answer {} ({})",
            if r.as_bool() == Some(true) {
                "yes"
            } else {
                "no"
            },
            m.summary()
        );
        if explain {
            println!("{}", explain_report(&prepared, qe.store(), &counters));
        }
        if trace {
            println!(
                "{}",
                trace_report(&prepared, &qe, &counters, prepare_time, m.tme)
            );
        }
        return Ok(());
    }
    let (streamed, m) = measure(|| stream_rows(&qe, &prepared, limit as usize, ""));
    let (total, shown) =
        streamed.map_err(|e| format!("{query}: {} ({})", describe(e), m.summary()))?;
    println!(
        "{query} on {n} triples via {engine_label}: {total} solutions ({})",
        m.summary()
    );
    if total > shown as u64 {
        println!("… ({} more rows)", total - shown as u64);
    }
    if explain {
        println!("{}", explain_report(&prepared, qe.store(), &counters));
    }
    if trace {
        println!(
            "{}",
            trace_report(&prepared, &qe, &counters, prepare_time, m.tme)
        );
    }
    Ok(())
}
