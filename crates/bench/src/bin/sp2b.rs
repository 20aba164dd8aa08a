//! `sp2b` — the SP²Bench command-line harness: one subcommand per paper
//! experiment (DESIGN.md §6), plus the SPARQL endpoint and the workload
//! driver.
//!
//! Which commands exist, which flags each takes and which flags exclude
//! each other is the table in [`sp2b_bench::args`]; `sp2b` with no
//! command prints it, and `main` holds the command line against it
//! before anything runs. What the table cannot say:
//!
//! * Every command that needs a store gets it from [`open_engine`]:
//!   `--store disk:DIR` reopens a segment directory written by `sp2b
//!   save` (open is O(header + dictionary + block index); scans pull
//!   fixed-size blocks through a shared LRU whose byte budget
//!   `--cache-bytes` pins, default a quarter of the run payload);
//!   otherwise the N-Triples of `--data FILE`, or of a document generated
//!   by `--triples N --seed S` (untimed), stream along the store's one
//!   load route under `--engine` into one store or `--shards N` hash
//!   partitions. The load line's time is that route: parse, intern,
//!   build.
//! * `query LABEL` is `run` with a benchmark query's text ([`cmd_query`]
//!   serves both): the first `--limit` rows print and the rest are only
//!   counted, or `--format json|csv|tsv` streams the whole result
//!   through the HTTP endpoint's serializers. `--explain` prints the
//!   execution's trace (`sp2b_sparql::query_trace`: join order, estimated
//!   vs emitted rows, sampled time and access path per operator, where
//!   the morsels ran, the phases), the record the server's `--slow-ms`
//!   log and `sp2b scaling` read too.
//! * `--threads` pins the degree of morsel-driven parallelism (default:
//!   all cores; 1 is strictly sequential, and so is any query shorter
//!   than the fan-out budget) — except on `serve`, where it sizes the
//!   HTTP worker pool and `--parallelism` is per query.

use std::io::{BufRead, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp2b_bench::args::{parse_scaled, positive, usage};
use sp2b_bench::experiments::{self, DEFAULT_SIZES, QUERY_LABELS};
use sp2b_bench::Args;
use sp2b_core::report;
use sp2b_core::runner::{run_benchmark, run_workload_on, RunnerConfig, WorkloadTarget};
use sp2b_core::{measure, BenchQuery, Endpoint, Engine, EngineKind, ExtQuery, StoreLayout};
use sp2b_datagen::{generate_document, generate_to_path, generate_to_writer, Config};
use sp2b_server::ServerConfig;
use sp2b_sparql::results::{self, Format, WriteError};
use sp2b_sparql::{query_trace, Error as SparqlError, Prepared, QueryEngine, ScanCounters};
use sp2b_store::{SaveError, ShardBy};

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    if args.positional.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let result = args.check().and_then(|()| match args.command() {
        "gen" => cmd_gen(&args),
        "save" => cmd_save(&args),
        "smoke" => cmd_smoke(&args),
        "serve" => cmd_serve(&args),
        "multiuser" => cmd_multiuser(&args),
        "query" | "run" => cmd_query(&args),
        "ext" => cmd_ext(&args),
        _ => experiment(&args).map(|text| println!("{text}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sp2b: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The commands that compute one block of text: the paper's tables and
/// figures and the optimizer/parallelism experiments.
fn experiment(args: &Args) -> Result<String, String> {
    let triples = |default| args.get_scaled("triples", default);
    let year = |default| {
        args.parsed("year", "YYYY", |v| v.parse::<i32>().ok())
            .map(|y| y.unwrap_or(default))
    };
    Ok(match args.command() {
        "table3" => experiments::table3(args.get_positive("max-exp", 7)? as u32),
        "table8" => experiments::table8(&sizes(args)?),
        "table5" => experiments::table5(&sizes(args)?, timeout(args, 60)?),
        "bench" => {
            let mut cfg = RunnerConfig::paper_defaults();
            cfg.scales = sizes(args)?;
            cfg.timeout = timeout(args, 30)?;
            cfg.runs = args.get_positive("runs", 3)?;
            if let Some(engines) = args.parsed_list("engines", ENGINES, EngineKind::from_label)? {
                cfg.engines = engines;
            }
            if let Some(queries) = bench_queries(args)? {
                cfg.queries = queries;
            }
            let quiet = args.has("quiet");
            report::full_report(&run_benchmark(&cfg, |line| {
                if !quiet {
                    eprintln!("{line}");
                }
            }))
        }
        "fig2a" => experiments::fig2a(triples(250_000)?),
        "fig2b" => experiments::fig2b(year(1980)?),
        "fig2c" => {
            let years = args.parsed_list("years", "YYYY,YYYY,…", |s| s.parse::<i32>().ok())?;
            let years = years.unwrap_or_else(|| vec![1955, 1965, 1975, 1985]);
            experiments::fig2c(year(1985)?, &years)
        }
        "ablation" => experiments::ablation(triples(50_000)?, timeout(args, 30)?),
        "scaling" => {
            let expected = "N,N,…  (positive thread counts, e.g. 1,2,4)";
            let counts = args.parsed_list("threads", expected, positive)?;
            let queries = bench_queries(args)?.unwrap_or_else(|| BenchQuery::ALL.to_vec());
            experiments::thread_scaling(
                triples(50_000)?,
                &counts.unwrap_or_else(|| vec![1, 2, 4, 8]),
                timeout(args, 60)?,
                &queries,
            )
        }
        other => unreachable!("the table lists '{other}' but nothing runs it"),
    })
}

const ENGINES: &str = "mem-naive|mem-opt|native-base|native-opt";

fn bench_queries(args: &Args) -> Result<Option<Vec<BenchQuery>>, String> {
    args.parsed_list("queries", QUERY_LABELS, BenchQuery::from_label)
}

fn sizes(args: &Args) -> Result<Vec<u64>, String> {
    let expected = "N,N,…  (triple counts; k/M suffixes allowed, e.g. 10k,1M)";
    let given = args.parsed_list("sizes", expected, parse_scaled)?;
    Ok(given.unwrap_or_else(|| DEFAULT_SIZES.to_vec()))
}

/// The `--timeout` flag in seconds (a positive integer), `default_secs`
/// when absent.
fn timeout(args: &Args, default_secs: usize) -> Result<Duration, String> {
    Ok(Duration::from_secs(
        args.get_positive("timeout", default_secs)? as u64,
    ))
}

/// The `--shards N [--shard-by subject|pso]` flags: `--shards 1` (the
/// default) keeps the classic monolithic store; `--shards N` loads into
/// a hash-partitioned sharded store (parallel per-shard index build,
/// shard-parallel scans, routed point lookups).
fn store_layout(args: &Args) -> Result<StoreLayout, String> {
    let shards = args.get_positive("shards", 1)?;
    let shard_by = args.parsed("shard-by", "subject|pso", ShardBy::from_label)?;
    Ok(StoreLayout {
        shards,
        shard_by: shard_by.unwrap_or(ShardBy::Subject),
    })
}

/// The generator configuration `--triples N [--seed S]` name.
fn generator_config(args: &Args, default_triples: u64) -> Result<Config, String> {
    let cfg = Config::triples(args.get_scaled("triples", default_triples)?);
    Ok(match args.get_u64_opt("seed")? {
        Some(seed) if args.seeds_generator() => cfg.with_seed(seed),
        _ => cfg,
    })
}

/// The document as N-Triples, and what to call it in an error: the
/// `--data FILE` stream, or a document generated in memory.
fn document(args: &Args, default_triples: u64) -> Result<(Box<dyn BufRead>, String), String> {
    Ok(match args.get("data") {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let reader = std::io::BufReader::with_capacity(1 << 16, file);
            (Box::new(reader), path.to_owned())
        }
        None => {
            let (doc, _) = generate_document(generator_config(args, default_triples)?);
            (
                Box::new(std::io::Cursor::new(doc)),
                "generated document".to_owned(),
            )
        }
    })
}

/// The one place flags become an [`Engine`], and the one printer of its
/// load lines (stderr; `--quiet`, where a command takes it, silences
/// them). `--store disk:DIR` reopens saved segments — they fix the
/// document and its sharding (the table rejects the flags that would
/// silently not apply), and only the native engines' sorted runs can
/// back them; otherwise the [`document`] loads under `--engine` and the
/// [`store_layout`].
fn open_engine(args: &Args, default_triples: u64) -> Result<Engine, String> {
    let kind = args.parsed("engine", ENGINES, EngineKind::from_label)?;
    let kind = kind.unwrap_or(EngineKind::NativeOpt);
    let (engine, source) = match args.get_store_dir()? {
        Some(dir) => {
            if !kind.is_native() {
                return Err(format!(
                    "engine '{kind}' does not apply with --store disk: segments open as native \
                     sorted indexes; use native-base or native-opt"
                ));
            }
            let engine = Engine::open_disk(kind, &dir, args.get_bytes_opt("cache-bytes")?)
                .map_err(|e| format!("opening {}: {e}", dir.display()))?;
            let source = format!(
                "opened {} triples from {}",
                engine.store().len(),
                dir.display()
            );
            (engine, source)
        }
        None => {
            let layout = store_layout(args)?;
            let (doc, name) = document(args, default_triples)?;
            let engine = Engine::load(kind, doc, &layout).map_err(|e| format!("{name}: {e}"))?;
            let source = format!("loaded {} triples", engine.store().len());
            (engine, source)
        }
    };
    if !args.has("quiet") {
        eprintln!("{source} into {kind} ({})", engine.load_summary());
        let shards = engine.shards();
        let facts = [
            (shards.count() > 1).then(|| shards.summary()),
            Some(engine.stats_summary()),
            engine.cache_summary(),
        ];
        for line in facts.into_iter().flatten() {
            eprintln!("{line}");
        }
    }
    Ok(engine)
}

/// The `--format` flag: `None` is the human table preview; `json`,
/// `csv` and `tsv` stream the full result through the same serializers
/// the HTTP endpoint uses.
fn output_format(args: &Args) -> Result<Option<Format>, String> {
    let given = args.parsed("format", "table|json|csv|tsv", |s| match s {
        "table" => Some(None),
        s => Format::from_media_type(s).map(Some),
    })?;
    Ok(given.flatten())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let out = args.get("out").unwrap_or("sp2bench.nt");
    let cfg = generator_config(args, 10_000)?;
    // `-` is stdout: the document goes down a pipe, the summary below
    // stays on stderr.
    let (stats, out) = match out {
        "-" => (generate_to_writer(cfg, std::io::stdout().lock()), "stdout"),
        path => (generate_to_path(cfg, std::path::Path::new(path)), path),
    };
    let stats = stats.map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} triples ({} bytes) up to year {} to {out}",
        stats.triples,
        stats.bytes.unwrap_or(0),
        stats.end_year
    );
    Ok(())
}

/// `sp2b save --out DIR`: writes the document (generated from
/// `--triples`/`--seed` or streamed from `--data FILE`) as a directory of
/// immutable checksummed segments — shared dictionary plus per-shard
/// sorted runs — that `--store disk:DIR` reopens in
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
    let (doc, name) = document(args, 50_000)?;
    let (saved, m) =
        measure(|| sp2b_store::save_segments_from_reader(doc, dir, layout.shards, layout.shard_by));
    let stats = saved.map_err(|e| match e {
        SaveError::Parse(e) => format!("{name}: {e}"),
        e => e.to_string(),
    })?;
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
/// serializers the HTTP endpoint uses. Returns the row count.
fn serialize_to_stdout(
    engine: &QueryEngine,
    prepared: &Prepared,
    format: Format,
) -> Result<u64, String> {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut solutions = engine.solutions(prepared);
    let rows = results::write_solutions(&mut out, format, &mut solutions, prepared.is_ask())
        .map_err(describe)?;
    out.flush().map_err(|e| e.to_string())?;
    Ok(rows)
}

/// Human phrasing for streaming errors on the CLI.
fn describe(e: WriteError) -> String {
    match e {
        WriteError::Query(SparqlError::Cancelled) => "query timed out".to_owned(),
        other => other.to_string(),
    }
}

/// Tiny end-to-end smoke: open → execute (count) every benchmark and
/// extension query at the requested thread count. Exits nonzero on any
/// parse error, evaluation error or timeout — the CI job runs this at
/// `--threads 1` and `--threads 4` so both the sequential and the
/// morsel-parallel paths are exercised on every push.
fn cmd_smoke(args: &Args) -> Result<(), String> {
    let t = args.get_positive_opt("threads")?;
    let engine = open_engine(args, 5_000)?;
    let qe = engine.query_engine_with(Some(timeout(args, 120)?), t);
    let bench = BenchQuery::ALL.iter().map(|q| (q.label(), q.text()));
    let ext = ExtQuery::ALL.iter().map(|q| (q.label(), q.text()));
    println!(
        "smoke: {} triples, threads = {}, shards = {}",
        engine.store().len(),
        t.map_or("default".to_owned(), |t| t.to_string()),
        engine.shards().count()
    );
    for (label, text) in bench.chain(ext) {
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

/// The SPARQL Protocol endpoint: one store served over HTTP from a
/// fixed worker pool. `--threads` sizes the pool, `--parallelism` pins
/// the per-query morsel parallelism (default 1 — concurrency comes from
/// the clients), `--timeout` bounds every request, and `--duration` runs
/// the server that long before shutting down gracefully (omit it to
/// serve until the process is killed).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get_addr("addr", "127.0.0.1:8088")?;
    let workers = args.get_positive("threads", 4)?;
    let per_query_timeout = timeout(args, 30)?;
    let parallelism = args.get_positive("parallelism", 1)?;
    let duration = args.get_positive_opt("duration")?;
    let max_queue = args.get_positive("queue", 1024)?;
    let slow_ms = args.get_positive_opt("slow-ms")?;
    let engine = open_engine(args, 50_000)?;
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

/// The multi-user mixed workload (paper Section VII's "multi-user
/// scenario"): N client threads issue a mix of Q1–Q12/A1–A5 against one
/// shared store — in process ([`open_engine`]), or a live `sp2b serve`
/// over real sockets with `--endpoint`. One driver, one report either
/// way (`core::workload`): latency percentiles per template and per
/// client, queue delay split from service time under the open-loop
/// `--arrival` processes, `--report json:FILE` for the machine-readable
/// dump. `experiments::workload_flags` reads the workload model.
fn cmd_multiuser(args: &Args) -> Result<(), String> {
    let (cfg, report_path) = experiments::workload_flags(args)?;
    let quiet = args.has("quiet");
    let mut progress = |line: &str| {
        if !quiet {
            eprintln!("{line}");
        }
    };
    let report = match args.get("endpoint") {
        Some(url) => {
            let endpoint = Endpoint::parse(url)?;
            run_workload_on(WorkloadTarget::Endpoint(&endpoint), &cfg, &mut progress)
        }
        None => {
            let engine = open_engine(args, 50_000)?;
            run_workload_on(WorkloadTarget::Engine(&engine), &cfg, &mut progress)
        }
    };
    println!("{}", report::mixed_workload_report(&report));
    if let Some(path) = &report_path {
        std::fs::write(path, report::workload_json(&report.workload))
            .map_err(|e| format!("cannot write --report {}: {e}", path.display()))?;
        progress(&format!("wrote workload report to {}", path.display()));
    }
    Ok(())
}

/// Runs the A1–A5 aggregate extension queries (Section VII's
/// "aggregation support" future work) and prints their result heads.
fn cmd_ext(args: &Args) -> Result<(), String> {
    let limit = args.get_scaled("limit", 10)? as usize;
    let engine = open_engine(args, 50_000)?;
    let qe = engine.query_engine_with(Some(timeout(args, 300)?), args.get_positive_opt("threads")?);
    for q in ExtQuery::ALL {
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

/// `sp2b query LABEL` and `sp2b run 'SELECT …'`: one path from query
/// text to printed result. `query` takes the text of a benchmark query
/// and reports on stdout under its label; `run` takes it inline or from
/// `--query-file` and keeps stdout for the rows alone.
fn cmd_query(args: &Args) -> Result<(), String> {
    let operand = args.positional.get(1);
    let (label, text) = match (args.command(), args.get("query-file"), operand) {
        ("query", _, Some(l)) => {
            let q = BenchQuery::from_label(l).ok_or_else(|| format!("unknown query '{l}'"))?;
            (Some(q), q.text().to_owned())
        }
        ("query", _, None) => return Err("query label required, e.g. `sp2b query Q4`".into()),
        (_, Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            (None, text)
        }
        (_, None, Some(inline)) => (None, inline.clone()),
        (_, Some(_), Some(_)) => {
            return Err("give the query inline or with --query-file, not both".into())
        }
        (_, None, None) => {
            return Err("provide a query: `sp2b run 'SELECT …'` or --query-file q.rq".into())
        }
    };
    let format = output_format(args)?;
    if format.is_some() && args.has("limit") {
        return Err(
            "--limit does not apply with --format json|csv|tsv: the whole result \
                    streams; put a LIMIT in the query instead"
                .into(),
        );
    }
    let limit = args.get_scaled("limit", if label.is_some() { 20 } else { 50 })? as usize;
    let explain = args.has("explain");
    let engine = open_engine(args, 50_000)?;
    let counters = Arc::new(ScanCounters::default());
    let mut qe =
        engine.query_engine_with(Some(timeout(args, 300)?), args.get_positive_opt("threads")?);
    if explain {
        qe = qe.scan_counters(counters.clone());
    }
    let prep_started = Instant::now();
    let prepared = qe.prepare(&text).map_err(|e| e.to_string())?;
    let prepare_time = prep_started.elapsed();

    // The result goes to stdout: the whole of it in a wire format, the
    // ASK answer, or the first `limit` rows with the rest only counted
    // (no materialization, memory stays flat).
    let (done, m) = measure(|| -> Result<(String, u64), String> {
        if let Some(format) = format {
            let rows = serialize_to_stdout(&qe, &prepared, format)?;
            Ok((format!("{rows} row(s) as {}", format.label()), 0))
        } else if prepared.is_ask() {
            let found = qe.execute(&prepared).map_err(|e| e.to_string())?;
            let answer = if found.as_bool() == Some(true) {
                "yes"
            } else {
                "no"
            };
            println!("{answer}");
            Ok((format!("answer {answer}"), 0))
        } else {
            let (total, shown) = stream_rows(&qe, &prepared, limit, "").map_err(describe)?;
            Ok((format!("{total} solutions"), total - shown as u64))
        }
    });
    let who = label.map_or(String::new(), |q| format!("{q}: "));
    let (outcome, unshown) = done.map_err(|e| format!("{who}{e} ({})", m.summary()))?;

    // Everything after the result is commentary: on stdout in the table
    // preview (where `run` still keeps its summary on stderr, so a pipe
    // sees rows only), on stderr around a wire format.
    let say = |to_stdout: bool, line: String| {
        if to_stdout && format.is_none() {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    };
    let mut summary = match label {
        Some(q) => format!(
            "{q} on {} triples via {}: {outcome} ({})",
            engine.store().len(),
            engine.kind(),
            m.summary()
        ),
        None => format!("{outcome} in {}", m.summary()),
    };
    if unshown > 0 {
        summary.push_str(&format!("\n… ({unshown} more rows; raise --limit)"));
    }
    say(label.is_some(), summary);
    if explain {
        let mut trace = query_trace(&prepared, qe.store(), &counters);
        trace.phase("prepare", prepare_time);
        trace.phase("execute", m.tme);
        // The store's facts close the report: which statistics ordered
        // the plan, and what the block cache saw.
        let stats = engine.stats_summary();
        let cache = engine
            .cache_summary()
            .map_or(String::new(), |c| format!("\n  {c}"));
        say(true, format!("{}\n  {stats}{cache}", trace.render()));
    }
    Ok(())
}
