//! One function per paper experiment; each returns the formatted rows so
//! the CLI can print them and tests can assert on them.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp2b_core::multiuser::{MultiuserConfig, StopCondition};
use sp2b_core::workload::resolve_template;
use sp2b_core::{Arrival, BenchQuery, WeightedMix};
use sp2b_datagen::{
    generate_document, params, Config, Generator, GeneratorStats, NtriplesSink, NullSink,
};
use sp2b_sparql::{query_trace, OptimizerConfig, QueryEngine, ScanCounters};
use sp2b_store::{
    sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, SharedStore, TripleStore,
};

/// What a `--queries` list may name, for usage errors.
pub const QUERY_LABELS: &str = "q1,q3a,…  (Q1…Q12c; `multiuser` also takes A1…A5)";

/// The paper's scales (Table VIII/V columns). The harness defaults to the
/// first four; 5M/25M are reachable via `--sizes`.
pub const DEFAULT_SIZES: [u64; 4] = [10_000, 50_000, 250_000, 1_000_000];

// ---------------------------------------------------------------------------
// Table III — data generator performance
// ---------------------------------------------------------------------------

/// Table III: generation wall-clock for documents of 10³ … 10^max_exp
/// triples (the paper goes to 10⁹; every step is pure CPU + the sink).
pub fn table3(max_exp: u32) -> String {
    let mut out =
        String::from("TABLE III — DOCUMENT GENERATION (NullSink: generation cost only)\n\n");
    out.push_str(&format!("{:>12} {:>14}\n", "#triples", "elapsed [s]"));
    for exp in 3..=max_exp {
        let n = 10u64.pow(exp);
        let start = Instant::now();
        let stats = Generator::new(Config::triples(n))
            .run(&mut NullSink)
            .expect("null sink cannot fail");
        let secs = start.elapsed().as_secs_f64();
        debug_assert_eq!(stats.triples, n);
        out.push_str(&format!("{n:>12} {secs:>14.3}\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// Table VIII — document characteristics
// ---------------------------------------------------------------------------

/// Generates a document of `n` triples, counting serialized bytes without
/// keeping them (file-size column with no disk traffic).
pub fn generate_stats(n: u64) -> GeneratorStats {
    let mut sink = NtriplesSink::new(io::sink());
    Generator::new(Config::triples(n))
        .run(&mut sink)
        .expect("io::sink cannot fail")
}

/// Table VIII: characteristics of generated documents per scale.
pub fn table8(sizes: &[u64]) -> String {
    let mut out = String::from("TABLE VIII — CHARACTERISTICS OF GENERATED DOCUMENTS\n\n");
    let stats: Vec<GeneratorStats> = sizes.iter().map(|&n| generate_stats(n)).collect();
    out.push_str(&format!("{:<16}", "#Triples"));
    for &n in sizes {
        out.push_str(&format!("{:>12}", sp2b_core::report::scale_label(n)));
    }
    out.push('\n');
    let rows = stats[0].table_viii_rows();
    for (i, (label, _)) in rows.iter().enumerate() {
        out.push_str(&format!("{label:<16}"));
        for s in &stats {
            let value = &s.table_viii_rows()[i].1;
            out.push_str(&format!("{value:>12}"));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 2a / 2b / 2c — distribution validation
// ---------------------------------------------------------------------------

/// Figure 2a: distribution of outgoing-citation counts in a generated
/// document vs. the paper's Gaussian fit `d_cite`.
pub fn fig2a(triples: u64) -> String {
    let mut sink = NullSink;
    let stats = Generator::new(Config::triples(triples).with_detailed_stats())
        .run(&mut sink)
        .expect("null sink cannot fail");
    let total: u64 = stats.citation_histogram.values().sum();
    let mut out = format!(
        "FIGURE 2a — CITATION COUNT DISTRIBUTION ({} citing documents in {} triples)\n\n",
        total, stats.triples
    );
    out.push_str(&format!(
        "{:>5} {:>12} {:>12}\n",
        "x", "observed", "gauss-fit"
    ));
    for x in 1..=60u32 {
        let observed = *stats.citation_histogram.get(&x).unwrap_or(&0) as f64 / total.max(1) as f64;
        let fit = params::D_CITE.pdf(x as f64);
        out.push_str(&format!("{x:>5} {observed:>12.4} {fit:>12.4}\n"));
    }
    out
}

/// Figure 2b: document-class instances per year vs. the logistic fits.
pub fn fig2b(year_limit: i32) -> String {
    let stats = year_stats(year_limit);
    let mut out =
        String::from("FIGURE 2b — DOCUMENT CLASS INSTANCES PER YEAR (observed | logistic fit)\n\n");
    out.push_str(&format!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
        "year", "proc", "fit", "journal", "fit", "inproc", "fit", "article", "fit"
    ));
    for rec in &stats.years {
        let yr = rec.year;
        out.push_str(&format!(
            "{:>6} {:>9} {:>9} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
            yr,
            rec.class_counts[sp2b_datagen::DocClass::Proceedings.index()],
            params::F_PROC.count(yr),
            rec.journals,
            params::F_JOURNAL.count(yr),
            rec.class_counts[sp2b_datagen::DocClass::Inproceedings.index()],
            params::F_INPROC.count(yr),
            rec.class_counts[sp2b_datagen::DocClass::Article.index()],
            params::F_ARTICLE.count(yr),
        ));
    }
    out
}

/// Figure 2c: number of authors with exactly x publications, for selected
/// years, against the `f_awp` power law.
pub fn fig2c(year_limit: i32, years: &[i32]) -> String {
    let stats = year_stats(year_limit);
    let mut out =
        String::from("FIGURE 2c — AUTHORS WITH PUBLICATION COUNT x (observed | power-law fit)\n");
    for &yr in years {
        let Some(rec) = stats.years.iter().find(|r| r.year == yr) else {
            out.push_str(&format!(
                "\nyear {yr}: not generated (limit {year_limit})\n"
            ));
            continue;
        };
        let publ: u64 = rec
            .publications_histogram
            .iter()
            .map(|(x, n)| *x as u64 * n)
            .sum();
        out.push_str(&format!("\nyear {yr} ({publ} publications)\n"));
        out.push_str(&format!(
            "{:>5} {:>12} {:>14}\n",
            "x", "observed", "f_awp fit"
        ));
        for x in [1u32, 2, 3, 5, 8, 13, 21, 34, 55, 80] {
            let observed = *rec.publications_histogram.get(&x).unwrap_or(&0);
            let fit = params::f_awp(x as f64, yr, publ as f64).max(0.0);
            out.push_str(&format!("{x:>5} {observed:>12} {fit:>14.1}\n"));
        }
    }
    out
}

/// Per-year statistics of a document generated up to `year_limit`,
/// whose triples are discarded.
fn year_stats(year_limit: i32) -> GeneratorStats {
    Generator::new(Config::up_to_year(year_limit).with_detailed_stats())
        .run(&mut NullSink)
        .expect("null sink cannot fail")
}

// ---------------------------------------------------------------------------
// Table V — result sizes
// ---------------------------------------------------------------------------

/// Table V: result sizes via the optimized native engine only (counts are
/// engine-independent; this is the fastest path).
pub fn table5(sizes: &[u64], timeout: Duration) -> String {
    let mut out = String::from("TABLE V — NUMBER OF QUERY RESULTS\n\n");
    out.push_str(&format!("{:<9}", "scale"));
    for q in BenchQuery::ALL {
        out.push_str(&format!("{:>10}", q.label()));
    }
    out.push('\n');
    for &n in sizes {
        let engine = QueryEngine::new(native_store_of(n)).timeout(timeout);
        out.push_str(&format!("{:<9}", sp2b_core::report::scale_label(n)));
        for q in BenchQuery::ALL {
            // The streaming count path: no term ever decodes.
            let counted = engine
                .prepare(q.text())
                .and_then(|prepared| engine.count(&prepared));
            match counted {
                Ok(c) => out.push_str(&format!("{c:>10}")),
                Err(_) => out.push_str(&format!("{:>10}", "T")),
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Ablation — DESIGN.md §7
// ---------------------------------------------------------------------------

/// One ablation configuration.
struct AblationConfig {
    label: &'static str,
    optimizer: OptimizerConfig,
    indexes: IndexSelection,
}

/// Ablation study over the optimizer's techniques and the index layout
/// (DESIGN.md §7): join reordering, filter pushing, filter substitution,
/// full run table vs. single SPO run.
pub fn ablation(triples: u64, timeout: Duration) -> String {
    let configs = [
        AblationConfig {
            label: "full",
            optimizer: OptimizerConfig::full(),
            indexes: IndexSelection::all(),
        },
        AblationConfig {
            label: "no-reorder",
            optimizer: OptimizerConfig {
                reorder_patterns: false,
                ..OptimizerConfig::full()
            },
            indexes: IndexSelection::all(),
        },
        AblationConfig {
            label: "no-push",
            optimizer: OptimizerConfig {
                push_filters: false,
                substitute_filters: false,
                ..OptimizerConfig::full()
            },
            indexes: IndexSelection::all(),
        },
        AblationConfig {
            label: "no-subst",
            optimizer: OptimizerConfig {
                substitute_filters: false,
                ..OptimizerConfig::full()
            },
            indexes: IndexSelection::all(),
        },
        AblationConfig {
            label: "spo-only",
            optimizer: OptimizerConfig::full(),
            indexes: IndexSelection::spo_only(),
        },
    ];
    let queries = [
        BenchQuery::Q2,
        BenchQuery::Q3a,
        BenchQuery::Q3c,
        BenchQuery::Q4,
        BenchQuery::Q5b,
        BenchQuery::Q8,
        BenchQuery::Q9,
        BenchQuery::Q10,
        BenchQuery::Q11,
    ];

    let (doc, _) = generate_document(Config::triples(triples));
    let mut out = format!(
        "ABLATION — optimizer techniques and index layout ({} triples, timeout {:?})\n\n",
        triples, timeout
    );
    out.push_str(&format!("{:<12}", "config"));
    for q in queries {
        out.push_str(&format!("{:>10}", q.label()));
    }
    out.push_str(&format!("{:>10}\n", "load[s]"));

    for cfg in &configs {
        let start = Instant::now();
        let store = native_store(&doc, cfg.indexes);
        let load = start.elapsed().as_secs_f64();
        out.push_str(&format!("{:<12}", cfg.label));
        for q in queries {
            out.push_str(&run_cell(&store, &cfg.optimizer, q, timeout));
        }
        out.push_str(&format!("{load:>10.3}\n"));
    }
    out
}

/// A generated document of `triples` triples, loaded into one native
/// store with every run.
fn native_store_of(triples: u64) -> SharedStore {
    let (doc, _) = generate_document(Config::triples(triples));
    native_store(&doc, IndexSelection::all())
}

/// `doc` loaded into one native store with the `indexes` runs.
fn native_store(doc: &[u8], indexes: IndexSelection) -> SharedStore {
    let store = sharded_store_from_reader(doc, 1, ShardBy::Subject, ShardBackend::Native(indexes));
    store
        .expect("the generator writes valid N-Triples")
        .into_shared()
}

fn run_cell(
    store: &SharedStore,
    cfg: &OptimizerConfig,
    q: BenchQuery,
    timeout: Duration,
) -> String {
    let engine = QueryEngine::new(store.clone())
        .optimizer(*cfg)
        .timeout(timeout);
    let prepared = engine.prepare(q.text()).expect("queries parse");
    let start = Instant::now();
    match engine.count(&prepared) {
        Ok(_) => format!("{:>10.4}", start.elapsed().as_secs_f64()),
        Err(_) => format!("{:>10}", "T"),
    }
}

// ---------------------------------------------------------------------------
// Thread scaling — morsel-driven parallel execution
// ---------------------------------------------------------------------------

/// Thread-scaling experiment (behind `sp2b scaling`): wall-clock of the
/// decode-free counting path per query on a single native store (loaded
/// once, full optimization) at each requested thread count, with speedup
/// relative to the *first* configured count — conventionally 1, making
/// the column a plain parallel speedup. A `*` marks the cells whose
/// execution outlived the fan-out budget and handed morsels to workers —
/// read from the trace of the very execution the cell times, whose
/// counters sample the clock and do not change when it fans out; the
/// others ran on one thread whatever the count. Timed-out cells print `T`
/// and earn no speedup.
pub fn thread_scaling(
    triples: u64,
    threads: &[usize],
    timeout: Duration,
    queries: &[BenchQuery],
) -> String {
    let store = native_store_of(triples);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = format!(
        "THREAD SCALING — morsel-driven parallel execution \
         ({triples} triples, native store, timeout {timeout:?})\n\
         host reports {cores} available core(s); thread counts beyond that \
         time-slice and cannot improve wall-clock\n\
         * = fanned out (ran longer than the {:?} budget on one thread first)\n\n",
        sp2b_sparql::par::FAN_OUT_AFTER
    );
    out.push_str(&format!("{:<6}", "query"));
    for &t in threads {
        out.push_str(&format!("{:>12}{:>9}", format!("t={t} [s]"), "speedup"));
    }
    out.push('\n');
    for &q in queries {
        out.push_str(&format!("{:<6}", q.label()));
        let mut baseline: Option<f64> = None;
        for (pos, &t) in threads.iter().enumerate() {
            let counters = Arc::new(ScanCounters::default());
            let engine = QueryEngine::new(store.clone())
                .optimizer(OptimizerConfig::full())
                .timeout(timeout)
                .parallelism(t)
                .scan_counters(counters.clone());
            let prepared = engine.prepare(q.text()).expect("queries parse");
            let start = Instant::now();
            let counted = engine.count(&prepared);
            let secs = start.elapsed().as_secs_f64();
            let fanned_out = query_trace(&prepared, engine.store(), &counters).fanned_out();
            if counted.is_err() {
                out.push_str(&format!("{:>12}{:>9}", "T", "-"));
                continue;
            }
            // The baseline is strictly the first configured count; if
            // that one timed out, later cells show no speedup rather
            // than silently rebasing.
            if pos == 0 {
                baseline = Some(secs);
            }
            let mark = if fanned_out { '*' } else { ' ' };
            let speedup = baseline.map_or("-".into(), |b| format!("{:.2}x", b / secs.max(1e-9)));
            out.push_str(&format!("{secs:>11.4}{mark}{speedup:>9}"));
        }
        out.push('\n');
    }
    out
}

/// Fills a [`MultiuserConfig`] from the `sp2b multiuser` flags — the
/// clients and stop condition, the per-query timeout and parallelism,
/// the template mix (`--queries` rotation, `--mix` DSL or `--zipf`), the
/// arrival process, the warmup cutoff and the replay seed — and returns
/// it with the `--report json:FILE` sink. Which flags may combine is the
/// table's business ([`crate::args::RULES`], checked before this runs);
/// every malformed value here is a one-line hard error.
pub fn workload_flags(
    args: &crate::args::Args,
) -> Result<(MultiuserConfig, Option<std::path::PathBuf>), String> {
    let stop = match args.get_positive_opt("rounds")? {
        Some(rounds) => StopCondition::Rounds(rounds as u32),
        None => StopCondition::Duration(Duration::from_secs(
            args.get_positive("duration", 30)? as u64
        )),
    };
    let mut cfg = MultiuserConfig::new(args.get_positive("clients", 4)?, stop);
    cfg.timeout = Duration::from_secs(args.get_positive("timeout", 30)? as u64);
    cfg.parallelism = args.get_positive("threads", 1)?;
    cfg.checksums = args.has("checksums");
    if let Some(spec) = args.get("arrival") {
        cfg.arrival =
            Arrival::parse(spec).map_err(|e| format!("invalid --arrival value '{spec}': {e}"))?;
    }
    let weighted = if let Some(spec) = args.get("mix") {
        Some(WeightedMix::parse(spec).map_err(|e| format!("invalid --mix value '{spec}': {e}"))?)
    } else if let Some(s) = args.get_f64_opt("zipf")? {
        Some(WeightedMix::zipf(s).map_err(|e| format!("invalid --zipf value '{s}': {e}"))?)
    } else {
        None
    };
    if let Some(mix) = weighted {
        cfg.mix = mix.items;
        cfg.weights = mix.weights;
    } else if let Some(mix) = args.parsed_list("queries", QUERY_LABELS, resolve_template)? {
        cfg.mix = mix;
    }
    cfg.warmup = Duration::from_secs(args.get_positive_opt("warmup")?.unwrap_or(0) as u64);
    if let Some(seed) = args.get_u64_opt("seed")? {
        cfg.seed = seed;
    }
    let expected = "json:FILE  (write the workload report as JSON to FILE)";
    let report_path = args.parsed("report", expected, |v| {
        let path = v.strip_prefix("json:").filter(|p| !p.is_empty())?;
        Some(std::path::PathBuf::from(path))
    })?;
    Ok((cfg, report_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_small_exponents() {
        let t = table3(4);
        assert!(t.contains("1000"), "{t}");
        assert!(t.contains("10000"));
    }

    #[test]
    fn table8_has_all_rows() {
        let t = table8(&[5_000, 10_000]);
        for label in [
            "file size [MB]",
            "data up to",
            "#Tot.Auth.",
            "#Article",
            "#WWW",
        ] {
            assert!(t.contains(label), "missing {label}:\n{t}");
        }
    }

    #[test]
    fn fig2a_probabilities_are_plausible() {
        let t = fig2a(120_000);
        assert!(t.contains("gauss-fit"));
    }

    #[test]
    fn thread_scaling_smoke() {
        let t = thread_scaling(
            4_000,
            &[1, 2],
            Duration::from_secs(60),
            &[BenchQuery::Q1, BenchQuery::Q9],
        );
        assert!(t.contains("Q9"), "{t}");
        assert!(t.contains("t=2"), "{t}");
        assert!(t.contains("speedup"), "{t}");
    }

    #[test]
    fn table5_smoke() {
        let t = table5(&[4_000], Duration::from_secs(20));
        assert!(t.contains("Q12c"));
        // Q1 column exists with count 1 somewhere in the row.
        let row = t.lines().last().unwrap();
        assert!(row.contains('1'), "{t}");
    }

    #[test]
    fn ablation_smoke() {
        let t = ablation(4_000, Duration::from_secs(20));
        assert!(t.contains("no-reorder"));
        assert!(t.contains("spo-only"));
    }

    #[test]
    fn queries_rotation_accepts_bench_and_ext_labels() {
        let (cfg, _) = flags("multiuser --queries q1,A3,Q12c").unwrap();
        assert_eq!(cfg.mix.len(), 3);
        assert_eq!(cfg.mix[1].label, "A3");
        assert!(cfg.weights.is_empty());
        let err = flags("multiuser --queries q1,a9").unwrap_err();
        assert!(err.contains("invalid --queries value 'a9'"), "{err}");
    }

    /// The front end's order: the table check, then the flag reader.
    fn flags(s: &str) -> Result<(MultiuserConfig, Option<std::path::PathBuf>), String> {
        let args = crate::args::Args::parse(s.split_whitespace().map(String::from));
        args.check()?;
        workload_flags(&args)
    }

    #[test]
    fn workload_flags_defaults_to_the_closed_loop() {
        let (cfg, report_path) = flags("multiuser --clients 4").unwrap();
        assert_eq!(cfg.arrival, Arrival::Closed);
        assert!(cfg.weights.is_empty());
        assert_eq!(cfg.warmup, Duration::ZERO);
        assert_eq!(cfg.seed, 0, "no --seed keeps the config default");
        assert!(report_path.is_none());
    }

    #[test]
    fn workload_flags_parses_the_full_open_loop_spelling() {
        let (cfg, report_path) = flags(
            "multiuser --arrival poisson:200/s --mix q1:90,q8:10 \
             --warmup 5 --seed 42 --report json:out.json",
        )
        .unwrap();
        assert_eq!(cfg.arrival, Arrival::Poisson { rate: 200.0 });
        assert_eq!(cfg.mix.len(), 2);
        assert_eq!(cfg.mix[0].label, "Q1");
        assert_eq!(cfg.weights, [90.0, 10.0]);
        assert_eq!(cfg.warmup, Duration::from_secs(5));
        assert_eq!(cfg.seed, 42);
        assert_eq!(report_path.unwrap(), std::path::PathBuf::from("out.json"));
    }

    #[test]
    fn workload_flags_zipf_ranks_the_default_mix() {
        let (cfg, _) = flags("multiuser --arrival constant:50/s --zipf 1.0").unwrap();
        assert_eq!(cfg.mix.len(), cfg.weights.len());
        assert!(
            cfg.weights.windows(2).all(|w| w[0] >= w[1]),
            "{:?}",
            cfg.weights
        );
    }

    #[test]
    fn workload_flags_rejects_contradictions_and_garbage() {
        // --mix + --zipf pick the mix twice.
        let err = flags("multiuser --mix q1:1 --zipf 1.0").unwrap_err();
        assert!(err.contains("--mix and --zipf"), "{err}");
        // --queries is the unweighted rotation; it cannot co-exist.
        let err = flags("multiuser --mix q1:1 --queries q1,q2").unwrap_err();
        assert!(err.contains("--queries"), "{err}");
        assert!(flags("multiuser --zipf 1.0 --queries q1").is_err());
        // Malformed mixes: zero weight, unknown template, duplicates.
        for bad in ["q1:0", "q99:5", "q1:5,q1:5", "q1", "q1:three", ""] {
            let err = flags(&format!("multiuser --mix {bad} --quiet")).unwrap_err();
            assert!(err.contains("invalid --mix"), "{bad}: {err}");
        }
        // Zero arrival rate and unknown processes are hard errors.
        for bad in [
            "constant:0/s",
            "poisson:-5/s",
            "uniform:10/s",
            "burst:10,0,0.5",
        ] {
            let err = flags(&format!("multiuser --arrival {bad}")).unwrap_err();
            assert!(err.contains("invalid --arrival"), "{bad}: {err}");
        }
        // --report needs the json:FILE spelling — and nothing else: every
        // run, closed loop included, yields the report it dumps.
        let (cfg, report_path) = flags("multiuser --report json:out.json").unwrap();
        assert_eq!(cfg.arrival, Arrival::Closed);
        assert_eq!(report_path.unwrap(), std::path::PathBuf::from("out.json"));
        let err = flags("multiuser --arrival poisson:10/s --report out.json").unwrap_err();
        assert!(err.contains("invalid --report value 'out.json'"), "{err}");
        assert!(flags("multiuser --arrival poisson:10/s --report json:").is_err());
        // Warmup and zipf share the strict numeric contracts.
        assert!(flags("multiuser --warmup 0").is_err());
        assert!(flags("multiuser --zipf -1").is_err());
    }
}
