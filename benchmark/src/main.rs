//! SP²Bench's benchmark of itself. See `benchmark/README.md`.
//!
//! ```text
//! sp2b-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's contract)
//! sp2b-benchmark run [--seed N] [--seconds S] [--traced] [--runs K] [--out FILE]
//! sp2b-benchmark compare A.json B.json
//! sp2b-benchmark selfcheck [--seconds S]
//! sp2b-benchmark spec                                            prints BENCHMARK.json
//! ```

mod harness;
mod ingest;
mod json;
mod layers;
mod pipeline;
mod protocol;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::RunArgs;

/// The driver's `run_seconds`, and the default of `run`/`selfcheck`.
const RUN_SECONDS: f64 = 28.0;

const USAGE: &str = "usage: sp2b-benchmark --workload W --seed N --seconds S --trace 0|1
       sp2b-benchmark run [--seed N] [--seconds S] [--traced] [--runs K] [--out FILE]
       sp2b-benchmark compare A.json B.json
       sp2b-benchmark selfcheck [--seconds S]
       sp2b-benchmark spec";

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.0.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v)),
                _ => Err(format!("{flag} needs a value")),
            },
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")))
            .transpose()
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn seconds(&self) -> Result<f64, String> {
        let s = self.parsed("--seconds")?.unwrap_or(RUN_SECONDS);
        if (1.0..=600.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--seconds {s} is outside 1..600"))
        }
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self
            .parsed("--seed")?
            .unwrap_or(sp2b_datagen::Rng::DEFAULT_SEED))
    }
}

/// Runs one workload in this process and prints the contract's result
/// line last on stdout (the detail line, with quartiles and sample
/// counts, goes before it for `run` to pick up).
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.value("--workload")?.ok_or("--workload is required")?;
    let trace = match flags.value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let args = RunArgs {
        seed: flags.seed()?,
        seconds: flags.seconds()?,
        trace,
    };
    // The first /proc sample spawns `getconf CLK_TCK`; take it now, so no
    // child exits (and no SIGCHLD arrives) while a workload is measuring.
    harness::cpu_seconds();
    let outcome = match workload {
        spec::INGEST => ingest::run(args),
        spec::RESIDENT => protocol::run(false, args),
        spec::DISK => protocol::run(true, args),
        spec::SERVE => serve::run(args),
        other => return Err(format!("unknown workload '{other}'")),
    };
    if trace {
        let path = pipeline::out_dir().join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(pipeline::out_dir())
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_json().to_line()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "trace: {} spans -> {}",
            outcome.tracer.spans().len(),
            path.display()
        );
    }
    let result = report::WorkloadResult::from_outcome(workload, args, &outcome);
    eprint!("{}", result.table());
    for problem in &outcome.checker.problems {
        eprintln!("INCORRECT: {problem}");
    }
    println!("{}", result.detail_json().to_line());
    println!("{}", result.contract_json().to_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(first) if first.starts_with("--") => ("workload", argv),
        Some(first) => (first, &argv[1..]),
        None => return Err("no command".to_owned()),
    };
    let flags = Flags(rest.to_vec());
    match command {
        "workload" => one_workload(&flags),
        "run" => {
            let suite = report::run_suite(report::SuiteArgs {
                seed: flags.seed()?,
                seconds: flags.seconds()?,
                traced: flags.switch("--traced"),
                runs: flags.parsed("--runs")?.unwrap_or(1),
            })?;
            let out = flags.value("--out")?.map_or_else(
                || pipeline::out_dir().join("run.json"),
                std::path::PathBuf::from,
            );
            std::fs::write(&out, suite.to_json().to_pretty())
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
            eprintln!("results -> {}", out.display());
            Ok(if suite.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "compare" => match rest {
            [a, b] => {
                let (a, b) = (report::Suite::read(a)?, report::Suite::read(b)?);
                let comparison = report::compare(&a, &b);
                print!("{}", comparison.table);
                Ok(if comparison.worse == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => Err("compare takes two result files".to_owned()),
        },
        "selfcheck" => {
            let args = report::SuiteArgs {
                seed: flags.seed()?,
                seconds: flags.seconds()?,
                traced: true,
                runs: 1,
            };
            let first = report::run_suite(args)?;
            let second = report::run_suite(args)?;
            let comparison = report::compare(&first, &second);
            print!("{}", comparison.table);
            let ok = first.correct()
                && second.correct()
                && comparison.disagree == 0
                && comparison.inexact == 0;
            println!(
                "selfcheck: {} end-to-end cell(s) beyond their bound, {} exact count(s) differ, \
                 outputs {}",
                comparison.disagree,
                comparison.inexact,
                if first.correct() && second.correct() {
                    "correct"
                } else {
                    "INCORRECT"
                }
            );
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "spec" => {
            print!("{}", report::benchmark_json(RUN_SECONDS).to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sp2b-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
