//! Results: the driver's one-line contract, the result files `run`
//! writes, and `compare` over two of them.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::harness::{Outcome, RunArgs};
use crate::json::{self, Json};
use crate::spec::{Better, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::stats::{median_sorted, quartiles_sorted, sorted, Summary};

/// One metric of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    /// An untraced run reports every end-to-end metric (a missing one is
    /// a harness bug); a traced run every per-layer metric, 0 for a layer
    /// the workload never calls.
    pub fn from_outcome(workload: &str, args: RunArgs, outcome: &Outcome) -> WorkloadResult {
        let metric = |name: &str, unit: &str, summary: Summary| Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            summary,
        };
        let metrics = if args.trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let s = outcome.measured.get(m.name).copied();
                    metric(m.name, m.unit, s.unwrap_or(Summary::exact(0.0)))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let s = outcome.measured.get(m.name);
                    let s = s.unwrap_or_else(|| panic!("{workload} did not measure {}", m.name));
                    metric(m.name, m.unit, *s)
                })
                .collect()
        };
        WorkloadResult {
            workload: workload.to_owned(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            correct: outcome.checker.correct(),
            attempted: outcome.checker.attempted.max(1),
            failed: outcome.checker.failed,
            metrics,
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_json(&self) -> Json {
        self.json(false)
    }

    /// The contract plus quartiles, sample counts and the run's settings.
    pub fn detail_json(&self) -> Json {
        self.json(true)
    }

    fn json(&self, detail: bool) -> Json {
        let mut pairs = Vec::new();
        if detail {
            pairs.extend([
                ("workload", Json::str(self.workload.as_str())),
                ("seed", Json::str(self.seed.to_string())),
                ("seconds", Json::Num(self.seconds)),
                ("trace", Json::Bool(self.trace)),
            ]);
        }
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.summary.median)),
                ("unit", Json::str(m.unit.as_str())),
            ];
            if detail {
                fields.extend([
                    ("q1", Json::Num(m.summary.q1)),
                    ("q3", Json::Num(m.summary.q3)),
                    ("n", Json::Num(m.summary.n as f64)),
                ]);
            }
            (m.name.as_str(), Json::obj(fields))
        });
        pairs.extend([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        Json::obj(pairs)
    }

    pub fn from_detail(doc: &Json) -> Result<WorkloadResult, String> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("result without '{key}'"))
        };
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("'{key}' is not a number"))
        };
        let flag = |key: &str| match field(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("'{key}' is not a boolean")),
        };
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("'{key}' is not a string"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("'metrics' is not an object")?
            .iter()
            .map(|(name, m)| {
                let n = |key: &str| {
                    m.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric '{name}' without '{key}'"))
                };
                Ok(Metric {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    summary: Summary {
                        n: n("n")? as usize,
                        median: n("value")?,
                        q1: n("q1")?,
                        q3: n("q3")?,
                    },
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            workload: text("workload")?,
            seed: text("seed")?
                .parse()
                .map_err(|_| "'seed' is not a number")?,
            seconds: num("seconds")?,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} s, {}): {} of {} operation(s) failed, outputs {}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace {
                "traced, per-layer"
            } else {
                "end-to-end"
            },
            self.failed,
            self.attempted,
            if self.correct { "correct" } else { "INCORRECT" },
        );
        for m in &self.metrics {
            let s = &m.summary;
            let _ = write!(out, "  {:<28} {:>14.6} {:<6}", m.name, s.median, m.unit);
            if s.n > 1 {
                let _ = write!(out, " q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n);
            }
            out.push('\n');
        }
        out
    }
}

/// Every run of one `run` invocation, with where it ran.
pub struct Suite {
    pub host: Json,
    pub results: Vec<WorkloadResult>,
}

impl Suite {
    pub fn correct(&self) -> bool {
        self.results.iter().all(|r| r.correct)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("sp2b-benchmark/1")),
            ("host", self.host.clone()),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(WorkloadResult::detail_json)
                        .collect(),
                ),
            ),
        ])
    }

    pub fn read(path: &str) -> Result<Suite, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let results = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no 'results' array"))?
            .iter()
            .map(WorkloadResult::from_detail)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(Suite {
            host: doc.get("host").cloned().unwrap_or(Json::Null),
            results,
        })
    }

    /// One metric of one workload over all the suite's runs of it: the
    /// median of the runs' values with the quartiles *between* runs, or,
    /// from a single run, that run's own quartiles.
    fn cell(&self, workload: &str, trace: bool, metric: &str) -> Option<Summary> {
        let runs: Vec<Summary> = self
            .results
            .iter()
            .filter(|r| r.workload == workload && r.trace == trace)
            .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
            .map(|m| m.summary)
            .collect();
        match runs.as_slice() {
            [] => None,
            [only] => Some(*only),
            many => {
                let values = sorted(&many.iter().map(|s| s.median).collect::<Vec<_>>());
                let (q1, q3) = quartiles_sorted(&values);
                Some(Summary {
                    n: values.len(),
                    median: median_sorted(&values),
                    q1,
                    q3,
                })
            }
        }
    }
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Cores, kernel, compiler and commit: a result is comparable only with
/// one from a like host.
fn host() -> Json {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let or_unknown = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".to_owned()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)),
        ),
        (
            "kernel",
            or_unknown(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_owned()),
            ),
        ),
        (
            "rustc",
            or_unknown(command_line("rustc", &["--version"], &repo)),
        ),
        (
            "commit",
            or_unknown(command_line(
                "git",
                &["rev-parse", "--short", "HEAD"],
                &repo,
            )),
        ),
    ])
}

/// What `run` runs: `runs` passes over the suite with seeds `seed`,
/// `seed + 1`, … (as the driver judges spread over ten seeds), each
/// workload untraced and, with `traced`, a second time with spans on.
#[derive(Debug, Clone, Copy)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub runs: u64,
}

/// Runs every workload, each in its own child process so peak memory and
/// CPU time are the workload's alone. The child's stderr (its metric
/// table) passes through.
pub fn run_suite(args: SuiteArgs) -> Result<Suite, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let host = host();
    eprintln!("host: {}", host.to_line());
    let mut results = Vec::new();
    for run in 0..args.runs {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                if trace && !args.traced {
                    continue;
                }
                let out = Command::new(&exe)
                    .args(["--workload", workload.name])
                    .args(["--seed", &args.seed.wrapping_add(run).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("starting {}: {e}", workload.name))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let detail = stdout.lines().rev().nth(1).ok_or_else(|| {
                    format!("{} printed no result ({})", workload.name, out.status)
                })?;
                let doc = json::parse(detail).map_err(|e| format!("{}: {e}", workload.name))?;
                results.push(WorkloadResult::from_detail(&doc)?);
            }
        }
    }
    Ok(Suite { host, results })
}

/// `compare`'s outcome: the table and the cells that moved.
pub struct Comparison {
    pub table: String,
    /// End-to-end cells where B is worse than A beyond the bound.
    pub worse: usize,
    /// End-to-end cells that differ beyond the bound in either direction.
    pub disagree: usize,
    /// Exact counts that differ at all.
    pub inexact: usize,
}

/// One row per workload × metric: both medians, the change from A to B,
/// each side's quartile distance as a share of its median, the bound,
/// and a verdict — `worse` beyond the bound, `unresolved`
/// where either side's quartile distance exceeds the bound (the change
/// cannot be told from noise), else `ok`. Per-layer metrics have no
/// bound and get no verdict, except the exact counts, which must match.
pub fn compare(a: &Suite, b: &Suite) -> Comparison {
    let mut c = Comparison {
        table: String::new(),
        worse: 0,
        disagree: 0,
        inexact: 0,
    };
    for workload in &WORKLOADS {
        let _ = writeln!(c.table, "{}", workload.name);
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(m.bound), false))
            .chain(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, m.better, None, true)),
            );
        for (name, unit, better, bound, trace) in rows {
            let (Some(x), Some(y)) = (
                a.cell(workload.name, trace, name),
                b.cell(workload.name, trace, name),
            ) else {
                continue;
            };
            if x.median == 0.0 && y.median == 0.0 {
                continue; // a layer this workload never calls
            }
            let change = if x.median == 0.0 {
                f64::INFINITY
            } else {
                (y.median - x.median) / x.median.abs()
            };
            let worsening = match better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let verdict = match bound {
                Some(bound) => {
                    if change.abs() > bound {
                        c.disagree += 1;
                    }
                    if x.spread().max(y.spread()) > bound {
                        "unresolved"
                    } else if worsening > bound {
                        c.worse += 1;
                        "worse"
                    } else {
                        "ok"
                    }
                }
                None if EXACT_COUNTS.contains(&name) => {
                    if x.median == y.median {
                        "exact"
                    } else {
                        c.inexact += 1;
                        "DIFFERS"
                    }
                }
                None => "",
            };
            let _ = writeln!(
                c.table,
                "  {:<28} {:>14.6} {:>14.6} {:<6} {:>+8.2}%  spread {:>5.2}% {:>5.2}%  {:<5} {}",
                name,
                x.median,
                y.median,
                unit,
                change * 100.0,
                x.spread() * 100.0,
                y.spread() * 100.0,
                bound.map_or(String::new(), |b| format!("±{:.0}%", b * 100.0)),
                verdict
            );
        }
    }
    c
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json(run_seconds: f64) -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(run_seconds)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DISK, RESIDENT};

    fn result(workload: &str, trace: bool, metrics: &[(&str, f64, f64, f64)]) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_owned(),
            seed: 1,
            seconds: 28.0,
            trace,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|&(name, median, q1, q3)| Metric {
                    name: name.to_owned(),
                    unit: "s".to_owned(),
                    summary: Summary {
                        n: 10,
                        median,
                        q1,
                        q3,
                    },
                })
                .collect(),
        }
    }

    fn suite(results: Vec<WorkloadResult>) -> Suite {
        Suite {
            host: Json::Null,
            results,
        }
    }

    #[test]
    fn result_files_round_trip() {
        let r = result(RESIDENT, false, &[("ta_s", 0.1534, 0.15, 0.16)]);
        let line = r.detail_json().to_line();
        assert_eq!(
            WorkloadResult::from_detail(&json::parse(&line).unwrap()).unwrap(),
            r
        );
        let contract = r.contract_json();
        let keys: Vec<&str> = contract
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let ta = contract.get("metrics").unwrap().get("ta_s").unwrap();
        assert_eq!(ta.as_obj().unwrap().len(), 2);
        assert_eq!(ta.get("value").and_then(Json::as_f64), Some(0.1534));
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let bound = END_TO_END.iter().find(|m| m.name == "ta_s").unwrap().bound;
        let (slower, noisy) = (1.0 + 1.5 * bound, 1.1 * bound);
        let a = suite(vec![
            result(
                RESIDENT,
                false,
                &[("ta_s", 1.0, 0.99, 1.01), ("tg_s", 1.0, 1.0, 1.0)],
            ),
            result(DISK, false, &[("ta_s", 1.0, 1.0 - noisy, 1.0 + noisy)]),
            result(RESIDENT, true, &[("sparql.results", 100.0, 100.0, 100.0)]),
        ]);
        let b = suite(vec![
            result(
                RESIDENT,
                false,
                &[("ta_s", slower, slower, slower), ("tg_s", 0.5, 0.5, 0.5)],
            ),
            result(DISK, false, &[("ta_s", slower, slower, slower)]),
            result(RESIDENT, true, &[("sparql.results", 101.0, 101.0, 101.0)]),
        ]);
        let c = compare(&a, &b);
        // Resident ta_s got slower beyond the bound: worse. tg_s halved:
        // better, but it disagrees. Disk ta_s moved as far, with A's
        // quartiles wider apart than the bound: unresolved, not worse.
        assert_eq!((c.worse, c.disagree, c.inexact), (1, 3, 1), "{}", c.table);
        assert!(c.table.contains("unresolved"));
        assert!(c.table.contains("DIFFERS"));
        let same = compare(&a, &a);
        assert_eq!((same.worse, same.disagree, same.inexact), (0, 0, 0));
    }

    #[test]
    fn several_runs_compare_by_the_spread_between_them() {
        let runs: Vec<WorkloadResult> = (1..=10)
            .map(|i| result(RESIDENT, false, &[("ta_s", f64::from(i), 0.0, 0.0)]))
            .collect();
        let cell = suite(runs).cell(RESIDENT, false, "ta_s").unwrap();
        assert_eq!(
            (cell.n, cell.median, cell.q1, cell.q3),
            (10, 5.5, 2.75, 8.25)
        );
    }

    #[test]
    fn benchmark_json_is_what_spec_prints() {
        let doc = benchmark_json(28.0);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(28.0));
        let command = doc.get("command").and_then(Json::as_arr).unwrap();
        assert!(command.len() <= 32);
        assert_eq!(command.last(), Some(&Json::str("--")));
    }
}
