//! Per-query execution traces.
//!
//! A [`QueryTrace`] is what one execution of a query did: its phases and,
//! per scan or join operator, the planner's estimate against the rows
//! emitted, the time spent, how a pattern step got its triples and where
//! an exchange ran its morsels. `sp2b_sparql::query_trace` builds it;
//! `--explain` prints [`QueryTrace::render`], the server's slow-query log
//! [`QueryTrace::summary`].

use std::fmt::Write;
use std::time::Duration;

/// What kind of operator an [`OpSpan`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpKind {
    /// A BGP pattern step: a store scan extending its input rows.
    #[default]
    Scan,
    /// A join of two sub-plans.
    Join,
}

/// Where a pattern step's triples came from: index lookups bound by its
/// input rows until they had cost as much as fetching the whole pattern,
/// then probes of the one fetched table (the executor's per-step,
/// run-time choice — see `sp2b_sparql::eval`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepAccess {
    /// Store lookups the step issued. Once it has fetched, this is also
    /// how many it issued *before* fetching.
    pub lookups: u64,
    /// Triples of the pattern fetched into the table; `None` when the
    /// step stayed on lookups.
    pub fetched: Option<u64>,
    /// Input rows answered from the fetched table.
    pub probes: u64,
}

impl std::fmt::Display for StepAccess {
    /// `lookup ×5874`, or `lookup ×5874 → fetch 5874 triples, probes
    /// 166229` for a step that fetched.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lookup ×{}", self.lookups)?;
        match self.fetched {
            Some(triples) => write!(f, " → fetch {triples} triples, probes {}", self.probes),
            None => Ok(()),
        }
    }
}

/// Where one run of an exchange evaluated its driving step's morsels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeRun {
    /// The planned degree: how many workers a hand-off may start.
    pub degree: usize,
    /// Morsels the driving source was split into; 0: not split (the
    /// execution never opened the exchange, e.g. a union branch its
    /// consumer hung up before).
    pub morsels: usize,
    /// Morsels the consumer's thread took before the hand-off (all).
    pub inline: usize,
    /// Worker threads the rest went to (0: no hand-off).
    pub workers: usize,
}

/// One operator's span: planner estimate vs observed reality.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Scan or join.
    pub kind: OpKind,
    /// Display label (for BGP scans, the triple pattern; for joins, the
    /// algorithm and its key).
    pub label: String,
    /// The rows the planner expects the operator to emit: for a pattern
    /// step, its BGP's rows after it; for a join planned by splitting a
    /// BGP, the join's output; for any other join, its build side's
    /// driving scan.
    pub est_rows: u64,
    /// Rows the operator actually emitted.
    pub rows: u64,
    /// Time spent inside the operator, sampled, summed over threads.
    pub time: Duration,
    /// For a pattern step that looked anything up: how (see
    /// [`StepAccess`]). `None` for joins and for a driving scan an
    /// exchange split into morsels.
    pub access: Option<StepAccess>,
    /// For a join whose probe side reads the join's own build rows
    /// instead of deriving them again: which probe variable reads which
    /// build variable (`?3←?5 ?6←?6`).
    pub reads_build: Option<String>,
    /// For the driving step of a planned exchange, or the join whose
    /// build rows it splits: where its morsels ran.
    pub exchange: Option<ExchangeRun>,
}

/// A per-query span record: timed phases plus per-operator spans.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    phases: Vec<(&'static str, Duration)>,
    /// Per-operator spans in plan order: operator `i` is report step `i + 1`.
    pub operators: Vec<OpSpan>,
}

impl QueryTrace {
    /// Appends a timed phase (`prepare`, `execute`, …).
    pub fn phase(&mut self, name: &'static str, took: Duration) {
        self.phases.push((name, took));
    }

    /// Sum of all phase times.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Rows the pattern steps emitted — the query's intermediate-result
    /// volume; a join's rows are output, not scan work.
    pub fn scanned_rows(&self) -> u64 {
        self.scans().map(|o| o.rows).sum()
    }

    /// Whether an exchange of this execution handed morsels to workers.
    pub fn fanned_out(&self) -> bool {
        self.exchanges().any(|(_, run)| run.workers > 0)
    }

    /// Every planned exchange with the step number of its driving step, or
    /// of the join whose build rows it splits.
    pub fn exchanges(&self) -> impl Iterator<Item = (usize, ExchangeRun)> + '_ {
        let runs = self.operators.iter().enumerate();
        runs.filter_map(|(i, op)| Some((i + 1, op.exchange?)))
    }

    fn scans(&self) -> impl Iterator<Item = &OpSpan> {
        self.operators.iter().filter(|o| o.kind == OpKind::Scan)
    }

    /// The report `--explain` prints: a line per operator, per join whose
    /// probe side reads its build rows and per planned exchange, the
    /// pattern steps' totals, the phases.
    pub fn render(&self) -> String {
        let mut out = String::from("join order (estimated cardinality vs actual rows emitted):");
        for (i, op) in self.operators.iter().enumerate() {
            let (n, label, est, rows) = (i + 1, &op.label, op.est_rows, op.rows);
            let time = fmt_duration(op.time);
            let _ = write!(
                out,
                "\n  {n:>2}. {label}  est {est}, rows {rows}, time {time}"
            );
            if let Some(access) = op.access {
                let _ = write!(out, ", {access}");
            }
        }
        for (i, op) in self.operators.iter().enumerate() {
            if let Some(lanes) = &op.reads_build {
                let step = i + 1;
                let _ = write!(
                    out,
                    "\n  step {step}'s probe side reads its build rows: {lanes}"
                );
            }
        }
        for (step, run) in self.exchanges() {
            let (n, inline) = (run.morsels, run.inline);
            let ran = match run.workers {
                _ if n == 0 => "not split".to_owned(),
                0 => format!("{n} morsels, all inline"),
                w => format!(
                    "morsels 0–{} of {n} inline, {inline}–{} on {w} workers",
                    inline - 1,
                    n - 1
                ),
            };
            let over = match self.operators[step - 1].kind {
                OpKind::Scan => format!("step {step}"),
                OpKind::Join => format!("step {step}'s build rows"),
            };
            let _ = write!(out, "\n  exchange ×{} over {over}: {ran}", run.degree);
        }
        let est = self
            .scans()
            .map(|o| o.est_rows)
            .fold(0, u64::saturating_add);
        let rows = self.scanned_rows();
        let time = fmt_duration(self.operators.iter().map(|o| o.time).sum());
        let _ = write!(
            out,
            "\n  total: estimated {est}, emitted {rows} rows, operators {time}"
        );
        if !self.phases.is_empty() {
            let phases: Vec<String> = self
                .phases
                .iter()
                .map(|(name, took)| format!("{name} {}", fmt_duration(*took)))
                .collect();
            let _ = write!(out, "\n  phases: {}", phases.join(", "));
        }
        out
    }

    /// The one-line form the slow-query log embeds:
    /// `prepare=… execute=… ops=N op_rows=R`, `R` being
    /// [`QueryTrace::scanned_rows`].
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, took) in &self.phases {
            let _ = write!(out, "{name}={} ", fmt_duration(*took));
        }
        let (ops, rows) = (self.operators.len(), self.scanned_rows());
        let _ = write!(out, "ops={ops} op_rows={rows}");
        out
    }
}

/// Human-scale duration: µs below 1 ms, fractional ms below 1 s, then
/// seconds.
fn fmt_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros} µs")
    } else if micros < 1_000_000 {
        format!("{:.2} ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2} s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: OpKind, label: &str, est_rows: u64, rows: u64, millis: u64) -> OpSpan {
        OpSpan {
            kind,
            label: label.to_owned(),
            est_rows,
            rows,
            time: Duration::from_millis(millis),
            access: None,
            reads_build: None,
            exchange: None,
        }
    }

    fn sample() -> QueryTrace {
        let mut t = QueryTrace::default();
        t.phase("parse", Duration::from_micros(120));
        t.phase("plan", Duration::from_micros(480));
        t.phase("execute", Duration::from_millis(12));
        let mut title = span(OpKind::Scan, "?article <dc:title> ?title", 100, 96, 3);
        title.access = Some(StepAccess {
            lookups: 1,
            ..StepAccess::default()
        });
        let mut issued = span(OpKind::Scan, "?article <dcterms:issued> ?yr", 100, 250, 9);
        issued.access = Some(StepAccess {
            lookups: 100,
            fetched: Some(100),
            probes: 150,
        });
        t.operators = vec![title, issued];
        t
    }

    #[test]
    fn render_shows_phases_and_operator_columns() {
        let text = sample().render();
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("plan"), "{text}");
        assert!(text.contains("execute"), "{text}");
        assert!(
            text.contains("est 100, rows 96, time 3.00 ms, lookup ×1\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "est 100, rows 250, time 9.00 ms, lookup ×100 → fetch 100 triples, probes 150\n"
            ),
            "{text}"
        );
    }

    /// The whole report, line for line: a driving step an exchange split
    /// (no access path of its own), a fetching step, the build side of a
    /// split BGP, the hash join of the two halves with its estimated
    /// output, and both ways an exchange can run — the shapes CI greps
    /// for.
    #[test]
    fn render_pins_every_line_shape() {
        let mut t = QueryTrace::default();
        t.phase("prepare", Duration::from_micros(250));
        t.phase("execute", Duration::from_millis(40));
        let mut driving = span(OpKind::Scan, "?a <p> ?b", 8, 8, 1);
        driving.exchange = Some(ExchangeRun {
            degree: 2,
            morsels: 8,
            inline: 1,
            workers: 2,
        });
        let mut fetching = span(OpKind::Scan, "?b <q> ?c", 50, 400, 20);
        fetching.access = Some(StepAccess {
            lookups: 50,
            fetched: Some(50),
            probes: 350,
        });
        let mut build = span(OpKind::Scan, "?c <r> ?d", 30, 30, 0);
        build.exchange = Some(ExchangeRun {
            degree: 2,
            morsels: 4,
            inline: 4,
            workers: 0,
        });
        let join = span(OpKind::Join, "hash-join ?2 + residual", 1200, 1000, 15);
        t.operators = vec![driving, fetching, build, join];
        assert_eq!(
            t.render(),
            "join order (estimated cardinality vs actual rows emitted):\n   \
             1. ?a <p> ?b  est 8, rows 8, time 1.00 ms\n   \
             2. ?b <q> ?c  est 50, rows 400, time 20.00 ms, lookup ×50 → fetch 50 triples, probes 350\n   \
             3. ?c <r> ?d  est 30, rows 30, time 0 µs\n   \
             4. hash-join ?2 + residual  est 1200, rows 1000, time 15.00 ms\n  \
             exchange ×2 over step 1: morsels 0–0 of 8 inline, 1–7 on 2 workers\n  \
             exchange ×2 over step 3: 4 morsels, all inline\n  \
             total: estimated 88, emitted 438 rows, operators 36.00 ms\n  \
             phases: prepare 250 µs, execute 40.00 ms"
        );
        assert!(t.fanned_out());
        assert_eq!(t.scanned_rows(), 438);
        t.operators[0].exchange = Some(ExchangeRun {
            degree: 2,
            ..ExchangeRun::default()
        });
        assert!(!t.fanned_out());
        assert!(t
            .render()
            .contains("\n  exchange ×2 over step 1: not split\n"));
    }

    #[test]
    fn summary_is_one_line_with_phase_times() {
        let line = sample().summary();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains("parse=120 µs"), "{line}");
        assert!(line.contains("execute=12.00 ms"), "{line}");
        assert!(line.contains("ops=2 op_rows=346"), "{line}");
    }

    /// A join's output is not scan work: `op_rows` counts pattern steps
    /// only, as the report's `total` line does.
    #[test]
    fn summary_counts_pattern_steps_only() {
        let mut t = sample();
        t.operators.push(span(
            OpKind::Join,
            "hash-anti-join ?1 + residual",
            1,
            671,
            1,
        ));
        assert!(
            t.summary().ends_with("ops=3 op_rows=346"),
            "{}",
            t.summary()
        );
        assert!(t.render().contains("emitted 346 rows"));
    }

    #[test]
    fn total_sums_phases() {
        assert_eq!(sample().total(), Duration::from_micros(12_600));
    }
}
