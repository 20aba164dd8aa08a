//! Per-query execution traces.
//!
//! A [`QueryTrace`] records what one query spent its time on: the
//! coarse phases (parse → plan → execute) and, per scan or join operator,
//! the planner's estimated cardinality against the rows actually emitted
//! and the wall time spent producing them. `sp2b query --trace` prints
//! the full breakdown ([`QueryTrace::render`]); the server's slow-query
//! log embeds the one-line form ([`QueryTrace::summary`]).

use std::fmt::Write;
use std::time::Duration;

/// What kind of operator an [`OpSpan`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A BGP pattern step: a store scan extending its input rows.
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

/// One operator's span: planner estimate vs observed reality.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Scan or join.
    pub kind: OpKind,
    /// Display label (for BGP scans, the triple pattern; for joins, the
    /// algorithm and its key).
    pub label: String,
    /// The planner's estimated cardinality (for joins, of the build
    /// side).
    pub est_rows: u64,
    /// Rows the operator actually emitted.
    pub rows: u64,
    /// Wall time spent inside the operator.
    pub time: Duration,
    /// For a pattern step that looked anything up: how (see
    /// [`StepAccess`]). `None` for joins and for a driving scan an
    /// exchange split into morsels.
    pub access: Option<StepAccess>,
}

/// A per-query span record: timed phases plus per-operator spans.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    phases: Vec<(&'static str, Duration)>,
    /// Per-operator spans in plan (join-order) position.
    pub operators: Vec<OpSpan>,
}

impl QueryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Appends a timed phase (`parse`, `plan`, `execute`, …).
    pub fn phase(&mut self, name: &'static str, took: Duration) {
        self.phases.push((name, took));
    }

    /// The recorded phases, in order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.phases.iter().copied()
    }

    /// Sum of all phase times.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// The multi-line breakdown `--trace` prints: phase timings, then
    /// per-operator estimated vs actual rows vs wall time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace (phases):");
        for (name, took) in &self.phases {
            let _ = writeln!(out, "  {name:<9} {}", fmt_duration(*took));
        }
        let _ = writeln!(out, "  {:<9} {}", "total", fmt_duration(self.total()));
        if !self.operators.is_empty() {
            let _ = writeln!(out, "operators (estimated vs actual rows vs time):");
            let width = self
                .operators
                .iter()
                .map(|o| o.label.len())
                .max()
                .unwrap_or(0);
            for (i, op) in self.operators.iter().enumerate() {
                let _ = write!(
                    out,
                    "  {:>2}. {:<width$}  est {}, rows {}, time {}",
                    i + 1,
                    op.label,
                    op.est_rows,
                    op.rows,
                    fmt_duration(op.time),
                );
                if let Some(access) = op.access {
                    let _ = write!(out, ", {access}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// The one-line form the slow-query log embeds:
    /// `parse=… plan=… execute=… ops=N op_rows=R`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, took) in &self.phases {
            let _ = write!(out, "{name}={} ", fmt_duration(*took));
        }
        let _ = write!(
            out,
            "ops={} op_rows={}",
            self.operators.len(),
            self.operators.iter().map(|o| o.rows).sum::<u64>()
        );
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

    fn sample() -> QueryTrace {
        let mut t = QueryTrace::new();
        t.phase("parse", Duration::from_micros(120));
        t.phase("plan", Duration::from_micros(480));
        t.phase("execute", Duration::from_millis(12));
        t.operators.push(OpSpan {
            kind: OpKind::Scan,
            label: "?article <dc:title> ?title".to_owned(),
            est_rows: 100,
            rows: 96,
            time: Duration::from_millis(3),
            access: Some(StepAccess {
                lookups: 1,
                ..StepAccess::default()
            }),
        });
        t.operators.push(OpSpan {
            kind: OpKind::Scan,
            label: "?article <dcterms:issued> ?yr".to_owned(),
            est_rows: 100,
            rows: 250,
            time: Duration::from_millis(9),
            access: Some(StepAccess {
                lookups: 100,
                fetched: Some(100),
                probes: 150,
            }),
        });
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

    #[test]
    fn summary_is_one_line_with_phase_times() {
        let line = sample().summary();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains("parse=120 µs"), "{line}");
        assert!(line.contains("execute=12.00 ms"), "{line}");
        assert!(line.contains("ops=2 op_rows=346"), "{line}");
    }

    #[test]
    fn total_sums_phases() {
        assert_eq!(sample().total(), Duration::from_micros(12_600));
    }
}
