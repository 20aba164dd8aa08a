//! What every workload shares: run arguments, the correctness tally,
//! the time-boxed pass loop, and process CPU / memory sampling.

use std::time::{Duration, Instant};

use sp2b_core::metrics::sample_proc;

use crate::spec::Measured;
use crate::stats::{median, penalised_means, summarize, Summary};
use crate::trace::Tracer;

/// How often a workload builds its set-up from nothing; `setup_s` and
/// the set-up-derived `load_s` are medians over these repetitions.
pub const SETUP_REPS: usize = 9;

/// A time-boxed phase runs at least this many passes even when they do
/// not fit its budget, so a median always has samples behind it.
pub const MIN_PASSES: usize = 3;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seeds the generated document, the request mix and the arrival
    /// schedule.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
}

/// Operations attempted and failed, plus broken invariants, in words.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    /// Counts one operation; a failed one is described once per distinct
    /// message (a systematic failure would otherwise print per request).
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(describe());
        }
    }

    /// Records a broken invariant that is not one operation's failure.
    pub fn problem(&mut self, message: String) {
        if !self.problems.contains(&message) && self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub measured: Measured,
    pub checker: Checker,
    pub tracer: Tracer,
}

/// Runs `pass` until the next one would not fit `budget`, but at least
/// [`MIN_PASSES`] times. Returns each pass's wall seconds. The stop is
/// predictive (elapsed + slowest pass so far), so a phase never overruns
/// its budget by a whole pass and the run length stays what the driver
/// asked for.
pub fn timed_passes(budget: Duration, mut pass: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        if walls.len() >= MIN_PASSES
            && start.elapsed().as_secs_f64() + slowest > budget.as_secs_f64()
        {
            return walls;
        }
        let t = Instant::now();
        pass(walls.len());
        walls.push(t.elapsed().as_secs_f64());
    }
}

/// Process CPU seconds (usr + sys, all threads) so far.
pub fn cpu_seconds() -> f64 {
    sample_proc().map_or(0.0, |s| (s.utime + s.stime).as_secs_f64())
}

/// Peak resident set of this process in MiB (`VmHWM`, or the current
/// RSS where the kernel hides the watermark).
pub fn peak_rss_mib() -> f64 {
    sample_proc()
        .and_then(|s| s.vm_hwm_kib.or(s.vm_rss_kib))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU seconds and peak memory of a timed section, per pass.
pub struct SectionCost {
    cpu_before: f64,
}

impl SectionCost {
    pub fn start() -> SectionCost {
        SectionCost {
            cpu_before: cpu_seconds(),
        }
    }

    /// Records `cpu_s` (per pass) and `peak_rss_mb`.
    pub fn finish(self, passes: usize, measured: &mut Measured) {
        let cpu = (cpu_seconds() - self.cpu_before) / passes.max(1) as f64;
        measured.set_exact("cpu_s", cpu);
        measured.set_exact("peak_rss_mb", peak_rss_mib());
    }
}

/// Builds a workload's set-up [`SETUP_REPS`] times from nothing (each
/// repetition dropped before the next is timed) and returns the last
/// one with every repetition's seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut built = None;
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_REPS > 0"), seconds)
}

/// The four timing metrics every workload reports end to end.
pub struct EndToEnd<'a> {
    pub setup_reps_s: &'a [f64],
    pub warmup_s: f64,
    /// Loading-time samples: timed passes on ingest, set-ups elsewhere.
    pub load_s: &'a [f64],
    /// Median seconds per operation kind, `None` for a failed kind.
    pub kind_medians: &'a [Option<f64>],
}

impl EndToEnd<'_> {
    /// `setup_s` is the median set-up repetition **plus** the one warm-up
    /// pass — everything a user waits for before the first timed
    /// operation, so work moved out of the timed section (an index built
    /// lazily by the first query, say) still shows. `ta_s`/`tg_s` are
    /// the paper's penalised means over the workload's operation kinds.
    pub fn record(&self, m: &mut Measured) {
        let setup = summarize(self.setup_reps_s);
        m.set(
            "setup_s",
            Summary {
                n: setup.n,
                median: setup.median + self.warmup_s,
                q1: setup.q1 + self.warmup_s,
                q3: setup.q3 + self.warmup_s,
            },
        );
        m.set("load_s", summarize(self.load_s));
        let (ta, tg) = penalised_means(self.kind_medians);
        m.set_exact("ta_s", ta);
        m.set_exact("tg_s", tg);
    }
}

/// Median of `f` over `reps` calls, in seconds.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> Summary {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples)
}

/// Tracing overhead in percent: traced vs untraced per-pass median.
pub fn trace_overhead_pct(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    let base = median(untraced_s);
    if base == 0.0 {
        0.0
    } else {
        (median(traced_s) - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_passes_respect_floor_and_budget() {
        // A zero budget still runs the floor.
        let walls = timed_passes(Duration::ZERO, |_| ());
        assert_eq!(walls.len(), MIN_PASSES);
        // 5 ms passes in a 40 ms budget: more than the floor, fewer than
        // would overrun.
        let start = Instant::now();
        let walls = timed_passes(Duration::from_millis(40), |_| {
            std::thread::sleep(Duration::from_millis(5))
        });
        assert!(
            walls.len() > MIN_PASSES && walls.len() <= 8,
            "{}",
            walls.len()
        );
        assert!(start.elapsed() < Duration::from_millis(60));
    }

    #[test]
    fn checker_counts_and_deduplicates() {
        let mut c = Checker::default();
        c.check(true, || unreachable!());
        c.check(false, || "Q4 returned 3".to_owned());
        c.check(false, || "Q4 returned 3".to_owned());
        assert_eq!((c.attempted, c.failed, c.problems.len()), (3, 2, 1));
        assert!(!c.correct());
        assert!((c.fail_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_adds_the_warmup_and_penalises_failed_kinds() {
        let mut m = Measured::default();
        EndToEnd {
            setup_reps_s: &[1.0, 2.0, 3.0],
            warmup_s: 10.0,
            load_s: &[0.5, 0.7, 0.6],
            kind_medians: &[Some(1.0), None],
        }
        .record(&mut m);
        let setup = m.get("setup_s").unwrap();
        assert_eq!((setup.median, setup.q1, setup.q3), (12.0, 11.0, 13.0));
        assert_eq!(m.get("load_s").unwrap().median, 0.6);
        assert_eq!(m.get("ta_s").unwrap().median, 1800.5);
    }

    #[test]
    fn setup_repeats_and_keeps_the_last_build() {
        let mut n = 0;
        let (last, seconds) = repeat_setup(|| {
            n += 1;
            n
        });
        assert_eq!((last, seconds.len()), (SETUP_REPS, SETUP_REPS));
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        assert!((trace_overhead_pct(&[2.0, 2.0], &[2.1, 2.1]) - 5.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(&[], &[1.0]), 0.0);
    }
}
