//! The benchmark metrics of Section VI-B.
//!
//! The paper reports wall-clock (`tme`), user/system CPU time (`usr`,
//! `sys`, from the proc file system) and the resident-memory high
//! watermark (`rmem`). We read the same counters from `/proc/self/stat`
//! (fields 14/15) and `/proc/self/status` (`VmHWM`/`VmRSS`); on non-Linux
//! platforms the CPU/memory channels degrade to `None` and only `tme` is
//! reported. The aggregate metrics — arithmetic and geometric mean with a
//! 3600 s penalty for failed queries — follow Section VI-B item 4.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Failed queries are ranked with 3600 s in the means, "to penalize
/// timeouts and other errors" (Section VI-B).
pub const PENALTY_SECONDS: f64 = 3600.0;

/// A point-in-time reading of this process' CPU/memory counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Cumulative user-mode CPU time.
    pub utime: Duration,
    /// Cumulative kernel-mode CPU time.
    pub stime: Duration,
    /// Peak resident set size, in KiB (`VmHWM`).
    pub vm_hwm_kib: Option<u64>,
    /// Current resident set size, in KiB (`VmRSS`).
    pub vm_rss_kib: Option<u64>,
}

/// Clock ticks per second for `/proc/self/stat`: the kernel hands every
/// process its `AT_CLKTCK` in the auxiliary vector, so no child process
/// (and no `SIGCHLD`) is needed to learn it. Falls back to Linux's
/// universal 100 Hz.
fn clock_ticks_per_second() -> u64 {
    static TICKS: OnceLock<u64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        std::fs::read("/proc/self/auxv")
            .ok()
            .and_then(|auxv| auxv_clock_ticks(&auxv))
            .unwrap_or(100)
    })
}

/// Finds `AT_CLKTCK` in a raw auxiliary vector: native-endian
/// `(key, value)` pairs of machine words.
fn auxv_clock_ticks(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: usize = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let word = |bytes: &[u8]| usize::from_ne_bytes(bytes.try_into().expect("WORD-sized chunk"));
    auxv.chunks_exact(2 * WORD)
        .find(|pair| word(&pair[..WORD]) == AT_CLKTCK)
        .map(|pair| word(&pair[WORD..]) as u64)
        .filter(|&ticks| ticks > 0)
}

/// Reads the current process sample; `None` off Linux.
pub fn sample_proc() -> Option<ProcSample> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 is `(comm)` and may contain spaces; skip past the final ')'.
    let after = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the comm field: state=0, ..., utime is overall field 14 →
    // index 11 here, stime index 12.
    let ticks = clock_ticks_per_second();
    let to_duration = |v: &str| -> Option<Duration> {
        let t: u64 = v.parse().ok()?;
        Some(Duration::from_secs_f64(t as f64 / ticks as f64))
    };
    let utime = to_duration(fields.get(11)?)?;
    let stime = to_duration(fields.get(12)?)?;

    let status = std::fs::read_to_string("/proc/self/status").ok();
    let grab = |key: &str| -> Option<u64> {
        status
            .as_deref()?
            .lines()
            .find(|l| l.starts_with(key))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    };
    Some(ProcSample {
        utime,
        stime,
        vm_hwm_kib: grab("VmHWM:"),
        vm_rss_kib: grab("VmRSS:"),
    })
}

/// One timed measurement: `tme` plus CPU deltas and the memory watermark
/// observed after the measured section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// Elapsed wall-clock time.
    pub tme: Duration,
    /// User CPU time consumed by the section (whole process).
    pub usr: Option<Duration>,
    /// System CPU time consumed by the section (whole process).
    pub sys: Option<Duration>,
    /// Peak resident memory after the section, KiB.
    pub rmem_kib: Option<u64>,
}

impl Measurement {
    /// Formats like the paper's plots: `tme` always, `usr+sys` if known.
    pub fn summary(&self) -> String {
        match (self.usr, self.sys) {
            (Some(u), Some(s)) => format!(
                "tme={:.4}s usr+sys={:.4}s",
                self.tme.as_secs_f64(),
                (u + s).as_secs_f64()
            ),
            _ => format!("tme={:.4}s", self.tme.as_secs_f64()),
        }
    }
}

/// Runs `f`, measuring wall-clock and CPU deltas around it.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Measurement) {
    let before = sample_proc();
    let start = Instant::now();
    let value = f();
    let tme = start.elapsed();
    let after = sample_proc();
    let m = match (before, after) {
        (Some(b), Some(a)) => Measurement {
            tme,
            usr: Some(a.utime.saturating_sub(b.utime)),
            sys: Some(a.stime.saturating_sub(b.stime)),
            // Sandboxed kernels often hide VmHWM; current RSS is the
            // closest observable proxy for the watermark then.
            rmem_kib: a.vm_hwm_kib.or(a.vm_rss_kib),
        },
        _ => Measurement {
            tme,
            ..Default::default()
        },
    };
    (value, m)
}

/// Arithmetic mean of seconds.
pub fn arithmetic_mean(times: &[f64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    times.iter().sum::<f64>() / times.len() as f64
}

/// Geometric mean of seconds: "the nth root of the product over n
/// numbers" — computed in log space for stability.
pub fn geometric_mean(times: &[f64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = times.iter().map(|t| t.max(1e-9).ln()).sum();
    (log_sum / times.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_sampling_works_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let s = sample_proc().expect("Linux must expose /proc/self");
        assert!(s.vm_rss_kib.unwrap_or(0) > 0, "process uses memory");
    }

    #[test]
    fn clock_ticks_come_from_the_auxiliary_vector() {
        let pair = |key: usize, value: usize| [key.to_ne_bytes(), value.to_ne_bytes()].concat();
        let auxv = [pair(6, 4096), pair(17, 250), pair(0, 0)].concat();
        assert_eq!(auxv_clock_ticks(&auxv), Some(250));
        assert_eq!(auxv_clock_ticks(&pair(6, 4096)), None, "no AT_CLKTCK entry");
        assert_eq!(auxv_clock_ticks(&pair(17, 0)), None, "zero is not a rate");
        if cfg!(target_os = "linux") {
            let auxv = std::fs::read("/proc/self/auxv").expect("Linux exposes the auxv");
            assert_eq!(auxv_clock_ticks(&auxv), Some(clock_ticks_per_second()));
            // The scale `sample_proc` divides by is what `getconf CLK_TCK`
            // used to report: 100 Hz on every mainstream Linux.
            assert_eq!(clock_ticks_per_second(), 100);
        }
    }

    #[test]
    fn measure_times_the_section() {
        let ((), m) = measure(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(m.tme >= Duration::from_millis(25), "{:?}", m.tme);
    }

    #[test]
    fn cpu_time_accumulates_under_load() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let (sum, m) = measure(|| {
            // ~50 ms of CPU spin.
            let mut acc: u64 = 0;
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(60) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        });
        assert_ne!(sum, 1); // defeat optimizer
        let usr = m.usr.unwrap() + m.sys.unwrap();
        assert!(usr >= Duration::from_millis(10), "usr+sys {usr:?}");
    }

    #[test]
    fn means_match_hand_computation() {
        let times = [1.0, 4.0, 16.0];
        assert!((arithmetic_mean(&times) - 7.0).abs() < 1e-12);
        assert!((geometric_mean(&times) - 4.0).abs() < 1e-9);
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_moderates_outliers() {
        // The paper: "The geometric mean moderates the impact of these
        // outliers."
        let with_penalty = [0.01, 0.02, PENALTY_SECONDS];
        let geo = geometric_mean(&with_penalty);
        let arith = arithmetic_mean(&with_penalty);
        assert!(geo < arith / 10.0, "geo {geo} vs arith {arith}");
    }
}
