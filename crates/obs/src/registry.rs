//! The process-global metrics registry.
//!
//! Every series has a unique name, carries no labels, and is one of two
//! kinds. Scalar series are callbacks ([`MetricsRegistry::counter_fn`],
//! [`MetricsRegistry::gauge_fn`]) over state their owner already keeps —
//! the server's counters and queue, the block cache, the exchange gauges
//! — sampled at render time. Latency distributions are [`Histogram`]s,
//! whose handle records with relaxed atomic ops. Rendering walks the
//! registry and produces either Prometheus text exposition or a JSON
//! object; neither touches the hot path.
//!
//! Asking for an existing histogram returns a handle to the same series,
//! so re-spawning a server in one process keeps its request histogram
//! monotone. A callback registration *replaces* a previous series of the
//! same name — the latest owner of the name wins, which is what a
//! re-spawned server wants.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::{AtomicHistogram, LatencyHistogram};

/// A registered latency histogram. Cloning shares the series.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        self.0.record(latency);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Point-in-time copy for quantile readout.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.snapshot()
    }
}

enum Source {
    Histogram(Arc<AtomicHistogram>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    source: Source,
}

/// A named collection of metric series. Most code uses the process
/// [`global`] registry; tests can build private ones.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        MetricsRegistry {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or retrieves) the histogram `name`.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        let mut entries = self.lock();
        if let Some(Source::Histogram(cell)) =
            entries.iter().find(|e| e.name == name).map(|e| &e.source)
        {
            return Histogram(cell.clone());
        }
        let cell = Arc::new(AtomicHistogram::new());
        Self::put(&mut entries, name, help, Source::Histogram(cell.clone()));
        Histogram(cell)
    }

    /// Registers the counter `name` as a callback sampled at render time
    /// (for monotone values that already live elsewhere, like cache hit
    /// totals). Replaces any previous registration of the name.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        Self::put(&mut self.lock(), name, help, Source::CounterFn(Box::new(f)));
    }

    /// Registers the gauge `name` as a callback sampled at render time.
    /// Replaces any previous registration of the name.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        Self::put(&mut self.lock(), name, help, Source::GaugeFn(Box::new(f)));
    }

    fn put(entries: &mut Vec<Entry>, name: &'static str, help: &'static str, source: Source) {
        let entry = Entry { name, help, source };
        match entries.iter_mut().find(|e| e.name == name) {
            Some(existing) => *existing = entry,
            None => entries.push(entry),
        }
    }

    /// Renders every series in Prometheus text exposition format: a
    /// `# HELP` / `# TYPE` preamble per series, histograms as cumulative
    /// `_bucket{le="…"}` plus `_sum`/`_count`, in seconds.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        for e in self.lock().iter() {
            let kind = match e.source {
                Source::CounterFn(_) => "counter",
                Source::GaugeFn(_) => "gauge",
                Source::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
            match &e.source {
                Source::CounterFn(f) => {
                    let _ = writeln!(out, "{} {}", e.name, f());
                }
                Source::GaugeFn(f) => {
                    let _ = writeln!(out, "{} {}", e.name, f());
                }
                Source::Histogram(h) => {
                    let snap = h.snapshot();
                    for (edge, cumulative) in snap.cumulative_buckets() {
                        let le = finite(edge.as_secs_f64());
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", e.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, snap.count());
                    let _ = writeln!(out, "{}_sum {}", e.name, finite(snap.sum().as_secs_f64()));
                    let _ = writeln!(out, "{}_count {}", e.name, snap.count());
                }
            }
        }
        out
    }

    /// Renders every series as one JSON object keyed by name: scalar
    /// series as numbers, histograms as the [`histogram_json`] summary
    /// object.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        out.push('{');
        for (i, e) in self.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", e.name);
            match &e.source {
                Source::CounterFn(f) => {
                    let _ = write!(out, "{}", f());
                }
                Source::GaugeFn(f) => {
                    let _ = write!(out, "{}", f());
                }
                Source::Histogram(h) => {
                    out.push_str(&histogram_json(&h.snapshot()));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Renders one histogram as the JSON summary object used everywhere a
/// histogram appears in machine-readable output (the server's `/stats`,
/// the workload driver's `--report json:FILE`): `{count, sum_seconds,
/// mean_seconds, p50_seconds, p95_seconds, p99_seconds, max_seconds}`.
pub fn histogram_json(snap: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"sum_seconds\":{},\"mean_seconds\":{},\
         \"p50_seconds\":{},\"p95_seconds\":{},\"p99_seconds\":{},\
         \"max_seconds\":{}}}",
        snap.count(),
        finite(snap.sum().as_secs_f64()),
        finite(snap.mean().as_secs_f64()),
        finite(snap.quantile(0.50).as_secs_f64()),
        finite(snap.quantile(0.95).as_secs_f64()),
        finite(snap.quantile(0.99).as_secs_f64()),
        finite(snap.max().as_secs_f64()),
    )
}

/// Guards against `inf`/`NaN` leaking into exposition output (neither
/// is valid JSON; Prometheus would accept them but never wants them
/// from us).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-global registry every subsystem registers into and the
/// server's `/metrics` + `/stats` endpoints render from.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shares_the_series() {
        let r = MetricsRegistry::new();
        let a = r.histogram("t_seconds", "latency");
        let b = r.histogram("t_seconds", "latency");
        a.record(Duration::from_millis(1));
        b.record(Duration::from_millis(2));
        assert_eq!(a.count(), 2);
        assert_eq!(b.count(), 2);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE t_seconds ").count(), 1, "{text}");
    }

    #[test]
    fn prometheus_rendering_has_preambles_and_histogram_series() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_seconds", "a histogram");
        h.record(Duration::from_millis(5));
        h.record(Duration::from_millis(50));
        r.counter_fn("t_fn_total", "a sampled counter", || 11);
        r.gauge_fn("t_fn_gauge", "a sampled gauge", || -3);

        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP t_fn_total a sampled counter"),
            "{text}"
        );
        assert!(text.contains("# TYPE t_fn_total counter"), "{text}");
        assert!(text.contains("# TYPE t_fn_gauge gauge"), "{text}");
        assert!(text.contains("# TYPE t_seconds histogram"), "{text}");
        assert!(text.contains("t_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("t_seconds_count 2"), "{text}");
        assert!(text.contains("\nt_fn_total 11\n"), "{text}");
        assert!(text.contains("\nt_fn_gauge -3\n"), "{text}");
        // Every non-comment line is `name[{le="…"}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            assert!(parts.next().is_some_and(|n| n.starts_with("t_")), "{line}");
            let value = parts.next().expect("value column");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
            assert_eq!(parts.next(), None, "trailing columns: {line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_lat_seconds", "latency");
        for us in [2u64, 20, 200, 2_000, 20_000] {
            h.record(Duration::from_micros(us));
        }
        let text = r.render_prometheus();
        let mut previous = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("t_lat_seconds_bucket{le=") {
                let value: u64 = rest.split_whitespace().nth(1).unwrap().parse().unwrap();
                assert!(value >= previous, "{line}");
                previous = value;
                buckets += 1;
            }
        }
        assert!(
            buckets > 10,
            "expected the full bucket ladder, got {buckets}"
        );
        assert_eq!(previous, 5, "+Inf bucket must equal the count");
    }

    #[test]
    fn json_rendering_is_balanced_and_carries_quantiles() {
        let r = MetricsRegistry::new();
        r.counter_fn("t_a_total", "a", || 1);
        let h = r.histogram("t_b_seconds", "b");
        h.record(Duration::from_millis(3));
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"t_a_total\":1"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"p99_seconds\":"), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn callback_registration_replaces_the_previous_owner() {
        let r = MetricsRegistry::new();
        r.gauge_fn("t_replace", "first", || 1);
        r.gauge_fn("t_replace", "second", || 2);
        let text = r.render_prometheus();
        assert!(text.contains("\nt_replace 2\n"), "{text}");
        let value_lines = text.lines().filter(|l| l.starts_with("t_replace ")).count();
        assert_eq!(value_lines, 1, "{text}");
    }

    #[test]
    fn histogram_json_matches_the_registry_rendering() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_one_seconds", "h");
        h.record(Duration::from_millis(7));
        let standalone = histogram_json(&h.snapshot());
        assert!(r.render_json().contains(&standalone));
        assert!(standalone.contains("\"count\":1"), "{standalone}");
    }
}
