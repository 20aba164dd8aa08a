//! Harness-side spans. The benchmark records a span around each call
//! into a layer's public functions — nothing inside the measured crates
//! is instrumented — keeps them in memory, and writes them out when the
//! run ends. A disabled tracer costs one branch per call, so the same
//! harness code runs traced and untraced.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` is the span that was open when this one
/// started; spans of one request/query share their root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Threads that trace concurrently
/// (the serve workload's clients) each own one built from the same
/// `epoch` and are merged with [`Tracer::absorb`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between passes (never inside an
    /// open span: `exit` must see the state `enter` saw).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling inside an open span");
        self.enabled = enabled;
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// Records an already-timed child of the innermost open span (the
    /// client threads stamp send / first byte / body end themselves).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// A position to aggregate from (see [`Tracer::totals_since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total nanoseconds per span name among spans recorded since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans[mark..] {
            *totals.entry(span.name.as_str()).or_insert(0) += span.duration_ns();
        }
        totals
    }

    /// Appends another thread's spans, renumbering ids past this
    /// tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// The trace file: `{"spans":[{id,parent,name,start_ns,end_ns,self_ns},…]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "spans",
            Json::Arr(
                self.spans
                    .iter()
                    .zip(self_times_ns(&self.spans))
                    .map(|(s, self_ns)| {
                        Json::obj([
                            ("id", Json::Num(f64::from(s.id))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            ),
                            ("name", Json::str(s.name.as_str())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_ns", Json::Num(self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover, indexed like `spans`. Children of one parent never overlap
/// (each tracer is single-threaded), so covered time is their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Of all root spans whose name starts with `root`: the share of their
/// total time that their direct children account for (1.0 = children
/// sum to the roots). `spans` may be a tail of a tracer's spans; parents
/// are found by id.
pub fn child_coverage(spans: &[Span], root: &str) -> f64 {
    let first = spans.first().map_or(0, |s| s.id);
    let is_root = |s: &Span| s.parent.is_none() && s.name.starts_with(root);
    let mut root_ns = 0u64;
    let mut child_ns = 0u64;
    for span in spans {
        if is_root(span) {
            root_ns += span.duration_ns();
        } else if let Some(parent) = span.parent.and_then(|p| p.checked_sub(first)) {
            if is_root(&spans[parent as usize]) {
                child_ns += span.duration_ns();
            }
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        child_ns as f64 / root_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_once_per_level() {
        let spans = vec![
            span(0, None, "query", 0, 100),
            span(1, Some(0), "sparql.parse", 5, 15),
            span(2, Some(0), "sparql.exec", 20, 90),
            span(3, Some(2), "store.scan", 30, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 30, 40]);
        // Direct children of the root cover 10 + 70 of its 100 ns.
        assert!((child_coverage(&spans, "query") - 0.8).abs() < 1e-12);
        assert_eq!(child_coverage(&spans, "absent"), 0.0);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("root");
        t.span("a", || ());
        t.enter("b");
        t.span("c", || ());
        t.exit();
        t.exit();
        t.span("root2", || ());
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let totals = t.totals_since(1);
        assert_eq!(
            totals.len(),
            4,
            "root itself is before the mark: {totals:?}"
        );
        for (own, span) in self_times_ns(t.spans()).iter().zip(t.spans()) {
            assert!(*own <= span.duration_ns());
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", || 7), 7);
        t.record("y", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", || ());
        let mut b = Tracer::new(true, epoch);
        b.enter("request");
        b.record("send", epoch, epoch);
        b.exit();
        a.absorb(b);
        let ids: Vec<(u32, Option<u32>)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, None), (1, None), (2, Some(1))]);
        let back = crate::json::parse(&a.to_json().to_line()).unwrap();
        assert_eq!(back.get("spans").and_then(Json::as_arr).unwrap().len(), 3);
    }
}
