//! Solution rows stay off the heap: counting Q4, Q5a and Q6 on a
//! generated document makes far fewer heap allocations than the operators
//! emit rows. A row is inline id lanes, so extending one, emitting a join
//! match and filing a build row copy it; a join key and a `DISTINCT` key
//! pack into integers; a probe reuses one match buffer. What allocates is
//! per operator or per table — a build side, a fetched pattern, a
//! pre-sized `DISTINCT` set — and per store lookup, whose scan iterator
//! the store boxes (the trace counts those lookups).
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread; parallelism 1 keeps every operator there.

mod common;

use common::loaded;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sp2bench::core::{BenchQuery, EngineKind};
use sp2bench::datagen::{generate_graph, Config};
use sp2bench::sparql::{query_trace, ScanCounters};

struct Counting;

thread_local! {
    /// Allocations on this thread while counting is on; `None` when off.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = work();
    let n = ALLOCATIONS.with(|n| n.take()).expect("counting was on");
    (out, n)
}

#[test]
fn counting_allocates_far_less_than_once_per_row() {
    let (graph, _) = generate_graph(Config::triples(5_000));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    for q in [BenchQuery::Q4, BenchQuery::Q5a, BenchQuery::Q6] {
        let counters = Arc::new(ScanCounters::default());
        let qe = engine
            .query_engine_with(None, Some(1))
            .scan_counters(counters.clone());
        let prepared = qe.prepare(q.text()).expect("prepares");
        // Untimed warm-up: the dictionary's value ranks are built on
        // first use, and the counters' map makes room for each operator.
        let expected = qe.count(&prepared).expect("counts");
        let (count, allocated) = allocations(|| qe.count(&prepared).expect("counts"));
        assert_eq!(count, expected);
        let trace = query_trace(&prepared, qe.store(), &counters);
        // Both counts ran: halve the tallies.
        let rows: u64 = trace.operators.iter().map(|op| op.rows).sum::<u64>() / 2;
        let lookups: u64 = trace
            .operators
            .iter()
            .filter_map(|op| op.access.map(|a| a.lookups))
            .sum::<u64>()
            / 2;
        assert!(rows > 1_000, "{q}: {rows} rows is too few to tell");
        let beyond_lookups = allocated.saturating_sub(lookups);
        assert!(
            beyond_lookups * 10 < rows,
            "{q}: {allocated} allocations ({lookups} store lookups) for {rows} rows emitted"
        );
    }
}
