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
//! own thread, and the largest; parallelism 1 keeps every operator there.
//! The same allocator checks that an `ORDER BY` under a huge slice sizes
//! its buffer by the rows that arrive, not by offset + limit.

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
    /// The largest allocation on this thread while counting is on.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
            let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let (out, n, _) = allocations_and_largest(work);
    (out, n)
}

/// Like [`allocations`], with the largest one's size in bytes.
fn allocations_and_largest<T>(work: impl FnOnce() -> T) -> (T, u64, usize) {
    LARGEST.with(|largest| largest.set(0));
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = work();
    let n = ALLOCATIONS.with(|n| n.take()).expect("counting was on");
    (out, n, LARGEST.with(Cell::get))
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

#[test]
fn a_huge_slice_sizes_its_sort_by_the_rows_that_arrive() {
    let (graph, _) = generate_graph(Config::triples(5_000));
    let engine = loaded(EngineKind::NativeOpt, &graph);
    let qe = engine.query_engine_with(None, Some(1));
    let all = qe
        .prepare("SELECT ?s WHERE { ?s ?p ?o }")
        .and_then(|p| qe.count(&p))
        .expect("counts");
    // offset + limit saturates: nothing of that size may be reserved.
    let max = u64::MAX;
    let query = format!("SELECT ?s WHERE {{ ?s ?p ?o }} ORDER BY ?s LIMIT {max} OFFSET {max}");
    let prepared = qe.prepare(&query).expect("prepares");
    let (rows, allocated, largest) = allocations_and_largest(|| qe.solutions(&prepared).count());
    assert_eq!(rows, 0, "an offset past every row leaves none");
    // A slot per arrived row: the row, its key and its arrival number,
    // in vectors that at most double past what they hold.
    let per_row = 256;
    assert!(
        largest <= all as usize * per_row,
        "largest allocation {largest} B for {all} rows arrived ({allocated} allocations)"
    );
}
