//! The write path allocates per term, not per line: generating the
//! default-seed 50k-triple document, parsing it and loading it into a
//! 2-shard store each make a counted number of heap allocations, held
//! under fixed bounds.
//!
//! A counting global allocator tallies the allocations and reallocations
//! made on the test's own thread. Generation, parsing and the load
//! route's interning all run there; a sharded load's builder threads do
//! not, and are not counted. The counts repeat exactly from run to run,
//! and each test prints its own, so a change shows as a diff:
//! `cargo test --release --test ingest_allocations -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sp2bench::datagen::{generate_document, generate_to_writer, Config};
use sp2bench::rdf::ntriples::Parser;
use sp2bench::rdf::Triple;
use sp2bench::store::{sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy};
use sp2bench::TripleStore;

struct Counting;

thread_local! {
    /// Allocations on this thread while counting is on; `None` when off.
    /// Const-initialized and without a destructor, so reading it from
    /// inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
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

/// Triples of the counted document.
const TRIPLES: u64 = 50_000;

/// The default-seed document, generated uncounted.
fn document() -> Vec<u8> {
    generate_document(Config::triples(TRIPLES)).0
}

#[test]
fn generating_allocates_per_document_not_per_triple() {
    // Into a sink that keeps nothing: what is counted is generation and
    // serialization, not the growth of a destination buffer.
    let (stats, n) =
        allocations(|| generate_to_writer(Config::triples(TRIPLES), std::io::sink()).unwrap());
    eprintln!("generate_to_writer, {TRIPLES} triples: {n} allocations");
    assert_eq!(stats.triples, TRIPLES);
    assert!(
        n <= 228_287 / 4,
        "{n} allocations generating {TRIPLES} triples"
    );
}

#[test]
fn parsing_owned_triples_allocates_once_per_string() {
    let doc = document();
    let (triples, n) = allocations(|| {
        Parser::new(&doc[..])
            .collect::<Result<Vec<Triple>, _>>()
            .unwrap()
    });
    eprintln!("Parser into Vec<Triple>, {TRIPLES} triples: {n} allocations");
    assert_eq!(triples.len() as u64, TRIPLES);
    assert!(n <= 190_000, "{n} allocations parsing {TRIPLES} triples");
}

#[test]
fn the_load_route_allocates_per_batch_and_new_term() {
    let doc = document();
    let backend = ShardBackend::Native(IndexSelection::all());
    let (store, n) =
        allocations(|| sharded_store_from_reader(&doc[..], 2, ShardBy::Subject, backend).unwrap());
    eprintln!("sharded_store_from_reader, 2 shards, {TRIPLES} triples: {n} allocations");
    assert_eq!(store.len() as u64, TRIPLES);
    assert!(n <= 1_000, "{n} allocations loading {TRIPLES} triples");
}
