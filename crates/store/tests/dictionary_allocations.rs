//! The dictionary's two hot paths do not allocate: interning a term it
//! already holds (what loading does for five of every six terms of a
//! document) and decoding an id (what FILTER, ORDER BY and the
//! serializers do per cell). Counted, not argued: this binary installs
//! an allocator that counts the calls made on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sp2b_rdf::{Iri, Literal, Subject, Term, TermRef, Triple};
use sp2b_store::Dictionary;

thread_local! {
    // Const-initialized and without a destructor, so reading it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn reinterning_and_decoding_allocate_nothing() {
    let mut lang = Literal::plain("grüße");
    lang.language = Some("de".into());
    let triples = [
        Triple::new(
            Subject::iri("http://x/article/1"),
            Iri::new("http://x/title"),
            Term::Literal(Literal::string("On the allocation of nothing")),
        ),
        Triple::new(
            Subject::blank("Paul_Erdoes"),
            Iri::new("http://x/year"),
            Term::Literal(Literal::integer(1940)),
        ),
        Triple::new(
            Subject::iri("http://x/article/1"),
            Iri::new("http://x/greeting"),
            Term::Literal(lang),
        ),
    ];
    let mut dict = Dictionary::new();
    let ids: Vec<_> = triples.iter().map(|t| dict.encode_triple(t)).collect();
    let absent = Term::iri("http://x/article/2");
    assert!(allocations() > 0, "the counter is live");

    let before = allocations();
    let terms = dict.len();
    let mut text = 0;
    for _ in 0..100 {
        for (t, id) in triples.iter().zip(&ids) {
            assert_eq!(dict.encode_triple(t), *id);
            assert_eq!(dict.lookup(&t.object), Some(id[2]));
            for term in id.map(|id| dict.decode(id)) {
                text += match term {
                    TermRef::Iri(s) | TermRef::Blank(s) => s.len(),
                    TermRef::Literal(l) => l.lexical.len() + l.as_integer().is_some() as usize,
                };
            }
            assert!(dict.decode(id[0]) != dict.decode(id[1]));
            let _ = dict.decode(id[2]).cmp(&dict.decode(ids[0][2]));
        }
        assert_eq!(dict.lookup(&absent), None);
    }
    let after = allocations();
    assert_eq!(dict.len(), terms);
    assert!(text > 0);
    assert_eq!(after - before, 0, "hits and decodes must not allocate");

    // And the counter would have seen one: a miss appends.
    dict.encode(&absent);
    let _owned = dict.decode(0).to_term();
    assert!(allocations() > after);
}
