//! The cheap path does not touch the allocator.
//!
//! A REACH_u request the guards resolve — an insert inside a tree, a
//! delete outside the forest — and any `set` runs a few probes and at
//! most two small plans installed through the rules' result relations;
//! every buffer involved (parameters, selections, plan arenas, result
//! relations, changed-set) is owned by the machine and reused. This
//! binary counts allocations under a wrapping global allocator and
//! requires zero for each.

use dynfo_core::{programs, DynFoMachine, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to `System` unchanged; the counter is a
// side effect that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

// One test in this binary: the counter is process-wide.
#[test]
fn guard_resolved_requests_allocate_nothing() {
    let mut m = DynFoMachine::new(programs::reach_u::program(), 32);
    // A path 0–1–2–3–4 and a chord: the chord is a within-tree insert,
    // and deleting it again a non-forest delete.
    for a in 0..4u32 {
        m.apply(&Request::ins("E", [a, a + 1])).unwrap();
    }
    let cases = [
        ("within-tree insert", Request::ins("E", [0, 3])),
        ("non-forest delete", Request::del("E", [0, 3])),
        ("set", Request::set("s", 7)),
    ];
    // First pass sizes whatever is sized lazily (arenas, bitmaps).
    for (_, req) in &cases {
        m.apply(req).unwrap();
    }
    for (what, req) in &cases {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let work = m.apply(req).unwrap();
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(work.rows_built, 0, "{what}: the interpreter ran");
        assert_eq!(allocated, 0, "{what} allocated {allocated} times");
    }
    assert!(!m.holds("E", [0u32, 3]) && m.holds("PV", [0u32, 4, 2]));
}
