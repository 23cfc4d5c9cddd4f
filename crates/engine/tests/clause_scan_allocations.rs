//! Clause selection and head unification allocate nothing per attempt.
//!
//! A counting global allocator sees every heap allocation in this test
//! binary, the query thread's included. A call whose first argument is
//! unbound scans all 1,000 facts and every head fails on its second
//! argument, so the query's allocations are its fixed cost (handing the
//! job to the query thread, the store and trail, the outcome): far fewer
//! than one per attempt. Copying each head before unifying it would cost
//! four allocations an attempt, 4,000 here. The goal is parsed, and the
//! calling thread's query thread spawned by a warm-up query, before
//! counting starts.
//!
//! This file holds one test on purpose: the counter is process-wide.

use prolog_engine::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
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

#[test]
fn a_failing_scan_of_a_thousand_facts_allocates_a_fixed_amount() {
    let mut src = String::new();
    for i in 0..1000 {
        writeln!(src, "edge(n{i}, f(n{}, k)).", i + 1).unwrap();
    }
    let mut engine = Engine::new();
    engine.consult(&src).unwrap();
    let (goal, names) = prolog_syntax::parse_term("edge(X, f(nope, Y))").unwrap();
    engine.query_term(&goal, &names, usize::MAX).unwrap(); // warm up

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = engine.query_term(&goal, &names, usize::MAX).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(outcome.counters.unifications, 1000);
    assert!(outcome.solutions.is_empty());
    assert!(
        allocations < 100,
        "{allocations} allocations for 1,000 head-unification attempts"
    );
}
