//! Printing a term does not rebuild the operator table.
//!
//! A counting global allocator sees every heap allocation in this test
//! binary. After one warm-up print, rendering `f(a, B)` allocates only
//! its output string; building the standard operator table (three maps
//! of about forty operators) on every print would cost 49. The
//! term is parsed before counting starts.
//!
//! This file holds one test on purpose: the counter is process-wide.

use prolog_syntax::parse_term;
use prolog_syntax::pretty::term_to_string;
use std::alloc::{GlobalAlloc, Layout, System};
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
fn printing_a_small_term_allocates_only_its_text() {
    let (term, names) = parse_term("f(a, B)").unwrap();
    assert_eq!(term_to_string(&term, &names), "f(a, B)"); // warm up

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let text = term_to_string(&term, &names);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(text, "f(a, B)");
    assert!(
        allocations <= 4,
        "{allocations} allocations to print {text}"
    );
}
