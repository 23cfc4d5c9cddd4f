//! An exhausted A* search stays small.
//!
//! The 10-goal difftest program of seed 6834029275373919920 has four
//! blocks whose best-first searches each expand the whole 20,001-node
//! budget before keeping the written order. A candidate prefix is a
//! parent link, a goal, a mask, the block's variable states and its cost
//! arithmetic, and a goal is scanned once per distinct state of its
//! variables, so reordering the program allocates far less than once per
//! candidate and holds far less than a copy of the clause state per node:
//! about 28,000 allocations and an 11 MB peak of live heap. Cloning each
//! candidate's order, scanned goals and abstract state would cost about
//! 7.2 million allocations and 113 MB.
//!
//! A counting global allocator sees every heap allocation in this test
//! binary; the reorder runs with `jobs: 1`, on the test thread. The
//! program is generated and printed before counting starts.
//!
//! This file holds one test on purpose: the counters are process-wide.

use prolog_difftest::{generate_case, GenConfig};
use prolog_syntax::pretty::program_to_string;
use reorder::{reorder_source, ReorderConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn four_exhausted_astar_searches_stay_small() {
    let config = GenConfig {
        max_goals: 10,
        ..GenConfig::default()
    };
    let src = program_to_string(&generate_case(6834029275373919920, &config).program);
    let config = ReorderConfig {
        jobs: 1,
        ..ReorderConfig::default()
    };

    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = reorder_source(&src, &config).expect("program parses");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let peak_mb = (PEAK.load(Ordering::Relaxed) - live_before) as f64 / 1e6;

    // The four exhausted blocks are most of the search's work.
    assert_eq!(out.report.stats.orders_explored, 80170);
    assert!(
        allocations < 1_000_000,
        "{allocations} allocations to reorder the program"
    );
    assert!(peak_mb < 32.0, "peak live heap {peak_mb:.1} MB");
}
