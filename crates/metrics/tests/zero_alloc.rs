//! Proof that updating metrics performs zero heap allocations.
//!
//! Same counting-allocator harness as `gocast-sim`'s `zero_alloc` test:
//! a global allocator tallies this thread's allocations while a tight
//! loop hammers counters, gauges, and histograms. The primitives are
//! fixed-size plain-old-data, so the count must stay at zero — the
//! property that lets the kernel and fabric keep them permanently
//! enabled on paths running millions of times per second. (`Snapshot`
//! is exempt: taking one is an explicitly off-hot-path copy.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gocast_metrics::{Counter, Gauge, Log2Histogram};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System` for all operations; only bumps a plain
// thread-local counter (no allocation, no drop glue) on the way through.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn metric_updates_do_not_allocate() {
    let mut counter = Counter::default();
    let mut gauge = Gauge::default();
    let mut hist = Log2Histogram::new();

    let before = allocations();
    for i in 0..1_000_000u64 {
        counter.inc();
        counter.add(i & 7);
        gauge.set((i % 1000) as i64);
        hist.observe(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    let allocs = allocations() - before;

    assert_eq!(
        allocs, 0,
        "metric update path allocated {allocs} times over 1M iterations"
    );
    assert_eq!(hist.count(), 1_000_000);
    assert!(counter.get() > 1_000_000);
}
