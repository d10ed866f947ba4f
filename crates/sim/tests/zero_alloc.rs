//! Proof that the steady-state schedule/pop/deliver path performs zero
//! heap allocations.
//!
//! A counting global allocator tallies every allocation made by this
//! thread. After a warm-up phase grows the event queue's backing vectors
//! to their high-water mark, driving a message-and-timer workload through
//! the kernel must not allocate at all: heap entries and payload slots
//! are recycled through the queue's slab free list, the failed-link set
//! is an (empty) vector probed by a length check, and traffic accounting
//! writes fixed-size counters.
//!
//! The counter is per thread, so each test sees only the workload it
//! drives: every one runs its simulation on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use gocast_sim::{
    Ctx, FixedLatency, NodeId, NullRecorder, Protocol, ShardedSimBuilder, SimBuilder, SimTime,
    Timer, TrafficClass, Wire,
};

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

/// A steady-state workload shaped like the simulator's hot path: every
/// node runs a periodic timer and forwards a fixed-size message around a
/// ring on each tick, so every step is a schedule + pop + deliver (or
/// timer fire) with `Copy` payloads — exactly what protocol steady state
/// looks like from the kernel's perspective.
struct Ticker {
    id: NodeId,
    n: u32,
    received: u64,
}

#[derive(Debug, Clone, Copy)]
struct Token(u64);

impl Wire for Token {
    fn wire_size(&self) -> u32 {
        16
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

const TICK: Duration = Duration::from_millis(10);

impl Protocol for Ticker {
    type Msg = Token;
    type Command = ();
    type Event = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(TICK, Timer::of_kind(0));
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, msg: Token) {
        self.received += msg.0;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: Timer) {
        let next = NodeId::new((self.id.as_u32() + 1) % self.n);
        ctx.send(next, Token(1));
        ctx.set_timer(TICK, Timer::of_kind(0));
    }
}

#[test]
fn steady_state_kernel_path_does_not_allocate() {
    let n = 64u32;
    let mut sim = SimBuilder::new(FixedLatency::new(n as usize, Duration::from_millis(3)))
        .seed(7)
        .build(|id| Ticker { id, n, received: 0 });

    // Warm up: queue and slab grow to their steady-state high-water mark.
    sim.run_until(SimTime::from_secs(2));

    let events_before = sim.kernel_stats().events_processed;
    let allocs_before = allocations();
    sim.run_until(SimTime::from_secs(12));
    let allocs = allocations() - allocs_before;
    let events = sim.kernel_stats().events_processed - events_before;

    assert!(events > 100_000, "workload too small: {events} events");
    assert_eq!(
        allocs, 0,
        "steady-state kernel path allocated {allocs} times over {events} events"
    );
    // The workload actually delivered messages (the ring is live).
    let received: u64 = sim.iter_nodes().map(|(_, p)| p.received).sum();
    assert!(received > 0);
}

#[test]
fn telemetry_enabled_kernel_path_does_not_allocate() {
    // Same workload, with deep telemetry on: the queue-depth histogram
    // observe per event and the sampled dispatch timings are fixed-array
    // updates, so the zero-allocation guarantee must hold unchanged.
    let n = 64u32;
    let mut sim = SimBuilder::new(FixedLatency::new(n as usize, Duration::from_millis(3)))
        .seed(7)
        .build(|id| Ticker { id, n, received: 0 });
    sim.enable_telemetry();

    sim.run_until(SimTime::from_secs(2));

    let events_before = sim.kernel_stats().events_processed;
    let allocs_before = allocations();
    sim.run_until(SimTime::from_secs(12));
    let allocs = allocations() - allocs_before;
    let events = sim.kernel_stats().events_processed - events_before;

    assert!(events > 100_000, "workload too small: {events} events");
    assert_eq!(
        allocs, 0,
        "telemetry-enabled kernel path allocated {allocs} times over {events} events"
    );
    // Telemetry actually observed the run.
    let snap = sim.metrics_snapshot();
    let depth = snap
        .entries()
        .iter()
        .find(|e| e.name == "kernel_queue_depth")
        .expect("queue-depth histogram present");
    match &depth.value {
        gocast_metrics::MetricValue::Histogram(h) => {
            assert_eq!(h.count, sim.kernel_stats().events_processed)
        }
        other => panic!("unexpected value {other:?}"),
    }
}

#[test]
fn threaded_window_loop_allocates_nothing_per_window() {
    // The sharded kernel's shape at scale: two workers on their own
    // threads, so every other token crosses workers and each 3 ms window
    // ends in the barrier's merge and outbox flush on this thread. A run
    // call spawns the worker threads and their channels once; past that,
    // nothing this thread runs may allocate per window or per event. (The
    // workers' own loop is the one-worker path the tests above count.)
    let n = 256u32;
    let mut sim = ShardedSimBuilder::new(FixedLatency::new(n as usize, Duration::from_millis(3)))
        .seed(7)
        .threads(2)
        .build_with(NullRecorder, |id| Ticker { id, n, received: 0 });

    sim.run_until(SimTime::from_secs(2));

    let events_before = sim.kernel_stats().events_processed;
    let allocs_before = allocations();
    sim.run_until(SimTime::from_secs(12));
    let allocs = allocations() - allocs_before;
    let events = sim.kernel_stats().events_processed - events_before;

    assert!(events > 400_000, "workload too small: {events} events");
    // Ten seconds are 3,334 windows.
    assert!(
        allocs < 200,
        "the window loop allocated {allocs} times over {events} events"
    );
    let received: u64 = sim.iter_nodes().map(|(_, p)| p.received).sum();
    assert!(received > 0);
}
