//! Memory-boundedness proof for the sharded scale path.
//!
//! A counting global allocator tracks the peak number of *live* heap
//! bytes across all threads (the sharded kernel's workers included).
//! The scale runs must stay within an O(nodes) envelope: the
//! [`gocast_net::OnDemandKing`] latency model is O(sites), the lane
//! queues recycle payload slots, and per-node protocol state is bounded
//! (member view capacity — peer coordinates live in the view's slots —
//! and degree caps) — so peak memory must not bend toward the O(nodes²)
//! a latency matrix or per-node caches of every peer would cost. The
//! same allocator closes the ledger: what nodes and queues report about
//! themselves must be most of the bytes live when the run ends.
//!
//! This file is its own test binary so the global allocator sees only
//! the workload under measurement. The 10⁵-node smoke is `#[ignore]`d —
//! debug-mode at that scale takes minutes; `scripts/check.sh` covers
//! 10⁴ nodes through the release CLI instead — run it explicitly with
//! `cargo test -p gocast-experiments --test scale_alloc -- --ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gocast::GoCastNode;
use gocast_analysis::InvariantOracle;
use gocast_experiments::pipeline::{
    audited_gocast, gocast_nodes, horizon, scale_network, Run, RunCore, RunRecorder,
};
use gocast_experiments::scale::run_scale_delivery;
use gocast_experiments::ExpOptions;
use gocast_sim::{Lanes, NullRecorder};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn note_free(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct TrackingAlloc;

// SAFETY: defers to `System` for every operation; only bumps atomic
// counters (no allocation, no drop glue) on the way through.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

fn peak_heap_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

fn live_heap_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

fn scale_opts(nodes: usize) -> ExpOptions {
    let mut o = ExpOptions::quick().with_sim_shards(2);
    o.nodes = nodes;
    o.sites = 1740.min(nodes);
    o.warmup = Duration::from_secs(20);
    o.messages = 4;
    o.rate = 2.0;
    o.drain = Duration::from_secs(20);
    o
}

/// What one pending GoCast event occupies in a lane queue: a 96-byte
/// payload slot (the 88-byte message beside its addressing) and a 24-byte
/// heap entry.
const EVENT_BYTES: u64 = 120;

fn assert_clean_and_bounded(out: &RunCore, nodes: usize, cap_bytes: u64) {
    assert_eq!(
        out.violations, 0,
        "oracle violations: {:?}",
        out.violation_lines
    );
    assert!(
        out.delivery_ratio() > 0.95,
        "delivery ratio {} too low",
        out.delivery_ratio()
    );
    let peak = peak_heap_bytes();
    assert!(
        peak < cap_bytes,
        "peak live heap {} MiB exceeds the {} MiB envelope for {} nodes",
        peak >> 20,
        cap_bytes >> 20,
        nodes
    );
    // The kernel's self-reported occupancy is live and plausible: some
    // slab slots were created, and the queue accounts nonzero bytes that
    // fit inside the measured process-wide peak.
    assert!(out.kernel.slab_slots > 0);
    assert!(out.kernel.queue_mem_bytes > 0);
    assert!(out.kernel.queue_mem_bytes < peak);
    // The queues follow the pending work down from the start-up storm:
    // what they reserve when the run ends is within twice what the events
    // still pending occupy (it was 6.6 times when slots were never given
    // back).
    let pending_bytes = out.kernel.queue_len as u64 * EVENT_BYTES;
    assert!(
        out.kernel.queue_mem_bytes <= 2 * pending_bytes,
        "{} queue bytes reserved for {} pending events",
        out.kernel.queue_mem_bytes,
        out.kernel.queue_len
    );
}

#[test]
fn two_thousand_node_scale_run_stays_bounded() {
    // `run_scale_delivery`'s steps, with the run kept alive past its end so
    // the heap can be read while the nodes and queues still hold it.
    let opts = scale_opts(2_000);
    let cfg = audited_gocast();
    let recorder = RunRecorder::for_opts(
        &opts,
        &opts.manifest(None),
        Some(InvariantOracle::for_protocol(&cfg)),
        NullRecorder,
    );
    let mut run: Run<GoCastNode, NullRecorder, Lanes> = Run::sharded(
        &opts,
        scale_network(&opts),
        recorder,
        gocast_nodes(&opts, &cfg),
    );
    run.warm(opts.warmup);
    let sources = run.live_sources();
    let start = run.inject_multicasts(&opts, &sources);
    run.drive(horizon(&opts, start, None));
    let (out, _) = run.finish_audited(0, |_, _| true);

    // 11 KiB per node, everything included (protocol state, event
    // queues, recorders, the latency model): a quarter above the 8.9 KiB
    // the run peaks at. A 2000² latency table alone would be 16 MiB; a
    // per-node cache of every peer's coordinates (what the protocol kept
    // before the member view carried them) peaked at 38 KiB per node, and
    // queues and lane arenas that kept their start-up capacity at 16 KiB.
    assert_clean_and_bounded(&out, opts.nodes, 2_000 * (11 << 10));

    // The ledger closes: what the nodes and the queues report holding is
    // most of what the allocator has handed out, and never more. A new
    // owner of bytes that reports nothing drops the ratio under the floor.
    let live = live_heap_bytes();
    let nodes: u64 = run
        .sim
        .iter_nodes()
        .map(|(_, node)| node.mem_bytes().total() as u64)
        .sum();
    let reported = nodes + out.kernel.queue_mem_bytes;
    assert!(
        reported * 10 >= live * 8 && reported <= live,
        "nodes and queues report {reported} B of {live} B live heap"
    );
}

/// The 10⁵-node smoke (ignored: minutes of debug-mode runtime).
#[test]
#[ignore = "10^5-node debug run takes minutes; check.sh smokes 10^4 via the release CLI"]
fn hundred_thousand_node_scale_run_stays_bounded() {
    let mut o = scale_opts(100_000);
    o.warmup = Duration::from_secs(30);
    // A 10⁵-node latency matrix would be 40 GB; the O(nodes) budget is
    // 8 GiB (per-node protocol state dominates).
    let out = run_scale_delivery(&o);
    assert_clean_and_bounded(&out, o.nodes, 8 << 30);
}
