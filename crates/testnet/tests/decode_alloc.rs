//! Proof that decoding landmark coordinates allocates nothing once the
//! coordinate slab is warm.
//!
//! A counting global allocator tallies every allocation this thread
//! makes. A decoded vector takes a block off the slab's free list, and
//! dropping the message puts it back, so decoding and dropping a pong
//! allocates nothing and a gossip allocates its id and member lists and
//! nothing for the coordinates its members carry.
//!
//! This file is its own test binary with one test, so no other test
//! takes blocks off the free list between the warm-up and the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use gocast::{DegreeInfo, GoCastMsg, MsgId, ProbeKind};
use gocast_net::LandmarkVector;
use gocast_sim::NodeId;

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

const ROUNDS: u64 = 1_000;

/// Allocations a decode and drop of `bytes` makes, per round, after one
/// warm-up round.
fn allocations_per_decode(bytes: &[u8]) -> u64 {
    drop(gocast::decode(bytes).expect("valid bytes"));
    let before = allocations();
    for _ in 0..ROUNDS {
        let msg = gocast::decode(bytes).expect("valid bytes");
        std::hint::black_box(&msg);
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs % ROUNDS,
        0,
        "{allocs} allocations over {ROUNDS} rounds"
    );
    allocs / ROUNDS
}

fn coords(k: u64) -> LandmarkVector {
    LandmarkVector::from_rtts((0..8).map(|i| Duration::from_micros(1_000 * k + 37 * i)))
}

/// A gossip of four ids and 17 members, as `pick_gossip_members` sends
/// one, with coordinates for every member or for none.
fn gossip(known: bool) -> Vec<u8> {
    let vector = |k| {
        if known {
            coords(k)
        } else {
            LandmarkVector::unknown()
        }
    };
    gocast::encode(&GoCastMsg::Gossip {
        ids: (0..4)
            .map(|s| (MsgId::new(NodeId::new(3), s), 1_000))
            .collect(),
        members: (0..17)
            .map(|k| (NodeId::new(k as u32), vector(k)))
            .collect(),
        coords: vector(99),
        degrees: DegreeInfo::default(),
    })
}

#[test]
fn decoding_known_coordinates_allocates_nothing_for_them() {
    let pong = gocast::encode(&GoCastMsg::Pong {
        kind: ProbeKind::Candidate,
        sent_at_us: 7,
        degrees: DegreeInfo::default(),
        max_nearby_rtt_us: 12_000,
        coords: coords(5),
    });
    assert_eq!(allocations_per_decode(&pong), 0, "pong");

    let lists = allocations_per_decode(&gossip(false));
    assert_eq!(lists, 2, "a gossip's id and member lists");
    assert_eq!(
        allocations_per_decode(&gossip(true)),
        lists,
        "a gossip whose 18 vectors are known"
    );
}
