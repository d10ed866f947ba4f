//! Proof that the batched wire path performs zero heap allocations at
//! steady state.
//!
//! A counting global allocator tallies every allocation made by this
//! thread. After one warm-up round grows the [`BatchBuffer`]'s slots,
//! the [`RecvBatch`]'s buffers, and each slot's capacity to their
//! high-water mark, pumping framed protocol datagrams out through
//! `sendmmsg` batches and back in through `recvmmsg` must not allocate
//! at all: payloads are encoded straight into reused slots
//! ([`gocast::encode_into`]), receive buffers are recycled, and the
//! mmsg header/iovec arrays live on the stack.
//!
//! This file is its own test binary (run on one thread per test) so the
//! counter sees only the workload under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};

use gocast::GoCastMsg;
use gocast_testnet::{loopback_available, BatchBuffer, BatchMode, FabricStats, RecvBatch};

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

fn skip() -> bool {
    if loopback_available() {
        false
    } else {
        eprintln!("skipping: loopback UDP unavailable in this environment");
        true
    }
}

/// One round: gather `per_round` framed protocol datagrams into the
/// batch, flush them in one `sendmmsg` (or portable loop), then drain
/// the receiving socket. Returns how many datagrams arrived.
#[allow(clippy::too_many_arguments)]
fn pump_round(
    batch: &mut BatchBuffer,
    recv: &mut RecvBatch,
    tx: &UdpSocket,
    rx: &UdpSocket,
    dest: SocketAddr,
    mode: &mut BatchMode,
    stats: &mut FabricStats,
    per_round: usize,
) -> u64 {
    // The same framing discipline a shard's link uses on a send: a
    // 5-byte transport header plus the codec bytes, written in place.
    let msg = GoCastMsg::JoinRequest;
    for _ in 0..per_round {
        let full = batch.push_with(dest, |buf| {
            buf.push(0xD0);
            buf.extend_from_slice(&7u32.to_le_bytes());
            gocast::encode_into(&msg, buf);
        });
        if full {
            batch.flush(tx, mode, stats);
        }
    }
    batch.flush(tx, mode, stats);

    let mut got_total = 0u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while got_total < per_round as u64 && std::time::Instant::now() < deadline {
        let got = recv.recv(rx, mode, stats);
        for i in 0..got {
            let (_, bytes) = recv.datagram(i);
            assert_eq!(bytes[0], 0xD0, "frame tag survived the trip");
        }
        got_total += got as u64;
        if got == 0 {
            std::hint::spin_loop();
        }
    }
    got_total
}

fn steady_state_does_not_allocate(mut mode: BatchMode) {
    let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    rx.set_nonblocking(true).unwrap();
    let dest = rx.local_addr().unwrap();

    let mut batch = BatchBuffer::new();
    let mut recv = RecvBatch::new();
    let mut stats = FabricStats::default();
    const PER_ROUND: usize = 32;

    // Warm-up: grows batch slots, receive buffers, and slot capacities.
    let warmed = pump_round(
        &mut batch, &mut recv, &tx, &rx, dest, &mut mode, &mut stats, PER_ROUND,
    );
    assert_eq!(warmed, PER_ROUND as u64, "warm-up round lost datagrams");

    let allocs_before = allocations();
    let mut moved = 0u64;
    for _ in 0..64 {
        moved += pump_round(
            &mut batch, &mut recv, &tx, &rx, dest, &mut mode, &mut stats, PER_ROUND,
        );
    }
    let allocs = allocations() - allocs_before;

    assert!(moved >= 2000, "workload too small: {moved} datagrams");
    assert_eq!(
        allocs, 0,
        "steady-state batched wire path allocated {allocs} times over {moved} datagrams"
    );
    assert_eq!(stats.datagrams_sent, stats.datagrams_received);
    assert!(stats.bytes_sent > 0);
}

#[test]
fn batched_send_recv_path_does_not_allocate() {
    if skip() {
        return;
    }
    steady_state_does_not_allocate(BatchMode::detect());
}

#[test]
fn portable_send_recv_path_does_not_allocate() {
    if skip() {
        return;
    }
    steady_state_does_not_allocate(BatchMode::Portable);
}
