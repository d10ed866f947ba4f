//! The micro pass of a traced run: tight timing loops over the public
//! functions the per-layer metrics name. Each loop does a fixed amount
//! of work; results pass through `black_box` so none of it is elided.

use std::hint::black_box;
use std::net::{Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};

use gocast::{decode, encode_into, encoded_len, GoCastConfig, GoCastMsg, GoCastNode};
use gocast_app::ORSet;
use gocast_net::OnDemandKing;
use gocast_sim::{
    EventQueue, LatencyModel, NodeId, NullRecorder, ShardedSimBuilder, SimTime, Timer,
};
use gocast_testnet::{BatchBuffer, BatchMode, FabricStats, RecvBatch};
use gocast_udp::{DelayQueue, TimerWheel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::CODEC_GROUPS;

/// Mean ns per iteration of `f` over `iters` iterations.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// `core.codec.*`: encode, decode and size the messages sampled from the
/// run, group by group; a group the run never sent reports 0.
pub fn codec(samples: &[Vec<GoCastMsg>; CODEC_GROUPS.len()], out: &mut Vec<(String, f64)>) {
    const ROUNDS: u64 = 200;
    let mut buf = Vec::with_capacity(4096);
    let mut len_ns = 0.0;
    let mut len_groups = 0;
    for (group, msgs) in CODEC_GROUPS.iter().zip(samples) {
        if msgs.is_empty() {
            continue;
        }
        let n = msgs.len() as u64;
        let encode = ns_per_iter(ROUNDS * n, |i| {
            buf.clear();
            encode_into(black_box(&msgs[(i % n) as usize]), &mut buf);
            black_box(buf.len());
        });
        let encoded: Vec<Vec<u8>> = msgs.iter().map(gocast::encode).collect();
        let decode_ns = ns_per_iter(ROUNDS * n, |i| {
            black_box(decode(black_box(&encoded[(i % n) as usize])).is_ok());
        });
        len_ns += ns_per_iter(ROUNDS * n, |i| {
            black_box(encoded_len(black_box(&msgs[(i % n) as usize])));
        });
        len_groups += 1;
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        out.push((format!("core.codec.encode_ns.{group}"), encode));
        out.push((format!("core.codec.decode_ns.{group}"), decode_ns));
        out.push((
            format!("core.codec.bytes_per_msg.{group}"),
            bytes as f64 / n as f64,
        ));
    }
    if len_groups > 0 {
        out.push((
            "core.codec.encoded_len_ns".into(),
            len_ns / f64::from(len_groups),
        ));
    }
}

/// `sim.queue.schedule_pop_ns.*`: one pop plus one schedule on an
/// `EventQueue` held at a steady depth (the simulators' hold pattern).
pub fn event_queue(out: &mut Vec<(String, f64)>) {
    for (label, depth) in [("d1k", 1_000u64), ("d100k", 100_000)] {
        let mut rng = SmallRng::seed_from_u64(depth);
        let mut q: EventQueue<u64> = EventQueue::with_capacity(depth as usize);
        for i in 0..depth {
            q.schedule(SimTime::from_nanos(rng.gen_range(0..1_000_000_000)), i);
        }
        let ns = ns_per_iter(1_000_000, |i| {
            let ev = q.pop().expect("queue is held at a fixed depth");
            let at = ev.at + Duration::from_nanos(rng.gen_range(1..1_000_000_000));
            q.schedule(at, black_box(i));
        });
        out.push((format!("sim.queue.schedule_pop_ns.{label}"), ns));
    }
}

/// Mean ns of one `one_way` lookup over random node pairs.
pub fn lookup_ns(net: &dyn LatencyModel) -> f64 {
    let n = net.len() as u32;
    let mut rng = SmallRng::seed_from_u64(0x10_0C);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            (
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(rng.gen_range(0..n)),
            )
        })
        .collect();
    ns_per_iter(2_000_000, |i| {
        let (a, b) = pairs[(i % 4096) as usize];
        black_box(net.one_way(black_box(a), b));
    })
}

/// `app.orset.*` on a replica of 64 origins × 16 adds, a quarter of them
/// removed: apply of a fresh delta, `digest`, and `missing_for` against
/// an empty remote (capped like the mux caps it).
pub fn orset(out: &mut Vec<(String, f64)>) {
    let mut set = ORSet::new();
    let mut deltas = Vec::new();
    for origin in 0..64u32 {
        let mut source = ORSet::new();
        for k in 0..16u64 {
            let elem = u64::from(origin) * 100 + k;
            deltas.push((NodeId::new(origin), source.add(NodeId::new(origin), elem)));
            if k % 4 == 3 {
                let rm = source
                    .remove(NodeId::new(origin), elem)
                    .expect("element was just added");
                deltas.push((NodeId::new(origin), rm));
            }
        }
    }
    for (origin, delta) in &deltas {
        set.apply(*origin, delta);
    }
    let rounds = 200;
    let t0 = Instant::now();
    for _ in 0..rounds {
        let mut fresh = ORSet::new();
        for (origin, delta) in &deltas {
            black_box(fresh.apply(*origin, delta));
        }
    }
    let apply = t0.elapsed().as_nanos() as f64 / (rounds * deltas.len()) as f64;
    let digest = ns_per_iter(20_000, |_| {
        black_box(set.digest().len());
    });
    let missing = ns_per_iter(20_000, |_| {
        black_box(set.missing_for(black_box(&[]), 64).len());
    });
    out.push(("app.orset.apply_ns".into(), apply));
    out.push(("app.orset.digest_ns".into(), digest));
    out.push(("app.orset.missing_for_ns".into(), missing));
}

/// `testnet.batch.*`: ns per datagram to send a full batch of
/// smallest-frame-sized datagrams over loopback and to receive it, in
/// both syscall modes.
pub fn batch(out: &mut Vec<(String, f64)>) -> std::io::Result<()> {
    const DGRAM: [u8; 92] = [0xA5; 92];
    const BATCH: usize = 32;
    const ROUNDS: usize = 2000;
    for (label, wanted) in [("mmsg", BatchMode::Mmsg), ("portable", BatchMode::Portable)] {
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let dest = rx.local_addr()?;
        let mut mode = wanted;
        let mut stats = FabricStats::default();
        let mut send = BatchBuffer::new();
        let mut recv = RecvBatch::new();
        let (mut send_ns, mut recv_ns, mut received) = (0u128, 0u128, 0usize);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                send.push_with(dest, |buf| buf.extend_from_slice(&DGRAM));
            }
            send.flush(&tx, &mut mode, &mut stats);
            let t1 = Instant::now();
            loop {
                let got = recv.recv(&rx, &mut mode, &mut stats);
                received += got;
                if got == 0 {
                    break;
                }
            }
            send_ns += (t1 - t0).as_nanos();
            recv_ns += t1.elapsed().as_nanos();
        }
        // A kernel without the batched syscalls demotes the mode; the
        // mmsg row then reports 0 rather than a mislabelled number.
        let valid = mode == wanted && received > 0;
        let per = |total: u128, n: usize| if valid { total as f64 / n as f64 } else { 0.0 };
        out.push((
            format!("testnet.batch.send_ns_per_dgram.{label}"),
            per(send_ns, ROUNDS * BATCH),
        ));
        out.push((
            format!("testnet.batch.recv_ns_per_dgram.{label}"),
            per(recv_ns, received.max(1)),
        ));
    }
    Ok(())
}

/// `udp.sched.*`: one schedule plus one due pop on the fabric's timer
/// wheel and on its delay queue, each held at 64 entries (one node's
/// worth of timers).
pub fn sched(out: &mut Vec<(String, f64)>) {
    let base = Instant::now();
    let at = |i: u64| base + Duration::from_micros(i);
    let mut wheel = TimerWheel::new();
    for i in 0..64u64 {
        wheel.schedule(at(i), Timer::with_payload(5, i as u32, i));
    }
    let wheel_ns = ns_per_iter(1_000_000, |i| {
        let due = at(i + 64);
        black_box(wheel.pop_due(due));
        wheel.schedule(due, Timer::with_payload(5, (i + 64) as u32, i + 64));
    });
    let mut delayq: DelayQueue<u64> = DelayQueue::new();
    for i in 0..64u64 {
        delayq.push(at(i), i);
    }
    let delayq_ns = ns_per_iter(1_000_000, |i| {
        let due = at(i + 64);
        black_box(delayq.pop_due(due));
        delayq.push(due, i);
    });
    out.push(("udp.sched.wheel_ns_per_op".into(), wheel_ns));
    out.push(("udp.sched.delayq_ns_per_op".into(), delayq_ns));
}

/// `sim.shard.speedup_t2`: wall time of the same steady 3 simulated
/// seconds of a 2048-node sharded simulation on one worker thread over
/// that on two. Around 1 (or below) on a host without a second core.
pub fn shard_speedup_t2() -> f64 {
    let run = |threads: usize| {
        const NODES: usize = 2048;
        let net = OnDemandKing::paper_default(NODES, 0x5EED);
        let mut boot = gocast::bootstrap_random_graph(NODES, 3, 0xB007);
        let mut sim = ShardedSimBuilder::new(net)
            .seed(1)
            .threads(threads)
            .build_with(NullRecorder, |id| {
                let (links, members) = boot(id);
                GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
            });
        sim.run_until(SimTime::from_secs(5));
        let t0 = Instant::now();
        sim.run_for(Duration::from_secs(3));
        t0.elapsed().as_secs_f64()
    };
    run(1) / run(2)
}
