//! A many-worker run pinned as one literal, under every fault the kernel
//! injects at once: crashes, a partition, a link cut, loss and jitter.
//!
//! `one_kernel.rs` compares the engine's entry points and
//! `barrier_order.rs` pins a fault-free stream; this pins the one run the
//! seed makes where the layout could matter most — the barrier's order
//! across workers and the loss/jitter draws — at 1, 2 and 4 threads. The
//! literal is the recorder stream's digest and every `KernelStats`
//! counter that says what ran. Four fields are left out: `wall_time`, and
//! `slab_slots`, `queue_mem_bytes` and `queue_high_water`, which say how
//! the pending events were stored, not which ones there are.

use std::hash::Hasher;
use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode};
use gocast_net::{synthetic_king, SiteLatencyMatrix, SyntheticKingConfig};
use gocast_sim::{
    FxHasher, KernelStats, NodeId, Scenario, ScenarioEnv, ShardedSimBuilder, SimTime, Split, Stack,
    VecRecorder,
};

const NODES: usize = 128;
const SEED: u64 = 53;
const WARMUP: Duration = Duration::from_secs(8);
const END: SimTime = SimTime::from_secs(20);

type Rec = VecRecorder<GoCastEvent>;

fn net() -> SiteLatencyMatrix {
    let cfg = SyntheticKingConfig {
        sites: NODES,
        seed: SEED ^ 0xABCD,
        ..Default::default()
    };
    synthetic_king(NODES, &cfg)
}

fn member() -> impl FnMut(NodeId) -> GoCastNode {
    let cfg = GoCastConfig::default();
    let mut boot = gocast::bootstrap_random_graph(NODES, cfg.c_degree() / 2, SEED);
    move |id| {
        let (links, members) = boot(id);
        GoCastNode::with_initial_links(id, cfg.clone(), links, members)
    }
}

/// Crashes, a partition with its heal, a link cut with its heal, and loss
/// and jitter from the warm-up on.
fn scenario() -> Scenario {
    let s = Duration::from_secs;
    let mut scenario = Scenario::new()
        .loss_at(Duration::ZERO, 0.03)
        .jitter_at(Duration::ZERO, Duration::from_millis(15))
        .partition_at(s(4), s(8), Split::Halves)
        .cut_link_at(s(2), NodeId::new(5), NodeId::new(6))
        .heal_link_at(s(7), NodeId::new(5), NodeId::new(6));
    for i in 0..6 {
        scenario = scenario.crash_at(
            s(1) + Duration::from_millis(300 * i),
            NodeId::new(20 + 7 * i as u32),
        );
    }
    scenario
}

/// `(stream digest, counters)` of one run.
fn run(threads: usize) -> (String, String) {
    let mut sim = ShardedSimBuilder::new(net())
        .seed(SEED)
        .threads(threads)
        .build_with(Rec::new(), member());
    let start = SimTime::ZERO + WARMUP;
    let env = ScenarioEnv::new(NODES, SEED).starting_at(start);
    scenario().compile(&env).schedule_into(
        &mut sim,
        <GoCastNode as Stack>::cmd_join,
        <GoCastNode as Stack>::cmd_leave,
    );
    for i in 0..60u32 {
        let at = start + Duration::from_millis(150 * u64::from(i));
        let source = NodeId::new((i * 29) % NODES as u32);
        sim.schedule_command(at, source, GoCastCommand::Multicast);
    }
    // Two run calls: whatever the barrier keeps must carry across a
    // return.
    sim.run_until(start);
    sim.run_until(END);
    let mut h = FxHasher::default();
    for (at, node, ev) in &sim.recorder().events {
        h.write_u64(at.as_nanos());
        h.write_u32(node.as_u32());
        h.write(format!("{ev:?}").as_bytes());
    }
    let digest = format!(
        "{} events, {:#018x}",
        sim.recorder().events.len(),
        h.finish()
    );
    (digest, counters(&sim.kernel_stats()))
}

/// Every counter of `k` that says what ran.
fn counters(k: &KernelStats) -> String {
    let f = k.fates;
    format!(
        "ev={} del={} lost={} cut={} part={} dead={} tmr={} cmd={} ctl={} sched={} pending={}",
        k.events_processed,
        k.deliveries,
        f.lost,
        f.cut,
        f.partitioned,
        f.dead,
        k.timers_fired,
        k.commands,
        k.control_events,
        k.events_scheduled,
        k.queue_len,
    )
}

#[test]
fn many_lane_runs_under_faults_match_the_pinned_literals() {
    for threads in [1, 2, 4] {
        let (digest, counters) = run(threads);
        assert_eq!(
            (digest.as_str(), counters.as_str()),
            PINNED,
            "{threads} threads"
        );
    }
}

const PINNED: (&str, &str) = (
    "57435 events, 0x2c7f22c1bad9020e",
    "ev=148087 del=86556 lost=1639 cut=0 part=5445 dead=1708 tmr=54256 cmd=58 ctl=12 sched=148968 pending=881",
);
