//! Differential test of the one simulation engine's two entry points:
//! `Sim` and a one-lane `ShardedSim` run the same program. 256 GoCast
//! nodes, identical seed and schedule; the full recorder stream, the
//! kernel counters (wall time aside) and the traffic totals must agree
//! under every kind of fault the kernel injects — including loss and
//! jitter, whose random stream a one-lane engine draws identically
//! whichever builder made it.

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode};
use gocast_net::{synthetic_king, SiteLatencyMatrix, SyntheticKingConfig};
use gocast_sim::{
    ClassCounters, Engine, KernelStats, Mode, NodeId, Scenario, ScenarioEnv, ShardedSimBuilder,
    SimBuilder, SimTime, Split, Stack, VecRecorder,
};

const NODES: usize = 256;
const SEED: u64 = 31;
const WARMUP: Duration = Duration::from_secs(10);
const END: SimTime = SimTime::from_secs(25);

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

/// Schedules the faults and ten seconds of multicasts, ten per second
/// from rotating sources, after the warm-up.
fn schedule<M: Mode>(sim: &mut Engine<GoCastNode, Rec, M>, scenario: &Scenario) {
    let start = SimTime::ZERO + WARMUP;
    let env = ScenarioEnv::new(NODES, SEED).starting_at(start);
    scenario.compile(&env).schedule_into(
        sim,
        <GoCastNode as Stack>::cmd_join,
        <GoCastNode as Stack>::cmd_leave,
    );
    for i in 0..100u32 {
        let at = start + Duration::from_millis(100 * i as u64);
        let source = NodeId::new((i * 37) % NODES as u32);
        sim.schedule_command(at, source, GoCastCommand::Multicast);
    }
}

type Outcome = (
    Vec<(SimTime, NodeId, GoCastEvent)>,
    KernelStats,
    ClassCounters,
    u64,
);

fn outcome<M: Mode>(sim: Engine<GoCastNode, Rec, M>) -> Outcome {
    let kernel = KernelStats {
        wall_time: Duration::ZERO,
        ..sim.kernel_stats()
    };
    let (total, dropped) = (sim.stats().total(), sim.stats().dropped_to_dead());
    (sim.into_recorder().events, kernel, total, dropped)
}

fn assert_entry_points_agree(scenario: &Scenario) -> Outcome {
    let mut serial = SimBuilder::new(net())
        .seed(SEED)
        .build_with(Rec::new(), member());
    schedule(&mut serial, scenario);
    serial.run_until(END);

    let mut one_lane = ShardedSimBuilder::new(net())
        .seed(SEED)
        .lanes(1)
        .build_with(Rec::new(), member());
    schedule(&mut one_lane, scenario);
    one_lane.run_until(END);

    let (serial, one_lane) = (outcome(serial), outcome(one_lane));
    assert!(serial.0.len() > 100_000, "run too quiet to compare");
    // Counters first: a mismatch there reads better than a stream diff.
    assert_eq!(serial.1, one_lane.1, "kernel counters");
    assert_eq!((serial.2, serial.3), (one_lane.2, one_lane.3), "traffic");
    assert!(serial.0 == one_lane.0, "recorder streams differ");
    serial
}

#[test]
fn fault_free() {
    let (_, kernel, _, _) = assert_entry_points_agree(&Scenario::new());
    assert_eq!(kernel.control_events + kernel.messages_dropped, 0);
}

#[test]
fn crashes_partition_and_link_cut() {
    let s = Duration::from_secs;
    let mut scenario = Scenario::new()
        .partition_at(s(4), s(9), Split::Halves)
        .cut_link_at(s(3), NodeId::new(3), NodeId::new(4))
        .heal_link_at(s(8), NodeId::new(3), NodeId::new(4));
    for i in 0..8 {
        scenario = scenario.crash_at(
            s(2) + Duration::from_millis(250 * i),
            NodeId::new(10 + i as u32),
        );
    }
    let (_, kernel, _, _) = assert_entry_points_agree(&scenario);
    assert_eq!(kernel.control_events, 8 + 2 + 2);
    assert!(kernel.partition_drops > 0, "the partition cut live traffic");
}

#[test]
fn loss_and_jitter() {
    let scenario = Scenario::new()
        .loss_at(Duration::ZERO, 0.02)
        .jitter_at(Duration::ZERO, Duration::from_millis(20));
    let (_, kernel, _, _) = assert_entry_points_agree(&scenario);
    assert!(kernel.chaos_losses > 1_000, "loss was live");
}
