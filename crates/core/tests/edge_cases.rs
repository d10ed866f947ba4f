//! Edge-case coverage: handshake rejection paths, stale-state handling,
//! frozen-mode invariants, gossip pacing, and adaptive-backoff behaviour.

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode, MsgId};
use gocast_sim::{FixedLatency, NodeId, Sim, SimBuilder, SimTime, TrafficClass, VecRecorder};

type Rec = VecRecorder<GoCastEvent>;

/// Builds the controlled topology, buffering every event.
fn controlled(
    n: usize,
    links: &[(u32, u32)],
    cfg: GoCastConfig,
    seed: u64,
) -> Sim<GoCastNode, Rec> {
    let net = FixedLatency::new(n, Duration::from_millis(20));
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(a, b) in links {
        adj[a as usize].push(NodeId::new(b));
        adj[b as usize].push(NodeId::new(a));
    }
    SimBuilder::new(net)
        .seed(seed)
        .build_with(Rec::new(), |id| {
            let members: Vec<NodeId> = (0..n as u32)
                .filter(|&i| i != id.as_u32())
                .map(NodeId::new)
                .collect();
            GoCastNode::with_initial_links(
                id,
                cfg.clone(),
                std::mem::take(&mut adj[id.index()]),
                members,
            )
        })
}

#[test]
fn frozen_node_ignores_incoming_link_churn_but_keeps_serving() {
    // Freeze node 0, then let the others keep adapting; node 0's links may
    // shrink (peers drop) but node 0 itself must not initiate changes, and
    // it must still forward data.
    let links = [(0u32, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)];
    let mut sim = controlled(4, &links, GoCastConfig::default(), 1);
    let links_added_by_node0 = |sim: &Sim<GoCastNode, Rec>| {
        let events = &sim.recorder().events;
        events
            .iter()
            .filter(|(_, node, e)| node.index() == 0 && matches!(e, GoCastEvent::LinkAdded { .. }))
            .count()
    };
    sim.run_until(SimTime::from_secs(10));
    sim.command_now(NodeId::new(0), GoCastCommand::FreezeMaintenance);
    sim.run_for(Duration::from_secs(5));
    let before = links_added_by_node0(&sim);
    sim.run_for(Duration::from_secs(20));
    let after = links_added_by_node0(&sim);
    assert_eq!(before, after, "frozen node added links");
    // Still forwards: a multicast from node 2 reaches node 0 and beyond.
    sim.command_now(NodeId::new(2), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(5));
    assert!(sim
        .node(NodeId::new(0))
        .has_message(MsgId::new(NodeId::new(2), 0)));
}

#[test]
fn idle_system_sends_only_low_rate_gossip() {
    // With no multicast traffic, gossip sends are capped by the idle
    // interval: per node at most ~1/s (plus maintenance probes).
    let links = [(0u32, 1), (1, 2), (2, 0)];
    let mut sim = controlled(3, &links, GoCastConfig::default(), 2);
    sim.run_until(SimTime::from_secs(30));
    sim.reset_stats();
    sim.run_for(Duration::from_secs(30));
    let gossips = sim.stats().class(TrafficClass::Gossip).messages;
    // The idle cap is per neighbor: each node refreshes each of its 2
    // neighbors at most once per idle interval (1 s), so 3 nodes x 2
    // neighbors x 30 s = 180 is the ceiling — far below the 900 the
    // uncapped 10 Hz gossip clock would send.
    assert!(gossips <= 200, "idle gossip rate too high: {gossips}");
    assert!(gossips >= 60, "idle gossip starved: {gossips}");
}

#[test]
fn adaptive_gossip_snaps_back_on_traffic() {
    let cfg = GoCastConfig {
        adaptive_gossip: true,
        ..Default::default()
    };
    let links = [(0u32, 1), (1, 2), (2, 0)];
    let mut sim = controlled(3, &links, cfg, 3);
    // Long quiet period: backoff reaches the cap.
    sim.run_until(SimTime::from_secs(60));
    sim.reset_stats();
    // Burst of traffic: summaries must flow promptly again (the message
    // must reach everyone within a few base gossip periods even though
    // the tree already carries it; check gossip class traffic resumed).
    for i in 0..5 {
        sim.schedule_command(
            sim.now() + Duration::from_millis(100 * i),
            NodeId::new(0),
            GoCastCommand::Multicast,
        );
    }
    sim.run_for(Duration::from_secs(3));
    let gossips = sim.stats().class(TrafficClass::Gossip).messages;
    assert!(gossips >= 5, "gossip clock failed to wake: {gossips}");
    for i in [1u32, 2] {
        for seq in 0..5 {
            assert!(sim
                .node(NodeId::new(i))
                .has_message(MsgId::new(NodeId::new(0), seq)));
        }
    }
}

#[test]
fn leave_then_messages_do_not_resurrect_links() {
    let links = [(0u32, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
    let mut sim = controlled(4, &links, GoCastConfig::default(), 4);
    sim.run_until(SimTime::from_secs(10));
    sim.command_now(NodeId::new(3), GoCastCommand::Leave);
    sim.run_for(Duration::from_secs(10));
    assert_eq!(sim.node(NodeId::new(3)).degrees().total(), 0);
    // Traffic continues among the others; the leaver stays detached.
    sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(10));
    assert_eq!(sim.node(NodeId::new(3)).degrees().total(), 0);
    assert!(
        !sim.node(NodeId::new(3))
            .has_message(MsgId::new(NodeId::new(0), 0)),
        "left node must not receive multicast traffic"
    );
    for i in [1u32, 2] {
        assert!(sim
            .node(NodeId::new(i))
            .has_message(MsgId::new(NodeId::new(0), 0)));
    }
}

#[test]
fn two_node_system_works_end_to_end() {
    // Degenerate scale: the smallest possible group.
    let cfg = GoCastConfig {
        c_rand: 0,
        c_near: 1,
        landmark_count: 1,
        ..Default::default()
    };
    let mut sim = controlled(2, &[(0, 1)], cfg, 5);
    sim.run_until(SimTime::from_secs(5));
    sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(2));
    assert!(sim
        .node(NodeId::new(0))
        .has_message(MsgId::new(NodeId::new(1), 0)));
    // Tree: node 1 is child of root 0 (or vice versa).
    let parents = [
        sim.node(NodeId::new(0)).tree_parent(),
        sim.node(NodeId::new(1)).tree_parent(),
    ];
    assert_eq!(parents.iter().filter(|p| p.is_some()).count(), 1);
}

#[test]
fn store_sizes_track_payload_configuration() {
    // Payload size flows through the data path into traffic accounting.
    let cfg = GoCastConfig {
        payload_size: 4096,
        ..Default::default()
    };
    let links = [(0u32, 1), (1, 2), (2, 0)];
    let mut sim = controlled(3, &links, cfg, 6);
    sim.run_until(SimTime::from_secs(5));
    sim.reset_stats();
    sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(2));
    let data = sim.stats().class(TrafficClass::Data);
    assert!(data.messages >= 2);
    assert!(
        data.bytes >= data.messages * 4096,
        "payload bytes missing from accounting: {data:?}"
    );
}

#[test]
fn redundant_data_does_not_refire_delivery() {
    // When a payload arrives twice the Delivered event fires exactly once
    // and the duplicate is counted as redundant.
    let links = [(0u32, 1), (1, 2), (0, 2)];
    let mut sim = controlled(3, &links, GoCastConfig::default(), 7);
    sim.run_until(SimTime::from_secs(10));
    for _ in 0..10 {
        sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
        sim.run_for(Duration::from_millis(300));
    }
    sim.run_for(Duration::from_secs(3));
    let events = &sim.recorder().events;
    let delivered = events
        .iter()
        .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
        .count();
    assert!(
        events.len() > delivered,
        "the full trace must contain more than the Delivered events"
    );
    assert_eq!(delivered, 20, "exactly one Delivered per (node, message)");
    let per_node: Vec<u64> = (0..3)
        .map(|i| {
            sim.node(NodeId::new(i)).delivered_count() + sim.node(NodeId::new(i)).redundant_count()
        })
        .collect();
    assert!(per_node.iter().sum::<u64>() >= 20);
}

#[test]
fn degree_targets_accessor_reflects_config() {
    let node = GoCastNode::new(
        NodeId::new(9),
        GoCastConfig {
            c_rand: 2,
            c_near: 7,
            ..Default::default()
        },
        vec![],
    );
    assert_eq!(node.degree_targets(), (2, 7));
    assert_eq!(node.id(), NodeId::new(9));
    assert!(!node.is_frozen());
    assert_eq!(node.link_change_count(), 0);
    assert_eq!(node.member_view().len(), 0);
    assert!(node.coords().is_empty());
    assert_eq!(node.tree_seq(), 0);
    assert_eq!(node.tree_distance(), None);
}

#[test]
fn latency_model_is_visible_through_sim() {
    let links = [(0u32, 1)];
    let sim = controlled(2, &links, GoCastConfig::default(), 8);
    assert_eq!(
        sim.latency_model().one_way(NodeId::new(0), NodeId::new(1)),
        Duration::from_millis(20)
    );
    assert_eq!(sim.latency_model().len(), 2);
}
