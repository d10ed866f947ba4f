//! End-to-end protocol behaviour tests for the GoCast node, driven by the
//! deterministic simulator on a synthetic Internet.

use std::time::Duration;

use gocast::{snapshot, DeliveryPath, GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode};
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{NetFault, NodeId, Sim, SimBuilder, SimTime, VecRecorder};

type Rec = VecRecorder<GoCastEvent>;

fn build(n: usize, seed: u64, cfg: GoCastConfig) -> Sim<GoCastNode, Rec> {
    let net = synthetic_king(
        n,
        &SyntheticKingConfig {
            sites: n.max(16),
            seed: seed ^ 0xFEED,
            ..Default::default()
        },
    );
    let mut boot = gocast::bootstrap_random_graph(n, cfg.c_degree() / 2, seed);
    SimBuilder::new(net)
        .seed(seed)
        .build_with(Rec::new(), |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, cfg.clone(), links, members)
        })
}

fn count_events<F: Fn(&GoCastEvent) -> bool>(sim: &Sim<GoCastNode, Rec>, f: F) -> usize {
    sim.recorder()
        .events
        .iter()
        .filter(|(_, _, e)| f(e))
        .count()
}

#[test]
fn degrees_converge_to_target() {
    let mut sim = build(64, 11, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(60));
    let snap = snapshot(&sim);
    let degrees = snap.degrees();
    // Paper: nodes converge to C_degree or C_degree + 1 (6 or 7), with
    // slack for nodes mid-handshake.
    let ok = degrees.iter().filter(|&&d| (5..=8).contains(&d)).count();
    assert!(
        ok >= 58,
        "expected >=58/64 nodes near degree 6, got {ok} (degrees {degrees:?})"
    );
    // Random degrees: C_rand or C_rand + 1.
    for (id, node) in sim.iter_nodes() {
        let d = node.degrees();
        assert!(
            d.d_rand <= 3,
            "{id} has {} random neighbors (want ~1)",
            d.d_rand
        );
    }
}

#[test]
fn overlay_latency_improves_with_adaptation() {
    let mut sim = build(64, 12, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(2));
    let early = snapshot(&sim).mean_overlay_latency(sim.latency_model());
    sim.run_until(SimTime::from_secs(90));
    let late = snapshot(&sim).mean_overlay_latency(sim.latency_model());
    assert!(
        late < early * 7 / 10,
        "adaptation should cut mean link latency >30%: early {early:?}, late {late:?}"
    );
}

#[test]
fn tree_spans_all_nodes_and_uses_low_latency_links() {
    let mut sim = build(64, 13, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(60));
    let snap = snapshot(&sim);
    // Everyone except the root has a parent.
    assert_eq!(snap.tree_edge_count(), 63, "tree must span all nodes");
    // Tree links should be no worse than overlay links on average (the
    // tree picks shortest paths).
    let tree = snap.mean_tree_latency(sim.latency_model());
    let overlay = snap.mean_overlay_latency(sim.latency_model());
    assert!(
        tree <= overlay + Duration::from_millis(5),
        "tree {tree:?} should not exceed overlay {overlay:?}"
    );
    // The tree is a tree: no node is its own ancestor (walk to root).
    for (id, node) in sim.iter_nodes() {
        let mut cur = id;
        let mut hops = 0;
        while let Some(p) = sim.node(cur).tree_parent() {
            cur = p;
            hops += 1;
            assert!(hops <= 64, "cycle in tree starting at {id}");
        }
        assert!(sim.node(cur).is_root(), "walk from {id} ended off-root");
        let _ = node;
    }
}

#[test]
fn multicast_reaches_everyone_mostly_via_tree() {
    let mut sim = build(64, 14, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(60));
    for i in 0..5u32 {
        sim.command_now(NodeId::new(i * 7 + 1), GoCastCommand::Multicast);
    }
    sim.run_for(Duration::from_secs(10));
    let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
    assert_eq!(delivered, 5 * 63, "every node gets every message once");
    let via_tree = count_events(&sim, |e| {
        matches!(
            e,
            GoCastEvent::Delivered {
                via: DeliveryPath::Tree,
                ..
            }
        )
    });
    assert!(
        via_tree as f64 >= 0.95 * delivered as f64,
        "tree should carry almost everything: {via_tree}/{delivered}"
    );
    // Redundant receptions should be a small fraction. (The paper reports
    // ~2% at 1,024 nodes after 500 s of adaptation; at this small scale
    // with a 60 s-old tree the gossip-pull race fires more often. The
    // paper-scale number is checked by the `txt1` experiment.)
    let redundant = count_events(&sim, |e| matches!(e, GoCastEvent::RedundantData { .. }));
    assert!(
        (redundant as f64) < 0.2 * delivered as f64,
        "too many redundant payloads: {redundant}"
    );
}

#[test]
fn delivery_survives_mass_failure_without_repair() {
    let n = 64;
    let mut sim = build(n, 15, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(60));
    // Fail ~20% of nodes (every 5th, skipping the root at 0), then freeze
    // all repair, exactly like the paper's stress test.
    let mut failed = Vec::new();
    for i in (1..n as u32).step_by(5) {
        sim.fail_node(NodeId::new(i));
        failed.push(NodeId::new(i));
    }
    for i in 0..n as u32 {
        let id = NodeId::new(i);
        if sim.is_alive(id) {
            sim.command_now(id, GoCastCommand::FreezeMaintenance);
        }
    }
    sim.run_for(Duration::from_millis(200));
    let before = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));

    // A live node multicasts.
    let src = NodeId::new(2);
    assert!(sim.is_alive(src));
    sim.command_now(src, GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(30));

    let live: Vec<NodeId> = sim.alive_nodes().collect();
    let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. })) - before;
    assert_eq!(
        delivered,
        live.len() - 1,
        "all live nodes must receive the message despite the broken tree"
    );
    // At least some deliveries must have used the gossip-pull path (the
    // tree alone cannot cross dead fragments).
    let pulls = count_events(&sim, |e| matches!(e, GoCastEvent::PullRequested { .. }));
    assert!(pulls > 0, "expected gossip-based recovery to kick in");
}

#[test]
fn proximity_and_random_overlay_presets_deliver_without_tree() {
    for (name, cfg) in [
        ("proximity", GoCastConfig::proximity_overlay()),
        ("random", GoCastConfig::random_overlay()),
    ] {
        let mut sim = build(48, 16, cfg);
        sim.run_until(SimTime::from_secs(40));
        sim.command_now(NodeId::new(3), GoCastCommand::Multicast);
        sim.run_for(Duration::from_secs(30));
        let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
        assert_eq!(delivered, 47, "{name}: overlay gossip must reach everyone");
        // No tree means nothing is delivered via a tree link.
        let via_tree = count_events(&sim, |e| {
            matches!(
                e,
                GoCastEvent::Delivered {
                    via: DeliveryPath::Tree,
                    ..
                }
            )
        });
        assert_eq!(via_tree, 0, "{name}: tree is disabled");
    }
}

#[test]
fn root_failover_elects_new_root_and_tree_recovers() {
    let mut sim = build(48, 17, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(40));
    let old_root = NodeId::new(0);
    assert!(sim.node(old_root).is_root());
    sim.fail_node(old_root);
    // Failover needs heartbeat_timeout_factor (3) missed heartbeats (15 s)
    // plus re-flood time.
    sim.run_for(Duration::from_secs(120));
    let roots: Vec<NodeId> = sim
        .alive_nodes()
        .filter(|&id| sim.node(id).is_root())
        .collect();
    assert_eq!(roots.len(), 1, "exactly one live root, got {roots:?}");
    // Everyone alive follows the new root and a multicast still works.
    for id in sim.alive_nodes() {
        assert_eq!(
            sim.node(id).current_root(),
            roots[0],
            "{id} follows old root"
        );
    }
    let before = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
    sim.command_now(NodeId::new(5), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(10));
    let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. })) - before;
    assert_eq!(
        delivered, 46,
        "multicast after failover reaches all live nodes"
    );
}

#[test]
fn runtime_join_integrates_new_node() {
    let n = 33; // node 32 starts detached
    let net = synthetic_king(
        n,
        &SyntheticKingConfig {
            sites: 33,
            ..Default::default()
        },
    );
    let mut boot = gocast::bootstrap_random_graph(n - 1, 3, 18);
    let mut sim = SimBuilder::new(net).seed(18).build_with(Rec::new(), |id| {
        if id.index() < n - 1 {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
        } else {
            // The joiner: no links, no view; joins through node 3 later.
            GoCastNode::new(id, GoCastConfig::default(), Vec::new())
        }
    });
    sim.run_until(SimTime::from_secs(30));
    let joiner = NodeId::new(32);
    assert_eq!(sim.node(joiner).degrees().total(), 0);
    sim.command_now(
        joiner,
        GoCastCommand::Join {
            contact: NodeId::new(3),
        },
    );
    sim.run_for(Duration::from_secs(30));
    let d = sim.node(joiner).degrees();
    assert!(
        d.total() >= 4,
        "joiner should reach near-target degree, got {d:?}"
    );
    assert!(d.d_rand >= 1, "joiner needs a random link, got {d:?}");
    // And it receives multicasts.
    let before = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
    sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(10));
    let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. })) - before;
    assert_eq!(delivered, 32, "all nodes incl. the joiner receive");
}

#[test]
fn graceful_leave_detaches_node() {
    let mut sim = build(48, 19, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(40));
    let leaver = NodeId::new(7);
    sim.command_now(leaver, GoCastCommand::Leave);
    sim.run_for(Duration::from_secs(20));
    assert_eq!(sim.node(leaver).degrees().total(), 0);
    // Ex-neighbors recovered their degrees.
    let snap = snapshot(&sim);
    let degs = snap.degrees();
    for (i, &d) in degs.iter().enumerate() {
        if i != leaver.index() {
            assert!(d >= 4, "node {i} left under-connected: {d}");
        }
    }
}

#[test]
fn same_seed_same_trace_different_seed_differs() {
    let run = |seed| {
        let mut sim = build(32, seed, GoCastConfig::default());
        sim.run_until(SimTime::from_secs(20));
        sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
        sim.run_for(Duration::from_secs(5));
        sim.into_recorder().events
    };
    let a = run(23);
    let b = run(23);
    assert_eq!(a, b, "same seed must reproduce the exact event trace");
    let c = run(24);
    assert_ne!(a, c, "different seeds should explore different traces");
}

#[test]
fn adaptive_periods_cut_idle_overhead_without_losing_messages() {
    let run = |adaptive: bool| {
        let cfg = GoCastConfig {
            adaptive_gossip: adaptive,
            adaptive_maintenance: adaptive,
            ..Default::default()
        };
        let mut sim = build(64, 27, cfg);
        sim.run_until(SimTime::from_secs(60));
        // Quiet period: count probe + gossip traffic for 60 s with no
        // multicast at all.
        sim.reset_stats();
        sim.run_for(Duration::from_secs(60));
        let quiet_msgs = sim.stats().total().messages;
        // Then traffic resumes and must still be delivered promptly.
        sim.reset_stats();
        for i in 0..10u32 {
            sim.schedule_command(
                sim.now() + Duration::from_millis(100 * i as u64),
                NodeId::new(i),
                GoCastCommand::Multicast,
            );
        }
        sim.run_for(Duration::from_secs(10));
        let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
        (quiet_msgs, delivered)
    };
    let (fixed_quiet, fixed_delivered) = run(false);
    let (adaptive_quiet, adaptive_delivered) = run(true);
    assert_eq!(fixed_delivered, 10 * 63);
    assert_eq!(
        adaptive_delivered,
        10 * 63,
        "adaptivity must not lose messages"
    );
    assert!(
        (adaptive_quiet as f64) < 0.7 * fixed_quiet as f64,
        "adaptive idle traffic {adaptive_quiet} should be well below fixed {fixed_quiet}"
    );
}

#[test]
fn delivery_survives_link_failures_and_repairs() {
    let mut sim = build(64, 26, GoCastConfig::default());
    sim.run_until(SimTime::from_secs(60));
    // Cut every tree link of node 9 (its parent and children) without
    // killing anyone — a pure network fault.
    let victim = NodeId::new(9);
    let tree_peers = sim.node(victim).tree_neighbors();
    assert!(!tree_peers.is_empty());
    for p in &tree_peers {
        sim.apply_fault(NetFault::CutLink(victim, *p));
    }
    // A multicast still reaches the victim through gossip pulls over its
    // remaining overlay links.
    let before = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
    sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(10));
    let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. })) - before;
    assert_eq!(delivered, 63, "link cuts must not lose messages");
    assert!(sim
        .node(victim)
        .has_message(gocast::MsgId::new(NodeId::new(1), 0)));

    // Maintenance then notices the dead links (neighbor timeout) and
    // repairs: the victim reconnects and rejoins the tree.
    sim.run_for(Duration::from_secs(60));
    let d = sim.node(victim).degrees();
    assert!(
        d.total() >= 4,
        "victim should re-grow its degree, got {d:?}"
    );
    let parent = sim.node(victim).tree_parent();
    if let Some(p) = parent {
        assert!(
            !sim.faults().is_cut(victim, p),
            "victim must not keep a dead parent link"
        );
    }
}

#[test]
fn pull_delay_reduces_redundancy() {
    let run = |cfg: GoCastConfig| {
        let mut sim = build(64, 25, cfg);
        sim.run_until(SimTime::from_secs(60));
        for i in 0..20u32 {
            sim.schedule_command(
                SimTime::from_secs(60) + Duration::from_millis(i as u64 * 100),
                NodeId::new(i % 64),
                GoCastCommand::Multicast,
            );
        }
        sim.run_for(Duration::from_secs(15));
        let redundant = count_events(&sim, |e| matches!(e, GoCastEvent::RedundantData { .. }));
        let delivered = count_events(&sim, |e| matches!(e, GoCastEvent::Delivered { .. }));
        assert_eq!(delivered, 20 * 63);
        redundant
    };
    let without = run(GoCastConfig::default());
    let with = run(GoCastConfig::default().with_pull_delay(Duration::from_millis(300)));
    assert!(
        with <= without,
        "f-delay must not increase redundancy: with={with} without={without}"
    );
}
