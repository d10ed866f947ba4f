//! Diagnostic (run with --nocapture): dumps tree structure after adaptation.

use gocast::{GoCastConfig, GoCastEvent, GoCastNode};
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{NodeId, SimBuilder, SimTime, VecRecorder};

#[test]
#[ignore]
fn dump_tree_state() {
    let n = 64;
    let seed = 13;
    let net = synthetic_king(
        n,
        &SyntheticKingConfig {
            sites: n.max(16),
            seed: seed ^ 0xFEED,
        },
    );
    let mut boot = gocast::bootstrap_random_graph(n, 3, seed);
    let mut sim =
        SimBuilder::new(net)
            .seed(seed)
            .build_with(VecRecorder::<GoCastEvent>::new(), |id| {
                let (links, members) = boot(id);
                GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
            });
    sim.run_until(SimTime::from_secs(60));
    for i in 0..n as u32 {
        let node = sim.node(NodeId::new(i));
        println!(
            "n{i}: parent={:?} root={} is_root={} seq={} dist={:?} children={:?} neighbors={:?}",
            node.tree_parent(),
            node.current_root(),
            node.is_root(),
            node.tree_seq(),
            node.tree_distance(),
            node.tree_children(),
            node.overlay_links().map(|(p, _, _)| p).collect::<Vec<_>>(),
        );
    }
    // Find cycles.
    for i in 0..n as u32 {
        let mut cur = NodeId::new(i);
        let mut seen = vec![cur];
        while let Some(p) = sim.node(cur).tree_parent() {
            if seen.contains(&p) {
                println!("CYCLE from n{i}: {seen:?} -> {p}");
                break;
            }
            seen.push(p);
            cur = p;
            if seen.len() > n {
                break;
            }
        }
    }
    let parent_changes = sim
        .recorder()
        .events
        .iter()
        .filter(|(t, _, e)| {
            matches!(e, GoCastEvent::ParentChanged { .. }) && *t > SimTime::from_secs(40)
        })
        .count();
    println!("parent changes after t=40s: {parent_changes}");

    // Inject 5 multicasts like the failing test and trace delays.
    for i in 0..5u32 {
        sim.command_now(NodeId::new(i * 7 + 1), gocast::GoCastCommand::Multicast);
    }
    sim.run_until(SimTime::from_secs(70));
    let mut inject = std::collections::HashMap::new();
    let mut delays = Vec::new();
    let mut pulls = 0;
    let mut redundant = 0;
    for (t, _, e) in &sim.recorder().events {
        match e {
            GoCastEvent::Injected { id } => {
                inject.insert(*id, *t);
            }
            GoCastEvent::Delivered { id, .. } => {
                if let Some(t0) = inject.get(id) {
                    delays.push(t.saturating_since(*t0));
                }
            }
            GoCastEvent::PullRequested { .. } if *t > SimTime::from_secs(59) => pulls += 1,
            GoCastEvent::RedundantData { .. } if *t > SimTime::from_secs(59) => redundant += 1,
            _ => {}
        }
    }
    delays.sort();
    println!(
        "deliveries={} pulls={} redundant={} p50={:?} p90={:?} max={:?}",
        delays.len(),
        pulls,
        redundant,
        delays[delays.len() / 2],
        delays[delays.len() * 9 / 10],
        delays.last().unwrap()
    );
}
