//! Dynamic membership: nodes join through the runtime join protocol,
//! leave gracefully, and crash — while multicast traffic keeps flowing.
//!
//! The paper requires that "a node join or leave affects only a small
//! number of other nodes and those nodes handle the change locally". This
//! example starts with a 64-node core, grows the group to 128 through
//! `Join` commands, then churns (leaves + crashes) while verifying that
//! joined members keep receiving every multicast.
//!
//! Run with: `cargo run --release -p gocast-examples --bin churny_swarm`

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastNode};
use gocast_analysis::MetricsRecorder;
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{NodeId, SimBuilder, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let total = 128usize; // address space
    let core = 64usize; // initially joined
    println!(
        "churny swarm: {core} founding nodes; {} joiners; then churn\n",
        total - core
    );

    let net = synthetic_king(
        total,
        &SyntheticKingConfig {
            sites: total,
            ..Default::default()
        },
    );
    let mut boot = gocast::bootstrap_random_graph(core, 3, 17);
    let mut sim = SimBuilder::new(net)
        .seed(17)
        .build_with(MetricsRecorder::new(), |id| {
            if id.index() < core {
                let (links, members) = boot(id);
                GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
            } else {
                GoCastNode::new(id, GoCastConfig::default(), Vec::new())
            }
        });

    // Founding cohort stabilizes.
    sim.run_until(SimTime::from_secs(40));

    // Joiners arrive one per second, each through a random founder.
    let mut rng = SmallRng::seed_from_u64(18);
    for (k, i) in (core..total).enumerate() {
        let contact = NodeId::new(rng.gen_range(0..core as u32));
        sim.schedule_command(
            SimTime::from_secs(40 + k as u64),
            NodeId::new(i as u32),
            GoCastCommand::Join { contact },
        );
    }
    sim.run_until(SimTime::from_secs(40 + (total - core) as u64 + 30));

    let joined = sim
        .iter_nodes()
        .filter(|(_, n)| n.degrees().total() >= 4)
        .count();
    println!("after join wave: {joined}/{total} nodes at healthy degree (>= 4)");

    // Churn phase: 10 graceful leaves and 10 crashes, spread over 60 s.
    let mut gone = Vec::new();
    for k in 0..20u64 {
        let victim = loop {
            let c = NodeId::new(rng.gen_range(0..total as u32));
            if sim.is_alive(c) && !gone.contains(&c) {
                break c;
            }
        };
        gone.push(victim);
        let at = sim.now() + Duration::from_secs(3 * k);
        if k % 2 == 0 {
            sim.schedule_command(at, victim, GoCastCommand::Leave);
        } else {
            sim.fail_node_at(at, victim);
        }
    }
    sim.run_for(Duration::from_secs(90)); // churn + recovery

    // Traffic check: everyone still standing receives multicasts.
    let members: Vec<NodeId> = sim
        .alive_nodes()
        .filter(|&id| sim.node(id).is_joined() && sim.node(id).degrees().total() > 0)
        .collect();
    let before = sim.recorder().delivery().delivered();
    let msgs = 20u32;
    for i in 0..msgs {
        let src = members[rng.gen_range(0..members.len())];
        sim.schedule_command(
            sim.now() + Duration::from_millis(100 * i as u64),
            src,
            GoCastCommand::Multicast,
        );
    }
    sim.run_for(Duration::from_secs(20));
    let delivered = sim.recorder().delivery().delivered() - before;
    let expected = msgs as u64 * (members.len() as u64 - 1);

    println!(
        "churn done: {} leaves/crashes; {} members remain",
        gone.len(),
        members.len()
    );
    println!("post-churn multicast: {delivered}/{expected} deliveries");
    let degrees: Vec<u16> = members
        .iter()
        .map(|&id| sim.node(id).degrees().total())
        .collect();
    let at_target = degrees.iter().filter(|&&d| (6..=7).contains(&d)).count();
    println!(
        "degrees: {}/{} members at 6-7 (self-healing back to target)",
        at_target,
        members.len()
    );
    assert_eq!(
        delivered, expected,
        "every surviving member must receive every message"
    );
    println!("\nswarm absorbed the churn — done.");
}
