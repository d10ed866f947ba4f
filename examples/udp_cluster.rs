//! Real-network demo: an 8-node GoCast group over actual UDP sockets on
//! loopback — the same state machine the simulations validate, driven by
//! the `gocast-testnet` fabric instead of the simulator. Every node binds
//! an ephemeral port and learns its peers' addresses from three seeds.
//!
//! Run with: `cargo run --release -p gocast-examples --bin udp_cluster`

use std::time::Duration;

use gocast::{GoCastCommand, GoCastEvent, MsgId};
use gocast_sim::{NodeId, SimTime};
use gocast_testnet::{loopback_available, Testnet, TestnetConfig};

fn main() {
    if !loopback_available() {
        println!("loopback UDP unavailable in this environment — nothing to demo.");
        return;
    }
    let n = 8;
    // `TestnetConfig::new` runs `deployment_config()`: the paper's 15 s
    // heartbeat is sized for WANs, a loopback demo wants the tree within
    // a second or two.
    let cfg = TestnetConfig::new(n).with_seed(1000);
    let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback sockets");
    println!(
        "started {n} GoCast nodes on {} .. {}",
        net.addr_of(NodeId::new(0)),
        net.addr_of(NodeId::new(n as u32 - 1)),
    );

    // Overlay + tree formation, then three multicasts from different nodes.
    let sources = [(2u32, 2000), (5, 2200), (7, 2500)];
    for (src, at_ms) in sources {
        net.schedule_command(
            SimTime::from_millis(at_ms),
            NodeId::new(src),
            GoCastCommand::Multicast,
        );
    }
    net.run_for(Duration::from_millis(3500));

    println!("\nper-node summary:");
    for node in net.iter_nodes() {
        println!(
            "  {}: degree {}, parent {:?}, root {}, {} peer addresses learned",
            node.id(),
            node.degrees().total(),
            node.tree_parent(),
            node.current_root(),
            net.known_peers(node.id()),
        );
    }
    println!("wire: {}", net.stats());

    let mut ok = true;
    for (src, _) in sources {
        let id = MsgId::new(NodeId::new(src), 0);
        let holders = net.iter_nodes().filter(|h| h.has_message(id)).count();
        println!("message {id}: held by {holders}/{n} nodes");
        ok &= holders == n;
    }
    let deliveries = net
        .trace()
        .iter()
        .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
        .count();
    println!("deliveries observed: {deliveries}");
    assert!(ok, "some node missed a multicast over UDP");
    println!("\nall multicasts reached all nodes over real UDP — done.");
}
