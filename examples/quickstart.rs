//! Quickstart: build a GoCast group on a synthetic Internet, let the
//! overlay adapt, multicast a few messages, and print what happened.
//!
//! Run with: `cargo run --release -p gocast-examples --bin quickstart`

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastNode};
use gocast_analysis::MetricsRecorder;
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{NodeId, SimBuilder, SimTime};

fn main() {
    let n = 128;
    println!("GoCast quickstart: {n} nodes on a synthetic Internet\n");

    // 1. A latency model: 128 sites in continent-like clusters, calibrated
    //    to the King dataset's statistics (mean one-way ~ 91 ms).
    let net = synthetic_king(
        n,
        &SyntheticKingConfig {
            sites: n,
            ..Default::default()
        },
    );

    // 2. One GoCastNode per participant, bootstrapped as a random graph
    //    (3 links each, so the average degree starts at the target 6).
    let mut boot = gocast::bootstrap_random_graph(n, 3, 7);
    let mut sim = SimBuilder::new(net)
        .seed(7)
        .build_with(MetricsRecorder::new(), |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
        });

    // 3. Let the maintenance protocols shape the overlay and the tree.
    sim.run_until(SimTime::from_secs(60));
    let snap = gocast::snapshot(&sim);
    println!(
        "after 60 s of adaptation: {} overlay links (mean latency {:.1} ms), \
         tree spans {}/{} nodes (mean link latency {:.1} ms)",
        snap.overlay_edge_count(),
        snap.mean_overlay_latency(sim.latency_model()).as_secs_f64() * 1e3,
        snap.tree_edge_count() + 1,
        n,
        snap.mean_tree_latency(sim.latency_model()).as_secs_f64() * 1e3,
    );

    // 4. Multicast ten messages from different sources.
    for i in 0..10u32 {
        sim.schedule_command(
            sim.now() + Duration::from_millis(100 * i as u64),
            NodeId::new(i * 11 % n as u32),
            GoCastCommand::Multicast,
        );
    }
    sim.run_for(Duration::from_secs(10));

    // 5. Report. The delay distribution comes from the ledger's
    //    fixed-size streaming histogram (delays in nanoseconds): bounded
    //    memory no matter how many deliveries ran, exact max, and
    //    quantiles rounded up to their bucket, at most 1/32 high.
    let rec = sim.recorder().delivery();
    let hist = rec.delay_histogram();
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "\n{} messages, {} deliveries:",
        rec.injected(),
        rec.delivered()
    );
    println!(
        "  median delay  {:>8.1} ms",
        ms(hist.quantile_upper_bound(0.5))
    );
    println!(
        "  p99 delay     {:>8.1} ms",
        ms(hist.quantile_upper_bound(0.99))
    );
    println!("  max delay     {:>8.1} ms", ms(hist.max()));
    println!(
        "  {:.1}% via tree, redundancy {:.3}, {} gossip pulls",
        rec.tree_fraction() * 100.0,
        rec.redundancy_factor(),
        rec.pulls()
    );
    assert_eq!(
        rec.delivered(),
        10 * (n as u64 - 1),
        "everyone got everything"
    );
    println!("\nevery node received every message — done.");
}
