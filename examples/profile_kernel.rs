//! The cache-resident kernel loop: 128 GoCast nodes on the serial kernel,
//! 30 sim-s of warm-up, then the given number of steady sim-seconds
//! (default 60), printing the kernel counters (events, wall time,
//! events/s). Small enough to stay in cache, so it isolates dispatch cost
//! from memory traffic; run it under a profiler (`gprofng collect app`)
//! or alternate two builds' binaries for paired measurements.
//!
//! Run with: `cargo run --release -p gocast-examples --bin profile_kernel -- 60`

use std::time::Duration;

use gocast::{GoCastConfig, GoCastNode};
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{SimBuilder, SimTime};

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let mut boot = gocast::bootstrap_random_graph(128, 3, 9);
    let net = synthetic_king(
        128,
        &SyntheticKingConfig {
            sites: 128,
            seed: 9,
        },
    );
    let mut sim = SimBuilder::new(net).seed(9).build(|id| {
        let (links, members) = boot(id);
        GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
    });
    sim.run_until(SimTime::from_secs(30));
    sim.run_for(Duration::from_secs(secs));
    println!("{}", sim.kernel_stats());
}
