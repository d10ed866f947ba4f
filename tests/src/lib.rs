//! Integration-test crate for the GoCast workspace.
//!
//! The tests live in `tests/tests/`; this library only hosts shared
//! helpers for them.

#![warn(missing_docs)]

use std::time::Duration;

use gocast::{GoCastConfig, GoCastEvent, GoCastNode};
use gocast_analysis::MetricsRecorder;
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{Sim, SimBuilder, SimTime};

/// Builds a warmed-up GoCast simulation at small scale on a synthetic
/// Internet: `n` nodes, adapted for `warmup_secs` seconds.
pub fn warmed_gocast(
    n: usize,
    seed: u64,
    cfg: GoCastConfig,
    warmup_secs: u64,
) -> Sim<GoCastNode, MetricsRecorder> {
    let net = synthetic_king(
        n,
        &SyntheticKingConfig {
            sites: n.max(32),
            seed: seed ^ 0xABCD,
        },
    );
    let mut boot = gocast::bootstrap_random_graph(n, cfg.c_degree() / 2, seed);
    let mut sim = SimBuilder::new(net)
        .seed(seed)
        .build_with(MetricsRecorder::new(), |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, cfg.clone(), links, members)
        });
    sim.run_until(SimTime::ZERO + Duration::from_secs(warmup_secs));
    sim
}

/// Counts recorded deliveries.
pub fn delivered(sim: &Sim<GoCastNode, MetricsRecorder>) -> u64 {
    sim.recorder().delivery().delivered()
}

/// Re-exported event type for test assertions.
pub type Event = GoCastEvent;
