//! # gocast — gossip-enhanced overlay multicast
//!
//! A from-scratch implementation of **GoCast** (Tang, Chang & Ward,
//! *GoCast: Gossip-Enhanced Overlay Multicast for Fast and Dependable
//! Group Communication*, DSN 2005).
//!
//! GoCast organizes nodes into a degree-constrained, proximity-aware
//! overlay (each node keeps `C_rand` = 1 random neighbor for connectivity
//! and `C_near` = 5 low-latency neighbors for efficiency). Multicast
//! messages propagate unconditionally along an efficient spanning tree
//! embedded in the overlay; in the background, neighbors exchange message
//! summaries (gossips) and pull anything the tree failed to deliver. The
//! result is reliable-multicast speed with gossip-multicast dependability.
//!
//! The protocol is implemented **sans-IO** as the [`GoCastNode`] state
//! machine and driven by the deterministic [`gocast_sim`] kernel.
//!
//! ## Quick start
//!
//! ```
//! use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode};
//! use gocast_net::{synthetic_king, SyntheticKingConfig};
//! use gocast_sim::{NodeId, SimBuilder, SimTime, VecRecorder};
//! use std::time::Duration;
//!
//! // 32 nodes on a synthetic Internet; bootstrap with 3 random links each.
//! let n = 32;
//! let net = synthetic_king(n, &SyntheticKingConfig { sites: 32, ..Default::default() });
//! let mut boot = gocast::bootstrap_random_graph(n, 3, 99);
//! let mut sim = SimBuilder::new(net).seed(7).build_with(
//!     VecRecorder::new(),
//!     |id| {
//!         let (links, members) = boot(id);
//!         GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
//!     },
//! );
//!
//! // Let the overlay adapt, then multicast from node 5.
//! sim.run_until(SimTime::from_secs(30));
//! sim.command_now(NodeId::new(5), GoCastCommand::Multicast);
//! sim.run_for(Duration::from_secs(5));
//!
//! let delivered = sim
//!     .recorder()
//!     .events
//!     .iter()
//!     .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
//!     .count();
//! assert_eq!(delivered, n - 1, "everyone but the source received it");
//! ```
//!
//! ## Crate layout
//!
//! - [`GoCastConfig`] — all protocol parameters (paper defaults), plus the
//!   "proximity overlay" / "random overlay" comparison presets.
//! - [`GoCastNode`] — the protocol state machine (dissemination §2.1,
//!   overlay maintenance §2.2, tree §2.3).
//! - [`GoCastEvent`] — metric events consumed by recorders.
//! - [`snapshot`] — point-in-time overlay/tree graph extraction.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod config;
mod node;
mod snapshot;
mod types;
mod wire;

pub use codec::{decode, encode, encode_into, encoded_len, DecodeError};
pub use config::{ConfigError, GoCastConfig, GoCastConfigBuilder};
pub use node::{GoCastCommand, GoCastNode, NodeMem};
pub use snapshot::{snapshot, Snapshot};
pub use types::{
    age_on_arrival, DegreeInfo, DeliveryPath, DropReason, GoCastEvent, LinkKind, MsgId,
    ProtocolCounters,
};
pub use wire::{DeltaWire, GoCastMsg, GossipEntry, MemberEntry, ProbeKind, VvEntry, HEADER_BYTES};

use gocast_sim::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds the paper's bootstrap state: a random graph where each node has
/// initiated `links_per_node` connections to random peers (so the average
/// degree is `2 * links_per_node`), plus an initial random member view.
///
/// Returns a closure mapping each [`NodeId`] to its `(links, members)`;
/// feed it to [`gocast_sim::SimBuilder::build_with`].
///
/// # Panics
///
/// Panics if `n < links_per_node + 1`.
pub fn bootstrap_random_graph(
    n: usize,
    links_per_node: usize,
    seed: u64,
) -> impl FnMut(NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    assert!(n > links_per_node, "need more nodes than links per node");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for i in 0..n {
        let mut made = 0;
        let mut guard = 0;
        while made < links_per_node && guard < 100 {
            guard += 1;
            let j = rng.gen_range(0..n);
            if j == i || adj[i].contains(&NodeId::new(j as u32)) {
                continue;
            }
            adj[i].push(NodeId::new(j as u32));
            adj[j].push(NodeId::new(i as u32));
            made += 1;
        }
    }
    // Member views: a random sample of the cohort per node.
    let view_size = 32.min(n - 1);
    let mut views: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut v = Vec::with_capacity(view_size);
        let mut guard = 0;
        while v.len() < view_size && guard < 10 * view_size {
            guard += 1;
            let j = rng.gen_range(0..n);
            if j != i && !v.contains(&NodeId::new(j as u32)) {
                v.push(NodeId::new(j as u32));
            }
        }
        views.push(v);
    }
    move |id: NodeId| {
        (
            std::mem::take(&mut adj[id.index()]),
            std::mem::take(&mut views[id.index()]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_graph_is_symmetric_with_expected_degree() {
        let n = 64;
        let mut boot = bootstrap_random_graph(n, 3, 1);
        let links: Vec<Vec<NodeId>> = (0..n).map(|i| boot(NodeId::new(i as u32)).0).collect();
        let total: usize = links.iter().map(Vec::len).sum();
        // Each initiated link appears at both endpoints.
        assert!(
            total >= 2 * 3 * n - 2 * n,
            "roughly 6 per node, got {total}"
        );
        for (i, l) in links.iter().enumerate() {
            for p in l {
                assert!(
                    links[p.index()].contains(&NodeId::new(i as u32)),
                    "link {i}-{p} not symmetric"
                );
            }
        }
    }

    #[test]
    fn bootstrap_views_exclude_self() {
        let n = 16;
        let mut boot = bootstrap_random_graph(n, 2, 2);
        for i in 0..n {
            let (_, members) = boot(NodeId::new(i as u32));
            assert!(!members.contains(&NodeId::new(i as u32)));
            assert!(!members.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn bootstrap_rejects_tiny_n() {
        let _ = bootstrap_random_graph(3, 3, 0);
    }
}
