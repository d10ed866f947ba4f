//! `gocast-testnet`: a process-local deployment fabric for GoCast.
//!
//! The simulation kernel (`gocast-sim`) runs the protocol in virtual
//! time; this crate is the socket host that runs the same sans-IO state
//! machines in wall-clock time. It spins up N GoCast nodes inside one
//! process, each on its own non-blocking loopback [`std::net::UdpSocket`],
//! driven by a hand-rolled synchronous event loop (sockets + the
//! [`gocast_udp::TimerWheel`] scheduler — no async runtime). On top of
//! that fabric it layers the pieces a real deployment study needs:
//!
//! - **Seed bootstrap** ([`bootstrap`]): nodes start knowing only the
//!   seed nodes' addresses and discover the rest at runtime through a
//!   tiny WHOHAS/PEER side protocol.
//! - **Chaos parity**: the same compiled
//!   [`gocast_sim::scenario::ScenarioPlan`]s the PR-4 chaos engine runs
//!   in simulation replay against the real sockets — loss, jitter,
//!   partitions, link cuts, crash/leave/join — and each shard keeps the
//!   network faults in the kernel's own [`gocast_sim::FaultState`],
//!   consulted on the transmit path before `send_to`, so the two hosts
//!   cannot disagree on what a fault means.
//! - **Wire-side tracing**: every protocol event a node emits is captured
//!   with fabric-monotonic time and rendered in the PR-2 JSONL trace
//!   format, so `gocast_analysis::trace` (including the
//!   `InvariantOracle`) audits real-socket runs unchanged.
//! - **Sim-vs-wire conformance** ([`conformance`]): a differential
//!   harness that runs the same workload through the simulator and the
//!   testnet and compares delivery ratio, hop histograms, and
//!   tree-vs-pull recovery fractions within stated tolerances.
//! - **A batched, sharded wire path** ([`batch`]): outbound datagrams
//!   gather into `sendmmsg` batches and inbound traffic drains through
//!   `recvmmsg` (portable one-at-a-time fallback at runtime), while
//!   [`TestnetConfig::shards`] partitions nodes across OS threads, each
//!   owning its slice's sockets and timers. Steady-state framing
//!   allocates nothing.
//!
//! # Quick start
//!
//! ```no_run
//! use std::time::Duration;
//! use gocast_sim::{NodeId, SimTime};
//! use gocast::GoCastCommand;
//! use gocast_testnet::{Testnet, TestnetConfig};
//!
//! let cfg = TestnetConfig::new(8).with_seed(7);
//! let mut net = Testnet::build_bootstrap(&cfg).unwrap();
//! // Let the overlay and tree form, then multicast from node 3.
//! net.schedule_command(
//!     SimTime::from_secs(3),
//!     NodeId::new(3),
//!     GoCastCommand::Multicast,
//! );
//! net.run_for(Duration::from_secs(5));
//! let jsonl = net.trace_jsonl(); // feed to gocast-analysis
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod bootstrap;
pub mod conformance;
mod fabric;
mod shard;

pub use batch::{BatchBuffer, BatchMode, RecvBatch};
pub use bootstrap::PeerTable;
pub use conformance::{ConformanceOptions, ConformanceReport, SideReport};
pub use fabric::{FabricStats, Testnet, TestnetConfig};

use std::net::{Ipv4Addr, UdpSocket};
use std::time::Duration;

use gocast::GoCastConfig;

/// The protocol configuration testnet runs default to: wall-clock-friendly
/// cadences (the paper's 15 s heartbeat is sized for WANs), so a tree
/// forms within a few seconds of real time.
pub fn deployment_config() -> GoCastConfig {
    GoCastConfig {
        gossip_period: Duration::from_millis(50),
        maintenance_period: Duration::from_millis(50),
        heartbeat_period: Duration::from_millis(500),
        idle_gossip_interval: Duration::from_millis(300),
        landmark_count: 2,
        ..Default::default()
    }
}

/// Whether this environment can bind loopback UDP sockets at all.
/// Socket-dependent tests and CI steps skip gracefully when it cannot
/// (some sandboxes forbid any socket creation).
pub fn loopback_available() -> bool {
    UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).is_ok()
}
