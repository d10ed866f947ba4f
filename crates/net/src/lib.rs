//! # gocast-net — network substrate for the GoCast reproduction
//!
//! Everything the protocols need to know about "the Internet":
//!
//! - [`SiteLatencyMatrix`]: site-based one-way latency tables implementing
//!   [`gocast_sim::LatencyModel`], mirroring the King dataset's structure:
//!   one 24-bit entry per unordered site pair, in a lower triangle.
//! - [`synthetic_king`] / [`king_like`]: a calibrated synthetic replacement
//!   for the King dataset (mean one-way latency ≈ 91 ms, max ≤ 399 ms,
//!   continent-like clustering). See DESIGN.md for the substitution
//!   rationale.
//! - [`AsTopology`] / [`LinkStress`]: an AS-level physical topology with
//!   shortest-path routing, used to measure the stress overlay traffic
//!   imposes on bottleneck physical links.
//! - [`LandmarkVector`]: decentralized RTT estimation (the paper's
//!   "triangular heuristic") used to rank neighbor candidates cheaply.
//!
//! ```
//! use gocast_net::king_like;
//! use gocast_sim::{LatencyModel, NodeId};
//!
//! let net = king_like(64, 42);
//! let l = net.one_way(NodeId::new(0), NodeId::new(1));
//! assert!(l > std::time::Duration::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod astopo;
mod estimate;
mod king;
mod matrix;
mod ondemand;

pub use astopo::{geographic_site_assignment, AsTopology, LinkStress};
pub use estimate::{LandmarkVector, DEFAULT_LANDMARKS, MAX_LANDMARKS};
pub use king::{king_like, synthetic_king, two_continents, SyntheticKingConfig};
pub use matrix::SiteLatencyMatrix;
pub use ondemand::OnDemandKing;
