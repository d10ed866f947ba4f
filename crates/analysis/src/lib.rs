//! # gocast-analysis — offline analysis for GoCast experiments
//!
//! Turns raw simulation output into the quantities the paper's figures
//! plot:
//!
//! - [`DeliveryTracker`] — the run's one delivery ledger: a streaming
//!   [`gocast_sim::Recorder`] counting injections, deliveries (tree or
//!   pull, hops, delays), redundant payloads, pushes, IHAVEs and pulls in
//!   O(nodes + messages) state, plus windowed delivery ratios (no event
//!   buffering at paper scale);
//! - [`MetricsRecorder`] — the run's one counting recorder, which every
//!   experiment runner installs: the delivery ledger plus link churn per
//!   second, [`OrphanTracker`] spells (tree detachment in fault-scenario
//!   runs) and the application tier's [`ConvergenceTracker`];
//! - [`WindowRatio`] — sliding-window delivery ratios around faults;
//! - [`Cdf`] / [`Histogram`] — exact distribution statistics (delay CDFs
//!   of Figures 3–4, degree distributions of Figure 5(a)); the ledger's
//!   streaming, fixed-size counterpart of `Cdf` is
//!   [`gocast_sim::Log2Histogram`] (`DeliveryTracker::delay_histogram`);
//! - graph analysis ([`largest_component_fraction`], [`diameter`],
//!   [`component_sizes`], [`mean_path_length`]) for the resilience and
//!   scalability results (Figure 6, §3 summaries);
//! - [`Table`] — aligned terminal tables plus CSV output for every
//!   experiment;
//! - [`TraceAnalysis`] — per-message dissemination-tree reconstruction
//!   and per-hop latency, and [`InvariantOracle`] — the protocol invariant
//!   checker. Like the ledgers, both are recorders: a live run feeds them
//!   directly, and [`gocast_sim::replay`] feeds them a JSONL trace.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod convergence;
mod delivery;
mod graph;
mod oracle;
mod stats;
mod table;
mod trace;

pub use convergence::{ConvergenceReport, ConvergenceTracker};
pub use delivery::{DeliveryTracker, MetricsRecorder, OrphanTracker, WindowRatio, HOP_BUCKETS};
pub use graph::{
    bfs_distances, component_sizes, diameter, largest_component_fraction, mean_path_length,
};
pub use oracle::{InvariantOracle, OracleConfig, Violation, ViolationKind};
pub use stats::{Cdf, Histogram, Summary};
pub use table::{fmt_ms, fmt_secs, Table};
pub use trace::{PerHopLatency, TraceAnalysis, TraceReport};
