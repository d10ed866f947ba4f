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
//! - [`TimeSeriesRecorder`] — windowed event rates (link churn, traffic)
//!   in O(sim seconds / window) memory;
//! - [`MetricsRecorder`] — the composite of the two that every experiment
//!   runner uses;
//! - [`WindowRatio`] / [`OrphanTracker`] — sliding-window delivery
//!   ratios and orphaned-node durations for fault-scenario (chaos) runs;
//! - [`Cdf`] / [`DelayHistogram`] / [`Histogram`] — distribution
//!   statistics (delay CDFs of Figures 3–4, degree distributions of
//!   Figure 5(a)); `DelayHistogram` is the bounded-memory streaming
//!   counterpart of `Cdf`;
//! - graph analysis ([`largest_component_fraction`], [`diameter`],
//!   [`component_sizes`], [`mean_path_length`]) for the resilience and
//!   scalability results (Figure 6, §3 summaries);
//! - [`Table`] — aligned terminal tables plus CSV output for every
//!   experiment;
//! - the [`mod@trace`] module — JSONL causal-trace parsing
//!   ([`scan_trace`]), per-message dissemination-tree reconstruction
//!   ([`TraceAnalysis`]), and the online [`InvariantOracle`] protocol
//!   checker.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod convergence;
mod delivery;
mod graph;
mod recovery;
mod stats;
mod table;
mod timeseries;
pub mod trace;

pub use convergence::{ConvergenceReport, ConvergenceTracker};
pub use delivery::{DeliveryTracker, LinkChurnSelect, MetricsRecorder, HOP_BUCKETS};
pub use graph::{
    bfs_distances, component_sizes, diameter, largest_component_fraction, mean_path_length,
};
pub use recovery::{OrphanTracker, WindowRatio};
pub use stats::{Cdf, DelayHistogram, Histogram, Summary};
pub use table::{fmt_ms, fmt_secs, Table};
pub use timeseries::TimeSeriesRecorder;
pub use trace::{
    parse_line, scan_trace, InvariantOracle, OracleConfig, ProtoTag, TraceAnalysis, TraceError,
    TraceRecord, TraceReport, Violation, ViolationKind,
};
