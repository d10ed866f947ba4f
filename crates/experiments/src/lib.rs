//! # gocast-experiments — regenerating every figure of the GoCast paper
//!
//! Every experiment is a configuration of one [`pipeline`] — build →
//! warm → plan → inject → drive → audit — over a kernel, a stack, a
//! scenario, a source rule and a set of observers (DESIGN.md's experiment
//! index tabulates them). Each function in [`figures`] reproduces one
//! figure or in-text claim of the paper: it runs the necessary
//! simulations, prints the series/rows the paper reports, and writes CSV
//! under `results/`; [`chaos`], [`compare`], [`scale`] and [`app`] drive
//! the same phases under fault scenarios. The `gocast-experiments` binary
//! exposes them as subcommands, and the integration tests call the same
//! functions at reduced scale.
//!
//! ```no_run
//! use gocast_experiments::{figures, ExpOptions};
//!
//! // Quick-scale Figure 3(a): five protocols, no failures.
//! let tables = figures::fig3(&ExpOptions::quick(), 0.0);
//! assert_eq!(tables[0].rows(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod chaos;
pub mod compare;
pub mod figures;
pub mod metrics_view;
mod options;
pub mod pipeline;
pub mod report;
pub mod runners;
pub mod scale;
pub mod sweep;
pub mod testnet;

pub use options::{ExpOptions, GivenFlags, Scale, StackKind, MAX_JOBS};
pub use runners::{DelayStats, Proto};
