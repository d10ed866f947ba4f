//! # gocast-udp — monotonic-clock deadline queues
//!
//! [`TimerWheel`] (protocol timers, each schedule fired once — the timer
//! contract the simulation kernel keeps) and [`DelayQueue`] (payloads
//! held until an [`Instant`](std::time::Instant)). See [`sched`].
//!
//! No host schedules on these: each `gocast-testnet` shard keeps one
//! `gocast_sim::EventQueue` keyed by fabric time. The crate binds no
//! socket and runs no loop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sched;

pub use sched::{DelayQueue, TimerWheel};
