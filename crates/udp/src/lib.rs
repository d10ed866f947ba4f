//! # gocast-udp — wall-clock scheduling for a socket host
//!
//! The protocol core ([`gocast::GoCastNode`]) is a sans-IO state machine;
//! the simulation kernel drives it in virtual time and the
//! `gocast-testnet` fabric drives it over real UDP sockets. What a
//! wall-clock host needs and the simulator's event queue does not give it
//! lives here: [`TimerWheel`] (deadline-ordered, dedup-by-identity,
//! cancellation-aware protocol timers) and [`DelayQueue`] (payloads held
//! until an [`Instant`](std::time::Instant)). See [`sched`].
//!
//! The crate binds no socket and runs no loop; `gocast-testnet` is the
//! one socket host.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sched;

pub use sched::{DelayQueue, TimerWheel};
