//! # gocast-sim — deterministic discrete-event simulation kernel
//!
//! The execution substrate for the GoCast reproduction. Protocols are
//! written **sans-IO** against the [`Protocol`] trait and driven by one
//! simulation [`Engine`] over a pluggable [`LatencyModel`]. The engine has
//! two entry points, and every method but the run loop is shared:
//!
//! - [`Sim`] — the engine at one lane: the single-threaded, fully
//!   deterministic discrete-event loop. No lookahead bound needed, events
//!   stream straight to the recorder, `step` / `run_until_idle` available.
//! - [`ShardedSim`] — the same engine at `lanes ≥ 1`, for scale: the node
//!   population is split into fixed *lanes* ([`DEFAULT_LANES`]), events
//!   execute in conservative lookahead windows, and the lanes fan across
//!   worker threads. Thread count is pure execution policy — output is
//!   byte-identical at any `threads` value, so 10⁵–10⁶-node runs can use
//!   every core without giving up replay. At one lane it runs the very
//!   loop `Sim` runs.
//!
//! The paper evaluates GoCast with exactly this style of simulator ("We
//! built an event-driven simulator ... We do not simulate the network-level
//! packet details"); this crate is that simulator, generalized so the same
//! protocol state machines could be rehosted on a real transport.
//!
//! ## Quick example
//!
//! ```
//! use gocast_sim::{
//!     Ctx, FixedLatency, NodeId, Protocol, SimBuilder, Timer, TrafficClass, Wire,
//! };
//! use std::time::Duration;
//!
//! /// Node 0 pings everyone; everyone counts pings.
//! struct Pinger { received: u32 }
//!
//! #[derive(Debug)]
//! struct Ping;
//!
//! impl Wire for Ping {
//!     fn wire_size(&self) -> u32 { 16 }
//!     fn class(&self) -> TrafficClass { TrafficClass::Probe }
//! }
//!
//! impl Protocol for Pinger {
//!     type Msg = Ping;
//!     type Command = ();
//!     type Event = ();
//!
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
//!         if ctx.id() == NodeId::new(0) {
//!             for i in 1..ctx.node_count() as u32 {
//!                 ctx.send(NodeId::new(i), Ping);
//!             }
//!         }
//!     }
//!
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Ping) {
//!         self.received += 1;
//!     }
//!
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _timer: Timer) {}
//! }
//!
//! let mut sim = SimBuilder::new(FixedLatency::new(4, Duration::from_millis(20)))
//!     .seed(1)
//!     .build(|_| Pinger { received: 0 });
//! sim.run_until_idle();
//! let total: u32 = sim.iter_nodes().map(|(_, p)| p.received).sum();
//! assert_eq!(total, 3);
//! ```
//!
//! ## Determinism
//!
//! - Events at equal timestamps fire in scheduling order ([`EventQueue`]).
//! - Each node draws randomness from its own RNG, seeded from the master
//!   seed and the node id, so a node's behaviour does not depend on how many
//!   random draws *other* nodes made.
//! - Protocol code has no access to wall-clock time or IO.
//! - With more than one lane, node → lane assignment is a pure function
//!   of the node id and the lane count (never the thread count), and
//!   cross-lane messages enter their destination queues at window barriers
//!   in a canonical order — so parallelism cannot reorder anything
//!   observable.
//!
//! Two runs with the same seed and topology produce byte-identical event
//! traces; integration tests assert this (including sharded runs at
//! different thread counts).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod hash;
mod id;
mod kernel;
mod lane;
mod latency;
mod parallel;
mod protocol;
mod queue;
pub mod recorder;
pub mod scenario;
mod stack;
mod stats;
mod time;
mod trace;

pub use fault::{FaultState, NetFault};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id::NodeId;
pub use kernel::{
    Engine, EventClass, KernelStats, Lanes, Mode, OneLane, PastScheduleError, ShardedSim,
    ShardedSimBuilder, Sim, SimBuilder, DEFAULT_LANES,
};
pub use latency::{FixedLatency, HashedLatency, LatencyModel};
pub use parallel::parallel_map;
pub use protocol::{Ctx, HostBackend, Protocol, Timer, Wire};
pub use queue::{EventQueue, Scheduled};
pub use recorder::{FilterRecorder, FnRecorder, NullRecorder, Recorder, TeeRecorder, VecRecorder};
pub use scenario::{
    Fault, PlannedFault, PlannedSub, PresenceTimeline, Scenario, ScenarioEnv, ScenarioPlan, Split,
};
pub use stack::{Stack, StackCaps};
pub use stats::{ClassCounters, TrafficClass, TrafficStats};
pub use time::SimTime;
pub use trace::{TraceEvent, TraceRecorder};
