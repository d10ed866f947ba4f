//! # gocast-sim — deterministic discrete-event simulation kernel
//!
//! The execution substrate for the GoCast reproduction. Protocols are
//! written **sans-IO** against the [`Protocol`] trait and driven by one
//! simulation [`Engine`] over a pluggable [`LatencyModel`]. The engine has
//! two entry points, and every method but the run loop is shared:
//!
//! - [`Sim`] — the engine on the caller's thread: the single-threaded
//!   discrete-event loop. No lookahead bound needed, and events stream
//!   straight to the recorder.
//! - [`ShardedSim`] — the same engine for scale: the node population is
//!   striped over one worker a thread ([`Placement`]), and with more than
//!   one, events execute in conservative lookahead windows across the
//!   threads. The thread count is pure execution policy — output is
//!   byte-identical to `Sim`'s at any `threads` value, so 10⁵–10⁶-node
//!   runs can use every core without giving up replay. At one thread it
//!   runs the very loop `Sim` runs.
//!
//! The paper evaluates GoCast with exactly this style of simulator ("We
//! built an event-driven simulator ... We do not simulate the network-level
//! packet details"); this crate is that simulator, generalized so the same
//! protocol state machines could be rehosted on a real transport — and
//! they are: a [`Worker`] whose [`Link`] is a set of sockets is one
//! `gocast-testnet` shard, running the engine's own dispatch in
//! wall-clock time.
//!
//! ## Quick example
//!
//! ```
//! use gocast_sim::{
//!     Ctx, FixedLatency, NodeId, Protocol, SimBuilder, SimTime, Timer, TrafficClass, Wire,
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
//! sim.run_until(SimTime::from_secs(1));
//! let total: u32 = sim.iter_nodes().map(|(_, p)| p.received).sum();
//! assert_eq!(total, 3);
//! ```
//!
//! ## Determinism
//!
//! - Events at equal timestamps fire in tie order, and an event's tie
//!   belongs to whoever scheduled it: the sending or timer-setting node
//!   with its own schedule count, or the harness in scheduling order. So
//!   no event's place depends on which worker's queue holds it.
//! - Each node draws randomness from its own RNG, seeded from the master
//!   seed and the node id, so a node's behaviour does not depend on how many
//!   random draws *other* nodes made; a send's loss and jitter are a
//!   counter hash of the seed, the sender and that send's count.
//! - Protocol code has no access to wall-clock time or IO.
//! - `on_start` runs in global id order, messages between workers reach
//!   their destination at window barriers under their sender's tie, and
//!   workers' recorder events merge by `(time, tie, emission order)` — so
//!   parallelism cannot reorder anything observable.
//!
//! Two runs with the same seed and inputs produce byte-identical event
//! traces on `Sim` and on `ShardedSim` at any thread count; integration
//! tests assert this (`tests/tests/one_kernel.rs`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod hash;
mod id;
mod kernel;
mod latency;
mod parallel;
mod placement;
mod protocol;
mod queue;
pub mod recorder;
pub mod scenario;
mod stack;
mod stats;
mod time;
mod trace;
mod worker;

pub use fault::{FaultState, NetFates, NetFault};
/// The one streaming histogram, re-exported for crates that reach the
/// metrics registry only through the kernel (the delivery ledger).
pub use gocast_metrics::Log2Histogram;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id::NodeId;
pub use kernel::{
    Engine, EventClass, KernelStats, Mode, PastScheduleError, Serial, ShardedSim,
    ShardedSimBuilder, Sim, SimBuilder, Threaded,
};
pub use latency::{FixedLatency, HashedLatency, LatencyModel};
pub use parallel::parallel_map;
pub use placement::Placement;
pub use protocol::{Ctx, HostBackend, Protocol, Timer, Wire};
pub use queue::{prefetch_slice, EventQueue, Scheduled, PREFETCH_BYTES};
pub use recorder::{FnRecorder, NullRecorder, Recorder, VecRecorder};
pub use scenario::{
    Fault, FaultHost, PlannedFault, PlannedSub, PresenceTimeline, Scenario, ScenarioEnv,
    ScenarioPlan, Split,
};
pub use stack::{Stack, StackCaps};
pub use stats::{ClassCounters, TrafficClass, TrafficStats};
pub use time::SimTime;
pub use trace::{replay, ReplayEvent, TraceError, TraceEvent, TraceLine, TraceRecorder};
pub use worker::{Link, Sender, Worker, WorkerSet};
