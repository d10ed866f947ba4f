//! The sans-IO protocol interface.
//!
//! A protocol is a deterministic state machine. The kernel calls its
//! handlers with a [`Ctx`] through which the protocol sends messages, arms
//! timers, draws randomness, and emits metric events. Protocol code never
//! performs IO and never reads wall-clock time, which makes every run
//! reproducible and every state machine trivially unit-testable.

use std::time::Duration;

use rand::rngs::SmallRng;

use crate::id::NodeId;
use crate::stats::TrafficClass;
use crate::time::SimTime;

/// Wire metadata for a message type: its serialized size and traffic class.
///
/// The simulator does not serialize messages; it only needs their size for
/// traffic accounting (the paper's simulator works the same way).
pub trait Wire {
    /// Serialized size in bytes (approximate is fine; used for accounting).
    fn wire_size(&self) -> u32;

    /// Traffic class for accounting.
    fn class(&self) -> TrafficClass;
}

/// A timer token. `kind` discriminates timer purposes within a protocol;
/// `a` and `b` carry small payloads (e.g. a message sequence number), which
/// avoids heap allocation on the very hot timer path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timer {
    /// Protocol-defined discriminant.
    pub kind: u32,
    /// First payload word.
    pub a: u32,
    /// Second payload word.
    pub b: u64,
}

impl Timer {
    /// A timer with no payload.
    pub const fn of_kind(kind: u32) -> Self {
        Timer { kind, a: 0, b: 0 }
    }

    /// A timer with payload words `a` and `b`.
    pub const fn with_payload(kind: u32, a: u32, b: u64) -> Self {
        Timer { kind, a, b }
    }
}

/// A protocol instance: one per simulated node.
///
/// Handlers run to completion; reentrancy is impossible by construction.
pub trait Protocol: Sized {
    /// Wire message type exchanged between nodes.
    type Msg: Wire;
    /// Out-of-band control input (e.g. "start a multicast", "freeze
    /// maintenance"). Injected by the experiment harness, not by peers.
    type Command;
    /// Metric/event record type consumed by a [`Recorder`](crate::Recorder).
    type Event;

    /// Called once when the node boots (simulation start).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>);

    /// Called when a unicast message from `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg);

    /// Called when a previously armed timer fires. Timers cannot be
    /// cancelled; handlers must check state and ignore stale timers.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer);

    /// Called when the harness injects a command. Default: ignored.
    fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, cmd: Self::Command) {
        let _ = (ctx, cmd);
    }

    /// Starts fetching the out-of-line state this node's next handler
    /// reads — container contents one pointer beyond the node — with
    /// [`prefetch_slice`](crate::prefetch_slice). The kernel calls it one
    /// event before dispatching to this node, after requesting the node's
    /// leading [`PREFETCH_BYTES`](crate::PREFETCH_BYTES), so the pointers
    /// it reads should end inside those. It only reads `self` and changes
    /// nothing, so it cannot change what a run computes. Default: nothing.
    #[inline(always)]
    fn prefetch(&self) {}
}

/// The world a protocol instance talks to: a worker of the simulation
/// engine, or a deployment host (the UDP fabric in `gocast-testnet`) that
/// supplies real message transport, real timers, and an event sink. The
/// protocol state machine cannot tell the difference.
pub trait HostBackend<P: Protocol> {
    /// Transmit `msg` to `to`.
    fn send(&mut self, to: NodeId, msg: P::Msg);
    /// Arm a one-shot timer: it fires once, `delay` from now, and is
    /// neither replaced nor cancelled, so two arms of one `(kind, a, b)`
    /// fire twice. Every host keeps this contract (see [`Ctx::set_timer`]).
    fn set_timer(&mut self, delay: Duration, timer: Timer);
    /// Record a protocol event.
    fn emit(&mut self, event: P::Event);
    /// Number of nodes in the deployment.
    fn node_count(&self) -> usize;
}

/// Handler-side view of the world: the only way a protocol interacts with
/// anything outside its own state.
pub struct Ctx<'a, P: Protocol> {
    pub(crate) id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SmallRng,
    backend: &'a mut dyn HostBackend<P>,
}

impl<'a, P: Protocol> std::fmt::Debug for Ctx<'a, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("id", &self.id)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a, P: Protocol> Ctx<'a, P> {
    /// Builds a context over `backend`. Under a deployment host `now` is
    /// the host's monotonic clock expressed as time since host start.
    pub fn for_host(
        id: NodeId,
        now: SimTime,
        rng: &'a mut SmallRng,
        backend: &'a mut dyn HostBackend<P>,
    ) -> Self {
        Ctx {
            id,
            now,
            rng,
            backend,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current time (simulated, or host-monotonic since start).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the system (the protocol may use this the way
    /// a deployment would use a configured cluster size; GoCast itself only
    /// uses it for bootstrap membership and landmark placement).
    pub fn node_count(&self) -> usize {
        self.backend.node_count()
    }

    /// Deterministic per-node randomness source.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to `to`. Under the kernel, delivery is scheduled after
    /// the network model's one-way latency (plus any injected jitter) and
    /// dropped if `to` has failed by then or the injected loss probability
    /// fires; under a host, the message goes out on the real transport.
    ///
    /// Sending to self delivers after zero latency (still asynchronously)
    /// and is exempt from loss/jitter injection: only the network between
    /// distinct nodes is faulty.
    pub fn send(&mut self, to: NodeId, msg: P::Msg) {
        self.backend.send(to, msg);
    }

    /// Arms `timer` to fire after `delay`. Timers are one-shot and cannot be
    /// cancelled; re-arm from the handler for periodic behaviour. On
    /// every host each arm fires once, a second arm of a pending identity
    /// included: a kernel worker and a testnet shard both schedule on an
    /// [`EventQueue`](crate::EventQueue).
    pub fn set_timer(&mut self, delay: Duration, timer: Timer) {
        self.backend.set_timer(delay, timer);
    }

    /// Emits a metric event to the recorder / host sink.
    pub fn emit(&mut self, event: P::Event) {
        self.backend.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_constructors() {
        let t = Timer::of_kind(3);
        assert_eq!(
            t,
            Timer {
                kind: 3,
                a: 0,
                b: 0
            }
        );
        let t = Timer::with_payload(1, 2, 3);
        assert_eq!(t.kind, 1);
        assert_eq!(t.a, 2);
        assert_eq!(t.b, 3);
    }
}
