//! One lane of the simulation engine: a self-contained slice of the node
//! population with its own event queue, per-node RNG streams, counters,
//! telemetry and fault-state replicas — and the **only** dispatch table
//! and send path in the crate.
//!
//! Node `g` lives in lane `g % lanes` at local index `g / lanes`. With one
//! lane that is the whole population and nothing ever crosses lanes; with
//! more, sends to other lanes buffer in the lane's outbox until the
//! engine's window barrier (see [`crate::Engine`]).
//!
//! Link cuts, the loss/jitter state and the partition labelling are
//! *global* facts applied at delivery (or send) time, so each lane holds a
//! [`FaultState`] replica, updated by broadcasting the control event into
//! every lane's queue. Delivery-time checks are thus lane-local and the
//! hot path takes no cross-lane locks.

use std::time::Duration;

use gocast_metrics::Log2Histogram;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{FaultState, NetFault};
use crate::id::NodeId;
use crate::kernel::{EventClass, KernelStats};
use crate::latency::LatencyModel;
use crate::protocol::{Ctx, HostBackend, Protocol, Timer, Wire};
use crate::queue::{prefetch, EventQueue, Scheduled};
use crate::recorder::{Recorder, VecRecorder};
use crate::stats::TrafficStats;
use crate::time::SimTime;

/// Odd 64-bit golden-ratio constant every seed derivation mixes with.
pub(crate) const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The engine's event representation.
#[derive(Debug)]
pub(crate) enum Event<M, C> {
    /// A message in flight arrives at `to`.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// A protocol timer fires at `node`.
    Fire { node: NodeId, timer: Timer },
    /// The harness injects a command into `node`.
    Command { node: NodeId, cmd: C },
    /// The kernel marks `node` as crashed.
    Fail { node: NodeId },
    /// The kernel changes the network's fault state (broadcast: every
    /// lane's queue holds a copy).
    Control(NetFault),
}

impl<M, C> Event<M, C> {
    fn class(&self) -> EventClass {
        match self {
            Event::Deliver { .. } => EventClass::Deliver,
            Event::Fire { .. } => EventClass::Timer,
            Event::Command { .. } => EventClass::Command,
            Event::Fail { .. } | Event::Control(_) => EventClass::Control,
        }
    }
}

/// A message crossing lanes, buffered until the window barrier.
pub(crate) struct CrossLaneMsg<M> {
    pub(crate) at: SimTime,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// Deep kernel instrumentation, off by default
/// ([`Engine::enable_telemetry`](crate::Engine::enable_telemetry)).
///
/// The always-on [`KernelStats`] counters cover event totals; this adds a
/// queue-depth histogram observed at every pop (sim-deterministic) and
/// per-class dispatch-time histograms sampled every
/// `TELEMETRY_SAMPLE`-th event (wall-clock, so marked non-deterministic
/// in snapshots). Sampling keeps the `Instant` reads off most events:
/// measured overhead stays within the ≤5% budget the wire-path work
/// requires (see DESIGN.md "Telemetry").
#[derive(Debug)]
pub(crate) struct KernelTelemetry {
    pub(crate) enabled: bool,
    pub(crate) queue_depth: Log2Histogram,
    pub(crate) dispatch_ns: [Log2Histogram; EventClass::ALL.len()],
}

/// Dispatch timing samples every 64th event: two `Instant` reads cost
/// tens of nanoseconds, which amortized over 64 events is well under a
/// nanosecond per event.
const TELEMETRY_SAMPLE: u64 = 64;

/// One lane: a self-contained slice of the node population.
pub(crate) struct Lane<P: Protocol> {
    /// This lane's index in `0..lanes`.
    index: u32,
    /// Total lane count (for ownership tests on the send path).
    lanes: u32,
    /// Protocol state for owned nodes, arena-style: dense by local index
    /// (`global = local * lanes + index`), never moved after construction
    /// (dispatch split-borrows the slot in place).
    pub(crate) nodes: Vec<P>,
    pub(crate) alive: Vec<bool>,
    rngs: Vec<SmallRng>,
    pub(crate) queue: EventQueue<Event<P::Msg, P::Command>>,
    pub(crate) stats: TrafficStats,
    kernel: KernelStats,
    pub(crate) telemetry: KernelTelemetry,
    /// This lane's replica of the network's fault state.
    pub(crate) faults: FaultState,
    /// Cross-lane sends made this window, in send order.
    pub(crate) outbox: Vec<CrossLaneMsg<P::Msg>>,
    /// Recorder events emitted this window, in emission order (unused
    /// when the engine hands the lane its recorder directly).
    pub(crate) events_out: VecRecorder<P::Event>,
}

impl<P: Protocol> Lane<P> {
    /// An empty lane of a `population`-node simulation with room for
    /// exactly the `nodes` it will own: the arenas are the simulation's
    /// largest allocations, and growing them by doubling would leave up to
    /// half of each unused.
    pub(crate) fn new(index: u32, lanes: u32, seed: u64, nodes: usize, population: usize) -> Self {
        Lane {
            index,
            lanes,
            nodes: Vec::with_capacity(nodes),
            alive: Vec::with_capacity(nodes),
            rngs: Vec::with_capacity(nodes),
            queue: EventQueue::new(),
            stats: TrafficStats::new(),
            kernel: KernelStats::default(),
            telemetry: KernelTelemetry {
                enabled: false,
                queue_depth: Log2Histogram::new(),
                dispatch_ns: [Log2Histogram::new(); EventClass::ALL.len()],
            },
            faults: FaultState::new(population, seed, index),
            outbox: Vec::new(),
            events_out: VecRecorder::new(),
        }
    }

    /// Adds the next owned node (callers push in increasing global id
    /// order). Node `g` draws from `seed * GOLDEN ^ g` whichever lane
    /// owns it.
    pub(crate) fn push_node(&mut self, id: NodeId, node: P, seed: u64) {
        debug_assert_eq!(self.local(id), self.nodes.len());
        self.nodes.push(node);
        self.alive.push(true);
        self.rngs.push(SmallRng::seed_from_u64(
            seed.wrapping_mul(GOLDEN) ^ id.index() as u64,
        ));
    }

    /// Local index of an owned node. The one-lane case skips the division:
    /// it sits on every dispatch.
    #[inline]
    pub(crate) fn local(&self, node: NodeId) -> usize {
        if self.lanes == 1 {
            node.index()
        } else {
            (node.as_u32() / self.lanes) as usize
        }
    }

    /// Runs `f` with this lane's own event buffer as the recorder: the
    /// many-lane mode, where the engine merges the buffers at the barrier.
    pub(crate) fn buffered(&mut self, f: impl FnOnce(&mut Self, &mut VecRecorder<P::Event>)) {
        let mut out = std::mem::take(&mut self.events_out);
        f(self, &mut out);
        self.events_out = out;
    }

    /// Calls `on_start` on every alive owned node.
    pub(crate) fn start<S: Recorder<P::Event>>(&mut self, net: &dyn LatencyModel, sink: &mut S) {
        for l in 0..self.nodes.len() {
            if self.alive[l] {
                let id = NodeId::new(l as u32 * self.lanes + self.index);
                self.with_ctx(SimTime::ZERO, id, net, sink, |p, ctx| p.on_start(ctx));
            }
        }
    }

    /// Runs every local event with `at <= end_inclusive`.
    ///
    /// The event sink is a type parameter — the engine's own recorder at
    /// one lane, this lane's buffer otherwise — and the execute → dispatch
    /// → handler chain below is forced inline: with a `dyn` sink and the
    /// chain left to the inliner the one-lane loop ran ≈ 6 % slower than
    /// the serial kernel it replaced on a 128-node, cache-resident run
    /// (EXPERIMENTS.md "One kernel").
    pub(crate) fn run_window<S: Recorder<P::Event>>(
        &mut self,
        end_inclusive: SimTime,
        net: &dyn LatencyModel,
        sink: &mut S,
    ) {
        loop {
            self.note_depth();
            // Deadline test and pop share a single heap-top probe.
            let Some(ev) = self.queue.pop_at_or_before(end_inclusive) else {
                break;
            };
            self.execute(ev, net, sink);
        }
    }

    /// Runs the earliest local event, returning its timestamp.
    pub(crate) fn step<S: Recorder<P::Event>>(
        &mut self,
        net: &dyn LatencyModel,
        sink: &mut S,
    ) -> Option<SimTime> {
        self.note_depth();
        let ev = self.queue.pop()?;
        let at = ev.at;
        self.execute(ev, net, sink);
        Some(at)
    }

    #[inline]
    fn note_depth(&mut self) {
        let depth = self.queue.len();
        if depth > self.kernel.queue_high_water {
            self.kernel.queue_high_water = depth;
        }
    }

    #[inline(always)]
    fn execute<S: Recorder<P::Event>>(
        &mut self,
        ev: Scheduled<Event<P::Msg, P::Command>>,
        net: &dyn LatencyModel,
        sink: &mut S,
    ) {
        self.kernel.events_processed += 1;
        self.prefetch_next();
        if self.telemetry.enabled {
            self.telemetry.queue_depth.observe(self.queue.len() as u64);
            if self
                .kernel
                .events_processed
                .is_multiple_of(TELEMETRY_SAMPLE)
            {
                let class = ev.payload.class();
                let t0 = std::time::Instant::now();
                self.dispatch(ev.at, ev.payload, net, sink);
                let ns = t0.elapsed().as_nanos() as u64;
                self.telemetry.dispatch_ns[class.index()].observe(ns);
                return;
            }
        }
        self.dispatch(ev.at, ev.payload, net, sink);
    }

    /// Starts fetching what the dispatch *after* this one reads first — the
    /// new queue top's node (its leading lines), RNG and liveness flag —
    /// so the misses overlap with the handler about to run. At scale every
    /// event starts on a node that has left the cache (EXPERIMENTS.md
    /// "Which share of an event grows with the population").
    #[inline(always)]
    fn prefetch_next(&self) {
        let Some(hint) = self.queue.next_hint() else {
            return;
        };
        let l = self.local(NodeId::new(hint));
        if let (Some(p), Some(rng), Some(alive)) =
            (self.nodes.get(l), self.rngs.get(l), self.alive.get(l))
        {
            prefetch(p);
            prefetch(rng);
            prefetch(alive);
        }
    }

    #[inline(always)]
    fn dispatch<S: Recorder<P::Event>>(
        &mut self,
        at: SimTime,
        ev: Event<P::Msg, P::Command>,
        net: &dyn LatencyModel,
        sink: &mut S,
    ) {
        match ev {
            Event::Deliver { from, to, msg } => {
                if !self.alive[self.local(to)] || self.faults.blocked(from, to) {
                    self.kernel.messages_dropped += 1;
                    self.stats.record_drop_to_dead();
                } else {
                    self.kernel.deliveries += 1;
                    self.with_ctx(at, to, net, sink, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Event::Fire { node, timer } => {
                if self.alive[self.local(node)] {
                    self.kernel.timers_fired += 1;
                    self.with_ctx(at, node, net, sink, |p, ctx| p.on_timer(ctx, timer));
                }
            }
            Event::Command { node, cmd } => {
                if self.alive[self.local(node)] {
                    self.kernel.commands += 1;
                    self.with_ctx(at, node, net, sink, |p, ctx| p.on_command(ctx, cmd));
                }
            }
            Event::Fail { node } => {
                self.kernel.control_events += 1;
                let l = self.local(node);
                self.alive[l] = false;
            }
            Event::Control(fault) => {
                // Lane 0 alone counts the broadcast, so `control_events`
                // is per scheduled fault at any lane count.
                self.kernel.control_events += u64::from(self.index == 0);
                self.faults.apply(&fault);
            }
        }
    }

    #[inline(always)]
    fn with_ctx<S: Recorder<P::Event>, F: FnOnce(&mut P, &mut Ctx<'_, P>)>(
        &mut self,
        at: SimTime,
        node: NodeId,
        net: &dyn LatencyModel,
        sink: &mut S,
        f: F,
    ) {
        // Split borrows: the protocol instance and the backend borrow
        // disjoint fields of `self`, so the node stays in place — no
        // whole-struct move in and out of the slot per dispatched event.
        let l = self.local(node);
        let p = &mut self.nodes[l];
        let mut backend = Backend::<P, S> {
            lane_index: self.index,
            lanes: self.lanes,
            from: node,
            now: at,
            net,
            queue: &mut self.queue,
            stats: &mut self.stats,
            faults: &mut self.faults,
            outbox: &mut self.outbox,
            sink,
        };
        let mut ctx = Ctx::for_host(node, at, &mut self.rngs[l], &mut backend);
        f(p, &mut ctx);
    }

    pub(crate) fn kernel_stats(&self) -> KernelStats {
        let mut k = self.kernel;
        k.queue_len = self.queue.len();
        k.events_scheduled = self.queue.scheduled_total();
        k.chaos_losses = self.faults.losses();
        k.partition_drops = self.faults.partition_drops();
        k.slab_slots = self.queue.slab_slots();
        k.queue_mem_bytes = self.queue.mem_bytes();
        k
    }
}

/// The [`HostBackend`] a lane presents to its protocol instances. The
/// state machines run unchanged: they cannot tell a lane from a real
/// deployment host.
struct Backend<'a, P: Protocol, S> {
    lane_index: u32,
    lanes: u32,
    from: NodeId,
    now: SimTime,
    net: &'a dyn LatencyModel,
    queue: &'a mut EventQueue<Event<P::Msg, P::Command>>,
    stats: &'a mut TrafficStats,
    faults: &'a mut FaultState,
    outbox: &'a mut Vec<CrossLaneMsg<P::Msg>>,
    sink: &'a mut S,
}

impl<P: Protocol, S: Recorder<P::Event>> HostBackend<P> for Backend<'_, P, S> {
    fn send(&mut self, to: NodeId, msg: P::Msg) {
        // Send-path order: count the send, then the loss draw, then jitter.
        let from = self.from;
        let mut latency = self.net.one_way(from, to);
        self.stats.record(from, to, msg.wire_size(), msg.class());
        if self.faults.active() {
            match self.faults.draw(from, to) {
                Some(extra) => latency += extra,
                None => return,
            }
        }
        let at = self.now + latency;
        if self.lanes == 1 || to.as_u32() % self.lanes == self.lane_index {
            self.queue
                .schedule_hinted(at, to.as_u32(), Event::Deliver { from, to, msg });
        } else {
            self.outbox.push(CrossLaneMsg { at, from, to, msg });
        }
    }

    fn set_timer(&mut self, delay: Duration, timer: Timer) {
        let node = self.from;
        self.queue
            .schedule_hinted(self.now + delay, node.as_u32(), Event::Fire { node, timer });
    }

    fn emit(&mut self, event: P::Event) {
        self.sink.record(self.now, self.from, event);
    }

    fn node_count(&self) -> usize {
        self.net.len()
    }
}
