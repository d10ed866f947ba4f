//! One lane of the simulation engine: a self-contained slice of the node
//! population with its own per-node RNG streams, counters, telemetry and
//! fault-state replica — and the **only** dispatch table and send path on
//! either host. A lane owns no queue: a [`Worker`] runs a contiguous chunk
//! of lanes off one, keyed by `(time, lane, per-lane sequence)`, so a
//! lane pops in its own order whichever lanes share the queue.
//!
//! Which lane owns a node, at which slot, is the [`Placement`]'s to say.
//! With one lane that is the whole population and nothing ever crosses
//! lanes; with more, sends to other lanes buffer in the lane's outbox
//! until the engine's window barrier (see [`crate::Engine`]). A
//! [`WorkerSet`] holds every worker of a placement and routes a node id
//! to its lane, the same way on both hosts.
//!
//! What leaves a lane goes through its [`Link`], the one part of the send
//! path a host supplies: the simulator's link adds the latency model's
//! delay, and a `gocast-testnet` shard — a worker over one lane, fired in
//! wall-clock time — frames datagrams onto sockets. Everything else a
//! crash, a timer or a fault means is this file's, on both hosts.
//!
//! Link cuts, the loss/jitter state and the partition labelling are
//! *global* facts: each lane holds a [`FaultState`] replica, updated by
//! scheduling the control event for every lane. A send draws its loss and
//! jitter as it leaves the lane; a message meets a dead endpoint, a cut
//! link or the partition as it arrives. Both checks are lane-local, and
//! the hot path takes no cross-lane locks.

use std::time::Duration;

use gocast_metrics::Log2Histogram;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{FaultState, NetFault};
use crate::id::NodeId;
use crate::kernel::{EventClass, KernelStats};
use crate::latency::LatencyModel;
use crate::placement::Placement;
use crate::protocol::{Ctx, HostBackend, Protocol, Timer, Wire};
use crate::queue::{prefetch, EventQueue, Scheduled};
use crate::recorder::{Recorder, VecRecorder};
use crate::scenario::FaultHost;
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
    /// lane has a copy scheduled).
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

/// Deep kernel instrumentation, off by default and allocated only when
/// turned on ([`Engine::enable_telemetry`](crate::Engine::enable_telemetry)):
/// its five histograms take 75 KiB, which a lane without telemetry does not
/// carry.
///
/// The always-on [`KernelStats`] counters cover event totals; this adds a
/// queue-depth histogram observed at every pop (sim-deterministic) and
/// per-class dispatch-time histograms sampled every
/// `TELEMETRY_SAMPLE`-th event (wall-clock, so marked non-deterministic
/// in snapshots). Sampling keeps the `Instant` reads off most events:
/// measured overhead stays within the ≤5% budget the wire-path work
/// requires (see DESIGN.md "Telemetry").
#[derive(Debug, Default)]
pub(crate) struct KernelTelemetry {
    /// The popping lane's pending events, at every pop.
    pub(crate) queue_depth: Log2Histogram,
    /// Sampled dispatch nanoseconds, per [`EventClass`].
    pub(crate) dispatch_time: [Log2Histogram; EventClass::ALL.len()],
}

impl KernelTelemetry {
    /// Adds another lane's histograms to these.
    pub(crate) fn merge(&mut self, other: &KernelTelemetry) {
        self.queue_depth.merge(&other.queue_depth);
        for (total, h) in self.dispatch_time.iter_mut().zip(&other.dispatch_time) {
            total.merge(h);
        }
    }
}

/// Dispatch timing samples every 64th event: two `Instant` reads cost
/// tens of nanoseconds, which amortized over 64 events is well under a
/// nanosecond per event.
const TELEMETRY_SAMPLE: u64 = 64;

/// Bits of a queue tie below the lane index: the lane's own sequence.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Lanes an engine may have at most: the lane index fills the rest of a
/// tie.
pub(crate) const MAX_LANES: usize = 1 << (64 - SEQ_BITS);

/// An engine event, and a queue of them.
pub(crate) type Ev<P> = Event<<P as Protocol>::Msg, <P as Protocol>::Command>;
pub(crate) type Queue<P> = EventQueue<Ev<P>>;

/// A lane's place in its worker's queue: the tie of its next event — the
/// lane index above the lane's own sequence number — and how many of its
/// events are pending.
#[derive(Debug)]
pub(crate) struct Ties {
    next: u64,
    pending: usize,
}

impl Ties {
    /// Schedules `ev` for this lane.
    #[inline]
    pub(crate) fn schedule<T>(&mut self, q: &mut EventQueue<T>, at: SimTime, hint: u32, ev: T) {
        debug_assert_ne!(self.next & SEQ_MASK, SEQ_MASK, "lane sequence overflow");
        q.schedule_keyed(at, self.next, hint, ev);
        self.next += 1;
        self.pending += 1;
    }
}

/// Where a lane's sends leave it: the one part of the send path a host
/// supplies. The lane has counted the send and drawn its loss and jitter
/// first (a lost message never reaches the link), and judges whether the
/// network stops it when it arrives; the link carries it between.
pub trait Link<P: Protocol> {
    /// What the link reads from its host on every send: the latency model
    /// in the simulator, nothing on the wire.
    type Env: ?Sized;

    /// Carries `msg` from `sender.from` to `to`, `extra` (the drawn
    /// jitter) later than the path alone would.
    fn send(
        &mut self,
        env: &Self::Env,
        sender: &mut Sender<'_, P>,
        to: NodeId,
        msg: P::Msg,
        extra: Duration,
    );
}

/// One send as its [`Link`] sees it: who sends, and when.
pub struct Sender<'a, P: Protocol> {
    /// The sending node.
    pub from: NodeId,
    /// The time of the handler that sends.
    pub now: SimTime,
    queue: &'a mut Queue<P>,
    ties: &'a mut Ties,
}

impl<P: Protocol> std::fmt::Debug for Sender<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sender({} at {:?})", self.from, self.now)
    }
}

/// The simulator's link: a message arrives the latency model's delay plus
/// its jitter after it is sent, scheduled on the sending lane's queue when
/// that lane owns the receiver, else held in the outbox until the window
/// barrier.
pub(crate) struct SimLink<P: Protocol> {
    index: usize,
    placement: Placement,
    /// Cross-lane sends made this window, in send order.
    pub(crate) outbox: Vec<CrossLaneMsg<P::Msg>>,
}

impl<P: Protocol> Link<P> for SimLink<P> {
    type Env = dyn LatencyModel;

    #[inline(always)]
    fn send(
        &mut self,
        net: &dyn LatencyModel,
        sender: &mut Sender<'_, P>,
        to: NodeId,
        msg: P::Msg,
        extra: Duration,
    ) {
        let from = sender.from;
        let at = sender.now + (net.one_way(from, to) + extra);
        if self.placement.lane(to) == self.index {
            let ev = Event::Deliver { from, to, msg };
            sender.ties.schedule(sender.queue, at, to.as_u32(), ev);
        } else {
            self.outbox.push(CrossLaneMsg { at, from, to, msg });
        }
    }
}

impl<P: Protocol> SimLink<P> {
    pub(crate) fn new(index: usize, placement: Placement) -> Self {
        SimLink {
            index,
            placement,
            outbox: Vec::new(),
        }
    }
}

/// A kernel lane and a kernel worker: the simulator's link.
pub(crate) type SimLane<P> = Lane<P, SimLink<P>>;
pub(crate) type SimWorker<P> = Worker<P, SimLink<P>>;

/// One lane: a self-contained slice of the node population.
pub(crate) struct Lane<P: Protocol, L> {
    /// This lane's index in `0..lanes`.
    index: u32,
    /// Where every node lives (what a protocol's `node_count` reads).
    placement: Placement,
    /// Protocol state for owned nodes, arena-style: dense by slot, never
    /// moved after construction (dispatch split-borrows the slot in
    /// place).
    pub(crate) nodes: Vec<P>,
    pub(crate) alive: Vec<bool>,
    rngs: Vec<SmallRng>,
    pub(crate) ties: Ties,
    pub(crate) stats: TrafficStats,
    kernel: KernelStats,
    /// `Some` once telemetry is turned on.
    pub(crate) telemetry: Option<Box<KernelTelemetry>>,
    /// This lane's replica of the network's fault state.
    pub(crate) faults: FaultState,
    /// Where this lane's sends leave it.
    pub(crate) link: L,
}

impl<P: Protocol, L: Link<P>> Lane<P, L> {
    /// Lane `index` of `placement`, empty, with room for exactly the
    /// nodes it will own: the arenas are the simulation's largest
    /// allocations, and growing them by doubling would leave up to half of
    /// each unused.
    fn new(index: usize, placement: Placement, seed: u64, link: L) -> Self {
        let nodes = placement.owned(index);
        let index = index as u32;
        Lane {
            index,
            placement,
            nodes: Vec::with_capacity(nodes),
            alive: Vec::with_capacity(nodes),
            rngs: Vec::with_capacity(nodes),
            ties: Ties {
                next: u64::from(index) << SEQ_BITS,
                pending: 0,
            },
            stats: TrafficStats::new(),
            kernel: KernelStats::default(),
            telemetry: None,
            faults: FaultState::new(placement.population(), seed, index),
            link,
        }
    }

    /// Adds the next owned node (callers push in increasing global id
    /// order). Node `g` draws from `seed * GOLDEN ^ g` whichever lane
    /// owns it.
    fn push_node(&mut self, id: NodeId, node: P, seed: u64) {
        debug_assert_eq!(self.placement.slot(id), self.nodes.len());
        self.nodes.push(node);
        self.alive.push(true);
        self.rngs.push(SmallRng::seed_from_u64(
            seed.wrapping_mul(GOLDEN) ^ id.index() as u64,
        ));
    }

    /// Starts fetching what a dispatch to `node` reads first — its leading
    /// lines, RNG and liveness flag — or, at `hook`, what
    /// [`Protocol::prefetch`] names. See [`Worker::prefetch_next`].
    #[inline(always)]
    fn prefetch_node(&self, node: u32, hook: bool) {
        let l = self.placement.slot(NodeId::new(node));
        if let (Some(p), Some(rng), Some(alive)) =
            (self.nodes.get(l), self.rngs.get(l), self.alive.get(l))
        {
            prefetch(p);
            if hook {
                p.prefetch();
            } else {
                prefetch(rng);
                prefetch(alive);
            }
        }
    }

    /// Runs one popped event at `at`: its own time in the kernel, the time
    /// it fires at on the wire.
    #[inline(always)]
    fn execute<S: Recorder<P::Event>>(
        &mut self,
        at: SimTime,
        ev: Ev<P>,
        queue: &mut Queue<P>,
        env: &L::Env,
        sink: &mut S,
    ) {
        // The depth this lane had with the event still pending, then without.
        self.kernel.queue_high_water = self.kernel.queue_high_water.max(self.ties.pending);
        self.ties.pending -= 1;
        self.kernel.events_processed += 1;
        if let Some(telemetry) = &mut self.telemetry {
            telemetry.queue_depth.observe(self.ties.pending as u64);
            if self
                .kernel
                .events_processed
                .is_multiple_of(TELEMETRY_SAMPLE)
            {
                let class = ev.class();
                let t0 = std::time::Instant::now();
                self.dispatch(at, ev, queue, env, sink);
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(telemetry) = &mut self.telemetry {
                    telemetry.dispatch_time[class.index()].observe(ns);
                }
                return;
            }
        }
        self.dispatch(at, ev, queue, env, sink);
    }

    #[inline(always)]
    fn dispatch<S: Recorder<P::Event>>(
        &mut self,
        at: SimTime,
        ev: Ev<P>,
        queue: &mut Queue<P>,
        env: &L::Env,
        sink: &mut S,
    ) {
        match ev {
            Event::Deliver { from, to, msg } => {
                let dead = !self.alive[self.placement.slot(to)];
                if !self.faults.blocked(from, to, dead) {
                    self.kernel.deliveries += 1;
                    self.with_ctx(at, to, queue, env, sink, |p, ctx| {
                        p.on_message(ctx, from, msg)
                    });
                }
            }
            Event::Fire { node, timer } => {
                if self.alive[self.placement.slot(node)] {
                    self.kernel.timers_fired += 1;
                    self.with_ctx(at, node, queue, env, sink, |p, ctx| p.on_timer(ctx, timer));
                }
            }
            Event::Command { node, cmd } => {
                if self.alive[self.placement.slot(node)] {
                    self.kernel.commands += 1;
                    self.with_ctx(at, node, queue, env, sink, |p, ctx| p.on_command(ctx, cmd));
                }
            }
            Event::Fail { node } => {
                self.kernel.control_events += 1;
                let l = self.placement.slot(node);
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
        queue: &mut Queue<P>,
        env: &L::Env,
        sink: &mut S,
        f: F,
    ) {
        // Split borrows: the protocol instance and the backend borrow
        // disjoint fields of `self`, so the node stays in place — no
        // whole-struct move in and out of the slot per dispatched event.
        let l = self.placement.slot(node);
        let p = &mut self.nodes[l];
        let mut backend = Backend::<P, L, S> {
            sender: Sender {
                from: node,
                now: at,
                queue,
                ties: &mut self.ties,
            },
            population: self.placement.population(),
            env,
            link: &mut self.link,
            stats: &mut self.stats,
            faults: &mut self.faults,
            sink,
        };
        let mut ctx = Ctx::for_host(node, at, &mut self.rngs[l], &mut backend);
        f(p, &mut ctx);
    }

    /// This lane's counters; the queue's storage is its worker's to add.
    pub(crate) fn kernel_stats(&self) -> KernelStats {
        let mut k = self.kernel;
        k.queue_len = self.ties.pending;
        k.events_scheduled = self.ties.next & SEQ_MASK;
        k.fates = self.faults.fates();
        k
    }
}

/// A contiguous chunk of lanes whose events all wait in one queue: what
/// one thread runs. The engine runs one per worker thread over the
/// simulator's link; a `gocast-testnet` shard is a worker over one lane,
/// fired in wall-clock time ([`Worker::fire_due`]) and handed each
/// arriving message ([`Worker::arrive`]). A [`WorkerSet`] holds them.
pub struct Worker<P: Protocol, L> {
    /// The global index of the first lane.
    pub(crate) first: usize,
    placement: Placement,
    pub(crate) lanes: Vec<Lane<P, L>>,
    pub(crate) queue: Queue<P>,
    /// Recorder events of the window, in pop order, where several workers
    /// share one recorder ([`Worker::buffered`]).
    pub(crate) events_out: VecRecorder<P::Event>,
}

impl<P: Protocol, L> std::fmt::Debug for Worker<P, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Worker({} lanes from {})", self.lanes.len(), self.first)
    }
}

impl<P: Protocol, L: Link<P>> Worker<P, L> {
    /// The first lane's link: a one-lane worker's only one.
    pub fn link(&self) -> &L {
        &self.lanes[0].link
    }

    /// The first lane's link, mutably.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.lanes[0].link
    }

    /// When the earliest pending event is due.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs `f` with this worker's window buffer as the recorder: where
    /// several workers share one recorder, each records into its own, and
    /// [`WorkerSet::merge_into`] merges them.
    pub fn buffered<T>(&mut self, f: impl FnOnce(&mut Self, &mut VecRecorder<P::Event>) -> T) -> T {
        let mut out = std::mem::take(&mut self.events_out);
        let t = f(self, &mut out);
        self.events_out = out;
        t
    }

    /// Schedules `ev` for lane `lane` (a global index, in this chunk).
    #[inline]
    pub(crate) fn schedule(&mut self, lane: usize, at: SimTime, hint: u32, ev: Ev<P>) {
        let ties = &mut self.lanes[lane - self.first].ties;
        ties.schedule(&mut self.queue, at, hint, ev);
    }

    /// Calls `on_start` on every alive node, lane by lane.
    pub fn start<S: Recorder<P::Event>>(&mut self, env: &L::Env, sink: &mut S) {
        for lane in &mut self.lanes {
            for l in 0..lane.nodes.len() {
                let id = lane.placement.node(lane.index as usize, l);
                if lane.alive[l] {
                    let on_start = |p: &mut P, ctx: &mut Ctx<'_, P>| p.on_start(ctx);
                    lane.with_ctx(SimTime::ZERO, id, &mut self.queue, env, sink, on_start);
                }
            }
        }
    }

    /// Runs every event with `at <= end_inclusive`, in `(time, lane,
    /// sequence)` order: each lane's own order, and for the chunk the
    /// order the engine's recorder merges lanes in.
    ///
    /// The event sink is a type parameter — the engine's own recorder with
    /// one worker, this worker's buffer otherwise — and the execute →
    /// dispatch → handler chain is forced inline: with a `dyn` sink and
    /// the chain left to the inliner the one-lane loop ran ≈ 6 % slower
    /// than the serial kernel it replaced on a 128-node, cache-resident
    /// run (EXPERIMENTS.md "One kernel").
    pub(crate) fn run_window<S: Recorder<P::Event>>(
        &mut self,
        end_inclusive: SimTime,
        env: &L::Env,
        sink: &mut S,
    ) {
        // Deadline test and pop share a single probe of the front.
        while let Some(ev) = self.queue.pop_at_or_before(end_inclusive) {
            self.execute(ev.at, ev, env, sink);
        }
    }

    /// Runs the earliest event, returning its timestamp.
    pub(crate) fn step<S: Recorder<P::Event>>(
        &mut self,
        env: &L::Env,
        sink: &mut S,
    ) -> Option<SimTime> {
        let ev = self.queue.pop()?;
        let at = ev.at;
        self.execute(at, ev, env, sink);
        Some(at)
    }

    /// Runs the earliest event due at or before `now`, at `now`: a host on
    /// the wall clock reaches an event when it gets to it, and its nodes
    /// must not see time run backwards. Returns when the event was due,
    /// and its class.
    pub fn fire_due<S: Recorder<P::Event>>(
        &mut self,
        now: SimTime,
        env: &L::Env,
        sink: &mut S,
    ) -> Option<(SimTime, EventClass)> {
        let ev = self.queue.pop_at_or_before(now)?;
        let due = (ev.at, ev.payload.class());
        self.execute(now, ev, env, sink);
        Some(due)
    }

    /// Delivers `msg`, arriving from `from` at `now`, to the owned node
    /// `to`, judged as the kernel judges a delivery it scheduled: it meets
    /// its fate if `to` is dead or the path is cut or partitioned, and
    /// reaches `on_message` otherwise.
    pub fn arrive<S: Recorder<P::Event>>(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: P::Msg,
        env: &L::Env,
        sink: &mut S,
    ) {
        let lane = &mut self.lanes[self.placement.lane(to) - self.first];
        lane.kernel.events_processed += 1;
        let ev = Event::Deliver { from, to, msg };
        lane.dispatch(now, ev, &mut self.queue, env, sink);
    }

    #[inline(always)]
    fn execute<S: Recorder<P::Event>>(
        &mut self,
        at: SimTime,
        ev: Scheduled<Ev<P>>,
        env: &L::Env,
        sink: &mut S,
    ) {
        self.prefetch_next();
        let lane = (ev.seq >> SEQ_BITS) as usize - self.first;
        self.lanes[lane].execute(at, ev.payload, &mut self.queue, env, sink);
    }

    /// Starts fetching what the next two dispatches read, so the misses
    /// overlap with the handler about to run. At scale every event starts
    /// on a node that has left the cache (EXPERIMENTS.md "Which share of
    /// an event grows with the population"), and its handler then follows
    /// the node's pointers to its containers. Two stages:
    ///
    /// 1. the node whose event pops *second*: its leading lines, RNG and
    ///    liveness flag;
    /// 2. the node whose event pops *next*: [`Protocol::prefetch`], which
    ///    reads the container pointers from lines stage 1 requested one
    ///    event earlier. The leading lines are asked for again first: in
    ///    cache that costs next to nothing, and when an event scheduled
    ///    since has overtaken stage 1's guess it puts all four lines in
    ///    flight at once, not one by one as the hook and handler reach
    ///    them.
    #[inline(always)]
    fn prefetch_next(&self) {
        for (hint, hook) in [
            (self.queue.second_hint(), false),
            (self.queue.next_hint(), true),
        ] {
            if let Some(node) = hint {
                let lane = self.placement.lane(NodeId::new(node));
                if let Some(lane) = self.lanes.get(lane.wrapping_sub(self.first)) {
                    lane.prefetch_node(node, hook);
                }
            }
        }
    }
}

/// A window's buffered event on its way to the recorder: `(at, worker,
/// emission order, node, event)`.
type Buffered<E> = (SimTime, u32, u32, NodeId, E);

/// Merges the workers' window buffers into `recorder` by `(time, worker,
/// emission order)`: each worker's own order, and for a set of ascending
/// chunks of lanes the order one worker over them all would pop in.
pub(crate) fn merge_buffers<'a, P: Protocol + 'a, L: 'a, R: Recorder<P::Event>>(
    workers: impl Iterator<Item = &'a mut Worker<P, L>>,
    merging: &mut Vec<Buffered<P::Event>>,
    recorder: &mut R,
) {
    for (i, w) in workers.enumerate() {
        let events = w.events_out.events.drain(..).enumerate();
        merging.extend(events.map(|(pos, (at, node, ev))| (at, i as u32, pos as u32, node, ev)));
    }
    // The keys are unique, so the unstable sort is the stable one without
    // its allocation.
    merging.sort_unstable_by_key(|(at, w, pos, _, _)| (*at, *w, *pos));
    for (at, _, _, node, ev) in merging.drain(..) {
        recorder.record(at, node, ev);
    }
}

/// Every worker of a [`Placement`]: the population as both hosts hold it,
/// and the one routing from a node id to the lane that owns it — node
/// access, liveness, command, crash and fault scheduling, the summed
/// counters, and the merge of the workers' recorder buffers.
#[derive(Debug)]
pub struct WorkerSet<P: Protocol, L> {
    placement: Placement,
    pub(crate) list: Vec<Worker<P, L>>,
    /// Events being merged ([`merge_buffers`]); empty between merges.
    pub(crate) merging: Vec<Buffered<P::Event>>,
}

impl<P: Protocol, L: Link<P>> WorkerSet<P, L> {
    /// Lays `placement` out: lane `i` sends through `link(i)`, and `make`
    /// builds each node in global id order (so bootstrap draws do not
    /// depend on the layout), handed the link of the lane that owns it.
    /// Node `g` draws from `seed * GOLDEN ^ g` whichever lane owns it, and
    /// lane `i`'s chaos stream is the engine's lane `i`'s.
    ///
    /// # Panics
    ///
    /// Panics at 2²⁴ lanes or more: a lane's index fills the top of its
    /// events' tie keys.
    pub fn new(
        placement: Placement,
        seed: u64,
        mut link: impl FnMut(usize) -> L,
        mut make: impl FnMut(NodeId, &mut L) -> P,
    ) -> Self {
        assert!(placement.lanes() < MAX_LANES, "at most {MAX_LANES} lanes");
        let list = (0..placement.workers())
            .map(|w| {
                let lanes = placement.lanes_of(w);
                Worker {
                    first: lanes.start,
                    placement,
                    lanes: lanes
                        .map(|i| Lane::new(i, placement, seed, link(i)))
                        .collect(),
                    queue: EventQueue::new(),
                    events_out: VecRecorder::new(),
                }
            })
            .collect();
        let mut set = WorkerSet {
            placement,
            list,
            merging: Vec::new(),
        };
        for id in (0..placement.population() as u32).map(NodeId::new) {
            let lane = set.lane_mut(id);
            let node = make(id, &mut lane.link);
            lane.push_node(id, node, seed);
        }
        set
    }

    /// Where every node lives.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The workers, in lane order.
    pub fn workers(&self) -> &[Worker<P, L>] {
        &self.list
    }

    /// The workers, mutably (each is one thread's to run).
    pub fn workers_mut(&mut self) -> &mut [Worker<P, L>] {
        &mut self.list
    }

    /// Every lane, in index order.
    pub(crate) fn lanes(&self) -> impl Iterator<Item = &Lane<P, L>> {
        self.list.iter().flat_map(|w| &w.lanes)
    }

    pub(crate) fn lanes_mut(&mut self) -> impl Iterator<Item = &mut Lane<P, L>> {
        self.list.iter_mut().flat_map(|w| &mut w.lanes)
    }

    /// The lane that owns `g`: the one routing from an id to its lane.
    fn lane(&self, g: NodeId) -> &Lane<P, L> {
        let lane = self.placement.lane(g);
        let w = &self.list[self.placement.worker(lane)];
        &w.lanes[lane - w.first]
    }

    fn lane_mut(&mut self, g: NodeId) -> &mut Lane<P, L> {
        let lane = self.placement.lane(g);
        let w = &mut self.list[self.placement.worker(lane)];
        &mut w.lanes[lane - w.first]
    }

    /// The link of the lane that owns `g`.
    pub fn link(&self, g: NodeId) -> &L {
        &self.lane(g).link
    }

    /// The protocol state of `g` (alive or not).
    pub fn node(&self, g: NodeId) -> &P {
        &self.lane(g).nodes[self.placement.slot(g)]
    }

    /// The protocol state of `g`, mutably.
    pub(crate) fn node_mut(&mut self, g: NodeId) -> &mut P {
        let slot = self.placement.slot(g);
        &mut self.lane_mut(g).nodes[slot]
    }

    /// Whether `g` is alive.
    pub fn is_alive(&self, g: NodeId) -> bool {
        self.lane(g).alive[self.placement.slot(g)]
    }

    /// Crashes `g` now.
    pub(crate) fn fail_node(&mut self, g: NodeId) {
        let slot = self.placement.slot(g);
        self.lane_mut(g).alive[slot] = false;
    }

    /// Schedules `ev` for `g`'s lane.
    fn schedule_for(&mut self, at: SimTime, g: NodeId, ev: Ev<P>) {
        let lane = self.placement.lane(g);
        self.list[self.placement.worker(lane)].schedule(lane, at, g.as_u32(), ev);
    }

    /// Schedules command `cmd` for `g` at `at`.
    pub fn schedule_command(&mut self, at: SimTime, g: NodeId, cmd: P::Command) {
        self.schedule_for(at, g, Event::Command { node: g, cmd });
    }

    /// Schedules a crash of `g` at `at`: from then on it runs no handler,
    /// and what arrives for it is dead.
    pub fn fail_node_at(&mut self, at: SimTime, g: NodeId) {
        self.schedule_for(at, g, Event::Fail { node: g });
    }

    /// Schedules `fault` at `at` for every lane.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultState::apply`] would — at this call, not when
    /// the fault fires.
    pub fn schedule_fault(&mut self, at: SimTime, fault: &NetFault) {
        self.list[0].lanes[0].faults.validate(fault);
        for w in &mut self.list {
            for lane in &mut w.lanes {
                let ev = Event::Control(fault.clone());
                lane.ties.schedule(&mut w.queue, at, u32::MAX, ev);
            }
        }
    }

    /// The counters of every lane, with what the queues hold.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for w in &self.list {
            w.lanes.iter().for_each(|l| total.absorb(&l.kernel_stats()));
            total.slab_slots += w.queue.slab_slots();
            total.queue_mem_bytes += w.queue.mem_bytes();
        }
        total
    }

    /// Merges what the workers buffered ([`Worker::buffered`]) into
    /// `recorder`, by `(time, worker, emission order)`.
    pub fn merge_into<R: Recorder<P::Event>>(&mut self, recorder: &mut R) {
        merge_buffers(self.list.iter_mut(), &mut self.merging, recorder);
    }
}

/// A plan reaches a worker set as it reaches the engine: a crash or a
/// command to the lane that owns the node, a network fault to every lane.
impl<P: Protocol, L: Link<P>> FaultHost for WorkerSet<P, L> {
    type Command = P::Command;

    fn nodes(&self) -> usize {
        self.placement.population()
    }

    fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: P::Command) {
        WorkerSet::schedule_command(self, at, node, cmd);
    }

    fn fail_node_at(&mut self, at: SimTime, node: NodeId) {
        WorkerSet::fail_node_at(self, at, node);
    }

    fn schedule_fault(&mut self, at: SimTime, fault: NetFault) {
        WorkerSet::schedule_fault(self, at, &fault);
    }
}

/// The [`HostBackend`] a lane presents to its protocol instances. The
/// state machines run unchanged: they cannot tell a lane from a real
/// deployment host.
struct Backend<'a, P: Protocol, L: Link<P>, S> {
    sender: Sender<'a, P>,
    population: usize,
    env: &'a L::Env,
    link: &'a mut L,
    stats: &'a mut TrafficStats,
    faults: &'a mut FaultState,
    sink: &'a mut S,
}

impl<P: Protocol, L: Link<P>, S: Recorder<P::Event>> HostBackend<P> for Backend<'_, P, L, S> {
    fn send(&mut self, to: NodeId, msg: P::Msg) {
        // Send-path order: count the send, then the loss draw, then jitter.
        let from = self.sender.from;
        self.stats.record(from, to, msg.wire_size(), msg.class());
        let mut extra = Duration::ZERO;
        if self.faults.active() {
            match self.faults.draw(from, to) {
                Some(jitter) => extra = jitter,
                None => return,
            }
        }
        self.link.send(self.env, &mut self.sender, to, msg, extra);
    }

    fn set_timer(&mut self, delay: Duration, timer: Timer) {
        let sender = &mut self.sender;
        let node = sender.from;
        let ev = Event::Fire { node, timer };
        sender
            .ties
            .schedule(sender.queue, sender.now + delay, node.as_u32(), ev);
    }

    fn emit(&mut self, event: P::Event) {
        self.sink.record(self.sender.now, self.sender.from, event);
    }

    fn node_count(&self) -> usize {
        self.population
    }
}
