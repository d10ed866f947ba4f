//! One worker of the simulation engine: a self-contained slice of the node
//! population with its own per-node RNG streams and schedule counts, event
//! queues, counters, telemetry and fault-state replica — and the **only**
//! dispatch table and send path on either host. Every event is keyed by
//! `(time, tie)`, the tie belonging to whoever scheduled it — the sending
//! or timer-setting node, with its own schedule count, or the harness — so
//! events pop in one order however the nodes are spread over workers.
//!
//! A worker keeps its nodes' pending timers in a queue of their own, whose
//! slots hold a node and a [`Timer`], and the messages, commands, crashes
//! and faults in another, whose slots are sized for the largest message:
//! every node has its periodic timers pending all the time, and they need
//! not pay for a message's room. The worker pops the two as one, by
//! `(time, tie)`. A node's count moves on for every send and every timer
//! alike, so no two pending events share a tie, and the merged order is
//! the one a single queue holding both would pop in.
//!
//! Which worker owns a node, at which slot, is the [`Placement`]'s to say.
//! With one worker that is the whole population and nothing ever crosses
//! workers; with more, sends to other workers buffer in the worker's
//! outbox until the engine's window barrier (see [`crate::Engine`]). A
//! [`WorkerSet`] holds every worker of a placement and routes a node id
//! to its worker, the same way on both hosts.
//!
//! What leaves a worker goes through its [`Link`], the one part of the
//! send path a host supplies: the simulator's link adds the latency
//! model's delay, and a `gocast-testnet` shard — a worker fired in
//! wall-clock time — frames datagrams onto sockets. Everything else a
//! crash, a timer or a fault means is this file's, on both hosts.
//!
//! Link cuts, the loss/jitter state and the partition labelling are
//! *global* facts: each worker holds a [`FaultState`] replica, updated by
//! scheduling the control event for every worker. A send draws its loss
//! and jitter as it leaves the worker; a message meets a dead endpoint, a
//! cut link or the partition as it arrives. Both checks are local, and the
//! hot path takes no locks.

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
use crate::recorder::Recorder;
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
    /// A protocol timer fires at `node`: what a pop of the timer queue
    /// runs as; it is never queued in this form.
    Fire { node: NodeId, timer: Timer },
    /// The harness injects a command into `node`.
    Command { node: NodeId, cmd: C },
    /// The kernel marks `node` as crashed.
    Fail { node: NodeId },
    /// The kernel changes the network's fault state (broadcast: every
    /// worker has a copy scheduled).
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

/// A message to another worker, `(at, tie, from, to, msg)`: buffered
/// until the window barrier under the tie its sender gave it.
pub(crate) type Outgoing<M> = (SimTime, u64, NodeId, NodeId, M);

/// Deep kernel instrumentation, off by default and allocated only when
/// turned on ([`Engine::enable_telemetry`](crate::Engine::enable_telemetry)):
/// its five histograms take 75 KiB, which a worker without telemetry does
/// not carry.
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
    /// The popping worker's pending events, at every pop.
    pub(crate) queue_depth: Log2Histogram,
    /// Sampled dispatch nanoseconds, per [`EventClass`].
    pub(crate) dispatch_time: [Log2Histogram; EventClass::ALL.len()],
}

impl KernelTelemetry {
    /// Adds another worker's histograms to these.
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

/// Bits of a queue tie below its scheduler: the scheduler's own count.
const COUNT_BITS: u32 = 40;

/// Nodes a population may have at most: node `g` schedules under `g + 1`
/// in the rest of a tie, and the harness under 0.
pub(crate) const MAX_NODES: usize = (1 << (64 - COUNT_BITS)) - 1;

/// The tie of the event `count` its scheduler makes: node `g` schedules
/// as `g + 1`, the harness (commands, crashes and faults) as 0. Equal
/// instants pop in increasing tie, so in each scheduler's own order, and
/// the key says nothing of where the event waits.
#[inline(always)]
fn tie(scheduler: u64, count: u64) -> u64 {
    debug_assert!(count < 1 << COUNT_BITS, "schedule count overflow");
    scheduler << COUNT_BITS | count
}

/// An engine event, and a queue of them.
pub(crate) type Ev<P> = Event<<P as Protocol>::Msg, <P as Protocol>::Command>;
pub(crate) type Queue<P> = EventQueue<Ev<P>>;

/// Schedules `ev` at `(at, tie)` on `queue`, counted in `kernel` (with
/// the queue's high-water mark).
#[inline(always)]
fn schedule<T>(
    queue: &mut EventQueue<T>,
    kernel: &mut KernelStats,
    at: SimTime,
    tie: u64,
    hint: u32,
    ev: T,
) {
    queue.schedule_keyed(at, tie, hint, ev);
    kernel.events_scheduled += 1;
    kernel.queue_len += 1;
    kernel.queue_high_water = kernel.queue_high_water.max(kernel.queue_len);
}

/// The head of one of a worker's two queues: its earliest event's `(at,
/// tie)` as one integer, and that event's hint; [`Head::NONE`] for an
/// empty queue. No tie is all ones (the top scheduler is the harness's 0
/// or a node's id plus one, below 2²⁴ − 1), so no event's key is the
/// empty queue's.
#[derive(Debug, Clone, Copy)]
struct Head {
    key: u128,
    hint: u32,
}

impl Head {
    const NONE: Head = Head {
        key: u128::MAX,
        hint: u32::MAX,
    };

    #[inline(always)]
    fn new(at: SimTime, tie: u64, hint: u32) -> Head {
        Head {
            key: u128::from(at.as_nanos()) << 64 | u128::from(tie),
            hint,
        }
    }

    /// The head [`EventQueue::peek_key`] reads.
    #[inline(always)]
    fn of(peek: Option<(SimTime, u64, u32)>) -> Head {
        peek.map_or(Head::NONE, |(at, tie, hint)| Head::new(at, tie, hint))
    }

    /// Whether the event is due after `deadline` (an empty queue's head is
    /// due at the end of time).
    #[inline(always)]
    fn after(self, deadline: SimTime) -> bool {
        (self.key >> 64) as u64 > deadline.as_nanos()
    }

    /// The earlier of two heads.
    #[inline(always)]
    fn min(self, other: Head) -> Head {
        if other.key < self.key {
            other
        } else {
            self
        }
    }
}

/// A worker's pending timers: a queue of their own, and its head kept at
/// hand, written when a timer is set earlier than it and read again from
/// the queue only when a timer pops. So popping the two queues as one
/// costs the message queue's pops one comparison with a word the worker
/// holds, and no read of the timer queue.
#[derive(Debug)]
struct Timers {
    queue: EventQueue<(NodeId, Timer)>,
    /// The earliest pending timer.
    head: Head,
}

impl Timers {
    fn new() -> Self {
        Timers {
            queue: EventQueue::new(),
            head: Head::NONE,
        }
    }

    /// Sets `timer` at `node` for `(at, tie)`, counted in `kernel`.
    #[inline(always)]
    fn schedule(
        &mut self,
        kernel: &mut KernelStats,
        at: SimTime,
        tie: u64,
        node: NodeId,
        timer: Timer,
    ) {
        let hint = node.as_u32();
        schedule(&mut self.queue, kernel, at, tie, hint, (node, timer));
        self.head = self.head.min(Head::new(at, tie, hint));
    }

    /// Pops the earliest timer, as the event it fires.
    #[inline(always)]
    fn pop<M, C>(&mut self) -> Option<Scheduled<Event<M, C>>> {
        let s = self.queue.pop()?;
        self.head = Head::of(self.queue.peek_key(0));
        let (node, timer) = s.payload;
        Some(Scheduled {
            at: s.at,
            seq: s.seq,
            payload: Event::Fire { node, timer },
        })
    }
}

/// Where a worker's sends leave it: the one part of the send path a host
/// supplies. The worker has counted the send and drawn its loss and
/// jitter first (a lost message never reaches the link), and judges
/// whether the network stops it when it arrives; the link carries it
/// between.
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
    /// The tie of the send being made.
    tie: u64,
    /// How many events `from` has scheduled: the count of its next tie.
    count: &'a mut u64,
    queue: &'a mut Queue<P>,
    timers: &'a mut Timers,
    kernel: &'a mut KernelStats,
}

impl<P: Protocol> Sender<'_, P> {
    /// Takes `from`'s next tie, returning its count.
    #[inline(always)]
    fn next_tie(&mut self) -> u64 {
        let count = *self.count;
        *self.count += 1;
        self.tie = tie(u64::from(self.from.as_u32()) + 1, count);
        count
    }
}

impl<P: Protocol> std::fmt::Debug for Sender<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sender({} at {:?})", self.from, self.now)
    }
}

/// The simulator's link: a message arrives the latency model's delay plus
/// its jitter after it is sent, scheduled on the sending worker's queue
/// when that worker owns the receiver, else held in the outbox until the
/// window barrier.
pub(crate) struct SimLink<P: Protocol> {
    /// The sending worker's index.
    pub(crate) index: usize,
    pub(crate) placement: Placement,
    /// Sends to other workers made this window, in send order.
    pub(crate) outbox: Vec<Outgoing<P::Msg>>,
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
        let (from, tie) = (sender.from, sender.tie);
        let at = sender.now + (net.one_way(from, to) + extra);
        if self.placement.owner(to) == self.index {
            let ev = Event::Deliver { from, to, msg };
            schedule(sender.queue, sender.kernel, at, tie, to.as_u32(), ev);
        } else {
            self.outbox.push((at, tie, from, to, msg));
        }
    }
}

/// A kernel worker: the simulator's link.
pub(crate) type SimWorker<P> = Worker<P, SimLink<P>>;

/// A window's recorder events, each `(at, tie, node, event)`.
pub(crate) type Window<E> = Vec<(SimTime, u64, NodeId, E)>;

/// Records into a worker's window under the merge tie of the event being
/// run ([`Worker::run_window_buffered`]), for [`WorkerSet::merge_into`].
struct Tagged<'a, E> {
    tie: u64,
    out: &'a mut Window<E>,
}

impl<E> Recorder<E> for Tagged<'_, E> {
    fn record(&mut self, now: SimTime, node: NodeId, event: E) {
        self.out.push((now, self.tie, node, event));
    }
}

/// One worker: a self-contained slice of the node population, and what
/// one thread runs. The engine runs one per worker thread over the
/// simulator's link; a `gocast-testnet` shard is a worker fired in
/// wall-clock time ([`Worker::fire_due`]) and handed each arriving message
/// ([`Worker::arrive`]). A [`WorkerSet`] holds them.
pub struct Worker<P: Protocol, L> {
    /// This worker's index in its placement.
    index: usize,
    /// Where every node lives (what a protocol's `node_count` reads).
    placement: Placement,
    /// Protocol state for owned nodes, arena-style: dense by slot, never
    /// moved after construction (dispatch split-borrows the slot in
    /// place).
    nodes: Vec<P>,
    alive: Vec<bool>,
    rngs: Vec<SmallRng>,
    /// How many events each node has scheduled: the count of its next tie.
    counts: Vec<u64>,
    /// Every pending event but the timers.
    queue: Queue<P>,
    timers: Timers,
    pub(crate) stats: TrafficStats,
    /// Counters, with `events_scheduled` and `queue_len` kept as events
    /// enter and leave the queues.
    kernel: KernelStats,
    /// `Some` once telemetry is turned on.
    pub(crate) telemetry: Option<Box<KernelTelemetry>>,
    /// This worker's replica of the network's fault state.
    pub(crate) faults: FaultState,
    /// Where this worker's sends leave it: the host's.
    pub link: L,
    /// Recorder events of the window, in pop order, where several workers
    /// share one recorder ([`Worker::buffered`]).
    pub(crate) events_out: Window<P::Event>,
}

impl<P: Protocol, L> std::fmt::Debug for Worker<P, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Worker {} ({} nodes)", self.index, self.nodes.len())
    }
}

impl<P: Protocol, L: Link<P>> Worker<P, L> {
    /// Worker `index` of `placement`, empty, with room for exactly the
    /// nodes it will own: the arenas are the simulation's largest
    /// allocations, and growing them by doubling would leave up to half of
    /// each unused.
    fn new(index: usize, placement: Placement, seed: u64, link: L) -> Self {
        let nodes = placement.owned(index);
        Worker {
            index,
            placement,
            nodes: Vec::with_capacity(nodes),
            alive: Vec::with_capacity(nodes),
            rngs: Vec::with_capacity(nodes),
            counts: Vec::with_capacity(nodes),
            queue: EventQueue::new(),
            timers: Timers::new(),
            stats: TrafficStats::new(),
            kernel: KernelStats::default(),
            telemetry: None,
            faults: FaultState::new(placement.population(), seed),
            link,
            events_out: Vec::new(),
        }
    }

    /// Adds the next owned node (callers push in increasing global id
    /// order). Node `g` draws from `seed * GOLDEN ^ g` whichever worker
    /// owns it.
    fn push_node(&mut self, id: NodeId, node: P, seed: u64) {
        debug_assert_eq!(self.placement.slot(id), self.nodes.len());
        self.nodes.push(node);
        self.alive.push(true);
        self.counts.push(0);
        self.rngs.push(SmallRng::seed_from_u64(
            seed.wrapping_mul(GOLDEN) ^ id.index() as u64,
        ));
    }

    /// When the earliest pending event is due.
    pub fn next_due(&self) -> Option<SimTime> {
        let timer = self.timers.queue.peek_time();
        self.queue.peek_time().into_iter().chain(timer).min()
    }

    /// Gives back what the queues reserve beyond what is pending, for a
    /// caller that knows they are at rest ([`EventQueue::trim`]).
    pub(crate) fn trim(&mut self) {
        self.queue.trim();
        self.timers.queue.trim();
    }

    /// Pops the earliest pending event of the two queues, if it is due by
    /// `deadline`: the head of the message queue, read from its front, or
    /// the timer queue's, read from the worker.
    #[inline(always)]
    fn pop_due(&mut self, deadline: SimTime) -> Option<Scheduled<Ev<P>>> {
        let msg = Head::of(self.queue.peek_key(0));
        if msg.key < self.timers.head.key {
            if msg.after(deadline) {
                return None;
            }
            self.queue.pop()
        } else {
            if self.timers.head.after(deadline) {
                return None;
            }
            self.timers.pop()
        }
    }

    /// Runs `f` with this worker's window buffer as the recorder: where
    /// several workers share one recorder, each records into its own, and
    /// [`WorkerSet::merge_into`] merges them.
    pub fn buffered<T>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut dyn Recorder<P::Event>) -> T,
    ) -> T {
        let mut out = std::mem::take(&mut self.events_out);
        let t = f(
            self,
            &mut Tagged {
                tie: 0,
                out: &mut out,
            },
        );
        self.events_out = out;
        t
    }

    /// Schedules `ev` at `(at, tie)`.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, tie: u64, hint: u32, ev: Ev<P>) {
        schedule(&mut self.queue, &mut self.kernel, at, tie, hint, ev);
    }

    /// Calls `on_start` on `g`, an owned node, if it is alive.
    fn start_node<S: Recorder<P::Event>>(&mut self, g: NodeId, env: &L::Env, sink: &mut S) {
        if self.alive[self.placement.slot(g)] {
            let on_start = |p: &mut P, ctx: &mut Ctx<'_, P>| p.on_start(ctx);
            self.with_ctx(SimTime::ZERO, g, env, sink, on_start);
        }
    }

    /// Runs every event with `at <= end_inclusive`, in `(time, tie)`
    /// order.
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
        while let Some(ev) = self.pop_due(end_inclusive) {
            self.execute(ev.at, ev, env, sink);
        }
    }

    /// [`Worker::run_window`] into this worker's window buffer, each
    /// recorder event under the highest tie popped at its instant so far.
    /// That is the emitting event's own tie but for an event a handler
    /// schedules for its own instant under a lower tie (a zero-delay timer
    /// or self-send answering a higher scheduler): one queue over every
    /// node pops that right after its cause, and so it sorts.
    pub(crate) fn run_window_buffered(&mut self, end_inclusive: SimTime, env: &L::Env) {
        let mut out = std::mem::take(&mut self.events_out);
        let (mut at, mut tie) = (SimTime::ZERO, 0);
        while let Some(ev) = self.pop_due(end_inclusive) {
            tie = if ev.at == at { tie.max(ev.seq) } else { ev.seq };
            at = ev.at;
            self.execute(at, ev, env, &mut Tagged { tie, out: &mut out });
        }
        self.events_out = out;
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
        let ev = self.pop_due(now)?;
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
        self.kernel.events_processed += 1;
        self.dispatch(now, Event::Deliver { from, to, msg }, env, sink);
    }

    /// Runs one popped event at `at`: its own time in the kernel, the time
    /// it fires at on the wire.
    #[inline(always)]
    fn execute<S: Recorder<P::Event>>(
        &mut self,
        at: SimTime,
        ev: Scheduled<Ev<P>>,
        env: &L::Env,
        sink: &mut S,
    ) {
        self.prefetch_next();
        let ev = ev.payload;
        if let (Event::Control(fault), 1..) = (&ev, self.index) {
            // Another worker's copy of a broadcast fault: worker 0's is
            // the one counted, so a fault is one event at any layout.
            self.faults.apply(fault);
            return;
        }
        let k = &mut self.kernel;
        k.queue_len -= 1;
        k.events_processed += 1;
        let (pending, events) = (k.queue_len, k.events_processed);
        if let Some(telemetry) = &mut self.telemetry {
            telemetry.queue_depth.observe(pending as u64);
            if events.is_multiple_of(TELEMETRY_SAMPLE) {
                let class = ev.class();
                let t0 = std::time::Instant::now();
                self.dispatch(at, ev, env, sink);
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(telemetry) = &mut self.telemetry {
                    telemetry.dispatch_time[class.index()].observe(ns);
                }
                return;
            }
        }
        self.dispatch(at, ev, env, sink);
    }

    #[inline(always)]
    fn dispatch<S: Recorder<P::Event>>(
        &mut self,
        at: SimTime,
        ev: Ev<P>,
        env: &L::Env,
        sink: &mut S,
    ) {
        match ev {
            Event::Deliver { from, to, msg } => {
                let dead = !self.alive[self.placement.slot(to)];
                if !self.faults.blocked(from, to, dead) {
                    self.kernel.deliveries += 1;
                    self.with_ctx(at, to, env, sink, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Event::Fire { node, timer } => {
                if self.alive[self.placement.slot(node)] {
                    self.kernel.timers_fired += 1;
                    self.with_ctx(at, node, env, sink, |p, ctx| p.on_timer(ctx, timer));
                }
            }
            Event::Command { node, cmd } => {
                if self.alive[self.placement.slot(node)] {
                    self.kernel.commands += 1;
                    self.with_ctx(at, node, env, sink, |p, ctx| p.on_command(ctx, cmd));
                }
            }
            Event::Fail { node } => {
                self.kernel.control_events += 1;
                let l = self.placement.slot(node);
                self.alive[l] = false;
            }
            Event::Control(fault) => {
                self.kernel.control_events += 1;
                self.faults.apply(&fault);
            }
        }
    }

    #[inline(always)]
    fn with_ctx<S: Recorder<P::Event>, F: FnOnce(&mut P, &mut Ctx<'_, P>)>(
        &mut self,
        at: SimTime,
        node: NodeId,
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
                tie: 0,
                count: &mut self.counts[l],
                queue: &mut self.queue,
                timers: &mut self.timers,
                kernel: &mut self.kernel,
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

    /// This worker's counters, with what its two queues store.
    pub(crate) fn kernel_stats(&self) -> KernelStats {
        let mut k = self.kernel;
        k.fates = self.faults.fates();
        let timers = &self.timers.queue;
        k.slab_slots = self.queue.slab_slots() + timers.slab_slots();
        k.queue_mem_bytes = self.queue.mem_bytes() + timers.mem_bytes();
        k
    }

    /// Starts fetching what the next two dispatches read, so the misses
    /// overlap with the handler about to run. At scale every event starts
    /// on a node that has left the cache (EXPERIMENTS.md "Which share of
    /// an event grows with the population"), and its handler then follows
    /// the node's pointers to its containers. Two stages:
    ///
    /// 1. the node whose event pops *second*, of the two queues as one:
    ///    its leading lines, RNG and liveness flag;
    /// 2. the node whose event pops *next*: [`Protocol::prefetch`], which
    ///    reads the container pointers from lines stage 1 requested one
    ///    event earlier. The leading lines are asked for again first: in
    ///    cache that costs next to nothing, and when an event scheduled
    ///    since has overtaken stage 1's guess it puts all four lines in
    ///    flight at once, not one by one as the hook and handler reach
    ///    them.
    #[inline(always)]
    fn prefetch_next(&mut self) {
        let (msg, timer) = (Head::of(self.queue.peek_key(0)), self.timers.head);
        let (next, second) = if msg.key < timer.key {
            (msg, Head::of(self.queue.peek_key(1)).min(timer))
        } else {
            (timer, Head::of(self.timers.queue.peek_key(1)).min(msg))
        };
        for (hint, hook) in [(second.hint, false), (next.hint, true)] {
            // A broadcast fault's hint is no node (nor is an empty
            // queue's), and every other event's node is this worker's.
            if hint == u32::MAX {
                continue;
            }
            let l = self.placement.slot(NodeId::new(hint));
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
    }
}

/// A window's buffered event on its way to the recorder: `(at, tie,
/// worker, emission order, node, event)`.
type Buffered<E> = (SimTime, u64, u32, u32, NodeId, E);

/// Merges the workers' window buffers into `recorder` by `(time, tie,
/// emission order)`: the order one worker over every node pops and emits
/// in, whatever the layout. (Only wire shards, which fire in wall-clock
/// time, record under equal ties; the worker index orders those.)
pub(crate) fn merge_buffers<'a, P: Protocol + 'a, L: 'a, R: Recorder<P::Event>>(
    workers: impl Iterator<Item = &'a mut Worker<P, L>>,
    merging: &mut Vec<Buffered<P::Event>>,
    recorder: &mut R,
) {
    for (i, w) in workers.enumerate() {
        let events = w.events_out.drain(..).enumerate();
        merging.extend(
            events.map(|(pos, (at, tie, node, ev))| (at, tie, i as u32, pos as u32, node, ev)),
        );
    }
    // The keys are unique, so the unstable sort is the stable one without
    // its allocation.
    merging.sort_unstable_by_key(|(at, tie, w, pos, _, _)| (*at, *tie, *w, *pos));
    for (at, _, _, _, node, ev) in merging.drain(..) {
        recorder.record(at, node, ev);
    }
}

/// Every worker of a [`Placement`]: the population as both hosts hold it,
/// and the one routing from a node id to the worker that owns it — node
/// access, liveness, start-up, command, crash and fault scheduling, the
/// summed counters, and the merge of the workers' recorder buffers.
#[derive(Debug)]
pub struct WorkerSet<P: Protocol, L> {
    placement: Placement,
    pub(crate) list: Vec<Worker<P, L>>,
    /// How many events the harness has scheduled: the count of its next
    /// tie.
    harness: u64,
    /// Events being merged ([`merge_buffers`]); empty between merges.
    pub(crate) merging: Vec<Buffered<P::Event>>,
}

impl<P: Protocol, L: Link<P>> WorkerSet<P, L> {
    /// Lays `placement` out: worker `i` sends through `link(i)`, and
    /// `make` builds each node in global id order (so bootstrap draws do
    /// not depend on the layout), handed the link of the worker that owns
    /// it. Node `g` draws from `seed * GOLDEN ^ g` whichever worker owns
    /// it, and every worker decides loss and jitter from the same seed.
    ///
    /// # Panics
    ///
    /// Panics at 2²⁴ − 1 nodes or more: a node's id fills the top of the
    /// tie keys of the events it schedules.
    pub fn new(
        placement: Placement,
        seed: u64,
        mut link: impl FnMut(usize) -> L,
        mut make: impl FnMut(NodeId, &mut L) -> P,
    ) -> Self {
        let population = placement.population();
        assert!(population < MAX_NODES, "at most {MAX_NODES} nodes");
        let list = (0..placement.workers())
            .map(|i| Worker::new(i, placement, seed, link(i)))
            .collect();
        let mut set = WorkerSet {
            placement,
            list,
            harness: 0,
            merging: Vec::new(),
        };
        for id in (0..population as u32).map(NodeId::new) {
            let w = set.owner_mut(id);
            let node = make(id, &mut w.link);
            w.push_node(id, node, seed);
        }
        set
    }

    /// Where every node lives.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The workers, in index order.
    pub fn workers(&self) -> &[Worker<P, L>] {
        &self.list
    }

    /// The workers, mutably (each is one thread's to run).
    pub fn workers_mut(&mut self) -> &mut [Worker<P, L>] {
        &mut self.list
    }

    /// The worker that owns `g`: the one routing from an id to its worker.
    fn owner(&self, g: NodeId) -> &Worker<P, L> {
        &self.list[self.placement.owner(g)]
    }

    fn owner_mut(&mut self, g: NodeId) -> &mut Worker<P, L> {
        &mut self.list[self.placement.owner(g)]
    }

    /// The link of the worker that owns `g`.
    pub fn link(&self, g: NodeId) -> &L {
        &self.owner(g).link
    }

    /// The protocol state of `g` (alive or not).
    pub fn node(&self, g: NodeId) -> &P {
        &self.owner(g).nodes[self.placement.slot(g)]
    }

    /// The protocol state of `g`, mutably.
    pub(crate) fn node_mut(&mut self, g: NodeId) -> &mut P {
        let slot = self.placement.slot(g);
        &mut self.owner_mut(g).nodes[slot]
    }

    /// Whether `g` is alive.
    pub fn is_alive(&self, g: NodeId) -> bool {
        self.owner(g).alive[self.placement.slot(g)]
    }

    /// Crashes `g` now.
    pub(crate) fn fail_node(&mut self, g: NodeId) {
        let slot = self.placement.slot(g);
        self.owner_mut(g).alive[slot] = false;
    }

    /// Calls `on_start` on every alive node, in global id order whatever
    /// the layout.
    pub fn start<S: Recorder<P::Event>>(&mut self, env: &L::Env, sink: &mut S) {
        for g in (0..self.placement.population() as u32).map(NodeId::new) {
            self.owner_mut(g).start_node(g, env, sink);
        }
    }

    /// The harness's next tie.
    fn harness_tie(&mut self) -> u64 {
        self.harness += 1;
        tie(0, self.harness - 1)
    }

    /// Schedules `ev` for `g`'s worker, under the harness's next tie.
    fn schedule_for(&mut self, at: SimTime, g: NodeId, ev: Ev<P>) {
        let tie = self.harness_tie();
        self.owner_mut(g).schedule(at, tie, g.as_u32(), ev);
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

    /// Schedules `fault` at `at` for every worker, under one harness tie:
    /// one event, of which worker 0 holds the counted copy.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultState::apply`] would — at this call, not when
    /// the fault fires.
    pub fn schedule_fault(&mut self, at: SimTime, fault: &NetFault) {
        self.list[0].faults.validate(fault);
        let tie = self.harness_tie();
        let (home, rest) = self.list.split_first_mut().expect("at least one worker");
        home.schedule(at, tie, u32::MAX, Event::Control(fault.clone()));
        for w in rest {
            let ev = Event::Control(fault.clone());
            w.queue.schedule_keyed(at, tie, u32::MAX, ev);
        }
    }

    /// The counters of every worker, with what the queues store.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        self.list
            .iter()
            .for_each(|w| total.absorb(&w.kernel_stats()));
        total
    }

    /// Merges what the workers buffered ([`Worker::buffered`]) into
    /// `recorder`, by `(time, tie, emission order)`.
    pub fn merge_into<R: Recorder<P::Event>>(&mut self, recorder: &mut R) {
        merge_buffers(self.list.iter_mut(), &mut self.merging, recorder);
    }
}

/// A plan reaches a worker set as it reaches the engine: a crash or a
/// command to the worker that owns the node, a network fault to every
/// worker.
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

/// The [`HostBackend`] a worker presents to its protocol instances. The
/// state machines run unchanged: they cannot tell a worker from a real
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
        // Send-path order: count the send, take its tie, then the loss
        // and jitter draws for it.
        let from = self.sender.from;
        self.stats.record(from, to, msg.wire_size(), msg.class());
        let count = self.sender.next_tie();
        let mut extra = Duration::ZERO;
        if self.faults.active() {
            match self.faults.draw(from, to, count) {
                Some(jitter) => extra = jitter,
                None => return,
            }
        }
        self.link.send(self.env, &mut self.sender, to, msg, extra);
    }

    fn set_timer(&mut self, delay: Duration, timer: Timer) {
        let sender = &mut self.sender;
        sender.next_tie();
        let (at, node) = (sender.now + delay, sender.from);
        sender
            .timers
            .schedule(sender.kernel, at, sender.tie, node, timer);
    }

    fn emit(&mut self, event: P::Event) {
        self.sink.record(self.sender.now, self.sender.from, event);
    }

    fn node_count(&self) -> usize {
        self.population
    }
}
