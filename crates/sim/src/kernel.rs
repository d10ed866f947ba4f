//! The discrete-event simulation engine: one kernel ([`Engine`]), two
//! entry points ([`Sim`], [`ShardedSim`]), built over the lanes and
//! workers of [`crate::lane`]: one event queue per worker thread, each
//! over a contiguous chunk of lanes. The execution and determinism model
//! is documented on [`Engine`].

use std::sync::mpsc;
use std::time::Duration;

use gocast_metrics::Snapshot;

use crate::fault::{FaultState, NetFates, NetFault};
use crate::id::NodeId;
use crate::lane::{
    merge_buffers, CrossLaneMsg, Event, KernelTelemetry, SimLane, SimLink, SimWorker, WorkerSet,
};
use crate::latency::LatencyModel;
use crate::placement::Placement;
use crate::protocol::Protocol;
use crate::recorder::{NullRecorder, Recorder};
use crate::stats::TrafficStats;
use crate::time::SimTime;

/// Kernel-level execution counters, snapshot via [`Engine::kernel_stats`].
///
/// These measure the *kernel itself* — how many events it processed and
/// how fast — as opposed to [`TrafficStats`], which measures the
/// protocol's traffic. All counters are cumulative since construction.
///
/// Wall-clock time is accrued by the run loops ([`Engine::run_until`],
/// [`Engine::run_until_idle`], [`Engine::run_for`]); stepping manually with
/// [`Engine::step`] advances the event counters but not `wall_time`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Total events popped from the queue and executed.
    pub events_processed: u64,
    /// Message deliveries dispatched to a protocol handler.
    pub deliveries: u64,
    /// The messages the network did not deliver, by fate (summed over the
    /// lanes' [`FaultState`] replicas, which count them).
    pub fates: NetFates,
    /// Timer firings dispatched.
    pub timers_fired: u64,
    /// Commands dispatched.
    pub commands: u64,
    /// Kernel control events executed (node failures, link up/down).
    pub control_events: u64,
    /// Total events ever scheduled (including still-pending ones).
    pub events_scheduled: u64,
    /// Events pending at snapshot time.
    pub queue_len: usize,
    /// Most events pending at once: sampled at every step on one lane, and
    /// over all lanes at every window boundary on more (so the mark is
    /// comparable with `queue_len` at any lane count).
    pub queue_high_water: usize,
    /// Payload slots currently allocated in the event-queue slabs (occupied
    /// plus the vacant ones awaiting reuse): the deepest the queues have
    /// been since they last shrank, not since the run began — see
    /// [`EventQueue`](crate::EventQueue). One queue per worker thread, so
    /// this and `queue_mem_bytes` depend on the thread count.
    pub slab_slots: usize,
    /// Bytes of backing storage the event queues currently reserve
    /// (payload slab and keys, plus the slot numbers of their tiers).
    /// Self-reported, so scaling tables need no external process
    /// inspection.
    pub queue_mem_bytes: u64,
    /// Wall-clock time spent inside the run loops.
    pub wall_time: std::time::Duration,
}

impl KernelStats {
    /// Kernel throughput: events processed per wall-clock second.
    /// Zero until a run loop has accrued measurable wall time.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events_processed as f64 / secs
        }
    }

    /// Folds another kernel's counters into this one — the engine's
    /// per-lane aggregation. Monotonic counters and memory sizes
    /// add; the high-water mark takes the per-lane maximum (a lane-local
    /// depth — [`Engine::kernel_stats`] raises it to the all-lane count it
    /// samples itself); wall time takes the maximum because lanes run
    /// concurrently.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.events_processed += other.events_processed;
        self.deliveries += other.deliveries;
        self.fates.merge(&other.fates);
        self.timers_fired += other.timers_fired;
        self.commands += other.commands;
        self.control_events += other.control_events;
        self.events_scheduled += other.events_scheduled;
        self.queue_len += other.queue_len;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.slab_slots += other.slab_slots;
        self.queue_mem_bytes += other.queue_mem_bytes;
        self.wall_time = self.wall_time.max(other.wall_time);
    }

    /// Records the always-on counters into `snap` under the `kernel_*`
    /// names every host exports: events, scheduling, dispatch by class,
    /// and the queue's depth, slab and memory.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        snap.record_counter("kernel_events", self.events_processed);
        snap.record_counter("kernel_scheduled", self.events_scheduled);
        snap.record_counter("kernel_deliveries", self.deliveries);
        snap.record_counter("kernel_timers", self.timers_fired);
        snap.record_counter("kernel_commands", self.commands);
        snap.record_counter("kernel_control", self.control_events);
        snap.record_level(
            "kernel_queue_len",
            self.queue_len as i64,
            self.queue_high_water as i64,
        );
        // Every pending event occupies one slot; the slots currently
        // allocated are the most the level has been since the queues last
        // shrank.
        snap.record_level(
            "kernel_slab_occupied",
            self.queue_len as i64,
            self.slab_slots as i64,
        );
        snap.record_counter("kernel_queue_mem_bytes", self.queue_mem_bytes);
    }
}

impl std::fmt::Display for KernelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events ({} delivered, {} dropped, {} timers) in {:.3?}, {:.0} events/sec, queue high-water {}",
            self.events_processed,
            self.deliveries,
            self.fates.total(),
            self.timers_fired,
            self.wall_time,
            self.events_per_sec(),
            self.queue_high_water,
        )
    }
}

/// Kernel event classes, for per-class dispatch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Message deliveries (including in-flight drops).
    Deliver,
    /// Protocol timer firings.
    Timer,
    /// Harness-injected commands.
    Command,
    /// Kernel control events (failures, link/loss/partition changes).
    Control,
}

impl EventClass {
    /// Every class, in dispatch-table order.
    pub const ALL: [EventClass; 4] = [
        EventClass::Deliver,
        EventClass::Timer,
        EventClass::Command,
        EventClass::Control,
    ];

    /// Stable lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            EventClass::Deliver => "deliver",
            EventClass::Timer => "timer",
            EventClass::Command => "command",
            EventClass::Control => "control",
        }
    }

    /// Dense index into per-class arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    const fn dispatch_metric_name(self) -> &'static str {
        match self {
            EventClass::Deliver => "kernel_dispatch_ns_deliver",
            EventClass::Timer => "kernel_dispatch_ns_timer",
            EventClass::Command => "kernel_dispatch_ns_command",
            EventClass::Control => "kernel_dispatch_ns_control",
        }
    }
}

/// Error returned by [`Engine::try_schedule_command`] when the requested
/// firing time is earlier than the simulation clock.
///
/// The panicking schedulers ([`Engine::schedule_command`],
/// [`Engine::fail_node_at`], [`Engine::schedule_fault`]) panic with this
/// error's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastScheduleError {
    /// The requested firing time.
    pub at: SimTime,
    /// The simulation clock at the time of the call.
    pub now: SimTime,
}

impl std::fmt::Display for PastScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot schedule an event at {:?} in the past (simulation time is {:?})",
            self.at, self.now
        )
    }
}

impl std::error::Error for PastScheduleError {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::OneLane {}
    impl Sealed for super::Lanes {}
}

/// How an [`Engine`] is driven: by one run loop over one lane
/// ([`OneLane`]) or by the window loop over any number of lanes
/// ([`Lanes`]). The mode decides which `run_until` the engine has and
/// whether its latency model must be shareable across threads; everything
/// else is common.
pub trait Mode: sealed::Sealed {
    /// The latency model as this mode holds it.
    type Net: ?Sized;
    #[doc(hidden)]
    fn model(net: &Self::Net) -> &(dyn LatencyModel + 'static);
}

/// The mode of [`Sim`]: exactly one lane, run on the caller's thread.
#[derive(Debug, Clone, Copy)]
pub struct OneLane;

/// The mode of [`ShardedSim`]: `lanes ≥ 1`, run in lookahead windows that
/// fan across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Lanes;

impl Mode for OneLane {
    type Net = dyn LatencyModel;
    fn model(net: &Self::Net) -> &(dyn LatencyModel + 'static) {
        net
    }
}

impl Mode for Lanes {
    type Net = dyn LatencyModel + Send + Sync;
    fn model(net: &Self::Net) -> &(dyn LatencyModel + 'static) {
        net
    }
}

/// The engine at one lane: the single-threaded, fully deterministic
/// discrete-event loop. Built by [`SimBuilder`]. One run loop covers the
/// whole deadline, events reach the recorder as they happen, and
/// [`Engine::step`] / [`Engine::run_until_idle`] are available.
pub type Sim<P, R = NullRecorder> = Engine<P, R, OneLane>;

/// The engine at any lane count, run in conservative-lookahead windows
/// that fan across worker threads (see [`Engine`]). Built by
/// [`ShardedSimBuilder`].
pub type ShardedSim<P, R> = Engine<P, R, Lanes>;

/// Capacity (in entries) a window buffer keeps where a run call returns:
/// enough that small simulations stepped in short run calls do not
/// reallocate every call, nothing next to a start-up storm's worth.
const WINDOW_BUFFER_KEEP: usize = 64;

/// A deterministic discrete-event simulation of `n` protocol instances:
/// one kernel with two entry points, [`Sim`] and [`ShardedSim`]. Node
/// access, scheduling, fault injection, statistics and telemetry are the
/// same methods on both; only the run loop differs.
///
/// The engine owns the protocol instances (split over one or more
/// *lanes* by a [`Placement`], each lane with its own per-node RNG
/// streams, counters and fault-state replicas), one event
/// queue per worker thread over a contiguous chunk of lanes, the latency
/// model, and the event recorder. A queue orders by `(time, lane,
/// per-lane sequence)`, so within a lane events at equal timestamps fire
/// in scheduling order whichever lanes share its queue.
///
/// - [`Sim`] is the engine at **one lane**. The run loop is a single
///   window covering the whole `run_until` deadline, so the latency model
///   needs no lookahead bound, events reach the recorder as they happen
///   (nothing is buffered), and `step` / `run_until_idle` are available.
/// - [`ShardedSim`] is the same engine at **`lanes ≥ 1`**, executed under
///   the classic conservative-lookahead scheme, because at 10⁵–10⁶ nodes
///   one event loop becomes the wall-clock bottleneck long before memory
///   does:
///
///   1. The latency model promises a positive lower bound Δ on cross-node
///      latency ([`LatencyModel::lookahead`]). A message sent at any time
///      `t` inside a window `[w, w + Δ)` arrives at `t + latency ≥ w + Δ`,
///      i.e. **never inside the window** at another lane.
///   2. Each worker therefore processes its lanes' events for one window
///      with no synchronization at all; sends to other lanes buffer in a
///      per-lane outbox.
///   3. At the window barrier the coordinator schedules every outbox for
///      the destination lanes in `(source lane, send order)` — each lane
///      numbers its events in the order they reach it, so deliveries
///      happen in the canonical `(arrival time, source lane, send order)`
///      without the messages ever being copied or sorted.
///
///   A worker pops its lanes' events in `(time, lane, sequence)` order, so
///   with one worker its recorder events come out merged and go straight
///   to the recorder. Several workers each buffer theirs, and the barrier
///   merges the buffers by `(time, worker, emission order)` — the same
///   order, as workers hold ascending chunks of lanes; a `gocast-testnet`
///   fabric merges its shards' buffers through the same merge
///   ([`WorkerSet::merge_into`]). At one lane nothing crosses lanes, so a
///   one-lane `ShardedSim` runs one window to the deadline and is
///   indistinguishable from a `Sim`.
///
/// # Determinism contract
///
/// The *lane count* is part of the simulation's semantics: it decides the
/// cross-lane merge order, so two runs agree byte-for-byte iff they use
/// the same seed and lane count. The *thread count*
/// ([`ShardedSimBuilder::threads`], the CLI's `--sim-shards`) is pure
/// execution policy: lanes are data-independent within a window, so any
/// thread count produces identical output by construction — the property
/// the cross-shard determinism tests assert.
///
/// RNG streams do not depend on the lane count: node `g` draws from
/// `seed * GOLDEN ^ g` whichever lane owns it. The chaos (loss/jitter)
/// stream is per lane — lane 0 draws from the stream a one-lane engine
/// uses, lane `i ≥ 1` from one derived from the seed and `i` — so runs
/// with loss or jitter are deterministic per `(seed, lane count)`.
pub struct Engine<P: Protocol, R: Recorder<P::Event>, M: Mode> {
    now: SimTime,
    /// One per worker thread, each over a contiguous chunk of lanes.
    workers: WorkerSet<P, SimLink<P>>,
    net: Box<M::Net>,
    recorder: R,
    wall_time: Duration,
    started: bool,
    /// Most events pending over all lanes at any window boundary.
    pending_high_water: usize,
}

impl<P: Protocol, R: Recorder<P::Event>, M: Mode> std::fmt::Debug for Engine<P, R, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("nodes", &self.len())
            .field("placement", &self.workers.placement())
            .field("pending_events", &self.kernel_stats().queue_len)
            .finish()
    }
}

/// Schedules every lane's cross-lane sends for their destination lanes,
/// lane by lane in send order: each lane numbers what reaches it in that
/// order, so the messages pop in `(arrival, source lane, send order)` at
/// any thread count.
fn flush<P: Protocol>(workers: &mut [&mut SimWorker<P>], placement: Placement) {
    for w in 0..workers.len() {
        for l in 0..workers[w].lanes.len() {
            // A lane never sends to itself through its outbox, so nothing
            // misses the buffer while it is out.
            let mut outbox = std::mem::take(&mut workers[w].lanes[l].link.outbox);
            for CrossLaneMsg { at, from, to, msg } in outbox.drain(..) {
                let lane = placement.lane(to);
                let ev = Event::Deliver { from, to, msg };
                workers[placement.worker(lane)].schedule(lane, at, to.as_u32(), ev);
            }
            workers[w].lanes[l].link.outbox = outbox;
        }
    }
}

/// The end of the next window, if an event is due by `deadline`: the
/// deadline itself without a lookahead `delta` (one lane), else at most Δ
/// past the earliest pending event. The scan also counts the pending
/// events: the only instants at which an all-lane count exists, and the
/// same ones at any thread count.
fn next_window<P: Protocol>(
    workers: &[&mut SimWorker<P>],
    deadline: SimTime,
    delta: Option<u64>,
    high_water: &mut usize,
) -> Option<SimTime> {
    let (mut next, mut pending) = (None, 0);
    for w in workers {
        let queue = &w.queue;
        next = [next, queue.peek_time()].into_iter().flatten().min();
        pending += queue.len();
    }
    *high_water = (*high_water).max(pending);
    let next = next.filter(|t| *t <= deadline)?;
    Some(delta.map_or(deadline, |d| {
        let end = next.as_nanos().saturating_add(d - 1);
        SimTime::from_nanos(end.min(deadline.as_nanos()))
    }))
}

impl<P: Protocol, R: Recorder<P::Event>, M: Mode> Engine<P, R, M> {
    /// Builds the engine: `make` is called once per node in global id
    /// order (so bootstrap-graph draws are the same at any lane count).
    fn assemble<F: FnMut(NodeId) -> P>(
        net: Box<M::Net>,
        seed: u64,
        lanes: usize,
        threads: usize,
        recorder: R,
        mut make: F,
    ) -> Self {
        let model = M::model(&net);
        let placement = Placement::new(model.len(), lanes, threads);
        assert!(
            placement.lanes() == 1 || model.lookahead().is_some_and(|d| d > Duration::ZERO),
            "more than one lane requires a latency model with positive lookahead"
        );
        let link = |i| SimLink::new(i, placement);
        Engine {
            now: SimTime::ZERO,
            workers: WorkerSet::new(placement, seed, link, |id, _| make(id)),
            net,
            recorder,
            wall_time: Duration::ZERO,
            started: false,
            pending_high_water: 0,
        }
    }

    /// Number of nodes (alive or failed).
    pub fn len(&self) -> usize {
        self.workers.placement().population()
    }

    /// Whether the simulation has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current simulated time (the frontier every lane has reached).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The lane count — a **semantic** parameter (see the determinism
    /// contract above); always 1 on [`Sim`].
    pub fn lane_count(&self) -> usize {
        self.workers.placement().lanes()
    }

    /// The latency model driving this simulation.
    pub fn latency_model(&self) -> &dyn LatencyModel {
        M::model(&self.net)
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.workers.is_alive(node)
    }

    /// Ids of all currently alive nodes, in increasing id order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32)
            .map(NodeId::new)
            .filter(|id| self.is_alive(*id))
    }

    /// Immutable access to a node's protocol state (available even after the
    /// node failed — useful for post-mortem analysis).
    pub fn node(&self, node: NodeId) -> &P {
        self.workers.node(node)
    }

    /// Mutable access to a node's protocol state (test/harness use).
    pub fn node_mut(&mut self, node: NodeId) -> &mut P {
        self.workers.node_mut(node)
    }

    /// Iterates over `(id, state)` for every node in increasing id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        (0..self.len() as u32)
            .map(NodeId::new)
            .map(|id| (id, self.node(id)))
    }

    /// Traffic counters accumulated so far. Lanes count locally and every
    /// run call ends by folding the counts into lane 0, so this is the
    /// total at any lane count.
    pub fn stats(&self) -> &TrafficStats {
        &self.home().stats
    }

    /// Lane 0: it holds the traffic totals and the fault state others
    /// read.
    fn home(&self) -> &SimLane<P> {
        self.workers.lanes().next().expect("at least one lane")
    }

    /// Resets traffic counters (e.g. to exclude warm-up traffic).
    pub fn reset_stats(&mut self) {
        self.workers.lanes_mut().for_each(|lane| lane.stats.reset());
    }

    /// Snapshot of the kernel execution counters (see [`KernelStats`]),
    /// summed over all lanes and the workers' queues: `queue_high_water`
    /// is the most pending over all lanes at a window boundary (lanes run
    /// a window unobserved, so no finer all-lane count exists);
    /// `wall_time` is the run loops' time.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = self.workers.kernel_stats();
        total.queue_high_water = total.queue_high_water.max(self.pending_high_water);
        total.wall_time = self.wall_time;
        total
    }

    /// Turns on deep kernel telemetry for an already-built simulation
    /// (equivalent to [`SimBuilder::telemetry`]).
    pub fn enable_telemetry(&mut self) {
        self.workers.lanes_mut().for_each(|lane| {
            lane.telemetry.get_or_insert_with(Box::default);
        });
    }

    /// Whether deep kernel telemetry is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.home().telemetry.is_some()
    }

    /// A named [`Snapshot`] of every kernel metric under stable `kernel_*`
    /// names: the always-on [`KernelStats`] counters, event-queue and
    /// payload-slab occupancy, `kernel_lanes` when there is more than one
    /// lane, and — when telemetry is enabled — the queue-depth histogram
    /// (sim-deterministic) plus per-class dispatch timings (wall-clock,
    /// marked non-deterministic), each merged over the lanes; then the
    /// network fates under the `net_*` names the testnet exports too.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let k = self.kernel_stats();
        let mut s = Snapshot::new();
        k.snapshot_into(&mut s);
        if self.lane_count() > 1 {
            s.record_counter("kernel_lanes", self.lane_count() as u64);
        }
        if self.telemetry_enabled() {
            let mut total = Box::<KernelTelemetry>::default();
            for telemetry in self
                .workers
                .lanes()
                .filter_map(|lane| lane.telemetry.as_deref())
            {
                total.merge(telemetry);
            }
            s.record_histogram("kernel_queue_depth", &total.queue_depth);
            for class in EventClass::ALL {
                s.record_wall_histogram(
                    class.dispatch_metric_name(),
                    &total.dispatch_time[class.index()],
                );
            }
        }
        k.fates.snapshot_into(&mut s);
        s
    }

    /// The recorder (with more than one lane: the merged event stream).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the recorder.
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Consumes the simulation, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Checks that `at` has not already passed.
    fn check_future(&self, at: SimTime) -> Result<(), PastScheduleError> {
        if at < self.now {
            Err(PastScheduleError { at, now: self.now })
        } else {
            Ok(())
        }
    }

    /// Schedules command `cmd` for `node` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; use [`Engine::try_schedule_command`]
    /// for a fallible variant.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: P::Command) {
        self.try_schedule_command(at, node, cmd)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Schedules command `cmd` for `node` at absolute time `at`, or
    /// returns a [`PastScheduleError`] if `at` has already passed.
    pub fn try_schedule_command(
        &mut self,
        at: SimTime,
        node: NodeId,
        cmd: P::Command,
    ) -> Result<(), PastScheduleError> {
        self.check_future(at)?;
        self.workers.schedule_command(at, node, cmd);
        Ok(())
    }

    /// Injects a command for `node` at the current time.
    pub fn command_now(&mut self, node: NodeId, cmd: P::Command) {
        self.schedule_command(self.now, node, cmd);
    }

    /// Schedules a crash of `node` at absolute time `at`. From that instant
    /// the node stops executing handlers and all traffic to it is dropped.
    ///
    /// ```
    /// use gocast_sim::{Ctx, FixedLatency, NodeId, Protocol, SimBuilder, SimTime, Timer};
    /// # use gocast_sim::{TrafficClass, Wire};
    /// use std::time::Duration;
    ///
    /// # struct Quiet;
    /// # #[derive(Debug)]
    /// # struct Never;
    /// # impl Wire for Never {
    /// #     fn wire_size(&self) -> u32 { 0 }
    /// #     fn class(&self) -> TrafficClass { TrafficClass::Data }
    /// # }
    /// # impl Protocol for Quiet {
    /// #     type Msg = Never;
    /// #     type Command = ();
    /// #     type Event = ();
    /// #     fn on_start(&mut self, _: &mut Ctx<'_, Self>) {}
    /// #     fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Never) {}
    /// #     fn on_timer(&mut self, _: &mut Ctx<'_, Self>, _: Timer) {}
    /// # }
    /// let mut sim = SimBuilder::new(FixedLatency::new(4, Duration::from_millis(5)))
    ///     .build(|_| Quiet);
    /// sim.fail_node_at(SimTime::from_secs(1), NodeId::new(3));
    /// sim.run_until(SimTime::from_secs(2));
    /// assert!(!sim.is_alive(NodeId::new(3)));
    /// assert_eq!(sim.alive_nodes().count(), 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn fail_node_at(&mut self, at: SimTime, node: NodeId) {
        self.check_future(at).unwrap_or_else(|e| panic!("{e}"));
        self.workers.fail_node_at(at, node);
    }

    /// Crashes `node` immediately.
    pub fn fail_node(&mut self, node: NodeId) {
        self.workers.fail_node(node);
    }

    /// Applies a network fault immediately, to every lane's replica of the
    /// fault state. Messages already in flight across a new cut or
    /// partition are dropped on arrival (counted `cut` or `partitioned` in
    /// [`KernelStats::fates`]); loss and jitter apply to every
    /// subsequent send between distinct nodes, drawn from dedicated chaos
    /// RNG streams (one per lane), so a run that never enables them is
    /// byte-identical to one on a kernel without fault injection.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultState::apply`] does: a node outside the
    /// population, a partition that does not label every node, or a loss
    /// probability outside `0.0..=1.0`.
    pub fn apply_fault(&mut self, fault: NetFault) {
        self.workers
            .lanes_mut()
            .for_each(|lane| lane.faults.apply(&fault));
    }

    /// Schedules a network fault at absolute time `at` (see
    /// [`Engine::apply_fault`]): a control event broadcast to every lane,
    /// counted once in [`KernelStats::control_events`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or where [`Engine::apply_fault`]
    /// would — at this call, not when the fault fires.
    pub fn schedule_fault(&mut self, at: SimTime, fault: NetFault) {
        self.check_future(at).unwrap_or_else(|e| panic!("{e}"));
        self.workers.schedule_fault(at, &fault);
    }

    /// The network's current fault state (every lane holds an identical
    /// replica; the [`FaultState::fates`] read here are lane 0's alone —
    /// the all-lane totals are [`KernelStats::fates`]).
    pub fn faults(&self) -> &FaultState {
        &self.home().faults
    }

    /// Calls `on_start` on every alive node, once (with more than one
    /// lane, also merges the resulting cross-lane traffic). Run methods
    /// call this implicitly. Every start-up event is at time zero, so
    /// lane order is the merged order at any thread count.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let net = M::model(&self.net);
        let placement = self.workers.placement();
        let mut workers: Vec<_> = self.workers.list.iter_mut().collect();
        for w in &mut workers {
            w.start(net, &mut self.recorder);
        }
        flush(&mut workers, placement);
        self.fold_stats();
    }

    /// Lanes count traffic locally; this folds the counts into lane 0,
    /// the one [`Engine::stats`] reads.
    fn fold_stats(&mut self) {
        let mut lanes = self.workers.lanes_mut();
        let home = lanes.next().expect("at least one lane");
        for lane in lanes {
            home.stats.absorb(&lane.stats);
            lane.stats.reset();
        }
    }

    /// The lookahead Δ in nanoseconds, with more than one lane.
    fn delta(&self) -> Option<u64> {
        let net = M::model(&self.net);
        (self.lane_count() > 1)
            .then(|| saturating_nanos(net.lookahead().expect("checked when built")))
    }

    /// The window loop on the caller's thread, for one worker: its events
    /// pop merged, so they go straight to the recorder. With one lane it
    /// is a single window covering the whole deadline.
    fn run_one_worker(&mut self, deadline: SimTime) {
        let delta = self.delta();
        let net = M::model(&self.net);
        let placement = self.workers.placement();
        let mut one = [&mut self.workers.list[0]];
        while let Some(end) = next_window(&one, deadline, delta, &mut self.pending_high_water) {
            one[0].run_window(end, net, &mut self.recorder);
            flush(&mut one, placement);
        }
    }

    /// Ends a run call at `deadline`: lane 0 takes the traffic totals, and
    /// the queues and buffers, at rest, give back what the start-up storm,
    /// or any burst since, made them reserve beyond what is pending now.
    fn finish_run(&mut self, deadline: SimTime) {
        self.fold_stats();
        self.now = deadline;
        for w in &mut self.workers.list {
            w.queue.trim();
            w.events_out.events.shrink_to(WINDOW_BUFFER_KEEP);
            w.lanes
                .iter_mut()
                .for_each(|l| l.link.outbox.shrink_to(WINDOW_BUFFER_KEEP));
        }
        self.workers.merging.shrink_to(WINDOW_BUFFER_KEEP);
    }
}

impl<P: Protocol, R: Recorder<P::Event>> Engine<P, R, OneLane> {
    /// Processes all events scheduled at or before `deadline`, then advances
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let t0 = std::time::Instant::now();
        self.start();
        self.run_one_worker(deadline);
        self.finish_run(deadline);
        self.wall_time += t0.elapsed();
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Processes events until the queue is exhausted.
    ///
    /// Periodic protocols never go idle; prefer [`Engine::run_until`] for
    /// them.
    pub fn run_until_idle(&mut self) {
        let t0 = std::time::Instant::now();
        self.start();
        while self.step() {}
        self.finish_run(self.now);
        self.wall_time += t0.elapsed();
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    /// Stepping manually advances the event counters but not
    /// [`KernelStats::wall_time`].
    pub fn step(&mut self) -> bool {
        let stepped = self.workers.list[0].step(&*self.net, &mut self.recorder);
        self.now = stepped.unwrap_or(self.now);
        stepped.is_some()
    }
}

impl<P, R> Engine<P, R, Lanes>
where
    P: Protocol + Send,
    P::Msg: Send,
    P::Command: Send,
    P::Event: Send,
    R: Recorder<P::Event>,
{
    /// Processes all events scheduled at or before `deadline`, then
    /// advances the clock to `deadline`. Windows of length Δ execute
    /// worker-parallel across the configured threads; output is
    /// byte-identical at any thread count.
    pub fn run_until(&mut self, deadline: SimTime) {
        let t0 = std::time::Instant::now();
        self.start();
        if self.workers.list.len() == 1 {
            self.run_one_worker(deadline);
        } else {
            self.run_workers(deadline);
        }
        self.finish_run(deadline);
        self.wall_time += t0.elapsed();
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// The window loop on one thread per worker: each window a worker
    /// takes its chunk, runs it and hands it back, and the coordinator
    /// merges the recorder buffers and flushes the outboxes.
    fn run_workers(&mut self, deadline: SimTime) {
        let delta = self.delta();
        let (net, placement) = (&*self.net, self.workers.placement());
        let (recorder, high_water) = (&mut self.recorder, &mut self.pending_high_water);
        let WorkerSet { list, merging, .. } = &mut self.workers;
        let mut workers: Vec<&mut SimWorker<P>> = list.iter_mut().collect();
        std::thread::scope(|s| {
            // Per worker, a channel that hands it its chunk and the window
            // end, and one that hands the chunk back: a panicking worker
            // closes the second, and the coordinator's `recv` fails with it.
            let channels: Vec<_> = (0..workers.len())
                .map(|_| {
                    let (start, windows) = mpsc::sync_channel::<(&mut SimWorker<P>, SimTime)>(1);
                    // The same message type both ways: one channel type to
                    // compile, not two.
                    let (done, back) = mpsc::sync_channel(1);
                    s.spawn(move || {
                        for (w, end) in windows {
                            w.buffered(|w, out| w.run_window(end, net, out));
                            done.send((w, end))
                                .expect("the coordinator waits for every worker");
                        }
                    });
                    (start, back)
                })
                .collect();
            while let Some(end) = next_window(&workers, deadline, delta, high_water) {
                for ((start, _), w) in channels.iter().zip(workers.drain(..)) {
                    start.send((w, end)).expect("a worker thread panicked");
                }
                for (_, back) in &channels {
                    workers.push(back.recv().expect("a worker thread panicked").0);
                }
                merge_buffers(workers.iter_mut().map(|w| &mut **w), merging, recorder);
                flush(&mut workers, placement);
            }
            // Returning drops the senders, which ends every worker's loop.
        });
    }
}

fn saturating_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Configures and constructs a [`Sim`].
///
/// ```
/// use gocast_sim::{FixedLatency, SimBuilder};
/// use std::time::Duration;
///
/// let builder = SimBuilder::new(FixedLatency::new(8, Duration::from_millis(10)))
///     .seed(42)
///     .track_pair_counts();
/// # let _ = builder;
/// ```
pub struct SimBuilder {
    net: Box<dyn LatencyModel>,
    seed: u64,
    pair_counts: bool,
    telemetry: bool,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("nodes", &self.net.len())
            .field("seed", &self.seed)
            .field("pair_counts", &self.pair_counts)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl SimBuilder {
    /// Starts a builder over the given latency model. The model's node count
    /// determines the simulation's node count.
    pub fn new(net: impl LatencyModel + 'static) -> Self {
        SimBuilder {
            net: Box::new(net),
            seed: 0,
            pair_counts: false,
            telemetry: false,
        }
    }

    /// Sets the master seed. All per-node RNGs derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-endpoint-pair traffic counting (used for link stress).
    pub fn track_pair_counts(mut self) -> Self {
        self.pair_counts = true;
        self
    }

    /// Enables deep kernel telemetry (queue-depth histogram plus sampled
    /// per-class dispatch timing; see [`Engine::metrics_snapshot`]).
    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Builds the simulation, constructing one protocol instance per node
    /// with `make`, and recording events with `recorder`.
    pub fn build_with<P, R, F>(self, recorder: R, make: F) -> Sim<P, R>
    where
        P: Protocol,
        R: Recorder<P::Event>,
        F: FnMut(NodeId) -> P,
    {
        let mut sim = Engine::assemble(self.net, self.seed, 1, 1, recorder, make);
        if self.pair_counts {
            sim.workers
                .lanes_mut()
                .for_each(|l| l.stats.enable_pair_counts());
        }
        if self.telemetry {
            sim.enable_telemetry();
        }
        sim
    }

    /// Convenience: builds with a [`NullRecorder`].
    pub fn build<P, F>(self, make: F) -> Sim<P, NullRecorder>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        self.build_with(NullRecorder, make)
    }
}

/// Configures and constructs a [`ShardedSim`].
///
/// ```
/// use gocast_sim::{FixedLatency, ShardedSimBuilder};
/// use std::time::Duration;
///
/// let builder = ShardedSimBuilder::new(FixedLatency::new(256, Duration::from_millis(10)))
///     .seed(42)
///     .lanes(16)
///     .threads(2);
/// # let _ = builder;
/// ```
pub struct ShardedSimBuilder {
    net: Box<dyn LatencyModel + Send + Sync>,
    seed: u64,
    lanes: usize,
    threads: usize,
}

impl std::fmt::Debug for ShardedSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimBuilder")
            .field("nodes", &self.net.len())
            .field("seed", &self.seed)
            .field("lanes", &self.lanes)
            .field("threads", &self.threads)
            .finish()
    }
}

/// Default lane count: enough lanes that any plausible `--sim-shards`
/// divides the population usefully, few enough that per-window barrier
/// bookkeeping stays negligible.
pub const DEFAULT_LANES: usize = 64;

impl ShardedSimBuilder {
    /// Starts a builder over `net`, whose node count determines the
    /// simulation's node count. With more than one lane the model must
    /// promise a positive [`LatencyModel::lookahead`];
    /// [`ShardedSimBuilder::build_with`] panics otherwise.
    pub fn new(net: impl LatencyModel + Send + Sync + 'static) -> Self {
        ShardedSimBuilder {
            net: Box::new(net),
            seed: 0,
            lanes: DEFAULT_LANES,
            threads: 1,
        }
    }

    /// Sets the master seed. Per-node RNG streams derive from it exactly
    /// as on [`Sim`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the lane count — a **semantic** parameter (see [`Engine`]).
    /// Clamped to at least 1 and at most the node count.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Sets the worker-thread count — pure execution policy; output is
    /// byte-identical at any value. Clamped to at least 1 and at most the
    /// lane count. The engine builds one event queue per worker, each over
    /// a contiguous chunk of `lanes / threads` lanes, rounded up (so fewer
    /// workers where that leaves the last chunks empty).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds the sharded simulation, constructing one protocol instance
    /// per node with `make` (called in global id order) and recording
    /// merged events with `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if there is more than one lane and the latency model does
    /// not promise a positive lookahead.
    pub fn build_with<P, R, F>(self, recorder: R, make: F) -> ShardedSim<P, R>
    where
        P: Protocol,
        R: Recorder<P::Event>,
        F: FnMut(NodeId) -> P,
    {
        Engine::assemble(
            self.net,
            self.seed,
            self.lanes,
            self.threads,
            recorder,
            make,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use crate::protocol::{Ctx, Timer, Wire};
    use crate::recorder::VecRecorder;
    use crate::stats::TrafficClass;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A toy protocol: floods a token around a ring, one hop per message.
    struct Ring {
        id: NodeId,
        n: u32,
        hops_seen: u32,
    }

    #[derive(Debug, Clone)]
    struct Hop(u32);

    impl Wire for Hop {
        fn wire_size(&self) -> u32 {
            8
        }
        fn class(&self) -> TrafficClass {
            TrafficClass::Data
        }
    }

    impl Protocol for Ring {
        type Msg = Hop;
        type Command = ();
        type Event = (SimTime, u32);

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
            if self.id == NodeId::new(0) {
                let next = NodeId::new((self.id.as_u32() + 1) % self.n);
                ctx.send(next, Hop(0));
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _from: NodeId, msg: Hop) {
            self.hops_seen += 1;
            ctx.emit((ctx.now(), msg.0));
            if msg.0 < 3 * self.n {
                let next = NodeId::new((self.id.as_u32() + 1) % self.n);
                ctx.send(next, Hop(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _timer: Timer) {}
    }

    type Rec = VecRecorder<(SimTime, u32)>;

    /// Ring size of the table-driven checks: enough nodes for 64 lanes.
    const N: u32 = 96;
    /// Hops a token makes before it retires: `3n + 1`, 10 ms each.
    const HOPS: u32 = 3 * N + 1;
    /// Past the last hop of an undisturbed run.
    const DONE: SimTime = SimTime::from_secs(10);

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn net(n: u32) -> FixedLatency {
        FixedLatency::new(n as usize, Duration::from_millis(10))
    }

    fn member(n: u32) -> impl FnMut(NodeId) -> Ring {
        move |id| Ring {
            id,
            n,
            hops_seen: 0,
        }
    }

    /// The one merge of several workers' window buffers, the engine's
    /// and a wire fabric's: time-sorted, equal times in worker order, each
    /// worker's events in emission order, and every buffer drained.
    #[test]
    fn merged_trace_is_time_sorted_with_stable_ties() {
        let placement = Placement::new(4, 2, 2);
        let link = |i| SimLink::new(i, placement);
        let mut set = WorkerSet::new(placement, 1, link, |id, _| member(4)(id));
        let (t, n) = (SimTime::from_nanos, NodeId::new);
        // Two workers' windows with an equal-time collision at 5; the
        // second worker's two events at 5 keep their emission order.
        let buffers = [
            vec![(t(1), n(0), 0), (t(5), n(2), 1), (t(9), n(0), 2)],
            vec![(t(2), n(1), 3), (t(5), n(3), 4), (t(5), n(1), 5)],
        ];
        for (w, events) in set.workers_mut().iter_mut().zip(buffers) {
            for (at, node, tag) in events {
                w.events_out.record(at, node, (at, tag));
            }
        }
        let mut rec = Rec::new();
        set.merge_into(&mut rec);
        let order: Vec<(u64, u32)> = rec
            .events
            .iter()
            .map(|(at, node, _)| (at.as_nanos(), node.as_u32()))
            .collect();
        assert_eq!(order, [(1, 0), (2, 1), (5, 2), (5, 3), (5, 1), (9, 0)]);
        assert!(set.workers().iter().all(|w| w.events_out.events.is_empty()));
        // The next window's merge appends after what is recorded.
        set.workers_mut()[1]
            .events_out
            .record(t(11), n(1), (t(11), 6));
        set.merge_into(&mut rec);
        assert_eq!(rec.events.len(), 7);
        assert_eq!(rec.events[6].0, t(11));
    }

    fn serial(n: u32, seed: u64) -> Sim<Ring, Rec> {
        SimBuilder::new(net(n))
            .seed(seed)
            .build_with(Rec::new(), member(n))
    }

    fn sharded(n: u32, seed: u64, lanes: usize, threads: usize) -> ShardedSim<Ring, Rec> {
        ShardedSimBuilder::new(net(n))
            .seed(seed)
            .lanes(lanes)
            .threads(threads)
            .build_with(Rec::new(), member(n))
    }

    /// Runs `$body` with `$sim` bound to a fresh `N`-node ring on every
    /// row of the table: `Sim`, then `ShardedSim` at 1, 4 and 64 lanes on
    /// one thread and at 4 lanes on two. `$seed` is the master seed.
    macro_rules! on_every_engine {
        ($seed:expr, |$sim:ident| $body:block) => {{
            {
                #[allow(unused_mut)]
                let mut $sim = serial(N, $seed);
                $body
            }
            for (lanes, threads) in [(1, 1), (4, 1), (64, 1), (4, 2)] {
                #[allow(unused_mut)]
                let mut $sim = sharded(N, $seed, lanes, threads);
                assert_eq!($sim.lane_count(), lanes);
                $body
            }
        }};
    }

    fn hops<M: Mode>(sim: &Engine<Ring, Rec, M>) -> u32 {
        sim.iter_nodes().map(|(_, p)| p.hops_seen).sum()
    }

    /// A partition with nodes `a..b` on side 1, everyone else on side 0.
    fn split(a: u32, b: u32) -> NetFault {
        NetFault::partition((0..N).map(|i| u32::from((a..b).contains(&i))).collect())
    }

    fn assert_panics(expected: &str, f: impl FnOnce()) {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains(expected), "panicked with {msg:?}");
    }

    #[test]
    fn token_circulates_and_traffic_is_counted() {
        on_every_engine!(1, |sim| {
            sim.run_until(DONE);
            assert_eq!(sim.now(), DONE);
            assert_eq!(hops(&sim), HOPS);
            assert_eq!(sim.recorder().events.len(), HOPS as usize);
            assert_eq!(sim.kernel_stats().deliveries, HOPS as u64);
            let data = sim.stats().class(TrafficClass::Data);
            assert_eq!((data.messages, data.bytes), (HOPS as u64, HOPS as u64 * 8));
        });
    }

    #[test]
    fn run_until_idle_stops_the_clock_at_the_last_event() {
        let mut sim = serial(4, 1);
        sim.run_until_idle();
        // 3n + 1 = 13 hops, each 10ms.
        assert_eq!(sim.now(), ms(130));
        assert_eq!(hops(&sim), 13);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        on_every_engine!(1, |sim| {
            sim.run_until(ms(35));
            assert_eq!(sim.now(), ms(35));
            // Hops at 10, 20, 30 ms have fired.
            assert_eq!(hops(&sim), 3);
            sim.run_until(DONE);
            assert_eq!(hops(&sim), HOPS);
        });
    }

    #[test]
    fn failed_node_drops_traffic() {
        on_every_engine!(1, |sim| {
            sim.fail_node_at(ms(15), NodeId::new(2));
            sim.run_until(DONE);
            // Hop 0 reaches n1 at 10ms, hop 1 is in flight to n2, which dies at
            // 15ms; the message is dropped at 20ms and the ring stops.
            assert_eq!(hops(&sim), 1);
            assert_eq!(sim.kernel_stats().fates.dead, 1);
            assert_eq!(sim.kernel_stats().fates.total(), 1);
            assert!(!sim.is_alive(NodeId::new(2)));
            assert_eq!(sim.alive_nodes().count(), N as usize - 1);
        });
    }

    #[test]
    fn same_seed_same_trace() {
        on_every_engine!(7, |a| {
            a.run_until(DONE);
            let first = a.recorder().events.clone();
            on_every_engine!(7, |b| {
                b.run_until(DONE);
                // The ring has one event in flight at a time, so the trace
                // does not even depend on the lane count.
                assert_eq!(first, b.recorder().events);
            });
        });
    }

    #[test]
    fn output_identical_across_thread_counts() {
        for lanes in [1, 4, 64] {
            let run = |threads| {
                let mut sim = sharded(N, 1, lanes, threads);
                sim.fail_node_at(ms(1500), NodeId::new(7));
                sim.run_until(DONE);
                // A queue per thread: how the pending events are stored
                // depends on the thread count, which events they are not.
                let k = KernelStats {
                    wall_time: Duration::ZERO,
                    slab_slots: 0,
                    queue_mem_bytes: 0,
                    ..sim.kernel_stats()
                };
                (sim.recorder().events.clone(), k, sim.stats().total())
            };
            let serial = run(1);
            assert_eq!(serial, run(2));
            assert_eq!(serial, run(4));
        }
    }

    #[test]
    fn node_state_remains_accessible_after_failure() {
        on_every_engine!(1, |sim| {
            sim.run_until(ms(25));
            sim.fail_node(NodeId::new(1));
            assert!(!sim.is_alive(NodeId::new(1)));
            assert!(sim.node(NodeId::new(1)).hops_seen > 0);
            sim.node_mut(NodeId::new(1)).hops_seen = 0;
            assert_eq!(hops(&sim), 1);
        });
    }

    #[test]
    fn failed_link_drops_traffic_both_ways_until_healed() {
        on_every_engine!(1, |sim| {
            // Cut 1 -> 2 from the start; the token dies on that hop.
            sim.apply_fault(NetFault::CutLink(NodeId::new(1), NodeId::new(2)));
            assert!(
                sim.faults().is_cut(NodeId::new(2), NodeId::new(1)),
                "undirected"
            );
            sim.run_until(ms(100));
            assert_eq!(hops(&sim), 1, "only the first hop (0 -> 1) delivers");
            assert_eq!(sim.kernel_stats().fates.cut, 1);
            // Healing restores nothing retroactively (the message was lost),
            // but future traffic flows.
            sim.apply_fault(NetFault::HealLink(NodeId::new(1), NodeId::new(2)));
            assert!(!sim.faults().is_cut(NodeId::new(1), NodeId::new(2)));
        });
    }

    #[test]
    fn scheduled_link_failure_fires_at_time() {
        on_every_engine!(1, |sim| {
            // Cut 2 -> 3 at 25 ms: hops at 10 (0->1), 20 (1->2) deliver; the
            // 2->3 delivery at 30 ms is dropped.
            sim.schedule_fault(ms(25), NetFault::CutLink(NodeId::new(2), NodeId::new(3)));
            sim.run_until(DONE);
            assert_eq!(hops(&sim), 2);
            assert!(sim.faults().is_cut(NodeId::new(2), NodeId::new(3)));
            // Heal scheduling works too.
            sim.schedule_fault(
                sim.now(),
                NetFault::HealLink(NodeId::new(2), NodeId::new(3)),
            );
            sim.run_for(Duration::from_millis(1));
            assert!(!sim.faults().is_cut(NodeId::new(2), NodeId::new(3)));
            // One cut and one heal, however many lanes replicate them.
            assert_eq!(sim.kernel_stats().control_events, 2);
        });
    }

    #[test]
    fn kernel_stats_count_events_and_throughput() {
        on_every_engine!(1, |sim| {
            assert_eq!(sim.kernel_stats(), KernelStats::default());
            sim.fail_node_at(ms(15), NodeId::new(2));
            sim.run_until(DONE);
            let k = sim.kernel_stats();
            // Hop 0 delivers to n1 at 10ms; hop 1 drops at the dead n2; the
            // Fail control event fires in between.
            assert_eq!(k.deliveries, 1);
            assert_eq!(k.fates.dead, 1);
            assert_eq!(k.control_events, 1);
            assert_eq!(k.events_processed, 3);
            assert_eq!(k.deliveries + k.fates.total(), 2);
            assert_eq!(k.events_scheduled, 3);
            assert_eq!(k.queue_len, 0);
            assert!(k.queue_high_water >= 1);
            assert!(k.wall_time > Duration::ZERO);
            assert!(k.events_per_sec() > 0.0);
            // Counters are cumulative across runs.
            sim.command_now(NodeId::new(0), ());
            sim.run_for(Duration::from_millis(1));
            let k2 = sim.kernel_stats();
            assert_eq!(k2.commands, 1);
            assert!(k2.events_processed > k.events_processed);
            assert!(k2.wall_time >= k.wall_time);
        });
    }

    #[test]
    fn queue_high_water_counts_every_lane() {
        on_every_engine!(1, |sim| {
            for i in 0..N {
                sim.schedule_command(DONE, NodeId::new(i), ());
            }
            sim.run_until(ms(5));
            // A command per node and the token in flight; no single lane
            // of 64 holds more than two of the commands.
            let k = sim.kernel_stats();
            assert_eq!(k.queue_len, N as usize + 1);
            assert!(k.queue_high_water >= k.queue_len);
        });
    }

    #[test]
    fn manual_stepping_counts_events_without_wall_time() {
        let mut sim = serial(4, 1);
        sim.start();
        while sim.step() {}
        let k = sim.kernel_stats();
        assert_eq!(k.deliveries, 13);
        assert_eq!(sim.now(), ms(130));
        assert_eq!(k.wall_time, Duration::ZERO);
        assert_eq!(k.events_per_sec(), 0.0);
    }

    #[test]
    fn scheduling_in_the_past_panics() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        on_every_engine!(1, |sim| {
            sim.run_until(ms(50));
            assert_panics("in the past", || sim.schedule_command(ms(10), a, ()));
            assert_panics("in the past", || sim.fail_node_at(ms(10), a));
            for fault in [
                NetFault::CutLink(a, b),
                NetFault::HealLink(a, b),
                NetFault::SetLoss(0.5),
                NetFault::SetJitter(Duration::from_millis(1)),
                split(0, 2),
                NetFault::HealPartition,
            ] {
                let text = PastScheduleError {
                    at: ms(10),
                    now: ms(50),
                }
                .to_string();
                assert_panics(&text, || sim.schedule_fault(ms(10), fault));
            }
        });
    }

    #[test]
    fn try_scheduling_reports_past_timestamps() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        on_every_engine!(1, |sim| {
            sim.run_until(ms(50));
            let err = sim.try_schedule_command(ms(10), a, ()).unwrap_err();
            assert_eq!(err.at, ms(10));
            assert_eq!(err.now, ms(50));
            assert!(err.to_string().contains("in the past"));
            // Present and future timestamps are fine.
            sim.try_schedule_command(ms(50), a, ()).unwrap();
            sim.fail_node_at(ms(50), NodeId::new(2));
            sim.schedule_fault(ms(60), NetFault::CutLink(a, b));
            sim.run_until(ms(70));
            assert_eq!(sim.kernel_stats().commands, 1);
            assert!(!sim.is_alive(NodeId::new(2)));
            assert!(sim.faults().is_cut(a, b));
        });
    }

    #[test]
    fn total_loss_kills_all_traffic_and_is_counted() {
        on_every_engine!(1, |sim| {
            sim.apply_fault(NetFault::SetLoss(1.0));
            assert_eq!(sim.faults().loss(), 1.0);
            sim.run_until(DONE);
            assert_eq!(hops(&sim), 0, "every send is lost");
            let k = sim.kernel_stats();
            assert_eq!(k.fates.lost, 1);
            assert_eq!(k.deliveries, 0);
            assert_eq!(k.fates.total(), 1);
        });
    }

    #[test]
    fn partial_loss_drops_a_plausible_fraction() {
        // The ring re-sends until hop 3n, so a run sees many sends; with
        // 30% loss the token dies early on most seeds, so instead count
        // across many independent seeds.
        let mut lost = 0u64;
        let mut sent = 0u64;
        for seed in 0..200 {
            let mut sim = serial(3, seed);
            sim.apply_fault(NetFault::SetLoss(0.3));
            sim.run_until_idle();
            let k = sim.kernel_stats();
            lost += k.fates.lost;
            sent += k.deliveries + k.fates.total();
        }
        let rate = lost as f64 / sent as f64;
        assert!((0.2..0.4).contains(&rate), "observed loss rate {rate}");
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        on_every_engine!(9, |a| {
            a.apply_fault(NetFault::SetLoss(0.02));
            a.run_until(DONE);
            let lanes = a.lane_count();
            let first = (a.kernel_stats().fates, a.recorder().events.clone());
            assert!(!first.1.is_empty());
            on_every_engine!(9, |b| {
                if b.lane_count() == lanes {
                    b.apply_fault(NetFault::SetLoss(0.02));
                    b.run_until(DONE);
                    let again = (b.kernel_stats().fates, b.recorder().events.clone());
                    assert_eq!(first, again);
                }
            });
        });
    }

    #[test]
    fn jitter_delays_but_preserves_delivery() {
        on_every_engine!(1, |sim| {
            sim.apply_fault(NetFault::SetJitter(Duration::from_millis(5)));
            assert_eq!(sim.faults().jitter(), Duration::from_millis(5));
            sim.run_until(DONE);
            assert_eq!(hops(&sim), HOPS, "jitter loses nothing");
            // 10ms of base latency per hop plus per-hop jitter in [0, 5ms].
            let last = sim.recorder().events.last().expect("events").0;
            assert!(last > ms(HOPS as u64 * 10), "some hop drew jitter");
            assert!(last <= ms(HOPS as u64 * 15));
        });
    }

    #[test]
    fn chaos_disabled_makes_no_rng_draws() {
        // A run with loss/jitter never enabled must be byte-identical to
        // one where they were enabled and disabled again before start.
        on_every_engine!(3, |plain| {
            plain.run_until(DONE);
            let lanes = plain.lane_count();
            on_every_engine!(3, |toggled| {
                if toggled.lane_count() == lanes {
                    toggled.apply_fault(NetFault::SetLoss(0.5));
                    toggled.apply_fault(NetFault::SetJitter(Duration::from_millis(2)));
                    toggled.apply_fault(NetFault::SetLoss(0.0));
                    toggled.apply_fault(NetFault::SetJitter(Duration::ZERO));
                    toggled.run_until(DONE);
                    assert_eq!(plain.recorder().events, toggled.recorder().events);
                }
            });
        });
    }

    #[test]
    fn partition_blocks_cross_side_traffic_until_healed() {
        on_every_engine!(1, |sim| {
            // Nodes 0,1 vs the rest: the token dies on the 1 -> 2 hop.
            sim.apply_fault(split(0, 2));
            assert!(sim.faults().partition().is_some());
            sim.run_until(ms(100));
            assert_eq!(hops(&sim), 1);
            let k = sim.kernel_stats();
            assert_eq!(k.fates.partitioned, 1);
            assert_eq!(k.fates.total(), 1);
            sim.apply_fault(NetFault::HealPartition);
            assert!(sim.faults().partition().is_none());
        });
    }

    #[test]
    fn scheduled_partition_and_heal_fire_at_time() {
        on_every_engine!(1, |sim| {
            sim.schedule_fault(ms(25), split(2, 4));
            sim.schedule_fault(ms(45), NetFault::HealPartition);
            sim.run_until(ms(30));
            assert!(sim.faults().partition().is_some());
            sim.run_until(ms(50));
            assert!(sim.faults().partition().is_none());
            // Hops at 10 (0->1), 20 (1->2, pre-partition) and 30 (2->3,
            // same side) delivered; 3->4 at 40 was dropped across the cut.
            assert_eq!(hops(&sim), 3);
            let k = sim.kernel_stats();
            assert_eq!(k.fates.partitioned, 1);
            // One partition and one heal, however many lanes replicate them.
            assert_eq!(k.control_events, 2);
        });
    }

    #[test]
    fn bad_fault_arguments_panic() {
        on_every_engine!(1, |sim| {
            let short = || NetFault::partition(vec![0, 1]);
            let stranger = NetFault::CutLink(NodeId::new(0), NodeId::new(N));
            assert_panics("label every node", || sim.apply_fault(short()));
            assert_panics("label every node", || sim.schedule_fault(DONE, short()));
            assert_panics("not in 0..=1", || sim.apply_fault(NetFault::SetLoss(1.5)));
            assert_panics("not in 0..=1", || {
                sim.schedule_fault(DONE, NetFault::SetLoss(-0.1))
            });
            assert_panics("outside the", || sim.schedule_fault(DONE, stranger));
            // Rejected at the call: nothing was queued.
            assert_eq!(sim.kernel_stats().queue_len, 0);
        });
    }

    /// What a replica remembers, read through its public face.
    fn settings(state: &FaultState) -> impl PartialEq + std::fmt::Debug {
        let cut: Vec<(u32, u32)> = (0..N)
            .flat_map(|a| (a..N).map(move |b| (a, b)))
            .filter(|(a, b)| state.is_cut(NodeId::new(*a), NodeId::new(*b)))
            .collect();
        let sides = state.partition().map(<[u32]>::to_vec);
        (state.loss(), state.jitter(), cut, sides)
    }

    #[test]
    fn every_lane_replays_the_same_fault_sequence() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xFA17);
        let faults: Vec<(SimTime, NetFault)> = (0..40)
            .map(|i| {
                let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
                let fault = match rng.gen_range(0..6) {
                    0 => NetFault::CutLink(NodeId::new(a), NodeId::new(b)),
                    1 => NetFault::HealLink(NodeId::new(a), NodeId::new(b)),
                    2 => split(a.min(b), a.max(b)),
                    3 => NetFault::HealPartition,
                    4 => NetFault::SetLoss(rng.gen_range(0..=1000u32) as f64 / 1000.0),
                    _ => NetFault::SetJitter(Duration::from_micros(rng.gen_range(0..5_000))),
                };
                // Several faults share an instant: they apply in schedule order.
                (ms(10 * (i / 3)), fault)
            })
            .collect();
        let mut expected = FaultState::new(N as usize, 1, 0);
        faults.iter().for_each(|(_, f)| expected.apply(f));

        on_every_engine!(1, |sim| {
            for (at, fault) in &faults {
                sim.schedule_fault(*at, fault.clone());
            }
            sim.run_until(DONE);
            assert_eq!(sim.kernel_stats().control_events, faults.len() as u64);
            for lane in sim.workers.lanes() {
                assert_eq!(settings(&lane.faults), settings(&expected));
            }
        });
    }

    #[test]
    fn apply_fault_mid_run_equals_scheduling_it_now() {
        // With the token in flight, add loss and cut a link further round
        // the ring: the same run whether applied in place or scheduled at
        // `now`.
        let cut = || NetFault::CutLink(NodeId::new(40), NodeId::new(41));
        on_every_engine!(9, |applied| {
            applied.run_until(ms(25));
            applied.apply_fault(cut());
            applied.apply_fault(NetFault::SetLoss(0.02));
            applied.run_until(DONE);
            let lanes = applied.lane_count();
            on_every_engine!(9, |scheduled| {
                if scheduled.lane_count() == lanes {
                    scheduled.run_until(ms(25));
                    scheduled.schedule_fault(scheduled.now(), cut());
                    scheduled.schedule_fault(scheduled.now(), NetFault::SetLoss(0.02));
                    scheduled.run_until(DONE);
                    assert_eq!(applied.recorder().events, scheduled.recorder().events);
                    assert!((3..=40).contains(&hops(&applied)), "lost or cut off");
                    for (a, s) in applied.workers.lanes().zip(scheduled.workers.lanes()) {
                        assert_eq!(settings(&a.faults), settings(&s.faults));
                    }
                    // Only the scheduled ones are control events.
                    let (a, s) = (applied.kernel_stats(), scheduled.kernel_stats());
                    assert_eq!((a.control_events, s.control_events), (0, 2));
                    assert_eq!(a.fates, s.fates);
                }
            });
        });
    }

    #[test]
    fn lookahead_is_required_only_with_more_than_one_lane() {
        struct NoBound;
        impl LatencyModel for NoBound {
            fn one_way(&self, _: NodeId, _: NodeId) -> Duration {
                Duration::from_millis(10)
            }
            fn len(&self) -> usize {
                4
            }
        }
        assert_panics("positive lookahead", || {
            ShardedSimBuilder::new(NoBound)
                .lanes(4)
                .build_with(Rec::new(), member(4));
        });
        let mut one_lane = ShardedSimBuilder::new(NoBound)
            .lanes(1)
            .build_with(Rec::new(), member(4));
        one_lane.run_until(DONE);
        let mut sim = SimBuilder::new(NoBound).build_with(Rec::new(), member(4));
        sim.run_until(DONE);
        assert_eq!(hops(&one_lane), 13);
        assert_eq!(one_lane.recorder().events, sim.recorder().events);
    }

    #[test]
    fn metric_names_agree_across_entry_points_and_telemetry_merges_lanes() {
        let names = |s: &Snapshot| -> Vec<&'static str> {
            let mut names: Vec<_> = s.entries().iter().map(|e| e.name).collect();
            names.retain(|n| *n != "kernel_lanes");
            names
        };
        let mut sim = SimBuilder::new(net(N))
            .telemetry()
            .build_with(Rec::new(), member(N));
        let mut lanes = sharded(N, 0, 64, 1);
        lanes.enable_telemetry();
        assert!(lanes.telemetry_enabled());
        sim.run_until(DONE);
        lanes.run_until(DONE);
        let (a, b) = (sim.metrics_snapshot(), lanes.metrics_snapshot());
        assert_eq!(names(&a), names(&b));
        assert!(names(&a).contains(&"kernel_dispatch_ns_deliver"));
        assert!(a.entries().iter().all(|e| e.name != "kernel_lanes"));
        let depth = |s: &Snapshot| {
            let entry = s.entries().iter().find(|e| e.name == "kernel_queue_depth");
            match &entry.expect("queue-depth histogram present").value {
                gocast_metrics::MetricValue::Histogram(h) => h.count,
                other => panic!("unexpected value {other:?}"),
            }
        };
        assert_eq!(depth(&a), sim.kernel_stats().events_processed);
        assert_eq!(depth(&b), lanes.kernel_stats().events_processed);
    }
}
