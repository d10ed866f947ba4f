//! The discrete-event simulation engine: one kernel ([`Engine`]), two
//! entry points ([`Sim`], [`ShardedSim`]), built over the workers of
//! [`crate::worker`], one a thread, each with its own event queues. The
//! execution and determinism model is documented on [`Engine`].

use std::sync::mpsc;
use std::time::Duration;

use gocast_metrics::Snapshot;

use crate::fault::{FaultState, NetFates, NetFault};
use crate::id::NodeId;
use crate::latency::LatencyModel;
use crate::placement::Placement;
use crate::protocol::Protocol;
use crate::recorder::{NullRecorder, Recorder};
use crate::stats::TrafficStats;
use crate::time::SimTime;
use crate::worker::{merge_buffers, Event, KernelTelemetry, SimLink, SimWorker, WorkerSet};

/// Kernel-level execution counters, snapshot via [`Engine::kernel_stats`].
///
/// These measure the *kernel itself* — how many events it processed and
/// how fast — as opposed to [`TrafficStats`], which measures the
/// protocol's traffic. All counters are cumulative since construction.
///
/// Wall-clock time is accrued by the run loops ([`Engine::run_until`],
/// [`Engine::run_for`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Total events popped from the queue and executed.
    pub events_processed: u64,
    /// Message deliveries dispatched to a protocol handler.
    pub deliveries: u64,
    /// The messages the network did not deliver, by fate (summed over the
    /// workers' [`FaultState`] replicas, which count them).
    pub fates: NetFates,
    /// Timer firings dispatched.
    pub timers_fired: u64,
    /// Commands dispatched.
    pub commands: u64,
    /// Kernel control events executed (node failures, link up/down; a
    /// fault every worker applies counts once).
    pub control_events: u64,
    /// Total events ever scheduled (including still-pending ones; a fault
    /// every worker applies counts once).
    pub events_scheduled: u64,
    /// Events pending at snapshot time.
    pub queue_len: usize,
    /// Most events one worker's two queues (its timers, everything else)
    /// have held at once: with one worker, the whole run's most pending.
    /// One worker per thread, so this, `slab_slots` and `queue_mem_bytes`
    /// say how the events were stored, depend on the thread count, and are
    /// the only counters that do.
    pub queue_high_water: usize,
    /// Payload slots currently allocated in the event-queue slabs (occupied
    /// plus the vacant ones awaiting reuse): the deepest the queues have
    /// been since they last shrank, not since the run began — see
    /// [`EventQueue`](crate::EventQueue).
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
    /// per-worker aggregation. Monotonic counters and memory sizes add;
    /// the high-water mark takes the per-queue maximum; wall time takes
    /// the maximum because workers run concurrently.
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
    impl Sealed for super::Serial {}
    impl Sealed for super::Threaded {}
}

/// How an [`Engine`] is driven: on the caller's thread alone
/// ([`Serial`]) or across worker threads ([`Threaded`]). The mode decides
/// which `run_until` the engine has and whether its latency model must be
/// shareable across threads; everything else is common.
pub trait Mode: sealed::Sealed {
    /// The latency model as this mode holds it.
    type Net: ?Sized;
    #[doc(hidden)]
    fn model(net: &Self::Net) -> &(dyn LatencyModel + 'static);
}

/// The mode of [`Sim`]: one worker, run on the caller's thread.
#[derive(Debug, Clone, Copy)]
pub struct Serial;

/// The mode of [`ShardedSim`]: any number of workers, more than one run
/// in lookahead windows across threads.
#[derive(Debug, Clone, Copy)]
pub struct Threaded;

impl Mode for Serial {
    type Net = dyn LatencyModel;
    fn model(net: &Self::Net) -> &(dyn LatencyModel + 'static) {
        net
    }
}

impl Mode for Threaded {
    type Net = dyn LatencyModel + Send + Sync;
    fn model(net: &Self::Net) -> &(dyn LatencyModel + 'static) {
        net
    }
}

/// The engine on the caller's thread: the single-threaded discrete-event
/// loop, with no lookahead bound needed and events reaching the recorder
/// as they happen. Built by [`SimBuilder`].
pub type Sim<P, R = NullRecorder> = Engine<P, R, Serial>;

/// The engine at any worker count, more than one run in
/// conservative-lookahead windows across threads (see [`Engine`]). Built
/// by [`ShardedSimBuilder`]; at one thread it runs [`Sim`]'s loop.
pub type ShardedSim<P, R> = Engine<P, R, Threaded>;

/// Capacity (in entries) a window buffer keeps where a run call returns:
/// enough that small simulations stepped in short run calls do not
/// reallocate every call, nothing next to a start-up storm's worth.
const WINDOW_BUFFER_KEEP: usize = 64;

/// A deterministic discrete-event simulation of `n` protocol instances:
/// one kernel with two entry points, [`Sim`] and [`ShardedSim`]. Node
/// access, scheduling, fault injection, statistics and telemetry are the
/// same methods on both; only the run loop differs.
///
/// The engine owns the protocol instances, split over one or more
/// *workers* by a [`Placement`] (each worker with its own event queues —
/// one for its nodes' timers, one for everything else — per-node RNG
/// streams and schedule counts, counters and fault-state replica), the
/// latency model, and the event recorder. A worker pops its two queues as
/// one by `(time, tie)`, and an event's tie belongs to whoever scheduled
/// it: node `g` schedules as `(g + 1) << 40 | g's own schedule count`,
/// sends and timers alike, the harness (commands, crashes, faults) as its
/// own count. So events at equal timestamps fire in one order whichever
/// queue holds them.
///
/// - With **one worker** — [`Sim`], or [`ShardedSim`] at one thread —
///   the run loop pops the one worker to the `run_until` deadline: the
///   latency model needs no lookahead bound, and events reach the
///   recorder as they happen.
/// - With **more**, [`ShardedSim`] runs the classic conservative-lookahead
///   scheme, because at 10⁵–10⁶ nodes one event loop becomes the
///   wall-clock bottleneck long before memory does:
///
///   1. The latency model promises a positive lower bound Δ on cross-node
///      latency ([`LatencyModel::lookahead`]). A message sent at any time
///      `t` inside a window `[w, w + Δ)` arrives at `t + latency ≥ w + Δ`,
///      i.e. **never inside the window** at another worker.
///   2. Each worker therefore processes its events for one window with no
///      synchronization at all; sends to other workers buffer in its
///      outbox.
///   3. At the window barrier the coordinator schedules every outbox for
///      the destination workers, each message under the tie its sender
///      gave it, so it pops where it would have had one queue held every
///      node.
///
///   Each worker buffers its recorder events under the tie of the event
///   that emitted them, and the barrier merges the buffers by `(time,
///   tie, emission order)`: the order one worker would have emitted them
///   in. A `gocast-testnet` fabric merges its shards' buffers through the
///   same merge ([`WorkerSet::merge_into`]).
///
/// # Determinism contract
///
/// A run is a function of its seed, its inputs and nothing else: the
/// recorder stream, every [`KernelStats`] counter that says what ran and
/// the traffic totals are byte-identical on [`Sim`] and on [`ShardedSim`]
/// at any thread count ([`ShardedSimBuilder::threads`], the CLI's
/// `--sim-shards`). Only `wall_time` and the three storage fields —
/// `queue_high_water`, `slab_slots` and `queue_mem_bytes`, which say how
/// the pending events were spread over the queues — depend on the
/// layout. By construction:
///
/// - a node's state depends only on the events it receives, which pop in
///   `(time, tie)` order in whichever queue holds them;
/// - node `g` draws from `seed * GOLDEN ^ g` whichever worker owns it;
/// - a send's loss and jitter are one counter hash of the seed, the sender
///   and that send's count ([`FaultState::draw`]), so every worker's
///   replica decides it alike;
/// - `on_start` runs in global id order, and a fault every worker applies
///   counts once.
pub struct Engine<P: Protocol, R: Recorder<P::Event>, M: Mode> {
    now: SimTime,
    /// One a worker thread.
    workers: WorkerSet<P, SimLink<P>>,
    net: Box<M::Net>,
    recorder: R,
    wall_time: Duration,
    started: bool,
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

/// Schedules every worker's outbox for the destination workers, each
/// message under the tie its sender gave it.
fn flush<P: Protocol>(workers: &mut [&mut SimWorker<P>], placement: Placement) {
    for w in 0..workers.len() {
        // A worker never sends to itself through its outbox, so nothing
        // misses the buffer while it is out.
        let mut outbox = std::mem::take(&mut workers[w].link.outbox);
        for (at, tie, from, to, msg) in outbox.drain(..) {
            let ev = Event::Deliver { from, to, msg };
            workers[placement.owner(to)].schedule(at, tie, to.as_u32(), ev);
        }
        workers[w].link.outbox = outbox;
    }
}

/// The end of the next window, if an event is due by `deadline`: at most
/// Δ (`delta`, in nanoseconds) past the earliest pending event.
fn next_window<P: Protocol>(
    workers: &[&mut SimWorker<P>],
    deadline: SimTime,
    delta: u64,
) -> Option<SimTime> {
    let next = workers.iter().filter_map(|w| w.next_due()).min();
    let next = next.filter(|t| *t <= deadline)?;
    let end = next.as_nanos().saturating_add(delta - 1);
    Some(SimTime::from_nanos(end.min(deadline.as_nanos())))
}

impl<P: Protocol, R: Recorder<P::Event>, M: Mode> Engine<P, R, M> {
    /// Builds the engine: `make` is called once per node in global id
    /// order (so bootstrap-graph draws are the same at any thread count).
    fn assemble<F: FnMut(NodeId) -> P>(
        net: Box<M::Net>,
        seed: u64,
        threads: usize,
        recorder: R,
        mut make: F,
    ) -> Self {
        let model = M::model(&net);
        let placement = Placement::new(model.len(), threads);
        assert!(
            placement.workers() == 1 || model.lookahead().is_some_and(|d| d > Duration::ZERO),
            "more than one worker requires a latency model with positive lookahead"
        );
        let link = |index| SimLink {
            index,
            placement,
            outbox: Vec::new(),
        };
        Engine {
            now: SimTime::ZERO,
            workers: WorkerSet::new(placement, seed, link, |id, _| make(id)),
            net,
            recorder,
            wall_time: Duration::ZERO,
            started: false,
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

    /// Current simulated time (the frontier every worker has reached).
    pub fn now(&self) -> SimTime {
        self.now
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

    /// Traffic counters accumulated so far. Workers count locally and
    /// every run call ends by folding the counts into worker 0, so this is
    /// the total at any thread count.
    pub fn stats(&self) -> &TrafficStats {
        &self.home().stats
    }

    /// Worker 0: it holds the traffic totals and the fault state others
    /// read.
    fn home(&self) -> &SimWorker<P> {
        &self.workers.workers()[0]
    }

    /// Resets traffic counters (e.g. to exclude warm-up traffic).
    pub fn reset_stats(&mut self) {
        self.workers.list.iter_mut().for_each(|w| w.stats.reset());
    }

    /// Snapshot of the kernel execution counters (see [`KernelStats`]),
    /// summed over the workers; `wall_time` is the run loops' time.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = self.workers.kernel_stats();
        total.wall_time = self.wall_time;
        total
    }

    /// Turns on deep kernel telemetry (queue-depth histogram plus sampled
    /// per-class dispatch timing; see [`Engine::metrics_snapshot`]).
    pub fn enable_telemetry(&mut self) {
        self.workers.list.iter_mut().for_each(|w| {
            w.telemetry.get_or_insert_with(Box::default);
        });
    }

    /// Whether deep kernel telemetry is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.home().telemetry.is_some()
    }

    /// A named [`Snapshot`] of every kernel metric under stable `kernel_*`
    /// names: the always-on [`KernelStats`] counters, event-queue and
    /// payload-slab occupancy, and — when telemetry is enabled — the
    /// queue-depth histogram (sim-deterministic) plus per-class dispatch
    /// timings (wall-clock, marked non-deterministic), each merged over
    /// the workers; then the network fates under the `net_*` names the
    /// testnet exports too.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let k = self.kernel_stats();
        let mut s = Snapshot::new();
        k.snapshot_into(&mut s);
        if self.telemetry_enabled() {
            let mut total = Box::<KernelTelemetry>::default();
            for telemetry in self
                .workers
                .workers()
                .iter()
                .filter_map(|w| w.telemetry.as_deref())
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

    /// The recorder (with more than one worker: the merged event stream).
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

    /// Applies a network fault immediately, to every worker's replica of
    /// the fault state. Messages already in flight across a new cut or
    /// partition are dropped on arrival (counted `cut` or `partitioned` in
    /// [`KernelStats::fates`]); loss and jitter apply to every subsequent
    /// send between distinct nodes, each decided by a counter hash of the
    /// seed, the sender and its send count, so a run that never enables
    /// them is byte-identical to one on a kernel without fault injection.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultState::apply`] does: a node outside the
    /// population, a partition that does not label every node, or a loss
    /// probability outside `0.0..=1.0`.
    pub fn apply_fault(&mut self, fault: NetFault) {
        self.workers
            .list
            .iter_mut()
            .for_each(|w| w.faults.apply(&fault));
    }

    /// Schedules a network fault at absolute time `at` (see
    /// [`Engine::apply_fault`]): a control event every worker applies,
    /// counted once in [`KernelStats`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or where [`Engine::apply_fault`]
    /// would — at this call, not when the fault fires.
    pub fn schedule_fault(&mut self, at: SimTime, fault: NetFault) {
        self.check_future(at).unwrap_or_else(|e| panic!("{e}"));
        self.workers.schedule_fault(at, &fault);
    }

    /// The network's current fault state (every worker holds an identical
    /// replica; the [`FaultState::fates`] read here are worker 0's alone —
    /// the all-worker totals are [`KernelStats::fates`]).
    pub fn faults(&self) -> &FaultState {
        &self.home().faults
    }

    /// Calls `on_start` on every alive node, once, in global id order
    /// (with more than one worker, also schedules the resulting
    /// cross-worker traffic). Run methods call this implicitly.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let net = M::model(&self.net);
        let placement = self.workers.placement();
        self.workers.start(net, &mut self.recorder);
        flush(
            &mut self.workers.list.iter_mut().collect::<Vec<_>>(),
            placement,
        );
        self.fold_stats();
    }

    /// Workers count traffic locally; this folds the counts into worker
    /// 0, the one [`Engine::stats`] reads.
    fn fold_stats(&mut self) {
        let (home, rest) = self
            .workers
            .list
            .split_first_mut()
            .expect("at least one worker");
        for w in rest {
            home.stats.absorb(&w.stats);
            w.stats.reset();
        }
    }

    /// Runs the one worker's events to `deadline` on the caller's thread,
    /// straight into the recorder: no windows, no barrier.
    fn run_one_worker(&mut self, deadline: SimTime) {
        let net = M::model(&self.net);
        self.workers.list[0].run_window(deadline, net, &mut self.recorder);
    }

    /// Ends a run call at `deadline`: worker 0 takes the traffic totals,
    /// and the queues and buffers, at rest, give back what the start-up
    /// storm, or any burst since, made them reserve beyond what is pending
    /// now.
    fn finish_run(&mut self, deadline: SimTime) {
        self.fold_stats();
        self.now = deadline;
        for w in &mut self.workers.list {
            w.trim();
            w.events_out.shrink_to(WINDOW_BUFFER_KEEP);
            w.link.outbox.shrink_to(WINDOW_BUFFER_KEEP);
        }
        self.workers.merging.shrink_to(WINDOW_BUFFER_KEEP);
    }
}

impl<P: Protocol, R: Recorder<P::Event>> Engine<P, R, Serial> {
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
}

impl<P, R> Engine<P, R, Threaded>
where
    P: Protocol + Send,
    P::Msg: Send,
    P::Command: Send,
    P::Event: Send,
    R: Recorder<P::Event>,
{
    /// Processes all events scheduled at or before `deadline`, then
    /// advances the clock to `deadline`. With more than one worker,
    /// windows of length Δ execute worker-parallel across the configured
    /// threads; output is byte-identical at any thread count.
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
    /// runs on its thread and hands itself back, and the coordinator
    /// merges the recorder buffers and flushes the outboxes.
    fn run_workers(&mut self, deadline: SimTime) {
        let lookahead = self.net.lookahead().expect("checked when built");
        let (net, placement) = (&*self.net, self.workers.placement());
        let delta = saturating_nanos(lookahead);
        let recorder = &mut self.recorder;
        let WorkerSet { list, merging, .. } = &mut self.workers;
        let mut workers: Vec<&mut SimWorker<P>> = list.iter_mut().collect();
        std::thread::scope(|s| {
            // Per worker, a channel that hands it itself and the window
            // end, and one that hands it back: a panicking worker closes
            // the second, and the coordinator's `recv` fails with it.
            let channels: Vec<_> = (0..workers.len())
                .map(|_| {
                    let (start, windows) = mpsc::sync_channel::<(&mut SimWorker<P>, SimTime)>(1);
                    // The same message type both ways: one channel type to
                    // compile, not two.
                    let (done, back) = mpsc::sync_channel(1);
                    s.spawn(move || {
                        for (w, end) in windows {
                            w.run_window_buffered(end, net);
                            done.send((w, end))
                                .expect("the coordinator waits for every worker");
                        }
                    });
                    (start, back)
                })
                .collect();
            while let Some(end) = next_window(&workers, deadline, delta) {
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
/// let builder = SimBuilder::new(FixedLatency::new(8, Duration::from_millis(10))).seed(42);
/// # let _ = builder;
/// ```
pub struct SimBuilder {
    net: Box<dyn LatencyModel>,
    seed: u64,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("nodes", &self.net.len())
            .field("seed", &self.seed)
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
        }
    }

    /// Sets the master seed. All per-node RNGs derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
        Engine::assemble(self.net, self.seed, 1, recorder, make)
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
///     .threads(2)
///     .track_pair_counts();
/// # let _ = builder;
/// ```
pub struct ShardedSimBuilder {
    net: Box<dyn LatencyModel + Send + Sync>,
    seed: u64,
    threads: usize,
    pair_counts: bool,
}

impl std::fmt::Debug for ShardedSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimBuilder")
            .field("nodes", &self.net.len())
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("pair_counts", &self.pair_counts)
            .finish()
    }
}

impl ShardedSimBuilder {
    /// Starts a builder over `net`, whose node count determines the
    /// simulation's node count. With more than one thread the model must
    /// promise a positive [`LatencyModel::lookahead`];
    /// [`ShardedSimBuilder::build_with`] panics otherwise.
    pub fn new(net: impl LatencyModel + Send + Sync + 'static) -> Self {
        ShardedSimBuilder {
            net: Box::new(net),
            seed: 0,
            threads: 1,
            pair_counts: false,
        }
    }

    /// Sets the master seed. Per-node RNG streams derive from it exactly
    /// as on [`Sim`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count, the engine's only layout setting:
    /// output is byte-identical at any value (see [`Engine`]). Clamped to
    /// at least 1 and at most the node count; the engine builds one
    /// worker, with its own event queues, a thread, and node `g` lives on
    /// worker `g % threads` ([`Placement`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables per-endpoint-pair traffic counting (used for link stress)
    /// in every worker; [`Engine::stats`] merges the workers' pairs.
    pub fn track_pair_counts(mut self) -> Self {
        self.pair_counts = true;
        self
    }

    /// Builds the sharded simulation, constructing one protocol instance
    /// per node with `make` (called in global id order) and recording
    /// merged events with `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if there is more than one thread and the latency model does
    /// not promise a positive lookahead.
    pub fn build_with<P, R, F>(self, recorder: R, make: F) -> ShardedSim<P, R>
    where
        P: Protocol,
        R: Recorder<P::Event>,
        F: FnMut(NodeId) -> P,
    {
        let mut sim = Engine::assemble(self.net, self.seed, self.threads, recorder, make);
        if self.pair_counts {
            for w in &mut sim.workers.list {
                w.stats.enable_pair_counts();
            }
        }
        sim
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

    /// Ring size of the table-driven checks.
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
    /// and a wire fabric's: time-sorted, equal times in tie order, each
    /// event's emissions in emission order, and every buffer drained.
    #[test]
    fn merged_trace_is_time_sorted_with_stable_ties() {
        let placement = Placement::new(4, 2);
        let link = |index| SimLink {
            index,
            placement,
            outbox: Vec::new(),
        };
        let mut set = WorkerSet::new(placement, 1, link, |id, _| member(4)(id));
        let (t, n) = (SimTime::from_nanos, NodeId::new);
        // Two workers' windows with equal-time collisions at 5: the tie
        // orders events across workers, and the second worker's two
        // emissions under one tie keep their order.
        let buffers = [
            vec![(t(1), 0, n(0), 0), (t(5), 7, n(2), 1), (t(9), 0, n(0), 2)],
            vec![(t(2), 0, n(1), 3), (t(5), 3, n(3), 4), (t(5), 3, n(1), 5)],
        ];
        for (w, events) in set.workers_mut().iter_mut().zip(buffers) {
            for (at, tie, node, tag) in events {
                w.events_out.push((at, tie, node, (at, tag)));
            }
        }
        let mut rec = Rec::new();
        set.merge_into(&mut rec);
        let order: Vec<(u64, u32)> = rec
            .events
            .iter()
            .map(|(at, node, _)| (at.as_nanos(), node.as_u32()))
            .collect();
        assert_eq!(order, [(1, 0), (2, 1), (5, 3), (5, 1), (5, 2), (9, 0)]);
        assert!(set.workers().iter().all(|w| w.events_out.is_empty()));
        // The next window's merge appends after what is recorded.
        let next = (t(11), 0, n(1), (t(11), 6));
        set.workers_mut()[1].events_out.push(next);
        set.merge_into(&mut rec);
        assert_eq!(rec.events.len(), 7);
        assert_eq!(rec.events[6].0, t(11));
    }

    fn serial(n: u32, seed: u64) -> Sim<Ring, Rec> {
        SimBuilder::new(net(n))
            .seed(seed)
            .build_with(Rec::new(), member(n))
    }

    fn sharded(n: u32, seed: u64, threads: usize) -> ShardedSim<Ring, Rec> {
        ShardedSimBuilder::new(net(n))
            .seed(seed)
            .threads(threads)
            .build_with(Rec::new(), member(n))
    }

    /// Runs `$body` with `$sim` bound to a fresh `N`-node ring on every
    /// row of the table: `Sim`, then `ShardedSim` at 1, 2 and 4 threads.
    /// `$seed` is the master seed.
    macro_rules! on_every_engine {
        ($seed:expr, |$sim:ident| $body:block) => {{
            {
                #[allow(unused_mut)]
                let mut $sim = serial(N, $seed);
                $body
            }
            for threads in [1, 2, 4] {
                #[allow(unused_mut)]
                let mut $sim = sharded(N, $seed, threads);
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

    /// A fresh engine's first run call starts every node, and runs what
    /// is due at its deadline; only run calls accrue wall time.
    #[test]
    fn run_until_idle_stops_the_clock_at_the_last_event() {
        let mut sim = serial(4, 1);
        // 3n + 1 = 13 hops, each 10ms: the last is due at the deadline, and
        // `run_until` starts the nodes itself.
        sim.run_until(ms(130));
        assert_eq!(sim.now(), ms(130));
        assert_eq!(hops(&sim), 13);
        let k = sim.kernel_stats();
        assert_eq!((k.deliveries, k.queue_len), (13, 0));
        assert!(k.wall_time > Duration::ZERO);
    }

    #[test]
    fn manual_stepping_counts_events_without_wall_time() {
        let mut sim = serial(4, 1);
        // Nothing has run: no wall time is charged and the rate reads zero.
        assert_eq!(sim.kernel_stats().wall_time, Duration::ZERO);
        assert_eq!(sim.kernel_stats().events_per_sec(), 0.0);
        // Step the clock one hop at a time: each deadline runs one delivery.
        for hop in 1..=13 {
            sim.run_until(ms(10 * hop));
            assert_eq!(sim.now(), ms(10 * hop));
            assert_eq!(sim.kernel_stats().deliveries, hop);
        }
        assert_eq!(sim.kernel_stats().queue_len, 0);
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
                assert_eq!(first, b.recorder().events);
            });
        });
    }

    /// Answers every message with a zero-delay timer, and every first
    /// timer with a message on: node `g` hears from `g - 1`, so node 0's
    /// timers answer node `N - 1`, a higher scheduler, and sort below
    /// their cause's tie at the same instant.
    struct Echo;

    impl Protocol for Echo {
        type Msg = Hop;
        type Command = ();
        type Event = (NodeId, u32);

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
            let next = NodeId::new((ctx.id().as_u32() + 1) % N);
            ctx.send(next, Hop(0));
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Hop) {
            ctx.emit((from, msg.0));
            ctx.set_timer(Duration::ZERO, Timer::with_payload(0, msg.0, 0));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
            ctx.emit((ctx.id(), timer.a));
            if timer.a < 5 {
                let next = NodeId::new((ctx.id().as_u32() + 1) % N);
                ctx.send(next, Hop(timer.a + 1));
            }
        }
    }

    /// Zero-delay answers to higher schedulers reach the recorder where
    /// one queue pops them, at every thread count.
    #[test]
    fn same_instant_answers_merge_in_pop_order() {
        let mut sim = SimBuilder::new(net(N)).build_with(VecRecorder::new(), |_| Echo);
        sim.run_until(DONE);
        let want = sim.recorder().events.clone();
        assert_eq!(want.len(), 2 * 6 * N as usize);
        for threads in [2, 4] {
            let mut sharded = ShardedSimBuilder::new(net(N))
                .threads(threads)
                .build_with(VecRecorder::new(), |_| Echo);
            sharded.run_until(DONE);
            assert_eq!(sharded.recorder().events, want, "{threads} threads");
        }
    }

    /// Node 1 sets a 10 ms timer at start, and node `from` sends it a
    /// message that arrives at the same instant: the timer waits in node
    /// 1's worker's timer queue, the message in its other one.
    struct Meet {
        id: NodeId,
        from: u32,
        seen: Vec<EventClass>,
    }

    impl Protocol for Meet {
        type Msg = Hop;
        type Command = ();
        type Event = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
            if self.id == NodeId::new(1) {
                ctx.set_timer(Duration::from_millis(10), Timer::of_kind(0));
            }
            if self.id.as_u32() == self.from {
                ctx.send(NodeId::new(1), Hop(0));
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Hop) {
            self.seen.push(EventClass::Deliver);
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _timer: Timer) {
            self.seen.push(EventClass::Timer);
        }
    }

    /// A timer and a message due at one instant pop in tie order across
    /// a worker's two queues: node 1's timer ties as `2 << 40`, node 0's
    /// message as `1 << 40` and node 2's as `3 << 40`. So on both engines,
    /// and through a wire shard's `fire_due`.
    #[test]
    fn a_timer_and_a_message_due_together_pop_in_tie_order() {
        use EventClass::{Deliver, Timer};
        for (from, want) in [(0, [Deliver, Timer]), (2, [Timer, Deliver])] {
            let meet = |id| Meet {
                id,
                from,
                seen: Vec::new(),
            };
            let target = NodeId::new(1);
            let mut sim = SimBuilder::new(net(3)).build(meet);
            sim.run_until(ms(10));
            assert_eq!(sim.node(target).seen, want, "Sim");
            let mut sharded = ShardedSimBuilder::new(net(3))
                .threads(2)
                .build_with(NullRecorder, meet);
            sharded.run_until(ms(10));
            assert_eq!(sharded.node(target).seen, want, "ShardedSim at 2 threads");

            let placement = Placement::new(3, 1);
            let link = |index| SimLink {
                index,
                placement,
                outbox: Vec::new(),
            };
            let mut set = WorkerSet::new(placement, 1, link, |id, _| meet(id));
            let model = net(3);
            set.start(&model, &mut NullRecorder);
            let w = &mut set.workers_mut()[0];
            let fired: Vec<_> =
                std::iter::from_fn(|| w.fire_due(ms(10), &model, &mut NullRecorder)).collect();
            assert_eq!(fired, want.map(|class| (ms(10), class)), "fire_due");
            assert_eq!(set.node(target).seen, want, "fire_due");
        }
    }

    #[test]
    fn output_identical_across_thread_counts() {
        // Everything but how the pending events are stored: that depends
        // on the thread count, which events they are does not.
        let mut outcomes = Vec::new();
        on_every_engine!(1, |sim| {
            sim.fail_node_at(ms(1500), NodeId::new(7));
            sim.schedule_fault(ms(900), NetFault::SetJitter(Duration::from_millis(3)));
            sim.run_until(DONE);
            let k = KernelStats {
                wall_time: Duration::ZERO,
                slab_slots: 0,
                queue_mem_bytes: 0,
                queue_high_water: 0,
                ..sim.kernel_stats()
            };
            outcomes.push((sim.recorder().events.clone(), k, sim.stats().total()));
        });
        assert!(outcomes.windows(2).all(|pair| pair[0] == pair[1]));
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
            // One cut and one heal, however many workers replicate them.
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
            // A command per node and the token in flight, over every
            // worker; the high-water mark is the deepest one worker's
            // queues got, which hold at least its share.
            let k = sim.kernel_stats();
            assert_eq!(k.queue_len, N as usize + 1);
            let workers = sim.workers.workers().len();
            assert!(k.queue_high_water * workers >= k.queue_len);
            assert_eq!(workers > 1, k.queue_high_water < k.queue_len);
        });
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
            sim.run_until(DONE);
            let k = sim.kernel_stats();
            lost += k.fates.lost;
            sent += k.deliveries + k.fates.total();
        }
        let rate = lost as f64 / sent as f64;
        assert!((0.2..0.4).contains(&rate), "observed loss rate {rate}");
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let mut sim = serial(N, 9);
        sim.apply_fault(NetFault::SetLoss(0.02));
        sim.run_until(DONE);
        let first = (sim.kernel_stats().fates, sim.recorder().events.clone());
        assert!(!first.1.is_empty());
        on_every_engine!(9, |b| {
            b.apply_fault(NetFault::SetLoss(0.02));
            b.run_until(DONE);
            let again = (b.kernel_stats().fates, b.recorder().events.clone());
            assert_eq!(first, again);
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
        let mut plain = serial(N, 3);
        plain.run_until(DONE);
        on_every_engine!(3, |toggled| {
            toggled.apply_fault(NetFault::SetLoss(0.5));
            toggled.apply_fault(NetFault::SetJitter(Duration::from_millis(2)));
            toggled.apply_fault(NetFault::SetLoss(0.0));
            toggled.apply_fault(NetFault::SetJitter(Duration::ZERO));
            toggled.run_until(DONE);
            assert_eq!(plain.recorder().events, toggled.recorder().events);
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
            // One partition and one heal, however many workers replicate
            // them.
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
        let mut expected = FaultState::new(N as usize, 1);
        faults.iter().for_each(|(_, f)| expected.apply(f));

        on_every_engine!(1, |sim| {
            for (at, fault) in &faults {
                sim.schedule_fault(*at, fault.clone());
            }
            sim.run_until(DONE);
            assert_eq!(sim.kernel_stats().control_events, faults.len() as u64);
            for w in sim.workers.workers() {
                assert_eq!(settings(&w.faults), settings(&expected));
            }
        });
    }

    #[test]
    fn apply_fault_mid_run_equals_scheduling_it_now() {
        // With the token in flight, add loss and cut a link further round
        // the ring: the same run whether applied in place or scheduled at
        // `now`.
        let cut = || NetFault::CutLink(NodeId::new(40), NodeId::new(41));
        let mut applied = serial(N, 9);
        applied.run_until(ms(25));
        applied.apply_fault(cut());
        applied.apply_fault(NetFault::SetLoss(0.02));
        applied.run_until(DONE);
        assert!((3..=40).contains(&hops(&applied)), "lost or cut off");
        on_every_engine!(9, |scheduled| {
            scheduled.run_until(ms(25));
            scheduled.schedule_fault(scheduled.now(), cut());
            scheduled.schedule_fault(scheduled.now(), NetFault::SetLoss(0.02));
            scheduled.run_until(DONE);
            assert_eq!(applied.recorder().events, scheduled.recorder().events);
            for w in scheduled.workers.workers() {
                assert_eq!(settings(applied.faults()), settings(&w.faults));
            }
            // Only the scheduled ones are control events.
            let (a, s) = (applied.kernel_stats(), scheduled.kernel_stats());
            assert_eq!((a.control_events, s.control_events), (0, 2));
            assert_eq!(a.fates, s.fates);
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
                .threads(2)
                .build_with(Rec::new(), member(4));
        });
        let mut one = ShardedSimBuilder::new(NoBound).build_with(Rec::new(), member(4));
        one.run_until(DONE);
        let mut sim = SimBuilder::new(NoBound).build_with(Rec::new(), member(4));
        sim.run_until(DONE);
        assert_eq!(hops(&one), 13);
        assert_eq!(one.recorder().events, sim.recorder().events);
    }

    #[test]
    fn metric_names_agree_across_entry_points_and_telemetry_merges_lanes() {
        let names =
            |s: &Snapshot| -> Vec<&'static str> { s.entries().iter().map(|e| e.name).collect() };
        let mut sim = SimBuilder::new(net(N)).build_with(Rec::new(), member(N));
        sim.enable_telemetry();
        let mut workers = sharded(N, 0, 4);
        workers.enable_telemetry();
        assert!(workers.telemetry_enabled());
        sim.run_until(DONE);
        workers.run_until(DONE);
        let (a, b) = (sim.metrics_snapshot(), workers.metrics_snapshot());
        assert_eq!(names(&a), names(&b));
        assert!(names(&a).contains(&"kernel_dispatch_ns_deliver"));
        let depth = |s: &Snapshot| {
            let entry = s.entries().iter().find(|e| e.name == "kernel_queue_depth");
            match &entry.expect("queue-depth histogram present").value {
                gocast_metrics::MetricValue::Histogram(h) => h.count,
                other => panic!("unexpected value {other:?}"),
            }
        };
        assert_eq!(depth(&a), sim.kernel_stats().events_processed);
        assert_eq!(depth(&b), workers.kernel_stats().events_processed);
    }
}
