//! The deployment fabric: N GoCast nodes on loopback UDP.
//!
//! Each node gets its own non-blocking [`UdpSocket`](std::net::UdpSocket)
//! bound to an ephemeral `127.0.0.1` port. Nodes are laid out over
//! [`TestnetConfig::shards`] event loops by a [`Placement`] — the
//! engine's, one worker a shard — each on its own OS thread (one shard
//! runs inline on the caller's thread). A shard is a bare kernel
//! [`Worker`] whose link is its sockets: its nodes draw from the RNG
//! streams the engine gives them, and planned faults, harness commands,
//! timers and arriving messages run through the kernel's one dispatch, in
//! wall-clock time (see the `shard` module docs for the loop). The shards
//! are a [`WorkerSet`], so node access, liveness, scheduling and a
//! [`ScenarioPlan`] (`ScenarioPlan::schedule_into`) route exactly as on the
//! engine: a crash and a leave or join to the owning shard, a network
//! fault to every shard's replica.
//!
//! Cross-shard traffic travels over real loopback UDP like any other
//! datagram — shards share no mutable state. Each shard records its
//! [`GoCastEvent`]s into its worker's window buffer, and after every run
//! the fabric merges the buffers into its [`Recorder`] through the
//! engine's own `(time, worker, emission order)` merge.
//!
//! The protocol sees fabric-monotonic [`SimTime`] (zero at the first
//! `run_for` call), which makes the wire-side event stream directly
//! consumable by the recorders a simulated run installs.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use gocast::{GoCastConfig, GoCastEvent, GoCastMsg, GoCastNode};
use gocast_metrics::Snapshot;
use gocast_sim::scenario::ScenarioPlan;
use gocast_sim::{
    KernelStats, NodeId, NullRecorder, Placement, Recorder, SimTime, Stack, VecRecorder, Worker,
    WorkerSet,
};

use crate::batch::BatchMode;
use crate::bootstrap::PeerTable;
use crate::shard::{self, FabricTelemetry, Port, WireLink};

pub use crate::shard::FabricStats;

/// Bootstrap seeds: the first `min(SEED_COUNT, nodes)` nodes, whose
/// addresses are the only ones every node is configured with.
const SEED_COUNT: usize = 3;

/// How a fabric is laid out: node count, the run seed, shard count, and
/// the protocol configuration.
#[derive(Debug, Clone)]
pub struct TestnetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Run seed (per-node RNGs and the loss/jitter draws derive from it,
    /// as the engine's do).
    pub seed: u64,
    /// Event-loop shards, one OS thread each, over which a [`Placement`]
    /// lays the nodes out as the engine lays them over its workers. `1`
    /// (the default) runs everything inline on the calling thread.
    pub shards: usize,
    /// Whether the fabric feeds its recorder the protocol events (default
    /// `true`; saturation benchmarks turn it off to keep memory flat).
    pub record_trace: bool,
    /// Protocol configuration (defaults to [`crate::deployment_config`]).
    pub protocol: GoCastConfig,
}

impl TestnetConfig {
    /// A fabric of `nodes` nodes with deployment cadences, seed 42 and
    /// one shard.
    pub fn new(nodes: usize) -> Self {
        TestnetConfig {
            nodes,
            seed: 42,
            shards: 1,
            record_trace: true,
            protocol: crate::deployment_config(),
        }
    }

    /// Replaces the run seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard count (builder style); clamped to `1..=nodes` at
    /// build time.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables or disables feeding the recorder (builder style).
    pub fn with_record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }
}

/// The process-local deployment fabric. See the [crate docs](crate).
///
/// Generic over the hosted [`Stack`] (defaulting to [`GoCastNode`]): any
/// protocol speaking the GoCast message set — e.g. an application tier
/// layered over it — runs on the same sockets, fault state, and batching
/// unchanged. The protocol events go to a [`Recorder`] `R`, as on the
/// engine: by default a [`VecRecorder`], read back as [`Testnet::trace`].
#[derive(Debug)]
pub struct Testnet<
    N: Stack<Msg = GoCastMsg, Event = GoCastEvent> = GoCastNode,
    R = VecRecorder<GoCastEvent>,
> {
    epoch: Instant,
    started: bool,
    record: bool,
    /// One worker a shard.
    shards: WorkerSet<N, WireLink>,
    recorder: R,
}

impl<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>> Testnet<N> {
    /// Binds `cfg.nodes` loopback sockets and builds one node per slot
    /// via `make` (which receives the node's id and must apply
    /// `cfg.protocol` itself, mirroring `SimBuilder::build`); the events
    /// go to a [`VecRecorder`] ([`Testnet::trace`]).
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors (e.g. no loopback available).
    pub fn build(cfg: &TestnetConfig, make: impl FnMut(NodeId) -> N) -> std::io::Result<Self> {
        Testnet::build_with(cfg, VecRecorder::new(), make)
    }

    /// The captured protocol event trace, stamped with fabric time and
    /// merged across shards (empty when the fabric was built with
    /// `record_trace` off).
    pub fn trace(&self) -> &[(SimTime, NodeId, GoCastEvent)] {
        &self.recorder.events
    }

    /// A canonical digest of *which node delivered which message*: one
    /// `origin,seq,receiver` line per delivery, sorted. Wall-clock
    /// timestamps differ run to run (and shard to shard), but once every
    /// injected message has drained, this digest is byte-identical for
    /// any shard count — the shard-conformance tests gate on it.
    pub fn delivery_manifest(&self) -> String {
        let mut lines: Vec<String> = self
            .trace()
            .iter()
            .filter_map(|(_, node, e)| match e {
                GoCastEvent::Delivered { id, .. } => Some(format!(
                    "{},{},{}",
                    id.origin.as_u32(),
                    id.seq,
                    node.as_u32()
                )),
                _ => None,
            })
            .collect();
        lines.sort_unstable();
        lines.join("\n")
    }
}

impl<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>, R: Recorder<GoCastEvent>> Testnet<N, R> {
    /// [`Testnet::build`], recording into `recorder` (as
    /// `SimBuilder::build_with` does on the engine).
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors (e.g. no loopback available).
    pub fn build_with(
        cfg: &TestnetConfig,
        recorder: R,
        mut make: impl FnMut(NodeId) -> N,
    ) -> std::io::Result<Self> {
        assert!(cfg.nodes > 0, "a testnet needs at least one node");
        assert!(cfg.shards > 0, "shard count must be at least 1");
        let sockets: Vec<(UdpSocket, SocketAddr)> = (0..cfg.nodes)
            .map(|_| {
                let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
                s.set_nonblocking(true)?;
                let a = s.local_addr()?;
                Ok((s, a))
            })
            .collect::<std::io::Result<_>>()?;
        let seeds: Vec<(NodeId, SocketAddr)> = sockets[..SEED_COUNT.min(cfg.nodes)]
            .iter()
            .enumerate()
            .map(|(i, (_, a))| (NodeId::new(i as u32), *a))
            .collect();
        let placement = Placement::new(cfg.nodes, cfg.shards);
        let mut sockets = sockets.into_iter();
        let link = |k| WireLink::new(k, placement);
        let shards = WorkerSet::new(placement, cfg.seed, link, |id, link| {
            let (socket, addr) = sockets.next().expect("a socket per node");
            let mut peers = PeerTable::new(seeds.clone());
            peers.learn(id, addr); // a node always knows itself
            link.ports.push(Port::new(socket, addr, peers));
            make(id)
        });
        Ok(Testnet {
            epoch: Instant::now(),
            started: false,
            record: cfg.record_trace,
            shards,
            recorder,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.shards.placement().population()
    }

    /// Whether the fabric is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of event-loop shards driving the fabric.
    pub fn shard_count(&self) -> usize {
        self.shards.placement().workers()
    }

    /// The syscall batching mode the fabric selected at startup. Shards
    /// demote themselves to [`BatchMode::Portable`] independently on
    /// `ENOSYS`; this reports shard 0's current mode.
    pub fn batch_mode(&self) -> BatchMode {
        self.shards.workers()[0].link.mode
    }

    /// Fabric-monotonic time: zero at the first [`Testnet::run_for`].
    pub fn now(&self) -> SimTime {
        shard::fabric_time(self.epoch)
    }

    /// The hosted protocol state machine of `id` (inspect between runs).
    pub fn node(&self, id: NodeId) -> &N {
        self.shards.node(id)
    }

    /// Iterates over all hosted nodes in id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = &N> {
        (0..self.len()).map(move |i| self.node(NodeId::new(i as u32)))
    }

    /// The socket address `id` is bound to.
    pub fn addr_of(&self, id: NodeId) -> SocketAddr {
        self.shards.link(id).port(id).addr
    }

    /// How many peer addresses `id` has learned so far.
    pub fn known_peers(&self, id: NodeId) -> usize {
        self.shards.link(id).port(id).peers.known()
    }

    /// Whether `id` was crashed by a scenario fault.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        !self.shards.is_alive(id)
    }

    /// Wire-side counters, aggregated across shards, with the fates the
    /// shards counted.
    pub fn stats(&self) -> FabricStats {
        let mut total = FabricStats {
            fates: self.kernel_stats().fates,
            ..FabricStats::default()
        };
        for w in self.shards.workers() {
            total.absorb(&w.link.stats);
        }
        total
    }

    /// The kernel counters of the shards and their queues, summed as the
    /// engine sums its workers' (`wall_time` stays zero: the fabric runs
    /// in wall-clock time).
    pub fn kernel_stats(&self) -> KernelStats {
        self.shards.kernel_stats()
    }

    /// A [`Snapshot`] of the fabric's wire-side metrics under `fabric_*`
    /// names: syscall/datagram/byte counters (including the batching
    /// economics: `fabric_sendmmsg_calls`, `fabric_recvmmsg_calls`,
    /// `fabric_syscalls_saved`), per-poll drain and timer-lateness
    /// distributions, and discovery queue depths — all aggregated across
    /// shards — then the shards' kernel counters and the network fates under the
    /// `kernel_*` and `net_*` names the simulation engine exports too. The
    /// histograms are wall-clock flavoured and flagged accordingly.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let s = self.stats();
        snap.record_counter("fabric_sendto_calls", s.sendto_calls);
        snap.record_counter("fabric_recvfrom_calls", s.recvfrom_calls);
        snap.record_counter("fabric_sendmmsg_calls", s.sendmmsg_calls);
        snap.record_counter("fabric_recvmmsg_calls", s.recvmmsg_calls);
        snap.record_counter("fabric_syscalls_saved", s.syscalls_saved);
        snap.record_counter("fabric_datagrams_sent", s.datagrams_sent);
        snap.record_counter("fabric_datagrams_received", s.datagrams_received);
        snap.record_counter("fabric_bytes_sent", s.bytes_sent);
        snap.record_counter("fabric_bytes_received", s.bytes_received);
        snap.record_counter("fabric_wire_msgs", s.wire_msgs);
        snap.record_counter("fabric_delayed", s.delayed);
        snap.record_counter("fabric_whohas_sent", s.whohas_sent);
        snap.record_counter("fabric_peer_replies", s.peer_replies);
        snap.record_counter("fabric_unresolved_dropped", s.unresolved_dropped);
        snap.record_counter("fabric_malformed", s.malformed);
        let mut health = FabricTelemetry::default();
        for w in self.shards.workers() {
            health.absorb(&w.link.telemetry);
        }
        snap.record_gauge("fabric_pending_depth", health.pending_depth);
        snap.record_gauge("fabric_wanted_depth", health.wanted_depth);
        snap.record_wall_histogram("fabric_datagrams_per_poll", &health.datagrams_per_poll);
        snap.record_wall_histogram("fabric_timer_fire_lateness_ns", &health.timer_lateness_ns);
        self.kernel_stats().snapshot_into(&mut snap);
        s.fates.snapshot_into(&mut snap);
        snap
    }

    /// The recorder the fabric feeds.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the recorder.
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Consumes the fabric, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Schedules a protocol command at fabric time `at` (commands due in
    /// the past fire on the next loop iteration). The command is routed
    /// to the shard that owns `node`.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: N::Command) {
        self.shards.schedule_command(at, node, cmd);
    }

    /// Attaches a compiled scenario: its faults replay against the real
    /// sockets at their planned (fabric-relative) times, through
    /// `ScenarioPlan::schedule_into` as on the engine. Compile the plan
    /// with `ScenarioEnv::starting_at` to offset it into the run.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different node count.
    pub fn attach_plan(&mut self, plan: &ScenarioPlan) {
        plan.schedule_into(&mut self.shards, N::cmd_join, N::cmd_leave);
    }

    /// Resets shared fabric time and calls `on_start` on every node;
    /// fabric time zero is here.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.epoch = Instant::now();
        if self.record {
            self.shards.start(&(), &mut self.recorder);
        } else {
            self.shards.start(&(), &mut NullRecorder);
        }
    }

    /// Runs the fabric for `duration` of wall-clock time. Callable
    /// repeatedly; `on_start` fires on the first call. With one shard
    /// everything runs inline on the calling thread; with more, each
    /// shard gets a scoped OS thread. When all of them return, their
    /// events reach the recorder in `(time, shard, emission order)`.
    pub fn run_for(&mut self, duration: Duration)
    where
        N: Send,
        N::Command: Send,
    {
        self.start();
        let (epoch, deadline, record) = (self.epoch, Instant::now() + duration, self.record);
        let run = move |w: &mut Worker<N, WireLink>| {
            recording(w, record, |w, sink| {
                shard::run_until(w, epoch, deadline, sink)
            });
        };
        match self.shards.workers_mut() {
            [one] => run(one),
            all => std::thread::scope(|s| {
                for w in all {
                    s.spawn(move || run(w));
                }
            }),
        }
        self.shards.merge_into(&mut self.recorder);
    }
}

/// Runs `f` on shard `w` with what the fabric records into: the worker's
/// window buffer, or nothing with `record` off.
fn recording<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>>(
    w: &mut Worker<N, WireLink>,
    record: bool,
    f: impl FnOnce(&mut Worker<N, WireLink>, &mut dyn Recorder<GoCastEvent>),
) {
    if record {
        w.buffered(|w, out| f(w, out));
    } else {
        f(w, &mut NullRecorder);
    }
}

impl Testnet<GoCastNode> {
    /// Builds a fabric whose nodes start from the paper's bootstrap state
    /// (random graph + partial member views), the same construction the
    /// simulation experiments use — only addresses are learned at runtime.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn build_bootstrap(cfg: &TestnetConfig) -> std::io::Result<Self> {
        let links = (cfg.protocol.c_degree() / 2)
            .max(1)
            .min(cfg.nodes.saturating_sub(1));
        let mut boot = gocast::bootstrap_random_graph(cfg.nodes, links, cfg.seed ^ 0xB007);
        let protocol = cfg.protocol.clone();
        Testnet::build(cfg, move |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, protocol.clone(), links, members)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast::GoCastCommand;
    use gocast_sim::scenario::{Scenario, ScenarioEnv, Split};
    use gocast_sim::{FixedLatency, NullRecorder, ShardedSimBuilder, SimBuilder};

    fn skip() -> bool {
        if crate::loopback_available() {
            false
        } else {
            eprintln!("skipping: loopback UDP unavailable");
            true
        }
    }

    #[test]
    fn fabric_delivers_a_multicast_end_to_end() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(4).with_seed(9);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        net.schedule_command(
            SimTime::from_secs(2),
            NodeId::new(1),
            GoCastCommand::Multicast,
        );
        net.run_for(Duration::from_secs(3));
        let deliveries = net
            .trace()
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
            .count();
        assert_eq!(deliveries, 3, "every other node must deliver once");
        assert_eq!(net.stats().malformed, 0);
    }

    #[test]
    fn sharded_fabric_delivers_and_saves_syscalls() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(4).with_seed(9).with_shards(2);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        assert_eq!(net.shard_count(), 2);
        net.schedule_command(
            SimTime::from_secs(2),
            NodeId::new(1),
            GoCastCommand::Multicast,
        );
        net.run_for(Duration::from_secs(3));
        let deliveries = net
            .trace()
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
            .count();
        assert_eq!(deliveries, 3, "every other node must deliver once");
        let stats = net.stats();
        assert_eq!(stats.malformed, 0);
        if net.batch_mode() == crate::BatchMode::Mmsg {
            assert!(
                stats.recvmmsg_calls > 0,
                "mmsg mode never used recvmmsg: {stats}"
            );
        }
    }

    #[test]
    fn partition_plan_drops_real_datagrams_then_heals() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(4).with_seed(5);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        let scenario = Scenario::new().partition_at(
            Duration::from_secs(1),
            Duration::from_secs(2),
            Split::Halves,
        );
        let plan = scenario.compile(&ScenarioEnv::new(4, 5));
        net.attach_plan(&plan);
        net.run_for(Duration::from_millis(1500));
        let mid = net.stats().fates.partitioned;
        assert!(mid > 0, "partition never dropped a datagram on the wire");
        net.run_for(Duration::from_millis(1000));
        let healed = net.stats().fates.partitioned;
        net.run_for(Duration::from_millis(500));
        assert_eq!(
            net.stats().fates.partitioned,
            healed,
            "partition kept dropping after its heal time"
        );
    }

    #[test]
    fn crash_fault_silences_a_node() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(3).with_seed(2);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        let scenario = Scenario::new().crash_at(Duration::from_millis(500), NodeId::new(2));
        let plan = scenario.compile(&ScenarioEnv::new(3, 2));
        net.attach_plan(&plan);
        net.run_for(Duration::from_secs(2));
        assert!(net.is_crashed(NodeId::new(2)));
        assert!(net.stats().fates.dead > 0, "no traffic hit the crash wall");
    }

    /// A datagram already on its way to a node when it crashes — in its
    /// socket's buffer, or held back by jitter and released after — is
    /// dead, as in the kernel: the crashed node's socket is drained and
    /// what it held is counted, not left unread.
    #[test]
    fn datagrams_in_flight_to_a_crashed_node_are_counted_dead() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(4).with_seed(3);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        let victim = NodeId::new(2);
        let scenario = Scenario::new()
            .jitter_at(Duration::ZERO, Duration::from_millis(200))
            .crash_at(Duration::from_millis(1500), victim);
        net.attach_plan(&scenario.compile(&ScenarioEnv::new(4, 3)));
        for i in 0..10 {
            let at = SimTime::from_millis(1000 + 50 * i);
            net.schedule_command(at, NodeId::new(0), GoCastCommand::Multicast);
        }
        net.run_for(Duration::from_millis(2500));
        assert!(net.is_crashed(victim));
        let mut buf = [0u8; 64];
        let unread = net
            .shards
            .link(victim)
            .port(victim)
            .socket
            .recv_from(&mut buf);
        assert!(
            unread.is_err(),
            "a datagram sat unread in a crashed node's socket"
        );
        assert!(net.stats().fates.dead > 0, "{}", net.stats());
    }

    /// Regression: with jitter holding datagrams back, the idle sleep
    /// must wake for a held datagram as for a timer, so held datagrams
    /// release on time and deliveries still happen promptly.
    #[test]
    fn jittered_datagrams_release_on_time() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(4).with_seed(7);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        let scenario =
            Scenario::new().jitter_at(Duration::from_millis(0), Duration::from_millis(30));
        let plan = scenario.compile(&ScenarioEnv::new(4, 7));
        net.attach_plan(&plan);
        net.schedule_command(
            SimTime::from_secs(2),
            NodeId::new(0),
            GoCastCommand::Multicast,
        );
        net.run_for(Duration::from_secs(3));
        let stats = net.stats();
        assert!(stats.delayed > 0, "jitter plan never held a datagram");
        let deliveries = net
            .trace()
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
            .count();
        assert_eq!(
            deliveries, 3,
            "held datagrams failed to release in time: {stats}"
        );
    }

    /// The network fates and the kernel counters are one schema on every
    /// host: `Sim`, a two-thread `ShardedSim` and the fabric export
    /// exactly the same `net_*` and `kernel_*` names, with no exceptions.
    #[test]
    fn network_fates_export_one_schema_on_every_host() {
        let names = |snap: Snapshot| -> Vec<&'static str> {
            let names = snap.entries().iter().map(|e| e.name);
            names
                .filter(|n| n.starts_with("net_") || n.starts_with("kernel_"))
                .collect()
        };
        let net = || FixedLatency::new(64, Duration::from_millis(10));
        let make = |id| GoCastNode::new(id, GoCastConfig::default(), Vec::new());
        let mut sim = SimBuilder::new(net()).build(make);
        sim.run_until(SimTime::from_secs(1));
        let expected = names(sim.metrics_snapshot());
        let fates = ["net_lost", "net_cut", "net_partitioned", "net_dead"];
        assert_eq!(expected[expected.len() - 4..], fates);
        assert!(expected.contains(&"kernel_events"), "{expected:?}");
        let mut threaded = ShardedSimBuilder::new(net())
            .threads(2)
            .build_with(NullRecorder, make);
        threaded.run_until(SimTime::from_secs(1));
        assert_eq!(names(threaded.metrics_snapshot()), expected);
        if skip() {
            return;
        }
        let wire = Testnet::build_bootstrap(&TestnetConfig::new(4)).expect("bind loopback");
        assert_eq!(names(wire.metrics_snapshot()), expected);
    }

    /// Commands due at one fabric time fire in scheduling order, as
    /// they do in the kernel, not in node-id order.
    #[test]
    fn same_instant_commands_fire_in_scheduling_order() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(2).with_seed(6);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        let at = SimTime::from_millis(100);
        net.schedule_command(at, NodeId::new(1), GoCastCommand::Multicast);
        net.schedule_command(at, NodeId::new(0), GoCastCommand::Multicast);
        net.run_for(Duration::from_millis(300));
        let origins: Vec<u32> = net
            .trace()
            .iter()
            .filter_map(|(_, _, e)| match e {
                GoCastEvent::Injected { id } => Some(id.origin.as_u32()),
                _ => None,
            })
            .collect();
        assert_eq!(origins, [1, 0]);
    }

    #[test]
    fn record_trace_off_keeps_the_trace_empty() {
        if skip() {
            return;
        }
        let cfg = TestnetConfig::new(2).with_seed(4).with_record_trace(false);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        net.schedule_command(
            SimTime::from_millis(1500),
            NodeId::new(0),
            GoCastCommand::Multicast,
        );
        net.run_for(Duration::from_millis(2500));
        assert!(net.trace().is_empty(), "trace recorded despite opt-out");
        assert!(net.stats().wire_msgs > 0, "fabric moved no messages");
    }
}
