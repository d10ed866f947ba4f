//! The deployment fabric: N GoCast nodes on loopback UDP.
//!
//! Each node gets its own non-blocking [`UdpSocket`](std::net::UdpSocket)
//! bound to an ephemeral `127.0.0.1` port, its own deterministic RNG, and
//! its own `TimerWheel` (`gocast-udp`'s wall-clock scheduler). Nodes are
//! partitioned round-robin across [`TestnetConfig::shards`] event loops,
//! each on its own OS thread (one shard runs inline on the caller's
//! thread). Every shard runs the same synchronous loop over its slice:
//!
//! 1. replay due [`ScenarioPlan`] faults into the fault state /
//!    protocol commands;
//! 2. fire due protocol commands scheduled by the harness;
//! 3. fire due timers per node;
//! 4. release jitter-delayed datagrams whose hold expired;
//! 5. drain every socket in `recvmmsg` batches, decode the transport
//!    frame, learn the sender's address, and dispatch;
//! 6. flush gathered outbound datagrams in one `sendmmsg` batch; if the
//!    iteration did no work, sleep until the earliest known deadline
//!    (timer wheels *and* the jitter queue head, capped at 500 µs since
//!    loopback arrivals cannot interrupt a sleep).
//!
//! Cross-shard traffic travels over real loopback UDP like any other
//! datagram — shards share no mutable state. Recorded [`GoCastEvent`]s
//! accumulate in per-shard streams (time-sorted by construction) and are
//! merged into one trace with a deterministic stable merge after every
//! run window, the same submission-order discipline the simulator's
//! `parallel_map` uses for its shards.
//!
//! The protocol sees fabric-monotonic [`SimTime`] (zero at the first
//! `run_for` call), which makes the wire-side trace directly consumable
//! by the PR-2 analysis pipeline.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use gocast::{GoCastConfig, GoCastEvent, GoCastMsg, GoCastNode};
use gocast_metrics::{Gauge, Snapshot};
use gocast_sim::scenario::ScenarioPlan;
use gocast_sim::{FxHashMap, NodeId, Recorder, SimTime, Stack, TraceRecorder};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::batch::BatchMode;
use crate::bootstrap::PeerTable;
use crate::shard::{NodeSlot, Shard};
use gocast_udp::TimerWheel;

pub use crate::shard::FabricStats;

/// How a fabric is laid out: node count, how many of them are bootstrap
/// seeds, the run seed, shard count, and the protocol configuration.
#[derive(Debug, Clone)]
pub struct TestnetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// The first `seed_count` nodes are bootstrap seeds: their addresses
    /// are the only ones every node is configured with.
    pub seed_count: usize,
    /// Run seed (per-node RNGs and the per-shard loss/jitter streams
    /// derive from it).
    pub seed: u64,
    /// Event-loop shards: nodes are partitioned `id % shards` across
    /// this many OS threads. `1` (the default) runs everything inline on
    /// the calling thread, byte-identical to the pre-shard fabric.
    pub shards: usize,
    /// Whether to record the protocol event trace (default `true`;
    /// saturation benchmarks turn it off to keep memory flat).
    pub record_trace: bool,
    /// Protocol configuration (defaults to [`crate::deployment_config`]).
    pub protocol: GoCastConfig,
}

impl TestnetConfig {
    /// A fabric of `nodes` nodes with deployment cadences, seed 42, one
    /// shard, and `min(3, nodes)` bootstrap seeds.
    pub fn new(nodes: usize) -> Self {
        TestnetConfig {
            nodes,
            seed_count: nodes.min(3),
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

    /// Enables or disables protocol-event trace recording.
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
/// unchanged.
#[derive(Debug)]
pub struct Testnet<N: Stack<Msg = GoCastMsg, Event = GoCastEvent> = GoCastNode> {
    epoch: Instant,
    started: bool,
    shard_count: usize,
    nodes_total: usize,
    shards: Vec<Shard<N>>,
    trace: Vec<(SimTime, NodeId, GoCastEvent)>,
}

impl<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>> Testnet<N>
where
    N::Command: Clone,
{
    /// Binds `cfg.nodes` loopback sockets and builds one node per slot
    /// via `make` (which receives the node's id and must apply
    /// `cfg.protocol` itself, mirroring `SimBuilder::build_with`).
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors (e.g. no loopback available).
    pub fn build(cfg: &TestnetConfig, mut make: impl FnMut(NodeId) -> N) -> std::io::Result<Self> {
        assert!(cfg.nodes > 0, "a testnet needs at least one node");
        assert!(
            (1..=cfg.nodes).contains(&cfg.seed_count),
            "seed_count must be in 1..=nodes"
        );
        assert!(cfg.shards > 0, "shard count must be at least 1");
        let shard_count = cfg.shards.min(cfg.nodes);
        let sockets: Vec<(UdpSocket, SocketAddr)> = (0..cfg.nodes)
            .map(|_| {
                let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
                s.set_nonblocking(true)?;
                let a = s.local_addr()?;
                Ok((s, a))
            })
            .collect::<std::io::Result<_>>()?;
        let seeds: Vec<(NodeId, SocketAddr)> = sockets[..cfg.seed_count]
            .iter()
            .enumerate()
            .map(|(i, (_, a))| (NodeId::new(i as u32), *a))
            .collect();
        let mut shards: Vec<Shard<N>> = (0..shard_count)
            .map(|k| Shard::new(k, shard_count, cfg.nodes, cfg.seed, cfg.record_trace))
            .collect();
        for (i, (socket, addr)) in sockets.into_iter().enumerate() {
            let id = NodeId::new(i as u32);
            let mut peers = PeerTable::new(seeds.clone());
            peers.learn(id, addr); // a node always knows itself
            shards[i % shard_count].slots.push(NodeSlot {
                node: make(id),
                socket,
                addr,
                // Same per-node stream derivation as `SimBuilder`.
                rng: SmallRng::seed_from_u64(
                    cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64,
                ),
                timers: TimerWheel::new(),
                peers,
                pending: FxHashMap::default(),
                wanted: FxHashMap::default(),
                wanted_len: 0,
            });
        }
        Ok(Testnet {
            epoch: Instant::now(),
            started: false,
            shard_count,
            nodes_total: cfg.nodes,
            shards,
            trace: Vec::new(),
        })
    }

    fn slot(&self, id: NodeId) -> &NodeSlot<N> {
        let i = id.index();
        &self.shards[i % self.shard_count].slots[i / self.shard_count]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes_total
    }

    /// Whether the fabric is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes_total == 0
    }

    /// Number of event-loop shards driving the fabric.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The syscall batching mode the fabric selected at startup. Shards
    /// demote themselves to [`BatchMode::Portable`] independently on
    /// `ENOSYS`; this reports shard 0's current mode.
    pub fn batch_mode(&self) -> BatchMode {
        self.shards[0].mode()
    }

    /// Fabric-monotonic time: zero at the first [`Testnet::run_for`].
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The hosted protocol state machine of `id` (inspect between runs).
    pub fn node(&self, id: NodeId) -> &N {
        &self.slot(id).node
    }

    /// Iterates over all hosted nodes in id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = &N> {
        (0..self.nodes_total).map(move |i| &self.slot(NodeId::new(i as u32)).node)
    }

    /// The socket address `id` is bound to.
    pub fn addr_of(&self, id: NodeId) -> SocketAddr {
        self.slot(id).addr
    }

    /// How many peer addresses `id` has learned so far.
    pub fn known_peers(&self, id: NodeId) -> usize {
        self.slot(id).peers.known()
    }

    /// Whether `id` was crashed by a scenario fault. (Every shard
    /// replays the full plan, so any shard's replica can answer.)
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.shards[0].is_crashed(id)
    }

    /// Wire-side counters, aggregated across shards.
    pub fn stats(&self) -> FabricStats {
        let mut total = FabricStats::default();
        for sh in &self.shards {
            total.absorb(&sh.stats());
        }
        total
    }

    /// A [`Snapshot`] of the fabric's wire-side metrics under `fabric_*`
    /// names: syscall/datagram/byte counters (including the batching
    /// economics: `fabric_sendmmsg_calls`, `fabric_recvmmsg_calls`,
    /// `fabric_syscalls_saved`), per-poll drain and timer-lateness
    /// distributions, and discovery queue depths — all aggregated across
    /// shards. The histograms are wall-clock flavoured and flagged
    /// accordingly.
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
        snap.record_counter("fabric_dropped_loss", s.dropped_loss);
        snap.record_counter("fabric_dropped_partition", s.dropped_partition);
        snap.record_counter("fabric_dropped_cut", s.dropped_cut);
        snap.record_counter("fabric_dropped_crashed", s.dropped_crashed);
        snap.record_counter("fabric_whohas_sent", s.whohas_sent);
        snap.record_counter("fabric_peer_replies", s.peer_replies);
        snap.record_counter("fabric_unresolved_dropped", s.unresolved_dropped);
        snap.record_counter("fabric_malformed", s.malformed);
        // Gauges: sum the per-shard depths. Setting the summed high
        // water first makes the merged gauge's own high-water mark
        // cover it, then the summed current level lands on top.
        let mut pending = Gauge::default();
        let mut wanted = Gauge::default();
        pending.set(
            self.shards
                .iter()
                .map(|s| s.telemetry.pending_depth.high_water())
                .sum(),
        );
        pending.set(
            self.shards
                .iter()
                .map(|s| s.telemetry.pending_depth.get())
                .sum(),
        );
        wanted.set(
            self.shards
                .iter()
                .map(|s| s.telemetry.wanted_depth.high_water())
                .sum(),
        );
        wanted.set(
            self.shards
                .iter()
                .map(|s| s.telemetry.wanted_depth.get())
                .sum(),
        );
        snap.record_gauge("fabric_pending_depth", pending);
        snap.record_gauge("fabric_wanted_depth", wanted);
        let mut per_poll = self.shards[0].telemetry.datagrams_per_poll;
        let mut lateness = self.shards[0].telemetry.timer_lateness_ns;
        for sh in &self.shards[1..] {
            per_poll.merge(&sh.telemetry.datagrams_per_poll);
            lateness.merge(&sh.telemetry.timer_lateness_ns);
        }
        snap.record_wall_histogram("fabric_datagrams_per_poll", &per_poll);
        snap.record_wall_histogram("fabric_timer_fire_lateness_ns", &lateness);
        snap
    }

    /// The captured protocol event trace, stamped with fabric time and
    /// merged across shards (empty when the fabric was built with
    /// `record_trace` off).
    pub fn trace(&self) -> &[(SimTime, NodeId, GoCastEvent)] {
        &self.trace
    }

    /// Renders the captured trace as PR-2 JSONL bytes — byte-compatible
    /// with what `gocast_sim::TraceRecorder` writes for simulated runs, so
    /// `gocast_analysis::trace::{scan_trace, InvariantOracle}` consume it
    /// unchanged.
    pub fn trace_jsonl(&self) -> Vec<u8> {
        let mut rec = TraceRecorder::new(Vec::new());
        for (t, n, e) in &self.trace {
            rec.record(*t, *n, e.clone());
        }
        rec.finish().expect("in-memory sink cannot fail")
    }

    /// A canonical digest of *which node delivered which message*: one
    /// `origin,seq,receiver` line per delivery, sorted. Wall-clock
    /// timestamps differ run to run (and shard to shard), but once every
    /// injected message has drained, this digest is byte-identical for
    /// any shard count — the shard-conformance tests gate on it.
    pub fn delivery_manifest(&self) -> String {
        let mut lines: Vec<String> = self
            .trace
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

    /// Schedules a protocol command at fabric time `at` (commands due in
    /// the past fire on the next loop iteration). The command is routed
    /// to the shard that owns `node`.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: N::Command) {
        let k = node.index() % self.shard_count;
        self.shards[k].schedule_command(at, node, cmd);
    }

    /// Attaches a compiled scenario: its faults replay against the real
    /// sockets at their planned (fabric-relative) times. Compile the plan
    /// with `ScenarioEnv::starting_at` to offset it into the run. Every
    /// shard replays the full plan against its own fault-state replica.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different node count.
    pub fn attach_plan(&mut self, plan: &ScenarioPlan) {
        assert_eq!(
            plan.nodes(),
            self.nodes_total,
            "plan was compiled for a different node count"
        );
        for sh in &mut self.shards {
            sh.attach_plan(plan.events());
        }
    }

    /// Resets shared fabric time and arms every shard; fabric time zero
    /// is here.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.epoch = Instant::now();
        for sh in &mut self.shards {
            sh.epoch = self.epoch;
        }
    }

    /// Runs the fabric for `duration` of wall-clock time. Callable
    /// repeatedly; `on_start` fires on the first call. With one shard
    /// everything runs inline on the calling thread; with more, each
    /// shard gets a scoped OS thread and the per-shard event streams are
    /// merged deterministically when all of them return.
    pub fn run_for(&mut self, duration: Duration)
    where
        N: Send,
        N::Command: Send,
    {
        self.start();
        let deadline = Instant::now() + duration;
        if self.shards.len() == 1 {
            self.shards[0].run_until(deadline);
        } else {
            std::thread::scope(|s| {
                for shard in &mut self.shards {
                    s.spawn(move || shard.run_until(deadline));
                }
            });
        }
        let streams: Vec<_> = self.shards.iter_mut().map(|sh| &mut sh.trace).collect();
        merge_event_streams(&mut self.trace, streams);
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

/// Drains per-shard event streams into `dst` with a deterministic merge:
/// streams are appended in shard order, then the new tail is stable-sorted
/// by timestamp — so equal-time events keep shard-index order, and events
/// within one shard keep their submission order. This is the same merge
/// discipline `gocast_sim`'s `parallel_map` uses for simulator shards.
fn merge_event_streams(
    dst: &mut Vec<(SimTime, NodeId, GoCastEvent)>,
    streams: Vec<&mut Vec<(SimTime, NodeId, GoCastEvent)>>,
) {
    let start = dst.len();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    if total == 0 {
        return;
    }
    dst.reserve(total);
    for stream in streams {
        dst.append(stream);
    }
    dst[start..].sort_by_key(|(t, _, _)| *t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast::GoCastCommand;
    use gocast_sim::scenario::{Scenario, ScenarioEnv, Split};

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
    fn merged_trace_is_time_sorted_with_stable_ties() {
        let ev = || GoCastEvent::Injected {
            id: gocast::MsgId {
                origin: NodeId::new(0),
                seq: 0,
            },
        };
        let t = SimTime::from_nanos;
        // Two synthetic shard streams with an equal-time collision at 5.
        let mut a = vec![
            (t(1), NodeId::new(0), ev()),
            (t(5), NodeId::new(0), ev()),
            (t(9), NodeId::new(2), ev()),
        ];
        let mut b = vec![(t(2), NodeId::new(1), ev()), (t(5), NodeId::new(1), ev())];
        let mut merged = Vec::new();
        merge_event_streams(&mut merged, vec![&mut a, &mut b]);
        let order: Vec<(u64, u32)> = merged
            .iter()
            .map(|(t, n, _)| (t.as_nanos(), n.as_u32()))
            .collect();
        // Time-sorted; the tie at t=5 keeps shard order (shard 0 first).
        assert_eq!(order, vec![(1, 0), (2, 1), (5, 0), (5, 1), (9, 2)]);
        assert!(a.is_empty() && b.is_empty(), "streams must be drained");
        // Merging the next window appends after the existing tail.
        let mut c = vec![(t(11), NodeId::new(1), ev())];
        merge_event_streams(&mut merged, vec![&mut c]);
        assert_eq!(merged.len(), 6);
        assert_eq!(merged[5].0, t(11));
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
        let mid = net.stats().dropped_partition;
        assert!(mid > 0, "partition never dropped a datagram on the wire");
        net.run_for(Duration::from_millis(1000));
        let healed = net.stats().dropped_partition;
        net.run_for(Duration::from_millis(500));
        assert_eq!(
            net.stats().dropped_partition,
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
        assert!(
            net.stats().dropped_crashed > 0,
            "no traffic hit the crash wall"
        );
    }

    /// Regression: with jitter holding datagrams back, the idle sleep
    /// must wake for the jitter-queue head (not only timer wheels), so
    /// held datagrams release on time and deliveries still happen
    /// promptly.
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
