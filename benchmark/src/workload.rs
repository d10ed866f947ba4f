//! What the workloads share: run options, the node and kernel
//! abstractions that let one driver host bare or probed nodes on either
//! simulator, the fixed-work window loop, and the raw result of a pass.

use std::sync::Arc;
use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastMsg, GoCastNode, MsgId};
use gocast_app::{AppCommand, AppConfig, CrdtAudit, TopicDirectory, TopicMux};
use gocast_sim::{
    KernelStats, LatencyModel, NodeId, Protocol, ShardedSim, ShardedSimBuilder, Sim, SimBuilder,
    SimTime, Stack,
};

use crate::host::{HostDelta, HostMark};
use crate::metrics::{MetricSet, HANDLER_CLASSES, RUN_SECONDS};
use crate::probe::{
    clock_overhead_ns, CountingNet, NetCounters, NetReading, Probe, ProbeStats, APP_SPANS,
    CORE_SPANS,
};
use crate::record::{Audit, BenchRecorder, DelaySummary, RecorderClock, Tally};
use crate::stats::median;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seeds the traffic: the order and timing of who sends what. The
    /// deployment (latency model, bootstrap graph, protocol randomness,
    /// which nodes send) is a frozen constant of each workload, because
    /// root placement alone moves the median delay by a third (150–208 ms
    /// over six deployment seeds) while ten traffic seeds on one
    /// deployment stay within 165–175 ms.
    pub seed: u64,
    /// Nominal measured seconds; windows are sized for [`RUN_SECONDS`]
    /// and scale linearly with this.
    pub seconds: u32,
    /// Whether this is a pass of a traced run, which reports no `setup_s`
    /// and so sets up once instead of the workload's several times.
    pub traced_run: bool,
}

impl Opts {
    /// `nominal` units of fixed work at [`RUN_SECONDS`], scaled to
    /// `self.seconds` (at least one).
    pub fn scaled(&self, nominal: u32) -> u32 {
        let n = u64::from(nominal) * u64::from(self.seconds);
        ((n + u64::from(RUN_SECONDS) / 2) / u64::from(RUN_SECONDS)).max(1) as u32
    }

    /// How many of a workload's `nominal` set-ups this pass makes.
    pub fn setups(&self, nominal: u32) -> u32 {
        if self.traced_run {
            1
        } else {
            nominal
        }
    }
}

/// What [`set_up`] hands back.
#[derive(Debug)]
pub struct SetUp<B> {
    /// The last simulator built; the others were dropped.
    pub built: B,
    /// Wall seconds of every set-up.
    pub setup_s: Vec<f64>,
    /// Resident set after the first set-up (later ones reuse freed
    /// memory).
    pub warm_rss: u64,
}

/// Builds and warms a simulator `times` times (at least once), each from
/// scratch with the previous one freed first; `setup_s` is the median.
/// One set-up is a second to ten of wall clock on a shared host, where
/// identical work varies by a tenth from one moment to the next, so each
/// workload repeats its set-up as often as ten to thirty seconds allow.
pub fn set_up<B>(times: u32, mut build_and_warm: impl FnMut() -> B) -> SetUp<B> {
    let mut setup_s = Vec::new();
    let mut warm_rss = 0;
    let mut built = None;
    for i in 0..times.max(1) {
        drop(built.take());
        let t0 = std::time::Instant::now();
        built = Some(build_and_warm());
        setup_s.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            warm_rss = crate::host::rss_bytes();
        }
    }
    SetUp {
        built: built.expect("at least one set-up"),
        setup_s,
        warm_rss,
    }
}

/// Seed of every workload's frozen deployment, and the two streams
/// derived from it the way the experiment runners derive theirs.
pub const DEPLOY_SEED: u64 = 7;
pub const NET_SEED: u64 = DEPLOY_SEED ^ 0x4B49_4E47;
pub const BOOT_SEED: u64 = DEPLOY_SEED ^ 0xB007;

/// A freshly built simulator `K` and what building it cost.
#[derive(Debug)]
pub struct Built<K> {
    pub sim: K,
    pub net_build_s: f64,
    /// Lookup counters, when the latency model is wrapped (probed pass).
    pub net: Option<Arc<NetCounters>>,
}

/// Times `model`, wraps it in a [`CountingNet`] for a probed pass, and
/// builds the simulator on it with `finish`.
fn build_on<M, K, NetBox>(
    probed: bool,
    model: impl FnOnce() -> M,
    boxed: (
        impl FnOnce(M) -> NetBox,
        impl FnOnce(CountingNet<M>) -> NetBox,
    ),
    finish: impl FnOnce(NetBox) -> K,
) -> Built<K> {
    let t0 = std::time::Instant::now();
    let model = model();
    let net_build_s = t0.elapsed().as_secs_f64();
    let (net_box, net) = if probed {
        let (net, counters) = CountingNet::new(model);
        (boxed.1(net), Some(counters))
    } else {
        (boxed.0(model), None)
    };
    Built {
        sim: finish(net_box),
        net_build_s,
        net,
    }
}

/// A serial `Sim` of `nodes` nodes made by `make` on `model`, with the
/// benchmark's recorder (traced when `probed`).
pub fn build_serial<N, M>(
    probed: bool,
    nodes: usize,
    cfg: &GoCastConfig,
    model: impl FnOnce() -> M,
    make: impl FnMut(NodeId) -> N,
) -> Built<Sim<N, BenchRecorder>>
where
    N: Protocol<Event = GoCastEvent>,
    M: LatencyModel + 'static,
{
    let rec = BenchRecorder::new(nodes, probed.then_some(cfg));
    build_on(
        probed,
        model,
        (SimBuilder::new, SimBuilder::new),
        |builder: SimBuilder| builder.seed(DEPLOY_SEED).build_with(rec, make),
    )
}

/// A `ShardedSim` likewise, on one driving thread: the load generator
/// must not compete with the system under test on a two-core host.
pub fn build_sharded<N, M>(
    probed: bool,
    nodes: usize,
    cfg: &GoCastConfig,
    model: impl FnOnce() -> M,
    make: impl FnMut(NodeId) -> N,
) -> Built<ShardedSim<N, BenchRecorder>>
where
    N: Protocol<Event = GoCastEvent>,
    M: LatencyModel + Send + Sync + 'static,
{
    let rec = BenchRecorder::new(nodes, probed.then_some(cfg));
    build_on(
        probed,
        model,
        (ShardedSimBuilder::new, ShardedSimBuilder::new),
        |builder: ShardedSimBuilder| builder.seed(DEPLOY_SEED).threads(1).build_with(rec, make),
    )
}

/// A node of the three GoCast-only workloads: bare, or behind a probe.
pub trait CoreNode:
    Stack<Msg = GoCastMsg, Event = GoCastEvent, Command = GoCastCommand> + Send + 'static
{
    const PROBED: bool;
    fn wrap(node: GoCastNode) -> Self;
    fn probe(&self) -> Option<&ProbeStats>;
}

impl CoreNode for GoCastNode {
    const PROBED: bool = false;
    fn wrap(node: GoCastNode) -> Self {
        node
    }
    fn probe(&self) -> Option<&ProbeStats> {
        None
    }
}

impl CoreNode for Probe<GoCastNode> {
    const PROBED: bool = true;
    fn wrap(node: GoCastNode) -> Self {
        Probe::new(node, CORE_SPANS)
    }
    fn probe(&self) -> Option<&ProbeStats> {
        Some(&self.stats)
    }
}

/// A node of the application workload: a bare mux over a bare node, or a
/// probed mux over a probed node.
pub trait AppNode:
    Stack<Msg = GoCastMsg, Event = GoCastEvent, Command = AppCommand<GoCastCommand>> + Send + 'static
{
    const PROBED: bool;
    fn build(id: NodeId, core: GoCastNode, dir: Arc<TopicDirectory>, cfg: AppConfig) -> Self;
    fn observe(&self, audit: &mut CrdtAudit);
    fn topic_deliveries(&self) -> u64;
    /// `(around the mux, around the node inside it)`.
    fn probes(&self) -> Option<(&ProbeStats, &ProbeStats)>;
}

impl AppNode for TopicMux<GoCastNode> {
    const PROBED: bool = false;
    fn build(id: NodeId, core: GoCastNode, dir: Arc<TopicDirectory>, cfg: AppConfig) -> Self {
        TopicMux::new(id, core, dir, cfg)
    }
    fn observe(&self, audit: &mut CrdtAudit) {
        audit.observe(self);
    }
    fn topic_deliveries(&self) -> u64 {
        TopicMux::topic_deliveries(self)
    }
    fn probes(&self) -> Option<(&ProbeStats, &ProbeStats)> {
        None
    }
}

impl AppNode for Probe<TopicMux<Probe<GoCastNode>>> {
    const PROBED: bool = true;
    fn build(id: NodeId, core: GoCastNode, dir: Arc<TopicDirectory>, cfg: AppConfig) -> Self {
        let mux = TopicMux::new(id, Probe::new(core, CORE_SPANS), dir, cfg);
        Probe::new(mux, APP_SPANS)
    }
    fn observe(&self, audit: &mut CrdtAudit) {
        audit.observe(self.inner());
    }
    fn topic_deliveries(&self) -> u64 {
        self.inner().topic_deliveries()
    }
    fn probes(&self) -> Option<(&ProbeStats, &ProbeStats)> {
        Some((&self.stats, &self.inner().inner().stats))
    }
}

/// The part of a simulator the window loop drives, over `Sim` and
/// `ShardedSim` alike.
pub trait Kernel {
    type Node: Protocol;
    fn run_for(&mut self, d: Duration);
    fn now(&self) -> SimTime;
    fn schedule_command(
        &mut self,
        at: SimTime,
        node: NodeId,
        cmd: <Self::Node as Protocol>::Command,
    );
    fn fail_node(&mut self, node: NodeId);
    fn bytes_sent(&self) -> u64;
    fn kernel_stats(&self) -> KernelStats;
    fn tally(&self) -> &Tally;
    fn rec_mut(&mut self) -> &mut BenchRecorder;
    fn nodes(&self) -> Box<dyn Iterator<Item = &Self::Node> + '_>;
}

impl<N: Protocol<Event = GoCastEvent>> Kernel for Sim<N, BenchRecorder> {
    type Node = N;
    fn run_for(&mut self, d: Duration) {
        Sim::run_for(self, d)
    }
    fn now(&self) -> SimTime {
        Sim::now(self)
    }
    fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: N::Command) {
        Sim::schedule_command(self, at, node, cmd)
    }
    fn fail_node(&mut self, node: NodeId) {
        Sim::fail_node(self, node)
    }
    fn bytes_sent(&self) -> u64 {
        self.stats().total().bytes
    }
    fn kernel_stats(&self) -> KernelStats {
        Sim::kernel_stats(self)
    }
    fn tally(&self) -> &Tally {
        &self.recorder().tally
    }
    fn rec_mut(&mut self) -> &mut BenchRecorder {
        self.recorder_mut()
    }
    fn nodes(&self) -> Box<dyn Iterator<Item = &N> + '_> {
        Box::new(self.iter_nodes().map(|(_, n)| n))
    }
}

impl<N> Kernel for ShardedSim<N, BenchRecorder>
where
    N: Protocol<Event = GoCastEvent> + Send,
    N::Msg: Send,
    N::Command: Send,
{
    type Node = N;
    fn run_for(&mut self, d: Duration) {
        ShardedSim::run_for(self, d)
    }
    fn now(&self) -> SimTime {
        ShardedSim::now(self)
    }
    fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: N::Command) {
        ShardedSim::schedule_command(self, at, node, cmd)
    }
    fn fail_node(&mut self, node: NodeId) {
        ShardedSim::fail_node(self, node)
    }
    fn bytes_sent(&self) -> u64 {
        self.stats().total().bytes
    }
    fn kernel_stats(&self) -> KernelStats {
        ShardedSim::kernel_stats(self)
    }
    fn tally(&self) -> &Tally {
        &self.recorder().tally
    }
    fn rec_mut(&mut self) -> &mut BenchRecorder {
        self.recorder_mut()
    }
    fn nodes(&self) -> Box<dyn Iterator<Item = &N> + '_> {
        Box::new(self.iter_nodes().map(|(_, n)| n))
    }
}

/// What one slice of a window cost and produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// First deliveries made during the slice.
    pub deliveries: u64,
}

/// The wall-clock cost of a window. On the shared two-vCPU host this was
/// written on, identical work ran 12.3–17.7 s in eight consecutive runs,
/// so neither number repeats within a tenth: both are per-layer metrics
/// (`window.*`), reported for attribution and gated by nothing.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// First deliveries per wall second.
    pub deliveries_per_s: f64,
    /// Process CPU time (all threads, `schedstat`) per first delivery, us.
    pub cpu_us_per_delivery: f64,
}

impl std::fmt::Display for Pace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pace (wall clock, not gated): {:.1} deliveries/s, {:.4} us CPU per delivery",
            self.deliveries_per_s, self.cpu_us_per_delivery
        )
    }
}

/// Timing of one fixed-work window on a simulator.
#[derive(Debug, Clone)]
pub struct SimWindow {
    pub slices: Vec<Slice>,
    pub drain: Slice,
    /// Host activity over slices plus drain.
    pub host_with_drain: HostDelta,
    /// Bytes all nodes sent over slices plus drain.
    pub bytes: u64,
    /// Kernel events over slices plus drain.
    pub events: u64,
    /// Simulated seconds the slices cover.
    pub sim_secs: f64,
    /// Simulated seconds of slices plus drain.
    pub sim_secs_with_drain: f64,
}

impl SimWindow {
    /// Wall seconds of the slices (drain excluded).
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e9
    }

    /// What the window cost: the median over slices of each ratio, so a
    /// hiccup of the host in a few slices does not move it.
    pub fn pace(&self) -> Pace {
        let busy = || self.slices.iter().filter(|s| s.deliveries > 0);
        let per_s: Vec<f64> = busy()
            .map(|s| s.deliveries as f64 / (s.wall_ns.max(1) as f64 / 1e9))
            .collect();
        let cpu_us: Vec<f64> = busy()
            .map(|s| s.cpu_ns as f64 / 1e3 / s.deliveries as f64)
            .collect();
        Pace {
            deliveries_per_s: median(&per_s),
            cpu_us_per_delivery: median(&cpu_us),
        }
    }

    /// The line that reports what the set-ups and the window cost.
    pub fn line(&self, setup_s: &[f64]) -> String {
        format!(
            "wall: set-ups {:?} s, window {:.3} s in {} slices, drain {:.3} s; {} kernel events",
            setup_s
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            self.wall_s(),
            self.slices.len(),
            self.drain.wall_ns as f64 / 1e9,
            self.events
        )
    }
}

/// Runs `slices` slices of `slice` simulated time each — fixed work: the
/// same events at a given seed whatever the clock does — then `drain`.
pub fn run_window<K: Kernel>(
    k: &mut K,
    slices: u32,
    slice: Duration,
    drain: Duration,
) -> SimWindow {
    let bytes0 = k.bytes_sent();
    let events0 = k.kernel_stats().events_processed;
    let mark0 = HostMark::now();
    let mut parts = Vec::with_capacity(slices as usize + 1);
    let mut last = (mark0.wall_ns, mark0.cpu_ns, k.tally().deliveries);
    for part in 0..=slices {
        k.run_for(if part < slices { slice } else { drain });
        let now = (
            crate::host::now_ns(),
            crate::host::sched_ns().0,
            k.tally().deliveries,
        );
        parts.push(Slice {
            wall_ns: now.0 - last.0,
            cpu_ns: now.1.saturating_sub(last.1),
            deliveries: now.2 - last.2,
        });
        last = now;
    }
    let drain_part = parts.pop().expect("the drain is the last part");
    SimWindow {
        slices: parts,
        drain: drain_part,
        host_with_drain: HostDelta::between(&mark0, &HostMark::now()),
        bytes: k.bytes_sent() - bytes0,
        events: k.kernel_stats().events_processed - events0,
        sim_secs: slice.as_secs_f64() * f64::from(slices),
        sim_secs_with_drain: slice.as_secs_f64() * f64::from(slices) + drain.as_secs_f64(),
    }
}

/// The `MsgId` each command of an open-loop schedule will get: commands
/// are listed in due order, and a node numbers its own messages upwards
/// from `first_seq` in the order it sends them.
pub fn assign_msg_ids(origins: &[NodeId], nodes: usize, first_seq: u32) -> Vec<MsgId> {
    let mut next = vec![first_seq; nodes];
    origins
        .iter()
        .map(|o| {
            let seq = next[o.index()];
            next[o.index()] += 1;
            MsgId::new(*o, seq)
        })
        .collect()
}

/// The raw result of one pass (traced or not) over a workload.
#[derive(Debug)]
pub struct Pass {
    pub e2e: MetricSet,
    /// Per-layer values this pass could measure (traced passes only).
    pub layers: Vec<(String, f64)>,
    /// What the pass cost, for the tracing-overhead ratio: window wall
    /// seconds on a simulator, CPU µs per delivery on the wire.
    pub cost: f64,
    pub pace: Pace,
    /// Resident set after the first warm-up per node, and its growth over
    /// the window per delivery. A traced run reports the untraced pass's:
    /// the traced pass starts on the memory the first one freed.
    pub rss_bytes_per_node: f64,
    pub rss_growth_bytes_per_delivery: f64,
    pub lines: Vec<String>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub disturbance: HostDelta,
}

/// Everything the end-to-end metrics are computed from.
#[derive(Debug)]
pub struct EndToEndInputs {
    pub setup_s: Vec<f64>,
    pub delays: DelaySummary,
    pub on_time: u64,
    pub audit: Audit,
    pub deliveries: u64,
    pub warm_rss_bytes: u64,
    pub bytes_sent: u64,
    pub goodput_bytes_per_s: f64,
}

impl EndToEndInputs {
    pub fn metrics(&self) -> MetricSet {
        let d = self.deliveries.max(1) as f64;
        let owed = self.audit.expected.max(1) as f64;
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", median(&self.setup_s));
        m.set("deliver_p50_ms", self.delays.p50_ms);
        m.set("on_time_frac", self.on_time as f64 / owed);
        m.set(
            "delivery_ratio",
            (self.audit.expected - self.audit.missing) as f64 / owed,
        );
        m.set(
            "warm_rss_mb",
            self.warm_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        m.set("bytes_per_delivery", self.bytes_sent as f64 / d);
        m.set("goodput_bytes_per_s", self.goodput_bytes_per_s);
        m
    }
}

/// Per-layer rows from summed probe statistics: `core.node.*`.
pub fn core_node_layers(core: &ProbeStats, window_wall_ns: u64, out: &mut Vec<(String, f64)>) {
    for (i, class) in HANDLER_CLASSES.iter().enumerate() {
        out.push((format!("core.node.{class}.calls"), core.calls[i] as f64));
        let per = if core.calls[i] == 0 {
            0.0
        } else {
            core.ns[i] as f64 / core.calls[i] as f64
        };
        out.push((format!("core.node.{class}.ns_per_call"), per));
    }
    out.push((
        "core.node.busy_frac".into(),
        core.total_ns() as f64 / window_wall_ns.max(1) as f64,
    ));
    out.push((
        "core.node.sends_per_call".into(),
        core.sends as f64 / core.total_calls().max(1) as f64,
    ));
}

/// Per-layer rows from the tally of protocol events: `core.*`.
pub fn core_protocol_layers(tally: &Tally, delays: &DelaySummary, out: &mut Vec<(String, f64)>) {
    let d = tally.deliveries.max(1) as f64;
    out.push(("core.redundancy".into(), tally.redundant as f64 / d));
    out.push(("core.pull_frac".into(), tally.pulled as f64 / d));
    out.push((
        "core.ihave_entries_per_delivery".into(),
        tally.ihave_entries as f64 / d,
    ));
    out.push(("core.mean_hops".into(), tally.hops as f64 / d));
    out.push(("core.drops_total".into(), tally.link_drops as f64));
    out.push(("core.deliver_p99_ms".into(), delays.p99_ms));
}

/// What a traced simulator pass measured around the kernel.
#[derive(Debug)]
pub struct KernelTrace<'a> {
    pub sharded: bool,
    pub nodes: usize,
    pub window: &'a SimWindow,
    /// Time inside every node-side handler (protocol and application).
    pub handler_ns: u64,
    pub lookups: NetReading,
    pub recorder: RecorderClock,
    pub stats: KernelStats,
    pub net_build_s: f64,
}

/// Per-layer rows around the kernel — `sim.*`, `net.lookup.*`,
/// `analysis.*`, RSS — plus the line that says where the traced window's
/// wall time went. Kernel self time is the residual: wall minus the time
/// inside node handlers, latency lookups and the recorder.
pub fn kernel_layers(t: &KernelTrace<'_>, out: &mut Vec<(String, f64)>) -> String {
    let clock_ns = clock_overhead_ns();
    let wall_ns = t.window.host_with_drain.wall_ns.max(1) as f64;
    let events = t.window.events.max(1) as f64;
    let lookup_ns = t.lookups.ns_per_call(clock_ns);
    let lookup_total = lookup_ns * t.lookups.calls as f64;
    let (tally_ns, oracle_ns, tracker_ns) = t.recorder.ns_per_event(clock_ns);
    let recorder_total = (tally_ns + oracle_ns + tracker_ns) * t.recorder.events as f64;
    let self_total = (wall_ns - t.handler_ns as f64 - lookup_total - recorder_total).max(0.0);

    let layer = if t.sharded { "sim.shard" } else { "sim.kernel" };
    let mut row = |name: String, v: f64| out.push((name, v));
    row(format!("{layer}.events"), t.window.events as f64);
    row(format!("{layer}.events_per_s"), events / (wall_ns / 1e9));
    row(format!("{layer}.self_ns_per_event"), self_total / events);
    row(
        "sim.kernel.queue_high_water".into(),
        t.stats.queue_high_water as f64,
    );
    row(
        "sim.kernel.queue_mem_bytes_per_node".into(),
        t.stats.queue_mem_bytes as f64 / t.nodes as f64,
    );
    row("sim.recorder.events".into(), t.recorder.events as f64);
    row("sim.recorder.ns_per_event".into(), tally_ns);
    row(
        "sim.sim_s_per_wall_s".into(),
        t.window.sim_secs_with_drain / (wall_ns / 1e9),
    );
    row("net.lookup.calls".into(), t.lookups.calls as f64);
    row("net.lookup.ns_per_call".into(), lookup_ns);
    row("net.build_s".into(), t.net_build_s);
    row("analysis.oracle.check_ns_per_event".into(), oracle_ns);
    row("analysis.tracker.ns_per_event".into(), tracker_ns);
    let pct = |ns: f64| 100.0 * ns / wall_ns;
    format!(
        "traced window+drain {:.3} s = node handlers {:.1}% + latency lookups {:.1}% + recorder, oracle, tracker {:.1}% + kernel self {:.1}% (the residual, probe replay included)",
        wall_ns / 1e9,
        pct(t.handler_ns as f64),
        pct(lookup_total),
        pct(recorder_total),
        pct(self_total),
    )
}

/// The model's conservative-parallelism lookahead, µs (0 when it
/// promises none).
pub fn lookahead_us(net: &dyn LatencyModel) -> f64 {
    net.lookahead().map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_ids_count_up_per_origin_in_due_order() {
        let o = |i| NodeId::new(i);
        let ids = assign_msg_ids(&[o(2), o(0), o(2), o(2), o(0)], 3, 10);
        let want = [(2, 10), (0, 10), (2, 11), (2, 12), (0, 11)];
        for (id, (origin, seq)) in ids.iter().zip(want) {
            assert_eq!(*id, MsgId::new(o(origin), seq));
        }
    }

    #[test]
    fn fixed_work_scales_with_seconds() {
        let at = |seconds| Opts {
            seed: 1,
            seconds,
            traced_run: false,
        };
        assert_eq!(at(RUN_SECONDS).scaled(60), 60);
        assert_eq!(at(RUN_SECONDS / 2).scaled(60), 30);
        assert_eq!(at(1).scaled(60), 5);
        assert_eq!(at(1).scaled(3), 1, "never less than one unit");
    }

    #[test]
    fn pace_is_the_median_over_slices() {
        let slice = |wall_ms: u64, cpu_ms: u64, deliveries: u64| Slice {
            wall_ns: wall_ms * 1_000_000,
            cpu_ns: cpu_ms * 1_000_000,
            deliveries,
        };
        // Five slices of 1000 deliveries; the host stalls in the third
        // (ten times the wall and CPU time), and a sixth delivers nothing.
        let window = SimWindow {
            slices: vec![
                slice(100, 90, 1000),
                slice(125, 100, 1000),
                slice(1000, 900, 1000),
                slice(80, 80, 1000),
                slice(100, 95, 1000),
                slice(50, 50, 0),
            ],
            drain: Slice::default(),
            host_with_drain: HostDelta::default(),
            bytes: 0,
            events: 0,
            sim_secs: 0.0,
            sim_secs_with_drain: 0.0,
        };
        let pace = window.pace();
        assert_eq!(pace.deliveries_per_s, 10_000.0, "the 100 ms slices");
        assert_eq!(pace.cpu_us_per_delivery, 95.0);
        // The total would have said 1000 * 5 / 1.405 s.
        assert!((window.wall_s() - 1.455).abs() < 1e-12);
    }

    #[test]
    fn set_up_repeats_and_keeps_the_last() {
        let mut built = 0;
        let out = set_up(3, || {
            built += 1;
            built
        });
        assert_eq!((out.built, out.setup_s.len()), (3, 3));
        assert_eq!(set_up(0, || ()).setup_s.len(), 1, "never less than one");
    }
}
