//! The experiment pipeline: **build → warm → plan → inject → drive →
//! audit**, each phase written once.
//!
//! The paper evaluates every claim with one method — adapt the overlay,
//! optionally fail nodes or apply churn, inject a message stream, drain,
//! measure — and every subcommand is a configuration of the phases here
//! (DESIGN.md's experiment index lists which kernel, stack, scenario,
//! source rule and observers each one picks):
//!
//! 1. **build** — a network ([`build_network`] on the one-lane kernel,
//!    [`scale_network`] on the 64-lane one), the standard bootstrap graph
//!    ([`bootstrapped`]), one [`RunRecorder`], and [`Run::serial`] or
//!    [`Run::sharded`];
//! 2. **warm** — [`Run::warm`], unobserved;
//! 3. **plan** — [`compile_plan`] + [`Run::schedule`] for a fault
//!    scenario, or [`Run::crash_and_freeze`] for Figure 3(b)'s failure set;
//! 4. **inject** — [`inject`], the only workload loop, with the source
//!    rule as data ([`Sources`]);
//! 5. **drive** — [`Run::drive`] to the [`horizon`], or
//!    [`Run::observe_every`] when the configuration samples the run;
//! 6. **audit** — [`Run::delays`] and [`Run::finish`] /
//!    [`Run::finish_audited`] (the presence-aware store audit), which
//!    distil the [`RunCore`] every outcome embeds.
//!
//! # Determinism and `--jobs`
//!
//! Every topology, bootstrap graph, failure draw, scenario plan and
//! workload stream is seeded from [`ExpOptions::seed`]; a run is a
//! function of its options. Independent runs therefore fan across
//! `--jobs` worker threads ([`crate::sweep::per_seed`]) and merge in
//! submission order, and `--sim-shards` only spreads the fixed lanes of one
//! run over threads: every manifest, summary string and CSV is
//! byte-identical at any value of either. `--trace-out` and
//! `--metrics-out` number their files in run-start order, so they force
//! `--jobs 1` ([`ExpOptions::effective_jobs`]); neither changes a run.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use gocast::{bootstrap_random_graph, GoCastConfig, GoCastEvent, GoCastNode};
use gocast_analysis::{Cdf, InvariantOracle, MetricsRecorder, RecoveryTracker, WindowRatio};
use gocast_metrics::{ProtocolMetrics, RunManifest, Snapshot};
use gocast_net::{synthetic_king, OnDemandKing, SiteLatencyMatrix, SyntheticKingConfig};
use gocast_sim::{
    Engine, KernelStats, Lanes, LatencyModel, Mode, NodeId, NullRecorder, OneLane,
    PresenceTimeline, Protocol, Recorder, Scenario, ScenarioEnv, ScenarioPlan, ShardedSimBuilder,
    SimBuilder, SimTime, Stack, TraceRecorder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::options::{ExpOptions, StackKind};
use crate::report::log_kernel;

/// Width of the sliding delivery-ratio windows audited runs report.
const WINDOW: Duration = Duration::from_secs(5);

/// Salt of the standard workload stream: sources (and any draws the
/// command needs) come from `seed ^ WORKLOAD`.
pub const WORKLOAD: u64 = 0x5EED;

/// Distinguishes traces when one process runs several simulations (e.g.
/// `fig3a` runs five protocols): run `k > 0` writes `<stem>.<k>.<ext>`.
static TRACE_RUN: AtomicU32 = AtomicU32::new(0);
/// Same numbering, independently, for `--metrics-out` JSONL streams.
static METRICS_RUN: AtomicU32 = AtomicU32::new(0);

type JsonlSink = TraceRecorder<io::BufWriter<File>>;

/// Opens the `k`-th manifest-stamped JSONL sink under `base`: the
/// provenance line goes in first, then the `TraceRecorder` takes over the
/// stream. An open failure warns and disables the stream for the run
/// rather than aborting it.
fn open_numbered(
    base: &Path,
    run: &AtomicU32,
    what: &str,
    manifest: &RunManifest,
) -> Option<JsonlSink> {
    use io::Write as _;
    let k = run.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = if k == 0 {
        base.to_path_buf()
    } else {
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        base.with_file_name(match base.extension().and_then(|e| e.to_str()) {
            Some(ext) => format!("{stem}.{k}.{ext}"),
            None => format!("{stem}.{k}"),
        })
    };
    let open = || -> io::Result<JsonlSink> {
        let mut file = io::BufWriter::new(File::create(&path)?);
        writeln!(file, "{}", manifest.json_line())?;
        Ok(TraceRecorder::new(file))
    };
    match open() {
        Ok(sink) => {
            eprintln!("{what} to {}", path.display());
            Some(sink)
        }
        Err(e) => {
            eprintln!("warning: cannot open {what} {}: {e}", path.display());
            None
        }
    }
}

/// A `--metrics-out` JSONL stream: one manifest line, then one
/// `"ev":"metrics"` snapshot line per sample, deterministic fields only
/// (wall-clock metric entries are excluded by the snapshot encoder).
#[derive(Debug)]
pub struct MetricsStream {
    rec: JsonlSink,
}

impl MetricsStream {
    /// Opens the stream named by `opts.metrics_out`, if set.
    pub fn open(opts: &ExpOptions, manifest: &RunManifest) -> Option<MetricsStream> {
        let base = opts.metrics_out.as_ref()?;
        open_numbered(base, &METRICS_RUN, "metrics", manifest).map(|rec| MetricsStream { rec })
    }

    /// Appends one snapshot line stamped with simulation time `now`.
    pub fn sample(&mut self, now: SimTime, snap: &Snapshot) {
        self.rec.record(now, NodeId::new(0), snap.clone());
    }
}

/// The online invariant oracle plus the per-message injection bookkeeping
/// the end-of-run store audit reads.
#[derive(Debug)]
struct Audit {
    oracle: InvariantOracle,
    /// Injection times and per-message delivery counts.
    recovery: RecoveryTracker,
}

/// The recorder every run installs: capability-neutral protocol counters
/// and the aggregating [`MetricsRecorder`] always, a JSONL causal-trace
/// sink under `--trace-out`, the snapshot stream under `--metrics-out`,
/// the oracle and injection bookkeeping for audited runs, and a typed slot `X` for what
/// the configuration adds (orphan spells and hop counts for chaos,
/// convergence and per-topic counters for the application tier), fed the
/// same event stream.
#[derive(Debug)]
pub struct RunRecorder<X = NullRecorder> {
    /// Capability-neutral protocol counters (pushes, IHAVEs, pulls, ...).
    pub proto: ProtocolMetrics,
    /// Delivery aggregates (per-node delays, redundancy, link churn).
    pub metrics: MetricsRecorder,
    trace: Option<JsonlSink>,
    stream: Option<MetricsStream>,
    /// `None`: the run is not audited.
    audit: Option<Audit>,
    /// The configuration's extension slot.
    pub ext: X,
}

impl<X: Recorder<GoCastEvent>> RunRecorder<X> {
    /// A recorder with no JSONL sinks (wire replays, which feed it a
    /// captured trace).
    pub fn detached(oracle: Option<InvariantOracle>, ext: X) -> Self {
        RunRecorder {
            proto: ProtocolMetrics::default(),
            metrics: MetricsRecorder::new(),
            trace: None,
            stream: None,
            audit: oracle.map(|oracle| Audit {
                oracle,
                recovery: RecoveryTracker::new(WINDOW),
            }),
            ext,
        }
    }

    /// A recorder honoring `opts.trace_out` and `opts.metrics_out`, both
    /// stamped with `manifest`.
    pub fn for_opts(
        opts: &ExpOptions,
        manifest: &RunManifest,
        oracle: Option<InvariantOracle>,
        ext: X,
    ) -> Self {
        let trace = opts.trace_out.as_ref().and_then(|base| {
            let sink = open_numbered(base, &TRACE_RUN, "tracing", manifest)?;
            // GoCast traces keep the historic untagged schema (readers
            // default a missing `proto` to gocast); other stacks are
            // tagged explicitly.
            Some(match opts.stack {
                StackKind::GoCast => sink,
                other => sink.with_proto(other.name()),
            })
        });
        RunRecorder {
            trace,
            stream: MetricsStream::open(opts, manifest),
            ..Self::detached(oracle, ext)
        }
    }
}

impl<X: Recorder<GoCastEvent>> Recorder<GoCastEvent> for RunRecorder<X> {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        event.observe_into(&mut self.proto);
        if let Some(trace) = &mut self.trace {
            trace.record(now, node, event.clone());
        }
        if let Some(audit) = &mut self.audit {
            audit.recovery.record(now, node, event.clone());
            audit.oracle.record(now, node, event.clone());
        }
        self.ext.record(now, node, event.clone());
        self.metrics.record(now, node, event);
    }
}

/// What the outcome of every run carries, whatever the configuration.
#[derive(Debug, Default)]
pub struct RunCore {
    /// Workload commands injected.
    pub injected: u64,
    /// Concrete faults in the compiled plan (crashed nodes, for a
    /// failure set).
    pub plan_len: usize,
    /// Deliveries the store audit found owed (present-at-injection,
    /// never-departing nodes, origin excluded, summed over messages; 0
    /// when the run has no store audit).
    pub expected: u64,
    /// Owed deliveries found in message stores at the end of the run.
    pub delivered: u64,
    /// Records the invariant oracle checked (0 for an unaudited run).
    pub oracle_records: u64,
    /// Invariant violations found (should be 0).
    pub violations: usize,
    /// The first few violations, formatted (empty on a clean run) — so a
    /// failing gate says *what* broke, not just that something did.
    pub violation_lines: Vec<String>,
    /// Kernel counters at the end of the run (zeroed default on the wire).
    pub kernel: KernelStats,
    /// Final combined metrics snapshot (kernel or fabric + protocol).
    pub metrics: Snapshot,
}

impl RunCore {
    /// Closes the oracle and distils the core from a finished recorder;
    /// `metrics` arrives holding the host's (kernel or fabric) entries.
    pub fn distil<X: Recorder<GoCastEvent>>(
        rec: &mut RunRecorder<X>,
        injected: u64,
        plan_len: usize,
        kernel: KernelStats,
        mut metrics: Snapshot,
    ) -> RunCore {
        rec.proto.snapshot_into(&mut metrics);
        let mut core = RunCore {
            injected,
            plan_len,
            kernel,
            metrics,
            ..RunCore::default()
        };
        if let Some(audit) = &mut rec.audit {
            audit.oracle.finish();
            let found = audit.oracle.violations();
            core.oracle_records = audit.oracle.records_checked();
            core.violations = found.len();
            core.violation_lines = found.iter().take(8).map(|v| v.to_string()).collect();
        }
        core
    }

    /// Reports the violations found on stderr under `tag`; the run's
    /// exit-code contribution (1 if there were any).
    pub fn oracle_gate(&self, tag: &str) -> i32 {
        for line in &self.violation_lines {
            eprintln!("  violation [{tag}]: {line}");
        }
        i32::from(self.violations > 0)
    }

    /// `delivered / expected` (1.0 when nothing was owed).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// The synthetic-King parameters of an option set.
fn king_config(opts: &ExpOptions) -> SyntheticKingConfig {
    SyntheticKingConfig {
        sites: opts.sites.min(opts.nodes.max(16)),
        seed: opts.seed ^ 0x4B494E47, // "KING"
        ..Default::default()
    }
}

/// The one-lane kernel's network: the synthetic-King site latency matrix.
pub fn build_network(opts: &ExpOptions) -> SiteLatencyMatrix {
    synthetic_king(opts.nodes, &king_config(opts))
}

/// The 64-lane kernel's network: the same synthetic-King sites with
/// O(sites) memory, every pairwise latency synthesized on demand.
pub fn scale_network(opts: &ExpOptions) -> OnDemandKing {
    OnDemandKing::new(opts.nodes, &king_config(opts))
}

/// Wraps a node constructor with the standard bootstrap graph: `make`
/// receives each node's initial links and member sample.
pub fn bootstrapped<S>(
    opts: &ExpOptions,
    links_per_node: usize,
    mut make: impl FnMut(NodeId, Vec<NodeId>, Vec<NodeId>) -> S,
) -> impl FnMut(NodeId) -> S {
    let links = links_per_node.max(1).min(opts.nodes.saturating_sub(1));
    let mut boot = bootstrap_random_graph(opts.nodes, links, opts.seed ^ 0xB007);
    move |id| {
        let (links, members) = boot(id);
        make(id, links, members)
    }
}

/// GoCast nodes in the paper's standard bootstrap state (`C_degree / 2`
/// random links each).
pub fn gocast_nodes(opts: &ExpOptions, cfg: &GoCastConfig) -> impl FnMut(NodeId) -> GoCastNode {
    let cfg = cfg.clone();
    bootstrapped(opts, cfg.c_degree() / 2, move |id, links, members| {
        GoCastNode::with_initial_links(id, cfg.clone(), links, members)
    })
}

/// Garbage collection pushed past any run, so the end-of-run store audit
/// can still read every message (the default 120 s collection would erase
/// the evidence mid-run).
pub const AUDIT_GC_WAIT: Duration = Duration::from_secs(3600);

/// GoCast defaults with stores kept for the audit ([`AUDIT_GC_WAIT`]).
pub fn audited_gocast() -> GoCastConfig {
    GoCastConfig {
        gc_wait: AUDIT_GC_WAIT,
        ..GoCastConfig::default()
    }
}

/// Compiles `scenario` anchored at the end of warm-up, with `groups` (the
/// site map) as the fault-correlation group assignment.
pub fn compile_plan(opts: &ExpOptions, scenario: &Scenario, groups: &[u32]) -> ScenarioPlan {
    let env = ScenarioEnv::new(opts.nodes, opts.seed)
        .with_groups(groups)
        .starting_at(SimTime::ZERO + opts.warmup);
    scenario.compile(&env)
}

/// Where the workload's sources are drawn from.
#[derive(Debug)]
pub enum Sources<'a> {
    /// Uniformly from this list (the live nodes; every id when nobody has
    /// failed).
    Live(Vec<NodeId>),
    /// Uniformly over every id, redrawing until the plan says the node is
    /// present at send time (the plan never empties the population).
    Present(&'a PresenceTimeline),
}

/// The workload loop: `opts.messages` commands at `opts.rate` from
/// `start`, sources drawn from the `seed ^ salt` stream by the `sources`
/// rule. `command` turns `(index, send time, source)` into the node and
/// command to schedule, and may draw from the same stream.
pub fn inject<C>(
    opts: &ExpOptions,
    salt: u64,
    start: SimTime,
    sources: &Sources<'_>,
    mut command: impl FnMut(u32, SimTime, NodeId, &mut SmallRng) -> (NodeId, C),
    mut schedule: impl FnMut(SimTime, NodeId, C),
) {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ salt);
    for i in 0..opts.messages {
        let at = start + Duration::from_secs_f64(f64::from(i) / opts.rate);
        let src = match sources {
            Sources::Live(live) => live[rng.gen_range(0..live.len())],
            Sources::Present(presence) => loop {
                let cand = NodeId::new(rng.gen_range(0..opts.nodes as u32));
                if presence.present(cand, at) {
                    break cand;
                }
            },
        };
        let (node, cmd) = command(i, at, src, &mut rng);
        schedule(at, node, cmd);
    }
}

/// When a run ends: the later of the plan's last fault and the last
/// injection, plus the drain.
pub fn horizon(opts: &ExpOptions, start: SimTime, plan: Option<&ScenarioPlan>) -> SimTime {
    plan.and_then(ScenarioPlan::end)
        .unwrap_or(start)
        .max(start + opts.inject_duration())
        + opts.drain
}

/// The one method the two engine modes do not share: `run_until` needs
/// `Send` nodes and messages on [`Lanes`] only.
pub trait Advance {
    /// Processes every event due by `deadline`, then moves the clock there.
    fn advance(&mut self, deadline: SimTime);
}

impl<P: Protocol, R: Recorder<P::Event>> Advance for Engine<P, R, OneLane> {
    fn advance(&mut self, deadline: SimTime) {
        self.run_until(deadline);
    }
}

impl<P, R> Advance for Engine<P, R, Lanes>
where
    P: Protocol + Send,
    P::Msg: Send,
    P::Command: Send,
    P::Event: Send,
    R: Recorder<P::Event>,
{
    fn advance(&mut self, deadline: SimTime) {
        self.run_until(deadline);
    }
}

/// One combined snapshot of everything the simulation knows: kernel
/// counters/telemetry plus the recorder's protocol metrics.
pub fn combined_snapshot<S, X, M>(sim: &Engine<S, RunRecorder<X>, M>) -> Snapshot
where
    S: Stack<Event = GoCastEvent>,
    X: Recorder<GoCastEvent>,
    M: Mode,
{
    let mut snap = sim.metrics_snapshot();
    sim.recorder().proto.snapshot_into(&mut snap);
    snap
}

/// One simulation moving through the pipeline's phases.
#[derive(Debug)]
pub struct Run<S, X, M>
where
    S: Stack<Event = GoCastEvent>,
    X: Recorder<GoCastEvent>,
    M: Mode,
{
    /// The simulation (configurations read nodes, statistics and the
    /// recorder through it).
    pub sim: Engine<S, RunRecorder<X>, M>,
}

impl<S: Stack<Event = GoCastEvent>, X: Recorder<GoCastEvent>> Run<S, X, OneLane> {
    /// Builds the run on the one-lane kernel. `pair_counts` turns on
    /// per-endpoint-pair traffic counting (link stress).
    pub fn serial(
        opts: &ExpOptions,
        net: impl LatencyModel + 'static,
        pair_counts: bool,
        recorder: RunRecorder<X>,
        make: impl FnMut(NodeId) -> S,
    ) -> Self {
        let mut builder = SimBuilder::new(net).seed(opts.seed);
        if pair_counts {
            builder = builder.track_pair_counts();
        }
        Run::over(opts, builder.build_with(recorder, make))
    }
}

impl<S: Stack<Event = GoCastEvent>, X: Recorder<GoCastEvent>> Run<S, X, Lanes> {
    /// Builds the run on the lane kernel: 64 lanes spread over
    /// `opts.sim_shards` worker threads.
    pub fn sharded(
        opts: &ExpOptions,
        net: impl LatencyModel + Send + Sync + 'static,
        recorder: RunRecorder<X>,
        make: impl FnMut(NodeId) -> S,
    ) -> Self {
        let builder = ShardedSimBuilder::new(net)
            .seed(opts.seed)
            .threads(opts.sim_shards);
        Run::over(opts, builder.build_with(recorder, make))
    }
}

impl<S: Stack<Event = GoCastEvent>, X: Recorder<GoCastEvent>, M: Mode> Run<S, X, M> {
    /// Wraps a built simulation; a `--metrics-out` stream also reports
    /// the kernel's deep telemetry, so that is turned on with it.
    fn over(opts: &ExpOptions, mut sim: Engine<S, RunRecorder<X>, M>) -> Self {
        if opts.metrics_out.is_some() {
            sim.enable_telemetry();
        }
        Run { sim }
    }
}

impl<S, X, M> Run<S, X, M>
where
    S: Stack<Event = GoCastEvent>,
    X: Recorder<GoCastEvent>,
    M: Mode,
    Engine<S, RunRecorder<X>, M>: Advance,
{
    /// Warm-up: adapts the overlay for `d` of simulated time, unobserved.
    pub fn warm(&mut self, d: Duration) {
        self.sim.advance(SimTime::ZERO + d);
    }

    /// Schedules every fault of a compiled plan, leaves and joins as the
    /// stack's own commands.
    pub fn schedule(&mut self, plan: &ScenarioPlan) {
        plan.schedule_into(&mut self.sim, S::cmd_join, S::cmd_leave);
    }

    /// Figure 3(b)'s fault: crashes a seeded `fail_frac` of the nodes at
    /// once and, with `freeze`, stops all repair on the survivors (stacks
    /// without a freeze command skip that). Returns the crash count.
    pub fn crash_and_freeze(&mut self, opts: &ExpOptions, fail_frac: f64, freeze: bool) -> usize {
        if fail_frac <= 0.0 {
            return 0;
        }
        let failed = failure_set(opts, fail_frac);
        for &id in &failed {
            self.sim.fail_node(id);
        }
        if freeze && S::cmd_freeze().is_some() {
            let live: Vec<NodeId> = self.sim.alive_nodes().collect();
            for id in live {
                let cmd = S::cmd_freeze().expect("checked above");
                self.sim.command_now(id, cmd);
            }
            let now = self.sim.now();
            self.sim.advance(now + Duration::from_millis(1));
        }
        failed.len()
    }

    /// Injects the standard multicast workload, starting 100 ms from now.
    /// Returns the start time.
    pub fn inject_multicasts(&mut self, opts: &ExpOptions, sources: &Sources<'_>) -> SimTime {
        let start = self.sim.now() + Duration::from_millis(100);
        inject(
            opts,
            WORKLOAD,
            start,
            sources,
            |_, _, src, _| (src, S::cmd_multicast()),
            |at, node, cmd| self.sim.schedule_command(at, node, cmd),
        );
        start
    }

    /// [`Sources::Live`] over the nodes alive now.
    pub fn live_sources(&self) -> Sources<'static> {
        Sources::Live(self.sim.alive_nodes().collect())
    }

    /// Advances to `t`, samples the `--metrics-out` stream, then calls
    /// `observe` — one slice of the drive loop.
    pub fn step_to(
        &mut self,
        t: SimTime,
        observe: &mut impl FnMut(&Engine<S, RunRecorder<X>, M>, SimTime),
    ) {
        self.sim.advance(t);
        if self.sim.recorder().stream.is_some() {
            let snap = combined_snapshot(&self.sim);
            if let Some(stream) = &mut self.sim.recorder_mut().stream {
                stream.sample(t, &snap);
            }
        }
        observe(&self.sim, t);
    }

    /// The drive loop: advances to `until` in slices of `every`,
    /// observing after each.
    pub fn observe_every(
        &mut self,
        until: SimTime,
        every: Duration,
        mut observe: impl FnMut(&Engine<S, RunRecorder<X>, M>, SimTime),
    ) {
        let mut t = self.sim.now();
        while t < until {
            t = (t + every).min(until);
            self.step_to(t, &mut observe);
        }
    }

    /// Drives to `until` with no observer of its own: in one-second
    /// slices when the `--metrics-out` stream is attached, in one call
    /// otherwise.
    pub fn drive(&mut self, until: SimTime) {
        if self.sim.recorder().stream.is_some() {
            self.observe_every(until, Duration::from_secs(1), |_, _| {});
        } else {
            self.sim.advance(until);
        }
    }

    /// Closes an audited run: [`Run::finish`] plus the store audit. A node
    /// owes a delivery of message `m` iff `owes(node, injection time)` and
    /// it is not the origin; a delivery counts when the store actually
    /// holds `m` ([`Stack::holds`]), independent of the event stream.
    /// Also returns the sliding-window delivery ratios over injection time
    /// (5 s windows), each message's expectation being what it is owed.
    pub fn finish_audited(
        &mut self,
        plan_len: usize,
        owes: impl Fn(NodeId, SimTime) -> bool,
    ) -> (RunCore, Vec<WindowRatio>) {
        let audit = self.sim.recorder().audit.as_ref();
        let recovery = &audit.expect("the run was built audited").recovery;
        let injections: Vec<_> = recovery.injections().collect();
        let mut owed = vec![0u64; injections.len()];
        let mut delivered = 0;
        for (n, node) in self.sim.iter_nodes() {
            for (k, (id, at)) in injections.iter().enumerate() {
                if n != id.origin && owes(n, *at) {
                    owed[k] += 1;
                    delivered += u64::from(node.holds(id.origin, id.seq));
                }
            }
        }
        // `windowed_ratios` asks in injection order, the order of `owed`.
        let mut per_message = owed.iter();
        let windows =
            recovery.windowed_ratios(|_, _| *per_message.next().expect("one per message"));
        let core = self.finish(injections.len() as u64, plan_len);
        let core = RunCore {
            expected: owed.iter().sum(),
            delivered,
            ..core
        };
        (core, windows)
    }

    /// Per-node average delivery delay over the live nodes that got every
    /// one of `opts.messages` messages, the number that did not, and the
    /// live count.
    pub fn delays(&self, opts: &ExpOptions) -> (Cdf, usize, usize) {
        let live: Vec<NodeId> = self.sim.alive_nodes().collect();
        let metrics = &self.sim.recorder().metrics;
        let (avg, incomplete) = metrics.per_node_average_delays(u64::from(opts.messages), &live);
        (avg, incomplete, live.len())
    }

    /// Closes the oracle, distils the run's [`RunCore`] and reports the
    /// kernel counters on stderr — every run prints its event throughput.
    pub fn finish(&mut self, injected: u64, plan_len: usize) -> RunCore {
        let (kernel, metrics) = (self.sim.kernel_stats(), self.sim.metrics_snapshot());
        log_kernel(&kernel);
        RunCore::distil(self.sim.recorder_mut(), injected, plan_len, kernel, metrics)
    }
}

fn failure_set(opts: &ExpOptions, fail_frac: f64) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xFA11);
    let k = (opts.nodes as f64 * fail_frac).round() as usize;
    let mut ids: Vec<u32> = (0..opts.nodes as u32).collect();
    for i in 0..k {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids.into_iter().map(NodeId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_set_is_deterministic_and_sized() {
        let mut opts = ExpOptions::quick();
        opts.nodes = 48;
        opts.seed = 5;
        let a = failure_set(&opts, 0.25);
        let b = failure_set(&opts, 0.25);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 12, "distinct");
    }

    #[test]
    fn horizon_covers_plan_injection_and_drain() {
        let opts = ExpOptions::quick(); // 2 s of injection, 30 s drain
        let start = SimTime::from_secs(60);
        assert_eq!(horizon(&opts, start, None), SimTime::from_secs(92));
        let groups = [0; 128];
        let late = Scenario::new().crash_at(Duration::from_secs(10), NodeId::new(3));
        let plan = compile_plan(&opts, &late, &groups);
        assert_eq!(plan.end(), Some(SimTime::from_secs(70)));
        assert_eq!(horizon(&opts, start, Some(&plan)), SimTime::from_secs(100));
    }

    #[test]
    fn both_source_rules_draw_one_value_per_message_when_nobody_is_absent() {
        let mut opts = ExpOptions::quick();
        opts.nodes = 40;
        opts.messages = 25;
        let presence = compile_plan(&opts, &Scenario::new(), &[0; 40]).presence();
        let draw = |sources: &Sources<'_>| {
            let mut out = Vec::new();
            inject(
                &opts,
                WORKLOAD,
                SimTime::ZERO,
                sources,
                |_, _, src, _| (src, ()),
                |at, node, ()| out.push((at, node)),
            );
            out
        };
        let live = Sources::Live((0..40).map(NodeId::new).collect());
        assert_eq!(draw(&live), draw(&Sources::Present(&presence)));
    }
}
