//! The experiment pipeline: **build → warm → plan → inject → drive →
//! audit**, each phase written once.
//!
//! The paper evaluates every claim with one method — adapt the overlay,
//! optionally fail nodes or apply churn, inject a message stream, drain,
//! measure — and every subcommand is a configuration of the phases here
//! (DESIGN.md's experiment index lists which kernel, stack, scenario,
//! source rule and observers each one picks):
//!
//! 1. **build** — a network ([`build_network`]'s latency matrix, or
//!    [`scale_network`]'s on-demand latencies at scale), the standard
//!    bootstrap graph ([`bootstrapped`]), one [`RunRecorder`], and
//!    [`Run::new`] on `--sim-shards` worker threads;
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
//! The wire host (`gocast_testnet::Testnet`) runs the same phases: the
//! same node constructor, a plan compiled over [`wire_groups`], the same
//! [`inject`] loop and [`horizon`], a [`RunRecorder`] it feeds as the
//! engine does (`Testnet::build_with`), and [`audit_wire`] in place of
//! [`Run::finish`].
//!
//! # Determinism and `--jobs`
//!
//! Every topology, bootstrap graph, failure draw, scenario plan and
//! workload stream is seeded from [`ExpOptions::seed`]; a run is a
//! function of its options. Independent runs therefore fan across
//! `--jobs` worker threads ([`crate::sweep::per_seed`]) and merge in
//! submission order, and `--sim-shards` only spreads one run's nodes over
//! the engine's worker threads: every manifest, summary string and CSV is
//! byte-identical at any value of either. `--trace-out` and
//! `--metrics-out` number their files in run-start order, so they force
//! `--jobs 1` ([`ExpOptions::effective_jobs`]); neither changes a run.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use gocast::{bootstrap_random_graph, GoCastConfig, GoCastEvent, GoCastMsg, GoCastNode};
use gocast_analysis::{Cdf, InvariantOracle, MetricsRecorder, WindowRatio};
use gocast_metrics::{RunManifest, Snapshot};
use gocast_net::{synthetic_king, OnDemandKing, SiteLatencyMatrix, SyntheticKingConfig};
use gocast_sim::{
    KernelStats, LatencyModel, NodeId, PresenceTimeline, Recorder, Scenario, ScenarioEnv,
    ScenarioPlan, ShardedSim, ShardedSimBuilder, SimTime, Stack, TraceRecorder,
};
use gocast_testnet::Testnet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::options::ExpOptions;
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

/// The recorder every run installs: the run's one counting recorder, the
/// [`MetricsRecorder`] ledger (deliveries, link churn, orphan spells and
/// the application tier), always; a JSONL causal-trace sink under
/// `--trace-out`, the snapshot stream under `--metrics-out`, and the
/// invariant oracle for audited runs, fed the same event stream.
#[derive(Debug)]
pub struct RunRecorder {
    /// The run's ledger.
    pub metrics: MetricsRecorder,
    trace: Option<JsonlSink>,
    stream: Option<MetricsStream>,
    /// `None`: the run is not audited.
    audit: Option<InvariantOracle>,
}

impl RunRecorder {
    /// A recorder with no JSONL sinks (the wire's, and the simulated side
    /// of the `testnet` comparison).
    pub fn detached(oracle: Option<InvariantOracle>) -> Self {
        RunRecorder {
            metrics: MetricsRecorder::new(),
            trace: None,
            stream: None,
            audit: oracle,
        }
    }

    /// A recorder honoring `opts.trace_out` and `opts.metrics_out`, both
    /// stamped with `manifest`.
    pub fn for_opts(
        opts: &ExpOptions,
        manifest: &RunManifest,
        oracle: Option<InvariantOracle>,
    ) -> Self {
        RunRecorder {
            trace: opts
                .trace_out
                .as_ref()
                .and_then(|base| open_numbered(base, &TRACE_RUN, "tracing", manifest)),
            stream: MetricsStream::open(opts, manifest),
            ..Self::detached(oracle)
        }
    }
}

impl Recorder<GoCastEvent> for RunRecorder {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(now, node, event.clone());
        }
        if let Some(oracle) = &mut self.audit {
            oracle.record(now, node, event.clone());
        }
        self.metrics.record(now, node, event);
    }
}

/// What the outcome of every run carries, whatever the configuration.
#[derive(Debug, Default)]
pub struct RunCore {
    /// Workload commands injected.
    pub injected: u64,
    /// The host's clock when the run finished: no event of the run, and
    /// no line of its trace, is later.
    pub end: SimTime,
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
    /// Kernel counters at the end of the run (on the wire: summed over
    /// the shards).
    pub kernel: KernelStats,
    /// Final combined metrics snapshot (kernel or fabric + protocol).
    pub metrics: Snapshot,
}

impl RunCore {
    /// Closes the oracle and distils the core from a finished recorder;
    /// `metrics` arrives holding the host's (kernel or fabric) entries.
    pub fn distil(
        rec: &mut RunRecorder,
        injected: u64,
        plan_len: usize,
        kernel: KernelStats,
        mut metrics: Snapshot,
    ) -> RunCore {
        ledger_snapshot_into(&rec.metrics, &mut metrics);
        let mut core = RunCore {
            injected,
            plan_len,
            kernel,
            metrics,
            ..RunCore::default()
        };
        if let Some(oracle) = &mut rec.audit {
            oracle.finish();
            let found = oracle.violations();
            core.oracle_records = oracle.records_checked();
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
    }
}

/// The figures' network: the synthetic-King site latency matrix.
pub fn build_network(opts: &ExpOptions) -> SiteLatencyMatrix {
    synthetic_king(opts.nodes, &king_config(opts))
}

/// The network at scale: the same synthetic-King sites with O(sites)
/// memory, every pairwise latency synthesized on demand.
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

/// The wire host's fault-correlation groups: a socket fabric has no
/// latency-derived site map, so synthetic quartets keep group-targeted
/// faults meaningful.
pub fn wire_groups(nodes: usize) -> Vec<u32> {
    (0..nodes as u32).map(|i| i % 4).collect()
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

/// The labelled topics' `(deliveries, bytes)` counter names. Topic ids
/// are popularity ranks under the Zipf subscription model, so these are
/// the most popular topics; every other topic folds into
/// `app_topic_other_*`, keeping a snapshot O(1) however many topics a run
/// hosts.
const APP_TOPIC_NAMES: [(&str, &str); 8] = [
    ("app_topic0_deliveries", "app_topic0_bytes"),
    ("app_topic1_deliveries", "app_topic1_bytes"),
    ("app_topic2_deliveries", "app_topic2_bytes"),
    ("app_topic3_deliveries", "app_topic3_bytes"),
    ("app_topic4_deliveries", "app_topic4_bytes"),
    ("app_topic5_deliveries", "app_topic5_bytes"),
    ("app_topic6_deliveries", "app_topic6_bytes"),
    ("app_topic7_deliveries", "app_topic7_bytes"),
];

/// Appends the ledger's counts to `snap` under stable names, the same on
/// every kernel and on the wire: the per-message `proto_*` counts and the
/// delivery-delay distribution `proto_delay_ns`, then —
/// once the application tier delivered a topic payload or published a
/// mutation — the `app_*` counts (labelled topics with deliveries, the
/// aggregate bucket, totals, mutations and subscription changes).
fn ledger_snapshot_into(ledger: &MetricsRecorder, snap: &mut Snapshot) {
    let d = ledger.delivery();
    snap.record_counter("proto_injected", d.injected());
    snap.record_counter("proto_deliveries", d.delivered());
    snap.record_counter("proto_pushes", d.pushes());
    snap.record_counter("proto_ihaves", d.ihaves());
    snap.record_counter("proto_pull_requests", d.pulls());
    snap.record_counter("proto_pulls_served", d.pulls_served());
    snap.record_counter("proto_redundant_drops", d.redundant());
    snap.record_histogram("proto_delay_ns", d.delay_histogram());
    let app = ledger.app().report();
    if app.topic_deliveries == 0 && app.mutations == 0 {
        return;
    }
    let mut other = (0, 0);
    for (topic, deliveries, bytes) in ledger.app().per_topic() {
        match APP_TOPIC_NAMES.get(topic as usize) {
            Some(&(d_name, b_name)) => {
                snap.record_counter(d_name, deliveries);
                snap.record_counter(b_name, bytes);
            }
            None => other = (other.0 + deliveries, other.1 + bytes),
        }
    }
    snap.record_counter("app_topic_other_deliveries", other.0);
    snap.record_counter("app_topic_other_bytes", other.1);
    snap.record_counter("app_deliveries_total", app.topic_deliveries);
    snap.record_counter("app_bytes_total", app.delivered_bytes);
    snap.record_counter("app_deltas_published", app.mutations);
    snap.record_counter("app_deltas_applied", app.applies);
    snap.record_counter("app_subscribes", app.subscribes);
    snap.record_counter("app_unsubscribes", app.unsubscribes);
}

/// The wire host's audit phase: distils the run's core from the
/// [`RunRecorder`] the fabric fed (built with [`Testnet::build_with`], as
/// an engine is built with its recorder) over the fabric's metrics. Read
/// the ledger from `net.recorder()` next.
pub fn audit_wire<N>(net: &mut Testnet<N, RunRecorder>, injected: u64, plan_len: usize) -> RunCore
where
    N: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    let (kernel, metrics, end) = (net.kernel_stats(), net.metrics_snapshot(), net.now());
    let core = RunCore::distil(net.recorder_mut(), injected, plan_len, kernel, metrics);
    RunCore { end, ..core }
}

/// One combined snapshot of everything the simulation knows: kernel
/// counters/telemetry plus the ledger's `proto_*` and `app_*` counts.
pub fn combined_snapshot<S: Stack<Event = GoCastEvent>>(
    sim: &ShardedSim<S, RunRecorder>,
) -> Snapshot {
    let mut snap = sim.metrics_snapshot();
    ledger_snapshot_into(&sim.recorder().metrics, &mut snap);
    snap
}

/// A stack the pipeline drives: its nodes, messages and commands move
/// between the engine's worker threads.
pub trait RunStack: Stack<Event = GoCastEvent, Msg: Send, Command: Send> + Send {}

impl<S: Stack<Event = GoCastEvent, Msg: Send, Command: Send> + Send> RunStack for S {}

/// One simulation moving through the pipeline's phases.
#[derive(Debug)]
pub struct Run<S: RunStack> {
    /// The simulation (configurations read nodes, statistics and the
    /// recorder through it).
    pub sim: ShardedSim<S, RunRecorder>,
}

impl<S: RunStack> Run<S> {
    /// Builds the run on `opts.sim_shards` worker threads, the same run at
    /// any count. `pair_counts` turns on per-endpoint-pair traffic
    /// counting (link stress); a `--metrics-out` stream also reports the
    /// kernel's deep telemetry, so that is turned on with it.
    pub fn new(
        opts: &ExpOptions,
        net: impl LatencyModel + Send + Sync + 'static,
        pair_counts: bool,
        recorder: RunRecorder,
        make: impl FnMut(NodeId) -> S,
    ) -> Self {
        let mut builder = ShardedSimBuilder::new(net)
            .seed(opts.seed)
            .threads(opts.sim_shards);
        if pair_counts {
            builder = builder.track_pair_counts();
        }
        let mut sim = builder.build_with(recorder, make);
        if opts.metrics_out.is_some() {
            sim.enable_telemetry();
        }
        Run { sim }
    }

    /// Warm-up: adapts the overlay for `d` of simulated time, unobserved.
    pub fn warm(&mut self, d: Duration) {
        self.sim.run_until(SimTime::ZERO + d);
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
            self.sim.run_until(now + Duration::from_millis(1));
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
        observe: &mut impl FnMut(&ShardedSim<S, RunRecorder>, SimTime),
    ) {
        self.sim.run_until(t);
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
        mut observe: impl FnMut(&ShardedSim<S, RunRecorder>, SimTime),
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
            self.sim.run_until(until);
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
        let ledger = self.sim.recorder().metrics.delivery();
        let injections: Vec<_> = ledger.injections().collect();
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
            ledger.windowed_ratios(WINDOW, |_, _| *per_message.next().expect("one per message"));
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
        let ledger = self.sim.recorder().metrics.delivery();
        let (avg, incomplete) = ledger.per_node_average_delays(u64::from(opts.messages), &live);
        (avg, incomplete, live.len())
    }

    /// Closes the orphan spells still open and the oracle, distils the
    /// run's [`RunCore`] and reports the kernel counters on stderr — every
    /// run prints its event throughput.
    pub fn finish(&mut self, injected: u64, plan_len: usize) -> RunCore {
        let (kernel, metrics) = (self.sim.kernel_stats(), self.sim.metrics_snapshot());
        log_kernel(&kernel);
        let now = self.sim.now();
        let rec = self.sim.recorder_mut();
        rec.metrics.finish(now);
        RunCore {
            end: now,
            ..RunCore::distil(rec, injected, plan_len, kernel, metrics)
        }
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

    fn ledger_snapshot(ledger: &MetricsRecorder) -> String {
        let mut snap = Snapshot::new();
        ledger_snapshot_into(ledger, &mut snap);
        let mut out = String::new();
        snap.write_json_fields(&mut out, true);
        out
    }

    #[test]
    fn app_metrics_bound_cardinality_at_top_k() {
        let mut ledger = MetricsRecorder::new();
        let (t, n) = (SimTime::ZERO, NodeId::new(1));
        for topic in 0..1000u32 {
            let id = gocast::MsgId::new(NodeId::new(0), topic);
            let bytes = 10;
            ledger.record(t, n, GoCastEvent::TopicDelivered { topic, id, bytes });
        }
        ledger.record(
            t,
            n,
            GoCastEvent::DeltaPublished {
                topic: 0,
                counter: 1,
            },
        );
        for k in 2..5 {
            let applied = GoCastEvent::DeltaApplied {
                topic: 0,
                origin: n,
                counter: 1,
            };
            ledger.record(t, NodeId::new(k), applied);
        }
        let out = ledger_snapshot(&ledger);
        // 7 proto_* counters, the empty proto_delay_ns histogram (its name
        // and 4 fields), 2 per labelled topic and 8 aggregates —
        // independent of the 1000 topics observed.
        assert_eq!(
            out.matches(':').count(),
            7 + 5 + 2 * APP_TOPIC_NAMES.len() + 8
        );
        let other = 1000 - APP_TOPIC_NAMES.len();
        for field in [
            "\"app_topic0_bytes\":10".to_string(),
            format!("\"app_topic_other_deliveries\":{other}"),
            "\"app_deliveries_total\":1000".to_string(),
            "\"app_bytes_total\":10000".to_string(),
            "\"app_deltas_published\":1".to_string(),
            "\"app_deltas_applied\":3".to_string(),
        ] {
            assert!(out.contains(&field), "{field} missing from {out}");
        }
    }

    #[test]
    fn app_metrics_stay_silent_with_no_activity() {
        let mut ledger = MetricsRecorder::new();
        let n = NodeId::new(0);
        ledger.record(SimTime::ZERO, n, GoCastEvent::TopicSubscribed { topic: 3 });
        assert!(!ledger_snapshot(&ledger).contains("app_"));
        // A published mutation is topic activity, even before any delivery.
        ledger.record(
            SimTime::ZERO,
            n,
            GoCastEvent::DeltaPublished {
                topic: 3,
                counter: 1,
            },
        );
        let out = ledger_snapshot(&ledger);
        assert!(out.contains("\"app_deltas_published\":1,"), "{out}");
        assert!(out.contains("\"app_subscribes\":1,"), "{out}");
        assert!(!out.contains("app_topic3"), "{out}");
    }

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

    #[test]
    fn injection_schedule_is_deterministic_and_paced() {
        let mut opts = ExpOptions::quick();
        opts.nodes = 8;
        opts.messages = 10;
        opts.rate = 100.0;
        let start = SimTime::from_secs(3);
        let everyone = Sources::Live((0..8).map(NodeId::new).collect());
        let draw = || {
            let mut out = Vec::new();
            inject(
                &opts,
                WORKLOAD,
                start,
                &everyone,
                |_, _, src, _| (src, ()),
                |at, node, ()| out.push((at, node)),
            );
            out
        };
        let a = draw();
        assert_eq!(a, draw());
        assert_eq!(a.len(), 10);
        assert_eq!(a[0].0, start);
        // One command every 1/rate: 10 ms apart at 100/s.
        for (k, (at, _)) in a.iter().enumerate() {
            assert_eq!(*at, start + Duration::from_millis(10 * k as u64));
        }
        assert!(a.iter().all(|(_, n)| n.index() < 8));
    }
}
