//! The `pubsub` and `crdt` subcommands: application-tier workloads
//! (`gocast-app`) driven over the GoCast overlay, in simulation and on
//! the wire.
//!
//! Both workloads run the [`TopicMux`] — many logical topics multiplexed
//! onto one degree-bounded overlay — and measure *application*
//! quantities rather than protocol delivery ratio:
//!
//! - **pubsub**: payload goodput (delivered bytes/s per subscriber
//!   slot) while faults and subscription churn replay;
//! - **crdt**: per-topic delta-ORSet replication — mutation staleness,
//!   convergence time (publish → last replica apply), and an end-of-run
//!   replica-state audit ([`CrdtAudit`]) over every node the fault plan
//!   says survived the measured window.
//!
//! The simulation side runs on the sharded kernel exactly like `scale`
//! ([`OnDemandKing`] latencies, presence-gated injection, oracle audit),
//! so 10⁴–10⁵-node runs work and every simulation-domain number in
//! [`AppOutcome::manifest`] is byte-identical at any `--sim-shards`
//! count. The wire side replays the same compiled plan against real
//! loopback-UDP sockets via `Testnet<TopicMux<GoCastNode>>`.
//!
//! One ordering subtlety makes deterministic subscription churn work:
//! the fault scenario is compiled *before* the simulation is built
//! (anchored at the end of warm-up with [`ScenarioEnv::starting_at`]),
//! because the [`TopicDirectory`] needs the compiled subscription events
//! up front to precompute its per-epoch trees. The scenario compiler
//! draws subscription events from a phase that runs after every fault
//! draw, so attaching subscription churn never perturbs the fault
//! schedule — chaos-off runs stay byte-identical.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use gocast::{bootstrap_random_graph, GoCastConfig, GoCastEvent, GoCastNode};
use gocast_analysis::{ConvergenceReport, ConvergenceTracker, InvariantOracle, Table};
use gocast_app::{AppCommand, AppConfig, CrdtAudit, SubscriptionTable, TopicDirectory, TopicMux};
use gocast_metrics::{ProtocolMetrics, TopicMetrics};
use gocast_net::{OnDemandKing, SyntheticKingConfig};
use gocast_sim::{
    parallel_map, NodeId, Recorder, Scenario, ScenarioEnv, ScenarioPlan, SimTime, Stack,
};
use gocast_testnet::{deployment_config, loopback_available, Testnet, TestnetConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chaos::{builtin_names, builtin_scenario, parse_spec};
use crate::options::ExpOptions;
use crate::report::kernel_digest;

/// The mux-over-GoCast node both subcommands run.
pub type AppNode = TopicMux<GoCastNode>;

/// Which application workload drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain multi-topic pub/sub: payload publishes, goodput measured.
    PubSub,
    /// Delta-ORSet replication: add/remove mutations, convergence
    /// measured and replica states audited.
    Crdt,
}

impl Workload {
    /// Stable CLI/artifact name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::PubSub => "pubsub",
            Workload::Crdt => "crdt",
        }
    }
}

/// The composite recorder application runs install: the convergence /
/// goodput tracker, the universal invariant oracle (application `MsgId`s
/// live above `APP_SEQ_BASE`, so one oracle covers both tiers), per-topic
/// delivery counters, and the capability-neutral protocol counters.
#[derive(Debug)]
pub struct AppRecorder {
    /// Goodput, staleness, and convergence aggregation.
    pub conv: ConvergenceTracker,
    /// Online safety-invariant checker (overlay + topic tier).
    pub oracle: InvariantOracle,
    /// Per-topic delivery/byte counters for metrics snapshots.
    pub topics: TopicMetrics,
    /// Capability-neutral protocol counters.
    pub proto: ProtocolMetrics,
}

impl AppRecorder {
    /// A recorder whose oracle bounds match a GoCast `cfg`.
    pub fn for_protocol(cfg: &GoCastConfig) -> Self {
        AppRecorder {
            conv: ConvergenceTracker::new(),
            oracle: InvariantOracle::for_protocol(cfg),
            topics: TopicMetrics::default(),
            proto: ProtocolMetrics::default(),
        }
    }
}

impl Recorder<GoCastEvent> for AppRecorder {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        event.observe_into(&mut self.proto);
        match &event {
            GoCastEvent::TopicDelivered { topic, bytes, .. } => {
                self.topics.observe_delivery(*topic, *bytes)
            }
            GoCastEvent::DeltaPublished { .. } => self.topics.deltas_published.inc(),
            GoCastEvent::DeltaApplied { .. } => self.topics.deltas_applied.inc(),
            GoCastEvent::TopicSubscribed { .. } => self.topics.subscribes.inc(),
            GoCastEvent::TopicUnsubscribed { .. } => self.topics.unsubscribes.inc(),
            _ => {}
        }
        self.oracle.record(now, node, event.clone());
        self.conv.record(now, node, event);
    }
}

/// Everything one application run produces.
#[derive(Debug)]
pub struct AppOutcome {
    /// Which workload ran.
    pub workload: Workload,
    /// Scenario label (`baseline`, `chaos:churn`, ...).
    pub phase: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Lanes the population was decomposed into (0 on the wire).
    pub lanes: usize,
    /// Concurrent logical topics.
    pub topics: u32,
    /// Directory epochs (1 + distinct subscription-event times).
    pub epochs: usize,
    /// Tree edges that exceeded the shared degree budget.
    pub overflow_edges: usize,
    /// Planned faults the scenario compiled to.
    pub faults: usize,
    /// Compiled subscription-churn events.
    pub sub_events: usize,
    /// Application commands injected (publishes or CRDT mutations).
    pub injected: u64,
    /// Base (epoch-0) subscriber slots: Σ over nodes of |topics(node)|.
    pub base_subscriptions: u64,
    /// Injection-to-end measurement window.
    pub window: Duration,
    /// The distilled application-tier report.
    pub report: ConvergenceReport,
    /// Per-topic `(topic, deliveries, payload bytes)`, topic order.
    pub per_topic: Vec<(u32, u64, u64)>,
    /// Replicas folded into the end-of-run CRDT audit.
    pub audited_replicas: u64,
    /// Topics the audit saw at least one replica of.
    pub audited_topics: usize,
    /// Topics whose surviving replicas disagree (must be empty).
    pub divergent: Vec<u32>,
    /// Records the invariant oracle checked.
    pub oracle_records: u64,
    /// Invariant violations found (should be 0).
    pub violations: usize,
    /// The first few violations, formatted (empty on a clean run).
    pub violation_lines: Vec<String>,
    /// Kernel counters (zeroed default on the wire side).
    pub kernel: gocast_sim::KernelStats,
    /// Final combined metrics snapshot (kernel + protocol + topics).
    pub metrics: gocast_metrics::Snapshot,
}

impl AppOutcome {
    /// Delivered payload bytes per second per base subscriber slot — the
    /// pub/sub goodput metric.
    pub fn goodput_bytes_per_sec(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 || self.base_subscriptions == 0 {
            return 0.0;
        }
        self.report.delivered_bytes as f64 / secs / self.base_subscriptions as f64
    }

    /// A deterministic one-line digest: every simulation-domain number
    /// and no wall-clock quantity — byte-identical at any `--sim-shards`
    /// or `--jobs` count (asserted by the integration tests).
    pub fn manifest(&self) -> String {
        let r = &self.report;
        let mut s = String::new();
        let _ = write!(
            s,
            "workload={} phase={} nodes={} topics={} epochs={} faults={} subevents={} \
             injected={} deliveries={} bytes={} goodput={:.1} mutations={} applies={} \
             unapplied={} stale_us={} conv[p50={}us p99={}us max={}us] \
             subs={}/{} audit[replicas={} topics={} divergent={}] oracle={}/{}",
            self.workload.name(),
            self.phase,
            self.nodes,
            self.topics,
            self.epochs,
            self.faults,
            self.sub_events,
            self.injected,
            r.topic_deliveries,
            r.delivered_bytes,
            self.goodput_bytes_per_sec(),
            r.mutations,
            r.applies,
            r.unapplied,
            r.mean_staleness.as_micros(),
            r.convergence_p50.as_micros(),
            r.convergence_p99.as_micros(),
            r.convergence_max.as_micros(),
            r.subscribes,
            r.unsubscribes,
            self.audited_replicas,
            self.audited_topics,
            self.divergent.len(),
            self.violations,
            self.oracle_records,
        );
        if self.lanes > 0 {
            let _ = write!(s, " {}", kernel_digest(&self.kernel));
        }
        s
    }

    /// Per-topic delivery/byte table (`topic`, `deliveries`, `bytes`).
    pub fn topic_table(&self) -> Table {
        let mut t = Table::new(["topic", "deliveries", "bytes"]);
        for &(topic, deliveries, bytes) in &self.per_topic {
            t.row([topic.to_string(), deliveries.to_string(), bytes.to_string()]);
        }
        t
    }
}

/// Extends a fault preset with the deterministic subscription churn the
/// application tier exercises: a mid-run subscribe flood and a flash
/// crowd onto the hot topic. `baseline` stays pure (no steps at all), so
/// chaos-off runs keep their strict byte-identity guarantees.
pub fn app_scenario(name: &str, opts: &ExpOptions) -> Option<Scenario> {
    let base = builtin_scenario(name, opts)?;
    if base.step_count() == 0 {
        return Some(base);
    }
    let span = opts.inject_duration().max(Duration::from_secs(30));
    Some(
        base.subscribe_flood(span / 3, (opts.nodes / 16).max(4), opts.topics.max(1))
            .topic_flashcrowd(span * 2 / 3, 0, (opts.nodes / 32).max(2)),
    )
}

/// Compiles the plan for a run: anchored at the end of warm-up, with the
/// site map as the fault-correlation group assignment.
fn compile_plan(opts: &ExpOptions, scenario: &Scenario, groups: &[u32]) -> ScenarioPlan {
    let env = ScenarioEnv::new(opts.nodes, opts.seed)
        .with_groups(groups)
        .starting_at(SimTime::ZERO + opts.warmup);
    scenario.compile(&env)
}

/// Schedules `opts.messages` application commands from presence-gated
/// sources into `schedule`, starting at `start`. For [`Workload::Crdt`],
/// every fifth command removes a previously added element (when its
/// adder is still present); everything else adds a globally unique one.
/// Returns the number of commands scheduled.
fn inject_workload(
    opts: &ExpOptions,
    workload: Workload,
    table: &SubscriptionTable,
    presence: &gocast_sim::PresenceTimeline,
    start: SimTime,
    mut schedule: impl FnMut(SimTime, NodeId, AppCommand<gocast::GoCastCommand>),
) -> u64 {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
    let mut added: Vec<(NodeId, u32, u64)> = Vec::new();
    for i in 0..opts.messages {
        let at = start + Duration::from_secs_f64(f64::from(i) / opts.rate);
        let src = loop {
            let cand = NodeId::new(rng.gen_range(0..opts.nodes as u32));
            if presence.present(cand, at) {
                break cand;
            }
        };
        match workload {
            Workload::PubSub => schedule(at, src, AppCommand::Publish { topic: None }),
            Workload::Crdt => {
                let removal = if i % 5 == 4 && !added.is_empty() {
                    let k = rng.gen_range(0..added.len());
                    let (n, t, e) = added[k];
                    // Only remove from a replica the plan says is still
                    // there; otherwise fall through to another add.
                    presence.present(n, at).then(|| {
                        added.swap_remove(k);
                        (n, t, e)
                    })
                } else {
                    None
                };
                match removal {
                    Some((n, t, e)) => schedule(
                        at,
                        n,
                        AppCommand::CrdtRemove {
                            topic: Some(t),
                            elem: e,
                        },
                    ),
                    None => {
                        let topics = table.topics_of(src);
                        let t = topics[i as usize % topics.len()];
                        let elem = 1_000 + u64::from(i);
                        added.push((src, t, elem));
                        schedule(
                            at,
                            src,
                            AppCommand::CrdtAdd {
                                topic: Some(t),
                                elem,
                            },
                        );
                    }
                }
            }
        }
    }
    u64::from(opts.messages)
}

/// One simulated application run on the sharded kernel: warm the overlay
/// up, replay the fault plan and its subscription churn, inject the
/// workload from surviving nodes, drain past the plan's end, then audit
/// replicas and distill the outcome.
pub fn run_app(
    opts: &ExpOptions,
    workload: Workload,
    label: &str,
    scenario: &Scenario,
) -> AppOutcome {
    let topics = opts.topics.max(1);
    let sites = opts.sites.min(opts.nodes.max(16));
    let net = OnDemandKing::new(
        opts.nodes,
        &SyntheticKingConfig {
            sites,
            seed: opts.seed ^ 0x4B494E47,
            ..SyntheticKingConfig::default()
        },
    );
    let groups = net.site_assignment();
    let cfg = GoCastConfig {
        gc_wait: Duration::from_secs(3600),
        ..GoCastConfig::default()
    };

    // Plan first (see the module docs): the directory's epoch trees are
    // precomputed from the compiled subscription events.
    let plan = compile_plan(opts, scenario, &groups);
    let presence = plan.presence();
    let table = SubscriptionTable::new(opts.seed, opts.nodes as u32, topics);
    let dir = Arc::new(TopicDirectory::build(
        table,
        plan.sub_events(),
        cfg.c_degree(),
    ));

    let links_per_node = (cfg.c_degree() / 2).max(1);
    let mut boot = bootstrap_random_graph(opts.nodes, links_per_node, opts.seed ^ 0xB007);
    let node_cfg = cfg.clone();
    let d = dir.clone();
    let mut sim = gocast_sim::ShardedSimBuilder::new(net)
        .seed(opts.seed)
        .threads(opts.sim_shards)
        .build_with(AppRecorder::for_protocol(&cfg), move |id| {
            let (links, members) = boot(id);
            let inner = GoCastNode::with_initial_links(id, node_cfg.clone(), links, members);
            TopicMux::new(id, inner, d.clone(), AppConfig::default())
        });

    sim.run_until(SimTime::ZERO + opts.warmup);
    plan.schedule_into(
        &mut sim,
        <AppNode as Stack>::cmd_join,
        <AppNode as Stack>::cmd_leave,
    );
    for s in plan.sub_events() {
        let cmd = if s.subscribe {
            AppCommand::Subscribe { topic: s.topic }
        } else {
            AppCommand::Unsubscribe { topic: s.topic }
        };
        sim.schedule_command(s.at, s.node, cmd);
    }

    let start = sim.now() + Duration::from_millis(100);
    let injected = inject_workload(opts, workload, &table, &presence, start, |at, n, cmd| {
        sim.schedule_command(at, n, cmd)
    });
    let end = plan
        .end()
        .unwrap_or(start)
        .max(start + opts.inject_duration())
        + opts.drain;
    sim.run_until(end);
    sim.recorder_mut().oracle.finish();

    // Convergence is owed only by replicas present for the whole
    // measured window; churned-out nodes legitimately diverge.
    let mut audit = CrdtAudit::new();
    for i in 0..opts.nodes as u32 {
        let n = NodeId::new(i);
        if presence.present_from(n, start) {
            audit.observe(sim.node(n));
        }
    }

    let base_subscriptions: u64 = (0..opts.nodes as u32)
        .map(|i| table.topics_of(NodeId::new(i)).len() as u64)
        .sum();
    let mut snap = sim.metrics_snapshot();
    sim.recorder().proto.snapshot_into(&mut snap);
    sim.recorder().topics.snapshot_into(&mut snap);
    let rec = sim.recorder();
    AppOutcome {
        workload,
        phase: if plan.is_empty() && plan.sub_events().is_empty() {
            label.to_string()
        } else {
            format!("chaos:{label}")
        },
        nodes: opts.nodes,
        lanes: sim.lane_count(),
        topics,
        epochs: dir.epoch_count(),
        overflow_edges: dir.overflow_edges(),
        faults: plan.len(),
        sub_events: plan.sub_events().len(),
        injected,
        base_subscriptions,
        window: Duration::from_nanos(end.as_nanos() - start.as_nanos()),
        report: rec.conv.report(),
        per_topic: rec.conv.per_topic().collect(),
        audited_replicas: audit.replica_count(),
        audited_topics: audit.topic_count(),
        divergent: audit.divergent_topics(),
        oracle_records: rec.oracle.records_checked(),
        violations: rec.oracle.violations().len(),
        violation_lines: rec
            .oracle
            .violations()
            .iter()
            .take(8)
            .map(|v| v.to_string())
            .collect(),
        kernel: sim.kernel_stats(),
        metrics: snap,
    }
}

/// Runs [`run_app`] across `seeds` consecutive seeds, fanned over
/// `opts.effective_jobs()` worker threads. Results come back in seed
/// order, so output is byte-identical at any job count.
pub fn app_sweep(
    opts: &ExpOptions,
    workload: Workload,
    label: &str,
    scenario: &Scenario,
    seeds: u64,
) -> Vec<AppOutcome> {
    assert!(seeds > 0, "need at least one seed");
    let runs: Vec<ExpOptions> = (0..seeds)
        .map(|i| opts.clone().with_seed(opts.seed.wrapping_add(i)))
        .collect();
    parallel_map(opts.effective_jobs(), runs, |_, o| {
        run_app(&o, workload, label, scenario)
    })
}

/// Wire-scale option resolution, mirroring the `testnet` subcommand:
/// fields left at the simulation default drop to deployment scale (16
/// nodes, 3 s warm-up/drain, 100 commands), explicit flags win.
fn resolve_wire(opts: &ExpOptions) -> ExpOptions {
    let d = ExpOptions::default();
    let mut w = opts.clone();
    if w.nodes == d.nodes {
        w.nodes = 16;
    }
    if w.messages == d.messages {
        w.messages = 100;
    }
    if w.rate == d.rate {
        w.rate = 25.0;
    }
    if w.warmup == d.warmup {
        w.warmup = Duration::from_secs(3);
    }
    if w.drain == d.drain {
        w.drain = Duration::from_secs(6);
    }
    w
}

/// The same workload against real loopback-UDP sockets:
/// `Testnet<TopicMux<GoCastNode>>` with the deployment protocol config,
/// the compiled plan replayed by the fabric, and the outcome distilled
/// from the recorded wire trace. Wire time is wall-clock, so only the
/// audit and oracle results gate; goodput numbers are reported as-is.
///
/// # Errors
///
/// Propagates socket binding errors.
pub fn run_app_wire(
    opts: &ExpOptions,
    workload: Workload,
    label: &str,
    scenario: &Scenario,
) -> std::io::Result<AppOutcome> {
    let mut opts = resolve_wire(opts);
    if workload == Workload::Crdt {
        // When the plan's last event is a partition heal, the drain is
        // the entire post-heal repair budget: a diverged replica pair
        // needs an anti-entropy digest round (800 ms cadence below) plus
        // pull retries to reconverge, and wall-clock jitter can eat a
        // round or two. Floor the drain so ~15 rounds always fit.
        opts.drain = opts.drain.max(Duration::from_secs(12));
    }
    let topics = opts.topics.max(1);
    let proto = deployment_config();
    // Wire nodes have no latency-derived site map; synthetic quartet
    // groups keep group-targeted faults meaningful.
    let groups: Vec<u32> = (0..opts.nodes as u32).map(|i| i % 4).collect();
    let plan = compile_plan(&opts, scenario, &groups);
    let presence = plan.presence();
    let table = SubscriptionTable::new(opts.seed, opts.nodes as u32, topics);
    let dir = Arc::new(TopicDirectory::build(
        table,
        plan.sub_events(),
        proto.c_degree(),
    ));

    // Faster application cadences for short wall-clock runs: several
    // anti-entropy rounds must fit inside the drain.
    let app_cfg = AppConfig {
        gossip_every: Duration::from_millis(250),
        anti_entropy_every: Duration::from_millis(800),
        pull_retry_after: Duration::from_millis(200),
        ..AppConfig::default()
    };

    let mut cfg = TestnetConfig::new(opts.nodes)
        .with_seed(opts.seed)
        .with_shards(opts.shards.max(1))
        .with_record_trace(true);
    cfg.protocol = proto.clone();
    let links = (proto.c_degree() / 2)
        .max(1)
        .min(opts.nodes.saturating_sub(1));
    let mut boot = bootstrap_random_graph(opts.nodes, links, opts.seed ^ 0xB007);
    let node_cfg = proto.clone();
    let d = dir.clone();
    let ac = app_cfg.clone();
    let mut net: Testnet<AppNode> = Testnet::build(&cfg, move |id| {
        let (l, m) = boot(id);
        let inner = GoCastNode::with_initial_links(id, node_cfg.clone(), l, m);
        TopicMux::new(id, inner, d.clone(), ac.clone())
    })?;

    net.attach_plan(&plan);
    for s in plan.sub_events() {
        let cmd = if s.subscribe {
            AppCommand::Subscribe { topic: s.topic }
        } else {
            AppCommand::Unsubscribe { topic: s.topic }
        };
        net.schedule_command(s.at, s.node, cmd);
    }
    let start = SimTime::ZERO + opts.warmup;
    let injected = inject_workload(&opts, workload, &table, &presence, start, |at, n, cmd| {
        net.schedule_command(at, n, cmd)
    });
    let end = plan
        .end()
        .unwrap_or(start)
        .max(start + opts.inject_duration())
        + opts.drain;
    net.run_for(Duration::from_nanos(end.as_nanos()));

    let mut rec = AppRecorder::for_protocol(&proto);
    for (t, n, ev) in net.trace() {
        rec.record(*t, *n, ev.clone());
    }
    rec.oracle.finish();

    let mut audit = CrdtAudit::new();
    for i in 0..opts.nodes as u32 {
        let n = NodeId::new(i);
        if !net.is_crashed(n) && presence.present_from(n, start) {
            audit.observe(net.node(n));
        }
    }

    let base_subscriptions: u64 = (0..opts.nodes as u32)
        .map(|i| table.topics_of(NodeId::new(i)).len() as u64)
        .sum();
    let mut snap = net.metrics_snapshot();
    rec.proto.snapshot_into(&mut snap);
    rec.topics.snapshot_into(&mut snap);
    Ok(AppOutcome {
        workload,
        phase: format!("wire:{label}"),
        nodes: opts.nodes,
        lanes: 0,
        topics,
        epochs: dir.epoch_count(),
        overflow_edges: dir.overflow_edges(),
        faults: plan.len(),
        sub_events: plan.sub_events().len(),
        injected,
        base_subscriptions,
        window: Duration::from_nanos(end.as_nanos() - start.as_nanos()),
        report: rec.conv.report(),
        per_topic: rec.conv.per_topic().collect(),
        audited_replicas: audit.replica_count(),
        audited_topics: audit.topic_count(),
        divergent: audit.divergent_topics(),
        oracle_records: rec.oracle.records_checked(),
        violations: rec.oracle.violations().len(),
        violation_lines: rec
            .oracle
            .violations()
            .iter()
            .take(8)
            .map(|v| v.to_string())
            .collect(),
        kernel: gocast_sim::KernelStats::default(),
        metrics: snap,
    })
}

/// Scenario presets the subcommands run when `--scenario`/`--spec` is
/// not given: the fault-free control plus the two fault families the
/// application tier must survive.
pub const APP_PRESETS: [&str; 3] = ["baseline", "churn", "partition"];

/// Largest population the wire replay phase will attempt. Beyond this
/// the loopback fabric stops being a conformance harness and becomes a
/// socket-exhaustion test; sim-side runs carry the scale story.
pub const MAX_WIRE_NODES: usize = 512;

/// One row of the table both subcommands print and write.
fn outcome_row(table: &mut Table, o: &AppOutcome) {
    let r = &o.report;
    table.row([
        o.workload.name().to_string(),
        o.phase.clone(),
        o.nodes.to_string(),
        o.topics.to_string(),
        o.epochs.to_string(),
        o.faults.to_string(),
        o.sub_events.to_string(),
        o.injected.to_string(),
        r.topic_deliveries.to_string(),
        format!("{:.1}", o.goodput_bytes_per_sec()),
        format!("{:.1}", r.mean_staleness.as_secs_f64() * 1000.0),
        format!("{:.1}", r.convergence_p99.as_secs_f64() * 1000.0),
        r.unapplied.to_string(),
        o.divergent.len().to_string(),
        o.violations.to_string(),
    ]);
}

/// Gates one outcome; prints what failed and returns the exit code
/// contribution (0 = clean).
fn gate(o: &AppOutcome) -> i32 {
    let mut code = 0;
    for line in &o.violation_lines {
        eprintln!("  violation [{}]: {line}", o.phase);
    }
    if o.violations > 0 {
        code = 1;
    }
    if !o.divergent.is_empty() {
        eprintln!(
            "  {}: CRDT replicas diverged on topics {:?}",
            o.phase, o.divergent
        );
        code = 1;
    }
    if o.report.topic_deliveries == 0 && o.injected > 0 {
        eprintln!("  {}: no topic payload was ever delivered", o.phase);
        code = 1;
    }
    if o.workload == Workload::Crdt && o.report.mutations > 0 && o.report.applies == 0 {
        eprintln!("  {}: no CRDT mutation reached any remote replica", o.phase);
        code = 1;
    }
    code
}

/// The `pubsub`/`crdt` subcommand driver: runs the workload in
/// simulation under each selected scenario (the [`APP_PRESETS`] trio by
/// default; `--scenario`/`--spec` narrow it), then replays the same
/// scenarios on the wire when loopback sockets are available. Writes
/// `<workload>.csv` and `<workload>_topics.csv`. Returns the process
/// exit code: nonzero on oracle violations, replica divergence, or a
/// dead application tier.
pub fn app(
    opts: &ExpOptions,
    workload: Workload,
    scenario: Option<&str>,
    spec: Option<&str>,
) -> i32 {
    let runs: Vec<(String, Scenario)> = match (spec, scenario) {
        (Some(s), _) => match parse_spec(s) {
            Ok(sc) => vec![("spec".to_string(), sc)],
            Err(e) => {
                eprintln!("bad --spec: {e}");
                return 2;
            }
        },
        (None, Some(name)) => match app_scenario(name, opts) {
            Some(sc) => vec![(name.to_string(), sc)],
            None => {
                eprintln!(
                    "unknown scenario `{name}` (one of: {})",
                    builtin_names().join(", ")
                );
                return 2;
            }
        },
        (None, None) => APP_PRESETS
            .iter()
            .map(|&n| {
                (
                    n.to_string(),
                    app_scenario(n, opts).expect("preset names are builtin"),
                )
            })
            .collect(),
    };
    eprintln!(
        "{}: {} nodes, {} topics, {} commands, {} sim-shard(s); scenarios: {} ...",
        workload.name(),
        opts.nodes,
        opts.topics,
        opts.messages,
        opts.sim_shards,
        runs.iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut table = Table::new([
        "workload",
        "phase",
        "nodes",
        "topics",
        "epochs",
        "faults",
        "sub_events",
        "injected",
        "deliveries",
        "goodput_bps",
        "stale_ms",
        "conv_p99_ms",
        "unapplied",
        "divergent",
        "violations",
    ]);
    let mut code = 0;
    let mut first_label: Option<String> = None;

    for (label, scenario) in &runs {
        let out = run_app(opts, workload, label, scenario);
        eprintln!("  {}", out.manifest());
        outcome_row(&mut table, &out);
        code = code.max(gate(&out));
        if first_label.is_none() {
            first_label = Some(label.clone());
            opts.write_csv_for_workload(
                &format!("{}_topics", workload.name()),
                &out.topic_table(),
                workload.name(),
                Some(label),
            );
        }
    }

    let wire_nodes = resolve_wire(opts).nodes;
    if wire_nodes > MAX_WIRE_NODES {
        eprintln!(
            "{}: wire replay skipped at {wire_nodes} nodes \
             (the loopback fabric is a deployment-scale harness, max {MAX_WIRE_NODES})",
            workload.name()
        );
    } else if loopback_available() {
        for (label, scenario) in &runs {
            match run_app_wire(opts, workload, label, scenario) {
                Ok(out) => {
                    eprintln!("  {}", out.manifest());
                    outcome_row(&mut table, &out);
                    code = code.max(gate(&out));
                }
                Err(e) => {
                    eprintln!("  wire:{label}: run failed: {e}");
                    code = 1;
                }
            }
        }
    } else {
        eprintln!(
            "{}: loopback UDP unavailable; wire phase skipped",
            workload.name()
        );
    }

    println!("{table}");
    opts.write_csv_for_workload(
        workload.name(),
        &table,
        workload.name(),
        first_label.as_deref(),
    );
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sim_shards: usize) -> ExpOptions {
        let mut o = ExpOptions::quick().with_sim_shards(sim_shards);
        o.nodes = 96;
        o.sites = 96;
        o.topics = 6;
        o.warmup = Duration::from_secs(20);
        o.messages = 12;
        o.rate = 2.0;
        o.drain = Duration::from_secs(25);
        o
    }

    // Deterministic timed faults so the plan is non-empty at any seed.
    const FAULT_SPEC: &str = "massleave(at=1,count=6); flashcrowd(at=8,count=6)";

    #[test]
    fn pubsub_baseline_delivers_with_clean_oracle() {
        let o = tiny(1);
        let out = run_app(&o, Workload::PubSub, "baseline", &Scenario::new());
        assert_eq!(out.injected, 12);
        assert_eq!(out.violations, 0, "{:?}", out.violation_lines);
        assert!(out.report.topic_deliveries > 0, "{}", out.manifest());
        assert!(out.goodput_bytes_per_sec() > 0.0);
        assert!(out.divergent.is_empty());
        assert_eq!(out.phase, "baseline");
        assert_eq!(out.epochs, 1, "no sub churn, one epoch");
    }

    #[test]
    fn crdt_converges_under_faults_and_sub_churn() {
        let o = tiny(1);
        let scenario = parse_spec(FAULT_SPEC)
            .unwrap()
            .subscribe_flood(Duration::from_secs(2), 8, 6)
            .topic_flashcrowd(Duration::from_secs(5), 0, 4);
        let out = run_app(&o, Workload::Crdt, "spec", &scenario);
        assert!(out.faults >= 12, "plan must contain the faults");
        assert!(out.sub_events > 0, "plan must contain sub churn");
        assert!(out.epochs > 1, "sub churn opens epochs");
        assert_eq!(out.violations, 0, "{:?}", out.violation_lines);
        assert!(out.report.mutations > 0);
        assert!(out.report.applies > 0, "{}", out.manifest());
        assert!(
            out.divergent.is_empty(),
            "surviving replicas must converge: {}",
            out.manifest()
        );
        assert!(out.audited_replicas > 0);
    }

    #[test]
    fn manifests_are_identical_across_sim_shard_counts() {
        let scenario = parse_spec(FAULT_SPEC).unwrap();
        for wl in [Workload::PubSub, Workload::Crdt] {
            let serial = run_app(&tiny(1), wl, "spec", &scenario);
            let threaded = run_app(&tiny(4), wl, "spec", &scenario);
            assert_eq!(
                serial.manifest(),
                threaded.manifest(),
                "{} manifest must not depend on --sim-shards",
                wl.name()
            );
        }
    }

    #[test]
    fn sweeps_are_identical_across_job_counts() {
        let scenario = Scenario::new();
        let serial: Vec<String> = app_sweep(&tiny(1), Workload::Crdt, "baseline", &scenario, 3)
            .iter()
            .map(|o| o.manifest())
            .collect();
        let jobs: Vec<String> = app_sweep(
            &tiny(1).with_jobs(4),
            Workload::Crdt,
            "baseline",
            &scenario,
            3,
        )
        .iter()
        .map(|o| o.manifest())
        .collect();
        assert_eq!(serial, jobs, "manifests must not depend on --jobs");
        assert_eq!(serial.len(), 3);
    }

    #[test]
    fn app_scenarios_extend_presets_but_not_baseline() {
        let o = tiny(1);
        let base = app_scenario("baseline", &o).unwrap();
        assert_eq!(base.step_count(), 0, "baseline stays pure");
        let churn = app_scenario("churn", &o).unwrap();
        assert_eq!(
            churn.step_count(),
            builtin_scenario("churn", &o).unwrap().step_count() + 2,
            "fault presets gain the two sub-churn steps"
        );
        assert!(app_scenario("nonsense", &o).is_none());
    }

    #[test]
    fn wire_run_matches_workload_semantics() {
        if !loopback_available() {
            eprintln!("skipping: no loopback UDP");
            return;
        }
        let mut o = tiny(1);
        o.nodes = 10;
        o.messages = 20;
        o.rate = 10.0;
        o.warmup = Duration::from_secs(2);
        o.drain = Duration::from_secs(5);
        let out = run_app_wire(&o, Workload::Crdt, "baseline", &Scenario::new()).unwrap();
        assert_eq!(out.violations, 0, "{:?}", out.violation_lines);
        assert!(out.report.mutations > 0);
        assert!(
            out.divergent.is_empty(),
            "wire replicas must converge: {}",
            out.manifest()
        );
        assert!(out.phase.starts_with("wire:"));
    }
}
