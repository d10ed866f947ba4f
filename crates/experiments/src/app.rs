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
//! The simulation side is the `scale` configuration of
//! [`crate::pipeline`] with a [`TopicMux`] around every node, so 10⁴–10⁵
//! -node runs work and every simulation-domain number in
//! [`AppOutcome::manifest`] is byte-identical at any `--sim-shards`
//! count. The wire side replays the same compiled plan and the same
//! workload loop against real loopback-UDP sockets via
//! `Testnet<TopicMux<GoCastNode>>`.
//!
//! One ordering subtlety makes deterministic subscription churn work:
//! the fault scenario is compiled *before* the simulation is built
//! ([`compile_plan`] anchors it at the end of warm-up), because the
//! [`TopicDirectory`] needs the compiled subscription events up front to
//! precompute its per-epoch trees. The scenario compiler draws
//! subscription events from a phase that runs after every fault draw, so
//! attaching subscription churn never perturbs the fault schedule —
//! chaos-off runs stay byte-identical.

use std::fmt::Write as _;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use gocast::{GoCastConfig, GoCastEvent, GoCastNode};
use gocast_analysis::{ConvergenceReport, ConvergenceTracker, InvariantOracle, Table};
use gocast_app::{AppCommand, AppConfig, CrdtAudit, SubscriptionTable, TopicDirectory, TopicMux};
use gocast_metrics::TopicMetrics;
use gocast_sim::{
    KernelStats, Lanes, NodeId, PresenceTimeline, Recorder, Scenario, ScenarioPlan, SimTime,
};
use gocast_testnet::{deployment_config, loopback_available, Testnet, TestnetConfig};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::chaos::{builtin_scenario, resolve_scenario};
use crate::options::{ExpOptions, GivenFlags, Scale};
use crate::pipeline::{
    audited_gocast, compile_plan, gocast_nodes, horizon, inject, scale_network, Run, RunCore,
    RunRecorder, Sources, WORKLOAD,
};
use crate::report::{kernel_digest, table_of, Column};
use crate::sweep::per_seed;

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

/// What application runs add to the recorder: the convergence / goodput
/// tracker and per-topic delivery counters. (Application `MsgId`s live
/// above `APP_SEQ_BASE`, so the one invariant oracle covers both tiers.)
#[derive(Debug, Default)]
pub struct AppTier {
    /// Goodput, staleness, and convergence aggregation.
    pub conv: ConvergenceTracker,
    /// Per-topic delivery/byte counters for metrics snapshots.
    pub topics: TopicMetrics,
}

impl Recorder<GoCastEvent> for AppTier {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
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
        self.conv.record(now, node, event);
    }
}

/// Everything one application run produces.
#[derive(Debug)]
pub struct AppOutcome {
    /// Application commands injected (publishes or CRDT mutations),
    /// planned faults, the oracle's verdict, kernel counters (zeroed
    /// default on the wire side) and the final combined metrics snapshot
    /// (kernel or fabric + protocol + topics).
    pub core: RunCore,
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
    /// Compiled subscription-churn events.
    pub sub_events: usize,
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
}

impl Deref for AppOutcome {
    type Target = RunCore;

    fn deref(&self) -> &RunCore {
        &self.core
    }
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
            self.plan_len,
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
    builtin_scenario(name, opts).map(|base| with_sub_churn(base, opts))
}

fn with_sub_churn(base: Scenario, opts: &ExpOptions) -> Scenario {
    if base.step_count() == 0 {
        return base;
    }
    let span = opts.inject_duration().max(Duration::from_secs(30));
    base.subscribe_flood(span / 3, (opts.nodes / 16).max(4), opts.topics.max(1))
        .topic_flashcrowd(span * 2 / 3, 0, (opts.nodes / 32).max(2))
}

/// What both hosts derive from the options before anything is built: the
/// compiled plan (first — see the module docs), its presence timeline, the
/// subscription table and the precomputed topic directory.
struct Staged<'a> {
    opts: &'a ExpOptions,
    workload: Workload,
    plan: ScenarioPlan,
    presence: PresenceTimeline,
    table: SubscriptionTable,
    dir: Arc<TopicDirectory>,
}

impl<'a> Staged<'a> {
    fn new(
        opts: &'a ExpOptions,
        workload: Workload,
        scenario: &Scenario,
        groups: &[u32],
        proto: &GoCastConfig,
    ) -> Self {
        let plan = compile_plan(opts, scenario, groups);
        let table = SubscriptionTable::new(opts.seed, opts.nodes as u32, opts.topics.max(1));
        let dir = TopicDirectory::build(table, plan.sub_events(), proto.c_degree());
        Staged {
            opts,
            workload,
            presence: plan.presence(),
            plan,
            table,
            dir: Arc::new(dir),
        }
    }

    /// Mux-over-GoCast nodes in the standard bootstrap state.
    fn nodes(&self, proto: &GoCastConfig, app: AppConfig) -> impl FnMut(NodeId) -> AppNode {
        let mut inner = gocast_nodes(self.opts, proto);
        let dir = self.dir.clone();
        move |id| TopicMux::new(id, inner(id), dir.clone(), app.clone())
    }

    /// Schedules the plan's subscription churn and `opts.messages`
    /// application commands from presence-gated sources, starting at
    /// `start`. For [`Workload::Crdt`], every fifth command removes a
    /// previously added element (when its adder is still present);
    /// everything else adds a globally unique one.
    fn inject(
        &self,
        start: SimTime,
        mut schedule: impl FnMut(SimTime, NodeId, AppCommand<gocast::GoCastCommand>),
    ) {
        for s in self.plan.sub_events() {
            let cmd = if s.subscribe {
                AppCommand::Subscribe { topic: s.topic }
            } else {
                AppCommand::Unsubscribe { topic: s.topic }
            };
            schedule(s.at, s.node, cmd);
        }
        let mut added: Vec<(NodeId, u32, u64)> = Vec::new();
        let command = |i: u32, at: SimTime, src: NodeId, rng: &mut SmallRng| {
            if self.workload == Workload::PubSub {
                return (src, AppCommand::Publish { topic: None });
            }
            if i % 5 == 4 && !added.is_empty() {
                let k = rng.gen_range(0..added.len());
                let (n, t, elem) = added[k];
                // Only remove from a replica the plan says is still
                // there; otherwise fall through to another add.
                if self.presence.present(n, at) {
                    added.swap_remove(k);
                    let topic = Some(t);
                    return (n, AppCommand::CrdtRemove { topic, elem });
                }
            }
            let topics = self.table.topics_of(src);
            let t = topics[i as usize % topics.len()];
            let elem = 1_000 + u64::from(i);
            added.push((src, t, elem));
            let topic = Some(t);
            (src, AppCommand::CrdtAdd { topic, elem })
        };
        let sources = Sources::Present(&self.presence);
        inject(self.opts, WORKLOAD, start, &sources, command, schedule);
    }

    /// The end-of-run replica audit and the outcome — the same for both
    /// hosts. Convergence is owed only by replicas present for the whole
    /// measured window (churned-out nodes legitimately diverge); `node`
    /// returns `None` for any other replica the host rules out.
    fn outcome<'n>(
        &self,
        phase: String,
        lanes: usize,
        (start, end): (SimTime, SimTime),
        mut core: RunCore,
        tier: &AppTier,
        node: impl Fn(NodeId) -> Option<&'n AppNode>,
    ) -> AppOutcome {
        tier.topics.snapshot_into(&mut core.metrics);
        let ids = || (0..self.opts.nodes as u32).map(NodeId::new);
        let mut audit = CrdtAudit::new();
        for n in ids().filter(|&n| self.presence.present_from(n, start)) {
            if let Some(replica) = node(n) {
                audit.observe(replica);
            }
        }
        AppOutcome {
            core,
            workload: self.workload,
            phase,
            nodes: self.opts.nodes,
            lanes,
            topics: self.opts.topics.max(1),
            epochs: self.dir.epoch_count(),
            overflow_edges: self.dir.overflow_edges(),
            sub_events: self.plan.sub_events().len(),
            base_subscriptions: ids().map(|n| self.table.topics_of(n).len() as u64).sum(),
            window: end.saturating_since(start),
            report: tier.conv.report(),
            per_topic: tier.conv.per_topic().collect(),
            audited_replicas: audit.replica_count(),
            audited_topics: audit.topic_count(),
            divergent: audit.divergent_topics(),
        }
    }
}

/// One simulated application run, the pipeline's `scale` configuration
/// with a mux around every node: warm the overlay up, replay the fault
/// plan and its subscription churn, inject the workload from surviving
/// nodes, drain past the plan's end, then audit replicas and distill the
/// outcome.
pub fn run_app(
    opts: &ExpOptions,
    workload: Workload,
    label: &str,
    scenario: &Scenario,
) -> AppOutcome {
    let net = scale_network(opts);
    let cfg = audited_gocast();
    let staged = Staged::new(opts, workload, scenario, &net.site_assignment(), &cfg);
    let recorder = RunRecorder::for_opts(
        opts,
        &opts.manifest_for_workload(workload.name(), Some(label)),
        Some(InvariantOracle::for_protocol(&cfg)),
        AppTier::default(),
    );
    let nodes = staged.nodes(&cfg, AppConfig::default());
    let mut run: Run<AppNode, AppTier, Lanes> = Run::sharded(opts, net, recorder, nodes);
    run.warm(opts.warmup);
    run.schedule(&staged.plan);
    let start = run.sim.now() + Duration::from_millis(100);
    staged.inject(start, |at, n, cmd| run.sim.schedule_command(at, n, cmd));
    let end = horizon(opts, start, Some(&staged.plan));
    run.drive(end);

    let core = run.finish(u64::from(opts.messages), staged.plan.len());
    let phase = if staged.plan.is_empty() && staged.plan.sub_events().is_empty() {
        label.to_string()
    } else {
        format!("chaos:{label}")
    };
    let sim = &run.sim;
    let tier = &sim.recorder().ext;
    staged.outcome(phase, sim.lane_count(), (start, end), core, tier, |n| {
        Some(sim.node(n))
    })
}

/// Runs [`run_app`] across `seeds` consecutive seeds ([`per_seed`]).
pub fn app_sweep(
    opts: &ExpOptions,
    workload: Workload,
    label: &str,
    scenario: &Scenario,
    seeds: u64,
) -> Vec<AppOutcome> {
    per_seed(opts, seeds, |o| run_app(o, workload, label, scenario))
}

/// The deployment scale the wire replay drops to wherever the command
/// line left a scale flag unset (see [`ExpOptions::scaled_to`]).
pub const WIRE_SCALE: Scale = Scale {
    nodes: 16,
    messages: 100,
    rate: 25.0,
    warmup: Duration::from_secs(3),
    drain: Duration::from_secs(6),
};

/// The same workload against real loopback-UDP sockets:
/// `Testnet<TopicMux<GoCastNode>>` with the deployment protocol config,
/// the compiled plan replayed by the fabric, and the outcome distilled
/// from the recorded wire trace. `opts` is taken as given (the subcommand
/// resolves it to [`WIRE_SCALE`] first). Wire time is wall-clock, so only
/// the audit and oracle results gate; goodput numbers are reported as-is.
///
/// # Errors
///
/// Propagates socket binding errors, and reports a scenario naming a node
/// the wire population does not have.
pub fn run_app_wire(
    opts: &ExpOptions,
    workload: Workload,
    label: &str,
    scenario: &Scenario,
) -> std::io::Result<AppOutcome> {
    scenario
        .check_nodes(opts.nodes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut opts = opts.clone();
    if workload == Workload::Crdt {
        // When the plan's last event is a partition heal, the drain is
        // the entire post-heal repair budget: a diverged replica pair
        // needs an anti-entropy digest round (800 ms cadence below) plus
        // pull retries to reconverge, and wall-clock jitter can eat a
        // round or two. Floor the drain so ~15 rounds always fit.
        opts.drain = opts.drain.max(Duration::from_secs(12));
    }
    let proto = deployment_config();
    // Wire nodes have no latency-derived site map; synthetic quartet
    // groups keep group-targeted faults meaningful.
    let groups: Vec<u32> = (0..opts.nodes as u32).map(|i| i % 4).collect();
    let staged = Staged::new(&opts, workload, scenario, &groups, &proto);

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
    let mut net: Testnet<AppNode> = Testnet::build(&cfg, staged.nodes(&proto, app_cfg))?;

    net.attach_plan(&staged.plan);
    let start = SimTime::ZERO + opts.warmup;
    staged.inject(start, |at, n, cmd| net.schedule_command(at, n, cmd));
    let end = horizon(&opts, start, Some(&staged.plan));
    net.run_for(Duration::from_nanos(end.as_nanos()));

    let oracle = InvariantOracle::for_protocol(&proto);
    let mut rec = RunRecorder::detached(Some(oracle), AppTier::default());
    for (t, n, ev) in net.trace() {
        rec.record(*t, *n, ev.clone());
    }
    let core = RunCore::distil(
        &mut rec,
        u64::from(opts.messages),
        staged.plan.len(),
        KernelStats::default(),
        net.metrics_snapshot(),
    );
    let phase = format!("wire:{label}");
    Ok(staged.outcome(phase, 0, (start, end), core, &rec.ext, |n| {
        (!net.is_crashed(n)).then(|| net.node(n))
    }))
}

/// Scenario presets the subcommands run when `--scenario`/`--spec` is
/// not given: the fault-free control plus the two fault families the
/// application tier must survive.
pub const APP_PRESETS: [&str; 3] = ["baseline", "churn", "partition"];

/// Largest population the wire replay phase will attempt. Beyond this
/// the loopback fabric stops being a conformance harness and becomes a
/// socket-exhaustion test; sim-side runs carry the scale story.
pub const MAX_WIRE_NODES: usize = 512;

/// The table both subcommands print and write, one row per run.
fn outcome_table(runs: &[AppOutcome]) -> Table {
    let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1000.0);
    let columns: [Column<'_, AppOutcome>; 15] = [
        ("workload", &|o| o.workload.name().to_string()),
        ("phase", &|o| o.phase.clone()),
        ("nodes", &|o| o.nodes.to_string()),
        ("topics", &|o| o.topics.to_string()),
        ("epochs", &|o| o.epochs.to_string()),
        ("faults", &|o| o.plan_len.to_string()),
        ("sub_events", &|o| o.sub_events.to_string()),
        ("injected", &|o| o.injected.to_string()),
        ("deliveries", &|o| o.report.topic_deliveries.to_string()),
        ("goodput_bps", &|o| {
            format!("{:.1}", o.goodput_bytes_per_sec())
        }),
        ("stale_ms", &|o| ms(o.report.mean_staleness)),
        ("conv_p99_ms", &|o| ms(o.report.convergence_p99)),
        ("unapplied", &|o| o.report.unapplied.to_string()),
        ("divergent", &|o| o.divergent.len().to_string()),
        ("violations", &|o| o.violations.to_string()),
    ];
    table_of(&columns, runs)
}

/// Gates one outcome; prints what failed and returns the exit code
/// contribution (0 = clean).
fn gate(o: &AppOutcome) -> i32 {
    let mut code = o.oracle_gate(&o.phase);
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
/// scenarios on the wire — at [`WIRE_SCALE`] wherever `given` says a
/// scale flag was left unset — when loopback sockets are available.
/// Writes `<workload>.csv` and `<workload>_topics.csv`. Returns the
/// process exit code — nonzero on oracle violations, replica divergence,
/// or a dead application tier — or the scenario resolver's error.
pub fn app(
    opts: &ExpOptions,
    given: &GivenFlags,
    workload: Workload,
    scenario: Option<&str>,
    spec: Option<&str>,
) -> Result<i32, String> {
    // Presets gain the subscription churn; an ad-hoc spec runs as written.
    let resolve = |name: &str, spec: Option<&str>| {
        resolve_scenario(opts, name, spec).map(|(label, sc)| match spec {
            Some(_) => (label, sc),
            None => (label, with_sub_churn(sc, opts)),
        })
    };
    let runs: Vec<(String, Scenario)> = match (spec, scenario) {
        (None, None) => APP_PRESETS
            .iter()
            .map(|name| resolve(name, None))
            .collect::<Result<_, _>>()?,
        (spec, name) => vec![resolve(name.unwrap_or_default(), spec)?],
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

    let mut outs: Vec<AppOutcome> = Vec::new();
    let mut code = 0;
    for (label, scenario) in &runs {
        let out = run_app(opts, workload, label, scenario);
        eprintln!("  {}", out.manifest());
        code = code.max(gate(&out));
        outs.push(out);
    }
    let first_label = Some(runs[0].0.as_str());
    opts.write_csv_for_workload(
        &format!("{}_topics", workload.name()),
        &outs[0].topic_table(),
        workload.name(),
        first_label,
    );

    let wire = opts.scaled_to(given, &WIRE_SCALE);
    if wire.nodes > MAX_WIRE_NODES {
        eprintln!(
            "{}: wire replay skipped at {} nodes \
             (the loopback fabric is a deployment-scale harness, max {MAX_WIRE_NODES})",
            workload.name(),
            wire.nodes
        );
    } else if loopback_available() {
        for (label, scenario) in &runs {
            match run_app_wire(&wire, workload, label, scenario) {
                Ok(out) => {
                    eprintln!("  {}", out.manifest());
                    code = code.max(gate(&out));
                    outs.push(out);
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

    let table = outcome_table(&outs);
    println!("{table}");
    opts.write_csv_for_workload(workload.name(), &table, workload.name(), first_label);
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::parse_spec;

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
        assert!(out.plan_len >= 12, "plan must contain the faults");
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
