//! The `scale` experiment: 10⁵–10⁶-node GoCast runs on the sharded kernel.
//!
//! Everything here is built for *bounded memory per node*:
//!
//! - the latency model is [`OnDemandKing`] — O(sites) coordinates, every
//!   pairwise latency synthesized on demand (no N×N table);
//! - the simulation runs on [`ShardedSim`], the fixed-lane conservative
//!   parallel kernel: `--sim-shards N` spreads lanes across N worker
//!   threads while the fixed lane decomposition keeps every recorder
//!   event, statistic, and artifact **byte-identical at any thread
//!   count** (asserted by the integration tests);
//! - delay statistics use the same per-node aggregates as the fig3
//!   runners (O(nodes), not O(deliveries)).
//!
//! Two runs make up the subcommand: a fig3-style fault-free
//! delivery/latency experiment, and one chaos preset (default
//! `catastrophe`, a deterministic correlated site crash — chosen over
//! Poisson `churn` because a short window can legitimately compile an
//! empty churn plan and the scale artifact must exercise faults)
//! driven through the scenario compiler and audited by the invariant
//! oracle. Both report what the kernel's queues reserve when the run ends
//! ([`gocast_sim::KernelStats::slab_slots`] / `queue_mem_bytes`), the
//! nodes' ([`GoCastNode::mem_bytes`], mean per node) plus the process peak
//! RSS, feeding the scaling-curve table in EXPERIMENTS.md.

use std::fmt::Write as _;
use std::time::Duration;

use gocast::{bootstrap_random_graph, GoCastConfig, GoCastEvent, GoCastNode};
use gocast_analysis::{Cdf, InvariantOracle, MetricsRecorder, RecoveryTracker, Table};
use gocast_metrics::ProtocolMetrics;
use gocast_net::{OnDemandKing, SyntheticKingConfig};
use gocast_sim::{
    NodeId, Recorder, Scenario, ScenarioEnv, ShardedSim, ShardedSimBuilder, SimTime, Stack,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chaos::{builtin_names, builtin_scenario, parse_spec, WINDOW};
use crate::options::ExpOptions;
use crate::report::kernel_digest;

/// The composite recorder scale runs install: fig3-style delay
/// aggregates, per-message injection accounting for the delivery audit,
/// the online invariant oracle, and capability-neutral protocol counters.
/// All state is O(nodes + messages), never O(deliveries).
#[derive(Debug)]
pub struct ScaleRecorder {
    /// Steady-state delivery aggregates (per-node delays, redundancy).
    pub metrics: MetricsRecorder,
    /// Injection bookkeeping for the end-of-run store audit.
    pub recovery: RecoveryTracker,
    /// Online safety-invariant checker.
    pub oracle: InvariantOracle,
    /// Capability-neutral protocol counters.
    pub proto: ProtocolMetrics,
}

impl ScaleRecorder {
    /// A recorder whose oracle bounds match a GoCast `cfg`.
    pub fn for_protocol(cfg: &GoCastConfig) -> Self {
        ScaleRecorder {
            metrics: MetricsRecorder::new(),
            recovery: RecoveryTracker::new(WINDOW),
            oracle: InvariantOracle::for_protocol(cfg),
            proto: ProtocolMetrics::default(),
        }
    }
}

impl Recorder<GoCastEvent> for ScaleRecorder {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        event.observe_into(&mut self.proto);
        self.recovery.record(now, node, event.clone());
        self.oracle.record(now, node, event.clone());
        self.metrics.record(now, node, event);
    }
}

/// Everything one scale run produces.
#[derive(Debug)]
pub struct ScaleOutcome {
    /// `delivery` or the chaos scenario label.
    pub phase: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Lanes the population was decomposed into.
    pub lanes: usize,
    /// Worker threads (`--sim-shards`).
    pub sim_shards: usize,
    /// Planned faults the scenario compiled to (0 for the delivery
    /// phase). Poisson presets can legitimately compile to an empty plan
    /// on a short window, so the count is surfaced rather than assumed.
    pub faults: usize,
    /// Messages injected.
    pub injected: u64,
    /// Deliveries owed (audited against the presence timeline).
    pub expected: u64,
    /// Deliveries found in message stores at the end of the run.
    pub delivered: u64,
    /// Per-node average delivery delay distribution (fig3's metric).
    pub per_node_avg: Cdf,
    /// Nodes that missed at least one expected message.
    pub incomplete: usize,
    /// Records the invariant oracle checked.
    pub oracle_records: u64,
    /// Invariant violations found (should be 0).
    pub violations: usize,
    /// The first few violations, formatted (empty on a clean run).
    pub violation_lines: Vec<String>,
    /// Kernel counters at the end of the run (includes the self-reported
    /// queue memory and slab occupancy).
    pub kernel: gocast_sim::KernelStats,
    /// Mean self-reported protocol state per node at the end of the run
    /// ([`GoCastNode::mem_bytes`] totals over every node, crashed ones
    /// included — their state stays allocated).
    pub node_mem_bytes: u64,
    /// Final combined metrics snapshot (kernel + protocol).
    pub metrics: gocast_metrics::Snapshot,
    /// Process peak RSS (`VmHWM`), best-effort; process-wide, so it is
    /// reported but never part of [`ScaleOutcome::manifest`].
    pub peak_rss_bytes: Option<u64>,
}

impl ScaleOutcome {
    /// `delivered / expected` (1.0 when nothing was owed).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }

    /// Kernel events retired per wall-clock second inside the run loops.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.kernel.wall_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.kernel.events_processed as f64 / secs
        }
    }

    /// A deterministic one-line digest of the run: every simulation-domain
    /// number and *no* wall-clock or process-wide quantity — the same
    /// options must produce the byte-identical string at **any**
    /// `--sim-shards` count (the integration tests assert this).
    pub fn manifest(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "phase={} nodes={} lanes={} faults={} injected={} expected={} delivered={} ratio={:.6} \
             incomplete={} oracle={}/{}",
            self.phase,
            self.nodes,
            self.lanes,
            self.faults,
            self.injected,
            self.expected,
            self.delivered,
            self.delivery_ratio(),
            self.incomplete,
            self.violations,
            self.oracle_records,
        );
        if !self.per_node_avg.is_empty() {
            let _ = write!(
                s,
                " delay[mean={}us p50={}us p99={}us max={}us]",
                self.per_node_avg.mean().as_micros(),
                self.per_node_avg.percentile(0.50).as_micros(),
                self.per_node_avg.percentile(0.99).as_micros(),
                self.per_node_avg.max().as_micros(),
            );
        }
        let _ = write!(s, " {}", kernel_digest(&self.kernel));
        s
    }

    /// The fig3-style delay-CDF table (`delay_ms`, `fraction`), sampled
    /// at 100 evenly spaced points. Deterministic at any `--sim-shards`.
    pub fn cdf_table(&self) -> Table {
        let mut t = Table::new(["delay_ms", "fraction"]);
        for (d, frac) in self.per_node_avg.curve(100) {
            t.row([
                format!("{:.3}", d.as_secs_f64() * 1000.0),
                format!("{frac:.4}"),
            ]);
        }
        t
    }
}

/// Reads the process peak resident set (`VmHWM`) from
/// `/proc/self/status`, in bytes. Best-effort: `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Builds the sharded simulation every scale run uses: [`OnDemandKing`]
/// latencies (O(sites) memory), the standard bootstrap graph stream
/// (`seed ^ 0xB007`), GoCast with garbage collection pushed past the run
/// so the end-of-run audit can read the stores, and `opts.sim_shards`
/// worker threads. Returns the sim plus the node→site assignment (the
/// group map for correlated site faults).
fn build_scale_sim(
    opts: &ExpOptions,
) -> (
    ShardedSim<GoCastNode, ScaleRecorder>,
    Vec<u32>,
    GoCastConfig,
) {
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
    let links_per_node = (cfg.c_degree() / 2).max(1);
    let mut boot = bootstrap_random_graph(opts.nodes, links_per_node, opts.seed ^ 0xB007);
    let sim = ShardedSimBuilder::new(net)
        .seed(opts.seed)
        .threads(opts.sim_shards)
        .build_with(ScaleRecorder::for_protocol(&cfg), |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, cfg.clone(), links, members)
        });
    (sim, groups, cfg)
}

/// Audits message stores against a presence predicate: a node owes a
/// delivery of message `m` iff `owes(node, injection_time)` and it is not
/// the origin; a delivery counts when the store actually holds `m`.
fn audit_stores(
    sim: &ShardedSim<GoCastNode, ScaleRecorder>,
    owes: impl Fn(NodeId, SimTime) -> bool,
) -> (u64, u64) {
    let injections: Vec<_> = sim.recorder().recovery.injections().collect();
    let mut expected = 0u64;
    let mut delivered = 0u64;
    for n in 0..sim.len() as u32 {
        let n = NodeId::new(n);
        let node = sim.node(n);
        for (id, at) in &injections {
            if n == id.origin || !owes(n, *at) {
                continue;
            }
            expected += 1;
            if node.holds(id.origin, id.seq) {
                delivered += 1;
            }
        }
    }
    (expected, delivered)
}

/// Collects the common tail of both runs into a [`ScaleOutcome`].
fn finish_run(
    mut sim: ShardedSim<GoCastNode, ScaleRecorder>,
    opts: &ExpOptions,
    phase: String,
    faults: usize,
    expected: u64,
    delivered: u64,
) -> ScaleOutcome {
    sim.recorder_mut().oracle.finish();
    let live: Vec<NodeId> = sim.alive_nodes().collect();
    let (per_node_avg, incomplete) = sim
        .recorder()
        .metrics
        .per_node_average_delays(opts.messages as u64, &live);
    let mut snap = sim.metrics_snapshot();
    sim.recorder().proto.snapshot_into(&mut snap);
    let node_mem_total: u64 = (0..sim.len() as u32)
        .map(|n| sim.node(NodeId::new(n)).mem_bytes().total() as u64)
        .sum();
    let rec = sim.recorder();
    ScaleOutcome {
        phase,
        nodes: opts.nodes,
        lanes: sim.lane_count(),
        sim_shards: opts.sim_shards,
        faults,
        injected: rec.recovery.injected_count(),
        expected,
        delivered,
        per_node_avg,
        incomplete,
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
        node_mem_bytes: node_mem_total / sim.len().max(1) as u64,
        metrics: snap,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// The fig3-style fault-free run: warm the overlay up, inject
/// `opts.messages` multicasts from uniformly drawn live sources (the
/// standard `seed ^ 0x5EED` stream), drain, and audit every store.
pub fn run_scale_delivery(opts: &ExpOptions) -> ScaleOutcome {
    let (mut sim, _groups, _cfg) = build_scale_sim(opts);
    sim.run_until(SimTime::ZERO + opts.warmup);

    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
    let live: Vec<NodeId> = sim.alive_nodes().collect();
    let start = sim.now() + Duration::from_millis(100);
    for i in 0..opts.messages {
        let at = start + Duration::from_secs_f64(i as f64 / opts.rate);
        let src = live[rng.gen_range(0..live.len())];
        sim.schedule_command(at, src, <GoCastNode as Stack>::cmd_multicast());
    }
    sim.run_until(start + opts.inject_duration() + opts.drain);

    let (expected, delivered) = audit_stores(&sim, |_, _| true);
    finish_run(sim, opts, "delivery".into(), 0, expected, delivered)
}

/// The chaos run: same build, plus a compiled fault scenario (site groups
/// come from [`OnDemandKing::site_assignment`], so group faults are
/// correlated site failures) scheduled through
/// [`gocast_sim::ScenarioPlan::schedule_into`], presence-gated injections, and a
/// presence-aware audit — the sharded-kernel analogue of the `chaos`
/// subcommand's driver.
pub fn run_scale_chaos(opts: &ExpOptions, label: &str, scenario: &Scenario) -> ScaleOutcome {
    let (mut sim, groups, _cfg) = build_scale_sim(opts);
    sim.run_until(SimTime::ZERO + opts.warmup);

    let env = ScenarioEnv::new(opts.nodes, opts.seed)
        .with_groups(&groups)
        .starting_at(sim.now());
    let plan = scenario.compile(&env);
    plan.schedule_into(
        &mut sim,
        <GoCastNode as Stack>::cmd_join,
        <GoCastNode as Stack>::cmd_leave,
    );
    let presence = plan.presence();

    // Injections come from nodes the plan says are present at send time
    // (rejection sampling; the plan never empties the population).
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
    let start = sim.now() + Duration::from_millis(100);
    for i in 0..opts.messages {
        let at = start + Duration::from_secs_f64(i as f64 / opts.rate);
        let src = loop {
            let cand = NodeId::new(rng.gen_range(0..opts.nodes as u32));
            if presence.present(cand, at) {
                break cand;
            }
        };
        sim.schedule_command(at, src, <GoCastNode as Stack>::cmd_multicast());
    }
    let end = plan
        .end()
        .unwrap_or(start)
        .max(start + opts.inject_duration())
        + opts.drain;
    sim.run_until(end);

    let (expected, delivered) = audit_stores(&sim, |n, at| presence.present_from(n, at));
    finish_run(
        sim,
        opts,
        format!("chaos:{label}"),
        plan.len(),
        expected,
        delivered,
    )
}

/// One row of the scaling table this subcommand prints and writes.
fn outcome_row(table: &mut Table, o: &ScaleOutcome) {
    table.row([
        o.phase.clone(),
        o.nodes.to_string(),
        o.lanes.to_string(),
        o.sim_shards.to_string(),
        o.faults.to_string(),
        o.injected.to_string(),
        o.expected.to_string(),
        o.delivered.to_string(),
        format!("{:.4}", o.delivery_ratio()),
        if o.per_node_avg.is_empty() {
            "-".into()
        } else {
            format!("{:.1}", o.per_node_avg.mean().as_secs_f64() * 1000.0)
        },
        o.violations.to_string(),
        o.kernel.events_processed.to_string(),
        format!("{:.0}", o.events_per_sec()),
        format!("{:.1}", o.kernel.queue_mem_bytes as f64 / (1024.0 * 1024.0)),
        format!("{:.1}", o.node_mem_bytes as f64 / 1024.0),
        o.kernel.slab_slots.to_string(),
        o.peak_rss_bytes
            .map(|b| format!("{:.0}", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "-".into()),
    ]);
}

/// The `scale` subcommand: the fig3-style delivery run plus one chaos
/// preset (default `catastrophe`; `--scenario`/`--spec` select another) at
/// `opts.nodes` on the sharded kernel, printing the scaling row for each
/// and writing `scale.csv` / `scale_cdf.csv`. Returns a process exit
/// code: nonzero when the oracle found violations or delivery collapsed.
pub fn scale(opts: &ExpOptions, scenario_name: &str, spec: Option<&str>) -> i32 {
    let scenario = match spec {
        Some(spec) => parse_spec(spec).unwrap_or_else(|e| {
            eprintln!("bad --spec: {e}");
            std::process::exit(2);
        }),
        None => builtin_scenario(scenario_name, opts).unwrap_or_else(|| {
            eprintln!(
                "unknown scenario `{scenario_name}` (one of: {})",
                builtin_names().join(", ")
            );
            std::process::exit(2);
        }),
    };
    let label = if spec.is_some() {
        "spec"
    } else {
        scenario_name
    };
    eprintln!(
        "scale: {} nodes, {} sim-shard(s), {} messages; delivery + chaos `{label}` ...",
        opts.nodes, opts.sim_shards, opts.messages
    );

    let mut table = Table::new([
        "phase",
        "nodes",
        "lanes",
        "sim_shards",
        "faults",
        "injected",
        "expected",
        "delivered",
        "ratio",
        "mean_ms",
        "violations",
        "events",
        "events_per_sec",
        "queue_mem_mb",
        "node_kb",
        "slab_slots",
        "peak_rss_mb",
    ]);

    let delivery = run_scale_delivery(opts);
    outcome_row(&mut table, &delivery);
    eprintln!("  {}", delivery.manifest());

    let chaos = run_scale_chaos(opts, label, &scenario);
    outcome_row(&mut table, &chaos);
    eprintln!("  {}", chaos.manifest());

    println!("{table}");
    opts.write_csv_for_scenario("scale", &table, Some(label));
    opts.write_csv("scale_cdf", &delivery.cdf_table());

    let mut code = 0;
    for o in [&delivery, &chaos] {
        for line in &o.violation_lines {
            eprintln!("  violation [{}]: {line}", o.phase);
        }
        if o.violations > 0 {
            code = 1;
        }
        if o.delivery_ratio() < 0.95 {
            eprintln!(
                "  {}: delivery ratio {:.4} below the 0.95 floor",
                o.phase,
                o.delivery_ratio()
            );
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sim_shards: usize) -> ExpOptions {
        let mut o = ExpOptions::quick().with_sim_shards(sim_shards);
        o.nodes = 96;
        o.sites = 96;
        o.warmup = Duration::from_secs(20);
        o.messages = 4;
        o.rate = 2.0;
        o.drain = Duration::from_secs(20);
        o
    }

    #[test]
    fn delivery_run_delivers_and_stays_clean() {
        let o = tiny(1);
        let out = run_scale_delivery(&o);
        assert_eq!(out.injected, 4);
        assert_eq!(out.violations, 0, "{:?}", out.violation_lines);
        assert!(
            out.delivery_ratio() > 0.95,
            "ratio {} too low",
            out.delivery_ratio()
        );
        assert!(!out.per_node_avg.is_empty());
        assert!(out.kernel.queue_mem_bytes > 0, "self-reported memory");
        assert!(out.node_mem_bytes > 0, "self-reported node state");
        assert!(out.manifest().contains("phase=delivery"));
    }

    // Deterministic timed faults (mass leave + flash crowd), so the plan
    // is guaranteed non-empty at any seed — a Poisson preset over a short
    // window can legitimately compile to nothing (seed 42 does).
    const FAULT_SPEC: &str = "massleave(at=1,count=8); flashcrowd(at=6,count=8)";

    #[test]
    fn chaos_run_survives_faults() {
        let o = tiny(1);
        let scenario = parse_spec(FAULT_SPEC).unwrap();
        let out = run_scale_chaos(&o, "spec", &scenario);
        assert!(out.faults >= 16, "plan must actually contain the faults");
        assert_eq!(out.violations, 0, "{:?}", out.violation_lines);
        assert!(
            out.delivery_ratio() > 0.9,
            "ratio {} too low",
            out.delivery_ratio()
        );
    }

    #[test]
    fn manifests_are_identical_across_sim_shard_counts() {
        let serial = run_scale_delivery(&tiny(1));
        let threaded = run_scale_delivery(&tiny(4));
        assert_eq!(serial.manifest(), threaded.manifest());
        assert_eq!(
            serial.cdf_table().to_string(),
            threaded.cdf_table().to_string(),
            "fig3-style CSV must not depend on --sim-shards"
        );
    }

    #[test]
    fn chaos_manifests_are_identical_across_sim_shard_counts() {
        let scenario = parse_spec(FAULT_SPEC).unwrap();
        let serial = run_scale_chaos(&tiny(1), "spec", &scenario);
        let threaded = run_scale_chaos(&tiny(4), "spec", &scenario);
        assert!(serial.faults >= 16, "identity must be shown under faults");
        assert_eq!(
            serial.manifest(),
            threaded.manifest(),
            "chaos delivery manifest must not depend on --sim-shards"
        );
    }
}
