//! The `scale` experiment: 10⁵–10⁶-node GoCast runs on the sharded kernel.
//!
//! Everything here is built for *bounded memory per node*:
//!
//! - the latency model is [`gocast_net::OnDemandKing`] — O(sites)
//!   coordinates, every pairwise latency synthesized on demand (no N×N
//!   table);
//! - `--sim-shards N` spreads the nodes across N worker threads
//!   ([`Run::new`]) and changes no artifact (see [`crate::pipeline`]);
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
//! nodes' ([`gocast::GoCastNode::mem_bytes`], mean per node) plus the
//! process peak RSS, feeding the scaling-curve table in EXPERIMENTS.md.

use std::fmt::Write as _;
use std::ops::Deref;

use gocast_analysis::{Cdf, InvariantOracle, Table};
use gocast_sim::{Scenario, TrafficClass, TrafficStats};

use crate::chaos::resolve_scenario;
use crate::options::ExpOptions;
use crate::pipeline::{
    audited_gocast, compile_plan, gocast_nodes, horizon, scale_network, Run, RunCore, RunRecorder,
    Sources,
};
use crate::report::{kernel_digest, table_of, Column};

/// Everything one scale run produces.
#[derive(Debug)]
pub struct ScaleOutcome {
    /// Injected messages, planned faults (0 for the delivery phase;
    /// Poisson presets can legitimately compile to an empty plan on a
    /// short window, so the count is surfaced rather than assumed), the
    /// oracle's verdict, kernel counters (including the self-reported
    /// queue memory and slab occupancy) and the final metrics snapshot.
    pub core: RunCore,
    /// `delivery` or the chaos scenario label.
    pub phase: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Worker threads (`--sim-shards`).
    pub sim_shards: usize,
    /// Per-node average delivery delay distribution (fig3's metric).
    pub per_node_avg: Cdf,
    /// Nodes that missed at least one expected message.
    pub incomplete: usize,
    /// Mean self-reported protocol state per node at the end of the run
    /// ([`gocast::GoCastNode::mem_bytes`] totals over every node, crashed
    /// ones included — their state stays allocated).
    pub node_mem_bytes: u64,
    /// Process peak RSS (`VmHWM`), best-effort; process-wide, so it is
    /// reported but never part of [`ScaleOutcome::manifest`].
    pub peak_rss_bytes: Option<u64>,
    /// Wire bytes of every class but [`TrafficClass::Data`] sent from the
    /// end of warm-up to the end of the run: gossip, probes, pulls, tree
    /// and overlay upkeep.
    pub window_control_bytes: u64,
}

impl Deref for ScaleOutcome {
    type Target = RunCore;

    fn deref(&self) -> &RunCore {
        &self.core
    }
}

impl ScaleOutcome {
    /// A deterministic one-line digest of the run: every simulation-domain
    /// number and *no* wall-clock or process-wide quantity — the same
    /// options must produce the byte-identical string at **any**
    /// `--sim-shards` count (the integration tests assert this).
    pub fn manifest(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "phase={} nodes={} faults={} injected={} expected={} delivered={} ratio={:.6} \
             incomplete={} oracle={}/{}",
            self.phase,
            self.nodes,
            self.plan_len,
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

/// Wire bytes of every class but [`TrafficClass::Data`].
fn control_bytes(stats: &TrafficStats) -> u64 {
    stats.total().bytes - stats.class(TrafficClass::Data).bytes
}

/// The scale configuration of the pipeline: GoCast (stores kept for the
/// audit) over [`scale_network`], oracle-audited. With a scenario, its plan
/// is scheduled after warm-up (site groups make group faults correlated
/// site failures), sources are presence-gated and the store audit is
/// presence-aware; without one, sources are the live nodes and every node
/// owes every message.
fn scale_phases(opts: &ExpOptions, scenario: Option<(&str, &Scenario)>) -> ScaleOutcome {
    let net = scale_network(opts);
    let plan = scenario.map(|(_, s)| compile_plan(opts, s, &net.site_assignment()));
    let presence = plan.as_ref().map(|p| p.presence());
    let cfg = audited_gocast();
    let recorder = RunRecorder::for_opts(
        opts,
        &opts.manifest(scenario.map(|(label, _)| label)),
        Some(InvariantOracle::for_protocol(&cfg)),
    );
    let mut run = Run::new(opts, net, false, recorder, gocast_nodes(opts, &cfg));
    run.warm(opts.warmup);
    let warm_control_bytes = control_bytes(run.sim.stats());
    if let Some(plan) = &plan {
        run.schedule(plan);
    }
    let sources = match &presence {
        Some(presence) => Sources::Present(presence),
        None => run.live_sources(),
    };
    let start = run.inject_multicasts(opts, &sources);
    run.drive(horizon(opts, start, plan.as_ref()));

    let window_control_bytes = control_bytes(run.sim.stats()) - warm_control_bytes;
    let (per_node_avg, incomplete, _) = run.delays(opts);
    let (core, _) = run.finish_audited(plan.as_ref().map_or(0, |p| p.len()), |n, at| {
        presence.as_ref().is_none_or(|p| p.present_from(n, at))
    });
    let sim = &run.sim;
    let node_mem_total: u64 = sim
        .iter_nodes()
        .map(|(_, node)| node.mem_bytes().total() as u64)
        .sum();
    ScaleOutcome {
        core,
        phase: scenario.map_or("delivery".into(), |(label, _)| format!("chaos:{label}")),
        nodes: opts.nodes,
        sim_shards: opts.sim_shards,
        per_node_avg,
        incomplete,
        node_mem_bytes: node_mem_total / sim.len().max(1) as u64,
        peak_rss_bytes: peak_rss_bytes(),
        window_control_bytes,
    }
}

/// The fig3-style fault-free run: warm the overlay up, inject
/// `opts.messages` multicasts from uniformly drawn live sources, drain,
/// and audit every store.
pub fn run_scale_delivery(opts: &ExpOptions) -> ScaleOutcome {
    scale_phases(opts, None)
}

/// The chaos run: the same build plus a compiled fault scenario — the
/// threaded-kernel analogue of the `chaos` subcommand.
pub fn run_scale_chaos(opts: &ExpOptions, label: &str, scenario: &Scenario) -> ScaleOutcome {
    scale_phases(opts, Some((label, scenario)))
}

/// The scaling table this subcommand prints and writes, one row per run.
fn scaling_table(runs: [&ScaleOutcome; 2]) -> Table {
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let columns: [Column<'_, ScaleOutcome>; 17] = [
        ("phase", &|o| o.phase.clone()),
        ("nodes", &|o| o.nodes.to_string()),
        ("sim_shards", &|o| o.sim_shards.to_string()),
        ("faults", &|o| o.plan_len.to_string()),
        ("injected", &|o| o.injected.to_string()),
        ("expected", &|o| o.expected.to_string()),
        ("delivered", &|o| o.delivered.to_string()),
        ("ratio", &|o| format!("{:.4}", o.delivery_ratio())),
        ("mean_ms", &|o| match o.per_node_avg.is_empty() {
            true => "-".into(),
            false => format!("{:.1}", o.per_node_avg.mean().as_secs_f64() * 1000.0),
        }),
        ("violations", &|o| o.violations.to_string()),
        ("ctl_b_per_del", &|o| {
            format!(
                "{:.1}",
                o.window_control_bytes as f64 / o.delivered.max(1) as f64
            )
        }),
        ("events", &|o| o.kernel.events_processed.to_string()),
        ("events_per_sec", &|o| {
            format!("{:.0}", o.kernel.events_per_sec())
        }),
        ("queue_mem_mb", &|o| {
            format!("{:.1}", mib(o.kernel.queue_mem_bytes))
        }),
        ("node_kb", &|o| {
            format!("{:.1}", o.node_mem_bytes as f64 / 1024.0)
        }),
        ("slab_slots", &|o| o.kernel.slab_slots.to_string()),
        ("peak_rss_mb", &|o| {
            o.peak_rss_bytes
                .map_or("-".into(), |b| format!("{:.0}", mib(b)))
        }),
    ];
    table_of(&columns, runs)
}

/// The `scale` subcommand: the fig3-style delivery run plus one chaos
/// preset (default `catastrophe`; `--scenario`/`--spec` select another) at
/// `opts.nodes` on the sharded kernel, printing the scaling row for each
/// and writing `scale.csv` / `scale_cdf.csv`. Returns a process exit
/// code — nonzero when the oracle found violations or delivery collapsed —
/// or the scenario resolver's error.
pub fn scale(opts: &ExpOptions, scenario_name: &str, spec: Option<&str>) -> Result<i32, String> {
    let (label, scenario) = resolve_scenario(opts, scenario_name, spec)?;
    let label = label.as_str();
    eprintln!(
        "scale: {} nodes, {} sim-shard(s), {} messages; delivery + chaos `{label}` ...",
        opts.nodes, opts.sim_shards, opts.messages
    );

    let delivery = run_scale_delivery(opts);
    eprintln!("  {}", delivery.manifest());
    let chaos = run_scale_chaos(opts, label, &scenario);
    eprintln!("  {}", chaos.manifest());

    let table = scaling_table([&delivery, &chaos]);
    println!("{table}");
    opts.write_csv_for_scenario("scale", &table, Some(label));
    opts.write_csv("scale_cdf", &delivery.cdf_table());

    let mut code = 0;
    for o in [&delivery, &chaos] {
        code |= o.oracle_gate(&o.phase);
        if o.delivery_ratio() < 0.95 {
            eprintln!(
                "  {}: delivery ratio {:.4} below the 0.95 floor",
                o.phase,
                o.delivery_ratio()
            );
            code = 1;
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::parse_spec;
    use std::time::Duration;

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
        assert!(out.plan_len >= 16, "plan must actually contain the faults");
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
        assert!(serial.plan_len >= 16, "identity must be shown under faults");
        assert_eq!(
            serial.manifest(),
            threaded.manifest(),
            "chaos delivery manifest must not depend on --sim-shards"
        );
    }
}
