//! The `testnet` subcommand: sim-vs-wire conformance on real sockets.
//!
//! The simulator and the testnet host the *same* protocol state machine
//! behind the same `HostBackend` seam; what differs is the world around
//! it — virtual time and a latency matrix versus real sockets and the OS
//! scheduler. This subcommand is one configuration of [`crate::pipeline`]
//! run on both hosts: the same node constructor ([`gocast_nodes`]), one
//! workload schedule ([`inject`]), one fault plan ([`compile_plan`] over
//! [`wire_groups`]) and one [`horizon`]. Each side is audited by a
//! [`RunRecorder`] holding the invariant oracle, and its delivery ratio,
//! hop histogram and pull-recovery fraction are read from that run's
//! delivery ledger. The subcommand fails (exit 1) if the two sides
//! disagree beyond tolerance or either violates a protocol invariant.
//!
//! Exact equality is not the bar: the wire side sees real jitter,
//! discovery round-trips, and scheduling noise, so hop counts and
//! recovery fractions wander. What must *not* wander is the shape —
//! near-total delivery, histograms concentrated at the same depths, and
//! comparable reliance on pull recovery.
//!
//! Because the wire side runs in *wall-clock* time, this experiment uses
//! its own deployment-scale defaults ([`TESTNET_SCALE`]: 16 nodes, 200
//! messages, 3 s warm-up, 3 s drain; `gocast_testnet::deployment_config`
//! cadences) wherever the corresponding CLI flag was not given; explicit
//! `--nodes/--messages/--warmup/--drain/--rate/--seed` win
//! ([`ExpOptions::scaled_to`]). `--scenario NAME` / `--spec STR` attach a
//! chaos scenario, compiled once and replayed identically on both sides.
//!
//! Environments that cannot bind loopback sockets (some sandboxes) are
//! reported and skipped with exit 0, so CI stays green without sockets.

use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};

use gocast::GoCastCommand;
use gocast_analysis::{DeliveryTracker, InvariantOracle, MetricsRecorder};
use gocast_metrics::MetricValue;
use gocast_sim::{HashedLatency, NodeId, ScenarioPlan, SimTime};
use gocast_testnet::{loopback_available, Testnet, TestnetConfig};

use crate::app::MAX_WIRE_NODES;
use crate::chaos::resolve_scenario;
use crate::options::{GivenFlags, Scale};
use crate::pipeline::{
    audit_wire, compile_plan, gocast_nodes, horizon, inject, wire_groups, MetricsStream, Run,
    RunCore, RunRecorder, Sources, WORKLOAD,
};
use crate::ExpOptions;

/// The conformance run's scale wherever no flag says otherwise (the
/// injection rate stays the paper's).
pub const TESTNET_SCALE: Scale = Scale {
    nodes: 16,
    messages: 200,
    rate: 100.0,
    warmup: Duration::from_secs(3),
    drain: Duration::from_secs(3),
};

/// Delivery ratio each side must reach when the plan holds no fault
/// (node faults legitimately shrink the receiver set).
const MIN_DELIVERY: f64 = 0.999;
/// Largest allowed |sim − wire| gap in mean hop count.
const MEAN_HOPS_GAP: f64 = 2.5;
/// Largest allowed |sim − wire| gap in pull-recovery fraction.
const RECOVERY_GAP: f64 = 0.25;
/// Largest allowed total-variation distance between the hop histograms.
const HIST_TV: f64 = 0.35;

/// Resolves the CLI flags to the options both sides run (see the module
/// docs for the defaulting rule) and the one plan both replay; refuses a
/// population past [`MAX_WIRE_NODES`] before either side runs.
pub fn resolve(
    opts: &ExpOptions,
    given: &GivenFlags,
    scenario: &str,
    spec: Option<&str>,
) -> Result<(ExpOptions, ScenarioPlan), String> {
    if opts.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let wire = opts.scaled_to(given, &TESTNET_SCALE);
    if wire.nodes > MAX_WIRE_NODES {
        return Err(format!(
            "--nodes must be at most {MAX_WIRE_NODES} on the wire (got {})",
            wire.nodes
        ));
    }
    let (_, sc) = resolve_scenario(&wire, scenario, spec)?;
    // A preset can name a node the wire population does not have.
    sc.check_nodes(wire.nodes)
        .map_err(|e| format!("bad --spec: {e}"))?;
    let plan = compile_plan(&wire, &sc, &wire_groups(wire.nodes));
    Ok((wire, plan))
}

/// What one host measured.
#[derive(Debug)]
pub struct Side {
    /// The oracle's verdict, the plan size and the host's final snapshot
    /// (fabric plus `proto_*` counters on the wire).
    pub core: RunCore,
    /// The run's recorder metrics, holding its delivery ledger.
    pub metrics: MetricsRecorder,
    /// Wall-clock time the host took to run the workload.
    pub elapsed: Duration,
}

impl Side {
    fn ledger(&self) -> &DeliveryTracker {
        self.metrics.delivery()
    }

    fn msgs_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ledger().delivered() as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Both hosts' runs of one workload.
#[derive(Debug)]
pub struct Conformance {
    /// The simulator's run.
    pub sim: Side,
    /// The loopback-socket run.
    pub wire: Side,
    /// Deliveries a full run owes: messages × (nodes − 1).
    pub owed: u64,
    /// The horizon both runs ended at.
    pub end: SimTime,
}

/// Total-variation distance between two hop histograms, each normalized
/// to a probability distribution (0 = identical shape, 1 = disjoint).
fn histogram_tv(a: &[u64], b: &[u64]) -> f64 {
    let (sa, sb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    if sa == 0.0 || sb == 0.0 {
        return if sa == sb { 0.0 } else { 1.0 };
    }
    let len = a.len().max(b.len());
    (0..len)
        .map(|i| {
            let pa = a.get(i).copied().unwrap_or(0) as f64 / sa;
            let pb = b.get(i).copied().unwrap_or(0) as f64 / sb;
            (pa - pb).abs()
        })
        .sum::<f64>()
        / 2.0
}

impl Conformance {
    /// `side`'s deliveries over [`Conformance::owed`].
    pub fn delivery_ratio(&self, side: &Side) -> f64 {
        if self.owed == 0 {
            1.0
        } else {
            side.ledger().delivered() as f64 / self.owed as f64
        }
    }

    /// |sim − wire| mean hop count.
    pub fn mean_hops_gap(&self) -> f64 {
        (self.sim.ledger().mean_hops() - self.wire.ledger().mean_hops()).abs()
    }

    /// |sim − wire| pull-recovery fraction.
    pub fn recovery_gap(&self) -> f64 {
        (self.sim.ledger().recovery_fraction() - self.wire.ledger().recovery_fraction()).abs()
    }

    /// Total-variation distance between the two hop histograms.
    pub fn hist_tv(&self) -> f64 {
        histogram_tv(
            self.sim.ledger().hop_counts(),
            self.wire.ledger().hop_counts(),
        )
    }

    /// Every threshold the run violated, as human-readable strings.
    /// Empty means the sides conform. The absolute delivery gate applies
    /// exactly when the plan holds no fault.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, side) in [("sim", &self.sim), ("wire", &self.wire)] {
            let ratio = self.delivery_ratio(side);
            if side.core.plan_len == 0 && ratio < MIN_DELIVERY {
                out.push(format!(
                    "{name} delivery ratio {ratio:.4} below {MIN_DELIVERY:.4}"
                ));
            }
            if side.core.violations > 0 {
                out.push(format!(
                    "{name} trace has {} oracle violations",
                    side.core.violations
                ));
            }
        }
        for (what, gap, bound) in [
            ("mean-hop gap", self.mean_hops_gap(), MEAN_HOPS_GAP),
            ("recovery-fraction gap", self.recovery_gap(), RECOVERY_GAP),
            ("hop-histogram TV distance", self.hist_tv(), HIST_TV),
        ] {
            if gap > bound {
                out.push(format!("{what} {gap:.3} exceeds {bound:.3}"));
            }
        }
        out
    }

    /// A compact table of the comparison, for CLI output.
    pub fn render(&self) -> String {
        let mut s = String::from("metric               sim        wire\n");
        let mut row = |name: &str, cell: &dyn Fn(&Side) -> String| {
            let (a, b) = (cell(&self.sim), cell(&self.wire));
            let _ = writeln!(s, "{name:<17} {a:>8}  {b:>8}");
        };
        row("delivery ratio", &|x| {
            format!("{:.4}", self.delivery_ratio(x))
        });
        row("mean hops", &|x| format!("{:.2}", x.ledger().mean_hops()));
        row("max hop", &|x| x.ledger().max_hop().to_string());
        row("recovery frac", &|x| {
            format!("{:.3}", x.ledger().recovery_fraction())
        });
        row("oracle violations", &|x| x.core.violations.to_string());
        row("trace records", &|x| x.core.oracle_records.to_string());
        row("msgs/sec", &|x| format!("{:.0}", x.msgs_per_sec()));
        let _ = writeln!(s, "hop-histogram TV  {:>8.3}", self.hist_tv());
        s
    }
}

/// The one workload both hosts run: `opts.messages` multicasts from the
/// end of warm-up, each from a node drawn uniformly over every id.
fn multicasts(opts: &ExpOptions, schedule: impl FnMut(SimTime, NodeId, GoCastCommand)) {
    let everyone = Sources::Live((0..opts.nodes as u32).map(NodeId::new).collect());
    inject(
        opts,
        WORKLOAD,
        SimTime::ZERO + opts.warmup,
        &everyone,
        |_, _, src, _| (src, GoCastCommand::Multicast),
        schedule,
    );
}

/// Runs the resolved workload and plan through the simulator — virtual
/// time over a loopback-like latency matrix (hash-distributed 100–900 µs,
/// what two processes on one host see) — and then over real loopback
/// sockets, with the deployment protocol configuration on both.
///
/// # Errors
///
/// Propagates socket errors from the wire side.
pub fn conform(opts: &ExpOptions, plan: &ScenarioPlan) -> io::Result<Conformance> {
    let cfg = TestnetConfig::new(opts.nodes)
        .with_seed(opts.seed)
        .with_shards(opts.shards);
    let proto = &cfg.protocol;
    let injected = u64::from(opts.messages);
    let end = horizon(opts, SimTime::ZERO + opts.warmup, Some(plan));

    let latency = HashedLatency::new(
        opts.nodes,
        Duration::from_micros(100),
        Duration::from_micros(900),
        opts.seed,
    );
    let rec = RunRecorder::detached(Some(InvariantOracle::for_protocol(proto)));
    let mut run = Run::new(opts, latency, false, rec, gocast_nodes(opts, proto));
    run.schedule(plan);
    multicasts(opts, |at, n, cmd| run.sim.schedule_command(at, n, cmd));
    let started = Instant::now();
    run.drive(end);
    let elapsed = started.elapsed();
    let core = run.finish(injected, plan.len());
    let sim = Side {
        core,
        metrics: run.sim.into_recorder().metrics,
        elapsed,
    };

    let rec = RunRecorder::detached(Some(InvariantOracle::for_protocol(proto)));
    let mut net = Testnet::build_with(&cfg, rec, gocast_nodes(opts, proto))?;
    net.attach_plan(plan);
    multicasts(opts, |at, n, cmd| net.schedule_command(at, n, cmd));
    let started = Instant::now();
    net.run_for(Duration::from_nanos(end.as_nanos()));
    let elapsed = started.elapsed();
    let core = audit_wire(&mut net, injected, plan.len());
    let wire = Side {
        core,
        metrics: net.into_recorder().metrics,
        elapsed,
    };
    Ok(Conformance {
        sim,
        wire,
        owed: injected * opts.nodes.saturating_sub(1) as u64,
        end,
    })
}

/// Runs the conformance comparison and returns the process exit code, or
/// the option/scenario resolver's error.
pub fn testnet(
    opts: &ExpOptions,
    given: &GivenFlags,
    scenario: &str,
    spec: Option<&str>,
) -> Result<i32, String> {
    let (wire, plan) = resolve(opts, given, scenario, spec)?;
    if !loopback_available() {
        eprintln!("testnet: loopback UDP unavailable in this environment; skipping");
        return Ok(0);
    }
    eprintln!(
        "testnet: {} nodes, {} messages @ {:.0}/s, warmup {:?}, drain {:?}, seed {}, shards {}, {} planned fault(s)",
        wire.nodes,
        wire.messages,
        wire.rate,
        wire.warmup,
        wire.drain,
        wire.seed,
        wire.shards,
        plan.len()
    );
    let report = match conform(&wire, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("testnet: run failed: {e}");
            return Ok(1);
        }
    };
    print!("{}", report.render());
    let snap = &report.wire.core.metrics;
    // One greppable line for CI: the batching economics of this run.
    let counter = |name: &str| {
        snap.entries()
            .iter()
            .find_map(|e| match (e.name == name, &e.value) {
                (true, MetricValue::Counter(v)) => Some(*v),
                _ => None,
            })
            .unwrap_or(0)
    };
    println!(
        "fabric: shards={} syscalls_saved={} sendmmsg_calls={} recvmmsg_calls={}",
        wire.shards,
        counter("fabric_syscalls_saved"),
        counter("fabric_sendmmsg_calls"),
        counter("fabric_recvmmsg_calls"),
    );
    crate::report::print_snapshot("wire metrics", snap);
    // `--metrics-out` on testnet captures the wire-side snapshot
    // (manifest-stamped, one line) for offline comparison.
    let manifest = wire.manifest(Some(spec.unwrap_or(scenario)));
    if let Some(mut stream) = MetricsStream::open(&wire, &manifest) {
        stream.sample(report.end, snap);
    }
    let failures = report.failures();
    for f in &failures {
        println!("conformance FAIL: {f}");
    }
    if failures.is_empty() {
        println!("conformance: PASS");
    }
    Ok(i32::from(!failures.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_to_deployment_scale() {
        let opts = ExpOptions::default();
        let (wire, plan) = resolve(&opts, &GivenFlags::default(), "baseline", None).unwrap();
        assert_eq!(wire.nodes, 16);
        assert_eq!(wire.messages, 200);
        assert_eq!(wire.warmup, Duration::from_secs(3));
        assert!(plan.is_empty(), "baseline must stay strict");
    }

    #[test]
    fn a_flag_that_repeats_the_simulation_default_still_wins() {
        // `testnet --messages 1000 --warmup 500`: both equal
        // `ExpOptions::default()`, both were given.
        let given = GivenFlags {
            messages: true,
            warmup: true,
            ..GivenFlags::default()
        };
        let (wire, _) = resolve(&ExpOptions::default(), &given, "baseline", None).unwrap();
        assert_eq!(wire.messages, 1000);
        assert_eq!(wire.warmup, Duration::from_secs(500));
        assert_eq!(wire.nodes, 16, "unset fields still drop to wire scale");
        assert_eq!(wire.drain, Duration::from_secs(3));
    }

    #[test]
    fn explicit_flags_and_scenarios_win() {
        let opts = ExpOptions {
            nodes: 8,
            messages: 50,
            ..ExpOptions::default()
        };
        let given = GivenFlags {
            nodes: true,
            messages: true,
            ..GivenFlags::default()
        };
        let (wire, plan) = resolve(&opts, &given, "partition", None).unwrap();
        assert_eq!(wire.nodes, 8);
        assert_eq!(wire.messages, 50);
        assert!(!plan.is_empty(), "chaos relaxes the delivery gate");
        assert!(resolve(&opts, &given, "nonsense", None).is_err());
    }

    #[test]
    fn group_correlated_scenarios_compile_over_the_wire_groups() {
        let opts = ExpOptions {
            nodes: 12,
            messages: 20,
            ..ExpOptions::default()
        };
        let given = GivenFlags {
            nodes: true,
            messages: true,
            ..GivenFlags::default()
        };
        for (name, spec) in [
            ("catastrophe", None),
            ("baseline", Some("crashsite(at=1,node=5)")),
            ("baseline", Some("partition(at=1,heal=2,split=group:2)")),
        ] {
            let (wire, plan) = resolve(&opts, &given, name, spec).unwrap();
            assert_eq!(plan.nodes(), wire.nodes);
            assert!(!plan.is_empty(), "{name} {spec:?} compiled to no fault");
        }
        // The site of node 5 is its quartet: nodes 1, 5 and 9.
        let (_, plan) = resolve(&opts, &given, "baseline", Some("crashsite(at=1,node=5)")).unwrap();
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn histogram_tv_basics() {
        assert_eq!(histogram_tv(&[], &[]), 0.0);
        assert_eq!(histogram_tv(&[10, 0], &[5, 0]), 0.0); // same shape
        assert_eq!(histogram_tv(&[10, 0], &[0, 10]), 1.0); // disjoint
        let tv = histogram_tv(&[5, 5], &[10, 0]);
        assert!((tv - 0.5).abs() < 1e-9);
        assert_eq!(histogram_tv(&[1], &[]), 1.0); // one empty
    }
}
