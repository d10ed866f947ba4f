//! The `testnet` subcommand: sim-vs-wire conformance on real sockets.
//!
//! Runs the differential harness from `gocast_testnet::conformance` —
//! the same workload through the virtual-time simulator and through N
//! real loopback-UDP nodes — and fails (exit 1) if the two sides
//! disagree beyond tolerance or either trace violates a protocol
//! invariant.
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

use std::time::Duration;

use gocast_testnet::conformance::ConformanceOptions;
use gocast_testnet::{deployment_config, loopback_available};

use crate::chaos::resolve_scenario;
use crate::options::{GivenFlags, Scale};
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

/// Builds the conformance options the CLI flags resolve to (exposed for
/// tests; see the module docs for the defaulting rule).
pub fn resolve(
    opts: &ExpOptions,
    given: &GivenFlags,
    scenario: &str,
    spec: Option<&str>,
) -> Result<ConformanceOptions, String> {
    let wire = opts.scaled_to(given, &TESTNET_SCALE);
    let mut conf = ConformanceOptions::new(wire.nodes, wire.messages as usize).with_seed(wire.seed);
    conf.warmup = wire.warmup;
    conf.drain = wire.drain;
    conf.rate = wire.rate;
    conf.protocol = deployment_config();
    if opts.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    conf.shards = opts.shards;

    // An empty scenario (the `baseline` preset) keeps the strict delivery
    // gate; attaching it would relax it for nothing.
    let (_, sc) = resolve_scenario(opts, scenario, spec)?;
    // The wire population can be smaller than the one the resolver checked.
    sc.check_nodes(wire.nodes)
        .map_err(|e| format!("bad --spec: {e}"))?;
    if spec.is_some() || sc.step_count() > 0 {
        conf = conf.with_scenario(sc);
    }
    Ok(conf)
}

/// Runs the conformance harness and returns the process exit code, or
/// the option/scenario resolver's error.
pub fn testnet(
    opts: &ExpOptions,
    given: &GivenFlags,
    scenario: &str,
    spec: Option<&str>,
) -> Result<i32, String> {
    let conf = resolve(opts, given, scenario, spec)?;
    if !loopback_available() {
        eprintln!("testnet: loopback UDP unavailable in this environment; skipping");
        return Ok(0);
    }
    eprintln!(
        "testnet: {} nodes, {} messages @ {:.0}/s, warmup {:?}, drain {:?}, seed {}, shards {}{}",
        conf.nodes,
        conf.messages,
        conf.rate,
        conf.warmup,
        conf.drain,
        conf.seed,
        conf.shards,
        if conf.scenario.is_some() {
            " (chaos scenario attached)"
        } else {
            ""
        }
    );
    let report = match conf.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("testnet: run failed: {e}");
            return Ok(1);
        }
    };
    print!("{}", report.render());
    if let Some(snap) = &report.wire.wire_metrics {
        // One greppable line for CI: the batching economics of this run.
        let counter = |name: &str| {
            snap.entries()
                .iter()
                .find_map(|e| match (e.name == name, &e.value) {
                    (true, gocast_metrics::MetricValue::Counter(v)) => Some(*v),
                    _ => None,
                })
                .unwrap_or(0)
        };
        println!(
            "fabric: shards={} syscalls_saved={} sendmmsg_calls={} recvmmsg_calls={}",
            conf.shards,
            counter("fabric_syscalls_saved"),
            counter("fabric_sendmmsg_calls"),
            counter("fabric_recvmmsg_calls"),
        );
        crate::report::print_snapshot("wire metrics", snap);
        // `--metrics-out` on testnet captures the wire-side fabric
        // snapshot (manifest-stamped, one line) for offline comparison.
        let label = spec.unwrap_or(scenario);
        let manifest = opts.manifest(Some(label));
        if let Some(mut stream) = crate::pipeline::MetricsStream::open(opts, &manifest) {
            let at = gocast_sim::SimTime::from_nanos(conf.total().as_nanos() as u64);
            stream.sample(at, snap);
        }
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
        let conf = resolve(&opts, &GivenFlags::default(), "baseline", None).unwrap();
        assert_eq!(conf.nodes, 16);
        assert_eq!(conf.messages, 200);
        assert_eq!(conf.warmup, Duration::from_secs(3));
        assert!(conf.scenario.is_none(), "baseline must stay strict");
        assert!(conf.tol.require_delivery);
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
        let conf = resolve(&ExpOptions::default(), &given, "baseline", None).unwrap();
        assert_eq!(conf.messages, 1000);
        assert_eq!(conf.warmup, Duration::from_secs(500));
        assert_eq!(conf.nodes, 16, "unset fields still drop to wire scale");
        assert_eq!(conf.drain, Duration::from_secs(3));
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
        let conf = resolve(&opts, &given, "partition", None).unwrap();
        assert_eq!(conf.nodes, 8);
        assert_eq!(conf.messages, 50);
        assert!(conf.scenario.is_some());
        assert!(
            !conf.tol.require_delivery,
            "chaos relaxes the delivery gate"
        );
        assert!(resolve(&opts, &given, "nonsense", None).is_err());
    }
}
