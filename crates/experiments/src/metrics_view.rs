//! The `metrics` subcommand: run a fully instrumented quick-scale
//! simulation (and, when loopback is available, a small wire fabric) and
//! render every subsystem's metric tables — the one-stop view of what
//! the telemetry registry collects.
//!
//! `metrics --overhead` instead measures what the instrumentation costs:
//! the same steady-state workload runs with telemetry off and on, and
//! the run fails (exit 1) if the instrumented kernel processes events
//! more than [`MAX_OVERHEAD`] slower — the budget DESIGN.md promises.

use std::time::{Duration, Instant};

use gocast::{GoCastCommand, GoCastConfig};
use gocast_sim::SimTime;
use gocast_testnet::{loopback_available, Testnet, TestnetConfig};

use crate::options::{ExpOptions, GivenFlags, Scale};
use crate::pipeline::{combined_snapshot, horizon};
use crate::report::print_snapshot;
use crate::runners::gocast_run;

/// Telemetry may slow steady-state event processing by at most this
/// fraction (5%).
pub const MAX_OVERHEAD: f64 = 0.05;

/// Trial pairs in the overhead measurement. Single containers show
/// ±10% sub-second throughput drift (CPU steal), far above the effect
/// being measured, so naive A-then-B timing is hopeless. Instead each
/// pair runs both modes back to back — sharing whatever noise regime the
/// container is in — in alternating order (to cancel any first-run
/// bias), and the overhead is the *median* of the per-pair ratios,
/// which discards pairs a noise spike landed inside.
const PAIRS: usize = 7;

/// A seconds-long run: what the simulation-sized defaults scale down to
/// wherever no flag was given ([`ExpOptions::scaled_to`]).
const METRICS_SCALE: Scale = Scale {
    nodes: 128,
    messages: 50,
    rate: 25.0,
    warmup: Duration::from_secs(60),
    drain: Duration::from_secs(10),
};

fn resolve_scale(opts: &ExpOptions, given: &GivenFlags) -> ExpOptions {
    let mut o = opts.scaled_to(given, &METRICS_SCALE);
    if !given.nodes {
        o.sites = 256;
    }
    o
}

/// Runs a GoCast dissemination workload with kernel telemetry enabled
/// and returns the final combined snapshot.
fn instrumented_run(o: &ExpOptions) -> gocast_metrics::Snapshot {
    let mut run = gocast_run(o, &GoCastConfig::default(), false);
    run.sim.enable_telemetry();
    run.warm(o.warmup);
    let start = run.inject_multicasts(o, &run.live_sources());
    run.drive(horizon(o, start, None));
    combined_snapshot(&run.sim)
}

/// Runs a small pub/sub workload through the [`crate::app`] runner and
/// returns its final snapshot — the `app_topic*` / `app_*` counter
/// family the application tier contributes to the registry.
fn app_snapshot(o: &ExpOptions) -> gocast_metrics::Snapshot {
    let mut a = o.clone();
    a.messages = a.messages.min(16);
    a.drain = Duration::from_secs(10);
    let out = crate::app::run_app(
        &a,
        crate::app::Workload::PubSub,
        "baseline",
        &gocast_sim::Scenario::new(),
    );
    out.core.metrics
}

/// The `metrics` subcommand body. Returns the process exit code.
pub fn metrics(opts: &ExpOptions, given: &GivenFlags) -> i32 {
    let o = resolve_scale(opts, given);
    eprintln!(
        "metrics: instrumented GoCast run, {} nodes, {} messages, seed {} ...",
        o.nodes, o.messages, o.seed
    );
    let snap = instrumented_run(&o);
    print_snapshot("simulation", &snap);

    eprintln!(
        "metrics: application tier (pubsub, {} topics) ...",
        o.topics
    );
    print_snapshot("application workloads", &app_snapshot(&o));

    if loopback_available() {
        eprintln!("metrics: wire fabric, 8 nodes, 2 s ...");
        let cfg = TestnetConfig::new(8).with_seed(o.seed);
        match Testnet::build_bootstrap(&cfg) {
            Ok(mut net) => {
                for k in 0..4u32 {
                    net.schedule_command(
                        SimTime::from_millis(500 + u64::from(k) * 250),
                        gocast_sim::NodeId::new(k % 8),
                        GoCastCommand::Multicast,
                    );
                }
                net.run_for(Duration::from_secs(2));
                print_snapshot("wire fabric", &net.metrics_snapshot());
            }
            Err(e) => eprintln!("metrics: fabric unavailable: {e}"),
        }
    } else {
        eprintln!("metrics: loopback UDP unavailable; skipping the wire fabric view");
    }
    0
}

/// Steady-state kernel throughput (events per wall-clock second) of a
/// warmed-up simulation, with or without telemetry.
fn steady_events_per_sec(o: &ExpOptions, telemetry: bool) -> f64 {
    let mut sim = gocast_run(o, &GoCastConfig::default(), false).sim;
    if telemetry {
        sim.enable_telemetry();
    }
    sim.run_until(SimTime::from_secs(30));
    let measured_secs = 480u64;
    let before = sim.kernel_stats().events_processed;
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(30 + measured_secs));
    let wall = t0.elapsed().as_secs_f64();
    (sim.kernel_stats().events_processed - before) as f64 / wall
}

/// The `metrics --overhead` gate. Returns the process exit code.
pub fn overhead(opts: &ExpOptions, given: &GivenFlags) -> i32 {
    let o = resolve_scale(opts, given);
    eprintln!(
        "metrics --overhead: {} nodes, median over {PAIRS} interleaved pairs ...",
        o.nodes
    );
    let mut off = 0.0f64;
    let mut on = 0.0f64;
    let mut ratios = Vec::with_capacity(PAIRS);
    for k in 0..PAIRS {
        let (first, second) = if k % 2 == 0 {
            let a = steady_events_per_sec(&o, false);
            (a, steady_events_per_sec(&o, true))
        } else {
            let b = steady_events_per_sec(&o, true);
            (steady_events_per_sec(&o, false), b)
        };
        off = off.max(first);
        on = on.max(second);
        ratios.push(second / first);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead = 1.0 - ratios[PAIRS / 2];
    println!("telemetry off: {off:>12.0} events/s (best trial)");
    println!("telemetry on:  {on:>12.0} events/s (best trial)");
    println!(
        "overhead:      {:>11.2}% (budget {:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    if overhead > MAX_OVERHEAD {
        eprintln!(
            "metrics --overhead: telemetry costs {:.2}%, over the {:.0}% budget",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_scale_keeps_explicit_flags() {
        let o = resolve_scale(&ExpOptions::default(), &GivenFlags::default());
        assert_eq!((o.nodes, o.sites), (128, 256));
        assert_eq!(o.warmup, Duration::from_secs(60));
        let explicit = ExpOptions {
            nodes: 64,
            ..ExpOptions::default()
        };
        let given = GivenFlags {
            nodes: true,
            ..GivenFlags::default()
        };
        let o = resolve_scale(&explicit, &given);
        assert_eq!((o.nodes, o.sites), (64, 1740));
    }

    #[test]
    fn instrumented_run_reports_every_subsystem() {
        let mut o = resolve_scale(&ExpOptions::quick(), &GivenFlags::ALL);
        o.nodes = 32;
        o.sites = 32;
        o.warmup = Duration::from_secs(10);
        o.messages = 4;
        o.rate = 4.0;
        o.drain = Duration::from_secs(5);
        let snap = instrumented_run(&o);
        let names: Vec<&str> = snap.entries().iter().map(|e| e.name).collect();
        assert!(names.contains(&"kernel_events"));
        assert!(
            names.contains(&"kernel_queue_depth"),
            "telemetry histograms on"
        );
        assert!(names.contains(&"proto_deliveries"));
    }

    #[test]
    fn app_snapshot_carries_topic_labels() {
        let mut o = resolve_scale(&ExpOptions::quick(), &GivenFlags::ALL);
        o.nodes = 48;
        o.sites = 48;
        o.topics = 4;
        o.warmup = Duration::from_secs(15);
        o.messages = 8;
        o.rate = 4.0;
        let snap = app_snapshot(&o);
        let names: Vec<&str> = snap.entries().iter().map(|e| e.name).collect();
        assert!(
            names.contains(&"app_deliveries_total"),
            "topic aggregate counters present: {names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("app_topic")),
            "per-topic labels present: {names:?}"
        );
    }
}
