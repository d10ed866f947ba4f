//! `benchmark` — the fixed-work instrument behind the repository's
//! `BENCHMARK.json`. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run    --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//! benchmark trace  --workload <name|all> --seed <n>            (run with --trace 1)
//! benchmark repeat [--sets 2] [--runs 3] [--workload <name|all>] [--seed <n>]
//! ```
//!
//! `all` is the gated workloads `BENCHMARK.json` lists; `wire_64`, the
//! attribution workload, runs when named.

mod app;
mod host;
mod metrics;
mod micro;
mod probe;
mod record;
mod repeat;
mod sims;
mod spans;
mod stats;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{workload_names, MetricSet, RUN_SECONDS, WIRE, WORKLOADS};
use workload::{Opts, Pass};

/// Parsed command line of `run` / `trace` / `repeat`.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
    sets: u32,
    runs: u32,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run|trace --workload <name|all> --seed <n> [--seconds <1..60>] [--trace <0|1>]\n       \
         benchmark repeat [--sets <n>] [--runs <n>] [--workload <name|all>] [--seed <n>] [--seconds <s>]\n\
         workloads: {}",
        workload_names().collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Args> {
    let mut out = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 2,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().ok()?,
            "--seconds" => out.seconds = value.parse().ok().filter(|s| (1..=60).contains(s))?,
            "--trace" => out.trace = matches!(value.parse::<u8>().ok()?, 1),
            "--sets" => out.sets = value.parse().ok().filter(|n| *n >= 1)?,
            "--runs" => out.runs = value.parse().ok().filter(|n| *n >= 2)?,
            _ => return None,
        }
    }
    let known = out.workload == "all" || workload_names().any(|w| w == out.workload);
    known.then_some(out)
}

/// The workloads `args` names: the gated ones for `all`.
fn named(args: &Args) -> Vec<&'static str> {
    if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        workload_names().filter(|n| *n == args.workload).collect()
    }
}

/// Runs one pass of the named workload.
fn pass(name: &str, opts: &Opts, trace: bool) -> std::io::Result<Pass> {
    match name {
        "sim_dissem_1k" => Ok(sims::dissem(opts, trace)),
        "sim_scale_chaos_10k" => Ok(sims::scale_chaos(opts, trace)),
        "wire_64" => wire::wire(opts, trace),
        "app_topics_1k" => Ok(app::topics(opts, trace)),
        other => unreachable!("workload `{other}` passed validation"),
    }
}

/// Where a traced run writes its spans, relative to the directory the
/// benchmark is started from (the repository root under the driver).
fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from("benchmark/out").join(format!("{workload}.spans.jsonl"))
}

/// Runs one workload, prints every metric by name with its unit and the
/// output checks, and ends with the one-line JSON result.
fn run_workload(name: &str, args: &Args) -> std::io::Result<()> {
    if name == WIRE && !gocast_testnet::loopback_available() {
        return Err(std::io::Error::other(
            "wire_64 skipped: this environment cannot bind loopback UDP sockets",
        ));
    }
    println!(
        "== {name} seed={} seconds={} trace={} (available_parallelism={})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        traced_run: args.trace,
    };
    // End-to-end metrics always come from an untraced pass.
    let plain = pass(name, &opts, false)?;
    let mut shown = plain.lines.clone();
    let mut checks = plain.checks.clone();
    let mut disturbance = plain.disturbance;

    let metrics: MetricSet = if args.trace {
        let traced = pass(name, &opts, true)?;
        let mut trace = probe::take_trace();
        spans::link_causes(&mut trace.spans);
        let path = spans_path(name);
        spans::write_jsonl(&path, &trace.spans)?;
        let mut set = MetricSet::per_layer();
        for (metric, value) in &traced.layers {
            set.set(metric, *value);
        }
        let mut codec = Vec::new();
        micro::codec(&trace.codec_samples, &mut codec);
        for (metric, value) in codec {
            set.set(&metric, value);
        }
        // What the window cost, from the untraced pass.
        set.set("window.deliveries_per_s", plain.pace.deliveries_per_s);
        set.set("window.cpu_us_per_delivery", plain.pace.cpu_us_per_delivery);
        set.set("rss_bytes_per_node", plain.rss_bytes_per_node);
        set.set(
            "rss_growth_bytes_per_delivery",
            plain.rss_growth_bytes_per_delivery,
        );
        // The cost of tracing: the traced pass over the untraced one.
        set.set("trace_overhead_frac", traced.cost / plain.cost - 1.0);
        set.set("host.steal_frac", traced.disturbance.steal_frac);
        set.set("host.sched_wait_frac", traced.disturbance.sched_wait_frac);
        shown.push("-- traced pass".into());
        shown.extend(traced.lines);
        shown.push(format!(
            "spans: {} of sampled messages (every 64th) written to {}; self time by span name (ms): {}",
            trace.spans.len(),
            path.display(),
            spans::self_time_by_name(&trace.spans)
                .iter()
                .map(|(name, ns)| format!("{name}={:.3}", *ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        checks.extend(
            traced
                .checks
                .into_iter()
                .map(|(what, ok)| (format!("(traced pass) {what}"), ok)),
        );
        disturbance = traced.disturbance;
        set
    } else {
        plain.e2e
    };

    for line in &shown {
        println!("{line}");
    }
    println!(
        "disturbance: host.steal_frac {:.5} host.sched_wait_frac {:.5}",
        disturbance.steal_frac, disturbance.sched_wait_frac
    );
    for (metric, value, unit) in metrics.rows() {
        println!("{metric:<44} {value:>18.6} {unit}");
    }
    let mut correct = true;
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    println!(
        "ops_attempted {} ops_failed {}",
        plain.attempted, plain.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        plain.attempted.max(1),
        plain.failed,
        metrics.json()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(mut args) = parse(rest) else {
        return usage();
    };
    match command.as_str() {
        "run" => {}
        "trace" => args.trace = true,
        "repeat" => return repeat::repeat(&args),
        _ => return usage(),
    }
    // A run that printed its result line exits 0 even when a check
    // failed: the verdict is the line's `correct` field.
    for name in named(&args) {
        if let Err(e) = run_workload(name, &args) {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}
