//! CLI harness: `gocast-experiments <experiment> [flags]`.
//!
//! Every subcommand is a configuration of `gocast_experiments::pipeline`
//! (DESIGN.md's experiment index says of what); this file parses flags,
//! dispatches, and owns the exit code — 1 for a failed gate, 2 for a usage
//! error, including a bad `--scenario`/`--spec` the library reports back.
//!
//! Experiments:
//!
//! ```text
//! fig1    gossip reliability vs fanout (analytic + empirical)
//! fig3a   delay CDF, five protocols, no failures
//! fig3b   delay CDF, five protocols, 20% concurrent failures
//! fig4    GoCast delay at 1,024 vs 8,192 nodes, 0%/20% failures
//! fig5a   node-degree distribution over time
//! fig5b   overlay/tree link latency over time
//! fig6    largest component vs failure ratio per C_rand
//! ext1    link changes per second (stabilization)
//! ext2    overlay link latency vs number of random links
//! ext3    overlay diameter vs system size
//! ext4    bottleneck physical-link stress vs gossip
//! ext5    gossip delay vs fanout
//! txt1    redundant receptions vs pull delay f
//! txt2    degree split after adaptation
//! txt4    two-continent partition test (C_rand = 0 vs 1)
//! ablate  maintenance design-choice ablations
//! adaptive  future-work adaptive gossip/maintenance periods
//! sweep   multi-seed robustness check of the headline speedup
//! trace       traced GoCast run + tree reconstruction + invariant oracle
//! trace-fail  same with 20% concurrent failures (measures recovery)
//! chaos   scenario-driven faults (churn, site crashes, partitions, loss)
//!         with recovery metrics and the online invariant oracle
//! compare GoCast vs Plumtree head-to-head: both stacks through the same
//!         chaos presets, seeds, oracle, and audit; side-by-side CSV
//! testnet sim-vs-wire conformance: the same workload through the
//!         simulator and through real loopback-UDP nodes (wall-clock
//!         defaults wherever a scale flag is not given: 16 nodes, 200
//!         messages, 3 s warm-up/drain; accepts --scenario/--spec)
//! scale   10⁵-node-default runs on the sharded kernel (`--sim-shards N`
//!         worker threads, O(1)-memory latency model): a fig3-style
//!         delivery run plus one chaos preset, printing the scaling row
//!         (events/s, self-reported queue memory, peak RSS); accepts
//!         --scenario/--spec (default `catastrophe`), defaults --nodes
//!         to 100,000
//! metrics instrumented quick run rendering every subsystem's telemetry
//!         tables; `metrics --overhead` measures the instrumentation
//!         cost and fails if it exceeds the 5% budget
//! pubsub  multi-topic pub/sub workload (gocast-app's TopicMux) through
//!         the sharded kernel and the wire fabric: goodput, staleness,
//!         and per-topic delivery under the baseline/churn/partition
//!         trio (narrow with --scenario/--spec; `--topics N` sizes the
//!         topic space)
//! crdt    delta-ORSet replication over the same mux: mutation
//!         convergence times plus an end-of-run replica-state audit
//!         across every surviving subscriber (same flags as pubsub)
//! all     everything above at full scale
//! ```
//!
//! Flags: `--quick` (reduced scale), `--nodes N`, `--seed S`,
//! `--warmup SECS`, `--messages M`, `--rate R`, `--drain SECS`,
//! `--out DIR`, `--no-csv`, `--trace-out PATH` (stream the causal JSONL
//! trace of every run to PATH; every simulated run honours it),
//! `--metrics-out PATH` (stream manifest-stamped telemetry snapshots of
//! every run to PATH as JSONL, one per slice of the drive loop; every
//! simulated run honours it, `testnet` writes its wire-side snapshot),
//! `--jobs N` (fan independent runs across N worker threads; output is
//! byte-identical to the default fully serial `--jobs 1`).
//!
//! `chaos`/`testnet`/`compare` flags: `--scenario NAME` (one of baseline,
//! churn, catastrophe, partition, flashcrowd, lossy; default churn for
//! `chaos`, baseline for `testnet`; for `compare` it narrows the default
//! preset trio churn+partition+flashcrowd to one), `--spec STR` (an
//! ad-hoc scenario spec like `churn(end=60,leave=0.5,join=0.5);loss(p=0.01)`,
//! overriding `--scenario`; not accepted by `compare`), `--seeds K`
//! (`chaos`/`compare`: run K consecutive seeds, composable with
//! `--jobs`), `--stack NAME` (gocast or plumtree; selects the protocol
//! stack `chaos` drives — default gocast, the historic behavior —
//! ignored by `compare`, which always runs both), `--shards N`
//! (`testnet` only: partition the wire-side fabric across N event-loop
//! threads; default 1 reproduces the single-threaded fabric),
//! `--sim-shards N` (`scale`, `pubsub`, `crdt`: worker threads *inside*
//! the one sharded simulation; every artifact is byte-identical at any
//! value), `--topics N` (`pubsub`/`crdt` only: concurrent logical topics;
//! default 8).

use std::time::Duration;

use gocast_experiments::runners::run_delay;
use gocast_experiments::sweep::sweep_seeds;
use gocast_experiments::{figures, ExpOptions, GivenFlags, Proto, StackKind};

fn usage() -> ! {
    eprintln!(
        "usage: gocast-experiments <fig1|fig3a|fig3b|fig4|fig5a|fig5b|fig6|ext1|ext2|ext3|ext4|ext5|txt1|txt2|txt4|ablate|adaptive|sweep|trace|trace-fail|chaos|compare|testnet|scale|metrics|pubsub|crdt|all> \
         [--quick] [--nodes N] [--seed S] [--warmup SECS] [--messages M] [--rate R] [--drain SECS] [--out DIR] [--no-csv] [--trace-out PATH] [--metrics-out PATH] [--jobs N] \
         [--scenario NAME] [--spec STR] [--seeds K] [--stack gocast|plumtree] [--shards N] [--sim-shards N] [--topics N] [--overhead]"
    );
    std::process::exit(2);
}

/// Everything the command line resolves to: the shared experiment options,
/// which scale flags set them, and the scenario selection.
struct CliArgs {
    opts: ExpOptions,
    given: GivenFlags,
    scenario: String,
    spec: Option<String>,
    seeds: u64,
    overhead: bool,
}

/// A subcommand's bad `--spec`/`--scenario`: the library reports it, the
/// binary owns the exit code (2, like every other usage error).
fn or_usage_error<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse_opts(args: &[String], scale: bool) -> CliArgs {
    // `scale` starts from its own full-scale preset (10⁵ nodes, a
    // minutes-not-hours workload); every explicit flag still overrides.
    let mut opts = if scale {
        ExpOptions::scale()
    } else {
        ExpOptions::default()
    };
    // `scale` defaults to the deterministic site-catastrophe preset:
    // Poisson churn can legitimately compile to an empty plan on a short
    // window (seed 42 does exactly that), and the scale exit artifact
    // must actually exercise faults.
    let mut scenario = String::from(if scale { "catastrophe" } else { "churn" });
    let mut spec = None;
    let mut seeds = 1u64;
    let mut overhead = false;
    let mut given = GivenFlags::default();
    let mut explicit_nodes = None;
    let mut explicit_jobs = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut take = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match arg {
            "--quick" => {
                given = GivenFlags::ALL;
                opts = ExpOptions {
                    out_dir: opts.out_dir.clone(),
                    stack: opts.stack,
                    sim_shards: opts.sim_shards,
                    topics: opts.topics,
                    ..ExpOptions::quick()
                };
            }
            "--nodes" => {
                explicit_nodes = Some(take("--nodes").parse().expect("--nodes"));
                given.nodes = true;
            }
            "--seed" => opts.seed = take("--seed").parse().expect("--seed"),
            "--warmup" => {
                opts.warmup = Duration::from_secs(take("--warmup").parse().expect("--warmup"));
                given.warmup = true;
            }
            "--messages" => {
                opts.messages = take("--messages").parse().expect("--messages");
                given.messages = true;
            }
            "--rate" => {
                opts.rate = take("--rate").parse().expect("--rate");
                given.rate = true;
            }
            "--drain" => {
                opts.drain = Duration::from_secs(take("--drain").parse().expect("--drain"));
                given.drain = true;
            }
            "--out" => opts.out_dir = Some(take("--out").into()),
            "--no-csv" => opts.out_dir = None,
            "--trace-out" => opts.trace_out = Some(take("--trace-out").into()),
            "--metrics-out" => opts.metrics_out = Some(take("--metrics-out").into()),
            "--overhead" => overhead = true,
            "--jobs" => explicit_jobs = Some(take("--jobs").parse().expect("--jobs")),
            "--shards" => opts.shards = take("--shards").parse().expect("--shards"),
            "--sim-shards" => opts.sim_shards = take("--sim-shards").parse().expect("--sim-shards"),
            "--topics" => opts.topics = take("--topics").parse().expect("--topics"),
            "--scenario" => scenario = take("--scenario"),
            "--spec" => spec = Some(take("--spec")),
            "--seeds" => seeds = take("--seeds").parse().expect("--seeds"),
            "--stack" => {
                let name = take("--stack");
                opts.stack = StackKind::parse(&name).unwrap_or_else(|| {
                    let all: Vec<&str> = StackKind::ALL.iter().map(|k| k.name()).collect();
                    eprintln!("unknown stack `{name}` (one of: {})", all.join(", "));
                    usage()
                });
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
        i += 1;
    }
    if let Some(n) = explicit_nodes {
        opts.nodes = n;
    }
    if let Some(j) = explicit_jobs {
        opts = opts.with_jobs(j);
    }
    for (flag, value) in [
        ("--seeds", seeds),
        ("--shards", opts.shards as u64),
        ("--sim-shards", opts.sim_shards as u64),
        ("--topics", u64::from(opts.topics)),
    ] {
        if value == 0 {
            eprintln!("{flag} must be at least 1");
            usage()
        }
    }
    CliArgs {
        opts,
        given,
        scenario,
        spec,
        seeds,
        overhead,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = args.first() else { usage() };
    let cli = parse_opts(&args[1..], exp == "scale");
    let opts = cli.opts.clone();
    let quick = args.iter().any(|a| a == "--quick");

    let fig4_sizes: Vec<usize> = if quick {
        vec![opts.nodes, opts.nodes * 2]
    } else {
        vec![1024, 8192]
    };
    let ext3_sizes: Vec<usize> = if quick {
        vec![64, 128, 256]
    } else {
        vec![256, 512, 1024, 2048, 4096, 8192]
    };
    let fig5b_secs = if quick { opts.warmup.as_secs() } else { 200 };

    // The figure subcommands, in the order `all` runs them.
    let figure_table: [(&str, &dyn Fn()); 17] = [
        ("fig1", &|| drop(figures::fig1(&opts))),
        ("fig3a", &|| drop(figures::fig3(&opts, 0.0))),
        ("fig3b", &|| drop(figures::fig3(&opts, 0.2))),
        ("fig4", &|| drop(figures::fig4(&opts, &fig4_sizes))),
        ("fig5a", &|| drop(figures::fig5a(&opts))),
        ("fig5b", &|| drop(figures::fig5b(&opts, fig5b_secs))),
        ("fig6", &|| drop(figures::fig6(&opts))),
        ("ext1", &|| drop(figures::ext1(&opts))),
        ("ext2", &|| drop(figures::ext2(&opts))),
        ("ext3", &|| drop(figures::ext3(&opts, &ext3_sizes))),
        ("ext4", &|| drop(figures::ext4(&opts))),
        ("ext5", &|| drop(figures::ext5(&opts))),
        ("txt1", &|| drop(figures::txt1(&opts))),
        ("txt2", &|| drop(figures::txt2(&opts))),
        ("txt4", &|| drop(figures::txt4(&opts))),
        ("ablate", &|| drop(figures::ablations(&opts))),
        ("adaptive", &|| drop(figures::adaptive(&opts))),
    ];

    let explicit_scenario = args.iter().any(|a| a == "--scenario");
    let t0 = std::time::Instant::now();
    let mut exit_code = 0;
    match exp.as_str() {
        "all" => figure_table.iter().for_each(|(_, run)| run()),
        "sweep" => {
            // Multi-seed robustness check of the headline result.
            let seeds = 5;
            eprintln!("sweeping GoCast vs gossip mean delay over {seeds} seeds ...");
            let [go, gs] = [
                ("GoCast", Proto::GoCast(Default::default())),
                ("gossip", Proto::PushGossip(Default::default())),
            ]
            .map(|(tag, proto)| {
                sweep_seeds(&opts, seeds, |o| {
                    eprintln!("  running {tag}, seed {} ...", o.seed);
                    let stats = run_delay(o, proto.clone(), 0.0);
                    stats.per_node_avg.mean().as_secs_f64()
                })
            });
            println!("GoCast mean delay (s): {go}");
            println!("gossip mean delay (s): {gs}");
            println!("speedup of means: {:.1}x", gs.mean / go.mean);
        }
        "trace" | "trace-fail" => {
            let fail_frac = if exp == "trace-fail" { 0.2 } else { 0.0 };
            exit_code = i32::from(!figures::trace_run(&opts, fail_frac).is_empty());
        }
        "chaos" => {
            let outcomes = or_usage_error(gocast_experiments::chaos::chaos(
                &opts,
                &cli.scenario,
                cli.spec.as_deref(),
                cli.seeds,
            ));
            exit_code = i32::from(outcomes.iter().any(|o| o.violations > 0));
        }
        "compare" => {
            if cli.spec.is_some() {
                eprintln!("compare runs the built-in presets; --spec is not accepted");
                usage()
            }
            // `--scenario` narrows the default preset trio to one.
            let presets: Vec<&str> = if explicit_scenario {
                vec![cli.scenario.as_str()]
            } else {
                gocast_experiments::compare::COMPARE_PRESETS.to_vec()
            };
            let rows = or_usage_error(gocast_experiments::compare::compare(
                &opts, &presets, cli.seeds,
            ));
            let violations: usize = rows
                .iter()
                .map(|r| r.gocast.violations + r.plumtree.violations)
                .sum();
            exit_code = i32::from(violations > 0);
        }
        "scale" => {
            exit_code = or_usage_error(gocast_experiments::scale::scale(
                &opts,
                &cli.scenario,
                cli.spec.as_deref(),
            ));
        }
        "metrics" => {
            exit_code = if cli.overhead {
                gocast_experiments::metrics_view::overhead(&opts, &cli.given)
            } else {
                gocast_experiments::metrics_view::metrics(&opts, &cli.given)
            };
        }
        "pubsub" | "crdt" => {
            let workload = if exp == "pubsub" {
                gocast_experiments::app::Workload::PubSub
            } else {
                gocast_experiments::app::Workload::Crdt
            };
            // Without an explicit --scenario the driver runs the whole
            // baseline/churn/partition preset trio.
            let scenario = explicit_scenario.then_some(cli.scenario.as_str());
            exit_code = or_usage_error(gocast_experiments::app::app(
                &opts,
                &cli.given,
                workload,
                scenario,
                cli.spec.as_deref(),
            ));
        }
        "testnet" => {
            // `chaos` defaults --scenario to churn; the conformance
            // reference point is the fault-free baseline.
            let scenario = if explicit_scenario {
                cli.scenario.as_str()
            } else {
                "baseline"
            };
            exit_code = or_usage_error(gocast_experiments::testnet::testnet(
                &opts,
                &cli.given,
                scenario,
                cli.spec.as_deref(),
            ));
        }
        name => match figure_table.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(),
            None => usage(),
        },
    }
    eprintln!("done in {:?}", t0.elapsed());
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
