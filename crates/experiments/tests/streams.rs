//! `--trace-out` and `--metrics-out` are honoured by every fault-driven
//! subcommand, and attaching them — which slices the drive loop into
//! one-second `run_until` calls — must not move a run: each manifest or
//! summary string is identical with and without the streams, at one and
//! at four `--sim-shards`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use gocast_experiments::app::{run_app, Workload};
use gocast_experiments::chaos::{parse_spec, run_chaos};
use gocast_experiments::compare::compare_sweep;
use gocast_experiments::scale::{run_scale_chaos, run_scale_delivery};
use gocast_experiments::ExpOptions;

// Deterministic timed faults, so every plan is non-empty at any seed.
const FAULT_SPEC: &str = "massleave(at=1,count=6); flashcrowd(at=8,count=6)";

fn tiny(sim_shards: usize) -> ExpOptions {
    let mut o = ExpOptions::quick().with_sim_shards(sim_shards);
    o.nodes = 96;
    o.sites = 96;
    o.topics = 6;
    o.warmup = Duration::from_secs(20);
    o.messages = 8;
    o.rate = 2.0;
    o.drain = Duration::from_secs(20);
    o
}

fn streamed(opts: &ExpOptions, dir: &Path) -> ExpOptions {
    let mut o = opts.clone();
    o.trace_out = Some(dir.join("trace.jsonl"));
    o.metrics_out = Some(dir.join("metrics.jsonl"));
    o
}

/// Runs `digest` bare and with both streams attached, checks the digests
/// agree, and that the streamed run left `runs` manifest-headed,
/// non-empty streams of each kind.
fn assert_streams_do_not_move(
    name: &str,
    opts: &ExpOptions,
    runs: usize,
    digest: impl Fn(&ExpOptions) -> String,
) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "gocast_streams_{name}_{}_{}",
        opts.sim_shards,
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    let bare = digest(opts);
    let with_streams = digest(&streamed(opts, &dir));
    assert_eq!(
        bare, with_streams,
        "{name}: attaching the streams moved the run at {} sim-shard(s)",
        opts.sim_shards
    );
    for (stem, payload) in [("trace", "\"ev\":"), ("metrics", "\"ev\":\"metrics\"")] {
        let streams: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                name.starts_with(stem)
            })
            .map(|p| fs::read_to_string(p).unwrap())
            .collect();
        assert_eq!(streams.len(), runs, "{name}: one {stem} stream per run");
        for s in &streams {
            let (head, body) = s.split_once('\n').expect("manifest line");
            assert!(
                head.starts_with("{\"manifest\":1,"),
                "{name}: {stem} stream must start with the run manifest, got {head}"
            );
            assert!(
                body.contains(payload),
                "{name}: {stem} stream has no records"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chaos_and_compare_stream_without_moving() {
    let scenario = parse_spec(FAULT_SPEC).unwrap();
    assert_streams_do_not_move("chaos", &tiny(1), 1, |o| {
        run_chaos(o, &scenario).summary_string()
    });
    // One preset × one seed × two stacks.
    assert_streams_do_not_move("compare", &tiny(1), 2, |o| {
        let rows = compare_sweep(o, &["flashcrowd"], 1).unwrap();
        format!(
            "{}\n{}",
            rows[0].gocast.summary_string(),
            rows[0].plumtree.summary_string()
        )
    });
}

#[test]
fn scale_streams_without_moving_at_one_and_four_sim_shards() {
    let scenario = parse_spec(FAULT_SPEC).unwrap();
    for sim_shards in [1, 4] {
        assert_streams_do_not_move("scale", &tiny(sim_shards), 2, |o| {
            format!(
                "{}\n{}",
                run_scale_delivery(o).manifest(),
                run_scale_chaos(o, "spec", &scenario).manifest()
            )
        });
    }
}

#[test]
fn pubsub_and_crdt_stream_without_moving_at_one_and_four_sim_shards() {
    let scenario = parse_spec(FAULT_SPEC).unwrap();
    for sim_shards in [1, 4] {
        for workload in [Workload::PubSub, Workload::Crdt] {
            assert_streams_do_not_move(workload.name(), &tiny(sim_shards), 1, |o| {
                run_app(o, workload, "spec", &scenario).manifest()
            });
        }
    }
}
