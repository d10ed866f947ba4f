//! Cross-crate end-to-end tests: the full pipeline from protocol state
//! machines through the simulator to the analysis layer, asserting the
//! paper's qualitative results at test scale.

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig};
use gocast_analysis::{largest_component_fraction, MetricsRecorder};
use gocast_baselines::{expected_miss_fraction, PushGossipConfig, PushGossipNode};
use gocast_experiments::{figures, runners, ExpOptions, Proto};
use gocast_sim::{NodeId, SimBuilder, SimTime};
use gocast_tests::warmed_gocast;

fn tiny_opts(seed: u64) -> ExpOptions {
    let mut o = ExpOptions::quick().with_seed(seed);
    o.nodes = 96;
    o.sites = 96;
    o.warmup = Duration::from_secs(40);
    o.messages = 30;
    o.rate = 15.0;
    o.drain = Duration::from_secs(25);
    o.out_dir = None;
    o
}

#[test]
fn protocol_ordering_matches_figure3a() {
    // The paper's headline ordering: GoCast < proximity overlay <
    // random overlay on mean delay; pure gossip misses nodes.
    let opts = tiny_opts(71);
    let gocast = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::default()), 0.0);
    let prox = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::proximity_overlay()), 0.0);
    let rand = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::random_overlay()), 0.0);
    let gossip = runners::run_delay(&opts, Proto::PushGossip(PushGossipConfig::default()), 0.0);

    assert_eq!(gocast.incomplete_nodes, 0);
    assert_eq!(prox.incomplete_nodes, 0);
    assert_eq!(rand.incomplete_nodes, 0);

    let m = |s: &runners::DelayStats| s.per_node_avg.mean();
    assert!(m(&gocast) < m(&prox), "tree must beat overlay gossip");
    assert!(m(&prox) < m(&rand), "proximity must beat random links");
    assert!(
        m(&gocast) * 4 < m(&gossip),
        "GoCast {:?} should be several times faster than gossip {:?}",
        m(&gocast),
        m(&gossip)
    );
}

#[test]
fn figure3b_failure_ordering_holds() {
    let opts = tiny_opts(72);
    let gocast = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::default()), 0.2);
    let prox = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::proximity_overlay()), 0.2);
    // Overlay-based protocols still deliver everything to live nodes.
    assert_eq!(
        gocast.incomplete_nodes, 0,
        "GoCast must survive 20% failures"
    );
    assert_eq!(prox.incomplete_nodes, 0);
    // GoCast still wins despite the broken tree (fragments + gossip).
    assert!(gocast.per_node_avg.mean() < prox.per_node_avg.mean());
    // And the broken tree costs GoCast relative to its failure-free run.
    let clean = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::default()), 0.0);
    assert!(gocast.per_node_avg.mean() > clean.per_node_avg.mean());
}

#[test]
fn figure_harnesses_produce_tables() {
    // Smoke-run each figure function at miniature scale; every harness
    // must return non-empty tables without panicking.
    let mut opts = tiny_opts(73);
    opts.nodes = 64;
    opts.warmup = Duration::from_secs(15);
    opts.messages = 10;
    opts.drain = Duration::from_secs(15);

    assert!(figures::fig1(&opts).iter().all(|t| t.rows() > 0));
    assert!(figures::fig5a(&opts)[0].rows() > 0);
    assert!(figures::fig5b(&opts, 10)[0].rows() >= 10);
    assert!(figures::ext1(&opts)[0].rows() > 0);
    assert!(figures::txt2(&opts)[0].rows() == 2);
}

#[test]
fn resilience_pipeline_matches_paper_shape() {
    // C_rand = 1 must keep the overlay connected at 25% failures
    // (the paper's headline resilience claim).
    let sim = warmed_gocast(128, 74, GoCastConfig::default(), 40);
    let snap = gocast::snapshot(&sim);
    let q25 = runners::resilience_q(&snap, 0.25, 5, 74);
    assert!(
        q25 > 0.99,
        "25% failures should leave the overlay connected, q = {q25}"
    );
    // Heavier failures are allowed to hurt but the trend must be monotone
    // within tolerance.
    let q50 = runners::resilience_q(&snap, 0.5, 5, 74);
    assert!(q50 <= q25 + 1e-9);
}

#[test]
fn empirical_gossip_misses_track_the_analytic_model() {
    // Run many small multicasts over the push-gossip baseline and compare
    // the per-node miss rate with e^-F.
    let n = 256;
    let msgs = 40u32;
    let net = gocast_net::synthetic_king(
        n,
        &gocast_net::SyntheticKingConfig {
            sites: 256,
            seed: 75,
        },
    );
    let cfg = PushGossipConfig::default();
    let mut sim = SimBuilder::new(net)
        .seed(75)
        .build_with(MetricsRecorder::new(), |id| {
            PushGossipNode::new(id, cfg.clone())
        });
    sim.run_until(SimTime::from_secs(1));
    for i in 0..msgs {
        sim.schedule_command(
            SimTime::from_secs(1) + Duration::from_millis(50 * i as u64),
            NodeId::new(i % n as u32),
            GoCastCommand::Multicast,
        );
    }
    sim.run_until(SimTime::from_secs(40));
    let expected = msgs as u64 * (n as u64 - 1);
    let missed = expected - sim.recorder().delivery().delivered();
    let miss_rate = missed as f64 / expected as f64;
    let analytic = expected_miss_fraction(5.0);
    assert!(
        miss_rate < analytic * 4.0 + 0.01,
        "miss rate {miss_rate:.4} far above analytic {analytic:.4}"
    );
}

#[test]
fn overlay_snapshot_graph_analysis_roundtrip() {
    let sim = warmed_gocast(96, 76, GoCastConfig::default(), 40);
    let snap = gocast::snapshot(&sim);
    let adj = snap.overlay_adjacency();
    let alive = vec![true; 96];
    assert!(
        (largest_component_fraction(&adj, &alive) - 1.0).abs() < 1e-9,
        "adapted overlay must be connected"
    );
    let diam = gocast_analysis::diameter(&adj, &alive);
    assert!(
        (3..=10).contains(&diam),
        "96-node degree-6 overlay diameter should be small, got {diam}"
    );
    // Tree spans the overlay.
    assert_eq!(snap.tree_edge_count(), 95);
}

#[test]
fn full_experiment_runs_are_deterministic() {
    let opts = {
        let mut o = tiny_opts(77);
        o.nodes = 64;
        o.warmup = Duration::from_secs(20);
        o.messages = 10;
        o.drain = Duration::from_secs(10);
        o
    };
    let a = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::default()), 0.0);
    let b = runners::run_delay(&opts, Proto::GoCast(GoCastConfig::default()), 0.0);
    assert_eq!(a.per_node_avg.len(), b.per_node_avg.len());
    assert_eq!(a.per_node_avg.mean(), b.per_node_avg.mean());
    assert_eq!(a.pulls, b.pulls);
    assert_eq!(a.redundancy, b.redundancy);
}

#[test]
fn frozen_system_does_not_churn_links() {
    let mut sim = warmed_gocast(64, 78, GoCastConfig::default(), 30);
    let live: Vec<NodeId> = sim.alive_nodes().collect();
    for id in live {
        sim.command_now(id, GoCastCommand::FreezeMaintenance);
    }
    sim.run_for(Duration::from_millis(10));
    let before: Vec<u64> = sim.recorder().link_changes_per_sec().to_vec();
    sim.run_for(Duration::from_secs(30));
    let after: Vec<u64> = sim.recorder().link_changes_per_sec().to_vec();
    let churn: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
    assert_eq!(churn, 0, "frozen overlay must not change links");
}

/// The one file a run wrote under `dir` (a process numbers its later
/// streams, so each run gets a directory of its own).
fn only_stream(dir: &std::path::Path) -> String {
    let mut files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let path = files.next().expect("one stream");
    assert!(files.next().is_none(), "one stream per directory");
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn app_metrics_reach_the_stream_of_application_runs_only() {
    use gocast_experiments::app::{run_app, Workload};
    use gocast_experiments::chaos::{parse_spec, run_chaos};

    let root = std::env::temp_dir().join(format!("gocast_e2e_app_stream_{}", std::process::id()));
    let mut o = tiny_opts(5);
    o.topics = 4;
    o.warmup = Duration::from_secs(20);
    o.messages = 8;
    o.rate = 2.0;
    o.drain = Duration::from_secs(10);
    let (pubsub, chaos) = (root.join("pubsub"), root.join("chaos"));
    for dir in [&pubsub, &chaos] {
        std::fs::create_dir_all(dir).unwrap();
    }

    o.metrics_out = Some(pubsub.join("metrics.jsonl"));
    let out = run_app(
        &o,
        Workload::PubSub,
        "baseline",
        &gocast_sim::Scenario::new(),
    );
    let stream = only_stream(&pubsub);
    let last = stream.lines().last().expect("samples");
    let total = format!("\"app_deliveries_total\":{},", out.report.topic_deliveries);
    assert!(last.contains(&total), "last sample lacks {total}: {last}");

    o.metrics_out = Some(chaos.join("metrics.jsonl"));
    let spec = parse_spec("massleave(at=1,count=6); flashcrowd(at=8,count=6)").unwrap();
    run_chaos(&o, &spec);
    let stream = only_stream(&chaos);
    assert!(stream.lines().count() > 2, "chaos samples");
    assert!(
        !stream.contains("\"app_"),
        "a GoCast-only stream carries app_*"
    );
    let _ = std::fs::remove_dir_all(&root);
}
