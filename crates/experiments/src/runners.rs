//! The dissemination and adaptation experiments (Figures 3–6 and the §3
//! summaries) as configurations of [`crate::pipeline`]: the engine over
//! the synthetic-King matrix, unaudited, sources drawn from the live
//! nodes.

use std::ops::Deref;
use std::time::Duration;

use gocast::{snapshot, GoCastConfig, GoCastNode, LinkKind, Snapshot};
use gocast_analysis::{Cdf, Histogram};
use gocast_baselines::{PushGossipConfig, PushGossipNode};
use gocast_sim::{KernelStats, LatencyModel, NodeId, ShardedSim, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::options::ExpOptions;
use crate::pipeline::{build_network, gocast_nodes, horizon, Run, RunCore, RunRecorder, RunStack};

/// Which protocol to drive through a delay experiment.
#[derive(Debug, Clone)]
pub enum Proto {
    /// Full GoCast, or its tree-less overlay presets.
    GoCast(GoCastConfig),
    /// Push-based gossip / no-wait gossip.
    PushGossip(PushGossipConfig),
}

impl Proto {
    /// Display label matching the paper's curve names.
    pub fn label(&self) -> String {
        match self {
            Proto::GoCast(cfg) if cfg.tree_enabled => "GoCast".into(),
            Proto::GoCast(cfg) if cfg.c_near == 0 => "random overlay".into(),
            Proto::GoCast(_) => "proximity overlay".into(),
            Proto::PushGossip(cfg) if cfg.no_wait => format!("no-wait gossip (F={})", cfg.fanout),
            Proto::PushGossip(cfg) => format!("gossip (F={})", cfg.fanout),
        }
    }
}

/// Outcome of one dissemination run.
#[derive(Debug)]
pub struct DelayStats {
    /// Injected messages, crashed nodes, kernel counters and the final
    /// combined metrics snapshot.
    pub core: RunCore,
    /// Protocol label.
    pub protocol: String,
    /// Live nodes at measurement time.
    pub live_nodes: usize,
    /// Per-node average delay over nodes that got *every* message.
    pub per_node_avg: Cdf,
    /// Nodes that missed at least one message (the paper's gossip curves
    /// saturate below 1.0 because of these).
    pub incomplete_nodes: usize,
    /// Mean receptions per delivered message (1.0 = no duplicates).
    pub redundancy: f64,
    /// Fraction of deliveries over tree links.
    pub tree_fraction: f64,
    /// Pull requests issued during the run.
    pub pulls: u64,
}

impl Deref for DelayStats {
    type Target = RunCore;

    fn deref(&self) -> &RunCore {
        &self.core
    }
}

/// Builds the unaudited run the figure experiments use, over `net`,
/// honoring `--trace-out`/`--metrics-out`.
pub(crate) fn plain_run<S: RunStack>(
    opts: &ExpOptions,
    net: impl LatencyModel + Send + Sync + 'static,
    pair_counts: bool,
    make: impl FnMut(NodeId) -> S,
) -> Run<S> {
    let recorder = RunRecorder::for_opts(opts, &opts.manifest(None), None);
    Run::new(opts, net, pair_counts, recorder, make)
}

/// A GoCast [`plain_run`] over the synthetic-King matrix in the paper's
/// standard bootstrap state.
pub(crate) fn gocast_run(
    opts: &ExpOptions,
    cfg: &GoCastConfig,
    pair_counts: bool,
) -> Run<GoCastNode> {
    plain_run(
        opts,
        build_network(opts),
        pair_counts,
        gocast_nodes(opts, cfg),
    )
}

/// Runs a full dissemination experiment: warm up (streamed, when
/// `--metrics-out` is on), optionally fail a fraction of nodes and freeze
/// all repair, inject the message workload from live sources, drain, and
/// aggregate.
pub fn run_delay(opts: &ExpOptions, proto: Proto, fail_frac: f64) -> DelayStats {
    let label = proto.label();
    match proto {
        Proto::GoCast(cfg) => delay_phases(
            gocast_run(opts, &cfg, false),
            opts,
            label,
            opts.warmup,
            fail_frac,
        ),
        // No overlay to warm up (full membership is assumed) and no
        // repair to freeze.
        Proto::PushGossip(cfg) => delay_phases(
            plain_run(opts, build_network(opts), false, |id| {
                PushGossipNode::new(id, cfg.clone())
            }),
            opts,
            label,
            Duration::from_secs(2),
            fail_frac,
        ),
    }
}

fn delay_phases<S: RunStack>(
    mut run: Run<S>,
    opts: &ExpOptions,
    protocol: String,
    warmup: Duration,
    fail_frac: f64,
) -> DelayStats {
    run.drive(SimTime::ZERO + warmup);
    let crashed = run.crash_and_freeze(opts, fail_frac, true);
    let start = run.inject_multicasts(opts, &run.live_sources());
    run.drive(horizon(opts, start, None));
    let (per_node_avg, incomplete_nodes, live_nodes) = run.delays(opts);
    let core = run.finish(u64::from(opts.messages), crashed);
    let rec = run.sim.recorder().metrics.delivery();
    DelayStats {
        core,
        protocol,
        live_nodes,
        per_node_avg,
        incomplete_nodes,
        redundancy: rec.redundancy_factor(),
        tree_fraction: rec.tree_fraction(),
        pulls: rec.pulls(),
    }
}

/// Result of an adaptation run (Figures 5(a), 5(b); §3 summary (1)).
#[derive(Debug)]
pub struct AdaptationResult {
    /// Total-degree histograms at the requested snapshot times.
    pub degree_hists: Vec<(u64, Histogram)>,
    /// `(second, mean overlay link latency, mean tree link latency)`.
    pub latency_series: Vec<(u64, Duration, Duration)>,
    /// Link adds + drops per second (both endpoints count).
    pub link_changes_per_sec: Vec<u64>,
    /// Final random-degree histogram.
    pub rand_hist: Histogram,
    /// Final nearby-degree histogram.
    pub near_hist: Histogram,
    /// Final snapshot.
    pub final_snapshot: Snapshot,
    /// Final average total degree.
    pub mean_degree: f64,
    /// Kernel counters snapshotted at the end of the run.
    pub kernel: KernelStats,
    /// Final combined metrics snapshot (kernel + protocol).
    pub metrics: gocast_metrics::Snapshot,
}

/// Runs the paper's adaptation experiment: all nodes boot simultaneously
/// with 3 random links each and the maintenance protocols reshape the
/// overlay and tree.
pub fn run_adaptation(
    opts: &ExpOptions,
    cfg: &GoCastConfig,
    snap_times: &[u64],
    latency_secs: u64,
) -> AdaptationResult {
    let mut run = gocast_run(opts, cfg, false);
    let end = opts
        .warmup
        .as_secs()
        .max(latency_secs)
        .max(snap_times.iter().copied().max().unwrap_or(0));
    let mut degree_hists = Vec::new();
    let mut latency_series = Vec::new();
    let mut each_second = |sim: &ShardedSim<GoCastNode, RunRecorder>, t: SimTime| {
        let sec = t.as_nanos() / 1_000_000_000;
        if snap_times.contains(&sec) {
            let snap = snapshot(sim);
            degree_hists.push((sec, Histogram::from_values(snap.degrees())));
        }
        if sec <= latency_secs {
            let snap = snapshot(sim);
            latency_series.push((
                sec,
                snap.mean_overlay_latency(sim.latency_model()),
                snap.mean_tree_latency(sim.latency_model()),
            ));
        }
    };
    run.step_to(SimTime::ZERO, &mut each_second);
    run.observe_every(SimTime::from_secs(end), Duration::from_secs(1), each_second);
    let core = run.finish(0, 0);
    let sim = &run.sim;
    let final_snapshot = snapshot(sim);
    let mean_degree = final_snapshot.degrees().iter().sum::<usize>() as f64 / opts.nodes as f64;
    let rand_hist =
        Histogram::from_values(sim.iter_nodes().map(|(_, n)| n.degrees().d_rand as usize));
    let near_hist =
        Histogram::from_values(sim.iter_nodes().map(|(_, n)| n.degrees().d_near as usize));
    AdaptationResult {
        degree_hists,
        latency_series,
        link_changes_per_sec: sim.recorder().metrics.link_changes_per_sec().to_vec(),
        rand_hist,
        near_hist,
        final_snapshot,
        mean_degree,
        kernel: core.kernel,
        metrics: core.metrics,
    }
}

/// Largest-component fraction `q` after failing `frac` of the nodes,
/// averaged over `draws` random failure sets (Figure 6). Runs entirely on
/// the adapted overlay snapshot.
pub fn resilience_q(snap: &Snapshot, frac: f64, draws: usize, seed: u64) -> f64 {
    let n = snap.n;
    let adj = snap.overlay_adjacency();
    let mut total = 0.0;
    for d in 0..draws {
        let mut rng = SmallRng::seed_from_u64(seed ^ (d as u64) << 32 ^ (frac * 1000.0) as u64);
        let k = (n as f64 * frac).round() as usize;
        let mut alive = vec![true; n];
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
            alive[ids[i]] = false;
        }
        total += gocast_analysis::largest_component_fraction(&adj, &alive);
    }
    total / draws as f64
}

/// Mean latency of overlay links by kind plus overall (§3 summary (2)).
pub fn overlay_latency_breakdown(
    snap: &Snapshot,
    net: &dyn gocast_sim::LatencyModel,
) -> (Duration, Duration, Duration) {
    (
        snap.mean_overlay_latency(net),
        snap.mean_overlay_latency_of(LinkKind::Random, net),
        snap.mean_overlay_latency_of(LinkKind::Nearby, net),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            nodes: 48,
            sites: 48,
            seed: 5,
            warmup: Duration::from_secs(20),
            messages: 5,
            rate: 5.0,
            drain: Duration::from_secs(20),
            ..ExpOptions::quick()
        }
    }

    #[test]
    fn labels_match_paper_curves() {
        assert_eq!(Proto::GoCast(GoCastConfig::default()).label(), "GoCast");
        assert_eq!(
            Proto::GoCast(GoCastConfig::proximity_overlay()).label(),
            "proximity overlay"
        );
        assert_eq!(
            Proto::GoCast(GoCastConfig::random_overlay()).label(),
            "random overlay"
        );
        assert_eq!(
            Proto::PushGossip(PushGossipConfig::default()).label(),
            "gossip (F=5)"
        );
        assert_eq!(
            Proto::PushGossip(PushGossipConfig::no_wait()).label(),
            "no-wait gossip (F=5)"
        );
    }

    #[test]
    fn gocast_delay_run_completes_everyone() {
        let stats = run_delay(&tiny(), Proto::GoCast(GoCastConfig::default()), 0.0);
        assert_eq!(stats.live_nodes, 48);
        assert_eq!(stats.incomplete_nodes, 0, "no failures, no misses");
        assert!(stats.per_node_avg.mean() < Duration::from_secs(1));
        assert!(stats.tree_fraction > 0.8);
        let counter = |name: &str| {
            stats
                .metrics
                .entries()
                .iter()
                .find(|e| e.name == name)
                .map(|e| match e.value {
                    gocast_metrics::MetricValue::Counter(v) => v,
                    _ => panic!("{name} is not a counter"),
                })
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(counter("proto_injected"), 5);
        assert_eq!(counter("proto_deliveries"), 5 * 47);
        assert_eq!(counter("kernel_events"), stats.kernel.events_processed);
    }

    #[test]
    fn gossip_delay_run_is_slower_than_gocast() {
        let opts = tiny();
        let go = run_delay(&opts, Proto::GoCast(GoCastConfig::default()), 0.0);
        let gs = run_delay(&opts, Proto::PushGossip(PushGossipConfig::default()), 0.0);
        // Even at toy scale the tree should beat random gossip clearly.
        assert!(
            gs.per_node_avg.mean() > go.per_node_avg.mean(),
            "gossip {:?} should be slower than GoCast {:?}",
            gs.per_node_avg.mean(),
            go.per_node_avg.mean()
        );
    }

    #[test]
    fn failed_run_still_reaches_live_nodes() {
        let stats = run_delay(&tiny(), Proto::GoCast(GoCastConfig::default()), 0.2);
        assert_eq!(stats.live_nodes, 48 - 10);
        assert_eq!(stats.incomplete_nodes, 0, "gossip recovery must cover");
        assert!(stats.pulls > 0);
    }

    #[test]
    fn adaptation_improves_latency_and_degrees() {
        let opts = tiny();
        let res = run_adaptation(&opts, &GoCastConfig::default(), &[0, 20], 20);
        assert_eq!(res.degree_hists.len(), 2);
        let first = res.latency_series.first().unwrap();
        let last = res.latency_series.last().unwrap();
        assert!(last.1 < first.1, "overlay latency should fall");
        assert!(res.mean_degree > 5.0 && res.mean_degree < 8.0);
        assert!(
            res.rand_hist.fraction(1) > 0.5,
            "most nodes have 1 random link"
        );
    }

    #[test]
    fn resilience_q_full_at_zero_failures() {
        let opts = tiny();
        let res = run_adaptation(&opts, &GoCastConfig::default(), &[], 0);
        let q0 = resilience_q(&res.final_snapshot, 0.0, 2, 7);
        assert!(
            (q0 - 1.0).abs() < 1e-9,
            "connected overlay, q = 1, got {q0}"
        );
        let q_half = resilience_q(&res.final_snapshot, 0.5, 2, 7);
        assert!(q_half <= 1.0);
    }
}
