//! Cache-invalidation propagation — the paper's second motivating
//! workload ("propagating updates of shared state to maintain cache
//! consistency").
//!
//! 200 replicas cache a shared object. Writes at random replicas must
//! invalidate every other cache quickly: the *stale window* (write →
//! last replica invalidated) bounds how long readers can observe stale
//! data. We race GoCast against classic push gossip (fanout 5) on the
//! same network and report stale windows and replicas that were never
//! invalidated at all.
//!
//! Run with: `cargo run --release -p gocast-examples --bin cache_invalidation`

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastNode};
use gocast_analysis::MetricsRecorder;
use gocast_baselines::{PushGossipConfig, PushGossipNode};
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{NodeId, Sim, SimBuilder, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 200;
const WRITES: u32 = 100;

fn network() -> gocast_net::SiteLatencyMatrix {
    synthetic_king(
        N,
        &SyntheticKingConfig {
            sites: N,
            ..Default::default()
        },
    )
}

fn schedule_writes<P>(sim: &mut Sim<P, MetricsRecorder>, start: SimTime)
where
    P: gocast_sim::Protocol<Command = GoCastCommand, Event = gocast::GoCastEvent>,
{
    let mut rng = SmallRng::seed_from_u64(123);
    for i in 0..WRITES {
        let writer = NodeId::new(rng.gen_range(0..N as u32));
        sim.schedule_command(
            start + Duration::from_millis(100 * i as u64),
            writer,
            GoCastCommand::Multicast,
        );
    }
}

struct Outcome {
    name: &'static str,
    complete_replicas: usize,
    stale_p50_ms: f64,
    stale_p99_ms: f64,
    bytes_sent_mb: f64,
}

fn report(o: &Outcome) {
    println!(
        "{:>12}: {:>3}/{} replicas fully invalidated | stale window p50 {:>7.1} ms, p99 {:>8.1} ms | {:>6.1} MB on the wire",
        o.name, o.complete_replicas, N, o.stale_p50_ms, o.stale_p99_ms, o.bytes_sent_mb
    );
}

fn run_gocast() -> Outcome {
    let mut boot = gocast::bootstrap_random_graph(N, 3, 31);
    let mut sim = SimBuilder::new(network())
        .seed(31)
        .build_with(MetricsRecorder::new(), |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
        });
    sim.run_until(SimTime::from_secs(60));
    sim.reset_stats();
    let start = sim.now();
    schedule_writes(&mut sim, start);
    sim.run_for(Duration::from_secs(40));
    collect("GoCast", &sim)
}

fn run_gossip() -> Outcome {
    let cfg = PushGossipConfig::default();
    let mut sim = SimBuilder::new(network())
        .seed(31)
        .build_with(MetricsRecorder::new(), |id| {
            PushGossipNode::new(id, cfg.clone())
        });
    sim.run_until(SimTime::from_secs(1));
    sim.reset_stats();
    let start = sim.now();
    schedule_writes(&mut sim, start);
    sim.run_for(Duration::from_secs(40));
    collect("gossip(F=5)", &sim)
}

fn collect<P>(name: &'static str, sim: &Sim<P, MetricsRecorder>) -> Outcome
where
    P: gocast_sim::Protocol<Command = GoCastCommand, Event = gocast::GoCastEvent>,
{
    let rec = sim.recorder().delivery();
    let nodes: Vec<NodeId> = sim.alive_nodes().collect();
    let (_, incomplete) = rec.per_node_average_delays(WRITES as u64, &nodes);
    // Stale windows are delivery delays, read off the ledger's streaming
    // histogram in nanoseconds: each quantile is rounded up to its
    // bucket, at most 1/32 above the exact value.
    let hist = rec.delay_histogram();
    Outcome {
        name,
        complete_replicas: N - incomplete,
        stale_p50_ms: hist.quantile_upper_bound(0.5) as f64 / 1e6,
        stale_p99_ms: hist.quantile_upper_bound(0.99) as f64 / 1e6,
        bytes_sent_mb: sim.stats().total().bytes as f64 / 1e6,
    }
}

fn main() {
    println!(
        "cache invalidation: {N} replicas, {WRITES} writes @10/s; lower stale window = fresher reads\n"
    );
    let go = run_gocast();
    let gs = run_gossip();
    report(&go);
    report(&gs);
    println!(
        "\nGoCast invalidates {:.1}x faster at the median.",
        gs.stale_p50_ms / go.stale_p50_ms
    );
    if gs.complete_replicas < N {
        println!(
            "gossip left {} replicas permanently stale for at least one write — the paper's \
             reliability argument (Figure 1) in action.",
            N - gs.complete_replicas
        );
    }
}
