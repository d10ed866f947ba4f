//! The two GoCast-only simulator workloads, `sim_dissem_1k` on the
//! serial kernel and `sim_scale_chaos_10k` on the sharded one, through
//! one driver: build → warm → (crash) → pre-schedule → window → audit.

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastNode};
use gocast_net::{king_like, OnDemandKing};
use gocast_sim::{NodeId, ShardedSim, Sim};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::host::rss_bytes;
use crate::micro;
use crate::probe::{Probe, ProbeStats};
use crate::record::{BenchRecorder, NodeSet};
use crate::workload::{
    build_serial, build_sharded, core_node_layers, core_protocol_layers, kernel_layers,
    lookahead_us, run_window, set_up, Built, CoreNode, EndToEndInputs, Kernel, KernelTrace, Opts,
    Pass, SetUp, BOOT_SEED, DEPLOY_SEED, NET_SEED,
};

/// The frozen size constants of one simulator workload.
struct Spec {
    nodes: usize,
    /// Set-ups an untraced run makes.
    setups: u32,
    /// Simulated warm-up before anything else happens.
    warm: Duration,
    /// Share of nodes crashed after the warm-up (never the tree root).
    crash_frac: f64,
    /// Simulated time between the crash and the window: just short of
    /// the neighbour timeout, so detection, link repair and pull recovery
    /// all fall inside the window.
    settle: Duration,
    /// Multicasts per slice.
    per_slice: u32,
    /// Slices at the nominal run length.
    slices: u32,
    slice: Duration,
    drain: Duration,
    deadline: Duration,
    sharded: bool,
}

const DISSEM: Spec = Spec {
    nodes: 1024,
    setups: 5,
    warm: Duration::from_secs(60),
    crash_frac: 0.0,
    settle: Duration::ZERO,
    per_slice: 50,
    slices: 60,
    slice: Duration::from_millis(500),
    drain: Duration::from_secs(5),
    deadline: Duration::from_millis(500),
    sharded: false,
};

const SCALE_CHAOS: Spec = Spec {
    nodes: 10_000,
    setups: 3,
    warm: Duration::from_secs(2),
    crash_frac: 0.10,
    settle: Duration::from_millis(9500),
    per_slice: 2,
    slices: 20,
    slice: Duration::from_millis(500),
    drain: Duration::from_secs(3),
    deadline: Duration::from_millis(1000),
    sharded: true,
};

fn bootstrapped<N: CoreNode>(spec: &'static Spec) -> impl FnMut(NodeId) -> N {
    let cfg = GoCastConfig::default();
    let mut boot = gocast::bootstrap_random_graph(spec.nodes, 3, BOOT_SEED);
    move |id| {
        let (links, members) = boot(id);
        N::wrap(GoCastNode::with_initial_links(
            id,
            cfg.clone(),
            links,
            members,
        ))
    }
}

/// `sim_dissem_1k`, bare or probed.
pub fn dissem(opts: &Opts, trace: bool) -> Pass {
    fn build<N: CoreNode>() -> Built<Sim<N, BenchRecorder>> {
        let (spec, cfg) = (&DISSEM, GoCastConfig::default());
        let model = || king_like(spec.nodes, NET_SEED);
        build_serial(N::PROBED, spec.nodes, &cfg, model, bootstrapped(spec))
    }
    if trace {
        drive(opts, &DISSEM, build::<Probe<GoCastNode>>)
    } else {
        drive(opts, &DISSEM, build::<GoCastNode>)
    }
}

/// `sim_scale_chaos_10k`, bare or probed.
pub fn scale_chaos(opts: &Opts, trace: bool) -> Pass {
    fn build<N: CoreNode>() -> Built<ShardedSim<N, BenchRecorder>> {
        let (spec, cfg) = (&SCALE_CHAOS, GoCastConfig::default());
        let model = || OnDemandKing::paper_default(spec.nodes, NET_SEED);
        build_sharded(N::PROBED, spec.nodes, &cfg, model, bootstrapped(spec))
    }
    if trace {
        drive(opts, &SCALE_CHAOS, build::<Probe<GoCastNode>>)
    } else {
        drive(opts, &SCALE_CHAOS, build::<GoCastNode>)
    }
}

/// The nodes the deployment crashes: a fixed draw, never node 0 (the
/// tree root — root failover is a different experiment).
fn crash_set(spec: &Spec) -> NodeSet {
    let mut rng = SmallRng::seed_from_u64(DEPLOY_SEED ^ 0xFA11);
    let mut dead = NodeSet::empty(spec.nodes);
    let want = (spec.nodes as f64 * spec.crash_frac).round() as u64;
    while dead.len() < want {
        dead.insert(NodeId::new(rng.gen_range(1..spec.nodes as u32)));
    }
    dead
}

/// Who multicasts, in due order. The live nodes take turns — every
/// `live / multicasts`-th one when there are fewer multicasts than nodes
/// — so which nodes send is a property of the deployment and the traffic
/// seed only shuffles the order they send in: drawing the sources from
/// the seed moved `sim_scale_chaos_10k`'s median delay by 6.5 % over ten
/// seeds (forty sources at different depths of the tree), the shuffle
/// moves it by 2.8 %.
fn sources(live: &NodeSet, nodes: usize, multicasts: u32, seed: u64) -> Vec<NodeId> {
    let live: Vec<NodeId> = (0..nodes as u32)
        .map(NodeId::new)
        .filter(|n| live.contains(*n))
        .collect();
    let stride = (live.len() / multicasts as usize).max(1);
    let mut out: Vec<NodeId> = (0..multicasts as usize)
        .map(|i| live[i * stride % live.len()])
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

fn probe_sum<'a, N: CoreNode + 'a>(nodes: impl Iterator<Item = &'a N>) -> ProbeStats {
    let mut sum = ProbeStats::default();
    for p in nodes.filter_map(CoreNode::probe) {
        sum.absorb(p);
    }
    sum
}

fn drive<K, N>(opts: &Opts, spec: &Spec, build: impl Fn() -> Built<K>) -> Pass
where
    N: CoreNode,
    K: Kernel<Node = N>,
{
    let dead = crash_set(spec);
    let everyone = (0..spec.nodes as u32).map(NodeId::new);
    let live = NodeSet::from_nodes(spec.nodes, everyone.filter(|n| !dead.contains(*n)));

    // Set-up: build + warm-up (+ crash + settle). Then the whole
    // open-loop schedule is pre-scheduled and the window run.
    let slices = opts.scaled(spec.slices);
    let multicasts = slices * spec.per_slice;
    let gap = spec.slice / spec.per_slice;
    let SetUp {
        built: mut b,
        setup_s,
        warm_rss,
    } = set_up(opts.setups(spec.setups), || {
        let mut b = build();
        b.sim.run_for(spec.warm);
        for i in (0..spec.nodes as u32).map(NodeId::new) {
            if dead.contains(i) {
                b.sim.fail_node(i);
            }
        }
        b.sim.run_for(spec.settle);
        b
    });
    let start = b.sim.now();
    let sources = sources(&live, spec.nodes, multicasts, opts.seed);
    for (i, src) in sources.into_iter().enumerate() {
        b.sim
            .schedule_command(start + gap * i as u32, src, GoCastCommand::Multicast);
    }
    let (probes0, net0, clock0) = (
        probe_sum(b.sim.nodes()),
        b.net.as_ref().map(|c| c.read()).unwrap_or_default(),
        b.sim.rec_mut().clock(),
    );
    let window = run_window(&mut b.sim, slices, spec.slice, spec.drain);
    let end_rss = rss_bytes();
    let Built {
        mut sim,
        net_build_s,
        net,
    } = b;

    let delays = sim.rec_mut().tally.delay_summary();
    let clock = sim.rec_mut().clock().since(&clock0);
    let stats = sim.kernel_stats();
    let tally = sim.tally();
    let audit = tally.audit(|_| &live);
    let payload = u64::from(GoCastConfig::default().payload_size);
    let inputs = EndToEndInputs {
        setup_s,
        delays,
        on_time: tally.on_time(spec.deadline),
        audit,
        deliveries: tally.deliveries,
        warm_rss_bytes: warm_rss,
        bytes_sent: window.bytes,
        // Payload bytes handed to each live subscriber per simulated
        // second of the window.
        goodput_bytes_per_s: (tally.deliveries * payload) as f64
            / (live.len() - 1) as f64
            / window.sim_secs,
    };

    let mut lines = vec![
        format!(
            "window: {} multicasts in {} slices of {:?} simulated, {} nodes ({} crashed), drain {:?}",
            multicasts,
            slices,
            spec.slice,
            spec.nodes,
            dead.len(),
            spec.drain
        ),
        format!("deliver delay (simulated): {delays}"),
        window.line(&inputs.setup_s),
        window.pace().to_string(),
    ];
    let mut checks = vec![
        audit.check("live node"),
        (
            format!(
                "{} multicasts scheduled, {} injected",
                multicasts,
                tally.tracked()
            ),
            tally.tracked() == multicasts as usize,
        ),
    ];

    let mut layers = Vec::new();
    if N::PROBED {
        let core = {
            let mut now = probe_sum(sim.nodes());
            now.subtract(&probes0);
            now
        };
        core_node_layers(&core, window.host_with_drain.wall_ns, &mut layers);
        core_protocol_layers(tally, &delays, &mut layers);
        let trace = KernelTrace {
            sharded: spec.sharded,
            nodes: spec.nodes,
            window: &window,
            handler_ns: core.total_ns(),
            lookups: net
                .as_ref()
                .map(|c| c.read().since(&net0))
                .unwrap_or_default(),
            recorder: clock,
            stats,
            net_build_s,
        };
        lines.push(kernel_layers(&trace, &mut layers));
        let timer_calls: u64 = core.calls[7..13].iter().sum();
        let msg_calls: u64 = core.calls[..7].iter().sum();
        lines.push(format!(
            "handler calls: {msg_calls} message, {timer_calls} timer ({:.1}% timers)",
            100.0 * timer_calls as f64 / (msg_calls + timer_calls).max(1) as f64
        ));

        // Micro pass over the layers this workload leans on.
        micro::event_queue(&mut layers);
        if spec.sharded {
            let bare = OnDemandKing::paper_default(spec.nodes, NET_SEED);
            layers.push(("net.ondemand.lookup_ns".into(), micro::lookup_ns(&bare)));
            layers.push(("sim.shard.lookahead_us".into(), lookahead_us(&bare)));
            layers.push(("sim.shard.speedup_t2".into(), micro::shard_speedup_t2()));
        } else {
            let bare = king_like(spec.nodes, NET_SEED);
            layers.push(("net.matrix.lookup_ns".into(), micro::lookup_ns(&bare)));
        }

        if let Some(check) = sim.rec_mut().finish_oracle() {
            checks.push(check);
        }
    }

    Pass {
        e2e: inputs.metrics(),
        layers,
        cost: window.host_with_drain.wall_ns as f64 / 1e9,
        pace: window.pace(),
        rss_bytes_per_node: warm_rss as f64 / spec.nodes as f64,
        rss_growth_bytes_per_delivery: end_rss.saturating_sub(warm_rss) as f64
            / audit.expected.max(1) as f64,
        lines,
        checks,
        attempted: audit.expected,
        failed: audit.missing,
        disturbance: window.host_with_drain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulation-domain metrics of a reduced `sim_dissem_1k` window.
    fn dissem_sim_domain(seed: u64) -> Vec<(&'static str, u64)> {
        let opts = Opts {
            seed,
            seconds: 1,
            traced_run: true,
        };
        let pass = dissem(&opts, false);
        [
            "deliver_p50_ms",
            "on_time_frac",
            "delivery_ratio",
            "bytes_per_delivery",
            "goodput_bytes_per_s",
        ]
        .map(|name| (name, pass.e2e.get(name).expect("metric set").to_bits()))
        .to_vec()
    }

    #[test]
    fn same_seed_gives_bit_identical_simulation_metrics() {
        let a = dissem_sim_domain(11);
        let b = dissem_sim_domain(11);
        assert_eq!(a, b);
        let c = dissem_sim_domain(12);
        assert_ne!(a, c, "another seed is another schedule");
    }

    #[test]
    fn sources_are_the_deployments_and_the_seed_orders_them() {
        let dead = crash_set(&SCALE_CHAOS);
        let everyone = (0..10_000).map(NodeId::new);
        let live = NodeSet::from_nodes(10_000, everyone.filter(|n| !dead.contains(*n)));
        let sorted = |seed| {
            let mut s = sources(&live, 10_000, 40, seed);
            assert!(s.iter().all(|n| live.contains(*n)));
            let order = s.clone();
            s.sort();
            s.dedup();
            (s, order)
        };
        let (a, order_a) = sorted(1);
        let (b, order_b) = sorted(2);
        assert_eq!(a.len(), 40, "forty different nodes");
        assert_eq!(a, b, "the same nodes at every seed");
        assert_ne!(order_a, order_b, "in another order");
        assert_eq!(sorted(1).1, order_a, "the same seed, the same order");
        // More multicasts than nodes: everyone takes turns.
        let small = NodeSet::from_nodes(4, (0..4).map(NodeId::new));
        let mut turns = sources(&small, 4, 10, 3);
        turns.sort();
        let count = |n| turns.iter().filter(|x| **x == NodeId::new(n)).count();
        assert_eq!([count(0), count(1), count(2), count(3)], [3, 3, 2, 2]);
    }

    #[test]
    fn crash_set_spares_the_root_and_has_the_stated_size() {
        let dead = crash_set(&SCALE_CHAOS);
        assert_eq!(dead.len(), 1000);
        assert!(!dead.contains(NodeId::new(0)));
        assert_eq!(crash_set(&DISSEM).len(), 0);
    }
}
