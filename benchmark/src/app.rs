//! `app_topics_1k`: the application tier. `TopicMux<GoCastNode>` on the
//! sharded kernel, 32 Zipf topics, 1 KiB payloads, 400 operations per
//! simulated second — publish : CRDT add : CRDT remove = 2 : 1 : 1 — so
//! writes (publish/add/remove) run beside reads (digest and
//! `missing_for` anti-entropy) and a gain for one that costs the other
//! shows.

use std::sync::Arc;
use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastNode};
use gocast_app::{
    AppCommand, AppConfig, CrdtAudit, SubscriptionTable, TopicDirectory, TopicMux, APP_SEQ_BASE,
};
use gocast_net::OnDemandKing;
use gocast_sim::{FxHashMap, NodeId, ShardedSim};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::host::rss_bytes;
use crate::micro;
use crate::probe::{Probe, ProbeStats};
use crate::record::{BenchRecorder, NodeSet};
use crate::workload::{
    assign_msg_ids, build_sharded, core_node_layers, core_protocol_layers, kernel_layers,
    lookahead_us, run_window, set_up, AppNode, Built, EndToEndInputs, Kernel, KernelTrace, Opts,
    Pass, SetUp, BOOT_SEED, DEPLOY_SEED, NET_SEED,
};

const NODES: usize = 1024;
const TOPICS: u32 = 32;
/// Set-ups an untraced run makes (about a second each).
const SETUPS: u32 = 9;
const WARM: Duration = Duration::from_secs(20);
const OPS_PER_SLICE: u32 = 200;
const SLICES: u32 = 22;
const SLICE: Duration = Duration::from_millis(500);
/// Three anti-entropy rounds (2 s each): enough for every replica to
/// reach quiescence, which the CRDT audit then checks.
const DRAIN: Duration = Duration::from_secs(6);
const DEADLINE: Duration = Duration::from_millis(2000);

/// `app_topics_1k`, bare or probed.
pub fn topics(opts: &Opts, trace: bool) -> Pass {
    if trace {
        drive::<Probe<TopicMux<Probe<GoCastNode>>>>(opts)
    } else {
        drive::<TopicMux<GoCastNode>>(opts)
    }
}

type BuiltApp<N> = Built<ShardedSim<N, BenchRecorder>>;

fn build<N: AppNode>(dir: &Arc<TopicDirectory>) -> BuiltApp<N> {
    let cfg = GoCastConfig::default();
    let mut boot = gocast::bootstrap_random_graph(NODES, 3, BOOT_SEED);
    let make = |id| {
        let (links, members) = boot(id);
        let core = GoCastNode::with_initial_links(id, cfg.clone(), links, members);
        N::build(id, core, Arc::clone(dir), AppConfig::default())
    };
    let model = || OnDemandKing::paper_default(NODES, NET_SEED);
    build_sharded(N::PROBED, NODES, &cfg, model, make)
}

fn probe_sums<'a, N: AppNode + 'a>(nodes: impl Iterator<Item = &'a N>) -> (ProbeStats, ProbeStats) {
    let (mut app, mut core) = (ProbeStats::default(), ProbeStats::default());
    for (a, c) in nodes.filter_map(AppNode::probes) {
        app.absorb(a);
        core.absorb(c);
    }
    (app, core)
}

fn drive<N: AppNode>(opts: &Opts) -> Pass {
    let table = SubscriptionTable::new(DEPLOY_SEED, NODES as u32, TOPICS);
    let budget = GoCastConfig::default().c_degree();
    let dir = Arc::new(TopicDirectory::build(table, &[], budget));
    let subscribers: Vec<NodeSet> = (0..TOPICS)
        .map(|t| NodeSet::from_nodes(NODES, dir.subscribers(0, t).iter().copied()))
        .collect();
    let subscriptions: u64 = subscribers.iter().map(NodeSet::len).sum();

    // The schedule, in rounds of publish, add, publish, remove. Which
    // (subscriber, topic) pairs publish and which add is a property of
    // the deployment (every third pair adds); the seed shuffles the order
    // they act in. A nominal run uses nearly every pair exactly once, so
    // the bytes owed barely depend on the seed (drawing node and topic
    // independently moved goodput by 3 %). A remove takes back its own
    // round's add, so it is never a no-op and always publishes a delta.
    let slices = opts.scaled(SLICES);
    let ops = slices * OPS_PER_SLICE;
    let gap = SLICE / OPS_PER_SLICE;
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
    let pairs = (0..NODES as u32)
        .map(NodeId::new)
        .flat_map(|n| table.topics_of(n).into_iter().map(move |t| (n, t)));
    let (mut adders, mut publishers): (Vec<_>, Vec<_>) =
        pairs.enumerate().partition(|(i, _)| i % 3 == 1);
    for list in [&mut adders, &mut publishers] {
        for i in (1..list.len()).rev() {
            list.swap(i, rng.gen_range(0..=i));
        }
    }
    let schedule: Vec<(NodeId, u32, AppCommand<GoCastCommand>)> = (0..ops)
        .map(|i| {
            let round = (i / 4) as usize;
            let (_, (node, topic)) = match i % 4 {
                0 => publishers[(2 * round) % publishers.len()],
                2 => publishers[(2 * round + 1) % publishers.len()],
                _ => adders[round % adders.len()],
            };
            let (topic_arg, elem) = (Some(topic), 1_000 + round as u64);
            let cmd = match i % 4 {
                1 => AppCommand::CrdtAdd {
                    topic: topic_arg,
                    elem,
                },
                3 => AppCommand::CrdtRemove {
                    topic: topic_arg,
                    elem,
                },
                _ => AppCommand::Publish { topic: topic_arg },
            };
            (node, topic, cmd)
        })
        .collect();
    let origins: Vec<NodeId> = schedule.iter().map(|(n, _, _)| *n).collect();
    let topic_of: FxHashMap<_, _> = assign_msg_ids(&origins, NODES, APP_SEQ_BASE)
        .into_iter()
        .zip(schedule.iter().map(|(_, t, _)| *t))
        .collect();

    // Set-up: build + warm-up. Then every operation is pre-scheduled
    // and the window run.
    let SetUp {
        built: mut b,
        setup_s,
        warm_rss,
    } = set_up(opts.setups(SETUPS), || {
        let mut b = build::<N>(&dir);
        b.sim.run_for(WARM);
        b
    });
    let start = b.sim.now();
    for (i, (node, _, cmd)) in schedule.iter().enumerate() {
        b.sim
            .schedule_command(start + gap * i as u32, *node, cmd.clone());
    }
    let (probes0, net0, clock0) = (
        probe_sums(b.sim.nodes()),
        b.net.as_ref().map(|c| c.read()).unwrap_or_default(),
        b.sim.rec_mut().clock(),
    );
    let window = run_window(&mut b.sim, slices, SLICE, DRAIN);
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
    // An id outside the schedule fails the count check below.
    let audit = tally.audit(|id| &subscribers[topic_of.get(&id).map_or(0, |t| *t as usize)]);
    let inputs = EndToEndInputs {
        setup_s,
        delays,
        on_time: tally.on_time(DEADLINE),
        audit,
        deliveries: tally.deliveries,
        warm_rss_bytes: warm_rss,
        bytes_sent: window.bytes,
        // Payload bytes handed to each subscription per simulated second.
        goodput_bytes_per_s: tally.topic_payload_bytes as f64
            / subscriptions as f64
            / window.sim_secs,
    };

    let mut crdt = CrdtAudit::new();
    for n in sim.nodes() {
        n.observe(&mut crdt);
    }
    let mut lines = vec![
        format!(
            "window: {ops} operations (publish:add:remove 2:1:1) in {slices} slices of {SLICE:?} simulated, {NODES} nodes, {TOPICS} topics, {subscriptions} subscriptions, drain {DRAIN:?}"
        ),
        format!("deliver delay (simulated): {delays}"),
        window.line(&inputs.setup_s),
        window.pace().to_string(),
    ];
    let mut checks = vec![
        audit.check("subscriber"),
        (
            format!("{ops} operations scheduled, {} published", tally.tracked()),
            tally.tracked() == ops as usize,
        ),
        (
            format!(
                "CRDT replicas converged: {} replicas of {} topics, divergent {:?}",
                crdt.replica_count(),
                crdt.topic_count(),
                crdt.divergent_topics()
            ),
            crdt.converged(),
        ),
    ];

    let mut layers = Vec::new();
    if N::PROBED {
        let (mut app, mut core) = probe_sums(sim.nodes());
        app.subtract(&probes0.0);
        core.subtract(&probes0.1);
        let wall_ns = window.host_with_drain.wall_ns;
        core_node_layers(&core, wall_ns, &mut layers);
        core_protocol_layers(tally, &delays, &mut layers);
        // The mux's own time: its handlers minus the node handlers (and
        // their replay into the mux's buffer) they enclose.
        let mux_self = app
            .total_ns()
            .saturating_sub(core.total_ns() + core.sink_ns);
        layers.push(("app.mux.calls".into(), app.total_calls() as f64));
        layers.push((
            "app.mux.self_ns_per_call".into(),
            mux_self as f64 / app.total_calls().max(1) as f64,
        ));
        layers.push(("app.mux.busy_frac".into(), mux_self as f64 / wall_ns as f64));
        layers.push((
            "app.mux.topic_deliveries".into(),
            sim.nodes().map(AppNode::topic_deliveries).sum::<u64>() as f64,
        ));
        layers.push((
            "app.crdt_converge_p99_ms".into(),
            tally.crdt_converge_p99_ms(),
        ));
        layers.push((
            "app.anti_entropy_bytes_frac".into(),
            app.anti_entropy_bytes as f64 / app.bytes.max(1) as f64,
        ));
        let trace = KernelTrace {
            sharded: true,
            nodes: NODES,
            window: &window,
            handler_ns: app.total_ns(),
            lookups: net
                .as_ref()
                .map(|c| c.read().since(&net0))
                .unwrap_or_default(),
            recorder: clock,
            stats,
            net_build_s,
        };
        lines.push(kernel_layers(&trace, &mut layers));
        lines.push(format!(
            "mux self {:.1}% of the traced window, node handlers inside it {:.1}%",
            100.0 * mux_self as f64 / wall_ns as f64,
            100.0 * core.total_ns() as f64 / wall_ns as f64
        ));

        micro::orset(&mut layers);
        micro::event_queue(&mut layers);
        let bare = OnDemandKing::paper_default(NODES, NET_SEED);
        layers.push(("net.ondemand.lookup_ns".into(), micro::lookup_ns(&bare)));
        layers.push(("sim.shard.lookahead_us".into(), lookahead_us(&bare)));
        layers.push(("sim.shard.speedup_t2".into(), micro::shard_speedup_t2()));

        if let Some(check) = sim.rec_mut().finish_oracle() {
            checks.push(check);
        }
    }

    Pass {
        e2e: inputs.metrics(),
        layers,
        cost: window.host_with_drain.wall_ns as f64 / 1e9,
        pace: window.pace(),
        rss_bytes_per_node: warm_rss as f64 / NODES as f64,
        rss_growth_bytes_per_delivery: end_rss.saturating_sub(warm_rss) as f64
            / audit.expected.max(1) as f64,
        lines,
        checks,
        attempted: audit.expected,
        failed: audit.missing,
        disturbance: window.host_with_drain,
    }
}
