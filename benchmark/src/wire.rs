//! `wire_64`, the attribution workload (gated by nothing, see
//! [`crate::metrics::WIRE`]): 64 nodes on loopback UDP — traffic crosses
//! the host's loopback interface, never a real link — driven open loop.
//! Several fabrics are built in sequence; on each, after a warm-up, 400
//! multicasts per second are due at fixed instants, all pre-scheduled
//! with `Testnet::schedule_command` before one `run_for`, and every
//! delivery is timed from the *due time* of its send, so a stall in the
//! generator or the fabric shows as latency instead of hiding.
//!
//! No closed-loop saturation phase feeds an end-to-end metric: on this
//! host one-second chunks of a saturated fabric range 206 k–398 k
//! deliveries/s inside one process. The traced run reports saturation
//! numbers for attribution only (`testnet.fabric.sat_*`).

use std::time::{Duration, Instant};

use gocast::{GoCastCommand, GoCastEvent, GoCastNode, MsgId};
use gocast_analysis::InvariantOracle;
use gocast_metrics::{Log2Histogram, MetricValue};
use gocast_sim::{FxHashMap, NodeId, Recorder, SimTime};
use gocast_testnet::{deployment_config, FabricStats, Testnet, TestnetConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::host::{rss_bytes, HostDelta, HostMark};
use crate::micro;
use crate::probe::{Probe, ProbeStats};
use crate::record::{oracle_check, Audit, DelaySummary, NodeSet, Tally};
use crate::stats::{median, quantile_sorted};
use crate::workload::{
    assign_msg_ids, core_node_layers, core_protocol_layers, CoreNode, EndToEndInputs, Opts, Pace,
    Pass,
};

const NODES: usize = 64;
/// Seed of the first fabric; fabric `f` uses `FABRIC_SEED + f`. Not
/// `DEPLOY_SEED`: at seed 7 the bootstrap graph hands node 58 ten links,
/// and the first link it accepts two milliseconds in trips the oracle's
/// degree bound — a start-up artefact of that graph, outside what this
/// workload measures.
const FABRIC_SEED: u64 = 8;
/// Fabrics per run: each forms its own overlay and tree (a race the
/// seed does not decide), so per-fabric medians differ by up to a tenth;
/// the run pools them.
const FABRICS: u64 = 3;
const WARM: Duration = Duration::from_secs(3);
/// 400 multicasts per second.
const GAP: Duration = Duration::from_micros(2500);
/// Multicasts per fabric at the nominal run length (6 s).
const MULTICASTS: u32 = 2400;
const DRAIN: Duration = Duration::from_millis(500);
const DEADLINE: Duration = Duration::from_millis(20);
/// A silence this long in the event trace while multicasts are due every
/// 2.5 ms means the fabric (or the host under it) stalled.
const STALL: Duration = Duration::from_millis(5);

/// `wire_64`, bare or probed.
pub fn wire(opts: &Opts, trace: bool) -> std::io::Result<Pass> {
    if trace {
        drive::<Probe<GoCastNode>>(opts)
    } else {
        drive::<GoCastNode>(opts)
    }
}

fn build<N: CoreNode>(seed: u64, record_trace: bool) -> std::io::Result<Testnet<N>> {
    let cfg = TestnetConfig::new(NODES)
        .with_seed(seed)
        .with_record_trace(record_trace);
    // The construction `Testnet::build_bootstrap` uses, with the node
    // wrapped when the pass is probed.
    let links = (cfg.protocol.c_degree() / 2).max(1);
    let mut boot = gocast::bootstrap_random_graph(NODES, links, seed ^ 0xB007);
    let protocol = cfg.protocol.clone();
    Testnet::build(&cfg, move |id| {
        let (links, members) = boot(id);
        N::wrap(GoCastNode::with_initial_links(
            id,
            protocol.clone(),
            links,
            members,
        ))
    })
}

/// What one fabric's window measured.
struct FabricRun {
    tally: Tally,
    audit: Audit,
    on_time: u64,
    host: HostDelta,
    stats: FabricStats,
    /// First due time to last delivery, ns.
    span_ns: u64,
    late_ns: Vec<u64>,
    stalls: u64,
    per_hop_ns: Vec<u64>,
    probes: ProbeStats,
    timer_late_p99_us: f64,
    datagrams_per_poll_p50: f64,
    oracle: Option<(String, bool)>,
}

fn stats_since(now: &FabricStats, then: &FabricStats) -> FabricStats {
    let mut d = *now;
    d.datagrams_sent -= then.datagrams_sent;
    d.datagrams_received -= then.datagrams_received;
    d.wire_msgs -= then.wire_msgs;
    d.sendto_calls -= then.sendto_calls;
    d.recvfrom_calls -= then.recvfrom_calls;
    d.sendmmsg_calls -= then.sendmmsg_calls;
    d.recvmmsg_calls -= then.recvmmsg_calls;
    d.bytes_sent -= then.bytes_sent;
    // `malformed` and `unresolved_dropped` stay cumulative: the check is
    // that they never happened, warm-up included.
    d
}

fn syscalls(s: &FabricStats) -> u64 {
    s.sendto_calls + s.recvfrom_calls + s.sendmmsg_calls + s.recvmmsg_calls
}

/// Upper bound of the bucket holding quantile `q` of a snapshotted
/// histogram.
fn histogram_quantile(net_snapshot: &gocast_metrics::Snapshot, name: &str, q: f64) -> f64 {
    for e in net_snapshot.entries() {
        if e.name != name {
            continue;
        }
        if let MetricValue::Histogram(h) = &e.value {
            let rank = (q * h.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for &(bucket, count) in &h.buckets {
                seen += count;
                if seen >= rank {
                    return Log2Histogram::bucket_bounds(bucket as usize).1 as f64;
                }
            }
        }
    }
    0.0
}

fn run_fabric<N: CoreNode>(
    fabric: u64,
    opts: &Opts,
    setup_s: &mut Vec<f64>,
    warm_rss: &mut u64,
) -> std::io::Result<FabricRun> {
    let multicasts = opts.scaled(MULTICASTS);
    let t0 = Instant::now();
    let mut net = build::<N>(FABRIC_SEED + fabric, true)?;

    // The whole schedule, due times fixed before the fabric starts.
    let warm_end = SimTime::ZERO + WARM;
    let mut rng = SmallRng::seed_from_u64((opts.seed ^ 0x5EED).wrapping_add(fabric));
    let origins: Vec<NodeId> = (0..multicasts)
        .map(|_| NodeId::new(rng.gen_range(0..NODES as u32)))
        .collect();
    let ids = assign_msg_ids(&origins, NODES, 0);
    let mut due: FxHashMap<MsgId, SimTime> = FxHashMap::default();
    let mut tally = Tally::new(NODES);
    for (i, (origin, id)) in origins.iter().zip(&ids).enumerate() {
        let at = warm_end + GAP * i as u32;
        net.schedule_command(at, *origin, GoCastCommand::Multicast);
        due.insert(*id, at);
        tally.track(*id, at);
    }
    let window = GAP * multicasts;

    net.run_for(WARM);
    setup_s.push(t0.elapsed().as_secs_f64());
    if fabric == 0 {
        *warm_rss = rss_bytes();
    }
    let probes0 = probe_sum(&net);
    let stats0 = net.stats();
    let mark0 = HostMark::now();
    net.run_for(window + DRAIN);
    let mark1 = HostMark::now();
    let stats = stats_since(&net.stats(), &stats0);
    let mut probes = probe_sum(&net);
    probes.subtract(&probes0);

    let mut oracle = N::PROBED.then(|| InvariantOracle::for_protocol(&deployment_config()));
    let mut late_ns = Vec::with_capacity(multicasts as usize);
    let mut per_hop_ns = Vec::new();
    let mut stalls = 0;
    let mut last_delivery = warm_end;
    let mut prev = warm_end;
    let window_end = warm_end + window;
    for (t, node, ev) in net.trace() {
        if let Some(o) = &mut oracle {
            o.record(*t, *node, ev.clone());
        }
        if *t < warm_end {
            continue;
        }
        if *t <= window_end && t.saturating_since(prev) > STALL {
            stalls += 1;
        }
        prev = *t;
        match ev {
            GoCastEvent::Injected { id } => {
                if let Some(d) = due.get(id) {
                    late_ns.push(t.saturating_since(*d).as_nanos() as u64);
                }
            }
            GoCastEvent::Delivered { id, hop, .. } => {
                last_delivery = *t;
                if let (true, Some(d)) = (N::PROBED, due.get(id)) {
                    per_hop_ns
                        .push(t.saturating_since(*d).as_nanos() as u64 / u64::from(*hop).max(1));
                }
            }
            _ => {}
        }
        tally.observe(*t, *node, ev, false);
    }
    let everyone = NodeSet::from_nodes(NODES, (0..NODES as u32).map(NodeId::new));
    let audit = tally.audit(|_| &everyone);
    let snapshot = net.metrics_snapshot();
    Ok(FabricRun {
        audit,
        on_time: tally.on_time(DEADLINE),
        tally,
        host: HostDelta::between(&mark0, &mark1),
        stats,
        span_ns: last_delivery.saturating_since(warm_end).as_nanos() as u64,
        late_ns,
        stalls,
        per_hop_ns,
        probes,
        timer_late_p99_us: histogram_quantile(&snapshot, "fabric_timer_fire_lateness_ns", 0.99)
            / 1e3,
        datagrams_per_poll_p50: histogram_quantile(&snapshot, "fabric_datagrams_per_poll", 0.5),
        oracle: oracle.as_mut().map(oracle_check),
    })
}

fn probe_sum<N: CoreNode>(net: &Testnet<N>) -> ProbeStats {
    let mut sum = ProbeStats::default();
    for p in net.iter_nodes().filter_map(CoreNode::probe) {
        sum.absorb(p);
    }
    sum
}

fn drive<N: CoreNode>(opts: &Opts) -> std::io::Result<Pass> {
    let multicasts = opts.scaled(MULTICASTS);
    let mut setup_s = Vec::new();
    let mut warm_rss = 0;
    let mut pooled = Tally::new(NODES);
    let mut audit = Audit::default();
    let mut host = HostDelta::default();
    let mut stats = FabricStats::default();
    let (mut on_time, mut span_ns, mut stalls) = (0, 0, 0);
    let mut late_ns = Vec::new();
    let mut per_hop_ns = Vec::new();
    let mut probes = ProbeStats::default();
    let mut fabric_p50_ms = Vec::new();
    let mut fabric_cpu_us = Vec::new();
    let (mut timer_late, mut per_poll) = (Vec::new(), Vec::new());
    let mut checks = Vec::new();
    for f in 0..FABRICS {
        let mut run = run_fabric::<N>(f, opts, &mut setup_s, &mut warm_rss)?;
        fabric_p50_ms.push(run.tally.delay_summary().p50_ms);
        fabric_cpu_us.push(run.host.cpu_ns as f64 / 1e3 / run.tally.deliveries.max(1) as f64);
        audit.absorb(&run.audit);
        host.absorb(&run.host);
        stats.absorb(&run.stats);
        on_time += run.on_time;
        span_ns += run.span_ns;
        stalls += run.stalls;
        late_ns.append(&mut run.late_ns);
        per_hop_ns.append(&mut run.per_hop_ns);
        probes.absorb(&run.probes);
        timer_late.push(run.timer_late_p99_us);
        per_poll.push(run.datagrams_per_poll_p50);
        checks.extend(run.oracle);
        pooled.pool(run.tally);
    }
    let end_rss = rss_bytes();
    let delays = DelaySummary::of(&mut pooled.delays_ns);
    late_ns.sort_unstable();
    let window_s = (GAP * multicasts).as_secs_f64() * FABRICS as f64;
    let payload = u64::from(deployment_config().payload_size);
    let inputs = EndToEndInputs {
        setup_s,
        delays,
        on_time,
        audit,
        deliveries: pooled.deliveries,
        warm_rss_bytes: warm_rss,
        bytes_sent: stats.bytes_sent,
        goodput_bytes_per_s: (pooled.deliveries * payload) as f64 / (NODES - 1) as f64 / window_s,
    };
    let pace = Pace {
        // Deliveries over the time from the first due send to the last
        // delivery: 25 200/s unless generator or fabric fall behind.
        deliveries_per_s: pooled.deliveries as f64 / (span_ns.max(1) as f64 / 1e9),
        cpu_us_per_delivery: median(&fabric_cpu_us),
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let late_p50 = ms(quantile_sorted(&late_ns, 0.5));
    let late_p99 = ms(quantile_sorted(&late_ns, 0.99));

    let lines = vec![
        format!(
            "window: {FABRICS} fabrics × {multicasts} multicasts at 400/s open loop on loopback UDP, {NODES} nodes, {WARM:?} warm-up, {DRAIN:?} drain"
        ),
        format!("deliver delay (wall, from due time): {delays}"),
        format!(
            "per fabric: p50 {:?} ms, cpu {:?} us/delivery",
            fabric_p50_ms
                .iter()
                .map(|v| (v * 1e4).round() / 1e4)
                .collect::<Vec<_>>(),
            fabric_cpu_us
                .iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        pace.to_string(),
        format!(
            "disturbance (wire): generator lateness p50 {late_p50:.4} ms p99 {late_p99:.4} ms, fabric stalls > {STALL:?}: {stalls}"
        ),
    ];
    checks.push(audit.check("node"));
    checks.push((
        format!(
            "no malformed ({}) or unresolved-dropped ({}) datagrams",
            stats.malformed, stats.unresolved_dropped
        ),
        stats.malformed == 0 && stats.unresolved_dropped == 0,
    ));
    checks.push((
        format!("generator lateness p50 {late_p50:.4} ms < 0.2 ms"),
        late_p50 < 0.2,
    ));

    let mut layers = Vec::new();
    if N::PROBED {
        let d = pooled.deliveries.max(1) as f64;
        core_node_layers(&probes, host.wall_ns, &mut layers);
        core_protocol_layers(&pooled, &delays, &mut layers);
        per_hop_ns.sort_unstable();
        let calls = syscalls(&stats).max(1) as f64;
        let mut row = |name: &str, v: f64| layers.push((format!("testnet.fabric.{name}"), v));
        row("wire_msgs_per_delivery", stats.wire_msgs as f64 / d);
        row("syscalls_per_delivery", calls / d);
        row(
            "datagrams_per_syscall",
            (stats.datagrams_sent + stats.datagrams_received) as f64 / calls,
        );
        row("datagrams_per_poll_p50", median(&per_poll));
        row("timer_late_p99_us", median(&timer_late));
        row(
            "self_ns_per_msg",
            host.cpu_ns.saturating_sub(probes.total_ns()) as f64 / stats.wire_msgs.max(1) as f64,
        );
        row("malformed", stats.malformed as f64);
        row("unresolved_dropped", stats.unresolved_dropped as f64);
        row("gen_late_p99_ms", late_p99);
        row("stalls_over_5ms", stalls as f64);
        row("deliver_p99_ms", delays.p99_ms);
        row("ms_per_hop_p50", ms(quantile_sorted(&per_hop_ns, 0.5)));
        let sat = saturation()?;
        row("sat_deliveries_per_s", sat.deliveries_per_s);
        row("sat_cpu_ns_per_delivery.first", sat.first_cpu_ns);
        row("sat_cpu_ns_per_delivery.last", sat.last_cpu_ns);
        micro::batch(&mut layers)?;
        micro::sched(&mut layers);
    }

    Ok(Pass {
        e2e: inputs.metrics(),
        layers,
        cost: host.cpu_ns as f64 / 1e3 / pooled.deliveries.max(1) as f64,
        pace,
        rss_bytes_per_node: warm_rss as f64 / NODES as f64,
        rss_growth_bytes_per_delivery: end_rss.saturating_sub(warm_rss) as f64
            / pooled.deliveries.max(1) as f64,
        lines,
        checks,
        attempted: audit.expected,
        failed: audit.missing,
        disturbance: host,
    })
}

/// Saturation numbers of a closed-loop fabric, for attribution only.
struct Saturation {
    deliveries_per_s: f64,
    first_cpu_ns: f64,
    last_cpu_ns: f64,
}

/// Drives a separate untraced fabric closed loop — 128 multicasts
/// outstanding, 8 chunks of 2500 — and reports capacity plus the CPU cost
/// per delivery of the first and last chunk (it climbs as the message
/// store grows, which is why capacity is not an end-to-end metric).
fn saturation() -> std::io::Result<Saturation> {
    const OUTSTANDING: u64 = 128;
    const CHUNKS: u64 = 8;
    const CHUNK: u64 = 2500;
    let per_multicast = NODES as u64 - 1;
    let mut net = build::<GoCastNode>(FABRIC_SEED + FABRICS, false)?;
    net.run_for(WARM);
    let delivered = |net: &Testnet<GoCastNode>| -> u64 {
        net.iter_nodes().map(GoCastNode::delivered_count).sum()
    };
    let base = delivered(&net);
    let mut injected = 0;
    let mut marks = vec![HostMark::now()];
    let deadline = Instant::now() + Duration::from_secs(60);
    while (marks.len() as u64) <= CHUNKS && Instant::now() < deadline {
        let done = (delivered(&net) - base) / per_multicast;
        if done >= marks.len() as u64 * CHUNK {
            marks.push(HostMark::now());
            continue;
        }
        let now = net.now();
        while injected < CHUNKS * CHUNK && injected - done < OUTSTANDING {
            let origin = NodeId::new((injected % NODES as u64) as u32);
            net.schedule_command(now, origin, GoCastCommand::Multicast);
            injected += 1;
        }
        net.run_for(Duration::from_millis(2));
    }
    let chunk_deliveries = (CHUNK * per_multicast) as f64;
    let cpu_ns = |i: usize| {
        marks.get(i + 1).map_or(0.0, |m| {
            HostDelta::between(&marks[i], m).cpu_ns as f64 / chunk_deliveries
        })
    };
    let total = HostDelta::between(&marks[0], marks.last().expect("one mark"));
    Ok(Saturation {
        deliveries_per_s: (marks.len() - 1) as f64 * chunk_deliveries
            / (total.wall_ns.max(1) as f64 / 1e9),
        first_cpu_ns: cpu_ns(0),
        last_cpu_ns: cpu_ns(CHUNKS as usize - 1),
    })
}
