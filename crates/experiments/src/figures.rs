//! One function per paper figure / reported claim. Each returns the
//! [`Table`]s it printed, so the CLI, benches, and tests share one code
//! path. See DESIGN.md for the experiment index.

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent};
use gocast_analysis::{diameter, fmt_ms, fmt_secs, Table};
use gocast_baselines::{
    prob_all_nodes_hear, prob_all_nodes_hear_all, PushGossipConfig, PushGossipNode,
};
use gocast_net::{AsTopology, LinkStress};
use gocast_sim::Stack;

use crate::options::ExpOptions;
use crate::pipeline::{build_network, gocast_nodes, horizon, inject};
use crate::report::log_kernel;
use crate::runners::{
    gocast_run, overlay_latency_breakdown, plain_run, resilience_q, run_adaptation, run_delay,
    DelayStats, PlainRun, Proto,
};

/// Percentiles reported for delay CDFs.
const DELAY_PCTS: [(f64, &str); 6] = [
    (0.10, "p10"),
    (0.50, "p50"),
    (0.90, "p90"),
    (0.99, "p99"),
    (1.00, "max"),
    (-1.0, "mean"),
];

fn delay_row(stats: &DelayStats) -> Vec<String> {
    let mut row = vec![stats.protocol.clone()];
    let complete = stats.live_nodes - stats.incomplete_nodes;
    row.push(format!(
        "{:.4}",
        complete as f64 / stats.live_nodes.max(1) as f64
    ));
    for (p, _) in DELAY_PCTS {
        if stats.per_node_avg.is_empty() {
            row.push("-".into());
        } else if p < 0.0 {
            row.push(fmt_secs(stats.per_node_avg.mean()));
        } else {
            row.push(fmt_secs(stats.per_node_avg.percentile(p)));
        }
    }
    row.push(format!("{:.4}", stats.redundancy));
    row.push(stats.pulls.to_string());
    row
}

fn delay_table() -> Table {
    let mut headers = vec!["protocol".to_string(), "complete".to_string()];
    headers.extend(DELAY_PCTS.iter().map(|(_, n)| format!("{n}(s)")));
    headers.push("redundancy".into());
    headers.push("pulls".into());
    Table::new(headers)
}

/// Figure 1: analytic gossip reliability vs fanout, plus an empirical
/// validation run of the push-gossip baseline.
pub fn fig1(opts: &ExpOptions) -> Vec<Table> {
    let n = opts.nodes;
    let mut t = Table::new(["fanout", "P(all hear 1 msg)", "P(all hear 1000 msgs)"]);
    for f in 4..=20 {
        t.row([
            f.to_string(),
            format!("{:.6}", prob_all_nodes_hear(n, f as f64)),
            format!("{:.6}", prob_all_nodes_hear_all(n, f as f64, 1000)),
        ]);
    }
    println!("Figure 1 — push-gossip reliability (analytic), n = {n}:\n{t}");
    opts.write_csv("fig1_analytic", &t);

    // Empirical: run the baseline and measure misses and hear counts. Its
    // own short workload (at most 50 messages from any node, on the
    // figure's own stream), injected right at the end of a 1 s warm-up.
    let cfg = PushGossipConfig::default();
    let mut run = plain_run(opts, build_network(opts), false, |id| {
        PushGossipNode::new(id, cfg.clone())
    });
    run.warm(Duration::from_secs(1));
    let msgs = opts.messages.min(50);
    let mut few = opts.clone();
    few.messages = msgs;
    let start = run.sim.now();
    inject(
        &few,
        0xF16,
        start,
        &run.live_sources(),
        |_, _, src, _| (src, GoCastCommand::Multicast),
        |at, node, cmd| run.sim.schedule_command(at, node, cmd),
    );
    run.drive(start + opts.inject_duration() + opts.drain);
    let sim = &run.sim;
    log_kernel(&sim.kernel_stats());

    // Misses: every injected message should reach the other n-1 nodes.
    let delivered = sim.recorder().metrics.delivered();
    let expected = msgs as u64 * (opts.nodes as u64 - 1);
    let missing = expected.saturating_sub(delivered);
    let max_hears = sim
        .iter_nodes()
        .map(|(_, node)| node.max_times_heard())
        .max()
        .unwrap_or(0);
    let mut t2 = Table::new(["metric", "measured", "analytic"]);
    t2.row([
        "miss fraction (F=5)".to_string(),
        format!("{:.5}", missing as f64 / expected as f64),
        format!("{:.5} (e^-5)", (-5.0f64).exp()),
    ]);
    t2.row([
        "max gossip hears".to_string(),
        max_hears.to_string(),
        "~19 (paper, tail of Poisson(5))".to_string(),
    ]);
    println!("Figure 1 — empirical validation ({msgs} msgs, n = {n}):\n{t2}");
    opts.write_csv("fig1_empirical", &t2);
    vec![t, t2]
}

/// Figures 3(a)/3(b): per-node average delay across the five protocols,
/// with `fail_frac` of nodes crashed (and repair frozen) at measurement
/// start.
pub fn fig3(opts: &ExpOptions, fail_frac: f64) -> Vec<Table> {
    let protos = [
        Proto::GoCast(GoCastConfig::default()),
        Proto::GoCast(GoCastConfig::proximity_overlay()),
        Proto::GoCast(GoCastConfig::random_overlay()),
        Proto::PushGossip(PushGossipConfig::default()),
        Proto::PushGossip(PushGossipConfig::no_wait()),
    ];
    let mut t = delay_table();
    let mut gocast_mean = None;
    let mut gossip_mean = None;
    // The five protocol runs are independent simulations; fan them across
    // `--jobs` workers. Results come back in protocol order, so the table
    // (and its CSV) is byte-identical to a serial run.
    let results = crate::sweep::parallel_map(opts.effective_jobs(), protos.to_vec(), |_, proto| {
        let label = proto.label();
        eprintln!("  running {label} (fail = {fail_frac}) ...");
        run_delay(opts, proto, fail_frac)
    });
    for stats in results {
        let label = stats.protocol.clone();
        if !stats.per_node_avg.is_empty() {
            if label == "GoCast" {
                gocast_mean = Some(stats.per_node_avg.mean());
            }
            if label.starts_with("gossip") {
                gossip_mean = Some(stats.per_node_avg.mean());
            }
        }
        t.row(delay_row(&stats));
    }
    let name = if fail_frac > 0.0 { "fig3b" } else { "fig3a" };
    println!(
        "Figure 3{} — per-node average delivery delay, n = {}, {}% failed:\n{t}",
        if fail_frac > 0.0 { "(b)" } else { "(a)" },
        opts.nodes,
        (fail_frac * 100.0) as u32
    );
    if let (Some(g), Some(p)) = (gocast_mean, gossip_mean) {
        println!(
            "  speedup GoCast vs gossip: {:.1}x (paper: {}x)\n",
            p.as_secs_f64() / g.as_secs_f64(),
            if fail_frac > 0.0 { "2.3" } else { "8.9" }
        );
    }
    opts.write_csv(name, &t);
    vec![t]
}

/// Figure 4: GoCast delay at two system sizes, without and with 20%
/// failures.
pub fn fig4(opts: &ExpOptions, sizes: &[usize]) -> Vec<Table> {
    // All (failure fraction, size) runs are independent; fan the whole
    // grid across `--jobs` workers and stitch the tables back in order.
    let combos: Vec<(f64, usize)> = [0.0, 0.2]
        .iter()
        .flat_map(|&fail| sizes.iter().map(move |&n| (fail, n)))
        .collect();
    let results = crate::sweep::parallel_map(opts.effective_jobs(), combos, |_, (fail, n)| {
        let o = opts.clone().with_nodes(n);
        eprintln!("  running GoCast n = {n}, fail = {fail} ...");
        let mut stats = run_delay(&o, Proto::GoCast(GoCastConfig::default()), fail);
        stats.protocol = format!("GoCast n={n}");
        stats
    });
    let mut results = results.into_iter();
    let mut tables = Vec::new();
    for &fail in &[0.0, 0.2] {
        let mut t = delay_table();
        for _ in sizes {
            let stats = results.next().expect("one result per (fail, size) combo");
            t.row(delay_row(&stats));
        }
        println!(
            "Figure 4{} — GoCast scalability, {}% failed:\n{t}",
            if fail > 0.0 { "(b)" } else { "(a)" },
            (fail * 100.0) as u32
        );
        opts.write_csv(if fail > 0.0 { "fig4b" } else { "fig4a" }, &t);
        tables.push(t);
    }
    tables
}

/// Figure 5(a): node-degree distribution at snapshot times.
pub fn fig5a(opts: &ExpOptions) -> Vec<Table> {
    let snap_times = [0, 5, opts.warmup.as_secs()];
    let res = run_adaptation(opts, &GoCastConfig::default(), &snap_times, 0);
    let max_deg = res
        .degree_hists
        .iter()
        .map(|(_, h)| h.max_value())
        .max()
        .unwrap_or(0);
    let mut headers = vec!["degree".to_string()];
    headers.extend(snap_times.iter().map(|s| format!("t={s}s")));
    let mut t = Table::new(headers);
    for d in 0..=max_deg {
        let mut row = vec![d.to_string()];
        for (_, h) in &res.degree_hists {
            row.push(format!("{:.4}", h.cumulative_fraction(d)));
        }
        t.row(row);
    }
    println!(
        "Figure 5(a) — cumulative degree distribution over time (n = {}):\n{t}",
        opts.nodes
    );
    for (s, h) in &res.degree_hists {
        println!(
            "  t={s}s: {:.0}% of nodes at degree 6, mean degree {:.2}",
            h.fraction(6) * 100.0,
            h.mean()
        );
    }
    println!();
    opts.write_csv("fig5a", &t);
    vec![t]
}

/// Figure 5(b): average overlay / tree link latency over the first
/// `latency_secs` seconds.
pub fn fig5b(opts: &ExpOptions, latency_secs: u64) -> Vec<Table> {
    let res = run_adaptation(opts, &GoCastConfig::default(), &[], latency_secs);
    let mut t = Table::new([
        "t(s)",
        "overlay link latency (ms)",
        "tree link latency (ms)",
    ]);
    for (s, overlay, tree) in &res.latency_series {
        t.row([s.to_string(), fmt_ms(*overlay), fmt_ms(*tree)]);
    }
    println!(
        "Figure 5(b) — link latency adaptation (n = {}), every 10th sample:",
        opts.nodes
    );
    let mut short = Table::new(["t(s)", "overlay (ms)", "tree (ms)"]);
    for (s, overlay, tree) in res.latency_series.iter().step_by(10) {
        short.row([s.to_string(), fmt_ms(*overlay), fmt_ms(*tree)]);
    }
    println!("{short}");
    if let Some((_, overlay, tree)) = res.latency_series.last() {
        println!(
            "  final: overlay {} ms, tree {} ms (paper: tree 15.5 ms vs 91 ms random mean)\n",
            fmt_ms(*overlay),
            fmt_ms(*tree)
        );
    }
    opts.write_csv("fig5b", &t);
    vec![t]
}

/// Figure 6: largest live component fraction vs failure ratio, for
/// different numbers of random links per node (total degree fixed at 6).
pub fn fig6(opts: &ExpOptions) -> Vec<Table> {
    let c_rands = [0usize, 1, 2, 4];
    let fracs = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
    let mut headers = vec!["failed fraction".to_string()];
    headers.extend(c_rands.iter().map(|c| format!("q (C_rand={c})")));
    let mut t = Table::new(headers);
    let mut snaps = Vec::new();
    for &c in &c_rands {
        let cfg = GoCastConfig::default().with_degrees(c, 6 - c);
        eprintln!("  adapting overlay with C_rand = {c} ...");
        let res = run_adaptation(opts, &cfg, &[], 0);
        snaps.push(res.final_snapshot);
    }
    for &f in &fracs {
        let mut row = vec![format!("{f:.2}")];
        for snap in &snaps {
            row.push(format!("{:.4}", resilience_q(snap, f, 5, opts.seed)));
        }
        t.row(row);
    }
    println!(
        "Figure 6 — largest component after failures (n = {}):\n{t}",
        opts.nodes
    );
    opts.write_csv("fig6", &t);
    vec![t]
}

/// §3 summary (1): link changes per second decay as the overlay
/// stabilizes.
pub fn ext1(opts: &ExpOptions) -> Vec<Table> {
    let res = run_adaptation(opts, &GoCastConfig::default(), &[], 0);
    let mut t = Table::new(["t(s)", "link changes/s"]);
    for (s, &c) in res.link_changes_per_sec.iter().enumerate() {
        t.row([s.to_string(), c.to_string()]);
    }
    println!("§3(1) — link changes per second (n = {}):", opts.nodes);
    let mut short = Table::new(["t(s)", "changes/s"]);
    let series = &res.link_changes_per_sec;
    for (s, &c) in series
        .iter()
        .enumerate()
        .step_by((series.len() / 12).max(1))
    {
        short.row([s.to_string(), c.to_string()]);
    }
    println!("{short}");
    let early: u64 = series.iter().take(5).sum();
    let late: u64 = series.iter().rev().take(5).sum();
    println!("  first 5 s: {early} changes; last 5 s: {late} changes\n");
    opts.write_csv("ext1", &t);
    vec![t]
}

/// §3 summary (2): mean overlay link latency vs number of random links.
pub fn ext2(opts: &ExpOptions) -> Vec<Table> {
    let mut t = Table::new([
        "C_rand",
        "mean overlay (ms)",
        "random links (ms)",
        "nearby links (ms)",
    ]);
    for c in 0..=4usize {
        let cfg = GoCastConfig::default().with_degrees(c, 6 - c);
        eprintln!("  adapting overlay with C_rand = {c} ...");
        let res = run_adaptation(opts, &cfg, &[], 0);
        let net = build_network(opts);
        let (all, rand, near) = overlay_latency_breakdown(&res.final_snapshot, &net);
        t.row([
            c.to_string(),
            fmt_ms(all),
            if c == 0 { "-".into() } else { fmt_ms(rand) },
            fmt_ms(near),
        ]);
    }
    println!(
        "§3(2) — overlay link latency vs random links (n = {}):\n{t}",
        opts.nodes
    );
    opts.write_csv("ext2", &t);
    vec![t]
}

/// §3 summary (3): overlay diameter vs system size.
pub fn ext3(opts: &ExpOptions, sizes: &[usize]) -> Vec<Table> {
    let mut t = Table::new(["nodes", "diameter (hops)", "mean degree"]);
    for &n in sizes {
        let o = opts.clone().with_nodes(n);
        eprintln!("  adapting overlay with n = {n} ...");
        let res = run_adaptation(&o, &GoCastConfig::default(), &[], 0);
        let adj = res.final_snapshot.overlay_adjacency();
        let alive = vec![true; n];
        t.row([
            n.to_string(),
            diameter(&adj, &alive).to_string(),
            format!("{:.2}", res.mean_degree),
        ]);
    }
    println!("§3(3) — overlay diameter vs size (paper: 6 -> 10 hops for 256 -> 8192):\n{t}");
    opts.write_csv("ext3", &t);
    vec![t]
}

/// The link-stress phases: warm up, drop the warm-up traffic from the
/// counters, then the standard workload and drain.
fn stress_phases<S: Stack<Event = GoCastEvent>>(
    mut run: PlainRun<S>,
    opts: &ExpOptions,
    warmup: Duration,
) -> PlainRun<S> {
    run.warm(warmup);
    run.sim.reset_stats();
    let start = run.inject_multicasts(opts, &run.live_sources());
    run.drive(horizon(opts, start, None));
    log_kernel(&run.sim.kernel_stats());
    run
}

/// §3 summary (4): bottleneck physical-link stress, GoCast vs gossip.
pub fn ext4(opts: &ExpOptions) -> Vec<Table> {
    let net_probe = build_network(opts);
    let sites = net_probe.site_count();
    // A transit-stub topology aligned with the latency clusters: this is
    // the shape where latency proximity and AS-path locality correlate, as
    // on the real Internet — exactly what GoCast's proximity-aware links
    // exploit and what random gossip is oblivious to.
    let regions = 6;
    let stubs_per_region = (sites / 250).clamp(2, 8);
    let topo = AsTopology::transit_stub(&net_probe, regions, stubs_per_region, opts.seed ^ 0xA5);
    let as_count = topo.as_count();

    let mut t = Table::new([
        "protocol",
        "bottleneck stress (KB)",
        "mean link stress (KB)",
        "links used",
        "total traffic (MB)",
    ]);
    let mut maxes = Vec::new();
    let classify = |l: (u32, u32)| {
        let t = |v: u32| (v as usize) < regions;
        match (t(l.0), t(l.1)) {
            (true, true) => "core",
            (true, false) | (false, true) => "regional uplink",
            _ => "stub-stub",
        }
    };

    // Pair tracking on, warm-up traffic excluded, sources over every id.
    let mut stress_row = |label: &str, name: String, pairs: &_| {
        let stress = LinkStress::from_pair_counts(&topo, &net_probe, pairs);
        maxes.push(stress.max());
        for (l, bytes) in stress.top_k(3) {
            eprintln!(
                "    {label} hot link {:?} ({}): {:.1} MB",
                l,
                classify(l),
                bytes as f64 / 1e6
            );
        }
        t.row([
            name,
            format!("{:.1}", stress.max() as f64 / 1e3),
            format!("{:.1}", stress.mean_over_used() / 1e3),
            stress.links_used().to_string(),
            format!("{:.2}", stress.total() as f64 / 1e6),
        ]);
    };
    for &payload in &[1024u32, 64] {
        eprintln!("  running GoCast stress (payload {payload} B) ...");
        let cfg = GoCastConfig::default().with_payload_size(payload);
        let run = stress_phases(gocast_run(opts, &cfg, true), opts, opts.warmup);
        let pairs = run
            .sim
            .stats()
            .pair_counts()
            .expect("pair tracking enabled");
        stress_row("GoCast", format!("GoCast ({payload} B)"), pairs);
    }
    for &payload in &[1024u32, 64] {
        eprintln!("  running gossip stress (payload {payload} B) ...");
        let gcfg = PushGossipConfig {
            payload_size: payload,
            ..Default::default()
        };
        let gossip = plain_run(opts, build_network(opts), true, |id| {
            PushGossipNode::new(id, gcfg.clone())
        });
        let run = stress_phases(gossip, opts, Duration::from_secs(2));
        let pairs = run
            .sim
            .stats()
            .pair_counts()
            .expect("pair tracking enabled");
        stress_row("gossip", format!("gossip F=5 ({payload} B)"), pairs);
    }

    println!(
        "§3(4) — physical link stress over {as_count} ASes (n = {}):\n{t}",
        opts.nodes
    );
    if maxes.len() == 4 && maxes[0] > 0 && maxes[1] > 0 {
        println!(
            "  bottleneck reduction: {:.1}x at 1 KB payloads, {:.1}x at 64 B (paper: 4-7x)\n",
            maxes[2] as f64 / maxes[0] as f64,
            maxes[3] as f64 / maxes[1] as f64
        );
    }
    opts.write_csv("ext4", &t);
    vec![t]
}

/// §3 summary (5): raising the gossip fanout barely improves delay.
pub fn ext5(opts: &ExpOptions) -> Vec<Table> {
    let mut t = delay_table();
    let mut means: Vec<(usize, Duration)> = Vec::new();
    for fanout in [5usize, 9, 15] {
        eprintln!("  running gossip with fanout {fanout} ...");
        let stats = run_delay(
            opts,
            Proto::PushGossip(PushGossipConfig::default().with_fanout(fanout)),
            0.0,
        );
        if !stats.per_node_avg.is_empty() {
            means.push((fanout, stats.per_node_avg.mean()));
        }
        t.row(delay_row(&stats));
    }
    println!("§3(5) — gossip delay vs fanout (n = {}):\n{t}", opts.nodes);
    if means.len() >= 2 {
        let base = means[0].1.as_secs_f64();
        for (f, m) in &means[1..] {
            println!(
                "  fanout {}: delay change {:+.1}% vs fanout 5 (paper: 9 -> ~-5%, 15 -> ~0%)",
                f,
                (m.as_secs_f64() - base) / base * 100.0
            );
        }
        println!();
    }
    opts.write_csv("ext5", &t);
    vec![t]
}

/// §2.1 claim: redundancy 1.02 without the pull delay, ~1.0005 with
/// `f` = 0.3 s.
pub fn txt1(opts: &ExpOptions) -> Vec<Table> {
    let mut t = Table::new(["pull delay f", "redundancy", "mean delay (s)", "pulls"]);
    for f_ms in [0u64, 300] {
        let cfg = GoCastConfig::default().with_pull_delay(Duration::from_millis(f_ms));
        eprintln!("  running GoCast with f = {f_ms} ms ...");
        let stats = run_delay(opts, Proto::GoCast(cfg), 0.0);
        t.row([
            format!("{} ms", f_ms),
            format!("{:.4}", stats.redundancy),
            if stats.per_node_avg.is_empty() {
                "-".into()
            } else {
                fmt_secs(stats.per_node_avg.mean())
            },
            stats.pulls.to_string(),
        ]);
    }
    println!("§2.1 (txt1) — redundant receptions vs pull delay (paper: 1.02 -> 1.0005):\n{t}");
    opts.write_csv("txt1", &t);
    vec![t]
}

/// §2.2 claim: the degree-balancing rules leave ~88%/12% of nodes at
/// `C_rand`/`C_rand`+1 and ~70%/30% at `C_near`/`C_near`+1.
pub fn txt2(opts: &ExpOptions) -> Vec<Table> {
    let cfg = GoCastConfig::default();
    let res = run_adaptation(opts, &cfg, &[], 0);
    let mut t = Table::new(["quantity", "at target", "at target+1", "paper"]);
    t.row([
        format!("random degree (C_rand = {})", cfg.c_rand),
        format!("{:.1}%", res.rand_hist.fraction(cfg.c_rand) * 100.0),
        format!("{:.1}%", res.rand_hist.fraction(cfg.c_rand + 1) * 100.0),
        "88% / 12%".to_string(),
    ]);
    t.row([
        format!("nearby degree (C_near = {})", cfg.c_near),
        format!("{:.1}%", res.near_hist.fraction(cfg.c_near) * 100.0),
        format!("{:.1}%", res.near_hist.fraction(cfg.c_near + 1) * 100.0),
        "70% / 30%".to_string(),
    ]);
    println!(
        "§2.2 (txt2) — degree split after adaptation (n = {}):\n{t}",
        opts.nodes
    );
    opts.write_csv("txt2", &t);
    vec![t]
}

/// §2.2 claim: without random links the overlay partitions even with no
/// failures — demonstrated on the paper's own thought experiment: two
/// well-separated continents ("500 nodes in America and 500 nodes in
/// Asia"). With `C_rand` = 1 the ~n/2 random links bridge the continents.
pub fn txt4(opts: &ExpOptions) -> Vec<Table> {
    let mut t = Table::new([
        "C_rand",
        "components",
        "largest component q",
        "cross-continent links",
    ]);
    for c_rand in [0usize, 1] {
        let cfg = GoCastConfig::default().with_degrees(c_rand, 6 - c_rand);
        eprintln!("  adapting two-continent overlay with C_rand = {c_rand} ...");
        let net = gocast_net::two_continents(opts.nodes, opts.seed ^ 0x2C);
        let mut run = plain_run(opts, net, false, gocast_nodes(opts, &cfg));
        run.warm(opts.warmup);
        let sim = &run.sim;
        log_kernel(&sim.kernel_stats());
        let snap = gocast::snapshot(sim);
        let adj = snap.overlay_adjacency();
        let alive = vec![true; opts.nodes];
        let comps = gocast_analysis::component_sizes(&adj, &alive);
        let q = gocast_analysis::largest_component_fraction(&adj, &alive);
        let half = (opts.nodes / 2) as u32;
        let crossings = snap
            .overlay_edges
            .iter()
            .filter(|&&(a, b, _)| (a < half) != (b < half))
            .count();
        t.row([
            c_rand.to_string(),
            comps.len().to_string(),
            format!("{q:.4}"),
            crossings.to_string(),
        ]);
    }
    println!(
        "§2.2 (txt4) — two-continent partition test (n = {}; paper: C_rand=0 partitions, C_rand=1 connects):\n{t}",
        opts.nodes
    );
    opts.write_csv("txt4", &t);
    vec![t]
}

/// Ablations of the design choices DESIGN.md calls out: C4 on/off,
/// aggressive drop threshold, and the C1 lower bound.
pub fn ablations(opts: &ExpOptions) -> Vec<Table> {
    let variants: [(&str, GoCastConfig); 4] = [
        ("paper defaults", GoCastConfig::default()),
        (
            "aggressive drop (C_near+1)",
            GoCastConfig {
                aggressive_drop: true,
                ..Default::default()
            },
        ),
        (
            "C4 disabled",
            GoCastConfig {
                c4_enabled: false,
                ..Default::default()
            },
        ),
        (
            "C1 bound = C_near",
            GoCastConfig {
                c1_offset: 0,
                ..Default::default()
            },
        ),
    ];
    let mut t = Table::new([
        "variant",
        "total link changes",
        "late changes/s",
        "mean overlay (ms)",
        "mean tree (ms)",
    ]);
    let mut baseline_changes = None;
    for (name, cfg) in variants {
        eprintln!("  adapting with {name} ...");
        let res = run_adaptation(opts, &cfg, &[], 0);
        let total: u64 = res.link_changes_per_sec.iter().sum();
        let late: u64 = res.link_changes_per_sec.iter().rev().take(10).sum();
        let net = build_network(opts);
        let overlay = res.final_snapshot.mean_overlay_latency(&net);
        let tree = res.final_snapshot.mean_tree_latency(&net);
        if baseline_changes.is_none() {
            baseline_changes = Some(total);
        }
        t.row([
            name.to_string(),
            total.to_string(),
            format!("{:.1}", late as f64 / 10.0),
            fmt_ms(overlay),
            fmt_ms(tree),
        ]);
    }
    println!(
        "Ablations — overlay maintenance design choices (n = {}):\n{t}",
        opts.nodes
    );
    opts.write_csv("ablations", &t);
    vec![t]
}

/// Future-work evaluation: the paper defers "dynamic tuning of r" (and
/// suggests tuning the gossip period to the message rate). This experiment
/// measures how much idle-period overhead the adaptive periods save and
/// verifies dissemination quality is unchanged.
pub fn adaptive(opts: &ExpOptions) -> Vec<Table> {
    let mut t = Table::new([
        "variant",
        "idle msgs/node/s",
        "idle probe msgs",
        "idle gossip msgs",
        "mean delay (s)",
        "complete",
    ]);
    for adaptive in [false, true] {
        let cfg = GoCastConfig {
            adaptive_gossip: adaptive,
            adaptive_maintenance: adaptive,
            ..Default::default()
        };
        eprintln!("  running adaptive = {adaptive} ...");
        let mut run = gocast_run(opts, &cfg, false);
        run.warm(opts.warmup);
        // Quiet period.
        run.sim.reset_stats();
        let quiet = Duration::from_secs(60.min(opts.warmup.as_secs().max(10)));
        run.drive(run.sim.now() + quiet);
        let stats = run.sim.stats();
        let idle_total = stats.total().messages;
        let idle_probe = stats.class(gocast_sim::TrafficClass::Probe).messages;
        let idle_gossip = stats.class(gocast_sim::TrafficClass::Gossip).messages;
        // Message phase.
        let start = run.inject_multicasts(opts, &run.live_sources());
        run.drive(horizon(opts, start, None));
        log_kernel(&run.sim.kernel_stats());
        let (avg, incomplete, live) = run.delays(opts);
        t.row([
            if adaptive {
                "adaptive t and r"
            } else {
                "fixed t and r"
            }
            .to_string(),
            format!(
                "{:.1}",
                idle_total as f64 / opts.nodes as f64 / quiet.as_secs_f64()
            ),
            idle_probe.to_string(),
            idle_gossip.to_string(),
            if avg.is_empty() {
                "-".into()
            } else {
                fmt_secs(avg.mean())
            },
            format!("{:.4}", (live - incomplete) as f64 / live as f64),
        ]);
    }
    println!(
        "Future work — adaptive gossip/maintenance periods (n = {}):\n{t}",
        opts.nodes
    );
    opts.write_csv("adaptive", &t);
    vec![t]
}

/// `trace` subcommand: a Figure 3-style GoCast dissemination run with the
/// causal JSONL trace enabled, then offline analysis of the trace it just
/// wrote — per-message dissemination-tree reconstruction, hop-count and
/// per-hop latency breakdowns, the tree-vs-pull recovery fraction, and the
/// protocol invariant oracle. Returns the violations found so the CLI can
/// exit nonzero on a broken invariant.
///
/// With `fail_frac = 0` this is the paper's no-failure run (recovery
/// fraction near zero); with `fail_frac = 0.2` it measures how much of
/// Figure 3(b)'s coverage the gossip/pull path supplies.
pub fn trace_run(opts: &ExpOptions, fail_frac: f64) -> Vec<gocast_analysis::Violation> {
    use gocast_analysis::trace::{scan_trace, InvariantOracle, TraceAnalysis};

    let mut opts = opts.clone();
    if opts.trace_out.is_none() {
        let dir = opts
            .out_dir
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("."));
        opts.trace_out = Some(dir.join("trace.jsonl"));
    }
    let trace_path = opts.trace_out.clone().expect("set above");
    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }

    let cfg = GoCastConfig::default();
    eprintln!(
        "traced GoCast run: {} nodes, {} messages, {:.0}% failures ...",
        opts.nodes,
        opts.messages,
        fail_frac * 100.0
    );
    run_delay(&opts, Proto::GoCast(cfg.clone()), fail_frac);

    let file = std::fs::File::open(&trace_path)
        .unwrap_or_else(|e| panic!("cannot reopen trace {}: {e}", trace_path.display()));
    let mut analysis = TraceAnalysis::new();
    let mut oracle = InvariantOracle::for_protocol(&cfg);
    let records = scan_trace(std::io::BufReader::new(file), |r| {
        oracle.check(&r);
        analysis.feed(&r);
    })
    .unwrap_or_else(|e| panic!("trace {} is malformed: {e}", trace_path.display()));
    oracle.finish();
    let report = analysis.report();

    println!(
        "trace {}: {records} records, {} messages",
        trace_path.display(),
        report.messages
    );
    println!(
        "deliveries: {} ({} tree, {} pull) — recovery fraction {:.4}",
        report.deliveries,
        report.tree_deliveries,
        report.pull_deliveries,
        report.recovery_fraction()
    );
    println!(
        "dissemination trees reconstructed: {}/{} (mean hops {:.2}, max hop {})",
        report.trees_reconstructed,
        report.messages,
        report.mean_hops(),
        report.max_hop()
    );

    let mut hops = Table::new(["hop", "deliveries", "mean_hop_latency_ms"]);
    for (hop, &n) in report.hop_histogram.iter().enumerate().skip(1) {
        let lat = report
            .per_hop_latency
            .iter()
            .find(|p| p.hop == hop as u32)
            .map(|p| format!("{:.2}", p.mean_ms))
            .unwrap_or_else(|| "-".into());
        hops.row([hop.to_string(), n.to_string(), lat]);
    }
    println!("{hops}");
    opts.write_csv("trace_hops", &hops);

    if oracle.is_clean() {
        println!(
            "invariant oracle: {} records checked, 0 violations",
            oracle.records_checked()
        );
    } else {
        println!(
            "invariant oracle: {} VIOLATIONS in {} records:",
            oracle.violations().len(),
            oracle.records_checked()
        );
        for v in oracle.violations().iter().take(20) {
            println!("  {v}");
        }
    }
    oracle.violations().to_vec()
}
