//! Regression suite for the scenario-driven chaos engine: Poisson churn
//! across seeds with replay determinism, partition-then-heal recovery,
//! and graceful-leave → rejoin reattachment.

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig};
use gocast_experiments::chaos::{chaos_sweep, run_chaos};
use gocast_experiments::ExpOptions;
use gocast_sim::{NodeId, Scenario, ScenarioEnv, SimTime, Split};
use gocast_tests::warmed_gocast;

fn chaos_opts(seed: u64) -> ExpOptions {
    let mut o = ExpOptions::quick().with_seed(seed);
    o.nodes = 64;
    o.sites = 64;
    o.warmup = Duration::from_secs(25);
    o.messages = 30;
    o.rate = 2.0;
    o.drain = Duration::from_secs(30);
    o.out_dir = None;
    o
}

/// The headline chaos regression: 64 nodes under Poisson churn, five
/// seeds. Every run must keep the invariant oracle clean and deliver to
/// (nearly) every node that stayed; replaying the same options — serial
/// or fanned over worker threads — must reproduce every metric
/// byte-for-byte.
#[test]
fn poisson_churn_is_clean_and_replays_byte_identically() {
    let opts = chaos_opts(500);
    let scenario = Scenario::new().churn(Duration::ZERO, Duration::from_secs(30), 0.3, 0.3);

    let first = chaos_sweep(&opts, &scenario, 5);
    assert_eq!(first.len(), 5);
    let mut saw_faults = 0usize;
    for o in &first {
        assert_eq!(
            o.violations, 0,
            "seed {}: oracle violations under churn",
            o.seed
        );
        assert!(o.oracle_records > 10_000, "seed {}: run too quiet", o.seed);
        assert_eq!(o.injected, 30);
        assert!(
            o.delivery_ratio() > 0.97,
            "seed {}: delivery ratio {} too low",
            o.seed,
            o.delivery_ratio()
        );
        saw_faults += o.plan_len;
    }
    assert!(saw_faults > 10, "churn produced almost no faults");

    // Replay: identical options, identical summaries — byte for byte.
    let replay = chaos_sweep(&opts, &scenario, 5);
    for (a, b) in first.iter().zip(&replay) {
        assert_eq!(a.summary_string(), b.summary_string());
    }

    // And the job count must not leak into any number.
    let fanned = chaos_sweep(&opts.clone().with_jobs(4), &scenario, 5);
    for (a, b) in first.iter().zip(&fanned) {
        assert_eq!(
            a.summary_string(),
            b.summary_string(),
            "--jobs changed a chaos metric"
        );
    }
}

/// Partition-then-heal: cross-partition traffic is dropped while the
/// split holds, each side keeps delivering to itself, and after the heal
/// the overlay reconnects into one component and *new* traffic reaches
/// everyone again.
///
/// Note what is deliberately **not** asserted: retroactive backfill.
/// GoCast's gossip digests are incremental (each neighbor is only told
/// about receptions newer than the last digest sent to it), so messages
/// injected while the split is up are not re-advertised across it after
/// the heal. Recovery means the *post-heal* delivery ratio returns to 1,
/// which is exactly what the sliding-window metric measures.
#[test]
fn partition_heals_and_delivery_recovers() {
    let n = 64usize;
    let cfg = GoCastConfig {
        // Keep stores for the end-of-run audit.
        gc_wait: Duration::from_secs(3600),
        ..Default::default()
    };
    let mut sim = warmed_gocast(n, 901, cfg, 25);
    let start = sim.now();

    let p_form = Duration::from_secs(5);
    let p_heal = Duration::from_secs(20);
    let scenario = Scenario::new().partition_at(p_form, p_heal, Split::Halves);
    let plan = scenario.compile(&ScenarioEnv::new(n, 901).starting_at(start));
    plan.schedule_into(
        &mut sim,
        |contact| GoCastCommand::Join { contact },
        || GoCastCommand::Leave,
    );

    // 30 messages over 30 s, alternating sides, so the sequence spans
    // before / during / after the partition.
    let mut expected = Vec::new();
    let mut seq = vec![0u32; n];
    for i in 0..30u64 {
        let src = if i % 2 == 0 { 0u32 } else { n as u32 - 1 };
        let offset = Duration::from_secs(1 + i);
        let at = start + offset;
        sim.schedule_command(at, NodeId::new(src), GoCastCommand::Multicast);
        expected.push((
            gocast::MsgId::new(NodeId::new(src), seq[src as usize]),
            offset,
        ));
        seq[src as usize] += 1;
    }

    // Mid-partition: the split is installed and actually dropping traffic.
    sim.run_until(start + Duration::from_secs(12));
    assert!(sim.faults().partition().is_some());
    sim.run_until(start + Duration::from_secs(21));
    assert!(
        sim.faults().partition().is_none(),
        "heal was scheduled at +20 s"
    );
    assert!(
        sim.kernel_stats().fates.partitioned > 0,
        "a halves split must drop cross-side messages"
    );

    // Drain: give failure detection, overlay repair, and the last
    // injections (at +30 s) time to complete.
    sim.run_until(start + Duration::from_secs(90));

    // The overlay reconnected into one component.
    let snap = gocast::snapshot(&sim);
    let q = gocast_analysis::largest_component_fraction(&snap.overlay_adjacency(), &vec![true; n]);
    assert!(q > 0.999, "overlay should reconnect after heal, q = {q}");

    // Delivery audit, classified by injection time. `Halves` puts ids
    // 0..n/2 on side 0; in-flight slack of 2 s around the form instant is
    // classified as "during" (only the same-side guarantee applies).
    let side = |id: NodeId| u32::from(id.index() >= n / 2);
    let mut hard_missing = Vec::new();
    for &(id, offset) in &expected {
        let during = offset + Duration::from_secs(2) > p_form && offset <= p_heal;
        for i in 0..n as u32 {
            let node = NodeId::new(i);
            if node == id.origin || sim.node(node).has_message(id) {
                continue;
            }
            if during && side(node) != side(id.origin) {
                continue; // cross-side loss while split: allowed.
            }
            hard_missing.push((id, offset, node));
        }
    }
    assert!(
        hard_missing.is_empty(),
        "guaranteed deliveries missing after heal: {hard_missing:?}"
    );
}

/// The end-to-end partition preset through the experiment runner: the
/// oracle stays clean, both burst instants (form, heal) get repair
/// measurements, and the sliding-window delivery ratio shows the
/// signature dip-and-recover — ~1 before the split, degraded while it
/// holds, back above 0.99 for every window injected after the heal.
#[test]
fn partition_scenario_through_runner_recovers() {
    let mut opts = chaos_opts(700);
    opts.messages = 60;
    opts.drain = Duration::from_secs(40);
    let heal_offset = Duration::from_secs(15);
    let scenario = Scenario::new().partition_at(Duration::from_secs(5), heal_offset, Split::Halves);
    let o = run_chaos(&opts, &scenario);
    assert_eq!(o.violations, 0, "oracle violations across a partition");
    assert_eq!(o.repairs.len(), 2, "form + heal bursts");
    assert!(
        o.kernel.fates.partitioned > 0,
        "partition was scheduled but dropped nothing"
    );

    // Windowed delivery: full before the split, a real dip while it
    // holds, and full again for everything injected after the heal.
    let heal_at = (opts.warmup + heal_offset).as_secs_f64();
    let first = o.windows.first().expect("at least one window");
    assert!(
        first.ratio() >= 0.99,
        "pre-partition window already degraded: {:.4}",
        first.ratio()
    );
    let dip = o
        .windows
        .iter()
        .map(|w| w.ratio())
        .fold(f64::INFINITY, f64::min);
    assert!(
        dip < 0.9,
        "expected a delivery dip during the split, min window ratio {dip:.4}"
    );
    for w in o
        .windows
        .iter()
        .filter(|w| w.start.as_secs_f64() >= heal_at)
    {
        assert!(
            w.ratio() >= 0.99,
            "post-heal window at {:.0} s did not recover: {:.4}",
            w.start.as_secs_f64(),
            w.ratio()
        );
    }
    assert!(
        o.delivery_ratio() > 0.75,
        "overall ratio {} implausibly low even counting the split",
        o.delivery_ratio()
    );
}

/// Graceful leave followed by a scenario-driven rejoin: the returning
/// node must unfreeze, reattach to the tree, and receive new multicasts
/// (regression test for rejoin leaving maintenance frozen and stale tree
/// state behind).
#[test]
fn leaver_rejoins_unfrozen_and_reattaches() {
    let n = 32usize;
    let mut sim = warmed_gocast(n, 311, GoCastConfig::default(), 20);
    let start = sim.now();
    let node = NodeId::new(5);

    sim.schedule_command(start + Duration::from_secs(1), node, GoCastCommand::Leave);
    sim.run_until(start + Duration::from_secs(8));
    assert!(!sim.node(node).is_joined(), "leave should take effect");
    assert!(sim.node(node).is_frozen(), "leave freezes maintenance");

    sim.command_now(
        node,
        GoCastCommand::Join {
            contact: NodeId::new(0),
        },
    );
    sim.run_for(Duration::from_secs(40));
    let returned = sim.node(node);
    assert!(returned.is_joined(), "rejoin must complete");
    assert!(!returned.is_frozen(), "rejoin must unfreeze maintenance");
    assert!(
        returned.is_root() || returned.tree_parent().is_some(),
        "rejoined node must reattach to the tree"
    );
    assert!(
        !returned.is_root(),
        "a rejoiner must not hijack the root role (stale heartbeat clock)"
    );

    // New traffic reaches the returnee (nothing was injected before, so
    // this is the origin's sequence number 0).
    let origin = NodeId::new(1);
    sim.command_now(origin, GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(10));
    assert!(
        sim.node(node).has_message(gocast::MsgId::new(origin, 0)),
        "rejoined node missed a post-rejoin multicast"
    );
}

/// `SimTime` plumbing: scenario offsets compiled against a warmed
/// simulation land in the future, so `schedule_into` never trips the
/// past-timestamp guard.
#[test]
fn plans_always_schedule_into_the_future() {
    let mut sim = warmed_gocast(16, 17, GoCastConfig::default(), 10);
    let plan = Scenario::new()
        .crash_at(Duration::ZERO, NodeId::new(3))
        .compile(&ScenarioEnv::new(16, 17).starting_at(sim.now()));
    // `at == now` is valid (events at the current instant still run).
    plan.schedule_into(
        &mut sim,
        |contact| GoCastCommand::Join { contact },
        || GoCastCommand::Leave,
    );
    sim.run_for(Duration::from_secs(1));
    assert!(!sim.is_alive(NodeId::new(3)));
    assert_eq!(sim.kernel_stats().control_events, 1);
    assert!(sim.now() > SimTime::ZERO);
}
