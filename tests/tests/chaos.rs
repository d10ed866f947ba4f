//! Chaos testing: continuous multicast traffic under randomized node
//! crashes, link cuts, graceful leaves, and link heals — asserting the
//! paper's core dependability property (stable delivery to the surviving,
//! connected membership) rather than any fixed failure script.

use std::collections::HashSet;
use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, MsgId};
use gocast_sim::{NetFault, NodeId, SimTime};
use gocast_tests::warmed_gocast;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn continuous_traffic_survives_randomized_chaos() {
    let n = 96;
    // Long GC so `has_message` can audit the whole run at the end (the
    // default b = 2 min would reclaim early messages before the check).
    let cfg = GoCastConfig {
        gc_wait: Duration::from_secs(3600),
        ..Default::default()
    };
    let mut sim = warmed_gocast(n, 1717, cfg, 40);
    let mut rng = SmallRng::seed_from_u64(4242);

    let mut crashed: HashSet<NodeId> = HashSet::new();
    let mut left: HashSet<NodeId> = HashSet::new();
    let mut cut_links: Vec<(NodeId, NodeId)> = Vec::new();
    let mut injected: Vec<(MsgId, SimTime)> = Vec::new();
    let mut seq_per_node = vec![0u32; n];

    // 120 seconds of chaos: every 500 ms, one random action.
    for step in 0..240 {
        let now = sim.now();
        match rng.gen_range(0..10) {
            // 60%: multicast from a random healthy node.
            0..=5 => {
                let candidates: Vec<NodeId> =
                    sim.alive_nodes().filter(|id| !left.contains(id)).collect();
                let src = candidates[rng.gen_range(0..candidates.len())];
                sim.command_now(src, GoCastCommand::Multicast);
                injected.push((MsgId::new(src, seq_per_node[src.index()]), now));
                seq_per_node[src.index()] += 1;
            }
            // 10%: crash a node (keep at most 15% down).
            6 => {
                if crashed.len() < n * 15 / 100 {
                    let candidates: Vec<NodeId> =
                        sim.alive_nodes().filter(|id| !left.contains(id)).collect();
                    let victim = candidates[rng.gen_range(0..candidates.len())];
                    sim.fail_node(victim);
                    crashed.insert(victim);
                }
            }
            // 10%: cut a random live link.
            7 => {
                let a = NodeId::new(rng.gen_range(0..n as u32));
                if sim.is_alive(a) {
                    let first = sim.node(a).overlay_links().next().map(|(b, _, _)| b);
                    if let Some(b) = first {
                        sim.apply_fault(NetFault::CutLink(a, b));
                        cut_links.push((a, b));
                    }
                }
            }
            // 10%: heal the oldest cut link.
            8 => {
                if !cut_links.is_empty() {
                    let (a, b) = cut_links.remove(0);
                    sim.apply_fault(NetFault::HealLink(a, b));
                }
            }
            // 10%: graceful leave (keep at most 10% gone this way).
            _ => {
                if left.len() < n / 10 {
                    let candidates: Vec<NodeId> = sim
                        .alive_nodes()
                        .filter(|id| !left.contains(id) && !crashed.contains(id))
                        .collect();
                    let victim = candidates[rng.gen_range(0..candidates.len())];
                    sim.command_now(victim, GoCastCommand::Leave);
                    left.insert(victim);
                }
            }
        }
        sim.run_for(Duration::from_millis(500));
        let _ = step;
    }

    // Quiesce: heal everything, stop injecting, allow repairs and pulls to
    // finish.
    for (a, b) in cut_links.drain(..) {
        sim.apply_fault(NetFault::HealLink(a, b));
    }
    sim.run_for(Duration::from_secs(120));

    // Survivors: alive, never left.
    let survivors: Vec<NodeId> = sim.alive_nodes().filter(|id| !left.contains(id)).collect();
    assert!(survivors.len() >= n - n * 15 / 100 - n / 10 - 1);

    // Every survivor must hold every message that was injected at least
    // 30 s before the end of chaos (the tail may still be propagating when
    // sources die, so allow the final few to be partial).
    let cutoff = SimTime::from_nanos(
        sim.now()
            .as_nanos()
            .saturating_sub(Duration::from_secs(150).as_nanos() as u64),
    );
    let mut checked = 0u64;
    let mut missing = 0u64;
    for &(id, at) in &injected {
        if at > cutoff {
            continue;
        }
        for &node in &survivors {
            checked += 1;
            if node != id.origin && !sim.node(node).has_message(id) {
                missing += 1;
            }
        }
    }
    assert!(
        checked > 1000,
        "chaos produced too little traffic: {checked}"
    );
    let loss = missing as f64 / checked as f64;
    assert!(
        loss < 0.005,
        "{missing}/{checked} (node, message) pairs missing ({loss:.4})"
    );

    // The overlay healed: survivors are connected again.
    let snap = gocast::snapshot(&sim);
    let adj = snap.overlay_adjacency();
    let mut alive_mask = vec![false; n];
    for &s in &survivors {
        alive_mask[s.index()] = true;
    }
    let q = gocast_analysis::largest_component_fraction(&adj, &alive_mask);
    assert!(q > 0.99, "survivors should reconnect, q = {q}");
}

#[test]
fn repeated_chaos_seeds_are_deterministic() {
    // The chaos schedule is driven by seeds only; two runs agree exactly.
    let run = |seed: u64| {
        let mut sim = warmed_gocast(48, seed, GoCastConfig::default(), 20);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..40 {
            if rng.gen_bool(0.3) {
                let victims: Vec<NodeId> = sim.alive_nodes().collect();
                let v = victims[rng.gen_range(0..victims.len())];
                if sim.alive_nodes().count() > 40 {
                    sim.fail_node(v);
                }
            } else {
                let live: Vec<NodeId> = sim.alive_nodes().collect();
                let src = live[rng.gen_range(0..live.len())];
                sim.command_now(src, GoCastCommand::Multicast);
            }
            sim.run_for(Duration::from_millis(300));
        }
        sim.run_for(Duration::from_secs(10));
        let rec = sim.recorder().delivery();
        (rec.delivered(), rec.pulls(), rec.redundant())
    };
    assert_eq!(run(31), run(31));
}

/// The invariant oracle must flag corrupted traces: a delivery that
/// precedes the origin's injection and a duplicate delivery spliced into
/// an otherwise valid synthetic JSONL trace.
#[test]
fn oracle_flags_injected_trace_violations() {
    use gocast_analysis::{InvariantOracle, ViolationKind};

    let trace = "\
{\"t_us\":500,\"node\":3,\"ev\":\"delivered\",\"origin\":0,\"seq\":1,\"from\":0,\"hop\":1,\"via\":\"tree\"}\n\
{\"t_us\":1000,\"node\":0,\"ev\":\"injected\",\"origin\":0,\"seq\":1}\n\
{\"t_us\":1200,\"node\":1,\"ev\":\"delivered\",\"origin\":0,\"seq\":1,\"from\":0,\"hop\":1,\"via\":\"tree\"}\n\
{\"t_us\":1300,\"node\":2,\"ev\":\"delivered\",\"origin\":0,\"seq\":1,\"from\":1,\"hop\":2,\"via\":\"tree\"}\n\
{\"t_us\":1400,\"node\":1,\"ev\":\"delivered\",\"origin\":0,\"seq\":1,\"from\":2,\"hop\":3,\"via\":\"pull\"}\n\
{\"t_us\":1500,\"node\":2,\"ev\":\"pull_requested\",\"origin\":0,\"seq\":1,\"to\":1}\n";

    let mut oracle = InvariantOracle::default();
    let records =
        gocast_sim::replay(trace.as_bytes(), 4, SimTime::from_millis(2), &mut oracle).unwrap();
    oracle.finish();
    assert_eq!(records, 6);
    let kinds: Vec<ViolationKind> = oracle.violations().iter().map(|v| v.kind).collect();
    assert_eq!(
        kinds,
        vec![
            ViolationKind::DeliveryBeforeSend, // node 3 delivered at 500 < inject 1000
            ViolationKind::DuplicateDelivery,  // node 1 delivered twice
            ViolationKind::PullAfterDelivery,  // node 2 pulled after delivering
        ],
        "violations: {:#?}",
        oracle.violations()
    );
}

/// Property: clean 64-node runs — warmup, churnless dissemination, drain —
/// satisfy every protocol invariant, across seeds, with the oracle riding
/// the simulation online as a recorder.
#[test]
fn clean_runs_produce_zero_violations() {
    use gocast_analysis::InvariantOracle;
    use gocast_net::{synthetic_king, SyntheticKingConfig};
    use gocast_sim::SimBuilder;

    for seed in [7u64, 21, 1024] {
        let n = 64;
        let cfg = GoCastConfig::default();
        let net = synthetic_king(
            n,
            &SyntheticKingConfig {
                sites: n,
                seed: seed ^ 0xABCD,
            },
        );
        let mut boot = gocast::bootstrap_random_graph(n, cfg.c_degree() / 2, seed);
        let oracle = InvariantOracle::for_protocol(&cfg);
        let mut sim = SimBuilder::new(net).seed(seed).build_with(oracle, |id| {
            let (links, members) = boot(id);
            gocast::GoCastNode::with_initial_links(id, cfg.clone(), links, members)
        });
        sim.run_for(Duration::from_secs(40));
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let live: Vec<NodeId> = sim.alive_nodes().collect();
            let src = live[rng.gen_range(0..live.len())];
            sim.command_now(src, GoCastCommand::Multicast);
            sim.run_for(Duration::from_millis(200));
        }
        sim.run_for(Duration::from_secs(30));
        let oracle = sim.recorder_mut();
        oracle.finish();
        assert!(
            oracle.records_checked() > 5_000,
            "seed {seed}: run too quiet ({})",
            oracle.records_checked()
        );
        assert!(oracle.is_clean(), "seed {seed}: {:#?}", oracle.violations());
    }
}

/// Regression guard: chaos must not starve the recorder of events.
#[test]
fn chaos_emits_link_and_delivery_events() {
    let mut sim = warmed_gocast(48, 99, GoCastConfig::default(), 20);
    sim.fail_node(NodeId::new(5));
    sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
    sim.run_for(Duration::from_secs(30));
    let rec = sim.recorder();
    assert!(rec.delivery().delivered() >= 46);
    let _ = rec.link_changes_per_sec().iter().sum::<u64>();
    let _: &Vec<(GoCastEvent, ())> = &Vec::new(); // type anchor, no-op
}
