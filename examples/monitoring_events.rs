//! System-monitoring event dissemination — the paper's motivating
//! workload ("disseminating system monitoring events to facilitate the
//! management of distributed systems").
//!
//! A monitoring fabric of 256 agents streams alert events continuously.
//! Mid-run, a rack failure takes out 15% of the agents at once. The fabric
//! must keep delivering events to every surviving agent with bounded
//! staleness, without any operator intervention: first via gossip recovery
//! over the unbroken overlay, then — once the maintenance protocols repair
//! the overlay and the tree — at full speed again.
//!
//! The run doubles as a tour of the observability stack: the windowed
//! `FnRecorder` aggregate is composed (via the tuple recorder) with a
//! JSONL `TraceRecorder` streaming every causal event to disk, an online
//! `InvariantOracle` checking protocol invariants as they happen, and a
//! `DeliveryTracker` whose run totals are printed next to the kernel
//! counters at the end.
//!
//! Run with: `cargo run --release -p gocast-examples --bin monitoring_events`

use std::time::Duration;

use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode, MsgId};
use gocast_analysis::{DeliveryTracker, InvariantOracle};
use gocast_net::{synthetic_king, SyntheticKingConfig};
use gocast_sim::{FnRecorder, NodeId, SimBuilder, SimTime, TraceRecorder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Aggregates delivery delay percentiles per reporting window.
#[derive(Default)]
struct Window {
    delays_ms: Vec<f64>,
    delivered: u64,
}

fn main() {
    let n = 256;
    let event_rate = 20.0; // monitoring events per second
    println!("monitoring fabric: {n} agents, {event_rate} events/s, rack failure at t=120s\n");

    let net = synthetic_king(
        n,
        &SyntheticKingConfig {
            sites: n,
            ..Default::default()
        },
    );

    // Shared window state updated by a streaming recorder.
    use std::cell::RefCell;
    use std::rc::Rc;
    let window: Rc<RefCell<Window>> = Rc::default();
    let inject_times: Rc<RefCell<std::collections::HashMap<MsgId, SimTime>>> = Rc::default();

    let w = Rc::clone(&window);
    let inj = Rc::clone(&inject_times);
    let recorder = FnRecorder(move |now: SimTime, _node, ev: GoCastEvent| match ev {
        GoCastEvent::Injected { id } => {
            inj.borrow_mut().insert(id, now);
        }
        GoCastEvent::Delivered { id, .. } => {
            if let Some(&t0) = inj.borrow().get(&id) {
                let mut w = w.borrow_mut();
                w.delays_ms
                    .push(now.saturating_since(t0).as_secs_f64() * 1e3);
                w.delivered += 1;
            }
        }
        _ => {}
    });

    // Compose the windowed aggregate and the delivery ledger with a causal
    // trace sink and the online invariant oracle — the tuple recorder fans
    // every event out.
    let trace_path = std::env::temp_dir().join("monitoring_events_trace.jsonl");
    let trace = TraceRecorder::create(&trace_path).expect("trace file");
    let oracle = InvariantOracle::for_protocol(&GoCastConfig::default());

    let mut boot = gocast::bootstrap_random_graph(n, 3, 11);
    let mut sim = SimBuilder::new(net).seed(11).build_with(
        ((recorder, DeliveryTracker::new()), (trace, oracle)),
        |id| {
            let (links, members) = boot(id);
            GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
        },
    );

    // Warm up the overlay before the stream starts.
    sim.run_until(SimTime::from_secs(60));

    // Schedule the rack failure: 15% of agents, one "rack" = a contiguous
    // id range (they share sites, so this is a correlated failure).
    let mut rng = SmallRng::seed_from_u64(99);
    let failed: Vec<NodeId> = (0..(n as u32 * 15 / 100))
        .map(|i| NodeId::new(40 + i))
        .collect();
    for &id in &failed {
        sim.fail_node_at(SimTime::from_secs(120), id);
    }

    // Stream events for 180 s from random live sources.
    let mut next_event = SimTime::from_secs(60);
    let mut report_at = SimTime::from_secs(80);
    println!(
        "{:>8}  {:>9}  {:>10}  {:>10}  {:>10}",
        "t(s)", "delivered", "p50(ms)", "p99(ms)", "max(ms)"
    );
    while sim.now() < SimTime::from_secs(240) {
        // Inject the next event.
        let src = loop {
            let c = NodeId::new(rng.gen_range(0..n as u32));
            if sim.is_alive(c) {
                break c;
            }
        };
        sim.schedule_command(next_event, src, GoCastCommand::Multicast);
        next_event += Duration::from_secs_f64(1.0 / event_rate);
        sim.run_until(next_event);

        // Periodic report.
        if sim.now() >= report_at {
            let mut w = window.borrow_mut();
            if !w.delays_ms.is_empty() {
                w.delays_ms.sort_by(f64::total_cmp);
                let pct = |w: &Window, p: f64| {
                    w.delays_ms
                        [((w.delays_ms.len() as f64 * p) as usize).min(w.delays_ms.len() - 1)]
                };
                println!(
                    "{:>8.0}  {:>9}  {:>10.1}  {:>10.1}  {:>10.1}",
                    sim.now().as_secs_f64(),
                    w.delivered,
                    pct(&w, 0.5),
                    pct(&w, 0.99),
                    w.delays_ms.last().copied().unwrap_or(0.0),
                );
            }
            *w = Window::default();
            report_at += Duration::from_secs(20);
        }
    }

    // Drain and verify nobody alive missed anything injected after the
    // failure settled.
    sim.run_for(Duration::from_secs(30));
    let live = sim.alive_nodes().count();
    println!(
        "\nrack failure killed {} agents; {live} survivors kept receiving events",
        failed.len()
    );
    let detached = sim
        .alive_nodes()
        .filter(|&id| !sim.node(id).is_root() && sim.node(id).tree_parent().is_none())
        .count();
    println!("tree repaired: {} live agents currently detached", detached);

    // The observability stack's view of the same run.
    let ledger = &sim.recorder().0 .1;
    println!(
        "\ndelivery ledger: {} injected, {} delivered ({:.1}% via tree, {} pulled), \
         {} pushes, {} ihaves, {}/{} pulls (requested/served), {} redundant",
        ledger.injected(),
        ledger.delivered(),
        ledger.tree_fraction() * 100.0,
        ledger.pull_deliveries(),
        ledger.pushes(),
        ledger.ihaves(),
        ledger.pulls(),
        ledger.pulls_served(),
        ledger.redundant(),
    );
    println!("kernel: {}", sim.kernel_stats());
    let rec = sim.recorder_mut();
    rec.1 .1.finish();
    let (trace, oracle) = (&rec.1 .0, &rec.1 .1);
    println!(
        "causal trace: {} events streamed to {}",
        trace.lines(),
        trace_path.display()
    );
    if oracle.is_clean() {
        println!(
            "invariant oracle: clean over {} records",
            oracle.records_checked()
        );
    } else {
        println!("invariant oracle: {} VIOLATIONS", oracle.violations().len());
        for v in oracle.violations().iter().take(10) {
            println!("  {v}");
        }
    }
}
