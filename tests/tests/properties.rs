//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use std::collections::HashSet;
use std::time::Duration;

use gocast::{DegreeInfo, GoCastEvent, GoCastMsg, LinkKind, MsgId, ProbeKind, HEADER_BYTES};
use gocast_analysis::{component_sizes, largest_component_fraction, Cdf, Histogram};
use gocast_membership::MemberView;
use gocast_net::{synthetic_king, LandmarkVector, SyntheticKingConfig, MAX_LANDMARKS};
use gocast_sim::Wire as _;
use gocast_sim::{EventQueue, LatencyModel, NodeId, SimTime};
use proptest::prelude::*;

proptest! {
    // ------------------------------------------------------------------
    // Event queue: a deterministic priority queue.
    // ------------------------------------------------------------------

    #[test]
    fn event_queue_pops_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some(ev) = q.pop() {
            let (t, i) = ev.payload;
            prop_assert_eq!(ev.at, SimTime::from_nanos(t));
            if let Some((pt, pi)) = prev {
                prop_assert!(pt <= t, "time order violated");
                if pt == t {
                    prop_assert!(pi < i, "insertion order violated on tie");
                }
            }
            prev = Some((t, i));
        }
    }

    // ------------------------------------------------------------------
    // Member view: bounded, self-free, duplicate-free under any op mix.
    // ------------------------------------------------------------------

    #[test]
    fn member_view_invariants_under_random_ops(
        ops in proptest::collection::vec((0u8..3, 0u32..64), 1..300),
        cap in 1usize..24,
    ) {
        let owner = NodeId::new(7);
        let mut view = MemberView::new(owner, cap);
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        for (op, id) in ops {
            let id = NodeId::new(id);
            match op {
                0 => { view.insert(id, &mut rng); }
                1 => { view.remove(id); }
                _ => { view.next_round_robin(); }
            }
            prop_assert!(view.len() <= cap);
            prop_assert!(!view.contains(owner));
            let seen: HashSet<_> = view.iter().collect();
            prop_assert_eq!(seen.len(), view.len(), "duplicates in view");
        }
    }

    #[test]
    fn member_view_round_robin_is_fair(ids in proptest::collection::hash_set(0u32..100, 1..30)) {
        let mut rng = rand::SeedableRng::seed_from_u64(2);
        let mut view = MemberView::new(NodeId::new(200), 64);
        for &id in &ids {
            view.insert(NodeId::new(id), &mut rng);
        }
        let k = view.len();
        let mut seen = HashSet::new();
        for _ in 0..k {
            seen.insert(view.next_round_robin().unwrap());
        }
        prop_assert_eq!(seen.len(), k, "one full cycle must visit every member once");
    }

    // ------------------------------------------------------------------
    // CDF: order statistics behave.
    // ------------------------------------------------------------------

    #[test]
    fn cdf_percentiles_are_monotone(mut vals in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let cdf = Cdf::from_durations(vals.iter().map(|&v| Duration::from_nanos(v)));
        let mut prev = Duration::ZERO;
        for i in 0..=10 {
            let p = cdf.percentile(i as f64 / 10.0);
            prop_assert!(p >= prev);
            prev = p;
        }
        vals.sort_unstable();
        prop_assert_eq!(cdf.min(), Duration::from_nanos(vals[0]));
        prop_assert_eq!(cdf.max(), Duration::from_nanos(*vals.last().unwrap()));
        prop_assert!(cdf.mean() >= cdf.min() && cdf.mean() <= cdf.max());
    }

    #[test]
    fn histogram_fractions_sum_to_one(vals in proptest::collection::vec(0usize..12, 1..300)) {
        let h = Histogram::from_values(vals.iter().copied());
        let total: f64 = (0..=h.max_value()).map(|v| h.fraction(v)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!((h.cumulative_fraction(h.max_value()) - 1.0).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Graph analysis: components partition the live nodes.
    // ------------------------------------------------------------------

    #[test]
    fn components_partition_live_nodes(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        dead in proptest::collection::hash_set(0u32..40, 0..10),
    ) {
        let n = 40;
        let mut adj = vec![Vec::new(); n];
        for (a, b) in edges {
            if a != b {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        let alive: Vec<bool> = (0..n as u32).map(|i| !dead.contains(&i)).collect();
        let sizes = component_sizes(&adj, &alive);
        let live = alive.iter().filter(|&&a| a).count();
        prop_assert_eq!(sizes.iter().sum::<usize>(), live, "components must cover live nodes");
        for w in sizes.windows(2) {
            prop_assert!(w[0] >= w[1], "sizes sorted descending");
        }
        let q = largest_component_fraction(&adj, &alive);
        prop_assert!((0.0..=1.0).contains(&q) || live == 0);
    }

    // ------------------------------------------------------------------
    // Latency models: symmetry, zero diagonal, calibration bounds.
    // ------------------------------------------------------------------

    #[test]
    fn synthetic_king_is_a_valid_latency_model(seed in 0u64..50, nodes in 2usize..40) {
        let cfg = SyntheticKingConfig { sites: 48, seed };
        let net = synthetic_king(nodes, &cfg);
        prop_assert_eq!(net.len(), nodes);
        for i in 0..nodes as u32 {
            prop_assert_eq!(net.one_way(NodeId::new(i), NodeId::new(i)), Duration::ZERO);
            for j in (i + 1)..nodes as u32 {
                let a = net.one_way(NodeId::new(i), NodeId::new(j));
                let b = net.one_way(NodeId::new(j), NodeId::new(i));
                prop_assert_eq!(a, b, "symmetry");
                prop_assert!(a <= Duration::from_millis(399), "cap");
                prop_assert!(a > Duration::ZERO, "distinct nodes have latency");
            }
        }
    }

    // ------------------------------------------------------------------
    // Wire codec: arbitrary messages round-trip and the accounted size is
    // exactly what the codec produces.
    // ------------------------------------------------------------------

    #[test]
    fn codec_roundtrip_and_exact_size(
        variant in 0u8..6,
        origin in 0u32..1000,
        seq in 0u32..10_000,
        age in 0u64..10_000_000,
        size in 0u32..100_000,
        ids in proptest::collection::vec((0u32..100, 0u32..100, 0u64..1_000_000), 0..20),
        rtts in proptest::collection::vec(0u64..400_000, 0..8),
        degs in (0u16..20, 0u16..20, 1u16..20, 1u16..20),
    ) {
        let coords = LandmarkVector::from_rtts(
            rtts.iter().map(|&v| Duration::from_micros(v)),
        );
        let degrees = DegreeInfo { d_rand: degs.0, d_near: degs.1, t_rand: degs.2, t_near: degs.3 };
        let id = MsgId::new(NodeId::new(origin), seq);
        let msg = match variant {
            0 => GoCastMsg::Data { id, age_us: age, hop: seq % 64, size },
            1 => GoCastMsg::Gossip {
                ids: ids.iter().map(|&(o, s, a)| (MsgId::new(NodeId::new(o), s), a)).collect(),
                members: vec![(NodeId::new(origin), coords.clone())],
                coords,
                degrees,
            },
            2 => GoCastMsg::PullRequest {
                ids: ids.iter().map(|&(o, s, _)| MsgId::new(NodeId::new(o), s)).collect(),
            },
            3 => GoCastMsg::Pong {
                // Only a storable landmark index is well-formed.
                kind: ProbeKind::Landmark((seq % MAX_LANDMARKS as u32) as u8),
                sent_at_us: age,
                degrees,
                max_nearby_rtt_us: age * 2,
                coords,
            },
            4 => GoCastMsg::LinkRequest {
                kind: if seq % 2 == 0 { LinkKind::Random } else { LinkKind::Nearby },
                rtt_us: (age % 2 == 0).then_some(age),
                degrees,
            },
            _ => GoCastMsg::TreeAd {
                root: NodeId::new(origin),
                epoch: seq,
                seq: seq / 2,
                dist_us: age,
            },
        };
        let bytes = gocast::encode(&msg);
        prop_assert_eq!(gocast::decode(&bytes).unwrap(), msg.clone());
        let payload = match &msg {
            GoCastMsg::Data { size, .. } => *size,
            _ => 0,
        };
        prop_assert_eq!(
            msg.wire_size(),
            HEADER_BYTES + bytes.len() as u32 + payload,
            "accounted size must equal encoded size"
        );
    }

    // ------------------------------------------------------------------
    // JSONL trace: arbitrary `(time, node, event)` streams replay as
    // written, ids and counters up to `u32::MAX` included.
    // ------------------------------------------------------------------

    #[test]
    fn trace_replays_arbitrary_streams_as_written(
        records in proptest::collection::vec(
            (0u8..17, 0u64..u64::MAX / 1_000, any::<u32>(), (any::<u32>(), any::<u32>()), (any::<u32>(), any::<u32>())),
            0..40,
        ),
    ) {
        use gocast_sim::{Recorder, TraceRecorder, VecRecorder};
        let written: Vec<(SimTime, NodeId, GoCastEvent)> = records
            .iter()
            .map(|&(variant, t_us, node, ids, more)| {
                let ev = trace_sample(variant, ids, more);
                (SimTime::from_nanos(t_us * 1_000), NodeId::new(node), ev)
            })
            .collect();
        let mut w = TraceRecorder::new(Vec::new());
        for (t, n, ev) in &written {
            w.record(*t, *n, ev.clone());
        }
        let text = w.finish().unwrap();
        let end = written.iter().map(|r| r.0).max().unwrap_or(SimTime::ZERO);
        let mut read = VecRecorder::new();
        // Every u32 is a node id of a run with 2^32 nodes.
        let lines = gocast_sim::replay(&text[..], 1 << 32, end, &mut read).unwrap();
        prop_assert_eq!(lines, written.len() as u64);
        prop_assert_eq!(read.events, written);
    }

    #[test]
    fn codec_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Hostile datagrams must produce an error, never a panic or an
        // absurd allocation.
        let _ = gocast::decode(&bytes);
    }

    #[test]
    fn codec_rejects_every_truncation(
        seq in 0u32..100,
        rtts in proptest::collection::vec(0u64..100_000, 0..6),
    ) {
        let msg = GoCastMsg::Pong {
            kind: ProbeKind::Candidate,
            sent_at_us: seq as u64 * 17,
            degrees: DegreeInfo { d_rand: 1, d_near: 5, t_rand: 1, t_near: 5 },
            max_nearby_rtt_us: 12345,
            coords: LandmarkVector::from_rtts(rtts.iter().map(|&v| Duration::from_micros(v))),
        };
        let bytes = gocast::encode(&msg);
        for cut in 0..bytes.len() {
            prop_assert!(gocast::decode(&bytes[..cut]).is_err());
        }
    }

    // ------------------------------------------------------------------
    // Landmark estimation: triangle-bound midpoints are symmetric and
    // respect the bounds.
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // Streaming observability: the online MetricsRecorder ledger must
    // agree with the post-hoc VecRecorder + analysis pipeline on the same
    // seeded run.
    // ------------------------------------------------------------------

    #[test]
    fn streaming_tracker_matches_post_hoc_pipeline(seed in 0u64..6, messages in 1u32..4) {
        use gocast::{GoCastCommand, GoCastConfig, GoCastEvent, GoCastNode};
        use gocast_analysis::{DeliveryTracker, MetricsRecorder};
        use gocast_sim::{Recorder, SimBuilder, VecRecorder};
        use std::collections::HashMap;

        // One run, two recorders fed the identical event stream via the
        // tuple combinator: the streaming ledger and a full buffer.
        let n = 16usize;
        let net = synthetic_king(
            n,
            &SyntheticKingConfig { sites: 32, seed: seed ^ 0xABCD },
        );
        let mut boot = gocast::bootstrap_random_graph(n, 3, seed);
        let mut sim = SimBuilder::new(net)
            .seed(seed)
            .build_with(
                (MetricsRecorder::new(), VecRecorder::<GoCastEvent>::new()),
                |id| {
                    let (links, members) = boot(id);
                    GoCastNode::with_initial_links(id, GoCastConfig::default(), links, members)
                },
            );
        sim.run_until(SimTime::from_secs(6));
        // A crash (of a node no message comes from) detaches its tree
        // children: orphan spells to fold.
        sim.fail_node(NodeId::new(3));
        for i in 0..messages {
            sim.schedule_command(
                sim.now() + Duration::from_millis(200 * i as u64),
                NodeId::new(i * 5 % n as u32),
                GoCastCommand::Multicast,
            );
        }
        sim.run_for(Duration::from_secs(5));
        let live: Vec<NodeId> = sim.alive_nodes().collect();
        let end = sim.now();
        let (mut metrics, buffer) = sim.into_recorder();
        metrics.finish(end);

        // Post-hoc pipeline 1: replay the buffered stream into a fresh
        // ledger — every aggregate must match the live one exactly.
        let mut replayed_all = MetricsRecorder::new();
        for (t, node, ev) in &buffer.events {
            replayed_all.record(*t, *node, ev.clone());
        }
        replayed_all.finish(end);
        let spells = |m: &MetricsRecorder| {
            let o = m.orphans();
            (o.spells(), o.total_orphan_time(), o.max_spell(), o.open_orphans())
        };
        prop_assert_eq!(spells(&metrics), spells(&replayed_all));
        prop_assert_eq!(metrics.link_changes_per_sec(), replayed_all.link_changes_per_sec());
        prop_assert_eq!(metrics.app().report(), replayed_all.app().report());
        let (tracker, replayed) = (metrics.delivery(), replayed_all.delivery());
        prop_assert_eq!(tracker.injected(), replayed.injected());
        prop_assert_eq!(tracker.delivered(), replayed.delivered());
        prop_assert_eq!(tracker.redundant(), replayed.redundant());
        prop_assert_eq!(tracker.pulls(), replayed.pulls());
        prop_assert_eq!(tracker.tree_fraction(), replayed.tree_fraction());
        prop_assert_eq!(tracker.pushes(), replayed.pushes());
        prop_assert_eq!(tracker.ihaves(), replayed.ihaves());
        prop_assert_eq!(tracker.pulls_served(), replayed.pulls_served());
        prop_assert_eq!(tracker.hop_sum(), replayed.hop_sum());
        prop_assert_eq!(tracker.hops(), replayed.hops());
        prop_assert_eq!(tracker.hop_counts(), replayed.hop_counts());
        prop_assert_eq!(tracker.pull_deliveries(), replayed.pull_deliveries());
        let per_message = |t: &DeliveryTracker| {
            t.injections().map(|(id, at)| (id, at, t.deliveries_of(id))).collect::<Vec<_>>()
        };
        prop_assert_eq!(per_message(tracker), per_message(replayed));
        let window = Duration::from_millis(300);
        let owed = |_, _| n as u64 - 1;
        prop_assert_eq!(
            tracker.windowed_ratios(window, owed),
            replayed.windowed_ratios(window, owed)
        );
        let (live_cdf, live_inc) = tracker.per_node_average_delays(messages as u64, &live);
        let (rep_cdf, rep_inc) = replayed.per_node_average_delays(messages as u64, &live);
        prop_assert_eq!(live_inc, rep_inc);
        prop_assert_eq!(live_cdf.len(), rep_cdf.len());
        if !live_cdf.is_empty() {
            prop_assert_eq!(live_cdf.mean(), rep_cdf.mean());
            for i in 0..=10 {
                let p = i as f64 / 10.0;
                prop_assert_eq!(live_cdf.percentile(p), rep_cdf.percentile(p));
            }
        }

        // Post-hoc pipeline 2: fold the buffer by hand into the exact
        // all-delays distribution and compare against the streaming
        // histogram: len/mean/min/max exact, percentiles within the
        // histogram's documented resolution.
        let mut inject: HashMap<gocast::MsgId, SimTime> = HashMap::new();
        let mut delays = Vec::new();
        for (t, _, ev) in &buffer.events {
            match ev {
                GoCastEvent::Injected { id } => {
                    inject.insert(*id, *t);
                }
                GoCastEvent::Delivered { id, .. } => {
                    if let Some(&t0) = inject.get(id) {
                        delays.push(t.saturating_since(t0));
                    }
                }
                _ => {}
            }
        }
        let hist = tracker.delay_histogram();
        prop_assert_eq!(hist.count(), delays.len() as u64);
        if delays.is_empty() {
            prop_assert_eq!(hist.count(), 0);
        } else {
            let exact = Cdf::from_durations(delays);
            let ns = Duration::from_nanos;
            prop_assert_eq!(ns(hist.sum()) / hist.count() as u32, exact.mean());
            prop_assert_eq!(ns(hist.min()), exact.min());
            prop_assert_eq!(ns(hist.max()), exact.max());
            for p in [0.1, 0.5, 0.9, 0.99] {
                let e = exact.percentile(p).as_secs_f64();
                let h = ns(hist.quantile_upper_bound(p)).as_secs_f64();
                prop_assert!(
                    (h - e).abs() <= e * 0.04 + 1e-7,
                    "p{} diverged: streaming {h}, exact {e}", p
                );
            }
        }

        // Post-hoc pipeline 3: a direct fold over the buffer is the
        // reference for every other count the ledger keeps.
        #[derive(Debug, Default, PartialEq)]
        struct Fold {
            injected: u64,
            delivered: u64,
            pull_deliveries: u64,
            hop_sum: u64,
            hops: u64,
            redundant: u64,
            pushes: u64,
            ihaves: u64,
            pulls: u64,
            pulls_served: u64,
        }
        let (mut fold, mut via_tree) = (Fold::default(), 0u64);
        // Per message in injection order; the first injection of an id wins.
        let mut msgs: Vec<(gocast::MsgId, SimTime, u64)> = Vec::new();
        for (t, _, ev) in &buffer.events {
            match ev {
                GoCastEvent::Injected { id } => {
                    fold.injected += 1;
                    if msgs.iter().all(|m| m.0 != *id) {
                        msgs.push((*id, *t, 0));
                    }
                }
                GoCastEvent::Delivered { id, via, hop, .. } => {
                    fold.delivered += 1;
                    via_tree += u64::from(*via == gocast::DeliveryPath::Tree);
                    fold.pull_deliveries += u64::from(*via == gocast::DeliveryPath::Pull);
                    if *hop > 0 {
                        fold.hop_sum += u64::from(*hop);
                        fold.hops += 1;
                    }
                    if let Some(m) = msgs.iter_mut().find(|m| m.0 == *id) {
                        m.2 += 1;
                    }
                }
                GoCastEvent::RedundantData { .. } => fold.redundant += 1,
                GoCastEvent::PushSent { .. } => fold.pushes += 1,
                GoCastEvent::IHaveSent { .. } => fold.ihaves += 1,
                GoCastEvent::PullRequested { .. } => fold.pulls += 1,
                GoCastEvent::PullServed { .. } => fold.pulls_served += 1,
                _ => {}
            }
        }
        let ledger = Fold {
            injected: tracker.injected(),
            delivered: tracker.delivered(),
            pull_deliveries: tracker.pull_deliveries(),
            hop_sum: tracker.hop_sum(),
            hops: tracker.hops(),
            redundant: tracker.redundant(),
            pushes: tracker.pushes(),
            ihaves: tracker.ihaves(),
            pulls: tracker.pulls(),
            pulls_served: tracker.pulls_served(),
        };
        prop_assert_eq!(&ledger, &fold);
        let tree_fraction = if fold.delivered == 0 {
            0.0
        } else {
            via_tree as f64 / fold.delivered as f64
        };
        prop_assert_eq!(tracker.tree_fraction(), tree_fraction);
        prop_assert_eq!(&per_message(tracker), &msgs);
        // Windows: messages grouped by whole `window`s since the first
        // injection, each owed n - 1 deliveries.
        let mut by_window: std::collections::BTreeMap<u128, (u64, u64, u64)> = Default::default();
        for &(id, at, got) in &msgs {
            let k = at.saturating_since(msgs[0].1).as_nanos() / window.as_nanos();
            let w = by_window.entry(k).or_default();
            *w = (w.0 + 1, w.1 + owed(id, at), w.2 + got);
        }
        let windows = tracker.windowed_ratios(window, owed);
        prop_assert_eq!(windows.len(), by_window.len());
        for (w, (&k, &(injected, expected, delivered))) in windows.iter().zip(&by_window) {
            prop_assert_eq!(w.start, msgs[0].1 + window * k as u32);
            prop_assert_eq!((w.injected, w.expected, w.delivered), (injected, expected, delivered));
        }
    }

    #[test]
    fn landmark_estimates_are_symmetric_and_bounded(
        a in proptest::collection::vec(0u64..400_000, 1..8),
        b in proptest::collection::vec(0u64..400_000, 1..8),
    ) {
        let va = LandmarkVector::from_rtts(a.iter().map(|&v| Duration::from_micros(v)));
        let vb = LandmarkVector::from_rtts(b.iter().map(|&v| Duration::from_micros(v)));
        let ab = va.estimate_rtt(&vb);
        prop_assert_eq!(ab, vb.estimate_rtt(&va));
        if let Some(est) = ab {
            let shared = a.len().min(b.len());
            let lower = (0..shared).map(|i| a[i].abs_diff(b[i])).max().unwrap();
            let upper = (0..shared).map(|i| a[i] + b[i]).min().unwrap();
            let est_us = est.as_micros() as u64;
            if upper >= lower {
                prop_assert!(est_us >= lower && est_us <= upper, "estimate within triangle bounds");
            }
        }
    }
}

/// Variant `v` of `GoCastEvent` (`ParentChanged` twice, with and without
/// a parent) over drawn ids and counters.
fn trace_sample(v: u8, (a, b): (u32, u32), (c, d): (u32, u32)) -> GoCastEvent {
    use gocast::{DeliveryPath, DropReason};
    let (id, n) = (MsgId::new(NodeId::new(a), b), NodeId::new(c));
    let kind = [LinkKind::Random, LinkKind::Nearby][d as usize % 2];
    match v {
        0 => GoCastEvent::Injected { id },
        1 => GoCastEvent::Delivered {
            id,
            via: [DeliveryPath::Tree, DeliveryPath::Pull, DeliveryPath::Local][d as usize % 3],
            from: n,
            hop: d,
        },
        2 => GoCastEvent::RedundantData { id, from: n },
        3 => GoCastEvent::PushSent { id, to: n, hop: d },
        4 => GoCastEvent::IHaveSent { id, to: n },
        5 => GoCastEvent::PullRequested { id, to: n },
        6 => GoCastEvent::PullServed { id, to: n, hop: d },
        7 => GoCastEvent::LinkAdded { peer: n, kind },
        8 => GoCastEvent::LinkDropped {
            peer: n,
            kind,
            reason: DropReason::ALL[d as usize % DropReason::ALL.len()],
        },
        9 => GoCastEvent::ParentChanged { parent: Some(n) },
        10 => GoCastEvent::ParentChanged { parent: None },
        11 => GoCastEvent::BecameRoot { epoch: d },
        12 => GoCastEvent::TopicDelivered {
            topic: c,
            id,
            bytes: d,
        },
        13 => GoCastEvent::TopicSubscribed { topic: c },
        14 => GoCastEvent::TopicUnsubscribed { topic: d },
        15 => GoCastEvent::DeltaPublished {
            topic: c,
            counter: d,
        },
        _ => GoCastEvent::DeltaApplied {
            topic: a,
            origin: n,
            counter: d,
        },
    }
}

// ----------------------------------------------------------------------
// A trace is outside input: a line naming a node or an instant the run
// did not have is an error, never a record a ledger sizes itself by.
// ----------------------------------------------------------------------

#[test]
fn a_hostile_trace_cannot_size_the_ledger() {
    use gocast_analysis::MetricsRecorder;
    use gocast_sim::TraceError;

    let (nodes, end) = (16, SimTime::from_secs(60));
    for (line, why) in [
        (
            "{\"t_us\":1,\"node\":4294967295,\"ev\":\"injected\",\"origin\":0,\"seq\":0}",
            "\"node\" names node 4294967295",
        ),
        (
            "{\"t_us\":18446744073709551615,\"node\":0,\"ev\":\"link_added\",\"peer\":1,\"kind\":\"random\"}",
            "past the run's end",
        ),
        (
            "{\"t_us\":1,\"node\":1,\"ev\":\"delivered\",\"origin\":0,\"seq\":0,\"from\":4294967295,\"hop\":1,\"via\":\"tree\"}",
            "\"from\" names node 4294967295",
        ),
        (
            "{\"t_us\":1,\"node\":1,\"ev\":\"link_dropped\",\"peer\":16,\"kind\":\"nearby\",\"reason\":\"surplus\"}",
            "\"peer\" names node 16",
        ),
        (
            "{\"t_us\":1,\"node\":1,\"ev\":\"delta_applied\",\"topic\":0,\"origin\":99,\"counter\":0}",
            "\"origin\" names node 99",
        ),
    ] {
        // A clean first line, so the error names the hostile one.
        let trace = format!(
            "{{\"t_us\":0,\"node\":0,\"ev\":\"parent_changed\",\"parent\":null}}\n{line}\n"
        );
        let mut ledger = MetricsRecorder::new();
        match gocast_sim::replay(trace.as_bytes(), nodes, end, &mut ledger) {
            Err(TraceError::Parse { line: 2, msg }) => assert!(msg.contains(why), "{msg}"),
            other => panic!("{line} replayed as {other:?}"),
        }
        // Only the clean line reached the ledger.
        assert_eq!(ledger.orphans().open_orphans(), 1);
        assert!(ledger.link_changes_per_sec().is_empty());
        assert_eq!(ledger.delivery().injected(), 0);
        assert_eq!(ledger.delivery().delivered(), 0);
    }
}

// ----------------------------------------------------------------------
// The application ledger agrees live and replayed: a small pub/sub and
// CRDT run reports what its own `--trace-out` stream folds to afresh.
// ----------------------------------------------------------------------

#[test]
fn application_ledger_matches_a_replay_of_its_trace() {
    use gocast_analysis::MetricsRecorder;
    use gocast_experiments::app::{run_app, Workload};
    use gocast_experiments::chaos::parse_spec;
    use gocast_experiments::ExpOptions;

    let mut o = ExpOptions::quick();
    o.nodes = 64;
    o.sites = 64;
    o.topics = 12;
    o.warmup = Duration::from_secs(20);
    o.messages = 40;
    o.rate = 4.0;
    o.drain = Duration::from_secs(20);
    // Faults, a subscribe flood, and more topics than get their own label.
    let scenario = parse_spec("massleave(at=1,count=4); flashcrowd(at=6,count=4)")
        .unwrap()
        .subscribe_flood(Duration::from_secs(2), 6, 12);
    let root = std::env::temp_dir().join(format!("gocast_app_ledger_{}", std::process::id()));
    for workload in [Workload::PubSub, Workload::Crdt] {
        // One directory per run: a process numbers its later traces.
        let dir = root.join(workload.name());
        std::fs::create_dir_all(&dir).unwrap();
        o.trace_out = Some(dir.join("trace.jsonl"));
        let out = run_app(&o, workload, "spec", &scenario);
        let mut trace = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path());
        let file = std::fs::File::open(trace.next().expect("one trace")).unwrap();
        let mut replayed = MetricsRecorder::new();
        let reader = std::io::BufReader::new(file);
        gocast_sim::replay(reader, o.nodes, out.end, &mut replayed).unwrap();
        let name = workload.name();
        assert_eq!(out.report, replayed.app().report(), "{name}");
        let per_topic: Vec<_> = replayed.app().per_topic().collect();
        assert_eq!(out.per_topic, per_topic, "{name}");
        assert!(
            per_topic.iter().any(|&(topic, _, _)| topic >= 8),
            "{name}: no topic past the eight labelled ones: {per_topic:?}"
        );
        assert!(out.report.subscribes > 0, "{name}: {}", out.manifest());
        if workload == Workload::Crdt {
            assert!(out.report.applies > 0, "{}", out.manifest());
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
