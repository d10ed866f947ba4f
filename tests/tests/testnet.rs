//! Real-socket integration tests for the `gocast-testnet` fabric.
//!
//! Every test probes loopback availability first and skips (passing,
//! with a note on stderr) when the sandbox forbids socket creation, so
//! the suite stays green in network-less CI environments.

use std::net::{Ipv4Addr, UdpSocket};
use std::time::Duration;

use gocast::{GoCastCommand, GoCastEvent};
use gocast_analysis::trace::{scan_trace, InvariantOracle, TraceAnalysis};
use gocast_sim::{NodeId, SimTime};
use gocast_testnet::{loopback_available, Testnet, TestnetConfig};

fn skip() -> bool {
    if loopback_available() {
        false
    } else {
        eprintln!("skipping: loopback UDP unavailable in this environment");
        true
    }
}

/// Two nodes on real sockets: both multicast, both deliver to the other,
/// and the fabric shuts down cleanly (no threads, nothing to leak — the
/// loop simply returns at its deadline).
#[test]
fn two_node_loopback_smoke() {
    if skip() {
        return;
    }
    let cfg = TestnetConfig::new(2).with_seed(11);
    let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
    // Let links and the tree form, then multicast from each side.
    net.schedule_command(
        SimTime::from_secs(2),
        NodeId::new(0),
        GoCastCommand::Multicast,
    );
    net.schedule_command(
        SimTime::from_millis(2500),
        NodeId::new(1),
        GoCastCommand::Multicast,
    );
    net.run_for(Duration::from_secs(4));

    let mut delivered_at = [[false; 2]; 2]; // [receiver][origin]
    for (_, node, ev) in net.trace() {
        if let GoCastEvent::Delivered { id, .. } = ev {
            delivered_at[node.index()][id.origin.index()] = true;
        }
    }
    assert!(
        delivered_at[1][0],
        "node 1 never delivered node 0's message"
    );
    assert!(
        delivered_at[0][1],
        "node 0 never delivered node 1's message"
    );
    let stats = net.stats();
    assert!(stats.datagrams_sent > 0 && stats.datagrams_received > 0);
    assert_eq!(stats.malformed, 0, "fabric produced malformed datagrams");
}

/// Sixteen nodes, a burst of multicasts, full drain: the wire-side JSONL
/// trace must satisfy every protocol invariant the oracle knows, and all
/// messages must reach all peers.
#[test]
fn sixteen_node_run_is_invariant_clean() {
    if skip() {
        return;
    }
    let nodes = 16;
    let messages = 20;
    let cfg = TestnetConfig::new(nodes).with_seed(3);
    let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
    for k in 0..messages {
        net.schedule_command(
            SimTime::from_millis(2500 + 50 * k as u64),
            NodeId::new((k % nodes) as u32),
            GoCastCommand::Multicast,
        );
    }
    net.run_for(Duration::from_secs(7));

    let jsonl = net.trace_jsonl();
    let mut oracle = InvariantOracle::for_protocol(&cfg.protocol);
    let mut analysis = TraceAnalysis::new();
    let records = scan_trace(&jsonl[..], |rec| {
        oracle.check(&rec);
        analysis.feed(&rec);
    })
    .expect("wire trace parses with the PR-2 pipeline");
    oracle.finish();
    assert!(records > 0, "empty wire trace");
    assert!(
        oracle.is_clean(),
        "oracle violations on wire trace: {:?}",
        oracle.violations()
    );
    let report = analysis.report();
    assert_eq!(report.messages, messages, "trace lost injected messages");
    let expected = (messages * (nodes - 1)) as u64;
    assert!(
        report.deliveries >= expected * 999 / 1000,
        "delivery {}/{expected} below 99.9%",
        report.deliveries
    );
}

/// What a simulator never sends: a socket outside the group throws
/// garbage, truncated frames and well-formed frames claiming node ids
/// the group does not have at a live node. Every one must be counted
/// and dropped before it reaches the peer table, the impairment matrix
/// or the protocol — and the group must carry on delivering.
#[test]
fn host_survives_malformed_and_stranger_datagrams() {
    if skip() {
        return;
    }
    let nodes = 4;
    let cfg = TestnetConfig::new(nodes).with_seed(13);
    let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
    net.run_for(Duration::from_millis(500));

    // Transport frames as `gocast_testnet::bootstrap` documents them.
    let frame = |tag: u8, ids: &[u32], tail: &[u8]| -> Vec<u8> {
        let mut out = vec![tag];
        for id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(tail);
        out
    };
    let (data, whohas, peer) = (0xD0, 0xD1, 0xD2);
    let nobody = u32::MAX;
    let past_the_end = nodes as u32;
    let join = gocast::encode(&gocast::GoCastMsg::JoinRequest);
    let somewhere = [127, 0, 0, 1, 0x39, 0x30];
    let frames = [
        vec![0xFF, 0x00, 0x13],
        frame(data, &[], &[1, 2]),
        frame(data, &[1], &[]),
        frame(whohas, &[nobody, 0], &[]),
        frame(whohas, &[0, past_the_end], &[]),
        frame(peer, &[nobody, 0], &somewhere),
        frame(peer, &[0, past_the_end], &somewhere),
        frame(data, &[nobody], &join),
        frame(data, &[past_the_end], &join),
    ];
    let stranger = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind stranger");
    let victim = net.addr_of(NodeId::new(0));
    let rounds = 5;
    for _ in 0..rounds {
        for f in &frames {
            stranger.send_to(f, victim).expect("send to loopback");
        }
    }

    net.schedule_command(
        SimTime::from_millis(2500),
        NodeId::new(2),
        GoCastCommand::Multicast,
    );
    net.run_for(Duration::from_millis(3500));

    let stats = net.stats();
    assert!(
        stats.malformed >= (rounds * frames.len()) as u64,
        "some hostile frame was not rejected: {stats}"
    );
    for i in 0..nodes {
        let known = net.known_peers(NodeId::new(i as u32));
        assert!(known <= nodes, "n{i} learned {known} peers of {nodes}");
    }
    let mut oracle = InvariantOracle::for_protocol(&cfg.protocol);
    scan_trace(&net.trace_jsonl()[..], |rec| oracle.check(&rec)).expect("wire trace parses");
    oracle.finish();
    assert!(oracle.is_clean(), "{:?}", oracle.violations());
    let deliveries = net
        .trace()
        .iter()
        .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
        .count();
    assert_eq!(deliveries, nodes - 1, "multicast after the attack: {stats}");
}

/// The delivery manifest — which node delivered which message — must be
/// byte-identical whether the fabric runs on one event loop or four.
/// Wall-clock timestamps differ shard to shard (and run to run), so the
/// determinism gate is the canonical sorted digest, not raw trace bytes.
#[test]
fn delivery_manifest_is_identical_across_shard_counts() {
    if skip() {
        return;
    }
    let run = |shards: usize| -> String {
        let nodes = 8;
        let messages = 6u64;
        let cfg = TestnetConfig::new(nodes).with_seed(21).with_shards(shards);
        let mut net = Testnet::build_bootstrap(&cfg).expect("bind loopback");
        for k in 0..messages {
            net.schedule_command(
                SimTime::from_millis(2500 + 100 * k),
                NodeId::new((k % nodes as u64) as u32),
                GoCastCommand::Multicast,
            );
        }
        net.run_for(Duration::from_secs(7));
        let delivered = net
            .trace()
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
            .count() as u64;
        assert_eq!(
            delivered,
            messages * (nodes as u64 - 1),
            "fault-free {shards}-shard run failed to drain fully"
        );
        net.delivery_manifest()
    };
    let single = run(1);
    let sharded = run(4);
    assert!(!single.is_empty());
    assert_eq!(
        single, sharded,
        "delivery manifest diverged between 1 and 4 shards"
    );
}

/// Sixty-four nodes through the sharded wire path must still agree with
/// the simulator: the full sim-vs-wire conformance gate at 4 shards.
///
/// Delivery (≥ 99.9% per side) and the invariant oracle (zero
/// violations) stay at the strict defaults. The hop-*shape* tolerances
/// are widened relative to the 12/16-node gates: 64 wall-clock nodes on
/// four shard threads oversubscribe small CI machines, so wire-side
/// timers fire late during tree formation and the measured tree runs a
/// few hops deeper than the contention-free simulator's — scheduling
/// noise, not protocol divergence. A longer warm-up gives the
/// RTT-adaptive tree time to flatten before injection starts.
#[test]
fn sixty_four_node_sharded_conformance_gate() {
    if skip() {
        return;
    }
    let mut opts = gocast_testnet::ConformanceOptions::new(64, 60)
        .with_seed(42)
        .with_shards(4);
    opts.warmup = Duration::from_secs(6);
    opts.tol.mean_hops_diff = 4.0;
    opts.tol.hist_tv = 0.55;
    let report = opts.run().expect("conformance harness ran");
    assert!(
        report.passed(),
        "64-node sharded conformance failed:\n{}",
        report.render()
    );
}
