//! Golden lock: digests of small end-to-end runs pinned as literals.
//!
//! Every other determinism test compares two runs of the *same* build, so
//! a refactor that shifts every run the same way passes them all. These
//! literals were captured at commit 224fa82 (the last one with two
//! simulation kernels) — the figure 3(b), adaptation, ext4, adaptive,
//! compare and JSONL-stream ones at 6f596eb (the last one with five
//! hand-written experiment run-loops) — and must survive any change that
//! claims to keep behaviour: kernel consolidation, harness pipelines, host
//! merges.
//!
//! If a literal must move, the PR that moves it says why in CHANGES.md.

use std::time::Duration;

use gocast_experiments::app::{run_app, Workload};
use gocast_experiments::chaos::{builtin_scenario, parse_spec, run_chaos};
use gocast_experiments::compare::{compare_sweep, compare_table};
use gocast_experiments::scale::{run_scale_chaos, run_scale_delivery};
use gocast_experiments::{figures, ExpOptions, StackKind};
use gocast_sim::Scenario;

fn sized(nodes: usize, sites: usize) -> ExpOptions {
    let mut o = ExpOptions::quick();
    o.nodes = nodes;
    o.sites = sites;
    o
}

fn chaos_opts() -> ExpOptions {
    let mut o = sized(64, 64);
    o.seed = 7;
    o.warmup = Duration::from_secs(15);
    o.messages = 10;
    o.rate = 2.0;
    o.drain = Duration::from_secs(20);
    o
}

/// `ChaosOutcome::summary_string()` on the serial kernel: 64 nodes,
/// `churn` (commands) and `partition` (a broadcast control event) on both
/// stacks, `lossy` (the kernel's loss/jitter stream) on GoCast.
#[test]
fn chaos_summaries_match_the_pinned_literals() {
    const WANT: [(&str, StackKind, &str); 5] = [
        ("churn", StackKind::GoCast, CHAOS_CHURN_GOCAST),
        ("churn", StackKind::Plumtree, CHAOS_CHURN_PLUMTREE),
        ("partition", StackKind::GoCast, CHAOS_PARTITION_GOCAST),
        ("partition", StackKind::Plumtree, CHAOS_PARTITION_PLUMTREE),
        ("lossy", StackKind::GoCast, CHAOS_LOSSY_GOCAST),
    ];
    for (preset, stack, want) in WANT {
        let opts = chaos_opts().with_stack(stack);
        let scenario = builtin_scenario(preset, &opts).expect("builtin preset");
        let got = run_chaos(&opts, &scenario).summary_string();
        assert_eq!(got, want, "chaos `{preset}` on {stack}");
    }
}

/// `ScaleOutcome::manifest()` on the sharded kernel: 2,000 nodes, the
/// delivery phase and the `catastrophe` site crash, identical at one and
/// two `--sim-shards`.
#[test]
fn scale_manifests_match_the_pinned_literals() {
    for sim_shards in [1, 2] {
        let mut o = sized(2_000, 1_740).with_sim_shards(sim_shards);
        o.warmup = Duration::from_secs(20);
        o.messages = 4;
        o.rate = 2.0;
        o.drain = Duration::from_secs(20);
        assert_eq!(
            run_scale_delivery(&o).manifest(),
            SCALE_DELIVERY,
            "delivery at {sim_shards} sim-shard(s)"
        );
        let scenario = builtin_scenario("catastrophe", &o).expect("builtin preset");
        assert_eq!(
            run_scale_chaos(&o, "catastrophe", &scenario).manifest(),
            SCALE_CATASTROPHE,
            "catastrophe at {sim_shards} sim-shard(s)"
        );
    }
}

/// `AppOutcome::manifest()`: tiny `pubsub` baseline and `crdt` under
/// timed faults, on the sharded kernel.
#[test]
fn app_manifests_match_the_pinned_literals() {
    let mut o = sized(96, 96);
    o.topics = 6;
    o.warmup = Duration::from_secs(20);
    o.messages = 12;
    o.rate = 2.0;
    o.drain = Duration::from_secs(25);
    let pubsub = run_app(&o, Workload::PubSub, "baseline", &Scenario::new());
    assert_eq!(pubsub.manifest(), APP_PUBSUB);
    let faults = parse_spec("massleave(at=1,count=6); flashcrowd(at=8,count=6)").expect("spec");
    let crdt = run_app(&o, Workload::Crdt, "spec", &faults);
    assert_eq!(crdt.manifest(), APP_CRDT);
}

/// The rendered Figure 3(a) table (five protocols, no failures) at the
/// quick preset shrunk to 64 nodes.
#[test]
fn fig3a_quick_table_matches_the_pinned_literal() {
    let tables = figures::fig3(&sized(64, 64), 0.0);
    assert_eq!(tables[0].to_string(), FIG3A);
}

/// The rendered Figure 3(b) table: the seeded failure set, the freeze
/// command and the live-source injection rule.
#[test]
fn fig3b_quick_table_matches_the_pinned_literal() {
    let tables = figures::fig3(&sized(64, 64), 0.2);
    assert_eq!(tables[0].to_string(), FIG3B);
}

fn adaptation_opts() -> ExpOptions {
    let mut o = sized(64, 64);
    o.warmup = Duration::from_secs(20);
    o
}

/// Two `run_adaptation` tables: the per-second latency series of
/// Figure 5(b) and the final degree split of §2.2 (txt2).
#[test]
fn adaptation_tables_match_the_pinned_literals() {
    let o = adaptation_opts();
    assert_eq!(figures::fig5b(&o, 20)[0].to_string(), FIG5B);
    assert_eq!(figures::txt2(&o)[0].to_string(), TXT2);
}

/// §3(4) link stress: pair counting, `reset_stats` after warm-up, and
/// sources drawn over every node id, for both GoCast and push gossip.
#[test]
fn ext4_table_matches_the_pinned_literal() {
    assert_eq!(figures::ext4(&adaptation_opts())[0].to_string(), EXT4);
}

/// The adaptive-periods experiment: a quiet phase between warm-up and
/// injection, traffic counters read in the middle of the run.
#[test]
fn adaptive_table_matches_the_pinned_literal() {
    assert_eq!(
        figures::adaptive(&adaptation_opts())[0].to_string(),
        ADAPTIVE
    );
}

/// `compare_table` for the `churn` preset over two seeds: the
/// presets × seeds × stacks fan-out and its pairing.
#[test]
fn compare_table_matches_the_pinned_literal() {
    let rows = compare_sweep(&chaos_opts(), &["churn"], 2).expect("builtin preset");
    assert_eq!(compare_table(&rows).to_string(), COMPARE_CHURN);
}

/// FNV-1a over a JSONL stream with the manifest line's `git` and `host`
/// values (the only fields that depend on the checkout and the machine)
/// blanked.
fn masked_fnv(bytes: &[u8]) -> u64 {
    let text = std::str::from_utf8(bytes).expect("JSONL is UTF-8");
    let (manifest, rest) = text.split_once('\n').expect("manifest line");
    let mut masked = String::new();
    let mut tail = manifest;
    for key in ["\"git\":\"", "\"host\":\""] {
        let (before, after) = tail.split_once(key).expect("manifest field");
        masked.push_str(before);
        masked.push_str(key);
        tail = &after[after.find('"').expect("closing quote")..];
    }
    masked.push_str(tail);
    masked.push('\n');
    masked.push_str(rest);
    masked.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The streams a run left under `dir`, in run order (later runs in one
/// process get `<stem>.<k>.jsonl` from a process-wide counter).
fn streams_in(dir: &std::path::Path, stem: &str) -> Vec<Vec<u8>> {
    let mut named: Vec<(u32, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("stream directory")
        .map(|e| {
            let e = e.expect("directory entry");
            let name = e.file_name().into_string().expect("UTF-8 name");
            let run = name
                .trim_start_matches(stem)
                .trim_end_matches("jsonl")
                .trim_matches('.')
                .parse()
                .unwrap_or(0);
            (run, std::fs::read(e.path()).expect("stream file"))
        })
        .collect();
    named.sort_by_key(|(run, _)| *run);
    named.into_iter().map(|(_, bytes)| bytes).collect()
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gocast_golden_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The `--metrics-out` stream of a 64-node `chaos` churn run: which
/// instants are sampled and every deterministic metric at each.
#[test]
fn chaos_metrics_stream_matches_the_pinned_digest() {
    let dir = scratch_dir("metrics");
    let mut o = chaos_opts();
    o.metrics_out = Some(dir.join("metrics.jsonl"));
    let scenario = builtin_scenario("churn", &o).expect("builtin preset");
    let summary = run_chaos(&o, &scenario).summary_string();
    assert_eq!(
        summary, CHAOS_CHURN_GOCAST,
        "streaming must not move the run"
    );
    let streams = streams_in(&dir, "metrics");
    assert_eq!(streams.len(), 1);
    assert_eq!(masked_fnv(&streams[0]), CHAOS_CHURN_METRICS_FNV);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--trace-out` streams of the 64-node Figure 3(a) run: one causal
/// JSONL trace per protocol, in protocol order.
#[test]
fn fig3a_trace_streams_match_the_pinned_digests() {
    let dir = scratch_dir("trace");
    let mut o = sized(64, 64);
    o.trace_out = Some(dir.join("trace.jsonl"));
    let tables = figures::fig3(&o, 0.0);
    assert_eq!(
        tables[0].to_string(),
        FIG3A,
        "tracing must not move the run"
    );
    let digests: Vec<u64> = streams_in(&dir, "trace")
        .iter()
        .map(|s| masked_fnv(s))
        .collect();
    assert_eq!(digests, FIG3A_TRACE_FNV);
    let _ = std::fs::remove_dir_all(&dir);
}

const CHAOS_CHURN_GOCAST: &str = "stack=gocast seed=7 plan=8 injected=10 expected=581 delivered=581 ratio=1.000000 hops=3538/625 pulls=35/625 w[15100ms]=625/581 orphans=70 mean=807ms max=26867ms oracle=0/7305 kernel[ev=182514 del=102580 drop=0 part=0 loss=0 tmr=79916 cmd=18 ctl=0]";
const CHAOS_CHURN_PLUMTREE: &str = "stack=plumtree seed=7 plan=8 injected=10 expected=581 delivered=581 ratio=1.000000 hops=3116/624 pulls=105/624 w[15100ms]=624/581 orphans=0 mean=0ms max=0ms oracle=0/5186 kernel[ev=34713 del=29249 drop=0 part=0 loss=0 tmr=5446 cmd=18 ctl=0]";
const CHAOS_PARTITION_GOCAST: &str = "stack=gocast seed=7 plan=2 injected=10 expected=630 delivered=630 ratio=1.000000 hops=3516/630 pulls=29/630 w[15100ms]=630/630 repair[partition@22500ms]=0ms repair[partition-heal@30000ms]=0ms orphans=4 mean=2ms max=5ms oracle=0/6793 kernel[ev=152631 del=83518 drop=3571 part=3571 loss=0 tmr=65530 cmd=10 ctl=2]";
const CHAOS_PARTITION_PLUMTREE: &str = "stack=plumtree seed=7 plan=2 injected=10 expected=630 delivered=630 ratio=1.000000 hops=3169/630 pulls=109/630 w[15100ms]=630/630 repair[partition@22500ms]=0ms repair[partition-heal@30000ms]=0ms orphans=2 mean=278ms max=448ms oracle=0/5524 kernel[ev=28982 del=23867 drop=678 part=678 loss=0 tmr=4425 cmd=10 ctl=2]";
const CHAOS_LOSSY_GOCAST: &str = "stack=gocast seed=7 plan=6 injected=10 expected=602 delivered=602 ratio=1.000000 hops=3472/630 pulls=55/630 w[15100ms]=630/602 orphans=7 mean=8139ms max=27686ms oracle=0/7158 kernel[ev=176691 del=100416 drop=0 part=0 loss=691 tmr=76259 cmd=14 ctl=2]";
const SCALE_DELIVERY: &str = "phase=delivery nodes=2000 faults=0 injected=4 expected=7996 delivered=7996 ratio=1.000000 incomplete=0 oracle=0/172575 delay[mean=215738us p50=208955us p99=360400us max=484181us] kernel[ev=4207080 del=2483593 drop=0 part=0 loss=0 tmr=1723483 cmd=4 ctl=0]";
const SCALE_CATASTROPHE: &str = "phase=chaos:catastrophe nodes=2000 faults=3 injected=4 expected=7984 delivered=7984 ratio=1.000000 incomplete=0 oracle=0/175153 delay[mean=215720us p50=208928us p99=360400us max=484181us] kernel[ev=4717349 del=2772236 drop=646 part=0 loss=0 tmr=1944445 cmd=4 ctl=3]";
const APP_PUBSUB: &str = "workload=pubsub phase=baseline nodes=96 topics=6 epochs=1 faults=0 subevents=0 injected=12 deliveries=857 bytes=877568 goodput=137.4 mutations=0 applies=0 unapplied=0 stale_us=0 conv[p50=0us p99=0us max=0us] subs=0/0 audit[replicas=206 topics=6 divergent=0] oracle=0/6768 kernel[ev=271499 del=158853 drop=0 part=0 loss=0 tmr=112634 cmd=12 ctl=0]";
const APP_CRDT: &str = "workload=crdt phase=chaos:spec nodes=96 topics=6 epochs=1 faults=12 subevents=0 injected=12 deliveries=625 bytes=640000 goodput=94.4 mutations=12 applies=625 unapplied=0 stale_us=484296 conv[p50=825335us p99=1026616us max=1026616us] subs=0/0 audit[replicas=193 topics=6 divergent=0] oracle=0/7492 kernel[ev=285524 del=168792 drop=0 part=0 loss=0 tmr=116708 cmd=24 ctl=0]";
const FIG3A: &str = concat!(
    "              protocol  complete  p10(s)  p50(s)  p90(s)  p99(s)  max(s)  mean(s)  redundancy  pulls\n",
    "  --------------------------------------------------------------------------------------------------\n",
    "                GoCast    1.0000   0.098   0.149   0.184   0.242   0.242    0.144      1.0571    127\n",
    "     proximity overlay    1.0000   0.840   0.959   1.100   1.401   1.401    0.972      1.0000   3150\n",
    "        random overlay    1.0000   0.982   1.104   1.206   1.302   1.302    1.102      1.0000   3150\n",
    "          gossip (F=5)    0.7656   1.044   1.182   1.324   1.435   1.435    1.182      1.0000   3120\n",
    "  no-wait gossip (F=5)    0.8438   0.459   0.516   0.646   0.781   0.781    0.541      1.0000   3137\n",
);
const FIG3B: &str = concat!(
    "              protocol  complete  p10(s)  p50(s)  p90(s)  p99(s)  max(s)  mean(s)  redundancy  pulls\n",
    "  --------------------------------------------------------------------------------------------------\n",
    "                GoCast    1.0000   0.318   0.405   0.583   1.072   1.072    0.447      1.1424    955\n",
    "     proximity overlay    1.0000   0.842   1.031   1.225   1.621   1.621    1.039      1.0000   2500\n",
    "        random overlay    1.0000   1.081   1.218   1.362   1.498   1.498    1.227      1.0000   2500\n",
    "          gossip (F=5)    0.6078   1.123   1.312   1.513   1.671   1.671    1.324      1.0000   2455\n",
    "  no-wait gossip (F=5)    0.3922   0.564   0.629   0.766   0.895   0.895    0.643      1.0000   2455\n",
);
const FIG5B: &str = concat!(
    "  t(s)  overlay link latency (ms)  tree link latency (ms)\n",
    "  -------------------------------------------------------\n",
    "     0                      88.46                    0.00\n",
    "     1                      73.63                   43.03\n",
    "     2                      58.42                   35.10\n",
    "     3                      49.98                   29.60\n",
    "     4                      45.72                   30.14\n",
    "     5                      47.63                   30.12\n",
    "     6                      46.42                   29.21\n",
    "     7                      44.85                   28.54\n",
    "     8                      42.71                   26.18\n",
    "     9                      40.59                   26.73\n",
    "    10                      41.44                   26.02\n",
    "    11                      41.55                   26.52\n",
    "    12                      40.31                   23.94\n",
    "    13                      38.81                   23.94\n",
    "    14                      40.39                   23.94\n",
    "    15                      40.00                   23.61\n",
    "    16                      38.56                   24.52\n",
    "    17                      38.82                   24.52\n",
    "    18                      38.96                   24.46\n",
    "    19                      38.52                   24.46\n",
    "    20                      38.65                   24.46\n",
);
const TXT2: &str = concat!(
    "                    quantity  at target  at target+1      paper\n",
    "  -------------------------------------------------------------\n",
    "  random degree (C_rand = 1)      90.6%         9.4%  88% / 12%\n",
    "  nearby degree (C_near = 5)      60.9%        32.8%  70% / 30%\n",
);
const EXT4: &str = concat!(
    "             protocol  bottleneck stress (KB)  mean link stress (KB)  links used  total traffic (MB)\n",
    "  --------------------------------------------------------------------------------------------------\n",
    "      GoCast (1024 B)                  2678.5                 1394.1          17               23.70\n",
    "        GoCast (64 B)                  1622.5                  857.5          17               14.58\n",
    "  gossip F=5 (1024 B)                  1284.5                  714.6          17               12.15\n",
    "    gossip F=5 (64 B)                   262.1                  145.0          17                2.47\n",
);
const ADAPTIVE: &str = concat!(
    "           variant  idle msgs/node/s  idle probe msgs  idle gossip msgs  mean delay (s)  complete\n",
    "  -----------------------------------------------------------------------------------------------\n",
    "     fixed t and r              25.6            25524              6356           0.144    1.0000\n",
    "  adaptive t and r               3.4             2158              1274           0.137    1.0000\n",
);
const COMPARE_CHURN: &str = concat!(
    "  preset  seed  faults  go_ratio  pt_ratio  go_mean_hops  pt_mean_hops  go_recovery_frac  pt_recovery_frac  go_repair_ms  pt_repair_ms  go_violations  pt_violations\n",
    "  ------------------------------------------------------------------------------------------------------------------------------------------------------------------\n",
    "   churn     7       8    1.0000    1.0000          5.66          4.99            0.0560            0.1683             -             -              0              0\n",
    "   churn     8       8    1.0000    1.0000          5.58          4.59            0.0603            0.1587             -             -              0              0\n",
);
// The stream reports `kernel_queue_mem_bytes` and the slab's slots, so
// this digest also pins what a queued GoCast event occupies (104 B a
// message slot, 56 B a timer slot, each with its key) and what the
// calendar queue's tiers add: 43,504–77,616 B over the samples, as each
// of a worker's two queues follows its own pending count. It also pins
// the histogram layout: `kernel_queue_depth` and `proto_delay_ns` list
// their non-empty buckets by index.
const CHAOS_CHURN_METRICS_FNV: u64 = 0x7ee128b380cbbbd6;
const FIG3A_TRACE_FNV: [u64; 5] = [
    0xfa43fa47a2d48446,
    0x1f518e426db9a516,
    0x546fe5560186cb37,
    0xf0e7bf8f1492ee7b,
    0x4c1ae18776669a25,
];
