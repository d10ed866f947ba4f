//! Golden lock: digests of small end-to-end runs pinned as literals.
//!
//! Every other determinism test compares two runs of the *same* build, so
//! a refactor that shifts every run the same way passes them all. These
//! literals were captured at commit 224fa82 (the last one with two
//! simulation kernels) and must survive any change that claims to keep
//! behaviour: kernel consolidation, harness pipelines, host merges.
//!
//! If a literal must move, the PR that moves it says why in CHANGES.md.

use std::time::Duration;

use gocast_experiments::app::{run_app, Workload};
use gocast_experiments::chaos::{builtin_scenario, parse_spec, run_chaos};
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

const CHAOS_CHURN_GOCAST: &str = "stack=gocast seed=7 plan=8 injected=10 expected=581 delivered=581 ratio=1.000000 hops=3538/625 pulls=35/625 w[15100ms]=625/581 orphans=70 mean=807ms max=26867ms oracle=0/7305 kernel[ev=182514 del=102580 drop=0 part=0 loss=0 tmr=79916 cmd=18 ctl=0]";
const CHAOS_CHURN_PLUMTREE: &str = "stack=plumtree seed=7 plan=8 injected=10 expected=581 delivered=581 ratio=1.000000 hops=3116/624 pulls=105/624 w[15100ms]=624/581 orphans=0 mean=0ms max=0ms oracle=0/5186 kernel[ev=34713 del=29249 drop=0 part=0 loss=0 tmr=5446 cmd=18 ctl=0]";
const CHAOS_PARTITION_GOCAST: &str = "stack=gocast seed=7 plan=2 injected=10 expected=630 delivered=630 ratio=1.000000 hops=3516/630 pulls=29/630 w[15100ms]=630/630 repair[partition@22500ms]=0ms repair[partition-heal@30000ms]=0ms orphans=4 mean=2ms max=5ms oracle=0/6793 kernel[ev=152631 del=83518 drop=3571 part=3571 loss=0 tmr=65530 cmd=10 ctl=2]";
const CHAOS_PARTITION_PLUMTREE: &str = "stack=plumtree seed=7 plan=2 injected=10 expected=630 delivered=630 ratio=1.000000 hops=3169/630 pulls=109/630 w[15100ms]=630/630 repair[partition@22500ms]=0ms repair[partition-heal@30000ms]=0ms orphans=2 mean=278ms max=448ms oracle=0/5524 kernel[ev=28982 del=23867 drop=678 part=678 loss=0 tmr=4425 cmd=10 ctl=2]";
const CHAOS_LOSSY_GOCAST: &str = "stack=gocast seed=7 plan=6 injected=10 expected=602 delivered=602 ratio=1.000000 hops=3356/630 pulls=45/630 w[15100ms]=630/602 orphans=7 mean=8120ms max=27686ms oracle=0/7144 kernel[ev=176695 del=100425 drop=0 part=0 loss=671 tmr=76254 cmd=14 ctl=2]";
const SCALE_DELIVERY: &str = "phase=delivery nodes=2000 lanes=64 faults=0 injected=4 expected=7996 delivered=7996 ratio=1.000000 incomplete=0 oracle=0/173386 delay[mean=223978us p50=209685us p99=365544us max=510795us] kernel[ev=4211732 del=2488148 drop=0 part=0 loss=0 tmr=1723580 cmd=4 ctl=0]";
const SCALE_CATASTROPHE: &str = "phase=chaos:catastrophe nodes=2000 lanes=64 faults=3 injected=4 expected=7984 delivered=7984 ratio=1.000000 incomplete=0 oracle=0/175168 delay[mean=223999us p50=209697us p99=370688us max=510795us] kernel[ev=4715091 del=2769975 drop=552 part=0 loss=0 tmr=1944542 cmd=4 ctl=3]";
const APP_PUBSUB: &str = "workload=pubsub phase=baseline nodes=96 topics=6 epochs=1 faults=0 subevents=0 injected=12 deliveries=857 bytes=877568 goodput=137.4 mutations=0 applies=0 unapplied=0 stale_us=0 conv[p50=0us p99=0us max=0us] subs=0/0 audit[replicas=206 topics=6 divergent=0] oracle=0/6768 kernel[ev=271499 del=158853 drop=0 part=0 loss=0 tmr=112634 cmd=12 ctl=0]";
const APP_CRDT: &str = "workload=crdt phase=chaos:spec nodes=96 topics=6 epochs=1 faults=12 subevents=0 injected=12 deliveries=625 bytes=640000 goodput=94.4 mutations=12 applies=625 unapplied=0 stale_us=484296 conv[p50=825335us p99=1026616us max=1026616us] subs=0/0 audit[replicas=193 topics=6 divergent=0] oracle=0/7494 kernel[ev=285528 del=168796 drop=0 part=0 loss=0 tmr=116708 cmd=24 ctl=0]";
const FIG3A: &str = concat!(
    "              protocol  complete  p10(s)  p50(s)  p90(s)  p99(s)  max(s)  mean(s)  redundancy  pulls\n",
    "  --------------------------------------------------------------------------------------------------\n",
    "                GoCast    1.0000   0.098   0.149   0.184   0.242   0.242    0.144      1.0571    127\n",
    "     proximity overlay    1.0000   0.840   0.959   1.100   1.401   1.401    0.972      1.0000   3150\n",
    "        random overlay    1.0000   0.982   1.104   1.206   1.302   1.302    1.102      1.0000   3150\n",
    "          gossip (F=5)    0.7656   1.044   1.182   1.324   1.435   1.435    1.182      1.0000   3120\n",
    "  no-wait gossip (F=5)    0.8438   0.459   0.516   0.646   0.781   0.781    0.541      1.0000   3137\n",
);
