//! `--sim-shards N` must be a pure wall-clock setting on every simulated
//! subcommand: the figure runners, chaos and link stress give the same
//! summaries and table rows on one worker thread as on three.

use gocast::GoCastConfig;
use gocast_experiments::chaos::{builtin_scenario, run_chaos};
use gocast_experiments::report::kernel_digest;
use gocast_experiments::runners::run_delay;
use gocast_experiments::{figures, ExpOptions, Proto};

fn quick(sim_shards: usize) -> ExpOptions {
    ExpOptions::quick().with_sim_shards(sim_shards)
}

/// Everything a delay run reports that is not wall clock or storage.
fn delay_summary(opts: &ExpOptions) -> String {
    let s = run_delay(opts, Proto::GoCast(GoCastConfig::default()), 0.2);
    let cdf = &s.per_node_avg;
    format!(
        "{} live={} incomplete={} crashed={} n={} p50={:?} p99={:?} mean={:?} max={:?} \
         redundancy={} tree={} pulls={} {}",
        s.protocol,
        s.live_nodes,
        s.incomplete_nodes,
        s.plan_len,
        cdf.len(),
        cdf.percentile(0.5),
        cdf.percentile(0.99),
        cdf.mean(),
        cdf.max(),
        s.redundancy,
        s.tree_fraction,
        s.pulls,
        kernel_digest(&s.kernel),
    )
}

#[test]
fn delay_run_with_failures_is_the_same_at_one_and_three_threads() {
    let (one, three) = (delay_summary(&quick(1)), delay_summary(&quick(3)));
    assert!(one.contains("crashed=26"), "{one}");
    assert_eq!(one, three);
}

#[test]
fn chaos_catastrophe_is_the_same_at_one_and_three_threads() {
    let summary = |opts: &ExpOptions| {
        let scenario = builtin_scenario("catastrophe", opts).expect("a preset");
        run_chaos(opts, &scenario).summary_string()
    };
    let (one, three) = (summary(&quick(1)), summary(&quick(3)));
    assert!(one.contains("oracle=0/"), "{one}");
    assert_eq!(one, three);
}

/// The first test of pair counts merged across workers: link stress sums
/// every worker's per-pair bytes.
#[test]
fn link_stress_is_the_same_at_one_and_three_threads() {
    let rows = |opts: &ExpOptions| -> Vec<String> {
        figures::ext4(opts).iter().map(|t| t.to_string()).collect()
    };
    let (one, three) = (rows(&quick(1)), rows(&quick(3)));
    assert!(one.iter().any(|t| t.contains("GoCast")), "{one:?}");
    assert_eq!(one, three);
}
