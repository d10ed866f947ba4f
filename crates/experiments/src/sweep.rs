//! Multi-run execution: the per-seed fan-out.
//!
//! Independent simulation runs (different seeds, protocols, or system
//! sizes) fan across `--jobs` worker threads without changing any result
//! (see [`crate::pipeline`] for why). [`seeded`] is the consecutive-seed
//! rule, [`per_seed`] runs one function over it, and [`sweep_seeds`]
//! summarizes a scalar across it — quantifying how sensitive a result is
//! to the random inputs, something the paper (single dataset, unspecified
//! repetition count) cannot show.

use gocast_analysis::Summary;

use crate::options::ExpOptions;

// Shared with the lane kernel's intra-run parallelism: one audited
// implementation, merging results in submission order.
pub use gocast_sim::parallel_map;

/// The option sets of `seeds` consecutive seeds starting at `opts.seed`.
///
/// # Panics
///
/// Panics if `seeds == 0`.
pub fn seeded(opts: &ExpOptions, seeds: u64) -> impl Iterator<Item = ExpOptions> + '_ {
    assert!(seeds > 0, "need at least one seed");
    (0..seeds).map(|i| opts.clone().with_seed(opts.seed.wrapping_add(i)))
}

/// Runs `f` once per seed of [`seeded`], across `opts.effective_jobs()`
/// worker threads. Results come back in seed order, so output is
/// byte-identical at any job count. `f` must be deterministic given the
/// options (every runner is).
///
/// # Panics
///
/// Panics if `seeds == 0` or if a worker thread panics.
pub fn per_seed<T: Send>(
    opts: &ExpOptions,
    seeds: u64,
    f: impl Fn(&ExpOptions) -> T + Sync,
) -> Vec<T> {
    let runs: Vec<ExpOptions> = seeded(opts, seeds).collect();
    parallel_map(opts.effective_jobs(), runs, |_, o| f(&o))
}

/// [`per_seed`] over a scalar, summarized.
///
/// ```no_run
/// use gocast::GoCastConfig;
/// use gocast_experiments::{runners, sweep::sweep_seeds, ExpOptions, Proto};
///
/// let s = sweep_seeds(&ExpOptions::quick().with_jobs(4), 5, |o| {
///     runners::run_delay(o, Proto::GoCast(GoCastConfig::default()), 0.0)
///         .per_node_avg
///         .mean()
///         .as_secs_f64()
/// });
/// println!("mean delay across 5 topologies: {s}");
/// ```
pub fn sweep_seeds(
    opts: &ExpOptions,
    seeds: u64,
    f: impl Fn(&ExpOptions) -> f64 + Sync,
) -> Summary {
    Summary::from_values(&per_seed(opts, seeds, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_varies_seed_and_summarizes() {
        let opts = ExpOptions::quick();
        let s = sweep_seeds(&opts, 4, |o| o.seed as f64);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, opts.seed as f64);
        assert_eq!(s.max, opts.seed as f64 + 3.0);
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        // Deliberately uneven work so completion order differs from
        // submission order; results must still come back sorted.
        let items: Vec<u64> = (0..32).collect();
        for jobs in [1, 2, 4, 7] {
            let out = parallel_map(jobs, items.clone(), |i, v| {
                if v % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                assert_eq!(i as u64, v);
                v * 10
            });
            assert_eq!(
                out,
                (0..32).map(|v| v * 10).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscribed() {
        let out: Vec<u32> = parallel_map(8, Vec::<u32>::new(), |_, v| v);
        assert!(out.is_empty());
        let out = parallel_map(64, vec![1u32, 2], |_, v| v + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn sweep_is_identical_at_any_job_count() {
        let serial = sweep_seeds(&ExpOptions::quick(), 6, |o| (o.seed * 3) as f64);
        let parallel = sweep_seeds(&ExpOptions::quick().with_jobs(4), 6, |o| {
            (o.seed * 3) as f64
        });
        assert_eq!(serial.mean, parallel.mean);
        assert_eq!(serial.min, parallel.min);
        assert_eq!(serial.max, parallel.max);
    }

    #[test]
    fn sweep_runs_real_protocol_across_seeds() {
        // Tiny end-to-end sweep: GoCast mean delay over 2 topologies,
        // exercising the threaded path.
        let mut opts = ExpOptions::quick().with_jobs(2);
        opts.nodes = 32;
        opts.sites = 32;
        opts.warmup = std::time::Duration::from_secs(10);
        opts.messages = 3;
        opts.rate = 3.0;
        opts.drain = std::time::Duration::from_secs(10);
        let s = sweep_seeds(&opts, 2, |o| {
            crate::runners::run_delay(
                o,
                crate::runners::Proto::GoCast(gocast::GoCastConfig::default()),
                0.0,
            )
            .per_node_avg
            .mean()
            .as_secs_f64()
        });
        assert!(s.mean > 0.0 && s.mean < 2.0, "implausible delay {s}");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        let _ = sweep_seeds(&ExpOptions::quick(), 0, |_| 0.0);
    }
}
