//! Head-to-head stack comparison: GoCast vs Plumtree under identical
//! chaos conditions.
//!
//! The `compare` subcommand runs every selected chaos preset through
//! **both** protocol stacks with the *same* network, bootstrap graph
//! shape, scenario plan, seeds, injection schedule, invariant oracle
//! (capability-gated per stack), and end-of-run audit — so any difference
//! in the numbers is attributable to the protocols, not the harness. For
//! each `(preset, seed)` cell it reports, side by side: delivery ratio,
//! mean causal hop count, recovery fraction (deliveries that needed the
//! pull/graft path), mean tree-repair time, orphan-spell statistics, and
//! oracle violations.
//!
//! Each cell is two runs of the `chaos` configuration of
//! [`crate::pipeline`], so the table and `compare.csv` are byte-identical
//! at any `--jobs` count (asserted by the integration tests).

use gocast_analysis::Table;
use gocast_sim::Scenario;

use crate::chaos::{resolve_scenario, run_chaos, ChaosOutcome};
use crate::options::{ExpOptions, StackKind};
use crate::report::{table_of, Column};
use crate::sweep::{parallel_map, seeded};

/// The presets `compare` runs by default: the three fault families the
/// paper's dependability story rests on (continuous churn, a network
/// split that heals, and a correlated mass leave/rejoin).
pub const COMPARE_PRESETS: &[&str] = &["churn", "partition", "flashcrowd"];

/// One `(preset, seed)` cell of the comparison: the same chaos run
/// through both stacks.
#[derive(Debug)]
pub struct CompareRow {
    /// The preset name this cell ran.
    pub preset: String,
    /// The GoCast outcome.
    pub gocast: ChaosOutcome,
    /// The Plumtree outcome (same scenario plan and seed).
    pub plumtree: ChaosOutcome,
}

impl CompareRow {
    /// The seed both outcomes in this cell used.
    pub fn seed(&self) -> u64 {
        debug_assert_eq!(self.gocast.seed, self.plumtree.seed);
        self.gocast.seed
    }
}

/// Runs `presets × seeds × {gocast, plumtree}` chaos experiments, fanned
/// across `opts.effective_jobs()` workers, and pairs the outcomes up per
/// `(preset, seed)`. `opts.stack` is ignored — both stacks always run.
///
/// Returns `Err` if any preset name is unknown (see
/// [`crate::chaos::builtin_names`]).
///
/// # Panics
///
/// Panics if `seeds == 0` or `presets` is empty.
pub fn compare_sweep(
    opts: &ExpOptions,
    presets: &[&str],
    seeds: u64,
) -> Result<Vec<CompareRow>, String> {
    assert!(!presets.is_empty(), "need at least one preset");
    let scenarios: Vec<(String, Scenario)> = presets
        .iter()
        .map(|&p| resolve_scenario(opts, p, None))
        .collect::<Result<_, _>>()?;

    // Submission order is the output order: preset-major, then seed, then
    // stack (GoCast before Plumtree) — fixed regardless of job count.
    let runs: Vec<(usize, ExpOptions)> = (0..scenarios.len())
        .flat_map(|si| seeded(opts, seeds).map(move |o| (si, o)))
        .flat_map(|(si, o)| StackKind::ALL.map(|stack| (si, o.clone().with_stack(stack))))
        .collect();
    let outcomes = parallel_map(opts.effective_jobs(), runs, |_, (si, o)| {
        (si, run_chaos(&o, &scenarios[si].1))
    });

    let mut rows = Vec::with_capacity(outcomes.len() / 2);
    let mut it = outcomes.into_iter();
    while let (Some((si, gocast)), Some((_, plumtree))) = (it.next(), it.next()) {
        debug_assert_eq!(gocast.stack, "gocast");
        debug_assert_eq!(plumtree.stack, "plumtree");
        rows.push(CompareRow {
            preset: scenarios[si].0.clone(),
            gocast,
            plumtree,
        });
    }
    Ok(rows)
}

/// Formats comparison rows as the side-by-side table `compare` prints and
/// writes as `compare.csv`. Column names are prefixed `go_` / `pt_`.
pub fn compare_table(rows: &[CompareRow]) -> Table {
    let columns: [Column<'_, CompareRow>; 13] = [
        ("preset", &|r| r.preset.clone()),
        ("seed", &|r| r.seed().to_string()),
        ("faults", &|r| r.gocast.plan_len.to_string()),
        ("go_ratio", &|r| format!("{:.4}", r.gocast.delivery_ratio())),
        ("pt_ratio", &|r| {
            format!("{:.4}", r.plumtree.delivery_ratio())
        }),
        ("go_mean_hops", &|r| {
            format!("{:.2}", r.gocast.ledger().mean_hops())
        }),
        ("pt_mean_hops", &|r| {
            format!("{:.2}", r.plumtree.ledger().mean_hops())
        }),
        ("go_recovery_frac", &|r| {
            format!("{:.4}", r.gocast.ledger().recovery_fraction())
        }),
        ("pt_recovery_frac", &|r| {
            format!("{:.4}", r.plumtree.ledger().recovery_fraction())
        }),
        ("go_repair_ms", &|r| r.gocast.mean_repair_ms()),
        ("pt_repair_ms", &|r| r.plumtree.mean_repair_ms()),
        ("go_violations", &|r| r.gocast.violations.to_string()),
        ("pt_violations", &|r| r.plumtree.violations.to_string()),
    ];
    table_of(&columns, rows)
}

/// The `compare` subcommand: run GoCast and Plumtree head-to-head over
/// the selected presets (all of [`COMPARE_PRESETS`] unless the caller
/// narrows it with `--scenario`) and `seeds` consecutive seeds, print the
/// side-by-side table, and write `compare.csv`. Returns the rows for
/// programmatic use (the CLI exits nonzero if any run had an oracle
/// violation), or the scenario resolver's error.
pub fn compare(opts: &ExpOptions, presets: &[&str], seeds: u64) -> Result<Vec<CompareRow>, String> {
    eprintln!(
        "compare gocast vs plumtree: {} nodes, {} messages, {} seed(s), presets [{}] ...",
        opts.nodes,
        opts.messages,
        seeds,
        presets.join(", "),
    );
    let rows = compare_sweep(opts, presets, seeds)?;
    let table = compare_table(&rows);
    println!("{table}");
    opts.write_csv("compare", &table);

    let violations: usize = rows
        .iter()
        .map(|r| r.gocast.violations + r.plumtree.violations)
        .sum();
    for r in &rows {
        for o in [&r.gocast, &r.plumtree] {
            o.oracle_gate(&format!("{} {} seed {}", r.preset, o.stack, o.seed));
        }
    }
    let worst = |pick: fn(&CompareRow) -> &ChaosOutcome| {
        rows.iter()
            .map(|r| pick(r).delivery_ratio())
            .fold(f64::INFINITY, f64::min)
    };
    println!(
        "worst-seed delivery ratio: gocast {:.4}, plumtree {:.4}; oracle: {} violation(s)",
        worst(|r| &r.gocast),
        worst(|r| &r.plumtree),
        violations,
    );
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        let mut opts = ExpOptions::quick();
        opts.nodes = 24;
        opts.sites = 24;
        opts.warmup = std::time::Duration::from_secs(10);
        opts.messages = 4;
        opts.rate = 2.0;
        opts.drain = std::time::Duration::from_secs(15);
        opts
    }

    #[test]
    fn compare_pairs_stacks_per_preset_and_seed() {
        let rows = compare_sweep(&tiny(), &["baseline"], 2).unwrap();
        assert_eq!(rows.len(), 2);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.preset, "baseline");
            assert_eq!(r.seed(), 42 + i as u64);
            assert_eq!(r.gocast.stack, "gocast");
            assert_eq!(r.plumtree.stack, "plumtree");
            assert_eq!(r.gocast.injected, r.plumtree.injected);
            assert_eq!(r.gocast.violations, 0);
            assert_eq!(r.plumtree.violations, 0);
        }
        let table = compare_table(&rows);
        assert_eq!(table.rows(), 2);
    }

    #[test]
    fn compare_rejects_unknown_preset() {
        let err = compare_sweep(&tiny(), &["churn", "nope"], 1).unwrap_err();
        assert!(err.contains("nope"));
    }
}
