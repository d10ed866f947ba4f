//! Chaos runs: scenario-driven churn, correlated failures and partitions.
//!
//! The `chaos` subcommand drives a protocol stack (GoCast by default,
//! Plumtree via `--stack plumtree`; the configuration is generic over the
//! stack) through a [`gocast_sim::Scenario`] — either one
//! of the built-in presets ([`builtin_scenario`]) or an ad-hoc spec
//! string ([`parse_spec`]) — and measures how dissemination *degrades and
//! recovers*:
//!
//! - **delivery ratio**, audited end-of-run against message stores: a node
//!   owes a delivery exactly when the scenario plan says it was present at
//!   injection time and never departed afterwards;
//! - **sliding-window delivery ratios** over injection time, showing the
//!   dip-and-recover shape around fault bursts;
//! - **tree-repair time** after each labelled fault burst: how long until
//!   ≥ [`REPAIR_FRAC`] of the nodes that should be present are attached to
//!   the dissemination tree again;
//! - **orphan spells**: how long nodes spend detached from the tree;
//! - the online [`InvariantOracle`], checking protocol safety invariants
//!   (no duplicate delivery, no delivery before injection, degree bounds,
//!   no pull of a held message) *while the faults are active*.
//!
//! [`ChaosOutcome::summary_string`] deliberately excludes wall-clock
//! counters, so the same options replay to a byte-identical summary (see
//! [`crate::pipeline`] for the determinism contract).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Deref;
use std::time::Duration;

use gocast::GoCastConfig;
use gocast_analysis::{
    fmt_ms, fmt_secs, DeliveryTracker, InvariantOracle, MetricsRecorder, OracleConfig, WindowRatio,
};
use gocast_plumtree::PlumtreeNode;
use gocast_sim::{NodeId, Scenario, SimTime, Split, Stack};

use crate::options::{ExpOptions, StackKind};
use crate::pipeline::{
    audited_gocast, bootstrapped, build_network, compile_plan, gocast_nodes, horizon, Run, RunCore,
    RunRecorder, RunStack, Sources,
};
use crate::report::{kernel_digest, table_of, whole_ms, Column};
use crate::sweep::per_seed;

/// Sampling period for the tree-attachment time series.
pub const SLICE: Duration = Duration::from_millis(500);

/// A fault burst counts as repaired once this fraction of the nodes that
/// should be present are attached to the tree (parent set, or root).
pub const REPAIR_FRAC: f64 = 0.99;

/// Repair measurement for one labelled fault burst.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstRepair {
    /// When the burst fired.
    pub at: SimTime,
    /// The plan's burst label (e.g. `partition`, `crash-group(3):7`).
    pub label: String,
    /// Time from the burst until tree attachment recovered above
    /// [`REPAIR_FRAC`] (`None`: never within the run).
    pub repair: Option<Duration>,
}

/// Everything one seeded chaos run produces.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Injected messages, planned faults, the oracle's verdict, kernel
    /// counters and the final combined metrics snapshot.
    pub core: RunCore,
    /// Name of the stack that ran ([`Stack::NAME`]).
    pub stack: &'static str,
    /// The seed this run used.
    pub seed: u64,
    /// Sliding-window delivery ratios over injection time.
    pub windows: Vec<WindowRatio>,
    /// Tree-repair time after each labelled burst.
    pub repairs: Vec<BurstRepair>,
    /// The run's ledger: deliveries, hops, pulls and orphan spells.
    pub metrics: MetricsRecorder,
}

impl Deref for ChaosOutcome {
    type Target = RunCore;

    fn deref(&self) -> &RunCore {
        &self.core
    }
}

impl ChaosOutcome {
    /// The run's delivery ledger.
    pub fn ledger(&self) -> &DeliveryTracker {
        self.metrics.delivery()
    }

    /// [`ChaosOutcome::mean_repair`] in whole milliseconds (`-`: none).
    pub fn mean_repair_ms(&self) -> String {
        self.mean_repair().map_or("-".into(), whole_ms)
    }

    /// Mean repair time over bursts that did recover within the run.
    pub fn mean_repair(&self) -> Option<Duration> {
        let done: Vec<Duration> = self.repairs.iter().filter_map(|r| r.repair).collect();
        if done.is_empty() {
            return None;
        }
        Some(done.iter().sum::<Duration>() / done.len() as u32)
    }

    /// A deterministic one-line digest of the run: every simulation-domain
    /// number, and *no* wall-clock quantity — replaying the same options
    /// must yield the byte-identical string (the integration tests assert
    /// this).
    pub fn summary_string(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "stack={} seed={} plan={} injected={} expected={} delivered={} ratio={:.6} \
             hops={}/{} pulls={}/{}",
            self.stack,
            self.seed,
            self.plan_len,
            self.injected,
            self.expected,
            self.delivered,
            self.delivery_ratio(),
            self.ledger().hop_sum(),
            self.ledger().hops(),
            self.ledger().pull_deliveries(),
            self.ledger().delivered(),
        );
        for w in &self.windows {
            let _ = write!(
                s,
                " w[{}ms]={}/{}",
                w.start.as_nanos() / 1_000_000,
                w.delivered,
                w.expected
            );
        }
        for r in &self.repairs {
            let at_ms = r.at.as_nanos() / 1_000_000;
            let took = r
                .repair
                .map_or("never".into(), |d| format!("{}ms", d.as_millis()));
            let _ = write!(s, " repair[{}@{at_ms}ms]={took}", r.label);
        }
        let _ = write!(
            s,
            " orphans={} mean={}ms max={}ms oracle={}/{} {}",
            self.metrics.orphans().spells(),
            self.metrics.orphans().mean_spell().as_millis(),
            self.metrics.orphans().max_spell().as_millis(),
            self.violations,
            self.oracle_records,
            kernel_digest(&self.kernel),
        );
        s
    }
}

/// Runs one seeded chaos experiment for [`ExpOptions::stack`].
///
/// Both stacks get the same network, bootstrap graph shape, scenario
/// plan, seeds, injection schedule, and audit; only the protocol differs.
/// Stack-specific oracle checks are gated by [`Stack::capabilities`]
/// (Plumtree keeps no degree-bounded random/nearby split, so those checks
/// are skipped for it; the universal no-early/no-duplicate-delivery
/// checks always apply). Message stores keep everything for the
/// end-of-run audit ([`audited_gocast`]).
pub fn run_chaos(opts: &ExpOptions, scenario: &Scenario) -> ChaosOutcome {
    match opts.stack {
        StackKind::GoCast => {
            let cfg = audited_gocast();
            let oracle = InvariantOracle::for_protocol(&cfg);
            chaos_phases(opts, scenario, oracle, gocast_nodes(opts, &cfg))
        }
        StackKind::Plumtree => {
            // Plumtree's active view matches GoCast's total degree, so both
            // stacks boot from the same bootstrap graph shape.
            let cfg = GoCastConfig::default();
            let ocfg = OracleConfig::for_protocol(&cfg).with_caps(&PlumtreeNode::capabilities());
            let make = bootstrapped(opts, cfg.c_degree() / 2, PlumtreeNode::with_initial_links);
            chaos_phases(opts, scenario, InvariantOracle::new(ocfg), make)
        }
    }
}

/// The chaos configuration of the pipeline, generic over the stack: the
/// engine over the synthetic-King matrix (site groups make group faults
/// correlated site failures), the scenario compiled and scheduled after
/// warm-up, presence-gated sources, tree attachment sampled every
/// [`SLICE`], and a presence-aware store audit.
fn chaos_phases<S: RunStack>(
    opts: &ExpOptions,
    scenario: &Scenario,
    oracle: InvariantOracle,
    make: impl FnMut(NodeId) -> S,
) -> ChaosOutcome {
    let net = build_network(opts);
    let plan = compile_plan(opts, scenario, net.site_assignment());
    let presence = plan.presence();
    let recorder = RunRecorder::for_opts(opts, &opts.manifest(None), Some(oracle));
    let mut run = Run::new(opts, net, false, recorder, make);
    run.warm(opts.warmup);
    run.schedule(&plan);
    let start = run.inject_multicasts(opts, &Sources::Present(&presence));

    // Fraction of should-be-present, alive nodes attached to the stack's
    // dissemination structure, per slice — what repair times are read off.
    let mut samples: Vec<(SimTime, f64)> = Vec::new();
    run.observe_every(horizon(opts, start, Some(&plan)), SLICE, |sim, t| {
        let (mut present, mut attached) = (0u32, 0u32);
        for (id, node) in sim.iter_nodes() {
            if presence.present(id, t) && sim.is_alive(id) {
                present += 1;
                attached += u32::from(node.attached());
            }
        }
        let frac = if present == 0 {
            1.0
        } else {
            f64::from(attached) / f64::from(present)
        };
        samples.push((t, frac));
    });

    // A node owes a delivery of message `m` iff the plan says it was
    // present when `m` was injected and never departed afterwards.
    let (core, windows) = run.finish_audited(plan.len(), |n, at| presence.present_from(n, at));

    let repairs: Vec<BurstRepair> = plan
        .bursts()
        .iter()
        .map(|(at, label)| BurstRepair {
            at: *at,
            label: label.clone(),
            repair: samples
                .iter()
                .find(|(t, f)| t >= at && *f >= REPAIR_FRAC)
                .map(|(t, _)| t.saturating_since(*at)),
        })
        .collect();
    ChaosOutcome {
        core,
        stack: S::NAME,
        seed: opts.seed,
        windows,
        repairs,
        metrics: std::mem::take(&mut run.sim.recorder_mut().metrics),
    }
}

/// Runs `run_chaos` across `seeds` consecutive seeds ([`per_seed`]).
pub fn chaos_sweep(opts: &ExpOptions, scenario: &Scenario, seeds: u64) -> Vec<ChaosOutcome> {
    per_seed(opts, seeds, |o| run_chaos(o, scenario))
}

/// The built-in scenario presets, keyed by `--scenario` name. Each is
/// sized relative to the option set's injection window (at least 30 s of
/// fault activity), so `--quick` runs stay quick. Returns `None` for an
/// unknown name; [`builtin_names`] lists the valid ones.
pub fn builtin_scenario(name: &str, opts: &ExpOptions) -> Option<Scenario> {
    let span = opts.inject_duration().max(Duration::from_secs(30));
    let crowd = (opts.nodes / 8).max(2);
    Some(match name {
        // Fault-free control: the scenario machinery runs but injects
        // nothing. Useful as the conformance/chaos reference point.
        "baseline" => Scenario::new(),
        // Paper §4 "dependability under churn": continuous Poisson
        // leave/rejoin at ~12 events/min while messages flow.
        "churn" => Scenario::new().churn(Duration::ZERO, span, 0.2, 0.2),
        // Paper §4.3 correlated failures: a whole site crashes at once
        // (the site of node 1, resolved through the latency matrix).
        "catastrophe" => Scenario::new().crash_group_of_at(span / 4, NodeId::new(1)),
        // Paper §2.4 / txt4 two-continent split: halves partition that
        // heals mid-run.
        "partition" => Scenario::new().partition_at(span / 4, span / 2, Split::Halves),
        // Flash crowd: an eighth of the population leaves, then rejoins
        // simultaneously.
        "flashcrowd" => Scenario::new()
            .mass_leave_at(span / 4, crowd)
            .flash_crowd_at(span / 2, crowd),
        // A degraded network: 1% message loss, 20 ms jitter, light churn.
        "lossy" => Scenario::new()
            .loss_at(Duration::ZERO, 0.01)
            .jitter_at(Duration::ZERO, Duration::from_millis(20))
            .churn(Duration::ZERO, span, 0.05, 0.05),
        _ => return None,
    })
}

/// Names accepted by [`builtin_scenario`].
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "baseline",
        "churn",
        "catastrophe",
        "partition",
        "flashcrowd",
        "lossy",
    ]
}

/// Parses a scenario spec string: semicolon-separated `name(k=v,...)`
/// clauses, times in (fractional) seconds. The grammar (see DESIGN.md
/// "Fault model & scenarios" for the full reference):
///
/// ```text
/// churn(start=S,end=S,leave=R,join=R)   Poisson leave/join over [start,end)
/// massleave(at=S,count=N)               N simultaneous graceful leaves
/// flashcrowd(at=S,count=N)              N simultaneous rejoins
/// crash(at=S,node=I)                    crash one node
/// crashsite(at=S,node=I)                crash node I's whole site
/// partition(at=S,heal=S[,split=halves|group:G])
/// cutlink(at=S,a=I,b=I)  heallink(at=S,a=I,b=I)
/// loss(p=P[,at=S])                      per-message loss probability
/// jitter(ms=M[,at=S])                   max per-message latency jitter
/// protect(node=I)                       exempt from stochastic selection
/// floor(n=N)                            population floor for departures
/// ```
///
/// ```
/// use gocast_experiments::chaos::parse_spec;
///
/// let s = parse_spec(
///     "churn(start=0,end=60,leave=0.5,join=0.5); \
///      partition(at=20,heal=40,split=halves); loss(p=0.01)",
/// )
/// .unwrap();
/// assert_eq!(s.step_count(), 3);
/// assert!(parse_spec("explode(at=1)").is_err());
/// ```
pub fn parse_spec(spec: &str) -> Result<Scenario, String> {
    let mut s = Scenario::new();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (name, rest) = clause
            .split_once('(')
            .ok_or_else(|| format!("clause `{clause}` is not name(k=v,...)"))?;
        let args = rest
            .strip_suffix(')')
            .ok_or_else(|| format!("clause `{clause}` missing closing `)`"))?;
        let mut kv = BTreeMap::new();
        for pair in args.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` in `{clause}` is not k=v"))?;
            kv.insert(k.trim(), v.trim());
        }
        let f = |key| arg::<f64>(&kv, name, key, None);
        let secs_or = |key: &str, default: Option<f64>| -> Result<Duration, String> {
            spec_time(arg(&kv, name, key, default)?).ok_or_else(|| bad_time(key, name))
        };
        let secs = |key| secs_or(key, None);
        let node = |key| arg::<u32>(&kv, name, key, None).map(NodeId::new);
        let count = |key| arg::<usize>(&kv, name, key, None);
        s = match name.trim() {
            "churn" => {
                let (start, end) = (secs_or("start", Some(0.0))?, secs("end")?);
                let (leave, join) = (f("leave")?, f("join")?);
                if end < start {
                    return Err("churn `end` must not precede `start`".into());
                }
                if !(leave.is_finite() && leave >= 0.0 && join.is_finite() && join >= 0.0) {
                    return Err("churn rates must be finite and non-negative".into());
                }
                s.churn(start, end, leave, join)
            }
            "massleave" => s.mass_leave_at(secs("at")?, count("count")?),
            "flashcrowd" => s.flash_crowd_at(secs("at")?, count("count")?),
            "crash" => s.crash_at(secs("at")?, node("node")?),
            "crashsite" => s.crash_group_of_at(secs("at")?, node("node")?),
            "partition" => {
                let (at, heal) = (secs("at")?, secs("heal")?);
                if heal < at {
                    return Err("partition must heal after it forms".into());
                }
                let split = match kv.get("split").copied() {
                    None | Some("halves") => Split::Halves,
                    Some(v) => match v.strip_prefix("group:") {
                        Some(g) => Split::IsolateGroup(
                            g.parse::<u32>()
                                .map_err(|e| format!("partition split: {e}"))?,
                        ),
                        None => return Err(format!("unknown split `{v}` (halves | group:G)")),
                    },
                };
                s.partition_at(at, heal, split)
            }
            "cutlink" => s.cut_link_at(secs("at")?, node("a")?, node("b")?),
            "heallink" => s.heal_link_at(secs("at")?, node("a")?, node("b")?),
            "loss" => {
                let p = f("p")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("loss probability {p} not in 0..=1"));
                }
                s.loss_at(secs_or("at", Some(0.0))?, p)
            }
            "jitter" => {
                let jitter = spec_time(f("ms")? / 1000.0).ok_or_else(|| bad_time("ms", name))?;
                s.jitter_at(secs_or("at", Some(0.0))?, jitter)
            }
            "protect" => s.protect(node("node")?),
            "floor" => s.min_present(count("n")?),
            other => {
                return Err(format!(
                    "unknown clause `{other}` (churn, massleave, flashcrowd, crash, crashsite, \
                     partition, cutlink, heallink, loss, jitter, protect, floor)"
                ))
            }
        };
    }
    Ok(s)
}

/// Longest time a spec may name: a quarter of what [`SimTime`] holds, so
/// warm-up, offset, jitter and drain together cannot overflow the clock.
const SPEC_TIME_MAX: Duration = Duration::from_nanos(u64::MAX / 4);

/// `secs` as a duration, if it is a time a run can represent: finite,
/// non-negative and at most [`SPEC_TIME_MAX`].
fn spec_time(secs: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| *d <= SPEC_TIME_MAX)
}

fn bad_time(key: &str, name: &str) -> String {
    let max = SPEC_TIME_MAX.as_secs();
    format!("`{key}` in `{name}` must be a non-negative time of at most {max} s")
}

/// The clause argument `key=`, parsed as `T`; `default` stands in when the
/// clause omits it.
fn arg<T: std::str::FromStr>(
    kv: &BTreeMap<&str, &str>,
    name: &str,
    key: &str,
    default: Option<T>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match (kv.get(key), default) {
        (Some(v), _) => v.parse().map_err(|e| format!("`{key}` in `{name}`: {e}")),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("`{name}` needs `{key}=`")),
    }
}

/// Resolves `--spec STR` (which wins) or `--scenario NAME` to a label —
/// `spec` or the preset name — and the scenario, checked against
/// `opts.nodes`. The one place a bad spec or an unknown preset is
/// reported; the binary owns the exit code.
pub fn resolve_scenario(
    opts: &ExpOptions,
    name: &str,
    spec: Option<&str>,
) -> Result<(String, Scenario), String> {
    match spec {
        Some(spec) => parse_spec(spec)
            .and_then(|s| s.check_nodes(opts.nodes).map(|()| ("spec".to_string(), s)))
            .map_err(|e| format!("bad --spec: {e}")),
        None => builtin_scenario(name, opts)
            .map(|s| (name.to_string(), s))
            .ok_or_else(|| {
                format!(
                    "unknown scenario `{name}` (one of: {})",
                    builtin_names().join(", ")
                )
            }),
    }
}

/// The `chaos` subcommand: resolve the scenario, run it over `seeds`
/// consecutive seeds, print the per-seed recovery table plus (for a single
/// seed) the windowed delivery-ratio series, and write `chaos.csv` /
/// `chaos_windows.csv`. Returns the outcomes for programmatic use
/// (tests), or the resolver's error.
pub fn chaos(
    opts: &ExpOptions,
    scenario_name: &str,
    spec: Option<&str>,
    seeds: u64,
) -> Result<Vec<ChaosOutcome>, String> {
    let (label, scenario) = resolve_scenario(opts, scenario_name, spec)?;
    eprintln!(
        "chaos `{label}`: {} nodes, {} messages, {} seed(s), {} scenario step(s) ...",
        opts.nodes,
        opts.messages,
        seeds,
        scenario.step_count(),
    );

    let outcomes = chaos_sweep(opts, &scenario, seeds);

    let columns: [Column<'_, ChaosOutcome>; 13] = [
        ("stack", &|o| o.stack.to_string()),
        ("seed", &|o| o.seed.to_string()),
        ("faults", &|o| o.plan_len.to_string()),
        ("injected", &|o| o.injected.to_string()),
        ("expected", &|o| o.expected.to_string()),
        ("delivered", &|o| o.delivered.to_string()),
        ("ratio", &|o| format!("{:.4}", o.delivery_ratio())),
        ("mean_hops", &|o| format!("{:.2}", o.ledger().mean_hops())),
        ("recovery_frac", &|o| {
            format!("{:.4}", o.ledger().recovery_fraction())
        }),
        ("mean_repair_ms", &|o| o.mean_repair_ms()),
        ("orphan_mean_ms", &|o| {
            whole_ms(o.metrics.orphans().mean_spell())
        }),
        ("orphan_max_ms", &|o| {
            whole_ms(o.metrics.orphans().max_spell())
        }),
        ("violations", &|o| o.violations.to_string()),
    ];
    let table = table_of(&columns, &outcomes);
    let scenario_label = spec.unwrap_or(scenario_name);
    println!("{table}");
    opts.write_csv_for_scenario("chaos", &table, Some(scenario_label));

    for o in &outcomes {
        for r in &o.repairs {
            let when = fmt_secs(Duration::from_nanos(r.at.as_nanos()));
            let verdict = r.repair.map_or("NOT repaired within the run".into(), |d| {
                format!("repaired in {} ms", fmt_ms(d))
            });
            let (seed, label) = (o.seed, &r.label);
            println!("  seed {seed}: burst {label} at {when}s: tree {verdict}");
        }
    }

    if outcomes.len() == 1 {
        let o = &outcomes[0];
        let columns: [Column<'_, WindowRatio>; 5] = [
            ("window_start_s", &|w| {
                format!("{:.0}", w.start.as_nanos() as f64 / 1e9)
            }),
            ("injected", &|w| w.injected.to_string()),
            ("expected", &|w| w.expected.to_string()),
            ("delivered", &|w| w.delivered.to_string()),
            ("ratio", &|w| format!("{:.4}", w.ratio())),
        ];
        let wins = table_of(&columns, &o.windows);
        println!("{wins}");
        opts.write_csv_for_scenario("chaos_windows", &wins, Some(scenario_label));
    }

    let worst = outcomes
        .iter()
        .map(|o| o.delivery_ratio())
        .fold(f64::INFINITY, f64::min);
    let violations: usize = outcomes.iter().map(|o| o.violations).sum();
    for o in &outcomes {
        o.oracle_gate(&format!("{} seed {}", o.stack, o.seed));
    }
    println!(
        "worst-seed delivery ratio {:.4}; invariant oracle: {} violation(s) across {} record(s)",
        worst,
        violations,
        outcomes.iter().map(|o| o.oracle_records).sum::<u64>()
    );
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_every_clause() {
        let s = parse_spec(
            "churn(start=1,end=9,leave=0.5,join=0.25); massleave(at=2,count=4); \
             flashcrowd(at=5,count=4); crash(at=3,node=7); crashsite(at=4,node=2); \
             partition(at=1,heal=2,split=group:3); cutlink(at=1,a=0,b=1); \
             heallink(at=2,a=0,b=1); loss(p=0.05,at=1); jitter(ms=15); \
             protect(node=0); floor(n=8)",
        )
        .unwrap();
        // protect/floor configure the scenario without adding steps.
        assert_eq!(s.step_count(), 10);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for (spec, needle) in [
            ("explode(at=1)", "unknown clause"),
            ("churn(start=5,end=1,leave=1,join=1)", "end"),
            ("churn(end=1,leave=x,join=1)", "leave"),
            ("loss(p=1.5)", "0..=1"),
            ("partition(at=5,heal=1)", "heal"),
            ("partition(at=1,heal=2,split=thirds)", "unknown split"),
            ("crash(at=1)", "node="),
            ("jitter(ms=-3)", "non-negative"),
            ("jitter(ms=1e30)", "`ms` in `jitter` must be"),
            ("crash(at=1e30,node=1)", "`at` in `crash` must be"),
            ("loss(p=0.1,at=1e12)", "`at` in `loss`"),
            ("churn at=1", "name(k=v"),
            ("churn(at=1", "closing"),
            ("churn(at)", "k=v"),
        ] {
            let err = parse_spec(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "spec `{spec}`: error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn builtins_compile_at_quick_scale() {
        let opts = ExpOptions::quick();
        let groups: Vec<u32> = (0..opts.nodes as u32).map(|i| i % 8).collect();
        for name in builtin_names() {
            let s = builtin_scenario(name, &opts).unwrap();
            let plan = compile_plan(&opts, &s, &groups);
            // Stochastic presets (churn, lossy) may expand to nothing on an
            // unlucky seed; the deterministic ones always produce faults.
            if matches!(*name, "catastrophe" | "partition" | "flashcrowd") {
                assert!(!plan.is_empty(), "builtin `{name}` expands to no faults");
            }
        }
        assert!(builtin_scenario("nope", &opts).is_none());
    }

    #[test]
    fn every_entry_point_returns_the_resolver_error() {
        use crate::app::{app, Workload};
        use crate::options::GivenFlags;
        let opts = ExpOptions::quick();
        let given = GivenFlags::ALL;
        for (name, spec, needle) in [
            ("nope", None, "unknown scenario `nope`"),
            ("churn", Some("explode(at=1)"), "bad --spec"),
            (
                "churn",
                Some("crash(at=1,node=99999)"),
                "bad --spec: scenario references node 99999",
            ),
            (
                "churn",
                Some("cutlink(at=1,a=1,b=99999)"),
                "bad --spec: scenario references node 99999",
            ),
        ] {
            let errors = [
                chaos(&opts, name, spec, 1).map(|_| ()).unwrap_err(),
                crate::scale::scale(&opts, name, spec).unwrap_err(),
                app(&opts, &given, Workload::PubSub, Some(name), spec).unwrap_err(),
                crate::testnet::testnet(&opts, &given, name, spec).unwrap_err(),
            ];
            for e in errors {
                assert!(e.contains(needle), "`{e}` should mention `{needle}`");
            }
        }
        // `compare` takes preset names only.
        let e = crate::compare::compare(&opts, &["churn", "nope"], 1)
            .map(|_| ())
            .unwrap_err();
        assert!(e.contains("unknown scenario `nope`"), "{e}");
    }

    #[test]
    fn tiny_chaos_run_delivers_and_replays_identically() {
        let mut opts = ExpOptions::quick();
        opts.nodes = 32;
        opts.sites = 32;
        opts.warmup = Duration::from_secs(15);
        opts.messages = 8;
        opts.rate = 2.0;
        opts.drain = Duration::from_secs(20);
        let scenario = parse_spec("churn(start=0,end=4,leave=0.5,join=0.5)").unwrap();
        let a = run_chaos(&opts, &scenario);
        assert_eq!(a.injected, 8);
        assert_eq!(a.violations, 0, "oracle must stay clean under churn");
        assert!(
            a.delivery_ratio() > 0.95,
            "delivery ratio {} too low",
            a.delivery_ratio()
        );
        let b = run_chaos(&opts, &scenario);
        assert_eq!(
            a.summary_string(),
            b.summary_string(),
            "same options must replay byte-identically"
        );
    }

    #[test]
    fn tiny_plumtree_chaos_run_delivers_and_replays_identically() {
        let mut opts = ExpOptions::quick().with_stack(StackKind::Plumtree);
        opts.nodes = 32;
        opts.sites = 32;
        opts.warmup = Duration::from_secs(15);
        opts.messages = 8;
        opts.rate = 2.0;
        opts.drain = Duration::from_secs(20);
        let scenario = parse_spec("churn(start=0,end=4,leave=0.5,join=0.5)").unwrap();
        let a = run_chaos(&opts, &scenario);
        assert_eq!(a.stack, "plumtree");
        assert_eq!(a.injected, 8);
        assert_eq!(a.violations, 0, "oracle must stay clean under churn");
        assert!(
            a.delivery_ratio() > 0.95,
            "delivery ratio {} too low",
            a.delivery_ratio()
        );
        let b = run_chaos(&opts, &scenario);
        assert_eq!(
            a.summary_string(),
            b.summary_string(),
            "same options must replay byte-identically"
        );
    }
}
