//! Experiment options shared by the CLI, the library and the tests.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Which protocol stack an experiment drives.
///
/// Every stack implements [`gocast_sim::Stack`] on the same kernel, so a
/// run differs *only* in the protocol: network model, seeds, fault
/// scenario, and metrics pipeline are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StackKind {
    /// The paper's protocol (default; keeps the CLI's historic behavior).
    #[default]
    GoCast,
    /// Plumtree dissemination over HyParView membership.
    Plumtree,
}

impl StackKind {
    /// Every selectable stack, in CLI listing order.
    pub const ALL: [StackKind; 2] = [StackKind::GoCast, StackKind::Plumtree];

    /// Stable CLI/trace name.
    pub const fn name(self) -> &'static str {
        match self {
            StackKind::GoCast => "gocast",
            StackKind::Plumtree => "plumtree",
        }
    }

    /// Parses the name accepted by `--stack`.
    pub fn parse(s: &str) -> Option<Self> {
        StackKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for StackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The most worker threads `--jobs` or `--sim-shards` may ask for: a
/// `--jobs` thread runs a whole simulation at once, so a larger count
/// buys no speed on any host this runs on and multiplies the memory in
/// use, and a `--sim-shards` count is clamped only to the node count.
pub const MAX_JOBS: usize = 256;

/// Scale and output parameters for a run.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Number of nodes (paper default 1,024).
    pub nodes: usize,
    /// Number of latency sites (paper: 1,740 from the King dataset).
    pub sites: usize,
    /// Master seed.
    pub seed: u64,
    /// Overlay adaptation time before measurement (paper: 500 s).
    pub warmup: Duration,
    /// Number of multicast messages to inject (paper: 1,000).
    pub messages: u32,
    /// Injection rate in messages/second (paper: 100).
    pub rate: f64,
    /// Time to keep simulating after the last injection.
    pub drain: Duration,
    /// Where CSV files go (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Where to stream the causal JSONL trace (`None` = tracing off).
    ///
    /// When several runs happen in one process, the second and later
    /// traces go to `<stem>.<k>.<ext>` so no run clobbers another.
    pub trace_out: Option<PathBuf>,
    /// Where to stream periodic metrics snapshots as JSONL (`None` =
    /// metrics streaming off). Like traces, later runs in one process go
    /// to `<stem>.<k>.<ext>`.
    pub metrics_out: Option<PathBuf>,
    /// Worker threads for multi-run experiments (`--jobs N`).
    ///
    /// Each simulation run is seeded, so results are identical at any job
    /// count; parallelism only changes which CPU core a run lands on. The
    /// default of 1 keeps the fully serial path.
    pub jobs: usize,
    /// Which protocol stack to run (`--stack`; default GoCast).
    pub stack: StackKind,
    /// Event-loop shards for the wire-side fabric (`--shards N` on the
    /// `testnet` subcommand). 1 (the default) is the single-threaded
    /// fabric; simulation subcommands ignore it.
    pub shards: usize,
    /// Worker threads *inside each simulation* (`--sim-shards N`, on every
    /// simulated subcommand; the CLI refuses more than [`MAX_JOBS`]).
    /// Unlike `jobs` (which fans independent runs out) this parallelizes
    /// a single run; results are byte-identical at any value. 1 (the
    /// default) runs one worker on the caller's thread.
    pub sim_shards: usize,
    /// Concurrent logical topics for the application-tier subcommands
    /// (`pubsub`, `crdt`; `--topics N`). Protocol-level experiments
    /// ignore it.
    pub topics: u32,
}

/// Which scale flags the command line set (`--quick` sets all five).
/// Kept beside [`ExpOptions`] rather than inside it: comparing a field
/// with its default cannot tell `--messages 1000` from no flag at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GivenFlags {
    /// `--nodes` was given.
    pub nodes: bool,
    /// `--messages` was given.
    pub messages: bool,
    /// `--rate` was given.
    pub rate: bool,
    /// `--warmup` was given.
    pub warmup: bool,
    /// `--drain` was given.
    pub drain: bool,
}

impl GivenFlags {
    /// Every scale flag given (what `--quick` means).
    pub const ALL: GivenFlags = GivenFlags {
        nodes: true,
        messages: true,
        rate: true,
        warmup: true,
        drain: true,
    };
}

/// The five scale fields a subcommand may re-default
/// ([`ExpOptions::scaled_to`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Node count.
    pub nodes: usize,
    /// Messages to inject.
    pub messages: u32,
    /// Injection rate, messages/second.
    pub rate: f64,
    /// Warm-up time.
    pub warmup: Duration,
    /// Drain time.
    pub drain: Duration,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            nodes: 1024,
            sites: 1740,
            seed: 42,
            warmup: Duration::from_secs(500),
            messages: 1000,
            rate: 100.0,
            drain: Duration::from_secs(40),
            out_dir: Some(PathBuf::from("results")),
            trace_out: None,
            metrics_out: None,
            jobs: 1,
            stack: StackKind::GoCast,
            shards: 1,
            sim_shards: 1,
            topics: 8,
        }
    }
}

impl ExpOptions {
    /// A reduced-scale preset that exercises every code path in seconds —
    /// used by `--quick` and the integration tests. The
    /// *shape* of the results (who wins, roughly by how much) already
    /// shows at this scale; absolute numbers belong to the full runs.
    pub fn quick() -> Self {
        ExpOptions {
            nodes: 128,
            sites: 256,
            warmup: Duration::from_secs(60),
            messages: 50,
            rate: 25.0,
            drain: Duration::from_secs(30),
            out_dir: None,
            ..ExpOptions::default()
        }
    }

    /// The `scale` subcommand's full-scale preset: 10⁵ nodes on the
    /// sharded kernel with an injection workload sized so the run
    /// finishes in minutes rather than hours. `--nodes`, `--warmup`,
    /// `--messages`, `--rate`, `--drain`, and `--sim-shards` all override
    /// individual fields; `--quick` replaces the preset wholesale.
    pub fn scale() -> Self {
        ExpOptions {
            nodes: 100_000,
            warmup: Duration::from_secs(60),
            messages: 20,
            rate: 2.0,
            drain: Duration::from_secs(30),
            ..ExpOptions::default()
        }
    }

    /// Selects the protocol stack (builder style).
    pub fn with_stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    /// Scales node count (builder style).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (builder style); the CLI refuses more
    /// than [`MAX_JOBS`].
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the worker-thread count inside each simulation (builder
    /// style); the CLI refuses more than [`MAX_JOBS`].
    pub fn with_sim_shards(mut self, sim_shards: usize) -> Self {
        self.sim_shards = sim_shards.max(1);
        self
    }

    /// Sets the application-tier topic count (builder style).
    pub fn with_topics(mut self, topics: u32) -> Self {
        self.topics = topics.max(1);
        self
    }

    /// This option set at a subcommand's own scale: every scale field the
    /// command line did not set (`given`) takes `scale`'s value, every
    /// explicit flag wins — even one that repeats the simulation default.
    /// The one defaulting rule of the wall-clock subcommands (`testnet`,
    /// the `pubsub`/`crdt` wire replay, `metrics`).
    pub fn scaled_to(&self, given: &GivenFlags, scale: &Scale) -> ExpOptions {
        let mut o = self.clone();
        if !given.nodes {
            o.nodes = scale.nodes;
        }
        if !given.messages {
            o.messages = scale.messages;
        }
        if !given.rate {
            o.rate = scale.rate;
        }
        if !given.warmup {
            o.warmup = scale.warmup;
        }
        if !given.drain {
            o.drain = scale.drain;
        }
        o
    }

    /// The job count multi-run experiments should actually use.
    ///
    /// Tracing and metrics streaming number their per-run output files in
    /// run-start order, so either one forces the invocation serial to
    /// keep file naming (and any interleaving of streams) deterministic.
    pub fn effective_jobs(&self) -> usize {
        if self.trace_out.is_some() || self.metrics_out.is_some() {
            1
        } else {
            self.jobs.max(1)
        }
    }

    /// Injection duration implied by `messages` and `rate`.
    pub fn inject_duration(&self) -> Duration {
        Duration::from_secs_f64(self.messages as f64 / self.rate)
    }

    /// The provenance manifest stamped on every artifact this option set
    /// produces. `scenario` names the fault scenario, when one applies.
    pub fn manifest(&self, scenario: Option<&str>) -> gocast_metrics::RunManifest {
        gocast_metrics::RunManifest {
            git_sha: gocast_metrics::RunManifest::detect_git_sha().to_string(),
            host: gocast_metrics::RunManifest::detect_host().to_string(),
            stack: self.stack.name().to_string(),
            seed: self.seed,
            nodes: self.nodes,
            messages: self.messages,
            rate: self.rate,
            scenario: scenario.map(str::to_string),
            topics: None,
            workload: None,
        }
    }

    /// [`ExpOptions::manifest`] extended with the application-tier
    /// provenance the `pubsub`/`crdt` subcommands stamp: topic count and
    /// workload name.
    pub fn manifest_for_workload(
        &self,
        workload: &str,
        scenario: Option<&str>,
    ) -> gocast_metrics::RunManifest {
        let mut m = self.manifest(scenario);
        m.topics = Some(self.topics as usize);
        m.workload = Some(workload.to_string());
        m
    }

    /// Writes `table` as `<name>.csv` under `out_dir`, if set, headed by
    /// the run-provenance manifest comment.
    pub fn write_csv(&self, name: &str, table: &gocast_analysis::Table) {
        self.write_csv_for_scenario(name, table, None);
    }

    /// [`ExpOptions::write_csv`] with the scenario recorded in the
    /// manifest comment.
    pub fn write_csv_for_scenario(
        &self,
        name: &str,
        table: &gocast_analysis::Table,
        scenario: Option<&str>,
    ) {
        self.write_csv_stamped(name, table, &self.manifest(scenario));
    }

    /// [`ExpOptions::write_csv`] with the full application-tier manifest
    /// (workload, topic count, scenario) in the comment.
    pub fn write_csv_for_workload(
        &self,
        name: &str,
        table: &gocast_analysis::Table,
        workload: &str,
        scenario: Option<&str>,
    ) {
        self.write_csv_stamped(name, table, &self.manifest_for_workload(workload, scenario));
    }

    fn write_csv_stamped(
        &self,
        name: &str,
        table: &gocast_analysis::Table,
        manifest: &gocast_metrics::RunManifest,
    ) {
        if let Some(dir) = &self.out_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = table.write_csv_with_comment(&path, Some(&manifest.csv_comment())) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = ExpOptions::default();
        assert_eq!(o.nodes, 1024);
        assert_eq!(o.sites, 1740);
        assert_eq!(o.warmup, Duration::from_secs(500));
        assert_eq!(o.messages, 1000);
        assert_eq!(o.rate, 100.0);
    }

    #[test]
    fn inject_duration_follows_rate() {
        let o = ExpOptions::default();
        assert_eq!(o.inject_duration(), Duration::from_secs(10));
        let q = ExpOptions::quick();
        assert_eq!(q.inject_duration(), Duration::from_secs(2));
    }

    #[test]
    fn jobs_default_serial_and_trace_forces_serial() {
        let o = ExpOptions::default();
        assert_eq!(o.jobs, 1);
        assert_eq!(o.effective_jobs(), 1);
        let o = o.with_jobs(4);
        assert_eq!(o.effective_jobs(), 4);
        let mut traced = o.clone();
        traced.trace_out = Some(PathBuf::from("t.jsonl"));
        assert_eq!(traced.effective_jobs(), 1, "tracing forces serial");
        let mut streamed = o.clone();
        streamed.metrics_out = Some(PathBuf::from("m.jsonl"));
        assert_eq!(
            streamed.effective_jobs(),
            1,
            "metrics streaming forces serial"
        );
        assert_eq!(ExpOptions::default().with_jobs(0).jobs, 1, "clamped");
    }

    #[test]
    fn scaled_to_keeps_given_flags_even_at_the_default_value() {
        let wire = Scale {
            nodes: 16,
            messages: 200,
            rate: 25.0,
            warmup: Duration::from_secs(3),
            drain: Duration::from_secs(3),
        };
        let unset = ExpOptions::default().scaled_to(&GivenFlags::default(), &wire);
        assert_eq!((unset.nodes, unset.messages), (16, 200));
        assert_eq!((unset.rate, unset.warmup), (25.0, Duration::from_secs(3)));
        // `--messages 1000 --rate 100` repeat the simulation defaults and
        // must still win; the unset fields still drop to wire scale.
        let given = GivenFlags {
            messages: true,
            rate: true,
            ..GivenFlags::default()
        };
        let o = ExpOptions::default().scaled_to(&given, &wire);
        assert_eq!((o.messages, o.rate), (1000, 100.0));
        assert_eq!((o.nodes, o.drain), (16, Duration::from_secs(3)));
        let quick = ExpOptions::quick().scaled_to(&GivenFlags::ALL, &wire);
        assert_eq!(quick.nodes, 128, "--quick counts as setting every field");
    }

    #[test]
    fn manifest_reflects_options_and_scenario() {
        let m = ExpOptions::quick().manifest(Some("churn"));
        assert_eq!(m.stack, "gocast");
        assert_eq!(m.seed, 42);
        assert_eq!(m.nodes, 128);
        assert_eq!(m.scenario.as_deref(), Some("churn"));
        assert_eq!(m.topics, None, "protocol manifests carry no app fields");
        assert_eq!(m.workload, None);
        assert!(m.csv_comment().starts_with("# gocast-run git="));
    }

    #[test]
    fn workload_manifest_carries_topics_and_name() {
        let m = ExpOptions::quick()
            .with_topics(12)
            .manifest_for_workload("crdt", Some("partition"));
        assert_eq!(m.topics, Some(12));
        assert_eq!(m.workload.as_deref(), Some("crdt"));
        assert!(m.csv_comment().contains(" topics=12 workload=crdt"));
        assert_eq!(ExpOptions::quick().topics, 8, "preset default");
        assert_eq!(ExpOptions::quick().with_topics(0).topics, 1, "clamped");
    }

    #[test]
    fn scale_preset_targets_the_sharded_kernel() {
        let s = ExpOptions::scale();
        assert_eq!(s.nodes, 100_000);
        assert_eq!(s.sim_shards, 1, "serial by default; --sim-shards opts in");
        assert!(s.inject_duration() <= Duration::from_secs(10));
        assert_eq!(ExpOptions::scale().with_sim_shards(0).sim_shards, 1);
        assert_eq!(ExpOptions::scale().with_sim_shards(4).sim_shards, 4);
    }

    #[test]
    fn quick_is_small() {
        let q = ExpOptions::quick();
        assert!(q.nodes <= 256);
        assert!(q.out_dir.is_none());
    }

    #[test]
    fn stack_names_round_trip_and_default_is_gocast() {
        assert_eq!(ExpOptions::default().stack, StackKind::GoCast);
        for k in StackKind::ALL {
            assert_eq!(StackKind::parse(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(StackKind::parse("chord"), None);
        assert_eq!(
            ExpOptions::quick().with_stack(StackKind::Plumtree).stack,
            StackKind::Plumtree
        );
    }
}
