//! The benchmark's vocabulary: workload names, the end-to-end metrics
//! with their bounds, and the per-layer metric names. A unit test keeps
//! the root `BENCHMARK.json` equal to these tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What the driver passes as `--seconds`. Every window's size constants
/// are frozen for this value; another value scales the fixed work
/// linearly (same arguments, same work).
pub const RUN_SECONDS: u32 = 12;

/// The gated workloads, in the order `--workload all` runs them: the ones
/// `BENCHMARK.json` lists, whose every end-to-end metric repeats.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "sim_dissem_1k",
        "1024 nodes on the serial kernel, fault-free, 100 multicasts/s: steady tree push and gossip handlers, the paper's Fig. 3(a) regime",
    ),
    (
        "sim_scale_chaos_10k",
        "10000 nodes on the sharded kernel, 10% crashed just before the window: timers, failure detection, repair and pull recovery dominate",
    ),
    (
        "app_topics_1k",
        "TopicMux over 1024 nodes, 32 Zipf topics, 1 KiB publishes and CRDT adds/removes: mux framing, ORSet and anti-entropy, byte-heavy",
    ),
];

/// The attribution workload: 64 nodes on loopback UDP, open loop at 400
/// multicasts/s. It runs like the others (`--workload wire_64`) and is
/// the only one where fabric, batching and codec do the work, but it is
/// gated by nothing and `BENCHMARK.json` does not list it: its latency is
/// wall-clock time on a shared host (per-run medians of 0.42–0.69 ms in
/// six consecutive runs of identical code) over an overlay whose tree the
/// seed does not decide (per-fabric medians a tenth apart).
pub const WIRE: &str = "wire_64";

/// Every name `--workload` takes besides `all`.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.0).chain([WIRE])
}

/// An end-to-end metric: name, unit, which way is better, and the share
/// of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every end-to-end metric but `setup_s` is simulated time, a count or a
/// resident set: it repeats bit for bit at a seed and moves by at most a
/// third of its bound from seed to seed. `setup_s` is the one wall-clock
/// number the contract requires here, and carries the widest bound it
/// allows. Throughput and CPU per delivery are wall-clock too and do not
/// repeat within a tenth on a shared host, so they are per-layer
/// (`window.*`), as ISSUE 12 rules for such a metric.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "deliver_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "on_time_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "delivery_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.002,
    },
    EndToEnd {
        name: "warm_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "bytes_per_delivery",
        unit: "B",
        better: "lower",
        bound: 0.03,
    },
    EndToEnd {
        name: "goodput_bytes_per_s",
        unit: "B/s",
        better: "higher",
        bound: 0.03,
    },
];

/// Handler classes the `Probe` adapter times, in its index order: the
/// seven message classes follow `TrafficClass::index`, then six timer
/// classes, then harness commands.
pub const HANDLER_CLASSES: [&str; 14] = [
    "msg_data",
    "msg_gossip",
    "msg_pull",
    "msg_link",
    "msg_probe",
    "msg_tree",
    "msg_join",
    "timer_gossip",
    "timer_maintenance",
    "timer_heartbeat",
    "timer_gc",
    "timer_pull",
    "timer_other",
    "command",
];

/// Message groups the codec micro pass reports.
pub const CODEC_GROUPS: [&str; 5] = ["data", "gossip", "tree", "link", "topic"];

/// A per-layer metric: name, unit, which way is better.
pub type PerLayer = (String, &'static str, &'static str);

/// Every per-layer metric, layer by layer. A traced run prints all of
/// them; a layer the workload leaves idle reports 0.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        out.push((name, unit, better));
    };
    add("window.deliveries_per_s".into(), "1/s", "higher");
    add("window.cpu_us_per_delivery".into(), "us", "lower");
    for class in HANDLER_CLASSES {
        add(format!("core.node.{class}.calls"), "count", "lower");
        add(format!("core.node.{class}.ns_per_call"), "ns", "lower");
    }
    add("core.node.busy_frac".into(), "ratio", "lower");
    add("core.node.sends_per_call".into(), "count", "lower");
    add("core.redundancy".into(), "ratio", "lower");
    add("core.pull_frac".into(), "ratio", "lower");
    add("core.ihave_entries_per_delivery".into(), "count", "lower");
    add("core.mean_hops".into(), "count", "lower");
    add("core.drops_total".into(), "count", "lower");
    add("core.deliver_p99_ms".into(), "ms", "lower");
    for stat in ["encode_ns", "decode_ns", "bytes_per_msg"] {
        for group in CODEC_GROUPS {
            let unit = if stat == "bytes_per_msg" { "B" } else { "ns" };
            add(format!("core.codec.{stat}.{group}"), unit, "lower");
        }
    }
    add("core.codec.encoded_len_ns".into(), "ns", "lower");
    add("sim.kernel.events".into(), "count", "lower");
    add("sim.kernel.events_per_s".into(), "1/s", "higher");
    add("sim.kernel.self_ns_per_event".into(), "ns", "lower");
    add("sim.kernel.queue_high_water".into(), "count", "lower");
    add("sim.kernel.queue_mem_bytes_per_node".into(), "B", "lower");
    add("sim.shard.events".into(), "count", "lower");
    add("sim.shard.events_per_s".into(), "1/s", "higher");
    add("sim.shard.self_ns_per_event".into(), "ns", "lower");
    add("sim.shard.lookahead_us".into(), "us", "higher");
    add("sim.shard.speedup_t2".into(), "ratio", "higher");
    add("sim.queue.schedule_pop_ns.d1k".into(), "ns", "lower");
    add("sim.queue.schedule_pop_ns.d100k".into(), "ns", "lower");
    add("sim.recorder.events".into(), "count", "lower");
    add("sim.recorder.ns_per_event".into(), "ns", "lower");
    add("sim.sim_s_per_wall_s".into(), "ratio", "higher");
    add("net.lookup.calls".into(), "count", "lower");
    add("net.lookup.ns_per_call".into(), "ns", "lower");
    add("net.matrix.lookup_ns".into(), "ns", "lower");
    add("net.ondemand.lookup_ns".into(), "ns", "lower");
    add("net.build_s".into(), "s", "lower");
    add("analysis.oracle.check_ns_per_event".into(), "ns", "lower");
    add("analysis.tracker.ns_per_event".into(), "ns", "lower");
    add("app.mux.calls".into(), "count", "lower");
    add("app.mux.self_ns_per_call".into(), "ns", "lower");
    add("app.mux.busy_frac".into(), "ratio", "lower");
    add("app.mux.topic_deliveries".into(), "count", "higher");
    add("app.orset.apply_ns".into(), "ns", "lower");
    add("app.orset.digest_ns".into(), "ns", "lower");
    add("app.orset.missing_for_ns".into(), "ns", "lower");
    add("app.crdt_converge_p99_ms".into(), "ms", "lower");
    add("app.anti_entropy_bytes_frac".into(), "ratio", "lower");
    for (stat, unit, better) in [
        ("wire_msgs_per_delivery", "count", "lower"),
        ("syscalls_per_delivery", "count", "lower"),
        ("datagrams_per_syscall", "count", "higher"),
        ("datagrams_per_poll_p50", "count", "higher"),
        ("timer_late_p99_us", "us", "lower"),
        ("self_ns_per_msg", "ns", "lower"),
        ("malformed", "count", "lower"),
        ("unresolved_dropped", "count", "lower"),
        ("gen_late_p99_ms", "ms", "lower"),
        ("stalls_over_5ms", "count", "lower"),
        ("deliver_p99_ms", "ms", "lower"),
        ("ms_per_hop_p50", "ms", "lower"),
        ("sat_deliveries_per_s", "1/s", "higher"),
        ("sat_cpu_ns_per_delivery.first", "ns", "lower"),
        ("sat_cpu_ns_per_delivery.last", "ns", "lower"),
    ] {
        add(format!("testnet.fabric.{stat}"), unit, better);
    }
    for dir in ["send", "recv"] {
        for mode in ["mmsg", "portable"] {
            add(
                format!("testnet.batch.{dir}_ns_per_dgram.{mode}"),
                "ns",
                "lower",
            );
        }
    }
    add("udp.sched.wheel_ns_per_op".into(), "ns", "lower");
    add("udp.sched.delayq_ns_per_op".into(), "ns", "lower");
    add("trace_overhead_frac".into(), "ratio", "lower");
    add("rss_bytes_per_node".into(), "B", "lower");
    add("rss_growth_bytes_per_delivery".into(), "B", "lower");
    add("host.steal_frac".into(), "ratio", "lower");
    add("host.sched_wait_frac".into(), "ratio", "lower");
    out
}

/// Metric values of one run, keyed by name. Setting a name the tables do
/// not know is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct MetricSet {
    units: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
    /// Names in table order, for printing.
    order: Vec<String>,
}

impl MetricSet {
    /// The end-to-end metrics, unset.
    pub fn end_to_end() -> MetricSet {
        MetricSet::with(END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)))
    }

    /// Every per-layer metric, preset to 0 (an idle layer did no work).
    pub fn per_layer() -> MetricSet {
        let mut set = MetricSet::with(per_layer().into_iter().map(|(n, u, _)| (n, u)));
        for name in set.order.clone() {
            set.values.insert(name, 0.0);
        }
        set
    }

    fn with(names: impl Iterator<Item = (String, &'static str)>) -> MetricSet {
        let mut units = BTreeMap::new();
        let mut order = Vec::new();
        for (name, unit) in names {
            order.push(name.clone());
            units.insert(name, unit);
        }
        MetricSet {
            units,
            values: BTreeMap::new(),
            order,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.units.contains_key(name), "unknown metric `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite");
        self.values.insert(name.to_string(), value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` in table order; panics on an unset metric.
    pub fn rows(&self) -> impl Iterator<Item = (&str, f64, &'static str)> + '_ {
        self.order.iter().map(|n| {
            let v = *self
                .values
                .get(n)
                .unwrap_or_else(|| panic!("metric `{n}` was never set"));
            (n.as_str(), v, self.units[n])
        })
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.rows().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// The text of the root `BENCHMARK.json`, generated from the tables.
#[cfg(test)]
fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let generated = manifest_json();
        if include_str!("../../BENCHMARK.json") != generated {
            // Leave the expected text where it can be copied from.
            let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            std::fs::create_dir_all(&out).expect("create benchmark/out");
            std::fs::write(out.join("BENCHMARK.json"), &generated).expect("write manifest");
            panic!("BENCHMARK.json differs from the tables; the expected text is in benchmark/out/BENCHMARK.json");
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        let names = layers
            .iter()
            .map(|(n, _, _)| n.as_str())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        // ISSUE 12: no gated metric is looser than a tenth; the contract
        // asks for the widest bound, a quarter, on `setup_s`.
        for m in END_TO_END {
            let limit = if m.name == "setup_s" { 0.25 } else { 0.10 };
            assert!(m.bound <= limit, "{} bound {}", m.name, m.bound);
        }
        assert!(!WORKLOADS.iter().any(|w| w.0 == WIRE));
    }

    #[test]
    fn unset_per_layer_metrics_read_zero() {
        let set = MetricSet::per_layer();
        assert_eq!(set.rows().count(), per_layer().len());
        assert!(set.rows().all(|(_, v, _)| v == 0.0));
    }
}
