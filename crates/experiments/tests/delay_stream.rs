//! The delivery-delay distribution reaches the `--metrics-out` stream:
//! the final sample of a run carries `proto_delay_ns`, counting every
//! delivery the sample's `proto_deliveries` counts and reading the same
//! p99 as the run's ledger — in the simulator and on the wire, whose
//! snapshots come from the same distillation.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use gocast_analysis::DeliveryTracker;
use gocast_experiments::chaos::{parse_spec, run_chaos};
use gocast_experiments::pipeline::MetricsStream;
use gocast_experiments::{testnet, ExpOptions, GivenFlags};
use gocast_metrics::HistogramSnapshot;
use gocast_testnet::loopback_available;

/// The unsigned integer right after `key` in `text`.
fn number_after(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {text}"))
        + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a number")
}

/// The `proto_delay_ns` histogram of one stream line, as written.
fn delay_histogram(line: &str) -> HistogramSnapshot {
    let key = "\"proto_delay_ns\":{";
    let start = line
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let entry = &line[start..];
    let entry = &entry[..entry.find("]}").expect("bucket list closes") + 2];
    let list = &entry[entry.find("\"buckets\":[").expect("bucket list") + 11..entry.len() - 2];
    let buckets = list
        .split("],[")
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (i, c) = pair
                .trim_matches(['[', ']'])
                .split_once(',')
                .expect("a pair");
            (i.parse().expect("an index"), c.parse().expect("a count"))
        })
        .collect();
    HistogramSnapshot {
        count: number_after(entry, "\"count\":"),
        sum: number_after(entry, "\"sum\":"),
        max: number_after(entry, "\"max\":"),
        buckets,
    }
}

/// Checks a stream's final sample against the run's ledger.
fn assert_final_sample_carries_the_ledgers_delays(stream: &str, ledger: &DeliveryTracker) {
    let last = stream.lines().last().expect("samples");
    let delays = delay_histogram(last);
    assert!(delays.count > 0, "no delivery delays in {last}");
    assert_eq!(delays.count, number_after(last, "\"proto_deliveries\":"));
    let own = ledger.delay_histogram();
    assert_eq!(
        (delays.count, delays.sum, delays.max),
        (own.count(), own.sum(), own.max())
    );
    assert_eq!(
        delays.quantile_upper_bound(0.99),
        own.quantile_upper_bound(0.99)
    );
}

/// The one stream a run wrote under `dir` (a process numbers its later
/// streams, so each run gets a directory of its own).
fn only_stream(dir: &Path) -> String {
    let mut files = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let path = files.next().expect("one stream");
    assert!(files.next().is_none(), "one stream per directory");
    fs::read_to_string(path).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gocast_delay_{name}_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_chaos_streams_final_sample_carries_the_ledgers_delays() {
    let dir = scratch("chaos");
    let mut o = ExpOptions::quick();
    o.nodes = 64;
    o.sites = 64;
    o.warmup = Duration::from_secs(20);
    o.messages = 8;
    o.rate = 2.0;
    o.drain = Duration::from_secs(10);
    o.metrics_out = Some(dir.join("metrics.jsonl"));
    let spec = parse_spec("massleave(at=1,count=6); flashcrowd(at=8,count=6)").unwrap();
    let out = run_chaos(&o, &spec);
    assert_final_sample_carries_the_ledgers_delays(&only_stream(&dir), out.ledger());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_wire_runs_stream_carries_the_ledgers_delays() {
    if !loopback_available() {
        eprintln!("skipping: loopback UDP unavailable in this environment");
        return;
    }
    let dir = scratch("wire");
    let opts = ExpOptions {
        nodes: 12,
        messages: 40,
        seed: 7,
        warmup: Duration::from_secs(2),
        drain: Duration::from_secs(2),
        metrics_out: Some(dir.join("metrics.jsonl")),
        ..ExpOptions::default()
    };
    let given = GivenFlags {
        nodes: true,
        messages: true,
        warmup: true,
        drain: true,
        ..GivenFlags::default()
    };
    let (wire, plan) = testnet::resolve(&opts, &given, "baseline", None).expect("baseline");
    let report = testnet::conform(&wire, &plan).expect("both hosts ran");
    // What `gocast-experiments testnet --metrics-out` writes: the wire
    // side's final snapshot, sampled once.
    let mut stream = MetricsStream::open(&wire, &wire.manifest(Some("baseline"))).expect("stream");
    stream.sample(report.end, &report.wire.core.metrics);
    drop(stream);
    assert_final_sample_carries_the_ledgers_delays(
        &only_stream(&dir),
        report.wire.metrics.delivery(),
    );
    let _ = fs::remove_dir_all(&dir);
}
