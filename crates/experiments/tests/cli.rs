//! Bad scale flags end in the usage message and exit code 2, never in a
//! panic deep inside a run (a zero node count reached the latency-matrix
//! generator; a zero, negative or overflowing rate reached
//! `Duration::from_secs_f64`; a drain past `SimTime`'s range overflowed
//! the run's horizon) or in the flag parser (a value that is not a number
//! of the flag's type), or in the injection schedule a message count past
//! the CLI's bound would build (4.3 G commands were killed for memory), or
//! in a run sized past what the host can hold: a `testnet` population past
//! the wire bound (which binds a socket a node) or more `--jobs` or
//! `--sim-shards` threads than the bound.

use std::process::{Command, Output};

use gocast_experiments::app::MAX_WIRE_NODES;
use gocast_experiments::MAX_JOBS;

/// `subcommand` with `flags`, no CSV.
fn run(subcommand: &[&str], flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gocast-experiments"))
        .args(subcommand)
        .args(flags)
        .arg("--no-csv")
        .output()
        .expect("the experiments binary runs")
}

/// `fig3a --quick` with `flags`, no CSV.
fn fig3a(flags: &[&str]) -> Output {
    run(&["fig3a", "--quick"], flags)
}

/// `out` is a usage error that names `flag`: exit 2, no panic.
fn assert_usage_error(out: &Output, flag: &str, case: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{case:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{case:?}: {stderr}");
    assert!(stderr.contains(flag), "{case:?} names no flag: {stderr}");
    assert!(stderr.contains("usage:"), "{case:?}: {stderr}");
}

#[test]
fn bad_rate_and_node_counts_print_usage_and_exit_2() {
    for bad in [
        ["--rate", "0"],
        ["--rate", "-5"],
        ["--rate", "inf"],
        ["--rate", "NaN"],
        ["--rate", "1e-300"],
        ["--nodes", "0"],
        ["--drain", "18446744073709551615"],
        ["--messages", "10000001"],
        ["--messages", "4294967295"],
    ] {
        assert_usage_error(&fig3a(&bad), bad[0], &bad);
    }
}

#[test]
fn malformed_numeric_flags_print_usage_and_exit_2() {
    for bad in [
        ["--nodes", "abc"],
        ["--nodes", "-3"],
        ["--seed", "x"],
        ["--warmup", "1e30"],
        ["--messages", "1.5"],
        ["--rate", "fast"],
        ["--drain", ""],
        ["--jobs", "x"],
        ["--shards", "two"],
        ["--sim-shards", "1e3"],
        ["--topics", "99999999999"],
        ["--seeds", "-1"],
    ] {
        assert_usage_error(&fig3a(&bad), bad[0], &bad);
    }
}

/// One past each bound is refused before anything runs: a `testnet`
/// population past the wire bound would first simulate, then bind a
/// socket a node; `--jobs` or `--sim-shards` past the thread bound would
/// start that many threads.
#[test]
fn wire_population_and_job_count_past_their_bounds_exit_2() {
    let nodes = (MAX_WIRE_NODES + 1).to_string();
    let case = ["--nodes", nodes.as_str(), "--messages", "10"];
    assert_usage_error(&run(&["testnet"], &case), "--nodes", &case);
    let jobs = (MAX_JOBS + 1).to_string();
    let case = ["--jobs", jobs.as_str()];
    assert_usage_error(&fig3a(&case), "--jobs", &case);
    let case = ["--sim-shards", jobs.as_str()];
    assert_usage_error(&fig3a(&case), "--sim-shards", &case);
}
