//! Bad scale flags end in the usage message and exit code 2, never in a
//! panic deep inside a run (a zero node count reached the latency-matrix
//! generator; a zero, negative or overflowing rate reached
//! `Duration::from_secs_f64`; a drain past `SimTime`'s range overflowed
//! the run's horizon) or in the flag parser (a value that is not a number
//! of the flag's type), or in the injection schedule a message count past
//! the CLI's bound would build (4.3 G commands were killed for memory).

use std::process::{Command, Output};

/// `fig3a --quick` with `flags`, no CSV.
fn fig3a(flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gocast-experiments"))
        .args(["fig3a", "--quick"])
        .args(flags)
        .arg("--no-csv")
        .output()
        .expect("the experiments binary runs")
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
