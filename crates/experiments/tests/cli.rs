//! Bad scale flags end in the usage message and exit code 2, never in a
//! panic deep inside a run (a zero node count reached the latency-matrix
//! generator; a zero, negative or overflowing rate reached
//! `Duration::from_secs_f64`).

use std::process::Command;

#[test]
fn bad_rate_and_node_counts_print_usage_and_exit_2() {
    for bad in [
        ["--rate", "0"],
        ["--rate", "-5"],
        ["--rate", "inf"],
        ["--rate", "NaN"],
        ["--rate", "1e-300"],
        ["--nodes", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gocast-experiments"))
            .args(["fig3a", "--quick"])
            .args(bad)
            .arg("--no-csv")
            .output()
            .expect("the experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(stderr.contains(bad[0]), "{bad:?} names no flag: {stderr}");
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
    }
}
