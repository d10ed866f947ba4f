//! `benchmark repeat`: does the benchmark agree with itself? Runs sets
//! of untraced runs back to back — every run a fresh process, the same
//! seeds in every set — and compares the sets' medians with each
//! metric's bound.

use std::process::{Command, ExitCode};

use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::Args;

/// Reads `"<name>": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Runs one untraced run in a fresh process and returns its result line.
fn run_once(workload: &str, seed: u64, seconds: u32) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "run of {workload} seed {seed} failed ({}): {last}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(last)
}

/// How much worse `second` is than `first`, as a share of `first`, for a
/// metric where `better` says which way is good. Negative = improved.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if better == "lower" {
        change
    } else {
        -change
    }
}

pub fn repeat(args: &Args) -> ExitCode {
    let names = crate::named(args);
    println!(
        "repeat: {} sets × {} runs (seeds {}..{}) of {:?}, {} s each",
        args.sets,
        args.runs,
        args.seed,
        args.seed + u64::from(args.runs) - 1,
        names,
        args.seconds
    );
    // values[set][workload][metric] = the runs' values.
    let mut values =
        vec![vec![vec![Vec::new(); END_TO_END.len()]; names.len()]; args.sets as usize];
    for (set, of_set) in values.iter_mut().enumerate() {
        for (w, name) in names.iter().enumerate() {
            for run in 0..args.runs {
                let line = match run_once(name, args.seed + u64::from(run), args.seconds) {
                    Ok(line) => line,
                    Err(e) => {
                        eprintln!("benchmark repeat: {e}");
                        return ExitCode::from(3);
                    }
                };
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let Some(v) = metric_value(&line, metric.name) else {
                        eprintln!("benchmark repeat: no `{}` in: {line}", metric.name);
                        return ExitCode::from(3);
                    };
                    of_set[w][m].push(v);
                }
            }
            eprintln!("set {} {name} done", set + 1);
        }
    }

    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median set 1", "median last", "spread", "between", "bound"
    );
    let mut failed = 0;
    for (w, name) in names.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let sets: Vec<&Vec<f64>> = values.iter().map(|of_set| &of_set[w][m]).collect();
            let first = median(sets[0]);
            let last = median(sets[sets.len() - 1]);
            let spread = sets.iter().map(|s| quartile_spread(s)).fold(0.0, f64::max);
            let between = worsening(first, last, metric.better);
            // A set-up time is judged on its medians only.
            let spread_ok = metric.name == "setup_s" || spread <= metric.bound;
            let ok = between <= metric.bound / 2.0 && spread_ok;
            if !ok {
                failed += 1;
            }
            println!(
                "{name:<20} {:<20} {first:>14.6} {last:>14.6} {:>8.3}% {:>+8.3}% {:>6.1}%  {}",
                metric.name,
                100.0 * spread,
                100.0 * between,
                100.0 * metric.bound,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    if failed > 0 {
        println!(
            "repeat: {failed} metric(s) differ between sets by more than half their bound, or spread wider than the bound"
        );
        ExitCode::from(1)
    } else {
        println!("repeat: every between-set difference is within half its bound");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
                    \"deliver_p50_ms\": {\"value\": 0.3941, \"unit\": \"ms\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(2.5));
        assert_eq!(metric_value(line, "deliver_p50_ms"), Some(0.3941));
        assert_eq!(metric_value(line, "warm_rss_mb"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, "lower"), 0.0);
    }
}
