//! Shared reporting helpers: the one kernel-stats formatter every
//! experiment uses, and table rendering for metrics snapshots.
//!

use gocast_metrics::{MetricValue, Snapshot};
use gocast_sim::KernelStats;

use gocast_analysis::Table;

/// Reports the kernel counters of a finished run on stderr, next to the
/// progress lines.
pub fn log_kernel(kernel: &KernelStats) {
    eprintln!("    kernel: {kernel}");
}

/// One column of a result table: its header, and how a row renders in it.
pub type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// A table with one row per value of `rows`, each column's header and cell
/// defined side by side.
pub fn table_of<'r, R: 'r>(
    columns: &[Column<'_, R>],
    rows: impl IntoIterator<Item = &'r R>,
) -> Table {
    let mut table = Table::new(columns.iter().map(|(header, _)| *header));
    for row in rows {
        table.row(columns.iter().map(|(_, cell)| cell(row)));
    }
    table
}

/// Whole milliseconds, the unit of the recovery tables.
pub fn whole_ms(d: std::time::Duration) -> String {
    format!("{:.0}", d.as_secs_f64() * 1000.0)
}

/// The deterministic `kernel[ev=... del=...]` digest embedded in chaos
/// summary strings: every simulation-domain kernel counter, no wall-clock
/// quantity. `drop` counts every message stopped in flight (dead, cut or
/// partitioned), `part` the partitioned ones, `loss` the lost at send.
pub fn kernel_digest(kernel: &KernelStats) -> String {
    let fates = kernel.fates;
    format!(
        "kernel[ev={} del={} drop={} part={} loss={} tmr={} cmd={} ctl={}]",
        kernel.events_processed,
        kernel.deliveries,
        fates.total() - fates.lost,
        fates.partitioned,
        fates.lost,
        kernel.timers_fired,
        kernel.commands,
        kernel.control_events,
    )
}

/// Splits a metric name into its subsystem prefix (`kernel`, `proto`,
/// `fabric`, ...) for grouping.
fn subsystem(name: &str) -> &str {
    name.split('_').next().unwrap_or(name)
}

/// Renders a snapshot as one table per subsystem (metrics grouped by
/// their name prefix), in first-appearance order. Counters fill only the
/// `value` column; gauges add their high-water mark; histograms report
/// count, mean, the p99 bucket bound, and max.
pub fn snapshot_tables(snap: &Snapshot) -> Vec<(String, Table)> {
    let mut groups: Vec<(String, Table)> = Vec::new();
    for entry in snap.entries() {
        let sys = subsystem(entry.name);
        if groups.last().is_none_or(|(name, _)| name != sys) {
            groups.push((
                sys.to_string(),
                Table::new([
                    "metric",
                    "kind",
                    "value",
                    "high_water",
                    "mean",
                    "p99",
                    "max",
                ]),
            ));
        }
        let table = &mut groups.last_mut().expect("just pushed").1;
        match &entry.value {
            MetricValue::Counter(v) => {
                table.row([entry.name, "counter", &v.to_string(), "-", "-", "-", "-"]);
            }
            MetricValue::Gauge { value, high_water } => {
                table.row([
                    entry.name,
                    "gauge",
                    &value.to_string(),
                    &high_water.to_string(),
                    "-",
                    "-",
                    "-",
                ]);
            }
            MetricValue::Histogram(h) => {
                let mean = if h.count == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", h.sum as f64 / h.count as f64)
                };
                table.row([
                    entry.name,
                    if entry.wall { "hist(wall)" } else { "hist" },
                    &h.count.to_string(),
                    "-",
                    &mean,
                    &h.quantile_upper_bound(0.99).to_string(),
                    &h.max.to_string(),
                ]);
            }
        }
    }
    groups
}

/// Prints [`snapshot_tables`] to stdout under a heading.
pub fn print_snapshot(heading: &str, snap: &Snapshot) {
    for (sys, table) in snapshot_tables(snap) {
        println!("{heading} — {sys}:\n{table}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_metrics::Log2Histogram;

    #[test]
    fn digest_is_deterministic_and_complete() {
        let k = KernelStats::default();
        let d = kernel_digest(&k);
        assert!(d.starts_with("kernel[ev=0"));
        assert!(d.ends_with("ctl=0]"));
        assert_eq!(d, kernel_digest(&KernelStats::default()));
    }

    #[test]
    fn snapshot_tables_group_by_prefix() {
        let mut snap = Snapshot::new();
        snap.record_counter("kernel_events", 10);
        snap.record_counter("kernel_timers", 2);
        snap.record_counter("proto_pushes", 7);
        let mut h = Log2Histogram::new();
        h.observe(0);
        h.observe(5);
        snap.record_histogram("proto_depth", &h);
        let groups = snapshot_tables(&snap);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "kernel");
        assert_eq!(groups[0].1.rows(), 2);
        assert_eq!(groups[1].0, "proto");
        assert_eq!(groups[1].1.rows(), 2);
    }

    #[test]
    fn quantile_bound_reads_buckets() {
        // The p99 column is the live histogram's bound: 99 × 100 plus one
        // 1000 puts p99 in bucket [100, 102) of the octave [64, 128), so
        // the column reads that bucket's last value.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.observe(100);
        }
        h.observe(1000);
        let mut snap = Snapshot::new();
        snap.record_histogram("proto_x", &h);
        let table = snapshot_tables(&snap)[0].1.to_string();
        let row = table.lines().last().expect("one row");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            cells,
            ["proto_x", "hist", "100", "-", "109.0", "101", "1000"]
        );
    }
}
