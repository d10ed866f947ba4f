//! What the host tells us about a run: process CPU time, resident set,
//! and the two disturbance signals (hypervisor steal, run-queue wait)
//! that make a noisy run recognisable from its own output.

use std::fs;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. All spans and probe
/// timings share this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `(on-CPU ns, run-queue wait ns)` summed over every live thread of this
/// process, from `/proc/self/task/*/schedstat`. Zeroes off Linux.
pub fn sched_ns() -> (u64, u64) {
    let mut run = 0;
    let mut wait = 0;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        run += fields.next().unwrap_or(0);
        wait += fields.next().unwrap_or(0);
    }
    (run, wait)
}

/// Resident set size in bytes (`VmRSS`), 0 when unavailable.
pub fn rss_bytes() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// `(steal jiffies, total jiffies)` of the whole host from the first line
/// of `/proc/stat`.
fn host_jiffies() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// A reading of every host counter at one instant; two readings bracket a
/// measured window.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    wait_ns: u64,
    steal: u64,
    jiffies: u64,
}

impl HostMark {
    pub fn now() -> HostMark {
        let (cpu_ns, wait_ns) = sched_ns();
        let (steal, jiffies) = host_jiffies();
        HostMark {
            wall_ns: now_ns(),
            cpu_ns,
            wait_ns,
            steal,
            jiffies,
        }
    }
}

/// Host activity between two marks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Share of host CPU time the hypervisor gave to someone else.
    pub steal_frac: f64,
    /// Time this process sat runnable but not running, over wall time.
    pub sched_wait_frac: f64,
}

impl HostDelta {
    pub fn between(a: &HostMark, b: &HostMark) -> HostDelta {
        let wall_ns = b.wall_ns.saturating_sub(a.wall_ns);
        let jiffies = b.jiffies.saturating_sub(a.jiffies);
        HostDelta {
            wall_ns,
            cpu_ns: b.cpu_ns.saturating_sub(a.cpu_ns),
            steal_frac: ratio(b.steal.saturating_sub(a.steal), jiffies),
            sched_wait_frac: ratio(b.wait_ns.saturating_sub(a.wait_ns), wall_ns),
        }
    }

    /// Folds another window in (the wire workload measures three).
    pub fn absorb(&mut self, other: &HostDelta) {
        let w = (self.wall_ns + other.wall_ns).max(1) as f64;
        let mix = |a: f64, b: f64| (a * self.wall_ns as f64 + b * other.wall_ns as f64) / w;
        self.steal_frac = mix(self.steal_frac, other.steal_frac);
        self.sched_wait_frac = mix(self.sched_wait_frac, other.sched_wait_frac);
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
