//! Constant-memory synthetic King model for million-node simulations.
//!
//! [`synthetic_king`](crate::synthetic_king) materializes a microsecond
//! entry for every site pair (a packed 24-bit lower triangle: 4.5 MB at
//! the paper's 1,740 sites) plus an O(N) node→site vector. Both are fine at experiment scale, but
//! the sharded kernel targets 10⁵–10⁶ nodes where the principle is
//! **no per-pair state and no per-node state**: everything a latency
//! query needs must be computable from O(sites) data.
//!
//! [`OnDemandKing`] keeps only the site *positions* (the same continent-
//! cluster placement the matrix generator draws, via a shared helper) and
//! derives the rest on demand:
//!
//! - **node → site**: a hash of `(assignment seed, node id)` — no vector;
//! - **site pair latency**: euclidean distance in the synthetic
//!   coordinate space, times a deterministic per-pair jitter drawn by
//!   hashing the unordered site pair, times a calibration scale, clamped
//!   into the matrix generator's `[1 ms, 399 ms]`;
//! - **calibration**: the scale that maps the raw mean onto the paper's
//!   91 ms target is fitted at construction from a deterministic sample
//!   of site pairs (the full pair set is quadratic in sites, and the
//!   sample mean converges to the same scale).
//!
//! The result is symmetric, zero on the diagonal, stable across calls,
//! byte-for-byte reproducible per seed — and its memory footprint is
//! independent of the node count. It also promises the positive
//! [`LatencyModel::lookahead`] bound the sharded kernel requires: no two
//! distinct nodes are ever closer than the intra-site latency.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gocast_sim::{LatencyModel, NodeId};

use crate::king::{place_sites, SyntheticKingConfig, INTRA_SITE, MAX_CAP, MIN_FLOOR, TARGET_MEAN};

/// Number of site pairs sampled to fit the calibration scale.
const CALIBRATION_SAMPLES: usize = 4096;

/// A splitmix64-style finalizer: the hash behind site assignment and
/// per-pair jitter.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A clustered King-like latency model whose memory footprint is
/// O(sites), independent of the node count.
///
/// Query cost is O(1): two hashes, one square root. Construction: node
/// → site by hash, sites on a jittered continent grid (the same layout
/// [`synthetic_king`](crate::synthetic_king) builds), pairwise latency derived
/// on demand from site distance plus deterministic per-pair jitter.
///
/// ```
/// use gocast_net::OnDemandKing;
/// use gocast_sim::{LatencyModel, NodeId};
/// use std::time::Duration;
///
/// let net = OnDemandKing::paper_default(100_000, 42);
/// let l = net.one_way(NodeId::new(0), NodeId::new(99_999));
/// assert!(l >= net.lookahead().unwrap());
/// assert!(l <= Duration::from_millis(399));
/// assert_eq!(l, net.one_way(NodeId::new(99_999), NodeId::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct OnDemandKing {
    nodes: usize,
    /// Seed for node→site assignment and per-pair jitter.
    seed: u64,
    /// Site positions in "milliseconds of propagation" coordinates.
    coords: Vec<(f64, f64)>,
    /// Raw-latency → microseconds calibration factor.
    scale_us: f64,
}

impl OnDemandKing {
    /// Builds the model for `nodes` nodes from the same configuration the
    /// matrix generator takes. `cfg.seed` drives site placement, node
    /// assignment, and jitter.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `cfg.sites < 2`.
    pub fn new(nodes: usize, cfg: &SyntheticKingConfig) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(cfg.sites >= 2, "need at least two sites");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let coords = place_sites(&mut rng, cfg.sites);

        // Fit the calibration scale on a deterministic pair sample. Raw
        // latency mirrors the matrix generator: last-mile base (4 ms) +
        // propagation distance, times per-pair jitter in [0.75, 1.65).
        let mut sum = 0f64;
        let mut samples = 0u64;
        for _ in 0..CALIBRATION_SAMPLES {
            let i = rng.gen_range(0..cfg.sites);
            let j = rng.gen_range(0..cfg.sites);
            if i == j {
                continue;
            }
            sum += raw_ms(&coords, cfg.seed, i as u32, j as u32);
            samples += 1;
        }
        let mean = sum / samples.max(1) as f64;
        let scale_us = TARGET_MEAN.as_secs_f64() * 1e6 / mean;

        OnDemandKing {
            nodes,
            seed: cfg.seed,
            coords,
            scale_us,
        }
    }

    /// The paper-default network at any scale: 1,740 sites calibrated to
    /// the King summary statistics. The O(1)-memory counterpart of
    /// [`king_like`](crate::king_like).
    pub fn paper_default(nodes: usize, seed: u64) -> Self {
        OnDemandKing::new(
            nodes,
            &SyntheticKingConfig {
                seed,
                ..Default::default()
            },
        )
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.coords.len()
    }

    /// The site a node hashes to.
    #[inline]
    pub fn site_of(&self, node: NodeId) -> u32 {
        (mix(self.seed ^ 0x517E_A551 ^ node.as_u32() as u64) % self.coords.len() as u64) as u32
    }

    /// Materializes the node→site assignment — the group map fault
    /// scenarios need for correlated site crashes. O(nodes) to build;
    /// the model itself never stores it.
    pub fn site_assignment(&self) -> Vec<u32> {
        (0..self.nodes as u32)
            .map(|i| self.site_of(NodeId::new(i)))
            .collect()
    }

    /// One-way latency between two *sites* (zero for `a == b`).
    pub fn site_latency(&self, a: u32, b: u32) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let us = (raw_ms(&self.coords, self.seed, a, b) * self.scale_us) as u32;
        let (floor_us, cap_us) = (MIN_FLOOR.as_micros() as u32, MAX_CAP.as_micros() as u32);
        Duration::from_micros(us.clamp(floor_us, cap_us) as u64)
    }

    /// Mean one-way latency over a deterministic sample of distinct site
    /// pairs (diagnostics; mirrors
    /// [`SiteLatencyMatrix::mean_site_latency`](crate::SiteLatencyMatrix::mean_site_latency)
    /// without enumerating all pairs).
    pub fn sampled_mean_latency(&self) -> Duration {
        let sites = self.coords.len();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x5A3B);
        let mut sum = 0u64;
        let mut count = 0u64;
        for _ in 0..CALIBRATION_SAMPLES {
            let i = rng.gen_range(0..sites) as u32;
            let j = rng.gen_range(0..sites) as u32;
            if i == j {
                continue;
            }
            sum += self.site_latency(i, j).as_micros() as u64;
            count += 1;
        }
        Duration::from_micros(sum.checked_div(count).unwrap_or(0))
    }
}

/// Uncalibrated site-pair latency in milliseconds: base + distance, times
/// a jitter hashed from the unordered pair (symmetric and stable).
#[inline]
fn raw_ms(coords: &[(f64, f64)], seed: u64, a: u32, b: u32) -> f64 {
    let (xa, ya) = coords[a as usize];
    let (xb, yb) = coords[b as usize];
    let dist = ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt();
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let h = mix(seed ^ ((lo as u64) << 32 | hi as u64));
    // Map the hash onto [0.75, 1.65), the matrix generator's jitter range.
    let jitter = 0.75 + 0.9 * (h >> 11) as f64 / (1u64 << 53) as f64;
    (4.0 + dist) * jitter
}

impl LatencyModel for OnDemandKing {
    fn one_way(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let (sa, sb) = (self.site_of(a), self.site_of(b));
        if sa == sb {
            INTRA_SITE
        } else {
            self.site_latency(sa, sb)
        }
    }

    fn len(&self) -> usize {
        self.nodes
    }

    fn lookahead(&self) -> Option<Duration> {
        let bound = INTRA_SITE.min(MIN_FLOOR);
        (!bound.is_zero()).then_some(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, seed: u64) -> OnDemandKing {
        OnDemandKing::new(nodes, &SyntheticKingConfig { sites: 256, seed })
    }

    #[test]
    fn symmetric_stable_and_zero_on_diagonal() {
        let m = model(1000, 1);
        for i in (0..1000u32).step_by(97) {
            for j in (0..1000u32).step_by(89) {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(m.one_way(a, b), m.one_way(b, a));
                assert_eq!(m.one_way(a, b), m.one_way(a, b), "stable across calls");
            }
            assert_eq!(m.one_way(NodeId::new(i), NodeId::new(i)), Duration::ZERO);
        }
    }

    #[test]
    fn mean_is_calibrated_and_range_respected() {
        let m = model(1000, 2);
        let mean = m.sampled_mean_latency();
        assert!(
            mean >= Duration::from_millis(75) && mean <= Duration::from_millis(107),
            "sampled mean {mean:?} not near 91ms"
        );
        for i in (0..256u32).step_by(7) {
            for j in (0..256u32).step_by(11) {
                if i == j {
                    continue;
                }
                let l = m.site_latency(i, j);
                assert!(l >= Duration::from_millis(1) && l <= Duration::from_millis(399));
            }
        }
    }

    #[test]
    fn lookahead_lower_bounds_every_pair() {
        let m = model(500, 3);
        let delta = m.lookahead().expect("positive lookahead");
        assert_eq!(delta, Duration::from_micros(500));
        for i in (0..500u32).step_by(13) {
            for j in (0..500u32).step_by(17) {
                if i == j {
                    continue;
                }
                assert!(m.one_way(NodeId::new(i), NodeId::new(j)) >= delta);
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let a = model(200, 7);
        let b = model(200, 7);
        let c = model(200, 8);
        let mut differs = false;
        for i in 0..200u32 {
            for j in 0..200u32 {
                let (x, y) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(a.one_way(x, y), b.one_way(x, y));
                differs |= a.one_way(x, y) != c.one_way(x, y);
            }
        }
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn site_assignment_matches_site_of() {
        let m = model(300, 4);
        let groups = m.site_assignment();
        assert_eq!(groups.len(), 300);
        for (i, &g) in groups.iter().enumerate() {
            assert_eq!(g, m.site_of(NodeId::new(i as u32)));
            assert!((g as usize) < m.site_count());
        }
    }

    #[test]
    fn memory_is_independent_of_node_count() {
        let small = model(100, 5);
        let big = model(1_000_000, 5);
        assert_eq!(small.coords.len(), big.coords.len());
        // Same sites, same scale: identical site-level geometry.
        assert_eq!(small.site_latency(0, 1), big.site_latency(0, 1));
        assert_eq!(big.len(), 1_000_000);
    }

    #[test]
    fn clustering_shows_heavy_spread() {
        let m = model(1000, 6);
        let mut lats: Vec<Duration> = Vec::new();
        for i in 0..256u32 {
            for j in (i + 1)..256 {
                lats.push(m.site_latency(i, j));
            }
        }
        lats.sort();
        let p10 = lats[lats.len() / 10];
        let p90 = lats[lats.len() * 9 / 10];
        assert!(
            p90 > p10 * 4,
            "expected heavy spread, got p10={p10:?} p90={p90:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_zero_nodes() {
        let _ = OnDemandKing::paper_default(0, 1);
    }
}
