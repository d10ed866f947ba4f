//! Synthetic "King-like" Internet latency matrix.
//!
//! **Substitution note (see DESIGN.md):** the paper replays the King
//! dataset — measured RTTs between 1,740 DNS servers, average one-way
//! latency 91 ms, maximum 399 ms. That dataset is not available offline, so
//! this module synthesizes a matrix with the same structure: sites grouped
//! into continent-like clusters, intra-cluster latencies small, inter-
//! cluster latencies large and heavy-tailed, plus per-pair jitter (which,
//! like real King data, may violate the triangle inequality). The generated
//! matrix is calibrated to the two summary statistics the paper reports:
//! mean one-way latency ~= 91 ms, and a 399 ms cap.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::matrix::{pair_count, pair_index, SiteLatencyMatrix};

/// A continent-like cluster of sites.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Center in "milliseconds of one-way propagation" coordinates.
    center: (f64, f64),
    /// Gaussian spread of sites around the center (ms).
    sigma: f64,
    /// Fraction of sites in this cluster.
    weight: f64,
}

/// Continent layout loosely modelled on real inter-region latencies.
const CLUSTERS: [Cluster; 6] = [
    // North America
    Cluster {
        center: (0.0, 0.0),
        sigma: 14.0,
        weight: 0.42,
    },
    // Europe
    Cluster {
        center: (48.0, 4.0),
        sigma: 11.0,
        weight: 0.28,
    },
    // Asia
    Cluster {
        center: (98.0, 26.0),
        sigma: 16.0,
        weight: 0.17,
    },
    // South America
    Cluster {
        center: (28.0, 58.0),
        sigma: 12.0,
        weight: 0.06,
    },
    // Oceania
    Cluster {
        center: (112.0, 72.0),
        sigma: 10.0,
        weight: 0.05,
    },
    // Africa
    Cluster {
        center: (64.0, 38.0),
        sigma: 12.0,
        weight: 0.02,
    },
];

/// Target mean one-way latency across site pairs (paper: 91 ms).
pub(crate) const TARGET_MEAN: Duration = Duration::from_millis(91);
/// Hard cap on one-way latency (paper max: 399 ms).
pub(crate) const MAX_CAP: Duration = Duration::from_millis(399);
/// Minimum one-way latency between distinct sites.
pub(crate) const MIN_FLOOR: Duration = Duration::from_millis(1);
/// One-way latency between co-located nodes (same site).
pub(crate) const INTRA_SITE: Duration = Duration::from_micros(500);

/// Configuration for [`synthetic_king`].
#[derive(Debug, Clone)]
pub struct SyntheticKingConfig {
    /// Number of sites (the King dataset has 1,740).
    pub sites: usize,
    /// RNG seed for the matrix (independent of the simulation seed).
    pub seed: u64,
}

impl Default for SyntheticKingConfig {
    fn default() -> Self {
        SyntheticKingConfig {
            sites: 1740,
            seed: 0x90CA57,
        }
    }
}

/// Draws a standard normal via Box–Muller (rand's `StandardNormal` lives in
/// `rand_distr`, which is outside the approved dependency set).
fn std_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Places `sites` site positions in the continent clusters (shared by the
/// matrix generator and the on-demand model, so both draw from the same
/// spatial distribution).
pub(crate) fn place_sites(rng: &mut SmallRng, sites: usize) -> Vec<(f64, f64)> {
    let mut positions = Vec::with_capacity(sites);
    for c in &CLUSTERS {
        let count = (c.weight * sites as f64).round() as usize;
        for _ in 0..count {
            positions.push((
                c.center.0 + c.sigma * std_normal(rng),
                c.center.1 + c.sigma * std_normal(rng),
            ));
        }
    }
    // Rounding may leave us short or long; pad with the largest cluster /
    // truncate.
    while positions.len() < sites {
        let c = &CLUSTERS[0];
        positions.push((
            c.center.0 + c.sigma * std_normal(rng),
            c.center.1 + c.sigma * std_normal(rng),
        ));
    }
    positions.truncate(sites);
    positions
}

/// Generates a calibrated clustered latency matrix with `nodes` simulated
/// nodes assigned round-robin over a seeded shuffle of the sites.
///
/// Nodes in excess of `cfg.sites` share sites, exactly as in the paper.
///
/// ```
/// use gocast_net::{synthetic_king, SyntheticKingConfig};
/// use gocast_sim::LatencyModel;
/// use std::time::Duration;
///
/// let cfg = SyntheticKingConfig { sites: 64, ..Default::default() };
/// let net = synthetic_king(128, &cfg);
/// assert_eq!(net.len(), 128);
/// let mean = net.mean_site_latency();
/// assert!(mean > Duration::from_millis(80) && mean < Duration::from_millis(102));
/// ```
///
/// # Panics
///
/// Panics if `nodes == 0` or `cfg.sites < 2`.
pub fn synthetic_king(nodes: usize, cfg: &SyntheticKingConfig) -> SiteLatencyMatrix {
    assert!(nodes > 0, "need at least one node");
    assert!(cfg.sites >= 2, "need at least two sites");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let sites = cfg.sites;

    // Place sites in clusters.
    let positions = place_sites(&mut rng, sites);

    // Raw latencies: last-mile base + propagation + multiplicative jitter,
    // one draw per pair `(i, j > i)`. The first pass only sums them; the
    // second replays the same draws from a copy of the generator and
    // writes each scaled pair into the triangle's row `j`.
    let raw = |rng: &mut SmallRng, i: usize, j: usize| {
        let (xi, yi) = positions[i];
        let (xj, yj) = positions[j];
        let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
        (4.0 + dist) * rng.gen_range(0.75..1.65)
    };
    let mut replay = rng.clone();
    let mut sum = 0f64;
    let mut pairs = 0u64;
    for i in 0..sites {
        for j in (i + 1)..sites {
            sum += raw(&mut rng, i, j);
            pairs += 1;
        }
    }

    // Calibrate the mean, then clamp into [floor, cap].
    let mean = sum / pairs as f64;
    let scale = TARGET_MEAN.as_secs_f64() * 1e3 / mean;
    let floor_us = MIN_FLOOR.as_micros() as u32;
    let cap_us = MAX_CAP.as_micros() as u32;
    let mut lower_us = vec![0u32; pairs as usize];
    for i in 0..sites {
        for j in (i + 1)..sites {
            let l = raw(&mut replay, i, j);
            lower_us[pair_index(j, i)] = (((l * scale) * 1000.0) as u32).clamp(floor_us, cap_us);
        }
    }

    // Assign nodes to a seeded shuffle of sites, wrapping for n > sites.
    let mut order: Vec<u32> = (0..sites as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let node_site = (0..nodes).map(|i| order[i % sites]).collect();

    SiteLatencyMatrix::new(sites, &lower_us, node_site, INTRA_SITE)
}

/// Builds the paper-default network: 1,740 sites calibrated to the King
/// dataset's summary statistics, `nodes` nodes.
pub fn king_like(nodes: usize, seed: u64) -> SiteLatencyMatrix {
    synthetic_king(
        nodes,
        &SyntheticKingConfig {
            seed,
            ..Default::default()
        },
    )
}

/// The paper's §2.2 thought experiment as a network: two well-separated
/// continents ("suppose a system consists of 500 nodes in America and 500
/// nodes in Asia"). Intra-continent one-way latencies are ~5–35 ms;
/// inter-continent ~150–200 ms with no intermediate sites, so *nearby*
/// links alone can never connect the continents.
///
/// Used to demonstrate that an overlay with `C_rand` = 0 partitions even
/// without failures, while a single random link per node bridges the
/// continents.
///
/// # Panics
///
/// Panics if `nodes < 2`.
pub fn two_continents(nodes: usize, seed: u64) -> SiteLatencyMatrix {
    assert!(nodes >= 2, "need at least two nodes");
    let sites = nodes;
    let mut rng = SmallRng::seed_from_u64(seed);
    let half = sites / 2;
    let mut lower_us = vec![0u32; pair_count(sites)];
    for i in 0..sites {
        for j in (i + 1)..sites {
            let same = (i < half) == (j < half);
            let ms = if same {
                rng.gen_range(5.0..35.0)
            } else {
                rng.gen_range(150.0..200.0)
            };
            lower_us[pair_index(j, i)] = (ms * 1000.0) as u32;
        }
    }
    let node_site = (0..nodes).map(|i| i as u32).collect();
    SiteLatencyMatrix::new(sites, &lower_us, node_site, Duration::from_micros(500))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::{LatencyModel, NodeId};

    fn small_cfg(seed: u64) -> SyntheticKingConfig {
        SyntheticKingConfig { sites: 120, seed }
    }

    #[test]
    fn mean_is_calibrated_and_max_capped() {
        let m = synthetic_king(120, &small_cfg(1));
        let mean = m.mean_site_latency();
        assert!(
            mean >= Duration::from_millis(80) && mean <= Duration::from_millis(102),
            "mean {mean:?} not near 91ms"
        );
        assert!(m.max_site_latency() <= Duration::from_millis(399));
    }

    #[test]
    fn latencies_have_floor() {
        let m = synthetic_king(120, &small_cfg(2));
        for i in 0..120 {
            for j in (i + 1)..120 {
                assert!(m.site_latency(i as u32, j as u32) >= Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic_king(50, &small_cfg(7));
        let b = synthetic_king(50, &small_cfg(7));
        let c = synthetic_king(50, &small_cfg(8));
        for i in 0..50u32 {
            for j in 0..50u32 {
                assert_eq!(
                    a.one_way(NodeId::new(i), NodeId::new(j)),
                    b.one_way(NodeId::new(i), NodeId::new(j))
                );
            }
        }
        let differs = (0..50u32).any(|i| {
            (0..50u32).any(|j| {
                a.one_way(NodeId::new(i), NodeId::new(j))
                    != c.one_way(NodeId::new(i), NodeId::new(j))
            })
        });
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn more_nodes_than_sites_share_sites() {
        let m = synthetic_king(300, &small_cfg(3));
        assert_eq!(m.len(), 300);
        // Node i and node i+120 share a site.
        assert_eq!(m.site_of(NodeId::new(0)), m.site_of(NodeId::new(120)));
        assert_eq!(
            m.one_way(NodeId::new(0), NodeId::new(120)),
            Duration::from_micros(500)
        );
    }

    #[test]
    fn clustering_shows_bimodal_latencies() {
        // Some pairs should be much closer than the mean and some much
        // farther — the property proximity-aware neighbor selection needs.
        let m = synthetic_king(120, &small_cfg(4));
        let mut lats: Vec<Duration> = Vec::new();
        for i in 0..120 {
            for j in (i + 1)..120 {
                lats.push(m.site_latency(i as u32, j as u32));
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
    fn two_continents_is_bimodal() {
        let m = two_continents(40, 1);
        assert_eq!(m.len(), 40);
        // Same continent: short. Different: long. Symmetric.
        use gocast_sim::LatencyModel as _;
        let near = m.one_way(NodeId::new(0), NodeId::new(1));
        let far = m.one_way(NodeId::new(0), NodeId::new(30));
        assert!(near < Duration::from_millis(40), "intra {near:?}");
        assert!(far > Duration::from_millis(140), "inter {far:?}");
        assert_eq!(far, m.one_way(NodeId::new(30), NodeId::new(0)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_zero_nodes() {
        let _ = synthetic_king(0, &small_cfg(1));
    }
}
