//! Site-based latency matrices.
//!
//! The paper uses the King dataset: pairwise RTTs between 1,740 DNS server
//! *sites*. Simulated nodes map onto sites ("When the number of simulated
//! nodes is larger than the number of measured DNS servers, we simulate
//! multiple nodes at a single DNS server site"). [`SiteLatencyMatrix`]
//! reproduces that structure: a symmetric site-to-site one-way latency
//! table, stored once per unordered pair as a packed lower triangle, plus a
//! node -> site map.

use std::time::Duration;

use gocast_sim::{LatencyModel, NodeId};

/// One past the largest entry a 24-bit slot holds, in microseconds
/// (16.78 s; the King cap is 399 ms).
const ENTRY_LIMIT_US: u32 = 1 << 24;

/// Number of unordered pairs of `sites` distinct sites: the length of the
/// lower triangle.
pub(crate) fn pair_count(sites: usize) -> usize {
    sites.saturating_sub(1) * sites / 2
}

/// Where the pair `(hi, lo)`, `hi > lo`, sits in the lower triangle: row
/// `hi` holds its `hi` pairs with the sites below it.
#[inline]
pub(crate) fn pair_index(hi: usize, lo: usize) -> usize {
    hi * (hi - 1) / 2 + lo
}

/// One-way latencies between sites, with nodes assigned to sites.
///
/// The table is the lower triangle of the site x site latencies in site
/// order (row `i` holds the pairs `(i, j < i)`), one little-endian 24-bit
/// microsecond entry per unordered pair: the diagonal is zero and the
/// table symmetric by construction, and the paper's 1,740 sites take
/// 1,512,930 pairs x 3 B = 4.5 MB.
#[derive(Debug, Clone)]
pub struct SiteLatencyMatrix {
    sites: usize,
    /// Lower-triangle one-way latencies in microseconds, 24 bits each.
    lat_us: Vec<[u8; 3]>,
    /// `node -> site` assignment.
    node_site: Vec<u32>,
    /// One-way latency between two distinct nodes at the same site.
    intra_site: Duration,
    /// [`LatencyModel::lookahead`], fixed at construction.
    lookahead: Option<Duration>,
}

impl SiteLatencyMatrix {
    /// Builds a matrix from the lower triangle of a site x site table of
    /// one-way latencies in microseconds, in site order (the pairs
    /// `(1, 0)`, `(2, 0)`, `(2, 1)`, `(3, 0)`, ...; pair `(i, j < i)` at
    /// `i·(i−1)/2 + j`), and a node-to-site assignment.
    ///
    /// # Panics
    ///
    /// Panics if `lower_us` does not hold `sites·(sites−1)/2` entries, if an
    /// entry is 2²⁴ µs or more, or if any node maps to a site out of range.
    pub fn new(sites: usize, lower_us: &[u32], node_site: Vec<u32>, intra_site: Duration) -> Self {
        assert_eq!(
            lower_us.len(),
            pair_count(sites),
            "latency triangle of {sites} sites needs {} entries",
            pair_count(sites)
        );
        let lat_us = lower_us
            .iter()
            .map(|&us| {
                assert!(
                    us < ENTRY_LIMIT_US,
                    "latency {us} us does not fit a 24-bit entry"
                );
                let [a, b, c, _] = us.to_le_bytes();
                [a, b, c]
            })
            .collect();
        for &s in &node_site {
            assert!((s as usize) < sites, "node assigned to unknown site {s}");
        }
        // The smallest latency any two distinct nodes can see: co-located
        // nodes pay `intra_site`, everyone else some nonzero table entry.
        let bound = lower_us
            .iter()
            .filter(|&&us| us > 0)
            .min()
            .map_or(intra_site, |&us| {
                Duration::from_micros(us as u64).min(intra_site)
            });
        SiteLatencyMatrix {
            sites,
            lat_us,
            node_site,
            intra_site,
            lookahead: (bound > Duration::ZERO).then_some(bound),
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites
    }

    /// The site a node lives at.
    pub fn site_of(&self, node: NodeId) -> u32 {
        self.node_site[node.index()]
    }

    /// The full node-to-site assignment (one site id per node id).
    ///
    /// Fault scenarios use this as the group map for correlated site-level
    /// crashes and site-isolating partitions.
    pub fn site_assignment(&self) -> &[u32] {
        &self.node_site
    }

    /// One-way latency between two sites.
    ///
    /// # Panics
    ///
    /// Panics if either site id is out of range.
    pub fn site_latency(&self, a: u32, b: u32) -> Duration {
        for s in [a, b] {
            assert!(
                (s as usize) < self.sites,
                "site {s} out of range for {} sites",
                self.sites
            );
        }
        self.pair_latency(a, b)
    }

    /// One-way latency between two in-range sites.
    #[inline]
    fn pair_latency(&self, a: u32, b: u32) -> Duration {
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        if hi == lo {
            return Duration::ZERO;
        }
        let [x, y, z] = self.lat_us[pair_index(hi as usize, lo as usize)];
        Duration::from_micros(u32::from_le_bytes([x, y, z, 0]) as u64)
    }

    /// The stored entries, in microseconds.
    fn entries_us(&self) -> impl Iterator<Item = u32> + '_ {
        self.lat_us
            .iter()
            .map(|&[a, b, c]| u32::from_le_bytes([a, b, c, 0]))
    }

    /// Mean one-way latency over all distinct site pairs.
    pub fn mean_site_latency(&self) -> Duration {
        let sum: u64 = self.entries_us().map(u64::from).sum();
        match sum.checked_div(self.lat_us.len() as u64) {
            Some(v) => Duration::from_micros(v),
            None => Duration::ZERO,
        }
    }

    /// Maximum one-way latency over all site pairs.
    pub fn max_site_latency(&self) -> Duration {
        Duration::from_micros(self.entries_us().max().unwrap_or(0) as u64)
    }
}

impl LatencyModel for SiteLatencyMatrix {
    fn one_way(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let (sa, sb) = (self.node_site[a.index()], self.node_site[b.index()]);
        if sa == sb {
            self.intra_site
        } else {
            self.pair_latency(sa, sb)
        }
    }

    fn len(&self) -> usize {
        self.node_site.len()
    }

    fn lookahead(&self) -> Option<Duration> {
        self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tiny() -> SiteLatencyMatrix {
        // 3 sites: 0-1 = 10ms, 0-2 = 20ms, 1-2 = 30ms. 4 nodes, two at site 0.
        let ms = |v: u32| v * 1000;
        let lower = [ms(10), ms(20), ms(30)];
        SiteLatencyMatrix::new(3, &lower, vec![0, 0, 1, 2], Duration::from_micros(500))
    }

    #[test]
    fn node_latencies_follow_sites() {
        let m = tiny();
        let n = NodeId::new;
        assert_eq!(m.one_way(n(0), n(2)), Duration::from_millis(10));
        assert_eq!(m.one_way(n(2), n(3)), Duration::from_millis(30));
        assert_eq!(
            m.one_way(n(0), n(1)),
            Duration::from_micros(500),
            "intra-site"
        );
        assert_eq!(m.one_way(n(3), n(3)), Duration::ZERO);
        assert_eq!(m.len(), 4);
        assert_eq!(m.site_count(), 3);
        assert_eq!(m.site_of(n(3)), 2);
    }

    #[test]
    fn symmetry_holds_for_nodes() {
        let m = tiny();
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(
                    m.one_way(NodeId::new(i), NodeId::new(j)),
                    m.one_way(NodeId::new(j), NodeId::new(i))
                );
            }
        }
    }

    #[test]
    fn summary_statistics() {
        let m = tiny();
        assert_eq!(m.mean_site_latency(), Duration::from_millis(20));
        assert_eq!(m.max_site_latency(), Duration::from_millis(30));
    }

    #[test]
    #[should_panic(expected = "site 3 out of range for 3 sites")]
    fn rejects_out_of_range_site() {
        // An id past the last site must not read another pair's entry.
        let _ = tiny().site_latency(0, 3);
    }

    #[test]
    #[should_panic(expected = "needs 3 entries")]
    fn rejects_wrong_triangle_length() {
        let _ = SiteLatencyMatrix::new(3, &[1, 2], vec![0, 1], Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "24-bit")]
    fn rejects_entry_past_24_bits() {
        let _ = SiteLatencyMatrix::new(2, &[1 << 24], vec![0, 1], Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn rejects_bad_assignment() {
        let _ = SiteLatencyMatrix::new(2, &[1], vec![0, 9], Duration::ZERO);
    }

    /// A row-major `sites x sites` table holding every pair twice: what
    /// each method of the packed matrix must reproduce.
    struct Square {
        sites: usize,
        lat_us: Vec<u32>,
        node_site: Vec<u32>,
        intra_site: Duration,
    }

    impl Square {
        fn site_latency(&self, a: u32, b: u32) -> Duration {
            Duration::from_micros(self.lat_us[a as usize * self.sites + b as usize] as u64)
        }

        fn one_way(&self, a: NodeId, b: NodeId) -> Duration {
            let (sa, sb) = (self.node_site[a.index()], self.node_site[b.index()]);
            match (a == b, sa == sb) {
                (true, _) => Duration::ZERO,
                (false, true) => self.intra_site,
                (false, false) => self.site_latency(sa, sb),
            }
        }

        fn mean(&self) -> Duration {
            let (mut sum, mut count) = (0u64, 0u64);
            for i in 0..self.sites {
                for j in (i + 1)..self.sites {
                    sum += self.lat_us[i * self.sites + j] as u64;
                    count += 1;
                }
            }
            Duration::from_micros(sum / count)
        }

        fn max(&self) -> Duration {
            Duration::from_micros(*self.lat_us.iter().max().unwrap() as u64)
        }

        fn lookahead(&self) -> Option<Duration> {
            let min_pair = self
                .lat_us
                .iter()
                .copied()
                .filter(|&us| us > 0)
                .min()
                .map(|us| Duration::from_micros(us as u64))
                .unwrap_or(self.intra_site);
            let bound = min_pair.min(self.intra_site);
            (bound > Duration::ZERO).then_some(bound)
        }
    }

    proptest::proptest! {
        #[test]
        fn every_method_matches_a_square_reference(
            sites in 2usize..70,
            nodes in 1usize..200,
            intra_us in 0u64..2_000,
            seed in 0u64..1_000_000,
        ) {
            let mut r = SmallRng::seed_from_u64(seed);
            // Zeros, small entries, the whole 24-bit range and its top.
            let entry = |r: &mut SmallRng| match r.gen_range(0..8u32) {
                0 => 0,
                1 => ENTRY_LIMIT_US - 1,
                2 | 3 => r.gen_range(1..2_000),
                _ => r.gen_range(0..ENTRY_LIMIT_US),
            };
            let mut square = vec![0u32; sites * sites];
            let mut lower = vec![0u32; pair_count(sites)];
            for i in 0..sites {
                for j in 0..i {
                    let us = entry(&mut r);
                    square[i * sites + j] = us;
                    square[j * sites + i] = us;
                    lower[pair_index(i, j)] = us;
                }
            }
            let node_site: Vec<u32> = (0..nodes).map(|_| r.gen_range(0..sites as u32)).collect();
            let intra_site = Duration::from_micros(intra_us);
            let m = SiteLatencyMatrix::new(sites, &lower, node_site.clone(), intra_site);
            let want = Square { sites, lat_us: square, node_site, intra_site };

            proptest::prop_assert_eq!(m.site_count(), sites);
            proptest::prop_assert_eq!(m.len(), nodes);
            proptest::prop_assert_eq!(m.site_assignment(), &want.node_site[..]);
            for a in 0..sites as u32 {
                for b in 0..sites as u32 {
                    proptest::prop_assert_eq!(m.site_latency(a, b), want.site_latency(a, b));
                }
            }
            for a in (0..nodes as u32).map(NodeId::new) {
                proptest::prop_assert_eq!(m.site_of(a), want.node_site[a.index()]);
                for b in (0..nodes as u32).map(NodeId::new) {
                    proptest::prop_assert_eq!(m.one_way(a, b), want.one_way(a, b));
                }
            }
            proptest::prop_assert_eq!(m.mean_site_latency(), want.mean());
            proptest::prop_assert_eq!(m.max_site_latency(), want.max());
            proptest::prop_assert_eq!(m.lookahead(), want.lookahead());
        }
    }
}
