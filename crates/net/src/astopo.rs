//! AS-level physical topology and link-stress accounting.
//!
//! **Substitution note (see DESIGN.md):** the paper's bottleneck-stress
//! experiment uses "large-scale snapshots of the Internet Autonomous
//! Systems". Offline, we synthesize a two-level transit–stub AS graph
//! aligned with the latency matrix, where a few transit links carry most
//! cross-traffic ([`AsTopology::transit_stub`]). Sites attach to stub
//! ASes; overlay traffic between two sites is routed on the shortest AS
//! path, and *link stress* counts how many overlay messages traverse each
//! physical (AS-AS) link.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gocast_sim::NodeId;

use crate::matrix::SiteLatencyMatrix;

/// Groups sites by latency proximity: a greedy clustering that repeatedly
/// takes an unassigned site and groups the nearest unassigned sites with
/// it. Sites in the same group get the same group index, which
/// [`AsTopology::transit_stub`] maps onto the same stub AS — modelling the
/// fact that low-latency site pairs are usually topologically close.
pub fn geographic_site_assignment(net: &SiteLatencyMatrix, groups: usize, seed: u64) -> Vec<u32> {
    let sites = net.site_count();
    assert!(groups > 0, "need at least one group");
    let group_size = sites.div_ceil(groups);
    let mut assignment = vec![u32::MAX; sites];
    let mut order: Vec<u32> = (0..sites as u32).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut next_group = 0u32;
    for &leader in &order {
        if assignment[leader as usize] != u32::MAX {
            continue;
        }
        let mut nearest: Vec<(u64, u32)> = (0..sites as u32)
            .filter(|&s| assignment[s as usize] == u32::MAX && s != leader)
            .map(|s| (net.site_latency(leader, s).as_micros() as u64, s))
            .collect();
        nearest.sort_unstable();
        assignment[leader as usize] = next_group;
        for (_, s) in nearest.into_iter().take(group_size - 1) {
            assignment[s as usize] = next_group;
        }
        next_group += 1;
    }
    assignment
}

/// An undirected AS-level graph with deterministic shortest-path routing and
/// a site-to-AS attachment.
#[derive(Debug, Clone)]
pub struct AsTopology {
    adj: Vec<Vec<u32>>,
    site_as: Vec<u32>,
    /// `parents[src][v]` = predecessor of `v` on the BFS tree rooted at
    /// `src` (`u32::MAX` for unreachable / root).
    parents: Vec<Vec<u32>>,
}

impl AsTopology {
    /// Builds a two-level **transit–stub** topology (the classic GT-ITM
    /// shape) aligned with a latency matrix:
    ///
    /// - `regions` transit ASes form the core — a sparse ring with one
    ///   cross chord (like a real backbone, where inter-continental
    ///   capacity is concentrated on few links);
    /// - each region owns `stubs_per_region` stub ASes, single-homed to
    ///   its regional transit;
    /// - sites are clustered by latency twice — coarsely into regions and
    ///   finely into stub groups — so that low-latency site pairs attach
    ///   to the same stub (0 AS hops) or to stubs of the same region
    ///   (2 hops), while far pairs cross the core (3 hops).
    ///
    /// This is the topology where proximity-aware overlays pay off: it
    /// encodes the real-Internet correlation between latency and AS-path
    /// locality.
    ///
    /// # Panics
    ///
    /// Panics if `regions < 2` or `stubs_per_region == 0`.
    pub fn transit_stub(
        net: &SiteLatencyMatrix,
        regions: usize,
        stubs_per_region: usize,
        seed: u64,
    ) -> Self {
        assert!(regions >= 2, "need at least two regions");
        assert!(stubs_per_region > 0, "need at least one stub per region");
        let sites = net.site_count();
        let coarse = geographic_site_assignment(net, regions, seed);
        let fine = geographic_site_assignment(net, regions * stubs_per_region, seed ^ 1);

        // Region of each fine group: majority vote of its sites' coarse
        // groups (coarse group indices are arbitrary but consistent).
        let fine_count = fine.iter().map(|&g| g as usize + 1).max().unwrap_or(1);
        let coarse_count = coarse.iter().map(|&g| g as usize + 1).max().unwrap_or(1);
        let mut votes = vec![vec![0u32; coarse_count]; fine_count];
        for s in 0..sites {
            votes[fine[s] as usize][coarse[s] as usize] += 1;
        }
        let region_of_fine: Vec<usize> = votes
            .iter()
            .map(|v| {
                v.iter()
                    .enumerate()
                    .max_by_key(|(i, &c)| (c, usize::MAX - i))
                    .map(|(i, _)| i % regions)
                    .unwrap_or(0)
            })
            .collect();

        // AS ids: 0..regions = transit core; then stubs_per_region per
        // region.
        let as_count = regions + regions * stubs_per_region;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); as_count];
        let core_link = |adj: &mut Vec<Vec<u32>>, a: usize, b: usize| {
            if a != b && !adj[a].contains(&(b as u32)) {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
            }
        };
        if regions <= 3 {
            for a in 0..regions {
                for b in (a + 1)..regions {
                    core_link(&mut adj, a, b);
                }
            }
        } else {
            // Ring plus one diameter chord.
            for a in 0..regions {
                core_link(&mut adj, a, (a + 1) % regions);
            }
            core_link(&mut adj, 0, regions / 2);
        }
        let stub_id = |region: usize, k: usize| regions + region * stubs_per_region + k;
        for r in 0..regions {
            for k in 0..stubs_per_region {
                let s = stub_id(r, k);
                adj[s].push(r as u32);
                adj[r].push(s as u32);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }

        // Map fine groups onto their region's stubs round-robin.
        let mut next_in_region = vec![0usize; regions];
        let stub_of_fine: Vec<u32> = region_of_fine
            .iter()
            .map(|&r| {
                let k = next_in_region[r] % stubs_per_region;
                next_in_region[r] += 1;
                stub_id(r, k) as u32
            })
            .collect();
        let site_as: Vec<u32> = (0..sites).map(|s| stub_of_fine[fine[s] as usize]).collect();

        let parents = Self::all_pairs_bfs(&adj);
        AsTopology {
            adj,
            site_as,
            parents,
        }
    }

    fn all_pairs_bfs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let as_count = adj.len();
        (0..as_count)
            .map(|src| {
                let mut parent = vec![u32::MAX; as_count];
                let mut seen = vec![false; as_count];
                let mut queue = std::collections::VecDeque::new();
                seen[src] = true;
                queue.push_back(src as u32);
                while let Some(u) = queue.pop_front() {
                    for &w in &adj[u as usize] {
                        if !seen[w as usize] {
                            seen[w as usize] = true;
                            parent[w as usize] = u;
                            queue.push_back(w);
                        }
                    }
                }
                parent
            })
            .collect()
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.adj.len()
    }

    /// Degree of AS `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// The AS a site attaches to.
    pub fn as_of_site(&self, site: u32) -> u32 {
        self.site_as[site as usize]
    }

    /// The AS-level links (normalized `(min, max)` pairs) on the shortest
    /// path between the ASes of two sites. Empty if co-located.
    pub fn path_links(&self, site_a: u32, site_b: u32) -> Vec<(u32, u32)> {
        let (a, b) = (self.as_of_site(site_a), self.as_of_site(site_b));
        let mut links = Vec::new();
        let parent = &self.parents[a as usize];
        let mut v = b;
        while v != a {
            let p = parent[v as usize];
            assert_ne!(p, u32::MAX, "AS graph must be connected");
            links.push((v.min(p), v.max(p)));
            v = p;
        }
        links
    }

    /// AS-path hop count between two sites.
    pub fn path_len(&self, site_a: u32, site_b: u32) -> usize {
        self.path_links(site_a, site_b).len()
    }
}

/// Per-physical-link traffic totals for overlay traffic (bytes when fed
/// from [`gocast_sim::TrafficStats::pair_counts`], or any unit the caller
/// accumulates).
#[derive(Debug, Clone, Default)]
pub struct LinkStress {
    counts: HashMap<(u32, u32), u64>,
}

impl LinkStress {
    /// Empty accumulator.
    pub fn new() -> Self {
        LinkStress::default()
    }

    /// Adds `msgs` units of overlay traffic between two sites, routed on
    /// `topo`.
    pub fn accumulate(&mut self, topo: &AsTopology, site_a: u32, site_b: u32, msgs: u64) {
        for link in topo.path_links(site_a, site_b) {
            *self.counts.entry(link).or_insert(0) += msgs;
        }
    }

    /// Builds stress from a simulation's per-pair byte counts.
    pub fn from_pair_counts(
        topo: &AsTopology,
        net: &SiteLatencyMatrix,
        pair_counts: &HashMap<(NodeId, NodeId), u64>,
    ) -> Self {
        let mut s = LinkStress::new();
        for (&(a, b), &msgs) in pair_counts {
            s.accumulate(topo, net.site_of(a), net.site_of(b), msgs);
        }
        s
    }

    /// Highest traversal count over any physical link (the bottleneck).
    pub fn max(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Total traversals over all links.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of physical links that carried any traffic.
    pub fn links_used(&self) -> usize {
        self.counts.len()
    }

    /// The `k` most stressed links, descending.
    pub fn top_k(&self, k: usize) -> Vec<((u32, u32), u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Mean traversal count over links that carried traffic.
    pub fn mean_over_used(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.counts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 sites on 4 regions of 15 stubs each: 64 ASes.
    fn topo() -> AsTopology {
        AsTopology::transit_stub(&crate::two_continents(100, 5), 4, 15, 5)
    }

    #[test]
    fn graph_is_connected_and_sized() {
        let t = topo();
        assert_eq!(t.as_count(), 64);
        // Every AS reachable from AS 0.
        for v in 1..64u32 {
            assert!(
                t.parents[0][v as usize] != u32::MAX,
                "AS {v} unreachable from 0"
            );
        }
    }

    #[test]
    fn paths_connect_and_are_consistent() {
        let t = topo();
        for a in 0..20u32 {
            for b in 0..20u32 {
                let links = t.path_links(a, b);
                if t.as_of_site(a) == t.as_of_site(b) {
                    assert!(links.is_empty());
                } else {
                    assert!(!links.is_empty());
                    // Path endpoints must touch both ASes.
                    let flat: Vec<u32> = links.iter().flat_map(|&(x, y)| [x, y]).collect();
                    assert!(flat.contains(&t.as_of_site(a)));
                    assert!(flat.contains(&t.as_of_site(b)));
                }
            }
        }
    }

    #[test]
    fn stress_accumulates_per_link() {
        let t = topo();
        let mut s = LinkStress::new();
        s.accumulate(&t, 0, 1, 10);
        s.accumulate(&t, 0, 1, 5);
        let hops = t.path_len(0, 1) as u64;
        assert_eq!(s.total(), 15 * hops);
        if hops > 0 {
            assert_eq!(s.max(), 15);
        }
        assert!(s.mean_over_used() > 0.0 || hops == 0);
    }

    #[test]
    fn top_k_is_sorted_desc() {
        let t = topo();
        let mut s = LinkStress::new();
        for a in 0..30u32 {
            s.accumulate(&t, a, (a + 31) % 100, 1);
        }
        let top = s.top_k(5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(top.len() <= 5);
    }

    #[test]
    fn deterministic() {
        let net = crate::two_continents(40, 9);
        let a = AsTopology::transit_stub(&net, 4, 3, 9);
        let b = AsTopology::transit_stub(&net, 4, 3, 9);
        assert_eq!(a.site_as, b.site_as);
        assert_eq!(a.adj, b.adj);
    }

    #[test]
    fn geographic_assignment_groups_nearby_sites() {
        let net = crate::two_continents(20, 4);
        let groups = geographic_site_assignment(&net, 4, 4);
        assert_eq!(groups.len(), 20);
        // No group spans both continents (inter-continent latency is
        // ~10x intra), so continents map to disjoint group sets.
        let west: std::collections::HashSet<u32> = (0..10).map(|s| groups[s as usize]).collect();
        let east: std::collections::HashSet<u32> = (10..20).map(|s| groups[s as usize]).collect();
        assert!(west.is_disjoint(&east), "west {west:?} east {east:?}");
    }

    #[test]
    fn transit_stub_paths_reflect_locality() {
        let net = crate::two_continents(40, 6);
        let topo = AsTopology::transit_stub(&net, 2, 4, 6);
        assert_eq!(topo.as_count(), 2 + 8);
        // Cross-continent sites pay 3 hops (stub-transit-transit-stub) or
        // 2 if one side sits on... never: distinct regions => 3.
        let cross = topo.path_len(0, 30);
        assert_eq!(cross, 3, "cross-region path should cross the core");
        // Same-continent pairs pay at most 2 hops.
        for a in 0..20u32 {
            for b in (a + 1)..20 {
                assert!(
                    topo.path_len(a, b) <= 2,
                    "intra-region {a}-{b} took {} hops",
                    topo.path_len(a, b)
                );
            }
        }
    }

    #[test]
    fn transit_stub_same_stub_sites_share_as() {
        let net = crate::two_continents(40, 7);
        let topo = AsTopology::transit_stub(&net, 2, 2, 7);
        // 40 sites over 4 stubs: some pair must share a stub (0 hops).
        let mut shared = false;
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                if topo.path_len(a, b) == 0 {
                    shared = true;
                }
            }
        }
        assert!(shared, "expected co-located sites on a shared stub");
    }

    #[test]
    #[should_panic(expected = "two regions")]
    fn transit_stub_rejects_single_region() {
        let net = crate::two_continents(10, 8);
        let _ = AsTopology::transit_stub(&net, 1, 2, 8);
    }

    #[test]
    fn geographic_assignment_balances_group_sizes() {
        let net = crate::king_like(1, 5); // 1740 sites
        let groups = geographic_site_assignment(&net, 100, 5);
        let mut counts = std::collections::HashMap::new();
        for g in groups {
            *counts.entry(g).or_insert(0usize) += 1;
        }
        // ceil(1740 / ceil(1740/100)) = 97 groups of <= 18 sites.
        assert!(counts.len() >= 90, "got {} groups", counts.len());
        let max = counts.values().max().unwrap();
        assert!(*max <= 18, "groups should hold ~17-18 sites, max {max}");
    }
}
