//! Where every node lives, on both hosts: see [`Placement`].

use std::ops::Range;

use crate::id::NodeId;

/// Where every node lives, on both hosts: the one map from a node id to
/// its lane, its slot in that lane's arenas, and the worker that runs the
/// lane. The engine lays its lanes out with it, and a `gocast-testnet`
/// fabric its shards (one lane a worker); no other code divides an id by
/// a lane count.
///
/// The layout stripes: node `g` lives in lane `g % lanes` at slot
/// `g / lanes`, and worker `w` runs the contiguous chunk of lanes from
/// `w * per_worker` on. A layout that keeps a site's nodes in one lane
/// changes this type's body and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    lanes: u32,
    per_worker: u32,
    population: usize,
}

impl Placement {
    /// `population` nodes over `lanes` lanes (at least one, at most one a
    /// node), run by `threads` workers over contiguous chunks of
    /// `lanes / threads` lanes, rounded up — so fewer workers where that
    /// leaves the last chunks empty.
    pub fn new(population: usize, lanes: usize, threads: usize) -> Self {
        let lanes = lanes.clamp(1, population.max(1));
        let per_worker = lanes.div_ceil(threads.clamp(1, lanes));
        Placement {
            lanes: lanes as u32,
            per_worker: per_worker as u32,
            population,
        }
    }

    /// Nodes laid out.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Lanes the nodes are spread over.
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Workers the lanes are spread over.
    pub(crate) fn workers(&self) -> usize {
        self.lanes.div_ceil(self.per_worker) as usize
    }

    /// The lane that owns node `g`. One lane skips the division: this
    /// sits on every send.
    #[inline(always)]
    pub fn lane(&self, g: NodeId) -> usize {
        if self.lanes == 1 {
            0
        } else {
            (g.as_u32() % self.lanes) as usize
        }
    }

    /// Node `g`'s slot in its lane's arenas. One lane skips the division:
    /// this sits on every dispatch.
    #[inline(always)]
    pub fn slot(&self, g: NodeId) -> usize {
        if self.lanes == 1 {
            g.index()
        } else {
            (g.as_u32() / self.lanes) as usize
        }
    }

    /// The worker that runs lane `lane`.
    #[inline]
    pub(crate) fn worker(&self, lane: usize) -> usize {
        lane / self.per_worker as usize
    }

    /// The lanes worker `worker` runs.
    pub(crate) fn lanes_of(&self, worker: usize) -> Range<usize> {
        let first = worker * self.per_worker as usize;
        first..self.lanes().min(first + self.per_worker as usize)
    }

    /// The node in slot `slot` of lane `lane`.
    pub fn node(&self, lane: usize, slot: usize) -> NodeId {
        NodeId::new((slot * self.lanes() + lane) as u32)
    }

    /// How many nodes lane `lane` owns.
    pub(crate) fn owned(&self, lane: usize) -> usize {
        self.population.saturating_sub(lane).div_ceil(self.lanes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    const LANES: [usize; 4] = [1, 3, 4, 64];
    const THREADS: [usize; 3] = [1, 2, 4];

    /// Every id round-trips through its lane and slot, its worker runs its
    /// lane, slots fill in id order, and the lanes' shares sum to the
    /// population.
    fn check(population: usize, lanes: usize, threads: usize) -> Result<(), TestCaseError> {
        let p = Placement::new(population, lanes, threads);
        prop_assert_eq!(p.lanes(), lanes.min(population));
        let mut per_lane = vec![0; p.lanes()];
        for g in (0..population as u32).map(NodeId::new) {
            let (lane, slot) = (p.lane(g), p.slot(g));
            prop_assert_eq!(p.node(lane, slot), g);
            prop_assert!(p.lanes_of(p.worker(lane)).contains(&lane));
            prop_assert_eq!(slot, per_lane[lane]);
            per_lane[lane] += 1;
        }
        for (lane, count) in per_lane.iter().enumerate() {
            prop_assert_eq!(p.owned(lane), *count);
        }
        prop_assert_eq!(
            (0..p.lanes()).map(|l| p.owned(l)).sum::<usize>(),
            population
        );
        let covered: Vec<usize> = (0..p.workers()).flat_map(|w| p.lanes_of(w)).collect();
        prop_assert_eq!(covered, (0..p.lanes()).collect::<Vec<_>>());
        Ok(())
    }

    proptest! {
        #[test]
        fn every_id_has_one_home(
            lanes in 0usize..LANES.len(),
            threads in 0usize..THREADS.len(),
            population in 1usize..3000,
        ) {
            check(population, LANES[lanes], THREADS[threads])?;
        }
    }

    /// The same property on the whole grid, at populations below every
    /// lane count but one, at and around 64, and ones no lane count but
    /// one divides.
    #[test]
    fn every_id_has_one_home_on_the_grid() {
        for population in [1, 2, 3, 5, 63, 64, 65, 1001] {
            for (lanes, threads) in LANES.into_iter().flat_map(|l| THREADS.map(|t| (l, t))) {
                if let Err(e) = check(population, lanes, threads) {
                    panic!("{population} nodes, {lanes} lanes, {threads} threads: {e:?}");
                }
            }
        }
    }

    /// The striping the engine and the fabric have always used: the
    /// goldens and lane pins hold it, this names it.
    #[test]
    fn ids_stripe_across_lanes_and_chunk_across_workers() {
        let p = Placement::new(10, 4, 2);
        let lanes: Vec<usize> = (0..10).map(|g| p.lane(NodeId::new(g))).collect();
        assert_eq!(lanes, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        assert_eq!(p.slot(NodeId::new(9)), 2);
        assert_eq!((p.workers(), p.lanes_of(1)), (2, 2..4));
        assert_eq!(p.owned(1), 3);
        // Fewer workers than threads where the chunks run out.
        assert_eq!(Placement::new(100, 3, 2).workers(), 2);
        assert_eq!(Placement::new(100, 4, 3).workers(), 2);
    }
}
