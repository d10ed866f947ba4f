//! Where every node lives, on both hosts: see [`Placement`].

use crate::id::NodeId;

/// Where every node lives, on both hosts: the one map from a node id to
/// the worker that owns it and its slot in that worker's arenas. The
/// engine lays its workers out with it, and a `gocast-testnet` fabric its
/// shards; no other code divides an id by a worker count.
///
/// The layout stripes: node `g` lives in worker `g % workers` at slot
/// `g / workers`. Nothing a run computes depends on it (every event's
/// tie and every loss/jitter draw belongs to the node that scheduled it),
/// so a layout that keeps a site's nodes on one worker changes this
/// type's body and no output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    workers: u32,
    population: usize,
}

impl Placement {
    /// `population` nodes over `workers` workers (at least one, at most
    /// one a node).
    pub fn new(population: usize, workers: usize) -> Self {
        Placement {
            workers: workers.clamp(1, population.max(1)) as u32,
            population,
        }
    }

    /// Nodes laid out.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Workers the nodes are spread over.
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// The worker that owns node `g`. One worker skips the division: this
    /// sits on every send.
    #[inline(always)]
    pub fn owner(&self, g: NodeId) -> usize {
        if self.workers == 1 {
            0
        } else {
            (g.as_u32() % self.workers) as usize
        }
    }

    /// Node `g`'s slot in its worker's arenas. One worker skips the
    /// division: this sits on every dispatch.
    #[inline(always)]
    pub fn slot(&self, g: NodeId) -> usize {
        if self.workers == 1 {
            g.index()
        } else {
            (g.as_u32() / self.workers) as usize
        }
    }

    /// The node in slot `slot` of worker `worker`.
    pub fn node(&self, worker: usize, slot: usize) -> NodeId {
        NodeId::new((slot * self.workers() + worker) as u32)
    }

    /// How many nodes worker `worker` owns.
    pub(crate) fn owned(&self, worker: usize) -> usize {
        self.population
            .saturating_sub(worker)
            .div_ceil(self.workers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    const WORKERS: [usize; 5] = [1, 2, 3, 4, 64];

    /// Every id round-trips through its worker and slot, slots fill in id
    /// order, and the workers' shares sum to the population.
    fn check(population: usize, workers: usize) -> Result<(), TestCaseError> {
        let p = Placement::new(population, workers);
        prop_assert_eq!(p.workers(), workers.min(population));
        let mut per_worker = vec![0; p.workers()];
        for g in (0..population as u32).map(NodeId::new) {
            let (worker, slot) = (p.owner(g), p.slot(g));
            prop_assert_eq!(p.node(worker, slot), g);
            prop_assert_eq!(slot, per_worker[worker]);
            per_worker[worker] += 1;
        }
        for (worker, count) in per_worker.iter().enumerate() {
            prop_assert_eq!(p.owned(worker), *count);
        }
        prop_assert_eq!(
            (0..p.workers()).map(|w| p.owned(w)).sum::<usize>(),
            population
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn every_id_has_one_home(
            workers in 0usize..WORKERS.len(),
            population in 1usize..3000,
        ) {
            check(population, WORKERS[workers])?;
        }
    }

    /// The same property on the whole grid, at populations below every
    /// worker count but one, at and around 64, and ones no worker count
    /// but one divides.
    #[test]
    fn every_id_has_one_home_on_the_grid() {
        for population in [1, 2, 3, 5, 63, 64, 65, 1001] {
            for workers in WORKERS {
                if let Err(e) = check(population, workers) {
                    panic!("{population} nodes, {workers} workers: {e:?}");
                }
            }
        }
    }

    /// The striping the engine and the fabric use, named.
    #[test]
    fn ids_stripe_across_workers() {
        let p = Placement::new(10, 4);
        let owners: Vec<usize> = (0..10).map(|g| p.owner(NodeId::new(g))).collect();
        assert_eq!(owners, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        assert_eq!(p.slot(NodeId::new(9)), 2);
        assert_eq!(p.owned(1), 3);
        // No more workers than nodes.
        assert_eq!(Placement::new(3, 8).workers(), 3);
        assert_eq!(Placement::new(0, 0).workers(), 1);
    }
}
