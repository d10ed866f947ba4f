//! Overlay maintenance (paper §2.2.2–§2.2.3).
//!
//! Every maintenance period `r` a node runs two protocols:
//!
//! - **random neighbors** — push `D_rand` toward `C_rand` with the two
//!   degree-balancing operations (hand a surplus pair to each other;
//!   drop a link to an over-degree random neighbor);
//! - **nearby neighbors** — probe one member-list candidate per cycle
//!   (estimated-latency order first, round-robin afterwards) and apply the
//!   replace/add/drop rules with conditions C1–C4.

use gocast_net::LandmarkVector;
use gocast_sim::{Ctx, NodeId};
use rand::Rng;

use crate::types::{DegreeInfo, DropReason, LinkKind};
use crate::wire::{GoCastMsg, ProbeKind};

use super::{known, timers, GoCastNode, Neighbor};

impl GoCastNode {
    /// The periodic maintenance tick.
    pub(crate) fn on_maintenance_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.frozen || !self.joined {
            Self::arm(ctx, self.cfg.maintenance_period, timers::MAINTENANCE);
            return;
        }
        let changes_before = self.link_changes;
        self.expire_pending_links(ctx.now());
        self.check_neighbor_liveness(ctx);
        self.maintain_random(ctx);
        self.maintain_nearby(ctx);

        // Future-work feature (§2.2.3): "As the overlay stabilizes, the
        // opportunity for improvement diminishes. The maintenance cycle r
        // can be increased accordingly to reduce maintenance overheads."
        let period = if self.cfg.adaptive_maintenance {
            let deficient = self.d_rand() < self.c_rand || self.d_near() < self.c_near;
            if self.link_changes != changes_before || deficient {
                self.maint_backoff = 0;
            } else {
                self.maint_backoff = self.maint_backoff.saturating_add(1);
            }
            (self.cfg.maintenance_period * 2u32.pow(self.maint_backoff.min(5)))
                .min(self.cfg.max_maintenance_period)
        } else {
            self.cfg.maintenance_period
        };
        Self::arm(ctx, period, timers::MAINTENANCE);
    }

    // ------------------------------------------------------------------
    // Random neighbors (§2.2.2).
    // ------------------------------------------------------------------

    fn maintain_random(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.c_rand == 0 {
            return;
        }
        let d = self.d_rand();
        if d < self.c_rand {
            // Too few: connect to a random member.
            if self.pending_rand_link.is_some() {
                return;
            }
            // Draw a few samples to find a non-neighbor.
            for _ in 0..4 {
                let Some(cand) = self.view.sample(ctx.rng()) else {
                    return;
                };
                if cand != self.id && !self.neighbors.contains(cand) {
                    self.request_link(ctx, cand, LinkKind::Random, None, None);
                    return;
                }
            }
        } else if d >= self.c_rand + 2 {
            // Operation 1: pick two random neighbors Y and Z, ask Y to
            // connect to Z, and drop both links. Our degree falls by two;
            // theirs stay unchanged.
            let randoms: Vec<NodeId> = self
                .neighbors
                .iter()
                .filter(|n| n.kind == LinkKind::Random)
                .map(Neighbor::id)
                .collect();
            let i = ctx.rng().gen_range(0..randoms.len());
            let mut j = ctx.rng().gen_range(0..randoms.len() - 1);
            if j >= i {
                j += 1;
            }
            let (y, z) = (randoms[i], randoms[j]);
            ctx.send(y, GoCastMsg::ConnectTo { target: z });
            self.drop_link(ctx, y, DropReason::Rebalanced, true);
            self.drop_link(ctx, z, DropReason::Rebalanced, true);
        } else if d > self.c_rand {
            // Operation 2: drop the link to a random neighbor that itself
            // has more than C_rand random neighbors, so both degrees stay
            // >= C_rand. If no such neighbor exists, stay at C_rand + 1.
            let victim = self
                .neighbors
                .iter()
                .find(|n| n.kind == LinkKind::Random && n.degrees.d_rand > n.degrees.t_rand)
                .map(Neighbor::id);
            if let Some(w) = victim {
                self.drop_link(ctx, w, DropReason::Surplus, true);
            }
        }
    }

    // ------------------------------------------------------------------
    // Nearby neighbors (§2.2.3).
    // ------------------------------------------------------------------

    fn maintain_nearby(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.c_near == 0 {
            return;
        }
        self.drop_surplus_nearby(ctx);
        // One RTT measurement per cycle toward adding/replacing.
        if self.pending_link.is_none() {
            if let Some(cand) = self.next_probe_candidate(ctx) {
                let sent_at_us = Self::now_us(ctx);
                ctx.send(
                    cand,
                    GoCastMsg::Ping {
                        kind: ProbeKind::Candidate,
                        sent_at_us,
                    },
                );
            }
        }
    }

    /// Builds the estimated-latency-ordered probe queue once coordinates
    /// are usable, then walks it; afterwards falls back to round-robin
    /// over the member view ("Once all nodes in S have been measured, the
    /// estimated latencies are no longer used ... in a round robin
    /// fashion").
    fn next_probe_candidate(&mut self, ctx: &mut Ctx<'_, Self>) -> Option<NodeId> {
        if !self.probe_queue_built && !self.coords.is_empty() && !self.view.is_empty() {
            let my = self.coords;
            let mut q: Vec<(u64, NodeId)> = self
                .view
                .entries()
                .map(|(id, c)| {
                    let est = my
                        .estimate_rtt(c)
                        .map(|d| d.as_micros() as u64)
                        .unwrap_or(u64::MAX / 2);
                    (est, id)
                })
                .collect();
            q.sort_unstable();
            self.probe_queue = q.into_iter().map(|(_, id)| id).collect();
            self.probe_cursor = 0;
            self.probe_queue_built = true;
        }
        // Walk the sorted queue first.
        while self.probe_cursor < self.probe_queue.len() {
            let cand = self.probe_queue[self.probe_cursor];
            self.probe_cursor += 1;
            if cand != self.id && !self.neighbors.contains(cand) && self.view.contains(cand) {
                return Some(cand);
            }
        }
        // The sorted walk is over until a join reply rebuilds it: give the
        // ids back rather than hold one per member for the rest of the run.
        self.probe_queue = Vec::new();
        self.probe_cursor = 0;
        // Then round-robin over the (possibly grown) view.
        for _ in 0..self.view.len().min(8) {
            let cand = self.view.next_round_robin()?;
            if cand != self.id && !self.neighbors.contains(cand) {
                return Some(cand);
            }
        }
        let _ = ctx; // candidate selection uses no randomness beyond the view
        None
    }

    /// Drop rule: only once `D_near >= C_near + 2` (or `+ 1` under the
    /// aggressive ablation), shed longest-latency nearby links whose
    /// holder's degree is not dangerously low (condition C1), down to
    /// `C_near`.
    fn drop_surplus_nearby(&mut self, ctx: &mut Ctx<'_, Self>) {
        let threshold = if self.cfg.aggressive_drop { 1 } else { 2 };
        let d = self.d_near();
        if d < self.c_near + threshold {
            return;
        }
        let mut droppable: Vec<(u64, NodeId)> = self
            .neighbors
            .iter()
            .filter(|n| n.kind == LinkKind::Nearby && self.c1_allows(n.degrees))
            .map(|n| (n.rtt_us().unwrap_or(u64::MAX), n.id()))
            .collect();
        // Longest latency first; unmeasured links count as long.
        droppable.sort_unstable_by(|a, b| b.cmp(a));
        let excess = d - self.c_near;
        for (_, p) in droppable.into_iter().take(excess) {
            self.drop_link(ctx, p, DropReason::Surplus, true);
        }
    }

    /// Condition C1 for a neighbor with advertised degrees `deg`:
    /// `D_near(U) >= C_near - c1_offset`.
    fn c1_allows(&self, deg: DegreeInfo) -> bool {
        deg.d_near as usize + self.cfg.c1_offset >= deg.t_near as usize
    }

    // ------------------------------------------------------------------
    // Probe replies: candidate evaluation (C1–C4).
    // ------------------------------------------------------------------

    /// Handles any pong; routes candidate pongs into the add/replace rules.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_pong(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        kind: ProbeKind,
        sent_at_us: u64,
        degrees: DegreeInfo,
        max_nearby_rtt_us: u64,
        coords: LandmarkVector,
    ) {
        let rtt_us = Self::now_us(ctx).saturating_sub(sent_at_us);
        if let Some(coords) = known(coords) {
            self.view.set(from, coords);
        }
        match kind {
            ProbeKind::Landmark(i) => {
                self.coords
                    .set(i as usize, std::time::Duration::from_micros(rtt_us));
            }
            ProbeKind::LinkMeasure => {
                if let Some(n) = self.neighbors.get_mut(from) {
                    n.set_rtt_us(rtt_us);
                    n.degrees = degrees;
                }
            }
            ProbeKind::Candidate => {
                if self.frozen || !self.joined {
                    return;
                }
                if let Some(n) = self.neighbors.get_mut(from) {
                    // Became a neighbor while the probe was in flight.
                    n.set_rtt_us(rtt_us);
                    n.degrees = degrees;
                    return;
                }
                self.evaluate_candidate(ctx, from, rtt_us, degrees, max_nearby_rtt_us);
            }
        }
    }

    /// Applies the paper's add/replace decision to a freshly measured
    /// candidate `q`.
    fn evaluate_candidate(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        q: NodeId,
        rtt_us: u64,
        q_degrees: DegreeInfo,
        q_max_nearby_rtt_us: u64,
    ) {
        if self.pending_link.is_some() {
            return;
        }
        // C2: the candidate's nearby degree is not too high.
        let c2 = (q_degrees.d_near as usize) < q_degrees.t_near as usize + self.cfg.degree_slack;
        // C3: if the candidate is at/above target degree, our link must
        // beat its current worst nearby link.
        let c3 = !q_degrees.near_saturated() || rtt_us < q_max_nearby_rtt_us;
        if !(c2 && c3) {
            return;
        }

        if self.d_near() < self.c_near {
            // Adding: one new nearby neighbor per cycle at most.
            self.request_link(ctx, q, LinkKind::Nearby, Some(rtt_us), None);
            return;
        }

        // Replacing: C1 — pick the longest-latency nearby neighbor whose
        // own nearby degree is not dangerously low.
        let victim = self
            .neighbors
            .iter()
            .filter(|n| n.kind == LinkKind::Nearby && self.c1_allows(n.degrees))
            .filter_map(|n| Some((n.id(), n.rtt_us()?)))
            .max_by_key(|&(_, rtt_us)| rtt_us);
        let Some((u, u_rtt_us)) = victim else {
            return;
        };
        // C4: only adopt a significantly better link.
        if self.cfg.c4_enabled && rtt_us * 2 > u_rtt_us {
            return;
        }
        if !self.cfg.c4_enabled && rtt_us >= u_rtt_us {
            return;
        }
        self.request_link(ctx, q, LinkKind::Nearby, Some(rtt_us), Some(u));
    }

    /// Answers a ping with our degrees, worst nearby RTT, and coordinates.
    pub(crate) fn on_ping(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        kind: ProbeKind,
        sent_at_us: u64,
    ) {
        let degrees = self.degrees();
        let max_nearby_rtt_us = self.max_nearby_rtt_us();
        let coords = self.coords;
        ctx.send(
            from,
            GoCastMsg::Pong {
                kind,
                sent_at_us,
                degrees,
                max_nearby_rtt_us,
                coords,
            },
        );
    }
}
