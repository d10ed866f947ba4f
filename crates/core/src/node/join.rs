//! Bootstrap and the node-join protocol (paper §2.2.1).
//!
//! A new node contacts one known member, copies its member list, connects
//! to `C_rand` random members, and picks its initial nearby neighbors by
//! *estimated* latency (landmark coordinates), refining by real RTT probes
//! afterwards. Landmark probing also runs at cohort startup so every node
//! obtains coordinates.

use gocast_sim::{Ctx, NodeId, Timer};
use rand::Rng;

use crate::types::LinkKind;
use crate::wire::{GoCastMsg, MemberEntry, ProbeKind};

use super::{known, timers, GoCastNode};

impl GoCastNode {
    /// Begins measuring RTTs to the landmark nodes (the first
    /// `landmark_count` ids), staggered a little to avoid a thundering
    /// herd at t = 0.
    pub(crate) fn start_landmark_probing(&mut self, ctx: &mut Ctx<'_, Self>) {
        // Coordinates store at most MAX_LANDMARKS slots inline; larger
        // configured counts are clamped rather than overflowing.
        let count = self
            .cfg
            .landmark_count
            .min(gocast_net::MAX_LANDMARKS)
            .min(ctx.node_count());
        for i in 0..count {
            if NodeId::new(i as u32) == self.id {
                self.coords.set(i, std::time::Duration::ZERO);
                continue;
            }
            let delay_ms = 20 * i as u64 + ctx.rng().gen_range(0..20u64);
            ctx.set_timer(
                std::time::Duration::from_millis(delay_ms),
                Timer::with_payload(timers::LANDMARK, i as u32, 0),
            );
        }
    }

    /// Sends one landmark probe.
    pub(crate) fn on_landmark_timer(&mut self, ctx: &mut Ctx<'_, Self>, index: usize) {
        if !self.joined {
            return;
        }
        let sent_at_us = Self::now_us(ctx);
        ctx.send(
            NodeId::new(index as u32),
            GoCastMsg::Ping {
                kind: ProbeKind::Landmark(index as u16),
                sent_at_us,
            },
        );
    }

    /// Runtime join: ask `contact` for its member list.
    ///
    /// Also handles *re*join after a graceful leave, which froze
    /// maintenance and left the old tree attachment behind: both are
    /// re-armed here, and the heartbeat clock restarts so the returning
    /// node doesn't read its own absence as root silence and hijack the
    /// root role on its first root check.
    pub(crate) fn start_join(&mut self, ctx: &mut Ctx<'_, Self>, contact: NodeId) {
        self.joined = true;
        self.frozen = false;
        self.tree.parent = None;
        self.tree.dist_us = super::tree::DIST_INF;
        self.tree.last_heartbeat = ctx.now();
        self.probe_queue_built = false;
        ctx.send(contact, GoCastMsg::JoinRequest);
    }

    /// Answers a join request with our member list (plus known
    /// coordinates, plus ourselves).
    pub(crate) fn on_join_request(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId) {
        let mut members: Vec<MemberEntry> = self
            .view
            .entries()
            .filter(|&(m, _)| m != from)
            .map(|(m, &coords)| (m, coords))
            .collect();
        members.push((self.id, self.coords));
        ctx.send(from, GoCastMsg::JoinReply { members });
        // Learn about the joiner too.
        self.view.insert(from, ctx.rng());
    }

    /// Installs the contact's member list: "For the time being, node N
    /// accepts S as its member list", then connects `C_rand` random
    /// members. Nearby links follow from the ordinary maintenance cycle,
    /// which probes candidates in estimated-latency order.
    pub(crate) fn on_join_reply(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        _from: NodeId,
        members: Vec<MemberEntry>,
    ) {
        for (id, coords) in members {
            self.view.upsert(id, known(coords), ctx.rng());
        }
        // Random links first (connectivity insurance).
        if self.d_rand() < self.c_rand && self.pending_rand_link.is_none() {
            if let Some(cand) = self.view.sample(ctx.rng()) {
                if cand != self.id && !self.neighbors.contains(cand) {
                    self.request_link(ctx, cand, LinkKind::Random, None, None);
                }
            }
        }
        // Rebuild the probe queue so nearby selection uses the fresh list.
        self.probe_queue_built = false;
    }
}
