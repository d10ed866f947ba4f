//! Overlay link table and link handshakes (paper §2.2, §2.2.1).
//!
//! Links are established with a request/accept handshake and torn down
//! with a one-way drop notification. Degrees are piggybacked on handshake
//! and gossip messages, so the maintenance rules can read a neighbor's
//! degree without extra round trips.

use gocast_sim::{Ctx, NodeId, SimTime};

use crate::types::{DegreeInfo, DropReason, GoCastEvent, LinkKind};
use crate::wire::GoCastMsg;

use super::GoCastNode;

/// Per-neighbor state.
#[derive(Debug, Clone)]
pub(crate) struct Neighbor {
    /// Random or nearby.
    pub kind: LinkKind,
    /// Measured link RTT (µs), once a probe or handshake measured it.
    pub rtt_us: Option<u64>,
    /// Last time any message arrived from this neighbor.
    pub last_seen: SimTime,
    /// Last time we sent this neighbor a gossip.
    pub last_gossip_sent: SimTime,
    /// The neighbor's last advertised degrees.
    pub degrees: DegreeInfo,
    /// Latest tree advertisement heard from this neighbor:
    /// `(root, epoch, seq, dist_us)`.
    pub route: Option<(NodeId, u32, u32, u64)>,
    /// Whether this neighbor selected us as its tree parent.
    pub is_child: bool,
}

impl Neighbor {
    /// `assumed_degrees` seeds the degree advertisement before the peer
    /// tells us its real numbers: assume it is a homogeneous node at zero
    /// degree, which keeps condition C1 conservative (an unknown neighbor
    /// is never dropped).
    fn new(kind: LinkKind, rtt_us: Option<u64>, now: SimTime, assumed_degrees: DegreeInfo) -> Self {
        Neighbor {
            kind,
            rtt_us,
            last_seen: now,
            last_gossip_sent: now,
            degrees: assumed_degrees,
            route: None,
            is_child: false,
        }
    }
}

impl GoCastNode {
    /// Number of random neighbors (`D_rand`).
    pub(crate) fn d_rand(&self) -> usize {
        self.neighbors
            .values()
            .filter(|n| n.kind == LinkKind::Random)
            .count()
    }

    /// Number of nearby neighbors (`D_near`).
    pub(crate) fn d_near(&self) -> usize {
        self.neighbors
            .values()
            .filter(|n| n.kind == LinkKind::Nearby)
            .count()
    }

    /// `max_nearby_RTT`: the worst measured RTT among nearby links
    /// (condition C3). `u64::MAX` when nothing is measured yet, which
    /// makes C3 vacuously true — matching a node that cannot yet judge.
    pub(crate) fn max_nearby_rtt_us(&self) -> u64 {
        self.neighbors
            .values()
            .filter(|n| n.kind == LinkKind::Nearby)
            .filter_map(|n| n.rtt_us)
            .max()
            .unwrap_or(u64::MAX)
    }

    /// Installs a pre-established (bootstrap) link and probes its RTT.
    pub(crate) fn install_initial_link(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if peer == self.id || self.neighbors.contains_key(&peer) {
            return;
        }
        let assumed = DegreeInfo {
            t_rand: self.c_rand as u16,
            t_near: self.c_near as u16,
            ..DegreeInfo::default()
        };
        self.neighbors.insert(
            peer,
            Neighbor::new(LinkKind::Nearby, None, ctx.now(), assumed),
        );
        self.link_changes += 1;
        ctx.emit(GoCastEvent::LinkAdded {
            peer,
            kind: LinkKind::Nearby,
        });
        self.send_link_probe(ctx, peer);
    }

    /// Probes an established link to measure its RTT (tree weights).
    pub(crate) fn send_link_probe(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        let sent_at_us = Self::now_us(ctx);
        ctx.send(
            peer,
            GoCastMsg::Ping {
                kind: crate::wire::ProbeKind::LinkMeasure,
                sent_at_us,
            },
        );
    }

    /// Adds a confirmed link. Idempotent; refreshes RTT when given.
    pub(crate) fn add_link(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        peer: NodeId,
        kind: LinkKind,
        rtt_us: Option<u64>,
        peer_degrees: DegreeInfo,
    ) {
        debug_assert_ne!(peer, self.id, "self-link");
        if let Some(n) = self.neighbors.get_mut(&peer) {
            if rtt_us.is_some() {
                n.rtt_us = rtt_us;
            }
            n.degrees = peer_degrees;
            return;
        }
        let assumed = DegreeInfo {
            t_rand: self.c_rand as u16,
            t_near: self.c_near as u16,
            ..DegreeInfo::default()
        };
        let mut n = Neighbor::new(kind, rtt_us, ctx.now(), assumed);
        n.degrees = peer_degrees;
        self.neighbors.insert(peer, n);
        self.link_changes += 1;
        self.maint_backoff = 0;
        ctx.emit(GoCastEvent::LinkAdded { peer, kind });
        // Measure the link if the handshake didn't (random links).
        if rtt_us.is_none() {
            self.send_link_probe(ctx, peer);
        }
        // Share tree state so the new neighbor can route through us.
        self.advertise_tree_to(ctx, peer);
    }

    /// Removes a link. `notify` sends the peer a [`GoCastMsg::LinkDrop`].
    /// Cleans up tree parent/child state tied to the peer.
    pub(crate) fn drop_link(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        peer: NodeId,
        reason: DropReason,
        notify: bool,
    ) {
        let Some(n) = self.neighbors.remove(&peer) else {
            return;
        };
        self.link_changes += 1;
        self.maint_backoff = 0;
        self.counters.count_drop(reason);
        ctx.emit(GoCastEvent::LinkDropped {
            peer,
            kind: n.kind,
            reason,
        });
        if notify {
            ctx.send(
                peer,
                GoCastMsg::LinkDrop {
                    kind: n.kind,
                    reason,
                },
            );
        }
        if self.tree.parent == Some(peer) {
            self.reparent(ctx, false);
        }
    }

    /// Handles an incoming link request (acceptor side of §2.2.1).
    ///
    /// Accept rules: degree below `target + slack`; for nearby links whose
    /// requester measured the RTT, additionally C3 — when already at
    /// target degree, the new link must beat our worst nearby link.
    pub(crate) fn on_link_request(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        kind: LinkKind,
        rtt_us: Option<u64>,
        degrees: DegreeInfo,
    ) {
        if from == self.id || !self.joined {
            return;
        }
        if self.neighbors.contains_key(&from) {
            // Simultaneous handshake: both requested; both accept.
            let my = self.degrees();
            ctx.send(from, GoCastMsg::LinkAccept { kind, degrees: my });
            if let Some(n) = self.neighbors.get_mut(&from) {
                if rtt_us.is_some() {
                    n.rtt_us = rtt_us;
                }
                n.degrees = degrees;
            }
            return;
        }
        let ok = match kind {
            LinkKind::Random => self.d_rand() < self.c_rand + self.cfg.degree_slack,
            LinkKind::Nearby => {
                let cap = self.d_near() < self.c_near + self.cfg.degree_slack;
                let c3 = if self.d_near() >= self.c_near {
                    match rtt_us {
                        Some(r) => r < self.max_nearby_rtt_us(),
                        None => true,
                    }
                } else {
                    true
                };
                cap && c3
            }
        };
        if ok {
            let my = self.degrees();
            ctx.send(from, GoCastMsg::LinkAccept { kind, degrees: my });
            self.add_link(ctx, from, kind, rtt_us, degrees);
        } else {
            ctx.send(from, GoCastMsg::LinkReject { kind });
        }
    }

    /// Handles acceptance of a link we requested.
    pub(crate) fn on_link_accept(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        kind: LinkKind,
        degrees: DegreeInfo,
    ) {
        let pending = match kind {
            LinkKind::Random => &mut self.pending_rand_link,
            LinkKind::Nearby => &mut self.pending_link,
        };
        let Some(p) = pending.take() else {
            // Stale accept (we gave up); treat as peer-initiated link so
            // the two sides stay symmetric.
            self.add_link(ctx, from, kind, None, degrees);
            self.enforce_degree_cap(ctx, kind);
            return;
        };
        if p.peer != from {
            // Accept from someone else entirely: restore and handle as
            // symmetric add.
            *pending = Some(p);
            self.add_link(ctx, from, kind, None, degrees);
            self.enforce_degree_cap(ctx, kind);
            return;
        }
        // RTT: measured probe when available, else the handshake round
        // trip.
        let rtt = p
            .rtt_us
            .unwrap_or_else(|| (ctx.now().saturating_since(p.sent_at)).as_micros() as u64);
        self.add_link(ctx, from, kind, Some(rtt), degrees);
        if let Some(victim) = p.replace {
            if self.neighbors.contains_key(&victim) {
                self.drop_link(ctx, victim, DropReason::Replaced, true);
            }
        }
        // The replace victim can be gone already (crashed, dropped by the
        // peer) when the accept lands, in which case the add above was
        // net-new and may have pushed the degree past the ceiling.
        self.enforce_degree_cap(ctx, kind);
    }

    /// Restores the accept-rule ceiling `C + slack` after a link add that
    /// could not be degree-checked up front (stale accepts, replace
    /// victims that vanished in flight): while `D_kind` exceeds the
    /// ceiling, drop the worst link of that kind — highest RTT, an
    /// unmeasured link worst of all — within the same instant.
    pub(crate) fn enforce_degree_cap(&mut self, ctx: &mut Ctx<'_, Self>, kind: LinkKind) {
        let cap = match kind {
            LinkKind::Random => self.c_rand,
            LinkKind::Nearby => self.c_near,
        } + self.cfg.degree_slack;
        loop {
            let d = match kind {
                LinkKind::Random => self.d_rand(),
                LinkKind::Nearby => self.d_near(),
            };
            if d <= cap {
                return;
            }
            let victim = self
                .neighbors
                .iter()
                .filter(|(_, n)| n.kind == kind)
                .max_by_key(|(&p, n)| (n.rtt_us.unwrap_or(u64::MAX), p.as_u32()))
                .map(|(&p, _)| p);
            match victim {
                Some(p) => self.drop_link(ctx, p, DropReason::Surplus, true),
                None => return,
            }
        }
    }

    /// Handles rejection of a link we requested.
    pub(crate) fn on_link_reject(
        &mut self,
        _ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        kind: LinkKind,
    ) {
        let pending = match kind {
            LinkKind::Random => &mut self.pending_rand_link,
            LinkKind::Nearby => &mut self.pending_link,
        };
        if pending.map(|p| p.peer) == Some(from) {
            *pending = None;
        }
    }

    /// Peer dropped the link.
    pub(crate) fn on_link_drop(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        _kind: LinkKind,
        _reason: DropReason,
    ) {
        self.drop_link(ctx, from, DropReason::PeerRequest, false);
    }

    /// Random rebalancing (operation 1, receiver side): the sender dropped
    /// its links to us and `target`; we establish a random link to
    /// `target` to keep our degree.
    pub(crate) fn on_connect_to(&mut self, ctx: &mut Ctx<'_, Self>, _from: NodeId, target: NodeId) {
        if target == self.id || self.neighbors.contains_key(&target) || self.frozen {
            return;
        }
        self.request_link(ctx, target, LinkKind::Random, None, None);
    }

    /// Sends a link request, tracking it in the appropriate pending slot.
    pub(crate) fn request_link(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        peer: NodeId,
        kind: LinkKind,
        rtt_us: Option<u64>,
        replace: Option<NodeId>,
    ) {
        let slot = match kind {
            LinkKind::Random => &mut self.pending_rand_link,
            LinkKind::Nearby => &mut self.pending_link,
        };
        if slot.is_some() {
            return; // one in-flight request per kind
        }
        *slot = Some(super::PendingLink {
            peer,
            sent_at: ctx.now(),
            rtt_us,
            replace,
        });
        let degrees = self.degrees();
        ctx.send(
            peer,
            GoCastMsg::LinkRequest {
                kind,
                rtt_us,
                degrees,
            },
        );
    }

    /// Expires pending link requests that were never answered (peer dead or
    /// message lost), so the slot frees up for the next maintenance cycle.
    pub(crate) fn expire_pending_links(&mut self, now: SimTime) {
        let deadline = std::time::Duration::from_secs(2);
        for slot in [&mut self.pending_link, &mut self.pending_rand_link] {
            if let Some(p) = slot {
                if now.saturating_since(p.sent_at) > deadline {
                    *slot = None;
                }
            }
        }
    }

    /// Drops neighbors that have gone silent past the timeout (failure
    /// detection; disabled while frozen).
    pub(crate) fn check_neighbor_liveness(&mut self, ctx: &mut Ctx<'_, Self>) {
        let now = ctx.now();
        let stale: Vec<NodeId> = self
            .neighbors
            .iter()
            .filter(|(_, n)| now.saturating_since(n.last_seen) > self.cfg.neighbor_timeout)
            .map(|(&p, _)| p)
            .collect();
        for p in stale {
            self.view.remove(p);
            self.drop_link(ctx, p, DropReason::PeerFailed, false);
        }
    }
}
