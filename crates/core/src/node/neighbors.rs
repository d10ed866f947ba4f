//! Overlay link table and link handshakes (paper §2.2, §2.2.1).
//!
//! Links are established with a request/accept handshake and torn down
//! with a one-way drop notification. Degrees are piggybacked on handshake
//! and gossip messages, so the maintenance rules can read a neighbor's
//! degree without extra round trips.

use std::time::Duration;

use gocast_sim::{Ctx, NodeId, SimTime};

use crate::config::GoCastConfig;
use crate::types::{DegreeInfo, DropReason, GoCastEvent, LinkKind};
use crate::wire::GoCastMsg;

use super::{GoCastNode, PendingLink};

/// Idle neighbor timeout: a neighbor silent this long is considered failed
/// and its link dropped (only while maintenance is active).
const NEIGHBOR_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-neighbor state: one 64-byte entry of the [`NeighborTable`].
///
/// The measured RTT and the cached tree advertisement are optional, and
/// their presence is a flag of its own beside the full-width value: no
/// value of the `u64` stands for "none", so no measurement, however large,
/// can read back as unmeasured.
#[derive(Debug, Clone)]
pub(crate) struct Neighbor {
    /// The neighbor itself: the table's sort key, fixed for the entry's
    /// life.
    id: NodeId,
    /// Random or nearby.
    pub kind: LinkKind,
    /// Whether this neighbor selected us as its tree parent.
    pub is_child: bool,
    has_rtt: bool,
    has_route: bool,
    /// The neighbor's last advertised degrees.
    pub degrees: DegreeInfo,
    /// Last time any message arrived from this neighbor.
    pub last_seen: SimTime,
    /// Last time we sent this neighbor a gossip.
    pub last_gossip_sent: SimTime,
    rtt_us: u64,
    route_dist_us: u64,
    route_root: NodeId,
    route_epoch: u32,
    route_seq: u32,
}

const _: () = assert!(size_of::<Neighbor>() == 64);

impl Neighbor {
    /// `assumed_degrees` seeds the degree advertisement before the peer
    /// tells us its real numbers: assume it is a homogeneous node at zero
    /// degree, which keeps condition C1 conservative (an unknown neighbor
    /// is never dropped).
    fn new(
        id: NodeId,
        kind: LinkKind,
        rtt_us: Option<u64>,
        now: SimTime,
        assumed_degrees: DegreeInfo,
    ) -> Self {
        Neighbor {
            id,
            kind,
            is_child: false,
            has_rtt: rtt_us.is_some(),
            has_route: false,
            degrees: assumed_degrees,
            last_seen: now,
            last_gossip_sent: now,
            rtt_us: rtt_us.unwrap_or(0),
            route_dist_us: 0,
            route_root: NodeId::new(0),
            route_epoch: 0,
            route_seq: 0,
        }
    }

    /// The neighbor this entry describes.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// Measured link RTT (µs), once a probe or handshake measured it.
    pub(crate) fn rtt_us(&self) -> Option<u64> {
        self.has_rtt.then_some(self.rtt_us)
    }

    /// Records a measured link RTT (µs).
    pub(crate) fn set_rtt_us(&mut self, rtt_us: u64) {
        self.has_rtt = true;
        self.rtt_us = rtt_us;
    }

    /// Latest tree advertisement heard from this neighbor:
    /// `(root, epoch, seq, dist_us)`.
    pub(crate) fn route(&self) -> Option<(NodeId, u32, u32, u64)> {
        self.has_route.then_some((
            self.route_root,
            self.route_epoch,
            self.route_seq,
            self.route_dist_us,
        ))
    }

    /// Caches a tree advertisement heard from this neighbor.
    pub(crate) fn set_route(&mut self, root: NodeId, epoch: u32, seq: u32, dist_us: u64) {
        self.has_route = true;
        self.route_root = root;
        self.route_epoch = epoch;
        self.route_seq = seq;
        self.route_dist_us = dist_us;
    }
}

/// The overlay link table: [`Neighbor`] entries in one vector, sorted by
/// id.
///
/// Degree is bounded by `C_rand + C_near` plus make-before-break slack, so
/// the whole table is a few cache lines in one allocation and a lookup is
/// a binary search over at most four of them. Iteration is in ascending id
/// order — the order the round-robin gossip cursor, the victim choices of
/// the maintenance rules and every recorded event stream depend on.
#[derive(Debug, Default)]
pub(crate) struct NeighborTable {
    /// Sorted by `id`, no duplicates.
    entries: Vec<Neighbor>,
}

/// Entries the table's allocation grows by: degrees sit at 6 ± 2, so
/// doubling from 8 would hold 16 slots for a ninth neighbor.
pub(super) const TABLE_GROWTH: usize = 4;

impl NeighborTable {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn position(&self, id: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |n| n.id)
    }

    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.position(id).is_ok()
    }

    pub(crate) fn get(&self, id: NodeId) -> Option<&Neighbor> {
        self.position(id).ok().map(|i| &self.entries[i])
    }

    pub(crate) fn get_mut(&mut self, id: NodeId) -> Option<&mut Neighbor> {
        self.position(id).ok().map(|i| &mut self.entries[i])
    }

    /// Adds `n`, replacing (and returning) an entry with the same id.
    pub(crate) fn insert(&mut self, n: Neighbor) -> Option<Neighbor> {
        match self.position(n.id) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i], n)),
            Err(i) => {
                if self.entries.len() == self.entries.capacity() {
                    self.entries.reserve_exact(TABLE_GROWTH);
                }
                self.entries.insert(i, n);
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, id: NodeId) -> Option<Neighbor> {
        self.position(id).ok().map(|i| self.entries.remove(i))
    }

    /// Entries in ascending id order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Neighbor> {
        self.entries.iter()
    }

    /// Entries in ascending id order, as the one array they live in.
    pub(crate) fn as_slice(&self) -> &[Neighbor] {
        &self.entries
    }

    /// Neighbor ids in ascending order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|n| n.id)
    }

    /// The round-robin step: the smallest id above `cur`, wrapping to the
    /// smallest id of all (also the answer for no cursor yet). `cur` need
    /// not be in the table any more.
    pub(crate) fn next_after(&self, cur: Option<NodeId>) -> Option<NodeId> {
        let after = cur.map_or(0, |cur| self.entries.partition_point(|n| n.id <= cur));
        self.entries
            .get(after)
            .or(self.entries.first())
            .map(|n| n.id)
    }

    /// Bytes the allocator holds for the table.
    pub(crate) fn mem_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<Neighbor>()
    }
}

impl GoCastNode {
    /// Number of random neighbors (`D_rand`).
    pub(crate) fn d_rand(&self) -> usize {
        self.neighbors
            .iter()
            .filter(|n| n.kind == LinkKind::Random)
            .count()
    }

    /// Number of nearby neighbors (`D_near`).
    pub(crate) fn d_near(&self) -> usize {
        self.neighbors
            .iter()
            .filter(|n| n.kind == LinkKind::Nearby)
            .count()
    }

    /// `max_nearby_RTT`: the worst measured RTT among nearby links
    /// (condition C3). `u64::MAX` when nothing is measured yet, which
    /// makes C3 vacuously true — matching a node that cannot yet judge.
    pub(crate) fn max_nearby_rtt_us(&self) -> u64 {
        self.neighbors
            .iter()
            .filter(|n| n.kind == LinkKind::Nearby)
            .filter_map(Neighbor::rtt_us)
            .max()
            .unwrap_or(u64::MAX)
    }

    /// Installs a pre-established (bootstrap) link and probes its RTT.
    pub(crate) fn install_initial_link(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if peer == self.id || self.neighbors.contains(peer) {
            return;
        }
        let assumed = DegreeInfo {
            t_rand: self.c_rand as u16,
            t_near: self.c_near as u16,
            ..DegreeInfo::default()
        };
        self.neighbors.insert(Neighbor::new(
            peer,
            LinkKind::Nearby,
            None,
            ctx.now(),
            assumed,
        ));
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
        if let Some(n) = self.neighbors.get_mut(peer) {
            if let Some(rtt_us) = rtt_us {
                n.set_rtt_us(rtt_us);
            }
            n.degrees = peer_degrees;
            return;
        }
        let assumed = DegreeInfo {
            t_rand: self.c_rand as u16,
            t_near: self.c_near as u16,
            ..DegreeInfo::default()
        };
        let mut n = Neighbor::new(peer, kind, rtt_us, ctx.now(), assumed);
        n.degrees = peer_degrees;
        self.neighbors.insert(n);
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
        let Some(n) = self.neighbors.remove(peer) else {
            return;
        };
        self.link_changes += 1;
        self.maint_backoff = 0;
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
        if self.neighbors.contains(from) {
            // Simultaneous handshake: both requested; both accept.
            let my = self.degrees();
            ctx.send(from, GoCastMsg::LinkAccept { kind, degrees: my });
            if let Some(n) = self.neighbors.get_mut(from) {
                if let Some(rtt_us) = rtt_us {
                    n.set_rtt_us(rtt_us);
                }
                n.degrees = degrees;
            }
            return;
        }
        let ok = match kind {
            LinkKind::Random => self.d_rand() < GoCastConfig::degree_cap(self.c_rand),
            LinkKind::Nearby => {
                let cap = self.d_near() < GoCastConfig::degree_cap(self.c_near);
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
            .rtt_us()
            .unwrap_or_else(|| (ctx.now().saturating_since(p.sent_at)).as_micros() as u64);
        self.add_link(ctx, from, kind, Some(rtt), degrees);
        if let Some(victim) = p.replace() {
            if self.neighbors.contains(victim) {
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
        let cap = GoCastConfig::degree_cap(match kind {
            LinkKind::Random => self.c_rand,
            LinkKind::Nearby => self.c_near,
        });
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
                .filter(|n| n.kind == kind)
                .max_by_key(|n| (n.rtt_us().unwrap_or(u64::MAX), n.id().as_u32()))
                .map(Neighbor::id);
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
        if target == self.id || self.neighbors.contains(target) || self.frozen {
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
        *slot = Some(PendingLink::new(peer, ctx.now(), rtt_us, replace));
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
        // Dropping a link removes its entry and touches no other's
        // `last_seen`, so the walk stays at `i` after a drop.
        let mut i = 0;
        while let Some(n) = self.neighbors.iter().nth(i) {
            if now.saturating_since(n.last_seen) > NEIGHBOR_TIMEOUT {
                let p = n.id();
                self.view.remove(p);
                self.drop_link(ctx, p, DropReason::PeerFailed, false);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Unbounded};

    use proptest::prelude::*;

    use super::*;

    fn entry(id: u32, stamp: u64) -> Neighbor {
        let kind = if stamp.is_multiple_of(2) {
            LinkKind::Random
        } else {
            LinkKind::Nearby
        };
        let now = SimTime::from_nanos(stamp);
        Neighbor::new(NodeId::new(id), kind, None, now, DegreeInfo::default())
    }

    /// What the table exposes of an entry, for comparing with the model's.
    fn seen(n: &Neighbor) -> (NodeId, LinkKind, Option<u64>, SimTime) {
        (n.id(), n.kind, n.rtt_us(), n.last_seen)
    }

    /// The cursor step as it was written against the map.
    fn model_next_after(model: &BTreeMap<NodeId, Neighbor>, cur: Option<NodeId>) -> Option<NodeId> {
        let first = || model.keys().next().copied();
        match cur {
            Some(cur) => model
                .range((Excluded(cur), Unbounded))
                .next()
                .map(|(&p, _)| p)
                .or_else(first),
            None => first(),
        }
    }

    proptest! {
        /// The table against the `BTreeMap<NodeId, Neighbor>` it replaced,
        /// up to degree 16 (both default degree caps together): same
        /// contents, same iteration order, and the same round-robin walk —
        /// across the wrap, and when the cursor's own peer is removed.
        #[test]
        fn table_matches_btree_map_model(
            ops in proptest::collection::vec((0u8..5, 0u32..24, 0u64..1_000), 1..200),
        ) {
            let mut table = NeighborTable::default();
            let mut model: BTreeMap<NodeId, Neighbor> = BTreeMap::new();
            let mut cursor = None;
            for (op, id, stamp) in ops {
                let peer = NodeId::new(id);
                match op {
                    0 | 1 if model.len() < 16 || model.contains_key(&peer) => {
                        let replaced = table.insert(entry(id, stamp));
                        let want = model.insert(peer, entry(id, stamp));
                        prop_assert_eq!(replaced.as_ref().map(seen), want.as_ref().map(seen));
                    }
                    2 => {
                        // Half the time the cursor's own peer: the walk
                        // must continue from where it stood.
                        let peer = cursor.filter(|_| stamp % 2 == 0).unwrap_or(peer);
                        let removed = table.remove(peer);
                        let want = model.remove(&peer);
                        prop_assert_eq!(removed.as_ref().map(seen), want.as_ref().map(seen));
                    }
                    3 => {
                        let got = table.get_mut(peer).map(|n| n.set_rtt_us(stamp)).is_some();
                        let want = model.get_mut(&peer).map(|n| n.set_rtt_us(stamp)).is_some();
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let next = table.next_after(cursor);
                        prop_assert_eq!(next, model_next_after(&model, cursor));
                        cursor = next.or(cursor);
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.contains(peer), model.contains_key(&peer));
                prop_assert_eq!(table.get(peer).map(seen), model.get(&peer).map(seen));
                prop_assert_eq!(
                    table.iter().map(seen).collect::<Vec<_>>(),
                    model.values().map(seen).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    table.ids().collect::<Vec<_>>(),
                    model.keys().copied().collect::<Vec<_>>()
                );
                // Sixteen entries are a whole number of growth steps.
                prop_assert!(table.mem_bytes() <= 16 * size_of::<Neighbor>());
            }
            // A whole lap from wherever the cursor stands visits every
            // neighbor once, in id order from the cursor on.
            let lap: Vec<NodeId> = (0..table.len())
                .map(|_| {
                    cursor = table.next_after(cursor);
                    cursor.expect("a non-empty table always has a next peer")
                })
                .collect();
            let mut sorted = lap.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, table.ids().collect::<Vec<_>>());
        }
    }

    /// Presence is a flag, not a reserved value: the largest RTT and the
    /// largest tree distance the fields can hold read back as measured,
    /// and as themselves.
    #[test]
    fn extreme_rtt_and_distance_read_back_as_measured() {
        let mut n = entry(1, 0);
        assert_eq!(n.rtt_us(), None);
        assert_eq!(n.route(), None);
        for rtt_us in [0, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            n.set_rtt_us(rtt_us);
            assert_eq!(n.rtt_us(), Some(rtt_us));
            n.set_route(NodeId::new(u32::MAX), u32::MAX, u32::MAX, rtt_us);
            assert_eq!(
                n.route(),
                Some((NodeId::new(u32::MAX), u32::MAX, u32::MAX, rtt_us))
            );
        }
        let measured = Neighbor::new(
            NodeId::new(2),
            LinkKind::Nearby,
            Some(u64::MAX),
            SimTime::ZERO,
            DegreeInfo::default(),
        );
        assert_eq!(measured.rtt_us(), Some(u64::MAX));

        let p = PendingLink::new(NodeId::new(3), SimTime::ZERO, Some(u64::MAX), None);
        assert_eq!((p.rtt_us(), p.replace()), (Some(u64::MAX), None));
        let p = PendingLink::new(NodeId::new(3), SimTime::ZERO, None, Some(NodeId::new(3)));
        assert_eq!((p.rtt_us(), p.replace()), (None, Some(NodeId::new(3))));
    }
}
