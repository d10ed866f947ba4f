//! The Plumtree/HyParView protocol state machine.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use gocast::{DeliveryPath, DropReason, GoCastCommand, GoCastEvent, LinkKind, MsgId};
use gocast_membership::MemberView;
use gocast_sim::{
    Ctx, FxHashMap, NodeId, Protocol, SimTime, Stack, StackCaps, Timer, TrafficClass, Wire,
};
use rand::Rng;

/// Active-view size: the node's overlay degree target. 6 matches GoCast's
/// `C_near + C_rand`, so head-to-head runs compare equal-degree overlays.
const ACTIVE_VIEW: usize = 6;
/// Passive-view capacity (the repair reservoir).
const PASSIVE_VIEW: usize = 24;
/// Active random-walk length for `ForwardJoin` placement.
const ARWL: u32 = 6;
/// Passive random-walk length: the `ForwardJoin` TTL at which the joiner
/// is also recorded in the passive view.
const PRWL: u32 = 3;
/// Period of the shuffle that refreshes the passive view.
const SHUFFLE_PERIOD: Duration = Duration::from_secs(10);
/// Members carried per shuffle (self + passive sample).
const SHUFFLE_LEN: usize = 8;
/// Shuffle random-walk TTL.
const SHUFFLE_TTL: u32 = 4;
/// Period of the maintenance tick (heartbeats, failure detection,
/// active-view refill).
const MAINTENANCE_PERIOD: Duration = Duration::from_secs(1);
/// Silence threshold after which an active peer is declared failed.
const NEIGHBOR_TIMEOUT: Duration = Duration::from_secs(3);
/// How long to wait for the eager payload after an IHAVE before grafting
/// the announcer's edge.
const IHAVE_TIMEOUT: Duration = Duration::from_millis(120);
/// Retry interval between graft attempts (rotating announcers).
const GRAFT_RETRY: Duration = Duration::from_millis(300);
/// Give up grafting a message after this many attempts (a later IHAVE
/// restarts recovery).
const MAX_GRAFT_ROUNDS: u32 = 8;
/// Message retention before garbage collection: past any run, so an
/// end-of-run store audit still reads every message.
const GC_WAIT: Duration = Duration::from_secs(3600);
/// Multicast payload size (bytes, accounting only).
const PAYLOAD_SIZE: u32 = 1024;

/// Timer kinds.
mod timers {
    /// Periodic passive-view shuffle.
    pub const SHUFFLE: u32 = 1;
    /// Heartbeats, failure detection, active-view refill.
    pub const MAINT: u32 = 2;
    /// IHAVE deadline / graft retry for one missing message (payload
    /// carries the [`MsgId`](gocast::MsgId)).
    pub const MISSING: u32 = 3;
    /// Message-store garbage collection.
    pub const GC: u32 = 4;
}

/// Wire messages of the Plumtree/HyParView stack.
#[derive(Debug, Clone, PartialEq)]
pub enum PlumtreeMsg {
    /// HyParView join request sent to a contact node.
    Join {
        /// Remaining active random-walk length.
        ttl: u32,
    },
    /// Random walk propagating a join through the overlay.
    ForwardJoin {
        /// The joining node.
        joiner: NodeId,
        /// Remaining walk length; the joiner is accepted at 0.
        ttl: u32,
    },
    /// Request to become an active neighbor.
    NeighborRequest {
        /// High priority: the requester has an empty active view and must
        /// be accepted (it is otherwise disconnected from the overlay).
        high: bool,
    },
    /// The sender accepted a neighbor/join request.
    NeighborAccept,
    /// The sender declined a neighbor request (active view full).
    NeighborReject,
    /// Graceful removal of an active-view link.
    Disconnect,
    /// Passive-view shuffle random walk.
    Shuffle {
        /// The node whose passive view is being refreshed.
        origin: NodeId,
        /// Remaining walk length; the shuffle is accepted at 0.
        ttl: u32,
        /// Sample of the origin's neighborhood (self + passive members).
        members: Vec<NodeId>,
    },
    /// Sample returned to a shuffle origin.
    ShuffleReply {
        /// The acceptor's passive sample.
        members: Vec<NodeId>,
    },
    /// Liveness beacon between active neighbors.
    Heartbeat,
    /// Full payload pushed along an eager link.
    Gossip {
        /// Message identity.
        id: MsgId,
        /// Causal hop count stamped on this copy.
        hop: u32,
        /// Payload bytes.
        size: u32,
    },
    /// Lazy announcement of held message IDs.
    IHave {
        /// The announced IDs.
        entries: Vec<MsgId>,
    },
    /// Request to promote the link to eager and retransmit `id`.
    Graft {
        /// The missing message.
        id: MsgId,
    },
    /// Request to demote the link to lazy (duplicate payload received).
    Prune,
}

impl Wire for PlumtreeMsg {
    fn wire_size(&self) -> u32 {
        28 + match self {
            PlumtreeMsg::Join { .. } => 4,
            PlumtreeMsg::ForwardJoin { .. } => 12,
            PlumtreeMsg::NeighborRequest { .. } => 1,
            PlumtreeMsg::NeighborAccept
            | PlumtreeMsg::NeighborReject
            | PlumtreeMsg::Disconnect
            | PlumtreeMsg::Heartbeat
            | PlumtreeMsg::Prune => 0,
            PlumtreeMsg::Shuffle { members, .. } => 12 + 4 * members.len() as u32,
            PlumtreeMsg::ShuffleReply { members } => 4 * members.len() as u32,
            PlumtreeMsg::Gossip { size, .. } => 16 + size,
            PlumtreeMsg::IHave { entries } => 8 * entries.len() as u32,
            PlumtreeMsg::Graft { .. } => 8,
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            PlumtreeMsg::Gossip { .. } => TrafficClass::Data,
            PlumtreeMsg::IHave { .. } => TrafficClass::Gossip,
            PlumtreeMsg::Graft { .. } => TrafficClass::Request,
            PlumtreeMsg::Prune | PlumtreeMsg::Disconnect => TrafficClass::Control,
            PlumtreeMsg::Heartbeat => TrafficClass::Probe,
            PlumtreeMsg::Join { .. }
            | PlumtreeMsg::ForwardJoin { .. }
            | PlumtreeMsg::NeighborRequest { .. }
            | PlumtreeMsg::NeighborAccept
            | PlumtreeMsg::NeighborReject
            | PlumtreeMsg::Shuffle { .. }
            | PlumtreeMsg::ShuffleReply { .. } => TrafficClass::Membership,
        }
    }
}

/// Per-active-neighbor state.
#[derive(Debug, Clone)]
struct Peer {
    /// Eager links carry full payloads; lazy links carry IHAVEs.
    eager: bool,
    last_seen: SimTime,
}

#[derive(Debug, Clone)]
struct Stored {
    hop: u32,
    size: u32,
}

#[derive(Debug, Clone)]
struct Missing {
    /// Neighbors that announced the ID, in announcement order.
    announcers: Vec<NodeId>,
    /// Rotation cursor over `announcers`.
    next: usize,
    /// Graft attempts so far.
    rounds: u32,
    /// Whether a graft was sent (marks the eventual delivery as recovery).
    grafted: bool,
}

/// A node running Plumtree dissemination over HyParView membership.
///
/// The node emits [`GoCastEvent`]s with the same meanings as the GoCast
/// stack so the whole analysis layer (delivery trackers, recovery windows,
/// trace oracle) applies unchanged: eager pushes are `PushSent`, lazy
/// announcements are `IHaveSent`, grafts are `PullRequested`/`PullServed`,
/// and active-view membership changes are `LinkAdded`/`LinkDropped` with
/// kind [`LinkKind::Random`] (HyParView neighbors are uniformly random;
/// there is no latency-aware "nearby" class).
///
/// Membership follows HyParView (Leitão et al., DSN 2007): a small
/// symmetric *active* view carries all protocol traffic, a larger
/// *passive* view is a repair reservoir refreshed by periodic shuffles.
/// Dissemination follows Plumtree (Leitão et al., SRDS 2007): payloads are
/// eagerly pushed along a spanning subtree of the active view, IHAVE
/// announcements cover the remaining (lazy) edges, and GRAFT/PRUNE move
/// edges between the two sets.
#[derive(Debug)]
pub struct PlumtreeNode {
    id: NodeId,
    /// Active view: `BTreeMap` so iteration (forwarding fan-out, eviction
    /// sampling) is in deterministic key order.
    active: BTreeMap<NodeId, Peer>,
    /// Passive view: the repair reservoir.
    passive: MemberView,
    store: FxHashMap<MsgId, Stored>,
    /// Store insertion order, for O(1) GC.
    recent: VecDeque<(SimTime, MsgId)>,
    missing: FxHashMap<MsgId, Missing>,
    next_seq: u32,
    delivered: u64,
    redundant: u64,
    joined: bool,
    frozen: bool,
    initial_links: Vec<NodeId>,
    initial_members: Vec<NodeId>,
}

impl PlumtreeNode {
    /// Creates an isolated node (it must be sent a
    /// [`GoCastCommand::Join`] or contacted by a peer to participate).
    pub fn new(id: NodeId) -> Self {
        Self::with_initial_links(id, Vec::new(), Vec::new())
    }

    /// Creates a node with bootstrap state: `links` become the initial
    /// active view (eager), `members` seed the passive view.
    ///
    /// The shape matches [`gocast::bootstrap_random_graph`] so both stacks
    /// can be booted from the identical overlay.
    pub fn with_initial_links(id: NodeId, links: Vec<NodeId>, members: Vec<NodeId>) -> Self {
        PlumtreeNode {
            id,
            active: BTreeMap::new(),
            passive: MemberView::new(id, PASSIVE_VIEW),
            store: FxHashMap::default(),
            recent: VecDeque::new(),
            missing: FxHashMap::default(),
            next_seq: 0,
            delivered: 0,
            redundant: 0,
            joined: false,
            frozen: false,
            initial_links: links,
            initial_members: members,
        }
    }

    /// Whether this node currently participates in the overlay.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Active-view size (overlay degree).
    pub fn active_degree(&self) -> usize {
        self.active.len()
    }

    /// Active links currently carrying full payloads.
    pub fn eager_degree(&self) -> usize {
        self.active.values().filter(|p| p.eager).count()
    }

    /// Passive-view size.
    pub fn passive_len(&self) -> usize {
        self.passive.len()
    }

    /// Redundant payload receptions.
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// Whether this node holds `id`.
    pub fn has_message(&self, id: MsgId) -> bool {
        self.store.contains_key(&id)
    }

    fn choose(&self, ctx: &mut Ctx<'_, Self>, candidates: &[NodeId]) -> Option<NodeId> {
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[ctx.rng().gen_range(0..candidates.len())])
        }
    }

    fn note_alive(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        let now = ctx.now();
        if let Some(p) = self.active.get_mut(&peer) {
            p.last_seen = now;
        }
    }

    /// Inserts `peer` into the active view (evicting a random member if
    /// full, HyParView-style) and emits the link events.
    fn add_active(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, eager: bool) {
        if peer == self.id {
            return;
        }
        let now = ctx.now();
        if let Some(p) = self.active.get_mut(&peer) {
            p.eager |= eager;
            p.last_seen = now;
            return;
        }
        if self.active.len() >= ACTIVE_VIEW {
            let idx = ctx.rng().gen_range(0..self.active.len());
            let victim = *self.active.keys().nth(idx).expect("active view nonempty");
            self.active.remove(&victim);
            ctx.send(victim, PlumtreeMsg::Disconnect);
            ctx.emit(GoCastEvent::LinkDropped {
                peer: victim,
                kind: LinkKind::Random,
                reason: DropReason::Surplus,
            });
            self.passive.insert(victim, ctx.rng());
        }
        let was_empty = self.active.is_empty();
        self.active.insert(
            peer,
            Peer {
                eager,
                last_seen: now,
            },
        );
        self.passive.remove(peer);
        ctx.emit(GoCastEvent::LinkAdded {
            peer,
            kind: LinkKind::Random,
        });
        if was_empty {
            // "Attached to the dissemination structure" for Plumtree means
            // having at least one active link; report it with the same
            // event GoCast uses for tree attachment so orphan tracking
            // works across stacks.
            ctx.emit(GoCastEvent::ParentChanged { parent: Some(peer) });
        }
    }

    fn remove_active(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        peer: NodeId,
        reason: DropReason,
        to_passive: bool,
    ) {
        if self.active.remove(&peer).is_none() {
            return;
        }
        ctx.emit(GoCastEvent::LinkDropped {
            peer,
            kind: LinkKind::Random,
            reason,
        });
        if to_passive {
            self.passive.insert(peer, ctx.rng());
        }
        if self.active.is_empty() && self.joined {
            ctx.emit(GoCastEvent::ParentChanged { parent: None });
        }
    }

    fn accept_neighbor(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        self.add_active(ctx, peer, true);
        ctx.send(peer, PlumtreeMsg::NeighborAccept);
    }

    fn integrate(&mut self, ctx: &mut Ctx<'_, Self>, members: &[NodeId]) {
        for &m in members {
            if m != self.id && !self.active.contains_key(&m) {
                self.passive.insert(m, ctx.rng());
            }
        }
    }

    fn admit(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId, hop: u32, size: u32) {
        self.store.insert(id, Stored { hop, size });
        self.recent.push_back((ctx.now(), id));
    }

    /// Pushes `id` on eager links and announces it on lazy links.
    fn forward(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        id: MsgId,
        hop: u32,
        size: u32,
        skip: Option<NodeId>,
    ) {
        let peers: Vec<(NodeId, bool)> = self.active.iter().map(|(&p, s)| (p, s.eager)).collect();
        for (peer, eager) in peers {
            if Some(peer) == skip {
                continue;
            }
            if eager {
                ctx.emit(GoCastEvent::PushSent { id, to: peer, hop });
                ctx.send(peer, PlumtreeMsg::Gossip { id, hop, size });
            } else {
                ctx.emit(GoCastEvent::IHaveSent { id, to: peer });
                ctx.send(peer, PlumtreeMsg::IHave { entries: vec![id] });
            }
        }
    }

    fn on_gossip(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, id: MsgId, hop: u32, size: u32) {
        self.note_alive(ctx, from);
        if self.store.contains_key(&id) {
            self.redundant += 1;
            ctx.emit(GoCastEvent::RedundantData { id, from });
            // Plumtree: a duplicate payload marks the edge as redundant for
            // the tree; demote it to lazy on both sides.
            if let Some(p) = self.active.get_mut(&from) {
                p.eager = false;
            }
            ctx.send(from, PlumtreeMsg::Prune);
            return;
        }
        let grafted = self.missing.remove(&id).map(|m| m.grafted).unwrap_or(false);
        self.admit(ctx, id, hop, size);
        self.delivered += 1;
        ctx.emit(GoCastEvent::Delivered {
            id,
            via: if grafted {
                DeliveryPath::Pull
            } else {
                DeliveryPath::Tree
            },
            from,
            hop,
        });
        // The sender is our parent for this message: keep (or make) the
        // edge eager so the tree stays connected through it.
        if self.active.contains_key(&from) {
            if let Some(p) = self.active.get_mut(&from) {
                p.eager = true;
            }
        } else {
            self.add_active(ctx, from, true);
        }
        self.forward(ctx, id, hop + 1, size, Some(from));
    }

    fn on_ihave(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, entries: Vec<MsgId>) {
        self.note_alive(ctx, from);
        for id in entries {
            if self.store.contains_key(&id) {
                continue;
            }
            match self.missing.get_mut(&id) {
                Some(m) => {
                    if !m.announcers.contains(&from) {
                        m.announcers.push(from);
                    }
                }
                None => {
                    self.missing.insert(
                        id,
                        Missing {
                            announcers: vec![from],
                            next: 0,
                            rounds: 0,
                            grafted: false,
                        },
                    );
                    ctx.set_timer(
                        IHAVE_TIMEOUT,
                        Timer::with_payload(timers::MISSING, id.origin.as_u32(), id.seq as u64),
                    );
                }
            }
        }
    }

    fn on_missing_deadline(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId) {
        if self.store.contains_key(&id) || !self.joined {
            self.missing.remove(&id);
            return;
        }
        let Some(m) = self.missing.get_mut(&id) else {
            return;
        };
        if m.rounds >= MAX_GRAFT_ROUNDS {
            // Give up; a later IHAVE restarts recovery from scratch.
            self.missing.remove(&id);
            return;
        }
        m.rounds += 1;
        m.grafted = true;
        let target = m.announcers[m.next % m.announcers.len()];
        m.next += 1;
        ctx.emit(GoCastEvent::PullRequested { id, to: target });
        ctx.send(target, PlumtreeMsg::Graft { id });
        if let Some(p) = self.active.get_mut(&target) {
            p.eager = true;
        }
        ctx.set_timer(
            GRAFT_RETRY,
            Timer::with_payload(timers::MISSING, id.origin.as_u32(), id.seq as u64),
        );
    }

    fn on_maintenance(&mut self, ctx: &mut Ctx<'_, Self>) {
        let now = ctx.now();
        let stale: Vec<NodeId> = self
            .active
            .iter()
            .filter(|(_, p)| now.saturating_since(p.last_seen) > NEIGHBOR_TIMEOUT)
            .map(|(&n, _)| n)
            .collect();
        for n in stale {
            // A silent peer is presumed crashed; do not recycle it into
            // the passive view.
            self.remove_active(ctx, n, DropReason::PeerFailed, false);
        }
        let peers: Vec<NodeId> = self.active.keys().copied().collect();
        for p in peers {
            ctx.send(p, PlumtreeMsg::Heartbeat);
        }
        if self.active.len() < ACTIVE_VIEW {
            if let Some(cand) = self.passive.sample(ctx.rng()) {
                if cand != self.id && !self.active.contains_key(&cand) {
                    // Spend the candidate: if it is alive and rejects, the
                    // NeighborReject puts it back; if it is dead, it stays
                    // out of the reservoir.
                    self.passive.remove(cand);
                    ctx.send(
                        cand,
                        PlumtreeMsg::NeighborRequest {
                            high: self.active.is_empty(),
                        },
                    );
                }
            }
        }
    }

    fn on_shuffle_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        let targets: Vec<NodeId> = self.active.keys().copied().collect();
        let Some(target) = self.choose(ctx, &targets) else {
            return;
        };
        let mut members = vec![self.id];
        members.extend(
            self.passive
                .sample_k(SHUFFLE_LEN.saturating_sub(1), ctx.rng()),
        );
        ctx.send(
            target,
            PlumtreeMsg::Shuffle {
                origin: self.id,
                ttl: SHUFFLE_TTL,
                members,
            },
        );
    }
}

impl Stack for PlumtreeNode {
    const NAME: &'static str = "plumtree";

    /// Plumtree grafts only messages it does not hold, so the
    /// no-pull-after-delivery invariant applies. HyParView keeps the
    /// active view *near* its bound but join/forward-join acceptance can
    /// transiently exceed it before eviction settles, and GoCast's
    /// random/nearby degree split does not exist, so degree bounds are
    /// not checkable.
    fn capabilities() -> StackCaps {
        StackCaps {
            degree_bounds: false,
            pull_after_delivery: true,
        }
    }

    fn joined(&self) -> bool {
        self.joined
    }

    fn attached(&self) -> bool {
        self.joined && !self.active.is_empty()
    }

    fn overlay_degree(&self) -> usize {
        self.active.len()
    }

    fn member_count(&self) -> usize {
        self.active.len() + self.passive.len()
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }

    fn holds(&self, origin: NodeId, seq: u32) -> bool {
        self.has_message(MsgId::new(origin, seq))
    }

    fn cmd_multicast() -> GoCastCommand {
        GoCastCommand::Multicast
    }

    fn cmd_join(contact: NodeId) -> GoCastCommand {
        GoCastCommand::Join { contact }
    }

    fn cmd_leave() -> GoCastCommand {
        GoCastCommand::Leave
    }

    fn cmd_freeze() -> Option<GoCastCommand> {
        Some(GoCastCommand::FreezeMaintenance)
    }
}

impl Protocol for PlumtreeNode {
    type Msg = PlumtreeMsg;
    type Command = GoCastCommand;
    type Event = GoCastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.joined = true;
        let members = std::mem::take(&mut self.initial_members);
        for m in members {
            if m != self.id {
                self.passive.insert(m, ctx.rng());
            }
        }
        let links = std::mem::take(&mut self.initial_links);
        for p in links {
            self.add_active(ctx, p, true);
        }
        if self.active.is_empty() {
            let contacts = self.passive.as_slice().to_vec();
            if let Some(contact) = self.choose(ctx, &contacts) {
                self.add_active(ctx, contact, true);
                ctx.send(contact, PlumtreeMsg::Join { ttl: ARWL });
            }
        }
        // Deterministic per-node jitter desynchronizes the periodic work.
        let maint_us = MAINTENANCE_PERIOD.as_micros() as u64;
        let maint_jitter = ctx.rng().gen_range(0..maint_us.max(1));
        ctx.set_timer(
            Duration::from_micros(maint_jitter),
            Timer::of_kind(timers::MAINT),
        );
        let shuffle_jitter = ctx.rng().gen_range(0..maint_us.max(1));
        ctx.set_timer(
            SHUFFLE_PERIOD + Duration::from_micros(shuffle_jitter),
            Timer::of_kind(timers::SHUFFLE),
        );
        let gc_jitter = ctx.rng().gen_range(0..1_000_000);
        ctx.set_timer(
            Duration::from_secs(5) + Duration::from_micros(gc_jitter),
            Timer::of_kind(timers::GC),
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: PlumtreeMsg) {
        if !self.joined {
            // A departed node stays silent; whoever still lists it will
            // time it out.
            return;
        }
        match msg {
            PlumtreeMsg::Join { ttl } => {
                self.add_active(ctx, from, true);
                ctx.send(from, PlumtreeMsg::NeighborAccept);
                let others: Vec<NodeId> =
                    self.active.keys().copied().filter(|&p| p != from).collect();
                for p in others {
                    ctx.send(p, PlumtreeMsg::ForwardJoin { joiner: from, ttl });
                }
            }
            PlumtreeMsg::ForwardJoin { joiner, ttl } => {
                self.note_alive(ctx, from);
                if joiner == self.id {
                    return;
                }
                if ttl == 0 || self.active.len() <= 1 {
                    self.accept_neighbor(ctx, joiner);
                    return;
                }
                if ttl == PRWL {
                    self.passive.insert(joiner, ctx.rng());
                }
                let candidates: Vec<NodeId> = self
                    .active
                    .keys()
                    .copied()
                    .filter(|&p| p != from && p != joiner)
                    .collect();
                match self.choose(ctx, &candidates) {
                    Some(next) => ctx.send(
                        next,
                        PlumtreeMsg::ForwardJoin {
                            joiner,
                            ttl: ttl - 1,
                        },
                    ),
                    None => self.accept_neighbor(ctx, joiner),
                }
            }
            PlumtreeMsg::NeighborRequest { high } => {
                if high || self.active.len() < ACTIVE_VIEW {
                    self.accept_neighbor(ctx, from);
                } else {
                    ctx.send(from, PlumtreeMsg::NeighborReject);
                }
            }
            PlumtreeMsg::NeighborAccept => {
                self.add_active(ctx, from, true);
            }
            PlumtreeMsg::NeighborReject => {
                self.passive.insert(from, ctx.rng());
            }
            PlumtreeMsg::Disconnect => {
                self.remove_active(ctx, from, DropReason::PeerRequest, true);
            }
            PlumtreeMsg::Shuffle {
                origin,
                ttl,
                members,
            } => {
                self.note_alive(ctx, from);
                if ttl > 0 {
                    let candidates: Vec<NodeId> = self
                        .active
                        .keys()
                        .copied()
                        .filter(|&p| p != from && p != origin)
                        .collect();
                    if let Some(next) = self.choose(ctx, &candidates) {
                        ctx.send(
                            next,
                            PlumtreeMsg::Shuffle {
                                origin,
                                ttl: ttl - 1,
                                members,
                            },
                        );
                        return;
                    }
                }
                let reply = self
                    .passive
                    .sample_k(members.len().min(SHUFFLE_LEN), ctx.rng());
                if origin != self.id {
                    ctx.send(origin, PlumtreeMsg::ShuffleReply { members: reply });
                }
                self.integrate(ctx, &members);
            }
            PlumtreeMsg::ShuffleReply { members } => {
                self.note_alive(ctx, from);
                self.integrate(ctx, &members);
            }
            PlumtreeMsg::Heartbeat => {
                self.note_alive(ctx, from);
            }
            PlumtreeMsg::Prune => {
                self.note_alive(ctx, from);
                if let Some(p) = self.active.get_mut(&from) {
                    p.eager = false;
                }
            }
            PlumtreeMsg::Gossip { id, hop, size } => {
                self.on_gossip(ctx, from, id, hop, size);
            }
            PlumtreeMsg::IHave { entries } => {
                self.on_ihave(ctx, from, entries);
            }
            PlumtreeMsg::Graft { id } => {
                self.note_alive(ctx, from);
                if self.active.contains_key(&from) {
                    if let Some(p) = self.active.get_mut(&from) {
                        p.eager = true;
                    }
                } else {
                    self.add_active(ctx, from, true);
                }
                if let Some(s) = self.store.get(&id) {
                    let (hop, size) = (s.hop + 1, s.size);
                    ctx.emit(GoCastEvent::PullServed { id, to: from, hop });
                    ctx.send(from, PlumtreeMsg::Gossip { id, hop, size });
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        match timer.kind {
            timers::MAINT => {
                ctx.set_timer(MAINTENANCE_PERIOD, Timer::of_kind(timers::MAINT));
                if self.joined && !self.frozen {
                    self.on_maintenance(ctx);
                }
            }
            timers::SHUFFLE => {
                ctx.set_timer(SHUFFLE_PERIOD, Timer::of_kind(timers::SHUFFLE));
                if self.joined && !self.frozen {
                    self.on_shuffle_tick(ctx);
                }
            }
            timers::MISSING => {
                let id = MsgId::new(NodeId::new(timer.a), timer.b as u32);
                self.on_missing_deadline(ctx, id);
            }
            timers::GC => {
                ctx.set_timer(Duration::from_secs(5), Timer::of_kind(timers::GC));
                let now = ctx.now();
                while let Some(&(at, id)) = self.recent.front() {
                    if now.saturating_since(at) <= GC_WAIT {
                        break;
                    }
                    self.recent.pop_front();
                    self.store.remove(&id);
                }
            }
            _ => debug_assert!(false, "unknown timer {}", timer.kind),
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, cmd: GoCastCommand) {
        match cmd {
            GoCastCommand::Multicast => {
                if !self.joined {
                    return;
                }
                let id = MsgId::new(self.id, self.next_seq);
                self.next_seq += 1;
                let size = PAYLOAD_SIZE;
                self.admit(ctx, id, 0, size);
                ctx.emit(GoCastEvent::Injected { id });
                self.forward(ctx, id, 1, size, None);
            }
            GoCastCommand::Join { contact } => {
                self.joined = true;
                self.frozen = false;
                self.add_active(ctx, contact, true);
                ctx.send(contact, PlumtreeMsg::Join { ttl: ARWL });
            }
            GoCastCommand::Leave => {
                if !self.joined {
                    return;
                }
                // Flip `joined` first so the per-link removals below do not
                // report an orphan spell for the departed node.
                self.joined = false;
                let peers: Vec<NodeId> = self.active.keys().copied().collect();
                for p in peers {
                    ctx.send(p, PlumtreeMsg::Disconnect);
                    ctx.emit(GoCastEvent::LinkDropped {
                        peer: p,
                        kind: LinkKind::Random,
                        reason: DropReason::Surplus,
                    });
                }
                self.active.clear();
                // The store is kept: stragglers received after a rejoin
                // count as redundant, never as duplicate deliveries.
                self.missing.clear();
            }
            GoCastCommand::FreezeMaintenance => {
                self.frozen = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast::bootstrap_random_graph;
    use gocast_sim::{FixedLatency, SimBuilder, SimTime, VecRecorder};

    fn build(n: usize, seed: u64) -> gocast_sim::Sim<PlumtreeNode, VecRecorder<GoCastEvent>> {
        let mut boot = bootstrap_random_graph(n, 3, seed ^ 0xB007);
        let net = FixedLatency::new(n, Duration::from_millis(20));
        SimBuilder::new(net)
            .seed(seed)
            .build_with(VecRecorder::<GoCastEvent>::new(), |id| {
                let (links, members) = boot(id);
                PlumtreeNode::with_initial_links(id, links, members)
            })
    }

    fn deliveries(rec: &VecRecorder<GoCastEvent>) -> Vec<(NodeId, MsgId)> {
        rec.events
            .iter()
            .filter_map(|(_, n, e)| match e {
                GoCastEvent::Delivered { id, .. } => Some((*n, *id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn default_degree_matches_gocast_total() {
        assert_eq!(ACTIVE_VIEW, gocast::GoCastConfig::default().c_degree());
        const { assert!(PASSIVE_VIEW > ACTIVE_VIEW) };
        assert!(IHAVE_TIMEOUT < GRAFT_RETRY);
    }

    #[test]
    fn multicast_reaches_every_node() {
        let n = 64;
        let mut sim = build(n, 7);
        sim.run_until(SimTime::from_secs(5));
        sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(15));
        let got = deliveries(sim.recorder());
        assert_eq!(got.len(), n - 1, "all non-origin nodes deliver");
        let mut seen = std::collections::HashSet::new();
        for pair in &got {
            assert!(seen.insert(*pair), "duplicate delivery {pair:?}");
        }
    }

    #[test]
    fn repeated_multicasts_prune_redundant_edges() {
        let n = 32;
        let mut sim = build(n, 11);
        sim.run_until(SimTime::from_secs(5));
        for i in 0..8 {
            sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
            sim.run_until(SimTime::from_secs(7 + 2 * i));
        }
        let (mut eager, mut active) = (0usize, 0usize);
        for (_, node) in sim.iter_nodes() {
            eager += node.eager_degree();
            active += node.active_degree();
        }
        assert!(
            eager < active,
            "pruning should demote some edges to lazy: eager {eager} of {active}"
        );
        let ihaves = sim
            .recorder()
            .events
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::IHaveSent { .. }))
            .count();
        assert!(ihaves > 0, "lazy edges should announce via IHAVE");
    }

    #[test]
    fn graft_recovers_deliveries_after_crashes() {
        let n = 48;
        let mut sim = build(n, 3);
        sim.run_until(SimTime::from_secs(6));
        // Warm the tree so pruning creates lazy edges, then crash a slice
        // of nodes and multicast: survivors behind dead eager edges must
        // recover via graft.
        for i in 0..4 {
            sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
            sim.run_until(SimTime::from_secs(8 + 2 * i));
        }
        for dead in [2u32, 9, 17, 23, 31, 40] {
            sim.fail_node(NodeId::new(dead));
        }
        let before = deliveries(sim.recorder()).len();
        sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(40));
        let after: Vec<_> = deliveries(sim.recorder())
            .into_iter()
            .skip(before)
            .collect();
        assert_eq!(after.len(), n - 1 - 6, "all survivors deliver");
    }

    #[test]
    fn leave_and_rejoin_never_duplicates_deliveries() {
        let n = 24;
        let mut sim = build(n, 5);
        sim.run_until(SimTime::from_secs(5));
        sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(8));
        sim.command_now(NodeId::new(3), GoCastCommand::Leave);
        sim.run_until(SimTime::from_secs(10));
        sim.command_now(
            NodeId::new(3),
            GoCastCommand::Join {
                contact: NodeId::new(0),
            },
        );
        sim.run_until(SimTime::from_secs(14));
        sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(25));
        let got = deliveries(sim.recorder());
        let mut seen = std::collections::HashSet::new();
        for pair in &got {
            assert!(seen.insert(*pair), "duplicate delivery {pair:?}");
        }
        assert!(
            sim.node(NodeId::new(3)).is_joined(),
            "node 3 rejoined the overlay"
        );
    }

    #[test]
    fn runs_replay_byte_identically() {
        let summarize = |seed| {
            let mut sim = build(40, seed);
            sim.run_until(SimTime::from_secs(4));
            for src in [0u32, 5, 9] {
                sim.command_now(NodeId::new(src), GoCastCommand::Multicast);
            }
            sim.run_until(SimTime::from_secs(20));
            format!("{:?}", sim.recorder().events)
        };
        assert_eq!(summarize(42), summarize(42), "same seed, same trace");
        assert_ne!(summarize(42), summarize(43), "different seed differs");
    }

    #[test]
    fn stack_surface_reports_state() {
        let n = 16;
        let mut sim = build(n, 2);
        sim.run_until(SimTime::from_secs(5));
        sim.command_now(NodeId::new(1), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(10));
        let node = sim.node(NodeId::new(4));
        assert!(node.joined() && node.attached());
        assert!(node.overlay_degree() > 0);
        assert!(node.member_count() >= node.overlay_degree());
        assert_eq!(node.delivered_count(), 1);
        assert!(node.holds(NodeId::new(1), 0));
        let caps = PlumtreeNode::capabilities();
        assert!(!caps.degree_bounds && caps.pull_after_delivery);
        assert_eq!(PlumtreeNode::NAME, "plumtree");
    }
}
