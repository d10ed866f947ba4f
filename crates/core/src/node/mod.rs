//! The GoCast node state machine.
//!
//! One [`GoCastNode`] per participant. The state machine is split across
//! submodules by protocol role:
//!
//! - [`dissemination`]: tree push, neighbor gossip, pulls, GC (paper §2.1);
//! - [`neighbors`]: the overlay link table and link handshakes (§2.2);
//! - [`maintenance`]: random/nearby degree maintenance, C1–C4 (§2.2.2–2.2.3);
//! - [`tree`]: the embedded shortest-path tree and root failover (§2.3);
//! - [`join`]: bootstrap, landmark probing, and the join protocol (§2.2.1).

mod dissemination;
mod join;
mod maintenance;
mod neighbors;
mod tree;

use std::collections::{BTreeMap, VecDeque};
use std::mem::size_of;
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use gocast_membership::MemberView;
use gocast_net::LandmarkVector;
use gocast_sim::{Ctx, FxHashMap, NodeId, Protocol, SimTime, Stack, StackCaps, Timer};
use rand::Rng;

use crate::config::GoCastConfig;
use crate::types::{DegreeInfo, GoCastEvent, LinkKind, MsgId};
use crate::wire::GoCastMsg;

pub(crate) use neighbors::{Neighbor, NeighborTable};
pub(crate) use tree::TreeState;

/// Timer kinds (the `kind` field of [`Timer`]).
pub(crate) mod timers {
    /// Periodic gossip tick (period `t`).
    pub const GOSSIP: u32 = 1;
    /// Periodic overlay maintenance tick (period `r`).
    pub const MAINTENANCE: u32 = 2;
    /// Periodic heartbeat emission (root only acts).
    pub const HEARTBEAT: u32 = 3;
    /// Periodic message-store garbage collection.
    pub const GC: u32 = 4;
    /// Delayed pull for one message (`a` = origin, `b` = seq).
    pub const PULL_DELAY: u32 = 5;
    /// Pull retry for one message (`a` = origin, `b` = seq).
    pub const PULL_TIMEOUT: u32 = 6;
    /// Send the next landmark probe (`a` = landmark index).
    pub const LANDMARK: u32 = 7;
    /// Periodic root liveness check.
    pub const ROOT_CHECK: u32 = 8;
}

/// A multicast message held in the store.
#[derive(Debug, Clone)]
pub(crate) struct Stored {
    /// When this node received it.
    pub received_at: SimTime,
    /// Its age (µs since injection) at the moment of reception.
    pub age_at_receive_us: u64,
    /// Causal hop count from the origin at reception (0 at the origin).
    pub hop: u32,
    /// Neighbors this node heard the ID from (excluded from gossips to
    /// them, and never re-offered the payload).
    pub heard_from: Vec<NodeId>,
    /// Payload size (bytes).
    pub size: u32,
}

impl Stored {
    /// The message's age at simulated time `now`.
    pub fn age_at(&self, now: SimTime) -> u64 {
        self.age_at_receive_us + now.saturating_since(self.received_at).as_micros() as u64
    }
}

/// A message known (via gossip) but not yet received.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    /// When the first gossip mentioning it arrived.
    pub heard_at: SimTime,
    /// Neighbors known to hold the message.
    pub candidates: Vec<NodeId>,
    /// The neighbor currently asked for the payload, if any.
    pub requested_from: Option<NodeId>,
}

/// An in-flight outgoing link request. The two optional fields keep their
/// presence in a flag beside the value (32 bytes, and the flags give
/// `Option<PendingLink>` its niche).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingLink {
    pub peer: NodeId,
    pub sent_at: SimTime,
    rtt_us: u64,
    replace: NodeId,
    has_rtt: bool,
    has_replace: bool,
}

impl PendingLink {
    pub(crate) fn new(
        peer: NodeId,
        sent_at: SimTime,
        rtt_us: Option<u64>,
        replace: Option<NodeId>,
    ) -> Self {
        PendingLink {
            peer,
            sent_at,
            rtt_us: rtt_us.unwrap_or(0),
            replace: replace.unwrap_or(peer),
            has_rtt: rtt_us.is_some(),
            has_replace: replace.is_some(),
        }
    }

    /// RTT to `peer` measured by the preceding probe (nearby links).
    pub(crate) fn rtt_us(&self) -> Option<u64> {
        self.has_rtt.then_some(self.rtt_us)
    }

    /// Nearby neighbor to drop if the request is accepted (replacement).
    pub(crate) fn replace(&self) -> Option<NodeId> {
        self.has_replace.then_some(self.replace)
    }
}

/// What a node is seeded with before it starts; consumed by `start`.
#[derive(Debug)]
struct Boot {
    /// Links seeded before start (symmetric; typed nearby).
    links: Vec<NodeId>,
    /// Members seeded before start.
    members: Vec<NodeId>,
}

/// The GoCast protocol state machine for one node.
///
/// Drive it with [`gocast_sim::Sim`]; interrogate it between runs through
/// the read-only accessors ([`GoCastNode::degrees`],
/// [`GoCastNode::tree_parent`], ...).
///
/// Fields are laid out in declaration order (`repr(C)`), in the order a
/// dispatch reads them: at scale every event starts on a node that has
/// left the cache, so what `on_message` and `on_timer` look at first —
/// identity and flags, degree targets, the neighbor-table and view
/// headers, cursors, tree state — fills the leading four cache lines, the
/// dissemination containers follow, and the counters nobody reads during
/// a run sit at the tail (the `layout` test pins the offsets).
#[derive(Debug)]
#[repr(C)]
pub struct GoCastNode {
    /// One allocation per distinct configuration, shared by every node
    /// built with an equal one ([`shared_config`]).
    pub(crate) cfg: Arc<GoCastConfig>,
    pub(crate) id: NodeId,
    pub(crate) joined: bool,
    pub(crate) frozen: bool,
    pub(crate) probe_queue_built: bool,
    /// Adaptive-period state (future-work features): consecutive empty
    /// gossip ticks, a generation counter to cancel slowed-down gossip
    /// timers, and consecutive quiet maintenance cycles.
    pub(crate) gossip_gen: u32,
    pub(crate) gossip_backoff: u32,
    pub(crate) maint_backoff: u32,
    /// This node's degree targets — `cfg.c_rand`/`cfg.c_near` scaled by
    /// the node's capacity factor (1 by default).
    pub(crate) c_rand: usize,
    pub(crate) c_near: usize,
    pub(crate) neighbors: NeighborTable,
    /// Round-robin cursor over `neighbors` for gossip.
    pub(crate) gossip_cursor: Option<NodeId>,
    pub(crate) tree: TreeState,
    /// Total link additions + removals (also what adaptive maintenance
    /// watches for a quiet cycle).
    pub(crate) link_changes: u64,
    /// The partial member list, each member with its landmark
    /// coordinates: known iff some message carried them since the member
    /// entered the view, forgotten when it is evicted (§2.2.1 estimates
    /// latency "to nodes in S", the member list, and no further).
    pub(crate) view: MemberView<LandmarkVector>,
    /// Position of the sorted walk in `probe_queue`.
    pub(crate) probe_cursor: usize,
    pub(crate) coords: LandmarkVector,
    /// Next multicast sequence number.
    pub(crate) next_seq: u32,
    /// Reception order, for windowed gossip construction.
    pub(crate) recent: VecDeque<(MsgId, SimTime)>,
    pub(crate) store: FxHashMap<MsgId, Stored>,
    pub(crate) pending_pulls: BTreeMap<MsgId, Pending>,
    /// Candidate probe order (estimated-latency ascending).
    pub(crate) probe_queue: Vec<NodeId>,
    pub(crate) pending_link: Option<PendingLink>,
    pub(crate) pending_rand_link: Option<PendingLink>,
    boot: Option<Box<Boot>>,
    // Counters exposed to analysis.
    pub(crate) delivered: u64,
    pub(crate) redundant: u64,
    /// Per-protocol activity counters (pushes, gossip, pulls, drops).
    pub(crate) counters: crate::types::ProtocolCounters,
}

/// `cfg` behind a pointer shared with every live node that was built with
/// an equal configuration: a run has one configuration (a handful under
/// ablations), and a private copy per node is a quarter of the node.
///
/// # Panics
///
/// Panics if `cfg` fails [`GoCastConfig::validate`].
fn shared_config(cfg: GoCastConfig) -> Arc<GoCastConfig> {
    static LIVE: Mutex<Vec<Weak<GoCastConfig>>> = Mutex::new(Vec::new());
    cfg.validate().expect("invalid GoCast configuration");
    let mut live = LIVE.lock().expect("nothing panics under this lock");
    // Newest first: a simulation builds its nodes back to back.
    let mut held = live.iter().rev().filter_map(Weak::upgrade);
    if let Some(shared) = held.find(|shared| **shared == cfg) {
        return shared;
    }
    live.retain(|w| w.strong_count() > 0);
    let shared = Arc::new(cfg);
    live.push(Arc::downgrade(&shared));
    shared
}

impl GoCastNode {
    /// Creates a node that bootstraps from `members` (its initial partial
    /// view) with no pre-established links; it will join through the
    /// overlay maintenance protocols.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GoCastConfig::validate`].
    pub fn new(id: NodeId, cfg: GoCastConfig, members: Vec<NodeId>) -> Self {
        Self::with_initial_links(id, cfg, Vec::new(), members)
    }

    /// Creates a node with pre-established overlay links (the paper's
    /// experiments start from a random graph where "each node initiates
    /// connections to `C_degree`/2 random nodes"). `links` must be
    /// symmetric across nodes; they are typed *nearby* and adapted from
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GoCastConfig::validate`].
    pub fn with_initial_links(
        id: NodeId,
        cfg: GoCastConfig,
        links: Vec<NodeId>,
        members: Vec<NodeId>,
    ) -> Self {
        Self::with_capacity(id, cfg, links, members, 1)
    }

    /// Creates a node whose degree targets are scaled by `capacity`: a
    /// capacity-2 node aims for `2 * C_rand` random and `2 * C_near`
    /// nearby neighbors, carrying proportionally more gossip and tree
    /// fan-out (the capacity extension sketched in §2.2).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GoCastConfig::validate`] or if
    /// `capacity == 0`.
    pub fn with_capacity(
        id: NodeId,
        cfg: GoCastConfig,
        links: Vec<NodeId>,
        members: Vec<NodeId>,
        capacity: usize,
    ) -> Self {
        let cfg = shared_config(cfg);
        assert!(capacity > 0, "capacity must be positive");
        let view = MemberView::with_values(id, cfg.member_view_capacity);
        let tree = TreeState::new(cfg.root);
        let c_rand = cfg.c_rand * capacity;
        let c_near = cfg.c_near * capacity;
        GoCastNode {
            cfg,
            id,
            joined: false,
            frozen: false,
            probe_queue_built: false,
            gossip_gen: 0,
            gossip_backoff: 0,
            maint_backoff: 0,
            c_rand,
            c_near,
            neighbors: NeighborTable::default(),
            gossip_cursor: None,
            tree,
            link_changes: 0,
            view,
            probe_cursor: 0,
            coords: LandmarkVector::unknown(),
            next_seq: 0,
            recent: VecDeque::new(),
            store: FxHashMap::default(),
            pending_pulls: BTreeMap::new(),
            probe_queue: Vec::new(),
            pending_link: None,
            pending_rand_link: None,
            boot: Some(Box::new(Boot { links, members })),
            delivered: 0,
            redundant: 0,
            counters: crate::types::ProtocolCounters::default(),
        }
    }

    // ------------------------------------------------------------------
    // Read-only accessors (analysis / harness).
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &GoCastConfig {
        &self.cfg
    }

    /// Current random/nearby degrees plus this node's targets.
    pub fn degrees(&self) -> DegreeInfo {
        let mut d = DegreeInfo {
            t_rand: self.c_rand as u16,
            t_near: self.c_near as u16,
            ..DegreeInfo::default()
        };
        for n in self.neighbors.iter() {
            match n.kind {
                LinkKind::Random => d.d_rand += 1,
                LinkKind::Nearby => d.d_near += 1,
            }
        }
        d
    }

    /// This node's (possibly capacity-scaled) degree targets
    /// `(C_rand, C_near)`.
    pub fn degree_targets(&self) -> (usize, usize) {
        (self.c_rand, self.c_near)
    }

    /// Iterates over `(peer, kind, measured RTT)` for every overlay link.
    pub fn overlay_links(&self) -> impl Iterator<Item = (NodeId, LinkKind, Option<Duration>)> + '_ {
        self.neighbors
            .iter()
            .map(|n| (n.id(), n.kind, n.rtt_us().map(Duration::from_micros)))
    }

    /// Whether `peer` is an overlay neighbor.
    pub fn is_neighbor(&self, peer: NodeId) -> bool {
        self.neighbors.contains(peer)
    }

    /// The current tree parent (`None`: root or detached).
    pub fn tree_parent(&self) -> Option<NodeId> {
        self.tree.parent
    }

    /// Current tree children.
    pub fn tree_children(&self) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .filter(|n| n.is_child)
            .map(Neighbor::id)
            .collect()
    }

    /// Tree neighbors: parent plus children.
    pub fn tree_neighbors(&self) -> Vec<NodeId> {
        let mut v = self.tree_children();
        if let Some(p) = self.tree.parent {
            v.push(p);
        }
        v
    }

    /// The heartbeat wave sequence number this node last joined.
    pub fn tree_seq(&self) -> u32 {
        self.tree.seq
    }

    /// This node's latency distance to the root, if attached.
    pub fn tree_distance(&self) -> Option<Duration> {
        (self.tree.dist_us != u64::MAX).then(|| Duration::from_micros(self.tree.dist_us))
    }

    /// Whether this node currently believes it is the tree root.
    pub fn is_root(&self) -> bool {
        self.tree.root == self.id
    }

    /// The root this node currently follows.
    pub fn current_root(&self) -> NodeId {
        self.tree.root
    }

    /// Whether this node has received (or injected) `id`.
    pub fn has_message(&self, id: MsgId) -> bool {
        self.store.contains_key(&id)
    }

    /// Messages delivered to this node (first receptions, injections
    /// excluded).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Redundant full-payload receptions.
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// Total link additions + removals this node performed.
    pub fn link_change_count(&self) -> u64 {
        self.link_changes
    }

    /// Per-node protocol activity counters (pushes sent/received, gossip
    /// rounds, pulls issued/served, retransmits, drops by reason).
    pub fn counters(&self) -> &crate::types::ProtocolCounters {
        &self.counters
    }

    /// The membership view; each member carries its landmark coordinates
    /// (empty while unknown).
    pub fn member_view(&self) -> &MemberView<LandmarkVector> {
        &self.view
    }

    /// This node's landmark coordinates.
    pub fn coords(&self) -> &LandmarkVector {
        &self.coords
    }

    /// Bytes this node holds, by structure. Vectors and hash tables count
    /// their *capacity* (what the allocator handed out, buckets and control
    /// bytes included). A B-tree map has no capacity to ask for: the
    /// short-lived pull table counts its entries.
    pub fn mem_bytes(&self) -> NodeMem {
        fn table<K, V>(capacity: usize) -> usize {
            // hashbrown: capacity is 7/8 of the buckets, one control byte each.
            capacity * 8 / 7 * (size_of::<(K, V)>() + 1)
        }
        NodeMem {
            fixed: size_of::<Self>(),
            view: self.view.mem_bytes(),
            neighbors: self.neighbors.mem_bytes(),
            store: table::<MsgId, Stored>(self.store.capacity())
                + self
                    .store
                    .values()
                    .map(|s| s.heard_from.capacity() * size_of::<NodeId>())
                    .sum::<usize>(),
            recent: self.recent.capacity() * size_of::<(MsgId, SimTime)>(),
            pending_pulls: self
                .pending_pulls
                .values()
                .map(|p| {
                    size_of::<(MsgId, Pending)>() + p.candidates.capacity() * size_of::<NodeId>()
                })
                .sum(),
            probe_queue: self.probe_queue.capacity() * size_of::<NodeId>(),
        }
    }

    /// Whether maintenance has been frozen by
    /// [`GoCastCommand::FreezeMaintenance`].
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Whether this node has completed bootstrapping (always true for
    /// nodes started with the full cohort; joining nodes flip it when the
    /// join reply arrives).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    // ------------------------------------------------------------------
    // Shared internals.
    // ------------------------------------------------------------------

    /// Current time in µs (for wire timestamps).
    pub(crate) fn now_us(ctx: &Ctx<'_, Self>) -> u64 {
        ctx.now().as_nanos() / 1_000
    }

    /// Schedules a periodic timer with a small deterministic phase already
    /// applied (the caller passes the delay).
    pub(crate) fn arm(ctx: &mut Ctx<'_, Self>, delay: Duration, kind: u32) {
        ctx.set_timer(delay, Timer::of_kind(kind));
    }
}

/// What one node holds in memory, by structure
/// ([`GoCastNode::mem_bytes`]), in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeMem {
    /// The node struct itself (inline fields, counters, tree state).
    pub fixed: usize,
    /// Member view: ids plus each member's landmark coordinates.
    pub view: usize,
    /// Overlay neighbor table.
    pub neighbors: usize,
    /// Message store, including every message's `heard_from` list.
    pub store: usize,
    /// Reception-order window behind gossip construction.
    pub recent: usize,
    /// Messages heard of but not yet received, with their candidates.
    pub pending_pulls: usize,
    /// Estimated-latency probe order.
    pub probe_queue: usize,
}

impl NodeMem {
    /// Sum over every structure.
    pub fn total(&self) -> usize {
        self.fixed
            + self.view
            + self.neighbors
            + self.store
            + self.recent
            + self.pending_pulls
            + self.probe_queue
    }
}

/// Coordinates as a message carried them: `None` when the sender had
/// nothing measured, so an empty vector never overwrites a known one.
pub(crate) fn known(coords: LandmarkVector) -> Option<LandmarkVector> {
    (!coords.is_empty()).then_some(coords)
}

/// Out-of-band commands injected by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoCastCommand {
    /// Inject a new multicast message from this node.
    Multicast,
    /// Join the overlay through `contact` (runtime churn).
    Join {
        /// A node already in the overlay.
        contact: NodeId,
    },
    /// Gracefully leave: drop all links and go quiet.
    Leave,
    /// Stop all repair activity (overlay maintenance, tree repair, failure
    /// detection). Used by the paper's failure experiments, which measure
    /// dissemination over the *unrepaired* overlay and tree.
    FreezeMaintenance,
}

impl Protocol for GoCastNode {
    type Msg = GoCastMsg;
    type Command = GoCastCommand;
    type Event = GoCastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: GoCastMsg) {
        if let Some(n) = self.neighbors.get_mut(from) {
            n.last_seen = ctx.now();
        }
        match msg {
            GoCastMsg::Data {
                id,
                age_us,
                hop,
                size,
            } => self.on_data(ctx, from, id, age_us, hop, size),
            GoCastMsg::Gossip {
                ids,
                members,
                coords,
                degrees,
            } => self.on_gossip(ctx, from, ids, members, coords, degrees),
            GoCastMsg::PullRequest { ids } => self.on_pull_request(ctx, from, ids),
            GoCastMsg::JoinRequest => self.on_join_request(ctx, from),
            GoCastMsg::JoinReply { members } => self.on_join_reply(ctx, from, members),
            GoCastMsg::Ping { kind, sent_at_us } => self.on_ping(ctx, from, kind, sent_at_us),
            GoCastMsg::Pong {
                kind,
                sent_at_us,
                degrees,
                max_nearby_rtt_us,
                coords,
            } => self.on_pong(
                ctx,
                from,
                kind,
                sent_at_us,
                degrees,
                max_nearby_rtt_us,
                coords,
            ),
            GoCastMsg::LinkRequest {
                kind,
                rtt_us,
                degrees,
            } => self.on_link_request(ctx, from, kind, rtt_us, degrees),
            GoCastMsg::LinkAccept { kind, degrees } => {
                self.on_link_accept(ctx, from, kind, degrees)
            }
            GoCastMsg::LinkReject { kind } => self.on_link_reject(ctx, from, kind),
            GoCastMsg::LinkDrop { kind, reason } => self.on_link_drop(ctx, from, kind, reason),
            GoCastMsg::ConnectTo { target } => self.on_connect_to(ctx, from, target),
            GoCastMsg::TreeAd {
                root,
                epoch,
                seq,
                dist_us,
            } => self.on_tree_ad(ctx, from, root, epoch, seq, dist_us),
            GoCastMsg::ParentSelect { selected } => self.on_parent_select(ctx, from, selected),
            // Topic-tagged traffic belongs to the application tier
            // (`gocast-app`'s `TopicMux` intercepts it before the inner
            // node sees it); a bare GoCast node ignores it.
            GoCastMsg::TopicData { .. }
            | GoCastMsg::TopicIHave { .. }
            | GoCastMsg::TopicPull { .. }
            | GoCastMsg::TopicDigest { .. }
            | GoCastMsg::TopicDeltas { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        match timer.kind {
            timers::GOSSIP => self.on_gossip_tick(ctx, timer.a),
            timers::MAINTENANCE => self.on_maintenance_tick(ctx),
            timers::HEARTBEAT => self.on_heartbeat_tick(ctx),
            timers::GC => self.on_gc_tick(ctx),
            timers::PULL_DELAY => {
                let id = MsgId::new(NodeId::new(timer.a), timer.b as u32);
                self.on_pull_delay(ctx, id);
            }
            timers::PULL_TIMEOUT => {
                let id = MsgId::new(NodeId::new(timer.a), timer.b as u32);
                self.on_pull_timeout(ctx, id);
            }
            timers::LANDMARK => self.on_landmark_timer(ctx, timer.a as usize),
            timers::ROOT_CHECK => self.on_root_check(ctx),
            _ => debug_assert!(false, "unknown timer kind {}", timer.kind),
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, cmd: GoCastCommand) {
        match cmd {
            GoCastCommand::Multicast => self.inject_multicast(ctx),
            GoCastCommand::Join { contact } => self.start_join(ctx, contact),
            GoCastCommand::Leave => self.leave(ctx),
            GoCastCommand::FreezeMaintenance => self.frozen = true,
        }
    }
}

impl Stack for GoCastNode {
    const NAME: &'static str = "gocast";

    /// GoCast promises every optional invariant: bounded degrees (the
    /// accept rules), pull-only-when-missing, and an explicit tree.
    fn capabilities() -> StackCaps {
        StackCaps::all()
    }

    fn joined(&self) -> bool {
        self.is_joined()
    }

    fn attached(&self) -> bool {
        self.is_joined() && (self.is_root() || self.tree_parent().is_some())
    }

    fn overlay_degree(&self) -> usize {
        self.neighbors.len()
    }

    fn member_count(&self) -> usize {
        self.view.len()
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

impl GoCastNode {
    /// Startup: seed the view and links, arm the periodic timers with
    /// deterministic per-node phase jitter (so 1,024 nodes don't all tick
    /// on the same instant), and begin landmark probing.
    fn start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.joined = true;
        if let Some(boot) = self.boot.take() {
            for m in boot.members {
                self.view.insert(m, ctx.rng());
            }
            for peer in boot.links {
                self.install_initial_link(ctx, peer);
            }
        }

        let jitter = |ctx: &mut Ctx<'_, Self>, max: Duration| {
            let us = ctx.rng().gen_range(0..max.as_micros().max(1) as u64);
            Duration::from_micros(us)
        };

        let j = jitter(ctx, self.cfg.gossip_period);
        ctx.set_timer(j, Timer::with_payload(timers::GOSSIP, self.gossip_gen, 0));
        let j = jitter(ctx, self.cfg.maintenance_period);
        Self::arm(ctx, j, timers::MAINTENANCE);
        let j = jitter(ctx, Duration::from_secs(5));
        Self::arm(ctx, Duration::from_secs(5) + j, timers::GC);

        if self.cfg.tree_enabled {
            self.tree.last_heartbeat = ctx.now();
            if self.is_root() {
                self.tree.dist_us = 0;
                ctx.emit(GoCastEvent::BecameRoot { epoch: 0 });
                // First heartbeat soon after boot so the tree forms quickly.
                Self::arm(ctx, Duration::from_millis(200), timers::HEARTBEAT);
            } else {
                Self::arm(ctx, self.cfg.heartbeat_period, timers::HEARTBEAT);
            }
            let j = jitter(ctx, Duration::from_secs(2));
            Self::arm(ctx, self.cfg.heartbeat_period + j, timers::ROOT_CHECK);
        }

        self.start_landmark_probing(ctx);
    }

    /// Graceful leave: tell every neighbor, then stop participating.
    fn leave(&mut self, ctx: &mut Ctx<'_, Self>) {
        while let Some(p) = self.neighbors.next_after(None) {
            self.drop_link(ctx, p, crate::types::DropReason::Surplus, true);
        }
        self.joined = false;
        self.frozen = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::{FixedLatency, SimBuilder};
    use std::mem::offset_of;

    /// The shape a dispatch depends on: what `on_message` and `on_timer`
    /// read before anything else ends inside the node's first four cache
    /// lines (the kernel prefetches exactly those one event ahead), the
    /// counters come last, and a neighbor is one line.
    #[test]
    fn layout() {
        assert!(
            size_of::<GoCastNode>() <= 576,
            "{}",
            size_of::<GoCastNode>()
        );
        assert_eq!(size_of::<Neighbor>(), 64);
        assert!(size_of::<Option<PendingLink>>() <= 32);
        // `repr(C)`: declaration order. Everything declared before
        // `next_seq` is the hot set; `counters` closes the struct.
        assert!(offset_of!(GoCastNode, next_seq) <= 256);
        assert_eq!(
            offset_of!(GoCastNode, counters) + size_of::<crate::types::ProtocolCounters>(),
            size_of::<GoCastNode>()
        );
    }

    /// Nodes built with equal configurations share one; a different one
    /// gets its own, and `config()` still reads as what was passed.
    #[test]
    fn equal_configs_are_shared() {
        let odd = GoCastConfig {
            payload_size: 777,
            ..GoCastConfig::default()
        };
        let node =
            |i: u32, cfg: &GoCastConfig| GoCastNode::new(NodeId::new(i), cfg.clone(), vec![]);
        let (a, b, c) = (
            node(0, &odd),
            node(1, &odd),
            node(2, &GoCastConfig::default()),
        );
        assert!(Arc::ptr_eq(&a.cfg, &b.cfg));
        assert!(!Arc::ptr_eq(&a.cfg, &c.cfg));
        assert_eq!(a.config(), &odd);
        assert_eq!(c.config(), &GoCastConfig::default());
    }

    /// What a node remembers about its peers is O(view + degree), however
    /// many peers the gossips mention and however long they keep coming.
    /// (The per-node coordinate cache this replaces grew toward one entry
    /// per peer in the system: 255 here, against a 16-member view.)
    #[test]
    fn idle_node_memory_is_bounded_by_view_and_degree_not_population() {
        const N: usize = 256;
        let cfg = GoCastConfig {
            member_view_capacity: 16,
            ..GoCastConfig::default()
        };
        let mut boot = crate::bootstrap_random_graph(N, cfg.c_degree() / 2, 3);
        let mut sim = SimBuilder::new(FixedLatency::new(N, Duration::from_millis(20)))
            .seed(3)
            .build(|id| {
                let (links, members) = boot(id);
                GoCastNode::with_initial_links(id, cfg.clone(), links, members)
            });
        let mut largest_after = |secs| {
            sim.run_until(SimTime::from_secs(secs));
            (0..N as u32)
                .map(|i| sim.node(NodeId::new(i)).mem_bytes().total())
                .max()
                .expect("N > 0")
        };
        let early = largest_after(30);
        let late = largest_after(150);

        // Vectors grow by doubling, so a full view sits in this many slots.
        let slots = cfg.member_view_capacity.next_power_of_two();
        let max_degree = cfg.c_rand + cfg.c_near + 2 * cfg.degree_slack;
        let bound = size_of::<GoCastNode>()
            + slots * (size_of::<NodeId>() + size_of::<LandmarkVector>())
            + slots * size_of::<NodeId>() // probe queue: one id per member
            + max_degree.next_multiple_of(neighbors::TABLE_GROWTH) * size_of::<Neighbor>();
        assert!(late <= bound, "{late} B held, bound {bound} B");
        assert!(
            late.abs_diff(early) * 20 <= early,
            "idle state moved from {early} B at 30 s to {late} B at 150 s"
        );
    }
}
