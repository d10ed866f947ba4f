//! [`TopicMux`] — many logical pub/sub groups multiplexed onto one
//! degree-bounded overlay.
//!
//! The mux wraps any [`Stack`] speaking the GoCast wire/event types and
//! adds the application tier on top: topic-tagged data dissemination
//! along the [`TopicDirectory`]'s embedded per-topic trees, IHAVE/pull
//! gossip repair among topic subscribers, and per-topic delta-CRDT
//! replication with digest anti-entropy. The wrapped stack keeps running
//! untouched — joins, leaves, overlay maintenance, and its own timers
//! all pass through — so one overlay carries every topic, which is the
//! point: per-topic overlays would multiply degree and maintenance cost
//! by the topic count, while the mux shares both.
//!
//! Interleaving rules that keep the composition sound:
//!
//! - **Messages**: topic traffic uses the `Topic*` variants of
//!   [`GoCastMsg`] (codec tags 14–18); everything else is routed to the
//!   inner stack verbatim.
//! - **Timers**: inner timer kinds are small (`< 0x100`); mux timers
//!   start at [`timers::GOSSIP`]` = 0x100`.
//! - **Events**: topic deliveries dual-emit the standard
//!   [`GoCastEvent::Delivered`] *and* [`GoCastEvent::TopicDelivered`].
//!   Publisher sequence numbers start at [`APP_SEQ_BASE`], far above
//!   any overlay-level multicast, so `MsgId`s stay globally unique and
//!   the universal invariant oracle applies unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use gocast::{DeliveryPath, DeltaWire, GoCastEvent, GoCastMsg, MsgId};
use gocast_sim::{Ctx, HostBackend, NodeId, Protocol, Stack, StackCaps, Timer};
use rand::Rng;

use crate::topics::TopicDirectory;

/// First sequence number a topic publisher uses. Keeps application
/// `MsgId`s disjoint from overlay-level multicasts (which count up from
/// 0), so one oracle checks both tiers.
pub const APP_SEQ_BASE: u32 = 0x0100_0000;

/// Mux timer kinds. Everything below [`timers::GOSSIP`] belongs to the
/// wrapped stack and is routed back to it.
pub mod timers {
    /// Periodic topic IHAVE gossip.
    pub const GOSSIP: u32 = 0x100;
    /// Periodic CRDT digest anti-entropy.
    pub const ANTI_ENTROPY: u32 = 0x101;
    /// Retry pulls for still-missing topic messages.
    pub const PULL_RETRY: u32 = 0x102;
}

/// Payload bytes per published topic message.
const PAYLOAD_BYTES: u32 = 1024;
/// IHAVE targets per topic per gossip round.
const GOSSIP_FANOUT: usize = 2;
/// Recent message ids advertised per IHAVE.
const IHAVE_WINDOW: usize = 32;
/// Maximum deltas shipped per anti-entropy reply.
const DELTAS_CAP: usize = 64;
/// Pull attempts per missing message before giving up to anti-entropy
/// (CRDT) or accounting the loss (plain pub/sub).
const MAX_PULL_ATTEMPTS: u8 = 3;

/// The application tier's cadences: the defaults suit simulated runs,
/// and short wall-clock runs on the wire use faster ones.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Period of topic IHAVE gossip.
    pub gossip_every: Duration,
    /// Period of CRDT digest anti-entropy.
    pub anti_entropy_every: Duration,
    /// How long to wait before re-pulling a still-missing message.
    pub pull_retry_after: Duration,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            gossip_every: Duration::from_millis(500),
            anti_entropy_every: Duration::from_secs(2),
            pull_retry_after: Duration::from_millis(400),
        }
    }
}

/// Harness commands for a [`TopicMux`] node. `C` is the wrapped stack's
/// own command type; everything it understands still works via
/// [`AppCommand::Inner`].
#[derive(Debug, Clone)]
pub enum AppCommand<C> {
    /// Forward to the wrapped stack (join, leave, freeze, ...).
    Inner(C),
    /// Publish one payload on `topic` (`None` = rotate through the
    /// node's own subscriptions).
    Publish {
        /// Target topic, or `None` for deterministic rotation.
        topic: Option<u32>,
    },
    /// Add `elem` to the topic's replicated ORSet and multicast the delta.
    CrdtAdd {
        /// Target topic, or `None` for deterministic rotation.
        topic: Option<u32>,
        /// The element.
        elem: u64,
    },
    /// Remove `elem` from the topic's ORSet (no-op when absent locally).
    CrdtRemove {
        /// Target topic, or `None` for deterministic rotation.
        topic: Option<u32>,
        /// The element.
        elem: u64,
    },
    /// Subscribe to `topic` at runtime.
    Subscribe {
        /// The topic.
        topic: u32,
    },
    /// Unsubscribe from `topic` at runtime.
    Unsubscribe {
        /// The topic.
        topic: u32,
    },
}

/// A stored topic message: enough to re-push and serve pulls.
#[derive(Debug, Clone)]
struct Stored {
    size: u32,
    hop: u32,
    delta: Option<DeltaWire>,
}

/// Per-topic runtime state.
#[derive(Debug, Default)]
struct TopicState {
    orset: crate::ORSet,
    seen: BTreeMap<MsgId, Stored>,
    /// Sliding window of recently seen ids, advertised in IHAVEs.
    recent: VecDeque<MsgId>,
    /// Known-missing ids → pull attempts so far.
    missing: BTreeMap<MsgId, u8>,
}

/// Buffered [`HostBackend`] used to drive the wrapped stack from inside
/// a mux handler: the inner protocol's sends/timers/events land here and
/// are replayed onto the real context afterwards. Zero semantic change —
/// same messages, same delays, same events, same order.
#[derive(Debug, Default)]
struct Buf {
    nodes: usize,
    sends: Vec<(NodeId, GoCastMsg)>,
    timers: Vec<(Duration, Timer)>,
    events: Vec<GoCastEvent>,
}

impl<P> HostBackend<P> for Buf
where
    P: Protocol<Msg = GoCastMsg, Event = GoCastEvent>,
{
    fn send(&mut self, to: NodeId, msg: GoCastMsg) {
        self.sends.push((to, msg));
    }
    fn set_timer(&mut self, delay: Duration, timer: Timer) {
        self.timers.push((delay, timer));
    }
    fn emit(&mut self, event: GoCastEvent) {
        self.events.push(event);
    }
    fn node_count(&self) -> usize {
        self.nodes
    }
}

/// Multi-topic pub/sub + delta-CRDT tier over a wrapped [`Stack`].
#[derive(Debug)]
pub struct TopicMux<S> {
    inner: S,
    dir: Arc<TopicDirectory>,
    cfg: AppConfig,
    me: NodeId,
    subs: BTreeSet<u32>,
    states: BTreeMap<u32, TopicState>,
    next_seq: u32,
    publishes: u64,
    topic_deliveries: u64,
}

impl<S> TopicMux<S>
where
    S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    /// Wraps `inner` for node `me`, subscribing it to its base topics
    /// from the directory.
    pub fn new(me: NodeId, inner: S, dir: Arc<TopicDirectory>, cfg: AppConfig) -> Self {
        let subs: BTreeSet<u32> = dir.base_topics(me).into_iter().collect();
        let states = subs.iter().map(|&t| (t, TopicState::default())).collect();
        TopicMux {
            inner,
            dir,
            cfg,
            me,
            subs,
            states,
            next_seq: APP_SEQ_BASE,
            publishes: 0,
            topic_deliveries: 0,
        }
    }

    /// The wrapped stack (read-only; for audits).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Current subscription set.
    pub fn subscriptions(&self) -> &BTreeSet<u32> {
        &self.subs
    }

    /// Topic payload messages delivered to this node.
    pub fn topic_deliveries(&self) -> u64 {
        self.topic_deliveries
    }

    /// The anti-entropy digest of `topic`'s replica, if this node ever
    /// tracked the topic.
    pub fn crdt_digest(&self, topic: u32) -> Option<Vec<gocast::VvEntry>> {
        self.states.get(&topic).map(|s| s.orset.digest())
    }

    /// The state hash of `topic`'s replica (convergence audits compare
    /// these across subscribers).
    pub fn crdt_state_hash(&self, topic: u32) -> Option<u64> {
        self.states.get(&topic).map(|s| s.orset.state_hash())
    }

    /// Distinct elements currently in `topic`'s replica.
    pub fn crdt_len(&self, topic: u32) -> usize {
        self.states.get(&topic).map_or(0, |s| s.orset.len())
    }

    /// Drives the wrapped stack through a buffered backend, then replays
    /// its effects onto the real context.
    fn drive_inner<F>(&mut self, ctx: &mut Ctx<'_, Self>, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<'_, S>),
    {
        let mut buf = Buf {
            nodes: ctx.node_count(),
            ..Buf::default()
        };
        let id = ctx.id();
        let now = ctx.now();
        {
            let mut ictx = Ctx::for_host(id, now, ctx.rng(), &mut buf);
            f(&mut self.inner, &mut ictx);
        }
        for (to, msg) in buf.sends {
            ctx.send(to, msg);
        }
        for (delay, timer) in buf.timers {
            debug_assert!(
                timer.kind < timers::GOSSIP,
                "inner timer kind collides with mux"
            );
            ctx.set_timer(delay, timer);
        }
        for ev in buf.events {
            ctx.emit(ev);
        }
    }

    fn state(&mut self, topic: u32) -> &mut TopicState {
        self.states.entry(topic).or_default()
    }

    /// Deterministically picks the target topic for a `None`-topic
    /// command: rotate through the node's own subscriptions.
    fn choose_topic(&mut self, topic: Option<u32>) -> Option<u32> {
        if let Some(t) = topic {
            return Some(t);
        }
        if self.subs.is_empty() {
            return None;
        }
        let idx = (self.publishes as usize) % self.subs.len();
        self.subs.iter().nth(idx).copied()
    }

    /// Tree neighbors of this node for `topic` at `epoch`: parent plus
    /// children (empty when the node is outside the tree).
    fn tree_neighbors(&self, epoch: usize, topic: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.dir.children(epoch, topic, self.me).to_vec();
        if let Some(p) = self.dir.parent(epoch, topic, self.me) {
            out.push(p);
        }
        out
    }

    /// A uniformly drawn subscriber of `topic` other than this node.
    fn rand_subscriber(&self, rng: &mut impl Rng, epoch: usize, topic: u32) -> Option<NodeId> {
        let subs = self.dir.subscribers(epoch, topic);
        if subs.is_empty() || (subs.len() == 1 && subs[0] == self.me) {
            return None;
        }
        loop {
            let n = subs[rng.gen_range(0..subs.len())];
            if n != self.me {
                return Some(n);
            }
        }
    }

    /// Publishes one topic message (optionally carrying a CRDT delta)
    /// into the topic tree.
    fn publish(&mut self, ctx: &mut Ctx<'_, Self>, topic: u32, delta: Option<DeltaWire>) {
        let id = MsgId::new(self.me, self.next_seq);
        self.next_seq += 1;
        self.publishes += 1;
        ctx.emit(GoCastEvent::Injected { id });
        let stored = Stored {
            size: PAYLOAD_BYTES,
            hop: 0,
            delta: delta.clone(),
        };
        let state = self.state(topic);
        state.seen.insert(id, stored);
        state.recent.push_back(id);
        if state.recent.len() > IHAVE_WINDOW {
            state.recent.pop_front();
        }
        let epoch = self.dir.epoch_at(ctx.now());
        let targets = if self.dir.is_subscribed(epoch, topic, self.me) {
            self.tree_neighbors(epoch, topic)
        } else {
            // A non-subscriber publisher hands the message to the root.
            self.dir.root(epoch, topic).into_iter().collect()
        };
        for to in targets {
            ctx.send(
                to,
                GoCastMsg::TopicData {
                    topic,
                    id,
                    age_us: 0,
                    hop: 1,
                    size: PAYLOAD_BYTES,
                    delta: delta.clone(),
                },
            );
        }
    }

    /// First reception of a topic payload: record, emit both delivery
    /// events, apply any delta, and forward along the tree.
    #[allow(clippy::too_many_arguments)]
    fn on_topic_data(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        topic: u32,
        id: MsgId,
        hop: u32,
        size: u32,
        delta: Option<DeltaWire>,
    ) {
        if !self.subs.contains(&topic) {
            return; // late traffic from a previous epoch's tree
        }
        let state = self.state(topic);
        if state.seen.contains_key(&id) {
            return;
        }
        state.seen.insert(
            id,
            Stored {
                size,
                hop,
                delta: delta.clone(),
            },
        );
        state.recent.push_back(id);
        if state.recent.len() > IHAVE_WINDOW {
            state.recent.pop_front();
        }
        state.missing.remove(&id);
        let newly_applied = match &delta {
            Some(d) => state.orset.apply(id.origin, d),
            None => false,
        };
        self.topic_deliveries += 1;
        ctx.emit(GoCastEvent::Delivered {
            id,
            via: DeliveryPath::Tree,
            from,
            hop,
        });
        ctx.emit(GoCastEvent::TopicDelivered {
            topic,
            id,
            bytes: size,
        });
        if let (true, Some(d)) = (newly_applied, &delta) {
            ctx.emit(GoCastEvent::DeltaApplied {
                topic,
                origin: id.origin,
                counter: d.counter,
            });
        }
        let epoch = self.dir.epoch_at(ctx.now());
        for to in self.tree_neighbors(epoch, topic) {
            if to == from || to == id.origin {
                continue;
            }
            ctx.send(
                to,
                GoCastMsg::TopicData {
                    topic,
                    id,
                    age_us: 0,
                    hop: hop + 1,
                    size,
                    delta: delta.clone(),
                },
            );
        }
    }

    fn on_topic_ihave(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        topic: u32,
        ids: Vec<MsgId>,
    ) {
        if !self.subs.contains(&topic) {
            return;
        }
        let retry = self.cfg.pull_retry_after;
        let state = self.state(topic);
        let wants: Vec<MsgId> = ids
            .into_iter()
            .filter(|id| !state.seen.contains_key(id) && !state.missing.contains_key(id))
            .collect();
        if wants.is_empty() {
            return;
        }
        for &id in &wants {
            state.missing.insert(id, 1);
        }
        ctx.send(from, GoCastMsg::TopicPull { topic, ids: wants });
        ctx.set_timer(retry, Timer::with_payload(timers::PULL_RETRY, topic, 0));
    }

    fn on_topic_pull(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        topic: u32,
        ids: Vec<MsgId>,
    ) {
        // Serve from the store regardless of current subscription: a
        // node that just unsubscribed can still repair its ex-peers.
        let Some(state) = self.states.get(&topic) else {
            return;
        };
        let hits: Vec<(MsgId, Stored)> = ids
            .iter()
            .filter_map(|id| state.seen.get(id).map(|s| (*id, s.clone())))
            .collect();
        for (id, stored) in hits {
            ctx.send(
                from,
                GoCastMsg::TopicData {
                    topic,
                    id,
                    age_us: 0,
                    hop: stored.hop + 1,
                    size: stored.size,
                    delta: stored.delta,
                },
            );
        }
    }

    fn on_topic_digest(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        topic: u32,
        vv: Vec<gocast::VvEntry>,
    ) {
        let Some(state) = self.states.get(&topic) else {
            return;
        };
        let deltas = state.orset.missing_for(&vv, DELTAS_CAP);
        if !deltas.is_empty() {
            ctx.send(from, GoCastMsg::TopicDeltas { topic, deltas });
        }
    }

    fn on_topic_deltas(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        topic: u32,
        deltas: Vec<(NodeId, DeltaWire)>,
    ) {
        if !self.subs.contains(&topic) {
            return;
        }
        let state = self.state(topic);
        for (origin, delta) in deltas {
            if state.orset.apply(origin, &delta) {
                ctx.emit(GoCastEvent::DeltaApplied {
                    topic,
                    origin,
                    counter: delta.counter,
                });
            }
        }
    }

    fn on_gossip_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        let epoch = self.dir.epoch_at(ctx.now());
        let topics: Vec<u32> = self.subs.iter().copied().collect();
        for topic in topics {
            let ids: Vec<MsgId> = self.states[&topic].recent.iter().copied().collect();
            if ids.is_empty() {
                continue;
            }
            for _ in 0..GOSSIP_FANOUT {
                if let Some(to) = self.rand_subscriber(ctx.rng(), epoch, topic) {
                    ctx.send(
                        to,
                        GoCastMsg::TopicIHave {
                            topic,
                            ids: ids.clone(),
                        },
                    );
                }
            }
        }
        let period = self.cfg.gossip_every;
        ctx.set_timer(period, Timer::of_kind(timers::GOSSIP));
    }

    fn on_anti_entropy_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        let epoch = self.dir.epoch_at(ctx.now());
        let topics: Vec<u32> = self.subs.iter().copied().collect();
        for topic in topics {
            let digest = self.states[&topic].orset.digest();
            if let Some(to) = self.rand_subscriber(ctx.rng(), epoch, topic) {
                ctx.send(to, GoCastMsg::TopicDigest { topic, vv: digest });
            }
        }
        let period = self.cfg.anti_entropy_every;
        ctx.set_timer(period, Timer::of_kind(timers::ANTI_ENTROPY));
    }

    fn on_pull_retry(&mut self, ctx: &mut Ctx<'_, Self>, topic: u32) {
        if !self.subs.contains(&topic) {
            return;
        }
        let epoch = self.dir.epoch_at(ctx.now());
        let state = self
            .states
            .get_mut(&topic)
            .expect("subscribed topic has state");
        let mut retry: Vec<MsgId> = Vec::new();
        state.missing.retain(|&id, attempts| {
            if *attempts >= MAX_PULL_ATTEMPTS {
                return false; // give up; anti-entropy may still repair CRDTs
            }
            *attempts += 1;
            retry.push(id);
            true
        });
        if retry.is_empty() {
            return;
        }
        if let Some(to) = self.rand_subscriber(ctx.rng(), epoch, topic) {
            ctx.send(to, GoCastMsg::TopicPull { topic, ids: retry });
        }
        let delay = self.cfg.pull_retry_after;
        ctx.set_timer(delay, Timer::with_payload(timers::PULL_RETRY, topic, 0));
    }

    fn subscribe(&mut self, ctx: &mut Ctx<'_, Self>, topic: u32) {
        if self.subs.insert(topic) {
            self.states.entry(topic).or_default();
            ctx.emit(GoCastEvent::TopicSubscribed { topic });
        }
    }

    fn unsubscribe(&mut self, ctx: &mut Ctx<'_, Self>, topic: u32) {
        if self.subs.remove(&topic) {
            // State is kept: the replica's knowledge survives resubscription.
            ctx.emit(GoCastEvent::TopicUnsubscribed { topic });
        }
    }
}

impl<S> Protocol for TopicMux<S>
where
    S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    type Msg = GoCastMsg;
    type Command = AppCommand<S::Command>;
    type Event = GoCastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.drive_inner(ctx, |inner, ictx| inner.on_start(ictx));
        // Phase-shift the periodic timers per node so gossip and
        // anti-entropy don't fire in lockstep across the population.
        let g = self.cfg.gossip_every;
        let a = self.cfg.anti_entropy_every;
        let g0 = Duration::from_nanos(ctx.rng().gen_range(0..g.as_nanos() as u64));
        let a0 = Duration::from_nanos(ctx.rng().gen_range(0..a.as_nanos() as u64));
        ctx.set_timer(g + g0, Timer::of_kind(timers::GOSSIP));
        ctx.set_timer(a + a0, Timer::of_kind(timers::ANTI_ENTROPY));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: GoCastMsg) {
        match msg {
            GoCastMsg::TopicData {
                topic,
                id,
                hop,
                size,
                delta,
                ..
            } => self.on_topic_data(ctx, from, topic, id, hop, size, delta),
            GoCastMsg::TopicIHave { topic, ids } => self.on_topic_ihave(ctx, from, topic, ids),
            GoCastMsg::TopicPull { topic, ids } => self.on_topic_pull(ctx, from, topic, ids),
            GoCastMsg::TopicDigest { topic, vv } => self.on_topic_digest(ctx, from, topic, vv),
            GoCastMsg::TopicDeltas { topic, deltas } => self.on_topic_deltas(ctx, topic, deltas),
            other => self.drive_inner(ctx, |inner, ictx| inner.on_message(ictx, from, other)),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        match timer.kind {
            timers::GOSSIP => self.on_gossip_tick(ctx),
            timers::ANTI_ENTROPY => self.on_anti_entropy_tick(ctx),
            timers::PULL_RETRY => self.on_pull_retry(ctx, timer.a),
            _ => self.drive_inner(ctx, |inner, ictx| inner.on_timer(ictx, timer)),
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, cmd: Self::Command) {
        match cmd {
            AppCommand::Inner(c) => {
                self.drive_inner(ctx, |inner, ictx| inner.on_command(ictx, c));
            }
            AppCommand::Publish { topic } => {
                if let Some(t) = self.choose_topic(topic) {
                    self.publish(ctx, t, None);
                }
            }
            AppCommand::CrdtAdd { topic, elem } => {
                if let Some(t) = self.choose_topic(topic) {
                    let me = self.me;
                    let delta = self.state(t).orset.add(me, elem);
                    ctx.emit(GoCastEvent::DeltaPublished {
                        topic: t,
                        counter: delta.counter,
                    });
                    self.publish(ctx, t, Some(delta));
                }
            }
            AppCommand::CrdtRemove { topic, elem } => {
                if let Some(t) = self.choose_topic(topic) {
                    let me = self.me;
                    if let Some(delta) = self.state(t).orset.remove(me, elem) {
                        ctx.emit(GoCastEvent::DeltaPublished {
                            topic: t,
                            counter: delta.counter,
                        });
                        self.publish(ctx, t, Some(delta));
                    }
                }
            }
            AppCommand::Subscribe { topic } => self.subscribe(ctx, topic),
            AppCommand::Unsubscribe { topic } => self.unsubscribe(ctx, topic),
        }
    }

    #[inline(always)]
    fn prefetch(&self) {
        self.inner.prefetch();
    }
}

impl<S> Stack for TopicMux<S>
where
    S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    const NAME: &'static str = "gocast-app";

    fn capabilities() -> StackCaps {
        // The mux adds no overlay links and never pulls a payload it
        // holds, so the wrapped stack's promises carry through.
        S::capabilities()
    }

    fn joined(&self) -> bool {
        self.inner.joined()
    }

    fn attached(&self) -> bool {
        self.inner.attached()
    }

    fn overlay_degree(&self) -> usize {
        self.inner.overlay_degree()
    }

    fn member_count(&self) -> usize {
        self.inner.member_count()
    }

    fn delivered_count(&self) -> u64 {
        self.inner.delivered_count() + self.topic_deliveries
    }

    fn holds(&self, origin: NodeId, seq: u32) -> bool {
        if seq >= APP_SEQ_BASE {
            let id = MsgId::new(origin, seq);
            self.states.values().any(|s| s.seen.contains_key(&id))
        } else {
            self.inner.holds(origin, seq)
        }
    }

    fn cmd_multicast() -> Self::Command {
        AppCommand::Publish { topic: None }
    }

    fn cmd_join(contact: NodeId) -> Self::Command {
        AppCommand::Inner(S::cmd_join(contact))
    }

    fn cmd_leave() -> Self::Command {
        AppCommand::Inner(S::cmd_leave())
    }

    fn cmd_freeze() -> Option<Self::Command> {
        S::cmd_freeze().map(AppCommand::Inner)
    }
}

/// End-of-run CRDT convergence audit: collects per-topic replica state
/// hashes across subscribers and reports topics whose replicas disagree.
#[derive(Debug, Default)]
pub struct CrdtAudit {
    /// topic -> distinct replica state hashes observed.
    hashes: BTreeMap<u32, BTreeSet<u64>>,
    /// topic -> replicas observed.
    replicas: BTreeMap<u32, u64>,
}

impl CrdtAudit {
    /// An empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one node's current subscriptions in.
    pub fn observe<S>(&mut self, mux: &TopicMux<S>)
    where
        S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
    {
        for &t in mux.subscriptions() {
            if let Some(h) = mux.crdt_state_hash(t) {
                self.hashes.entry(t).or_default().insert(h);
                *self.replicas.entry(t).or_insert(0) += 1;
            }
        }
    }

    /// Topics whose subscriber replicas hold differing state.
    pub fn divergent_topics(&self) -> Vec<u32> {
        self.hashes
            .iter()
            .filter(|(_, hs)| hs.len() > 1)
            .map(|(&t, _)| t)
            .collect()
    }

    /// Whether every multi-replica topic has converged.
    pub fn converged(&self) -> bool {
        self.divergent_topics().is_empty()
    }

    /// Total replicas observed across all topics.
    pub fn replica_count(&self) -> u64 {
        self.replicas.values().sum()
    }

    /// Topics observed.
    pub fn topic_count(&self) -> usize {
        self.hashes.len()
    }
}
