//! Push-based gossip multicast (the paper's "gossip" and "no-wait gossip"
//! baselines, modelled on Bimodal Multicast [2]).
//!
//! Every gossip period `t`, a node sends a summary of recently received
//! message IDs to **one uniformly random node**; each message ID is
//! gossiped to `F` (the fanout) distinct random nodes, one per period. A
//! receiver that is missing a summarized message requests it from the
//! sender. In *no-wait* mode a node gossips a message's ID to `F` random
//! nodes immediately upon receiving it (gossip period effectively zero) —
//! the paper uses it to probe the speed limits of gossip multicast.
//!
//! Unlike GoCast, the baseline assumes full membership knowledge (as
//! Bimodal Multicast does) and is completely oblivious to network
//! topology.

use std::collections::HashMap;
use std::time::Duration;

use gocast::{DeliveryPath, GoCastCommand, GoCastEvent, MsgId};
use gocast_sim::{Ctx, NodeId, Protocol, SimTime, Stack, StackCaps, Timer, TrafficClass, Wire};
use rand::Rng;

/// Timer kinds.
mod timers {
    pub const GOSSIP: u32 = 1;
    pub const GC: u32 = 2;
    pub const PULL_TIMEOUT: u32 = 3;
}

/// Gossip period `t` (ignored in no-wait mode).
const GOSSIP_PERIOD: Duration = Duration::from_millis(100);

/// Retry interval for unanswered pulls.
const PULL_TIMEOUT: Duration = Duration::from_secs(2);

/// Message retention.
const GC_WAIT: Duration = Duration::from_secs(120);

/// Configuration for the push-gossip baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PushGossipConfig {
    /// Gossip fanout `F`: how many random nodes hear each message ID.
    pub fanout: usize,
    /// No-wait mode: gossip immediately on reception instead of batching
    /// per period.
    pub no_wait: bool,
    /// Multicast payload size (bytes, accounting only).
    pub payload_size: u32,
}

impl Default for PushGossipConfig {
    fn default() -> Self {
        PushGossipConfig {
            fanout: 5,
            no_wait: false,
            payload_size: 1024,
        }
    }
}

impl PushGossipConfig {
    /// The paper's "no-wait gossip" variant.
    pub fn no_wait() -> Self {
        PushGossipConfig {
            no_wait: true,
            ..Default::default()
        }
    }
}

/// Wire messages of the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum PushGossipMsg {
    /// Message-ID summary.
    Gossip {
        /// `(id, age in µs)` entries.
        ids: Vec<(MsgId, u64)>,
    },
    /// Request for missing messages.
    Pull {
        /// The missing IDs.
        ids: Vec<MsgId>,
    },
    /// A full payload.
    Data {
        /// Message identity.
        id: MsgId,
        /// Age at send (µs).
        age_us: u64,
        /// Payload bytes.
        size: u32,
    },
}

impl Wire for PushGossipMsg {
    fn wire_size(&self) -> u32 {
        28 + match self {
            PushGossipMsg::Gossip { ids } => 16 * ids.len() as u32,
            PushGossipMsg::Pull { ids } => 8 * ids.len() as u32,
            PushGossipMsg::Data { size, .. } => 16 + size,
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            PushGossipMsg::Gossip { .. } => TrafficClass::Gossip,
            PushGossipMsg::Pull { .. } => TrafficClass::Request,
            PushGossipMsg::Data { .. } => TrafficClass::Data,
        }
    }
}

#[derive(Debug, Clone)]
struct Stored {
    received_at: SimTime,
    age_at_receive_us: u64,
    /// How many more random nodes this ID must be gossiped to.
    gossips_remaining: usize,
    size: u32,
}

impl Stored {
    fn age_at(&self, now: SimTime) -> u64 {
        self.age_at_receive_us + now.saturating_since(self.received_at).as_micros() as u64
    }
}

#[derive(Debug, Clone)]
struct PendingPull {
    candidates: Vec<NodeId>,
    requested_from: Option<NodeId>,
}

/// A node running the push-gossip baseline.
#[derive(Debug)]
pub struct PushGossipNode {
    cfg: PushGossipConfig,
    id: NodeId,
    next_seq: u32,
    store: HashMap<MsgId, Stored>,
    /// IDs with gossip budget left, in reception order.
    active: Vec<MsgId>,
    pending: HashMap<MsgId, PendingPull>,
    /// How many gossip summaries mentioned each ID (the paper's "number of
    /// times that nodes receive the gossip containing the ID").
    hear_counts: HashMap<MsgId, u32>,
    delivered: u64,
    redundant: u64,
}

impl PushGossipNode {
    /// Creates a baseline node.
    pub fn new(id: NodeId, cfg: PushGossipConfig) -> Self {
        assert!(cfg.fanout > 0, "fanout must be positive");
        PushGossipNode {
            cfg,
            id,
            next_seq: 0,
            store: HashMap::new(),
            active: Vec::new(),
            pending: HashMap::new(),
            hear_counts: HashMap::new(),
            delivered: 0,
            redundant: 0,
        }
    }

    /// How many gossip summaries mentioned `id` at this node.
    pub fn times_heard(&self, id: MsgId) -> u32 {
        self.hear_counts.get(&id).copied().unwrap_or(0)
    }

    /// The largest hear count over all message IDs at this node.
    pub fn max_times_heard(&self) -> u32 {
        self.hear_counts.values().copied().max().unwrap_or(0)
    }

    /// Messages delivered to this node.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Redundant payload receptions.
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// Whether this node holds `id`.
    pub fn has_message(&self, id: MsgId) -> bool {
        self.store.contains_key(&id)
    }

    fn random_peer(&self, ctx: &mut Ctx<'_, Self>) -> Option<NodeId> {
        let n = ctx.node_count() as u32;
        if n < 2 {
            return None;
        }
        let mut peer = ctx.rng().gen_range(0..n - 1);
        if peer >= self.id.as_u32() {
            peer += 1;
        }
        Some(NodeId::new(peer))
    }

    fn admit(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId, age_us: u64, size: u32) {
        self.store.insert(
            id,
            Stored {
                received_at: ctx.now(),
                age_at_receive_us: age_us,
                gossips_remaining: self.cfg.fanout,
                size,
            },
        );
        if self.cfg.no_wait {
            // Gossip immediately to `fanout` random nodes.
            let age = age_us;
            for _ in 0..self.cfg.fanout {
                if let Some(peer) = self.random_peer(ctx) {
                    ctx.send(
                        peer,
                        PushGossipMsg::Gossip {
                            ids: vec![(id, age)],
                        },
                    );
                }
            }
            if let Some(s) = self.store.get_mut(&id) {
                s.gossips_remaining = 0;
            }
        } else {
            self.active.push(id);
        }
    }

    fn send_pull(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        if p.requested_from.is_some() {
            return;
        }
        let Some(&target) = p.candidates.first() else {
            return;
        };
        p.requested_from = Some(target);
        ctx.emit(GoCastEvent::PullRequested { id, to: target });
        ctx.send(target, PushGossipMsg::Pull { ids: vec![id] });
        ctx.set_timer(
            PULL_TIMEOUT,
            Timer::with_payload(timers::PULL_TIMEOUT, id.origin.as_u32(), id.seq as u64),
        );
    }
}

impl Stack for PushGossipNode {
    const NAME: &'static str = "push-gossip";

    /// The baseline only promises the universal invariants: it keeps no
    /// overlay (no degree bounds), and it may re-request an ID whose pull
    /// timed out.
    fn capabilities() -> StackCaps {
        StackCaps::universal()
    }

    fn joined(&self) -> bool {
        true
    }

    /// Full membership is assumed, so a live baseline node is always
    /// "attached" to its dissemination structure.
    fn attached(&self) -> bool {
        true
    }

    fn overlay_degree(&self) -> usize {
        0
    }

    fn member_count(&self) -> usize {
        0
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

    /// No overlay or tree maintenance exists to freeze.
    fn cmd_freeze() -> Option<GoCastCommand> {
        None
    }
}

impl Protocol for PushGossipNode {
    type Msg = PushGossipMsg;
    type Command = GoCastCommand;
    type Event = GoCastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        if !self.cfg.no_wait {
            let us = ctx.rng().gen_range(0..GOSSIP_PERIOD.as_micros() as u64);
            ctx.set_timer(Duration::from_micros(us), Timer::of_kind(timers::GOSSIP));
        }
        ctx.set_timer(Duration::from_secs(5), Timer::of_kind(timers::GC));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: PushGossipMsg) {
        match msg {
            PushGossipMsg::Gossip { ids } => {
                let mut to_request = Vec::new();
                for (id, _age) in ids {
                    *self.hear_counts.entry(id).or_insert(0) += 1;
                    if self.store.contains_key(&id) {
                        continue;
                    }
                    match self.pending.get_mut(&id) {
                        Some(p) => {
                            if !p.candidates.contains(&from) {
                                p.candidates.push(from);
                            }
                        }
                        None => {
                            self.pending.insert(
                                id,
                                PendingPull {
                                    candidates: vec![from],
                                    requested_from: None,
                                },
                            );
                            to_request.push(id);
                        }
                    }
                }
                for id in to_request {
                    self.send_pull(ctx, id);
                }
            }
            PushGossipMsg::Pull { ids } => {
                let now = ctx.now();
                for id in ids {
                    if let Some(s) = self.store.get(&id) {
                        let age_us = s.age_at(now);
                        let size = s.size;
                        ctx.send(from, PushGossipMsg::Data { id, age_us, size });
                    }
                }
            }
            PushGossipMsg::Data { id, age_us, size } => {
                if self.store.contains_key(&id) {
                    self.redundant += 1;
                    ctx.emit(GoCastEvent::RedundantData { id, from });
                    return;
                }
                self.pending.remove(&id);
                self.admit(ctx, id, age_us, size);
                self.delivered += 1;
                // The baseline does not carry causal hop counts on its own
                // wire format; 0 marks the hop as unknown in traces.
                ctx.emit(GoCastEvent::Delivered {
                    id,
                    via: DeliveryPath::Pull,
                    from,
                    hop: 0,
                });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        match timer.kind {
            timers::GOSSIP => {
                ctx.set_timer(GOSSIP_PERIOD, Timer::of_kind(timers::GOSSIP));
                // Summarize every message with gossip budget left; each
                // inclusion spends one unit of its budget.
                let now = ctx.now();
                let mut ids = Vec::new();
                self.active.retain(|id| match self.store.get_mut(id) {
                    Some(s) if s.gossips_remaining > 0 => {
                        s.gossips_remaining -= 1;
                        ids.push((*id, s.age_at(now)));
                        s.gossips_remaining > 0
                    }
                    _ => false,
                });
                if ids.is_empty() {
                    return; // nothing to gossip this period
                }
                if let Some(peer) = self.random_peer(ctx) {
                    ctx.send(peer, PushGossipMsg::Gossip { ids });
                }
            }
            timers::PULL_TIMEOUT => {
                let id = MsgId::new(NodeId::new(timer.a), timer.b as u32);
                if self.store.contains_key(&id) {
                    return;
                }
                if let Some(p) = self.pending.get_mut(&id) {
                    if let Some(failed) = p.requested_from.take() {
                        p.candidates.retain(|&c| c != failed);
                        p.candidates.push(failed);
                    }
                    self.send_pull(ctx, id);
                }
            }
            timers::GC => {
                ctx.set_timer(Duration::from_secs(5), Timer::of_kind(timers::GC));
                let now = ctx.now();
                self.store
                    .retain(|_, s| now.saturating_since(s.received_at) <= GC_WAIT);
            }
            _ => debug_assert!(false, "unknown timer {}", timer.kind),
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, cmd: GoCastCommand) {
        if let GoCastCommand::Multicast = cmd {
            let id = MsgId::new(self.id, self.next_seq);
            self.next_seq += 1;
            let size = self.cfg.payload_size;
            self.admit(ctx, id, 0, size);
            ctx.emit(GoCastEvent::Injected { id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::{FixedLatency, SimBuilder, VecRecorder};

    fn run(n: usize, cfg: PushGossipConfig, seed: u64, secs: u64) -> (usize, usize) {
        let net = FixedLatency::new(n, Duration::from_millis(40));
        let mut sim = SimBuilder::new(net)
            .seed(seed)
            .build_with(VecRecorder::<GoCastEvent>::new(), |id| {
                PushGossipNode::new(id, cfg.clone())
            });
        sim.run_until(SimTime::from_secs(1));
        sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(1 + secs));
        let delivered = sim
            .recorder()
            .events
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
            .count();
        let redundant = sim
            .recorder()
            .events
            .iter()
            .filter(|(_, _, e)| matches!(e, GoCastEvent::RedundantData { .. }))
            .count();
        (delivered, redundant)
    }

    #[test]
    fn high_fanout_reaches_nearly_everyone() {
        let (delivered, _) = run(
            128,
            PushGossipConfig {
                fanout: 10,
                ..Default::default()
            },
            3,
            30,
        );
        assert!(
            delivered >= 126,
            "fanout 10 should reach ~all of 127, got {delivered}"
        );
    }

    #[test]
    fn fanout_five_misses_some_nodes_sometimes() {
        // e^-5 ≈ 0.7% misses per node per message; over several seeds on
        // 256 nodes we expect at least one miss somewhere.
        let mut total_missing = 0;
        for seed in 0..6 {
            let (delivered, _) = run(256, PushGossipConfig::default(), seed, 60);
            total_missing += 255 - delivered;
        }
        assert!(
            total_missing > 0,
            "fanout 5 across 6 runs should miss at least one node"
        );
    }

    #[test]
    fn no_wait_is_faster_than_periodic() {
        let time_to_full = |cfg: PushGossipConfig| {
            let n = 128;
            let net = FixedLatency::new(n, Duration::from_millis(40));
            let mut sim = SimBuilder::new(net)
                .seed(9)
                .build_with(VecRecorder::<GoCastEvent>::new(), |id| {
                    PushGossipNode::new(id, cfg.clone())
                });
            sim.run_until(SimTime::from_secs(1));
            sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
            sim.run_until(SimTime::from_secs(40));
            sim.recorder()
                .events
                .iter()
                .filter(|(_, _, e)| matches!(e, GoCastEvent::Delivered { .. }))
                .map(|(t, _, _)| *t)
                .max()
                .unwrap()
        };
        let periodic = time_to_full(PushGossipConfig {
            fanout: 8,
            ..Default::default()
        });
        let no_wait = time_to_full(PushGossipConfig {
            fanout: 8,
            ..PushGossipConfig::no_wait()
        });
        assert!(
            no_wait < periodic,
            "no-wait {no_wait} should beat periodic {periodic}"
        );
    }

    #[test]
    fn each_id_gossiped_at_most_fanout_times() {
        let n = 64;
        let net = FixedLatency::new(n, Duration::from_millis(10));
        let mut sim = SimBuilder::new(net)
            .seed(4)
            .build_with(VecRecorder::<GoCastEvent>::new(), |id| {
                PushGossipNode::new(id, PushGossipConfig::default())
            });
        sim.run_until(SimTime::from_secs(1));
        sim.command_now(NodeId::new(0), GoCastCommand::Multicast);
        sim.run_until(SimTime::from_secs(30));
        // Gossip messages sent = sum over nodes of per-message inclusions;
        // each node gossips the id at most `fanout` times, so with 64
        // receivers the total is bounded by 64 * 5.
        let gossips = sim.stats().class(TrafficClass::Gossip).messages;
        assert!(gossips <= 64 * 5, "gossip count {gossips} exceeds budget");
    }

    #[test]
    fn redundant_payloads_are_rare() {
        let (delivered, redundant) = run(128, PushGossipConfig::default(), 5, 30);
        // Pulls are deduplicated by the pending table, so redundancy only
        // arises from retry races.
        assert!(redundant <= delivered / 10, "redundant {redundant}");
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn zero_fanout_rejected() {
        let cfg = PushGossipConfig {
            fanout: 0,
            ..Default::default()
        };
        let _ = PushGossipNode::new(NodeId::new(0), cfg);
    }
}
