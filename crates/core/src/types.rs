//! Shared protocol types: message identifiers, link kinds, degree
//! advertisements, and the metric events GoCast emits to the recorder.

use std::fmt;
use std::time::Duration;

use gocast_sim::{NodeId, ReplayEvent, TraceEvent, TraceLine};

/// `as_str` and `parse` for a field-less enum, and its trace field, from
/// one list of `Variant => "name"` pairs.
macro_rules! names {
    ($ty:ident { $($v:ident => $name:literal,)* }) => {
        impl $ty {
            /// Stable snake_case name, used by the JSONL trace schema.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $($ty::$v => $name,)*
                }
            }

            /// Parses the name produced by `as_str`.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $($name => Some($ty::$v),)*
                    _ => None,
                }
            }
        }

        impl TraceField for $ty {
            fn put(&self, prefix: &str, out: &mut String) {
                out.push_str(prefix);
                out.push('"');
                out.push_str(self.as_str());
                out.push('"');
            }

            fn take(line: &TraceLine<'_>, key: &str) -> Result<Self, String> {
                let s = line.str(key)?;
                $ty::parse(s).ok_or_else(|| format!("unknown {key} {s:?}"))
            }
        }
    };
}

/// Globally unique multicast message identifier.
///
/// The paper concatenates the origin's IP address with a locally assigned,
/// monotonically increasing sequence number; this is the same thing with a
/// [`NodeId`] in place of the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The node that injected the message.
    pub origin: NodeId,
    /// Origin-local sequence number.
    pub seq: u32,
}

impl MsgId {
    /// Creates a message id.
    pub const fn new(origin: NodeId, seq: u32) -> Self {
        MsgId { origin, seq }
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// Classification of an overlay link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// A link to a uniformly random node (connectivity insurance).
    Random,
    /// A link chosen for low latency (efficiency).
    Nearby,
}

names! {
    LinkKind {
        Random => "random",
        Nearby => "nearby",
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A node's current degrees *and targets*, piggybacked on most protocol
/// messages so neighbors can run the degree-balancing rules without extra
/// round trips.
///
/// Targets are advertised because nodes may scale their targets to their
/// capacity (the extension §2.2 mentions: "Tuning node degree according to
/// node capacity can be accommodated in our protocol"): conditions that
/// reason about *another* node's degree (C1, C2, operation 2) must compare
/// against that node's own targets, not ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegreeInfo {
    /// Number of random neighbors (`D_rand`).
    pub d_rand: u16,
    /// Number of nearby neighbors (`D_near`).
    pub d_near: u16,
    /// This node's target random degree (`C_rand`, possibly capacity
    /// scaled).
    pub t_rand: u16,
    /// This node's target nearby degree (`C_near`, possibly capacity
    /// scaled).
    pub t_near: u16,
}

impl DegreeInfo {
    /// Total degree.
    pub fn total(self) -> u16 {
        self.d_rand + self.d_near
    }

    /// Whether the node is at or above its own random-degree target.
    pub fn rand_saturated(self) -> bool {
        self.d_rand >= self.t_rand
    }

    /// Whether the node is at or above its own nearby-degree target.
    pub fn near_saturated(self) -> bool {
        self.d_near >= self.t_near
    }
}

/// How a multicast message reached a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryPath {
    /// Pushed along a tree link.
    Tree,
    /// Pulled after its ID was learned from a neighbor's gossip.
    Pull,
    /// The node injected the message itself.
    Local,
}

names! {
    DeliveryPath {
        Tree => "tree",
        Pull => "pull",
        Local => "local",
    }
}

/// Why an overlay link was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Replaced by a lower-latency candidate (nearby maintenance).
    Replaced,
    /// Excess degree (random or nearby drop rules).
    Surplus,
    /// Random-degree rebalancing (operation 1: handed to a neighbor pair).
    Rebalanced,
    /// The peer asked to drop.
    PeerRequest,
    /// The peer went silent past the neighbor timeout.
    PeerFailed,
}

impl DropReason {
    /// Every variant, in [`DropReason::index`] order.
    ///
    /// Exhaustiveness is enforced by `index` and the name list: adding a
    /// variant without extending this table is a compile error there.
    pub const ALL: [DropReason; 5] = [
        DropReason::Replaced,
        DropReason::Surplus,
        DropReason::Rebalanced,
        DropReason::PeerRequest,
        DropReason::PeerFailed,
    ];

    /// Dense index (`0..ALL.len()`), also the reason's wire tag.
    pub const fn index(self) -> usize {
        match self {
            DropReason::Replaced => 0,
            DropReason::Surplus => 1,
            DropReason::Rebalanced => 2,
            DropReason::PeerRequest => 3,
            DropReason::PeerFailed => 4,
        }
    }
}

names! {
    DropReason {
        Replaced => "replaced",
        Surplus => "surplus",
        Rebalanced => "rebalanced",
        PeerRequest => "peer_request",
        PeerFailed => "peer_failed",
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Metric events emitted to the simulation recorder.
///
/// These are the raw material for every figure: the analysis crate folds
/// them into delay CDFs, redundancy counts, and link-churn series.
#[derive(Debug, Clone, PartialEq)]
pub enum GoCastEvent {
    /// This node injected a new multicast message.
    Injected {
        /// The new message's id.
        id: MsgId,
    },
    /// First reception of a multicast message.
    Delivered {
        /// The message.
        id: MsgId,
        /// How it arrived.
        via: DeliveryPath,
        /// The neighbor the payload came from (the causal parent in the
        /// dissemination tree; the origin itself for a one-hop delivery).
        from: NodeId,
        /// Causal hop count from the origin (1 = direct from origin).
        hop: u32,
    },
    /// A full payload arrived for a message already received (the 2%
    /// overhead discussed in §2.1).
    RedundantData {
        /// The message.
        id: MsgId,
        /// The neighbor the duplicate came from.
        from: NodeId,
    },
    /// A full payload was pushed to a tree neighbor.
    PushSent {
        /// The message.
        id: MsgId,
        /// The tree neighbor it was pushed to.
        to: NodeId,
        /// Hop count stamped on the outgoing copy.
        hop: u32,
    },
    /// A message id was advertised to a neighbor in a gossip (IHAVE)
    /// message — one event per id entry.
    IHaveSent {
        /// The advertised message.
        id: MsgId,
        /// The gossip target.
        to: NodeId,
    },
    /// A pull request was answered with the full payload.
    PullServed {
        /// The message.
        id: MsgId,
        /// The requesting neighbor.
        to: NodeId,
        /// Hop count stamped on the outgoing copy.
        hop: u32,
    },
    /// An overlay link to `peer` was established.
    LinkAdded {
        /// The new neighbor.
        peer: NodeId,
        /// Random or nearby.
        kind: LinkKind,
    },
    /// An overlay link to `peer` was removed.
    LinkDropped {
        /// The former neighbor.
        peer: NodeId,
        /// Random or nearby.
        kind: LinkKind,
        /// Why it was removed.
        reason: DropReason,
    },
    /// The node adopted a new tree parent (`None` = it is the root or is
    /// detached).
    ParentChanged {
        /// The new parent.
        parent: Option<NodeId>,
    },
    /// The node began acting as tree root (startup or failover).
    BecameRoot {
        /// Root epoch (increases on failover).
        epoch: u32,
    },
    /// A pull request was sent for a message learned via gossip.
    PullRequested {
        /// The missing message.
        id: MsgId,
        /// The neighbor the pull was sent to.
        to: NodeId,
    },
    /// First reception of a topic-tagged payload by a subscriber
    /// (application tier). Emitted *in addition to*
    /// [`GoCastEvent::Delivered`], which keeps the universal oracle and
    /// delivery trackers valid for topic traffic; this event adds the
    /// topic and payload size for goodput accounting.
    TopicDelivered {
        /// The logical group.
        topic: u32,
        /// The message.
        id: MsgId,
        /// Delivered payload bytes.
        bytes: u32,
    },
    /// The node subscribed to a topic (startup or runtime churn).
    TopicSubscribed {
        /// The logical group joined.
        topic: u32,
    },
    /// The node unsubscribed from a topic.
    TopicUnsubscribed {
        /// The logical group left.
        topic: u32,
    },
    /// The node published a CRDT mutation on a topic (it is the
    /// mutation's origin).
    DeltaPublished {
        /// The topic whose replica mutated.
        topic: u32,
        /// Origin-local mutation counter.
        counter: u32,
    },
    /// The node applied a remote CRDT mutation to its replica.
    DeltaApplied {
        /// The topic whose replica mutated.
        topic: u32,
        /// The mutation's origin.
        origin: NodeId,
        /// Origin-local mutation counter.
        counter: u32,
    },
}

/// One JSONL field type: how a value is written after its key and read
/// back from a parsed line.
trait TraceField: Sized {
    /// Appends `,"key":` (passed in whole as `prefix`) and the value.
    fn put(&self, prefix: &str, out: &mut String);
    /// Reads the value under `key`.
    fn take(line: &TraceLine<'_>, key: &str) -> Result<Self, String>;
}

impl TraceField for u32 {
    fn put(&self, prefix: &str, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str(prefix);
        let _ = write!(out, "{self}");
    }

    fn take(line: &TraceLine<'_>, key: &str) -> Result<Self, String> {
        line.num(key)
    }
}

impl TraceField for NodeId {
    fn put(&self, prefix: &str, out: &mut String) {
        self.as_u32().put(prefix, out);
    }

    fn take(line: &TraceLine<'_>, key: &str) -> Result<Self, String> {
        line.node(key)
    }
}

/// A node id, or `null`.
impl TraceField for Option<NodeId> {
    fn put(&self, prefix: &str, out: &mut String) {
        match self {
            Some(n) => n.put(prefix, out),
            None => {
                out.push_str(prefix);
                out.push_str("null");
            }
        }
    }

    fn take(line: &TraceLine<'_>, key: &str) -> Result<Self, String> {
        if line.is_null(key)? {
            Ok(None)
        } else {
            line.node(key).map(Some)
        }
    }
}

/// A message id is split into `origin` and `seq`; the field's own key is
/// not written.
impl TraceField for MsgId {
    fn put(&self, _prefix: &str, out: &mut String) {
        self.origin.put(",\"origin\":", out);
        self.seq.put(",\"seq\":", out);
    }

    fn take(line: &TraceLine<'_>, _key: &str) -> Result<Self, String> {
        Ok(MsgId::new(line.node("origin")?, line.num("seq")?))
    }
}

/// The JSONL trace schema: every [`GoCastEvent`] variant once, as
/// `Variant "ev name" { fields in line order }`, each field written under
/// its own name. It generates the writer ([`TraceEvent`]) and the reader
/// ([`ReplayEvent`]), so the two cannot disagree.
macro_rules! trace_schema {
    ($($v:ident $name:literal { $($f:ident),* },)*) => {
        impl TraceEvent for GoCastEvent {
            fn trace_fields(&self, out: &mut String) {
                match self {
                    $(GoCastEvent::$v { $($f),* } => {
                        out.push_str(concat!("\"ev\":\"", $name, "\""));
                        $(TraceField::put($f, concat!(",\"", stringify!($f), "\":"), out);)*
                    })*
                }
            }
        }

        impl ReplayEvent for GoCastEvent {
            fn from_line(line: &TraceLine<'_>) -> Result<Self, String> {
                match line.str("ev")? {
                    $($name => Ok(GoCastEvent::$v {
                        $($f: TraceField::take(line, stringify!($f))?),*
                    }),)*
                    other => Err(format!("unknown event kind {other:?}")),
                }
            }
        }
    };
}

trace_schema! {
    Injected "injected" { id },
    Delivered "delivered" { id, from, hop, via },
    RedundantData "redundant_data" { id, from },
    PushSent "push_sent" { id, to, hop },
    IHaveSent "ihave_sent" { id, to },
    PullRequested "pull_requested" { id, to },
    PullServed "pull_served" { id, to, hop },
    LinkAdded "link_added" { peer, kind },
    LinkDropped "link_dropped" { peer, kind, reason },
    ParentChanged "parent_changed" { parent },
    BecameRoot "became_root" { epoch },
    TopicDelivered "topic_delivered" { id, topic, bytes },
    TopicSubscribed "topic_subscribed" { topic },
    TopicUnsubscribed "topic_unsubscribed" { topic },
    DeltaPublished "delta_published" { topic, counter },
    DeltaApplied "delta_applied" { topic, origin, counter },
}

/// Computes the age of a message at reception: the age stamped on the wire
/// plus the (estimated) one-way latency of the hop it just crossed.
///
/// The paper's protocol estimates elapsed time "by piggybacking and adding
/// up the propagation delays and waiting times as the message travels away
/// from the source"; half the measured link RTT is that estimate.
pub fn age_on_arrival(wire_age: Duration, link_rtt: Option<Duration>) -> Duration {
    wire_age + link_rtt.unwrap_or(Duration::from_millis(100)) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_orders_by_origin_then_seq() {
        let a = MsgId::new(NodeId::new(1), 5);
        let b = MsgId::new(NodeId::new(2), 0);
        let c = MsgId::new(NodeId::new(1), 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn msg_id_displays_origin_and_seq() {
        assert_eq!(MsgId::new(NodeId::new(3), 9).to_string(), "n3#9");
    }

    #[test]
    fn degree_info_totals() {
        let d = DegreeInfo {
            d_rand: 1,
            d_near: 5,
            t_rand: 1,
            t_near: 5,
        };
        assert_eq!(d.total(), 6);
        assert!(d.rand_saturated());
        assert!(d.near_saturated());
        assert!(!DegreeInfo {
            d_rand: 0,
            d_near: 4,
            t_rand: 1,
            t_near: 5
        }
        .near_saturated());
        assert_eq!(DegreeInfo::default().total(), 0);
    }

    #[test]
    fn age_on_arrival_uses_half_rtt() {
        let age = age_on_arrival(Duration::from_millis(10), Some(Duration::from_millis(40)));
        assert_eq!(age, Duration::from_millis(30));
    }

    #[test]
    fn age_on_arrival_has_fallback() {
        let age = age_on_arrival(Duration::from_millis(10), None);
        assert_eq!(age, Duration::from_millis(60));
    }

    #[test]
    fn link_kind_displays() {
        assert_eq!(LinkKind::Random.to_string(), "random");
        assert_eq!(LinkKind::Nearby.to_string(), "nearby");
    }

    #[test]
    fn drop_reason_names_round_trip() {
        for (i, r) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i, "ALL must be in index order");
            assert_eq!(DropReason::parse(r.as_str()), Some(r));
            assert!(
                r.as_str()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_'),
                "{} is not snake_case",
                r.as_str()
            );
        }
        assert_eq!(DropReason::parse("no_such_reason"), None);
    }

    #[test]
    fn delivery_path_names_round_trip() {
        for p in [DeliveryPath::Tree, DeliveryPath::Pull, DeliveryPath::Local] {
            assert_eq!(DeliveryPath::parse(p.as_str()), Some(p));
        }
        assert_eq!(DeliveryPath::parse("teleport"), None);
    }

    #[test]
    fn trace_fields_use_stable_snake_case_schema() {
        use gocast_sim::TraceEvent as _;
        let cases: Vec<(GoCastEvent, &str)> = vec![
            (
                GoCastEvent::Injected {
                    id: MsgId::new(NodeId::new(3), 9),
                },
                "\"ev\":\"injected\",\"origin\":3,\"seq\":9",
            ),
            (
                GoCastEvent::Delivered {
                    id: MsgId::new(NodeId::new(3), 9),
                    via: DeliveryPath::Tree,
                    from: NodeId::new(5),
                    hop: 2,
                },
                "\"ev\":\"delivered\",\"origin\":3,\"seq\":9,\"from\":5,\"hop\":2,\"via\":\"tree\"",
            ),
            (
                GoCastEvent::PushSent {
                    id: MsgId::new(NodeId::new(0), 1),
                    to: NodeId::new(4),
                    hop: 1,
                },
                "\"ev\":\"push_sent\",\"origin\":0,\"seq\":1,\"to\":4,\"hop\":1",
            ),
            (
                GoCastEvent::PullRequested {
                    id: MsgId::new(NodeId::new(0), 1),
                    to: NodeId::new(8),
                },
                "\"ev\":\"pull_requested\",\"origin\":0,\"seq\":1,\"to\":8",
            ),
            (
                GoCastEvent::LinkDropped {
                    peer: NodeId::new(2),
                    kind: LinkKind::Nearby,
                    reason: DropReason::PeerFailed,
                },
                "\"ev\":\"link_dropped\",\"peer\":2,\"kind\":\"nearby\",\"reason\":\"peer_failed\"",
            ),
            (
                GoCastEvent::ParentChanged { parent: None },
                "\"ev\":\"parent_changed\",\"parent\":null",
            ),
            (
                GoCastEvent::TopicDelivered {
                    topic: 4,
                    id: MsgId::new(NodeId::new(7), 16_777_216),
                    bytes: 512,
                },
                "\"ev\":\"topic_delivered\",\"origin\":7,\"seq\":16777216,\"topic\":4,\"bytes\":512",
            ),
            (
                GoCastEvent::TopicSubscribed { topic: 9 },
                "\"ev\":\"topic_subscribed\",\"topic\":9",
            ),
            (
                GoCastEvent::DeltaPublished {
                    topic: 2,
                    counter: 5,
                },
                "\"ev\":\"delta_published\",\"topic\":2,\"counter\":5",
            ),
            (
                GoCastEvent::DeltaApplied {
                    topic: 2,
                    origin: NodeId::new(6),
                    counter: 5,
                },
                "\"ev\":\"delta_applied\",\"topic\":2,\"origin\":6,\"counter\":5",
            ),
        ];
        for (ev, expect) in cases {
            let mut out = String::new();
            ev.trace_fields(&mut out);
            assert_eq!(out, expect, "schema drift for {ev:?}");
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The sample that follows `ev` in the round-trip list. The match has
    /// no wildcard arm, so a new `GoCastEvent` variant does not compile
    /// until it has a sample here — and the round trip then fails until
    /// the variant has a row in `trace_schema!`.
    fn next_sample(ev: &GoCastEvent) -> Option<GoCastEvent> {
        let id = MsgId::new(n(0), 7);
        Some(match ev {
            GoCastEvent::Injected { .. } => GoCastEvent::Delivered {
                id,
                via: DeliveryPath::Tree,
                from: n(0),
                hop: 1,
            },
            GoCastEvent::Delivered { .. } => GoCastEvent::RedundantData { id, from: n(8) },
            GoCastEvent::RedundantData { .. } => GoCastEvent::PushSent {
                id,
                to: n(9),
                hop: 2,
            },
            GoCastEvent::PushSent { .. } => GoCastEvent::IHaveSent { id, to: n(4) },
            GoCastEvent::IHaveSent { .. } => GoCastEvent::PullServed {
                id,
                to: n(4),
                hop: 2,
            },
            GoCastEvent::PullServed { .. } => GoCastEvent::LinkAdded {
                peer: n(6),
                kind: LinkKind::Random,
            },
            GoCastEvent::LinkAdded { .. } => GoCastEvent::LinkDropped {
                peer: n(6),
                kind: LinkKind::Nearby,
                reason: DropReason::Rebalanced,
            },
            GoCastEvent::LinkDropped { .. } => GoCastEvent::ParentChanged { parent: Some(n(1)) },
            GoCastEvent::ParentChanged { parent: Some(_) } => {
                GoCastEvent::ParentChanged { parent: None }
            }
            GoCastEvent::ParentChanged { parent: None } => GoCastEvent::BecameRoot { epoch: 3 },
            GoCastEvent::BecameRoot { .. } => GoCastEvent::PullRequested { id, to: n(3) },
            GoCastEvent::PullRequested { .. } => GoCastEvent::TopicDelivered {
                topic: 5,
                id,
                bytes: 1024,
            },
            GoCastEvent::TopicDelivered { .. } => GoCastEvent::TopicSubscribed { topic: 5 },
            GoCastEvent::TopicSubscribed { .. } => GoCastEvent::TopicUnsubscribed { topic: 5 },
            GoCastEvent::TopicUnsubscribed { .. } => GoCastEvent::DeltaPublished {
                topic: 5,
                counter: 2,
            },
            GoCastEvent::DeltaPublished { .. } => GoCastEvent::DeltaApplied {
                topic: 5,
                origin: n(2),
                counter: 2,
            },
            GoCastEvent::DeltaApplied { .. } => return None,
        })
    }

    #[test]
    fn every_variant_replays_as_written() {
        use gocast_sim::{Recorder, SimTime, TraceRecorder, VecRecorder};
        let first = GoCastEvent::Injected {
            id: MsgId::new(n(0), 7),
        };
        let events: Vec<GoCastEvent> = std::iter::successors(Some(first), next_sample).collect();
        assert_eq!(events.len(), 17, "16 variants, ParentChanged both ways");
        let mut w = TraceRecorder::new(Vec::new());
        let written: Vec<_> = events
            .into_iter()
            .enumerate()
            .map(|(i, ev)| {
                let (at, node) = (SimTime::from_millis(i as u64 + 1), n(i as u32 % 5));
                w.record(at, node, ev.clone());
                (at, node, ev)
            })
            .collect();
        let text = w.finish().unwrap();
        let mut read = VecRecorder::new();
        let end = SimTime::from_millis(17);
        let lines = gocast_sim::replay(&text[..], 10, end, &mut read).unwrap();
        assert_eq!(lines, 17);
        assert_eq!(read.events, written);
    }

    #[test]
    fn replay_rejects_unknown_names_and_outside_ids() {
        use gocast_sim::{replay, SimTime, TraceError, VecRecorder};
        let delivered = |tail: &str| {
            format!("{{\"t_us\":1,\"node\":1,\"ev\":\"delivered\",\"origin\":0,\"seq\":0,{tail}}}")
        };
        for (line, why) in [
            (
                delivered("\"from\":0,\"hop\":1,\"via\":\"teleport\""),
                "unknown via",
            ),
            (
                delivered("\"from\":9,\"hop\":1,\"via\":\"tree\""),
                "\"from\" names node 9",
            ),
            (
                delivered("\"hop\":1,\"via\":\"tree\""),
                "missing field \"from\"",
            ),
            (
                "{\"t_us\":1,\"node\":1,\"ev\":\"parent_changed\",\"parent\":9}".into(),
                "\"parent\" names node 9",
            ),
            (
                "{\"t_us\":1,\"node\":1,\"ev\":\"link_added\",\"peer\":0,\"kind\":\"far\"}".into(),
                "unknown kind",
            ),
        ] {
            let mut out = VecRecorder::<GoCastEvent>::new();
            match replay(line.as_bytes(), 9, SimTime::from_secs(1), &mut out) {
                Err(TraceError::Parse { line: 1, msg }) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }
}
