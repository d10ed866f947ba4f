//! Shared protocol types: message identifiers, link kinds, degree
//! advertisements, and the metric events GoCast emits to the recorder.

use std::fmt;
use std::time::Duration;

use gocast_sim::NodeId;
use serde::{Deserialize, Serialize};

/// Globally unique multicast message identifier.
///
/// The paper concatenates the origin's IP address with a locally assigned,
/// monotonically increasing sequence number; this is the same thing with a
/// [`NodeId`] in place of the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// A link to a uniformly random node (connectivity insurance).
    Random,
    /// A link chosen for low latency (efficiency).
    Nearby,
}

impl LinkKind {
    /// Stable snake_case name, used by the JSONL trace schema.
    pub const fn as_str(self) -> &'static str {
        match self {
            LinkKind::Random => "random",
            LinkKind::Nearby => "nearby",
        }
    }

    /// Parses the name produced by [`LinkKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(LinkKind::Random),
            "nearby" => Some(LinkKind::Nearby),
            _ => None,
        }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryPath {
    /// Pushed along a tree link.
    Tree,
    /// Pulled after its ID was learned from a neighbor's gossip.
    Pull,
    /// The node injected the message itself.
    Local,
}

impl DeliveryPath {
    /// Stable snake_case name, used by the JSONL trace schema.
    pub const fn as_str(self) -> &'static str {
        match self {
            DeliveryPath::Tree => "tree",
            DeliveryPath::Pull => "pull",
            DeliveryPath::Local => "local",
        }
    }

    /// Parses the name produced by [`DeliveryPath::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tree" => Some(DeliveryPath::Tree),
            "pull" => Some(DeliveryPath::Pull),
            "local" => Some(DeliveryPath::Local),
            _ => None,
        }
    }
}

/// Why an overlay link was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Exhaustiveness is enforced by `index`/`as_str`: adding a variant
    /// without extending this table is a compile error there.
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

    /// Stable snake_case name, used by the JSONL trace schema.
    pub const fn as_str(self) -> &'static str {
        match self {
            DropReason::Replaced => "replaced",
            DropReason::Surplus => "surplus",
            DropReason::Rebalanced => "rebalanced",
            DropReason::PeerRequest => "peer_request",
            DropReason::PeerFailed => "peer_failed",
        }
    }

    /// Parses the name produced by [`DropReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        DropReason::ALL.into_iter().find(|r| r.as_str() == s)
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

impl gocast_sim::TraceEvent for GoCastEvent {
    /// The JSONL trace schema: one flat object per event with stable
    /// snake_case keys. `ev` names the kind; message ids are split into
    /// `origin`/`seq`; enum values use the `as_str` names.
    fn trace_fields(&self, out: &mut String) {
        use std::fmt::Write as _;

        fn msg(out: &mut String, ev: &str, id: MsgId) {
            let _ = write!(
                out,
                "\"ev\":\"{ev}\",\"origin\":{},\"seq\":{}",
                id.origin.as_u32(),
                id.seq
            );
        }

        match self {
            GoCastEvent::Injected { id } => msg(out, "injected", *id),
            GoCastEvent::Delivered { id, via, from, hop } => {
                msg(out, "delivered", *id);
                let _ = write!(
                    out,
                    ",\"from\":{},\"hop\":{},\"via\":\"{}\"",
                    from.as_u32(),
                    hop,
                    via.as_str()
                );
            }
            GoCastEvent::RedundantData { id, from } => {
                msg(out, "redundant_data", *id);
                let _ = write!(out, ",\"from\":{}", from.as_u32());
            }
            GoCastEvent::PushSent { id, to, hop } => {
                msg(out, "push_sent", *id);
                let _ = write!(out, ",\"to\":{},\"hop\":{}", to.as_u32(), hop);
            }
            GoCastEvent::IHaveSent { id, to } => {
                msg(out, "ihave_sent", *id);
                let _ = write!(out, ",\"to\":{}", to.as_u32());
            }
            GoCastEvent::PullRequested { id, to } => {
                msg(out, "pull_requested", *id);
                let _ = write!(out, ",\"to\":{}", to.as_u32());
            }
            GoCastEvent::PullServed { id, to, hop } => {
                msg(out, "pull_served", *id);
                let _ = write!(out, ",\"to\":{},\"hop\":{}", to.as_u32(), hop);
            }
            GoCastEvent::LinkAdded { peer, kind } => {
                let _ = write!(
                    out,
                    "\"ev\":\"link_added\",\"peer\":{},\"kind\":\"{}\"",
                    peer.as_u32(),
                    kind.as_str()
                );
            }
            GoCastEvent::LinkDropped { peer, kind, reason } => {
                let _ = write!(
                    out,
                    "\"ev\":\"link_dropped\",\"peer\":{},\"kind\":\"{}\",\"reason\":\"{}\"",
                    peer.as_u32(),
                    kind.as_str(),
                    reason.as_str()
                );
            }
            GoCastEvent::ParentChanged { parent } => match parent {
                Some(p) => {
                    let _ = write!(out, "\"ev\":\"parent_changed\",\"parent\":{}", p.as_u32());
                }
                None => out.push_str("\"ev\":\"parent_changed\",\"parent\":null"),
            },
            GoCastEvent::BecameRoot { epoch } => {
                let _ = write!(out, "\"ev\":\"became_root\",\"epoch\":{epoch}");
            }
            GoCastEvent::TopicDelivered { topic, id, bytes } => {
                msg(out, "topic_delivered", *id);
                let _ = write!(out, ",\"topic\":{topic},\"bytes\":{bytes}");
            }
            GoCastEvent::TopicSubscribed { topic } => {
                let _ = write!(out, "\"ev\":\"topic_subscribed\",\"topic\":{topic}");
            }
            GoCastEvent::TopicUnsubscribed { topic } => {
                let _ = write!(out, "\"ev\":\"topic_unsubscribed\",\"topic\":{topic}");
            }
            GoCastEvent::DeltaPublished { topic, counter } => {
                let _ = write!(
                    out,
                    "\"ev\":\"delta_published\",\"topic\":{topic},\"counter\":{counter}"
                );
            }
            GoCastEvent::DeltaApplied {
                topic,
                origin,
                counter,
            } => {
                let _ = write!(
                    out,
                    "\"ev\":\"delta_applied\",\"topic\":{topic},\"origin\":{},\"counter\":{counter}",
                    origin.as_u32()
                );
            }
        }
    }
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
}
