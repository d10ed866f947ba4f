//! Wire messages exchanged between GoCast nodes.
//!
//! The simulator never serializes these; [`Wire::wire_size`] returns the
//! size the message would have on the wire so traffic accounting matches a
//! real deployment (IDs are 8 bytes, addresses 4, a small header per
//! packet).

use gocast_net::LandmarkVector;
use gocast_sim::{NodeId, TrafficClass, Wire};

use crate::types::{DegreeInfo, DropReason, LinkKind, MsgId};

/// Per-packet overhead charged to every message (transport + protocol
/// header).
pub const HEADER_BYTES: u32 = 28;

/// What a [`GoCastMsg::Ping`] is measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Measuring the RTT to landmark `index` (latency estimation), below
    /// [`gocast_net::MAX_LANDMARKS`].
    Landmark(u8),
    /// Measuring a nearby-neighbor candidate from the member list.
    Candidate,
    /// Measuring an established overlay link (tree weights need it).
    LinkMeasure,
}

/// A gossip entry: a message ID plus its age (microseconds since the
/// origin injected it), used by the delayed-pull optimization.
pub type GossipEntry = (MsgId, u64);

/// A piggybacked membership entry: a node address plus its landmark
/// coordinates when known.
pub type MemberEntry = (NodeId, LandmarkVector);

// An id and a 4-byte handle: what a gossip's member list and a member
// view's slot hold per peer.
const _: () = assert!(size_of::<MemberEntry>() == 8);

/// One delta-CRDT mutation carried inside topic messages.
///
/// The application tier (`gocast-app`) replicates a delta-state
/// observed-remove set per topic; each local mutation becomes one of
/// these, multicast through the topic layer and re-sent by anti-entropy
/// ([`GoCastMsg::TopicDeltas`]) when tree+pull dissemination missed it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaWire {
    /// Origin-local mutation counter (contiguous from 1 per origin, the
    /// unit of version-vector anti-entropy).
    pub counter: u32,
    /// `true` = add `elem`, `false` = remove the observed dots.
    pub add: bool,
    /// The element being added or removed.
    pub elem: u64,
    /// For removes: the add dots `(origin, counter)` observed at the
    /// remover (observed-remove / add-wins semantics). Empty for adds.
    pub observed: Vec<(NodeId, u32)>,
}

/// A version-vector entry: highest contiguous mutation counter applied
/// from one origin.
pub type VvEntry = (NodeId, u32);

/// Every message a GoCast node can send.
#[derive(Debug, Clone, PartialEq)]
pub enum GoCastMsg {
    /// A full multicast payload, pushed along a tree link or answering a
    /// pull request.
    Data {
        /// Message identity.
        id: MsgId,
        /// Age at send time (µs since injection at the origin).
        age_us: u64,
        /// Causal hop count: how many overlay hops this copy is from the
        /// origin (the origin sends `hop = 1`). Carried on the wire so
        /// receivers can emit hop-annotated delivery events and traces can
        /// reconstruct dissemination trees.
        hop: u32,
        /// Payload size in bytes.
        size: u32,
    },
    /// A periodic message summary to one overlay neighbor.
    Gossip {
        /// IDs (with ages) received since the last gossip to this neighbor,
        /// excluding IDs heard *from* this neighbor.
        ids: Vec<GossipEntry>,
        /// Piggybacked random member addresses (partial membership).
        members: Vec<MemberEntry>,
        /// Sender's landmark coordinates.
        coords: LandmarkVector,
        /// Sender's current degrees.
        degrees: DegreeInfo,
    },
    /// Request for messages the sender learned about via gossip but has not
    /// received.
    PullRequest {
        /// The missing message IDs.
        ids: Vec<MsgId>,
    },
    /// A joining node asks a contact for its member list.
    JoinRequest,
    /// The contact's member list.
    JoinReply {
        /// Member addresses with coordinates when known.
        members: Vec<MemberEntry>,
    },
    /// RTT probe.
    Ping {
        /// What is being measured.
        kind: ProbeKind,
        /// Sender clock at transmission (echoed back; the sender computes
        /// RTT as `now - sent_at_us` without keeping per-ping state).
        sent_at_us: u64,
    },
    /// RTT probe response, carrying the responder's state needed by the
    /// overlay maintenance conditions C2/C3.
    Pong {
        /// Echoed probe kind.
        kind: ProbeKind,
        /// Echoed transmission timestamp.
        sent_at_us: u64,
        /// Responder's degrees (condition C2).
        degrees: DegreeInfo,
        /// Responder's worst nearby-link RTT in µs (condition C3);
        /// `u64::MAX` when unknown.
        max_nearby_rtt_us: u64,
        /// Responder's landmark coordinates.
        coords: LandmarkVector,
    },
    /// Ask to become an overlay neighbor.
    LinkRequest {
        /// Random or nearby.
        kind: LinkKind,
        /// Measured RTT between requester and target, when the requester
        /// probed first (nearby links); lets the acceptor run condition C3.
        rtt_us: Option<u64>,
        /// Requester's degrees.
        degrees: DegreeInfo,
    },
    /// Accept a link request.
    LinkAccept {
        /// Echoed link kind.
        kind: LinkKind,
        /// Acceptor's degrees.
        degrees: DegreeInfo,
    },
    /// Decline a link request.
    LinkReject {
        /// Echoed link kind.
        kind: LinkKind,
    },
    /// Unilaterally drop an established link.
    LinkDrop {
        /// The link kind being dropped.
        kind: LinkKind,
        /// Why.
        reason: DropReason,
    },
    /// Random-degree rebalancing (operation 1): the sender is dropping its
    /// links to the receiver and to `target`, and asks the receiver to
    /// connect to `target` so both keep their random degree.
    ConnectTo {
        /// The node the receiver should establish a random link to.
        target: NodeId,
    },
    /// Tree advertisement: the root's periodic heartbeat flood, re-emitted
    /// by every node with its own distance-to-root. Doubles as the
    /// distance-vector route update of the DVMRP-style tree protocol.
    TreeAd {
        /// Current root.
        root: NodeId,
        /// Root epoch (bumped on failover).
        epoch: u32,
        /// Heartbeat sequence number within the epoch.
        seq: u32,
        /// Sender's latency distance from the root, in µs.
        dist_us: u64,
    },
    /// Tell a neighbor it is (or no longer is) this node's tree parent.
    ParentSelect {
        /// `true` = you are now my parent; `false` = you no longer are.
        selected: bool,
    },
    /// A topic-tagged payload, pushed along a per-topic tree link or
    /// answering a [`GoCastMsg::TopicPull`]. The application tier's
    /// analogue of [`GoCastMsg::Data`].
    TopicData {
        /// Logical group the payload belongs to.
        topic: u32,
        /// Message identity (publisher-global sequence space, so ids stay
        /// unique across topics).
        id: MsgId,
        /// Age at send time (µs since publication at the origin).
        age_us: u64,
        /// Causal hop count from the publisher (the publisher sends 1).
        hop: u32,
        /// Opaque payload size in bytes (pub/sub workload).
        size: u32,
        /// CRDT mutation riding this message (CRDT workload), if any.
        delta: Option<DeltaWire>,
    },
    /// Per-topic gossip summary: ids published on `topic` that the sender
    /// holds and the receiver may have missed.
    TopicIHave {
        /// The topic the ids belong to.
        topic: u32,
        /// Recently seen topic-message ids.
        ids: Vec<MsgId>,
    },
    /// Request for topic messages learned via [`GoCastMsg::TopicIHave`]
    /// but never received.
    TopicPull {
        /// The topic the ids belong to.
        topic: u32,
        /// The missing message ids.
        ids: Vec<MsgId>,
    },
    /// Anti-entropy probe: the sender's CRDT version vector for `topic`.
    /// The receiver answers with [`GoCastMsg::TopicDeltas`] for every
    /// mutation the vector does not cover.
    TopicDigest {
        /// The topic whose replica is being reconciled.
        topic: u32,
        /// Highest contiguous applied counter per origin.
        vv: Vec<VvEntry>,
    },
    /// Anti-entropy repair: mutations the requester's digest was missing.
    TopicDeltas {
        /// The topic whose replica is being reconciled.
        topic: u32,
        /// `(origin, delta)` pairs, ordered by origin then counter.
        deltas: Vec<(NodeId, DeltaWire)>,
    },
}

impl Wire for GoCastMsg {
    /// Exact on-the-wire size: the fixed transport header, the body as the
    /// binary codec in [`crate::encode`] produces it, and — for `Data` —
    /// the payload bytes themselves.
    ///
    /// Computed via [`crate::codec::encoded_len`], which is arithmetic and
    /// allocation-free: this method runs once per simulated send, so it
    /// must never build the actual encode buffer. Property tests pin
    /// `wire_size() == HEADER_BYTES + encode(self).len() + payload`.
    fn wire_size(&self) -> u32 {
        let payload = match self {
            GoCastMsg::Data { size, .. } | GoCastMsg::TopicData { size, .. } => *size,
            _ => 0,
        };
        HEADER_BYTES + crate::codec::encoded_len(self) as u32 + payload
    }

    fn class(&self) -> TrafficClass {
        match self {
            GoCastMsg::Data { .. }
            | GoCastMsg::TopicData { .. }
            | GoCastMsg::TopicDeltas { .. } => TrafficClass::Data,
            GoCastMsg::Gossip { .. }
            | GoCastMsg::TopicIHave { .. }
            | GoCastMsg::TopicDigest { .. } => TrafficClass::Gossip,
            GoCastMsg::PullRequest { .. } | GoCastMsg::TopicPull { .. } => TrafficClass::Request,
            GoCastMsg::JoinRequest | GoCastMsg::JoinReply { .. } => TrafficClass::Membership,
            GoCastMsg::Ping { .. } | GoCastMsg::Pong { .. } => TrafficClass::Probe,
            GoCastMsg::LinkRequest { .. }
            | GoCastMsg::LinkAccept { .. }
            | GoCastMsg::LinkReject { .. }
            | GoCastMsg::LinkDrop { .. }
            | GoCastMsg::ConnectTo { .. } => TrafficClass::Control,
            GoCastMsg::TreeAd { .. } | GoCastMsg::ParentSelect { .. } => TrafficClass::Tree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued event and cross-lane outbox entry is one `GoCastMsg`
    /// wide, so a field that widens the enum widens all of them.
    #[test]
    fn message_stays_within_72_bytes() {
        assert!(size_of::<GoCastMsg>() <= 72, "{}", size_of::<GoCastMsg>());
    }

    #[test]
    fn data_size_includes_payload() {
        let m = GoCastMsg::Data {
            id: MsgId::new(NodeId::new(0), 1),
            age_us: 0,
            hop: 1,
            size: 1024,
        };
        assert_eq!(m.wire_size(), HEADER_BYTES + 25 + 1024);
        assert_eq!(m.class(), TrafficClass::Data);
    }

    #[test]
    fn gossip_size_scales_with_ids() {
        let base = GoCastMsg::Gossip {
            ids: vec![],
            members: vec![],
            coords: LandmarkVector::unknown(),
            degrees: DegreeInfo::default(),
        };
        let two = GoCastMsg::Gossip {
            ids: vec![
                (MsgId::new(NodeId::new(0), 1), 5),
                (MsgId::new(NodeId::new(0), 2), 5),
            ],
            members: vec![],
            coords: LandmarkVector::unknown(),
            degrees: DegreeInfo::default(),
        };
        assert_eq!(two.wire_size() - base.wire_size(), 32);
        assert_eq!(base.class(), TrafficClass::Gossip);
    }

    #[test]
    fn gossips_are_small_relative_to_data() {
        // The paper's efficiency argument requires summaries to be much
        // smaller than payloads.
        let gossip = GoCastMsg::Gossip {
            ids: (0..10)
                .map(|s| (MsgId::new(NodeId::new(1), s), 0))
                .collect(),
            members: vec![(NodeId::new(2), LandmarkVector::unknown())],
            coords: LandmarkVector::unknown(),
            degrees: DegreeInfo::default(),
        };
        let data = GoCastMsg::Data {
            id: MsgId::new(NodeId::new(1), 0),
            age_us: 0,
            hop: 1,
            size: 1024,
        };
        assert!(gossip.wire_size() * 4 < data.wire_size());
    }

    #[test]
    fn wire_size_matches_codec_exactly() {
        use gocast_sim::Wire as _;
        let msgs = [
            GoCastMsg::Data {
                id: MsgId::new(NodeId::new(0), 1),
                age_us: 9,
                hop: 3,
                size: 512,
            },
            GoCastMsg::Gossip {
                ids: vec![(MsgId::new(NodeId::new(0), 1), 5)],
                members: vec![(NodeId::new(2), LandmarkVector::unknown())],
                coords: LandmarkVector::from_rtts([std::time::Duration::from_millis(4)]),
                degrees: DegreeInfo::default(),
            },
            GoCastMsg::JoinRequest,
            GoCastMsg::LinkRequest {
                kind: LinkKind::Nearby,
                rtt_us: Some(1),
                degrees: DegreeInfo::default(),
            },
            GoCastMsg::TreeAd {
                root: NodeId::new(0),
                epoch: 1,
                seq: 2,
                dist_us: 3,
            },
        ];
        for m in msgs {
            let payload = match &m {
                GoCastMsg::Data { size, .. } => *size,
                _ => 0,
            };
            assert_eq!(
                m.wire_size(),
                HEADER_BYTES + crate::codec::encode(&m).len() as u32 + payload,
                "size mismatch for {m:?}"
            );
        }
    }

    #[test]
    fn every_variant_has_a_class() {
        let msgs = [
            GoCastMsg::JoinRequest,
            GoCastMsg::Ping {
                kind: ProbeKind::Candidate,
                sent_at_us: 0,
            },
            GoCastMsg::LinkReject {
                kind: LinkKind::Random,
            },
            GoCastMsg::ConnectTo {
                target: NodeId::new(1),
            },
            GoCastMsg::TreeAd {
                root: NodeId::new(0),
                epoch: 0,
                seq: 0,
                dist_us: 0,
            },
            GoCastMsg::ParentSelect { selected: true },
        ];
        for m in msgs {
            assert!(m.wire_size() >= HEADER_BYTES);
            let _ = m.class();
        }
    }
}
