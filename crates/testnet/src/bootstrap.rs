//! Seed-node bootstrap and dynamic peer discovery.
//!
//! Addresses are learned, not configured: a node's [`PeerTable`] starts
//! with only the *seed* nodes' socket addresses and discovers everyone
//! else at runtime. Discovery rides on a 1-byte transport framing in
//! front of every datagram:
//!
//! ```text
//! DATA    [0xD0][sender: u32 LE][gocast-codec payload]
//! WHOHAS  [0xD1][sender: u32 LE][target: u32 LE]
//! PEER    [0xD2][sender: u32 LE][peer: u32 LE][ipv4: 4B][port: u16 LE]
//! ```
//!
//! The GoCast protocol bytes inside a `DATA` frame are exactly what
//! [`gocast::encode`] produces — the framing is transport identity (the
//! role an IP header plays in a real deployment), not a protocol change.
//! Every received frame teaches the receiver the sender's `NodeId ↔
//! SocketAddr` mapping, once: a frame that contradicts a mapping already
//! learned is dropped as malformed. A send to an unknown `NodeId` is queued while a
//! `WHOHAS` query goes to the seeds (and any peer already learned), which
//! answer with `PEER` if they know the target. This is the same shape as
//! the membership piggybacking that real gossip deployments use (cf.
//! saorsa-gossip's peer cache), scaled down to the fabric's needs.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use gocast_sim::{FxHashMap, NodeId};

/// Frame tag for a GoCast protocol datagram.
pub(crate) const TAG_DATA: u8 = 0xD0;
/// Frame tag for an address query.
pub(crate) const TAG_WHOHAS: u8 = 0xD1;
/// Frame tag for an address answer.
pub(crate) const TAG_PEER: u8 = 0xD2;

/// A decoded transport frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame<'a> {
    /// A GoCast protocol message from `sender`.
    Data { sender: NodeId, payload: &'a [u8] },
    /// `sender` asks: what address does `target` live at?
    WhoHas { sender: NodeId, target: NodeId },
    /// `sender` answers: `peer` lives at `addr`.
    Peer {
        sender: NodeId,
        peer: NodeId,
        addr: SocketAddr,
    },
}

/// Frames a GoCast payload with the sender's identity. The wire path
/// frames in place via [`frame_data_into`]; this allocating variant
/// remains for round-trip tests.
#[cfg(test)]
pub(crate) fn encode_data(sender: NodeId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    frame_data_into(sender, &mut out);
    out.extend_from_slice(payload);
    out
}

/// Appends the `DATA` frame header to `out`; the caller appends the
/// codec payload (via [`gocast::encode_into`]) right after, so a framed
/// protocol datagram is built without any intermediate allocation.
pub(crate) fn frame_data_into(sender: NodeId, out: &mut Vec<u8>) {
    out.push(TAG_DATA);
    out.extend_from_slice(&sender.as_u32().to_le_bytes());
}

/// Encodes an address query for `target`.
pub(crate) fn encode_whohas(sender: NodeId, target: NodeId) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(TAG_WHOHAS);
    out.extend_from_slice(&sender.as_u32().to_le_bytes());
    out.extend_from_slice(&target.as_u32().to_le_bytes());
    out
}

/// Encodes an address answer. Only IPv4 addresses are representable (the
/// fabric binds IPv4 loopback exclusively); returns `None` for IPv6.
pub(crate) fn encode_peer(sender: NodeId, peer: NodeId, addr: SocketAddr) -> Option<Vec<u8>> {
    let IpAddr::V4(ip) = addr.ip() else {
        return None;
    };
    let mut out = Vec::with_capacity(15);
    out.push(TAG_PEER);
    out.extend_from_slice(&sender.as_u32().to_le_bytes());
    out.extend_from_slice(&peer.as_u32().to_le_bytes());
    out.extend_from_slice(&ip.octets());
    out.extend_from_slice(&addr.port().to_le_bytes());
    Some(out)
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// Decodes a transport frame; `None` for anything truncated or unknown
/// (malformed datagrams are counted and dropped).
pub(crate) fn decode_frame(buf: &[u8]) -> Option<Frame<'_>> {
    let (&tag, rest) = buf.split_first()?;
    match tag {
        TAG_DATA => Some(Frame::Data {
            sender: NodeId::new(read_u32(rest, 0)?),
            payload: rest.get(4..)?,
        }),
        TAG_WHOHAS if rest.len() == 8 => Some(Frame::WhoHas {
            sender: NodeId::new(read_u32(rest, 0)?),
            target: NodeId::new(read_u32(rest, 4)?),
        }),
        TAG_PEER if rest.len() == 14 => {
            let ip = Ipv4Addr::new(rest[8], rest[9], rest[10], rest[11]);
            let port = u16::from_le_bytes([rest[12], rest[13]]);
            Some(Frame::Peer {
                sender: NodeId::new(read_u32(rest, 0)?),
                peer: NodeId::new(read_u32(rest, 4)?),
                addr: SocketAddr::from((ip, port)),
            })
        }
        _ => None,
    }
}

/// What [`PeerTable::learn`] made of a claimed binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Learned {
    /// The table did not know it, and now does.
    New,
    /// The table already held exactly this binding.
    Known,
    /// The id or the address is already bound to another; the table keeps
    /// what it had.
    Conflict,
}

/// A node's learned view of where peers live: pre-loaded with the seed
/// set, extended by every frame the node receives and every `PEER` answer.
/// A binding is one-to-one and permanent — no testnet socket ever moves —
/// so the first one wins, and a frame that claims another is a lie: one
/// spoofed frame cannot redirect a node's sends to a peer.
#[derive(Debug, Clone)]
pub struct PeerTable {
    addrs: FxHashMap<NodeId, SocketAddr>,
    by_addr: FxHashMap<SocketAddr, NodeId>,
    seeds: Vec<(NodeId, SocketAddr)>,
}

impl PeerTable {
    /// A table pre-loaded with the seed nodes (the only addresses a
    /// joiner is configured with).
    pub fn new(seeds: Vec<(NodeId, SocketAddr)>) -> Self {
        let mut t = PeerTable {
            addrs: FxHashMap::default(),
            by_addr: FxHashMap::default(),
            seeds: seeds.clone(),
        };
        for (id, addr) in seeds {
            t.learn(id, addr);
        }
        t
    }

    /// Binds `id` to `addr` unless either is bound already (see
    /// [`Learned`]).
    pub fn learn(&mut self, id: NodeId, addr: SocketAddr) -> Learned {
        match (self.addrs.get(&id), self.by_addr.get(&addr)) {
            (None, None) => {
                self.addrs.insert(id, addr);
                self.by_addr.insert(addr, id);
                Learned::New
            }
            (Some(&bound), _) if bound == addr => Learned::Known,
            _ => Learned::Conflict,
        }
    }

    /// The learned address of `id`, if any.
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.addrs.get(&id).copied()
    }

    /// Reverse lookup: which node sends from `addr`?
    pub fn node_of(&self, addr: SocketAddr) -> Option<NodeId> {
        self.by_addr.get(&addr).copied()
    }

    /// The configured seed set.
    pub fn seeds(&self) -> &[(NodeId, SocketAddr)] {
        &self.seeds
    }

    /// Number of known peer addresses.
    pub fn known(&self) -> usize {
        self.addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from((Ipv4Addr::LOCALHOST, port))
    }

    #[test]
    fn data_frame_round_trips() {
        let payload = gocast::encode(&gocast::GoCastMsg::JoinRequest);
        let framed = encode_data(NodeId::new(7), &payload);
        match decode_frame(&framed) {
            Some(Frame::Data { sender, payload: p }) => {
                assert_eq!(sender, NodeId::new(7));
                assert_eq!(gocast::decode(p).unwrap(), gocast::GoCastMsg::JoinRequest);
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn whohas_and_peer_round_trip() {
        let q = encode_whohas(NodeId::new(3), NodeId::new(12));
        assert_eq!(
            decode_frame(&q),
            Some(Frame::WhoHas {
                sender: NodeId::new(3),
                target: NodeId::new(12)
            })
        );
        let a = encode_peer(NodeId::new(12), NodeId::new(5), addr(4567)).unwrap();
        assert_eq!(
            decode_frame(&a),
            Some(Frame::Peer {
                sender: NodeId::new(12),
                peer: NodeId::new(5),
                addr: addr(4567),
            })
        );
    }

    #[test]
    fn truncated_and_unknown_frames_are_rejected() {
        assert_eq!(decode_frame(&[]), None);
        assert_eq!(decode_frame(&[TAG_DATA]), None);
        assert_eq!(decode_frame(&[TAG_DATA, 1, 2]), None);
        assert_eq!(decode_frame(&[TAG_WHOHAS, 0, 0, 0, 0]), None);
        assert_eq!(decode_frame(&[TAG_PEER, 0, 0, 0, 0, 1]), None);
        assert_eq!(decode_frame(&[0x42, 0, 0, 0, 0]), None);
    }

    #[test]
    fn peer_table_learns_and_reverses() {
        let mut t = PeerTable::new(vec![(NodeId::new(0), addr(9000))]);
        assert_eq!(t.known(), 1);
        assert_eq!(t.addr_of(NodeId::new(0)), Some(addr(9000)));
        assert_eq!(t.learn(NodeId::new(1), addr(9001)), Learned::New);
        assert_eq!(t.learn(NodeId::new(1), addr(9001)), Learned::Known);
        // The first binding wins, both ways round.
        assert_eq!(t.learn(NodeId::new(1), addr(9002)), Learned::Conflict);
        assert_eq!(t.learn(NodeId::new(2), addr(9001)), Learned::Conflict);
        assert_eq!(t.addr_of(NodeId::new(1)), Some(addr(9001)));
        assert_eq!(t.node_of(addr(9001)), Some(NodeId::new(1)));
        assert_eq!(t.node_of(addr(9002)), None);
        assert_eq!(t.seeds().len(), 1);
    }
}
