//! Binary wire codec for [`GoCastMsg`].
//!
//! The simulator never serializes messages, but a production deployment
//! of the same state machines would; this module defines the wire format
//! and guarantees that [`gocast_sim::Wire::wire_size`] is *exact*: the
//! traffic statistics every experiment reports are the sizes this codec
//! produces (plus the fixed per-packet header), enforced by round-trip
//! property tests.
//!
//! Format: one tag byte, then fixed-width little-endian fields;
//! variable-length sequences are prefixed with a `u32` count. No varints —
//! sizes stay computable without encoding.

use gocast_net::LandmarkVector;
use gocast_sim::NodeId;

use crate::types::{DegreeInfo, DropReason, LinkKind, MsgId};
use crate::wire::{DeltaWire, GoCastMsg, ProbeKind};

/// A malformed buffer was handed to [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// An unknown tag or enum discriminant.
    BadTag(u8),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer ended before the message did"),
            DecodeError::BadTag(t) => write!(f, "unknown tag or discriminant {t}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn node(&mut self, n: NodeId) {
        self.u32(n.as_u32());
    }
    fn msg_id(&mut self, id: MsgId) {
        self.node(id.origin);
        self.u32(id.seq);
    }
    fn degrees(&mut self, d: DegreeInfo) {
        for v in [d.d_rand, d.d_near, d.t_rand, d.t_near] {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn coords(&mut self, c: &LandmarkVector) {
        // One RTT word per landmark slot: microseconds, or `u32::MAX` for a
        // slot not measured (the reader maps it back).
        self.u32(c.len() as u32);
        for i in 0..c.len() {
            self.u32(c.rtt_us_at(i));
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn node(&mut self) -> Result<NodeId, DecodeError> {
        Ok(NodeId::new(self.u32()?))
    }
    fn msg_id(&mut self) -> Result<MsgId, DecodeError> {
        Ok(MsgId::new(self.node()?, self.u32()?))
    }
    fn degrees(&mut self) -> Result<DegreeInfo, DecodeError> {
        Ok(DegreeInfo {
            d_rand: self.u16()?,
            d_near: self.u16()?,
            t_rand: self.u16()?,
            t_near: self.u16()?,
        })
    }
    fn coords(&mut self) -> Result<LandmarkVector, DecodeError> {
        let n = self.u32()? as usize;
        if n > gocast_net::MAX_LANDMARKS {
            return Err(DecodeError::BadTag(255)); // implausible landmark count
        }
        let mut v = LandmarkVector::unknown();
        for i in 0..n {
            match self.u32()? {
                u32::MAX => v.set_unmeasured(i),
                us => v.set(i, std::time::Duration::from_micros(us as u64)),
            }
        }
        Ok(v)
    }
}

fn link_kind_tag(k: LinkKind) -> u8 {
    match k {
        LinkKind::Random => 0,
        LinkKind::Nearby => 1,
    }
}

fn link_kind_from(t: u8) -> Result<LinkKind, DecodeError> {
    match t {
        0 => Ok(LinkKind::Random),
        1 => Ok(LinkKind::Nearby),
        other => Err(DecodeError::BadTag(other)),
    }
}

fn drop_reason_tag(r: DropReason) -> u8 {
    // `DropReason::index` is exhaustive by construction, so every variant
    // (present and future) gets a stable tag automatically.
    r.index() as u8
}

fn drop_reason_from(t: u8) -> Result<DropReason, DecodeError> {
    DropReason::ALL
        .get(t as usize)
        .copied()
        .ok_or(DecodeError::BadTag(t))
}

fn probe_kind(w: &mut Writer<'_>, k: ProbeKind) {
    match k {
        ProbeKind::Landmark(i) => {
            w.u8(0);
            w.0.extend_from_slice(&i.to_le_bytes());
        }
        ProbeKind::Candidate => {
            w.u8(1);
            w.0.extend_from_slice(&0u16.to_le_bytes());
        }
        ProbeKind::LinkMeasure => {
            w.u8(2);
            w.0.extend_from_slice(&0u16.to_le_bytes());
        }
    }
}

fn probe_kind_from(r: &mut Reader<'_>) -> Result<ProbeKind, DecodeError> {
    let tag = r.u8()?;
    let arg = r.u16()?;
    Ok(match tag {
        0 => ProbeKind::Landmark(arg),
        1 => ProbeKind::Candidate,
        2 => ProbeKind::LinkMeasure,
        other => return Err(DecodeError::BadTag(other)),
    })
}

fn delta(w: &mut Writer<'_>, d: &DeltaWire) {
    w.u32(d.counter);
    w.u8(u8::from(d.add));
    w.u64(d.elem);
    w.u32(d.observed.len() as u32);
    for (origin, counter) in &d.observed {
        w.node(*origin);
        w.u32(*counter);
    }
}

/// Encoded size of a [`DeltaWire`]: counter + flag + element + dot count
/// + one `(NodeId, u32)` pair per observed dot.
fn delta_len(d: &DeltaWire) -> usize {
    4 + 1 + 8 + 4 + 8 * d.observed.len()
}

fn delta_from(r: &mut Reader<'_>) -> Result<DeltaWire, DecodeError> {
    let counter = r.u32()?;
    let add = r.u8()? == 1;
    let elem = r.u64()?;
    let n = r.u32()? as usize;
    let mut observed = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        observed.push((r.node()?, r.u32()?));
    }
    Ok(DeltaWire {
        counter,
        add,
        elem,
        observed,
    })
}

/// Encodes a message body (header not included — the transport adds it).
///
/// The returned buffer's length always equals
/// `msg.wire_size() - HEADER_BYTES + 1` (the `+ 1` is the tag byte, which
/// the accounting folds into the header).
pub fn encode(msg: &GoCastMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(msg, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer, appending to its current
/// contents. Deployment hosts reuse one scratch buffer across sends so
/// the steady-state encode path performs no heap allocation once the
/// buffer has grown to the largest message seen (`encoded_len` bounds it
/// exactly).
pub fn encode_into(msg: &GoCastMsg, out: &mut Vec<u8>) {
    let mut w = Writer(out);
    match msg {
        GoCastMsg::Data {
            id,
            age_us,
            hop,
            size,
        } => {
            w.u8(0);
            w.msg_id(*id);
            w.u64(*age_us);
            w.u32(*hop);
            // The payload itself is application data; encode its length.
            w.u32(*size);
        }
        GoCastMsg::Gossip {
            ids,
            members,
            coords,
            degrees,
        } => {
            w.u8(1);
            w.u32(ids.len() as u32);
            for (id, age) in ids {
                w.msg_id(*id);
                w.u64(*age);
            }
            w.u32(members.len() as u32);
            for (m, c) in members {
                w.node(*m);
                w.coords(c);
            }
            w.coords(coords);
            w.degrees(*degrees);
        }
        GoCastMsg::PullRequest { ids } => {
            w.u8(2);
            w.u32(ids.len() as u32);
            for id in ids {
                w.msg_id(*id);
            }
        }
        GoCastMsg::JoinRequest => w.u8(3),
        GoCastMsg::JoinReply { members } => {
            w.u8(4);
            w.u32(members.len() as u32);
            for (m, c) in members {
                w.node(*m);
                w.coords(c);
            }
        }
        GoCastMsg::Ping { kind, sent_at_us } => {
            w.u8(5);
            probe_kind(&mut w, *kind);
            w.u64(*sent_at_us);
        }
        GoCastMsg::Pong {
            kind,
            sent_at_us,
            degrees,
            max_nearby_rtt_us,
            coords,
        } => {
            w.u8(6);
            probe_kind(&mut w, *kind);
            w.u64(*sent_at_us);
            w.degrees(*degrees);
            w.u64(*max_nearby_rtt_us);
            w.coords(coords);
        }
        GoCastMsg::LinkRequest {
            kind,
            rtt_us,
            degrees,
        } => {
            w.u8(7);
            w.u8(link_kind_tag(*kind));
            match rtt_us {
                Some(v) => {
                    w.u8(1);
                    w.u64(*v);
                }
                None => {
                    w.u8(0);
                    w.u64(0);
                }
            }
            w.degrees(*degrees);
        }
        GoCastMsg::LinkAccept { kind, degrees } => {
            w.u8(8);
            w.u8(link_kind_tag(*kind));
            w.degrees(*degrees);
        }
        GoCastMsg::LinkReject { kind } => {
            w.u8(9);
            w.u8(link_kind_tag(*kind));
        }
        GoCastMsg::LinkDrop { kind, reason } => {
            w.u8(10);
            w.u8(link_kind_tag(*kind));
            w.u8(drop_reason_tag(*reason));
        }
        GoCastMsg::ConnectTo { target } => {
            w.u8(11);
            w.node(*target);
        }
        GoCastMsg::TreeAd {
            root,
            epoch,
            seq,
            dist_us,
        } => {
            w.u8(12);
            w.node(*root);
            w.u32(*epoch);
            w.u32(*seq);
            w.u64(*dist_us);
        }
        GoCastMsg::ParentSelect { selected } => {
            w.u8(13);
            w.u8(u8::from(*selected));
        }
        GoCastMsg::TopicData {
            topic,
            id,
            age_us,
            hop,
            size,
            delta: d,
        } => {
            w.u8(14);
            w.u32(*topic);
            w.msg_id(*id);
            w.u64(*age_us);
            w.u32(*hop);
            w.u32(*size);
            match d {
                Some(d) => {
                    w.u8(1);
                    delta(&mut w, d);
                }
                None => w.u8(0),
            }
        }
        GoCastMsg::TopicIHave { topic, ids } => {
            w.u8(15);
            w.u32(*topic);
            w.u32(ids.len() as u32);
            for id in ids {
                w.msg_id(*id);
            }
        }
        GoCastMsg::TopicPull { topic, ids } => {
            w.u8(16);
            w.u32(*topic);
            w.u32(ids.len() as u32);
            for id in ids {
                w.msg_id(*id);
            }
        }
        GoCastMsg::TopicDigest { topic, vv } => {
            w.u8(17);
            w.u32(*topic);
            w.u32(vv.len() as u32);
            for (origin, counter) in vv {
                w.node(*origin);
                w.u32(*counter);
            }
        }
        GoCastMsg::TopicDeltas { topic, deltas } => {
            w.u8(18);
            w.u32(*topic);
            w.u32(deltas.len() as u32);
            for (origin, d) in deltas {
                w.node(*origin);
                delta(&mut w, d);
            }
        }
    }
}

/// Encoded size of a landmark vector: count word + one `u32` per slot.
#[inline]
fn coords_len(c: &LandmarkVector) -> usize {
    4 + 4 * c.len()
}

/// Exact length of [`encode`]`(msg)` computed arithmetically, without
/// building the buffer.
///
/// This is the hot-path companion to [`encode`]: traffic accounting needs
/// the wire size of every message sent, and calling `encode(msg).len()`
/// there would heap-allocate a `Vec<u8>` per send. The format uses no
/// varints precisely so this stays a closed-form sum; the
/// `encoded_len_matches_encode_for_every_variant` property test pins the
/// two functions together.
pub fn encoded_len(msg: &GoCastMsg) -> usize {
    // Field sizes: tag 1, NodeId 4, MsgId 8, u64 8, u32 4, DegreeInfo 8
    // (four u16s), ProbeKind 3 (tag + u16 argument).
    match msg {
        GoCastMsg::Data { .. } => 25,
        GoCastMsg::Gossip {
            ids,
            members,
            coords,
            ..
        } => {
            1 + 4
                + 16 * ids.len()
                + 4
                + members
                    .iter()
                    .map(|(_, c)| 4 + coords_len(c))
                    .sum::<usize>()
                + coords_len(coords)
                + 8
        }
        GoCastMsg::PullRequest { ids } => 1 + 4 + 8 * ids.len(),
        GoCastMsg::JoinRequest => 1,
        GoCastMsg::JoinReply { members } => {
            1 + 4
                + members
                    .iter()
                    .map(|(_, c)| 4 + coords_len(c))
                    .sum::<usize>()
        }
        GoCastMsg::Ping { .. } => 12,
        GoCastMsg::Pong { coords, .. } => 28 + coords_len(coords),
        GoCastMsg::LinkRequest { .. } => 19,
        GoCastMsg::LinkAccept { .. } => 10,
        GoCastMsg::LinkReject { .. } => 2,
        GoCastMsg::LinkDrop { .. } => 3,
        GoCastMsg::ConnectTo { .. } => 5,
        GoCastMsg::TreeAd { .. } => 21,
        GoCastMsg::ParentSelect { .. } => 2,
        GoCastMsg::TopicData { delta: d, .. } => 30 + d.as_ref().map_or(0, delta_len),
        GoCastMsg::TopicIHave { ids, .. } | GoCastMsg::TopicPull { ids, .. } => 9 + 8 * ids.len(),
        GoCastMsg::TopicDigest { vv, .. } => 9 + 8 * vv.len(),
        GoCastMsg::TopicDeltas { deltas, .. } => {
            9 + deltas.iter().map(|(_, d)| 4 + delta_len(d)).sum::<usize>()
        }
    }
}

/// Decodes a message body produced by [`encode`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, unknown tags, or trailing bytes.
pub fn decode(buf: &[u8]) -> Result<GoCastMsg, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    let msg = match r.u8()? {
        0 => GoCastMsg::Data {
            id: r.msg_id()?,
            age_us: r.u64()?,
            hop: r.u32()?,
            size: r.u32()?,
        },
        1 => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push((r.msg_id()?, r.u64()?));
            }
            let m = r.u32()? as usize;
            let mut members = Vec::with_capacity(m.min(4096));
            for _ in 0..m {
                members.push((r.node()?, r.coords()?));
            }
            GoCastMsg::Gossip {
                ids,
                members,
                coords: r.coords()?,
                degrees: r.degrees()?,
            }
        }
        2 => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(r.msg_id()?);
            }
            GoCastMsg::PullRequest { ids }
        }
        3 => GoCastMsg::JoinRequest,
        4 => {
            let m = r.u32()? as usize;
            let mut members = Vec::with_capacity(m.min(4096));
            for _ in 0..m {
                members.push((r.node()?, r.coords()?));
            }
            GoCastMsg::JoinReply { members }
        }
        5 => GoCastMsg::Ping {
            kind: probe_kind_from(&mut r)?,
            sent_at_us: r.u64()?,
        },
        6 => GoCastMsg::Pong {
            kind: probe_kind_from(&mut r)?,
            sent_at_us: r.u64()?,
            degrees: r.degrees()?,
            max_nearby_rtt_us: r.u64()?,
            coords: r.coords()?,
        },
        7 => {
            let kind = link_kind_from(r.u8()?)?;
            let has = r.u8()? == 1;
            let v = r.u64()?;
            GoCastMsg::LinkRequest {
                kind,
                rtt_us: has.then_some(v),
                degrees: r.degrees()?,
            }
        }
        8 => GoCastMsg::LinkAccept {
            kind: link_kind_from(r.u8()?)?,
            degrees: r.degrees()?,
        },
        9 => GoCastMsg::LinkReject {
            kind: link_kind_from(r.u8()?)?,
        },
        10 => GoCastMsg::LinkDrop {
            kind: link_kind_from(r.u8()?)?,
            reason: drop_reason_from(r.u8()?)?,
        },
        11 => GoCastMsg::ConnectTo { target: r.node()? },
        12 => GoCastMsg::TreeAd {
            root: r.node()?,
            epoch: r.u32()?,
            seq: r.u32()?,
            dist_us: r.u64()?,
        },
        13 => GoCastMsg::ParentSelect {
            selected: r.u8()? == 1,
        },
        14 => {
            let topic = r.u32()?;
            let id = r.msg_id()?;
            let age_us = r.u64()?;
            let hop = r.u32()?;
            let size = r.u32()?;
            let delta = match r.u8()? {
                0 => None,
                1 => Some(delta_from(&mut r)?),
                other => return Err(DecodeError::BadTag(other)),
            };
            GoCastMsg::TopicData {
                topic,
                id,
                age_us,
                hop,
                size,
                delta,
            }
        }
        15 => {
            let topic = r.u32()?;
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(r.msg_id()?);
            }
            GoCastMsg::TopicIHave { topic, ids }
        }
        16 => {
            let topic = r.u32()?;
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(r.msg_id()?);
            }
            GoCastMsg::TopicPull { topic, ids }
        }
        17 => {
            let topic = r.u32()?;
            let n = r.u32()? as usize;
            let mut vv = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                vv.push((r.node()?, r.u32()?));
            }
            GoCastMsg::TopicDigest { topic, vv }
        }
        18 => {
            let topic = r.u32()?;
            let n = r.u32()? as usize;
            let mut deltas = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                deltas.push((r.node()?, delta_from(&mut r)?));
            }
            GoCastMsg::TopicDeltas { topic, deltas }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    if r.pos != buf.len() {
        return Err(DecodeError::TrailingBytes(buf.len() - r.pos));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<GoCastMsg> {
        let coords = LandmarkVector::from_rtts([
            std::time::Duration::from_millis(10),
            std::time::Duration::from_millis(50),
        ]);
        let deg = DegreeInfo {
            d_rand: 1,
            d_near: 5,
            t_rand: 1,
            t_near: 5,
        };
        vec![
            GoCastMsg::Data {
                id: MsgId::new(NodeId::new(3), 7),
                age_us: 123_456,
                hop: 4,
                size: 1024,
            },
            GoCastMsg::Gossip {
                ids: vec![
                    (MsgId::new(NodeId::new(1), 2), 10),
                    (MsgId::new(NodeId::new(4), 0), 0),
                ],
                members: vec![
                    (NodeId::new(9), coords),
                    (NodeId::new(2), LandmarkVector::unknown()),
                ],
                coords,
                degrees: deg,
            },
            GoCastMsg::PullRequest {
                ids: vec![MsgId::new(NodeId::new(1), 2)],
            },
            GoCastMsg::JoinRequest,
            GoCastMsg::JoinReply {
                members: vec![(NodeId::new(5), coords)],
            },
            GoCastMsg::Ping {
                kind: ProbeKind::Landmark(3),
                sent_at_us: 42,
            },
            GoCastMsg::Pong {
                kind: ProbeKind::Candidate,
                sent_at_us: 42,
                degrees: deg,
                max_nearby_rtt_us: u64::MAX,
                coords,
            },
            GoCastMsg::LinkRequest {
                kind: LinkKind::Nearby,
                rtt_us: Some(5000),
                degrees: deg,
            },
            GoCastMsg::LinkRequest {
                kind: LinkKind::Random,
                rtt_us: None,
                degrees: deg,
            },
            GoCastMsg::LinkAccept {
                kind: LinkKind::Nearby,
                degrees: deg,
            },
            GoCastMsg::LinkReject {
                kind: LinkKind::Random,
            },
            GoCastMsg::LinkDrop {
                kind: LinkKind::Nearby,
                reason: DropReason::Replaced,
            },
            GoCastMsg::ConnectTo {
                target: NodeId::new(17),
            },
            GoCastMsg::TreeAd {
                root: NodeId::new(0),
                epoch: 2,
                seq: 99,
                dist_us: 12_345,
            },
            GoCastMsg::ParentSelect { selected: true },
            GoCastMsg::ParentSelect { selected: false },
            GoCastMsg::TopicData {
                topic: 7,
                id: MsgId::new(NodeId::new(3), 0x0100_0001),
                age_us: 55,
                hop: 2,
                size: 256,
                delta: None,
            },
            GoCastMsg::TopicData {
                topic: 0,
                id: MsgId::new(NodeId::new(8), 0x0100_0000),
                age_us: 0,
                hop: 1,
                size: 0,
                delta: Some(DeltaWire {
                    counter: 3,
                    add: false,
                    elem: 42,
                    observed: vec![(NodeId::new(8), 1), (NodeId::new(9), 2)],
                }),
            },
            GoCastMsg::TopicIHave {
                topic: 2,
                ids: vec![MsgId::new(NodeId::new(1), 9)],
            },
            GoCastMsg::TopicPull {
                topic: 2,
                ids: vec![MsgId::new(NodeId::new(1), 9), MsgId::new(NodeId::new(2), 4)],
            },
            GoCastMsg::TopicDigest {
                topic: 1,
                vv: vec![(NodeId::new(0), 12), (NodeId::new(5), 0)],
            },
            GoCastMsg::TopicDeltas {
                topic: 1,
                deltas: vec![(
                    NodeId::new(5),
                    DeltaWire {
                        counter: 1,
                        add: true,
                        elem: 7,
                        observed: vec![],
                    },
                )],
            },
        ]
    }

    fn arb_coords(rng: &mut proptest::TestRng) -> LandmarkVector {
        use rand::Rng;
        let n = rng.gen_range(0..5usize);
        LandmarkVector::from_rtts(
            (0..n).map(|_| std::time::Duration::from_micros(rng.gen_range(0..1_000_000u64))),
        )
    }

    /// Number of [`GoCastMsg`] variants [`arb_msg`] can produce.
    const VARIANTS: u8 = 19;

    /// A random instance of variant `variant` (0..VARIANTS, one per
    /// message kind).
    fn arb_msg(variant: u8, rng: &mut proptest::TestRng) -> GoCastMsg {
        use rand::{Rng, RngCore};
        fn id(rng: &mut proptest::TestRng) -> MsgId {
            MsgId::new(
                NodeId::new(rng.gen_range(0..1000u32)),
                rng.next_u64() as u32,
            )
        }
        fn deg(rng: &mut proptest::TestRng) -> DegreeInfo {
            DegreeInfo {
                d_rand: rng.next_u64() as u16,
                d_near: rng.next_u64() as u16,
                t_rand: rng.next_u64() as u16,
                t_near: rng.next_u64() as u16,
            }
        }
        fn kind(rng: &mut proptest::TestRng) -> LinkKind {
            if rng.gen_bool(0.5) {
                LinkKind::Random
            } else {
                LinkKind::Nearby
            }
        }
        fn probe(rng: &mut proptest::TestRng) -> ProbeKind {
            match rng.gen_range(0..3u8) {
                0 => ProbeKind::Landmark(rng.next_u64() as u16),
                1 => ProbeKind::Candidate,
                _ => ProbeKind::LinkMeasure,
            }
        }
        match variant {
            0 => GoCastMsg::Data {
                id: id(rng),
                age_us: rng.next_u64(),
                hop: rng.next_u64() as u32,
                size: rng.gen_range(0..65536u32),
            },
            1 => GoCastMsg::Gossip {
                ids: (0..rng.gen_range(0..8usize))
                    .map(|_| (id(rng), rng.next_u64()))
                    .collect(),
                members: (0..rng.gen_range(0..8usize))
                    .map(|_| (NodeId::new(rng.gen_range(0..1000u32)), arb_coords(rng)))
                    .collect(),
                coords: arb_coords(rng),
                degrees: deg(rng),
            },
            2 => GoCastMsg::PullRequest {
                ids: (0..rng.gen_range(0..8usize)).map(|_| id(rng)).collect(),
            },
            3 => GoCastMsg::JoinRequest,
            4 => GoCastMsg::JoinReply {
                members: (0..rng.gen_range(0..8usize))
                    .map(|_| (NodeId::new(rng.gen_range(0..1000u32)), arb_coords(rng)))
                    .collect(),
            },
            5 => GoCastMsg::Ping {
                kind: probe(rng),
                sent_at_us: rng.next_u64(),
            },
            6 => GoCastMsg::Pong {
                kind: probe(rng),
                sent_at_us: rng.next_u64(),
                degrees: deg(rng),
                max_nearby_rtt_us: rng.next_u64(),
                coords: arb_coords(rng),
            },
            7 => GoCastMsg::LinkRequest {
                kind: kind(rng),
                rtt_us: if rng.gen_bool(0.5) {
                    Some(rng.next_u64())
                } else {
                    None
                },
                degrees: deg(rng),
            },
            8 => GoCastMsg::LinkAccept {
                kind: kind(rng),
                degrees: deg(rng),
            },
            9 => GoCastMsg::LinkReject { kind: kind(rng) },
            10 => GoCastMsg::LinkDrop {
                kind: kind(rng),
                reason: DropReason::ALL[rng.gen_range(0..DropReason::ALL.len())],
            },
            11 => GoCastMsg::ConnectTo {
                target: NodeId::new(rng.gen_range(0..1000u32)),
            },
            12 => GoCastMsg::TreeAd {
                root: NodeId::new(rng.gen_range(0..1000u32)),
                epoch: rng.next_u64() as u32,
                seq: rng.next_u64() as u32,
                dist_us: rng.next_u64(),
            },
            13 => GoCastMsg::ParentSelect {
                selected: rng.gen_bool(0.5),
            },
            14 => GoCastMsg::TopicData {
                topic: rng.gen_range(0..64u32),
                id: id(rng),
                age_us: rng.next_u64(),
                hop: rng.next_u64() as u32,
                size: rng.gen_range(0..65536u32),
                delta: if rng.gen_bool(0.5) {
                    Some(arb_delta(rng))
                } else {
                    None
                },
            },
            15 => GoCastMsg::TopicIHave {
                topic: rng.gen_range(0..64u32),
                ids: (0..rng.gen_range(0..8usize)).map(|_| id(rng)).collect(),
            },
            16 => GoCastMsg::TopicPull {
                topic: rng.gen_range(0..64u32),
                ids: (0..rng.gen_range(0..8usize)).map(|_| id(rng)).collect(),
            },
            17 => GoCastMsg::TopicDigest {
                topic: rng.gen_range(0..64u32),
                vv: (0..rng.gen_range(0..8usize))
                    .map(|_| {
                        (
                            NodeId::new(rng.gen_range(0..1000u32)),
                            rng.next_u64() as u32,
                        )
                    })
                    .collect(),
            },
            _ => GoCastMsg::TopicDeltas {
                topic: rng.gen_range(0..64u32),
                deltas: (0..rng.gen_range(0..8usize))
                    .map(|_| (NodeId::new(rng.gen_range(0..1000u32)), arb_delta(rng)))
                    .collect(),
            },
        }
    }

    fn arb_delta(rng: &mut proptest::TestRng) -> DeltaWire {
        use rand::{Rng, RngCore};
        DeltaWire {
            counter: rng.next_u64() as u32,
            add: rng.gen_bool(0.5),
            elem: rng.next_u64(),
            observed: (0..rng.gen_range(0..4usize))
                .map(|_| {
                    (
                        NodeId::new(rng.gen_range(0..1000u32)),
                        rng.next_u64() as u32,
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn encoded_len_matches_encode_for_every_variant() {
        use proptest::prelude::*;
        proptest::run_cases("encoded_len_matches_encode_for_every_variant", |rng| {
            for variant in 0..VARIANTS {
                let msg = arb_msg(variant, rng);
                let buf = encode(&msg);
                prop_assert_eq!(
                    encoded_len(&msg),
                    buf.len(),
                    "encoded_len disagrees with encode for {:?}",
                    msg
                );
            }
            Ok(())
        });
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let bytes = encode(&msg);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    /// The wire carries 32-bit RTT words; a slot holds 24 bits. A word too
    /// large for a slot is a (very slow) measurement, `u32::MAX` alone
    /// means "not measured", and what decodes re-encodes at its own length.
    #[test]
    fn rtt_words_beyond_a_slot_decode_saturated_and_u32_max_unmeasured() {
        const SLOT_MAX_US: u32 = (1 << 24) - 2;
        let frame_with = |word: u32| {
            let coords = LandmarkVector::from_rtts([std::time::Duration::from_millis(10)]);
            let mut bytes = encode(&GoCastMsg::JoinReply {
                members: vec![(NodeId::new(5), coords)],
            });
            // The single RTT word is the frame's last field.
            let at = bytes.len() - 4;
            bytes[at..].copy_from_slice(&word.to_le_bytes());
            bytes
        };
        let coords_of = |bytes: &[u8]| match decode(bytes) {
            Ok(GoCastMsg::JoinReply { members }) => members[0].1,
            other => panic!("{other:?}"),
        };
        for word in [
            SLOT_MAX_US,
            SLOT_MAX_US + 1,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let bytes = frame_with(word);
            let coords = coords_of(&bytes);
            assert_eq!(coords.len(), 1);
            if word == u32::MAX {
                assert!(!coords.is_complete(1));
                assert_eq!(coords.rtt_us_at(0), u32::MAX);
            } else {
                assert!(coords.is_complete(1), "{word} is a measurement");
                assert_eq!(coords.rtt_us_at(0), SLOT_MAX_US);
            }
            let msg = decode(&bytes).unwrap();
            let again = encode(&msg);
            assert_eq!(encoded_len(&msg), again.len());
            assert_eq!(again.len(), bytes.len());
            assert_eq!(decode(&again), Ok(msg));
        }
    }

    #[test]
    fn truncation_is_detected() {
        for msg in samples() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                let r = decode(&bytes[..cut]);
                assert!(
                    r.is_err(),
                    "{msg:?} decoded from {cut}/{} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn decode_survives_random_prefixes_and_mutations_of_every_variant() {
        // A datagram off a real socket can arrive truncated or corrupted;
        // `decode` must return an error (or a different valid message,
        // e.g. when the mutated byte was payload) and never panic. Each
        // case exercises every message variant with a random prefix cut
        // and a random single-byte mutation, plus pure-noise buffers.
        use proptest::prelude::*;
        use rand::{Rng, RngCore};
        proptest::run_cases(
            "decode_survives_random_prefixes_and_mutations_of_every_variant",
            |rng| {
                for variant in 0..VARIANTS {
                    let msg = arb_msg(variant, rng);
                    let bytes = encode(&msg);
                    let decoded = decode(&bytes);
                    prop_assert_eq!(decoded.as_ref(), Ok(&msg));

                    // Random prefix: always an error, never a panic.
                    let cut = rng.gen_range(0..bytes.len());
                    prop_assert!(
                        decode(&bytes[..cut]).is_err(),
                        "{:?} decoded from a {}/{} prefix",
                        &msg,
                        cut,
                        bytes.len()
                    );

                    // Random single-byte mutation: must not panic. It may
                    // decode (the flip hit payload bytes) or fail; both
                    // are fine, crashing is not.
                    let mut mutated = bytes.clone();
                    let at = rng.gen_range(0..mutated.len());
                    mutated[at] ^= (rng.next_u64() as u8) | 1; // guaranteed flip
                    let _ = decode(&mutated);

                    // Mutated then truncated — the combination a lossy
                    // wire actually produces.
                    let cut = rng.gen_range(0..=mutated.len());
                    let _ = decode(&mutated[..cut]);
                }
                // Pure noise of arbitrary length.
                let len = rng.gen_range(0..256usize);
                let mut noise = vec![0u8; len];
                rng.fill_bytes(&mut noise);
                let _ = decode(&noise);
                Ok(())
            },
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&GoCastMsg::JoinRequest);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode(&[200]), Err(DecodeError::BadTag(200)));
        assert!(matches!(decode(&[]), Err(DecodeError::Truncated)));
    }

    #[test]
    fn every_drop_reason_round_trips() {
        // Exhaustive: the binary tag and the snake_case trace name must
        // both survive a round trip for every variant.
        for reason in DropReason::ALL {
            let msg = GoCastMsg::LinkDrop {
                kind: LinkKind::Random,
                reason,
            };
            assert_eq!(decode(&encode(&msg)), Ok(msg));
            assert_eq!(DropReason::parse(reason.as_str()), Some(reason));
        }
    }

    #[test]
    fn errors_display_lowercase() {
        assert_eq!(
            DecodeError::Truncated.to_string(),
            "buffer ended before the message did"
        );
    }
}
