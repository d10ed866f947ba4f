//! Binary wire codec for [`GoCastMsg`].
//!
//! The simulator never serializes messages; the deployment host
//! (`gocast-testnet`) does, and [`gocast_sim::Wire::wire_size`] is exactly
//! the size this codec produces plus the fixed per-packet header, so the
//! traffic every experiment reports is the traffic a socket carries.
//!
//! Format: one tag byte, then fixed-width little-endian fields;
//! variable-length sequences are prefixed with a `u32` count. No varints —
//! sizes stay computable without encoding. Two fields go at their own
//! width: a landmark vector is a `u8` slot count and 3 bytes a slot
//! (24-bit microseconds, all ones for "not measured"), and a probe kind is
//! one byte (the landmark index, or a tag for the other two kinds).
//!
//! The format is written once. Each field type has one `Field` impl, which
//! puts a value, takes it back and sizes it, and the `messages!` table
//! names every variant once, as `tag => Variant { fields in wire order }`.
//! The table generates the encoder, [`encoded_len`] and the decoder, so the
//! three cannot disagree: a struct literal evaluates its fields in source
//! order, so the decoder reads them in the order the encoder wrote them. A
//! fixed-size field is sized by a constant, and a `Vec` of them in closed
//! form (`4 + n·size`).
//!
//! Decoding accepts only what encoding writes: a flag is 0 or 1, an absent
//! value is 0, and a landmark count or index fits the slots a vector has;
//! anything else is a [`DecodeError::BadTag`]. So every byte string that
//! decodes re-encodes to itself.

use gocast_net::{LandmarkVector, MAX_LANDMARKS};
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

/// One wire field type: how a value is written, read back and sized.
trait Field: Sized {
    /// The encoded size, when every value of the type has the same one.
    const FIXED: Option<usize>;
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the next value off `r`, accepting only what `put` writes.
    /// Every impl is `#[inline]`: out of line, each field's `Result` went
    /// through memory and a gossip decoded up to a fifth slower.
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
    /// The encoded size of `self`; variable-size types override it.
    fn size(&self) -> usize {
        Self::FIXED.expect("a variable-size field overrides `size`")
    }
}

/// A decode cursor: the buffer and the offset of its next unread byte.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    /// Takes the next `N` bytes.
    #[inline]
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let end = self.pos + N;
        let Some(next) = self.buf.get(self.pos..end) else {
            return Err(DecodeError::Truncated);
        };
        self.pos = end;
        Ok(next.try_into().expect("the range is N bytes long"))
    }
}

/// The sum of fixed sizes, or `None` when any of them varies.
const fn fixed_sum(sizes: &[Option<usize>]) -> Option<usize> {
    let (mut total, mut i) = (0, 0);
    while i < sizes.len() {
        let Some(n) = sizes[i] else { return None };
        total += n;
        i += 1;
    }
    Some(total)
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const FIXED: Option<usize> = Some(size_of::<$t>());
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                r.bytes().map(<$t>::from_le_bytes)
            }
        }
    )*};
}
int_fields!(u8, u16, u32, u64);

/// `Field` for each struct, from its fields in wire order.
macro_rules! record_fields {
    ($($ty:ident { $($f:ident: $t:ty),* })*) => {$(
        impl Field for $ty {
            const FIXED: Option<usize> = fixed_sum(&[$(<$t>::FIXED),*]);
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($ty { $($f: <$t>::take(r)?),* })
            }
            fn size(&self) -> usize {
                0 $(+ self.$f.size())*
            }
        }
    )*};
}
record_fields! {
    MsgId { origin: NodeId, seq: u32 }
    DegreeInfo { d_rand: u16, d_near: u16, t_rand: u16, t_near: u16 }
    DeltaWire { counter: u32, add: bool, elem: u64, observed: Vec<(NodeId, u32)> }
}

/// A flag: 0 or 1.
impl Field for bool {
    const FIXED: Option<usize> = u8::FIXED;
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Field for NodeId {
    const FIXED: Option<usize> = u32::FIXED;
    fn put(&self, out: &mut Vec<u8>) {
        self.as_u32().put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        u32::take(r).map(NodeId::new)
    }
}

impl Field for LinkKind {
    const FIXED: Option<usize> = u8::FIXED;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            LinkKind::Random => 0u8,
            LinkKind::Nearby => 1,
        }
        .put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::take(r)? {
            0 => Ok(LinkKind::Random),
            1 => Ok(LinkKind::Nearby),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// The tag is [`DropReason::index`], which is exhaustive by construction.
impl Field for DropReason {
    const FIXED: Option<usize> = u8::FIXED;
    fn put(&self, out: &mut Vec<u8>) {
        (self.index() as u8).put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let t = u8::take(r)?;
        DropReason::ALL
            .get(usize::from(t))
            .copied()
            .ok_or(DecodeError::BadTag(t))
    }
}

/// The byte of a [`ProbeKind::Candidate`].
const CANDIDATE: u8 = 0xFE;
/// The byte of a [`ProbeKind::LinkMeasure`].
const LINK_MEASURE: u8 = 0xFF;

/// One byte: the landmark index, below [`MAX_LANDMARKS`], or one of the
/// two tags above.
impl Field for ProbeKind {
    const FIXED: Option<usize> = u8::FIXED;
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            ProbeKind::Landmark(i) => {
                assert!(
                    usize::from(i) < MAX_LANDMARKS,
                    "landmark index {i} exceeds MAX_LANDMARKS ({MAX_LANDMARKS})"
                );
                i
            }
            ProbeKind::Candidate => CANDIDATE,
            ProbeKind::LinkMeasure => LINK_MEASURE,
        }
        .put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::take(r)? {
            i if usize::from(i) < MAX_LANDMARKS => Ok(ProbeKind::Landmark(i)),
            CANDIDATE => Ok(ProbeKind::Candidate),
            LINK_MEASURE => Ok(ProbeKind::LinkMeasure),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Bytes of one landmark slot on the wire.
const SLOT_BYTES: usize = 3;
/// A slot's 24 bits all set: not measured.
const UNMEASURED_SLOT: u32 = 0xFF_FFFF;

/// A `u8` slot count, at most [`MAX_LANDMARKS`], then each slot as 3
/// little-endian bytes: microseconds, or `0xFFFFFF` for a slot not
/// measured. A slot holds 24 bits, so every slot has one encoding.
impl Field for LandmarkVector {
    const FIXED: Option<usize> = None;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u8).put(out);
        for i in 0..self.len() {
            // `u32::MAX` (unmeasured) becomes all ones; a measurement is
            // below them.
            let slot = self.rtt_us_at(i).min(UNMEASURED_SLOT);
            out.extend_from_slice(&slot.to_le_bytes()[..SLOT_BYTES]);
        }
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = u8::take(r)?;
        let n = usize::from(count);
        if n > MAX_LANDMARKS {
            return Err(DecodeError::BadTag(count));
        }
        let mut words = [0; MAX_LANDMARKS];
        for word in &mut words[..n] {
            let [a, b, c] = r.bytes()?;
            *word = match u32::from_le_bytes([a, b, c, 0]) {
                UNMEASURED_SLOT => u32::MAX,
                us => us,
            };
        }
        Ok(LandmarkVector::from_rtt_words(words[..n].iter().copied()))
    }
    fn size(&self) -> usize {
        1 + SLOT_BYTES * self.len()
    }
}

/// A flag, then the value; an absent value is written, and must read, 0.
impl Field for Option<u64> {
    const FIXED: Option<usize> = <(bool, u64)>::FIXED;
    fn put(&self, out: &mut Vec<u8>) {
        (self.is_some(), self.unwrap_or(0)).put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match <(bool, u64)>::take(r)? {
            (true, v) => Ok(Some(v)),
            (false, 0) => Ok(None),
            (false, _) => Err(DecodeError::BadTag(0)),
        }
    }
}

/// A flag, then the delta when there is one.
impl Field for Option<DeltaWire> {
    const FIXED: Option<usize> = None;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(d) = self {
            d.put(out);
        }
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(if bool::take(r)? {
            Some(DeltaWire::take(r)?)
        } else {
            None
        })
    }
    fn size(&self) -> usize {
        self.is_some().size() + self.as_ref().map_or(0, Field::size)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const FIXED: Option<usize> = fixed_sum(&[A::FIXED, B::FIXED]);
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::take(r)?, B::take(r)?))
    }
    fn size(&self) -> usize {
        self.0.size() + self.1.size()
    }
}

/// A `u32` count, then the elements.
impl<T: Field> Field for Vec<T> {
    const FIXED: Option<usize> = None;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::take(r)? as usize;
        // A hostile count reserves at most 4096 elements up front.
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(T::take(r)?);
        }
        Ok(v)
    }
    fn size(&self) -> usize {
        4 + match T::FIXED {
            Some(each) => each * self.len(),
            None => self.iter().map(Field::size).sum(),
        }
    }
}

/// The message table: every variant once, as `tag => Variant { fields in
/// wire order }`. It generates `Field for GoCastMsg`, the one encoder,
/// length and decoder behind the public functions below.
macro_rules! messages {
    ($($tag:literal => $v:ident { $($f:ident),* },)*) => {
        impl Field for GoCastMsg {
            const FIXED: Option<usize> = None;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(GoCastMsg::$v { $($f),* } => {
                        u8::put(&$tag, out);
                        $($f.put(out);)*
                    })*
                }
            }
            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                // Each arm wraps its own `Ok`: with one `Ok` around the
                // match, the optimizer assembled the message from byte-wide
                // pieces and decoding ran up to twice as long.
                match u8::take(r)? {
                    $($tag => Ok(GoCastMsg::$v { $($f: Field::take(r)?),* }),)*
                    t => Err(DecodeError::BadTag(t)),
                }
            }
            fn size(&self) -> usize {
                match self {
                    $(GoCastMsg::$v { $($f),* } => 1 $(+ $f.size())*,)*
                }
            }
        }
    };
}

// `Data` and `TopicData` carry their payload's length, not the payload:
// that is application data, which `Wire::wire_size` adds on top.
messages! {
    0 => Data { id, age_us, hop, size },
    1 => Gossip { ids, members, coords, degrees },
    2 => PullRequest { ids },
    3 => JoinRequest {},
    4 => JoinReply { members },
    5 => Ping { kind, sent_at_us },
    6 => Pong { kind, sent_at_us, degrees, max_nearby_rtt_us, coords },
    7 => LinkRequest { kind, rtt_us, degrees },
    8 => LinkAccept { kind, degrees },
    9 => LinkReject { kind },
    10 => LinkDrop { kind, reason },
    11 => ConnectTo { target },
    12 => TreeAd { root, epoch, seq, dist_us },
    13 => ParentSelect { selected },
    14 => TopicData { topic, id, age_us, hop, size, delta },
    15 => TopicIHave { topic, ids },
    16 => TopicPull { topic, ids },
    17 => TopicDigest { topic, vv },
    18 => TopicDeltas { topic, deltas },
}

/// Encodes a message body (header not included — the transport adds it).
///
/// The returned buffer's length always equals [`encoded_len`]`(msg)`.
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
    msg.put(out);
}

/// Exact length of [`encode`]`(msg)` computed arithmetically, without
/// building the buffer.
///
/// This is the hot-path companion to [`encode`]: traffic accounting needs
/// the wire size of every message sent, and calling `encode(msg).len()`
/// there would heap-allocate a `Vec<u8>` per send. The format uses no
/// varints, so the length is a sum of per-field sizes: constants for
/// fixed-size fields and closed forms for sequences of them. It comes
/// from the same field list as the encoder.
pub fn encoded_len(msg: &GoCastMsg) -> usize {
    msg.size()
}

/// Decodes a message body produced by [`encode`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, trailing bytes, an unknown tag,
/// or any byte [`encode`] would not have written there.
pub fn decode(buf: &[u8]) -> Result<GoCastMsg, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    // No `?`: unwrapping and re-wrapping the message here would copy it.
    let msg = GoCastMsg::take(&mut r);
    match buf.len() - r.pos {
        0 => msg,
        n => msg.and(Err(DecodeError::TrailingBytes(n))),
    }
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
                    (NodeId::new(9), coords.clone()),
                    (NodeId::new(2), LandmarkVector::unknown()),
                ],
                coords: coords.clone(),
                degrees: deg,
            },
            GoCastMsg::PullRequest {
                ids: vec![MsgId::new(NodeId::new(1), 2)],
            },
            GoCastMsg::JoinRequest,
            GoCastMsg::JoinReply {
                members: vec![(NodeId::new(5), coords.clone())],
            },
            GoCastMsg::Ping {
                kind: ProbeKind::Landmark(3),
                sent_at_us: 42,
            },
            GoCastMsg::Ping {
                kind: ProbeKind::LinkMeasure,
                sent_at_us: 7,
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
                // Only a storable landmark index is well-formed.
                0 => ProbeKind::Landmark((rng.next_u64() % MAX_LANDMARKS as u64) as u8),
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

    /// The exact bytes and `encoded_len` of every sample, in `samples()`
    /// order. The round-trip tests cannot see a field order changed the
    /// same way in encode and decode; these literals can.
    #[test]
    fn samples_encode_to_pinned_bytes() {
        const PINNED: [(&str, usize); 23] = [
            ("00030000000700000040e20100000000000400000000040000", 25),
            (
                "010200000001000000020000000a000000000000000400000000000000000000000000000002\
                 000000090000000210270050c30002000000000210270050c3000100050001000500",
                72,
            ),
            ("02010000000100000002000000", 13),
            ("03", 1),
            ("0401000000050000000210270050c300", 16),
            ("05032a00000000000000", 10),
            ("05ff0700000000000000", 10),
            (
                "06fe2a000000000000000100050001000500ffffffffffffffff0210270050c300",
                33,
            ),
            ("07010188130000000000000100050001000500", 19),
            ("07000000000000000000000100050001000500", 19),
            ("08010100050001000500", 10),
            ("0900", 2),
            ("0a0100", 3),
            ("0b11000000", 5),
            ("0c0000000002000000630000003930000000000000", 21),
            ("0d01", 2),
            ("0d00", 2),
            (
                "0e0700000003000000010000013700000000000000020000000001000000",
                30,
            ),
            (
                "0e000000000800000000000001000000000000000001000000000000000103000000002a0000\
                 00000000000200000008000000010000000900000002000000",
                63,
            ),
            ("0f02000000010000000100000009000000", 17),
            ("10020000000200000001000000090000000200000004000000", 25),
            ("110100000002000000000000000c0000000500000000000000", 25),
            (
                "120100000001000000050000000100000001070000000000000000000000",
                30,
            ),
        ];
        let samples = samples();
        assert_eq!(samples.len(), PINNED.len());
        for (msg, (hex, len)) in samples.iter().zip(PINNED) {
            let bytes: String = encode(msg).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(bytes, hex, "{msg:?}");
            assert_eq!(encoded_len(msg), len, "{msg:?}");
        }
    }

    /// Decode accepts only what encode writes: every single-byte mutation
    /// of every sample either fails to decode or re-encodes to exactly the
    /// mutated bytes.
    #[test]
    fn whatever_decodes_re_encodes_to_the_same_bytes() {
        for msg in samples() {
            let bytes = encode(&msg);
            for at in 0..bytes.len() {
                for flip in 1..=u8::MAX {
                    let mut mutated = bytes.clone();
                    mutated[at] ^= flip;
                    let Ok(back) = decode(&mutated) else { continue };
                    assert_eq!(
                        encode(&back),
                        mutated,
                        "{msg:?}: byte {at} ^ {flip:#04x} decodes to {back:?}, \
                         which re-encodes to other bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let bytes = encode(&msg);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    /// A vector shared between entries encodes as the values it holds:
    /// the same bytes as vectors built apart, and a decode gives each
    /// entry a block of its own.
    #[test]
    fn a_shared_vector_round_trips_byte_for_byte() {
        let ms = std::time::Duration::from_millis;
        let gossip = |[a, b]: [LandmarkVector; 2], coords| GoCastMsg::Gossip {
            ids: vec![],
            members: vec![(NodeId::new(4), a), (NodeId::new(6), b)],
            coords,
            degrees: DegreeInfo::default(),
        };
        let fresh = || LandmarkVector::from_rtts([ms(12), ms(30)]);
        let shared = fresh();
        let together = gossip([shared.clone(), shared.clone()], shared.clone());
        let apart = gossip([fresh(), fresh()], fresh());
        let bytes = encode(&together);
        assert_eq!(bytes, encode(&apart));
        let back = decode(&bytes).unwrap();
        assert_eq!(back, together);
        assert_eq!(encode(&back), bytes);
        let GoCastMsg::Gossip {
            members, coords, ..
        } = back
        else {
            panic!("{back:?}")
        };
        assert!(!members[0].1.shares_storage(&members[1].1));
        assert!(!coords.shares_storage(&shared));
    }

    /// A join reply carrying one member whose vector has `n` slots, each
    /// holding 10 ms; the vector is the frame's last field.
    fn one_member_frame(n: usize) -> Vec<u8> {
        let ms = std::time::Duration::from_millis;
        let coords = LandmarkVector::from_rtts((0..n).map(|_| ms(10)));
        encode(&GoCastMsg::JoinReply {
            members: vec![(NodeId::new(5), coords)],
        })
    }

    /// A slot is 3 bytes on the wire and 24 bits in a vector: the smallest
    /// and largest measurements and the all-ones "not measured" slot come
    /// back exactly and re-encode to the same bytes.
    #[test]
    fn landmark_slots_round_trip_exactly_and_all_ones_is_unmeasured() {
        for (slot, rtt_us) in [
            (0u32, 0u32),
            (1, 1),
            ((1 << 24) - 2, (1 << 24) - 2),
            (0xFF_FFFF, u32::MAX),
        ] {
            let mut bytes = one_member_frame(1);
            let at = bytes.len() - SLOT_BYTES;
            bytes[at..].copy_from_slice(&slot.to_le_bytes()[..SLOT_BYTES]);
            let msg = decode(&bytes).unwrap_or_else(|e| panic!("slot {slot:#x}: {e}"));
            let GoCastMsg::JoinReply { members } = &msg else {
                panic!("{msg:?}")
            };
            let coords = &members[0].1;
            assert_eq!(coords.len(), 1);
            assert_eq!(coords.rtt_us_at(0), rtt_us, "slot {slot:#x}");
            assert_eq!(coords.is_complete(1), rtt_us != u32::MAX);
            assert_eq!(encode(&msg), bytes, "slot {slot:#x}");
            assert_eq!(encoded_len(&msg), bytes.len());
        }
    }

    /// A slot count past what a vector holds is malformed, and a frame
    /// that ends inside a slot is truncated.
    #[test]
    fn landmark_count_past_the_slots_and_a_cut_slot_are_rejected() {
        let frame = one_member_frame(2);
        let count_at = frame.len() - 1 - 2 * SLOT_BYTES;
        assert_eq!(frame[count_at], 2);
        for count in MAX_LANDMARKS as u8 + 1..=u8::MAX {
            let mut bytes = frame.clone();
            bytes[count_at] = count;
            assert_eq!(decode(&bytes), Err(DecodeError::BadTag(count)));
        }
        for cut in 1..SLOT_BYTES {
            for slots_whole in 0..2 {
                let end = count_at + 1 + slots_whole * SLOT_BYTES + cut;
                assert_eq!(decode(&frame[..end]), Err(DecodeError::Truncated));
            }
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

    /// A landmark index a node cannot store is malformed, in a ping and
    /// in the pong that echoes it; the last storable one round-trips. So
    /// is every kind byte between the indices and the two tags.
    #[test]
    fn landmark_index_past_the_slots_is_rejected() {
        let last = MAX_LANDMARKS as u8 - 1;
        let pong = GoCastMsg::Pong {
            kind: ProbeKind::Landmark(last),
            sent_at_us: 1,
            degrees: DegreeInfo::default(),
            max_nearby_rtt_us: 0,
            coords: LandmarkVector::unknown(),
        };
        let ping = GoCastMsg::Ping {
            kind: ProbeKind::Landmark(last),
            sent_at_us: 1,
        };
        for msg in [pong, ping] {
            let bytes = encode(&msg);
            // The kind is the byte after the message tag.
            assert_eq!(bytes[1], last);
            assert_eq!(decode(&bytes), Ok(msg));
            for kind in MAX_LANDMARKS as u8..CANDIDATE {
                let mut bad = bytes.clone();
                bad[1] = kind;
                assert_eq!(decode(&bad), Err(DecodeError::BadTag(kind)));
            }
        }
    }

    /// An index no kind byte carries is a bug at the sender, as storing
    /// it in a vector is.
    #[test]
    #[should_panic(expected = "exceeds MAX_LANDMARKS")]
    fn encoding_a_landmark_index_past_the_slots_panics() {
        encode(&GoCastMsg::Ping {
            kind: ProbeKind::Landmark(MAX_LANDMARKS as u8),
            sent_at_us: 1,
        });
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
