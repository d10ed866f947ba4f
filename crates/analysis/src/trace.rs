//! Causal trace analysis: JSONL parsing, per-message dissemination-tree
//! reconstruction, and the online invariant oracle.
//!
//! The input is the event stream a [`gocast_sim::TraceRecorder`] writes —
//! one flat JSON object per line, schema defined by `GoCastEvent`'s
//! `TraceEvent` impl in `gocast-core`. This module turns that stream back
//! into structure:
//!
//! - [`parse_line`] / [`scan_trace`] — a dependency-free parser for the
//!   flat JSONL schema (the vendored serde is a stub, so this is the real
//!   decoder); a [`TraceRecord`] carries the `GoCastEvent` the node
//!   emitted, so online and offline consumers match on one vocabulary;
//! - [`TraceAnalysis`] — reconstructs every message's dissemination tree
//!   from the `from`/`hop` causal metadata on deliveries, and computes
//!   hop-count histograms, a per-hop latency breakdown, and the
//!   tree-vs-pull recovery fraction (the paper's core dependability
//!   claim);
//! - [`InvariantOracle`] — checks protocol invariants either online (it
//!   is a [`Recorder`] over `GoCastEvent`) or offline over parsed
//!   records, collecting [`Violation`]s instead of panicking so tests and
//!   the `trace` experiment subcommand can fail loudly with context.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io::BufRead;

use gocast::{DeliveryPath, DropReason, GoCastConfig, GoCastEvent, LinkKind, MsgId};
use gocast_sim::{NodeId, Recorder, SimTime, StackCaps};

// ---------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------

/// Which stack produced a trace record — the `"proto"` JSONL field.
///
/// PR-2-era traces predate the tag; [`parse_line`] / [`scan_trace`]
/// default records without it to [`ProtoTag::GoCast`], so old traces
/// still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoTag {
    /// The GoCast stack (also the default for untagged records).
    #[default]
    GoCast,
    /// The Plumtree/HyParView rival stack.
    Plumtree,
    /// The push-gossip baseline.
    PushGossip,
    /// The application tier (multi-topic pub/sub + CRDT) over GoCast.
    App,
}

impl ProtoTag {
    /// Parses the stable JSONL value (`gocast`, `plumtree`,
    /// `push-gossip`). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "gocast" => ProtoTag::GoCast,
            "plumtree" => ProtoTag::Plumtree,
            "push-gossip" => ProtoTag::PushGossip,
            "gocast-app" => ProtoTag::App,
            _ => return None,
        })
    }

    /// The stable JSONL value.
    pub fn name(self) -> &'static str {
        match self {
            ProtoTag::GoCast => "gocast",
            ProtoTag::Plumtree => "plumtree",
            ProtoTag::PushGossip => "push-gossip",
            ProtoTag::App => "gocast-app",
        }
    }
}

impl fmt::Display for ProtoTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One parsed trace line: when, where, what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time in microseconds.
    pub t_us: u64,
    /// The node that emitted the event.
    pub node: u32,
    /// The stack that produced the record (defaulted to
    /// [`ProtoTag::GoCast`] when the line carries no `proto` field).
    pub proto: ProtoTag,
    /// The event itself.
    pub ev: GoCastEvent,
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

/// A malformed trace line or an IO failure while scanning a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Reading the underlying stream failed.
    Io(std::io::Error),
    /// A line did not match the schema.
    Parse {
        /// 1-based line number (0 when parsing a bare line).
        line: u64,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace read error: {e}"),
            TraceError::Parse { line, msg } => write!(f, "trace line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Val<'a> {
    Num(u64),
    Str(&'a str),
    Null,
}

/// Tokenizes one flat JSON object (string values without escapes,
/// non-negative integers, null) into key/value pairs.
fn parse_object(line: &str) -> Result<Vec<(&str, Val<'_>)>, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let quoted = |i: &mut usize| -> Result<&str, String> {
        if *i >= b.len() || b[*i] != b'"' {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        let start = *i;
        while *i < b.len() && b[*i] != b'"' {
            if b[*i] == b'\\' {
                return Err("escapes are not part of the trace schema".into());
            }
            *i += 1;
        }
        if *i >= b.len() {
            return Err("unterminated string".into());
        }
        let s = &line[start..*i];
        *i += 1;
        Ok(s)
    };

    skip_ws(&mut i);
    if i >= b.len() || b[i] != b'{' {
        return Err("expected '{'".into());
    }
    i += 1;
    let mut out = Vec::with_capacity(8);
    skip_ws(&mut i);
    if i < b.len() && b[i] == b'}' {
        i += 1;
    } else {
        loop {
            skip_ws(&mut i);
            let key = quoted(&mut i)?;
            skip_ws(&mut i);
            if i >= b.len() || b[i] != b':' {
                return Err(format!("expected ':' after key {key:?}"));
            }
            i += 1;
            skip_ws(&mut i);
            let val = if i < b.len() && b[i] == b'"' {
                Val::Str(quoted(&mut i)?)
            } else if line[i..].starts_with("null") {
                i += 4;
                Val::Null
            } else {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i == start {
                    return Err(format!("expected a value for key {key:?}"));
                }
                let n: u64 = line[start..i]
                    .parse()
                    .map_err(|e| format!("bad number for key {key:?}: {e}"))?;
                Val::Num(n)
            };
            out.push((key, val));
            skip_ws(&mut i);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }
    skip_ws(&mut i);
    if i != b.len() {
        return Err(format!("trailing bytes after object: {:?}", &line[i..]));
    }
    Ok(out)
}

fn field<'a>(fields: &[(&str, Val<'a>)], key: &str) -> Result<Val<'a>, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn num_u64(fields: &[(&str, Val<'_>)], key: &str) -> Result<u64, String> {
    match field(fields, key)? {
        Val::Num(n) => Ok(n),
        other => Err(format!("field {key:?} is not a number: {other:?}")),
    }
}

fn num(fields: &[(&str, Val<'_>)], key: &str) -> Result<u32, String> {
    u32::try_from(num_u64(fields, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn node_id(fields: &[(&str, Val<'_>)], key: &str) -> Result<NodeId, String> {
    num(fields, key).map(NodeId::new)
}

fn string<'a>(fields: &[(&str, Val<'a>)], key: &str) -> Result<&'a str, String> {
    match field(fields, key)? {
        Val::Str(s) => Ok(s),
        other => Err(format!("field {key:?} is not a string: {other:?}")),
    }
}

/// Parses one JSONL trace line.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] (with `line = 0`) when the line does not
/// match the schema; use [`scan_trace`] for numbered errors over a file.
pub fn parse_line(line: &str) -> Result<TraceRecord, TraceError> {
    parse_line_inner(line).map_err(|msg| TraceError::Parse { line: 0, msg })
}

fn parse_line_inner(line: &str) -> Result<TraceRecord, String> {
    let fields = parse_object(line)?;
    let t_us = num_u64(&fields, "t_us")?;
    let node = num(&fields, "node")?;
    // Optional stack tag; records from before the tag existed default to
    // GoCast (the only stack that could have written them).
    let proto = match field(&fields, "proto") {
        Err(_) => ProtoTag::GoCast,
        Ok(Val::Str(s)) => ProtoTag::parse(s).ok_or_else(|| format!("unknown proto {s:?}"))?,
        Ok(other) => return Err(format!("field \"proto\" is not a string: {other:?}")),
    };
    let ev_name = string(&fields, "ev")?;
    let msg_id = || -> Result<MsgId, String> {
        Ok(MsgId::new(
            node_id(&fields, "origin")?,
            num(&fields, "seq")?,
        ))
    };
    let ev = match ev_name {
        "injected" => GoCastEvent::Injected { id: msg_id()? },
        "delivered" => {
            let id = msg_id()?;
            let via = string(&fields, "via")?;
            GoCastEvent::Delivered {
                id,
                from: node_id(&fields, "from")?,
                hop: num(&fields, "hop")?,
                via: DeliveryPath::parse(via).ok_or_else(|| format!("unknown via {via:?}"))?,
            }
        }
        "redundant_data" => GoCastEvent::RedundantData {
            id: msg_id()?,
            from: node_id(&fields, "from")?,
        },
        "push_sent" => GoCastEvent::PushSent {
            id: msg_id()?,
            to: node_id(&fields, "to")?,
            hop: num(&fields, "hop")?,
        },
        "ihave_sent" => GoCastEvent::IHaveSent {
            id: msg_id()?,
            to: node_id(&fields, "to")?,
        },
        "pull_requested" => GoCastEvent::PullRequested {
            id: msg_id()?,
            to: node_id(&fields, "to")?,
        },
        "pull_served" => GoCastEvent::PullServed {
            id: msg_id()?,
            to: node_id(&fields, "to")?,
            hop: num(&fields, "hop")?,
        },
        "link_added" => {
            let kind = string(&fields, "kind")?;
            GoCastEvent::LinkAdded {
                peer: node_id(&fields, "peer")?,
                kind: LinkKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
            }
        }
        "link_dropped" => {
            let kind = string(&fields, "kind")?;
            let reason = string(&fields, "reason")?;
            GoCastEvent::LinkDropped {
                peer: node_id(&fields, "peer")?,
                kind: LinkKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
                reason: DropReason::parse(reason)
                    .ok_or_else(|| format!("unknown reason {reason:?}"))?,
            }
        }
        "parent_changed" => GoCastEvent::ParentChanged {
            parent: match field(&fields, "parent")? {
                Val::Null => None,
                Val::Num(_) => Some(node_id(&fields, "parent")?),
                other => return Err(format!("field \"parent\" is not a number: {other:?}")),
            },
        },
        "became_root" => GoCastEvent::BecameRoot {
            epoch: num(&fields, "epoch")?,
        },
        "topic_delivered" => GoCastEvent::TopicDelivered {
            id: msg_id()?,
            topic: num(&fields, "topic")?,
            bytes: num(&fields, "bytes")?,
        },
        "topic_subscribed" => GoCastEvent::TopicSubscribed {
            topic: num(&fields, "topic")?,
        },
        "topic_unsubscribed" => GoCastEvent::TopicUnsubscribed {
            topic: num(&fields, "topic")?,
        },
        "delta_published" => GoCastEvent::DeltaPublished {
            topic: num(&fields, "topic")?,
            counter: num(&fields, "counter")?,
        },
        "delta_applied" => GoCastEvent::DeltaApplied {
            topic: num(&fields, "topic")?,
            origin: node_id(&fields, "origin")?,
            counter: num(&fields, "counter")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceRecord {
        t_us,
        node,
        proto,
        ev,
    })
}

/// Streams a JSONL trace from `reader`, invoking `f` per record.
///
/// Empty lines are skipped. O(1) memory in the trace length.
///
/// # Errors
///
/// Returns the first IO or parse error ([`TraceError::Parse`] carries the
/// 1-based line number).
pub fn scan_trace<R: BufRead>(
    reader: R,
    mut f: impl FnMut(TraceRecord),
) -> Result<u64, TraceError> {
    let mut count = 0u64;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        // Run-manifest header lines stamp provenance on the artifact; they
        // carry no trace record.
        if line.starts_with("{\"manifest\":") {
            continue;
        }
        let rec = parse_line_inner(&line).map_err(|msg| TraceError::Parse {
            line: idx as u64 + 1,
            msg,
        })?;
        count += 1;
        f(rec);
    }
    Ok(count)
}

// ---------------------------------------------------------------------
// Dissemination-tree reconstruction.
// ---------------------------------------------------------------------

/// One delivery inside a message's dissemination tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the node delivered, µs.
    pub t_us: u64,
    /// Causal parent (who sent the payload).
    pub from: u32,
    /// Causal hop count from the origin.
    pub hop: u32,
    /// Tree push or pull recovery.
    pub via: DeliveryPath,
}

#[derive(Debug, Clone, Default)]
struct MsgTrace {
    injected_at: Option<u64>,
    /// node -> first delivery (later duplicates are the oracle's problem).
    deliveries: BTreeMap<u32, Delivery>,
}

/// Streaming reconstruction of per-message dissemination trees.
///
/// Feed parsed records (or use it as the target of [`scan_trace`]), then
/// call [`TraceAnalysis::report`]. Memory is O(messages × receivers) — the
/// trees themselves — and independent of gossip/push/pull event volume.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    msgs: BTreeMap<MsgId, MsgTrace>,
    records: u64,
}

impl TraceAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record in.
    pub fn feed(&mut self, rec: &TraceRecord) {
        self.records += 1;
        match rec.ev {
            GoCastEvent::Injected { id } => {
                let m = self.msgs.entry(id).or_default();
                m.injected_at = Some(match m.injected_at {
                    Some(t) => t.min(rec.t_us),
                    None => rec.t_us,
                });
            }
            GoCastEvent::Delivered { id, via, from, hop } => {
                let m = self.msgs.entry(id).or_default();
                m.deliveries.entry(rec.node).or_insert(Delivery {
                    t_us: rec.t_us,
                    from: from.as_u32(),
                    hop,
                    via,
                });
            }
            _ => {}
        }
    }

    /// Messages seen so far.
    pub fn message_count(&self) -> usize {
        self.msgs.len()
    }

    /// Computes the report over everything fed so far.
    pub fn report(&self) -> TraceReport {
        let mut r = TraceReport {
            messages: self.msgs.len(),
            records: self.records,
            ..TraceReport::default()
        };
        let mut hop_lat_sum_us: Vec<u64> = Vec::new();
        let mut hop_lat_n: Vec<u64> = Vec::new();
        for (id, m) in &self.msgs {
            let origin = id.origin.as_u32();
            let mut ok = m.injected_at.is_some();
            for d in m.deliveries.values() {
                r.deliveries += 1;
                match d.via {
                    DeliveryPath::Pull => r.pull_deliveries += 1,
                    _ => r.tree_deliveries += 1,
                }
                let hop = d.hop as usize;
                if r.hop_histogram.len() <= hop {
                    r.hop_histogram.resize(hop + 1, 0);
                }
                r.hop_histogram[hop] += 1;

                // Validate the causal edge and collect the per-hop latency
                // (delivery time minus the parent's delivery time; hop 1
                // measures against the injection).
                let parent_t = if d.hop <= 1 {
                    if d.from == origin {
                        m.injected_at
                    } else {
                        None
                    }
                } else {
                    m.deliveries
                        .get(&d.from)
                        .filter(|p| p.hop + 1 == d.hop)
                        .map(|p| p.t_us)
                };
                match parent_t {
                    Some(t0) if t0 <= d.t_us && d.hop >= 1 => {
                        let hop = d.hop as usize;
                        if hop_lat_sum_us.len() <= hop {
                            hop_lat_sum_us.resize(hop + 1, 0);
                            hop_lat_n.resize(hop + 1, 0);
                        }
                        hop_lat_sum_us[hop] += d.t_us - t0;
                        hop_lat_n[hop] += 1;
                    }
                    _ => ok = false,
                }
            }
            if ok {
                r.trees_reconstructed += 1;
            }
        }
        r.per_hop_latency = hop_lat_sum_us
            .iter()
            .zip(hop_lat_n.iter())
            .enumerate()
            .filter(|&(_, (_, &n))| n > 0)
            .map(|(hop, (&sum, &n))| PerHopLatency {
                hop: hop as u32,
                mean_ms: sum as f64 / n as f64 / 1_000.0,
                samples: n,
            })
            .collect();
        r
    }
}

/// Mean link latency at one causal depth of the dissemination trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerHopLatency {
    /// Causal hop (1 = the origin's own sends).
    pub hop: u32,
    /// Mean time spent crossing into this hop, milliseconds.
    pub mean_ms: f64,
    /// Number of deliveries at this hop that had a valid causal parent.
    pub samples: u64,
}

/// What [`TraceAnalysis::report`] computed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Distinct messages in the trace.
    pub messages: usize,
    /// Total records fed.
    pub records: u64,
    /// Total first deliveries.
    pub deliveries: u64,
    /// Deliveries via tree push.
    pub tree_deliveries: u64,
    /// Deliveries via gossip-triggered pull recovery.
    pub pull_deliveries: u64,
    /// Messages whose every delivery chains back to the injection through
    /// valid `(from, hop)` causal edges.
    pub trees_reconstructed: usize,
    /// Delivery count by causal hop (index = hop).
    pub hop_histogram: Vec<u64>,
    /// Per-hop latency breakdown.
    pub per_hop_latency: Vec<PerHopLatency>,
}

impl TraceReport {
    /// Fraction of deliveries that needed gossip/pull recovery rather than
    /// the tree push — the paper's tree-vs-gossip recovery split.
    pub fn recovery_fraction(&self) -> f64 {
        if self.deliveries == 0 {
            0.0
        } else {
            self.pull_deliveries as f64 / self.deliveries as f64
        }
    }

    /// Whether every message's dissemination tree reconstructed fully.
    pub fn all_trees_reconstructed(&self) -> bool {
        self.trees_reconstructed == self.messages
    }

    /// Mean causal hop count over all deliveries.
    pub fn mean_hops(&self) -> f64 {
        let total: u64 = self.hop_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .hop_histogram
            .iter()
            .enumerate()
            .map(|(hop, &n)| hop as u64 * n)
            .sum();
        weighted as f64 / total as f64
    }

    /// Largest causal hop observed.
    pub fn max_hop(&self) -> u32 {
        (self.hop_histogram.len().saturating_sub(1)) as u32
    }
}

// ---------------------------------------------------------------------
// Invariant oracle.
// ---------------------------------------------------------------------

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A node delivered a message before (or without) the origin's
    /// injection appearing in the trace.
    DeliveryBeforeSend,
    /// A node delivered the same message twice.
    DuplicateDelivery,
    /// A link addition pushed a degree past its bound.
    DegreeBound,
    /// A node pulled a message it already held.
    PullAfterDelivery,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::DeliveryBeforeSend => "delivery_before_send",
            ViolationKind::DuplicateDelivery => "duplicate_delivery",
            ViolationKind::DegreeBound => "degree_bound",
            ViolationKind::PullAfterDelivery => "pull_after_delivery",
        })
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// When, µs.
    pub t_us: u64,
    /// The offending node.
    pub node: u32,
    /// The invariant broken.
    pub kind: ViolationKind,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={}µs n{}] {}: {}",
            self.t_us, self.node, self.kind, self.detail
        )
    }
}

/// Bounds, grace settings, and the per-stack capability switches for the
/// [`InvariantOracle`].
///
/// The universal invariants (no delivery before send, no duplicate
/// delivery) are always enforced. The stack-specific checks — degree
/// bounds and pull-after-delivery — are enabled per stack through
/// [`OracleConfig::with_caps`], so the oracle cleanly *skips* a check a
/// stack's design never promised instead of mis-firing on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Maximum random degree after any link addition
    /// (`C_rand + degree_slack`).
    pub max_rand: usize,
    /// Maximum nearby degree after any link addition
    /// (`C_near + degree_slack`).
    pub max_near: usize,
    /// Ignore degree-bound checks at or before this time (µs). The
    /// bootstrap graph installs links of arbitrary degree at t=0; the
    /// degree rules only bound *protocol* additions.
    pub degree_check_after_us: u64,
    /// Enforce the degree bounds (GoCast's accept-rule ceiling). Off for
    /// stacks whose views are unbounded or evict reactively.
    pub check_degree_bounds: bool,
    /// Enforce "never pull/graft a message the node already holds".
    pub check_pull_after_delivery: bool,
}

impl OracleConfig {
    /// Derives the bounds from a GoCast protocol configuration, with
    /// every check enabled.
    pub fn for_protocol(cfg: &GoCastConfig) -> Self {
        OracleConfig {
            max_rand: cfg.c_rand + cfg.degree_slack,
            max_near: cfg.c_near + cfg.degree_slack,
            degree_check_after_us: 1,
            check_degree_bounds: true,
            check_pull_after_delivery: true,
        }
    }

    /// Only the universal checks: no stack-specific invariant enforced.
    pub fn universal() -> Self {
        OracleConfig {
            max_rand: usize::MAX,
            max_near: usize::MAX,
            degree_check_after_us: 0,
            check_degree_bounds: false,
            check_pull_after_delivery: false,
        }
    }

    /// Restricts the enabled checks to what `caps` promises (builder
    /// style). Never *enables* a check the config had off.
    pub fn with_caps(mut self, caps: &StackCaps) -> Self {
        self.check_degree_bounds &= caps.degree_bounds;
        self.check_pull_after_delivery &= caps.pull_after_delivery;
        self
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self::for_protocol(&GoCastConfig::default())
    }
}

/// Checks protocol invariants over a trace, online or offline.
///
/// Invariants (from the paper's protocol description):
///
/// 1. **No delivery before origin send** — every delivery's message was
///    injected earlier in the trace.
/// 2. **At most one delivery per node per message** (assumes the trace is
///    shorter than the GC waiting period `b`, so the store never forgets a
///    live message).
/// 3. **Degree bounds at every completed overlay change** — after any
///    protocol link addition, `D_rand ≤ C_rand + slack` and
///    `D_near ≤ C_near + slack` (the accept rules' ceiling; bootstrap
///    edges at t=0 are exempt). Make-before-break replacements add the
///    new link before dropping the victim *within one handler*, so an
///    overshoot is tolerated exactly until the node's clock advances: if
///    a matching drop at the same instant restores the bound, nothing is
///    flagged; otherwise the addition is reported. Call
///    [`InvariantOracle::finish`] after the last record so an overshoot
///    at the very end of the trace is not silently forgiven.
/// 4. **No pull for a message already held** (delivered or self-injected).
///
/// Violations are collected, not panicked — callers assert
/// [`InvariantOracle::is_clean`] (tests) or print and exit nonzero (the
/// `trace` subcommand).
///
/// It implements [`Recorder`] over `GoCastEvent`, so a simulation can run
/// with the oracle attached and zero extra plumbing.
#[derive(Debug, Default)]
pub struct InvariantOracle {
    cfg: OracleConfig,
    injected: HashMap<MsgId, u64>,
    delivered: HashSet<(NodeId, MsgId)>,
    /// Anything a node holds (delivery or own injection) — the
    /// pull-after-delivery check.
    held: HashSet<(NodeId, MsgId)>,
    /// node -> [d_rand, d_near] reconstructed from link events.
    degrees: HashMap<NodeId, [u32; 2]>,
    /// (node, kind index) -> violation pending from a degree overshoot,
    /// forgiven only if a drop at the same instant restores the bound.
    overshoots: BTreeMap<(NodeId, u8), Violation>,
    violations: Vec<Violation>,
    records: u64,
}

impl InvariantOracle {
    /// Creates an oracle with explicit bounds.
    pub fn new(cfg: OracleConfig) -> Self {
        InvariantOracle {
            cfg,
            ..Default::default()
        }
    }

    /// Creates an oracle whose degree bounds match `cfg`.
    pub fn for_protocol(cfg: &GoCastConfig) -> Self {
        Self::new(OracleConfig::for_protocol(cfg))
    }

    /// The violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records checked.
    pub fn records_checked(&self) -> u64 {
        self.records
    }

    fn violate(&mut self, t_us: u64, node: NodeId, kind: ViolationKind, detail: String) {
        self.violations.push(Violation {
            t_us,
            node: node.as_u32(),
            kind,
            detail,
        });
    }

    /// Promotes pending degree overshoots that the trace's clock has moved
    /// past: no same-instant drop can arrive for them any more.
    fn flush_overshoots(&mut self, now_us: u64) {
        while let Some((&key, v)) = self.overshoots.iter().find(|(_, v)| v.t_us < now_us) {
            let v = v.clone();
            self.overshoots.remove(&key);
            self.violations.push(v);
        }
    }

    /// Declares the trace over: any still-pending degree overshoot becomes
    /// a violation. Call after the last record, before reading
    /// [`InvariantOracle::violations`] / [`InvariantOracle::is_clean`].
    pub fn finish(&mut self) {
        self.flush_overshoots(u64::MAX);
    }

    /// Checks one record.
    pub fn check(&mut self, rec: &TraceRecord) {
        self.check_event(rec.t_us, NodeId::new(rec.node), &rec.ev);
    }

    fn check_event(&mut self, t_us: u64, node: NodeId, ev: &GoCastEvent) {
        self.records += 1;
        self.flush_overshoots(t_us);
        match *ev {
            GoCastEvent::Injected { id } => {
                let t = self.injected.entry(id).or_insert(t_us);
                *t = (*t).min(t_us);
                self.held.insert((node, id));
            }
            GoCastEvent::Delivered { id, .. } => {
                match self.injected.get(&id) {
                    None => self.violate(
                        t_us,
                        node,
                        ViolationKind::DeliveryBeforeSend,
                        format!("delivered {id} with no prior injection in the trace"),
                    ),
                    Some(&t0) if t_us < t0 => self.violate(
                        t_us,
                        node,
                        ViolationKind::DeliveryBeforeSend,
                        format!("delivered {id} at {t_us}µs, injected at {t0}µs"),
                    ),
                    _ => {}
                }
                if !self.delivered.insert((node, id)) {
                    self.violate(
                        t_us,
                        node,
                        ViolationKind::DuplicateDelivery,
                        format!("second delivery of {id}"),
                    );
                }
                self.held.insert((node, id));
            }
            GoCastEvent::PullRequested { id, to }
                if self.cfg.check_pull_after_delivery && self.held.contains(&(node, id)) =>
            {
                self.violate(
                    t_us,
                    node,
                    ViolationKind::PullAfterDelivery,
                    format!("pulled {id} from {to} but already holds it"),
                );
            }
            GoCastEvent::LinkAdded { peer, kind } => {
                let (idx, bound) = self.degree_slot(kind);
                let d = self.degrees.entry(node).or_insert([0, 0]);
                d[idx] += 1;
                if self.cfg.check_degree_bounds
                    && t_us > self.cfg.degree_check_after_us
                    && d[idx] > bound
                {
                    // Pend, don't flag: a make-before-break replacement
                    // drops the victim at this same instant.
                    let count = d[idx];
                    self.overshoots
                        .entry((node, idx as u8))
                        .or_insert(Violation {
                            t_us,
                            node: node.as_u32(),
                            kind: ViolationKind::DegreeBound,
                            detail: format!(
                                "{kind} link to {peer} raises degree to {count} > bound {bound} \
                                 with no same-instant drop restoring it"
                            ),
                        });
                }
            }
            GoCastEvent::LinkDropped { kind, .. } => {
                let (idx, bound) = self.degree_slot(kind);
                let d = self.degrees.entry(node).or_insert([0, 0]);
                d[idx] = d[idx].saturating_sub(1);
                if d[idx] <= bound {
                    self.overshoots.remove(&(node, idx as u8));
                }
            }
            _ => {}
        }
    }

    /// Index into a node's `[d_rand, d_near]` pair and the bound on it.
    fn degree_slot(&self, kind: LinkKind) -> (usize, u32) {
        match kind {
            LinkKind::Random => (0, self.cfg.max_rand as u32),
            LinkKind::Nearby => (1, self.cfg.max_near as u32),
        }
    }
}

impl Recorder<GoCastEvent> for InvariantOracle {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        self.check_event(now.as_nanos() / 1_000, node, &event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast::MsgId;

    fn rec(t_us: u64, node: u32, ev: GoCastEvent) -> TraceRecord {
        TraceRecord {
            t_us,
            node,
            proto: ProtoTag::default(),
            ev,
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn injected(origin: u32, seq: u32) -> GoCastEvent {
        GoCastEvent::Injected {
            id: MsgId::new(n(origin), seq),
        }
    }

    fn delivered(origin: u32, seq: u32, from: u32, hop: u32, via: DeliveryPath) -> GoCastEvent {
        GoCastEvent::Delivered {
            id: MsgId::new(n(origin), seq),
            via,
            from: n(from),
            hop,
        }
    }

    fn pull_requested(origin: u32, seq: u32, to: u32) -> GoCastEvent {
        GoCastEvent::PullRequested {
            id: MsgId::new(n(origin), seq),
            to: n(to),
        }
    }

    fn link_added(peer: u32, kind: LinkKind) -> GoCastEvent {
        GoCastEvent::LinkAdded {
            peer: n(peer),
            kind,
        }
    }

    fn link_dropped(peer: u32, kind: LinkKind, reason: DropReason) -> GoCastEvent {
        GoCastEvent::LinkDropped {
            peer: n(peer),
            kind,
            reason,
        }
    }

    /// The sample that follows `ev` in the round-trip list. The match has
    /// no wildcard arm, so a new `GoCastEvent` variant does not compile
    /// until it has a sample here — and the round trip then fails until
    /// the variant is both traced and parsed.
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
            GoCastEvent::PullServed { .. } => link_added(6, LinkKind::Random),
            GoCastEvent::LinkAdded { .. } => {
                link_dropped(6, LinkKind::Nearby, DropReason::Rebalanced)
            }
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
    fn jsonl_round_trips_through_trace_recorder() {
        use gocast_sim::TraceRecorder;
        let events: Vec<GoCastEvent> =
            std::iter::successors(Some(injected(0, 7)), next_sample).collect();
        assert_eq!(events.len(), 17, "16 variants, ParentChanged both ways");
        let mut w = TraceRecorder::new(Vec::new());
        let written: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, ev)| {
                let (t_ms, node) = (i as u64 + 1, i as u32 % 5);
                w.record(SimTime::from_millis(t_ms), n(node), ev.clone());
                rec(t_ms * 1_000, node, ev)
            })
            .collect();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let mut parsed = Vec::new();
        scan_trace(text.as_bytes(), |r| parsed.push(r)).unwrap();
        assert_eq!(parsed, written);
    }

    #[test]
    fn proto_tag_parses_and_defaults_to_gocast() {
        // PR-2-era line without a proto field: defaults to gocast.
        let old = parse_line("{\"t_us\":1,\"node\":0,\"ev\":\"injected\",\"origin\":0,\"seq\":0}")
            .unwrap();
        assert_eq!(old.proto, ProtoTag::GoCast);
        // Tagged line round-trips the tag.
        let tagged = parse_line(
            "{\"t_us\":1,\"node\":0,\"proto\":\"plumtree\",\"ev\":\"injected\",\
             \"origin\":0,\"seq\":0}",
        )
        .unwrap();
        assert_eq!(tagged.proto, ProtoTag::Plumtree);
        assert_eq!(ProtoTag::parse(tagged.proto.name()), Some(tagged.proto));
        // Unknown tags are a schema error, not a silent default.
        assert!(parse_line(
            "{\"t_us\":1,\"node\":0,\"proto\":\"carrier-pigeon\",\"ev\":\"injected\",\
             \"origin\":0,\"seq\":0}"
        )
        .is_err());
    }

    #[test]
    fn universal_oracle_skips_stack_specific_checks() {
        let mut o = InvariantOracle::new(OracleConfig::universal());
        // A pull of a held message: GoCast-specific, skipped here.
        o.check(&rec(5, 0, injected(0, 0)));
        o.check(&rec(9, 0, pull_requested(0, 0, 1)));
        // Degree churn past any plausible bound: also skipped.
        for peer in 0..50 {
            o.check(&rec(20, 0, link_added(peer, LinkKind::Random)));
        }
        o.finish();
        assert!(o.is_clean(), "{:?}", o.violations());
        // The universal checks still fire.
        o.check(&rec(30, 1, delivered(9, 9, 0, 1, DeliveryPath::Tree)));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::DeliveryBeforeSend);
    }

    #[test]
    fn with_caps_restricts_but_never_enables() {
        use gocast_sim::StackCaps;
        let base = OracleConfig::default();
        let capped = base.with_caps(&StackCaps {
            degree_bounds: false,
            pull_after_delivery: true,
            tree: false,
        });
        assert!(!capped.check_degree_bounds);
        assert!(capped.check_pull_after_delivery);
        let u = OracleConfig::universal().with_caps(&StackCaps::all());
        assert!(!u.check_degree_bounds && !u.check_pull_after_delivery);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"t_us\":1}").is_err()); // missing node/ev
        assert!(parse_line("{\"t_us\":1,\"node\":0,\"ev\":\"nope\"}").is_err());
        assert!(parse_line(
            "{\"t_us\":1,\"node\":0,\"ev\":\"delivered\",\"origin\":0,\"seq\":0,\
             \"from\":0,\"hop\":1,\"via\":\"teleport\"}"
        )
        .is_err());
        // Trailing garbage after the object.
        assert!(parse_line("{\"t_us\":1,\"node\":0,\"ev\":\"became_root\",\"epoch\":0}x").is_err());
    }

    #[test]
    fn reconstructs_a_simple_tree() {
        let mut a = TraceAnalysis::new();
        let m = (0u32, 0u32);
        a.feed(&rec(1_000, 0, injected(m.0, m.1)));
        a.feed(&rec(
            11_000,
            1,
            delivered(m.0, m.1, 0, 1, DeliveryPath::Tree),
        ));
        a.feed(&rec(
            26_000,
            2,
            delivered(m.0, m.1, 1, 2, DeliveryPath::Tree),
        ));
        a.feed(&rec(
            500_000,
            3,
            delivered(m.0, m.1, 1, 2, DeliveryPath::Pull),
        ));
        let r = a.report();
        assert_eq!(r.messages, 1);
        assert_eq!(r.deliveries, 3);
        assert_eq!(r.tree_deliveries, 2);
        assert_eq!(r.pull_deliveries, 1);
        assert!(r.all_trees_reconstructed());
        assert_eq!(r.hop_histogram, vec![0, 1, 2]);
        assert!((r.recovery_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_hops() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_hop(), 2);
        // hop 1: 10ms; hop 2: (15ms + 489s... no: 26-11=15ms, 500-11=489ms)
        let h1 = r.per_hop_latency.iter().find(|p| p.hop == 1).unwrap();
        assert!((h1.mean_ms - 10.0).abs() < 1e-9);
        let h2 = r.per_hop_latency.iter().find(|p| p.hop == 2).unwrap();
        assert_eq!(h2.samples, 2);
        assert!((h2.mean_ms - (15.0 + 489.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn broken_causal_chain_is_not_reconstructed() {
        let mut a = TraceAnalysis::new();
        a.feed(&rec(0, 0, injected(0, 0)));
        // Parent 7 never delivered.
        a.feed(&rec(10, 1, delivered(0, 0, 7, 2, DeliveryPath::Tree)));
        let r = a.report();
        assert_eq!(r.trees_reconstructed, 0);
        assert!(!r.all_trees_reconstructed());
    }

    #[test]
    fn oracle_accepts_a_clean_sequence() {
        let mut o = InvariantOracle::new(OracleConfig::default());
        o.check(&rec(5, 0, injected(0, 0)));
        o.check(&rec(10, 1, delivered(0, 0, 0, 1, DeliveryPath::Tree)));
        o.check(&rec(12, 2, pull_requested(0, 0, 1)));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.records_checked(), 3);
    }

    #[test]
    fn oracle_flags_duplicate_and_early_delivery_and_bad_pull() {
        let mut o = InvariantOracle::new(OracleConfig::default());
        // Delivery before any injection.
        o.check(&rec(1, 1, delivered(0, 0, 0, 1, DeliveryPath::Tree)));
        o.check(&rec(5, 0, injected(0, 0)));
        // Duplicate delivery.
        o.check(&rec(9, 1, delivered(0, 0, 0, 1, DeliveryPath::Pull)));
        // Pull for a message the node already holds.
        o.check(&rec(11, 1, pull_requested(0, 0, 0)));
        let kinds: Vec<ViolationKind> = o.violations().iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::DeliveryBeforeSend,
                ViolationKind::DuplicateDelivery,
                ViolationKind::PullAfterDelivery,
            ]
        );
        // The text names ids the way `MsgId`/`NodeId` display them.
        assert_eq!(
            o.violations()[2].to_string(),
            "[t=11µs n1] pull_after_delivery: pulled n0#0 from n0 but already holds it"
        );
    }

    #[test]
    fn oracle_enforces_degree_bounds_after_grace() {
        let cfg = OracleConfig {
            max_rand: 1,
            max_near: 2,
            degree_check_after_us: 10,
            ..OracleConfig::default()
        };
        let mut o = InvariantOracle::new(cfg);
        // Bootstrap links at t=0 may exceed the bound freely.
        for peer in 0..5 {
            o.check(&rec(0, 1, link_added(peer, LinkKind::Nearby)));
        }
        assert!(o.is_clean());
        // Drops bring the degree back under the bound.
        for peer in 0..4 {
            o.check(&rec(
                20,
                1,
                link_dropped(peer, LinkKind::Nearby, DropReason::Surplus),
            ));
        }
        // One more add is fine (2 ≤ 2) ...
        o.check(&rec(30, 1, link_added(9, LinkKind::Nearby)));
        assert!(o.is_clean(), "{:?}", o.violations());
        // ... the next breaks the bound; it is only pending until the
        // clock moves past the instant (or the trace ends) with no
        // restoring drop.
        o.check(&rec(31, 1, link_added(10, LinkKind::Nearby)));
        assert!(o.is_clean(), "same-instant drop could still arrive");
        o.finish();
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::DegreeBound);
        assert_eq!(o.violations()[0].t_us, 31);
    }

    #[test]
    fn make_before_break_replacement_is_not_a_violation() {
        let cfg = OracleConfig {
            max_rand: 1,
            max_near: 2,
            degree_check_after_us: 1,
            ..OracleConfig::default()
        };
        let mut o = InvariantOracle::new(cfg);
        for peer in 0..2 {
            o.check(&rec(10, 1, link_added(peer, LinkKind::Nearby)));
        }
        // Replacement: the new link lands before the victim is dropped,
        // both at the same instant — the protocol's on_link_accept path.
        o.check(&rec(20, 1, link_added(5, LinkKind::Nearby)));
        o.check(&rec(
            20,
            1,
            link_dropped(0, LinkKind::Nearby, DropReason::Replaced),
        ));
        // Later activity moves the clock forward; nothing should flush.
        o.check(&rec(99, 2, injected(2, 0)));
        o.finish();
        assert!(o.is_clean(), "{:?}", o.violations());
        // A drop *after* the instant does not forgive: overshoot at 30,
        // drop only at 40.
        o.check(&rec(30, 1, link_added(6, LinkKind::Nearby)));
        o.check(&rec(
            40,
            1,
            link_dropped(6, LinkKind::Nearby, DropReason::Surplus),
        ));
        o.finish();
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::DegreeBound);
        assert_eq!(o.violations()[0].t_us, 30);
    }
}
