//! The invariant oracle: protocol invariants checked over the event
//! stream, collecting [`Violation`]s instead of panicking so tests and the
//! `trace` experiment subcommand can fail loudly with context.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use gocast::{GoCastConfig, GoCastEvent, LinkKind, MsgId};
use gocast_sim::{NodeId, Recorder, SimTime, StackCaps};

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

/// Degree-bound checks ignore link additions at or before this time (µs):
/// the bootstrap graph installs links of arbitrary degree at t=0, and the
/// degree rules only bound *protocol* additions.
const DEGREE_CHECK_AFTER_US: u64 = 1;

/// Bounds and the per-stack capability switches for the
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
    /// ([`GoCastConfig::degree_cap`] of `C_rand`).
    pub max_rand: usize,
    /// Maximum nearby degree after any link addition
    /// ([`GoCastConfig::degree_cap`] of `C_near`).
    pub max_near: usize,
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
            max_rand: GoCastConfig::degree_cap(cfg.c_rand),
            max_near: GoCastConfig::degree_cap(cfg.c_near),
            check_degree_bounds: true,
            check_pull_after_delivery: true,
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

/// Checks protocol invariants over an event stream: a live run's, or a
/// trace's through [`gocast_sim::replay`].
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
/// Its one entry is [`Recorder::record`], so a simulation runs with the
/// oracle attached and a replayed trace feeds it the same way.
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
                if self.cfg.check_degree_bounds && t_us > DEGREE_CHECK_AFTER_US && d[idx] > bound {
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
    use gocast::{DeliveryPath, DropReason};

    /// Feeds one event at `t_us` microseconds.
    fn at(o: &mut InvariantOracle, t_us: u64, node: u32, ev: GoCastEvent) {
        o.record(SimTime::from_nanos(t_us * 1_000), NodeId::new(node), ev);
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

    #[test]
    fn universal_oracle_skips_stack_specific_checks() {
        let cfg = OracleConfig::default().with_caps(&StackCaps::universal());
        let mut o = InvariantOracle::new(cfg);
        // A pull of a held message: GoCast-specific, skipped here.
        at(&mut o, 5, 0, injected(0, 0));
        at(&mut o, 9, 0, pull_requested(0, 0, 1));
        // Degree churn past any plausible bound: also skipped.
        for peer in 0..50 {
            at(&mut o, 20, 0, link_added(peer, LinkKind::Random));
        }
        o.finish();
        assert!(o.is_clean(), "{:?}", o.violations());
        // The universal checks still fire.
        at(&mut o, 30, 1, delivered(9, 9, 0, 1, DeliveryPath::Tree));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::DeliveryBeforeSend);
    }

    #[test]
    fn with_caps_restricts_but_never_enables() {
        let base = OracleConfig::default();
        let capped = base.with_caps(&StackCaps {
            degree_bounds: false,
            pull_after_delivery: true,
        });
        assert!(!capped.check_degree_bounds);
        assert!(capped.check_pull_after_delivery);
        let u = base
            .with_caps(&StackCaps::universal())
            .with_caps(&StackCaps::all());
        assert!(!u.check_degree_bounds && !u.check_pull_after_delivery);
    }

    #[test]
    fn oracle_accepts_a_clean_sequence() {
        let mut o = InvariantOracle::new(OracleConfig::default());
        at(&mut o, 5, 0, injected(0, 0));
        at(&mut o, 10, 1, delivered(0, 0, 0, 1, DeliveryPath::Tree));
        at(&mut o, 12, 2, pull_requested(0, 0, 1));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.records_checked(), 3);
    }

    #[test]
    fn oracle_flags_duplicate_and_early_delivery_and_bad_pull() {
        let mut o = InvariantOracle::new(OracleConfig::default());
        // Delivery before any injection.
        at(&mut o, 1, 1, delivered(0, 0, 0, 1, DeliveryPath::Tree));
        at(&mut o, 5, 0, injected(0, 0));
        // Duplicate delivery.
        at(&mut o, 9, 1, delivered(0, 0, 0, 1, DeliveryPath::Pull));
        // Pull for a message the node already holds.
        at(&mut o, 11, 1, pull_requested(0, 0, 0));
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
            ..OracleConfig::default()
        };
        let mut o = InvariantOracle::new(cfg);
        // Bootstrap links at t=0 may exceed the bound freely.
        for peer in 0..5 {
            at(&mut o, 0, 1, link_added(peer, LinkKind::Nearby));
        }
        assert!(o.is_clean());
        // Drops bring the degree back under the bound.
        for peer in 0..4 {
            at(
                &mut o,
                20,
                1,
                link_dropped(peer, LinkKind::Nearby, DropReason::Surplus),
            );
        }
        // One more add is fine (2 ≤ 2) ...
        at(&mut o, 30, 1, link_added(9, LinkKind::Nearby));
        assert!(o.is_clean(), "{:?}", o.violations());
        // ... the next breaks the bound; it is only pending until the
        // clock moves past the instant (or the trace ends) with no
        // restoring drop.
        at(&mut o, 31, 1, link_added(10, LinkKind::Nearby));
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
            ..OracleConfig::default()
        };
        let mut o = InvariantOracle::new(cfg);
        for peer in 0..2 {
            at(&mut o, 10, 1, link_added(peer, LinkKind::Nearby));
        }
        // Replacement: the new link lands before the victim is dropped,
        // both at the same instant — the protocol's on_link_accept path.
        at(&mut o, 20, 1, link_added(5, LinkKind::Nearby));
        at(
            &mut o,
            20,
            1,
            link_dropped(0, LinkKind::Nearby, DropReason::Replaced),
        );
        // Later activity moves the clock forward; nothing should flush.
        at(&mut o, 99, 2, injected(2, 0));
        o.finish();
        assert!(o.is_clean(), "{:?}", o.violations());
        // A drop *after* the instant does not forgive: overshoot at 30,
        // drop only at 40.
        at(&mut o, 30, 1, link_added(6, LinkKind::Nearby));
        at(
            &mut o,
            40,
            1,
            link_dropped(6, LinkKind::Nearby, DropReason::Surplus),
        );
        o.finish();
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, ViolationKind::DegreeBound);
        assert_eq!(o.violations()[0].t_us, 30);
    }
}
