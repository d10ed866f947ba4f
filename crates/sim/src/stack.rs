//! The protocol-agnostic stack interface.
//!
//! [`Protocol`] is the minimal contract the kernel needs to *drive* a
//! state machine; it says nothing about what the machine is doing. The
//! experiment, chaos, and conformance layers need more: they inject
//! workload commands, audit message stores at the end of a run, sample
//! overlay attachment for repair metrics, and decide which safety
//! invariants an oracle may enforce. [`Stack`] is that surface — the
//! capabilities a *dissemination stack* (GoCast, Plumtree/HyParView, the
//! gossip baselines, ...) exposes so the upper layers can stay generic
//! instead of hard-wiring one protocol's accessors.
//!
//! A stack must answer cheap snapshot queries (`joined`, `attached`,
//! `overlay_degree`, `holds`, ...) and construct the harness commands of
//! its own command type (`cmd_multicast`, `cmd_join`, ...). It also
//! declares [`StackCaps`]: which optional invariants its design actually
//! promises, so checkers skip the rest instead of mis-firing.

use crate::id::NodeId;
use crate::protocol::Protocol;

/// Which optional safety invariants a stack's design promises.
///
/// The *universal* multicast invariants — no delivery before the origin's
/// injection, at most one delivery per node per message — are not listed
/// here: every stack must satisfy them and checkers always enforce them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackCaps {
    /// Overlay degrees stay within configured bounds after every protocol
    /// link change (GoCast's accept rules). Stacks with unbounded or
    /// reactive views (HyParView evicts *after* adding) leave this off.
    pub degree_bounds: bool,
    /// The stack never requests a payload it already holds (GoCast's pull
    /// rule; Plumtree's graft-only-when-missing rule).
    pub pull_after_delivery: bool,
}

impl StackCaps {
    /// Only the universal invariants: nothing optional is promised.
    pub const fn universal() -> Self {
        StackCaps {
            degree_bounds: false,
            pull_after_delivery: false,
        }
    }

    /// Every optional invariant is promised (GoCast).
    pub const fn all() -> Self {
        StackCaps {
            degree_bounds: true,
            pull_after_delivery: true,
        }
    }
}

/// A pluggable dissemination stack: a [`Protocol`] plus the snapshot and
/// command surface the experiment machinery needs.
///
/// What a new stack **must** provide: a stable [`Stack::NAME`] (stamped
/// once in each run's manifest and used in CSV rows), honest [`StackCaps`],
/// the snapshot queries, and the `Multicast`/`Join`/`Leave` command
/// constructors. What it **need not** provide: a freeze command
/// ([`Stack::cmd_freeze`] defaults to `None`), a tree (report
/// `attached()` as whatever "connected to the dissemination structure"
/// means for the design), or a partial membership view
/// ([`Stack::member_count`] is 0 for full-membership stacks).
pub trait Stack: Protocol {
    /// Stable lowercase stack name (`"gocast"`, `"plumtree"`, ...). Tags
    /// trace records and experiment output rows.
    const NAME: &'static str;

    /// Which optional invariants this stack's design promises.
    fn capabilities() -> StackCaps;

    /// Whether the node currently considers itself a group member (false
    /// after a graceful leave, true again after a rejoin completes).
    fn joined(&self) -> bool;

    /// Whether the node is attached to the dissemination structure: for a
    /// tree stack, it has a parent or is the root; for a mesh stack, it
    /// has at least one live overlay neighbor. Drives repair metrics.
    fn attached(&self) -> bool;

    /// Current overlay neighbor count (0 for overlay-less stacks).
    fn overlay_degree(&self) -> usize;

    /// Size of the node's partial membership view (0 when the stack
    /// assumes full membership).
    fn member_count(&self) -> usize;

    /// Messages delivered to this node so far.
    fn delivered_count(&self) -> u64;

    /// Whether the node's store holds the message `(origin, seq)` — the
    /// end-of-run delivery audit, independent of the event stream.
    fn holds(&self, origin: NodeId, seq: u32) -> bool;

    /// The command that starts a multicast from the receiving node.
    fn cmd_multicast() -> Self::Command;

    /// The command that (re)joins the group through `contact`.
    fn cmd_join(contact: NodeId) -> Self::Command;

    /// The command that gracefully leaves the group.
    fn cmd_leave() -> Self::Command;

    /// The command that freezes background maintenance (`None` when the
    /// stack has no such switch; harnesses then simply skip the freeze).
    fn cmd_freeze() -> Option<Self::Command> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_presets() {
        let u = StackCaps::universal();
        assert!(!u.degree_bounds && !u.pull_after_delivery);
        let a = StackCaps::all();
        assert!(a.degree_bounds && a.pull_after_delivery);
    }
}
