//! The embedded multicast tree (paper §2.3).
//!
//! The tree conceptually has a root; tree links are the overlay links on
//! the latency-shortest paths from the root to every node (in the spirit of
//! DVMRP, but a single shared tree). The root floods a heartbeat through
//! *every overlay link* each period; the flood doubles as the
//! distance-vector update: each node re-emits the heartbeat with its own
//! distance, adopts the neighbor offering the smallest distance as parent,
//! and tells it so. Missing heartbeats trigger root failover.

use gocast_sim::{Ctx, NodeId, SimTime};

use crate::types::GoCastEvent;
use crate::wire::GoCastMsg;

use super::{timers, GoCastNode};

/// "Not connected to the root."
pub(crate) const DIST_INF: u64 = u64::MAX;

/// The initial tree root ("the first node in the overlay").
const INITIAL_ROOT: NodeId = NodeId::new(0);

/// Heartbeat periods a node waits without one before suspecting the root.
const HEARTBEAT_TIMEOUT_FACTOR: u32 = 3;

/// This node's view of the tree.
#[derive(Debug, Clone)]
pub(crate) struct TreeState {
    /// Current root identity.
    pub root: NodeId,
    /// Root epoch: bumped by failover takeovers. Higher epoch wins; ties
    /// break toward the smaller root id.
    pub epoch: u32,
    /// Latest heartbeat wave seen from this root.
    pub seq: u32,
    /// Our latency distance to the root (µs), [`DIST_INF`] when detached.
    pub dist_us: u64,
    /// Our tree parent (the overlay neighbor on our shortest root path).
    pub parent: Option<NodeId>,
    /// When we last heard any heartbeat of the current root.
    pub last_heartbeat: SimTime,
}

impl TreeState {
    pub(crate) fn new() -> Self {
        TreeState {
            root: INITIAL_ROOT,
            epoch: 0,
            seq: 0,
            dist_us: DIST_INF,
            parent: None,
            last_heartbeat: SimTime::ZERO,
        }
    }
}

impl GoCastNode {
    /// Whether identity `(root, epoch)` supersedes the current one.
    fn identity_newer(&self, root: NodeId, epoch: u32) -> bool {
        epoch > self.tree.epoch || (epoch == self.tree.epoch && root < self.tree.root)
    }

    /// Periodic heartbeat: only the root acts, flooding a new wave.
    pub(crate) fn on_heartbeat_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        if !self.cfg.tree_enabled {
            return;
        }
        Self::arm(ctx, self.cfg.heartbeat_period, timers::HEARTBEAT);
        if self.frozen || !self.joined || !self.is_root() {
            return;
        }
        self.tree.seq += 1;
        self.tree.dist_us = 0;
        self.tree.parent = None;
        self.tree.last_heartbeat = ctx.now();
        self.flood_tree_ad(ctx, None);
    }

    /// Sends our current tree advertisement to all neighbors but `except`.
    fn flood_tree_ad(&self, ctx: &mut Ctx<'_, Self>, except: Option<NodeId>) {
        if self.tree.dist_us == DIST_INF {
            return;
        }
        let ad = GoCastMsg::TreeAd {
            root: self.tree.root,
            epoch: self.tree.epoch,
            seq: self.tree.seq,
            dist_us: self.tree.dist_us,
        };
        for p in self.neighbors.ids() {
            if Some(p) != except {
                ctx.send(p, ad.clone());
            }
        }
    }

    /// Shares tree state with one (newly linked) neighbor.
    pub(crate) fn advertise_tree_to(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if !self.cfg.tree_enabled || self.tree.dist_us == DIST_INF {
            return;
        }
        ctx.send(
            peer,
            GoCastMsg::TreeAd {
                root: self.tree.root,
                epoch: self.tree.epoch,
                seq: self.tree.seq,
                dist_us: self.tree.dist_us,
            },
        );
    }

    /// Handles a tree advertisement (heartbeat flood / route update).
    pub(crate) fn on_tree_ad(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        root: NodeId,
        epoch: u32,
        seq: u32,
        dist_us: u64,
    ) {
        if !self.cfg.tree_enabled || !self.joined {
            return;
        }
        // While frozen the tree must not adapt (the failure experiments
        // measure the unrepaired tree).
        if self.frozen {
            return;
        }
        if !self.neighbors.contains(from) {
            // Advertisement raced a link drop.
            return;
        }

        if root == self.id && epoch == self.tree.epoch {
            // Our own flood reflected back; ignore.
            return;
        }

        if self.identity_newer(root, epoch) {
            // New root (startup or failover): adopt identity, restart
            // distances.
            self.tree.root = root;
            self.tree.epoch = epoch;
            self.tree.seq = 0;
            self.tree.dist_us = DIST_INF;
            self.set_parent(ctx, None);
        } else if root != self.tree.root || epoch != self.tree.epoch {
            // Stale identity; ignore.
            return;
        }

        self.tree.last_heartbeat = ctx.now();
        let mut link_rtt = None;
        if let Some(n) = self.neighbors.get_mut(from) {
            n.set_route(root, epoch, seq, dist_us);
            link_rtt = n.rtt_us();
        }
        let link_rtt = link_rtt.unwrap_or(100_000);
        let cand = dist_us.saturating_add(link_rtt / 2);

        if seq > self.tree.seq {
            // A new wave: refresh our distance, but keep the current
            // parent unless we have none — in steady state the tree
            // structure is identical wave after wave, and a stable parent
            // avoids transient duplicate pushes while a multicast is in
            // flight.
            self.tree.seq = seq;
            self.tree.dist_us = cand;
            if self.tree.parent.is_none() {
                self.set_parent(ctx, Some(from));
            }
            self.flood_tree_ad(ctx, None);
        } else if seq == self.tree.seq && cand < self.tree.dist_us {
            // Same wave, strictly better path: improve and re-flood.
            self.tree.dist_us = cand;
            self.set_parent(ctx, Some(from));
            self.flood_tree_ad(ctx, None);
        } else if seq == self.tree.seq && Some(from) == self.tree.parent && cand > self.tree.dist_us
        {
            // Our parent's path is worse than the best we know: re-pick
            // the parent from the route cache. This keeps the invariant
            // that a parent's distance is smaller than ours, which rules
            // out parent-pointer cycles.
            self.reparent(ctx, true);
        }
    }

    /// Updates the parent pointer, notifying the old and new parents.
    fn set_parent(&mut self, ctx: &mut Ctx<'_, Self>, parent: Option<NodeId>) {
        if self.tree.parent == parent {
            return;
        }
        if let Some(old) = self.tree.parent {
            if self.neighbors.contains(old) {
                ctx.send(old, GoCastMsg::ParentSelect { selected: false });
            }
        }
        if let Some(new) = parent {
            ctx.send(new, GoCastMsg::ParentSelect { selected: true });
        }
        self.tree.parent = parent;
        ctx.emit(GoCastEvent::ParentChanged { parent });
    }

    /// A neighbor chose (or un-chose) us as its parent.
    pub(crate) fn on_parent_select(
        &mut self,
        _ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        selected: bool,
    ) {
        if let Some(n) = self.neighbors.get_mut(from) {
            n.is_child = selected;
        }
    }

    /// Re-picks the parent from cached neighbor advertisements (used when
    /// the parent link vanished or the parent's path got worse). Prefers
    /// advertisements from the current heartbeat wave — stale entries can
    /// describe paths that no longer exist and would re-create cycles.
    /// `flood` controls whether we re-advertise afterwards.
    pub(crate) fn reparent(&mut self, ctx: &mut Ctx<'_, Self>, flood: bool) {
        if !self.cfg.tree_enabled {
            return;
        }
        if self.frozen {
            // No tree repair while frozen.
            self.tree.parent = None;
            return;
        }
        let candidates = |require_seq: Option<u32>| {
            self.neighbors
                .iter()
                .filter_map(|n| {
                    let (root, epoch, seq, dist) = n.route()?;
                    if root != self.tree.root || epoch != self.tree.epoch || dist == DIST_INF {
                        return None;
                    }
                    if let Some(s) = require_seq {
                        if seq != s {
                            return None;
                        }
                    }
                    Some((
                        dist.saturating_add(n.rtt_us().unwrap_or(100_000) / 2),
                        n.id(),
                    ))
                })
                .min()
        };
        let best = candidates(Some(self.tree.seq)).or_else(|| candidates(None));
        match best {
            Some((dist, p)) => {
                self.tree.dist_us = dist;
                self.set_parent(ctx, Some(p));
                if flood {
                    self.flood_tree_ad(ctx, Some(p));
                }
            }
            None => {
                self.tree.dist_us = DIST_INF;
                self.set_parent(ctx, None);
            }
        }
    }

    /// Periodic root liveness check: if no heartbeat for
    /// [`HEARTBEAT_TIMEOUT_FACTOR`] periods, take over as root with a higher
    /// epoch. Concurrent takeovers converge because higher epochs win and
    /// ties break toward the smaller node id.
    pub(crate) fn on_root_check(&mut self, ctx: &mut Ctx<'_, Self>) {
        if !self.cfg.tree_enabled {
            return;
        }
        Self::arm(ctx, self.cfg.heartbeat_period, timers::ROOT_CHECK);
        if self.frozen || !self.joined || self.is_root() {
            return;
        }
        let silence = ctx.now().saturating_since(self.tree.last_heartbeat);
        let timeout = self.cfg.heartbeat_period * HEARTBEAT_TIMEOUT_FACTOR;
        if silence <= timeout {
            return;
        }
        // Take over.
        let epoch = self.tree.epoch + 1;
        self.tree.root = self.id;
        self.tree.epoch = epoch;
        self.tree.seq = 1;
        self.tree.dist_us = 0;
        self.tree.last_heartbeat = ctx.now();
        self.set_parent(ctx, None);
        ctx.emit(GoCastEvent::BecameRoot { epoch });
        self.flood_tree_ad(ctx, None);
    }
}
