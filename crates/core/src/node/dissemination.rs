//! Message dissemination (paper §2.1): unconditional push along tree
//! links, plus background gossip of message IDs to overlay neighbors and
//! pull of anything missing.

use gocast_net::LandmarkVector;
use gocast_sim::{Ctx, NodeId, Timer};

use crate::types::{age_on_arrival, DegreeInfo, DeliveryPath, GoCastEvent, MsgId};
use crate::wire::{GoCastMsg, GossipEntry, MemberEntry};

use super::{known, timers, GoCastNode, Neighbor, Pending, Stored};

/// Random member addresses piggybacked per gossip.
pub(super) const MEMBERS_PER_GOSSIP: usize = 3;

/// Retry interval when a pull request goes unanswered.
const PULL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

impl GoCastNode {
    /// Injects a new multicast message originated by this node and pushes
    /// it into the tree.
    pub(crate) fn inject_multicast(&mut self, ctx: &mut Ctx<'_, Self>) {
        let id = MsgId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let size = self.cfg.payload_size;
        self.store_message(ctx, id, 0, 0, size);
        ctx.emit(GoCastEvent::Injected { id });
        self.wake_gossip(ctx);
        if self.cfg.tree_enabled {
            self.forward_on_tree(ctx, id, None);
        }
    }

    /// Records a message in the store and the recent-reception window.
    fn store_message(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        id: MsgId,
        age_us: u64,
        hop: u32,
        size: u32,
    ) {
        self.store.insert(
            id,
            Stored {
                received_at: ctx.now(),
                age_at_receive_us: age_us,
                hop,
                heard_from: Vec::new(),
                size,
            },
        );
        self.recent.push_back((id, ctx.now()));
    }

    /// Forwards a stored message along every tree link except `except`
    /// ("each node that receives the message immediately forwards the
    /// message to its tree neighbors except the node from which the
    /// message arrived").
    pub(crate) fn forward_on_tree(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        id: MsgId,
        except: Option<NodeId>,
    ) {
        let Some(stored) = self.store.get(&id) else {
            return;
        };
        let age_us = stored.age_at(ctx.now());
        let size = stored.size;
        // The copy we send is one causal hop further from the origin than
        // the copy we hold.
        let hop = stored.hop + 1;
        let children = self.neighbors.iter().filter(|n| n.is_child);
        for peer in children.map(Neighbor::id).chain(self.tree.parent) {
            if Some(peer) == except {
                continue;
            }
            ctx.emit(GoCastEvent::PushSent { id, to: peer, hop });
            ctx.send(
                peer,
                GoCastMsg::Data {
                    id,
                    age_us,
                    hop,
                    size,
                },
            );
        }
    }

    /// A full payload arrived — via a tree link (push) or as a pull
    /// response.
    pub(crate) fn on_data(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        id: MsgId,
        age_us: u64,
        hop: u32,
        size: u32,
    ) {
        let from_tree_link =
            self.tree.parent == Some(from) || self.neighbors.get(from).is_some_and(|n| n.is_child);
        if let Some(stored) = self.store.get_mut(&id) {
            // Duplicate. (With the abort optimization of §2.1 the bytes
            // would mostly not cross the wire; we still count the event.)
            self.redundant += 1;
            ctx.emit(GoCastEvent::RedundantData { id, from });
            if !stored.heard_from.contains(&from) {
                stored.heard_from.push(from);
            }
            return;
        }
        let link_rtt = self
            .neighbors
            .get(from)
            .and_then(|n| n.rtt_us().map(std::time::Duration::from_micros));
        let age = age_on_arrival(std::time::Duration::from_micros(age_us), link_rtt);
        self.store_message(ctx, id, age.as_micros() as u64, hop, size);
        self.store
            .get_mut(&id)
            .expect("just inserted")
            .heard_from
            .push(from);
        self.delivered += 1;
        self.wake_gossip(ctx);

        let via = if from_tree_link {
            DeliveryPath::Tree
        } else {
            DeliveryPath::Pull
        };
        ctx.emit(GoCastEvent::Delivered { id, via, from, hop });
        self.pending_pulls.remove(&id);

        if self.cfg.tree_enabled {
            // Push onward along tree links. A message obtained through a
            // pull is forwarded to *all* tree neighbors (it entered this
            // tree fragment here); a tree push skips the link it came from.
            let except = if from_tree_link { Some(from) } else { None };
            self.forward_on_tree(ctx, id, except);
        }
    }

    // ------------------------------------------------------------------
    // Gossip.
    // ------------------------------------------------------------------

    /// The effective gossip period under the adaptive-gossip feature:
    /// exponential backoff while there is nothing to summarize, capped at
    /// the idle-gossip interval.
    fn effective_gossip_period(&self) -> std::time::Duration {
        if !self.cfg.adaptive_gossip || self.gossip_backoff == 0 {
            return self.cfg.gossip_period;
        }
        let scaled = self.cfg.gossip_period * 2u32.pow(self.gossip_backoff.min(6));
        scaled.min(self.cfg.idle_gossip_interval)
    }

    /// Re-arms the gossip timer with the current generation and effective
    /// period.
    pub(crate) fn arm_gossip(&self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(
            self.effective_gossip_period(),
            Timer::with_payload(timers::GOSSIP, self.gossip_gen, 0),
        );
    }

    /// A message arrived: if the gossip clock had backed off, snap it back
    /// to the base period (invalidating the slow timer via the generation
    /// counter) so summaries flow at full rate again.
    fn wake_gossip(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.cfg.adaptive_gossip && self.gossip_backoff > 0 {
            self.gossip_backoff = 0;
            self.gossip_gen = self.gossip_gen.wrapping_add(1);
            self.arm_gossip(ctx);
        }
    }

    /// Periodic gossip tick: pick the next overlay neighbor round-robin
    /// and send it the IDs received since our last gossip to it, excluding
    /// IDs it told us about.
    pub(crate) fn on_gossip_tick(&mut self, ctx: &mut Ctx<'_, Self>, gen: u32) {
        if gen != self.gossip_gen {
            return; // superseded by wake_gossip
        }
        if !self.joined {
            self.arm_gossip(ctx);
            return;
        }
        let Some(peer) = self.next_gossip_peer() else {
            self.gossip_backoff = self.gossip_backoff.saturating_add(1);
            self.arm_gossip(ctx);
            return;
        };
        let since = self
            .neighbors
            .get(peer)
            .expect("the cursor steps onto table entries")
            .last_gossip_sent;
        let now = ctx.now();

        // Collect IDs from the recent-reception window.
        let mut ids: Vec<GossipEntry> = Vec::new();
        for &(id, t) in self.recent.iter().rev() {
            if t <= since {
                break;
            }
            if let Some(stored) = self.store.get(&id) {
                if !stored.heard_from.contains(&peer) {
                    ids.push((id, stored.age_at(now)));
                }
            }
        }
        ids.reverse();

        // "A gossip can be saved if there is no multicast message during
        // that period" — but we still refresh membership/liveness at a low
        // rate.
        if ids.is_empty() {
            self.gossip_backoff = self.gossip_backoff.saturating_add(1);
            if now.saturating_since(since) < self.cfg.idle_gossip_interval {
                self.arm_gossip(ctx);
                return;
            }
        } else {
            self.gossip_backoff = 0;
        }
        self.arm_gossip(ctx);

        let members = self.pick_gossip_members(ctx);
        let degrees = self.degrees();
        let coords = self.coords.clone();
        if let Some(n) = self.neighbors.get_mut(peer) {
            n.last_gossip_sent = now;
        }
        for &(id, _) in &ids {
            ctx.emit(GoCastEvent::IHaveSent { id, to: peer });
        }
        ctx.send(
            peer,
            GoCastMsg::Gossip {
                ids,
                members,
                coords,
                degrees,
            },
        );
    }

    /// Advances the round-robin cursor over the neighbor table.
    fn next_gossip_peer(&mut self) -> Option<NodeId> {
        let next = self.neighbors.next_after(self.gossip_cursor)?;
        self.gossip_cursor = Some(next);
        Some(next)
    }

    /// Samples member entries (with coordinates when known) to piggyback,
    /// in one allocation sized for the samples and our own entry.
    pub(super) fn pick_gossip_members(&mut self, ctx: &mut Ctx<'_, Self>) -> Vec<MemberEntry> {
        let mut out = Vec::with_capacity(MEMBERS_PER_GOSSIP.min(self.view.len()) + 1);
        self.view
            .sample_k_into(MEMBERS_PER_GOSSIP, ctx.rng(), &mut out, |id, coords| {
                (id, coords.clone())
            });
        // Introduce ourselves too (address + coordinates).
        out.push((self.id, self.coords.clone()));
        out
    }

    /// Handles a gossip from neighbor `from`.
    pub(crate) fn on_gossip(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        ids: Vec<GossipEntry>,
        members: Vec<MemberEntry>,
        coords: LandmarkVector,
        degrees: DegreeInfo,
    ) {
        if let Some(n) = self.neighbors.get_mut(from) {
            n.degrees = degrees;
        }
        if let Some(coords) = known(coords) {
            self.view.set(from, coords);
        }
        self.merge_members(ctx, members);

        let now = ctx.now();
        let mut to_request: Vec<MsgId> = Vec::new();
        for (id, age_us) in ids {
            if let Some(stored) = self.store.get_mut(&id) {
                if !stored.heard_from.contains(&from) {
                    stored.heard_from.push(from);
                }
                continue;
            }
            let link_rtt = self
                .neighbors
                .get(from)
                .and_then(|n| n.rtt_us().map(std::time::Duration::from_micros));
            let age = age_on_arrival(std::time::Duration::from_micros(age_us), link_rtt).as_micros()
                as u64;
            if let Some(p) = self.pending_pulls.get_mut(&id) {
                if !p.candidates.contains(&from) {
                    p.candidates.push(from);
                }
                continue;
            }
            self.pending_pulls.insert(
                id,
                Pending {
                    heard_at: now,
                    candidates: vec![from],
                    requested_from: None,
                },
            );
            // Delayed-pull optimization (§2.1): wait until the message is
            // at least `f` old, giving the tree a chance to deliver first.
            let f_us = self.cfg.pull_delay.as_micros() as u64;
            if age >= f_us {
                to_request.push(id);
            } else {
                ctx.set_timer(
                    std::time::Duration::from_micros(f_us - age),
                    Timer::with_payload(timers::PULL_DELAY, id.origin.as_u32(), id.seq as u64),
                );
            }
        }
        for id in to_request {
            self.send_pull(ctx, id);
        }
    }

    /// Requests a missing message from the best-known candidate.
    fn send_pull(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId) {
        let Some(p) = self.pending_pulls.get_mut(&id) else {
            return;
        };
        if p.requested_from.is_some() {
            return;
        }
        // Rotate through candidates on retries; first candidate first.
        let Some(&target) = p.candidates.first() else {
            return;
        };
        p.requested_from = Some(target);
        ctx.emit(GoCastEvent::PullRequested { id, to: target });
        ctx.send(target, GoCastMsg::PullRequest { ids: vec![id] });
        ctx.set_timer(
            PULL_TIMEOUT,
            Timer::with_payload(timers::PULL_TIMEOUT, id.origin.as_u32(), id.seq as u64),
        );
    }

    /// The delayed-pull timer fired: request if still missing.
    pub(crate) fn on_pull_delay(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId) {
        if self.store.contains_key(&id) {
            self.pending_pulls.remove(&id);
            return;
        }
        self.send_pull(ctx, id);
    }

    /// A pull went unanswered: retry from another candidate.
    pub(crate) fn on_pull_timeout(&mut self, ctx: &mut Ctx<'_, Self>, id: MsgId) {
        if self.store.contains_key(&id) {
            return;
        }
        let Some(p) = self.pending_pulls.get_mut(&id) else {
            return;
        };
        let Some(failed) = p.requested_from.take() else {
            return;
        };
        // Demote the unresponsive candidate to the back of the list.
        p.candidates.retain(|&c| c != failed);
        p.candidates.push(failed);
        // When the failed candidate is the only one known, it is retried
        // anyway (it may just be slow) until another gossip names a second.
        self.send_pull(ctx, id);
    }

    /// Answers a pull request with the stored payloads.
    pub(crate) fn on_pull_request(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        from: NodeId,
        ids: Vec<MsgId>,
    ) {
        let now = ctx.now();
        for id in ids {
            if let Some(stored) = self.store.get(&id) {
                let age_us = stored.age_at(now);
                let size = stored.size;
                let hop = stored.hop + 1;
                ctx.emit(GoCastEvent::PullServed { id, to: from, hop });
                ctx.send(
                    from,
                    GoCastMsg::Data {
                        id,
                        age_us,
                        hop,
                        size,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection.
    // ------------------------------------------------------------------

    /// Periodic sweep: reclaim messages older than the waiting period `b`
    /// and trim the recent-reception window.
    pub(crate) fn on_gc_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        Self::arm(ctx, std::time::Duration::from_secs(5), timers::GC);
        let now = ctx.now();
        let b = self.cfg.gc_wait;
        self.store
            .retain(|_, s| now.saturating_since(s.received_at) <= b);
        // The recent window only needs to cover the largest gossip gap.
        let window = self.cfg.idle_gossip_interval * 8;
        while let Some(&(_, t)) = self.recent.front() {
            if now.saturating_since(t) > window {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        // Pending pulls for messages nobody can serve anymore are dropped.
        self.pending_pulls
            .retain(|_, p| now.saturating_since(p.heard_at) <= b);
    }
}
