//! One shard of the fabric: a slice of nodes driven by one OS thread.
//!
//! The fabric partitions its nodes round-robin across `shards` event
//! loops (`global_id % shards` names the owning shard), each owning its
//! slice's sockets, timer wheels, jitter queue, batch buffers, and
//! telemetry. Cross-shard traffic needs no special handoff: datagrams
//! travel over real loopback UDP exactly like intra-shard traffic, so a
//! shard never touches another shard's state. Recorded [`GoCastEvent`]s
//! stay in per-shard streams (each stream is time-sorted by
//! construction) and the coordinator merges them deterministically after
//! every run window — the same submission-order merge discipline the
//! simulator's `parallel_map` uses.
//!
//! Each shard replays the *full* scenario plan against its own
//! [`FaultState`] replica and crash marks (global state every shard must
//! agree on), but dispatches `Leave`/`Join` protocol commands only for
//! nodes it owns. The fault state is the simulation kernel's own type, so
//! loss, jitter, partitions and link cuts mean on real sockets exactly
//! what they mean in simulation; where the kernel consults it as it moves
//! a message, the shard consults it in [`Tx::transmit`], before the
//! datagram reaches the operating system.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use gocast::{decode, encode_into, GoCastEvent, GoCastMsg};
use gocast_metrics::{Gauge, Log2Histogram};
use gocast_sim::scenario::{Fault, PlannedFault};
use gocast_sim::{
    Ctx, FaultState, FxHashMap, HostBackend, NodeId, Protocol, SimTime, Stack, Timer,
};
use gocast_udp::{DelayQueue, TimerWheel};
use rand::rngs::SmallRng;

use crate::batch::{BatchBuffer, BatchMode, RecvBatch, RECV_BATCH};
use crate::bootstrap::{
    decode_frame, encode_peer, encode_whohas, frame_data_into, Frame, PeerTable,
};

/// Messages queued per unknown peer before the oldest is dropped.
const PENDING_CAP: usize = 64;
/// Outstanding who-has questions a node remembers on behalf of others.
const WANTED_CAP: usize = 256;
/// Idle-sleep cap: loopback arrivals cannot interrupt a sleep, so the
/// loop never sleeps longer than this past "nothing to do".
const IDLE_POLL: Duration = Duration::from_micros(500);
/// Receive batches drained per socket per iteration before moving on,
/// so one chatty node cannot starve its shard-mates.
const DRAIN_BATCHES: usize = 4;

/// Wire-side counters, separate from the protocol's own
/// [`gocast::ProtocolCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Datagrams handed to the OS (sends that did not error).
    pub datagrams_sent: u64,
    /// Datagrams read off sockets.
    pub datagrams_received: u64,
    /// GoCast protocol messages decoded and dispatched.
    pub wire_msgs: u64,
    /// `send_to` syscalls attempted (including ones the OS rejected).
    pub sendto_calls: u64,
    /// `recv_from` syscalls attempted (including `WouldBlock` returns).
    pub recvfrom_calls: u64,
    /// `sendmmsg` syscalls issued (each moves a whole batch).
    pub sendmmsg_calls: u64,
    /// `recvmmsg` syscalls issued (including empty-socket returns).
    pub recvmmsg_calls: u64,
    /// Syscalls avoided by batching: a `sendmmsg`/`recvmmsg` that moved
    /// `k` datagrams counts `k - 1` here (`k` datagrams, one syscall).
    pub syscalls_saved: u64,
    /// Payload bytes handed to the OS on successful sends.
    pub bytes_sent: u64,
    /// Payload bytes read off sockets.
    pub bytes_received: u64,
    /// Datagrams dropped by injected loss.
    pub dropped_loss: u64,
    /// Datagrams dropped crossing a partition.
    pub dropped_partition: u64,
    /// Datagrams dropped on a cut link.
    pub dropped_cut: u64,
    /// Datagrams dropped to/from crashed nodes.
    pub dropped_crashed: u64,
    /// Datagrams held back by injected jitter.
    pub delayed: u64,
    /// Address queries sent (bootstrap discovery).
    pub whohas_sent: u64,
    /// Address answers sent.
    pub peer_replies: u64,
    /// Protocol sends dropped because the peer address stayed unknown.
    pub unresolved_dropped: u64,
    /// Datagrams that failed transport-frame or codec decoding, or named
    /// a node id the fabric does not host.
    pub malformed: u64,
}

impl FabricStats {
    /// Adds `other`'s counters into `self` (shard aggregation).
    pub fn absorb(&mut self, other: &FabricStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_received += other.datagrams_received;
        self.wire_msgs += other.wire_msgs;
        self.sendto_calls += other.sendto_calls;
        self.recvfrom_calls += other.recvfrom_calls;
        self.sendmmsg_calls += other.sendmmsg_calls;
        self.recvmmsg_calls += other.recvmmsg_calls;
        self.syscalls_saved += other.syscalls_saved;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.dropped_loss += other.dropped_loss;
        self.dropped_partition += other.dropped_partition;
        self.dropped_cut += other.dropped_cut;
        self.dropped_crashed += other.dropped_crashed;
        self.delayed += other.delayed;
        self.whohas_sent += other.whohas_sent;
        self.peer_replies += other.peer_replies;
        self.unresolved_dropped += other.unresolved_dropped;
        self.malformed += other.malformed;
    }
}

impl std::fmt::Display for FabricStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent={} recv={} msgs={} saved={} delayed={} drops(loss/part/cut/crash)={}/{}/{}/{} \
             whohas={} replies={} unresolved={} malformed={}",
            self.datagrams_sent,
            self.datagrams_received,
            self.wire_msgs,
            self.syscalls_saved,
            self.delayed,
            self.dropped_loss,
            self.dropped_partition,
            self.dropped_cut,
            self.dropped_crashed,
            self.whohas_sent,
            self.peer_replies,
            self.unresolved_dropped,
            self.malformed,
        )
    }
}

/// Event-loop health beyond raw counters: distribution shapes and queue
/// depths. All of it is wall-clock flavoured (the fabric runs in real
/// time), so the histograms are flagged `wall` in snapshots.
#[derive(Debug, Default)]
pub(crate) struct FabricTelemetry {
    /// Datagrams drained across the shard's sockets per loop iteration.
    pub(crate) datagrams_per_poll: Log2Histogram,
    /// How late each timer fired relative to its deadline, in ns.
    pub(crate) timer_lateness_ns: Log2Histogram,
    /// Datagrams queued shard-wide awaiting address resolution.
    pub(crate) pending_depth: Gauge,
    /// Outstanding who-has questions remembered shard-wide.
    pub(crate) wanted_depth: Gauge,
}

/// A datagram held back by the jitter impairment.
#[derive(Debug)]
pub(crate) struct HeldDatagram {
    from_local: usize,
    dest: SocketAddr,
    bytes: Vec<u8>,
}

/// One hosted node: protocol state machine plus its transport state.
/// Generic over the hosted [`Stack`] so application tiers layered on the
/// GoCast message set (e.g. `gocast-app`'s `TopicMux`) run on the same
/// wire path unchanged.
#[derive(Debug)]
pub(crate) struct NodeSlot<N> {
    pub(crate) node: N,
    pub(crate) socket: UdpSocket,
    pub(crate) addr: SocketAddr,
    pub(crate) rng: SmallRng,
    pub(crate) timers: TimerWheel,
    pub(crate) peers: PeerTable,
    /// Framed datagrams awaiting address resolution, per unknown peer.
    pub(crate) pending: FxHashMap<NodeId, Vec<Vec<u8>>>,
    /// Questions this node could not answer yet: target → askers.
    pub(crate) wanted: FxHashMap<NodeId, Vec<(NodeId, SocketAddr)>>,
    pub(crate) wanted_len: usize,
}

/// One event loop's worth of fabric state. See the [module docs](self).
pub(crate) struct Shard<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>> {
    /// This shard's index in `0..shard_count`.
    pub(crate) index: usize,
    /// Total number of shards (the round-robin stride).
    pub(crate) shard_count: usize,
    /// Global node count across all shards (what the protocol sees).
    nodes_total: usize,
    pub(crate) epoch: Instant,
    started: bool,
    pub(crate) slots: Vec<NodeSlot<N>>,
    /// This shard's replica of the network's fault state.
    faults: FaultState,
    /// Crash mark per (global) node: a crashed node neither sends nor
    /// receives.
    crashed: Vec<bool>,
    plan: Vec<PlannedFault>,
    plan_next: usize,
    cmds: Vec<(SimTime, NodeId, N::Command)>,
    cmds_next: usize,
    delayed: DelayQueue<HeldDatagram>,
    /// This shard's slice of the event stream; drained by the merge.
    pub(crate) trace: Vec<(SimTime, NodeId, GoCastEvent)>,
    record_trace: bool,
    /// Everything but the three drop counters the fault state keeps
    /// (see [`Shard::stats`]).
    stats: FabricStats,
    pub(crate) telemetry: FabricTelemetry,
    batch: BatchBuffer,
    /// Local slot index whose socket owns the gathered batch, if any.
    batch_owner: Option<usize>,
    recv: RecvBatch,
    mode: BatchMode,
}

impl<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>> std::fmt::Debug for Shard<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("shard_count", &self.shard_count)
            .field("nodes_total", &self.nodes_total)
            .field("slots", &self.slots.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<N: Stack<Msg = GoCastMsg, Event = GoCastEvent>> Shard<N>
where
    N::Command: Clone,
{
    pub(crate) fn new(
        index: usize,
        shard_count: usize,
        nodes_total: usize,
        seed: u64,
        record_trace: bool,
    ) -> Shard<N> {
        Shard {
            index,
            shard_count,
            nodes_total,
            epoch: Instant::now(),
            started: false,
            slots: Vec::new(),
            // One stream per shard, as the kernel has one per lane.
            faults: FaultState::new(nodes_total, seed, index as u32),
            crashed: vec![false; nodes_total],
            plan: Vec::new(),
            plan_next: 0,
            cmds: Vec::new(),
            cmds_next: 0,
            delayed: DelayQueue::new(),
            trace: Vec::new(),
            record_trace,
            stats: FabricStats::default(),
            telemetry: FabricTelemetry::default(),
            batch: BatchBuffer::new(),
            batch_owner: None,
            recv: RecvBatch::new(),
            mode: BatchMode::detect(),
        }
    }

    /// The global node id of local slot `local`.
    fn global_id(&self, local: usize) -> NodeId {
        NodeId::new((local * self.shard_count + self.index) as u32)
    }

    /// The batching mode this shard is currently running in.
    pub(crate) fn mode(&self) -> BatchMode {
        self.mode
    }

    pub(crate) fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[id.index()]
    }

    /// This shard's wire counters, with the drops its fault state counted
    /// by cause.
    pub(crate) fn stats(&self) -> FabricStats {
        FabricStats {
            dropped_loss: self.faults.losses(),
            dropped_partition: self.faults.partition_drops(),
            dropped_cut: self.faults.cut_drops(),
            ..self.stats
        }
    }

    pub(crate) fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: N::Command) {
        assert!(
            self.cmds_next == 0 || at >= self.cmds[self.cmds_next - 1].0,
            "cannot schedule a command before already-fired ones"
        );
        self.cmds.push((at, node, cmd));
        self.cmds[self.cmds_next..].sort_by_key(|(t, n, _)| (*t, n.as_u32()));
    }

    pub(crate) fn attach_plan(&mut self, events: &[PlannedFault]) {
        self.plan.extend(events.iter().cloned());
        self.plan[self.plan_next..].sort_by_key(|f| f.at);
    }

    /// Pending-resolution and remembered-question depths (for gauges).
    pub(crate) fn queue_depths(&self) -> (i64, i64) {
        let pending = self
            .slots
            .iter()
            .map(|s| s.pending.values().map(Vec::len).sum::<usize>())
            .sum::<usize>() as i64;
        let wanted = self.slots.iter().map(|s| s.wanted_len as i64).sum();
        (pending, wanted)
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn instant_of(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_nanos(t.as_nanos())
    }

    /// Flushes the gathered batch through its owner's socket.
    fn flush_batch(&mut self) {
        if let Some(owner) = self.batch_owner {
            self.batch
                .flush(&self.slots[owner].socket, &mut self.mode, &mut self.stats);
        }
        self.batch_owner = None;
    }

    /// Runs this shard's event loop until `deadline`. The first call
    /// fires `on_start` for every owned node.
    pub(crate) fn run_until(&mut self, deadline: Instant) {
        if !self.started {
            self.started = true;
            for local in 0..self.slots.len() {
                self.with_ctx(local, |n, ctx| n.on_start(ctx));
            }
        }
        loop {
            let now_i = Instant::now();
            if now_i >= deadline {
                self.flush_batch();
                return;
            }
            let now_s = self.now();
            let sent_before =
                self.stats.datagrams_sent + self.stats.delayed + self.batch.len() as u64;
            let mut activity = false;

            // 1. Planned scenario faults.
            while self.plan_next < self.plan.len() && self.plan[self.plan_next].at <= now_s {
                let fault = self.plan[self.plan_next].fault.clone();
                self.plan_next += 1;
                self.apply_fault(fault);
                activity = true;
            }
            // 2. Scheduled protocol commands (owned nodes only; the
            //    coordinator routes each command to its owner shard).
            while self.cmds_next < self.cmds.len() && self.cmds[self.cmds_next].0 <= now_s {
                let (_, id, cmd) = self.cmds[self.cmds_next].clone();
                self.cmds_next += 1;
                if !self.is_crashed(id) {
                    let local = id.index() / self.shard_count;
                    self.with_ctx(local, |n, ctx| n.on_command(ctx, cmd));
                }
                activity = true;
            }
            // 3. Due timers, per owned node.
            for local in 0..self.slots.len() {
                if self.is_crashed(self.global_id(local)) {
                    continue;
                }
                while let Some(t_deadline) = self.slots[local].timers.next_deadline() {
                    let Some(timer) = self.slots[local].timers.pop_due(now_i) else {
                        break;
                    };
                    self.telemetry
                        .timer_lateness_ns
                        .observe(now_i.saturating_duration_since(t_deadline).as_nanos() as u64);
                    self.with_ctx(local, |n, ctx| n.on_timer(ctx, timer));
                    activity = true;
                }
            }
            // 4. Jitter-delayed datagrams whose hold expired. These
            //    bypass the batch (rare path, arbitrary sender).
            while let Some(d) = self.delayed.pop_due(now_i) {
                self.stats.sendto_calls += 1;
                if self.slots[d.from_local]
                    .socket
                    .send_to(&d.bytes, d.dest)
                    .is_ok()
                {
                    self.stats.datagrams_sent += 1;
                    self.stats.bytes_sent += d.bytes.len() as u64;
                }
                activity = true;
            }
            // 5. Drain every owned socket in batches.
            let recv_before = self.stats.datagrams_received;
            let mut recv = std::mem::take(&mut self.recv);
            for local in 0..self.slots.len() {
                if self.is_crashed(self.global_id(local)) {
                    continue;
                }
                for _ in 0..DRAIN_BATCHES {
                    let got = recv.recv(&self.slots[local].socket, &mut self.mode, &mut self.stats);
                    for j in 0..got {
                        let (src, bytes) = recv.datagram(j);
                        self.on_datagram(local, src, bytes);
                    }
                    if got > 0 {
                        activity = true;
                    }
                    if got < RECV_BATCH {
                        break;
                    }
                }
            }
            self.recv = recv;

            // Everything gathered this iteration leaves before we sleep
            // or poll again, so batching never holds a datagram back
            // longer than one loop iteration.
            self.flush_batch();

            activity |= (self.stats.datagrams_sent + self.stats.delayed) != sent_before;
            if activity {
                self.telemetry
                    .datagrams_per_poll
                    .observe(self.stats.datagrams_received - recv_before);
                let (pending, wanted) = self.queue_depths();
                self.telemetry.pending_depth.set(pending);
                self.telemetry.wanted_depth.set(wanted);
                continue;
            }
            // 6. Idle: sleep until the earliest deadline we know about —
            //    timer wheels AND the jitter queue head (a delayed
            //    datagram must not wait for an unrelated timer).
            let mut next = deadline;
            if let Some(f) = self.plan.get(self.plan_next) {
                next = next.min(self.instant_of(f.at));
            }
            if let Some((t, _, _)) = self.cmds.get(self.cmds_next) {
                next = next.min(self.instant_of(*t));
            }
            if let Some(t) = self.delayed.next_deadline() {
                next = next.min(t);
            }
            for slot in &mut self.slots {
                if let Some(t) = slot.timers.next_deadline() {
                    next = next.min(t);
                }
            }
            let wait = next
                .saturating_duration_since(Instant::now())
                .min(IDLE_POLL);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }

    /// Replays one planned fault. Network faults and crash marks update
    /// this shard's replicas (every shard replays them so all replicas
    /// agree); `Leave`/`Join` protocol commands dispatch only on the shard
    /// that owns the node.
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(id) => self.crashed[id.index()] = true,
            Fault::Leave(id) => {
                if self.owns(id) && !self.is_crashed(id) {
                    let local = id.index() / self.shard_count;
                    self.with_ctx(local, |n, ctx| n.on_command(ctx, N::cmd_leave()));
                }
            }
            Fault::Join { node, contact } => {
                if self.owns(node) && !self.is_crashed(node) {
                    let local = node.index() / self.shard_count;
                    self.with_ctx(local, |n, ctx| n.on_command(ctx, N::cmd_join(contact)));
                }
            }
            Fault::Net(fault) => self.faults.apply(&fault),
        }
    }

    fn owns(&self, id: NodeId) -> bool {
        id.index() % self.shard_count == self.index
    }

    /// Handles one received datagram for local slot `local`.
    fn on_datagram(&mut self, local: usize, src: SocketAddr, data: &[u8]) {
        let Some(frame) = decode_frame(data) else {
            self.stats.malformed += 1;
            return;
        };
        // An id in a frame is self-declared, and downstream it indexes the
        // crash marks and the partition labels and keys the peer table: an
        // id this fabric does not host is a stranger's, whatever the rest
        // of the frame says.
        let max_id = match frame {
            Frame::Data { sender, .. } => sender,
            Frame::WhoHas { sender, target } => sender.max(target),
            Frame::Peer { sender, peer, .. } => sender.max(peer),
        };
        if max_id.index() >= self.nodes_total {
            self.stats.malformed += 1;
            return;
        }
        match frame {
            Frame::Data { sender, payload } => {
                let msg = match decode(payload) {
                    Ok(m) => m,
                    Err(_) => {
                        self.stats.malformed += 1;
                        return;
                    }
                };
                if self.slots[local].peers.learn(sender, src) {
                    self.on_learned(local, sender);
                }
                self.stats.wire_msgs += 1;
                self.with_ctx(local, |n, ctx| n.on_message(ctx, sender, msg));
            }
            Frame::WhoHas { sender, target } => {
                if self.slots[local].peers.learn(sender, src) {
                    self.on_learned(local, sender);
                }
                match self.slots[local].peers.addr_of(target) {
                    Some(addr) => self.answer_whohas(local, sender, src, target, addr),
                    None => {
                        // Remember the question; answer when the target
                        // first contacts us (bounded memory).
                        let slot = &mut self.slots[local];
                        if slot.wanted_len < WANTED_CAP {
                            slot.wanted.entry(target).or_default().push((sender, src));
                            slot.wanted_len += 1;
                        }
                    }
                }
            }
            Frame::Peer { sender, peer, addr } => {
                if self.slots[local].peers.learn(sender, src) {
                    self.on_learned(local, sender);
                }
                if self.slots[local].peers.learn(peer, addr) {
                    self.on_learned(local, peer);
                }
            }
        }
    }

    /// Local node `local` just learned `peer`'s address: flush datagrams
    /// queued for it and answer anyone who asked where it lives.
    fn on_learned(&mut self, local: usize, peer: NodeId) {
        let Some(addr) = self.slots[local].peers.addr_of(peer) else {
            return;
        };
        if let Some(queue) = self.slots[local].pending.remove(&peer) {
            for bytes in queue {
                self.transmit_local(local, peer, addr, &bytes);
            }
        }
        if let Some(askers) = self.slots[local].wanted.remove(&peer) {
            self.slots[local].wanted_len -= askers.len();
            for (asker, asker_addr) in askers {
                self.answer_whohas(local, asker, asker_addr, peer, addr);
            }
        }
    }

    fn answer_whohas(
        &mut self,
        local: usize,
        asker: NodeId,
        asker_addr: SocketAddr,
        target: NodeId,
        target_addr: SocketAddr,
    ) {
        let me = self.global_id(local);
        if let Some(bytes) = encode_peer(me, target, target_addr) {
            self.stats.peer_replies += 1;
            self.transmit_local(local, asker, asker_addr, &bytes);
        }
    }

    /// Sends pre-framed bytes from local slot `local` to `to`.
    fn transmit_local(&mut self, local: usize, to: NodeId, dest: SocketAddr, bytes: &[u8]) {
        self.claim_batch(local);
        self.tx(local)
            .transmit(to, dest, |buf| buf.extend_from_slice(bytes));
    }

    /// Makes `local`'s socket the owner of the gathered batch, flushing
    /// anything a different sender gathered.
    fn claim_batch(&mut self, local: usize) {
        if self.batch_owner != Some(local) {
            self.flush_batch();
            self.batch_owner = Some(local);
        }
    }

    /// The transmit path of local slot `local` (which must own the batch).
    fn tx(&mut self, local: usize) -> Tx<'_> {
        Tx {
            from: self.global_id(local),
            local,
            socket: &self.slots[local].socket,
            faults: &mut self.faults,
            crashed: &self.crashed,
            delayed: &mut self.delayed,
            stats: &mut self.stats,
            batch: &mut self.batch,
            mode: &mut self.mode,
        }
    }

    /// Runs a protocol handler for local slot `local` with a
    /// fabric-backed context (claiming the batch for `local`'s socket
    /// first).
    pub(crate) fn with_ctx<F>(&mut self, local: usize, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N>),
    {
        self.claim_batch(local);
        let node_count = self.nodes_total;
        let now = self.now();
        let id = self.global_id(local);
        let Shard {
            slots,
            faults,
            crashed,
            delayed,
            trace,
            record_trace,
            stats,
            batch,
            mode,
            ..
        } = self;
        let slot = &mut slots[local];
        let mut io = FabricIo {
            now,
            node_count,
            peers: &mut slot.peers,
            pending: &mut slot.pending,
            timers: &mut slot.timers,
            trace,
            record_trace: *record_trace,
            tx: Tx {
                from: id,
                local,
                socket: &slot.socket,
                faults,
                crashed,
                delayed,
                stats,
                batch,
                mode,
            },
        };
        let mut ctx = Ctx::for_host(id, now, &mut slot.rng, &mut io);
        f(&mut slot.node, &mut ctx);
    }
}

/// What one local sender needs to put a datagram on the wire.
struct Tx<'a> {
    from: NodeId,
    /// The sender's local slot; its socket owns the gathered batch.
    local: usize,
    socket: &'a UdpSocket,
    faults: &'a mut FaultState,
    crashed: &'a [bool],
    delayed: &'a mut DelayQueue<HeldDatagram>,
    stats: &'a mut FabricStats,
    batch: &'a mut BatchBuffer,
    mode: &'a mut BatchMode,
}

impl Tx<'_> {
    /// The one transmit path: judges `from → to` — crash marks, then the
    /// structural faults, then the loss and jitter draws, the kernel's
    /// order — and gathers the datagram `fill` writes into the batch,
    /// holds it for its jitter delay, or counts the drop (here for a
    /// crashed endpoint, in the fault state for the rest).
    fn transmit(&mut self, to: NodeId, dest: SocketAddr, fill: impl FnOnce(&mut Vec<u8>)) {
        if self.crashed[self.from.index()] || self.crashed[to.index()] {
            self.stats.dropped_crashed += 1;
            return;
        }
        if self.faults.blocked(self.from, to) {
            return;
        }
        let mut hold = Duration::ZERO;
        if self.faults.active() {
            match self.faults.draw(self.from, to) {
                Some(extra) => hold = extra,
                None => return,
            }
        }
        if hold.is_zero() {
            // Steady-state fast path: `fill` writes straight into the
            // reused batch slot.
            if self.batch.push_with(dest, fill) {
                self.batch.flush(self.socket, self.mode, self.stats);
            }
        } else {
            self.stats.delayed += 1;
            let mut bytes = Vec::new();
            fill(&mut bytes);
            let held = HeldDatagram {
                from_local: self.local,
                dest,
                bytes,
            };
            self.delayed.push(Instant::now() + hold, held);
        }
    }
}

/// The world a protocol handler sees on the fabric.
struct FabricIo<'a> {
    now: SimTime,
    node_count: usize,
    peers: &'a mut PeerTable,
    pending: &'a mut FxHashMap<NodeId, Vec<Vec<u8>>>,
    timers: &'a mut TimerWheel,
    trace: &'a mut Vec<(SimTime, NodeId, GoCastEvent)>,
    record_trace: bool,
    tx: Tx<'a>,
}

impl<P: Protocol<Msg = GoCastMsg, Event = GoCastEvent>> HostBackend<P> for FabricIo<'_> {
    fn send(&mut self, to: NodeId, msg: GoCastMsg) {
        let id = self.tx.from;
        let framed = |buf: &mut Vec<u8>| {
            frame_data_into(id, buf);
            encode_into(&msg, buf);
        };
        match self.peers.addr_of(to) {
            Some(dest) => self.tx.transmit(to, dest, framed),
            None => {
                // Unknown peer: queue the datagram and ask the seeds.
                // Bootstrap-only path — allocation here is fine.
                let mut bytes = Vec::with_capacity(5 + gocast::encoded_len(&msg));
                framed(&mut bytes);
                let queue = self.pending.entry(to).or_default();
                if queue.len() >= PENDING_CAP {
                    queue.remove(0);
                    self.tx.stats.unresolved_dropped += 1;
                }
                queue.push(bytes);
                // Query on the first enqueue, then every eighth, so a
                // lost query is retried as protocol traffic keeps coming.
                if queue.len() % 8 == 1 {
                    let query = encode_whohas(id, to);
                    for &(seed, seed_addr) in self.peers.seeds() {
                        if seed == id {
                            continue;
                        }
                        self.tx.stats.whohas_sent += 1;
                        self.tx
                            .transmit(seed, seed_addr, |buf| buf.extend_from_slice(&query));
                    }
                }
            }
        }
    }

    fn set_timer(&mut self, delay: Duration, timer: Timer) {
        self.timers.schedule(Instant::now() + delay, timer);
    }

    fn emit(&mut self, event: GoCastEvent) {
        if self.record_trace {
            self.trace.push((self.now, self.tx.from, event));
        }
    }

    fn node_count(&self) -> usize {
        self.node_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::NetFault;
    use std::net::Ipv4Addr;

    /// The state a [`Tx`] borrows, owned.
    struct Wire {
        socket: UdpSocket,
        faults: FaultState,
        crashed: Vec<bool>,
        delayed: DelayQueue<HeldDatagram>,
        stats: FabricStats,
        batch: BatchBuffer,
        mode: BatchMode,
    }

    impl Wire {
        /// Transmits one byte `from → to`; whether it was gathered to go out.
        fn send(&mut self, from: u32, to: u32) -> bool {
            let before = self.batch.len();
            let dest = self.socket.local_addr().expect("bound");
            let mut tx = Tx {
                from: NodeId::new(from),
                local: 0,
                socket: &self.socket,
                faults: &mut self.faults,
                crashed: &self.crashed,
                delayed: &mut self.delayed,
                stats: &mut self.stats,
                batch: &mut self.batch,
                mode: &mut self.mode,
            };
            tx.transmit(NodeId::new(to), dest, |buf| buf.push(0));
            self.batch.len() > before
        }
    }

    #[test]
    fn crashed_nodes_are_silenced_and_self_sends_bypass_faults() {
        let Ok(socket) = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)) else {
            return; // no loopback sockets in this sandbox
        };
        let mut wire = Wire {
            socket,
            faults: FaultState::new(3, 1, 0),
            crashed: vec![false; 3],
            delayed: DelayQueue::new(),
            stats: FabricStats::default(),
            batch: BatchBuffer::new(),
            mode: BatchMode::detect(),
        };
        wire.faults.apply(&NetFault::SetLoss(1.0));
        assert!(wire.send(1, 1), "self-send exempt");
        assert!(!wire.send(0, 1));
        assert_eq!(wire.faults.losses(), 1);
        wire.crashed[2] = true;
        assert!(!wire.send(0, 2));
        assert!(!wire.send(2, 0));
        assert!(!wire.send(2, 2));
        // Crash marks are judged first: those three never reached a draw.
        assert_eq!((wire.stats.dropped_crashed, wire.faults.losses()), (3, 1));
        assert_eq!(wire.stats.delayed, 0);
    }
}
