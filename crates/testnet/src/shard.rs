//! One shard of the fabric: a slice of nodes driven by one OS thread.
//!
//! The fabric partitions its nodes round-robin across `shards` event
//! loops (`global_id % shards` names the owning shard). A shard is a
//! kernel lane: it holds a one-lane [`Worker`], lane `index` of
//! `shard_count` — so its nodes' RNG streams, its chaos stream and its
//! tie keys are the ones the engine gives that lane — and the lane's
//! [`Link`] is a [`WireLink`] over the shard's sockets. Dispatch, the
//! timer contract, liveness and the fault state are therefore the
//! kernel's own code on both hosts. A send draws its loss and jitter in
//! the lane's send path; the link frames it into the sending socket's
//! batch, queues it while the peer's address is unknown, or holds it for
//! its jitter. What the wire alone has stays here: sockets, syscall
//! batching, address discovery ([`PeerTable`], WHOHAS/PEER), the
//! [`FabricStats`] and the jitter holds.
//!
//! Each loop iteration:
//!
//! 1. fires everything due, in the kernel's `(time, scheduling order)`,
//!    at the fabric time it fires ([`Worker::fire_due`]): planned faults
//!    (mapped by `ScenarioPlan::schedule_into`, as in the engine),
//!    harness commands and timers — a crashed node's are popped and
//!    dropped, and nothing is replaced or cancelled;
//! 2. sends the jitter-held datagrams now due;
//! 3. drains every socket in batches and hands each decoded DATA frame to
//!    the lane as an arriving message ([`Worker::arrive`]), which judges
//!    — once, as the kernel judges a delivery — whether the receiver is
//!    dead or the path cut or partitioned. A crashed node's socket is
//!    drained too, so what was in flight to it is counted dead, not left
//!    unread;
//! 4. flushes the gathered batch, and sleeps until the next due time if
//!    it did nothing.
//!
//! Cross-shard traffic needs no special handoff: datagrams travel over
//! real loopback UDP exactly like intra-shard traffic, so a shard never
//! touches another shard's state. Recorded [`GoCastEvent`]s stay in
//! per-shard streams (each stream is time-sorted by construction) and the
//! coordinator merges them deterministically after every run window — the
//! same submission-order merge discipline the simulator's `parallel_map`
//! uses.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use gocast::{decode, encode_into, GoCastEvent, GoCastMsg};
use gocast_metrics::{Gauge, Log2Histogram};
use gocast_sim::{
    EventClass, EventQueue, FxHashMap, Link, NetFates, NodeId, Protocol, Recorder, Sender, SimTime,
    Worker,
};

use crate::batch::{BatchBuffer, BatchMode, RecvBatch, RECV_BATCH};
use crate::bootstrap::{
    decode_frame, encode_peer, encode_whohas, frame_data_into, Frame, Learned, PeerTable,
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

/// Wire-side counters, separate from what happened to each message, which
/// the event stream's delivery ledger (`gocast_analysis::DeliveryTracker`)
/// counts.
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
    /// The datagrams the network did not deliver, by fate (counted by the
    /// shards' lanes, in their [`gocast_sim::FaultState`] replicas).
    pub fates: NetFates,
    /// Datagrams held back by injected jitter.
    pub delayed: u64,
    /// Address queries sent (bootstrap discovery).
    pub whohas_sent: u64,
    /// Address answers sent.
    pub peer_replies: u64,
    /// Protocol sends dropped because the peer address stayed unknown
    /// (or never can be: the id is one the fabric does not host).
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
        self.fates.merge(&other.fates);
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
            "sent={} recv={} msgs={} saved={} delayed={} fates(lost/cut/part/dead)={}/{}/{}/{} \
             whohas={} replies={} unresolved={} malformed={}",
            self.datagrams_sent,
            self.datagrams_received,
            self.wire_msgs,
            self.syscalls_saved,
            self.delayed,
            self.fates.lost,
            self.fates.cut,
            self.fates.partitioned,
            self.fates.dead,
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
struct HeldDatagram {
    from_local: usize,
    dest: SocketAddr,
    bytes: Vec<u8>,
}

/// One hosted node's transport: its socket and what it knows of where its
/// peers live.
#[derive(Debug)]
pub(crate) struct Port {
    pub(crate) socket: UdpSocket,
    pub(crate) addr: SocketAddr,
    pub(crate) peers: PeerTable,
    /// Framed datagrams awaiting address resolution, per unknown peer.
    pending: FxHashMap<NodeId, Vec<Vec<u8>>>,
    /// Questions this node could not answer yet: target → where the
    /// askers live.
    wanted: FxHashMap<NodeId, Vec<SocketAddr>>,
    wanted_len: usize,
}

impl Port {
    pub(crate) fn new(socket: UdpSocket, addr: SocketAddr, peers: PeerTable) -> Port {
        Port {
            socket,
            addr,
            peers,
            pending: FxHashMap::default(),
            wanted: FxHashMap::default(),
            wanted_len: 0,
        }
    }
}

/// A shard lane's [`Link`]: each send leaves through the sending node's
/// socket, gathered into the batch, queued for a peer whose address is
/// unknown, or held for its jitter.
#[derive(Debug)]
pub(crate) struct WireLink {
    index: usize,
    shard_count: usize,
    nodes_total: usize,
    /// By local slot: node `local * shard_count + index`.
    pub(crate) ports: Vec<Port>,
    /// Everything but the fates, which the lane's fault state counts (see
    /// [`Shard::stats`]).
    stats: FabricStats,
    batch: BatchBuffer,
    /// Local slot whose socket owns the gathered batch, if any.
    batch_owner: Option<usize>,
    mode: BatchMode,
    /// Jitter-held datagrams, by release time.
    held: EventQueue<HeldDatagram>,
}

impl<P: Protocol<Msg = GoCastMsg>> Link<P> for WireLink {
    type Env = ();

    fn send(
        &mut self,
        _: &(),
        sender: &mut Sender<'_, P>,
        to: NodeId,
        msg: GoCastMsg,
        extra: Duration,
    ) {
        // A decoded message can name any id (a gossip's member list is
        // not range-checked); one this fabric does not host never
        // resolves, so it must not open a pending queue or ask the seeds.
        if to.index() >= self.nodes_total {
            self.stats.unresolved_dropped += 1;
            return;
        }
        let from = sender.from;
        let local = from.index() / self.shard_count;
        let framed = |buf: &mut Vec<u8>| {
            frame_data_into(from, buf);
            encode_into(&msg, buf);
        };
        match self.ports[local].peers.addr_of(to) {
            // Steady-state fast path: the frame is written straight into
            // the reused batch slot.
            Some(dest) if extra.is_zero() => self.gather(local, dest, framed),
            Some(dest) => {
                self.stats.delayed += 1;
                let mut bytes = Vec::new();
                framed(&mut bytes);
                let held = HeldDatagram {
                    from_local: local,
                    dest,
                    bytes,
                };
                self.held.schedule(sender.now + extra, held);
            }
            None => {
                // Unknown peer: queue the datagram and ask the seeds; it
                // leaves when the address does, its jitter spent waiting.
                // Bootstrap-only path — allocation here is fine.
                let mut bytes = Vec::with_capacity(5 + gocast::encoded_len(&msg));
                framed(&mut bytes);
                self.queue_unresolved(local, to, bytes);
            }
        }
    }
}

impl WireLink {
    fn new(index: usize, shard_count: usize, nodes_total: usize) -> WireLink {
        WireLink {
            index,
            shard_count,
            nodes_total,
            ports: Vec::new(),
            stats: FabricStats::default(),
            batch: BatchBuffer::new(),
            batch_owner: None,
            mode: BatchMode::detect(),
            held: EventQueue::new(),
        }
    }

    /// The global node id of local slot `local`.
    fn global_id(&self, local: usize) -> NodeId {
        NodeId::new((local * self.shard_count + self.index) as u32)
    }

    /// Gathers the datagram `fill` writes, from local slot `local` to
    /// `dest`, into the batch, first flushing anything another sender
    /// gathered.
    fn gather(&mut self, local: usize, dest: SocketAddr, fill: impl FnOnce(&mut Vec<u8>)) {
        if self.batch_owner != Some(local) {
            self.flush();
            self.batch_owner = Some(local);
        }
        if self.batch.push_with(dest, fill) {
            let socket = &self.ports[local].socket;
            self.batch.flush(socket, &mut self.mode, &mut self.stats);
        }
    }

    /// Flushes the gathered batch through its owner's socket.
    fn flush(&mut self) {
        if let Some(owner) = self.batch_owner.take() {
            let socket = &self.ports[owner].socket;
            self.batch.flush(socket, &mut self.mode, &mut self.stats);
        }
    }

    /// Sends every held datagram due by `now` (bypassing the batch: rare
    /// path, arbitrary sender); whether there was one.
    fn release_held(&mut self, now: SimTime) -> bool {
        let mut released = false;
        while let Some(due) = self.held.pop_at_or_before(now) {
            let d = due.payload;
            released = true;
            self.stats.sendto_calls += 1;
            if self.ports[d.from_local]
                .socket
                .send_to(&d.bytes, d.dest)
                .is_ok()
            {
                self.stats.datagrams_sent += 1;
                self.stats.bytes_sent += d.bytes.len() as u64;
            }
        }
        released
    }

    /// Queues framed `bytes` from local slot `local` for `to`, whose
    /// address it does not know yet, asking the seeds on the first
    /// datagram and every eighth after, so a lost query is retried as
    /// protocol traffic keeps coming.
    fn queue_unresolved(&mut self, local: usize, to: NodeId, bytes: Vec<u8>) {
        let queue = self.ports[local].pending.entry(to).or_default();
        if queue.len() >= PENDING_CAP {
            queue.remove(0);
            self.stats.unresolved_dropped += 1;
        }
        queue.push(bytes);
        if queue.len() % 8 != 1 {
            return;
        }
        let me = self.global_id(local);
        let query = encode_whohas(me, to);
        for k in 0..self.ports[local].peers.seeds().len() {
            let (seed, seed_addr) = self.ports[local].peers.seeds()[k];
            if seed != me {
                self.stats.whohas_sent += 1;
                self.gather(local, seed_addr, |buf| buf.extend_from_slice(&query));
            }
        }
    }

    /// Binds `peer` to `addr` in local slot `local`'s table. A new binding
    /// flushes what waited for it and answers whoever asked; a conflicting
    /// one means the frame lies, so it counts malformed and `false` tells
    /// the caller to drop the frame.
    fn learn(&mut self, local: usize, peer: NodeId, addr: SocketAddr) -> bool {
        match self.ports[local].peers.learn(peer, addr) {
            Learned::Known => true,
            Learned::Conflict => {
                self.stats.malformed += 1;
                false
            }
            Learned::New => {
                let port = &mut self.ports[local];
                let queued = port.pending.remove(&peer).unwrap_or_default();
                let askers = port.wanted.remove(&peer).unwrap_or_default();
                port.wanted_len -= askers.len();
                for bytes in queued {
                    self.gather(local, addr, |buf| buf.extend_from_slice(&bytes));
                }
                for asker in askers {
                    self.answer_whohas(local, asker, peer, addr);
                }
                true
            }
        }
    }

    /// `sender`, at `src`, asks local slot `local` where `target` lives:
    /// answer now, or remember the question (bounded) until `target`
    /// first makes contact.
    fn on_whohas(&mut self, local: usize, sender: NodeId, src: SocketAddr, target: NodeId) {
        if !self.learn(local, sender, src) {
            return;
        }
        match self.ports[local].peers.addr_of(target) {
            Some(addr) => self.answer_whohas(local, src, target, addr),
            None => {
                let port = &mut self.ports[local];
                if port.wanted_len < WANTED_CAP {
                    port.wanted.entry(target).or_default().push(src);
                    port.wanted_len += 1;
                }
            }
        }
    }

    fn answer_whohas(
        &mut self,
        local: usize,
        asker_addr: SocketAddr,
        target: NodeId,
        target_addr: SocketAddr,
    ) {
        if let Some(bytes) = encode_peer(self.global_id(local), target, target_addr) {
            self.stats.peer_replies += 1;
            self.gather(local, asker_addr, |buf| buf.extend_from_slice(&bytes));
        }
    }
}

/// A shard's slice of the event stream: every event, or none when the
/// fabric was built with `record_trace` off.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    on: bool,
    pub(crate) events: Vec<(SimTime, NodeId, GoCastEvent)>,
}

impl Recorder<GoCastEvent> for Trace {
    fn record(&mut self, now: SimTime, node: NodeId, event: GoCastEvent) {
        if self.on {
            self.events.push((now, node, event));
        }
    }
}

/// One event loop's worth of fabric state. See the [module docs](self).
pub(crate) struct Shard<N: Protocol<Msg = GoCastMsg, Event = GoCastEvent>> {
    pub(crate) epoch: Instant,
    started: bool,
    /// Lane `index` of `shard_count`: this shard's nodes, their queue and
    /// fault state, and (its link) their sockets.
    pub(crate) worker: Worker<N, WireLink>,
    pub(crate) trace: Trace,
    pub(crate) telemetry: FabricTelemetry,
    recv: RecvBatch,
}

impl<N: Protocol<Msg = GoCastMsg, Event = GoCastEvent>> std::fmt::Debug for Shard<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("worker", &self.worker)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<N: Protocol<Msg = GoCastMsg, Event = GoCastEvent>> Shard<N> {
    pub(crate) fn new(
        index: usize,
        shard_count: usize,
        nodes_total: usize,
        seed: u64,
        record_trace: bool,
    ) -> Shard<N> {
        let link = WireLink::new(index, shard_count, nodes_total);
        Shard {
            epoch: Instant::now(),
            started: false,
            worker: Worker::one_lane(index as u32, shard_count as u32, seed, nodes_total, link),
            trace: Trace {
                on: record_trace,
                events: Vec::new(),
            },
            telemetry: FabricTelemetry::default(),
            recv: RecvBatch::new(),
        }
    }

    /// Adds the shard's next node, `id`, on `port` (push in increasing id
    /// order); `seed` is the run seed.
    pub(crate) fn push_node(&mut self, id: NodeId, node: N, port: Port, seed: u64) {
        self.worker.push_node(id, node, seed);
        self.worker.link_mut().ports.push(port);
    }

    /// The batching mode this shard is currently running in.
    pub(crate) fn mode(&self) -> BatchMode {
        self.worker.link().mode
    }

    /// This shard's wire counters, with the fates its fault state counted.
    pub(crate) fn stats(&self) -> FabricStats {
        FabricStats {
            fates: self.worker.kernel_stats().fates,
            ..self.worker.link().stats
        }
    }

    /// Pending-resolution and remembered-question depths (for gauges).
    pub(crate) fn queue_depths(&self) -> (i64, i64) {
        let ports = &self.worker.link().ports;
        let pending = ports
            .iter()
            .map(|p| p.pending.values().map(Vec::len).sum::<usize>())
            .sum::<usize>() as i64;
        let wanted = ports.iter().map(|p| p.wanted_len as i64).sum();
        (pending, wanted)
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Runs this shard's event loop until `deadline`. The first call
    /// fires `on_start` for every owned node.
    pub(crate) fn run_until(&mut self, deadline: Instant) {
        if !self.started {
            self.started = true;
            self.worker.start(&(), &mut self.trace);
        }
        let until =
            SimTime::from_nanos(deadline.saturating_duration_since(self.epoch).as_nanos() as u64);
        loop {
            let now = self.now();
            if now >= until {
                self.worker.link_mut().flush();
                return;
            }
            let sent = |sh: &Self| {
                let s = &sh.worker.link().stats;
                s.datagrams_sent + s.delayed + sh.worker.link().batch.len() as u64
            };
            let sent_before = sent(self);
            let mut activity = false;

            // 1. Everything due, in the kernel's (time, scheduling order).
            while let Some((due, class)) = self.worker.fire_due(now, &(), &mut self.trace) {
                if class == EventClass::Timer {
                    let late = now.saturating_since(due).as_nanos() as u64;
                    self.telemetry.timer_lateness_ns.observe(late);
                }
                activity = true;
            }
            // 2. Jitter holds now due.
            activity |= self.worker.link_mut().release_held(now);
            // 3. Drain every owned socket in batches.
            let recv_before = self.worker.link().stats.datagrams_received;
            let mut recv = std::mem::take(&mut self.recv);
            for local in 0..self.worker.link().ports.len() {
                for _ in 0..DRAIN_BATCHES {
                    let link = self.worker.link_mut();
                    let socket = &link.ports[local].socket;
                    let got = recv.recv(socket, &mut link.mode, &mut link.stats);
                    for j in 0..got {
                        let (src, bytes) = recv.datagram(j);
                        self.on_datagram(local, src, bytes);
                    }
                    activity |= got > 0;
                    if got < RECV_BATCH {
                        break;
                    }
                }
            }
            self.recv = recv;

            // 4. Everything gathered this iteration leaves before we sleep
            //    or poll again, so batching never holds a datagram back
            //    longer than one loop iteration.
            self.worker.link_mut().flush();

            activity |= sent(self) != sent_before;
            if activity {
                let received = self.worker.link().stats.datagrams_received;
                self.telemetry
                    .datagrams_per_poll
                    .observe(received - recv_before);
                let (pending, wanted) = self.queue_depths();
                self.telemetry.pending_depth.set(pending);
                self.telemetry.wanted_depth.set(wanted);
                continue;
            }
            // Idle: sleep until the next due event or held datagram.
            let held = self.worker.link().held.peek_time();
            let next = [self.worker.next_due(), held, Some(until)]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(until);
            let wait = next.saturating_since(self.now()).min(IDLE_POLL);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }

    /// Handles one received datagram for local slot `local`.
    fn on_datagram(&mut self, local: usize, src: SocketAddr, data: &[u8]) {
        let link = self.worker.link_mut();
        let Some(frame) = decode_frame(data) else {
            link.stats.malformed += 1;
            return;
        };
        // An id in a frame is self-declared, and downstream it indexes the
        // liveness flags and the partition labels and keys the peer table:
        // an id this fabric does not host is a stranger's, whatever the
        // rest of the frame says.
        let max_id = match frame {
            Frame::Data { sender, .. } => sender,
            Frame::WhoHas { sender, target } => sender.max(target),
            Frame::Peer { sender, peer, .. } => sender.max(peer),
        };
        if max_id.index() >= link.nodes_total {
            link.stats.malformed += 1;
            return;
        }
        match frame {
            Frame::Data { sender, payload } => {
                let Ok(msg) = decode(payload) else {
                    link.stats.malformed += 1;
                    return;
                };
                if !link.learn(local, sender, src) {
                    return;
                }
                link.stats.wire_msgs += 1;
                let to = link.global_id(local);
                let now = self.now();
                self.worker
                    .arrive(now, sender, to, msg, &(), &mut self.trace);
            }
            Frame::WhoHas { sender, target } => link.on_whohas(local, sender, src, target),
            Frame::Peer { sender, peer, addr } => {
                if link.learn(local, sender, src) {
                    link.learn(local, peer, addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::{Ctx, NetFault, Timer};
    use std::net::Ipv4Addr;

    /// Sends one message to the node each command names; nothing else.
    struct Sends;

    impl Protocol for Sends {
        type Msg = GoCastMsg;
        type Command = NodeId;
        type Event = GoCastEvent;
        fn on_start(&mut self, _: &mut Ctx<'_, Self>) {}
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: GoCastMsg) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, Self>, _: Timer) {}
        fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId) {
            ctx.send(to, GoCastMsg::JoinRequest);
        }
    }

    /// A one-shard fabric of `nodes` [`Sends`] nodes that know every
    /// address; `None` without loopback sockets.
    fn shard(nodes: u32) -> Option<Shard<Sends>> {
        let bound: Vec<_> = (0..nodes)
            .map(|_| {
                let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).ok()?;
                s.set_nonblocking(true).ok()?;
                let a = s.local_addr().ok()?;
                Some((s, a))
            })
            .collect::<Option<_>>()?;
        let book: Vec<_> = (0..nodes)
            .map(|i| (NodeId::new(i), bound[i as usize].1))
            .collect();
        let mut sh = Shard::new(0, 1, nodes as usize, 1, false);
        for (i, (socket, addr)) in bound.into_iter().enumerate() {
            let port = Port::new(socket, addr, PeerTable::new(book.clone()));
            sh.push_node(NodeId::new(i as u32), Sends, port, 1);
        }
        Some(sh)
    }

    /// Every pair `a -> b` of `nodes`, at `at`.
    fn round(sh: &mut Shard<Sends>, nodes: u32, at: SimTime) {
        for a in 0..nodes {
            for b in 0..nodes {
                sh.worker
                    .schedule_command(at, NodeId::new(a), NodeId::new(b));
            }
        }
    }

    fn run(sh: &mut Shard<Sends>, ms: u64) {
        sh.run_until(Instant::now() + Duration::from_millis(ms));
    }

    /// A crash silences a node — it sends nothing, and what arrives for it
    /// is dead — while a node's sends to itself never meet a fault.
    #[test]
    fn crashed_nodes_are_silenced_and_self_sends_bypass_faults() {
        let Some(mut sh) = shard(3) else {
            return;
        };
        let (ms, n) = (SimTime::from_millis, NodeId::new);
        sh.worker.schedule_fault(ms(5), &NetFault::SetLoss(1.0));
        sh.worker.schedule_command(ms(10), n(1), n(1));
        sh.worker.schedule_command(ms(10), n(0), n(1));
        sh.worker.schedule_fault(ms(20), &NetFault::SetLoss(0.0));
        sh.worker.fail_node_at(ms(20), n(2));
        for (from, to) in [(0, 2), (2, 0), (2, 2)] {
            sh.worker.schedule_command(ms(30), n(from), n(to));
        }
        run(&mut sh, 120);
        let k = sh.worker.kernel_stats();
        // Two sends from node 2 never ran: three commands of five did.
        assert_eq!(k.commands, 3);
        assert_eq!((k.fates.lost, k.fates.dead), (1, 1), "{:?}", k.fates);
        assert_eq!(k.deliveries, 1, "the self-send arrives despite the loss");
        assert_eq!(sh.stats().datagrams_received, 2);
    }

    /// Conservation on the wire, under a plan that exercises every fate:
    /// each protocol send is gathered, held or lost, once; each datagram
    /// that arrives is dispatched or meets one fate.
    #[test]
    fn every_transmit_is_gathered_held_or_fated_once() {
        const NODES: u32 = 8;
        let Some(mut sh) = shard(NODES) else {
            return;
        };
        let ms = SimTime::from_millis;
        let (zero, one) = (NodeId::new(0), NodeId::new(1));
        let w = &mut sh.worker;
        w.schedule_fault(ms(1), &NetFault::CutLink(zero, one));
        w.schedule_fault(ms(1), &NetFault::partition(vec![0, 0, 0, 0, 1, 1, 1, 1]));
        w.schedule_fault(ms(1), &NetFault::SetLoss(0.3));
        w.schedule_fault(ms(1), &NetFault::SetJitter(Duration::from_millis(1)));
        w.fail_node_at(ms(1), NodeId::new(NODES - 1));
        round(&mut sh, NODES, ms(10));
        round(&mut sh, NODES, ms(20));
        sh.worker.schedule_fault(ms(25), &NetFault::HealPartition);
        sh.worker
            .schedule_fault(ms(25), &NetFault::HealLink(zero, one));
        round(&mut sh, NODES, ms(30));
        run(&mut sh, 200);

        let (k, s) = (sh.worker.kernel_stats(), sh.stats());
        let fates = k.fates;
        assert!(
            fates.lost > 0 && fates.cut > 0 && fates.partitioned > 0 && fates.dead > 0,
            "the plan exercises every fate: {fates:?}"
        );
        // The crashed node's 3 rounds of sends never ran.
        let sends = 3 * u64::from(NODES * (NODES - 1));
        assert_eq!(k.commands, sends);
        let held = s.delayed;
        let gathered = s.datagrams_sent - held;
        assert!(gathered > 0 && held > 0, "{s}");
        assert_eq!(gathered + held + fates.lost, sends, "{s}");
        assert_eq!(sh.worker.link().held.len(), 0, "every hold released");
        assert_eq!(s.datagrams_received, s.datagrams_sent, "{s}");
        assert_eq!(s.wire_msgs, s.datagrams_received);
        let stopped = fates.cut + fates.partitioned + fates.dead;
        assert_eq!(s.datagrams_received, k.deliveries + stopped, "{s}");
    }
}
