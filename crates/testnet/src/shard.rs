//! One shard of the fabric: a slice of nodes driven by one OS thread.
//!
//! A shard is a bare kernel [`Worker`] of the fabric's [`Placement`], so
//! which shard owns a node, its nodes' RNG streams, their loss/jitter
//! draws and their tie keys are the ones the engine gives them; the
//! worker's [`Link`] is a [`WireLink`] over the shard's sockets. Dispatch,
//! the timer contract, liveness and the fault state are therefore the
//! kernel's own code on both hosts. A send draws its loss and jitter in
//! the worker's send path; the link frames it into
//! the sending socket's batch, queues it while the peer's address is
//! unknown, or holds it for its jitter. What the wire alone has stays in
//! the link: sockets, syscall batching, address discovery
//! ([`PeerTable`], WHOHAS/PEER), the [`FabricStats`], the jitter holds,
//! the loop's receive buffers and its [`FabricTelemetry`].
//!
//! Each loop iteration:
//!
//! 1. fires everything due, in the kernel's `(time, scheduling order)`,
//!    at the fabric time it fires ([`Worker::fire_due`]): planned faults
//!    (mapped by `ScenarioPlan::schedule_into` onto the fabric's
//!    [`gocast_sim::WorkerSet`], as onto the engine's),
//!    harness commands and timers — a crashed node's are popped and
//!    dropped, and nothing is replaced or cancelled;
//! 2. sends the jitter-held datagrams now due;
//! 3. drains every socket in batches and hands each decoded DATA frame to
//!    the worker as an arriving message ([`Worker::arrive`]), which judges
//!    — once, as the kernel judges a delivery — whether the receiver is
//!    dead or the path cut or partitioned. A crashed node's socket is
//!    drained too, so what was in flight to it is counted dead, not left
//!    unread;
//! 4. flushes the gathered batch, and sleeps until the next due time if
//!    it did nothing.
//!
//! Cross-shard traffic needs no special handoff: datagrams travel over
//! real loopback UDP exactly like intra-shard traffic, so a shard never
//! touches another shard's state. A shard records its [`GoCastEvent`]s
//! into its worker's window buffer ([`Worker::buffered`]), and the fabric
//! merges the buffers into its recorder after every run, through the
//! engine's own merge ([`gocast_sim::WorkerSet::merge_into`]).

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use gocast::{decode, encode_into, GoCastEvent, GoCastMsg};
use gocast_metrics::{Gauge, Log2Histogram};
use gocast_sim::{
    EventClass, EventQueue, FxHashMap, Link, NetFates, NodeId, Placement, Protocol, Recorder,
    Sender, SimTime, Worker,
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
    /// shards, in their [`gocast_sim::FaultState`] replicas).
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

/// A shard's event-loop health beyond raw counters: distribution shapes
/// and queue depths. All of it is wall-clock flavoured (the fabric runs in
/// real time), so the histograms are flagged `wall` in snapshots.
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

impl FabricTelemetry {
    /// Adds another shard's health to this one: distributions merge,
    /// gauge levels and high-water marks sum.
    pub(crate) fn absorb(&mut self, other: &FabricTelemetry) {
        self.datagrams_per_poll.merge(&other.datagrams_per_poll);
        self.timer_lateness_ns.merge(&other.timer_lateness_ns);
        for (total, g) in [
            (&mut self.pending_depth, &other.pending_depth),
            (&mut self.wanted_depth, &other.wanted_depth),
        ] {
            // The summed high water first, so the total's own mark
            // covers it; then the summed level lands on top.
            let level = total.get() + g.get();
            total.set(total.high_water() + g.high_water());
            total.set(level);
        }
    }
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

/// A shard's [`Link`]: each send leaves through the sending node's
/// socket, gathered into the batch, queued for a peer whose address is
/// unknown, or held for its jitter. It also holds what the shard's loop
/// keeps between iterations.
#[derive(Debug)]
pub(crate) struct WireLink {
    /// This shard's worker index.
    index: usize,
    placement: Placement,
    /// By slot ([`Placement::slot`]).
    pub(crate) ports: Vec<Port>,
    /// Everything but the fates, which the worker's fault state counts.
    pub(crate) stats: FabricStats,
    batch: BatchBuffer,
    /// Local slot whose socket owns the gathered batch, if any.
    batch_owner: Option<usize>,
    pub(crate) mode: BatchMode,
    /// Jitter-held datagrams, by release time.
    held: EventQueue<HeldDatagram>,
    pub(crate) telemetry: FabricTelemetry,
    /// What the loop drains sockets into.
    recv: RecvBatch,
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
        if to.index() >= self.placement.population() {
            self.stats.unresolved_dropped += 1;
            return;
        }
        let from = sender.from;
        let local = self.placement.slot(from);
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
    /// The link of worker `index` of `placement`, with no port yet.
    pub(crate) fn new(index: usize, placement: Placement) -> WireLink {
        WireLink {
            index,
            placement,
            ports: Vec::new(),
            stats: FabricStats::default(),
            batch: BatchBuffer::new(),
            batch_owner: None,
            mode: BatchMode::detect(),
            held: EventQueue::new(),
            telemetry: FabricTelemetry::default(),
            recv: RecvBatch::new(),
        }
    }

    /// The transport of the owned node `g`.
    pub(crate) fn port(&self, g: NodeId) -> &Port {
        &self.ports[self.placement.slot(g)]
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
        let me = self.placement.node(self.index, local);
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
        if let Some(bytes) =
            encode_peer(self.placement.node(self.index, local), target, target_addr)
        {
            self.stats.peer_replies += 1;
            self.gather(local, asker_addr, |buf| buf.extend_from_slice(&bytes));
        }
    }

    /// Pending-resolution and remembered-question depths (for gauges).
    fn queue_depths(&self) -> (i64, i64) {
        let pending = self
            .ports
            .iter()
            .map(|p| p.pending.values().map(Vec::len).sum::<usize>())
            .sum::<usize>() as i64;
        let wanted = self.ports.iter().map(|p| p.wanted_len as i64).sum();
        (pending, wanted)
    }
}

/// Fabric time at `epoch`'s offset: what the shards' nodes see.
pub(crate) fn fabric_time(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// Runs the event loop of shard `worker` until `deadline`, at fabric time
/// since `epoch`, recording into `sink`. See the [module docs](self).
pub(crate) fn run_until<N: Protocol<Msg = GoCastMsg, Event = GoCastEvent>>(
    worker: &mut Worker<N, WireLink>,
    epoch: Instant,
    deadline: Instant,
    mut sink: &mut dyn Recorder<GoCastEvent>,
) {
    let until = SimTime::from_nanos(deadline.saturating_duration_since(epoch).as_nanos() as u64);
    let sent =
        |link: &WireLink| link.stats.datagrams_sent + link.stats.delayed + link.batch.len() as u64;
    loop {
        let now = fabric_time(epoch);
        if now >= until {
            worker.link.flush();
            return;
        }
        let sent_before = sent(&worker.link);
        let mut activity = false;

        // 1. Everything due, in the kernel's (time, scheduling order).
        while let Some((due, class)) = worker.fire_due(now, &(), &mut sink) {
            if class == EventClass::Timer {
                let late = now.saturating_since(due).as_nanos() as u64;
                worker.link.telemetry.timer_lateness_ns.observe(late);
            }
            activity = true;
        }
        // 2. Jitter holds now due.
        activity |= worker.link.release_held(now);
        // 3. Drain every owned socket in batches.
        let recv_before = worker.link.stats.datagrams_received;
        let mut recv = std::mem::take(&mut worker.link.recv);
        for local in 0..worker.link.ports.len() {
            for _ in 0..DRAIN_BATCHES {
                let link = &mut worker.link;
                let socket = &link.ports[local].socket;
                let got = recv.recv(socket, &mut link.mode, &mut link.stats);
                for j in 0..got {
                    let (src, bytes) = recv.datagram(j);
                    on_datagram(worker, epoch, local, src, bytes, &mut sink);
                }
                activity |= got > 0;
                if got < RECV_BATCH {
                    break;
                }
            }
        }
        let link = &mut worker.link;
        link.recv = recv;

        // 4. Everything gathered this iteration leaves before we sleep
        //    or poll again, so batching never holds a datagram back
        //    longer than one loop iteration.
        link.flush();

        activity |= sent(link) != sent_before;
        if activity {
            let received = link.stats.datagrams_received - recv_before;
            link.telemetry.datagrams_per_poll.observe(received);
            let (pending, wanted) = link.queue_depths();
            link.telemetry.pending_depth.set(pending);
            link.telemetry.wanted_depth.set(wanted);
            continue;
        }
        // Idle: sleep until the next due event or held datagram.
        let held = link.held.peek_time();
        let next = [worker.next_due(), held, Some(until)]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(until);
        let wait = next.saturating_since(fabric_time(epoch)).min(IDLE_POLL);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

/// Handles one datagram received by the node in slot `local`.
fn on_datagram<N: Protocol<Msg = GoCastMsg, Event = GoCastEvent>>(
    worker: &mut Worker<N, WireLink>,
    epoch: Instant,
    local: usize,
    src: SocketAddr,
    data: &[u8],
    sink: &mut &mut dyn Recorder<GoCastEvent>,
) {
    let link = &mut worker.link;
    let Some(frame) = decode_frame(data) else {
        link.stats.malformed += 1;
        return;
    };
    // An id in a frame is self-declared, and downstream it indexes the
    // liveness flags and the partition labels and keys the peer table: an
    // id this fabric does not host is a stranger's, whatever the rest of
    // the frame says.
    let max_id = match frame {
        Frame::Data { sender, .. } => sender,
        Frame::WhoHas { sender, target } => sender.max(target),
        Frame::Peer { sender, peer, .. } => sender.max(peer),
    };
    if max_id.index() >= link.placement.population() {
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
            let to = link.placement.node(link.index, local);
            worker.arrive(fabric_time(epoch), sender, to, msg, &(), sink);
        }
        Frame::WhoHas { sender, target } => link.on_whohas(local, sender, src, target),
        Frame::Peer { sender, peer, addr } => {
            if link.learn(local, sender, src) {
                link.learn(local, peer, addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocast_sim::{Ctx, NetFault, NullRecorder, Timer, WorkerSet};
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
    fn shard(nodes: u32) -> Option<WorkerSet<Sends, WireLink>> {
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
        let placement = Placement::new(nodes as usize, 1);
        let mut bound = bound.into_iter();
        let link = |worker| WireLink::new(worker, placement);
        Some(WorkerSet::new(placement, 1, link, |_, link| {
            let (socket, addr) = bound.next().expect("a socket per node");
            link.ports
                .push(Port::new(socket, addr, PeerTable::new(book.clone())));
            Sends
        }))
    }

    /// Every pair `a -> b` of `nodes`, at `at`.
    fn round(sh: &mut WorkerSet<Sends, WireLink>, nodes: u32, at: SimTime) {
        for a in 0..nodes {
            for b in 0..nodes {
                sh.schedule_command(at, NodeId::new(a), NodeId::new(b));
            }
        }
    }

    /// Runs the shard `ms` milliseconds from fabric time zero, now.
    fn run(sh: &mut WorkerSet<Sends, WireLink>, ms: u64) -> FabricStats {
        let epoch = Instant::now();
        let deadline = epoch + Duration::from_millis(ms);
        let worker = &mut sh.workers_mut()[0];
        run_until(worker, epoch, deadline, &mut NullRecorder);
        worker.link.stats
    }

    /// A crash silences a node — it sends nothing, and what arrives for it
    /// is dead — while a node's sends to itself never meet a fault.
    #[test]
    fn crashed_nodes_are_silenced_and_self_sends_bypass_faults() {
        let Some(mut sh) = shard(3) else {
            return;
        };
        let (ms, n) = (SimTime::from_millis, NodeId::new);
        sh.schedule_fault(ms(5), &NetFault::SetLoss(1.0));
        sh.schedule_command(ms(10), n(1), n(1));
        sh.schedule_command(ms(10), n(0), n(1));
        sh.schedule_fault(ms(20), &NetFault::SetLoss(0.0));
        sh.fail_node_at(ms(20), n(2));
        for (from, to) in [(0, 2), (2, 0), (2, 2)] {
            sh.schedule_command(ms(30), n(from), n(to));
        }
        let s = run(&mut sh, 120);
        let k = sh.kernel_stats();
        // Two sends from node 2 never ran: three commands of five did.
        assert_eq!(k.commands, 3);
        assert_eq!((k.fates.lost, k.fates.dead), (1, 1), "{:?}", k.fates);
        assert_eq!(k.deliveries, 1, "the self-send arrives despite the loss");
        assert_eq!(s.datagrams_received, 2);
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
        sh.schedule_fault(ms(1), &NetFault::CutLink(zero, one));
        sh.schedule_fault(ms(1), &NetFault::partition(vec![0, 0, 0, 0, 1, 1, 1, 1]));
        sh.schedule_fault(ms(1), &NetFault::SetLoss(0.3));
        sh.schedule_fault(ms(1), &NetFault::SetJitter(Duration::from_millis(1)));
        sh.fail_node_at(ms(1), NodeId::new(NODES - 1));
        round(&mut sh, NODES, ms(10));
        round(&mut sh, NODES, ms(20));
        sh.schedule_fault(ms(25), &NetFault::HealPartition);
        sh.schedule_fault(ms(25), &NetFault::HealLink(zero, one));
        round(&mut sh, NODES, ms(30));
        let s = run(&mut sh, 200);
        let k = sh.kernel_stats();
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
        assert_eq!(sh.workers()[0].link.held.len(), 0, "every hold released");
        assert_eq!(s.datagrams_received, s.datagrams_sent, "{s}");
        assert_eq!(s.wire_msgs, s.datagrams_received);
        let stopped = fates.cut + fates.partitioned + fates.dead;
        assert_eq!(s.datagrams_received, k.deliveries + stopped, "{s}");
    }
}
