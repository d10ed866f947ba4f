//! Per-layer probes installed from outside: a [`Probe`] adapter that
//! wraps any stack and times every handler call, and a counting
//! [`LatencyModel`] wrapper. Both are used only by traced runs; an
//! untraced run hosts the bare nodes on the bare model.
//!
//! The adapter drives the wrapped stack through [`Ctx::for_host`] with a
//! reused buffer (the pattern `TopicMux::drive_inner` uses), then replays
//! the buffered sends, timers and events onto the real context — same
//! messages, same delays, same events, same order.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gocast::{GoCastEvent, GoCastMsg, MsgId};
use gocast_sim::{Ctx, HostBackend, LatencyModel, NodeId, Protocol, Stack, StackCaps, Timer, Wire};

use crate::host::now_ns;
use crate::metrics::{CODEC_GROUPS, HANDLER_CLASSES};
use crate::record::SAMPLE_EVERY;
use crate::spans::Span;

/// Timer kinds of `GoCastNode` (`crates/core/src/node/mod.rs`, `timers`).
/// The module is private to the core crate, so the values are repeated
/// here; a kind this table does not know lands in `timer_other`.
fn timer_class(kind: u32) -> usize {
    match kind {
        1 => 7,      // GOSSIP
        2 => 8,      // MAINTENANCE
        3 => 9,      // HEARTBEAT
        4 => 10,     // GC
        5 | 6 => 11, // PULL_DELAY, PULL_TIMEOUT
        _ => 12,     // LANDMARK, ROOT_CHECK, application timers
    }
}
const COMMAND_CLASS: usize = 13;

/// The message a handler call is about, when it carries one identity.
fn msg_identity(msg: &GoCastMsg) -> Option<MsgId> {
    match msg {
        GoCastMsg::Data { id, .. } | GoCastMsg::TopicData { id, .. } => Some(*id),
        GoCastMsg::PullRequest { ids } | GoCastMsg::TopicPull { ids, .. } => {
            ids.iter().copied().find(|id| sampled(*id))
        }
        _ => None,
    }
}

/// Codec group of a message for the micro pass, if it is in one.
fn codec_group(msg: &GoCastMsg) -> Option<usize> {
    Some(match msg {
        GoCastMsg::Data { .. } => 0,
        GoCastMsg::Gossip { .. } => 1,
        GoCastMsg::TreeAd { .. } | GoCastMsg::ParentSelect { .. } => 2,
        GoCastMsg::LinkRequest { .. }
        | GoCastMsg::LinkAccept { .. }
        | GoCastMsg::LinkReject { .. }
        | GoCastMsg::LinkDrop { .. }
        | GoCastMsg::ConnectTo { .. } => 3,
        GoCastMsg::TopicData { .. }
        | GoCastMsg::TopicIHave { .. }
        | GoCastMsg::TopicPull { .. }
        | GoCastMsg::TopicDigest { .. }
        | GoCastMsg::TopicDeltas { .. } => 4,
        _ => return None,
    })
}

/// Whether full spans are kept for `id`: every 64th message, chosen by a
/// hash so that origins with few messages are sampled like busy ones.
pub fn sampled(id: MsgId) -> bool {
    // splitmix64 finaliser: every input bit reaches the low six.
    let mut x = u64::from(id.origin.as_u32()) << 32 | u64::from(id.seq);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) % 64 == 0
}

/// Samples kept per codec group for the micro pass.
const CODEC_SAMPLES: usize = 256;

/// Everything the probes of one thread collect that is not per node:
/// spans of sampled messages and message samples for the codec pass.
#[derive(Debug, Default)]
pub struct TraceState {
    pub spans: Vec<Span>,
    pub codec_samples: [Vec<GoCastMsg>; CODEC_GROUPS.len()],
    codec_seen: [u64; CODEC_GROUPS.len()],
}

thread_local! {
    static TRACE: RefCell<TraceState> = RefCell::new(TraceState::default());
}

/// Takes what this thread's probes collected so far.
pub fn take_trace() -> TraceState {
    TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

fn keep_codec_sample(msg: &GoCastMsg) {
    let Some(g) = codec_group(msg) else { return };
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.codec_seen[g] += 1;
        if t.codec_seen[g] % 64 == 1 && t.codec_samples[g].len() < CODEC_SAMPLES {
            t.codec_samples[g].push(msg.clone());
        }
    })
}

/// Per-node handler accounting, indexed like [`HANDLER_CLASSES`].
#[derive(Debug, Clone, Default)]
pub struct ProbeStats {
    pub calls: [u64; HANDLER_CLASSES.len()],
    /// Time inside the wrapped stack's handlers.
    pub ns: [u64; HANDLER_CLASSES.len()],
    /// Time replaying buffered effects into the kernel or fabric.
    pub sink_ns: u64,
    pub sends: u64,
    pub bytes: u64,
    /// Bytes of CRDT digests and delta replies (anti-entropy).
    pub anti_entropy_bytes: u64,
}

impl ProbeStats {
    pub fn absorb(&mut self, other: &ProbeStats) {
        for i in 0..HANDLER_CLASSES.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.sink_ns += other.sink_ns;
        self.sends += other.sends;
        self.bytes += other.bytes;
        self.anti_entropy_bytes += other.anti_entropy_bytes;
    }

    /// Removes what `earlier` (a reading of the same probes) had counted.
    pub fn subtract(&mut self, earlier: &ProbeStats) {
        for i in 0..HANDLER_CLASSES.len() {
            self.calls[i] -= earlier.calls[i];
            self.ns[i] -= earlier.ns[i];
        }
        self.sink_ns -= earlier.sink_ns;
        self.sends -= earlier.sends;
        self.bytes -= earlier.bytes;
        self.anti_entropy_bytes -= earlier.anti_entropy_bytes;
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Buffered [`HostBackend`]: the wrapped stack's effects land here.
#[derive(Debug, Default)]
struct Buf {
    nodes: usize,
    sends: Vec<(NodeId, GoCastMsg)>,
    timers: Vec<(Duration, Timer)>,
    events: Vec<GoCastEvent>,
}

impl<P> HostBackend<P> for Buf
where
    P: Protocol<Msg = GoCastMsg, Event = GoCastEvent>,
{
    fn send(&mut self, to: NodeId, msg: GoCastMsg) {
        self.sends.push((to, msg));
    }
    fn set_timer(&mut self, delay: Duration, timer: Timer) {
        self.timers.push((delay, timer));
    }
    fn emit(&mut self, event: GoCastEvent) {
        self.events.push(event);
    }
    fn node_count(&self) -> usize {
        self.nodes
    }
}

/// Span names per probe position: the adapter's own span and the wrapped
/// layer's handler inside it.
#[derive(Debug, Clone, Copy)]
pub struct SpanNames {
    pub adapter: &'static str,
    pub handler: &'static str,
}

/// Name of the span covering the replay of a handler's sends, timers and
/// events into the kernel or fabric.
const SINK_SPAN: &str = "kernel.sink";

/// Names for a probe directly around a `GoCastNode`.
pub const CORE_SPANS: SpanNames = SpanNames {
    adapter: "probe.core",
    handler: "core.node",
};

/// Names for a probe around a `TopicMux`.
pub const APP_SPANS: SpanNames = SpanNames {
    adapter: "probe.app",
    handler: "app.mux",
};

/// Timing adapter around a stack. It is itself a [`Stack`], so every
/// kernel and the fabric host it unchanged.
#[derive(Debug)]
pub struct Probe<S> {
    inner: S,
    buf: Buf,
    names: SpanNames,
    pub stats: ProbeStats,
}

impl<S> Probe<S>
where
    S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    pub fn new(inner: S, names: SpanNames) -> Self {
        Probe {
            inner,
            buf: Buf::default(),
            names,
            stats: ProbeStats::default(),
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Runs one handler of the wrapped stack under the clock, then
    /// replays its effects. `about` is the message identity and sender
    /// when the call concerns one message; a call that injects a message
    /// is about that message.
    fn drive<F>(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        class: usize,
        about: Option<(MsgId, Option<NodeId>)>,
        f: F,
    ) where
        F: FnOnce(&mut S, &mut Ctx<'_, S>),
    {
        let id = ctx.id();
        self.buf.nodes = ctx.node_count();
        let now = ctx.now();
        let t0 = now_ns();
        {
            let mut ictx = Ctx::for_host(id, now, ctx.rng(), &mut self.buf);
            f(&mut self.inner, &mut ictx);
        }
        let t1 = now_ns();
        let about = about.or_else(|| {
            self.buf.events.iter().find_map(|e| match e {
                GoCastEvent::Injected { id } => Some((*id, None)),
                _ => None,
            })
        });

        self.stats.sends += self.buf.sends.len() as u64;
        for (to, msg) in self.buf.sends.drain(..) {
            let bytes = u64::from(msg.wire_size());
            self.stats.bytes += bytes;
            if matches!(
                msg,
                GoCastMsg::TopicDigest { .. } | GoCastMsg::TopicDeltas { .. }
            ) {
                self.stats.anti_entropy_bytes += bytes;
            }
            ctx.send(to, msg);
        }
        for (delay, timer) in self.buf.timers.drain(..) {
            ctx.set_timer(delay, timer);
        }
        for ev in self.buf.events.drain(..) {
            ctx.emit(ev);
        }
        let t2 = now_ns();

        self.stats.calls[class] += 1;
        self.stats.ns[class] += t1 - t0;
        self.stats.sink_ns += t2 - t1;
        if let Some((msg, from)) = about.filter(|(m, _)| sampled(*m)) {
            let names = self.names;
            TRACE.with(|t| {
                let spans = &mut t.borrow_mut().spans;
                let adapter = spans.len() as u32;
                let mut push = |name, parent, start_ns, end_ns| {
                    spans.push(Span {
                        id: spans.len() as u32,
                        parent,
                        name,
                        msg,
                        node: id,
                        from,
                        start_ns,
                        end_ns,
                    })
                };
                push(names.adapter, None, t0, t2);
                push(names.handler, Some(adapter), t0, t1);
                push(SINK_SPAN, Some(adapter), t1, t2);
            });
        }
    }
}

impl<S> Protocol for Probe<S>
where
    S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    type Msg = GoCastMsg;
    type Command = S::Command;
    type Event = GoCastEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.drive(ctx, COMMAND_CLASS, None, |inner, ictx| inner.on_start(ictx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: GoCastMsg) {
        keep_codec_sample(&msg);
        let class = msg.class().index();
        let about = msg_identity(&msg).map(|m| (m, Some(from)));
        self.drive(ctx, class, about, |inner, ictx| {
            inner.on_message(ictx, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        self.drive(ctx, timer_class(timer.kind), None, |inner, ictx| {
            inner.on_timer(ictx, timer)
        });
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, Self>, cmd: Self::Command) {
        self.drive(ctx, COMMAND_CLASS, None, |inner, ictx| {
            inner.on_command(ictx, cmd)
        });
    }
}

impl<S> Stack for Probe<S>
where
    S: Stack<Msg = GoCastMsg, Event = GoCastEvent>,
{
    const NAME: &'static str = S::NAME;

    fn capabilities() -> StackCaps {
        S::capabilities()
    }
    fn joined(&self) -> bool {
        self.inner.joined()
    }
    fn attached(&self) -> bool {
        self.inner.attached()
    }
    fn overlay_degree(&self) -> usize {
        self.inner.overlay_degree()
    }
    fn member_count(&self) -> usize {
        self.inner.member_count()
    }
    fn delivered_count(&self) -> u64 {
        self.inner.delivered_count()
    }
    fn holds(&self, origin: NodeId, seq: u32) -> bool {
        self.inner.holds(origin, seq)
    }
    fn cmd_multicast() -> Self::Command {
        S::cmd_multicast()
    }
    fn cmd_join(contact: NodeId) -> Self::Command {
        S::cmd_join(contact)
    }
    fn cmd_leave() -> Self::Command {
        S::cmd_leave()
    }
    fn cmd_freeze() -> Option<Self::Command> {
        S::cmd_freeze()
    }
}

/// Counters of a [`CountingNet`], shared with the harness.
#[derive(Debug, Default)]
pub struct NetCounters {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

/// A reading of [`NetCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NetReading {
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl NetCounters {
    pub fn read(&self) -> NetReading {
        NetReading {
            calls: self.calls.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            sampled_ns: self.sampled_ns.load(Ordering::Relaxed),
        }
    }
}

impl NetReading {
    /// What was added since `earlier`.
    pub fn since(&self, earlier: &NetReading) -> NetReading {
        NetReading {
            calls: self.calls - earlier.calls,
            sampled: self.sampled - earlier.sampled,
            sampled_ns: self.sampled_ns - earlier.sampled_ns,
        }
    }

    /// Mean ns per lookup from the timed sample, net of `clock_ns`.
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 - clock_ns).max(0.0)
    }
}

/// A [`LatencyModel`] that counts every lookup and times every 16th.
/// The counters are statistics that publish no other data, hence
/// `Relaxed`.
#[derive(Debug)]
pub struct CountingNet<M> {
    inner: M,
    counters: Arc<NetCounters>,
}

impl<M> CountingNet<M> {
    pub fn new(inner: M) -> (Self, Arc<NetCounters>) {
        let counters = Arc::new(NetCounters::default());
        (
            CountingNet {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl<M: LatencyModel> LatencyModel for CountingNet<M> {
    fn one_way(&self, a: NodeId, b: NodeId) -> Duration {
        let n = self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.one_way(a, b);
        }
        let t0 = now_ns();
        let d = self.inner.one_way(a, b);
        self.counters
            .sampled_ns
            .fetch_add(now_ns() - t0, Ordering::Relaxed);
        self.counters.sampled.fetch_add(1, Ordering::Relaxed);
        d
    }

    fn rtt(&self, a: NodeId, b: NodeId) -> Duration {
        self.inner.rtt(a, b)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn lookahead(&self) -> Option<Duration> {
        self.inner.lookahead()
    }
}

/// Cost of one clock read pair as the probes take it, ns (median of
/// many), so sampled timings of tiny operations can be reported net.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = now_ns();
            let t1 = now_ns();
            (t1 - t0) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn about_one_message_in_64_is_sampled() {
        // The shape of the real id space: many origins, few messages each.
        let ids = (0..1024).flat_map(|o| (0..8).map(move |s| MsgId::new(NodeId::new(o), s)));
        let kept = ids.filter(|id| sampled(*id)).count();
        assert!((64..=192).contains(&kept), "{kept} of 8192 sampled");
    }
}
