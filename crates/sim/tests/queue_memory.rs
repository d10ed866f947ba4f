//! What the event queues reserve: a pending timer pays for a timer, not
//! for a message, and the reservation does not grow with the thread count.
//!
//! Each worker keeps its nodes' timers in a queue whose slots hold a node
//! and a timer, apart from the messages, whose slots are as wide as the
//! widest message. Each worker thread keeps its own queues over its share
//! of the nodes, so four workers hold the same pending events as one, a
//! quarter each: their reservation may exceed one worker's only by three
//! more sets of the calendar's fixed tiers and what the shrink rule's
//! timing leaves (a quarter in all).

use std::time::Duration;

use gocast_sim::{
    Ctx, FixedLatency, NodeId, NullRecorder, Protocol, ShardedSimBuilder, SimBuilder, SimTime,
    Timer, TrafficClass, Wire,
};

/// Every node ticks every 10 ms and sends a token to a node `stride` ids
/// on, so each tick crosses workers at any thread count above one.
struct Ticker {
    id: NodeId,
    n: u32,
}

#[derive(Debug, Clone, Copy)]
struct Token;

impl Wire for Token {
    fn wire_size(&self) -> u32 {
        16
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

impl Protocol for Ticker {
    type Msg = Token;
    type Command = ();
    type Event = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        let phase = u64::from(self.id.as_u32() % 10);
        ctx.set_timer(Duration::from_millis(1 + phase), Timer::of_kind(0));
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Token) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: Timer) {
        let to = NodeId::new((self.id.as_u32() + 1) % self.n);
        ctx.send(to, Token);
        ctx.set_timer(Duration::from_millis(10), Timer::of_kind(0));
    }
}

fn queue_mem_bytes(threads: usize) -> u64 {
    const N: u32 = 1024;
    let mut sim = ShardedSimBuilder::new(FixedLatency::new(N as usize, Duration::from_millis(3)))
        .seed(3)
        .threads(threads)
        .build_with(NullRecorder, |id| Ticker { id, n: N });
    sim.run_until(SimTime::from_secs(2));
    let k = sim.kernel_stats();
    assert!(
        k.events_processed > 300_000,
        "{} events",
        k.events_processed
    );
    k.queue_mem_bytes
}

#[test]
fn four_worker_queues_reserve_what_one_queue_does() {
    let (one, many) = (queue_mem_bytes(1), queue_mem_bytes(4));
    assert!(
        many * 4 <= one * 5,
        "four workers reserve {many} B of queue, one {one} B"
    );
}

/// A message as wide as a GoCast one (72 B), which sizes every slot of the
/// queue messages wait in: 80 B or more with its endpoints.
#[derive(Debug, Clone, Copy)]
struct Wide([u64; 9]);

impl Wire for Wide {
    fn wire_size(&self) -> u32 {
        size_of_val(&self.0) as u32
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

/// Every node keeps one timer pending, re-armed every 10 ms, and never
/// sends.
struct Clock {
    id: NodeId,
}

impl Protocol for Clock {
    type Msg = Wide;
    type Command = ();
    type Event = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        let phase = u64::from(self.id.as_u32() % 10);
        ctx.set_timer(Duration::from_millis(1 + phase), Timer::of_kind(0));
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Wide) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: Timer) {
        ctx.set_timer(Duration::from_millis(10), Timer::of_kind(0));
    }
}

/// A pending timer reserves its 32-byte slot and 24-byte key, plus a
/// share of the tiers' slot numbers: at most 64 B, where a slot sized for
/// the message would take 104 B or more with its key.
#[test]
fn a_pending_timer_reserves_a_timer_slot_not_a_message_slot() {
    const N: u32 = 1024;
    let mut sim = SimBuilder::new(FixedLatency::new(N as usize, Duration::from_millis(3)))
        .seed(3)
        .build(|id| Clock { id });
    sim.run_until(SimTime::from_secs(2));
    let k = sim.kernel_stats();
    assert_eq!(
        k.timers_fired,
        200 * u64::from(N),
        "each node fires every 10 ms"
    );
    assert_eq!(k.queue_len, N as usize);
    let per_timer = k.queue_mem_bytes / u64::from(N);
    assert!(
        per_timer <= 64,
        "{per_timer} B of queue a pending timer ({} B in all)",
        k.queue_mem_bytes
    );
}
