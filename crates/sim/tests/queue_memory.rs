//! What the event queues reserve does not grow with the thread count.
//!
//! Each worker thread keeps its own queue over its share of the nodes, so
//! four workers hold the same pending events as one, a quarter each: their
//! reservation may exceed one queue's only by three more sets of the
//! calendar's fixed tiers and what the shrink rule's timing leaves (a
//! quarter in all).

use std::time::Duration;

use gocast_sim::{
    Ctx, FixedLatency, NodeId, NullRecorder, Protocol, ShardedSimBuilder, SimTime, Timer,
    TrafficClass, Wire,
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
