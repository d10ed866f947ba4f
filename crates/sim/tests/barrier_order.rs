//! The window barrier's delivery order, pinned.
//!
//! A message to another worker waits in its sender's outbox until the
//! barrier, then enters the destination queue under the tie its sender
//! gave it, so it pops exactly where it would have had one queue held
//! every node. On [`FixedLatency`] every arrival of a tick ties on its
//! arrival time, so the tie-break *is* the delivery order, and each node
//! folds what it receives into the payloads it sends next — one swapped
//! pair changes the rest of the stream. One digest holds on `Sim` and at
//! every thread count.

use std::hash::Hasher;
use std::time::Duration;

use gocast_sim::{
    Ctx, FixedLatency, FxHasher, NodeId, Protocol, ShardedSimBuilder, SimBuilder, SimTime, Timer,
    TrafficClass, VecRecorder, Wire,
};
use rand::Rng;

const NODES: u32 = 192;
const FANOUT: usize = 3;
/// Half the latency: every window holds two distinct send instants, so
/// outboxes interleave arrival times as well as lanes.
const TICK: Duration = Duration::from_millis(5);
const LATENCY: Duration = Duration::from_millis(10);

struct Mixer {
    state: u64,
}

#[derive(Debug, Clone, Copy)]
struct Word(u64);

impl Wire for Word {
    fn wire_size(&self) -> u32 {
        8
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

impl Protocol for Mixer {
    type Msg = Word;
    type Command = ();
    type Event = (NodeId, u64);

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(TICK, Timer::of_kind(0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Word) {
        // Order-sensitive fold: delivering two tied messages the other way
        // round leaves a different state behind.
        self.state = (self.state.rotate_left(7) ^ msg.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ctx.emit((from, self.state));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: Timer) {
        for _ in 0..FANOUT {
            let to = NodeId::new(ctx.rng().gen_range(0..NODES));
            ctx.send(to, Word(self.state));
        }
        ctx.set_timer(TICK, Timer::of_kind(0));
    }
}

fn digest(events: &[(SimTime, NodeId, (NodeId, u64))]) -> (usize, u64) {
    let mut h = FxHasher::default();
    for (at, node, (from, state)) in events {
        h.write_u64(at.as_nanos());
        h.write_u32(node.as_u32());
        h.write_u32(from.as_u32());
        h.write_u64(*state);
    }
    (events.len(), h.finish())
}

fn mixer(id: NodeId) -> Mixer {
    Mixer {
        state: u64::from(id.as_u32()) + 1,
    }
}

fn net() -> FixedLatency {
    FixedLatency::new(NODES as usize, LATENCY)
}

/// Two run calls: the barrier state must carry across a return.
const FIRST: SimTime = SimTime::from_millis(120);
const END: SimTime = SimTime::from_millis(250);

#[test]
fn tied_cross_lane_arrivals_deliver_in_sorted_merge_order() {
    let mut sim = SimBuilder::new(net())
        .seed(11)
        .build_with(VecRecorder::new(), mixer);
    sim.run_until(FIRST);
    sim.run_until(END);
    assert_eq!(digest(&sim.recorder().events), PINNED, "Sim");
    for threads in [1, 2, 4] {
        let mut sim = ShardedSimBuilder::new(net())
            .seed(11)
            .threads(threads)
            .build_with(VecRecorder::new(), mixer);
        sim.run_until(FIRST);
        sim.run_until(END);
        assert_eq!(digest(&sim.recorder().events), PINNED, "{threads} threads");
    }
}

/// `(events, digest)` of the recorder stream.
const PINNED: (usize, u64) = (27_652, 123_190_694_769_965_482);
