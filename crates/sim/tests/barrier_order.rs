//! The window barrier's delivery order, pinned.
//!
//! Cross-lane messages enter the destination queue in `(source lane, send
//! order)` and the queue sorts by arrival time, breaking ties by insertion.
//! That must pop exactly like the explicit `(arrival, source lane, send
//! order)` sort the barrier used to run over a copy of every message. On
//! [`FixedLatency`] every cross-lane arrival of a tick ties on its arrival
//! time, so the tie-break *is* the delivery order, and each node folds what
//! it receives into the payloads it sends next — one swapped pair changes
//! the rest of the stream. The digests below were captured from the
//! sorted-merge barrier; the lane count is semantic (one digest each), the
//! thread count is not.

use std::hash::Hasher;
use std::time::Duration;

use gocast_sim::{
    Ctx, FixedLatency, FxHasher, NodeId, Protocol, ShardedSimBuilder, SimTime, Timer, TrafficClass,
    VecRecorder, Wire,
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

fn stream_digest(lanes: usize, threads: usize) -> (usize, u64) {
    let mut sim = ShardedSimBuilder::new(FixedLatency::new(NODES as usize, LATENCY))
        .seed(11)
        .lanes(lanes)
        .threads(threads)
        .build_with(VecRecorder::new(), |id| Mixer {
            state: u64::from(id.as_u32()) + 1,
        });
    // Two run calls: the barrier state must carry across a return.
    sim.run_until(SimTime::from_millis(120));
    sim.run_until(SimTime::from_millis(250));
    let mut h = FxHasher::default();
    for (at, node, (from, state)) in &sim.recorder().events {
        h.write_u64(at.as_nanos());
        h.write_u32(node.as_u32());
        h.write_u32(from.as_u32());
        h.write_u64(*state);
    }
    (sim.recorder().events.len(), h.finish())
}

#[test]
fn tied_cross_lane_arrivals_deliver_in_sorted_merge_order() {
    for (lanes, want) in [(4, PARENT_4_LANES), (64, PARENT_64_LANES)] {
        for threads in [1, 2, 4] {
            assert_eq!(
                stream_digest(lanes, threads),
                want,
                "lanes {lanes}, threads {threads}"
            );
        }
    }
}

/// `(events, digest)` of the recorder stream under the parent's
/// copy-and-sort barrier.
const PARENT_4_LANES: (usize, u64) = (27_652, 12_153_039_899_583_310_794);
const PARENT_64_LANES: (usize, u64) = (27_652, 6_249_584_293_560_062_774);
