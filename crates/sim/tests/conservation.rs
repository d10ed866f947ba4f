//! Conservation of messages in the kernel: once a run is idle, every
//! send was delivered or met exactly one network fate,
//! `sent = delivered + lost + cut + partitioned + dead`, whatever the
//! fault plan and at any thread count.

use std::time::Duration;

use gocast_sim::{
    Ctx, Engine, FixedLatency, Mode, NetFault, NodeId, NullRecorder, Protocol, ShardedSimBuilder,
    SimBuilder, SimTime, Timer, TrafficClass, Wire,
};
use proptest::prelude::*;

const N: u32 = 96;
/// Hops a token makes before it retires.
const TTL: u32 = 12;

/// A self-terminating relay: every node starts two hop-limited tokens and
/// each hop forwards one, so a run goes idle on its own.
struct Relay {
    id: u32,
}

#[derive(Debug)]
struct Token(u32);

impl Wire for Token {
    fn wire_size(&self) -> u32 {
        8
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

impl Protocol for Relay {
    type Msg = Token;
    type Command = ();
    type Event = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.send(NodeId::new((self.id + 1) % N), Token(TTL));
        ctx.send(NodeId::new((self.id * 7 + 3) % N), Token(TTL));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _: NodeId, Token(left): Token) {
        if left > 0 {
            // Every fifth hop goes to self: exempt from the network's
            // faults, not from a crash.
            let next = match left % 5 {
                0 => self.id,
                _ => (self.id + left * 13) % N,
            };
            ctx.send(NodeId::new(next), Token(left - 1));
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, Self>, _: Timer) {}
}

/// One plan step from five raw draws: a time, a kind, two node ids and a
/// word the kind reads its argument from.
fn schedule<M: Mode>(
    sim: &mut Engine<Relay, NullRecorder, M>,
    (ms, kind, a, b, word): (u64, u32, u32, u32, u32),
) {
    let at = SimTime::from_millis(ms);
    let (na, nb) = (NodeId::new(a), NodeId::new(b));
    let fault = match kind {
        0 => NetFault::CutLink(na, nb),
        1 => NetFault::HealLink(na, nb),
        2 => NetFault::partition((0..N).map(|i| (word >> (i % 32)) & 1).collect()),
        3 => NetFault::HealPartition,
        4 => NetFault::SetLoss(f64::from(word % 500) / 1000.0),
        _ => return sim.fail_node_at(at, na),
    };
    sim.schedule_fault(at, fault);
}

/// Checks the law on an idle engine.
fn conserved<M: Mode>(sim: &Engine<Relay, NullRecorder, M>) -> Result<(), String> {
    let k = sim.kernel_stats();
    let sent = sim.stats().total().messages;
    if k.queue_len != 0 || sent != k.deliveries + k.fates.total() {
        return Err(format!(
            "{sent} sent, {} delivered, {:?}, {} pending",
            k.deliveries, k.fates, k.queue_len
        ));
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_send_is_delivered_or_meets_one_fate(
        seed in any::<u64>(),
        plan in proptest::collection::vec((0..150u64, 0..6u32, 0..N, 0..N, any::<u32>()), 0..24),
    ) {
        let net = || FixedLatency::new(N as usize, Duration::from_millis(10));
        let make = |id: NodeId| Relay { id: id.as_u32() };
        let mut one = SimBuilder::new(net()).seed(seed).build(make);
        plan.iter().for_each(|step| schedule(&mut one, *step));
        // The relay retires every token long before this.
        one.run_until(SimTime::from_secs(10));
        let outcome = conserved(&one);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        for threads in [2, 4] {
            let mut many = ShardedSimBuilder::new(net())
                .seed(seed)
                .threads(threads)
                .build_with(NullRecorder, make);
            plan.iter().for_each(|step| schedule(&mut many, *step));
            many.run_until(SimTime::from_secs(10));
            let outcome = conserved(&many);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
