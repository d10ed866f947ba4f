//! Event recording: streaming-first, composable.
//!
//! Protocols emit structured events (message delivered, link added, ...)
//! through [`crate::Ctx::emit`]. A [`Recorder`] receives them as they
//! happen; analysis code folds them into aggregates **online**, so a run
//! never needs to buffer its full event stream.
//!
//! # Composing recorders
//!
//! A tuple `(A, B)` of recorders is itself a recorder that fans each
//! event out to both (cloned once), and [`FnRecorder`] lifts any closure
//! into a recorder:
//!
//! ```
//! use gocast_sim::{FnRecorder, NodeId, Recorder, SimTime, VecRecorder};
//!
//! let mut count = 0u32;
//! {
//!     // Buffer every event AND count them, in one pass.
//!     let mut r = (VecRecorder::new(), FnRecorder(|_, _, _e: u32| count += 1));
//!     for v in 0..4u32 {
//!         r.record(SimTime::ZERO, NodeId::new(0), v);
//!     }
//!     assert_eq!(r.0.events.len(), 4);
//! }
//! assert_eq!(count, 4);
//! ```
//!
//! A [`VecRecorder`] holds O(total events) — the right tool for small
//! tests asserting on exact event sequences. Experiment-scale runs fold
//! online instead: `gocast-analysis`'s `MetricsRecorder` holds
//! O(nodes + messages + seconds) state regardless of run length.

use crate::id::NodeId;
use crate::time::SimTime;

/// Receives protocol events as the simulation executes.
///
/// The event type `E` is chosen by the protocol ([`crate::Protocol::Event`]).
/// See the [module docs](self) for how recorders compose.
pub trait Recorder<E> {
    /// Called once per emitted event, in simulation order.
    fn record(&mut self, now: SimTime, node: NodeId, event: E);
}

/// Discards all events. The default recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl<E> Recorder<E> for NullRecorder {
    fn record(&mut self, _now: SimTime, _node: NodeId, _event: E) {}
}

/// Buffers every event in memory.
///
/// O(total events) memory: fine for unit tests asserting on exact event
/// sequences, wrong for experiment-scale runs (see the
/// [module docs](self)).
///
/// ```
/// use gocast_sim::{NodeId, Recorder, SimTime, VecRecorder};
///
/// let mut r = VecRecorder::new();
/// r.record(SimTime::ZERO, NodeId::new(1), "hello");
/// assert_eq!(r.events.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VecRecorder<E> {
    /// The recorded `(time, node, event)` triples, in emission order.
    pub events: Vec<(SimTime, NodeId, E)>,
}

impl<E> VecRecorder<E> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        VecRecorder { events: Vec::new() }
    }
}

impl<E> Default for VecRecorder<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Recorder<E> for VecRecorder<E> {
    fn record(&mut self, now: SimTime, node: NodeId, event: E) {
        self.events.push((now, node, event));
    }
}

/// Applies a closure to each event, for streaming aggregation without
/// buffering.
#[derive(Debug)]
pub struct FnRecorder<F>(pub F);

impl<E, F: FnMut(SimTime, NodeId, E)> Recorder<E> for FnRecorder<F> {
    fn record(&mut self, now: SimTime, node: NodeId, event: E) {
        (self.0)(now, node, event);
    }
}

/// A borrowed recorder is a recorder, so a host can hand its loop a
/// `&mut dyn Recorder` chosen at run time.
impl<E, R: Recorder<E> + ?Sized> Recorder<E> for &mut R {
    fn record(&mut self, now: SimTime, node: NodeId, event: E) {
        (**self).record(now, node, event);
    }
}

/// Fan-out: a tuple of recorders is a recorder. `self.0` sees each event
/// first; read the halves back as `sim.recorder().0`, or destructure
/// `into_recorder()`.
impl<E: Clone, A: Recorder<E>, B: Recorder<E>> Recorder<E> for (A, B) {
    fn record(&mut self, now: SimTime, node: NodeId, event: E) {
        self.0.record(now, node, event.clone());
        self.1.record(now, node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_recorder_buffers_in_order() {
        let mut r = VecRecorder::new();
        r.record(SimTime::from_nanos(1), NodeId::new(0), 10u32);
        r.record(SimTime::from_nanos(2), NodeId::new(1), 20);
        assert_eq!(
            r.events,
            vec![
                (SimTime::from_nanos(1), NodeId::new(0), 10),
                (SimTime::from_nanos(2), NodeId::new(1), 20)
            ]
        );
    }

    #[test]
    fn null_recorder_accepts_anything() {
        let mut r = NullRecorder;
        Recorder::<&str>::record(&mut r, SimTime::ZERO, NodeId::new(0), "x");
    }

    #[test]
    fn fn_recorder_streams() {
        let mut count = 0u32;
        {
            let mut r = FnRecorder(|_, _, v: u32| count += v);
            r.record(SimTime::ZERO, NodeId::new(0), 2);
            r.record(SimTime::ZERO, NodeId::new(0), 3);
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn tuple_of_recorders_is_a_recorder() {
        let mut r = (VecRecorder::new(), VecRecorder::new());
        r.record(SimTime::ZERO, NodeId::new(0), 1u8);
        assert_eq!(r.0.events, r.1.events);
        assert_eq!(r.0.events.len(), 1);
    }
}
