//! The JSONL trace: the sink that writes it and the replay that reads it
//! back.
//!
//! [`TraceRecorder`] is a [`Recorder`] that serializes every event as one
//! JSON object per line and writes it to any [`io::Write`] sink. It is the
//! causal-trace counterpart of the aggregating recorders: where those fold
//! events into O(nodes) summaries, a trace preserves the full per-event
//! `(time, node, event)` stream for offline tree reconstruction and
//! invariant checking — at O(1) *memory* per event (a bounded reuse
//! buffer), with the stream itself living on disk.
//!
//! The event type opts in by implementing [`TraceEvent`], appending its
//! own fields to the line. The schema is flat JSON with stable snake_case
//! keys:
//!
//! ```text
//! {"t_us":1200300,"node":17,"ev":"delivered","origin":3,"seq":9,"from":5,"hop":2,"via":"tree"}
//! ```
//!
//! This module writes the frame (`t_us`, `node` and the braces), so it
//! also reads it: [`replay`] tokenizes each line, checks the frame against
//! the run that wrote it, and hands the event's fields to
//! [`ReplayEvent::from_line`], then feeds `(time, node, event)` to any
//! [`Recorder`] — the same recorders a live run installs.
//!
//! Tracing is strictly opt-in: simulations built without a
//! `TraceRecorder` (the default [`NullRecorder`](crate::NullRecorder)
//! path, or any aggregate-only recorder) pay nothing.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufRead};
use std::path::Path;

use crate::id::NodeId;
use crate::recorder::Recorder;
use crate::time::SimTime;

/// Flush the internal string buffer to the sink once it exceeds this many
/// bytes. Keeps memory bounded while amortizing `write` syscalls.
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// An event that can append itself to a JSONL trace line.
///
/// Implementations append `"ev":"<kind>"` plus their own fields (each
/// preceded by a comma) to `out`; the recorder supplies the `t_us` and
/// `node` fields and the surrounding braces. Keys and enum values must be
/// stable snake_case — they are a schema other tools parse.
pub trait TraceEvent {
    /// Appends `"ev":"...",...` (no surrounding braces, no leading comma)
    /// to `out`.
    fn trace_fields(&self, out: &mut String);
}

/// Streams events as JSON Lines into an [`io::Write`] sink.
///
/// Buffers formatted lines in a reused `String` and flushes whenever the
/// buffer passes a fixed threshold, on [`TraceRecorder::flush`], and on
/// drop (best-effort). Write errors are sticky: the first one is kept and
/// returned by [`TraceRecorder::finish`]; subsequent events are dropped
/// rather than panicking mid-simulation.
///
/// ```
/// use gocast_sim::{NodeId, Recorder, SimTime, TraceEvent, TraceRecorder};
///
/// struct Tick;
/// impl TraceEvent for Tick {
///     fn trace_fields(&self, out: &mut String) {
///         out.push_str("\"ev\":\"tick\"");
///     }
/// }
///
/// let mut rec = TraceRecorder::new(Vec::new());
/// rec.record(SimTime::from_secs(1), NodeId::new(7), Tick);
/// let bytes = rec.finish().unwrap();
/// assert_eq!(
///     String::from_utf8(bytes).unwrap(),
///     "{\"t_us\":1000000,\"node\":7,\"ev\":\"tick\"}\n"
/// );
/// ```
#[derive(Debug)]
pub struct TraceRecorder<W: io::Write> {
    /// `None` only after `finish()` has taken the sink out.
    sink: Option<W>,
    buf: String,
    lines: u64,
    error: Option<io::Error>,
}

impl TraceRecorder<io::BufWriter<File>> {
    /// Opens (truncating) `path` and returns a recorder writing to it.
    ///
    /// # Errors
    ///
    /// Returns the error from [`File::create`].
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(TraceRecorder::new(io::BufWriter::new(File::create(path)?)))
    }
}

impl<W: io::Write> TraceRecorder<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> Self {
        TraceRecorder {
            sink: Some(sink),
            buf: String::with_capacity(FLUSH_THRESHOLD + 256),
            lines: 0,
            error: None,
        }
    }

    /// Lines written (including any still in the buffer).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Writes the buffered lines through to the sink.
    ///
    /// # Errors
    ///
    /// Returns the first write error (current or previously recorded).
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        if !self.buf.is_empty() {
            sink.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        sink.flush()
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns the first write error (current or previously recorded).
    pub fn finish(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.sink.take().expect("finish called once"))
    }

    fn flush_buffer(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            self.buf.clear();
            return;
        };
        if self.error.is_some() {
            self.buf.clear();
            return;
        }
        if let Err(e) = sink.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
        self.buf.clear();
    }
}

/// Metric snapshots stream into the same JSONL traces as protocol events:
/// `{"t_us":...,"node":0,"ev":"metrics","kernel_events":...,...}`. Only the
/// deterministic entries are written (wall-clock histograms are excluded),
/// so a metrics-bearing trace stays byte-identical for a given seed.
impl TraceEvent for gocast_metrics::Snapshot {
    fn trace_fields(&self, out: &mut String) {
        out.push_str("\"ev\":\"metrics\"");
        let mut fields = String::new();
        self.write_json_fields(&mut fields, true);
        if !fields.is_empty() {
            out.push(',');
            out.push_str(&fields);
        }
    }
}

impl<W: io::Write, E: TraceEvent> Recorder<E> for TraceRecorder<W> {
    fn record(&mut self, now: SimTime, node: NodeId, event: E) {
        let t_us = now.as_nanos() / 1_000;
        let _ = write!(self.buf, "{{\"t_us\":{},\"node\":{},", t_us, node.as_u32());
        event.trace_fields(&mut self.buf);
        self.buf.push_str("}\n");
        self.lines += 1;
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_buffer();
        }
    }
}

impl<W: io::Write> Drop for TraceRecorder<W> {
    fn drop(&mut self) {
        self.flush_buffer();
        if let Some(sink) = self.sink.as_mut() {
            let _ = sink.flush();
        }
    }
}

/// An event that can be read back from the fields its
/// [`TraceEvent::trace_fields`] wrote.
pub trait ReplayEvent: TraceEvent + Sized {
    /// Rebuilds the event from one parsed line (its `ev` field included).
    ///
    /// # Errors
    ///
    /// A description of the first field that is missing, mistyped, out of
    /// range or unknown.
    fn from_line(line: &TraceLine<'_>) -> Result<Self, String>;
}

/// One value of a flat trace line: a non-negative integer, a string
/// without escapes, or `null`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceValue<'a> {
    Num(u64),
    Str(&'a str),
    Null,
}

/// One tokenized trace line, with the node-id bound of the run that
/// wrote it: every node id read through [`TraceLine::node`] is below it.
#[derive(Debug)]
pub struct TraceLine<'a> {
    fields: Vec<(&'a str, TraceValue<'a>)>,
    nodes: u64,
}

impl<'a> TraceLine<'a> {
    /// Tokenizes one flat JSON object into key/value pairs.
    fn parse(line: &'a str, nodes: usize) -> Result<Self, String> {
        let b = line.as_bytes();
        let mut i = 0usize;
        let skip_ws = |i: &mut usize| {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        };
        let quoted = |i: &mut usize| -> Result<&'a str, String> {
            if *i >= b.len() || b[*i] != b'"' {
                return Err(format!("expected '\"' at byte {i}", i = *i));
            }
            *i += 1;
            let start = *i;
            while *i < b.len() && b[*i] != b'"' {
                if b[*i] == b'\\' {
                    return Err("escapes are not part of the trace schema".into());
                }
                *i += 1;
            }
            if *i >= b.len() {
                return Err("unterminated string".into());
            }
            let s = &line[start..*i];
            *i += 1;
            Ok(s)
        };

        skip_ws(&mut i);
        if i >= b.len() || b[i] != b'{' {
            return Err("expected '{'".into());
        }
        i += 1;
        let mut fields = Vec::with_capacity(8);
        skip_ws(&mut i);
        if i < b.len() && b[i] == b'}' {
            i += 1;
        } else {
            loop {
                skip_ws(&mut i);
                let key = quoted(&mut i)?;
                skip_ws(&mut i);
                if i >= b.len() || b[i] != b':' {
                    return Err(format!("expected ':' after key {key:?}"));
                }
                i += 1;
                skip_ws(&mut i);
                let val = if i < b.len() && b[i] == b'"' {
                    TraceValue::Str(quoted(&mut i)?)
                } else if line[i..].starts_with("null") {
                    i += 4;
                    TraceValue::Null
                } else {
                    let start = i;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i == start {
                        return Err(format!("expected a value for key {key:?}"));
                    }
                    let n: u64 = line[start..i]
                        .parse()
                        .map_err(|e| format!("bad number for key {key:?}: {e}"))?;
                    TraceValue::Num(n)
                };
                fields.push((key, val));
                skip_ws(&mut i);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => {
                        i += 1;
                        break;
                    }
                    _ => return Err("expected ',' or '}'".into()),
                }
            }
        }
        skip_ws(&mut i);
        if i != b.len() {
            return Err(format!("trailing bytes after object: {:?}", &line[i..]));
        }
        Ok(TraceLine {
            fields,
            nodes: nodes as u64,
        })
    }

    fn get(&self, key: &str) -> Result<TraceValue<'a>, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn num_u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            TraceValue::Num(n) => Ok(n),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    /// The `u32` under `key`.
    ///
    /// # Errors
    ///
    /// The key is missing, not a number, or past `u32::MAX`.
    pub fn num(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.num_u64(key)?).map_err(|_| format!("field {key:?} exceeds u32"))
    }

    /// The node id under `key`, below the run's node count.
    ///
    /// # Errors
    ///
    /// The key is missing, not a number, or names a node the run did not
    /// have.
    pub fn node(&self, key: &str) -> Result<NodeId, String> {
        let n = self.num_u64(key)?;
        match u32::try_from(n) {
            Ok(id) if n < self.nodes => Ok(NodeId::new(id)),
            _ => Err(format!(
                "field {key:?} names node {n}, past the run's {} nodes",
                self.nodes
            )),
        }
    }

    /// Whether the value under `key` is `null`.
    ///
    /// # Errors
    ///
    /// The key is missing.
    pub fn is_null(&self, key: &str) -> Result<bool, String> {
        Ok(self.get(key)? == TraceValue::Null)
    }

    /// The string under `key`.
    ///
    /// # Errors
    ///
    /// The key is missing or not a string.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        match self.get(key)? {
            TraceValue::Str(s) => Ok(s),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }
}

/// A malformed trace line or an IO failure while replaying a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Reading the underlying stream failed.
    Io(io::Error),
    /// A line did not match the schema or the run that wrote it.
    Parse {
        /// 1-based line number.
        line: u64,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace read error: {e}"),
            TraceError::Parse { line, msg } => write!(f, "trace line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Reads back one frame: the time, the node and the event.
fn replay_line<E: ReplayEvent>(
    text: &str,
    nodes: usize,
    end_us: u64,
) -> Result<(SimTime, NodeId, E), String> {
    let line = TraceLine::parse(text, nodes)?;
    let t_us = line.num_u64("t_us")?;
    if t_us > end_us {
        return Err(format!("t_us {t_us} is past the run's end at {end_us}"));
    }
    let node = line.node("node")?;
    Ok((
        SimTime::from_nanos(t_us * 1_000),
        node,
        E::from_line(&line)?,
    ))
}

/// Replays a JSONL trace into `rec`, one record per line, and returns the
/// number of records.
///
/// `nodes` and `end` describe the run that wrote the trace: a trace is
/// outside input, so a line naming a node id `>= nodes` in any field, or
/// stamped after `end`, is an error rather than a record a ledger would
/// size itself by. Empty lines and run-manifest lines are skipped. O(1)
/// memory in the trace length.
///
/// # Errors
///
/// The first IO error, or the first line that does not parse
/// ([`TraceError::Parse`] carries its 1-based number).
pub fn replay<E: ReplayEvent, R: BufRead>(
    reader: R,
    nodes: usize,
    end: SimTime,
    rec: &mut impl Recorder<E>,
) -> Result<u64, TraceError> {
    let end_us = end.as_nanos() / 1_000;
    let mut count = 0u64;
    for (idx, text) in reader.lines().enumerate() {
        let text = text?;
        // Run-manifest header lines stamp provenance on the artifact; they
        // carry no record.
        if text.trim().is_empty() || text.starts_with("{\"manifest\":") {
            continue;
        }
        let (now, node, ev) =
            replay_line(&text, nodes, end_us).map_err(|msg| TraceError::Parse {
                line: idx as u64 + 1,
                msg,
            })?;
        rec.record(now, node, ev);
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ev(u32);

    impl TraceEvent for Ev {
        fn trace_fields(&self, out: &mut String) {
            let _ = write!(out, "\"ev\":\"ev\",\"v\":{}", self.0);
        }
    }

    impl ReplayEvent for Ev {
        fn from_line(line: &TraceLine<'_>) -> Result<Self, String> {
            match line.str("ev")? {
                "ev" => line.num("v").map(Ev),
                other => Err(format!("unknown event kind {other:?}")),
            }
        }
    }

    /// Replays `text` into a list, at 8 nodes and a 10 s run.
    fn replayed(text: &str) -> Result<Vec<(SimTime, NodeId, u32)>, TraceError> {
        let mut out = crate::VecRecorder::new();
        replay::<Ev, _>(text.as_bytes(), 8, SimTime::from_secs(10), &mut out)?;
        Ok(out
            .events
            .into_iter()
            .map(|(t, n, Ev(v))| (t, n, v))
            .collect())
    }

    fn line_error(text: &str) -> (u64, String) {
        match replayed(text) {
            Err(TraceError::Parse { line, msg }) => (line, msg),
            other => panic!("{text:?} replayed as {other:?}"),
        }
    }

    #[test]
    fn jsonl_round_trips_through_trace_recorder() {
        let mut rec = TraceRecorder::new(b"{\"manifest\":1}\n".to_vec());
        rec.record(SimTime::from_nanos(1_500), NodeId::new(3), Ev(9));
        rec.record(SimTime::from_secs(2), NodeId::new(7), Ev(u32::MAX));
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert_eq!(
            replayed(&format!("{text}\n")).unwrap(),
            [
                (SimTime::from_nanos(1_000), NodeId::new(3), 9),
                (SimTime::from_secs(2), NodeId::new(7), u32::MAX),
            ],
            "the manifest and blank lines carry no record; time is in µs"
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let ok = "{\"t_us\":1,\"node\":0,\"ev\":\"ev\",\"v\":1}";
        for (bad, why) in [
            ("not json", "expected '{'"),
            ("{\"t_us\":1}", "missing field \"node\""),
            (
                "{\"t_us\":1,\"node\":0,\"ev\":\"nope\"}",
                "unknown event kind",
            ),
            (
                "{\"t_us\":1,\"node\":0,\"ev\":\"ev\",\"v\":\"x\"}",
                "not a number",
            ),
            (
                "{\"t_us\":1,\"node\":0,\"ev\":\"ev\",\"v\":4294967296}",
                "exceeds u32",
            ),
            ("{\"t_us\":1,\"node\":0,\"ev\":\"e\\\"v\"}", "escapes"),
            (
                "{\"t_us\":1,\"node\":0,\"ev\":\"ev\",\"v\":1}x",
                "trailing bytes",
            ),
        ] {
            let (line, msg) = line_error(&format!("{ok}\n{bad}\n{ok}"));
            assert_eq!(line, 2, "{bad}");
            assert!(msg.contains(why), "{bad}: {msg}");
        }
    }

    #[test]
    fn replay_rejects_a_frame_past_the_run() {
        let (_, msg) = line_error("{\"t_us\":1,\"node\":8,\"ev\":\"ev\",\"v\":1}");
        assert!(msg.contains("past the run's 8 nodes"), "{msg}");
        let (_, msg) = line_error("{\"t_us\":1,\"node\":4294967296,\"ev\":\"ev\",\"v\":1}");
        assert!(msg.contains("past the run's 8 nodes"), "{msg}");
        let (_, msg) = line_error("{\"t_us\":10000001,\"node\":0,\"ev\":\"ev\",\"v\":1}");
        assert!(msg.contains("past the run's end"), "{msg}");
        let (_, msg) =
            line_error("{\"t_us\":18446744073709551615,\"node\":0,\"ev\":\"ev\",\"v\":1}");
        assert!(msg.contains("past the run's end"), "{msg}");
        // The last instant of the run is still inside it.
        assert_eq!(
            replayed("{\"t_us\":10000000,\"node\":7,\"ev\":\"ev\",\"v\":1}").unwrap(),
            [(SimTime::from_secs(10), NodeId::new(7), 1)]
        );
    }

    #[test]
    fn lines_are_flat_json() {
        let mut rec = TraceRecorder::new(Vec::new());
        rec.record(SimTime::from_nanos(1_500), NodeId::new(3), Ev(9));
        rec.record(SimTime::from_secs(2), NodeId::new(0), Ev(1));
        assert_eq!(rec.lines(), 2);
        let out = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert_eq!(
            out,
            "{\"t_us\":1,\"node\":3,\"ev\":\"ev\",\"v\":9}\n\
             {\"t_us\":2000000,\"node\":0,\"ev\":\"ev\",\"v\":1}\n"
        );
    }

    #[test]
    fn buffer_flushes_at_threshold_not_per_event() {
        // Shared sink that counts write calls.
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct CountingSink(Rc<RefCell<(usize, usize)>>); // (writes, bytes)
        impl io::Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let mut s = self.0.borrow_mut();
                s.0 += 1;
                s.1 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = CountingSink::default();
        let stats = Rc::clone(&sink.0);
        let mut rec = TraceRecorder::new(sink);
        for i in 0..1000 {
            rec.record(SimTime::from_nanos(i), NodeId::new(0), Ev(i as u32));
        }
        let writes_before_finish = stats.borrow().0;
        assert!(
            writes_before_finish < 10,
            "expected coarse flushes, got {writes_before_finish} writes"
        );
        rec.finish().unwrap();
        assert!(stats.borrow().1 > 1000 * 30, "all bytes reached the sink");
    }

    #[test]
    fn drop_flushes_best_effort() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct SharedSink(Rc<RefCell<Vec<u8>>>);
        impl io::Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = SharedSink::default();
        let bytes = Rc::clone(&sink.0);
        {
            let mut rec = TraceRecorder::new(sink);
            rec.record(SimTime::ZERO, NodeId::new(1), Ev(5));
        } // dropped without finish()
        assert!(!bytes.borrow().is_empty());
    }

    #[test]
    fn write_errors_are_sticky_and_reported() {
        struct FailingSink;
        impl io::Write for FailingSink {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut rec = TraceRecorder::new(FailingSink);
        // Enough events to cross the flush threshold and hit the error.
        for i in 0..3000 {
            rec.record(SimTime::from_nanos(i), NodeId::new(0), Ev(0));
        }
        assert!(rec.finish().is_err());
    }
}
