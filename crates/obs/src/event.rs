//! Typed trace events with deterministic modeled-time timestamps.
//!
//! Timestamps are **modeled microseconds**, not wall-clock: they are derived
//! from `DeviceProfile`-converted byte counts upstream, so a trace is a pure
//! function of (graph, config, seed) and is bit-reproducible across runs and
//! machines. Nothing in this module reads a clock.

use hybridgraph_codec::frame::{AsIs, Field, PayloadReader, PayloadWriter, Via};
use hybridgraph_codec::{record, tagged};
use std::io;

/// A value attached to an event's `args` map.
///
/// Only exactly-representable value kinds are allowed; floats are carried as
/// `F64` and formatted with a deterministic shortest-roundtrip style by the
/// exporters (Rust's `{}` for f64 is shortest-roundtrip and stable).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

tagged! { ArgValue { 0 => U64(x), 1 => I64(x), 2 => F64(x), 3 => Str(x) } }

/// What shape of event this is, mapping onto Chrome Trace Event phases.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A complete span (`"ph":"X"`) with a modeled duration.
    Span { dur_us: u64 },
    /// A point-in-time marker (`"ph":"i"`).
    Instant,
    /// A counter sample (`"ph":"C"`); args carry the series values.
    Counter,
}

/// One recorded event on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Modeled timestamp in microseconds since job start.
    pub ts_us: u64,
    /// Track (thread id in the Chrome trace): one per simulated worker,
    /// plus master/control/net tracks allocated by [`crate::TraceSink`].
    pub track: u32,
    /// Event name; static in practice but owned so callers may format.
    pub name: String,
    pub kind: EventKind,
    /// Small ordered key/value list; insertion order is preserved in export.
    pub args: Vec<(&'static str, ArgValue)>,
}

tagged! { EventKind { 0 => Span { dur_us }, 1 => Instant, 2 => Counter } }
record! { TraceEvent { ts_us, track, name, kind, args via Vec<(ArgKey, AsIs)> } }

/// An arg key as stored: its string, re-interned on the way back in.
struct ArgKey;

impl Via<&'static str> for ArgKey {
    const MIN_BYTES: usize = String::MIN_BYTES;
    fn put(key: &&'static str, w: &mut PayloadWriter) {
        w.put_str(key);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<&'static str> {
        Ok(intern_arg_key(&r.get_str()?))
    }
}

/// Returns a `'static` copy of `key` for a decoded event arg, reusing the
/// program's own literal for every known key. Arg keys form a small closed
/// set (they are `&'static str` at record time), so the `Box::leak`
/// fallback for unrecognized keys is bounded and only reachable for logs
/// written by a newer producer.
fn intern_arg_key(key: &str) -> &'static str {
    match key {
        "b" => "b",
        "b_lower_bound" => "b_lower_bound",
        "barrier" => "barrier",
        "bytes" => "bytes",
        "checkpoint" => "checkpoint",
        "delays" => "delays",
        "drops" => "drops",
        "duplicates" => "duplicates",
        "epoch" => "epoch",
        "failed_superstep" => "failed_superstep",
        "fragments" => "fragments",
        "from" => "from",
        "g" => "g",
        "grants" => "grants",
        "graph" => "graph",
        "hits" => "hits",
        "initial_mode" => "initial_mode",
        "io_bytes" => "io_bytes",
        "io_ratio" => "io_ratio",
        "job_id" => "job_id",
        "lane" => "lane",
        "len" => "len",
        "local" => "local",
        "logical_bytes" => "logical_bytes",
        "max_worker_bytes" => "max_worker_bytes",
        "memory" => "memory",
        "messages" => "messages",
        "misses" => "misses",
        "mode" => "mode",
        "mode_after" => "mode_after",
        "mode_before" => "mode_before",
        "odd" => "odd",
        "ops" => "ops",
        "phase" => "phase",
        "q" => "q",
        "q_metric" => "q_metric",
        "remote" => "remote",
        "step_secs" => "step_secs",
        "superstep" => "superstep",
        "threshold" => "threshold",
        "to" => "to",
        "updated" => "updated",
        "v" => "v",
        "verdict" => "verdict",
        "worker" => "worker",
        other => Box::leak(other.to_string().into_boxed_str()),
    }
}

impl TraceEvent {
    pub fn span(ts_us: u64, dur_us: u64, track: u32, name: impl Into<String>) -> Self {
        TraceEvent {
            ts_us,
            track,
            name: name.into(),
            kind: EventKind::Span { dur_us },
            args: Vec::new(),
        }
    }

    pub fn instant(ts_us: u64, track: u32, name: impl Into<String>) -> Self {
        TraceEvent {
            ts_us,
            track,
            name: name.into(),
            kind: EventKind::Instant,
            args: Vec::new(),
        }
    }

    pub fn counter(ts_us: u64, track: u32, name: impl Into<String>) -> Self {
        TraceEvent {
            ts_us,
            track,
            name: name.into(),
            kind: EventKind::Counter,
            args: Vec::new(),
        }
    }

    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}
