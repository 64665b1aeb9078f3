//! Sharded ring-buffer event collector.
//!
//! One [`TraceShard`] per simulated worker (plus master/control/net shards)
//! keeps recording contention-free: each shard is written by exactly one
//! thread, so its `Mutex` is uncontended in steady state and exists only to
//! let the master drain shards at export time. The ring buffer bounds memory
//! — when full, the oldest events are dropped and counted, never blocking
//! the hot path.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};

use crate::event::{intern_arg_key, ArgValue, EventKind, TraceEvent};
use hybridgraph_codec::frame::{PayloadReader, PayloadWriter};

/// Default per-shard capacity. At ~100 events per superstep per worker this
/// is enough for hundreds of supersteps before wrapping.
pub const DEFAULT_SHARD_CAPACITY: usize = 65_536;

struct ShardInner {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Modeled-time cursor in microseconds; events default to this time.
    clock_us: u64,
}

/// A single-writer event buffer bound to one track.
pub struct TraceShard {
    track: u32,
    inner: Mutex<ShardInner>,
}

impl std::fmt::Debug for TraceShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceShard")
            .field("track", &self.track)
            .field("len", &self.len())
            .finish()
    }
}

impl TraceShard {
    pub fn new(track: u32, capacity: usize) -> Self {
        TraceShard {
            track,
            inner: Mutex::new(ShardInner {
                ring: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                clock_us: 0,
            }),
        }
    }

    /// The Chrome-trace track (tid) this shard writes to.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Set the modeled-time cursor (microseconds since job start).
    pub fn set_clock_us(&self, us: u64) {
        self.inner.lock().unwrap().clock_us = us;
    }

    /// Advance the modeled-time cursor and return the *previous* value
    /// (the start timestamp of whatever just consumed `dur_us`).
    fn advance_us(&self, dur_us: u64) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let start = g.clock_us;
        g.clock_us = g.clock_us.saturating_add(dur_us);
        start
    }

    /// Current modeled-time cursor.
    pub fn clock_us(&self) -> u64 {
        self.inner.lock().unwrap().clock_us
    }

    fn push(&self, ev: TraceEvent) {
        let mut g = self.inner.lock().unwrap();
        if g.ring.len() >= g.capacity {
            g.ring.pop_front();
            g.dropped += 1;
        }
        g.ring.push_back(ev);
    }

    /// Record a complete span that *starts at the current cursor* and
    /// advances the cursor by `dur_us`.
    pub fn span(&self, name: impl Into<String>, dur_us: u64, args: Vec<(&'static str, ArgValue)>) {
        let start = self.advance_us(dur_us);
        let mut ev = TraceEvent::span(start, dur_us, self.track, name);
        ev.args = args;
        self.push(ev);
    }

    /// Record an instant event at the current cursor.
    pub fn instant(&self, name: impl Into<String>, args: Vec<(&'static str, ArgValue)>) {
        let ts = self.clock_us();
        self.instant_at(ts, name, args);
    }

    /// Record an instant event at an explicit timestamp.
    pub fn instant_at(
        &self,
        ts_us: u64,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let mut ev = TraceEvent::instant(ts_us, self.track, name);
        ev.args = args;
        self.push(ev);
    }

    /// Record a counter sample at an explicit timestamp.
    pub fn counter_at(
        &self,
        ts_us: u64,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let mut ev = TraceEvent::counter(ts_us, self.track, name);
        ev.args = args;
        self.push(ev);
    }

    /// Snapshot the recorded events in insertion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// A full copy of this shard's volatile state (buffered events, drop
    /// count, modeled-time cursor) — what a durable master snapshots at a
    /// barrier so a restarted run replays to the same trace bytes.
    fn export_state(&self) -> ShardState {
        let g = self.inner.lock().unwrap();
        ShardState {
            events: g.ring.iter().cloned().collect(),
            dropped: g.dropped,
            clock_us: g.clock_us,
        }
    }

    /// Replaces this shard's buffered events, drop count and clock with
    /// `state`. A full replacement (not a merge): any events recorded
    /// before the restore — e.g. re-load spans emitted while a resumed job
    /// rebuilt its stores — are erased, which is exactly what makes the
    /// restored trace byte-identical to an uninterrupted one.
    fn restore_state(&self, state: &ShardState) {
        let mut g = self.inner.lock().unwrap();
        g.ring.clear();
        g.ring.extend(state.events.iter().cloned());
        g.dropped = state.dropped;
        g.clock_us = state.clock_us;
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The collector: one shard per simulated worker plus three fixed extra
/// tracks (master, control, net).
pub struct TraceSink {
    workers: usize,
    shards: Vec<Arc<TraceShard>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("workers", &self.workers)
            .field("events", &self.total_events())
            .finish()
    }
}

impl TraceSink {
    /// Create a sink for `workers` simulated workers with the default
    /// per-shard capacity.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_SHARD_CAPACITY)
    }

    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        let total = workers + 3;
        let shards = (0..total)
            .map(|t| Arc::new(TraceShard::new(t as u32, capacity)))
            .collect();
        TraceSink { workers, shards }
    }

    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Shard for simulated worker `w` (`w < num_workers`).
    pub fn worker(&self, w: usize) -> Arc<TraceShard> {
        assert!(w < self.workers, "worker shard index out of range");
        Arc::clone(&self.shards[w])
    }

    /// Master track: superstep spans, barrier instants, checkpoint spans.
    pub fn master(&self) -> Arc<TraceShard> {
        Arc::clone(&self.shards[self.workers])
    }

    /// Control track: Q_t audit instants and mode switches.
    pub fn control(&self) -> Arc<TraceShard> {
        Arc::clone(&self.shards[self.workers + 1])
    }

    /// Net track: ARQ fault instants and traffic counters.
    pub fn net(&self) -> Arc<TraceShard> {
        Arc::clone(&self.shards[self.workers + 2])
    }

    /// All shards in track order (workers, master, control, net).
    pub fn shards(&self) -> &[Arc<TraceShard>] {
        &self.shards
    }

    /// Human-readable track name used by exporter metadata.
    pub fn track_name(&self, track: u32) -> String {
        let t = track as usize;
        if t < self.workers {
            format!("worker-{t}")
        } else if t == self.workers {
            "master".to_string()
        } else if t == self.workers + 1 {
            "control".to_string()
        } else {
            "net".to_string()
        }
    }

    /// Total events dropped across all shards.
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Total events currently buffered across all shards.
    pub fn total_events(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

// ------------------------------------------------------- shard snapshots

/// One shard's volatile state, snapshotted by [`TraceShard::export_state`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardState {
    /// Buffered events in insertion order.
    pub events: Vec<TraceEvent>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Modeled-time cursor in microseconds.
    pub clock_us: u64,
}

impl TraceSink {
    /// Snapshots every shard in track order (workers, master, control,
    /// net).
    pub fn export_states(&self) -> Vec<ShardState> {
        self.shards.iter().map(|s| s.export_state()).collect()
    }

    /// Restores every shard from `states` (track order). Shard counts must
    /// match — the restored sink is built for the same worker count.
    ///
    /// # Panics
    /// Panics if `states` has a different number of shards.
    pub fn restore_states(&self, states: &[ShardState]) {
        assert_eq!(
            states.len(),
            self.shards.len(),
            "trace shard count mismatch"
        );
        for (shard, state) in self.shards.iter().zip(states) {
            shard.restore_state(state);
        }
    }
}

fn enc_corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt shard state: {what}"),
    )
}

/// Serializes shard states into a deterministic little-endian byte run
/// (f64 args by bit pattern), for embedding in a durable master snapshot.
pub fn encode_shard_states(states: &[ShardState]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(states.len() as u64);
    for s in states {
        w.put_u64(s.clock_us);
        w.put_u64(s.dropped);
        w.put_u64(s.events.len() as u64);
        for ev in &s.events {
            w.put_u64(ev.ts_us);
            w.put_u32(ev.track);
            w.put_str(&ev.name);
            match ev.kind {
                EventKind::Span { dur_us } => {
                    w.put_u8(0);
                    w.put_u64(dur_us);
                }
                EventKind::Instant => w.put_u8(1),
                EventKind::Counter => w.put_u8(2),
            }
            w.put_u64(ev.args.len() as u64);
            for (k, v) in &ev.args {
                w.put_str(k);
                match v {
                    ArgValue::U64(x) => {
                        w.put_u8(0);
                        w.put_u64(*x);
                    }
                    ArgValue::I64(x) => {
                        w.put_u8(1);
                        w.put_u64(*x as u64);
                    }
                    ArgValue::F64(x) => {
                        w.put_u8(2);
                        w.put_f64(*x);
                    }
                    ArgValue::Str(x) => {
                        w.put_u8(3);
                        w.put_str(x);
                    }
                }
            }
        }
    }
    w.into_bytes()
}

// Fewest bytes one encoded element can take: what `get_count` sizes a
// decoded count against before anything is allocated for it.
const MIN_STATE_BYTES: usize = 8 + 8 + 8;
const MIN_EVENT_BYTES: usize = 8 + 4 + 8 + 1 + 8;
const MIN_ARG_BYTES: usize = 8 + 1 + 8;

/// Rebuilds shard states from [`encode_shard_states`] bytes. Arg keys are
/// re-interned to `'static` via [`intern_arg_key`].
pub fn decode_shard_states(buf: &[u8]) -> io::Result<Vec<ShardState>> {
    let mut d = PayloadReader::new(buf);
    let n = d.get_count(MIN_STATE_BYTES)?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        let clock_us = d.get_u64()?;
        let dropped = d.get_u64()?;
        let ne = d.get_count(MIN_EVENT_BYTES)?;
        let mut events = Vec::with_capacity(ne);
        for _ in 0..ne {
            let ts_us = d.get_u64()?;
            let track = d.get_u32()?;
            let name = d.get_str()?;
            let kind = match d.get_u8()? {
                0 => EventKind::Span {
                    dur_us: d.get_u64()?,
                },
                1 => EventKind::Instant,
                2 => EventKind::Counter,
                _ => return Err(enc_corrupt("unknown event kind")),
            };
            let na = d.get_count(MIN_ARG_BYTES)?;
            let mut args = Vec::with_capacity(na);
            for _ in 0..na {
                let key = intern_arg_key(&d.get_str()?);
                let val = match d.get_u8()? {
                    0 => ArgValue::U64(d.get_u64()?),
                    1 => ArgValue::I64(d.get_u64()? as i64),
                    2 => ArgValue::F64(d.get_f64()?),
                    3 => ArgValue::Str(d.get_str()?),
                    _ => return Err(enc_corrupt("unknown arg value tag")),
                };
                args.push((key, val));
            }
            events.push(TraceEvent {
                ts_us,
                track,
                name,
                kind,
                args,
            });
        }
        states.push(ShardState {
            events,
            dropped,
            clock_us,
        });
    }
    if !d.done() {
        return Err(enc_corrupt("trailing bytes"));
    }
    Ok(states)
}

/// Convenience for instrumented code: events recorded through an
/// `Option<Arc<TraceShard>>` compile to a null check when tracing is off.
pub fn maybe_span(
    shard: &Option<Arc<TraceShard>>,
    name: &'static str,
    dur_us: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if let Some(s) = shard {
        s.span(name, dur_us, args);
    }
}

pub fn maybe_instant(
    shard: &Option<Arc<TraceShard>>,
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
) {
    if let Some(s) = shard {
        s.instant(name, args);
    }
}

#[allow(clippy::needless_range_loop)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn ring_drops_oldest() {
        let shard = TraceShard::new(0, 4);
        for i in 0..6u64 {
            shard.instant_at(i, format!("e{i}"), vec![]);
        }
        let evs = shard.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(shard.dropped(), 2);
        assert_eq!(evs[0].name, "e2");
        assert_eq!(evs[3].name, "e5");
    }

    #[test]
    fn clock_advances_spans() {
        let shard = TraceShard::new(1, 16);
        shard.set_clock_us(100);
        shard.span("a", 50, vec![]);
        shard.span("b", 25, vec![]);
        let evs = shard.events();
        assert_eq!(evs[0].ts_us, 100);
        assert_eq!(evs[1].ts_us, 150);
        assert_eq!(shard.clock_us(), 175);
        match evs[1].kind {
            EventKind::Span { dur_us } => assert_eq!(dur_us, 25),
            _ => panic!("expected span"),
        }
    }

    #[test]
    fn shard_state_roundtrip_is_exact() {
        let sink = TraceSink::with_capacity(2, 8);
        sink.worker(0).span(
            "load",
            50,
            vec![
                ("bytes", ArgValue::U64(1024)),
                ("worker", ArgValue::I64(-1)),
            ],
        );
        sink.master()
            .instant("barrier", vec![("superstep", ArgValue::U64(3))]);
        sink.control().counter_at(
            77,
            "q",
            vec![
                ("q", ArgValue::F64(-0.125)),
                ("verdict", ArgValue::Str("hold".into())),
            ],
        );
        for i in 0..10u64 {
            sink.net().instant_at(i, format!("e{i}"), vec![]);
        }
        let states = sink.export_states();
        assert_eq!(states[4].dropped, 2, "net ring wrapped");

        let bytes = encode_shard_states(&states);
        let decoded = decode_shard_states(&bytes).unwrap();
        assert_eq!(decoded, states);

        // A fresh sink restored from the snapshot replays identically —
        // including cursor positions, so subsequent spans line up.
        let fresh = TraceSink::with_capacity(2, 8);
        fresh.worker(0).span("noise-before-restore", 999, vec![]);
        fresh.restore_states(&decoded);
        assert_eq!(fresh.export_states(), states);
        assert_eq!(fresh.worker(0).clock_us(), sink.worker(0).clock_us());
        sink.worker(0).span("next", 10, vec![]);
        fresh.worker(0).span("next", 10, vec![]);
        assert_eq!(fresh.worker(0).events(), sink.worker(0).events());
        assert!(decode_shard_states(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn sink_track_layout() {
        let sink = TraceSink::new(3);
        assert_eq!(sink.worker(0).track(), 0);
        assert_eq!(sink.master().track(), 3);
        assert_eq!(sink.control().track(), 4);
        assert_eq!(sink.net().track(), 5);
        assert_eq!(sink.track_name(1), "worker-1");
        assert_eq!(sink.track_name(3), "master");
        assert_eq!(sink.track_name(4), "control");
        assert_eq!(sink.track_name(5), "net");
    }
}
