//! Sharded ring-buffer event collector.
//!
//! One [`TraceShard`] per simulated worker (plus master/control/net shards)
//! keeps recording contention-free: each shard is written by exactly one
//! thread, so its `Mutex` is uncontended in steady state and exists only to
//! let the master drain shards at export time. The ring buffer bounds memory
//! — when full, the oldest events are dropped and counted, never blocking
//! the hot path.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::{ArgValue, TraceEvent};
use hybridgraph_codec::record;

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

/// One shard's volatile state, snapshotted by `TraceShard::export_state`.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardState {
    /// Buffered events in insertion order.
    pub events: Vec<TraceEvent>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Modeled-time cursor in microseconds.
    pub clock_us: u64,
}

record! { ShardState { clock_us, dropped, events } }

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
    use hybridgraph_codec::frame;

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

        let bytes = frame::encode(&states);
        let decoded: Vec<ShardState> = frame::decode(&bytes).unwrap();
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
