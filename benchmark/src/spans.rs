//! Benchmark-side spans for the traced run.
//!
//! The engine is measured from outside, so spans are recorded here,
//! around calls into its public functions and between `ProgressSink`
//! callbacks. They stay in memory until the run ends and are then
//! written as Chrome Trace Event JSON (open in <https://ui.perfetto.dev>).

use hybridgraph::obs::json_escape;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    /// Perfetto track: 0 is the benchmark's main thread, clients count up
    /// from 1.
    track: u32,
    /// Which repetition (job, request cycle or probe) the span belongs to.
    rep: u32,
}

/// In-memory span store of one traced workload run.
pub struct Recorder {
    workload: String,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose timestamps count from now.
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span.
    pub fn add(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        track: u32,
        rep: u32,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            track,
            rep,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    /// Opens a span starting now; children recorded before [`Recorder::end`]
    /// can name it as their parent.
    pub fn begin(&self, name: &str, parent: Option<SpanId>, track: u32, rep: u32) -> SpanId {
        let now = Instant::now();
        self.add(name, now, now, parent, track, rep)
    }

    /// Closes a span opened with [`Recorder::begin`].
    pub fn end(&self, id: SpanId) {
        let now = self.us(Instant::now());
        self.spans.lock().expect("span store poisoned")[id.0].end_us = now;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    #[cfg(test)]
    fn self_time_us(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        self_time_us(&spans, id)
    }

    /// The whole store as a Chrome Trace Event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p.0 as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"workload\":\"{}\",\"rep\":{},\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                json_escape(&s.name),
                s.track,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                json_escape(&self.workload),
                s.rep,
                i,
                parent,
                self_time_us(&spans, SpanId(i)),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Runs `f`, returning its result and wall seconds; with a recorder the
/// call is also kept as a span. The untraced runs go through the same
/// function with `rec = None`, so tracing adds only the recording.
pub fn timed<T>(
    rec: Option<&Recorder>,
    name: &str,
    parent: Option<SpanId>,
    track: u32,
    rep: u32,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = rec.map(|r| (r, r.begin(name, parent, track, rep)));
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let Some((r, id)) = span {
        r.end(id);
    }
    (out, secs)
}

/// Self time of `id` in microseconds: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once, children are clipped to the parent).
fn self_time_us(spans: &[Span], id: SpanId) -> f64 {
    let me = &spans[id.0];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = me.start_us;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_us - me.start_us - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph::obs::validate_json;
    use std::time::Duration;

    /// A recorder plus a helper that places spans at millisecond offsets.
    fn at(r: &Recorder, name: &str, a: u64, b: u64, parent: Option<SpanId>) -> SpanId {
        let t = |ms| r.origin + Duration::from_millis(ms);
        r.add(name, t(a), t(b), parent, 0, 0)
    }

    #[test]
    fn self_time_subtracts_nested_children_only_once_per_level() {
        let r = Recorder::new("w");
        let root = at(&r, "root", 0, 100, None);
        let child = at(&r, "child", 10, 60, Some(root));
        let _grandchild = at(&r, "grandchild", 20, 30, Some(child));
        assert!((r.self_time_us(root) - 50_000.0).abs() < 1e-6);
        assert!((r.self_time_us(child) - 40_000.0).abs() < 1e-6);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        let r = Recorder::new("w");
        let root = at(&r, "root", 10, 110, None);
        at(&r, "a", 20, 60, Some(root));
        at(&r, "b", 40, 80, Some(root)); // overlaps a: union is 20..80
        at(&r, "c", 100, 150, Some(root)); // sticks out: clipped to 100..110
        at(&r, "d", 0, 5, Some(root)); // wholly outside: ignored
        assert!((r.self_time_us(root) - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let r = Recorder::new("w");
        let leaf = at(&r, "leaf", 5, 7, None);
        assert!((r.self_time_us(leaf) - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn chrome_json_is_valid_and_escapes_names() {
        let r = Recorder::new("serve \"mixed\"");
        let root = at(&r, "job \\ 1", 0, 10, None);
        at(&r, "sub\nstep", 1, 2, Some(root));
        let (out, secs) = timed(Some(&r), "timed", Some(root), 1, 3, || 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
        assert_eq!(timed(None, "untraced", None, 0, 0, || 8).0, 8);
        assert_eq!(r.len(), 3);
        let json = r.to_chrome_json();
        validate_json(&json).expect("trace must be valid JSON");
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"rep\":3"));
        assert!(json.contains("\"tid\":1"));
        validate_json(&Recorder::new("empty").to_chrome_json()).expect("empty trace");
    }
}
