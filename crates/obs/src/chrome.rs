//! Chrome Trace Event JSON exporter (Perfetto-loadable).
//!
//! Output is the "JSON Object Format": `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
//! Events are emitted per-track in insertion order — never re-sorted by
//! timestamp — so the byte stream is a deterministic function of recorded
//! events. Floats are formatted with Rust's shortest-roundtrip `{}` which is
//! stable across platforms.

use std::fmt::Write as _;

use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::sink::TraceSink;

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure the token is valid JSON (Rust prints `1` for 1.0_f64 which
        // is fine) — but NaN/inf are caught above.
        s
    } else {
        // JSON has no NaN/Infinity; encode as string to stay parseable.
        format!("\"{v}\"")
    }
}

fn write_args(buf: &mut String, args: &[(&'static str, ArgValue)]) {
    buf.push_str("\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "\"{}\":", json_escape(k));
        match v {
            ArgValue::U64(n) => {
                let _ = write!(buf, "{n}");
            }
            ArgValue::I64(n) => {
                let _ = write!(buf, "{n}");
            }
            ArgValue::F64(f) => {
                buf.push_str(&fmt_f64(*f));
            }
            ArgValue::Str(s) => {
                let _ = write!(buf, "\"{}\"", json_escape(s));
            }
        }
    }
    buf.push('}');
}

fn write_event(buf: &mut String, ev: &TraceEvent, pid: usize, first: &mut bool) {
    if !*first {
        buf.push_str(",\n");
    }
    *first = false;
    let ph = match ev.kind {
        EventKind::Span { .. } => "X",
        EventKind::Instant => "i",
        EventKind::Counter => "C",
    };
    let _ = write!(
        buf,
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        json_escape(&ev.name),
        ph,
        ev.ts_us,
        pid,
        ev.track
    );
    if let EventKind::Span { dur_us } = ev.kind {
        let _ = write!(buf, ",\"dur\":{dur_us}");
    }
    if let EventKind::Instant = ev.kind {
        // Thread-scoped instants render as small arrows on the track.
        buf.push_str(",\"s\":\"t\"");
    }
    buf.push(',');
    write_args(buf, &ev.args);
    buf.push('}');
}

/// Render the full sink as Chrome Trace Event JSON.
pub fn export_chrome_trace(sink: &TraceSink) -> String {
    let mut buf = String::new();
    buf.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = false;
    // Metadata: process name + one thread_name record per track, in track
    // order. sort_index pins the UI ordering to the track number.
    buf.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"hybridgraph\"}}",
    );
    for shard in sink.shards() {
        let t = shard.track();
        let _ = write!(
            buf,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            t,
            json_escape(&sink.track_name(t))
        );
        let _ = write!(
            buf,
            ",\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"args\":{{\"sort_index\":{t}}}}}"
        );
    }
    for shard in sink.shards() {
        for ev in shard.events() {
            write_event(&mut buf, &ev, 0, &mut first);
        }
    }
    buf.push_str("\n]}\n");
    buf
}

/// Render several jobs' sinks into one Chrome Trace Event JSON document,
/// one *process* per job (pid = job index, process name = job name) so a
/// multi-tenant run shows every job's tracks side by side in Perfetto.
///
/// Jobs are emitted in slice order and each sink's shards in track order,
/// so the byte stream is a deterministic function of the recorded events —
/// the property the `service-<seed>` rows of `det_probe` rely on.
pub fn export_chrome_trace_jobs(jobs: &[(&str, &TraceSink)]) -> String {
    let mut buf = String::new();
    buf.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for (pid, (name, sink)) in jobs.iter().enumerate() {
        if !first {
            buf.push_str(",\n");
        }
        first = false;
        let _ = write!(
            buf,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            json_escape(name)
        );
        let _ = write!(
            buf,
            ",\n{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}"
        );
        for shard in sink.shards() {
            let t = shard.track();
            let _ = write!(
                buf,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                t,
                json_escape(&sink.track_name(t))
            );
            let _ = write!(
                buf,
                ",\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{t},\"args\":{{\"sort_index\":{t}}}}}"
            );
        }
    }
    for (pid, (_, sink)) in jobs.iter().enumerate() {
        for shard in sink.shards() {
            for ev in shard.events() {
                write_event(&mut buf, &ev, pid, &mut first);
            }
        }
    }
    buf.push_str("\n]}\n");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn escape_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn export_is_valid_json() {
        let sink = TraceSink::new(2);
        sink.worker(0).span(
            "superstep",
            1000,
            vec![("bytes", 42u64.into()), ("mode", "push".into())],
        );
        sink.worker(1).instant("barrier", vec![("t", 1u64.into())]);
        sink.control()
            .counter_at(500, "q_t", vec![("q", 1.25f64.into())]);
        let json = export_chrome_trace(&sink);
        validate_json(&json).expect("exporter must emit valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"name\":\"master\""));
    }

    #[test]
    fn export_identical_for_identical_events() {
        let mk = || {
            let sink = TraceSink::new(1);
            sink.worker(0).span("a", 10, vec![("x", 1u64.into())]);
            sink.master().instant("b", vec![]);
            export_chrome_trace(&sink)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn multi_job_export_separates_processes() {
        let a = TraceSink::new(1);
        a.worker(0).span("superstep", 100, vec![]);
        let b = TraceSink::new(1);
        b.worker(0).span("superstep", 200, vec![]);
        let json = export_chrome_trace_jobs(&[("job-a", &a), ("job-b", &b)]);
        validate_json(&json).expect("multi-job exporter must emit valid JSON");
        assert!(json.contains("\"name\":\"job-a\""));
        assert!(json.contains("\"name\":\"job-b\""));
        assert!(json.contains("\"pid\":1"));
        // Deterministic byte stream for identical inputs.
        let again = export_chrome_trace_jobs(&[("job-a", &a), ("job-b", &b)]);
        assert_eq!(json, again);
    }

    #[test]
    fn nonfinite_floats_stay_parseable() {
        let sink = TraceSink::new(1);
        sink.worker(0).instant("odd", vec![("v", f64::NAN.into())]);
        let json = export_chrome_trace(&sink);
        validate_json(&json).expect("NaN must be encoded as a string");
    }
}
