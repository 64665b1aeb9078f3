//! Observability determinism: traces are byte-identical run to run, add
//! nothing to the cost model, and the Q_t audit mirrors the decisions
//! actually taken.
//!
//! Timestamps in the trace are *modeled* time (byte counts divided by
//! the device profile), so identical seeded jobs must serialize to
//! identical Chrome Trace JSON — even when the simulated wire drops,
//! duplicates and delays frames, because ARQ retransmissions are never
//! recorded on the trace timeline (only fault-plan fired counters are,
//! and those are deterministic at superstep barriers).

use hybridgraph::prelude::*;
use hybridgraph_graph::gen;
use hybridgraph_obs::{EventKind, QtVerdict};
use std::sync::Arc;

fn graph() -> Graph {
    gen::rmat(256, 2048, gen::RmatParams::default(), 11)
}

fn base_cfg(workers: usize) -> JobConfig {
    JobConfig::new(Mode::Hybrid, workers).with_buffer(64)
}

/// Runs hybrid PageRank with a fresh sink; returns (trace JSON, metrics).
fn traced_run(cfg_mut: impl Fn(JobConfig) -> JobConfig) -> (String, JobMetrics) {
    let g = graph();
    let workers = 3;
    let sink = Arc::new(TraceSink::new(workers));
    let cfg = cfg_mut(base_cfg(workers).with_trace(Arc::clone(&sink)));
    let m = run_job(Arc::new(PageRank::new(6)), &g, cfg)
        .expect("job failed")
        .metrics;
    let json = export_chrome_trace(&sink);
    validate_json(&json).expect("trace must be valid JSON");
    (json, m)
}

#[test]
fn identical_runs_emit_byte_identical_traces() {
    let (a, ma) = traced_run(|c| c);
    let (b, mb) = traced_run(|c| c);
    assert_eq!(a, b, "same-seed traces must serialize identically");
    assert_eq!(ma.steps.len(), mb.steps.len());
    assert!(a.contains("\"ph\":\"X\""), "trace has spans");
    assert!(a.contains("vfs."), "trace has per-class VFS events");
}

#[test]
fn lossy_wire_runs_stay_byte_identical_and_mark_arq_faults() {
    let lossy = |c: JobConfig| {
        c.with_fault_plan(Arc::new(FaultPlan::new().with_net(Arc::new(
            NetFaultPlan::new(77).with_drops(200, 2).with_duplicates(50),
        ))))
    };
    let (a, ma) = traced_run(lossy);
    let (b, _) = traced_run(lossy);
    assert_eq!(a, b, "lossy same-seed traces must serialize identically");

    // The wire was genuinely lossy…
    assert!(
        ma.net_overhead.dropped_frames > 0,
        "fault plan never fired: {:?}",
        ma.net_overhead
    );
    // …the trace says so (deterministic fired counters only)…
    assert!(a.contains("arq.faults"), "lossy trace marks ARQ faults");
    let (clean, mc) = traced_run(|c| c);
    assert!(
        !clean.contains("arq.faults"),
        "lossless trace must not mark ARQ faults"
    );
    // …and the loss never perturbed the cost model: identical Q_t
    // inputs, byte counts and mode sequence as the lossless run.
    assert_eq!(ma.steps.len(), mc.steps.len());
    for (l, c) in ma.steps.iter().zip(&mc.steps) {
        assert_eq!(l.kind, c.kind, "superstep {} kind", c.superstep);
        assert_eq!(l.sem, c.sem, "superstep {} semantic bytes", c.superstep);
        assert_eq!(
            l.net_out_bytes, c.net_out_bytes,
            "superstep {} logical net bytes",
            c.superstep
        );
        assert_eq!(
            l.q_metric.to_bits(),
            c.q_metric.to_bits(),
            "superstep {} Q_t",
            c.superstep
        );
    }
    assert_eq!(ma.qt_audit, mc.qt_audit, "audit records diverged");
}

#[test]
fn tracing_off_changes_nothing_and_records_nothing() {
    let g = graph();
    let sink = Arc::new(TraceSink::new(3));
    let with = run_job(
        Arc::new(PageRank::new(6)),
        &g,
        base_cfg(3).with_trace(Arc::clone(&sink)),
    )
    .expect("job failed");
    let without = run_job(Arc::new(PageRank::new(6)), &g, base_cfg(3)).expect("job failed");

    assert!(sink.total_events() > 0, "tracing on records events");
    let wm = &with.metrics;
    let om = &without.metrics;
    assert_eq!(wm.steps.len(), om.steps.len());
    for (a, b) in wm.steps.iter().zip(&om.steps) {
        assert_eq!(a.io, b.io, "superstep {} I/O bytes", b.superstep);
        assert_eq!(a.sem, b.sem, "superstep {} semantic bytes", b.superstep);
        assert_eq!(a.q_metric.to_bits(), b.q_metric.to_bits());
    }
    assert_eq!(wm.qt_audit, om.qt_audit, "audit must not depend on tracing");
    assert_eq!(
        with.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        without
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "tracing perturbed the computation"
    );
}

#[test]
fn audit_switch_records_match_recorded_switches() {
    // SSSP on a path-heavy graph under hybrid exercises both verdict
    // kinds; every SWITCH audit row must line up with JobMetrics.switches
    // (and vice versa), and every audited superstep must exist.
    let g = gen::randomize_weights(&gen::uniform(200, 1200, 5), 1.0, 4.0, 6);
    let m = run_job(
        Arc::new(Sssp::new(VertexId(0))),
        &g,
        JobConfig::new(Mode::Hybrid, 3).with_buffer(64),
    )
    .expect("job failed")
    .metrics;
    let audited_switches: Vec<u64> = m
        .qt_audit
        .iter()
        .filter(|a| a.verdict == QtVerdict::Switch)
        .map(|a| a.superstep + 1)
        .collect();
    let recorded: Vec<u64> = m.switches.iter().map(|(s, _, _)| *s).collect();
    assert_eq!(audited_switches, recorded, "audit vs switches");
    for a in &m.qt_audit {
        assert!(
            m.steps.iter().any(|s| s.superstep == a.superstep),
            "audit references unexecuted superstep {}",
            a.superstep
        );
        let expect_after = a.verdict == QtVerdict::Switch;
        assert_eq!(
            a.mode_before != a.mode_after,
            expect_after,
            "superstep {}: verdict {:?} vs mode transition {} -> {}",
            a.superstep,
            a.verdict,
            a.mode_before,
            a.mode_after
        );
    }
}

#[test]
fn trace_covers_every_superstep_and_track() {
    let sink = Arc::new(TraceSink::new(3));
    let g = graph();
    let m = run_job(
        Arc::new(PageRank::new(6)),
        &g,
        base_cfg(3).with_trace(Arc::clone(&sink)),
    )
    .expect("job failed")
    .metrics;

    // Master track: a load span, then one span per superstep whose name
    // is the executed StepKind label, each followed by a barrier instant.
    let master = sink.master().events();
    let spans: Vec<String> = master
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(spans[0], "load");
    let step_spans: Vec<&str> = spans
        .iter()
        .skip(1)
        .map(|s| s.as_str())
        .filter(|s| *s != "checkpoint")
        .collect();
    let kinds: Vec<&str> = m.steps.iter().map(|s| s.kind.label()).collect();
    assert_eq!(step_spans, kinds, "master spans mirror the mode sequence");
    let barriers = master.iter().filter(|e| e.name == "barrier").count();
    assert_eq!(barriers as u64, m.supersteps());

    // Worker tracks: phase spans for every superstep after the first.
    for w in 0..3 {
        let evs = sink.worker(w).events();
        assert!(
            evs.iter().any(|e| matches!(e.kind, EventKind::Span { .. })),
            "worker {w} has phase spans"
        );
        assert!(
            evs.iter().any(|e| e.name.starts_with("vfs.")),
            "worker {w} has per-class VFS events"
        );
    }

    // Control track: one qt instant per switching evaluation.
    let qt = sink
        .control()
        .events()
        .iter()
        .filter(|e| e.name == "qt")
        .count();
    assert_eq!(qt, m.qt_audit.len());

    // Net track: one counter per superstep.
    let net = sink
        .net()
        .events()
        .iter()
        .filter(|e| e.name == "net.bytes")
        .count();
    assert_eq!(net as u64, m.supersteps());
}
