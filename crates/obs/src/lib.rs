//! hybridgraph-obs — deterministic observability for the HybridGraph engine.
//!
//! A zero-dependency crate (std only, no workspace deps) providing:
//!
//! * [`TraceSink`] / [`TraceShard`] — a sharded ring-buffer event collector
//!   with one single-writer shard per simulated worker plus master /
//!   control / net tracks. Timestamps are **modeled microseconds** derived
//!   from `DeviceProfile` byte accounting upstream, so traces are
//!   bit-reproducible across runs and machines.
//! * [`export_chrome_trace`] — Chrome Trace Event JSON, loadable in
//!   Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! * [`export_prometheus`] — Prometheus text exposition built from the same
//!   events (plus caller-supplied gauges for non-deterministic quantities
//!   like wall time, which are deliberately kept out of the Chrome trace).
//! * [`QtAudit`] / [`render_table`] — the Eq. 11 switch-decision audit log
//!   behind `repro --explain-switch`.
//! * [`json`] — a pure-Rust JSON reader: [`validate_json`] for CI's
//!   `trace-validate` job, [`json::parse`] for the perf gate.
//!
//! This crate sits at the bottom of the workspace dependency graph: every
//! other crate may depend on it, it depends on nothing.

pub mod audit;
pub mod chrome;
pub mod event;
pub mod json;
pub mod prom;
pub mod sink;

pub use audit::{render_table, QtAsync, QtAudit, QtInputs, QtTerms, QtTiers, QtVerdict};
pub use chrome::{export_chrome_trace, export_chrome_trace_jobs, json_escape};
pub use event::{ArgValue, EventKind, TraceEvent};
pub use json::validate_json;
pub use prom::{export_prometheus, export_prometheus_gauges, ExtraMetric};
pub use sink::{
    maybe_instant, maybe_span, ShardState, TraceShard, TraceSink, DEFAULT_SHARD_CAPACITY,
};

/// Convert modeled seconds to the trace's microsecond unit, rounding to
/// nearest. Saturates at `u64::MAX` (never reached for sane inputs).
pub fn secs_to_us(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    let us = secs * 1e6;
    if us >= u64::MAX as f64 {
        u64::MAX
    } else {
        us.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_us_rounds_and_clamps() {
        assert_eq!(secs_to_us(0.0), 0);
        assert_eq!(secs_to_us(-1.0), 0);
        assert_eq!(secs_to_us(1.0), 1_000_000);
        assert_eq!(secs_to_us(0.0000015), 2);
        assert_eq!(secs_to_us(f64::NAN), 0);
        assert_eq!(secs_to_us(f64::INFINITY), 0);
    }
}
