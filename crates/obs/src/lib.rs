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
//! * [`validate_json`] — a pure-Rust JSON syntax check for CI's
//!   `trace-validate` job and the exporters' tests.
//!
//! This crate sits at the bottom of the workspace dependency graph: every
//! other crate may depend on it, it depends on nothing.
//!
//! The engine installs a sink per job (`JobConfig::with_trace`) and keeps
//! three rules, in priority order:
//!
//! 1. **Tracing does not perturb the experiment.** Nothing in the cost
//!    model, the switch or the executors reads the sink, and a full ring
//!    drops (and counts) instead of blocking. `tests/observability.rs`
//!    checks that every per-superstep byte count, `Q_t` and output `f64`
//!    is bit-identical with tracing on and off.
//! 2. **Timestamps are modeled time**, so two same-seed runs export
//!    byte-identical Chrome traces, also on a lossy wire: logical traffic
//!    is counted once at first send, and the only fault evidence is one
//!    `arq.faults` instant per superstep carrying the fault plan's fired
//!    counters (a pure function of link, sequence number and attempt).
//!    Timing-driven quantities (retransmitted bytes, acks, duplicate
//!    drops, wall seconds) go only to the Prometheus gauges.
//! 3. **The audit mirrors the decisions taken.** Each switching
//!    evaluation appends one [`QtAudit`] and, when tracing, a `qt`
//!    instant; a rollback truncates the audit with the other logs, so
//!    replayed supersteps never log twice and `Switch` rows match the
//!    job's switches one to one.
//!
//! Chrome trace tracks (`pid 0`, one `tid` each): workers `0..T` (phase
//! spans such as `compute+pushRes` or `Pull-Respond+update`, plus
//! `vfs.<class>` instants with byte/op deltas), then `master` (`load`,
//! one span per superstep named by its mode, `checkpoint`, `barrier`,
//! `recovery.*`), `control` (`qt`, `switch`) and `net` (`net.bytes`
//! counters per superstep).

pub mod audit;
pub mod chrome;
pub mod event;
mod json;
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
