//! Master-state snapshots for durable, restartable jobs.
//!
//! A durable service persists, at every checkpoint barrier, everything
//! the master needs to resume a job from that cut in a *new process*:
//! the superstep cursor, the mode with its Δt cursor, `R_co` and `Q_t`
//! audit, the aggregated per-superstep metrics, the recovery bookkeeping,
//! and (when tracing) the full trace-ring contents. Its declared layout
//! below encodes it to one canonical byte string; committing that through
//! [`BarrierSink`](crate::config::BarrierSink) *after* the workers'
//! checkpoint files are on disk gives the write-ahead ordering that makes
//! a crash at any instant recoverable: either the commit record exists
//! (resume from this cut — the worker files it points at are complete) or
//! it does not (resume from the previous committed cut, whose files a
//! retention-2 pruning schedule keeps alive).
//!
//! The module also houses the fault-aware checkpoint-spacing math: a
//! [`MtbfEstimator`] fed by observed kills, and
//! [`adaptive_spacing_secs`] — Young's approximation
//! `sqrt(2 · write_cost · MTBF)` capped by the factor-based spacing the
//! plain adaptive policy uses.

use crate::config::Mode;
use crate::metrics::{
    AsyncStepStats, FailureEvent, RecoveryMetrics, SemanticBytes, StepKind, SuperstepMetrics,
    WorkerCost,
};
use crate::switch::AuditLayout;
use hybridgraph_obs::{QtAudit, ShardState};
use hybridgraph_storage::frame::Framed;
use hybridgraph_storage::{record, tagged};

// The master state's persisted layout, one declaration per record.

tagged! { Mode { 0 => Push, 1 => PushM, 2 => Pull, 3 => BPull, 4 => Hybrid, 5 => Async } }
tagged! { StepKind {
    0 => Push, 1 => PushNoSend, 2 => PushM, 3 => Pull, 4 => BPull, 5 => BPullThenPush,
    6 => Async, 7 => AsyncThenPush,
} }
record! { SemanticBytes {
    value_update_bytes, push_edge_bytes, bpull_edge_bytes, fragment_aux_bytes,
    svertex_rand_bytes, msg_spill_bytes,
} }
record! { AsyncStepStats {
    pseudo_rounds, interior_updates, interior_messages, interior_msg_bytes, boundary_active,
    interior_active, blocks_active, blocks_converged,
} }

record! { WorkerCost {
    seq_read_bytes, seq_write_bytes, rand_read_bytes, rand_write_bytes, net_bytes, messages,
    updated,
} }
record! { SuperstepMetrics {
    superstep, kind, io, sem, net_out_bytes, net_local_bytes, net_raw_messages, net_wire_values,
    net_saved_messages, net_requests, updated, responders, messages_produced, pending_messages, qt,
    q_metric, memory_bytes, cache_hits, cache_misses, cache_evictions, modeled_secs,
    modeled_net_secs, wall_secs, blocking_secs, asy, max_residual,
} }

record! { FailureEvent { superstep, worker, error } }
record! { RecoveryMetrics {
    checkpoints_taken, checkpoint_bytes, checkpoint_io, rollbacks, confined_recoveries,
    checkpoint_restores, recomputed_supersteps, replayed_supersteps, msg_log_bytes, mtbf_secs,
    failures,
} }
record! { MtbfEstimator { observed_secs, failures } }
record! { MasterState {
    superstep, prev_checkpoint, last_ckpt_worker_bytes, epoch, workers, cur, pending_kind,
    recoveries_used, cum_logical, accum_step_secs, pending_release_secs, audit_seen, last_decision,
    rco, audit via Vec<AuditLayout>, steps, worker_costs, switches, recovery, mtbf,
    trace via Option<Framed>,
} }

/// Modeled mean time between failures, fed by observed kills.
///
/// `advance` accumulates each superstep's modeled seconds; `observe`
/// records one failure (a worker kill surfacing at a barrier, or — on
/// resume — the master kill that halted the previous incarnation).
/// [`MtbfEstimator::mtbf`] is observed time over observed failures, or
/// `None` before the first failure (no evidence — the policy then falls
/// back to the plain factor-based spacing).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MtbfEstimator {
    observed_secs: f64,
    failures: u64,
}

impl MtbfEstimator {
    /// A fresh estimator: nothing observed.
    pub fn new() -> MtbfEstimator {
        MtbfEstimator::default()
    }

    /// Accounts `modeled_secs` of failure-free progress.
    pub fn advance(&mut self, modeled_secs: f64) {
        if modeled_secs.is_finite() && modeled_secs > 0.0 {
            self.observed_secs += modeled_secs;
        }
    }

    /// Records one observed failure.
    pub fn observe(&mut self) {
        self.failures += 1;
    }

    /// Mean modeled seconds between failures, `None` before the first.
    pub fn mtbf(&self) -> Option<f64> {
        if self.failures == 0 {
            return None;
        }
        Some((self.observed_secs / self.failures as f64).max(f64::MIN_POSITIVE))
    }

    /// Failures observed so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

/// Checkpoint spacing in modeled seconds: how much failure-free compute
/// should accumulate before the next checkpoint is worth cutting.
///
/// Without failure evidence (or with `fault_aware` off) this is the plain
/// adaptive rule — `factor` times the modeled cost of writing one
/// checkpoint. With an MTBF estimate it is capped by Young's
/// approximation `sqrt(2 · write_secs · MTBF)`: the higher the observed
/// kill rate (the lower the MTBF), the tighter the spacing, so a chaotic
/// environment checkpoints more often and loses less work per kill.
pub fn adaptive_spacing_secs(
    factor: f64,
    write_secs: f64,
    mtbf: Option<f64>,
    fault_aware: bool,
) -> f64 {
    let base = factor * write_secs;
    match mtbf {
        Some(m) if fault_aware && m.is_finite() && m > 0.0 => {
            base.min((2.0 * write_secs * m).sqrt())
        }
        _ => base,
    }
}

/// The master's cursor: everything it needs to continue a job, in this
/// process or — encoded at a checkpoint cut, committed through
/// [`BarrierSink`](crate::config::BarrierSink) and handed back via
/// [`ResumeState`](crate::config::ResumeState) — in a fresh one.
#[derive(Clone, Debug)]
pub struct MasterState {
    /// The last completed superstep; in a committed state, the
    /// checkpointed superstep it resumes from (0 = baseline).
    pub superstep: u64,
    /// The previous committed cut, still on disk under retention 2 (the
    /// next checkpoint prunes it).
    pub prev_checkpoint: Option<u64>,
    /// Largest per-worker checkpoint size at this cut (the adaptive
    /// policy's write-cost input).
    pub last_ckpt_worker_bytes: u64,
    /// Fabric epoch at the cut; resume rolls endpoints onto it.
    pub epoch: u64,
    /// Worker count the state was captured for (sanity-checked on resume).
    pub workers: u32,
    /// The mode the job runs in: its own, or the leg a switching job is
    /// on.
    pub cur: Mode,
    /// Pending transition step, if a switch was decided at this barrier.
    pub pending_kind: Option<StepKind>,
    /// Recoveries consumed so far (counts against the master's `MAX_RECOVERIES`).
    pub recoveries_used: u64,
    /// Cumulative logical bytes (budget enforcement cursor).
    pub cum_logical: u64,
    /// Modeled seconds accumulated toward the next adaptive checkpoint.
    pub accum_step_secs: f64,
    /// Pacer seconds the master still owes for the unit it held when the
    /// state was cut (the load grant at the baseline cut, 0 at step cuts).
    /// Meaningful only in a committed state.
    pub pending_release_secs: f64,
    /// Audit records already exported to the trace.
    pub audit_seen: u64,
    /// The Δt cursor: the superstep of the last switching evaluation
    /// that was not too early.
    pub last_decision: u64,
    /// Last concatenating/combining ratio `R_co` observed in a b-pull
    /// superstep, used to estimate `M_co` while running push.
    pub rco: Option<f64>,
    /// One [`QtAudit`] per switching evaluation, in superstep order.
    pub audit: Vec<QtAudit>,
    /// Aggregated metrics of every completed superstep up to the cut.
    pub steps: Vec<SuperstepMetrics>,
    /// Each completed superstep's per-worker costs, in step then worker
    /// order (see [`JobMetrics::worker_costs`](crate::JobMetrics::worker_costs)).
    pub worker_costs: Vec<WorkerCost>,
    /// Mode switches up to the cut.
    pub switches: Vec<(u64, Mode, Mode)>,
    /// Recovery bookkeeping up to the cut.
    pub recovery: RecoveryMetrics,
    /// Failure-rate evidence feeding the fault-aware spacing.
    pub mtbf: MtbfEstimator,
    /// Full trace-ring contents at the cut (present iff the job traces).
    /// Meaningful only in a committed state.
    pub trace: Option<Vec<ShardState>>,
}

impl MasterState {
    /// The cursor of a job about to load: nothing executed, nothing
    /// failed, no checkpoint taken.
    pub(crate) fn fresh(workers: u32) -> MasterState {
        MasterState {
            superstep: 0,
            prev_checkpoint: None,
            last_ckpt_worker_bytes: 0,
            epoch: 0,
            workers,
            cur: Mode::Push,
            pending_kind: None,
            recoveries_used: 0,
            cum_logical: 0,
            accum_step_secs: 0.0,
            pending_release_secs: 0.0,
            audit_seen: 0,
            last_decision: 0,
            rco: None,
            audit: Vec::new(),
            steps: Vec::new(),
            worker_costs: Vec::new(),
            switches: Vec::new(),
            recovery: RecoveryMetrics::default(),
            mtbf: MtbfEstimator::new(),
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_obs::QtInputs;
    use hybridgraph_storage::frame::{decode, encode};
    use hybridgraph_storage::IoSnapshot;

    fn sample_step(s: u64) -> SuperstepMetrics {
        SuperstepMetrics {
            superstep: s,
            kind: StepKind::BPull,
            io: IoSnapshot {
                seq_read_bytes: 100 + s,
                seq_write_bytes: 7,
                rand_read_bytes: 3,
                rand_write_bytes: 0,
                seq_read_logical_bytes: 120 + s,
                seq_write_logical_bytes: 7,
                rand_read_logical_bytes: 3,
                rand_write_logical_bytes: 0,
                seq_read_ops: 4,
                seq_write_ops: 1,
                rand_read_ops: 2,
                rand_write_ops: 0,
            },
            sem: SemanticBytes {
                value_update_bytes: 11,
                push_edge_bytes: 0,
                bpull_edge_bytes: 40,
                fragment_aux_bytes: 8,
                svertex_rand_bytes: 5,
                msg_spill_bytes: 0,
            },
            net_out_bytes: 64,
            net_local_bytes: 16,
            net_raw_messages: 9,
            net_wire_values: 6,
            net_saved_messages: 3,
            net_requests: 2,
            updated: 12,
            responders: 8,
            messages_produced: 9,
            pending_messages: 4,
            qt: QtInputs {
                mco: 3,
                bytes_per_saved: 12,
                io_mdisk: 0,
                io_vrr: 5,
                io_e_push: 69,
                io_e_bpull: 40,
                io_f: 8,
            },
            q_metric: 0.25 * s as f64 - 0.1,
            memory_bytes: 4096,
            cache_hits: 5,
            cache_misses: 2,
            cache_evictions: 1,
            modeled_secs: 0.031 + s as f64 * 1e-4,
            modeled_net_secs: 0.004,
            wall_secs: 0.0009,
            blocking_secs: 0.0001,
            asy: AsyncStepStats::default(),
            max_residual: 0.0,
        }
    }

    #[test]
    fn master_state_roundtrip_is_exact() {
        let mut mtbf = MtbfEstimator::new();
        mtbf.advance(1.5);
        mtbf.observe();
        let st = MasterState {
            superstep: 4,
            prev_checkpoint: Some(2),
            last_ckpt_worker_bytes: 8192,
            epoch: 1,
            workers: 3,
            cur: Mode::BPull,
            pending_kind: Some(StepKind::PushNoSend),
            recoveries_used: 1,
            cum_logical: 123_456,
            accum_step_secs: 0.125,
            pending_release_secs: 0.0625,
            audit_seen: 2,
            last_decision: 2,
            rco: Some(0.6),
            audit: Vec::new(),
            steps: vec![sample_step(1), sample_step(2), sample_step(3)],
            worker_costs: (0..9)
                .map(|i| WorkerCost {
                    seq_read_bytes: 33 + i,
                    seq_write_bytes: 2,
                    rand_read_bytes: i % 3,
                    rand_write_bytes: 0,
                    net_bytes: 21 * i,
                    messages: 3 + i,
                    updated: 4,
                })
                .collect(),
            switches: vec![(3, Mode::Push, Mode::BPull)],
            recovery: RecoveryMetrics {
                checkpoints_taken: 2,
                checkpoint_bytes: 2048,
                rollbacks: 1,
                checkpoint_restores: 3,
                recomputed_supersteps: 2,
                mtbf_secs: 1.5,
                failures: vec![FailureEvent {
                    superstep: 3,
                    worker: 1,
                    error: "injected".into(),
                }],
                ..RecoveryMetrics::default()
            },
            mtbf,
            trace: None,
        };
        let bytes = encode(&st);
        let back: MasterState = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes);
        assert_eq!(back.superstep, 4);
        assert_eq!(back.prev_checkpoint, Some(2));
        assert_eq!(back.cur, Mode::BPull);
        assert!(matches!(back.pending_kind, Some(StepKind::PushNoSend)));
        assert_eq!(back.steps.len(), 3);
        assert_eq!(
            back.steps[2].q_metric.to_bits(),
            st.steps[2].q_metric.to_bits()
        );
        assert_eq!(back.steps[2].qt, st.steps[2].qt);
        assert_eq!(back.worker_costs, st.worker_costs);
        assert_eq!(back.switches, vec![(3, Mode::Push, Mode::BPull)]);
        assert_eq!((back.last_decision, back.rco), (2, Some(0.6)));
        assert_eq!(back.recovery.failures.len(), 1);
        assert_eq!(back.mtbf, st.mtbf);
    }

    #[test]
    fn every_step_kind_roundtrips_its_async_stats_and_residual() {
        // Every kind carries the async block and the residual: a strict
        // step resumed from a committed cut reports its residual too.
        let mut strict = sample_step(1);
        strict.max_residual = 0.068;
        let strict_bytes = encode(&strict);
        let back: SuperstepMetrics = decode(&strict_bytes).unwrap();
        assert_eq!(back.max_residual.to_bits(), strict.max_residual.to_bits());

        let mut asy_step = sample_step(2);
        asy_step.kind = StepKind::Async;
        asy_step.asy = AsyncStepStats {
            pseudo_rounds: 4,
            interior_updates: 30,
            interior_messages: 44,
            interior_msg_bytes: 352,
            boundary_active: 3,
            interior_active: 9,
            blocks_active: 2,
            blocks_converged: 2,
        };
        asy_step.max_residual = 1.25e-3;
        let bytes = encode(&asy_step);
        assert_eq!(bytes.len(), strict_bytes.len());

        let back: SuperstepMetrics = decode(&bytes).unwrap();
        assert_eq!(back.kind, StepKind::Async);
        assert_eq!(back.asy, asy_step.asy);
        assert_eq!(back.max_residual.to_bits(), asy_step.max_residual.to_bits());

        // AsyncThenPush carries the block too, and survives MasterState.
        let mut fused = asy_step.clone();
        fused.kind = StepKind::AsyncThenPush;
        let st = MasterState {
            superstep: 2,
            prev_checkpoint: None,
            last_ckpt_worker_bytes: 1,
            epoch: 0,
            workers: 2,
            cur: Mode::Async,
            pending_kind: Some(StepKind::AsyncThenPush),
            recoveries_used: 0,
            cum_logical: 0,
            accum_step_secs: 0.0,
            pending_release_secs: 0.0,
            audit_seen: 0,
            last_decision: 0,
            rco: None,
            audit: Vec::new(),
            steps: vec![asy_step, fused],
            worker_costs: Vec::new(),
            switches: vec![(2, Mode::Async, Mode::Push)],
            recovery: RecoveryMetrics::default(),
            mtbf: MtbfEstimator::new(),
            trace: None,
        };
        let enc = encode(&st);
        let dec: MasterState = decode(&enc).unwrap();
        assert_eq!(encode(&dec), enc);
        assert_eq!(dec.cur, Mode::Async);
        assert!(matches!(dec.pending_kind, Some(StepKind::AsyncThenPush)));
        assert_eq!(dec.steps[0].asy.pseudo_rounds, 4);
    }

    #[test]
    fn mtbf_estimator_tracks_rate() {
        let mut e = MtbfEstimator::new();
        assert_eq!(e.mtbf(), None);
        e.advance(2.0);
        e.advance(4.0);
        assert_eq!(e.mtbf(), None);
        e.observe();
        assert_eq!(e.mtbf(), Some(6.0));
        e.advance(6.0);
        e.observe();
        assert_eq!(e.mtbf(), Some(6.0));
        // Negative / NaN progress is ignored.
        e.advance(-5.0);
        e.advance(f64::NAN);
        assert_eq!(e.observed_secs, 12.0);
    }

    #[test]
    fn spacing_uses_young_only_with_evidence_and_flag() {
        // No MTBF: plain factor rule, regardless of the flag.
        assert_eq!(adaptive_spacing_secs(10.0, 0.5, None, true), 5.0);
        assert_eq!(adaptive_spacing_secs(10.0, 0.5, None, false), 5.0);
        // Evidence but flag off: still the factor rule.
        assert_eq!(adaptive_spacing_secs(10.0, 0.5, Some(1.0), false), 5.0);
        // Flag on: Young's sqrt(2 * w * mtbf), capped by the factor rule.
        let y = adaptive_spacing_secs(10.0, 0.5, Some(1.0), true);
        assert!((y - 1.0).abs() < 1e-12, "sqrt(2*0.5*1.0) = 1.0, got {y}");
        // A long MTBF never *loosens* spacing beyond the factor rule.
        assert_eq!(adaptive_spacing_secs(10.0, 0.5, Some(1e9), true), 5.0);
        // Shorter MTBF -> tighter spacing.
        let a = adaptive_spacing_secs(10.0, 0.5, Some(4.0), true);
        let b = adaptive_spacing_secs(10.0, 0.5, Some(1.0), true);
        assert!(b < a && a < 5.0);
    }
}
