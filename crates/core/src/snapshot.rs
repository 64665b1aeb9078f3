//! Master-state snapshots for durable, restartable jobs.
//!
//! A durable service persists, at every checkpoint barrier, everything
//! the master needs to resume a job from that cut in a *new process*:
//! the superstep cursor, the hybrid [`Switcher`], the aggregated
//! per-superstep metrics, the recovery bookkeeping, and (when tracing)
//! the full trace-ring contents. [`MasterState::encode`] produces one
//! canonical byte string; committing it through
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
use crate::metrics::{FailureEvent, RecoveryMetrics, StepKind, SuperstepMetrics};
use crate::switch::{self, Switcher};
use hybridgraph_obs::{decode_shard_states, encode_shard_states, ShardState};
use hybridgraph_storage::{IoSnapshot, PayloadReader, PayloadWriter};
use std::io;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt master state: {what}"),
    )
}

fn kind_tag(k: StepKind) -> u8 {
    match k {
        StepKind::Push => 0,
        StepKind::PushNoSend => 1,
        StepKind::PushM => 2,
        StepKind::Pull => 3,
        StepKind::BPull => 4,
        StepKind::BPullThenPush => 5,
        StepKind::Async => 6,
        StepKind::AsyncThenPush => 7,
    }
}

fn kind_from_tag(tag: u8) -> io::Result<StepKind> {
    Ok(match tag {
        0 => StepKind::Push,
        1 => StepKind::PushNoSend,
        2 => StepKind::PushM,
        3 => StepKind::Pull,
        4 => StepKind::BPull,
        5 => StepKind::BPullThenPush,
        6 => StepKind::Async,
        7 => StepKind::AsyncThenPush,
        _ => return Err(corrupt("unknown step kind tag")),
    })
}

/// An optional field: a presence byte, then the value.
fn put_opt<T>(w: &mut PayloadWriter, x: Option<T>, put: impl FnOnce(&mut PayloadWriter, T)) {
    w.put_u8(x.is_some() as u8);
    if let Some(x) = x {
        put(w, x);
    }
}

fn get_opt<'a, T>(
    r: &mut PayloadReader<'a>,
    what: &str,
    get: impl FnOnce(&mut PayloadReader<'a>) -> io::Result<T>,
) -> io::Result<Option<T>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        _ => Err(corrupt(what)),
    }
}

fn put_io(w: &mut PayloadWriter, io: &IoSnapshot) {
    w.put_u64(io.seq_read_bytes);
    w.put_u64(io.seq_write_bytes);
    w.put_u64(io.rand_read_bytes);
    w.put_u64(io.rand_write_bytes);
    w.put_u64(io.seq_read_logical_bytes);
    w.put_u64(io.seq_write_logical_bytes);
    w.put_u64(io.rand_read_logical_bytes);
    w.put_u64(io.rand_write_logical_bytes);
    w.put_u64(io.seq_read_ops);
    w.put_u64(io.seq_write_ops);
    w.put_u64(io.rand_read_ops);
    w.put_u64(io.rand_write_ops);
}

fn get_io(r: &mut PayloadReader<'_>) -> io::Result<IoSnapshot> {
    Ok(IoSnapshot {
        seq_read_bytes: r.get_u64()?,
        seq_write_bytes: r.get_u64()?,
        rand_read_bytes: r.get_u64()?,
        rand_write_bytes: r.get_u64()?,
        seq_read_logical_bytes: r.get_u64()?,
        seq_write_logical_bytes: r.get_u64()?,
        rand_read_logical_bytes: r.get_u64()?,
        rand_write_logical_bytes: r.get_u64()?,
        seq_read_ops: r.get_u64()?,
        seq_write_ops: r.get_u64()?,
        rand_read_ops: r.get_u64()?,
        rand_write_ops: r.get_u64()?,
    })
}

fn put_step(w: &mut PayloadWriter, m: &SuperstepMetrics) {
    w.put_u64(m.superstep);
    w.put_u8(kind_tag(m.kind));
    put_io(w, &m.io);
    w.put_u64(m.sem.value_update_bytes);
    w.put_u64(m.sem.push_edge_bytes);
    w.put_u64(m.sem.bpull_edge_bytes);
    w.put_u64(m.sem.fragment_aux_bytes);
    w.put_u64(m.sem.svertex_rand_bytes);
    w.put_u64(m.sem.msg_spill_bytes);
    w.put_u64(m.net_out_bytes);
    w.put_u64(m.net_local_bytes);
    w.put_u64(m.net_raw_messages);
    w.put_u64(m.net_wire_values);
    w.put_u64(m.net_saved_messages);
    w.put_u64(m.net_requests);
    w.put_u64(m.updated);
    w.put_u64(m.responders);
    w.put_u64(m.messages_produced);
    w.put_u64(m.pending_messages);
    w.put_u64(m.cio_push_bytes);
    w.put_u64(m.cio_bpull_bytes);
    w.put_u64(m.mco);
    w.put_f64(m.q_metric);
    w.put_u64(m.memory_bytes);
    w.put_u64(m.cache_hits);
    w.put_u64(m.cache_misses);
    w.put_u64(m.cache_evictions);
    w.put_f64(m.modeled_secs);
    w.put_f64(m.modeled_io_secs);
    w.put_f64(m.modeled_net_secs);
    w.put_f64(m.wall_secs);
    w.put_f64(m.blocking_secs);
    // The async extension rides only on the async step kinds (tags 6–7),
    // so strict-BSP snapshots — including the committed WAL byte counts
    // in BENCH_service_restart.json — keep their exact pre-async layout.
    if matches!(m.kind, StepKind::Async | StepKind::AsyncThenPush) {
        w.put_u64(m.asy.pseudo_rounds);
        w.put_u64(m.asy.interior_updates);
        w.put_u64(m.asy.interior_messages);
        w.put_u64(m.asy.interior_msg_bytes);
        w.put_u64(m.asy.boundary_active);
        w.put_u64(m.asy.interior_active);
        w.put_u64(m.asy.blocks_active);
        w.put_u64(m.asy.blocks_converged);
        w.put_f64(m.max_residual);
    }
}

fn get_step(r: &mut PayloadReader<'_>) -> io::Result<SuperstepMetrics> {
    let mut m = SuperstepMetrics {
        superstep: r.get_u64()?,
        kind: kind_from_tag(r.get_u8()?)?,
        io: get_io(r)?,
        sem: crate::metrics::SemanticBytes {
            value_update_bytes: r.get_u64()?,
            push_edge_bytes: r.get_u64()?,
            bpull_edge_bytes: r.get_u64()?,
            fragment_aux_bytes: r.get_u64()?,
            svertex_rand_bytes: r.get_u64()?,
            msg_spill_bytes: r.get_u64()?,
        },
        net_out_bytes: r.get_u64()?,
        net_local_bytes: r.get_u64()?,
        net_raw_messages: r.get_u64()?,
        net_wire_values: r.get_u64()?,
        net_saved_messages: r.get_u64()?,
        net_requests: r.get_u64()?,
        updated: r.get_u64()?,
        responders: r.get_u64()?,
        messages_produced: r.get_u64()?,
        pending_messages: r.get_u64()?,
        cio_push_bytes: r.get_u64()?,
        cio_bpull_bytes: r.get_u64()?,
        mco: r.get_u64()?,
        q_metric: r.get_f64()?,
        memory_bytes: r.get_u64()?,
        cache_hits: r.get_u64()?,
        cache_misses: r.get_u64()?,
        cache_evictions: r.get_u64()?,
        modeled_secs: r.get_f64()?,
        modeled_io_secs: r.get_f64()?,
        modeled_net_secs: r.get_f64()?,
        wall_secs: r.get_f64()?,
        blocking_secs: r.get_f64()?,
        asy: crate::metrics::AsyncStepStats::default(),
        max_residual: 0.0,
    };
    if matches!(m.kind, StepKind::Async | StepKind::AsyncThenPush) {
        m.asy.pseudo_rounds = r.get_u64()?;
        m.asy.interior_updates = r.get_u64()?;
        m.asy.interior_messages = r.get_u64()?;
        m.asy.interior_msg_bytes = r.get_u64()?;
        m.asy.boundary_active = r.get_u64()?;
        m.asy.interior_active = r.get_u64()?;
        m.asy.blocks_active = r.get_u64()?;
        m.asy.blocks_converged = r.get_u64()?;
        m.max_residual = r.get_f64()?;
    }
    Ok(m)
}

fn put_recovery(w: &mut PayloadWriter, rec: &RecoveryMetrics) {
    w.put_u64(rec.checkpoints_taken);
    w.put_u64(rec.checkpoint_bytes);
    put_io(w, &rec.checkpoint_io);
    w.put_u64(rec.rollbacks);
    w.put_u64(rec.confined_recoveries);
    w.put_u64(rec.checkpoint_restores);
    w.put_u64(rec.recomputed_supersteps);
    w.put_u64(rec.replayed_supersteps);
    w.put_u64(rec.msg_log_bytes);
    w.put_f64(rec.mtbf_secs);
    w.put_u64(rec.failures.len() as u64);
    for f in &rec.failures {
        w.put_u64(f.superstep);
        w.put_u64(f.worker as u64);
        w.put_str(&f.error);
    }
}

fn get_recovery(r: &mut PayloadReader<'_>) -> io::Result<RecoveryMetrics> {
    let mut rec = RecoveryMetrics {
        checkpoints_taken: r.get_u64()?,
        checkpoint_bytes: r.get_u64()?,
        checkpoint_io: get_io(r)?,
        rollbacks: r.get_u64()?,
        confined_recoveries: r.get_u64()?,
        checkpoint_restores: r.get_u64()?,
        recomputed_supersteps: r.get_u64()?,
        replayed_supersteps: r.get_u64()?,
        msg_log_bytes: r.get_u64()?,
        mtbf_secs: r.get_f64()?,
        failures: Vec::new(),
    };
    let n = r.get_count(8 + 8 + 8)?;
    rec.failures.reserve(n);
    for _ in 0..n {
        rec.failures.push(FailureEvent {
            superstep: r.get_u64()?,
            worker: r.get_u64()? as usize,
            error: r.get_str()?.to_string(),
        });
    }
    Ok(rec)
}

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

    fn put(&self, w: &mut PayloadWriter) {
        w.put_f64(self.observed_secs);
        w.put_u64(self.failures);
    }

    fn get(r: &mut PayloadReader<'_>) -> io::Result<MtbfEstimator> {
        Ok(MtbfEstimator {
            observed_secs: r.get_f64()?,
            failures: r.get_u64()?,
        })
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
    /// Current hybrid mode.
    pub cur: Mode,
    /// Pending transition step, if a switch was decided at this barrier.
    pub pending_kind: Option<StepKind>,
    /// Recoveries consumed so far (counts against `max_recoveries`).
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
    /// The hybrid switching engine, mid-flight.
    pub switcher: Switcher,
    /// Aggregated metrics of every completed superstep up to the cut.
    pub steps: Vec<SuperstepMetrics>,
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
    pub(crate) fn fresh(workers: u32, switcher: Switcher) -> MasterState {
        MasterState {
            superstep: 0,
            prev_checkpoint: None,
            last_ckpt_worker_bytes: 0,
            epoch: 0,
            workers,
            cur: switcher.current(),
            pending_kind: None,
            recoveries_used: 0,
            cum_logical: 0,
            accum_step_secs: 0.0,
            pending_release_secs: 0.0,
            audit_seen: 0,
            switcher,
            steps: Vec::new(),
            switches: Vec::new(),
            recovery: RecoveryMetrics::default(),
            mtbf: MtbfEstimator::new(),
            trace: None,
        }
    }

    /// Canonical byte encoding (little-endian, length-prefixed strings,
    /// f64 as IEEE bits — bit-exact round-trips).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u64(self.superstep);
        put_opt(&mut w, self.prev_checkpoint, |w, p| w.put_u64(p));
        w.put_u64(self.last_ckpt_worker_bytes);
        w.put_u64(self.epoch);
        w.put_u32(self.workers);
        w.put_u8(switch::mode_tag(self.cur));
        put_opt(&mut w, self.pending_kind, |w, k| w.put_u8(kind_tag(k)));
        w.put_u64(self.recoveries_used);
        w.put_u64(self.cum_logical);
        w.put_f64(self.accum_step_secs);
        w.put_f64(self.pending_release_secs);
        w.put_u64(self.audit_seen);
        self.switcher.encode(&mut w);
        w.put_u64(self.steps.len() as u64);
        for s in &self.steps {
            put_step(&mut w, s);
        }
        w.put_u64(self.switches.len() as u64);
        for (at, from, to) in &self.switches {
            w.put_u64(*at);
            w.put_u8(switch::mode_tag(*from));
            w.put_u8(switch::mode_tag(*to));
        }
        put_recovery(&mut w, &self.recovery);
        self.mtbf.put(&mut w);
        put_opt(&mut w, self.trace.as_ref(), |w, states| {
            w.put_bytes(&encode_shard_states(states))
        });
        w.into_bytes()
    }

    /// Decodes a state produced by [`MasterState::encode`].
    pub fn decode(bytes: &[u8]) -> io::Result<MasterState> {
        let mut r = PayloadReader::new(bytes);
        let superstep = r.get_u64()?;
        let prev_checkpoint = get_opt(&mut r, "prev-checkpoint flag", |r| r.get_u64())?;
        let last_ckpt_worker_bytes = r.get_u64()?;
        let epoch = r.get_u64()?;
        let workers = r.get_u32()?;
        let cur = switch::mode_from_tag(r.get_u8()?)?;
        let pending_kind = get_opt(&mut r, "pending-kind flag", |r| kind_from_tag(r.get_u8()?))?;
        let recoveries_used = r.get_u64()?;
        let cum_logical = r.get_u64()?;
        let accum_step_secs = r.get_f64()?;
        let pending_release_secs = r.get_f64()?;
        let audit_seen = r.get_u64()?;
        let switcher = Switcher::decode(&mut r)?;
        // A step is at least its superstep, kind byte and `IoSnapshot`.
        let n_steps = r.get_count(8 + 1 + 12 * 8)?;
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            steps.push(get_step(&mut r)?);
        }
        let n_switches = r.get_count(8 + 1 + 1)?;
        let mut switches = Vec::with_capacity(n_switches);
        for _ in 0..n_switches {
            switches.push((
                r.get_u64()?,
                switch::mode_from_tag(r.get_u8()?)?,
                switch::mode_from_tag(r.get_u8()?)?,
            ));
        }
        let recovery = get_recovery(&mut r)?;
        let mtbf = MtbfEstimator::get(&mut r)?;
        let trace = get_opt(&mut r, "trace flag", |r| {
            decode_shard_states(&r.get_bytes()?)
        })?;
        if !r.done() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(MasterState {
            superstep,
            prev_checkpoint,
            last_ckpt_worker_bytes,
            epoch,
            workers,
            cur,
            pending_kind,
            recoveries_used,
            cum_logical,
            accum_step_secs,
            pending_release_secs,
            audit_seen,
            switcher,
            steps,
            switches,
            recovery,
            mtbf,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SemanticBytes;

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
            cio_push_bytes: 80,
            cio_bpull_bytes: 64,
            mco: 3,
            q_metric: 0.25 * s as f64 - 0.1,
            memory_bytes: 4096,
            cache_hits: 5,
            cache_misses: 2,
            cache_evictions: 1,
            modeled_secs: 0.031 + s as f64 * 1e-4,
            modeled_io_secs: 0.02,
            modeled_net_secs: 0.004,
            wall_secs: 0.0009,
            blocking_secs: 0.0001,
            asy: crate::metrics::AsyncStepStats::default(),
            max_residual: 0.0,
        }
    }

    #[test]
    fn master_state_roundtrip_is_exact() {
        let switcher = Switcher::new(Mode::Push, 2, 0.1);
        switcher.estimate_mco(100, 60);
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
            switcher,
            steps: vec![sample_step(1), sample_step(2), sample_step(3)],
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
        let bytes = st.encode();
        let back = MasterState::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.superstep, 4);
        assert_eq!(back.prev_checkpoint, Some(2));
        assert_eq!(back.cur, Mode::BPull);
        assert!(matches!(back.pending_kind, Some(StepKind::PushNoSend)));
        assert_eq!(back.steps.len(), 3);
        assert_eq!(
            back.steps[2].q_metric.to_bits(),
            st.steps[2].q_metric.to_bits()
        );
        assert_eq!(back.switches, vec![(3, Mode::Push, Mode::BPull)]);
        assert_eq!(back.recovery.failures.len(), 1);
        assert_eq!(back.mtbf, st.mtbf);
    }

    #[test]
    fn async_step_roundtrips_and_stays_conditional() {
        // A strict step encodes exactly as before; an async step appends
        // its stats block (8 u64 + 1 f64 = 72 bytes).
        let strict = sample_step(1);
        let mut w = PayloadWriter::new();
        put_step(&mut w, &strict);
        let strict_len = w.into_bytes().len();

        let mut asy_step = sample_step(2);
        asy_step.kind = StepKind::Async;
        asy_step.asy = crate::metrics::AsyncStepStats {
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
        let mut w = PayloadWriter::new();
        put_step(&mut w, &asy_step);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), strict_len + 72);

        let mut r = PayloadReader::new(&bytes);
        let back = get_step(&mut r).unwrap();
        assert!(r.done());
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
            switcher: Switcher::new(Mode::Async, 2, 0.1),
            steps: vec![asy_step, fused],
            switches: vec![(2, Mode::Async, Mode::Push)],
            recovery: RecoveryMetrics::default(),
            mtbf: MtbfEstimator::new(),
            trace: None,
        };
        let enc = st.encode();
        let dec = MasterState::decode(&enc).unwrap();
        assert_eq!(dec.encode(), enc);
        assert_eq!(dec.cur, Mode::Async);
        assert!(matches!(dec.pending_kind, Some(StepKind::AsyncThenPush)));
        assert_eq!(dec.steps[0].asy.pseudo_rounds, 4);
    }

    #[test]
    fn master_state_rejects_corruption() {
        let st = MasterState {
            superstep: 0,
            prev_checkpoint: None,
            last_ckpt_worker_bytes: 1,
            epoch: 0,
            workers: 1,
            cur: Mode::Push,
            pending_kind: None,
            recoveries_used: 0,
            cum_logical: 0,
            accum_step_secs: 0.0,
            pending_release_secs: 0.0,
            audit_seen: 0,
            switcher: Switcher::new(Mode::Push, 2, 0.1),
            steps: Vec::new(),
            switches: Vec::new(),
            recovery: RecoveryMetrics::default(),
            mtbf: MtbfEstimator::new(),
            trace: None,
        };
        let mut bytes = st.encode();
        assert!(MasterState::decode(&bytes[..bytes.len() - 1]).is_err());
        bytes.push(0);
        assert!(MasterState::decode(&bytes).is_err());
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
