//! The master as a value: one [`MasterState`] cursor plus the job's
//! constants, and every decision the master takes as a method that reads
//! them and the workers' reports — no thread, no channel. The driver in
//! [`super::drive`] turns the decisions into command rounds.
//!
//! **Recovery plans.** [`Master::plan_recovery`] turns one superstep
//! `t`'s deaths into a [`RecoveryPlan`]. *Global*: every worker drains
//! stale packets and restores checkpoint `ck`, the cursor rewinds to the
//! [`Cut`] taken there, and the job resumes at `ck + 1`. *Confined*
//! (Pregel §4.2), when one worker died in a job that logs its messages:
//!
//! 1. the dead worker restores `ck`; the survivors stay at `t` and undo
//!    their partly applied step `t` in memory (`crate::worker::StepUndo`);
//! 2. for each superstep in `ck+1 .. t`, the survivors re-serve the dead
//!    worker the packets they logged (control frames, counted only in
//!    `replayed_bytes`) while it re-executes the step in *suppress mode*:
//!    its remote sends are dropped unaccounted, since the survivors
//!    processed them the first time; loopback still delivers;
//! 3. everyone re-runs `t`.
//!
//! Pull's LRU cache, pushM's online combining and async's pseudo-rounds
//! are not undoable, so those modes always roll back globally. Both plans
//! are bit-identical: a confined recovery on a lossy wire still matches
//! the fault-free run's values and byte counts exactly.

use super::control::Failure;
use super::JobError;
use crate::config::{CheckpointPolicy, JobConfig, Mode};
use crate::fault::MasterKillPoint;
use crate::metrics::{FailureEvent, StepKind, SuperstepMetrics};
use crate::snapshot::{adaptive_spacing_secs, MasterState};
use crate::switch::{self, async_gain, q_terms, AsyncCostInputs};
use hybridgraph_obs::{QtAudit, QtTiers, QtVerdict};

/// How the master recovers from the deaths of one superstep, when it can.
#[derive(Debug, PartialEq)]
pub(super) enum RecoveryPlan {
    /// Pregel-style: only `worker` reloads checkpoint `ck` and re-executes
    /// `replay` from the survivors' logs; survivors undo one superstep.
    Confined {
        worker: usize,
        ck: u64,
        replay: Vec<(u64, StepKind)>,
    },
    /// Every worker rolls back to checkpoint `ck`.
    Global { ck: u64 },
}

/// What the barrier after a completed superstep decided.
#[derive(Debug, PartialEq)]
pub(super) enum AfterStep {
    /// The job converged (or hit its tolerance): collect.
    Terminate,
    Continue {
        /// The job switched `from → to` for the next superstep.
        switched: Option<(Mode, Mode)>,
        /// The checkpoint policy wants a cut at this barrier.
        checkpoint: bool,
    },
}

/// The in-memory half of a checkpoint: what a global rollback rewinds the
/// cursor to. Taken in [`Master::take_cut`], applied in
/// [`Master::rewind`], nowhere else.
///
/// *Rewound* — because re-execution regenerates them — are the superstep,
/// the current mode, the pending transition kind, the Δt cursor, `R_co`,
/// and the three logs `steps`, `switches` and `audit`, which only ever
/// grow past a cut and so rewind by truncation (three lengths, no `Vec`
/// clone). `accum_step_secs` is zero at every cut and returns to zero;
/// `audit_seen` is clamped to the rewound audit. *Kept* — they describe
/// the job's history, not its position — are the recovery counters and
/// failure list, `recoveries_used`, the budget cursor `cum_logical`, the
/// fabric epoch, the MTBF evidence and the checkpoint bookkeeping
/// (`prev_checkpoint`, `last_ckpt_worker_bytes`).
struct Cut {
    at: u64,
    cur: Mode,
    pending_kind: Option<StepKind>,
    last_decision: u64,
    rco: Option<f64>,
    steps_len: usize,
    switches_len: usize,
    audit_len: usize,
}

/// The step a job in steady mode `cur` runs when no transition is pending.
fn steady_kind(cur: Mode) -> StepKind {
    match cur {
        Mode::Push => StepKind::Push,
        Mode::PushM => StepKind::PushM,
        Mode::Pull => StepKind::Pull,
        Mode::BPull => StepKind::BPull,
        Mode::Async => StepKind::Async,
        Mode::Hybrid => unreachable!("validated: the cursor's mode is a concrete engine"),
    }
}

/// True if a job of mode `job` can be in mode `m` at a barrier: its own
/// mode, or one of the legs a switching job moves between.
pub(super) fn runs_in(job: Mode, m: Mode) -> bool {
    match job {
        Mode::Hybrid => matches!(m, Mode::Push | Mode::BPull),
        Mode::Async => matches!(m, Mode::Push | Mode::BPull | Mode::Async),
        _ => m == job,
    }
}

/// The fused superstep that reconciles the two legs' message state when
/// a job switches `from → to`: `Some(None)` when none is needed
/// (push → async: push already delivered to every destination, async's
/// next sweep just drains the inbox), `None` for a move
/// [`switch::decide`] never makes.
pub(super) fn transition_kind(from: Mode, to: Mode) -> Option<Option<StepKind>> {
    match (from, to) {
        (Mode::BPull, Mode::Push | Mode::Async) => Some(Some(StepKind::BPullThenPush)),
        (Mode::Push | Mode::Async, Mode::BPull) => Some(Some(StepKind::PushNoSend)),
        (Mode::Async, Mode::Push) => Some(Some(StepKind::AsyncThenPush)),
        (Mode::Push, Mode::Async) => Some(None),
        _ => None,
    }
}

/// Worker failures a job recovers from before it fails: a guard against
/// endlessly re-failing hardware (an injected fault fires once anyway).
const MAX_RECOVERIES: u64 = 8;

/// The master: job constants plus the cursor.
pub(super) struct Master<'a> {
    cfg: &'a JobConfig,
    /// The program's superstep budget capped by the configuration's.
    max_steps: u64,
    /// The program's residual tolerance, if it terminates on one.
    tolerance: Option<f64>,
    /// The cursor — exactly what a durable barrier commits.
    pub st: MasterState,
    /// The last checkpoint; `None` until the baseline (or a resume).
    cut: Option<Cut>,
}

impl<'a> Master<'a> {
    pub fn new(cfg: &'a JobConfig, max_steps: u64, tolerance: Option<f64>) -> Self {
        Master {
            cfg,
            max_steps,
            tolerance,
            st: MasterState::fresh(cfg.workers as u32),
            cut: None,
        }
    }

    /// Load → Superstep: fixes the starting mode and the budget cursor.
    pub fn loaded(&mut self, initial: Mode, load_logical_bytes: u64) {
        self.st.cur = initial;
        self.st.cum_logical = load_logical_bytes;
    }

    /// Load → Resume: the committed cursor replaces the fresh one, and
    /// its superstep is the cut every worker is about to be rolled onto.
    /// The master kill that necessitated the resume is one observed
    /// failure for the fault-aware spacing.
    pub fn resume(&mut self, committed: MasterState) {
        self.st = committed;
        self.st.mtbf.observe();
        self.take_cut();
    }

    pub fn more_steps(&self) -> bool {
        self.st.superstep < self.max_steps
    }

    /// The checkpointed superstep a failure now would roll back to.
    fn cut_at(&self) -> Option<u64> {
        self.cut.as_ref().map(|c| c.at)
    }

    /// `Err(Halted)` if the fault plan kills the master at `point` (each
    /// point fires at most once, simulating the service process dying).
    pub fn killed(&self, point: MasterKillPoint) -> Result<(), JobError> {
        let plan = self.cfg.fault_plan.as_ref();
        if plan.is_some_and(|p| p.master_kill_at(point)) {
            return Err(JobError::Halted { point });
        }
        Ok(())
    }

    /// Per-job budget enforcement at the cursor's barrier: cumulative
    /// logical bytes (the device-independent measure, so codecs don't
    /// mask overuse) and the last superstep's summed memory high-water
    /// mark (nothing after loading).
    pub fn check_budgets(&self) -> Result<(), JobError> {
        let memory = self.st.steps.last().map_or(0, |m| m.memory_bytes);
        for (resource, used, budget) in [
            (
                "logical_io",
                self.st.cum_logical,
                self.cfg.logical_io_budget,
            ),
            ("memory", memory, self.cfg.memory_budget),
        ] {
            if let Some(budget) = budget.filter(|b| used > *b) {
                return Err(JobError::BudgetExceeded {
                    superstep: self.st.superstep,
                    resource,
                    used,
                    budget,
                });
            }
        }
        Ok(())
    }

    /// The kind the next superstep runs: a pending transition (or a
    /// confined recovery's re-run) first, the current mode's own step
    /// otherwise.
    pub fn next_kind(&mut self) -> StepKind {
        let steady = steady_kind(self.st.cur);
        self.st.pending_kind.take().unwrap_or(steady)
    }

    pub fn note_failure(&mut self, superstep: u64, f: &Failure) {
        self.st.recovery.failures.push(FailureEvent {
            superstep,
            worker: f.worker,
            error: f.error.clone(),
        });
        self.st.mtbf.observe();
    }

    /// True if the master may respawn `f`'s worker once `earlier` other
    /// respawns of the same round are paid for: checkpointing is on, the
    /// endpoint came back, and [`MAX_RECOVERIES`] is not spent.
    pub fn respawnable(&self, f: &Failure, earlier: u64) -> bool {
        self.cfg.checkpoint != CheckpointPolicy::Never
            && f.endpoint.is_some()
            && self.st.recoveries_used + earlier < MAX_RECOVERIES
    }

    /// The recovery plan for the (non-empty) `failures` of superstep `s`,
    /// or the [`JobError::WorkerFailed`] that ends the job.
    ///
    /// Confined needs a *single* death in a job that
    /// [confines recovery](JobConfig::confines_recovery), a known step
    /// kind for every superstep to replay and — asked last, it reads the
    /// survivors' disks — `logs_ok(worker, ck)`. Anything else is a
    /// global rollback. Fatal are a job without a cut to return to
    /// (policy `Never`) and the first worker that cannot be respawned.
    pub fn plan_recovery(
        &self,
        s: u64,
        failures: &[Failure],
        logs_ok: impl FnOnce(usize, u64) -> bool,
    ) -> Result<RecoveryPlan, JobError> {
        let fatal = |f: &Failure| JobError::WorkerFailed {
            worker: f.worker,
            superstep: s,
            error: f.error.clone(),
        };
        let ck = match self.cut_at() {
            Some(ck) if self.cfg.checkpoint != CheckpointPolicy::Never => ck,
            _ => return Err(fatal(&failures[0])),
        };
        if let ([f], true) = (failures, self.cfg.confines_recovery()) {
            let kind_of = |r: u64| {
                let step = self.st.steps.iter().find(|m| m.superstep == r);
                step.map(|m| (r, m.kind))
            };
            let replay: Option<Vec<_>> = ((ck + 1)..s).map(kind_of).collect();
            let replay = replay.filter(|_| self.respawnable(f, 0) && logs_ok(f.worker, ck));
            if let Some(replay) = replay {
                return Ok(RecoveryPlan::Confined {
                    worker: f.worker,
                    ck,
                    replay,
                });
            }
        }
        let lost = (0u64..)
            .zip(failures)
            .find(|(k, f)| !self.respawnable(f, *k));
        lost.map_or(Ok(RecoveryPlan::Global { ck }), |(_, f)| Err(fatal(f)))
    }

    /// Recover(Confined) → Superstep. The master keeps its cursor:
    /// completed supersteps stay aggregated, the mode and audit are
    /// untouched, and the failed superstep `s` re-runs under the same
    /// `kind`.
    pub fn confined_done(&mut self, s: u64, kind: StepKind, ck: u64) {
        self.st.pending_kind = Some(kind);
        let rec = &mut self.st.recovery;
        rec.confined_recoveries += 1;
        rec.checkpoint_restores += 1;
        rec.replayed_supersteps += (s - 1).saturating_sub(ck);
        rec.recomputed_supersteps += 1;
    }

    /// Recover(Global) → Superstep: books the rollback of failed
    /// superstep `s` to checkpoint `ck` ([`Master::rewind`] moved the
    /// cursor).
    pub fn rolled_back(&mut self, s: u64, ck: u64) {
        let rec = &mut self.st.recovery;
        rec.rollbacks += 1;
        rec.checkpoint_restores += u64::from(self.st.workers);
        rec.recomputed_supersteps += s - ck;
    }

    /// Books a completed superstep into the cursor.
    pub fn complete_step(&mut self, m: SuperstepMetrics) {
        self.st.superstep = m.superstep;
        self.st.mtbf.advance(m.modeled_secs);
        self.st.cum_logical += m.io.total_logical_bytes();
        self.st.steps.push(m);
    }

    /// The barrier's verdict on the superstep [`Master::complete_step`]
    /// just booked.
    pub fn after_step(&mut self) -> AfterStep {
        let Some(m) = self.st.steps.last() else {
            return AfterStep::Terminate;
        };
        let (s, step_secs) = (m.superstep, m.modeled_secs);
        if m.pending_messages == 0 && m.responders == 0 {
            return AfterStep::Terminate;
        }
        // Tolerance-based termination: once the largest per-vertex
        // residual of a superstep falls to `eps`, further supersteps
        // cannot move the result past the program's own tolerance.
        // Guarded past superstep 1 so an initially-quiet frontier does
        // not end the job before any message flowed.
        if self
            .tolerance
            .is_some_and(|eps| s >= 2 && m.max_residual <= eps)
        {
            return AfterStep::Terminate;
        }
        let switching = matches!(self.cfg.mode, Mode::Hybrid | Mode::Async);
        let switched = if switching && s + 1 < self.max_steps {
            self.decide()
        } else {
            None
        };
        AfterStep::Continue {
            switched,
            checkpoint: self.checkpoint_due(step_secs),
        }
    }

    /// One switching evaluation on the last booked superstep, from its
    /// Eq. 11 inputs: appends its audit record and moves the Δt cursor; a
    /// switch updates the mode, the pending transition kind and
    /// `switches`.
    fn decide(&mut self) -> Option<(Mode, Mode)> {
        let m = self.st.steps.last()?;
        let (s, step_secs, io, inputs) = (m.superstep, m.modeled_secs, m.io, m.qt);
        let profile = &self.cfg.profile;
        let terms = q_terms(profile, &inputs);
        // The async extension term's inputs: the duplicated-compute side
        // is exactly what the pseudo-rounds did beyond the first sweep,
        // the savings side is what a strict replacement superstep would
        // have streamed.
        let asy = (self.cfg.mode == Mode::Async).then(|| {
            let asy = AsyncCostInputs {
                extra_rounds: m.asy.pseudo_rounds.saturating_sub(1),
                value_io_bytes: m.sem.value_update_bytes,
                interior_msg_bytes: m.asy.interior_msg_bytes,
                dup_updates: m.asy.interior_updates,
                dup_messages: m.asy.interior_messages,
            };
            async_gain(profile, &asy)
        });
        let from = self.st.cur;
        let at = (from, self.st.last_decision);
        let (verdict, to) = switch::decide(self.cfg, s, at, terms.q(), asy, step_secs);
        if verdict != QtVerdict::TooEarly {
            self.st.last_decision = s;
        }
        let tier = |phys: u64, logi: u64| {
            if logi == 0 {
                1.0
            } else {
                phys as f64 / logi as f64
            }
        };
        self.st.audit.push(QtAudit {
            superstep: s,
            inputs,
            terms,
            q: terms.q(),
            step_secs,
            // Physical/logical ratio of this superstep's classified I/O
            // (1.0 with no codec): recorded, not decided on — the byte
            // inputs are already physical.
            io_ratio: tier(io.total_bytes(), io.total_logical_bytes()),
            threshold: switch::threshold(self.cfg),
            mode_before: from.label(),
            mode_after: to.label(),
            verdict,
            asy,
            // Jobs running with a codec break `io_ratio` out by access
            // class: the audit then shows *which* I/O tier the codec
            // compressed (adjacency extents are sequential reads; value
            // point reads stay 1.0).
            tiers: (!self.cfg.codec.is_none()).then(|| QtTiers {
                seq_read: tier(io.seq_read_bytes, io.seq_read_logical_bytes),
                seq_write: tier(io.seq_write_bytes, io.seq_write_logical_bytes),
                rand_read: tier(io.rand_read_bytes, io.rand_read_logical_bytes),
                rand_write: tier(io.rand_write_bytes, io.rand_write_logical_bytes),
            }),
        });
        if verdict != QtVerdict::Switch {
            return None;
        }
        self.st.pending_kind = transition_kind(from, to)
            .unwrap_or_else(|| unreachable!("decide only moves between push, b-pull and async"));
        self.st.cur = to;
        self.st.switches.push((s + 1, from, to));
        Some((from, to))
    }

    /// Checkpoint decision at the barrier. `EveryK` is the classic fixed
    /// interval; `Adaptive` is a Young-style rule driven by the
    /// deterministic cost model: checkpoint once the modeled compute time
    /// since the last cut outweighs `factor` times the modeled cost of
    /// writing one. Fault-aware (opt-in): observed kill rates tighten the
    /// spacing via Young's approximation; without evidence or with the
    /// flag off this is exactly the plain `factor × write_secs` rule.
    fn checkpoint_due(&mut self, step_secs: f64) -> bool {
        match self.cfg.checkpoint {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryK(k) => self.st.superstep.is_multiple_of(k.max(1)),
            CheckpointPolicy::Adaptive => {
                self.st.accum_step_secs += step_secs;
                let bytes = self.st.last_ckpt_worker_bytes.max(1);
                let spacing = adaptive_spacing_secs(
                    self.cfg.adaptive_checkpoint_factor,
                    self.cfg.profile.seq_write_secs(bytes),
                    self.st.mtbf.mtbf(),
                    self.cfg.fault_aware_checkpoint,
                );
                self.st.accum_step_secs >= spacing
            }
        }
    }

    /// The older cut the checkpoint being taken may delete. Durable mode
    /// prunes with retention 2: the cut *before* the previous one goes,
    /// because the previous cut must stay on disk until this cut's WAL
    /// record commits — a crash between the worker files and the commit
    /// resumes from the previous cut.
    pub fn prune_target(&self) -> Option<u64> {
        if self.cfg.barrier_sink.is_some() {
            self.st.prev_checkpoint
        } else {
            self.cut_at()
        }
    }

    /// Checkpoint → Superstep: every worker wrote its file for the
    /// cursor's superstep, the largest being `max_worker_bytes`.
    pub fn checkpointed(&mut self, max_worker_bytes: u64) {
        self.st.last_ckpt_worker_bytes = max_worker_bytes;
        self.st.prev_checkpoint = self.cut_at();
        self.take_cut();
    }

    fn take_cut(&mut self) {
        self.st.accum_step_secs = 0.0;
        let st = &self.st;
        self.cut = Some(Cut {
            at: st.superstep,
            cur: st.cur,
            pending_kind: st.pending_kind,
            last_decision: st.last_decision,
            rco: st.rco,
            steps_len: st.steps.len(),
            switches_len: st.switches.len(),
            audit_len: st.audit.len(),
        });
    }

    /// Rewinds the cursor to the cut (see [`Cut`]) and returns its
    /// superstep; without a cut there is nothing to rewind.
    pub fn rewind(&mut self) -> u64 {
        let Some(cut) = &self.cut else {
            return self.st.superstep;
        };
        let st = &mut self.st;
        st.superstep = cut.at;
        st.cur = cut.cur;
        st.pending_kind = cut.pending_kind;
        st.last_decision = cut.last_decision;
        st.rco = cut.rco;
        st.steps.truncate(cut.steps_len);
        st.worker_costs
            .truncate(cut.steps_len * st.workers as usize);
        st.switches.truncate(cut.switches_len);
        st.audit.truncate(cut.audit_len);
        st.accum_step_secs = 0.0;
        // Audit records past the cut will be regenerated (and re-emitted
        // to the trace) as the supersteps re-execute.
        st.audit_seen = st.audit_seen.min(cut.audit_len as u64);
        cut.at
    }
}

#[cfg(test)]
mod tests {
    use super::super::{aggregate, AggCtx};
    use super::*;
    use crate::metrics::StepReport;
    use crate::switch::encode_qt_audits;
    use hybridgraph_net::fabric::Fabric;
    use hybridgraph_storage::{frame, CodecChoice};

    fn cfg(mode: Mode) -> JobConfig {
        JobConfig::new(mode, 3)
            .with_checkpoint(CheckpointPolicy::EveryK(2))
            .with_message_logging(true)
    }

    /// A superstep's metrics as the barrier would aggregate them from
    /// three quiet workers, then adjusted by `tweak`.
    fn step(
        cfg: &JobConfig,
        s: u64,
        kind: StepKind,
        tweak: impl FnOnce(&mut SuperstepMetrics),
    ) -> SuperstepMetrics {
        let ctx = AggCtx {
            cfg,
            b_total: u64::MAX / 2,
            msg_bytes: 12,
            combinable: true,
        };
        let (_, net, _) = Fabric::mesh_with_control(cfg.workers);
        let reports = vec![StepReport::default(); cfg.workers];
        let mut st = MasterState::fresh(cfg.workers as u32);
        let mut m = aggregate(s, kind, &reports, &net.snapshot(), &ctx, &mut st, 0.0);
        m.responders = 5;
        m.modeled_secs = 0.01;
        tweak(&mut m);
        m
    }

    /// Runs supersteps `from..=to` through the master, taking every
    /// checkpoint its policy asks for (64 bytes a worker).
    fn drive(m: &mut Master<'_>, cfg: &JobConfig, from: u64, to: u64) {
        for s in from..=to {
            let kind = m.next_kind();
            m.complete_step(step(cfg, s, kind, |_| {}));
            if let AfterStep::Continue {
                checkpoint: true, ..
            } = m.after_step()
            {
                m.checkpointed(64);
            }
        }
    }

    fn started(cfg: &JobConfig, initial: Mode) -> Master<'_> {
        let mut m = Master::new(cfg, 100, None);
        m.loaded(initial, 1000);
        if cfg.checkpoint != CheckpointPolicy::Never {
            m.checkpointed(64);
        }
        m
    }

    fn death(worker: usize, with_endpoint: bool) -> Failure {
        let (mut eps, _, _) = Fabric::mesh_with_control(worker + 1);
        Failure {
            worker,
            error: format!("boom {worker}"),
            endpoint: with_endpoint.then(|| Box::new(eps.remove(worker))),
        }
    }

    fn is_fatal(plan: Result<RecoveryPlan, JobError>, who: usize) -> bool {
        matches!(
            plan,
            Err(JobError::WorkerFailed { worker, superstep: 4, ref error })
                if worker == who && *error == format!("boom {who}")
        )
    }

    #[test]
    fn recovery_plan_matrix() {
        // One death, logging on, an undoable mode: confined, replaying
        // exactly the supersteps between the cut and the failed one.
        for (mode, initial, kind) in [
            (Mode::Push, Mode::Push, StepKind::Push),
            (Mode::BPull, Mode::BPull, StepKind::BPull),
            (Mode::Hybrid, Mode::BPull, StepKind::BPull),
        ] {
            let c = cfg(mode);
            let mut m = started(&c, initial);
            drive(&mut m, &c, 1, 3);
            assert_eq!(m.cut_at(), Some(2), "{mode:?}");
            let plan = m.plan_recovery(4, &[death(1, true)], |w, ck| (w, ck) == (1, 2));
            assert_eq!(
                plan.ok(),
                Some(RecoveryPlan::Confined {
                    worker: 1,
                    ck: 2,
                    replay: vec![(3, kind)],
                }),
                "{mode:?}"
            );
        }

        // Receive-side state that cannot be undone: global.
        for mode in [Mode::Pull, Mode::PushM, Mode::Async] {
            let c = cfg(mode);
            let mut m = started(&c, mode);
            drive(&mut m, &c, 1, 3);
            let plan = m.plan_recovery(4, &[death(1, true)], |_, _| true);
            assert_eq!(plan.ok(), Some(RecoveryPlan::Global { ck: 2 }), "{mode:?}");
        }

        let c = cfg(Mode::Push);
        let mut m = started(&c, Mode::Push);
        drive(&mut m, &c, 1, 3);
        let global = Some(RecoveryPlan::Global { ck: 2 });
        // Two deaths.
        let two = [death(0, true), death(2, true)];
        assert_eq!(m.plan_recovery(4, &two, |_, _| true).ok(), global);
        // A missing or truncated log segment at a survivor.
        let one = [death(1, true)];
        assert_eq!(m.plan_recovery(4, &one, |_, _| false).ok(), global);
        // A superstep to replay whose kind the cursor does not hold.
        m.st.steps.retain(|s| s.superstep != 3);
        assert_eq!(m.plan_recovery(4, &one, |_, _| true).ok(), global);
        // Logging off: the log is never consulted.
        let quiet = cfg(Mode::Push).with_message_logging(false);
        let mut m = started(&quiet, Mode::Push);
        drive(&mut m, &quiet, 1, 3);
        let never_asked = |_, _| -> bool { panic!("logs consulted with logging off") };
        assert_eq!(m.plan_recovery(4, &one, never_asked).ok(), global);

        // A lost endpoint is not confinable and fatal in the rollback;
        // so is the first death past the budget, and any death without
        // a cut to return to.
        let mut m = started(&c, Mode::Push);
        drive(&mut m, &c, 1, 3);
        assert!(is_fatal(
            m.plan_recovery(4, &[death(1, false)], |_, _| true),
            1
        ));
        let lost_second = [death(0, true), death(2, false)];
        assert!(is_fatal(m.plan_recovery(4, &lost_second, |_, _| true), 2));
        m.st.recoveries_used = MAX_RECOVERIES - 1;
        assert!(is_fatal(m.plan_recovery(4, &two, |_, _| true), 2));
        m.st.recoveries_used = MAX_RECOVERIES;
        assert!(is_fatal(m.plan_recovery(4, &one, |_, _| true), 1));
        let never = cfg(Mode::Push).with_checkpoint(CheckpointPolicy::Never);
        let mut m = started(&never, Mode::Push);
        drive(&mut m, &never, 1, 3);
        assert!(is_fatal(m.plan_recovery(4, &two, |_, _| true), 0));
    }

    #[test]
    fn switches_map_to_their_transition_kinds() {
        use Mode::*;
        let legal = [
            ((BPull, Push), Some(StepKind::BPullThenPush)),
            ((BPull, Async), Some(StepKind::BPullThenPush)),
            ((Push, BPull), Some(StepKind::PushNoSend)),
            ((Async, BPull), Some(StepKind::PushNoSend)),
            ((Async, Push), Some(StepKind::AsyncThenPush)),
            ((Push, Async), None),
        ];
        for from in [Push, PushM, Pull, BPull, Hybrid, Async] {
            for to in [Push, PushM, Pull, BPull, Hybrid, Async] {
                let want = legal.iter().find(|(pair, _)| *pair == (from, to));
                assert_eq!(
                    transition_kind(from, to),
                    want.map(|(_, kind)| *kind),
                    "{from:?} -> {to:?}"
                );
            }
        }

        // The pending kind runs once, then the new mode's own step.
        let c = cfg(Mode::Hybrid);
        let mut m = started(&c, Mode::BPull);
        assert_eq!(m.next_kind(), StepKind::BPull);
        m.st.cur = Mode::Push;
        m.st.pending_kind = transition_kind(Mode::BPull, Mode::Push).unwrap();
        assert_eq!(m.next_kind(), StepKind::BPullThenPush);
        assert_eq!(m.next_kind(), StepKind::Push);
    }

    #[test]
    fn checkpoint_schedules() {
        let due = |m: &mut Master<'_>, c: &JobConfig, s: u64, secs: f64| {
            m.complete_step(step(c, s, StepKind::Push, |x| x.modeled_secs = secs));
            match m.after_step() {
                AfterStep::Continue { checkpoint, .. } => checkpoint,
                AfterStep::Terminate => panic!("superstep {s} terminated"),
            }
        };
        let every3 = cfg(Mode::Push).with_checkpoint(CheckpointPolicy::EveryK(3));
        let mut m = started(&every3, Mode::Push);
        let taken: Vec<bool> = (1..=7).map(|s| due(&mut m, &every3, s, 0.01)).collect();
        assert_eq!(taken, [false, false, true, false, false, true, false]);
        let never = cfg(Mode::Push).with_checkpoint(CheckpointPolicy::Never);
        let mut m = started(&never, Mode::Push);
        assert!((1..=7).all(|s| !due(&mut m, &never, s, 1e6)));

        // Adaptive: a cut once the modeled time since the last one reaches
        // factor × the modeled write of the largest worker file.
        let mut adaptive = cfg(Mode::Push).with_checkpoint(CheckpointPolicy::Adaptive);
        adaptive.adaptive_checkpoint_factor = 4.0;
        let write = adaptive.profile.seq_write_secs(64);
        let mut m = started(&adaptive, Mode::Push);
        assert!(!due(&mut m, &adaptive, 1, 1.5 * write));
        assert!(!due(&mut m, &adaptive, 2, 1.5 * write));
        assert!(
            due(&mut m, &adaptive, 3, 1.5 * write),
            "4.5 ≥ 4 write costs"
        );
        m.checkpointed(64);
        assert_eq!(m.st.accum_step_secs, 0.0, "a cut restarts the spacing");
        assert!(!due(&mut m, &adaptive, 4, 3.9 * write));

        // Failure evidence alone changes nothing; with the fault-aware
        // flag, Young's sqrt(2 · write · MTBF) caps the spacing.
        for (fault_aware, want) in [(false, false), (true, true)] {
            let c = adaptive.clone().with_fault_aware_checkpoint(fault_aware);
            let mut m = started(&c, Mode::Push);
            m.st.mtbf.advance(2.0 * write);
            m.note_failure(1, &death(0, true));
            // One failure in 5.5 write costs of progress: Young's spacing
            // is sqrt(11) ≈ 3.3 write costs, under the factor rule's 4.
            assert_eq!(due(&mut m, &c, 1, 3.5 * write), want, "{fault_aware}");
        }
    }

    #[test]
    fn termination_rules() {
        let c = cfg(Mode::Push);
        let verdict = |tolerance, s, tweak: fn(&mut SuperstepMetrics)| {
            let mut m = Master::new(&c, 100, tolerance);
            m.loaded(Mode::Push, 0);
            m.complete_step(step(&c, s, StepKind::Push, tweak));
            m.after_step() == AfterStep::Terminate
        };
        // Quiescence: no responders and nothing in flight.
        assert!(verdict(None, 1, |m| m.responders = 0));
        assert!(!verdict(None, 1, |m| {
            m.responders = 0;
            m.pending_messages = 1;
        }));
        assert!(!verdict(None, 5, |_| {}));
        // Tolerance: the superstep's largest residual at or under eps —
        // but never before superstep 2, when no message has flowed yet.
        assert!(verdict(Some(1e-3), 2, |m| m.max_residual = 1e-3));
        assert!(!verdict(Some(1e-3), 2, |m| m.max_residual = 2e-3));
        assert!(!verdict(Some(1e-3), 1, |m| m.max_residual = 0.0));
        assert!(!verdict(None, 2, |m| m.max_residual = 0.0));

        // The superstep budget ends the loop without a verdict, and the
        // last allowed barrier takes no switching decision.
        let c = cfg(Mode::Hybrid);
        let mut m = Master::new(&c, 4, None);
        m.loaded(Mode::BPull, 0);
        drive(&mut m, &c, 1, 4);
        assert!(!m.more_steps());
        let decided: Vec<u64> = m.st.audit.iter().map(|a| a.superstep).collect();
        assert_eq!(decided, [1, 2]);
    }

    #[test]
    fn budgets_are_checked_at_the_cursor() {
        let c = cfg(Mode::Push).with_io_budget(1500).with_memory_budget(10);
        let mut m = started(&c, Mode::Push);
        assert!(m.check_budgets().is_ok(), "1000 logical bytes after load");
        let metrics = step(&c, 1, StepKind::Push, |x| x.memory_bytes = 11);
        m.complete_step(metrics);
        let over = |m: &Master<'_>| match m.check_budgets() {
            Err(JobError::BudgetExceeded {
                superstep: 1,
                resource,
                used,
                budget,
            }) => (resource, used, budget),
            other => panic!("{other:?}"),
        };
        assert_eq!(over(&m), ("memory", 11, 10));
        m.st.cum_logical = 1501;
        assert_eq!(over(&m), ("logical_io", 1501, 1500));
    }

    /// Every switching evaluation leaves one audit record, built whole
    /// at the barrier: its terms reassemble `q`, its verdict and modes
    /// are what the cursor did, and only a job with a codec carries
    /// tiers.
    #[test]
    fn every_evaluation_is_one_audit_record() {
        use QtVerdict::*;
        for codec in [CodecChoice::None, CodecChoice::Gaps] {
            let mut c = cfg(Mode::Hybrid).with_codec(codec);
            c.switch_threshold = 0.0;
            let mut m = started(&c, Mode::Push);
            drive(&mut m, &c, 1, 6);
            let audit = &m.st.audit;
            let verdicts: Vec<_> = audit.iter().map(|a| (a.superstep, a.verdict)).collect();
            let want = [TooEarly, Switch, TooEarly, Hold, TooEarly, Hold];
            assert_eq!(verdicts, (1..).zip(want).collect::<Vec<_>>(), "{codec:?}");
            assert_eq!(m.st.last_decision, 6);
            for a in audit {
                assert_eq!(a.terms.q(), a.q);
                assert_eq!(a.threshold, 0.0);
                assert_eq!(a.tiers.is_some(), codec != CodecChoice::None);
            }
            let switched: Vec<_> = audit
                .iter()
                .filter(|a| a.verdict == Switch)
                .map(|a| (a.superstep + 1, a.mode_before, a.mode_after))
                .collect();
            let taken = m.st.switches.iter();
            let taken: Vec<_> = taken.map(|&(s, f, t)| (s, f.label(), t.label())).collect();
            assert_eq!(switched, taken);
            assert_eq!(taken, [(3, "push", "b-pull")]);
        }
    }

    /// "Resume is the worker-failure rollback": a master that decodes the
    /// bytes committed at a cut and rewinds lands where the original
    /// master lands when it rewinds to that cut in-job — on every field
    /// but the ones documented as kept — and re-running the supersteps
    /// past the cut rebuilds the audit records they had, byte for byte.
    #[test]
    fn resume_then_rollback_equals_in_job_rollback() {
        let mut c = cfg(Mode::Hybrid).with_checkpoint(CheckpointPolicy::EveryK(4));
        c.switch_threshold = 0.0;
        let mut a = started(&c, Mode::Push);
        a.st.rco = Some(0.25);
        drive(&mut a, &c, 1, 4);
        assert_eq!(a.cut_at(), Some(4));
        // As a traced job has it: every audit so far is exported.
        a.st.audit_seen = a.st.audit.len() as u64;
        let (committed, at_cut) = (frame::encode(&a.st), a.st.clone());
        assert_eq!(at_cut.switches.len(), 1, "Q_t = 0 flipped to b-pull");
        assert_eq!((at_cut.last_decision, at_cut.audit.len()), (4, 4));
        // Past the cut: more steps and audits, a switch back, a failure,
        // a spent recovery, a new R_co.
        drive(&mut a, &c, 5, 7);
        let past_cut = a.st.audit.clone();
        assert_eq!((a.st.last_decision, past_cut.len()), (6, 7));
        a.st.switches.push((8, Mode::BPull, Mode::Push));
        a.st.cur = Mode::Push;
        a.st.pending_kind = Some(StepKind::BPullThenPush);
        a.st.rco = Some(0.75);
        a.st.accum_step_secs = 0.5;
        a.st.audit_seen = a.st.audit.len() as u64;
        a.note_failure(8, &death(1, true));
        a.st.recoveries_used += 1;
        a.st.epoch += 1;
        assert_eq!(a.rewind(), 4);
        a.rolled_back(8, 4);

        let mut b = Master::new(&c, 100, None);
        b.resume(frame::decode(&committed).unwrap());
        assert_eq!(b.cut_at(), Some(4));
        assert_eq!(b.rewind(), 4);

        assert_eq!(a.st.superstep, 4);
        assert_eq!((a.st.cur, a.st.pending_kind), (Mode::BPull, None));
        assert_eq!((a.st.last_decision, a.st.rco), (4, Some(0.25)));
        assert_eq!((a.st.steps.len(), a.st.switches.len()), (4, 1));
        assert_eq!(a.st.audit, at_cut.audit, "truncated to the cut's length");
        assert_eq!(a.st.audit_seen, 4, "clamped to the rewound audit");
        assert_eq!(a.st.accum_step_secs, 0.0);
        assert_eq!(a.st.recovery.rollbacks, 1);
        assert_eq!(a.st.recovery.recomputed_supersteps, 4);
        // Kept fields carry the job's history; level them, then every
        // remaining byte — the rewound fields — must agree.
        let mut a = a.st;
        assert!(a.cum_logical >= b.st.cum_logical && a.epoch == b.st.epoch + 1);
        a.recovery = b.st.recovery.clone();
        a.recoveries_used = b.st.recoveries_used;
        a.cum_logical = b.st.cum_logical;
        a.epoch = b.st.epoch;
        a.mtbf = b.st.mtbf;
        assert!(
            frame::encode(&a) == frame::encode(&b.st),
            "a rewound field differs"
        );

        // The supersteps replayed after the cut rebuild the same records.
        drive(&mut b, &c, 5, 7);
        assert_eq!(encode_qt_audits(&b.st.audit), encode_qt_audits(&past_cut));
    }
}
