//! The thread-and-channel driver: spawns the workers and walks the
//! master through Load → [Resume | Baseline] → Superstep ⇄ Recover →
//! Checkpoint → Collect, turning each of its decisions into command
//! rounds and each round's replies into its next input.

use super::control::{worker_main, Cmd, Failure, Links, Reply, WorkerMsg};
use super::master::{AfterStep, Master, RecoveryPlan};
use super::{aggregate, AggCtx, JobError, JobResult};
use crate::blockexec::BlockClassification;
use crate::config::{CheckpointPolicy, Mode};
use crate::fault::MasterKillPoint;
use crate::metrics::{JobMetrics, LoadReport, StepKind, StepReport, SuperstepMetrics};
use crate::program::VertexProgram;
use crate::snapshot::MasterState;
use crate::switch::{self, b_lower_bound};
use crate::worker::{WorkerLoadReport, WorkerSeed};
use hybridgraph_graph::{BlockLayout, Graph, Partition, WorkerId};
use hybridgraph_net::fabric::{ControlPlane, Endpoint, NetSnapshot, NetStats};
use hybridgraph_net::netfault::NetFaultPlan;
use hybridgraph_net::packet::Packet;
use hybridgraph_obs::{secs_to_us, TraceSink};
use hybridgraph_storage::frame;
use hybridgraph_storage::segment::MsgLogReader;
use hybridgraph_storage::vfs::Vfs;
use hybridgraph_storage::IoSnapshot;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// Fault-plan fired counters `(drops, duplicates, delays)`. They are
/// deterministic at superstep barriers (each selected frame fires its
/// drops before the receiver can complete the step; duplicates/delays
/// fire on the first attempt only), so their deltas may go into the trace.
fn fired(plan: Option<&Arc<NetFaultPlan>>) -> (u64, u64, u64) {
    plan.map_or((0, 0, 0), |p| {
        (p.drops_fired(), p.duplicates_fired(), p.delays_fired())
    })
}

/// True if every survivor holds a readable log segment for every
/// superstep the failed worker must replay (`ck+1..failed_step`). A
/// missing or truncated segment fails validation and recovery falls back
/// to the global rollback.
fn confined_logs_ok(vfss: &[Arc<dyn Vfs>], failed: usize, ck: u64, failed_step: u64) -> bool {
    vfss.iter().enumerate().all(|(i, vfs)| {
        i == failed || ((ck + 1)..failed_step).all(|s| MsgLogReader::open(vfs.as_ref(), s).is_ok())
    })
}

/// One running job: what `run_job` fixed before the first worker started,
/// the master, and the master's ends of the cluster.
pub(super) struct Run<'s, 'e, P: VertexProgram> {
    pub scope: &'s Scope<'s, 'e>,
    pub program: &'e Arc<P>,
    pub graph: &'e Graph,
    pub partition: Arc<Partition>,
    pub layout: Arc<BlockLayout>,
    /// Async jobs classify every vertex boundary/interior against the
    /// VE-BLOCK layout once, master-side; workers share the read-only
    /// view (a respawned worker reattaches to the same classification).
    pub classification: Option<Arc<BlockClassification>>,
    /// The master holds each worker's VFS so a respawned worker thread
    /// reattaches to the same (simulated or real) disk — that is what
    /// makes its checkpoints reachable after the thread died. A durable
    /// service passes its own disks in (`worker_disks`), which is what
    /// makes them reachable after the *master process* died.
    pub vfss: Vec<Arc<dyn Vfs>>,
    /// The configuration and the aggregation constants derived from it.
    pub agg: AggCtx<'e>,
    pub master: Master<'e>,
    pub links: Links<P::Value>,
    /// Kept for the whole job so late respawns can still clone it.
    pub rep_tx: Sender<Reply<P::Value>>,
    pub control: ControlPlane,
    pub net_stats: Arc<NetStats>,
    /// Every worker index: the target list of a cluster-wide round.
    pub all: Vec<usize>,
    /// Traffic and fired-fault counters at the last barrier.
    pub net_base: NetSnapshot,
    pub faults_base: (u64, u64, u64),
}

impl<'s, 'e, P: VertexProgram> Run<'s, 'e, P> {
    /// Runs the job on `endpoints`, from `resume` if a previous
    /// incarnation committed a cursor.
    pub fn run(
        mut self,
        endpoints: Vec<Endpoint>,
        resume: Option<MasterState>,
    ) -> Result<JobResult<P>, JobError> {
        // Cooperative pacing: under a multi-job scheduler the master
        // holds a grant for each unit of work (load, one superstep,
        // collect) so the cross-job interleaving replays
        // deterministically. Unpaced jobs skip every hook. This grant
        // covers the load phase (workers load on spawn).
        self.acquire();
        for (i, ep) in endpoints.into_iter().enumerate() {
            let tx = self.spawn(i, ep);
            self.links.cmd_txs.push(tx);
        }
        let (load, load_modeled_secs) = self.load()?;
        match resume {
            Some(committed) => self.resume(committed)?,
            None => self.baseline(&load, load_modeled_secs)?,
        }
        self.net_base = self.net_stats.snapshot();
        while self.master.more_steps() && self.superstep()? {}
        self.collect(load)
    }

    fn sink(&self) -> Option<&'e Arc<TraceSink>> {
        self.agg.cfg.trace.as_ref()
    }

    fn net_plan(&self) -> Option<&'e Arc<NetFaultPlan>> {
        let plan = self.agg.cfg.fault_plan.as_ref();
        plan.and_then(|p| p.net_plan())
    }

    fn acquire(&self) {
        if let Some(p) = &self.agg.cfg.pacer {
            p.acquire();
        }
    }

    fn release(&self, modeled_secs: f64) {
        if let Some(p) = &self.agg.cfg.pacer {
            p.release(modeled_secs);
        }
    }

    /// Starts worker `i`'s thread on `ep` and returns its command sender.
    fn spawn(&self, i: usize, ep: Endpoint) -> Sender<Cmd> {
        let seed = WorkerSeed {
            id: WorkerId::from(i),
            program: Arc::clone(self.program),
            graph: self.graph,
            partition: Arc::clone(&self.partition),
            layout: Arc::clone(&self.layout),
            cfg: self.agg.cfg.clone(),
            ep,
            vfs: Arc::clone(&self.vfss[i]),
            classification: self.classification.clone(),
        };
        let (tx, cmd_rx) = channel();
        let rep_tx = self.rep_tx.clone();
        self.scope
            .spawn(move || worker_main::<P>(seed, cmd_rx, rep_tx));
        tx
    }

    /// The one respawn: each dead worker, in order, gets a new thread on
    /// its original endpoint and VFS at the price of one recovery; the
    /// first that cannot (lost endpoint, spent budget, no checkpointing)
    /// fails the job. Returns who now owes a `Loaded`.
    fn respawn(&mut self, at: u64, dead: Vec<Failure>) -> Result<Vec<usize>, JobError> {
        let mut reloading = Vec::with_capacity(dead.len());
        for f in dead {
            let ok = self.master.respawnable(&f, 0);
            let Some(ep) = f.endpoint.filter(|_| ok) else {
                return Err(JobError::WorkerFailed {
                    worker: f.worker,
                    superstep: at,
                    error: f.error,
                });
            };
            self.master.st.recoveries_used += 1;
            self.links.cmd_txs[f.worker] = self.spawn(f.worker, *ep);
            reloading.push(f.worker);
        }
        Ok(reloading)
    }

    /// Load: every worker builds its stores and reports. Workers do not
    /// exchange packets while loading, so a load-phase failure needs no
    /// abort or rollback: respawn and reload.
    fn load(&mut self) -> Result<(LoadReport, f64), JobError> {
        let cfg = self.agg.cfg;
        let mut reports = vec![WorkerLoadReport::default(); cfg.workers];
        let mut waiting = self.all.clone();
        while !waiting.is_empty() {
            let mut dead = Vec::new();
            self.links.round(&waiting, None, 0, |i, msg| {
                match msg {
                    WorkerMsg::Loaded(r) => reports[i] = *r,
                    WorkerMsg::Failed(f) => {
                        self.master.note_failure(0, &f);
                        dead.push(f);
                    }
                    other => return Err(other),
                }
                Ok(())
            })?;
            waiting = self.respawn(0, dead)?;
        }
        // Simulated master crash while loading: the job dies before any
        // durable cut exists, so a restore re-runs it from scratch.
        self.master.killed(MasterKillPoint::Load)?;
        self.faults_base = fired(self.net_plan());

        let edges = self.graph.num_edges() as u64;
        let fragments: u64 = reports.iter().map(|r| r.fragments).sum();
        // Theorem 2 decides hybrid's initial mode from the message-buffer
        // capacity. With sufficient memory no message ever spills and the
        // sign of Q_t is dominated by b-pull's communication gain (§6.1:
        // "hybrid thereby runs b-pull"), so b-pull starts.
        let theorem2_mode = if cfg.memory_limited() {
            switch::initial_mode(self.agg.b_total, edges, fragments)
        } else {
            Mode::BPull
        };
        let initial = match cfg.mode {
            Mode::Hybrid => cfg.initial_mode_override.unwrap_or(theorem2_mode),
            m => m,
        };
        let cls = self.classification.as_ref();
        let load = LoadReport {
            wall_secs: reports.iter().map(|r| r.wall_secs).fold(0.0, f64::max),
            io: reports
                .iter()
                .fold(IoSnapshot::default(), |acc, r| acc.plus(&r.io)),
            fragments,
            b_lower_bound: b_lower_bound(edges, fragments),
            num_vblocks: self.layout.num_blocks(),
            initial_mode: initial,
            num_vertices: self.graph.num_vertices() as u64,
            boundary_vertices: cls.map_or(0, |c| c.boundary_total),
            interior_vertices: cls.map_or(0, |c| c.interior_total),
        };
        // Modeled load time: the slowest worker's classified I/O.
        let load_modeled_secs = reports
            .iter()
            .map(|r| r.io.modeled_secs(&cfg.profile))
            .fold(0.0, f64::max);
        self.master.loaded(initial, load.io.total_logical_bytes());
        Ok((load, load_modeled_secs))
    }

    /// Resume (durable restart): `committed` is the cursor a previous
    /// incarnation of this job committed through its barrier sink before
    /// the master process died. The workers reloaded from scratch —
    /// byte-identically to the original load (fresh per-job stats, same
    /// shared stores) — and are now rolled onto the committed checkpoint
    /// by the same round a worker failure uses. No load span is emitted
    /// and no recovery metric moves: this is a process restart, not an
    /// in-job failure.
    fn resume(&mut self, mut committed: MasterState) -> Result<(), JobError> {
        // Replace the trace rings wholesale with the committed contents:
        // erases the re-load's duplicate events and restores every
        // track's clock to the cut.
        if let (Some(s), Some(states)) = (self.sink(), committed.trace.take()) {
            s.restore_states(&states);
        }
        let owed_release_secs = committed.pending_release_secs;
        let at = committed.superstep;
        self.master.resume(committed);
        self.rollback_all(at)?;
        self.release(owed_release_secs);
        Ok(())
    }

    /// Baseline: any policy but `Never` checkpoints right after loading
    /// so even a superstep-1 failure has a cut to roll back to. The load
    /// grant is still held at that cut; a resumed incarnation owes its
    /// release.
    fn baseline(&mut self, load: &LoadReport, load_modeled_secs: f64) -> Result<(), JobError> {
        let cfg = self.agg.cfg;
        if let Some(s) = self.sink() {
            s.master().span(
                "load",
                secs_to_us(load_modeled_secs),
                vec![
                    ("fragments", load.fragments.into()),
                    ("vblocks", (load.num_vblocks as u64).into()),
                    ("b_lower_bound", load.b_lower_bound.into()),
                    ("initial_mode", load.initial_mode.label().into()),
                ],
            );
        }
        if cfg.checkpoint != CheckpointPolicy::Never {
            self.take_checkpoint(load_modeled_secs)?;
        }
        self.release(load_modeled_secs);
        if let Some(ps) = &cfg.progress {
            ps.loaded(load_modeled_secs);
        }
        self.master.check_budgets()
    }

    /// Rolls every worker (survivors and respawns alike) back to the
    /// master's cut and rewinds the cursor to it. The rollback handler
    /// resets each endpoint to the current epoch — clearing stale packets
    /// (including an abort the master broadcast) *and* un-acked ARQ
    /// frames that would otherwise retransmit into the re-execution.
    fn rollback_all(&mut self, at: u64) -> Result<(), JobError> {
        let cmd = Cmd::Rollback {
            superstep: self.master.rewind(),
            epoch: self.master.st.epoch,
        };
        self.links.order(&self.all, cmd, at)
    }

    /// Checkpoint: every worker writes its file for the cursor's
    /// superstep (one classified sequential write each), the master takes
    /// its cut, and — in durable mode — commits the cursor.
    /// `owed_release_secs` is the pacer time of the grant the master
    /// holds across this cut.
    fn take_checkpoint(&mut self, owed_release_secs: f64) -> Result<(), JobError> {
        let superstep = self.master.st.superstep;
        let before: Vec<IoSnapshot> = self.vfss.iter().map(|v| v.stats().snapshot()).collect();
        let cmd = Cmd::Checkpoint {
            superstep,
            prune: self.master.prune_target(),
        };
        let (mut max_bytes, mut sum_bytes) = (0, 0);
        self.links
            .round(&self.all, Some(cmd), superstep, |_, msg| match msg {
                WorkerMsg::Checkpointed(bytes) => {
                    max_bytes = bytes.max(max_bytes);
                    sum_bytes += bytes;
                    Ok(())
                }
                other => Err(other),
            })?;
        let rec = &mut self.master.st.recovery;
        rec.checkpoint_bytes += sum_bytes;
        for (vfs, base) in self.vfss.iter().zip(&before) {
            let delta = vfs.stats().snapshot().delta(base);
            rec.checkpoint_io = rec.checkpoint_io.plus(&delta);
        }
        rec.checkpoints_taken += 1;
        if let Some(s) = self.sink() {
            s.master().span(
                "checkpoint",
                secs_to_us(self.agg.cfg.profile.seq_write_secs(max_bytes)),
                vec![
                    ("superstep", superstep.into()),
                    ("max_worker_bytes", max_bytes.into()),
                ],
            );
        }
        self.master.checkpointed(max_bytes);
        self.commit_cut(owed_release_secs)
    }

    /// The durable half of a cut: the cursor *is* the record. Write-ahead
    /// ordering: worker checkpoint files are durable *before* the
    /// master's commit; the previous cut is kept until the *next* cut's
    /// commit lands (retention 2), so the log never points at pruned
    /// worker files no matter where a crash falls. The seeded kills
    /// bracket the commit — `MidBarrier` models dying with the files
    /// written but the record missing, `BetweenGrants` right after the
    /// record.
    fn commit_cut(&mut self, owed_release_secs: f64) -> Result<(), JobError> {
        let Some(bs) = &self.agg.cfg.barrier_sink else {
            return Ok(());
        };
        let st = &mut self.master.st;
        st.pending_release_secs = owed_release_secs;
        st.trace = self.agg.cfg.trace.as_ref().map(|s| s.export_states());
        let (superstep, state) = (st.superstep, frame::encode(&*st));
        st.trace = None;
        self.master.killed(MasterKillPoint::MidBarrier(superstep))?;
        bs.commit(superstep, &state)?;
        self.master
            .killed(MasterKillPoint::BetweenGrants(superstep))
    }

    /// Superstep: one grant, one step round, then the barrier — recover,
    /// or book the step and act on the master's verdict. `false` ends
    /// the loop.
    fn superstep(&mut self) -> Result<bool, JobError> {
        let cfg = self.agg.cfg;
        let s = self.master.st.superstep + 1;
        self.acquire();
        let kind = self.master.next_kind();
        let t_step = Instant::now();
        let (reports, failures) = self.step_round(s, kind)?;
        if !failures.is_empty() {
            self.recover(s, kind, failures)?;
            return Ok(true);
        }
        let wall = t_step.elapsed().as_secs_f64();
        let net_now = self.net_stats.snapshot();
        let net_delta = net_now.delta(&self.net_base);
        self.net_base = net_now;
        let st = &mut self.master.st;
        st.recovery.msg_log_bytes += reports.iter().map(|r| r.msg_log_bytes).sum::<u64>();
        let (metrics, q) = aggregate(s, kind, &reports, &net_delta, &self.agg, &mut st.rco, wall);
        self.trace_step(&metrics);
        let step_secs = metrics.modeled_secs;
        self.master.complete_step(metrics);
        self.release(step_secs);
        if let Some(ps) = &cfg.progress {
            ps.superstep(s, kind.mode(), step_secs);
        }
        self.master.check_budgets()?;
        let AfterStep::Continue {
            switched,
            checkpoint,
        } = self.master.after_step(q)
        else {
            return Ok(false);
        };
        self.trace_decisions(s, switched);
        if checkpoint {
            self.take_checkpoint(0.0)?;
        } else {
            // Barriers without a checkpoint can still be kill points:
            // the restarted job then resumes from the last committed
            // cut further back.
            self.master.killed(MasterKillPoint::MidBarrier(s))?;
            self.master.killed(MasterKillPoint::BetweenGrants(s))?;
        }
        Ok(true)
    }

    /// Orders superstep `s` and takes exactly one terminal reply per
    /// worker. On the first failure, broadcasts an abort so peers blocked
    /// on the dead worker's packets unwind (they answer `Aborted` and
    /// stay alive) instead of deadlocking.
    fn step_round(
        &mut self,
        s: u64,
        kind: StepKind,
    ) -> Result<(Vec<StepReport>, Vec<Failure>), JobError> {
        let cmd = Cmd::Step {
            kind,
            superstep: s,
            base_us: self.sink().map_or(0, |t| t.master().clock_us()),
        };
        let mut reports = vec![StepReport::default(); self.all.len()];
        let mut failures = Vec::new();
        let control = &self.control;
        self.links.round(&self.all, Some(cmd), s, |i, msg| {
            match msg {
                WorkerMsg::Step(r) => reports[i] = *r,
                WorkerMsg::Aborted => {}
                WorkerMsg::Failed(f) => {
                    if failures.is_empty() {
                        control.broadcast(Packet::Abort);
                    }
                    failures.push(f);
                }
                other => return Err(other),
            }
            Ok(())
        })?;
        Ok((reports, failures))
    }

    /// Recover: respawn the dead, then either confine the recovery to
    /// them or roll the whole cluster back. Each recovery bumps the
    /// fabric epoch so ARQ frames still in flight from before the failure
    /// are recognizably stale.
    fn recover(&mut self, s: u64, kind: StepKind, failures: Vec<Failure>) -> Result<(), JobError> {
        for f in &failures {
            self.master.note_failure(s, f);
        }
        let vfss = &self.vfss;
        let plan = self
            .master
            .plan_recovery(s, &failures, |w, ck| confined_logs_ok(vfss, w, ck, s))?;
        self.master.st.epoch += 1;
        let reloading = self.respawn(s, failures)?;
        self.links.round(&reloading, None, s, |_, msg| match msg {
            WorkerMsg::Loaded(_) => Ok(()),
            other => Err(other),
        })?;
        match plan {
            RecoveryPlan::Confined { worker, ck, replay } => {
                self.confined(s, worker, ck, &replay)?;
                self.master.confined_done(s, kind, ck);
                if let Some(t) = self.sink() {
                    t.master().instant(
                        "recovery.confined",
                        vec![
                            ("failed_superstep", s.into()),
                            ("worker", (worker as u64).into()),
                            ("checkpoint", ck.into()),
                            ("replayed", (s - 1).saturating_sub(ck).into()),
                        ],
                    );
                }
            }
            RecoveryPlan::Global { ck } => {
                self.rollback_all(s)?;
                self.master.rolled_back(s, ck);
                if let Some(t) = self.sink() {
                    t.master().instant(
                        "recovery.rollback",
                        vec![
                            ("failed_superstep", s.into()),
                            ("checkpoint", ck.into()),
                            ("restores", (self.all.len() as u64).into()),
                        ],
                    );
                }
            }
        }
        self.net_base = self.net_stats.snapshot();
        self.faults_base = fired(self.net_plan());
        self.release(0.0);
        Ok(())
    }

    /// The rounds of a confined recovery of failed superstep `s`: only
    /// the respawned `dead` worker reloads checkpoint `ck`; survivors
    /// revert exactly superstep `s` from their in-memory pre-images (no
    /// checkpoint I/O); then `replay` runs on the respawned worker,
    /// survivors re-serving their logged packets (never re-executing)
    /// while it re-computes with sends suppressed.
    fn confined(
        &self,
        s: u64,
        dead: usize,
        ck: u64,
        replay: &[(u64, StepKind)],
    ) -> Result<(), JobError> {
        let epoch = self.master.st.epoch;
        let survivors: Vec<usize> = self.all.iter().copied().filter(|&i| i != dead).collect();
        let rollback = Cmd::Rollback {
            superstep: ck,
            epoch,
        };
        self.links.order(&[dead], rollback, s)?;
        self.links.order(&survivors, Cmd::UndoStep { epoch }, s)?;
        for &(superstep, kind) in replay {
            let serve = Cmd::ReplayServe {
                superstep,
                target: dead,
            };
            self.links.order(&survivors, serve, s)?;
            self.links
                .order(&[dead], Cmd::ReplayStep { kind, superstep }, s)?;
        }
        Ok(())
    }

    /// The superstep's master span, barrier instant and traffic counters.
    /// The sink, when installed, is purely additive: it reads counters
    /// the cost model maintains anyway, so tracing on/off changes no byte
    /// count and no Q_t decision. Timestamps are *modeled* time
    /// (DeviceProfile seconds → µs), which makes two same-seed runs emit
    /// byte-identical traces regardless of wall-clock jitter.
    fn trace_step(&mut self, m: &SuperstepMetrics) {
        let now = fired(self.net_plan());
        let base = std::mem::replace(&mut self.faults_base, now);
        let Some(s) = self.sink() else {
            return;
        };
        let master = s.master();
        let dur = secs_to_us(m.modeled_secs);
        let end_us = master.clock_us() + dur;
        master.span(
            m.kind.label(),
            dur,
            vec![
                ("superstep", m.superstep.into()),
                ("q_metric", m.q_metric.into()),
                ("updated", m.updated.into()),
                ("messages", m.messages_produced.into()),
                ("io_bytes", m.io.total_bytes().into()),
            ],
        );
        master.instant("barrier", vec![("superstep", m.superstep.into())]);
        let net = s.net();
        net.counter_at(
            end_us,
            "net.bytes",
            vec![
                ("remote", m.net_out_bytes.into()),
                ("local", m.net_local_bytes.into()),
            ],
        );
        let d = (now.0 - base.0, now.1 - base.1, now.2 - base.2);
        if d.0 + d.1 + d.2 > 0 {
            net.instant_at(
                end_us,
                "arq.faults",
                vec![
                    ("superstep", m.superstep.into()),
                    ("drops", d.0.into()),
                    ("duplicates", d.1.into()),
                    ("delays", d.2.into()),
                ],
            );
        }
    }

    /// The control track: a switch taken at superstep `s`'s barrier, and
    /// every switching evaluation since the last barrier (including holds
    /// and too-early refusals) as one audit instant each.
    fn trace_decisions(&mut self, s: u64, switched: Option<(Mode, Mode)>) {
        let Some(sink) = self.sink() else {
            return;
        };
        let (ts, control) = (sink.master().clock_us(), sink.control());
        if let Some((from, to)) = switched {
            control.instant_at(
                ts,
                "switch",
                vec![
                    ("at_superstep", (s + 1).into()),
                    ("from", from.label().into()),
                    ("to", to.label().into()),
                ],
            );
        }
        let st = &mut self.master.st;
        for a in st.audit.iter().skip(st.audit_seen as usize) {
            control.instant_at(
                ts,
                "qt",
                vec![
                    ("superstep", a.superstep.into()),
                    ("q", a.q.into()),
                    ("verdict", a.verdict.label().into()),
                    ("mode_before", a.mode_before.into()),
                    ("mode_after", a.mode_after.into()),
                ],
            );
        }
        st.audit_seen = st.audit_seen.max(st.audit.len() as u64);
    }

    /// Collect: gather every worker's values, let the workers go, and
    /// assemble the result.
    fn collect(mut self, load: LoadReport) -> Result<JobResult<P>, JobError> {
        let cfg = self.agg.cfg;
        self.acquire();
        let at = self.master.st.superstep;
        let mut parts = Vec::with_capacity(self.all.len());
        self.links
            .round(&self.all, Some(Cmd::Collect), at, |_, msg| match msg {
                WorkerMsg::Values(base, vals) => {
                    parts.push((base, vals));
                    Ok(())
                }
                other => Err(other),
            })?;
        // Hanging up is the exit order: workers tear down while the
        // master assembles the result.
        self.links.cmd_txs.clear();
        self.release(0.0);
        parts.sort_by_key(|(base, _)| *base);
        let mut values = Vec::with_capacity(self.graph.num_vertices());
        for (_, vals) in parts {
            values.extend(vals);
        }
        debug_assert_eq!(values.len(), self.graph.num_vertices());

        let mut st = self.master.st;
        st.recovery.mtbf_secs = st.mtbf.mtbf().unwrap_or(0.0);
        Ok(JobResult {
            values,
            metrics: JobMetrics {
                load,
                qt_audit: st.audit,
                steps: st.steps,
                switches: st.switches,
                profile: cfg.profile,
                recovery: st.recovery,
                net_overhead: self.net_stats.snapshot().overhead,
            },
        })
    }
}
