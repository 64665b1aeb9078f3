//! The master: job orchestration (paper Fig. 1 and Algorithm 3) plus the
//! checkpoint/recovery protocol. Recovery is **bit-identical**: a job that
//! loses workers ends with the fault-free run's values to the bit and its
//! per-superstep byte counts to the byte (`tests/fault_recovery.rs`),
//! because every executor reduces messages in an order that ignores packet
//! timing and mode switching reads modeled time, never wall-clock.
//!
//! [`run_job`] validates the configuration, spawns one OS thread per
//! computational node and hands the job to a private master. The master
//! is a *value* (`master`): one [`MasterState`]
//! cursor — exactly the bytes a durable barrier commits — plus the job's
//! constants, with every decision (next step kind, recovery plan, the
//! after-step verdict: terminate / switch / checkpoint due) a method that
//! touches no channel. The driver (`drive`) walks it through
//!
//! ```text
//! Load → [Resume | Baseline] → Superstep ⇄ Recover(Confined | Global)
//!                                  ↓ ↑
//!                              Checkpoint            → Collect
//! ```
//!
//! * *Load*: every worker builds its stores; a load-phase death is
//!   respawned in place (no packets flow yet, so no abort or rollback).
//! * *Baseline* (any policy but `Never`): the checkpoint of superstep 0,
//!   so even a superstep-1 failure has a cut. *Resume* (durable restart)
//!   replaces it: the cursor is decoded from the committed bytes and the
//!   freshly loaded workers are rolled onto that cut by the same round a
//!   global recovery uses.
//! * *Superstep*: one step round (`control`: a command to a set of
//!   workers, exactly one reply from each). The replies are the BSP
//!   barrier: the master aggregates metrics, evaluates the hybrid
//!   switching condition (`evaluate(...)` in Algorithm 3) and checks
//!   termination (no responders and no pending messages, the program's
//!   tolerance, or the superstep budget). A failure goes to *Recover*,
//!   after which the failed superstep re-runs.
//! * *Checkpoint*: one round of worker files, then the master's cut, then
//!   — with a [`BarrierSink`](crate::config::BarrierSink) installed — the
//!   commit of the encoded cursor (write-ahead: files before record).
//! * *Collect*: one round for the values; hanging up the command channels
//!   is the workers' exit order.
//!
//! **Recovery.** A worker failure — injected via
//! [`FaultPlan`](crate::fault::FaultPlan), an I/O error, or a panic in
//! the vertex program or an executor — surfaces as one `Failed` reply,
//! which hands the worker's network endpoint back when it still has one.
//! The master broadcasts `Abort` on the control plane; in-flight
//! executors unwind cooperatively (an `Interrupted` marker error) and the
//! survivors acknowledge and stay alive. Once all are quiescent the
//! master respawns the dead worker's thread on the *same* simulated disk,
//! as a restarted process would on a physical node, bumps the fabric
//! epoch, and recovers *confined* or *globally* (`master` has the plans).
//! It returns [`JobError::WorkerFailed`] when there is no usable cut, the
//! endpoint is lost, or the recovery budget (eight respawns per job) is
//! spent. A durable restart is the same global rollback with the cursor
//! decoded from the committed bytes.

#![warn(clippy::too_many_lines)]

pub(crate) mod control;
mod drive;
mod master;

use crate::config::{JobConfig, Mode};
use crate::fault::MasterKillPoint;
use crate::metrics::{JobMetrics, StepKind, StepReport, SuperstepMetrics, WorkerCost};
use crate::program::VertexProgram;
use crate::snapshot::MasterState;
use crate::switch::{estimate_mco, observe_rco};
use hybridgraph_graph::{partition::vblock_counts, BlockLayout, Graph, Partition};
use hybridgraph_net::fabric::{Fabric, NetSnapshot};
use hybridgraph_obs::QtInputs;
use hybridgraph_storage::frame;
use hybridgraph_storage::vfs::{MemVfs, Vfs};
use hybridgraph_storage::{IoSnapshot, Record};
use std::fmt;
use std::io;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// The outcome of a job: final vertex values plus everything measured.
pub struct JobResult<P: VertexProgram> {
    /// Final value per vertex, indexed by vertex id.
    pub values: Vec<P::Value>,
    /// Per-superstep and loading metrics.
    pub metrics: JobMetrics,
}

impl<P: VertexProgram> fmt::Debug for JobResult<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobResult")
            .field("vertices", &self.values.len())
            .field("supersteps", &self.metrics.supersteps())
            .finish()
    }
}

/// Why a job did not produce a result.
#[derive(Debug)]
pub enum JobError {
    /// A worker failed and the job could not recover: the checkpoint
    /// policy is [`Never`](crate::config::CheckpointPolicy::Never), no checkpoint exists yet,
    /// the recovery budget is exhausted, or the worker died in a way
    /// that lost its network endpoint.
    WorkerFailed {
        /// Which worker failed.
        worker: usize,
        /// The superstep it failed in (0 = loading).
        superstep: u64,
        /// The underlying error message.
        error: String,
    },
    /// The job exceeded one of its configured budgets
    /// ([`JobConfig::logical_io_budget`] /
    /// [`JobConfig::memory_budget`]) and was terminated at a superstep
    /// barrier. Budget checks read only this job's own metrics, so a
    /// multi-tenant service can enforce per-job limits without any
    /// cross-job accounting.
    BudgetExceeded {
        /// The barrier at which the breach was detected (0 = loading).
        superstep: u64,
        /// Which budget: `"logical_io"` or `"memory"`.
        resource: &'static str,
        /// Observed usage (cumulative logical bytes, or the superstep's
        /// summed memory high-water mark).
        used: u64,
        /// The configured limit.
        budget: u64,
    },
    /// The master was killed by an injected master-kill fault — a
    /// simulated crash of the whole service process at a seeded point
    /// (see [`MasterKillPoint`]). Worker threads shut down cleanly; a
    /// durable service can later resume the job from its last committed
    /// cut via `GraphService::restore`.
    Halted {
        /// The kill point that fired.
        point: MasterKillPoint,
    },
    /// An I/O error outside any worker (e.g. a resume state that does not
    /// decode).
    Io(io::Error),
    /// The configuration cannot run: no workers, an empty graph, `PushM`
    /// without a combiner, a worker count that disagrees with the
    /// mounted disks, the attached stores, the trace sink or the resume
    /// state, or a resume state in a mode the job does not run in.
    /// Detected before any worker starts.
    InvalidConfig(String),
}

impl JobError {
    /// Stable numeric code for wire protocols: clients match on the code
    /// instead of parsing the display string. Codes are append-only —
    /// never renumber.
    ///
    /// | code | variant          |
    /// |------|------------------|
    /// | 1    | `WorkerFailed`   |
    /// | 2    | `BudgetExceeded` |
    /// | 3    | `Halted`         |
    /// | 4    | `Io`             |
    /// | 5    | `InvalidConfig`  |
    pub fn code(&self) -> u16 {
        match self {
            JobError::WorkerFailed { .. } => 1,
            JobError::BudgetExceeded { .. } => 2,
            JobError::Halted { .. } => 3,
            JobError::Io(_) => 4,
            JobError::InvalidConfig(_) => 5,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::WorkerFailed {
                worker,
                superstep,
                error,
            } => write!(
                f,
                "worker {worker} failed in superstep {superstep} and the job \
                 could not recover: {error}"
            ),
            JobError::BudgetExceeded {
                superstep,
                resource,
                used,
                budget,
            } => write!(
                f,
                "job exceeded its {resource} budget at superstep {superstep}: \
                 used {used} of {budget}"
            ),
            JobError::Halted { point } => {
                write!(f, "master halted by injected kill at {point:?}")
            }
            JobError::Io(e) => write!(f, "job I/O error: {e}"),
            JobError::InvalidConfig(why) => write!(f, "invalid job configuration: {why}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Io(e) => Some(e),
            JobError::WorkerFailed { .. }
            | JobError::BudgetExceeded { .. }
            | JobError::Halted { .. }
            | JobError::InvalidConfig(_) => None,
        }
    }
}

impl From<io::Error> for JobError {
    fn from(e: io::Error) -> Self {
        JobError::Io(e)
    }
}
/// Rejects a configuration the engine cannot run, and decodes the resume
/// state (if any) so its worker count and modes are checked with the
/// rest.
fn validate<P: VertexProgram>(
    program: &P,
    graph: &Graph,
    cfg: &JobConfig,
) -> Result<Option<MasterState>, JobError> {
    let t = cfg.workers;
    let st = match &cfg.resume {
        Some(resume) => Some(frame::decode::<MasterState>(&resume.0[..])?),
        None => None,
    };
    let checks = [
        (t >= 1, "need at least one worker"),
        (
            cfg.sending_threshold > 0,
            "sending threshold must be positive",
        ),
        (
            cfg.buffer_messages > 0
                || cfg.vblocks_per_worker.is_some()
                || cfg.shared_stores.is_some(),
            "a zero message buffer cannot size Vblocks by Eq. 5 / Eq. 6",
        ),
        (
            cfg.mode != Mode::PushM || program.combiner().is_some(),
            "pushM (message online computing) requires a combiner",
        ),
        (graph.num_vertices() > 0, "graph must have vertices"),
        (
            cfg.mode != Mode::Pull || t <= 64,
            "pull keeps a vertex's mirror workers in a 64-bit mask: at most 64 workers",
        ),
        (
            cfg.mode != Mode::Hybrid
                || matches!(
                    cfg.initial_mode_override,
                    None | Some(Mode::Push | Mode::BPull)
                ),
            "hybrid only alternates push and b-pull",
        ),
        (
            cfg.worker_disks.as_ref().is_none_or(|d| d.0.len() == t),
            "worker_disks count must match workers",
        ),
        (
            cfg.shared_stores.as_ref().is_none_or(|s| s.workers() == t),
            "shared_stores were built for a different worker count",
        ),
        (
            cfg.trace.as_ref().is_none_or(|s| s.num_workers() == t),
            "TraceSink was built for a different worker count",
        ),
        (
            st.as_ref().is_none_or(|st| st.workers as usize == t),
            "resume state was captured for a different worker count",
        ),
        (
            st.as_ref().is_none_or(|st| {
                let pending = st.pending_kind.map(StepKind::mode);
                master::runs_in(cfg.mode, st.cur)
                    && pending.is_none_or(|m| master::runs_in(cfg.mode, m))
            }),
            "resume state's mode is not one this job runs in",
        ),
        (
            st.as_ref()
                .is_none_or(|st| cfg.trace.is_none() || st.trace.is_some()),
            "traced job resumed from an untraced state",
        ),
        (
            match (st.as_ref().and_then(|st| st.trace.as_ref()), &cfg.trace) {
                (Some(states), Some(sink)) => states.len() == sink.shards().len(),
                _ => true,
            },
            "resume state has a different number of trace tracks than the TraceSink",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(JobError::InvalidConfig(why.to_string())),
        None => Ok(st),
    }
}

/// Runs `program` over `graph` under `cfg` and returns the final values
/// and metrics, or a [`JobError`]: the configuration is inconsistent
/// (e.g. `PushM` without a combiner), a worker failure could not be
/// recovered, a budget was exceeded, or the master was halted.
pub fn run_job<P: VertexProgram>(
    program: Arc<P>,
    graph: &Graph,
    cfg: JobConfig,
) -> Result<JobResult<P>, JobError> {
    let resume = validate(&*program, graph, &cfg)?;
    let t = cfg.workers;
    let combinable = program.combiner().is_some() && cfg.combining;

    // Attached stores bring the layout they were built for; a private
    // job takes `vblocks_per_worker`, else Eq. 5 / Eq. 6 under limited
    // memory, else one Vblock per worker.
    let (partition, layout) = match &cfg.shared_stores {
        Some(s) => (Arc::clone(&s.partition), Arc::clone(&s.layout)),
        None => {
            let partition = Partition::range(graph.num_vertices(), t);
            let counts = match cfg.vblocks_per_worker {
                Some(k) => vec![k.max(1); t],
                None if cfg.memory_limited() => {
                    vblock_counts(graph, &partition, cfg.buffer_messages, combinable)
                }
                None => vec![1; t],
            };
            let layout = BlockLayout::new(&partition, &counts);
            (Arc::new(partition), Arc::new(layout))
        }
    };
    let classification = matches!(cfg.mode, Mode::Async).then(|| {
        Arc::new(crate::blockexec::BlockClassification::classify(
            graph, &layout,
        ))
    });
    let vfss: Vec<Arc<dyn Vfs>> = match &cfg.worker_disks {
        Some(d) => d.0.clone(),
        None => (0..t).map(|_| Arc::new(MemVfs::new()) as _).collect(),
    };

    let (endpoints, net_stats, control) = Fabric::mesh_with_control(t);
    // A seeded network-fault schedule attached to the fault plan makes
    // every endpoint's wire unreliable; the ARQ layer absorbs it.
    if let Some(np) = cfg.fault_plan.as_ref().and_then(|p| p.net_plan()) {
        for ep in &endpoints {
            ep.install_faults(Arc::clone(np));
        }
    }
    let agg = AggCtx {
        cfg: &cfg,
        b_total: if cfg.memory_limited() {
            (cfg.buffer_messages as u64).saturating_mul(t as u64)
        } else {
            u64::MAX / 2
        },
        msg_bytes: 4 + P::Message::BYTES as u64,
        combinable,
    };
    let max_steps = program
        .max_supersteps()
        .unwrap_or(u64::MAX)
        .min(cfg.max_supersteps);
    let (rep_tx, rep_rx) = channel();
    std::thread::scope(|scope| {
        let run = drive::Run {
            scope,
            program: &program,
            graph,
            partition,
            layout,
            classification,
            vfss,
            agg,
            master: master::Master::new(&cfg, max_steps, program.tolerance()),
            links: control::Links {
                cmd_txs: Vec::with_capacity(t),
                rep_rx,
            },
            rep_tx,
            control,
            net_base: net_stats.snapshot(),
            net_stats,
            all: (0..t).collect(),
            faults_base: (0, 0, 0),
            reports: Vec::new(),
        };
        run.run(endpoints, resume)
    })
}

/// Job-constant inputs the per-superstep aggregation needs.
struct AggCtx<'a> {
    /// The job configuration.
    cfg: &'a JobConfig,
    /// Cluster-wide message-buffer capacity (the paper's `B`).
    b_total: u64,
    /// Encoded bytes per message (id + payload).
    msg_bytes: u64,
    /// True if messages combine under this configuration.
    combinable: bool,
}

/// Builds the master-side superstep metrics from worker reports, with
/// Eq. 11's inputs, and appends each worker's costs to the cursor's
/// `worker_costs`; prices the step from both under the job's profile. A
/// b-pull superstep updates the cursor's `R_co`.
fn aggregate(
    superstep: u64,
    kind: StepKind,
    reports: &[StepReport],
    net: &NetSnapshot,
    ctx: &AggCtx<'_>,
    st: &mut MasterState,
    wall: f64,
) -> SuperstepMetrics {
    let sem = reports
        .iter()
        .fold(crate::metrics::SemanticBytes::default(), |acc, r| {
            acc.plus(&r.sem)
        });
    let io = reports
        .iter()
        .fold(IoSnapshot::default(), |acc, r| acc.plus(&r.io));
    let sum = |f: fn(&StepReport) -> u64| reports.iter().map(f).sum::<u64>();
    let produced = sum(|r| r.messages_produced);
    let delivered_raw = sum(|r| r.delivered_raw);
    let delivered_distinct = sum(|r| r.delivered_distinct);

    // Push-side quantities: actual when push ran, estimated otherwise.
    // Async supersteps are push-flavoured — the boundary exchange is a
    // real push whose spill and edge traffic were measured.
    let push_ran = matches!(
        kind,
        StepKind::Push | StepKind::PushM | StepKind::Async | StepKind::AsyncThenPush
    );
    let pull_ran = matches!(kind, StepKind::BPull | StepKind::BPullThenPush);
    let mdisk_est = ctx.msg_bytes * produced.saturating_sub(ctx.b_total);
    let (io_e_push, io_mdisk) = if push_ran {
        (sem.push_edge_bytes, sem.msg_spill_bytes)
    } else {
        (sum(|r| r.next_push_edge_bytes), mdisk_est)
    };
    let (io_e_bpull, io_f, io_vrr) = if pull_ran {
        (
            sem.bpull_edge_bytes,
            sem.fragment_aux_bytes,
            sem.svertex_rand_bytes,
        )
    } else {
        (
            sum(|r| r.next_bpull_edge_bytes),
            sum(|r| r.next_bpull_aux_bytes),
            sum(|r| r.next_bpull_vrr_bytes),
        )
    };

    // M_co: observed in (b-)pull supersteps, estimated in push ones.
    let mco = if pull_ran {
        let saved = net.total_saved_messages();
        observe_rco(&mut st.rco, saved, net.total_raw_messages());
        saved
    } else {
        let distinct_est = if delivered_raw > 0 {
            ((delivered_distinct as f64 / delivered_raw as f64) * produced as f64) as u64
        } else {
            produced // unknown: assume no sharing -> M_co estimate 0
        };
        estimate_mco(st.rco, produced, distinct_est.min(produced))
    };

    // Pseudo-round stats: rounds are a max (workers iterate in lockstep
    // between two barriers), the work counts are sums.
    let asy = reports
        .iter()
        .fold(crate::metrics::AsyncStepStats::default(), |mut acc, r| {
            acc.merge(&r.asy);
            acc
        });

    let mut metrics = SuperstepMetrics {
        superstep,
        kind,
        io,
        sem,
        net_out_bytes: net.total_remote_bytes(),
        net_local_bytes: net.local_bytes.iter().sum(),
        net_raw_messages: net.total_raw_messages(),
        net_wire_values: net.wire_values_out.iter().sum(),
        net_saved_messages: net.total_saved_messages(),
        net_requests: net.total_requests(),
        updated: sum(|r| r.updated),
        responders: sum(|r| r.responders),
        messages_produced: produced,
        pending_messages: sum(|r| r.pending_messages),
        qt: QtInputs {
            mco,
            bytes_per_saved: if ctx.combinable { ctx.msg_bytes } else { 4 },
            io_mdisk,
            io_vrr,
            io_e_push,
            io_e_bpull,
            io_f,
        },
        q_metric: 0.0,
        memory_bytes: sum(|r| r.memory_bytes),
        cache_hits: sum(|r| r.cache_hits),
        cache_misses: sum(|r| r.cache_misses),
        cache_evictions: sum(|r| r.cache_evictions),
        modeled_secs: 0.0,
        modeled_net_secs: 0.0,
        wall_secs: wall,
        blocking_secs: reports.iter().map(|r| r.blocking_secs).fold(0.0, f64::max),
        asy,
        max_residual: reports.iter().map(|r| r.max_residual).fold(0.0, f64::max),
    };
    let first = st.worker_costs.len();
    st.worker_costs
        .extend(reports.iter().enumerate().map(|(i, r)| WorkerCost {
            seq_read_bytes: r.io.seq_read_bytes,
            seq_write_bytes: r.io.seq_write_bytes,
            rand_read_bytes: r.io.rand_read_bytes,
            rand_write_bytes: r.io.rand_write_bytes,
            net_bytes: net.out_bytes[i] + net.in_bytes[i],
            messages: r.messages_produced + r.messages_consumed,
            updated: r.updated,
        }));
    metrics.price(&st.worker_costs[first..], &ctx.cfg.profile);
    metrics
}
