//! HybridGraph's engine — the paper's contribution.
//!
//! This crate implements the vertex-centric BSP engine of *Hybrid
//! Pulling/Pushing for I/O-Efficient Distributed and Iterative Graph
//! Computing* (SIGMOD 2016) on top of the graph/storage/net substrates:
//!
//! * [`program`] — the decoupled computing functions of §5.2: one
//!   [`VertexProgram`] expresses `update()` plus the shared message
//!   generator used by both `pushRes()` and `pullRes()`.
//! * `modes` — the four message-handling strategies the paper compares:
//!   `push` (Giraph-style spill-to-disk), `pushm` (MOCgraph-style message
//!   online computing), `pull` (per-vertex pulling with an LRU vertex
//!   cache, the disk-extended GraphLab analogue) and `bpull` (the paper's
//!   block-centric pulling over VE-BLOCK, Algorithms 1–2).
//! * [`switch`] — the hybrid solution of §5: Theorem 2's initial-mode rule,
//!   the `Q_t` performance metric (Eq. 11) and the Δt = 2 predictor.
//! * [`runner`] — the master: one thread per computational node, BSP
//!   barriers, termination detection, per-superstep metric aggregation and
//!   mode switching (`runSwitch`, Fig. 6).
//! * [`metrics`] — per-superstep and per-job measurements: byte counts per
//!   access class, semantic I/O quantities (`IO(V^t)`, `IO(Ē^t)`,
//!   `IO(E^t)`, `IO(F^t)`, `IO(V^t_rr)`, `IO(M_disk)`), network traffic,
//!   memory usage, and modeled time under a device profile.
//! * [`fault`] — deterministic, seedable fault injection
//!   ([`FaultPlan`]) that kills chosen workers at chosen
//!   supersteps; paired with superstep-boundary checkpointing
//!   ([`CheckpointPolicy`]) and the runner's
//!   respawn-and-rollback recovery path.

pub(crate) mod bitset;
pub(crate) mod blockexec;
pub mod config;
pub mod fault;
pub(crate) mod frontier;
pub mod metrics;
pub(crate) mod modes;
pub mod pacer;
pub mod program;
pub mod runner;
pub(crate) mod scratch;
pub mod shared;
pub mod snapshot;
pub mod switch;
pub(crate) mod worker;

pub use config::{
    BarrierSink, CheckpointPolicy, JobConfig, Mode, ModeLabel, ProgressSink, ResumeState,
    WorkerDisks,
};
pub use fault::{FaultPhase, FaultPlan, MasterKillPoint};
pub use metrics::{
    AsyncStepStats, FailureEvent, JobMetrics, NetOverhead, RecoveryMetrics, SemanticBytes,
    StepKind, StepReport, SuperstepMetrics, WorkerCost,
};
pub use pacer::StepPacer;
pub use program::{GraphInfo, Update, VertexProgram};
pub use runner::{run_job, JobError, JobResult};
pub use shared::SharedStores;
pub use snapshot::{adaptive_spacing_secs, MasterState, MtbfEstimator};
pub use switch::{
    async_gain, b_lower_bound, decode_qt_audits, encode_qt_audits, q_metric, AsyncCostInputs,
};
