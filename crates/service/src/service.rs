//! The multi-tenant `GraphService`.
//!
//! One long-lived service owns a [`Catalog`] of registered graphs, a
//! shared byte-weighted [`SharedEdgeCache`], and a deterministic
//! [`RoundRobinScheduler`]. Jobs are submitted against a registered graph
//! and run concurrently — each on its own thread, each over the *shared*
//! stores and cache, yet byte-identically replayable because the
//! scheduler serializes supersteps across jobs in a seeded, modeled-time
//! order.
//!
//! Admission control bounds the blast radius of any tenant: at most
//! `max_resident_jobs` run at once, at most `max_queued_jobs` wait, and a
//! job's logical-I/O / memory budget is clamped to the service-wide
//! per-job maxima (typed rejection when a request exceeds them; runtime
//! termination via [`JobError::BudgetExceeded`] when a running job does).
//!
//! Two jobs on one registered graph, submitted as a batch under a
//! scheduling pause: the two-job schedule, and with it every shared-cache
//! hit, trace byte and `Q_t` decision, is a pure function of the batch
//! and the service seed (`tests/service.rs` double-runs such a batch and
//! compares the combined Chrome trace byte for byte).
//!
//! ```no_run
//! use hybridgraph_algos::{PageRank, Sssp};
//! use hybridgraph_core::{JobConfig, Mode};
//! use hybridgraph_graph::{Dataset, VertexId};
//! use hybridgraph_service::{GraphService, GraphSpec, JobRequest, ServiceConfig};
//! use std::sync::Arc;
//!
//! let svc = GraphService::new(ServiceConfig::default());
//! svc.register_graph("social", Dataset::LiveJ.build_scaled(2_000), GraphSpec::new(5))?;
//! let job = || JobRequest::new("social", JobConfig::new(Mode::Hybrid, 5).with_buffer(250));
//!
//! let pause = svc.pause_scheduling();
//! let ranks = svc.submit(Arc::new(PageRank::new(5)), job()).unwrap();
//! let paths = svc.submit(Arc::new(Sssp::new(VertexId(0))), job()).unwrap();
//! drop(pause);
//! assert_eq!(ranks.wait().unwrap().metrics.supersteps(), 5);
//! assert!(paths.wait().unwrap().metrics.supersteps() > 1);
//! # Ok::<(), hybridgraph_service::CatalogError>(())
//! ```
//!
//! # Durability
//!
//! A service built with [`GraphService::new_durable`] additionally owns a
//! write-ahead [`ServiceLog`] on a caller-provided VFS. Every control
//! transition appends a record (see [`crate::wal`]); every job gets
//! per-worker [`PrefixVfs`] disks on the same VFS so checkpoints, value
//! stores and message logs survive the process. At each durable
//! superstep cut the engine hands the service an encoded
//! [`MasterState`](hybridgraph_core::MasterState) via the
//! [`BarrierSink`]; the service wraps it with the job's scheduler lane
//! vtime and a full shared-cache snapshot, and fsyncs it *after* the
//! worker checkpoints it refers to — the commit record is the atomic
//! pointer flip of the cut.
//!
//! After a crash (simulated by a seeded
//! [`MasterKillPoint`](hybridgraph_core::MasterKillPoint) hook),
//! [`GraphService::restore`] replays the log: the catalog is rebuilt
//! without re-parsing, the shared cache resumes from its last snapshot,
//! and unfinished jobs come back as [`RecoveredJob`]s —
//! [`GraphService::resume_job`] re-attaches each one from its last
//! durable cut, so a killed-and-restored run is byte-identical (values,
//! traces, `Q_t` audits) to an uninterrupted one under the same seed:
//!
//! ```no_run
//! use hybridgraph_algos::PageRank;
//! use hybridgraph_core::{CheckpointPolicy, FaultPlan, JobConfig, JobError, MasterKillPoint, Mode};
//! use hybridgraph_graph::Dataset;
//! use hybridgraph_service::{GraphService, GraphSpec, JobRequest, ServiceConfig};
//! use hybridgraph_storage::{CodecChoice, MemVfs, Vfs};
//! use std::sync::Arc;
//!
//! let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
//! let cfg = ServiceConfig::default();
//! let svc = GraphService::new_durable(cfg, Arc::clone(&vfs), CodecChoice::None)?;
//! svc.register_graph("social", Dataset::LiveJ.build_scaled(2_000), GraphSpec::new(5)).unwrap();
//! let job = || {
//!     let ckpt = CheckpointPolicy::EveryK(1);
//!     JobConfig::new(Mode::Hybrid, 5).with_buffer(250).with_checkpoint(ckpt)
//! };
//!
//! // The master dies mid-barrier at superstep 2; only `vfs` survives.
//! let kill = FaultPlan::new().master_kill(MasterKillPoint::MidBarrier(2));
//! let req = JobRequest::new("social", job().with_fault_plan(Arc::new(kill)));
//! let ticket = svc.submit(Arc::new(PageRank::new(5)), req).unwrap();
//! assert!(matches!(ticket.wait().unwrap_err(), JobError::Halted { .. }));
//! drop(svc);
//!
//! let (svc, recovered) = GraphService::restore(cfg, vfs)?;
//! let resumed = svc.resume_job(Arc::new(PageRank::new(5)), job(), &recovered[0]).unwrap();
//! assert_eq!(resumed.wait().unwrap().metrics.supersteps(), 5);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Degradation is graceful, not binary: transient log-I/O errors are
//! retried with typed, *modeled* backoff ([`crate::retry`]), and while
//! the recovery backlog exceeds `recovery_shed_threshold` fresh
//! submissions are shed with [`AdmissionError::Overloaded`] so recovery
//! always wins the race for resident slots.

use crate::catalog::{Catalog, CatalogError, GraphSpec};
use crate::retry::RetryPolicy;
use crate::scheduler::RoundRobinScheduler;
use crate::wal::WalRecord;
use hybridgraph_core::program::VertexProgram;
use hybridgraph_core::runner::{run_job, JobError, JobResult};
use hybridgraph_core::{BarrierSink, JobConfig, ResumeState, WorkerDisks};
use hybridgraph_graph::Graph;
use hybridgraph_storage::{
    frame, CacheSnapshot, CodecChoice, PrefixVfs, ServiceLog, SharedEdgeCache, Vfs,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};

/// Service-wide limits and the determinism seed.
#[derive(Copy, Clone, Debug)]
pub struct ServiceConfig {
    /// Jobs running concurrently; further admissions queue.
    pub max_resident_jobs: usize,
    /// Queue depth; admissions beyond it are rejected.
    pub max_queued_jobs: usize,
    /// Shared gather-cache capacity in bytes.
    pub cache_bytes: usize,
    /// Cache shards — one per worker slot; registrations asking for more
    /// workers than this are refused.
    pub cache_slots: usize,
    /// Seed for the scheduler's round-robin tiebreaks.
    pub seed: u64,
    /// Service-wide per-job logical-I/O ceiling (requests above it are
    /// rejected; jobs without a requested budget inherit it).
    pub max_job_logical_io: Option<u64>,
    /// Service-wide per-job memory ceiling, same semantics.
    pub max_job_memory: Option<u64>,
    /// While more than this many recovered jobs still await
    /// [`GraphService::resume_job`], fresh submissions are shed with
    /// [`AdmissionError::Overloaded`].
    pub recovery_shed_threshold: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_resident_jobs: 4,
            max_queued_jobs: 16,
            cache_bytes: 1 << 20,
            cache_slots: 16,
            seed: 1,
            max_job_logical_io: None,
            max_job_memory: None,
            recovery_shed_threshold: 8,
        }
    }
}

/// A job submission: which registered graph, under what configuration.
///
/// The job runs on the partition and Vblock layout the graph's stores
/// were built for (its own `vblocks_per_worker` is not read), with the
/// registered `workers` and `codec`; the service installs the shared
/// cache, the pacer, and the clamped budgets.
pub struct JobRequest {
    /// Name of the registered graph to run over.
    pub graph: String,
    /// The job's configuration (mode, buffers, tracing, fault plan, ...).
    pub cfg: JobConfig,
}

impl JobRequest {
    /// A request to run over `graph` under `cfg`.
    pub fn new(graph: impl Into<String>, cfg: JobConfig) -> JobRequest {
        JobRequest {
            graph: graph.into(),
            cfg,
        }
    }
}

/// Why a submission was refused at admission.
#[derive(Debug)]
pub enum AdmissionError {
    /// The named graph is not registered.
    UnknownGraph(String),
    /// Both the resident slots and the queue are full.
    QueueFull {
        /// Jobs currently running.
        resident: usize,
        /// Jobs currently queued.
        queued: usize,
    },
    /// The request asks for a budget above the service-wide per-job
    /// ceiling.
    BudgetTooLarge {
        /// `"logical_io"` or `"memory"`.
        resource: &'static str,
        /// Requested budget.
        requested: u64,
        /// Service ceiling.
        limit: u64,
    },
    /// The request's trace sink was built for a different worker count
    /// than the graph's registered spec.
    TraceWorkerMismatch {
        /// The registered worker count.
        expected: usize,
        /// The sink's worker count.
        got: usize,
    },
    /// Fresh submissions are shed while the crash-recovery backlog
    /// exceeds the configured threshold.
    Overloaded {
        /// Recovered jobs still awaiting resumption.
        backlog: usize,
        /// The shedding threshold.
        threshold: usize,
    },
    /// The admission record could not be made durable.
    LogFailed(String),
}

impl AdmissionError {
    /// Stable numeric code for wire protocols: clients match on the code
    /// instead of parsing the display string. Codes are append-only —
    /// never renumber.
    ///
    /// | code | variant               |
    /// |------|-----------------------|
    /// | 1    | `UnknownGraph`        |
    /// | 2    | `QueueFull`           |
    /// | 3    | `BudgetTooLarge`      |
    /// | 4    | `TraceWorkerMismatch` |
    /// | 5    | `Overloaded`          |
    /// | 6    | `LogFailed`           |
    pub fn code(&self) -> u16 {
        match self {
            AdmissionError::UnknownGraph(_) => 1,
            AdmissionError::QueueFull { .. } => 2,
            AdmissionError::BudgetTooLarge { .. } => 3,
            AdmissionError::TraceWorkerMismatch { .. } => 4,
            AdmissionError::Overloaded { .. } => 5,
            AdmissionError::LogFailed(_) => 6,
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownGraph(n) => write!(f, "no graph named '{n}' is registered"),
            AdmissionError::QueueFull { resident, queued } => write!(
                f,
                "admission refused: {resident} resident and {queued} queued jobs"
            ),
            AdmissionError::BudgetTooLarge {
                resource,
                requested,
                limit,
            } => write!(
                f,
                "requested {resource} budget {requested} exceeds the per-job limit {limit}"
            ),
            AdmissionError::TraceWorkerMismatch { expected, got } => write!(
                f,
                "trace sink built for {got} workers but the graph is registered for {expected}"
            ),
            AdmissionError::Overloaded { backlog, threshold } => write!(
                f,
                "shedding while {backlog} recovered jobs exceed the resume backlog threshold {threshold}"
            ),
            AdmissionError::LogFailed(e) => {
                write!(f, "admission could not be made durable: {e}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Handle to a submitted job; [`JobTicket::wait`] blocks for its result.
pub struct JobTicket<P: VertexProgram> {
    rx: Receiver<Result<JobResult<P>, JobError>>,
    job_id: u64,
    graph: String,
}

impl<P: VertexProgram> JobTicket<P> {
    /// Blocks until the job finishes and returns its result.
    pub fn wait(self) -> Result<JobResult<P>, JobError> {
        self.rx.recv().expect("job thread died without a result")
    }

    /// Service-wide job id (admission order).
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The registered graph the job runs over.
    pub fn graph(&self) -> &str {
        &self.graph
    }
}

impl<P: VertexProgram> fmt::Debug for JobTicket<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobTicket")
            .field("job_id", &self.job_id)
            .field("graph", &self.graph)
            .finish()
    }
}

/// An unfinished job reconstructed from the service log by
/// [`GraphService::restore`]. Feed it to [`GraphService::resume_job`] to
/// continue it from its last durable cut (or from scratch if it never
/// reached one).
pub struct RecoveredJob {
    /// The job id it held — and keeps — across the restart.
    pub job_id: u64,
    /// The registered graph it runs over.
    pub graph: String,
    /// Whether the job was still queued (never held a lane) at the crash.
    pub queued: bool,
    /// The superstep of its last durable cut; `None` restarts from load.
    pub superstep: Option<u64>,
    lane_vtime: f64,
    state: Option<Vec<u8>>,
}

impl fmt::Debug for RecoveredJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveredJob")
            .field("job_id", &self.job_id)
            .field("graph", &self.graph)
            .field("queued", &self.queued)
            .field("superstep", &self.superstep)
            .field("lane_vtime", &self.lane_vtime)
            .field(
                "state_bytes",
                &self.state.as_ref().map(|s| s.len()).unwrap_or(0),
            )
            .finish()
    }
}

type Launch = Box<dyn FnOnce(usize) + Send>;

struct State {
    catalog: Catalog,
    resident: usize,
    queue: VecDeque<Launch>,
    next_job: u64,
    recovery_backlog: usize,
}

/// The durable half of a service: the WAL and its retry policy (backoff
/// is modeled — no wall-clock sleeps anywhere).
struct Durable {
    vfs: Arc<dyn Vfs>,
    log: Mutex<ServiceLog>,
    retry: RetryPolicy,
}

impl Durable {
    fn new(vfs: Arc<dyn Vfs>, log: ServiceLog) -> Durable {
        Durable {
            vfs,
            log: Mutex::new(log),
            retry: RetryPolicy::default(),
        }
    }

    /// Appends one record, absorbing transient errors under the retry
    /// policy.
    fn append(&self, rec: &WalRecord) -> io::Result<()> {
        let (kind, body) = frame::encode_tagged(rec);
        let log = self.log.lock().unwrap();
        self.retry.run(|| log.append(kind, &body)).map(drop)
    }

    /// Append whose failure is *recoverable by replay semantics* (a
    /// missing `JobStarted` re-queues the job; a missing `JobFinished`
    /// re-runs it to the same result) — dropped, not propagated.
    fn append_lossy(&self, rec: &WalRecord) {
        let _ = self.append(rec);
    }

    fn worker_disks(&self, job_id: u64, workers: usize) -> WorkerDisks {
        WorkerDisks(
            (0..workers)
                .map(|i| {
                    Arc::new(PrefixVfs::new(
                        Arc::clone(&self.vfs),
                        format!("j{job_id}w{i}_"),
                    )) as Arc<dyn Vfs>
                })
                .collect(),
        )
    }
}

struct Inner {
    cfg: ServiceConfig,
    sched: Arc<RoundRobinScheduler>,
    cache: Arc<SharedEdgeCache>,
    durable: Option<Durable>,
    state: Mutex<State>,
}

impl Inner {
    /// Job-completion bookkeeping: unpin the graph, free the resident
    /// slot, and admit queued jobs. Leaving the scheduler lane and
    /// joining the successors' lanes happens in one scheduler critical
    /// section, so no grant slips between completion and admission.
    fn finish(self: &Arc<Inner>, lane: usize, graph: &str) {
        let mut st = self.state.lock().unwrap();
        st.catalog.unpin(graph);
        st.resident -= 1;
        let mut launches = Vec::new();
        while st.resident < self.cfg.max_resident_jobs {
            match st.queue.pop_front() {
                Some(l) => {
                    st.resident += 1;
                    launches.push(l);
                }
                None => break,
            }
        }
        let lanes = self.sched.leave_joining(lane, launches.len());
        drop(st);
        for (launch, lane) in launches.into_iter().zip(lanes) {
            launch(lane);
        }
    }
}

/// The per-job barrier sink a durable service installs into every job:
/// wraps the engine's encoded master snapshot with the lane's virtual
/// time and a full shared-cache snapshot, and appends the commit record.
/// By the [`BarrierSink`] contract the engine calls this only after the
/// cut's worker checkpoints are durable.
struct ServiceBarrierSink {
    inner: Arc<Inner>,
    job_id: u64,
    lane: usize,
}

impl fmt::Debug for ServiceBarrierSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceBarrierSink")
            .field("job_id", &self.job_id)
            .field("lane", &self.lane)
            .finish()
    }
}

impl BarrierSink for ServiceBarrierSink {
    fn commit(&self, superstep: u64, state: &[u8]) -> io::Result<()> {
        let d = self
            .inner
            .durable
            .as_ref()
            .expect("barrier sink on a non-durable service");
        d.append(&WalRecord::JobBarrier {
            job_id: self.job_id,
            superstep,
            lane_vtime: self.inner.sched.lane_vtime(self.lane),
            state: state.to_vec(),
            cache: self.inner.cache.snapshot(),
        })
    }
}

/// Refuses a spec with more worker slots than the shared cache has
/// shards: at registration, and when a log replays under another
/// `cache_slots`.
fn fits_cache(spec: &GraphSpec, slots: usize) -> Result<(), CatalogError> {
    if spec.workers > slots {
        return Err(CatalogError::TooManyWorkers {
            workers: spec.workers,
            slots,
        });
    }
    Ok(())
}

/// The resident engine: graph catalog + shared cache + job scheduler.
pub struct GraphService {
    inner: Arc<Inner>,
}

impl GraphService {
    /// An in-memory (non-durable) service under `cfg`.
    pub fn new(cfg: ServiceConfig) -> GraphService {
        Self::build(cfg, None)
    }

    /// A durable service: creates a fresh write-ahead log (under `codec`)
    /// on `vfs` and journals every control transition to it. Job worker
    /// disks are namespaced onto the same VFS, so
    /// [`GraphService::restore`] on that VFS revives the whole service
    /// after a crash.
    pub fn new_durable(
        cfg: ServiceConfig,
        vfs: Arc<dyn Vfs>,
        codec: CodecChoice,
    ) -> io::Result<GraphService> {
        let log = ServiceLog::create(vfs.as_ref(), codec)?;
        Ok(Self::build(cfg, Some(Durable::new(vfs, log))))
    }

    /// Whether a service log exists on `vfs` (i.e. whether
    /// [`GraphService::restore`] has anything to restore).
    pub fn log_exists(vfs: &dyn Vfs) -> bool {
        ServiceLog::exists(vfs)
    }

    /// Revives a durable service from the log on `vfs`: heals any torn
    /// tail, replays the records into a fresh catalog (graphs are decoded
    /// from their registration blobs — no source re-parse), restores the
    /// shared cache from its last durable snapshot, and returns every
    /// unfinished job as a [`RecoveredJob`] in admission order. The
    /// recovered jobs count as backlog for admission shedding until
    /// resumed. A log written for another `cache_slots` (a graph wider
    /// than the cache, a snapshot of another shard count) is an error.
    pub fn restore(
        cfg: ServiceConfig,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<(GraphService, Vec<RecoveredJob>)> {
        struct JobInfo {
            graph: String,
            started: bool,
            finished: bool,
            barrier: Option<(u64, f64, Vec<u8>)>,
        }

        let (log, records) = ServiceLog::open(vfs.as_ref())?;
        let mut graphs: Vec<(String, u32, GraphSpec, Arc<Graph>)> = Vec::new();
        let mut jobs: BTreeMap<u64, JobInfo> = BTreeMap::new();
        let mut cache_snap: Option<CacheSnapshot> = None;
        let mut next_job = 0u64;
        for rec in &records {
            match frame::decode_tagged(rec.kind, &rec.body)? {
                WalRecord::GraphRegistered {
                    name,
                    id,
                    spec,
                    graph,
                } => graphs.push((name, id, spec, graph)),
                WalRecord::GraphEvicted { name, .. } => graphs.retain(|(n, ..)| n != &name),
                WalRecord::JobAdmitted { job_id, graph } => {
                    next_job = next_job.max(job_id + 1);
                    jobs.insert(
                        job_id,
                        JobInfo {
                            graph,
                            started: false,
                            finished: false,
                            barrier: None,
                        },
                    );
                }
                WalRecord::JobStarted { job_id } => {
                    if let Some(j) = jobs.get_mut(&job_id) {
                        j.started = true;
                    }
                }
                WalRecord::JobBarrier {
                    job_id,
                    superstep,
                    lane_vtime,
                    state,
                    cache,
                } => {
                    if let Some(j) = jobs.get_mut(&job_id) {
                        j.barrier = Some((superstep, lane_vtime, state));
                    }
                    cache_snap = Some(cache);
                }
                WalRecord::JobFinished { job_id, cache } => {
                    if let Some(j) = jobs.get_mut(&job_id) {
                        j.finished = true;
                    }
                    cache_snap = Some(cache);
                }
            }
        }

        let svc = Self::build(cfg, Some(Durable::new(vfs, log)));
        {
            let mut st = svc.inner.state.lock().unwrap();
            for (name, id, spec, graph) in graphs {
                fits_cache(&spec, cfg.cache_slots)
                    .and_then(|()| st.catalog.register_with_id(&name, graph, spec, id))
                    .map_err(|e| io::Error::other(format!("catalog replay failed: {e}")))?;
            }
            st.next_job = next_job;
        }
        if let Some(snap) = &cache_snap {
            svc.inner.cache.restore(snap)?;
        }
        let recovered: Vec<RecoveredJob> = jobs
            .into_iter()
            .filter(|(_, j)| !j.finished)
            .map(|(job_id, j)| RecoveredJob {
                job_id,
                graph: j.graph,
                queued: !j.started,
                superstep: j.barrier.as_ref().map(|b| b.0),
                lane_vtime: j.barrier.as_ref().map(|b| b.1).unwrap_or(0.0),
                state: j.barrier.map(|b| b.2),
            })
            .collect();
        svc.inner.state.lock().unwrap().recovery_backlog = recovered.len();
        Ok((svc, recovered))
    }

    fn build(cfg: ServiceConfig, durable: Option<Durable>) -> GraphService {
        assert!(cfg.max_resident_jobs >= 1, "need at least one job slot");
        GraphService {
            inner: Arc::new(Inner {
                cfg,
                sched: RoundRobinScheduler::new(cfg.seed),
                cache: Arc::new(SharedEdgeCache::new(
                    cfg.cache_slots,
                    cfg.cache_bytes.max(1),
                )),
                durable,
                state: Mutex::new(State {
                    catalog: Catalog::new(),
                    resident: 0,
                    queue: VecDeque::new(),
                    next_job: 0,
                    recovery_backlog: 0,
                }),
            }),
        }
    }

    /// Registers `graph` under `name`, building its stores once. Returns
    /// the graph id. On a durable service the registration (spec and
    /// graph blob included) is journaled before this returns; a journal
    /// failure rolls the registration back.
    pub fn register_graph(
        &self,
        name: &str,
        graph: Graph,
        spec: GraphSpec,
    ) -> Result<u32, CatalogError> {
        fits_cache(&spec, self.inner.cfg.cache_slots)?;
        let graph = Arc::new(graph);
        let mut st = self.inner.state.lock().unwrap();
        let id = st.catalog.register(name, Arc::clone(&graph), spec)?;
        if let Some(d) = &self.inner.durable {
            if let Err(e) = d.append(&WalRecord::GraphRegistered {
                name: name.to_string(),
                id,
                spec,
                graph,
            }) {
                st.catalog.evict(name).expect("just registered, unpinned");
                return Err(CatalogError::Io(e.to_string()));
            }
        }
        Ok(id)
    }

    /// Evicts a registered graph; fails while any job holds a pin. On
    /// success the shared cache drops every entry of the graph.
    pub fn evict(&self, name: &str) -> Result<(), CatalogError> {
        let id = {
            let mut st = self.inner.state.lock().unwrap();
            st.catalog.evict(name)?
        };
        self.inner.cache.purge_graph(id);
        if let Some(d) = &self.inner.durable {
            d.append(&WalRecord::GraphEvicted {
                name: name.to_string(),
                id,
            })
            .map_err(|e| CatalogError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// The registered worker count of `name` (build trace sinks for it).
    pub fn workers_of(&self, name: &str) -> Option<usize> {
        let st = self.inner.state.lock().unwrap();
        st.catalog.get(name).map(|g| g.spec.workers)
    }

    /// Suspends scheduler grants until the returned guard drops. Hold it
    /// across a *batch* of [`GraphService::submit`] calls to make the
    /// whole multi-job schedule — and with it every shared-cache
    /// interaction, trace byte and `Q_t` decision — a pure function of
    /// the batch and the service seed, independent of thread timing: no
    /// job's first unit can be granted before the last job of the batch
    /// has joined the cohort.
    pub fn pause_scheduling(&self) -> SchedulingPause<'_> {
        self.inner.sched.freeze();
        SchedulingPause { service: self }
    }

    /// Submits a job. Runs immediately if a resident slot is free, queues
    /// if the queue has room, and returns a typed error otherwise. The
    /// returned ticket's [`JobTicket::wait`] blocks for the result.
    pub fn submit<P: VertexProgram>(
        &self,
        program: Arc<P>,
        req: JobRequest,
    ) -> Result<JobTicket<P>, AdmissionError> {
        self.admit(program, req.graph, req.cfg, None)
    }

    /// Re-attaches a job recovered by [`GraphService::restore`]. The job
    /// keeps its original id and worker disks; if it reached a durable
    /// cut its master snapshot is installed as the engine's resume state
    /// and its scheduler lane rejoins at the recorded virtual time, so
    /// the continued run is byte-identical to an uninterrupted one.
    /// `cfg` must carry the same job-level knobs (mode, buffers, seed,
    /// trace sink, fault plan) as the original submission.
    pub fn resume_job<P: VertexProgram>(
        &self,
        program: Arc<P>,
        cfg: JobConfig,
        rec: &RecoveredJob,
    ) -> Result<JobTicket<P>, AdmissionError> {
        assert!(
            self.inner.durable.is_some(),
            "resume_job needs a durable service"
        );
        self.admit(program, rec.graph.clone(), cfg, Some(rec))
    }

    /// Common admission path of [`submit`](Self::submit) (fresh jobs) and
    /// [`resume_job`](Self::resume_job) (recovered ones).
    fn admit<P: VertexProgram>(
        &self,
        program: Arc<P>,
        graph_name: String,
        cfg: JobConfig,
        resume: Option<&RecoveredJob>,
    ) -> Result<JobTicket<P>, AdmissionError> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();

        // Shed fresh load while recovery still owns the backlog; resumed
        // jobs are the backlog draining and always pass.
        if resume.is_none() && st.recovery_backlog > inner.cfg.recovery_shed_threshold {
            return Err(AdmissionError::Overloaded {
                backlog: st.recovery_backlog,
                threshold: inner.cfg.recovery_shed_threshold,
            });
        }

        let (spec, stores, graph) = {
            let reg = st
                .catalog
                .get(&graph_name)
                .ok_or_else(|| AdmissionError::UnknownGraph(graph_name.clone()))?;
            (reg.spec, reg.stores.clone(), Arc::clone(&reg.graph))
        };

        if let Some(sink) = &cfg.trace {
            if sink.num_workers() != spec.workers {
                return Err(AdmissionError::TraceWorkerMismatch {
                    expected: spec.workers,
                    got: sink.num_workers(),
                });
            }
        }
        let io_budget = clamp_budget(
            "logical_io",
            cfg.logical_io_budget,
            inner.cfg.max_job_logical_io,
        )?;
        let mem_budget = clamp_budget("memory", cfg.memory_budget, inner.cfg.max_job_memory)?;

        // Effective configuration: the stores bring their worker count
        // and layout, the codec comes from the registered spec, the
        // shared cache and clamped budgets are installed, the pacer at
        // launch.
        let mut cfg = cfg
            .with_shared_stores(stores)
            .with_shared_cache(Arc::clone(&inner.cache))
            .with_codec(spec.codec);
        cfg.logical_io_budget = io_budget;
        cfg.memory_budget = mem_budget;

        let job_id = match resume {
            Some(rec) => rec.job_id,
            None => st.next_job,
        };
        if let Some(d) = &inner.durable {
            // Admission is durable before it is visible; worker disks are
            // namespaced per job id so a restart finds the checkpoints
            // the barrier records point at.
            if resume.is_none() {
                d.append(&WalRecord::JobAdmitted {
                    job_id,
                    graph: graph_name.clone(),
                })
                .map_err(|e| AdmissionError::LogFailed(e.to_string()))?;
            }
            cfg = cfg.with_worker_disks(d.worker_disks(job_id, spec.workers));
        }
        if let Some(rec) = resume {
            if let Some(state) = &rec.state {
                cfg = cfg.with_resume(ResumeState(Arc::new(state.clone())));
            }
            st.recovery_backlog = st.recovery_backlog.saturating_sub(1);
        } else {
            st.next_job += 1;
        }
        st.catalog.pin(&graph_name).expect("looked up above");

        let (tx, rx) = channel::<Result<JobResult<P>, JobError>>();
        let inner2 = Arc::clone(inner);
        let gname = graph_name.clone();
        let launch: Launch = Box::new(move |lane: usize| {
            let pacer = inner2.sched.handle(lane);
            let mut cfg = cfg.with_pacer(pacer);
            if let Some(d) = &inner2.durable {
                d.append_lossy(&WalRecord::JobStarted { job_id });
                cfg = cfg.with_barrier_sink(Arc::new(ServiceBarrierSink {
                    inner: Arc::clone(&inner2),
                    job_id,
                    lane,
                }));
            }
            std::thread::spawn(move || {
                let res = run_job(Arc::clone(&program), &graph, cfg);
                if matches!(res, Err(JobError::Halted { .. })) {
                    // A simulated master crash: the control plane is
                    // notionally dead. Leave the lane so co-resident jobs
                    // cannot deadlock on the cohort barrier, but keep the
                    // slot, the pin and the queue untouched — restore()
                    // replays them from the log, not from this process.
                    inner2.sched.leave(lane);
                } else {
                    if let Some(d) = &inner2.durable {
                        d.append_lossy(&WalRecord::JobFinished {
                            job_id,
                            cache: inner2.cache.snapshot(),
                        });
                    }
                    // Bookkeeping before the result is delivered: a
                    // waiter unblocked by the send already sees the slot
                    // freed, the pin released and any queued successor
                    // launched.
                    inner2.finish(lane, &gname);
                }
                tx.send(res).ok();
            });
        });

        let resume_vtime = resume.and_then(|r| (!r.queued).then_some(r.lane_vtime));
        if st.resident < inner.cfg.max_resident_jobs {
            st.resident += 1;
            let lane = match resume_vtime {
                Some(v) => inner.sched.join_at(v),
                None => inner.sched.join(),
            };
            drop(st);
            launch(lane);
        } else if st.queue.len() < inner.cfg.max_queued_jobs {
            st.queue.push_back(launch);
        } else {
            st.catalog.unpin(&graph_name);
            return Err(AdmissionError::QueueFull {
                resident: st.resident,
                queued: st.queue.len(),
            });
        }
        Ok(JobTicket {
            rx,
            job_id,
            graph: graph_name,
        })
    }

    /// Jobs currently running.
    pub fn resident_jobs(&self) -> usize {
        self.inner.state.lock().unwrap().resident
    }

    /// Jobs currently queued.
    pub fn queued_jobs(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Registered graphs.
    pub fn registered_graphs(&self) -> usize {
        self.inner.state.lock().unwrap().catalog.len()
    }

    /// Current pins of a registered graph.
    pub fn pins_of(&self, name: &str) -> Option<usize> {
        let st = self.inner.state.lock().unwrap();
        st.catalog.get(name).map(|g| g.pins())
    }

    /// Whether this service journals to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Recovered jobs still awaiting [`GraphService::resume_job`].
    pub fn recovery_backlog(&self) -> usize {
        self.inner.state.lock().unwrap().recovery_backlog
    }

    /// Bytes in the service log (0 on a non-durable service).
    pub fn service_log_bytes(&self) -> u64 {
        self.inner
            .durable
            .as_ref()
            .map(|d| d.log.lock().unwrap().len_bytes())
            .unwrap_or(0)
    }
}

impl fmt::Debug for GraphService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock().unwrap();
        f.debug_struct("GraphService")
            .field("graphs", &st.catalog.len())
            .field("resident", &st.resident)
            .field("queued", &st.queue.len())
            .field("durable", &self.inner.durable.is_some())
            .finish()
    }
}

/// Scheduler-grant suspension returned by
/// [`GraphService::pause_scheduling`]; grants resume when it drops.
pub struct SchedulingPause<'a> {
    service: &'a GraphService,
}

impl Drop for SchedulingPause<'_> {
    fn drop(&mut self) {
        self.service.inner.sched.thaw();
    }
}

/// Clamps a requested budget against the service ceiling: requests above
/// it are typed rejections; absent requests inherit the ceiling.
fn clamp_budget(
    resource: &'static str,
    requested: Option<u64>,
    limit: Option<u64>,
) -> Result<Option<u64>, AdmissionError> {
    match (requested, limit) {
        (Some(r), Some(l)) if r > l => Err(AdmissionError::BudgetTooLarge {
            resource,
            requested: r,
            limit: l,
        }),
        (Some(r), _) => Ok(Some(r)),
        (None, l) => Ok(l),
    }
}
