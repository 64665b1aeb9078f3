//! Job configuration.

use crate::fault::FaultPlan;
use crate::pacer::StepPacer;
use crate::shared::SharedStores;
use hybridgraph_storage::frame::{Field, PayloadReader, PayloadWriter, Via};
use hybridgraph_storage::{CodecChoice, DeviceProfile, SharedEdgeCache, Vfs};
use std::io;
use std::sync::Arc;

/// Where a durable master commits its per-barrier snapshot. Installed by
/// the durable `GraphService` (which appends a record to its write-ahead
/// service log); `run_job` calls [`BarrierSink::commit`] at every
/// superstep barrier *after* worker checkpoints are on disk, so a commit
/// always references a restorable cut.
pub trait BarrierSink: Send + Sync + std::fmt::Debug {
    /// Durably record the master snapshot taken after `superstep`.
    fn commit(&self, superstep: u64, state: &[u8]) -> io::Result<()>;
}

/// Observer for a running job's coarse progress: the load phase and each
/// completed superstep barrier. Installed via
/// [`JobConfig::with_progress`]; the gateway uses it to stream superstep
/// events to subscribed clients. Calls happen on the master thread
/// *after* the superstep's metrics are final, and the sink must not
/// block for long — it is on the barrier path. Progress reporting is
/// observation only: it never touches modeled time or I/O accounting,
/// so attaching a sink cannot perturb byte-identical replay.
pub trait ProgressSink: Send + Sync + std::fmt::Debug {
    /// The graph is loaded and partitioned; `modeled_secs` is the modeled
    /// load time.
    fn loaded(&self, modeled_secs: f64) {
        let _ = modeled_secs;
    }
    /// Superstep `superstep` completed under `mode` taking `modeled_secs`
    /// of modeled time.
    fn superstep(&self, superstep: u64, mode: Mode, modeled_secs: f64);
}

/// An encoded master snapshot a resumed job restarts from (the bytes a
/// [`BarrierSink`] committed at the job's last barrier).
#[derive(Clone)]
pub struct ResumeState(pub Arc<Vec<u8>>);

impl std::fmt::Debug for ResumeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumeState")
            .field("bytes", &self.0.len())
            .finish()
    }
}

/// Per-worker disk overrides: worker `i` mounts `disks[i]` instead of a
/// private `MemVfs`. The durable service passes namespaced views
/// (`PrefixVfs`) over its persistent VFS, so checkpoints and spill files
/// survive a service restart under stable names.
#[derive(Clone)]
pub struct WorkerDisks(pub Vec<Arc<dyn Vfs>>);

impl std::fmt::Debug for WorkerDisks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerDisks")
            .field("workers", &self.0.len())
            .finish()
    }
}

/// Which message-handling strategy a job runs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Mode {
    /// Giraph-style push: messages spill to disk past the buffer.
    #[default]
    Push,
    /// MOCgraph-style push with message online computing (requires a
    /// combiner).
    PushM,
    /// Per-vertex pulling with an LRU vertex cache (disk-extended GraphLab
    /// PowerGraph analogue).
    Pull,
    /// The paper's block-centric pulling over VE-BLOCK.
    BPull,
    /// Adaptive switching between `Push` and `BPull` (the paper's hybrid).
    Hybrid,
    /// GraphHP-style hybrid sync/async block execution: block-interior
    /// vertices iterate in-place to a residual threshold between global
    /// barriers (pseudo-supersteps), while block-boundary messages queue
    /// for the barrier exactly as in push. `switch::decide` may alternate
    /// this with `Push`/`BPull` per superstep via the extended `Q_t`.
    Async,
}

impl Mode {
    /// All modes: the paper's five in the order its figures list them,
    /// then `Async`. Serialized mode tags are positions in this array
    /// (see `snapshot`'s declarations), so new modes go at the end.
    pub const ALL: [Mode; 6] = [
        Mode::Push,
        Mode::PushM,
        Mode::Pull,
        Mode::BPull,
        Mode::Hybrid,
        Mode::Async,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Push => "push",
            Mode::PushM => "pushM",
            Mode::Pull => "pull",
            Mode::BPull => "b-pull",
            Mode::Hybrid => "hybrid",
            Mode::Async => "async",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "push" => Ok(Mode::Push),
            "pushM" | "pushm" => Ok(Mode::PushM),
            "pull" => Ok(Mode::Pull),
            "b-pull" | "bpull" => Ok(Mode::BPull),
            "hybrid" => Ok(Mode::Hybrid),
            "async" => Ok(Mode::Async),
            other => Err(format!(
                "unknown mode '{other}'; valid modes: push, pushM, pull, \
                 b-pull, hybrid, async"
            )),
        }
    }
}

/// A mode stored as its [`Mode::label`] (gateway job options and progress
/// events, the `Q_t` audit's mode columns). Only the six labels read back.
pub struct ModeLabel;

impl Via<Mode> for ModeLabel {
    const MIN_BYTES: usize = String::MIN_BYTES;
    fn put(mode: &Mode, w: &mut PayloadWriter) {
        w.put_str(mode.label());
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Mode> {
        let label = r.get_str()?;
        Mode::ALL
            .into_iter()
            .find(|m| m.label() == label)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown mode label"))
    }
}

impl Via<&'static str> for ModeLabel {
    const MIN_BYTES: usize = String::MIN_BYTES;
    fn put(label: &&'static str, w: &mut PayloadWriter) {
        w.put_str(label);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<&'static str> {
        <ModeLabel as Via<Mode>>::get(r).map(Mode::label)
    }
}

/// When the engine takes superstep-boundary checkpoints.
///
/// Any policy other than [`CheckpointPolicy::Never`] also takes a
/// *baseline* checkpoint right after loading (superstep 0), so a failure
/// in any superstep has a consistent cut to roll back to.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CheckpointPolicy {
    /// No checkpoints; a worker failure fails the job.
    #[default]
    Never,
    /// Checkpoint after every `k`-th superstep (`k >= 1`).
    EveryK(u64),
    /// Checkpoint when the modeled compute time accumulated since the
    /// last checkpoint exceeds [`JobConfig::adaptive_checkpoint_factor`]
    /// times the modeled cost of writing one — a Young-style interval
    /// driven entirely by the deterministic cost model, so the schedule
    /// is reproducible run to run.
    Adaptive,
}

/// Configuration of one job run.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Message-handling strategy.
    pub mode: Mode,
    /// Number of computational nodes (the paper's `T`).
    pub workers: usize,
    /// Per-worker message buffer `B_i`, in messages. `usize::MAX` means
    /// "sufficient memory" (nothing ever spills; vertex caches hold
    /// everything). 0 is `InvalidConfig` where it would size Vblocks
    /// (Eq. 5 / Eq. 6): a private job without `vblocks_per_worker`.
    pub buffer_messages: usize,
    /// Sending threshold in bytes (Appendix E; default 4 MB); 0 is
    /// `InvalidConfig`.
    pub sending_threshold: usize,
    /// Disk/network throughputs used for modeled time and `Q_t`.
    pub profile: DeviceProfile,
    /// Hard superstep cap (safety net on top of the program's own budget).
    pub max_supersteps: u64,
    /// Override for Vblocks per worker; `None` applies Eq. 5 / Eq. 6.
    pub vblocks_per_worker: Option<usize>,
    /// Pre-pull the next block's messages while updating the current one
    /// (only effective with a combiner, per §4.3).
    pub pre_pull: bool,
    /// Allow combining at the sender (disabled for the Fig. 18 network
    /// comparison and for `pushM+com` experiments).
    pub combining: bool,
    /// LRU vertex-cache capacity for `Pull` mode; `None` uses
    /// `buffer_messages`.
    pub lru_capacity: Option<usize>,
    /// Supersteps between switching-decision evaluations (the paper's
    /// Δt = 2).
    pub switch_interval: u64,
    /// Fix hybrid's first mode instead of applying Theorem 2.
    pub initial_mode_override: Option<Mode>,
    /// Minimum |Q_t| relative to the superstep's modeled time before a
    /// switch is taken (0 = the paper's bare sign rule).
    pub switch_threshold: f64,
    /// Combine messages inside each flushed sender batch in push modes —
    /// the `pushM+com` variant of Appendix E. Only partial buffers can be
    /// merged, so small sending thresholds cripple the gain (Fig. 26).
    pub push_sender_combining: bool,
    /// Superstep-boundary checkpointing policy.
    pub checkpoint: CheckpointPolicy,
    /// Re-execution-to-overhead ratio for [`CheckpointPolicy::Adaptive`]:
    /// checkpoint once `accumulated modeled step time >= factor ×
    /// modeled checkpoint write time`.
    pub adaptive_checkpoint_factor: f64,
    /// Deterministic fault-injection schedule, if any.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Log every worker's outgoing remote packets, one classified
    /// sequential write per superstep, enabling Pregel-style *confined*
    /// recovery: a failure respawns only the dead worker, which replays
    /// from its checkpoint while survivors re-serve their logs instead
    /// of rolling back. Without logs (the default), recovery falls back
    /// to a global rollback of every worker. Only push, b-pull and hybrid
    /// jobs log: pull, pushM and async keep receive-side state that one
    /// superstep's undo cannot revert, so they always roll back globally
    /// and write no log (see [`JobConfig::confines_recovery`]).
    pub message_logging: bool,
    /// Observability sink. When set, the runner and workers record typed
    /// spans/instants with modeled-time timestamps into per-worker shards
    /// (plus master/control/net tracks, where every Q_t audit record is
    /// one instant). `None` (the default) records nothing and adds
    /// no bytes to any I/O class, so `Q_t` inputs are identical with
    /// tracing on or off.
    pub trace: Option<Arc<hybridgraph_obs::TraceSink>>,
    /// On-disk compression for adjacency/VE-BLOCK extents, message
    /// spills, checkpoints and message logs. [`CodecChoice::None`] (the
    /// default) leaves every byte and counter exactly as uncompressed
    /// runs produce them; any other choice shrinks *physical* I/O while
    /// logical byte accounting — and the computed vertex values — stay
    /// identical.
    pub codec: CodecChoice,
    /// Multi-job pacing handle (see [`StepPacer`]). `None` (the default)
    /// runs the job unpaced, exactly as before the service existed.
    pub pacer: Option<Arc<dyn StepPacer>>,
    /// Catalog-built stores to attach instead of loading privately. The
    /// job runs on their partition and layout (`vblocks_per_worker` is
    /// not read), `workers` must equal their slot count, and the load
    /// phase performs no build I/O.
    pub shared_stores: Option<SharedStores>,
    /// Cross-job edge-extent cache. Hits skip physical reads (and their
    /// semantic byte charges) and record only logical bytes into the
    /// requesting job's stats — which is precisely how cache interference
    /// between tenants reaches each job's `Q_t` inputs.
    pub shared_cache: Option<Arc<SharedEdgeCache>>,
    /// Per-job budget on cumulative *logical* I/O bytes (load included).
    /// The master checks after every superstep and fails the job with
    /// [`JobError::BudgetExceeded`](crate::runner::JobError::BudgetExceeded)
    /// when crossed.
    pub logical_io_budget: Option<u64>,
    /// Per-job budget on summed per-superstep high-water memory bytes,
    /// enforced like [`JobConfig::logical_io_budget`].
    pub memory_budget: Option<u64>,
    /// Durable-master hook: when set, the runner commits an encoded
    /// master snapshot here at every superstep barrier (after worker
    /// checkpoints land) and prunes checkpoints two-deep instead of
    /// one-deep, so a crash between the worker checkpoint and the commit
    /// still leaves the last *committed* cut restorable.
    pub barrier_sink: Option<Arc<dyn BarrierSink>>,
    /// Resume a crashed run from this committed master snapshot instead
    /// of starting fresh. Requires [`JobConfig::worker_disks`] pointing at
    /// the disks the original run checkpointed to.
    pub resume: Option<ResumeState>,
    /// Per-worker disk mounts (see [`WorkerDisks`]): the one way to put
    /// a job on persistent or real-file disks. `None` (the default) gives
    /// each worker a private in-memory disk.
    pub worker_disks: Option<WorkerDisks>,
    /// Feed observed failures into [`CheckpointPolicy::Adaptive`]'s
    /// spacing: with an MTBF estimate available, the interval becomes
    /// `min(factor × write, √(2 × write × MTBF))` — Young's formula on
    /// modeled time. Off by default: the spacing then depends only on
    /// `adaptive_checkpoint_factor`, exactly as before.
    pub fault_aware_checkpoint: bool,
    /// Coarse progress observer: notified after the load phase and after
    /// every completed superstep barrier. `None` (the default) reports
    /// nothing. Purely observational — see [`ProgressSink`].
    pub progress: Option<Arc<dyn ProgressSink>>,
}

impl JobConfig {
    /// A configuration for `workers` nodes with everything else at the
    /// paper's defaults and ample memory.
    pub fn new(mode: Mode, workers: usize) -> Self {
        JobConfig {
            mode,
            workers,
            buffer_messages: usize::MAX,
            sending_threshold: hybridgraph_net::flow::DEFAULT_SENDING_THRESHOLD,
            profile: DeviceProfile::local_hdd(),
            max_supersteps: 10_000,
            vblocks_per_worker: None,
            pre_pull: true,
            combining: true,
            lru_capacity: None,
            switch_interval: 2,
            initial_mode_override: None,
            switch_threshold: 0.1,
            push_sender_combining: false,
            checkpoint: CheckpointPolicy::Never,
            adaptive_checkpoint_factor: 10.0,
            fault_plan: None,
            message_logging: false,
            trace: None,
            codec: CodecChoice::None,
            pacer: None,
            shared_stores: None,
            shared_cache: None,
            logical_io_budget: None,
            memory_budget: None,
            barrier_sink: None,
            resume: None,
            worker_disks: None,
            fault_aware_checkpoint: false,
            progress: None,
        }
    }

    /// Sets the per-worker message buffer (the limited-memory scenario).
    pub fn with_buffer(mut self, messages: usize) -> Self {
        self.buffer_messages = messages;
        self
    }

    /// Sets the device profile.
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the sending threshold in bytes.
    pub fn with_sending_threshold(mut self, bytes: usize) -> Self {
        self.sending_threshold = bytes;
        self
    }

    /// Sets the checkpointing policy.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Installs a fault-injection schedule.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables sender-side message logging, which lets the master use
    /// Pregel-style confined recovery instead of a global rollback.
    pub fn with_message_logging(mut self, on: bool) -> Self {
        self.message_logging = on;
        self
    }

    /// Installs an observability sink; the sink's worker count must match
    /// `workers` (the runner rejects a mismatch as `InvalidConfig`).
    pub fn with_trace(mut self, sink: Arc<hybridgraph_obs::TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Sets the on-disk compression codec.
    pub fn with_codec(mut self, codec: CodecChoice) -> Self {
        self.codec = codec;
        self
    }

    /// Installs a multi-job pacing handle (see [`StepPacer`]).
    pub fn with_pacer(mut self, pacer: Arc<dyn StepPacer>) -> Self {
        self.pacer = Some(pacer);
        self
    }

    /// Attaches catalog-built stores; also pins `workers` to their slot
    /// count, which a registered graph requires.
    pub fn with_shared_stores(mut self, stores: SharedStores) -> Self {
        self.workers = stores.workers();
        self.shared_stores = Some(stores);
        self
    }

    /// Installs the cross-job edge-extent cache.
    pub fn with_shared_cache(mut self, cache: Arc<SharedEdgeCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Caps the job's cumulative logical I/O bytes.
    pub fn with_io_budget(mut self, bytes: u64) -> Self {
        self.logical_io_budget = Some(bytes);
        self
    }

    /// Caps the job's summed per-superstep high-water memory bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Installs a durable barrier sink (see [`JobConfig::barrier_sink`]).
    pub fn with_barrier_sink(mut self, sink: Arc<dyn BarrierSink>) -> Self {
        self.barrier_sink = Some(sink);
        self
    }

    /// Resumes from a committed master snapshot.
    pub fn with_resume(mut self, state: ResumeState) -> Self {
        self.resume = Some(state);
        self
    }

    /// Mounts persistent per-worker disks; `disks.len()` must equal
    /// `workers` (the runner rejects a mismatch as `InvalidConfig`).
    pub fn with_worker_disks(mut self, disks: WorkerDisks) -> Self {
        self.worker_disks = Some(disks);
        self
    }

    /// Installs a coarse progress observer (see [`ProgressSink`]).
    pub fn with_progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Turns fault-aware adaptive checkpoint spacing on or off.
    pub fn with_fault_aware_checkpoint(mut self, on: bool) -> Self {
        self.fault_aware_checkpoint = on;
        self
    }

    /// True if a single worker death recovers confined: message logging
    /// is on and the mode's receive-side state is undoable (push, b-pull,
    /// hybrid). Exactly these jobs capture packets, take an undo capture
    /// and commit a message-log segment each superstep.
    pub fn confines_recovery(&self) -> bool {
        self.message_logging && !matches!(self.mode, Mode::Pull | Mode::PushM | Mode::Async)
    }

    /// True if the limited-memory scenario is configured.
    pub fn memory_limited(&self) -> bool {
        self.buffer_messages != usize::MAX
    }

    /// The LRU capacity `Pull` mode uses.
    pub fn effective_lru_capacity(&self) -> usize {
        self.lru_capacity.unwrap_or(self.buffer_messages).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = JobConfig::new(Mode::Hybrid, 5);
        assert_eq!(c.workers, 5);
        assert_eq!(c.sending_threshold, 4 * 1024 * 1024);
        assert_eq!(c.switch_interval, 2);
        assert!(!c.memory_limited());
        assert!(c.pre_pull);
        assert!(c.combining);
    }

    #[test]
    fn builders() {
        let c = JobConfig::new(Mode::Push, 3)
            .with_buffer(500_000)
            .with_sending_threshold(1024);
        assert!(c.memory_limited());
        assert_eq!(c.buffer_messages, 500_000);
        assert_eq!(c.sending_threshold, 1024);
        assert_eq!(c.effective_lru_capacity(), 500_000);
    }

    #[test]
    fn labels() {
        assert_eq!(Mode::BPull.label(), "b-pull");
        assert_eq!(Mode::Async.label(), "async");
        assert_eq!(Mode::ALL.len(), 6);
    }

    #[test]
    fn mode_parsing_lists_valid_modes_on_error() {
        for (s, m) in [
            ("push", Mode::Push),
            ("pushM", Mode::PushM),
            ("pull", Mode::Pull),
            ("b-pull", Mode::BPull),
            ("bpull", Mode::BPull),
            ("hybrid", Mode::Hybrid),
            ("async", Mode::Async),
        ] {
            assert_eq!(s.parse::<Mode>(), Ok(m), "{s}");
        }
        let err = "warp".parse::<Mode>().unwrap_err();
        for name in ["push", "pushM", "pull", "b-pull", "hybrid", "async"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn checkpoint_and_fault_builders() {
        let c = JobConfig::new(Mode::Hybrid, 2);
        assert_eq!(c.checkpoint, CheckpointPolicy::Never);
        assert!(c.fault_plan.is_none());
        let plan = Arc::new(FaultPlan::new().kill(0, 1, crate::fault::FaultPhase::Compute));
        let c = c
            .with_checkpoint(CheckpointPolicy::EveryK(3))
            .with_fault_plan(Arc::clone(&plan));
        assert_eq!(c.checkpoint, CheckpointPolicy::EveryK(3));
        assert_eq!(c.fault_plan.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn message_logging_builder() {
        let c = JobConfig::new(Mode::Hybrid, 2);
        assert!(!c.message_logging, "logging is opt-in");
        let c = c.with_message_logging(true);
        assert!(c.message_logging);
    }

    #[test]
    fn codec_defaults_to_none() {
        let c = JobConfig::new(Mode::Hybrid, 2);
        assert!(c.codec.is_none());
        let c = c.with_codec(CodecChoice::Gaps);
        assert_eq!(c.codec, CodecChoice::Gaps);
    }

    #[test]
    fn lru_capacity_floor() {
        let mut c = JobConfig::new(Mode::Pull, 2);
        c.lru_capacity = Some(0);
        assert_eq!(c.effective_lru_capacity(), 1);
    }
}
