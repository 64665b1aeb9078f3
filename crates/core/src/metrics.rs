//! Per-superstep and per-job measurements.
//!
//! Everything the paper's figures plot comes through here: byte counts per
//! I/O class (Fig. 10), the semantic I/O quantities of Eqs. 7–8, network
//! traffic and message counts (Figs. 17–18), memory usage (Fig. 14(d),
//! Figs. 23–24), `Q_t` (Fig. 14(a)) and modeled runtime under a device
//! profile (Figs. 7–9, 15, 25).

use crate::config::Mode;
use crate::switch::q_metric;
pub use hybridgraph_net::NetOverhead;
use hybridgraph_obs::{QtAudit, QtInputs};
use hybridgraph_storage::{DeviceProfile, IoSnapshot};

/// What a worker executed in one superstep.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum StepKind {
    /// Pure push: load + update + pushRes.
    #[default]
    Push,
    /// Push without sending — the first half of switching push → b-pull
    /// (Fig. 6): load + update only; respond flags carry the signal.
    PushNoSend,
    /// MOCgraph-style push with online computing.
    PushM,
    /// Per-vertex pull (gather) baseline.
    Pull,
    /// Pure b-pull: Pull-Request + Pull-Respond + update.
    BPull,
    /// b-pull then an immediate pushRes on the new values — the switch
    /// superstep b-pull → push (Fig. 6).
    BPullThenPush,
    /// GraphHP-style hybrid sync/async: interior vertices iterate in
    /// block-local pseudo-rounds between global barriers; boundary
    /// messages queue for the barrier as usual.
    Async,
    /// Async compute followed by a full push send (interior destinations
    /// included) — the switch superstep async → push, leaving the inbox
    /// exactly as a strict push superstep would.
    AsyncThenPush,
}

impl StepKind {
    /// The standalone mode this step belongs to, for reporting.
    pub fn mode(self) -> Mode {
        match self {
            StepKind::Push | StepKind::PushNoSend => Mode::Push,
            StepKind::PushM => Mode::PushM,
            StepKind::Pull => Mode::Pull,
            StepKind::BPull | StepKind::BPullThenPush => Mode::BPull,
            StepKind::Async | StepKind::AsyncThenPush => Mode::Async,
        }
    }

    /// Short figure label.
    pub fn label(self) -> &'static str {
        match self {
            StepKind::Push => "push",
            StepKind::PushNoSend => "push>b-pull",
            StepKind::PushM => "pushM",
            StepKind::Pull => "pull",
            StepKind::BPull => "b-pull",
            StepKind::BPullThenPush => "b-pull>push",
            StepKind::Async => "async",
            StepKind::AsyncThenPush => "async>push",
        }
    }
}

/// Per-superstep measurements specific to the `Async` mode's block-local
/// pseudo-rounds. All-zero for strict-BSP step kinds.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct AsyncStepStats {
    /// Block-local pseudo-rounds executed inside this superstep (max over
    /// workers; round 0 is the sweep every async superstep performs, so a
    /// converged superstep still reports 1).
    pub pseudo_rounds: u64,
    /// Interior `update()` calls beyond round 0 — the duplicated compute
    /// the `Q_t` async term charges.
    pub interior_updates: u64,
    /// Interior messages regenerated in-memory across all pseudo-rounds
    /// (never hit the fabric or the spill store).
    pub interior_messages: u64,
    /// Bytes of those interior messages — I/O and network traffic the
    /// pseudo-rounds avoided versus strict BSP.
    pub interior_msg_bytes: u64,
    /// Boundary vertices that updated in round 0.
    pub boundary_active: u64,
    /// Interior vertices that updated in round 0.
    pub interior_active: u64,
    /// Blocks that entered the pseudo-round loop with at least one dirty
    /// interior vertex.
    pub blocks_active: u64,
    /// Blocks whose pseudo-round loop reached the residual threshold
    /// before the round cap.
    pub blocks_converged: u64,
}

impl AsyncStepStats {
    /// Merge one worker's stats into the master aggregate: rounds are a
    /// max (workers iterate independently between the same barriers),
    /// counts are sums.
    pub fn merge(&mut self, o: &AsyncStepStats) {
        self.pseudo_rounds = self.pseudo_rounds.max(o.pseudo_rounds);
        self.interior_updates += o.interior_updates;
        self.interior_messages += o.interior_messages;
        self.interior_msg_bytes += o.interior_msg_bytes;
        self.boundary_active += o.boundary_active;
        self.interior_active += o.interior_active;
        self.blocks_active += o.blocks_active;
        self.blocks_converged += o.blocks_converged;
    }
}

/// The paper's semantic I/O quantities for one superstep (bytes).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SemanticBytes {
    /// `IO(V^t)` — vertex values read + written while updating.
    pub value_update_bytes: u64,
    /// `IO(Ē^t)` — adjacency edge bytes read by push-style compute.
    pub push_edge_bytes: u64,
    /// `IO(E^t)` — Eblock edge bytes scanned by Pull-Respond.
    pub bpull_edge_bytes: u64,
    /// `IO(F^t)` — fragment auxiliary bytes scanned by Pull-Respond.
    pub fragment_aux_bytes: u64,
    /// `IO(V^t_rr)` — random svertex value reads by Pull-Respond (and the
    /// pull baseline's cache misses).
    pub svertex_rand_bytes: u64,
    /// `IO(M_disk)` — message bytes spilled to disk by push (the written
    /// side; an equal read-back follows at the next superstep).
    pub msg_spill_bytes: u64,
}

impl SemanticBytes {
    /// Component-wise sum.
    pub fn plus(&self, o: &SemanticBytes) -> SemanticBytes {
        SemanticBytes {
            value_update_bytes: self.value_update_bytes + o.value_update_bytes,
            push_edge_bytes: self.push_edge_bytes + o.push_edge_bytes,
            bpull_edge_bytes: self.bpull_edge_bytes + o.bpull_edge_bytes,
            fragment_aux_bytes: self.fragment_aux_bytes + o.fragment_aux_bytes,
            svertex_rand_bytes: self.svertex_rand_bytes + o.svertex_rand_bytes,
            msg_spill_bytes: self.msg_spill_bytes + o.msg_spill_bytes,
        }
    }
}

/// One worker's report for one superstep.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Vertices whose `update()` ran.
    pub updated: u64,
    /// Vertices whose responding flag is set for the next superstep.
    pub responders: u64,
    /// Raw messages generated (before concatenation/combining).
    pub messages_produced: u64,
    /// Messages consumed by `update()`.
    pub messages_consumed: u64,
    /// Messages waiting in the spill/receive store for the next superstep
    /// (push modes).
    pub pending_messages: u64,
    /// Push modes: raw messages drained (loaded) this superstep.
    pub delivered_raw: u64,
    /// Push modes: distinct destinations among drained messages.
    pub delivered_distinct: u64,
    /// Semantic I/O quantities observed this superstep.
    pub sem: SemanticBytes,
    /// Estimate: adjacency edge bytes push would read next superstep
    /// (out-edge bytes of current responders).
    pub next_push_edge_bytes: u64,
    /// Estimate: Eblock edge bytes b-pull would scan next superstep
    /// (blocks containing a responder).
    pub next_bpull_edge_bytes: u64,
    /// Estimate: fragment auxiliary bytes for the same scan.
    pub next_bpull_aux_bytes: u64,
    /// Estimate: random svertex read bytes for the same scan (responding
    /// fragments × value size).
    pub next_bpull_vrr_bytes: u64,
    /// High-water in-memory footprint this superstep (buffers, staged
    /// values, metadata).
    pub memory_bytes: u64,
    /// This worker's I/O delta for the superstep.
    pub io: IoSnapshot,
    /// Wall-clock seconds the worker spent in the superstep.
    pub wall_secs: f64,
    /// Wall-clock seconds spent blocked exchanging messages (Fig. 17).
    pub blocking_secs: f64,
    /// Bytes appended to the sender-side outgoing-message log this
    /// superstep (one classified sequential write; zero unless the job
    /// [confines recovery](crate::config::JobConfig::confines_recovery)).
    pub msg_log_bytes: u64,
    /// Cross-job shared-cache hits this worker took (multi-tenant runs;
    /// zero without a [`shared_cache`](crate::config::JobConfig::shared_cache)).
    pub cache_hits: u64,
    /// Cross-job shared-cache misses (each one a normal charged read).
    pub cache_misses: u64,
    /// Entries this worker's inserts displaced from the shared cache.
    pub cache_evictions: u64,
    /// Async pseudo-round measurements (all-zero for strict-BSP kinds).
    pub asy: AsyncStepStats,
    /// Maximum [`residual`](crate::program::VertexProgram::residual) over
    /// this worker's updates, tracked only when the program declares a
    /// [`tolerance`](crate::program::VertexProgram::tolerance); 0.0
    /// otherwise.
    pub max_residual: f64,
}

/// Master-side aggregation of one superstep.
#[derive(Clone, Debug, Default)]
pub struct SuperstepMetrics {
    /// 1-based superstep number.
    pub superstep: u64,
    /// What ran.
    pub kind: StepKind,
    /// Summed I/O over workers.
    pub io: IoSnapshot,
    /// Summed semantic quantities.
    pub sem: SemanticBytes,
    /// Remote bytes sent (summed over workers).
    pub net_out_bytes: u64,
    /// Loopback bytes (accounted separately; not network).
    pub net_local_bytes: u64,
    /// Raw messages emitted on the fabric.
    pub net_raw_messages: u64,
    /// Values on the wire after merging.
    pub net_wire_values: u64,
    /// Messages merged away (`M_co` observed).
    pub net_saved_messages: u64,
    /// Pull/gather requests sent.
    pub net_requests: u64,
    /// Vertices updated.
    pub updated: u64,
    /// Responders for the next superstep.
    pub responders: u64,
    /// Raw messages generated.
    pub messages_produced: u64,
    /// Messages pending for the next superstep (push).
    pub pending_messages: u64,
    /// Eq. 11's inputs for this superstep, each measured where its mode
    /// ran and estimated otherwise: `M_co` (Fig. 11's quantity) and the
    /// byte terms of [`cio_push_bytes`](Self::cio_push_bytes) and
    /// [`cio_bpull_bytes`](Self::cio_bpull_bytes).
    pub qt: QtInputs,
    /// The switching metric `Q_t` of Eq. 11, evaluated with this
    /// superstep's quantities (positive favours b-pull).
    pub q_metric: f64,
    /// Summed high-water memory across workers.
    pub memory_bytes: u64,
    /// Modeled seconds: max over workers of I/O + network + CPU time.
    pub modeled_secs: f64,
    /// Modeled network seconds (max over workers).
    pub modeled_net_secs: f64,
    /// Measured wall seconds of the superstep (slowest worker).
    pub wall_secs: f64,
    /// Measured blocking (message-exchange) seconds, slowest worker.
    pub blocking_secs: f64,
    /// Summed cross-job shared-cache hits (multi-tenant runs).
    pub cache_hits: u64,
    /// Summed cross-job shared-cache misses.
    pub cache_misses: u64,
    /// Summed shared-cache evictions caused by this job's inserts.
    pub cache_evictions: u64,
    /// Async pseudo-round measurements (rounds max'd, counts summed over
    /// workers; all-zero for strict-BSP kinds).
    pub asy: AsyncStepStats,
    /// Maximum per-update residual across workers (0.0 unless the program
    /// declares a convergence tolerance).
    pub max_residual: f64,
}

/// Modeled CPU cost per message handled (microseconds).
pub(crate) const CPU_US_PER_MESSAGE: f64 = 0.5;
/// Modeled CPU cost per vertex update (microseconds).
pub(crate) const CPU_US_PER_VERTEX: f64 = 0.5;

/// One worker's share of a superstep, as the cost model prices it: its
/// physical bytes per access class, its network traffic and its CPU
/// work. Nothing here depends on a [`DeviceProfile`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerCost {
    /// Physical bytes per access class, named as in [`IoSnapshot`].
    pub seq_read_bytes: u64,
    pub seq_write_bytes: u64,
    pub rand_read_bytes: u64,
    pub rand_write_bytes: u64,
    /// Remote bytes sent plus received.
    pub net_bytes: u64,
    /// Messages produced plus consumed.
    pub messages: u64,
    /// Vertices updated.
    pub updated: u64,
}

impl SuperstepMetrics {
    /// `C_io(push)` per Eq. 7, `IO(V) + IO(Ē) + 2 · IO(M_disk)` — measured
    /// if push ran, estimated otherwise (Fig. 12's quantity).
    pub fn cio_push_bytes(&self) -> u64 {
        self.sem.value_update_bytes + self.qt.io_e_push + 2 * self.qt.io_mdisk
    }

    /// `C_io(b-pull)` per Eq. 8, `IO(V) + IO(E) + IO(F) + IO(V_rr)` —
    /// measured if b-pull ran, estimated otherwise (Fig. 13's quantity).
    pub fn cio_bpull_bytes(&self) -> u64 {
        self.sem.value_update_bytes + self.qt.io_e_bpull + self.qt.io_f + self.qt.io_vrr
    }

    /// Sets this superstep's modeled seconds and `Q_t` from its record —
    /// its Eq. 11 inputs and `workers`, its per-worker costs — under
    /// `profile`. This is the one place a modeled second is made: per
    /// worker, I/O plus network plus CPU seconds; the superstep takes the
    /// slowest worker.
    pub(crate) fn price(&mut self, workers: &[WorkerCost], profile: &DeviceProfile) {
        let (mut modeled, mut modeled_net) = (0.0f64, 0.0f64);
        for w in workers {
            let io = IoSnapshot {
                seq_read_bytes: w.seq_read_bytes,
                seq_write_bytes: w.seq_write_bytes,
                rand_read_bytes: w.rand_read_bytes,
                rand_write_bytes: w.rand_write_bytes,
                ..IoSnapshot::default()
            };
            let io_secs = io.modeled_secs(profile);
            let net_secs = profile.net_secs(w.net_bytes);
            let cpu_secs = (CPU_US_PER_MESSAGE * w.messages as f64
                + CPU_US_PER_VERTEX * w.updated as f64)
                * 1e-6;
            modeled = modeled.max(io_secs + net_secs + cpu_secs);
            modeled_net = modeled_net.max(net_secs);
        }
        self.modeled_secs = modeled;
        self.modeled_net_secs = modeled_net;
        self.q_metric = q_metric(profile, &self.qt);
    }
}

/// Loading-phase measurements (Fig. 16).
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Wall seconds to build all stores (slowest worker).
    pub wall_secs: f64,
    /// Bytes written while loading, per class, summed over workers.
    pub io: IoSnapshot,
    /// Total VE-BLOCK fragments across workers (the paper's `f`).
    pub fragments: u64,
    /// Theorem 2's bound `B⊥ = |E|/2 − f` (messages; may be negative).
    pub b_lower_bound: i64,
    /// Total Vblocks across workers (the paper's `V`).
    pub num_vblocks: usize,
    /// The mode hybrid starts in (after Theorem 2 or override).
    pub initial_mode: Mode,
    /// Total vertices loaded across workers.
    pub num_vertices: u64,
    /// Vertices with at least one block-crossing in- or out-edge
    /// (GraphHP boundary set; 0 for non-`Async` jobs, which skip the
    /// classification pass).
    pub boundary_vertices: u64,
    /// Vertices all of whose edges stay inside their own Vblock (eligible
    /// for async pseudo-round iteration).
    pub interior_vertices: u64,
}

/// One recovered worker failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureEvent {
    /// Superstep in which the failure surfaced (0 = during loading).
    pub superstep: u64,
    /// The worker that died.
    pub worker: usize,
    /// The error it died with.
    pub error: String,
}

/// Checkpoint/recovery bookkeeping for one job.
#[derive(Clone, Debug, Default)]
pub struct RecoveryMetrics {
    /// Checkpoints committed (cluster-wide barriers, not per-worker files).
    pub checkpoints_taken: u64,
    /// Total checkpoint bytes written across workers (sequential writes).
    pub checkpoint_bytes: u64,
    /// Summed I/O of all checkpoint phases (the value-segment read plus
    /// the sequential checkpoint write, per worker).
    pub checkpoint_io: IoSnapshot,
    /// Cluster-wide (global) rollbacks performed: every worker reloaded
    /// its checkpoint.
    pub rollbacks: u64,
    /// Confined recoveries performed: only the failed worker reloaded its
    /// checkpoint while survivors re-served logged messages.
    pub confined_recoveries: u64,
    /// Checkpoint restores actually executed, summed over workers. A
    /// global rollback adds `workers`; a confined recovery adds 1 — the
    /// gap between this and `rollbacks × workers` is exactly what
    /// confinement saved.
    pub checkpoint_restores: u64,
    /// Supersteps re-executed because of rollbacks (lost work, every
    /// worker recomputing).
    pub recomputed_supersteps: u64,
    /// Supersteps the failed worker replayed from survivor logs during
    /// confined recoveries (survivors stayed idle apart from serving).
    pub replayed_supersteps: u64,
    /// Total bytes written to sender-side message logs across the job
    /// (zero unless the job
    /// [confines recovery](crate::config::JobConfig::confines_recovery)).
    pub msg_log_bytes: u64,
    /// The fault-aware adaptive checkpoint policy's final MTBF estimate
    /// (modeled seconds between observed failures), or 0.0 when no
    /// failure was observed. Informational — recorded whether or not
    /// [`fault_aware_checkpoint`](crate::config::JobConfig::fault_aware_checkpoint)
    /// was on.
    pub mtbf_secs: f64,
    /// Every failure the master recovered from, in order.
    pub failures: Vec<FailureEvent>,
}

/// Everything measured over one job.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Loading-phase report.
    pub load: LoadReport,
    /// One entry per executed superstep.
    pub steps: Vec<SuperstepMetrics>,
    /// What pricing reads besides each step's Eq. 11 inputs: per step,
    /// then per worker in worker order, so step `i` of a job on `n`
    /// workers owns `worker_costs[i * n..(i + 1) * n]`. One vector for
    /// the job, not one per step: the barrier adds no allocation that
    /// outlives it.
    pub worker_costs: Vec<WorkerCost>,
    /// `(superstep, from, to)` for every hybrid switch taken.
    pub switches: Vec<(u64, Mode, Mode)>,
    /// One [`QtAudit`] record per switching evaluation
    /// ([`switch::decide`](crate::switch::decide)): the full Eq. 11
    /// inputs, the four terms, `Q_t` and the verdict. Empty for non-hybrid jobs. Render with
    /// [`hybridgraph_obs::render_table`].
    pub qt_audit: Vec<QtAudit>,
    /// Checkpoint and recovery activity.
    pub recovery: RecoveryMetrics,
    /// Reliability-protocol overhead (retransmissions, dup drops, acks,
    /// replay traffic) over the whole job.
    pub net_overhead: NetOverhead,
    /// The device profile the job ran under.
    pub profile: DeviceProfile,
}

impl JobMetrics {
    /// Number of supersteps executed.
    pub fn supersteps(&self) -> u64 {
        self.steps.len() as u64
    }

    /// The same job priced under `profile`: every step's modeled seconds
    /// and `Q_t`, bit for bit what a run under `profile` books for the
    /// same bytes. Only what steers a run reads its profile: hybrid's
    /// [`switch::decide`](crate::switch::decide),
    /// [`async_gain`](crate::switch::async_gain), the adaptive checkpoint
    /// policy and a service pacer's lane times. A job none of them
    /// steered re-prices to exactly its run under `profile`; its
    /// `qt_audit`, trace and `recovery.mtbf_secs` are not re-priced.
    pub fn price(&self, profile: &DeviceProfile) -> JobMetrics {
        let mut m = self.clone();
        m.profile = *profile;
        let n = m.worker_costs.len() / m.steps.len().max(1);
        for (s, w) in m.steps.iter_mut().zip(m.worker_costs.chunks(n.max(1))) {
            s.price(w, profile);
        }
        m
    }

    /// Total modeled seconds across supersteps.
    pub fn modeled_total_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.modeled_secs).sum()
    }

    /// Total measured wall seconds across supersteps.
    pub fn wall_total_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_secs).sum()
    }

    /// Total physical I/O bytes over the whole job (Fig. 10's quantity).
    pub fn total_io_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.io.total_bytes()).sum()
    }

    /// Total logical (pre-compression) I/O bytes over the whole job.
    /// Equal to [`total_io_bytes`](Self::total_io_bytes) when the job ran
    /// with [`CodecChoice::None`](hybridgraph_storage::CodecChoice::None).
    pub fn total_io_logical_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.io.total_logical_bytes()).sum()
    }

    /// Physical / logical bytes over the whole job — the on-disk
    /// compression ratio (1.0 without a codec, smaller is better).
    pub fn io_compression_ratio(&self) -> f64 {
        let logical = self.total_io_logical_bytes();
        if logical == 0 {
            1.0
        } else {
            self.total_io_bytes() as f64 / logical as f64
        }
    }

    /// Total remote network bytes.
    pub fn total_net_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.net_out_bytes).sum()
    }

    /// Total raw messages produced.
    pub fn total_messages(&self) -> u64 {
        self.steps.iter().map(|s| s.messages_produced).sum()
    }

    /// Mean modeled seconds per superstep (what Figs. 7–9 report for
    /// fixed-superstep algorithms).
    pub fn modeled_secs_per_superstep(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.modeled_total_secs() / self.steps.len() as f64
        }
    }

    /// Peak per-superstep memory across the job.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.memory_bytes).max().unwrap_or(0)
    }

    /// Total cross-job shared-cache hits over the job.
    pub fn total_cache_hits(&self) -> u64 {
        self.steps.iter().map(|s| s.cache_hits).sum()
    }

    /// Total cross-job shared-cache misses over the job.
    pub fn total_cache_misses(&self) -> u64 {
        self.steps.iter().map(|s| s.cache_misses).sum()
    }

    /// Total async pseudo-rounds over the job (each is a block-local
    /// iteration a strict-BSP run would have paid a global barrier for;
    /// round 0 of every async superstep is the superstep itself).
    pub fn total_pseudo_rounds(&self) -> u64 {
        self.steps.iter().map(|s| s.asy.pseudo_rounds).sum()
    }

    /// Global barriers the async pseudo-rounds absorbed: pseudo-rounds
    /// beyond round 0, summed over async supersteps. A strict-BSP run
    /// making the same progress would have paid this many extra barriers.
    pub fn barriers_saved(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.asy.pseudo_rounds.saturating_sub(1))
            .sum()
    }

    /// Fraction of loaded vertices that updated in superstep `t`
    /// (1-based); 0.0 out of range or on an empty graph.
    pub fn active_fraction(&self, superstep: u64) -> f64 {
        if self.load.num_vertices == 0 {
            return 0.0;
        }
        self.steps
            .iter()
            .find(|s| s.superstep == superstep)
            .map(|s| s.updated as f64 / self.load.num_vertices as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_kind_classification() {
        assert_eq!(StepKind::Push.mode(), Mode::Push);
        assert_eq!(StepKind::PushNoSend.mode(), Mode::Push);
        assert_eq!(StepKind::BPullThenPush.mode(), Mode::BPull);
        assert_eq!(StepKind::PushM.label(), "pushM");
        assert_eq!(StepKind::Async.mode(), Mode::Async);
        assert_eq!(StepKind::AsyncThenPush.mode(), Mode::Async);
        assert_eq!(StepKind::Async.label(), "async");
        assert_eq!(StepKind::AsyncThenPush.label(), "async>push");
    }

    #[test]
    fn async_stats_merge_rules() {
        let mut a = AsyncStepStats {
            pseudo_rounds: 3,
            interior_updates: 10,
            interior_messages: 20,
            interior_msg_bytes: 160,
            boundary_active: 2,
            interior_active: 8,
            blocks_active: 2,
            blocks_converged: 1,
        };
        a.merge(&AsyncStepStats {
            pseudo_rounds: 5,
            interior_updates: 1,
            interior_messages: 2,
            interior_msg_bytes: 16,
            boundary_active: 1,
            interior_active: 1,
            blocks_active: 1,
            blocks_converged: 1,
        });
        assert_eq!(a.pseudo_rounds, 5, "rounds are a max across workers");
        assert_eq!(a.interior_updates, 11);
        assert_eq!(a.interior_msg_bytes, 176);
        assert_eq!(a.blocks_converged, 2);
    }

    #[test]
    fn semantic_cost_formulas() {
        let s = SuperstepMetrics {
            sem: SemanticBytes {
                value_update_bytes: 10,
                msg_spill_bytes: 50,
                ..SemanticBytes::default()
            },
            qt: QtInputs {
                io_e_push: 20,
                io_mdisk: 50,
                io_e_bpull: 30,
                io_f: 4,
                io_vrr: 6,
                ..QtInputs::default()
            },
            ..SuperstepMetrics::default()
        };
        assert_eq!(s.cio_push_bytes(), 10 + 20 + 100);
        assert_eq!(s.cio_bpull_bytes(), 10 + 30 + 4 + 6);
        let d = s.sem.plus(&s.sem);
        assert_eq!(d.msg_spill_bytes, 100);
        assert_eq!(d.value_update_bytes, 20);
    }

    #[test]
    fn job_metrics_totals() {
        let step = |secs: f64, io_bytes: u64| SuperstepMetrics {
            superstep: 1,
            kind: StepKind::Push,
            io: IoSnapshot {
                seq_read_bytes: io_bytes,
                ..Default::default()
            },
            sem: SemanticBytes::default(),
            net_out_bytes: 5,
            net_local_bytes: 0,
            net_raw_messages: 2,
            net_wire_values: 2,
            net_saved_messages: 0,
            net_requests: 0,
            updated: 1,
            responders: 1,
            messages_produced: 2,
            pending_messages: 0,
            qt: QtInputs::default(),
            q_metric: 0.0,
            memory_bytes: 7,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            modeled_secs: secs,
            modeled_net_secs: secs / 2.0,
            wall_secs: secs,
            blocking_secs: 0.0,
            asy: AsyncStepStats::default(),
            max_residual: 0.0,
        };
        let m = JobMetrics {
            load: LoadReport::default(),
            steps: vec![step(1.0, 100), step(3.0, 200)],
            worker_costs: vec![],
            switches: vec![],
            qt_audit: vec![],
            recovery: RecoveryMetrics::default(),
            net_overhead: NetOverhead::default(),
            profile: DeviceProfile::local_hdd(),
        };
        assert_eq!(m.supersteps(), 2);
        assert_eq!(m.modeled_total_secs(), 4.0);
        assert_eq!(m.modeled_secs_per_superstep(), 2.0);
        assert_eq!(m.total_io_bytes(), 300);
        assert_eq!(m.total_net_bytes(), 10);
        assert_eq!(m.total_messages(), 4);
        assert_eq!(m.peak_memory_bytes(), 7);
        assert_eq!(m.total_pseudo_rounds(), 0);
        assert_eq!(m.barriers_saved(), 0);
        assert_eq!(m.active_fraction(1), 0.0, "no vertices loaded");
    }

    #[test]
    fn async_job_helpers() {
        let mut m = JobMetrics {
            load: LoadReport {
                num_vertices: 8,
                boundary_vertices: 3,
                interior_vertices: 5,
                ..Default::default()
            },
            steps: vec![],
            worker_costs: vec![],
            switches: vec![],
            qt_audit: vec![],
            recovery: RecoveryMetrics::default(),
            net_overhead: NetOverhead::default(),
            profile: DeviceProfile::local_hdd(),
        };
        let mut step = SuperstepMetrics {
            superstep: 1,
            kind: StepKind::Async,
            io: IoSnapshot::default(),
            sem: SemanticBytes::default(),
            net_out_bytes: 0,
            net_local_bytes: 0,
            net_raw_messages: 0,
            net_wire_values: 0,
            net_saved_messages: 0,
            net_requests: 0,
            updated: 4,
            responders: 4,
            messages_produced: 0,
            pending_messages: 0,
            qt: QtInputs::default(),
            q_metric: 0.0,
            memory_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            modeled_secs: 0.0,
            modeled_net_secs: 0.0,
            wall_secs: 0.0,
            blocking_secs: 0.0,
            asy: AsyncStepStats {
                pseudo_rounds: 3,
                ..Default::default()
            },
            max_residual: 0.5,
        };
        m.steps.push(step.clone());
        step.superstep = 2;
        step.asy.pseudo_rounds = 1;
        step.updated = 2;
        m.steps.push(step);
        assert_eq!(m.total_pseudo_rounds(), 4);
        assert_eq!(m.barriers_saved(), 2, "rounds beyond round 0");
        assert_eq!(m.active_fraction(1), 0.5);
        assert_eq!(m.active_fraction(2), 0.25);
        assert_eq!(m.active_fraction(9), 0.0);
    }
}
