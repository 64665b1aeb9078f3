//! Per-computational-node state.
//!
//! A [`Worker`] owns one node's share of the graph: the vertex-value
//! segment, the adjacency store (push-side layout), the VE-BLOCK store
//! (b-pull layout; hybrid keeps both — the paper "stores edges twice"),
//! the gather store (pull baseline), the message spill buffer, the
//! active/responding flag vectors, and the endpoint into the network
//! fabric. The mode executors in [`crate::modes`] drive it superstep by
//! superstep.
//!
//! Recovery state lives here too: the [`WorkerCheckpoint`] record a
//! checkpoint writes, and — in a job that
//! [confines recovery](crate::config::JobConfig::confines_recovery) — a
//! [`StepUndo`] of the current superstep, which lets a survivor of a
//! peer's confined recovery revert one step from memory, with zero extra
//! reads, instead of reloading its checkpoint.

use crate::bitset::BitSet;
use crate::config::{JobConfig, Mode};
use crate::frontier::Frontier;
use crate::metrics::{StepKind, StepReport};
use crate::modes::bpull::Responder;
use crate::modes::pull::PullScratch;
use crate::program::{GraphInfo, VertexProgram};
use crate::shared::EdgeStores;
use hybridgraph_graph::{BlockLayout, Edge, Graph, Partition, VertexId, WorkerId};
use hybridgraph_net::fabric::{Endpoint, Envelope};
use hybridgraph_net::packet::Packet;
use hybridgraph_net::wire::BatchKind;
use hybridgraph_obs::TraceShard;
use hybridgraph_storage::adjacency::{AdjacencyStore, EdgeScratch};
use hybridgraph_storage::gather::GatherStore;
use hybridgraph_storage::inbox::FoldBuf;
use hybridgraph_storage::lru::LruCache;
use hybridgraph_storage::msg_store::SpillBuffer;
use hybridgraph_storage::record;
use hybridgraph_storage::record::{decode_slice, encode_slice};
use hybridgraph_storage::segment::{CheckpointReader, CheckpointWriter, MsgLogWriter};
use hybridgraph_storage::value_store::ValueStore;
use hybridgraph_storage::veblock::VeBlockStore;
use hybridgraph_storage::vfs::Vfs;
use hybridgraph_storage::{AccessClass, IoSnapshot, Record};
use std::io;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Loading-phase measurements of one worker (Fig. 16 inputs).
#[derive(Clone, Debug, Default)]
pub struct WorkerLoadReport {
    /// Total loading wall seconds.
    pub wall_secs: f64,
    /// I/O performed during loading.
    pub io: IoSnapshot,
    /// VE-BLOCK fragments on this worker.
    pub fragments: u64,
}

/// MOCgraph-style online-computing state: hot vertices accumulate their
/// combined message in memory; cold vertices' messages spill.
pub struct HotSet<M> {
    /// Local-index bit per vertex: in the hot (memory-resident) set?
    pub hot: BitSet,
    /// The online-combined messages of the hot vertices that got one,
    /// by vertex id over the worker's range.
    pub acc: FoldBuf<M>,
}

impl<M: Record> HotSet<M> {
    /// Marks the `capacity` highest-in-degree vertices of `range` hot
    /// (the paper's hot-aware placement for MOCgraph);
    /// `local_in_degrees[i]` is the in-degree of `range.start + i`.
    pub fn new(range: Range<u32>, local_in_degrees: &[u32], capacity: usize) -> Self {
        let n = local_in_degrees.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(local_in_degrees[i as usize]));
        let mut hot = BitSet::new(n);
        for &i in order.iter().take(capacity) {
            hot.set(i as usize);
        }
        let mut acc = FoldBuf::default();
        acc.reset(range);
        HotSet { hot, acc }
    }

    /// In-memory footprint of live accumulators.
    pub fn memory_bytes(&self) -> u64 {
        self.acc.groups() as u64 * (4 + M::BYTES as u64)
    }
}

/// Where [`Worker::read_out_edges`] puts a vertex's out-edges: decoded
/// into reused buffers, or shared with the cross-job cache.
#[derive(Default)]
pub struct OutEdges {
    own: EdgeScratch,
    shared: Option<Arc<Vec<Edge>>>,
}

/// Everything [`Worker::load`] needs, bundled into one struct so
/// spawning a worker stays a single-argument call (and stays clear of
/// the argument-count lint as recovery keeps growing the list).
pub struct WorkerSeed<'g, P: VertexProgram> {
    /// This worker's id.
    pub id: WorkerId,
    /// The algorithm.
    pub program: Arc<P>,
    /// The global input graph.
    pub graph: &'g Graph,
    /// The cluster-wide partition.
    pub partition: Arc<Partition>,
    /// The cluster-wide Vblock layout.
    pub layout: Arc<BlockLayout>,
    /// Job configuration.
    pub cfg: JobConfig,
    /// Network attachment.
    pub ep: Endpoint,
    /// This worker's simulated disk.
    pub vfs: Arc<dyn Vfs>,
    /// Boundary/interior classification (`Async` mode only; `None`
    /// otherwise — strict modes never pay for it).
    pub classification: Option<Arc<crate::blockexec::BlockClassification>>,
}

/// In-memory pre-images captured at the start of a superstep so a
/// *surviving* worker can revert exactly one superstep during confined
/// recovery — no checkpoint reload, which is the whole point of
/// confinement (Pregel §4.2).
///
/// Only the modes `plan_recovery` confines (push, b-pull, hybrid) ever
/// apply a capture, so it holds what they change: the responding
/// frontier's `cur` words, copied eagerly (they are small) into the
/// previous capture's buffers;
/// vertex-value pre-images are captured lazily by the executors at the
/// moment they read a value block anyway
/// ([`Worker::note_value_preimage`]), so the capture adds **zero** extra
/// reads. Spilled messages snapshot via the non-destructive
/// [`SpillBuffer::snapshot_pending`]: a superstep that *completed* has
/// drained the spill, so there is no tail to cut back to.
pub struct StepUndo<P: VertexProgram> {
    respond: BitSet,
    /// Pending spill-buffer records (`dst | message`, as buffered).
    spill_pending: Option<Vec<u8>>,
    value_blocks: Vec<(u32, Vec<P::Value>)>,
}

/// A worker checkpoint's body: value records, the local vertex count and
/// both frontiers' `cur` words, then pending spilled messages and hot-set
/// `(local index, message)` records where the mode keeps them.
struct WorkerCheckpoint {
    values: Vec<u8>,
    flag_len: u64,
    respond: Vec<u64>,
    signaled: Vec<u64>,
    spill: Option<Vec<u8>>,
    hot: Option<Vec<u8>>,
}

record! { WorkerCheckpoint { values, flag_len, respond, signaled, spill, hot } }

/// One computational node's full state.
pub struct Worker<P: VertexProgram> {
    /// This worker's id.
    pub id: WorkerId,
    /// The algorithm.
    pub program: Arc<P>,
    /// Global graph facts.
    pub info: GraphInfo,
    /// The cluster-wide partition.
    pub partition: Arc<Partition>,
    /// The cluster-wide Vblock layout.
    pub layout: Arc<BlockLayout>,
    /// Job configuration.
    pub cfg: JobConfig,
    /// Network attachment.
    pub ep: Endpoint,
    /// This worker's simulated disk.
    pub vfs: Arc<dyn Vfs>,
    /// Local vertex range.
    pub range: Range<u32>,

    /// Vertex values (Vblock-aligned fixed-width records).
    pub values: ValueStore<P::Value>,
    /// Push-side adjacency store (Push/PushM/Hybrid).
    pub adjacency: Option<AdjacencyStore>,
    /// b-pull's VE-BLOCK store (BPull/Hybrid).
    pub veblock: Option<VeBlockStore>,
    /// Pull baseline's destination-grouped edges.
    pub gather: Option<GatherStore>,

    /// Out-degree per local vertex (in-memory metadata, like Hama's edge
    /// offsets).
    pub out_degrees: Vec<u32>,
    /// Pull mode: bitmask over workers hosting in-edges of each local
    /// vertex (simulator-side shortcut for the mirror lists a real
    /// deployment exchanges during loading).
    pub mirror_peers: Vec<u64>,

    /// Responding flags: the previous superstep's (read by serving, per
    /// local Vblock as `X_j.res`) and the current one's.
    pub(crate) respond: Frontier,
    /// Pull baseline: vertices signaled (by a responding in-neighbor's
    /// scatter) to gather this superstep, and for the next.
    pub(crate) signaled: Frontier,

    /// Push-family incoming message store.
    pub spill: Option<SpillBuffer<P::Message>>,
    /// MOCgraph online-computing state.
    pub hotset: Option<HotSet<P::Message>>,
    /// Pull baseline's LRU vertex-value cache.
    pub lru: Option<LruCache<u32, P::Value>>,
    /// Global boundary/interior classification (`Async` mode).
    pub cls: Option<Arc<crate::blockexec::BlockClassification>>,
    /// This worker's interior-iteration index (`Async` mode).
    pub interior: Option<crate::blockexec::InteriorIndex>,

    /// Value updates staged during a (b-)pull superstep, flushed once no
    /// peer can read this worker's values anymore.
    pub staged: Vec<(u32, P::Value)>,
    /// b-pull's Pull-Respond buffers, kept from superstep to superstep.
    pub(crate) responder: Responder,
    /// Pull's per-superstep buffers, kept from superstep to superstep
    /// once a pull superstep has run.
    pub(crate) pull: Option<PullScratch<P::Message>>,
    /// The combining fold of b-pull's responses and the pull family's
    /// completed inboxes, kept from superstep to superstep.
    pub(crate) fold: FoldBuf<P::Message>,

    /// Current superstep (set by the runner before each step).
    pub superstep: u64,
    /// Baseline I/O snapshot at superstep start.
    pub io_baseline: IoSnapshot,
    /// High-water memory within the current superstep.
    pub mem_peak: u64,

    /// Pre-images for one-superstep undo (confined recovery); captured
    /// when message logging is on, discarded at the next capture.
    pub undo: Option<StepUndo<P>>,

    /// This worker's trace shard (from [`JobConfig::trace`]), if tracing.
    pub shard: Option<Arc<TraceShard>>,
    /// Modeled-time base (µs since job start) of the current superstep,
    /// handed down by the master with each step command.
    pub step_base_us: u64,
    /// Phase boundaries recorded by the mode executors during the current
    /// superstep: `(phase name, I/O snapshot at the phase's end)`.
    /// Converted into per-phase spans (and per-class VFS events) at
    /// [`Worker::finish_superstep`]. Always empty when not tracing.
    phase_marks: Vec<(&'static str, IoSnapshot)>,
    /// Async pseudo-rounds of the current superstep, `(block index,
    /// round, updates, regenerated messages)`, emitted as instants right
    /// after the phase spans. Always empty when not tracing.
    round_marks: Vec<(usize, u64, u64, u64)>,
    /// Wall seconds the current superstep has spent blocked in
    /// [`Worker::recv_timed`].
    pub(crate) blocking_secs: f64,
    /// Whether [`Worker::update_vertex`] records residuals this superstep:
    /// async steps always do, strict ones only for a program with a
    /// tolerance (the others skip the comparison, byte-identical runs).
    pub(crate) record_residual: bool,
}

impl<P: VertexProgram> Worker<P> {
    /// Builds a worker's stores from the global graph (the loading
    /// phase measured in Fig. 16).
    pub fn load(seed: WorkerSeed<'_, P>) -> io::Result<(Self, WorkerLoadReport)> {
        let WorkerSeed {
            id,
            program,
            graph,
            partition,
            layout,
            cfg,
            ep,
            vfs,
            classification,
        } = seed;
        let t0 = Instant::now();
        let range = partition.worker_range(id);
        let n_local = range.len();
        let info = GraphInfo {
            num_vertices: graph.num_vertices() as u64,
            num_edges: graph.num_edges() as u64,
        };

        // Initial values.
        let init: Vec<P::Value> = range
            .clone()
            .map(|v| program.init(VertexId(v), &info))
            .collect();
        let values = ValueStore::create(vfs.as_ref(), "values", range.start, &init)?;

        let stores = EdgeStores::for_job(&cfg, vfs.as_ref(), graph, &partition, &layout, id)?;
        let fragments = stores
            .veblock
            .as_ref()
            .map_or(0, VeBlockStore::total_fragments);

        let out_degrees: Vec<u32> = range
            .clone()
            .map(|v| graph.out_degree(VertexId(v)) as u32)
            .collect();

        // Pull: the workers hosting in-edges of each local vertex.
        let mut mirror_peers = Vec::new();
        if cfg.mode == Mode::Pull {
            mirror_peers = vec![0u64; n_local];
            for (src, e) in graph.edges() {
                if range.contains(&e.dst.0) {
                    let mask = &mut mirror_peers[(e.dst.0 - range.start) as usize];
                    *mask |= 1 << partition.worker_of(src).index();
                }
            }
        }

        let spill = matches!(
            cfg.mode,
            Mode::Push | Mode::PushM | Mode::Hybrid | Mode::Async
        )
        .then(|| SpillBuffer::with_codec(vfs.as_ref(), "spill", cfg.buffer_messages, cfg.codec))
        .transpose()?;

        let hotset = (cfg.mode == Mode::PushM).then(|| {
            let ind = graph.in_degrees();
            let local_ind: Vec<u32> = range.clone().map(|v| ind[v as usize]).collect();
            HotSet::new(range.clone(), &local_ind, cfg.buffer_messages.min(n_local))
        });

        let lru = (cfg.mode == Mode::Pull).then(|| Self::new_value_lru(&cfg));

        let (cls, interior) = if matches!(cfg.mode, Mode::Async) {
            let c = classification.expect("Async mode requires the block classification");
            let idx = crate::blockexec::InteriorIndex::build(graph, &layout, &c, id);
            (Some(c), Some(idx))
        } else {
            (None, None)
        };

        let report = WorkerLoadReport {
            wall_secs: t0.elapsed().as_secs_f64(),
            io: vfs.stats().snapshot(),
            fragments,
        };

        let base = range.start as usize;
        let blocks = layout.blocks_of_worker(id).map(|b| {
            let r = layout.block_range(b);
            r.start as usize - base..r.end as usize - base
        });
        let respond = Frontier::new(n_local, blocks.collect());
        let shard = cfg.trace.as_ref().map(|t| t.worker(id.index()));
        let worker = Worker {
            id,
            program,
            info,
            partition,
            layout,
            cfg,
            ep,
            vfs,
            range,
            values,
            adjacency: stores.adjacency,
            veblock: stores.veblock,
            gather: stores.gather,
            out_degrees,
            mirror_peers,
            respond,
            signaled: Frontier::new(n_local, Vec::new()),
            spill,
            hotset,
            lru,
            cls,
            interior,
            staged: Vec::new(),
            responder: Responder::default(),
            pull: None,
            fold: FoldBuf::default(),
            superstep: 0,
            io_baseline: IoSnapshot::default(),
            mem_peak: 0,
            undo: None,
            shard,
            step_base_us: 0,
            phase_marks: Vec::new(),
            round_marks: Vec::new(),
            blocking_secs: 0.0,
            record_residual: false,
        };
        Ok((worker, report))
    }

    /// Byte weight one cached vertex value charges against the LRU
    /// budget: key + value payload + slab/link overhead.
    pub fn lru_entry_weight() -> usize {
        4 + P::Value::BYTES + 16
    }

    /// A fresh pull-mode vertex cache. The configured capacity is in
    /// *entries* (the paper's `B_i`); internally entries charge their
    /// byte weight against an equivalent byte budget, so uniform-size
    /// values evict exactly as an entry-count cache would.
    fn new_value_lru(cfg: &JobConfig) -> LruCache<u32, P::Value> {
        let entries = cfg.effective_lru_capacity().min(1 << 28);
        LruCache::new(entries.saturating_mul(Self::lru_entry_weight()))
    }

    /// Local index of a local vertex.
    #[inline]
    pub fn local(&self, v: VertexId) -> usize {
        debug_assert!(self.range.contains(&v.0), "{v} not local to {}", self.id);
        (v.0 - self.range.start) as usize
    }

    /// Which batch encoding (b-)pull responses use, given the program and
    /// configuration.
    pub fn batch_kind(&self) -> BatchKind {
        if self.cfg.combining && self.program.combiner().is_some() {
            BatchKind::Combined
        } else {
            BatchKind::Concatenated
        }
    }

    /// Which batch encoding push batches use: plain, or combined within
    /// the batch when `push_sender_combining` is on (the `pushM+com`
    /// variant of Appendix E — only the messages that happen to share a
    /// partial buffer can merge, which is why small sending thresholds
    /// cripple the gain).
    pub fn push_kind(&self) -> BatchKind {
        if self.cfg.push_sender_combining && self.program.combiner().is_some() {
            BatchKind::Combined
        } else {
            BatchKind::Plain
        }
    }

    /// Starts a superstep of `kind`: snapshots I/O, resets watermarks.
    pub fn begin_superstep(&mut self, superstep: u64, kind: StepKind) {
        self.superstep = superstep;
        self.io_baseline = self.vfs.stats().snapshot();
        self.mem_peak = 0;
        self.blocking_secs = 0.0;
        self.record_residual = kind.mode() == Mode::Async || self.program.tolerance().is_some();
        self.phase_marks.clear();
        self.round_marks.clear();
    }

    /// Notes a momentary memory usage for the high-water mark.
    #[inline]
    pub fn note_memory(&mut self, bytes: u64) {
        self.mem_peak = self.mem_peak.max(bytes);
    }

    /// Baseline memory that exists all superstep: flag vectors, metadata,
    /// spill buffer contents, hot accumulators, staged updates.
    pub fn standing_memory_bytes(&self) -> u64 {
        let mut m = self.respond.memory_bytes();
        if let Some(ve) = &self.veblock {
            m += ve.metadata_memory_bytes();
        }
        if let Some(g) = &self.gather {
            m += g.index_memory_bytes();
        }
        if let Some(s) = &self.spill {
            m += s.memory_bytes();
        }
        if let Some(h) = &self.hotset {
            m += h.memory_bytes() + h.hot.memory_bytes();
        }
        if let Some(l) = &self.lru {
            m += l.used_weight() as u64;
        }
        if let Some(ix) = &self.interior {
            m += ix.memory_bytes();
        }
        m += self.staged.len() as u64 * (4 + P::Value::BYTES as u64);
        m
    }

    /// Finishes a superstep: advances the responding frontier, fills the
    /// common fields of the report (estimates, I/O delta, memory).
    pub fn finish_superstep(&mut self, report: &mut StepReport) {
        self.respond.advance();
        let responders = self.respond.cur();
        report.responders = responders.count() as u64;

        // Next-superstep estimates for the hybrid predictor, in *physical*
        // bytes (what the device would move). Without a codec these equal
        // the logical sizes exactly. Pure b-pull builds no adjacency store:
        // the logical size is its (upper-bound) push estimate.
        let vertex = |i: usize| VertexId(self.range.start + i as u32);
        report.next_push_edge_bytes = match &self.adjacency {
            Some(adj) => responders
                .ones()
                .map(|i| adj.stored_bytes_of(vertex(i)))
                .sum(),
            None => responders
                .ones()
                .map(|i| self.out_degrees[i] as u64 * 8)
                .sum(),
        };
        if let Some(ve) = &self.veblock {
            for (j, b) in self.layout.blocks_of_worker(self.id).enumerate() {
                if self.respond.block_has(j) {
                    let (e, a) = ve.block_scan_stored_bytes(b);
                    report.next_bpull_edge_bytes += e;
                    report.next_bpull_aux_bytes += a;
                }
            }
            let width = P::Value::BYTES as u64;
            report.next_bpull_vrr_bytes = responders
                .ones()
                .map(|i| ve.fragments_of(vertex(i)) as u64 * width)
                .sum();
        }

        self.note_memory(self.standing_memory_bytes());
        report.memory_bytes = self.mem_peak;
        report.io = self.vfs.stats().snapshot().delta(&self.io_baseline);
        self.emit_phase_trace();
        if let Some(s) = &self.spill {
            report.pending_messages = s.total();
        }
        if let Some(h) = &self.hotset {
            report.pending_messages += h.acc.groups() as u64;
        }
    }

    /// Marks the end of an executor phase (`load`, `compute+pushRes`,
    /// `Pull-Request`, ...): records the phase name and the I/O counters
    /// at this boundary. Costs one atomic-counter snapshot when tracing
    /// and nothing at all otherwise; never touches the VFS, so the phase
    /// boundaries themselves add zero bytes to any I/O class.
    ///
    /// Phase *I/O snapshots at deterministic boundaries* are what makes
    /// the trace reproducible: the per-operation event order inside an
    /// exchange/serve phase depends on packet arrival, but the aggregate
    /// per-class deltas between boundaries do not.
    #[inline]
    pub fn trace_phase(&mut self, name: &'static str) {
        if self.shard.is_some() && !self.ep.replaying() {
            self.phase_marks.push((name, self.vfs.stats().snapshot()));
        }
    }

    /// Records one executed async pseudo-round of Vblock index `block`.
    /// Free when not tracing.
    pub(crate) fn trace_round(&mut self, block: usize, round: u64, updates: u64, messages: u64) {
        if self.shard.is_some() && !self.ep.replaying() {
            self.round_marks.push((block, round, updates, messages));
        }
    }

    /// Converts the recorded phase marks of the finished superstep into
    /// per-phase spans (modeled-time durations laid out sequentially from
    /// [`Worker::step_base_us`]) plus one per-I/O-class VFS event per
    /// phase, then one `async.round` instant per pseudo-round at the clock
    /// the spans left — the per-pseudo-superstep view the graphhp
    /// experiment plots. Replayed supersteps (confined recovery) emit
    /// nothing: their original execution already did.
    fn emit_phase_trace(&mut self) {
        if self.shard.is_none() || self.ep.replaying() {
            self.phase_marks.clear();
            self.round_marks.clear();
            return;
        }
        let marks = std::mem::take(&mut self.phase_marks);
        let shard = self.shard.as_ref().expect("checked above");
        shard.set_clock_us(self.step_base_us);
        let mut prev = self.io_baseline;
        for (name, snap) in marks {
            let d = snap.delta(&prev);
            let dur_us = hybridgraph_obs::secs_to_us(d.modeled_secs(&self.cfg.profile));
            let start = shard.clock_us();
            for class in AccessClass::ALL {
                let bytes = d.bytes(class);
                if bytes > 0 {
                    shard.instant_at(
                        start,
                        format!("vfs.{}", class.label()),
                        vec![
                            ("bytes", bytes.into()),
                            ("logical_bytes", d.logical_bytes(class).into()),
                            ("ops", d.ops(class).into()),
                            ("phase", name.into()),
                        ],
                    );
                }
            }
            shard.span(
                name,
                dur_us,
                vec![
                    ("superstep", self.superstep.into()),
                    ("io_bytes", d.total_bytes().into()),
                ],
            );
            prev = snap;
        }
        let at = shard.clock_us();
        for (block, round, updates, messages) in self.round_marks.drain(..) {
            shard.instant_at(
                at,
                "async.round",
                vec![
                    ("superstep", self.superstep.into()),
                    ("block", (block as u64).into()),
                    ("round", round.into()),
                    ("updates", updates.into()),
                    ("messages", messages.into()),
                ],
            );
        }
    }

    /// Reads vertex `v`'s out-edges through the cross-job shared cache if
    /// the job has one, falling back to a plain adjacency read otherwise.
    ///
    /// A **hit** serves the edges from memory: no physical bytes move and
    /// no `IO(Ē^t)` is charged — only the logical bytes are recorded (so
    /// this job's `io_ratio` reflects the saving and its `Q_t` inputs
    /// shrink; shared-cache interference is exactly what the
    /// `multi_tenant` experiment measures). A **miss** reads and charges
    /// as before, then publishes the edges for every tenant. Hits, misses
    /// and evictions are attributed to the *requesting* job's report.
    ///
    /// Only deterministic-order call sites may use this: the push compute
    /// loop (canonical work order) and pull's `scatter_signals` (ascending
    /// vertex order). Arrival-ordered paths must not — the cache state
    /// would depend on packet timing.
    ///
    /// The edges decode into `scratch`, which the caller reuses vertex
    /// after vertex; a miss publishes a copy. Cached edges are borrowed
    /// from the `Arc` the cache handed out, which `scratch` keeps alive.
    pub fn read_out_edges<'a>(
        &self,
        v: VertexId,
        class: AccessClass,
        rep: &mut StepReport,
        scratch: &'a mut OutEdges,
    ) -> io::Result<&'a [Edge]> {
        let adj = self.adjacency.as_ref().expect("adjacency store required");
        let stored = adj.stored_bytes_of(v);
        if stored == 0 {
            return Ok(&[]);
        }
        let (Some(cache), Some(shared)) = (&self.cfg.shared_cache, &self.cfg.shared_stores) else {
            rep.sem.push_edge_bytes += stored;
            return adj.read_edges(v, class, &mut scratch.own);
        };
        let (gid, slot) = (shared.graph_id, self.id.index());
        let edges = match cache.get(slot, gid, v.0) {
            Some(edges) => {
                rep.cache_hits += 1;
                self.vfs.stats().record_logical(class, adj.edge_bytes_of(v));
                edges
            }
            None => {
                rep.cache_misses += 1;
                let edges = Arc::new(adj.read_edges(v, class, &mut scratch.own)?.to_vec());
                rep.sem.push_edge_bytes += stored;
                rep.cache_evictions += cache.insert(slot, gid, v.0, Arc::clone(&edges), stored);
                edges
            }
        };
        Ok(scratch.shared.insert(edges))
    }

    /// A blocking receive that accrues the wait into the superstep's
    /// blocking seconds.
    pub fn recv_timed(&mut self) -> Envelope {
        let t = Instant::now();
        let env = self.ep.recv();
        self.blocking_secs += t.elapsed().as_secs_f64();
        env
    }

    /// Flushes staged value updates (contiguous runs become sequential
    /// writes) after all peers finished reading this superstep.
    pub fn flush_staged(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_by_key(|(v, _)| *v);
        let mut run = Vec::new();
        let mut i = 0;
        while i < staged.len() {
            let start = staged[i].0;
            let mut end = i + 1;
            while end < staged.len() && staged[end].0 == staged[end - 1].0 + 1 {
                end += 1;
            }
            run.clear();
            for (_, v) in &staged[i..end] {
                v.append_to(&mut run);
            }
            self.values.write_encoded(start, &run)?;
            i = end;
        }
        // Kept for the next superstep's updates.
        staged.clear();
        self.staged = staged;
        Ok(())
    }

    /// Reads back all local values (used when collecting results).
    pub fn collect_values(&mut self) -> io::Result<Vec<P::Value>> {
        // Flush any dirty cached values first (pull mode).
        if let Some(lru) = &mut self.lru {
            for (k, v, dirty) in lru.drain() {
                if dirty {
                    self.values.write_one(VertexId(k), &v)?;
                }
            }
        }
        self.values.read_range(self.range.clone())
    }

    /// Serializes this worker's recoverable state — the vertex-value
    /// segment, both frontiers' `cur` flags, pending spilled messages,
    /// and online-computing accumulators — as the checkpoint
    /// taken after `superstep`. The whole checkpoint commits as **one
    /// classified sequential write** on this worker's VFS, so its cost is
    /// visible in `IoStats` and modeled time like any other byte the
    /// engine moves. Returns the bytes written.
    pub fn write_checkpoint(&mut self, superstep: u64) -> io::Result<u64> {
        debug_assert!(
            self.staged.is_empty(),
            "staged updates must be flushed before checkpointing"
        );
        // Pull mode: push dirty cached values down so the on-disk value
        // segment is authoritative, then rebuild the cache clean (drain
        // returns MRU-first; reinserting oldest-first preserves recency).
        if let Some(lru) = &mut self.lru {
            let entries = lru.drain();
            for (k, v, dirty) in &entries {
                if *dirty {
                    self.values.write_one(VertexId(*k), v)?;
                }
            }
            for (k, v, _) in entries.into_iter().rev() {
                lru.insert_weighted(k, v, false, Self::lru_entry_weight());
            }
        }
        let vals = self.values.read_range(self.range.clone())?;
        let spill = self
            .spill
            .as_ref()
            .map(|s| s.snapshot_pending())
            .transpose()?;
        let hot = self.hotset.as_ref().map(|h| {
            let mut pairs: Vec<(u32, P::Message)> = Vec::with_capacity(h.acc.groups());
            h.acc
                .walk(|v, m| pairs.push((v - self.range.start, m.clone())));
            encode_slice(&pairs)
        });
        let mut w = CheckpointWriter::new(superstep);
        w.put(&WorkerCheckpoint {
            values: encode_slice(&vals),
            flag_len: self.range.len() as u64,
            respond: self.respond.cur().as_words().to_vec(),
            signaled: self.signaled.cur().as_words().to_vec(),
            spill,
            hot,
        });
        w.commit_with(self.vfs.as_ref(), self.cfg.codec)
    }

    /// Restores this worker's recoverable state from the checkpoint taken
    /// after `superstep` (the rollback half of recovery). Values, flag
    /// vectors, pending messages, and online accumulators revert to the
    /// checkpointed cut; the LRU cache and staged updates reset. Works
    /// identically on a surviving worker (discarding newer state) and on
    /// a freshly respawned one (adopting the cut).
    pub fn restore_checkpoint(&mut self, superstep: u64) -> io::Result<()> {
        fn mismatch(what: &str) -> io::Error {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint does not match worker state: {what}"),
            )
        }
        let ck: WorkerCheckpoint = CheckpointReader::open(self.vfs.as_ref(), superstep)?.get()?;
        let vals: Vec<P::Value> = decode_slice(&ck.values)?;
        let n = self.range.len();
        if vals.len() != n {
            return Err(mismatch("value count"));
        }
        self.values.write_range(self.range.clone(), &vals)?;
        if ck.flag_len != n as u64 {
            return Err(mismatch("flag vector length"));
        }
        let flags = |words| BitSet::from_words(words, n).ok_or_else(|| mismatch("flag words"));
        self.respond.restore_from(flags(ck.respond)?);
        self.signaled.restore_from(flags(ck.signaled)?);
        match (&mut self.spill, ck.spill) {
            (Some(s), Some(pending)) => s.restore_pending(&pending)?,
            (None, None) => {}
            _ => return Err(mismatch("spill buffer presence")),
        }
        match (&mut self.hotset, ck.hot) {
            (Some(h), Some(hot)) => {
                h.acc.reset(self.range.clone());
                let pairs: Vec<(u32, P::Message)> = decode_slice(&hot)?;
                for (i, m) in pairs {
                    if i as usize >= n {
                        return Err(mismatch("hot accumulator index"));
                    }
                    // A repeated index keeps its last message.
                    h.acc.add(self.range.start + i, m, |_, last| last.clone());
                }
            }
            (None, None) => {}
            _ => return Err(mismatch("hot set presence")),
        }
        if self.lru.is_some() {
            self.lru = Some(Self::new_value_lru(&self.cfg));
        }
        self.staged.clear();
        self.superstep = superstep;
        Ok(())
    }

    /// Captures this worker's one-superstep undo state (called by the
    /// runner **before** [`Worker::begin_superstep`], so the spill
    /// snapshot's reads fall outside the step's measured I/O window).
    /// Replaces any previous capture.
    pub fn begin_undo_capture(&mut self) -> io::Result<()> {
        let spill_pending = self
            .spill
            .as_ref()
            .map(|s| s.snapshot_pending())
            .transpose()?;
        // Copied in place: a capture runs every superstep, and the flag
        // vectors are as long as the local range.
        let u = self.undo.get_or_insert_with(|| StepUndo {
            respond: BitSet::default(),
            spill_pending: None,
            value_blocks: Vec::new(),
        });
        self.respond.capture_into(&mut u.respond);
        u.spill_pending = spill_pending;
        u.value_blocks.clear();
        Ok(())
    }

    /// Records the pre-image of a value block the executor is about to
    /// read-modify-write, keyed by the block's first vertex id. No-op
    /// when no undo capture is active; duplicate starts within one
    /// superstep keep the first (oldest) image. Executors call this at
    /// their existing `read_range` sites, so capture costs no extra I/O.
    pub fn note_value_preimage(&mut self, start: u32, vals: &[P::Value]) {
        if let Some(u) = &mut self.undo {
            if !u.value_blocks.iter().any(|(s, _)| *s == start) {
                u.value_blocks.push((start, vals.to_vec()));
            }
        }
    }

    /// Reverts exactly the last captured superstep: value-block
    /// pre-images, pending spilled messages and the responding frontier.
    /// Consumes the capture. Returns `true` if a
    /// capture existed (i.e. the undo actually happened).
    pub fn apply_undo(&mut self) -> io::Result<bool> {
        let Some(u) = self.undo.take() else {
            return Ok(false);
        };
        for (start, vals) in &u.value_blocks {
            self.values
                .write_range(*start..*start + vals.len() as u32, vals)?;
        }
        if let (Some(s), Some(records)) = (&mut self.spill, u.spill_pending) {
            s.restore_pending(&records)?;
        }
        self.respond.restore_from(u.respond);
        self.staged.clear();
        Ok(true)
    }

    /// Writes the superstep's captured outgoing remote packets as one
    /// log segment (one classified sequential write) on this worker's
    /// VFS, enabling confined recovery. Returns the bytes written.
    pub fn commit_msg_log(
        &self,
        superstep: u64,
        captured: &[(WorkerId, Packet)],
    ) -> io::Result<u64> {
        let mut w = MsgLogWriter::new(superstep);
        for (to, packet) in captured {
            w.push_framed(to.index() as u32, packet);
        }
        w.commit_with(self.vfs.as_ref(), self.cfg.codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotset_prefers_high_in_degree() {
        let ind = vec![1u32, 50, 3, 40, 2];
        let h: HotSet<f64> = HotSet::new(0..5, &ind, 2);
        assert!(h.hot.get(1));
        assert!(h.hot.get(3));
        assert!(!h.hot.get(0));
        assert_eq!(h.hot.count(), 2);
        assert_eq!(h.memory_bytes(), 0);
    }

    #[test]
    fn hotset_capacity_above_population() {
        let ind = vec![1u32, 2];
        let h: HotSet<f64> = HotSet::new(0..2, &ind, 10);
        assert_eq!(h.hot.count(), 2);
    }

    /// A checkpoint whose runs have the wrong length is `InvalidData`,
    /// never a panic: values that are not whole records, a flag word run
    /// shorter than its declared length, hot pairs that are not whole
    /// `(u32, message)` records.
    #[test]
    fn malformed_checkpoint_is_invalid_data() {
        let (mut w, _peer) = crate::modes::testkit::worker(JobConfig::new(Mode::PushM, 2));
        let n = w.range.len();
        let mut restore = |values: Vec<u8>, words: Vec<u64>, hot: Vec<u8>| {
            let mut c = CheckpointWriter::new(7);
            c.put(&WorkerCheckpoint {
                values,
                flag_len: n as u64,
                respond: words.clone(),
                signaled: words,
                spill: Some(Vec::new()),
                hot: Some(hot),
            });
            c.commit(w.vfs.as_ref()).expect("commit");
            w.restore_checkpoint(7)
        };
        let values = encode_slice(&vec![1.5f64; n]);
        let hot = encode_slice(&[(3u32, 2.5f64)]);
        restore(values.clone(), vec![1], hot.clone()).expect("well-formed checkpoint");
        let cases = [
            (values[1..].to_vec(), vec![1], hot.clone()),
            (values.clone(), vec![], hot.clone()),
            (values, vec![1], hot[1..].to_vec()),
        ];
        for (values, words, hot) in cases {
            let e = restore(values, words, hot).expect_err("malformed checkpoint restored");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        }
    }
}
