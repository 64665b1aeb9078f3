//! A worker slot's edge stores, and the catalog-built set a job attaches.
//!
//! `EdgeStores::build` is the one build path for adjacency, VE-BLOCK and
//! gather. `Worker::load` calls it for a private job (the stores its mode
//! reads, on the worker's own disk); [`SharedStores::build`] calls it once
//! per slot of a registered graph (all three, on an in-memory disk). A job
//! configured with [`SharedStores`] runs on the partition and layout they
//! were built for and attaches read-only views — same bytes, same indices,
//! but every read the job performs is recorded into *its own* per-worker
//! `IoStats`, so its I/O accounting and `Q_t` inputs stay exactly as
//! correct as for a privately loaded graph.

use crate::config::{JobConfig, Mode};
use hybridgraph_graph::{BlockLayout, Graph, Partition, WorkerId};
use hybridgraph_storage::adjacency::AdjacencyStore;
use hybridgraph_storage::gather::GatherStore;
use hybridgraph_storage::veblock::VeBlockStore;
use hybridgraph_storage::vfs::{MemVfs, Vfs};
use hybridgraph_storage::CodecChoice;
use std::io;
use std::sync::Arc;

/// One worker slot's edge stores; a store the job does not read is `None`.
pub(crate) struct EdgeStores {
    /// Push-side adjacency lists (push family; pull's scatter).
    pub adjacency: Option<AdjacencyStore>,
    /// b-pull's VE-BLOCK.
    pub veblock: Option<VeBlockStore>,
    /// Pull's destination-grouped in-edges.
    pub gather: Option<GatherStore>,
}

/// Which stores a job of `mode` reads: adjacency, VE-BLOCK, gather. Pull's
/// scatter phase reads out-edges to signal destinations; async jobs run
/// push *and* b-pull supersteps, like hybrid.
fn reads(mode: Mode) -> [bool; 3] {
    [
        !matches!(mode, Mode::BPull),
        matches!(mode, Mode::BPull | Mode::Hybrid | Mode::Async),
        matches!(mode, Mode::Pull),
    ]
}

impl EdgeStores {
    /// Builds worker `worker`'s stores on `vfs` (the loading phase of
    /// Fig. 16): the ones `mode` reads, or all three for `None`.
    pub(crate) fn build(
        vfs: &dyn Vfs,
        graph: &Graph,
        partition: &Partition,
        layout: &BlockLayout,
        worker: WorkerId,
        codec: CodecChoice,
        mode: Option<Mode>,
    ) -> io::Result<EdgeStores> {
        let [adj, ve, gather] = mode.map_or([true; 3], reads);
        let range = partition.worker_range(worker);
        Ok(EdgeStores {
            adjacency: adj
                .then(|| AdjacencyStore::build_with(vfs, "adj", graph, range.clone(), codec))
                .transpose()?,
            veblock: ve
                .then(|| VeBlockStore::build_with(vfs, graph, layout, worker, codec))
                .transpose()?,
            gather: gather
                .then(|| GatherStore::build_with(vfs, "gather", graph, range, codec))
                .transpose()?,
        })
    }

    /// The stores worker `worker` of a job under `cfg` reads: views of the
    /// attached [`SharedStores`] charging every read to `vfs`'s stats, or
    /// a private build on `vfs`.
    pub(crate) fn for_job(
        cfg: &JobConfig,
        vfs: &dyn Vfs,
        graph: &Graph,
        partition: &Partition,
        layout: &BlockLayout,
        worker: WorkerId,
    ) -> io::Result<EdgeStores> {
        let Some(shared) = &cfg.shared_stores else {
            let mode = Some(cfg.mode);
            return Self::build(vfs, graph, partition, layout, worker, cfg.codec, mode);
        };
        let slot = &shared.slots[worker.index()];
        let stats = || Arc::clone(vfs.stats());
        let [adj, ve, gather] = reads(cfg.mode);
        Ok(EdgeStores {
            adjacency: view(adj, &slot.adjacency, |s| s.share_view(stats())),
            veblock: view(ve, &slot.veblock, |s| s.share_view(stats())),
            gather: view(gather, &slot.gather, |s| s.share_view(stats())),
        })
    }
}

/// `share(store)` if the job reads the store.
fn view<S>(read: bool, store: &Option<S>, share: impl FnOnce(&S) -> S) -> Option<S> {
    store.as_ref().filter(|_| read).map(share)
}

/// Per-worker-slot prebuilt stores for one registered graph, with the
/// partition and Vblock layout they were built for.
///
/// All three store kinds are built eagerly so a job of any mode can
/// attach. Jobs over a registered graph must use exactly `workers()`
/// workers — the stores are sliced for that partition.
#[derive(Clone)]
pub struct SharedStores {
    /// Catalog-wide id of the registered graph (cache key namespace).
    pub graph_id: u32,
    /// The partition the stores are sliced for.
    pub partition: Arc<Partition>,
    /// The Vblock layout of the VE-BLOCK stores.
    pub layout: Arc<BlockLayout>,
    slots: Arc<[EdgeStores]>,
}

impl SharedStores {
    /// Partitions `graph` over `workers` slots, splits each slot's range
    /// into `vblocks_per_worker` Vblocks and builds all three stores per
    /// slot on its own in-memory disk (the stores Arc-share its buffers).
    pub fn build(
        graph_id: u32,
        graph: &Graph,
        workers: usize,
        vblocks_per_worker: usize,
        codec: CodecChoice,
    ) -> io::Result<SharedStores> {
        let partition = Partition::range(graph.num_vertices(), workers);
        let layout = BlockLayout::uniform(&partition, vblocks_per_worker.max(1));
        let slots = partition
            .workers()
            .map(|w| EdgeStores::build(&MemVfs::new(), graph, &partition, &layout, w, codec, None))
            .collect::<io::Result<_>>()?;
        Ok(SharedStores {
            graph_id,
            partition: Arc::new(partition),
            layout: Arc::new(layout),
            slots,
        })
    }

    /// The worker count the stores were built for.
    pub fn workers(&self) -> usize {
        self.partition.num_workers()
    }
}

impl std::fmt::Debug for SharedStores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStores")
            .field("graph_id", &self.graph_id)
            .field("workers", &self.workers())
            .finish()
    }
}
