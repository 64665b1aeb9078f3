//! Per-superstep state: the buffers every executor works in and the Vblock
//! value window, kept by the [`Worker`] and sized once, as the paper sizes
//! `B_i` and `BS_i` (Eq. 5). [`crate::modes`] states the rule that empties
//! them.

use crate::bitset::BitSet;
use crate::metrics::StepReport;
use crate::modes::bpull::Inflight;
use crate::program::VertexProgram;
use crate::worker::{OutEdges, Worker};
use hybridgraph_graph::VertexId;
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_storage::gather::InEdgeScratch;
use hybridgraph_storage::inbox::FoldBuf;
use hybridgraph_storage::veblock::EblockScratch;
use hybridgraph_storage::Record;
use std::collections::VecDeque;
use std::io;
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

/// Payloads staged per sending worker, as they arrived.
pub(crate) type Slots = Vec<Vec<Arc<[u8]>>>;

/// The buffers of one superstep. [`StepScratch::clear`] leaves what each
/// use resets itself: the fold, the decode buffers, `records` and async's
/// per-block lists.
pub(crate) struct StepScratch<P: VertexProgram> {
    /// `dst | M` records per peer: the push family's sending buffers
    /// (b-pull's fused push too) and pull's gather responses.
    pub tbuf: ThresholdBuffer<P::Message>,
    /// Pull's gather requests and signals.
    pub ids: ThresholdBuffer<()>,
    /// Push batches (push, async, b-pull's fused push) or pull's gather
    /// responses, staged per sender until the phase ends.
    pub inbound: Slots,
    /// Pull's gather requests, staged per sender.
    pub requests: Slots,
    /// `dst | M` records being built: pushM's cold rest of a payload,
    /// b-pull's concatenated response.
    pub records: Vec<u8>,
    pub out_edges: OutEdges,
    pub in_edges: InEdgeScratch,
    /// b-pull: the Eblock being scanned.
    pub scan: EblockScratch,
    /// b-pull: the Vblocks in flight, each with its run of `slots`, a slot
    /// per worker: a completed block's run goes to the next one requested.
    pub inflight: Vec<Inflight>,
    pub slots: Slots,
    /// b-pull: values staged for the last `pipeline` blocks to complete.
    pub completed: VecDeque<u64>,
    pub fold: FoldBuf<P::Message>,
    /// Async: the local vertices updated this superstep; a block's
    /// interior positions to visit next round, their marks, those whose
    /// value or liveness changed, and the inbox being regenerated.
    pub touched: BitSet,
    pub dirty: Vec<u32>,
    pub dirty_mark: Vec<bool>,
    pub changed: Vec<u32>,
    pub inbox: Vec<P::Message>,
    pub window: ValueWindow<P>,
}

impl<P: VertexProgram> StepScratch<P> {
    /// The buffers of a worker of `vertices` local vertices in a job of
    /// `workers` workers sending at `threshold` bytes.
    pub fn new(workers: usize, threshold: usize, vertices: usize) -> Self {
        StepScratch {
            tbuf: ThresholdBuffer::new(workers, threshold),
            ids: ThresholdBuffer::new(workers, threshold),
            inbound: vec![Vec::new(); workers],
            requests: vec![Vec::new(); workers],
            records: Vec::new(),
            out_edges: OutEdges::default(),
            in_edges: InEdgeScratch::default(),
            scan: EblockScratch::default(),
            inflight: Vec::new(),
            slots: Vec::new(),
            completed: VecDeque::new(),
            fold: FoldBuf::default(),
            touched: BitSet::new(vertices),
            dirty: Vec::new(),
            dirty_mark: Vec::new(),
            changed: Vec::new(),
            inbox: Vec::new(),
            window: ValueWindow {
                range: 0..0,
                vals: Vec::new(),
                raw: Vec::new(),
                staged: Vec::new(),
            },
        }
    }

    /// Drops whatever the last superstep left buffered, staged, in flight
    /// or open, keeping every allocation.
    pub fn clear(&mut self) {
        self.tbuf.clear();
        self.ids.clear();
        let staging = self.inbound.iter_mut().chain(&mut self.requests);
        staging.chain(&mut self.slots).for_each(Vec::clear);
        self.inflight.clear();
        self.completed.clear();
        self.touched.clear_all();
        self.window.range = 0..0;
        self.window.staged.clear();
    }
}

impl<P: VertexProgram> Default for StepScratch<P> {
    /// What the worker holds while its own scratch is lent out.
    fn default() -> Self {
        StepScratch::new(0, 1, 0)
    }
}

/// One Vblock's values (`range`, empty when closed), read into kept
/// buffers and indexed by vertex id: the executors' one path to vertex
/// values. b-pull opens it and stages its writes instead of closing it.
pub(crate) struct ValueWindow<P: VertexProgram> {
    pub range: Range<u32>,
    vals: Vec<P::Value>,
    raw: Vec<u8>,
    /// b-pull's staged writes, `(vertex, value)`, each charged as staged.
    pub staged: Vec<(u32, P::Value)>,
}

impl<P: VertexProgram> ValueWindow<P> {
    /// Reads `range` of `w`'s values, dropping what the window held
    /// unwritten; notes the undo pre-image and charges `IO(V^t)`.
    pub fn open(
        &mut self,
        w: &mut Worker<P>,
        range: Range<u32>,
        rep: &mut StepReport,
    ) -> io::Result<()> {
        let values = &w.values;
        values.read_range_into(range.clone(), &mut self.raw, &mut self.vals)?;
        if let Some(u) = &mut w.undo {
            if !u.value_blocks.iter().any(|(s, _)| *s == range.start) {
                u.value_blocks.push((range.start, self.vals.clone()));
            }
        }
        rep.sem.value_update_bytes += range.len() as u64 * P::Value::BYTES as u64;
        self.range = range;
        Ok(())
    }

    /// Opens the Vblock holding `v` (closing the open one) unless open.
    pub fn seek(&mut self, w: &mut Worker<P>, v: u32, rep: &mut StepReport) -> io::Result<()> {
        if !self.range.contains(&v) {
            self.close(w, rep)?;
            let range = w.layout.block_range(w.layout.block_of(VertexId(v)));
            self.open(w, range, rep)?;
        }
        Ok(())
    }

    /// Writes an open window back, charges `IO(V^t)` again, and closes it.
    pub fn close(&mut self, w: &Worker<P>, rep: &mut StepReport) -> io::Result<()> {
        if self.range.is_empty() {
            return Ok(());
        }
        let range = std::mem::replace(&mut self.range, 0..0);
        rep.sem.value_update_bytes += range.len() as u64 * P::Value::BYTES as u64;
        w.values.write_range_from(range, &self.vals, &mut self.raw)
    }

    /// Writes the staged values once no peer can read them anymore, each
    /// run of consecutive vertices as one sequential write.
    pub fn flush(&mut self, w: &Worker<P>) -> io::Result<()> {
        self.staged.sort_by_key(|(v, _)| *v);
        for run in self.staged.chunk_by(|a, b| b.0 == a.0 + 1) {
            self.raw.clear();
            run.iter()
                .for_each(|(_, value)| value.append_to(&mut self.raw));
            w.values.write_encoded(run[0].0, &self.raw)?;
        }
        self.staged.clear();
        Ok(())
    }
}

impl<P: VertexProgram> Index<u32> for ValueWindow<P> {
    type Output = P::Value;

    fn index(&self, v: u32) -> &P::Value {
        &self.vals[(v - self.range.start) as usize]
    }
}

impl<P: VertexProgram> IndexMut<u32> for ValueWindow<P> {
    fn index_mut(&mut self, v: u32) -> &mut P::Value {
        &mut self.vals[(v - self.range.start) as usize]
    }
}
