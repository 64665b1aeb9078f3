//! Superstep executors for the four message-handling strategies and
//! GraphHP-style async.
//!
//! Every executor runs inside one frame, the worker thread's
//! `run_step_kind`: it starts the clock and the superstep's I/O window
//! ([`Worker::begin_superstep`]), hands the executor a fresh
//! [`StepReport`] to fill, and closes the superstep
//! ([`Worker::finish_superstep`]). Executors differ only in traversal:
//! every one of them updates a vertex through [`Worker::update_vertex`],
//! and the push family sends through [`Worker::push_res`].
//!
//! Per-superstep state lives in the worker's [`StepScratch`] — sending
//! buffers, staging tables, decode and round buffers, and the
//! [`ValueWindow`](crate::scratch::ValueWindow), the executors' one path
//! to vertex values. The frame empties it and lends it to the executor,
//! which returns on any path, an abort included, restoring nothing.
//!
//! All executors obey the same BSP contract: a superstep's packets are
//! fully drained before the executor returns, so the master's barrier
//! (waiting for every worker's report before issuing the next superstep)
//! guarantees isolation between supersteps.

pub mod bpull;
pub mod hybrid_async;
pub mod pull;
pub mod push;

use crate::metrics::StepReport;
use crate::program::{Update, VertexProgram};
use crate::scratch::StepScratch;
use crate::worker::Worker;
use hybridgraph_graph::{BlockId, Edge, VertexId, WorkerId};
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_net::packet::Packet;
use hybridgraph_net::wire::{self, BatchKind, WireStats};
use hybridgraph_storage::inbox::{FoldBuf, Inbox};
use std::io;
use std::ops::Range;
use std::sync::Arc;

/// Marker message of the error the executors return when the master
/// broadcasts [`Packet::Abort`] mid-superstep because a peer failed.
pub(crate) const ABORT_MARKER: &str = "superstep aborted by master";

/// The abort marker error. The worker thread that returns it stays alive
/// and waits for the master's rollback command.
pub(crate) fn abort_error() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, ABORT_MARKER)
}

/// True if `e` is the abort marker (as opposed to a genuine failure).
pub(crate) fn is_abort(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Interrupted && e.to_string().contains(ABORT_MARKER)
}

/// A packet the running phase has no arm for. A peer never sends one, but
/// a message-log segment read back during confined recovery can hold any
/// variant (its declared layout reads them all and `send_replay` forwards
/// it), so it fails the superstep instead of panicking the worker.
pub(crate) fn unexpected(packet: &Packet, phase: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected packet in {phase}: {packet:?}"),
    )
}

/// Encodes `records` — a sending buffer's `dst | M` records — as `kind`
/// and sends them to `to`. Push batches go out under
/// [`Worker::push_kind`] with no block; pull's gather responses and
/// b-pull's concatenated ones (`for_block` = the Vblock they answer) under
/// [`Worker::batch_kind`] — combined ones whole ("messages in a sub-buffer
/// will not be sent until all messages are produced", §4.3),
/// concatenate-only ones cut at the sending threshold.
pub(crate) fn send_batch<P: VertexProgram>(
    w: &Worker<P>,
    to: WorkerId,
    kind: BatchKind,
    for_block: Option<BlockId>,
    records: &[u8],
) {
    let cut = ThresholdBuffer::<P::Message>::messages_per_flush(w.cfg.sending_threshold);
    let payloads = wire::encode_payloads(kind, records, w.program.combiner(), cut);
    send_payloads(w, to, kind, for_block, payloads);
}

/// Sends encoded `kind` payloads to `to`: the one place a
/// [`Packet::Messages`] leaves a worker.
pub(crate) fn send_payloads<P: VertexProgram>(
    w: &Worker<P>,
    to: WorkerId,
    kind: BatchKind,
    for_block: Option<BlockId>,
    payloads: impl IntoIterator<Item = (impl AsRef<[u8]>, WireStats)>,
) {
    for (payload, stats) in payloads {
        w.ep.send(
            to,
            Packet::Messages {
                kind,
                payload: payload.as_ref().into(),
                stats,
                for_block,
            },
        );
    }
}

/// Stages a (b-)pull response payload in its sender's `slot`, as the bytes
/// it arrived in, after the one check it gets: the encoding this job's
/// responders use, whole records or groups, every destination inside
/// `dsts`. Nothing of a rejected payload is staged. A sender's later
/// *combined* payloads (pull under a small sending threshold) fold into
/// its first on arrival, in send order, so what is resident stays bounded
/// by the sender's distinct destinations (Eq. 5) and every slot ends up
/// holding that sender's partials already folded.
pub(crate) fn stage_response<P: VertexProgram>(
    w: &Worker<P>,
    slot: &mut Vec<Arc<[u8]>>,
    kind: BatchKind,
    payload: Arc<[u8]>,
    dsts: &Range<u32>,
) -> io::Result<()> {
    if kind != w.batch_kind() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{kind:?} response to a job that sends {:?}", w.batch_kind()),
        ));
    }
    wire::check_batch::<P::Message>(kind, &payload, dsts)?;
    match (slot.first_mut(), w.program.combiner()) {
        (Some(first), Some(combiner)) if kind == BatchKind::Combined => {
            *first = wire::fold_combined(first, &payload, combiner).into();
        }
        _ => slot.push(payload),
    }
    Ok(())
}

/// Builds the inbox of a completed Vblock (b-pull) or superstep (pull)
/// from its staged responses, every one of which passed [`stage_response`]
/// against `dsts`. Staged order is senders by worker id, each sender's
/// payloads in send order: uncombined messages are grouped in it, the
/// order `update()` sees them in; combined values fold into `fold` over
/// `dsts` in it — each sender's partials, then across senders. Packets
/// arrive in whatever order the fabric interleaves them; the staged order
/// does not depend on it, so float combining is bit-identical run to run
/// and across a recovery replay. Also returns how many values were staged
/// (the receive buffer `BR_i` at its fullest, in messages).
pub(crate) fn staged_inbox<P: VertexProgram>(
    w: &Worker<P>,
    fold: &mut FoldBuf<P::Message>,
    staged: &[Vec<Arc<[u8]>>],
    dsts: &Range<u32>,
) -> (Inbox<P::Message>, u64) {
    let kind = w.batch_kind();
    let messages = staged
        .iter()
        .flatten()
        .flat_map(|payload| wire::messages::<P::Message>(kind, payload));
    match (kind, w.program.combiner()) {
        (BatchKind::Combined, Some(c)) => {
            fold.reset(dsts.clone());
            let mut values = 0;
            for (dst, m) in messages {
                fold.add(dst, m, |a, b| c.combine(a, b));
                values += 1;
            }
            (fold.drain_inbox(), values)
        }
        _ => {
            let inbox = Inbox::from_staged(messages);
            let values = inbox.messages() as u64;
            (inbox, values)
        }
    }
}

/// The two per-vertex kernels every executor shares (§5.2: `update()` is
/// the same in every mode, and one message function serves `pushRes()`
/// and `pullRes()`; only the traversal around them differs).
impl<P: VertexProgram> Worker<P> {
    /// `update()` of local vertex `v` from its current `value` and
    /// `msgs`, plus its bookkeeping: the residual (in every async step,
    /// otherwise only for a program with a tolerance), the `updated` and
    /// `messages_consumed` counters, and `v`'s responding flag for the
    /// next superstep. The caller stores the returned value.
    pub(crate) fn update_vertex(
        &mut self,
        v: VertexId,
        value: &P::Value,
        msgs: &[P::Message],
        rep: &mut StepReport,
    ) -> Update<P::Value> {
        let program = &self.program;
        let upd = program.update(v, &self.info, self.superstep, value, msgs);
        if self.record_residual {
            rep.max_residual = rep.max_residual.max(program.residual(value, &upd.value));
        }
        rep.updated += 1;
        rep.messages_consumed += msgs.len() as u64;
        if upd.respond {
            let local = self.local(v);
            self.respond.set_next(local, true);
        }
        upd
    }

    /// `pushRes()` of local vertex `v` holding `value`: a message along
    /// every edge of `edges` that `keep` accepts, into `tbuf`, each batch
    /// sent to its worker as it fills.
    pub(crate) fn push_res(
        &self,
        v: VertexId,
        value: &P::Value,
        edges: &[Edge],
        keep: impl Fn(&Edge) -> bool,
        tbuf: &mut ThresholdBuffer<P::Message>,
        rep: &mut StepReport,
    ) {
        let outd = self.out_degrees[self.local(v)];
        for e in edges.iter().filter(|e| keep(e)) {
            if let Some(m) = self.program.message(v, value, outd, e) {
                rep.messages_produced += 1;
                let peer = self.partition.worker_of(e.dst);
                tbuf.push(peer, e.dst, m, |records| {
                    send_batch(self, peer, self.push_kind(), None, records)
                });
            }
        }
    }
}

/// Superstep 1 of the pull family: no messages exist yet, so every
/// initially-active vertex runs `update()` with an empty message list and
/// (possibly) raises its responding flag. b-pull exchanges nothing — it
/// "starts exchanging messages from the 2nd superstep" (Fig. 17); pull
/// then scatters signals.
pub(crate) fn init_updates<P: VertexProgram>(
    w: &mut Worker<P>,
    s: &mut StepScratch<P>,
    rep: &mut StepReport,
) -> io::Result<()> {
    let program = Arc::clone(&w.program);
    for v in w.range.clone() {
        if program.initially_active(VertexId(v), &w.info) {
            s.window.seek(w, v, rep)?;
            s.window[v] = w.update_vertex(VertexId(v), &s.window[v], &[], rep).value;
        }
    }
    s.window.close(w, rep)
}

/// A hand-built worker for the executors' unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::config::JobConfig;
    use crate::program::{GraphInfo, Update, VertexProgram};
    use crate::worker::{Worker, WorkerSeed};
    use hybridgraph_graph::{gen, BlockLayout, Edge, Partition, VertexId, WorkerId};
    use hybridgraph_net::combine::SumCombiner;
    use hybridgraph_net::{Combiner, Endpoint, Fabric};
    use hybridgraph_storage::MemVfs;
    use std::sync::Arc;

    pub(crate) struct Sum;

    impl VertexProgram for Sum {
        type Value = f64;
        type Message = f64;

        fn name(&self) -> &'static str {
            "sum"
        }

        fn init(&self, _v: VertexId, _info: &GraphInfo) -> f64 {
            0.0
        }

        fn update(&self, _: VertexId, _: &GraphInfo, _: u64, _: &f64, msgs: &[f64]) -> Update<f64> {
            Update::respond(msgs.iter().sum())
        }

        fn message(&self, _: VertexId, value: &f64, _: u32, _: &Edge) -> Option<f64> {
            Some(*value)
        }

        fn combiner(&self) -> Option<&dyn Combiner<f64>> {
            Some(&SumCombiner)
        }
    }

    /// Worker 1 of 2 of a 40-vertex job under `cfg`: vertices 20..40 in
    /// Vblocks 2 (20..30) and 3 (30..40). Also returns worker 0's end of
    /// the fabric, for tests that play the peer.
    pub(crate) fn worker(cfg: JobConfig) -> (Worker<Sum>, Endpoint) {
        let g = gen::uniform(40, 200, 3);
        let partition = Arc::new(Partition::range(40, 2));
        let layout = Arc::new(BlockLayout::uniform(&partition, 2));
        let (mut eps, _) = Fabric::mesh(2);
        let seed = WorkerSeed {
            id: WorkerId(1),
            program: Arc::new(Sum),
            graph: &g,
            partition,
            layout,
            cfg,
            ep: eps.remove(1),
            vfs: Arc::new(MemVfs::new()),
            classification: None,
        };
        (Worker::load(seed).expect("load").0, eps.remove(0))
    }
}
