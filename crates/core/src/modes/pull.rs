//! Per-vertex pulling — the disk-extended GraphLab PowerGraph analogue.
//!
//! Every superstep, each destination vertex with in-edges pulls from every
//! worker hosting one of its in-edges (its "mirrors"): requests are
//! per-vertex (batched into id-list packets), the responder reads the
//! vertex's in-edge fragment from the destination-grouped [`GatherStore`]
//! (a random read), and reads each *responding* source vertex's value
//! through the bounded LRU cache (a random read per miss). Updates also go
//! through the cache, with dirty evictions writing values back.
//!
//! This reproduces the cost structure the paper attributes to existing
//! pull systems on disk-resident data: per-vertex requests ("up to
//! `|V|·T` times"), and frequent random access to svertices that LRU can
//! only partially absorb (Table 5's `ext-edge-v2.5` collapse, Fig. 10's
//! `pull` bars).

use super::{init_updates, send_batch, stage_response, staged_inbox};
use crate::metrics::StepReport;
use crate::program::VertexProgram;
use crate::worker::{OutEdges, Worker};
use hybridgraph_graph::{Edge, VertexId, WorkerId};
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_net::packet::Packet;
use hybridgraph_net::wire::{self, BatchKind};
use hybridgraph_storage::gather::InEdgeScratch;
use hybridgraph_storage::inbox::Inbox;
use hybridgraph_storage::stats::{scattered_cost, seek_pad};
use hybridgraph_storage::{AccessClass, Record};
use std::io;
use std::sync::Arc;

/// The buffers a pull superstep works in. The worker keeps them from
/// superstep to superstep, and each superstep starts by emptying them, so
/// a step aborted mid-exchange leaves nothing behind for its rollback
/// re-run.
pub(crate) struct PullScratch<M: Record> {
    /// Outgoing gather requests and signals: `()` records per peer.
    ids: ThresholdBuffer<()>,
    /// Outgoing gather responses per requester.
    responses: ThresholdBuffer<M>,
    /// Each peer's gather-request payloads, staged until every peer is
    /// done requesting.
    requests: Vec<Vec<Arc<[u8]>>>,
    /// Each peer's response payloads, staged until every peer has ended
    /// its gather.
    staged: Vec<Vec<Arc<[u8]>>>,
    /// The in-edges of the vertex a gather request is served for.
    in_edges: InEdgeScratch,
    /// The out-edges of the responder being scattered.
    out_edges: OutEdges,
}

impl<M: Record> PullScratch<M> {
    fn new(workers: usize, sending_threshold: usize) -> Self {
        PullScratch {
            ids: ThresholdBuffer::new(workers, sending_threshold),
            responses: ThresholdBuffer::new(workers, sending_threshold),
            requests: vec![Vec::new(); workers],
            staged: vec![Vec::new(); workers],
            in_edges: InEdgeScratch::default(),
            out_edges: OutEdges::default(),
        }
    }

    /// Drops whatever an aborted superstep left buffered or staged.
    fn clear(&mut self) {
        self.ids.clear();
        self.responses.clear();
        self.requests.iter_mut().for_each(Vec::clear);
        self.staged.iter_mut().for_each(Vec::clear);
    }
}

/// Runs one pull (gather) superstep in the worker's kept buffers.
pub(crate) fn run_pull_step<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
) -> io::Result<()> {
    let (workers, threshold) = (w.cfg.workers, w.cfg.sending_threshold);
    let mut s = w
        .pull
        .take()
        .unwrap_or_else(|| PullScratch::new(workers, threshold));
    s.clear();
    let done = pull_step(w, &mut s, rep);
    w.pull = Some(s);
    done
}

fn pull_step<P: VertexProgram>(
    w: &mut Worker<P>,
    s: &mut PullScratch<P::Message>,
    rep: &mut StepReport,
) -> io::Result<()> {
    let workers = w.cfg.workers;
    if w.superstep == 1 {
        // Local init, then scatter activation signals from the
        // responders so superstep 2 knows who must gather.
        init_updates(w, rep)?;
        scatter_signals(w, s, rep)?;
        w.ep.broadcast(Packet::SuperstepDone);
        let mut done_peers = 0usize;
        while done_peers < workers {
            let env = w.recv_timed();
            match env.packet {
                Packet::Signals { ids } => accept_signals(w, &ids)?,
                Packet::SuperstepDone => done_peers += 1,
                Packet::Abort => return Err(super::abort_error()),
                other => return Err(super::unexpected(&other, "pull init")),
            }
        }
        w.signaled.advance();
        w.trace_phase("init+scatter");
        return Ok(());
    }

    // Request phase: every *signaled* local vertex pulls from each of its
    // mirror workers (including itself, over loopback) — PowerGraph's
    // scatter-driven activation.
    let request = |p, ids: &[u8]| w.ep.send(p, Packet::GatherRequests { ids: ids.into() });
    for i in w.signaled.cur().ones() {
        let (v, mask) = (VertexId(w.range.start + i as u32), w.mirror_peers[i]);
        for p in (0..workers)
            .filter(|p| mask >> p & 1 == 1)
            .map(WorkerId::from)
        {
            s.ids.push(p, v, (), |ids| request(p, ids));
        }
    }
    s.ids.flush_all(request);
    w.ep.broadcast(Packet::DoneRequesting);
    w.trace_phase("request");

    // Event loop: stage requests and responses per sender as they
    // arrive, serve once every peer is done requesting, update when both
    // directions have quiesced.
    let (mut done_requesting, mut got_ends, mut done_peers) = (0usize, 0usize, 0usize);
    let (mut served, mut my_done) = (false, false);
    loop {
        if done_requesting == workers && !served {
            // Sender by sender in worker-id order, so the LRU and the
            // gather store's cursor see the same request sequence whatever
            // order the fabric delivered it in. Every peer has sent all its
            // requests already, so none of them waits on these responses.
            for (p, payloads) in s.requests.iter_mut().enumerate() {
                let from = WorkerId::from(p);
                let requester = w.partition.worker_range(from);
                for ids in payloads.drain(..) {
                    // Ids of the requester's own vertices, as for signals.
                    wire::check_batch::<()>(BatchKind::Plain, &ids, &requester)?;
                    for (v, ()) in wire::messages::<()>(BatchKind::Plain, &ids) {
                        let (tbuf, in_edges) = (&mut s.responses, &mut s.in_edges);
                        serve_gather(w, VertexId(v), from, tbuf, in_edges, rep)?;
                    }
                }
                s.responses.flush(from, |records| {
                    send_batch(w, from, w.batch_kind(), None, records)
                });
                w.ep.send(from, Packet::EndOfGather);
            }
            served = true;
        }
        if got_ends == workers && served && !my_done {
            let mut fold = std::mem::take(&mut w.fold);
            let (inbox, values) = staged_inbox(w, &mut fold, &s.staged, &w.range);
            w.fold = fold;
            s.staged.iter_mut().for_each(Vec::clear);
            let held = values * (4 + P::Message::BYTES as u64);
            w.note_memory(held + w.standing_memory_bytes());
            update_cached(w, rep, &inbox)?;
            // Scatter: responders signal their out-neighbors to gather
            // next superstep.
            scatter_signals(w, s, rep)?;
            my_done = true;
            w.ep.broadcast(Packet::SuperstepDone);
        }
        if my_done && done_peers == workers {
            break;
        }
        let env = w.recv_timed();
        match env.packet {
            Packet::GatherRequests { ids } => s.requests[env.from.index()].push(ids),
            // FIFO per pair: all of this peer's requests are staged.
            Packet::DoneRequesting => done_requesting += 1,
            Packet::Messages { kind, payload, .. } => {
                stage_response(w, &mut s.staged[env.from.index()], kind, payload, &w.range)?;
            }
            Packet::EndOfGather => got_ends += 1,
            Packet::Signals { ids } => accept_signals(w, &ids)?,
            Packet::SuperstepDone => done_peers += 1,
            Packet::Abort => return Err(super::abort_error()),
            other => return Err(super::unexpected(&other, "pull step")),
        }
    }

    w.signaled.advance();
    w.trace_phase("gather+update");
    Ok(())
}

/// PowerGraph-style scatter: every responder reads its out-edges from the
/// adjacency store and signals each destination's owner that the vertex
/// must gather next superstep.
fn scatter_signals<P: VertexProgram>(
    w: &mut Worker<P>,
    s: &mut PullScratch<P::Message>,
    rep: &mut StepReport,
) -> io::Result<()> {
    let signal = |p, ids: &[u8]| w.ep.send(p, Packet::Signals { ids: ids.into() });
    for i in w.respond.next().ones() {
        let v = VertexId(w.range.start + i as u32);
        for e in w.read_out_edges(v, AccessClass::SeqRead, rep, &mut s.out_edges)? {
            let p = w.partition.worker_of(e.dst);
            s.ids.push(p, e.dst, (), |ids| signal(p, ids));
        }
    }
    s.ids.flush_all(signal);
    Ok(())
}

/// Marks locally-owned signal targets for the next superstep. A
/// `Signals` payload is Plain records of `()` messages, like a
/// `GatherRequests` one: a peer never sends one naming a vertex of
/// another worker, but a message-log segment read back in confined
/// recovery can say anything, so a payload that is not whole records, or
/// names a vertex outside the receiver's range, is `InvalidData`.
fn accept_signals<P: VertexProgram>(w: &mut Worker<P>, ids: &[u8]) -> io::Result<()> {
    wire::check_batch::<()>(BatchKind::Plain, ids, &w.range)?;
    for (v, ()) in wire::messages::<()>(BatchKind::Plain, ids) {
        let local = w.local(VertexId(v));
        w.signaled.set_next(local, true);
    }
    Ok(())
}

/// Reads a local vertex value through the LRU cache; misses hit the value
/// store randomly, dirty evictions write back. Both are scattered
/// accesses (request order has no locality), so each one is charged at
/// sector granularity — the cost the paper's Table 5 observes collapsing
/// the disk-extended GraphLab.
pub(crate) fn cached_value<P: VertexProgram>(
    w: &mut Worker<P>,
    v: VertexId,
    rep: &mut StepReport,
) -> io::Result<P::Value> {
    if let Some(val) = w.lru.as_mut().expect("pull needs the LRU").get(&v.0) {
        return Ok(val.clone());
    }
    let val = w.values.read_one(v)?;
    let width = P::Value::BYTES as u64;
    w.vfs.stats().record(AccessClass::RandRead, seek_pad(width));
    rep.sem.svertex_rand_bytes += scattered_cost(width);
    cache_insert(w, v, val.clone(), false)?;
    Ok(val)
}

/// Caches `value` as `v`'s, `dirty` once updated; a dirty value the LRU
/// evicts is written back (scattered random write).
fn cache_insert<P: VertexProgram>(
    w: &mut Worker<P>,
    v: VertexId,
    value: P::Value,
    dirty: bool,
) -> io::Result<()> {
    let lru = w.lru.as_mut().expect("pull needs the LRU");
    let evicted = lru.insert_weighted(v.0, value, dirty, Worker::<P>::lru_entry_weight());
    for (k, old, was_dirty) in evicted {
        if was_dirty {
            w.values.write_one(VertexId(k), &old)?;
            let width = P::Value::BYTES as u64;
            w.vfs
                .stats()
                .record(AccessClass::RandWrite, seek_pad(width));
        }
    }
    Ok(())
}

/// Serves one gather request: read `v`'s local in-edge fragment (into
/// `scratch`, reused request after request), then each responding source's
/// value, generating messages.
fn serve_gather<P: VertexProgram>(
    w: &mut Worker<P>,
    v: VertexId,
    from: WorkerId,
    tbuf: &mut ThresholdBuffer<P::Message>,
    scratch: &mut InEdgeScratch,
    rep: &mut StepReport,
) -> io::Result<()> {
    let (srcs, weights) = w
        .gather
        .as_ref()
        .expect("pull needs the gather store")
        .read_in_edges(v, scratch)?;
    let program = Arc::clone(&w.program);
    for (&src, &weight) in srcs.iter().zip(weights) {
        let src = VertexId(src);
        // Bytes read back from disk: a source outside this worker is corrupt.
        if !w.range.contains(&src.0) {
            let why = format!("gather in-edge of {v} from {src} outside {:?}", w.range);
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        }
        let local = w.local(src);
        if !w.respond.responds(local) {
            continue;
        }
        let val = cached_value(w, src, rep)?;
        let outd = w.out_degrees[local];
        let edge = Edge::weighted(v, f32::from_bits(weight));
        if let Some(m) = program.message(src, &val, outd, &edge) {
            rep.messages_produced += 1;
            tbuf.push(from, v, m, |records| {
                send_batch(w, from, w.batch_kind(), None, records)
            });
        }
    }
    Ok(())
}

/// Applies the superstep's gathered messages through the LRU cache.
fn update_cached<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    inbox: &Inbox<P::Message>,
) -> io::Result<()> {
    for (vg, msgs) in inbox.iter() {
        let v = VertexId(vg);
        let current = cached_value(w, v, rep)?;
        let upd = w.update_vertex(v, &current, msgs, rep);
        cache_insert(w, v, upd.value, true)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::worker;
    use super::*;
    use crate::config::{JobConfig, Mode};
    use crate::metrics::StepKind;
    use crate::runner::control::run_step_kind;

    #[test]
    fn a_corrupt_gather_file_fails_the_step_and_never_panics() {
        let (mut w, peer) = worker(JobConfig::new(Mode::Pull, 2));
        // A raw gather file starts with its first fragment, `dst | count |
        // (src, weight)…`: flip the high bit of the first source (byte 11).
        let file = w.vfs.open("gather").expect("gather file");
        let mut head = [0u8; 12];
        file.read_at(AccessClass::RandRead, 0, &mut head).unwrap();
        head[11] ^= 0x80;
        file.write_at(AccessClass::RandWrite, 0, &head).unwrap();
        let dst = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        assert!(
            dst < 20,
            "the peer, worker 0, requests only its own vertices"
        );
        let request = Packet::GatherRequests {
            ids: dst.to_le_bytes().to_vec().into(),
        };
        for packet in [
            request,
            Packet::DoneRequesting,
            Packet::EndOfGather,
            Packet::SuperstepDone,
        ] {
            peer.send(WorkerId(1), packet);
        }
        let err = run_step_kind(&mut w, StepKind::Pull, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
