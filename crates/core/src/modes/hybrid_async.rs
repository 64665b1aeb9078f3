//! GraphHP-style hybrid sync/async supersteps.
//!
//! One async superstep keeps the BSP shell of push — `load()` the inbox,
//! update, exchange at the barrier — but inserts block-local
//! **pseudo-rounds** between the sweep and the exchange: interior
//! vertices (every edge inside their own Vblock, see
//! [`crate::blockexec`]) have their inboxes *regenerated in memory* from
//! in-block neighbors' current values and are updated again, block by
//! block, until the block's per-round residual drops to
//! [`ASYNC_RESIDUAL`] or [`ASYNC_MAX_ROUNDS`] is hit. Each extra round is progress a strict-BSP run would have paid a
//! global barrier (plus a full value reload and a message exchange) for.
//!
//! Boundary vertices keep strict semantics: they update once in the
//! sweep, and their messages queue for the barrier exactly as in push.
//! A responding vertex's messages to **interior** destinations are never
//! sent — regeneration absorbs them (interior vertices' in-edges are all
//! in-block by definition, so nothing is lost); with `send_all`
//! (the async → push switch superstep) every destination is sent so the
//! next strict superstep sees a complete inbox.
//!
//! Sender liveness follows the responding flag as a *standing* state: a
//! vertex contributes to regenerated inboxes iff its most recent update
//! responded: this superstep's (the frontier's `next`, once the vertex is
//! updated), or last superstep's (`cur`, checkpointed). Regeneration
//! always rebuilds a vertex's **whole** inbox from live in-block
//! senders — never a delta — so overwrite-style programs (PageRank's
//! `(1-d)/N + d·Σ`) stay correct. Everything is iterated in canonical
//! block-then-vertex order, so same-seed runs are byte-identical.
//!
//! Global barriers stay BSP, so checkpoints, the scheduler and the cost
//! model keep their contracts: an async superstep checkpoints and rolls
//! back like any other and `tests/graphhp.rs` kills workers mid-step and
//! asserts bit equality, but recovery never confines (pseudo-round
//! receive state is not undoable). [`crate::switch::decide`] weighs the
//! rounds' barrier savings against their duplicated interior compute
//! ([`crate::switch::async_gain`]), and a program with a `tolerance()`
//! (`PageRank::until`, `Lpa::converging`) ends the job once a superstep's
//! largest residual falls to it. Strict modes pay for none of this: no
//! classification, no residuals without a tolerance, and byte-identical
//! audits.

use super::push::{exchange, load_inbox};
use crate::bitset::BitSet;
use crate::frontier::Frontier;
use crate::metrics::StepReport;
use crate::program::VertexProgram;
use crate::worker::{OutEdges, Worker};
use hybridgraph_graph::{Edge, VertexId};
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_storage::{AccessClass, Record};
use std::io;
use std::sync::Arc;

/// Per-block residual threshold for pseudo-rounds: a block stops
/// iterating its interior once the maximum `VertexProgram::residual` of
/// its last round is at or below this.
pub const ASYNC_RESIDUAL: f64 = 1e-9;
/// Hard cap on pseudo-rounds per superstep (the regenerating round 0 plus
/// at most this many dirty rounds).
pub const ASYNC_MAX_ROUNDS: u64 = 8;

/// Runs one async superstep.
///
/// * `send_all` — send to **every** destination instead of boundary-only
///   (the async → push switch superstep, [`StepKind::AsyncThenPush`]
///   (crate::metrics::StepKind::AsyncThenPush)).
pub(crate) fn run_async_step<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    send_all: bool,
) -> io::Result<()> {
    let program = Arc::clone(&w.program);
    let info = w.info;
    let superstep = w.superstep;
    let base = w.range.start;

    // load(): the messages received at the previous barrier.
    let work = load_inbox(w, rep)?;
    w.trace_phase("load");

    let cls = Arc::clone(w.cls.as_ref().expect("async mode requires classification"));
    let index = w
        .interior
        .take()
        .expect("async mode requires interior index");

    // Vertices updated this superstep. Only an update sets `next`, so a
    // vertex is live if `next` has it, or if it is untouched and `cur` has.
    let mut touched = BitSet::new(w.range.len());
    let live =
        |f: &Frontier, touched: &BitSet, i| f.next().get(i) || (!touched.get(i) && f.responds(i));

    let mut tbuf: ThresholdBuffer<P::Message> =
        ThresholdBuffer::new(w.cfg.workers, w.cfg.sending_threshold);
    let mut max_extra_rounds = 0u64;

    // The index is out of the worker for the sweep, so it is added to
    // the standing footprint by hand; neither changes before the
    // exchange phase.
    let standing = w.standing_memory_bytes() + index.memory_bytes();
    let mut out_edges = OutEdges::default();
    let mut groups = work.iter().peekable();
    let result = (|| -> io::Result<()> {
        for (bi, ib) in index.blocks.iter().enumerate() {
            let br = ib.range.clone();
            if br.is_empty() {
                continue;
            }
            let block_bytes = br.len() as u64 * P::Value::BYTES as u64;
            let mut vals = w.values.read_range(br.clone())?;
            w.note_value_preimage(br.start, &vals);
            rep.sem.value_update_bytes += block_bytes;

            // Sweep: apply the real inbox (strict semantics, boundary and
            // interior destinations alike).
            while let Some((v, msgs)) = groups.next_if(|(v, _)| *v < br.end) {
                debug_assert!(br.contains(&v));
                let idx = (v - br.start) as usize;
                let upd = w.update_vertex(VertexId(v), &vals[idx], msgs, rep);
                // The kernel raised the responding flag; the sweep is this
                // vertex's first update of the superstep, so a lowered one
                // is already clear.
                touched.set((v - base) as usize);
                if cls.is_boundary(v) {
                    rep.asy.boundary_active += 1;
                } else {
                    rep.asy.interior_active += 1;
                }
                vals[idx] = upd.value;
            }

            // Pseudo-rounds: regenerate interior inboxes in memory and
            // iterate until the block's residual settles.
            let mut extra_rounds = 0u64;
            if !ib.interior.is_empty() {
                // Round 1 visits every interior vertex (the inbox left by
                // an arbitrary previous mode is consumed by the sweep;
                // regeneration re-derives the in-block part from current
                // values). Later rounds visit only dirtied vertices.
                let mut dirty: Vec<u32> = (0..ib.interior.len() as u32).collect();
                let mut dirty_mark = vec![false; ib.interior.len()];
                let mut inbox: Vec<P::Message> = Vec::new();
                let mut block_active = false;
                for round in 1..=ASYNC_MAX_ROUNDS {
                    let mut round_updates = 0u64;
                    let mut round_msgs = 0u64;
                    let mut round_max = 0.0f64;
                    let mut changed: Vec<u32> = Vec::new();
                    for &p in &dirty {
                        let v = ib.interior[p as usize];
                        inbox.clear();
                        let (s, e) = (
                            ib.rev_offsets[p as usize] as usize,
                            ib.rev_offsets[p as usize + 1] as usize,
                        );
                        for (src, edge) in &ib.rev[s..e] {
                            let slocal = (*src - base) as usize;
                            if live(&w.respond, &touched, slocal) {
                                let sval = &vals[(*src - br.start) as usize];
                                if let Some(m) = program.message(
                                    VertexId(*src),
                                    sval,
                                    w.out_degrees[slocal],
                                    edge,
                                ) {
                                    inbox.push(m);
                                }
                            }
                        }
                        // No live in-block sender: under strict semantics
                        // the vertex would not compute — skip it.
                        if inbox.is_empty() {
                            continue;
                        }
                        let idx = (v - br.start) as usize;
                        let upd = program.update(
                            VertexId(v),
                            &info,
                            superstep + round,
                            &vals[idx],
                            &inbox,
                        );
                        let residual = program.residual(&vals[idx], &upd.value);
                        round_max = round_max.max(residual);
                        rep.max_residual = rep.max_residual.max(residual);
                        round_updates += 1;
                        round_msgs += inbox.len() as u64;
                        rep.asy.interior_updates += 1;
                        rep.asy.interior_messages += inbox.len() as u64;
                        rep.asy.interior_msg_bytes += inbox.len() as u64 * P::Message::BYTES as u64;
                        let local = (v - base) as usize;
                        let was_live = live(&w.respond, &touched, local);
                        touched.set(local);
                        w.respond.set_next(local, upd.respond);
                        if residual != 0.0 || was_live != upd.respond {
                            changed.push(p);
                        }
                        vals[idx] = upd.value;
                    }
                    if round_updates == 0 {
                        break;
                    }
                    extra_rounds = round;
                    block_active = true;
                    w.trace_round(bi, round, round_updates, round_msgs);
                    if round_max <= ASYNC_RESIDUAL {
                        rep.asy.blocks_converged += 1;
                        break;
                    }
                    // Dirty propagation: in-block interior destinations of
                    // every vertex whose value or liveness changed.
                    dirty_mark.iter_mut().for_each(|d| *d = false);
                    for &p in &changed {
                        let j = (ib.interior[p as usize] - br.start) as usize;
                        let (fs, fe) = (ib.fwd_offsets[j] as usize, ib.fwd_offsets[j + 1] as usize);
                        for &q in &ib.fwd[fs..fe] {
                            dirty_mark[q as usize] = true;
                        }
                    }
                    dirty = (0..ib.interior.len() as u32)
                        .filter(|&q| dirty_mark[q as usize])
                        .collect();
                    if dirty.is_empty() {
                        break;
                    }
                }
                if block_active {
                    rep.asy.blocks_active += 1;
                }
            }
            max_extra_rounds = max_extra_rounds.max(extra_rounds);

            // pushRes() from final values: every vertex that updated this
            // superstep and is finally responding — set in `next`, which
            // only updates set — sends, to boundary destinations only
            // unless this is the async → push switch.
            let keep = |e: &Edge| send_all || cls.is_boundary(e.dst.0);
            for i in (br.start - base) as usize..(br.end - base) as usize {
                if !w.respond.next().get(i) {
                    continue;
                }
                let v = VertexId(base + i as u32);
                let edges = w.read_out_edges(v, AccessClass::SeqRead, rep, &mut out_edges)?;
                let value = &vals[(v.0 - br.start) as usize];
                w.push_res(v, value, edges, keep, &mut tbuf, rep);
            }

            w.note_memory(tbuf.memory_bytes() + block_bytes + standing);
            rep.sem.value_update_bytes += block_bytes;
            w.values.write_range(br.clone(), &vals)?;
        }
        Ok(())
    })();
    w.interior = Some(index);
    result?;
    rep.asy.pseudo_rounds = 1 + max_extra_rounds;
    w.trace_phase(if send_all {
        "sweep+rounds+pushAll"
    } else {
        "sweep+rounds+pushRes"
    });

    // Exchange phase (identical to push).
    exchange(w, tbuf, false, rep)?;
    w.trace_phase("exchange");
    Ok(())
}
