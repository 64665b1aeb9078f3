//! The control plane between the master and its workers: the commands,
//! the replies, the one command round, and the worker thread's loop.
//!
//! The master talks to workers only through [`Links::round`]; the load
//! and superstep rounds accept `Failed` replies as input, every other
//! round ends on one. A worker panic is a `Failed` with no endpoint (it
//! unwound with the thread), so it is fatal under every checkpoint
//! policy: the master aborts the peers and returns
//! [`JobError::WorkerFailed`] instead of hanging the job.

use super::JobError;
use crate::config::JobConfig;
use crate::fault::FaultPhase;
use crate::metrics::{StepKind, StepReport};
use crate::modes::bpull::run_bpull_step;
use crate::modes::hybrid_async::run_async_step;
use crate::modes::pull::run_pull_step;
use crate::modes::push::run_push_step;
use crate::program::VertexProgram;
use crate::worker::{Worker, WorkerLoadReport, WorkerSeed};
use hybridgraph_graph::WorkerId;
use hybridgraph_net::fabric::Endpoint;
use hybridgraph_net::packet::Packet;
use hybridgraph_storage::frame;
use hybridgraph_storage::segment::{self, Checkpoint, MsgLog, MsgLogReader};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// What the master orders a worker to do. A worker whose command channel
/// hangs up exits.
#[derive(Copy, Clone, Debug)]
pub(super) enum Cmd {
    Step {
        kind: StepKind,
        superstep: u64,
        /// Master's modeled clock (µs) when the step was issued; workers
        /// lay their phase spans from this base so every track shares one
        /// deterministic timeline.
        base_us: u64,
    },
    /// Write the checkpoint for `superstep`; optionally prune the one at
    /// `prune` afterwards (retention 1). In a job that logs messages, log
    /// segments at or before `superstep` are pruned too — a future
    /// failure replays from this cut, so they can never be needed again.
    Checkpoint {
        superstep: u64,
        prune: Option<u64>,
    },
    /// Reset the endpoint to the fabric `epoch` and restore the
    /// checkpoint taken after `superstep`.
    Rollback {
        superstep: u64,
        epoch: u64,
    },
    /// Confined recovery, survivor side: reset the endpoint to `epoch`
    /// and revert exactly the last captured superstep in memory.
    UndoStep {
        epoch: u64,
    },
    /// Confined recovery, survivor side: re-serve the log segment of
    /// `superstep`, forwarding the entries addressed to worker `target`.
    ReplayServe {
        superstep: u64,
        target: usize,
    },
    /// Confined recovery, respawned-worker side: re-execute `superstep`
    /// with remote sends suppressed (peers already processed the
    /// originals) and inputs arriving from the survivors' logs.
    ReplayStep {
        kind: StepKind,
        superstep: u64,
    },
    Collect,
}

/// A worker's answer to one command (or, for `Loaded`, to being spawned).
pub(super) enum WorkerMsg<V> {
    Loaded(Box<WorkerLoadReport>),
    Step(Box<StepReport>),
    /// The worker unwound from an aborted superstep and is awaiting
    /// commands.
    Aborted,
    /// Checkpoint written; payload is the bytes it occupies on disk.
    Checkpointed(u64),
    RolledBack,
    /// Survivor reverted its last captured superstep (confined recovery).
    Undone,
    /// Survivor finished re-serving one log segment.
    Served,
    /// Respawned worker finished re-executing one replayed superstep.
    Replayed,
    /// The worker's final values and the first vertex id they belong to.
    Values(u32, Vec<V>),
    /// The worker died.
    Failed(Failure),
}

/// One worker death as the master learns of it.
pub(super) struct Failure {
    pub worker: usize,
    pub error: String,
    /// The dead worker's fabric endpoint, handed back when it can be so
    /// the master can respawn a replacement onto the same slot; a worker
    /// that panicked cannot.
    pub endpoint: Option<Box<Endpoint>>,
}

/// A reply as it travels: the sending worker's index and its message.
pub(super) type Reply<V> = (usize, WorkerMsg<V>);

/// The master's ends of the command and reply channels.
pub(super) struct Links<V> {
    /// One command sender per worker; replaced when a worker respawns.
    pub cmd_txs: Vec<Sender<Cmd>>,
    pub rep_rx: Receiver<Reply<V>>,
}

impl<V> Links<V> {
    /// The one command round: sends `cmd` (if any — a freshly spawned
    /// worker reports `Loaded` unprompted) to every worker in `targets`
    /// and hands exactly one reply from each, in arrival order, to `take`.
    ///
    /// `take` consumes an in-protocol reply and hands anything else back.
    /// A handed-back `Failed` becomes [`JobError::WorkerFailed`] at
    /// superstep `at`; so does a reply from a worker that was not asked
    /// or already answered, a reply of the wrong kind, and a worker whose
    /// command channel is closed. Nothing that arrives over a channel can
    /// panic the master.
    pub fn round(
        &self,
        targets: &[usize],
        cmd: Option<Cmd>,
        at: u64,
        mut take: impl FnMut(usize, WorkerMsg<V>) -> Result<(), WorkerMsg<V>>,
    ) -> Result<(), JobError> {
        let failed = |worker: usize, error: String| JobError::WorkerFailed {
            worker,
            superstep: at,
            error,
        };
        let on = |what: &str| match cmd {
            Some(cmd) => format!("{what} {cmd:?}"),
            None => format!("{what} a (re)load"),
        };
        let mut waiting = vec![false; self.cmd_txs.len()];
        for &i in targets {
            waiting[i] = true;
            if cmd.is_some_and(|cmd| self.cmd_txs[i].send(cmd).is_err()) {
                return Err(failed(i, on("worker hung up before")));
            }
        }
        for _ in targets {
            let Ok((i, msg)) = self.rep_rx.recv() else {
                let e = io::Error::new(io::ErrorKind::BrokenPipe, "every worker hung up");
                return Err(JobError::Io(e));
            };
            if !waiting.get(i).copied().unwrap_or(false) {
                return Err(failed(i, on("unsolicited reply to")));
            }
            waiting[i] = false;
            match take(i, msg) {
                Ok(()) => {}
                Err(WorkerMsg::Failed(f)) => return Err(failed(i, f.error)),
                Err(_) => return Err(failed(i, on("out-of-protocol reply to"))),
            }
        }
        Ok(())
    }

    /// A round of a command whose only answer is its acknowledgement.
    pub fn order(&self, targets: &[usize], cmd: Cmd, at: u64) -> Result<(), JobError> {
        self.round(targets, Some(cmd), at, |_, msg| match (cmd, &msg) {
            (Cmd::Rollback { .. }, WorkerMsg::RolledBack)
            | (Cmd::UndoStep { .. }, WorkerMsg::Undone)
            | (Cmd::ReplayServe { .. }, WorkerMsg::Served)
            | (Cmd::ReplayStep { .. }, WorkerMsg::Replayed) => Ok(()),
            _ => Err(msg),
        })
    }
}

/// The one superstep frame, live or replayed: opens the superstep, runs
/// the executor of `kind` into a fresh report, closes the superstep, and
/// stamps the wall and blocking seconds.
pub(crate) fn run_step_kind<P: VertexProgram>(
    w: &mut Worker<P>,
    kind: StepKind,
    superstep: u64,
) -> io::Result<StepReport> {
    let t0 = Instant::now();
    w.begin_superstep(superstep, kind);
    let mut rep = StepReport::default();
    match kind {
        StepKind::Push => run_push_step(w, &mut rep, true, false),
        StepKind::PushNoSend => run_push_step(w, &mut rep, false, false),
        StepKind::PushM => run_push_step(w, &mut rep, true, true),
        StepKind::Pull => run_pull_step(w, &mut rep),
        StepKind::BPull => run_bpull_step(w, &mut rep, false),
        StepKind::BPullThenPush => run_bpull_step(w, &mut rep, true),
        StepKind::Async => run_async_step(w, &mut rep, false),
        StepKind::AsyncThenPush => run_async_step(w, &mut rep, true),
    }?;
    w.finish_superstep(&mut rep);
    rep.wall_secs = t0.elapsed().as_secs_f64();
    rep.blocking_secs = w.blocking_secs;
    Ok(rep)
}

/// One worker thread. Whatever ends it abnormally — an I/O error, an
/// injected fault, a panic in the vertex program or in an executor —
/// reaches the master as one `Failed` reply, so a round never waits for
/// a worker that is no longer there. The thread itself never stays
/// panicked (`thread::scope` would re-raise it in the master).
pub(super) fn worker_main<P: VertexProgram>(
    seed: WorkerSeed<'_, P>,
    cmd_rx: Receiver<Cmd>,
    rep_tx: Sender<Reply<P::Value>>,
) {
    let index = seed.id.index();
    let ran = catch_unwind(AssertUnwindSafe(|| worker_loop(seed, &cmd_rx, &rep_tx)));
    if let Err(payload) = ran {
        let why = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("(non-string panic payload)");
        // The endpoint unwound with the worker: unrecoverable.
        let msg = WorkerMsg::Failed(Failure {
            worker: index,
            error: format!("worker panicked: {why}"),
            endpoint: None,
        });
        rep_tx.send((index, msg)).ok();
    }
}

/// `Err` if the job's fault plan kills worker `index` at this point.
fn injected(cfg: &JobConfig, index: usize, superstep: u64, phase: FaultPhase) -> io::Result<()> {
    let plan = cfg.fault_plan.as_ref();
    if !plan.is_some_and(|p| p.should_fail(index, superstep, phase)) {
        return Ok(());
    }
    let when = match phase {
        FaultPhase::Load => "while loading".to_string(),
        FaultPhase::Compute => format!("before compute of superstep {superstep}"),
        FaultPhase::Barrier => format!("at barrier of superstep {superstep}"),
    };
    Err(io::Error::other(format!("injected fault: killed {when}")))
}

fn worker_loop<P: VertexProgram>(
    seed: WorkerSeed<'_, P>,
    cmd_rx: &Receiver<Cmd>,
    rep_tx: &Sender<Reply<P::Value>>,
) {
    let index = seed.id.index();
    let died = |error: String, endpoint: Option<Box<Endpoint>>| {
        let f = Failure {
            worker: index,
            error,
            endpoint,
        };
        rep_tx.send((index, WorkerMsg::Failed(f))).ok();
    };
    // The load-phase hook fires before `Worker::load` consumes the
    // endpoint, so an injected load fault is recoverable; a genuine load
    // error is not (the endpoint went down with the half-built worker).
    if let Err(e) = injected(&seed.cfg, index, 0, FaultPhase::Load) {
        return died(e.to_string(), Some(Box::new(seed.ep)));
    }
    let mut worker = match Worker::load(seed) {
        Ok((worker, report)) => {
            rep_tx
                .send((index, WorkerMsg::Loaded(Box::new(report))))
                .ok();
            worker
        }
        Err(e) => return died(e.to_string(), None),
    };
    loop {
        // Idle workers must keep servicing the endpoint: the ARQ layer
        // retransmits from the *sender*, so a worker parked between
        // supersteps would otherwise never re-send a dropped frame a
        // peer is still blocked on.
        let cmd = match cmd_rx.recv_timeout(Duration::from_millis(2)) {
            Ok(cmd) => cmd,
            Err(RecvTimeoutError::Timeout) => {
                worker.ep.service();
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // The one reply site. An error is this worker's death: it hands
        // its endpoint back so the master can respawn onto the slot.
        match handle(&mut worker, cmd) {
            Ok(msg) => {
                if rep_tx.send((index, msg)).is_err() {
                    return;
                }
            }
            Err(e) => return died(e.to_string(), Some(Box::new(worker.ep))),
        }
    }
}

/// Executes one command; `Err` kills the worker.
fn handle<P: VertexProgram>(w: &mut Worker<P>, cmd: Cmd) -> io::Result<WorkerMsg<P::Value>> {
    match cmd {
        Cmd::Step {
            kind,
            superstep,
            base_us,
        } => step(w, kind, superstep, base_us),
        Cmd::Checkpoint { superstep, prune } => {
            checkpoint(w, superstep, prune).map(WorkerMsg::Checkpointed)
        }
        Cmd::Rollback { superstep, epoch } => {
            // Stale packets from the aborted superstep (message batches,
            // end-of-step markers, the abort itself) and un-acked ARQ
            // frames must not leak into the re-execution: the epoch
            // reset invalidates them all.
            w.ep.reset(epoch);
            w.undo = None;
            w.restore_checkpoint(superstep)?;
            Ok(WorkerMsg::RolledBack)
        }
        Cmd::UndoStep { epoch } => {
            w.ep.reset(epoch);
            if !w.apply_undo()? {
                let e = "confined undo ordered but no capture exists";
                return Err(io::Error::other(e));
            }
            Ok(WorkerMsg::Undone)
        }
        Cmd::ReplayServe { superstep, target } => {
            replay_serve(w, superstep, target).map(|()| WorkerMsg::Served)
        }
        Cmd::ReplayStep { kind, superstep } => {
            // Re-execute with remote sends suppressed: every peer
            // already processed the originals, and this worker's own
            // loopback traffic still flows so it re-serves itself.
            w.ep.set_replay(true);
            let res = run_step_kind(w, kind, superstep);
            w.ep.set_replay(false);
            res.map(|_| WorkerMsg::Replayed)
        }
        Cmd::Collect => Ok(WorkerMsg::Values(w.range.start, w.collect_values()?)),
    }
}

fn step<P: VertexProgram>(
    w: &mut Worker<P>,
    kind: StepKind,
    superstep: u64,
    base_us: u64,
) -> io::Result<WorkerMsg<P::Value>> {
    w.step_base_us = base_us;
    let index = w.id.index();
    injected(&w.cfg, index, superstep, FaultPhase::Compute)?;
    let logging = w.cfg.confines_recovery();
    if logging {
        w.ep.start_capture();
        w.begin_undo_capture()?;
    }
    match run_step_kind(w, kind, superstep) {
        Ok(mut rep) => {
            if logging {
                let captured = w.ep.take_capture();
                rep.msg_log_bytes = w.commit_msg_log(superstep, &captured)?;
            }
            injected(&w.cfg, index, superstep, FaultPhase::Barrier)?;
            Ok(WorkerMsg::Step(Box::new(rep)))
        }
        Err(e) if crate::modes::is_abort(&e) => {
            // A peer failed; the master broadcast an abort. Unwind this
            // superstep (keeping the undo capture for a possible confined
            // recovery) and await the master's next order.
            if logging {
                let _ = w.ep.take_capture();
            }
            Ok(WorkerMsg::Aborted)
        }
        Err(e) => Err(e),
    }
}

fn checkpoint<P: VertexProgram>(
    w: &mut Worker<P>,
    superstep: u64,
    prune: Option<u64>,
) -> io::Result<u64> {
    let bytes = w.write_checkpoint(superstep)?;
    // Pruning is idempotent: a restarted incarnation may re-prune a cut
    // its predecessor already removed.
    if let Some(p) = prune {
        segment::remove::<Checkpoint>(w.vfs.as_ref(), p)?;
    }
    if w.cfg.confines_recovery() {
        // Replays start from this cut; earlier log segments can never
        // be needed again.
        for s in (prune.unwrap_or(0) + 1)..=superstep {
            segment::remove::<MsgLog>(w.vfs.as_ref(), s)?;
        }
    }
    Ok(bytes)
}

fn replay_serve<P: VertexProgram>(
    w: &mut Worker<P>,
    superstep: u64,
    target: usize,
) -> io::Result<()> {
    let mut r = MsgLogReader::open(w.vfs.as_ref(), superstep)?;
    let to = WorkerId::from(target);
    while let Some(e) = r.next_entry()? {
        if e.dest as usize != target {
            continue;
        }
        let packet: Packet = frame::decode(&e.blob)?;
        w.ep.send_replay(to, packet);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    type Msg = WorkerMsg<u32>;

    /// Three workers' worth of channels, the workers played by the test.
    fn cluster() -> (Links<u32>, Vec<Receiver<Cmd>>, Sender<Reply<u32>>) {
        let (cmd_txs, cmd_rxs) = (0..3).map(|_| channel()).unzip();
        let (rep_tx, rep_rx) = channel();
        (Links { cmd_txs, rep_rx }, cmd_rxs, rep_tx)
    }

    fn died(worker: usize, error: &str) -> Reply<u32> {
        let f = Failure {
            worker,
            error: error.to_string(),
            endpoint: None,
        };
        (worker, WorkerMsg::Failed(f))
    }

    const ROLLBACK: Cmd = Cmd::Rollback {
        superstep: 6,
        epoch: 1,
    };

    /// The `(worker, error)` of the `WorkerFailed` at superstep 7 a round
    /// ended with.
    fn failed(res: Result<(), JobError>) -> (usize, String) {
        match res {
            Err(JobError::WorkerFailed {
                worker,
                superstep: 7,
                error,
            }) => (worker, error),
            other => panic!("expected WorkerFailed at 7, got {other:?}"),
        }
    }

    #[test]
    fn round_delivers_to_targets_and_keeps_arrival_order() {
        let (links, cmd_rxs, rep_tx) = cluster();
        rep_tx.send((2, WorkerMsg::Checkpointed(20))).unwrap();
        rep_tx.send((0, WorkerMsg::Checkpointed(5))).unwrap();
        let cmd = Cmd::Checkpoint {
            superstep: 7,
            prune: None,
        };
        let mut got = Vec::new();
        let res = links.round(&[0, 2], Some(cmd), 7, |i, m: Msg| match m {
            WorkerMsg::Checkpointed(bytes) => {
                got.push((i, bytes));
                Ok(())
            }
            other => Err(other),
        });
        assert!(res.is_ok());
        assert_eq!(got, [(2, 20), (0, 5)]);
        let ordered = |i: usize| matches!(cmd_rxs[i].try_recv(), Ok(Cmd::Checkpoint { .. }));
        assert!(ordered(0) && !ordered(1) && ordered(2));
        // No command: the round only listens (a respawned worker's
        // unprompted `Loaded`).
        rep_tx.send((1, WorkerMsg::Served)).unwrap();
        let res = links.round(&[1], None, 7, |_, m| match m {
            WorkerMsg::Served => Ok(()),
            other => Err(other),
        });
        assert!(res.is_ok() && cmd_rxs[1].try_recv().is_err());
        // An order is acknowledged by its own ack and no other.
        rep_tx.send((1, WorkerMsg::RolledBack)).unwrap();
        assert!(links.order(&[1], ROLLBACK, 7).is_ok());
        rep_tx.send((1, WorkerMsg::RolledBack)).unwrap();
        let res = links.order(&[1], Cmd::UndoStep { epoch: 1 }, 7);
        assert_eq!(failed(res).0, 1);
    }

    #[test]
    fn round_rejects_what_the_protocol_does_not_allow() {
        // A second answer from the same worker.
        let (links, _cmd_rxs, rep_tx) = cluster();
        rep_tx.send((0, WorkerMsg::RolledBack)).unwrap();
        rep_tx.send((0, WorkerMsg::RolledBack)).unwrap();
        let (who, why) = failed(links.order(&[0, 1], ROLLBACK, 7));
        assert!(who == 0 && why.starts_with("unsolicited reply to Rollback"));
        // An answer from a worker that was not asked, or does not exist.
        for stranger in [2, 9] {
            let (links, _cmd_rxs, rep_tx) = cluster();
            rep_tx.send((stranger, WorkerMsg::RolledBack)).unwrap();
            assert_eq!(failed(links.order(&[0, 1], ROLLBACK, 7)).0, stranger);
        }
        // An answer of the wrong kind.
        let (links, _cmd_rxs, rep_tx) = cluster();
        rep_tx.send((1, WorkerMsg::Undone)).unwrap();
        let (who, why) = failed(links.order(&[0, 1], ROLLBACK, 7));
        assert!(who == 1 && why.starts_with("out-of-protocol reply to Rollback"));
        // A worker that is gone: its command channel is closed.
        let (links, mut cmd_rxs, _rep_tx) = cluster();
        cmd_rxs.remove(1);
        let (who, why) = failed(links.order(&[0, 1], ROLLBACK, 7));
        assert!(who == 1 && why.starts_with("worker hung up before Rollback"));
        // Nobody left to answer at all.
        let (links, _cmd_rxs, rep_tx) = cluster();
        drop(rep_tx);
        assert!(matches!(
            links.order(&[0], ROLLBACK, 7),
            Err(JobError::Io(_))
        ));
    }

    #[test]
    fn a_death_mid_round_is_a_typed_error() {
        // Mid-checkpoint: one worker acked, the next died writing.
        let (links, _cmd_rxs, rep_tx) = cluster();
        rep_tx.send((0, WorkerMsg::Checkpointed(64))).unwrap();
        rep_tx.send(died(1, "disk full")).unwrap();
        let cmd = Cmd::Checkpoint {
            superstep: 7,
            prune: Some(5),
        };
        let res = links.round(&[0, 1, 2], Some(cmd), 7, |_, m| match m {
            WorkerMsg::Checkpointed(_) => Ok(()),
            other => Err(other),
        });
        assert_eq!(failed(res), (1, "disk full".into()));
        // Mid-confined-replay: the respawned worker dies re-executing,
        // and a survivor dies re-serving its log.
        rep_tx.send(died(2, "worker panicked: again")).unwrap();
        let step = Cmd::ReplayStep {
            kind: StepKind::Push,
            superstep: 6,
        };
        let res = links.order(&[2], step, 7);
        assert_eq!(failed(res), (2, "worker panicked: again".into()));
        rep_tx.send((0, WorkerMsg::Served)).unwrap();
        rep_tx.send(died(1, "corrupt message-log entry")).unwrap();
        let serve = Cmd::ReplayServe {
            superstep: 6,
            target: 2,
        };
        let res = links.order(&[0, 1], serve, 7);
        assert_eq!(failed(res), (1, "corrupt message-log entry".into()));
        // A round whose `take` accepts deaths (the superstep's) sees them
        // as input instead.
        rep_tx.send(died(0, "x")).unwrap();
        let mut deaths = Vec::new();
        let res = links.round(&[0], None, 7, |_, m| match m {
            WorkerMsg::Failed(f) => {
                deaths.push(f.error);
                Ok(())
            }
            other => Err(other),
        });
        assert!(res.is_ok());
        assert_eq!(deaths, ["x"]);
    }
}
