//! The worker-to-worker channel mesh, its traffic accounting, and the
//! reliable-delivery protocol that makes it usable over a lossy link.
//!
//! [`Fabric::mesh`] builds one [`Endpoint`] per worker; each endpoint can
//! send to any worker (including itself — loopback traffic is accounted
//! separately because it never crosses the NIC) and receives from all
//! peers over a single inbox. [`ControlPlane`] gives the master an
//! out-of-band path into every inbox for rollback aborts.
//!
//! # Reliability
//!
//! The underlying std `mpsc` channels are lossless, but an installed
//! [`NetFaultPlan`] makes the simulated wire drop, duplicate, or delay
//! data frames. On top of that unreliable wire the endpoint runs a
//! classic ARQ protocol, per `(sender, receiver)` link:
//!
//! * every remote data packet carries a per-link **sequence number**;
//! * receivers deliver strictly in order, park out-of-order frames in a
//!   holdback buffer, and drop duplicates;
//! * receivers answer every data frame with a **cumulative ack** (the
//!   next sequence number they expect);
//! * senders keep unacked frames and **retransmit** the oldest one when
//!   its timeout expires; the timeout backs off 10 ms → 160 ms and resets
//!   on progress.
//!
//! Loopback and master control packets travel as `Control` frames that
//! bypass the sequence space: they never cross the simulated wire, so
//! they never fault.
//!
//! # Accounting
//!
//! Logical traffic is recorded **once, at first send** — retransmitted
//! copies, injected duplicates, and acks land in separate overhead
//! counters ([`NetOverhead`], a [`NetSnapshot`]'s `overhead`) that the
//! cost model ignores. That keeps the hybrid engine's per-superstep
//! byte counts (`Q_t`, Eq. 11) identical between a lossless and a lossy
//! run: the paper's push/b-pull tradeoff is about *semantic* bytes, not
//! about how often the transport had to retry, and charging retries would
//! make mode choice depend on packet luck. `tests/fault_recovery.rs`
//! (`unreliable_network_matrix_*`) checks that a wire dropping ~10 % of
//! data frames leaves every per-superstep byte count and value bit equal
//! to the lossless run's.
//!
//! # Epochs
//!
//! Recovery abandons a superstep midway, which would otherwise leave
//! stale unacked frames retransmitting into a rolled-back peer. Every
//! data frame and ack carries the sender's **epoch**; the master bumps
//! the epoch at each recovery, every endpoint [`Endpoint::reset`]s to
//! it before new traffic starts, and frames from an older epoch are
//! dropped on receipt without an ack (their senders have reset too, so
//! nothing retransmits them).

use crate::netfault::{LinkFault, NetFaultPlan};
use crate::packet::Packet;
use hybridgraph_graph::WorkerId;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Initial retransmission timeout per link.
const RTO_BASE: Duration = Duration::from_millis(10);
/// Retransmission timeout ceiling (exponential backoff stops here).
const RTO_MAX: Duration = Duration::from_millis(160);
/// Internal tick used by blocking receives to run maintenance.
const TICK: Duration = Duration::from_millis(5);

/// One worker's per-direction traffic counters.
#[derive(Debug, Default)]
struct PerWorker {
    out_bytes: AtomicU64,
    in_bytes: AtomicU64,
    local_bytes: AtomicU64,
    raw_msgs_out: AtomicU64,
    wire_values_out: AtomicU64,
    saved_msgs_out: AtomicU64,
    requests_out: AtomicU64,
    packets_out: AtomicU64,
}

/// Transport-overhead counters, kept apart from the logical traffic so
/// the cost model can ignore them.
#[derive(Debug, Default)]
struct Overhead {
    retransmitted_bytes: AtomicU64,
    duplicate_drops: AtomicU64,
    dropped_frames: AtomicU64,
    delayed_frames: AtomicU64,
    acks_sent: AtomicU64,
    replayed_bytes: AtomicU64,
}

/// Cluster-wide network counters, indexed by worker.
#[derive(Debug)]
pub struct NetStats {
    workers: Vec<PerWorker>,
    overhead: Overhead,
}

impl NetStats {
    fn new(n: usize) -> Self {
        NetStats {
            workers: (0..n).map(|_| PerWorker::default()).collect(),
            overhead: Overhead::default(),
        }
    }

    /// Number of workers tracked.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    fn record(&self, from: WorkerId, to: WorkerId, packet: &Packet) {
        let bytes = packet.wire_bytes();
        let src = &self.workers[from.index()];
        if from == to {
            src.local_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            src.out_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.workers[to.index()]
                .in_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        }
        src.packets_out.fetch_add(1, Ordering::Relaxed);
        match packet {
            Packet::Messages { stats, .. } => {
                src.raw_msgs_out
                    .fetch_add(stats.raw_messages, Ordering::Relaxed);
                src.wire_values_out
                    .fetch_add(stats.wire_values, Ordering::Relaxed);
                src.saved_msgs_out
                    .fetch_add(stats.saved_messages, Ordering::Relaxed);
            }
            Packet::PullRequest { .. } => {
                src.requests_out.fetch_add(1, Ordering::Relaxed);
            }
            Packet::GatherRequests { ids } => {
                // One request per vertex id carried.
                src.requests_out
                    .fetch_add(ids.len() as u64 / 4, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn bump(&self, f: impl Fn(&Overhead) -> &AtomicU64, n: u64) {
        f(&self.overhead).fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> NetSnapshot {
        let ov = &self.overhead;
        NetSnapshot {
            out_bytes: self.collect(|w| &w.out_bytes),
            in_bytes: self.collect(|w| &w.in_bytes),
            local_bytes: self.collect(|w| &w.local_bytes),
            raw_msgs_out: self.collect(|w| &w.raw_msgs_out),
            wire_values_out: self.collect(|w| &w.wire_values_out),
            saved_msgs_out: self.collect(|w| &w.saved_msgs_out),
            requests_out: self.collect(|w| &w.requests_out),
            packets_out: self.collect(|w| &w.packets_out),
            overhead: NetOverhead {
                retransmitted_bytes: ov.retransmitted_bytes.load(Ordering::Relaxed),
                duplicate_drops: ov.duplicate_drops.load(Ordering::Relaxed),
                dropped_frames: ov.dropped_frames.load(Ordering::Relaxed),
                delayed_frames: ov.delayed_frames.load(Ordering::Relaxed),
                acks_sent: ov.acks_sent.load(Ordering::Relaxed),
                replayed_bytes: ov.replayed_bytes.load(Ordering::Relaxed),
            },
        }
    }

    fn collect(&self, f: impl Fn(&PerWorker) -> &AtomicU64) -> Vec<u64> {
        self.workers
            .iter()
            .map(|w| f(w).load(Ordering::Relaxed))
            .collect()
    }
}

/// Reliability-protocol overhead — bytes and events the ARQ layer spent
/// masking an unreliable fabric, and confined recovery's replays.
/// Reported for observability (a job's `JobMetrics::net_overhead`) but
/// deliberately **excluded** from the cost model's byte counts (`Q_t`,
/// Eqs. 7–8 and the per-step network columns), which account each
/// payload once at first send.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetOverhead {
    /// Bytes re-sent by the ARQ layer: RTO retransmissions plus
    /// fault-injected duplicate copies.
    pub retransmitted_bytes: u64,
    /// Data frames discarded by receivers as already-delivered.
    pub duplicate_drops: u64,
    /// Transmission attempts the fault plan dropped on the wire.
    pub dropped_frames: u64,
    /// Data frames the fault plan held back before delivery.
    pub delayed_frames: u64,
    /// Cumulative acks sent by receivers.
    pub acks_sent: u64,
    /// Bytes re-served from sender-side message logs during confined
    /// recovery (the originals were accounted).
    pub replayed_bytes: u64,
}

impl NetOverhead {
    /// Field-wise difference `self - earlier`.
    fn since(&self, earlier: &NetOverhead) -> NetOverhead {
        NetOverhead {
            retransmitted_bytes: self.retransmitted_bytes - earlier.retransmitted_bytes,
            duplicate_drops: self.duplicate_drops - earlier.duplicate_drops,
            dropped_frames: self.dropped_frames - earlier.dropped_frames,
            delayed_frames: self.delayed_frames - earlier.delayed_frames,
            acks_sent: self.acks_sent - earlier.acks_sent,
            replayed_bytes: self.replayed_bytes - earlier.replayed_bytes,
        }
    }
}

/// An immutable copy of [`NetStats`]; supports totals and deltas.
///
/// The per-worker vectors are *logical* traffic — what a lossless
/// network would carry, recorded once per packet at first send.
/// `overhead` is transport overhead, excluded from every cost-model
/// input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Bytes each worker sent to remote peers.
    pub out_bytes: Vec<u64>,
    /// Bytes each worker received from remote peers.
    pub in_bytes: Vec<u64>,
    /// Loopback bytes (self-sends; never cross the NIC).
    pub local_bytes: Vec<u64>,
    /// Raw (pre-merge) messages each worker emitted.
    pub raw_msgs_out: Vec<u64>,
    /// Values actually on the wire per worker.
    pub wire_values_out: Vec<u64>,
    /// Messages merged away by concatenation/combining per worker (`M_co`).
    pub saved_msgs_out: Vec<u64>,
    /// Pull requests sent per worker.
    pub requests_out: Vec<u64>,
    /// Packets sent per worker.
    pub packets_out: Vec<u64>,
    /// Transport overhead since the mesh was built.
    pub overhead: NetOverhead,
}

impl NetSnapshot {
    /// Total remote bytes (each transfer counted once, at the sender).
    pub fn total_remote_bytes(&self) -> u64 {
        self.out_bytes.iter().sum()
    }

    /// Total raw messages emitted.
    pub fn total_raw_messages(&self) -> u64 {
        self.raw_msgs_out.iter().sum()
    }

    /// Total merged-away messages (`M_co`).
    pub fn total_saved_messages(&self) -> u64 {
        self.saved_msgs_out.iter().sum()
    }

    /// Total pull requests.
    pub fn total_requests(&self) -> u64 {
        self.requests_out.iter().sum()
    }

    /// Element-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &NetSnapshot) -> NetSnapshot {
        fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| x - y).collect()
        }
        NetSnapshot {
            out_bytes: sub(&self.out_bytes, &earlier.out_bytes),
            in_bytes: sub(&self.in_bytes, &earlier.in_bytes),
            local_bytes: sub(&self.local_bytes, &earlier.local_bytes),
            raw_msgs_out: sub(&self.raw_msgs_out, &earlier.raw_msgs_out),
            wire_values_out: sub(&self.wire_values_out, &earlier.wire_values_out),
            saved_msgs_out: sub(&self.saved_msgs_out, &earlier.saved_msgs_out),
            requests_out: sub(&self.requests_out, &earlier.requests_out),
            packets_out: sub(&self.packets_out, &earlier.packets_out),
            overhead: self.overhead.since(&earlier.overhead),
        }
    }
}

/// An addressed packet as received: who sent it and what it is.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The sending worker.
    pub from: WorkerId,
    /// The packet.
    pub packet: Packet,
}

/// What actually travels over the channels.
#[derive(Clone, Debug)]
enum Frame {
    /// A sequenced, acked, fault-exposed data frame.
    Data {
        epoch: u64,
        seq: u64,
        packet: Packet,
    },
    /// Cumulative ack: `cum` is the next sequence the receiver expects.
    /// Acks ride the reverse wire but never fault — modeling them as
    /// small, heavily-retried control traffic keeps the protocol's
    /// liveness argument trivial without changing what it measures.
    Ack { epoch: u64, cum: u64 },
    /// Unsequenced frame: loopback, master control, or recovery replay.
    Control { packet: Packet },
}

struct RawEnvelope {
    from: WorkerId,
    frame: Frame,
}

/// Sender side of one directed link.
struct SendLink {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
    rto: Duration,
    last_tx: Instant,
}

struct Unacked {
    seq: u64,
    packet: Packet,
    attempts: u32,
}

impl SendLink {
    fn new() -> Self {
        SendLink {
            next_seq: 0,
            unacked: VecDeque::new(),
            rto: RTO_BASE,
            last_tx: Instant::now(),
        }
    }
}

/// Receiver side of one directed link.
struct RecvLink {
    expected: u64,
    ooo: BTreeMap<u64, Packet>,
}

/// A fault-delayed frame awaiting its release time.
struct Delayed {
    due: Instant,
    to: WorkerId,
    frame: Frame,
}

/// The endpoint's mutable protocol state. Interior-mutable because the
/// public API takes `&self` (an endpoint is owned by exactly one worker
/// thread).
struct EpState {
    epoch: u64,
    out: Vec<SendLink>,
    inn: Vec<RecvLink>,
    ready: VecDeque<Envelope>,
    delayed: Vec<Delayed>,
    faults: Option<Arc<NetFaultPlan>>,
    capture: Option<Vec<(WorkerId, Packet)>>,
    suppress: bool,
}

/// One worker's attachment to the fabric.
pub struct Endpoint {
    me: WorkerId,
    txs: Vec<Sender<RawEnvelope>>,
    rx: Receiver<RawEnvelope>,
    stats: Arc<NetStats>,
    state: RefCell<EpState>,
}

impl Endpoint {
    /// This endpoint's worker id.
    pub fn id(&self) -> WorkerId {
        self.me
    }

    /// Number of workers in the mesh.
    pub fn num_workers(&self) -> usize {
        self.txs.len()
    }

    /// Installs a network-fault schedule on this endpoint's outgoing
    /// links. Typically called once per endpoint right after
    /// [`Fabric::mesh`], sharing one plan across the mesh.
    pub fn install_faults(&self, plan: Arc<NetFaultPlan>) {
        self.state.borrow_mut().faults = Some(plan);
    }

    /// Sends `packet` to `to`, accounting its bytes.
    ///
    /// Remote packets enter the reliable-delivery pipeline (sequencing,
    /// acks, retransmission, fault exposure); loopback packets bypass it.
    /// In replay mode ([`Endpoint::set_replay`]) remote sends are
    /// silently discarded and nothing is accounted: the original
    /// transmission already was, and survivors re-serve it from their
    /// logs.
    pub fn send(&self, to: WorkerId, packet: Packet) {
        let mut st = self.state.borrow_mut();
        if st.suppress {
            if to == self.me {
                self.raw_send(to, Frame::Control { packet });
            }
            return;
        }
        self.stats.record(self.me, to, &packet);
        if to == self.me {
            self.raw_send(to, Frame::Control { packet });
            return;
        }
        if let Some(cap) = st.capture.as_mut() {
            cap.push((to, packet.clone()));
        }
        let seq = {
            let link = &mut st.out[to.index()];
            let seq = link.next_seq;
            link.next_seq += 1;
            if link.unacked.is_empty() {
                link.rto = RTO_BASE;
                link.last_tx = Instant::now();
            }
            link.unacked.push_back(Unacked {
                seq,
                packet: packet.clone(),
                attempts: 0,
            });
            seq
        };
        self.transmit(&mut st, to, seq, packet, 0);
    }

    /// Re-serves a logged packet during confined recovery. Travels as a
    /// control frame (no faults, no sequencing — the log already fixed
    /// the order) and is accounted only as `replayed_bytes`.
    pub fn send_replay(&self, to: WorkerId, packet: Packet) {
        self.stats.bump(|o| &o.replayed_bytes, packet.wire_bytes());
        self.raw_send(to, Frame::Control { packet });
    }

    /// Starts recording every remote send as `(destination, packet)`
    /// for the sender-side message log.
    pub fn start_capture(&self) {
        self.state.borrow_mut().capture = Some(Vec::new());
    }

    /// Stops capturing and returns the recorded sends (empty if capture
    /// was never started or was cleared by a reset).
    pub fn take_capture(&self) -> Vec<(WorkerId, Packet)> {
        self.state.borrow_mut().capture.take().unwrap_or_default()
    }

    /// Enables/disables replay mode: remote sends are discarded
    /// unaccounted, loopback still delivers (unaccounted).
    pub fn set_replay(&self, on: bool) {
        self.state.borrow_mut().suppress = on;
    }

    /// True while replay mode is on.
    pub fn replaying(&self) -> bool {
        self.state.borrow().suppress
    }

    /// Moves this endpoint to a new epoch: discards every queued frame,
    /// all link state (sequence numbers, unacked frames, holdbacks),
    /// any capture, and replay mode. Frames from earlier epochs that
    /// arrive later are dropped on receipt.
    pub fn reset(&self, epoch: u64) {
        let mut st = self.state.borrow_mut();
        while self.rx.try_recv().is_ok() {}
        st.epoch = epoch;
        for l in &mut st.out {
            l.next_seq = 0;
            l.unacked.clear();
            l.rto = RTO_BASE;
        }
        for l in &mut st.inn {
            l.expected = 0;
            l.ooo.clear();
        }
        st.ready.clear();
        st.delayed.clear();
        st.capture = None;
        st.suppress = false;
    }

    /// Broadcasts `packet` to every worker including self.
    pub fn broadcast(&self, packet: Packet) {
        for w in 0..self.txs.len() {
            self.send(WorkerId::from(w), packet.clone());
        }
    }

    /// Runs one round of protocol upkeep: ingests queued frames,
    /// releases fault-delayed frames whose holdback expired, and
    /// retransmits timed-out unacked frames. Workers call this while
    /// idle between commands so parked senders still answer their
    /// peers' missing-frame timeouts.
    pub fn service(&self) {
        let mut st = self.state.borrow_mut();
        self.pump(&mut st);
        self.maintenance(&mut st);
    }

    /// Blocking receive of the next in-order packet.
    pub fn recv(&self) -> Envelope {
        loop {
            {
                let mut st = self.state.borrow_mut();
                self.pump(&mut st);
                if let Some(e) = st.ready.pop_front() {
                    return e;
                }
                self.maintenance(&mut st);
            }
            match self.rx.recv_timeout(TICK) {
                Ok(env) => {
                    let mut st = self.state.borrow_mut();
                    self.handle_raw(&mut st, env);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    let mut st = self.state.borrow_mut();
                    if let Some(e) = st.ready.pop_front() {
                        return e;
                    }
                    panic!("fabric closed");
                }
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        let mut st = self.state.borrow_mut();
        self.pump(&mut st);
        st.ready.pop_front()
    }

    /// Receive with a timeout; `None` if no in-order packet became
    /// deliverable before it expired. Runs protocol maintenance on
    /// every internal tick, so retransmissions keep flowing while the
    /// caller waits.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut st = self.state.borrow_mut();
                self.pump(&mut st);
                if let Some(e) = st.ready.pop_front() {
                    return Some(e);
                }
                self.maintenance(&mut st);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match self.rx.recv_timeout(TICK.min(deadline - now)) {
                Ok(env) => {
                    let mut st = self.state.borrow_mut();
                    self.handle_raw(&mut st, env);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    let mut st = self.state.borrow_mut();
                    if let Some(e) = st.ready.pop_front() {
                        return Some(e);
                    }
                    panic!("fabric closed");
                }
            }
        }
    }

    /// The shared traffic counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Discards every undelivered packet queued at this endpoint —
    /// in-order-ready, raw-queued, and out-of-order held — and returns
    /// how many were dropped. Logical traffic counters are untouched
    /// (they were recorded at send time).
    pub fn drain(&self) -> usize {
        let mut st = self.state.borrow_mut();
        self.pump(&mut st);
        let mut n = st.ready.len();
        st.ready.clear();
        for l in &mut st.inn {
            n += l.ooo.len();
            l.ooo.clear();
        }
        n
    }

    fn raw_send(&self, to: WorkerId, frame: Frame) {
        // A dead destination (worker being respawned) is not an error:
        // its state is being restored from a checkpoint anyway.
        let _ = self.txs[to.index()].send(RawEnvelope {
            from: self.me,
            frame,
        });
    }

    /// One physical transmission attempt of a data frame, exposed to
    /// the fault plan. `attempt` > 0 means an RTO retransmission.
    fn transmit(&self, st: &mut EpState, to: WorkerId, seq: u64, packet: Packet, attempt: u32) {
        let bytes = packet.wire_bytes();
        if attempt > 0 {
            self.stats.bump(|o| &o.retransmitted_bytes, bytes);
        }
        let decision = match &st.faults {
            Some(plan) => plan.decision(self.me.index(), to.index(), seq, attempt),
            None => LinkFault::Deliver,
        };
        let frame = Frame::Data {
            epoch: st.epoch,
            seq,
            packet,
        };
        match decision {
            LinkFault::Deliver => self.raw_send(to, frame),
            LinkFault::Drop => {
                self.stats.bump(|o| &o.dropped_frames, 1);
            }
            LinkFault::Duplicate => {
                self.stats.bump(|o| &o.retransmitted_bytes, bytes);
                self.raw_send(to, frame.clone());
                self.raw_send(to, frame);
            }
            LinkFault::Delay => {
                self.stats.bump(|o| &o.delayed_frames, 1);
                let millis = st.faults.as_ref().map_or(2, |p| p.delay_millis());
                st.delayed.push(Delayed {
                    due: Instant::now() + Duration::from_millis(millis),
                    to,
                    frame,
                });
            }
        }
    }

    /// Ingests everything currently queued on the raw channel.
    fn pump(&self, st: &mut EpState) {
        while let Ok(env) = self.rx.try_recv() {
            self.handle_raw(st, env);
        }
    }

    fn handle_raw(&self, st: &mut EpState, env: RawEnvelope) {
        match env.frame {
            Frame::Control { packet } => st.ready.push_back(Envelope {
                from: env.from,
                packet,
            }),
            Frame::Data { epoch, seq, packet } => {
                if epoch != st.epoch {
                    // Stale frame from before a recovery reset. No ack:
                    // its sender has reset too and forgotten it.
                    return;
                }
                let from = env.from;
                let link = &mut st.inn[from.index()];
                if seq < link.expected {
                    self.stats.bump(|o| &o.duplicate_drops, 1);
                } else if seq == link.expected {
                    link.expected += 1;
                    st.ready.push_back(Envelope { from, packet });
                    // Release any consecutive held-back frames.
                    let link = &mut st.inn[from.index()];
                    while let Some(p) = link.ooo.remove(&link.expected) {
                        link.expected += 1;
                        st.ready.push_back(Envelope { from, packet: p });
                    }
                } else if link.ooo.insert(seq, packet).is_some() {
                    // The held-back slot already had this frame: a dup
                    // of an out-of-order arrival. (Re-inserting the same
                    // packet is harmless — frames are immutable.)
                    self.stats.bump(|o| &o.duplicate_drops, 1);
                }
                let cum = st.inn[from.index()].expected;
                self.stats.bump(|o| &o.acks_sent, 1);
                self.raw_send(
                    from,
                    Frame::Ack {
                        epoch: st.epoch,
                        cum,
                    },
                );
            }
            Frame::Ack { epoch, cum } => {
                if epoch != st.epoch {
                    return;
                }
                let link = &mut st.out[env.from.index()];
                let mut progressed = false;
                while link.unacked.front().is_some_and(|u| u.seq < cum) {
                    link.unacked.pop_front();
                    progressed = true;
                }
                if progressed {
                    link.rto = RTO_BASE;
                    link.last_tx = Instant::now();
                }
            }
        }
    }

    /// Releases due fault-delayed frames and retransmits the oldest
    /// unacked frame of every link whose RTO expired.
    fn maintenance(&self, st: &mut EpState) {
        let now = Instant::now();
        let mut i = 0;
        while i < st.delayed.len() {
            if st.delayed[i].due <= now {
                let d = st.delayed.swap_remove(i);
                self.raw_send(d.to, d.frame);
            } else {
                i += 1;
            }
        }
        let mut retx: Vec<(WorkerId, u64, Packet, u32)> = Vec::new();
        for (w, link) in st.out.iter_mut().enumerate() {
            if let Some(front) = link.unacked.front_mut() {
                if now.duration_since(link.last_tx) >= link.rto {
                    front.attempts += 1;
                    retx.push((
                        WorkerId::from(w),
                        front.seq,
                        front.packet.clone(),
                        front.attempts,
                    ));
                    link.rto = (link.rto * 2).min(RTO_MAX);
                    link.last_tx = now;
                }
            }
        }
        for (to, seq, packet, attempts) in retx {
            self.transmit(st, to, seq, packet, attempts);
        }
    }
}

/// Master-side injector of out-of-band control packets.
///
/// The master is not a worker and owns no [`Endpoint`], but the rollback
/// protocol needs it to interrupt workers that are blocked in `recv()`
/// waiting for a dead peer. A `ControlPlane` holds a sender to every
/// worker inbox; its packets are stamped with the destination's own id
/// (no worker impersonation) and are **not** recorded in [`NetStats`] —
/// they model the master's command channel, which the paper's cost model
/// never charges to the data network.
#[derive(Clone)]
pub struct ControlPlane {
    txs: Vec<Sender<RawEnvelope>>,
}

impl ControlPlane {
    /// Sends `packet` to `to`'s inbox. A dead (dropped) endpoint is
    /// ignored: the failed worker it belonged to is being respawned and
    /// will be restored from a checkpoint anyway.
    pub fn send(&self, to: WorkerId, packet: Packet) {
        let _ = self.txs[to.index()].send(RawEnvelope {
            from: to,
            frame: Frame::Control { packet },
        });
    }

    /// Sends `packet` to every worker's inbox.
    pub fn broadcast(&self, packet: Packet) {
        for w in 0..self.txs.len() {
            self.send(WorkerId::from(w), packet.clone());
        }
    }
}

/// Builder for the channel mesh.
pub struct Fabric;

impl Fabric {
    /// Creates a fully-connected mesh of `n` endpoints sharing one
    /// [`NetStats`].
    pub fn mesh(n: usize) -> (Vec<Endpoint>, Arc<NetStats>) {
        let (eps, stats, _) = Fabric::mesh_with_control(n);
        (eps, stats)
    }

    /// Like [`Fabric::mesh`], but also returns the master's
    /// [`ControlPlane`] for out-of-band aborts.
    pub fn mesh_with_control(n: usize) -> (Vec<Endpoint>, Arc<NetStats>, ControlPlane) {
        assert!(n >= 1, "mesh needs at least one worker");
        let stats = Arc::new(NetStats::new(n));
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| Endpoint {
                me: WorkerId::from(i),
                txs: txs.clone(),
                rx,
                stats: Arc::clone(&stats),
                state: RefCell::new(EpState {
                    epoch: 0,
                    out: (0..n).map(|_| SendLink::new()).collect(),
                    inn: (0..n)
                        .map(|_| RecvLink {
                            expected: 0,
                            ooo: BTreeMap::new(),
                        })
                        .collect(),
                    ready: VecDeque::new(),
                    delayed: Vec::new(),
                    faults: None,
                    capture: None,
                    suppress: false,
                }),
            })
            .collect();
        (endpoints, stats, ControlPlane { txs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BatchKind, WireStats};
    use hybridgraph_graph::BlockId;

    fn msg_packet(payload_len: usize, raw: u64, saved: u64) -> Packet {
        Packet::Messages {
            kind: BatchKind::Plain,
            payload: vec![0u8; payload_len].into(),
            stats: WireStats {
                raw_messages: raw,
                wire_values: raw - saved,
                wire_bytes: payload_len as u64,
                saved_messages: saved,
            },
            for_block: None,
        }
    }

    #[test]
    fn send_and_receive() {
        let (eps, _) = Fabric::mesh(2);
        eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(5) });
        let env = eps[1].recv();
        assert_eq!(env.from, WorkerId(0));
        assert!(matches!(env.packet, Packet::PullRequest { block } if block == BlockId(5)));
    }

    #[test]
    fn loopback_counts_separately() {
        let (eps, stats) = Fabric::mesh(2);
        eps[0].send(WorkerId(0), msg_packet(92, 10, 0));
        eps[0].send(WorkerId(1), msg_packet(92, 10, 2));
        let s = stats.snapshot();
        assert_eq!(s.local_bytes[0], 100);
        assert_eq!(s.out_bytes[0], 100);
        assert_eq!(s.in_bytes[1], 100);
        assert_eq!(s.in_bytes[0], 0);
        assert_eq!(s.raw_msgs_out[0], 20);
        assert_eq!(s.saved_msgs_out[0], 2);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let (eps, stats) = Fabric::mesh(3);
        eps[1].broadcast(Packet::DoneSending);
        for ep in &eps {
            let env = ep.recv();
            assert_eq!(env.from, WorkerId(1));
            assert!(matches!(env.packet, Packet::DoneSending));
        }
        let s = stats.snapshot();
        assert_eq!(s.packets_out[1], 3);
        // 2 remote sends x 8 header bytes
        assert_eq!(s.out_bytes[1], 16);
        assert_eq!(s.local_bytes[1], 8);
    }

    #[test]
    fn request_counter() {
        let (eps, stats) = Fabric::mesh(2);
        for _ in 0..3 {
            eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(0) });
        }
        assert_eq!(stats.snapshot().total_requests(), 3);
        assert_eq!(stats.snapshot().requests_out[0], 3);
    }

    #[test]
    fn try_recv_and_timeout() {
        let (eps, _) = Fabric::mesh(2);
        assert!(eps[1].try_recv().is_none());
        assert!(eps[1].recv_timeout(Duration::from_millis(5)).is_none());
        eps[0].send(WorkerId(1), Packet::DoneSending);
        assert!(eps[1].try_recv().is_some());
    }

    #[test]
    fn snapshot_delta() {
        let (eps, stats) = Fabric::mesh(2);
        eps[0].send(WorkerId(1), msg_packet(10, 1, 0));
        let a = stats.snapshot();
        eps[0].send(WorkerId(1), msg_packet(20, 2, 1));
        let d = stats.snapshot().delta(&a);
        assert_eq!(d.out_bytes[0], 28);
        assert_eq!(d.raw_msgs_out[0], 2);
        assert_eq!(d.saved_msgs_out[0], 1);
    }

    #[test]
    fn fifo_per_pair() {
        let (eps, _) = Fabric::mesh(2);
        for i in 0..10u32 {
            eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(i) });
        }
        for i in 0..10u32 {
            match eps[1].recv().packet {
                Packet::PullRequest { block } => assert_eq!(block, BlockId(i)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn threaded_exchange() {
        let (mut eps, stats) = Fabric::mesh(4);
        let mut handles = Vec::new();
        for ep in eps.drain(..) {
            handles.push(std::thread::spawn(move || {
                // Everyone sends one message to everyone else, then
                // receives n-1 messages.
                for w in 0..ep.num_workers() {
                    if w != ep.id().index() {
                        ep.send(WorkerId::from(w), msg_packet(4, 1, 0));
                    }
                }
                for _ in 0..ep.num_workers() - 1 {
                    ep.recv();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = stats.snapshot();
        assert_eq!(s.total_remote_bytes(), 12 * (8 + 4));
        assert_eq!(s.total_raw_messages(), 12);
    }

    /// A 100%-drop-first-attempt plan: every packet still arrives, in
    /// order, because the ARQ layer retransmits it — and the logical
    /// byte counts are identical to a lossless run.
    #[test]
    fn retransmission_survives_heavy_drops() {
        let (eps, stats) = Fabric::mesh(2);
        let plan = Arc::new(NetFaultPlan::new(5).with_drops(1000, 3));
        for ep in &eps {
            ep.install_faults(Arc::clone(&plan));
        }
        let n = 20u32;
        for i in 0..n {
            eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(i) });
        }
        // Retransmission is driven by the *sender's* maintenance: tick
        // both sides, as each worker thread does while waiting.
        let mut got = 0u32;
        while got < n {
            eps[0].service();
            if let Some(env) = eps[1].recv_timeout(Duration::from_millis(5)) {
                match env.packet {
                    Packet::PullRequest { block } => assert_eq!(block, BlockId(got)),
                    other => panic!("unexpected {other:?}"),
                }
                got += 1;
            }
        }
        let s = stats.snapshot();
        // Logical accounting: exactly n packets, once each.
        assert_eq!(s.packets_out[0], u64::from(n));
        assert_eq!(s.out_bytes[0], u64::from(n) * 8);
        // The wire saw drops and paid retransmissions — overhead only.
        assert!(s.overhead.dropped_frames >= u64::from(n));
        assert!(s.overhead.retransmitted_bytes > 0);
        assert!(plan.drops_fired() >= u64::from(n));
    }

    /// Duplicated and delayed frames are deduped and reordered back
    /// into sequence by the receiver.
    #[test]
    fn duplicates_and_delays_are_masked() {
        let (eps, stats) = Fabric::mesh(2);
        let plan = Arc::new(
            NetFaultPlan::new(77)
                .with_duplicates(400)
                .with_delays(300, 1),
        );
        for ep in &eps {
            ep.install_faults(Arc::clone(&plan));
        }
        let n = 60u32;
        for i in 0..n {
            eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(i) });
        }
        let mut got = 0u32;
        while got < n {
            eps[0].service(); // releases the sender-held delayed frames
            if let Some(env) = eps[1].recv_timeout(Duration::from_millis(5)) {
                match env.packet {
                    Packet::PullRequest { block } => assert_eq!(block, BlockId(got)),
                    other => panic!("unexpected {other:?}"),
                }
                got += 1;
            }
        }
        let s = stats.snapshot();
        assert_eq!(s.packets_out[0], u64::from(n));
        assert!(s.overhead.duplicate_drops > 0, "duplicates must be dropped");
        assert!(s.overhead.delayed_frames > 0, "some frames must be delayed");
        assert!(plan.duplicates_fired() > 0 && plan.delays_fired() > 0);
    }

    /// Frames from an older epoch are discarded after a reset, and the
    /// sequence space restarts cleanly.
    #[test]
    fn reset_drops_stale_epoch_traffic() {
        let (eps, _) = Fabric::mesh(2);
        eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(9) });
        // Receiver resets before looking: the queued epoch-0 frame dies.
        eps[1].reset(1);
        assert!(eps[1].try_recv().is_none());
        // Sender resets too; new-epoch traffic flows normally.
        eps[0].reset(1);
        eps[0].send(WorkerId(1), Packet::DoneSending);
        let env = eps[1].recv();
        assert!(matches!(env.packet, Packet::DoneSending));
    }

    /// Replay mode: remote sends vanish unaccounted, loopback still
    /// works, and `send_replay` is visible only as `replayed_bytes`.
    #[test]
    fn replay_mode_accounting() {
        let (eps, stats) = Fabric::mesh(2);
        let before = stats.snapshot();
        eps[0].set_replay(true);
        eps[0].send(WorkerId(1), msg_packet(50, 5, 0)); // suppressed
        eps[0].send(WorkerId(0), Packet::DoneSending); // loopback delivers
        assert!(matches!(eps[0].recv().packet, Packet::DoneSending));
        eps[0].set_replay(false);
        eps[1].send_replay(WorkerId(0), msg_packet(30, 3, 0));
        assert!(matches!(eps[0].recv().packet, Packet::Messages { .. }));
        let d = stats.snapshot().delta(&before);
        assert_eq!(d.total_remote_bytes(), 0);
        assert_eq!(d.local_bytes[0], 0);
        assert_eq!(d.overhead.replayed_bytes, 8 + 30);
        assert!(eps[1].try_recv().is_none(), "suppressed send must vanish");
    }

    /// `recv_timeout` expires on a quiet inbox close to the requested
    /// deadline, and the wait does not disturb any counter.
    #[test]
    fn recv_timeout_expiry_is_clean() {
        let (eps, stats) = Fabric::mesh(2);
        let before = stats.snapshot();
        let t0 = Instant::now();
        assert!(eps[1].recv_timeout(Duration::from_millis(30)).is_none());
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(30), "returned early");
        assert!(waited < Duration::from_secs(2), "overslept");
        assert_eq!(stats.snapshot(), before, "an idle wait must not count");
        // A packet queued before the call returns immediately.
        eps[0].send(WorkerId(1), Packet::DoneSending);
        assert!(eps[1].recv_timeout(Duration::from_secs(5)).is_some());
    }

    /// `drain` discards exactly the undelivered packets — ready,
    /// raw-queued, and out-of-order-held — while the logical send-side
    /// counters stay untouched (they were recorded at send time).
    #[test]
    fn drain_counts_and_counter_consistency() {
        let (eps, stats) = Fabric::mesh(2);
        for i in 0..4u32 {
            eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(i) });
        }
        eps[1].recv(); // deliver one, leave three queued
        let before = stats.snapshot();
        assert_eq!(eps[1].drain(), 3);
        assert_eq!(eps[1].drain(), 0, "drain must be idempotent");
        assert!(eps[1].try_recv().is_none());
        let after = stats.snapshot();
        assert_eq!(after.out_bytes, before.out_bytes);
        assert_eq!(after.in_bytes, before.in_bytes);
        assert_eq!(after.packets_out, before.packets_out);
        // The fabric remains usable after a drain.
        eps[0].send(WorkerId(1), Packet::DoneSending);
        assert!(matches!(eps[1].recv().packet, Packet::DoneSending));
    }

    /// `drain` also sweeps frames parked in the out-of-order holdback.
    #[test]
    fn drain_sweeps_held_out_of_order_frames() {
        let (eps, _) = Fabric::mesh(2);
        // Drop the first attempt of everything: with no sender service,
        // every frame is stuck... except that drops happen at send time,
        // so instead use a delay-all plan and drain before release.
        let plan = Arc::new(NetFaultPlan::new(123).with_drops(500, 1));
        eps[0].install_faults(Arc::clone(&plan));
        for i in 0..12u32 {
            eps[0].send(WorkerId(1), Packet::PullRequest { block: BlockId(i) });
        }
        // With ~half the frames dropped on first attempt, the receiver
        // holds the survivors that arrived past the first gap.
        let delivered_then_drained = {
            let mut got = 0;
            while eps[1].try_recv().is_some() {
                got += 1;
            }
            got + eps[1].drain()
        };
        // Drained + delivered can't exceed what was actually sent.
        assert!(delivered_then_drained <= 12);
        assert!(plan.drops_fired() > 0);
        // After a matching reset on both sides the link works again.
        eps[0].reset(1);
        eps[1].reset(1);
        eps[0].send(WorkerId(1), Packet::DoneSending);
        let mut env = None;
        for _ in 0..400 {
            eps[0].service();
            if let Some(e) = eps[1].recv_timeout(Duration::from_millis(5)) {
                env = Some(e);
                break;
            }
        }
        assert!(matches!(env.unwrap().packet, Packet::DoneSending));
    }

    /// `delta` round-trip: `earlier + (later - earlier) == later`,
    /// including the overhead scalars, and a self-delta is zero.
    #[test]
    fn snapshot_delta_round_trip() {
        let (eps, stats) = Fabric::mesh(2);
        let plan = Arc::new(NetFaultPlan::new(21).with_duplicates(1000));
        eps[0].install_faults(plan);
        eps[0].send(WorkerId(1), msg_packet(16, 2, 0));
        let a = stats.snapshot();
        eps[0].send(WorkerId(1), msg_packet(24, 3, 1));
        eps[1].service();
        let b = stats.snapshot();
        let d = b.delta(&a);
        // Reconstruct `b` from `a + d`, field by field.
        fn add(x: &[u64], y: &[u64]) -> Vec<u64> {
            x.iter().zip(y).map(|(p, q)| p + q).collect()
        }
        let rebuilt = NetSnapshot {
            out_bytes: add(&a.out_bytes, &d.out_bytes),
            in_bytes: add(&a.in_bytes, &d.in_bytes),
            local_bytes: add(&a.local_bytes, &d.local_bytes),
            raw_msgs_out: add(&a.raw_msgs_out, &d.raw_msgs_out),
            wire_values_out: add(&a.wire_values_out, &d.wire_values_out),
            saved_msgs_out: add(&a.saved_msgs_out, &d.saved_msgs_out),
            requests_out: add(&a.requests_out, &d.requests_out),
            packets_out: add(&a.packets_out, &d.packets_out),
            overhead: NetOverhead {
                retransmitted_bytes: a.overhead.retransmitted_bytes
                    + d.overhead.retransmitted_bytes,
                duplicate_drops: a.overhead.duplicate_drops + d.overhead.duplicate_drops,
                dropped_frames: a.overhead.dropped_frames + d.overhead.dropped_frames,
                delayed_frames: a.overhead.delayed_frames + d.overhead.delayed_frames,
                acks_sent: a.overhead.acks_sent + d.overhead.acks_sent,
                replayed_bytes: a.overhead.replayed_bytes + d.overhead.replayed_bytes,
            },
        };
        assert_eq!(rebuilt, b);
        let zero = b.delta(&b);
        assert_eq!(zero.total_remote_bytes(), 0);
        assert_eq!(zero.overhead, NetOverhead::default());
        // Every duplicate was deduped, never delivered twice.
        assert!(b.overhead.duplicate_drops > 0);
    }

    /// Capture records remote sends (destination and packet) without
    /// disturbing delivery or accounting.
    #[test]
    fn capture_records_remote_sends() {
        let (eps, stats) = Fabric::mesh(3);
        eps[0].start_capture();
        eps[0].send(WorkerId(1), msg_packet(10, 1, 0));
        eps[0].send(WorkerId(0), Packet::DoneSending); // loopback: not captured
        eps[0].send(WorkerId(2), Packet::SuperstepDone);
        let cap = eps[0].take_capture();
        assert_eq!(cap.len(), 2);
        assert_eq!(cap[0].0, WorkerId(1));
        assert_eq!(cap[1].0, WorkerId(2));
        assert!(eps[1].recv_timeout(Duration::from_millis(200)).is_some());
        assert!(eps[2].recv_timeout(Duration::from_millis(200)).is_some());
        assert_eq!(stats.snapshot().packets_out[0], 3);
        // A second take without a start is empty.
        assert!(eps[0].take_capture().is_empty());
    }
}
