//! Deterministic round-robin scheduling of concurrent jobs.
//!
//! The service runs each job's master on its own OS thread, but thread
//! interleavings must never leak into results: the shared gather cache is
//! mutated by whichever job's superstep runs, so the *order of supersteps
//! across jobs* decides every hit, miss and eviction. The scheduler makes
//! that order a pure function of the submitted jobs, their (deterministic)
//! modeled times, and a seed:
//!
//! * Each job occupies one **lane**. Its master calls
//!   [`StepPacer::acquire`] before every unit of work (the load phase, one
//!   superstep, the final collect) and [`StepPacer::release`] afterwards
//!   with the unit's modeled seconds.
//! * A grant is issued only at a **cohort barrier**: the engine is free
//!   *and every active lane is parked in `acquire`*. No lane can sneak an
//!   extra unit in while another is still deciding — wall-clock speed
//!   differences between threads change nothing.
//! * The grant goes to the active lane with the smallest **virtual time**
//!   (sum of released modeled seconds); ties break by a per-lane
//!   `splitmix64` value derived from the seed, then by lane index.
//!   Virtual-time round-robin keeps cheap jobs from starving behind
//!   expensive ones while staying replayable.
//!
//! Joining and leaving are atomic with respect to grants: a newly joined
//! lane is active-but-unparked, which *blocks* the barrier until its
//! thread reaches `acquire` — so admission never races a grant. The
//! schedule is therefore byte-identically replayable for **batch
//! submissions** (all jobs submitted before any completes, as the
//! service's admission queue arranges); jobs submitted from the outside
//! mid-run interleave at whatever barrier happens to be next.

use hybridgraph_core::StepPacer;
use hybridgraph_graph::rng::SplitMix64;
use std::sync::{Arc, Condvar, Mutex};

struct Lane {
    /// False once the lane's job finished (left lanes never block grants).
    active: bool,
    /// True while the lane's master is blocked in `acquire`.
    parked: bool,
    /// Sum of modeled seconds released so far (the round-robin key).
    vtime: f64,
    /// Seeded tiebreak for equal virtual times.
    tiebreak: u64,
}

struct State {
    lanes: Vec<Lane>,
    /// The lane currently holding the engine, if any.
    holder: Option<usize>,
    /// Units granted so far (observability).
    grants: u64,
    /// Outstanding freezes; no grant is issued while nonzero.
    frozen: usize,
}

impl State {
    /// The lane the next grant goes to — `None` unless the engine is free
    /// and *all* active lanes are parked (the cohort barrier).
    fn chosen(&self) -> Option<usize> {
        if self.holder.is_some() || self.frozen > 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if !l.active {
                continue;
            }
            if !l.parked {
                return None; // barrier: someone is still running
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let cur = &self.lanes[b];
                    if (l.vtime, l.tiebreak, i) < (cur.vtime, cur.tiebreak, b) {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }
}

/// The service-wide deterministic scheduler. One instance per
/// [`GraphService`](crate::GraphService).
pub struct RoundRobinScheduler {
    state: Mutex<State>,
    cv: Condvar,
    seed: u64,
}

impl RoundRobinScheduler {
    /// A scheduler whose tiebreaks derive from `seed`.
    pub fn new(seed: u64) -> Arc<RoundRobinScheduler> {
        Arc::new(RoundRobinScheduler {
            state: Mutex::new(State {
                lanes: Vec::new(),
                holder: None,
                grants: 0,
                frozen: 0,
            }),
            cv: Condvar::new(),
            seed,
        })
    }

    /// Registers a new lane and returns its index. The lane counts as
    /// active immediately, so grants stall until its thread parks —
    /// admission can never race a grant.
    pub fn join(&self) -> usize {
        let mut s = self.state.lock().unwrap();
        let lane = Self::join_locked(&mut s, self.seed);
        drop(s);
        self.cv.notify_all();
        lane
    }

    /// Registers a new lane starting at an explicit virtual time — a
    /// resumed job rejoining exactly where its previous incarnation's
    /// last durable barrier left it, so restarted runs see the same
    /// grant order as uninterrupted ones.
    pub fn join_at(&self, vtime: f64) -> usize {
        let mut s = self.state.lock().unwrap();
        let lane = s.lanes.len();
        s.lanes.push(Lane {
            active: true,
            parked: false,
            vtime: if vtime.is_finite() {
                vtime.max(0.0)
            } else {
                0.0
            },
            tiebreak: SplitMix64::new(self.seed ^ lane as u64).next_u64(),
        });
        drop(s);
        self.cv.notify_all();
        lane
    }

    /// The virtual time `lane` has accumulated so far. Recorded in every
    /// durable barrier record so [`join_at`](Self::join_at) can restore
    /// the lane's scheduling position after a restart.
    pub fn lane_vtime(&self, lane: usize) -> f64 {
        self.state.lock().unwrap().lanes[lane].vtime
    }

    fn join_locked(s: &mut State, seed: u64) -> usize {
        let lane = s.lanes.len();
        // Join at the floor of the active lanes' virtual times so a
        // newcomer neither starves nor monopolizes.
        let floor = s
            .lanes
            .iter()
            .filter(|l| l.active)
            .map(|l| l.vtime)
            .fold(f64::INFINITY, f64::min);
        s.lanes.push(Lane {
            active: true,
            parked: false,
            vtime: if floor.is_finite() { floor } else { 0.0 },
            tiebreak: SplitMix64::new(seed ^ lane as u64).next_u64(),
        });
        lane
    }

    /// Deactivates `lane`. If it still holds the engine (a job that
    /// errored out mid-unit), the engine is freed.
    pub fn leave(&self, lane: usize) {
        self.leave_joining(lane, 0);
    }

    /// Atomically deactivates `lane` and registers `joiners` new lanes —
    /// one critical section, so between a job's completion and the
    /// admission of its queued successors no grant can slip through.
    /// Returns the new lane indices.
    pub fn leave_joining(&self, lane: usize, joiners: usize) -> Vec<usize> {
        let mut s = self.state.lock().unwrap();
        s.lanes[lane].active = false;
        s.lanes[lane].parked = false;
        if s.holder == Some(lane) {
            s.holder = None;
        }
        let new: Vec<usize> = (0..joiners)
            .map(|_| Self::join_locked(&mut s, self.seed))
            .collect();
        drop(s);
        self.cv.notify_all();
        new
    }

    /// Suspends grants until the matching [`RoundRobinScheduler::thaw`].
    /// A submitter freezes around a *batch* of submissions so the very
    /// first grant is decided by the full cohort's `(vtime, tiebreak)`
    /// order, never by which thread happened to park first — without the
    /// freeze, an early lane could be granted its load unit before a
    /// later lane of the same batch has joined.
    pub fn freeze(&self) {
        self.state.lock().unwrap().frozen += 1;
    }

    /// Releases one [`RoundRobinScheduler::freeze`].
    pub fn thaw(&self) {
        let mut s = self.state.lock().unwrap();
        debug_assert!(s.frozen > 0, "thaw without freeze");
        s.frozen = s.frozen.saturating_sub(1);
        drop(s);
        self.cv.notify_all();
    }

    /// A [`StepPacer`] handle binding `lane` to this scheduler.
    pub fn handle(self: &Arc<Self>, lane: usize) -> Arc<LaneHandle> {
        Arc::new(LaneHandle {
            sched: Arc::clone(self),
            lane,
        })
    }

    /// Units granted so far.
    pub fn grants(&self) -> u64 {
        self.state.lock().unwrap().grants
    }

    fn acquire(&self, lane: usize) {
        let mut s = self.state.lock().unwrap();
        s.lanes[lane].parked = true;
        self.cv.notify_all();
        while s.chosen() != Some(lane) {
            s = self.cv.wait(s).unwrap();
        }
        s.lanes[lane].parked = false;
        s.holder = Some(lane);
        s.grants += 1;
    }

    fn release(&self, lane: usize, modeled_secs: f64) {
        let mut s = self.state.lock().unwrap();
        debug_assert_eq!(s.holder, Some(lane), "release without grant");
        s.holder = None;
        s.lanes[lane].vtime += modeled_secs.max(0.0);
        drop(s);
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for RoundRobinScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().unwrap();
        f.debug_struct("RoundRobinScheduler")
            .field("lanes", &s.lanes.len())
            .field("grants", &s.grants)
            .finish()
    }
}

/// One job's pacing handle: [`StepPacer`] calls forward to the scheduler
/// with the lane baked in.
pub struct LaneHandle {
    sched: Arc<RoundRobinScheduler>,
    lane: usize,
}

impl LaneHandle {
    /// The lane this handle paces.
    pub fn lane(&self) -> usize {
        self.lane
    }
}

impl StepPacer for LaneHandle {
    fn acquire(&self) {
        self.sched.acquire(self.lane);
    }

    fn release(&self, modeled_secs: f64) {
        self.sched.release(self.lane, modeled_secs);
    }
}

impl std::fmt::Debug for LaneHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneHandle")
            .field("lane", &self.lane)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Drives `n` threads through `units` acquire/release rounds each and
    /// returns the global grant order as lane indices.
    fn run_lanes(seed: u64, costs: Vec<Vec<f64>>) -> Vec<usize> {
        let sched = RoundRobinScheduler::new(seed);
        let order = Arc::new(Mutex::new(Vec::new()));
        let lanes: Vec<usize> = costs.iter().map(|_| sched.join()).collect();
        std::thread::scope(|scope| {
            for (lane, costs) in lanes.iter().zip(&costs) {
                let h = sched.handle(*lane);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    for c in costs {
                        h.acquire();
                        order.lock().unwrap().push(h.lane());
                        h.release(*c);
                    }
                    h.sched.leave(h.lane());
                });
            }
        });
        Arc::try_unwrap(order).unwrap().into_inner().unwrap()
    }

    #[test]
    fn grant_order_is_deterministic() {
        let costs = vec![vec![1.0, 1.0, 1.0], vec![0.5, 0.5, 0.5], vec![2.0, 2.0]];
        let a = run_lanes(7, costs.clone());
        let b = run_lanes(7, costs.clone());
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn cheap_lane_gets_more_turns() {
        // Lane 1's units are 4x cheaper: virtual-time round-robin should
        // interleave it ahead of lane 0 after the first exchange.
        let order = run_lanes(1, vec![vec![4.0, 4.0], vec![1.0, 1.0, 1.0, 1.0]]);
        let first_heavy = order.iter().position(|&l| l == 0).unwrap();
        let last_cheap = order.iter().rposition(|&l| l == 1).unwrap();
        assert!(order.len() == 6);
        // After the heavy lane's first unit, the cheap lane runs several
        // units before the heavy lane's vtime is caught up.
        assert!(first_heavy < last_cheap);
        let heavy_second = order.iter().skip(first_heavy + 1).position(|&l| l == 0);
        assert!(heavy_second.unwrap() >= 2, "order {order:?}");
    }

    #[test]
    fn leave_joining_is_atomic() {
        // A lane leaves while handing its slot to a joiner; the joiner
        // must be active (blocking grants) before any further grant.
        let sched = RoundRobinScheduler::new(3);
        let a = sched.join();
        let b = sched.join();
        let granted = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let ha = sched.handle(a);
            let hb = sched.handle(b);
            let g = Arc::clone(&granted);
            scope.spawn(move || {
                ha.acquire();
                ha.release(1.0);
                // Leave while registering one joiner atomically.
                let new = ha.sched.leave_joining(ha.lane(), 1);
                let hc = ha.sched.handle(new[0]);
                hc.acquire();
                g.fetch_add(1, Ordering::SeqCst);
                hc.release(1.0);
                hc.sched.leave(hc.lane());
            });
            let g = Arc::clone(&granted);
            scope.spawn(move || {
                for _ in 0..2 {
                    hb.acquire();
                    g.fetch_add(1, Ordering::SeqCst);
                    hb.release(10.0);
                }
                hb.sched.leave(hb.lane());
            });
        });
        assert_eq!(granted.load(Ordering::SeqCst), 3);
        assert_eq!(sched.grants(), 4);
    }
}
