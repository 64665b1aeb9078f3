//! Deterministic fault injection for the simulated BSP cluster.
//!
//! A [`FaultPlan`] is a list of *kill orders*: worker `w` dies at
//! superstep `k` while in a given [`FaultPhase`]. The runner's worker
//! threads consult the plan at fixed, deterministic hook points (before
//! loading, before a superstep's compute, and at the barrier after the
//! superstep's exchange has quiesced), so the same plan against the same
//! job always fails at the same instruction — which is what makes the
//! recovery tests able to demand *bit-identical* post-recovery values.
//!
//! Each fault fires **once** ([`AtomicBool`] swap): after the master
//! respawns the killed worker and rolls the cluster back, the re-executed
//! superstep passes the same hook again and must not re-trigger.
//!
//! Plans are either explicit ([`FaultPlan::kill`]) or generated from a
//! seed ([`FaultPlan::random`]) via the workspace's [`SplitMix64`] stream,
//! so a seed fully determines the failure schedule.

use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_net::NetFaultPlan;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Where in a worker's lifecycle a fault strikes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultPhase {
    /// While building the on-disk stores (superstep 0).
    Load,
    /// At the start of a superstep's compute, before any message is sent.
    Compute,
    /// At the superstep barrier: compute and exchange finished, report
    /// not yet delivered to the master.
    Barrier,
}

impl FaultPhase {
    /// All phases, in lifecycle order.
    pub const ALL: [FaultPhase; 3] = [FaultPhase::Load, FaultPhase::Compute, FaultPhase::Barrier];
}

/// Where the *master* (the `run_job` control loop itself) is killed by a
/// chaos plan. Unlike worker kills — which the master observes and
/// recovers from in-process — a master kill halts the whole job with
/// [`JobError::Halted`](crate::runner::JobError); recovery happens
/// out-of-process via `GraphService::restore`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MasterKillPoint {
    /// After the workers have loaded their stores, before the first
    /// superstep (nothing durable yet — restart re-runs from scratch).
    Load,
    /// At superstep `k`'s barrier, after worker checkpoints are written
    /// but *before* the master snapshot commits to the service log (the
    /// log still points at the previous barrier).
    MidBarrier(u64),
    /// Right after superstep `k`'s snapshot committed, before the next
    /// scheduler grant is consumed (the log points at `k`).
    BetweenGrants(u64),
}

/// One kill order.
#[derive(Debug)]
struct Fault {
    worker: usize,
    superstep: u64,
    phase: FaultPhase,
    fired: AtomicBool,
}

/// One master kill order.
#[derive(Debug)]
struct MasterKill {
    point: MasterKillPoint,
    fired: AtomicBool,
}

/// A deterministic schedule of worker kills.
///
/// Shared (behind an `Arc` in
/// [`JobConfig::fault_plan`](crate::config::JobConfig)) between the
/// master and every worker thread; the fire-once bookkeeping is the only
/// mutable state.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    master_kills: Vec<MasterKill>,
    net: Option<Arc<NetFaultPlan>>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a kill order: `worker` dies at `superstep` in `phase`.
    /// [`FaultPhase::Load`] faults conventionally use superstep 0.
    pub fn kill(mut self, worker: usize, superstep: u64, phase: FaultPhase) -> Self {
        self.faults.push(Fault {
            worker,
            superstep,
            phase,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// A seeded random plan of `count` **distinct** kill orders over
    /// `workers` workers and supersteps `1..=max_superstep`. The same
    /// seed always yields the same schedule ([`SplitMix64`] is the only
    /// entropy source). Duplicate `(worker, superstep, phase)` draws are
    /// rejected and regenerated, so `len() == count` holds and a
    /// duplicated triple can never silently halve the schedule (a
    /// duplicate's second copy could fire during the re-execution after
    /// recovery, producing a seed-dependent *extra* failure).
    pub fn random(seed: u64, workers: usize, max_superstep: u64, count: usize) -> Self {
        assert!(workers > 0 && max_superstep > 0);
        let capacity = workers as u64 * (1 + 2 * max_superstep);
        assert!(
            count as u64 <= capacity,
            "cannot draw {count} distinct faults from a space of {capacity}"
        );
        let mut r = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        let mut seen = std::collections::HashSet::new();
        while plan.faults.len() < count {
            let worker = r.below_u32(workers as u32) as usize;
            let phase = match r.below_u32(3) {
                0 => FaultPhase::Load,
                1 => FaultPhase::Compute,
                _ => FaultPhase::Barrier,
            };
            let superstep = match phase {
                FaultPhase::Load => 0,
                _ => 1 + r.below_u64(max_superstep),
            };
            if seen.insert((worker, superstep, phase)) {
                plan = plan.kill(worker, superstep, phase);
            }
        }
        plan
    }

    /// Adds a master kill order: the control loop halts with
    /// `JobError::Halted` when it reaches `point`. Fires once, like
    /// worker kills — the restored run passes the same hook untriggered
    /// **when the same plan `Arc` is re-attached** (the service's
    /// `resume_job` contract).
    pub fn master_kill(mut self, point: MasterKillPoint) -> Self {
        self.master_kills.push(MasterKill {
            point,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// A seeded random master-kill schedule of `count` distinct points
    /// over supersteps `1..=max_superstep` plus the load hook. Same-seed
    /// plans are identical, like [`FaultPlan::random`].
    pub fn random_master_kills(seed: u64, max_superstep: u64, count: usize) -> Self {
        assert!(max_superstep > 0);
        let capacity = 1 + 2 * max_superstep;
        assert!(
            count as u64 <= capacity,
            "cannot draw {count} distinct master kills from a space of {capacity}"
        );
        let mut r = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        let mut seen = std::collections::HashSet::new();
        while plan.master_kills.len() < count {
            let point = match r.below_u32(3) {
                0 => MasterKillPoint::Load,
                1 => MasterKillPoint::MidBarrier(1 + r.below_u64(max_superstep)),
                _ => MasterKillPoint::BetweenGrants(1 + r.below_u64(max_superstep)),
            };
            if seen.insert(point) {
                plan = plan.master_kill(point);
            }
        }
        plan
    }

    /// True if the master must halt at `point` now (fire-once).
    pub fn master_kill_at(&self, point: MasterKillPoint) -> bool {
        self.master_kills.iter().any(|k| {
            k.point == point
                && k.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
        })
    }

    /// The master-kill schedule, for determinism assertions in tests.
    pub fn master_kill_spec(&self) -> Vec<MasterKillPoint> {
        self.master_kills.iter().map(|k| k.point).collect()
    }

    /// Attaches a seeded network-fault schedule (drops, duplicates,
    /// delays on the simulated wire) to this plan. The runner installs
    /// it on every fabric endpoint.
    pub fn with_net(mut self, net: Arc<NetFaultPlan>) -> Self {
        self.net = Some(net);
        self
    }

    /// The attached network-fault schedule, if any.
    pub fn net_plan(&self) -> Option<&Arc<NetFaultPlan>> {
        self.net.as_ref()
    }

    /// Number of kill orders in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The schedule as `(worker, superstep, phase)` triples, for
    /// determinism assertions in tests.
    pub fn spec(&self) -> Vec<(usize, u64, FaultPhase)> {
        self.faults
            .iter()
            .map(|f| (f.worker, f.superstep, f.phase))
            .collect()
    }

    /// True if `worker` must die now. Each matching fault fires at most
    /// once; re-execution of the same superstep after recovery passes.
    pub fn should_fail(&self, worker: usize, superstep: u64, phase: FaultPhase) -> bool {
        self.faults.iter().any(|f| {
            f.worker == worker
                && f.superstep == superstep
                && f.phase == phase
                && f.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
        })
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.fired.load(Ordering::Acquire))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_fires_once() {
        let p = FaultPlan::new().kill(2, 5, FaultPhase::Compute);
        assert!(!p.should_fail(1, 5, FaultPhase::Compute));
        assert!(!p.should_fail(2, 4, FaultPhase::Compute));
        assert!(!p.should_fail(2, 5, FaultPhase::Barrier));
        assert!(p.should_fail(2, 5, FaultPhase::Compute));
        // Re-execution after recovery does not re-trigger.
        assert!(!p.should_fail(2, 5, FaultPhase::Compute));
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn multiple_faults_fire_independently() {
        let p = FaultPlan::new()
            .kill(0, 2, FaultPhase::Barrier)
            .kill(1, 2, FaultPhase::Barrier);
        assert!(p.should_fail(0, 2, FaultPhase::Barrier));
        assert!(p.should_fail(1, 2, FaultPhase::Barrier));
        assert_eq!(p.fired(), 2);
    }

    #[test]
    fn random_plan_is_seed_deterministic() {
        let a = FaultPlan::random(0xFA11, 4, 20, 5);
        let b = FaultPlan::random(0xFA11, 4, 20, 5);
        assert_eq!(a.spec(), b.spec());
        assert_eq!(a.len(), 5);
        let c = FaultPlan::random(0xFA12, 4, 20, 5);
        assert_ne!(a.spec(), c.spec(), "different seed, different schedule");
        for (w, s, ph) in a.spec() {
            assert!(w < 4);
            match ph {
                FaultPhase::Load => assert_eq!(s, 0),
                _ => assert!((1..=20).contains(&s)),
            }
        }
    }

    #[test]
    fn random_plan_has_no_duplicate_triples() {
        // A small space forces collisions in the raw draw stream, so
        // this exercises the reject-and-regenerate path.
        for seed in 0..64u64 {
            let workers = 2;
            let max_ss = 3;
            let count = 8;
            let p = FaultPlan::random(seed, workers, max_ss, count);
            assert_eq!(p.len(), count, "seed {seed}: len must match count");
            let spec = p.spec();
            let distinct: std::collections::HashSet<_> = spec.iter().collect();
            assert_eq!(distinct.len(), spec.len(), "seed {seed}: duplicate triple");
        }
        // Regeneration keeps the schedule seed-stable.
        let a = FaultPlan::random(99, 2, 3, 8);
        let b = FaultPlan::random(99, 2, 3, 8);
        assert_eq!(a.spec(), b.spec());
        // Drawing the entire space is allowed and exact.
        let full = 2 * (1 + 2 * 3);
        let p = FaultPlan::random(7, 2, 3, full);
        assert_eq!(p.len(), full);
    }

    #[test]
    #[should_panic(expected = "distinct faults")]
    fn random_plan_rejects_oversized_count() {
        let _ = FaultPlan::random(1, 1, 1, 4);
    }

    #[test]
    fn net_plan_attachment() {
        use hybridgraph_net::NetFaultPlan;
        let p = FaultPlan::new().with_net(Arc::new(NetFaultPlan::new(3).with_drops(100, 2)));
        assert!(p.net_plan().is_some());
        assert!(FaultPlan::new().net_plan().is_none());
    }

    #[test]
    fn empty_plan_never_fails() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(!p.should_fail(0, 1, FaultPhase::Load));
        assert!(!p.master_kill_at(MasterKillPoint::Load));
    }

    #[test]
    fn master_kill_fires_once() {
        let p = FaultPlan::new()
            .master_kill(MasterKillPoint::MidBarrier(3))
            .master_kill(MasterKillPoint::BetweenGrants(5));
        assert!(!p.master_kill_at(MasterKillPoint::MidBarrier(2)));
        assert!(!p.master_kill_at(MasterKillPoint::BetweenGrants(3)));
        assert!(p.master_kill_at(MasterKillPoint::MidBarrier(3)));
        // The restored run passes the same hook untriggered.
        assert!(!p.master_kill_at(MasterKillPoint::MidBarrier(3)));
        assert!(p.master_kill_at(MasterKillPoint::BetweenGrants(5)));
        assert_eq!(p.master_kill_spec().len(), 2);
        // Master kills are orthogonal to worker kill orders.
        assert!(p.is_empty());
    }

    #[test]
    fn random_master_kills_are_seed_deterministic() {
        let a = FaultPlan::random_master_kills(0xC8A0, 10, 4);
        let b = FaultPlan::random_master_kills(0xC8A0, 10, 4);
        assert_eq!(a.master_kill_spec(), b.master_kill_spec());
        assert_eq!(a.master_kill_spec().len(), 4);
        let c = FaultPlan::random_master_kills(0xC8A1, 10, 4);
        assert_ne!(a.master_kill_spec(), c.master_kill_spec());
        let distinct: std::collections::HashSet<_> = a.master_kill_spec().into_iter().collect();
        assert_eq!(distinct.len(), 4, "points must be distinct");
        for p in a.master_kill_spec() {
            match p {
                MasterKillPoint::Load => {}
                MasterKillPoint::MidBarrier(s) | MasterKillPoint::BetweenGrants(s) => {
                    assert!((1..=10).contains(&s));
                }
            }
        }
    }
}
