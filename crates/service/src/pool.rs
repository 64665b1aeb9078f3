//! Multi-engine dispatch: N independent [`GraphService`] engines behind
//! deterministic hash-based graph placement.
//!
//! One `GraphService` is one *engine*: one virtual-time scheduler, one
//! shared edge cache, one admission queue, one (optional) write-ahead
//! log. The pool scales the service layer past a single engine the
//! cheapest way that preserves every determinism guarantee: engines
//! share *nothing*, and a graph's home engine is a pure function of its
//! name. Tenants on different graphs placed on different engines
//! genuinely overlap — each engine keeps its own cohort barrier — while
//! tenants on the same graph still interleave deterministically inside
//! their home engine exactly as before.
//!
//! Placement rule (documented contract, also in DESIGN.md):
//!
//! ```text
//! engine(name) = splitmix64(fnv1a64(name)) mod engines
//! ```
//!
//! Seeds derive per-engine so no two engines share tiebreak streams:
//! engine 0 inherits `ServiceConfig::seed` verbatim (a 1-engine pool is
//! byte-identical to a bare `GraphService` under the same config) and
//! engine `i > 0` gets `splitmix64(seed ^ i)`.
//!
//! Durability nests the same way: [`EnginePool::new_durable`] namespaces
//! engine `i` onto a [`PrefixVfs`] view `"e{i}_"` of one backing VFS, so
//! each engine keeps its private WAL and [`EnginePool::restore`] revives
//! all of them — plus their unfinished jobs — from a single disk.

use crate::catalog::{CatalogError, GraphSpec};
use crate::scheduler::splitmix64;
use crate::service::{
    AdmissionError, GraphService, JobRequest, JobTicket, RecoveredJob, SchedulingPause,
    ServiceConfig,
};
use hybridgraph_core::VertexProgram;
use hybridgraph_graph::Graph;
use hybridgraph_storage::{CodecChoice, PrefixVfs, Vfs};
use std::io;
use std::sync::Arc;

/// FNV-1a 64-bit over the graph name; finalized through splitmix64 so
/// short names still spread across engines.
fn place_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// An unfinished job surfaced by [`EnginePool::restore`], tagged with
/// the engine that owns it. Resume it via
/// [`EnginePool::resume_job`] (or directly on `pool.engine(engine)`).
#[derive(Debug)]
pub struct PoolRecoveredJob {
    /// Index of the engine the job belongs to.
    pub engine: usize,
    /// The engine-local recovered job.
    pub job: RecoveredJob,
}

/// N independent [`GraphService`] engines with deterministic hash-based
/// graph placement. See the module docs for the placement and seeding
/// rules.
pub struct EnginePool {
    engines: Vec<GraphService>,
}

impl EnginePool {
    /// Seed of engine `index` under pool seed `base`: engine 0 keeps
    /// `base` (a 1-engine pool matches a bare service), engine `i > 0`
    /// gets `splitmix64(base ^ i)`.
    fn engine_seed(base: u64, index: usize) -> u64 {
        if index == 0 {
            base
        } else {
            splitmix64(base ^ index as u64)
        }
    }

    /// The VFS namespace prefix engine `index` mounts under a durable
    /// pool's backing VFS.
    fn engine_prefix(index: usize) -> String {
        format!("e{index}_")
    }

    /// An in-memory pool of `engines` independent engines, each under
    /// `cfg` with its derived seed. Panics if `engines` is zero.
    pub fn new(cfg: ServiceConfig, engines: usize) -> EnginePool {
        assert!(engines > 0, "a pool needs at least one engine");
        EnginePool {
            engines: (0..engines)
                .map(|i| {
                    let mut c = cfg;
                    c.seed = Self::engine_seed(cfg.seed, i);
                    GraphService::new(c)
                })
                .collect(),
        }
    }

    /// A durable pool: engine `i` journals to its own WAL on the
    /// namespaced view `"e{i}_"` of `vfs` (see [`EnginePool::restore`]).
    pub fn new_durable(
        cfg: ServiceConfig,
        engines: usize,
        vfs: Arc<dyn Vfs>,
        codec: CodecChoice,
    ) -> io::Result<EnginePool> {
        assert!(engines > 0, "a pool needs at least one engine");
        let mut built = Vec::with_capacity(engines);
        for i in 0..engines {
            let mut c = cfg;
            c.seed = Self::engine_seed(cfg.seed, i);
            let view: Arc<dyn Vfs> =
                Arc::new(PrefixVfs::new(Arc::clone(&vfs), Self::engine_prefix(i)));
            built.push(GraphService::new_durable(c, view, codec)?);
        }
        Ok(EnginePool { engines: built })
    }

    /// Whether any engine of an `engines`-wide pool left a service log
    /// on `vfs`.
    pub fn log_exists(vfs: &Arc<dyn Vfs>, engines: usize) -> bool {
        (0..engines).any(|i| {
            let view = PrefixVfs::new(Arc::clone(vfs), Self::engine_prefix(i));
            GraphService::log_exists(&view)
        })
    }

    /// Revives a durable pool from the per-engine logs on `vfs`. Engines
    /// whose log is missing (e.g. the pool crashed before they journaled
    /// anything) come back empty but functional. Returns every
    /// unfinished job tagged with its engine, ordered by engine then
    /// admission order.
    pub fn restore(
        cfg: ServiceConfig,
        engines: usize,
        vfs: Arc<dyn Vfs>,
        codec: CodecChoice,
    ) -> io::Result<(EnginePool, Vec<PoolRecoveredJob>)> {
        assert!(engines > 0, "a pool needs at least one engine");
        let mut built = Vec::with_capacity(engines);
        let mut recovered = Vec::new();
        for i in 0..engines {
            let mut c = cfg;
            c.seed = Self::engine_seed(cfg.seed, i);
            let view: Arc<dyn Vfs> =
                Arc::new(PrefixVfs::new(Arc::clone(&vfs), Self::engine_prefix(i)));
            if GraphService::log_exists(view.as_ref()) {
                let (svc, jobs) = GraphService::restore(c, view)?;
                recovered.extend(
                    jobs.into_iter()
                        .map(|job| PoolRecoveredJob { engine: i, job }),
                );
                built.push(svc);
            } else {
                built.push(GraphService::new_durable(c, view, codec)?);
            }
        }
        Ok((EnginePool { engines: built }, recovered))
    }

    /// Number of engines.
    pub fn engines(&self) -> usize {
        self.engines.len()
    }

    /// The engine at `index`.
    pub fn engine(&self, index: usize) -> &GraphService {
        &self.engines[index]
    }

    /// Home engine index of `name` — the documented placement rule
    /// `splitmix64(fnv1a64(name)) mod engines`.
    pub fn placement(&self, name: &str) -> usize {
        (place_hash(name) % self.engines.len() as u64) as usize
    }

    /// The home engine of `name`.
    fn engine_of(&self, name: &str) -> &GraphService {
        &self.engines[self.placement(name)]
    }

    /// Registers `graph` on its home engine; returns `(engine index,
    /// graph id)`.
    pub fn register_graph(
        &self,
        name: &str,
        graph: Graph,
        spec: GraphSpec,
    ) -> Result<(usize, u32), CatalogError> {
        let e = self.placement(name);
        let id = self.engines[e].register_graph(name, graph, spec)?;
        Ok((e, id))
    }

    /// Evicts `name` from its home engine.
    pub fn evict(&self, name: &str) -> Result<(), CatalogError> {
        self.engine_of(name).evict(name)
    }

    /// The registered worker count of `name` on its home engine.
    pub fn workers_of(&self, name: &str) -> Option<usize> {
        self.engine_of(name).workers_of(name)
    }

    /// Submits a job to the graph's home engine.
    pub fn submit<P: VertexProgram>(
        &self,
        program: Arc<P>,
        req: JobRequest,
    ) -> Result<JobTicket<P>, AdmissionError> {
        self.engine_of(&req.graph).submit(program, req)
    }

    /// Re-attaches a job recovered by [`EnginePool::restore`] to its
    /// engine (see [`GraphService::resume_job`]).
    pub fn resume_job<P: VertexProgram>(
        &self,
        program: Arc<P>,
        cfg: hybridgraph_core::JobConfig,
        rec: &PoolRecoveredJob,
    ) -> Result<JobTicket<P>, AdmissionError> {
        self.engines[rec.engine].resume_job(program, cfg, &rec.job)
    }

    /// Suspends scheduler grants on *every* engine until the returned
    /// guards drop. Hold across a batch of [`EnginePool::submit`] calls
    /// to make the whole cross-engine schedule a pure function of the
    /// batch and the pool seed (the per-engine analogue of
    /// [`GraphService::pause_scheduling`]).
    pub fn pause_all(&self) -> Vec<SchedulingPause<'_>> {
        self.engines.iter().map(|e| e.pause_scheduling()).collect()
    }

    /// Per-engine `(resident, queued)` job counts, indexed by engine —
    /// the gateway's queue-depth gauges.
    pub fn queue_depths(&self) -> Vec<(usize, usize)> {
        self.engines
            .iter()
            .map(|e| (e.resident_jobs(), e.queued_jobs()))
            .collect()
    }

    /// Total registered graphs across engines.
    pub fn registered_graphs(&self) -> usize {
        self.engines.iter().map(|e| e.registered_graphs()).sum()
    }
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("engines", &self.engines.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Placement is a pure function of the name — independent of the
    /// pool instance — and spreads distinct names across engines.
    #[test]
    fn placement_is_stable_and_spreads() {
        let a = EnginePool::new(ServiceConfig::default(), 4);
        let b = EnginePool::new(ServiceConfig::default(), 4);
        let mut hit = [false; 4];
        for i in 0..64 {
            let name = format!("tenant-{i}");
            assert_eq!(a.placement(&name), b.placement(&name));
            hit[a.placement(&name)] = true;
        }
        assert!(hit.iter().all(|h| *h), "64 names must touch all 4 engines");
    }

    /// Engine 0 of any pool inherits the pool seed verbatim, so a
    /// 1-engine pool is the same object as a bare service.
    #[test]
    fn engine_zero_keeps_the_base_seed() {
        assert_eq!(EnginePool::engine_seed(42, 0), 42);
        assert_ne!(
            EnginePool::engine_seed(42, 1),
            EnginePool::engine_seed(42, 2)
        );
    }
}
