//! Durable `GraphService` end-to-end: master-failure recovery must be
//! byte-exact. A run killed at any seeded master kill point and revived
//! through `GraphService::restore` / `resume_job` must produce the same
//! vertex values, the same `Q_t` audit bytes, the same trace and the same
//! per-superstep residuals as the uninterrupted run — and survivors of a crashed tenant must not be
//! perturbed. Graceful degradation rides along: admission shedding under
//! recovery backlog and typed retry of transient log errors.

use hybridgraph::prelude::*;
use hybridgraph_core::encode_qt_audits;
use hybridgraph_obs::export_chrome_trace;
use std::sync::Arc;

fn graph_a() -> Graph {
    hybridgraph_graph::gen::rmat(256, 2048, hybridgraph_graph::gen::RmatParams::default(), 11)
}

fn graph_b() -> Graph {
    hybridgraph_graph::gen::uniform(200, 1600, 5)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn service_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        // The byte-identity matrix runs one job at a time: restart
        // replays the crashed tenant alone, so cross-tenant interleaving
        // stays out of the equality frame.
        max_resident_jobs: 1,
        max_queued_jobs: 4,
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        seed,
        max_job_logical_io: None,
        max_job_memory: None,
        recovery_shed_threshold: 8,
    }
}

/// Checkpoint every superstep so every kill point has a durable cut at
/// distance one; fault-aware spacing stays off inside the equality frame
/// (the killed run observes a failure, the baseline does not).
fn pagerank_cfg(workers: usize) -> JobConfig {
    let mut cfg = JobConfig::new(Mode::Hybrid, workers)
        .with_buffer(2048)
        .with_checkpoint(CheckpointPolicy::EveryK(1));
    cfg.initial_mode_override = Some(Mode::Push);
    cfg
}

/// PageRank with a tolerance it never reaches in 4 supersteps, so every
/// step records its residual (and a resumed job must restore them).
fn pagerank() -> Arc<PageRank> {
    Arc::new(PageRank::until(1e-12, 4))
}

struct RunBytes {
    values: Vec<u64>,
    audits: Vec<u8>,
    trace: String,
    /// Each superstep's max residual, as bits.
    residuals: Vec<u64>,
}

impl RunBytes {
    fn of(r: &JobResult<PageRank>, sink: &TraceSink) -> RunBytes {
        RunBytes {
            values: bits(&r.values),
            audits: encode_qt_audits(&r.metrics.qt_audit),
            trace: export_chrome_trace(sink),
            residuals: r
                .metrics
                .steps
                .iter()
                .map(|s| s.max_residual.to_bits())
                .collect(),
        }
    }
}

/// One uninterrupted durable run of PageRank over `graph_a`.
fn uninterrupted(seed: u64) -> RunBytes {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let svc =
        GraphService::new_durable(service_cfg(seed), Arc::clone(&vfs), CodecChoice::None).unwrap();
    svc.register_graph("a", graph_a(), GraphSpec::new(3).with_vblocks(2))
        .unwrap();
    let sink = Arc::new(TraceSink::new(3));
    let r = svc
        .submit(
            pagerank(),
            JobRequest::new("a", pagerank_cfg(3).with_trace(Arc::clone(&sink))),
        )
        .unwrap()
        .wait()
        .unwrap();
    RunBytes::of(&r, &sink)
}

/// The same run killed at `point`, then revived from the log on the same
/// VFS and resumed to completion.
fn killed_and_restored(seed: u64, point: MasterKillPoint) -> RunBytes {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let cfg = service_cfg(seed);
    let svc = GraphService::new_durable(cfg, Arc::clone(&vfs), CodecChoice::None).unwrap();
    svc.register_graph("a", graph_a(), GraphSpec::new(3).with_vblocks(2))
        .unwrap();
    let sink = Arc::new(TraceSink::new(3));
    let plan = FaultPlan::new().master_kill(point);
    let err = svc
        .submit(
            pagerank(),
            JobRequest::new(
                "a",
                pagerank_cfg(3)
                    .with_trace(Arc::clone(&sink))
                    .with_fault_plan(Arc::new(plan)),
            ),
        )
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(
        matches!(err, JobError::Halted { .. }),
        "expected a master halt at {point:?}, got {err}"
    );
    drop(svc);
    drop(sink); // died with the process; the resumed job gets a fresh one

    let (svc, recovered) = GraphService::restore(cfg, Arc::clone(&vfs)).unwrap();
    assert_eq!(recovered.len(), 1, "one unfinished job must come back");
    let rec = &recovered[0];
    assert_eq!(rec.graph, "a");
    assert!(!rec.queued, "the job held a lane when the master died");
    let sink = Arc::new(TraceSink::new(3));
    let r = svc
        .resume_job(
            pagerank(),
            pagerank_cfg(3).with_trace(Arc::clone(&sink)),
            rec,
        )
        .unwrap()
        .wait()
        .unwrap();
    RunBytes::of(&r, &sink)
}

/// The acceptance matrix: every kill point × every seed, killed-and-
/// restored must equal uninterrupted byte for byte — vertex values,
/// `Q_t` audit bytes, the full modeled-time trace and every superstep's
/// residual.
#[test]
fn kill_matrix_restarts_byte_identical() {
    let points = [
        MasterKillPoint::Load,
        MasterKillPoint::MidBarrier(2),
        MasterKillPoint::BetweenGrants(2),
    ];
    for seed in [1u64, 7, 42, 1337] {
        let base = uninterrupted(seed);
        for point in points {
            let restarted = killed_and_restored(seed, point);
            assert_eq!(
                base.values, restarted.values,
                "seed {seed} {point:?}: values diverged after restart"
            );
            assert_eq!(
                base.audits, restarted.audits,
                "seed {seed} {point:?}: Q_t audit bytes diverged after restart"
            );
            assert_eq!(
                base.trace, restarted.trace,
                "seed {seed} {point:?}: trace diverged after restart"
            );
            assert_eq!(
                base.residuals, restarted.residuals,
                "seed {seed} {point:?}: per-step residuals diverged after restart"
            );
        }
    }
}

/// Seeded chaos: `random_master_kills` picks the kill superstep from the
/// seed; whatever it picks, the restarted run must still be byte-exact.
#[test]
fn random_kill_points_restart_byte_identical() {
    for chaos_seed in [3u64, 99] {
        let plan = FaultPlan::random_master_kills(chaos_seed, 3, 1);
        let spec = plan.master_kill_spec();
        assert_eq!(spec.len(), 1);
        let base = uninterrupted(11);
        let restarted = killed_and_restored(11, spec[0]);
        assert_eq!(
            base.values, restarted.values,
            "chaos seed {chaos_seed} ({:?}): values diverged",
            spec[0]
        );
        assert_eq!(
            base.trace, restarted.trace,
            "chaos seed {chaos_seed} ({:?}): trace diverged",
            spec[0]
        );
    }
}

/// A crashed tenant must not perturb its surviving neighbour: the
/// survivor's values match its solo baseline, and the crashed job —
/// resumed after restore — matches its own uninterrupted baseline.
#[test]
fn survivor_unperturbed_by_master_crash() {
    // Solo durable baselines.
    let base_a = uninterrupted(13);
    let base_b = {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let svc = GraphService::new_durable(service_cfg(13), Arc::clone(&vfs), CodecChoice::None)
            .unwrap();
        svc.register_graph("b", graph_b(), GraphSpec::new(3))
            .unwrap();
        let r = svc
            .submit(
                Arc::new(PageRank::new(4)),
                JobRequest::new("b", pagerank_cfg(3)),
            )
            .unwrap()
            .wait()
            .unwrap();
        bits(&r.values)
    };

    // Two tenants, job-a's master killed mid-barrier. Job-b must finish
    // with baseline values; sched.leave on the halt keeps the cohort
    // barrier from deadlocking the survivor.
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let mut cfg = service_cfg(13);
    cfg.max_resident_jobs = 2;
    let svc = GraphService::new_durable(cfg, Arc::clone(&vfs), CodecChoice::None).unwrap();
    svc.register_graph("a", graph_a(), GraphSpec::new(3).with_vblocks(2))
        .unwrap();
    svc.register_graph("b", graph_b(), GraphSpec::new(3))
        .unwrap();
    let pause = svc.pause_scheduling();
    let t_a = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new(
                "a",
                pagerank_cfg(3).with_fault_plan(Arc::new(
                    FaultPlan::new().master_kill(MasterKillPoint::MidBarrier(2)),
                )),
            ),
        )
        .unwrap();
    let t_b = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("b", pagerank_cfg(3)),
        )
        .unwrap();
    drop(pause);
    let err_a = t_a.wait().unwrap_err();
    assert!(matches!(err_a, JobError::Halted { .. }), "{err_a}");
    let r_b = t_b.wait().unwrap();
    assert_eq!(
        base_b,
        bits(&r_b.values),
        "survivor was perturbed by the neighbour's master crash"
    );
    drop(svc);

    // Revive the crashed tenant; it must reach its own baseline values.
    let (svc, recovered) = GraphService::restore(cfg, Arc::clone(&vfs)).unwrap();
    let rec = recovered
        .iter()
        .find(|r| r.graph == "a")
        .expect("crashed job must be recovered");
    let r_a = svc
        .resume_job(Arc::new(PageRank::new(4)), pagerank_cfg(3), rec)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        base_a.values,
        bits(&r_a.values),
        "crashed tenant diverged from baseline after restore"
    );
}

/// Restore rebuilds the control plane from the log alone: the catalog
/// (without re-parsing a source), the job-id sequence, and the recovery
/// backlog used for admission shedding.
#[test]
fn restore_rebuilds_catalog_and_sheds_until_resumed() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let mut cfg = service_cfg(21);
    cfg.recovery_shed_threshold = 0; // any backlog sheds fresh load
    let svc = GraphService::new_durable(cfg, Arc::clone(&vfs), CodecChoice::None).unwrap();
    svc.register_graph("a", graph_a(), GraphSpec::new(3).with_vblocks(2))
        .unwrap();
    svc.register_graph("gone", graph_b(), GraphSpec::new(2))
        .unwrap();
    svc.evict("gone").unwrap();
    let killed = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new(
                "a",
                pagerank_cfg(3).with_fault_plan(Arc::new(
                    FaultPlan::new().master_kill(MasterKillPoint::BetweenGrants(1)),
                )),
            ),
        )
        .unwrap();
    let killed_id = killed.job_id();
    assert!(matches!(
        killed.wait().unwrap_err(),
        JobError::Halted { .. }
    ));
    drop(svc);

    assert!(GraphService::log_exists(vfs.as_ref()));
    let (svc, recovered) = GraphService::restore(cfg, Arc::clone(&vfs)).unwrap();
    // Catalog replayed: the evicted graph stays gone, the live one is
    // back with its registered layout.
    assert_eq!(svc.registered_graphs(), 1);
    assert_eq!(svc.workers_of("a"), Some(3));
    assert_eq!(svc.workers_of("gone"), None);
    assert!(svc.is_durable());
    assert!(svc.service_log_bytes() > 0);

    // One recovered job, resumable from its superstep-1 cut; until it is
    // resumed the backlog sheds fresh submissions.
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].job_id, killed_id);
    assert_eq!(recovered[0].superstep, Some(1));
    assert_eq!(svc.recovery_backlog(), 1);
    let err = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3)),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdmissionError::Overloaded {
                backlog: 1,
                threshold: 0
            }
        ),
        "{err}"
    );

    let resumed = svc
        .resume_job(Arc::new(PageRank::new(4)), pagerank_cfg(3), &recovered[0])
        .unwrap();
    assert_eq!(resumed.job_id(), killed_id, "resumed job keeps its id");
    resumed.wait().unwrap();
    assert_eq!(svc.recovery_backlog(), 0);

    // Backlog drained: fresh admissions flow again, with a fresh id.
    let fresh = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3)),
        )
        .unwrap();
    assert!(fresh.job_id() > killed_id, "job ids must not be reused");
    fresh.wait().unwrap();
}

/// A log restores only under the cache geometry it was written for. A
/// 4-slot log restored with 8 slots (its cache snapshots have 4 shards)
/// or with 1 (its graph has 3 workers) is an error: the first used to
/// panic in `SharedEdgeCache::restore`, the second to register a graph
/// whose jobs would index past the cache's shards.
#[test]
fn restore_under_another_cache_geometry_is_an_error() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let cfg = ServiceConfig {
        cache_slots: 4,
        ..service_cfg(31)
    };
    let svc = GraphService::new_durable(cfg, Arc::clone(&vfs), CodecChoice::None).unwrap();
    svc.register_graph("a", graph_a(), GraphSpec::new(3))
        .unwrap();
    svc.submit(pagerank(), JobRequest::new("a", pagerank_cfg(3)))
        .unwrap()
        .wait()
        .unwrap();
    drop(svc);

    let kind_with = |slots| {
        let other = ServiceConfig {
            cache_slots: slots,
            ..cfg
        };
        match GraphService::restore(other, Arc::clone(&vfs)) {
            Ok(_) => panic!("a 4-slot log restored with {slots} slots"),
            Err(e) => e.kind(),
        }
    };
    assert_eq!(kind_with(8), std::io::ErrorKind::InvalidData);
    assert_eq!(kind_with(1), std::io::ErrorKind::Other);
    let (svc, recovered) = GraphService::restore(cfg, vfs).expect("the log's own geometry");
    assert!(recovered.is_empty());
    assert_eq!(svc.workers_of("a"), Some(3));
}
