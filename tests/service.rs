//! Multi-tenant `GraphService` end-to-end: concurrent jobs must be
//! byte-identically replayable, admission control must reject and queue
//! with typed errors, the catalog must enforce its reference counts, and
//! a faulted tenant must recover without perturbing its neighbours.

use hybridgraph::prelude::*;
use hybridgraph_graph::gen;
use hybridgraph_obs::export_chrome_trace_jobs;
use std::sync::Arc;

fn graph_a() -> Graph {
    gen::rmat(256, 2048, gen::RmatParams::default(), 11)
}

fn graph_b() -> Graph {
    gen::uniform(200, 1600, 5)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn service(seed: u64, resident: usize, queued: usize) -> GraphService {
    GraphService::new(ServiceConfig {
        max_resident_jobs: resident,
        max_queued_jobs: queued,
        // Small enough that two tenants interfere through evictions, so
        // the determinism tests exercise the contended cache paths.
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        seed,
        max_job_logical_io: None,
        max_job_memory: None,
        recovery_shed_threshold: 8,
    })
}

fn pagerank_cfg(workers: usize) -> JobConfig {
    let mut cfg = JobConfig::new(Mode::Hybrid, workers).with_buffer(2048);
    cfg.initial_mode_override = Some(Mode::Push);
    cfg
}

/// One two-tenant run: both jobs traced, batch-submitted under a
/// scheduling pause. Returns the combined Chrome trace plus both value
/// vectors (bitwise).
fn traced_pair(seed: u64) -> (String, Vec<u64>, Vec<u64>) {
    let svc = service(seed, 2, 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(3).with_vblocks(2))
        .unwrap();
    svc.register_graph("b", graph_b(), GraphSpec::new(3))
        .unwrap();
    let sink_a = Arc::new(TraceSink::new(3));
    let sink_b = Arc::new(TraceSink::new(3));
    let pause = svc.pause_scheduling();
    let t_a = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3).with_trace(Arc::clone(&sink_a))),
        )
        .unwrap();
    let t_b = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("b", pagerank_cfg(3).with_trace(Arc::clone(&sink_b))),
        )
        .unwrap();
    drop(pause);
    let r_a = t_a.wait().unwrap();
    let r_b = t_b.wait().unwrap();
    let trace = export_chrome_trace_jobs(&[("job-a", &sink_a), ("job-b", &sink_b)]);
    (trace, bits(&r_a.values), bits(&r_b.values))
}

/// Two runs of the same two-tenant batch must agree byte-for-byte: the
/// combined trace (modeled-time timestamps, per-job tracks) and every
/// vertex value. This is the service-level determinism contract — thread
/// interleavings must not leak through the shared cache or scheduler.
#[test]
fn concurrent_jobs_double_run_byte_identical() {
    for seed in [1, 42] {
        let (trace1, va1, vb1) = traced_pair(seed);
        let (trace2, va2, vb2) = traced_pair(seed);
        assert_eq!(va1, va2, "seed {seed}: job-a values diverged");
        assert_eq!(vb1, vb2, "seed {seed}: job-b values diverged");
        assert_eq!(trace1, trace2, "seed {seed}: combined trace diverged");
    }
}

/// Sharing the engine must not change answers: a tenant's values are
/// bit-identical to the same job run solo (the cache and scheduler move
/// bytes and time, never results).
#[test]
fn shared_engine_matches_solo_values() {
    let solo = {
        let svc = service(7, 1, 0);
        svc.register_graph("a", graph_a(), GraphSpec::new(3))
            .unwrap();
        svc.submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3)),
        )
        .unwrap()
        .wait()
        .unwrap()
    };
    let svc = service(7, 2, 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(3))
        .unwrap();
    svc.register_graph("b", graph_b(), GraphSpec::new(3))
        .unwrap();
    let pause = svc.pause_scheduling();
    let t_a = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3)),
        )
        .unwrap();
    let t_b = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("b", pagerank_cfg(3)),
        )
        .unwrap();
    drop(pause);
    let shared = t_a.wait().unwrap();
    t_b.wait().unwrap().metrics.supersteps();
    assert_eq!(
        bits(&solo.values),
        bits(&shared.values),
        "neighbour changed job-a's values"
    );
}

/// Jobs run on the layout their graph was registered with, not the one
/// their own config would choose: under a 64-message buffer Eq. 5 picks
/// another Vblock count, the graph is registered with 2 per worker. Each
/// served job is bit for bit a private job pinned to that layout.
#[test]
fn jobs_run_on_the_registered_layout() {
    let svc = service(3, 1, 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(3).with_vblocks(2))
        .unwrap();
    for mode in [Mode::BPull, Mode::Pull, Mode::Async] {
        let cfg = JobConfig::new(mode, 3).with_buffer(64);
        let own = run_job(Arc::new(PageRank::new(4)), &graph_a(), cfg.clone()).unwrap();
        assert_ne!(own.metrics.load.num_vblocks, 6, "{mode:?}");
        let served = svc
            .submit(
                Arc::new(PageRank::new(4)),
                JobRequest::new("a", cfg.clone()),
            )
            .unwrap()
            .wait()
            .unwrap();
        let mut pinned = cfg;
        pinned.vblocks_per_worker = Some(2);
        let direct = run_job(Arc::new(PageRank::new(4)), &graph_a(), pinned).unwrap();
        assert_eq!(served.metrics.load.num_vblocks, 6, "{mode:?}");
        assert_eq!(direct.metrics.load.num_vblocks, 6, "{mode:?}");
        assert_eq!(bits(&served.values), bits(&direct.values), "{mode:?}");
    }
}

/// Admission control: unknown graphs, over-limit budgets and a full
/// queue are typed rejections; queued jobs still run to completion.
#[test]
fn admission_rejects_and_queues() {
    let svc = GraphService::new(ServiceConfig {
        max_resident_jobs: 1,
        max_queued_jobs: 1,
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        seed: 3,
        max_job_logical_io: Some(1 << 20),
        max_job_memory: None,
        recovery_shed_threshold: 8,
    });
    svc.register_graph("a", graph_a(), GraphSpec::new(2))
        .unwrap();

    // Unknown graph.
    let err = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("nope", pagerank_cfg(2)),
        )
        .unwrap_err();
    assert!(matches!(err, AdmissionError::UnknownGraph(_)), "{err}");

    // Budget above the service's per-job ceiling.
    let err = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("a", pagerank_cfg(2).with_io_budget(1 << 21)),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdmissionError::BudgetTooLarge {
                resource: "logical_io",
                ..
            }
        ),
        "{err}"
    );

    // Trace sink built for the wrong worker count.
    let err = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("a", pagerank_cfg(2).with_trace(Arc::new(TraceSink::new(5)))),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdmissionError::TraceWorkerMismatch {
                expected: 2,
                got: 5
            }
        ),
        "{err}"
    );

    // One resident slot, one queue slot: the third submission of the
    // batch is refused. The scheduling pause keeps job 1 from finishing
    // (it can never be granted a unit) until all three verdicts are in.
    let pause = svc.pause_scheduling();
    let t1 = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("a", pagerank_cfg(2)),
        )
        .unwrap();
    let t2 = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("a", pagerank_cfg(2)),
        )
        .unwrap();
    assert_eq!(svc.resident_jobs(), 1);
    assert_eq!(svc.queued_jobs(), 1);
    let err = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("a", pagerank_cfg(2)),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdmissionError::QueueFull {
                resident: 1,
                queued: 1
            }
        ),
        "{err}"
    );
    drop(pause);
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!(bits(&r1.values), bits(&r2.values), "same job, same graph");
    assert_eq!(svc.resident_jobs(), 0);
    assert_eq!(svc.queued_jobs(), 0);
}

/// A running job's logical-I/O budget is enforced at a superstep barrier
/// with a typed error; the service frees its slot afterwards.
#[test]
fn budget_exceeded_terminates_job() {
    let svc = service(9, 1, 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(2))
        .unwrap();
    let err = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(2).with_io_budget(512)),
        )
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        JobError::BudgetExceeded {
            resource, budget, ..
        } => {
            assert_eq!(resource, "logical_io");
            assert_eq!(budget, 512);
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
    assert_eq!(svc.resident_jobs(), 0, "failed job must free its slot");
    assert_eq!(svc.pins_of("a"), Some(0), "failed job must unpin");
}

/// Catalog life cycle: eviction is refused while a job pins the graph
/// and succeeds once the pin count drops to zero; evicted names free
/// their slot for re-registration.
#[test]
fn catalog_refuses_eviction_while_pinned() {
    let svc = service(5, 1, 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(2))
        .unwrap();
    assert!(matches!(
        svc.register_graph("a", graph_a(), GraphSpec::new(2)),
        Err(CatalogError::NameTaken(_))
    ));
    assert!(matches!(
        svc.register_graph("big", graph_b(), GraphSpec::new(99)),
        Err(CatalogError::TooManyWorkers {
            workers: 99,
            slots: 8
        })
    ));

    // Pin the graph by submitting under a pause: the job cannot finish,
    // so the eviction attempt deterministically sees the pin.
    let pause = svc.pause_scheduling();
    let t = svc
        .submit(
            Arc::new(PageRank::new(2)),
            JobRequest::new("a", pagerank_cfg(2)),
        )
        .unwrap();
    assert_eq!(svc.pins_of("a"), Some(1));
    assert!(matches!(
        svc.evict("a"),
        Err(CatalogError::Pinned { pins: 1, .. })
    ));
    drop(pause);
    t.wait().unwrap();
    assert_eq!(svc.pins_of("a"), Some(0));
    svc.evict("a").unwrap();
    assert!(matches!(svc.evict("a"), Err(CatalogError::Unknown(_))));
    assert_eq!(svc.registered_graphs(), 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(2))
        .unwrap();
}

/// A graph with no vertices is a typed catalog error. It used to hit an
/// assertion while the service's state lock was held, poisoning the
/// service for every later call; the same service registers a real graph
/// afterwards.
#[test]
fn empty_graph_is_a_typed_error_and_keeps_the_service() {
    let svc = service(5, 1, 0);
    let err = svc
        .register_graph("empty", Graph::empty(0), GraphSpec::new(2))
        .unwrap_err();
    assert!(matches!(err, CatalogError::EmptyGraph), "{err}");
    assert_eq!(err.code(), 7);
    svc.register_graph("a", graph_a(), GraphSpec::new(2))
        .expect("the service still registers");
}

/// A tenant that loses a worker mid-run *and* runs over a lossy wire
/// recovers to bit-identical values without perturbing its neighbour:
/// both jobs must match their solo fault-free baselines.
#[test]
fn faulted_tenant_recovers_without_perturbing_neighbour() {
    let faulted_cfg = || {
        let plan = FaultPlan::new()
            .kill(1, 2, FaultPhase::Compute)
            .with_net(Arc::new(NetFaultPlan::new(0xFEE1).with_drops(100, 2)));
        pagerank_cfg(3)
            .with_checkpoint(CheckpointPolicy::EveryK(1))
            .with_fault_plan(Arc::new(plan))
    };
    // Solo fault-free baselines.
    let base_a = {
        let svc = service(13, 1, 0);
        svc.register_graph("a", graph_a(), GraphSpec::new(3))
            .unwrap();
        svc.submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3)),
        )
        .unwrap()
        .wait()
        .unwrap()
    };
    let base_b = {
        let svc = service(13, 1, 0);
        svc.register_graph("b", graph_b(), GraphSpec::new(3))
            .unwrap();
        svc.submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("b", pagerank_cfg(3)),
        )
        .unwrap()
        .wait()
        .unwrap()
    };

    // Concurrent: job-a clean, job-b killed at superstep 2 over a lossy
    // wire, rolling back to its superstep-1 checkpoint.
    let svc = service(13, 2, 0);
    svc.register_graph("a", graph_a(), GraphSpec::new(3))
        .unwrap();
    svc.register_graph("b", graph_b(), GraphSpec::new(3))
        .unwrap();
    let pause = svc.pause_scheduling();
    let t_a = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", pagerank_cfg(3)),
        )
        .unwrap();
    let t_b = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("b", faulted_cfg()),
        )
        .unwrap();
    drop(pause);
    let r_a = t_a.wait().unwrap();
    let r_b = t_b.wait().unwrap();

    assert!(
        r_b.metrics.recovery.rollbacks >= 1,
        "the kill must have forced a rollback"
    );
    assert_eq!(
        bits(&base_b.values),
        bits(&r_b.values),
        "faulted tenant diverged from its fault-free baseline"
    );
    assert_eq!(
        bits(&base_a.values),
        bits(&r_a.values),
        "neighbour of the faulted tenant was perturbed"
    );
}
