//! Degenerate inputs the engine must survive.

use hybridgraph::prelude::*;
use hybridgraph_graph::gen;
use std::sync::Arc;

fn all_modes(combinable: bool) -> Vec<Mode> {
    if combinable {
        Mode::ALL.to_vec()
    } else {
        vec![Mode::Push, Mode::Pull, Mode::BPull, Mode::Hybrid]
    }
}

#[test]
fn edgeless_graph_terminates_immediately() {
    let g = Graph::empty(10);
    for mode in all_modes(true) {
        let cfg = JobConfig::new(mode, 3).with_buffer(8);
        let res = hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &g, cfg).unwrap();
        assert_eq!(res.values.len(), 10);
        // Everyone initializes, nobody can send: one or two supersteps.
        assert!(res.metrics.supersteps() <= 2, "{mode:?}");
        for v in &res.values {
            assert_eq!(*v, 0.1);
        }
    }
}

#[test]
fn single_vertex_graph() {
    let g = Graph::empty(1);
    for mode in all_modes(true) {
        let cfg = JobConfig::new(mode, 1);
        let res = hybridgraph_core::run_job(Arc::new(Wcc::new()), &g, cfg).unwrap();
        assert_eq!(res.values, vec![0]);
    }
}

#[test]
fn more_workers_than_vertices() {
    let g = gen::cycle(3);
    for mode in all_modes(true) {
        let cfg = JobConfig::new(mode, 8).with_buffer(4);
        let res = hybridgraph_core::run_job(Arc::new(Wcc::new()), &g, cfg).unwrap();
        assert_eq!(res.values, vec![0, 0, 0], "{mode:?}");
    }
}

#[test]
fn self_loop_free_sources_with_unreachable_rest() {
    // Source is a sink: SSSP produces dist 0 there, infinity elsewhere,
    // and terminates after the empty push.
    let g = gen::star(5); // 0 -> 1..4
    let program = Sssp::new(VertexId(3)); // vertex 3 has no out-edges
    for mode in [Mode::Push, Mode::BPull, Mode::Hybrid] {
        let cfg = JobConfig::new(mode, 2).with_buffer(4);
        let res = hybridgraph_core::run_job(Arc::new(program.clone()), &g, cfg).unwrap();
        assert_eq!(res.values[3], 0.0, "{mode:?}");
        assert!(res.values[0].is_infinite());
        assert!(res.metrics.supersteps() <= 2);
    }
}

#[test]
fn one_message_buffer_still_correct() {
    let g = gen::uniform(60, 360, 2);
    let want = hybridgraph_algos::reference::reference_run(&Lpa::new(3), &g);
    for mode in all_modes(false) {
        let cfg = JobConfig::new(mode, 3).with_buffer(1);
        let res = hybridgraph_core::run_job(Arc::new(Lpa::new(3)), &g, cfg).unwrap();
        assert_eq!(res.values, want, "{mode:?}");
    }
}

#[test]
fn tiny_sending_threshold_still_correct() {
    let g = gen::uniform(50, 300, 7);
    let want = hybridgraph_algos::reference::reference_run(&PageRank::new(4), &g);
    for mode in all_modes(true) {
        let cfg = JobConfig::new(mode, 3)
            .with_buffer(32)
            .with_sending_threshold(1);
        let res = hybridgraph_core::run_job(Arc::new(PageRank::new(4)), &g, cfg).unwrap();
        for (got, want) in res.values.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{mode:?}");
        }
    }
}

#[test]
fn many_blocks_per_worker() {
    let g = gen::uniform(40, 240, 9);
    let want = hybridgraph_algos::reference::reference_run(&Wcc::new(), &g);
    let mut cfg = JobConfig::new(Mode::BPull, 2).with_buffer(16);
    cfg.vblocks_per_worker = Some(100); // clamps to vertices per worker
    let res = hybridgraph_core::run_job(Arc::new(Wcc::new()), &g, cfg).unwrap();
    assert_eq!(res.values, want);
}

#[test]
fn max_supersteps_cap_halts_nonconverging_programs() {
    let g = gen::cycle(6);
    let mut cfg = JobConfig::new(Mode::BPull, 2);
    cfg.max_supersteps = 4;
    // PageRank with an unbounded budget would run forever.
    let res = hybridgraph_core::run_job(Arc::new(PageRank::new(u64::MAX)), &g, cfg).unwrap();
    assert_eq!(res.metrics.supersteps(), 4);
}

/// Configurations the engine cannot run are a typed error from the top
/// of `run_job` — before any worker thread starts — not a panic in the
/// caller's (or a service's job) thread.
#[test]
fn unrunnable_configurations_are_typed_errors() {
    use hybridgraph::core::{ResumeState, WorkerDisks};

    let g = gen::uniform(32, 128, 3);
    let rejects = |graph: &Graph, cfg: JobConfig, why: &str| match run_job(
        Arc::new(PageRank::new(3)),
        graph,
        cfg,
    ) {
        Err(e @ JobError::InvalidConfig(_)) => {
            assert_eq!(e.code(), 5);
            assert!(e.to_string().contains(why), "{e}");
        }
        other => panic!("{why}: expected InvalidConfig, got {:?}", other.err()),
    };
    let base = JobConfig::new(Mode::Push, 2);
    rejects(&g, JobConfig::new(Mode::Push, 0), "at least one worker");
    rejects(&Graph::empty(0), base.clone(), "must have vertices");
    rejects(&g, JobConfig::new(Mode::Pull, 65), "at most 64 workers");
    run_job(
        Arc::new(PageRank::new(3)),
        &g,
        JobConfig::new(Mode::Pull, 64),
    )
    .unwrap();
    let disks = WorkerDisks(vec![Arc::new(MemVfs::new()) as Arc<dyn Vfs>; 3]);
    rejects(&g, base.clone().with_worker_disks(disks), "worker_disks");
    let sink = Arc::new(TraceSink::new(5));
    rejects(&g, base.clone().with_trace(sink), "TraceSink");
    let mut forced = JobConfig::new(Mode::Hybrid, 2);
    forced.initial_mode_override = Some(Mode::Pull);
    rejects(&g, forced, "push and b-pull");
    // A zero sending threshold, and a zero message buffer that Eq. 5 /
    // Eq. 6 would divide by, in every mode. With an explicit Vblock count
    // a zero buffer sizes nothing, and the job runs.
    for mode in Mode::ALL {
        let cfg = JobConfig::new(mode, 2);
        rejects(
            &g,
            cfg.clone().with_sending_threshold(0),
            "sending threshold",
        );
        rejects(&g, cfg.clone().with_buffer(0), "zero message buffer");
        let mut sized = cfg.with_buffer(0);
        sized.vblocks_per_worker = Some(2);
        run_job(Arc::new(PageRank::new(3)), &g, sized)
            .unwrap_or_else(|e| panic!("{mode:?}, buffer 0, two Vblocks: {e}"));
    }

    // A resume state cut for another worker count, or without the trace
    // rings a traced job needs. Corrupt bytes stay an I/O error.
    #[derive(Debug, Default)]
    struct Keep(std::sync::Mutex<Vec<u8>>);
    impl hybridgraph::core::BarrierSink for Keep {
        fn commit(&self, _superstep: u64, state: &[u8]) -> std::io::Result<()> {
            *self.0.lock().unwrap() = state.to_vec();
            Ok(())
        }
    }
    let keep = Arc::new(Keep::default());
    let durable = JobConfig::new(Mode::Push, 3)
        .with_checkpoint(CheckpointPolicy::EveryK(1))
        .with_barrier_sink(keep.clone());
    run_job(Arc::new(PageRank::new(3)), &g, durable).unwrap();
    let state = ResumeState(Arc::new(keep.0.lock().unwrap().clone()));
    rejects(&g, base.clone().with_resume(state.clone()), "resume state");
    let traced = JobConfig::new(Mode::Push, 3)
        .with_trace(Arc::new(TraceSink::new(3)))
        .with_resume(state);
    rejects(&g, traced, "untraced state");
    let torn = ResumeState(Arc::new(vec![7; 5]));
    let res = run_job(Arc::new(PageRank::new(3)), &g, base.with_resume(torn));
    assert!(matches!(res, Err(JobError::Io(_))));

    // `pushM` without a combiner (LPA has none).
    let res = run_job(Arc::new(Lpa::new(3)), &g, JobConfig::new(Mode::PushM, 2));
    assert!(matches!(res, Err(JobError::InvalidConfig(_))));
}

/// Stores attached for another slot count are refused before any worker
/// starts: with more workers than slots a worker would index past the
/// stores, with fewer the workers would read stores cut for another
/// partition.
#[test]
fn shared_stores_for_another_worker_count_are_invalid() {
    use hybridgraph::core::SharedStores;

    let g = gen::uniform(60, 300, 4);
    let stores = SharedStores::build(0, &g, 3, 1, CodecChoice::None).unwrap();
    for workers in [2, 4] {
        let mut cfg = JobConfig::new(Mode::Push, workers);
        cfg.shared_stores = Some(stores.clone());
        match run_job(Arc::new(PageRank::new(3)), &g, cfg) {
            Err(e @ JobError::InvalidConfig(_)) => {
                assert!(e.to_string().contains("shared_stores"), "{e}")
            }
            other => panic!(
                "{workers} workers: expected InvalidConfig, got {:?}",
                other.err()
            ),
        }
    }
}
