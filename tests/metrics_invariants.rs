//! Invariants of the measurement machinery — the quantities the figure
//! harness reports must mean what they claim.

use hybridgraph::codec::frame;
use hybridgraph::prelude::*;
use hybridgraph_core::{StepKind, SuperstepMetrics};
use hybridgraph_graph::gen;
use std::sync::Arc;

fn graph() -> Graph {
    gen::rmat(400, 4000, gen::RmatParams::default(), 17)
}

fn run(mode: Mode, buffer: usize) -> JobMetrics {
    let cfg = JobConfig::new(mode, 4).with_buffer(buffer);
    hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &graph(), cfg)
        .unwrap()
        .metrics
}

#[test]
fn push_spills_only_past_buffer() {
    let tight = run(Mode::Push, 50);
    let loose = run(Mode::Push, usize::MAX - 1);
    assert!(
        tight.steps.iter().any(|s| s.sem.msg_spill_bytes > 0),
        "tiny buffer must spill"
    );
    assert!(
        loose.steps.iter().all(|s| s.sem.msg_spill_bytes == 0),
        "huge buffer must not spill"
    );
    assert!(tight.total_io_bytes() > loose.total_io_bytes());
}

#[test]
fn bpull_never_spills_messages() {
    let m = run(Mode::BPull, 50);
    for s in &m.steps {
        assert_eq!(
            s.sem.msg_spill_bytes, 0,
            "b-pull consumes messages in place"
        );
        assert_eq!(s.pending_messages, 0);
    }
}

#[test]
fn bpull_superstep1_exchanges_nothing() {
    // Fig. 17's note: b-pull starts exchanging messages from superstep 2.
    let m = run(Mode::BPull, 100);
    let s1 = &m.steps[0];
    assert_eq!(s1.net_out_bytes, 0);
    assert_eq!(s1.net_raw_messages, 0);
    assert!(m.steps[1].net_raw_messages > 0);
}

#[test]
fn bpull_requests_are_block_granular() {
    // Requests per superstep = V blocks broadcast to T workers.
    let m = run(Mode::BPull, 100);
    let v = m.load.num_vblocks as u64;
    let t = 4u64;
    for s in &m.steps[1..] {
        assert_eq!(s.net_requests, v * t, "superstep {}", s.superstep);
    }
    // Superstep 1 sends none.
    assert_eq!(m.steps[0].net_requests, 0);
}

#[test]
fn pull_sends_vertex_granular_requests() {
    let m = run(Mode::Pull, 100);
    let v = m.load.num_vblocks as u64;
    for s in &m.steps[1..] {
        assert!(
            s.net_requests > v * 4,
            "per-vertex requests must dwarf block requests: {} at superstep {}",
            s.net_requests,
            s.superstep
        );
    }
}

#[test]
fn combining_reduces_wire_values() {
    let combined = run(Mode::BPull, 100);
    let mut cfg = JobConfig::new(Mode::BPull, 4).with_buffer(100);
    cfg.combining = false;
    let concat = hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &graph(), cfg)
        .unwrap()
        .metrics;
    let wire = |m: &JobMetrics| m.steps.iter().map(|s| s.net_wire_values).sum::<u64>();
    let bytes = |m: &JobMetrics| m.total_net_bytes();
    assert!(wire(&combined) < wire(&concat));
    assert!(bytes(&combined) < bytes(&concat));
    // Both merge something relative to raw.
    assert!(combined.steps[2].net_saved_messages > 0);
    assert!(concat.steps[2].net_saved_messages > 0);
}

#[test]
fn eq7_eq8_formulas_hold_in_metrics() {
    for mode in [Mode::Push, Mode::BPull] {
        let m = run(mode, 60);
        for s in &m.steps {
            match s.kind {
                // A step prices Eq. 7 (8) from the bytes push (b-pull)
                // measured when that mode ran.
                StepKind::Push => assert_eq!(
                    (s.qt.io_e_push, s.qt.io_mdisk),
                    (s.sem.push_edge_bytes, s.sem.msg_spill_bytes)
                ),
                StepKind::BPull => assert_eq!(
                    (s.qt.io_e_bpull, s.qt.io_f, s.qt.io_vrr),
                    (
                        s.sem.bpull_edge_bytes,
                        s.sem.fragment_aux_bytes,
                        s.sem.svertex_rand_bytes
                    )
                ),
                _ => {}
            }
        }
    }
}

#[test]
fn theorem2_initial_mode_is_recorded() {
    let tight = run(Mode::Hybrid, 16);
    assert!(tight.load.b_lower_bound != 0 || tight.load.fragments > 0);
    // With a buffer under B⊥ hybrid starts in b-pull.
    if (16 * 4) <= tight.load.b_lower_bound {
        assert_eq!(tight.load.initial_mode, Mode::BPull);
        assert_eq!(tight.steps[0].kind, StepKind::BPull);
    } else {
        assert_eq!(tight.load.initial_mode, Mode::Push);
        assert_eq!(tight.steps[0].kind, StepKind::Push);
    }
}

#[test]
fn hybrid_switches_match_step_kinds() {
    // Force switching with an SSSP run (traversal tail).
    let g = gen::randomize_weights(&gen::uniform(600, 6000, 3), 1.0, 6.0, 3);
    let cfg = JobConfig::new(Mode::Hybrid, 4).with_buffer(64);
    let m = hybridgraph_core::run_job(Arc::new(Sssp::new(VertexId(0))), &g, cfg)
        .unwrap()
        .metrics;
    for &(at, from, to) in &m.switches {
        let step = &m.steps[(at - 1) as usize];
        match (from, to) {
            (Mode::BPull, Mode::Push) => assert_eq!(step.kind, StepKind::BPullThenPush),
            (Mode::Push, Mode::BPull) => assert_eq!(step.kind, StepKind::PushNoSend),
            other => panic!("impossible switch {other:?}"),
        }
    }
    // Steps after a switch run the new mode until the next switch.
    if let Some(&(at, _, to)) = m.switches.first() {
        if (at as usize) < m.steps.len() {
            let next = &m.steps[at as usize];
            assert_eq!(next.kind.mode(), to);
        }
    }
}

#[test]
fn pricing_a_run_under_another_profile_equals_running_under_it() {
    // Push, pushM, pull and b-pull read no profile while they run, so a
    // job's record priced under the SSD profile is its SSD run: every
    // field of every step but the two wall clocks, floats bit for bit.
    let g = graph();
    let (hdd, ssd) = (DeviceProfile::local_hdd(), DeviceProfile::amazon_ssd());
    let run = |mode, sssp: bool, codec, profile| {
        let cfg = JobConfig::new(mode, 4)
            .with_buffer(50)
            .with_codec(codec)
            .with_profile(profile);
        match sssp {
            true => {
                hybridgraph_core::run_job(Arc::new(Sssp::new(VertexId(0))), &g, cfg)
                    .unwrap()
                    .metrics
            }
            false => {
                hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &g, cfg)
                    .unwrap()
                    .metrics
            }
        }
    };
    let untimed = |m: &JobMetrics| -> Vec<Vec<u8>> {
        let untimed = |s: &SuperstepMetrics| SuperstepMetrics {
            wall_secs: 0.0,
            blocking_secs: 0.0,
            ..s.clone()
        };
        m.steps.iter().map(|s| frame::encode(&untimed(s))).collect()
    };
    for mode in [Mode::Push, Mode::PushM, Mode::Pull, Mode::BPull] {
        for sssp in [false, true] {
            for codec in CodecChoice::ALL {
                let case = format!("{mode:?} sssp={sssp} {codec:?}");
                let on_hdd = run(mode, sssp, codec, hdd);
                let (on_ssd, priced) = (run(mode, sssp, codec, ssd), on_hdd.price(&ssd));
                assert_eq!(priced.profile, on_ssd.profile, "{case}");
                assert_eq!(untimed(&priced), untimed(&on_ssd), "{case}");
                assert_eq!(priced.worker_costs, on_ssd.worker_costs, "{case}");
                assert!(
                    on_hdd.modeled_total_secs() > priced.modeled_total_secs(),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn memory_usage_shrinks_with_more_blocks() {
    // Fig. 23: the receive buffer shrinks as V grows. Concatenate-only
    // LPA makes the buffer proportional to per-block in-degree mass, so
    // the effect dominates the (V-proportional) metadata even at test
    // scale.
    let g = graph();
    let mem = |per_worker: usize| {
        let mut cfg = JobConfig::new(Mode::BPull, 4).with_buffer(200);
        cfg.vblocks_per_worker = Some(per_worker);
        hybridgraph_core::run_job(Arc::new(Lpa::new(4)), &g, cfg)
            .unwrap()
            .metrics
            .peak_memory_bytes()
    };
    assert!(mem(1) > mem(16), "{} vs {}", mem(1), mem(16));
}

#[test]
fn bpull_memory_high_water_mark_does_not_depend_on_packet_timing() {
    // Pre-pulling keeps two Vblocks in flight, and at a 600-byte sending
    // threshold their responses interleave differently run to run. The
    // mark counts complete inboxes only, so it must not move — a job whose
    // `memory_budget` sits near it may not pass or fail by scheduling.
    let g = graph();
    let marks = || -> Vec<u64> {
        let mut cfg = JobConfig::new(Mode::BPull, 3).with_sending_threshold(600);
        cfg.vblocks_per_worker = Some(6);
        assert!(cfg.pre_pull && cfg.combining);
        let metrics = hybridgraph_core::run_job(Arc::new(PageRank::new(6)), &g, cfg)
            .unwrap()
            .metrics;
        metrics.steps.iter().map(|s| s.memory_bytes).collect()
    };
    let first = marks();
    assert!(first[1] > first[0], "superstep 2 holds received messages");
    for run in 1..20 {
        assert_eq!(marks(), first, "run {run}");
    }
}

#[test]
fn io_grows_with_more_blocks() {
    let g = graph();
    let io = |per_worker: usize| {
        let mut cfg = JobConfig::new(Mode::BPull, 4).with_buffer(200);
        cfg.vblocks_per_worker = Some(per_worker);
        hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &g, cfg)
            .unwrap()
            .metrics
            .total_io_bytes()
    };
    // Fig. 24: I/O bytes grow with V (Theorem 1).
    assert!(io(32) > io(1), "{} vs {}", io(32), io(1));
}

/// Every executor updates through one kernel, so which vertices update
/// and which respond in each superstep — and when the job stops — may not
/// depend on the executor.
#[test]
fn executors_agree_on_updates_and_responders() {
    fn agree<P: VertexProgram>(name: &str, program: P, g: &Graph, modes: &[Mode]) {
        let program = Arc::new(program);
        for workers in [1, 3, 4] {
            let counters = |mode| -> Vec<(u64, u64)> {
                let cfg = JobConfig::new(mode, workers).with_buffer(64);
                let metrics = run_job(Arc::clone(&program), g, cfg).unwrap().metrics;
                metrics
                    .steps
                    .iter()
                    .map(|s| (s.updated, s.responders))
                    .collect()
            };
            let want = counters(Mode::Push);
            assert!(want.len() > 2, "{name} x{workers}: {want:?}");
            for &mode in modes {
                assert_eq!(counters(mode), want, "{name} {mode:?} x{workers}");
            }
        }
    }
    let g = gen::uniform(600, 6000, 3);
    let all = [Mode::PushM, Mode::Pull, Mode::BPull];
    let weighted = gen::randomize_weights(&g, 1.0, 6.0, 3);
    agree("sssp", Sssp::new(VertexId(0)), &weighted, &all);
    agree(
        "wcc",
        Wcc::new(),
        &hybridgraph_algos::wcc::symmetrize(&g),
        &all,
    );
    // LPA has no combiner, so no pushM.
    agree("lpa", Lpa::converging(30), &g, &all[1..]);
}

#[test]
fn load_report_counts_fragments() {
    let m = run(Mode::BPull, 100);
    assert!(m.load.fragments > 0);
    assert!(m.load.num_vblocks >= 4);
    assert!(m.load.io.seq_write_bytes > 0);
    assert_eq!(
        m.load.b_lower_bound,
        (4000 / 2) as i64 - m.load.fragments as i64
    );
}
