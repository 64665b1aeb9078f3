//! Cross-mode equivalence: every message-handling strategy must compute
//! the same results as the sequential reference executor. This is the
//! repository's strongest correctness check — push, pushM, pull, b-pull
//! and hybrid share nothing but the `VertexProgram`, the partition, and
//! the BSP contract.

use hybridgraph::prelude::*;
use hybridgraph_algos::reference::reference_run;
use hybridgraph_algos::wcc::symmetrize;
use hybridgraph_graph::gen;
use std::sync::Arc;

fn modes_for(combinable: bool) -> Vec<Mode> {
    if combinable {
        vec![
            Mode::Push,
            Mode::PushM,
            Mode::Pull,
            Mode::BPull,
            Mode::Hybrid,
        ]
    } else {
        // pushM requires a combiner.
        vec![Mode::Push, Mode::Pull, Mode::BPull, Mode::Hybrid]
    }
}

fn cfgs(mode: Mode) -> Vec<JobConfig> {
    vec![
        // Sufficient memory, several workers.
        JobConfig::new(mode, 4),
        // Limited memory: spill, small blocks.
        JobConfig::new(mode, 3).with_buffer(64),
        // Single worker degenerate case.
        JobConfig::new(mode, 1).with_buffer(32),
        // More workers than some blocks would like.
        JobConfig::new(mode, 7).with_buffer(128),
    ]
}

#[test]
fn pagerank_all_modes_match_reference() {
    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let program = PageRank::new(5);
    let want = reference_run(&program, &g);
    for mode in modes_for(true) {
        for cfg in cfgs(mode) {
            let workers = cfg.workers;
            let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(res.values.len(), g.num_vertices());
            for (v, (got, want)) in res.values.iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
                    "{mode:?} x{workers}: v{v}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn sssp_all_modes_match_reference() {
    let g = gen::randomize_weights(&gen::uniform(200, 1200, 5), 1.0, 4.0, 6);
    let program = Sssp::new(VertexId(0));
    let want = reference_run(&program, &g);
    for mode in modes_for(true) {
        for cfg in cfgs(mode) {
            let workers = cfg.workers;
            let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            for (v, (got, want)) in res.values.iter().zip(&want).enumerate() {
                if want.is_infinite() {
                    assert!(got.is_infinite(), "{mode:?} x{workers}: v{v} reachable?");
                } else {
                    assert!(
                        (got - want).abs() < 1e-4,
                        "{mode:?} x{workers}: v{v}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn lpa_all_modes_match_reference() {
    let g = gen::rmat(128, 1024, gen::RmatParams::web(), 3);
    let program = Lpa::new(4);
    let want = reference_run(&program, &g);
    for mode in modes_for(false) {
        for cfg in cfgs(mode) {
            let workers = cfg.workers;
            let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(res.values, want, "{mode:?} x{workers}");
        }
    }
}

#[test]
fn sa_all_modes_match_reference() {
    let g = gen::uniform(150, 900, 8);
    let program = Sa::new(6, 42);
    let want = reference_run(&program, &g);
    for mode in modes_for(false) {
        for cfg in cfgs(mode) {
            let workers = cfg.workers;
            let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(res.values, want, "{mode:?} x{workers}");
        }
    }
}

#[test]
fn wcc_all_modes_match_reference() {
    let g = symmetrize(&gen::uniform(120, 300, 2));
    let program = Wcc::new();
    let want = reference_run(&program, &g);
    for mode in modes_for(true) {
        for cfg in cfgs(mode) {
            let workers = cfg.workers;
            let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(res.values, want, "{mode:?} x{workers}");
        }
    }
}

#[test]
fn combining_disabled_still_correct() {
    // Fig. 18 disables b-pull's combining; results must not change.
    let g = gen::uniform(100, 700, 4);
    let program = PageRank::new(4);
    let want = reference_run(&program, &g);
    for mode in [Mode::BPull, Mode::Hybrid, Mode::Pull] {
        let mut cfg = JobConfig::new(mode, 3).with_buffer(128);
        cfg.combining = false;
        let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
        for (got, want) in res.values.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-9, "{mode:?}: {got} vs {want}");
        }
    }
}

#[test]
fn pre_pull_disabled_still_correct() {
    let g = gen::uniform(90, 500, 9);
    let program = Sssp::new(VertexId(1));
    let want = reference_run(&program, &g);
    let mut cfg = JobConfig::new(Mode::BPull, 3).with_buffer(64);
    cfg.pre_pull = false;
    let res = run_job(Arc::new(program), &g, cfg).unwrap();
    for (got, want) in res.values.iter().zip(&want) {
        assert!(
            (got.is_infinite() && want.is_infinite()) || (got - want).abs() < 1e-4,
            "{got} vs {want}"
        );
    }
}

/// Every inbox is in staged order — by destination, then sender worker
/// id, then send order — so with nothing combined PageRank's sums, whose
/// bits depend on summation order, agree exactly across modes: push and
/// pushM reading a spilled (and coded) store back, and the pull family
/// with combining off.
#[test]
fn pagerank_bits_agree_across_modes_without_combining() {
    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let program = PageRank::new(6);
    for codec in [CodecChoice::None, CodecChoice::Bv] {
        let run = |mode: Mode| {
            let mut cfg = JobConfig::new(mode, 3).with_buffer(64).with_codec(codec);
            if !matches!(mode, Mode::Push | Mode::PushM) {
                cfg.combining = false;
            }
            let res = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            let spilled: u64 = res
                .metrics
                .steps
                .iter()
                .map(|m| m.sem.msg_spill_bytes)
                .sum();
            let bits: Vec<u64> = res.values.iter().map(|v| v.to_bits()).collect();
            (bits, spilled)
        };
        let (want, spilled) = run(Mode::Push);
        assert!(spilled > 0, "{codec:?}: push must spill");
        for mode in [Mode::PushM, Mode::Pull, Mode::BPull, Mode::Hybrid] {
            let (got, _) = run(mode);
            assert!(
                got == want,
                "{mode:?}/{codec:?}: values differ from push's in bits"
            );
        }
    }
}
