//! Checkpoint/recovery correctness: injected worker failures must leave
//! no trace in the computed values.
//!
//! The engine's executors are order-deterministic (per-sender message
//! accumulators merged in worker order, canonical inbox sorting), so
//! these tests can demand *bit-identical* `f64` results between a
//! fault-free run and a run that lost workers and rolled back — not just
//! agreement within a tolerance.

use hybridgraph::prelude::*;
use hybridgraph_graph::gen;
use std::sync::Arc;

fn pagerank_graph() -> Graph {
    gen::rmat(256, 2048, gen::RmatParams::default(), 11)
}

fn sssp_graph() -> Graph {
    gen::randomize_weights(&gen::uniform(200, 1200, 5), 1.0, 4.0, 6)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bits32(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts two runs computed bit-identical values and matching semantic
/// I/O per superstep.
fn assert_equivalent(clean: &JobResult<PageRank>, faulted: &JobResult<PageRank>, label: &str) {
    assert_eq!(
        bits(&clean.values),
        bits(&faulted.values),
        "{label}: values diverged after recovery"
    );
    assert_eq!(
        clean.metrics.steps.len(),
        faulted.metrics.steps.len(),
        "{label}: superstep counts diverged"
    );
    for (c, f) in clean.metrics.steps.iter().zip(&faulted.metrics.steps) {
        assert_eq!(c.kind, f.kind, "{label}: superstep {} kind", c.superstep);
        assert_eq!(
            c.sem, f.sem,
            "{label}: superstep {} semantic bytes",
            c.superstep
        );
    }
}

use hybridgraph_core::runner::JobResult;

/// The headline scenario: worker 2 dies at superstep 5 of a 20-superstep
/// hybrid PageRank with checkpoints every 3 supersteps. The job must
/// finish with values bit-identical to a fault-free run, after at least
/// one rollback, with the checkpoint bytes visible as classified
/// sequential writes.
#[test]
fn hybrid_pagerank_recovers_bit_identical_after_kill() {
    let g = pagerank_graph();
    let program = PageRank::new(20);
    let base = JobConfig::new(Mode::Hybrid, 4).with_buffer(256);

    let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
    assert_eq!(clean.metrics.recovery.rollbacks, 0);
    assert_eq!(clean.metrics.recovery.checkpoints_taken, 0);

    let plan = Arc::new(FaultPlan::new().kill(2, 5, FaultPhase::Compute));
    let cfg = base
        .with_checkpoint(CheckpointPolicy::EveryK(3))
        .with_fault_plan(Arc::clone(&plan));
    let faulted = run_job(Arc::new(program), &g, cfg).unwrap();

    assert_equivalent(&clean, &faulted, "hybrid pagerank");
    let rec = &faulted.metrics.recovery;
    assert_eq!(plan.fired(), 1, "the kill order must have fired");
    assert_eq!(rec.rollbacks, 1, "one failure, one rollback");
    assert_eq!(rec.confined_recoveries, 0, "logging off: global rollback");
    assert_eq!(rec.checkpoint_restores, 4, "global rollback reloads all 4");
    assert_eq!(rec.failures.len(), 1);
    assert_eq!(rec.failures[0].worker, 2);
    assert_eq!(rec.failures[0].superstep, 5);
    // Rolled back from superstep 5 to the checkpoint at 3: supersteps 4
    // and 5 are re-executed.
    assert_eq!(rec.recomputed_supersteps, 2);
    // Baseline at 0 plus every 3rd superstep, re-taken ones included.
    assert!(rec.checkpoints_taken >= 7, "got {}", rec.checkpoints_taken);
    assert!(rec.checkpoint_bytes > 0);
    // Every checkpoint byte is a classified sequential write.
    assert_eq!(rec.checkpoint_io.seq_write_bytes, rec.checkpoint_bytes);
}

/// Without checkpoints, a worker failure fails the job with a typed
/// error instead of panicking.
#[test]
fn never_policy_fails_fast_with_typed_error() {
    let g = pagerank_graph();
    let plan = Arc::new(FaultPlan::new().kill(2, 5, FaultPhase::Compute));
    let cfg = JobConfig::new(Mode::Hybrid, 4)
        .with_buffer(256)
        .with_fault_plan(plan);
    match run_job(Arc::new(PageRank::new(20)), &g, cfg) {
        Err(JobError::WorkerFailed {
            worker,
            superstep,
            error,
        }) => {
            assert_eq!(worker, 2);
            assert_eq!(superstep, 5);
            assert!(error.contains("injected fault"), "got: {error}");
        }
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("job must not survive an unrecoverable failure"),
    }
}

/// Kills in every lifecycle phase — loading, before compute, and at the
/// barrier — must all recover to bit-identical values, in every mode. A
/// compute kill aborts the peers mid-exchange, so each executor's re-run
/// starts from the buffers the aborted superstep left: the superstep
/// frame must have emptied them.
#[test]
fn every_phase_and_mode_recovers() {
    let g = pagerank_graph();
    let program = PageRank::new(12);
    for mode in Mode::ALL {
        let base = JobConfig::new(mode, 3).with_buffer(128);
        let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
        for phase in FaultPhase::ALL {
            let superstep = match phase {
                FaultPhase::Load => 0,
                _ => 4,
            };
            let plan = Arc::new(FaultPlan::new().kill(1, superstep, phase));
            let cfg = base
                .clone()
                .with_checkpoint(CheckpointPolicy::EveryK(3))
                .with_fault_plan(Arc::clone(&plan));
            let mut faulted = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(plan.fired(), 1, "{mode:?}/{phase:?}: fault did not fire");
            if mode == Mode::Pull {
                // Pull's LRU value cache restarts empty at a rollback (a
                // checkpoint holds values, not the cache), so a re-run
                // superstep reads svertices the clean run found cached:
                // values and every other semantic byte still match.
                for (c, f) in clean.metrics.steps.iter().zip(&mut faulted.metrics.steps) {
                    f.sem.svertex_rand_bytes = c.sem.svertex_rand_bytes;
                }
            }
            assert_equivalent(&clean, &faulted, &format!("{mode:?}/{phase:?}"));
            if phase != FaultPhase::Load {
                assert!(faulted.metrics.recovery.rollbacks >= 1);
            }
        }
    }
}

/// SSSP (min-combined messages, push mode and the pull baseline with its
/// LRU cache) also recovers bit-identically — distances, including
/// `inf` for unreachable vertices, survive the rollback untouched.
#[test]
fn sssp_push_and_pull_recover_bit_identical() {
    let g = sssp_graph();
    let program = Sssp::new(VertexId(0));
    for mode in [Mode::Push, Mode::Pull] {
        let base = JobConfig::new(mode, 3).with_buffer(96);
        let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
        let plan = Arc::new(FaultPlan::new().kill(0, 3, FaultPhase::Barrier));
        let cfg = base
            .with_checkpoint(CheckpointPolicy::EveryK(2))
            .with_fault_plan(Arc::clone(&plan));
        let faulted = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
        assert_eq!(plan.fired(), 1, "{mode:?}: fault did not fire");
        assert_eq!(
            bits32(&clean.values),
            bits32(&faulted.values),
            "{mode:?}: distances diverged after recovery"
        );
        assert!(faulted.metrics.recovery.rollbacks >= 1);
    }
}

/// The same seed must produce the same failure schedule, the same
/// recovery trace, and the same (bit-identical) results — the property
/// that makes failure reproductions debuggable.
#[test]
fn seeded_fault_injection_is_deterministic() {
    let g = pagerank_graph();
    let program = PageRank::new(10);
    let run = |seed: u64| {
        let plan = Arc::new(FaultPlan::random(seed, 4, 8, 2));
        let cfg = JobConfig::new(Mode::Hybrid, 4)
            .with_buffer(256)
            .with_checkpoint(CheckpointPolicy::EveryK(2))
            .with_fault_plan(plan);
        run_job(Arc::new(program.clone()), &g, cfg).unwrap()
    };
    let a = run(0xFA11);
    let b = run(0xFA11);
    assert_eq!(bits(&a.values), bits(&b.values));
    assert_eq!(a.metrics.recovery.failures, b.metrics.recovery.failures);
    assert_eq!(a.metrics.recovery.rollbacks, b.metrics.recovery.rollbacks);
    assert_eq!(
        a.metrics.recovery.recomputed_supersteps,
        b.metrics.recovery.recomputed_supersteps
    );
    assert_eq!(
        a.metrics.recovery.checkpoint_bytes,
        b.metrics.recovery.checkpoint_bytes
    );
    assert_eq!(a.metrics.steps.len(), b.metrics.steps.len());
    for (x, y) in a.metrics.steps.iter().zip(&b.metrics.steps) {
        assert_eq!(x.sem, y.sem, "superstep {} semantic bytes", x.superstep);
    }
}

/// The adaptive (Young-style) policy spaces checkpoints by the modeled
/// cost ratio and still recovers bit-identically.
#[test]
fn adaptive_policy_checkpoints_and_recovers() {
    let g = pagerank_graph();
    let program = PageRank::new(12);
    let base = JobConfig::new(Mode::BPull, 3).with_buffer(128);
    let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();

    let plan = Arc::new(FaultPlan::new().kill(1, 6, FaultPhase::Compute));
    let mut cfg = base
        .with_checkpoint(CheckpointPolicy::Adaptive)
        .with_fault_plan(Arc::clone(&plan));
    // A small re-execution-to-overhead ratio forces frequent checkpoints
    // on this small graph.
    cfg.adaptive_checkpoint_factor = 0.01;
    let faulted = run_job(Arc::new(program), &g, cfg).unwrap();
    assert_eq!(plan.fired(), 1);
    assert!(faulted.metrics.recovery.checkpoints_taken >= 2);
    assert!(faulted.metrics.recovery.rollbacks >= 1);
    assert_eq!(bits(&clean.values), bits(&faulted.values));
}

/// Per-superstep byte parity between two runs, stronger than
/// [`assert_equivalent`]: every cost-model input — semantic bytes,
/// classified I/O, and all logical network counters — must match to the
/// byte. Retransmissions, duplicates, and replayed log traffic live in
/// separate overhead counters and therefore must never perturb these.
fn assert_byte_parity(clean: &JobMetrics, other: &JobMetrics, label: &str) {
    assert_eq!(
        clean.steps.len(),
        other.steps.len(),
        "{label}: superstep counts diverged"
    );
    for (c, f) in clean.steps.iter().zip(&other.steps) {
        let s = c.superstep;
        assert_eq!(c.kind, f.kind, "{label}: superstep {s} kind");
        assert_eq!(c.sem, f.sem, "{label}: superstep {s} semantic bytes");
        assert_eq!(c.io, f.io, "{label}: superstep {s} classified I/O");
        assert_eq!(
            c.net_out_bytes, f.net_out_bytes,
            "{label}: superstep {s} remote bytes"
        );
        assert_eq!(
            c.net_local_bytes, f.net_local_bytes,
            "{label}: superstep {s} loopback bytes"
        );
        assert_eq!(
            c.net_raw_messages, f.net_raw_messages,
            "{label}: superstep {s} raw messages"
        );
        assert_eq!(
            c.net_wire_values, f.net_wire_values,
            "{label}: superstep {s} wire values"
        );
        assert_eq!(
            c.net_saved_messages, f.net_saved_messages,
            "{label}: superstep {s} saved messages (M_co)"
        );
        assert_eq!(
            c.net_requests, f.net_requests,
            "{label}: superstep {s} pull requests"
        );
        assert_eq!(c.qt, f.qt, "{label}: superstep {s} Eq. 11 inputs");
        assert_eq!(
            c.q_metric.to_bits(),
            f.q_metric.to_bits(),
            "{label}: superstep {s} Q_t"
        );
    }
    assert_eq!(
        clean.worker_costs, other.worker_costs,
        "{label}: per-worker priced records"
    );
}

/// Seeded drop/duplicate/delay faults on every link must be fully
/// absorbed by the ARQ layer: PageRank over push, pushM, async, b-pull
/// and hybrid finishes bit-identical to a lossless run, with *zero*
/// deviation in any cost-model byte counter — the lossy wire shows up
/// only in the overhead counters. The spill-fed modes keep each
/// vertex's messages in receive order, so a retransmission that
/// reordered one sender's frames would show in the values.
#[test]
fn unreliable_network_matrix_pagerank() {
    let g = pagerank_graph();
    let program = PageRank::new(12);
    for mode in [
        Mode::Push,
        Mode::PushM,
        Mode::Async,
        Mode::BPull,
        Mode::Hybrid,
    ] {
        let base = JobConfig::new(mode, 4).with_buffer(256);
        let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
        for (label, net) in [
            ("drops", NetFaultPlan::new(0xD201).with_drops(100, 3)),
            ("dups", NetFaultPlan::new(0xD202).with_duplicates(150)),
            ("delays", NetFaultPlan::new(0xD203).with_delays(120, 1)),
            (
                "mixed",
                NetFaultPlan::new(0xD204)
                    .with_drops(60, 2)
                    .with_duplicates(60)
                    .with_delays(40, 1),
            ),
        ] {
            let tag = format!("{mode:?}/{label}");
            let net = Arc::new(net);
            let plan = Arc::new(FaultPlan::new().with_net(Arc::clone(&net)));
            let cfg = base.clone().with_fault_plan(plan);
            let lossy = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(
                bits(&clean.values),
                bits(&lossy.values),
                "{tag}: values diverged under an unreliable network"
            );
            assert_byte_parity(&clean.metrics, &lossy.metrics, &tag);
            let fired = net.drops_fired() + net.duplicates_fired() + net.delays_fired();
            assert!(fired > 0, "{tag}: the fault schedule never fired");
            let ov = &lossy.metrics.net_overhead;
            match label {
                "drops" => assert!(
                    ov.dropped_frames > 0 && ov.retransmitted_bytes > 0,
                    "{tag}: drops must surface as retransmissions"
                ),
                "dups" => assert!(
                    ov.duplicate_drops > 0,
                    "{tag}: duplicates must be discarded by receivers"
                ),
                "delays" => assert!(ov.delayed_frames > 0, "{tag}: delays must fire"),
                _ => {}
            }
            assert_eq!(
                lossy.metrics.recovery.rollbacks, 0,
                "{tag}: wire faults alone must never trigger recovery"
            );
        }
    }
}

/// The same matrix for SSSP's min-combined `f32` distances.
#[test]
fn unreliable_network_matrix_sssp() {
    let g = sssp_graph();
    let program = Sssp::new(VertexId(0));
    for mode in [Mode::Push, Mode::BPull, Mode::Hybrid] {
        let base = JobConfig::new(mode, 3).with_buffer(128);
        let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
        let net = Arc::new(
            NetFaultPlan::new(0x55517 + mode as u64)
                .with_drops(80, 2)
                .with_duplicates(80)
                .with_delays(50, 1),
        );
        let plan = Arc::new(FaultPlan::new().with_net(net));
        let lossy = run_job(Arc::new(program.clone()), &g, base.with_fault_plan(plan)).unwrap();
        assert_eq!(
            bits32(&clean.values),
            bits32(&lossy.values),
            "{mode:?}: distances diverged under an unreliable network"
        );
        assert_byte_parity(&clean.metrics, &lossy.metrics, &format!("sssp {mode:?}"));
    }
}

/// The PR's acceptance scenario: a seeded schedule dropping a healthy
/// share of data packets *and* a worker killed mid-job. With message
/// logging on, the hybrid PageRank run must finish bit-identical to the
/// fault-free run via *confined* recovery: only the dead worker reloads
/// a checkpoint, survivors never roll back, and every reported
/// cost-model byte count matches the lossless run to the byte.
#[test]
fn confined_recovery_under_lossy_network_acceptance() {
    let g = pagerank_graph();
    let program = PageRank::new(20);
    let base = JobConfig::new(Mode::Hybrid, 4).with_buffer(256);
    let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();

    let net = Arc::new(NetFaultPlan::new(0xACCE97).with_drops(80, 2));
    let plan = Arc::new(
        FaultPlan::new()
            .kill(2, 5, FaultPhase::Compute)
            .with_net(Arc::clone(&net)),
    );
    let cfg = base
        .with_checkpoint(CheckpointPolicy::EveryK(3))
        .with_fault_plan(Arc::clone(&plan))
        .with_message_logging(true);
    let faulted = run_job(Arc::new(program), &g, cfg).unwrap();

    assert_eq!(
        bits(&clean.values),
        bits(&faulted.values),
        "confined recovery must be value-transparent"
    );
    assert_byte_parity(&clean.metrics, &faulted.metrics, "acceptance");

    let rec = &faulted.metrics.recovery;
    assert_eq!(plan.fired(), 1, "the kill order must have fired");
    assert!(net.drops_fired() > 0, "the drop schedule must have fired");
    assert_eq!(rec.confined_recoveries, 1, "exactly one confined recovery");
    assert_eq!(rec.rollbacks, 0, "survivors must never roll back globally");
    assert_eq!(
        rec.checkpoint_restores, 1,
        "only the dead worker reloads its checkpoint"
    );
    // Killed at 5 with the cut at 3: superstep 4 replays from logs, 5
    // re-executes live.
    assert_eq!(rec.replayed_supersteps, 1);
    assert_eq!(rec.recomputed_supersteps, 1);
    assert!(rec.msg_log_bytes > 0, "logging must have written segments");
    let ov = &faulted.metrics.net_overhead;
    assert!(
        ov.retransmitted_bytes > 0,
        "drops must cost retransmissions"
    );
    assert!(
        ov.replayed_bytes > 0,
        "survivors must re-serve logged packets"
    );
}

/// Confined recovery in the standalone modes: push (kill at the barrier,
/// so survivors revert a *completed* superstep) and b-pull (kill before
/// compute, so survivors unwind an aborted one).
#[test]
fn confined_recovery_per_mode() {
    let g = pagerank_graph();
    let program = PageRank::new(12);
    for (mode, phase) in [
        (Mode::Push, FaultPhase::Barrier),
        (Mode::BPull, FaultPhase::Compute),
        (Mode::Push, FaultPhase::Compute),
        (Mode::BPull, FaultPhase::Barrier),
    ] {
        let tag = format!("{mode:?}/{phase:?}");
        let base = JobConfig::new(mode, 3).with_buffer(128);
        let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
        let plan = Arc::new(FaultPlan::new().kill(1, 5, phase));
        let cfg = base
            .with_checkpoint(CheckpointPolicy::EveryK(3))
            .with_fault_plan(Arc::clone(&plan))
            .with_message_logging(true);
        let faulted = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
        assert_eq!(plan.fired(), 1, "{tag}: fault did not fire");
        assert_eq!(
            bits(&clean.values),
            bits(&faulted.values),
            "{tag}: values diverged after confined recovery"
        );
        assert_byte_parity(&clean.metrics, &faulted.metrics, &tag);
        let rec = &faulted.metrics.recovery;
        assert_eq!(rec.confined_recoveries, 1, "{tag}");
        assert_eq!(rec.rollbacks, 0, "{tag}");
        assert_eq!(rec.checkpoint_restores, 1, "{tag}");
    }
}

/// A survivor's undo puts its pending messages back as **one run**. With
/// a buffer far below the ~680 messages a worker receives, that run
/// crosses the resident/spill boundary and — coded — two chunk flushes,
/// and the restored spill file must read back exactly as the one the
/// abandoned superstep consumed: same values, same bytes and op counts.
#[test]
fn confined_recovery_undo_crosses_run_boundaries() {
    let g = pagerank_graph();
    let program = PageRank::new(10);
    for codec in [CodecChoice::None, CodecChoice::Gaps] {
        for (mode, phase) in [
            (Mode::Push, FaultPhase::Barrier),
            (Mode::Push, FaultPhase::Compute),
            (Mode::Hybrid, FaultPhase::Barrier),
        ] {
            let tag = format!("{mode:?}/{phase:?}/{codec:?}");
            let base = JobConfig::new(mode, 3).with_buffer(40).with_codec(codec);
            let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
            let spilled: u64 = clean
                .metrics
                .steps
                .iter()
                .map(|m| m.sem.msg_spill_bytes)
                .sum();
            assert!(spilled > 0, "{tag}: the job must spill");
            let plan = Arc::new(FaultPlan::new().kill(2, 4, phase));
            let cfg = base
                .with_checkpoint(CheckpointPolicy::EveryK(3))
                .with_fault_plan(Arc::clone(&plan))
                .with_message_logging(true);
            let faulted = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
            assert_eq!(plan.fired(), 1, "{tag}: fault did not fire");
            assert_eq!(
                bits(&clean.values),
                bits(&faulted.values),
                "{tag}: values diverged after confined recovery"
            );
            assert_byte_parity(&clean.metrics, &faulted.metrics, &tag);
            let rec = &faulted.metrics.recovery;
            assert_eq!(rec.confined_recoveries, 1, "{tag}");
            assert_eq!(rec.rollbacks, 0, "{tag}");
        }
    }
}

/// SSSP also recovers confined, exercising min-combining over the replay
/// path.
#[test]
fn confined_recovery_sssp() {
    let g = sssp_graph();
    let program = Sssp::new(VertexId(0));
    for mode in [Mode::Push, Mode::BPull, Mode::Hybrid] {
        let base = JobConfig::new(mode, 3).with_buffer(96);
        let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
        let plan = Arc::new(FaultPlan::new().kill(0, 3, FaultPhase::Barrier));
        let cfg = base
            .with_checkpoint(CheckpointPolicy::EveryK(2))
            .with_fault_plan(Arc::clone(&plan))
            .with_message_logging(true);
        let faulted = run_job(Arc::new(program.clone()), &g, cfg).unwrap();
        assert_eq!(plan.fired(), 1, "{mode:?}: fault did not fire");
        assert_eq!(
            bits32(&clean.values),
            bits32(&faulted.values),
            "{mode:?}: distances diverged after confined recovery"
        );
        let rec = &faulted.metrics.recovery;
        assert_eq!(rec.confined_recoveries, 1, "{mode:?}");
        assert_eq!(rec.rollbacks, 0, "{mode:?}");
    }
}

/// The pull baseline's LRU receive state is not undoable in memory, so
/// even with logging on it must fall back to the global rollback — and
/// still end bit-identical.
#[test]
fn pull_mode_falls_back_to_global_rollback() {
    let g = sssp_graph();
    let program = Sssp::new(VertexId(0));
    let base = JobConfig::new(Mode::Pull, 3).with_buffer(96);
    let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
    let plan = Arc::new(FaultPlan::new().kill(0, 3, FaultPhase::Barrier));
    let cfg = base
        .with_checkpoint(CheckpointPolicy::EveryK(2))
        .with_fault_plan(Arc::clone(&plan))
        .with_message_logging(true);
    let faulted = run_job(Arc::new(program), &g, cfg).unwrap();
    assert_eq!(plan.fired(), 1);
    assert_eq!(bits32(&clean.values), bits32(&faulted.values));
    let rec = &faulted.metrics.recovery;
    assert_eq!(rec.confined_recoveries, 0, "pull must not go confined");
    assert_eq!(rec.rollbacks, 1);
    assert_eq!(rec.checkpoint_restores, 3, "global rollback reloads all 3");
}

/// Two workers dying in the same superstep exceed what one set of logs
/// can reconstruct; the master must fall back to the global rollback.
#[test]
fn simultaneous_failures_fall_back_to_global_rollback() {
    let g = pagerank_graph();
    let program = PageRank::new(12);
    let base = JobConfig::new(Mode::BPull, 4).with_buffer(256);
    let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
    let plan = Arc::new(FaultPlan::new().kill(0, 4, FaultPhase::Compute).kill(
        2,
        4,
        FaultPhase::Compute,
    ));
    let cfg = base
        .with_checkpoint(CheckpointPolicy::EveryK(2))
        .with_fault_plan(Arc::clone(&plan))
        .with_message_logging(true);
    let faulted = run_job(Arc::new(program), &g, cfg).unwrap();
    assert_eq!(plan.fired(), 2, "both kill orders must fire");
    assert_eq!(bits(&clean.values), bits(&faulted.values));
    let rec = &faulted.metrics.recovery;
    assert_eq!(rec.confined_recoveries, 0, "two deaths: not confined");
    assert_eq!(rec.rollbacks, 1);
    assert_eq!(rec.checkpoint_restores, 4);
}

/// Seed-driven stress: a random kill schedule layered over a lossy wire.
/// `HG_FAULT_SEED` (set by the CI fault-stress job) selects the
/// schedule; every seed must converge to the fault-free fixed point
/// bit-identically. The seed is printed so a failure reproduces with
/// `HG_FAULT_SEED=<n> cargo test --test fault_recovery seeded_stress`.
#[test]
fn seeded_stress_survives_kills_and_lossy_wire() {
    let seed: u64 = std::env::var("HG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    println!("HG_FAULT_SEED={seed}");
    let g = pagerank_graph();
    let program = PageRank::new(14);
    let base = JobConfig::new(Mode::Hybrid, 3).with_buffer(192);
    let clean = run_job(Arc::new(program.clone()), &g, base.clone()).unwrap();
    let net = Arc::new(
        NetFaultPlan::new(seed ^ 0x9e3779b97f4a7c15)
            .with_drops(70, 2)
            .with_duplicates(50)
            .with_delays(30, 1),
    );
    let plan = Arc::new(FaultPlan::random(seed, 3, 10, 2).with_net(net));
    let cfg = base
        .with_checkpoint(CheckpointPolicy::EveryK(2))
        .with_fault_plan(Arc::clone(&plan))
        .with_message_logging(true);
    let faulted = run_job(Arc::new(program), &g, cfg)
        .unwrap_or_else(|e| panic!("seed {seed}: job failed to recover: {e}"));
    assert_eq!(
        bits(&clean.values),
        bits(&faulted.values),
        "seed {seed}: values diverged after recovery"
    );
    assert_byte_parity(&clean.metrics, &faulted.metrics, &format!("seed {seed}"));
}

/// Exhausting the recovery budget (eight respawns per job) turns the
/// next failure into a typed job error rather than an endless respawn
/// loop: eight kills are recovered, the ninth ends the job.
#[test]
fn recovery_budget_is_enforced() {
    let g = pagerank_graph();
    let plan = (1..=9u64).fold(FaultPlan::new(), |p, s| {
        p.kill(s as usize % 3, s, FaultPhase::Compute)
    });
    let cfg = JobConfig::new(Mode::BPull, 3)
        .with_buffer(128)
        .with_checkpoint(CheckpointPolicy::EveryK(1))
        .with_fault_plan(Arc::new(plan));
    match run_job(Arc::new(PageRank::new(12)), &g, cfg) {
        Err(JobError::WorkerFailed {
            worker, superstep, ..
        }) => assert_eq!((worker, superstep), (0, 9)),
        other => panic!(
            "expected the second failure to exhaust the budget, got {:?}",
            other.map(|r| r.values.len())
        ),
    }
}

/// A program that delegates to `inner` but panics in `update` for one
/// vertex at one superstep — a user bug (or one of the executors' own
/// protocol assertions) firing on exactly one worker mid-superstep.
struct PanicAt<P> {
    inner: P,
    superstep: u64,
    vertex: VertexId,
}

impl<P: VertexProgram> VertexProgram for PanicAt<P> {
    type Value = P::Value;
    type Message = P::Message;

    fn name(&self) -> &'static str {
        "panic-at"
    }
    fn init(&self, v: VertexId, info: &GraphInfo) -> P::Value {
        self.inner.init(v, info)
    }
    fn update(
        &self,
        v: VertexId,
        info: &GraphInfo,
        superstep: u64,
        current: &P::Value,
        msgs: &[P::Message],
    ) -> Update<P::Value> {
        assert!(
            !(superstep == self.superstep && v == self.vertex),
            "user program bug at vertex {} superstep {superstep}",
            v.0
        );
        self.inner.update(v, info, superstep, current, msgs)
    }
    fn message(
        &self,
        src: VertexId,
        value: &P::Value,
        out_degree: u32,
        edge: &Edge,
    ) -> Option<P::Message> {
        self.inner.message(src, value, out_degree, edge)
    }
    fn combiner(&self) -> Option<&dyn hybridgraph::net::Combiner<P::Message>> {
        self.inner.combiner()
    }
    fn max_supersteps(&self) -> Option<u64> {
        self.inner.max_supersteps()
    }
}

/// A worker thread that panics (rather than returning an error) used to
/// hang the job forever: the thread unwound without a `Failed`, its peers
/// waited for its end-of-step marker, and the master's reply channel
/// could never disconnect. The panic must surface as a typed
/// `WorkerFailed` — fatal under every policy, since the endpoint went
/// down with the thread — within the watchdog's patience.
#[test]
fn panicking_worker_fails_the_job_instead_of_hanging() {
    use std::sync::mpsc::channel;
    use std::time::Duration;

    for mode in [Mode::Push, Mode::BPull] {
        for policy in [CheckpointPolicy::Never, CheckpointPolicy::EveryK(1)] {
            let (tx, rx) = channel();
            std::thread::spawn(move || {
                let program = PanicAt {
                    inner: PageRank::new(6),
                    superstep: 2,
                    vertex: VertexId(0),
                };
                let cfg = JobConfig::new(mode, 3)
                    .with_buffer(192)
                    .with_checkpoint(policy);
                let res = run_job(Arc::new(program), &pagerank_graph(), cfg);
                tx.send(res.map(|r| r.values.len())).ok();
            });
            let res = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{mode:?}/{policy:?}: run_job hung on a worker panic"));
            match res {
                Err(JobError::WorkerFailed {
                    worker,
                    superstep,
                    error,
                }) => {
                    assert_eq!((worker, superstep), (0, 2), "{mode:?}/{policy:?}");
                    assert!(
                        error.contains("worker panicked") && error.contains("user program bug"),
                        "{mode:?}/{policy:?}: {error}"
                    );
                }
                other => panic!("{mode:?}/{policy:?}: expected WorkerFailed, got {other:?}"),
            }
        }
    }
}

/// Message logs are written only where recovery reads them. Pull, pushM
/// and async jobs never recover confined, so with logging on they still
/// checkpoint (and would roll back globally) but commit no `msglog_*`
/// segment and report no log bytes; a push job beside them logs every
/// superstep after its last cut.
#[test]
fn only_confining_modes_write_message_logs() {
    use hybridgraph::core::WorkerDisks;
    use hybridgraph::storage::segment::{file_name, MsgLog};

    let g = pagerank_graph();
    let run = |mode: Mode| {
        let disks: Vec<Arc<MemVfs>> = (0..3).map(|_| Arc::new(MemVfs::new())).collect();
        let cfg = JobConfig::new(mode, 3)
            .with_buffer(256)
            .with_checkpoint(CheckpointPolicy::EveryK(2))
            .with_message_logging(true)
            .with_worker_disks(WorkerDisks(
                disks
                    .iter()
                    .map(|d| Arc::clone(d) as Arc<dyn Vfs>)
                    .collect(),
            ));
        let res = run_job(Arc::new(PageRank::new(5)), &g, cfg).unwrap();
        let steps = res.metrics.supersteps();
        let segments = (1..=steps)
            .flat_map(|s| disks.iter().map(move |d| d.exists(&file_name::<MsgLog>(s))))
            .filter(|&found| found)
            .count();
        let rec = res.metrics.recovery;
        assert!(rec.checkpoints_taken > 1, "{mode:?} keeps checkpointing");
        (segments, rec.msg_log_bytes)
    };
    for mode in [Mode::Pull, Mode::PushM, Mode::Async] {
        assert_eq!(run(mode), (0, 0), "{mode:?}");
    }
    let (segments, bytes) = run(Mode::Push);
    assert!(
        segments > 0 && bytes > 0,
        "push logs: {segments} segments, {bytes} bytes"
    );
}
