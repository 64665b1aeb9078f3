//! `service_restart` — the durable-service chaos sweep.
//!
//! Two questions, answered deterministically:
//!
//! 1. **Crash-restart replay.** For every seeded master kill point
//!    (during load, mid-barrier, between grants), kill a durable
//!    PageRank job, revive the service from its write-ahead log on the
//!    same VFS, resume the job from its last durable cut — and require
//!    the final values and the `Q_t` audit bytes to match the
//!    uninterrupted run exactly. The table reports where each kill
//!    landed, which superstep the resume re-entered, how many WAL bytes
//!    the whole life cycle cost, and the byte-identity verdict.
//!
//! 2. **Fault-aware checkpoint spacing.** Under a worker-kill storm the
//!    Young-style fault-aware policy (spacing `sqrt(2·w·MTBF)` once
//!    failures are observed) should checkpoint *more often* than the
//!    load-factor-only adaptive policy, trading checkpoint writes for
//!    less recomputation on each rollback. The sweep runs the same
//!    killed job under both and reports checkpoints taken and
//!    recomputed supersteps.
//!
//! `repro` writes both tables to `BENCH_service_restart.json`, which
//! holds nothing timed, so CI can re-run the sweep and `git diff` the
//! committed report.

use crate::report::{job_cells, Cell, Report, Table, JOB_COLUMNS};
use crate::{workers_for, Scale};
use hybridgraph_algos::PageRank;
use hybridgraph_core::{
    encode_qt_audits, CheckpointPolicy, FaultPhase, FaultPlan, JobConfig, JobError,
    MasterKillPoint, Mode,
};
use hybridgraph_graph::Dataset;
use hybridgraph_service::{GraphService, GraphSpec, JobRequest, ServiceConfig};
use hybridgraph_storage::{CodecChoice, MemVfs, Vfs};
use std::sync::Arc;

/// Superstep budget of each PageRank job.
const SUPERSTEPS: u64 = 5;

/// Service seeds swept by the chaos matrix.
const SEEDS: &[u64] = &[1, 42];

fn service_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        max_resident_jobs: 1,
        max_queued_jobs: 4,
        cache_bytes: 1 << 20,
        cache_slots: 16,
        seed,
        max_job_logical_io: None,
        max_job_memory: None,
        recovery_shed_threshold: 8,
    }
}

fn job_cfg(workers: usize, buffer: usize) -> JobConfig {
    let mut cfg = JobConfig::new(Mode::Hybrid, workers)
        .with_buffer(buffer)
        .with_checkpoint(CheckpointPolicy::EveryK(1));
    cfg.initial_mode_override = Some(Mode::Push);
    cfg
}

struct Outcome {
    values: Vec<u64>,
    audits: Vec<u8>,
    modeled_secs: f64,
    wal_bytes: u64,
}

/// Runs the sweep and adds both tables.
pub fn run(scale: Scale, rep: &mut Report) {
    let d = Dataset::LiveJ;
    let workers = workers_for(d);
    let buffer = scale.down(13_000_000, 64);
    let points = [
        MasterKillPoint::Load,
        MasterKillPoint::MidBarrier(2),
        MasterKillPoint::BetweenGrants(2),
    ];

    println!(
        "## service_restart: durable-service chaos sweep on {d:?}, kill points {points:?}, seeds {SEEDS:?}"
    );

    let mut t = Table::new(
        "killed-and-restored vs uninterrupted (byte identity per kill point)",
        &[
            "seed",
            "kill point",
            "resume@",
            "modeled",
            "wal bytes",
            "identical",
        ],
    );

    let mut all_identical = true;
    for &seed in SEEDS {
        let base = run_once(scale, d, workers, buffer, seed, None);
        for point in points {
            let restored = run_once(scale, d, workers, buffer, seed, Some(point));
            let identical =
                base.out.values == restored.out.values && base.out.audits == restored.out.audits;
            all_identical &= identical;
            let resume_at = restored.resume_superstep;
            t.row(vec![
                Cell::Count(seed),
                Cell::text(format!("{point:?}")),
                resume_at.map_or(Cell::text("load"), Cell::Count),
                Cell::Secs(restored.out.modeled_secs),
                Cell::Bytes(restored.out.wal_bytes),
                Cell::text(if identical { "yes" } else { "NO" }),
            ]);
        }
    }
    rep.add(t);
    assert!(
        all_identical,
        "a killed-and-restored run diverged from its uninterrupted baseline"
    );
    println!("every killed-and-restored run matched its baseline byte-for-byte\n");

    // Fault-aware adaptive spacing under a worker-kill storm: observed
    // failures shrink the Young interval, buying cheaper rollbacks with
    // more frequent checkpoints.
    let mut columns = vec!["fault-aware", "checkpoints", "rollbacks", "recomputed"];
    columns.extend(JOB_COLUMNS);
    columns.push("mtbf");
    let mut t = Table::new(
        "adaptive checkpointing under worker kills (fault-aware off/on)",
        &columns,
    );
    for fault_aware in [false, true] {
        let g = scale.build(d);
        let svc = GraphService::new(service_cfg(7));
        svc.register_graph("g", g, GraphSpec::new(workers)).unwrap();
        let plan = FaultPlan::new()
            .kill(1, 2, FaultPhase::Compute)
            .kill(2, 4, FaultPhase::Compute);
        let mut cfg = job_cfg(workers, buffer)
            .with_checkpoint(CheckpointPolicy::Adaptive)
            .with_fault_plan(Arc::new(plan))
            .with_fault_aware_checkpoint(fault_aware);
        cfg.adaptive_checkpoint_factor = 40.0;
        let m = svc
            .submit(
                Arc::new(PageRank::new(SUPERSTEPS)),
                JobRequest::new("g", cfg),
            )
            .unwrap()
            .wait()
            .expect("adaptive run must recover")
            .metrics;
        let mut cells = vec![
            Cell::text(fault_aware.to_string()),
            Cell::Count(m.recovery.checkpoints_taken),
            Cell::Count(m.recovery.rollbacks),
            Cell::Count(m.recovery.recomputed_supersteps),
        ];
        cells.extend(job_cells(&m));
        cells.push(Cell::Secs(m.recovery.mtbf_secs));
        t.row(cells);
    }
    rep.add(t);
}

struct Restored {
    out: Outcome,
    resume_superstep: Option<u64>,
}

/// One durable run: uninterrupted when `kill` is `None`, otherwise killed
/// at the given master kill point and revived via restore/resume.
fn run_once(
    scale: Scale,
    d: Dataset,
    workers: usize,
    buffer: usize,
    seed: u64,
    kill: Option<MasterKillPoint>,
) -> Restored {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let cfg = service_cfg(seed);
    let svc = GraphService::new_durable(cfg, Arc::clone(&vfs), CodecChoice::None).unwrap();
    svc.register_graph("g", scale.build(d), GraphSpec::new(workers))
        .unwrap();

    let mut jc = job_cfg(workers, buffer);
    if let Some(point) = kill {
        jc = jc.with_fault_plan(Arc::new(FaultPlan::new().master_kill(point)));
    }
    let ticket = svc
        .submit(
            Arc::new(PageRank::new(SUPERSTEPS)),
            JobRequest::new("g", jc),
        )
        .unwrap();

    if kill.is_none() {
        let r = ticket.wait().expect("uninterrupted run failed");
        return Restored {
            out: Outcome {
                values: r.values.iter().map(|v| v.to_bits()).collect(),
                audits: encode_qt_audits(&r.metrics.qt_audit),
                modeled_secs: r.metrics.modeled_total_secs(),
                wal_bytes: svc.service_log_bytes(),
            },
            resume_superstep: None,
        };
    }

    let err = ticket.wait().unwrap_err();
    assert!(matches!(err, JobError::Halted { .. }), "{err}");
    drop(svc);

    let (svc, recovered) = GraphService::restore(cfg, Arc::clone(&vfs)).unwrap();
    assert_eq!(recovered.len(), 1);
    let rec = &recovered[0];
    let resume_superstep = rec.superstep;
    let r = svc
        .resume_job(
            Arc::new(PageRank::new(SUPERSTEPS)),
            job_cfg(workers, buffer),
            rec,
        )
        .unwrap()
        .wait()
        .expect("resumed run failed");
    Restored {
        out: Outcome {
            values: r.values.iter().map(|v| v.to_bits()).collect(),
            audits: encode_qt_audits(&r.metrics.qt_audit),
            modeled_secs: r.metrics.modeled_total_secs(),
            wal_bytes: svc.service_log_bytes(),
        },
        resume_superstep,
    }
}
