//! `multi_tenant` — concurrent jobs on one `GraphService`, and what the
//! shared gather cache does to their switch decisions.
//!
//! The setup registers `k` identically-sized copies of the scaled LiveJ
//! stand-in and runs one hybrid PageRank job per copy, all forced to
//! start in push (as `observe` does). The service's shared edge cache is
//! sized to hold roughly **1.2× one graph's adjacency** — a solo job
//! warms it in its first push superstep and from then on reads edges at
//! memory cost, so its measured `IO(E_push)` collapses and `Q_t` keeps
//! favouring push. With two or more tenants the cache thrashes: each
//! job's supersteps evict its neighbours' extents (the deterministic
//! round-robin interleaves them superstep by superstep), misses return,
//! `IO(E_push)` recovers its full weight, and the same job on the same
//! graph makes a *different* switch decision than it did solo. That
//! Q_t flip — pure cross-job cache interference, byte-identically
//! replayable under the service scheduler — is what the experiment
//! surfaces, audit table included.
//!
//! `repro` writes the per-job table (one row per job per sweep point) to
//! `BENCH_multi_tenant.json`.

use crate::report::{job_cells, Cell, Report, Table, JOB_COLUMNS};
use crate::{workers_for, Scale};
use hybridgraph_algos::PageRank;
use hybridgraph_core::{JobConfig, JobMetrics, Mode};
use hybridgraph_graph::{Dataset, Partition, VertexId, WorkerId};
use hybridgraph_obs::render_table;
use hybridgraph_service::{GraphService, GraphSpec, JobRequest, ServiceConfig};
use hybridgraph_storage::CACHE_ENTRY_OVERHEAD;
use std::sync::Arc;

/// Superstep budget of each PageRank job.
const SUPERSTEPS: u64 = 5;

/// Swept concurrent-job counts (first entry is the solo baseline).
const JOB_COUNTS: &[usize] = &[1, 2, 4];

/// Runs the sweep and adds the per-job table.
pub fn run(scale: Scale, rep: &mut Report) {
    let d = Dataset::LiveJ;
    let g = scale.build(d);
    let workers = workers_for(d);
    // One graph's cacheable adjacency: every edge extent plus per-entry
    // bookkeeping. 1.2x means a solo tenant fits with room to spare and
    // any second tenant forces evictions.
    // The cache splits its budget evenly across worker shards, but range
    // partitions carry uneven edge bytes — size every shard for the
    // *heaviest* partition (x1.2) so a solo tenant fits entirely, while
    // any second tenant doubles the working set and must evict.
    let partition = Partition::range(g.num_vertices(), workers);
    let max_shard = (0..workers)
        .map(|w| {
            partition
                .worker_range(WorkerId::from(w))
                .map(|v| match g.out_degree(VertexId(v)) {
                    0 => 0,
                    deg => deg as u64 * 8 + CACHE_ENTRY_OVERHEAD as u64,
                })
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let cache_bytes = (max_shard + max_shard / 5) as usize * workers;
    // A buffer in the band where the Q_t sign is cache-decided: large
    // enough that push's spill term IO(M_disk) no longer dominates Eq. 11
    // on its own (the default limited-memory buffer forces every run to
    // b-pull regardless of cache state), small enough that spills plus a
    // *thrashed* cache's full IO(E_push) still clear the switch gate.
    // 13 M messages at paper scale lands mid-band at the default 1/2000.
    let buffer = scale.down(13_000_000, 64);

    println!(
        "## multi_tenant: {} hybrid PageRank tenants on {d:?} copies, shared {} cache",
        JOB_COUNTS
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        Cell::Bytes(cache_bytes as u64),
    );

    let mut columns = vec!["jobs", "job"];
    columns.extend(JOB_COLUMNS);
    columns.extend(["hits", "misses", "evict", "mode sequence"]);
    let mut t = Table::new(
        "per-job effect of cross-tenant cache interference",
        &columns,
    );
    let mut audits: Vec<(String, JobMetrics)> = Vec::new();

    for &k in JOB_COUNTS {
        let service = GraphService::new(ServiceConfig {
            max_resident_jobs: k,
            max_queued_jobs: k,
            cache_bytes,
            cache_slots: workers,
            seed: 42,
            max_job_logical_io: None,
            max_job_memory: None,
            recovery_shed_threshold: 8,
        });
        for i in 0..k {
            service
                .register_graph(&format!("g{i}"), scale.build(d), GraphSpec::new(workers))
                .expect("register");
        }
        // Batch submission under a scheduling pause: the whole multi-job
        // schedule is a pure function of the batch and the seed.
        let pause = service.pause_scheduling();
        let tickets: Vec<_> = (0..k)
            .map(|i| {
                let mut cfg = JobConfig::new(Mode::Hybrid, workers).with_buffer(buffer);
                cfg.initial_mode_override = Some(Mode::Push);
                service
                    .submit(
                        Arc::new(PageRank::new(SUPERSTEPS)),
                        JobRequest::new(format!("g{i}"), cfg),
                    )
                    .expect("admit")
            })
            .collect();
        drop(pause);
        for (i, ticket) in tickets.into_iter().enumerate() {
            let m = ticket.wait().expect("job failed").metrics;
            let seq: Vec<&str> = m.steps.iter().map(|s| s.kind.label()).collect();
            let evictions: u64 = m.steps.iter().map(|s| s.cache_evictions).sum();
            let mut cells = vec![Cell::Count(k as u64), Cell::Count(i as u64)];
            cells.extend(job_cells(&m));
            cells.extend([
                Cell::Count(m.total_cache_hits()),
                Cell::Count(m.total_cache_misses()),
                Cell::Count(evictions),
                Cell::Text(seq.join(" ")),
            ]);
            t.row(cells);
            if i == 0 {
                audits.push((format!("{k}-jobs/job{i}"), m));
            }
        }
    }
    rep.add(t);

    // Surface the Q_t flip: job0 runs the same program on the same graph
    // at every sweep point; only the neighbours differ. Compare its
    // audited decisions against the solo baseline.
    let (solo_label, solo) = &audits[0];
    let solo_decisions = decisions(solo);
    let mut flips = 0usize;
    for (label, m) in &audits[1..] {
        let these = decisions(m);
        let changed = these != solo_decisions;
        if changed {
            flips += 1;
        }
        println!(
            "{label} vs {solo_label}: decisions {} (solo {:?} vs {:?})",
            if changed { "CHANGED" } else { "identical" },
            solo_decisions,
            these,
        );
    }
    println!(
        "\nQ_t flips from shared-cache interference: {flips} of {} contended sweep points",
        audits.len() - 1
    );
    println!("\n# audit, {solo_label} (cache warm after first push step):");
    println!("{}", render_table(&solo.qt_audit));
    let (label, contended) = &audits[1];
    println!("# audit, {label} (neighbour evictions restore IO(E_push)):");
    println!("{}", render_table(&contended.qt_audit));
}

/// A job's audited decision sequence: `(t, mode_after)` per evaluation.
fn decisions(m: &JobMetrics) -> Vec<(u64, &'static str)> {
    m.qt_audit
        .iter()
        .map(|a| (a.superstep, a.mode_after))
        .collect()
}
