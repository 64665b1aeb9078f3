//! `graphhp` — GraphHP-style hybrid sync/async execution vs strict BSP.
//!
//! Two headline claims, both asserted:
//!
//! 1. **PageRank barrier cut.** On an id-localized RMAT graph (community
//!    structure in the id space, the partition-friendly shape GraphHP's
//!    pseudo-rounds exploit) tolerance-terminated PageRank under
//!    `Mode::Async` reaches the same fixed point as strict push — every
//!    per-vertex gap within 100× the 1e-9 tolerance — while crossing at
//!    least 30% fewer global barriers: interior vertices iterate in
//!    place between barriers, so each superstep makes several rounds of
//!    progress.
//!
//! 2. **LPA oscillation breaking.** Synchronous LPA oscillates on
//!    strongly clustered graphs (two communities keep swapping labels in
//!    lock-step) and burns its whole superstep budget; the async
//!    engine's in-block Gauss–Seidel order breaks the symmetry and
//!    converges to a genuine fixed point (final residual 0) in a handful
//!    of barriers. Labels may legitimately differ at the oscillating
//!    vertices — both runs end at valid fixed points — so the report
//!    carries the agreement fraction instead of asserting equality.
//!
//! The graphs are generated, seeded and fixed-size, so the table `repro`
//! writes to `BENCH_graphhp.json` is byte-identical run to run; CI
//! re-runs the experiment and compares the committed report byte for
//! byte.

use crate::report::{job_cells, Cell, Report, Table, JOB_COLUMNS};
use hybridgraph_algos::{Lpa, PageRank};
use hybridgraph_core::{run_job, JobConfig, JobMetrics, Mode};
use hybridgraph_graph::{gen, Graph};
use std::sync::Arc;

/// PageRank convergence tolerance.
const EPS: f64 = 1e-9;
/// PageRank superstep cap (strict BSP needs ~90 supersteps at `EPS`).
const PR_CAP: u64 = 300;
/// LPA superstep cap (synchronous LPA oscillates and hits it).
const LPA_CAP: u64 = 200;
/// Workers for every run.
const WORKERS: usize = 2;

/// The localized RMAT the PageRank comparison runs on: RMAT skew with
/// 90% of edges rewired into a ±60-id window.
fn pagerank_graph() -> Graph {
    gen::localize(
        &gen::rmat(1024, 8192, gen::RmatParams::default(), 11),
        0.9,
        60,
        7,
    )
}

/// The strongly clustered variant LPA oscillates on: 97% of edges
/// rewired into a tight ±30-id window.
fn lpa_graph() -> Graph {
    gen::localize(
        &gen::rmat(1024, 8192, gen::RmatParams::default(), 11),
        0.97,
        30,
        7,
    )
}

/// Runs the comparison and adds its table.
pub fn run(rep: &mut Report) {
    println!(
        "## graphhp: hybrid sync/async pseudo-rounds vs strict BSP \
         (localized RMAT, {WORKERS} workers)"
    );

    let mut columns = vec![
        "algorithm",
        "mode",
        "barriers",
        "saved",
        "pseudo-rounds",
        "interior",
        "converged",
    ];
    columns.extend(JOB_COLUMNS);
    columns.extend([
        "boundary",
        "final active",
        "max value gap",
        "label agreement",
    ]);
    let mut t = Table::new(
        "global barriers to convergence (async must cut ≥30%)",
        &columns,
    );

    // PageRank: same fixed point, ≥30% fewer barriers.
    let g = pagerank_graph();
    let pr = PageRank::until(EPS, PR_CAP);
    let bsp = run_job(
        Arc::new(pr.clone()),
        &g,
        JobConfig::new(Mode::Push, WORKERS),
    )
    .unwrap();
    let asy = run_job(Arc::new(pr), &g, JobConfig::new(Mode::Async, WORKERS)).unwrap();
    let max_gap = asy
        .values
        .iter()
        .zip(&bsp.values)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        max_gap <= 100.0 * EPS,
        "async PageRank drifted from the BSP fixed point: gap {max_gap}"
    );
    let (bsp_barriers, asy_barriers) = (barriers(&bsp.metrics), barriers(&asy.metrics));
    assert!(
        asy_barriers * 10 <= bsp_barriers * 7,
        "async must cut ≥30% of PageRank barriers: {asy_barriers} vs {bsp_barriers}"
    );
    let none = || Cell::text("-");
    t.row(row(
        "PageRank",
        "push",
        &bsp.metrics,
        true,
        [none(), none()],
    ));
    t.row(row(
        "PageRank",
        "async",
        &asy.metrics,
        true,
        [Cell::Sci(max_gap, 3), none()],
    ));
    println!(
        "PageRank(eps={EPS}): push {bsp_barriers} barriers, async {asy_barriers} \
         ({:.1}% cut), max value gap {max_gap:.3e}",
        cut_pct(bsp_barriers, asy_barriers)
    );

    // LPA: synchronous oscillation vs async fixed point.
    let g = lpa_graph();
    let lpa = Lpa::converging(LPA_CAP);
    let bsp = run_job(
        Arc::new(lpa.clone()),
        &g,
        JobConfig::new(Mode::Push, WORKERS),
    )
    .unwrap();
    let asy = run_job(Arc::new(lpa), &g, JobConfig::new(Mode::Async, WORKERS)).unwrap();
    let asy_fixed = asy.metrics.steps.last().unwrap().max_residual == 0.0;
    assert!(asy_fixed, "async LPA must end at a fixed point");
    let (bsp_barriers, asy_barriers) = (barriers(&bsp.metrics), barriers(&asy.metrics));
    assert!(
        asy_barriers * 10 <= bsp_barriers * 7,
        "async must cut ≥30% of LPA barriers: {asy_barriers} vs {bsp_barriers}"
    );
    let agree = asy
        .values
        .iter()
        .zip(&bsp.values)
        .filter(|(a, b)| a == b)
        .count();
    let bsp_fixed = bsp.metrics.steps.last().unwrap().max_residual == 0.0;
    let agreement = agree as f64 / asy.values.len() as f64;
    t.row(row(
        "LPA",
        "push",
        &bsp.metrics,
        bsp_fixed,
        [none(), none()],
    ));
    t.row(row(
        "LPA",
        "async",
        &asy.metrics,
        asy_fixed,
        [none(), Cell::Fixed(agreement, 3)],
    ));
    println!(
        "LPA: push {} barriers ({}), async {asy_barriers} (fixed point), \
         labels agree on {agree}/{} vertices",
        bsp_barriers,
        if bsp_fixed {
            "fixed point"
        } else {
            "oscillating at cap"
        },
        asy.values.len()
    );

    rep.add(t);
}

fn barriers(m: &JobMetrics) -> u64 {
    m.steps.len() as u64
}

fn cut_pct(bsp: u64, asy: u64) -> f64 {
    100.0 * (bsp - asy) as f64 / bsp as f64
}

/// One job's row; `vs_push` is its max value gap and label agreement
/// against the push run.
fn row(algo: &str, mode: &str, m: &JobMetrics, converged: bool, vs_push: [Cell; 2]) -> Vec<Cell> {
    let last = m.steps.last().map_or(0, |s| s.superstep);
    let mut cells = vec![
        Cell::text(algo),
        Cell::text(mode),
        Cell::Count(barriers(m)),
        Cell::Count(m.barriers_saved()),
        Cell::Count(m.total_pseudo_rounds()),
        Cell::Count(m.load.interior_vertices),
        Cell::text(if converged { "yes" } else { "NO" }),
    ];
    cells.extend(job_cells(m));
    cells.extend([
        Cell::Count(m.load.boundary_vertices),
        Cell::Fixed(m.active_fraction(last), 3),
    ]);
    cells.extend(vs_push);
    cells
}
