//! Probes of `core`, `algos`, `graph` and `obs`: whole small jobs.

use super::ProbeCtx;
use crate::engine::run_timed;
use crate::reference::PageRankState;
use crate::stats::fast_low;
use crate::workloads::{livej, PAGERANK_STEPS, WORKERS};
use hybridgraph::obs::TraceShard;
use hybridgraph::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The mode sweep runs on LiveJ at this scale whatever the workload, so
/// its rows compare across workloads and its seven jobs fit the run.
const SWEEP_DENOM: usize = 200;
/// Vertices of the chain the barrier probe walks: one active vertex per
/// superstep, so a superstep costs what a barrier costs.
const CHAIN_VERTICES: usize = 300;
/// Pairs of (untraced, traced) jobs behind `obs.trace_on_overhead`.
const TRACE_PAIRS: usize = 2;
/// Spans per timed call of the span-record probe.
const SPANS_PER_CALL: usize = 10_000;

const SWEEP: [(Mode, &str); 6] = [
    (Mode::Push, "core.sweep_push_superstep_s"),
    (Mode::PushM, "core.sweep_pushm_superstep_s"),
    (Mode::Pull, "core.sweep_pull_superstep_s"),
    (Mode::BPull, "core.sweep_bpull_superstep_s"),
    (Mode::Hybrid, "core.sweep_hybrid_superstep_s"),
    (Mode::Async, "core.sweep_async_superstep_s"),
];

pub fn run(ctx: &mut ProbeCtx<'_>) {
    ctx.span("core.barrier", barrier);
    let sweep_graph = ctx.span("graph.gen", |ctx| {
        let t = Instant::now();
        let g = livej(ctx.sizing.denom(SWEEP_DENOM), ctx.seed);
        ctx.report.set(
            "graph.gen_medges_s",
            g.num_edges() as f64 / 1e6 / t.elapsed().as_secs_f64(),
            1,
        );
        g
    });
    let best_step_s = ctx.span("core.sweep", |ctx| sweep(ctx, &sweep_graph));
    ctx.span("algos.ref_iter", |ctx| {
        let mut state = PageRankState::new(&sweep_graph);
        let secs = ctx.sample(|| {
            std::hint::black_box(state.iterate(&sweep_graph));
        });
        ctx.latency("algos.ref_iter_s", 1.0, 1.0, &secs);
        ctx.report
            .set("core.overhead_x", best_step_s / fast_low(&secs), secs.len());
    });
    ctx.span("obs.trace_on", |ctx| trace_on_overhead(ctx, &sweep_graph));
    ctx.span("obs.span_record", |ctx| {
        let shard = TraceShard::new(0, 4096);
        let secs = ctx.sample(|| {
            for _ in 0..SPANS_PER_CALL {
                shard.span("probe", 1, Vec::new());
            }
        });
        ctx.latency("obs.span_record_ns", 1e9, SPANS_PER_CALL as f64, &secs);
    });
}

/// `core.barrier_fixed_us`: the fast-decile superstep of SSSP down a chain,
/// under the workload's own configuration — so checkpoint, message-log
/// and codec cost per barrier are in it where the workload pays them.
fn barrier(ctx: &mut ProbeCtx<'_>) {
    let mut b = GraphBuilder::new(CHAIN_VERTICES);
    for v in 1..CHAIN_VERTICES as u32 {
        b.add_weighted(VertexId(v - 1), VertexId(v), 1.0);
    }
    let chain = b.build();
    let (_, times) = run_timed(Arc::new(Sssp::new(VertexId(0))), &chain, ctx.cfg.clone())
        .expect("barrier probe job failed");
    let steps = times.step_secs();
    ctx.report
        .set("core.barrier_fixed_us", fast_low(&steps) * 1e6, steps.len());
}

/// One PageRank job per mode with ample memory; returns the fastest
/// mode's seconds per superstep.
fn sweep(ctx: &mut ProbeCtx<'_>, graph: &Graph) -> f64 {
    let job = |mode, workers| {
        let program = Arc::new(PageRank::new(PAGERANK_STEPS));
        let (result, times) =
            run_timed(program, graph, JobConfig::new(mode, workers)).expect("sweep job failed");
        (
            times.supersteps_s(),
            result.metrics.modeled_total_secs(),
            result.metrics.supersteps(),
        )
    };
    let mut rows = Vec::new();
    for (mode, name) in SWEEP {
        let (wall, modeled, steps) = job(mode, WORKERS);
        ctx.report.set(name, wall / steps as f64, steps as usize);
        rows.push((wall, modeled, wall / steps as f64));
    }
    let (wall, _, steps) = job(Mode::BPull, 1);
    ctx.report.set(
        "core.w1_bpull_superstep_s",
        wall / steps as f64,
        steps as usize,
    );

    // Pairs of modes the cost model and the stopwatch order differently.
    let mut inversions = 0;
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            if (a.0 < b.0) != (a.1 < b.1) {
                inversions += 1;
            }
        }
    }
    ctx.report.set(
        "core.mode_rank_inversions",
        f64::from(inversions),
        rows.len() * (rows.len() - 1) / 2,
    );
    rows.iter().map(|r| r.2).fold(f64::INFINITY, f64::min)
}

/// `obs.trace_on_overhead`: the same push job with and without the
/// engine's own `TraceSink`, alternating.
fn trace_on_overhead(ctx: &mut ProbeCtx<'_>, graph: &Graph) {
    let job = |traced: bool| {
        let mut cfg = JobConfig::new(Mode::Push, WORKERS);
        if traced {
            cfg = cfg.with_trace(Arc::new(TraceSink::new(WORKERS)));
        }
        let (_, times) = run_timed(Arc::new(PageRank::new(PAGERANK_STEPS)), graph, cfg)
            .expect("trace-overhead job failed");
        times.job_s()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        off.push(job(false));
        on.push(job(true));
    }
    ctx.report.set(
        "obs.trace_on_overhead",
        fast_low(&on) / fast_low(&off),
        off.len() + on.len(),
    );
}
