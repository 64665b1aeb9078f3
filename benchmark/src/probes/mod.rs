//! Layer probes of the traced run: each times calls into one layer's
//! public functions, on the workload's own graph where the data matters
//! and on small fixed-size inputs where only fixed cost does.
//!
//! Every workload's traced run executes every probe, so the per-layer
//! table is the same for all four and differs only in the numbers.
//!
//! Only entries expected to survive ROADMAP items 3–4 are called (see
//! "API surface rule" in `README.md`).

mod codec;
mod engine;
mod net;
mod service;
mod storage;

use crate::metrics::Report;
use crate::run::RunSpec;
use crate::spans::Recorder;
use crate::stats::fast_low;
use crate::workloads::Sizing;
use hybridgraph::prelude::*;
use std::time::Instant;

/// Share of `--seconds` one timed probe may loop for (0.2 s of 20 s).
const PROBE_SHARE: f64 = 0.01;
/// Budgets a probe that times whole jobs gets.
const JOB_BUDGET_FACTOR: f64 = 4.0;
/// Calls every timed probe makes at least.
const MIN_CALLS: usize = 3;

pub(crate) const MB: f64 = 1e6;
/// Vblocks per worker of the layout the storage and codec probes use.
const BLOCKS_PER_WORKER: usize = 4;

/// What the probes work on and where their results go.
pub struct ProbeCtx<'a> {
    /// The workload's own graph.
    pub graph: &'a Graph,
    /// The workload's reference job configuration: its mode, codec,
    /// buffer, checkpoint and logging switches.
    pub cfg: JobConfig,
    pub seed: u64,
    pub sizing: Sizing,
    /// Seconds one timed probe loops for.
    budget: f64,
    rec: &'a Recorder,
    pub report: &'a mut Report,
    probes_run: u32,
}

impl<'a> ProbeCtx<'a> {
    pub fn new(
        graph: &'a Graph,
        cfg: JobConfig,
        spec: &RunSpec<'_>,
        rec: &'a Recorder,
        report: &'a mut Report,
    ) -> ProbeCtx<'a> {
        ProbeCtx {
            graph,
            cfg,
            seed: spec.seed,
            sizing: spec.sizing,
            budget: spec.secs * PROBE_SHARE,
            rec,
            report,
            probes_run: 0,
        }
    }

    /// The codec the workload stores extents with; the probes that need a
    /// real codec fall back to `gaps` for codec-less workloads.
    pub fn codec_or_gaps(&self) -> CodecChoice {
        if self.cfg.codec.is_none() {
            CodecChoice::Gaps
        } else {
            self.cfg.codec
        }
    }

    /// Runs `body` inside one span named `name` on the main track.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> T) -> T {
        self.probes_run += 1;
        let id = self.rec.begin(name, None, 0, self.probes_run);
        let out = body(self);
        self.rec.end(id);
        out
    }

    /// Calls `round` until the probe's budget is spent, at least
    /// [`MIN_CALLS`] times.
    pub fn repeat(&self, round: impl FnMut()) {
        self.repeat_for(self.budget, round);
    }

    /// [`ProbeCtx::repeat`] for rounds that run a whole small job: tens of
    /// milliseconds each, so they get [`JOB_BUDGET_FACTOR`] budgets to
    /// collect a usable number of samples.
    pub fn repeat_jobs(&self, round: impl FnMut()) {
        self.repeat_for(self.budget * JOB_BUDGET_FACTOR, round);
    }

    fn repeat_for(&self, budget: f64, mut round: impl FnMut()) {
        let started = Instant::now();
        let mut calls = 0;
        while calls < MIN_CALLS || started.elapsed().as_secs_f64() < budget {
            round();
            calls += 1;
        }
    }

    /// Calls `op` on a fresh `prepare()` result for the probe's budget and
    /// returns the seconds of each call; `prepare` is not timed.
    pub fn sample_with<I>(
        &self,
        mut prepare: impl FnMut() -> I,
        mut op: impl FnMut(I),
    ) -> Vec<f64> {
        let mut secs = Vec::new();
        self.repeat(|| {
            let input = prepare();
            let t = Instant::now();
            op(input);
            secs.push(t.elapsed().as_secs_f64());
        });
        secs
    }

    /// [`ProbeCtx::sample_with`] for calls that need no fresh input.
    pub fn sample(&self, mut op: impl FnMut()) -> Vec<f64> {
        self.sample_with(|| (), |()| op())
    }

    /// Reports `units / fast(secs)` — a throughput, from the fast-decile
    /// call (see `stats`: the box has a slow mode the code is not to blame
    /// for).
    pub fn rate(&mut self, name: &'static str, units: f64, secs: &[f64]) {
        self.report.set(name, units / fast_low(secs), secs.len());
    }

    /// Reports `fast(secs) × scale / calls_per_sample` — a latency.
    pub fn latency(&mut self, name: &'static str, scale: f64, calls_per_sample: f64, secs: &[f64]) {
        self.report
            .set(name, fast_low(secs) * scale / calls_per_sample, secs.len());
    }
}

/// Runs every probe and reports how long they took together.
pub fn run_all(ctx: &mut ProbeCtx<'_>) {
    let started = Instant::now();
    engine::run(ctx);
    storage::run(ctx);
    codec::run(ctx);
    net::run(ctx);
    service::run(ctx);
    ctx.report.set(
        "bench.probes_s",
        started.elapsed().as_secs_f64(),
        ctx.probes_run as usize,
    );
}
