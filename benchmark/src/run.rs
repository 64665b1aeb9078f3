//! The two kinds of run of one workload: the measured run (tracing off,
//! end-to-end metrics) and the traced run (spans and layer probes,
//! per-layer metrics).

use crate::engine::{peak_rss_mb, run_timed, JobTimes};
use crate::metrics::Report;
use crate::probes::{self, ProbeCtx};
use crate::reference::fnv1a;
use crate::serve::{self, ClientLog, Served, Until};
use crate::spans::Recorder;
use crate::stats::{fast_high, fast_low, high, median, Samples};
use crate::workloads::{Batch, Sizing};
use hybridgraph::gateway::proto::encode_values;
use hybridgraph::prelude::*;
use std::time::Instant;

/// Times a workload is set up in a measured run.
const SETUP_ROUNDS: usize = 3;
/// Pairs of (untraced, traced) repetitions in a traced batch run.
const TRACE_PAIRS: usize = 3;
/// Client cycles per connection in the traced `serve_mixed` run (two
/// turns of the six-kind rotation), and in its untraced baseline.
const TRACE_SERVE_CYCLES: usize = 12;
/// Superstep spans kept per traced job; `sssp_hybrid_ckpt` has 1.1k.
const MAX_STEP_SPANS: usize = 2_000;

/// What a run hands to `main`.
pub struct Outcome {
    pub report: Report,
    /// Lines printed under the metric table; not metrics.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Which run of which workload.
pub struct RunSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub sizing: Sizing,
    /// Seconds the run measures.
    pub secs: f64,
    pub traced: bool,
}

impl RunSpec<'_> {
    /// Runs a batch workload, measured or traced.
    pub fn batch<B: Batch>(&self, build: impl Fn() -> B) -> (Outcome, Option<Recorder>) {
        if self.traced {
            let (outcome, rec) = trace_batch(self, build);
            (outcome, Some(rec))
        } else {
            (measure_batch(build, self.secs), None)
        }
    }

    /// Runs `serve_mixed`, measured or traced.
    pub fn serve(&self) -> (Outcome, Option<Recorder>) {
        if self.traced {
            let (outcome, rec) = trace_serve(self);
            (outcome, Some(rec))
        } else {
            (measure_serve(self.seed, self.sizing, self.secs), None)
        }
    }
}

/// Sets the workload up [`SETUP_ROUNDS`] times (each: build inputs, warm
/// up) and returns the last instance with every round's seconds.
fn set_up<W>(build: impl Fn() -> W, tear_down: impl Fn(W)) -> (W, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_ROUNDS);
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(w) = last.take() {
            tear_down(w);
        }
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up round"), secs)
}

fn build_batch<B: Batch>(build: &impl Fn() -> B) -> B {
    let w = build();
    w.warm();
    w
}

/// Mean over the job kinds that have samples of `stat(samples of kind)`.
fn mean_over_kinds(
    kinds: &[Samples],
    pick: impl Fn(&Samples) -> &Vec<f64>,
    stat: fn(&[f64]) -> f64,
) -> f64 {
    let per_kind: Vec<f64> = kinds
        .iter()
        .map(&pick)
        .filter(|v| !v.is_empty())
        .map(|v| stat(v))
        .collect();
    assert!(!per_kind.is_empty(), "no job of any kind completed");
    per_kind.iter().sum::<f64>() / per_kind.len() as f64
}

/// The end-to-end metrics: per job kind the fast decile of each
/// quantity, averaged over the kinds (batch workloads have one kind,
/// `serve_mixed` six — pooling them would report whichever kind is
/// fastest).
fn end_to_end(setup_s: &[f64], kinds: &[Samples]) -> (Report, Vec<String>) {
    let count =
        |pick: fn(&Samples) -> &Vec<f64>| kinds.iter().map(|k| pick(k).len()).sum::<usize>();
    let mut report = Report::default();
    report.set("setup_s", fast_low(setup_s), setup_s.len());
    report.set(
        "job_s",
        mean_over_kinds(kinds, |k| &k.job_s, fast_low),
        count(|k| &k.job_s),
    );
    report.set(
        "superstep_ms",
        mean_over_kinds(kinds, |k| &k.step_ms, fast_low),
        count(|k| &k.step_ms),
    );
    report.set(
        "edges_per_s",
        mean_over_kinds(kinds, |k| &k.edges_per_s, fast_high),
        count(|k| &k.edges_per_s),
    );
    let (hi, pct) = high(
        &kinds
            .iter()
            .flat_map(|k| k.job_s.iter().copied())
            .collect::<Vec<_>>(),
    );
    let notes = vec![format!(
        "job seconds, all samples (not gated: on this box they follow the host's phases): median {:.6}, p{pct:.0} {hi:.6}",
        mean_over_kinds(kinds, |k| &k.job_s, median),
    )];
    (report, notes)
}

/// Measured run of a batch workload: repeat the job for `secs` seconds.
fn measure_batch<B: Batch>(build: impl Fn() -> B, secs: f64) -> Outcome {
    let (w, setup) = set_up(|| build_batch(&build), drop);
    let edges = w.graph().num_edges() as f64;
    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(u64, Vec<<B::Program as VertexProgram>::Value>)> = None;
    let window = Instant::now();
    loop {
        attempted += 1;
        let mut last_s = 0.0;
        match w.run() {
            Ok((result, times)) => {
                last_s = times.job_s();
                samples.job_s.push(last_s);
                samples
                    .step_ms
                    .extend(times.step_secs().iter().map(|s| s * 1e3));
                samples
                    .edges_per_s
                    .push(edges * result.metrics.supersteps() as f64 / times.supersteps_s());
                let print = fnv1a(&encode_values(&result.values));
                match &first {
                    None => first = Some((print, result.values)),
                    Some((want, _)) if *want != print => {
                        eprintln!(
                            "repetition {attempted}: values differ from the first repetition's"
                        );
                        failed += 1;
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                eprintln!("repetition {attempted}: {e}");
                failed += 1;
            }
        }
        // Stop where a further job would overshoot the window by more
        // than it undershoots now.
        if window.elapsed().as_secs_f64() + last_s / 2.0 >= secs {
            break;
        }
    }
    match &first {
        Some((_, values)) => {
            let bad = w.mismatches(values);
            if bad > 0 {
                eprintln!("{bad} values disagree with the reference");
                failed = attempted;
            }
        }
        None => failed = attempted,
    }
    let (report, notes) = end_to_end(&setup, &[samples]);
    Outcome {
        report,
        notes,
        attempted,
        failed,
    }
}

/// The clients' samples merged per job kind.
fn merge_kinds(logs: &[ClientLog]) -> Vec<Samples> {
    let mut kinds = vec![Samples::default(); logs[0].kinds.len()];
    for log in logs {
        for (all, one) in kinds.iter_mut().zip(&log.kinds) {
            all.absorb(one);
        }
    }
    kinds
}

/// Operations the clients attempted, and those that failed or fetched
/// values a direct `run_job` does not produce.
fn serve_counts(served: &Served, logs: &[ClientLog]) -> (u64, u64) {
    let attempted = logs.iter().map(|l| l.attempted).sum();
    let failed =
        logs.iter().map(|l| l.failed).sum::<u64>() + serve::fetched_mismatches(served, logs);
    (attempted, failed)
}

/// Measured run of `serve_mixed`: the closed loop runs for `secs` seconds.
fn measure_serve(seed: u64, sizing: Sizing, secs: f64) -> Outcome {
    let (served, setup) = set_up(|| Served::start(seed, sizing), Served::stop);
    let logs = serve::run_clients(&served, serve::deadline_in(secs), None);
    let (attempted, failed) = serve_counts(&served, &logs);
    served.stop();
    let (report, mut notes) = end_to_end(&setup, &merge_kinds(&logs));
    let req_s: Vec<f64> = logs.iter().flat_map(|l| l.req_s.iter().copied()).collect();
    if !req_s.is_empty() {
        let (hi, pct) = high(&req_s);
        notes.push(format!(
            "status/metrics round trips under load, {} samples: median {:.1} us, p{pct:.0} {:.1} us",
            req_s.len(),
            median(&req_s) * 1e6,
            hi * 1e6
        ));
    }
    Outcome {
        report,
        notes,
        attempted,
        failed,
    }
}

/// Per-layer `core.*` metrics of one job, from its step clock and its
/// `JobMetrics`, plus the exact byte counts `storage.*` / `net.*` take
/// from the same job.
fn job_metrics<P: VertexProgram>(report: &mut Report, result: &JobResult<P>, times: &JobTimes) {
    const MB: f64 = 1e6;
    let m = &result.metrics;
    let steps = times.step_secs();
    report.set("core.load_s", times.load_s(), 1);
    report.set("core.superstep_p50_s", median(&steps), steps.len());
    report.set("core.superstep_hi_s", high(&steps).0, steps.len());
    report.set("core.collect_s", times.collect_s(), 1);
    let wall: f64 = m.steps.iter().map(|s| s.wall_secs).sum();
    let blocking: f64 = m.steps.iter().map(|s| s.blocking_secs).sum();
    report.set("core.blocking_share", blocking / wall, m.steps.len());
    report.set("core.supersteps", m.supersteps() as f64, 1);
    report.set("core.switches", m.switches.len() as f64, 1);
    report.set("core.messages_produced", m.total_messages() as f64, 1);
    report.set("core.modeled_s", m.modeled_total_secs(), 1);
    report.set(
        "core.modeled_over_wall",
        m.modeled_total_secs() / times.supersteps_s(),
        1,
    );
    let io = m.steps.iter().fold(
        Default::default(),
        |acc: hybridgraph::storage::IoSnapshot, s| acc.plus(&s.io),
    );
    report.set("storage.seq_read_mb", io.seq_read_bytes as f64 / MB, 1);
    report.set("storage.seq_write_mb", io.seq_write_bytes as f64 / MB, 1);
    report.set("storage.rand_read_mb", io.rand_read_bytes as f64 / MB, 1);
    report.set("storage.rand_write_mb", io.rand_write_bytes as f64 / MB, 1);
    report.set("storage.io_physical_mb", m.total_io_bytes() as f64 / MB, 1);
    report.set("net.remote_mb", m.total_net_bytes() as f64 / MB, 1);
    report.set(
        "net.requests",
        m.steps.iter().map(|s| s.net_requests).sum::<u64>() as f64,
        1,
    );
}

/// Spans of one finished job, from the timestamps its step clock took.
fn job_spans(rec: &Recorder, times: &JobTimes, rep: u32) {
    let job = rec.add("run_job", times.start, times.end, None, 0, rep);
    rec.add("load", times.start, times.loaded, Some(job), 0, rep);
    let mut prev = times.loaded;
    for (i, &t) in times.steps.iter().enumerate().take(MAX_STEP_SPANS) {
        rec.add(&format!("superstep {}", i + 1), prev, t, Some(job), 0, rep);
        prev = t;
    }
    if let Some(&last) = times.steps.last() {
        rec.add("collect", last, times.end, Some(job), 0, rep);
    }
}

/// Traced run of a batch workload: untraced and traced repetitions take
/// turns, the per-layer `core.*` numbers come from the fastest traced
/// one, then the probes run on the workload's graph.
fn trace_batch<B: Batch>(spec: &RunSpec<'_>, build: impl Fn() -> B) -> (Outcome, Recorder) {
    let rec = Recorder::new(spec.workload);
    let setup = rec.begin("setup", None, 0, 0);
    let w = build_batch(&build);
    rec.end(setup);
    let mut report = Report::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut best: Option<(JobResult<B::Program>, JobTimes)> = None;
    for pair in 0..TRACE_PAIRS {
        attempted += 2;
        match w.run() {
            Ok((_, times)) => plain_s.push(times.job_s()),
            Err(e) => {
                eprintln!("untraced repetition: {e}");
                failed += 1;
            }
        }
        match w.run() {
            Ok((result, times)) => {
                job_spans(&rec, &times, pair as u32);
                traced_s.push(times.job_s());
                if best.as_ref().is_none_or(|(_, b)| times.job_s() < b.job_s()) {
                    best = Some((result, times));
                }
            }
            Err(e) => {
                eprintln!("traced repetition: {e}");
                failed += 1;
            }
        }
    }
    report.set("bench.peak_rss_mb", peak_rss_mb(), 1);
    let (result, times) = best.expect("no traced repetition succeeded");
    assert!(!plain_s.is_empty(), "no untraced repetition succeeded");
    if w.mismatches(&result.values) > 0 {
        eprintln!("traced repetition disagrees with the reference");
        failed += 1;
    }
    job_metrics(&mut report, &result, &times);
    report.set(
        "bench.trace_overhead",
        fast_low(&traced_s) / fast_low(&plain_s),
        traced_s.len() + plain_s.len(),
    );

    let mut ctx = ProbeCtx::new(w.graph(), w.config(), spec, &rec, &mut report);
    probes::run_all(&mut ctx);
    (
        Outcome {
            report,
            notes: Vec::new(),
            attempted,
            failed,
        },
        rec,
    )
}

/// Traced run of `serve_mixed`: a short closed loop without and with
/// spans, then the probes on its LiveJ graph with a direct run of the
/// rotation's first job kind as the reference job.
fn trace_serve(spec: &RunSpec<'_>) -> (Outcome, Recorder) {
    let rec = Recorder::new(spec.workload);
    let setup = rec.begin("setup", None, 0, 0);
    let served = Served::start(spec.seed, spec.sizing);
    rec.end(setup);
    let mut report = Report::default();

    let until = Until::Cycles(TRACE_SERVE_CYCLES);
    let plain_logs = serve::run_clients(&served, until, None);
    let traced_logs = serve::run_clients(&served, until, Some(&rec));
    report.set("bench.peak_rss_mb", peak_rss_mb(), 1);
    let (plain, traced) = (merge_kinds(&plain_logs), merge_kinds(&traced_logs));
    let logs: Vec<ClientLog> = plain_logs.into_iter().chain(traced_logs).collect();
    let (attempted, failed) = serve_counts(&served, &logs);
    let job_s = |kinds: &[Samples]| mean_over_kinds(kinds, |k| &k.job_s, fast_low);
    report.set(
        "bench.trace_overhead",
        job_s(&traced) / job_s(&plain),
        2 * TRACE_SERVE_CYCLES * serve::CLIENTS,
    );

    let (program, cfg) = served.reference_job();
    let (result, times) =
        run_timed(program, &served.graph_a, cfg.clone()).expect("reference job failed");
    job_spans(&rec, &times, TRACE_SERVE_CYCLES as u32);
    job_metrics(&mut report, &result, &times);

    let mut ctx = ProbeCtx::new(&served.graph_a, cfg, spec, &rec, &mut report);
    probes::run_all(&mut ctx);
    served.stop();
    let outcome = Outcome {
        report,
        notes: Vec::new(),
        attempted,
        failed,
    };
    (outcome, rec)
}
