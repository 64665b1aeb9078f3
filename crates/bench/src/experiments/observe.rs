//! `observe` — one seeded hybrid PageRank run with the observability
//! sink installed.
//!
//! Produces, on demand:
//!
//! * a Chrome Trace Event JSON file (`--trace <path>`) with one track
//!   per worker plus master/control/net tracks, validated with the
//!   crate's pure-Rust JSON checker before it touches disk;
//! * a Prometheus-style text exposition (`--metrics <path>`) of the
//!   same events plus job-level gauges (modeled/wall seconds, ARQ
//!   overhead) that are *not* part of the deterministic trace;
//! * the human-readable `Q_t` decision-audit table
//!   (`--explain-switch`), one row per switching evaluation.
//!
//! Timestamps are modeled time, so two runs of this experiment emit
//! byte-identical trace files: `det_probe`'s `observe-*` rows hold every
//! mode × codec pair to that.

use crate::{buffer_for, workers_for, Scale};
use hybridgraph_algos::PageRank;
use hybridgraph_core::{run_job, JobConfig, JobResult, Mode};
use hybridgraph_graph::Dataset;
use hybridgraph_obs::{
    export_chrome_trace, export_prometheus, render_table, validate_json, ExtraMetric, TraceSink,
};
use hybridgraph_storage::CodecChoice;
use std::path::PathBuf;
use std::sync::Arc;

/// Output destinations parsed from the `repro` command line.
#[derive(Clone, Debug, Default)]
pub struct ObserveOpts {
    /// Where to write the Chrome trace JSON (skipped when `None`).
    pub trace: Option<PathBuf>,
    /// Where to write the Prometheus text exposition (skipped when
    /// `None`).
    pub metrics: Option<PathBuf>,
    /// Print the `Q_t` audit table to stdout.
    pub explain_switch: bool,
    /// On-disk codec for the run (`--codec`; defaults to none). The
    /// Chrome trace stays deterministic per codec choice: two runs with
    /// the same codec emit byte-identical files.
    pub codec: CodecChoice,
    /// Execution mode override (`--mode`; defaults to the adaptive
    /// hybrid). `async` runs the GraphHP-style pseudo-round engine and
    /// populates the classification/activity gauges below.
    pub mode: Option<Mode>,
}

/// The instrumented job itself, shared with `det_probe`'s `observe-*`
/// rows: a 5-superstep PageRank on the scaled LiveJ stand-in under
/// `mode` and `codec`, with a trace sink installed. Returns the result
/// and the sink.
pub fn traced_job(
    scale: Scale,
    mode: Mode,
    codec: CodecChoice,
) -> (JobResult<PageRank>, Arc<TraceSink>) {
    let d = Dataset::LiveJ;
    let g = scale.build(d);
    let workers = workers_for(d);
    let sink = Arc::new(TraceSink::new(workers));
    let mut cfg = JobConfig::new(mode, workers)
        .with_buffer(buffer_for(d, scale))
        .with_trace(Arc::clone(&sink))
        .with_codec(codec);
    if mode == Mode::Hybrid {
        // Start in push even where Theorem 2 would pick b-pull, so the
        // demo exercises the Q_t evaluation *and* an actual switch
        // superstep.
        cfg.initial_mode_override = Some(Mode::Push);
    }
    let r = run_job(Arc::new(PageRank::new(5)), &g, cfg).expect("job failed");
    (r, sink)
}

/// Runs the instrumented job and writes the requested artifacts.
pub fn run(scale: Scale, opts: &ObserveOpts) {
    let mode = opts.mode.unwrap_or(Mode::Hybrid);
    let (r, sink) = traced_job(scale, mode, opts.codec);
    let m = r.metrics;

    println!(
        "## observe: instrumented {} PageRank on {:?} (codec {})",
        mode.label(),
        Dataset::LiveJ,
        opts.codec.label()
    );
    println!(
        "supersteps={} switches={} qt_evaluations={} trace_events={} dropped={}",
        m.supersteps(),
        m.switches.len(),
        m.qt_audit.len(),
        sink.total_events(),
        sink.total_dropped(),
    );
    let seq: Vec<&str> = m.steps.iter().map(|s| s.kind.label()).collect();
    println!("mode sequence: {}", seq.join(" "));

    if let Some(path) = &opts.trace {
        let json = export_chrome_trace(&sink);
        validate_json(&json).expect("exported Chrome trace is not valid JSON");
        write_artifact(path, &json);
        println!("trace:   {} ({} bytes)", path.display(), json.len());
    }
    if let Some(path) = &opts.metrics {
        // Job-level, timing-driven quantities live here — never in the
        // Chrome trace, which must stay byte-identical run to run.
        let no = &m.net_overhead;
        let mut extras = vec![
            gauge("job_modeled_secs", m.modeled_total_secs()),
            gauge("job_wall_secs", m.wall_total_secs()),
            gauge("job_supersteps", m.supersteps() as f64),
            gauge("job_switches", m.switches.len() as f64),
            gauge("job_peak_memory_bytes", m.peak_memory_bytes() as f64),
            gauge("arq_retransmitted_bytes", no.retransmitted_bytes as f64),
            gauge("arq_duplicate_drops", no.duplicate_drops as f64),
            gauge("arq_dropped_frames", no.dropped_frames as f64),
            gauge("arq_delayed_frames", no.delayed_frames as f64),
            gauge("arq_acks_sent", no.acks_sent as f64),
            gauge("job_io_physical_bytes", m.total_io_bytes() as f64),
            gauge("job_io_logical_bytes", m.total_io_logical_bytes() as f64),
            gauge("job_io_compression_ratio", m.io_compression_ratio()),
            // GraphHP classification/activity gauges: zero for strict-BSP
            // runs, populated under `--mode async`.
            gauge("job_boundary_vertices", m.load.boundary_vertices as f64),
            gauge("job_interior_vertices", m.load.interior_vertices as f64),
            gauge("job_barriers_saved", m.barriers_saved() as f64),
            gauge("job_pseudo_rounds", m.total_pseudo_rounds() as f64),
            gauge(
                "job_active_fraction",
                m.steps
                    .last()
                    .map_or(0.0, |s| m.active_fraction(s.superstep)),
            ),
        ];
        // Per-tier compression ratios over the whole job: physical over
        // logical bytes summed across supersteps, one series per access
        // class. All 1.0 without a codec.
        let tier = |phys: u64, logi: u64| {
            if logi == 0 {
                1.0
            } else {
                phys as f64 / logi as f64
            }
        };
        let sums = |f: fn(&hybridgraph_storage::IoSnapshot) -> (u64, u64)| {
            m.steps
                .iter()
                .map(|s| f(&s.io))
                .fold((0, 0), |(p, l), (dp, dl)| (p + dp, l + dl))
        };
        for (name, (p, l)) in [
            (
                "seq_read",
                sums(|io| (io.seq_read_bytes, io.seq_read_logical_bytes)),
            ),
            (
                "seq_write",
                sums(|io| (io.seq_write_bytes, io.seq_write_logical_bytes)),
            ),
            (
                "rand_read",
                sums(|io| (io.rand_read_bytes, io.rand_read_logical_bytes)),
            ),
            (
                "rand_write",
                sums(|io| (io.rand_write_bytes, io.rand_write_logical_bytes)),
            ),
        ] {
            extras.push(gauge("job_codec_ratio", tier(p, l)).label("tier", name));
        }
        let text = export_prometheus(&sink, &extras);
        write_artifact(path, &text);
        println!("metrics: {} ({} bytes)", path.display(), text.len());
    }
    if opts.explain_switch {
        println!("\n{}", render_table(&m.qt_audit));
    }
}

fn gauge(name: &str, value: f64) -> ExtraMetric {
    ExtraMetric::new(name, value)
}

fn write_artifact(path: &PathBuf, contents: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create artifact directory");
        }
    }
    std::fs::write(path, contents).expect("write artifact");
}
