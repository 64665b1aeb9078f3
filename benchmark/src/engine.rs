//! Timing a `run_job` call from outside: wall clock around the call, and
//! a `ProgressSink` that timestamps `loaded` and every superstep barrier
//! on the engine's master thread.

use hybridgraph::core::ProgressSink;
use hybridgraph::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `ProgressSink` the benchmark installs.
#[derive(Debug, Default)]
struct StepClock {
    marks: Mutex<(Option<Instant>, Vec<Instant>)>,
}

impl ProgressSink for StepClock {
    fn loaded(&self, _modeled_secs: f64) {
        self.marks.lock().expect("clock poisoned").0 = Some(Instant::now());
    }

    fn superstep(&self, _superstep: u64, _mode: Mode, _modeled_secs: f64) {
        self.marks
            .lock()
            .expect("clock poisoned")
            .1
            .push(Instant::now());
    }
}

/// When one job started, finished loading, passed each barrier and
/// returned.
#[derive(Clone, Debug)]
pub struct JobTimes {
    pub start: Instant,
    pub loaded: Instant,
    pub steps: Vec<Instant>,
    pub end: Instant,
}

impl JobTimes {
    /// Wall seconds of the whole call.
    pub fn job_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Call start → graph loaded and partitioned.
    pub fn load_s(&self) -> f64 {
        (self.loaded - self.start).as_secs_f64()
    }

    /// Loaded → last barrier.
    pub fn supersteps_s(&self) -> f64 {
        self.steps
            .last()
            .map_or(0.0, |t| (*t - self.loaded).as_secs_f64())
    }

    /// Last barrier → values collected and returned.
    pub fn collect_s(&self) -> f64 {
        (self.end - *self.steps.last().unwrap_or(&self.loaded)).as_secs_f64()
    }

    /// Wall seconds of each superstep, barrier to barrier.
    pub fn step_secs(&self) -> Vec<f64> {
        let mut prev = self.loaded;
        self.steps
            .iter()
            .map(|&t| {
                let d = (t - prev).as_secs_f64();
                prev = t;
                d
            })
            .collect()
    }
}

/// Runs one job with the step clock installed.
pub fn run_timed<P: VertexProgram>(
    program: Arc<P>,
    graph: &Graph,
    cfg: JobConfig,
) -> Result<(JobResult<P>, JobTimes), JobError> {
    let clock = Arc::new(StepClock::default());
    let cfg = cfg.with_progress(Arc::clone(&clock) as Arc<dyn ProgressSink>);
    let start = Instant::now();
    let result = run_job(program, graph, cfg)?;
    let end = Instant::now();
    let (loaded, steps) = std::mem::take(&mut *clock.marks.lock().expect("clock poisoned"));
    let times = JobTimes {
        start,
        loaded: loaded.unwrap_or(start),
        steps,
        end,
    };
    Ok((result, times))
}

/// `VmHWM` of this process in MB (peak resident set so far).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
