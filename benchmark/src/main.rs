//! Wall-clock benchmark of the hybridgraph engine.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//! once — measured (end-to-end metrics) or traced (per-layer metrics) —
//! and prints one JSON object as the last line of standard output; this
//! is the form `BENCHMARK.json` names. Without `--workload` every
//! workload runs both ways, each in a fresh child process so that peak
//! memory is per workload. See `README.md`.

mod engine;
mod metrics;
mod probes;
mod reference;
mod run;
mod serve;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, ParsedResult, END_TO_END, WORKLOADS};
use run::{Outcome, RunSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{PagerankJob, Sizing, SsspJob};

const USAGE: &str = "\
usage: hybridgraph-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                             [--quick] [--repeat-check] [--out DIR] [--print-benchmark-json]
  --workload NAME   one of pagerank_push, pagerank_bpull_bv, sssp_hybrid_ckpt, serve_mixed;
                    without it every workload runs, measured then traced
  --seed N          workload seed (default 1); the same seed gives the same inputs
  --seconds S       seconds a run measures (default 20, as in BENCHMARK.json)
  --trace 0|1       0: tracing off, end-to-end metrics; 1: spans and probes, per-layer metrics
  --quick           tiny inputs for smoke runs; never a source of reported numbers
  --repeat-check    run the measured set twice and fail if a metric moved by more than its bound
  --out DIR         where trace files go (default benchmark/out)
  --print-benchmark-json   print the text of BENCHMARK.json and exit";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    repeat_check: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: None,
        seed: metrics::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        quick: false,
        repeat_check: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(a))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(args)) => match &args.workload {
            Some(name) => run_one(name, &args),
            None => run_all(&args),
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// What the numbers depend on besides the code.
fn print_environment(args: &Args) {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("rustc unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "seed {}  seconds {}  nproc {}  engine workers {}  serve clients {}  {}{}",
        args.seed,
        args.seconds,
        nproc,
        workloads::WORKERS,
        serve::CLIENTS,
        rustc,
        if args.quick {
            "  QUICK (smoke sizes)"
        } else {
            ""
        }
    );
}

/// One workload, one run, in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    print_environment(args);
    let spec = RunSpec {
        workload: name,
        seed: args.seed,
        sizing: Sizing { quick: args.quick },
        secs: args.seconds,
        traced: args.traced,
    };
    let (seed, sizing) = (spec.seed, spec.sizing);
    let (outcome, recorder) = match name {
        "pagerank_push" => spec.batch(|| PagerankJob::push(seed, sizing)),
        "pagerank_bpull_bv" => spec.batch(|| PagerankJob::bpull_bv(seed, sizing)),
        "sssp_hybrid_ckpt" => spec.batch(|| SsspJob::hybrid_ckpt(seed, sizing)),
        "serve_mixed" => spec.serve(),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let Outcome {
        report,
        notes,
        attempted,
        failed,
    } = outcome;
    if let Err(e) = report.check_complete(args.traced) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{name} ({}):",
        if args.traced {
            "traced, per-layer"
        } else {
            "measured, end-to-end"
        }
    );
    print!("{}", report.table());
    for note in &notes {
        println!("  {note}");
    }
    println!("  operations attempted {attempted}, failed {failed}");
    if let Some(rec) = recorder {
        match write_trace(&args.out, name, &rec.to_chrome_json()) {
            Ok(path) => println!("  {} spans -> {}", rec.len(), path.display()),
            Err(e) => {
                eprintln!("error: trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        metrics::result_line(failed == 0, attempted, failed, &report)
    );
    ExitCode::SUCCESS
}

fn write_trace(dir: &Path, workload: &str, json: &str) -> Result<PathBuf, String> {
    hybridgraph::obs::validate_json(json).map_err(|e| format!("invalid JSON: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs one workload in a child process, echoes what it prints, and
/// returns its parsed result line.
fn child(name: &str, traced: bool, args: &Args) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let last = text.lines().last().unwrap_or("");
    metrics::parse_result_line(last).ok_or(format!("{name}: no result line"))
}

/// Every workload, measured then traced (or, with `--repeat-check`, the
/// measured set twice).
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut sets: Vec<Vec<(String, f64)>> = Vec::new();
    let passes: &[bool] = if args.repeat_check {
        &[false, false]
    } else {
        &[false, true]
    };
    for &traced in passes {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            match child(w.name, traced, args) {
                Ok(result) => {
                    if !result.correct {
                        eprintln!("{}: {} operations failed", w.name, result.failed);
                        ok = false;
                    }
                    set.extend(
                        result
                            .values
                            .into_iter()
                            .map(|(m, v)| (format!("{}/{m}", w.name), v)),
                    );
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
        sets.push(set);
    }
    if args.repeat_check && ok {
        ok = repeat_check(&sets[0], &sets[1]);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// True if no end-to-end metric got worse from the first set to the
/// second by more than its bound.
fn repeat_check(first: &[(String, f64)], second: &[(String, f64)]) -> bool {
    let mut ok = true;
    println!("repeat check (second set against first, share of the first):");
    for ((key, a), (_, b)) in first.iter().zip(second) {
        let metric = key.rsplit('/').next().unwrap_or(key);
        let m = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .expect("declared metric");
        let worse = match m.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let verdict = if worse > m.bound {
            "WORSE THAN BOUND"
        } else {
            "ok"
        };
        println!(
            "  {key:<36} {a:>14.6} {b:>14.6} {:>+7.1}%  bound {:>4.0}%  {verdict}",
            worse * 100.0,
            m.bound * 100.0
        );
        ok &= worse <= m.bound;
    }
    ok
}
