//! The figure/table reproduction harness.
//!
//! ```text
//! repro [--scale N] [--codec C] [--mode M] [--trace F] [--metrics F] \
//!       [--explain-switch] <experiment> [<experiment> ...]
//! repro all
//! repro serve [--addr HOST:PORT] [--engines N] [--seed S]
//! repro client <addr> <command> [flags]
//! ```
//!
//! `repro --help` lists the experiments, from the two tables
//! ([`PAPER`], [`EXPERIMENTS`]) that also drive dispatch and `all`.
//!
//! `serve` / `client` are the network front door: `serve` runs a TCP
//! gateway over an [`EnginePool`](hybridgraph_service::EnginePool),
//! `client` speaks the wire protocol to it (see
//! [`hybridgraph_bench::gwcli`]).
//!
//! `--scale N` generates datasets at 1/N of the paper's sizes
//! (default 2000). Modeled runtimes are projected back by ×N.
//!
//! `--codec C` (none | gaps | bv) sets the on-disk codec
//! for the `observe` experiment; `io_compress` sweeps all of them
//! regardless.
//!
//! `--mode M` (push | pushM | pull | b-pull | hybrid | async) pins the
//! `observe` experiment to one execution mode instead of the default
//! adaptive hybrid; `async` demonstrates the GraphHP-style pseudo-round
//! engine and its extra gauges in the Prometheus exposition.
//!
//! `--trace F` / `--metrics F` / `--explain-switch` apply to the
//! `observe` experiment: they write a Chrome Trace Event JSON (open in
//! Perfetto / `chrome://tracing`), a Prometheus text exposition, and
//! print the per-superstep `Q_t` decision audit table.

use hybridgraph_bench::experiments as exp;
use hybridgraph_bench::report::Report;
use hybridgraph_bench::Scale;
use std::path::PathBuf;
use std::time::Instant;

/// An experiment's entry point.
type Run = fn(Scale, &exp::observe::ObserveOpts, &mut Report);

/// The paper's experiments, which `paper` runs into one report: the names
/// each answers to (the first is the one the usage line shows), and its
/// entry point.
const PAPER: &[(&[&str], Run)] = &[
    (&["datasets"], |s, _, r| exp::datasets::run(s, r)),
    (&["fig2"], |s, _, r| exp::fig2::run(s, r)),
    (&["fig7"], |s, _, r| exp::overall::fig7(s, r)),
    (&["fig8"], |s, _, r| exp::overall::fig8(s, r)),
    (&["fig9"], |s, _, r| exp::overall::fig9(s, r)),
    (&["fig10"], |s, _, r| exp::overall::fig10(s, r)),
    (&["fig11"], |s, _, r| exp::prediction::fig11(s, r)),
    (&["fig12"], |s, _, r| exp::prediction::fig12(s, r)),
    (&["fig13"], |s, _, r| exp::prediction::fig13(s, r)),
    (&["fig14"], |s, _, r| exp::fig14::run(s, r)),
    (&["fig15"], |s, _, r| exp::fig15::run(s, r)),
    (&["fig16"], |s, _, r| exp::fig16::run(s, r)),
    (&["fig17"], |s, _, r| exp::fig17_18::fig17(s, r)),
    (&["fig18"], |s, _, r| exp::fig17_18::fig18(s, r)),
    (&["table5"], |s, _, r| exp::table5::run(s, r)),
    (&["vblocks", "fig23", "fig24", "fig25"], |s, _, r| {
        exp::vblocks::run(s, r)
    }),
    (&["fig26"], |s, _, r| exp::fig26::run(s, r)),
    (&["theorems", "thm1", "thm2"], |s, _, r| {
        exp::theorems::run(s, r)
    }),
];

/// Every other experiment, as in [`PAPER`]; `all` runs these.
const EXPERIMENTS: &[(&[&str], Run)] = &[
    (&["paper"], |s, _, r| exp::paper(s, r)),
    (&["trace"], |s, _, r| exp::trace::run(s, r)),
    (&["ablation"], |s, _, r| exp::ablation::run(s, r)),
    (&["observe"], |s, o, _| exp::observe::run(s, o)),
    (&["io_compress"], |s, _, r| exp::io_compress::run(s, r)),
    (&["billion"], |s, _, r| exp::billion::run(s, r)),
    (&["multi_tenant"], |s, _, r| exp::multi_tenant::run(s, r)),
    (&["service_restart"], |s, _, r| {
        exp::service_restart::run(s, r)
    }),
    (&["graphhp"], |_, _, r| exp::graphhp::run(r)),
    (&["gateway"], |s, _, r| exp::gateway::run(s, r)),
];

/// The experiments whose report `repro` writes to `BENCH_<name>.json`.
const REPORTS: &[&str] = &[
    "paper",
    "io_compress",
    "multi_tenant",
    "service_restart",
    "graphhp",
    "gateway",
];

/// The entry point `name` answers to, if any.
fn find(name: &str) -> Option<Run> {
    PAPER
        .iter()
        .chain(EXPERIMENTS)
        .find(|(names, _)| names.contains(&name))
        .map(|&(_, run)| run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The gateway CLI pair dispatches before experiment parsing: its
    // flags (`--addr`, `--engines`, ...) are not experiment flags.
    match args.first().map(String::as_str) {
        Some("serve") => {
            if let Err(e) = hybridgraph_bench::gwcli::serve(&args[1..]) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            return;
        }
        Some("client") => {
            if let Err(e) = hybridgraph_bench::gwcli::client(&args[1..]) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            return;
        }
        _ => {}
    }
    let mut scale = Scale::default_scale();
    let mut observe = exp::observe::ObserveOpts::default();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage("missing --scale value"));
                scale = Scale(n.max(1));
            }
            "--trace" => {
                let p = it.next().unwrap_or_else(|| usage("missing --trace path"));
                observe.trace = Some(PathBuf::from(p));
            }
            "--metrics" => {
                let p = it.next().unwrap_or_else(|| usage("missing --metrics path"));
                observe.metrics = Some(PathBuf::from(p));
            }
            "--codec" => {
                let c = it.next().unwrap_or_else(|| usage("missing --codec value"));
                // `CodecChoice::from_str` already enumerates every valid
                // choice in its error; surface it verbatim.
                observe.codec = c.parse().unwrap_or_else(|e: String| usage(&e));
            }
            "--mode" => {
                let m = it.next().unwrap_or_else(|| usage("missing --mode value"));
                // `Mode::from_str` already enumerates every valid mode in
                // its error; surface it verbatim.
                observe.mode = Some(m.parse().unwrap_or_else(|e: String| usage(&e)));
            }
            "--explain-switch" => observe.explain_switch = true,
            "all" => targets.extend(EXPERIMENTS.iter().map(|(names, _)| names[0].to_string())),
            "--help" | "-h" => usage(""),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no experiment given");
    }
    println!("# HybridGraph reproduction harness — scale 1/{}\n", scale.0);
    for t in targets {
        let run = find(&t).unwrap_or_else(|| usage(&format!("unknown experiment '{t}'")));
        let started = Instant::now();
        let mut report = Report::default();
        run(scale, &observe, &mut report);
        if REPORTS.contains(&t.as_str()) {
            report.write(&t, scale);
        }
        eprintln!("[{t}: {:.1}s]", started.elapsed().as_secs_f64());
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--scale N] [--codec C] [--mode M] [--trace F] \
         [--metrics F] [--explain-switch] <experiment> [...] | all"
    );
    let names: Vec<String> = PAPER
        .iter()
        .chain(EXPERIMENTS)
        .map(|(names, _)| names.join("|"))
        .collect();
    eprintln!("experiments: {}", names.join(", "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use hybridgraph_core::Mode;
    use hybridgraph_storage::CodecChoice;
    use std::path::Path;

    /// The `--mode` flag surfaces `Mode::from_str`'s error verbatim, so
    /// a typo must name the offender and list every valid mode.
    #[test]
    fn mode_parse_error_lists_all_modes() {
        let err = "asink".parse::<Mode>().unwrap_err();
        assert!(err.contains("unknown mode 'asink'"), "{err}");
        for label in Mode::ALL.iter().map(|m| m.label()) {
            assert!(err.contains(label), "error must list '{label}': {err}");
        }
    }

    /// Every accepted spelling round-trips to the mode whose label the
    /// error message advertises.
    #[test]
    fn mode_parse_accepts_all_labels() {
        for mode in Mode::ALL {
            assert_eq!(mode.label().parse::<Mode>(), Ok(mode));
        }
        assert_eq!("bpull".parse::<Mode>(), Ok(Mode::BPull));
        assert_eq!("pushm".parse::<Mode>(), Ok(Mode::PushM));
    }

    /// Same contract for `--codec`: the `CodecChoice::from_str` error
    /// names the offender and lists every valid choice, including `bv`.
    #[test]
    fn codec_parse_error_lists_all_choices() {
        let err = "zstd".parse::<CodecChoice>().unwrap_err();
        assert!(err.contains("unknown codec 'zstd'"), "{err}");
        for codec in CodecChoice::ALL {
            let label = codec.label();
            assert!(err.contains(label), "error must list '{label}': {err}");
        }
    }

    /// Every advertised label round-trips to its choice.
    #[test]
    fn codec_parse_accepts_all_labels() {
        for codec in CodecChoice::ALL {
            assert_eq!(codec.label().parse::<CodecChoice>(), Ok(codec));
        }
    }

    /// The committed `BENCH_<name>.json` files at the workspace root are
    /// exactly the reports `repro` writes, each of an experiment of the
    /// table: CI deletes and regenerates each one, so a report that no
    /// experiment writes would fail there as deleted, and one not
    /// committed would go ungated.
    #[test]
    fn every_committed_report_has_an_experiment() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut reports = 0;
        for entry in std::fs::read_dir(&root).expect("workspace root") {
            let file = entry.expect("dir entry").file_name();
            let file = file.to_string_lossy();
            let Some(name) = file
                .strip_prefix("BENCH_")
                .and_then(|f| f.strip_suffix(".json"))
            else {
                continue;
            };
            assert!(
                super::find(name).is_some() && super::REPORTS.contains(&name),
                "{file} names no report-writing experiment of repro's table"
            );
            reports += 1;
        }
        assert_eq!(
            reports,
            super::REPORTS.len(),
            "a report of {:?} is not committed in {}",
            super::REPORTS,
            root.display()
        );
    }
}
