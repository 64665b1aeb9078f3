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
//! Experiments: datasets, fig2, fig7, fig8, fig9, fig10, fig11, fig12,
//! fig13, fig14, fig15, fig16, fig17, fig18, table5, vblocks (figs
//! 23–25), fig26, theorems, observe, io_compress, multi_tenant,
//! service_restart, graphhp, gateway.
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
use hybridgraph_bench::Scale;
use std::path::PathBuf;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "datasets",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table5",
    "vblocks",
    "fig26",
    "theorems",
    "ablation",
    "observe",
    "io_compress",
    "billion",
    "multi_tenant",
    "service_restart",
    "graphhp",
    "gateway",
];

fn dispatch(name: &str, scale: Scale, observe: &exp::observe::ObserveOpts) -> bool {
    let t = Instant::now();
    match name {
        "datasets" => exp::datasets::run(scale),
        "fig2" => exp::fig2::run(scale),
        "fig7" => exp::overall::fig7(scale),
        "fig8" => exp::overall::fig8(scale),
        "fig9" => exp::overall::fig9(scale),
        "fig10" => exp::overall::fig10(scale),
        "fig11" => exp::prediction::fig11(scale),
        "fig12" => exp::prediction::fig12(scale),
        "fig13" => exp::prediction::fig13(scale),
        "fig14" => exp::fig14::run(scale),
        "fig15" => exp::fig15::run(scale),
        "fig16" => exp::fig16::run(scale),
        "fig17" => exp::fig17_18::fig17(scale),
        "fig18" => exp::fig17_18::fig18(scale),
        "table5" => exp::table5::run(scale),
        "vblocks" | "fig23" | "fig24" | "fig25" => exp::vblocks::run(scale),
        "fig26" => exp::fig26::run(scale),
        "theorems" | "thm1" | "thm2" => exp::theorems::run(scale),
        "trace" => exp::trace::run(scale),
        "ablation" => exp::ablation::run(scale),
        "observe" => exp::observe::run(scale, observe),
        "io_compress" => exp::io_compress::run(scale),
        "billion" => exp::billion::run(scale),
        "multi_tenant" => exp::multi_tenant::run(scale),
        "service_restart" => exp::service_restart::run(scale),
        "graphhp" => exp::graphhp::run(scale),
        "gateway" => exp::gateway::run(scale),
        _ => return false,
    }
    eprintln!("[{name}: {:.1}s]", t.elapsed().as_secs_f64());
    true
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
            "all" => targets.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            "--help" | "-h" => usage(""),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no experiment given");
    }
    println!("# HybridGraph reproduction harness — scale 1/{}\n", scale.0);
    for t in targets {
        if !dispatch(&t, scale, &observe) {
            usage(&format!("unknown experiment '{t}'"));
        }
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
    eprintln!("experiments: {}", EXPERIMENTS.join(", "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use hybridgraph_core::Mode;
    use hybridgraph_storage::CodecChoice;

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
}
