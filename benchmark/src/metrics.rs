//! The benchmark's metric and workload tables, and the text formats built
//! from them: the driver's one-line JSON result and `BENCHMARK.json`.
//!
//! The tables here are the single source of truth. `BENCHMARK.json` at
//! the repository root is `--print-benchmark-json` output; a unit test
//! fails when the two drift apart.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Direction in which a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and why it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "pagerank_push",
        why: "dense, message-heavy, receiver-side: push executor, message spills and wire batches do the work; codec and VE-BLOCK do none",
    },
    WorkloadInfo {
        name: "pagerank_bpull_bv",
        why: "same graph, sender-side: VE-BLOCK scans, bv decode and pull requests do the work, nothing spills, and the load phase (block build + bv encode) is a fifth of the job",
    },
    WorkloadInfo {
        name: "sssp_hybrid_ckpt",
        why: "1.1k supersteps, all but nine near-empty: a quarter of the job is per-barrier cost (control plane, switcher, checkpoint and message-log writes) that the PageRank workloads barely see",
    },
    WorkloadInfo {
        name: "serve_mixed",
        why: "two closed-loop TCP clients keep small jobs of every mode in flight on a 2-engine gateway: job start-up, scheduler grants between co-resident jobs, CPU sharing and result framing weigh most here",
    },
];

/// An end-to-end metric: measured with tracing off, on every workload,
/// and gated by `bound` (share of the parent's median it may worsen by).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "superstep_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "edges_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// A per-layer metric: measured in the traced run, no bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [Layer; 75] = [
    // core: spans around the traced reference job.
    lo("core.load_s", "s"),
    lo("core.superstep_p50_s", "s"),
    lo("core.superstep_hi_s", "s"),
    lo("core.collect_s", "s"),
    lo("core.barrier_fixed_us", "us"),
    lo("core.blocking_share", "ratio"),
    lo("core.supersteps", "count"),
    lo("core.switches", "count"),
    lo("core.messages_produced", "count"),
    lo("core.modeled_s", "s"),
    hi("core.modeled_over_wall", "ratio"),
    // core: one PageRank job per mode on the sweep graph.
    lo("core.sweep_push_superstep_s", "s"),
    lo("core.sweep_pushm_superstep_s", "s"),
    lo("core.sweep_pull_superstep_s", "s"),
    lo("core.sweep_bpull_superstep_s", "s"),
    lo("core.sweep_hybrid_superstep_s", "s"),
    lo("core.sweep_async_superstep_s", "s"),
    lo("core.w1_bpull_superstep_s", "s"),
    lo("core.mode_rank_inversions", "count"),
    lo("core.overhead_x", "x"),
    // algos: the benchmark's own in-memory PageRank iteration.
    lo("algos.ref_iter_s", "s"),
    // storage
    hi("storage.spill_push_mmsg_s", "Mmsg/s"),
    hi("storage.spill_drain_mmsg_s", "Mmsg/s"),
    lo("storage.spilled_share", "ratio"),
    hi("storage.veblock_build_mb_s", "MB/s"),
    hi("storage.veblock_scan_mb_s", "MB/s"),
    hi("storage.adjacency_build_mb_s", "MB/s"),
    hi("storage.checkpoint_write_mb_s", "MB/s"),
    hi("storage.checkpoint_read_mb_s", "MB/s"),
    hi("storage.msglog_append_mb_s", "MB/s"),
    hi("storage.msglog_read_mb_s", "MB/s"),
    lo("storage.servicelog_append_us", "us"),
    hi("storage.servicelog_replay_mb_s", "MB/s"),
    hi("storage.memvfs_append_mb_s", "MB/s"),
    hi("storage.memvfs_read_mb_s", "MB/s"),
    lo("storage.seq_read_mb", "MB"),
    lo("storage.seq_write_mb", "MB"),
    lo("storage.rand_read_mb", "MB"),
    lo("storage.rand_write_mb", "MB"),
    lo("storage.io_physical_mb", "MB"),
    // codec
    hi("codec.gaps_encode_mb_s", "MB/s"),
    hi("codec.gaps_decode_mb_s", "MB/s"),
    hi("codec.bv_encode_mb_s", "MB/s"),
    hi("codec.bv_decode_mb_s", "MB/s"),
    lo("codec.gaps_ratio", "ratio"),
    lo("codec.bv_ratio", "ratio"),
    hi("codec.blob_gaps_encode_mb_s", "MB/s"),
    hi("codec.blob_gaps_decode_mb_s", "MB/s"),
    hi("codec.ef_build_mb_s", "MB/s"),
    lo("codec.ef_get_ns", "ns"),
    // net
    hi("net.encode_plain_mmsg_s", "Mmsg/s"),
    hi("net.encode_combined_mmsg_s", "Mmsg/s"),
    hi("net.decode_mmsg_s", "Mmsg/s"),
    hi("net.fabric_msgs_s", "1/s"),
    lo("net.fabric_rtt_us", "us"),
    lo("net.remote_mb", "MB"),
    lo("net.requests", "count"),
    // graph
    hi("graph.gen_medges_s", "Medges/s"),
    // obs
    lo("obs.span_record_ns", "ns"),
    lo("obs.trace_on_overhead", "ratio"),
    // service
    lo("service.register_ms", "ms"),
    lo("service.submit_us", "us"),
    lo("service.sched_grant_us", "us"),
    lo("service.job_overhead_ms", "ms"),
    // gateway
    lo("gateway.status_rtt_tcp_us", "us"),
    lo("gateway.status_rtt_tcp_hi_us", "us"),
    lo("gateway.status_rtt_loopback_us", "us"),
    lo("gateway.metrics_rtt_us", "us"),
    hi("gateway.fetch_mb_s", "MB/s"),
    lo("gateway.job_overhead_ms", "ms"),
    lo("gateway.frames", "count"),
    lo("gateway.bytes", "count"),
    // bench: the process around the workload, and the benchmark's own cost.
    lo("bench.peak_rss_mb", "MB"),
    lo("bench.trace_overhead", "ratio"),
    lo("bench.probes_s", "s"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Timing samples (or counted events) behind the value.
    pub samples: usize,
}

/// The values of one run, checked against the declared table on output.
#[derive(Default)]
pub struct Report {
    pub values: Vec<Value>,
}

impl Report {
    /// Records `value` for the declared metric `name`. Panics on an
    /// undeclared or repeated name or a non-finite value — all three are
    /// bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric '{name}' is not declared"));
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        assert!(
            self.values.iter().all(|v| v.name != name),
            "metric '{name}' reported twice"
        );
        self.values.push(Value {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Fails unless the report holds exactly the declared metrics of the
    /// run's kind (`traced`: per-layer, else end-to-end).
    pub fn check_complete(&self, traced: bool) -> Result<(), String> {
        let declared: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for name in &declared {
            if !self.values.iter().any(|v| v.name == *name) {
                return Err(format!("metric '{name}' was not measured"));
            }
        }
        for v in &self.values {
            if !declared.contains(&v.name) {
                return Err(format!("metric '{}' does not belong to this run", v.name));
            }
        }
        Ok(())
    }

    /// A human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for v in &self.values {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.6} {:<9} n={}",
                v.name, v.value, v.unit, v.samples
            );
        }
        out
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The driver's result: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, v) in report.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            v.name, v.value, v.unit
        );
    }
    out.push_str("}}");
    out
}

/// A [`result_line`] read back.
#[derive(Debug, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub failed: u64,
    /// `(metric name, value)` in line order.
    pub values: Vec<(String, f64)>,
}

/// Reads back a [`result_line`]. Understands only that format — it
/// exists so the all-workloads mode can compare the runs of its child
/// processes.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let after = |hay: &str, key: &str| hay.find(key).map(|i| hay[i + key.len()..].to_string());
    let correct = after(line, "\"correct\": ")?.starts_with("true");
    let failed = after(line, "\"failed\": ")?;
    let failed: u64 = failed[..failed.find(',')?].parse().ok()?;
    let mut rest = after(line, "\"metrics\": {")?;
    let mut values = Vec::new();
    while let Some(q) = rest.find('"') {
        let tail = &rest[q + 1..];
        let name = tail[..tail.find('"')?].to_string();
        let tail = after(tail, "\"value\": ")?;
        let value: f64 = tail[..tail.find(',')?].parse().ok()?;
        values.push((name, value));
        rest = tail[tail.find('}')? + 1..].to_string();
    }
    Some(ParsedResult {
        correct,
        failed,
        values,
    })
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph::obs::validate_json;

    /// True for names the driver accepts: 1–64 of `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.chars().all(ok_char)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn name_validation() {
        for good in ["job_s", "core.load_s", "a-b.c_d", "9lives", "x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "slash/y",
            "pct%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn declared_tables_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the widest bound"
        );
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let text = benchmark_json();
        validate_json(&text).expect("BENCHMARK.json text must be valid JSON");
        assert!(text.len() <= 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, text, "regenerate with --print-benchmark-json");
    }

    #[test]
    fn result_line_is_valid_json_and_round_trips() {
        let mut r = Report::default();
        r.set("setup_s", 0.8127, 3);
        r.set("job_s", 1.2034e-3, 11);
        let line = result_line(true, 1000, 0, &r);
        validate_json(&line).expect("result line must be valid JSON");
        assert!(!line.contains('\n'));
        let values = vec![
            ("setup_s".to_string(), 0.8127),
            ("job_s".to_string(), 1.2034e-3),
        ];
        assert_eq!(
            parse_result_line(&line),
            Some(ParsedResult {
                correct: true,
                failed: 0,
                values: values.clone()
            })
        );
        assert_eq!(
            parse_result_line(&result_line(false, 5, 2, &r)),
            Some(ParsedResult {
                correct: false,
                failed: 2,
                values
            })
        );
        assert_eq!(parse_result_line("not a result"), None);
    }

    #[test]
    fn report_completeness() {
        let mut r = Report::default();
        for m in &END_TO_END {
            assert!(r.check_complete(false).is_err());
            r.set(m.name, 1.0, 1);
        }
        assert!(r.check_complete(false).is_ok());
        assert!(
            r.check_complete(true).is_err(),
            "end-to-end values are not per-layer ones"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Report::default().set("made_up", 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn repeated_metric_panics() {
        let mut r = Report::default();
        r.set("job_s", 1.0, 1);
        r.set("job_s", 2.0, 1);
    }
}
