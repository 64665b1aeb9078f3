//! Machine-readable experiment reports: `BENCH_<experiment>.json`.
//!
//! The repro harness prints human-readable tables; this module emits the
//! same headline numbers as JSON so downstream tooling (CI diffs,
//! plotting scripts) can consume a run without scraping stdout. One
//! report per experiment, one row per measured job: modeled and wall
//! seconds, physical and logical I/O bytes, superstep count, and the
//! mode-switch decisions (`"t:from->to"`). Hand-rolled serialization —
//! the workspace is deliberately dependency-free.
//!
//! Modeled quantities and switch decisions are deterministic; wall
//! seconds are the one timing-driven field (reported for orientation,
//! never compared).

pub mod diff;

use hybridgraph_core::JobMetrics;
use hybridgraph_obs::json_escape;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One measured job inside a report.
pub struct BenchRow {
    /// Row label (e.g. `"solo"`, `"2-jobs/job0"`).
    pub label: String,
    /// Modeled seconds, load included.
    pub modeled_secs: f64,
    /// Wall-clock seconds (non-deterministic; orientation only).
    pub wall_secs: f64,
    /// Physical bytes moved (post-codec, seek-padded).
    pub physical_bytes: u64,
    /// Logical bytes requested (pre-codec).
    pub logical_bytes: u64,
    /// Computation supersteps executed.
    pub supersteps: u64,
    /// Mode switches as `"t:from->to"`, superstep order.
    pub switch_decisions: Vec<String>,
    /// Experiment-specific numeric extras (cache hits, evictions, ...).
    pub extra: Vec<(String, f64)>,
}

impl BenchRow {
    /// A row from one job's metrics with the wall clock zeroed: every
    /// remaining field is modeled and deterministic, so a report built
    /// only from these rows is byte-identical run to run and CI can diff
    /// the committed copy.
    pub fn deterministic(label: impl Into<String>, m: &JobMetrics) -> BenchRow {
        BenchRow {
            label: label.into(),
            modeled_secs: m.modeled_total_secs(),
            wall_secs: 0.0,
            physical_bytes: m.total_io_bytes(),
            logical_bytes: m.total_io_logical_bytes(),
            supersteps: m.supersteps(),
            switch_decisions: m
                .switches
                .iter()
                .map(|(t, from, to)| format!("{t}:{}->{}", from.label(), to.label()))
                .collect(),
            extra: Vec::new(),
        }
    }

    /// Attaches a numeric extra.
    pub fn with_extra(mut self, key: impl Into<String>, value: f64) -> BenchRow {
        self.extra.push((key.into(), value));
        self
    }
}

/// A full experiment report, serialized to `BENCH_<experiment>.json`.
pub struct BenchReport {
    /// Experiment name (the `repro` dispatch key).
    pub experiment: String,
    /// Dataset scale denominator of the run.
    pub scale: usize,
    /// One row per measured job.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// An empty report for `experiment` at `scale`.
    pub fn new(experiment: impl Into<String>, scale: usize) -> BenchReport {
        BenchReport {
            experiment: experiment.into(),
            scale,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"experiment\": {},", json_str(&self.experiment));
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"label\": {},", json_str(&r.label));
            let _ = writeln!(out, "      \"modeled_secs\": {},", json_num(r.modeled_secs));
            let _ = writeln!(out, "      \"wall_secs\": {},", json_num(r.wall_secs));
            let _ = writeln!(out, "      \"physical_bytes\": {},", r.physical_bytes);
            let _ = writeln!(out, "      \"logical_bytes\": {},", r.logical_bytes);
            let _ = writeln!(out, "      \"supersteps\": {},", r.supersteps);
            let decisions: Vec<String> = r.switch_decisions.iter().map(|d| json_str(d)).collect();
            let _ = writeln!(
                out,
                "      \"switch_decisions\": [{}],",
                decisions.join(", ")
            );
            out.push_str("      \"extra\": {");
            for (j, (k, v)) in r.extra.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json_str(k), json_num(*v));
            }
            out.push_str("}\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes `BENCH_<experiment>.json` into the current directory and
    /// returns the path.
    pub fn write(&self) -> PathBuf {
        let path = PathBuf::from(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json()).expect("write bench report");
        path
    }

    /// [`BenchReport::write`] plus the `report:  <path>` line every
    /// experiment prints as its tail.
    pub fn write_announced(&self) -> PathBuf {
        let path = self.write();
        println!("report:  {}", path.display());
        path
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Formats a finite f64 as a JSON number (JSON has no NaN/Infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_obs::validate_json;

    #[test]
    fn report_is_valid_json() {
        let mut rep = BenchReport::new("demo", 2000);
        rep.push(BenchRow {
            label: "a \"quoted\"\nlabel".to_string(),
            modeled_secs: 1.25,
            wall_secs: f64::NAN,
            physical_bytes: 10,
            logical_bytes: 20,
            supersteps: 3,
            switch_decisions: vec!["2:push->b-pull".to_string()],
            extra: vec![("cache_hits".to_string(), 7.0)],
        });
        let json = rep.to_json();
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"switch_decisions\": [\"2:push->b-pull\"]"));
        assert!(json.contains("\"wall_secs\": null"));
        assert!(json.contains("\"cache_hits\": 7.0"));
    }

    #[test]
    fn empty_report_is_valid() {
        let rep = BenchReport::new("empty", 1);
        validate_json(&rep.to_json()).expect("valid JSON");
    }
}
