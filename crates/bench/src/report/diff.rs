//! The perf gate: diff a freshly generated `BENCH_*.json` against the
//! committed copy.
//!
//! Every compared quantity is *modeled* — modeled seconds and physical
//! I/O bytes are pure functions of the experiment's seeds — so a fresh
//! run should reproduce the committed numbers exactly. The gate still
//! allows a tolerance band (default ±10%) so intentional small shifts
//! from unrelated changes don't demand a lockstep report refresh; past
//! the band, the diff is a perf regression and CI fails.
//!
//! Reports are read with `obs::json::parse`; only the fields the gate
//! compares are extracted.

use hybridgraph_obs::json::{self, Json};
use std::fmt::Write as _;

/// One row's gated quantities, pulled out of a parsed report.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedRow {
    /// The row label (the join key between committed and fresh).
    pub label: String,
    /// Modeled seconds (deterministic).
    pub modeled_secs: f64,
    /// Physical I/O bytes (deterministic).
    pub physical_bytes: f64,
}

/// A report reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedReport {
    /// Experiment name.
    pub experiment: String,
    /// Rows in file order.
    pub rows: Vec<GatedRow>,
}

/// Parses a `BENCH_*.json` document down to its gated quantities.
pub fn parse_report(src: &str) -> Result<GatedReport, String> {
    let doc = json::parse(src)?;
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("report has no \"experiment\"")?
        .to_string();
    let rows = match doc.get("rows") {
        Some(Json::Arr(rows)) => rows,
        _ => return Err("report has no \"rows\" array".into()),
    };
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        // The report writes `null` for a non-finite number.
        let field = |name: &str| match row.get(name) {
            Some(Json::Num(n)) => Ok(*n),
            Some(Json::Null) => Ok(f64::NAN),
            _ => Err(format!("row {i} has no numeric \"{name}\"")),
        };
        out.push(GatedRow {
            label: row
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("row {i} has no \"label\""))?
                .to_string(),
            modeled_secs: field("modeled_secs")?,
            physical_bytes: field("physical_bytes")?,
        });
    }
    Ok(GatedReport {
        experiment,
        rows: out,
    })
}

/// The verdict of one committed-vs-fresh comparison.
#[derive(Debug, Default)]
pub struct DiffOutcome {
    /// Gate failures: regressions past tolerance, vanished rows,
    /// mismatched experiments. Non-empty fails CI.
    pub regressions: Vec<String>,
    /// Informational: improvements past tolerance, new rows.
    pub notes: Vec<String>,
}

impl DiffOutcome {
    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            let _ = writeln!(out, "REGRESSION: {r}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }
}

/// Checks one metric of one row against the tolerance band.
fn gate_metric(
    out: &mut DiffOutcome,
    experiment: &str,
    label: &str,
    metric: &str,
    committed: f64,
    fresh: f64,
    tolerance: f64,
) {
    // Both zero (or both NaN wall-clock stand-ins) compare equal.
    if committed == fresh || (committed.is_nan() && fresh.is_nan()) {
        return;
    }
    let regressed = if committed == 0.0 {
        fresh > 0.0
    } else {
        fresh > committed * (1.0 + tolerance)
    };
    let improved = committed > 0.0 && fresh < committed * (1.0 - tolerance);
    let line = format!(
        "{experiment}/{label} {metric}: committed {committed}, fresh {fresh} ({:+.1}%)",
        if committed != 0.0 {
            100.0 * (fresh - committed) / committed
        } else {
            f64::INFINITY
        }
    );
    if regressed {
        out.regressions.push(line);
    } else if improved {
        out.notes.push(format!("{line} — improvement"));
    }
}

/// Diffs a fresh report against the committed one. `tolerance` is the
/// allowed fractional increase (0.10 = +10%) in modeled seconds or
/// physical bytes per row before the gate fails.
pub fn diff_reports(committed: &GatedReport, fresh: &GatedReport, tolerance: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    if committed.experiment != fresh.experiment {
        out.regressions.push(format!(
            "experiment mismatch: committed '{}' vs fresh '{}'",
            committed.experiment, fresh.experiment
        ));
        return out;
    }
    for row in &committed.rows {
        let Some(f) = fresh.rows.iter().find(|r| r.label == row.label) else {
            out.regressions.push(format!(
                "{}/{}: row vanished from the fresh report",
                committed.experiment, row.label
            ));
            continue;
        };
        gate_metric(
            &mut out,
            &committed.experiment,
            &row.label,
            "modeled_secs",
            row.modeled_secs,
            f.modeled_secs,
            tolerance,
        );
        gate_metric(
            &mut out,
            &committed.experiment,
            &row.label,
            "physical_bytes",
            row.physical_bytes,
            f.physical_bytes,
            tolerance,
        );
    }
    for row in &fresh.rows {
        if !committed.rows.iter().any(|r| r.label == row.label) {
            out.notes.push(format!(
                "{}/{}: new row (not in the committed report)",
                fresh.experiment, row.label
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchReport, BenchRow};

    fn report(rows: &[(&str, f64, u64)]) -> GatedReport {
        let mut rep = BenchReport::new("demo", 2000);
        for (label, modeled, phys) in rows {
            rep.push(BenchRow {
                label: label.to_string(),
                modeled_secs: *modeled,
                wall_secs: 0.0,
                physical_bytes: *phys,
                logical_bytes: 0,
                supersteps: 1,
                switch_decisions: Vec::new(),
                extra: Vec::new(),
            });
        }
        parse_report(&rep.to_json()).expect("parse own report")
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(&[("solo", 1.5, 100), ("duo", 2.5, 200)]);
        let out = diff_reports(&a, &a.clone(), 0.10);
        assert!(out.passed(), "{}", out.render());
        assert!(out.notes.is_empty());
    }

    #[test]
    fn within_tolerance_passes_past_it_fails() {
        let committed = report(&[("solo", 1.0, 1000)]);
        let close = report(&[("solo", 1.09, 1000)]);
        assert!(diff_reports(&committed, &close, 0.10).passed());
        let slow = report(&[("solo", 1.11, 1000)]);
        let out = diff_reports(&committed, &slow, 0.10);
        assert!(!out.passed());
        assert!(out.regressions[0].contains("modeled_secs"), "{out:?}");
    }

    #[test]
    fn byte_regressions_and_vanished_rows_fail() {
        let committed = report(&[("solo", 1.0, 1000), ("duo", 1.0, 1000)]);
        let fresh = report(&[("solo", 1.0, 1200)]);
        let out = diff_reports(&committed, &fresh, 0.10);
        assert_eq!(out.regressions.len(), 2, "{}", out.render());
        assert!(out.render().contains("physical_bytes"));
        assert!(out.render().contains("vanished"));
    }

    #[test]
    fn improvements_and_new_rows_are_notes() {
        let committed = report(&[("solo", 2.0, 1000)]);
        let fresh = report(&[("solo", 1.0, 1000), ("extra", 1.0, 1)]);
        let out = diff_reports(&committed, &fresh, 0.10);
        assert!(out.passed(), "{}", out.render());
        assert_eq!(out.notes.len(), 2);
    }

    #[test]
    fn parser_round_trips_real_report_shapes() {
        let src = r#"{"experiment": "x", "scale": 1,
            "rows": [{"label": "a \"q\"\n", "modeled_secs": 1.5e-3,
                      "wall_secs": null, "physical_bytes": 7,
                      "logical_bytes": 0, "supersteps": 2,
                      "switch_decisions": ["1:push->b-pull"],
                      "extra": {"k": -1.0}}]}"#;
        let rep = parse_report(src).unwrap();
        assert_eq!(rep.rows.len(), 1);
        assert_eq!(rep.rows[0].label, "a \"q\"\n");
        assert!((rep.rows[0].modeled_secs - 0.0015).abs() < 1e-12);
        assert!(parse_report("{\"experiment\": \"x\", \"rows\": []} trailing").is_err());
        assert!(parse_report("{\"experiment\": \"x\", \"rows\": [1, 2,]}").is_err());
    }
}
