//! The Q_t decision audit log.
//!
//! Every switching decision the master evaluates records one [`QtAudit`]:
//! the full Eq. 11 inputs, the four cost terms, the predicted `Q_{t+2}`
//! and the verdict.
//! The record carries only plain numbers and static strings so any mode
//! flip is explainable from the artifact alone — no re-run needed.

use hybridgraph_codec::{record, tagged};
use std::fmt::Write as _;

/// Eq. 11's inputs, all in bytes/counts of one superstep: what the
/// engine's barrier aggregates, `q_metric` prices and the audit records.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct QtInputs {
    /// Messages concatenation/combining would merge away (`M_co`).
    pub mco: u64,
    /// `Byte_m`: bytes saved per merged message — the id size (4) when
    /// concatenating, the whole message when combining.
    pub bytes_per_saved: u64,
    /// `IO(M_disk)`: message bytes push spills.
    pub io_mdisk: u64,
    /// `IO(V^t_rr)`: b-pull's random svertex reads.
    pub io_vrr: u64,
    /// `IO(Ē^t)`: adjacency edge bytes push reads.
    pub io_e_push: u64,
    /// `IO(E^t)`: Eblock edge bytes b-pull scans.
    pub io_e_bpull: u64,
    /// `IO(F^t)`: fragment auxiliary bytes b-pull scans.
    pub io_f: u64,
}

/// The async extension of one evaluation: the barrier-savings vs
/// duplicated-interior-compute trade the GraphHP-style `Async` mode adds
/// as a second decision axis next to Eq. 11's push/b-pull sign.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct QtAsync {
    /// Modeled seconds the extra pseudo-rounds saved versus paying a
    /// full strict-BSP superstep (value reload + boundary exchange) for
    /// each of them.
    pub barrier_saved_secs: f64,
    /// Modeled seconds of duplicated interior compute: updates and
    /// regenerated messages async ran beyond what one strict superstep
    /// would have.
    pub dup_compute_secs: f64,
    /// `barrier_saved_secs − dup_compute_secs`; positive favours Async.
    pub q_async: f64,
}

/// Per-access-class physical/logical ratios of the superstep whose
/// measurements fed this evaluation — the codec's effect broken out by
/// I/O tier (a tier with no logical traffic reports 1.0). Attached only
/// for jobs running with a codec configured, so codec-less audit
/// records serialize byte-for-byte as they always have.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct QtTiers {
    pub seq_read: f64,
    pub seq_write: f64,
    pub rand_read: f64,
    pub rand_write: f64,
}

impl QtTiers {
    /// `(tier label, ratio)` pairs in stable exposition order — the
    /// labels double as the `tier` label values of the
    /// `job_codec_ratio` Prometheus gauge.
    pub fn pairs(&self) -> [(&'static str, f64); 4] {
        [
            ("seq_read", self.seq_read),
            ("seq_write", self.seq_write),
            ("rand_read", self.rand_read),
            ("rand_write", self.rand_write),
        ]
    }
}

/// The four Eq. 11 terms in seconds: `Q = net + rw − rr + sr`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct QtTerms {
    /// `M_co·Byte_m / s_net` — push's extra network volume.
    pub net: f64,
    /// `IO(M_disk) / s_rw` — push's message spill writes.
    pub rw: f64,
    /// `IO(V_rr) / s_rr` — b-pull's random svertex reads (subtracted).
    pub rr: f64,
    /// `(IO(Ē)+IO(M_disk)−IO(E)−IO(F)) / s_sr` — sequential-read diff.
    pub sr: f64,
}

impl QtTerms {
    /// `Q = net + rw − rr + sr`, in seconds.
    pub fn q(&self) -> f64 {
        self.net + self.rw - self.rr + self.sr
    }
}

record! { QtInputs { mco, bytes_per_saved, io_mdisk, io_vrr, io_e_push, io_e_bpull, io_f } }
record! { QtAsync { barrier_saved_secs, dup_compute_secs, q_async } }
record! { QtTiers { seq_read, seq_write, rand_read, rand_write } }
record! { QtTerms { net, rw, rr, sr } }

/// What the switching decision concluded from this evaluation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum QtVerdict {
    /// `t < 2` or within the Δt interval of the last decision: no
    /// evaluation took place beyond recording `Q_t`.
    #[default]
    TooEarly,
    /// Evaluated; predicted mode equals the current mode.
    Hold,
    /// Sign favoured the other mode but `|Q|` did not clear the
    /// threshold·step_secs gate.
    BelowThreshold,
    /// Switch taken for superstep `t + 1`.
    Switch,
}

tagged! { QtVerdict { 0 => TooEarly, 1 => Hold, 2 => BelowThreshold, 3 => Switch } }

impl QtVerdict {
    pub fn label(&self) -> &'static str {
        match self {
            QtVerdict::TooEarly => "too-early",
            QtVerdict::Hold => "hold",
            QtVerdict::BelowThreshold => "below-threshold",
            QtVerdict::Switch => "SWITCH",
        }
    }
}

/// One audited switching evaluation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QtAudit {
    /// Superstep `t` whose measurements fed the prediction.
    pub superstep: u64,
    pub inputs: QtInputs,
    pub terms: QtTerms,
    /// Predicted `Q_{t+2}` in seconds (positive favours b-pull).
    pub q: f64,
    /// Modeled time of superstep `t`, the threshold denominator.
    pub step_secs: f64,
    /// Physical / logical bytes of superstep `t`'s classified I/O — the
    /// on-disk compression ratio feeding the byte inputs above (1.0 when
    /// no codec is configured). Eq. 11 consumes *physical* bytes, so the
    /// codec legitimately moves `Q_t`; this records by how much the
    /// superstep's I/O shrank.
    pub io_ratio: f64,
    /// Relative-gain threshold in force.
    pub threshold: f64,
    /// Mode while superstep `t` ran ("push" / "b-pull").
    pub mode_before: &'static str,
    /// Mode for superstep `t + 1` after the verdict.
    pub mode_after: &'static str,
    pub verdict: QtVerdict,
    /// The async barrier-savings term, recorded only when the evaluation
    /// considered the `Async` mode. `None` for plain push/b-pull jobs —
    /// their audit records (and serialized bytes) are unchanged.
    pub asy: Option<QtAsync>,
    /// Per-tier compression breakdown of `io_ratio`, recorded only for
    /// jobs running with a codec.
    pub tiers: Option<QtTiers>,
}

fn fmt_secs(v: f64) -> String {
    format!("{v:+.6}")
}

/// Render the audit log as the human-readable `--explain-switch` table.
pub fn render_table(audits: &[QtAudit]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Q_t decision audit (Eq. 11; positive favours b-pull; Δt prediction horizon = 2)"
    );
    let _ = writeln!(
        out,
        "{:>4} | {:>10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} | {:>9} {:>9} {:>9} {:>9} | {:>9} | {:>9} {:>6} | {:<7} -> {:<7} verdict",
        "t", "M_co", "B_m", "IO(Mdisk)", "IO(Vrr)", "IO(E_psh)", "IO(E_bpl)", "IO(F)",
        "net_s", "rw_s", "-rr_s", "sr_s", "Q_t+2", "step_s", "p/l", "before", "after"
    );
    for a in audits {
        let asy = match &a.asy {
            Some(x) => format!(
                " [async saved={} dup={} q_async={}]",
                fmt_secs(x.barrier_saved_secs),
                fmt_secs(x.dup_compute_secs),
                fmt_secs(x.q_async),
            ),
            None => String::new(),
        };
        let tiers = match &a.tiers {
            Some(x) => {
                let mut s = String::from(" [p/l");
                for (k, v) in x.pairs() {
                    let _ = write!(s, " {k}={v:.3}");
                }
                s.push(']');
                s
            }
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{:>4} | {:>10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} | {:>9} {:>9} {:>9} {:>9} | {:>9} | {:>9.3} {:>6.3} | {:<7} -> {:<7} {}{}{}",
            a.superstep,
            a.inputs.mco,
            a.inputs.bytes_per_saved,
            a.inputs.io_mdisk,
            a.inputs.io_vrr,
            a.inputs.io_e_push,
            a.inputs.io_e_bpull,
            a.inputs.io_f,
            fmt_secs(a.terms.net),
            fmt_secs(a.terms.rw),
            fmt_secs(-a.terms.rr),
            fmt_secs(a.terms.sr),
            fmt_secs(a.q),
            a.step_secs,
            a.io_ratio,
            a.mode_before,
            a.mode_after,
            a.verdict.label(),
            asy,
            tiers,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_every_record() {
        let audits = vec![
            QtAudit {
                superstep: 1,
                inputs: QtInputs::default(),
                terms: QtTerms::default(),
                q: 0.0,
                step_secs: 0.5,
                io_ratio: 1.0,
                threshold: 0.1,
                mode_before: "b-pull",
                mode_after: "b-pull",
                verdict: QtVerdict::TooEarly,
                asy: None,
                tiers: None,
            },
            QtAudit {
                superstep: 2,
                inputs: QtInputs {
                    mco: 10,
                    bytes_per_saved: 12,
                    io_vrr: 4096,
                    ..Default::default()
                },
                terms: QtTerms {
                    net: 0.001,
                    rw: 0.0,
                    rr: 0.01,
                    sr: -0.002,
                },
                q: -0.011,
                step_secs: 0.2,
                io_ratio: 0.62,
                threshold: 0.1,
                mode_before: "b-pull",
                mode_after: "push",
                verdict: QtVerdict::Switch,
                asy: None,
                tiers: None,
            },
        ];
        let table = render_table(&audits);
        assert!(table.contains("too-early"));
        assert!(table.contains("SWITCH"));
        assert!(table.contains("b-pull  -> push"));
        assert!(table.contains("0.620"), "compression ratio column rendered");
        assert_eq!(table.lines().count(), 4);
        assert!(!table.contains("q_async"), "no async column without asy");
        assert!(!table.contains("seq_read"), "no tier column without tiers");
    }

    #[test]
    fn table_renders_tier_breakdown() {
        let audits = vec![QtAudit {
            superstep: 2,
            inputs: QtInputs::default(),
            terms: QtTerms::default(),
            q: 0.0,
            step_secs: 0.4,
            io_ratio: 0.5,
            threshold: 0.1,
            mode_before: "b-pull",
            mode_after: "b-pull",
            verdict: QtVerdict::Hold,
            asy: None,
            tiers: Some(QtTiers {
                seq_read: 0.42,
                seq_write: 1.0,
                rand_read: 1.0,
                rand_write: 0.9,
            }),
        }];
        let table = render_table(&audits);
        assert!(table.contains("seq_read=0.420"));
        assert!(table.contains("rand_write=0.900"));
    }

    #[test]
    fn table_renders_async_extension() {
        let audits = vec![QtAudit {
            superstep: 3,
            inputs: QtInputs::default(),
            terms: QtTerms::default(),
            q: 0.0,
            step_secs: 0.4,
            io_ratio: 1.0,
            threshold: 0.1,
            mode_before: "async",
            mode_after: "async",
            verdict: QtVerdict::Hold,
            asy: Some(QtAsync {
                barrier_saved_secs: 0.25,
                dup_compute_secs: 0.05,
                q_async: 0.2,
            }),
            tiers: None,
        }];
        let table = render_table(&audits);
        assert!(table.contains("async   -> async"));
        assert!(table.contains("q_async=+0.200000"));
        assert!(table.contains("saved=+0.250000"));
        assert!(table.contains("dup=+0.050000"));
    }
}
