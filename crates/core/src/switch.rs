//! The hybrid switching machinery (paper §5).
//!
//! Three pieces:
//!
//! * [`b_lower_bound`] — Theorem 2's `B⊥ = |E|/2 − f`: if the cluster-wide
//!   message buffer `B` is at most `B⊥`, push's I/O bytes can never beat
//!   b-pull's on a broadcast-all workload, so hybrid starts in b-pull.
//! * [`q_metric`] — Eq. 11's `Q_t`: the modeled per-superstep time
//!   difference `push − b-pull` built from `M_co`, `IO(M_disk)`,
//!   `IO(V_rr)` and the sequential-read difference, each divided by its
//!   device throughput. Positive favours b-pull.
//! * [`decide`] — the Δt = 2 decision of §5.3, a function of the
//!   master's cursor: evaluates the predicted `Q_{t+2}` from the
//!   quantities collected at superstep `t` (Shang & Yu-style "current
//!   metrics predict the remaining supersteps") and switches when the
//!   sign flips. The mode, the Δt cursor, `R_co` and the audit it feeds
//!   are [`MasterState`](crate::snapshot::MasterState) fields.

use crate::config::{JobConfig, Mode, ModeLabel};
use crate::metrics::{CPU_US_PER_MESSAGE, CPU_US_PER_VERTEX};
use hybridgraph_obs::{QtAsync, QtAudit, QtInputs, QtTerms, QtVerdict};
use hybridgraph_storage::frame::{self, PayloadWriter, Via};
use hybridgraph_storage::{record, DeviceProfile};
use std::io;

const MB: f64 = 1024.0 * 1024.0;

/// Eq. 11 — the modeled time difference `push − b-pull` for one superstep
/// (seconds). Positive means b-pull is the profitable mode.
///
/// ```text
/// Q_t =  M_co·Byte_m / s_net            (push's extra network volume)
///      + IO(M_disk) / s_rw              (push's random message writes)
///      − IO(V_rr)   / s_rr              (b-pull's random svertex reads)
///      + (IO(Ē) + IO(M_disk) − IO(E) − IO(F)) / s_sr
///                                        (sequential-read difference)
/// ```
pub fn q_metric(profile: &DeviceProfile, c: &QtInputs) -> f64 {
    q_terms(profile, c).q()
}

/// The four Eq. 11 terms individually (seconds), for the audit log:
/// `Q_t = net + rw − rr + sr`.
pub(crate) fn q_terms(profile: &DeviceProfile, c: &QtInputs) -> QtTerms {
    QtTerms {
        net: (c.mco as f64 * c.bytes_per_saved as f64) / (profile.snet * MB),
        rw: c.io_mdisk as f64 / (profile.srw * MB),
        rr: c.io_vrr as f64 / (profile.srr * MB),
        sr: (c.io_e_push as f64 + c.io_mdisk as f64 - c.io_e_bpull as f64 - c.io_f as f64)
            / (profile.ssr * MB),
    }
}

/// Inputs to the GraphHP-style barrier-savings term: what the `Async`
/// mode's extra pseudo-rounds bought versus what they duplicated, all
/// measured (or estimated) from one superstep.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct AsyncCostInputs {
    /// Pseudo-rounds executed beyond the first sweep — each one replaces
    /// a whole strict-BSP superstep (its global barrier included).
    pub extra_rounds: u64,
    /// Value-segment bytes one superstep streams (read + write-back); a
    /// strict mode would pay this again for every replaced superstep,
    /// async iterates the resident block instead.
    pub value_io_bytes: u64,
    /// Encoded bytes of interior-destined messages async never
    /// materializes into the message store (strict push writes them).
    pub interior_msg_bytes: u64,
    /// Interior `update()` calls beyond one per touched vertex — the
    /// duplicated compute async pays for iterating ahead of the barrier.
    pub dup_updates: u64,
    /// Interior messages regenerated beyond one per in-block edge use.
    pub dup_messages: u64,
}

/// The async extension term: modeled seconds saved by replacing strict
/// supersteps with in-memory pseudo-rounds, minus the modeled cost of the
/// duplicated interior compute, at the cost model's CPU rates. Positive
/// favours `Async`. All-zero inputs (an empty frontier) produce exactly
/// `0.0` — never NaN.
pub fn async_gain(profile: &DeviceProfile, c: &AsyncCostInputs) -> QtAsync {
    let barrier_saved_secs = c.extra_rounds as f64 * c.value_io_bytes as f64 / (profile.ssr * MB)
        + c.interior_msg_bytes as f64 / (profile.srw * MB);
    let dup_compute_secs = (c.dup_updates as f64 * CPU_US_PER_VERTEX
        + c.dup_messages as f64 * CPU_US_PER_MESSAGE)
        * 1e-6;
    QtAsync {
        barrier_saved_secs,
        dup_compute_secs,
        q_async: barrier_saved_secs - dup_compute_secs,
    }
}

/// Theorem 2 — `B⊥ = |E|/2 − f` in messages. If the cluster-wide message
/// buffer `B ≤ B⊥`, then `C_io(push) ≥ C_io(b-pull)` on a workload where
/// every vertex broadcasts, so b-pull is the safe initial mode.
pub fn b_lower_bound(num_edges: u64, fragments: u64) -> i64 {
    num_edges as i64 / 2 - fragments as i64
}

/// Theorem 2's initial-mode rule.
pub fn initial_mode(total_buffer: u64, num_edges: u64, fragments: u64) -> Mode {
    if (total_buffer as i128) <= b_lower_bound(num_edges, fragments) as i128 {
        Mode::BPull
    } else {
        Mode::Push
    }
}

/// Records the merge ratio `R_co = saved / raw` messages observed in a
/// b-pull superstep.
pub(crate) fn observe_rco(rco: &mut Option<f64>, saved: u64, raw: u64) {
    if raw > 0 {
        *rco = Some(saved as f64 / raw as f64);
    }
}

/// Estimates `M_co` for a push superstep that produced `raw` messages to
/// `distinct` destinations: the last b-pull-observed `R_co` if there is
/// one, else the structural bound `raw − distinct`.
pub(crate) fn estimate_mco(rco: Option<f64>, raw: u64, distinct: u64) -> u64 {
    match rco {
        Some(r) => (raw as f64 * r) as u64,
        None => raw.saturating_sub(distinct),
    }
}

/// The relative-gain threshold in force: at least zero.
pub(crate) fn threshold(cfg: &JobConfig) -> f64 {
    cfg.switch_threshold.max(0.0)
}

/// §5.3's decision at superstep `t`'s barrier, for a job in mode `cur`
/// whose last evaluation was at superstep `last_decision` (the Δt
/// cursor): the verdict and the mode superstep `t + 1` runs in. Every
/// verdict but [`QtVerdict::TooEarly`] moves the cursor to `t`.
///
/// An evaluation happens at most every `cfg.switch_interval` supersteps
/// and never before superstep 2 (superstep 1 exchanges no messages).
/// The sign of the step's `Q_t`, `q`, picks push or b-pull; for an
/// `Async` job the [`async_gain`] term `asy` then decides whether
/// pseudo-rounds beat the strict winner. The move is taken only when its predicted gain clears
/// `cfg.switch_threshold` relative to the superstep's modeled time
/// `step_secs`. The threshold guards against paying the fused switch
/// superstep for a gain of microseconds when `Q_t` hovers around zero
/// (visible on SA's bursty tail); zero restores the paper's bare sign
/// rule.
pub fn decide(
    cfg: &JobConfig,
    t: u64,
    (cur, last_decision): (Mode, u64),
    q: f64,
    asy: Option<QtAsync>,
    step_secs: f64,
) -> (QtVerdict, Mode) {
    if t < 2 || t.saturating_sub(last_decision) < cfg.switch_interval.max(1) {
        return (QtVerdict::TooEarly, cur);
    }
    let strict_want = if q >= 0.0 { Mode::BPull } else { Mode::Push };
    let want = match asy {
        Some(g) if g.q_async > 0.0 => Mode::Async,
        // Exactly zero gain is an empty frontier — no evidence either
        // way, so a job already in async holds instead of flapping to
        // the strict winner.
        Some(g) if g.q_async == 0.0 && cur == Mode::Async => Mode::Async,
        _ => strict_want,
    };
    // The gate compares the gain of moving against the superstep's
    // modeled time: crossing the async boundary is judged by the async
    // term, a push<->b-pull flip by Eq. 11.
    let gate = if want == Mode::Async || cur == Mode::Async {
        asy.map_or(0.0, |g| g.q_async.abs())
    } else {
        q.abs()
    };
    if want == cur {
        (QtVerdict::Hold, cur)
    } else if gate < threshold(cfg) * step_secs.max(0.0) {
        (QtVerdict::BelowThreshold, cur)
    } else {
        (QtVerdict::Switch, want)
    }
}

// ------------------------------------------------- snapshot serialization

/// One audit record, as the master's snapshot and the canonical audit
/// bytes carry it. Bit-exact: every float travels by bit pattern; mode
/// labels are re-interned to the engine's own `'static` labels.
pub(crate) struct AuditLayout;

record! { AuditLayout: QtAudit {
    superstep, inputs, terms, q, step_secs, io_ratio, threshold,
    mode_before via ModeLabel, mode_after via ModeLabel, verdict, asy, tiers,
} }

/// Serializes a `Q_t` audit table to a canonical byte run — the form the
/// restart-determinism tests and the chaos harness compare byte-for-byte.
pub fn encode_qt_audits(audits: &[QtAudit]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    AuditLayout::put_all(audits, &mut w);
    w.into_bytes()
}

/// Rebuilds an audit table from [`encode_qt_audits`] bytes.
pub fn decode_qt_audits(buf: &[u8]) -> io::Result<Vec<QtAudit>> {
    frame::decode_via::<Vec<AuditLayout>, _>(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MasterState;
    use hybridgraph_obs::QtTiers;
    use hybridgraph_storage::frame::Tagged;
    use QtVerdict::*;

    fn hdd() -> DeviceProfile {
        DeviceProfile::local_hdd()
    }

    /// A job configuration with the given Δt and threshold, on the HDD
    /// profile.
    fn cfg(interval: u64, threshold: f64) -> JobConfig {
        let mut c = JobConfig::new(Mode::Hybrid, 1).with_profile(hdd());
        c.switch_interval = interval;
        c.switch_threshold = threshold;
        c
    }

    /// One evaluation at superstep `t` as the master takes it: the mode
    /// and the Δt cursor `at` advance with the verdict.
    fn feed(
        c: &JobConfig,
        at: &mut (Mode, u64),
        t: u64,
        inputs: &QtInputs,
        asy: Option<QtAsync>,
        step_secs: f64,
    ) -> QtVerdict {
        let q = q_metric(&c.profile, inputs);
        let (verdict, to) = decide(c, t, *at, q, asy, step_secs);
        if verdict != TooEarly {
            *at = (to, t);
        }
        verdict
    }

    #[test]
    fn q_positive_when_push_spills_heavily() {
        // Lots of spilled messages, tiny b-pull overheads.
        let c = QtInputs {
            mco: 1_000_000,
            bytes_per_saved: 12,
            io_mdisk: 100 * 1024 * 1024,
            io_vrr: 1024 * 1024,
            io_e_push: 50 * 1024 * 1024,
            io_e_bpull: 50 * 1024 * 1024,
            io_f: 1024 * 1024,
        };
        assert!(q_metric(&hdd(), &c) > 0.0);
    }

    #[test]
    fn q_negative_when_no_spill_and_costly_scans() {
        // Nothing spills; b-pull pays fragment + random-read overheads.
        let c = QtInputs {
            mco: 10,
            bytes_per_saved: 12,
            io_mdisk: 0,
            io_vrr: 50 * 1024 * 1024,
            io_e_push: 1024 * 1024,
            io_e_bpull: 20 * 1024 * 1024,
            io_f: 10 * 1024 * 1024,
        };
        assert!(q_metric(&hdd(), &c) < 0.0);
    }

    #[test]
    fn q_sign_is_hardware_insensitive_when_io_dominates() {
        // The paper observes switching points do not move between HDD and
        // SSD: the sign is dominated by Cio(push) − Cio(b-pull).
        let c = QtInputs {
            mco: 1000,
            bytes_per_saved: 12,
            io_mdisk: 64 * 1024 * 1024,
            io_vrr: 8 * 1024 * 1024,
            io_e_push: 32 * 1024 * 1024,
            io_e_bpull: 40 * 1024 * 1024,
            io_f: 2 * 1024 * 1024,
        };
        let hdd_q = q_metric(&hdd(), &c);
        let ssd_q = q_metric(&DeviceProfile::amazon_ssd(), &c);
        assert_eq!(hdd_q.signum(), ssd_q.signum());
        // but the magnitude (expected gain) shrinks on SSD
        assert!(hdd_q.abs() > ssd_q.abs());
    }

    #[test]
    fn theorem2_bound() {
        assert_eq!(b_lower_bound(1000, 100), 400);
        assert_eq!(b_lower_bound(100, 100), -50);
        assert_eq!(initial_mode(300, 1000, 100), Mode::BPull);
        assert_eq!(initial_mode(500, 1000, 100), Mode::Push);
        // Negative bound: push always starts.
        assert_eq!(initial_mode(0, 100, 100), Mode::Push);
    }

    #[test]
    fn switcher_respects_interval() {
        let c = cfg(2, 0.0);
        let mut at = (Mode::BPull, 0);
        let push_favoring = QtInputs {
            io_vrr: 100 * 1024 * 1024,
            ..Default::default()
        };
        // t = 1: too early.
        assert_eq!(feed(&c, &mut at, 1, &push_favoring, None, 0.0), TooEarly);
        // t = 2: interval satisfied, sign negative -> switch to push.
        assert_eq!(feed(&c, &mut at, 2, &push_favoring, None, 0.0), Switch);
        assert_eq!(at, (Mode::Push, 2));
        // t = 3: within interval of last decision, no re-evaluation.
        let bpull_favoring = QtInputs {
            io_mdisk: 100 * 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(feed(&c, &mut at, 3, &bpull_favoring, None, 0.0), TooEarly);
        assert_eq!(at, (Mode::Push, 2), "a too-early verdict keeps the cursor");
        // t = 4: switches back.
        assert_eq!(feed(&c, &mut at, 4, &bpull_favoring, None, 0.0), Switch);
        assert_eq!(at, (Mode::BPull, 4));
        // A zero interval is clamped to one superstep.
        let every = cfg(0, 0.0);
        assert_eq!(
            feed(&every, &mut at, 4, &push_favoring, None, 0.0),
            TooEarly
        );
        assert_eq!(feed(&every, &mut at, 5, &push_favoring, None, 0.0), Switch);
    }

    #[test]
    fn switcher_stays_put_on_same_sign() {
        let c = cfg(2, 0.0);
        let mut at = (Mode::BPull, 0);
        let q = QtInputs {
            io_mdisk: 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(feed(&c, &mut at, 2, &q, None, 0.0), Hold);
        assert_eq!(feed(&c, &mut at, 4, &q, None, 0.0), Hold);
        assert_eq!(at, (Mode::BPull, 4));
    }

    #[test]
    fn threshold_suppresses_marginal_switches() {
        let c = cfg(2, 0.5);
        let mut at = (Mode::BPull, 0);
        // A push-favouring Q of tiny magnitude vs a long superstep.
        let q = QtInputs {
            io_vrr: 1024, // |Q| ~ 1e-6 s
            ..Default::default()
        };
        let verdict = feed(&c, &mut at, 2, &q, None, 10.0);
        assert_eq!(verdict, BelowThreshold, "gain below threshold");
        // Same sign but now the gain dominates the superstep time.
        let big = QtInputs {
            io_vrr: 1024 * 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(feed(&c, &mut at, 4, &big, None, 10.0), Switch);
        assert_eq!(at.0, Mode::Push);
        // A negative threshold is clamped to the paper's bare sign rule.
        let mut at = (Mode::BPull, 0);
        assert_eq!(feed(&cfg(2, -1.0), &mut at, 2, &q, None, 10.0), Switch);
    }

    /// Each Eq. 11 input flipped on alone must pull `Q_t` in its
    /// documented direction: `mco`/`io_mdisk`/`io_e_push` favour b-pull
    /// (positive), `io_vrr`/`io_e_bpull`/`io_f` favour push (negative).
    #[test]
    fn q_sign_flip_per_term() {
        let p = hdd();
        assert_eq!(q_metric(&p, &QtInputs::default()), 0.0);
        let one_mb = 1024 * 1024;
        let cases: [(QtInputs, f64); 6] = [
            (
                QtInputs {
                    mco: 1000,
                    bytes_per_saved: 12,
                    ..Default::default()
                },
                1.0,
            ),
            (
                QtInputs {
                    io_mdisk: one_mb,
                    ..Default::default()
                },
                1.0, // both the rw and sr terms gain
            ),
            (
                QtInputs {
                    io_e_push: one_mb,
                    ..Default::default()
                },
                1.0,
            ),
            (
                QtInputs {
                    io_vrr: one_mb,
                    ..Default::default()
                },
                -1.0,
            ),
            (
                QtInputs {
                    io_e_bpull: one_mb,
                    ..Default::default()
                },
                -1.0,
            ),
            (
                QtInputs {
                    io_f: one_mb,
                    ..Default::default()
                },
                -1.0,
            ),
        ];
        for (c, sign) in &cases {
            let q = q_metric(&p, c);
            assert_eq!(q.signum(), *sign, "inputs {c:?} produced q = {q}");
            // And the term decomposition always reassembles the metric.
            let t = q_terms(&p, c);
            assert_eq!(t.net + t.rw - t.rr + t.sr, q);
            assert_eq!(t.q(), q);
        }
    }

    /// Theorem 2 boundary: at exactly `B = |E|/2 − f` the initial mode is
    /// b-pull (the bound is inclusive); one message more tips to push.
    #[test]
    fn theorem2_exact_boundary() {
        let (edges, frags) = (2000u64, 3u64);
        let b = b_lower_bound(edges, frags);
        assert_eq!(b, 997);
        assert_eq!(initial_mode(b as u64, edges, frags), Mode::BPull);
        assert_eq!(initial_mode(b as u64 + 1, edges, frags), Mode::Push);
        // Odd |E| truncates: 7/2 − 1 = 2.
        assert_eq!(b_lower_bound(7, 1), 2);
        assert_eq!(initial_mode(2, 7, 1), Mode::BPull);
        assert_eq!(initial_mode(3, 7, 1), Mode::Push);
    }

    /// Golden hand-computed Eq. 11 example on an exact-arithmetic profile
    /// (all throughputs and byte counts powers of two, so every division
    /// is exact in f64):
    ///
    /// ```text
    /// net = 1 MiB msgs × 4 B  / (4 MiB/s) = 1 s
    /// rw  = 2 MiB            / (1 MiB/s) = 2 s
    /// rr  = 1 MiB            / (1 MiB/s) = 1 s
    /// sr  = (4 + 2 − 1 − 1) MiB / (2 MiB/s) = 2 s
    /// Q   = 1 + 2 − 1 + 2 = 4 s
    /// ```
    #[test]
    fn q_golden_value() {
        let p = DeviceProfile {
            srr: 1.0,
            srw: 1.0,
            ssr: 2.0,
            ssw: 2.0,
            snet: 4.0,
        };
        let mib = 1024 * 1024;
        let c = QtInputs {
            mco: mib,
            bytes_per_saved: 4,
            io_mdisk: 2 * mib,
            io_vrr: mib,
            io_e_push: 4 * mib,
            io_e_bpull: mib,
            io_f: mib,
        };
        let t = q_terms(&p, &c);
        assert_eq!(t.net, 1.0);
        assert_eq!(t.rw, 2.0);
        assert_eq!(t.rr, 1.0);
        assert_eq!(t.sr, 2.0);
        assert_eq!(q_metric(&p, &c), 4.0);
    }

    /// The four verdicts in the order a job meets them: too early before
    /// superstep 2, below threshold for a marginal gain, a switch, then a
    /// hold once the mode agrees with the sign.
    #[test]
    fn decide_verdicts_in_order() {
        let c = cfg(2, 0.5);
        let mut at = (Mode::BPull, 0);
        let push_favoring = QtInputs {
            io_vrr: 1024 * 1024 * 1024,
            ..Default::default()
        };
        let tiny_push = QtInputs {
            io_vrr: 1024,
            ..Default::default()
        };
        let verdicts = [
            feed(&c, &mut at, 1, &push_favoring, None, 0.0),
            feed(&c, &mut at, 2, &tiny_push, None, 10.0),
            feed(&c, &mut at, 4, &push_favoring, None, 10.0),
            feed(&c, &mut at, 6, &push_favoring, None, 10.0),
        ];
        assert_eq!(verdicts, [TooEarly, BelowThreshold, Switch, Hold]);
        assert_eq!(at, (Mode::Push, 6));
    }

    /// The barrier-savings term pulls in its documented directions:
    /// extra rounds and avoided interior-message bytes favour async,
    /// duplicated updates/messages count against it.
    #[test]
    fn async_gain_directions() {
        let p = hdd();
        let mib = 1024 * 1024;
        let saving = AsyncCostInputs {
            extra_rounds: 3,
            value_io_bytes: 8 * mib,
            interior_msg_bytes: 2 * mib,
            ..Default::default()
        };
        let g = async_gain(&p, &saving);
        assert!(g.barrier_saved_secs > 0.0);
        assert_eq!(g.dup_compute_secs, 0.0);
        assert!(g.q_async > 0.0);

        let dup_only = AsyncCostInputs {
            dup_updates: 1_000_000,
            dup_messages: 2_000_000,
            ..Default::default()
        };
        let g = async_gain(&p, &dup_only);
        assert_eq!(g.barrier_saved_secs, 0.0);
        assert!(g.dup_compute_secs > 0.0);
        assert!(g.q_async < 0.0);

        // More duplicated compute monotonically erodes the same savings.
        let mixed = AsyncCostInputs {
            dup_updates: 1_000_000,
            ..saving
        };
        assert!(async_gain(&p, &mixed).q_async < async_gain(&p, &saving).q_async);
    }

    /// An empty frontier produces exact zeros (never NaN) and the
    /// three-way decision holds the current mode.
    #[test]
    fn async_gain_zero_frontier() {
        let p = hdd();
        let g = async_gain(&p, &AsyncCostInputs::default());
        assert_eq!(g.barrier_saved_secs, 0.0);
        assert_eq!(g.dup_compute_secs, 0.0);
        assert_eq!(g.q_async, 0.0);
        assert!(!g.q_async.is_nan());

        let mut at = (Mode::Async, 0);
        let verdict = feed(&cfg(2, 0.1), &mut at, 2, &QtInputs::default(), Some(g), 0.0);
        assert_eq!(verdict, Hold, "zero frontier must not force a switch");
        assert_eq!(at, (Mode::Async, 2));
    }

    /// Three-way decisions: a positive async gain wins the superstep, a
    /// negative one hands control back to the Eq. 11 winner.
    #[test]
    fn async_arm_switches_both_ways() {
        let p = hdd();
        let c = cfg(2, 0.0);
        let mib = 1024 * 1024;
        let mut at = (Mode::Push, 0);
        let favour_async = async_gain(
            &p,
            &AsyncCostInputs {
                extra_rounds: 4,
                value_io_bytes: 64 * mib,
                ..Default::default()
            },
        );
        let none = QtInputs::default();
        assert_eq!(feed(&c, &mut at, 2, &none, Some(favour_async), 0.1), Switch);
        assert_eq!(at.0, Mode::Async);
        // Async stopped paying (all duplication): fall back to the Eq. 11
        // winner — a b-pull-favouring profile here.
        let favour_strict = async_gain(
            &p,
            &AsyncCostInputs {
                dup_updates: 10_000_000,
                ..Default::default()
            },
        );
        let bpull_favoring = QtInputs {
            io_mdisk: 100 * mib,
            ..Default::default()
        };
        let verdict = feed(&c, &mut at, 4, &bpull_favoring, Some(favour_strict), 0.1);
        assert_eq!((verdict, at.0), (Switch, Mode::BPull));
        // Leaving async is gated by the async term, not by Eq. 11's |Q|.
        let mut at = (Mode::Async, 0);
        let verdict = feed(
            &cfg(2, 0.5),
            &mut at,
            2,
            &bpull_favoring,
            Some(favour_strict),
            1e6,
        );
        assert_eq!((verdict, at.0), (BelowThreshold, Mode::Async));
    }

    /// One audit record as the master writes it, in mode `m`.
    fn record(m: Mode) -> QtAudit {
        QtAudit {
            superstep: 2,
            step_secs: 0.1,
            io_ratio: 1.0,
            mode_before: m.label(),
            mode_after: m.label(),
            verdict: Hold,
            ..QtAudit::default()
        }
    }

    /// Async audit records round-trip through the canonical byte run, and
    /// the extension bytes appear only when the record carries one.
    #[test]
    fn async_audit_bytes_roundtrip_and_stay_conditional() {
        let strict_bytes = encode_qt_audits(&[record(Mode::BPull)]);
        let asy = [QtAudit {
            asy: Some(async_gain(
                &hdd(),
                &AsyncCostInputs {
                    extra_rounds: 2,
                    value_io_bytes: 1024 * 1024,
                    ..Default::default()
                },
            )),
            ..record(Mode::Async)
        }];
        let asy_bytes = encode_qt_audits(&asy);
        assert_eq!(
            asy_bytes.len(),
            strict_bytes.len() + 24 - ("b-pull".len() - "async".len()) * 2,
            "extension adds exactly three f64s (minus the shorter labels)"
        );
        let decoded = decode_qt_audits(&asy_bytes).unwrap();
        assert_eq!(decoded, asy);
        assert!(decoded[0].asy.unwrap().q_async > 0.0);
        let strict_decoded = decode_qt_audits(&strict_bytes).unwrap();
        assert!(strict_decoded[0].asy.is_none());
    }

    /// Per-tier ratio annotations round-trip through the canonical byte
    /// run, survive a full master snapshot, and add bytes only to records
    /// that carry them.
    #[test]
    fn tier_audit_bytes_roundtrip_and_stay_conditional() {
        let plain_bytes = encode_qt_audits(&[record(Mode::BPull)]);
        let coded = vec![QtAudit {
            io_ratio: 0.42,
            tiers: Some(QtTiers {
                seq_read: 0.36,
                seq_write: 1.0,
                rand_read: 1.0,
                rand_write: 0.9,
            }),
            ..record(Mode::BPull)
        }];
        let coded_bytes = encode_qt_audits(&coded);
        assert_eq!(
            coded_bytes.len(),
            plain_bytes.len() + 32,
            "tier extension adds exactly four f64s"
        );
        let decoded = decode_qt_audits(&coded_bytes).unwrap();
        assert_eq!(decoded, coded);
        assert_eq!(decoded[0].tiers.unwrap().seq_read, 0.36);
        assert!(decode_qt_audits(&plain_bytes).unwrap()[0].tiers.is_none());

        // The master's snapshot carries the annotation too.
        let mut st = MasterState::fresh(1);
        st.audit = coded.clone();
        let back: MasterState = frame::decode(&frame::encode(&st)).unwrap();
        assert_eq!(back.audit, coded);
    }

    #[test]
    fn async_mode_tag_roundtrip() {
        for (i, m) in Mode::ALL.into_iter().enumerate() {
            assert_eq!(m.tag() as usize, i);
            assert_eq!(frame::decode::<Mode>(&[i as u8]).unwrap(), m);
        }
        assert_eq!(Mode::Async.tag(), 5);
        assert!(frame::decode::<Mode>(&[6]).is_err());
        let label = frame::encode(&"async".to_string());
        let back: &str = frame::decode_via::<ModeLabel, _>(&label).unwrap();
        assert_eq!(back, "async");
        let alias = frame::encode(&"bpull".to_string());
        assert!(frame::decode_via::<ModeLabel, Mode>(&alias).is_err());
    }

    #[test]
    fn mco_estimation() {
        let mut rco = None;
        // No observation yet: structural bound.
        assert_eq!(estimate_mco(rco, 100, 30), 70);
        observe_rco(&mut rco, 80, 100);
        assert_eq!(rco, Some(0.8));
        assert_eq!(estimate_mco(rco, 50, 30), 40);
        // Zero raw leaves ratio unchanged.
        observe_rco(&mut rco, 0, 0);
        assert_eq!(rco, Some(0.8));
    }
}
