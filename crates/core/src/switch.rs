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
//! * [`Switcher`] — the Δt = 2 decision loop of §5.3: evaluates the
//!   predicted `Q_{t+2}` from the quantities collected at superstep `t`
//!   (Shang & Yu-style "current metrics predict the remaining
//!   supersteps") and requests a switch when the sign flips.

use crate::config::{Mode, ModeLabel};
use hybridgraph_obs::{QtAsync, QtAudit, QtInputs, QtTerms, QtTiers, QtVerdict};
use hybridgraph_storage::frame::{self, PayloadWriter, Via};
use hybridgraph_storage::{record, DeviceProfile};
use std::io;

const MB: f64 = 1024.0 * 1024.0;

/// Inputs to the `Q_t` metric, all in bytes/counts of one superstep.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CostInputs {
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
pub fn q_metric(profile: &DeviceProfile, c: &CostInputs) -> f64 {
    let t = q_terms(profile, c);
    t.net + t.rw - t.rr + t.sr
}

/// The four Eq. 11 terms individually (seconds), for the audit log:
/// `Q_t = net + rw − rr + sr`.
fn q_terms(profile: &DeviceProfile, c: &CostInputs) -> QtTerms {
    QtTerms {
        net: (c.mco as f64 * c.bytes_per_saved as f64) / (profile.snet * MB),
        rw: c.io_mdisk as f64 / (profile.srw * MB),
        rr: c.io_vrr as f64 / (profile.srr * MB),
        sr: (c.io_e_push as f64 + c.io_mdisk as f64 - c.io_e_bpull as f64 - c.io_f as f64)
            / (profile.ssr * MB),
    }
}

impl CostInputs {
    /// The plain-number mirror of this struct recorded in audit artifacts.
    fn to_audit(self) -> QtInputs {
        QtInputs {
            mco: self.mco,
            bytes_per_saved: self.bytes_per_saved,
            io_mdisk: self.io_mdisk,
            io_vrr: self.io_vrr,
            io_e_push: self.io_e_push,
            io_e_bpull: self.io_e_bpull,
            io_f: self.io_f,
        }
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
    /// Modeled CPU microseconds per vertex update (`JobConfig`).
    pub cpu_us_per_vertex: f64,
    /// Modeled CPU microseconds per message handled (`JobConfig`).
    pub cpu_us_per_message: f64,
}

/// The async extension term: modeled seconds saved by replacing strict
/// supersteps with in-memory pseudo-rounds, minus the modeled cost of the
/// duplicated interior compute. Positive favours `Async`. All-zero
/// inputs (an empty frontier) produce exactly `0.0` — never NaN.
pub fn async_gain(profile: &DeviceProfile, c: &AsyncCostInputs) -> QtAsync {
    let barrier_saved_secs = c.extra_rounds as f64 * c.value_io_bytes as f64 / (profile.ssr * MB)
        + c.interior_msg_bytes as f64 / (profile.srw * MB);
    let dup_compute_secs = (c.dup_updates as f64 * c.cpu_us_per_vertex
        + c.dup_messages as f64 * c.cpu_us_per_message)
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

/// The Δt-interval switching decision loop.
#[derive(Clone, Debug)]
pub struct Switcher {
    interval: u64,
    current: Mode,
    last_decision: u64,
    /// Minimum |Q| as a fraction of the superstep's modeled time before a
    /// switch is taken. The paper switches on the bare sign of `Q_t`; the
    /// threshold guards against paying the fused switch superstep for a
    /// predicted gain of microseconds when `Q_t` hovers around zero
    /// (visible on SA's bursty tail). Zero restores the paper's rule.
    threshold: f64,
    /// Last observed concatenating/combining ratio `R_co` (from a b-pull
    /// superstep), used to estimate `M_co` while running push.
    rco: Option<f64>,
    history: Vec<(u64, f64)>,
    /// One record per `decide` call: the full Eq. 11 evaluation and the
    /// verdict. Cloned with the switcher, so a recovery rollback that
    /// rewinds the master to an earlier cut also rewinds the audit to it.
    audit: Vec<QtAudit>,
}

impl Switcher {
    /// A switcher starting in `initial` with decision interval `interval`
    /// (the paper sets 2) and the relative gain `threshold`.
    pub fn new(initial: Mode, interval: u64, threshold: f64) -> Self {
        assert!(matches!(initial, Mode::Push | Mode::BPull | Mode::Async));
        Switcher {
            interval: interval.max(1),
            current: initial,
            last_decision: 0,
            threshold: threshold.max(0.0),
            rco: None,
            history: Vec::new(),
            audit: Vec::new(),
        }
    }

    /// The mode currently selected.
    pub fn current(&self) -> Mode {
        self.current
    }

    /// Records the merge ratio observed in a b-pull superstep:
    /// `saved / raw` messages.
    pub fn observe_rco(&mut self, saved: u64, raw: u64) {
        if raw > 0 {
            self.rco = Some(saved as f64 / raw as f64);
        }
    }

    /// Estimates `M_co` for a push superstep that produced `raw` messages
    /// to `distinct` destinations: prefers the last b-pull-observed ratio,
    /// falling back to the structural bound `raw − distinct`.
    pub fn estimate_mco(&self, raw: u64, distinct: u64) -> u64 {
        match self.rco {
            Some(r) => (raw as f64 * r) as u64,
            None => raw.saturating_sub(distinct),
        }
    }

    /// The full decision audit: one record per `decide` call.
    pub fn audit(&self) -> &[QtAudit] {
        &self.audit
    }

    /// Feeds the quantities of superstep `t`; returns `Some(new_mode)` if
    /// the engine should switch for superstep `t + 1`.
    ///
    /// Decisions are taken at most every `interval` supersteps, never
    /// before superstep 2 (superstep 1 exchanges no messages), and only
    /// when the predicted per-superstep gain |Q| clears the threshold
    /// relative to the superstep's modeled time `step_secs`. `io_ratio`
    /// is the superstep's physical/logical classified-I/O ratio (1.0
    /// without a codec); it is recorded in the audit, not used by the
    /// decision — the byte inputs are already physical.
    pub fn decide(
        &mut self,
        t: u64,
        profile: &DeviceProfile,
        inputs: &CostInputs,
        step_secs: f64,
        io_ratio: f64,
    ) -> Option<Mode> {
        self.decide_inner(t, profile, inputs, None, step_secs, io_ratio)
    }

    /// The three-way variant for `Async`-flavoured jobs: Eq. 11 still
    /// arbitrates push vs b-pull, and the [`async_gain`] term then decides
    /// whether replacing strict supersteps with pseudo-rounds beats the
    /// strict winner. Every evaluation records its [`QtAsync`] extension
    /// in the audit.
    pub fn decide_async(
        &mut self,
        t: u64,
        profile: &DeviceProfile,
        inputs: &CostInputs,
        asy: &AsyncCostInputs,
        step_secs: f64,
        io_ratio: f64,
    ) -> Option<Mode> {
        let gain = async_gain(profile, asy);
        self.decide_inner(t, profile, inputs, Some(gain), step_secs, io_ratio)
    }

    fn decide_inner(
        &mut self,
        t: u64,
        profile: &DeviceProfile,
        inputs: &CostInputs,
        asy: Option<QtAsync>,
        step_secs: f64,
        io_ratio: f64,
    ) -> Option<Mode> {
        let terms = q_terms(profile, inputs);
        let q = terms.net + terms.rw - terms.rr + terms.sr;
        self.history.push((t, q));
        let before = self.current;
        let too_early = t < 2 || t - self.last_decision < self.interval;
        let (verdict, switched) = if too_early {
            (QtVerdict::TooEarly, None)
        } else {
            let strict_want = if q >= 0.0 { Mode::BPull } else { Mode::Push };
            let want = match asy {
                Some(g) if g.q_async > 0.0 => Mode::Async,
                // Exactly zero gain is an empty frontier — no evidence
                // either way, so a job already in async holds instead of
                // flapping to the strict winner.
                Some(g) if g.q_async == 0.0 && self.current == Mode::Async => Mode::Async,
                _ => strict_want,
            };
            // The gate compares the gain of moving against the superstep's
            // modeled time: crossing the async boundary is judged by the
            // async term, a push<->b-pull flip by Eq. 11 as before.
            let gate = if want == Mode::Async || self.current == Mode::Async {
                asy.map(|g| g.q_async.abs()).unwrap_or(0.0)
            } else {
                q.abs()
            };
            self.last_decision = t;
            if want == self.current {
                (QtVerdict::Hold, None)
            } else if gate < self.threshold * step_secs.max(0.0) {
                (QtVerdict::BelowThreshold, None)
            } else {
                self.current = want;
                (QtVerdict::Switch, Some(want))
            }
        };
        self.audit.push(QtAudit {
            superstep: t,
            inputs: inputs.to_audit(),
            terms,
            q,
            step_secs,
            io_ratio,
            threshold: self.threshold,
            mode_before: before.label(),
            mode_after: self.current.label(),
            verdict,
            asy,
            tiers: None,
        });
        switched
    }

    /// Attaches the per-tier compression breakdown to the most recent
    /// audit record. The engine calls this right after `decide` for jobs
    /// running with a codec; codec-less jobs never do, so their audit
    /// bytes are unchanged.
    pub fn annotate_tiers(&mut self, tiers: QtTiers) {
        if let Some(a) = self.audit.last_mut() {
            a.tiers = Some(tiers);
        }
    }
}

// ------------------------------------------------- snapshot serialization

// The switcher's full state — mode, decision cursor, `R_co`, history,
// audit — is part of a durable master snapshot. Bit-exact: every float
// travels by bit pattern, so a decoded switcher makes byte-for-byte the
// same future decisions.
record! { Switcher {
    interval, current, last_decision, threshold, rco, history, audit via Vec<AuditLayout>,
} }

/// One audit record; mode labels are re-interned to the engine's own
/// `'static` labels.
struct AuditLayout;

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
    use hybridgraph_storage::frame::Tagged;

    fn hdd() -> DeviceProfile {
        DeviceProfile::local_hdd()
    }

    #[test]
    fn q_positive_when_push_spills_heavily() {
        // Lots of spilled messages, tiny b-pull overheads.
        let c = CostInputs {
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
        let c = CostInputs {
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
        let c = CostInputs {
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
        let mut s = Switcher::new(Mode::BPull, 2, 0.0);
        let push_favoring = CostInputs {
            io_vrr: 100 * 1024 * 1024,
            ..Default::default()
        };
        // t = 1: too early.
        assert_eq!(s.decide(1, &hdd(), &push_favoring, 0.0, 1.0), None);
        // t = 2: interval satisfied, sign negative -> switch to push.
        assert_eq!(
            s.decide(2, &hdd(), &push_favoring, 0.0, 1.0),
            Some(Mode::Push)
        );
        // t = 3: within interval of last decision, no re-evaluation.
        let bpull_favoring = CostInputs {
            io_mdisk: 100 * 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(s.decide(3, &hdd(), &bpull_favoring, 0.0, 1.0), None);
        // t = 4: switches back.
        assert_eq!(
            s.decide(4, &hdd(), &bpull_favoring, 0.0, 1.0),
            Some(Mode::BPull)
        );
        assert_eq!(s.current(), Mode::BPull);
        assert_eq!(s.history.len(), 4);
    }

    #[test]
    fn switcher_stays_put_on_same_sign() {
        let mut s = Switcher::new(Mode::BPull, 2, 0.0);
        let c = CostInputs {
            io_mdisk: 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(s.decide(2, &hdd(), &c, 0.0, 1.0), None);
        assert_eq!(s.decide(4, &hdd(), &c, 0.0, 1.0), None);
        assert_eq!(s.current(), Mode::BPull);
    }

    #[test]
    fn threshold_suppresses_marginal_switches() {
        let mut s = Switcher::new(Mode::BPull, 2, 0.5);
        // A push-favouring Q of tiny magnitude vs a long superstep.
        let c = CostInputs {
            io_vrr: 1024, // |Q| ~ 1e-6 s
            ..Default::default()
        };
        assert_eq!(
            s.decide(2, &hdd(), &c, 10.0, 1.0),
            None,
            "gain below threshold"
        );
        // Same sign but now the gain dominates the superstep time.
        let big = CostInputs {
            io_vrr: 1024 * 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(s.decide(4, &hdd(), &big, 10.0, 1.0), Some(Mode::Push));
    }

    /// Each Eq. 11 input flipped on alone must pull `Q_t` in its
    /// documented direction: `mco`/`io_mdisk`/`io_e_push` favour b-pull
    /// (positive), `io_vrr`/`io_e_bpull`/`io_f` favour push (negative).
    #[test]
    fn q_sign_flip_per_term() {
        let p = hdd();
        assert_eq!(q_metric(&p, &CostInputs::default()), 0.0);
        let one_mb = 1024 * 1024;
        let cases: [(CostInputs, f64); 6] = [
            (
                CostInputs {
                    mco: 1000,
                    bytes_per_saved: 12,
                    ..Default::default()
                },
                1.0,
            ),
            (
                CostInputs {
                    io_mdisk: one_mb,
                    ..Default::default()
                },
                1.0, // both the rw and sr terms gain
            ),
            (
                CostInputs {
                    io_e_push: one_mb,
                    ..Default::default()
                },
                1.0,
            ),
            (
                CostInputs {
                    io_vrr: one_mb,
                    ..Default::default()
                },
                -1.0,
            ),
            (
                CostInputs {
                    io_e_bpull: one_mb,
                    ..Default::default()
                },
                -1.0,
            ),
            (
                CostInputs {
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
        let c = CostInputs {
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

    /// Every `decide` call leaves exactly one audit record whose terms
    /// reassemble `q` and whose verdict matches the returned value.
    #[test]
    fn decide_records_audit() {
        let mut s = Switcher::new(Mode::BPull, 2, 0.5);
        let push_favoring = CostInputs {
            io_vrr: 1024 * 1024 * 1024,
            ..Default::default()
        };
        let tiny_push = CostInputs {
            io_vrr: 1024,
            ..Default::default()
        };
        assert_eq!(s.decide(1, &hdd(), &push_favoring, 0.0, 1.0), None);
        assert_eq!(s.decide(2, &hdd(), &tiny_push, 10.0, 1.0), None);
        assert_eq!(
            s.decide(4, &hdd(), &push_favoring, 10.0, 1.0),
            Some(Mode::Push)
        );
        assert_eq!(s.decide(6, &hdd(), &push_favoring, 10.0, 1.0), None);
        let audit = s.audit();
        assert_eq!(audit.len(), 4);
        use hybridgraph_obs::QtVerdict;
        assert_eq!(audit[0].verdict, QtVerdict::TooEarly);
        assert_eq!(audit[1].verdict, QtVerdict::BelowThreshold);
        assert_eq!(audit[2].verdict, QtVerdict::Switch);
        assert_eq!(audit[2].mode_before, "b-pull");
        assert_eq!(audit[2].mode_after, "push");
        assert_eq!(audit[3].verdict, QtVerdict::Hold);
        for a in audit {
            let t = &a.terms;
            assert_eq!(t.net + t.rw - t.rr + t.sr, a.q);
            assert!(a.inputs.io_vrr > 0);
        }
        // Cloning (as the master's cut does for rollback) preserves the
        // audit prefix, so restoring an earlier clone rewinds the log.
        let snap = Switcher::new(Mode::BPull, 2, 0.5);
        assert!(snap.audit().is_empty());
    }

    /// A decoded switcher is bit-identical to the original: same mode,
    /// same decision cursor, same history and audit, and — the part that
    /// matters for crash-restart replay — the same *future* decisions.
    #[test]
    fn switcher_snapshot_roundtrip() {
        let mut s = Switcher::new(Mode::BPull, 2, 0.25);
        s.observe_rco(80, 100);
        let push_favoring = CostInputs {
            io_vrr: 1024 * 1024 * 1024,
            ..Default::default()
        };
        s.decide(1, &hdd(), &push_favoring, 0.5, 1.0);
        s.decide(2, &hdd(), &push_favoring, 0.5, 1.25);

        let mut d: Switcher = frame::decode(&frame::encode(&s)).unwrap();
        assert_eq!(d.current(), s.current());
        assert_eq!(d.rco, s.rco);
        assert_eq!(d.history, s.history);
        assert_eq!(d.audit(), s.audit());
        // Future decisions agree bit-for-bit.
        let bpull_favoring = CostInputs {
            io_mdisk: 100 * 1024 * 1024,
            ..Default::default()
        };
        assert_eq!(
            s.decide(4, &hdd(), &bpull_favoring, 1.0, 1.0),
            d.decide(4, &hdd(), &bpull_favoring, 1.0, 1.0),
        );
        assert_eq!(d.audit(), s.audit());
        assert_eq!(
            encode_qt_audits(s.audit()),
            encode_qt_audits(d.audit()),
            "canonical audit bytes agree"
        );
        let table = decode_qt_audits(&encode_qt_audits(s.audit())).unwrap();
        assert_eq!(table, s.audit());
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
            cpu_us_per_vertex: 0.5,
            cpu_us_per_message: 0.5,
            ..Default::default()
        };
        let g = async_gain(&p, &dup_only);
        assert_eq!(g.barrier_saved_secs, 0.0);
        assert!(g.dup_compute_secs > 0.0);
        assert!(g.q_async < 0.0);

        // More duplicated compute monotonically erodes the same savings.
        let mixed = AsyncCostInputs {
            dup_updates: 1_000_000,
            cpu_us_per_vertex: 0.5,
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

        let mut s = Switcher::new(Mode::Async, 2, 0.1);
        let out = s.decide_async(
            2,
            &p,
            &CostInputs::default(),
            &AsyncCostInputs::default(),
            0.0,
            1.0,
        );
        assert_eq!(out, None, "zero frontier must not force a switch");
        assert_eq!(s.current(), Mode::Async);
        let a = s.audit().last().unwrap();
        assert_eq!(a.asy.unwrap().q_async, 0.0);
        assert_eq!(a.verdict, QtVerdict::Hold);
    }

    /// Three-way decisions: a positive async gain wins the superstep, a
    /// negative one hands control back to the Eq. 11 winner.
    #[test]
    fn decide_async_switches_both_ways() {
        let p = hdd();
        let mib = 1024 * 1024;
        let mut s = Switcher::new(Mode::Push, 2, 0.0);
        let favour_async = AsyncCostInputs {
            extra_rounds: 4,
            value_io_bytes: 64 * mib,
            ..Default::default()
        };
        assert_eq!(
            s.decide_async(2, &p, &CostInputs::default(), &favour_async, 0.1, 1.0),
            Some(Mode::Async)
        );
        // Async stopped paying (all duplication): fall back to the Eq. 11
        // winner — a b-pull-favouring profile here.
        let favour_strict = AsyncCostInputs {
            dup_updates: 10_000_000,
            cpu_us_per_vertex: 1.0,
            ..Default::default()
        };
        let bpull_favoring = CostInputs {
            io_mdisk: 100 * mib,
            ..Default::default()
        };
        assert_eq!(
            s.decide_async(4, &p, &bpull_favoring, &favour_strict, 0.1, 1.0),
            Some(Mode::BPull)
        );
        assert_eq!(s.audit().len(), 2);
        assert!(s.audit().iter().all(|a| a.asy.is_some()));
        assert_eq!(s.audit()[0].mode_after, "async");
        assert_eq!(s.audit()[1].mode_before, "async");
    }

    /// Async audit records round-trip through the canonical byte run, and
    /// the extension bytes appear only when the record carries one.
    #[test]
    fn async_audit_bytes_roundtrip_and_stay_conditional() {
        let p = hdd();
        let mut strict = Switcher::new(Mode::BPull, 2, 0.0);
        strict.decide(2, &p, &CostInputs::default(), 0.1, 1.0);
        let strict_bytes = encode_qt_audits(strict.audit());

        let mut asy = Switcher::new(Mode::Async, 2, 0.0);
        asy.decide_async(
            2,
            &p,
            &CostInputs::default(),
            &AsyncCostInputs {
                extra_rounds: 2,
                value_io_bytes: 1024 * 1024,
                ..Default::default()
            },
            0.1,
            1.0,
        );
        let asy_bytes = encode_qt_audits(asy.audit());
        assert_eq!(
            asy_bytes.len(),
            strict_bytes.len() + 24 - ("b-pull".len() - "async".len()) * 2,
            "extension adds exactly three f64s (minus the shorter labels)"
        );
        let decoded = decode_qt_audits(&asy_bytes).unwrap();
        assert_eq!(decoded, asy.audit());
        assert_eq!(decoded[0].asy, asy.audit()[0].asy);
        let strict_decoded = decode_qt_audits(&strict_bytes).unwrap();
        assert!(strict_decoded[0].asy.is_none());
    }

    /// Per-tier ratio annotations round-trip through the canonical byte
    /// run, survive a full switcher snapshot, and add bytes only to
    /// records that carry them.
    #[test]
    fn tier_audit_bytes_roundtrip_and_stay_conditional() {
        let p = hdd();
        let mut plain = Switcher::new(Mode::BPull, 2, 0.0);
        plain.decide(2, &p, &CostInputs::default(), 0.1, 1.0);
        let plain_bytes = encode_qt_audits(plain.audit());

        let mut coded = Switcher::new(Mode::BPull, 2, 0.0);
        coded.decide(2, &p, &CostInputs::default(), 0.1, 0.42);
        coded.annotate_tiers(QtTiers {
            seq_read: 0.36,
            seq_write: 1.0,
            rand_read: 1.0,
            rand_write: 0.9,
        });
        let coded_bytes = encode_qt_audits(coded.audit());
        assert_eq!(
            coded_bytes.len(),
            plain_bytes.len() + 32,
            "tier extension adds exactly four f64s"
        );
        let decoded = decode_qt_audits(&coded_bytes).unwrap();
        assert_eq!(decoded, coded.audit());
        assert_eq!(decoded[0].tiers.unwrap().seq_read, 0.36);
        assert!(decode_qt_audits(&plain_bytes).unwrap()[0].tiers.is_none());

        // The full switcher snapshot carries the annotation too.
        let back: Switcher = frame::decode(&frame::encode(&coded)).unwrap();
        assert_eq!(back.audit(), coded.audit());

        // Annotating with no audit record yet is a no-op, not a panic.
        let mut empty = Switcher::new(Mode::Push, 2, 0.0);
        empty.annotate_tiers(QtTiers::default());
        assert!(empty.audit().is_empty());
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
        let mut s = Switcher::new(Mode::Push, 2, 0.0);
        // No observation yet: structural bound.
        assert_eq!(s.estimate_mco(100, 30), 70);
        s.observe_rco(80, 100);
        assert_eq!(s.rco, Some(0.8));
        assert_eq!(s.estimate_mco(50, 30), 40);
        // Zero raw leaves ratio unchanged.
        s.observe_rco(0, 0);
        assert_eq!(s.rco, Some(0.8));
    }
}
