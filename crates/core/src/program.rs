//! The vertex-program abstraction (paper §3 and §5.2).
//!
//! The paper decouples Pregel's `compute()` so the same user logic can be
//! driven by push and by (b-)pull:
//!
//! * `update(v, M_I(v)) → v'` — shared by every mode ([`VertexProgram::update`]),
//! * `pushRes(v') → M_O(v)` / `pullRes(v) → M_O(v)` — both reduce to the
//!   per-edge generator [`VertexProgram::message`] applied to a vertex
//!   whose responding flag is set; push calls it immediately after
//!   `update()`, b-pull calls it on demand in the next superstep,
//! * `load(…) → M_I(v)` — engine-side (the push message store).
//!
//! A vertex signals `setResFlag` by returning [`Update::respond`] = true.

use hybridgraph_graph::{Edge, VertexId};
use hybridgraph_net::Combiner;
use hybridgraph_storage::Record;

/// Global facts a program may use (vertex/edge totals, e.g. PageRank's
/// `1/N` terms).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GraphInfo {
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// Total directed edges in the graph.
    pub num_edges: u64,
}

/// The result of one `update()` call.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Update<V> {
    /// The vertex's new value.
    pub value: V,
    /// True to set the responding flag: the vertex will send messages —
    /// immediately in push, on demand next superstep in (b-)pull.
    pub respond: bool,
}

impl<V> Update<V> {
    /// New value, responding.
    pub fn respond(value: V) -> Self {
        Update {
            value,
            respond: true,
        }
    }

    /// New value, staying silent.
    pub fn halt(value: V) -> Self {
        Update {
            value,
            respond: false,
        }
    }
}

/// A vertex-centric iterative graph algorithm.
///
/// Implementations must be deterministic, and `update` may not depend on
/// the *order* of `msgs` beyond float rounding. Every mode delivers a
/// vertex's messages in staged order — sender worker id, then send
/// order — so a run repeats bit for bit; but combiners and pushM's
/// online accumulators change which messages arrive. The cross-mode
/// equivalence tests rely on this.
pub trait VertexProgram: Send + Sync + 'static {
    /// Per-vertex state (the paper's `val`), fixed-width on disk.
    type Value: Record + PartialEq + std::fmt::Debug;
    /// Message payload, fixed-width on the wire and on disk.
    type Message: Record + PartialEq + std::fmt::Debug;

    /// Human-readable algorithm name (figure labels).
    fn name(&self) -> &'static str;

    /// Initial value of `v`, written during graph loading.
    fn init(&self, v: VertexId, info: &GraphInfo) -> Self::Value;

    /// Whether `v` computes in superstep 1 (before any messages exist).
    /// Defaults to every vertex (Always-Active-style algorithms).
    fn initially_active(&self, v: VertexId, info: &GraphInfo) -> bool {
        let _ = (v, info);
        true
    }

    /// The shared `update()` of §5.2: consume `msgs`, produce the new
    /// value and the responding flag. `superstep` starts at 1; in
    /// superstep 1 `msgs` is always empty.
    fn update(
        &self,
        v: VertexId,
        info: &GraphInfo,
        superstep: u64,
        current: &Self::Value,
        msgs: &[Self::Message],
    ) -> Update<Self::Value>;

    /// The per-edge message generator shared by `pushRes` and `pullRes`:
    /// the message a responding `src` with `value` sends along `edge`.
    /// `out_degree` is `src`'s out-degree (PageRank divides by it).
    fn message(
        &self,
        src: VertexId,
        value: &Self::Value,
        out_degree: u32,
        edge: &Edge,
    ) -> Option<Self::Message>;

    /// The message combiner, if messages are commutative and associative.
    /// Programs without one (LPA, SA) can only be concatenated, which also
    /// rules out the `PushM` mode and switches Vblock sizing to Eq. 6.
    fn combiner(&self) -> Option<&dyn Combiner<Self::Message>> {
        None
    }

    /// Fixed superstep budget (e.g. PageRank's `maxNum`); `None` runs
    /// until convergence (no responders and no pending messages).
    fn max_supersteps(&self) -> Option<u64> {
        None
    }

    /// Scalar change magnitude of one `update()` call, driving `Async`
    /// mode's per-block pseudo-round cutoff and — when [`Self::tolerance`]
    /// is set — the job-level convergence test. The default treats any
    /// value change as residual 1 and an unchanged value as 0, which is
    /// exact for discrete programs (LPA, WCC); numeric programs override
    /// it with a metric like `|new − old|`.
    fn residual(&self, old: &Self::Value, new: &Self::Value) -> f64 {
        if old == new {
            0.0
        } else {
            1.0
        }
    }

    /// Job-level convergence tolerance: when `Some(eps)`, the master also
    /// terminates once the superstep's maximum [`Self::residual`] over
    /// all updated vertices is at or below `eps`. `None` (the default)
    /// keeps the classic rule (no responders and no pending messages, or
    /// the superstep budget) — existing programs run exactly as before.
    fn tolerance(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;

    impl VertexProgram for Noop {
        type Value = u32;
        type Message = u32;

        fn name(&self) -> &'static str {
            "noop"
        }

        fn init(&self, v: VertexId, _info: &GraphInfo) -> u32 {
            v.0
        }

        fn update(
            &self,
            _v: VertexId,
            _info: &GraphInfo,
            _superstep: u64,
            current: &u32,
            _msgs: &[u32],
        ) -> Update<u32> {
            Update::halt(*current)
        }

        fn message(&self, _s: VertexId, _v: &u32, _d: u32, _e: &Edge) -> Option<u32> {
            None
        }
    }

    #[test]
    fn defaults() {
        let p = Noop;
        let info = GraphInfo {
            num_vertices: 4,
            num_edges: 2,
        };
        assert!(p.initially_active(VertexId(0), &info));
        assert!(p.combiner().is_none());
        assert!(p.max_supersteps().is_none());
        assert_eq!(p.init(VertexId(3), &info), 3);
        assert_eq!(p.residual(&7, &7), 0.0);
        assert_eq!(p.residual(&7, &8), 1.0);
        assert!(p.tolerance().is_none());
    }

    #[test]
    fn update_constructors() {
        assert!(Update::respond(1u32).respond);
        assert!(!Update::halt(1u32).respond);
    }
}
