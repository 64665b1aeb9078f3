//! The vertex programs evaluated in the paper, plus extensions.
//!
//! * [`PageRank`] — Always-Active-style, combinable (sum). Paper Fig. 3.
//! * [`Sssp`] — single-source shortest paths; Traversal-style, combinable
//!   (min).
//! * [`Lpa`] — label propagation community detection; messages are *not*
//!   commutative (concatenate-only).
//! * [`Sa`] — simulated advertisements on social networks (Mizan's SA);
//!   Traversal-style, concatenate-only.
//! * [`Wcc`] — minimum-label propagation (connected components on
//!   symmetric graphs); an extension beyond the paper's four algorithms.
//!
//! [`reference`](mod@reference) provides a sequential executor with the exact BSP
//! semantics of the engine, used as ground truth by the cross-mode
//! equivalence tests.
//!
//! ## Activation semantics
//!
//! As in the paper's Algorithm 1 (the active-flag vector is "updated from
//! the messages received"), a vertex computes in superstep `t > 1` iff it
//! received at least one message — uniformly in every mode. A vertex with
//! no in-edges therefore keeps its superstep-1 value.

pub mod lpa;
pub mod pagerank;
pub mod reference;
pub mod sa;
pub mod sssp;
pub mod wcc;

pub use lpa::Lpa;
pub use pagerank::PageRank;
pub use sa::Sa;
pub use sssp::Sssp;
pub use wcc::Wcc;
