//! Graph model substrate for HybridGraph.
//!
//! This crate provides the data-model layer under the HybridGraph engine:
//!
//! * compact identifiers ([`VertexId`], [`BlockId`], [`WorkerId`]),
//! * an immutable CSR [`Graph`] of out-edges with degree queries,
//! * synthetic graph [`gen`]erators and a [`catalog`] of scaled stand-ins
//!   for the six real-world graphs evaluated in the paper (Table 4),
//! * the range [`partition`]er and Vblock layout used by VE-BLOCK
//!   (paper §4.1 and §4.3, Eqs. 5–6),
//! * text graph [`io`].
//!
//! Everything downstream (storage, network, engine) is written against the
//! types defined here.

pub mod builder;
pub mod catalog;
pub mod csr;
pub mod edge;
pub mod gen;
pub mod ids;
pub mod io;
pub mod partition;
pub mod rng;

pub use builder::GraphBuilder;
pub use catalog::{Dataset, DatasetSpec, StreamSpec};
pub use csr::Graph;
pub use edge::Edge;
pub use ids::{BlockId, VertexId, WorkerId};
pub use partition::{BlockLayout, Partition, VblockInfo};
