//! # HybridGraph
//!
//! A from-scratch Rust reproduction of *Hybrid Pulling/Pushing for
//! I/O-Efficient Distributed and Iterative Graph Computing* (Wang, Gu,
//! Bao, Yu & Yu — SIGMOD 2016).
//!
//! HybridGraph is a Pregel-style vertex-centric BSP engine whose graph
//! and message data are disk-resident. It implements the paper's two
//! contributions — **b-pull**, a block-centric pulling mechanism over the
//! VE-BLOCK on-disk layout, and **hybrid**, adaptive per-superstep
//! switching between push and b-pull driven by the `Q_t` cost metric —
//! alongside the three comparison strategies (Giraph-style push,
//! MOCgraph-style pushM, and a disk-extended per-vertex pull).
//!
//! ## Quickstart
//!
//! ```
//! use hybridgraph::prelude::*;
//! use std::sync::Arc;
//!
//! // A scaled stand-in for the paper's LiveJournal graph.
//! let graph = Dataset::LiveJ.build_scaled(20_000);
//! // PageRank for 5 supersteps under the hybrid engine, 4 workers,
//! // limited memory (messages past the buffer spill to disk).
//! let cfg = JobConfig::new(Mode::Hybrid, 4).with_buffer(1_000);
//! let result = run_job(Arc::new(PageRank::new(5)), &graph, cfg).unwrap();
//!
//! assert_eq!(result.values.len(), graph.num_vertices());
//! println!(
//!     "{} supersteps, modeled {:.3}s, {} bytes of I/O",
//!     result.metrics.supersteps(),
//!     result.metrics.modeled_total_secs(),
//!     result.metrics.total_io_bytes(),
//! );
//! ```
//!
//! The crates compose bottom-up: [`obs`] (tracing/metrics sink),
//! [`codec`] (on-disk compression), [`graph`] (model + generators +
//! partitioning), [`storage`] (simulated disk, VE-BLOCK), [`net`]
//! (simulated fabric), [`core`] (the engine), [`algos`] (PageRank,
//! SSSP, LPA, SA, WCC), [`service`] (multi-tenant `GraphService`:
//! register graphs once, run many concurrent deterministic jobs),
//! [`gateway`] (network front door: binary wire protocol, RPC
//! server/client, multi-engine dispatch).

pub use hybridgraph_algos as algos;
pub use hybridgraph_codec as codec;
pub use hybridgraph_core as core;
pub use hybridgraph_gateway as gateway;
pub use hybridgraph_graph as graph;
pub use hybridgraph_net as net;
pub use hybridgraph_obs as obs;
pub use hybridgraph_service as service;
pub use hybridgraph_storage as storage;

/// The common imports for applications.
pub mod prelude {
    pub use hybridgraph_algos::{Lpa, PageRank, Sa, Sssp, Wcc};
    pub use hybridgraph_core::{
        run_job, CheckpointPolicy, FaultPhase, FaultPlan, GraphInfo, JobConfig, JobError,
        JobMetrics, JobResult, MasterKillPoint, Mode, NetOverhead, RecoveryMetrics, Update,
        VertexProgram,
    };
    pub use hybridgraph_gateway::{
        GatewayClient, GatewayConfig, GatewayServer, LoopbackTransport, TcpTransport,
    };
    pub use hybridgraph_graph::{
        Dataset, Edge, Graph, GraphBuilder, Partition, VertexId, WorkerId,
    };
    pub use hybridgraph_net::{LinkFault, NetFaultPlan};
    pub use hybridgraph_obs::{
        export_chrome_trace, export_prometheus, render_table, validate_json, TraceSink,
    };
    pub use hybridgraph_service::{
        AdmissionError, CatalogError, EnginePool, GraphService, GraphSpec, JobRequest,
        RecoveredJob, ServiceConfig,
    };
    pub use hybridgraph_storage::{CodecChoice, DeviceProfile, MemVfs, Vfs};
}

/// README.md's Rust blocks, run as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
