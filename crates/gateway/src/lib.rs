//! Network front door for the HybridGraph service.
//!
//! This crate turns the in-process [`GraphService`] engine into a
//! networked system without giving up any of the repo's determinism
//! guarantees:
//!
//! * [`wire`] — a length-prefixed, versioned binary frame layer
//!   (`HGWP` magic, LEB128 varint lengths reusing `hybridgraph-codec`,
//!   torn-frame rejection, max-frame caps checked before allocation).
//! * [`proto`] — the request/response messages those frames carry:
//!   RegisterGraph (spec or inline blob), Submit / SubmitBatch,
//!   JobStatus, Subscribe (streamed superstep progress), FetchResults,
//!   Evict, Metrics, Shutdown. Every engine error crosses the wire as a
//!   stable `(domain, code)` pair.
//! * [`transport`] — one [`Transport`] trait, two carriers: a
//!   deterministic in-process loopback and real TCP with read timeouts.
//! * [`server`] — [`GatewayServer`]: accept loop, per-connection
//!   handler threads, dispatch into an [`EnginePool`] of N independent
//!   engines with deterministic hash placement.
//! * [`client`] — [`GatewayClient`]: the typed client library used by
//!   the `repro client` CLI, tests, and benches.
//! * [`metrics`] — frame/byte counters and per-engine queue depths,
//!   exported in Prometheus text format via `hybridgraph-obs`.
//!
//! Determinism: progress streaming is observation-only (events are
//! emitted after the engine's virtual-time pacer has already released
//! each superstep), and engine 0 of a pool keeps the base seed, so a
//! job submitted through the gateway over loopback produces values,
//! audit records, and traces byte-identical to calling
//! `GraphService::submit` directly (`tests/gateway.rs` checks it, over
//! TCP as well). A two-engine gateway, in process:
//!
//! ```
//! use hybridgraph_gateway::{GatewayClient, GatewayConfig, GatewayServer, LoopbackTransport};
//! use hybridgraph_gateway::{JobOptions, ProgramSpec};
//! use hybridgraph_graph::Dataset;
//! use hybridgraph_service::{EnginePool, ServiceConfig};
//! use hybridgraph_storage::CodecChoice;
//!
//! let pool = EnginePool::new(ServiceConfig::default(), 2);
//! let server = GatewayServer::new(pool, GatewayConfig::default());
//! let transport = LoopbackTransport::new();
//! let handle = server.serve(transport.clone());
//!
//! let mut client = GatewayClient::connect_loopback(&transport)?;
//! let graph = Dataset::LiveJ.build_scaled(2_000);
//! client.register_graph("social", &graph, 5, 1, CodecChoice::None)?;
//! let program = ProgramSpec::PageRank { supersteps: 5 };
//! let job = client.submit("social", program, JobOptions::default())?;
//! let outcome = client.fetch(job)?;
//! assert_eq!(outcome.supersteps, 5);
//! client.shutdown()?;
//! drop(client);
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`GraphService`]: hybridgraph_service::GraphService
//! [`EnginePool`]: hybridgraph_service::EnginePool
//! [`Transport`]: transport::Transport
//! [`GatewayServer`]: server::GatewayServer
//! [`GatewayClient`]: client::GatewayClient

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{ClientError, GatewayClient};
pub use metrics::GatewayMetrics;
pub use proto::{
    ErrorDomain, GraphSource, JobOptions, JobOutcome, JobStatusInfo, ProgramSpec, ProgressEvent,
    RemoteError, Request, Response, SubmitReq, ValueKind,
};
pub use server::{GatewayConfig, GatewayServer, ServerHandle};
pub use transport::{Conn, LoopbackTransport, TcpTransport, Transport};
pub use wire::{Frame, WireError, DEFAULT_MAX_FRAME, MAGIC, VERSION};
