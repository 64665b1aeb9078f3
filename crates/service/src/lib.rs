//! Multi-tenant graph service: one resident engine, many concurrent
//! deterministic jobs.
//!
//! The paper's engine (and this repro's `run_job`) is single-job: load a
//! graph, iterate, tear down. Real deployments amortize the expensive
//! part — the partitioned, VE-BLOCK-laid-out, possibly compressed on-disk
//! graph — across many analytic jobs. This crate adds that layer while
//! keeping the repro's core invariant intact: **byte-identical
//! replayability**, now across *concurrent* jobs.
//!
//! Three pieces:
//!
//! * [`catalog`] — named, reference-counted registered graphs. Stores are
//!   built once at registration; jobs attach stats-rebinding views so
//!   per-job I/O accounting (and hence per-job `Q_t` switching inputs)
//!   stays exact.
//! * [`scheduler`] — a seeded virtual-time round-robin over job
//!   supersteps with a cohort barrier, making the cross-job superstep
//!   order (and therefore every shared-cache hit/miss/eviction) a pure
//!   function of the submitted jobs and the seed.
//! * [`service`] — [`GraphService`] itself: admission control (resident
//!   slots, bounded queue, clamped per-job logical-I/O and memory
//!   budgets) plus the shared byte-weighted edge cache whose cross-job
//!   interference the `multi_tenant` experiment measures.
//!
//! Two more make the service *durable* (crash-restartable):
//!
//! * [`wal`] — the typed write-ahead-log records a durable service
//!   journals: catalog transitions, admissions, per-job master snapshots
//!   at superstep cuts, shared-cache snapshots.
//! * [`retry`] — typed retry-with-modeled-backoff for transient log I/O
//!   errors, so degradation is graceful and still deterministic.
//!
//! See [`GraphService::new_durable`], [`GraphService::restore`] and
//! [`GraphService::resume_job`] for the crash-restart lifecycle.

pub mod catalog;
pub mod pool;
pub mod retry;
pub mod scheduler;
pub mod service;
pub mod wal;

pub use catalog::{Catalog, CatalogError, GraphSpec, RegisteredGraph};
pub use pool::{EnginePool, PoolRecoveredJob};
pub use retry::RetryPolicy;
pub use scheduler::{LaneHandle, RoundRobinScheduler};
pub use service::{
    AdmissionError, GraphService, JobRequest, JobTicket, RecoveredJob, SchedulingPause,
    ServiceConfig,
};
pub use wal::WalRecord;
