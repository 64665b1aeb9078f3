//! Simulated-disk substrate for HybridGraph.
//!
//! The paper's evaluation runs on two clusters whose disks differ only in
//! the four throughput numbers of Table 3 (random-read, random-write and
//! sequential-read MB/s, plus network MB/s). Its entire analysis — Eqs. 7,
//! 8 and the switching metric `Q_t` of Eq. 11 — is expressed in *bytes per
//! access class* divided by those throughputs.
//!
//! This crate therefore reproduces the disk as an accounting substrate:
//!
//! * [`profile`] — device throughput profiles (Table 3 presets),
//! * [`stats`] — atomic byte/op counters per access class and the modeled
//!   elapsed-time computation,
//! * [`vfs`] — a minimal virtual file system (in-memory and real-directory
//!   backends) through which every store routes its bytes,
//! * [`record`](mod@record) — fixed-size value/message serialization,
//! * [`value_store`] — the per-worker vertex-value segment,
//! * [`extent`] — the one extent file (writer, Elias-Fano directory,
//!   per-extent coded read, fragment-stream parser) under the three
//!   edge stores:
//! * [`adjacency`] — the push-side adjacency-list layout,
//! * [`veblock`] — the paper's VE-BLOCK layout (Vblocks, Eblocks,
//!   fragments, per-block metadata `X_j`),
//! * [`gather`] — the destination-grouped layout of the per-vertex pull
//!   baseline,
//! * [`msg_store`] — the push receiver-side message buffer with spill,
//! * [`inbox`] — a superstep's messages grouped by destination (CSR-shaped),
//!   what every executor's `update()` loop reads,
//! * [`lru`] — the LRU vertex cache used by the per-vertex pull baseline,
//! * [`segment`] — the per-superstep files of the engine's fault
//!   tolerance: worker checkpoints and the sender-side message-log
//!   segments of Pregel-style confined recovery (one classified
//!   sequential write each),
//! * [`shared_cache`] — the cross-job byte-weighted edge-extent cache for
//!   the multi-tenant service, with per-requesting-job attribution,
//! * [`service_log`] — the append-only write-ahead log the durable
//!   service persists its control-plane state through (torn-tail
//!   healing, codec-aware).
//!
//! The byte layouts of the last three are `hybridgraph_codec::frame`'s;
//! the modules here own file naming, the `Vfs` calls and the I/O
//! accounting.

pub mod adjacency;
pub mod extent;
pub mod gather;
pub mod inbox;
pub mod lru;
pub mod msg_store;
pub mod profile;
pub mod record;
pub mod segment;
pub mod service_log;
pub mod shared_cache;
pub mod stats;
pub mod value_store;
pub mod veblock;
pub mod vfs;

pub use hybridgraph_codec::{
    frame, record, tagged, CodecChoice, CodecError, ExtentKind, FragmentColumns,
};
pub use profile::DeviceProfile;
pub use record::Record;
pub use segment::{CheckpointReader, CheckpointWriter, MsgLogReader, MsgLogWriter};
pub use service_log::{
    decode_graph, encode_graph, LogRecord, PayloadReader, PayloadWriter, ServiceLog,
};
pub use shared_cache::{
    CacheEntry, CacheSnapshot, ShardSnapshot, SharedCacheStats, SharedEdgeCache,
    CACHE_ENTRY_OVERHEAD,
};
pub use stats::{AccessClass, IoSnapshot, IoStats};
pub use vfs::{DirVfs, MemVfs, PrefixVfs, Vfs, VfsFile};
