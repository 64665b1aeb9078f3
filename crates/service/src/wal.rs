//! Service write-ahead-log records and their declared layout.
//!
//! The durable [`GraphService`](crate::GraphService) appends one record
//! per state transition to a [`ServiceLog`] on its VFS. Replaying the
//! records in commit order rebuilds the whole control plane — catalog,
//! admission queue, per-job master snapshots, shared-cache contents —
//! without re-parsing any graph source:
//!
//! | kind | record | meaning |
//! |------|--------|---------|
//! | 1 | `GraphRegistered` | name, id, spec and the full graph blob |
//! | 2 | `GraphEvicted` | registration withdrawn; drop it on replay |
//! | 3 | `JobAdmitted` | a job id was assigned for a graph |
//! | 4 | `JobStarted` | the job left the queue and holds a lane |
//! | 5 | `JobBarrier` | durable superstep cut: master snapshot + lane vtime + cache |
//! | 6 | `JobFinished` | the job is over (any outcome); final cache state |
//!
//! The kind is the log record's own kind byte; the body is the variant's
//! fields. Barrier and finish records carry a [`CacheSnapshot`] so the
//! shared edge cache resumes with the exact hit/miss/recency state it had
//! at the last durable cut — the post-restart `io_ratio` of a resumed run
//! then matches the uninterrupted run byte for byte.
//!
//! Replay re-registers graphs under their original ids, re-queues a job
//! that was admitted but never started, and resumes a started one from
//! its last `JobBarrier` through the engine's global-rollback path, its
//! lane rejoining the scheduler at the recorded virtual time. A lost
//! `JobStarted` or `JobFinished` append is harmless (the job re-queues
//! or re-runs to the same bytes), so only `JobAdmitted` and `JobBarrier`
//! appends fail the caller. `tests/service_restart.rs` kills the master
//! at every [`MasterKillPoint`] across seeds and requires the restored
//! run to match the uninterrupted one byte for byte.
//!
//! [`MasterKillPoint`]: hybridgraph_core::MasterKillPoint
//!
//! [`ServiceLog`]: hybridgraph_storage::ServiceLog

use hybridgraph_graph::Graph;
use hybridgraph_storage::frame::{Field, PayloadReader, PayloadWriter, Via};
use hybridgraph_storage::{decode_graph, encode_graph, tagged, CacheSnapshot};
use std::io;
use std::sync::Arc;

use crate::catalog::GraphSpec;

/// One service-log record.
#[derive(Debug)]
pub enum WalRecord {
    /// A graph entered the catalog.
    GraphRegistered {
        /// Registration name.
        name: String,
        /// Catalog id (embedded in shared-cache extent keys).
        id: u32,
        /// Store layout the graph was built with.
        spec: GraphSpec,
        /// The graph itself, stored as its `encode_graph` blob.
        graph: Arc<Graph>,
    },
    /// A graph left the catalog.
    GraphEvicted {
        /// Registration name.
        name: String,
        /// Catalog id it held.
        id: u32,
    },
    /// A job id was assigned.
    JobAdmitted {
        /// Assigned job id.
        job_id: u64,
        /// Graph the job runs over.
        graph: String,
    },
    /// The job left the admission queue and holds a scheduler lane.
    JobStarted {
        /// Job id.
        job_id: u64,
    },
    /// A durable superstep cut.
    JobBarrier {
        /// Job id.
        job_id: u64,
        /// Superstep the cut covers.
        superstep: u64,
        /// The job lane's virtual time at the cut.
        lane_vtime: f64,
        /// Encoded [`MasterState`](hybridgraph_core::MasterState).
        state: Vec<u8>,
        /// Shared edge cache at the cut.
        cache: CacheSnapshot,
    },
    /// The job completed (success or permanent failure).
    JobFinished {
        /// Job id.
        job_id: u64,
        /// Shared edge cache after the job's last access.
        cache: CacheSnapshot,
    },
}

tagged! { WalRecord {
    1 => GraphRegistered { name, id, spec, graph via Arc<GraphBlob> },
    2 => GraphEvicted { name, id },
    3 => JobAdmitted { job_id, graph },
    4 => JobStarted { job_id },
    5 => JobBarrier { job_id, superstep, lane_vtime, state, cache },
    6 => JobFinished { job_id, cache },
} }

/// A graph as its length-prefixed `encode_graph` blob.
struct GraphBlob;

impl Via<Graph> for GraphBlob {
    const MIN_BYTES: usize = 8;
    fn put(graph: &Graph, w: &mut PayloadWriter) {
        encode_graph(graph).put(w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Graph> {
        decode_graph(&Vec::<u8>::get(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_graph::{Edge, VertexId};
    use hybridgraph_storage::frame::{decode_tagged, encode_tagged};
    use hybridgraph_storage::{CacheEntry, CodecChoice, ShardSnapshot};

    fn sample_cache() -> CacheSnapshot {
        let entry = |key, edges, weight| CacheEntry {
            key,
            weight,
            edges: Arc::new(edges),
        };
        CacheSnapshot {
            shards: vec![
                ShardSnapshot {
                    entries: vec![
                        entry((3, 9), vec![Edge::weighted(VertexId(4), 2.5)], 48),
                        entry((3, 1), Vec::new(), 32),
                    ],
                    hits: 11,
                    misses: 5,
                    evictions: 2,
                },
                ShardSnapshot {
                    entries: Vec::new(),
                    hits: 0,
                    misses: 1,
                    evictions: 0,
                },
            ],
        }
    }

    fn assert_cache_eq(a: &CacheSnapshot, b: &CacheSnapshot) {
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.hits, y.hits);
            assert_eq!(x.misses, y.misses);
            assert_eq!(x.evictions, y.evictions);
            assert_eq!(x.entries.len(), y.entries.len());
            for (a, b) in x.entries.iter().zip(&y.entries) {
                assert_eq!((a.key, a.weight), (b.key, b.weight));
                assert_eq!(a.edges.as_slice(), b.edges.as_slice());
            }
        }
    }

    fn roundtrip(rec: &WalRecord) -> WalRecord {
        let (kind, body) = encode_tagged(rec);
        decode_tagged(kind, &body).unwrap()
    }

    #[test]
    fn graph_registration_roundtrips() {
        let g = Graph::from_parts(
            vec![0, 2, 3],
            vec![
                Edge::weighted(VertexId(1), 1.0),
                Edge::weighted(VertexId(0), 0.5),
                Edge::weighted(VertexId(0), 2.0),
            ],
        );
        let spec = GraphSpec::new(2)
            .with_codec(CodecChoice::Gaps)
            .with_vblocks(3);
        let rec = WalRecord::GraphRegistered {
            name: "ring".into(),
            id: 7,
            spec,
            graph: Arc::new(g),
        };
        match roundtrip(&rec) {
            WalRecord::GraphRegistered {
                name,
                id,
                spec,
                graph,
            } => {
                assert_eq!(name, "ring");
                assert_eq!(id, 7);
                assert_eq!(spec.workers, 2);
                assert_eq!(spec.codec, CodecChoice::Gaps);
                assert_eq!(spec.vblocks_per_worker, 3);
                assert_eq!(graph.num_vertices(), 2);
                assert_eq!(graph.num_edges(), 3);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn barrier_record_roundtrips_cache_exactly() {
        let cache = sample_cache();
        let rec = WalRecord::JobBarrier {
            job_id: 42,
            superstep: 6,
            lane_vtime: 1.25,
            state: b"master-bytes".to_vec(),
            cache: cache.clone(),
        };
        match roundtrip(&rec) {
            WalRecord::JobBarrier {
                job_id,
                superstep,
                lane_vtime,
                state,
                cache: got,
            } => {
                assert_eq!(job_id, 42);
                assert_eq!(superstep, 6);
                assert_eq!(lane_vtime, 1.25);
                assert_eq!(state, b"master-bytes");
                assert_cache_eq(&cache, &got);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_rejected() {
        assert!(decode_tagged::<WalRecord>(99, &[]).is_err());

        let (kind, mut body) = encode_tagged(&WalRecord::JobStarted { job_id: 3 });
        body.push(0);
        assert!(decode_tagged::<WalRecord>(kind, &body).is_err());

        // A catalog payload carrying a codec tag no choice owns any more.
        let (kind, mut body) = encode_tagged(&WalRecord::GraphRegistered {
            name: "g".into(),
            id: 0,
            spec: GraphSpec::new(1).with_codec(CodecChoice::Bv),
            graph: Arc::new(Graph::empty(1)),
        });
        let tag_at = 8 + 1 + 4 + 4;
        assert_eq!(body[tag_at], CodecChoice::Bv.tag());
        for retired in [2, 3] {
            body[tag_at] = retired;
            let err = decode_tagged::<WalRecord>(kind, &body).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
