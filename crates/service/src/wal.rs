//! Service write-ahead-log record kinds and their payload codecs.
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
//! Barrier and finish records carry a [`CacheSnapshot`] so the shared
//! edge cache resumes with the exact hit/miss/recency state it had at
//! the last durable cut — the post-restart `io_ratio` of a resumed run
//! then matches the uninterrupted run byte for byte.

use hybridgraph_graph::{Edge, Graph, VertexId};
use hybridgraph_storage::shared_cache::ExtentKey;
use hybridgraph_storage::{
    codec_from_tag, codec_tag, decode_graph, encode_graph, CacheSnapshot, LogRecord, PayloadReader,
    PayloadWriter, ShardSnapshot,
};
use std::io;
use std::sync::Arc;

use crate::catalog::GraphSpec;

/// Kind byte of a [`WalRecord::GraphRegistered`] record.
pub const KIND_GRAPH_REGISTERED: u8 = 1;
/// Kind byte of a [`WalRecord::GraphEvicted`] record.
pub const KIND_GRAPH_EVICTED: u8 = 2;
/// Kind byte of a [`WalRecord::JobAdmitted`] record.
pub const KIND_JOB_ADMITTED: u8 = 3;
/// Kind byte of a [`WalRecord::JobStarted`] record.
pub const KIND_JOB_STARTED: u8 = 4;
/// Kind byte of a [`WalRecord::JobBarrier`] record.
pub const KIND_JOB_BARRIER: u8 = 5;
/// Kind byte of a [`WalRecord::JobFinished`] record.
pub const KIND_JOB_FINISHED: u8 = 6;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt service record: {what}"),
    )
}

/// One decoded service-log record.
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
        /// The graph itself, decoded from the record's blob.
        graph: Graph,
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

/// Encodes a graph-registration payload.
pub fn encode_graph_registered(name: &str, id: u32, spec: &GraphSpec, graph: &Graph) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_str(name);
    w.put_u32(id);
    w.put_u32(spec.workers as u32);
    w.put_u8(codec_tag(spec.codec));
    w.put_u32(spec.vblocks_per_worker as u32);
    w.put_bytes(&encode_graph(graph));
    w.into_bytes()
}

/// Encodes a graph-eviction payload.
pub fn encode_graph_evicted(name: &str, id: u32) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_str(name);
    w.put_u32(id);
    w.into_bytes()
}

/// Encodes a job-admission payload.
pub fn encode_job_admitted(job_id: u64, graph: &str) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(job_id);
    w.put_str(graph);
    w.into_bytes()
}

/// Encodes a job-start payload.
pub fn encode_job_started(job_id: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(job_id);
    w.into_bytes()
}

/// Encodes a durable-barrier payload.
pub fn encode_job_barrier(
    job_id: u64,
    superstep: u64,
    lane_vtime: f64,
    state: &[u8],
    cache: &CacheSnapshot,
) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(job_id);
    w.put_u64(superstep);
    w.put_f64(lane_vtime);
    w.put_bytes(state);
    put_cache(&mut w, cache);
    w.into_bytes()
}

/// Encodes a job-completion payload.
pub fn encode_job_finished(job_id: u64, cache: &CacheSnapshot) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(job_id);
    put_cache(&mut w, cache);
    w.into_bytes()
}

/// Decodes one replayed log record into its typed form.
pub fn decode_record(rec: &LogRecord) -> io::Result<WalRecord> {
    let mut r = PayloadReader::new(&rec.body);
    let out = match rec.kind {
        KIND_GRAPH_REGISTERED => {
            let name = r.get_str()?;
            let id = r.get_u32()?;
            let workers = r.get_u32()? as usize;
            let codec = codec_from_tag(r.get_u8()?)?;
            let vblocks = r.get_u32()? as usize;
            let graph = decode_graph(&r.get_bytes()?)?;
            WalRecord::GraphRegistered {
                name,
                id,
                spec: GraphSpec::new(workers)
                    .with_codec(codec)
                    .with_vblocks(vblocks),
                graph,
            }
        }
        KIND_GRAPH_EVICTED => WalRecord::GraphEvicted {
            name: r.get_str()?,
            id: r.get_u32()?,
        },
        KIND_JOB_ADMITTED => WalRecord::JobAdmitted {
            job_id: r.get_u64()?,
            graph: r.get_str()?,
        },
        KIND_JOB_STARTED => WalRecord::JobStarted {
            job_id: r.get_u64()?,
        },
        KIND_JOB_BARRIER => WalRecord::JobBarrier {
            job_id: r.get_u64()?,
            superstep: r.get_u64()?,
            lane_vtime: r.get_f64()?,
            state: r.get_bytes()?,
            cache: get_cache(&mut r)?,
        },
        KIND_JOB_FINISHED => WalRecord::JobFinished {
            job_id: r.get_u64()?,
            cache: get_cache(&mut r)?,
        },
        k => return Err(corrupt(&format!("unknown record kind {k}"))),
    };
    if !r.done() {
        return Err(corrupt("trailing bytes after record payload"));
    }
    Ok(out)
}

/// Serializes a shared-cache snapshot: per shard the MRU-ordered entries
/// (extent key, weight, edge run) plus the hit/miss/eviction counters.
fn put_cache(w: &mut PayloadWriter, snap: &CacheSnapshot) {
    w.put_u64(snap.shards.len() as u64);
    for shard in &snap.shards {
        w.put_u64(shard.hits);
        w.put_u64(shard.misses);
        w.put_u64(shard.evictions);
        w.put_u64(shard.entries.len() as u64);
        for ((graph, extent), edges, weight) in &shard.entries {
            w.put_u32(*graph);
            w.put_u32(*extent);
            w.put_u64(*weight as u64);
            w.put_u64(edges.len() as u64);
            for e in edges.iter() {
                w.put_u32(e.dst.0);
                w.put_u32(e.weight.to_bits());
            }
        }
    }
}

fn get_cache(r: &mut PayloadReader<'_>) -> io::Result<CacheSnapshot> {
    let nshards = r.get_count(4 * 8)?;
    let mut shards = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let hits = r.get_u64()?;
        let misses = r.get_u64()?;
        let evictions = r.get_u64()?;
        let nentries = r.get_count(4 + 4 + 8 + 8)?;
        let mut entries: Vec<(ExtentKey, Arc<Vec<Edge>>, usize)> = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            let graph = r.get_u32()?;
            let extent = r.get_u32()?;
            let weight = r.get_u64()? as usize;
            let nedges = r.get_count(4 + 4)?;
            let mut edges = Vec::with_capacity(nedges);
            for _ in 0..nedges {
                let dst = r.get_u32()?;
                let bits = r.get_u32()?;
                edges.push(Edge::weighted(VertexId(dst), f32::from_bits(bits)));
            }
            entries.push(((graph, extent), Arc::new(edges), weight));
        }
        shards.push(ShardSnapshot {
            entries,
            hits,
            misses,
            evictions,
        });
    }
    Ok(CacheSnapshot { shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_storage::CodecChoice;

    fn sample_cache() -> CacheSnapshot {
        CacheSnapshot {
            shards: vec![
                ShardSnapshot {
                    entries: vec![
                        ((3, 9), Arc::new(vec![Edge::weighted(VertexId(4), 2.5)]), 48),
                        ((3, 1), Arc::new(Vec::new()), 32),
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
            for ((ka, ea, wa), (kb, eb, wb)) in x.entries.iter().zip(&y.entries) {
                assert_eq!(ka, kb);
                assert_eq!(wa, wb);
                assert_eq!(ea.as_slice(), eb.as_slice());
            }
        }
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
        let body = encode_graph_registered("ring", 7, &spec, &g);
        let rec = LogRecord {
            kind: KIND_GRAPH_REGISTERED,
            body,
        };
        match decode_record(&rec).unwrap() {
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
        let body = encode_job_barrier(42, 6, 1.25, b"master-bytes", &cache);
        let rec = LogRecord {
            kind: KIND_JOB_BARRIER,
            body,
        };
        match decode_record(&rec).unwrap() {
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
        let rec = LogRecord {
            kind: 99,
            body: Vec::new(),
        };
        assert!(decode_record(&rec).is_err());

        let mut body = encode_job_started(3);
        body.push(0);
        let rec = LogRecord {
            kind: KIND_JOB_STARTED,
            body,
        };
        assert!(decode_record(&rec).is_err());

        // A catalog payload carrying a codec tag no choice owns any more.
        let spec = GraphSpec::new(1).with_codec(CodecChoice::Bv);
        let mut body = encode_graph_registered("g", 0, &spec, &Graph::empty(1));
        let tag_at = 8 + 1 + 4 + 4;
        assert_eq!(body[tag_at], CodecChoice::Bv.tag());
        for retired in [2, 3] {
            body[tag_at] = retired;
            let rec = LogRecord {
                kind: KIND_GRAPH_REGISTERED,
                body: body.clone(),
            };
            let err = decode_record(&rec).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
