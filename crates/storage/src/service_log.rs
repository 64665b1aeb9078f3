//! Append-only write-ahead log for the durable `GraphService`.
//!
//! GraphD (Yan et al.) restarts a small-cluster out-of-core engine cheaply
//! because everything that matters is already on disk and the volatile
//! rest is covered by lightweight logging. The service layer follows the
//! same recipe: graph payloads, checkpoints and spill files already live
//! on the VFS, so durability only needs a single append-only log of the
//! *control-plane* state — graph registrations, admissions, and per-job
//! master snapshots cut at superstep barriers.
//!
//! The bytes are [`hybridgraph_codec::frame`]'s append-only record-log
//! layout; the service crate owns record semantics; this module owns the
//! file. Replay scans the log, then truncates the file back to the clean
//! prefix the scan reports — dropping the torn tail of a crash mid-append
//! — so the next append continues from a consistent state. Appends happen
//! in commit order and each record is one classified sequential write; on
//! a real-directory VFS the append is a positional `write_all_at`, so the
//! modeled fsync order *is* the append order. With a non-`None` codec
//! record bodies are blob frames, accounted physical-vs-logical like every
//! other coded write in this crate.

use crate::shared_cache::EdgeLayout;
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::frame::{self, Field, Via};
use hybridgraph_codec::CodecChoice;
use hybridgraph_graph::{Edge, Graph};
use std::io;

pub use hybridgraph_codec::frame::{LogRecord, PayloadReader, PayloadWriter};

/// File magic: `HGSL` little-endian.
pub const SERVICE_LOG_MAGIC: u32 = 0x4c53_4748;
/// The log's VFS file name.
pub const SERVICE_LOG_FILE: &str = "service_log";

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt service log: {what}"),
    )
}

/// An open, append-positioned write-ahead log.
pub struct ServiceLog {
    file: VfsFile,
    codec: CodecChoice,
}

impl ServiceLog {
    /// Creates a fresh (truncated) log on `vfs` and writes the header.
    pub fn create(vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<ServiceLog> {
        let file = vfs.create(SERVICE_LOG_FILE)?;
        file.append(
            AccessClass::SeqWrite,
            &frame::record_log_header(SERVICE_LOG_MAGIC, codec),
        )?;
        Ok(ServiceLog { file, codec })
    }

    /// True if a log exists on `vfs`.
    pub fn exists(vfs: &dyn Vfs) -> bool {
        vfs.exists(SERVICE_LOG_FILE)
    }

    /// Opens an existing log, replays every committed record, truncates
    /// any torn tail left by a crash mid-append, and returns the log
    /// positioned for further appends plus the replayed records in commit
    /// order.
    pub fn open(vfs: &dyn Vfs) -> io::Result<(ServiceLog, Vec<LogRecord>)> {
        let file = vfs.open(SERVICE_LOG_FILE)?;
        let data = file.read_all(AccessClass::SeqRead)?;
        let scan = frame::scan_records(SERVICE_LOG_MAGIC, &data)?;
        if scan.clean_len < data.len() {
            file.truncate_to(scan.clean_len as u64)?;
        }
        // The whole-file read charged logical == physical; top up to the
        // decoded logical size (coded logs only).
        vfs.stats()
            .record_logical(AccessClass::SeqRead, scan.decoded_extra);
        let codec = scan.codec;
        Ok((ServiceLog { file, codec }, scan.records))
    }

    /// The codec every record body is wrapped with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }

    /// Appends one record as a single classified sequential write and
    /// returns the physical bytes written. The record is committed by its
    /// trailing length word — a crash before the append completes leaves
    /// a torn tail that [`ServiceLog::open`] discards.
    pub fn append(&self, kind: u8, body: &[u8]) -> io::Result<u64> {
        let mut rec = PayloadWriter::new();
        let logical = frame::push_record(&mut rec, kind, body, self.codec);
        self.file
            .append_coded(AccessClass::SeqWrite, rec.as_bytes(), logical)?;
        Ok(rec.len() as u64)
    }

    /// Current log length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.file.len()
    }
}

// ------------------------------------------------------- graph payloads

/// A graph as a registration record carries it, so a restore rebuilds
/// the CSR without re-parsing any source: `n u64 | m u64 | out-degree u32
/// per vertex | m edges` in [`EdgeLayout`]. The bytes may come from a
/// gateway client: both counts are bounded by the blob before anything
/// is allocated for them, the degrees must sum to `m`, and an edge must
/// point inside the graph.
pub struct GraphLayout;

impl Via<Graph> for GraphLayout {
    const MIN_BYTES: usize = 16;
    fn put(g: &Graph, w: &mut PayloadWriter) {
        g.num_vertices().put(w);
        g.num_edges().put(w);
        for v in g.vertices() {
            (g.out_degree(v) as u32).put(w);
        }
        for (_, e) in g.edges() {
            EdgeLayout::put(&e, w);
        }
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Graph> {
        let n = r.get_count(4)?;
        let m = r.get_count(8)?;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut sum = 0u64;
        offsets.push(sum);
        for _ in 0..n {
            sum += u64::from(u32::get(r)?);
            if sum > m as u64 {
                return Err(corrupt("out-degrees exceed the edge count"));
            }
            offsets.push(sum);
        }
        if sum != m as u64 {
            return Err(corrupt("out-degrees do not sum to the edge count"));
        }
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let e: Edge = EdgeLayout::get(r)?;
            if e.dst.index() >= n {
                return Err(corrupt("edge to a vertex outside the graph"));
            }
            edges.push(e);
        }
        Ok(Graph::from_parts(offsets, edges))
    }
}

/// The [`GraphLayout`] bytes of `g`.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    GraphLayout::put(g, &mut w);
    w.into_bytes()
}

/// Reads a graph from [`encode_graph`] bytes, which it must fill exactly.
pub fn decode_graph(buf: &[u8]) -> io::Result<Graph> {
    frame::decode_via::<GraphLayout, Graph>(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::{Edge, VertexId};

    #[test]
    fn roundtrip_records_in_commit_order() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::None).unwrap();
        log.append(1, b"first").unwrap();
        log.append(2, b"").unwrap();
        log.append(1, b"third").unwrap();

        let (log, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(
            recs,
            vec![
                LogRecord {
                    kind: 1,
                    body: b"first".to_vec()
                },
                LogRecord {
                    kind: 2,
                    body: Vec::new()
                },
                LogRecord {
                    kind: 1,
                    body: b"third".to_vec()
                },
            ]
        );
        // The reopened log keeps appending after the clean tail.
        log.append(3, b"fourth").unwrap();
        let (_, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[3].kind, 3);
    }

    #[test]
    fn torn_tail_is_discarded_and_healed() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::None).unwrap();
        log.append(1, b"committed").unwrap();
        let clean_len = log.len_bytes();
        log.append(2, b"torn-record-body").unwrap();
        // Simulate a crash mid-append: chop into the last record.
        let file = vfs.open(SERVICE_LOG_FILE).unwrap();
        file.truncate_to(log.len_bytes() - 9).unwrap();

        let (log, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 1, "only the committed record survives");
        assert_eq!(recs[0].body, b"committed");
        assert_eq!(log.len_bytes(), clean_len, "tail truncated to clean prefix");
        // Appending after the heal produces a fully consistent log.
        log.append(3, b"after-heal").unwrap();
        let (_, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].body, b"after-heal");
    }

    #[test]
    fn torn_trailer_is_discarded() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::None).unwrap();
        log.append(1, b"ok").unwrap();
        log.append(2, b"no-trailer").unwrap();
        let file = vfs.open(SERVICE_LOG_FILE).unwrap();
        // Chop exactly the commit trailer off the final record.
        file.truncate_to(log.len_bytes() - 8).unwrap();
        let (_, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn coded_log_roundtrips_and_accounts_both_sides() {
        let vfs = MemVfs::new();
        let log = ServiceLog::create(&vfs, CodecChoice::Bv).unwrap();
        let body = vec![7u8; 4096]; // highly compressible
        let physical = log.append(4, &body).unwrap();
        assert!(
            physical < body.len() as u64,
            "coded record must shrink this body"
        );
        let snap = vfs.stats().snapshot();
        assert!(snap.seq_write_logical_bytes > snap.seq_write_bytes);

        let (log, recs) = ServiceLog::open(&vfs).unwrap();
        assert_eq!(log.codec(), CodecChoice::Bv);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, 4);
        assert_eq!(recs[0].body, body);
        let snap = vfs.stats().snapshot();
        assert!(snap.seq_read_logical_bytes > snap.seq_read_bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        let vfs = MemVfs::new();
        vfs.create(SERVICE_LOG_FILE)
            .unwrap()
            .append(AccessClass::SeqWrite, b"not a log at all")
            .unwrap();
        assert!(ServiceLog::open(&vfs).is_err());

        // A good header but for a codec tag no choice owns any more.
        for retired in [2u8, 3] {
            let vfs = MemVfs::new();
            ServiceLog::create(&vfs, CodecChoice::Bv).unwrap();
            let file = vfs.open(SERVICE_LOG_FILE).unwrap();
            let mut header = file.read_all(AccessClass::SeqRead).unwrap();
            assert_eq!(header[8], CodecChoice::Bv.tag());
            header[8] = retired;
            vfs.create(SERVICE_LOG_FILE)
                .unwrap()
                .append(AccessClass::SeqWrite, &header)
                .unwrap();
            let err = ServiceLog::open(&vfs).err().expect("retired codec tag");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn graph_blob_roundtrip() {
        let offsets = vec![0u64, 2, 2, 5];
        let edges = vec![
            Edge::weighted(VertexId(1), 1.0),
            Edge::weighted(VertexId(2), 0.5),
            Edge::weighted(VertexId(0), 2.0),
            Edge::weighted(VertexId(1), -1.5),
            Edge::weighted(VertexId(2), 0.0),
        ];
        let g = Graph::from_parts(offsets, edges);
        let blob = encode_graph(&g);
        let h = decode_graph(&blob).unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(h.out_edges(v), g.out_edges(v));
        }
        assert!(decode_graph(&blob[..blob.len() - 1]).is_err());
    }
}
