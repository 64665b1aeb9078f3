//! Sender-side outgoing-message logs for confined recovery.
//!
//! Pregel's confined recovery ("Pregel: a system for large-scale graph
//! processing", §4.2) avoids rolling the whole cluster back to a
//! checkpoint by having every worker *log its outgoing messages* at the
//! end of each superstep. When a worker dies, only that worker reloads
//! its checkpoint; the survivors keep their state and merely re-serve
//! the logged messages while the respawned worker recomputes its own
//! partition. For an out-of-core engine this is exactly the right
//! trade: the log costs one **classified sequential write** per
//! superstep (cheap, append-only, I/O-accounted like everything else),
//! and recovery avoids re-doing every survivor's compute and disk I/O.
//!
//! A log *segment* is one file per `(worker, superstep)` holding the
//! packets that worker sent to **remote** peers during that superstep,
//! in send order. This crate stores them opaquely as
//! `(destination, byte-blob)` entries — the wire format of the blobs
//! belongs to the network layer, which sits above storage. A segment is a
//! sealed file ([`hybridgraph_codec::frame`]) with two id words, the
//! superstep and the entry count, around `(dest u32, len u64, bytes…)*`.
//!
//! The seal lets recovery distinguish a *committed-but-empty*
//! segment (the superstep genuinely produced no remote traffic —
//! possible, e.g. push supersteps with no active vertices) from a
//! *truncated or missing* one, in which case confined recovery is
//! impossible and the engine falls back to a global rollback.
//!
//! Segments at or below a checkpointed superstep can never be replayed
//! (recovery always restarts *after* a checkpoint) and are pruned when
//! the checkpoint commits.

use crate::sealed;
use crate::vfs::Vfs;
use hybridgraph_codec::frame::{PayloadReader, PayloadWriter};
use hybridgraph_codec::CodecChoice;
use std::io;

/// File magic: `HGML` little-endian.
pub const MSG_LOG_MAGIC: u32 = 0x4c4d_4748;

/// `dest u32 | len u64` in front of every entry's blob.
const ENTRY_HEADER_BYTES: usize = 4 + 8;

/// The VFS file name of the log segment for `superstep`.
pub fn msg_log_file_name(superstep: u64) -> String {
    format!("msglog_{superstep:012}")
}

/// True if a committed log segment for `superstep` exists in `vfs`.
pub fn has_log_segment(vfs: &dyn Vfs, superstep: u64) -> bool {
    vfs.exists(&msg_log_file_name(superstep))
}

/// Removes the log segment for `superstep`, if present (pruned once a
/// checkpoint at or after it commits).
pub fn remove_log_segment(vfs: &dyn Vfs, superstep: u64) -> io::Result<()> {
    vfs.remove(&msg_log_file_name(superstep))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt message log: {what}"),
    )
}

/// Accumulates one superstep's outgoing remote packets and commits them
/// as a single classified sequential write.
pub struct MsgLogWriter {
    superstep: u64,
    count: u64,
    entries: PayloadWriter,
}

impl MsgLogWriter {
    /// A writer for the log segment of `superstep`.
    pub fn new(superstep: u64) -> Self {
        MsgLogWriter {
            superstep,
            count: 0,
            entries: PayloadWriter::sealed(2),
        }
    }

    /// Appends one logged packet: its destination worker and its
    /// network-layer encoding.
    pub fn push(&mut self, dest: u32, blob: &[u8]) {
        self.count += 1;
        self.entries.put_u32(dest);
        self.entries.put_bytes(blob);
    }

    /// Entries appended so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if nothing has been appended. An empty segment is still
    /// worth committing: its presence proves the superstep produced no
    /// remote traffic.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Writes the segment to `vfs` as one sequential write and returns
    /// the total bytes written. Any prior segment for the same
    /// superstep is truncated (re-execution after a rollback regenerates
    /// bit-identical traffic, so overwriting is safe).
    pub fn commit(self, vfs: &dyn Vfs) -> io::Result<u64> {
        self.commit_with(vfs, CodecChoice::None)
    }

    /// Like [`MsgLogWriter::commit`], but with a codec the entry body is
    /// wrapped in one blob frame and the write is accounted
    /// physical-vs-logical. Returns the physical bytes written.
    pub fn commit_with(self, vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<u64> {
        sealed::commit(
            vfs,
            &msg_log_file_name(self.superstep),
            MSG_LOG_MAGIC,
            &[self.superstep, self.count],
            self.entries,
            codec,
        )
    }
}

/// Reads back a committed log segment, verifying framing as it goes.
/// Accepts both plain and coded segments — the file itself says which,
/// so replay needs no codec configuration.
pub struct MsgLogReader {
    body: Vec<u8>,
    pos: usize,
    remaining: u64,
    superstep: u64,
}

impl MsgLogReader {
    /// Opens and validates the log segment for `superstep` (one
    /// sequential read of the whole file). Fails on any framing damage,
    /// which recovery treats as "confined recovery unavailable".
    pub fn open(vfs: &dyn Vfs, superstep: u64) -> io::Result<Self> {
        let file = sealed::open(vfs, &msg_log_file_name(superstep), MSG_LOG_MAGIC, 2)?;
        if file.ids[0] != superstep {
            return Err(corrupt("superstep mismatch"));
        }
        let count = file.ids[1];
        if count > (file.body.len() / ENTRY_HEADER_BYTES) as u64 {
            return Err(corrupt("entry count exceeds the segment body"));
        }
        Ok(MsgLogReader {
            body: file.body,
            pos: 0,
            remaining: count,
            superstep,
        })
    }

    /// The superstep this segment logged.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Entries not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next `(destination, blob)` entry, or `None` after the
    /// last one. Errors on framing damage mid-file.
    #[allow(clippy::type_complexity)]
    pub fn next_entry(&mut self) -> io::Result<Option<(u32, Vec<u8>)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut r = PayloadReader::at(&self.body, self.pos);
        let entry = (r.get_u32()?, r.get_bytes()?);
        self.pos = r.pos();
        self.remaining -= 1;
        Ok(Some(entry))
    }

    /// Reads every remaining entry.
    #[allow(clippy::type_complexity)]
    pub fn read_all_entries(&mut self) -> io::Result<Vec<(u32, Vec<u8>)>> {
        // `open` bounded the count by the body length.
        let mut out = Vec::with_capacity(self.remaining as usize);
        while let Some(e) = self.next_entry()? {
            out.push(e);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessClass;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip_in_order() {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(5);
        assert!(w.is_empty());
        w.push(2, b"alpha");
        w.push(0, b"");
        w.push(2, b"beta");
        assert_eq!(w.len(), 3);
        let bytes = w.commit(&vfs).unwrap();
        assert!(has_log_segment(&vfs, 5));
        assert!(!has_log_segment(&vfs, 6));

        let mut r = MsgLogReader::open(&vfs, 5).unwrap();
        assert_eq!(r.superstep(), 5);
        assert_eq!(r.remaining(), 3);
        let all = r.read_all_entries().unwrap();
        assert_eq!(
            all,
            vec![
                (2, b"alpha".to_vec()),
                (0, Vec::new()),
                (2, b"beta".to_vec())
            ]
        );
        assert!(r.next_entry().unwrap().is_none());
        // One classified sequential write, mirrored by one read.
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, bytes);
        assert_eq!(snap.seq_write_ops, 1);
        assert_eq!(snap.seq_read_bytes, bytes);
    }

    #[test]
    fn empty_segment_is_committed_and_distinct_from_missing() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(9).commit(&vfs).unwrap();
        assert!(has_log_segment(&vfs, 9));
        let mut r = MsgLogReader::open(&vfs, 9).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_entry().unwrap().is_none());
        // A missing segment is an error, not an empty iterator.
        assert!(MsgLogReader::open(&vfs, 10).is_err());
    }

    #[test]
    fn superstep_mismatch_rejected() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(4).commit(&vfs).unwrap();
        let data = vfs
            .open(&msg_log_file_name(4))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        vfs.create(&msg_log_file_name(6))
            .unwrap()
            .append(AccessClass::SeqWrite, &data)
            .unwrap();
        assert!(MsgLogReader::open(&vfs, 6).is_err());
    }

    #[test]
    fn coded_segment_roundtrips_and_accounts_both_sides() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut w = MsgLogWriter::new(7);
            for i in 0..40u32 {
                w.push(i % 3, &[b'x'; 200]);
            }
            let physical = w.commit_with(&vfs, codec).unwrap();
            let wsnap = vfs.stats().snapshot();
            // Gaps is structure-aware only: its blob frames stay raw.
            if !matches!(codec, CodecChoice::Gaps) {
                assert!(physical < wsnap.seq_write_logical_bytes, "{codec:?}");
            }
            assert_eq!(wsnap.seq_write_bytes, physical);

            let mut r = MsgLogReader::open(&vfs, 7).unwrap();
            assert_eq!(r.remaining(), 40);
            let all = r.read_all_entries().unwrap();
            assert_eq!(all.len(), 40);
            for (i, (dest, blob)) in all.iter().enumerate() {
                assert_eq!(*dest, i as u32 % 3);
                assert_eq!(blob, &vec![b'x'; 200]);
            }
            let rsnap = vfs.stats().snapshot();
            assert_eq!(rsnap.seq_read_bytes, physical);
            // Read logical is max(physical, v1 size): the whole-file read
            // charges logical == physical up front, then tops up.
            assert_eq!(
                rsnap.seq_read_logical_bytes,
                wsnap.seq_write_logical_bytes.max(physical)
            );
        }
    }

    #[test]
    fn coded_empty_segment_still_committed() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(9)
            .commit_with(&vfs, CodecChoice::Bv)
            .unwrap();
        let mut r = MsgLogReader::open(&vfs, 9).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_entry().unwrap().is_none());
    }

    #[test]
    fn prune_is_idempotent() {
        let vfs = MemVfs::new();
        MsgLogWriter::new(1).commit(&vfs).unwrap();
        remove_log_segment(&vfs, 1).unwrap();
        assert!(!has_log_segment(&vfs, 1));
        remove_log_segment(&vfs, 1).unwrap();
    }

    #[test]
    fn overwrite_replaces_previous_segment() {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(3);
        w.push(0, b"old");
        w.commit(&vfs).unwrap();
        let mut w = MsgLogWriter::new(3);
        w.push(1, b"new");
        w.commit(&vfs).unwrap();
        let all = MsgLogReader::open(&vfs, 3)
            .unwrap()
            .read_all_entries()
            .unwrap();
        assert_eq!(all, vec![(1, b"new".to_vec())]);
    }
}
