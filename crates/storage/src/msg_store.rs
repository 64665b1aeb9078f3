//! Push receiver-side message store with bounded buffer and spill.
//!
//! In push-based systems, messages received in superstep `t` are consumed
//! in superstep `t+1`, so they must be carried across the barrier. Giraph
//! keeps up to `B_i` of them in memory and spills the rest to local disk.
//! Because messages arrive for scattered destination vertices, spill
//! writes have no locality — the paper accounts them as random writes
//! (`IO(M_disk)/s_rw` in Eq. 11) and the read-back as a sequential scan
//! (the `IO(M_disk)/s_sr` term), which is exactly how [`SpillBuffer`]
//! classifies its traffic.

use crate::extent::invalid;
use crate::inbox::Inbox;
use crate::record::Record;
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::{decode_blob_frame_into, encode_blob_frame_into, CodecChoice};
use hybridgraph_graph::VertexId;
use std::io;
use std::marker::PhantomData;

/// Messages per compressed spill chunk when a codec is active. Each full
/// chunk is framed and appended as one coded random write; the chunk
/// being assembled stays in memory until it fills (or the buffer drains).
const SPILL_CHUNK_MSGS: u64 = 256;

/// A bounded in-memory message buffer that spills overflow to disk.
///
/// Messages are held as **records** — `dst: u32 LE | M`, the bytes of a
/// plain wire batch — from arrival to [`SpillBuffer::drain`]: a received
/// payload is the resident buffer's and the spill file's format as it
/// stands, and is decoded once, into the [`Inbox`].
pub struct SpillBuffer<M: Record> {
    /// Resident records, at most `capacity` of them.
    mem: Vec<u8>,
    capacity: usize,
    spill: VfsFile,
    spilled: u64,
    total: u64,
    codec: CodecChoice,
    /// Spill-bound records not yet flushed as a coded chunk (always empty
    /// without a codec).
    chunk: Vec<u8>,
    /// Coded bytes on their way to or from the spill file: the frame being
    /// appended, then the file read back at drain (coded path only).
    frames: Vec<u8>,
    /// Physical bytes currently in the spill file (coded path only).
    file_bytes: u64,
    /// Logical bytes behind `file_bytes`.
    file_logical: u64,
    /// The one-record run behind [`SpillBuffer::push`].
    one: Vec<u8>,
    _marker: PhantomData<M>,
}

impl<M: Record> SpillBuffer<M> {
    /// Creates a buffer holding at most `capacity` messages in memory;
    /// overflow goes to the spill file `name` in `vfs`, uncompressed.
    pub fn new(vfs: &dyn Vfs, name: &str, capacity: usize) -> io::Result<SpillBuffer<M>> {
        SpillBuffer::with_codec(vfs, name, capacity, CodecChoice::None)
    }

    /// Like [`SpillBuffer::new`], but spilled messages are framed into
    /// coded chunks of `SPILL_CHUNK_MSGS` when `codec` is active.
    pub fn with_codec(
        vfs: &dyn Vfs,
        name: &str,
        capacity: usize,
        codec: CodecChoice,
    ) -> io::Result<SpillBuffer<M>> {
        Ok(SpillBuffer {
            mem: Vec::new(),
            capacity,
            spill: vfs.create(name)?,
            spilled: 0,
            total: 0,
            codec,
            chunk: Vec::new(),
            frames: Vec::new(),
            file_bytes: 0,
            file_logical: 0,
            one: Vec::new(),
            _marker: PhantomData,
        })
    }

    /// Bytes of one record, in memory and on disk: destination id +
    /// payload (the paper's `S_m`).
    fn message_bytes() -> u64 {
        4 + M::BYTES as u64
    }

    /// Flushes the pending chunk as one coded frame (coded path only).
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        self.frames.clear();
        encode_blob_frame_into(self.codec, &self.chunk, &mut self.frames);
        self.spill.append_coded(
            AccessClass::RandWrite,
            &self.frames,
            self.chunk.len() as u64,
        )?;
        self.file_bytes += self.frames.len() as u64;
        self.file_logical += self.chunk.len() as u64;
        self.chunk.clear();
        Ok(())
    }

    /// Accepts one message for `dst`: a run of one record.
    pub fn push(&mut self, dst: VertexId, msg: M) -> io::Result<()> {
        let mut one = std::mem::take(&mut self.one);
        one.clear();
        dst.append_to(&mut one);
        msg.append_to(&mut one);
        let pushed = self.push_encoded(&one);
        self.one = one;
        pushed
    }

    /// Accepts a run of records in arrival order. Records stay resident
    /// while the buffer has room; the rest of the run spills as **one**
    /// write that is still accounted as one scattered write per message
    /// (Eq. 11's `IO(M_disk)/s_rw`), or — under a codec — fills chunks of
    /// `SPILL_CHUNK_MSGS` exactly as message-by-message arrival would.
    /// A run that is not a whole number of records is `InvalidData`.
    pub fn push_encoded(&mut self, run: &[u8]) -> io::Result<()> {
        let width = Self::message_bytes() as usize;
        if !run.len().is_multiple_of(width) {
            return Err(invalid(format!(
                "message run of {} bytes is not a multiple of the {width}-byte record",
                run.len()
            )));
        }
        self.total += (run.len() / width) as u64;
        // `capacity` is `usize::MAX` under ample memory: saturate.
        let room = self.capacity.saturating_sub(self.in_memory());
        let (resident, cold) = run.split_at(room.saturating_mul(width).min(run.len()));
        self.mem.extend_from_slice(resident);
        if cold.is_empty() {
            return Ok(());
        }
        let cold_msgs = (cold.len() / width) as u64;
        self.spilled += cold_msgs;
        if self.codec.is_none() {
            self.spill
                .append_run(AccessClass::RandWrite, cold, cold_msgs)?;
            return Ok(());
        }
        let full = SPILL_CHUNK_MSGS as usize * width;
        let mut rest = cold;
        while !rest.is_empty() {
            let (fill, tail) = rest.split_at((full - self.chunk.len()).min(rest.len()));
            self.chunk.extend_from_slice(fill);
            rest = tail;
            if self.chunk.len() == full {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    /// Total messages received since the last [`Self::drain`].
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Messages currently on disk.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Spill bytes the overflow currently occupies: physical file bytes
    /// plus the raw pending chunk. Without a codec this is exactly
    /// `spilled · message_bytes`.
    pub fn spilled_bytes(&self) -> u64 {
        if self.codec.is_none() {
            self.spilled * Self::message_bytes()
        } else {
            self.file_bytes + self.chunk.len() as u64
        }
    }

    /// Messages currently buffered in memory.
    fn in_memory(&self) -> usize {
        self.mem.len() / Self::message_bytes() as usize
    }

    /// In-memory footprint in bytes (for the memory-usage curves),
    /// including any spill chunk still being assembled.
    pub fn memory_bytes(&self) -> u64 {
        (self.mem.len() + self.chunk.len()) as u64
    }

    /// Appends every spilled record to `into`, in arrival order: the
    /// spill file read back as one sequential scan (the `IO(M_disk)/s_sr`
    /// term) — under a codec into `frames`, each frame decoded straight
    /// onto `into` — then the chunk still pending under a codec.
    fn read_spilled(&self, into: &mut Vec<u8>, frames: &mut Vec<u8>) -> io::Result<()> {
        if self.spilled == 0 {
            return Ok(());
        }
        if self.codec.is_none() {
            let at = into.len();
            into.resize(at + self.spill.len() as usize, 0);
            return self.spill.read_at(AccessClass::SeqRead, 0, &mut into[at..]);
        }
        if self.file_bytes > 0 {
            frames.resize(self.file_bytes as usize, 0);
            self.spill
                .read_coded_at(AccessClass::SeqRead, 0, frames, self.file_logical)?;
            let mut pos = 0usize;
            while pos < frames.len() {
                decode_blob_frame_into(frames, &mut pos, into).map_err(invalid)?;
            }
        }
        into.extend_from_slice(&self.chunk);
        Ok(())
    }

    /// Forgets everything buffered (the spill file is emptied, unaccounted).
    fn clear(&mut self) -> io::Result<()> {
        self.mem.clear();
        if self.spilled > 0 {
            self.spill.truncate()?;
        }
        self.spilled = 0;
        self.total = 0;
        self.chunk.clear();
        self.file_bytes = 0;
        self.file_logical = 0;
        Ok(())
    }

    /// Ends the receive phase: reads back any spilled messages (sequential
    /// scan), groups them with the in-memory buffer by destination into an
    /// [`Inbox`] (the merge Giraph performs before the next superstep) and
    /// resets the buffer for the next receive phase. Each destination's
    /// messages keep arrival order: resident records, then spilled ones.
    pub fn drain(&mut self) -> io::Result<Inbox<M>> {
        self.drain_with(&[])
    }

    /// [`SpillBuffer::drain`] with `extra` records — pushM's online
    /// accumulators, which never entered the buffer — grouped in after
    /// the buffered ones: in staged order, the record stream is the
    /// resident buffer, then the spill read-back, then `extra`. The
    /// resident buffer keeps its capacity for the next receive phase.
    pub fn drain_with(&mut self, extra: &[u8]) -> io::Result<Inbox<M>> {
        let mut all = std::mem::take(&mut self.mem);
        let mut frames = std::mem::take(&mut self.frames);
        self.read_spilled(&mut all, &mut frames)?;
        self.frames = frames;
        all.extend_from_slice(extra);
        self.clear()?;
        let inbox = Inbox::from_records(&all);
        all.clear();
        self.mem = all;
        inbox
    }

    /// Non-destructively snapshots every pending record (the in-memory
    /// buffer plus a sequential read-back of the spill file) for
    /// checkpointing. The buffer is left exactly as it was.
    pub fn snapshot_pending(&self) -> io::Result<Vec<u8>> {
        let mut all = Vec::with_capacity((self.total * Self::message_bytes()) as usize);
        all.extend_from_slice(&self.mem);
        self.read_spilled(&mut all, &mut Vec::new())?;
        Ok(all)
    }

    /// Replaces the buffer's entire contents with `records` (recovery
    /// restore): the first `capacity` stay in memory, the rest spill,
    /// with the usual accounting.
    pub fn restore_pending(&mut self, records: &[u8]) -> io::Result<()> {
        self.clear()?;
        self.push_encoded(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_slice;
    use crate::vfs::MemVfs;

    /// The inbox flattened to `(dst, msg)` pairs, in inbox order.
    fn pairs<M: Clone>(d: &Inbox<M>) -> Vec<(u32, M)> {
        d.iter()
            .flat_map(|(dst, msgs)| msgs.iter().map(move |m| (dst, m.clone())))
            .collect()
    }

    #[test]
    fn within_capacity_no_spill() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 10).unwrap();
        for i in 0..5 {
            b.push(VertexId(i), i as f64).unwrap();
        }
        assert_eq!(b.spilled(), 0);
        assert_eq!(b.in_memory(), 5);
        assert_eq!(vfs.stats().snapshot().rand_write_bytes, 0);
        let d = b.drain().unwrap();
        assert_eq!(d.messages(), 5);
    }

    #[test]
    fn overflow_spills_random_writes() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 3).unwrap();
        for i in 0..10 {
            b.push(VertexId(i % 4), i as f64).unwrap();
        }
        assert_eq!(b.spilled(), 7);
        assert_eq!(b.total(), 10);
        let msg_bytes = SpillBuffer::<f64>::message_bytes();
        assert_eq!(vfs.stats().snapshot().rand_write_bytes, 7 * msg_bytes);
        assert_eq!(b.spilled_bytes(), 7 * msg_bytes);

        let before = vfs.stats().snapshot();
        let d = b.drain().unwrap();
        assert_eq!(d.messages(), 10);
        // Read-back is sequential.
        let delta = vfs.stats().snapshot().delta(&before);
        assert_eq!(delta.seq_read_bytes, 7 * msg_bytes);
    }

    #[test]
    fn drain_groups_by_destination() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 2).unwrap();
        b.push(VertexId(5), 50).unwrap();
        b.push(VertexId(1), 10).unwrap();
        b.push(VertexId(5), 51).unwrap();
        b.push(VertexId(3), 30).unwrap();
        let d = b.drain().unwrap();
        assert_eq!(d.for_vertex(VertexId(5)), [50, 51]);
        assert_eq!(d.for_vertex(VertexId(1)), [10]);
        assert!(d.for_vertex(VertexId(2)).is_empty());
        let groups: Vec<(u32, &[u32])> = d.iter().collect();
        assert_eq!(groups, [(1, &[10][..]), (3, &[30]), (5, &[50, 51])]);
        assert_eq!((d.destinations(), d.messages()), (3, 4));
    }

    #[test]
    fn drain_resets_for_next_superstep() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 1).unwrap();
        b.push(VertexId(0), 1).unwrap();
        b.push(VertexId(1), 2).unwrap();
        b.drain().unwrap();
        assert_eq!(b.total(), 0);
        assert_eq!(b.spilled(), 0);
        assert_eq!(b.in_memory(), 0);
        b.push(VertexId(2), 3).unwrap();
        let d = b.drain().unwrap();
        assert_eq!(d.messages(), 1);
        assert_eq!(d.for_vertex(VertexId(2)), [3]);
    }

    #[test]
    fn zero_capacity_spills_everything() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 0).unwrap();
        for i in 0..4 {
            b.push(VertexId(i), i).unwrap();
        }
        assert_eq!(b.spilled(), 4);
        assert_eq!(b.drain().unwrap().messages(), 4);
    }

    #[test]
    fn memory_bytes_tracks_buffer() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 8).unwrap();
        b.push(VertexId(0), 0.0).unwrap();
        b.push(VertexId(1), 1.0).unwrap();
        assert_eq!(b.memory_bytes(), 2 * 12);
    }

    #[test]
    fn snapshot_is_nondestructive_and_restore_rebuilds() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 2).unwrap();
        for i in 0..5 {
            b.push(VertexId(i), i * 10).unwrap();
        }
        let snap = b.snapshot_pending().unwrap();
        assert_eq!(snap.len(), 5 * 8);
        // Buffer untouched by the snapshot.
        assert_eq!(b.total(), 5);
        assert_eq!(b.spilled(), 3);
        assert_eq!(b.in_memory(), 2);

        // Restore into a fresh buffer reproduces counts and contents.
        let vfs2 = MemVfs::new();
        let mut c: SpillBuffer<u32> = SpillBuffer::new(&vfs2, "spill", 2).unwrap();
        c.restore_pending(&snap).unwrap();
        assert_eq!(c.total(), 5);
        assert_eq!(c.spilled(), 3);
        // One run, still one scattered write per spilled message.
        assert_eq!(vfs2.stats().snapshot().rand_write_ops, 3);
        assert_eq!(
            pairs(&c.drain().unwrap()),
            [(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]
        );
        // Restore over a dirty buffer discards its old contents.
        c.push(VertexId(9), 99).unwrap();
        c.restore_pending(&encode_slice(&[(VertexId(1), 7u32)]))
            .unwrap();
        assert_eq!(c.total(), 1);
        assert_eq!(c.drain().unwrap().messages(), 1);
        // A torn run is an error, not a panic.
        let err = c.restore_pending(&snap[..snap.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn coded_spill_roundtrips_and_shrinks() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut b: SpillBuffer<f64> = SpillBuffer::with_codec(&vfs, "spill", 4, codec).unwrap();
            // Enough overflow to flush several chunks plus a partial one.
            let n = 3 * SPILL_CHUNK_MSGS + 77;
            for i in 0..n {
                b.push(VertexId((i % 13) as u32), i as f64).unwrap();
            }
            assert_eq!(b.total(), n);
            assert_eq!(b.spilled(), n - 4);
            let snap = vfs.stats().snapshot();
            if !matches!(codec, CodecChoice::Gaps) {
                // Block/Auto compress the highly regular spill stream.
                assert!(
                    snap.rand_write_bytes < snap.rand_write_logical_bytes,
                    "{codec:?} should shrink spills"
                );
            }
            assert!(b.spilled_bytes() > 0);
            let mut got: Vec<(u32, u64)> = pairs(&b.drain().unwrap())
                .into_iter()
                .map(|(v, m)| (v, m.to_bits()))
                .collect();
            got.sort();
            let mut want: Vec<(u32, u64)> = (0..n)
                .map(|i| ((i % 13) as u32, (i as f64).to_bits()))
                .collect();
            want.sort();
            assert_eq!(got, want, "{codec:?}");
            assert_eq!(b.spilled_bytes(), 0);
        }
    }

    #[test]
    fn coded_snapshot_and_restore() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> =
            SpillBuffer::with_codec(&vfs, "spill", 1, CodecChoice::Bv).unwrap();
        let n = SPILL_CHUNK_MSGS + 9;
        for i in 0..n {
            b.push(VertexId(i as u32), i as u32 * 3).unwrap();
        }
        let snap = b.snapshot_pending().unwrap();
        assert_eq!(snap.len() as u64, n * 8);
        assert_eq!(b.total(), n, "snapshot must not disturb the buffer");

        let vfs2 = MemVfs::new();
        let mut c: SpillBuffer<u32> =
            SpillBuffer::with_codec(&vfs2, "spill", 1, CodecChoice::Bv).unwrap();
        c.restore_pending(&snap).unwrap();
        assert_eq!(c.total(), n);
        assert_eq!(c.drain().unwrap().messages() as u64, n);
    }

    #[test]
    fn push_encoded_matches_message_by_message_pushes() {
        // Same records, once as single pushes and once as runs that
        // straddle the resident/spill boundary and the coded chunk
        // boundary: file bytes, counters and accounting must agree.
        let n = 2 * SPILL_CHUNK_MSGS as u32 + 50;
        let msgs: Vec<(VertexId, f64)> = (0..n)
            .map(|i| (VertexId(i * 7 % 97), f64::from(i) * 0.5))
            .collect();
        let records = encode_slice(&msgs);
        for codec in [CodecChoice::None, CodecChoice::Gaps] {
            let (one_vfs, run_vfs) = (MemVfs::new(), MemVfs::new());
            let mut one: SpillBuffer<f64> =
                SpillBuffer::with_codec(&one_vfs, "spill", 40, codec).unwrap();
            let mut run: SpillBuffer<f64> =
                SpillBuffer::with_codec(&run_vfs, "spill", 40, codec).unwrap();
            for (dst, m) in &msgs {
                one.push(*dst, *m).unwrap();
            }
            for part in records.chunks(12 * 33) {
                run.push_encoded(part).unwrap();
            }
            assert_eq!(run.total(), one.total(), "{codec:?}");
            assert_eq!(run.spilled(), one.spilled(), "{codec:?}");
            assert_eq!(run.in_memory(), one.in_memory(), "{codec:?}");
            assert_eq!(run.memory_bytes(), one.memory_bytes(), "{codec:?}");
            assert_eq!(run.spilled_bytes(), one.spilled_bytes(), "{codec:?}");
            assert_eq!(
                run_vfs.stats().snapshot(),
                one_vfs.stats().snapshot(),
                "{codec:?}: bytes, logical bytes and op counts"
            );
            let file = |vfs: &MemVfs| {
                let f = vfs.open("spill").unwrap();
                f.read_all(AccessClass::SeqRead).unwrap()
            };
            assert_eq!(file(&run_vfs), file(&one_vfs), "{codec:?}");
            assert_eq!(run.drain().unwrap(), one.drain().unwrap(), "{codec:?}");
        }
    }

    #[test]
    fn unbounded_capacity_keeps_everything_resident() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", usize::MAX).unwrap();
        let msgs: Vec<(VertexId, f64)> = (0..100).map(|i| (VertexId(i), 1.0)).collect();
        b.push_encoded(&encode_slice(&msgs)).unwrap();
        b.push(VertexId(7), 2.0).unwrap();
        assert_eq!((b.in_memory(), b.spilled()), (101, 0));
        assert_eq!(vfs.stats().snapshot().total_bytes(), 0);
    }

    #[test]
    fn misaligned_run_is_invalid_data() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<f64> = SpillBuffer::new(&vfs, "spill", 1).unwrap();
        let err = b.push_encoded(&[0u8; 25]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(b.total(), 0);
        let err = Inbox::<f64>::from_records(&[0u8; 11]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn drain_with_groups_extra_records_after_buffered() {
        let vfs = MemVfs::new();
        let mut b: SpillBuffer<u32> = SpillBuffer::new(&vfs, "spill", 1).unwrap();
        b.push(VertexId(4), 40).unwrap();
        b.push(VertexId(2), 20).unwrap();
        let before = vfs.stats().snapshot();
        let extra = encode_slice(&[(VertexId(3), 30u32), (VertexId(4), 4)]);
        let d = b.drain_with(&extra).unwrap();
        // Vertex 4's accumulator follows its buffered record.
        assert_eq!(pairs(&d), [(2, 20), (3, 30), (4, 40), (4, 4)]);
        // Extra records were never in the buffer: only the one spilled
        // message is read back.
        let delta = vfs.stats().snapshot().delta(&before);
        assert_eq!(delta.seq_read_bytes, 8);
        assert_eq!(delta.total_bytes(), 8);
    }
}
