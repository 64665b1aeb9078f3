//! Superstep-boundary checkpoint serialization.
//!
//! Pregel-lineage BSP engines recover from worker failures by replaying
//! from the last *consistent cut*, and in a BSP engine the per-superstep
//! barrier is exactly such a cut (GraphHP's hybrid-BSP analysis makes the
//! same observation). Because HybridGraph's graph and message state are
//! already disk-resident and byte-accounted through the [`Vfs`], a
//! checkpoint is just one more classified sequential write: the engine
//! serializes each worker's recoverable state into a single buffer and
//! appends it to the worker's VFS in one [`AccessClass::SeqWrite`], so
//! checkpoint I/O shows up in `IoStats` — and therefore in modeled time —
//! like every other byte the system moves.
//!
//! A checkpoint is a sealed file ([`hybridgraph_codec::frame`]) whose one
//! id word is the superstep. The body is whatever the caller puts:
//! [`CheckpointWriter::put`] appends any declared [`Field`] and
//! [`CheckpointReader::get`] reads it back, so one declaration fixes both
//! sides (the engine's is its worker-checkpoint record).

use crate::sealed;
use crate::vfs::Vfs;
use hybridgraph_codec::frame::{Field, PayloadReader, PayloadWriter};
use hybridgraph_codec::CodecChoice;
use std::io;

/// File magic: `HGCK` little-endian.
pub const CHECKPOINT_MAGIC: u32 = 0x4b43_4748;

/// The VFS file name of the checkpoint taken after `superstep`.
pub fn checkpoint_file_name(superstep: u64) -> String {
    format!("ckpt_{superstep:012}")
}

/// True if a checkpoint for `superstep` exists in `vfs`.
pub fn has_checkpoint(vfs: &dyn Vfs, superstep: u64) -> bool {
    vfs.exists(&checkpoint_file_name(superstep))
}

/// Removes the checkpoint for `superstep`, if present (retention pruning).
pub fn remove_checkpoint(vfs: &dyn Vfs, superstep: u64) -> io::Result<()> {
    vfs.remove(&checkpoint_file_name(superstep))
}

/// Accumulates one worker's recoverable state and commits it as a single
/// classified sequential write.
pub struct CheckpointWriter {
    superstep: u64,
    fields: PayloadWriter,
}

impl CheckpointWriter {
    /// A writer for the checkpoint taken after `superstep`.
    pub fn new(superstep: u64) -> Self {
        CheckpointWriter {
            superstep,
            fields: PayloadWriter::sealed(1),
        }
    }

    /// Appends `x` in its declared layout.
    pub fn put<T: Field>(&mut self, x: &T) {
        x.put(&mut self.fields);
    }

    /// Appends a length-prefixed byte run.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.fields.put_bytes(data);
    }

    /// Appends a length-prefixed `u64` word run (bitset contents).
    pub fn put_words(&mut self, words: &[u64]) {
        self.fields.put_words(words);
    }

    /// Bytes accumulated so far (header included).
    pub fn payload_bytes(&self) -> u64 {
        self.fields.len() as u64
    }

    /// Writes the checkpoint to `vfs` as one sequential write and returns
    /// the total bytes written. Any prior checkpoint for the same
    /// superstep is truncated.
    pub fn commit(self, vfs: &dyn Vfs) -> io::Result<u64> {
        self.commit_with(vfs, CodecChoice::None)
    }

    /// Like [`CheckpointWriter::commit`], but with a codec the field body
    /// is wrapped in one blob frame and the write is accounted
    /// physical-vs-logical. Returns the physical bytes written.
    pub fn commit_with(self, vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<u64> {
        sealed::commit(
            vfs,
            &checkpoint_file_name(self.superstep),
            CHECKPOINT_MAGIC,
            &[self.superstep],
            self.fields,
            codec,
        )
    }
}

/// Reads back a committed checkpoint, verifying framing as it goes.
/// Accepts both plain and coded files — the file itself says which, so no
/// codec configuration is needed to restore.
pub struct CheckpointReader {
    body: Vec<u8>,
    pos: usize,
    superstep: u64,
}

impl CheckpointReader {
    /// Opens and validates the checkpoint for `superstep` (one sequential
    /// read of the whole file).
    pub fn open(vfs: &dyn Vfs, superstep: u64) -> io::Result<Self> {
        let file = sealed::open(vfs, &checkpoint_file_name(superstep), CHECKPOINT_MAGIC, 1)?;
        if file.ids[0] != superstep {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt checkpoint: superstep mismatch",
            ));
        }
        Ok(CheckpointReader {
            body: file.body,
            pos: 0,
            superstep,
        })
    }

    /// The superstep this checkpoint was taken after.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Runs one read against the body at the saved cursor. The reader
    /// borrows `body`, so it cannot live in this struct next to it; the
    /// cursor can.
    fn read<T>(
        &mut self,
        f: impl FnOnce(&mut PayloadReader<'_>) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut r = PayloadReader::at(&self.body, self.pos);
        let out = f(&mut r);
        self.pos = r.pos();
        out
    }

    /// Reads one value written by [`CheckpointWriter::put`].
    pub fn get<T: Field>(&mut self) -> io::Result<T> {
        self.read(T::get)
    }

    /// Reads a length-prefixed byte run.
    pub fn get_bytes(&mut self) -> io::Result<Vec<u8>> {
        self.read(|r| r.get_bytes())
    }

    /// Reads a length-prefixed `u64` word run.
    pub fn get_words(&mut self) -> io::Result<Vec<u64>> {
        self.read(|r| r.get_words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessClass;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip_all_field_kinds() {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(7);
        w.put(&3u8);
        w.put(&1234u32);
        w.put(&(u64::MAX - 1));
        w.put(&-0.1f64);
        w.put_bytes(b"hello");
        w.put_words(&[1, 2, 3]);
        let bytes = w.commit(&vfs).unwrap();
        assert!(has_checkpoint(&vfs, 7));
        assert!(!has_checkpoint(&vfs, 8));

        let mut r = CheckpointReader::open(&vfs, 7).unwrap();
        assert_eq!(r.superstep(), 7);
        assert_eq!(r.get::<u8>().unwrap(), 3);
        assert_eq!(r.get::<u32>().unwrap(), 1234);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX - 1);
        assert_eq!(r.get::<f64>().unwrap(), -0.1);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_words().unwrap(), vec![1, 2, 3]);
        // Trailer guards against over-reads.
        assert!(r.get::<u64>().is_err());
        // Everything went through one accounted sequential write.
        assert_eq!(vfs.stats().snapshot().seq_write_bytes, bytes);
        assert_eq!(vfs.stats().snapshot().seq_write_ops, 1);
    }

    #[test]
    fn checkpoint_io_is_classified_sequential() {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(1);
        w.put_bytes(&[0u8; 1000]);
        let total = w.commit(&vfs).unwrap();
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, total);
        assert_eq!(snap.rand_write_bytes, 0);
        CheckpointReader::open(&vfs, 1).unwrap();
        assert_eq!(vfs.stats().snapshot().seq_read_bytes, total);
    }

    #[test]
    fn superstep_mismatch_rejected() {
        let vfs = MemVfs::new();
        CheckpointWriter::new(4).commit(&vfs).unwrap();
        assert!(CheckpointReader::open(&vfs, 4).is_ok());
        // Renaming by rewriting under a different name: header disagrees.
        let data = vfs
            .open(&checkpoint_file_name(4))
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap();
        vfs.create(&checkpoint_file_name(5))
            .unwrap()
            .append(AccessClass::SeqWrite, &data)
            .unwrap();
        assert!(CheckpointReader::open(&vfs, 5).is_err());
    }

    #[test]
    fn coded_commit_roundtrips_and_accounts_both_sides() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut w = CheckpointWriter::new(11);
            w.put(&9u8);
            w.put(&2.5f64);
            w.put_bytes(&[42u8; 4096]); // highly compressible body
            w.put_words(&[5; 100]);
            let logical = w.payload_bytes() + 8;
            let physical = w.commit_with(&vfs, codec).unwrap();
            // Gaps is structure-aware only: its blob frames stay raw.
            if !matches!(codec, CodecChoice::Gaps) {
                assert!(physical < logical, "{codec:?} must shrink this body");
            }
            let wsnap = vfs.stats().snapshot();
            assert_eq!(wsnap.seq_write_bytes, physical);
            assert_eq!(wsnap.seq_write_logical_bytes, logical);

            let mut r = CheckpointReader::open(&vfs, 11).unwrap();
            assert_eq!(r.get::<u8>().unwrap(), 9);
            assert_eq!(r.get::<f64>().unwrap(), 2.5);
            assert_eq!(r.get_bytes().unwrap(), vec![42u8; 4096]);
            assert_eq!(r.get_words().unwrap(), vec![5; 100]);
            assert!(r.get::<u8>().is_err(), "no fields past the body");
            let rsnap = vfs.stats().snapshot();
            assert_eq!(rsnap.seq_read_bytes, physical);
            // The whole-file read charges logical == physical up front,
            // then tops up — so read logical is max(physical, v1 size).
            assert_eq!(rsnap.seq_read_logical_bytes, logical.max(physical));
        }
    }

    #[test]
    fn missing_checkpoint_is_not_found() {
        let vfs = MemVfs::new();
        assert!(CheckpointReader::open(&vfs, 3).is_err());
        remove_checkpoint(&vfs, 3).unwrap(); // idempotent
    }

    #[test]
    fn remove_prunes_retention() {
        let vfs = MemVfs::new();
        CheckpointWriter::new(3).commit(&vfs).unwrap();
        CheckpointWriter::new(6).commit(&vfs).unwrap();
        remove_checkpoint(&vfs, 3).unwrap();
        assert!(!has_checkpoint(&vfs, 3));
        assert!(has_checkpoint(&vfs, 6));
    }
}
