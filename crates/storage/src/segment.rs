//! Per-superstep segment files: worker checkpoints and message-log
//! segments.
//!
//! **Checkpoints.** Pregel-lineage BSP engines recover from worker
//! failures by replaying from the last *consistent cut*, and in a BSP
//! engine the per-superstep barrier is exactly such a cut (GraphHP's
//! hybrid-BSP analysis makes the same observation). Because the graph and
//! message state are already disk-resident and byte-accounted through the
//! [`Vfs`], a checkpoint is one more classified sequential write: the
//! engine puts each worker's recoverable state (its `WorkerCheckpoint`
//! record) into one body and commits it to the worker's VFS.
//!
//! **Message logs.** Pregel's confined recovery ("Pregel: a system for
//! large-scale graph processing", §4.2) avoids rolling the whole cluster
//! back by having every worker log its outgoing messages at the end of
//! each superstep. When a worker dies, only that worker reloads its
//! checkpoint; the survivors re-serve the logged packets while it
//! recomputes. A log segment holds the packets one worker sent to
//! **remote** peers during one superstep, in send order, as [`LogEntry`]
//! records — the packet bytes belong to the network layer, which sits
//! above storage. A committed-but-empty segment (the superstep sent
//! nothing remote) is distinct from a missing or truncated one, in which
//! case confined recovery is impossible and the engine falls back to a
//! global rollback. Segments at or below a checkpointed superstep can
//! never be replayed and are pruned when the checkpoint commits.
//!
//! **One file kind.** Both are sealed files
//! ([`hybridgraph_codec::frame::seal`]) named `{prefix}{superstep:012}`.
//! A [`Kind`] is a magic, that prefix and the number of header id words:
//! the superstep, then — for a message log — the entry count. Each commit
//! is **one classified sequential write** and each open one sequential
//! read, accounted physical-vs-logical when the body is coded, so the
//! overhead shows up in `IoStats` and modeled time like every other byte.
//! The file says whether its body is coded, so reading needs no codec
//! configuration.

use crate::stats::AccessClass;
use crate::vfs::Vfs;
use hybridgraph_codec::frame::{self, Field, Framed, PayloadReader, PayloadWriter, Via};
use hybridgraph_codec::{record, CodecChoice};
use std::io;
use std::marker::PhantomData;

/// One kind of segment file.
pub trait Kind {
    /// The file magic.
    const MAGIC: u32;
    /// The file-name prefix, in front of the zero-padded superstep.
    const PREFIX: &'static str;
    /// Header id words: the superstep, then the entry count if counted.
    const ID_WORDS: usize;
}

/// Worker checkpoints: `HGCK`, `ckpt_`, `[superstep]`.
pub struct Checkpoint;

impl Kind for Checkpoint {
    const MAGIC: u32 = 0x4b43_4748;
    const PREFIX: &'static str = "ckpt_";
    const ID_WORDS: usize = 1;
}

/// Message-log segments: `HGML`, `msglog_`, `[superstep, count]`.
pub struct MsgLog;

impl Kind for MsgLog {
    const MAGIC: u32 = 0x4c4d_4748;
    const PREFIX: &'static str = "msglog_";
    const ID_WORDS: usize = 2;
}

/// One logged packet: the destination worker and the packet's
/// network-layer encoding.
#[derive(Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Destination worker.
    pub dest: u32,
    /// The packet's bytes.
    pub blob: Vec<u8>,
}

record! { LogEntry { dest, blob } }

/// The checkpoint writer.
pub type CheckpointWriter = SegmentWriter<Checkpoint>;
/// The checkpoint reader.
pub type CheckpointReader = SegmentReader<Checkpoint>;
/// The message-log writer.
pub type MsgLogWriter = SegmentWriter<MsgLog>;
/// The message-log reader.
pub type MsgLogReader = SegmentReader<MsgLog>;

/// The VFS file name of the `K` segment of `superstep`.
pub fn file_name<K: Kind>(superstep: u64) -> String {
    format!("{}{superstep:012}", K::PREFIX)
}

/// Removes the `K` segment of `superstep`; a missing one is not an error
/// (a restarted incarnation may re-prune what its predecessor removed).
pub fn remove<K: Kind>(vfs: &dyn Vfs, superstep: u64) -> io::Result<()> {
    vfs.remove(&file_name::<K>(superstep))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt segment: {what}"),
    )
}

/// Accumulates one segment's body and commits it as a single classified
/// sequential write.
pub struct SegmentWriter<K> {
    superstep: u64,
    entries: u64,
    body: PayloadWriter,
    kind: PhantomData<K>,
}

impl<K: Kind> SegmentWriter<K> {
    /// A writer for the segment of `superstep`.
    pub fn new(superstep: u64) -> Self {
        SegmentWriter {
            superstep,
            entries: 0,
            body: PayloadWriter::sealed(K::ID_WORDS),
            kind: PhantomData,
        }
    }

    /// Appends `x` in its declared layout.
    pub fn put<T: Field>(&mut self, x: &T) {
        x.put(&mut self.body);
    }

    /// Appends a length-prefixed byte run.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.body.put_bytes(data);
    }

    /// Appends a length-prefixed `u64` word run.
    pub fn put_words(&mut self, words: &[u64]) {
        self.body.put_words(words);
    }

    /// Bytes accumulated so far (header included).
    pub fn payload_bytes(&self) -> u64 {
        self.body.len() as u64
    }

    /// Writes the segment to `vfs` as one sequential write and returns
    /// the bytes written. Any prior segment of the same superstep is
    /// truncated (re-execution after a rollback regenerates bit-identical
    /// state, so overwriting is safe).
    pub fn commit(self, vfs: &dyn Vfs) -> io::Result<u64> {
        self.commit_with(vfs, CodecChoice::None)
    }

    /// Like [`SegmentWriter::commit`], but with a codec the body is
    /// wrapped in one blob frame and the write is accounted
    /// physical-vs-logical. Returns the physical bytes written.
    pub fn commit_with(self, vfs: &dyn Vfs, codec: CodecChoice) -> io::Result<u64> {
        let ids = [self.superstep, self.entries];
        let file = vfs.create(&file_name::<K>(self.superstep))?;
        let (bytes, logical) = frame::seal(K::MAGIC, &ids[..K::ID_WORDS], self.body, codec);
        file.append_coded(AccessClass::SeqWrite, &bytes, logical)?;
        Ok(bytes.len() as u64)
    }
}

impl SegmentWriter<MsgLog> {
    /// Appends one [`LogEntry`] from its parts.
    pub fn push(&mut self, dest: u32, blob: &[u8]) {
        self.entries += 1;
        dest.put(&mut self.body);
        self.body.put_bytes(blob);
    }

    /// Appends one [`LogEntry`] whose blob is `packet`'s fields: `Framed`
    /// writes the same length-prefixed run, without encoding the packet
    /// anywhere first.
    pub fn push_framed<T: Field>(&mut self, dest: u32, packet: &T) {
        self.entries += 1;
        dest.put(&mut self.body);
        Framed::put(packet, &mut self.body);
    }
}

/// Reads back a committed segment, verifying framing as it goes.
pub struct SegmentReader<K> {
    body: Vec<u8>,
    pos: usize,
    superstep: u64,
    entries: u64,
    kind: PhantomData<K>,
}

impl<K: Kind> SegmentReader<K> {
    /// Opens and validates the segment of `superstep` (one sequential
    /// read of the whole file). Framing damage, a header for another
    /// superstep or an entry count the body cannot hold is `InvalidData`,
    /// which recovery treats as "this segment is unavailable".
    pub fn open(vfs: &dyn Vfs, superstep: u64) -> io::Result<Self> {
        let data = vfs
            .open(&file_name::<K>(superstep))?
            .read_all(AccessClass::SeqRead)?;
        let file = frame::unseal(K::MAGIC, K::ID_WORDS, &data)?;
        // The whole-file read charged logical == physical; top up to the
        // decoded (plain-equivalent) logical size.
        vfs.stats().record_logical(
            AccessClass::SeqRead,
            file.logical_len.saturating_sub(data.len() as u64),
        );
        if file.ids[0] != superstep {
            return Err(corrupt("superstep mismatch"));
        }
        let entries = file.ids.get(1).copied().unwrap_or(0);
        if entries > (file.body.len() / LogEntry::MIN_BYTES) as u64 {
            return Err(corrupt("entry count exceeds the segment body"));
        }
        Ok(SegmentReader {
            body: file.body,
            pos: 0,
            superstep,
            entries,
            kind: PhantomData,
        })
    }

    /// The superstep this segment was written for.
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

    /// Reads one value written by [`SegmentWriter::put`].
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

impl SegmentReader<MsgLog> {
    /// Reads the next entry, or `None` after the last one.
    pub fn next_entry(&mut self) -> io::Result<Option<LogEntry>> {
        if self.entries == 0 {
            return Ok(None);
        }
        self.entries -= 1;
        self.get().map(Some)
    }

    /// Reads every remaining entry.
    pub fn read_all_entries(&mut self) -> io::Result<Vec<LogEntry>> {
        // `open` bounded the count by the body length.
        let mut out = Vec::with_capacity(self.entries as usize);
        while let Some(e) = self.next_entry()? {
            out.push(e);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    /// What the case table needs of a kind: a body to write and checks.
    trait Sample: Kind + Sized {
        /// Writes the sample body (compressible, so `Bv` shrinks it).
        fn fill(w: &mut SegmentWriter<Self>);
        /// Reads the sample body back, then checks nothing follows.
        fn check(r: &mut SegmentReader<Self>);
        /// Checks that the body is empty.
        fn check_empty(r: &mut SegmentReader<Self>);
    }

    impl Sample for Checkpoint {
        fn fill(w: &mut CheckpointWriter) {
            w.put(&3u8);
            w.put(&1234u32);
            w.put(&(u64::MAX - 1));
            w.put(&-0.1f64);
            w.put_bytes(&[42u8; 4096]);
            w.put_words(&[5; 100]);
        }
        fn check(r: &mut CheckpointReader) {
            assert_eq!(r.get::<u8>().unwrap(), 3);
            assert_eq!(r.get::<u32>().unwrap(), 1234);
            assert_eq!(r.get::<u64>().unwrap(), u64::MAX - 1);
            assert_eq!(r.get::<f64>().unwrap(), -0.1);
            assert_eq!(r.get_bytes().unwrap(), vec![42u8; 4096]);
            assert_eq!(r.get_words().unwrap(), vec![5; 100]);
            Self::check_empty(r);
        }
        fn check_empty(r: &mut CheckpointReader) {
            // The trailer guards against over-reads.
            assert!(r.get::<u8>().is_err(), "no fields past the body");
        }
    }

    fn entry(dest: u32, blob: &[u8]) -> LogEntry {
        LogEntry {
            dest,
            blob: blob.to_vec(),
        }
    }

    impl Sample for MsgLog {
        fn fill(w: &mut MsgLogWriter) {
            w.push(2, b"alpha");
            w.push(0, b"");
            w.push_framed(2, &b"beta".to_vec());
            w.push(u32::MAX, &[b'x'; 4096]);
        }
        fn check(r: &mut MsgLogReader) {
            // `push_framed` of a value logs what `push` of its encoding
            // would.
            let beta = frame::encode(&b"beta".to_vec());
            let want = [
                entry(2, b"alpha"),
                entry(0, b""),
                entry(2, &beta),
                entry(u32::MAX, &[b'x'; 4096]),
            ];
            assert_eq!(r.read_all_entries().unwrap(), want);
            Self::check_empty(r);
        }
        fn check_empty(r: &mut MsgLogReader) {
            assert!(r.next_entry().unwrap().is_none());
            assert!(r.get::<u8>().is_err(), "no bytes past the entries");
        }
    }

    fn read_file(vfs: &MemVfs, name: &str) -> Vec<u8> {
        vfs.open(name)
            .unwrap()
            .read_all(AccessClass::SeqRead)
            .unwrap()
    }

    /// A committed body reads back under its own superstep's name only.
    fn round_trip<K: Sample>() {
        let vfs = MemVfs::new();
        let mut w = SegmentWriter::<K>::new(7);
        K::fill(&mut w);
        w.commit(&vfs).unwrap();
        assert!(vfs.exists(&file_name::<K>(7)));
        assert!(!vfs.exists(&file_name::<K>(8)));

        let mut r = SegmentReader::<K>::open(&vfs, 7).unwrap();
        assert_eq!(r.superstep(), 7);
        K::check(&mut r);
    }

    /// One commit is one classified sequential write; one open is one
    /// sequential read of the same bytes.
    fn io_is_sequential<K: Sample>() {
        let vfs = MemVfs::new();
        let mut w = SegmentWriter::<K>::new(7);
        K::fill(&mut w);
        let bytes = w.commit(&vfs).unwrap();
        let snap = vfs.stats().snapshot();
        assert_eq!((snap.seq_write_bytes, snap.seq_write_ops), (bytes, 1));
        assert_eq!(snap.rand_write_bytes, 0);

        K::check(&mut SegmentReader::<K>::open(&vfs, 7).unwrap());
        let snap = vfs.stats().snapshot();
        assert_eq!((snap.seq_read_bytes, snap.seq_read_ops), (bytes, 1));
        assert_eq!(snap.rand_read_bytes, 0);
    }

    /// A file copied under another superstep's name does not open there.
    fn superstep_mismatch<K: Sample>() {
        let vfs = MemVfs::new();
        SegmentWriter::<K>::new(4).commit(&vfs).unwrap();
        let data = read_file(&vfs, &file_name::<K>(4));
        vfs.create(&file_name::<K>(5))
            .unwrap()
            .append(AccessClass::SeqWrite, &data)
            .unwrap();
        let err = SegmentReader::<K>::open(&vfs, 5).err().expect("opened");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Coded bodies read back exactly; the write is accounted physical vs
    /// logical, and the read tops its logical bytes up to the plain size.
    fn coded_accounting<K: Sample>() {
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let mut w = SegmentWriter::<K>::new(11);
            K::fill(&mut w);
            let logical = w.payload_bytes() + 8;
            let physical = w.commit_with(&vfs, codec).unwrap();
            // Gaps is structure-aware only: its blob frames stay raw.
            if codec == CodecChoice::Bv {
                assert!(physical < logical, "{codec:?} must shrink this body");
            }
            let wsnap = vfs.stats().snapshot();
            assert_eq!(wsnap.seq_write_bytes, physical);
            assert_eq!(wsnap.seq_write_logical_bytes, logical);

            K::check(&mut SegmentReader::<K>::open(&vfs, 11).unwrap());
            let rsnap = vfs.stats().snapshot();
            assert_eq!(rsnap.seq_read_bytes, physical);
            // The whole-file read charges logical == physical up front,
            // then tops up — so read logical is max(physical, plain size).
            assert_eq!(rsnap.seq_read_logical_bytes, logical.max(physical));
        }
    }

    /// An empty segment commits and opens; a missing one is not found,
    /// not an empty body.
    fn empty_is_not_missing<K: Sample>() {
        let vfs = MemVfs::new();
        SegmentWriter::<K>::new(9).commit(&vfs).unwrap();
        assert!(vfs.exists(&file_name::<K>(9)));
        K::check_empty(&mut SegmentReader::<K>::open(&vfs, 9).unwrap());
        let err = SegmentReader::<K>::open(&vfs, 10).err().expect("opened");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// An empty body still commits a file under every codec, and opens.
    fn coded_empty<K: Sample>() {
        for codec in CodecChoice::ALL {
            let vfs = MemVfs::new();
            SegmentWriter::<K>::new(9).commit_with(&vfs, codec).unwrap();
            assert!(vfs.exists(&file_name::<K>(9)), "{codec:?}");
            K::check_empty(&mut SegmentReader::<K>::open(&vfs, 9).unwrap());
        }
    }

    /// `remove` drops exactly one superstep's file and is idempotent.
    fn prune<K: Sample>() {
        let vfs = MemVfs::new();
        remove::<K>(&vfs, 3).unwrap();
        SegmentWriter::<K>::new(3).commit(&vfs).unwrap();
        SegmentWriter::<K>::new(6).commit(&vfs).unwrap();
        remove::<K>(&vfs, 3).unwrap();
        remove::<K>(&vfs, 3).unwrap();
        assert!(!vfs.exists(&file_name::<K>(3)));
        assert!(vfs.exists(&file_name::<K>(6)));
    }

    /// A second commit of one superstep replaces the first.
    fn overwrite<K: Sample>() {
        let vfs = MemVfs::new();
        let mut w = SegmentWriter::<K>::new(3);
        K::fill(&mut w);
        w.commit(&vfs).unwrap();
        SegmentWriter::<K>::new(3).commit(&vfs).unwrap();
        K::check_empty(&mut SegmentReader::<K>::open(&vfs, 3).unwrap());
    }

    /// The case table: every case, once per kind.
    macro_rules! cases {
        ($($name:ident: $case:ident::<$kind:ty>),* $(,)?) => {$(
            #[test]
            fn $name() {
                $case::<$kind>();
            }
        )*};
    }

    cases! {
        checkpoint_round_trip: round_trip::<Checkpoint>,
        msg_log_round_trip: round_trip::<MsgLog>,
        checkpoint_io_is_sequential: io_is_sequential::<Checkpoint>,
        msg_log_io_is_sequential: io_is_sequential::<MsgLog>,
        checkpoint_superstep_mismatch: superstep_mismatch::<Checkpoint>,
        msg_log_superstep_mismatch: superstep_mismatch::<MsgLog>,
        checkpoint_coded_accounting: coded_accounting::<Checkpoint>,
        msg_log_coded_accounting: coded_accounting::<MsgLog>,
        checkpoint_empty_is_not_missing: empty_is_not_missing::<Checkpoint>,
        msg_log_empty_is_not_missing: empty_is_not_missing::<MsgLog>,
        checkpoint_coded_empty: coded_empty::<Checkpoint>,
        msg_log_coded_empty: coded_empty::<MsgLog>,
        checkpoint_prune: prune::<Checkpoint>,
        msg_log_prune: prune::<MsgLog>,
        checkpoint_overwrite: overwrite::<Checkpoint>,
        msg_log_overwrite: overwrite::<MsgLog>,
    }

    /// The names existing files carry.
    #[test]
    fn kinds_name_their_files() {
        assert_eq!(file_name::<Checkpoint>(12), "ckpt_000000000012");
        assert_eq!(file_name::<MsgLog>(7), "msglog_000000000007");
    }
}
