//! Minimal virtual file system with uniform I/O accounting.
//!
//! Every store in this crate moves its bytes through a [`Vfs`], so a single
//! accounting point ([`IoStats`]) sees all traffic. Two backends exist:
//!
//! * [`MemVfs`] — files are in-memory byte vectors. The default for tests
//!   and benchmarks: byte-exact accounting without real-disk noise.
//! * [`DirVfs`] — files are real files under a directory, for runs that
//!   want the physical I/O path too.
//!
//! The backend never guesses whether an access is sequential or random —
//! the calling store states the [`AccessClass`] explicitly, because only it
//! knows whether it is scanning or seeking. This mirrors how the paper
//! attributes each byte of each data structure to a throughput class in
//! Eq. 11.

use crate::stats::{AccessClass, IoStats};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

/// Backend-agnostic file contents.
trait RawFile: Send + Sync {
    fn len(&self) -> u64;
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()>;
    fn write_at(&self, off: u64, data: &[u8]) -> io::Result<()>;
    /// Appends and returns the offset the data landed at.
    fn append(&self, data: &[u8]) -> io::Result<u64>;
    fn truncate(&self) -> io::Result<()>;
    /// Shrinks the file to `len` bytes (no-op if already shorter).
    fn truncate_to(&self, len: u64) -> io::Result<()>;
}

/// A named file plus the stats sink its accesses are recorded into.
#[derive(Clone)]
pub struct VfsFile {
    raw: Arc<dyn RawFile>,
    stats: Arc<IoStats>,
}

impl VfsFile {
    /// Current length in bytes.
    pub fn len(&self) -> u64 {
        self.raw.len()
    }

    /// True if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes at `off`, accounting them in `class`.
    pub fn read_at(&self, class: AccessClass, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.raw.read_at(off, buf)?;
        self.stats.record(class, buf.len() as u64);
        Ok(())
    }

    /// Reads `len` bytes at `off` into a fresh vector.
    pub fn read_vec(&self, class: AccessClass, off: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_at(class, off, &mut buf)?;
        Ok(buf)
    }

    /// Reads the whole file sequentially.
    pub fn read_all(&self, class: AccessClass) -> io::Result<Vec<u8>> {
        self.read_vec(class, 0, self.len() as usize)
    }

    /// Writes `data` at `off`, accounting it in `class`.
    pub fn write_at(&self, class: AccessClass, off: u64, data: &[u8]) -> io::Result<()> {
        self.raw.write_at(off, data)?;
        self.stats.record(class, data.len() as u64);
        Ok(())
    }

    /// Appends `data`, accounting it in `class`; returns the write offset.
    pub fn append(&self, class: AccessClass, data: &[u8]) -> io::Result<u64> {
        self.append_run(class, data, 1)
    }

    /// Appends `data` as one transfer that stands for `ops` accesses in
    /// `class` (see [`IoStats::record_run`]); returns the write offset.
    pub fn append_run(&self, class: AccessClass, data: &[u8], ops: u64) -> io::Result<u64> {
        let off = self.raw.append(data)?;
        self.stats.record_run(class, data.len() as u64, ops);
        Ok(off)
    }

    /// Appends coded `data` that stands for `logical` uncompressed bytes:
    /// physical accounting sees `data.len()`, logical accounting sees
    /// `logical`. Returns the write offset.
    pub fn append_coded(&self, class: AccessClass, data: &[u8], logical: u64) -> io::Result<u64> {
        let off = self.raw.append(data)?;
        self.stats.record_coded(class, data.len() as u64, logical);
        Ok(off)
    }

    /// Reads `buf.len()` coded bytes at `off` that stand for `logical`
    /// uncompressed bytes (see [`VfsFile::append_coded`]).
    pub fn read_coded_at(
        &self,
        class: AccessClass,
        off: u64,
        buf: &mut [u8],
        logical: u64,
    ) -> io::Result<()> {
        self.raw.read_at(off, buf)?;
        self.stats.record_coded(class, buf.len() as u64, logical);
        Ok(())
    }

    /// Truncates the file to zero length (not an accounted access).
    pub fn truncate(&self) -> io::Result<()> {
        self.raw.truncate()
    }

    /// Shrinks the file to `len` bytes; a no-op if it is already at or
    /// below that length. Like [`VfsFile::truncate`] this is not an
    /// accounted access: dropping bytes moves no data. Used to cut a
    /// service log back to its last whole record.
    pub fn truncate_to(&self, len: u64) -> io::Result<()> {
        self.raw.truncate_to(len)
    }

    /// Charges extra modeled bytes without moving data — used by stores
    /// to account seek padding for scattered accesses
    /// (see [`crate::stats::seek_pad`]). The charge is physical-only:
    /// padding carries no application data, so logical counters are
    /// untouched.
    pub fn charge(&self, class: AccessClass, bytes: u64) {
        if bytes > 0 {
            self.stats.record_physical(class, bytes);
        }
    }

    /// The same underlying file, recording into `stats` instead of the
    /// owning VFS's sink. This is how a store built once (by a catalog)
    /// can be read by many jobs with each job's bytes attributed to its
    /// own [`IoStats`].
    pub fn with_stats(&self, stats: Arc<IoStats>) -> VfsFile {
        VfsFile {
            raw: Arc::clone(&self.raw),
            stats,
        }
    }
}

/// A namespace of accounted files.
pub trait Vfs: Send + Sync {
    /// Creates (or truncates) a file.
    fn create(&self, name: &str) -> io::Result<VfsFile>;
    /// Opens an existing file.
    fn open(&self, name: &str) -> io::Result<VfsFile>;
    /// Removes a file if it exists.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// True if the file exists.
    fn exists(&self, name: &str) -> bool;
    /// The stats sink all files of this VFS record into.
    fn stats(&self) -> &Arc<IoStats>;
}

// ---------------------------------------------------------------- MemVfs

struct MemFile {
    data: RwLock<Vec<u8>>,
}

impl RawFile for MemFile {
    fn len(&self) -> u64 {
        self.data.read().unwrap().len() as u64
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let data = self.data.read().unwrap();
        let off = off as usize;
        let end = off + buf.len();
        if end > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read past end: {} > {}", end, data.len()),
            ));
        }
        buf.copy_from_slice(&data[off..end]);
        Ok(())
    }

    fn write_at(&self, off: u64, data_in: &[u8]) -> io::Result<()> {
        let mut data = self.data.write().unwrap();
        let off = off as usize;
        let end = off + data_in.len();
        if end > data.len() {
            data.resize(end, 0);
        }
        data[off..end].copy_from_slice(data_in);
        Ok(())
    }

    fn append(&self, data_in: &[u8]) -> io::Result<u64> {
        let mut data = self.data.write().unwrap();
        let off = data.len() as u64;
        data.extend_from_slice(data_in);
        Ok(off)
    }

    fn truncate(&self) -> io::Result<()> {
        self.data.write().unwrap().clear();
        Ok(())
    }

    fn truncate_to(&self, len: u64) -> io::Result<()> {
        let mut data = self.data.write().unwrap();
        if (len as usize) < data.len() {
            data.truncate(len as usize);
        }
        Ok(())
    }
}

/// In-memory [`Vfs`] backend.
pub struct MemVfs {
    files: RwLock<HashMap<String, Arc<MemFile>>>,
    stats: Arc<IoStats>,
}

impl MemVfs {
    /// An empty in-memory VFS with fresh stats.
    pub fn new() -> Self {
        MemVfs::with_stats(Arc::new(IoStats::new()))
    }

    /// An empty in-memory VFS recording into `stats`.
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        MemVfs {
            files: RwLock::new(HashMap::new()),
            stats,
        }
    }
}

impl Default for MemVfs {
    fn default() -> Self {
        MemVfs::new()
    }
}

impl Vfs for MemVfs {
    fn create(&self, name: &str) -> io::Result<VfsFile> {
        let file = Arc::new(MemFile {
            data: RwLock::new(Vec::new()),
        });
        self.files
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::clone(&file));
        Ok(VfsFile {
            raw: file,
            stats: Arc::clone(&self.stats),
        })
    }

    fn open(&self, name: &str) -> io::Result<VfsFile> {
        let files = self.files.read().unwrap();
        let file = files
            .get(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        Ok(VfsFile {
            raw: Arc::clone(file) as Arc<dyn RawFile>,
            stats: Arc::clone(&self.stats),
        })
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files.write().unwrap().remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.files.read().unwrap().contains_key(name)
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

// ---------------------------------------------------------------- DirVfs

struct DirFile {
    file: std::fs::File,
    len: Mutex<u64>,
}

impl RawFile for DirFile {
    fn len(&self) -> u64 {
        *self.len.lock().unwrap()
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)
    }

    fn write_at(&self, off: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(data, off)?;
        let mut len = self.len.lock().unwrap();
        *len = (*len).max(off + data.len() as u64);
        Ok(())
    }

    fn append(&self, data: &[u8]) -> io::Result<u64> {
        use std::os::unix::fs::FileExt;
        let mut len = self.len.lock().unwrap();
        let off = *len;
        self.file.write_all_at(data, off)?;
        *len += data.len() as u64;
        Ok(off)
    }

    fn truncate(&self) -> io::Result<()> {
        self.file.set_len(0)?;
        *self.len.lock().unwrap() = 0;
        Ok(())
    }

    fn truncate_to(&self, new_len: u64) -> io::Result<()> {
        let mut len = self.len.lock().unwrap();
        if new_len < *len {
            self.file.set_len(new_len)?;
            *len = new_len;
        }
        Ok(())
    }
}

/// Real-directory [`Vfs`] backend; file names map to paths under `root`.
pub struct DirVfs {
    root: PathBuf,
    stats: Arc<IoStats>,
}

impl DirVfs {
    /// A VFS rooted at `root` (created if absent) with fresh stats.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_stats(root, Arc::new(IoStats::new()))
    }

    /// A VFS rooted at `root` recording into `stats`.
    pub fn with_stats(root: impl Into<PathBuf>, stats: Arc<IoStats>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirVfs { root, stats })
    }

    fn path_of(&self, name: &str) -> PathBuf {
        // Flatten any path separators so names cannot escape the root.
        self.root.join(name.replace('/', "_"))
    }
}

impl Vfs for DirVfs {
    fn create(&self, name: &str) -> io::Result<VfsFile> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path_of(name))?;
        Ok(VfsFile {
            raw: Arc::new(DirFile {
                file,
                len: Mutex::new(0),
            }),
            stats: Arc::clone(&self.stats),
        })
    }

    fn open(&self, name: &str) -> io::Result<VfsFile> {
        let path = self.path_of(name);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(VfsFile {
            raw: Arc::new(DirFile {
                file,
                len: Mutex::new(len),
            }),
            stats: Arc::clone(&self.stats),
        })
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

// ------------------------------------------------------------- PrefixVfs

/// A namespaced view over another [`Vfs`]: every file name is prefixed,
/// and every access is recorded into this view's *own* fresh [`IoStats`]
/// rather than the backing VFS's sink.
///
/// This is how a durable service gives each job's worker a private disk
/// inside one shared persistent VFS: files survive a service restart
/// under stable names (`j<job>w<worker>_...`), while a resumed run starts
/// from zeroed per-run counters — exactly what the byte-identical replay
/// contract needs, because worker load reports snapshot absolute stats.
pub struct PrefixVfs {
    inner: Arc<dyn Vfs>,
    prefix: String,
    stats: Arc<IoStats>,
}

impl PrefixVfs {
    /// A view over `inner` prefixing every name with `prefix`, recording
    /// into a fresh stats sink.
    pub fn new(inner: Arc<dyn Vfs>, prefix: impl Into<String>) -> PrefixVfs {
        PrefixVfs {
            inner,
            prefix: prefix.into(),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The name prefix of this view.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    fn full(&self, name: &str) -> String {
        format!("{}{}", self.prefix, name)
    }
}

impl Vfs for PrefixVfs {
    fn create(&self, name: &str) -> io::Result<VfsFile> {
        Ok(self
            .inner
            .create(&self.full(name))?
            .with_stats(Arc::clone(&self.stats)))
    }

    fn open(&self, name: &str) -> io::Result<VfsFile> {
        Ok(self
            .inner
            .open(&self.full(name))?
            .with_stats(Arc::clone(&self.stats)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(&self.full(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(&self.full(name))
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(vfs: &dyn Vfs) {
        let f = vfs.create("a.dat").unwrap();
        assert!(f.is_empty());
        let off = f.append(AccessClass::SeqWrite, b"hello").unwrap();
        assert_eq!(off, 0);
        let off = f.append(AccessClass::SeqWrite, b" world").unwrap();
        assert_eq!(off, 5);
        assert_eq!(f.len(), 11);

        let mut buf = [0u8; 5];
        f.read_at(AccessClass::RandRead, 6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");

        f.write_at(AccessClass::RandWrite, 0, b"HELLO").unwrap();
        assert_eq!(f.read_all(AccessClass::SeqRead).unwrap(), b"HELLO world");

        // Reopen by name sees the same contents.
        let g = vfs.open("a.dat").unwrap();
        assert_eq!(g.len(), 11);

        // Accounting recorded every class.
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, 11);
        assert_eq!(snap.rand_read_bytes, 5);
        assert_eq!(snap.rand_write_bytes, 5);
        assert_eq!(snap.seq_read_bytes, 11);

        f.truncate().unwrap();
        assert!(f.is_empty());
        vfs.remove("a.dat").unwrap();
        assert!(!vfs.exists("a.dat"));
        assert!(vfs.open("a.dat").is_err());
    }

    #[test]
    fn mem_vfs_semantics() {
        exercise(&MemVfs::new());
    }

    #[test]
    fn dir_vfs_semantics() {
        let dir = std::env::temp_dir().join(format!("hyvfs-{}", std::process::id()));
        let vfs = DirVfs::new(&dir).unwrap();
        exercise(&vfs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_read_past_end_is_error() {
        let vfs = MemVfs::new();
        let f = vfs.create("x").unwrap();
        f.append(AccessClass::SeqWrite, b"abc").unwrap();
        let mut buf = [0u8; 8];
        assert!(f.read_at(AccessClass::SeqRead, 0, &mut buf).is_err());
    }

    #[test]
    fn truncate_to_shrinks_without_accounting() {
        let vfs = MemVfs::new();
        let f = vfs.create("t").unwrap();
        f.append(AccessClass::SeqWrite, b"0123456789").unwrap();
        let before = vfs.stats().snapshot();
        f.truncate_to(4).unwrap();
        assert_eq!(f.len(), 4);
        f.truncate_to(100).unwrap(); // no-op: never grows
        assert_eq!(f.len(), 4);
        assert_eq!(vfs.stats().snapshot(), before);
        assert_eq!(f.read_all(AccessClass::SeqRead).unwrap(), b"0123");
        let dir = std::env::temp_dir().join(format!("hyvfs-tt-{}", std::process::id()));
        let vfs = DirVfs::new(&dir).unwrap();
        let f = vfs.create("t").unwrap();
        f.append(AccessClass::SeqWrite, b"0123456789").unwrap();
        f.truncate_to(4).unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(f.read_all(AccessClass::SeqRead).unwrap(), b"0123");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_run_is_one_transfer_counted_as_many_ops() {
        let vfs = MemVfs::new();
        let f = vfs.create("r").unwrap();
        assert_eq!(
            f.append_run(AccessClass::RandWrite, b"abcdefgh", 4)
                .unwrap(),
            0
        );
        assert_eq!(f.append_run(AccessClass::RandWrite, b"ij", 1).unwrap(), 8);
        assert_eq!(f.read_all(AccessClass::SeqRead).unwrap(), b"abcdefghij");
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.rand_write_bytes, 10);
        assert_eq!(snap.rand_write_logical_bytes, 10);
        assert_eq!(snap.rand_write_ops, 5);
    }

    #[test]
    fn write_at_extends_mem_file() {
        let vfs = MemVfs::new();
        let f = vfs.create("x").unwrap();
        f.write_at(AccessClass::RandWrite, 4, b"zz").unwrap();
        assert_eq!(f.len(), 6);
        assert_eq!(f.read_all(AccessClass::SeqRead).unwrap(), b"\0\0\0\0zz");
    }

    #[test]
    fn create_truncates_existing() {
        let vfs = MemVfs::new();
        vfs.create("a")
            .unwrap()
            .append(AccessClass::SeqWrite, b"data")
            .unwrap();
        let f = vfs.create("a").unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn prefix_vfs_namespaces_and_reattributes() {
        let backing: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let view = PrefixVfs::new(Arc::clone(&backing), "j3w0_");
        view.create("ckpt")
            .unwrap()
            .append(AccessClass::SeqWrite, b"abcd")
            .unwrap();
        // The backing VFS holds the prefixed name, the view sees the bare one.
        assert!(backing.exists("j3w0_ckpt"));
        assert!(view.exists("ckpt"));
        assert!(!view.exists("j3w0_ckpt"));
        // Bytes land in the view's own stats, not the backing sink.
        assert_eq!(view.stats().snapshot().seq_write_bytes, 4);
        assert_eq!(backing.stats().snapshot().seq_write_bytes, 0);
        // A second view with the same prefix (a restarted run) finds the
        // file but starts from zeroed counters.
        let again = PrefixVfs::new(Arc::clone(&backing), "j3w0_");
        assert!(again.exists("ckpt"));
        assert_eq!(again.stats().snapshot().seq_write_bytes, 0);
        assert_eq!(
            again
                .open("ckpt")
                .unwrap()
                .read_all(AccessClass::SeqRead)
                .unwrap(),
            b"abcd"
        );
        again.remove("ckpt").unwrap();
        assert!(!backing.exists("j3w0_ckpt"));
    }

    #[test]
    fn shared_stats_across_files() {
        let stats = Arc::new(IoStats::new());
        let vfs = MemVfs::with_stats(Arc::clone(&stats));
        vfs.create("a")
            .unwrap()
            .append(AccessClass::SeqWrite, &[1; 3])
            .unwrap();
        vfs.create("b")
            .unwrap()
            .append(AccessClass::SeqWrite, &[2; 4])
            .unwrap();
        assert_eq!(stats.snapshot().seq_write_bytes, 7);
    }
}
