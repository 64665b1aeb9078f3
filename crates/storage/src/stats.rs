//! Per-access-class I/O accounting.
//!
//! Every byte a store moves is recorded here under one of four access
//! classes. The engine snapshots the counters around each superstep to
//! obtain the per-superstep I/O quantities the paper's cost model needs
//! (Eqs. 7, 8 and 11), and converts byte totals to *modeled seconds* with a
//! [`DeviceProfile`].

use crate::profile::DeviceProfile;
use hybridgraph_codec::record;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest unit a *scattered* random access moves on a real disk.
///
/// Byte-exact accounting would under-charge point lookups of tiny records
/// (a 4-byte label read still seeks and transfers a sector). Stores whose
/// random accesses have no locality (the pull baseline's gather fragments
/// and its LRU misses/evictions) pad each access to one sector via
/// [`seek_pad`]. VE-BLOCK's svertex reads are *not* padded: fragments are
/// written in svertex order, so Pull-Respond sweeps each Vblock in
/// ascending offsets — the clustering §4.1 is about.
pub const SECTOR_BYTES: u64 = 512;

/// The extra bytes a scattered access of `bytes` payload is charged.
pub fn seek_pad(bytes: u64) -> u64 {
    SECTOR_BYTES.saturating_sub(bytes)
}

/// The full charged size of a scattered access of `bytes` payload.
pub fn scattered_cost(bytes: u64) -> u64 {
    bytes.max(SECTOR_BYTES)
}

/// How an access hits the device.
///
/// Classification is done by the caller (the store), which knows whether it
/// is scanning or seeking; the VFS backends do not guess.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessClass {
    /// Sequential read (scan).
    SeqRead,
    /// Sequential write (append/rewrite).
    SeqWrite,
    /// Random read (point lookup / seek).
    RandRead,
    /// Random write (scattered update).
    RandWrite,
}

impl AccessClass {
    /// All four classes.
    pub const ALL: [AccessClass; 4] = [
        AccessClass::SeqRead,
        AccessClass::SeqWrite,
        AccessClass::RandRead,
        AccessClass::RandWrite,
    ];

    /// Stable short name, used to label per-class trace events and
    /// metrics series (`vfs.seq_read` etc.).
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::SeqRead => "seq_read",
            AccessClass::SeqWrite => "seq_write",
            AccessClass::RandRead => "rand_read",
            AccessClass::RandWrite => "rand_write",
        }
    }
}

/// Thread-safe I/O counters: bytes and operation counts per access class.
///
/// Each class keeps *two* byte counters. The **physical** counter is the
/// bytes that actually crossed the (simulated) device — what the cost
/// model (`modeled_secs`) and the `Q_t` switch inputs consume. The
/// **logical** counter is the uncompressed application bytes the access
/// represents. Without a codec they track each other (every access
/// records both equal), so physical counters are byte-for-byte what they
/// were before compression existed; with a codec the gap between them is
/// the compression win.
#[derive(Debug, Default)]
pub struct IoStats {
    seq_read_bytes: AtomicU64,
    seq_write_bytes: AtomicU64,
    rand_read_bytes: AtomicU64,
    rand_write_bytes: AtomicU64,
    seq_read_logical_bytes: AtomicU64,
    seq_write_logical_bytes: AtomicU64,
    rand_read_logical_bytes: AtomicU64,
    rand_write_logical_bytes: AtomicU64,
    seq_read_ops: AtomicU64,
    seq_write_ops: AtomicU64,
    rand_read_ops: AtomicU64,
    rand_write_ops: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        IoStats::default()
    }

    #[inline]
    fn counters(&self, class: AccessClass) -> (&AtomicU64, &AtomicU64, &AtomicU64) {
        match class {
            AccessClass::SeqRead => (
                &self.seq_read_bytes,
                &self.seq_read_logical_bytes,
                &self.seq_read_ops,
            ),
            AccessClass::SeqWrite => (
                &self.seq_write_bytes,
                &self.seq_write_logical_bytes,
                &self.seq_write_ops,
            ),
            AccessClass::RandRead => (
                &self.rand_read_bytes,
                &self.rand_read_logical_bytes,
                &self.rand_read_ops,
            ),
            AccessClass::RandWrite => (
                &self.rand_write_bytes,
                &self.rand_write_logical_bytes,
                &self.rand_write_ops,
            ),
        }
    }

    /// Records one uncoded access of `bytes` bytes in `class`
    /// (physical == logical).
    #[inline]
    pub fn record(&self, class: AccessClass, bytes: u64) {
        self.record_coded(class, bytes, bytes);
    }

    /// Records one coded access: `physical` bytes crossed the device for
    /// `logical` application bytes.
    #[inline]
    pub fn record_coded(&self, class: AccessClass, physical: u64, logical: u64) {
        self.add(class, physical, logical, 1);
    }

    /// Records a run of `ops` uncoded accesses moved as one transfer of
    /// `bytes` bytes in total (physical == logical). The spill path writes
    /// whole message runs at once while the cost model still counts one
    /// scattered write per message.
    #[inline]
    pub fn record_run(&self, class: AccessClass, bytes: u64, ops: u64) {
        self.add(class, bytes, bytes, ops);
    }

    #[inline]
    fn add(&self, class: AccessClass, physical: u64, logical: u64, ops: u64) {
        let (b, l, o) = self.counters(class);
        b.fetch_add(physical, Ordering::Relaxed);
        l.fetch_add(logical, Ordering::Relaxed);
        o.fetch_add(ops, Ordering::Relaxed);
    }

    /// Records modeled device bytes that carry no application data (seek
    /// padding for scattered accesses): physical only, no logical bytes.
    #[inline]
    pub fn record_physical(&self, class: AccessClass, bytes: u64) {
        let (b, _, o) = self.counters(class);
        b.fetch_add(bytes, Ordering::Relaxed);
        o.fetch_add(1, Ordering::Relaxed);
    }

    /// Tops up the logical byte count of an access already recorded (no
    /// extra op, no physical bytes). Used when the logical size only
    /// becomes known after a coded payload is read back and decoded.
    #[inline]
    pub fn record_logical(&self, class: AccessClass, bytes: u64) {
        let (_, l, _) = self.counters(class);
        l.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            seq_read_bytes: self.seq_read_bytes.load(Ordering::Relaxed),
            seq_write_bytes: self.seq_write_bytes.load(Ordering::Relaxed),
            rand_read_bytes: self.rand_read_bytes.load(Ordering::Relaxed),
            rand_write_bytes: self.rand_write_bytes.load(Ordering::Relaxed),
            seq_read_logical_bytes: self.seq_read_logical_bytes.load(Ordering::Relaxed),
            seq_write_logical_bytes: self.seq_write_logical_bytes.load(Ordering::Relaxed),
            rand_read_logical_bytes: self.rand_read_logical_bytes.load(Ordering::Relaxed),
            rand_write_logical_bytes: self.rand_write_logical_bytes.load(Ordering::Relaxed),
            seq_read_ops: self.seq_read_ops.load(Ordering::Relaxed),
            seq_write_ops: self.seq_write_ops.load(Ordering::Relaxed),
            rand_read_ops: self.rand_read_ops.load(Ordering::Relaxed),
            rand_write_ops: self.rand_write_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.seq_read_bytes.store(0, Ordering::Relaxed);
        self.seq_write_bytes.store(0, Ordering::Relaxed);
        self.rand_read_bytes.store(0, Ordering::Relaxed);
        self.rand_write_bytes.store(0, Ordering::Relaxed);
        self.seq_read_logical_bytes.store(0, Ordering::Relaxed);
        self.seq_write_logical_bytes.store(0, Ordering::Relaxed);
        self.rand_read_logical_bytes.store(0, Ordering::Relaxed);
        self.rand_write_logical_bytes.store(0, Ordering::Relaxed);
        self.seq_read_ops.store(0, Ordering::Relaxed);
        self.seq_write_ops.store(0, Ordering::Relaxed);
        self.rand_read_ops.store(0, Ordering::Relaxed);
        self.rand_write_ops.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of [`IoStats`] counters; supports deltas.
///
/// The unqualified `*_bytes` fields are **physical** (on-device) bytes —
/// the quantity [`IoSnapshot::modeled_secs`] and the `Q_t` inputs use.
/// The `*_logical_bytes` fields are the uncompressed application bytes
/// behind those accesses; `physical / logical` is the compression ratio.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub seq_read_bytes: u64,
    pub seq_write_bytes: u64,
    pub rand_read_bytes: u64,
    pub rand_write_bytes: u64,
    pub seq_read_logical_bytes: u64,
    pub seq_write_logical_bytes: u64,
    pub rand_read_logical_bytes: u64,
    pub rand_write_logical_bytes: u64,
    pub seq_read_ops: u64,
    pub seq_write_ops: u64,
    pub rand_read_ops: u64,
    pub rand_write_ops: u64,
}

record! { IoSnapshot {
    seq_read_bytes, seq_write_bytes, rand_read_bytes, rand_write_bytes,
    seq_read_logical_bytes, seq_write_logical_bytes, rand_read_logical_bytes,
    rand_write_logical_bytes, seq_read_ops, seq_write_ops, rand_read_ops, rand_write_ops,
} }

impl IoSnapshot {
    /// Physical (on-device) bytes in `class`.
    pub fn bytes(&self, class: AccessClass) -> u64 {
        match class {
            AccessClass::SeqRead => self.seq_read_bytes,
            AccessClass::SeqWrite => self.seq_write_bytes,
            AccessClass::RandRead => self.rand_read_bytes,
            AccessClass::RandWrite => self.rand_write_bytes,
        }
    }

    /// Logical (uncompressed application) bytes in `class`.
    pub fn logical_bytes(&self, class: AccessClass) -> u64 {
        match class {
            AccessClass::SeqRead => self.seq_read_logical_bytes,
            AccessClass::SeqWrite => self.seq_write_logical_bytes,
            AccessClass::RandRead => self.rand_read_logical_bytes,
            AccessClass::RandWrite => self.rand_write_logical_bytes,
        }
    }

    /// Operation count in `class`.
    pub fn ops(&self, class: AccessClass) -> u64 {
        match class {
            AccessClass::SeqRead => self.seq_read_ops,
            AccessClass::SeqWrite => self.seq_write_ops,
            AccessClass::RandRead => self.rand_read_ops,
            AccessClass::RandWrite => self.rand_write_ops,
        }
    }

    /// Total physical bytes across all classes (what Fig. 10 reports).
    pub fn total_bytes(&self) -> u64 {
        self.seq_read_bytes + self.seq_write_bytes + self.rand_read_bytes + self.rand_write_bytes
    }

    /// Total logical bytes across all classes.
    pub fn total_logical_bytes(&self) -> u64 {
        self.seq_read_logical_bytes
            + self.seq_write_logical_bytes
            + self.rand_read_logical_bytes
            + self.rand_write_logical_bytes
    }

    /// Counter-wise difference `self - earlier`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `earlier` is not actually earlier.
    pub fn delta(&self, earlier: &IoSnapshot) -> IoSnapshot {
        debug_assert!(self.seq_read_bytes >= earlier.seq_read_bytes);
        IoSnapshot {
            seq_read_bytes: self.seq_read_bytes - earlier.seq_read_bytes,
            seq_write_bytes: self.seq_write_bytes - earlier.seq_write_bytes,
            rand_read_bytes: self.rand_read_bytes - earlier.rand_read_bytes,
            rand_write_bytes: self.rand_write_bytes - earlier.rand_write_bytes,
            seq_read_logical_bytes: self.seq_read_logical_bytes - earlier.seq_read_logical_bytes,
            seq_write_logical_bytes: self.seq_write_logical_bytes - earlier.seq_write_logical_bytes,
            rand_read_logical_bytes: self.rand_read_logical_bytes - earlier.rand_read_logical_bytes,
            rand_write_logical_bytes: self.rand_write_logical_bytes
                - earlier.rand_write_logical_bytes,
            seq_read_ops: self.seq_read_ops - earlier.seq_read_ops,
            seq_write_ops: self.seq_write_ops - earlier.seq_write_ops,
            rand_read_ops: self.rand_read_ops - earlier.rand_read_ops,
            rand_write_ops: self.rand_write_ops - earlier.rand_write_ops,
        }
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            seq_read_bytes: self.seq_read_bytes + other.seq_read_bytes,
            seq_write_bytes: self.seq_write_bytes + other.seq_write_bytes,
            rand_read_bytes: self.rand_read_bytes + other.rand_read_bytes,
            rand_write_bytes: self.rand_write_bytes + other.rand_write_bytes,
            seq_read_logical_bytes: self.seq_read_logical_bytes + other.seq_read_logical_bytes,
            seq_write_logical_bytes: self.seq_write_logical_bytes + other.seq_write_logical_bytes,
            rand_read_logical_bytes: self.rand_read_logical_bytes + other.rand_read_logical_bytes,
            rand_write_logical_bytes: self.rand_write_logical_bytes
                + other.rand_write_logical_bytes,
            seq_read_ops: self.seq_read_ops + other.seq_read_ops,
            seq_write_ops: self.seq_write_ops + other.seq_write_ops,
            rand_read_ops: self.rand_read_ops + other.rand_read_ops,
            rand_write_ops: self.rand_write_ops + other.rand_write_ops,
        }
    }

    /// Modeled elapsed seconds for these bytes on `profile` (Eq. 4's `C_io`
    /// term, converted from bytes to time).
    pub fn modeled_secs(&self, profile: &DeviceProfile) -> f64 {
        profile.seq_read_secs(self.seq_read_bytes)
            + profile.seq_write_secs(self.seq_write_bytes)
            + profile.rand_read_secs(self.rand_read_bytes)
            + profile.rand_write_secs(self.rand_write_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = IoStats::new();
        s.record(AccessClass::SeqRead, 100);
        s.record(AccessClass::SeqRead, 50);
        s.record(AccessClass::RandWrite, 7);
        let snap = s.snapshot();
        assert_eq!(snap.seq_read_bytes, 150);
        assert_eq!(snap.seq_read_ops, 2);
        assert_eq!(snap.rand_write_bytes, 7);
        assert_eq!(snap.rand_write_ops, 1);
        assert_eq!(snap.total_bytes(), 157);
    }

    #[test]
    fn uncoded_record_keeps_logical_equal_to_physical() {
        let s = IoStats::new();
        s.record(AccessClass::SeqRead, 100);
        s.record(AccessClass::RandWrite, 7);
        let snap = s.snapshot();
        for c in AccessClass::ALL {
            assert_eq!(snap.bytes(c), snap.logical_bytes(c), "{}", c.label());
        }
        assert_eq!(snap.total_logical_bytes(), snap.total_bytes());
    }

    #[test]
    fn coded_record_splits_physical_and_logical() {
        let s = IoStats::new();
        s.record_coded(AccessClass::SeqRead, 30, 100);
        s.record_physical(AccessClass::RandRead, 512);
        let snap = s.snapshot();
        assert_eq!(snap.seq_read_bytes, 30);
        assert_eq!(snap.seq_read_logical_bytes, 100);
        assert_eq!(snap.seq_read_ops, 1);
        assert_eq!(snap.rand_read_bytes, 512);
        assert_eq!(snap.rand_read_logical_bytes, 0);
        assert_eq!(snap.rand_read_ops, 1);
        let d = snap.delta(&IoSnapshot::default());
        assert_eq!(d, snap);
        let sum = snap.plus(&snap);
        assert_eq!(sum.seq_read_logical_bytes, 200);
        assert_eq!(sum.rand_read_bytes, 1024);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn delta_subtracts() {
        let s = IoStats::new();
        s.record(AccessClass::SeqWrite, 10);
        let a = s.snapshot();
        s.record(AccessClass::SeqWrite, 30);
        s.record(AccessClass::RandRead, 5);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.seq_write_bytes, 30);
        assert_eq!(d.rand_read_bytes, 5);
        assert_eq!(d.seq_write_ops, 1);
    }

    #[test]
    fn plus_adds() {
        let a = IoSnapshot {
            seq_read_bytes: 1,
            rand_read_bytes: 2,
            ..Default::default()
        };
        let b = IoSnapshot {
            seq_read_bytes: 10,
            seq_write_ops: 3,
            ..Default::default()
        };
        let c = a.plus(&b);
        assert_eq!(c.seq_read_bytes, 11);
        assert_eq!(c.rand_read_bytes, 2);
        assert_eq!(c.seq_write_ops, 3);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record(AccessClass::RandRead, 42);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn modeled_secs_uses_class_throughputs() {
        let p = DeviceProfile::local_hdd();
        let snap = IoSnapshot {
            rand_read_bytes: 1177 * 1024, // ~1.177 MB/s worth -> ~1 s at 1.177 MB/s... scaled
            ..Default::default()
        };
        let secs = snap.modeled_secs(&p);
        let expect = (1177.0 * 1024.0) / (1.177 * 1024.0 * 1024.0);
        assert!((secs - expect).abs() < 1e-9);
    }

    #[test]
    fn class_accessors() {
        let snap = IoSnapshot {
            seq_read_bytes: 1,
            seq_write_bytes: 2,
            rand_read_bytes: 3,
            rand_write_bytes: 4,
            ..Default::default()
        };
        let got: Vec<u64> = AccessClass::ALL.iter().map(|&c| snap.bytes(c)).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let s = Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record(AccessClass::SeqRead, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().seq_read_bytes, 8000);
        assert_eq!(s.snapshot().seq_read_ops, 8000);
    }
}
