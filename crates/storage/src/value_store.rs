//! Disk-resident vertex-value segment.
//!
//! The paper assumes graph data (vertices and edges) reside on disk (§3).
//! Vertex values are stored as fixed-width records in vertex-id order, so a
//! Vblock's values form one contiguous run: block reads/writes are
//! sequential, while the svertex lookups Pull-Respond performs while
//! scanning fragments are random reads (the paper's `IO(V^t_rr)` term).

use crate::record::{encode_slice, Record};
use crate::stats::AccessClass;
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_graph::VertexId;
use std::io;
use std::marker::PhantomData;
use std::ops::Range;

/// Fixed-width vertex values for one worker's contiguous vertex range.
pub struct ValueStore<V: Record> {
    file: VfsFile,
    /// First vertex id owned by this store.
    base: u32,
    /// Number of vertices in the store.
    count: usize,
    _marker: PhantomData<V>,
}

impl<V: Record> ValueStore<V> {
    /// Creates the store for vertices `base..base + values.len()` and
    /// writes the initial values sequentially.
    pub fn create(vfs: &dyn Vfs, name: &str, base: u32, values: &[V]) -> io::Result<ValueStore<V>> {
        let file = vfs.create(name)?;
        file.append(AccessClass::SeqWrite, &encode_slice(values))?;
        Ok(ValueStore {
            file,
            base,
            count: values.len(),
            _marker: PhantomData,
        })
    }

    /// First vertex id owned.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the store holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bytes a whole-store pass touches.
    pub fn total_bytes(&self) -> u64 {
        self.count as u64 * V::BYTES as u64
    }

    #[inline]
    fn offset_of(&self, v: VertexId) -> u64 {
        debug_assert!(
            v.0 >= self.base && ((v.0 - self.base) as usize) < self.count,
            "vertex {v} outside store range"
        );
        (v.0 - self.base) as u64 * V::BYTES as u64
    }

    /// Sequentially reads values of the contiguous vertex range.
    pub fn read_range(&self, range: Range<u32>) -> io::Result<Vec<V>> {
        let mut values = Vec::new();
        self.read_range_into(range, &mut Vec::new(), &mut values)?;
        Ok(values)
    }

    /// [`ValueStore::read_range`] into `values` through `raw`, both
    /// caller-kept buffers, so a read allocates only while they grow.
    pub fn read_range_into(
        &self,
        range: Range<u32>,
        raw: &mut Vec<u8>,
        values: &mut Vec<V>,
    ) -> io::Result<()> {
        values.clear();
        if range.is_empty() {
            return Ok(());
        }
        raw.resize(range.len() * V::BYTES, 0);
        let off = self.offset_of(VertexId(range.start));
        self.file.read_at(AccessClass::SeqRead, off, raw)?;
        // Zero-width records decode to none, as in `decode_slice`.
        values.extend(raw.chunks_exact(V::BYTES.max(1)).map(V::read_from));
        Ok(())
    }

    /// Sequentially writes values of the contiguous vertex range.
    pub fn write_range(&self, range: Range<u32>, values: &[V]) -> io::Result<()> {
        let mut raw = Vec::with_capacity(values.len() * V::BYTES);
        self.write_range_from(range, values, &mut raw)
    }

    /// [`ValueStore::write_range`], encoding through the caller-kept `raw`.
    pub fn write_range_from(
        &self,
        range: Range<u32>,
        values: &[V],
        raw: &mut Vec<u8>,
    ) -> io::Result<()> {
        assert_eq!(range.len(), values.len(), "range/value length mismatch");
        if range.is_empty() {
            return Ok(());
        }
        raw.clear();
        values.iter().for_each(|v| v.append_to(raw));
        self.write_encoded(range.start, raw)
    }

    /// [`ValueStore::write_range`] of a non-empty run starting at `start`
    /// whose values the caller already encoded (`V::BYTES` each, back to
    /// back).
    pub fn write_encoded(&self, start: u32, bytes: &[u8]) -> io::Result<()> {
        self.file.write_at(
            AccessClass::SeqWrite,
            self.offset_of(VertexId(start)),
            bytes,
        )
    }

    /// Randomly reads one value (Pull-Respond's svertex lookup).
    pub fn read_one(&self, v: VertexId) -> io::Result<V> {
        with_value_buf::<V, _>(|buf| {
            self.file
                .read_at(AccessClass::RandRead, self.offset_of(v), buf)?;
            Ok(V::read_from(buf))
        })
    }

    /// Randomly writes one value.
    pub fn write_one(&self, v: VertexId, value: &V) -> io::Result<()> {
        with_value_buf::<V, _>(|buf| {
            value.write_to(buf);
            self.file
                .write_at(AccessClass::RandWrite, self.offset_of(v), buf)
        })
    }
}

/// Runs `f` on a zeroed `V::BYTES`-byte buffer — on the stack for values up
/// to 64 bytes wide (every shipped program's), so a point access allocates
/// nothing.
fn with_value_buf<V: Record, R>(f: impl FnOnce(&mut [u8]) -> R) -> R {
    let mut stack = [0u8; 64];
    match stack.get_mut(..V::BYTES) {
        Some(buf) => f(buf),
        None => f(&mut vec![0u8; V::BYTES]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn store(vfs: &MemVfs) -> ValueStore<f64> {
        let vals: Vec<f64> = (0..10).map(|i| i as f64).collect();
        ValueStore::create(vfs, "vals", 100, &vals).unwrap()
    }

    #[test]
    fn create_and_point_reads() {
        let vfs = MemVfs::new();
        let s = store(&vfs);
        assert_eq!(s.len(), 10);
        assert_eq!(s.base(), 100);
        assert_eq!(s.read_one(VertexId(100)).unwrap(), 0.0);
        assert_eq!(s.read_one(VertexId(109)).unwrap(), 9.0);
    }

    #[test]
    fn range_roundtrip() {
        let vfs = MemVfs::new();
        let s = store(&vfs);
        assert_eq!(s.read_range(102..105).unwrap(), vec![2.0, 3.0, 4.0]);
        s.write_range(102..104, &[20.0, 30.0]).unwrap();
        assert_eq!(s.read_range(101..105).unwrap(), vec![1.0, 20.0, 30.0, 4.0]);
    }

    #[test]
    fn point_write() {
        let vfs = MemVfs::new();
        let s = store(&vfs);
        s.write_one(VertexId(105), &55.5).unwrap();
        assert_eq!(s.read_one(VertexId(105)).unwrap(), 55.5);
    }

    #[test]
    fn accounting_classes() {
        let vfs = MemVfs::new();
        let s = store(&vfs);
        let before = vfs.stats().snapshot();
        s.read_range(100..110).unwrap();
        s.read_one(VertexId(100)).unwrap();
        s.write_one(VertexId(100), &1.0).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.seq_read_bytes, 80);
        assert_eq!(d.rand_read_bytes, 8);
        assert_eq!(d.rand_write_bytes, 8);
        // Creation wrote the initial values sequentially.
        assert_eq!(before.seq_write_bytes, 80);
    }

    #[test]
    fn empty_range_is_free() {
        let vfs = MemVfs::new();
        let s = store(&vfs);
        let before = vfs.stats().snapshot();
        assert!(s.read_range(105..105).unwrap().is_empty());
        s.write_range(105..105, &[]).unwrap();
        assert_eq!(vfs.stats().snapshot(), before);
    }

    #[test]
    fn total_bytes() {
        let vfs = MemVfs::new();
        let s = store(&vfs);
        assert_eq!(s.total_bytes(), 80);
    }
}
