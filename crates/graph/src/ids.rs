//! Compact typed identifiers.
//!
//! Vertices, Vblocks and computational nodes ("workers" — the paper's
//! slaves) are all addressed by dense indices. Newtypes keep the three
//! spaces from being mixed up while compiling down to plain integers.

use std::fmt;

/// Identifier of a vertex. Dense in `0..n` for a graph with `n` vertices.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> u32 {
        v.0
    }
}

impl From<usize> for VertexId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize, "vertex id overflows u32");
        VertexId(v as u32)
    }
}

/// Global identifier of a Vblock in the VE-BLOCK layout.
///
/// Block ids are dense in `0..V` where `V` is the total number of Vblocks
/// across the cluster; pull requests carry a `BlockId` instead of a set of
/// vertex ids, which is the essence of block-centric pulling (paper §4.2).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for BlockId {
    #[inline]
    fn from(b: u32) -> Self {
        BlockId(b)
    }
}

impl From<BlockId> for u32 {
    #[inline]
    fn from(b: BlockId) -> u32 {
        b.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of a computational node (the paper's "slave"/task; one task
/// per node is assumed throughout, matching the paper's setup).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct WorkerId(pub u16);

impl WorkerId {
    /// The worker id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<usize> for WorkerId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "worker id overflows u16");
        WorkerId(v as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from(42usize);
        assert_eq!(v.index(), 42);
        assert_eq!(v, VertexId(42));
        assert_eq!(v.to_string(), "v42");
    }

    #[test]
    fn block_id_ordering() {
        assert!(BlockId(1) < BlockId(2));
        assert_eq!(BlockId(7).index(), 7);
        assert_eq!(BlockId(7).to_string(), "b7");
    }

    #[test]
    fn worker_id_display_and_index() {
        let w = WorkerId::from(3usize);
        assert_eq!(w.index(), 3);
        assert_eq!(w.to_string(), "T3");
    }

    #[test]
    fn ids_are_compact() {
        assert_eq!(std::mem::size_of::<VertexId>(), 4);
        assert_eq!(std::mem::size_of::<BlockId>(), 4);
        assert_eq!(std::mem::size_of::<WorkerId>(), 2);
    }
}
