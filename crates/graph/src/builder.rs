//! Edge-list accumulation into CSR graphs.

use crate::csr::Graph;
use crate::edge::Edge;
use crate::ids::VertexId;

/// Accumulates directed edges and finalizes them into a [`Graph`].
///
/// Duplicate edges can optionally be removed at build time; they are kept
/// by default so generators have full control.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, Edge)>,
    dedup: bool,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
            dedup: false,
        }
    }

    /// Pre-allocates room for `m` edges.
    pub fn with_edge_capacity(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Remove duplicate `(src, dst)` pairs when building (first weight wins).
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Number of edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds an unweighted directed edge.
    pub fn add(&mut self, src: VertexId, dst: VertexId) {
        self.add_weighted(src, dst, 1.0);
    }

    /// Adds a weighted directed edge.
    pub fn add_weighted(&mut self, src: VertexId, dst: VertexId, weight: f32) {
        debug_assert!(src.index() < self.num_vertices, "src out of range");
        debug_assert!(dst.index() < self.num_vertices, "dst out of range");
        self.edges.push((src, Edge::weighted(dst, weight)));
    }

    /// Finalizes into a CSR [`Graph`]; edges are grouped by source and each
    /// row sorted by destination, so the result is deterministic regardless
    /// of insertion order.
    pub fn build(mut self) -> Graph {
        self.edges.sort_by_key(|(s, e)| (*s, e.dst));
        if self.dedup {
            self.edges.dedup_by_key(|(s, e)| (*s, e.dst));
        }
        let n = self.num_vertices;
        let mut offsets = vec![0u64; n + 1];
        for (s, _) in &self.edges {
            offsets[s.index() + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let edges = self.edges.into_iter().map(|(_, e)| e).collect();
        Graph::from_parts(offsets, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_rows() {
        let mut b = GraphBuilder::new(3);
        b.add(VertexId(0), VertexId(2));
        b.add(VertexId(0), VertexId(1));
        b.add(VertexId(2), VertexId(0));
        let g = b.build();
        let row0: Vec<_> = g.out_edges(VertexId(0)).iter().map(|e| e.dst.0).collect();
        assert_eq!(row0, vec![1, 2]);
        assert_eq!(g.out_degree(VertexId(1)), 0);
        assert_eq!(g.out_degree(VertexId(2)), 1);
    }

    #[test]
    fn dedup_keeps_first_weight() {
        let mut b = GraphBuilder::new(2).dedup();
        b.add_weighted(VertexId(0), VertexId(1), 3.0);
        b.add_weighted(VertexId(0), VertexId(1), 9.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(VertexId(0))[0].weight, 3.0);
    }

    #[test]
    fn empty_builder() {
        let b = GraphBuilder::new(5);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn insertion_order_irrelevant() {
        let mut a = GraphBuilder::new(4);
        let mut b = GraphBuilder::new(4);
        let pairs = [(0u32, 1u32), (2, 3), (1, 2), (0, 3)];
        for &(s, d) in &pairs {
            a.add(VertexId(s), VertexId(d));
        }
        for &(s, d) in pairs.iter().rev() {
            b.add(VertexId(s), VertexId(d));
        }
        assert_eq!(a.build(), b.build());
    }
}
