//! Immutable compressed-sparse-row graph.
//!
//! The paper models a graph as a directed `G = (V, E)` with adjacency lists
//! of out-edges per source vertex (§3). [`Graph`] is the canonical in-memory
//! form every other component is built from: the push-side adjacency store,
//! the VE-BLOCK layout and the per-vertex pull baseline's gather store are
//! all derived from it.

use crate::edge::Edge;
use crate::ids::VertexId;

/// An immutable directed graph in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` for vertex `v`. Length `n + 1`.
    offsets: Vec<u64>,
    /// All out-edges, grouped by source, each group sorted by destination.
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds a graph from raw CSR parts.
    ///
    /// # Panics
    /// Panics if the offsets are not monotonically non-decreasing, do not
    /// start at 0, or do not end at `edges.len()`.
    pub fn from_parts(offsets: Vec<u64>, edges: Vec<Edge>) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            edges.len() as u64,
            "offsets must end at edges.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        Graph { offsets, edges }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Out-edges of `v` as a slice.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[Edge] {
        let i = v.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over `(src, edge)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, Edge)> + '_ {
        self.vertices()
            .flat_map(move |v| self.out_edges(v).iter().map(move |&e| (v, e)))
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.out_degree(VertexId(v as u32)))
            .max()
            .unwrap_or(0)
    }

    /// In-degree of every vertex (one `O(|E|)` pass).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut ind = vec![0u32; self.num_vertices()];
        for e in &self.edges {
            ind[e.dst.index()] += 1;
        }
        ind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_parts(
            vec![0, 2, 3, 4, 4],
            vec![
                Edge::to(VertexId(1)),
                Edge::to(VertexId(2)),
                Edge::to(VertexId(3)),
                Edge::to(VertexId(3)),
            ],
        )
    }

    #[test]
    fn basic_queries() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.out_degree(VertexId(3)), 0);
        assert_eq!(g.out_edges(VertexId(1)), &[Edge::to(VertexId(3))]);
        assert_eq!(g.avg_degree(), 1.0);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn in_degrees_count_incoming() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.in_degrees(), vec![0; 3]);
    }

    #[test]
    fn edge_iterator_visits_all() {
        let g = diamond();
        let pairs: Vec<_> = g.edges().map(|(s, e)| (s.0, e.dst.0)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn invalid_offsets_rejected() {
        let _ = Graph::from_parts(vec![0, 5], vec![Edge::to(VertexId(0))]);
    }
}
