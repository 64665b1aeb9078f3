//! Plain in-memory reference algorithms the engine's outputs are checked
//! against, and the value fingerprint that ties repetitions together.
//!
//! These are written from the algorithm definitions, not from the
//! engine's code: flat arrays over the CSR, no storage, network or
//! threads. The PageRank iteration doubles as the `algos.ref_iter_s`
//! probe — the floor any engine superstep can be compared with.

use hybridgraph::prelude::*;

/// PageRank tolerance: the engine sums messages per sender block, the
/// reference in vertex order, so ranks agree only up to f64 rounding.
pub const PAGERANK_REL_TOL: f64 = 1e-9;

/// State of the reference PageRank between iterations.
pub struct PageRankState {
    pub rank: Vec<f64>,
    /// Vertices that send along their out-edges in the next iteration.
    /// The engine's BSP rule: a vertex responds only if it was updated,
    /// and is updated only if it received a message — so zero-in-degree
    /// vertices fall silent after their first broadcast.
    respond: Vec<bool>,
    sum: Vec<f64>,
    got: Vec<bool>,
}

impl PageRankState {
    /// The state after superstep 1: uniform ranks, everyone responds.
    pub fn new(g: &Graph) -> PageRankState {
        let n = g.num_vertices();
        PageRankState {
            rank: vec![1.0 / n as f64; n],
            respond: vec![true; n],
            sum: vec![0.0; n],
            got: vec![false; n],
        }
    }

    /// One superstep (`t > 1`): responders send `rank / out_degree`, each
    /// receiver sets `rank = 0.15/N + 0.85 · Σ`. Returns false once
    /// nobody received anything.
    pub fn iterate(&mut self, g: &Graph) -> bool {
        let n = g.num_vertices();
        self.sum.fill(0.0);
        self.got.fill(false);
        for v in 0..n {
            if !self.respond[v] {
                continue;
            }
            let edges = g.out_edges(VertexId(v as u32));
            let share = self.rank[v] / edges.len() as f64;
            for e in edges {
                self.sum[e.dst.index()] += share;
                self.got[e.dst.index()] = true;
            }
        }
        let base = 0.15 / n as f64;
        let mut any = false;
        for v in 0..n {
            if self.got[v] {
                self.rank[v] = base + 0.85 * self.sum[v];
                any = true;
            }
            self.respond[v] = self.got[v];
        }
        any
    }
}

/// PageRank as `PageRank::new(supersteps)` defines it.
pub fn pagerank(g: &Graph, supersteps: u64) -> Vec<f64> {
    let mut st = PageRankState::new(g);
    for _ in 1..supersteps {
        if !st.iterate(g) {
            break;
        }
    }
    st.rank
}

/// Shortest distances from `source` (Dijkstra over f32 weights).
///
/// Rounded f32 addition is monotone, so the least fixed point the
/// engine's relaxations converge to is exactly what Dijkstra computes:
/// the check is bit-for-bit, tolerance zero.
pub fn sssp(g: &Graph, source: VertexId) -> Vec<f32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![f32::INFINITY; g.num_vertices()];
    dist[source.index()] = 0.0;
    // Non-negative f32 bit patterns order like the floats themselves.
    let mut heap = BinaryHeap::from([Reverse((0.0f32.to_bits(), source.0))]);
    while let Some(Reverse((bits, v))) = heap.pop() {
        let d = f32::from_bits(bits);
        if d > dist[v as usize] {
            continue;
        }
        for e in g.out_edges(VertexId(v)) {
            let nd = d + e.weight;
            if nd < dist[e.dst.index()] {
                dist[e.dst.index()] = nd;
                heap.push(Reverse((nd.to_bits(), e.dst.0)));
            }
        }
    }
    dist
}

/// Count of ranks outside [`PAGERANK_REL_TOL`] of the reference.
pub fn pagerank_mismatches(got: &[f64], want: &[f64]) -> usize {
    if got.len() != want.len() {
        return got.len().max(want.len());
    }
    got.iter()
        .zip(want)
        .filter(|(a, b)| (*a - *b).abs() > PAGERANK_REL_TOL * b.abs())
        .count()
}

/// Count of distances that differ in any bit from the reference.
pub fn sssp_mismatches(got: &[f32], want: &[f32]) -> usize {
    if got.len() != want.len() {
        return got.len().max(want.len());
    }
    got.iter()
        .zip(want)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count()
}

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32, f32)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for &(s, d, w) in edges {
            b.add_weighted(VertexId(s), VertexId(d), w);
        }
        b.build()
    }

    #[test]
    fn pagerank_on_a_cycle_stays_uniform() {
        let g = graph(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        for r in pagerank(&g, 10) {
            assert!((r - 0.25).abs() < 1e-15);
        }
    }

    #[test]
    fn pagerank_sources_fall_silent_after_one_broadcast() {
        // 0 -> 1 -> 2, nobody points at 0: it keeps 1/N forever, and 1
        // hears from it only in superstep 2.
        let g = graph(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let n = 3.0;
        let r = pagerank(&g, 5);
        assert_eq!(r[0], 1.0 / n);
        assert_eq!(r[1], 0.15 / n + 0.85 * (1.0 / n));
        let r2 = 0.15 / n + 0.85 * r[1];
        assert!((r[2] - r2).abs() < 1e-15, "{} vs {r2}", r[2]);
    }

    #[test]
    fn sssp_picks_the_cheaper_path_and_leaves_unreachable_infinite() {
        let g = graph(4, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.5)]);
        assert_eq!(sssp(&g, VertexId(0)), vec![0.0, 2.5, 1.0, f32::INFINITY]);
    }

    #[test]
    fn mismatch_counters() {
        assert_eq!(pagerank_mismatches(&[1.0, 2.0], &[1.0, 2.0 + 1e-12]), 0);
        assert_eq!(pagerank_mismatches(&[1.0, 2.0], &[1.0, 2.1]), 1);
        assert_eq!(pagerank_mismatches(&[1.0], &[1.0, 2.0]), 2);
        assert_eq!(
            sssp_mismatches(&[1.0, f32::INFINITY], &[1.0, f32::INFINITY]),
            0
        );
        assert_eq!(sssp_mismatches(&[1.0], &[1.0000001]), 1);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
