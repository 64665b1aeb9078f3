//! Scaled stand-ins for the paper's six real-world graphs (Table 4).
//!
//! | paper graph | vertices | edges  | avg degree | type            |
//! |-------------|----------|--------|------------|-----------------|
//! | livej       | 4.8 M    | 68 M   | 14.2       | social network  |
//! | wiki        | 5.7 M    | 130 M  | 22.8       | web graph       |
//! | orkut       | 3.1 M    | 234 M  | 75.5       | social network  |
//! | twi         | 41.7 M   | 1470 M | 35.3       | social network  |
//! | fri         | 65.6 M   | 1810 M | 27.5       | social network  |
//! | uk          | 105.9 M  | 3740 M | 35.6       | web graph       |
//!
//! The stand-ins shrink vertex/edge counts by a configurable scale factor
//! while preserving average degree, degree skew (RMAT parameters per graph
//! family) and, for `wiki`, the long diameter responsible for SSSP's long
//! convergent stage.

use crate::csr::Graph;
use crate::gen::{self, RmatParams};
use crate::rng::SplitMix64;

/// Which paper dataset a spec stands in for.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Dataset {
    /// LiveJournal social network (`livej`).
    LiveJ,
    /// Wikipedia link graph (`wiki`), long diameter.
    Wiki,
    /// Orkut social network (`orkut`), dense.
    Orkut,
    /// Twitter follower graph (`twi`), heavy skew.
    Twi,
    /// Friendster (`fri`).
    Fri,
    /// uk-2007 web crawl (`uk`).
    Uk,
}

impl Dataset {
    /// All six datasets in the order the paper's figures list them.
    pub const ALL: [Dataset; 6] = [
        Dataset::LiveJ,
        Dataset::Wiki,
        Dataset::Orkut,
        Dataset::Twi,
        Dataset::Fri,
        Dataset::Uk,
    ];

    /// The "small" graphs run on 5 nodes in the paper.
    pub const SMALL: [Dataset; 3] = [Dataset::LiveJ, Dataset::Wiki, Dataset::Orkut];

    /// The "large" graphs run on 30 nodes in the paper.
    pub const LARGE: [Dataset; 3] = [Dataset::Twi, Dataset::Fri, Dataset::Uk];

    /// Short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::LiveJ => "livej",
            Dataset::Wiki => "wiki",
            Dataset::Orkut => "orkut",
            Dataset::Twi => "twi",
            Dataset::Fri => "fri",
            Dataset::Uk => "uk",
        }
    }

    /// The generation spec for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::LiveJ => DatasetSpec {
                dataset: self,
                paper_vertices: 4_800_000,
                paper_edges: 68_000_000,
                rmat: RmatParams::default(),
                tail_fraction: 0.0,
                locality: 0.75,
                seed: 0x11,
            },
            Dataset::Wiki => DatasetSpec {
                dataset: self,
                paper_vertices: 5_700_000,
                paper_edges: 130_000_000,
                rmat: RmatParams::web(),
                // The paper's wiki graph has a large diameter: SSSP needs
                // 284 supersteps. A chain tail of ~2% of vertices gives the
                // scaled stand-in the same long convergent stage.
                tail_fraction: 0.02,
                locality: 0.85,
                seed: 0x22,
            },
            Dataset::Orkut => DatasetSpec {
                dataset: self,
                paper_vertices: 3_100_000,
                paper_edges: 234_000_000,
                rmat: RmatParams::default(),
                tail_fraction: 0.0,
                locality: 0.75,
                seed: 0x33,
            },
            Dataset::Twi => DatasetSpec {
                dataset: self,
                paper_vertices: 41_700_000,
                paper_edges: 1_470_000_000,
                rmat: RmatParams::heavy_skew(),
                tail_fraction: 0.0,
                locality: 0.7,
                seed: 0x44,
            },
            Dataset::Fri => DatasetSpec {
                dataset: self,
                paper_vertices: 65_600_000,
                paper_edges: 1_810_000_000,
                rmat: RmatParams::default(),
                tail_fraction: 0.0,
                locality: 0.75,
                seed: 0x55,
            },
            Dataset::Uk => DatasetSpec {
                dataset: self,
                paper_vertices: 105_900_000,
                paper_edges: 3_740_000_000,
                rmat: RmatParams::web(),
                tail_fraction: 0.005,
                locality: 0.85,
                seed: 0x66,
            },
        }
    }

    /// Builds the stand-in at `1/denominator` of the paper's scale.
    ///
    /// `denominator = 1000` gives graphs from ~5 K to ~106 K vertices and
    /// 68 K to 3.7 M edges — the default used by the figure harness.
    pub fn build_scaled(self, denominator: usize) -> Graph {
        self.spec().build(denominator)
    }
}

/// Generation parameters for one dataset stand-in.
#[derive(Copy, Clone, Debug)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub dataset: Dataset,
    /// Vertex count of the real graph.
    pub paper_vertices: u64,
    /// Edge count of the real graph.
    pub paper_edges: u64,
    /// Skew parameters for the RMAT generator.
    pub rmat: RmatParams,
    /// Fraction of vertices placed in a diameter-extending chain tail.
    pub tail_fraction: f64,
    /// Fraction of edges rewired to nearby ids (crawl-order locality;
    /// keeps VE-BLOCK fragment counts realistic — see `gen::localize`).
    pub locality: f64,
    /// Generation seed (fixed per dataset for reproducibility).
    pub seed: u64,
}

impl DatasetSpec {
    /// Average degree of the real graph.
    pub fn paper_avg_degree(&self) -> f64 {
        self.paper_edges as f64 / self.paper_vertices as f64
    }

    /// Builds the graph at `1/denominator` scale.
    pub fn build(&self, denominator: usize) -> Graph {
        assert!(denominator >= 1);
        let n = ((self.paper_vertices as usize) / denominator).max(16);
        let m = ((self.paper_edges as usize) / denominator).max(64);
        let tail = (n as f64 * self.tail_fraction) as usize;
        let core_n = n - tail;
        let core = gen::rmat(core_n, m.saturating_sub(tail), self.rmat, self.seed);
        let core = if self.locality > 0.0 {
            gen::localize(
                &core,
                self.locality,
                (core_n / 512).max(8),
                self.seed ^ 0x10c,
            )
        } else {
            core
        };
        let g = if tail > 0 {
            gen::with_chain_tail(&core, tail, self.seed ^ 0xbeef)
        } else {
            core
        };
        gen::randomize_weights(&g, 1.0, 10.0, self.seed ^ 0xfeed)
    }
}

/// A catalog entry generated *streaming*: each vertex's successor list
/// is a pure function of `(spec, vertex)`, so a billion-edge store can
/// be built block-at-a-time — one source block of adjacency in memory at
/// a time — without ever materializing the edge list the way
/// [`DatasetSpec::build`] does.
///
/// The twitter-scale entry ([`StreamSpec::twitter`]) is the scale path
/// for ROADMAP item 2: ~2^25 vertices at average degree 34 is ≥1 B
/// edges, far past what an in-memory [`Graph`] can hold, yet a
/// `StreamSpec` walk plus the storage crate's streaming Eblock writer
/// keeps the resident set at one source block plus the Elias-Fano
/// directory.
///
/// Successors are drawn inside a window around a per-vertex base, which
/// gives the gap distribution (small, clustered) that real crawl-ordered
/// social graphs show and that the BV/gap codecs exist to exploit. A
/// ~1/1024 fraction of vertices are hubs with 16× the degree and a wider
/// window, standing in for twitter's heavy skew.
#[derive(Copy, Clone, Debug)]
pub struct StreamSpec {
    /// Catalog name of the entry.
    pub name: &'static str,
    /// Vertex count (ids are `0..vertices`, must fit `u32`).
    pub vertices: u64,
    /// Target average out-degree (actual is slightly lower after dedup).
    pub avg_degree: u32,
    /// Generation seed.
    pub seed: u64,
}

impl StreamSpec {
    /// The twitter-scale entry: 2^25 vertices × avg degree 34 ≈ 1.1 B
    /// edges (the paper's `twi` is 41.7 M × 35.3).
    pub fn twitter() -> StreamSpec {
        StreamSpec {
            name: "twi-stream",
            vertices: 1 << 25,
            avg_degree: 34,
            seed: 0x0771_77e8,
        }
    }

    /// The entry at `1/denominator` of its vertex count (degree and
    /// structure preserved), floored so tests keep a multi-block grid.
    pub fn scaled(&self, denominator: usize) -> StreamSpec {
        StreamSpec {
            vertices: (self.vertices / denominator.max(1) as u64).max(4096),
            ..*self
        }
    }

    /// Approximate total edge count (draws mean `avg_degree`, hubs add
    /// ~1.5%, dedup removes ~6% at the default window).
    pub fn expected_edges(&self) -> u64 {
        self.vertices * u64::from(self.avg_degree)
    }

    /// Source-block size for the Eblock grid: 8192 at full scale,
    /// shrinking with the entry so scaled-down runs still exercise a
    /// many-block grid.
    pub fn block_size(&self) -> u32 {
        (self.vertices / 64).clamp(64, 8192) as u32
    }

    /// Number of vertex blocks (`ceil(vertices / block_size)`).
    pub fn nblocks(&self) -> u32 {
        let bs = u64::from(self.block_size());
        self.vertices.div_ceil(bs) as u32
    }

    /// Writes `v`'s successors into `out` (cleared first): strictly
    /// ascending, distinct, in `0..vertices`. Deterministic per
    /// `(seed, v)` and independent of call order — the streaming
    /// contract.
    pub fn out_dsts(&self, v: u64, out: &mut Vec<u32>) {
        out.clear();
        debug_assert!(v < self.vertices && self.vertices <= u64::from(u32::MAX));
        let mut r = SplitMix64::new(self.seed ^ (v + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut draws = r.below_u32(2 * self.avg_degree + 1);
        let mut window = (u64::from(self.avg_degree) * 8).clamp(1, self.vertices);
        if r.below_u32(1024) == 0 {
            // Hub: 16× the degree over a 16× window.
            draws = draws.saturating_mul(16).min(4096);
            window = (window * 16).min(self.vertices);
        }
        if draws == 0 {
            return;
        }
        let base = r.below_u64(self.vertices - window + 1);
        for _ in 0..draws {
            out.push((base + r.below_u64(window)) as u32);
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names() {
        assert_eq!(Dataset::LiveJ.name(), "livej");
        assert_eq!(Dataset::Uk.name(), "uk");
        assert_eq!(Dataset::ALL.len(), 6);
    }

    #[test]
    fn scaled_degree_tracks_paper() {
        for d in Dataset::SMALL {
            let spec = d.spec();
            let g = d.build_scaled(1000);
            let got = g.avg_degree();
            let want = spec.paper_avg_degree();
            assert!(
                (got - want).abs() / want < 0.15,
                "{}: avg degree {got:.1} vs paper {want:.1}",
                d.name()
            );
        }
    }

    #[test]
    fn wiki_has_long_tail() {
        let g = Dataset::Wiki.build_scaled(1000);
        let spec = Dataset::Wiki.spec();
        let n = g.num_vertices();
        // The last tail vertex exists and is a sink.
        assert!(spec.tail_fraction > 0.0);
        assert_eq!(g.out_degree(crate::ids::VertexId(n as u32 - 1)), 0);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::Orkut.build_scaled(2000);
        let b = Dataset::Orkut.build_scaled(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn twi_is_most_skewed_small_scale() {
        let twi = Dataset::Twi.build_scaled(10_000);
        // Heavy skew should be visible even at tiny scale.
        assert!(twi.max_degree() as f64 > 8.0 * twi.avg_degree());
    }

    #[test]
    fn extreme_scale_clamps() {
        let g = Dataset::LiveJ.build_scaled(1_000_000_000);
        assert!(g.num_vertices() >= 16);
        assert!(g.num_edges() >= 64);
    }

    #[test]
    fn stream_twitter_is_billion_scale() {
        let s = StreamSpec::twitter();
        assert!(s.expected_edges() >= 1_000_000_000);
        assert_eq!(s.block_size(), 8192);
        assert_eq!(s.nblocks(), 4096);
    }

    #[test]
    fn stream_lists_are_sorted_distinct_in_range_and_deterministic() {
        let s = StreamSpec::twitter().scaled(2000);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for v in (0..s.vertices).step_by(97) {
            s.out_dsts(v, &mut a);
            s.out_dsts(v, &mut b);
            assert_eq!(a, b, "v={v} not deterministic");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "v={v} not ascending");
            assert!(a.iter().all(|&d| u64::from(d) < s.vertices));
        }
    }

    #[test]
    fn stream_degree_tracks_target_with_hub_skew() {
        let s = StreamSpec::twitter().scaled(1000);
        let mut buf = Vec::new();
        let mut total = 0u64;
        let mut max_deg = 0usize;
        for v in 0..s.vertices {
            s.out_dsts(v, &mut buf);
            total += buf.len() as u64;
            max_deg = max_deg.max(buf.len());
        }
        let avg = total as f64 / s.vertices as f64;
        let target = f64::from(s.avg_degree);
        assert!(
            (avg - target).abs() / target < 0.15,
            "avg degree {avg:.1} vs target {target}"
        );
        // Hubs exist: someone has several times the average degree.
        assert!(max_deg as f64 > 6.0 * avg, "max {max_deg} avg {avg:.1}");
    }

    #[test]
    fn stream_scaled_keeps_structure() {
        let s = StreamSpec::twitter().scaled(2000);
        assert_eq!(s.avg_degree, StreamSpec::twitter().avg_degree);
        assert!(s.nblocks() >= 8, "scaled grid too coarse: {}", s.nblocks());
        assert!(s.vertices >= 4096);
    }
}
