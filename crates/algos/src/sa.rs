//! Simulated advertisements (Mizan's SA, paper §6).
//!
//! Selected source vertices broadcast their favourite advertisement.
//! A vertex receiving ads adopts the one a plurality of its responding
//! in-neighbors sent — if it is *interested* in it — and forwards it;
//! otherwise it ignores the round. Interests and sources are
//! deterministic hashes of the vertex id, so runs are reproducible.
//! Ad identities are not commutative: SA is the paper's second
//! concatenate-only workload, and Traversal-style like SSSP.

use hybridgraph_core::{GraphInfo, Update, VertexProgram};
use hybridgraph_graph::{Edge, VertexId};
use std::collections::HashMap;

/// Number of distinct advertisements in the universe.
pub const NUM_ADS: u32 = 64;

/// SA vertex state: the set of adopted ads (bitmask) and the most
/// recently adopted ad (the one being forwarded).
pub type SaValue = (u64, u32);

/// The simulated-advertisement vertex program.
#[derive(Clone, Debug)]
pub struct Sa {
    /// One in `source_ratio` vertices starts as an advertiser.
    pub source_ratio: u32,
    /// Interest probability numerator out of 256 per (vertex, ad) pair.
    pub interest_per_256: u32,
    /// Hash seed.
    pub seed: u64,
}

impl Sa {
    /// SA with one source per `source_ratio` vertices and ~50% interest.
    pub fn new(source_ratio: u32, seed: u64) -> Self {
        Sa {
            source_ratio: source_ratio.max(1),
            interest_per_256: 128,
            seed,
        }
    }

    fn hash(&self, a: u64, b: u64) -> u64 {
        // splitmix64 over (seed, a, b)
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(a)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(b);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Is `v` an initial advertiser?
    fn is_source(&self, v: VertexId) -> bool {
        (self.hash(v.0 as u64, 0)).is_multiple_of(self.source_ratio as u64)
    }

    /// `v`'s favourite ad (the one it advertises if a source).
    fn favourite(&self, v: VertexId) -> u32 {
        (self.hash(v.0 as u64, 1) % NUM_ADS as u64) as u32
    }

    /// Is `v` interested in `ad`?
    fn interested(&self, v: VertexId, ad: u32) -> bool {
        self.hash(v.0 as u64, 2 + ad as u64) % 256 < self.interest_per_256 as u64
    }

    /// Plurality ad with smallest-id tie-breaking.
    fn plurality(msgs: &[u32]) -> u32 {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &m in msgs {
            *counts.entry(m).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(ad, _)| ad)
            .expect("plurality of empty ads")
    }
}

impl VertexProgram for Sa {
    type Value = SaValue;
    type Message = u32;

    fn name(&self) -> &'static str {
        "SA"
    }

    fn init(&self, _v: VertexId, _info: &GraphInfo) -> SaValue {
        (0, u32::MAX)
    }

    fn initially_active(&self, v: VertexId, _info: &GraphInfo) -> bool {
        self.is_source(v)
    }

    fn update(
        &self,
        v: VertexId,
        _info: &GraphInfo,
        superstep: u64,
        current: &SaValue,
        msgs: &[u32],
    ) -> Update<SaValue> {
        if superstep == 1 {
            let ad = self.favourite(v);
            return Update::respond((1u64 << ad, ad));
        }
        let (mask, _) = *current;
        if mask != 0 {
            // Already adopted and forwarded once: ignore further ads, so
            // the active set decays monotonically (Traversal-style, like
            // the paper's SA — not Multi-Phase).
            return Update::halt(*current);
        }
        let ad = Self::plurality(msgs);
        if self.interested(v, ad) {
            Update::respond((1u64 << ad, ad))
        } else {
            Update::halt(*current)
        }
    }

    fn message(
        &self,
        _src: VertexId,
        value: &SaValue,
        _out_degree: u32,
        _edge: &Edge,
    ) -> Option<u32> {
        let (_, last) = *value;
        (last != u32::MAX).then_some(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_run_capped;
    use hybridgraph_graph::gen;

    #[test]
    fn hashing_is_deterministic() {
        let sa = Sa::new(4, 7);
        assert_eq!(sa.is_source(VertexId(3)), sa.is_source(VertexId(3)));
        assert_eq!(sa.favourite(VertexId(9)), sa.favourite(VertexId(9)));
        assert!(sa.favourite(VertexId(1)) < NUM_ADS);
    }

    #[test]
    fn roughly_expected_source_fraction() {
        let sa = Sa::new(4, 1);
        let sources = (0..10_000u32)
            .filter(|&v| sa.is_source(VertexId(v)))
            .count();
        assert!((1500..3500).contains(&sources), "sources {sources}");
    }

    #[test]
    fn adoption_requires_interest_and_novelty() {
        let sa = Sa::new(2, 3);
        let info = GraphInfo {
            num_vertices: 10,
            num_edges: 0,
        };
        // find an interested pair
        let v = (0..100u32)
            .map(VertexId)
            .find(|&v| sa.interested(v, 5))
            .unwrap();
        let upd = sa.update(v, &info, 2, &(0, u32::MAX), &[5]);
        assert!(upd.respond);
        assert_eq!(upd.value, (1 << 5, 5));
        // already adopted: halt
        let upd2 = sa.update(v, &info, 2, &(1 << 5, 5), &[5]);
        assert!(!upd2.respond);
    }

    #[test]
    fn converges_on_random_graph() {
        let g = gen::uniform(200, 1200, 9);
        let (values, steps) = reference_run_capped(&Sa::new(8, 2), &g, 200);
        assert!(steps < 200, "SA must converge, ran {steps}");
        // Some non-source vertices adopted something.
        let adopted = values.iter().filter(|(m, _)| *m != 0).count();
        assert!(adopted > 0);
    }

    #[test]
    fn sa_value_is_fixed_width() {
        use hybridgraph_storage::Record;
        assert_eq!(<SaValue as Record>::BYTES, 12);
    }
}
