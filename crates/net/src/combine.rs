//! Message combining (paper §4.2, Appendix E).
//!
//! When message values are commutative and associative, several messages
//! to the same destination vertex can be merged into one (Pregel's
//! Combiner). b-pull generates all messages for a destination on demand,
//! so combining is always fully effective there; push flushes partial
//! buffers at the sending threshold, which is why the paper's Giraph
//! baseline does not combine at the sender at all.

/// A commutative, associative merge of two message values.
pub trait Combiner<M>: Send + Sync {
    /// Combines two messages addressed to the same vertex.
    fn combine(&self, a: &M, b: &M) -> M;
}

/// Sums numeric messages (PageRank's rank contributions).
#[derive(Copy, Clone, Debug, Default)]
pub struct SumCombiner;

impl Combiner<f64> for SumCombiner {
    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }
}

impl Combiner<f32> for SumCombiner {
    fn combine(&self, a: &f32, b: &f32) -> f32 {
        a + b
    }
}

impl Combiner<u64> for SumCombiner {
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

impl Combiner<u32> for SumCombiner {
    fn combine(&self, a: &u32, b: &u32) -> u32 {
        a.wrapping_add(*b)
    }
}

/// Keeps the minimum (SSSP's candidate distances).
#[derive(Copy, Clone, Debug, Default)]
pub struct MinCombiner;

impl Combiner<f32> for MinCombiner {
    fn combine(&self, a: &f32, b: &f32) -> f32 {
        a.min(*b)
    }
}

impl Combiner<f64> for MinCombiner {
    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a.min(*b)
    }
}

impl Combiner<u32> for MinCombiner {
    fn combine(&self, a: &u32, b: &u32) -> u32 {
        (*a).min(*b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_combiner() {
        let c = SumCombiner;
        assert_eq!(c.combine(&1.5f64, &2.5), 4.0);
        assert_eq!(c.combine(&3u64, &4), 7);
    }

    #[test]
    fn min_combiner() {
        let c = MinCombiner;
        assert_eq!(c.combine(&3.0f32, &1.0), 1.0);
        assert_eq!(c.combine(&7u32, &9), 7);
    }

    #[test]
    fn combiner_is_order_insensitive() {
        let c = MinCombiner;
        let fold = |msgs: [f32; 3]| msgs.iter().fold(f32::INFINITY, |acc, m| c.combine(&acc, m));
        let forward = fold([5.0, 2.0, 9.0]);
        let backward = fold([9.0, 2.0, 5.0]);
        assert_eq!(forward, backward);
    }
}
