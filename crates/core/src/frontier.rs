//! The responding frontier of Pull-Request/Pull-Respond (Algorithms 1–2).
//!
//! A [`Frontier`] owns both generations of one flag vector — `cur`, raised
//! in the previous superstep (what serving reads), and `next`, being raised
//! in this one — and the per-local-Vblock summary of `cur`, the paper's
//! `X_j.res`, which is recomputed exactly where `cur` changes.

use crate::bitset::BitSet;
use std::ops::Range;

/// Two generations of one flag vector plus the block summaries of `cur`.
#[derive(Debug)]
pub struct Frontier {
    cur: BitSet,
    next: BitSet,
    /// Local-index range of each of the worker's Vblocks, in layout order,
    /// and whether any vertex in it responds in `cur`.
    blocks: Vec<(Range<usize>, bool)>,
}

impl Frontier {
    /// An empty frontier over `len` local vertices, summarised per range of
    /// `blocks` (none: no summary, as for pull's signaled vertices).
    pub fn new(len: usize, blocks: Vec<Range<usize>>) -> Self {
        Frontier {
            cur: BitSet::new(len),
            next: BitSet::new(len),
            blocks: blocks.into_iter().map(|r| (r, false)).collect(),
        }
    }

    /// Did local vertex `i` respond in the previous superstep?
    #[inline]
    pub fn responds(&self, i: usize) -> bool {
        self.cur.get(i)
    }

    /// Raises (or, for async's re-updates, lowers) `i`'s flag for the
    /// next superstep.
    #[inline]
    pub fn set_next(&mut self, i: usize, on: bool) {
        if on {
            self.next.set(i);
        } else {
            self.next.clear(i);
        }
    }

    /// The flags of the previous superstep.
    pub fn cur(&self) -> &BitSet {
        &self.cur
    }

    /// The flags raised so far this superstep.
    pub fn next(&self) -> &BitSet {
        &self.next
    }

    /// Ends a generation at the barrier: `next` becomes `cur`.
    pub fn advance(&mut self) {
        let next = std::mem::take(&mut self.next);
        self.restore_from(next);
    }

    /// `X_j.res`: does any vertex of local Vblock `j` respond in `cur`?
    #[inline]
    pub fn block_has(&self, j: usize) -> bool {
        self.blocks[j].1
    }

    /// Copies `cur` into `saved`, reusing its words. A capture runs right
    /// after the previous superstep's [`Frontier::advance`], so `next` is
    /// empty and `cur` is the whole state.
    pub fn capture_into(&self, saved: &mut BitSet) {
        debug_assert_eq!(self.next.count(), 0, "captured mid-superstep");
        saved.clone_from(&self.cur);
    }

    /// Makes `cur` the given flags (the next generation, an undo capture or
    /// checkpointed words); `next` is the old `cur`'s words, cleared. The
    /// block summaries are refilled word-wise from the new `cur`.
    pub fn restore_from(&mut self, cur: BitSet) {
        self.next = std::mem::replace(&mut self.cur, cur);
        self.next.clear_all();
        for (r, any) in &mut self.blocks {
            *any = self.cur.any_in_range(r.clone());
        }
    }

    /// Heap bytes of both generations' words.
    pub fn memory_bytes(&self) -> u64 {
        self.cur.memory_bytes() + self.next.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_graph::rng::SplitMix64;

    /// The plain two-`BitSet` model a frontier must agree with.
    struct Oracle {
        cur: Vec<bool>,
        next: Vec<bool>,
    }

    fn check(f: &Frontier, o: &Oracle, blocks: &[Range<usize>], what: &str) {
        for i in 0..o.cur.len() {
            assert_eq!(f.responds(i), o.cur[i], "{what}: cur[{i}]");
            assert_eq!(f.next().get(i), o.next[i], "{what}: next[{i}]");
        }
        for (j, r) in blocks.iter().enumerate() {
            assert_eq!(
                f.block_has(j),
                f.cur().any_in_range(r.clone()),
                "{what}: block {j}"
            );
            assert_eq!(
                f.block_has(j),
                o.cur[r.clone()].contains(&true),
                "{what}: block {j}"
            );
        }
        assert_eq!(f.memory_bytes(), o.cur.len().div_ceil(64) as u64 * 16);
    }

    /// Seeded random `set_next` / `advance` / capture–restore / checkpoint
    /// word round trips, against the oracle after every operation. Block
    /// lists hold ranges of length 1, 63, 64 and 65 (and empty ones), or
    /// nothing at all.
    #[test]
    fn matches_a_two_bitset_oracle() {
        let layouts: [&[usize]; 4] = [&[1, 63, 64, 65, 7], &[65, 0, 1, 64, 63], &[200], &[]];
        for (seed, sizes) in layouts.iter().enumerate() {
            let mut blocks = Vec::new();
            let mut len = 0;
            for &s in sizes.iter() {
                blocks.push(len..len + s);
                len += s;
            }
            let len = len.max(130);
            let mut f = Frontier::new(len, blocks.clone());
            let mut o = Oracle {
                cur: vec![false; len],
                next: vec![false; len],
            };
            let mut saved = BitSet::default();
            let mut saved_oracle = Vec::new();
            let mut r = SplitMix64::new(seed as u64 + 1);
            check(&f, &o, &blocks, "new");
            for step in 0..400 {
                let what = format!("seed {seed} step {step}");
                match r.range_usize(0, 10) {
                    0 => {
                        f.advance();
                        o.cur = std::mem::replace(&mut o.next, vec![false; len]);
                    }
                    1 => {
                        // A capture only ever follows an advance.
                        f.advance();
                        o.cur = std::mem::replace(&mut o.next, vec![false; len]);
                        f.capture_into(&mut saved);
                        saved_oracle = o.cur.clone();
                    }
                    2 if !saved_oracle.is_empty() => {
                        let mut undo = BitSet::default();
                        undo.clone_from(&saved);
                        f.restore_from(undo);
                        o.cur = saved_oracle.clone();
                        o.next.fill(false);
                    }
                    3 => {
                        let words = f.cur().as_words().to_vec();
                        f.restore_from(BitSet::from_words(words, len).expect("whole words"));
                        o.next.fill(false);
                    }
                    _ => {
                        let (i, on) = (r.range_usize(0, len), r.next_bool());
                        f.set_next(i, on);
                        o.next[i] = on;
                    }
                }
                check(&f, &o, &blocks, &what);
            }
        }
    }
}
