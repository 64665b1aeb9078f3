//! Fixed-size bitset for active/responding flags.
//!
//! Workers keep one bit per local vertex for the active-flag and
//! responding-flag vectors of Pull-Request/Pull-Respond (Algorithms 1–2).
//! The paper treats this memory as negligible; [`BitSet::memory_bytes`]
//! reports it anyway so the memory curves are honest.

/// A fixed-length bitset.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Copies `source`'s words into this bitset's own buffer, which is
    /// reused whenever it is large enough (the derived impl would clone).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitSet {
    /// A bitset of `len` zero bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Clears all bits.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bit indices in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// True if any bit in `range` is set: the two edge words are masked
    /// and the whole words between them tested, so an empty range of `k`
    /// bits costs `k / 64` word loads, not `k` bit probes.
    pub fn any_in_range(&self, range: std::ops::Range<usize>) -> bool {
        if range.start >= range.end {
            return false;
        }
        debug_assert!(range.end <= self.len);
        let (first, last) = (range.start / 64, (range.end - 1) / 64);
        let lo = !0u64 << (range.start % 64);
        let hi = !0u64 >> (63 - (range.end - 1) % 64);
        if first == last {
            return self.words[first] & lo & hi != 0;
        }
        self.words[first] & lo != 0
            || self.words[first + 1..last].iter().any(|&w| w != 0)
            || self.words[last] & hi != 0
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// The backing words (checkpoint serialization).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitset of `len` bits from checkpointed `words`; bits
    /// past `len` are masked off. `None` if `words` is shorter than `len`
    /// requires.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() < len.div_ceil(64) {
            return None;
        }
        let mut b = BitSet { words, len };
        b.words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = b.words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitSet::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0));
        assert!(b.get(64));
        assert!(b.get(129));
        assert_eq!(b.count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn ones_iterator() {
        let mut b = BitSet::new(200);
        for i in [3usize, 64, 65, 199] {
            b.set(i);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, vec![3, 64, 65, 199]);
    }

    #[test]
    fn clear_all() {
        let mut b = BitSet::new(70);
        b.set(69);
        assert_eq!(b.count(), 1);
        b.clear_all();
        assert_eq!(b.count(), 0);
    }

    /// Every `(start, end)` of every length and pattern, against a
    /// per-bit oracle: the word-wise scan's edge masks are where an
    /// off-by-one would hide.
    #[test]
    fn any_in_range() {
        for len in [1usize, 63, 64, 65, 200] {
            let mut patterns: Vec<Vec<usize>> = vec![Vec::new(), (0..len).collect()];
            for bit in [0, 63, 64, 127, len - 1] {
                if bit < len {
                    patterns.push(vec![bit]);
                }
            }
            patterns.push((0..len).step_by(2).collect());
            for bits in &patterns {
                let mut b = BitSet::new(len);
                bits.iter().for_each(|&i| b.set(i));
                for start in 0..=len {
                    for end in start..=len {
                        let want = (start..end).any(|i| b.get(i));
                        assert_eq!(
                            b.any_in_range(start..end),
                            want,
                            "len {len}, bits {bits:?}, range {start}..{end}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let mut src = BitSet::new(200);
        src.set(3);
        src.set(199);
        let mut dst = BitSet::new(200);
        let buf = dst.as_words().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_words().as_ptr(), buf);
    }

    #[test]
    fn words_roundtrip_masks_tail() {
        let mut b = BitSet::new(70);
        b.set(0);
        b.set(69);
        let words = b.as_words().to_vec();
        let back = BitSet::from_words(words, 70);
        assert_eq!(back, Some(b.clone()));
        // Dirty tail bits beyond `len` are dropped on restore.
        let mut dirty = b.as_words().to_vec();
        dirty[1] |= 1 << 63;
        let cleaned = BitSet::from_words(dirty, 70);
        assert_eq!(cleaned, Some(b.clone()));
        // A run too short for `len` is refused, not a panic.
        assert_eq!(BitSet::from_words(vec![u64::MAX], 70), None);
    }

    #[test]
    fn empty_bitset() {
        let b = BitSet::new(0);
        assert_eq!(b.count(), 0);
        assert_eq!(b.ones().count(), 0);
    }
}
