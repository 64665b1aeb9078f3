//! The superstep inbox: messages grouped by destination vertex.
//!
//! Every executor's `update()` loop reads its input through [`Inbox`], and
//! every grouping by destination in the engine is the one pass behind its
//! two constructors, [`Inbox::from_staged`] (decoded pairs) and
//! [`Inbox::from_records`] (a `dst | M` record stream, decoded once).
//! Both keep the engine's one message order, **staged order**: each
//! destination's messages in the order they were staged in, what a stable
//! sort by destination would give. At a pull-family sender that is the
//! order `pullRes()` produced them in; at every receiver it is sender
//! worker id, then send order, for the push family's drained spill as for
//! the pull family's responses. Combined messages are never grouped: they
//! fold by index into a [`FoldBuf`] where they are produced or staged.

use crate::extent::invalid;
use crate::record::Record;
use hybridgraph_graph::VertexId;
use std::io;
use std::ops::Range;

/// Above this many destination slots per message, the grouping pass and
/// [`FoldBuf::fold_records`] order by comparison instead of indexing: a
/// few scattered ids must not size a table by their span.
const SPARSE_SPAN_PER_RECORD: usize = 8;

/// `(messages, lowest destination, highest destination)` of `staged`, or
/// `None` if it is empty.
fn extent<M>(staged: impl Iterator<Item = (u32, M)>) -> Option<(usize, u32, u32)> {
    let (mut n, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
    for (dst, _) in staged {
        n += 1;
        lo = lo.min(dst);
        hi = hi.max(dst);
    }
    (n > 0).then_some((n, lo, hi))
}

/// True if `n` ids spread over `lo..=hi` are too few to size a table by
/// their span.
fn scattered(n: usize, lo: u32, hi: u32) -> bool {
    ((hi - lo) as usize + 1) / SPARSE_SPAN_PER_RECORD > n
}

/// `staged` stably sorted by destination: what scattered ids get instead
/// of a table.
fn sorted<M>(staged: impl Iterator<Item = (u32, M)>) -> Vec<(u32, M)> {
    let mut pairs: Vec<(u32, M)> = staged.collect();
    pairs.sort_by_key(|&(dst, _)| dst);
    pairs
}

/// Messages of one superstep grouped by destination vertex, CSR-shaped:
/// the distinct destinations ascending, one flat message arena, and each
/// destination's end offset into it. Every executor's `update()` loop
/// reads its input through this one type.
#[derive(Clone, Debug, PartialEq)]
pub struct Inbox<M> {
    dsts: Vec<u32>,
    /// `ends[i]` closes `dsts[i]`'s slice of `msgs`; it opens where
    /// `ends[i - 1]` (or 0) closed.
    ends: Vec<u32>,
    msgs: Vec<M>,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox {
            dsts: Vec::new(),
            ends: Vec::new(),
            msgs: Vec::new(),
        }
    }
}

impl<M> Inbox<M> {
    /// An empty inbox.
    pub fn new() -> Self {
        Inbox::default()
    }

    /// Appends `msgs` to `dst`'s messages, making `dst` a destination even
    /// if there are none (superstep 1 computes initially-active vertices
    /// on an empty message list). `dst` must be the latest destination or
    /// above it.
    pub fn extend(&mut self, dst: u32, msgs: impl IntoIterator<Item = M>) {
        if self.dsts.last() != Some(&dst) {
            assert!(
                self.dsts.last().is_none_or(|&last| last < dst),
                "inbox destinations must ascend"
            );
            self.dsts.push(dst);
            self.ends.push(0);
        }
        self.msgs.extend(msgs);
        let end = u32::try_from(self.msgs.len()).expect("inbox offsets are u32");
        *self.ends.last_mut().expect("a destination is open") = end;
    }

    /// Total number of messages.
    pub fn messages(&self) -> usize {
        self.msgs.len()
    }

    /// Number of distinct destinations.
    pub fn destinations(&self) -> usize {
        self.dsts.len()
    }

    /// True if there is no destination to compute.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    #[inline]
    fn slice(&self, i: usize) -> &[M] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.msgs[start as usize..self.ends[i] as usize]
    }

    /// The messages addressed to `v` (empty if `v` is no destination).
    pub fn for_vertex(&self, v: VertexId) -> &[M] {
        match self.dsts.binary_search(&v.0) {
            Ok(i) => self.slice(i),
            Err(_) => &[],
        }
    }

    /// Iterates `(destination, its messages)` in destination order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[M])> + '_ {
        self.dsts
            .iter()
            .enumerate()
            .map(|(i, &dst)| (dst, self.slice(i)))
    }
}

impl<M: Clone> Inbox<M> {
    /// The engine's one grouping pass: `(destination, message)` pairs
    /// grouped by destination in staged order — each destination's
    /// messages in the order `staged` yields them.
    pub fn from_staged(staged: impl Iterator<Item = (u32, M)> + Clone) -> Inbox<M> {
        Inbox::group(staged, |m| m)
    }

    /// The pass behind both constructors: `staged` grouped by destination
    /// in staged order, each item turned into its message by `decode`
    /// once, where it is scattered.
    ///
    /// A Vblock and a worker's share are contiguous id ranges, so a
    /// destination's group is found by index — count per `dst − lo`,
    /// prefix-sum, scatter — unless a handful of ids is scattered over a
    /// span far wider than their number, which gets the same result from
    /// one stable comparison sort. `staged` is walked three times;
    /// nothing is allocated per message or destination.
    fn group<S: Clone>(
        staged: impl Iterator<Item = (u32, S)> + Clone,
        decode: impl Fn(S) -> M,
    ) -> Inbox<M> {
        let Some((n, lo, hi)) = extent(staged.clone()) else {
            return Inbox::new();
        };
        assert!(u32::try_from(n).is_ok(), "inbox offsets are u32");
        if scattered(n, lo, hi) {
            let mut inbox = Inbox::new();
            for (dst, s) in sorted(staged) {
                inbox.extend(dst, [decode(s)]);
            }
            return inbox;
        }

        let span = (hi - lo) as usize + 1;
        let first = decode(staged.clone().next().expect("staged is not empty").1);
        let slot_of = |dst: u32| (dst - lo) as usize;
        let mut cursors = vec![0u32; span + 1];
        for (dst, _) in staged.clone() {
            cursors[slot_of(dst) + 1] += 1;
        }
        let mut distinct = 0;
        for slot in 1..=span {
            distinct += usize::from(cursors[slot] > 0);
            cursors[slot] += cursors[slot - 1];
        }
        // Every slot of `msgs` is overwritten by the scatter.
        let mut msgs = vec![first; n];
        for (dst, s) in staged {
            let at = &mut cursors[slot_of(dst)];
            msgs[*at as usize] = decode(s);
            *at += 1;
        }
        // Each cursor has run to the end of its destination's messages.
        let (mut dsts, mut ends) = (Vec::with_capacity(distinct), Vec::with_capacity(distinct));
        for (dst, &end) in (lo..=hi).zip(&cursors) {
            if ends.last().copied().unwrap_or(0) < end {
                dsts.push(dst);
                ends.push(end);
            }
        }
        Inbox { dsts, ends, msgs }
    }
}

impl<M: Record> Inbox<M> {
    /// Groups a record stream (`dst: u32 LE | M` × k) by destination in
    /// staged order — the stream's own order within a destination — and
    /// decodes each message once. A ragged stream, or one of more than
    /// `u32::MAX` messages, is `InvalidData`.
    pub fn from_records(records: &[u8]) -> io::Result<Inbox<M>> {
        let width = 4 + M::BYTES;
        if !records.len().is_multiple_of(width) {
            return Err(invalid(format!(
                "{} record bytes are not a multiple of the {width}-byte record",
                records.len()
            )));
        }
        if u32::try_from(records.len() / width).is_err() {
            return Err(invalid("more than u32::MAX messages in one inbox"));
        }
        let staged = records.chunks_exact(width).map(|record| {
            let (dst, msg) = record.split_at(4);
            (u32::from_le_bytes(dst.try_into().expect("4 bytes")), msg)
        });
        Ok(Inbox::group(staged, M::read_from))
    }
}

/// The engine's one combining fold: a reusable dense accumulator with one
/// slot per id of a contiguous range (a Vblock, a worker's share) and a
/// bitset of the slots touched since the last drain. Messages fold into
/// their destination's slot as they are added, left to right in call
/// order, and a drain hands out one value per destination in ascending
/// order — exactly what grouping in staged order and then folding each
/// group gives, with no pair or group held per message.
///
/// [`FoldBuf::reset`] is O(1) — a drain leaves no bit set — and the slots
/// and bitset are kept from range to range, so a caller that keeps the
/// buffer allocates nothing once it has seen its widest range.
pub struct FoldBuf<M> {
    lo: u32,
    span: usize,
    slots: Vec<M>,
    touched: Vec<u64>,
    /// Slots touched since the last drain.
    groups: usize,
}

impl<M> Default for FoldBuf<M> {
    fn default() -> Self {
        FoldBuf {
            lo: 0,
            span: 0,
            slots: Vec::new(),
            touched: Vec::new(),
            groups: 0,
        }
    }
}

impl<M: Clone> FoldBuf<M> {
    /// Readies the buffer for destinations in `ids`, dropping anything
    /// added and not drained.
    pub fn reset(&mut self, ids: Range<u32>) {
        self.cover(ids.start, ids.len());
    }

    fn cover(&mut self, lo: u32, span: usize) {
        if self.groups > 0 {
            self.touched[..self.span.div_ceil(64)].fill(0);
            self.groups = 0;
        }
        (self.lo, self.span) = (lo, span);
        if self.touched.len() < span.div_ceil(64) {
            self.touched.resize(span.div_ceil(64), 0);
        }
    }

    /// Folds `m` into `dst`'s slot: the first message since the last
    /// drain is the slot, each later one becomes `combine(slot, m)`.
    ///
    /// # Panics
    /// Panics if `dst` is outside the range of the last reset.
    #[inline]
    pub fn add(&mut self, dst: u32, m: M, combine: impl Fn(&M, &M) -> M) {
        let i = dst.wrapping_sub(self.lo) as usize;
        assert!(i < self.span, "vertex {dst} is outside the fold's range");
        let (word, bit) = (&mut self.touched[i / 64], 1u64 << (i % 64));
        if *word & bit != 0 {
            self.slots[i] = combine(&self.slots[i], &m);
            return;
        }
        *word |= bit;
        self.groups += 1;
        if self.slots.len() < self.span {
            // Untouched slots are never read: the filler is any message.
            self.slots.resize(self.span, m.clone());
        }
        self.slots[i] = m;
    }

    /// How many destinations hold a folded value.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Hands every touched slot to `emit` in ascending destination order
    /// and leaves the buffer as it was.
    pub fn walk(&self, mut emit: impl FnMut(u32, &M)) {
        if self.groups == 0 {
            return;
        }
        for (w, &word) in self.touched[..self.span.div_ceil(64)].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                emit(self.lo + i as u32, &self.slots[i]);
            }
        }
    }

    /// [`FoldBuf::walk`], then empties the buffer; returns how many
    /// values there were.
    fn drain(&mut self, emit: impl FnMut(u32, &M)) -> usize {
        self.walk(emit);
        let groups = self.groups;
        self.cover(self.lo, self.span);
        groups
    }

    /// Drains the folded values as an inbox of one message per
    /// destination.
    pub fn drain_inbox(&mut self) -> Inbox<M> {
        let mut inbox = Inbox {
            dsts: Vec::with_capacity(self.groups),
            ends: Vec::with_capacity(self.groups),
            msgs: Vec::with_capacity(self.groups),
        };
        self.drain(|dst, m| {
            inbox.dsts.push(dst);
            inbox.msgs.push(m.clone());
            inbox.ends.push(inbox.msgs.len() as u32);
        });
        inbox
    }
}

impl<M: Record> FoldBuf<M> {
    /// Drains the folded values as `dst: u32 LE | M` records appended to
    /// `out`, ascending by destination; returns how many.
    pub fn drain_records(&mut self, out: &mut Vec<u8>) -> usize {
        out.reserve(self.groups * (4 + M::BYTES));
        self.drain(|dst, m| {
            dst.append_to(out);
            m.append_to(out);
        })
    }

    /// Folds `staged` — ids anywhere in `u32` — left to right per
    /// destination and appends the results to `out` as records, ascending;
    /// returns how many. Ids dense enough go through the slots; a handful
    /// scattered over a span far wider than their number gets one stable
    /// comparison sort, folded run by run.
    pub fn fold_records(
        &mut self,
        staged: impl Iterator<Item = (u32, M)> + Clone,
        combine: impl Fn(&M, &M) -> M,
        out: &mut Vec<u8>,
    ) -> usize {
        let Some((n, lo, hi)) = extent(staged.clone()) else {
            return 0;
        };
        if !scattered(n, lo, hi) {
            self.cover(lo, (hi - lo) as usize + 1);
            for (dst, m) in staged {
                self.add(dst, m, &combine);
            }
            return self.drain_records(out);
        }
        let pairs = sorted(staged);
        let runs = pairs.chunk_by(|a, b| a.0 == b.0);
        let groups = runs.clone().count();
        out.reserve(groups * (4 + M::BYTES));
        for run in runs {
            let folded = run[1..]
                .iter()
                .fold(run[0].1.clone(), |acc, (_, m)| combine(&acc, m));
            run[0].0.append_to(out);
            folded.append_to(out);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_slice;

    #[test]
    fn empty_inbox() {
        for d in [Inbox::<u32>::new(), Inbox::from_records(&[]).unwrap()] {
            assert!(d.is_empty());
            assert_eq!((d.destinations(), d.messages()), (0, 0));
            assert!(d.for_vertex(VertexId(0)).is_empty());
            assert_eq!(d.iter().count(), 0);
        }
    }

    #[test]
    fn inbox_extend_groups_and_keeps_empty_destinations() {
        let mut d: Inbox<u32> = Inbox::new();
        d.extend(2, []);
        d.extend(4, [7]);
        d.extend(4, [8, 9]);
        d.extend(9, []);
        assert!(!d.is_empty());
        assert_eq!((d.destinations(), d.messages()), (3, 3));
        let groups: Vec<(u32, &[u32])> = d.iter().collect();
        assert_eq!(groups, [(2, &[][..]), (4, &[7, 8, 9]), (9, &[])]);
        assert_eq!(d.for_vertex(VertexId(4)), [7, 8, 9]);
        assert!(d.for_vertex(VertexId(9)).is_empty());
        assert!(d.for_vertex(VertexId(3)).is_empty());
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn inbox_rejects_descending_destinations() {
        let mut d: Inbox<u32> = Inbox::new();
        d.extend(4, [1]);
        d.extend(3, [2]);
    }

    #[test]
    fn scattered_destinations_do_not_size_a_table() {
        // Two ids 4 billion apart: grouped by comparison, not counting.
        let records = encode_slice(&[
            (VertexId(u32::MAX), 1u32),
            (VertexId(0), 2),
            (VertexId(u32::MAX), 0),
        ]);
        let d = Inbox::<u32>::from_records(&records).unwrap();
        let groups: Vec<(u32, &[u32])> = d.iter().collect();
        // Staged order: a destination's messages as the stream had them.
        assert_eq!(groups, [(0, &[2][..]), (u32::MAX, &[1, 0])]);
    }
}
