//! The superstep inbox: messages grouped by destination vertex.
//!
//! Every executor's `update()` loop reads its input through [`Inbox`], and
//! every grouping by destination in the engine is the one pass behind its
//! two constructors: [`Inbox::from_staged`] keeps a destination's messages
//! in the order they were staged in (the pull family, at both ends of the
//! wire: a sender's production order, a receiver's sender-then-send
//! order); [`Inbox::from_records`] then orders them by content (push,
//! pushM and async: arrival is unordered).

use crate::extent::invalid;
use crate::record::Record;
use hybridgraph_graph::VertexId;
use std::io;

/// Above this many destination slots per message, the grouping pass
/// orders by comparison instead of counting: a few scattered ids must not
/// size a table by their span.
const SPARSE_SPAN_PER_RECORD: usize = 8;

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

    /// Each destination's messages sorted, then mapped through `decode`.
    fn sorted_by_content<T>(mut self, decode: impl Fn(&M) -> T) -> Inbox<T>
    where
        M: Ord,
    {
        let mut start = 0usize;
        for &end in &self.ends {
            // Equal keys are identical messages: no need for stability.
            self.msgs[start..end as usize].sort_unstable();
            start = end as usize;
        }
        Inbox {
            dsts: self.dsts,
            ends: self.ends,
            msgs: self.msgs.iter().map(decode).collect(),
        }
    }
}

impl<M: Clone> Inbox<M> {
    /// The engine's one grouping pass: `(destination, message)` pairs
    /// grouped by destination in **staged order** — each destination's
    /// messages in the order `staged` yields them, what a stable sort by
    /// destination would give. That is the pull family's canonical order:
    /// at the sender the order `pullRes()` produced the messages in, at
    /// the receiver sender worker id, then send order.
    ///
    /// A Vblock and a worker's share are contiguous id ranges, so a
    /// destination's group is found by index — count per `dst − lo`,
    /// prefix-sum, scatter — unless a handful of ids is scattered over a
    /// span far wider than their number, which gets the same result from
    /// one stable comparison sort. `staged` is walked three times;
    /// nothing is allocated per message or destination.
    pub fn from_staged(staged: impl Iterator<Item = (u32, M)> + Clone) -> Inbox<M> {
        let (mut n, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
        for (dst, _) in staged.clone() {
            n += 1;
            lo = lo.min(dst);
            hi = hi.max(dst);
        }
        let Some((_, first)) = staged.clone().next() else {
            return Inbox::new();
        };
        assert!(u32::try_from(n).is_ok(), "inbox offsets are u32");
        let span = (hi - lo) as usize + 1;

        if span / SPARSE_SPAN_PER_RECORD > n {
            let mut pairs: Vec<(u32, M)> = staged.collect();
            pairs.sort_by_key(|&(dst, _)| dst);
            let mut inbox = Inbox::new();
            for (dst, m) in pairs {
                inbox.extend(dst, [m]);
            }
            return inbox;
        }

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
        for (dst, m) in staged {
            let at = &mut cursors[slot_of(dst)];
            msgs[*at as usize] = m;
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

    /// Folds each destination's messages, left to right, into one.
    pub fn fold(mut self, combine: impl Fn(&M, &M) -> M) -> Inbox<M> {
        let mut folded = Vec::with_capacity(self.dsts.len());
        let mut start = 0usize;
        for end in &mut self.ends {
            if let Some((first, rest)) = self.msgs[start..*end as usize].split_first() {
                folded.push(rest.iter().fold(first.clone(), |acc, m| combine(&acc, m)));
            }
            start = *end as usize;
            *end = folded.len() as u32;
        }
        self.msgs = folded;
        self
    }
}

impl<M: Record> Inbox<M> {
    /// Groups a record stream (`dst: u32 LE | M` × k) by destination in
    /// **content order**: each destination's messages ordered by their
    /// encoded bytes. Arrival order depends on thread scheduling; ordering
    /// by content as well as destination makes non-commutative float
    /// reductions inside `update()` bit-identical run to run (and across a
    /// recovery replay).
    ///
    /// A message of up to 8 bytes is its own sort key: read big-endian,
    /// its encoding orders as an integer exactly as its bytes do. The keys
    /// go through the one grouping pass ([`Inbox::from_staged`]), each
    /// destination's run is sorted as plain integers, and messages are
    /// decoded straight from the sorted keys — no per-message indirection.
    /// Wider messages are grouped and sorted as the byte slices they are.
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
        if M::BYTES > 8 {
            return Ok(Inbox::from_staged(staged).sorted_by_content(|msg| M::read_from(msg)));
        }
        let keys = staged.map(|(dst, msg)| {
            let mut be = [0u8; 8];
            be[..M::BYTES].copy_from_slice(msg);
            (dst, u64::from_be_bytes(be))
        });
        Ok(Inbox::from_staged(keys)
            .sorted_by_content(|key| M::read_from(&key.to_be_bytes()[..M::BYTES])))
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
        assert_eq!(groups, [(0, &[2][..]), (u32::MAX, &[0, 1])]);
    }
}
