//! The superstep inbox: messages grouped by destination vertex.
//!
//! Every executor's `update()` loop reads its input through [`Inbox`] —
//! push, pushM and async from the receive store's record stream
//! ([`Inbox::from_records`], the one sort of the push message path),
//! b-pull and pull from their per-block accumulators
//! ([`Inbox::extend`]).

use crate::extent::invalid;
use crate::record::Record;
use hybridgraph_graph::VertexId;
use std::io;

/// Above this many destination slots per record, [`Inbox::from_records`]
/// orders records by comparison instead of counting: a few scattered ids
/// must not size a table by their span.
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

    /// An empty inbox with room for `messages` messages.
    pub fn with_capacity(messages: usize) -> Self {
        Inbox {
            msgs: Vec::with_capacity(messages),
            ..Inbox::default()
        }
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

impl<M: Record> Inbox<M> {
    /// Groups a record stream (`dst: u32 LE | M` × k) by destination, each
    /// destination's messages ordered by their encoded bytes. Arrival
    /// order depends on thread scheduling; ordering by content as well as
    /// destination makes non-commutative float reductions inside
    /// `update()` bit-identical run to run (and across a recovery replay).
    ///
    /// A message of up to 8 bytes is its own sort key: read big-endian,
    /// its encoding orders as an integer exactly as its bytes do. Keys are
    /// counting-sorted by destination into one flat array, each
    /// destination's run is sorted as plain integers, and messages are
    /// decoded straight from the sorted keys — no per-message indirection.
    /// Wider messages, and a handful of ids scattered over a span that
    /// must not size a table, take the same order by comparison.
    pub fn from_records(records: &[u8]) -> io::Result<Inbox<M>> {
        let width = 4 + M::BYTES;
        if !records.len().is_multiple_of(width) {
            return Err(invalid(format!(
                "{} record bytes are not a multiple of the {width}-byte record",
                records.len()
            )));
        }
        let n = u32::try_from(records.len() / width)
            .map_err(|_| invalid("more than u32::MAX messages in one inbox"))?;
        let dst_of = |i: u32| {
            let at = i as usize * width;
            u32::from_le_bytes(records[at..at + 4].try_into().expect("4 bytes"))
        };
        let msg_of = |i: u32| &records[i as usize * width + 4..(i as usize + 1) * width];
        let mut inbox = Inbox::with_capacity(n as usize);
        let Some((lo, hi)) = (0..n).map(dst_of).fold(None, |span, d| match span {
            None => Some((d, d)),
            Some((lo, hi)) => Some((lo.min(d), hi.max(d))),
        }) else {
            return Ok(inbox);
        };
        let span = (hi - lo) as usize + 1;

        if M::BYTES > 8 || span / SPARSE_SPAN_PER_RECORD > n as usize {
            let mut order: Vec<u32> = (0..n).collect();
            // Equal keys are identical records: no need for stability.
            order.sort_unstable_by_key(|&i| (dst_of(i), msg_of(i)));
            for group in order.chunk_by(|&a, &b| dst_of(a) == dst_of(b)) {
                let msgs = group.iter().map(|&i| M::read_from(msg_of(i)));
                inbox.extend(dst_of(group[0]), msgs);
            }
            return Ok(inbox);
        }

        let key_of = |i: u32| {
            let mut be = [0u8; 8];
            be[..M::BYTES].copy_from_slice(msg_of(i));
            u64::from_be_bytes(be)
        };
        let slot_of = |i: u32| (dst_of(i) - lo) as usize;
        let mut ends = vec![0u32; span + 1];
        for i in 0..n {
            ends[slot_of(i) + 1] += 1;
        }
        for slot in 1..=span {
            ends[slot] += ends[slot - 1];
        }
        let mut keys = vec![0u64; n as usize];
        for i in 0..n {
            let at = &mut ends[slot_of(i)];
            keys[*at as usize] = key_of(i);
            *at += 1;
        }
        // Each cursor has run to the end of its destination's keys.
        let mut start = 0usize;
        for (dst, &end) in (lo..=hi).zip(&ends) {
            let group = &mut keys[start..end as usize];
            if !group.is_empty() {
                group.sort_unstable();
                let msgs = group
                    .iter()
                    .map(|key| M::read_from(&key.to_be_bytes()[..M::BYTES]));
                inbox.extend(dst, msgs);
            }
            start = end as usize;
        }
        Ok(inbox)
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
