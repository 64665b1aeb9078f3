//! BV-style (WebGraph) adjacency compression: reference-chain
//! copy-lists, interval coding and ζ-coded residual gaps, all on the
//! MSB-first bit streams from [`crate::bits`].
//!
//! Where [`crate::gaps`] spends ≥8 bits per gap (byte-aligned varints),
//! this tier spends a few *bits*: a repeated neighbour list collapses to
//! a copy-reference, a run of consecutive ids to one interval, and the
//! leftover gaps to ζ₃ codes sized for power-law graphs. References
//! point at one of the previous [`REF_WINDOW`] lists *within the same
//! extent*, never across extents, so a VE-BLOCK per-block read stays
//! self-contained — b-pull can decode any eblock in isolation, which is
//! exactly the property the paper's per-block I/O model assumes.
//!
//! Encoding is strict about its structural assumption: neighbour lists
//! must be non-decreasing (HybridGraph's stores are dst-sorted). A
//! non-monotone list returns an error and [`crate::encode_extent`]
//! falls back to raw framing, mirroring how gap coding treats
//! structurally alien bytes. Duplicate neighbours (multigraph edges)
//! are legal: weights ride a positional column over the final sorted
//! sequence, so reconstruction is byte-exact.

use crate::bits::{BitReader, BitWriter};
use crate::varint::{read_u64, write_u64};
use crate::{CodecError, FragmentColumns};
use std::ops::Range;

/// How many previous lists inside the extent a copy-reference may reach
/// back. Chains are bounded by the extent, so decode state is at most
/// this many lists.
pub const REF_WINDOW: usize = 7;

/// Minimum run length promoted to an interval (WebGraph's default).
pub const MIN_INTERVAL: u32 = 4;

/// ζ shard width for residual gaps (WebGraph's default for web graphs).
pub const ZETA_K: u32 = 3;

// ------------------------------------------------------------- planning
//
// A list is written from a `ListPlan` (reference choice, copy blocks,
// intervals, residuals). Every list is first split alone (`AlonePlan`)
// into maximal runs of consecutive ids — intervals from MIN_INTERVAL ids
// up, residuals below — and most lists are written from that plan.
//
// Copy references are found through one index over the extent
// (`WindowIndex`). Each distinct id has an entry holding one bit per
// window slot (the REF_WINDOW lists a reference may name and the current
// list, in a ring of SLOTS) and its first position in each slot's list.
// One pass over the current list (`Encoder::share`) reads every id's
// entry and enters the list into its own slot. A candidate whose bit
// never shows shares no id with the list and is skipped unpriced (see
// `Encoder::choose`). For the others the pass records the stretches of
// the list they copy (`Match`): exactly the positions a two-pointer
// multiset intersection of the two lists copies, since both copy an id's
// first min(count here, count there) occurrences, in order.
//
// A candidate is priced from its matches and the alone plan
// (`Encoder::price`), never by merging its list, so pricing costs about
// the copied ids, not the two lists. The copy blocks follow from the
// copied reference positions. The ids left over form the alone plan's
// runs less the copied ids, except where the ids either side of a copied
// stretch are consecutive (around duplicate ids) and two runs join. So
// only the runs holding a copied id and the runs a join touches change;
// they are split again from what is left of them (`Edits::resplit`).
// Every other piece keeps the bits it has in the alone plan, which prefix
// sums give in O(1) per kept stretch, and the first piece after each
// edit is re-linked to the piece now before it (`Relinked`): the price is
// the exact bit length the candidate's plan would have. Only a reference
// that wins gets the plan it is written from, built from the same
// matches (`ListPlan::copy`), again with no merge. Cost helpers
// must stay in lockstep with `bits::BitWriter` —
// `tests::cost_helpers_match_writer` enforces it, and
// `tests::streaming_choice_matches_exhaustive_planner` holds every price
// and choice to a planner that builds and prices every candidate's plan.

fn len_unary(n: u64) -> u64 {
    n + 1
}

fn len_gamma(n: u64) -> u64 {
    let b = u64::from(64 - (n + 1).leading_zeros()) - 1;
    2 * b + 1
}

fn len_delta(n: u64) -> u64 {
    let b = u64::from(64 - (n + 1).leading_zeros()) - 1;
    len_gamma(b) + b
}

fn len_minimal_binary(x: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let s = u64::from(64 - (m - 1).leading_zeros());
    let thresh = (1u64 << (s - 1)).wrapping_mul(2).wrapping_sub(m);
    if x < thresh {
        s - 1
    } else {
        s
    }
}

fn len_zeta(n: u64, k: u32) -> u64 {
    let v = n + 1;
    let h = (63 - v.leading_zeros()) / k;
    let base = 1u64 << (h * k);
    let span = if (h + 1) * k >= 64 {
        u64::MAX - base + 1
    } else {
        (base << k) - base
    };
    len_unary(u64::from(h)) + len_minimal_binary(v - base, span)
}

/// Zigzag-folds a signed difference for δ coding (first interval left /
/// first residual are coded relative to the extent anchor, which may sit
/// on either side).
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Cost of a list's leading value: absolute without an anchor, zigzag
/// delta against the previous list's first id otherwise. Lists in one
/// extent share a destination block, so the delta is block-span-sized
/// while the absolute id is graph-sized.
fn len_first(x: u32, anchor: Option<u32>) -> u64 {
    match anchor {
        None => len_delta(u64::from(x)),
        Some(a) => len_delta(zigzag(i64::from(x) - i64::from(a))),
    }
}

fn write_first(w: &mut BitWriter, x: u32, anchor: Option<u32>) {
    match anchor {
        None => w.write_delta(u64::from(x)),
        Some(a) => w.write_delta(zigzag(i64::from(x) - i64::from(a))),
    }
}

fn read_first(r: &mut BitReader<'_>, anchor: Option<u32>) -> Result<u32, CodecError> {
    let z = r.read_delta()?;
    let v = match anchor {
        None => i128::from(z),
        Some(a) => i128::from(a) + i128::from(unzigzag(z)),
    };
    u32::try_from(v).map_err(|_| CodecError::Corrupt("bv first id out of range"))
}

/// A piece of a plan coded against the piece of its kind before it: a
/// residual id, or an interval `(left, len)`.
trait Piece: Copy {
    /// Its bits after `prev`; the first of its kind (`prev` `None`) is a
    /// list's leading value.
    fn bits(self, prev: Option<Self>, anchor: Option<u32>) -> u64;
}

impl Piece for u32 {
    fn bits(self, prev: Option<u32>, anchor: Option<u32>) -> u64 {
        match prev {
            None => len_first(self, anchor),
            Some(p) => len_zeta(u64::from(self - p), ZETA_K),
        }
    }
}

impl Piece for (u32, u32) {
    fn bits(self, prev: Option<(u32, u32)>, anchor: Option<u32>) -> u64 {
        let (left, len) = self;
        let link = match prev {
            None => len_first(left, anchor),
            Some((p, _)) => len_delta(u64::from(left - p - 1)),
        };
        link + len_gamma(u64::from(len - MIN_INTERVAL))
    }
}

/// Overwrites `prefix` with the bits of each leading run of `pieces`:
/// `prefix[i]` is what `pieces[..i]` cost, in order.
fn prefix_bits<T: Piece>(pieces: &[T], anchor: Option<u32>, prefix: &mut Vec<u64>) {
    prefix.clear();
    prefix.push(0);
    let (mut prev, mut bits) = (None, 0);
    for &p in pieces {
        bits += p.bits(prev, anchor);
        prefix.push(bits);
        prev = Some(p);
    }
}

/// A plan's pieces of one kind after edits — some removed, others
/// inserted, in order — priced from the plan's `prefix_bits`. A kept
/// piece costs what it cost in the plan, except the first kept after an
/// edit, which is re-linked to the piece now before it.
struct Relinked<'a, T> {
    pieces: &'a [T],
    prefix: &'a [u64],
    anchor: Option<u32>,
    /// The first piece of `pieces` neither kept nor removed yet.
    next: usize,
    prev: Option<T>,
    bits: u64,
}

impl<'a, T: Piece> Relinked<'a, T> {
    fn new(pieces: &'a [T], prefix: &'a [u64], anchor: Option<u32>) -> Self {
        Relinked {
            pieces,
            prefix,
            anchor,
            next: 0,
            prev: None,
            bits: 0,
        }
    }

    /// Keeps the pieces before `end`.
    fn keep(&mut self, end: usize) {
        if end > self.next {
            let first = self.pieces[self.next];
            self.bits += first.bits(self.prev, self.anchor);
            self.bits += self.prefix[end] - self.prefix[self.next + 1];
            self.prev = Some(self.pieces[end - 1]);
            self.next = end;
        }
    }

    /// Removes pieces `start..end`.
    fn remove(&mut self, start: usize, end: usize) {
        self.keep(start);
        self.next = end;
    }

    /// Inserts `piece` before piece `at`.
    fn insert(&mut self, at: usize, piece: T) {
        self.keep(at);
        self.bits += piece.bits(self.prev, self.anchor);
        self.prev = Some(piece);
    }

    /// The bits of the edited chain.
    fn total(mut self) -> u64 {
        self.keep(self.pieces.len());
        self.bits
    }
}

/// The structural decomposition of one neighbour list.
#[derive(Default)]
struct ListPlan {
    /// 0 = no reference; `r` = copy against the list `r` positions back.
    r: u64,
    /// Explicit copy-block lengths over the reference list (first block
    /// is "copied" and may be empty; the trailing block is implicit).
    blocks: Vec<u64>,
    /// `(left, len)` runs of consecutive ids, `len >= MIN_INTERVAL`.
    intervals: Vec<(u32, u32)>,
    /// Leftover ids, non-decreasing (duplicates allowed).
    residuals: Vec<u32>,
}

impl ListPlan {
    fn clear(&mut self, r: u64) {
        self.r = r;
        self.blocks.clear();
        self.intervals.clear();
        self.residuals.clear();
    }

    /// Overwrites the plan with `cur`'s against the list `r` positions
    /// back, of `rl_len` ids, from the stretches of `cur` that list copies
    /// (`matches`, as [`Encoder::share`] records them): the plan a merge
    /// of the two lists builds, without merging them. The copy
    /// blocks follow from the copied reference positions, as
    /// [`Encoder::price`] counts them; the ids left over split into
    /// maximal runs, a run going on across a copied stretch.
    fn copy(&mut self, cur: &[u32], rl_len: usize, matches: &[Match], r: u64) {
        self.clear(r);
        let mut blocks = BlockRuns::START;
        let mut next = 0;
        for m in matches {
            let skipped = (m.from - next) as usize;
            blocks.push(false, skipped, &mut |len| self.blocks.push(len));
            blocks.push(true, m.len as usize, &mut |len| self.blocks.push(len));
            next = m.from + m.len;
        }
        blocks.push(false, rl_len - next as usize, &mut |len| {
            self.blocks.push(len)
        });
        let (mut run_first, mut run_len) = (0u64, 0u64);
        let mut pos = 0;
        let stretches = matches
            .iter()
            .map(|m| (m.at as usize, (m.at + m.len) as usize));
        for (at, end) in stretches.chain([(cur.len(), cur.len())]) {
            for &v in &cur[pos..at] {
                if run_len > 0 && u64::from(v) == run_first + run_len {
                    run_len += 1;
                } else {
                    self.push_run(run_first, run_len);
                    (run_first, run_len) = (u64::from(v), 1);
                }
            }
            pos = end;
        }
        self.push_run(run_first, run_len);
    }

    /// Appends a finished run of `len` consecutive ids from `first`: an
    /// interval if it is long enough, residuals otherwise; nothing for an
    /// empty run. Compared in
    /// `u64` so a run may end at `u32::MAX`.
    fn push_run(&mut self, first: u64, len: u64) {
        if len >= u64::from(MIN_INTERVAL) {
            self.intervals.push((first as u32, len as u32));
        } else {
            self.residuals.extend((0..len).map(|k| (first + k) as u32));
        }
    }
}

/// Run-lengths the reference's copied/skipped positions into alternating
/// blocks that start with a "copied" one (possibly empty), each finished
/// block's length handed to `out`. The run still open at the end is
/// never reported: its length is implied by the reference's.
struct BlockRuns {
    copied: bool,
    len: u64,
}

impl BlockRuns {
    const START: BlockRuns = BlockRuns {
        copied: true,
        len: 0,
    };

    fn push(&mut self, copied: bool, n: usize, out: &mut impl FnMut(u64)) {
        if n == 0 {
            return;
        }
        if copied != self.copied {
            out(self.len);
            self.copied = copied;
            self.len = 0;
        }
        self.len += n as u64;
    }
}

/// Where a run of an [`AlonePlan`] starts in the list, and how many
/// residuals and intervals come before it in the plan.
#[derive(Copy, Clone)]
struct Run {
    at: u32,
    residuals: u32,
    intervals: u32,
}

/// A list's no-reference plan, and what pricing a reference against it
/// reads.
#[derive(Default)]
struct AlonePlan {
    plan: ListPlan,
    /// The maximal runs of consecutive ids in list order, each an
    /// interval or residuals, then one past the last: run `u` holds
    /// positions `runs[u].at..runs[u + 1].at`.
    runs: Vec<Run>,
    /// Per position of the list: its run.
    run_of: Vec<u32>,
    /// [`prefix_bits`] of the residuals and of the intervals.
    residual_bits: Vec<u64>,
    interval_bits: Vec<u64>,
}

impl AlonePlan {
    /// Overwrites the plan with `cur`'s, its runs split as
    /// [`ListPlan::copy`] splits the ids a reference leaves over.
    fn build(&mut self, cur: &[u32]) {
        let p = &mut self.plan;
        p.clear(0);
        self.runs.clear();
        self.run_of.clear();
        let mut start = 0;
        for i in 1..=cur.len() {
            if i < cur.len() && u64::from(cur[i]) == u64::from(cur[i - 1]) + 1 {
                continue;
            }
            self.run_of.resize(i, self.runs.len() as u32);
            self.runs.push(Run {
                at: start as u32,
                residuals: p.residuals.len() as u32,
                intervals: p.intervals.len() as u32,
            });
            p.push_run(u64::from(cur[start]), (i - start) as u64);
            start = i;
        }
        self.runs.push(Run {
            at: cur.len() as u32,
            residuals: p.residuals.len() as u32,
            intervals: p.intervals.len() as u32,
        });
    }

    /// The plan's bits for a list of `n` ids, pricing its pieces for
    /// [`Encoder::price`] on the way.
    fn price(&mut self, n: usize, anchor: Option<u32>) -> u64 {
        prefix_bits(&self.plan.residuals, anchor, &mut self.residual_bits);
        prefix_bits(&self.plan.intervals, anchor, &mut self.interval_bits);
        let mut bits = len_gamma(0) + self.residual_bits[self.plan.residuals.len()];
        bits += self.interval_bits[self.plan.intervals.len()];
        if n >= MIN_INTERVAL as usize {
            bits += len_gamma(self.plan.intervals.len() as u64);
        }
        bits
    }
}

fn write_plan(w: &mut BitWriter, p: &ListPlan, n: usize, anchor: Option<u32>) {
    if n == 0 {
        return;
    }
    w.write_gamma(p.r);
    if p.r > 0 {
        w.write_gamma(p.blocks.len() as u64);
        for (i, &b) in p.blocks.iter().enumerate() {
            w.write_gamma(if i == 0 { b } else { b - 1 });
        }
    }
    if n >= MIN_INTERVAL as usize {
        w.write_gamma(p.intervals.len() as u64);
    }
    let mut prev_left = 0u64;
    for (i, &(left, len)) in p.intervals.iter().enumerate() {
        if i == 0 {
            write_first(w, left, anchor);
        } else {
            w.write_delta(u64::from(left) - prev_left - 1);
        }
        w.write_gamma(u64::from(len - MIN_INTERVAL));
        prev_left = u64::from(left);
    }
    if let Some((&first, rest)) = p.residuals.split_first() {
        write_first(w, first, anchor);
        let mut prev = first;
        for &v in rest {
            w.write_zeta(u64::from(v - prev), ZETA_K);
            prev = v;
        }
    }
}

/// The id lists before the current one, as index ranges into the one flat
/// id column: list `t` is `ids[ends[t-1]..ends[t]]` (from 0 for `t = 0`).
/// A copy-reference `r` names list `ends.len() - r`.
#[derive(Copy, Clone)]
struct Window<'a> {
    ids: &'a [u32],
    ends: &'a [usize],
}

impl<'a> Window<'a> {
    /// The list `back` positions before the current one (`1..=len`).
    fn back(&self, back: usize) -> &'a [u32] {
        let t = self.ends.len() - back;
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        &self.ids[start..self.ends[t]]
    }
}

/// Window slots: list `k` of an extent sits in slot `k % SLOTS` while it
/// is the list being written and the [`REF_WINDOW`] lists after it.
const SLOTS: usize = REF_WINDOW + 1;
const _: () = assert!(SLOTS <= 8, "an entry's slot bits are one byte");

/// A [`WindowIndex`] table cell holding no entry.
const VACANT: u32 = u32::MAX;

/// Which window lists hold each id of one extent, and where. Every
/// distinct id of the extent's id column has one entry; the hash table
/// that finds it is kept at most half full of the extent's own distinct
/// ids, whatever their span (a gather extent holds graph-wide ids).
#[derive(Default)]
struct WindowIndex {
    /// Open addressing over entries, [`VACANT`] where empty.
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the hash keeps an id's top bits.
    shift: u32,
    /// Per entry: its id.
    keys: Vec<u32>,
    /// Per entry: bit `s` set iff the list in slot `s` holds the id.
    slots: Vec<u8>,
    /// Per entry and slot: the id's first position in that slot's list.
    pos: Vec<[u32; SLOTS]>,
    /// Per position of the extent's id column: its entry.
    entry: Vec<u32>,
}

impl WindowIndex {
    /// Empties the index for a new extent of `ids` ids, sized for them
    /// at once: the table for as many distinct ids, each position its
    /// entry.
    fn reset(&mut self, ids: usize) {
        self.keys.clear();
        self.slots.clear();
        self.pos.clear();
        self.entry.clear();
        self.entry.reserve(ids);
        self.rehash((2 * ids).next_power_of_two().max(16));
    }

    /// Resizes the table to `cells` (a power of two) and re-enters every
    /// entry.
    fn rehash(&mut self, cells: usize) {
        self.table.clear();
        self.table.resize(cells, VACANT);
        self.shift = 64 - cells.trailing_zeros();
        for (e, &id) in self.keys.iter().enumerate() {
            let mut h = home(id, self.shift);
            while self.table[h] != VACANT {
                h = (h + 1) & (cells - 1);
            }
            self.table[h] = e as u32;
        }
    }

    fn find_or_insert(&mut self, id: u32) -> u32 {
        if 2 * (self.keys.len() + 1) > self.table.len() {
            self.rehash(2 * self.table.len());
        }
        let mask = self.table.len() - 1;
        let mut h = home(id, self.shift);
        loop {
            match self.table[h] {
                VACANT => {
                    let e = self.keys.len() as u32;
                    self.table[h] = e;
                    self.keys.push(id);
                    self.slots.push(0);
                    self.pos.push([0; SLOTS]);
                    return e;
                }
                e if self.keys[e as usize] == id => return e,
                _ => h = (h + 1) & mask,
            }
        }
    }

    /// Takes the list at `span` of the id column out of `slot`.
    fn leave(&mut self, span: Range<usize>, slot: usize) {
        for &e in &self.entry[span] {
            self.slots[e as usize] &= !(1 << slot);
        }
    }
}

/// Fibonacci hashing: the top `64 - shift` bits of `id · 2⁶⁴/φ`.
fn home(id: u32, shift: u32) -> usize {
    (u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

/// A stretch of the current list that a candidate copies: `len` ids from
/// position `at`, which are the candidate's ids from position `from`.
#[derive(Copy, Clone)]
struct Match {
    at: u32,
    from: u32,
    len: u32,
}

/// The bv encoder's working state, which [`crate::ExtentEncoder`] keeps
/// from one extent to the next: nothing is allocated per list.
#[derive(Default)]
pub(crate) struct Encoder {
    window: WindowIndex,
    /// Per window slot: the stretches of the current list its list copies.
    matches: [Vec<Match>; SLOTS],
    /// The current list's no-reference plan.
    alone: AlonePlan,
    /// A reference's plan, priced or written.
    plan: ListPlan,
    /// The bits of each reference `r` priced for the current list,
    /// `u64::MAX` where skipped; `costs[0]` is the no-reference plan's.
    costs: [u64; SLOTS],
}

impl Encoder {
    /// Writes the list body of every fragment of `f` into `w`, each
    /// against its cheapest reference. Each list's leading id is coded
    /// against the previous non-empty list's first id.
    fn write_lists(&mut self, f: &FragmentColumns, w: &mut BitWriter) {
        let windowed = f.len() > 1;
        if windowed {
            self.window.reset(f.ids.len());
        }
        let mut anchor = None;
        for k in 0..f.len() {
            self.write_list(f, k, windowed, anchor, w);
            anchor = f.ids[f.span(k)].first().copied().or(anchor);
        }
    }

    /// Writes list `k` of `f` against its cheapest reference `r`, which
    /// it returns, and moves the window index (if `windowed`) on by one
    /// list: list `k - SLOTS` leaves the slot that list `k` enters.
    fn write_list(
        &mut self,
        f: &FragmentColumns,
        k: usize,
        windowed: bool,
        anchor: Option<u32>,
        w: &mut BitWriter,
    ) -> u64 {
        let slot = k % SLOTS;
        if windowed && k >= SLOTS {
            self.window.leave(f.span(k - SLOTS), slot);
        }
        let cur = &f.ids[f.span(k)];
        let mut r = 0;
        if !cur.is_empty() {
            r = self.choose(f, k, anchor, windowed);
            let plan = if r == 0 {
                &self.alone.plan
            } else {
                let back = k - r as usize;
                self.plan
                    .copy(cur, f.span(back).len(), &self.matches[back % SLOTS], r);
                &self.plan
            };
            write_plan(w, plan, cur.len(), anchor);
        }
        r
    }

    /// The cheapest reference for non-empty list `k` among "no reference"
    /// (`0`) and the window of the lists before it, whose ids the index
    /// holds in their slots. Ties keep the smallest `r`, so output is
    /// deterministic. Leaves the list's no-reference plan in `alone`.
    ///
    /// A candidate sharing no id with the list is skipped without pricing
    /// it: it copies nothing, so its plan is one empty copy block plus
    /// exactly the no-reference plan's intervals and residuals. On top of
    /// those same bits it spends γ(r) + γ(1) + γ(0) ≥ 7 where no reference
    /// spends γ(0) = 1, so it can never win. The no-reference cost is
    /// therefore needed only once a candidate survives that test.
    fn choose(
        &mut self,
        f: &FragmentColumns,
        k: usize,
        anchor: Option<u32>,
        windowed: bool,
    ) -> u64 {
        let cur = &f.ids[f.span(k)];
        self.alone.build(cur);
        self.costs = [u64::MAX; SLOTS];
        if !windowed || self.share(f, k) == 0 {
            return 0;
        }
        self.costs[0] = self.alone.price(cur.len(), anchor);
        for r in 1..=k.min(REF_WINDOW) {
            let matches = &self.matches[(k - r) % SLOTS];
            if matches.is_empty() {
                continue;
            }
            let rl = &f.ids[f.span(k - r)];
            self.costs[r] = len_gamma(r as u64) + self.price(cur, rl.len(), matches, anchor);
        }
        let mut best = 0;
        for r in 1..SLOTS {
            if self.costs[r] < self.costs[best] {
                best = r;
            }
        }
        best as u64
    }

    /// One pass over list `k`'s ids in the window index, which also gives
    /// each id its entry and puts the list into its slot. Returns the slots of the lists before it
    /// that hold any of its ids, and leaves in `matches[s]` the stretches
    /// of the list that slot `s`'s list copies: of each id, its first
    /// min(count here, count there) occurrences, copied from that list's
    /// first occurrences, as a two-pointer multiset intersection pairs
    /// them.
    fn share(&mut self, f: &FragmentColumns, k: usize) -> u8 {
        let cur = &f.ids[f.span(k)];
        let own = k % SLOTS;
        for m in &mut self.matches {
            m.clear();
        }
        let mut hit = 0u8;
        let mut i = 0;
        while i < cur.len() {
            let mut count = 1;
            while i + count < cur.len() && cur[i + count] == cur[i] {
                count += 1;
            }
            let e = self.window.find_or_insert(cur[i]);
            self.window.entry.extend(std::iter::repeat_n(e, count));
            let e = e as usize;
            let mut slots = self.window.slots[e];
            self.window.slots[e] = slots | 1 << own;
            self.window.pos[e][own] = i as u32;
            hit |= slots;
            while slots != 0 {
                let s = slots.trailing_zeros() as usize;
                slots &= slots - 1;
                let from = self.window.pos[e][s];
                let len = if count == 1 {
                    1
                } else {
                    let rl = &f.ids[f.span(k - (k + SLOTS - s) % SLOTS)];
                    rl[from as usize..]
                        .iter()
                        .take(count)
                        .take_while(|&&v| v == cur[i])
                        .count() as u32
                };
                let at = i as u32;
                match self.matches[s].last_mut() {
                    Some(m) if m.at + m.len == at && m.from + m.len == from => m.len += len,
                    _ => self.matches[s].push(Match { at, from, len }),
                }
            }
            i += count;
        }
        hit
    }

    /// The bits, all but its γ(r), of the plan of `cur` against a
    /// reference list of `rl_len` ids that copies `matches`, priced from
    /// the no-reference plan without building the plan.
    ///
    /// The copy blocks follow from the copied reference positions. The
    /// ids left over form the runs of the no-reference plan less the
    /// copied ids, except that two runs join where the ids either side of
    /// a copied stretch are consecutive (around duplicate ids). So only
    /// the runs holding a copied id, and the runs either side of a
    /// joining stretch, change: those are split again from what is left
    /// of them, and every other run keeps its bits, each run of them
    /// re-linked once to the piece now before it.
    fn price(&self, cur: &[u32], rl_len: usize, matches: &[Match], anchor: Option<u32>) -> u64 {
        let a = &self.alone;
        let (mut blocks, mut block_bits) = (0u64, 0u64);
        let mut block = |len: u64| {
            block_bits += len_gamma(if blocks == 0 { len } else { len - 1 });
            blocks += 1;
        };
        let mut runs = BlockRuns::START;
        let mut next = 0usize;
        for m in matches {
            runs.push(false, m.from as usize - next, &mut block);
            runs.push(true, m.len as usize, &mut block);
            next = (m.from + m.len) as usize;
        }
        runs.push(false, rl_len - next, &mut block);

        let mut edits = Edits {
            cur,
            alone: a,
            residuals: Relinked::new(&a.plan.residuals, &a.residual_bits, anchor),
            intervals: Relinked::new(&a.plan.intervals, &a.interval_bits, anchor),
            count: a.plan.intervals.len(),
        };
        // The runs changed so far, `first..=last`; the first of the
        // matches in them; whether two of their runs join.
        let mut zone: Option<(usize, usize, usize, bool)> = None;
        let mut i = 0;
        while i < matches.len() {
            // The next maximal copied stretch, `at..end`: matches `i..j`.
            let (at, mut j) = (matches[i].at as usize, i + 1);
            while j < matches.len() && matches[j].at == matches[j - 1].at + matches[j - 1].len {
                j += 1;
            }
            let end = (matches[j - 1].at + matches[j - 1].len) as usize;
            let (mut first, mut last) = (a.run_of[at] as usize, a.run_of[end - 1] as usize);
            let joins =
                at > 0 && end < cur.len() && u64::from(cur[end]) == u64::from(cur[at - 1]) + 1;
            if joins {
                (first, last) = (a.run_of[at - 1] as usize, a.run_of[end] as usize);
            }
            zone = match zone {
                Some((z_first, z_last, z_match, z_joins)) if first <= z_last + 1 => {
                    Some((z_first, last.max(z_last), z_match, z_joins || joins))
                }
                _ => {
                    if let Some((z_first, z_last, z_match, z_joins)) = zone {
                        edits.resplit(z_first, z_last, &matches[z_match..i], z_joins);
                    }
                    Some((first, last, i, joins))
                }
            };
            i = j;
        }
        if let Some((z_first, z_last, z_match, z_joins)) = zone {
            edits.resplit(z_first, z_last, &matches[z_match..], z_joins);
        }
        let mut bits = len_gamma(blocks) + block_bits;
        if cur.len() >= MIN_INTERVAL as usize {
            bits += len_gamma(edits.count as u64);
        }
        bits + edits.intervals.total() + edits.residuals.total()
    }
}

/// The no-reference plan of `cur` as [`Encoder::price`] edits it.
struct Edits<'a> {
    cur: &'a [u32],
    alone: &'a AlonePlan,
    residuals: Relinked<'a, u32>,
    intervals: Relinked<'a, (u32, u32)>,
    /// How many intervals the edited plan has.
    count: usize,
}

impl Edits<'_> {
    /// Replaces runs `first..=last` of the no-reference plan by the runs
    /// of their ids that `matches` leave uncopied; `joins` if two of them
    /// join. No run outside them joins one inside.
    fn resplit(&mut self, first: usize, last: usize, matches: &[Match], joins: bool) {
        let (runs, run_of) = (&self.alone.runs, &self.alone.run_of);
        let (from, to) = (runs[first], runs[last + 1]);
        if !joins && from.intervals == to.intervals {
            // Residual runs only, each left as residuals less the copied
            // ids: what is left keeps its bits, re-linked.
            for m in matches {
                let run = runs[run_of[m.at as usize] as usize];
                let rank = (run.residuals + m.at - run.at) as usize;
                self.residuals.remove(rank, rank + m.len as usize);
            }
            return;
        }
        self.residuals
            .remove(from.residuals as usize, to.residuals as usize);
        self.intervals
            .remove(from.intervals as usize, to.intervals as usize);
        self.count -= (to.intervals - from.intervals) as usize;
        // The run being rebuilt: `len` consecutive ids from `start`.
        let (mut start, mut len) = (0u64, 0u64);
        let mut pos = from.at as usize;
        for gap in matches
            .iter()
            .map(|m| (m.at as usize, (m.at + m.len) as usize))
            .chain([(to.at as usize, to.at as usize)])
        {
            // Positions `pos..gap.0` are left, a stretch of whole or part
            // runs, each part consecutive ids.
            while pos < gap.0 {
                let end = gap.0.min(runs[run_of[pos] as usize + 1].at as usize);
                let v = u64::from(self.cur[pos]);
                if len > 0 && v == start + len {
                    len += (end - pos) as u64;
                } else {
                    self.place(from, start, len);
                    (start, len) = (v, (end - pos) as u64);
                }
                pos = end;
            }
            pos = gap.1;
        }
        self.place(from, start, len);
    }

    /// Inserts a run of `len` consecutive ids from `start` where run
    /// `at` of the no-reference plan was: an interval if it is long
    /// enough, residuals otherwise.
    fn place(&mut self, at: Run, start: u64, len: u64) {
        if len >= u64::from(MIN_INTERVAL) {
            self.intervals
                .insert(at.intervals as usize, (start as u32, len as u32));
            self.count += 1;
        } else {
            for k in 0..len {
                self.residuals
                    .insert(at.residuals as usize, (start + k) as u32);
            }
        }
    }
}

/// The list decoder's per-list buffers, cleared for every list and kept
/// across lists and extents.
#[derive(Default)]
pub(crate) struct ListScratch {
    copied: Vec<u32>,
    /// `(left, len)` runs.
    intervals: Vec<(u32, u32)>,
    /// The intervals' ids, in order.
    expanded: Vec<u32>,
    residuals: Vec<u32>,
}

/// Past the last element of a merge input (ids are `u32`).
const DONE: u64 = u64::MAX;

fn head(v: &[u32], i: usize) -> u64 {
    v.get(i).map_or(DONE, |&x| u64::from(x))
}

/// Decodes one list of `count` ids written by [`write_plan`] and appends it
/// to `ids`, whose lists so far end at `prev_ends` (the reference window).
fn read_list(
    r: &mut BitReader<'_>,
    count: usize,
    ids: &mut Vec<u32>,
    prev_ends: &[usize],
    anchor: Option<u32>,
    s: &mut ListScratch,
) -> Result<(), CodecError> {
    if count == 0 {
        return Ok(());
    }
    s.copied.clear();
    s.intervals.clear();
    let rref = r.read_gamma()?;
    if rref != 0 {
        let back = usize::try_from(rref).map_err(|_| CodecError::Corrupt("bv ref too far"))?;
        if back > prev_ends.len() || back > REF_WINDOW {
            return Err(CodecError::Corrupt("bv ref outside window"));
        }
        let window = Window {
            ids,
            ends: prev_ends,
        };
        let rl = window.back(back);
        let nblocks = r.read_gamma()? as usize;
        if nblocks > rl.len() + 1 {
            return Err(CodecError::Corrupt("bv copy blocks exceed reference"));
        }
        let mut pos = 0usize;
        let mut parity = true;
        for i in 0..nblocks {
            let raw = r.read_gamma()?;
            let len = if i == 0 { raw } else { raw + 1 } as usize;
            if len > rl.len() - pos {
                return Err(CodecError::Corrupt("bv copy block overruns reference"));
            }
            if parity {
                s.copied.extend_from_slice(&rl[pos..pos + len]);
            }
            pos += len;
            parity = !parity;
        }
        if parity {
            s.copied.extend_from_slice(&rl[pos..]);
        }
    }
    if s.copied.len() > count {
        return Err(CodecError::Corrupt("bv copied more than list length"));
    }
    let nintervals = if count >= MIN_INTERVAL as usize {
        r.read_gamma()? as usize
    } else {
        // A shorter list cannot contain a MIN_INTERVAL-length run, so
        // the field is omitted from the stream entirely.
        0
    };
    if nintervals > count {
        return Err(CodecError::Corrupt("bv interval count exceeds list"));
    }
    let mut extra_total = 0usize;
    let mut prev_left = 0u64;
    for i in 0..nintervals {
        let left = if i == 0 {
            Some(u64::from(read_first(r, anchor)?))
        } else {
            r.read_delta()?.checked_add(prev_left + 1)
        };
        let len = r.read_gamma()?.checked_add(u64::from(MIN_INTERVAL));
        let left32 = left
            .and_then(|l| u32::try_from(l).ok())
            .ok_or(CodecError::Corrupt("bv interval left overflow"))?;
        let len32 = len
            .and_then(|l| u32::try_from(l).ok())
            .ok_or(CodecError::Corrupt("bv interval len overflow"))?;
        if u64::from(left32) + u64::from(len32) > u64::from(u32::MAX) + 1 {
            return Err(CodecError::Corrupt("bv interval end overflow"));
        }
        extra_total = extra_total.saturating_add(len32 as usize);
        s.intervals.push((left32, len32));
        prev_left = u64::from(left32);
    }
    let nresiduals = count
        .checked_sub(s.copied.len())
        .and_then(|x| x.checked_sub(extra_total))
        .ok_or(CodecError::Corrupt("bv list pieces exceed count"))?;
    if s.copied.is_empty() && s.intervals.is_empty() {
        // Residuals only (most lists): they are the list.
        return read_residuals(r, nresiduals, anchor, ids);
    }
    s.residuals.clear();
    read_residuals(r, nresiduals, anchor, &mut s.residuals)?;
    if s.intervals.is_empty() {
        merge(&s.copied, &s.residuals, ids);
        return Ok(());
    }
    s.expanded.clear();
    for &(left, len) in &s.intervals {
        let ids = u64::from(left)..u64::from(left) + u64::from(len);
        s.expanded.extend(ids.map(|id| id as u32));
    }
    let start = ids.len();
    merge3(&s.copied, &s.expanded, &s.residuals, ids);
    if ids.len() - start != count {
        return Err(CodecError::Corrupt("bv list length mismatch"));
    }
    Ok(())
}

/// Reads `n` residuals — the first against `anchor`, then ζ₃ gaps — and
/// appends them to `out`.
fn read_residuals(
    r: &mut BitReader<'_>,
    n: usize,
    anchor: Option<u32>,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    const _: () = assert!(ZETA_K == 3, "residual gaps decode as ζ₃");
    if n == 0 {
        return Ok(());
    }
    let mut prev = read_first(r, anchor)?;
    out.push(prev);
    r.read_zeta3s(n - 1, |gap| {
        prev = gap
            .checked_add(u64::from(prev))
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(CodecError::Corrupt("bv residual overflow"))?;
        out.push(prev);
        Ok(())
    })
}

/// Appends the merge of `a` and `b` to `out`, taking from `a` on ties:
/// [`merge3`] with no intervals, as a two-way merge.
fn merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let from_a = x <= y;
        out.push(if from_a { x } else { y });
        i += usize::from(from_a);
        j += usize::from(!from_a);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Appends the three-way merge of a list's copied ids `a`, interval ids
/// `b` and residuals `c` to `out`: the smallest head each time, the
/// first of `a`, `b`, `c` on ties, and an exhausted piece reads as
/// `DONE`, above every id. Each id is chosen without a branch.
fn merge3(a: &[u32], b: &[u32], c: &[u32], out: &mut Vec<u32>) {
    let total = a.len() + b.len() + c.len();
    out.reserve(total);
    let (mut i, mut j, mut k) = (0, 0, 0);
    for _ in 0..total {
        let (x, y, z) = (head(a, i), head(b, j), head(c, k));
        let m = x.min(y).min(z);
        out.push(m as u32);
        let (from_a, from_b) = (x == m, x != m && y == m);
        i += usize::from(from_a);
        j += usize::from(from_b);
        k += usize::from(!from_a && !from_b);
    }
}

// -------------------------------------------------------- weight column

/// Bit-packs the weight column: 32-bit min, 6-bit width, then `width`
/// bits per value — the in-stream analogue of [`crate::gaps::write_packed`].
fn write_weights(w: &mut BitWriter, vals: &[u32]) {
    if vals.is_empty() {
        return;
    }
    let min = *vals.iter().min().expect("non-empty");
    let max = *vals.iter().max().expect("non-empty");
    let range = max - min;
    let width = if range == 0 {
        0
    } else {
        32 - range.leading_zeros()
    };
    w.write_bits(u64::from(min), 32);
    w.write_bits(u64::from(width), 6);
    for &v in vals {
        w.write_bits(u64::from(v - min), width);
    }
}

/// Reads a [`write_weights`] column of `count` values, appending them to
/// `vals`.
fn read_weights(
    r: &mut BitReader<'_>,
    count: usize,
    vals: &mut Vec<u32>,
) -> Result<(), CodecError> {
    if count == 0 {
        return Ok(());
    }
    let min = r.read_bits(32)? as u32;
    let width = r.read_bits(6)? as u32;
    if width > 32 {
        return Err(CodecError::Corrupt("bv weight width > 32"));
    }
    if width == 0 {
        vals.resize(vals.len() + count, min);
        return Ok(());
    }
    // No value can overflow: one check that the stream holds the column.
    // Where it does not, the loop below finds where it ends.
    if u64::from(min) + (1u64 << width) - 1 <= u64::from(u32::MAX)
        && r.read_column(width, count, min, vals).is_ok()
    {
        return Ok(());
    }
    for _ in 0..count {
        let delta = r.read_bits(width)? as u32;
        let v = min
            .checked_add(delta)
            .ok_or(CodecError::Corrupt("bv weight overflows u32"))?;
        vals.push(v);
    }
    Ok(())
}

// ------------------------------------------------------- fragment bodies

fn require_sorted(ids: &[u32]) -> Result<(), CodecError> {
    if ids.windows(2).any(|p| p[0] > p[1]) {
        return Err(CodecError::Corrupt("bv requires non-decreasing ids"));
    }
    Ok(())
}

/// BV-codes a fragment stream's columns, appending to `out`, in state the
/// caller keeps. Layout: `nfrags` varint, then one bit stream — δ-coded
/// strictly-ascending svertices, γ counts, one list body per fragment
/// (reference window = previous lists of this extent; each list's leading
/// id is zigzag-δ-coded against the previous non-empty list's first id,
/// since all lists in an extent share one destination block), and the
/// packed weight column over all edges. Every input check runs before
/// `out` is touched.
pub(crate) fn encode_fragments(
    f: &FragmentColumns,
    s: &mut Encoder,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if f.svertices.windows(2).any(|p| p[0] >= p[1]) {
        return Err(CodecError::Corrupt("bv requires ascending svertices"));
    }
    for k in 0..f.len() {
        require_sorted(&f.ids[f.span(k)])?;
    }
    write_u64(out, f.len() as u64);
    let mut w = BitWriter::from_vec(std::mem::take(out));
    let mut prev = 0u64;
    for (i, &sv) in f.svertices.iter().enumerate() {
        if i == 0 {
            w.write_delta(u64::from(sv));
        } else {
            w.write_delta(u64::from(sv) - prev - 1);
        }
        prev = u64::from(sv);
    }
    for k in 0..f.len() {
        w.write_gamma(f.span(k).len() as u64);
    }
    s.write_lists(f, &mut w);
    write_weights(&mut w, &f.weights);
    *out = w.finish();
    Ok(())
}

/// Decodes an [`encode_fragments`] body of at most `max_edges` edges into
/// `cols`, which the caller has cleared: the tier's one fragment decoder.
/// The bound is checked before any list is read, since an interval of a
/// few bits stands for up to 2³² ids.
pub(crate) fn decode_fragments(
    coded: &[u8],
    cols: &mut FragmentColumns,
    max_edges: usize,
) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let nfrags = read_u64(coded, &mut pos)? as usize;
    let mut r = BitReader::new(&coded[pos..]);
    let mut prev = 0u64;
    for i in 0..nfrags {
        let sv = if i == 0 {
            Some(r.read_delta()?)
        } else {
            r.read_delta()?.checked_add(prev + 1)
        };
        let sv = sv
            .and_then(|sv| u32::try_from(sv).ok())
            .ok_or(CodecError::Corrupt("bv svertex overflow"))?;
        cols.svertices.push(sv);
        prev = u64::from(sv);
    }
    let mut total_edges = 0usize;
    for _ in 0..nfrags {
        let c =
            u32::try_from(r.read_gamma()?).map_err(|_| CodecError::Corrupt("bv count overflow"))?;
        total_edges = total_edges
            .checked_add(c as usize)
            .ok_or(CodecError::Corrupt("bv edge total overflows"))?;
        cols.ends.push(total_edges);
    }
    if total_edges > max_edges {
        return Err(CodecError::Corrupt("bv edge count exceeds the extent"));
    }
    let mut anchor: Option<u32> = None;
    for k in 0..nfrags {
        let (start, count) = (cols.ids.len(), cols.span(k).len());
        read_list(
            &mut r,
            count,
            &mut cols.ids,
            &cols.ends[..k],
            anchor,
            &mut cols.lists,
        )?;
        if count > 0 {
            anchor = Some(cols.ids[start]);
        }
    }
    read_weights(&mut r, total_edges, &mut cols.weights)
}

/// BV-codes an edge list's columns, appending to `out`, in state the
/// caller keeps: `count` varint, then one bit stream with a single
/// referenceless list body and the packed weight column. Every input
/// check runs before `out` is touched.
pub(crate) fn encode_edges(
    cols: &FragmentColumns,
    s: &mut Encoder,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    require_sorted(&cols.ids)?;
    write_u64(out, cols.ids.len() as u64);
    let mut w = BitWriter::from_vec(std::mem::take(out));
    s.alone.build(&cols.ids);
    write_plan(&mut w, &s.alone.plan, cols.ids.len(), None);
    write_weights(&mut w, &cols.weights);
    *out = w.finish();
    Ok(())
}

/// Decodes an [`encode_edges`] body of at most `max_edges` edges into
/// `cols`' id and weight columns, which the caller has cleared.
pub(crate) fn decode_edges(
    coded: &[u8],
    cols: &mut FragmentColumns,
    max_edges: usize,
) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let count = read_u64(coded, &mut pos)? as usize;
    if count > max_edges {
        return Err(CodecError::Corrupt("bv edge count exceeds the extent"));
    }
    let mut r = BitReader::new(&coded[pos..]);
    read_list(&mut r, count, &mut cols.ids, &[], None, &mut cols.lists)?;
    read_weights(&mut r, count, &mut cols.weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtentKind;

    /// `raw` bv-coded as `kind`.
    fn code(kind: ExtentKind, raw: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (mut cols, mut s, mut out) =
            (FragmentColumns::default(), Encoder::default(), Vec::new());
        cols.parse(kind, raw)?;
        match kind {
            ExtentKind::Fragments => encode_fragments(&cols, &mut s, &mut out)?,
            ExtentKind::Edges => encode_edges(&cols, &mut s, &mut out)?,
        }
        Ok(out)
    }

    /// A bv body of `kind` decoded back into its raw bytes.
    fn back(kind: ExtentKind, coded: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut cols = FragmentColumns::default();
        match kind {
            ExtentKind::Fragments => decode_fragments(coded, &mut cols, usize::MAX)?,
            ExtentKind::Edges => decode_edges(coded, &mut cols, usize::MAX)?,
        }
        Ok(cols.to_raw(kind))
    }

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn raw_fragment_stream(frags: &[(u32, Vec<(u32, f32)>)]) -> Vec<u8> {
        let mut raw = Vec::new();
        for (sv, edges) in frags {
            raw.extend_from_slice(&sv.to_le_bytes());
            raw.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for (d, w) in edges {
                raw.extend_from_slice(&d.to_le_bytes());
                raw.extend_from_slice(&w.to_le_bytes());
            }
        }
        raw
    }

    #[test]
    fn cost_helpers_match_writer() {
        for v in [0u64, 1, 2, 3, 7, 8, 100, 4095, 1 << 20, (1 << 40) + 13] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            assert_eq!(w.bit_len(), len_gamma(v), "gamma {v}");
            let mut w = BitWriter::new();
            w.write_delta(v);
            assert_eq!(w.bit_len(), len_delta(v), "delta {v}");
            let mut w = BitWriter::new();
            w.write_zeta(v, ZETA_K);
            assert_eq!(w.bit_len(), len_zeta(v, ZETA_K), "zeta {v}");
        }
        for m in 1..=80u64 {
            for x in 0..m {
                let mut w = BitWriter::new();
                w.write_minimal_binary(x, m);
                assert_eq!(w.bit_len(), len_minimal_binary(x, m), "mb {x}/{m}");
            }
        }
    }

    #[test]
    fn zigzag_folds_roundtrip() {
        for d in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d, "{d}");
        }
        // Anchored leading ids are cheap in both directions.
        assert!(len_first(1005, Some(1000)) < len_first(1005, None));
        assert!(len_first(995, Some(1000)) < len_first(995, None));
    }

    #[test]
    fn empty_inputs_roundtrip() {
        let coded = code(ExtentKind::Fragments, &[]).unwrap();
        assert_eq!(
            back(ExtentKind::Fragments, &coded).unwrap(),
            Vec::<u8>::new()
        );
        let coded = code(ExtentKind::Edges, &[]).unwrap();
        assert_eq!(back(ExtentKind::Edges, &coded).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fragment_stream_roundtrips_with_duplicates_and_empties() {
        let raw = raw_fragment_stream(&[
            (5, vec![(7, 1.0), (7, 2.5), (8, 1.0), (9, 1.0), (10, 1.0)]),
            (6, vec![]),
            // Same list as frag 0 minus one id: a copy-reference case.
            (9, vec![(7, 3.0), (8, 1.0), (9, 1.0), (10, 1.0)]),
            (40, vec![(0, -0.0), (0, f32::NAN), (1000, 2.0)]),
        ]);
        let coded = code(ExtentKind::Fragments, &raw).unwrap();
        assert_eq!(back(ExtentKind::Fragments, &coded).unwrap(), raw);
    }

    #[test]
    fn intervals_collapse_consecutive_runs() {
        // 0..1000 consecutive: one interval, a handful of bytes.
        let edges: Vec<(u32, f32)> = (0..1000).map(|i| (i, 1.0)).collect();
        let raw = raw_fragment_stream(&[(3, edges)]);
        let coded = code(ExtentKind::Fragments, &raw).unwrap();
        assert!(coded.len() < 24, "interval coding failed: {}", coded.len());
        assert_eq!(back(ExtentKind::Fragments, &coded).unwrap(), raw);
    }

    #[test]
    fn references_collapse_repeated_lists() {
        // 8 fragments sharing one 64-id list: refs make repeats ~free.
        let ids: Vec<u32> = (0..64).map(|i| 10 + 17 * i).collect();
        let frags: Vec<(u32, Vec<(u32, f32)>)> = (0..8)
            .map(|f| (f * 3, ids.iter().map(|&d| (d, 1.0f32)).collect()))
            .collect();
        let raw = raw_fragment_stream(&frags);
        let coded = code(ExtentKind::Fragments, &raw).unwrap();
        let single = code(ExtentKind::Fragments, &raw_fragment_stream(&frags[..1])).unwrap();
        assert!(
            coded.len() < single.len() * 2,
            "8 copies cost {} vs one {}",
            coded.len(),
            single.len()
        );
        assert_eq!(back(ExtentKind::Fragments, &coded).unwrap(), raw);
    }

    #[test]
    fn beats_gap_coding_on_clustered_lists() {
        // Localized power-law-ish gaps: the workload the tier exists for.
        let mut s = 99u64;
        let mut frags = Vec::new();
        for f in 0..24u32 {
            let mut ids = Vec::new();
            let mut cur = 1000 * f;
            for i in 0..40 {
                s = mix(s ^ u64::from(f * 64 + i));
                cur += 1 + (s % 4) as u32;
                ids.push(cur);
            }
            frags.push((f * 7, ids.into_iter().map(|d| (d, 1.0f32)).collect()));
        }
        let raw = raw_fragment_stream(&frags);
        let bv = code(ExtentKind::Fragments, &raw).unwrap();
        let gaps = crate::encode_extent(crate::CodecChoice::Gaps, ExtentKind::Fragments, &raw);
        assert!(
            bv.len() * 10 < gaps.len() * 9,
            "bv {} not >=10% under gaps {}",
            bv.len(),
            gaps.len()
        );
        assert_eq!(back(ExtentKind::Fragments, &bv).unwrap(), raw);
    }

    #[test]
    fn non_monotone_input_is_rejected_not_mangled() {
        let raw = raw_fragment_stream(&[(1, vec![(9, 1.0), (3, 1.0)])]);
        assert!(code(ExtentKind::Fragments, &raw).is_err());
        let mut raw = Vec::new();
        raw.extend_from_slice(&9u32.to_le_bytes());
        raw.extend_from_slice(&1.0f32.to_le_bytes());
        raw.extend_from_slice(&3u32.to_le_bytes());
        raw.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(code(ExtentKind::Edges, &raw).is_err());
        // Non-ascending svertices too (duplicate fragment keys).
        let raw = raw_fragment_stream(&[(5, vec![]), (5, vec![])]);
        assert!(code(ExtentKind::Fragments, &raw).is_err());
    }

    #[test]
    fn seeded_roundtrip_stress() {
        for seed in [3u64, 1776, 0xfeed_f00d] {
            println!("bv stress seed {seed}");
            let mut s = seed;
            for case in 0..60 {
                let nfrags = (mix(s ^ case) % 12) as usize;
                let mut frags = Vec::new();
                let mut sv = 0u32;
                for f in 0..nfrags {
                    s = mix(s ^ (case << 8) ^ f as u64);
                    sv += 1 + (s % 50) as u32;
                    let count = (s >> 8) % 70;
                    let mut ids = Vec::new();
                    let mut cur = (s >> 16) as u32 % 10_000;
                    for e in 0..count {
                        s = mix(s ^ e);
                        // Mix of duplicates (gap 0), consecutive runs
                        // (gap 1) and jumps.
                        cur += match s % 5 {
                            0 => 0,
                            1..=3 => 1,
                            _ => (s >> 8) as u32 % 1000,
                        };
                        ids.push(cur);
                    }
                    let edges = ids
                        .into_iter()
                        .map(|d| {
                            s = mix(s ^ u64::from(d));
                            (d, f32::from_bits(s as u32))
                        })
                        .collect();
                    frags.push((sv, edges));
                }
                let raw = raw_fragment_stream(&frags);
                let coded = code(ExtentKind::Fragments, &raw).unwrap();
                assert_eq!(
                    back(ExtentKind::Fragments, &coded).unwrap(),
                    raw,
                    "seed {seed} case {case}"
                );
            }
        }
    }

    #[test]
    fn seeded_decoder_fuzz_never_panics() {
        // Mirror of the gateway decoder fuzz: random bytes and mutated
        // valid bodies must error or round-trip, never panic/overflow.
        for seed in [3u64, 1776, 0xfeed_f00d] {
            println!("bv fuzz seed {seed}");
            let mut s = seed;
            for case in 0..400u64 {
                s = mix(s ^ case);
                let len = (s % 200) as usize;
                let mut buf = Vec::with_capacity(len);
                for i in 0..len {
                    s = mix(s ^ i as u64);
                    buf.push(s as u8);
                }
                let _ = back(ExtentKind::Fragments, &buf);
                let _ = back(ExtentKind::Edges, &buf);
            }
            // Bit-flip a valid body at every position.
            let raw = raw_fragment_stream(&[
                (1, vec![(5, 1.0), (6, 1.0), (7, 1.0), (8, 1.0), (20, 2.0)]),
                (4, vec![(5, 1.0), (6, 1.0), (8, 1.0)]),
            ]);
            let coded = code(ExtentKind::Fragments, &raw).unwrap();
            for bit in 0..coded.len() * 8 {
                let mut m = coded.clone();
                m[bit / 8] ^= 1 << (bit % 8);
                if let Ok(raw) = back(ExtentKind::Fragments, &m) {
                    // A surviving decode must still be self-consistent.
                    let _ = code(ExtentKind::Fragments, &raw);
                }
            }
            for cut in 0..coded.len() {
                assert!(back(ExtentKind::Fragments, &coded[..cut]).is_err());
            }
        }
    }

    #[test]
    fn an_interval_longer_than_the_extent_is_rejected_before_it_is_expanded() {
        // One list of `n` ids written as a single interval: a few bytes
        // that would expand to 8n, against a 16-byte logical extent.
        let n = 1u64 << 24;
        let list = |w: &mut BitWriter| {
            w.write_gamma(0); // no reference
            w.write_gamma(1); // one interval
            write_first(w, 7, None);
            w.write_gamma(n - u64::from(MIN_INTERVAL));
            w.write_bits(0, 32); // weight min
            w.write_bits(0, 6); // weight width
        };
        let mut edges = vec![crate::TAG_BV];
        write_u64(&mut edges, n);
        let mut w = BitWriter::from_vec(edges);
        list(&mut w);
        let edges = w.finish();
        let mut fragments = vec![crate::TAG_BV];
        write_u64(&mut fragments, 1);
        let mut w = BitWriter::from_vec(fragments);
        w.write_delta(3); // svertex
        w.write_gamma(n); // its edge count
        list(&mut w);
        let fragments = w.finish();
        let mut cols = FragmentColumns::default();
        for (kind, coded) in [
            (ExtentKind::Edges, edges),
            (ExtentKind::Fragments, fragments),
        ] {
            assert_eq!(
                crate::decode_columns(kind, &coded, 16, &mut cols),
                Err(CodecError::Corrupt("bv edge count exceeds the extent")),
                "{kind:?}"
            );
            assert!(
                cols.ids.capacity() < 1024,
                "{kind:?}: the interval was expanded"
            );
            // Under a logical length that holds them, the same bytes decode.
            let logical = 8 * n as usize + if kind == ExtentKind::Edges { 0 } else { 8 };
            crate::decode_columns(kind, &coded, logical, &mut cols).unwrap();
            assert_eq!((cols.ids.len(), cols.ids[0]), (n as usize, 7), "{kind:?}");
            cols = FragmentColumns::default();
        }
    }

    #[test]
    fn lists_reaching_u32_max_roundtrip_through_both_entry_points() {
        let m = u32::MAX;
        let lists: [&[u32]; 5] = [
            &[m, m],
            &[m - 1, m, m],
            &[m - 4, m - 3, m - 2, m - 1, m, m],
            &[3, m - 2, m - 1, m],
            &[0, m, m, m],
        ];
        for ids in lists {
            let edges: Vec<(u32, f32)> = ids.iter().map(|&d| (d, 1.5)).collect();
            // The second fragment repeats the first: a copy-reference case.
            let raw = raw_fragment_stream(&[(1, edges.clone()), (2, edges.clone())]);
            let coded = code(ExtentKind::Fragments, &raw).unwrap();
            assert_eq!(back(ExtentKind::Fragments, &coded).unwrap(), raw, "{ids:?}");
            let raw: Vec<u8> = edges
                .iter()
                .flat_map(|(d, w)| [d.to_le_bytes(), w.to_le_bytes()].concat())
                .collect();
            let coded = code(ExtentKind::Edges, &raw).unwrap();
            assert_eq!(back(ExtentKind::Edges, &coded).unwrap(), raw, "{ids:?}");
        }
    }

    // ------------------------------------------- the exhaustive planner
    //
    // The reference choice by brute force: every candidate's plan built
    // in full — copied bitmap, extras, runs — and priced. It is the
    // oracle `Encoder::choose` and `Encoder::price` are held to.

    fn split_intervals(extras: &[u32]) -> (Vec<(u32, u32)>, Vec<u32>) {
        let mut intervals = Vec::new();
        let mut residuals = Vec::new();
        let mut i = 0usize;
        while i < extras.len() {
            let mut j = i + 1;
            while j < extras.len() && u64::from(extras[j]) == u64::from(extras[j - 1]) + 1 {
                j += 1;
            }
            let len = (j - i) as u32;
            if len >= MIN_INTERVAL {
                intervals.push((extras[i], len));
            } else {
                residuals.extend_from_slice(&extras[i..j]);
            }
            i = j;
        }
        (intervals, residuals)
    }

    fn plan_list(cur: &[u32], reference: Option<&[u32]>, r: u64) -> ListPlan {
        let (blocks, extras) = match reference {
            None => (Vec::new(), cur.to_vec()),
            Some(rl) => {
                // Two-pointer multiset intersection: `copied[j]` says
                // whether reference position `j` is copied into `cur`.
                let mut copied = Vec::with_capacity(rl.len());
                let mut extras = Vec::new();
                for &v in cur {
                    while copied.len() < rl.len() && rl[copied.len()] < v {
                        copied.push(false);
                    }
                    if copied.len() < rl.len() && rl[copied.len()] == v {
                        copied.push(true);
                    } else {
                        extras.push(v);
                    }
                }
                copied.resize(rl.len(), false);
                // Run-length the bitmap into alternating blocks starting
                // with "copied"; the final run is implicit.
                let mut runs: Vec<u64> = Vec::new();
                let mut parity = true;
                if let Some(&first) = copied.first() {
                    if first != parity {
                        runs.push(0);
                        parity = false;
                    }
                    let mut len = 0u64;
                    for &c in &copied {
                        if c == parity {
                            len += 1;
                        } else {
                            runs.push(len);
                            parity = c;
                            len = 1;
                        }
                    }
                    runs.push(len);
                    runs.pop();
                }
                (runs, extras)
            }
        };
        let (intervals, residuals) = split_intervals(&extras);
        ListPlan {
            r,
            blocks,
            intervals,
            residuals,
        }
    }

    fn plan_cost(p: &ListPlan, n: usize, anchor: Option<u32>) -> u64 {
        if n == 0 {
            return 0;
        }
        let mut bits = len_gamma(p.r);
        if p.r > 0 {
            bits += len_gamma(p.blocks.len() as u64);
            for (i, &b) in p.blocks.iter().enumerate() {
                bits += len_gamma(if i == 0 { b } else { b - 1 });
            }
        }
        if n >= MIN_INTERVAL as usize {
            bits += len_gamma(p.intervals.len() as u64);
        }
        let mut prev_left = 0u64;
        for (i, &(left, len)) in p.intervals.iter().enumerate() {
            bits += if i == 0 {
                len_first(left, anchor)
            } else {
                len_delta(u64::from(left) - prev_left - 1)
            };
            bits += len_gamma(u64::from(len - MIN_INTERVAL));
            prev_left = u64::from(left);
        }
        if let Some((&first, rest)) = p.residuals.split_first() {
            bits += len_first(first, anchor);
            let mut prev = first;
            for &v in rest {
                bits += len_zeta(u64::from(v - prev), ZETA_K);
                prev = v;
            }
        }
        bits
    }

    /// `(r, bits)` of the cheapest plan, every candidate built and priced;
    /// ties keep the smallest `r`.
    fn exhaustive_choice(cur: &[u32], window: Window<'_>, anchor: Option<u32>) -> (u64, u64) {
        let n = cur.len();
        let mut best = (0, plan_cost(&plan_list(cur, None, 0), n, anchor));
        for r in 1..=window.ends.len().min(REF_WINDOW) {
            let rl = window.back(r);
            if rl.is_empty() {
                continue;
            }
            let bits = plan_cost(&plan_list(cur, Some(rl), r as u64), n, anchor);
            if bits < best.1 {
                best = (r as u64, bits);
            }
        }
        best
    }

    /// The lists as one extent's columns: fragment `k` is vertex `k`.
    fn columns(lists: &[Vec<u32>]) -> FragmentColumns {
        let mut f = FragmentColumns::default();
        for (k, list) in lists.iter().enumerate() {
            f.svertices.push(k as u32);
            f.ids.extend_from_slice(list);
            f.ends.push(f.ids.len());
        }
        f.weights.resize(f.ids.len(), 0);
        f
    }

    /// What [`check_against_oracle`] saw: lists where two references tied
    /// for cheapest, and candidates priced.
    #[derive(Default, Debug)]
    struct Seen {
        ties: usize,
        priced: usize,
    }

    impl std::ops::AddAssign for Seen {
        fn add_assign(&mut self, o: Seen) {
            self.ties += o.ties;
            self.priced += o.priced;
        }
    }

    /// Holds one extent's lists to the exhaustive planner: every
    /// candidate the encoder prices and the price, the candidates it
    /// skips, the chosen reference and the written bits.
    fn check_against_oracle(lists: &[Vec<u32>]) -> Seen {
        let f = columns(lists);
        let mut s = Encoder::default();
        s.window.reset(f.ids.len());
        let (mut anchor, mut seen) = (None, Seen::default());
        let (mut streamed, mut exhaustive) = (BitWriter::new(), BitWriter::new());
        for (k, cur) in lists.iter().enumerate() {
            let window = Window {
                ids: &f.ids,
                ends: &f.ends[..k],
            };
            let (r, best) = exhaustive_choice(cur, window, anchor);
            assert_eq!(
                s.write_list(&f, k, true, anchor, &mut streamed),
                r,
                "list {k}"
            );
            let n = cur.len();
            let no_ref = plan_cost(&plan_list(cur, None, 0), n, anchor);
            let mut costs = Vec::new();
            for back in 1..=k.min(REF_WINDOW) {
                let rl = window.back(back);
                let bits = plan_cost(&plan_list(cur, Some(rl), back as u64), n, anchor);
                costs.push(bits);
                if n == 0 {
                    continue;
                }
                let priced = s.costs[back];
                if rl.iter().any(|v| cur.binary_search(v).is_ok()) {
                    assert_eq!(priced, bits, "list {k}, r {back}");
                    seen.priced += 1;
                } else {
                    // Skipped unpriced: what lets `choose` do so.
                    assert_eq!(priced, u64::MAX, "list {k}, r {back}");
                    assert!(bits > no_ref, "list {k}, r {back}");
                }
            }
            if n > 0 && s.costs[1..].iter().any(|&c| c != u64::MAX) {
                assert_eq!(s.costs[0], no_ref, "list {k}");
            }
            if best < no_ref && costs.iter().filter(|&&b| b == best).count() > 1 {
                seen.ties += 1;
            }
            let rl = (r > 0).then(|| window.back(r as usize));
            write_plan(&mut exhaustive, &plan_list(cur, rl, r), n, anchor);
            assert_eq!(streamed.bit_len(), exhaustive.bit_len(), "list {k}");
            if let Some(&first) = cur.first() {
                anchor = Some(first);
            }
        }
        assert_eq!(streamed.finish(), exhaustive.finish());
        seen
    }

    /// A sorted list of `len` ids: gaps of 0 (duplicates), 1 (runs) and
    /// jumps up to `spread`.
    fn seeded_list(s: &mut u64, start: u32, len: usize, spread: u32) -> Vec<u32> {
        let mut cur = start;
        (0..len)
            .map(|i| {
                *s = mix(*s ^ i as u64);
                cur += match *s % 6 {
                    0 => 0,
                    1..=3 => 1,
                    _ => (*s >> 8) as u32 % spread,
                };
                cur
            })
            .collect()
    }

    /// `base` with about one id in `one_in` dropped and as many fresh ids
    /// merged in.
    fn perturbed(s: &mut u64, base: &[u32], one_in: u64) -> Vec<u32> {
        let mut out: Vec<u32> = base
            .iter()
            .copied()
            .filter(|&v| {
                *s = mix(*s ^ u64::from(v));
                !s.is_multiple_of(one_in)
            })
            .collect();
        let fresh = out.len() as u64 / one_in;
        for _ in 0..fresh {
            *s = mix(*s);
            out.push(base[0] + (*s % u64::from(base[base.len() - 1] - base[0] + 1)) as u32);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn streaming_choice_matches_exhaustive_planner() {
        let mut s = 0x0b5e_55ed_u64;
        let mut seen = Seen::default();
        // Hub lists of 1–5,000 ids sharing long prefixes, duplicates and
        // runs included, with empty lists inside the window.
        let hub = seeded_list(&mut s, 1_000, 5_000, 60);
        let mut lists = vec![hub.clone(), Vec::new()];
        for len in [4_990, 1, 3_000, 5_000, 2, 4_500, 64] {
            lists.push(perturbed(&mut s, &hub[..len], 40));
        }
        lists.push(Vec::new());
        lists.push(hub[2_000..2_600].to_vec());
        seen += check_against_oracle(&lists);

        // Runs of exactly 3, 4 and 5 ids left over once a reference's ids
        // are copied, around every spot a reference can cut them.
        let runs = [10, 11, 12, 20, 21, 22, 23, 30, 31, 32, 33, 34, 40];
        let mut lists = vec![runs.to_vec()];
        for mask in 1u32..64 {
            let reference: Vec<u32> = runs
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> (i % 6) & 1 == 1)
                .map(|(_, &v)| v + (mask >> 5))
                .collect();
            lists.push(reference);
            lists.push(runs.to_vec());
        }
        seen += check_against_oracle(&lists);

        // Ids next to u32::MAX.
        let m = u32::MAX;
        let lists = [
            (m - 9..=m).collect(),
            vec![m, m],
            vec![m - 4, m - 3, m - 2, m - 1, m, m],
            vec![m - 9, m - 1, m],
            vec![],
            vec![0, m - 3, m - 2, m - 1, m, m],
        ];
        seen += check_against_oracle(&lists);

        // 0 and u32::MAX in one extent, in lists that share them across
        // more than a window and around empty lists.
        let lists: Vec<_> = (0..24u32)
            .map(|f| match f % 6 {
                0 => vec![0, 1, 2, 3, m - 1, m],
                1 => vec![0, 0, m, m],
                2 => vec![],
                3 => vec![0, 2, 3, 4, 5, m - 3, m - 2, m - 1, m],
                4 => vec![1 + f, m - 5 - f, m],
                _ => vec![0, m - 1, m, m, m],
            })
            .collect();
        seen += check_against_oracle(&lists);

        // Duplicate ids inside lists and across references: each way the
        // multiset intersection pairs repeats, and copied repeats whose
        // removal joins the ids either side into one run (4, 5, 6 below;
        // 1, 2, 3, 4 — an interval — after it).
        let dups = [
            vec![4, 5, 5, 6],
            vec![5],
            vec![4, 5, 5, 6],
            vec![1, 2, 2, 3, 3, 4, 9],
            vec![2, 3],
            vec![1, 2, 2, 3, 3, 4, 9],
            vec![7, 7, 7, 7, 8, 8],
            vec![7, 7, 8, 8, 8],
            vec![7, 7, 7, 7, 8, 8],
            vec![5, 5, 6, 7, 8, 9, 9],
            vec![5, 9, 9, 9],
            vec![5, 5, 6, 7, 8, 9, 9],
        ];
        seen += check_against_oracle(&dups);
        for case in 0..100u64 {
            s = mix(s ^ case);
            let count = 2 + (s % 12) as usize;
            let lists: Vec<_> = (0..count)
                .map(|f| {
                    s = mix(s ^ f as u64);
                    let (len, start) = ((s >> 8) as usize % 30, (s >> 20) as u32 % 40);
                    seeded_list(&mut s, start, len, 3)
                        .into_iter()
                        .flat_map(|v| std::iter::repeat_n(v, 1 + (v % 3) as usize))
                        .collect()
                })
                .collect();
            seen += check_against_oracle(&lists);
        }

        // Forty lists near one base, every fifth empty: window slots are
        // reused five times over.
        let base = seeded_list(&mut s, 100, 300, 5);
        let lists: Vec<_> = (0..40u64)
            .map(|f| {
                if f % 5 == 3 {
                    Vec::new()
                } else {
                    perturbed(&mut s, &base, 3 + f % 7)
                }
            })
            .collect();
        seen += check_against_oracle(&lists);

        // An exact tie: the same list one and two lists back costs γ(1) =
        // γ(2) = 3 bits of reference either way; r = 1 must win (the
        // oracle keeps the smallest r).
        let a = seeded_list(&mut s, 500, 40, 9);
        let tied = [a.clone(), a.clone(), a.clone()];
        assert_eq!(check_against_oracle(&tied).ties, 1);

        // Seeded small windows: every mix of the above at random.
        for case in 0..200u64 {
            s = mix(s ^ case);
            let count = 1 + (s % 10) as usize;
            let lists: Vec<_> = (0..count)
                .map(|f| {
                    s = mix(s ^ f as u64);
                    let (len, start) = ((s >> 8) as usize % 40, (s >> 20) as u32 % 200);
                    seeded_list(&mut s, start, len, 12)
                })
                .collect();
            seen += check_against_oracle(&lists);
        }
        println!("{seen:?}");
        assert!(seen.priced > 3_000, "{seen:?}");
    }

    #[test]
    fn streaming_choice_matches_exhaustive_planner_on_livej_extents() {
        use hybridgraph_graph::{BlockLayout, Dataset, Partition};
        let stand_ins = [
            (Dataset::LiveJ, 1u64),
            (Dataset::LiveJ, 2),
            (Dataset::LiveJ, 3),
            (Dataset::Wiki, 1),
        ];
        for (d, seed) in stand_ins {
            let mut spec = d.spec();
            spec.seed ^= seed;
            let g = spec.build(2_000);
            // Two workers, one Vblock each: the Eblocks VeBlockStore
            // builds for an ample-memory b-pull job.
            let layout = BlockLayout::uniform(&Partition::range(g.num_vertices(), 2), 1);
            let blocks = layout.num_blocks();
            let mut extents: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); blocks * blocks];
            for v in g.vertices() {
                let j = layout.block_of(v).index();
                for e in g.out_edges(v) {
                    let frags = &mut extents[j * blocks + layout.block_of(e.dst).index()];
                    if frags.last().map(|(sv, _)| *sv) != Some(v.0) {
                        frags.push((v.0, Vec::new()));
                    }
                    frags.last_mut().expect("pushed").1.push(e.dst.0);
                }
            }
            let (mut lists, mut seen) = (0, Seen::default());
            for frags in extents {
                let ids: Vec<_> = frags.into_iter().map(|(_, ids)| ids).collect();
                lists += ids.len();
                seen += check_against_oracle(&ids);
            }
            println!("{} seed {seed}: {lists} lists, {seen:?}", d.name());
            assert!(lists > 1_000, "{} seed {seed}: {lists} lists", d.name());
        }
    }
}
