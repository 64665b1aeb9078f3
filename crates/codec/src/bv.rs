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
// intervals, residuals). Choosing the reference builds no plan: one
// streaming merge of the list against a candidate (`decompose`) feeds a
// `Cost` sink that sums the exact bit length that candidate's plan would
// have, allocating nothing. A candidate sharing no id with the list is
// skipped unpriced (see `choose_reference`). Only the winner is
// decomposed, into a `ListPlan` the encoder reuses list after list and
// extent after extent, and replayed into the writer by `write_plan`.
// Cost helpers must stay in lockstep with `bits::BitWriter` —
// `tests::cost_helpers_match_writer` enforces it, and
// `tests::streaming_choice_matches_exhaustive_planner` holds the choice
// to a planner that builds and prices every candidate's plan.

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
    /// Overwrites the plan with `cur`'s decomposition against `rl`, the
    /// list `r` positions back (`r = 0`, `rl` empty: no reference).
    fn build(&mut self, cur: &[u32], rl: &[u32], r: u64) {
        self.r = r;
        self.blocks.clear();
        self.intervals.clear();
        self.residuals.clear();
        decompose(cur, rl, self);
    }
}

/// The pieces [`decompose`] finds, each kind in list order.
trait Pieces {
    /// The next explicit copy block's length.
    fn block(&mut self, len: u64);
    /// A run of `len >= MIN_INTERVAL` consecutive ids from `left`.
    fn interval(&mut self, left: u32, len: u32);
    /// `len < MIN_INTERVAL` consecutive ids from `first`, coded as
    /// residuals.
    fn residuals(&mut self, first: u32, len: u32);
}

impl Pieces for ListPlan {
    fn block(&mut self, len: u64) {
        self.blocks.push(len);
    }

    fn interval(&mut self, left: u32, len: u32) {
        self.intervals.push((left, len));
    }

    fn residuals(&mut self, first: u32, len: u32) {
        self.residuals.extend((0..len).map(|k| first + k));
    }
}

/// Run-lengths the reference's copied/skipped positions into alternating
/// blocks that start with a "copied" one (possibly empty). The run still
/// open at the end is never reported: its length is implied by the
/// reference's.
struct BlockRuns {
    copied: bool,
    len: u64,
}

impl BlockRuns {
    fn push(&mut self, copied: bool, n: usize, out: &mut impl Pieces) {
        if n == 0 {
            return;
        }
        if copied != self.copied {
            out.block(self.len);
            self.copied = copied;
            self.len = 0;
        }
        self.len += n as u64;
    }
}

/// Reports a finished run of consecutive extras: an interval if it is
/// long enough, residuals otherwise.
fn flush_run(first: u64, len: u64, out: &mut impl Pieces) {
    if len >= u64::from(MIN_INTERVAL) {
        out.interval(first as u32, len as u32);
    } else if len > 0 {
        out.residuals(first as u32, len as u32);
    }
}

/// Decomposes `cur` against reference `rl` (empty: no reference) in one
/// merge. A two-pointer multiset intersection decides which reference
/// positions are copied; the ids it leaves over ("extras") split into
/// maximal runs of consecutive ids, compared in `u64` so a run may end at
/// `u32::MAX`.
fn decompose(cur: &[u32], rl: &[u32], out: &mut impl Pieces) {
    let mut blocks = BlockRuns {
        copied: true,
        len: 0,
    };
    let (mut run_first, mut run_len) = (0u64, 0u64);
    let mut j = 0usize;
    for &v in cur {
        let skipped_from = j;
        while j < rl.len() && rl[j] < v {
            j += 1;
        }
        blocks.push(false, j - skipped_from, out);
        if j < rl.len() && rl[j] == v {
            blocks.push(true, 1, out);
            j += 1;
        } else if run_len > 0 && u64::from(v) == run_first + run_len {
            run_len += 1;
        } else {
            flush_run(run_first, run_len, out);
            (run_first, run_len) = (u64::from(v), 1);
        }
    }
    blocks.push(false, rl.len() - j, out);
    flush_run(run_first, run_len, out);
}

/// Running bit cost of a plan's pieces, less the count fields that
/// [`list_cost`] adds once the counts are known.
struct Cost {
    anchor: Option<u32>,
    bits: u64,
    blocks: u64,
    intervals: u64,
    prev_left: u32,
    prev_residual: Option<u32>,
}

impl Pieces for Cost {
    fn block(&mut self, len: u64) {
        self.bits += len_gamma(if self.blocks == 0 { len } else { len - 1 });
        self.blocks += 1;
    }

    fn interval(&mut self, left: u32, len: u32) {
        self.bits += if self.intervals == 0 {
            len_first(left, self.anchor)
        } else {
            len_delta(u64::from(left - self.prev_left - 1))
        };
        self.bits += len_gamma(u64::from(len - MIN_INTERVAL));
        self.intervals += 1;
        self.prev_left = left;
    }

    fn residuals(&mut self, first: u32, len: u32) {
        self.bits += match self.prev_residual {
            None => len_first(first, self.anchor),
            Some(prev) => len_zeta(u64::from(first - prev), ZETA_K),
        };
        // The run's later ids are each one past the previous residual.
        self.bits += u64::from(len - 1) * len_zeta(1, ZETA_K);
        self.prev_residual = Some(first + (len - 1));
    }
}

/// Exact bit length [`write_plan`] spends on `cur` decomposed against
/// `rl`, the list `r` positions back (`r = 0`, `rl` empty: no reference),
/// without building the plan. Empty lists cost nothing; lists shorter
/// than [`MIN_INTERVAL`] omit the interval-count field (they cannot
/// contain an interval).
fn list_cost(cur: &[u32], rl: &[u32], r: u64, anchor: Option<u32>) -> u64 {
    if cur.is_empty() {
        return 0;
    }
    let mut c = Cost {
        anchor,
        bits: 0,
        blocks: 0,
        intervals: 0,
        prev_left: 0,
        prev_residual: None,
    };
    decompose(cur, rl, &mut c);
    let mut bits = len_gamma(r) + c.bits;
    if r > 0 {
        bits += len_gamma(c.blocks);
    }
    if cur.len() >= MIN_INTERVAL as usize {
        bits += len_gamma(c.intervals);
    }
    bits
}

/// True if sorted `a` and `b` hold a common id: a range check, then a
/// merge that stops at the first match.
fn shares_id(a: &[u32], b: &[u32]) -> bool {
    let (Some(&a_lo), Some(&a_hi), Some(&b_lo), Some(&b_hi)) =
        (a.first(), a.last(), b.first(), b.last())
    else {
        return false;
    };
    if a_hi < b_lo || b_hi < a_lo {
        return false;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
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
    const EMPTY: Window<'static> = Window {
        ids: &[],
        ends: &[],
    };

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The list `back` positions before the current one (`1..=len`).
    fn back(&self, back: usize) -> &'a [u32] {
        let t = self.ends.len() - back;
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        &self.ids[start..self.ends[t]]
    }
}

/// The cheapest reference for `cur` among "no reference" (`0`) and the
/// window of previously encoded lists (most recent first). Ties keep the
/// smallest `r`, so output is deterministic.
///
/// A candidate sharing no id with `cur` is skipped without pricing it:
/// it copies nothing, so its plan is one empty copy block plus exactly
/// the no-reference plan's intervals and residuals. On top of those same
/// bits it spends γ(r) + γ(1) + γ(0) ≥ 7 where no reference spends
/// γ(0) = 1, so it can never win. The no-reference cost is therefore
/// needed only once a candidate survives that test.
fn choose_reference(cur: &[u32], window: Window<'_>, anchor: Option<u32>) -> u64 {
    let mut best: Option<(u64, u64)> = None; // (bits, r)
    for r in 1..=window.len().min(REF_WINDOW) {
        let rl = window.back(r);
        if !shares_id(cur, rl) {
            continue;
        }
        let (best_bits, _) = *best.get_or_insert_with(|| (list_cost(cur, &[], 0, anchor), 0));
        let bits = list_cost(cur, rl, r as u64, anchor);
        if bits < best_bits {
            best = Some((bits, r as u64));
        }
    }
    best.map_or(0, |(_, r)| r)
}

/// Encodes `cur` into `w` against its cheapest reference, building only
/// that plan, into `plan` (scratch the caller reuses list after list).
/// `cur` must be non-decreasing (checked by callers); `anchor` is the
/// first id of the extent's previous non-empty list.
fn write_list(
    w: &mut BitWriter,
    cur: &[u32],
    window: Window<'_>,
    anchor: Option<u32>,
    plan: &mut ListPlan,
) {
    let r = choose_reference(cur, window, anchor);
    let rl = if r == 0 { &[] } else { window.back(r as usize) };
    plan.build(cur, rl, r);
    write_plan(w, plan, cur.len(), anchor);
}

/// The list decoder's per-list buffers, cleared for every list and kept
/// across lists and extents.
#[derive(Default)]
pub(crate) struct ListScratch {
    copied: Vec<u32>,
    /// `(left, len)` runs.
    intervals: Vec<(u32, u32)>,
    residuals: Vec<u32>,
}

/// Past the last element of a merge input (ids are `u32`).
const DONE: u64 = u64::MAX;

fn head(v: &[u32], i: usize) -> u64 {
    v.get(i).map_or(DONE, |&x| u64::from(x))
}

fn interval_head(v: &[(u32, u32)], i: usize) -> u64 {
    v.get(i).map_or(DONE, |&(left, _)| u64::from(left))
}

/// Decodes one list of `count` ids written by [`write_list`] and appends it
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
    s.residuals.clear();
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
    if nresiduals > 0 {
        let mut prev = read_first(r, anchor)?;
        s.residuals.push(prev);
        for _ in 1..nresiduals {
            let gap = r.read_zeta(ZETA_K)?;
            prev = gap
                .checked_add(u64::from(prev))
                .and_then(|v| u32::try_from(v).ok())
                .ok_or(CodecError::Corrupt("bv residual overflow"))?;
            s.residuals.push(prev);
        }
    }
    let start = ids.len();
    if s.copied.is_empty() && s.intervals.is_empty() {
        // Residuals only (most lists): they are the list.
        ids.extend_from_slice(&s.residuals);
        return Ok(());
    }
    // Three-way merge of the sorted pieces back into the sorted list; an
    // exhausted piece reads as `DONE`, above every id.
    let (mut ci, mut ri, mut ii, mut ioff) = (0usize, 0usize, 0usize, 0u32);
    let (mut cv, mut rv, mut iv) = (
        head(&s.copied, 0),
        head(&s.residuals, 0),
        interval_head(&s.intervals, 0),
    );
    loop {
        let m = cv.min(rv).min(iv);
        if m == DONE {
            break;
        }
        ids.push(m as u32);
        if cv == m {
            ci += 1;
            cv = head(&s.copied, ci);
        } else if iv == m {
            ioff += 1;
            if ioff == s.intervals[ii].1 {
                ii += 1;
                ioff = 0;
                iv = interval_head(&s.intervals, ii);
            } else {
                iv += 1;
            }
        } else {
            ri += 1;
            rv = head(&s.residuals, ri);
        }
    }
    if ids.len() - start != count {
        return Err(CodecError::Corrupt("bv list length mismatch"));
    }
    Ok(())
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

/// The encoder's working buffers — the parsed columns and the chosen
/// list's plan — which [`crate::ExtentEncoder`] keeps from one extent to
/// the next.
#[derive(Default)]
pub(crate) struct EncodeScratch {
    cols: FragmentColumns,
    plan: ListPlan,
}

/// BV-codes a raw fragment stream (`svertex u32 | count u32 | count ×
/// (id u32, w f32)` repeated). Layout: `nfrags` varint, then one bit
/// stream — δ-coded strictly-ascending svertices, γ counts, one
/// `write_list` body per fragment (reference window = previous lists
/// of this extent; each list's leading id is zigzag-δ-coded against the
/// previous non-empty list's first id, since all lists in an extent
/// share one destination block), and the packed weight column over all
/// edges.
pub fn fragments_from_raw(raw: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_fragments(raw, &mut EncodeScratch::default(), &mut out)?;
    Ok(out)
}

/// [`fragments_from_raw`] appending to `out`, in buffers the caller keeps.
/// Every input check runs before `out` is touched.
pub(crate) fn encode_fragments(
    raw: &[u8],
    s: &mut EncodeScratch,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let EncodeScratch { cols: f, plan } = s;
    f.parse_raw(raw)?;
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
    let mut anchor: Option<u32> = None;
    for k in 0..f.len() {
        let cur = &f.ids[f.span(k)];
        let window = Window {
            ids: &f.ids,
            ends: &f.ends[..k],
        };
        write_list(&mut w, cur, window, anchor, plan);
        if let Some(&first) = cur.first() {
            anchor = Some(first);
        }
    }
    write_weights(&mut w, &f.weights);
    *out = w.finish();
    Ok(())
}

/// Decodes a [`fragments_from_raw`] body into `cols` (overwritten): the
/// tier's one fragment decoder.
pub(crate) fn decode_fragments(coded: &[u8], cols: &mut FragmentColumns) -> Result<(), CodecError> {
    cols.clear();
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

/// Inverse of [`fragments_from_raw`].
pub fn raw_from_fragments(coded: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut cols = FragmentColumns::default();
    decode_fragments(coded, &mut cols)?;
    Ok(cols.to_raw())
}

/// BV-codes a bare edge list (`id u32 | w f32` pairs): `count` varint,
/// then one bit stream with a single referenceless list body and the
/// packed weight column.
pub fn edges_from_raw(raw: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_edges(raw, &mut EncodeScratch::default(), &mut out)?;
    Ok(out)
}

/// [`edges_from_raw`] appending to `out`, in buffers the caller keeps.
/// Every input check runs before `out` is touched.
pub(crate) fn encode_edges(
    raw: &[u8],
    s: &mut EncodeScratch,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if !raw.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt("edge list not a multiple of 8 bytes"));
    }
    let EncodeScratch { cols, plan } = s;
    cols.clear();
    for e in raw.chunks_exact(8) {
        cols.ids.push(u32::from_le_bytes([e[0], e[1], e[2], e[3]]));
        cols.weights
            .push(u32::from_le_bytes([e[4], e[5], e[6], e[7]]));
    }
    require_sorted(&cols.ids)?;
    write_u64(out, cols.ids.len() as u64);
    let mut w = BitWriter::from_vec(std::mem::take(out));
    write_list(&mut w, &cols.ids, Window::EMPTY, None, plan);
    write_weights(&mut w, &cols.weights);
    *out = w.finish();
    Ok(())
}

/// Inverse of [`edges_from_raw`].
pub fn raw_from_edges(coded: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let count = read_u64(coded, &mut pos)? as usize;
    let mut r = BitReader::new(&coded[pos..]);
    let (mut ids, mut weights) = (Vec::new(), Vec::new());
    read_list(
        &mut r,
        count,
        &mut ids,
        &[],
        None,
        &mut ListScratch::default(),
    )?;
    read_weights(&mut r, count, &mut weights)?;
    let mut raw = Vec::with_capacity(count * 8);
    for i in 0..count {
        raw.extend_from_slice(&ids[i].to_le_bytes());
        raw.extend_from_slice(&weights[i].to_le_bytes());
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let coded = fragments_from_raw(&[]).unwrap();
        assert_eq!(raw_from_fragments(&coded).unwrap(), Vec::<u8>::new());
        let coded = edges_from_raw(&[]).unwrap();
        assert_eq!(raw_from_edges(&coded).unwrap(), Vec::<u8>::new());
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
        let coded = fragments_from_raw(&raw).unwrap();
        assert_eq!(raw_from_fragments(&coded).unwrap(), raw);
    }

    #[test]
    fn intervals_collapse_consecutive_runs() {
        // 0..1000 consecutive: one interval, a handful of bytes.
        let edges: Vec<(u32, f32)> = (0..1000).map(|i| (i, 1.0)).collect();
        let raw = raw_fragment_stream(&[(3, edges)]);
        let coded = fragments_from_raw(&raw).unwrap();
        assert!(coded.len() < 24, "interval coding failed: {}", coded.len());
        assert_eq!(raw_from_fragments(&coded).unwrap(), raw);
    }

    #[test]
    fn references_collapse_repeated_lists() {
        // 8 fragments sharing one 64-id list: refs make repeats ~free.
        let ids: Vec<u32> = (0..64).map(|i| 10 + 17 * i).collect();
        let frags: Vec<(u32, Vec<(u32, f32)>)> = (0..8)
            .map(|f| (f * 3, ids.iter().map(|&d| (d, 1.0f32)).collect()))
            .collect();
        let raw = raw_fragment_stream(&frags);
        let coded = fragments_from_raw(&raw).unwrap();
        let single = fragments_from_raw(&raw_fragment_stream(&frags[..1])).unwrap();
        assert!(
            coded.len() < single.len() * 2,
            "8 copies cost {} vs one {}",
            coded.len(),
            single.len()
        );
        assert_eq!(raw_from_fragments(&coded).unwrap(), raw);
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
        let bv = fragments_from_raw(&raw).unwrap();
        let gaps = crate::gaps::fragments_from_raw(&raw).unwrap();
        assert!(
            bv.len() * 10 < gaps.len() * 9,
            "bv {} not >=10% under gaps {}",
            bv.len(),
            gaps.len()
        );
        assert_eq!(raw_from_fragments(&bv).unwrap(), raw);
    }

    #[test]
    fn non_monotone_input_is_rejected_not_mangled() {
        let raw = raw_fragment_stream(&[(1, vec![(9, 1.0), (3, 1.0)])]);
        assert!(fragments_from_raw(&raw).is_err());
        let mut raw = Vec::new();
        raw.extend_from_slice(&9u32.to_le_bytes());
        raw.extend_from_slice(&1.0f32.to_le_bytes());
        raw.extend_from_slice(&3u32.to_le_bytes());
        raw.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(edges_from_raw(&raw).is_err());
        // Non-ascending svertices too (duplicate fragment keys).
        let raw = raw_fragment_stream(&[(5, vec![]), (5, vec![])]);
        assert!(fragments_from_raw(&raw).is_err());
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
                let coded = fragments_from_raw(&raw).unwrap();
                assert_eq!(
                    raw_from_fragments(&coded).unwrap(),
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
                let _ = raw_from_fragments(&buf);
                let _ = raw_from_edges(&buf);
            }
            // Bit-flip a valid body at every position.
            let raw = raw_fragment_stream(&[
                (1, vec![(5, 1.0), (6, 1.0), (7, 1.0), (8, 1.0), (20, 2.0)]),
                (4, vec![(5, 1.0), (6, 1.0), (8, 1.0)]),
            ]);
            let coded = fragments_from_raw(&raw).unwrap();
            for bit in 0..coded.len() * 8 {
                let mut m = coded.clone();
                m[bit / 8] ^= 1 << (bit % 8);
                if let Ok(back) = raw_from_fragments(&m) {
                    // A surviving decode must still be self-consistent.
                    let _ = fragments_from_raw(&back);
                }
            }
            for cut in 0..coded.len() {
                assert!(raw_from_fragments(&coded[..cut]).is_err());
            }
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
            let coded = fragments_from_raw(&raw).unwrap();
            assert_eq!(raw_from_fragments(&coded).unwrap(), raw, "{ids:?}");
            let raw: Vec<u8> = edges
                .iter()
                .flat_map(|(d, w)| [d.to_le_bytes(), w.to_le_bytes()].concat())
                .collect();
            let coded = edges_from_raw(&raw).unwrap();
            assert_eq!(raw_from_edges(&coded).unwrap(), raw, "{ids:?}");
        }
    }

    // ------------------------------------------- the exhaustive planner
    //
    // The reference choice by brute force: every candidate's plan built
    // in full — copied bitmap, extras, runs — and priced. It is the
    // oracle `choose_reference` and `list_cost` are held to.

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
        for r in 1..=window.len().min(REF_WINDOW) {
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

    /// Holds one extent's lists to the exhaustive planner — the streaming
    /// cost of every candidate, the chosen reference, the written bits —
    /// and returns how many lists had two references tie for cheapest.
    fn check_against_oracle(lists: &[Vec<u32>]) -> usize {
        let (mut ids, mut ends) = (Vec::new(), Vec::new());
        let (mut anchor, mut ties) = (None, 0);
        let (mut streamed, mut exhaustive) = (BitWriter::new(), BitWriter::new());
        let mut plan = ListPlan::default();
        for (k, cur) in lists.iter().enumerate() {
            let window = Window {
                ids: &ids,
                ends: &ends,
            };
            let n = cur.len();
            let no_ref = list_cost(cur, &[], 0, anchor);
            assert_eq!(no_ref, plan_cost(&plan_list(cur, None, 0), n, anchor));
            let mut costs = Vec::new();
            for r in 1..=window.len().min(REF_WINDOW) {
                let rl = window.back(r);
                let bits = list_cost(cur, rl, r as u64, anchor);
                let oracle = plan_cost(&plan_list(cur, Some(rl), r as u64), n, anchor);
                assert_eq!(bits, oracle, "list {k}, r {r}");
                // What lets `choose_reference` skip without pricing.
                assert!(
                    n == 0 || shares_id(cur, rl) || bits > no_ref,
                    "list {k}, r {r}"
                );
                costs.push(bits);
            }
            let (r, best) = exhaustive_choice(cur, window, anchor);
            assert_eq!(choose_reference(cur, window, anchor), r, "list {k}");
            if best < no_ref && costs.iter().filter(|&&b| b == best).count() > 1 {
                ties += 1;
            }
            write_list(&mut streamed, cur, window, anchor, &mut plan);
            let rl = (r > 0).then(|| window.back(r as usize));
            write_plan(&mut exhaustive, &plan_list(cur, rl, r), n, anchor);
            assert_eq!(streamed.bit_len(), exhaustive.bit_len(), "list {k}");
            ids.extend_from_slice(cur);
            ends.push(ids.len());
            if let Some(&first) = cur.first() {
                anchor = Some(first);
            }
        }
        assert_eq!(streamed.finish(), exhaustive.finish());
        ties
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
        // Hub lists of 1–5,000 ids sharing long prefixes, duplicates and
        // runs included, with empty lists inside the window.
        let hub = seeded_list(&mut s, 1_000, 5_000, 60);
        let mut lists = vec![hub.clone(), Vec::new()];
        for len in [4_990, 1, 3_000, 5_000, 2, 4_500, 64] {
            lists.push(perturbed(&mut s, &hub[..len], 40));
        }
        lists.push(Vec::new());
        lists.push(hub[2_000..2_600].to_vec());
        check_against_oracle(&lists);

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
        check_against_oracle(&lists);

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
        check_against_oracle(&lists);

        // An exact tie: the same list one and two lists back costs γ(1) =
        // γ(2) = 3 bits of reference either way; r = 1 must win.
        let a = seeded_list(&mut s, 500, 40, 9);
        let tied = [a.clone(), a.clone(), a.clone()];
        assert_eq!(check_against_oracle(&tied), 1);
        let window = Window {
            ids: &[a.clone(), a.clone()].concat(),
            ends: &[a.len(), 2 * a.len()],
        };
        assert_eq!(choose_reference(&a, window, a.first().copied()), 1);

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
            check_against_oracle(&lists);
        }
    }

    #[test]
    fn streaming_choice_matches_exhaustive_planner_on_livej_extents() {
        use hybridgraph_graph::{BlockLayout, Dataset, Partition};
        for seed in [1u64, 2] {
            let mut spec = Dataset::LiveJ.spec();
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
            let mut lists = 0;
            for frags in extents {
                let ids: Vec<_> = frags.into_iter().map(|(_, ids)| ids).collect();
                lists += ids.len();
                check_against_oracle(&ids);
            }
            assert!(lists > 1_000, "seed {seed}: {lists} lists");
        }
    }
}
