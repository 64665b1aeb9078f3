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
// Each list is first decomposed into a `ListPlan` (reference choice,
// copy blocks, intervals, residuals); the plan knows its exact bit cost,
// so reference selection compares candidates without writing anything,
// and the chosen plan is then replayed into the writer. Cost helpers
// must stay in lockstep with `bits::BitWriter` — `tests::cost_helpers_
// match_writer` enforces it.

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

/// Splits `extras` (sorted) into intervals and residuals.
fn split_intervals(extras: &[u32]) -> (Vec<(u32, u32)>, Vec<u32>) {
    let mut intervals = Vec::new();
    let mut residuals = Vec::new();
    let mut i = 0usize;
    while i < extras.len() {
        let mut j = i + 1;
        while j < extras.len() && extras[j] == extras[j - 1] + 1 {
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

/// Builds the plan for `cur` against an optional reference list.
fn plan_list(cur: &[u32], reference: Option<&[u32]>, r: u64) -> ListPlan {
    let (blocks, extras) = match reference {
        None => (Vec::new(), cur.to_vec()),
        Some(rl) => {
            // Two-pointer multiset intersection: which reference
            // positions are copied into `cur`.
            let mut copied = vec![false; rl.len()];
            let mut extras = Vec::new();
            let mut j = 0usize;
            for &v in cur {
                while j < rl.len() && rl[j] < v {
                    j += 1;
                }
                if j < rl.len() && rl[j] == v {
                    copied[j] = true;
                    j += 1;
                } else {
                    extras.push(v);
                }
            }
            // Run-length the copied bitmap into alternating blocks
            // starting with "copied"; the final run is implicit.
            let mut runs: Vec<u64> = Vec::new();
            let mut parity = true; // first block is copied
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
                runs.pop(); // trailing block is implied by the ref length
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

/// Exact bit cost of writing this plan for a list of `n` ids against
/// `anchor`. Empty lists cost nothing; lists shorter than
/// [`MIN_INTERVAL`] omit the interval-count field (they cannot contain
/// an interval).
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

/// Encodes `cur` into `w`, choosing the cheapest reference among "no
/// reference" and the window of previously encoded lists (most recent
/// first candidate). Ties keep the smallest `r`, so output is
/// deterministic. `cur` must be non-decreasing (checked by callers);
/// `anchor` is the first id of the extent's previous non-empty list.
fn write_list(w: &mut BitWriter, cur: &[u32], window: Window<'_>, anchor: Option<u32>) {
    let mut best = plan_list(cur, None, 0);
    let mut best_cost = plan_cost(&best, cur.len(), anchor);
    let reach = window.len().min(REF_WINDOW);
    for r in 1..=reach {
        let rl = window.back(r);
        if rl.is_empty() {
            continue;
        }
        let cand = plan_list(cur, Some(rl), r as u64);
        let cost = plan_cost(&cand, cur.len(), anchor);
        if cost < best_cost {
            best = cand;
            best_cost = cost;
        }
    }
    write_plan(w, &best, cur.len(), anchor);
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

/// BV-codes a raw fragment stream (`svertex u32 | count u32 | count ×
/// (id u32, w f32)` repeated). Layout: `nfrags` varint, then one bit
/// stream — δ-coded strictly-ascending svertices, γ counts, one
/// [`write_list`] body per fragment (reference window = previous lists
/// of this extent; each list's leading id is zigzag-δ-coded against the
/// previous non-empty list's first id, since all lists in an extent
/// share one destination block), and the packed weight column over all
/// edges.
pub fn fragments_from_raw(raw: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut f = FragmentColumns::default();
    f.parse_raw(raw)?;
    if f.svertices.windows(2).any(|p| p[0] >= p[1]) {
        return Err(CodecError::Corrupt("bv requires ascending svertices"));
    }
    let mut out = Vec::with_capacity(raw.len() / 4 + 16);
    write_u64(&mut out, f.len() as u64);
    let mut w = BitWriter::new();
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
        require_sorted(cur)?;
        let window = Window {
            ids: &f.ids,
            ends: &f.ends[..k],
        };
        write_list(&mut w, cur, window, anchor);
        if let Some(&first) = cur.first() {
            anchor = Some(first);
        }
    }
    write_weights(&mut w, &f.weights);
    out.extend(w.finish());
    Ok(out)
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
    if !raw.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt("edge list not a multiple of 8 bytes"));
    }
    let count = raw.len() / 8;
    let mut ids = Vec::with_capacity(count);
    let mut weights = Vec::with_capacity(count);
    for e in raw.chunks_exact(8) {
        ids.push(u32::from_le_bytes(e[..4].try_into().expect("width")));
        weights.push(u32::from_le_bytes(e[4..].try_into().expect("width")));
    }
    require_sorted(&ids)?;
    let mut out = Vec::with_capacity(raw.len() / 4 + 8);
    write_u64(&mut out, count as u64);
    let mut w = BitWriter::new();
    write_list(&mut w, &ids, Window::EMPTY, None);
    write_weights(&mut w, &weights);
    out.extend(w.finish());
    Ok(out)
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
}
