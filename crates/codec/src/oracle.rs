//! The extent decoders as they were before the position bit reader and
//! the ζ₃ table: an accumulator bit reader that refills a word at a
//! time, byte-at-a-time varints and packed columns, and the bv list
//! decoder with one three-way merge. They are kept, test-only, as the
//! oracle the decoders of [`crate::decode_columns`] are held to: the same
//! verdict on every body, and on `Ok` the same columns.

use crate::bits::MAX_WIDTH;
use crate::bv::{MIN_INTERVAL, REF_WINDOW, ZETA_K};
use crate::varint::{read_u64, unzigzag};
use crate::{check_len, CodecError, ExtentKind, FragmentColumns, TAG_BV, TAG_GAPS, TAG_RAW};

/// Reads bits MSB-first from a byte slice, erroring on overrun.
///
/// The next `n` stream bits sit left-aligned at the top of `acc`. A refill
/// loads one big-endian word while eight bytes remain — after it `n` is at
/// least [`MAX_WIDTH`], so any single read needs at most one — and falls
/// back to single bytes in the last seven.
pub(crate) struct AccReader<'a> {
    data: &'a [u8],
    /// Next byte not yet counted in `n`.
    pos: usize,
    /// Stream bits, MSB first. Below the top `n` it holds either zeros or
    /// the stream bits that follow (a word refill loads whole bytes it
    /// does not count yet), so OR-ing those bits in again is harmless.
    acc: u64,
    /// Valid bits at the top of `acc`.
    n: u32,
}

impl<'a> AccReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            n: 0,
        }
    }

    /// Tops `n` up to 57..=64 bits, or to whatever the stream has left.
    /// Only called with `n < 64`.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data[self.pos..].first_chunk::<8>() {
            self.acc |= u64::from_be_bytes(*word) >> self.n;
            let bytes = (64 - self.n) / 8;
            self.pos += bytes as usize;
            self.n += bytes * 8;
        } else {
            while self.n <= 56 && self.pos < self.data.len() {
                self.acc |= u64::from(self.data[self.pos]) << (56 - self.n);
                self.pos += 1;
                self.n += 8;
            }
        }
    }

    /// Reads `width` (≤ [`MAX_WIDTH`]) bits MSB-first.
    #[inline]
    pub(crate) fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        debug_assert!(width <= MAX_WIDTH);
        if width == 0 {
            return Ok(0);
        }
        if self.n < width {
            self.refill();
            if self.n < width {
                return Err(CodecError::Truncated);
            }
        }
        let v = self.acc >> (64 - width);
        self.acc <<= width;
        self.n -= width;
        Ok(v)
    }

    /// Reads a unary code (count of zeros before the terminating one).
    #[inline]
    fn read_unary(&mut self) -> Result<u64, CodecError> {
        let mut count = 0u64;
        loop {
            if self.n == 0 {
                self.refill();
                if self.n == 0 {
                    return Err(CodecError::Truncated);
                }
            }
            let lz = self.acc.leading_zeros();
            if lz < self.n {
                // `lz + 1` may be 64 when all 64 bits are valid.
                self.acc = self.acc << lz << 1;
                self.n -= lz + 1;
                return Ok(count + u64::from(lz));
            }
            // All valid bits are zeros; drop them (and the uncounted bits
            // below, which the next refill loads again).
            count += u64::from(self.n);
            self.acc = 0;
            self.n = 0;
        }
    }

    /// Tops the valid bits up to a whole refill unless [`MAX_WIDTH`] are
    /// already there: the codes' fast paths decode from `acc` alone.
    #[inline]
    fn fill(&mut self) {
        if self.n < MAX_WIDTH {
            self.refill();
        }
    }

    #[inline]
    pub(crate) fn read_gamma(&mut self) -> Result<u64, CodecError> {
        self.fill();
        let b = self.acc.leading_zeros();
        // Fast path: unary, stop bit and mantissa are all valid bits.
        let len = 2 * b + 1;
        if len <= self.n {
            let v = self.acc >> (64 - len);
            self.acc <<= len;
            self.n -= len;
            return Ok(v - 1);
        }
        let b = self.read_unary()?;
        if b > 63 {
            return Err(CodecError::Corrupt("gamma exponent out of range"));
        }
        let mantissa = self.read_split(b as u32)?;
        Ok(((1u64 << b) | mantissa) - 1)
    }

    #[inline]
    pub(crate) fn read_delta(&mut self) -> Result<u64, CodecError> {
        let b = self.read_gamma()?;
        if b > 63 {
            return Err(CodecError::Corrupt("delta exponent out of range"));
        }
        let mantissa = self.read_split(b as u32)?;
        Ok(((1u64 << b) | mantissa) - 1)
    }

    #[inline]
    pub(crate) fn read_zeta(&mut self, k: u32) -> Result<u64, CodecError> {
        debug_assert!((1..=20).contains(&k));
        self.fill();
        let h = self.acc.leading_zeros();
        // Fast path (k ≥ 2): unary, stop bit and the offset — at most
        // `need` bits — are all valid bits. The shard holds
        // base·(2^k − 1) values, so the minimal-binary code of the offset
        // has `s = (h + 1)·k` bits and its threshold is `base` itself.
        let need = (h + 1) * (k + 1);
        if k >= 2 && need < 64 && need <= self.n {
            let base = 1u64 << (h * k);
            let s = (h + 1) * k;
            let rest = self.acc << (h + 1);
            // The long form takes one more bit and subtracts `base`;
            // chosen without a branch, since it is a coin flip.
            let long = u32::from(rest >> (64 - (s - 1)) >= base);
            let off = (rest >> (64 - (s - 1 + long))) - (base & u64::from(long).wrapping_neg());
            let len = h + s + long;
            self.acc <<= len;
            self.n -= len;
            return Ok(base + off - 1);
        }
        let h = self.read_unary()?;
        if h as u32 * k > 63 {
            return Err(CodecError::Corrupt("zeta shard out of range"));
        }
        let base = 1u64 << (h as u32 * k);
        let span = if (h as u32 + 1) * k >= 64 {
            u64::MAX - base + 1
        } else {
            (base << k) - base
        };
        let off = self.read_minimal_binary(span)?;
        Ok(base + off - 1)
    }

    fn read_minimal_binary(&mut self, m: u64) -> Result<u64, CodecError> {
        debug_assert!(m >= 1);
        if m == 1 {
            return Ok(0);
        }
        let s = 64 - (m - 1).leading_zeros();
        let thresh = (1u64 << (s - 1)).wrapping_mul(2).wrapping_sub(m);
        let short = self.read_split(s - 1)?;
        if short < thresh {
            Ok(short)
        } else {
            let last = self.read_bits(1)?;
            Ok(((short << 1) | last).wrapping_sub(thresh))
        }
    }

    fn read_split(&mut self, width: u32) -> Result<u64, CodecError> {
        if width > MAX_WIDTH {
            let hi = self.read_bits(width - MAX_WIDTH)?;
            let lo = self.read_bits(MAX_WIDTH)?;
            Ok((hi << MAX_WIDTH) | lo)
        } else {
            self.read_bits(width)
        }
    }
}

// ------------------------------------------------------------------ gaps

fn gaps_read_deltas(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    ids: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let mut prev = 0i64;
    for _ in 0..count {
        let id = prev
            .checked_add(unzigzag(read_u64(buf, pos)?))
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(CodecError::Corrupt("delta-coded id out of range"))?;
        ids.push(id);
        prev = i64::from(id);
    }
    Ok(())
}

fn gaps_read_packed(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    vals: &mut Vec<u32>,
) -> Result<(), CodecError> {
    if count == 0 {
        return Ok(());
    }
    let min = u32::try_from(read_u64(buf, pos)?)
        .map_err(|_| CodecError::Corrupt("packed column min out of range"))?;
    let width = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    if width > 32 {
        return Err(CodecError::Corrupt("packed column width > 32"));
    }
    if width == 0 {
        vals.resize(vals.len() + count, min);
        return Ok(());
    }
    let mut acc = 0u64;
    let mut nbits = 0u32;
    let mask = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    for _ in 0..count {
        while nbits < u32::from(width) {
            let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
            *pos += 1;
            acc |= u64::from(b) << nbits;
            nbits += 8;
        }
        let delta = (acc & mask) as u32;
        acc >>= width;
        nbits -= u32::from(width);
        let v = min
            .checked_add(delta)
            .ok_or(CodecError::Corrupt("packed column value overflows u32"))?;
        vals.push(v);
    }
    Ok(())
}

fn gaps_decode_fragments(coded: &[u8], cols: &mut FragmentColumns) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let nfrags = read_u64(coded, &mut pos)? as usize;
    gaps_read_deltas(coded, &mut pos, nfrags, &mut cols.svertices)?;
    let mut total_edges = 0usize;
    for _ in 0..nfrags {
        let c = u32::try_from(read_u64(coded, &mut pos)?)
            .map_err(|_| CodecError::Corrupt("fragment count out of range"))?;
        total_edges += c as usize;
        cols.ends.push(total_edges);
    }
    for k in 0..nfrags {
        gaps_read_deltas(coded, &mut pos, cols.span(k).len(), &mut cols.ids)?;
    }
    gaps_read_packed(coded, &mut pos, total_edges, &mut cols.weights)
}

fn gaps_decode_edges(coded: &[u8], cols: &mut FragmentColumns) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let count = read_u64(coded, &mut pos)? as usize;
    gaps_read_deltas(coded, &mut pos, count, &mut cols.ids)?;
    gaps_read_packed(coded, &mut pos, count, &mut cols.weights)
}

// -------------------------------------------------------------------- bv

fn bv_unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn read_first(r: &mut AccReader<'_>, anchor: Option<u32>) -> Result<u32, CodecError> {
    let z = r.read_delta()?;
    let v = match anchor {
        None => i128::from(z),
        Some(a) => i128::from(a) + i128::from(bv_unzigzag(z)),
    };
    u32::try_from(v).map_err(|_| CodecError::Corrupt("bv first id out of range"))
}

#[derive(Default)]
struct ListScratch {
    copied: Vec<u32>,
    intervals: Vec<(u32, u32)>,
    residuals: Vec<u32>,
}

const DONE: u64 = u64::MAX;

fn head(v: &[u32], i: usize) -> u64 {
    v.get(i).map_or(DONE, |&x| u64::from(x))
}

fn interval_head(v: &[(u32, u32)], i: usize) -> u64 {
    v.get(i).map_or(DONE, |&(left, _)| u64::from(left))
}

/// The list `back` positions before the current one.
fn window_back<'a>(ids: &'a [u32], ends: &[usize], back: usize) -> &'a [u32] {
    let t = ends.len() - back;
    let start = if t == 0 { 0 } else { ends[t - 1] };
    &ids[start..ends[t]]
}

fn read_list(
    r: &mut AccReader<'_>,
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
        let rl = window_back(ids, prev_ends, back);
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
        ids.extend_from_slice(&s.residuals);
        return Ok(());
    }
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

fn read_weights(
    r: &mut AccReader<'_>,
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

fn bv_decode_fragments(
    coded: &[u8],
    cols: &mut FragmentColumns,
    max_edges: usize,
) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let nfrags = read_u64(coded, &mut pos)? as usize;
    let mut r = AccReader::new(&coded[pos..]);
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
    let mut s = ListScratch::default();
    let mut anchor: Option<u32> = None;
    for k in 0..nfrags {
        let (start, count) = (cols.ids.len(), cols.span(k).len());
        read_list(
            &mut r,
            count,
            &mut cols.ids,
            &cols.ends[..k],
            anchor,
            &mut s,
        )?;
        if count > 0 {
            anchor = Some(cols.ids[start]);
        }
    }
    read_weights(&mut r, total_edges, &mut cols.weights)
}

fn bv_decode_edges(
    coded: &[u8],
    cols: &mut FragmentColumns,
    max_edges: usize,
) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let count = read_u64(coded, &mut pos)? as usize;
    if count > max_edges {
        return Err(CodecError::Corrupt("bv edge count exceeds the extent"));
    }
    let mut r = AccReader::new(&coded[pos..]);
    read_list(
        &mut r,
        count,
        &mut cols.ids,
        &[],
        None,
        &mut ListScratch::default(),
    )?;
    read_weights(&mut r, count, &mut cols.weights)
}

/// [`crate::decode_columns`] through the decoders above.
pub(crate) fn decode_columns(
    kind: ExtentKind,
    coded: &[u8],
    logical_len: usize,
    cols: &mut FragmentColumns,
) -> Result<(), CodecError> {
    let (&tag, body) = coded.split_first().ok_or(CodecError::Truncated)?;
    cols.clear();
    match (tag, kind) {
        (TAG_RAW, kind) => {
            check_len(logical_len, body.len())?;
            cols.parse(kind, body)?;
        }
        (TAG_GAPS, ExtentKind::Fragments) => gaps_decode_fragments(body, cols)?,
        (TAG_GAPS, ExtentKind::Edges) => gaps_decode_edges(body, cols)?,
        (TAG_BV, ExtentKind::Fragments) => bv_decode_fragments(body, cols, logical_len / 8)?,
        (TAG_BV, ExtentKind::Edges) => bv_decode_edges(body, cols, logical_len / 8)?,
        _ => return Err(CodecError::Corrupt("unknown extent tag")),
    }
    check_len(logical_len, cols.raw_len())
}

mod tests {
    use super::*;
    use crate::bits::{BitReader, BitWriter};
    use crate::{CodecChoice, ExtentEncoder};

    /// SplitMix64, the repo-wide seeded generator.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Holds [`crate::decode_columns`] to the oracle on one stored extent:
    /// the same result, error and all, and on `Ok` the same columns.
    /// Returns whether it decoded.
    fn agree(kind: ExtentKind, coded: &[u8], logical_len: usize, what: &str) -> bool {
        let (mut new, mut old) = (FragmentColumns::default(), FragmentColumns::default());
        let got = crate::decode_columns(kind, coded, logical_len, &mut new);
        let want = decode_columns(kind, coded, logical_len, &mut old);
        assert_eq!(got, want, "{what}");
        if got.is_ok() {
            let columns = |c: &FragmentColumns| {
                (
                    c.svertices.clone(),
                    c.ends.clone(),
                    c.ids.clone(),
                    c.weights.clone(),
                )
            };
            assert_eq!(columns(&new), columns(&old), "{what}");
        }
        got.is_ok()
    }

    /// `cols` stored as `kind` under each coded tier.
    fn bodies(kind: ExtentKind, cols: &FragmentColumns) -> Vec<(CodecChoice, Vec<u8>)> {
        let mut enc = ExtentEncoder::default();
        [CodecChoice::Gaps, CodecChoice::Bv]
            .map(|choice| (choice, enc.encode_columns(choice, kind, cols).to_vec()))
            .into()
    }

    /// Seeded columns of `kind`: sorted lists mixing duplicates,
    /// consecutive runs and jumps, lists that repeat earlier ones (copy
    /// references), and weights that are equal, narrow or random bits.
    fn seeded_columns(s: &mut u64, kind: ExtentKind) -> FragmentColumns {
        let mut c = FragmentColumns::default();
        let nlists = if kind == ExtentKind::Edges {
            1
        } else {
            (mix(*s) % 12) as usize
        };
        let mut sv = (mix(*s ^ 1) % 100) as u32;
        let weights = mix(*s ^ 2) % 3;
        for l in 0..nlists {
            *s = mix(*s ^ l as u64);
            let start = c.ids.len();
            if l > 0 && s.is_multiple_of(3) {
                // An earlier list again, a few ids dropped or added.
                let back = c.span(c.len() - 1 - (*s >> 8) as usize % c.len());
                let mut ids: Vec<u32> = c.ids[back].to_vec();
                ids.retain(|&id| !mix(*s ^ u64::from(id)).is_multiple_of(5));
                ids.push(ids.last().map_or(0, |&id| id.saturating_add(1)));
                c.ids.extend(ids);
            } else {
                let mut cur = (*s >> 16) as u32 % 10_000;
                for e in 0..(*s >> 8) % 70 {
                    *s = mix(*s ^ e);
                    cur += match *s % 5 {
                        0 => 0,
                        1..=3 => 1,
                        _ => (*s >> 8) as u32 % 1000,
                    };
                    c.ids.push(cur);
                }
            }
            for _ in start..c.ids.len() {
                *s = mix(*s);
                c.weights.push(match weights {
                    0 => 0x3f80_0000,
                    1 => 0x4000_0000 + (*s as u32 & 0xfff),
                    _ => *s as u32,
                });
            }
            if kind == ExtentKind::Fragments {
                sv += 1 + (*s % 50) as u32;
                c.svertices.push(sv);
                c.ends.push(c.ids.len());
            }
        }
        c
    }

    #[test]
    fn decoders_agree_with_the_oracle_on_seeded_bodies() {
        for seed in [3u64, 1776, 0xfeed_f00d] {
            let mut s = seed;
            for case in 0..80 {
                for kind in [ExtentKind::Fragments, ExtentKind::Edges] {
                    let cols = seeded_columns(&mut s, kind);
                    for (choice, body) in bodies(kind, &cols) {
                        let what = format!("seed {seed} case {case} {kind:?} {choice}");
                        assert!(agree(kind, &body, cols.raw_len(), &what), "{what}");
                    }
                }
            }
            // Random bodies behind each coded tag.
            for case in 0..400u64 {
                s = mix(s ^ case);
                let mut body = vec![[TAG_GAPS, TAG_BV][(s % 2) as usize]];
                body.extend((0..s >> 8 & 0xff).map(|i| mix(s ^ i) as u8));
                for kind in [ExtentKind::Fragments, ExtentKind::Edges] {
                    agree(kind, &body, 8 * (s >> 16 & 0x3ff) as usize, "random body");
                }
            }
        }
    }

    #[test]
    fn decoders_agree_under_every_bit_flip_and_every_cut() {
        let mut s = 0x5eed;
        for case in 0..12 {
            for kind in [ExtentKind::Fragments, ExtentKind::Edges] {
                let cols = seeded_columns(&mut s, kind);
                for (choice, body) in bodies(kind, &cols) {
                    let what = format!("case {case} {kind:?} {choice}");
                    for bit in 8..body.len() * 8 {
                        let mut flipped = body.clone();
                        flipped[bit / 8] ^= 1 << (bit % 8);
                        agree(
                            kind,
                            &flipped,
                            cols.raw_len(),
                            &format!("{what} flip {bit}"),
                        );
                    }
                    for cut in 0..body.len() {
                        agree(
                            kind,
                            &body[..cut],
                            cols.raw_len(),
                            &format!("{what} cut {cut}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn codes_ending_in_the_last_bytes_read_alike() {
        // Each code after every lead-in of 0..64 bits, followed by 0..=8
        // bytes, and cut at every byte: the position reader returns what
        // the accumulator reader returns, value or error, read after read.
        let mut vals: Vec<u64> = (0..40).collect();
        for p in [6, 8, 9, 12, 13, 20, 28, 29, 40, 56, 57, 63] {
            vals.extend([(1u64 << p) - 2, (1u64 << p) - 1, 1u64 << p]);
        }
        vals.push(u64::MAX - 1);
        for lead in 0..64u32 {
            for &v in &vals {
                for code in 0..5 {
                    let mut w = BitWriter::new();
                    // `width` seeded bits.
                    let junk = |x: u64, width: u32| mix(x) >> 1 >> (63 - width);
                    w.write_bits(junk(u64::from(lead), lead.min(32)), lead.min(32));
                    w.write_bits(junk(v, lead.saturating_sub(32)), lead.saturating_sub(32));
                    match code {
                        0 => w.write_gamma(v),
                        1 => w.write_delta(v),
                        2 => w.write_zeta(v, 3),
                        3 => w.write_zeta(v, 1),
                        _ => w.write_bits(v & ((1 << 57) - 1), 57),
                    }
                    let mut bytes = w.finish();
                    let whole = bytes.len();
                    bytes.extend((0..8).map(|i| mix(v ^ i) as u8));
                    for end in (0..=whole).chain(whole + 1..=whole + 8) {
                        let data = &bytes[..end];
                        let (mut new, mut old) = (BitReader::new(data), AccReader::new(data));
                        let mut lead_in = true;
                        for width in [lead.min(32), lead.saturating_sub(32)] {
                            let got = new.read_bits(width);
                            assert_eq!(got, old.read_bits(width));
                            lead_in &= got.is_ok();
                        }
                        let (got, want) = match code {
                            0 => (new.read_gamma(), old.read_gamma()),
                            1 => (new.read_delta(), old.read_delta()),
                            2 => (new.read_zeta(3), old.read_zeta(3)),
                            3 => (new.read_zeta(1), old.read_zeta(1)),
                            _ => (new.read_bits(57), old.read_bits(57)),
                        };
                        assert_eq!(got, want, "lead {lead} value {v} code {code} end {end}");
                        if lead_in {
                            assert_eq!(
                                got.is_ok(),
                                end >= whole,
                                "lead {lead} value {v} code {code}"
                            );
                        }
                        assert_eq!(new.read_bits(7), old.read_bits(7), "after the code");
                    }
                }
            }
        }
    }

    /// The Eblocks VeBlockStore builds for an ample-memory b-pull job on
    /// the LiveJ stand-in at `1/denom`, generator seed XOR `seed`: two
    /// workers, one Vblock each.
    fn livej_eblocks(seed: u64, denom: usize) -> Vec<FragmentColumns> {
        use hybridgraph_graph::{BlockLayout, Dataset, Partition};
        let mut spec = Dataset::LiveJ.spec();
        spec.seed ^= seed;
        let g = spec.build(denom);
        let layout = BlockLayout::uniform(&Partition::range(g.num_vertices(), 2), 1);
        let blocks = layout.num_blocks();
        let mut eblocks: Vec<FragmentColumns> = Vec::new();
        eblocks.resize_with(blocks * blocks, FragmentColumns::default);
        for v in g.vertices() {
            let j = layout.block_of(v).index();
            for e in g.out_edges(v) {
                let f = &mut eblocks[j * blocks + layout.block_of(e.dst).index()];
                if f.svertices.last() != Some(&v.0) {
                    f.svertices.push(v.0);
                    f.ends.push(f.ids.len());
                }
                f.ids.push(e.dst.0);
                f.weights.push(e.weight.to_bits());
                *f.ends.last_mut().expect("pushed") = f.ids.len();
            }
        }
        eblocks
    }

    #[test]
    fn decoders_agree_on_the_livej_eblocks() {
        for seed in 1..=3u64 {
            for (i, f) in livej_eblocks(seed, 2_000).iter().enumerate() {
                for (choice, body) in bodies(ExtentKind::Fragments, f) {
                    let what = format!("livej seed {seed} eblock {i} {choice}");
                    assert!(agree(ExtentKind::Fragments, &body, f.raw_len(), &what));
                }
            }
        }
    }

    /// The decode probe: the four Eblocks of LiveJ at 1/200 (seed 1, 340 k
    /// edges, one b-pull superstep's scan), decoded by the oracle and by
    /// [`crate::decode_columns`] in alternation, best of 60 each. Run it
    /// with `cargo test --release -p hybridgraph-codec probe_decode_speed
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing probe, not a check"]
    fn probe_decode_speed() {
        use std::time::Instant;
        let eblocks = livej_eblocks(1, 200);
        for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
            let mut enc = ExtentEncoder::default();
            let kind = ExtentKind::Fragments;
            let coded: Vec<(Vec<u8>, usize)> = eblocks
                .iter()
                .map(|f| (enc.encode_columns(choice, kind, f).to_vec(), f.raw_len()))
                .collect();
            let mut cols = FragmentColumns::default();
            let mut time = |decode: fn(ExtentKind, &[u8], usize, &mut FragmentColumns) -> _| {
                let t = Instant::now();
                for (body, len) in &coded {
                    let r: Result<(), CodecError> = decode(kind, body, *len, &mut cols);
                    r.expect("decodes");
                }
                t.elapsed().as_secs_f64() * 1e3
            };
            let (mut old, mut new) = (f64::MAX, f64::MAX);
            for _ in 0..60 {
                old = old.min(time(decode_columns));
                new = new.min(time(crate::decode_columns));
            }
            println!("{choice}: {old:.3} ms -> {new:.3} ms ({:.2}x)", old / new);
        }
    }

    #[test]
    fn a_column_whose_width_reaches_past_u32_max_still_decodes() {
        // min + 2^width − 1 overflows u32 though every stored value fits:
        // the bulk reads must fall back to checking each value.
        for weights in [
            vec![u32::MAX - 5, u32::MAX],
            vec![u32::MAX - 1; 3],
            vec![u32::MAX - 9, u32::MAX - 8],
        ] {
            let cols = FragmentColumns {
                ids: (0..weights.len() as u32).collect(),
                weights: weights.clone(),
                ..FragmentColumns::default()
            };
            for (choice, body) in bodies(ExtentKind::Edges, &cols) {
                assert!(agree(
                    ExtentKind::Edges,
                    &body,
                    cols.raw_len(),
                    &format!("{choice}")
                ));
                let mut back = FragmentColumns::default();
                crate::decode_columns(ExtentKind::Edges, &body, cols.raw_len(), &mut back)
                    .expect("decodes");
                assert_eq!(back.weights, weights, "{choice}");
            }
        }
    }
}
