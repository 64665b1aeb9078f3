//! MSB-first bit streams and instantaneous integer codes.
//!
//! The gap codec in [`crate::gaps`] is byte-aligned: every gap costs at
//! least 8 bits. The BV tier needs the WebGraph code toolbox — unary,
//! Elias γ/δ, ζ_k and minimal-binary — all of which pack values into a
//! few *bits*, so this module provides an MSB-first [`BitWriter`] /
//! [`BitReader`] pair plus the codes themselves. Streams are padded
//! with zero bits to a byte boundary on [`BitWriter::finish`], and every
//! read checks for overrun so torn extents surface as
//! [`CodecError::Truncated`] rather than garbage.

use crate::CodecError;

/// Largest width accepted by [`BitWriter::write_bits`] /
/// [`BitReader::read_bits`] in one call. 64-bit values are written as
/// two chunks by the code layers that need them.
pub const MAX_WIDTH: u32 = 57;

/// Appends bits MSB-first into a byte buffer.
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, zero above them, written out a whole word at a time.
    acc: u64,
    /// Number of pending bits held in the low end of `acc` (0..=64).
    n: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends after the bytes already in `buf`, so a
    /// caller can write a header and then a bit stream into one buffer
    /// that it keeps across streams.
    pub(crate) fn from_vec(buf: Vec<u8>) -> Self {
        BitWriter { buf, acc: 0, n: 0 }
    }

    /// Number of bits written so far (before padding).
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.n as u64
    }

    /// Writes the low `width` bits of `value`, most significant first.
    /// `width` must be ≤ [`MAX_WIDTH`]; `value` must fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= MAX_WIDTH, "width {width} > {MAX_WIDTH}");
        debug_assert!(value >> width == 0, "value overflows width");
        if self.n + width <= 64 {
            self.acc = (self.acc << width) | value;
            self.n += width;
        } else {
            // Fill the word, write it, keep the bits that spill over.
            let spill = self.n + width - 64;
            let word = (self.acc << (64 - self.n)) | (value >> spill);
            self.buf.extend_from_slice(&word.to_be_bytes());
            self.acc = value & ((1u64 << spill) - 1);
            self.n = spill;
        }
    }

    /// Unary code: `n` zero bits followed by a one.
    fn write_unary(&mut self, mut n: u64) {
        while n >= 32 {
            self.write_bits(0, 32);
            n -= 32;
        }
        self.write_bits(1, n as u32 + 1);
    }

    /// Elias γ: unary exponent then the mantissa of `n + 1`.
    pub fn write_gamma(&mut self, n: u64) {
        let v = n + 1;
        let b = 63 - v.leading_zeros();
        if 2 * b < MAX_WIDTH {
            // `b` zeros, then `v`'s `b + 1` bits: `v` itself in `2b + 1`.
            self.write_bits(v, 2 * b + 1);
        } else {
            self.write_unary(b as u64);
            self.write_split(v & ((1u64 << b) - 1), b);
        }
    }

    /// Elias δ: γ-coded exponent then the mantissa of `n + 1`.
    pub fn write_delta(&mut self, n: u64) {
        let v = n + 1;
        let b = 63 - v.leading_zeros();
        let mantissa = v & ((1u64 << b) - 1);
        let e = 63 - (u64::from(b) + 1).leading_zeros();
        if 2 * e + 1 + b <= MAX_WIDTH {
            // γ(b) is `b + 1` in `2e + 1` bits; the mantissa follows.
            self.write_bits(((u64::from(b) + 1) << b) | mantissa, 2 * e + 1 + b);
        } else {
            self.write_gamma(b as u64);
            self.write_split(mantissa, b);
        }
    }

    /// ζ_k (Boldi–Vigna): unary shard index, then minimal-binary offset
    /// within the shard `[2^{hk}-1, 2^{(h+1)k}-1)`. Tuned for the
    /// power-law gap distributions of web/social adjacency.
    pub fn write_zeta(&mut self, n: u64, k: u32) {
        debug_assert!((1..=20).contains(&k));
        let v = n + 1;
        let h = (63 - v.leading_zeros()) / k;
        let base = 1u64 << (h * k);
        let span = if (h + 1) * k >= 64 {
            u64::MAX - base + 1
        } else {
            (base << k) - base
        };
        let (x, width) = minimal_binary(v - base, span);
        if h + 1 + width <= MAX_WIDTH {
            // The unary index ends in a one, just above the offset.
            self.write_bits((1 << width) | x, h + 1 + width);
        } else {
            self.write_unary(h as u64);
            self.write_split(x, width);
        }
    }

    /// Minimal binary code of `x` in `[0, m)`: the first `2^s - m`
    /// values use `s-1` bits, the rest use `s` bits, `s = ⌈log2 m⌉`.
    pub fn write_minimal_binary(&mut self, x: u64, m: u64) {
        let (value, width) = minimal_binary(x, m);
        self.write_split(value, width);
    }

    /// Writes up to 64 bits by splitting into `MAX_WIDTH`-sized chunks.
    fn write_split(&mut self, value: u64, width: u32) {
        if width > MAX_WIDTH {
            self.write_bits(value >> MAX_WIDTH, width - MAX_WIDTH);
            self.write_bits(value & ((1u64 << MAX_WIDTH) - 1), MAX_WIDTH);
        } else {
            self.write_bits(value, width);
        }
    }

    /// Pads to a byte boundary with zero bits and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.n > 0 {
            let top = (self.acc << (64 - self.n)).to_be_bytes();
            self.buf
                .extend_from_slice(&top[..self.n.div_ceil(8) as usize]);
        }
        self.buf
    }
}

/// The bits and width [`BitWriter::write_minimal_binary`] writes for `x`
/// in `[0, m)`.
fn minimal_binary(x: u64, m: u64) -> (u64, u32) {
    debug_assert!(m >= 1 && x < m);
    if m == 1 {
        return (0, 0);
    }
    let s = 64 - (m - 1).leading_zeros();
    // s can be 64 for huge universes; 2^64 - m wraps to the right
    // threshold in u64 arithmetic.
    let thresh = (1u64 << (s - 1)).wrapping_mul(2).wrapping_sub(m);
    if x < thresh {
        (x, s - 1)
    } else {
        (x.wrapping_add(thresh), s)
    }
}

/// Reads bits MSB-first from a byte slice, erroring on overrun.
///
/// The next `n` stream bits sit left-aligned at the top of `acc`. A refill
/// loads one big-endian word while eight bytes remain — after it `n` is at
/// least [`MAX_WIDTH`], so any single read needs at most one — and falls
/// back to single bytes in the last seven.
pub struct BitReader<'a> {
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

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
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
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
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
    pub fn read_gamma(&mut self) -> Result<u64, CodecError> {
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
    pub fn read_delta(&mut self) -> Result<u64, CodecError> {
        let b = self.read_gamma()?;
        if b > 63 {
            return Err(CodecError::Corrupt("delta exponent out of range"));
        }
        let mantissa = self.read_split(b as u32)?;
        Ok(((1u64 << b) | mantissa) - 1)
    }

    #[inline]
    pub fn read_zeta(&mut self, k: u32) -> Result<u64, CodecError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::{read_u64, write_u64};

    /// SplitMix64, the repo-wide seeded generator.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn raw_bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0x7fff, 15);
        w.write_bits(0, 1);
        w.write_bits(0x1234_5678_9abc, 48);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(15).unwrap(), 0x7fff);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(48).unwrap(), 0x1234_5678_9abc);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // 1000_0000 …
        w.write_bits(0b0110, 4);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1011_0000]);
    }

    #[test]
    fn codes_roundtrip_small_and_boundaries() {
        let mut vals: Vec<u64> = (0..200).collect();
        for p in 1..57 {
            vals.push((1u64 << p) - 2);
            vals.push((1u64 << p) - 1);
            vals.push(1u64 << p);
        }
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_unary(v.min(1000));
            w.write_gamma(v);
            w.write_delta(v);
            w.write_zeta(v, 3);
            w.write_zeta(v, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_unary().unwrap(), v.min(1000), "unary {v}");
            assert_eq!(r.read_gamma().unwrap(), v, "gamma {v}");
            assert_eq!(r.read_delta().unwrap(), v, "delta {v}");
            assert_eq!(r.read_zeta(3).unwrap(), v, "zeta3 {v}");
            assert_eq!(r.read_zeta(1).unwrap(), v, "zeta1 {v}");
        }
    }

    #[test]
    fn minimal_binary_exhaustive_small_universes() {
        for m in 1..=70u64 {
            let mut w = BitWriter::new();
            for x in 0..m {
                w.write_minimal_binary(x, m);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for x in 0..m {
                assert_eq!(r.read_minimal_binary(m).unwrap(), x, "m={m}");
            }
        }
    }

    #[test]
    fn seeded_property_roundtrip() {
        // Print the seed so a CI failure names its reproduction input.
        for seed in [3u64, 1776, 0xfeed_f00d] {
            println!("bits property seed {seed}");
            let mut s = seed;
            let mut vals = Vec::new();
            for i in 0..4000u64 {
                s = mix(s ^ i);
                // Mix magnitudes: mostly small (gap-like), some huge.
                let v = match s % 4 {
                    0 => s % 16,
                    1 => s % 4096,
                    2 => s % (1 << 30),
                    _ => s >> 3,
                };
                vals.push(v);
            }
            let mut w = BitWriter::new();
            for (i, &v) in vals.iter().enumerate() {
                match i % 4 {
                    0 => w.write_gamma(v),
                    1 => w.write_delta(v),
                    2 => w.write_zeta(v, 3),
                    _ => w.write_zeta(v, 4),
                }
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for (i, &v) in vals.iter().enumerate() {
                let got = match i % 4 {
                    0 => r.read_gamma(),
                    1 => r.read_delta(),
                    2 => r.read_zeta(3),
                    _ => r.read_zeta(4),
                }
                .unwrap();
                assert_eq!(got, v, "seed {seed} index {i}");
            }
        }
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let mut w = BitWriter::new();
        for v in 0..64u64 {
            w.write_delta(v * 1000);
        }
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = BitReader::new(&bytes[..cut]);
            let mut fine = 0;
            while let Ok(v) = r.read_delta() {
                // Values decoded before the cut must be correct.
                assert_eq!(v, fine * 1000);
                fine += 1;
                if fine == 64 {
                    break;
                }
            }
        }
    }

    /// The reference reader: `width` stream bits from bit `at`, MSB first;
    /// `None` if the stream ends first.
    fn reference(data: &[u8], at: usize, width: u32) -> Option<u64> {
        let bit = |i: usize| u64::from(data[i / 8] >> (7 - i % 8) & 1);
        (at + width as usize <= data.len() * 8)
            .then(|| (at..at + width as usize).fold(0, |v, i| v << 1 | bit(i)))
    }

    #[test]
    fn reads_of_every_width_at_every_alignment_cross_the_refill() {
        // Three refill words; every read from 0..=80 bits in straddles the
        // first 8-byte boundary at some width. The lead-in is read in
        // steps of varying size so the reader arrives with every fill.
        let data: Vec<u8> = (0..24u64).map(|i| mix(i) as u8).collect();
        for lead in 0..=80usize {
            for width in 1..=MAX_WIDTH {
                let mut r = BitReader::new(&data);
                let mut at = 0;
                while at < lead {
                    let step = (lead - at).min(1 + at % 13);
                    r.read_bits(step as u32).unwrap();
                    at += step;
                }
                let want = reference(&data, lead, width).unwrap();
                assert_eq!(r.read_bits(width), Ok(want), "lead {lead} width {width}");
                let next = reference(&data, lead + width as usize, 7).unwrap();
                assert_eq!(r.read_bits(7), Ok(next), "after lead {lead} width {width}");
            }
        }
    }

    #[test]
    fn short_streams_cut_at_every_length() {
        // Streams of 0..=17 bytes — the byte-wise tail alone, one word,
        // word plus tail, two words — read in widths cycling through
        // 1..=57 from every start width: each read is the reference bits
        // until they run out, and then exactly `Truncated`.
        let full: Vec<u8> = (0..17u64).map(|i| mix(i ^ 0xb1) as u8).collect();
        for len in 0..=full.len() {
            let data = &full[..len];
            for first in 1..=MAX_WIDTH {
                let mut r = BitReader::new(data);
                let (mut at, mut width) = (0usize, first);
                while let Some(want) = reference(data, at, width) {
                    assert_eq!(r.read_bits(width), Ok(want), "len {len} at {at} w {width}");
                    at += width as usize;
                    width = width % MAX_WIDTH + 1;
                }
                assert_eq!(r.read_bits(width), Err(CodecError::Truncated), "len {len}");
            }
        }
        // The codes' fast paths too: a γ/δ/ζ₃ stream cut at every byte
        // decodes exactly a prefix of its values, then errs.
        let vals: Vec<u64> = (0..40u64).map(|i| mix(i) % (1 << (i % 14))).collect();
        let mut w = BitWriter::new();
        for (i, &v) in vals.iter().enumerate() {
            match i % 3 {
                0 => w.write_gamma(v),
                1 => w.write_delta(v),
                _ => w.write_zeta(v, 3),
            }
        }
        let bytes = w.finish();
        for cut in 0..=bytes.len() {
            let mut r = BitReader::new(&bytes[..cut]);
            let mut decoded = 0;
            for (i, &v) in vals.iter().enumerate() {
                let got = match i % 3 {
                    0 => r.read_gamma(),
                    1 => r.read_delta(),
                    _ => r.read_zeta(3),
                };
                let Ok(got) = got else { break };
                assert_eq!(got, v, "cut {cut} value {i}");
                decoded += 1;
            }
            // The last byte holds code bits, so any cut loses a value.
            assert_eq!(decoded == vals.len(), cut == bytes.len(), "cut {cut}");
        }
    }

    #[test]
    fn gamma_beats_bytes_on_small_gaps() {
        // The whole point of the tier: a gap of 1 costs 1 bit, not 8.
        let mut w = BitWriter::new();
        for _ in 0..1000 {
            w.write_gamma(0);
        }
        assert_eq!(w.finish().len(), 125);
    }

    #[test]
    fn interops_with_byte_aligned_varints() {
        // BV bodies start with a byte-aligned varint header; make sure
        // the two layers compose on the same buffer.
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        let mut w = BitWriter::new();
        w.write_gamma(41);
        buf.extend(w.finish());
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 300);
        let mut r = BitReader::new(&buf[pos..]);
        assert_eq!(r.read_gamma().unwrap(), 41);
    }
}
