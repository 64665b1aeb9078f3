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
//!
//! Decoding is at word speed, as in Boldi and Vigna's WebGraph reader:
//!
//! * *A position reader.* [`BitReader`] is a bit position. A read peeks
//!   the 64 bits at byte `pos / 8` shifted by `pos % 8` — at least
//!   [`MAX_WIDTH`] stream bits, zeros past the end — and decodes its code
//!   from that one word, with no refill branch per code.
//! * *A ζ₃ table.* ζ₃ codes of up to 12 bits — 97 % of a LiveJ-like
//!   graph's residual gaps — decode in one lookup in a 4,096-entry table
//!   built at compile time from the code parts [`BitWriter`] writes, and
//!   a run of residual gaps takes several codes from one peek. γ and δ
//!   codes, and longer ζ codes, decode from the word's leading zeros, or
//!   through a unary count that may span words. (γ and δ tables of the
//!   same size decoded the LiveJ Eblocks 0–3 % slower than the leading
//!   zeros alone, so there are none.)
//! * *One check per column.* A weight column of `count` values of
//!   `width` bits is checked against the bits left once, then read
//!   without a check per value.
//!
//! Why each check still holds: a read uses a code only after checking
//! that the stream holds all of its bits, so the zeros a peek holds past
//! the end are never read as code and every overrun is `Truncated`. A read
//! that errs may have moved the position (a unary count, a split read, a
//! run of ζ₃ codes), so any error ends the decode — except a failed
//! `BitReader::read_column`, which reads nothing: it checks
//! `count · width` (overflow-checked) against the bits left before it
//! reads any value, and where that fails, or where `min + 2^width − 1`
//! could overflow `u32`, the caller reads value by value with the
//! per-value check. The accumulator reader these replaced is kept,
//! test-only, in `oracle.rs`; the differential tests there hold every
//! read and every extent decode to it, value or error.

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
        let (h, x, width) = zeta_parts(n, k);
        if h + 1 + width <= MAX_WIDTH {
            // The unary index ends in a one, just above the offset.
            self.write_bits((1 << width) | x, h + 1 + width);
        } else {
            self.write_unary(u64::from(h));
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

/// `n`'s ζ_k code in parts: the shard `h`, written in unary, and the
/// minimal-binary offset `x` in the shard, `width` bits.
const fn zeta_parts(n: u64, k: u32) -> (u32, u64, u32) {
    let v = n + 1;
    let h = (63 - v.leading_zeros()) / k;
    let base = 1u64 << (h * k);
    let span = if (h + 1) * k >= 64 {
        u64::MAX - base + 1
    } else {
        (base << k) - base
    };
    let (x, width) = minimal_binary(v - base, span);
    (h, x, width)
}

/// The bits and width [`BitWriter::write_minimal_binary`] writes for `x`
/// in `[0, m)`.
const fn minimal_binary(x: u64, m: u64) -> (u64, u32) {
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

/// Bits the [`ZETA3`] table indexes: ζ₃ codes of up to this many bits
/// decode in one lookup.
const TABLE_BITS: u32 = 12;

/// A ζ₃ decoding table: entry `p` is `n << 4 | len` for the value `n`
/// whose code, `len` bits, the `TABLE_BITS`-bit prefix `p` of the stream
/// starts with, or 0 where that code is longer than `TABLE_BITS` bits.
/// It is built at compile time from the code parts [`BitWriter::write_zeta`]
/// writes (`zeta_parts`), so it cannot disagree with what the writer wrote.
struct CodeTable([u16; 1 << TABLE_BITS]);

impl CodeTable {
    const fn zeta3() -> CodeTable {
        let mut t = [0u16; 1 << TABLE_BITS];
        // Every code of ≤ TABLE_BITS bits stands for a value below
        // 2^TABLE_BITS, and no code is a prefix of another, so each entry
        // is filled at most once.
        let mut n = 0u64;
        while n < 1 << TABLE_BITS {
            let (h, x, width) = zeta_parts(n, 3);
            let (code, len) = ((1 << width) | x, h + 1 + width);
            if len <= TABLE_BITS {
                let first = (code << (TABLE_BITS - len)) as usize;
                let mut p = first;
                while p < first + (1 << (TABLE_BITS - len)) {
                    t[p] = ((n << 4) | len as u64) as u16;
                    p += 1;
                }
            }
            n += 1;
        }
        CodeTable(t)
    }
}

static ZETA3: CodeTable = CodeTable::zeta3();

/// The 64 bits of `data` from bit `pos` on, MSB first, zeros past the
/// end: the big-endian word at byte `pos / 8` shifted left by `pos % 8`,
/// so at least `min(MAX_WIDTH, bits left)` of them are stream bits.
#[inline]
fn peek_at(data: &[u8], pos: usize) -> u64 {
    let byte = pos >> 3;
    let word = match data.get(byte..byte + 8) {
        Some(w) => u64::from_be_bytes(w.try_into().expect("eight bytes")),
        None => tail_word(data, byte),
    };
    word << (pos & 7)
}

/// The last bytes of `data` from `byte` on, fewer than eight, as the top
/// of a word.
#[cold]
fn tail_word(data: &[u8], byte: usize) -> u64 {
    let rest = data.get(byte..).unwrap_or_default();
    let mut word = [0u8; 8];
    word[..rest.len()].copy_from_slice(rest);
    u64::from_be_bytes(word)
}

/// Reads bits MSB-first from a byte slice, erroring on overrun.
///
/// The reader is a bit position. Each read peeks the 64 stream bits from
/// it — the big-endian word at byte `pos / 8` shifted left by `pos % 8`,
/// so at least [`MAX_WIDTH`] of them are stream bits — and decodes a code
/// of up to [`MAX_WIDTH`] bits from that one word; ζ₃ codes of up to 12
/// bits, most of a list's residual gaps, take one table lookup. A read
/// first checks that its code ends inside the stream, so every overrun is
/// [`CodecError::Truncated`] before any bit is used; the bits a peek holds
/// past the end are zeros and are never read as code. Longer codes fall
/// back to a unary count that may span many words. After an error the
/// position is unspecified, save after a failed
/// `read_column`, which reads nothing.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Stream position of the next bit to read, `0..=end`.
    pos: usize,
    /// Stream length in bits.
    end: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            // A slice holds at most isize::MAX bytes.
            end: data.len().saturating_mul(8),
        }
    }

    /// Stream bits not read yet.
    #[inline]
    fn left(&self) -> usize {
        self.end - self.pos
    }

    /// The 64 stream bits from the read position: see [`peek_at`].
    #[inline]
    fn peek(&self) -> u64 {
        peek_at(self.data, self.pos)
    }

    /// Moves past a code of `len` bits if the stream holds them.
    #[inline]
    fn take(&mut self, len: u32) -> Result<(), CodecError> {
        if len as usize > self.left() {
            return Err(CodecError::Truncated);
        }
        self.pos += len as usize;
        Ok(())
    }

    /// Reads `width` (≤ [`MAX_WIDTH`]) bits MSB-first.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        debug_assert!(width <= MAX_WIDTH);
        let word = self.peek();
        self.take(width)?;
        // Two shifts, so a width of 0 reads 0.
        Ok(word >> 1 >> (63 - width))
    }

    /// Reads `count` values of `width` (1..=32) bits each and appends
    /// `min` plus each to `out`, after one check that the stream holds all
    /// of them: where it does not, errs having read nothing. The caller
    /// makes sure `min + 2^width − 1` fits in `u32`.
    pub(crate) fn read_column(
        &mut self,
        width: u32,
        count: usize,
        min: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        debug_assert!((1..=32).contains(&width));
        debug_assert!(u64::from(min) + (1u64 << width) - 1 <= u64::from(u32::MAX));
        let bits = count
            .checked_mul(width as usize)
            .filter(|&bits| bits <= self.left())
            .ok_or(CodecError::Truncated)?;
        let (data, start, width) = (self.data, self.pos, width as usize);
        let value = |i: usize| min + (peek_at(data, start + i * width) >> (64 - width)) as u32;
        out.extend((0..count).map(value));
        self.pos += bits;
        Ok(())
    }

    /// Reads a unary code (count of zeros before the terminating one).
    fn read_unary(&mut self) -> Result<u64, CodecError> {
        let mut count = 0u64;
        loop {
            // The peek's stream bits: at least one, since some are left.
            let valid = self.left().min(64 - (self.pos & 7)) as u32;
            if valid == 0 {
                return Err(CodecError::Truncated);
            }
            let lz = self.peek().leading_zeros();
            if lz < valid {
                self.pos += lz as usize + 1;
                return Ok(count + u64::from(lz));
            }
            count += u64::from(valid);
            self.pos += valid as usize;
        }
    }

    #[inline]
    pub fn read_gamma(&mut self) -> Result<u64, CodecError> {
        let word = self.peek();
        // `b` zeros, then `n + 1` in `b + 1` bits: one word while it fits.
        let b = word.leading_zeros();
        if 2 * b < MAX_WIDTH && self.take(2 * b + 1).is_ok() {
            return Ok((word >> (63 - 2 * b)) - 1);
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
        let word = self.peek();
        // γ(b) — `b + 1` in `2e + 1` bits — then the `b`-bit mantissa: one
        // word while the whole code fits.
        let e = word.leading_zeros();
        if 2 * e < MAX_WIDTH {
            let b = (word >> (63 - 2 * e)) as u32 - 1;
            let len = 2 * e + 1 + b;
            if len <= MAX_WIDTH && self.take(len).is_ok() {
                let mantissa = (word << (2 * e + 1)) >> 1 >> (63 - b);
                return Ok(((1u64 << b) | mantissa) - 1);
            }
        }
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
        let word = self.peek();
        let h = word.leading_zeros();
        // One word (k ≥ 2): unary, stop bit and the offset — at most
        // `need` bits — are all in it. The shard holds base·(2^k − 1)
        // values, so the minimal-binary code of the offset has
        // `s = (h + 1)·k` bits and its threshold is `base` itself.
        let need = (h + 1) * (k + 1);
        if k >= 2 && need <= MAX_WIDTH {
            let base = 1u64 << (h * k);
            let s = (h + 1) * k;
            let rest = word << (h + 1);
            // The long form takes one more bit and subtracts `base`;
            // chosen without a branch, since it is a coin flip.
            let long = u32::from(rest >> (64 - (s - 1)) >= base);
            let off = (rest >> (64 - (s - 1 + long))) - (base & u64::from(long).wrapping_neg());
            if self.take(h + s + long).is_ok() {
                return Ok(base + off - 1);
            }
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

    /// Reads `n` ζ₃ codes and hands each value to `put`, which may end
    /// the read with an error. Table codes come from one peek while the
    /// next 12-bit index lies in its [`MAX_WIDTH`] stream bits — at least
    /// four codes, since each is at most 12 bits: the index is the word
    /// shifted past the codes before it, which keeps the position and the
    /// memory load off the path from one code to the next. A code the
    /// table does not hold, or one that would end past the stream, is read
    /// by [`BitReader::read_zeta`].
    #[inline]
    pub(crate) fn read_zeta3s(
        &mut self,
        mut n: usize,
        mut put: impl FnMut(u64) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        while n > 0 {
            let (mut word, room) = (self.peek(), self.left());
            let mut used = 0;
            while n > 0 && used <= (MAX_WIDTH - TABLE_BITS) as usize {
                let e = ZETA3.0[(word >> (64 - TABLE_BITS)) as usize];
                let len = u32::from(e & 15);
                if len == 0 || used + len as usize > room {
                    break;
                }
                word <<= len;
                used += len as usize;
                n -= 1;
                put(u64::from(e >> 4))?;
            }
            self.pos += used;
            if used == 0 {
                put(self.read_zeta(3)?)?;
                n -= 1;
            }
        }
        Ok(())
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
