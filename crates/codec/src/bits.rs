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
    acc: u64,
    /// Number of pending bits held in the low end of `acc`.
    n: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far (before padding).
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.n as u64
    }

    /// Writes the low `width` bits of `value`, most significant first.
    /// `width` must be ≤ [`MAX_WIDTH`]; `value` must fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= MAX_WIDTH, "width {width} > {MAX_WIDTH}");
        debug_assert!(width == 64 || value >> width == 0, "value overflows width");
        if width == 0 {
            return;
        }
        self.acc = (self.acc << width) | value;
        self.n += width;
        while self.n >= 8 {
            self.n -= 8;
            self.buf.push((self.acc >> self.n) as u8);
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
        self.write_unary(b as u64);
        self.write_split(v & ((1u64 << b) - 1), b);
    }

    /// Elias δ: γ-coded exponent then the mantissa of `n + 1`.
    pub fn write_delta(&mut self, n: u64) {
        let v = n + 1;
        let b = 63 - v.leading_zeros();
        self.write_gamma(b as u64);
        self.write_split(v & ((1u64 << b) - 1), b);
    }

    /// ζ_k (Boldi–Vigna): unary shard index, then minimal-binary offset
    /// within the shard `[2^{hk}-1, 2^{(h+1)k}-1)`. Tuned for the
    /// power-law gap distributions of web/social adjacency.
    pub fn write_zeta(&mut self, n: u64, k: u32) {
        debug_assert!((1..=20).contains(&k));
        let v = n + 1;
        let h = (63 - v.leading_zeros()) / k;
        self.write_unary(h as u64);
        let base = 1u64 << (h * k);
        let span = if (h + 1) * k >= 64 {
            u64::MAX - base + 1
        } else {
            (base << k) - base
        };
        self.write_minimal_binary(v - base, span);
    }

    /// Minimal binary code of `x` in `[0, m)`: the first `2^s - m`
    /// values use `s-1` bits, the rest use `s` bits, `s = ⌈log2 m⌉`.
    pub fn write_minimal_binary(&mut self, x: u64, m: u64) {
        debug_assert!(m >= 1 && x < m);
        if m == 1 {
            return;
        }
        let s = 64 - (m - 1).leading_zeros();
        // s can be 64 for huge universes; 2^64 - m wraps to the right
        // threshold in u64 arithmetic.
        let thresh = (1u64 << (s - 1)).wrapping_mul(2).wrapping_sub(m);
        if x < thresh {
            self.write_split(x, s - 1);
        } else {
            self.write_split(x.wrapping_add(thresh), s);
        }
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
            let pad = 8 - self.n;
            self.write_bits(0, pad);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice, erroring on overrun.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    /// Valid bits remaining in the low end of `acc` (above-`n` bits are
    /// stale and masked off on extraction).
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

    fn refill(&mut self) -> Result<(), CodecError> {
        let &b = self.data.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        self.acc = (self.acc << 8) | b as u64;
        self.n += 8;
        Ok(())
    }

    /// Reads `width` (≤ [`MAX_WIDTH`]) bits MSB-first.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        debug_assert!(width <= MAX_WIDTH);
        if width == 0 {
            return Ok(0);
        }
        while self.n < width {
            self.refill()?;
        }
        self.n -= width;
        Ok((self.acc >> self.n) & ((1u64 << width) - 1))
    }

    /// Reads a unary code (count of zeros before the terminating one).
    fn read_unary(&mut self) -> Result<u64, CodecError> {
        let mut count = 0u64;
        loop {
            if self.n == 0 {
                self.refill()?;
            }
            // Left-align the n valid bits so leading_zeros counts them.
            let window = self.acc << (64 - self.n);
            let lz = window.leading_zeros().min(self.n);
            if lz < self.n {
                self.n -= lz + 1;
                return Ok(count + lz as u64);
            }
            count += self.n as u64;
            self.n = 0;
        }
    }

    pub fn read_gamma(&mut self) -> Result<u64, CodecError> {
        let b = self.read_unary()?;
        if b > 63 {
            return Err(CodecError::Corrupt("gamma exponent out of range"));
        }
        let mantissa = self.read_split(b as u32)?;
        Ok(((1u64 << b) | mantissa) - 1)
    }

    pub fn read_delta(&mut self) -> Result<u64, CodecError> {
        let b = self.read_gamma()?;
        if b > 63 {
            return Err(CodecError::Corrupt("delta exponent out of range"));
        }
        let mantissa = self.read_split(b as u32)?;
        Ok(((1u64 << b) | mantissa) - 1)
    }

    pub fn read_zeta(&mut self, k: u32) -> Result<u64, CodecError> {
        debug_assert!((1..=20).contains(&k));
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
