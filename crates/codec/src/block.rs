//! Deterministic general-purpose byte codec: run-length encoding plus a
//! fixed greedy LZ77 pass.
//!
//! Used for the structures gap coding does not fit — checkpoint bodies,
//! message spill chunks, msg-log segments. The encoder is a pure function
//! of its input (single hash-chain probe, fixed window, greedy choice with
//! a fixed tie-break), so coded bytes are reproducible across runs and
//! platforms — no RNG, no timestamps, no thread dependence.
//!
//! Token stream, repeated until end of input:
//! * `0x00 | len varint | len bytes` — literal copy
//! * `0x01 | len varint | byte` — run of one byte
//! * `0x02 | dist varint | len varint` — copy `len` bytes from `dist`
//!   back (overlap allowed, byte-at-a-time semantics)

use crate::varint::{read_u64, write_u64};
use crate::CodecError;

const OP_LIT: u8 = 0x00;
const OP_RUN: u8 = 0x01;
const OP_MATCH: u8 = 0x02;

/// Minimum useful run/match length; shorter repeats stay literal.
const MIN_MATCH: usize = 4;
/// Farthest back a match may reach.
const WINDOW: usize = 64 * 1024;
const HASH_BITS: u32 = 16;
/// Largest output buffer [`decompress`] reserves on the frame's say-so.
const MAX_PREALLOC: usize = 1 << 24;

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes(b[..4].try_into().expect("width"));
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    out.push(OP_LIT);
    write_u64(out, lits.len() as u64);
    out.extend_from_slice(lits);
}

/// Compresses `input`. The output may be larger than the input on
/// incompressible data; callers keep the raw bytes when that happens.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos < input.len() {
        let b = input[pos];
        let mut run = 1usize;
        while pos + run < input.len() && input[pos + run] == b {
            run += 1;
        }
        let mut mlen = 0usize;
        let mut mdist = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let cand = head[h];
            if cand != usize::MAX && pos - cand <= WINDOW {
                let mut l = 0usize;
                while pos + l < input.len() && input[cand + l] == input[pos + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    mlen = l;
                    mdist = pos - cand;
                }
            }
            head[h] = pos;
        }
        if run >= MIN_MATCH && run >= mlen {
            flush_literals(&mut out, &input[lit_start..pos]);
            out.push(OP_RUN);
            write_u64(&mut out, run as u64);
            out.push(b);
            pos += run;
            lit_start = pos;
        } else if mlen >= MIN_MATCH {
            flush_literals(&mut out, &input[lit_start..pos]);
            out.push(OP_MATCH);
            write_u64(&mut out, mdist as u64);
            write_u64(&mut out, mlen as u64);
            pos += mlen;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// Decompresses into exactly `expected_len` bytes.
pub fn decompress(coded: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    // `expected_len` is read from the frame, not trusted: a run can
    // legitimately expand without bound, so cap the pre-allocation and
    // let the length checks below decide.
    let mut out = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
    let mut pos = 0usize;
    while pos < coded.len() {
        let op = coded[pos];
        pos += 1;
        match op {
            OP_LIT => {
                let len = read_u64(coded, &mut pos)? as usize;
                if len > coded.len() - pos {
                    return Err(CodecError::Truncated);
                }
                if len > expected_len - out.len() {
                    return Err(CodecError::Corrupt("literal overruns logical length"));
                }
                out.extend_from_slice(&coded[pos..pos + len]);
                pos += len;
            }
            OP_RUN => {
                let len = read_u64(coded, &mut pos)? as usize;
                let b = *coded.get(pos).ok_or(CodecError::Truncated)?;
                pos += 1;
                if len > expected_len - out.len() {
                    return Err(CodecError::Corrupt("run overruns logical length"));
                }
                out.resize(out.len() + len, b);
            }
            OP_MATCH => {
                let dist = read_u64(coded, &mut pos)? as usize;
                let len = read_u64(coded, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::Corrupt("match distance out of range"));
                }
                if len > expected_len - out.len() {
                    return Err(CodecError::Corrupt("match overruns logical length"));
                }
                // Byte-at-a-time so overlapping matches replicate, as the
                // encoder assumes.
                for _ in 0..len {
                    let b = out[out.len() - dist];
                    out.push(b);
                }
            }
            _ => return Err(CodecError::Corrupt("unknown block-codec opcode")),
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            got: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let coded = compress(data);
        assert_eq!(decompress(&coded, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
    }

    #[test]
    fn runs_compress_well() {
        let data = vec![0u8; 10_000];
        let coded = compress(&data);
        assert!(coded.len() < 16, "RLE should collapse: {}", coded.len());
        roundtrip(&data);
    }

    #[test]
    fn repeated_structure_compresses() {
        let unit: Vec<u8> = (0..64u8).collect();
        let mut data = Vec::new();
        for _ in 0..100 {
            data.extend_from_slice(&unit);
        }
        let coded = compress(&data);
        assert!(
            coded.len() * 4 < data.len(),
            "LZ should find the repeats: {} vs {}",
            coded.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // "abcabcabc..." forces dist < len copies.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn deterministic() {
        let data: Vec<u8> = (0..5000u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        assert_eq!(compress(&data), compress(&data));
    }

    #[test]
    fn incompressible_survives() {
        // A xorshift stream — no runs, few matches.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut data = Vec::new();
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.extend_from_slice(&x.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn corrupt_inputs_error() {
        let coded = compress(b"hello world hello world hello world");
        // Wrong logical length.
        assert!(decompress(&coded, 5).is_err());
        // Unknown opcode.
        assert!(decompress(&[0x7f], 1).is_err());
        // Match before any output.
        let mut bad = Vec::new();
        bad.push(OP_MATCH);
        write_u64(&mut bad, 1);
        write_u64(&mut bad, 4);
        assert!(decompress(&bad, 4).is_err());
        // Truncated literal.
        let mut bad = Vec::new();
        bad.push(OP_LIT);
        write_u64(&mut bad, 100);
        bad.push(1);
        assert!(decompress(&bad, 100).is_err());
    }
}
