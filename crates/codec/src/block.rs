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
use std::cell::RefCell;

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

/// The hash-chain heads, kept by each thread from call to call. An entry
/// holds `base + pos`, and every call's `base` lies past all the entries
/// earlier calls wrote, so those read as empty without being rewritten:
/// a call costs no table fill, however short its input.
struct Heads {
    head: Vec<usize>,
    base: usize,
}

thread_local! {
    static HEADS: RefCell<Heads> = const {
        RefCell::new(Heads { head: Vec::new(), base: 1 })
    };
}

/// Compresses `input`, appending the coded bytes to `out`. They may be
/// longer than the input on incompressible data; callers keep the raw
/// bytes when that happens.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    HEADS.with_borrow_mut(|heads| {
        // First call on this thread, or the bases ran out: one fill.
        if heads.head.is_empty() || heads.base.checked_add(input.len() + 1).is_none() {
            *heads = Heads {
                head: vec![0; 1 << HASH_BITS],
                base: 1,
            };
        }
        let base = heads.base;
        heads.base += input.len() + 1;
        compress_with(input, &mut heads.head, base, out)
    })
}

/// [`compress`] over `head`, in which only entries `>= base` are live.
fn compress_with(input: &[u8], head: &mut [usize], base: usize, out: &mut Vec<u8>) {
    out.reserve(input.len() / 2 + 16);
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
            let cand = head[h].wrapping_sub(base);
            if head[h] >= base && pos - cand <= WINDOW {
                let mut l = 0usize;
                while pos + l < input.len() && input[cand + l] == input[pos + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    mlen = l;
                    mdist = pos - cand;
                }
            }
            head[h] = base + pos;
        }
        if run >= MIN_MATCH && run >= mlen {
            flush_literals(out, &input[lit_start..pos]);
            out.push(OP_RUN);
            write_u64(out, run as u64);
            out.push(b);
            pos += run;
            lit_start = pos;
        } else if mlen >= MIN_MATCH {
            flush_literals(out, &input[lit_start..pos]);
            out.push(OP_MATCH);
            write_u64(out, mdist as u64);
            write_u64(out, mlen as u64);
            pos += mlen;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(out, &input[lit_start..]);
}

/// Decompresses into exactly `expected_len` bytes, appended to `out`.
/// Matches reach back no further than this call's first byte; on error
/// `out` may hold a partial tail.
pub fn decompress(coded: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    // `expected_len` is read from the frame, not trusted: a run can
    // legitimately expand without bound, so cap the pre-allocation and
    // let the length checks below decide.
    out.reserve(expected_len.min(MAX_PREALLOC));
    let start = out.len();
    let mut pos = 0usize;
    while pos < coded.len() {
        let op = coded[pos];
        pos += 1;
        let room = expected_len - (out.len() - start);
        match op {
            OP_LIT => {
                let len = read_u64(coded, &mut pos)? as usize;
                if len > coded.len() - pos {
                    return Err(CodecError::Truncated);
                }
                if len > room {
                    return Err(CodecError::Corrupt("literal overruns logical length"));
                }
                out.extend_from_slice(&coded[pos..pos + len]);
                pos += len;
            }
            OP_RUN => {
                let len = read_u64(coded, &mut pos)? as usize;
                let b = *coded.get(pos).ok_or(CodecError::Truncated)?;
                pos += 1;
                if len > room {
                    return Err(CodecError::Corrupt("run overruns logical length"));
                }
                out.resize(out.len() + len, b);
            }
            OP_MATCH => {
                let dist = read_u64(coded, &mut pos)? as usize;
                let len = read_u64(coded, &mut pos)? as usize;
                if dist == 0 || dist > out.len() - start {
                    return Err(CodecError::Corrupt("match distance out of range"));
                }
                if len > room {
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
    if out.len() - start != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            got: out.len() - start,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        super::compress(input, &mut out);
        out
    }

    fn decompress(coded: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        super::decompress(coded, expected_len, &mut out).map(|()| out)
    }

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
    fn heads_left_by_earlier_calls_change_no_byte() {
        let a: Vec<u8> = (0..5000u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        let b: Vec<u8> = (0..3000u32).flat_map(|i| (i % 13).to_le_bytes()).collect();
        let fresh = std::thread::spawn({
            let a = a.clone();
            move || compress(&a)
        })
        .join()
        .unwrap();
        compress(&b);
        assert_eq!(compress(&a), fresh);
        compress(&a[..100]);
        assert_eq!(compress(&a), fresh);
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
    fn appending_calls_leave_earlier_bytes_alone() {
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(300).collect();
        let mut coded = vec![9u8; 5];
        super::compress(&data, &mut coded);
        assert_eq!(coded[..5], [9; 5]);
        assert_eq!(coded[5..], compress(&data));
        let mut out = b"xyz".to_vec();
        super::decompress(&coded[5..], data.len(), &mut out).unwrap();
        assert_eq!((&out[..3], &out[3..]), (&b"xyz"[..], &data[..]));
        // A match may not reach back into bytes an earlier call left.
        let mut bad = vec![OP_MATCH];
        write_u64(&mut bad, 3);
        write_u64(&mut bad, 3);
        assert!(super::decompress(&bad, 3, &mut b"xyz".to_vec()).is_err());
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
