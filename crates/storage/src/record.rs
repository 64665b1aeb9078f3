//! Fixed-size record serialization for vertex values and messages.
//!
//! Vertex values and messages are small POD-like types (ranks, distances,
//! labels, ad ids). Stores and the network fabric serialize them through
//! [`Record`], which fixes the byte width per type — that width is exactly
//! the paper's `S_v` (value size) and the value part of `S_m` (message
//! size) used in Theorem 2 and Eq. 11.

use hybridgraph_graph::VertexId;
use std::io;

/// A fixed-width serializable value.
pub trait Record: Sized + Clone + Send + Sync + 'static {
    /// Encoded width in bytes.
    const BYTES: usize;

    /// Encodes into `out`; `out.len()` must be `Self::BYTES`.
    fn write_to(&self, out: &mut [u8]);

    /// Decodes from `inp`; `inp.len()` must be `Self::BYTES`.
    fn read_from(inp: &[u8]) -> Self;

    /// Encodes by appending to a vector.
    fn append_to(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + Self::BYTES, 0);
        self.write_to(&mut out[start..]);
    }
}

macro_rules! impl_record_num {
    ($($t:ty),*) => {$(
        impl Record for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_to(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_from(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("record width"))
            }
        }
    )*};
}

impl_record_num!(u8, u16, u32, u64, i32, i64, f32, f64);

impl Record for () {
    const BYTES: usize = 0;

    #[inline]
    fn write_to(&self, _out: &mut [u8]) {}

    #[inline]
    fn read_from(_inp: &[u8]) -> Self {}
}

impl Record for VertexId {
    const BYTES: usize = 4;

    #[inline]
    fn write_to(&self, out: &mut [u8]) {
        self.0.write_to(out)
    }

    #[inline]
    fn read_from(inp: &[u8]) -> Self {
        VertexId(u32::read_from(inp))
    }
}

impl<A: Record, B: Record> Record for (A, B) {
    const BYTES: usize = A::BYTES + B::BYTES;

    #[inline]
    fn write_to(&self, out: &mut [u8]) {
        self.0.write_to(&mut out[..A::BYTES]);
        self.1.write_to(&mut out[A::BYTES..]);
    }

    #[inline]
    fn read_from(inp: &[u8]) -> Self {
        (
            A::read_from(&inp[..A::BYTES]),
            B::read_from(&inp[A::BYTES..]),
        )
    }
}

/// Encodes a slice of records into a byte vector.
pub fn encode_slice<T: Record>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(items.len() * T::BYTES);
    for item in items {
        item.append_to(&mut out);
    }
    out
}

/// Decodes a byte slice into records; a length that is not a whole number
/// of records is `InvalidData`.
pub fn decode_slice<T: Record>(bytes: &[u8]) -> io::Result<Vec<T>> {
    if T::BYTES == 0 {
        return Ok(Vec::new());
    }
    if !bytes.len().is_multiple_of(T::BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "byte length not a record multiple",
        ));
    }
    Ok(bytes.chunks_exact(T::BYTES).map(T::read_from).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_roundtrip() {
        let mut buf = [0u8; 8];
        3.5f64.write_to(&mut buf);
        assert_eq!(f64::read_from(&buf), 3.5);
        let mut buf4 = [0u8; 4];
        0xdead_beefu32.write_to(&mut buf4);
        assert_eq!(u32::read_from(&buf4), 0xdead_beef);
    }

    #[test]
    fn vertex_id_roundtrip() {
        let mut buf = [0u8; 4];
        VertexId(77).write_to(&mut buf);
        assert_eq!(VertexId::read_from(&buf), VertexId(77));
    }

    #[test]
    fn pair_layout() {
        assert_eq!(<(VertexId, f32)>::BYTES, 8);
        let mut buf = [0u8; 8];
        (VertexId(5), 1.25f32).write_to(&mut buf);
        let (v, w) = <(VertexId, f32)>::read_from(&buf);
        assert_eq!(v, VertexId(5));
        assert_eq!(w, 1.25);
    }

    #[test]
    fn slice_roundtrip() {
        let items = vec![1u32, 2, 3, 4];
        let bytes = encode_slice(&items);
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode_slice::<u32>(&bytes).unwrap(), items);
    }

    #[test]
    fn unit_record_is_zero_width() {
        assert_eq!(<()>::BYTES, 0);
        assert!(encode_slice::<()>(&[(), ()]).is_empty());
    }

    #[test]
    fn misaligned_decode_is_invalid_data() {
        let err = decode_slice::<u32>(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
