//! The one framing layer: every little-endian byte layout the engine
//! persists, as pure functions over byte slices.
//!
//! The storage crate decides *where* bytes go (file names, `Vfs` calls,
//! physical-vs-logical I/O accounting); this module decides *what* the
//! bytes are. Nothing here touches a file, so all of it is fuzzable on
//! its own. Three layouts:
//!
//! 1. **Fields** — [`PayloadWriter`] / [`PayloadReader`]: fixed-width
//!    little-endian integers, `f64` by bit pattern, and `u64`-length-
//!    prefixed runs. Every count read back goes through
//!    [`PayloadReader::get_count`], which rejects a count whose elements
//!    could not fit in the bytes that remain — so no decoder allocates
//!    for a number it merely *read*. A persisted record is *declared*
//!    once — [`record!`](crate::record) for a struct,
//!    [`tagged!`](crate::tagged) for an enum (a tag byte, then the
//!    variant's fields) — as its fields in wire order. The declaration
//!    writes both directions of the [`Field`] codec and derives
//!    [`Field::MIN_BYTES`], the size a decoded count is checked against.
//!    A layout other than a field type's own is named in the table as
//!    `field via Layout` ([`Via`]): [`AsU32`], [`Len32`], [`Framed`], or
//!    a crate's own (an interned label, an id from the dependency-free
//!    graph crate). Decoding is strict: a presence byte is 0 or 1, a tag
//!    is one the declaration lists, a narrowed integer must fit, so any
//!    bytes that decode re-encode to themselves.
//! 2. **Sealed whole files** — [`seal`] / [`unseal`] (checkpoints and
//!    message-log segments):
//!
//!    ```text
//!    magic u32 | body-encoding u32 | id words u64… | body | total-length u64
//!    ```
//!
//!    The trailing length word is the commit marker: a file whose last
//!    word is not its own length was torn mid-write. The body is the
//!    field bytes as-is ([`BodyEncoding::Plain`]) or one codec blob frame
//!    around them ([`BodyEncoding::BlobFrame`]); the file itself says
//!    which, so reading needs no codec configuration.
//! 3. **Append-only record logs** — [`record_log_header`] /
//!    [`push_record`] / [`scan_records`] (the service write-ahead log):
//!
//!    ```text
//!    magic u32 | 1 u32 | codec u8                  (header, once)
//!    kind u8 | len u64 | body | total-length u64   (each record)
//!    ```
//!
//!    Each record carries its own commit marker. A scan stops at the
//!    first record whose framing does not check out — the torn tail of a
//!    crash mid-append — and reports the clean prefix length so the
//!    caller can truncate back to it.

use crate::{decode_blob_frame, encode_blob_frame_into, CodecChoice};
use std::io;
use std::sync::Arc;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt frame: {what}"))
}

// --------------------------------------------------------------- fields

/// Accumulates fields (little-endian, `f64` by bit pattern).
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    /// A payload with room reserved in front for the header of a sealed
    /// file with `id_words` id words; [`seal`] fills the room in, so the
    /// plain encoding commits this very buffer without copying it.
    pub fn sealed(id_words: usize) -> PayloadWriter {
        let mut buf = Vec::with_capacity(64);
        buf.resize(sealed_header_len(id_words), 0);
        PayloadWriter { buf }
    }

    /// Appends one byte.
    fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends `data` with no length prefix (the schema fixes its length
    /// or carries it some other way).
    fn put_raw(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Appends a length-prefixed byte run.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_u64(data.len() as u64);
        self.put_raw(data);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a length-prefixed `u64` word run (bitset contents).
    pub fn put_words(&mut self, words: &[u64]) {
        self.put_u64(words.len() as u64);
        for &w in words {
            self.put_u64(w);
        }
    }

    /// The bytes accumulated so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the payload, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The finished body.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Walks fields written by a [`PayloadWriter`]. Every read is bounds-
/// checked: bytes this process did not write yield `InvalidData`, never
/// a panic.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `buf` starting at its first field.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    /// A reader resuming at byte `pos` of `buf` — for an owner that keeps
    /// the bytes and the cursor side by side and cannot hold a borrow of
    /// itself between calls (see [`PayloadReader::pos`]).
    pub fn at(buf: &'a [u8], pos: usize) -> PayloadReader<'a> {
        PayloadReader {
            buf,
            pos: pos.min(buf.len()),
        }
    }

    /// The cursor: bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every field has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads `n` bytes with no length prefix.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        // `n` comes from untrusted data: compare without `pos + n`, which
        // a corrupt length near `usize::MAX` would overflow.
        if n > self.remaining() {
            return Err(corrupt("field past end"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    fn get_u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    fn get_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` element count and rejects it unless that many
    /// elements of at least `min_elem_bytes` each could still follow.
    /// The one rule between a decoded number and `Vec::with_capacity`:
    /// an allocation is never larger than the input justifies.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> io::Result<usize> {
        let n = self.get_u64()?;
        self.fits(n, min_elem_bytes)
    }

    /// `n` as a count, if that many elements of at least `min_elem_bytes`
    /// each could still follow.
    fn fits(&self, n: u64, min_elem_bytes: usize) -> io::Result<usize> {
        let fits = self.remaining() / min_elem_bytes.max(1);
        if n > fits as u64 {
            return Err(corrupt("count exceeds the bytes that remain"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte run.
    pub fn get_bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> io::Result<String> {
        String::from_utf8(self.get_bytes()?).map_err(|_| corrupt("invalid utf-8"))
    }

    /// Reads a length-prefixed `u64` word run.
    pub fn get_words(&mut self) -> io::Result<Vec<u64>> {
        let n = self.get_count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }
}

// --------------------------------------------------------- declarations

/// A value with one persisted layout. Records get theirs from one
/// declaration ([`record!`](crate::record), [`tagged!`](crate::tagged));
/// the impls below are the primitives those are built from.
pub trait Field: Sized {
    /// Fewest bytes one value takes: what a decoded count of these is
    /// checked against before anything is allocated for it.
    const MIN_BYTES: usize;

    /// Appends the value.
    fn put(&self, w: &mut PayloadWriter);

    /// Reads one value back; bytes this process did not write give
    /// `InvalidData`, never a panic.
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Self>;

    /// Appends `xs` back to back with no count (a byte run is one copy).
    fn put_run(xs: &[Self], w: &mut PayloadWriter) {
        for x in xs {
            x.put(w);
        }
    }

    /// Reads `n` values written by [`Field::put_run`]; `n` is already
    /// checked against the bytes that remain.
    fn get_run(n: usize, r: &mut PayloadReader<'_>) -> io::Result<Vec<Self>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }
}

/// A layout for values of type `T` other than `T`'s own [`Field`] one —
/// a narrower integer, an interned label, a nested frame, or a type from
/// a crate that cannot name [`Field`]. A declaration writes it as
/// `field via Layout`; `Option`, `Vec`, `Arc` and pairs of layouts pass
/// it through to what they hold.
pub trait Via<T> {
    /// Fewest bytes one value takes in this layout.
    const MIN_BYTES: usize;

    /// Appends `x` in this layout.
    fn put(x: &T, w: &mut PayloadWriter);

    /// Reads one value written by [`Via::put`].
    fn get(r: &mut PayloadReader<'_>) -> io::Result<T>;

    /// Appends `xs` as `Vec<Self>` lays out a `Vec<T>`: a `u64` count,
    /// then each value.
    fn put_all(xs: &[T], w: &mut PayloadWriter) {
        xs.len().put(w);
        for x in xs {
            Self::put(x, w);
        }
    }
}

/// An enum declared with [`tagged!`](crate::tagged): a tag byte, then the
/// variant's fields. Where the tag travels outside the body — a gateway
/// frame kind, a service-log record kind — the halves are used apart.
pub trait Tagged: Sized {
    /// The variant's tag.
    fn tag(&self) -> u8;

    /// Appends the variant's fields, without the tag.
    fn put_fields(&self, w: &mut PayloadWriter);

    /// Reads the fields of the variant tagged `tag`; an unknown tag is
    /// `InvalidData`.
    fn get_fields(tag: u8, r: &mut PayloadReader<'_>) -> io::Result<Self>;
}

/// The bytes of one value, on their own.
pub fn encode<T: Field>(x: &T) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    x.put(&mut w);
    w.into_bytes()
}

/// Reads one value that must fill `bytes` exactly.
pub fn decode<T: Field>(bytes: &[u8]) -> io::Result<T> {
    decode_via::<AsIs, T>(bytes)
}

/// Reads one value in layout `L` that must fill `bytes` exactly.
pub fn decode_via<L: Via<T>, T>(bytes: &[u8]) -> io::Result<T> {
    whole(bytes, L::get)
}

/// A tagged value as its tag and its field bytes, for a carrier that
/// keeps the tag outside the body.
pub fn encode_tagged<T: Tagged>(x: &T) -> (u8, Vec<u8>) {
    let mut w = PayloadWriter::new();
    x.put_fields(&mut w);
    (x.tag(), w.into_bytes())
}

/// Reads the value [`encode_tagged`] split into `tag` and `body`; the
/// fields must fill `body` exactly.
pub fn decode_tagged<T: Tagged>(tag: u8, body: &[u8]) -> io::Result<T> {
    whole(body, |r| T::get_fields(tag, r))
}

fn whole<T>(
    bytes: &[u8],
    get: impl FnOnce(&mut PayloadReader<'_>) -> io::Result<T>,
) -> io::Result<T> {
    let mut r = PayloadReader::new(bytes);
    let x = get(&mut r)?;
    if !r.done() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(x)
}

/// Declares how a struct is persisted: its fields in wire order, each in
/// its own [`Field`] layout or `via` another ([`Via`]). Generates both
/// directions and derives `MIN_BYTES`.
///
/// ```text
/// record! { WireStats { raw_messages, wire_values, wire_bytes, saved_messages } }
/// // A layout for a type from a crate that cannot name `Field`:
/// record! { EdgeLayout: Edge { dst via AsU32, weight } }
/// // A leading part; `..` fills the fields not listed from `Default`.
/// record! { Head: QtAudit { superstep, q, .. } }
/// ```
#[macro_export]
macro_rules! record {
    ($ty:ident { $($f:ident $(via $w:ty)?),* $(,)? }) => {
        impl $crate::frame::Field for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::record!(@min |s: &$ty| &s.$f $(, $w)?))*;
            fn put(&self, w: &mut $crate::frame::PayloadWriter) {
                $($crate::record!(@put w, &self.$f $(, $w)?);)*
            }
            fn get(r: &mut $crate::frame::PayloadReader<'_>) -> ::std::io::Result<Self> {
                Ok($ty { $($f: $crate::record!(@get r $(, $w)?),)* })
            }
        }
    };
    ($via:ident : $ty:ident { $($f:ident $(via $w:ty)?,)* .. }) => {
        $crate::record!(@via $via $ty [..Default::default()] $($f $(via $w)?),*);
    };
    ($via:ident : $ty:ident { $($f:ident $(via $w:ty)?),* $(,)? }) => {
        $crate::record!(@via $via $ty [] $($f $(via $w)?),*);
    };
    (@via $via:ident $ty:ident [$($rest:tt)*] $($f:ident $(via $w:ty)?),*) => {
        impl $crate::frame::Via<$ty> for $via {
            const MIN_BYTES: usize = 0 $(+ $crate::record!(@min |s: &$ty| &s.$f $(, $w)?))*;
            fn put(x: &$ty, w: &mut $crate::frame::PayloadWriter) {
                $($crate::record!(@put w, &x.$f $(, $w)?);)*
            }
            fn get(r: &mut $crate::frame::PayloadReader<'_>) -> ::std::io::Result<$ty> {
                Ok($ty { $($f: $crate::record!(@get r $(, $w)?),)* $($rest)* })
            }
        }
    };
    // A field's MIN_BYTES, its type taken from an accessor closure.
    (@min $field:expr) => {{
        const fn m<S, T: $crate::frame::Field>(_: fn(&S) -> &T) -> usize {
            T::MIN_BYTES
        }
        m($field)
    }};
    (@min $field:expr, $w:ty) => {{
        const fn m<W: $crate::frame::Via<T>, S, T>(_: fn(&S) -> &T) -> usize {
            W::MIN_BYTES
        }
        m::<$w, _, _>($field)
    }};
    (@put $wr:ident, $x:expr) => { $crate::frame::Field::put($x, $wr) };
    (@put $wr:ident, $x:expr, $w:ty) => { <$w as $crate::frame::Via<_>>::put($x, $wr) };
    (@get $r:ident) => { $crate::frame::Field::get($r)? };
    (@get $r:ident, $w:ty) => { <$w as $crate::frame::Via<_>>::get($r)? };
}

/// Declares how an enum is persisted: per variant its tag byte and its
/// fields in wire order (named as [`record!`](crate::record) names them;
/// a tuple variant binds its one field to a name). Generates [`Tagged`]
/// and [`Field`] — the tag, then the fields.
///
/// ```text
/// tagged! { EventKind { 0 => Span { dur_us }, 1 => Instant, 2 => Counter } }
/// tagged! { ArgValue { 0 => U64(x), 1 => I64(x), 2 => F64(x), 3 => Str(x) } }
/// ```
#[macro_export]
macro_rules! tagged {
    ($ty:ident {
        $($tag:literal => $v:ident $(($p:ident $(via $pw:ty)?))? $({ $($f:ident $(via $fw:ty)?),* $(,)? })?),*
        $(,)?
    }) => {
        impl $crate::frame::Tagged for $ty {
            fn tag(&self) -> u8 {
                match self { $($ty::$v { .. } => $tag,)* }
            }
            fn put_fields(&self, w: &mut $crate::frame::PayloadWriter) {
                match self {
                    $($ty::$v $(($p))? $({ $($f),* })? => {
                        $($crate::record!(@put w, $p $(, $pw)?);)?
                        $($($crate::record!(@put w, $f $(, $fw)?);)*)?
                    })*
                }
            }
            fn get_fields(tag: u8, r: &mut $crate::frame::PayloadReader<'_>) -> ::std::io::Result<Self> {
                match tag {
                    $($tag => {
                        $(let $p = $crate::record!(@get r $(, $pw)?);)?
                        $($(let $f = $crate::record!(@get r $(, $fw)?);)*)?
                        Ok($ty::$v $(($p))? $({ $($f),* })?)
                    })*
                    t => Err(::std::io::Error::new(
                        ::std::io::ErrorKind::InvalidData,
                        format!("corrupt frame: unknown {} tag {t}", stringify!($ty)),
                    )),
                }
            }
        }
        impl $crate::frame::Field for $ty {
            // The tag, then the smallest variant.
            #[allow(unreachable_patterns)]
            const MIN_BYTES: usize = 1 + {
                let mins = [$(
                    0 $(+ $crate::record!(@min |s: &$ty| match s {
                        $ty::$v($p) => $p,
                        _ => unreachable!(),
                    } $(, $pw)?))?
                    $($(+ $crate::record!(@min |s: &$ty| match s {
                        $ty::$v { $f, .. } => $f,
                        _ => unreachable!(),
                    } $(, $fw)?))*)?
                ),*];
                let (mut min, mut i) = (usize::MAX, 0);
                while i < mins.len() {
                    if mins[i] < min {
                        min = mins[i];
                    }
                    i += 1;
                }
                min
            };
            fn put(&self, w: &mut $crate::frame::PayloadWriter) {
                $crate::frame::Field::put(&$crate::frame::Tagged::tag(self), w);
                $crate::frame::Tagged::put_fields(self, w);
            }
            fn get(r: &mut $crate::frame::PayloadReader<'_>) -> ::std::io::Result<Self> {
                let tag = <u8 as $crate::frame::Field>::get(r)?;
                $crate::frame::Tagged::get_fields(tag, r)
            }
        }
    };
}

// ------------------------------------------------------------ primitives

impl Field for u8 {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        w.put_u8(*self);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<u8> {
        r.get_u8()
    }
    fn put_run(xs: &[u8], w: &mut PayloadWriter) {
        w.put_raw(xs);
    }
    fn get_run(n: usize, r: &mut PayloadReader<'_>) -> io::Result<Vec<u8>> {
        Ok(r.take(n)?.to_vec())
    }
}

/// Little-endian integers; floats by bit pattern (bit-exact restore).
macro_rules! le_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, w: &mut PayloadWriter) {
                w.put_raw(&self.to_le_bytes());
            }
            fn get(r: &mut PayloadReader<'_>) -> io::Result<$t> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
le_fields!(u32, u64, i64, f32, f64);

/// A `usize` is a `u64` on the wire.
impl Field for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut PayloadWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<usize> {
        usize::try_from(r.get_u64()?).map_err(|_| corrupt("count overflows usize"))
    }
}

impl Field for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        w.put_u8(*self as u8);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<bool> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("flag is neither 0 nor 1")),
        }
    }
}

impl Field for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut PayloadWriter) {
        w.put_str(self);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<String> {
        r.get_str()
    }
}

impl Field for CodecChoice {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        w.put_u8(self.tag());
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<CodecChoice> {
        CodecChoice::from_tag(r.get_u8()?).ok_or_else(|| corrupt("unknown codec tag"))
    }
}

/// A `u64` count, then the elements.
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut PayloadWriter) {
        self.len().put(w);
        T::put_run(self, w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Vec<T>> {
        let n = r.get_count(T::MIN_BYTES)?;
        T::get_run(n, r)
    }
}

/// A presence byte (0 or 1), then the value.
impl<T: Field> Field for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut PayloadWriter) {
        <Option<AsIs>>::put(self, w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Option<T>> {
        <Option<AsIs>>::get(r)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut PayloadWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<(A, B)> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;
    fn put(&self, w: &mut PayloadWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<(A, B, C)> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

// --------------------------------------------------------------- layouts

/// A value in its own [`Field`] layout — for the half of a pair of
/// layouts that keeps it.
pub struct AsIs;

impl<T: Field> Via<T> for AsIs {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(x: &T, w: &mut PayloadWriter) {
        x.put(w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<T> {
        T::get(r)
    }
}

/// An integer or id stored as a little-endian `u32` (gateway codes and
/// counts, graph ids). A stored value that does not fit the field's type
/// is `InvalidData`.
pub struct AsU32;

impl<T: Copy + TryFrom<u32> + TryInto<u32>> Via<T> for AsU32 {
    const MIN_BYTES: usize = 4;
    fn put(x: &T, w: &mut PayloadWriter) {
        w.put_u32((*x).try_into().unwrap_or(u32::MAX));
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<T> {
        T::try_from(r.get_u32()?).map_err(|_| corrupt("u32 value out of range"))
    }
}

/// A run behind a `u32` count instead of a `u64` one (gateway lists,
/// logged packet payloads).
pub struct Len32;

impl<T: Field> Via<Vec<T>> for Len32 {
    const MIN_BYTES: usize = 4;
    fn put(xs: &Vec<T>, w: &mut PayloadWriter) {
        AsU32::put(&xs.len(), w);
        T::put_run(xs, w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Vec<T>> {
        let n = r.get_u32()?;
        let n = r.fits(n.into(), T::MIN_BYTES)?;
        T::get_run(n, r)
    }
}

impl Via<Arc<[u8]>> for Len32 {
    const MIN_BYTES: usize = 4;
    fn put(xs: &Arc<[u8]>, w: &mut PayloadWriter) {
        AsU32::put(&xs.len(), w);
        w.put_raw(xs);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Arc<[u8]>> {
        let n = r.get_u32()?;
        let n = r.fits(n.into(), 1)?;
        Ok(r.take(n)?.into())
    }
}

/// A value framed as a length-prefixed byte run of its own fields, which
/// must fill the run exactly.
pub struct Framed;

impl<T: Field> Via<T> for Framed {
    const MIN_BYTES: usize = 8;
    fn put(x: &T, w: &mut PayloadWriter) {
        let at = w.len();
        w.put_u64(0);
        x.put(w);
        let len = (w.len() - at - 8) as u64;
        w.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<T> {
        let n = r.get_count(1)?;
        decode(r.take(n)?)
    }
}

impl<T, L: Via<T>> Via<Option<T>> for Option<L> {
    const MIN_BYTES: usize = 1;
    fn put(x: &Option<T>, w: &mut PayloadWriter) {
        x.is_some().put(w);
        if let Some(x) = x {
            L::put(x, w);
        }
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Option<T>> {
        Ok(match bool::get(r)? {
            true => Some(L::get(r)?),
            false => None,
        })
    }
}

impl<T, L: Via<T>> Via<Vec<T>> for Vec<L> {
    const MIN_BYTES: usize = 8;
    fn put(xs: &Vec<T>, w: &mut PayloadWriter) {
        L::put_all(xs, w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Vec<T>> {
        let n = r.get_count(L::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(L::get(r)?);
        }
        Ok(out)
    }
}

impl<T, L: Via<T>> Via<Arc<T>> for Arc<L> {
    const MIN_BYTES: usize = L::MIN_BYTES;
    fn put(x: &Arc<T>, w: &mut PayloadWriter) {
        L::put(x, w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<Arc<T>> {
        L::get(r).map(Arc::new)
    }
}

impl<A, B, LA: Via<A>, LB: Via<B>> Via<(A, B)> for (LA, LB) {
    const MIN_BYTES: usize = LA::MIN_BYTES + LB::MIN_BYTES;
    fn put(x: &(A, B), w: &mut PayloadWriter) {
        LA::put(&x.0, w);
        LB::put(&x.1, w);
    }
    fn get(r: &mut PayloadReader<'_>) -> io::Result<(A, B)> {
        Ok((LA::get(r)?, LB::get(r)?))
    }
}

// ---------------------------------------------------- sealed whole files

/// How the body of a sealed file is stored (its second header word).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BodyEncoding {
    /// The field bytes as written.
    Plain = 1,
    /// One codec blob frame around the field bytes.
    BlobFrame = 2,
}

/// Bytes in front of the body of a sealed file with `id_words` id words.
const fn sealed_header_len(id_words: usize) -> usize {
    4 + 4 + 8 * id_words
}

/// Seals `fields` — started with [`PayloadWriter::sealed`]`(ids.len())` —
/// into the bytes of one whole file, and returns them with their
/// *logical* length: what the plain encoding would have written, which
/// is what I/O accounting charges as application bytes.
///
/// Under [`CodecChoice::None`] the buffer that collected the fields is
/// returned itself, header filled in and trailer appended.
///
/// # Panics
/// Panics if `fields` has no room reserved for the header — a bug in the
/// caller, not a data condition.
pub fn seal(magic: u32, ids: &[u64], fields: PayloadWriter, codec: CodecChoice) -> (Vec<u8>, u64) {
    let hdr = sealed_header_len(ids.len());
    assert!(fields.len() >= hdr, "seal: no header room reserved");
    let logical = fields.len() as u64 + 8;
    let (encoding, mut out) = if codec.is_none() {
        (BodyEncoding::Plain, fields)
    } else {
        let mut out = PayloadWriter::sealed(ids.len());
        encode_blob_frame_into(codec, &fields.buf[hdr..], &mut out.buf);
        (BodyEncoding::BlobFrame, out)
    };
    let (words, id_room) = out.buf[..hdr].split_at_mut(8);
    words[..4].copy_from_slice(&magic.to_le_bytes());
    words[4..].copy_from_slice(&(encoding as u32).to_le_bytes());
    for (room, id) in id_room.chunks_exact_mut(8).zip(ids) {
        room.copy_from_slice(&id.to_le_bytes());
    }
    out.put_u64(out.len() as u64 + 8);
    (out.buf, logical)
}

/// A sealed file, opened.
#[derive(Debug, PartialEq, Eq)]
pub struct Unsealed {
    /// The header's id words, for the caller to check against what it
    /// asked for.
    pub ids: Vec<u64>,
    /// The decoded field bytes.
    pub body: Vec<u8>,
    /// The length the file would have under the plain encoding (equal to
    /// its actual length when it *is* plain).
    pub logical_len: u64,
}

/// Validates and opens the whole-file bytes produced by [`seal`]. Any
/// framing damage — truncation, a foreign magic, an unknown encoding, a
/// blob frame that does not decode to the end of the file — is an error.
pub fn unseal(magic: u32, id_words: usize, data: &[u8]) -> io::Result<Unsealed> {
    let hdr = sealed_header_len(id_words);
    if data.len() < hdr + 8 {
        return Err(corrupt("file shorter than header"));
    }
    let (framed, trailer) = data.split_at(data.len() - 8);
    if PayloadReader::new(trailer).get_u64()? != data.len() as u64 {
        return Err(corrupt("length trailer mismatch (truncated write?)"));
    }
    let mut r = PayloadReader::new(framed);
    if r.get_u32()? != magic {
        return Err(corrupt("bad magic"));
    }
    let encoding = r.get_u32()?;
    let ids = (0..id_words)
        .map(|_| r.get_u64())
        .collect::<io::Result<Vec<u64>>>()?;
    let body = if encoding == BodyEncoding::Plain as u32 {
        framed[hdr..].to_vec()
    } else if encoding == BodyEncoding::BlobFrame as u32 {
        let mut pos = hdr;
        let raw = decode_blob_frame(framed, &mut pos).map_err(|e| corrupt(&e.to_string()))?;
        if pos != framed.len() {
            return Err(corrupt("coded body length mismatch"));
        }
        raw
    } else {
        return Err(corrupt("unknown body encoding"));
    };
    let logical_len = (hdr + body.len() + 8) as u64;
    Ok(Unsealed {
        ids,
        body,
        logical_len,
    })
}

// ------------------------------------------------ append-only record logs

/// The second word of a record-log header. Always 1: how record bodies
/// are stored is the codec byte's business, not this word's.
const RECORD_LOG_WORD: u32 = 1;
const RECORD_LOG_HEADER_LEN: usize = 4 + 4 + 1;
/// `kind u8 | len u64` in front of a record body, `total u64` behind it.
const RECORD_OVERHEAD: usize = 1 + 8 + 8;

/// The header of an append-only record log whose record bodies are
/// wrapped per `codec`.
pub fn record_log_header(magic: u32, codec: CodecChoice) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u32(magic);
    w.put_u32(RECORD_LOG_WORD);
    w.put_u8(codec.tag());
    w.into_bytes()
}

/// Appends one record to `out` and returns its logical length (what it
/// would occupy with the body stored as-is). With a codec the body is
/// stored as one blob frame, framed straight into `out`.
pub fn push_record(out: &mut PayloadWriter, kind: u8, body: &[u8], codec: CodecChoice) -> u64 {
    out.buf.reserve(RECORD_OVERHEAD + body.len());
    out.put_u8(kind);
    let stored = if codec.is_none() {
        out.put_bytes(body);
        body.len()
    } else {
        // The length word goes in front of a frame whose length is only
        // known once it is written: reserve it, frame, then fill it in.
        let len_at = out.len();
        out.put_u64(0);
        encode_blob_frame_into(codec, body, &mut out.buf);
        let stored = out.len() - len_at - 8;
        out.buf[len_at..len_at + 8].copy_from_slice(&(stored as u64).to_le_bytes());
        stored
    };
    out.put_u64((RECORD_OVERHEAD + stored) as u64);
    (RECORD_OVERHEAD + body.len()) as u64
}

/// One replayed record: the writer-defined kind byte plus its decoded
/// body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Writer-defined record type.
    pub kind: u8,
    /// Decoded (post-codec) body bytes.
    pub body: Vec<u8>,
}

/// What [`scan_records`] found in a record log.
#[derive(Debug, PartialEq, Eq)]
pub struct RecordScan {
    /// The codec named by the log's header.
    pub codec: CodecChoice,
    /// Every committed record, in append order.
    pub records: Vec<LogRecord>,
    /// Length of the header plus all committed records; anything past it
    /// is a torn tail to truncate away.
    pub clean_len: usize,
    /// Bytes by which decoded bodies exceed their stored blob frames
    /// (the logical-over-physical top-up for I/O accounting).
    pub decoded_extra: u64,
}

/// The next record's kind and stored body if its length word, body and
/// trailer are all present and agree; `None` at the torn tail.
fn next_framed_record<'a>(r: &mut PayloadReader<'a>) -> Option<(u8, &'a [u8])> {
    let kind = r.get_u8().ok()?;
    let len = r.get_count(1).ok()?;
    let stored = r.take(len).ok()?;
    let total = r.get_u64().ok()?;
    (total == (RECORD_OVERHEAD + len) as u64).then_some((kind, stored))
}

/// Walks a whole record log front to back. The first record whose
/// framing does not check out ends the scan — it and everything after it
/// is the torn tail. A framing-consistent record whose blob frame does
/// not decode is corruption, not a torn tail, and is an error; so is a
/// damaged header.
pub fn scan_records(magic: u32, data: &[u8]) -> io::Result<RecordScan> {
    if data.len() < RECORD_LOG_HEADER_LEN {
        return Err(corrupt("file shorter than header"));
    }
    let mut r = PayloadReader::new(data);
    if r.get_u32()? != magic {
        return Err(corrupt("bad magic"));
    }
    if r.get_u32()? != RECORD_LOG_WORD {
        return Err(corrupt("unknown record-log layout"));
    }
    let codec = CodecChoice::from_tag(r.get_u8()?).ok_or_else(|| corrupt("unknown codec tag"))?;

    let mut records = Vec::new();
    let mut decoded_extra = 0u64;
    let mut clean_len = r.pos();
    while let Some((kind, stored)) = next_framed_record(&mut r) {
        let body = if codec.is_none() {
            stored.to_vec()
        } else {
            let mut pos = 0;
            match decode_blob_frame(stored, &mut pos) {
                Ok(raw) if pos == stored.len() => raw,
                _ => return Err(corrupt("blob frame mismatch")),
            }
        };
        decoded_extra += (body.len() as u64).saturating_sub(stored.len() as u64);
        records.push(LogRecord { kind, body });
        clean_len = r.pos();
    }
    Ok(RecordScan {
        codec,
        records,
        clean_len,
        decoded_extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::read_u64;

    /// SplitMix64, the repo-wide seeded generator.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Runs (compressible) mixed with noise, so coded bodies exercise
    /// both the raw and the block blob-frame tags.
    fn seeded_bytes(s: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                *s = mix(*s);
                if (*s >> 8).is_multiple_of(3) {
                    *s as u8
                } else {
                    // Never a zero run: a truncated file must not end in
                    // bytes that read as a small length word.
                    (i / 23 + 1) as u8
                }
            })
            .collect()
    }

    /// Bytes of the blob-frame header (`tag | logical varint | payload-len
    /// varint`) that starts at `buf[at]`.
    fn blob_frame_header_len(buf: &[u8], at: usize) -> usize {
        let mut pos = at + 1;
        read_u64(buf, &mut pos).unwrap();
        read_u64(buf, &mut pos).unwrap();
        pos - at
    }

    fn flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut m = bytes.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        m
    }

    #[test]
    fn fields_roundtrip() {
        let mut w = PayloadWriter::new();
        w.put_u8(9);
        w.put_u32(77);
        w.put_u64(u64::MAX - 3);
        (-0.25f64).put(&mut w);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("pagerank-a");
        w.put_words(&[1, 2, u64::MAX]);
        w.put_raw(b"xy");
        let body = w.into_bytes();

        let mut r = PayloadReader::new(&body);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u32().unwrap(), 77);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(f64::get(&mut r).unwrap(), -0.25);
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "pagerank-a");
        // A cursor handed to a fresh reader resumes where this one stopped.
        let mut r = PayloadReader::at(&body, r.pos());
        assert_eq!(r.get_words().unwrap(), vec![1, 2, u64::MAX]);
        assert_eq!(r.take(2).unwrap(), b"xy");
        assert!(r.done());
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn counts_are_checked_against_remaining_bytes() {
        let mut w = PayloadWriter::new();
        w.put_u64(3);
        w.put_raw(&[0; 24]);
        let body = w.into_bytes();
        assert_eq!(PayloadReader::new(&body).get_count(8).unwrap(), 3);
        // Three 9-byte elements cannot fit in 24 bytes.
        let err = PayloadReader::new(&body).get_count(9).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Counts that would overflow any allocation are plain errors.
        for huge in [u64::MAX, u64::MAX / 4, 1 << 40] {
            let mut w = PayloadWriter::new();
            w.put_u64(huge);
            w.put_raw(&[0; 64]);
            let body = w.into_bytes();
            assert!(PayloadReader::new(&body).get_count(1).is_err());
            assert!(PayloadReader::new(&body).get_words().is_err());
            assert!(PayloadReader::new(&body).get_bytes().is_err());
        }
    }

    /// Sealed files: truncation at every length and a flip of every bit
    /// of the header, blob-frame and trailer words must be an error or
    /// leave the decoded result exact — never a panic, never a silently
    /// shorter body.
    #[test]
    fn seeded_sealed_fuzz_error_or_exact() {
        const MAGIC: u32 = 0x4b43_4748;
        for seed in [3u64, 1776, 0xfeed_f00d] {
            println!("frame sealed fuzz seed {seed}");
            let mut s = seed;
            for codec in CodecChoice::ALL {
                for id_words in [1usize, 2] {
                    s = mix(s);
                    let ids: Vec<u64> = (0..id_words as u64).map(|i| mix(s ^ i)).collect();
                    let len = (mix(s) % 600) as usize;
                    let fields = seeded_bytes(&mut s, len);
                    let mut w = PayloadWriter::sealed(id_words);
                    w.put_raw(&fields);
                    let (bytes, logical) = seal(MAGIC, &ids, w, codec);
                    let hdr = sealed_header_len(id_words);
                    assert_eq!(logical, (hdr + fields.len() + 8) as u64);
                    if codec.is_none() {
                        assert_eq!(bytes.len() as u64, logical);
                    }

                    let u = unseal(MAGIC, id_words, &bytes).expect("intact file opens");
                    assert_eq!((&u.ids, &u.body), (&ids, &fields), "{codec:?} seed {seed}");
                    assert_eq!(u.logical_len, logical);

                    for cut in 0..bytes.len() {
                        assert!(
                            unseal(MAGIC, id_words, &bytes[..cut]).is_err(),
                            "{codec:?} seed {seed}: cut {cut}/{} opened",
                            bytes.len()
                        );
                    }
                    // Header words, then (coded) the blob frame's tag and
                    // two varints, then the trailer.
                    let head = if codec.is_none() {
                        hdr
                    } else {
                        hdr + blob_frame_header_len(&bytes, hdr)
                    };
                    let bits = (0..head * 8).chain((bytes.len() - 8) * 8..bytes.len() * 8);
                    for bit in bits {
                        match unseal(MAGIC, id_words, &flipped(&bytes, bit)) {
                            Err(_) => {}
                            // An id word carries no redundancy: the flip
                            // surfaces as a different id, which is the
                            // caller's mismatch to reject.
                            Ok(u) if u.ids != ids => {
                                assert!((8..hdr).contains(&(bit / 8)), "bit {bit}");
                                assert_eq!(u.body, fields);
                            }
                            Ok(u) => assert_eq!(
                                u.body, fields,
                                "{codec:?} seed {seed}: bit {bit} changed the body"
                            ),
                        }
                    }
                }
            }
        }
    }

    /// Record logs: a tail torn at any length yields exactly the records
    /// that fit and their clean prefix; flipped length/trailer words tear
    /// the log at that record; flipped header words are errors.
    #[test]
    fn seeded_record_log_fuzz_clean_prefix() {
        const MAGIC: u32 = 0x4c53_4748;
        for seed in [3u64, 1776, 0xfeed_f00d] {
            println!("frame record-log fuzz seed {seed}");
            let mut s = seed;
            for codec in CodecChoice::ALL {
                let mut log = PayloadWriter::new();
                log.put_raw(&record_log_header(MAGIC, codec));
                let mut want = Vec::new();
                // (start, end) of each record in `log`.
                let mut spans = Vec::new();
                let mut extra = 0u64;
                for i in 0..6u8 {
                    s = mix(s);
                    let len = (mix(s) % 300) as usize * (i as usize % 3);
                    let body = seeded_bytes(&mut s, len);
                    let start = log.len();
                    let logical = push_record(&mut log, i, &body, codec);
                    assert_eq!(logical, (RECORD_OVERHEAD + body.len()) as u64);
                    extra += logical.saturating_sub((log.len() - start) as u64);
                    spans.push((start, log.len()));
                    want.push(LogRecord { kind: i, body });
                }

                let log = log.into_bytes();
                let scan = scan_records(MAGIC, &log).expect("intact log scans");
                assert_eq!(scan.codec, codec);
                assert_eq!(scan.records, want, "{codec:?} seed {seed}");
                assert_eq!(scan.clean_len, log.len());
                assert_eq!(scan.decoded_extra, extra);

                for cut in 0..log.len() {
                    let got = scan_records(MAGIC, &log[..cut]);
                    if cut < RECORD_LOG_HEADER_LEN {
                        assert!(got.is_err(), "{codec:?}: header cut {cut} scanned");
                        continue;
                    }
                    let got = got.expect("a torn tail is not an error");
                    let whole = spans.iter().take_while(|&&(_, end)| end <= cut).count();
                    assert_eq!(
                        got.records,
                        want[..whole],
                        "{codec:?} seed {seed} cut {cut}"
                    );
                    let clean = if whole == 0 {
                        RECORD_LOG_HEADER_LEN
                    } else {
                        spans[whole - 1].1
                    };
                    assert_eq!(got.clean_len, clean, "{codec:?} seed {seed} cut {cut}");
                }

                // Magic and layout word.
                for bit in 0..8 * 8 {
                    assert!(scan_records(MAGIC, &flipped(&log, bit)).is_err());
                }
                // The codec byte only decides "blob frames or not": a flip
                // may be an error or change how bodies read, never panic.
                for bit in 8 * 8..9 * 8 {
                    if let Ok(got) = scan_records(MAGIC, &flipped(&log, bit)) {
                        if got.codec.is_none() == codec.is_none() {
                            assert_eq!(got.records, want);
                        }
                    }
                }
                // Length and trailer words of every record.
                for (i, &(start, end)) in spans.iter().enumerate() {
                    let bits = ((start + 1) * 8..(start + 9) * 8).chain((end - 8) * 8..end * 8);
                    for bit in bits {
                        let got = scan_records(MAGIC, &flipped(&log, bit))
                            .expect("a bad record frame tears the log, it is not an error");
                        assert_eq!(got.records, want[..i], "{codec:?} seed {seed} bit {bit}");
                        assert_eq!(got.clean_len, start);
                    }
                    // Coded: the blob frame's tag and varints. Framing
                    // still checks out, so this is corruption.
                    if !codec.is_none() {
                        let frame_words = blob_frame_header_len(&log, start + 9);
                        for bit in (start + 9) * 8..(start + 9 + frame_words) * 8 {
                            match scan_records(MAGIC, &flipped(&log, bit)) {
                                Err(_) => {}
                                Ok(got) => assert_eq!(got.records, want, "bit {bit}"),
                            }
                        }
                    }
                }
            }
        }
    }
}
