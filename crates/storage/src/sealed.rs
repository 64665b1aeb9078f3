//! Sealed whole files on a [`Vfs`]: one classified sequential write to
//! commit, one classified sequential read to open.
//!
//! The byte layout is [`hybridgraph_codec::frame`]'s; what lives here is
//! the I/O: which access class each side is charged to, and the
//! physical-vs-logical split when the body is coded.

use crate::stats::AccessClass;
use crate::vfs::Vfs;
use hybridgraph_codec::frame::{self, PayloadWriter, Unsealed};
use hybridgraph_codec::CodecChoice;
use std::io;

/// Seals `fields` and writes them as file `name` in one sequential write
/// (any prior file of that name is truncated). Returns the physical bytes
/// written; the write is accounted physical-vs-logical.
pub(crate) fn commit(
    vfs: &dyn Vfs,
    name: &str,
    magic: u32,
    ids: &[u64],
    fields: PayloadWriter,
    codec: CodecChoice,
) -> io::Result<u64> {
    let file = vfs.create(name)?;
    let (bytes, logical) = frame::seal(magic, ids, fields, codec);
    file.append_coded(AccessClass::SeqWrite, &bytes, logical)?;
    Ok(bytes.len() as u64)
}

/// Reads file `name` whole (one sequential read) and unseals it.
pub(crate) fn open(vfs: &dyn Vfs, name: &str, magic: u32, id_words: usize) -> io::Result<Unsealed> {
    let data = vfs.open(name)?.read_all(AccessClass::SeqRead)?;
    let unsealed = frame::unseal(magic, id_words, &data)?;
    // The whole-file read above charged logical == physical; top up to the
    // decoded (plain-equivalent) logical size.
    vfs.stats().record_logical(
        AccessClass::SeqRead,
        unsealed.logical_len.saturating_sub(data.len() as u64),
    );
    Ok(unsealed)
}
