//! Text and binary graph serialization.
//!
//! The text format is the whitespace adjacency format used by the raw
//! datasets the paper loads ("src dst1 dst2 ..."), plus a weighted edge-list
//! variant ("src dst weight"). The binary format is a compact little-endian
//! CSR dump used by the examples to persist generated graphs.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::edge::Edge;
use crate::ids::VertexId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `g` in adjacency text format: one line per vertex with out-edges,
/// `src dst1 dst2 ...`. Weights are not preserved.
pub fn write_adjacency<W: Write>(g: &Graph, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    for v in g.vertices() {
        if g.out_degree(v) == 0 {
            continue;
        }
        write!(w, "{}", v.0)?;
        for e in g.out_edges(v) {
            write!(w, " {}", e.dst.0)?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads the adjacency text format produced by [`write_adjacency`].
///
/// `n` must be at least one greater than the largest id mentioned; pass the
/// intended vertex count so isolated trailing vertices are preserved.
pub fn read_adjacency<R: Read>(n: usize, input: R) -> io::Result<Graph> {
    let r = BufReader::new(input);
    let mut b = GraphBuilder::new(n);
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let src: u32 = it
            .next()
            .unwrap()
            .parse()
            .map_err(|e| bad_line(lineno, e))?;
        for tok in it {
            let dst: u32 = tok.parse().map_err(|e| bad_line(lineno, e))?;
            b.add(VertexId(src), VertexId(dst));
        }
    }
    Ok(b.build())
}

/// Writes `g` as a weighted edge list: `src dst weight` per line.
pub fn write_edge_list<W: Write>(g: &Graph, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    for (s, e) in g.edges() {
        writeln!(w, "{} {} {}", s.0, e.dst.0, e.weight)?;
    }
    w.flush()
}

/// Reads a weighted edge list (`src dst [weight]`; weight defaults to 1).
pub fn read_edge_list<R: Read>(n: usize, input: R) -> io::Result<Graph> {
    let r = BufReader::new(input);
    let mut b = GraphBuilder::new(n);
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let src: u32 = it
            .next()
            .unwrap()
            .parse()
            .map_err(|e| bad_line(lineno, e))?;
        let dst: u32 = it
            .next()
            .ok_or_else(|| bad_line(lineno, "missing dst"))?
            .parse()
            .map_err(|e| bad_line(lineno, e))?;
        let weight: f32 = match it.next() {
            Some(tok) => tok.parse().map_err(|e| bad_line(lineno, e))?,
            None => 1.0,
        };
        b.add_weighted(VertexId(src), VertexId(dst), weight);
    }
    Ok(b.build())
}

const BINARY_MAGIC: &[u8; 8] = b"HYGRAPH1";

/// Largest vector [`read_body`] reserves on the say-so of a count it has
/// only read: a stream has no "bytes remaining" to size the count
/// against, so past this the vectors grow as `read_exact` delivers.
const MAX_PREALLOC: usize = 1 << 20;

/// Writes the binary graph body — `n u64 | m u64 | out-degree u32 per
/// vertex | (dst u32, weight f32) per edge`, all little-endian. This is
/// the workspace's one binary graph layout: [`write_binary`] puts a magic
/// in front of it, the service's registration records carry it bare.
pub fn write_body<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for v in g.vertices() {
        w.write_all(&(g.out_degree(v) as u32).to_le_bytes())?;
    }
    for (_, e) in g.edges() {
        w.write_all(&e.dst.0.to_le_bytes())?;
        w.write_all(&e.weight.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the body written by [`write_body`], leaving `r` just past it.
pub fn read_body<R: Read>(r: &mut R) -> io::Result<Graph> {
    let n = read_u64(r)?;
    let m = read_u64(r)?;
    let prealloc = |count: u64| count.min(MAX_PREALLOC as u64) as usize;
    let mut offsets = Vec::with_capacity(prealloc(n.saturating_add(1)));
    offsets.push(0u64);
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.saturating_add(read_u32(r)? as u64);
        offsets.push(acc);
    }
    if acc != m {
        return Err(invalid("degree sum does not match edge count"));
    }
    let mut edges = Vec::with_capacity(prealloc(m));
    for _ in 0..m {
        let dst = VertexId(read_u32(r)?);
        edges.push(Edge::weighted(dst, f32::from_bits(read_u32(r)?)));
    }
    Ok(Graph::from_parts(offsets, edges))
}

/// Writes `g` in the compact binary CSR format.
pub fn write_binary<W: Write>(g: &Graph, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    w.write_all(BINARY_MAGIC)?;
    write_body(g, &mut w)?;
    w.flush()
}

/// Reads the binary CSR format produced by [`write_binary`].
pub fn read_binary<R: Read>(input: R) -> io::Result<Graph> {
    let mut r = BufReader::new(input);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(invalid("bad magic"));
    }
    read_body(&mut r)
}

/// Saves a graph to `path` in binary format.
pub fn save<P: AsRef<Path>>(g: &Graph, path: P) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Loads a graph from `path` in binary format.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    read_binary(std::fs::File::open(path)?)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn bad_line<E: std::fmt::Display>(lineno: usize, e: E) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: {}", lineno + 1, e),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn adjacency_roundtrip() {
        let g = gen::uniform(50, 300, 5);
        let mut buf = Vec::new();
        write_adjacency(&g, &mut buf).unwrap();
        let back = read_adjacency(50, buf.as_slice()).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        for v in g.vertices() {
            let a: Vec<_> = g.out_edges(v).iter().map(|e| e.dst).collect();
            let b: Vec<_> = back.out_edges(v).iter().map(|e| e.dst).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn edge_list_roundtrip_preserves_weights() {
        let g = gen::randomize_weights(&gen::cycle(8), 1.0, 4.0, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(8, buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_default_weight() {
        let txt = "0 1\n1 2 3.5\n# comment\n\n";
        let g = read_edge_list(3, txt.as_bytes()).unwrap();
        assert_eq!(g.out_edges(VertexId(0))[0].weight, 1.0);
        assert_eq!(g.out_edges(VertexId(1))[0].weight, 3.5);
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::rmat(128, 1024, gen::RmatParams::default(), 9);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC________"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join("hygraph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = gen::uniform(20, 60, 1);
        save(&g, &path).unwrap();
        assert_eq!(load(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_text_is_an_error() {
        assert!(read_edge_list(3, "0 x".as_bytes()).is_err());
        assert!(read_adjacency(3, "zero 1".as_bytes()).is_err());
        assert!(read_edge_list(3, "0".as_bytes()).is_err());
    }
}
