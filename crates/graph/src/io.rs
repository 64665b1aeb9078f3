//! Text graph serialization: the whitespace adjacency format used by the
//! raw datasets the paper loads ("src dst1 dst2 ..."), plus a weighted
//! edge-list variant ("src dst weight"). The workspace's one binary graph
//! layout is storage's graph blob (`encode_graph` / `decode_graph`).

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::ids::VertexId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

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
    fn malformed_text_is_an_error() {
        assert!(read_edge_list(3, "0 x".as_bytes()).is_err());
        assert!(read_adjacency(3, "zero 1".as_bytes()).is_err());
        assert!(read_edge_list(3, "0".as_bytes()).is_err());
    }
}
