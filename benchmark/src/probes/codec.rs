//! Probes of `codec`: the `gaps` and `bv` extent tiers on the graph's own
//! Eblock extents, blob framing on a checkpoint-sized payload, and
//! Elias-Fano over the graph's adjacency offsets.

use super::{ProbeCtx, BLOCKS_PER_WORKER, MB};
use crate::workloads::WORKERS;
use hybridgraph::codec::ef::EliasFano;
use hybridgraph::codec::{
    decode_blob_frame, decode_extent, encode_blob_frame, encode_extent, ExtentKind,
};
use hybridgraph::graph::BlockLayout;
use hybridgraph::prelude::*;

/// `EliasFano::get` calls per timed call.
const EF_GETS: u64 = 1_000_000;

pub fn run(ctx: &mut ProbeCtx<'_>) {
    let extents = ctx.span("codec.extents", |ctx| fragment_extents(ctx.graph));
    ctx.span("codec.gaps", |ctx| {
        tier(
            ctx,
            CodecChoice::Gaps,
            &extents,
            [
                "codec.gaps_encode_mb_s",
                "codec.gaps_decode_mb_s",
                "codec.gaps_ratio",
            ],
        )
    });
    ctx.span("codec.bv", |ctx| {
        tier(
            ctx,
            CodecChoice::Bv,
            &extents,
            [
                "codec.bv_encode_mb_s",
                "codec.bv_decode_mb_s",
                "codec.bv_ratio",
            ],
        )
    });
    ctx.span("codec.blob", blob);
    ctx.span("codec.ef", elias_fano);
}

/// The raw `svertex | count | edges…` stream of every Eblock `g_{j,i}`
/// of a uniform layout — what `VeBlockStore` hands to `encode_extent`.
fn fragment_extents(graph: &Graph) -> Vec<Vec<u8>> {
    let layout = BlockLayout::uniform(
        &Partition::range(graph.num_vertices(), WORKERS),
        BLOCKS_PER_WORKER,
    );
    let blocks = layout.num_blocks();
    let mut extents = vec![Vec::new(); blocks * blocks];
    for src in graph.vertices() {
        let j = layout.block_of(src).index();
        // CSR rows are sorted by destination, so each destination block's
        // edges are one contiguous run.
        let mut edges = graph.out_edges(src);
        while let Some(first) = edges.first() {
            let i = layout.block_of(first.dst);
            let run = edges
                .iter()
                .take_while(|e| layout.block_of(e.dst) == i)
                .count();
            let out = &mut extents[j * blocks + i.index()];
            out.extend_from_slice(&src.0.to_le_bytes());
            out.extend_from_slice(&(run as u32).to_le_bytes());
            for e in &edges[..run] {
                out.extend_from_slice(&e.dst.0.to_le_bytes());
                out.extend_from_slice(&e.weight.to_le_bytes());
            }
            edges = &edges[run..];
        }
    }
    extents.retain(|e| !e.is_empty());
    extents
}

fn tier(
    ctx: &mut ProbeCtx<'_>,
    choice: CodecChoice,
    extents: &[Vec<u8>],
    names: [&'static str; 3],
) {
    let encode = || -> Vec<Vec<u8>> {
        extents
            .iter()
            .map(|raw| encode_extent(choice, ExtentKind::Fragments, raw))
            .collect()
    };
    let coded = encode();
    let logical: usize = extents.iter().map(Vec::len).sum();
    let physical: usize = coded.iter().map(Vec::len).sum();
    let secs = ctx.sample(|| {
        std::hint::black_box(encode());
    });
    ctx.rate(names[0], logical as f64 / MB, &secs);
    let secs = ctx.sample(|| {
        for (raw, c) in extents.iter().zip(&coded) {
            std::hint::black_box(
                decode_extent(ExtentKind::Fragments, c, raw.len()).expect("extent decode"),
            );
        }
    });
    ctx.rate(names[1], logical as f64 / MB, &secs);
    ctx.report
        .set(names[2], physical as f64 / logical as f64, extents.len());
}

/// Blob frames under `gaps` (the tier `sssp_hybrid_ckpt` checkpoints and
/// logs with): framing only, the payload stays raw.
fn blob(ctx: &mut ProbeCtx<'_>) {
    let n = ctx.graph.num_vertices() / WORKERS;
    let payload: Vec<u8> = (0..n)
        .flat_map(|v| (1.0 / (v + 1) as f64).to_le_bytes())
        .collect();
    let mb = payload.len() as f64 / MB;
    let frame = encode_blob_frame(CodecChoice::Gaps, &payload);
    let secs = ctx.sample(|| {
        std::hint::black_box(encode_blob_frame(CodecChoice::Gaps, &payload));
    });
    ctx.rate("codec.blob_gaps_encode_mb_s", mb, &secs);
    let secs = ctx.sample(|| {
        let mut pos = 0;
        std::hint::black_box(decode_blob_frame(&frame, &mut pos).expect("blob decode"));
    });
    ctx.rate("codec.blob_gaps_decode_mb_s", mb, &secs);
}

/// Elias-Fano over the byte offsets of the graph's adjacency runs — the
/// directory ROADMAP item 3 wants `VeBlockStore` served through.
fn elias_fano(ctx: &mut ProbeCtx<'_>) {
    let mut offsets = Vec::with_capacity(ctx.graph.num_vertices() + 1);
    let mut at = 0u64;
    offsets.push(at);
    for v in ctx.graph.vertices() {
        at += ctx.graph.out_degree(v) as u64 * 8;
        offsets.push(at);
    }
    let secs = ctx.sample(|| {
        std::hint::black_box(EliasFano::build(&offsets).expect("monotone offsets"));
    });
    ctx.rate(
        "codec.ef_build_mb_s",
        offsets.len() as f64 * 8.0 / MB,
        &secs,
    );

    let ef = EliasFano::build(&offsets).expect("monotone offsets");
    let n = ef.len();
    let secs = ctx.sample(|| {
        // A stride coprime to n visits positions out of order.
        let (mut i, mut acc) = (0u64, 0u64);
        for _ in 0..EF_GETS {
            acc = acc.wrapping_add(ef.get(i));
            i = (i + 7_919) % n;
        }
        std::hint::black_box(acc);
    });
    ctx.latency("codec.ef_get_ns", 1e9, EF_GETS as f64, &secs);
}
