//! Probes of `storage`: spill buffer, VE-BLOCK and adjacency stores,
//! checkpoint, message log, service log and the in-memory VFS.
//! Throughputs are over logical (uncompressed) bytes.

use super::{ProbeCtx, BLOCKS_PER_WORKER, MB};
use crate::workloads::WORKERS;
use hybridgraph::graph::{BlockLayout, WorkerId};
use hybridgraph::net::{encode_batch, BatchKind};
use hybridgraph::prelude::*;
use hybridgraph::storage::adjacency::AdjacencyStore;
use hybridgraph::storage::msg_store::SpillBuffer;
use hybridgraph::storage::veblock::{VeBlockStore, FRAGMENT_AUX_BYTES};
use hybridgraph::storage::{
    AccessClass, CheckpointReader, CheckpointWriter, MsgLogReader, MsgLogWriter, ServiceLog,
};

/// Messages pushed through the spill buffer per call.
const SPILL_MESSAGES: usize = 200_000;
/// Buffer size for workloads that run with ample memory.
const DEFAULT_SPILL_BUFFER: usize = 5_000;
/// Message-log entries per segment and bytes per entry.
const LOG_ENTRIES: usize = 64;
const LOG_ENTRY_MESSAGES: usize = 1_024;
/// Service-log records per call and bytes per record body.
const WAL_RECORDS: usize = 1_000;
const WAL_BODY_BYTES: usize = 256;
/// Classified VFS operations are 64 KiB each, 256 per call (16 MiB).
const VFS_CHUNK: usize = 64 * 1024;
const VFS_CHUNKS: usize = 256;

pub fn run(ctx: &mut ProbeCtx<'_>) {
    ctx.span("storage.spill", spill);
    ctx.span("storage.veblock", veblock);
    ctx.span("storage.adjacency", adjacency);
    ctx.span("storage.checkpoint", checkpoint);
    ctx.span("storage.msglog", msglog);
    ctx.span("storage.servicelog", servicelog);
    ctx.span("storage.memvfs", memvfs);
}

/// The first `count` edges of the graph as `(destination, payload)`
/// messages — real destinations, so sorting and grouping see real skew.
pub(super) fn edge_messages(graph: &Graph, count: usize) -> Vec<(VertexId, f64)> {
    graph
        .edges()
        .take(count)
        .map(|(_, e)| (e.dst, f64::from(e.weight)))
        .collect()
}

fn spill(ctx: &mut ProbeCtx<'_>) {
    let msgs = edge_messages(ctx.graph, SPILL_MESSAGES);
    let capacity = if ctx.cfg.memory_limited() {
        ctx.cfg.buffer_messages
    } else {
        ctx.sizing.buffer(DEFAULT_SPILL_BUFFER)
    };
    let fresh = || SpillBuffer::<f64>::new(&MemVfs::new(), "spill", capacity).expect("spill file");
    let fill = |buf: &mut SpillBuffer<f64>| {
        for (dst, m) in &msgs {
            buf.push(*dst, *m).expect("spill push");
        }
    };
    let mut probe = fresh();
    fill(&mut probe);
    ctx.report.set(
        "storage.spilled_share",
        probe.spilled() as f64 / probe.total() as f64,
        msgs.len(),
    );

    let mmsgs = msgs.len() as f64 / 1e6;
    let secs = ctx.sample_with(fresh, |mut buf| fill(&mut buf));
    ctx.rate("storage.spill_push_mmsg_s", mmsgs, &secs);
    let secs = ctx.sample_with(
        || {
            let mut buf = fresh();
            fill(&mut buf);
            buf
        },
        |mut buf| {
            std::hint::black_box(buf.drain().expect("spill drain"));
        },
    );
    ctx.rate("storage.spill_drain_mmsg_s", mmsgs, &secs);
}

fn veblock(ctx: &mut ProbeCtx<'_>) {
    let graph = ctx.graph;
    let codec = ctx.cfg.codec;
    let partition = Partition::range(graph.num_vertices(), WORKERS);
    let layout = BlockLayout::uniform(&partition, BLOCKS_PER_WORKER);
    let build = |vfs: &MemVfs| -> Vec<VeBlockStore> {
        partition
            .workers()
            .map(|w| {
                VeBlockStore::build_with(vfs, graph, &layout, w, codec).expect("VE-BLOCK build")
            })
            .collect()
    };
    let stores = build(&MemVfs::new());
    let logical_mb = stores
        .iter()
        .map(|s| s.total_edge_bytes() + s.total_fragments() * FRAGMENT_AUX_BYTES)
        .sum::<u64>() as f64
        / MB;

    let secs = ctx.sample_with(MemVfs::new, |vfs| {
        std::hint::black_box(build(&vfs));
    });
    ctx.rate("storage.veblock_build_mb_s", logical_mb, &secs);

    let secs = ctx.sample(|| {
        for (w, store) in stores.iter().enumerate() {
            for j in layout.blocks_of_worker(WorkerId::from(w)) {
                for i in layout.block_ids() {
                    std::hint::black_box(store.scan_eblock(j, i).expect("Eblock scan"));
                }
            }
        }
    });
    ctx.rate("storage.veblock_scan_mb_s", logical_mb, &secs);
}

fn adjacency(ctx: &mut ProbeCtx<'_>) {
    let graph = ctx.graph;
    let codec = ctx.cfg.codec;
    let partition = Partition::range(graph.num_vertices(), WORKERS);
    let logical_mb = graph.num_edges() as f64 * 8.0 / MB;
    let secs = ctx.sample_with(MemVfs::new, |vfs| {
        for w in partition.workers() {
            let name = format!("adj{}", w.index());
            let range = partition.worker_range(w);
            std::hint::black_box(
                AdjacencyStore::build_with(&vfs, &name, graph, range, codec)
                    .expect("adjacency build"),
            );
        }
    });
    ctx.rate("storage.adjacency_build_mb_s", logical_mb, &secs);
}

/// A checkpoint the size of one worker's share of the graph: its value
/// segment and its responding-flag bitset.
fn checkpoint(ctx: &mut ProbeCtx<'_>) {
    let n = ctx.graph.num_vertices() / WORKERS;
    let values: Vec<u8> = (0..n)
        .flat_map(|v| (1.0 / (v + 1) as f64).to_le_bytes())
        .collect();
    let flags: Vec<u64> = (0..n.div_ceil(64) as u64)
        .map(|w| w.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let codec = ctx.codec_or_gaps();
    let vfs = MemVfs::new();
    let write = || {
        let mut w = CheckpointWriter::new(1);
        w.put_bytes(&values);
        w.put_words(&flags);
        let logical = w.payload_bytes();
        w.commit_with(&vfs, codec).expect("checkpoint commit");
        logical
    };
    let logical_mb = write() as f64 / MB;
    let secs = ctx.sample(|| {
        write();
    });
    ctx.rate("storage.checkpoint_write_mb_s", logical_mb, &secs);
    let secs = ctx.sample(|| {
        let mut r = CheckpointReader::open(&vfs, 1).expect("checkpoint open");
        std::hint::black_box((
            r.get_bytes().expect("values"),
            r.get_words().expect("flags"),
        ));
    });
    ctx.rate("storage.checkpoint_read_mb_s", logical_mb, &secs);
}

/// One superstep's outgoing-packet log: wire batches of real messages.
fn msglog(ctx: &mut ProbeCtx<'_>) {
    let mut msgs = edge_messages(ctx.graph, LOG_ENTRY_MESSAGES);
    let (blob, _) = encode_batch(BatchKind::Plain, &mut msgs, None);
    let codec = ctx.codec_or_gaps();
    let vfs = MemVfs::new();
    let write = || {
        let mut w = MsgLogWriter::new(1);
        for dest in 0..LOG_ENTRIES as u32 {
            w.push(dest % WORKERS as u32, &blob);
        }
        w.commit_with(&vfs, codec).expect("message-log commit");
    };
    write();
    let logical_mb = (LOG_ENTRIES * blob.len()) as f64 / MB;
    let secs = ctx.sample(write);
    ctx.rate("storage.msglog_append_mb_s", logical_mb, &secs);
    let secs = ctx.sample(|| {
        let mut r = MsgLogReader::open(&vfs, 1).expect("message-log open");
        std::hint::black_box(r.read_all_entries().expect("message-log entries"));
    });
    ctx.rate("storage.msglog_read_mb_s", logical_mb, &secs);
}

/// The durable service's write-ahead log. No workload runs a durable
/// pool today; these two are the baseline for one that will.
fn servicelog(ctx: &mut ProbeCtx<'_>) {
    let body = vec![0x5au8; WAL_BODY_BYTES];
    let fill = |log: &ServiceLog| {
        for _ in 0..WAL_RECORDS {
            log.append(1, &body).expect("service-log append");
        }
    };
    let secs = ctx.sample_with(
        || ServiceLog::create(&MemVfs::new(), CodecChoice::None).expect("service-log create"),
        |log| fill(&log),
    );
    ctx.latency(
        "storage.servicelog_append_us",
        1e6,
        WAL_RECORDS as f64,
        &secs,
    );

    let vfs = MemVfs::new();
    let log = ServiceLog::create(&vfs, CodecChoice::None).expect("service-log create");
    fill(&log);
    let log_mb = log.len_bytes() as f64 / MB;
    let secs = ctx.sample(|| {
        let (_, records) = ServiceLog::open(&vfs).expect("service-log replay");
        assert_eq!(records.len(), WAL_RECORDS);
    });
    ctx.rate("storage.servicelog_replay_mb_s", log_mb, &secs);
}

fn memvfs(ctx: &mut ProbeCtx<'_>) {
    let chunk = vec![0xa5u8; VFS_CHUNK];
    let total_mb = (VFS_CHUNK * VFS_CHUNKS) as f64 / MB;
    let vfs = MemVfs::new();
    let append_all = || {
        let file = vfs.create("probe").expect("vfs create");
        for _ in 0..VFS_CHUNKS {
            file.append(AccessClass::SeqWrite, &chunk)
                .expect("vfs append");
        }
        file
    };
    let secs = ctx.sample(|| {
        append_all();
    });
    ctx.rate("storage.memvfs_append_mb_s", total_mb, &secs);
    let file = append_all();
    let secs = ctx.sample(|| {
        for i in 0..VFS_CHUNKS {
            let off = (i * VFS_CHUNK) as u64;
            std::hint::black_box(
                file.read_vec(AccessClass::SeqRead, off, VFS_CHUNK)
                    .expect("vfs read"),
            );
        }
    });
    ctx.rate("storage.memvfs_read_mb_s", total_mb, &secs);
}
