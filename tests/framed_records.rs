//! Round-trip property tests for the framed on-disk record formats:
//! fixed-width [`Record`] slices, codec blob frames, and the
//! checkpoint / message-log / service-log file formats (plain and coded),
//! plus golden fingerprints pinning their exact bytes.
//!
//! Each seeded case prints its seed on failure so a regression is
//! reproducible from the assertion message alone.

use hybridgraph::core::{ProgressSink, StepKind, SuperstepMetrics, WorkerCost, WorkerDisks};
use hybridgraph::graph::gen;
use hybridgraph::net::Packet;
use hybridgraph::prelude::*;
use hybridgraph::storage::adjacency::EdgeScratch;
use hybridgraph::storage::record::{decode_slice, encode_slice};
use hybridgraph::storage::segment::{
    file_name, Checkpoint, CheckpointReader, CheckpointWriter, LogEntry, MsgLog, MsgLogReader,
    MsgLogWriter,
};
use hybridgraph::storage::service_log::{ServiceLog, SERVICE_LOG_FILE};
use hybridgraph::storage::{decode_graph, encode_graph, AccessClass, IoSnapshot, IoStats, Record};
use hybridgraph_codec::frame;
use hybridgraph_codec::{decode_blob_frame, encode_blob_frame};
use hybridgraph_graph::rng::SplitMix64;
use std::sync::{Arc, Mutex};

const SEEDS: [u64; 4] = [1, 42, 0xdead_beef, 0x0123_4567_89ab_cdef];

// ---------------------------------------------------------------- records

#[test]
fn record_slices_roundtrip_randomized() {
    for seed in SEEDS {
        let mut r = SplitMix64::new(seed);
        for _ in 0..50 {
            let n = r.range_usize(0, 64);
            let pairs: Vec<(VertexId, f64)> = (0..n)
                .map(|_| (VertexId(r.next_u64() as u32), f64::from_bits(r.next_u64())))
                .collect();
            let bytes = encode_slice(&pairs);
            assert_eq!(bytes.len(), n * <(VertexId, f64)>::BYTES, "seed {seed}");
            let back = decode_slice::<(VertexId, f64)>(&bytes).expect("whole records");
            // Bit-level comparison: NaN payloads must survive too.
            assert_eq!(back.len(), pairs.len(), "seed {seed}");
            for (a, b) in back.iter().zip(&pairs) {
                assert_eq!(a.0, b.0, "seed {seed}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "seed {seed}");
            }
        }
    }
}

#[test]
fn empty_record_slice_roundtrips() {
    let bytes = encode_slice::<u64>(&[]);
    assert!(bytes.is_empty());
    assert!(decode_slice::<u64>(&bytes).expect("no records").is_empty());
}

// ------------------------------------------------------------ blob frames

#[test]
fn blob_frames_roundtrip_randomized() {
    for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
        for seed in SEEDS {
            let mut r = SplitMix64::new(seed);
            for _ in 0..25 {
                let n = r.range_usize(0, 2000);
                // Mix of runs (compressible) and noise (incompressible).
                let raw: Vec<u8> = (0..n)
                    .map(|i| {
                        if r.next_bool() {
                            (i / 17) as u8
                        } else {
                            r.next_u64() as u8
                        }
                    })
                    .collect();
                let frame = encode_blob_frame(codec, &raw);
                let mut pos = 0;
                let back = decode_blob_frame(&frame, &mut pos).expect("decode");
                assert_eq!(back, raw, "{codec:?} seed {seed}");
                assert_eq!(pos, frame.len(), "{codec:?} seed {seed}");
            }
        }
    }
}

#[test]
fn empty_blob_frame_roundtrips() {
    for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
        let frame = encode_blob_frame(codec, &[]);
        let mut pos = 0;
        assert!(decode_blob_frame(&frame, &mut pos)
            .expect("decode")
            .is_empty());
        assert_eq!(pos, frame.len());
    }
}

#[test]
fn truncated_blob_frame_is_an_error_not_a_panic() {
    let raw: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
    for codec in CodecChoice::ALL.into_iter().filter(|c| !c.is_none()) {
        let frame = encode_blob_frame(codec, &raw);
        for cut in 0..frame.len() {
            let mut pos = 0;
            assert!(
                decode_blob_frame(&frame[..cut], &mut pos).is_err(),
                "{codec:?}: truncation at {cut}/{} must error",
                frame.len()
            );
        }
    }
}

// ------------------------------------------------------------ checkpoints

fn roundtrip_checkpoint(codec: CodecChoice, fields: &[Vec<u8>], words: &[u64]) {
    let vfs = MemVfs::new();
    let mut w = CheckpointWriter::new(9);
    for f in fields {
        w.put_bytes(f);
    }
    w.put_words(words);
    w.put(&f64::NAN);
    w.commit_with(&vfs, codec).expect("commit");
    let mut r = CheckpointReader::open(&vfs, 9).expect("open");
    assert_eq!(r.superstep(), 9);
    for f in fields {
        assert_eq!(&r.get_bytes().expect("field"), f, "{codec:?}");
    }
    assert_eq!(r.get_words().expect("words"), words, "{codec:?}");
    assert!(r.get::<f64>().expect("f64").is_nan(), "{codec:?}");
}

#[test]
fn checkpoint_empty_payloads_roundtrip_all_codecs() {
    for codec in CodecChoice::ALL {
        // Zero-length byte runs and an empty word run are legal fields.
        roundtrip_checkpoint(codec, &[vec![], vec![]], &[]);
    }
}

#[test]
fn checkpoint_max_length_fields_roundtrip_all_codecs() {
    let mut r = SplitMix64::new(7);
    // A large field dwarfing the header, with incompressible content.
    let big: Vec<u8> = (0..1 << 16).map(|_| r.next_u64() as u8).collect();
    let words: Vec<u64> = (0..4096).map(|_| r.next_u64()).collect();
    for codec in CodecChoice::ALL {
        roundtrip_checkpoint(codec, &[big.clone(), vec![0xab; 3]], &words);
    }
}

#[test]
fn truncated_checkpoint_rejected_all_codecs() {
    for codec in CodecChoice::ALL {
        let vfs = MemVfs::new();
        let mut w = CheckpointWriter::new(3);
        w.put_bytes(&[7u8; 4096]);
        w.commit_with(&vfs, codec).expect("commit");
        let file = vfs.open(&file_name::<Checkpoint>(3)).expect("open file");
        let len = file.len();
        // Descending cuts: each truncate_to actually shrinks the file.
        for cut in [len - 1, len / 2, 1, 0] {
            file.truncate_to(cut).expect("truncate");
            assert!(
                CheckpointReader::open(&vfs, 3).is_err(),
                "{codec:?}: checkpoint cut to {cut}/{len} must be rejected"
            );
        }
    }
}

#[test]
fn oversized_field_length_is_an_error_not_a_panic() {
    // A field whose declared length overruns the body must surface as a
    // read error when decoded, not index out of bounds.
    let vfs = MemVfs::new();
    let mut w = CheckpointWriter::new(1);
    w.put(&u64::MAX); // masquerades as a huge byte-run length
    w.commit(&vfs).expect("commit");
    let mut r = CheckpointReader::open(&vfs, 1).expect("open");
    assert!(r.get_bytes().is_err());
}

// ------------------------------------------------------------- msg logs

#[test]
fn msg_log_roundtrips_randomized_all_codecs() {
    for codec in CodecChoice::ALL {
        for seed in SEEDS {
            let mut r = SplitMix64::new(seed);
            let entries: Vec<LogEntry> = (0..r.range_usize(0, 40))
                .map(|_| {
                    let blob: Vec<u8> = (0..r.range_usize(0, 300))
                        .map(|_| r.next_u64() as u8)
                        .collect();
                    LogEntry {
                        dest: r.next_u64() as u32,
                        blob,
                    }
                })
                .collect();
            let vfs = MemVfs::new();
            let mut w = MsgLogWriter::new(5);
            for e in &entries {
                w.push(e.dest, &e.blob);
            }
            w.commit_with(&vfs, codec).expect("commit");
            let mut rd = MsgLogReader::open(&vfs, 5).expect("open");
            assert_eq!(rd.superstep(), 5, "{codec:?} seed {seed}");
            let got = rd.read_all_entries().expect("entries");
            assert_eq!(got, entries, "{codec:?} seed {seed}");
        }
    }
}

#[test]
fn msg_log_empty_payload_entries_roundtrip() {
    for codec in CodecChoice::ALL {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(2);
        w.push(11, &[]);
        w.push(12, &[]);
        w.commit_with(&vfs, codec).expect("commit");
        let got = MsgLogReader::open(&vfs, 2)
            .expect("open")
            .read_all_entries()
            .expect("entries");
        let empty = |dest| LogEntry {
            dest,
            blob: Vec::new(),
        };
        assert_eq!(got, [empty(11), empty(12)], "{codec:?}");
    }
}

#[test]
fn truncated_msg_log_rejected_all_codecs() {
    for codec in CodecChoice::ALL {
        let vfs = MemVfs::new();
        let mut w = MsgLogWriter::new(6);
        for i in 0..32u32 {
            w.push(i, &[i as u8; 100]);
        }
        w.commit_with(&vfs, codec).expect("commit");
        let file = vfs.open(&file_name::<MsgLog>(6)).expect("open file");
        let len = file.len();
        // Descending cuts: each truncate_to actually shrinks the file.
        for cut in [len - 1, len / 2, 5, 0] {
            file.truncate_to(cut).expect("truncate");
            let complete = MsgLogReader::open(&vfs, 6)
                .and_then(|mut r| r.read_all_entries())
                .is_ok();
            assert!(
                !complete,
                "{codec:?}: log cut to {cut}/{len} must not read back cleanly"
            );
        }
    }
}

// With `CodecChoice::None` the coded commit path must produce the exact
// plain byte stream — the no-codec invariant at the file-format level.
#[test]
fn none_codec_files_are_byte_identical_to_plain() {
    let build = |coded: bool| -> (Vec<u8>, Vec<u8>) {
        let vfs = MemVfs::new();
        let mut cw = CheckpointWriter::new(4);
        cw.put_bytes(b"payload");
        cw.put(&77u32);
        let mut lw = MsgLogWriter::new(4);
        lw.push(9, b"entry");
        if coded {
            cw.commit_with(&vfs, CodecChoice::None).expect("commit");
            lw.commit_with(&vfs, CodecChoice::None).expect("commit");
        } else {
            cw.commit(&vfs).expect("commit");
            lw.commit(&vfs).expect("commit");
        }
        (
            read_file(&vfs, &file_name::<Checkpoint>(4)),
            read_file(&vfs, &file_name::<MsgLog>(4)),
        )
    };
    assert_eq!(build(true), build(false));
}

// ------------------------------------------------- corrupt element counts

fn read_file(vfs: &MemVfs, name: &str) -> Vec<u8> {
    vfs.open(name)
        .expect("open")
        .read_all(AccessClass::SeqRead)
        .expect("read")
}

// A count that is intact as framing goes but absurd as a number must be a
// read error, not an allocation: before `get_count`, each of these three
// panicked with `capacity overflow`.
#[test]
fn huge_element_counts_are_errors_not_allocations() {
    // Sealed checkpoint, valid trailer, word-run count u64::MAX / 4.
    let vfs = MemVfs::new();
    let mut w = CheckpointWriter::new(1);
    w.put(&(u64::MAX / 4));
    w.put(&7u64);
    w.commit(&vfs).expect("commit");
    let err = CheckpointReader::open(&vfs, 1)
        .expect("framing is intact")
        .get_words()
        .expect_err("count cannot fit");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Message-log segment whose header claims u64::MAX / 16 entries: patch
    // the count id word of a committed one-entry segment (the trailer
    // only covers the length, so the file still unseals).
    let mut w = MsgLogWriter::new(2);
    w.push(0, b"entry");
    w.commit(&vfs).expect("commit");
    let mut bytes = read_file(&vfs, &file_name::<MsgLog>(2));
    bytes[16..24].copy_from_slice(&(u64::MAX / 16).to_le_bytes());
    vfs.create(&file_name::<MsgLog>(2))
        .expect("create")
        .append(AccessClass::SeqWrite, &bytes)
        .expect("append");
    let err = MsgLogReader::open(&vfs, 2)
        .and_then(|mut r| r.read_all_entries())
        .expect_err("count cannot fit");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // 16-byte graph blob: n = u64::MAX / 8 vertices, no edges, no body.
    let mut blob = (u64::MAX / 8).to_le_bytes().to_vec();
    blob.extend_from_slice(&0u64.to_le_bytes());
    let err = decode_graph(&blob).expect_err("count cannot fit");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

// ------------------------------------------------------- golden file bytes

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// "Byte for byte": FNV-1a fingerprints of whole files, captured by running
// this test body at the commit before `codec::frame` took over the
// layouts. The `BENCH_*.json` baselines only pin byte *counts*; this pins
// the bytes. A deliberate format change re-captures the constants.
#[test]
fn golden_file_bytes_are_pinned() {
    use hybridgraph::graph::{Edge, Graph};

    // Runs (compressible) interleaved with arithmetic noise, so the block
    // codec behind `Bv` blob frames and the raw frames under `Gaps` differ.
    let noise: Vec<u8> = (0..1500u32)
        .map(|i| {
            if (i / 100) % 2 == 0 {
                (i / 25) as u8
            } else {
                (i.wrapping_mul(2_654_435_761) >> 13) as u8
            }
        })
        .collect();
    // [checkpoint, msg-log segment, service log] per codec.
    let golden: [(CodecChoice, [u64; 3]); 3] = [
        (
            CodecChoice::None,
            [
                0x342d_1b23_658c_70c7,
                0x9a4a_3fd8_c3dc_a066,
                0xe2d2_5243_3b52_6fe9,
            ],
        ),
        (
            CodecChoice::Gaps,
            [
                0x8283_85df_67b5_5ce3,
                0x3883_c139_19c4_fe4a,
                0xfa37_c475_6673_28f6,
            ],
        ),
        (
            CodecChoice::Bv,
            [
                0x4188_0d0f_1d03_2c67,
                0xd0fc_0981_9246_c217,
                0x03ab_960d_f7c2_5cea,
            ],
        ),
    ];
    for (codec, want) in golden {
        let vfs = MemVfs::new();

        let mut cw = CheckpointWriter::new(0x0102_0304_0506);
        cw.put(&0xa5u8);
        cw.put(&0xdead_beefu32);
        cw.put(&(u64::MAX - 7));
        cw.put(&-0.0f64);
        cw.put_bytes(&noise);
        cw.put_bytes(&[]);
        cw.put_words(&[0, 1, u64::MAX, 0x8000_0000_0000_0000]);
        cw.commit_with(&vfs, codec).expect("checkpoint commit");

        let mut lw = MsgLogWriter::new(77);
        lw.push(3, &noise[..700]);
        lw.push(0, &[]);
        lw.push(u32::MAX, &noise[700..]);
        lw.commit_with(&vfs, codec).expect("msg-log commit");

        let log = ServiceLog::create(&vfs, codec).expect("service-log create");
        log.append(1, &noise).expect("append");
        log.append(0xff, &[]).expect("append");
        log.append(6, &[9u8; 300]).expect("append");

        let got = [
            fnv1a(&read_file(&vfs, &file_name::<Checkpoint>(0x0102_0304_0506))),
            fnv1a(&read_file(&vfs, &file_name::<MsgLog>(77))),
            fnv1a(&read_file(&vfs, SERVICE_LOG_FILE)),
        ];
        assert_eq!(
            got, want,
            "{codec:?}: [checkpoint, msg-log, service-log] = {got:#018x?}"
        );
    }

    let g = Graph::from_parts(
        vec![0, 2, 2, 5, 6],
        vec![
            Edge::weighted(VertexId(1), 1.0),
            Edge::weighted(VertexId(3), 0.5),
            Edge::weighted(VertexId(0), -2.25),
            Edge::weighted(VertexId(1), f32::MIN_POSITIVE),
            Edge::weighted(VertexId(2), 0.0),
            Edge::weighted(VertexId(3), 7.0),
        ],
    );
    let blob = encode_graph(&g);
    assert_eq!(decode_graph(&blob).expect("decode"), g);
    assert_eq!(
        fnv1a(&blob),
        0x23c5_c12e_3945_f6e9,
        "graph blob = {:#018x}",
        fnv1a(&blob)
    );
}

// Extent files: every `eblk_*`, adjacency and gather file of one small
// seeded graph, plus the `IoSnapshot` after the builds and after one full
// scan of each store. Captured by running this test body at the commit
// before `storage::extent` went under the three stores, so that merge is
// pinned byte for byte — bytes on disk and bytes accounted.
#[test]
fn golden_extent_file_bytes_are_pinned() {
    use hybridgraph::graph::{gen, BlockLayout, Partition, WorkerId};
    use hybridgraph::storage::adjacency::AdjacencyStore;
    use hybridgraph::storage::gather::{GatherStore, InEdgeScratch};
    use hybridgraph::storage::veblock::VeBlockStore;
    use hybridgraph::storage::{IoSnapshot, IoStats};
    use std::sync::Arc;

    // Skewed degrees (empty rows, empty Eblocks, long rows) and non-unit
    // weights, so gap runs, BV intervals and the weight columns all occur.
    let g = gen::randomize_weights(
        &gen::rmat(96, 500, gen::RmatParams::default(), 0x5eed),
        0.5,
        2.0,
        7,
    );
    let p = Partition::range(96, 2);
    let l = BlockLayout::uniform(&p, 4);
    let w = WorkerId(1); // non-zero base vertex and first block
    let range = p.worker_range(w);
    let snap_print = |s: &IoSnapshot| {
        let words = [
            s.seq_read_bytes,
            s.seq_write_bytes,
            s.rand_read_bytes,
            s.rand_write_bytes,
            s.seq_read_logical_bytes,
            s.seq_write_logical_bytes,
            s.rand_read_logical_bytes,
            s.rand_write_logical_bytes,
            s.seq_read_ops,
            s.seq_write_ops,
            s.rand_read_ops,
            s.rand_write_ops,
        ];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        fnv1a(&bytes)
    };

    // Per codec: file fingerprints [eblk_4, eblk_5, eblk_6, eblk_7, adj,
    // gather], then snapshot fingerprints [built, + VE-BLOCK scan,
    // + adjacency scan, + gather sweep and one backward jump].
    let golden: [(CodecChoice, [u64; 6], [u64; 4]); 3] = [
        (
            CodecChoice::None,
            [
                0x3b1d_a124_c550_bfb1,
                0xbf7e_b13f_f67d_f526,
                0x48de_b4c3_e5a9_306d,
                0x2f47_ad66_934c_4b1c,
                0x6ab0_542e_fb60_786a,
                0xa3a9_aecb_d188_79dc,
            ],
            [
                0x0c4a_112d_0b4b_c287,
                0x843e_966c_17e0_35ad,
                0x83fd_6c05_54ba_5ad0,
                0xec96_2f59_2f33_dd5d,
            ],
        ),
        (
            CodecChoice::Gaps,
            [
                0xc558_7b44_6789_df65,
                0x0f1a_49df_0521_b507,
                0x1b35_e738_413f_a43d,
                0xd26d_739e_ca5f_4776,
                0xc80e_ed77_a450_bd34,
                0x35be_7db5_e3c5_c985,
            ],
            [
                0xfb24_06f3_28c7_246d,
                0x2353_883b_307c_dd9d,
                0x16e7_cced_b087_c6b9,
                0xb757_285d_f266_7835,
            ],
        ),
        (
            CodecChoice::Bv,
            [
                0x3b3d_d3b8_0290_87ba,
                0x9d5a_6030_9d33_1b86,
                0x87be_0419_2a03_0942,
                0xd4ce_8214_1092_f518,
                0x5f1f_da45_f916_a89b,
                0xe32e_0f74_dea9_18bb,
            ],
            [
                0xb092_8d7f_3533_acb7,
                0x1cf8_a421_b4b5_f731,
                0x3b9d_d363_ef03_277d,
                0x318a_226f_6fb4_3949,
            ],
        ),
    ];
    let mut got = Vec::new();
    let mut detail = Vec::new();
    for (codec, ..) in golden {
        let vfs = MemVfs::new();
        let ve = VeBlockStore::build_with(&vfs, &g, &l, w, codec).expect("veblock");
        let adj = AdjacencyStore::build_with(&vfs, "adj", &g, range.clone(), codec).expect("adj");
        let ga = GatherStore::build_with(&vfs, "gather", &g, range.clone(), codec).expect("gather");
        let mut snaps = vec![vfs.stats().snapshot()];

        // File bytes, read through a throwaway sink so the pinned
        // snapshots see only the stores' own traffic.
        let file = |name: &str| {
            let bytes = vfs
                .open(name)
                .expect("open")
                .with_stats(Arc::new(IoStats::new()))
                .read_all(AccessClass::SeqRead)
                .expect("read");
            fnv1a(&bytes)
        };
        let files = [
            file("eblk_4"),
            file("eblk_5"),
            file("eblk_6"),
            file("eblk_7"),
            file("adj"),
            file("gather"),
        ];

        let (mut empty_cells, mut edges) = (0usize, 0usize);
        for j in l.blocks_of_worker(w) {
            for i in l.block_ids() {
                let frags = ve.scan_eblock(j, i).expect("scan");
                empty_cells += frags.is_empty() as usize;
                edges += frags.iter().map(|f| f.edges.len()).sum::<usize>();
            }
        }
        assert!(empty_cells > 0, "the grid should have empty Eblocks");
        snaps.push(vfs.stats().snapshot());
        let (mut adj_edges, mut scratch) = (0usize, EdgeScratch::default());
        for v in range.clone() {
            adj_edges += adj
                .read_edges(VertexId(v), AccessClass::SeqRead, &mut scratch)
                .expect("edges")
                .len();
        }
        snaps.push(vfs.stats().snapshot());
        let (mut in_edges, mut gathered) = (0usize, InEdgeScratch::default());
        for v in g.vertices() {
            in_edges += ga
                .read_in_edges(v, &mut gathered)
                .expect("in-edges")
                .0
                .len();
        }
        let first = g
            .vertices()
            .find(|&v| ga.has_in_edges(v))
            .expect("a destination");
        ga.read_in_edges(first, &mut gathered)
            .expect("backward jump");
        snaps.push(vfs.stats().snapshot());
        assert_eq!((edges, adj_edges), (in_edges, in_edges), "{codec:?}");

        let io: [u64; 4] = std::array::from_fn(|k| snap_print(&snaps[k]));
        got.push((codec, files, io));
        detail.push(snaps);
    }
    assert_eq!(
        got, golden,
        "(codec, files, snapshots) = {got:#018x?}\nsnapshots = {detail:#?}"
    );
}

// "The cursor is the `MasterState`": FNV-1a fingerprints of the blobs a
// durable master commits through its `BarrierSink`, captured by running
// this test body at the commit before the master's locals became one
// `MasterState` value. The two timing-dependent fields of each step
// (`wall_secs`, `blocking_secs`) are zeroed through a decode/encode round
// trip first; every other byte — cursor, audits, steps,
// recovery counters, trace rings — is pinned. (`memory_bytes` joined the
// pinned bytes, and cut 6 was re-pinned, when b-pull began to take it
// from complete inboxes only; cut 6 again when every step began to carry
// its async block and residual and every audit its two extensions; both
// when the switcher's copies of the mode, Δt and threshold and its `Q_t`
// history left the record; both again when each step began to carry its
// Eq. 11 inputs in place of its `C_io`/`M_co` copies and its I/O seconds,
// and the state the steps' per-worker costs: +8 bytes a state, +192 a
// step on three workers.)
#[test]
fn golden_master_state_bytes_are_pinned() {
    use hybridgraph::core::{BarrierSink, MasterState};
    use hybridgraph::graph::gen;
    use hybridgraph::prelude::*;
    use std::sync::{Arc, Mutex};

    #[derive(Debug, Default)]
    struct Recorder(Mutex<Vec<(u64, Vec<u8>)>>);
    impl BarrierSink for Recorder {
        fn commit(&self, superstep: u64, state: &[u8]) -> std::io::Result<()> {
            self.0.lock().unwrap().push((superstep, state.to_vec()));
            Ok(())
        }
    }

    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let rec = Arc::new(Recorder::default());
    let cfg = JobConfig::new(Mode::Hybrid, 3)
        .with_buffer(192)
        .with_checkpoint(CheckpointPolicy::EveryK(2))
        .with_message_logging(true)
        .with_trace(Arc::new(TraceSink::new(3)))
        .with_barrier_sink(Arc::clone(&rec) as Arc<dyn BarrierSink>);
    let res = run_job(Arc::new(PageRank::new(9)), &g, cfg).unwrap();
    assert!(
        !res.metrics.switches.is_empty(),
        "the pinned job must exercise a switch"
    );

    let commits = rec.0.lock().unwrap();
    let cuts: Vec<u64> = commits.iter().map(|(s, _)| *s).collect();
    assert_eq!(cuts, [0, 2, 4, 6, 8]);
    let pinned = |superstep: u64| {
        let (_, blob) = commits.iter().find(|(s, _)| *s == superstep).unwrap();
        let mut st: MasterState = frame::decode(blob).unwrap();
        for m in &mut st.steps {
            m.wall_secs = 0.0;
            m.blocking_secs = 0.0;
        }
        let bytes = frame::encode(&st);
        assert_eq!(bytes.len(), blob.len());
        (bytes.len(), fnv1a(&bytes))
    };
    let got = [pinned(0), pinned(6)];
    let want = [
        (725usize, 0xc272_9c4b_cd81_2e9cu64),
        (21501, 0x6469_7eb0_e4d0_510b),
    ];
    assert_eq!(got, want, "[baseline, step cut 6] = {got:#x?}");
}

// Worker checkpoint files: FNV-1a of every `ckpt_*` file each worker writes
// in a PushM job (hot-set accumulators and pending spilled messages) and a
// pull job (signaled words beside the responding ones), read at each
// barrier commit, when the cut's files are complete. Captured by running
// this test body at the commit before the checkpoint body became one
// declared record, so that move is pinned byte for byte. (The pushM rows
// were re-pinned when `load()` kept staged order: the PageRank values and
// accumulators they checkpoint sum in another order.)
#[test]
fn golden_worker_checkpoint_bytes_are_pinned() {
    use hybridgraph::core::BarrierSink;

    struct CkptProbe {
        disks: Vec<Arc<MemVfs>>,
        files: Mutex<Vec<u8>>,
    }
    impl std::fmt::Debug for CkptProbe {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("CkptProbe")
        }
    }
    impl BarrierSink for CkptProbe {
        fn commit(&self, superstep: u64, _state: &[u8]) -> std::io::Result<()> {
            let mut log = self.files.lock().unwrap();
            for disk in &self.disks {
                let bytes = BarrierProbe::read(disk, &file_name::<Checkpoint>(superstep))
                    .expect("every worker checkpoints before the cut commits");
                log.extend_from_slice(&superstep.to_le_bytes());
                log.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                log.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
            }
            Ok(())
        }
    }

    const GOLDEN: &str = "\
pushM  none 71289fb8d2b79513\n\
pushM  gaps fde07b4228b785c2\n\
pushM  bv   2f42b15b79690d0b\n\
pull   none b56779ee9a625798\n\
pull   gaps 02aa7fb8dec29969\n\
pull   bv   1ee51a578d76eb48\n\
";
    const WORKERS: usize = 3;
    let rmat = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let g = gen::randomize_weights(&rmat, 0.5, 2.0, 7);
    let source = g
        .vertices()
        .max_by_key(|&v| g.out_degree(v))
        .expect("non-empty graph");
    let mut got = String::new();
    for mode in [Mode::PushM, Mode::Pull] {
        for codec in [CodecChoice::None, CodecChoice::Gaps, CodecChoice::Bv] {
            let disks: Vec<Arc<MemVfs>> = (0..WORKERS).map(|_| Arc::new(MemVfs::new())).collect();
            let probe = Arc::new(CkptProbe {
                disks: disks.clone(),
                files: Mutex::default(),
            });
            let cfg = JobConfig::new(mode, WORKERS)
                .with_buffer(48)
                .with_codec(codec)
                .with_checkpoint(CheckpointPolicy::EveryK(2))
                .with_barrier_sink(Arc::clone(&probe) as Arc<dyn BarrierSink>)
                .with_worker_disks(WorkerDisks(
                    disks
                        .iter()
                        .map(|d| Arc::clone(d) as Arc<dyn Vfs>)
                        .collect(),
                ));
            if mode == Mode::PushM {
                run_job(Arc::new(PageRank::new(7)), &g, cfg).expect("job");
            } else {
                run_job(Arc::new(Sssp::new(source)), &g, cfg).expect("job");
            }
            let files = probe.files.lock().unwrap();
            // 24 bytes per worker per cut: the baseline and at least two more.
            assert!(files.len() >= 3 * WORKERS * 24, "{mode:?}: too few cuts");
            got.push_str(&format!(
                "{:<6} {:<4} {:016x}\n",
                mode.label(),
                codec.label(),
                fnv1a(&files)
            ));
        }
    }
    assert!(got == GOLDEN, "mode codec: checkpoint files =\n{got}");
}

/// The last state a job committed through its barrier sink.
#[derive(Debug, Default)]
struct LastCommit(Mutex<Vec<u8>>);

impl hybridgraph::core::BarrierSink for LastCommit {
    fn commit(&self, _superstep: u64, state: &[u8]) -> std::io::Result<()> {
        *self.0.lock().unwrap() = state.to_vec();
        Ok(())
    }
}

impl LastCommit {
    /// Runs `program` under `cfg` with this sink attached and returns
    /// the last cursor it committed.
    fn of<P: VertexProgram>(
        program: P,
        g: &Graph,
        cfg: JobConfig,
    ) -> hybridgraph::core::MasterState {
        let last = Arc::new(LastCommit::default());
        run_job(Arc::new(program), g, cfg.with_barrier_sink(last.clone())).expect("job");
        let bytes = last.0.lock().unwrap();
        frame::decode(&bytes).expect("cut")
    }
}

// A committed cut whose trace rings do not match the resuming job's
// `TraceSink` is a refused configuration. It used to pass validation and
// panic in `TraceSink::restore_states`.
#[test]
fn resume_with_a_missing_trace_shard_is_invalid_config() {
    use hybridgraph::core::ResumeState;

    let g = gen::uniform(64, 256, 3);
    let cfg = || {
        JobConfig::new(Mode::Push, 2)
            .with_checkpoint(CheckpointPolicy::EveryK(2))
            .with_trace(Arc::new(TraceSink::new(2)))
    };
    let mut cut = LastCommit::of(PageRank::new(3), &g, cfg());
    cut.trace.as_mut().expect("traced cut").pop();
    let resume = ResumeState(Arc::new(frame::encode(&cut)));
    let err = run_job(Arc::new(PageRank::new(3)), &g, cfg().with_resume(resume)).unwrap_err();
    assert!(matches!(err, JobError::InvalidConfig(_)), "{err}");
}

// A committed cut whose mode, or pending transition, the resuming job
// cannot run in is a refused configuration. A hybrid cursor in mode
// `Hybrid` used to panic the master's thread (no concrete step kind), and
// a pending pushM step on a hybrid job an executor that was never built.
#[test]
fn resume_in_a_mode_the_job_cannot_run_is_invalid_config() {
    use hybridgraph::core::ResumeState;

    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let disks = WorkerDisks(
        (0..2)
            .map(|_| Arc::new(MemVfs::new()) as Arc<dyn Vfs>)
            .collect(),
    );
    let cfg = || {
        JobConfig::new(Mode::Hybrid, 2)
            .with_checkpoint(CheckpointPolicy::EveryK(4))
            .with_worker_disks(disks.clone())
    };
    // Six supersteps, the last cut at 4: the resumed job still steps.
    let cut = LastCommit::of(PageRank::new(6), &g, cfg());
    assert_eq!(cut.superstep, 4);
    let resume = |st: &hybridgraph::core::MasterState| {
        let state = ResumeState(Arc::new(frame::encode(st)));
        run_job(Arc::new(PageRank::new(6)), &g, cfg().with_resume(state))
    };
    let mut hybrid = cut.clone();
    hybrid.cur = Mode::Hybrid;
    let mut pushm = cut.clone();
    pushm.pending_kind = Some(StepKind::PushM);
    for st in [hybrid, pushm] {
        let err = resume(&st).unwrap_err();
        assert!(matches!(err, JobError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("mode"), "{err}");
    }
    resume(&cut).expect("the committed cut itself resumes");
}

// ------------------------------------------------------------ pinned jobs

/// Records, at every barrier, what the job left on each worker's disk:
/// the spill file (push family) and — in a job that logs messages, one
/// that confines recovery — the message-log segment the superstep just
/// committed.
struct BarrierProbe {
    disks: Vec<Arc<MemVfs>>,
    msg_log: bool,
    barriers: Mutex<Vec<u8>>,
}

impl std::fmt::Debug for BarrierProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BarrierProbe")
    }
}

impl BarrierProbe {
    /// A file's bytes read through a throwaway sink: observing it must
    /// not show up in the job's own I/O counters.
    fn read(disk: &MemVfs, name: &str) -> Option<Vec<u8>> {
        let file = disk.open(name).ok()?;
        let quiet = file.with_stats(Arc::new(IoStats::new()));
        Some(quiet.read_all(AccessClass::SeqRead).expect("read file"))
    }

    /// A message-log segment in canonical order. A worker serves its
    /// peers in whatever order their requests arrive, so the interleaving
    /// of a segment's entries across destinations and packet kinds is
    /// scheduling; the sequence to one destination, of one kind, about one
    /// block is not — and holds every payload byte and `WireStats`.
    fn canonical_segment(segment: &[u8], superstep: u64) -> Vec<u8> {
        let scratch = MemVfs::new();
        let name = file_name::<MsgLog>(superstep);
        let file = scratch.create(&name).expect("scratch file");
        file.append(AccessClass::SeqWrite, segment).expect("copy");
        let mut reader = MsgLogReader::open(&scratch, superstep).expect("open segment");
        let mut entries = reader.read_all_entries().expect("entries");
        entries.sort_by_key(|e| {
            let packet: Packet = frame::decode(&e.blob).expect("logged packet");
            let (rank, block) = match packet {
                Packet::PullRequest { block } => (0, block.0),
                Packet::Messages { for_block, .. } => (1, for_block.map_or(u32::MAX, |b| b.0)),
                Packet::EndOfResponses { block } => (2, block.0),
                Packet::DoneSending => (3, 0),
                Packet::SuperstepDone => (4, 0),
                Packet::GatherRequests { .. } => (5, 0),
                Packet::DoneRequesting => (6, 0),
                Packet::EndOfGather => (7, 0),
                Packet::Signals { .. } => (8, 0),
                Packet::Abort => unreachable!("the control plane's packet is never logged"),
            };
            (e.dest, rank, block)
        });
        entries.iter().flat_map(frame::encode).collect()
    }
}

impl ProgressSink for BarrierProbe {
    fn superstep(&self, superstep: u64, _mode: Mode, _modeled_secs: f64) {
        let mut log = self.barriers.lock().unwrap();
        log.extend_from_slice(&superstep.to_le_bytes());
        let mut note = |bytes: &[u8]| {
            log.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            log.extend_from_slice(&fnv1a(bytes).to_le_bytes());
        };
        for disk in &self.disks {
            if let Some(spill) = Self::read(disk, "spill") {
                note(&spill);
            }
            if self.msg_log {
                let segment = Self::read(disk, &file_name::<MsgLog>(superstep))
                    .expect("every worker commits a segment per superstep");
                note(&Self::canonical_segment(&segment, superstep));
            }
        }
    }
}

/// One line of the `steps` column: the `Debug` layout `SuperstepMetrics`
/// had when these goldens were captured. The step now derives the three
/// copies that layout stored (`C_io` push and b-pull, `M_co`) from its
/// Eq. 11 inputs, and `modeled_io_secs` from its per-worker `costs`; the
/// line rebuilds them, so every pinned byte is still checked.
fn pinned_step(m: &SuperstepMetrics, costs: &[WorkerCost], profile: &DeviceProfile) -> String {
    let io_secs = |w: &WorkerCost| {
        let io = IoSnapshot {
            seq_read_bytes: w.seq_read_bytes,
            seq_write_bytes: w.seq_write_bytes,
            rand_read_bytes: w.rand_read_bytes,
            rand_write_bytes: w.rand_write_bytes,
            ..IoSnapshot::default()
        };
        io.modeled_secs(profile)
    };
    let modeled_io_secs = costs.iter().map(io_secs).fold(0.0, f64::max);
    format!(
        "SuperstepMetrics {{ superstep: {}, kind: {:?}, io: {:?}, sem: {:?}, net_out_bytes: {}, \
         net_local_bytes: {}, net_raw_messages: {}, net_wire_values: {}, net_saved_messages: {}, \
         net_requests: {}, updated: {}, responders: {}, messages_produced: {}, \
         pending_messages: {}, cio_push_bytes: {}, cio_bpull_bytes: {}, mco: {}, q_metric: {:?}, \
         memory_bytes: {}, modeled_secs: {:?}, modeled_io_secs: {:?}, modeled_net_secs: {:?}, \
         wall_secs: {:?}, blocking_secs: {:?}, cache_hits: {}, cache_misses: {}, \
         cache_evictions: {}, asy: {:?}, max_residual: {:?} }}\n",
        m.superstep,
        m.kind,
        m.io,
        m.sem,
        m.net_out_bytes,
        m.net_local_bytes,
        m.net_raw_messages,
        m.net_wire_values,
        m.net_saved_messages,
        m.net_requests,
        m.updated,
        m.responders,
        m.messages_produced,
        m.pending_messages,
        m.cio_push_bytes(),
        m.cio_bpull_bytes(),
        m.qt.mco,
        m.q_metric,
        m.memory_bytes,
        m.modeled_secs,
        modeled_io_secs,
        m.modeled_net_secs,
        m.wall_secs,
        m.blocking_secs,
        m.cache_hits,
        m.cache_misses,
        m.cache_evictions,
        m.asy,
        m.max_residual,
    )
}

/// Runs `program` on three workers with a 48-message receive buffer and a
/// 600-byte sending threshold (50 `f64` messages a batch) and fingerprints
/// everything the job lets an observer see: `[values, per-superstep
/// metrics, files at every barrier, Chrome trace]`, plus `[spilled bytes,
/// mode switches, async interior updates]` so callers can assert the
/// pinned job exercised what it is there to pin. `wall_secs` and
/// `blocking_secs` are zeroed — and `memory_bytes` on b-pull supersteps
/// when `mask_bpull_memory` is set.
fn pinned_job<P: VertexProgram>(
    program: P,
    g: &Graph,
    mode: Mode,
    cfg: impl FnOnce(JobConfig) -> JobConfig,
    mask_bpull_memory: bool,
    bits: impl Fn(&P::Value) -> u64,
) -> ([u64; 4], [u64; 3]) {
    const WORKERS: usize = 3;
    let disks: Vec<Arc<MemVfs>> = (0..WORKERS).map(|_| Arc::new(MemVfs::new())).collect();
    let trace = Arc::new(TraceSink::new(WORKERS));
    let base = JobConfig::new(mode, WORKERS)
        .with_buffer(48)
        .with_sending_threshold(600)
        .with_trace(Arc::clone(&trace))
        .with_worker_disks(WorkerDisks(
            disks
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn Vfs>)
                .collect(),
        ));
    let cfg = cfg(base);
    let probe = Arc::new(BarrierProbe {
        disks,
        msg_log: cfg.confines_recovery(),
        barriers: Mutex::default(),
    });
    let cfg = cfg.with_progress(Arc::clone(&probe) as Arc<dyn ProgressSink>);
    let res = run_job(Arc::new(program), g, cfg).expect("job");
    let values: Vec<u8> = res
        .values
        .iter()
        .flat_map(|v| bits(v).to_le_bytes())
        .collect();
    let mut steps = String::new();
    let mut exercised = [0, res.metrics.switches.len() as u64, 0];
    let costs = res.metrics.worker_costs.chunks(WORKERS);
    for (m, costs) in res.metrics.steps.iter().zip(costs) {
        let mut m = m.clone();
        m.wall_secs = 0.0;
        m.blocking_secs = 0.0;
        if mask_bpull_memory && matches!(m.kind, StepKind::BPull | StepKind::BPullThenPush) {
            m.memory_bytes = 0;
        }
        exercised[0] += m.sem.msg_spill_bytes;
        exercised[2] += m.asy.interior_updates;
        steps.push_str(&pinned_step(&m, costs, &res.metrics.profile));
    }
    let trace = fnv1a(export_chrome_trace(&trace).as_bytes());
    let barriers = probe.barriers.lock().unwrap();
    (
        [
            fnv1a(&values),
            fnv1a(steps.as_bytes()),
            fnv1a(&barriers),
            trace,
        ],
        exercised,
    )
}

// "Encode once, sort once": FNV-1a fingerprints of everything a
// push-family job lets an observer see — result values, every
// per-superstep metric (the `IoSnapshot` with its op counts, semantic
// bytes, `mco` from `delivered_raw/distinct`, `memory_bytes`, modeled
// time), each worker's spill file at every barrier, and the Chrome
// trace — captured by running this test body at the commit before the
// receive path became one flat record stream. `wall_secs` and
// `blocking_secs` are zeroed. (The four hybrid `steps` fingerprints were
// re-pinned when b-pull's `memory_bytes` stopped depending on packet
// arrival and joined them. When `load()` dropped its content sort for
// staged order, PageRank's `values`, the push, hybrid and async
// `barriers` and the async `steps` were re-pinned: float sums change
// with summation order, and the spill bytes and residuals with them.)
#[test]
fn golden_push_family_jobs_are_pinned() {
    let rmat = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let g = gen::randomize_weights(&rmat, 0.5, 2.0, 7);
    // `Async` runs on community-clustered ids (and few, wide Vblocks),
    // so its blocks have interiors and its pseudo-rounds run.
    let g_local = gen::randomize_weights(&gen::localize(&rmat, 0.9, 8, 7), 0.5, 2.0, 7);
    let source = g
        .vertices()
        .max_by_key(|&v| g.out_degree(v))
        .expect("non-empty graph");

    // Per (mode, codec): [values, steps, spill files at barriers, trace]
    // for PageRank, then for SSSP.
    let golden: [(Mode, CodecChoice, [u64; 4], [u64; 4]); 8] = [
        (
            Mode::Push,
            CodecChoice::None,
            [
                0x03ee_31e1_b895_98aa,
                0xd07f_eb56_d84e_7331,
                0x4058_5629_2cbb_3c27,
                0x6230_6489_8be7_6f5c,
            ],
            [
                0x3698_04cc_a87b_7baf,
                0x6e11_bc41_9d66_8541,
                0x5e28_4323_4692_f9c8,
                0x01c1_9b8b_e272_bc91,
            ],
        ),
        (
            Mode::Push,
            CodecChoice::Gaps,
            [
                0x03ee_31e1_b895_98aa,
                0xdba4_1b4d_e9c3_c013,
                0x325b_839c_5f7f_f36b,
                0x02c9_d379_91df_ed4d,
            ],
            [
                0x3698_04cc_a87b_7baf,
                0x275c_c11e_fd6d_c2f9,
                0xb27f_27b3_a3da_40df,
                0xd5b6_f4db_1db5_6328,
            ],
        ),
        (
            Mode::PushM,
            CodecChoice::None,
            [
                0x03ee_31e1_b895_98aa,
                0x52fb_3fde_cbd1_e9c8,
                0x7d79_d0c0_b9a2_6d09,
                0x7ab0_619f_7a4f_e070,
            ],
            [
                0x3698_04cc_a87b_7baf,
                0xd0c2_0a79_42b5_a31d,
                0xae35_4175_d12a_282f,
                0x77b7_22b8_53fd_4ecd,
            ],
        ),
        (
            Mode::PushM,
            CodecChoice::Gaps,
            [
                0x03ee_31e1_b895_98aa,
                0xdd06_cef7_d21f_503b,
                0x58e6_f270_599b_b792,
                0x6d5c_9a5a_7886_6154,
            ],
            [
                0x3698_04cc_a87b_7baf,
                0x4275_77e6_1ab2_b77d,
                0xed32_0b74_8003_8a65,
                0x52b6_335c_e1e0_bfb3,
            ],
        ),
        (
            Mode::Hybrid,
            CodecChoice::None,
            [
                0xdb20_778d_3094_70f7,
                0xbf5c_108b_a0f6_a778,
                0x7c88_b5d4_1aa8_41fa,
                0xc390_5f29_b921_2792,
            ],
            [
                0x3698_04cc_a87b_7baf,
                0x9a40_8671_9776_bd2a,
                0xe8dc_3d72_8f7c_2ed0,
                0x7bbd_3080_e01d_e2c0,
            ],
        ),
        (
            Mode::Hybrid,
            CodecChoice::Gaps,
            [
                0xdb20_778d_3094_70f7,
                0x51e8_d060_a4ce_8c0f,
                0x19c3_46db_3b91_7b50,
                0xb5b5_b68c_7c45_af9c,
            ],
            [
                0x3698_04cc_a87b_7baf,
                0xfb7f_e02c_15b6_be82,
                0xc641_5aa1_c73a_74e4,
                0x77d6_f193_5475_04cf,
            ],
        ),
        (
            Mode::Async,
            CodecChoice::None,
            [
                0x1efd_924e_e259_5e4f,
                0x2cea_8eba_e522_b95f,
                0x0f44_d95b_a7af_dd0c,
                0x90b8_55c6_332c_8e23,
            ],
            [
                0xeb8b_fe08_f6fb_a3d9,
                0xa803_4287_0e18_f0da,
                0xda78_f2d1_3eb8_1e9b,
                0x6269_3c21_a6dc_8cb5,
            ],
        ),
        (
            Mode::Async,
            CodecChoice::Gaps,
            [
                0x1efd_924e_e259_5e4f,
                0xc2cd_1c3f_1745_3416,
                0x219c_04f9_1c49_158e,
                0x1142_9735_d140_7e90,
            ],
            [
                0xeb8b_fe08_f6fb_a3d9,
                0x68f9_aa26_c79e_e9e1,
                0xa175_6822_b32d_d97a,
                0x16c2_6ff5_4f65_9835,
            ],
        ),
    ];
    let mut got = Vec::new();
    for (mode, codec, ..) in golden {
        let g = if mode == Mode::Async { &g_local } else { &g };
        let cfg = |c: JobConfig| {
            let mut c = c.with_codec(codec);
            if mode == Mode::Async {
                // Few, wide Vblocks: most vertices' edges stay in-block.
                c.vblocks_per_worker = Some(2);
            }
            c
        };
        let (pr, pr_did) = pinned_job(PageRank::new(6), g, mode, cfg, false, |v| v.to_bits());
        let (ss, ss_did) = pinned_job(Sssp::new(source), g, mode, cfg, false, |v| {
            u64::from(v.to_bits())
        });
        for did in [pr_did, ss_did] {
            assert!(did[0] > 0, "{mode:?}/{codec:?}: pinned jobs must spill");
            assert!(did[1] > 0 || mode != Mode::Hybrid, "{codec:?}: no switch");
            assert!(did[2] > 0 || mode != Mode::Async, "{codec:?}: no interior");
        }
        got.push((mode, codec, pr, ss));
    }
    assert_eq!(got, golden, "(mode, codec, pagerank, sssp) = {got:#018x?}");
}

// "Group by destination once": the same fingerprints for the pull family —
// b-pull, pull and hybrid × PageRank (sum), SSSP (min), LPA (no combiner:
// `Concatenated`) × none/bv × combining on/off, message logging on, so the
// barrier column holds every remote `Packet::Messages` payload and its
// `WireStats` as the message log kept them. At a 600-byte sending
// threshold a batch is 50 messages: `Concatenated` responses are cut
// mid-group and pull ships several `Combined` batches per sender per
// superstep, the case where the fold order across batches shows in the
// value bits. Captured by running this test body at the commit before
// the pull family's five groupings became one pass; `memory_bytes` on
// b-pull supersteps is masked because it was timing-dependent there.
// (The `steps` and `trace` columns of the 12 pull rows were pinned when
// pull began serving gather requests sender by sender instead of in
// arrival order; they had been masked until then. The four hybrid
// PageRank rows were re-pinned when push's `load()` kept staged order:
// their push steps sum in another order, and under `bv` the coded spill
// sizes, and with them the `steps` and `trace` columns, follow the values.
// The `barriers` column of the 12 pull rows was re-pinned when pull jobs
// stopped writing message logs, which only confined recovery reads.)
#[test]
fn golden_pull_family_jobs_are_pinned() {
    const GOLDEN: &str = "\
b-pull none comb pagerank 95bd2760a4934f41 4622d63c9ea89f54 ca46404d54ae834e 46289f7cc421a045\n\
b-pull none comb sssp     369804cca87b7baf e8a17a934a4fc279 7f91b6e776628ae7 32259268accc7b3c\n\
b-pull none comb lpa      3840de144e882740 ca69495cbbb018e7 1277443fc0a9e35e 3940c98ea253df88\n\
b-pull none list pagerank 03ee31e1b89598aa a328a6f59262922f 19841c583df5ed39 7f4772c9dfacdc14\n\
b-pull none list sssp     369804cca87b7baf 42bd7b849f63932c f5f69eaf8bc18713 57aa0036db67816c\n\
b-pull none list lpa      3840de144e882740 ca69495cbbb018e7 1277443fc0a9e35e 3940c98ea253df88\n\
b-pull bv   comb pagerank 95bd2760a4934f41 0fe479da7bbf97a1 ca46404d54ae834e c3d25dd5797b4e9c\n\
b-pull bv   comb sssp     369804cca87b7baf ffbad001ac60d9a7 7f91b6e776628ae7 a88d567969bea590\n\
b-pull bv   comb lpa      3840de144e882740 e4f79cc7a0600277 1277443fc0a9e35e e079093dc0b0e488\n\
b-pull bv   list pagerank 03ee31e1b89598aa 7fefd53e54f63ec0 19841c583df5ed39 cde30f987461087f\n\
b-pull bv   list sssp     369804cca87b7baf 8656514e2b4b1297 f5f69eaf8bc18713 5c24d3d4cc2f50b6\n\
b-pull bv   list lpa      3840de144e882740 e4f79cc7a0600277 1277443fc0a9e35e e079093dc0b0e488\n\
pull   none comb pagerank 9ac44c7a093376d0 adbadf6736faa054 a3e956c439195de2 c2737bce228cd4bd\n\
pull   none comb sssp     369804cca87b7baf dbf2eca2e6c87889 a73c4fcedb1fd5a4 9406d0319c336d61\n\
pull   none comb lpa      3840de144e882740 2ff487db2c576209 a3e956c439195de2 007b0e203af695d7\n\
pull   none list pagerank 03ee31e1b89598aa 5f9be38d4ceec5bc a3e956c439195de2 01fb5bbbafaa9362\n\
pull   none list sssp     369804cca87b7baf 661214402ae83ff1 a73c4fcedb1fd5a4 b0005f21471c68f4\n\
pull   none list lpa      3840de144e882740 2ff487db2c576209 a3e956c439195de2 007b0e203af695d7\n\
pull   bv   comb pagerank 9ac44c7a093376d0 497e23fe3438eb45 a3e956c439195de2 f4b6270d486edeca\n\
pull   bv   comb sssp     369804cca87b7baf acd7af0c0d053701 a73c4fcedb1fd5a4 3467826fae867399\n\
pull   bv   comb lpa      3840de144e882740 f36796dbd27bb066 a3e956c439195de2 55ec2b8e2cd23301\n\
pull   bv   list pagerank 03ee31e1b89598aa 476b39485ea27535 a3e956c439195de2 ae2a72c32e4c7dde\n\
pull   bv   list sssp     369804cca87b7baf 2a1593c975c35114 a73c4fcedb1fd5a4 b5f015e4cccf8db2\n\
pull   bv   list lpa      3840de144e882740 f36796dbd27bb066 a3e956c439195de2 55ec2b8e2cd23301\n\
hybrid none comb pagerank db20778d309470f7 b2ac11e73ce2b204 f3833be9e03332bc c3905f29b9212792\n\
hybrid none comb sssp     369804cca87b7baf 89d053e2b7a44533 e8013286a0bf81f6 7bbd3080e01de2c0\n\
hybrid none comb lpa      3840de144e882740 907bf4cb1e386f3b 7fa7046e457ba9f0 95ad7afee227138c\n\
hybrid none list pagerank 03ee31e1b89598aa 2f1939806c51dcc0 258a1a4e075ae131 34f6e738399a8c22\n\
hybrid none list sssp     369804cca87b7baf f363dbb286e0119e 8fc659b31e11e4ef 1027f78bc91e3f7b\n\
hybrid none list lpa      3840de144e882740 907bf4cb1e386f3b 7fa7046e457ba9f0 95ad7afee227138c\n\
hybrid bv   comb pagerank db20778d309470f7 e6e20f4f8a69d5ac 76eb84461f6bc8d3 2788c9784a255e16\n\
hybrid bv   comb sssp     369804cca87b7baf d700f071ba222730 66c5db29c07a0142 4f3d9ee04a6c486f\n\
hybrid bv   comb lpa      3840de144e882740 45fee76205b3ee58 8eaa26fde523ac7d 46b72708d0b0375d\n\
hybrid bv   list pagerank 03ee31e1b89598aa 54144e7e37107efa 73b27ef2503bef0a c9c772deb35b55a5\n\
hybrid bv   list sssp     369804cca87b7baf c661c2508f77cf61 ab9189b71c7bef4b 687d8b145be5ca67\n\
hybrid bv   list lpa      3840de144e882740 45fee76205b3ee58 8eaa26fde523ac7d 46b72708d0b0375d\n\
";

    let rmat = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let g = gen::randomize_weights(&rmat, 0.5, 2.0, 7);
    let source = g
        .vertices()
        .max_by_key(|&v| g.out_degree(v))
        .expect("non-empty graph");
    let mut got = String::new();
    for mode in [Mode::BPull, Mode::Pull, Mode::Hybrid] {
        for codec in [CodecChoice::None, CodecChoice::Bv] {
            for combining in [true, false] {
                let cfg = |c: JobConfig| {
                    let mut c = c.with_codec(codec).with_message_logging(true);
                    c.combining = combining;
                    c
                };
                let jobs = [
                    (
                        "pagerank",
                        pinned_job(PageRank::new(6), &g, mode, cfg, true, |v| v.to_bits()).0,
                    ),
                    (
                        "sssp",
                        pinned_job(Sssp::new(source), &g, mode, cfg, true, |v| {
                            u64::from(v.to_bits())
                        })
                        .0,
                    ),
                    (
                        "lpa",
                        pinned_job(Lpa::new(6), &g, mode, cfg, true, |v| u64::from(*v)).0,
                    ),
                ];
                for (algo, [values, steps, barriers, trace]) in jobs {
                    got.push_str(&format!(
                        "{:<6} {:<4} {} {algo:<8} {values:016x} {steps:016x} {barriers:016x} {trace:016x}\n",
                        mode.label(),
                        codec.label(),
                        if combining { "comb" } else { "list" },
                    ));
                }
            }
        }
    }
    assert!(
        got == GOLDEN,
        "mode codec combining algo: values steps barriers trace =\n{got}"
    );
}

/// Pull serves gather requests sender by sender, not in arrival order, so
/// the LRU, the gather cursor and the trace repeat run to run.
#[test]
fn pinned_pull_job_repeats_exactly() {
    let rmat = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let g = gen::randomize_weights(&rmat, 0.5, 2.0, 7);
    let run = || {
        pinned_job(
            PageRank::new(6),
            &g,
            Mode::Pull,
            |c| c,
            false,
            |v| v.to_bits(),
        )
        .0
    };
    let first = run();
    for i in 1..25 {
        assert_eq!(run(), first, "run {i}");
    }
}

// -------------------------------------------------------- declared records

/// The bytes of one sample record plus how to read them back and write
/// what was read: `Ok(re-encoded bytes)` or the decoder's error.
type Sample = (String, Vec<u8>, fn(&[u8]) -> std::io::Result<Vec<u8>>);

fn sample<T: frame::Field>(name: &str, x: &T) -> Sample {
    fn reencode<T: frame::Field>(b: &[u8]) -> std::io::Result<Vec<u8>> {
        frame::decode::<T>(b).map(|x| frame::encode(&x))
    }
    (name.to_string(), frame::encode(x), reencode::<T>)
}

/// Seeded values of every record declared with `record!` / `tagged!`:
/// the master state and its parts (strict and async steps, plain, async
/// and tiered audits, trace rings with every event and
/// arg kind), the audit table, every logged packet and message-log entry,
/// every service-log record, every gateway request and response body, and
/// graph blobs: empty, with an edgeless vertex, with a NaN weight's bits.
fn declared_record_samples(seed: u64) -> Vec<Sample> {
    use hybridgraph::core::{
        async_gain, decode_qt_audits, encode_qt_audits, q_metric, AsyncCostInputs, AsyncStepStats,
        FailureEvent, MasterState, MtbfEstimator, RecoveryMetrics, SemanticBytes, SuperstepMetrics,
        WorkerCost,
    };
    use hybridgraph::gateway::proto::*;
    use hybridgraph::graph::{BlockId, Edge};
    use hybridgraph::net::{BatchKind, WireStats};
    use hybridgraph::obs::{ArgValue, QtAudit, QtInputs, QtTerms, QtTiers, QtVerdict, ShardState};
    use hybridgraph::service::{GraphSpec, WalRecord};
    use hybridgraph::storage::{CacheEntry, CacheSnapshot, IoSnapshot, ShardSnapshot};

    let mut rng = SplitMix64::new(seed);
    let mut n = || rng.next_u64() % 1000;
    let (a, b, c, d) = (n(), n(), n(), n());

    let profile = DeviceProfile::local_hdd();
    let push_favoring = QtInputs {
        io_vrr: 1 << 30,
        mco: c,
        ..QtInputs::default()
    };
    let q = q_metric(&profile, &push_favoring);
    let too_early = QtAudit {
        superstep: 1,
        inputs: push_favoring,
        terms: QtTerms {
            rr: -q,
            ..QtTerms::default()
        },
        q,
        step_secs: 0.5,
        io_ratio: 1.0,
        threshold: 0.1,
        mode_before: "b-pull",
        mode_after: "b-pull",
        verdict: QtVerdict::TooEarly,
        asy: None,
        tiers: None,
    };
    let tiered = QtAudit {
        superstep: 2,
        io_ratio: 0.75,
        mode_after: "push",
        verdict: QtVerdict::Switch,
        tiers: Some(QtTiers {
            seq_read: 0.5,
            seq_write: 1.0,
            rand_read: 0.25,
            rand_write: d as f64,
        }),
        ..too_early.clone()
    };
    let async_favoring = AsyncCostInputs {
        extra_rounds: 3,
        value_io_bytes: 1 << 20,
        ..AsyncCostInputs::default()
    };
    let switch_to_async = QtAudit {
        superstep: 4,
        inputs: QtInputs::default(),
        terms: QtTerms::default(),
        q: 0.0,
        mode_before: "push",
        mode_after: "async",
        verdict: QtVerdict::Switch,
        asy: Some(async_gain(&profile, &async_favoring)),
        ..too_early.clone()
    };
    let audits = vec![too_early, tiered, switch_to_async];

    let sink = TraceSink::with_capacity(2, 8);
    sink.worker(0).span(
        "load",
        a,
        vec![
            ("bytes", ArgValue::U64(b)),
            ("worker", ArgValue::I64(-(c as i64))),
            ("q", ArgValue::F64(-0.125)),
            ("mode", ArgValue::Str("b-pull".into())),
        ],
    );
    sink.master()
        .instant("barrier", vec![("superstep", ArgValue::U64(d))]);
    sink.control()
        .counter_at(77, "q", vec![("custom_key", ArgValue::F64(1.5))]);
    let shards: Vec<ShardState> = sink.export_states();

    let io = IoSnapshot {
        seq_read_bytes: a,
        rand_write_ops: b,
        ..IoSnapshot::default()
    };
    let strict = SuperstepMetrics {
        superstep: 1,
        kind: StepKind::BPull,
        io,
        sem: SemanticBytes {
            bpull_edge_bytes: c,
            ..SemanticBytes::default()
        },
        qt: QtInputs {
            mco: b,
            io_vrr: c,
            ..QtInputs::default()
        },
        q_metric: -0.5,
        modeled_secs: 0.25,
        ..SuperstepMetrics::default()
    };
    let asy = SuperstepMetrics {
        superstep: 2,
        kind: StepKind::AsyncThenPush,
        asy: AsyncStepStats {
            pseudo_rounds: d,
            blocks_converged: 1,
            ..AsyncStepStats::default()
        },
        max_residual: 1e-3,
        ..SuperstepMetrics::default()
    };
    let mut mtbf = MtbfEstimator::new();
    mtbf.advance(1.5);
    mtbf.observe();
    let state = MasterState {
        superstep: 2,
        prev_checkpoint: Some(a),
        last_ckpt_worker_bytes: b,
        epoch: 1,
        workers: 2,
        cur: Mode::Async,
        pending_kind: Some(StepKind::PushNoSend),
        recoveries_used: 1,
        cum_logical: c,
        accum_step_secs: 0.125,
        pending_release_secs: 0.0625,
        audit_seen: 2,
        last_decision: 4,
        rco: Some(a as f64 / (a + b + 1) as f64),
        audit: audits.clone(),
        steps: vec![strict, asy],
        worker_costs: vec![
            WorkerCost {
                seq_read_bytes: a,
                net_bytes: c,
                ..WorkerCost::default()
            },
            WorkerCost {
                rand_write_bytes: b,
                messages: d,
                updated: 1,
                ..WorkerCost::default()
            },
        ],
        switches: vec![(2, Mode::BPull, Mode::Async)],
        recovery: RecoveryMetrics {
            checkpoints_taken: 2,
            checkpoint_io: io,
            mtbf_secs: 1.5,
            failures: vec![FailureEvent {
                superstep: 2,
                worker: 1,
                error: "injected".into(),
            }],
            ..RecoveryMetrics::default()
        },
        mtbf,
        trace: Some(shards.clone()),
    };

    let cache = CacheSnapshot {
        shards: vec![
            ShardSnapshot {
                entries: vec![
                    CacheEntry {
                        key: (3, a as u32),
                        weight: 48,
                        edges: Arc::new(vec![Edge::weighted(VertexId(b as u32), 2.5)]),
                    },
                    CacheEntry {
                        key: (3, 1),
                        weight: 32,
                        edges: Arc::new(Vec::new()),
                    },
                ],
                hits: c,
                misses: 5,
                evictions: 2,
            },
            ShardSnapshot {
                entries: Vec::new(),
                hits: 0,
                misses: d,
                evictions: 0,
            },
        ],
    };
    let g = gen::uniform(6, 10, seed);
    let spec = GraphSpec::new(2)
        .with_codec(CodecChoice::Gaps)
        .with_vblocks(3);
    let wal = [
        WalRecord::GraphRegistered {
            name: "ring".into(),
            id: 7,
            spec,
            graph: Arc::new(g.clone()),
        },
        WalRecord::GraphEvicted {
            name: "ring".into(),
            id: 7,
        },
        WalRecord::JobAdmitted {
            job_id: a,
            graph: "ring".into(),
        },
        WalRecord::JobStarted { job_id: a },
        WalRecord::JobBarrier {
            job_id: a,
            superstep: 2,
            lane_vtime: 1.25,
            state: frame::encode(&state)[..40].to_vec(),
            cache: cache.clone(),
        },
        WalRecord::JobFinished { job_id: a, cache },
    ];

    let stats = WireStats {
        raw_messages: a,
        wire_values: b,
        wire_bytes: 8,
        saved_messages: a.saturating_sub(b),
    };
    let packets = [
        Packet::PullRequest { block: BlockId(7) },
        Packet::Messages {
            kind: BatchKind::Combined,
            payload: (0..8).map(|i| (i * d) as u8).collect::<Vec<u8>>().into(),
            stats,
            for_block: Some(BlockId(3)),
        },
        Packet::Messages {
            kind: BatchKind::Plain,
            payload: vec![0u8; 64].into(),
            stats: WireStats::default(),
            for_block: None,
        },
        Packet::EndOfResponses { block: BlockId(1) },
        Packet::DoneSending,
        Packet::SuperstepDone,
        Packet::GatherRequests {
            ids: vec![5u8, 0, 0, 0].into(),
        },
        Packet::DoneRequesting,
        Packet::EndOfGather,
        Packet::Signals {
            ids: vec![9u8, 0, 0, 0].into(),
        },
        Packet::Abort,
    ];

    let options = JobOptions {
        mode: Mode::PushM,
        buffer_messages: a,
        trace: true,
        max_supersteps: b,
    };
    let submit = |program| SubmitReq {
        graph: "g".into(),
        program,
        options,
    };
    let requests = [
        Request::RegisterGraph {
            name: "g".into(),
            workers: 3,
            vblocks_per_worker: 2,
            codec: CodecChoice::Bv,
            source: GraphSource::Blob(encode_graph(&g)),
        },
        Request::RegisterGraph {
            name: "d".into(),
            workers: 2,
            vblocks_per_worker: 1,
            codec: CodecChoice::None,
            source: GraphSource::Dataset {
                name: "livej".into(),
                scale: c,
            },
        },
        Request::Submit(submit(ProgramSpec::PageRankUntil { eps: 1e-9, cap: d })),
        Request::SubmitBatch(vec![
            submit(ProgramSpec::PageRank { supersteps: a }),
            submit(ProgramSpec::Sssp { source: 4 }),
            submit(ProgramSpec::Lpa { supersteps: 3 }),
            submit(ProgramSpec::Wcc),
            submit(ProgramSpec::Sa { ratio: 8, seed }),
        ]),
        Request::JobStatus { job_id: a },
        Request::Subscribe { job_id: b },
        Request::FetchResults { job_id: c },
        Request::Evict { name: "g".into() },
        Request::Metrics,
        Request::Shutdown,
    ];
    let responses = [
        Response::Ok,
        Response::Registered {
            engine: 1,
            graph_id: a as u32,
        },
        Response::Submitted {
            job_ids: vec![a, b, c],
        },
        Response::Status(JobStatusInfo::Running { supersteps_done: d }),
        Response::Status(JobStatusInfo::Done),
        Response::Status(JobStatusInfo::Failed {
            code: 5,
            message: "invalid".into(),
        }),
        Response::Progress(ProgressEvent::Loaded { modeled_secs: 0.5 }),
        Response::Progress(ProgressEvent::Superstep {
            superstep: 3,
            mode: Mode::BPull,
            modeled_secs: 1.5,
        }),
        Response::Progress(ProgressEvent::Done),
        Response::Progress(ProgressEvent::Failed {
            code: 2,
            message: "budget".into(),
        }),
        Response::Results(JobOutcome {
            value_kind: ValueKind::U64U32,
            values: encode_values(&[1.0f64, 2.0]),
            audits: encode_qt_audits(&audits),
            trace: Some("{}".into()),
            modeled_secs: 2.25,
            physical_bytes: a,
            logical_bytes: b,
            supersteps: 5,
            switches: vec!["2:push->b-pull".into(), "4:b-pull->push".into()],
        }),
        Response::Results(JobOutcome {
            value_kind: ValueKind::F32,
            values: Vec::new(),
            audits: Vec::new(),
            trace: None,
            modeled_secs: 0.0,
            physical_bytes: 0,
            logical_bytes: 0,
            supersteps: 0,
            switches: Vec::new(),
        }),
        Response::MetricsText("# TYPE x gauge\n".into()),
        Response::Error(RemoteError {
            domain: ErrorDomain::Catalog,
            code: 6,
            message: "empty layout".into(),
        }),
    ];

    let mut out = vec![
        sample("MasterState", &state),
        sample("trace rings", &shards),
        (
            "Q_t audit table".to_string(),
            encode_qt_audits(&audits),
            |b| decode_qt_audits(b).map(|a| encode_qt_audits(&a)),
        ),
    ];
    out.extend(wal.iter().map(|r| sample(&format!("{r:?}"), r)));
    out.extend(packets.iter().map(|p| sample(&format!("{p:?}"), p)));
    out.extend(requests.iter().map(|r| sample(&format!("{r:?}"), r)));
    out.extend(responses.iter().map(|r| sample(&format!("{r:?}"), r)));
    for (dest, packet) in [(a as u32, &packets[1]), (u32::MAX, &packets[4])] {
        let entry = LogEntry {
            dest,
            blob: frame::encode(packet),
        };
        out.push(sample(&format!("{entry:?}"), &entry));
    }
    let nan = f32::from_bits(0x7fc0_0001);
    let edges = vec![
        Edge::weighted(VertexId(1), nan),
        Edge::weighted(VertexId(2), -0.0),
        Edge::weighted(VertexId(0), 1.5),
    ];
    for g in [Graph::empty(0), Graph::from_parts(vec![0, 2, 2, 3], edges)] {
        out.push((
            format!("graph blob of {} vertices", g.num_vertices()),
            encode_graph(&g),
            |b| decode_graph(b).map(|g| encode_graph(&g)),
        ));
    }
    out
}

// One property for every declared record type, in place of a truncation
// test per record: the sample round-trips; every cut and an appended byte
// are errors; every flipped bit is an error or reads back as a value that
// writes exactly the flipped bytes (decoding is canonical — no presence
// byte, tag, label or narrowed count reads two ways). Nothing panics.
#[test]
fn declared_records_reject_cuts_and_read_flips_canonically() {
    for seed in [3u64, 1776] {
        for (name, bytes, reencode) in declared_record_samples(seed) {
            let name: String = name.chars().take(60).collect();
            assert_eq!(
                reencode(&bytes).expect("sample reads back"),
                bytes,
                "{name}"
            );
            for cut in 0..bytes.len() {
                assert!(reencode(&bytes[..cut]).is_err(), "{name}: cut {cut} read");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(reencode(&longer).is_err(), "{name}: trailing byte read");
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(again) = reencode(&flipped) {
                    assert!(
                        again == flipped,
                        "{name} seed {seed}: bit {bit} read two ways"
                    );
                }
            }
        }
    }
}
