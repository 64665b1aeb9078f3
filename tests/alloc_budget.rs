//! Heap-allocation budget of a superstep, per produced message.
//!
//! Wall-clock on a small box cannot resolve a 15% change; allocation
//! counts repeat exactly. A counting `#[global_allocator]` measures the
//! *marginal* cost of a delivered message: the same job is run with two
//! superstep counts and the difference in allocations is divided by the
//! difference in delivered messages, so load, thread start-up and result
//! collection cancel out. The receive path is one flat record stream —
//! no allocation per message, per destination or per computed vertex —
//! so the budget is a small constant over per-block and per-packet
//! buffers. Bytes per message are bounded too: `load()` groups the
//! drained records in staged order and decodes each message once, with
//! no sort key beside it.
//!
//! b-pull and pull are measured the same way. b-pull's responder decodes
//! each Eblock once into buffers the worker keeps, and pull reads each
//! gathered vertex's in-edges into reused scratch, so neither allocates
//! per fragment, per edge or per gathered vertex: b-pull is held to the
//! push family's kind of budget, 0.01, with and without the bv codec.
//! Its responder holds no `(dst, message)` pair per message either: a
//! combined response folds each message into its Vblock slot as it is
//! produced, which took b-pull from 16 bytes per message to ≈ 5.
//! Pull's cost is its LRU value cache inserting an entry per miss (the
//! paper's PowerGraph comparator, deliberately left as it is); its budget
//! is the measured number + 5 %, so nothing may raise it.
//!
//! The load phase is counted per edge: building both workers' VE-BLOCK
//! and adjacency stores under `bv`, one Vblock per worker as an
//! ample-memory job lays them out. The bv encoder prices a list's
//! copy-reference candidates without building their plans and keeps its
//! buffers — plans, window index, matches — from one extent to the
//! next, so a build allocates per file and per Eblock, never per list,
//! candidate or vertex: both builds are
//! held to 0.01 allocations per edge (a plan per candidate cost the
//! VE-BLOCK build ≈ 3.2, a buffer set per vertex the adjacency build
//! ≈ 0.44).
//!
//! The barrier path is counted per superstep: SSSP down a chain has one
//! responder per superstep, so what a superstep allocates beyond that
//! one vertex's messages is fixed cost. Run in push mode with message
//! logging on, at two chain lengths 4× apart and one Vblock size, it
//! must not grow with the chain: a fresh responding-flag vector per
//! superstep and four cloned flag vectors per undo capture once took it
//! from 8.6 kB to 16.5 kB per superstep (≈ 4.0 kB flat now).
//!
//! Per-superstep state lives in one place: the `StepScratch` each worker
//! keeps, which the superstep frame empties before every executor runs,
//! an aborted step's leftovers included. Sending buffers, staging tables,
//! b-pull's response slots and the Vblock value window are sized once and
//! reused, where each executor once built its own every superstep (push
//! 41.1 bytes per message then, 20.8 now). So push PageRank's allocations
//! per superstep must not grow with the Vblock count: at 1 and 16
//! Vblocks a worker they differ by thread timing alone, where a value
//! block read and written through fresh vectors cost three allocations
//! per Vblock a superstep (114 vs 204).
//!
//! Everything runs inside one `#[test]`: the counter is process-wide and
//! the harness would otherwise run tests on parallel threads.

use hybridgraph::graph::{gen, BlockLayout};
use hybridgraph::prelude::*;
use hybridgraph::storage::adjacency::AdjacencyStore;
use hybridgraph::storage::veblock::VeBlockStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per delivered message every push-family mode must stay
/// under (the per-message path measured ≥ 2 before it was removed).
const BUDGET: f64 = 0.05;

/// `(mode, codec, allocations, bytes)` per produced message every mode
/// must stay under: the push family at [`BUDGET`], b-pull at its kind of
/// bound, pull at its measured number + 5 %; bytes at the measured
/// numbers + 5 %, so the push family's `load()` cannot grow back the
/// 8-byte sort key per message it once built (push 79.1, pushM 58.3,
/// async 80.8 bytes), nor a sending buffer the `(dst, message)` pairs it
/// once held and re-encoded at each flush (push 71.1, pushM 57.1, async
/// 72.8, pull 46.4 bytes). The coded push and pull rows hold the
/// adjacency and gather reads to the uncoded ones' kind of budget: each
/// extent decodes once into reused columns, where a raw stream was once
/// rebuilt per read (push 0.232 allocations / 112.3 bytes under gaps,
/// 0.301 / 2,088 under bv, that with a fresh block-codec hash table per
/// spill chunk; pull 0.921 / 84.0 under gaps, 1.075 / 92.6 under bv).
/// The spill buffer keeps its resident buffer's capacity across drains
/// and, under a codec, frames and reads back through one kept buffer,
/// decoding each frame onto the drained records (push 53.1, pushM 39.1,
/// async 54.4 bytes when the resident buffer regrew every superstep;
/// push 93.7 under gaps and 90.0 under bv with a fresh vector per frame,
/// per read-back and per decoded frame). Pull keeps its in-edge scratch
/// on the worker (0.1072 / 0.1073 / 0.1079 allocations under none /
/// gaps / bv when it was rebuilt every superstep), and its request,
/// response and signal buffers and staging tables too (0.1066 / 0.1069 /
/// 0.1073 allocations and 40.2 / 40.3 / 40.6 bytes when those were).
/// Every executor now works in the worker's kept `StepScratch`, which the
/// superstep frame empties: push's, pushM's and async's sending buffers,
/// staging tables and value-block buffers, and b-pull's response slots,
/// were built fresh each superstep (push 41.1, pushM 36.4, async 42.4,
/// b-pull 5.2, push 41.3 under gaps and 41.4 under bv bytes).
/// Every row repeats exactly run to run.
const BUDGETS: [(Mode, CodecChoice, f64, f64); 10] = [
    (Mode::Push, CodecChoice::None, BUDGET, 20.8 * 1.05),
    (Mode::PushM, CodecChoice::None, BUDGET, 14.2 * 1.05),
    (Mode::Async, CodecChoice::None, BUDGET, 20.7 * 1.05),
    (Mode::BPull, CodecChoice::None, 0.01, 4.2 * 1.05),
    (Mode::BPull, CodecChoice::Bv, 0.01, 4.2 * 1.05),
    (Mode::Pull, CodecChoice::None, 0.1038 * 1.05, 14.9 * 1.05),
    (Mode::Push, CodecChoice::Gaps, BUDGET, 20.8 * 1.05),
    (Mode::Push, CodecChoice::Bv, BUDGET, 20.8 * 1.05),
    (Mode::Pull, CodecChoice::Gaps, 0.1038 * 1.05, 14.9 * 1.05),
    (Mode::Pull, CodecChoice::Bv, 0.1038 * 1.05, 14.9 * 1.05),
];

/// The per-worker message buffer of the chain rows: it fixes the Vblock
/// size, so the chain's Vblock count grows with its length.
const CHAIN_BUFFER: usize = 256;

/// `(short, long)` superstep caps of the chain rows.
const CHAIN_STEPS: (u64, u64) = (64, 256);

/// Runs of each chain job, the fewest bytes counted.
const CHAIN_RUNS: usize = 3;

/// Vblocks per worker of the Vblock rows: `(few, many)`.
const VBLOCKS: (usize, usize) = (1, 16);

/// Allocations per superstep the Vblock rows may differ by: thread timing
/// moves a job's count by one or two, where one allocation per Vblock
/// would add 30.
const VBLOCK_SLACK: f64 = 2.0;

/// Allocations per edge a `bv` store build may make.
const BUILD_BUDGET: f64 = 0.01;

/// Allocations per edge of building both workers' stores under `bv`,
/// `(VE-BLOCK, adjacency)`, printed as two rows.
fn build_allocations(g: &Graph) -> (f64, f64) {
    let partition = Partition::range(g.num_vertices(), 2);
    let layout = BlockLayout::uniform(&partition, 1);
    let per_edge = |name: &str, build: &dyn Fn(&MemVfs, WorkerId)| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let vfs = MemVfs::new();
        for w in partition.workers() {
            build(&vfs, w);
        }
        let allocs = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / g.num_edges() as f64;
        println!(
            "{name:<9} bv   {allocs:.4} allocations/edge ({} edges)",
            g.num_edges()
        );
        allocs
    };
    let ve = per_edge("ve-block", &|vfs, w| {
        VeBlockStore::build_with(vfs, g, &layout, w, CodecChoice::Bv).expect("VE-BLOCK build");
    });
    let adj = per_edge("adjacency", &|vfs, w| {
        let range = partition.worker_range(w);
        AdjacencyStore::build_with(vfs, "adj", g, range, CodecChoice::Bv).expect("adjacency build");
    });
    (ve, adj)
}

/// `(allocations, bytes, produced messages)` of one PageRank job.
fn measure(g: &Graph, mode: Mode, codec: CodecChoice, supersteps: u64) -> (u64, u64, u64) {
    let cfg = JobConfig::new(mode, 2).with_buffer(1_000).with_codec(codec);
    let program = Arc::new(PageRank::new(supersteps));
    let (a0, b0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let res = run_job(program, g, cfg).expect("job");
    let (a1, b1) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let spilled: u64 = res
        .metrics
        .steps
        .iter()
        .map(|m| m.sem.msg_spill_bytes)
        .sum();
    let push_family = !matches!(mode, Mode::BPull | Mode::Pull);
    assert!(
        spilled > 0 || !push_family,
        "{mode:?}: the measured job must spill"
    );
    let produced = res.metrics.steps.iter().map(|m| m.messages_produced).sum();
    (a1 - a0, b1 - b0, produced)
}

/// Marginal bytes allocated per superstep of push-mode SSSP from vertex
/// 0 down a chain of `n` vertices, message logging on: the difference
/// between the two [`CHAIN_STEPS`] jobs, printed as one row. Thread
/// timing only adds bytes to a job (a channel block a sender allocates
/// ahead, then drops when another sender wins the slot), a whole block
/// at a time, so each job counts its fewest bytes of [`CHAIN_RUNS`].
fn chain_bytes_per_superstep(n: usize) -> f64 {
    let g = gen::chain(n);
    let once = |steps: u64| {
        let mut cfg = JobConfig::new(Mode::Push, 2)
            .with_buffer(CHAIN_BUFFER)
            .with_message_logging(true);
        cfg.max_supersteps = steps;
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        let res = run_job(Arc::new(Sssp::new(VertexId(0))), &g, cfg).expect("job");
        assert_eq!(
            res.metrics.steps.len() as u64,
            steps,
            "the chain must outlast the cap"
        );
        ALLOCATED_BYTES.load(Ordering::Relaxed) - before
    };
    let bytes = |steps| (0..CHAIN_RUNS).map(|_| once(steps)).min().expect("runs");
    let (short, long) = CHAIN_STEPS;
    let per_step = bytes(long).saturating_sub(bytes(short)) as f64 / (long - short) as f64;
    println!("sssp   chain {n:>6} vertices: {per_step:.1} bytes/superstep");
    per_step
}

/// Marginal allocations per superstep of push PageRank with `vblocks`
/// Vblocks per worker: the difference between a 9- and a 3-superstep job,
/// printed as one row.
fn allocations_per_superstep(g: &Graph, vblocks: usize) -> f64 {
    let allocations = |supersteps: u64| {
        let mut cfg = JobConfig::new(Mode::Push, 2).with_buffer(1_000);
        cfg.vblocks_per_worker = Some(vblocks);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        run_job(Arc::new(PageRank::new(supersteps)), g, cfg).expect("job");
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let per_step = allocations(9).saturating_sub(allocations(3)) as f64 / 6.0;
    println!("push   {vblocks:>2} Vblocks/worker: {per_step:.1} allocations/superstep");
    per_step
}

/// Marginal `(allocations, bytes)` per produced message: the difference
/// between a 9- and a 3-superstep job, printed as one row.
fn marginal(g: &Graph, mode: Mode, codec: CodecChoice) -> (f64, f64) {
    let (a_short, b_short, m_short) = measure(g, mode, codec, 3);
    let (a_long, b_long, m_long) = measure(g, mode, codec, 9);
    let messages = (m_long - m_short) as f64;
    assert!(messages > 100_000.0, "{mode:?}: too few messages to judge");
    let allocs = a_long.saturating_sub(a_short) as f64 / messages;
    let bytes = b_long.saturating_sub(b_short) as f64 / messages;
    println!(
        "{:<6} {:<4} {allocs:.4} allocations/message, {bytes:.1} bytes/message \
         ({messages} marginal messages)",
        mode.label(),
        codec.label()
    );
    (allocs, bytes)
}

#[test]
fn push_family_supersteps_allocate_per_block_not_per_message() {
    // RMAT skew on community-clustered ids (so `Async` has interiors).
    let g = gen::localize(
        &gen::rmat(4_096, 65_536, gen::RmatParams::default(), 11),
        0.6,
        40,
        7,
    );
    for (mode, codec, max_allocs, max_bytes) in BUDGETS {
        let (allocs, bytes) = marginal(&g, mode, codec);
        assert!(
            allocs <= max_allocs && bytes <= max_bytes,
            "{mode:?}/{codec:?}: {allocs:.4} allocations / {bytes:.1} bytes per produced \
             message exceed {max_allocs:.4} / {max_bytes:.1}"
        );
    }
    let (short, long) = (
        chain_bytes_per_superstep(4_096),
        chain_bytes_per_superstep(16_384),
    );
    assert!(
        long <= short * 1.01,
        "a superstep of a 4x longer chain allocates {long:.1} bytes, not the {short:.1} \
         of the short chain: the barrier path allocates per local vertex"
    );
    let (few, many) = (
        allocations_per_superstep(&g, VBLOCKS.0),
        allocations_per_superstep(&g, VBLOCKS.1),
    );
    assert!(
        many <= few + VBLOCK_SLACK,
        "a push superstep over {} Vblocks a worker makes {many:.1} allocations, more than the \
         {few:.1} over {}: values are read or written through per-block buffers",
        VBLOCKS.1,
        VBLOCKS.0
    );
    let (ve, adj) = build_allocations(&g);
    assert!(
        ve <= BUILD_BUDGET && adj <= BUILD_BUDGET,
        "bv builds: VE-BLOCK {ve:.4} / adjacency {adj:.4} allocations per edge exceed \
         {BUILD_BUDGET}"
    );
}
