#!/usr/bin/env bash
# Source guards: things earlier PRs deleted must not grow back. One table,
# `matches allowed :: pattern (grep -E) :: paths :: reason`; a path
# written `!name` excludes files of that name. Then the docs' line-count
# ratchet and the repo paths they cite. Prints every violation and exits
# 1 if there was one.
set -uo pipefail
cd "$(dirname "$0")/.."

GUARDS=(
  "0 :: storage::stream|StreamEblock|OffsetDir :: crates/storage/src :: storage::extent is the one extent path: no second store or directory fork"
  "1 :: decode_columns\( :: crates/storage/src :: ExtentFile::read_columns is the one decode site of stored extents, for every edge store"
  "0 :: decode_extent\(|decode_fragments\( :: crates/storage/src crates/core/src crates/bench/src :: stores decode each extent once into FragmentColumns: no raw stream rebuilt and parsed again"
  "0 :: fn raw_from_(edges|fragments) :: crates/codec/src :: each codec tier decodes an extent into columns only; decode_extent serialises them for callers that want bytes"
  "0 :: pub fn fragments\(|struct Fragments|fn read_into :: crates/storage/src/extent.rs :: FragmentColumns::parse is the one raw parser and read_columns the one extent read"
  "0 :: ^[[:space:]]*edges: Vec<Edge> :: crates/storage/src/veblock.rs :: an Eblock scan walks its columns: no flat edge copy beside them"
  "0 :: let (mut )?head = vec! :: crates/codec/src/block.rs :: the block codec keeps its hash heads between calls: no 512 KiB table filled per spill chunk"
  "0 :: scan_eblock\( :: crates/core/src :: the engine scans Eblocks into reused scratch, not into fresh Vecs"
  "0 :: in_edges_of\(|struct InEdge\b :: crates src tests examples :: GatherStore::read_in_edges into caller-kept InEdgeScratch is the gather store's one read: no allocating second path beside it"
  "0 :: Vec<Vec<u32>> :: crates/codec/src/bv.rs :: bv's reference window is index ranges into one flat id column"
  "1 :: encode_extent\(|encoder\.encode\( :: crates/storage/src :: storage::extent is the only encode site of coded extents"
  "0 :: vec!\[false :: crates/codec/src/bv.rs :: bv prices copy-reference candidates in one streaming pass, without a copied bitmap per candidate"
  "0 :: sort_by_cached_key|DeliveredMessages|Vec<\(u32, Vec<(M|P::Message)> :: crates/core/src/modes crates/core/src/worker.rs crates/storage/src :: storage::inbox::Inbox is the one receive path: no grouped Vec of message Vecs, no allocating sort key"
  "0 :: MsgAccumulator|HashMap<u32, M> :: crates/core/src :: Inbox::from_staged is the only group-by-destination: no accumulator map in the engine"
  "0 :: fn fold\( :: crates/storage/src/inbox.rs :: combined values fold by index (FoldBuf) where they are produced or staged, never grouped first"
  "0 :: from_staged\([^)]*\)\.fold :: crates/net/src/wire.rs crates/core/src/modes :: combined values fold by index (FoldBuf) where they are produced or staged, never grouped first"
  "0 :: sort_by_key :: crates/core/src/modes crates/net/src/wire.rs :: no sort in the executors or the wire encodings"
  "0 :: MasterSnapshot :: crates/core/src :: the master's cursor is a MasterState, not a parallel snapshot struct"
  "0 :: MasterState[[:space:]]*\{ :: crates/core/src !snapshot.rs :: no hand-copied MasterState literal outside snapshot.rs"
  "0 :: CodecChoice::(Block|Auto) :: crates src tests examples :: three codec choices: block and auto lost every row they were swept on"
  "0 :: FabricTap|ArqCounters|install_tap :: crates src tests examples :: NetStats' overhead counters are the ARQ observation surface"
  "0 :: enum Json|fn parse_(json|value)|fn json_escape :: crates/bench :: obs::validate_json is the workspace's one JSON reader and obs::json_escape its one escaper"
  "0 :: enum Json|pub fn parse :: crates/obs/src :: validate_json is a syntax-only walk: no JSON document is built, since nothing reads one back"
  "0 :: bench_diff|report::diff|diff_reports|GatedReport :: crates/bench/src :: CI regenerates every committed BENCH_*.json and compares it byte for byte: no tolerance tool beside that gate"
  "0 :: wall_secs :: crates/bench/src/report.rs :: a report compared byte for byte carries nothing timed: wall-clock numbers live in benchmark/"
  "0 :: crate::table|BenchRow|BenchReport :: crates/bench/src :: report::Report is the one output type: an experiment builds each number once, as a Cell of a Table, and repro writes the tables it printed"
  "0 :: fn (table|bench|outcome)_row\b :: crates/bench/src :: no second row builder beside the printed table: a gated job row is job_cells plus the experiment's own cells"
  "0 :: fn (to|from)_bytes :: crates/codec/src/ef.rs :: Elias-Fano directories are rebuilt at load, never persisted"
  "0 :: \.(put|get)_(u8|u32|u64|f64|str|bytes|count)\( :: crates/core/src/snapshot.rs crates/core/src/switch.rs crates/service/src/wal.rs crates/obs/src/sink.rs crates/net/src/packet.rs crates/gateway/src/proto.rs :: each persisted record is one record!/tagged! declaration, with no hand-written layout beside it: a step always carries its async block and residual, an audit its verdict and extensions as plain fields"
  "0 :: QT_AUDIT_MIN_BYTES|MIN_(STATE|EVENT|ARG)_BYTES :: crates :: MIN_BYTES is derived from each declaration, never kept by hand"
  "2 :: program\.update\( :: crates/core/src :: every executor updates through Worker::update_vertex; async's pseudo-rounds are the one other caller"
  "4 :: program\.message\( :: crates/core/src :: messages come from Worker::push_res, serve_pull, serve_gather and async's in-block regeneration"
  "1 :: \.begin_superstep\( :: crates/core/src :: run_step_kind is the one superstep frame"
  "1 :: \.finish_superstep\( :: crates/core/src :: run_step_kind is the one superstep frame"
  "0 :: Instant::now\(\)|track_residual|for p in 0\.\.workers :: crates/core/src/modes :: the frame times the superstep, the update kernel applies the residual rule, and broadcasts go through Endpoint::broadcast"
  "0 :: \.any\(\|i\| self\.get\(i\)\) :: crates/core/src/bitset.rs :: any_in_range tests whole words: an empty frontier costs a word load per 64 vertices, not a probe per vertex"
  "1 :: BitSet::new\( :: crates/core/src/worker.rs :: flag vectors are Frontier's, built once at load; the barrier path, the undo capture and restore reuse or move their words (the one left is the hot set's)"
  "0 :: respond_next|signaled_next|block_res :: crates/core/src :: core::frontier::Frontier owns both generations of every flag vector and its per-Vblock summary"
  "0 :: any_in_range\( :: crates/core/src !bitset.rs !frontier.rs :: the per-Vblock responder bit is computed once per barrier, by Frontier, and read there through block_has"
  "0 :: \.(put|get)_u(8|16|32|64)\( :: crates !frame.rs :: every byte read back goes through a declaration: fixed-width fields are codec::frame's own"
  "0 :: has_checkpoint|has_log_segment|sealed::|ENTRY_HEADER_BYTES :: crates :: storage::segment is the one per-superstep file kind: remove is idempotent, and LogEntry::MIN_BYTES bounds a log's entry count"
  "0 :: write_body|read_body|read_binary|write_binary :: crates :: the graph blob (service_log::GraphLayout) is the one binary graph layout; graph::io keeps its text formats"
  "0 :: to_le_bytes|from_le_bytes :: crates/storage/src/segment.rs crates/storage/src/service_log.rs :: segment and graph-blob bytes are written and read through declarations"
  "0 :: Partition::range|BlockLayout::new|build_with\(|cfg\.vblocks_per_worker :: crates/service/src :: a registered graph's partition, layout and stores come from core's one build path (SharedStores::build), and the job runs on them: nothing is pinned to keep two copies equal"
  "3 :: (AdjacencyStore|VeBlockStore|GatherStore)::build_with\( :: crates/core/src :: EdgeStores::build is the one build of a worker slot's edge stores, for private jobs and registered graphs alike"
  "0 :: graph\.reverse\(|reverse: Option|disk_root :: crates src tests examples :: pull's mirror masks come from one pass over the edges, and worker_disks is the one way to put a job on real files"
  "0 :: fn reverse\( :: crates/graph/src :: no transposed graph: pull gathers from its gather store"
  "0 :: sort_unstable|sorted_by_content|to_be_bytes :: crates/storage/src/inbox.rs :: every inbox keeps staged order (sender worker id, then send order): no content sort behind the grouping pass"
  "0 :: struct Switcher|annotate_tiers|decide_async|decide_inner|(^|[^A-Za-z])CostInputs :: crates src tests examples :: the switch is a function (switch::decide) of the master's cursor, which alone holds the mode, the Δt cursor, R_co and the Q_t audit; QtInputs is Eq. 11's one input type"
  "1 :: pub struct NetOverhead :: crates :: net::fabric declares the transport-overhead counters once; NetSnapshot and JobMetrics carry that type"
  "0 :: Vec<Option< :: crates/core/src/worker.rs :: pushM's online accumulators are a FoldBuf, the engine's one combining fold, not a second fold by index"
  "0 :: Vec<Vec<\(VertexId :: crates/net/src/flow.rs :: a sending buffer holds the wire records it flushes, not (dst, message) pairs re-encoded at each flush"
  "0 :: Responder<|out: Vec<\( :: crates/core/src :: b-pull's concatenating responder builds its response as wire records, not (dst, message) pairs"
  "0 :: fn buffer_id|fn flush_ids|fn vertex_ids :: crates/core/src/modes/pull.rs :: pull's ids are () records in a ThresholdBuffer<()>, read through wire::check_batch and wire::messages: no second per-peer buffer or id decoder"
)

# file :: most lines it may have
MAX_LINES=(
  "DESIGN.md :: 600"
  "README.md :: 300"
)

fail=0
for row in "${GUARDS[@]}"; do
  allowed=${row%% :: *}; rest=${row#* :: }
  pattern=${rest%% :: *}; rest=${rest#* :: }
  paths=${rest%% :: *}; reason=${rest#* :: }
  args=()
  for p in $paths; do
    case $p in '!'*) args+=("--exclude=${p#!}") ;; *) args+=("$p") ;; esac
  done
  hits=$(grep -rnE --include='*.rs' "$pattern" "${args[@]}")
  count=$(printf '%s' "$hits" | grep -c .)
  if [ "$count" -ne "$allowed" ]; then
    echo "guard: /$pattern/ matches $count times in $paths, want $allowed — $reason"
    [ -n "$hits" ] && echo "$hits"
    fail=1
  fi
done
for row in "${MAX_LINES[@]}"; do
  file=${row%% :: *}; max=${row#* :: }
  lines=$(wc -l < "$file")
  if [ "$lines" -gt "$max" ]; then
    echo "guard: $file has $lines lines, over its ratchet of $max — say it once, or cut elsewhere"
    fail=1
  fi
done
# Repo paths the docs cite must exist: the design of each subsystem is
# linked from DESIGN.md by the path of the module that holds it.
for doc in DESIGN.md README.md EXPERIMENTS.md; do
  for path in $(grep -oE '(crates|tests|examples|tools)/[A-Za-z0-9_./-]*[A-Za-z0-9_]' "$doc" | sort -u); do
    if [ ! -e "$path" ]; then
      echo "guard: $doc cites $path, which does not exist"
      fail=1
    fi
  done
done
# CHANGES.md: one line per PR, at most this many characters each.
MAX_CHANGES_CHARS=1500
n=0
while IFS= read -r line; do
  n=$((n + 1))
  chars=$(printf '%s' "$line" | LC_ALL=C.UTF-8 wc -m)
  if [ "$chars" -gt "$MAX_CHANGES_CHARS" ]; then
    echo "guard: CHANGES.md line $n has $chars characters, over $MAX_CHANGES_CHARS — raw runs go in the PR body, the history in git log"
    fail=1
  fi
done < CHANGES.md
exit $fail
