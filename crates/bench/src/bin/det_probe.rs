//! The determinism table: every byte-identity probe of the repository,
//! one row each. Same seed ⇒ byte-identical values, `Q_t` audits and
//! traces; CI's `determinism` job runs the table twice and requires
//! `diff -r` to find nothing.
//!
//! Usage: `det_probe <dir>` — runs every row once, writes the bytes that
//! must not depend on thread timing to `<dir>/<row>.bin` and prints one
//! summary line per row. Nothing timed is written.
//!
//! * `observe-<mode>-<codec>`, one row per `Mode::ALL` × `CodecChoice::ALL`
//!   pair — the job `repro --scale 20000 --mode M --codec C observe` runs
//!   (the same builder, `experiments::observe::traced_job`); output is the
//!   Chrome trace `--trace` writes, then the `Q_t` audit bytes, then the
//!   final value bits.
//! * `billion` — `repro billion` at its default scale; output is the
//!   edge count, logical and physical bytes, directory bytes, the sweep's
//!   physical and logical reads and the rank-sum bits, as `u64` LE.
//! * `service-<seed>` — a fixed two-tenant batch on one `GraphService`
//!   (hybrid PageRank on two different graphs, batch-submitted under a
//!   scheduling pause so the first grant is seed-decided); output is the
//!   combined per-job Chrome trace.
//! * `async-<seed>` — one tolerance-terminated `Mode::Async` PageRank on
//!   an id-localized RMAT graph derived from the seed; output is the
//!   Chrome trace, then the `Q_t` audit bytes (async extension included),
//!   then the final value bits.
//! * `gateway-<seed>` — a fixed three-tenant batch through the full
//!   client → wire → server → `EnginePool` stack over the loopback
//!   transport, on a 2-wide pool: two tenants placed on engine 0
//!   (seed-decided interleaving, contention through its small shared
//!   cache) and one on engine 1, batch-submitted under the all-engine
//!   pause; output is each job's value bytes, `Q_t` audit bytes and
//!   Chrome trace, length-prefixed.
//!
//! The seeded rows run for seeds 1, 7, 42 and 1337.

use hybridgraph_algos::PageRank;
use hybridgraph_bench::experiments::{billion, observe};
use hybridgraph_bench::Scale;
use hybridgraph_core::{encode_qt_audits, run_job, JobConfig, JobMetrics, Mode};
use hybridgraph_gateway::{
    GatewayClient, GatewayConfig, GatewayServer, JobOptions, LoopbackTransport, ProgramSpec,
    SubmitReq,
};
use hybridgraph_graph::{gen, StreamSpec};
use hybridgraph_obs::{export_chrome_trace, export_chrome_trace_jobs, TraceSink};
use hybridgraph_service::{EnginePool, GraphService, GraphSpec, JobRequest, ServiceConfig};
use hybridgraph_storage::CodecChoice;
use std::path::Path;
use std::sync::Arc;

/// The seeds every seeded row runs.
const SEEDS: [u64; 4] = [1, 7, 42, 1337];

/// One row of the table.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Row {
    Observe(Mode, CodecChoice),
    Billion,
    Service(u64),
    Async(u64),
    Gateway(u64),
}

/// Every row, in run order.
fn table() -> Vec<Row> {
    let observe = Mode::ALL
        .into_iter()
        .flat_map(|m| CodecChoice::ALL.map(|c| Row::Observe(m, c)));
    let seeded = [Row::Service, Row::Async, Row::Gateway]
        .into_iter()
        .flat_map(|row| SEEDS.map(row));
    observe.chain([Row::Billion]).chain(seeded).collect()
}

impl Row {
    /// The row's name, which is also its file's stem.
    fn name(self) -> String {
        match self {
            Row::Observe(m, c) => format!("observe-{}-{}", m.label(), c.label()),
            Row::Billion => "billion".into(),
            Row::Service(seed) => format!("service-{seed}"),
            Row::Async(seed) => format!("async-{seed}"),
            Row::Gateway(seed) => format!("gateway-{seed}"),
        }
    }

    /// Runs the row: the bytes to compare and a one-line summary.
    fn run(self) -> (Vec<u8>, String) {
        match self {
            Row::Observe(mode, codec) => observed(mode, codec),
            Row::Billion => billion_row(),
            Row::Service(seed) => service(seed),
            Row::Async(seed) => asynchronous(seed),
            Row::Gateway(seed) => gateway(seed),
        }
    }
}

/// One engine job's bytes: its Chrome trace, then its `Q_t` audit bytes,
/// then its final value bits.
fn job_bytes(sink: &TraceSink, metrics: &JobMetrics, values: &[f64]) -> Vec<u8> {
    let mut blob = export_chrome_trace(sink).into_bytes();
    blob.extend_from_slice(&encode_qt_audits(&metrics.qt_audit));
    for v in values {
        blob.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    blob
}

fn observed(mode: Mode, codec: CodecChoice) -> (Vec<u8>, String) {
    let (r, sink) = observe::traced_job(Scale(20_000), mode, codec);
    let blob = job_bytes(&sink, &r.metrics, &r.values);
    let summary = format!(
        "{} supersteps, {} switches",
        r.metrics.supersteps(),
        r.metrics.switches.len()
    );
    (blob, summary)
}

fn billion_row() -> (Vec<u8>, String) {
    let o = billion::measure(&StreamSpec::twitter().scaled(Scale::default_scale().0));
    let fields = [
        o.edges,
        o.logical,
        o.physical,
        o.directory,
        o.sweep_physical,
        o.sweep_logical,
        o.rank_sum.to_bits(),
    ];
    let summary = format!("{} edges, rank sum {:.12}", o.edges, o.rank_sum);
    (
        fields.iter().flat_map(|f| f.to_le_bytes()).collect(),
        summary,
    )
}

/// The contended service configuration shared by the `service` and
/// `gateway` probes: a cache small enough that co-resident tenants evict
/// each other, so the output witnesses the shared-cache paths and not
/// just the scheduler interleaving.
fn contended(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        ..ServiceConfig::default()
    }
}

fn service(seed: u64) -> (Vec<u8>, String) {
    let svc = GraphService::new(ServiceConfig {
        max_resident_jobs: 2,
        max_queued_jobs: 0,
        ..contended(seed)
    });
    svc.register_graph(
        "a",
        gen::rmat(256, 2048, gen::RmatParams::default(), 11),
        GraphSpec::new(3).with_vblocks(2),
    )
    .unwrap();
    svc.register_graph("b", gen::uniform(200, 1600, 5), GraphSpec::new(3))
        .unwrap();

    let cfg = || {
        let mut cfg = JobConfig::new(Mode::Hybrid, 3).with_buffer(2048);
        cfg.initial_mode_override = Some(Mode::Push);
        cfg
    };
    let sink_a = Arc::new(TraceSink::new(3));
    let sink_b = Arc::new(TraceSink::new(3));
    let pause = svc.pause_scheduling();
    let t_a = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("a", cfg().with_trace(Arc::clone(&sink_a))),
        )
        .unwrap();
    let t_b = svc
        .submit(
            Arc::new(PageRank::new(4)),
            JobRequest::new("b", cfg().with_trace(Arc::clone(&sink_b))),
        )
        .unwrap();
    drop(pause);
    let r_a = t_a.wait().unwrap();
    let r_b = t_b.wait().unwrap();

    let trace = export_chrome_trace_jobs(&[("job-a", &sink_a), ("job-b", &sink_b)]);
    let summary = format!(
        "{} + {} supersteps",
        r_a.metrics.supersteps(),
        r_b.metrics.supersteps()
    );
    (trace.into_bytes(), summary)
}

fn asynchronous(seed: u64) -> (Vec<u8>, String) {
    // Locality gives the pseudo-rounds interior vertices to chew on; the
    // rewiring seed is decorrelated from the RMAT seed so the two sweeps
    // don't share SplitMix64 streams.
    let g = gen::localize(
        &gen::rmat(512, 4096, gen::RmatParams::default(), seed),
        0.9,
        48,
        seed ^ 0x9e37_79b9,
    );
    let sink = Arc::new(TraceSink::new(3));
    let cfg = JobConfig::new(Mode::Async, 3)
        .with_buffer(512)
        .with_trace(Arc::clone(&sink));
    let r = run_job(Arc::new(PageRank::until(1e-8, 120)), &g, cfg).unwrap();

    let blob = job_bytes(&sink, &r.metrics, &r.values);
    let summary = format!(
        "{} barriers (+{} saved)",
        r.metrics.supersteps(),
        r.metrics.barriers_saved()
    );
    (blob, summary)
}

fn gateway(seed: u64) -> (Vec<u8>, String) {
    let pool = EnginePool::new(contended(seed), 2);
    let mut names: Vec<String> = Vec::new();
    for engine in [0usize, 0, 1] {
        let name = (0..)
            .map(|i| format!("t{i}"))
            .find(|n| pool.placement(n) == engine && !names.contains(n))
            .unwrap();
        names.push(name);
    }

    let server = GatewayServer::new(pool, GatewayConfig::default());
    let transport = LoopbackTransport::new();
    let handle = server.serve(transport.clone());
    let mut client = GatewayClient::connect_loopback(&transport).expect("connect");

    let graphs = [
        gen::rmat(256, 2048, gen::RmatParams::default(), 11),
        gen::uniform(200, 1600, 5),
        gen::rmat(224, 1792, gen::RmatParams::default(), 23),
    ];
    for (i, (name, g)) in names.iter().zip(&graphs).enumerate() {
        let vblocks = if i == 0 { 2 } else { 1 };
        client
            .register_graph(name, g, 3, vblocks, CodecChoice::None)
            .expect("register");
    }

    let options = JobOptions {
        mode: Mode::Hybrid,
        buffer_messages: 2048,
        trace: true,
        max_supersteps: 0,
    };
    let jobs = client
        .submit_batch(
            names
                .iter()
                .map(|name| SubmitReq {
                    graph: name.clone(),
                    program: ProgramSpec::PageRank { supersteps: 4 },
                    options,
                })
                .collect(),
        )
        .expect("batch");

    let mut blob = Vec::new();
    let mut supersteps = Vec::new();
    for &id in &jobs {
        let o = client.fetch(id).expect("fetch");
        for part in [
            &o.values[..],
            &o.audits[..],
            o.trace.as_deref().unwrap().as_bytes(),
        ] {
            blob.extend_from_slice(&(part.len() as u64).to_le_bytes());
            blob.extend_from_slice(part);
        }
        supersteps.push(o.supersteps.to_string());
    }
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();

    let summary = format!(
        "jobs {jobs:?} on engines {:?}, {} supersteps",
        names
            .iter()
            .map(|n| server.pool().placement(n))
            .collect::<Vec<_>>(),
        supersteps.join("+"),
    );
    (blob, summary)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: det_probe <dir>");
        std::process::exit(2)
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).expect("create output directory");
    for row in table() {
        let name = row.name();
        let (bytes, summary) = row.run();
        std::fs::write(dir.join(format!("{name}.bin")), &bytes).expect("write row");
        println!("{name}: {summary}, {} bytes", bytes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The table covers every mode × codec pair, `billion` and the four
    /// seeds of each seeded probe, under unique names: a mode or codec
    /// added later, or a row dropped, fails here.
    #[test]
    fn table_covers_every_required_row_once() {
        let rows = table();
        let mut must: Vec<Row> = Vec::new();
        for mode in Mode::ALL {
            for codec in CodecChoice::ALL {
                must.push(Row::Observe(mode, codec));
            }
        }
        must.push(Row::Billion);
        for seed in [1, 7, 42, 1337] {
            must.extend([Row::Service(seed), Row::Async(seed), Row::Gateway(seed)]);
        }
        for row in &must {
            assert!(rows.contains(row), "the table has no {} row", row.name());
        }
        let mut names = HashSet::new();
        for row in &rows {
            let name = row.name();
            assert!(!name.contains('/'), "{name} is not a file name");
            assert!(names.insert(name.clone()), "two rows are named {name}");
        }
    }
}
