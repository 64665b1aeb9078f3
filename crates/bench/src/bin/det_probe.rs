//! CI determinism probe: run seeded job(s), write every byte that must
//! not depend on thread timing to one file. Each CI determinism job runs
//! a mode twice per seed and requires the outputs to compare
//! byte-identical with `cmp`.
//!
//! Usage: `det_probe <service|async|gateway> <seed> <out>`
//!
//! * `service` — a fixed two-tenant batch on one `GraphService` (hybrid
//!   PageRank on two different graphs, batch-submitted under a scheduling
//!   pause so the first grant is seed-decided); output is the combined
//!   per-job Chrome trace.
//! * `async` — one tolerance-terminated `Mode::Async` PageRank on an
//!   id-localized RMAT graph derived from the seed; output is the Chrome
//!   trace, then the `Q_t` audit bytes (async extension included), then
//!   the final value bits.
//! * `gateway` — a fixed three-tenant batch through the full client →
//!   wire → server → `EnginePool` stack over the loopback transport, on a
//!   2-wide pool: two tenants placed on engine 0 (seed-decided
//!   interleaving, contention through its small shared cache) and one on
//!   engine 1, batch-submitted under the all-engine pause; output is each
//!   job's value bytes, `Q_t` audit bytes and Chrome trace, length-
//!   prefixed.

use hybridgraph_algos::PageRank;
use hybridgraph_core::{encode_qt_audits, run_job, JobConfig, Mode};
use hybridgraph_gateway::{
    GatewayClient, GatewayConfig, GatewayServer, JobOptions, LoopbackTransport, ProgramSpec,
    SubmitReq,
};
use hybridgraph_graph::gen;
use hybridgraph_obs::{export_chrome_trace, export_chrome_trace_jobs, TraceSink};
use hybridgraph_service::{EnginePool, GraphService, GraphSpec, JobRequest, ServiceConfig};
use hybridgraph_storage::CodecChoice;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!("usage: det_probe <service|async|gateway> <seed> <out>");
    std::process::exit(2)
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

/// Returns the bytes to compare and a one-line summary.
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

    let mut blob = export_chrome_trace(&sink).into_bytes();
    blob.extend_from_slice(&encode_qt_audits(&r.metrics.qt_audit));
    for v in &r.values {
        blob.extend_from_slice(&v.to_bits().to_le_bytes());
    }
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
    let [mode, seed, out] = args.as_slice() else {
        usage()
    };
    let Ok(seed) = seed.parse::<u64>() else {
        usage()
    };
    let (bytes, summary) = match mode.as_str() {
        "service" => service(seed),
        "async" => asynchronous(seed),
        "gateway" => gateway(seed),
        _ => usage(),
    };
    std::fs::write(out, &bytes).unwrap();
    println!(
        "{mode} seed {seed}: {summary}, {} bytes -> {out}",
        bytes.len()
    );
}
