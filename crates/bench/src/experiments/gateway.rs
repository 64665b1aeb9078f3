//! `gateway` — the network front door, measured.
//!
//! Two questions, answered deterministically:
//!
//! 1. **Transport overhead.** The same hybrid PageRank job runs three
//!    ways: submitted directly to a `GraphService`, through the gateway
//!    over the in-process loopback transport, and through the gateway
//!    over real TCP on localhost. The value blob and `Q_t` audit bytes
//!    must be identical across all three (the gateway adds observation,
//!    never behavior), and the wire cost — frames and bytes in each
//!    direction — must be identical between loopback and TCP (the frame
//!    layer is transport-agnostic). Modeled time is untouched by
//!    transport choice; the wire counters quantify what the front door
//!    itself costs.
//!
//! 2. **Multi-engine dispatch.** Four tenants whose graph names place
//!    them on four *distinct* engines of a 4-wide pool are batch-
//!    submitted against 1-, 2- and 4-engine pools. Engines share
//!    nothing, so the pool's modeled makespan — the max over engines of
//!    the modeled seconds its tenants consume — shrinks as tenants
//!    spread out, while each tenant's own bytes stay constant.
//!
//! Every cell is modeled or wire-counted, so the tables `repro` writes to
//! `BENCH_gateway.json` are byte-identical run to run and CI compares
//! them byte for byte with the committed copy.

use crate::report::{job_cells, Cell, Report, Table, JOB_COLUMNS};
use crate::{buffer_for, workers_for, Scale};
use hybridgraph_algos::PageRank;
use hybridgraph_core::{encode_qt_audits, JobConfig, Mode};
use hybridgraph_gateway::proto::encode_values;
use hybridgraph_gateway::{
    GatewayClient, GatewayConfig, GatewayServer, JobOptions, JobOutcome, LoopbackTransport,
    ProgramSpec, SubmitReq, TcpTransport,
};
use hybridgraph_graph::{Dataset, Graph};
use hybridgraph_service::{EnginePool, GraphSpec, JobRequest, ServiceConfig};
use hybridgraph_storage::CodecChoice;
use std::sync::Arc;

/// Superstep budget of every PageRank job.
const SUPERSTEPS: u64 = 5;
/// Pool seed of every engine pool (engine 0 keeps it verbatim).
const SEED: u64 = 42;
/// Swept pool widths.
const ENGINE_COUNTS: &[usize] = &[1, 2, 4];
/// Tenants in the dispatch sweep.
const TENANTS: usize = 4;

fn svc_cfg() -> ServiceConfig {
    ServiceConfig {
        seed: SEED,
        ..ServiceConfig::default()
    }
}

fn options(buffer: usize) -> JobOptions {
    JobOptions {
        mode: Mode::Hybrid,
        buffer_messages: buffer as u64,
        trace: false,
        max_supersteps: 0,
    }
}

/// Wire counters snapshotted off a server after a scripted exchange.
struct WireCost {
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// Runs the scripted single-job exchange (register, submit, fetch,
/// shutdown) against a 1-engine gateway over the given transport.
fn run_gateway_once(
    g: &Graph,
    workers: usize,
    buffer: usize,
    connect: impl FnOnce(&GatewayServer) -> (GatewayClient, hybridgraph_gateway::ServerHandle),
) -> (JobOutcome, WireCost) {
    let server = GatewayServer::new(EnginePool::new(svc_cfg(), 1), GatewayConfig::default());
    let (mut client, handle) = connect(&server);
    client
        .register_graph("g", g, workers, 1, CodecChoice::None)
        .expect("register");
    let job = client
        .submit(
            "g",
            ProgramSpec::PageRank {
                supersteps: SUPERSTEPS,
            },
            options(buffer),
        )
        .expect("submit");
    let outcome = client.fetch(job).expect("fetch");
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
    let m = server.metrics();
    (
        outcome,
        WireCost {
            frames_in: m.frames_in(),
            frames_out: m.frames_out(),
            bytes_in: m.bytes_in(),
            bytes_out: m.bytes_out(),
        },
    )
}

/// [`job_cells`] of a job fetched over the wire.
fn outcome_cells(o: &JobOutcome) -> Vec<Cell> {
    vec![
        Cell::Secs(o.modeled_secs),
        Cell::Bytes(o.physical_bytes),
        Cell::Bytes(o.logical_bytes),
        Cell::Count(o.supersteps),
        Cell::Text(o.switches.join(" ")),
    ]
}

/// Tenant names chosen so a 4-engine pool places one on each engine:
/// the first `t<i>` probing onto each engine index, engine order.
fn spread_tenant_names() -> Vec<String> {
    let probe = EnginePool::new(svc_cfg(), TENANTS);
    (0..TENANTS)
        .map(|e| {
            (0..)
                .map(|i| format!("t{i}"))
                .find(|name| probe.placement(name) == e)
                .unwrap()
        })
        .collect()
}

/// Runs both sweeps and adds their tables.
pub fn run(scale: Scale, rep: &mut Report) {
    let d = Dataset::LiveJ;
    let g = scale.build(d);
    let workers = workers_for(d);
    let buffer = buffer_for(d, scale);

    println!(
        "## gateway: transport overhead (direct / loopback / tcp) and \
         {}-tenant dispatch over {:?}-engine pools",
        TENANTS, ENGINE_COUNTS
    );

    // --- Part 1: transport overhead -------------------------------
    let direct_svc = EnginePool::new(svc_cfg(), 1);
    direct_svc
        .register_graph("g", scale.build(d), GraphSpec::new(workers))
        .expect("register");
    let direct = direct_svc
        .submit(
            Arc::new(PageRank::new(SUPERSTEPS)),
            JobRequest::new(
                "g",
                JobConfig::new(Mode::Hybrid, workers).with_buffer(buffer),
            ),
        )
        .expect("admit")
        .wait()
        .expect("direct job failed");
    let direct_values = encode_values(&direct.values);
    let direct_audits = encode_qt_audits(&direct.metrics.qt_audit);

    let (loop_out, loop_wire) = run_gateway_once(&g, workers, buffer, |server| {
        let transport = LoopbackTransport::new();
        let handle = server.serve(transport.clone());
        let client = GatewayClient::connect_loopback(&transport).expect("connect");
        (client, handle)
    });
    assert_eq!(
        loop_out.values, direct_values,
        "gateway-over-loopback values must be byte-identical to direct submission"
    );
    assert_eq!(
        loop_out.audits, direct_audits,
        "gateway-over-loopback audits must be byte-identical to direct submission"
    );

    let (tcp_out, tcp_wire) = run_gateway_once(&g, workers, buffer, |server| {
        let transport = Arc::new(TcpTransport::bind("127.0.0.1:0").expect("bind"));
        let addr = transport.local_addr();
        let handle = server.serve(transport);
        let client = GatewayClient::connect_tcp(addr).expect("connect");
        (client, handle)
    });
    assert_eq!(tcp_out.values, direct_values, "tcp values diverged");
    assert_eq!(tcp_out.audits, direct_audits, "tcp audits diverged");
    assert_eq!(
        (loop_wire.frames_in, loop_wire.bytes_in, loop_wire.bytes_out),
        (tcp_wire.frames_in, tcp_wire.bytes_in, tcp_wire.bytes_out),
        "the frame layer is transport-agnostic: loopback and tcp wire \
         costs must match"
    );

    let mut columns = vec!["path"];
    columns.extend(JOB_COLUMNS);
    columns.extend(["wire in", "wire out", "frames in", "frames out"]);
    let mut t = Table::new(
        "one PageRank job, three submission paths (identical results)",
        &columns,
    );
    let mut cells = vec![Cell::text("direct")];
    cells.extend(job_cells(&direct.metrics));
    cells.extend((0..4).map(|_| Cell::text("-")));
    t.row(cells);
    for (label, o, w) in [
        ("loopback", &loop_out, &loop_wire),
        ("tcp", &tcp_out, &tcp_wire),
    ] {
        let mut cells = vec![Cell::text(label)];
        cells.extend(outcome_cells(o));
        cells.extend([
            Cell::Bytes(w.bytes_in),
            Cell::Bytes(w.bytes_out),
            Cell::Count(w.frames_in),
            Cell::Count(w.frames_out),
        ]);
        t.row(cells);
    }
    rep.add(t);
    println!(
        "values + audits byte-identical on all three paths; loopback and \
         tcp moved identical wire bytes\n"
    );

    // --- Part 2: multi-engine dispatch ----------------------------
    let names = spread_tenant_names();
    let tenant_graphs: Vec<Graph> = (0..TENANTS).map(|_| scale.build(d)).collect();

    let mut t = Table::new(
        "batch of 4 tenants vs pool width (modeled makespan)",
        &[
            "engines",
            "makespan",
            "sum modeled",
            "physical",
            "logical",
            "supersteps",
            "speedup",
        ],
    );
    let mut columns = vec!["engines", "tenant", "engine"];
    columns.extend(JOB_COLUMNS);
    let mut tenants = Table::new("each tenant's job vs pool width", &columns);
    let mut solo_makespan = 0.0f64;
    for &engines in ENGINE_COUNTS {
        let server = GatewayServer::new(
            EnginePool::new(svc_cfg(), engines),
            GatewayConfig::default(),
        );
        let transport = LoopbackTransport::new();
        let handle = server.serve(transport.clone());
        let mut client = GatewayClient::connect_loopback(&transport).expect("connect");
        for (name, tg) in names.iter().zip(&tenant_graphs) {
            client
                .register_graph(name, tg, workers, 1, CodecChoice::None)
                .expect("register");
        }
        let jobs = client
            .submit_batch(
                names
                    .iter()
                    .map(|name| SubmitReq {
                        graph: name.clone(),
                        program: ProgramSpec::PageRank {
                            supersteps: SUPERSTEPS,
                        },
                        options: options(buffer),
                    })
                    .collect(),
            )
            .expect("batch");
        let outcomes: Vec<JobOutcome> = jobs
            .iter()
            .map(|&id| client.fetch(id).expect("fetch"))
            .collect();
        client.shutdown().expect("shutdown");
        drop(client);
        handle.join();

        // Engines share nothing: the pool's makespan is the max over
        // engines of the modeled seconds its tenants consume.
        let mut per_engine = vec![0.0f64; engines];
        for (name, o) in names.iter().zip(&outcomes) {
            per_engine[server.pool().placement(name)] += o.modeled_secs;
        }
        let makespan = per_engine.iter().cloned().fold(0.0, f64::max);
        let sum: f64 = outcomes.iter().map(|o| o.modeled_secs).sum();
        if engines == 1 {
            solo_makespan = makespan;
        }
        t.row(vec![
            Cell::Count(engines as u64),
            Cell::Secs(makespan),
            Cell::Secs(sum),
            Cell::Bytes(outcomes.iter().map(|o| o.physical_bytes).sum()),
            Cell::Bytes(outcomes.iter().map(|o| o.logical_bytes).sum()),
            Cell::Count(outcomes.iter().map(|o| o.supersteps).sum()),
            Cell::text(format!("{:.2}x", solo_makespan / makespan)),
        ]);
        for (name, o) in names.iter().zip(&outcomes) {
            let mut cells = vec![
                Cell::Count(engines as u64),
                Cell::text(name),
                Cell::Count(server.pool().placement(name) as u64),
            ];
            cells.extend(outcome_cells(o));
            tenants.row(cells);
        }
    }
    rep.add(t);
    rep.add(tenants);
}
