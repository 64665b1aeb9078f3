//! Gateway end-to-end: a job through the network front door must be
//! byte-identical to the same job submitted directly, a multi-engine
//! pool must replay byte-identically run to run, every engine error
//! must cross the wire as its stable `(domain, code)` pair, and the
//! frame layer must reject malformed, torn and hostile input with typed
//! errors — never a panic (including under a seeded fuzz loop).

use hybridgraph::core::encode_qt_audits;
use hybridgraph::gateway::proto::{
    encode_values, ErrorDomain, GraphSource, JobOptions, JobStatusInfo, ProgramSpec, ProgressEvent,
    Request, Response, SubmitReq, GW_SHUTTING_DOWN, GW_UNKNOWN_DATASET, GW_UNKNOWN_JOB,
};
use hybridgraph::gateway::wire::{
    decode_frame, encode_frame, read_frame, write_frame, WireError, DEFAULT_MAX_FRAME, MAGIC,
    VERSION,
};
use hybridgraph::gateway::ClientError;
use hybridgraph::prelude::*;
use hybridgraph_graph::gen;
use std::io::Write as _;
use std::sync::Arc;

const SUPERSTEPS: u64 = 4;
const WORKERS: usize = 3;
const BUFFER: u64 = 2048;

fn svc_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        // Small enough that co-resident tenants contend through
        // evictions, as in the service-level determinism tests.
        cache_bytes: 32 * 1024,
        cache_slots: 8,
        ..ServiceConfig::default()
    }
}

fn tenant_graphs() -> Vec<Graph> {
    vec![
        gen::rmat(256, 2048, gen::RmatParams::default(), 11),
        gen::uniform(200, 1600, 5),
        gen::rmat(224, 1792, gen::RmatParams::default(), 23),
        gen::uniform(180, 1440, 9),
    ]
}

fn options(trace: bool) -> JobOptions {
    JobOptions {
        mode: Mode::Hybrid,
        buffer_messages: BUFFER,
        trace,
        max_supersteps: 0,
    }
}

/// A served loopback gateway plus a connected client.
fn loopback_gateway(
    seed: u64,
    engines: usize,
) -> (
    GatewayServer,
    Arc<LoopbackTransport>,
    hybridgraph::gateway::ServerHandle,
    GatewayClient,
) {
    let server = GatewayServer::new(
        EnginePool::new(svc_cfg(seed), engines),
        GatewayConfig::default(),
    );
    let transport = LoopbackTransport::new();
    let handle = server.serve(transport.clone());
    let client = GatewayClient::connect_loopback(&transport).expect("connect");
    (server, transport, handle, client)
}

/// The ISSUE's core acceptance: the gateway adds observation, never
/// behavior. One traced hybrid PageRank job through the loopback
/// gateway must match the same job submitted directly to an
/// `EnginePool` byte for byte — values, `Q_t` audit bytes, the Chrome
/// trace, and the modeled/physical accounting.
#[test]
fn loopback_job_byte_identical_to_direct_submission() {
    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);

    let pool = EnginePool::new(svc_cfg(7), 1);
    pool.register_graph("g", g.clone(), GraphSpec::new(WORKERS).with_vblocks(2))
        .expect("register");
    let sink = Arc::new(TraceSink::new(WORKERS));
    let direct = pool
        .submit(
            Arc::new(PageRank::new(SUPERSTEPS)),
            JobRequest::new(
                "g",
                JobConfig::new(Mode::Hybrid, WORKERS)
                    .with_buffer(BUFFER as usize)
                    .with_trace(Arc::clone(&sink)),
            ),
        )
        .expect("admit")
        .wait()
        .expect("direct job failed");

    let (_server, _transport, handle, mut client) = loopback_gateway(7, 1);
    client
        .register_graph("g", &g, WORKERS, 2, CodecChoice::None)
        .expect("register");
    let job = client
        .submit(
            "g",
            ProgramSpec::PageRank {
                supersteps: SUPERSTEPS,
            },
            options(true),
        )
        .expect("submit");
    let outcome = client.fetch(job).expect("fetch");
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();

    assert_eq!(
        outcome.values,
        encode_values(&direct.values),
        "values diverged"
    );
    assert_eq!(
        outcome.audits,
        encode_qt_audits(&direct.metrics.qt_audit),
        "Q_t audits diverged"
    );
    assert_eq!(
        outcome.trace.as_deref(),
        Some(export_chrome_trace(&sink).as_str()),
        "traces diverged"
    );
    assert_eq!(outcome.modeled_secs, direct.metrics.modeled_total_secs());
    assert_eq!(outcome.physical_bytes, direct.metrics.total_io_bytes());
    assert_eq!(outcome.supersteps, direct.metrics.supersteps());
}

/// One full four-tenant batch on a 4-engine pool over loopback: returns
/// every job's `(values, audits, trace)` blobs plus the assigned ids.
#[allow(clippy::type_complexity)]
fn run_pool_batch(seed: u64) -> (Vec<u64>, Vec<(Vec<u8>, Vec<u8>, String)>) {
    let graphs = tenant_graphs();
    let (server, _transport, handle, mut client) = loopback_gateway(seed, 4);
    // One tenant per engine, found by probing the placement hash.
    let names: Vec<String> = (0..4)
        .map(|e| {
            (0..)
                .map(|i| format!("t{i}"))
                .find(|n| server.pool().placement(n) == e)
                .unwrap()
        })
        .collect();
    for (name, g) in names.iter().zip(&graphs) {
        client
            .register_graph(name, g, WORKERS, 1, CodecChoice::None)
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
                    options: options(true),
                })
                .collect(),
        )
        .expect("batch");
    let blobs = jobs
        .iter()
        .map(|&id| {
            let o = client.fetch(id).expect("fetch");
            (o.values, o.audits, o.trace.expect("traced job"))
        })
        .collect();
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
    (jobs, blobs)
}

/// The pool-wide replay guarantee through the gateway: the same
/// four-tenant batch on a 4-engine pool, run twice under the same seed,
/// must produce byte-identical values, audits and traces for every job
/// — and the gateway must assign ids in submission order.
#[test]
fn four_engine_pool_double_run_byte_identical() {
    for seed in [1, 42] {
        let (ids1, run1) = run_pool_batch(seed);
        let (ids2, run2) = run_pool_batch(seed);
        assert_eq!(ids1, vec![0, 1, 2, 3], "ids follow submission order");
        assert_eq!(ids1, ids2, "seed {seed}: job ids diverged");
        for (i, (a, b)) in run1.iter().zip(&run2).enumerate() {
            assert_eq!(a.0, b.0, "seed {seed}: job {i} values diverged");
            assert_eq!(a.1, b.1, "seed {seed}: job {i} audits diverged");
            assert_eq!(a.2, b.2, "seed {seed}: job {i} traces diverged");
        }
    }
}

/// Placement is a pure function of the graph name: independent pools of
/// the same width agree, and `Registered` reports the engine the
/// placement hash names.
#[test]
fn placement_is_deterministic_and_reported() {
    let probe_a = EnginePool::new(svc_cfg(1), 4);
    let probe_b = EnginePool::new(svc_cfg(99), 4);
    for i in 0..32 {
        let name = format!("tenant-{i}");
        assert_eq!(
            probe_a.placement(&name),
            probe_b.placement(&name),
            "placement must not depend on the pool seed"
        );
    }

    let (server, _transport, handle, mut client) = loopback_gateway(1, 4);
    let g = gen::uniform(64, 256, 3);
    for name in ["alpha", "beta", "gamma"] {
        let (engine, _) = client
            .register_graph(name, &g, 2, 1, CodecChoice::None)
            .expect("register");
        assert_eq!(engine as usize, server.pool().placement(name));
    }
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
}

/// Progress subscription: events arrive in order (load first, then
/// strictly increasing supersteps, one terminal `Done` last) and the
/// stream's final status matches a later snapshot and fetch.
#[test]
fn subscribe_streams_ordered_progress() {
    let (_server, _transport, handle, mut client) = loopback_gateway(3, 1);
    let g = gen::uniform(128, 512, 3);
    client
        .register_graph("g", &g, 2, 1, CodecChoice::None)
        .expect("register");
    let job = client
        .submit(
            "g",
            ProgramSpec::PageRank {
                supersteps: SUPERSTEPS,
            },
            options(false),
        )
        .expect("submit");
    let mut events = Vec::new();
    let status = client
        .subscribe(job, |ev| events.push(ev.clone()))
        .expect("subscribe");
    assert_eq!(status, JobStatusInfo::Done);

    assert!(
        matches!(events.first(), Some(ProgressEvent::Loaded { .. })),
        "first event must be the load barrier: {events:?}"
    );
    let steps: Vec<u64> = events
        .iter()
        .filter_map(|ev| match ev {
            ProgressEvent::Superstep { superstep, .. } => Some(*superstep),
            _ => None,
        })
        .collect();
    assert_eq!(steps, (1..=SUPERSTEPS).collect::<Vec<_>>(), "barrier order");
    assert_eq!(events.last(), Some(&ProgressEvent::Done));
    assert_eq!(
        events.iter().filter(|ev| ev.is_terminal()).count(),
        1,
        "exactly one terminal event"
    );

    assert_eq!(client.status(job).expect("status"), JobStatusInfo::Done);
    assert!(client.fetch(job).is_ok(), "results stay fetchable");
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
}

/// A well-formed request the engine cannot run — `pushM` needs a combiner
/// and LPA has none — used to panic the service's job thread: the job
/// stayed `Running`, its scheduler lane stayed held and the waiter died.
/// It must fail as a typed `JobError::InvalidConfig` (wire code 5) and
/// leave the engine able to run the next job.
#[test]
fn unrunnable_config_fails_typed_and_frees_the_engine() {
    let (_server, _transport, handle, mut client) = loopback_gateway(5, 1);
    let g = gen::uniform(128, 512, 3);
    client
        .register_graph("g", &g, 2, 1, CodecChoice::None)
        .expect("register");
    let bad = JobOptions {
        mode: Mode::PushM,
        ..options(false)
    };
    let job = client
        .submit("g", ProgramSpec::Lpa { supersteps: 3 }, bad)
        .expect("the request itself is admissible");
    let mut events = Vec::new();
    let status = client
        .subscribe(job, |ev| events.push(ev.clone()))
        .expect("subscribe");
    assert!(
        matches!(status, JobStatusInfo::Failed { code: 5, .. }),
        "{status:?}"
    );
    assert!(
        matches!(&events[..], [ProgressEvent::Failed { code: 5, message }]
            if message.contains("requires a combiner")),
        "{events:?}"
    );

    // Same engine, same lane: a runnable job completes.
    let next = client
        .submit("g", ProgramSpec::Lpa { supersteps: 3 }, options(false))
        .expect("submit");
    let status = client.subscribe(next, |_| {}).expect("subscribe");
    assert_eq!(status, JobStatusInfo::Done);
    assert!(client.fetch(next).is_ok());
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
}

fn remote_code(err: ClientError) -> (ErrorDomain, u16) {
    err.remote_code()
        .unwrap_or_else(|| panic!("expected a remote error, got {err}"))
}

/// Every error table crosses the wire with its stable `(domain, code)`
/// pair: admission, catalog and gateway-level failures each map to the
/// documented number, and the connection survives every one of them.
#[test]
fn error_codes_cross_the_wire() {
    let (_server, transport, handle, mut client) = loopback_gateway(1, 2);
    let g = gen::uniform(64, 256, 3);

    // Admission code 1: submitting against an unregistered graph.
    let err = client
        .submit("ghost", ProgramSpec::Wcc, options(false))
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Admission, 1));

    // Gateway code 1: status / fetch of a job id never assigned.
    let err = client.status(999).unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Gateway, GW_UNKNOWN_JOB));
    let err = client.fetch(999).unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Gateway, GW_UNKNOWN_JOB));

    // Gateway code 3: a server-side dataset build with an unknown name.
    let err = client
        .register_dataset("d", "nosuch", 20_000, 2, 1, CodecChoice::None)
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Gateway, GW_UNKNOWN_DATASET));

    // Catalog code 1: re-registering a taken name.
    client
        .register_graph("g", &g, 2, 1, CodecChoice::None)
        .expect("register");
    let err = client
        .register_graph("g", &g, 2, 1, CodecChoice::None)
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Catalog, 1));

    // Catalog code 2: evicting a name that was never registered.
    let err = client.evict("ghost").unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Catalog, 2));

    // Catalog code 4: more workers than the engine's cache shards.
    let err = client
        .register_graph("wide", &g, 99, 1, CodecChoice::None)
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Catalog, 4));

    // Gateway code 2: requests racing a shutdown are refused, not
    // dropped — a second connection sees the typed code.
    let mut straggler = GatewayClient::connect_loopback(&transport).expect("connect");
    client.shutdown().expect("shutdown");
    let err = straggler.metrics_text().unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Gateway, GW_SHUTTING_DOWN));

    drop(client);
    drop(straggler);
    handle.join();
}

/// A `RegisterGraph` for zero workers, for a dataset at scale 0, or with
/// an edge to a vertex outside its inline graph is a typed error, and the
/// engine goes on to register a valid graph. Each used to panic the
/// connection thread — zero workers and the stray edge while it held the
/// engine's state lock, poisoning the engine for every later request.
#[test]
fn degenerate_registrations_are_typed_errors_and_keep_the_engine() {
    let (_server, _transport, handle, mut client) = loopback_gateway(1, 1);
    let g = gen::uniform(64, 256, 3);
    let err = client
        .register_graph("none", &g, 0, 1, CodecChoice::None)
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Catalog, 6));
    let err = client
        .register_dataset("tiny", "livej", 0, 2, 1, CodecChoice::None)
        .unwrap_err();
    let malformed = WireError::Malformed(String::new()).code();
    assert_eq!(remote_code(err), (ErrorDomain::Protocol, malformed));
    let stray = Graph::from_parts(vec![0, 1], vec![Edge::to(VertexId(5))]);
    let err = client
        .register_graph("stray", &stray, 2, 1, CodecChoice::None)
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Protocol, malformed));

    let (engine, _) = client
        .register_graph("g", &g, 2, 1, CodecChoice::None)
        .expect("the engine still registers");
    assert_eq!(engine, 0, "one engine: the same one refused the bad spec");
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
}

/// An inline graph with no vertices (its blob is 16 zero bytes) is
/// catalog code 7, and the same engine goes on to register a real graph.
/// It used to hit an assertion under the engine's state lock, poisoning
/// the engine for every later request.
#[test]
fn empty_graph_registration_is_a_typed_error_and_keeps_the_engine() {
    let (_server, _transport, handle, mut client) = loopback_gateway(1, 1);
    let empty = Graph::empty(0);
    assert_eq!(hybridgraph::storage::encode_graph(&empty), [0u8; 16]);
    let err = client
        .register_graph("empty", &empty, 2, 1, CodecChoice::None)
        .unwrap_err();
    assert_eq!(remote_code(err), (ErrorDomain::Catalog, 7));
    let g = gen::uniform(64, 256, 3);
    let (engine, _) = client
        .register_graph("g", &g, 2, 1, CodecChoice::None)
        .expect("the engine still registers");
    assert_eq!(
        engine, 0,
        "one engine: the same one refused the empty graph"
    );
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
}

/// Reads one response frame off a raw connection.
fn read_resp(conn: &mut dyn hybridgraph::gateway::Conn) -> Result<Response, WireError> {
    let (frame, _) = read_frame(conn, DEFAULT_MAX_FRAME)?;
    Response::decode(frame.kind, &frame.body)
}

fn protocol_code(resp: Result<Response, WireError>) -> u16 {
    match resp {
        Ok(Response::Error(e)) => {
            assert_eq!(e.domain, ErrorDomain::Protocol, "domain of {e:?}");
            e.code
        }
        other => panic!("expected a protocol error response, got {other:?}"),
    }
}

/// Framing failures answer with a typed protocol error and close the
/// connection; malformed bodies inside a good frame answer with a typed
/// error and keep it. A peer that disconnects mid-frame must not take
/// the server down.
#[test]
fn protocol_robustness_over_raw_connections() {
    let server = GatewayServer::new(
        EnginePool::new(svc_cfg(1), 1),
        GatewayConfig {
            max_frame: 1 << 20,
            read_timeout: None,
        },
    );
    let transport = LoopbackTransport::new();
    let handle = server.serve(transport.clone());

    // Wrong magic: code 2, then EOF.
    let mut conn = transport.connect().expect("connect");
    conn.write_all(b"NOPEnope").expect("write");
    assert_eq!(protocol_code(read_resp(&mut *conn)), 2);
    assert!(
        matches!(read_resp(&mut *conn), Err(WireError::Closed)),
        "connection must close after a framing failure"
    );
    drop(conn);

    // Wrong version: code 3.
    let mut conn = transport.connect().expect("connect");
    conn.write_all(&MAGIC).expect("write");
    conn.write_all(&[VERSION + 1, 8, 0]).expect("write");
    assert_eq!(protocol_code(read_resp(&mut *conn)), 3);
    drop(conn);

    // A declared length over the server's cap: code 4, rejected before
    // any body byte is read (the body is never sent).
    let mut conn = transport.connect().expect("connect");
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&MAGIC);
    hostile.push(VERSION);
    hostile.push(8);
    hybridgraph::codec::varint::write_u64(&mut hostile, u64::MAX);
    conn.write_all(&hostile).expect("write");
    assert_eq!(protocol_code(read_resp(&mut *conn)), 4);
    drop(conn);

    // A well-framed but malformed body: code 6, and the connection
    // survives to serve a valid request.
    let mut conn = transport.connect().expect("connect");
    let bytes = encode_frame(2, &[0xff, 0xff, 0xff]);
    conn.write_all(&bytes).expect("write");
    assert_eq!(protocol_code(read_resp(&mut *conn)), 6);
    let (kind, body) = Request::Metrics.encode();
    write_frame(&mut *conn, kind, &body).expect("write");
    assert!(
        matches!(read_resp(&mut *conn), Ok(Response::MetricsText(_))),
        "connection must survive a malformed body"
    );
    drop(conn);

    // A well-formed RegisterGraph whose inline graph blob claims 2^61
    // vertices in 16 bytes: the count is sized against the blob before
    // anything is allocated, so this is code 6 too — it used to panic
    // the connection thread — and the connection keeps serving.
    let mut conn = transport.connect().expect("connect");
    let mut blob = (u64::MAX / 8).to_le_bytes().to_vec();
    blob.extend_from_slice(&0u64.to_le_bytes());
    let (kind, body) = Request::RegisterGraph {
        name: "hostile".into(),
        workers: 2,
        vblocks_per_worker: 1,
        codec: CodecChoice::None,
        source: GraphSource::Blob(blob),
    }
    .encode();
    write_frame(&mut *conn, kind, &body).expect("write");
    assert_eq!(protocol_code(read_resp(&mut *conn)), 6);
    let (kind, body) = Request::Metrics.encode();
    write_frame(&mut *conn, kind, &body).expect("write");
    assert!(
        matches!(read_resp(&mut *conn), Ok(Response::MetricsText(_))),
        "connection must survive a hostile graph blob"
    );
    drop(conn);

    // An unknown frame kind is a malformed body, not a crash.
    let mut conn = transport.connect().expect("connect");
    conn.write_all(&encode_frame(42, b"")).expect("write");
    assert_eq!(protocol_code(read_resp(&mut *conn)), 6);
    drop(conn);

    // A peer dying mid-frame (magic sent, rest never arrives) is torn,
    // handled, and the server keeps serving new connections.
    let mut conn = transport.connect().expect("connect");
    conn.write_all(&MAGIC[..2]).expect("write");
    drop(conn);
    let mut client = GatewayClient::connect_loopback(&transport).expect("connect");
    assert!(
        client.metrics_text().is_ok(),
        "server survived the torn frame"
    );

    // The rejected-frame counter saw every framing failure above.
    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metrics.contains("gateway_rejected_frames_total"),
        "exposition must carry the reject counter:\n{metrics}"
    );
    client.shutdown().expect("shutdown");
    drop(client);
    handle.join();
}

/// A tiny deterministic LCG for the fuzz loop (the repo bans ambient
/// randomness — seeds make failures replayable).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Seeded fuzz over the frame decoder and both message decoders:
/// mutated valid frames, truncations, and raw noise must all come back
/// as typed `WireError`s — never a panic, never an abort. Whatever does
/// decode must re-encode to an equal value (decode/encode agreement).
#[test]
fn fuzz_decoders_return_typed_errors() {
    let seed_requests: Vec<Vec<u8>> = [
        Request::RegisterGraph {
            name: "g".into(),
            workers: 3,
            vblocks_per_worker: 2,
            codec: CodecChoice::None,
            source: hybridgraph::gateway::GraphSource::Blob(vec![1, 2, 3, 4]),
        },
        Request::Submit(SubmitReq {
            graph: "g".into(),
            program: ProgramSpec::PageRank { supersteps: 5 },
            options: JobOptions::default(),
        }),
        Request::SubmitBatch(vec![SubmitReq {
            graph: "b".into(),
            program: ProgramSpec::Sa { ratio: 8, seed: 7 },
            options: JobOptions::default(),
        }]),
        Request::JobStatus { job_id: 3 },
        Request::Subscribe { job_id: 4 },
        Request::FetchResults { job_id: 5 },
        Request::Evict { name: "g".into() },
        Request::Metrics,
        Request::Shutdown,
    ]
    .iter()
    .map(|req| {
        let (kind, body) = req.encode();
        encode_frame(kind, &body)
    })
    .collect();

    let mut rng = Lcg(0x5eed_cafe);
    for round in 0..4000 {
        let mut buf = if round % 4 == 0 {
            // Raw noise of a random length.
            let len = (rng.next() % 64) as usize;
            (0..len).map(|_| rng.next() as u8).collect::<Vec<u8>>()
        } else {
            seed_requests[(rng.next() as usize) % seed_requests.len()].clone()
        };
        // Mutate: flip bytes, truncate, or append garbage.
        for _ in 0..(rng.next() % 4) {
            if buf.is_empty() {
                break;
            }
            let at = (rng.next() as usize) % buf.len();
            buf[at] = buf[at].wrapping_add(rng.next() as u8);
        }
        if rng.next().is_multiple_of(3) && !buf.is_empty() {
            buf.truncate((rng.next() as usize) % buf.len());
        }
        if rng.next().is_multiple_of(5) {
            buf.push(rng.next() as u8);
        }

        // The property: typed result, no panic — and any accepted frame
        // whose body decodes re-encodes to an equal message.
        if let Ok((frame, used)) = decode_frame(&buf, DEFAULT_MAX_FRAME) {
            assert!(used <= buf.len(), "round {round}: consumed past the buffer");
            if let Ok(req) = Request::decode(frame.kind, &frame.body) {
                let (kind, body) = req.encode();
                assert_eq!(
                    Request::decode(kind, &body).expect("re-decode"),
                    req,
                    "round {round}: request decode/encode disagreement"
                );
            }
            if let Ok(resp) = Response::decode(frame.kind, &frame.body) {
                let (kind, body) = resp.encode();
                assert_eq!(
                    Response::decode(kind, &body).expect("re-decode"),
                    resp,
                    "round {round}: response decode/encode disagreement"
                );
            }
        }
    }
}

/// TCP smoke: the same job over real localhost sockets produces the
/// same bytes as over loopback (the carrier never leaks into results).
#[test]
fn tcp_localhost_matches_loopback() {
    let g = gen::rmat(256, 2048, gen::RmatParams::default(), 11);
    let run = |mut client: GatewayClient, handle: hybridgraph::gateway::ServerHandle| {
        client
            .register_graph("g", &g, WORKERS, 1, CodecChoice::None)
            .expect("register");
        let job = client
            .submit(
                "g",
                ProgramSpec::PageRank {
                    supersteps: SUPERSTEPS,
                },
                options(false),
            )
            .expect("submit");
        let o = client.fetch(job).expect("fetch");
        client.shutdown().expect("shutdown");
        drop(client);
        handle.join();
        (
            o.values,
            o.audits,
            o.modeled_secs.to_bits(),
            o.physical_bytes,
        )
    };

    let (_server, _transport, handle, client) = loopback_gateway(7, 1);
    let via_loopback = run(client, handle);

    let server = GatewayServer::new(EnginePool::new(svc_cfg(7), 1), GatewayConfig::default());
    let transport = Arc::new(TcpTransport::bind("127.0.0.1:0").expect("bind"));
    let addr = transport.local_addr();
    let handle = server.serve(transport);
    let client = GatewayClient::connect_tcp(addr).expect("connect");
    let via_tcp = run(client, handle);

    assert_eq!(via_loopback, via_tcp, "tcp and loopback bytes diverged");
}
