//! `serve_mixed`: an in-process gateway over TCP on localhost, two
//! registered graphs, and closed-loop clients that each wait for their
//! reply before sending the next request.
//!
//! The pool is non-durable on purpose: a durable pool's `JobBarrier` WAL
//! records carry cache snapshots and would grow for as long as the
//! benchmark submits jobs.

use crate::reference::fnv1a;
use crate::spans::{timed, Recorder, SpanId};
use crate::stats::Samples;
use crate::workloads::{livej, wiki_with_tail, Sizing, WORKERS};
use hybridgraph::gateway::proto::encode_values;
use hybridgraph::gateway::{ClientError, JobOptions, JobStatusInfo, ProgramSpec};
use hybridgraph::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Engines in the pool.
pub const ENGINES: usize = 2;
/// Names the two graphs register under; the pool's placement hash puts
/// them on different engines of a 2-engine pool.
const LIVEJ: &str = "livej";
const WIKI: &str = "wiki";
/// After each job a client polls `status` this many times…
const STATUS_PER_JOB: usize = 4;
/// …and reads the metrics page once.
const METRICS_PER_JOB: usize = 1;
/// One kind of job in the rotation.
#[derive(Copy, Clone, Debug)]
pub struct JobKind {
    pub label: &'static str,
    /// Registered graph name, [`LIVEJ`] or [`WIKI`].
    pub graph: &'static str,
    pub program: ProgramSpec,
    pub mode: Mode,
}

impl JobKind {
    fn options(&self) -> JobOptions {
        JobOptions {
            mode: self.mode,
            ..JobOptions::default()
        }
    }
}

/// The configuration the service derives for a job of `mode` on a graph
/// registered with `WORKERS` slots and one Vblock each, for direct
/// `run_job` calls that must compute what the service computes.
pub fn direct_config(mode: Mode) -> JobConfig {
    let mut cfg = JobConfig::new(mode, WORKERS);
    cfg.vblocks_per_worker = Some(1);
    cfg
}

/// The gateway, its graphs and the job rotation.
pub struct Served {
    server: GatewayServer,
    handle: hybridgraph::gateway::ServerHandle,
    transport: Arc<TcpTransport>,
    pub addr: SocketAddr,
    pub graph_a: Graph,
    pub graph_b: Graph,
    /// Every `Mode` and a non-combinable program (LPA) take turns, on
    /// alternating graphs.
    pub kinds: [JobKind; 6],
}

impl Served {
    const LIVEJ_DENOM: usize = 500;
    const WIKI_DENOM: usize = 1000;

    /// Builds both graphs, starts the server, registers the graphs inline
    /// and runs every job kind once, untimed.
    pub fn start(seed: u64, sizing: Sizing) -> Served {
        let graph_a = livej(sizing.denom(Self::LIVEJ_DENOM), seed);
        let (graph_b, source_b) = wiki_with_tail(sizing.denom(Self::WIKI_DENOM), seed);
        let pr = ProgramSpec::PageRank { supersteps: 5 };
        let kind = |label, graph, program, mode| JobKind {
            label,
            graph,
            program,
            mode,
        };
        let kinds = [
            kind("pagerank_hybrid", LIVEJ, pr, Mode::Hybrid),
            kind("pagerank_pushm", WIKI, pr, Mode::PushM),
            kind("pagerank_pull", LIVEJ, pr, Mode::Pull),
            kind("pagerank_async", WIKI, pr, Mode::Async),
            kind(
                "sssp_bpull",
                WIKI,
                ProgramSpec::Sssp { source: source_b.0 },
                Mode::BPull,
            ),
            kind(
                "lpa_async",
                LIVEJ,
                ProgramSpec::Lpa { supersteps: 5 },
                Mode::Async,
            ),
        ];

        let transport = Arc::new(TcpTransport::bind("127.0.0.1:0").expect("bind 127.0.0.1:0"));
        let addr = transport.local_addr();
        let pool = EnginePool::new(ServiceConfig::default(), ENGINES);
        let server = GatewayServer::new(pool, GatewayConfig::default());
        let handle =
            server.serve(Arc::clone(&transport) as Arc<dyn hybridgraph::gateway::Transport>);
        let served = Served {
            server,
            handle,
            transport,
            addr,
            graph_a,
            graph_b,
            kinds,
        };

        let mut client = GatewayClient::connect_tcp(addr).expect("connect to own gateway");
        for (name, graph) in [(LIVEJ, &served.graph_a), (WIKI, &served.graph_b)] {
            client
                .register_graph(name, graph, WORKERS, 1, CodecChoice::None)
                .expect("register graph");
        }
        for k in &served.kinds {
            let id = client
                .submit(k.graph, k.program, k.options())
                .expect("warm-up submit");
            client.fetch(id).expect("warm-up fetch");
        }
        served
    }

    /// Stops accepting and waits for every server thread. All clients
    /// must be dropped first: a connection handler ends when its peer
    /// closes.
    pub fn stop(self) {
        self.server.stop(&*self.transport);
        self.handle.join();
    }

    fn graph_of(&self, kind: &JobKind) -> &Graph {
        if kind.graph == LIVEJ {
            &self.graph_a
        } else {
            &self.graph_b
        }
    }

    /// The rotation's first job kind as a direct `run_job`: the traced
    /// run's reference job (the probes work on `graph_a`).
    pub fn reference_job(&self) -> (Arc<PageRank>, JobConfig) {
        match self.kinds[0].program {
            ProgramSpec::PageRank { supersteps } => (
                Arc::new(PageRank::new(supersteps)),
                direct_config(self.kinds[0].mode),
            ),
            other => unreachable!("the rotation starts with PageRank, not {other:?}"),
        }
    }

    /// FNV-1a of the value blob a direct `run_job` of `kind` produces.
    pub fn direct_fingerprint(&self, kind: &JobKind) -> Result<u64, JobError> {
        let graph = self.graph_of(kind);
        let cfg = direct_config(kind.mode);
        Ok(match kind.program {
            ProgramSpec::PageRank { supersteps } => fnv1a(&encode_values(
                &run_job(Arc::new(PageRank::new(supersteps)), graph, cfg)?.values,
            )),
            ProgramSpec::Sssp { source } => fnv1a(&encode_values(
                &run_job(Arc::new(Sssp::new(VertexId(source))), graph, cfg)?.values,
            )),
            ProgramSpec::Lpa { supersteps } => fnv1a(&encode_values(
                &run_job(Arc::new(Lpa::new(supersteps)), graph, cfg)?.values,
            )),
            other => unreachable!("{other:?} is not in the rotation"),
        })
    }
}

/// When a client stops starting new cycles.
#[derive(Copy, Clone, Debug)]
pub enum Until {
    Deadline(Instant),
    Cycles(usize),
}

/// What one client saw.
pub struct ClientLog {
    /// Per job kind: `submit` sent → `fetch` returned, that round trip per
    /// superstep, and `|E| × supersteps` over it.
    pub kinds: Vec<Samples>,
    /// `status` / `metrics_text` round trips.
    pub req_s: Vec<f64>,
    /// `(kind index, FNV-1a of the fetched value blob)` per job.
    pub fetched: Vec<(usize, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// One closed-loop client: `submit` → `subscribe` to the terminal event →
/// `fetch`, then the status polls and a metrics read; repeat.
pub fn client_loop(
    served: &Served,
    client_ix: usize,
    until: Until,
    rec: Option<&Recorder>,
) -> ClientLog {
    let mut log = ClientLog {
        kinds: vec![Samples::default(); served.kinds.len()],
        req_s: Vec::new(),
        fetched: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let track = client_ix as u32 + 1;
    let mut conn = match GatewayClient::connect_tcp(served.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client {client_ix}: connect failed: {e}");
            log.attempted = 1;
            log.failed = 1;
            return log;
        }
    };
    let mut cycle = 0usize;
    loop {
        match until {
            Until::Deadline(d) if Instant::now() >= d => break,
            Until::Cycles(n) if cycle >= n => break,
            _ => {}
        }
        // The two clients start half a rotation apart.
        let kind_ix = (cycle + client_ix * served.kinds.len() / CLIENTS) % served.kinds.len();
        let kind = &served.kinds[kind_ix];
        let rep = cycle as u32;
        let cycle_span = rec.map(|r| r.begin(kind.label, None, track, rep));
        let ctx = Cycle {
            conn: &mut conn,
            rec,
            parent: cycle_span,
            track,
            rep,
            log: &mut log,
        };
        let done = one_cycle(served, kind_ix, ctx);
        if let (Some(r), Some(id)) = (rec, cycle_span) {
            r.end(id);
        }
        if done.is_none() {
            eprintln!(
                "client {client_ix}: stopping after a failed {} cycle",
                kind.label
            );
            break;
        }
        cycle += 1;
    }
    log
}

/// One cycle's connection, span context and log.
struct Cycle<'a> {
    conn: &'a mut GatewayClient,
    rec: Option<&'a Recorder>,
    parent: Option<SpanId>,
    track: u32,
    rep: u32,
    log: &'a mut ClientLog,
}

impl Cycle<'_> {
    /// One client call: counted, timed, and a child span of the cycle.
    /// `None` after an error, which is counted as a failed operation.
    fn call<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut GatewayClient) -> Result<T, ClientError>,
    ) -> Option<(T, f64)> {
        self.log.attempted += 1;
        let conn = &mut *self.conn;
        let (out, secs) = timed(self.rec, name, self.parent, self.track, self.rep, || {
            f(conn)
        });
        match out {
            Ok(v) => Some((v, secs)),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                self.log.failed += 1;
                None
            }
        }
    }
}

/// One job and its follow-up requests; `None` once an operation failed
/// (the connection may be out of step, so the client stops).
fn one_cycle(served: &Served, kind_ix: usize, mut c: Cycle<'_>) -> Option<()> {
    let kind = &served.kinds[kind_ix];
    let start = Instant::now();
    let (job_id, _) = c.call("submit", |conn| {
        conn.submit(kind.graph, kind.program, kind.options())
    })?;
    let (status, _) = c.call("subscribe", |conn| conn.subscribe(job_id, |_| {}))?;
    if status != JobStatusInfo::Done {
        eprintln!("job {job_id} ({}) ended as {status:?}", kind.label);
        c.log.failed += 1;
        return None;
    }
    let (outcome, _) = c.call("fetch", |conn| conn.fetch(job_id))?;
    let rtt_s = start.elapsed().as_secs_f64();
    let samples = &mut c.log.kinds[kind_ix];
    samples.job_s.push(rtt_s);
    // Which jobs of the other client share the engine decides the gaps
    // between a job's progress events, so they are far noisier than its
    // round trip; a superstep here costs its share of the round trip.
    samples
        .step_ms
        .push(rtt_s * 1e3 / outcome.supersteps.max(1) as f64);
    samples
        .edges_per_s
        .push(served.graph_of(kind).num_edges() as f64 * outcome.supersteps as f64 / rtt_s);
    c.log.fetched.push((kind_ix, fnv1a(&outcome.values)));
    for _ in 0..STATUS_PER_JOB {
        let (_, secs) = c.call("status", |conn| conn.status(job_id))?;
        c.log.req_s.push(secs);
    }
    for _ in 0..METRICS_PER_JOB {
        let (_, secs) = c.call("metrics", |conn| conn.metrics_text())?;
        c.log.req_s.push(secs);
    }
    Some(())
}

/// Runs [`CLIENTS`] client loops side by side and returns their logs.
pub fn run_clients(served: &Served, until: Until, rec: Option<&Recorder>) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(served, c, until, rec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Fetched jobs whose value fingerprint differs from a direct `run_job`
/// of the same kind (a direct run that fails condemns all of its kind).
pub fn fetched_mismatches(served: &Served, logs: &[ClientLog]) -> u64 {
    let mut bad = 0;
    for (ix, kind) in served.kinds.iter().enumerate() {
        let fetched = logs
            .iter()
            .flat_map(|l| &l.fetched)
            .filter(|(k, _)| *k == ix);
        match served.direct_fingerprint(kind) {
            Ok(want) => bad += fetched.filter(|(_, got)| *got != want).count() as u64,
            Err(e) => {
                eprintln!("direct {} failed: {e}", kind.label);
                bad += fetched.count() as u64;
            }
        }
    }
    bad
}

/// A deadline `secs` from now.
pub fn deadline_in(secs: f64) -> Until {
    Until::Deadline(Instant::now() + Duration::from_secs_f64(secs))
}
