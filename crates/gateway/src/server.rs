//! The [`GatewayServer`]: the full service surface over any
//! [`Transport`].
//!
//! One thread accepts connections; each connection gets a handler thread
//! that reads request frames in order and answers them. Jobs run on the
//! [`EnginePool`] exactly as an in-process caller would run them — the
//! gateway adds observation (a job table, progress events, counters) but
//! never touches the engine's modeled time or I/O accounting, so a job
//! through the gateway is byte-identical to the same job submitted
//! directly.
//!
//! Framing errors (bad magic, bad version, oversized or torn frames)
//! close the connection after a best-effort typed error frame; malformed
//! bodies inside a well-framed message answer with an error and keep the
//! connection. Every engine error crosses the wire as a stable
//! `(domain, code)` pair — see [`crate::proto::RemoteError`].

use crate::metrics::GatewayMetrics;
use crate::proto::{
    encode_values, ErrorDomain, GraphSource, JobOutcome, JobStatusInfo, ProgramSpec, ProgressEvent,
    RemoteError, Request, Response, SubmitReq, GW_SHUTTING_DOWN, GW_UNKNOWN_DATASET,
    GW_UNKNOWN_JOB,
};
use crate::transport::{Conn, Transport};
use crate::wire::{self, WireError, DEFAULT_MAX_FRAME};
use hybridgraph_algos::{Lpa, PageRank, Sa, Sssp, Wcc};
use hybridgraph_core::{encode_qt_audits, JobConfig, JobResult, Mode, ProgressSink, VertexProgram};
use hybridgraph_graph::{Dataset, VertexId};
use hybridgraph_obs::{export_chrome_trace, TraceSink};
use hybridgraph_service::{AdmissionError, EnginePool, GraphSpec, JobRequest};
use hybridgraph_storage::{decode_graph, Record};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Gateway-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Cap on inbound frame bodies (default 64 MiB).
    pub max_frame: u64,
    /// Per-connection read timeout between requests; `None` waits
    /// forever (the loopback default for deterministic tests).
    pub read_timeout: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A job's current state in the gateway's table.
enum JobState {
    Running,
    Done(JobOutcome),
    Failed { code: u16, message: String },
}

struct JobCore {
    state: JobState,
    /// Progress events in arrival order; `Done`/`Failed` is appended
    /// last, so subscribers drain to a terminal event and stop.
    events: Vec<ProgressEvent>,
    supersteps_done: u64,
}

/// One tracked job: progress sink for the engine, event log for
/// subscribers, final outcome for `FetchResults`.
struct JobEntry {
    core: Mutex<JobCore>,
    cv: Condvar,
}

impl fmt::Debug for JobEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobEntry").finish()
    }
}

impl JobEntry {
    fn new() -> Arc<JobEntry> {
        Arc::new(JobEntry {
            core: Mutex::new(JobCore {
                state: JobState::Running,
                events: Vec::new(),
                supersteps_done: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn push_event(&self, ev: ProgressEvent) {
        let mut core = self.core.lock().unwrap();
        if let ProgressEvent::Superstep { superstep, .. } = &ev {
            core.supersteps_done = *superstep;
        }
        core.events.push(ev);
        self.cv.notify_all();
    }

    fn finish(&self, state: JobState, terminal: ProgressEvent) {
        let mut core = self.core.lock().unwrap();
        core.state = state;
        core.events.push(terminal);
        self.cv.notify_all();
    }

    fn status(&self) -> JobStatusInfo {
        let core = self.core.lock().unwrap();
        match &core.state {
            JobState::Running => JobStatusInfo::Running {
                supersteps_done: core.supersteps_done,
            },
            JobState::Done(_) => JobStatusInfo::Done,
            JobState::Failed { code, message } => JobStatusInfo::Failed {
                code: *code,
                message: message.clone(),
            },
        }
    }

    /// Blocks until terminal; returns the outcome or the failure.
    fn wait_outcome(&self) -> Result<JobOutcome, (u16, String)> {
        let mut core = self.core.lock().unwrap();
        loop {
            match &core.state {
                JobState::Done(o) => return Ok(o.clone()),
                JobState::Failed { code, message } => {
                    return Err((*code, message.clone()));
                }
                JobState::Running => core = self.cv.wait(core).unwrap(),
            }
        }
    }
}

impl ProgressSink for JobEntry {
    fn loaded(&self, modeled_secs: f64) {
        self.push_event(ProgressEvent::Loaded { modeled_secs });
    }

    fn superstep(&self, superstep: u64, mode: Mode, modeled_secs: f64) {
        self.push_event(ProgressEvent::Superstep {
            superstep,
            mode,
            modeled_secs,
        });
    }
}

struct Gw {
    pool: EnginePool,
    cfg: GatewayConfig,
    jobs: Mutex<HashMap<u64, Arc<JobEntry>>>,
    next_job: AtomicU64,
    metrics: GatewayMetrics,
    stopping: AtomicBool,
    /// Result-waiter threads, reaped at `ServerHandle::join`.
    waiters: Mutex<Vec<JoinHandle<()>>>,
}

/// The gateway server: serve it over one or more transports via
/// [`GatewayServer::serve`].
#[derive(Clone)]
pub struct GatewayServer {
    inner: Arc<Gw>,
}

/// Join handle for one `serve` call: waits for the accept loop and
/// every connection handler it spawned.
pub struct ServerHandle {
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    gw: Arc<Gw>,
}

impl ServerHandle {
    /// Waits for the accept loop, all connection handlers, and all
    /// result-waiter threads to finish.
    pub fn join(self) {
        self.accept.join().expect("accept loop panicked");
        for h in self.conns.lock().unwrap().drain(..) {
            h.join().expect("connection handler panicked");
        }
        for h in self.gw.waiters.lock().unwrap().drain(..) {
            h.join().expect("result waiter panicked");
        }
    }
}

impl GatewayServer {
    /// A gateway over `pool` under `cfg`.
    pub fn new(pool: EnginePool, cfg: GatewayConfig) -> GatewayServer {
        GatewayServer {
            inner: Arc::new(Gw {
                pool,
                cfg,
                jobs: Mutex::new(HashMap::new()),
                next_job: AtomicU64::new(0),
                metrics: GatewayMetrics::default(),
                stopping: AtomicBool::new(false),
                waiters: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The engine pool (shared with the server; engines are thread-safe).
    pub fn pool(&self) -> &EnginePool {
        &self.inner.pool
    }

    /// The gateway's frame/byte counters.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.inner.metrics
    }

    /// Renders the Prometheus gauge exposition (frames, bytes, rejected
    /// frames, per-engine queue depths).
    pub fn prometheus(&self) -> String {
        self.inner.metrics.prometheus(&self.inner.pool)
    }

    /// Spawns the accept loop on `transport`. Call `Shutdown` over any
    /// connection (or [`GatewayServer::stop`]) to end it, then
    /// [`ServerHandle::join`].
    pub fn serve(&self, transport: Arc<dyn Transport>) -> ServerHandle {
        let gw = Arc::clone(&self.inner);
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conns2 = Arc::clone(&conns);
        let transport2 = Arc::clone(&transport);
        let accept = thread::spawn(move || loop {
            if gw.stopping.load(Ordering::SeqCst) {
                break;
            }
            match transport2.accept() {
                Ok(conn) => {
                    let gw2 = Arc::clone(&gw);
                    let tr = Arc::clone(&transport2);
                    conns2
                        .lock()
                        .unwrap()
                        .push(thread::spawn(move || handle_conn(gw2, tr, conn)));
                }
                Err(_) => break,
            }
        });
        ServerHandle {
            accept,
            conns,
            gw: Arc::clone(&self.inner),
        }
    }

    /// Stops the accept loop of every `serve` running on `transport`.
    pub fn stop(&self, transport: &dyn Transport) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        transport.unblock();
    }
}

fn admission_error(e: &AdmissionError) -> Response {
    Response::Error(RemoteError {
        domain: ErrorDomain::Admission,
        code: e.code(),
        message: e.to_string(),
    })
}

fn gateway_error(code: u16, message: impl Into<String>) -> Response {
    Response::Error(RemoteError {
        domain: ErrorDomain::Gateway,
        code,
        message: message.into(),
    })
}

/// Builds a finished job's wire outcome from the engine's result.
fn outcome_of<P: VertexProgram>(
    r: &JobResult<P>,
    kind: ProgramSpec,
    sink: Option<&TraceSink>,
) -> JobOutcome {
    JobOutcome {
        value_kind: kind.value_kind(),
        values: encode_values(&r.values),
        audits: encode_qt_audits(&r.metrics.qt_audit),
        trace: sink.map(export_chrome_trace),
        modeled_secs: r.metrics.modeled_total_secs(),
        physical_bytes: r.metrics.total_io_bytes(),
        logical_bytes: r.metrics.total_io_logical_bytes(),
        supersteps: r.metrics.supersteps(),
        switches: r
            .metrics
            .switches
            .iter()
            .map(|(t, from, to)| format!("{t}:{}->{}", from.label(), to.label()))
            .collect(),
    }
}

/// Submits one typed job and spawns its result waiter. `entry` is both
/// the job-table record and the engine's progress sink, so streamed
/// events and the final outcome land in one place. Gateway job ids are
/// assigned in submission order (the connection handler serves frames
/// sequentially), so they are deterministic for a deterministic client.
fn launch<P: VertexProgram>(
    gw: &Arc<Gw>,
    program: Arc<P>,
    req: &SubmitReq,
    cfg: JobConfig,
    sink: Option<Arc<TraceSink>>,
    entry: Arc<JobEntry>,
) -> Result<u64, AdmissionError>
where
    P::Value: Record,
{
    let ticket = gw
        .pool
        .submit(program, JobRequest::new(req.graph.clone(), cfg))?;
    let job_id = gw.next_job.fetch_add(1, Ordering::SeqCst);
    gw.jobs.lock().unwrap().insert(job_id, Arc::clone(&entry));
    let spec = req.program;
    let waiter = thread::spawn(move || match ticket.wait() {
        Ok(r) => {
            let outcome = outcome_of(&r, spec, sink.as_deref());
            entry.finish(JobState::Done(outcome), ProgressEvent::Done);
        }
        Err(e) => {
            let (code, message) = (e.code(), e.to_string());
            entry.finish(
                JobState::Failed {
                    code,
                    message: message.clone(),
                },
                ProgressEvent::Failed { code, message },
            );
        }
    });
    gw.waiters.lock().unwrap().push(waiter);
    Ok(job_id)
}

/// Builds the job config for one submission and dispatches on the
/// program spec. Returns the gateway job id.
fn submit_one(gw: &Arc<Gw>, req: &SubmitReq) -> Result<u64, Box<Response>> {
    let workers = gw.pool.workers_of(&req.graph).ok_or_else(|| {
        Box::new(admission_error(&AdmissionError::UnknownGraph(
            req.graph.clone(),
        )))
    })?;
    let mut cfg = JobConfig::new(req.options.mode, workers);
    if req.options.buffer_messages != u64::MAX {
        cfg = cfg.with_buffer(req.options.buffer_messages as usize);
    }
    if req.options.max_supersteps > 0 {
        cfg.max_supersteps = req.options.max_supersteps;
    }
    let sink = if req.options.trace {
        let s = Arc::new(TraceSink::new(workers));
        cfg = cfg.with_trace(Arc::clone(&s));
        Some(s)
    } else {
        None
    };
    let entry = JobEntry::new();
    cfg = cfg.with_progress(Arc::clone(&entry) as Arc<dyn ProgressSink>);
    let launched = match req.program {
        ProgramSpec::PageRank { supersteps } => launch(
            gw,
            Arc::new(PageRank::new(supersteps)),
            req,
            cfg,
            sink,
            entry,
        ),
        ProgramSpec::PageRankUntil { eps, cap } => launch(
            gw,
            Arc::new(PageRank::until(eps, cap)),
            req,
            cfg,
            sink,
            entry,
        ),
        ProgramSpec::Sssp { source } => launch(
            gw,
            Arc::new(Sssp::new(VertexId(source))),
            req,
            cfg,
            sink,
            entry,
        ),
        ProgramSpec::Lpa { supersteps } => {
            launch(gw, Arc::new(Lpa::new(supersteps)), req, cfg, sink, entry)
        }
        ProgramSpec::Wcc => launch(gw, Arc::new(Wcc::new()), req, cfg, sink, entry),
        ProgramSpec::Sa { ratio, seed } => {
            launch(gw, Arc::new(Sa::new(ratio, seed)), req, cfg, sink, entry)
        }
    };
    launched.map_err(|e| Box::new(admission_error(&e)))
}

/// Handles one connection: frames in, frames out, in order.
fn handle_conn(gw: Arc<Gw>, transport: Arc<dyn Transport>, mut conn: Box<dyn Conn>) {
    let _ = conn.set_read_timeout(gw.cfg.read_timeout);
    loop {
        let frame = match wire::read_frame(&mut *conn, gw.cfg.max_frame) {
            Ok((frame, nbytes)) => {
                gw.metrics.frame_in(nbytes);
                frame
            }
            Err(WireError::Closed) => break,
            Err(WireError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                gw.metrics.timeout();
                break;
            }
            Err(e) => {
                // Framing failure: best-effort typed error, then close.
                gw.metrics.reject();
                let resp = Response::Error(RemoteError {
                    domain: ErrorDomain::Protocol,
                    code: e.code(),
                    message: e.to_string(),
                });
                let (kind, body) = resp.encode();
                if let Ok(n) = wire::write_frame(&mut *conn, kind, &body) {
                    gw.metrics.frame_out(n);
                }
                break;
            }
        };
        let req = match Request::decode(frame.kind, &frame.body) {
            Ok(req) => req,
            Err(e) => {
                // Well-framed but malformed body: typed error, keep the
                // connection.
                gw.metrics.reject();
                let resp = Response::Error(RemoteError {
                    domain: ErrorDomain::Protocol,
                    code: e.code(),
                    message: e.to_string(),
                });
                if write_resp(&gw, &mut *conn, &resp).is_err() {
                    break;
                }
                continue;
            }
        };
        let shutdown = matches!(req, Request::Shutdown);
        let subscribe_id = match &req {
            Request::Subscribe { job_id } => Some(*job_id),
            _ => None,
        };
        if let Some(job_id) = subscribe_id {
            if stream_progress(&gw, &mut *conn, job_id).is_err() {
                break;
            }
            continue;
        }
        let resp = handle_request(&gw, &transport, req);
        if write_resp(&gw, &mut *conn, &resp).is_err() {
            break;
        }
        if shutdown {
            break;
        }
    }
}

fn write_resp(gw: &Gw, conn: &mut dyn Conn, resp: &Response) -> std::io::Result<()> {
    let (kind, body) = resp.encode();
    let n = wire::write_frame(conn, kind, &body)?;
    gw.metrics.frame_out(n);
    Ok(())
}

/// Streams a job's progress events until the terminal one, then the
/// final status frame.
fn stream_progress(gw: &Gw, conn: &mut dyn Conn, job_id: u64) -> std::io::Result<()> {
    let entry = gw.jobs.lock().unwrap().get(&job_id).cloned();
    let entry = match entry {
        Some(e) => e,
        None => {
            return write_resp(
                gw,
                conn,
                &gateway_error(GW_UNKNOWN_JOB, format!("no job {job_id}")),
            )
        }
    };
    let mut cursor = 0usize;
    loop {
        let batch: Vec<ProgressEvent> = {
            let mut core = entry.core.lock().unwrap();
            while core.events.len() == cursor {
                core = entry.cv.wait(core).unwrap();
            }
            core.events[cursor..].to_vec()
        };
        cursor += batch.len();
        let mut terminal = false;
        for ev in batch {
            terminal |= ev.is_terminal();
            write_resp(gw, conn, &Response::Progress(ev))?;
        }
        if terminal {
            return write_resp(gw, conn, &Response::Status(entry.status()));
        }
    }
}

fn handle_request(gw: &Arc<Gw>, transport: &Arc<dyn Transport>, req: Request) -> Response {
    if gw.stopping.load(Ordering::SeqCst) && !matches!(req, Request::Shutdown) {
        return gateway_error(GW_SHUTTING_DOWN, "gateway is shutting down");
    }
    match req {
        Request::RegisterGraph {
            name,
            workers,
            vblocks_per_worker,
            codec,
            source,
        } => {
            let graph = match source {
                GraphSource::Blob(b) => decode_graph(&b).map_err(|e| format!("graph blob: {e}")),
                GraphSource::Dataset { scale: 0, .. } => {
                    Err("dataset scale denominator must be at least 1".to_string())
                }
                GraphSource::Dataset { name: ds, scale } => {
                    match Dataset::ALL.iter().find(|d| d.name() == ds) {
                        Some(d) => Ok(d.build_scaled(scale as usize)),
                        None => {
                            return gateway_error(
                                GW_UNKNOWN_DATASET,
                                format!("unknown dataset '{ds}'"),
                            )
                        }
                    }
                }
            };
            let graph = match graph {
                Ok(g) => g,
                Err(message) => {
                    return Response::Error(RemoteError {
                        domain: ErrorDomain::Protocol,
                        code: WireError::Malformed(String::new()).code(),
                        message,
                    })
                }
            };
            let spec = GraphSpec::new(workers as usize)
                .with_codec(codec)
                .with_vblocks(vblocks_per_worker as usize);
            match gw.pool.register_graph(&name, graph, spec) {
                Ok((engine, graph_id)) => Response::Registered {
                    engine: engine as u32,
                    graph_id,
                },
                Err(e) => Response::Error(RemoteError {
                    domain: ErrorDomain::Catalog,
                    code: e.code(),
                    message: e.to_string(),
                }),
            }
        }
        Request::Submit(req) => match submit_one(gw, &req) {
            Ok(job_id) => Response::Submitted {
                job_ids: vec![job_id],
            },
            Err(resp) => *resp,
        },
        Request::SubmitBatch(reqs) => {
            // Freeze every engine so the whole batch joins its cohorts
            // before any first grant: the cross-engine schedule becomes
            // a pure function of the batch and the pool seed.
            let pause = gw.pool.pause_all();
            let mut ids = Vec::with_capacity(reqs.len());
            for req in &reqs {
                match submit_one(gw, req) {
                    Ok(id) => ids.push(id),
                    Err(resp) => {
                        drop(pause);
                        return *resp;
                    }
                }
            }
            drop(pause);
            Response::Submitted { job_ids: ids }
        }
        Request::JobStatus { job_id } => match gw.jobs.lock().unwrap().get(&job_id) {
            Some(entry) => Response::Status(entry.status()),
            None => gateway_error(GW_UNKNOWN_JOB, format!("no job {job_id}")),
        },
        Request::Subscribe { .. } => unreachable!("handled by the connection loop"),
        Request::FetchResults { job_id } => {
            let entry = gw.jobs.lock().unwrap().get(&job_id).cloned();
            match entry {
                Some(entry) => match entry.wait_outcome() {
                    Ok(outcome) => Response::Results(outcome),
                    Err((code, message)) => Response::Error(RemoteError {
                        domain: ErrorDomain::Job,
                        code,
                        message,
                    }),
                },
                None => gateway_error(GW_UNKNOWN_JOB, format!("no job {job_id}")),
            }
        }
        Request::Evict { name } => match gw.pool.evict(&name) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Error(RemoteError {
                domain: ErrorDomain::Catalog,
                code: e.code(),
                message: e.to_string(),
            }),
        },
        Request::Metrics => Response::MetricsText(gw.metrics.prometheus(&gw.pool)),
        Request::Shutdown => {
            gw.stopping.store(true, Ordering::SeqCst);
            transport.unblock();
            Response::Ok
        }
    }
}
