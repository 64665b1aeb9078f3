//! The message layer: typed requests and responses inside [`crate::wire`]
//! frames.
//!
//! Bodies are encoded with the `codec::frame` field codec
//! (`PayloadWriter` / `PayloadReader`, the same length-prefixed
//! primitives the service WAL uses), so every field is bounds-checked on
//! decode and a malformed body is a typed [`WireError::Malformed`], never
//! a panic.
//!
//! Frame kind assignments (append-only — never renumber):
//!
//! | kind | direction | message         |
//! |------|-----------|-----------------|
//! | 1    | request   | `RegisterGraph` |
//! | 2    | request   | `Submit`        |
//! | 3    | request   | `SubmitBatch`   |
//! | 4    | request   | `JobStatus`     |
//! | 5    | request   | `Subscribe`     |
//! | 6    | request   | `FetchResults`  |
//! | 7    | request   | `Evict`         |
//! | 8    | request   | `Metrics`       |
//! | 9    | request   | `Shutdown`      |
//! | 64   | response  | `Ok`            |
//! | 65   | response  | `Registered`    |
//! | 66   | response  | `Submitted`     |
//! | 67   | response  | `Status`        |
//! | 68   | response  | `Progress`      |
//! | 69   | response  | `Results`       |
//! | 70   | response  | `MetricsText`   |
//! | 127  | response  | `Error`         |

use crate::wire::WireError;
use hybridgraph_core::Mode;
use hybridgraph_storage::{
    codec_from_tag, codec_tag, CodecChoice, PayloadReader, PayloadWriter, Record,
};
use std::fmt;
use std::io;

fn malformed(e: io::Error) -> WireError {
    WireError::Malformed(e.to_string())
}

/// Where a registered graph's bytes come from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// An inline graph blob (`hybridgraph_storage::encode_graph` bytes).
    Blob(Vec<u8>),
    /// A named generated dataset at `1/scale` of the paper's size,
    /// built server-side (`Dataset::build_scaled`).
    Dataset {
        /// Paper short name: `livej`, `wiki`, `orkut`, `twi`, `fri`, `uk`.
        name: String,
        /// Scale denominator.
        scale: u64,
    },
}

/// Which vertex program to run — the full shipped algorithm surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgramSpec {
    /// Fixed-length PageRank.
    PageRank {
        /// Supersteps to run.
        supersteps: u64,
    },
    /// Tolerance-terminated PageRank.
    PageRankUntil {
        /// L1 convergence threshold.
        eps: f64,
        /// Superstep cap.
        cap: u64,
    },
    /// Single-source shortest paths from `source`.
    Sssp {
        /// Source vertex id.
        source: u32,
    },
    /// Fixed-length label propagation.
    Lpa {
        /// Supersteps to run.
        supersteps: u64,
    },
    /// Weakly connected components (runs to convergence).
    Wcc,
    /// The paper's advertisement-simulation workload.
    Sa {
        /// One in `ratio` vertices starts as an advertiser.
        ratio: u32,
        /// Workload seed.
        seed: u64,
    },
}

impl ProgramSpec {
    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            ProgramSpec::PageRank { supersteps } => {
                w.put_u8(1);
                w.put_u64(*supersteps);
            }
            ProgramSpec::PageRankUntil { eps, cap } => {
                w.put_u8(2);
                w.put_f64(*eps);
                w.put_u64(*cap);
            }
            ProgramSpec::Sssp { source } => {
                w.put_u8(3);
                w.put_u32(*source);
            }
            ProgramSpec::Lpa { supersteps } => {
                w.put_u8(4);
                w.put_u64(*supersteps);
            }
            ProgramSpec::Wcc => w.put_u8(5),
            ProgramSpec::Sa { ratio, seed } => {
                w.put_u8(6);
                w.put_u32(*ratio);
                w.put_u64(*seed);
            }
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<ProgramSpec, WireError> {
        Ok(match r.get_u8().map_err(malformed)? {
            1 => ProgramSpec::PageRank {
                supersteps: r.get_u64().map_err(malformed)?,
            },
            2 => ProgramSpec::PageRankUntil {
                eps: r.get_f64().map_err(malformed)?,
                cap: r.get_u64().map_err(malformed)?,
            },
            3 => ProgramSpec::Sssp {
                source: r.get_u32().map_err(malformed)?,
            },
            4 => ProgramSpec::Lpa {
                supersteps: r.get_u64().map_err(malformed)?,
            },
            5 => ProgramSpec::Wcc,
            6 => ProgramSpec::Sa {
                ratio: r.get_u32().map_err(malformed)?,
                seed: r.get_u64().map_err(malformed)?,
            },
            t => return Err(WireError::Malformed(format!("unknown program tag {t}"))),
        })
    }

    /// The [`ValueKind`] this program's per-vertex values decode as.
    pub fn value_kind(&self) -> ValueKind {
        match self {
            ProgramSpec::PageRank { .. } | ProgramSpec::PageRankUntil { .. } => ValueKind::F64,
            ProgramSpec::Sssp { .. } => ValueKind::F32,
            ProgramSpec::Lpa { .. } | ProgramSpec::Wcc => ValueKind::U32,
            ProgramSpec::Sa { .. } => ValueKind::U64U32,
        }
    }
}

/// Wire tag of a job's per-vertex value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// `f64` (PageRank).
    F64 = 1,
    /// `f32` (SSSP).
    F32 = 2,
    /// `u32` (LPA, WCC).
    U32 = 3,
    /// `(u64, u32)` (SA).
    U64U32 = 4,
}

impl ValueKind {
    /// Decodes the tag.
    pub fn from_tag(t: u8) -> Result<ValueKind, WireError> {
        Ok(match t {
            1 => ValueKind::F64,
            2 => ValueKind::F32,
            3 => ValueKind::U32,
            4 => ValueKind::U64U32,
            _ => return Err(WireError::Malformed(format!("unknown value kind {t}"))),
        })
    }
}

/// Encodes per-vertex values generically: `count:u64` then fixed-width
/// [`Record`] bytes. This is the exact value encoding of `FetchResults`,
/// so byte-identity of two runs' values is byte-identity of these blobs.
pub fn encode_values<V: Record>(vals: &[V]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + vals.len() * V::BYTES);
    out.extend_from_slice(&(vals.len() as u64).to_le_bytes());
    for v in vals {
        v.append_to(&mut out);
    }
    out
}

/// Decodes a value blob produced by [`encode_values`].
pub fn decode_values<V: Record>(buf: &[u8]) -> Result<Vec<V>, WireError> {
    let mut r = PayloadReader::new(buf);
    let count = r.get_count(V::BYTES).map_err(malformed)?;
    let records = r.take(count * V::BYTES).map_err(malformed)?;
    if !r.done() {
        return Err(WireError::Malformed(format!(
            "value blob is {} bytes, {count} records need {}",
            buf.len(),
            8 + records.len()
        )));
    }
    Ok(records.chunks_exact(V::BYTES).map(V::read_from).collect())
}

/// Per-job knobs a client may set; everything else stays at the
/// service's defaults (and the layout fields always come from the
/// registered spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOptions {
    /// Execution mode.
    pub mode: Mode,
    /// Per-worker message buffer; `u64::MAX` means ample memory.
    pub buffer_messages: u64,
    /// Collect a Chrome trace server-side (fetch it with the results).
    pub trace: bool,
    /// Superstep cap; `0` keeps the engine default.
    pub max_supersteps: u64,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            mode: Mode::Hybrid,
            buffer_messages: u64::MAX,
            trace: false,
            max_supersteps: 0,
        }
    }
}

impl JobOptions {
    fn encode(&self, w: &mut PayloadWriter) {
        w.put_str(self.mode.label());
        w.put_u64(self.buffer_messages);
        w.put_u8(self.trace as u8);
        w.put_u64(self.max_supersteps);
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<JobOptions, WireError> {
        let mode: Mode = r
            .get_str()
            .map_err(malformed)?
            .parse()
            .map_err(WireError::Malformed)?;
        Ok(JobOptions {
            mode,
            buffer_messages: r.get_u64().map_err(malformed)?,
            trace: r.get_u8().map_err(malformed)? != 0,
            max_supersteps: r.get_u64().map_err(malformed)?,
        })
    }
}

/// One job submission inside `Submit` / `SubmitBatch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReq {
    /// Registered graph name.
    pub graph: String,
    /// Program to run.
    pub program: ProgramSpec,
    /// Job knobs.
    pub options: JobOptions,
}

impl SubmitReq {
    fn encode(&self, w: &mut PayloadWriter) {
        w.put_str(&self.graph);
        self.program.encode(w);
        self.options.encode(w);
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<SubmitReq, WireError> {
        Ok(SubmitReq {
            graph: r.get_str().map_err(malformed)?,
            program: ProgramSpec::decode(r)?,
            options: JobOptions::decode(r)?,
        })
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a graph under a name; its home engine is the placement
    /// hash of the name.
    RegisterGraph {
        /// Catalog name.
        name: String,
        /// Worker (computational-node) count to build stores for.
        workers: u32,
        /// Vblocks per worker.
        vblocks_per_worker: u32,
        /// On-disk codec for the stores.
        codec: CodecChoice,
        /// The graph bytes (inline blob or server-side dataset build).
        source: GraphSource,
    },
    /// Submit one job.
    Submit(SubmitReq),
    /// Submit a batch atomically: every engine's scheduler is frozen
    /// until the whole batch has joined, so the cross-job schedule is a
    /// pure function of the batch and the pool seed.
    SubmitBatch(Vec<SubmitReq>),
    /// Snapshot a job's state (non-blocking).
    JobStatus {
        /// Gateway job id.
        job_id: u64,
    },
    /// Stream progress events until the job reaches a terminal state.
    Subscribe {
        /// Gateway job id.
        job_id: u64,
    },
    /// Block until the job finishes and return its full outcome.
    FetchResults {
        /// Gateway job id.
        job_id: u64,
    },
    /// Evict a registered graph from its home engine.
    Evict {
        /// Catalog name.
        name: String,
    },
    /// Fetch the gateway's Prometheus gauge exposition.
    Metrics,
    /// Stop accepting connections; in-flight jobs finish.
    Shutdown,
}

impl Request {
    /// Encodes into `(frame kind, body)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = PayloadWriter::new();
        let kind = match self {
            Request::RegisterGraph {
                name,
                workers,
                vblocks_per_worker,
                codec,
                source,
            } => {
                w.put_str(name);
                w.put_u32(*workers);
                w.put_u32(*vblocks_per_worker);
                w.put_u8(codec_tag(*codec));
                match source {
                    GraphSource::Blob(b) => {
                        w.put_u8(0);
                        w.put_bytes(b);
                    }
                    GraphSource::Dataset { name, scale } => {
                        w.put_u8(1);
                        w.put_str(name);
                        w.put_u64(*scale);
                    }
                }
                1
            }
            Request::Submit(req) => {
                req.encode(&mut w);
                2
            }
            Request::SubmitBatch(reqs) => {
                w.put_u32(reqs.len() as u32);
                for r in reqs {
                    r.encode(&mut w);
                }
                3
            }
            Request::JobStatus { job_id } => {
                w.put_u64(*job_id);
                4
            }
            Request::Subscribe { job_id } => {
                w.put_u64(*job_id);
                5
            }
            Request::FetchResults { job_id } => {
                w.put_u64(*job_id);
                6
            }
            Request::Evict { name } => {
                w.put_str(name);
                7
            }
            Request::Metrics => 8,
            Request::Shutdown => 9,
        };
        (kind, w.into_bytes())
    }

    /// Decodes a request frame. The whole body must be consumed —
    /// trailing garbage is malformed.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Request, WireError> {
        let mut r = PayloadReader::new(body);
        let req = match kind {
            1 => {
                let name = r.get_str().map_err(malformed)?;
                let workers = r.get_u32().map_err(malformed)?;
                let vblocks_per_worker = r.get_u32().map_err(malformed)?;
                let codec = codec_from_tag(r.get_u8().map_err(malformed)?).map_err(malformed)?;
                let source = match r.get_u8().map_err(malformed)? {
                    0 => GraphSource::Blob(r.get_bytes().map_err(malformed)?),
                    1 => GraphSource::Dataset {
                        name: r.get_str().map_err(malformed)?,
                        scale: r.get_u64().map_err(malformed)?,
                    },
                    t => return Err(WireError::Malformed(format!("unknown graph source {t}"))),
                };
                Request::RegisterGraph {
                    name,
                    workers,
                    vblocks_per_worker,
                    codec,
                    source,
                }
            }
            2 => Request::Submit(SubmitReq::decode(&mut r)?),
            3 => {
                let n = r.get_u32().map_err(malformed)?;
                let mut reqs = Vec::new();
                for _ in 0..n {
                    reqs.push(SubmitReq::decode(&mut r)?);
                }
                Request::SubmitBatch(reqs)
            }
            4 => Request::JobStatus {
                job_id: r.get_u64().map_err(malformed)?,
            },
            5 => Request::Subscribe {
                job_id: r.get_u64().map_err(malformed)?,
            },
            6 => Request::FetchResults {
                job_id: r.get_u64().map_err(malformed)?,
            },
            7 => Request::Evict {
                name: r.get_str().map_err(malformed)?,
            },
            8 => Request::Metrics,
            9 => Request::Shutdown,
            k => return Err(WireError::Malformed(format!("unknown request kind {k}"))),
        };
        if !r.done() {
            return Err(WireError::Malformed("trailing bytes after request".into()));
        }
        Ok(req)
    }
}

/// Which subsystem produced a [`RemoteError`]'s code. Tags are
/// append-only — never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorDomain {
    /// [`WireError::code`] values.
    Protocol = 1,
    /// `AdmissionError::code` values.
    Admission = 2,
    /// `JobError::code` values.
    Job = 3,
    /// `CatalogError::code` values.
    Catalog = 4,
    /// Gateway-level codes: 1 = unknown job id, 2 = shutting down,
    /// 3 = unknown dataset name.
    Gateway = 5,
}

impl ErrorDomain {
    fn from_tag(t: u8) -> Result<ErrorDomain, WireError> {
        Ok(match t {
            1 => ErrorDomain::Protocol,
            2 => ErrorDomain::Admission,
            3 => ErrorDomain::Job,
            4 => ErrorDomain::Catalog,
            5 => ErrorDomain::Gateway,
            _ => return Err(WireError::Malformed(format!("unknown error domain {t}"))),
        })
    }
}

/// Gateway-domain code: the job id is not (and never was) registered.
pub const GW_UNKNOWN_JOB: u16 = 1;
/// Gateway-domain code: the server is shutting down.
pub const GW_SHUTTING_DOWN: u16 = 2;
/// Gateway-domain code: `GraphSource::Dataset` named an unknown dataset.
pub const GW_UNKNOWN_DATASET: u16 = 3;

/// A typed error sent over the wire: clients match on `(domain, code)` —
/// both stable — and keep `message` for humans only.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteError {
    /// Which error table `code` indexes.
    pub domain: ErrorDomain,
    /// The stable numeric code within the domain.
    pub code: u16,
    /// Human-readable rendering (never match on this).
    pub message: String,
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} error {} from the gateway: {}",
            self.domain, self.code, self.message
        )
    }
}

impl std::error::Error for RemoteError {}

/// One progress event of a running job, in event order.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The load phase finished.
    Loaded {
        /// Modeled load seconds.
        modeled_secs: f64,
    },
    /// A superstep barrier completed.
    Superstep {
        /// The superstep number (1-based, as the engine counts).
        superstep: u64,
        /// The mode the step ran under.
        mode: Mode,
        /// The step's modeled seconds.
        modeled_secs: f64,
    },
    /// Terminal: the job finished; fetch its results.
    Done,
    /// Terminal: the job failed with a `JobError` code.
    Failed {
        /// `JobError::code` value.
        code: u16,
        /// Human-readable rendering.
        message: String,
    },
}

impl ProgressEvent {
    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            ProgressEvent::Loaded { modeled_secs } => {
                w.put_u8(1);
                w.put_f64(*modeled_secs);
            }
            ProgressEvent::Superstep {
                superstep,
                mode,
                modeled_secs,
            } => {
                w.put_u8(2);
                w.put_u64(*superstep);
                w.put_str(mode.label());
                w.put_f64(*modeled_secs);
            }
            ProgressEvent::Done => w.put_u8(3),
            ProgressEvent::Failed { code, message } => {
                w.put_u8(4);
                w.put_u32(*code as u32);
                w.put_str(message);
            }
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<ProgressEvent, WireError> {
        Ok(match r.get_u8().map_err(malformed)? {
            1 => ProgressEvent::Loaded {
                modeled_secs: r.get_f64().map_err(malformed)?,
            },
            2 => ProgressEvent::Superstep {
                superstep: r.get_u64().map_err(malformed)?,
                mode: r
                    .get_str()
                    .map_err(malformed)?
                    .parse()
                    .map_err(WireError::Malformed)?,
                modeled_secs: r.get_f64().map_err(malformed)?,
            },
            3 => ProgressEvent::Done,
            4 => ProgressEvent::Failed {
                code: r.get_u32().map_err(malformed)? as u16,
                message: r.get_str().map_err(malformed)?,
            },
            t => return Err(WireError::Malformed(format!("unknown progress tag {t}"))),
        })
    }

    /// True for `Done` / `Failed`.
    pub fn is_terminal(&self) -> bool {
        matches!(self, ProgressEvent::Done | ProgressEvent::Failed { .. })
    }
}

/// A job-state snapshot (`JobStatus` response).
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatusInfo {
    /// Admitted; the engine has not completed a superstep yet.
    Running {
        /// Superstep barriers completed so far.
        supersteps_done: u64,
    },
    /// Finished; results are fetchable.
    Done,
    /// Failed with a `JobError` code.
    Failed {
        /// `JobError::code` value.
        code: u16,
        /// Human-readable rendering.
        message: String,
    },
}

impl JobStatusInfo {
    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            JobStatusInfo::Running { supersteps_done } => {
                w.put_u8(1);
                w.put_u64(*supersteps_done);
            }
            JobStatusInfo::Done => w.put_u8(2),
            JobStatusInfo::Failed { code, message } => {
                w.put_u8(3);
                w.put_u32(*code as u32);
                w.put_str(message);
            }
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<JobStatusInfo, WireError> {
        Ok(match r.get_u8().map_err(malformed)? {
            1 => JobStatusInfo::Running {
                supersteps_done: r.get_u64().map_err(malformed)?,
            },
            2 => JobStatusInfo::Done,
            3 => JobStatusInfo::Failed {
                code: r.get_u32().map_err(malformed)? as u16,
                message: r.get_str().map_err(malformed)?,
            },
            t => return Err(WireError::Malformed(format!("unknown status tag {t}"))),
        })
    }
}

/// A finished job's full outcome (`FetchResults` response). The value,
/// audit and trace bytes are exactly what the engine produced — the
/// byte-identity guarantees compare these blobs directly.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Tag of the per-vertex value type.
    pub value_kind: ValueKind,
    /// [`encode_values`] blob of the final per-vertex values.
    pub values: Vec<u8>,
    /// `encode_qt_audits` blob of the job's `Q_t` decision records.
    pub audits: Vec<u8>,
    /// Chrome trace JSON, when the submission asked for tracing.
    pub trace: Option<String>,
    /// Modeled seconds, load included.
    pub modeled_secs: f64,
    /// Physical I/O bytes.
    pub physical_bytes: u64,
    /// Logical I/O bytes.
    pub logical_bytes: u64,
    /// Supersteps executed.
    pub supersteps: u64,
    /// Mode switches as `"t:from->to"` strings, superstep order.
    pub switches: Vec<String>,
}

impl JobOutcome {
    fn encode(&self, w: &mut PayloadWriter) {
        w.put_u8(self.value_kind as u8);
        w.put_bytes(&self.values);
        w.put_bytes(&self.audits);
        match &self.trace {
            Some(t) => {
                w.put_u8(1);
                w.put_str(t);
            }
            None => w.put_u8(0),
        }
        w.put_f64(self.modeled_secs);
        w.put_u64(self.physical_bytes);
        w.put_u64(self.logical_bytes);
        w.put_u64(self.supersteps);
        w.put_u32(self.switches.len() as u32);
        for s in &self.switches {
            w.put_str(s);
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<JobOutcome, WireError> {
        let value_kind = ValueKind::from_tag(r.get_u8().map_err(malformed)?)?;
        let values = r.get_bytes().map_err(malformed)?;
        let audits = r.get_bytes().map_err(malformed)?;
        let trace = match r.get_u8().map_err(malformed)? {
            0 => None,
            _ => Some(r.get_str().map_err(malformed)?),
        };
        let modeled_secs = r.get_f64().map_err(malformed)?;
        let physical_bytes = r.get_u64().map_err(malformed)?;
        let logical_bytes = r.get_u64().map_err(malformed)?;
        let supersteps = r.get_u64().map_err(malformed)?;
        let n = r.get_u32().map_err(malformed)?;
        let mut switches = Vec::new();
        for _ in 0..n {
            switches.push(r.get_str().map_err(malformed)?);
        }
        Ok(JobOutcome {
            value_kind,
            values,
            audits,
            trace,
            modeled_secs,
            physical_bytes,
            logical_bytes,
            supersteps,
            switches,
        })
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with nothing to return (`Evict`, `Shutdown`).
    Ok,
    /// `RegisterGraph` succeeded.
    Registered {
        /// The engine the graph was placed on.
        engine: u32,
        /// The engine-local graph id.
        graph_id: u32,
    },
    /// `Submit` / `SubmitBatch` succeeded; one id per request, in order.
    Submitted {
        /// Gateway job ids.
        job_ids: Vec<u64>,
    },
    /// `JobStatus` snapshot, also the terminal frame of a `Subscribe`
    /// stream.
    Status(JobStatusInfo),
    /// One streamed `Subscribe` event.
    Progress(ProgressEvent),
    /// `FetchResults` payload.
    Results(JobOutcome),
    /// `Metrics` exposition text.
    MetricsText(String),
    /// Typed failure.
    Error(RemoteError),
}

impl Response {
    /// Encodes into `(frame kind, body)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = PayloadWriter::new();
        let kind = match self {
            Response::Ok => 64,
            Response::Registered { engine, graph_id } => {
                w.put_u32(*engine);
                w.put_u32(*graph_id);
                65
            }
            Response::Submitted { job_ids } => {
                w.put_u32(job_ids.len() as u32);
                for id in job_ids {
                    w.put_u64(*id);
                }
                66
            }
            Response::Status(s) => {
                s.encode(&mut w);
                67
            }
            Response::Progress(p) => {
                p.encode(&mut w);
                68
            }
            Response::Results(o) => {
                o.encode(&mut w);
                69
            }
            Response::MetricsText(t) => {
                w.put_str(t);
                70
            }
            Response::Error(e) => {
                w.put_u8(e.domain as u8);
                w.put_u32(e.code as u32);
                w.put_str(&e.message);
                127
            }
        };
        (kind, w.into_bytes())
    }

    /// Decodes a response frame; the whole body must be consumed.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Response, WireError> {
        let mut r = PayloadReader::new(body);
        let resp = match kind {
            64 => Response::Ok,
            65 => Response::Registered {
                engine: r.get_u32().map_err(malformed)?,
                graph_id: r.get_u32().map_err(malformed)?,
            },
            66 => {
                let n = r.get_u32().map_err(malformed)?;
                let mut job_ids = Vec::new();
                for _ in 0..n {
                    job_ids.push(r.get_u64().map_err(malformed)?);
                }
                Response::Submitted { job_ids }
            }
            67 => Response::Status(JobStatusInfo::decode(&mut r)?),
            68 => Response::Progress(ProgressEvent::decode(&mut r)?),
            69 => Response::Results(JobOutcome::decode(&mut r)?),
            70 => Response::MetricsText(r.get_str().map_err(malformed)?),
            127 => Response::Error(RemoteError {
                domain: ErrorDomain::from_tag(r.get_u8().map_err(malformed)?)?,
                code: r.get_u32().map_err(malformed)? as u16,
                message: r.get_str().map_err(malformed)?,
            }),
            k => return Err(WireError::Malformed(format!("unknown response kind {k}"))),
        };
        if !r.done() {
            return Err(WireError::Malformed("trailing bytes after response".into()));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let (kind, body) = req.encode();
        assert_eq!(Request::decode(kind, &body).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let (kind, body) = resp.encode();
        assert_eq!(Response::decode(kind, &body).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::RegisterGraph {
            name: "g".into(),
            workers: 4,
            vblocks_per_worker: 2,
            codec: CodecChoice::None,
            source: GraphSource::Blob(vec![1, 2, 3]),
        });
        roundtrip_req(Request::RegisterGraph {
            name: "d".into(),
            workers: 2,
            vblocks_per_worker: 1,
            codec: CodecChoice::None,
            source: GraphSource::Dataset {
                name: "livej".into(),
                scale: 20_000,
            },
        });
        roundtrip_req(Request::Submit(SubmitReq {
            graph: "g".into(),
            program: ProgramSpec::PageRank { supersteps: 5 },
            options: JobOptions::default(),
        }));
        roundtrip_req(Request::SubmitBatch(vec![
            SubmitReq {
                graph: "a".into(),
                program: ProgramSpec::Wcc,
                options: JobOptions {
                    mode: Mode::Push,
                    buffer_messages: 1000,
                    trace: true,
                    max_supersteps: 30,
                },
            },
            SubmitReq {
                graph: "b".into(),
                program: ProgramSpec::Sa { ratio: 8, seed: 7 },
                options: JobOptions::default(),
            },
        ]));
        roundtrip_req(Request::JobStatus { job_id: 9 });
        roundtrip_req(Request::Subscribe { job_id: 10 });
        roundtrip_req(Request::FetchResults { job_id: 11 });
        roundtrip_req(Request::Evict { name: "g".into() });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Registered {
            engine: 3,
            graph_id: 1,
        });
        roundtrip_resp(Response::Submitted {
            job_ids: vec![0, 1, 2],
        });
        roundtrip_resp(Response::Status(JobStatusInfo::Running {
            supersteps_done: 4,
        }));
        roundtrip_resp(Response::Status(JobStatusInfo::Failed {
            code: 2,
            message: "budget".into(),
        }));
        roundtrip_resp(Response::Progress(ProgressEvent::Superstep {
            superstep: 3,
            mode: Mode::BPull,
            modeled_secs: 1.5,
        }));
        roundtrip_resp(Response::Results(JobOutcome {
            value_kind: ValueKind::F64,
            values: encode_values(&[1.0f64, 2.0]),
            audits: vec![9, 9],
            trace: Some("{}".into()),
            modeled_secs: 2.25,
            physical_bytes: 100,
            logical_bytes: 80,
            supersteps: 5,
            switches: vec!["2:push->b-pull".into()],
        }));
        roundtrip_resp(Response::MetricsText("# TYPE x gauge\n".into()));
        roundtrip_resp(Response::Error(RemoteError {
            domain: ErrorDomain::Admission,
            code: 1,
            message: "no graph named 'x'".into(),
        }));
    }

    #[test]
    fn values_roundtrip_and_reject_mismatch() {
        let blob = encode_values(&[1.0f64, 2.5, -3.0]);
        assert_eq!(decode_values::<f64>(&blob).unwrap(), vec![1.0, 2.5, -3.0]);
        assert!(decode_values::<f32>(&blob).is_err());
        assert!(decode_values::<f64>(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let (kind, mut body) = Request::Shutdown.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(kind, &body),
            Err(WireError::Malformed(_))
        ));
        // So is a codec tag no choice owns any more (2 and 3).
        let (kind, mut body) = Request::RegisterGraph {
            name: "g".into(),
            workers: 2,
            vblocks_per_worker: 0,
            codec: CodecChoice::Bv,
            source: GraphSource::Blob(Vec::new()),
        }
        .encode();
        let tag_at = 8 + 1 + 4 + 4;
        assert_eq!(body[tag_at], CodecChoice::Bv.tag());
        for retired in [2, 3] {
            body[tag_at] = retired;
            assert!(matches!(
                Request::decode(kind, &body),
                Err(WireError::Malformed(_))
            ));
        }
    }
}
