//! The message layer: typed requests and responses inside [`crate::wire`]
//! frames.
//!
//! Every body is declared once below with the `codec::frame` field codec
//! (the one the service WAL uses), so every field is bounds-checked on
//! decode and a malformed body is a typed [`WireError::Malformed`], never
//! a panic. Counts and codes are `u32` on this wire. A request or
//! response is a tagged enum whose tag travels as the frame kind, outside
//! the body.
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
use hybridgraph_core::{Mode, ModeLabel};
use hybridgraph_storage::frame::{self, AsU32, Field, Len32, PayloadReader};
use hybridgraph_storage::{record, tagged, CodecChoice, Record};
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
    let count = u64::get(&mut PayloadReader::new(buf)).map_err(malformed)?;
    let records = &buf[8..];
    if records.len() as u64 != count.saturating_mul(V::BYTES as u64) {
        return Err(WireError::Malformed(format!(
            "value blob is {} bytes, {count} records of {} bytes do not fill it",
            buf.len(),
            V::BYTES
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
        frame::encode_tagged(self)
    }

    /// Decodes a request frame. The whole body must be consumed —
    /// trailing garbage is malformed.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Request, WireError> {
        frame::decode_tagged(kind, body).map_err(malformed)
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
        frame::encode_tagged(self)
    }

    /// Decodes a response frame; the whole body must be consumed.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Response, WireError> {
        frame::decode_tagged(kind, body).map_err(malformed)
    }
}

// ------------------------------------------------------------ the bodies

tagged! { GraphSource { 0 => Blob(blob), 1 => Dataset { name, scale } } }
tagged! { ProgramSpec {
    1 => PageRank { supersteps },
    2 => PageRankUntil { eps, cap },
    3 => Sssp { source },
    4 => Lpa { supersteps },
    5 => Wcc,
    6 => Sa { ratio, seed },
} }
tagged! { ValueKind { 1 => F64, 2 => F32, 3 => U32, 4 => U64U32 } }
record! { JobOptions { mode via ModeLabel, buffer_messages, trace, max_supersteps } }
record! { SubmitReq { graph, program, options } }
tagged! { Request {
    1 => RegisterGraph { name, workers, vblocks_per_worker, codec, source },
    2 => Submit(req),
    3 => SubmitBatch(reqs via Len32),
    4 => JobStatus { job_id },
    5 => Subscribe { job_id },
    6 => FetchResults { job_id },
    7 => Evict { name },
    8 => Metrics,
    9 => Shutdown,
} }
tagged! { ErrorDomain { 1 => Protocol, 2 => Admission, 3 => Job, 4 => Catalog, 5 => Gateway } }
record! { RemoteError { domain, code via AsU32, message } }
tagged! { ProgressEvent {
    1 => Loaded { modeled_secs },
    2 => Superstep { superstep, mode via ModeLabel, modeled_secs },
    3 => Done,
    4 => Failed { code via AsU32, message },
} }
tagged! { JobStatusInfo {
    1 => Running { supersteps_done },
    2 => Done,
    3 => Failed { code via AsU32, message },
} }
record! { JobOutcome {
    value_kind, values, audits, trace, modeled_secs, physical_bytes, logical_bytes, supersteps,
    switches via Len32,
} }
tagged! { Response {
    64 => Ok,
    65 => Registered { engine, graph_id },
    66 => Submitted { job_ids via Len32 },
    67 => Status(status),
    68 => Progress(event),
    69 => Results(outcome),
    70 => MetricsText(text),
    127 => Error(error),
} }

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
