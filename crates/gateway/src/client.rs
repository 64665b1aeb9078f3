//! The [`GatewayClient`] library: a typed façade over one connection.
//!
//! One client owns one [`Conn`] and issues requests in order; every
//! engine-side failure comes back as a typed
//! [`RemoteError`] whose `(domain, code)`
//! pair round-trips the server's `AdmissionError` / `JobError` /
//! `CatalogError` codes — match on those, never on message strings.

use crate::proto::{
    GraphSource, JobOptions, JobOutcome, JobStatusInfo, ProgramSpec, ProgressEvent, RemoteError,
    Request, Response, SubmitReq,
};
use crate::transport::{Conn, LoopbackTransport, TcpTransport};
use crate::wire::{self, WireError, DEFAULT_MAX_FRAME};
use hybridgraph_graph::Graph;
use hybridgraph_storage::{encode_graph, CodecChoice};
use std::fmt;
use std::io;
use std::net::ToSocketAddrs;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection or frame layer failed.
    Wire(WireError),
    /// The server answered with a typed error.
    Remote(RemoteError),
    /// The server answered with a response of the wrong shape.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote(e) => write!(f, "{e}"),
            ClientError::Unexpected(what) => {
                write!(f, "unexpected response (wanted {what})")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            ClientError::Remote(e) => Some(e),
            ClientError::Unexpected(_) => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// The remote `(domain, code)` pair, if this is a typed remote
    /// failure.
    pub fn remote_code(&self) -> Option<(crate::proto::ErrorDomain, u16)> {
        match self {
            ClientError::Remote(e) => Some((e.domain, e.code)),
            _ => None,
        }
    }
}

/// A typed client over one gateway connection.
pub struct GatewayClient {
    conn: Box<dyn Conn>,
}

impl GatewayClient {
    /// Wraps an established connection.
    pub fn new(conn: Box<dyn Conn>) -> GatewayClient {
        GatewayClient { conn }
    }

    /// Connects over an in-process loopback transport.
    pub fn connect_loopback(transport: &LoopbackTransport) -> io::Result<GatewayClient> {
        Ok(GatewayClient::new(transport.connect()?))
    }

    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<GatewayClient> {
        Ok(GatewayClient::new(TcpTransport::connect(addr)?))
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let (kind, body) = req.encode();
        wire::write_frame(&mut *self.conn, kind, &body).map_err(WireError::Io)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let (frame, _) = wire::read_frame(&mut *self.conn, DEFAULT_MAX_FRAME)?;
        let resp = Response::decode(frame.kind, &frame.body)?;
        if let Response::Error(e) = resp {
            return Err(ClientError::Remote(e));
        }
        Ok(resp)
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// Registers `graph` under `name`, shipping it as an inline blob.
    /// Returns `(engine index, engine-local graph id)`.
    pub fn register_graph(
        &mut self,
        name: &str,
        graph: &Graph,
        workers: usize,
        vblocks_per_worker: usize,
        codec: CodecChoice,
    ) -> Result<(u32, u32), ClientError> {
        self.register(
            name,
            workers,
            vblocks_per_worker,
            codec,
            GraphSource::Blob(encode_graph(graph)),
        )
    }

    /// Registers a server-side generated dataset (`livej`, `wiki`,
    /// `orkut`, `twi`, `fri`, `uk`) at `1/scale` of the paper's size.
    pub fn register_dataset(
        &mut self,
        name: &str,
        dataset: &str,
        scale: u64,
        workers: usize,
        vblocks_per_worker: usize,
        codec: CodecChoice,
    ) -> Result<(u32, u32), ClientError> {
        self.register(
            name,
            workers,
            vblocks_per_worker,
            codec,
            GraphSource::Dataset {
                name: dataset.to_string(),
                scale,
            },
        )
    }

    fn register(
        &mut self,
        name: &str,
        workers: usize,
        vblocks_per_worker: usize,
        codec: CodecChoice,
        source: GraphSource,
    ) -> Result<(u32, u32), ClientError> {
        match self.call(&Request::RegisterGraph {
            name: name.to_string(),
            workers: workers as u32,
            vblocks_per_worker: vblocks_per_worker as u32,
            codec,
            source,
        })? {
            Response::Registered { engine, graph_id } => Ok((engine, graph_id)),
            _ => Err(ClientError::Unexpected("Registered")),
        }
    }

    /// Submits one job; returns its gateway job id.
    pub fn submit(
        &mut self,
        graph: &str,
        program: ProgramSpec,
        options: JobOptions,
    ) -> Result<u64, ClientError> {
        match self.call(&Request::Submit(SubmitReq {
            graph: graph.to_string(),
            program,
            options,
        }))? {
            Response::Submitted { job_ids } if job_ids.len() == 1 => Ok(job_ids[0]),
            _ => Err(ClientError::Unexpected("Submitted")),
        }
    }

    /// Submits a batch atomically: every engine's scheduler is frozen
    /// until the whole batch has joined, so the cross-job schedule is
    /// deterministic. Returns one job id per request, in order.
    pub fn submit_batch(&mut self, reqs: Vec<SubmitReq>) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::SubmitBatch(reqs))? {
            Response::Submitted { job_ids } => Ok(job_ids),
            _ => Err(ClientError::Unexpected("Submitted")),
        }
    }

    /// Snapshots a job's state (non-blocking).
    pub fn status(&mut self, job_id: u64) -> Result<JobStatusInfo, ClientError> {
        match self.call(&Request::JobStatus { job_id })? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Status")),
        }
    }

    /// Streams a job's progress events into `on_event` until the job
    /// reaches a terminal state; returns the final status.
    pub fn subscribe(
        &mut self,
        job_id: u64,
        mut on_event: impl FnMut(&ProgressEvent),
    ) -> Result<JobStatusInfo, ClientError> {
        self.send(&Request::Subscribe { job_id })?;
        loop {
            match self.recv()? {
                Response::Progress(ev) => on_event(&ev),
                Response::Status(s) => return Ok(s),
                _ => return Err(ClientError::Unexpected("Progress/Status")),
            }
        }
    }

    /// Blocks until the job finishes and returns its full outcome. A
    /// failed job surfaces as `ClientError::Remote` in the `Job` domain
    /// with the engine's stable `JobError` code.
    pub fn fetch(&mut self, job_id: u64) -> Result<JobOutcome, ClientError> {
        match self.call(&Request::FetchResults { job_id })? {
            Response::Results(o) => Ok(o),
            _ => Err(ClientError::Unexpected("Results")),
        }
    }

    /// Evicts a registered graph from its home engine.
    pub fn evict(&mut self, name: &str) -> Result<(), ClientError> {
        match self.call(&Request::Evict {
            name: name.to_string(),
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("Ok")),
        }
    }

    /// Fetches the gateway's Prometheus gauge exposition.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsText(t) => Ok(t),
            _ => Err(ClientError::Unexpected("MetricsText")),
        }
    }

    /// Asks the server to stop accepting connections (in-flight jobs
    /// finish).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("Ok")),
        }
    }
}
