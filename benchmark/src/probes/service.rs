//! Probes of `service` and `gateway`: fixed cost per registration, per
//! submission, per scheduler grant and per request, on a small graph so
//! the engine's own work does not drown them.

use super::{ProbeCtx, MB};
use crate::serve::{direct_config, ENGINES};
use crate::stats::{fast_low, high};
use crate::workloads::{livej, WORKERS};
use hybridgraph::core::StepPacer;
use hybridgraph::gateway::{JobOptions, ProgramSpec, Transport};
use hybridgraph::prelude::*;
use hybridgraph::service::RoundRobinScheduler;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LiveJ scale of the probed graph (as `serve_mixed`'s first graph).
const SMALL_DENOM: usize = 500;
/// Supersteps of the probed job: PageRank, hybrid mode.
const SMALL_JOB_STEPS: u64 = 5;
/// Lanes competing in the scheduler probe and grants each takes per call.
const LANES: usize = 2;
const GRANTS_PER_LANE: usize = 2_000;
/// How long the gateway's counters must stand still to count as at rest.
const COUNTER_SETTLE: Duration = Duration::from_millis(2);

pub fn run(ctx: &mut ProbeCtx<'_>) {
    let small = livej(ctx.sizing.denom(SMALL_DENOM), ctx.seed);
    let direct_s = ctx.span("service.direct_job", |ctx| {
        let mut secs = Vec::new();
        ctx.repeat_jobs(|| {
            let t = Instant::now();
            run_job(small_program(), &small, small_cfg()).expect("direct job failed");
            secs.push(t.elapsed().as_secs_f64());
        });
        fast_low(&secs)
    });
    let pooled_s = ctx.span("service.pool", |ctx| service(ctx, &small, direct_s));
    ctx.span("service.scheduler", scheduler);
    ctx.span("gateway", |ctx| gateway(ctx, &small, pooled_s));
}

fn small_program() -> Arc<PageRank> {
    Arc::new(PageRank::new(SMALL_JOB_STEPS))
}

fn small_cfg() -> JobConfig {
    direct_config(Mode::Hybrid)
}

/// Registration, admission, and a whole job through `EnginePool`;
/// returns the fast-decile seconds of that job.
fn service(ctx: &mut ProbeCtx<'_>, small: &Graph, direct_s: f64) -> f64 {
    let pool = EnginePool::new(ServiceConfig::default(), ENGINES);
    let spec = GraphSpec::new(WORKERS);
    // Each round registers under a fresh name and evicts the round
    // before, so the catalog holds one probe graph at a time.
    let mut round = 0u32;
    let secs = ctx.sample_with(
        || {
            if round > 0 {
                pool.evict(&format!("reg{round}"))
                    .expect("evict probe graph");
            }
            round += 1;
            (format!("reg{round}"), small.clone())
        },
        |(name, graph)| {
            pool.register_graph(&name, graph, spec)
                .expect("register probe graph");
        },
    );
    ctx.latency("service.register_ms", 1e3, 1.0, &secs);

    pool.register_graph("svc", small.clone(), spec)
        .expect("register probe graph");
    let (mut submit_s, mut job_s) = (Vec::new(), Vec::new());
    ctx.repeat_jobs(|| {
        let t = Instant::now();
        let ticket = pool
            .submit(small_program(), JobRequest::new("svc", small_cfg()))
            .expect("probe job refused");
        submit_s.push(t.elapsed().as_secs_f64());
        ticket.wait().expect("probe job failed");
        job_s.push(t.elapsed().as_secs_f64());
    });
    ctx.latency("service.submit_us", 1e6, 1.0, &submit_s);
    // Can be negative: a registered graph's stores are built once, a
    // direct job builds them in its load phase every time.
    ctx.report.set(
        "service.job_overhead_ms",
        (fast_low(&job_s) - direct_s) * 1e3,
        job_s.len(),
    );
    fast_low(&job_s)
}

/// `LANES` threads taking turns through one `RoundRobinScheduler`.
fn scheduler(ctx: &mut ProbeCtx<'_>) {
    let secs = ctx.sample(|| {
        let sched = RoundRobinScheduler::new(1);
        let lanes: Vec<usize> = (0..LANES).map(|_| sched.join()).collect();
        std::thread::scope(|s| {
            for lane in lanes {
                let handle = sched.handle(lane);
                let sched = &sched;
                s.spawn(move || {
                    for _ in 0..GRANTS_PER_LANE {
                        handle.acquire();
                        handle.release(1e-3);
                    }
                    sched.leave(lane);
                });
            }
        });
    });
    ctx.latency(
        "service.sched_grant_us",
        1e6,
        (LANES * GRANTS_PER_LANE) as f64,
        &secs,
    );
}

/// Request round trips over TCP and the in-process loopback, result
/// fetch bandwidth, and what the gateway adds to a job.
fn gateway(ctx: &mut ProbeCtx<'_>, small: &Graph, pooled_s: f64) {
    let tcp = Arc::new(TcpTransport::bind("127.0.0.1:0").expect("bind 127.0.0.1:0"));
    let loopback = LoopbackTransport::new();
    let server = GatewayServer::new(
        EnginePool::new(ServiceConfig::default(), ENGINES),
        GatewayConfig::default(),
    );
    let handles = [
        server.serve(Arc::clone(&tcp) as Arc<dyn Transport>),
        server.serve(Arc::clone(&loopback) as Arc<dyn Transport>),
    ];
    {
        let mut over_tcp = GatewayClient::connect_tcp(tcp.local_addr()).expect("connect over TCP");
        let mut over_loopback =
            GatewayClient::connect_loopback(&loopback).expect("connect over loopback");
        over_tcp
            .register_graph("gw", small, WORKERS, 1, CodecChoice::None)
            .expect("register probe graph");
        let program = ProgramSpec::PageRank {
            supersteps: SMALL_JOB_STEPS,
        };
        let one_job = |client: &mut GatewayClient| {
            let id = client
                .submit("gw", program, JobOptions::default())
                .expect("submit");
            client.subscribe(id, |_| {}).expect("subscribe");
            (id, client.fetch(id).expect("fetch"))
        };

        // Wire cost of one job: every frame and byte, both directions. The
        // server counts a response after writing it, so the client can
        // hold the reply before the counter moves: read until it rests.
        let m = server.metrics();
        let count = || loop {
            let seen = (m.frames_in() + m.frames_out(), m.bytes_in() + m.bytes_out());
            std::thread::sleep(COUNTER_SETTLE);
            if seen == (m.frames_in() + m.frames_out(), m.bytes_in() + m.bytes_out()) {
                break seen;
            }
        };
        let before = count();
        let (job_id, outcome) = one_job(&mut over_tcp);
        let after = count();
        ctx.report
            .set("gateway.frames", (after.0 - before.0) as f64, 1);
        ctx.report
            .set("gateway.bytes", (after.1 - before.1) as f64, 1);

        let secs = ctx.sample(|| {
            over_tcp.status(job_id).expect("status over TCP");
        });
        ctx.latency("gateway.status_rtt_tcp_us", 1e6, 1.0, &secs);
        ctx.report.set(
            "gateway.status_rtt_tcp_hi_us",
            high(&secs).0 * 1e6,
            secs.len(),
        );
        let secs = ctx.sample(|| {
            over_loopback.status(job_id).expect("status over loopback");
        });
        ctx.latency("gateway.status_rtt_loopback_us", 1e6, 1.0, &secs);
        let secs = ctx.sample(|| {
            over_tcp.metrics_text().expect("metrics over TCP");
        });
        ctx.latency("gateway.metrics_rtt_us", 1e6, 1.0, &secs);
        let secs = ctx.sample(|| {
            over_tcp.fetch(job_id).expect("fetch over TCP");
        });
        ctx.rate(
            "gateway.fetch_mb_s",
            outcome.values.len() as f64 / MB,
            &secs,
        );
        let mut secs = Vec::new();
        ctx.repeat_jobs(|| {
            let t = Instant::now();
            one_job(&mut over_tcp);
            secs.push(t.elapsed().as_secs_f64());
        });
        ctx.report.set(
            "gateway.job_overhead_ms",
            (fast_low(&secs) - pooled_s) * 1e3,
            secs.len(),
        );
    }
    // The clients are gone, so the connection handlers end and join returns.
    server.stop(&*tcp);
    server.stop(&*loopback);
    for h in handles {
        h.join();
    }
}
