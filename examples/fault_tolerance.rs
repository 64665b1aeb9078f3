//! Fault tolerance: a job that loses a worker, on a lossy wire, ends with
//! the fault-free run's values to the bit.
//!
//! Three runs of hybrid PageRank: fault-free; worker 2 killed mid-compute
//! at superstep 5 with a checkpoint every 3 supersteps (every worker rolls
//! back); and the same kill with message logging on a wire that drops,
//! duplicates and delays data frames, where only the dead worker replays
//! (confined recovery) while the ARQ layer restores exactly-once delivery.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use hybridgraph::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Dataset::LiveJ.build_scaled(2_000);
    let job = || JobConfig::new(Mode::Hybrid, 4).with_buffer(250);
    let run = |cfg| run_job(Arc::new(PageRank::new(20)), &graph, cfg).expect("job");
    let bits = |r: &JobResult<PageRank>| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    let clean = run(job());

    // Kill worker 2 at superstep 5, mid-compute; checkpoint every 3 steps.
    let kill = || FaultPlan::new().kill(2, 5, FaultPhase::Compute);
    let global = run(job()
        .with_checkpoint(CheckpointPolicy::EveryK(3))
        .with_fault_plan(Arc::new(kill())));
    let rec = &global.metrics.recovery;
    println!(
        "global:   {} rollback(s), {} supersteps re-executed, {} checkpoint bytes",
        rec.rollbacks, rec.recomputed_supersteps, rec.checkpoint_bytes
    );
    assert_eq!(bits(&global), bits(&clean), "bit-identical");

    // The same kill on a lossy wire, with message logging: the survivors
    // undo one superstep in memory and re-serve the dead worker its
    // logged messages instead of rolling back.
    let net = NetFaultPlan::new(7)
        .with_drops(100, 3) // ~10% of data frames dropped, each for 1-3 attempts
        .with_duplicates(150) // ~15% duplicated
        .with_delays(120, 1); // ~12% delayed by 1 ms
    let confined = run(job()
        .with_checkpoint(CheckpointPolicy::EveryK(3))
        .with_message_logging(true)
        .with_fault_plan(Arc::new(kill().with_net(Arc::new(net)))));
    let rec = &confined.metrics.recovery;
    println!(
        "confined: {} confined recover(ies), {} superstep(s) replayed, {} ARQ bytes re-sent",
        rec.confined_recoveries,
        rec.replayed_supersteps,
        confined.metrics.net_overhead.retransmitted_bytes
    );
    assert_eq!(bits(&confined), bits(&clean), "bit-identical");
}
