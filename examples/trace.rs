//! Observability: record what the engine did on the *modeled* clock,
//! export it as a Chrome trace (open it at <https://ui.perfetto.dev>) and
//! print the `Q_t` audit that explains every switching evaluation.
//!
//! ```text
//! cargo run --release --example trace
//! ```

use hybridgraph::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Dataset::LiveJ.build_scaled(2_000);
    let sink = Arc::new(TraceSink::new(5));
    let cfg = JobConfig::new(Mode::Hybrid, 5)
        .with_buffer(250)
        .with_trace(Arc::clone(&sink));
    let result = run_job(Arc::new(PageRank::new(5)), &graph, cfg).expect("job");

    // Timestamps are modeled time, so a same-seed rerun exports the same
    // bytes.
    let json = export_chrome_trace(&sink);
    validate_json(&json).expect("valid trace JSON");
    std::fs::create_dir_all("out").expect("out/");
    std::fs::write("out/trace.json", &json).expect("write trace");
    println!("wrote out/trace.json ({} bytes)", json.len());
    println!("{}", render_table(&result.metrics.qt_audit));
}
