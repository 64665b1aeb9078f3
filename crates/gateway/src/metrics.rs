//! Gateway observability: frame/byte counters plus per-engine queue
//! depths, rendered through `hybridgraph-obs`'s Prometheus exposition.

use hybridgraph_obs::{export_prometheus_gauges, ExtraMetric};
use hybridgraph_service::EnginePool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of one gateway's wire activity. All updates are
/// relaxed atomics off the hot path (one bump per frame).
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    rejected_frames: AtomicU64,
    timeouts: AtomicU64,
}

impl GatewayMetrics {
    /// Records one inbound frame of `nbytes` wire bytes.
    pub fn frame_in(&self, nbytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(nbytes as u64, Ordering::Relaxed);
    }

    /// Records one outbound frame of `nbytes` wire bytes.
    pub fn frame_out(&self, nbytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(nbytes as u64, Ordering::Relaxed);
    }

    /// Records one rejected frame (framing or body decode failure).
    pub fn reject(&self) {
        self.rejected_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection closed by read timeout.
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Inbound frame count.
    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Outbound frame count.
    pub fn frames_out(&self) -> u64 {
        self.frames_out.load(Ordering::Relaxed)
    }

    /// Inbound wire bytes.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Outbound wire bytes.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Rejected frames.
    fn rejected_frames(&self) -> u64 {
        self.rejected_frames.load(Ordering::Relaxed)
    }

    /// The counters plus `pool`'s per-engine queue depths as exposition
    /// gauges.
    pub fn extras(&self, pool: &EnginePool) -> Vec<ExtraMetric> {
        let mut extras = vec![
            ExtraMetric::new("gateway_frames_in_total", self.frames_in() as f64),
            ExtraMetric::new("gateway_frames_out_total", self.frames_out() as f64),
            ExtraMetric::new("gateway_bytes_in_total", self.bytes_in() as f64),
            ExtraMetric::new("gateway_bytes_out_total", self.bytes_out() as f64),
            ExtraMetric::new(
                "gateway_rejected_frames_total",
                self.rejected_frames() as f64,
            ),
            ExtraMetric::new(
                "gateway_read_timeouts_total",
                self.timeouts.load(Ordering::Relaxed) as f64,
            ),
            ExtraMetric::new("gateway_engines", pool.engines() as f64),
        ];
        for (i, (resident, queued)) in pool.queue_depths().into_iter().enumerate() {
            extras.push(
                ExtraMetric::new("gateway_engine_resident_jobs", resident as f64)
                    .label("engine", i.to_string()),
            );
            extras.push(
                ExtraMetric::new("gateway_engine_queued_jobs", queued as f64)
                    .label("engine", i.to_string()),
            );
        }
        extras
    }

    /// Prometheus text exposition of [`GatewayMetrics::extras`].
    pub fn prometheus(&self, pool: &EnginePool) -> String {
        export_prometheus_gauges(&self.extras(pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_service::ServiceConfig;

    #[test]
    fn exposition_has_counters_and_per_engine_gauges() {
        let pool = EnginePool::new(ServiceConfig::default(), 2);
        let m = GatewayMetrics::default();
        m.frame_in(10);
        m.frame_out(20);
        m.reject();
        let text = m.prometheus(&pool);
        assert!(text.contains("hybridgraph_gateway_frames_in_total 1"));
        assert!(text.contains("hybridgraph_gateway_bytes_out_total 20"));
        assert!(text.contains("hybridgraph_gateway_rejected_frames_total 1"));
        assert!(text.contains("hybridgraph_gateway_engine_queued_jobs{engine=\"0\"} 0"));
        assert!(text.contains("hybridgraph_gateway_engine_queued_jobs{engine=\"1\"} 0"));
    }
}
