//! The per-layer breakdown a traced run prints.
//!
//! Every traced run prints every layer. Times and counts are means per
//! traced op. A layer the workload never reaches (the server on the
//! sweep workloads, fusion outside `population`) reads 0.

use crate::rebuild::Stages;
use crate::spans::SpanTotals;
use crate::stats;

/// One value per per-layer metric; see [`Layers::metrics`] for names.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub calibrate_ms: f64,
    pub campaign_ms: f64,
    pub synth_ms: f64,
    pub transform_ms: f64,
    pub reduce_ms: f64,
    pub score_ms: f64,
    pub detect_ms: f64,
    pub group_ms: f64,
    pub merge_ms: f64,
    pub detections: f64,
    pub carriers: f64,
    pub detect_yield: f64,
    pub fuse_ms: f64,
    pub channel_sweep_ms: f64,
    pub retry_ratio: f64,
    pub exec_ms: f64,
    pub overhead_ms: f64,
    pub cache_hit_ratio: f64,
    pub rejected: f64,
    pub degraded: f64,
    pub unattributed_ms: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    /// `(name, unit, value)` for every per-layer metric, in output order.
    pub fn metrics(&self) -> [(&'static str, &'static str, f64); 22] {
        [
            ("sysmodel.calibrate_ms", "ms", self.calibrate_ms),
            ("specan.campaign_ms", "ms", self.campaign_ms),
            ("emsim.synth_ms", "ms", self.synth_ms),
            ("dsp.transform_ms", "ms", self.transform_ms),
            ("specan.reduce_ms", "ms", self.reduce_ms),
            ("core.score_ms", "ms", self.score_ms),
            ("core.detect_ms", "ms", self.detect_ms),
            ("core.group_ms", "ms", self.group_ms),
            ("core.merge_ms", "ms", self.merge_ms),
            ("core.detections", "count", self.detections),
            ("core.carriers", "count", self.carriers),
            ("core.detect_yield", "ratio", self.detect_yield),
            ("core.fuse_ms", "ms", self.fuse_ms),
            ("specan.channel_sweep_ms", "ms", self.channel_sweep_ms),
            ("specan.retry_ratio", "ratio", self.retry_ratio),
            ("serve.exec_ms", "ms", self.exec_ms),
            ("serve.overhead_ms", "ms", self.overhead_ms),
            ("serve.cache_hit_ratio", "ratio", self.cache_hit_ratio),
            ("serve.rejected", "count", self.rejected),
            ("serve.degraded", "count", self.degraded),
            ("specan.unattributed_ms", "ms", self.unattributed_ms),
            ("obs.trace_overhead_pct", "%", self.trace_overhead_pct),
        ]
    }

    /// Layers of the ops whose sweeps were rebuilt stage by stage
    /// ([`crate::rebuild`]) and matched their untraced op, one entry of
    /// `traced_ms` each: stage times from `stages`, the capture internals
    /// from `spans`, the unattributed remainder of the traced ops' wall
    /// time, and the traced-vs-untraced median gap.
    pub fn from_rebuild(
        calibrate_ms: &[f64],
        stages: &Stages,
        spans: &SpanTotals,
        untraced_ms: &[f64],
        traced_ms: &[f64],
    ) -> Layers {
        let n = traced_ms.len().max(1) as f64;
        Layers {
            calibrate_ms: stats::mean(calibrate_ms),
            campaign_ms: stages.campaign_ms / n,
            synth_ms: spans.synth_ms / n,
            transform_ms: spans.transform_ms / n,
            reduce_ms: spans.reduce_ms / n,
            score_ms: stages.score_ms / n,
            detect_ms: stages.detect_ms / n,
            group_ms: stages.group_ms / n,
            merge_ms: stages.merge_ms / n,
            detections: stages.detections as f64 / n,
            carriers: stages.carriers as f64 / n,
            detect_yield: stages.carriers as f64 / stages.detections.max(1) as f64,
            retry_ratio: stages.retries as f64 / spans.captures.max(1) as f64,
            unattributed_ms: stats::mean(traced_ms) - stages.total_ms() / n,
            trace_overhead_pct: overhead_pct(untraced_ms, traced_ms),
            ..Layers::default()
        }
    }
}

/// How much slower the traced ops' median is than the untraced ops',
/// in percent.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = stats::percentile(untraced_ms, 50.0);
    if base > 0.0 {
        100.0 * (stats::percentile(traced_ms, 50.0) - base) / base
    } else {
        0.0
    }
}
