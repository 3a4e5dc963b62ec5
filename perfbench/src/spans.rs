//! Per-layer totals read from the spans and counters the FASE crates
//! already record through `fase-obs`.
//!
//! Span paths depend on the calling thread's nesting (a pooled capture
//! is a root `capture/synth` on its worker, a sequential one nests under
//! `campaign`), so stages are matched by their trailing path segments
//! and summed over every path that ends in them. Times from worker
//! threads add up across threads: they are CPU time, not wall time.

use fase_obs::Snapshot;

/// Stage totals of one snapshot, milliseconds unless noted.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    /// `emsim` scene rendering (`…/synth`).
    pub synth_ms: f64,
    /// `fase-dsp` capture transform (`…/transform`).
    pub transform_ms: f64,
    /// Campaign reduce: averaging, stitching (`…/campaign/reduce`).
    pub reduce_ms: f64,
    /// Whole campaigns (`…/campaign`).
    pub campaign_ms: f64,
    /// Eq. 1 scoring (`…/analyze/score`).
    pub score_ms: f64,
    /// Peak detection (`…/analyze/detect`).
    pub detect_ms: f64,
    /// Evidence merge and harmonic grouping (`…/analyze/group`).
    pub group_ms: f64,
    /// Sweep bands (`…/specan.sweep/specan.sweep_band`).
    pub sweep_band_ms: f64,
    /// Capture tasks entered (`…/capture` span count).
    pub captures: u64,
    /// `core.detections` counter.
    pub detections: u64,
    /// `core.carriers` counter.
    pub carriers: u64,
}

fn ends_with(path: &str, tail: &str) -> bool {
    path == tail
        || path
            .strip_suffix(tail)
            .is_some_and(|head| head.ends_with('/'))
}

impl SpanTotals {
    /// Totals over `snap`.
    pub fn from(snap: &Snapshot) -> SpanTotals {
        let mut t = SpanTotals::default();
        for (path, stat) in &snap.spans {
            let ms = stat.total_ns as f64 / 1e6;
            let slot = if ends_with(path, "synth") {
                &mut t.synth_ms
            } else if ends_with(path, "transform") {
                &mut t.transform_ms
            } else if ends_with(path, "campaign/reduce") {
                &mut t.reduce_ms
            } else if ends_with(path, "campaign") {
                &mut t.campaign_ms
            } else if ends_with(path, "analyze/score") {
                &mut t.score_ms
            } else if ends_with(path, "analyze/detect") {
                &mut t.detect_ms
            } else if ends_with(path, "analyze/group") {
                &mut t.group_ms
            } else if ends_with(path, "specan.sweep/specan.sweep_band") {
                &mut t.sweep_band_ms
            } else {
                if ends_with(path, "capture") {
                    t.captures += stat.count;
                }
                continue;
            };
            *slot += ms;
        }
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        t.detections = counter("core.detections");
        t.carriers = counter("core.carriers");
        t
    }

    /// Field-wise sum of two totals.
    pub fn plus(self, o: SpanTotals) -> SpanTotals {
        SpanTotals {
            synth_ms: self.synth_ms + o.synth_ms,
            transform_ms: self.transform_ms + o.transform_ms,
            reduce_ms: self.reduce_ms + o.reduce_ms,
            campaign_ms: self.campaign_ms + o.campaign_ms,
            score_ms: self.score_ms + o.score_ms,
            detect_ms: self.detect_ms + o.detect_ms,
            group_ms: self.group_ms + o.group_ms,
            sweep_band_ms: self.sweep_band_ms + o.sweep_band_ms,
            captures: self.captures + o.captures,
            detections: self.detections + o.detections,
            carriers: self.carriers + o.carriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_obs::Recorder;

    #[test]
    fn stages_match_by_trailing_segments() {
        let rec = Recorder::detached();
        {
            let _sweep = rec.span("specan.sweep");
            let _band = rec.span("specan.sweep_band");
            {
                let _campaign = rec.span("campaign");
                drop(rec.span("reduce"));
            }
            let _analyze = rec.span("analyze");
            drop(rec.span("score"));
            drop(rec.span("detect"));
        }
        {
            let _capture = rec.span("capture");
            drop(rec.span("synth"));
            drop(rec.span("transform"));
        }
        drop(rec.span("capture"));
        rec.count("core.detections", 7);
        let t = SpanTotals::from(&rec.snapshot());
        assert_eq!(t.captures, 2);
        assert_eq!(t.detections, 7);
        assert!(t.sweep_band_ms >= t.campaign_ms);
        assert!(t.campaign_ms >= t.reduce_ms);
        let doubled = t.plus(t);
        assert_eq!(doubled.captures, 4);
        assert!(ends_with("a/campaign/reduce", "campaign/reduce"));
        assert!(!ends_with("a/xcampaign/reduce", "campaign/reduce"));
    }
}
