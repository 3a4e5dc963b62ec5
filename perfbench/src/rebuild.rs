//! [`fase_specan::run_sweep`] rebuilt from the workspace's public calls,
//! so each stage of a sweep can be timed from outside the crates.
//!
//! Per band: [`run_campaign_with_options`] with a sweep-wide
//! [`CalibrationCache`] and seed `mix_seed(seed, band)`, then
//! [`all_harmonic_scores`], [`detect_in_trace`], [`merge_detections`] and
//! [`FaseReport::from_carriers`]; finally [`merge_band_reports`]. The
//! workloads compare the rebuilt report with `run_sweep`'s byte for byte,
//! so the times describe the program as users run it.

use crate::calibrate::PAIR;
use crate::ms_since;
use fase_core::detector::{detect_in_trace, merge_detections};
use fase_core::heuristic::all_harmonic_scores;
use fase_core::{merge_band_reports, CampaignConfig, FaseConfig, FaseError, FaseReport};
use fase_dsp::rng::mix_seed;
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{
    plan_bands, run_campaign_with_options, CalibrationCache, CampaignOptions, SweepConfig,
};
use std::time::Instant;

/// Stage times (milliseconds) and counts of rebuilt sweeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// Band campaigns: synthesis, capture, transform, reduce.
    pub campaign_ms: f64,
    /// Eq. 1 scoring of every harmonic.
    pub score_ms: f64,
    /// Peak detection in the score traces.
    pub detect_ms: f64,
    /// Evidence merge into carriers and harmonic grouping.
    pub group_ms: f64,
    /// Cross-band merge.
    pub merge_ms: f64,
    /// Peak detections, summed over bands.
    pub detections: usize,
    /// Carriers in the band reports, summed over bands.
    pub carriers: usize,
    /// Extra capture attempts (`CampaignHealth::total_retries`).
    pub retries: usize,
}

impl Stages {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Stages) {
        self.campaign_ms += o.campaign_ms;
        self.score_ms += o.score_ms;
        self.detect_ms += o.detect_ms;
        self.group_ms += o.group_ms;
        self.merge_ms += o.merge_ms;
        self.detections += o.detections;
        self.carriers += o.carriers;
        self.retries += o.retries;
    }

    /// Sum of the timed stages.
    pub fn total_ms(&self) -> f64 {
        self.campaign_ms + self.score_ms + self.detect_ms + self.group_ms + self.merge_ms
    }
}

/// Runs the sweep `run_sweep(config, _, PAIR, factory, seed, options)`
/// would run, without a capture cache, timing each stage.
///
/// # Errors
///
/// Whatever planning, a band campaign or the band configuration returns.
pub fn traced_sweep(
    config: &SweepConfig,
    factory: &(dyn Fn(usize) -> SimulatedSystem + Sync),
    seed: u64,
    campaign: &CampaignOptions,
) -> Result<(FaseReport, Stages), FaseError> {
    let analysis = FaseConfig::default();
    let mut stages = Stages::default();
    let bands = plan_bands(
        config.lo,
        config.hi,
        config.resolution,
        config.bands,
        config.overlap,
    )?;
    let mut options = campaign.clone();
    if options.calibration.is_none() {
        options.calibration = Some(CalibrationCache::default());
    }
    let mut reports = Vec::with_capacity(bands.len());
    for band in &bands {
        let band_config = CampaignConfig::builder()
            .band(band.lo, band.hi)
            .resolution(config.resolution)
            .alternation(config.f_alt1, config.f_delta, config.alternations)
            .averages(config.averages)
            .build()?;
        let t = Instant::now();
        let spectra = run_campaign_with_options(
            &band_config,
            PAIR,
            factory,
            mix_seed(seed, band.index as u64),
            options.clone(),
        )?;
        stages.campaign_ms += ms_since(t);
        let t = Instant::now();
        let traces = all_harmonic_scores(&spectra, analysis.max_harmonic, &analysis.heuristic);
        stages.score_ms += ms_since(t);
        let t = Instant::now();
        let detections: Vec<_> = traces
            .iter()
            .flat_map(|trace| detect_in_trace(trace, &analysis.detector))
            .collect();
        stages.detect_ms += ms_since(t);
        stages.detections += detections.len();
        let t = Instant::now();
        let carriers = merge_detections(&spectra, detections, &analysis.detector);
        let mut report =
            FaseReport::from_carriers(carriers, analysis.group_rel_tol).with_traces(traces);
        if let Some(health) = spectra.health() {
            report = report.with_health(health.clone());
            stages.retries += health.total_retries;
        }
        stages.group_ms += ms_since(t);
        stages.carriers += report.len();
        reports.push(report);
    }
    let t = Instant::now();
    let merged = merge_band_reports(
        &reports,
        Hertz(2.0 * config.resolution.hz()),
        analysis.group_rel_tol,
    );
    stages.merge_ms = ms_since(t);
    Ok((merged, stages))
}
