//! The campaign runner: orchestrates micro-benchmark execution, EM
//! rendering, capture, averaging and stitching for a full FASE campaign.

use crate::analyzer::SpectrumAnalyzer;
use crate::cancel::CancelToken;
use crate::fault::{FaultKind, FaultPlan};
use crate::sweep::SweepPlan;
use fase_core::{
    CampaignConfig, CampaignHealth, CampaignSpectra, DroppedAlternation, FaseError, FaultRecord,
    LabeledSpectrum,
};
use fase_dsp::fir::Fir;
use fase_dsp::rng::{mix_seed, SmallRng};
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::{RenderCtx, SimulatedSystem, SynthMode};
use fase_obs::{span, Recorder};
use fase_sysmodel::{ActivityPair, Alternation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default FFT length cap (131072 points covers the paper's 0–4 MHz /
/// 50 Hz campaign in one segment).
pub const DEFAULT_MAX_FFT: usize = 1 << 17;

/// Default per-capture attempt budget: one regular try plus two retries.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Captures whose total power deviates from the cohort median by more
/// than this factor (either way) are quarantined by the robust averager.
const QUARANTINE_FACTOR: f64 = 8.0;

/// How a sweep segment's capture cohort is combined into one spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Averaging {
    /// Plain power mean — the paper's analyzer behaviour ("average 4
    /// captures"), fastest, but one glitched capture drags every bin.
    Mean,
    /// Glitch-robust: captures whose total power is a gross outlier
    /// against the cohort median are quarantined, then the survivors are
    /// combined with a per-bin trimmed mean
    /// ([`Spectrum::robust_average`]). Quarantine counts surface in
    /// [`CampaignHealth`].
    #[default]
    Robust,
}

/// Combines one segment's captures per the configured averaging policy,
/// bumping `quarantined` for every capture the robust path excluded.
fn average_cohort(
    captures: &[Spectrum],
    averaging: Averaging,
    quarantined: &mut usize,
) -> Result<Spectrum, FaseError> {
    match averaging {
        Averaging::Mean => Ok(Spectrum::average(captures.iter())?),
        Averaging::Robust => {
            let survivors = quarantine(captures);
            *quarantined += captures.len() - survivors.len();
            Ok(Spectrum::robust_average(survivors.iter().copied())?)
        }
    }
}

/// Drops gross power outliers from a capture cohort. Quarantine needs a
/// majority to define "normal": cohorts smaller than three captures, a
/// non-positive median, or fewer than two survivors keep everything (the
/// per-bin trimmed mean still limits the damage).
fn quarantine(captures: &[Spectrum]) -> Vec<&Spectrum> {
    if captures.len() < 3 {
        return captures.iter().collect();
    }
    let totals: Vec<f64> = captures.iter().map(Spectrum::total_power).collect();
    let med = fase_dsp::stats::median(&totals);
    if !med.is_finite() || med <= 0.0 {
        return captures.iter().collect();
    }
    let keep: Vec<&Spectrum> = captures
        .iter()
        .zip(&totals)
        .filter(|(_, &t)| {
            t.is_finite() && t <= QUARANTINE_FACTOR * med && t >= med / QUARANTINE_FACTOR
        })
        .map(|(s, _)| s)
        .collect();
    if keep.len() >= 2 {
        keep
    } else {
        captures.iter().collect()
    }
}

/// Publishes a finished campaign's health record as observability
/// counters, so retries/quarantines/faults show up in `--metrics-out`
/// next to the stage timings.
fn record_health(recorder: &Recorder, health: &CampaignHealth) {
    recorder.count_usize("specan.capture_retries", health.total_retries);
    recorder.count_usize("specan.quarantined", health.quarantined);
    recorder.count_usize("specan.faults_injected", health.faults.len());
    recorder.count_usize("specan.dropped_alternations", health.dropped.len());
}

/// RNG stream for `(campaign seed, task index, attempt)`. Attempt 0 uses
/// the same derivation as the pre-retry runner (`mix_seed(seed, index)`),
/// so fault-free campaigns reproduce historical results bit-for-bit;
/// each retry re-derives a fresh, equally well-mixed stream.
fn attempt_seed(seed: u64, index: usize, attempt: u32) -> u64 {
    let base = mix_seed(seed, index as u64);
    if attempt == 0 {
        base
    } else {
        mix_seed(base, attempt as u64)
    }
}

/// Runs FASE measurement campaigns against a [`SimulatedSystem`].
///
/// For each alternation frequency the runner calibrates the X/Y
/// micro-benchmark on the system's machine model, executes it for the
/// capture duration, schedules memory refreshes, renders the EM scene into
/// IQ captures, and averages the analyzer spectra — exactly the procedure
/// of the paper's §3.
///
/// # Examples
///
/// ```no_run
/// use fase_core::{CampaignConfig, Fase};
/// use fase_emsim::SimulatedSystem;
/// use fase_specan::CampaignRunner;
/// use fase_sysmodel::ActivityPair;
///
/// let system = SimulatedSystem::intel_i7_desktop(42);
/// let mut runner = CampaignRunner::new(system, ActivityPair::LdmLdl1, 7);
/// let spectra = runner.run(&CampaignConfig::paper_0_4mhz())?;
/// let report = Fase::default().analyze(&spectra)?;
/// println!("{report}");
/// # Ok::<(), fase_core::FaseError>(())
/// ```
#[derive(Debug)]
pub struct CampaignRunner {
    system: SimulatedSystem,
    pair: ActivityPair,
    analyzer: SpectrumAnalyzer,
    max_fft: usize,
    synth_mode: SynthMode,
    rng: SmallRng,
    /// Absolute time cursor so consecutive captures are phase-consistent.
    time: f64,
    fault_plan: Option<FaultPlan>,
    max_attempts: u32,
    averaging: Averaging,
    recorder: Recorder,
    cancel: CancelToken,
}

impl CampaignRunner {
    /// Creates a runner for `system` driving the given activity pair.
    pub fn new(system: SimulatedSystem, pair: ActivityPair, seed: u64) -> CampaignRunner {
        CampaignRunner {
            system,
            pair,
            analyzer: SpectrumAnalyzer::default(),
            max_fft: DEFAULT_MAX_FFT,
            synth_mode: SynthMode::Fast,
            rng: SmallRng::seed_from_u64(seed),
            time: 0.0,
            fault_plan: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            averaging: Averaging::default(),
            recorder: Recorder::global(),
            cancel: CancelToken::never(),
        }
    }

    /// Attaches a [`CancelToken`]; the runner checks it between
    /// alternation frequencies, between captures, and before every retry,
    /// and draws each executed capture from the token's budget. The
    /// default inert token never fires, so untokened campaigns are
    /// bit-identical to earlier releases.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> CampaignRunner {
        self.cancel = cancel;
        self
    }

    /// The error for a fired token.
    fn cancel_error(&self) -> FaseError {
        FaseError::cancelled(self.cancel.cause().unwrap_or("cancelled by caller"))
    }

    /// Replaces the metrics [`Recorder`] campaign spans and health counters
    /// report through (default is the process-wide recorder, inert unless
    /// enabled).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> CampaignRunner {
        self.recorder = recorder;
        self
    }

    /// Injects a deterministic impairment schedule into every capture (see
    /// [`FaultPlan`]); faults are recorded in the campaign's
    /// [`CampaignHealth`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> CampaignRunner {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the per-capture attempt budget (minimum 1; default
    /// [`DEFAULT_MAX_ATTEMPTS`]).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> CampaignRunner {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Selects the capture-averaging policy (default
    /// [`Averaging::Robust`]).
    pub fn with_averaging(mut self, averaging: Averaging) -> CampaignRunner {
        self.averaging = averaging;
        self
    }

    /// Selects the EM synthesis path (default [`SynthMode::Fast`]); the
    /// exact path is the per-sample reference used for validation and
    /// benchmarking.
    pub fn with_synth_mode(mut self, mode: SynthMode) -> CampaignRunner {
        self.synth_mode = mode;
        self
    }

    /// Overrides the FFT length cap (smaller = less memory, more
    /// segments).
    pub fn with_max_fft(mut self, max_fft: usize) -> CampaignRunner {
        self.max_fft = max_fft;
        self
    }

    /// Overrides the analyzer (e.g. to use a different window).
    pub fn with_analyzer(mut self, analyzer: SpectrumAnalyzer) -> CampaignRunner {
        self.analyzer = analyzer;
        self
    }

    /// The driven activity pair.
    pub fn pair(&self) -> ActivityPair {
        self.pair
    }

    /// Access to the simulated system (e.g. for ground truth in tests).
    pub fn system(&self) -> &SimulatedSystem {
        &self.system
    }

    /// Runs a full campaign: one averaged, stitched spectrum per
    /// alternation frequency, labeled with the *achieved* alternation
    /// frequency, with a [`CampaignHealth`] record attached.
    ///
    /// An alternation frequency whose capture retry budget is exhausted is
    /// *dropped* and the campaign degrades to the survivors (the heuristic
    /// needs only two spectra); the terminal
    /// [`FaseError::CaptureFailed`] surfaces only when fewer than two
    /// alternation frequencies survive. A [`CancelToken`] attached with
    /// [`with_cancel`](CampaignRunner::with_cancel) behaves the same way:
    /// once it fires, the remaining alternation frequencies are dropped
    /// and the campaign degrades, or [`FaseError::Cancelled`] surfaces
    /// when fewer than two spectra were already measured.
    ///
    /// # Errors
    ///
    /// Propagates spectrum assembly failures, and capture failures or
    /// cancellation when the campaign cannot degrade any further.
    pub fn run(&mut self, config: &CampaignConfig) -> Result<CampaignSpectra, FaseError> {
        let _campaign = span!(self.recorder, "campaign");
        let f_alts = config.alternation_frequencies();
        let mut health = CampaignHealth::new(f_alts.len());
        let mut labeled = Vec::with_capacity(f_alts.len());
        let mut first_failure: Option<FaseError> = None;
        for (i_alt, &f_alt) in f_alts.iter().enumerate() {
            // A fired token degrades the campaign to the spectra already
            // measured when at least two survive (mirroring the pooled
            // runner's band-granular cancellation); otherwise it aborts.
            if self.cancel.is_cancelled() {
                if labeled.len() >= 2 {
                    for &abandoned in &f_alts[i_alt..] {
                        health.dropped.push(DroppedAlternation {
                            f_alt: abandoned,
                            error: self.cancel_error(),
                        });
                    }
                    break;
                }
                return Err(self.cancel_error());
            }
            let measured = self.measure_at(
                i_alt,
                f_alt,
                config.band_lo(),
                config.band_hi(),
                config.resolution(),
                config.averages(),
                &mut health,
            );
            match measured {
                Ok((spectrum, measured)) => labeled.push(LabeledSpectrum {
                    f_alt: measured,
                    spectrum,
                }),
                Err(e @ FaseError::CaptureFailed { .. }) => {
                    first_failure.get_or_insert_with(|| e.clone());
                    health.dropped.push(DroppedAlternation { f_alt, error: e });
                }
                Err(e @ FaseError::Cancelled(_)) if labeled.len() >= 2 => {
                    health.dropped.push(DroppedAlternation { f_alt, error: e });
                    for &abandoned in &f_alts[i_alt + 1..] {
                        health.dropped.push(DroppedAlternation {
                            f_alt: abandoned,
                            error: self.cancel_error(),
                        });
                    }
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        health.surviving = labeled.len();
        record_health(&self.recorder, &health);
        if labeled.len() < 2 {
            return Err(first_failure.unwrap_or_else(|| {
                FaseError::invalid_spectra("fewer than two alternation frequencies survived")
            }));
        }
        Ok(CampaignSpectra::new(config.clone(), labeled)?.with_health(health))
    }

    /// Measures a single averaged spectrum with the benchmark alternating
    /// at `f_alt` — the building block for figures outside full campaigns.
    ///
    /// # Errors
    ///
    /// Propagates spectrum assembly failures.
    pub fn single_spectrum(
        &mut self,
        f_alt: Hertz,
        lo: Hertz,
        hi: Hertz,
        resolution: Hertz,
        averages: usize,
    ) -> Result<Spectrum, FaseError> {
        let mut health = CampaignHealth::new(1);
        Ok(self
            .measure_at(0, f_alt, lo, hi, resolution, averages, &mut health)?
            .0)
    }

    /// Measures one averaged, stitched, band-trimmed spectrum; returns it
    /// with the achieved alternation frequency. Each capture gets up to
    /// `max_attempts` tries; injected impairments and retries are recorded
    /// in `health`.
    #[allow(clippy::too_many_arguments)]
    fn measure_at(
        &mut self,
        i_alt: usize,
        f_alt: Hertz,
        lo: Hertz,
        hi: Hertz,
        resolution: Hertz,
        averages: usize,
        health: &mut CampaignHealth,
    ) -> Result<(Spectrum, Hertz), FaseError> {
        let bench = self.pair.calibrated(&mut self.system.machine, f_alt.hz());
        let plan = SweepPlan::new(lo, hi, resolution, self.max_fft);
        let mut segment_spectra = Vec::with_capacity(plan.segments().len());
        let mut period_sum = 0.0f64;
        let mut period_count = 0usize;
        for (i_seg, segment) in plan.segments().iter().enumerate() {
            let mut captures = Vec::with_capacity(averages);
            for i_avg in 0..averages {
                if self.cancel.is_cancelled() {
                    return Err(self.cancel_error());
                }
                let max_attempts = self.max_attempts.max(1);
                let mut attempt = 0u32;
                let _capture = span!(self.recorder, "capture");
                let t0 = self.recorder.is_active().then(fase_obs::monotonic_ns);
                let (spectrum, pairs, duration) = loop {
                    let fault = self
                        .fault_plan
                        .as_ref()
                        .and_then(|p| p.draw(i_alt, i_seg, i_avg, attempt));
                    if let Some(kind) = fault {
                        health.faults.push(FaultRecord {
                            f_alt,
                            segment: i_seg,
                            average: i_avg,
                            attempt,
                            tag: kind.tag().to_owned(),
                        });
                    }
                    let captured = self.capture_once(&bench, segment, fault);
                    self.cancel.consume_capture();
                    match captured {
                        Ok(out) => {
                            if attempt > 0 {
                                health.retried_tasks += 1;
                                health.total_retries += attempt as usize;
                            }
                            break out;
                        }
                        Err(e) => {
                            attempt += 1;
                            // A fired token stops the retry burn early;
                            // the alternation degrades like an exhausted
                            // budget would.
                            if attempt >= max_attempts || self.cancel.is_cancelled() {
                                if attempt > 1 {
                                    health.retried_tasks += 1;
                                    health.total_retries += (attempt - 1) as usize;
                                }
                                return Err(FaseError::capture_failed(
                                    f_alt,
                                    i_seg,
                                    attempt,
                                    e.to_string(),
                                ));
                            }
                        }
                    }
                };
                if let Some(t0) = t0 {
                    let elapsed = fase_obs::monotonic_ns().saturating_sub(t0);
                    self.recorder.observe_ns("specan.capture_ns", elapsed);
                }
                self.recorder.count("specan.captures", 1);
                period_sum += duration / pairs as f64;
                period_count += 1;
                captures.push(spectrum);
            }
            segment_spectra.push(average_cohort(
                &captures,
                self.averaging,
                &mut health.quarantined,
            )?);
        }
        let stitched = Spectrum::stitch(segment_spectra.iter())?;
        let trimmed = stitched.band(lo, hi)?;
        let mean_period = period_sum / period_count as f64;
        let measured = Hertz(1.0 / mean_period);
        Ok((trimmed, measured))
    }

    /// One capture attempt: run the benchmark, render, apply any injected
    /// impairment, transform. [`FaultKind::TaskFailure`] fails before any
    /// simulation work (the model is an analyzer-side abort, not a
    /// rendered glitch).
    fn capture_once(
        &mut self,
        bench: &Alternation,
        segment: &crate::sweep::SegmentSpec,
        fault: Option<FaultKind>,
    ) -> Result<(Spectrum, usize, f64), FaseError> {
        if fault == Some(FaultKind::TaskFailure) {
            return Err(FaseError::worker("injected task failure"));
        }
        let window = segment.window(self.time);
        let trace = self
            .system
            .machine
            .run_alternation(bench, segment.duration(), &mut self.rng);
        let pairs = (trace.len() / 2).max(1);
        let duration = trace.duration();
        let refreshes = self.system.refresh.schedule(&trace, &mut self.rng);
        let ctx = RenderCtx::new(&trace, &refreshes, &window)
            .with_mode(self.synth_mode)
            .with_recorder(self.recorder.clone());
        let mut iq = self.system.scene.render(&window, &ctx);
        if let Some(kind) = fault {
            let mut fault_rng = self.rng.fork(0xFAB1_7FAB);
            kind.apply(&mut iq, &mut fault_rng);
        }
        let spectrum = self.analyzer.spectrum(&window, &iq)?;
        self.time += segment.duration();
        Ok((spectrum, pairs, duration))
    }

    /// Calibrates and returns the alternation the runner would use at
    /// `f_alt` (useful for inspecting instruction counts).
    pub fn calibrate(&mut self, f_alt: Hertz) -> Alternation {
        self.pair.calibrated(&mut self.system.machine, f_alt.hz())
    }

    /// Captures raw IQ at `center` while the runner's activity pair
    /// alternates at `f_alt` — the attacker's (and auditor's) tap into
    /// the air interface, used for demodulation and modulation probing.
    ///
    /// Mimics a real SDR front-end: the scene is rendered oversampled,
    /// low-pass filtered to the requested span, and decimated, so sources
    /// just outside the span (rendered because of the scene's edge guard)
    /// cannot alias into the capture.
    pub fn capture_iq(
        &mut self,
        center: Hertz,
        span: f64,
        samples: usize,
        f_alt: Hertz,
    ) -> crate::probe::IqCapture {
        const OVERSAMPLE: usize = 4;
        let bench = self.pair.calibrated(&mut self.system.machine, f_alt.hz());
        let duration = samples as f64 / span;
        let wide_fs = span * OVERSAMPLE as f64;
        let window =
            fase_emsim::CaptureWindow::new(center, wide_fs, samples * OVERSAMPLE, self.time);
        let trace = self
            .system
            .machine
            .run_alternation(&bench, duration, &mut self.rng);
        let refreshes = self.system.refresh.schedule(&trace, &mut self.rng);
        let ctx = RenderCtx::new(&trace, &refreshes, &window).with_mode(self.synth_mode);
        let wide = self.system.scene.render(&window, &ctx);
        // Anti-alias: pass ±0.4·span, stop by the decimated Nyquist.
        let fir = Fir::lowpass(161, 0.4 * span, wide_fs, fase_dsp::Window::Hann);
        let iq: Vec<_> = fir
            .apply_complex(&wide)
            .into_iter()
            .step_by(OVERSAMPLE)
            .collect();
        self.time += duration;
        let pairs = (trace.len() / 2).max(1);
        let achieved = Hertz(pairs as f64 / trace.duration());
        crate::probe::IqCapture {
            center,
            sample_rate: span,
            samples: iq,
            f_alt: achieved,
        }
    }
}

/// Tuning knobs for the pooled campaign executor
/// ([`run_campaign_with_options`]).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker thread count. `None` reads the `FASE_THREADS` environment
    /// variable and falls back to the machine's available parallelism.
    pub threads: Option<usize>,
    /// EM synthesis path used for every capture.
    pub synth_mode: SynthMode,
    /// FFT length cap for the sweep plan (see [`DEFAULT_MAX_FFT`]).
    pub max_fft: usize,
    /// Deterministic impairment schedule injected into captures; `None`
    /// runs clean.
    pub fault_plan: Option<FaultPlan>,
    /// Per-capture attempt budget (minimum 1; a failed capture is retried
    /// on a fresh derived RNG stream until the budget is exhausted).
    pub max_attempts: u32,
    /// Capture-averaging policy for each sweep segment's cohort.
    pub averaging: Averaging,
    /// Metrics [`Recorder`] campaign spans, counters and capture timings
    /// report through (default is the process-wide recorder, inert unless
    /// enabled). Observability never affects campaign output.
    pub recorder: Recorder,
    /// Cooperative cancellation budget (deadline / capture budget /
    /// explicit cancel). The default token never fires, so default runs
    /// stay bit-identical; a fired token stops workers before their next
    /// task and surfaces as [`FaseError::Cancelled`] from the reduce.
    pub cancel: CancelToken,
    /// Machine-profiling/calibration results shared with other campaigns
    /// built from the *same factory* (see [`CalibrationCache`]); `None`
    /// (the default) scopes the sharing to this campaign alone. Sharing
    /// never changes captured bits — only how often the deterministic
    /// profiling pass runs.
    pub calibration: Option<CalibrationCache>,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            threads: None,
            synth_mode: SynthMode::Fast,
            max_fft: DEFAULT_MAX_FFT,
            fault_plan: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            averaging: Averaging::default(),
            recorder: Recorder::global(),
            cancel: CancelToken::never(),
            calibration: None,
        }
    }
}

/// One independent unit of campaign work: a single IQ capture, identified
/// by its (alternation frequency, sweep segment, average) cell.
#[derive(Debug, Clone, Copy)]
struct CaptureTask {
    /// Position in the flattened campaign order; doubles as the RNG
    /// stream index and the capture's slot in the time schedule.
    index: usize,
    i_alt: usize,
    i_seg: usize,
    /// Position within the segment's averaging cohort (a fault-plan
    /// coordinate).
    i_avg: usize,
}

/// What a finished capture contributes to the reduction.
#[derive(Debug)]
struct CaptureOut {
    spectrum: Spectrum,
    /// X/Y pair count of the executed trace, for the achieved-f_alt
    /// bookkeeping.
    pairs: usize,
    trace_duration: f64,
}

/// Everything a capture task reports back: the capture (or the terminal
/// error after retry exhaustion), attempts spent, impairments suffered.
#[derive(Debug)]
struct TaskResult {
    out: Result<CaptureOut, FaseError>,
    attempts: u32,
    faults: Vec<FaultRecord>,
}

/// Resolves the worker count: explicit request, then `FASE_THREADS`, then
/// the machine's available parallelism.
fn effective_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    // fase-lint: allow(D-env) -- FASE_THREADS selects the worker count only; campaign output is bit-identical for any value (PR 1 guarantee)
    if let Some(n) = std::env::var("FASE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    // fase-lint: allow(D-thread) -- the machine's parallelism affects scheduling, not results; task outputs reduce in task order
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Extracts a printable message from a worker panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker thread panicked".to_owned()
    }
}

/// Per-alternation-frequency setup shared by that frequency's capture
/// tasks: the calibrated micro-benchmark and the machine whose profile
/// cache the calibration warmed. Tasks borrow the machine, so every
/// capture starts from the identical calibrated state — and skips the
/// expensive op-level profiling pass. Every frequency of one
/// `(i_alt, pair)` shares the same machine.
#[derive(Debug)]
struct Prepared {
    machine: std::sync::Arc<fase_sysmodel::Machine>,
    bench: Alternation,
}

/// Shared machine-profiling and calibration results, reusable across the
/// campaigns of a sweep (or any caller-chosen scope).
///
/// Profiling an activity on a [`fase_sysmodel::Machine`] is the dominant
/// per-campaign setup cost, and it is deterministic: the same factory and
/// activity pair always produce the same profile, and the calibrated
/// iteration counts depend only on that profile and the alternation
/// frequency. The cache therefore keys the warmed machine by
/// `(i_alt, pair)` — one op-level profiling pass no matter how many
/// alternation frequencies or bands reuse it — and the fully calibrated
/// state by `(i_alt, f_alt, pair)`.
///
/// Entries are only valid for one `factory` closure: `i_alt` stands in
/// for the opaque factory, so a cache must never be shared between
/// campaigns whose factories build different systems for the same
/// `i_alt`. [`crate::run_sweep`] creates one cache per sweep (every band
/// shares the factory), which is the intended scope. Sharing changes no
/// bits: a hit returns exactly the machine and bench a rebuild would.
#[derive(Debug, Clone, Default)]
pub struct CalibrationCache {
    /// Profile-warmed machines keyed by `(i_alt, pair label)`.
    #[allow(clippy::type_complexity)]
    machines: std::sync::Arc<
        Mutex<BTreeMap<(usize, &'static str), std::sync::Arc<fase_sysmodel::Machine>>>,
    >,
    /// Calibrated per-frequency state keyed by
    /// `(i_alt, f_alt bit pattern, pair label)`.
    #[allow(clippy::type_complexity)]
    prepared: std::sync::Arc<Mutex<BTreeMap<(usize, u64, &'static str), std::sync::Arc<Prepared>>>>,
}

/// Returns the [`Prepared`] state for `i_alt`, building it on first use.
///
/// The build is deterministic (factory + calibration, no RNG), so it
/// does not matter which worker gets there first; the per-slot mutex
/// makes later tasks of the same frequency wait for it rather than
/// duplicate the profiling work. The [`CalibrationCache`] extends that
/// sharing beyond the campaign: a cached machine skips factory
/// construction and op-level profiling, and a cached `Prepared` skips
/// calibration entirely — with bit-identical results either way.
fn prepared_for<F>(
    slot: &Mutex<Option<std::sync::Arc<Prepared>>>,
    calibration: &CalibrationCache,
    i_alt: usize,
    f_alt: Hertz,
    pair: ActivityPair,
    factory: &F,
) -> std::sync::Arc<Prepared>
where
    F: Fn(usize) -> SimulatedSystem,
{
    let mut guard = slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(p) = &*guard {
        return std::sync::Arc::clone(p);
    }
    let key = (i_alt, f_alt.hz().to_bits(), pair.label());
    // Block expressions keep each map guard's life to the lookup itself.
    let cached = {
        calibration
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .cloned()
    };
    let p = match cached {
        Some(p) => p,
        None => {
            let mkey = (i_alt, pair.label());
            let base = {
                calibration
                    .machines
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .get(&mkey)
                    .cloned()
            };
            let (x, y) = pair.activities();
            // A warmed machine calibrates every later frequency of the
            // same (i_alt, pair) from its profile cache, unchanged.
            let warm = base.and_then(|machine| {
                Alternation::calibrated_warm(&machine, x, y, f_alt.hz())
                    .map(|bench| (machine, bench))
            });
            let (machine, bench) = warm.unwrap_or_else(|| {
                let mut machine = factory(i_alt).machine;
                let bench = pair.calibrated(&mut machine, f_alt.hz());
                let machine = std::sync::Arc::new(machine);
                calibration
                    .machines
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .entry(mkey)
                    .or_insert_with(|| std::sync::Arc::clone(&machine));
                (machine, bench)
            });
            let p = std::sync::Arc::new(Prepared { machine, bench });
            calibration
                .prepared
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(key, std::sync::Arc::clone(&p));
            p
        }
    };
    *guard = Some(std::sync::Arc::clone(&p));
    p
}

/// Executes one capture attempt: build the system, run the calibrated
/// benchmark on the pre-profiled machine, render the EM scene, apply any
/// injected impairment and transform the capture.
///
/// Everything the attempt touches — machine, RNG stream, capture start
/// time, fault realization — is derived from the task's own coordinates
/// (and the attempt number), so the result is identical no matter which
/// worker runs it or in what order.
#[allow(clippy::too_many_arguments)]
fn execute_capture<F>(
    task: CaptureTask,
    attempt: u32,
    fault: Option<FaultKind>,
    prepared: &Prepared,
    segment: &crate::sweep::SegmentSpec,
    factory: &F,
    seed: u64,
    synth_mode: SynthMode,
    recorder: &Recorder,
) -> Result<CaptureOut, FaseError>
where
    F: Fn(usize) -> SimulatedSystem,
{
    if fault == Some(FaultKind::TaskFailure) {
        return Err(FaseError::worker("injected task failure"));
    }
    let mut system = factory(task.i_alt);
    let stream = attempt_seed(seed, task.index, attempt);
    let mut rng = SmallRng::seed_from_u64(stream);
    let window = segment.window(task.index as f64 * segment.duration());
    // The calibration warmed both profiles, so the trace comes straight
    // from the shared machine.
    let trace = prepared
        .machine
        .profiled_alternation(&prepared.bench, segment.duration(), &mut rng)
        .ok_or_else(|| FaseError::worker("calibrated machine lacks the bench's profiles"))?;
    let pairs = (trace.len() / 2).max(1);
    let trace_duration = trace.duration();
    let refreshes = system.refresh.schedule(&trace, &mut rng);
    let ctx = RenderCtx::new(&trace, &refreshes, &window)
        .with_mode(synth_mode)
        .with_recorder(recorder.clone());
    let mut iq = system.scene.render(&window, &ctx);
    if let Some(kind) = fault {
        let mut fault_rng = SmallRng::seed_from_u64(mix_seed(stream, 0xFAB1_7FAB));
        kind.apply(&mut iq, &mut fault_rng);
    }
    let spectrum = SpectrumAnalyzer::default().spectrum(&window, &iq)?;
    Ok(CaptureOut {
        spectrum,
        pairs,
        trace_duration,
    })
}

/// Runs a campaign on a work-stealing pool of capture tasks.
///
/// The campaign is flattened into independent `(f_alt, sweep segment,
/// average)` capture tasks. Workers pull tasks from a shared atomic
/// cursor, so a slow capture never idles the rest of the pool. Each task
/// seeds its RNG from `mix_seed(seed, task_index)` and derives its capture
/// start time from its position in the flattened order, which makes the
/// assembled [`CampaignSpectra`] bit-identical for any worker count —
/// including one.
///
/// `factory(i_alt)` builds the [`SimulatedSystem`] a task measures
/// (usually the same preset with the same seed: the EM world is one
/// machine, while capture noise realizations differ per measurement).
///
/// # Errors
///
/// Propagates the first measurement error encountered; a panicking worker
/// surfaces as [`FaseError::Worker`] instead of poisoning the process.
pub fn run_campaign_with_options<F>(
    config: &CampaignConfig,
    pair: ActivityPair,
    factory: F,
    seed: u64,
    options: CampaignOptions,
) -> Result<CampaignSpectra, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let f_alts = config.alternation_frequencies();
    let plan = SweepPlan::new(
        config.band_lo(),
        config.band_hi(),
        config.resolution(),
        options.max_fft,
    );
    let segments = plan.segments();
    let averages = config.averages();

    // Flatten the campaign: alternation-major, then segment, then average
    // — the same order the sequential runner visits captures in.
    let mut tasks = Vec::with_capacity(f_alts.len() * segments.len() * averages);
    for i_alt in 0..f_alts.len() {
        for i_seg in 0..segments.len() {
            for i_avg in 0..averages {
                tasks.push(CaptureTask {
                    index: tasks.len(),
                    i_alt,
                    i_seg,
                    i_avg,
                });
            }
        }
    }

    let threads = effective_threads(options.threads).min(tasks.len()).max(1);
    let synth_mode = options.synth_mode;
    let max_attempts = options.max_attempts.max(1);
    let averaging = options.averaging;
    let fault_plan = options.fault_plan.as_ref();
    let recorder = &options.recorder;
    let cancel = &options.cancel;
    let _campaign = span!(recorder, "campaign");
    let next = AtomicUsize::new(0);
    // With no caller-supplied cache the sharing still spans this
    // campaign's alternation frequencies: one op-level profiling pass
    // instead of one per frequency.
    let calibration = options.calibration.clone().unwrap_or_default();
    let calibration = &calibration;
    let prepared: Vec<Mutex<Option<std::sync::Arc<Prepared>>>> =
        f_alts.iter().map(|_| Mutex::new(None)).collect();
    let results: Mutex<Vec<Option<TaskResult>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());

    let mut worker_panic: Option<String> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tasks = &tasks;
                let next = &next;
                let prepared = &prepared;
                let results = &results;
                let factory = &factory;
                let f_alts = &f_alts;
                let segments = &segments;
                scope.spawn(move || loop {
                    // Cooperative cancellation: stop before claiming the
                    // next task, so latency is bounded by one capture.
                    if cancel.is_cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&task) = tasks.get(i) else { break };
                    let prep = prepared_for(
                        &prepared[task.i_alt],
                        calibration,
                        task.i_alt,
                        f_alts[task.i_alt],
                        pair,
                        factory,
                    );
                    // Worker threads have their own span stack, so this
                    // aggregates as a root "capture" span (one entry per
                    // task, retries included).
                    let _capture = span!(recorder, "capture");
                    let t0 = recorder.is_active().then(fase_obs::monotonic_ns);
                    // Bounded retry: each attempt draws its own fault and
                    // RNG stream from the task coordinates, so the retry
                    // history is identical for any worker count.
                    let mut faults = Vec::new();
                    let mut attempt = 0u32;
                    let result = loop {
                        let fault = fault_plan
                            .and_then(|p| p.draw(task.i_alt, task.i_seg, task.i_avg, attempt));
                        if let Some(kind) = fault {
                            faults.push(FaultRecord {
                                f_alt: f_alts[task.i_alt],
                                segment: task.i_seg,
                                average: task.i_avg,
                                attempt,
                                tag: kind.tag().to_owned(),
                            });
                        }
                        let out = execute_capture(
                            task,
                            attempt,
                            fault,
                            &prep,
                            &segments[task.i_seg],
                            factory,
                            seed,
                            synth_mode,
                            recorder,
                        );
                        cancel.consume_capture();
                        attempt += 1;
                        match out {
                            Ok(out) => {
                                break TaskResult {
                                    out: Ok(out),
                                    attempts: attempt,
                                    faults,
                                }
                            }
                            Err(e) => {
                                // Exhausted budget or a fired token ends
                                // the retry burn; either way the capture
                                // reports as failed and the alternation
                                // degrades.
                                if attempt >= max_attempts || cancel.is_cancelled() {
                                    break TaskResult {
                                        out: Err(FaseError::capture_failed(
                                            f_alts[task.i_alt],
                                            task.i_seg,
                                            attempt,
                                            e.to_string(),
                                        )),
                                        attempts: attempt,
                                        faults,
                                    };
                                }
                            }
                        }
                    };
                    if let Some(t0) = t0 {
                        let elapsed = fase_obs::monotonic_ns().saturating_sub(t0);
                        recorder.observe_ns("specan.capture_ns", elapsed);
                    }
                    if result.out.is_ok() {
                        recorder.count("specan.captures", 1);
                    }
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(result);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                worker_panic.get_or_insert(panic_message(payload));
            }
        }
    });
    if let Some(msg) = worker_panic {
        return Err(FaseError::worker(msg));
    }

    // Reduce in task order (worker scheduling cannot reorder this):
    // average each segment's captures, stitch segments, trim to band. An
    // alternation frequency with an exhausted capture is dropped and the
    // campaign degrades to the survivors; the error surfaces only when
    // fewer than two survive.
    let _reduce = span!(recorder, "reduce");
    let outputs = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut outputs = outputs.into_iter();
    let mut health = CampaignHealth::new(f_alts.len());
    let mut labeled = Vec::with_capacity(f_alts.len());
    let mut first_failure: Option<FaseError> = None;
    for &f_alt in &f_alts {
        let mut segment_spectra = Vec::with_capacity(segments.len());
        let mut period_sum = 0.0f64;
        let mut period_count = 0usize;
        let mut alt_failure: Option<FaseError> = None;
        for _ in segments {
            let mut captures = Vec::with_capacity(averages);
            for _ in 0..averages {
                let result = match outputs.next().flatten() {
                    Some(result) => result,
                    // A hole in the results with a fired token is the
                    // cancellation itself, not a scheduler bug.
                    None if options.cancel.is_cancelled() => {
                        return Err(FaseError::cancelled(
                            options.cancel.cause().unwrap_or("cancelled"),
                        ))
                    }
                    None => return Err(FaseError::worker("capture task never ran")),
                };
                if result.attempts > 1 {
                    health.retried_tasks += 1;
                    health.total_retries += (result.attempts - 1) as usize;
                }
                health.faults.extend(result.faults);
                match result.out {
                    Ok(out) => {
                        period_sum += out.trace_duration / out.pairs as f64;
                        period_count += 1;
                        captures.push(out.spectrum);
                    }
                    Err(e @ FaseError::CaptureFailed { .. }) => {
                        alt_failure.get_or_insert(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            if alt_failure.is_none() {
                segment_spectra.push(average_cohort(
                    &captures,
                    averaging,
                    &mut health.quarantined,
                )?);
            }
        }
        if let Some(e) = alt_failure {
            first_failure.get_or_insert_with(|| e.clone());
            health.dropped.push(DroppedAlternation { f_alt, error: e });
            continue;
        }
        let stitched = Spectrum::stitch(segment_spectra.iter())?;
        let spectrum = stitched.band(config.band_lo(), config.band_hi())?;
        let measured = Hertz(period_count as f64 / period_sum);
        labeled.push(LabeledSpectrum {
            f_alt: measured,
            spectrum,
        });
    }
    health.surviving = labeled.len();
    record_health(recorder, &health);
    if labeled.len() < 2 {
        return Err(first_failure.unwrap_or_else(|| {
            FaseError::invalid_spectra("fewer than two alternation frequencies survived")
        }));
    }
    Ok(CampaignSpectra::new(config.clone(), labeled)?.with_health(health))
}

/// Runs a campaign on the capture-task pool with default options (fast
/// synthesis, thread count from `FASE_THREADS` or the machine).
///
/// See [`run_campaign_with_options`] for the execution model.
///
/// # Errors
///
/// Propagates the first measurement error encountered.
pub fn run_campaign_parallel<F>(
    config: &CampaignConfig,
    pair: ActivityPair,
    factory: F,
    seed: u64,
) -> Result<CampaignSpectra, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    run_campaign_with_options(config, pair, factory, seed, CampaignOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_core::Fase;
    use fase_emsim::SimulatedSystem;

    /// A fast, narrow campaign around the demo regulator for smoke tests.
    fn small_config() -> CampaignConfig {
        CampaignConfig::builder()
            .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
            .resolution(Hertz(200.0))
            .alternation(Hertz::from_khz(30.0), Hertz(2_000.0), 5)
            .averages(3)
            .build()
            .unwrap()
    }

    fn demo_system(seed: u64) -> SimulatedSystem {
        let mut system = SimulatedSystem::intel_i7_desktop(seed);
        // Keep the preset machine; the scene is fine as-is.
        system.machine = fase_sysmodel::Machine::core_i7();
        system
    }

    #[test]
    fn campaign_produces_consistent_spectra() {
        let mut runner =
            CampaignRunner::new(demo_system(5), ActivityPair::LdmLdl1, 11).with_max_fft(1 << 12);
        let config = small_config();
        let spectra = runner.run(&config).unwrap();
        assert_eq!(spectra.len(), 5);
        let s0 = spectra.spectrum(0);
        assert_eq!(s0.resolution(), Hertz(200.0));
        assert!((s0.start().hz() - 250_000.0).abs() < 200.0);
        // Achieved f_alt close to requested.
        for (label, requested) in spectra
            .spectra()
            .iter()
            .zip(config.alternation_frequencies())
        {
            let err = (label.f_alt - requested).hz().abs() / requested.hz();
            assert!(err < 0.03, "achieved {} vs {requested}", label.f_alt);
        }
    }

    #[test]
    fn regulator_carrier_detected_in_band() {
        // 250–400 kHz contains the 315 kHz DRAM regulator (memory-
        // modulated) and the 332 kHz core regulator (not memory-modulated).
        let mut runner =
            CampaignRunner::new(demo_system(6), ActivityPair::LdmLdl1, 12).with_max_fft(1 << 12);
        let spectra = runner.run(&small_config()).unwrap();
        let report = Fase::default().analyze(&spectra).unwrap();
        let dram_reg = report.carrier_near(Hertz::from_khz(315.0), Hertz(1_500.0));
        assert!(dram_reg.is_some(), "{report}");
    }

    #[test]
    fn single_spectrum_shape() {
        // Idle memory (LDL1/LDL1): the refresh comb is clean and strong.
        let mut runner =
            CampaignRunner::new(demo_system(7), ActivityPair::Ldl1Ldl1, 13).with_max_fft(1 << 12);
        // 125 Hz resolution: the refresh line is narrow, so a finer grid
        // keeps its bin at full power while the broadband (rolling-noise)
        // floor drops with the bin width — a sharper contrast measurement.
        let s = runner
            .single_spectrum(
                Hertz::from_khz(30.0),
                Hertz::from_khz(100.0),
                Hertz::from_khz(160.0),
                Hertz(125.0),
                2,
            )
            .unwrap();
        assert_eq!(s.resolution(), Hertz(125.0));
        assert!(s.len() >= 480);
        // Peak-bin search around the nominal line so scalloping (the line
        // straddling two 500 Hz bins) does not understate it.
        let (_, peak) = s
            .band(Hertz(127_000.0), Hertz(129_000.0))
            .unwrap()
            .peak_bin();
        assert!(
            peak > 10.0 * s.median_power(),
            "refresh fundamental missing: {} vs median {}",
            peak,
            s.median_power()
        );
    }

    #[test]
    fn runner_accessors_and_calibration() {
        let mut runner = CampaignRunner::new(demo_system(9), ActivityPair::LdmLdl1, 14);
        assert_eq!(runner.pair(), ActivityPair::LdmLdl1);
        assert!(runner.system().scene.source_count() > 5);
        let bench = runner.calibrate(Hertz::from_khz(43.3));
        assert!(bench.x_count() >= 1 && bench.y_count() > bench.x_count());
        assert_eq!(bench.label(), "LDM/LDL1");
    }

    #[test]
    fn parallel_campaign_matches_detection() {
        let config = small_config();
        let spectra =
            super::run_campaign_parallel(&config, ActivityPair::LdmLdl1, |_| demo_system(6), 77)
                .unwrap();
        assert_eq!(spectra.len(), 5);
        let report = Fase::default().analyze(&spectra).unwrap();
        assert!(
            report
                .carrier_near(Hertz::from_khz(315.66), Hertz(1_500.0))
                .is_some(),
            "{report}"
        );
    }

    #[test]
    fn pooled_campaign_is_deterministic_across_thread_counts() {
        // The flattened task schedule derives every capture's RNG stream
        // and start time from the task index alone, so the reduction must
        // be bit-for-bit identical no matter how many workers raced over
        // the queue — and across repeated runs with the same seed.
        let config = small_config();
        let run = |threads: usize| {
            run_campaign_with_options(
                &config,
                ActivityPair::LdmLdl1,
                |_| demo_system(6),
                77,
                CampaignOptions {
                    threads: Some(threads),
                    ..CampaignOptions::default()
                },
            )
            .unwrap()
        };
        let sequential = run(1);
        let pooled = run(4);
        assert_eq!(sequential, pooled, "threads=1 vs threads=4 diverged");
        assert_eq!(sequential, run(1), "same seed, same thread count diverged");
    }

    #[test]
    fn sequential_campaign_records_observability() {
        let recorder = Recorder::detached();
        let mut runner = CampaignRunner::new(demo_system(5), ActivityPair::LdmLdl1, 11)
            .with_max_fft(1 << 12)
            .with_recorder(recorder.clone());
        let spectra = runner.run(&small_config()).unwrap();
        assert_eq!(spectra.len(), 5);
        let snap = recorder.snapshot();
        // 5 alternation frequencies × 1 segment × 3 averages.
        assert_eq!(snap.counters.get("specan.captures"), Some(&15));
        assert_eq!(snap.counters.get("specan.capture_retries"), Some(&0));
        assert_eq!(snap.counters.get("specan.dropped_alternations"), Some(&0));
        assert_eq!(snap.counters.get("emsim.renders"), Some(&15));
        for path in ["campaign", "campaign/capture", "campaign/capture/synth"] {
            assert!(snap.spans.contains_key(path), "missing span {path}");
        }
        let hist = snap.histograms.get("specan.capture_ns").unwrap();
        assert_eq!(hist.count, 15);
        assert!(hist.sum_ns > 0);
    }

    #[test]
    fn pooled_campaign_records_observability() {
        let recorder = Recorder::detached();
        let spectra = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                threads: Some(2),
                recorder: recorder.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(spectra.len(), 5);
        let snap = recorder.snapshot();
        assert_eq!(snap.counters.get("specan.captures"), Some(&15));
        // Workers run on their own threads, so captures aggregate as root
        // spans next to the reducing main thread's campaign span.
        for path in ["campaign", "campaign/reduce", "capture", "capture/synth"] {
            assert!(snap.spans.contains_key(path), "missing span {path}");
        }
        assert_eq!(snap.spans.get("capture").unwrap().count, 15);
        assert_eq!(snap.histograms.get("specan.capture_ns").unwrap().count, 15);
    }

    #[test]
    fn worker_panic_surfaces_as_error() {
        let config = small_config();
        let err = run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |i| {
                assert!(i < 2, "synthetic factory failure");
                demo_system(6)
            },
            77,
            CampaignOptions {
                threads: Some(2),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FaseError::Worker(msg) if msg.contains("synthetic factory failure")),
            "expected Worker error, got {err:?}"
        );
    }

    #[test]
    fn pre_cancelled_campaign_returns_cancelled() {
        let token = crate::CancelToken::new();
        token.cancel();
        let err = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                threads: Some(2),
                cancel: token,
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FaseError::Cancelled(msg) if msg.contains("cancelled by caller")),
            "expected Cancelled, got {err:?}"
        );
    }

    #[test]
    fn exhausted_capture_budget_cancels_mid_campaign() {
        // 15 captures planned; a budget of 4 stops the workers early and
        // the reduce reports the budget as the cause.
        let err = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                threads: Some(1),
                cancel: crate::CancelToken::new().with_capture_budget(4),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FaseError::Cancelled(msg) if msg.contains("capture budget")),
            "expected Cancelled(budget), got {err:?}"
        );
    }

    #[test]
    fn inert_token_leaves_campaign_bit_identical() {
        let config = small_config();
        let plain =
            run_campaign_parallel(&config, ActivityPair::LdmLdl1, |_| demo_system(6), 77).unwrap();
        let with_token = run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                cancel: crate::CancelToken::never(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain, with_token);
    }

    #[test]
    fn sequential_pre_cancelled_campaign_errors() {
        // Fewer than two spectra exist when a pre-fired token is seen, so
        // the sequential runner cannot degrade and must surface the cause.
        let token = crate::CancelToken::new();
        token.cancel();
        let mut runner = CampaignRunner::new(demo_system(5), ActivityPair::LdmLdl1, 11)
            .with_max_fft(1 << 12)
            .with_cancel(token);
        let err = runner.run(&small_config()).unwrap_err();
        assert!(
            matches!(&err, FaseError::Cancelled(msg) if msg.contains("cancelled by caller")),
            "expected Cancelled, got {err:?}"
        );
    }

    #[test]
    fn sequential_capture_budget_degrades_to_survivors() {
        // 5 alternation frequencies × 3 averages = 15 captures planned; a
        // budget of 6 completes exactly two alternations, and the campaign
        // degrades to them instead of failing outright.
        let mut runner = CampaignRunner::new(demo_system(5), ActivityPair::LdmLdl1, 11)
            .with_max_fft(1 << 12)
            .with_cancel(crate::CancelToken::new().with_capture_budget(6));
        let spectra = runner.run(&small_config()).unwrap();
        assert_eq!(spectra.len(), 2);
        let health = spectra.health().unwrap();
        assert_eq!(health.surviving, 2);
        assert_eq!(health.dropped.len(), 3);
        for dropped in &health.dropped {
            assert!(
                matches!(&dropped.error, FaseError::Cancelled(msg) if msg.contains("capture budget")),
                "expected Cancelled(budget), got {:?}",
                dropped.error
            );
        }
    }

    #[test]
    fn sequential_inert_token_is_bit_identical() {
        // The default token never fires and must not perturb the campaign:
        // untokened, never(), and an unfired live token all agree.
        let config = small_config();
        let run_with = |cancel: Option<crate::CancelToken>| {
            let mut runner = CampaignRunner::new(demo_system(5), ActivityPair::LdmLdl1, 11)
                .with_max_fft(1 << 12);
            if let Some(token) = cancel {
                runner = runner.with_cancel(token);
            }
            runner.run(&config).unwrap()
        };
        let plain = run_with(None);
        assert_eq!(plain, run_with(Some(crate::CancelToken::never())));
        assert_eq!(plain, run_with(Some(crate::CancelToken::new())));
    }

    #[test]
    fn refresh_comb_weakens_under_load() {
        // §4.2: the refresh carrier is strongest when memory is idle and
        // weakest under continuous memory activity.
        let measure = |pair: ActivityPair, seed: u64| -> f64 {
            let mut runner = CampaignRunner::new(demo_system(8), pair, seed).with_max_fft(1 << 12);
            let s = runner
                .single_spectrum(
                    Hertz::from_khz(30.0),
                    Hertz::from_khz(120.0),
                    Hertz::from_khz(140.0),
                    Hertz(500.0),
                    2,
                )
                .unwrap();
            s.sample(Hertz(128_000.0)).unwrap()
        };
        let idle = measure(ActivityPair::Ldl1Ldl1, 21);
        let busy = measure(ActivityPair::LdmLdm, 22);
        assert!(
            idle > 4.0 * busy,
            "refresh harmonic should weaken under load: idle {idle} vs busy {busy}"
        );
    }
}
