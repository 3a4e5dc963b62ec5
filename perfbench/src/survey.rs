//! `survey-cold`: the paper's campaign as a user runs it.
//!
//! One caller runs [`run_sweep`] over 0.05–4 MHz at 50 Hz resolution in
//! 8 bands, 5 alternations (30 kHz, step 2 kHz), 2 averages, with no
//! capture cache. Ops rotate through the i7, Turion, i3 and P3M presets;
//! every op gets fresh scene and sweep seeds derived from the workload
//! seed. Each merged report must name its preset's memory regulator (the
//! DRAM-domain switching regulator: i7 315.7 kHz, Turion 389.1 kHz, i3
//! 417.3 kHz, P3M 247.2 kHz) and must not name an AM station or an FM
//! regulator.
//!
//! The traced run rebuilds every op from public calls
//! ([`crate::rebuild`]), timing each stage, and requires the rebuilt
//! report's JSON to equal the untraced `run_sweep` report byte for byte.

use crate::calibrate::{cold_calibrations, PAIR};
use crate::layers::Layers;
use crate::rebuild::{traced_sweep, Stages};
use crate::spans::SpanTotals;
use crate::{ms_since, stats, Args, Budget, Outcome, SETUP_REPEATS};
use fase_core::FaseReport;
use fase_dsp::rng::mix_seed;
use fase_dsp::Hertz;
use fase_emsim::source::SourceKind;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_sweep, SweepConfig, SweepOptions};
use fase_sysmodel::domains::Domain;
use std::time::Instant;

/// Builds a preset's simulated system from a scene seed.
type Factory = fn(u64) -> SimulatedSystem;

/// The presets ops rotate through, with the factories that build them.
pub const PRESETS: [(&str, Factory); 4] = [
    ("i7", SimulatedSystem::intel_i7_desktop),
    ("turion", SimulatedSystem::amd_turion_laptop),
    ("i3", SimulatedSystem::intel_i3_laptop),
    ("p3m", SimulatedSystem::pentium3m_laptop),
];

/// Tail percentile reported as `op_tail_ms`: the slowest preset is a
/// quarter of the ops, so p75 would sit on the seam between presets; at
/// 100+ ops p90 lies inside the slowest preset's cluster.
pub const TAIL_PCT: f64 = 90.0;

/// A reported carrier within this distance of a source names it.
const NAME_TOL_HZ: f64 = 500.0;

/// The paper-scale sweep every op runs.
pub fn sweep_config() -> SweepConfig {
    SweepConfig {
        lo: Hertz::from_khz(50.0),
        hi: Hertz::from_mhz(4.0),
        resolution: Hertz(50.0),
        bands: 8,
        overlap: Hertz::from_khz(1.0),
        f_alt1: Hertz::from_khz(30.0),
        f_delta: Hertz::from_khz(2.0),
        alternations: 5,
        averages: 2,
    }
}

/// What a preset's report must and must not contain.
#[derive(Debug, Clone)]
struct Expect {
    regulators: Vec<(String, f64)>,
    forbidden: Vec<(String, f64)>,
    /// Fundamentals of every activity-modulated source that is not
    /// forbidden: a carrier on one of their harmonics is that source's,
    /// even where it coincides with a forbidden one (the i3's 640 kHz AM
    /// station sits on the fifth harmonic of its 128 kHz refresh).
    modulated: Vec<f64>,
}

fn expectations(system: &SimulatedSystem, config: &SweepConfig) -> Result<Expect, String> {
    let truth = system.scene.ground_truth();
    let in_span = |f: f64| f >= config.lo.hz() && f <= config.hi.hz();
    let regulators: Vec<(String, f64)> = truth
        .iter()
        .filter(|s| {
            s.kind == SourceKind::SwitchingRegulator && s.modulated_by == Some(Domain::Dram)
        })
        .filter(|s| s.name.contains("memory regulator") && in_span(s.fundamental.hz()))
        .map(|s| (s.name.clone(), s.fundamental.hz()))
        .collect();
    if regulators.is_empty() {
        return Err("preset has no DRAM-domain memory regulator in span".to_owned());
    }
    let is_forbidden =
        |kind: SourceKind| matches!(kind, SourceKind::AmBroadcast | SourceKind::FmRegulator);
    let forbidden = truth
        .iter()
        .filter(|s| is_forbidden(s.kind) && in_span(s.fundamental.hz()))
        .map(|s| (s.name.clone(), s.fundamental.hz()))
        .collect();
    // A forbidden source excuses nothing: the FM regulator is
    // load-modulated, yet a carrier on it must still fail the report.
    let modulated = truth
        .iter()
        .filter(|s| !is_forbidden(s.kind) && s.modulated_by.is_some())
        .filter(|s| s.fundamental.hz() > 0.0)
        .map(|s| s.fundamental.hz())
        .collect();
    Ok(Expect {
        regulators,
        forbidden,
        modulated,
    })
}

fn check(report: &FaseReport, expect: &Expect) -> Result<(), String> {
    if report.is_degraded() {
        return Err("report is degraded".to_owned());
    }
    let near = |f: f64| {
        report
            .carriers()
            .iter()
            .any(|c| (c.frequency().hz() - f).abs() <= NAME_TOL_HZ)
    };
    if let Some((name, f)) = expect.regulators.iter().find(|(_, f)| !near(*f)) {
        return Err(format!("{name} at {f:.1} Hz not reported"));
    }
    let harmonic_of_modulated = |f: f64| {
        expect.modulated.iter().any(|&f0| {
            let n = (f / f0).round();
            n >= 1.0 && (f - n * f0).abs() <= NAME_TOL_HZ
        })
    };
    let named = |f: f64| near(f) && !harmonic_of_modulated(f);
    match expect.forbidden.iter().find(|(_, f)| named(*f)) {
        Some((name, f)) => Err(format!("reported {name} at {f:.1} Hz")),
        None => Ok(()),
    }
}

/// One op's inputs: preset, scene seed, sweep seed.
fn op_inputs(seed: u64, op: usize) -> (usize, u64, u64) {
    let preset = op % PRESETS.len();
    let scene_seed = mix_seed(seed, 2 * op as u64);
    let sweep_seed = mix_seed(seed, 2 * op as u64 + 1);
    (preset, scene_seed, sweep_seed)
}

/// Setup: build every preset, derive its checks, and time each
/// preset's first calibration.
fn setup(config: &SweepConfig) -> Result<(Vec<Expect>, Vec<f64>), String> {
    let systems: Vec<SimulatedSystem> = PRESETS.iter().map(|(_, make)| make(0)).collect();
    let expects = systems
        .iter()
        .map(|system| expectations(system, config))
        .collect::<Result<Vec<_>, _>>()?;
    let machines = systems.into_iter().map(|s| s.machine).collect();
    Ok((expects, cold_calibrations(machines, config.f_alt1.hz())?))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = sweep_config();
    let mut outcome = Outcome {
        tail_pct: TAIL_PCT,
        ..Outcome::default()
    };
    let mut setup_result = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        setup_result = Some(setup(&config)?);
        outcome.setups_s.push(t.elapsed().as_secs_f64());
    }
    let (expects, calibrate_ms) = setup_result.ok_or("no setup ran")?;

    let budget = Budget::new(args, PRESETS.len(), TAIL_PCT);
    let loop_start = Instant::now();
    let mut traced_ms = Vec::new();
    let mut sum = Stages::default();
    let mut op = 0;
    if args.trace {
        fase_obs::reset();
    }
    while budget.more(op) {
        let (preset, scene_seed, sweep_seed) = op_inputs(args.seed, op);
        let (name, make) = PRESETS[preset];
        let factory = move |_: usize| make(scene_seed);
        let system_id = format!("{name}#{scene_seed:016x}");
        let t = Instant::now();
        let result = run_sweep(
            &config,
            &system_id,
            PAIR,
            factory,
            sweep_seed,
            &SweepOptions::default(),
        );
        outcome.latencies_ms.push(ms_since(t));
        op += 1;
        let verdict = result
            .map_err(|e| e.to_string())
            .and_then(|o| check(&o.report, &expects[preset]).map(|()| o.report));
        let report = match verdict {
            Ok(report) => report,
            Err(e) => {
                eprintln!("survey-cold op {}: {name}: {e}", op - 1);
                outcome.failed += 1;
                continue;
            }
        };
        if args.trace {
            fase_obs::enable();
            let t = Instant::now();
            let traced = traced_sweep(
                &config,
                &factory,
                sweep_seed,
                &SweepOptions::default().campaign,
            );
            let elapsed = ms_since(t);
            fase_obs::disable();
            match traced {
                Ok((rebuilt, stages)) if rebuilt.to_json() == report.to_json() => {
                    traced_ms.push(elapsed);
                    sum.add(&stages);
                }
                Ok(_) => {
                    eprintln!("survey-cold op {}: traced report differs", op - 1);
                    outcome.failed += 1;
                }
                Err(e) => {
                    eprintln!("survey-cold op {}: traced rebuild: {e}", op - 1);
                    outcome.failed += 1;
                }
            }
        }
    }
    outcome.loop_s = loop_start.elapsed().as_secs_f64();

    if args.trace {
        let spans = SpanTotals::from(&fase_obs::snapshot());
        outcome.layers = Layers::from_rebuild(
            &calibrate_ms,
            &sum,
            &spans,
            &outcome.latencies_ms,
            &traced_ms,
        );
    }
    let by_preset: Vec<f64> = (0..PRESETS.len())
        .map(|p| {
            let own: Vec<f64> = outcome
                .latencies_ms
                .iter()
                .skip(p)
                .step_by(PRESETS.len())
                .copied()
                .collect();
            stats::percentile(&own, 50.0)
        })
        .collect();
    outcome.detail =
        format!(", \"calibrate_ms\": {calibrate_ms:?}, \"preset_p50_ms\": {by_preset:?}");
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_core::{Carrier, Harmonic};
    use fase_dsp::Dbm;

    fn expect(preset: &str) -> Expect {
        let (_, make) = PRESETS.iter().find(|(name, _)| *name == preset).unwrap();
        expectations(&make(0), &sweep_config()).unwrap()
    }

    fn report(hz: &[f64]) -> FaseReport {
        let carrier = |f: f64| {
            let h = vec![Harmonic { h: 1, score: 100.0 }];
            Carrier::new(Hertz(f), Dbm(-100.0), Dbm(-110.0), h)
        };
        FaseReport::from_carriers(hz.iter().map(|&f| carrier(f)).collect(), 0.01)
    }

    fn regulators(e: &Expect) -> Vec<f64> {
        e.regulators.iter().map(|(_, f)| *f).collect()
    }

    #[test]
    fn turion_fm_regulator_is_a_failed_op() {
        let e = expect("turion");
        let ok = regulators(&e);
        assert!(check(&report(&ok), &e).is_ok());
        let mut with_fm = ok;
        with_fm.push(280_870.0);
        let err = check(&report(&with_fm), &e).unwrap_err();
        assert!(err.contains("280"), "{err}");
    }

    #[test]
    fn am_station_is_a_failed_op() {
        let e = expect("i7");
        let (_, station) = e
            .forbidden
            .iter()
            .find(|(_, f)| (*f - 1_340_000.0).abs() < 1.0)
            .cloned()
            .unwrap();
        let mut with_station = regulators(&e);
        with_station.push(station - 330.0);
        assert!(check(&report(&with_station), &e).is_err());
    }

    #[test]
    fn i3_station_on_refresh_harmonic_passes() {
        let e = expect("i3");
        assert!(e.forbidden.iter().any(|(_, f)| *f == 640_000.0));
        let mut with_refresh = regulators(&e);
        with_refresh.extend([128_000.0, 640_000.0]);
        assert!(check(&report(&with_refresh), &e).is_ok());
    }
}
