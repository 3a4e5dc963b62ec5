//! `serve-mixed`: an in-process `fase-serve` under a closed-loop mix of
//! cached and fresh requests.
//!
//! Setup starts a server with default workers on a fresh cache directory
//! and primes 8 plans (4 tenants × 2 bodies from [`LoadSpec::request_for`]).
//! Then `nproc` client lanes each send one request at a time, tenants
//! interleaved: 95% repeat a primed plan (cache reads), and every 20th
//! request carries fresh seeds (capture plus cache writes). Every reply must be a non-degraded
//! `200`; a repeated plan's report must equal its primed report byte for
//! byte.
//!
//! The traced run splits its budget: the first half untraced, the second
//! with the process-wide recorder on. Layers come from the second half:
//! `serve.request_ns` and the sweep spans from the detached recorder the
//! benchmark hands the server, the transform spans from the global one.

use crate::calibrate::cold_calibrations;
use crate::layers::{overhead_pct, Layers};
use crate::spans::SpanTotals;
use crate::{env, ms_since, stats, Args, Budget, Outcome, SETUP_REPEATS};
use fase_dsp::rng::mix_seed;
use fase_obs::Recorder;
use fase_serve::http::client_request;
use fase_serve::protocol::system_factory;
use fase_serve::{LoadSpec, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Tenants interleaved across requests.
pub const TENANTS: usize = 4;

/// Primed bodies per tenant (8 plans in all).
pub const PLANS_PER_TENANT: usize = 2;

/// One request in every `FRESH_EVERY` carries fresh seeds (5%).
pub const FRESH_EVERY: usize = 20;

/// Tail percentile reported as `op_tail_ms` (2000+ requests; the top
/// 0.5% lies inside the 5% of fresh requests).
pub const TAIL_PCT: f64 = 99.5;

/// One finished request.
#[derive(Debug, Clone, Copy)]
struct Reply {
    latency_ms: f64,
    ok: bool,
    hits: usize,
    misses: usize,
}

/// The running server and what setup primed into it.
struct Primed {
    server: Server,
    addr: String,
    recorder: Recorder,
    dir: PathBuf,
    /// First calibration of the served machine, milliseconds.
    calibrate_ms: f64,
    /// (body, primed report JSON) per plan, tenant-major.
    plans: Vec<(String, String)>,
}

fn field(body: &str, key: &str) -> Option<usize> {
    let rest = body.split_once(&format!("\"{key}\":"))?.1;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

fn report_of(body: &str) -> Option<&str> {
    body.split_once("\"report\":").map(|(_, r)| r)
}

/// Sends one request; `expect` is the primed report a repeat must match.
fn send(addr: &str, body: &str, expect: Option<&str>) -> Reply {
    let t = Instant::now();
    let reply = client_request(addr, "POST", "/v1/sweep", body);
    let latency_ms = ms_since(t);
    let Ok(reply) = reply else {
        return Reply {
            latency_ms,
            ok: false,
            hits: 0,
            misses: 0,
        };
    };
    let hits = field(&reply.body, "cache_hits").unwrap_or(0);
    let misses = field(&reply.body, "cache_misses").unwrap_or(0);
    let ok = reply.status == 200
        && reply.body.contains("\"degraded\":false")
        && expect.is_none_or(|e| report_of(&reply.body) == Some(e));
    Reply {
        latency_ms,
        ok,
        hits,
        misses,
    }
}

/// Cache directory of setup repetition `rep`; the parent is removed
/// again once no run uses it.
fn work_dir(root: &Path, rep: usize) -> PathBuf {
    root.join("perfbench")
        .join(".work")
        .join(format!("serve-{}-{rep}", std::process::id()))
}

/// Drains and stops the server, then deletes its cache directory.
fn stop(primed: Primed) {
    primed.server.join();
    let _ = std::fs::remove_dir_all(&primed.dir);
    if let Some(parent) = primed.dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Setup: first calibration of the served machine, fresh cache
/// directory, server start, 8 primed plans.
fn setup(seed: u64, root: &Path, rep: usize) -> Result<Primed, String> {
    let spec = LoadSpec {
        seed: mix_seed(seed, 1),
        ..LoadSpec::default()
    };
    let sample = spec.request_for(0, 0);
    let make = system_factory(&sample.system).ok_or("unknown served system")?;
    let calibrate_ms = cold_calibrations(vec![make(0).machine], sample.f_alt1)?[0];
    let dir = work_dir(root, rep);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let recorder = Recorder::detached();
    let server = Server::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        recorder: recorder.clone(),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let mut primed = Primed {
        server,
        addr,
        recorder,
        dir,
        calibrate_ms,
        plans: Vec::new(),
    };
    for tenant in 0..TENANTS {
        for index in 0..PLANS_PER_TENANT {
            let body = spec.request_for(tenant, index).to_json();
            let reply = client_request(&primed.addr, "POST", "/v1/sweep", &body);
            let report = match &reply {
                Ok(r) if r.status == 200 && r.body.contains("\"degraded\":false") => {
                    report_of(&r.body).map(str::to_owned)
                }
                _ => None,
            };
            let Some(report) = report else {
                stop(primed);
                return Err(format!("priming plan {tenant}/{index} failed: {reply:?}"));
            };
            primed.plans.push((body, report));
        }
    }
    Ok(primed)
}

/// Whether request `i` carries fresh seeds: the middle request of every
/// block of [`FRESH_EVERY`]. Fresh requests lie 20 requests apart, far
/// more than one capture takes, so they do not overlap and neither the
/// tail nor the heap peak depends on two captures happening to coincide.
fn is_fresh(i: usize) -> bool {
    i % FRESH_EVERY == FRESH_EVERY / 2
}

/// One closed loop of `nproc` client lanes until `budget` runs out.
fn closed_loop(
    primed: &Primed,
    seed: u64,
    budget: &Budget,
    first: usize,
) -> Result<Vec<Reply>, String> {
    let fresh = LoadSpec {
        seed: mix_seed(seed, 2),
        ..LoadSpec::default()
    };
    let next = AtomicUsize::new(first);
    let lanes = env::nproc();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                s.spawn(|| {
                    let mut replies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !budget.more(i - first) {
                            break replies;
                        }
                        let tenant = i % TENANTS;
                        let reply = if is_fresh(i) {
                            send(&primed.addr, &fresh.request_for(tenant, i).to_json(), None)
                        } else {
                            let pick = mix_seed(seed, i as u64) as usize % PLANS_PER_TENANT;
                            let (body, report) = &primed.plans[tenant * PLANS_PER_TENANT + pick];
                            send(&primed.addr, body, Some(report))
                        };
                        replies.push(reply);
                    }
                })
            })
            .collect();
        let mut replies = Vec::new();
        for handle in handles {
            replies.extend(handle.join().map_err(|_| "a client lane panicked")?);
        }
        Ok(replies)
    })
}

/// The op loop: untraced replies, then (traced runs only) the replies
/// sent with the process-wide recorder on.
fn measure(primed: &Primed, args: &Args) -> Result<(Vec<Reply>, Vec<Reply>), String> {
    if !args.trace {
        let budget = Budget::new(args, 1, TAIL_PCT);
        return Ok((closed_loop(primed, args.seed, &budget, 0)?, Vec::new()));
    }
    let half = Args {
        seconds: args.seconds / 2.0,
        ops: args.ops.map(|n| n.div_ceil(2)),
        ..args.clone()
    };
    let untraced = closed_loop(primed, args.seed, &Budget::new(&half, 1, TAIL_PCT), 0)?;
    primed.recorder.reset();
    fase_obs::reset();
    fase_obs::enable();
    let traced = closed_loop(
        primed,
        args.seed,
        &Budget::new(&half, 1, TAIL_PCT),
        untraced.len(),
    );
    fase_obs::disable();
    Ok((untraced, traced?))
}

/// Runs the workload.
pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        tail_pct: TAIL_PCT,
        ..Outcome::default()
    };
    let mut primed = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = primed.take() {
            stop(previous);
        }
        let t = Instant::now();
        primed = Some(setup(args.seed, root, rep)?);
        outcome.setups_s.push(t.elapsed().as_secs_f64());
    }
    let primed = primed.ok_or("no setup ran")?;

    let loop_start = Instant::now();
    let measured = measure(&primed, args);
    outcome.loop_s = loop_start.elapsed().as_secs_f64();
    let server_snap = primed.recorder.snapshot();
    let calibrate_ms = primed.calibrate_ms;
    stop(primed);
    let (untraced, traced) = measured?;

    let all: Vec<&Reply> = untraced.iter().chain(&traced).collect();
    outcome.latencies_ms = all.iter().map(|r| r.latency_ms).collect();
    outcome.failed = all.iter().filter(|r| !r.ok).count();
    let fresh = all.iter().filter(|r| r.misses > 0).count();

    if args.trace {
        let n = traced.len().max(1) as f64;
        let latencies = |rs: &[Reply]| rs.iter().map(|r| r.latency_ms).collect::<Vec<_>>();
        let exec = server_snap.histograms.get("serve.request_ns");
        let exec_ms = exec.map_or(0.0, |h| h.sum_ns as f64 / 1e6 / h.count.max(1) as f64);
        let labeled = |prefix: &str| -> u64 {
            server_snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| *v)
                .sum()
        };
        let spans = SpanTotals::from(&server_snap).plus(SpanTotals::from(&fase_obs::snapshot()));
        let (hits, misses) = traced
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.hits, m + r.misses));
        outcome.layers = Layers {
            calibrate_ms,
            campaign_ms: spans.campaign_ms / n,
            synth_ms: spans.synth_ms / n,
            transform_ms: spans.transform_ms / n,
            reduce_ms: spans.reduce_ms / n,
            score_ms: spans.score_ms / n,
            detect_ms: spans.detect_ms / n,
            group_ms: spans.group_ms / n,
            detections: spans.detections as f64 / n,
            carriers: spans.carriers as f64 / n,
            detect_yield: spans.carriers as f64 / spans.detections.max(1) as f64,
            exec_ms,
            overhead_ms: stats::mean(&latencies(&traced)) - exec_ms,
            cache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            rejected: labeled("serve.rejected.") as f64,
            degraded: labeled("serve.degraded.") as f64,
            // The merge runs inside the server's sweep, outside any band
            // span: it lands here rather than in `core.merge_ms`.
            unattributed_ms: exec_ms - spans.sweep_band_ms / n,
            trace_overhead_pct: overhead_pct(&latencies(&untraced), &latencies(&traced)),
            ..Layers::default()
        };
    }
    outcome.detail = format!(", \"fresh_requests\": {fresh}, \"lanes\": {}", env::nproc());
    Ok(outcome)
}
