//! The FASE performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <survey-cold|population|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1> [--ops <n>]
//! ```
//!
//! Each workload is a closed loop of user-level operations ("ops": one
//! merged sweep report, one fused scene verdict, or one HTTP reply),
//! generated from `--seed` and checked for correctness as they complete.
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer breakdown, measured by
//! timing the workspace's public calls from here and reading the spans
//! the crates already record. The line before it describes the run's
//! environment and workload details. `--ops` fixes the op count instead
//! of the time budget (the smoke test uses it). See `perfbench/README.md`.

mod calibrate;
mod env;
mod heap;
mod layers;
mod population;
mod rebuild;
mod serve;
mod spans;
mod stats;
mod survey;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_heap_mb", "MB"),
];

#[global_allocator]
static HEAP: heap::CountingAlloc = heap::CountingAlloc;

/// Setups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 3;

/// Hard cap on a run's op loop, far below the 180 s a run may take.
const HARD_LIMIT_S: f64 = 120.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Print the per-layer breakdown instead of the end-to-end metrics.
    pub trace: bool,
    /// Run exactly this many ops instead of filling `seconds`.
    pub ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str| -> Result<Option<u64>, String> {
        get(flag)
            .map(|v| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}")))
            .transpose()
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_owned();
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?.unwrap_or(1),
        seconds: number("--seconds")?.unwrap_or(10) as f64,
        trace,
        ops: number("--ops")?.map(|n| n.max(1) as usize),
    })
}

/// When a closed loop stops: after `seconds`, at a whole group of ops
/// (a preset rotation, a scene pass), and never before `min_ops`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    seconds: f64,
    group: usize,
    min_ops: usize,
    exact: Option<usize>,
}

impl Budget {
    /// A budget for `args`, rounding op counts up to multiples of `group`
    /// and, when the run reports `op_tail_ms` (untraced), requiring enough
    /// ops for the tail percentile `tail_pct`.
    pub fn new(args: &Args, group: usize, tail_pct: f64) -> Budget {
        Budget {
            started: Instant::now(),
            seconds: args.seconds,
            group: group.max(1),
            min_ops: if args.trace {
                0
            } else {
                stats::min_samples_for(tail_pct)
            },
            exact: args.ops,
        }
    }

    /// Whether another op should start after `done` ops.
    pub fn more(&self, done: usize) -> bool {
        if let Some(n) = self.exact {
            return done < n;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed >= HARD_LIMIT_S {
            return false;
        }
        elapsed < self.seconds || done < self.min_ops || !done.is_multiple_of(self.group)
    }
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each setup's duration in seconds.
    pub setups_s: Vec<f64>,
    /// Latency of every attempted op in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops that errored, were rejected or degraded, or failed a check.
    pub failed: usize,
    /// Wall time of the op loop in seconds.
    pub loop_s: f64,
    /// Tail percentile this workload reports as `op_tail_ms`.
    pub tail_pct: f64,
    /// Run-level checks (beyond per-op ones) that failed, by description.
    pub run_failures: Vec<String>,
    /// Per-layer values (traced runs only).
    pub layers: layers::Layers,
    /// Workload-specific JSON fields for the detail line.
    pub detail: String,
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn metric_json(out: &mut String, name: &str, unit: &str, value: f64) -> Result<(), String> {
    if !value.is_finite() {
        return Err(format!("{name} measured {value}"));
    }
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    );
    Ok(())
}

fn report(args: &Args, o: &Outcome) -> Result<String, String> {
    let attempted = o.latencies_ms.len();
    if attempted == 0 {
        return Err("no op completed".to_owned());
    }
    let mut metrics = String::from("{");
    if args.trace {
        for (name, unit, value) in o.layers.metrics() {
            metric_json(&mut metrics, name, unit, value)?;
        }
    } else {
        let values = [
            stats::percentile(&o.setups_s, 50.0),
            stats::percentile(&o.latencies_ms, 50.0),
            stats::percentile(&o.latencies_ms, o.tail_pct),
            attempted as f64 / o.loop_s,
            1.0 - o.failed as f64 / attempted as f64,
            heap::peak_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metric_json(&mut metrics, name, unit, value)?;
        }
    }
    metrics.push('}');
    let correct = o.failed == 0 && o.run_failures.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.failed
    ))
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".");
    let cpu0 = env::cpu_seconds();
    let result = match args.workload.as_str() {
        "survey-cold" => survey::run(&args),
        "population" => population::run(&args),
        "serve-mixed" => serve::run(&args, &root),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for failure in &outcome.run_failures {
        eprintln!("perfbench: {}: check failed: {failure}", args.workload);
    }
    let line = match report(&args, &outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let n = outcome.latencies_ms.len();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"env\": {}, \"ops\": {n}, \
         \"tail_pct\": {:?}, \"tail_rule_pct_at_ops\": {}, \"setups_s\": {:?}, \
         \"loop_s\": {:?}, \"process_s\": {:?}, \"cpu_s\": {:?}, \"peak_rss_mb\": {:?}{}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        env::env_json(&root),
        outcome.tail_pct,
        stats::tail_percentile(n).map_or_else(|| "null".to_owned(), |p| format!("{p:?}")),
        outcome.setups_s,
        outcome.loop_s,
        started.elapsed().as_secs_f64(),
        env::cpu_seconds() - cpu0,
        env::peak_rss_mb().unwrap_or(0.0),
        outcome.detail,
    );
    println!("{line}");
}
