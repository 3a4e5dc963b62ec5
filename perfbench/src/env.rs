//! The environment a run measured in, printed with every result so two
//! runs are only compared when they ran under the same conditions.

use std::fmt::Write as _;
use std::path::Path;

/// Worker threads the FASE campaign pool resolves to: `FASE_THREADS` when
/// it parses, else the machine's available parallelism.
pub fn campaign_threads() -> usize {
    std::env::var("FASE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(nproc, |n| n.max(1))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit from `.git/HEAD` and the loose ref it names,
/// or "unknown" (an export without `.git`, or a packed ref).
fn commit(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let head = read(&root.join(".git/HEAD")).unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(&root.join(".git").join(reference)).unwrap_or_default(),
        None => head,
    };
    match id.trim() {
        "" => "unknown".to_owned(),
        id => id.to_owned(),
    }
}

/// One JSON object describing the run's environment.
pub fn env_json(root: &Path) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"nproc\": {}, \"campaign_threads\": {}, \"fase_threads\": {}, \
         \"target_cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"",
        nproc(),
        campaign_threads(),
        std::env::var("FASE_THREADS").map_or_else(|_| "null".to_owned(), |v| format!("{v:?}")),
        env!("PERFBENCH_TARGET_CPU"),
        env!("PERFBENCH_RUSTC"),
        commit(root),
    );
    out.push('}');
    out
}
