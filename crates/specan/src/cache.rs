//! The content-addressed capture cache.
//!
//! A wide-band sweep re-runs the same five-`f_alt` campaign in dozens of
//! bands, and in practice (paper §3: multi-hour spans on the Agilent MXA)
//! gets interrupted, re-run with tweaked analysis settings, and repeated
//! across machines. Synthesis + capture dominates the cost, so finished
//! band campaigns are persisted here, keyed by a stable hash of everything
//! that determines their bits: scene/machine identity, activity pair,
//! band, alternation family, averaging policy, fault plan and seed (the
//! scheduler assembles that description; see
//! [`CacheKey::from_description`]).
//!
//! Entries carry an FNV-based integrity hash over their payload: a
//! corrupted or truncated entry fails verification and reads as
//! [`CacheLookup::Invalid`], which the scheduler treats exactly like a
//! miss — recompute and overwrite, never trust. Spectra round-trip
//! **bit-exactly** (every `f64` is stored as its IEEE-754 bit pattern),
//! which is what makes warm-cache and resumed sweeps byte-identical to
//! cold ones.
//!
//! A [`SweepManifest`] sits next to the entries and records which bands of
//! a given sweep plan have completed, making interrupted sweeps resumable.

use fase_core::{
    CampaignConfig, CampaignHealth, CampaignSpectra, DroppedAlternation, FaseError, FaultRecord,
    LabeledSpectrum,
};
use fase_dsp::{Hertz, Spectrum};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// First line of every cache entry; bump the version to invalidate the
/// whole cache when the entry format (or anything upstream of the stored
/// bits) changes incompatibly.
const ENTRY_MAGIC: &str = "FASECACHE v1";

/// First line of every sweep manifest.
const MANIFEST_MAGIC: &str = "FASESWEEP v1";

/// FNV-1a 64-bit offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Salt for the second FNV pass (the two passes together give the 128-bit
/// key/integrity hash).
const FNV_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over `bytes` from the given basis.
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit hex digest of `bytes`: two independent FNV-1a passes.
fn digest_hex(bytes: &[u8]) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a64(bytes, FNV_BASIS),
        fnv1a64(bytes, FNV_BASIS ^ FNV_SALT)
    )
}

/// Total time a writer waits for the directory lock before giving up.
const LOCK_TIMEOUT_MS: u64 = 10_000;

/// After waiting this long on a lock file with unreadable contents, the
/// holder is presumed to have died between creating the file and writing
/// its PID, and the lock is stolen.
const LOCK_UNREADABLE_GRACE_MS: u64 = 500;

/// An advisory cross-process writer lock on a cache directory.
///
/// Entry and manifest writes are temp-file + rename, which is safe
/// against *readers* — but two writers sharing a directory (two sweeps
/// with the same `--cache-dir`, or the server's request threads) can
/// race on the same temp name and rename each other's half-written file
/// into place. Every write therefore takes this lock first.
///
/// The lock is a `create_new` file holding the owner's PID. A waiter
/// that finds the file checks whether the recorded PID is still alive
/// (via `/proc`); a dead owner's lock is stolen, a live owner's is
/// waited on with growing sleeps, bounded by [`LOCK_TIMEOUT_MS`].
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Acquires the writer lock for `dir`, blocking (with backoff) while
    /// another live process or thread holds it.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the lock file cannot be created
    /// for I/O reasons, or when a live holder keeps it past
    /// [`LOCK_TIMEOUT_MS`].
    pub fn acquire(dir: &Path) -> Result<DirLock, FaseError> {
        let path = dir.join(".fase-cache.lock");
        let mut waited_ms = 0u64;
        // fase-lint: allow(C-cancel) -- lock acquisition is bounded by LOCK_TIMEOUT_MS and breaks stale holders; no token flows here
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    use std::io::Write as _;
                    // A failed PID write leaves the lock held but
                    // anonymous; waiters then apply the unreadable-lock
                    // grace period instead of PID liveness.
                    let _ = writeln!(file, "pid {}", std::process::id());
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if holder_is_stale(&path, waited_ms) {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                }
                Err(e) => {
                    return Err(FaseError::cache(format!(
                        "creating lock {}: {e}",
                        path.display()
                    )))
                }
            }
            if waited_ms >= LOCK_TIMEOUT_MS {
                return Err(FaseError::cache(format!(
                    "lock {} held by a live process for over {LOCK_TIMEOUT_MS} ms",
                    path.display()
                )));
            }
            let step = (waited_ms / 8).clamp(1, 20);
            std::thread::sleep(std::time::Duration::from_millis(step));
            waited_ms += step;
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// True when the lock at `path` belongs to a process that no longer
/// exists. A vanished file reads as *not* stale (its owner just released
/// it — the acquire loop will retry `create_new` immediately anyway); an
/// unreadable PID becomes stale only after a grace period, so a holder
/// between "create" and "write PID" is not robbed. Without `/proc`
/// liveness is unknowable and the acquire timeout is the only bound.
fn holder_is_stale(path: &Path, waited_ms: u64) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let pid = text
        .strip_prefix("pid ")
        .and_then(|t| t.trim().parse::<u32>().ok());
    let Some(pid) = pid else {
        return waited_ms >= LOCK_UNREADABLE_GRACE_MS;
    };
    let proc_root = Path::new("/proc");
    proc_root.exists() && !proc_root.join(pid.to_string()).exists()
}

/// A content-address: the 128-bit hex digest of a canonical capture
/// description. Equal descriptions — same scene, machine, band,
/// alternation family, averaging, fault plan, seed — produce equal keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey(String);

impl CacheKey {
    /// Derives the key for a canonical description string. The
    /// description must mention every input that can change the captured
    /// bits; execution details that cannot (thread count, recorder) must
    /// stay out of it.
    pub fn from_description(description: &str) -> CacheKey {
        CacheKey(digest_hex(description.as_bytes()))
    }

    /// The 32-hex-digit key text (also the entry's file stem).
    pub fn hex(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// The entry exists, its integrity hash verified, and its spectra
    /// reconstructed bit-exactly.
    Hit(Box<CampaignSpectra>),
    /// No entry under this key.
    Miss,
    /// An entry exists but is corrupt (hash mismatch, unreadable, or
    /// unparsable). Treat as a miss: recompute and overwrite.
    Invalid,
}

/// An on-disk store of reduced band campaigns, one file per
/// [`CacheKey`].
#[derive(Debug)]
pub struct CaptureCache {
    dir: PathBuf,
}

impl CaptureCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CaptureCache, FaseError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FaseError::cache(format!("creating {}: {e}", dir.display())))?;
        Ok(CaptureCache { dir })
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.entry", key.hex()))
    }

    /// Probes the cache for `key`. Never fails: a missing entry is a
    /// [`CacheLookup::Miss`], and *any* defect — I/O error, wrong magic,
    /// key mismatch, integrity-hash mismatch, parse failure, campaign
    /// re-validation failure — is a [`CacheLookup::Invalid`] that the
    /// caller recomputes and overwrites.
    pub fn load(&self, key: &CacheKey) -> CacheLookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(_) => return CacheLookup::Invalid,
        };
        let Some((header, payload)) = text.split_once("---\n") else {
            return CacheLookup::Invalid;
        };
        let mut lines = header.lines();
        if lines.next() != Some(ENTRY_MAGIC) {
            return CacheLookup::Invalid;
        }
        if lines.next() != Some(format!("key {}", key.hex()).as_str()) {
            return CacheLookup::Invalid;
        }
        let Some(hash_line) = lines.next() else {
            return CacheLookup::Invalid;
        };
        if hash_line != format!("hash {}", digest_hex(payload.as_bytes())) {
            return CacheLookup::Invalid;
        }
        match decode_spectra(payload) {
            Some(spectra) => CacheLookup::Hit(Box::new(spectra)),
            None => CacheLookup::Invalid,
        }
    }

    /// Persists a reduced band campaign under `key`. The entry is written
    /// to a temporary file and renamed into place under the directory's
    /// [`DirLock`], so a concurrent or killed writer can never leave a
    /// half-entry under the final name — at worst the integrity hash
    /// catches a torn rename target.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the entry cannot be written or
    /// the writer lock cannot be acquired.
    pub fn store(&self, key: &CacheKey, spectra: &CampaignSpectra) -> Result<(), FaseError> {
        let payload = encode_spectra(spectra);
        let text = format!(
            "{ENTRY_MAGIC}\nkey {}\nhash {}\n---\n{payload}",
            key.hex(),
            digest_hex(payload.as_bytes())
        );
        let tmp = self.dir.join(format!("{}.tmp", key.hex()));
        let path = self.entry_path(key);
        let lock = DirLock::acquire(&self.dir)?;
        std::fs::write(&tmp, text)
            .map_err(|e| FaseError::cache(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| FaseError::cache(format!("renaming into {}: {e}", path.display())))?;
        drop(lock);
        Ok(())
    }
}

/// Hex bit-pattern of an `f64` — the bit-exact wire form of every float
/// in a cache entry.
fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses an `f64` back from its bit-pattern hex.
fn hex_f64(tok: &str) -> Option<f64> {
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

/// Escapes a free-text field (an error cause) into a single line.
fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Reverses [`escape`].
fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Serializes a reduced band campaign as the line-oriented entry payload.
/// Every float travels as its IEEE-754 bit pattern so decoding is
/// bit-exact.
fn encode_spectra(spectra: &CampaignSpectra) -> String {
    let c = spectra.config();
    let mut out = format!(
        "config {} {} {} {} {} {} {}\n",
        f64_hex(c.band_lo().hz()),
        f64_hex(c.band_hi().hz()),
        f64_hex(c.resolution().hz()),
        f64_hex(c.f_alt1().hz()),
        f64_hex(c.f_delta().hz()),
        c.alternation_count(),
        c.averages()
    );
    for labeled in spectra.spectra() {
        let s = &labeled.spectrum;
        let _ = writeln!(
            out,
            "spectrum {} {} {} {}",
            f64_hex(labeled.f_alt.hz()),
            f64_hex(s.start().hz()),
            f64_hex(s.resolution().hz()),
            s.len()
        );
        let bins: Vec<String> = s.powers().iter().map(|&p| f64_hex(p)).collect();
        out.push_str(&bins.join(" "));
        out.push('\n');
    }
    if let Some(h) = spectra.health() {
        let _ = writeln!(
            out,
            "health {} {} {} {} {}",
            h.planned, h.surviving, h.retried_tasks, h.total_retries, h.quarantined
        );
        for f in &h.faults {
            let _ = writeln!(
                out,
                "fault {} {} {} {} {}",
                f64_hex(f.f_alt.hz()),
                f.segment,
                f.average,
                f.attempt,
                f.tag
            );
        }
        for d in &h.dropped {
            // The runner only ever drops an alternation on a terminal
            // CaptureFailed; encode its fields so the reconstruction is
            // exact. Any other variant (impossible today) degrades to a
            // worker-error message.
            match &d.error {
                FaseError::CaptureFailed {
                    f_alt,
                    segment,
                    attempts,
                    cause,
                } => {
                    let _ = writeln!(
                        out,
                        "drop {} {} {} {} {}",
                        f64_hex(d.f_alt.hz()),
                        f64_hex(f_alt.hz()),
                        segment,
                        attempts,
                        escape(cause)
                    );
                }
                other => {
                    let _ = writeln!(
                        out,
                        "dropmsg {} {}",
                        f64_hex(d.f_alt.hz()),
                        escape(&other.to_string())
                    );
                }
            }
        }
    }
    out
}

/// Parses an entry payload back into validated campaign spectra. `None`
/// on any structural defect; [`CampaignSpectra::new`] re-runs the full
/// campaign validation, so a decoded hit satisfies every invariant a
/// freshly captured campaign does.
fn decode_spectra(payload: &str) -> Option<CampaignSpectra> {
    let mut lines = payload.lines();
    let mut config_toks = lines.next()?.split_whitespace();
    if config_toks.next()? != "config" {
        return None;
    }
    let lo = hex_f64(config_toks.next()?)?;
    let hi = hex_f64(config_toks.next()?)?;
    let res = hex_f64(config_toks.next()?)?;
    let f_alt1 = hex_f64(config_toks.next()?)?;
    let f_delta = hex_f64(config_toks.next()?)?;
    let alternations: usize = config_toks.next()?.parse().ok()?;
    let averages: usize = config_toks.next()?.parse().ok()?;
    let config = CampaignConfig::builder()
        .band(Hertz(lo), Hertz(hi))
        .resolution(Hertz(res))
        .alternation(Hertz(f_alt1), Hertz(f_delta), alternations)
        .averages(averages)
        .build()
        .ok()?;

    let mut labeled: Vec<LabeledSpectrum> = Vec::new();
    let mut health: Option<CampaignHealth> = None;
    while let Some(line) = lines.next() {
        let mut toks = line.split_whitespace();
        match toks.next()? {
            "spectrum" => {
                let f_alt = hex_f64(toks.next()?)?;
                let start = hex_f64(toks.next()?)?;
                let resolution = hex_f64(toks.next()?)?;
                let bins: usize = toks.next()?.parse().ok()?;
                let powers: Vec<f64> = lines
                    .next()?
                    .split_whitespace()
                    .map(hex_f64)
                    .collect::<Option<Vec<f64>>>()?;
                if powers.len() != bins {
                    return None;
                }
                let spectrum = Spectrum::new(Hertz(start), Hertz(resolution), powers).ok()?;
                labeled.push(LabeledSpectrum {
                    f_alt: Hertz(f_alt),
                    spectrum,
                });
            }
            "health" => {
                let mut h = CampaignHealth::new(toks.next()?.parse().ok()?);
                h.surviving = toks.next()?.parse().ok()?;
                h.retried_tasks = toks.next()?.parse().ok()?;
                h.total_retries = toks.next()?.parse().ok()?;
                h.quarantined = toks.next()?.parse().ok()?;
                health = Some(h);
            }
            "fault" => {
                let f_alt = hex_f64(toks.next()?)?;
                let segment: usize = toks.next()?.parse().ok()?;
                let average: usize = toks.next()?.parse().ok()?;
                let attempt: u32 = toks.next()?.parse().ok()?;
                let tag = toks.next()?.to_owned();
                health.as_mut()?.faults.push(FaultRecord {
                    f_alt: Hertz(f_alt),
                    segment,
                    average,
                    attempt,
                    tag,
                });
            }
            "drop" => {
                let mut fields = line.splitn(6, ' ');
                let _tag = fields.next()?;
                let planned = hex_f64(fields.next()?)?;
                let err_f_alt = hex_f64(fields.next()?)?;
                let segment: usize = fields.next()?.parse().ok()?;
                let attempts: u32 = fields.next()?.parse().ok()?;
                let cause = unescape(fields.next().unwrap_or(""));
                health.as_mut()?.dropped.push(DroppedAlternation {
                    f_alt: Hertz(planned),
                    error: FaseError::capture_failed(Hertz(err_f_alt), segment, attempts, cause),
                });
            }
            "dropmsg" => {
                let mut fields = line.splitn(3, ' ');
                let _tag = fields.next()?;
                let planned = hex_f64(fields.next()?)?;
                let message = unescape(fields.next().unwrap_or(""));
                health.as_mut()?.dropped.push(DroppedAlternation {
                    f_alt: Hertz(planned),
                    error: FaseError::worker(message),
                });
            }
            _ => return None,
        }
    }
    let spectra = CampaignSpectra::new(config, labeled).ok()?;
    Some(match health {
        Some(h) => spectra.with_health(h),
        None => spectra,
    })
}

/// Progress record of one sweep plan: which bands have a finished (and
/// cached, when a cache is attached) campaign. Lives next to the cache
/// entries, named by the sweep plan's own content hash, so concurrent
/// sweeps of different plans never collide. `fase sweep --resume` reads
/// it to prove there is an interrupted sweep to pick up.
#[derive(Debug)]
pub struct SweepManifest {
    path: PathBuf,
    span_key: String,
    bands: usize,
    done: BTreeMap<usize, String>,
}

impl SweepManifest {
    fn manifest_path(dir: &Path, span_key: &CacheKey) -> PathBuf {
        dir.join(format!("sweep-{}.manifest", span_key.hex()))
    }

    /// Starts a fresh manifest for the sweep plan hashed as `span_key`,
    /// overwriting any previous record of the same plan.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the manifest cannot be written.
    pub fn create(
        dir: &Path,
        span_key: &CacheKey,
        bands: usize,
    ) -> Result<SweepManifest, FaseError> {
        let manifest = SweepManifest {
            path: SweepManifest::manifest_path(dir, span_key),
            span_key: span_key.hex().to_owned(),
            bands,
            done: BTreeMap::new(),
        };
        manifest.persist()?;
        Ok(manifest)
    }

    /// Opens the record of the sweep plan hashed as `span_key` for a new
    /// run: an existing, readable record of the same plan is continued
    /// as it stands (every band it lists finished and was cached), and
    /// anything else is replaced by a fresh one. A run that replays an
    /// already recorded plan from the cache therefore writes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when a fresh manifest cannot be
    /// written.
    pub fn open(dir: &Path, span_key: &CacheKey, bands: usize) -> Result<SweepManifest, FaseError> {
        match SweepManifest::load(dir, span_key, bands) {
            Ok(Some(manifest)) => Ok(manifest),
            Ok(None) | Err(_) => SweepManifest::create(dir, span_key, bands),
        }
    }

    /// Loads the manifest for `span_key`, if one exists. `Ok(None)` means
    /// no sweep of this plan was ever started here.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when a manifest exists but cannot be
    /// read or does not match this sweep plan (wrong magic, key, or band
    /// count) — resuming against it would silently produce a different
    /// sweep, so that is refused rather than repaired.
    pub fn load(
        dir: &Path,
        span_key: &CacheKey,
        bands: usize,
    ) -> Result<Option<SweepManifest>, FaseError> {
        let path = SweepManifest::manifest_path(dir, span_key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(FaseError::cache(format!(
                    "reading manifest {}: {e}",
                    path.display()
                )))
            }
        };
        let corrupt = || FaseError::cache(format!("manifest {} is corrupt", path.display()));
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(corrupt());
        }
        let mut span_toks = lines.next().ok_or_else(corrupt)?.split_whitespace();
        if span_toks.next() != Some("span") {
            return Err(corrupt());
        }
        let recorded_key = span_toks.next().ok_or_else(corrupt)?;
        if span_toks.next() != Some("bands") {
            return Err(corrupt());
        }
        let recorded_bands: usize = span_toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(corrupt)?;
        if recorded_key != span_key.hex() || recorded_bands != bands {
            return Err(FaseError::cache(format!(
                "manifest {} records a different sweep plan",
                path.display()
            )));
        }
        let mut done = BTreeMap::new();
        for line in lines {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("done") {
                return Err(corrupt());
            }
            let band: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(corrupt)?;
            let entry = toks.next().ok_or_else(corrupt)?.to_owned();
            done.insert(band, entry);
        }
        Ok(Some(SweepManifest {
            path,
            span_key: span_key.hex().to_owned(),
            bands,
            done,
        }))
    }

    /// Records band `band` as finished, persisting immediately (the whole
    /// point is surviving a kill between bands). A band already recorded
    /// with the same entry leaves the file untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the manifest cannot be written.
    pub fn mark_done(&mut self, band: usize, entry: &CacheKey) -> Result<(), FaseError> {
        if self.done.get(&band).map(String::as_str) == Some(entry.hex()) {
            return Ok(());
        }
        self.done.insert(band, entry.hex().to_owned());
        self.persist()
    }

    /// True when band `band` finished in some earlier (or this) run.
    pub fn is_done(&self, band: usize) -> bool {
        self.done.contains_key(&band)
    }

    /// How many bands have finished.
    pub fn done_count(&self) -> usize {
        self.done.len()
    }

    /// True when every band of the plan has finished.
    pub fn is_complete(&self) -> bool {
        self.done.len() == self.bands
    }

    /// Atomic rewrite: temp file + rename under the directory's
    /// [`DirLock`], same discipline as entries.
    fn persist(&self) -> Result<(), FaseError> {
        let mut text = format!(
            "{MANIFEST_MAGIC}\nspan {} bands {}\n",
            self.span_key, self.bands
        );
        for (band, entry) in &self.done {
            let _ = writeln!(text, "done {band} {entry}");
        }
        let tmp = self.path.with_extension("manifest.tmp");
        let dir = self.path.parent().unwrap_or(Path::new("."));
        let lock = DirLock::acquire(dir)?;
        std::fs::write(&tmp, text)
            .map_err(|e| FaseError::cache(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| FaseError::cache(format!("renaming into {}: {e}", self.path.display())))?;
        drop(lock);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fase-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_spectra(with_health: bool) -> CampaignSpectra {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(1_000.0))
            .resolution(Hertz(10.0))
            .alternation(Hertz(200.0), Hertz(10.0), 3)
            .averages(2)
            .build()
            .unwrap();
        let labeled: Vec<LabeledSpectrum> = config
            .alternation_frequencies()
            .into_iter()
            .enumerate()
            .map(|(i, f_alt)| {
                let powers: Vec<f64> = (0..101)
                    .map(|b| 1e-13 * (1.0 + (b as f64 * 0.37 + i as f64).sin().abs()))
                    .collect();
                LabeledSpectrum {
                    f_alt,
                    spectrum: Spectrum::new(Hertz(0.0), Hertz(10.0), powers).unwrap(),
                }
            })
            .collect();
        let spectra = CampaignSpectra::new(config, labeled).unwrap();
        if with_health {
            let mut h = CampaignHealth::new(3);
            h.total_retries = 2;
            h.retried_tasks = 1;
            h.faults.push(FaultRecord {
                f_alt: Hertz(200.0),
                segment: 0,
                average: 1,
                attempt: 0,
                tag: "adc-clip".into(),
            });
            h.dropped.push(DroppedAlternation {
                f_alt: Hertz(210.0),
                error: FaseError::capture_failed(Hertz(210.0), 0, 3, "injected\ntask failure"),
            });
            h.surviving = 2;
            spectra.with_health(h)
        } else {
            spectra
        }
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let a = CacheKey::from_description("band 0 seed 42");
        assert_eq!(a, CacheKey::from_description("band 0 seed 42"));
        assert_ne!(a, CacheKey::from_description("band 0 seed 43"));
        assert_eq!(a.hex().len(), 32);
        assert!(a.hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{a}"), a.hex());
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for with_health in [false, true] {
            let dir = temp_dir("roundtrip");
            let cache = CaptureCache::open(&dir).unwrap();
            let spectra = sample_spectra(with_health);
            let key = CacheKey::from_description("roundtrip");
            assert!(matches!(cache.load(&key), CacheLookup::Miss));
            cache.store(&key, &spectra).unwrap();
            match cache.load(&key) {
                CacheLookup::Hit(loaded) => assert_eq!(*loaded, spectra),
                other => panic!("expected hit, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_entries_are_invalid_not_trusted() {
        let dir = temp_dir("corrupt");
        let cache = CaptureCache::open(&dir).unwrap();
        let spectra = sample_spectra(true);
        let key = CacheKey::from_description("corrupt");
        cache.store(&key, &spectra).unwrap();
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte (past the ~100-byte header).
        let i = bytes.len() - 20;
        bytes[i] = bytes[i].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.load(&key), CacheLookup::Invalid));
        // Truncation is also caught.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(cache.load(&key), CacheLookup::Invalid));
        // Recompute-and-overwrite heals the entry.
        cache.store(&key, &spectra).unwrap();
        assert!(matches!(cache.load(&key), CacheLookup::Hit(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_key_in_entry_is_invalid() {
        let dir = temp_dir("wrongkey");
        let cache = CaptureCache::open(&dir).unwrap();
        let spectra = sample_spectra(false);
        let key_a = CacheKey::from_description("a");
        let key_b = CacheKey::from_description("b");
        cache.store(&key_a, &spectra).unwrap();
        // Copy a's entry file under b's name: content-address mismatch.
        std::fs::copy(cache.entry_path(&key_a), cache.entry_path(&key_b)).unwrap();
        assert!(matches!(cache.load(&key_b), CacheLookup::Invalid));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn reopening_a_recorded_plan_continues_it_without_rewriting() {
        use std::os::unix::fs::MetadataExt as _;
        let dir = temp_dir("manifest-reopen");
        std::fs::create_dir_all(&dir).unwrap();
        let span = CacheKey::from_description("span");
        let entry = CacheKey::from_description("entry");
        let mut first = SweepManifest::open(&dir, &span, 2).unwrap();
        first.mark_done(0, &entry).unwrap();
        first.mark_done(1, &entry).unwrap();
        let path = SweepManifest::manifest_path(&dir, &span);
        // Every persist renames a new file into place, so an unchanged
        // inode means nothing was written.
        let inode = std::fs::metadata(&path).unwrap().ino();

        let mut again = SweepManifest::open(&dir, &span, 2).unwrap();
        assert!(again.is_complete());
        again.mark_done(0, &entry).unwrap();
        again.mark_done(1, &entry).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode);
        assert!(!dir.join(".fase-cache.lock").exists());

        // A band recorded under a different entry is rewritten.
        let other = CacheKey::from_description("other entry");
        again.mark_done(1, &other).unwrap();
        assert_ne!(std::fs::metadata(&path).unwrap().ino(), inode);

        // A record of another plan shape is replaced by a fresh one.
        let fresh = SweepManifest::open(&dir, &span, 3).unwrap();
        assert_eq!(fresh.done_count(), 0);
        assert_eq!(
            SweepManifest::load(&dir, &span, 3)
                .unwrap()
                .unwrap()
                .done_count(),
            0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_tracks_progress_across_loads() {
        let dir = temp_dir("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let span = CacheKey::from_description("span");
        let entry = CacheKey::from_description("entry");
        assert!(SweepManifest::load(&dir, &span, 3).unwrap().is_none());
        let mut m = SweepManifest::create(&dir, &span, 3).unwrap();
        assert!(!m.is_complete());
        m.mark_done(0, &entry).unwrap();
        m.mark_done(2, &entry).unwrap();
        let loaded = SweepManifest::load(&dir, &span, 3).unwrap().unwrap();
        assert!(loaded.is_done(0) && !loaded.is_done(1) && loaded.is_done(2));
        assert_eq!(loaded.done_count(), 2);
        // A different plan (band count) refuses to resume against it.
        assert!(SweepManifest::load(&dir, &span, 4).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_threads_hammering_one_dir_stay_consistent() {
        // The DirLock serializes entry + manifest writes: two threads
        // storing under distinct and *shared* keys, while re-persisting a
        // manifest, must leave every entry loadable and hash-valid.
        let dir = temp_dir("hammer");
        let cache = std::sync::Arc::new(CaptureCache::open(&dir).unwrap());
        let spectra = std::sync::Arc::new(sample_spectra(true));
        let span = CacheKey::from_description("hammer-span");
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let cache = std::sync::Arc::clone(&cache);
                let spectra = std::sync::Arc::clone(&spectra);
                let span = span.clone();
                scope.spawn(move || {
                    let mut manifest = SweepManifest::create(cache.dir(), &span, 1000).unwrap();
                    for i in 0..40u32 {
                        let key = CacheKey::from_description(&format!("hammer-{}", i % 8));
                        cache.store(&key, &spectra).unwrap();
                        manifest.mark_done((t * 40 + i) as usize, &key).unwrap();
                    }
                });
            }
        });
        for i in 0..8u32 {
            let key = CacheKey::from_description(&format!("hammer-{i}"));
            match cache.load(&key) {
                CacheLookup::Hit(loaded) => assert_eq!(*loaded, *spectra),
                other => panic!("entry {i} unreadable after hammer: {other:?}"),
            }
        }
        // Both writers released the lock.
        assert!(!dir.join(".fase-cache.lock").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_stolen() {
        let dir = temp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // PIDs near u32::MAX exceed the kernel's pid_max; no live process
        // can own this lock.
        std::fs::write(dir.join(".fase-cache.lock"), "pid 4294967295\n").unwrap();
        let lock = DirLock::acquire(&dir).unwrap();
        drop(lock);
        assert!(!dir.join(".fase-cache.lock").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn held_lock_blocks_until_released() {
        let dir = temp_dir("held");
        std::fs::create_dir_all(&dir).unwrap();
        let first = DirLock::acquire(&dir).unwrap();
        let dir2 = dir.clone();
        let waiter = std::thread::spawn(move || DirLock::acquire(&dir2).map(drop));
        // The waiter sees our live PID and must not steal.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!waiter.is_finished(), "lock was stolen from a live owner");
        drop(first);
        waiter.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn escape_roundtrips() {
        for s in ["plain", "with\nnewline", "back\\slash", "both\\\nmixed", ""] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }
}
