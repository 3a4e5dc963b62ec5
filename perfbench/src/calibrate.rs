//! Cold machine calibration, timed from outside `fase-sysmodel`.

use crate::ms_since;
use fase_sysmodel::{ActivityPair, Machine};
use std::time::Instant;

/// Activity pair every workload measures.
pub const PAIR: ActivityPair = ActivityPair::LdmLdl1;

/// Calibrates each machine for `f_alt` once and returns the times in
/// milliseconds. Runs on a fresh thread: the profile memo is
/// thread-local, so every call here is a first, cold calibration.
pub fn cold_calibrations(machines: Vec<Machine>, f_alt: f64) -> Result<Vec<f64>, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            machines
                .into_iter()
                .map(|mut machine| {
                    let t = Instant::now();
                    let _ = PAIR.calibrated(&mut machine, f_alt);
                    ms_since(t)
                })
                .collect()
        })
        .join()
        .map_err(|_| "calibration panicked".to_owned())
    })
}
