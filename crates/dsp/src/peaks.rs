//! Peak detection for spectra and heuristic outputs.
//!
//! The FASE paper defers peak-picking to standard algorithms ("\[29\] and \[4\]
//! cover such algorithms"); we implement a Palshikar-style spike detector:
//! each sample is scored by how far it rises above its neighborhood, scores
//! are thresholded robustly (median + k·MAD so that the threshold survives
//! very strong peaks), and non-maximum suppression keeps one peak per
//! neighborhood.

use crate::stats;

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index of the peak sample in the input slice.
    pub index: usize,
    /// Value of the input at the peak.
    pub value: f64,
    /// Palshikar spike score (mean rise over left and right neighborhoods).
    pub score: f64,
}

/// Configuration for [`find_peaks`].
///
/// # Examples
///
/// ```
/// use fase_dsp::peaks::{find_peaks, PeakConfig};
/// let mut x = vec![1.0; 101];
/// x[50] = 10.0;
/// let peaks = find_peaks(&x, &PeakConfig::default());
/// assert_eq!(peaks.len(), 1);
/// assert_eq!(peaks[0].index, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakConfig {
    /// Neighborhood half-width (samples on each side used for the score).
    pub half_window: usize,
    /// Robust threshold: a peak's score must exceed
    /// `median(score) + threshold_mads · MAD(score)`.
    pub threshold_mads: f64,
    /// Minimum absolute rise above the neighborhood mean; guards against
    /// declaring peaks in perfectly flat data where MAD is zero.
    pub min_rise: f64,
    /// Minimum spacing between reported peaks, in samples.
    pub min_distance: usize,
}

impl Default for PeakConfig {
    fn default() -> PeakConfig {
        PeakConfig {
            half_window: 5,
            threshold_mads: 8.0,
            min_rise: 1e-12,
            min_distance: 3,
        }
    }
}

/// Finds spikes in `values` per the configured Palshikar-style criterion.
///
/// Returns peaks sorted by descending value (equal values keep index
/// order). Inputs shorter than `2·half_window + 1` return no peaks.
///
/// # Cost
///
/// One call is O(n·w) additions in a branch-free loop that vectorises
/// across bins (w = `half_window`), plus O(n) selection for the median
/// and MAD and O(candidates · `min_distance`) for the suppression.
///
/// The neighbour means come from column window sums: each full window is
/// still added left to right from `+0.0`, exactly as the edge bins' direct
/// loop adds theirs, so a score has the same bits whichever path produced
/// it. A running (prefix) sum would be O(n) but rounds differently; a
/// moved score bit moves the MAD threshold and with it which peaks clear
/// it, so it is not used.
pub fn find_peaks(values: &[f64], config: &PeakConfig) -> Vec<Peak> {
    let n = values.len();
    let w = config.half_window.max(1);
    if n < 2 * w + 1 {
        return Vec::new();
    }
    let scores = palshikar_scores(values, w);

    // The robust threshold must be computed over the scores of *finite*
    // samples only: non-finite samples score NaN, which the median and
    // MAD skip. (A 0.0 placeholder would, on a heavily-poisoned capture,
    // drag the median toward zero and deflate the MAD, moving the
    // threshold and changing which peaks clear it.)
    let (med, spread) = stats::median_and_mad(&scores);
    let threshold = (med + config.threshold_mads * spread).max(config.min_rise);

    // Candidate peaks: strict local maxima whose score clears the
    // threshold. Non-finite neighbors compare as -inf so a legitimate peak
    // beside a poisoned bin is still reported; non-finite samples
    // themselves cannot qualify.
    let v = |i: usize| {
        if values[i].is_finite() {
            values[i]
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut candidates: Vec<Peak> = (1..n - 1)
        .filter(|&i| {
            values[i].is_finite() && v(i) >= v(i - 1) && v(i) > v(i + 1) && scores[i] >= threshold
        })
        .map(|i| Peak {
            index: i,
            value: values[i],
            score: scores[i],
        })
        .collect();

    // Non-maximum suppression: strongest first (a stable sort, so equal
    // values go in index order), and a candidate survives only if no kept
    // peak lies closer than `min_distance` — checked against a bitmap of
    // kept indices instead of every kept peak.
    candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
    let reach = config.min_distance.max(1) - 1;
    let mut taken = vec![false; n];
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        let lo = c.index.saturating_sub(reach);
        let hi = c.index.saturating_add(reach).min(n - 1);
        if !taken[lo..=hi].contains(&true) {
            taken[c.index] = true;
            kept.push(c);
        }
    }
    kept
}

/// Windows summed per column pass in [`palshikar_scores`]: their sums and
/// the samples under them stay in L1.
const WINDOW_BLOCK: usize = 1024;

/// Palshikar S1 score of every sample: `0.5 · (rise_left + rise_right)`,
/// where a rise is `x[i] − mean` of the `w` neighbours on that side, each
/// mean taken over its finite samples only, so one poisoned bin (NaN/Inf
/// from a glitched capture) cannot mask every peak near it. A side with no
/// finite sample adds no rise; a non-finite sample scores NaN (it has no
/// score and can never be a peak). Needs `values.len() >= 2·w + 1`.
fn palshikar_scores(values: &[f64], w: usize) -> Vec<f64> {
    let n = values.len();
    let rise = |x: f64, mean: Option<f64>| {
        if x.is_finite() {
            mean.map_or(0.0, |m| x - m)
        } else {
            f64::NAN
        }
    };
    // Mean of the finite samples, added left to right from `+0.0`.
    let direct_mean = |xs: &[f64]| {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &x in xs {
            if x.is_finite() {
                sum += x;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    };

    // `scores[i]` first holds bin i's left rise; the right rise is added
    // (and the sum halved) once it is known. The first `w` bins have a
    // truncated left neighbourhood, summed directly.
    let mut scores = vec![0.0f64; n];
    for (i, (score, &x)) in scores.iter_mut().zip(&values[..w]).enumerate() {
        *score = rise(x, direct_mean(&values[..i]));
    }

    // Window `s` is `values[s..s + w]`: the left neighbourhood of bin
    // `s + w` and the right one of bin `s − 1`. Summing column by column
    // (`k` outer, `s` inner, over a cache-sized block of windows)
    // vectorises across windows while each window is still added left to
    // right from `+0.0` — the same order `direct_mean` uses, so a mean has
    // the same bits whichever path computes it. A non-finite sample adds
    // `+0.0`, which leaves a sum that started at `+0.0` bit-unchanged (it
    // can never have become `−0.0`).
    let windows = n + 1 - w;
    let finite = |x: f64| usize::from(x.is_finite());
    let finite_or_zero = |&x: &f64| if x.is_finite() { x } else { 0.0 };
    let mut count: usize = values[..w].iter().map(|&x| finite(x)).sum();
    let mut sums = [0.0f64; WINDOW_BLOCK];
    let mut masked = Vec::with_capacity(WINDOW_BLOCK + w - 1);
    for start in (0..windows).step_by(WINDOW_BLOCK) {
        let block = &mut sums[..WINDOW_BLOCK.min(windows - start)];
        masked.clear();
        masked.extend(
            values[start..start + block.len() + w - 1]
                .iter()
                .map(finite_or_zero),
        );
        block.fill(0.0);
        for k in 0..w {
            for (sum, &x) in block.iter_mut().zip(&masked[k..]) {
                *sum += x;
            }
        }
        for (s, &sum) in (start..).zip(block.iter()) {
            let mean = (count > 0).then(|| sum / count as f64);
            if let Some(j) = s.checked_sub(1) {
                scores[j] = 0.5 * (scores[j] + rise(values[j], mean));
            }
            if let Some(&x) = values.get(s + w) {
                scores[s + w] = rise(x, mean);
                // Slide the (exact, integer) finite count to window s + 1.
                count = count + finite(x) - finite(values[s]);
            }
        }
    }

    // The last `w` bins have a truncated right neighbourhood.
    for (i, &x) in values.iter().enumerate().skip(n - w) {
        scores[i] = 0.5 * (scores[i] + rise(x, direct_mean(&values[i + 1..])));
    }
    scores
}

/// Refines a peak's position by fitting a parabola through the peak bin and
/// its two neighbors, returning the sub-bin offset in `(-0.5, 0.5)`.
///
/// The spectrum analyzer's grid quantizes carrier frequencies to `f_res`;
/// interpolation recovers a finer estimate for carrier-frequency reporting.
///
/// Returns 0.0 for edge bins or degenerate (non-concave) neighborhoods.
pub fn parabolic_offset(values: &[f64], index: usize) -> f64 {
    if index == 0 || index + 1 >= values.len() {
        return 0.0;
    }
    let (a, b, c) = (values[index - 1], values[index], values[index + 1]);
    let denom = a - 2.0 * b + c;
    if denom >= 0.0 {
        return 0.0; // not concave — no meaningful vertex
    }
    let offset = 0.5 * (a - c) / denom;
    offset.clamp(-0.5, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_with_spikes(n: usize, spikes: &[(usize, f64)]) -> Vec<f64> {
        let mut x = vec![1.0; n];
        // Mild deterministic ripple so MAD is non-zero.
        for (i, v) in x.iter_mut().enumerate() {
            *v += 0.01 * ((i * 7919) % 13) as f64 / 13.0;
        }
        for &(i, v) in spikes {
            x[i] = v;
        }
        x
    }

    #[test]
    fn finds_single_spike() {
        let x = flat_with_spikes(200, &[(77, 25.0)]);
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 77);
        assert!(peaks[0].value > 24.0);
    }

    #[test]
    fn finds_multiple_spikes_sorted_by_value() {
        let x = flat_with_spikes(300, &[(50, 10.0), (150, 30.0), (250, 20.0)]);
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].index, 150);
        assert_eq!(peaks[1].index, 250);
        assert_eq!(peaks[2].index, 50);
    }

    #[test]
    fn flat_data_has_no_peaks() {
        let x = vec![3.0; 100];
        assert!(find_peaks(&x, &PeakConfig::default()).is_empty());
    }

    #[test]
    fn noise_alone_is_rejected() {
        // Deterministic small ripple only.
        let x: Vec<f64> = (0..500)
            .map(|i| 1.0 + 0.05 * (((i * 2654435761usize) % 1000) as f64 / 1000.0))
            .collect();
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert!(peaks.is_empty(), "found {} spurious peaks", peaks.len());
    }

    #[test]
    fn min_distance_suppresses_shoulders() {
        let mut x = flat_with_spikes(100, &[(40, 20.0)]);
        x[41] = 15.0; // shoulder next to the main peak
        let peaks = find_peaks(
            &x,
            &PeakConfig {
                min_distance: 5,
                ..PeakConfig::default()
            },
        );
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 40);
    }

    #[test]
    fn short_input_is_safe() {
        assert!(find_peaks(&[1.0, 2.0], &PeakConfig::default()).is_empty());
        assert!(find_peaks(&[], &PeakConfig::default()).is_empty());
    }

    #[test]
    fn parabolic_interpolation_recovers_offset() {
        // Samples of a parabola with vertex at 10.3.
        let vertex = 10.3;
        let x: Vec<f64> = (0..21).map(|i| 5.0 - (i as f64 - vertex).powi(2)).collect();
        let off = parabolic_offset(&x, 10);
        assert!((off - 0.3).abs() < 1e-9, "offset {off}");
        assert_eq!(parabolic_offset(&x, 0), 0.0);
        assert_eq!(parabolic_offset(&x, 20), 0.0);
    }

    #[test]
    fn poisoned_bins_do_not_mask_peaks() {
        let mut x = flat_with_spikes(200, &[(77, 25.0)]);
        x[40] = f64::NAN;
        x[120] = f64::INFINITY;
        x[78] = f64::NAN; // right next to the real peak
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 1, "peaks: {peaks:?}");
        assert_eq!(peaks[0].index, 77);
        assert!(peaks[0].value.is_finite() && peaks[0].score.is_finite());
    }

    #[test]
    fn poisoned_majority_does_not_deflate_threshold() {
        // Two of every three samples are poisoned. Their 0.0 score
        // placeholders are then the majority of all scores, so a threshold
        // computed over *all* scores collapses to `min_rise` (median and
        // MAD both zero) and every ripple maximum becomes a spurious peak.
        // Computed over the finite samples' scores only, the threshold
        // stays calibrated to the ripple and only the real spike clears it.
        let mut x = flat_with_spikes(301, &[(150, 25.0)]);
        for (i, v) in x.iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = f64::NAN;
            }
        }
        let peaks = find_peaks(&x, &PeakConfig::default());
        assert_eq!(peaks.len(), 1, "peaks: {peaks:?}");
        assert_eq!(peaks[0].index, 150);
    }

    #[test]
    fn all_nan_input_has_no_peaks() {
        let x = vec![f64::NAN; 100];
        assert!(find_peaks(&x, &PeakConfig::default()).is_empty());
    }

    #[test]
    fn shortest_scored_input_is_two_windows_and_a_sample() {
        // n == 2w+1: only the centre bin has full windows on both sides.
        let cfg = PeakConfig {
            half_window: 2,
            ..PeakConfig::default()
        };
        let peaks = find_peaks(&[1.0, 1.0, 5.0, 1.0, 1.0], &cfg);
        assert_eq!(
            peaks,
            vec![Peak {
                index: 2,
                value: 5.0,
                score: 4.0
            }]
        );
        assert!(find_peaks(&[1.0, 1.0, 5.0, 1.0], &cfg).is_empty());
    }

    #[test]
    fn a_window_with_no_finite_sample_adds_no_rise() {
        // Bin 3's left window is all NaN, so its score is half the right
        // rise: 0.5 · (0 + (5 − 1)) = 2.
        let x = [1.0, f64::NAN, f64::NAN, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let cfg = PeakConfig {
            half_window: 2,
            ..PeakConfig::default()
        };
        let peaks = find_peaks(&x, &cfg);
        assert_eq!(peaks.len(), 1, "peaks: {peaks:?}");
        assert_eq!((peaks[0].index, peaks[0].score), (3, 2.0));
    }

    #[test]
    fn zero_half_window_is_treated_as_one() {
        let with = |half_window| PeakConfig {
            half_window,
            ..PeakConfig::default()
        };
        let x = flat_with_spikes(120, &[(30, 9.0), (31, 4.0), (90, 12.0)]);
        assert_eq!(find_peaks(&x, &with(0)), find_peaks(&x, &with(1)));
        assert_eq!(find_peaks(&[1.0, 5.0, 1.0], &with(0)).len(), 1);
        assert!(find_peaks(&[1.0, 5.0], &with(0)).is_empty());
    }

    #[test]
    fn min_distance_zero_and_one_keep_the_closest_candidates() {
        // Two strict local maxima are at least two bins apart; with a
        // spacing of 0 or 1 both survive, from 3 on only the higher one.
        let x = flat_with_spikes(100, &[(50, 20.0), (52, 25.0)]);
        let spaced = |min_distance| {
            let cfg = PeakConfig {
                min_distance,
                ..PeakConfig::default()
            };
            find_peaks(&x, &cfg)
                .iter()
                .map(|p| p.index)
                .collect::<Vec<_>>()
        };
        assert_eq!(spaced(0), vec![52, 50]);
        assert_eq!(spaced(1), vec![52, 50]);
        assert_eq!(spaced(2), vec![52, 50]);
        assert_eq!(spaced(3), vec![52]);
    }

    #[test]
    fn equal_candidates_keep_index_order() {
        // Equal values sort stably, so the lower index goes first and is
        // the one that survives suppression.
        let x = flat_with_spikes(100, &[(40, 20.0), (42, 20.0), (70, 20.0)]);
        let spaced = |min_distance| {
            let cfg = PeakConfig {
                min_distance,
                ..PeakConfig::default()
            };
            find_peaks(&x, &cfg)
                .iter()
                .map(|p| p.index)
                .collect::<Vec<_>>()
        };
        assert_eq!(spaced(2), vec![40, 42, 70]);
        assert_eq!(spaced(3), vec![40, 70]);
    }

    #[test]
    fn parabolic_degenerate_is_zero() {
        assert_eq!(parabolic_offset(&[1.0, 1.0, 1.0], 1), 0.0);
        assert_eq!(parabolic_offset(&[1.0, 0.5, 1.0], 1), 0.0); // valley
    }
}
