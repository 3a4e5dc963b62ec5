//! Small descriptive-statistics helpers used across the workspace.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns 0.0 for slices shorter than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of the finite elements, found by selection on a copy (O(n)
/// expected; see [`percentile`]). Returns 0.0 if no finite elements remain.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]`, computed over the
/// finite elements only (NaN/±Inf bins — e.g. from a glitched capture —
/// are ignored rather than poisoning the estimate).
/// Returns 0.0 if no finite elements remain.
///
/// The two order statistics are found by selection rather than a full
/// sort, so this is O(n) expected; the result is bit-identical to
/// interpolating in a `total_cmp`-sorted copy.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or NaN.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    select_percentile(&mut finite_copy(xs), p)
}

/// Median absolute deviation — a robust spread estimate, used by the peak
/// detector to set thresholds that survive strong outlier peaks.
pub fn mad(xs: &[f64]) -> f64 {
    median_and_mad(xs).1
}

/// [`median`] and [`mad`] of `xs` together, from one copy of its finite
/// elements (bit-identical to calling both).
pub(crate) fn median_and_mad(xs: &[f64]) -> (f64, f64) {
    let mut finite = finite_copy(xs);
    let m = select_percentile(&mut finite, 50.0);
    for x in &mut finite {
        *x = (*x - m).abs();
    }
    // A deviation between two huge finite values can overflow to +Inf;
    // like a non-finite element, it does not take part.
    finite.retain(|d| d.is_finite());
    (m, select_percentile(&mut finite, 50.0))
}

fn finite_copy(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().filter(|x| x.is_finite()).collect()
}

/// Percentile `p` of `xs` (all finite; reordered in place), or 0.0 if
/// empty. `select_nth_unstable_by` places the lower order statistic, and
/// the upper one is the `total_cmp` minimum of the partition above it.
/// Elements equal under `total_cmp` have the same bits, so the result does
/// not depend on how selection orders them.
fn select_percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (_, &mut lo_v, upper) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return lo_v;
    }
    let hi_v = upper.iter().copied().min_by(f64::total_cmp).unwrap_or(lo_v);
    let frac = rank - lo as f64;
    lo_v * (1.0 - frac) + hi_v * frac
}

/// Index of the maximum *finite* element; `None` for an empty slice or
/// one with no finite elements. NaN/±Inf entries never win (a NaN bin in
/// a poisoned spectrum must not become "the peak").
pub fn argmax(xs: &[f64]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .filter(|(_, x)| x.is_finite())
        .fold(None, |best: Option<(usize, f64)>, (i, &x)| match best {
            Some((_, bx)) if bx >= x => best,
            _ => Some((i, x)),
        })
        .map(|(i, _)| i)
}

/// Greatest common divisor of two positive reals within a relative
/// tolerance — used to group detected carriers into harmonic sets
/// (315/630/945 kHz → 315 kHz).
///
/// Returns `None` if either input is non-positive or no divisor within
/// tolerance exists after a bounded Euclid iteration.
pub fn real_gcd(a: f64, b: f64, rel_tol: f64) -> Option<f64> {
    if a <= 0.0 || b <= 0.0 || !a.is_finite() || !b.is_finite() {
        return None;
    }
    let tol = a.max(b) * rel_tol;
    let (mut x, mut y) = (a.max(b), a.min(b));
    for _ in 0..64 {
        if y < tol {
            return Some(x);
        }
        let r = x % y;
        // Snap remainders near 0 or near y (float wobble around exact division).
        let r = if r < tol || (y - r) < tol { 0.0 } else { r };
        x = y;
        y = r;
    }
    None
}

// ---------------------------------------------------------------------------
// Guarded NaN-able operations.
//
// The DSP hot paths (fase-lint rule `U-nan`) route square roots and
// logarithms through these helpers so an argument that drifts infinitesimally
// out of domain — a power that rounds to -1e-17, a uniform variate that
// lands exactly on 0 — clamps instead of poisoning a pipeline with NaN.

/// Square root clamped against negative arguments: `sqrt(max(x, 0))`.
///
/// # Examples
///
/// ```
/// use fase_dsp::stats::safe_sqrt;
/// assert_eq!(safe_sqrt(4.0), 2.0);
/// assert_eq!(safe_sqrt(-1e-17), 0.0);
/// ```
pub fn safe_sqrt(x: f64) -> f64 {
    x.max(0.0).sqrt()
}

/// Natural logarithm clamped away from the non-positive domain:
/// `ln(max(x, f64::MIN_POSITIVE))`.
///
/// # Examples
///
/// ```
/// use fase_dsp::stats::safe_ln;
/// assert_eq!(safe_ln(1.0), 0.0);
/// assert!(safe_ln(0.0).is_finite());
/// ```
pub fn safe_ln(x: f64) -> f64 {
    x.max(f64::MIN_POSITIVE).ln()
}

/// Base-10 logarithm clamped away from the non-positive domain; the
/// building block behind the dB conversions in [`crate::units`].
pub fn safe_log10(x: f64) -> f64 {
    x.max(f64::MIN_POSITIVE).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_ops_clamp_out_of_domain_arguments() {
        assert_eq!(safe_sqrt(9.0), 3.0);
        assert_eq!(safe_sqrt(-4.0), 0.0);
        assert_eq!(safe_sqrt(f64::NAN), 0.0);
        assert_eq!(safe_ln(std::f64::consts::E), 1.0);
        assert!(safe_ln(-1.0).is_finite());
        assert_eq!(safe_log10(1000.0), 3.0);
        assert!(safe_log10(0.0).is_finite());
    }

    #[test]
    fn mean_var_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 25.0), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_is_robust() {
        let xs = [1.0, 1.0, 1.0, 1.0, 1000.0];
        assert_eq!(mad(&xs), 0.0);
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mad(&ys), 1.0);
    }

    #[test]
    fn argmax_works() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_non_finite() {
        assert_eq!(argmax(&[1.0, f64::NAN, 3.0]), Some(2));
        assert_eq!(argmax(&[1.0, f64::INFINITY, 3.0]), Some(2));
        assert_eq!(argmax(&[f64::NAN, f64::NEG_INFINITY]), None);
    }

    #[test]
    fn percentile_ignores_non_finite() {
        let xs = [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 3.0);
        assert_eq!(median(&[f64::NAN; 4]), 0.0);
    }

    #[test]
    fn mad_survives_poisoned_bins() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, f64::NAN];
        assert_eq!(mad(&xs), 1.0);
    }

    #[test]
    fn gcd_of_harmonics() {
        // 315 kHz harmonic set.
        let g = real_gcd(630_000.0, 945_000.0, 1e-6).unwrap();
        assert!((g - 315_000.0).abs() < 1.0, "g = {g}");
        // With measurement error.
        let g = real_gcd(630_010.0, 944_980.0, 1e-3).unwrap();
        assert!((g - 315_000.0).abs() < 500.0, "g = {g}");
        assert_eq!(real_gcd(-1.0, 2.0, 1e-6), None);
    }
}
