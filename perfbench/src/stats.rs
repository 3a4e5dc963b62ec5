//! Order statistics over one run's latency samples.
//!
//! Percentiles are nearest-rank over *all* samples of the run, sorted
//! with `f64::total_cmp` (a total order, so a stray NaN cannot panic the
//! sort or scramble it). The tail percentile is chosen per workload with
//! [`tail_percentile`]: the highest rung of [`TAIL_LADDER`] that still
//! leaves at least [`TAIL_BEYOND`] samples above it, so the tail is a
//! measured quantity rather than the single worst op.

/// Candidate tail percentiles, lowest first.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9];

/// Samples that must lie strictly beyond the tail percentile's rank.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer tenths of a percent so `p99.5` of 2000 is exactly rank 1990.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples ranked above percentile `p` among `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it at `n` samples, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p, n) >= TAIL_BEYOND)
}

/// Fewest samples at which percentile `p` has [`TAIL_BEYOND`] beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..1_000_000)
        .find(|&n| beyond(p, n) >= TAIL_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Nearest-rank percentile `p` of `samples` (sorted internally with a
/// total order). Returns `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(2_000), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 333, 1_000, 4_321] {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(beyond(p, n) >= TAIL_BEYOND, "p{p} at n={n}");
            // The next rung up (if any) would leave fewer than ten.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(next, n) < TAIL_BEYOND, "p{next} at n={n}");
            }
        }
    }

    #[test]
    fn min_samples_inverts_the_rule() {
        for p in TAIL_LADDER {
            let n = min_samples_for(p);
            assert!(beyond(p, n) >= TAIL_BEYOND);
            assert!(beyond(p, n - 1) < TAIL_BEYOND);
            assert!(tail_percentile(n).is_some_and(|q| q >= p));
        }
        assert_eq!(min_samples_for(75.0), 40);
        assert_eq!(min_samples_for(90.0), 100);
    }

    #[test]
    fn percentile_is_nearest_rank_with_a_total_order() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Five samples: p95 is the maximum only because nothing else is
        // left — which is exactly why the tail rule refuses small n.
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 5.0, 4.0], 95.0), 5.0);
        // A NaN sorts last under total_cmp instead of panicking.
        assert_eq!(percentile(&[2.0, f64::NAN, 1.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
