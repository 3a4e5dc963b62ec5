//! Bit-identity property tests for the peak detector and the order
//! statistics under it.
//!
//! `stats::percentile` selects instead of sorting, and `find_peaks` takes
//! its neighbour means from column window sums and suppresses with an
//! index bitmap. The contract is that none of this moves a bit: this file
//! keeps the straightforward sort-based percentile and the direct-sum,
//! quadratic-suppression detector as the reference, and compares every
//! peak's index, value bits and score bits — plus percentiles and MAD —
//! over thousands of seeded inputs with NaN/±Inf bins, `-0.0`, heavy ties
//! and windows with no finite sample. ci.sh runs this file explicitly.

use fase_dsp::peaks::{find_peaks, Peak, PeakConfig};
use fase_dsp::rng::{Rng, SmallRng};
use fase_dsp::stats;

/// Reference percentile: interpolation in a `total_cmp`-sorted copy of
/// the finite elements.
fn ref_percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

fn ref_median(xs: &[f64]) -> f64 {
    ref_percentile(xs, 50.0)
}

fn ref_mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = ref_median(xs);
    let deviations: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    ref_median(&deviations)
}

/// Reference detector: a direct finite-sample sum per neighbourhood and
/// suppression against every kept peak.
fn ref_find_peaks(values: &[f64], config: &PeakConfig) -> Vec<Peak> {
    let n = values.len();
    let w = config.half_window.max(1);
    if n < 2 * w + 1 {
        return Vec::new();
    }
    let finite_mean = |xs: &[f64]| {
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
    let mut scores = vec![0.0f64; n];
    for i in 0..n {
        if !values[i].is_finite() {
            continue;
        }
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(n - 1);
        let rise_left = finite_mean(&values[lo..i]).map_or(0.0, |m| values[i] - m);
        let rise_right = finite_mean(&values[i + 1..=hi]).map_or(0.0, |m| values[i] - m);
        scores[i] = 0.5 * (rise_left + rise_right);
    }
    let finite_scores: Vec<f64> = values
        .iter()
        .zip(&scores)
        .filter(|(x, _)| x.is_finite())
        .map(|(_, &s)| s)
        .collect();
    if finite_scores.is_empty() {
        return Vec::new();
    }
    let med = ref_median(&finite_scores);
    let spread = ref_mad(&finite_scores);
    let threshold = (med + config.threshold_mads * spread).max(config.min_rise);
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
    candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(c.index) >= config.min_distance.max(1))
        {
            kept.push(c);
        }
    }
    kept
}

fn below(rng: &mut SmallRng, bound: usize) -> usize {
    (rng.next_u64() % bound as u64) as usize
}

/// One seeded input: a noise floor in one of several shapes (continuous,
/// quantised with many ties, signed zeros, large offsets), spikes, and
/// optionally poisoned bins — scattered or in runs longer than a window.
fn signal(rng: &mut SmallRng, n: usize, w: usize) -> Vec<f64> {
    let style = below(rng, 5);
    let offset = if below(rng, 4) == 0 { 1.0e6 } else { 0.0 };
    let mut xs: Vec<f64> = (0..n)
        .map(|_| match style {
            0 => offset + rng.gen_range(0.0, 1.0),
            1 => offset + below(rng, 6) as f64 * 0.25,
            2 => [0.0, -0.0, 1.0, -1.0][below(rng, 4)],
            3 => offset - 3.0 + rng.gen_range(-0.1, 0.1) * rng.gen_range(0.0, 1.0),
            _ => {
                if below(rng, 2) == 0 {
                    -0.0
                } else {
                    0.0
                }
            }
        })
        .collect();
    if n == 0 {
        return xs;
    }
    for _ in 0..below(rng, 8) {
        let i = below(rng, n);
        xs[i] = if below(rng, 3) == 0 {
            xs[i] + 40.0
        } else {
            offset + below(rng, 4) as f64 * 10.0
        };
    }
    match below(rng, 4) {
        0 => {}
        1 => {
            for _ in 0..below(rng, n / 8 + 2) {
                let i = below(rng, n);
                xs[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][below(rng, 3)];
            }
        }
        2 => {
            // A run longer than a window: its neighbours see no finite sample.
            let len = (w + 1 + below(rng, w + 2)).min(n);
            let start = below(rng, n - len + 1);
            for x in &mut xs[start..start + len] {
                *x = f64::NAN;
            }
        }
        _ => {
            for x in xs.iter_mut() {
                if below(rng, 3) != 0 {
                    *x = f64::NAN;
                }
            }
        }
    }
    xs
}

fn assert_same_peaks(actual: &[Peak], expected: &[Peak], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: peak count");
    for (k, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.index, e.index, "{what}: peak {k} index");
        assert_eq!(
            a.value.to_bits(),
            e.value.to_bits(),
            "{what}: peak {k} value"
        );
        assert_eq!(
            a.score.to_bits(),
            e.score.to_bits(),
            "{what}: peak {k} score"
        );
    }
}

const PERCENTILES: [f64; 7] = [0.0, 10.0, 25.0, 50.0, 90.0, 99.5, 100.0];

#[test]
fn find_peaks_and_order_statistics_match_the_reference_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0xfa5e_9ea6);
    let (mut with_peaks, mut suppressed) = (0usize, 0usize);
    for case in 0..3_000 {
        let half_window = below(&mut rng, 41);
        let w = half_window.max(1);
        // A quarter of the cases sit at the length cut-off (n < 2w+1 returns
        // nothing, n = 2w+1 is the shortest scored input), a few are empty,
        // and the rest are log-uniform up to 3,000 bins.
        let n = if case % 4 == 0 {
            2 * w - 1 + below(&mut rng, 4)
        } else if case % 50 == 1 {
            0
        } else {
            (3000f64.powf(rng.gen_f64()) as usize).min(3000)
        };
        let config = PeakConfig {
            half_window,
            threshold_mads: [0.0, 1.0, 3.0, 7.0, 8.0][below(&mut rng, 5)],
            min_rise: [1e-12, 0.0, 0.5][below(&mut rng, 3)],
            min_distance: below(&mut rng, 9),
        };
        let xs = signal(&mut rng, n, w);
        let what = format!("case {case} (n {n}, {config:?})");

        let expected = ref_find_peaks(&xs, &config);
        assert_same_peaks(&find_peaks(&xs, &config), &expected, &what);
        with_peaks += usize::from(!expected.is_empty());
        suppressed += usize::from(
            expected.len()
                < find_peaks(
                    &xs,
                    &PeakConfig {
                        min_distance: 1,
                        ..config
                    },
                )
                .len(),
        );

        for p in PERCENTILES {
            assert_eq!(
                stats::percentile(&xs, p).to_bits(),
                ref_percentile(&xs, p).to_bits(),
                "{what}: percentile {p}"
            );
        }
        assert_eq!(
            stats::mad(&xs).to_bits(),
            ref_mad(&xs).to_bits(),
            "{what}: mad"
        );
    }
    // The comparison only means something if the cases exercise detection
    // and suppression, not just the early returns.
    assert!(with_peaks > 1_000, "only {with_peaks} cases found peaks");
    assert!(
        suppressed > 100,
        "only {suppressed} cases suppressed a peak"
    );
}

#[test]
fn percentile_of_signed_zeros_and_ties_matches_the_reference() {
    let cases: [&[f64]; 6] = [
        &[],
        &[-0.0],
        &[0.0, -0.0],
        &[-0.0, 0.0, -0.0, 0.0, f64::NAN],
        &[1.0, 1.0, 1.0, 2.0, 2.0, -0.0, f64::INFINITY],
        &[f64::NEG_INFINITY, f64::NAN],
    ];
    for xs in cases {
        for p in (0..=200).map(|k| k as f64 * 0.5) {
            assert_eq!(
                stats::percentile(xs, p).to_bits(),
                ref_percentile(xs, p).to_bits(),
                "{xs:?} at {p}"
            );
        }
        assert_eq!(stats::mad(xs).to_bits(), ref_mad(xs).to_bits(), "{xs:?}");
    }
}
