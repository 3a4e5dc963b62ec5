//! DSP substrate performance: FFT (radix-2 and Bluestein), windows, peak
//! detection. Run with `cargo bench --bench dsp`.

use fase_bench::harness::BenchReport;
use fase_dsp::peaks::{find_peaks, PeakConfig};
use fase_dsp::{Complex64, FftPlan, Window};
use std::hint::black_box;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let a = ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0;
            Complex64::new(a, -a * 0.5)
        })
        .collect()
}

fn bench_fft(report: &mut BenchReport) {
    for &n in &[4096usize, 65536, 131072] {
        let plan = FftPlan::new(n);
        let data = signal(n);
        report.run(&format!("fft_radix2_{n}"), 3, 20, || {
            let mut buf = data.clone();
            plan.forward(&mut buf);
            black_box(buf[0]);
        });
    }
    // Bluestein path (non power of two).
    let n = 100_000usize;
    let plan = FftPlan::new(n);
    let data = signal(n);
    report.run("fft_bluestein_100k", 2, 20, || {
        let mut buf = data.clone();
        plan.forward(&mut buf);
        black_box(buf[0]);
    });
}

fn bench_window(report: &mut BenchReport) {
    report.run("blackman_harris_131072", 2, 20, || {
        black_box(Window::BlackmanHarris.coefficients(131072));
    });
}

fn bench_welch_and_ridge(report: &mut BenchReport) {
    use fase_dsp::demod::ridge_track;
    use fase_dsp::welch::{welch_psd, WelchConfig};
    use fase_dsp::Hertz;
    let n = 1 << 16;
    let fs = 1.0e6;
    let iq: Vec<Complex64> = (0..n)
        .map(|i| Complex64::cis(0.3 * i as f64) + signal(1)[0].scale(1e-3))
        .collect();
    report.run("welch_psd_64k", 2, 20, || {
        black_box(
            welch_psd(&iq, Hertz(0.0), fs, &WelchConfig::default())
                .unwrap()
                .len(),
        );
    });
    report.run("ridge_track_64k", 2, 20, || {
        black_box(ridge_track(&iq, fs, 64, 32, Window::Hann).len());
    });
}

fn bench_peaks(report: &mut BenchReport) {
    let mut xs = vec![1.0f64; 80_000];
    for (i, x) in xs.iter_mut().enumerate() {
        *x += 0.1 * (((i * 2654435761) % 997) as f64 / 997.0);
    }
    for k in 1..20 {
        xs[k * 4_000] = 30.0;
    }
    let cfg = PeakConfig::default();
    report.run("find_peaks_80k_bins", 2, 20, || {
        black_box(find_peaks(&xs, &cfg));
    });
    // The configuration `detect_in_trace` derives from
    // `DetectorConfig::default()`, on one survey band's trace length: the
    // wide window is where the per-bin neighbourhood cost shows.
    let cfg = PeakConfig {
        half_window: 30,
        threshold_mads: 7.0,
        min_rise: 0.5 * 8f64.ln(),
        min_distance: 6,
    };
    report.run("find_peaks_10k_bins_detector", 3, 50, || {
        black_box(find_peaks(&xs[..10_000], &cfg));
    });
}

fn main() {
    let mut report = BenchReport::new();
    bench_fft(&mut report);
    bench_window(&mut report);
    bench_peaks(&mut report);
    bench_welch_and_ridge(&mut report);
}
