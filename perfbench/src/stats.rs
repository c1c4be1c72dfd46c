//! Percentiles under the benchmark's support rule.
//!
//! A percentile is *supported* only when at least ten samples lie beyond
//! it: a p99 needs 1000 samples, a p50 needs 20. Unsupported values are
//! still computed (nearest rank) but every caller carries the flag, so the
//! report can say "unsupported" instead of passing noise off as a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with its support verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Nearest-rank value (`NaN` for an empty sample).
    pub value: f64,
    /// Sample count it was computed from.
    pub count: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond it.
    pub supported: bool,
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, which need not
/// be sorted.
pub fn quantile(samples: &[f64], p: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, p)
}

/// [`quantile`] over an already ascending sample.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Quantile {
    let count = sorted.len();
    if count == 0 {
        return Quantile {
            value: f64::NAN,
            count,
            supported: false,
        };
    }
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it. The ratio is in [0, count], so the cast cannot truncate.
    let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
    Quantile {
        value: sorted[rank - 1],
        count,
        supported: count - rank >= MIN_BEYOND,
    }
}

/// Arithmetic mean (`NaN` for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples per window for [`windowed`]: enough for a supported p99.
pub const WINDOW_SAMPLES: usize = 1000;
/// Most windows a run is split into.
pub const MAX_WINDOWS: usize = 32;

/// One window of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Median latency.
    pub p50: f64,
    /// p99 latency.
    pub p99: f64,
    /// Replies per second.
    pub rate: f64,
    /// Replies within the latency limit per second.
    pub good_rate: f64,
}

/// Per-window statistics of a run: the median latency over windows, and
/// the tail and rates of the quietest window (the lowest p99). On a
/// shared host a window's tail mostly measures interference from outside
/// the program (a descheduled vCPU delays every request in flight, and
/// with it a closed loop's rate), which only ever adds latency; the
/// quietest window is what the program itself produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Samples in all windows together.
    pub count: usize,
    /// Median over windows of the window's median latency.
    pub p50: f64,
    /// Whether every window's p99 had ten samples beyond it.
    pub p99_supported: bool,
    /// The window with the lowest p99.
    pub quiet: Window,
    /// Every window, in order.
    pub windows: Vec<Window>,
}

/// Splits `samples` — `(completion second, latency)` pairs ordered by
/// completion, measured from `start` — into as many consecutive windows
/// of at least [`WINDOW_SAMPLES`] samples as there are (1 to
/// [`MAX_WINDOWS`]). A window spans from the previous window's last
/// completion to its own last completion.
pub fn windowed(samples: &[(f64, f64)], start: f64, limit: f64) -> Windowed {
    let count = samples.len();
    let n = (count / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let mut windows = Vec::with_capacity(n);
    let mut supported = count > 0;
    let mut from = start;
    for w in 0..n {
        let chunk = &samples[w * count / n..(w + 1) * count / n];
        let lat: Vec<f64> = chunk.iter().map(|s| s.1).collect();
        let p99 = quantile(&lat, 0.99);
        supported &= p99.supported;
        let to = chunk.last().map_or(from, |s| s.0);
        let span = (to - from).max(f64::MIN_POSITIVE);
        windows.push(Window {
            p50: quantile(&lat, 0.5).value,
            p99: p99.value,
            rate: chunk.len() as f64 / span,
            good_rate: lat.iter().filter(|&&l| l <= limit).count() as f64 / span,
        });
        from = to;
    }
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50).collect();
    let quiet = windows
        .iter()
        .copied()
        .min_by(|a, b| a.p99.total_cmp(&b.p99))
        .expect("at least one window");
    Windowed {
        count,
        p50: quantile(&p50s, 0.5).value,
        p99_supported: supported,
        quiet,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let at = quantile(&ramp(1000), 0.99);
        assert_eq!(at.value, 990.0);
        assert!(at.supported, "ten samples (991..=1000) lie beyond");
        let short = quantile(&ramp(999), 0.99);
        assert!(!short.supported, "only nine samples lie beyond");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(quantile(&ramp(20), 0.5).supported);
        let q = quantile(&ramp(19), 0.5);
        assert_eq!(q.value, 10.0);
        assert!(!q.supported);
    }

    #[test]
    fn windows_hold_a_supported_p99_each_and_report_medians() {
        // 3500 samples: three windows, one per ~1167 samples, one second
        // each; the middle window is slow.
        let samples: Vec<(f64, f64)> = (0..3500)
            .map(|i| {
                let w = i * 3 / 3500;
                let t = w as f64 + (i - w * 3500 / 3) as f64 / 1200.0;
                (t, if w == 1 { 50.0 } else { 1.0 })
            })
            .collect();
        let w = windowed(&samples, 0.0, 10.0);
        assert_eq!(w.windows.len(), 3);
        assert!(w.p99_supported);
        assert_eq!(w.p50, 1.0, "the slow window is outvoted");
        assert_eq!(w.quiet.p99, 1.0, "the quietest window's tail");
        assert!(
            w.windows[1].good_rate < w.windows[0].good_rate / 100.0,
            "50 ms is over the limit"
        );
        assert_eq!(w.count, 3500);
        let few = windowed(&samples[..999], 0.0, 10.0);
        assert_eq!(few.windows.len(), 1);
        assert!(!few.p99_supported);
    }

    #[test]
    fn empty_and_unsorted_samples() {
        let empty = quantile(&[], 0.5);
        assert!(empty.value.is_nan() && !empty.supported && empty.count == 0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5).value, 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
