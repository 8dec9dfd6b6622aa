//! Summary statistics for the benchmark: medians, quantiles, the
//! "highest percentile with at least ten samples beyond it" rule, and the
//! geometric mean used to average per-key medians.

/// Median of the values (sorts in place). `NaN`-free input is the
/// caller's job; an empty slice yields `NaN`.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_PERCENTILES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it (p95 needs 200 samples, p99 1000); `None` below
/// 40 samples, where only the median is reported.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        // (The epsilon absorbs the rounding of 100 - 99.9.)
        .find(|p| samples as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
}

/// Geometric mean of strictly positive values (`NaN` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the self-check reports the spread the driver will see.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.95), 95.0);
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
    }
}
