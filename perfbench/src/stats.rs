//! Order statistics the report is built from.

/// The `p`-th percentile (`0 < p <= 100`) of `sorted` by the
/// nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (the mean of the two middle samples for an even
/// count), as Python's `statistics.median` gives it. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method,
/// linear interpolation between order statistics). `None` for fewer
/// than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    // Python's algorithm verbatim: j is clamped to 1..n-1, so with few
    // samples delta leaves 0..4 and the cut extrapolates.
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread as the benchmark contract defines it: the distance
/// between the first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Nearest rank never interpolates: p50 of an even count is the
        // lower middle sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Reference values from statistics.quantiles(v, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        let odd = [10.0, 12.0, 15.0, 11.0, 14.0];
        assert_eq!(quartiles(&odd), Some((10.5, 14.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&ten).unwrap();
        assert!((r - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[100.0, 100.0, 100.0]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }
}
