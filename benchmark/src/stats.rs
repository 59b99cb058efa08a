//! The few statistics the reports and the regression gate need.

/// Nearest-rank percentile of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let rank = (q * x.len() as f64).ceil() as usize;
    x[rank.clamp(1, x.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the acceptance procedure uses that function).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Median (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    match x.len() {
        0 => 0.0,
        n if n % 2 == 1 => x[n / 2],
        n => (x[n / 2 - 1] + x[n / 2]) / 2.0,
    }
}

/// Interquartile distance as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
