//! Order statistics over latency samples.

/// Median with the two middle values averaged on an even count; `NaN`
/// on no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]`: the smallest sample with at
/// least `q·n` samples at or below it; `NaN` on no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly above the `q` quantile: how well a tail
/// percentile is supported.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

/// Arithmetic mean; `NaN` on no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `a / b`, or 0 when `b` is zero (an idle layer has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
