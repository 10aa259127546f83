//! Exact quantiles over recorded samples.

/// Nearest-rank `q`-quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest of p99, p99.9, … that still has at least ten samples above
/// it, or `None` when even p99 has fewer.
pub fn top_quantile(n: usize) -> Option<f64> {
    // (q, 1 / (1 - q)) in exact integers.
    [
        (0.99, 100),
        (0.999, 1_000),
        (0.9999, 10_000),
        (0.99999, 100_000),
        (0.999999, 1_000_000),
    ]
    .into_iter()
    .take_while(|&(_, tail)| n >= 10 * tail)
    .last()
    .map(|(q, _)| q)
}

/// Median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// A sorted copy's p50, in microseconds (0 with no samples).
pub fn p50_us(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    quantile(&v, 0.5) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_a_known_vector() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&v, 1.0), 1000);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(p50_us(&[3000, 1000, 2000]), 2.0);
    }

    #[test]
    fn top_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(top_quantile(999), None);
        assert_eq!(top_quantile(1000), Some(0.99));
        assert_eq!(top_quantile(9_999), Some(0.99));
        assert_eq!(top_quantile(10_000), Some(0.999));
        assert_eq!(top_quantile(2_000_000), Some(0.99999));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
