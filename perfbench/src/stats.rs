//! Percentiles that refuse to overstate their evidence.

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `values`, or `None`
/// when fewer than ten samples lie beyond it: a p99 needs 1,000 samples,
/// a p90 100 and a median 20.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `values` (`None` when empty), without the ten-beyond
/// rule: for aggregating a handful of repeated measurements.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), None, "p99 of 999 has 9 beyond");
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values[..99], 0.90), None);
        assert_eq!(percentile(&values[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&values[..19], 0.5), None);
        assert_eq!(percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
