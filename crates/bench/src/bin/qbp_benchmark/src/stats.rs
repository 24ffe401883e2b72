//! Order statistics for the reported timings.

/// Samples a percentile must leave beyond it before it is reported: a tail
/// read off fewer samples is a few slow outliers, not a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample with at
/// least `p`% of the samples at or below it. `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p).max(1) - 1])
}

/// 1-based nearest rank of the `p`th percentile among `n` samples. The
/// epsilon keeps `99.9 × 10 000 / 100` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).min(n)
}

/// Median (nearest-rank 50th percentile, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_an_observed_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 100.0), Some(1000.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), TAIL_SAMPLES);
        assert!(beyond(999, 99.0) < TAIL_SAMPLES);
        assert_eq!(beyond(10_000, 99.9), TAIL_SAMPLES);
        assert_eq!(beyond(100, 90.0), TAIL_SAMPLES);
        assert_eq!(beyond(20, 50.0), TAIL_SAMPLES);
    }
}
