//! Order statistics over latency samples.
//!
//! Every timing the harness reports is a median or a percentile of raw
//! samples, and carries its sample count; the percentile rule follows
//! the choosing-metrics guide (a percentile is only as good as the number
//! of samples beyond it).

/// Samples that must lie beyond a percentile for it to be reported as
/// the workload's tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `[0, 1]` of unsorted samples; `0.0` for
/// an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// Median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `0.0` for no values.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Largest value; `0.0` for no values.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Geometric mean of positive values (non-positive entries are skipped,
/// since a latency of zero means the clock did not resolve the call).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((n - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    n - 1 - rank
}

/// Does percentile `p` of `n` samples have [`MIN_SAMPLES_BEYOND`] samples
/// past it?  The run record flags tails that do not.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_and_max_of_nothing_are_zero() {
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean([]), 0.0);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_every_statement_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // A zero (unresolved clock) is skipped, not allowed to zero the mean.
        assert!((geomean(&[0.0, 4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn sample_count_rule_matches_the_issue_sizes() {
        // 6 000 serving samples and 500 ingest samples both leave >= 25
        // beyond p95; 65 SSB samples do not support a p95 tail.
        assert!(samples_beyond(6_000, 0.95) >= 25);
        assert!(samples_beyond(500, 0.95) >= 25);
        assert!(tail_supported(500, 0.95));
        assert!(!tail_supported(65, 0.95));
        assert_eq!(samples_beyond(0, 0.95), 0);
    }
}
