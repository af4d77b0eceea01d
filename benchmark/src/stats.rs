//! Order statistics for timings.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; a sample too small for any tail percentile reports its
//! median, and the label says so.

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of sorted `values`, nearest rank.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// True when the `q`-quantile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
fn percentile_reportable(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1)) >= MIN_BEYOND
}

/// The tail of a latency sample: the highest of p99 and p90 with at least
/// [`MIN_BEYOND`] samples beyond it, otherwise the median. Returns the
/// value and its label.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    let v = sorted(values);
    [(0.99, "p99"), (0.9, "p90")]
        .into_iter()
        .find(|&(q, _)| percentile_reportable(v.len(), q))
        .map_or_else(
            || (median(&v), "p50"),
            |(q, label)| (nearest_rank(&v, q), label),
        )
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so exactly 10 lie beyond p99.
        assert!(percentile_reportable(1000, 0.99));
        assert!(!percentile_reportable(999, 0.99));
        assert!(!percentile_reportable(1000, 0.999));
        assert!(percentile_reportable(20, 0.5));
        assert!(!percentile_reportable(19, 0.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_the_sample_supports() {
        let sample = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(tail(&sample(2000)), (1980.0, "p99"));
        assert_eq!(tail(&sample(999)), (900.0, "p90"));
        assert_eq!(tail(&sample(8)), (4.5, "p50"));
    }
}
