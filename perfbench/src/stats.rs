//! Timing rules shared by every workload.
//!
//! * A tail percentile is reported only when at least [`MIN_BEYOND`]
//!   samples lie beyond it; the sample count is reported with it.
//! * Latencies of an open-loop schedule are taken from each request's
//!   due time (see [`crate::serve_mixed`]).
//! * A failed or refused request is a miss: it enters the latency sample
//!   as `f64::INFINITY`, so it counts against every percentile and every
//!   limit.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank index of percentile `pct` (0 < pct < 100) in `n` sorted
/// samples.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, pct)
    }
}

/// Nearest-rank percentile `pct` of `values`, whatever the sample size;
/// `None` for an empty slice. Misses (`INFINITY`) sort last, so a
/// percentile that reaches them is infinite.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank(sorted.len().max(1), pct)).copied()
}

/// [`percentile`], or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it: the rule for a reported tail.
pub fn tail(values: &[f64], pct: f64) -> Option<f64> {
    if beyond(values.len(), pct) < MIN_BEYOND {
        return None;
    }
    percentile(values, pct)
}

/// Fraction `part / whole`, zero when `whole` is zero.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(tail(&values, 95.0), None, "9 beyond p95 is too few");
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(tail(&values, 95.0), Some(190.0));
        assert_eq!(tail(&values[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&values[..20], 95.0), Some(19.0));
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn a_miss_counts_against_the_tail() {
        let mut values: Vec<f64> = vec![1.0; 190];
        values.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(tail(&values, 95.0), Some(1.0));
        values.push(f64::INFINITY);
        values.swap_remove(0);
        assert_eq!(tail(&values, 95.0), Some(f64::INFINITY));
        assert_eq!(median(&values), Some(1.0));
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
