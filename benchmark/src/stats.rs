//! Exact order statistics over the latency samples the benchmark
//! records itself — no log₂ histogram buckets anywhere in a reported
//! number.

/// Sort ascending (latencies are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank percentile of an ascending slice, in tenths of a
/// percent (integers, so p90 of 100 samples is the 90th and not, by a
/// rounding error, the 91st): the smallest sample with at least that
/// share of the samples at or below it. 0 on an empty slice.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

fn rank(len: usize, permille: usize) -> usize {
    (len * permille).div_ceil(1000).clamp(1, len)
}

pub const P50: usize = 500;

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), P50)
}

/// The percentiles a tail may be reported at, in tenths of a percent.
const TAIL_LADDER: [usize; 4] = [999, 990, 900, P50];

/// The percentile rule: the highest percentile of the ladder that still
/// has at least ten samples beyond it (a p99 of 150 samples would be
/// its second-largest value — an anecdote, not a statistic). Falls back
/// to the median. Returns `(percentile, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let permille = TAIL_LADDER
        .into_iter()
        .find(|&p| !sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= 10)
        .unwrap_or(P50);
    (permille as f64 / 10.0, percentile(sorted, permille))
}

/// Quartiles by the method Python's `statistics.quantiles(v, n=4)` uses
/// (exclusive), so `check` judges spread the way the driver does.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v.to_vec());
    let (len, m) = (s.len() as i64, s.len() as i64 + 1);
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative or above 4 when `j` was clamped: Python extrapolates.
        let delta = (i * m - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile(&[], P50), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: usize| tail(&(1..=n).map(|i| i as f64).collect::<Vec<_>>()).0;
        assert_eq!(of(0), 50.0);
        assert_eq!(of(19), 50.0); // p90 would leave one beyond
        assert_eq!(of(100), 90.0); // exactly ten beyond p90
        assert_eq!(of(999), 90.0); // p99 would leave nine
        assert_eq!(of(1000), 99.0);
        assert_eq!(of(10_000), 99.9);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
