//! Order statistics the benchmark reports: medians, quartiles (matching
//! Python's `statistics.quantiles(values, n=4)`, the default `exclusive`
//! method), nearest-rank percentiles, and the tail rule "the highest
//! percentile with at least ten samples beyond it".

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three cut points `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them; `None` below two
/// values (where Python raises).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(s[rank - 1])
}

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest of p99.9/p99/p95/p90/p50 that has at least ten samples
/// strictly above its nearest rank, with its value: `(percentile, value)`.
/// `None` when even the median has fewer than ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + 10).then(|| (p, percentile(values, p).expect("n > 0")))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython:
        //   statistics.quantiles([1..10], n=4)          == [2.75, 5.5, 8.25]
        //   statistics.quantiles([1, 2], n=4)           == [0.75, 1.5, 2.25]
        //   statistics.quantiles([5, 1, 4, 2, 3], n=4)  == [1.5, 3.0, 4.5]
        //   statistics.quantiles([0.91, 1.02, 0.97, 1.10, 0.99, 1.05,
        //                         0.95, 1.01, 1.00, 0.93], n=4)
        //     == [0.945, 0.995, 1.0275]
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
            (
                &[0.91, 1.02, 0.97, 1.10, 0.99, 1.05, 0.95, 1.01, 1.00, 0.93],
                [0.945, 0.995, 1.0275],
            ),
        ];
        for (values, want) in cases {
            let got = quartiles(values).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!(close(*g, w), "{values:?}: got {got:?}, want {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: the median's rank is 10, only 9 lie beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond; p90 has 2.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) has 10 beyond; p95 has only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond; p99.9 has 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&[]), None);
    }
}
