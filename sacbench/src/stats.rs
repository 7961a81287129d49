//! Order statistics shared by the end-to-end metrics, the per-layer profile
//! and `compare`.

/// Fewest samples that must lie beyond a percentile before it is reported:
/// below this the "percentile" is just one of the few largest samples.
pub const MIN_BEYOND: usize = 10;

/// The 1-based rank `⌈p·n⌉` of percentile `p` in `n` sorted samples.
pub fn percentile_rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Percentile `p` of `sorted` (ascending) at rank `⌈p·n⌉`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = percentile_rank(p, sorted.len());
    if sorted.is_empty() || sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First and third quartile by Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so spreads read the same here as in
/// any script that checks them.  `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// `values` sorted ascending (NaN-free input assumed: every sample here is a
/// measured duration, size or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_ceiling_rank() {
        assert_eq!(percentile_rank(0.5, 10), 5);
        assert_eq!(percentile_rank(0.9, 100), 90);
        assert_eq!(percentile_rank(0.99, 1000), 990);
        assert_eq!(percentile_rank(0.99, 1001), 991);
        assert_eq!(percentile_rank(0.0, 7), 1);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(100.0));
        assert_eq!(percentile(&values, 0.9), Some(180.0));
    }

    #[test]
    fn percentile_with_fewer_than_ten_samples_beyond_is_refused() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank 990 of 999 leaves 9 samples beyond it.
        assert_eq!(percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        // p90 needs 100 samples, p50 needs 20.
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), None);
        assert_eq!(percentile(&values[..19], 0.5), None);
        assert_eq!(percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
