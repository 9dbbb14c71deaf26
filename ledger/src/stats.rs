//! Order statistics over small sample sets.

/// The three quartiles the way Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so spreads computed here match the
/// driver's. Fewer than two values have no spread: all three read the value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// (max − min) ÷ min; 0 for fewer than two values.
pub fn rel_range(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    if values.len() < 2 || min <= 0.0 {
        0.0
    } else {
        (max - min) / min
    }
}

/// The `per_mille`-th thousandth of an ascending-sorted sample, nearest
/// rank below. 0 when the sample is empty.
pub fn percentile(sorted: &[u64], per_mille: usize) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[(n - 1) * per_mille / 1000],
    }
}

pub fn mean(values: impl IntoIterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for v in values {
        sum += v as u128;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn percentile_is_nearest_rank_below() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), 500);
        assert_eq!(percentile(&v, 990), 990);
        assert_eq!(percentile(&[], 990), 0);
    }
}
