//! Order statistics. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), so `--aa`
//! and `--compare` do the same arithmetic as whoever re-checks them.

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a tenth of the way up the sorted sample: with 16 to 19 values
/// the second smallest.
///
/// This is what a run reports as its pass time. Neighbours on a shared
/// host only ever slow a pass down, and they do so for minutes at a time,
/// so within one run most passes may be slowed and their median moves with
/// the neighbours (10 to 25 % between runs of identical code, measured).
/// The fast end of the sample is what the code costs when left alone; the
/// second smallest rather than the smallest so that one fluke does not set
/// the result.
pub fn fast_decile(values: &[f64]) -> f64 {
    let v = sorted(values);
    v.get(v.len() / 10).copied().unwrap_or(0.0)
}

/// First, second and third quartile. Fewer than two values have no spread:
/// all three read the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The percentiles a metric name may carry, each with the `d` of the
/// `1/d` share of samples that lies beyond it.
const LADDER: [(f64, usize); 4] = [(0.5, 2), (0.9, 10), (0.99, 100), (0.999, 1000)];

/// The highest percentile of [`LADDER`] that still has at least ten of `n`
/// samples beyond it; the median when none has.
pub fn supported_percentile(n: usize) -> f64 {
    LADDER
        .into_iter()
        .rev()
        .find(|&(_, d)| n >= 10 * d)
        .map_or(0.5, |(p, _)| p)
}

/// The `p` percentile of `values`, lowered to [`supported_percentile`] when
/// the sample is too small to carry `p`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let p = p.min(supported_percentile(v.len()));
    v[((v.len() - 1) as f64 * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_decile_is_a_tenth_of_the_way_up() {
        let v: Vec<f64> = (0..16).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&v), 1.0);
        assert_eq!(fast_decile(&v[..9]), 7.0);
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(fast_decile(&v), 5.0);
        assert_eq!(fast_decile(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), 0.5);
        assert_eq!(supported_percentile(20), 0.5);
        assert_eq!(supported_percentile(99), 0.5);
        assert_eq!(supported_percentile(100), 0.9);
        assert_eq!(supported_percentile(999), 0.9);
        assert_eq!(supported_percentile(1_000), 0.99);
        assert_eq!(supported_percentile(10_000), 0.999);
    }

    #[test]
    fn unsupported_percentile_is_lowered_not_extrapolated() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        // 200 samples carry p90 (20 beyond) but not p99 (2 beyond).
        assert_eq!(percentile(&v, 0.9), 179.0);
        assert_eq!(percentile(&v, 0.99), 179.0);
        assert_eq!(percentile(&v, 0.5), 100.0);
    }
}
