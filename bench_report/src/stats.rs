//! Order statistics over raw samples.
//!
//! The definitions match Python's `statistics` module (`median`, and
//! `quantiles(values, n=4)` with its default exclusive method), so spreads
//! computed here and spreads recomputed from a report's raw samples agree.

/// Samples sorted ascending; NaNs are not expected (every sample is a
/// measured duration, size or count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// First, second and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, _, q3]| q3 - q1)
}

/// Nearest-rank percentile `p` (0 < p < 100): the sample at rank
/// `ceil(p/100 · n)`. Refused (`None`) unless at least ten samples lie
/// beyond that rank, since a tail read from fewer samples is one outlier.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, v.len());
    (v.len() - rank >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(iqr(&v), Some(5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_refuses_tails_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990 leaves exactly 10 samples beyond it.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&v[..60], 80.0), Some(48.0));
        assert_eq!(percentile(&v[..50], 80.0), Some(40.0));
        assert_eq!(percentile(&v[..49], 80.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v, 100.0), None);
    }
}
