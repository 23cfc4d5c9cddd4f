//! Order statistics behind every reported figure: nearest-rank
//! percentiles, the "ten samples beyond" tail rule, and the median and
//! interquartile range used to judge run-to-run spread.

/// Percentiles, in per mille, that a tail figure is chosen from.
pub const TAIL_LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the maximum of a handful of samples.
pub const MIN_BEYOND: usize = 10;

/// One-based rank of the nearest-rank `per_mille` percentile among `n`
/// samples: the smallest rank with at least that share of the samples at
/// or below it.
fn rank(n: usize, per_mille: u32) -> usize {
    (per_mille as usize * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], per_mille: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), per_mille) - 1])
}

/// A tail figure and the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub per_mille: u32,
    pub value: f64,
}

impl Tail {
    /// `p95`, `p99.9`, … — the label a run record names the tail by.
    pub fn label(&self) -> String {
        if self.per_mille.is_multiple_of(10) {
            format!("p{}", self.per_mille / 10)
        } else {
            format!("p{}.{}", self.per_mille / 10, self.per_mille % 10)
        }
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it. With too few samples for any of them it falls back to the
/// median, and the label says so.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let per_mille = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    percentile(sorted, per_mille).map(|value| Tail { per_mille, value })
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match spreads computed from the printed results.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 500), Some(5.0));
        assert_eq!(percentile(&v, 900), Some(9.0));
        assert_eq!(percentile(&v, 950), Some(10.0));
        assert_eq!(percentile(&v, 1000), Some(10.0));
        assert_eq!(percentile(&v, 1), Some(1.0));
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
        assert_eq!(percentile(&[], 500), None);
        // 1000 samples: p99 is the 990th value, p99.9 the 999th.
        let v = ramp(1000);
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&v, 999), Some(999.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.per_mille, t.value), (990, 990.0));
        assert_eq!(t.label(), "p99");
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!(t.per_mille, 999);
        assert_eq!(t.label(), "p99.9");
        // 200 samples: p95 leaves 10, p99 only 2.
        assert_eq!(tail(&ramp(200)).unwrap().per_mille, 950);
        // 199 samples: p95 leaves 9, so p90 it is.
        assert_eq!(tail(&ramp(199)).unwrap().per_mille, 900);
        // Too few for any tail: the median, labelled as such.
        let t = tail(&ramp(12)).unwrap();
        assert_eq!((t.per_mille, t.value), (500, 6.0));
        assert_eq!(t.label(), "p50");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_iqr_match_the_exclusive_method() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        assert_eq!(quartiles(&ramp(9)), (2.5, 7.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the exclusive
        // method extrapolates past the ends of small samples.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((iqr_share(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
        let flat = [4.0; 7];
        assert_eq!(iqr_share(&flat), 0.0);
    }
}
