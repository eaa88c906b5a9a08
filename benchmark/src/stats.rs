//! Order statistics: median, quartiles and tail percentiles, with the
//! "enough samples beyond it" rule for tails.

/// Sorted copy of `v` (total order; the benchmark never produces NaN).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for even `n`); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) — the rule the
/// driver judges spread by. Needs at least two values; fewer collapse
/// to the single value.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile distance as a share of the median: the spread the
/// bounds in `BENCHMARK.json` are judged against.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile `q` (0–1) of an ascending slice — but only if
/// at least `beyond` samples lie strictly above its rank; a tail with
/// fewer samples behind it is noise, not a percentile.
pub fn percentile_with_beyond(sorted: &[f64], q: f64, beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= beyond).then(|| sorted[rank - 1])
}

/// The highest of 99 / 95 / 90 / 75 that has at least `beyond` samples
/// beyond it, as `(percent, value)`.
pub fn highest_supported_percentile(sorted: &[f64], beyond: usize) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find_map(|p| percentile_with_beyond(sorted, p as f64 / 100.0, beyond).map(|v| (p, v)))
}

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// The reported value: the median of the samples.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    pub fn of(samples: &[f64]) -> Stat {
        let s = sorted(samples);
        let [q1, q2, q3] = quartiles(&s);
        Stat {
            value: q2,
            q1,
            q3,
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
            n: s.len(),
        }
    }

    /// A value measured once (a count, an exact ratio).
    pub fn single(value: f64) -> Stat {
        Stat::of(&[value])
    }
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 has exactly ten samples beyond rank 190.
        assert_eq!(percentile_with_beyond(&v, 0.95, 10), Some(190.0));
        assert_eq!(percentile_with_beyond(&v, 0.95, 11), None);
        assert_eq!(percentile_with_beyond(&v[..199], 0.95, 10), None);
        assert_eq!(percentile_with_beyond(&[], 0.5, 0), None);
        // 200 samples support p95 but not p99 (two beyond).
        assert_eq!(highest_supported_percentile(&v, 10), Some((95, 190.0)));
        // Twenty samples carry no tail at all beyond the quartile.
        assert_eq!(highest_supported_percentile(&v[..20], 10), None);
        assert_eq!(highest_supported_percentile(&v[..40], 10), Some((75, 30.0)));
    }

    #[test]
    fn stat_reports_median_and_extremes() {
        let s = Stat::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.value, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        assert_eq!(Stat::single(2.0).q1, 2.0);
    }
}
