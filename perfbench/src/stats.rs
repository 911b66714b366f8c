//! Order statistics for the reported figures.

/// The median of `values` (the mean of the middle pair for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A latency sample's tail: one percentile and the sample there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in `(0, 100]`.
    pub percentile: f64,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail is chosen from, in per mille, highest first.
/// A fixed ladder keeps the chosen percentile the same across runs whose
/// sample counts differ a little.
pub const TAIL_LEVELS: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest level on [`TAIL_LEVELS`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples above its nearest-rank sample — p90
/// for 100–199 samples, p95 for 200–999, p99 from 1000 — or `None` when
/// no level does (fewer than 20 samples).
pub fn tail_level(n: usize) -> Option<usize> {
    TAIL_LEVELS
        .into_iter()
        .find(|&level| n.saturating_sub(nearest_rank(level, n)) >= TAIL_BEYOND)
}

/// The smallest 1-based rank whose sample covers `level` per mille of
/// `n` samples.
fn nearest_rank(level: usize, n: usize) -> usize {
    (level * n).div_ceil(1000).max(1)
}

/// The sample at `level` per mille of `values` (nearest rank). `None`
/// for an empty slice.
pub fn tail_at(values: &[f64], level: usize) -> Option<Tail> {
    let sorted = sorted(values);
    let rank = nearest_rank(level, sorted.len()).min(sorted.len());
    Some(Tail {
        value: *sorted.get(rank.checked_sub(1)?)?,
        percentile: level as f64 / 10.0,
    })
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
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_level_is_the_highest_leaving_ten_beyond() {
        let expect = |n: usize| match n {
            0..=19 => None,
            20..=39 => Some(500),
            40..=99 => Some(750),
            100..=199 => Some(900),
            200..=999 => Some(950),
            1000..=9999 => Some(990),
            _ => Some(999),
        };
        for n in (0..1200).chain([9999, 10_000, 20_000]) {
            assert_eq!(tail_level(n), expect(n), "n = {n}");
            let Some(level) = tail_level(n) else {
                continue;
            };
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail_at(&values, level).expect("non-empty");
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            let covered = n - beyond;
            assert!(beyond >= TAIL_BEYOND, "n = {n}: only {beyond} beyond");
            assert!(covered * 1000 >= level * n, "n = {n}: p{level} not covered");
        }
    }

    #[test]
    fn tail_of_a_hundred_samples_is_p90() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail_at(&values, tail_level(100).expect("qualifies")).expect("non-empty");
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_at_a_fixed_level_ignores_the_count() {
        let values: Vec<f64> = (1..=250).map(f64::from).collect();
        let t = tail_at(&values, 900).expect("non-empty");
        assert_eq!((t.value, t.percentile), (225.0, 90.0));
        assert_eq!(tail_at(&values, 1000).expect("non-empty").value, 250.0);
        assert!(tail_at(&[], 900).is_none());
    }
}
