//! Order statistics for the benchmark: medians over repetitions,
//! nearest-rank percentiles over latency samples, the tail rule (the
//! highest percentile that still has ten samples beyond it), and interval
//! unions for self time.

/// The percentiles the tail rule considers, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before the tail rule reports
/// it.
const TAIL_MIN_BEYOND: usize = 10;

/// The median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Minimum, median and maximum of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// Median value.
    pub median: f64,
    /// Largest value.
    pub max: f64,
    /// How many values.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        Some(Summary {
            min: values.iter().copied().reduce(f64::min)?,
            median: median(values)?,
            max: values.iter().copied().reduce(f64::max)?,
            n: values.len(),
        })
    }

    /// `(max - min) / median`: how far apart the repetitions landed, as a
    /// share of their median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending); `None` when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
/// The epsilon keeps binary rounding of `p` (99.9 is not exact) from
/// pushing an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The tail rule: the highest percentile of the ladder (p99.9 down to the
/// median) with at least ten samples beyond it, and its value. Falls back
/// to the median when there are too few samples for any tail; `None` when
/// empty.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Some((p, percentile(sorted, p)?))
}

/// Total length covered by the union of half-open `[start, end)`
/// intervals, however they overlap.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_takes_min_median_max_over_reps() {
        let s = Summary::of(&[1.2, 0.9, 1.0, 1.5, 1.1]).unwrap();
        assert_eq!((s.min, s.median, s.max, s.n), (0.9, 1.1, 1.5, 5));
        assert!((s.spread() - 0.6 / 1.1).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[2.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.9), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 10,000 samples: p99.9 has exactly 10 beyond it.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), Some((99.9, 9_990)));
        // 1,000 samples: p99.9 has 1 beyond, p99 has 10.
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail(&v), Some((99.0, 990)));
        // 999 samples: p99 has only 9 beyond, so p95 it is.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v), Some((95.0, 950)));
        // Too few for any tail: the median.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(tail(&v), Some((50.0, 6)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn union_merges_overlapping_and_nested_intervals() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        // Overlap, nesting, touching and a gap.
        assert_eq!(
            union_len(&[(5, 15), (0, 10), (2, 3), (15, 20), (30, 31)]),
            21
        );
        // Parallel shard spans: four threads busy over the same second
        // cover one second of wall time, not four.
        let parallel = [(0, 1_000), (0, 1_000), (10, 990), (500, 1_000)];
        assert_eq!(union_len(&parallel), 1_000);
    }
}
