//! Sample summaries: medians and tail percentiles with a minimum tail; and
//! the time budget of a phase measured in slices.

use std::time::{Duration, Instant};

/// Samples above a tail percentile the report requires before it names one.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 · n)`.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = rank_of(sorted.len(), p);
    sorted[rank.max(1) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn rank_of(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n` samples.
pub fn samples_above(n: usize, p: u32) -> usize {
    n - rank_of(n, p).min(n)
}

/// The highest whole percentile (1–99) that still has at least [`MIN_TAIL`]
/// samples above it, or `None` when even the 1st percentile has fewer.
pub fn highest_percentile(n: usize) -> Option<u32> {
    (1..=99).rev().find(|&p| samples_above(n, p) >= MIN_TAIL)
}

/// Fewest samples for which the `p`-th percentile has [`MIN_TAIL`] samples
/// above it.
#[cfg(test)]
pub fn samples_needed(p: u32) -> usize {
    (1..)
        .find(|&n| samples_above(n, p) >= MIN_TAIL)
        .expect("p < 100")
}

/// Measuring time a phase is owed across its slices. Each slice adds its
/// share and is charged what it ran, so a slice that overruns (one K4 scan,
/// one suite graph, one batch of edits) shortens the next ones, and every
/// phase measures for its share of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    owed: f64,
}

impl Budget {
    /// Opens a slice worth `share`; returns its start.
    pub fn open(&mut self, share: Duration) -> Instant {
        self.owed += share.as_secs_f64();
        Instant::now()
    }

    /// Whether the slice opened at `start` has time left.
    pub fn left(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() < self.owed
    }

    /// Closes the slice opened at `start`, charging the time it ran.
    pub fn close(&mut self, start: Instant) {
        self.owed -= start.elapsed().as_secs_f64();
    }
}

/// A named latency sample set.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// The `p`-th percentile, or `None` when fewer than [`MIN_TAIL`] samples
    /// lie above it.
    pub fn tail(&self, p: u32) -> Option<f64> {
        if samples_above(self.values.len(), p) < MIN_TAIL {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        Some(percentile(&v, p))
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_above() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(1000), Some(99));
        assert_eq!(highest_percentile(999), Some(98));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(199), Some(94));
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(10), None);
        for n in 11..3000 {
            let p = highest_percentile(n).expect("n > 10 supports some percentile");
            assert!(samples_above(n, p) >= MIN_TAIL);
            assert!(p == 99 || samples_above(n, p + 1) < MIN_TAIL);
        }
    }

    #[test]
    fn an_overrun_slice_is_paid_back_by_the_next() {
        let ms = Duration::from_millis;
        let mut b = Budget::default();
        let start = b.open(ms(10));
        assert!(b.left(start));
        std::thread::sleep(ms(40));
        b.close(start);
        let start = b.open(ms(10));
        assert!(!b.left(start), "30 ms owed back exceed a 10 ms slice");
        b.close(start);
        let start = b.open(ms(200));
        assert!(b.left(start));
        b.close(start);
    }

    #[test]
    fn samples_needed_matches_the_tail_rule() {
        assert_eq!(samples_needed(99), 1000);
        assert_eq!(samples_needed(95), 200);
        let mut s = Samples::default();
        for i in 0..199 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(95), None);
        s.push(199.0);
        assert_eq!(s.tail(95), Some(189.0));
    }
}
