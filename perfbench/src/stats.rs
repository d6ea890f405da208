//! Sample summaries: nearest-rank percentiles and the `_tail` rule.

/// Samples a reported tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail may be reported at.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank_for(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps decimal percentiles such as 99.9 from rounding up).
fn rank_for(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Most windows a tail is measured in.
pub const MAX_WINDOWS: usize = 5;

/// Median and tail of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail value, see [`summarize`].
    pub tail: f64,
    /// The percentile `tail` sits at.
    pub tail_pct: f64,
    /// Windows the tail was measured in.
    pub windows: usize,
}

impl Summary {
    /// Where the tail sits, for the report: percentile, windows, count.
    pub fn tail_note(&self) -> String {
        let windows = if self.windows > 1 {
            format!(", median of {} windows", self.windows)
        } else {
            String::new()
        };
        format!("p{}{windows}, n={}", self.tail_pct, self.n)
    }
}

/// Fewest samples whose nearest-rank `p`-th percentile leaves
/// [`TAIL_BEYOND`] samples above it (at most `n`).
fn samples_for(p: f64, n: usize) -> usize {
    (1..=n).find(|&m| m - rank_for(m, p) >= TAIL_BEYOND).unwrap_or(n)
}

/// Summarize `values`, given in the order they were measured.
///
/// The median is over all samples. The tail sits at the highest
/// percentile of [`TAIL_LADDER`] whose nearest rank leaves at least
/// [`TAIL_BEYOND`] samples above it; below 100 samples that is at most
/// the median, and the tail is the median. When the sample is large enough,
/// the tail is measured in up to [`MAX_WINDOWS`] consecutive windows
/// that each still leave ten samples above that percentile, and the
/// median of the window values is reported: one burst of host stalls
/// then moves one window, not the result. `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted(values);
    let tail_pct =
        TAIL_LADDER.into_iter().rev().find(|&p| n - rank_for(n, p) >= TAIL_BEYOND).unwrap_or(50.0);
    // A median needs no windows: the tail is then the median itself.
    let windows =
        if tail_pct > 50.0 { (n / samples_for(tail_pct, n)).clamp(1, MAX_WINDOWS) } else { 1 };
    let per_window: Vec<f64> = (0..windows)
        .map(|w| nearest_rank(&sorted(&values[w * n / windows..(w + 1) * n / windows]), tail_pct))
        .collect();
    Some(Summary {
        n,
        p50: nearest_rank(&all, 50.0),
        tail: nearest_rank(&sorted(&per_window), 50.0),
        tail_pct,
        windows,
    })
}

/// Median of `values` (nearest rank); `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.p50)
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent
/// of a cost `y` in a size `x`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let v = one_to(10);
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 51.0), 6.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
        let s = summarize(&one_to(1000)).unwrap();
        assert_eq!((s.n, s.p50, s.windows), (1000, 500.0, 1));
        // p99.9 leaves only one sample above it; p99 leaves ten.
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        let s = summarize(&one_to(999)).unwrap();
        assert_eq!((s.tail_pct, s.windows), (90.0, 5));
        let s = summarize(&one_to(100)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.windows), (90.0, 90.0, 1));
        let s = summarize(&one_to(10_000)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.windows), (99.9, 9_990.0, 1));
    }

    #[test]
    fn large_samples_take_the_median_tail_of_consecutive_windows() {
        // 5000 samples: p99 needs 1000 per window, so five windows.
        let mut v = vec![1.0; 5000];
        let s = summarize(&v).unwrap();
        assert_eq!((s.tail_pct, s.windows, s.tail), (99.0, 5, 1.0));
        // One burst of 100 stalls lands in one window only.
        for x in &mut v[2100..2200] {
            *x = 100.0;
        }
        assert_eq!(
            nearest_rank(
                &{
                    let mut a = v.clone();
                    a.sort_by(f64::total_cmp);
                    a
                },
                99.0
            ),
            100.0
        );
        assert_eq!(summarize(&v).unwrap().tail, 1.0);
        // Stalls spread over every window do show.
        for w in 0..5 {
            for x in &mut v[w * 1000..w * 1000 + 20] {
                *x = 50.0;
            }
        }
        assert_eq!(summarize(&v).unwrap().tail, 50.0);
        // Every window leaves ten samples above the tail percentile.
        assert_eq!(samples_for(99.0, 5000), 1000);
        assert_eq!(samples_for(90.0, 5000), 100);
    }

    #[test]
    fn small_samples_report_the_median_as_tail() {
        for n in 1..=19 {
            let s = summarize(&one_to(n)).unwrap();
            assert_eq!((s.tail, s.tail_pct), (s.p50, 50.0), "n={n}");
        }
        let s = summarize(&one_to(20)).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct, s.windows), (10.0, 10.0, 50.0, 1));
        // Up to 99 samples no percentile above the median qualifies.
        let s = summarize(&one_to(99)).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct, s.windows), (50.0, 50.0, 50.0, 1));
    }

    #[test]
    fn summary_ignores_input_order_and_rejects_empty() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.p50, 2.0);
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[4.0, 9.0, 1.0, 5.0]), Some(4.0));
    }

    #[test]
    fn log_log_slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> =
            [95.0, 378.0, 1513.0].iter().map(|&n| (n, 3.0 * n * n)).collect();
        assert!((log_log_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
