//! Offline shim for `criterion`.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the sample statistics its figure harnesses record:
//! [`sample_stats`] (mean / median / stddev / min / max of a set of
//! timed runs) and [`SampleStats::throughput_per_sec`] with
//! [`Throughput`]. There is no benchmark runner: the harnesses time
//! their own runs. The median and stddev make run-to-run comparisons
//! stable against scheduler noise without the real crate's bootstrap
//! statistics.

use std::time::Duration;

/// Work performed per iteration, for throughput reporting — the subset
/// of the real crate's `Throughput` the harnesses use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements (rows, deltas, …) processed per iteration.
    Elements(u64),
}

/// The raw statistics of one measured sample set, as the harnesses record
/// them in their `BENCH_*.json` trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleStats {
    /// Arithmetic mean per iteration.
    pub mean: Duration,
    /// Median sample (upper median for even counts).
    pub median: Duration,
    /// Population standard deviation around the mean.
    pub stddev: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of samples.
    pub count: usize,
}

impl SampleStats {
    /// Units per second at the median sample time, given the work one
    /// iteration performs. `None` when nothing was measured (zero median
    /// would divide by zero) — callers skip the metric rather than
    /// report infinity.
    pub fn throughput_per_sec(&self, throughput: Throughput) -> Option<f64> {
        let secs = self.median.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        let Throughput::Elements(units) = throughput;
        Some(units as f64 / secs)
    }
}

/// Compute [`SampleStats`] over a sample set. All fields are zero for an
/// empty set.
pub fn sample_stats(samples: &[Duration]) -> SampleStats {
    if samples.is_empty() {
        return SampleStats::default();
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    SampleStats {
        mean,
        median: median(samples),
        stddev: stddev(samples, mean),
        min: samples.iter().min().copied().unwrap_or_default(),
        max: samples.iter().max().copied().unwrap_or_default(),
        count: samples.len(),
    }
}

/// Median sample (upper median for even counts — bias is irrelevant at
/// these sample sizes and keeps the computation allocation-light).
/// [`Duration::ZERO`] for an empty set: a harness that timed nothing
/// must not panic.
pub fn median(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Population standard deviation around `mean` (zero for one sample).
pub fn stddev(samples: &[Duration], mean: Duration) -> Duration {
    if samples.len() < 2 {
        return Duration::ZERO;
    }
    let mean_s = mean.as_secs_f64();
    let var = samples
        .iter()
        .map(|s| {
            let d = s.as_secs_f64() - mean_s;
            d * d
        })
        .sum::<f64>()
        / samples.len() as f64;
    Duration::from_secs_f64(var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_stddev_are_stable_statistics() {
        let ms = Duration::from_millis;
        // Odd count: the exact middle.
        assert_eq!(median(&[ms(3), ms(1), ms(100)]), ms(3));
        // Even count: the upper median.
        assert_eq!(median(&[ms(1), ms(2), ms(3), ms(4)]), ms(3));
        // A single outlier moves the mean but not the median.
        let samples = [ms(10), ms(10), ms(10), ms(1000)];
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        assert_eq!(median(&samples), ms(10));
        assert!(mean > ms(250));
        // Identical samples: zero spread; single sample: defined as zero.
        assert_eq!(stddev(&[ms(5), ms(5), ms(5)], ms(5)), Duration::ZERO);
        assert_eq!(stddev(&[ms(5)], ms(5)), Duration::ZERO);
        // Known case: {4, 8} around mean 6 → population stddev 2.
        let s = stddev(&[ms(4), ms(8)], ms(6));
        assert!((s.as_secs_f64() - 0.002).abs() < 1e-9);
    }

    #[test]
    fn median_of_zero_samples_is_zero_not_a_panic() {
        // A harness that timed nothing must get zeros, not an index out
        // of bounds.
        assert_eq!(median(&[]), Duration::ZERO);
        assert_eq!(sample_stats(&[]), SampleStats::default());
    }

    #[test]
    fn sample_stats_match_component_statistics() {
        let ms = Duration::from_millis;
        let samples = [ms(10), ms(30), ms(20)];
        let s = sample_stats(&samples);
        assert_eq!(s.mean, ms(20));
        assert_eq!(s.median, median(&samples));
        assert_eq!(s.stddev, stddev(&samples, ms(20)));
        assert_eq!(s.min, ms(10));
        assert_eq!(s.max, ms(30));
        assert_eq!(s.count, 3);
    }

    #[test]
    fn throughput_uses_the_median_sample() {
        let ms = Duration::from_millis;
        // Median 20 ms: 1000 elements → 50_000 elements/sec, outliers
        // in the mean notwithstanding.
        let s = sample_stats(&[ms(10), ms(20), ms(500)]);
        let rate = s.throughput_per_sec(Throughput::Elements(1000)).unwrap();
        assert!((rate - 50_000.0).abs() < 1e-6, "rate {rate}");
        // Nothing measured → no rate, not a division by zero.
        assert_eq!(
            SampleStats::default().throughput_per_sec(Throughput::Elements(1)),
            None
        );
    }
}
