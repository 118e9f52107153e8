//! Order statistics for latency samples and run-to-run comparison.

/// Percentiles the reports may use, lowest first: `(p, label, samples
/// beyond it per 10 000)`. The share beyond is kept as an integer so that
/// n = 100 supports p90 exactly.
const TAILS: [(f64, &str, usize); 4] = [
    (90.0, "p90", 1_000),
    (95.0, "p95", 500),
    (99.0, "p99", 100),
    (99.9, "p99.9", 10),
];

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100).
/// Empty input yields NaN, which no comparison treats as a pass.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = p / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even p90 has fewer (n < 100).
pub fn highest_supported_tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, _, beyond)| n * beyond >= 10 * 10_000)
        .map(|(p, label, _)| (*p, *label))
}

/// Median and p95 of one latency population, with its sample count. p95
/// is only trustworthy when [`highest_supported_tail`] of `n` is p95 or
/// higher (n ≥ 200); the report prints which it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let s = sorted(samples);
        Latency {
            n: s.len(),
            p50: percentile(&s, 50.0),
            p95: percentile(&s, 95.0),
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median (the driver's
/// steadiness measure). `None` below two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}
