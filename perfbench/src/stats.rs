//! Latency samples and percentile selection.
//!
//! Percentiles are nearest-rank over the sorted samples. A tail percentile
//! is only meaningful when enough samples lie beyond it, so the benchmark
//! reports, next to its fixed p50/p99 metrics, the highest percentile of
//! [`LADDER`] that has at least [`MIN_BEYOND`] samples beyond it.

/// Candidate percentiles, in parts per 100 000 (integer so that rank
/// arithmetic is exact: `0.999 * 1000` is not `999.0` in floating point).
pub const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

const SCALE: u64 = 100_000;

/// 1-based nearest rank of percentile `q` (parts per 100 000) among `n`
/// samples: the smallest rank whose share of samples reaches `q`.
pub fn rank(q: u64, n: u64) -> u64 {
    (q * n).div_ceil(SCALE).max(1)
}

/// Samples strictly beyond percentile `q` among `n` samples.
pub fn beyond(q: u64, n: u64) -> u64 {
    n.saturating_sub(rank(q, n))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them.
pub fn highest_supported(n: u64) -> Option<u64> {
    LADDER.iter().copied().rev().find(|&q| beyond(q, n) >= MIN_BEYOND)
}

/// Formats a ladder percentile as `p50`, `p99.9`, ...
pub fn label(q: u64) -> String {
    let whole = q / 1000;
    let frac = q % 1000;
    if frac == 0 {
        format!("p{whole}")
    } else {
        let digits = format!("{frac:03}");
        format!("p{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// A set of latency (or other) samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q` (parts per 100 000); 0 when empty.
    pub fn percentile(&mut self, q: u64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let r = rank(q, self.values.len() as u64) as usize;
        self.values[r - 1]
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.percentile(50_000)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.percentile(99_000)
    }

    /// One summary line: count, median and the highest supported tail.
    pub fn describe(&mut self, unit: &str) -> String {
        let n = self.values.len() as u64;
        let p50 = self.p50();
        match highest_supported(n) {
            Some(q) if q > 50_000 => {
                let tail = self.percentile(q);
                format!("n={n} p50={p50:.1}{unit} {}={tail:.1}{unit}", label(q))
            }
            _ => format!("n={n} p50={p50:.1}{unit} (no tail percentile: too few samples)"),
        }
    }
}

/// Median throughput over windows of `k` consecutive completions: `done`
/// holds each completion's time (ns) and the points it completed. A host
/// whose speed comes and goes in bursts moves the mean rate of a run much
/// more than this median, so the median is what a run reports.
pub fn median_window_rate(done: &[(u64, u64)], k: usize) -> f64 {
    let mut rates = Samples::new();
    let mut i = 0;
    while i + k < done.len() {
        let span = done[i + k].0 - done[i].0;
        let points: u64 = done[i + 1..=i + k].iter().map(|d| d.1).sum();
        if span > 0 {
            rates.push(points as f64 * 1e9 / span as f64);
        }
        i += k;
    }
    rates.p50()
}
