//! Order statistics shared by the workloads and `compare`.

/// Percentiles a run may report as a timing's tail, highest first,
/// in tenths of a percent.
const TAIL_CANDIDATES: [usize; 3] = [999, 990, 900];

/// The nearest-rank `p`-th percentile of an ascending slice (0 when
/// empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that has at least ten samples beyond it in a
/// sample of `n` (the only tails a sample of that size supports), or
/// `None` when even the 90th has fewer than ten.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Median and tail of a set of nanosecond timings, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// The highest percentile with ≥ 10 samples beyond it, and its value
    /// in µs.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Summarizes `ns` (any order).
    pub fn of(ns: &[u64]) -> Timing {
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        let us = |p: f64| percentile(&sorted, p) as f64 / 1e3;
        Timing {
            n: sorted.len(),
            p50_us: us(50.0),
            p99_us: us(99.0),
            tail: supported_tail(sorted.len()).map(|p| (p, us(p))),
        }
    }

    /// One human-readable line: median, supported tail and sample count.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((p, v)) => format!("p50 {:.1} us, p{p} {v:.1} us (n={})", self.p50_us, self.n),
            None => format!(
                "p50 {:.1} us, no supported tail (n={})",
                self.p50_us, self.n
            ),
        }
    }
}

/// Most windows a run's op sequence is split into.
const WINDOWS: usize = 20;

/// Splits `items` (in run order) into at most [`WINDOWS`] consecutive
/// windows of near-equal length, each at least `min_len` long when the
/// run allows.
fn windows<T>(items: &[T], min_len: usize) -> std::slice::Chunks<'_, T> {
    let n = (items.len() / min_len.max(1)).clamp(1, WINDOWS);
    items.chunks(items.len().div_ceil(n).max(1))
}

/// The median over windows of each window's 90th percentile, in µs: the
/// tail a typical stretch of the run sees. A burst of interference from
/// other processes on the host moves a few windows, not the median.
pub fn windowed_p90_us(ns: &[u64]) -> f64 {
    let per: Vec<f64> = windows(ns, 100)
        .map(|w| {
            let mut sorted = w.to_vec();
            sorted.sort_unstable();
            percentile(&sorted, 90.0) as f64 / 1e3
        })
        .collect();
    median(&per)
}

/// The median over windows of work done per second; `ops` holds each
/// op's `(work, nanoseconds)` in run order.
pub fn windowed_rate(ops: &[(f64, u64)], min_len: usize) -> f64 {
    let per: Vec<f64> = windows(ops, min_len)
        .map(|w| {
            let work: f64 = w.iter().map(|o| o.0).sum();
            let ns: u64 = w.iter().map(|o| o.1).sum();
            work / (ns.max(1) as f64 / 1e9)
        })
        .collect();
    median(&per)
}

/// The median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them; both equal the value for a single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        let t = Timing::of(&(1..=1000).map(|i| i * 1000).collect::<Vec<_>>());
        assert_eq!(t.tail, Some((99.0, 990.0)));
        assert_eq!(t.p50_us, 500.0);
    }

    #[test]
    fn windowed_statistics_ignore_a_short_burst() {
        // 2000 ops at 100 µs, with a burst of 300 ops at 1 ms: the plain
        // tail lands in the burst, the windowed p90 does not.
        let mut ns = vec![100_000u64; 2000];
        ns[500..800].fill(1_000_000);
        assert_eq!(Timing::of(&ns).p99_us, 1000.0);
        assert_eq!(windowed_p90_us(&ns), 100.0);
        let ops: Vec<(f64, u64)> = ns.iter().map(|&t| (1.0, t)).collect();
        assert_eq!(windowed_rate(&ops, 10), 10_000.0);
        // Too few ops for windows: one window over everything.
        assert_eq!(windowed_p90_us(&[1000, 2000, 3000]), 3.0);
        assert_eq!(windowed_rate(&[(2.0, 1_000_000_000)], 1), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
