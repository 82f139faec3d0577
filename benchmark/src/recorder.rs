//! Exact latency recording: every sample is kept in nanoseconds and
//! sorted once, so 127 µs and 200 µs stay different numbers (the
//! engine's own `LatencyHistogram` has power-of-two buckets and cannot
//! tell them apart).

/// Percentile ladder for "the highest percentile the sample supports".
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples beyond a percentile needed before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nanosecond samples of one op kind.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    samples: Vec<u32>,
    sorted: bool,
}

impl Recorder {
    /// Record one latency; values past `u32::MAX` ns (4.29 s) saturate.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn extend(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile in nanoseconds; `None` when empty.
    pub fn percentile_ns(&mut self, pct: f64) -> Option<u64> {
        self.sort();
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        Some(u64::from(self.samples[rank_of(pct, n) - 1]))
    }

    /// Whether `pct` has at least [`MIN_BEYOND`] samples beyond it.
    pub fn supports(&self, pct: f64) -> bool {
        let n = self.samples.len();
        n >= rank_of(pct, n.max(1)) + MIN_BEYOND
    }

    /// The highest ladder percentile the sample supports, with its value
    /// in nanoseconds; `None` when even the median is unsupported.
    pub fn highest_supported(&mut self) -> Option<(f64, u64)> {
        let pct = LADDER.into_iter().rev().find(|&p| self.supports(p))?;
        Some((pct, self.percentile_ns(pct)?))
    }
}

/// 1-based nearest rank of `pct` among `n >= 1` sorted samples. The
/// epsilon keeps `99.99% of 100000` at rank 99990 despite rounding.
fn rank_of(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Every slice's samples in one recorder.
pub fn whole_phase(slices: &[Recorder]) -> Recorder {
    let mut all = Recorder::default();
    for s in slices {
        all.extend(s);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64) -> Recorder {
        let mut r = Recorder::default();
        // Insert out of order: 1..=n ns, each once.
        for i in 0..n {
            r.record((i * 7919) % n + 1);
        }
        r
    }

    #[test]
    fn percentiles_of_a_known_uniform_distribution() {
        let mut r = uniform(10_000);
        assert_eq!(r.percentile_ns(50.0), Some(5_000));
        assert_eq!(r.percentile_ns(99.0), Some(9_900));
        assert_eq!(r.percentile_ns(100.0), Some(10_000));
        assert_eq!(Recorder::default().percentile_ns(50.0), None);
    }

    #[test]
    fn distinguishes_127us_from_200us() {
        let (mut a, mut b) = (Recorder::default(), Recorder::default());
        for _ in 0..100 {
            a.record(127_000);
            b.record(200_000);
        }
        assert_eq!(a.percentile_ns(99.0), Some(127_000));
        assert_eq!(b.percentile_ns(99.0), Some(200_000));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!uniform(999).supports(99.0));
        assert!(uniform(1_000).supports(99.0));
        assert!(uniform(20).supports(50.0));
        assert!(!uniform(19).supports(50.0));
        assert_eq!(uniform(1_000).highest_supported(), Some((99.0, 990)));
        assert_eq!(uniform(100_000).highest_supported(), Some((99.99, 99_990)));
        assert_eq!(uniform(5).highest_supported(), None);
    }

    #[test]
    fn samples_saturate_instead_of_wrapping() {
        let mut r = Recorder::default();
        r.record(u64::MAX);
        assert_eq!(r.percentile_ns(50.0), Some(u64::from(u32::MAX)));
    }

    #[test]
    fn whole_phase_joins_the_slices_and_median_takes_the_middle() {
        let slices: Vec<Recorder> = (0..4).map(|_| uniform(100)).collect();
        let mut all = whole_phase(&slices);
        assert_eq!(all.len(), 400);
        assert_eq!(all.percentile_ns(99.0), Some(99));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
