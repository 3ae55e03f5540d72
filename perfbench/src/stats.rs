//! Sample statistics shared by every workload: tail-percentile selection,
//! least host times over repetitions, and the determinism fingerprint.

use fuse_obs::Reservoir;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.90];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: f64 = 10.0;

/// The highest of p90, p99 and p99.9 that leaves at least
/// [`MIN_BEYOND_TAIL`] samples beyond it at `n` samples, capped at `cap`
/// (the live workload never goes past p99: beyond it the number measures
/// the host scheduler). `None` when even p90 has fewer than ten samples
/// beyond it.
pub fn tail_quantile(n: usize, cap: f64) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .filter(|&q| q <= cap)
        .find(|&q| n as f64 * (1.0 - q) >= MIN_BEYOND_TAIL - 1e-9)
}

/// Display label of a tail quantile (`p90`, `p99`, `p99.9`).
pub fn tail_label(q: f64) -> String {
    let pct = q * 100.0;
    if pct.fract().abs() < 1e-9 {
        format!("p{pct:.0}")
    } else {
        format!("p{pct:.1}")
    }
}

/// Latency samples of one kind with a tail percentile fixed by the
/// workload from its nominal sample count.
#[derive(Debug, Clone)]
pub struct Latencies {
    samples: Reservoir,
    tail: f64,
}

impl Latencies {
    /// An empty set whose tail is fixed for `nominal` samples (p90 when
    /// even that is unsupported; [`Latencies::tail_supported`] says so).
    pub fn for_count(nominal: usize, cap: f64) -> Self {
        let tail = tail_quantile(nominal, cap).unwrap_or(TAILS[2]);
        Latencies {
            samples: Reservoir::new(),
            tail,
        }
    }

    /// Adds one sample, in milliseconds.
    pub fn add(&mut self, ms: f64) {
        self.samples.add(ms);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The fixed tail quantile.
    pub fn tail(&self) -> f64 {
        self.tail
    }

    /// Median, or 0 when empty.
    pub fn p50(&mut self) -> f64 {
        self.samples.median().unwrap_or(0.0)
    }

    /// Value at quantile `q`, or 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.samples.quantile(q).unwrap_or(0.0)
    }

    /// Value at the fixed tail quantile, or 0 when empty.
    pub fn tail_value(&mut self) -> f64 {
        self.samples.quantile(self.tail).unwrap_or(0.0)
    }

    /// Whether the sample count actually supports the fixed tail (at least
    /// ten samples beyond it).
    pub fn tail_supported(&self) -> bool {
        self.len() as f64 * (1.0 - self.tail) >= MIN_BEYOND_TAIL - 1e-9
    }

    /// The raw samples (unordered multiset).
    pub fn samples(&self) -> &[f64] {
        self.samples.samples()
    }
}

/// Median of a non-empty slice (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Least of a non-empty slice: the host-time estimate of repeated fixed
/// work. Interference from the rest of the host only ever adds time, so
/// the least reading is the one closest to the program's own cost.
pub fn least(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "least of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host time of fixed work repeated several times: the work is cut into
/// the same chunks in every repetition, and the estimate sums each chunk's
/// least time over the repetitions. A slow spell of the host then inflates
/// only the chunks it overlapped, and only in the repetitions it hit.
pub fn chunkwise_least<'a>(reps: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let reps: Vec<&[f64]> = reps.into_iter().collect();
    let chunks = reps[0].len();
    assert!(
        reps.iter().all(|r| r.len() == chunks),
        "repetitions of fixed work cut into different chunk counts"
    );
    (0..chunks)
        .map(|k| least(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .sum()
}

/// FNV-1a over a stream of 64-bit words: the determinism fingerprint of a
/// run's simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a latency multiset in, order-independently (sorted by bits).
    pub fn multiset(&mut self, samples: &[f64]) {
        let mut bits: Vec<u64> = samples.iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable();
        self.word(bits.len() as u64);
        for b in bits {
            self.word(b);
        }
    }

    /// The digest.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(99, 1.0), None);
        assert_eq!(tail_quantile(100, 1.0), Some(0.90));
        assert_eq!(tail_quantile(999, 1.0), Some(0.90));
        assert_eq!(tail_quantile(1000, 1.0), Some(0.99));
        assert_eq!(tail_quantile(9999, 1.0), Some(0.99));
        assert_eq!(tail_quantile(10_000, 1.0), Some(0.999));
        assert_eq!(tail_quantile(1_000_000, 1.0), Some(0.999));
    }

    #[test]
    fn tail_respects_the_cap() {
        assert_eq!(tail_quantile(50_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(500, 0.99), Some(0.90));
    }

    #[test]
    fn tail_labels() {
        assert_eq!(tail_label(0.90), "p90");
        assert_eq!(tail_label(0.99), "p99");
        assert_eq!(tail_label(0.999), "p99.9");
    }

    #[test]
    fn fixed_tail_reports_support() {
        let mut l = Latencies::for_count(1000, 1.0);
        assert_eq!(l.tail(), 0.99);
        for i in 0..999 {
            l.add(i as f64);
        }
        assert!(!l.tail_supported(), "999 samples leave 9.99 beyond p99");
        l.add(999.0);
        assert!(l.tail_supported());
        assert_eq!(l.p50(), 499.5);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn chunkwise_least_filters_slow_spells_per_chunk() {
        // Each repetition hit one slow chunk, each a different one.
        let a = [1.0, 1.0, 5.0];
        let b = [1.0, 5.0, 1.0];
        let c = [5.0, 1.0, 1.0];
        assert_eq!(chunkwise_least([&a[..], &b[..], &c[..]]), 3.0);
        // Whole-repetition readings would all be 7.
        assert_eq!(least(&[7.0, 7.0, 7.0]), 7.0);
        assert_eq!(chunkwise_least([&a[..]]), 7.0);
    }

    #[test]
    #[should_panic(expected = "different chunk counts")]
    fn chunkwise_least_needs_equal_cuts() {
        chunkwise_least([&[1.0][..], &[1.0, 2.0][..]]);
    }

    #[test]
    fn fingerprint_ignores_sample_order_but_not_values() {
        let mut a = Fingerprint::default();
        a.multiset(&[1.0, 2.0, 3.0]);
        let mut b = Fingerprint::default();
        b.multiset(&[3.0, 1.0, 2.0]);
        assert_eq!(a.value(), b.value());
        let mut c = Fingerprint::default();
        c.multiset(&[3.0, 1.0, 2.5]);
        assert_ne!(a.value(), c.value());
    }
}
