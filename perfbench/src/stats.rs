//! Exact order statistics over raw samples, and the seeded generators
//! the workloads draw their inputs from.
//!
//! Every quantile the benchmark reports comes from here, computed on
//! the sorted raw samples — never from `obs::Histogram`, whose
//! power-of-two buckets can misplace a value by up to 2x.

/// The `q`-quantile of `sorted` by the nearest-rank rule: the
/// `ceil(q * n)`-th smallest sample (1-based), so every reported value
/// is one that was actually observed. `q <= 0` gives the minimum; an
/// empty slice gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile in a sample of `n > 0`.
/// The epsilon keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Number of samples strictly beyond the `q`-quantile's rank in a
/// sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of `candidates` (quantiles in `(0, 1)`) that leaves at
/// least [`MIN_BEYOND`] samples beyond it in a sample of `n`, or `None`
/// when even the lowest candidate is unsupported.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| samples_beyond(n, q) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// Sorts a copy of `values` (NaN-free by construction here).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: a small, fast, seedable generator. The benchmark owns
/// its input generation so the program under test sees only the
/// generated requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so distinct
    /// uses of one workload seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Cumulative weights of a Zipf law with exponent `s` over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Draws a rank (0-based) from a Zipf CDF.
pub fn zipf_draw(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// FNV-1a over `bytes`, continuing from `h` — the digest the
/// correctness gate compares across runs of one seed.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_on_raw_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Values a power-of-two bucket would merge stay distinct.
        let w = sorted(&[33.0, 40.0, 63.0, 35.0]);
        assert_eq!(quantile(&w, 0.5), 35.0);
        assert_eq!(quantile(&w, 0.75), 40.0);
    }

    #[test]
    fn median_of_even_count_takes_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn samples_beyond_counts_strictly_greater_ranks() {
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let c = [0.5, 0.9, 0.95, 0.99, 0.999];
        assert_eq!(highest_supported(10_000, &c), Some(0.999));
        assert_eq!(highest_supported(9_999, &c), Some(0.99));
        assert_eq!(highest_supported(1000, &c), Some(0.99));
        assert_eq!(highest_supported(999, &c), Some(0.95));
        assert_eq!(highest_supported(200, &c), Some(0.95));
        assert_eq!(highest_supported(199, &c), Some(0.9));
        assert_eq!(highest_supported(20, &c), Some(0.5));
        assert_eq!(highest_supported(19, &c), None);
        // Candidate order does not matter.
        assert_eq!(highest_supported(1000, &[0.99, 0.5, 0.95]), Some(0.99));
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let p = Rng::new(3, 0).permutation(16);
        let mut q = p.clone();
        q.sort_unstable();
        assert_eq!(q, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cdf = zipf_cdf(32, 1.0);
        assert!((cdf[31] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(1, 0);
        let mut hits = [0usize; 32];
        for _ in 0..20_000 {
            hits[zipf_draw(&mut rng, &cdf)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[31]);
        assert!(hits[31] > 0);
    }
}
