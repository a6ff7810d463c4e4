//! Deterministic pseudo-random number generation.
//!
//! The reproduction needs seeded, portable randomness so that synthetic
//! corpora, constructed model weights and calibration sets are identical on
//! every run and platform. We implement xoshiro256** (Blackman & Vigna),
//! a small, fast, well-tested generator, plus the handful of samplers the
//! experiments need (normal, Laplace, Zipf, Dirichlet, categorical).

/// A seeded xoshiro256** pseudo-random number generator.
///
/// # Example
///
/// ```
/// use fineq_tensor::Rng;
/// let mut a = Rng::seed_from(7);
/// let mut b = Rng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed using SplitMix64 expansion,
    /// the initialization recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        Self { state }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform() as f32
    }

    /// Uniform integer in `[0, n)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        // 128-bit multiply keeps the distribution unbiased enough for
        // simulation purposes (error < 2^-64).
        let x = self.next_u64() as u128;
        ((x * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal draw via Box–Muller (one value per call; the spare
    /// is discarded to keep the state evolution simple and portable).
    pub fn standard_normal(&mut self) -> f32 {
        // Guard against log(0).
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.standard_normal()
    }

    /// Laplace (double-exponential) draw: heavy-tailed like observed LLM
    /// weight bulks (Fig. 3b of the paper).
    pub fn laplace(&mut self, mean: f32, scale: f32) -> f32 {
        let u = self.uniform() - 0.5;
        let mag = -(1.0 - 2.0 * u.abs()).max(1e-300).ln();
        mean + scale * (if u < 0.0 { -mag } else { mag }) as f32
    }

    /// Exponential draw with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -self.uniform().max(1e-300).ln() / rate
    }

    /// Gamma draw (Marsaglia–Tsang for shape >= 1, boost for shape < 1).
    ///
    /// # Panics
    ///
    /// Panics if `shape <= 0` or `scale <= 0`.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(shape > 0.0 && scale > 0.0, "gamma parameters must be positive");
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
            let g = self.gamma(shape + 1.0, 1.0);
            let u = self.uniform().max(1e-300);
            return g * u.powf(1.0 / shape) * scale;
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal() as f64;
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform().max(1e-300);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v * scale;
            }
        }
    }

    /// A probability vector drawn from a symmetric Dirichlet distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha <= 0`.
    pub fn dirichlet(&mut self, n: usize, alpha: f64) -> Vec<f64> {
        assert!(n > 0, "dirichlet needs at least one category");
        let mut v: Vec<f64> = (0..n).map(|_| self.gamma(alpha, 1.0)).collect();
        let sum: f64 = v.iter().sum();
        if sum <= 0.0 {
            // Numerically degenerate; fall back to uniform.
            return vec![1.0 / n as f64; n];
        }
        for x in &mut v {
            *x /= sum;
        }
        v
    }

    /// Samples an index from an (unnormalized) weight vector.
    ///
    /// # Panics
    ///
    /// Panics if weights are empty or sum to zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "categorical weights must have positive sum");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fills a vector with `n` normal draws.
    pub fn normal_vec(&mut self, n: usize, mean: f32, std_dev: f32) -> Vec<f32> {
        (0..n).map(|_| self.normal(mean, std_dev)).collect()
    }
}

/// Zipfian sampler over `{0, .., n-1}` with exponent `s`
/// (`P(k) ∝ 1/(k+1)^s`), precomputed for O(log n) draws.
///
/// Natural-language token frequencies are approximately Zipfian, so the
/// synthetic corpora use this to mimic WikiText-2 / C4 marginals.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one category");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("non-empty");
        for x in &mut cdf {
            *x /= total;
        }
        Self { cdf }
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = Rng::seed_from(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_in_range_and_covers_support() {
        let mut rng = Rng::seed_from(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let k = rng.below(7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from(11);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn laplace_is_symmetric_and_heavy_tailed() {
        let mut rng = Rng::seed_from(13);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.laplace(0.0, 1.0)).collect();
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Laplace excess kurtosis is 3 (vs 0 for a normal).
        let var: f32 = xs.iter().map(|x| x * x).sum::<f32>() / n as f32;
        let k4: f32 = xs.iter().map(|x| x.powi(4)).sum::<f32>() / n as f32;
        let kurt = k4 / (var * var) - 3.0;
        assert!(kurt > 1.5, "kurtosis {kurt} should be clearly super-Gaussian");
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = Rng::seed_from(17);
        let p = rng.dirichlet(16, 0.3);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = Rng::seed_from(19);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.categorical(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f2 - 0.7).abs() < 0.02, "p2 {f2}");
    }

    #[test]
    fn zipf_rank_zero_is_most_probable() {
        let z = Zipf::new(100, 1.1);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = Rng::seed_from(23);
        let mut counts = [0usize; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - z.pmf(0)).abs() < 0.02, "f0 {f0} vs {}", z.pmf(0));
    }

    #[test]
    fn gamma_mean_matches_shape_times_scale() {
        let mut rng = Rng::seed_from(29);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gamma(2.5, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }
}
