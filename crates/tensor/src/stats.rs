//! Summary statistics and histograms.
//!
//! Used to characterize weight distributions (paper Fig. 3b: ≥99 % of
//! weights are near-identical "normal" values, ~0.3 % are outliers
//! concentrated in specific channels) and to report quantization error.

/// Scalar summary of a sample: moments and extremes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Largest absolute value.
    pub abs_max: f64,
    /// Excess kurtosis (0 for a Gaussian; large and positive for
    /// outlier-heavy LLM weights).
    pub kurtosis: f64,
}

impl Summary {
    /// Computes the summary of a sample. Returns an all-zero summary for an
    /// empty slice.
    pub fn of(xs: &[f32]) -> Summary {
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                abs_max: 0.0,
                kurtosis: 0.0,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let mut m2 = 0.0;
        let mut m4 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            let d = x as f64 - mean;
            m2 += d * d;
            m4 += d * d * d * d;
            min = min.min(x as f64);
            max = max.max(x as f64);
        }
        m2 /= n;
        m4 /= n;
        let kurtosis = if m2 > 0.0 { m4 / (m2 * m2) - 3.0 } else { 0.0 };
        Summary {
            count: xs.len(),
            mean,
            std_dev: m2.sqrt(),
            min,
            max,
            abs_max: min.abs().max(max.abs()),
            kurtosis,
        }
    }

    /// Fraction of values with `|x| > threshold`.
    pub fn outlier_fraction(xs: &[f32], threshold: f32) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().filter(|x| x.abs() > threshold).count() as f64 / xs.len() as f64
    }
}

/// A fixed-width histogram over a closed interval.
///
/// # Example
///
/// ```
/// use fineq_tensor::Histogram;
/// let h = Histogram::build(&[0.1, 0.2, 0.9], 0.0, 1.0, 10);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    below: usize,
    above: usize,
}

impl Histogram {
    /// Builds a histogram of `xs` over `[lo, hi]` with `bins` equal bins.
    /// Values outside the interval are tallied in under/overflow counters.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn build(xs: &[f32], lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        let mut counts = vec![0usize; bins];
        let (mut below, mut above) = (0, 0);
        let w = (hi - lo) / bins as f64;
        for &x in xs {
            let x = x as f64;
            if x < lo {
                below += 1;
            } else if x > hi {
                above += 1;
            } else {
                let mut b = ((x - lo) / w) as usize;
                if b == bins {
                    b -= 1; // x == hi lands in the last bin
                }
                counts[b] += 1;
            }
        }
        Histogram { lo, hi, counts, below, above }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Count of values above the range.
    pub fn overflow(&self) -> usize {
        self.above
    }

    /// Total tallied values, including under/overflow.
    pub fn total(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.below + self.above
    }

    /// Center of bin `b`.
    pub fn bin_center(&self, b: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (b as f64 + 0.5)
    }

    /// Renders a compact ASCII bar chart (one line per bin), used by the
    /// Fig. 3b experiment binary.
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (b, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * width / max);
            out.push_str(&format!("{:>9.4} | {:<w$} {}\n", self.bin_center(b), bar, c, w = width));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[2.0; 10]);
        assert_eq!(s.count, 10);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.kurtosis, 0.0);
        assert_eq!(s.abs_max, 2.0);
    }

    #[test]
    fn summary_of_empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_tracks_extremes() {
        let s = Summary::of(&[-3.0, 0.0, 2.0]);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.abs_max, 3.0);
    }

    #[test]
    fn outlier_fraction_counts_tails() {
        let xs = [0.01f32, 0.02, -0.01, 5.0];
        assert!((Summary::outlier_fraction(&xs, 1.0) - 0.25).abs() < 1e-12);
        assert_eq!(Summary::outlier_fraction(&[], 1.0), 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let h = Histogram::build(&[-1.0, 0.05, 0.15, 0.95, 2.0], 0.0, 1.0, 10);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_right_edge_belongs_to_last_bin() {
        let h = Histogram::build(&[1.0], 0.0, 1.0, 4);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn bin_center_is_midpoint() {
        let h = Histogram::build(&[], 0.0, 1.0, 2);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-12);
        assert!((h.bin_center(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_outputs_one_line_per_bin() {
        let h = Histogram::build(&[0.1, 0.9], 0.0, 1.0, 4);
        let text = h.render(20);
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn gaussian_sample_has_near_zero_kurtosis() {
        let mut rng = crate::Rng::seed_from(99);
        let xs: Vec<f32> = (0..40_000).map(|_| rng.normal(0.0, 1.0)).collect();
        let s = Summary::of(&xs);
        assert!(s.kurtosis.abs() < 0.2, "kurtosis {}", s.kurtosis);
    }
}
