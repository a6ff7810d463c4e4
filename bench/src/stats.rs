//! Order statistics the benchmark reports.
//!
//! A timing is reported as a median plus a tail percentile, and a tail
//! percentile only counts when at least [`MIN_BEYOND`] samples lie beyond
//! it; a smaller sample steps the percentile down ([`tail`]) and the result
//! says which one was used. On the shared host a reading is repeated and
//! the best repeat reported ([`highest`], [`lowest`]).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may step down through.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Linear-interpolated quantile `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The best of repeated readings of a rate. On the shared host
/// interference only ever subtracts, so the best repeat estimates the
/// quiet machine.
pub fn highest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

/// The best of repeated readings of a latency; see [`highest`].
pub fn lowest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// The highest ladder percentile `<= wanted` that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or the median when even that fails.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted + 1e-12)
        .find(|&p| (n as f64 * (1.0 - p) + 1e-9).floor() as usize >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// A tail reading: the value and the percentile actually used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The `wanted` percentile of `values`, stepped down until at least
/// [`MIN_BEYOND`] samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(values: &[f64], wanted: f64) -> Tail {
    let p = supported_percentile(values.len(), wanted);
    Tail { value: quantile(values, p), percentile: p, samples: values.len() }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method),
/// which is what the acceptance rule for run-to-run spread is stated in.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 needs 1000 samples, p95 needs 200, p90 needs 100.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(999, 0.99), 0.95);
        assert_eq!(supported_percentile(200, 0.95), 0.95);
        assert_eq!(supported_percentile(199, 0.95), 0.90);
        assert_eq!(supported_percentile(100, 0.99), 0.90);
        assert_eq!(supported_percentile(40, 0.99), 0.75);
        assert_eq!(supported_percentile(20, 0.99), 0.50);
        assert_eq!(supported_percentile(3, 0.99), 0.50);
        // A request for p95 never steps *up* to p99.
        assert_eq!(supported_percentile(10_000, 0.95), 0.95);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let values: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&values, 0.99);
        assert_eq!(t.percentile, 0.90);
        assert_eq!(t.samples, 150);
        assert!((t.value - 135.1).abs() < 1e-9, "{}", t.value);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }
}
