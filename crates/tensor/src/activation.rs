//! Numerically stable activation functions used by the transformer
//! substrate.

/// In-place, numerically stable softmax over a slice.
///
/// An empty slice is left untouched. If all inputs are `-inf` the result is
/// a uniform distribution, which is the conventional guard for fully masked
/// attention rows.
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    if max == f32::NEG_INFINITY {
        let u = 1.0 / xs.len() as f32;
        xs.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    xs.iter_mut().for_each(|x| *x *= inv);
}

/// Rectified linear unit, the FFN activation of the paper's Fig. 2a
/// block diagram.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Natural-log-sum-exp of a slice, stable against overflow.
///
/// Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let mut xs = vec![1.0, 3.0, 2.0];
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[1] > xs[2] && xs[2] > xs[0]);
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let mut xs = vec![1000.0, 1001.0];
        softmax_in_place(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
        assert!((xs[0] + xs[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_of_all_masked_is_uniform() {
        let mut xs = vec![f32::NEG_INFINITY; 4];
        softmax_in_place(&mut xs);
        assert!(xs.iter().all(|&x| (x - 0.25).abs() < 1e-6));
    }

    #[test]
    fn softmax_of_empty_is_noop() {
        let mut xs: Vec<f32> = vec![];
        softmax_in_place(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.5), 3.5);
    }

    #[test]
    fn log_sum_exp_matches_naive_on_small_values() {
        let xs = [0.1f32, -0.7, 1.3];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let xs = [1000.0f32, 999.0];
        let v = log_sum_exp(&xs);
        assert!(v.is_finite());
        assert!((v - (1000.0 + (1.0f32 + (-1.0f32).exp()).ln())).abs() < 1e-3);
    }
}
