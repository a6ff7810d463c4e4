//! Uniform quantization grids.
//!
//! Two flavours are used across the paper and its baselines:
//!
//! * **Symmetric** (Eq. 1 of the paper): `s = absmax / (2^(b-1) - 1)`,
//!   `q = round(x / s)`, so a `b`-bit value covers the signed levels
//!   `-(2^(b-1)-1) ..= 2^(b-1)-1`. For `b = 2` that is `{-1, 0, 1}`; for
//!   `b = 3` it is `{-3 … 3}` — the sign-magnitude ranges the FineQ
//!   accelerator consumes.
//! * **Asymmetric** (RTN/GPTQ/OWQ grids): `scale = (max - min) / (2^b - 1)`
//!   with an integer zero point, covering all `2^b` codes.

/// `(v.round() as i32).clamp(lo, hi)` — round half away from zero, then
/// clamp — for integer bounds with `lo <= 0 <= hi`, without `f32::round`:
/// baseline x86-64 has no SSE4.1 `roundss`, so that is a libm call.
///
/// Clamping first is exact because the bounds are integers, and it keeps
/// `|v| <= 2^16`, where `trunc(v)` and `v - trunc(v)` are exact. NaN fails
/// both comparisons and truncates to 0, as through `f32::round`; ±inf
/// clamp to the bounds instead of saturating the `i32`.
#[inline]
fn round_clamped(v: f32, lo: i32, hi: i32) -> i32 {
    debug_assert!(lo <= 0 && 0 <= hi && hi - lo <= 1 << 17, "bounds {lo}..={hi}");
    let v = if v < lo as f32 {
        lo as f32
    } else if v > hi as f32 {
        hi as f32
    } else {
        v
    };
    let t = v as i32;
    let frac = v - t as f32;
    if frac >= 0.5 {
        t + 1
    } else if frac <= -0.5 {
        t - 1
    } else {
        t
    }
}

/// Symmetric uniform grid for a given bit-width (Eq. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricGrid {
    scale: f32,
    qmax: i32,
}

impl SymmetricGrid {
    /// Builds the grid from the largest absolute value of the data it will
    /// quantize.
    ///
    /// A zero `abs_max` produces a degenerate grid that maps everything to
    /// zero, which is the correct behaviour for an all-zero channel.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn from_abs_max(abs_max: f32, bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16, got {bits}");
        let qmax = (1i32 << (bits - 1)) - 1;
        let scale = if abs_max > 0.0 { abs_max / qmax as f32 } else { 0.0 };
        Self { scale, qmax }
    }

    /// The positive quantization bound `2^(b-1) - 1`.
    pub fn qmax(&self) -> i32 {
        self.qmax
    }

    /// The step size `s`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes a value to its signed integer code, clamped to the grid.
    // `#[inline]` (with `dequantize`): the FineQ quantizer calls both from
    // another crate, six times per cluster.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        if self.scale == 0.0 {
            return 0;
        }
        round_clamped(x / self.scale, -self.qmax, self.qmax)
    }

    /// Quantizes every value of `xs` into `out`, element-wise equal to
    /// [`quantize`](Self::quantize).
    ///
    /// The 2- and 3-bit grids (`qmax` 1 and 3, FineQ's only ones) round in
    /// one branch-free loop the compiler vectorizes; other grids quantize
    /// value by value.
    ///
    /// # Panics
    ///
    /// Panics unless `xs` and `out` have the same length.
    pub fn quantize_into(&self, xs: &[f32], out: &mut [i32]) {
        assert_eq!(xs.len(), out.len(), "one output per input");
        if self.scale == 0.0 {
            out.fill(0);
            return;
        }
        match self.qmax {
            1 => round_by_thresholds::<1>(xs, self.scale, out),
            3 => round_by_thresholds::<3>(xs, self.scale, out),
            _ => out.iter_mut().zip(xs).for_each(|(q, &x)| *q = self.quantize(x)),
        }
    }

    /// Reconstructs the real value of a code.
    #[inline]
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantize-dequantize round trip.
    pub fn roundtrip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// `round_clamped(x / scale, -QMAX, QMAX)` for every value, by counting the
/// half-step thresholds `v` reaches on each side of zero:
/// `Σ_{k=1..=QMAX} [v ≥ k − ½] − [v ≤ −(k − ½)]`.
///
/// That count is the clamped round half away from zero: `k − ½` is exact,
/// so `v ≥ k − ½` holds exactly when `v − trunc(v) ≥ ½` carries `v` to `k`
/// or beyond. NaN fails every compare and counts 0; ±inf reach every
/// threshold on their side and count ±`QMAX`. Compares and masks only, so
/// the loop has no per-value branch or float-to-int conversion.
fn round_by_thresholds<const QMAX: i32>(xs: &[f32], scale: f32, out: &mut [i32]) {
    for (q, &x) in out.iter_mut().zip(xs) {
        let v = x / scale;
        let mut n = 0i32;
        // `0..QMAX`, not `1..=QMAX`: the exclusive range unrolls before
        // the loop vectorizer runs, the inclusive one only after it.
        for k in 0..QMAX {
            let half = k as f32 + 0.5;
            n += i32::from(v >= half) - i32::from(v <= -half);
        }
        *q = n;
    }
}

/// Asymmetric uniform grid (`2^b` codes with a zero point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricGrid {
    scale: f32,
    zero: i32,
    qmax: i32,
}

impl AsymmetricGrid {
    /// Builds the grid covering `[min, max]`.
    ///
    /// Degenerate ranges (`min == max`) reconstruct the constant exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`, or if `min > max`.
    pub fn from_range(min: f32, max: f32, bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16, got {bits}");
        assert!(min <= max, "min must not exceed max");
        // The grid must contain 0 so that zero weights stay exactly zero,
        // the standard convention for asymmetric weight grids.
        let min = min.min(0.0);
        let max = max.max(0.0);
        let qmax = (1i32 << bits) - 1;
        let scale = (max - min) / qmax as f32;
        if scale == 0.0 {
            return Self { scale: 0.0, zero: 0, qmax };
        }
        Self { scale, zero: round_clamped(-min / scale, 0, qmax), qmax }
    }

    /// Builds the grid from a data slice (uses its min/max).
    pub fn from_slice(xs: &[f32], bits: u8) -> Self {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        if xs.is_empty() {
            return Self::from_range(0.0, 0.0, bits);
        }
        Self::from_range(min, max, bits)
    }

    /// Step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Integer zero point: the NaN oracle of the tests.
    #[cfg(test)]
    fn zero_point(&self) -> i32 {
        self.zero
    }

    /// Quantizes a value to its unsigned code in `0 ..= 2^b - 1`.
    pub fn quantize(&self, x: f32) -> i32 {
        if self.scale == 0.0 {
            return self.zero;
        }
        round_clamped(x / self.scale, -self.zero, self.qmax - self.zero) + self.zero
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(&self, q: i32) -> f32 {
        (q - self.zero) as f32 * self.scale
    }

    /// Quantize-dequantize round trip.
    pub fn roundtrip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fineq_tensor::Rng;

    #[test]
    fn symmetric_two_bit_levels_match_paper() {
        // Eq. 1 with b = 2: qmax = 1, levels {-1, 0, 1}.
        let g = SymmetricGrid::from_abs_max(0.13, 2);
        assert_eq!(g.qmax(), 1);
        assert!((g.scale() - 0.13).abs() < 1e-7);
        assert_eq!(g.quantize(0.10), 1); // round(0.77) = 1
        assert_eq!(g.quantize(0.04), 0); // round(0.31) = 0
        assert_eq!(g.quantize(-0.13), -1);
    }

    #[test]
    fn symmetric_three_bit_matches_fig4_row2() {
        // Fig. 4 row 2: absmax 0.27, b = 3 -> s = 0.09.
        let g = SymmetricGrid::from_abs_max(0.27, 3);
        assert_eq!(g.qmax(), 3);
        assert_eq!(g.quantize(0.27), 3);
        assert_eq!(g.quantize(0.03), 0);
        assert_eq!(g.quantize(0.11), 1);
        assert_eq!(g.quantize(0.19), 2);
        assert_eq!(g.quantize(0.01), 0);
        assert_eq!(g.quantize(0.16), 2);
    }

    #[test]
    fn symmetric_clamps_out_of_range() {
        let g = SymmetricGrid::from_abs_max(1.0, 3);
        assert_eq!(g.quantize(10.0), 3);
        assert_eq!(g.quantize(-10.0), -3);
    }

    #[test]
    fn symmetric_zero_absmax_maps_everything_to_zero() {
        let g = SymmetricGrid::from_abs_max(0.0, 2);
        assert_eq!(g.quantize(123.0), 0);
        assert_eq!(g.dequantize(0), 0.0);
    }

    #[test]
    fn symmetric_roundtrip_error_is_bounded_by_half_step() {
        let g = SymmetricGrid::from_abs_max(2.0, 4);
        let mut rng = Rng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 2.0);
            assert!((g.roundtrip(x) - x).abs() <= g.scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn asymmetric_grid_contains_zero() {
        let g = AsymmetricGrid::from_range(0.5, 2.0, 2);
        // Range is widened to include zero; zero must round-trip exactly.
        assert_eq!(g.roundtrip(0.0), 0.0);
    }

    #[test]
    fn asymmetric_roundtrip_error_is_bounded_by_half_step() {
        let g = AsymmetricGrid::from_range(-0.3, 0.9, 4);
        let mut rng = Rng::seed_from(5);
        for _ in 0..1000 {
            let x = rng.uniform_range(-0.3, 0.9);
            assert!((g.roundtrip(x) - x).abs() <= g.scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn asymmetric_degenerate_range_is_exact() {
        let g = AsymmetricGrid::from_range(0.0, 0.0, 2);
        assert_eq!(g.roundtrip(0.0), 0.0);
        let g = AsymmetricGrid::from_slice(&[], 2);
        assert_eq!(g.roundtrip(0.0), 0.0);
    }

    #[test]
    fn asymmetric_from_slice_covers_extremes() {
        let xs = [-1.0f32, 0.0, 3.0];
        let g = AsymmetricGrid::from_slice(&xs, 8);
        for &x in &xs {
            assert!((g.roundtrip(x) - x).abs() < 0.02, "{x}");
        }
    }

    #[test]
    fn asymmetric_codes_stay_in_range() {
        let g = AsymmetricGrid::from_range(-1.0, 1.0, 2);
        for &x in &[-100.0f32, -1.0, 0.0, 1.0, 100.0] {
            let q = g.quantize(x);
            assert!((0..=3).contains(&q), "{x} -> {q}");
        }
    }

    /// `SymmetricGrid::quantize` against the libm definition of Eq. 1,
    /// `clamp(round(x / s))` with ties away from zero, compared exactly:
    /// every half-step tie and its ±1-ulp neighbours, the special values,
    /// seeded draws and a strided sweep of all 2³² f32 bit patterns.
    #[test]
    fn symmetric_quantize_equals_libm_round_then_clamp() {
        const SWEEP_STRIDE: usize = 16_411;
        let subnormals =
            [f32::from_bits(1), f32::from_bits(0x0040_0000), f32::from_bits(0x007f_ffff)];
        let specials = [0.0f32, f32::INFINITY, f32::NAN, f32::MIN_POSITIVE, f32::MAX, 0.5, 1.5]
            .into_iter()
            .chain(subnormals)
            .flat_map(|x| [x, -x]);
        let mut grids = Vec::new();
        for bits in [2u8, 3, 4, 8, 16] {
            let qmax = ((1i32 << (bits - 1)) - 1) as f32;
            for abs_max in [qmax, 0.5 * qmax, 0.13, 1e-40, 1e30 * qmax] {
                grids.push(SymmetricGrid::from_abs_max(abs_max, bits));
            }
        }
        assert!(grids.iter().any(|g| g.scale().is_subnormal()));
        assert!(grids.iter().any(|g| g.scale() == 1e30));

        let mut rng = Rng::seed_from(0x0061_21d5);
        for g in &grids {
            let (s, qmax) = (g.scale(), g.qmax());
            let check = |x: f32| {
                let want = ((x / s).round() as i32).clamp(-qmax, qmax);
                assert_eq!(g.quantize(x), want, "x = {x:e} ({:#010x}), {g:?}", x.to_bits());
            };
            for k in -qmax - 2..=qmax + 2 {
                let tie = (k as f32 + 0.5) * s;
                for x in [tie, tie.next_down(), tie.next_up()] {
                    check(x);
                }
            }
            specials.clone().for_each(check);
            for _ in 0..100_000 / grids.len() {
                check(rng.uniform_range(-1.25, 1.25) * (qmax as f32 * s));
            }
            (0..=u32::MAX).step_by(SWEEP_STRIDE).for_each(|b| check(f32::from_bits(b)));
        }

        // `quantize_into` against per-value `quantize` on the same inputs,
        // plus a zero-scale grid.
        grids.extend([2u8, 3, 8].map(|bits| SymmetricGrid::from_abs_max(0.0, bits)));
        assert!(grids.iter().any(|g| g.scale() == 0.0));
        let mut rng = Rng::seed_from(0x0061_21d5);
        for g in &grids {
            let (s, qmax) = (g.scale(), g.qmax());
            let mut xs: Vec<f32> = (-qmax - 2..=qmax + 2)
                .map(|k| (k as f32 + 0.5) * s)
                .flat_map(|tie| [tie, tie.next_down(), tie.next_up()])
                .chain(specials.clone())
                .collect();
            let span = if s > 0.0 { qmax as f32 * s } else { 1.0 };
            xs.extend((0..100_000 / grids.len()).map(|_| rng.uniform_range(-1.25, 1.25) * span));
            xs.extend((0..=u32::MAX).step_by(SWEEP_STRIDE).map(f32::from_bits));
            let mut got = vec![i32::MIN; xs.len()];
            g.quantize_into(&xs, &mut got);
            for (&x, &q) in xs.iter().zip(&got) {
                assert_eq!(q, g.quantize(x), "x = {x:e} ({:#010x}), {g:?}", x.to_bits());
            }
        }
    }

    #[test]
    fn asymmetric_extremes_saturate_and_nan_maps_to_the_zero_point() {
        for bits in [2u8, 4, 8, 16] {
            let g = AsymmetricGrid::from_range(-0.3, 0.9, bits);
            let qmax = (1 << bits) - 1;
            assert_eq!(g.quantize(f32::INFINITY), qmax, "{bits} bits");
            assert_eq!(g.quantize(1e30), qmax, "{bits} bits");
            assert_eq!(g.quantize(f32::NEG_INFINITY), 0, "{bits} bits");
            assert_eq!(g.quantize(-1e30), 0, "{bits} bits");
            assert_eq!(g.quantize(f32::NAN), g.zero_point(), "{bits} bits");
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn symmetric_rejects_one_bit() {
        let _ = SymmetricGrid::from_abs_max(1.0, 1);
    }
}
