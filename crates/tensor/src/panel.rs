//! The row-panel layout of every `A · Wᵀ` kernel in the workspace — the
//! dense [`Matrix::matmul_transpose`] and the packed GEMMs of `fineq-core`.
//! Activation rows are restaged column-major in panels of at most
//! [`MAX_TILE`] rows ([`restage_columns`]), so a kernel reads one weight
//! against `N` contiguous activations into `N` register accumulators: `N`
//! independent chains, where strict `f32` cannot reassociate one.

use crate::Matrix;

/// The widest row tile a panel kernel is instantiated at: one pass over the
/// weights per panel of at most this many rows — which is why a serving
/// step with fewer rows than a whole number of panels has rows to give away.
pub const MAX_TILE: usize = 16;

/// The row panels of a `t_len`-row batch as `(first_row, rows, tile)`:
/// `rows <= MAX_TILE` rows served by the narrowest instantiated tile
/// (1, 4, 8 or 16 columns) that holds them.
fn row_panels(t_len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..t_len).step_by(MAX_TILE).map(move |t0| {
        let rows = (t_len - t0).min(MAX_TILE);
        (t0, rows, if rows == 1 { 1 } else { rows.next_power_of_two().max(4) })
    })
}

/// Restages row-major activations `a` (`T x cols`) into `buf` as one
/// column-major panel per row panel, back to back: within a panel of tile
/// width `n`, `panel[i * n + t] == a[(first_row + t, i)]` and the columns
/// past the panel's rows are zero. Separate from [`for_each_row`] so a
/// batch is restaged **once** for every weight it meets (every channel of
/// a site, every shard of a gather).
pub fn restage_columns<'s>(a: &Matrix, buf: &'s mut Vec<f32>) -> &'s [f32] {
    let cols = a.cols();
    let padded: usize = row_panels(a.rows()).map(|(_, _, tile)| tile).sum();
    buf.clear();
    buf.resize(cols * padded, 0.0);
    let mut panels = &mut buf[..];
    for (t0, rows, tile) in row_panels(a.rows()) {
        let (panel, rest) = panels.split_at_mut(cols * tile);
        for t in 0..rows {
            for (i, &v) in a.row(t0 + t).iter().enumerate() {
                panel[i * tile + t] = v;
            }
        }
        panels = rest;
    }
    buf
}

/// One weight vector against one panel, at every tile width: `panel[i * N +
/// c]` is column `c`'s activation at reduction index `i`. A column's result
/// must not depend on `N` or on its panel-mates — that is what makes a
/// row's output independent of the batch it was computed in.
pub trait PanelKernel {
    /// The `N` per-column results of one panel.
    fn run<const N: usize>(&self, panel: &[f32]) -> [f32; N];
}

/// Runs every kernel of `kernels` on every panel of a batch staged by
/// [`restage_columns`] (`t_len` rows of `len` values) and hands
/// `emit(k, t, y)` kernel `k`'s result for each of the batch's rows. The
/// one tile dispatch of the dense and packed kernels: the tile is chosen
/// once per panel, and the loop over kernels runs inside it.
pub fn for_each_row<K: PanelKernel>(
    kernels: impl Iterator<Item = K> + Clone,
    staged: &[f32],
    t_len: usize,
    len: usize,
    mut emit: impl FnMut(usize, usize, f32),
) {
    let mut panels = staged;
    for (t0, rows, tile) in row_panels(t_len) {
        let (panel, rest) = panels.split_at(len * tile);
        panels = rest;
        let kernels = kernels.clone();
        match tile {
            1 => run_panel::<1, K>(kernels, panel, t0, rows, &mut emit),
            4 => run_panel::<4, K>(kernels, panel, t0, rows, &mut emit),
            8 => run_panel::<8, K>(kernels, panel, t0, rows, &mut emit),
            _ => run_panel::<MAX_TILE, K>(kernels, panel, t0, rows, &mut emit),
        }
    }
}

/// Every kernel against one `N`-wide panel holding rows `t0..t0 + rows`.
#[inline(always)]
fn run_panel<const N: usize, K: PanelKernel>(
    kernels: impl Iterator<Item = K>,
    panel: &[f32],
    t0: usize,
    rows: usize,
    emit: &mut impl FnMut(usize, usize, f32),
) {
    for (k, kernel) in kernels.enumerate() {
        for (t, &v) in kernel.run::<N>(panel)[..rows].iter().enumerate() {
            emit(k, t0 + t, v);
        }
    }
}
