//! Helpers for the bit-exactness property tests, which check each
//! vectorised kernel against a scalar reference loop: the scalar block
//! products, sampled block widths and buffers that mix IEEE edge cases into
//! ordinary values, and a bitwise comparison.

use crate::Matrix;
use rand::Rng;

/// `a · B[..a.cols, ..cols]` as scalar dot products, each summed from
/// `+0.0` in ascending `k` with a zero `a[i, k]` skipping its term: the
/// bitwise reference for [`Matrix::matmul_block`] and the layer forwards
/// built on it.
pub(crate) fn reference_matmul_block(a: &Matrix, b: &Matrix, cols: usize) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), cols);
    for i in 0..a.rows() {
        for j in 0..cols {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                if a.get(i, k) != 0.0 {
                    acc += a.get(i, k) * b.get(k, j);
                }
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `acc[..a.cols, ..d.cols] += aᵀ · d` as scalar dot products: each element
/// adds its terms in ascending `k` onto its current value, a zero `a[k, i]`
/// skipping its term. The bitwise reference for [`Matrix::add_matmul_tn`].
pub(crate) fn reference_add_matmul_tn(acc: &mut Matrix, a: &Matrix, d: &Matrix) {
    for i in 0..a.cols() {
        for j in 0..d.cols() {
            let mut sum = acc.get(i, j);
            for k in 0..a.rows() {
                if a.get(k, i) != 0.0 {
                    sum += a.get(k, i) * d.get(k, j);
                }
            }
            acc.set(i, j, sum);
        }
    }
}

/// `a · B[..rows, ..cols]ᵀ` as scalar dot products, each summed from `+0.0`
/// in ascending index order: the bitwise reference for
/// [`Matrix::matmul_nt_block`] and the layer input gradients built on it.
pub(crate) fn reference_matmul_nt_block(
    a: &Matrix,
    b: &Matrix,
    rows: usize,
    cols: usize,
) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), rows);
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, o) in out_row.iter_mut().enumerate() {
            let b_row = &b.row(k)[..cols];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    out
}

/// A block width in `1..=max`: 1 and `max` each a third of the time.
pub(crate) fn block_width(rng: &mut impl Rng, max: usize) -> usize {
    match rng.gen_range(0usize..3) {
        0 => 1,
        1 => max,
        _ => rng.gen_range(1..=max),
    }
}

/// One sampled value: with probability `special` an IEEE edge case (a
/// signed zero, a subnormal, an infinity, NaN, or a magnitude whose
/// products underflow to subnormals or overflow to infinity), otherwise
/// uniform in `[-2, 2)`.
pub(crate) fn edge_value(rng: &mut impl Rng, special: f64) -> f32 {
    let x = rng.gen_range(-2.0f32..2.0);
    if !rng.gen_bool(special) {
        return x;
    }
    match rng.gen_range(0usize..8) {
        0 => 0.0,
        1 => -0.0,
        2 => x * 1e-39,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::NAN,
        6 => x * 1e-20,
        _ => x * 1e30,
    }
}

/// `n` values drawn by [`edge_value`].
pub(crate) fn edge_values(rng: &mut impl Rng, special: f64, n: usize) -> Vec<f32> {
    (0..n).map(|_| edge_value(rng, special)).collect()
}

/// A `rows × cols` matrix of [`edge_values`].
pub(crate) fn edge_matrix(rng: &mut impl Rng, special: f64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, edge_values(rng, special, rows * cols))
}

/// A per-case share of edge values: none, a sprinkle, or a quarter.
pub(crate) fn special_share(rng: &mut impl Rng) -> f64 {
    [0.0, 0.02, 0.1, 0.25][rng.gen_range(0usize..4)]
}

/// Compares two buffers bit for bit, signed zeros and subnormals
/// included. NaN is the one exception: Rust leaves the sign and payload of
/// an arithmetic NaN unspecified (and LLVM may commute the operands that
/// pick it), so any NaN matches any NaN.
pub(crate) fn same_bits(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
            return Err(format!(
                "{what}[{i}]: got {g:e} ({:#010x}), want {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            ));
        }
    }
    Ok(())
}
