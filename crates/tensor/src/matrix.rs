//! Dense row-major `f32` matrices and the linear-algebra kernels used by the
//! rest of the workspace.
//!
//! The matrix type is deliberately small: H2O-NAS only needs dense MLP math
//! (for the DLRM super-network and the MLP performance model), so a 2-D
//! row-major buffer with a handful of BLAS-level-3 kernels is sufficient.

use rand::Rng;
use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use h2o_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a function of the `(row, col)` index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            m.data[r * cols..(r + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data }
    }

    /// Creates a matrix with Xavier/Glorot-uniform initialisation, the
    /// default for dense layers.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`: the forward block product over all of
    /// `rhs`, with its per-element order and zero-skip (DESIGN.md, "Kernel
    /// bit-exactness").
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        self.matmul_block(rhs, rhs.cols)
    }

    /// `self * B` where `B` is the upper-left `self.cols × cols` block of
    /// `rhs`: the forward product of a layer whose active weights are that
    /// block.
    ///
    /// An i-k-j loop: each output row is built by row axpys over contiguous
    /// memory, so element `(i, j)` is `Σ_k self[i, k] · rhs[k, j]`, summed
    /// from `+0.0` in ascending `k` with one rounding per multiply and per
    /// add. A zero `self[i, k]` skips its term, so a zero input never meets
    /// an infinite or NaN weight. The loop runs across outputs, never across
    /// one output's terms, and vectorising it cannot reorder a sum.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds `rhs` or `cols == 0`.
    pub(crate) fn matmul_block(&self, rhs: &Matrix, cols: usize) -> Matrix {
        assert!(
            self.cols <= rhs.rows && cols <= rhs.cols,
            "block exceeds the matrix"
        );
        let mut out = Matrix::zeros(self.rows, cols);
        let b_rows = rhs.data.chunks_exact(rhs.cols);
        for (a_row, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(cols))
        {
            for (&a, b_row) in a_row.iter().zip(b_rows.clone()) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(&b_row[..cols]) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ * rhs` without materialising the transpose: the block
    /// `aᵀ·d` accumulation into zeros, so element `(i, j)` is
    /// `Σ_k self[k, i] · rhs[k, j]` summed from `+0.0` in ascending `k`, a
    /// zero `self[k, i]` skipping its term.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        out.add_matmul_tn(self, rhs);
        out
    }

    /// Adds `aᵀ · d` into the upper-left `a.cols × d.cols` block of `self`:
    /// the weight gradient of a layer whose active weights are that block.
    ///
    /// Element `(i, j)` gets `a[k, i] · d[k, j]` added in ascending `k`
    /// (the batch row), one rounding per multiply and per add, straight onto
    /// its current value. A zero `a[k, i]` skips its term. Each row of `a`
    /// and `d` is one pass of row axpys over contiguous memory, across
    /// outputs, so vectorising it cannot reorder a sum.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows != d.rows` or the block exceeds `self`.
    pub(crate) fn add_matmul_tn(&mut self, a: &Matrix, d: &Matrix) {
        assert_eq!(a.rows, d.rows, "matmul_tn dimension mismatch");
        assert!(
            a.cols <= self.rows && d.cols <= self.cols,
            "block exceeds the matrix"
        );
        let (cols, stride) = (d.cols, self.cols);
        for (a_row, d_row) in a.data.chunks_exact(a.cols).zip(d.data.chunks_exact(cols)) {
            for (&x, out_row) in a_row.iter().zip(self.data.chunks_exact_mut(stride)) {
                if x == 0.0 {
                    continue;
                }
                for (o, &b) in out_row[..cols].iter_mut().zip(d_row) {
                    *o += x * b;
                }
            }
        }
    }

    /// `self * rhsᵀ`.
    ///
    /// Element `(i, j)` is `Σ_k self[i, k] · rhs[j, k]`, summed from `+0.0`
    /// in ascending `k` with one rounding per multiply and per add and no
    /// term skipped: every build writes the bits of a scalar dot-product
    /// loop, inf and NaN included.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dimension mismatch");
        self.matmul_nt_block(rhs, rhs.rows, rhs.cols)
    }

    /// `self * Bᵀ` where `B` is the upper-left `rows × cols` block of `rhs`:
    /// the input gradient of a layer whose active weights are that block.
    ///
    /// Element `(i, r)` is `Σ_c self[i, c] · rhs[r, c]`, summed from `+0.0` in
    /// ascending `c` with one rounding per multiply and per add and no term
    /// skipped. The block is copied out transposed first, so each output row
    /// is built by row axpys over contiguous memory: the loop runs across
    /// outputs, never across one output's terms, and vectorising it cannot
    /// reorder a sum.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds `rhs` or `self.cols != cols`.
    pub(crate) fn matmul_nt_block(&self, rhs: &Matrix, rows: usize, cols: usize) -> Matrix {
        assert!(
            rows <= rhs.rows && cols <= rhs.cols,
            "block exceeds the matrix"
        );
        assert_eq!(self.cols, cols, "matmul_nt dimension mismatch");
        let mut block_t = vec![0.0; cols * rows];
        for r in 0..rows {
            for (c, &b) in rhs.row(r)[..cols].iter().enumerate() {
                block_t[c * rows + r] = b;
            }
        }
        let mut out = Matrix::zeros(self.rows, rows);
        for (a_row, out_row) in self
            .data
            .chunks_exact(cols)
            .zip(out.data.chunks_exact_mut(rows))
        {
            for (&a, b_col) in a_row.iter().zip(block_t.chunks_exact(rows)) {
                for (o, &b) in out_row.iter_mut().zip(b_col) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise sum; returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise difference; returns a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Multiplies every element by `s`; returns a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Applies `f` to every element; returns a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Adds a row vector (bias) to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_broadcast(mut self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        self
    }

    /// Sums each column into a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// # Panics
    ///
    /// Panics if the input is empty or row counts differ.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hconcat row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Splits the matrix horizontally into pieces of the given widths.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to `self.cols`.
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        assert_eq!(
            widths.iter().sum::<usize>(),
            self.cols,
            "hsplit width mismatch"
        );
        let mut parts = Vec::with_capacity(widths.len());
        let mut offset = 0;
        for &w in widths {
            let mut part = Matrix::zeros(self.rows, w.max(1));
            if w > 0 {
                for r in 0..self.rows {
                    part.row_mut(r)
                        .copy_from_slice(&self.row(r)[offset..offset + w]);
                }
            }
            parts.push(part);
            offset += w;
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        block_width, edge_matrix, edge_values, reference_add_matmul_tn, reference_matmul_block,
        reference_matmul_nt_block, same_bits, special_share,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `matmul_nt` and its block form match the dot-product loop bit
        /// for bit on any shape and block, including 1-wide ones, with
        /// signed zeros, subnormals, infinities and NaN mixed in.
        fn matmul_nt_matches_dot_product_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special = special_share(&mut rng);
            let (b_rows, b_cols) = (rng.gen_range(1usize..20), rng.gen_range(1usize..20));
            let rows = rng.gen_range(1..=b_rows);
            let cols = rng.gen_range(1..=b_cols);
            let n = rng.gen_range(1usize..8);
            let a = Matrix::from_vec(n, cols, edge_values(&mut rng, special, n * cols));
            let b = Matrix::from_vec(b_rows, b_cols, edge_values(&mut rng, special, b_rows * b_cols));
            let want = reference_matmul_nt_block(&a, &b, rows, cols);
            same_bits("block", a.matmul_nt_block(&b, rows, cols).as_slice(), want.as_slice())?;
            let full = Matrix::from_vec(n, b_cols, edge_values(&mut rng, special, n * b_cols));
            let want = reference_matmul_nt_block(&full, &b, b_rows, b_cols);
            same_bits("full", full.matmul_nt(&b).as_slice(), want.as_slice())?;
        }

        /// The forward block product and the block `aᵀ·d` accumulation
        /// match scalar loops bit for bit on any shape and any block from
        /// 1×1 to full, with signed zeros, subnormals, infinities and NaN
        /// mixed into both operands and into the starting accumulator;
        /// `matmul` and `matmul_tn` match them as their full-size cases.
        fn block_products_match_scalar_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special = special_share(&mut rng);
            let (b_rows, b_cols) = (rng.gen_range(1usize..20), rng.gen_range(1usize..20));
            let (inner, cols) = (block_width(&mut rng, b_rows), block_width(&mut rng, b_cols));
            let n = rng.gen_range(1usize..8);
            let a = edge_matrix(&mut rng, special, n, inner);
            let b = edge_matrix(&mut rng, special, b_rows, b_cols);
            let want = reference_matmul_block(&a, &b, cols);
            same_bits("block", a.matmul_block(&b, cols).as_slice(), want.as_slice())?;
            let full = edge_matrix(&mut rng, special, n, b_rows);
            let want = reference_matmul_block(&full, &b, b_cols);
            same_bits("matmul", full.matmul(&b).as_slice(), want.as_slice())?;

            let d = edge_matrix(&mut rng, special, n, cols);
            let mut got = edge_matrix(&mut rng, special, b_rows, b_cols);
            let mut want = got.clone();
            got.add_matmul_tn(&a, &d);
            reference_add_matmul_tn(&mut want, &a, &d);
            same_bits("accumulated", got.as_slice(), want.as_slice())?;
            let d = edge_matrix(&mut rng, special, n, b_cols);
            let mut want = Matrix::zeros(b_rows, b_cols);
            reference_add_matmul_tn(&mut want, &full, &d);
            same_bits("matmul_tn", full.matmul_tn(&d).as_slice(), want.as_slice())?;
        }
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dim_panics() {
        let _ = Matrix::zeros(0, 4);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(4, 3, &mut rng);
        let b = Matrix::xavier(4, 5, &mut rng);
        let expected = a.transpose().matmul(&b);
        let got = a.matmul_tn(&b);
        for (x, y) in expected.as_slice().iter().zip(got.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(4, 3, &mut rng);
        let b = Matrix::xavier(5, 3, &mut rng);
        let expected = a.matmul(&b.transpose());
        let got = a.matmul_nt(&b);
        for (x, y) in expected.as_slice().iter().zip(got.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn add_row_broadcast_adds_bias_per_row() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(out, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
    }

    #[test]
    fn col_sums_sums_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn hconcat_and_hsplit_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let joined = Matrix::hconcat(&[&a, &b]);
        assert_eq!(joined.shape(), (2, 3));
        let parts = joined.hsplit(&[1, 2]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::xavier(10, 10, &mut rng);
        let bound = (6.0 / 20.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
