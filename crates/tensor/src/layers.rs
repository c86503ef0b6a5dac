//! Trainable layers with explicit forward/backward passes.
//!
//! Three flavours of dense layer mirror the weight-sharing strategies of the
//! H2O-NAS DLRM super-network (Fig. 3 of the paper):
//!
//! * [`Dense`] — a plain fully-connected layer.
//! * [`MaskedDense`] — one weight matrix sized for the *largest* candidate
//!   layer; smaller candidates use the upper-left sub-matrix (fine-grained
//!   weight sharing, ③ in Fig. 3).
//! * [`LowRankDense`] — a `U·V` factorised layer whose active rank is
//!   searchable; ranks share the leading columns/rows of `U`/`V`
//!   (fine-grained sharing for low-rank candidates, ④ in Fig. 3).
//!
//! A layer holds its weights and their gradients, nothing about a
//! candidate. Its one forward pass reads it through `&self`, takes the
//! candidate's active shape as arguments, and returns the output with a
//! *tape*: the pre-activation, plus `x·U` for the low-rank layer. The
//! caller keeps the layer's input, so `backward` takes that input, the
//! tape and the same shape. Any number of forwards may share a layer.
//!
//! `backward` accumulates the parameter gradients and returns the gradient
//! w.r.t. the layer's input; `backward_params` runs the same pass without
//! that last matrix product, for a layer whose input is the network's own,
//! whose gradient nobody reads. An optimizer consumes the gradients
//! through `params_grads_mut` and zeroes them.

use crate::state::{StateError, StateReader, StateWriter};
use crate::{Activation, Matrix};
use rand::Rng;

/// A plain fully-connected layer `y = act(x·W + b)`.
///
/// Accumulates gradients over [`Dense::backward`] calls; an optimizer
/// consumes and zeroes them via [`Dense::params_grads_mut`].
///
/// # Examples
///
/// ```
/// use h2o_tensor::{Dense, Activation, Matrix};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
/// let x = Matrix::zeros(4, 3);
/// let (y, pre) = layer.forward(&x);
/// assert_eq!(y.shape(), (4, 2));
/// let grad_x = layer.backward(&x, &pre, &Matrix::full(4, 2, 1.0));
/// assert_eq!(grad_x.shape(), (4, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
}

impl Dense {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(n_in: usize, n_out: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Self {
            w: Matrix::xavier(n_in, n_out, rng),
            b: vec![0.0; n_out],
            activation,
            grad_w: Matrix::zeros(n_in, n_out),
            grad_b: vec![0.0; n_out],
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass: the output `act(x·W + b)`, and the pre-activation
    /// `x·W + b` that [`Dense::backward`] takes.
    pub fn forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let pre = x.matmul(&self.w).add_row_broadcast(&self.b);
        (self.activation.apply_matrix(&pre), pre)
    }

    /// Backward pass for the input `x` and pre-activation `pre` of a
    /// [`Dense::forward`]. Accumulates parameter gradients and returns the
    /// gradient w.r.t. the layer input.
    pub fn backward(&mut self, x: &Matrix, pre: &Matrix, grad_out: &Matrix) -> Matrix {
        self.accumulate(x, pre, grad_out).matmul_nt(&self.w)
    }

    /// [`Dense::backward`] without the input gradient: for a layer that
    /// reads the network's input, whose gradient nobody reads.
    pub fn backward_params(&mut self, x: &Matrix, pre: &Matrix, grad_out: &Matrix) {
        self.accumulate(x, pre, grad_out);
    }

    /// Accumulates the parameter gradients; returns the gradient w.r.t.
    /// the pre-activation.
    fn accumulate(&mut self, x: &Matrix, pre: &Matrix, grad_out: &Matrix) -> Matrix {
        let d_pre = grad_out.hadamard(&self.activation.derivative_matrix(pre));
        self.grad_w.add_scaled_assign(&x.matmul_tn(&d_pre), 1.0);
        for (g, s) in self.grad_b.iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        d_pre
    }

    /// Yields `(params, grads)` buffer pairs for an optimizer, in a stable
    /// order (weights then bias).
    pub fn params_grads_mut(&mut self) -> [(&mut [f32], &mut [f32]); 2] {
        [
            (self.w.as_mut_slice(), self.grad_w.as_mut_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_mut_slice()),
        ]
    }
}

/// A fine-grained weight-sharing dense layer.
///
/// One weight matrix is allocated at the maximum searchable size
/// `(max_in, max_out)`; a candidate with a smaller layer width uses the
/// upper-left `(active_in, active_out)` sub-matrix, and the activation is a
/// candidate's choice too — the MLP weight-sharing scheme of the H2O-NAS
/// DLRM super-network (③ in Fig. 3 of the paper).
///
/// The default layer is empty (`0 × 0`): a placeholder for a layer moved
/// out of its network, whose forward rejects every shape.
#[derive(Debug, Clone, Default)]
pub struct MaskedDense {
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
}

impl MaskedDense {
    /// Creates a layer sized for the largest candidate.
    pub fn new(max_in: usize, max_out: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: Matrix::xavier(max_in, max_out, rng),
            b: vec![0.0; max_out],
            grad_w: Matrix::zeros(max_in, max_out),
            grad_b: vec![0.0; max_out],
        }
    }

    /// Maximum input width.
    pub fn max_in(&self) -> usize {
        self.w.rows()
    }

    /// Maximum output width.
    pub fn max_out(&self) -> usize {
        self.w.cols()
    }

    /// Copies the `(active_in, active_out)` sub-matrix into a standalone
    /// [`Dense`] layer with `activation` — used to materialise the final
    /// architecture after a search.
    pub fn extract_dense(
        &self,
        (active_in, active_out): (usize, usize),
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Dense {
        let mut d = Dense::new(active_in, active_out, activation, rng);
        let mut w = Matrix::zeros(active_in, active_out);
        for r in 0..active_in {
            w.row_mut(r).copy_from_slice(&self.w.row(r)[..active_out]);
        }
        // Overwrite the randomly initialised weights with the shared ones.
        d.w = w;
        d.b = self.b[..active_out].to_vec();
        d
    }

    /// Forward pass over the upper-left `(active_in, active_out)`
    /// sub-matrix: the output `act(x·W[..active_in, ..active_out] +
    /// b[..active_out])`, and the pre-activation that
    /// [`MaskedDense::backward`] takes.
    ///
    /// # Panics
    ///
    /// Panics if the shape is zero or exceeds the allocated maximum, or if
    /// `x.cols() != active_in`.
    pub fn forward(
        &self,
        x: &Matrix,
        (active_in, active_out): (usize, usize),
        activation: Activation,
    ) -> (Matrix, Matrix) {
        assert!(
            (1..=self.w.rows()).contains(&active_in) && (1..=self.w.cols()).contains(&active_out),
            "active shape ({active_in}, {active_out}) out of range"
        );
        assert_eq!(x.cols(), active_in, "input width must equal active_in");
        let mut pre = Matrix::zeros(x.rows(), active_out);
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let out_row = pre.row_mut(i);
            for (k, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let w_row = &self.w.row(k)[..active_out];
                for (o, &wv) in out_row.iter_mut().zip(w_row) {
                    *o += a * wv;
                }
            }
        }
        let pre = pre.add_row_broadcast(&self.b[..active_out]);
        (activation.apply_matrix(&pre), pre)
    }

    /// Backward pass for the input `x` and pre-activation `pre` of a
    /// [`MaskedDense::forward`] at the same shape and activation: accumulates
    /// the parameter gradients and returns the gradient w.r.t. `x`.
    /// Gradients outside the active region are untouched (those weights
    /// were not used).
    ///
    /// # Panics
    ///
    /// Panics if `x`, `pre` or `grad_out` does not fit the shape.
    pub fn backward(
        &mut self,
        x: &Matrix,
        pre: &Matrix,
        grad_out: &Matrix,
        shape: (usize, usize),
        activation: Activation,
    ) -> Matrix {
        let d_pre = self.accumulate(x, pre, grad_out, shape, activation);
        // grad_x = d_pre · W[:active_in, :active_out]ᵀ
        d_pre.matmul_nt_block(&self.w, shape.0, shape.1)
    }

    /// [`MaskedDense::backward`] without the gradient w.r.t. `x`: for a
    /// layer that reads the network's input, whose gradient nobody reads.
    ///
    /// # Panics
    ///
    /// As [`MaskedDense::backward`].
    pub fn backward_params(
        &mut self,
        x: &Matrix,
        pre: &Matrix,
        grad_out: &Matrix,
        shape: (usize, usize),
        activation: Activation,
    ) {
        self.accumulate(x, pre, grad_out, shape, activation);
    }

    /// Accumulates the parameter gradients of a backward pass; returns the
    /// gradient w.r.t. the pre-activation.
    fn accumulate(
        &mut self,
        x: &Matrix,
        pre: &Matrix,
        grad_out: &Matrix,
        (active_in, active_out): (usize, usize),
        activation: Activation,
    ) -> Matrix {
        assert_eq!(
            (x.cols(), pre.cols()),
            (active_in, active_out),
            "tape shape mismatch"
        );
        assert_eq!(grad_out.shape(), pre.shape(), "grad_out shape mismatch");
        let d_pre = grad_out.hadamard(&activation.derivative_matrix(pre));
        // grad_w[k, j] += sum_i x[i, k] * d_pre[i, j]  (active region only)
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let d_row = d_pre.row(i);
            for (k, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let g_row = &mut self.grad_w.row_mut(k)[..active_out];
                for (g, &d) in g_row.iter_mut().zip(d_row) {
                    *g += xv * d;
                }
            }
        }
        for (g, s) in self.grad_b[..active_out].iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        d_pre
    }

    /// Yields `(params, grads)` buffer pairs for an optimizer.
    pub fn params_grads_mut(&mut self) -> [(&mut [f32], &mut [f32]); 2] {
        [
            (self.w.as_mut_slice(), self.grad_w.as_mut_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_mut_slice()),
        ]
    }

    /// Serialises the trainable buffers (full weight matrix and bias) for
    /// checkpointing. Gradients are transient per-step state and are not
    /// written.
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_f32_slice(self.w.as_slice());
        w.put_f32_slice(&self.b);
    }

    /// Restores buffers written by [`MaskedDense::write_state`].
    ///
    /// # Errors
    ///
    /// Fails if the recorded buffer lengths do not match this layer's shape.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        r.read_f32_slice(self.w.as_mut_slice())?;
        r.read_f32_slice(&mut self.b)
    }
}

/// A low-rank factorised dense layer `y = act((x·U)·V + b)` with a
/// searchable rank.
///
/// `U` is `(n_in, max_rank)` and `V` is `(max_rank, n_out)`; a candidate
/// with rank `r` uses the first `r` columns of `U` and rows of `V`
/// (fine-grained sharing, ④ in Fig. 3). Unlike classic data-science
/// factorisation, both the rank *and* the factor weights are learned
/// directly (§5.1.1 of the paper).
///
/// The default layer is empty (rank 0): a placeholder for a layer moved
/// out of its network, whose forward rejects every shape.
#[derive(Debug, Clone, Default)]
pub struct LowRankDense {
    u: Matrix,
    v: Matrix,
    b: Vec<f32>,
    activation: Activation,
    grad_u: Matrix,
    grad_v: Matrix,
    grad_b: Vec<f32>,
}

/// What [`LowRankDense::forward`] keeps for [`LowRankDense::backward`]: the
/// hidden product `x·U` and the pre-activation.
#[derive(Debug)]
pub struct LowRankTape {
    hidden: Matrix,
    pre: Matrix,
}

impl LowRankDense {
    /// Creates a factorised layer sized for the maximum searchable rank.
    ///
    /// # Panics
    ///
    /// Panics if `max_rank == 0`.
    pub fn new(
        n_in: usize,
        n_out: usize,
        max_rank: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(max_rank > 0, "max_rank must be positive");
        Self {
            u: Matrix::xavier(n_in, max_rank, rng),
            v: Matrix::xavier(max_rank, n_out, rng),
            b: vec![0.0; n_out],
            activation,
            grad_u: Matrix::zeros(n_in, max_rank),
            grad_v: Matrix::zeros(max_rank, n_out),
            grad_b: vec![0.0; n_out],
        }
    }

    /// Maximum searchable rank.
    pub fn max_rank(&self) -> usize {
        self.u.cols()
    }

    /// Forward pass through the `(active_in, active_out)` sub-factorisation
    /// at rank `r`: the output `act(x·U[..active_in, ..r]·V[..r,
    /// ..active_out] + b[..active_out])`, and the tape that
    /// [`LowRankDense::backward`] takes.
    ///
    /// # Panics
    ///
    /// Panics if a dimension or the rank is zero or exceeds its allocated
    /// maximum, or if `x.cols() != active_in`.
    pub fn forward(
        &self,
        x: &Matrix,
        (active_in, active_out): (usize, usize),
        r: usize,
    ) -> (Matrix, LowRankTape) {
        assert!(
            (1..=self.u.rows()).contains(&active_in)
                && (1..=self.v.cols()).contains(&active_out)
                && (1..=self.u.cols()).contains(&r),
            "active shape ({active_in}, {active_out}) at rank {r} out of range"
        );
        assert_eq!(x.cols(), active_in, "input width must equal active_in");
        // hidden = x · U[:active_in, :r]
        let mut hidden = Matrix::zeros(x.rows(), r);
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let h_row = hidden.row_mut(i);
            for (k, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let u_row = &self.u.row(k)[..r];
                for (h, &uv) in h_row.iter_mut().zip(u_row) {
                    *h += a * uv;
                }
            }
        }
        // pre = hidden · V[:r, :active_out]
        let mut pre = Matrix::zeros(x.rows(), active_out);
        for i in 0..x.rows() {
            let h_row = hidden.row(i);
            let p_row = pre.row_mut(i);
            for (k, &h) in h_row.iter().enumerate() {
                let v_row = &self.v.row(k)[..active_out];
                for (p, &vv) in p_row.iter_mut().zip(v_row) {
                    *p += h * vv;
                }
            }
        }
        let pre = pre.add_row_broadcast(&self.b[..active_out]);
        (
            self.activation.apply_matrix(&pre),
            LowRankTape { hidden, pre },
        )
    }

    /// Backward pass for the input `x` and tape of a
    /// [`LowRankDense::forward`] at the same shape and rank: accumulates
    /// gradients for the active rank only and returns the gradient w.r.t.
    /// `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x`, the tape or `grad_out` does not fit the shape.
    pub fn backward(
        &mut self,
        x: &Matrix,
        tape: &LowRankTape,
        grad_out: &Matrix,
        shape: (usize, usize),
        r: usize,
    ) -> Matrix {
        let d_hidden = self.accumulate(x, tape, grad_out, shape, r);
        // grad_x = d_hidden · U[:active_in, :r]ᵀ
        d_hidden.matmul_nt_block(&self.u, shape.0, r)
    }

    /// [`LowRankDense::backward`] without the gradient w.r.t. `x`: for a
    /// layer that reads the network's input, whose gradient nobody reads.
    /// `U`'s gradient still needs the gradient w.r.t. `x·U`.
    ///
    /// # Panics
    ///
    /// As [`LowRankDense::backward`].
    pub fn backward_params(
        &mut self,
        x: &Matrix,
        tape: &LowRankTape,
        grad_out: &Matrix,
        shape: (usize, usize),
        r: usize,
    ) {
        self.accumulate(x, tape, grad_out, shape, r);
    }

    /// Accumulates the parameter gradients of a backward pass; returns the
    /// gradient w.r.t. the hidden product `x·U`.
    fn accumulate(
        &mut self,
        x: &Matrix,
        tape: &LowRankTape,
        grad_out: &Matrix,
        (active_in, active_out): (usize, usize),
        r: usize,
    ) -> Matrix {
        let LowRankTape { hidden, pre } = tape;
        assert_eq!(
            (x.cols(), hidden.cols(), pre.cols()),
            (active_in, r, active_out),
            "tape shape mismatch"
        );
        let d_pre = grad_out.hadamard(&self.activation.derivative_matrix(pre));
        // grad_v[:r, :active_out] += hiddenᵀ · d_pre
        let gv = hidden.matmul_tn(&d_pre);
        for k in 0..r {
            for (g, &d) in self.grad_v.row_mut(k)[..active_out]
                .iter_mut()
                .zip(gv.row(k))
            {
                *g += d;
            }
        }
        for (g, s) in self.grad_b[..active_out].iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        // d_hidden = d_pre · V[:r, :active_out]ᵀ
        let d_hidden = d_pre.matmul_nt_block(&self.v, r, active_out);
        // grad_u[:active_in, :r] += xᵀ · d_hidden
        let gu = x.matmul_tn(&d_hidden);
        for row in 0..active_in {
            for (g, &d) in self.grad_u.row_mut(row)[..r].iter_mut().zip(gu.row(row)) {
                *g += d;
            }
        }
        d_hidden
    }

    /// Yields `(params, grads)` buffer pairs for an optimizer.
    pub fn params_grads_mut(&mut self) -> [(&mut [f32], &mut [f32]); 3] {
        [
            (self.u.as_mut_slice(), self.grad_u.as_mut_slice()),
            (self.v.as_mut_slice(), self.grad_v.as_mut_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_mut_slice()),
        ]
    }

    /// Serialises the trainable buffers (`U`, `V`, bias) for checkpointing.
    /// Gradients are transient per-step state and are not written.
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_f32_slice(self.u.as_slice());
        w.put_f32_slice(self.v.as_slice());
        w.put_f32_slice(&self.b);
    }

    /// Restores buffers written by [`LowRankDense::write_state`].
    ///
    /// # Errors
    ///
    /// Fails if the recorded buffer lengths do not match this layer's shape.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        r.read_f32_slice(self.u.as_mut_slice())?;
        r.read_f32_slice(self.v.as_mut_slice())?;
        r.read_f32_slice(&mut self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{edge_values, reference_matmul_nt_block, same_bits, special_share};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// `MaskedDense::backward` with its input gradient taken from the scalar
    /// reference product: what the layer must match bit for bit.
    fn reference_masked_backward(
        l: &mut MaskedDense,
        x: &Matrix,
        pre: &Matrix,
        grad_out: &Matrix,
        (active_in, active_out): (usize, usize),
        activation: Activation,
    ) -> Matrix {
        assert_eq!(grad_out.shape(), pre.shape(), "grad_out shape mismatch");
        let d_pre = grad_out.hadamard(&activation.derivative_matrix(pre));
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let d_row = d_pre.row(i);
            for (k, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let g_row = &mut l.grad_w.row_mut(k)[..active_out];
                for (g, &d) in g_row.iter_mut().zip(d_row) {
                    *g += xv * d;
                }
            }
        }
        for (g, s) in l.grad_b[..active_out].iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        reference_matmul_nt_block(&d_pre, &l.w, active_in, active_out)
    }

    /// `LowRankDense::backward` with `d_hidden` and its input gradient taken
    /// from the scalar reference product: what the layer must match bit for
    /// bit.
    fn reference_low_rank_backward(
        l: &mut LowRankDense,
        x: &Matrix,
        tape: &LowRankTape,
        grad_out: &Matrix,
        (active_in, active_out): (usize, usize),
        r: usize,
    ) -> Matrix {
        let LowRankTape { hidden, pre } = tape;
        let d_pre = grad_out.hadamard(&l.activation.derivative_matrix(pre));
        let gv = hidden.matmul_tn(&d_pre);
        for k in 0..r {
            for (g, &d) in l.grad_v.row_mut(k)[..active_out].iter_mut().zip(gv.row(k)) {
                *g += d;
            }
        }
        for (g, s) in l.grad_b[..active_out].iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        let d_hidden = reference_matmul_nt_block(&d_pre, &l.v, r, active_out);
        let gu = x.matmul_tn(&d_hidden);
        for row in 0..active_in {
            for (g, &d) in l.grad_u.row_mut(row)[..r].iter_mut().zip(gu.row(row)) {
                *g += d;
            }
        }
        reference_matmul_nt_block(&d_hidden, &l.u, active_in, r)
    }

    /// A matrix of [`edge_values`].
    fn edge_matrix(rng: &mut StdRng, special: f64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, edge_values(rng, special, rows * cols))
    }

    /// An active width in `1..=max`: 1 and `max` each a third of the time.
    fn active_width(rng: &mut StdRng, max: usize) -> usize {
        match rng.gen_range(0usize..3) {
            0 => 1,
            1 => max,
            _ => rng.gen_range(1..=max),
        }
    }

    const ACTIVATIONS: [Activation; 7] = [
        Activation::Relu,
        Activation::Swish,
        Activation::Gelu,
        Activation::SquaredRelu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random shapes and active sub-blocks (rank 1 and full rank
        /// included), with weights, inputs, upstream gradients and already
        /// accumulated gradients mixing in signed zeros, subnormals,
        /// infinities and NaN, both shared-weight layers' backward passes
        /// match the dot-product reference bit for bit: every gradient
        /// buffer and the returned input gradient. `backward_params`
        /// leaves the same gradient buffers.
        fn backward_matches_dot_product_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special = special_share(&mut rng);
            let activation = ACTIVATIONS[rng.gen_range(0..ACTIVATIONS.len())];
            let n = rng.gen_range(1usize..6);
            let (max_in, max_out) = (rng.gen_range(1usize..14), rng.gen_range(1usize..14));
            let shape = (active_width(&mut rng, max_in), active_width(&mut rng, max_out));

            let mut fast = MaskedDense::new(max_in, max_out, &mut rng);
            fast.w = edge_matrix(&mut rng, special, max_in, max_out);
            fast.b = edge_values(&mut rng, special, max_out);
            fast.grad_w = edge_matrix(&mut rng, special, max_in, max_out);
            let x = edge_matrix(&mut rng, special, n, shape.0);
            let (_, pre) = fast.forward(&x, shape, activation);
            let grad_out = edge_matrix(&mut rng, special, n, shape.1);
            let mut slow = fast.clone();
            let mut params_only = fast.clone();
            let got = fast.backward(&x, &pre, &grad_out, shape, activation);
            let want = reference_masked_backward(&mut slow, &x, &pre, &grad_out, shape, activation);
            params_only.backward_params(&x, &pre, &grad_out, shape, activation);
            same_bits("masked grad_x", got.as_slice(), want.as_slice())?;
            for layer in [&slow, &params_only] {
                same_bits("masked grad_w", fast.grad_w.as_slice(), layer.grad_w.as_slice())?;
                same_bits("masked grad_b", &fast.grad_b, &layer.grad_b)?;
            }

            let max_rank = rng.gen_range(1usize..10);
            let rank = active_width(&mut rng, max_rank);
            let mut fast = LowRankDense::new(max_in, max_out, max_rank, activation, &mut rng);
            fast.u = edge_matrix(&mut rng, special, max_in, max_rank);
            fast.v = edge_matrix(&mut rng, special, max_rank, max_out);
            fast.b = edge_values(&mut rng, special, max_out);
            fast.grad_u = edge_matrix(&mut rng, special, max_in, max_rank);
            let x = edge_matrix(&mut rng, special, n, shape.0);
            let (_, tape) = fast.forward(&x, shape, rank);
            let mut slow = fast.clone();
            let mut params_only = fast.clone();
            let got = fast.backward(&x, &tape, &grad_out, shape, rank);
            let want = reference_low_rank_backward(&mut slow, &x, &tape, &grad_out, shape, rank);
            params_only.backward_params(&x, &tape, &grad_out, shape, rank);
            same_bits("low-rank grad_x", got.as_slice(), want.as_slice())?;
            for layer in [&slow, &params_only] {
                same_bits("low-rank grad_u", fast.grad_u.as_slice(), layer.grad_u.as_slice())?;
                same_bits("low-rank grad_v", fast.grad_v.as_slice(), layer.grad_v.as_slice())?;
                same_bits("low-rank grad_b", &fast.grad_b, &layer.grad_b)?;
            }
        }
    }

    #[test]
    fn dense_forward_shape() {
        let mut r = rng();
        let d = Dense::new(5, 3, Activation::Relu, &mut r);
        let x = Matrix::xavier(7, 5, &mut r);
        assert_eq!(d.forward(&x).0.shape(), (7, 3));
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, Activation::Tanh, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        // loss = sum(out); grad_out = ones
        let (out, pre) = d.forward(&x);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        d.backward(&x, &pre, &ones);
        let analytic = d.grad_w.get(1, 1);
        let eps = 1e-3;
        let orig = d.w.get(1, 1);
        d.w.set(1, 1, orig + eps);
        let lp: f32 = d.forward(&x).0.as_slice().iter().sum();
        d.w.set(1, 1, orig - eps);
        let lm: f32 = d.forward(&x).0.as_slice().iter().sum();
        d.w.set(1, 1, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
    }

    #[test]
    fn masked_dense_equals_extracted_dense() {
        let mut r = rng();
        let md = MaskedDense::new(8, 8, &mut r);
        let x = Matrix::xavier(4, 5, &mut r);
        let (got, _) = md.forward(&x, (5, 3), Activation::Swish);
        let dense = md.extract_dense((5, 3), Activation::Swish, &mut rng());
        let (expected, _) = dense.forward(&x);
        for (a, b) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_dense_gradients_confined_to_active_region() {
        let mut r = rng();
        let mut md = MaskedDense::new(6, 6, &mut r);
        let x = Matrix::full(2, 3, 1.0);
        let (out, pre) = md.forward(&x, (3, 2), Activation::Relu);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        md.backward(&x, &pre, &ones, (3, 2), Activation::Relu);
        // Gradients outside the 3x2 active region must be exactly zero.
        for row in 0..6 {
            for col in 0..6 {
                if row >= 3 || col >= 2 {
                    assert_eq!(md.grad_w.get(row, col), 0.0, "leak at ({row},{col})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn masked_dense_rejects_oversized_activation() {
        let mut r = rng();
        let md = MaskedDense::new(4, 4, &mut r);
        md.forward(&Matrix::zeros(1, 5), (5, 2), Activation::Relu);
    }

    #[test]
    fn low_rank_full_rank_matches_product() {
        let mut r = rng();
        let lr = LowRankDense::new(4, 3, 4, Activation::Identity, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let (got, _) = lr.forward(&x, (4, 3), 4);
        let expected = x.matmul(&lr.u).matmul(&lr.v).add_row_broadcast(&lr.b);
        for (a, b) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn low_rank_reduced_rank_changes_output() {
        let mut r = rng();
        let lr = LowRankDense::new(4, 3, 4, Activation::Identity, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let (full, _) = lr.forward(&x, (4, 3), 4);
        let (reduced, _) = lr.forward(&x, (4, 3), 1);
        assert_ne!(full, reduced);
    }

    #[test]
    fn low_rank_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut lr = LowRankDense::new(3, 2, 2, Activation::Identity, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let (out, tape) = lr.forward(&x, (3, 2), 2);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        lr.backward(&x, &tape, &ones, (3, 2), 2);
        let analytic = lr.grad_u.get(0, 0);
        let eps = 1e-3;
        let orig = lr.u.get(0, 0);
        lr.u.set(0, 0, orig + eps);
        let lp: f32 = lr.forward(&x, (3, 2), 2).0.as_slice().iter().sum();
        lr.u.set(0, 0, orig - eps);
        let lm: f32 = lr.forward(&x, (3, 2), 2).0.as_slice().iter().sum();
        lr.u.set(0, 0, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
    }

    #[test]
    fn dense_backward_input_gradient_shape() {
        let mut r = rng();
        let mut d = Dense::new(5, 3, Activation::Gelu, &mut r);
        let x = Matrix::xavier(2, 5, &mut r);
        let (out, pre) = d.forward(&x);
        let gx = d.backward(&x, &pre, &Matrix::full(out.rows(), out.cols(), 1.0));
        assert_eq!(gx.shape(), (2, 5));
    }
}
