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

use crate::state::{StateError, StateReader, StateWriter};
use crate::{Activation, Matrix};
use rand::Rng;

/// A plain fully-connected layer `y = act(x·W + b)`.
///
/// Stores gradients from the most recent [`Dense::backward`] call;
/// an optimizer consumes them via [`Dense::params_grads_mut`].
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
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    cached_input: Option<Matrix>,
    cached_pre: Option<Matrix>,
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
            cached_input: None,
            cached_pre: None,
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

    /// Forward pass; caches activations for the next [`Dense::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = x.matmul(&self.w).add_row_broadcast(&self.b);
        let out = self.activation.apply_matrix(&pre);
        self.cached_input = Some(x.clone());
        self.cached_pre = Some(pre);
        out
    }

    /// Forward pass without caching (inference only).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let pre = x.matmul(&self.w).add_row_broadcast(&self.b);
        self.activation.apply_matrix(&pre)
    }

    /// Backward pass. Accumulates parameter gradients and returns the
    /// gradient w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let x = self.cached_input.as_ref().expect("backward before forward");
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let pre = self.cached_pre.as_ref().expect("backward before forward");
        let d_pre = grad_out.hadamard(&self.activation.derivative_matrix(pre));
        self.grad_w.add_scaled_assign(&x.matmul_tn(&d_pre), 1.0);
        for (g, s) in self.grad_b.iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        d_pre.matmul_nt(&self.w)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill(0.0);
    }

    /// Yields `(params, grads)` buffer pairs for an optimizer, in a stable
    /// order (weights then bias).
    pub fn params_grads_mut(&mut self) -> [(&mut [f32], &[f32]); 2] {
        [
            (self.w.as_mut_slice(), self.grad_w.as_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_slice()),
        ]
    }
}

/// A fine-grained weight-sharing dense layer.
///
/// One weight matrix is allocated at the maximum searchable size
/// `(max_in, max_out)`; a candidate with a smaller layer width re-uses the
/// upper-left `(active_in, active_out)` sub-matrix and masks the rest — the
/// MLP weight-sharing scheme of the H2O-NAS DLRM super-network (③ in
/// Fig. 3 of the paper).
#[derive(Debug, Clone)]
pub struct MaskedDense {
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    active_in: usize,
    active_out: usize,
    cached_input: Option<Matrix>,
    cached_pre: Option<Matrix>,
}

impl MaskedDense {
    /// Creates a layer sized for the largest candidate; initially the full
    /// matrix is active.
    pub fn new(max_in: usize, max_out: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Self {
            w: Matrix::xavier(max_in, max_out, rng),
            b: vec![0.0; max_out],
            activation,
            grad_w: Matrix::zeros(max_in, max_out),
            grad_b: vec![0.0; max_out],
            active_in: max_in,
            active_out: max_out,
            cached_input: None,
            cached_pre: None,
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

    /// Currently active `(in, out)` sub-matrix shape.
    pub fn active_shape(&self) -> (usize, usize) {
        (self.active_in, self.active_out)
    }

    /// Selects the active sub-matrix for the sampled candidate.
    ///
    /// # Panics
    ///
    /// Panics if the requested shape exceeds the allocated maximum or is zero.
    pub fn set_active(&mut self, active_in: usize, active_out: usize) {
        assert!(
            active_in >= 1 && active_in <= self.w.rows(),
            "active_in {active_in} out of range 1..={}",
            self.w.rows()
        );
        assert!(
            active_out >= 1 && active_out <= self.w.cols(),
            "active_out {active_out} out of range 1..={}",
            self.w.cols()
        );
        self.active_in = active_in;
        self.active_out = active_out;
    }

    /// Replaces the activation function — lets a super-network make the
    /// activation itself a searchable decision over shared weights.
    pub fn set_activation(&mut self, activation: Activation) {
        self.activation = activation;
    }

    /// Copies the active sub-matrix into a standalone [`Dense`] layer — used
    /// to materialise the final architecture after a search.
    pub fn extract_dense(&self, rng: &mut impl Rng) -> Dense {
        let mut d = Dense::new(self.active_in, self.active_out, self.activation, rng);
        let mut w = Matrix::zeros(self.active_in, self.active_out);
        for r in 0..self.active_in {
            w.row_mut(r)
                .copy_from_slice(&self.w.row(r)[..self.active_out]);
        }
        // Overwrite the randomly initialised weights with the shared ones.
        d.w = w;
        d.b = self.b[..self.active_out].to_vec();
        d
    }

    /// Forward pass over the active sub-matrix.
    ///
    /// The input must have `active_in` columns (padding/truncation is the
    /// caller's responsibility, matching the super-network contract).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != active_in`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.active_in, "input width must equal active_in");
        let mut pre = Matrix::zeros(x.rows(), self.active_out);
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let out_row = pre.row_mut(i);
            for (k, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let w_row = &self.w.row(k)[..self.active_out];
                for (o, &wv) in out_row.iter_mut().zip(w_row) {
                    *o += a * wv;
                }
            }
        }
        let pre = pre.add_row_broadcast(&self.b[..self.active_out]);
        let out = self.activation.apply_matrix(&pre);
        self.cached_input = Some(x.clone());
        self.cached_pre = Some(pre);
        out
    }

    /// Backward pass over the active sub-matrix. Gradients outside the active
    /// region are untouched (those weights were not used).
    ///
    /// # Panics
    ///
    /// Panics if called before [`MaskedDense::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let x = self.cached_input.as_ref().expect("backward before forward");
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let pre = self.cached_pre.as_ref().expect("backward before forward");
        assert_eq!(grad_out.shape(), pre.shape(), "grad_out shape mismatch");
        let d_pre = grad_out.hadamard(&self.activation.derivative_matrix(pre));
        // grad_w[k, j] += sum_i x[i, k] * d_pre[i, j]  (active region only)
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let d_row = d_pre.row(i);
            for (k, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let g_row = &mut self.grad_w.row_mut(k)[..self.active_out];
                for (g, &d) in g_row.iter_mut().zip(d_row) {
                    *g += xv * d;
                }
            }
        }
        for (g, s) in self.grad_b[..self.active_out]
            .iter_mut()
            .zip(d_pre.col_sums())
        {
            *g += s;
        }
        // grad_x = d_pre · W[:active_in, :active_out]ᵀ
        d_pre.matmul_nt_block(&self.w, self.active_in, self.active_out)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill(0.0);
    }

    /// Yields `(params, grads)` buffer pairs for an optimizer.
    pub fn params_grads_mut(&mut self) -> [(&mut [f32], &[f32]); 2] {
        [
            (self.w.as_mut_slice(), self.grad_w.as_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_slice()),
        ]
    }

    /// Serialises the trainable buffers (full weight matrix and bias) for
    /// checkpointing. Gradients, activation caches, and the active mask are
    /// transient per-step state and are not written.
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
#[derive(Debug, Clone)]
pub struct LowRankDense {
    u: Matrix,
    v: Matrix,
    b: Vec<f32>,
    activation: Activation,
    grad_u: Matrix,
    grad_v: Matrix,
    grad_b: Vec<f32>,
    active_rank: usize,
    active_in: usize,
    active_out: usize,
    cached_input: Option<Matrix>,
    cached_hidden: Option<Matrix>,
    cached_pre: Option<Matrix>,
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
            active_rank: max_rank,
            active_in: n_in,
            active_out: n_out,
            cached_input: None,
            cached_hidden: None,
            cached_pre: None,
        }
    }

    /// Maximum searchable rank.
    pub fn max_rank(&self) -> usize {
        self.u.cols()
    }

    /// Currently active rank.
    pub fn active_rank(&self) -> usize {
        self.active_rank
    }

    /// Selects the active rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero or exceeds the allocated maximum.
    pub fn set_active_rank(&mut self, rank: usize) {
        assert!(
            rank >= 1 && rank <= self.u.cols(),
            "rank {rank} out of range"
        );
        self.active_rank = rank;
    }

    /// Selects the active `(in, out, rank)` sub-factorisation — the
    /// super-network masks widths and rank simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or exceeds its allocated maximum.
    pub fn set_active(&mut self, active_in: usize, active_out: usize, rank: usize) {
        assert!(
            active_in >= 1 && active_in <= self.u.rows(),
            "active_in {active_in} out of range"
        );
        assert!(
            active_out >= 1 && active_out <= self.v.cols(),
            "active_out {active_out} out of range"
        );
        self.active_in = active_in;
        self.active_out = active_out;
        self.set_active_rank(rank);
    }

    /// Currently active `(in, out)` widths.
    pub fn active_shape(&self) -> (usize, usize) {
        (self.active_in, self.active_out)
    }

    /// Parameter count at the active rank and widths.
    pub fn active_param_count(&self) -> usize {
        self.active_in * self.active_rank + self.active_rank * self.active_out + self.active_out
    }

    /// Forward pass through the active `(in, out, rank)` sub-factorisation.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != active_in`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.active_in, "input width must equal active_in");
        let r = self.active_rank;
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
        let mut pre = Matrix::zeros(x.rows(), self.active_out);
        for i in 0..x.rows() {
            let h_row = hidden.row(i);
            let p_row = pre.row_mut(i);
            for (k, &h) in h_row.iter().enumerate() {
                let v_row = &self.v.row(k)[..self.active_out];
                for (p, &vv) in p_row.iter_mut().zip(v_row) {
                    *p += h * vv;
                }
            }
        }
        let pre = pre.add_row_broadcast(&self.b[..self.active_out]);
        let out = self.activation.apply_matrix(&pre);
        self.cached_input = Some(x.clone());
        self.cached_hidden = Some(hidden);
        self.cached_pre = Some(pre);
        out
    }

    /// Backward pass; accumulates gradients for the active rank only.
    ///
    /// # Panics
    ///
    /// Panics if called before [`LowRankDense::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let x = self.cached_input.as_ref().expect("backward before forward");
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let hidden = self
            .cached_hidden
            .as_ref()
            .expect("backward before forward");
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let pre = self.cached_pre.as_ref().expect("backward before forward");
        let r = self.active_rank;
        let d_pre = grad_out.hadamard(&self.activation.derivative_matrix(pre));
        // grad_v[:r, :active_out] += hiddenᵀ · d_pre
        let gv = hidden.matmul_tn(&d_pre);
        for k in 0..r {
            for (g, &d) in self.grad_v.row_mut(k)[..self.active_out]
                .iter_mut()
                .zip(gv.row(k))
            {
                *g += d;
            }
        }
        for (g, s) in self.grad_b[..self.active_out]
            .iter_mut()
            .zip(d_pre.col_sums())
        {
            *g += s;
        }
        // d_hidden = d_pre · V[:r, :active_out]ᵀ
        let d_hidden = d_pre.matmul_nt_block(&self.v, r, self.active_out);
        // grad_u[:active_in, :r] += xᵀ · d_hidden
        let gu = x.matmul_tn(&d_hidden);
        for row in 0..self.active_in {
            for (g, &d) in self.grad_u.row_mut(row)[..r].iter_mut().zip(gu.row(row)) {
                *g += d;
            }
        }
        // grad_x = d_hidden · U[:active_in, :r]ᵀ
        d_hidden.matmul_nt_block(&self.u, self.active_in, r)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_u.fill_zero();
        self.grad_v.fill_zero();
        self.grad_b.fill(0.0);
    }

    /// Yields `(params, grads)` buffer pairs for an optimizer.
    pub fn params_grads_mut(&mut self) -> [(&mut [f32], &[f32]); 3] {
        [
            (self.u.as_mut_slice(), self.grad_u.as_slice()),
            (self.v.as_mut_slice(), self.grad_v.as_slice()),
            (self.b.as_mut_slice(), self.grad_b.as_slice()),
        ]
    }

    /// Serialises the trainable buffers (`U`, `V`, bias) for checkpointing.
    /// Gradients, caches, and the active rank/widths are transient per-step
    /// state and are not written.
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
    fn reference_masked_backward(l: &mut MaskedDense, grad_out: &Matrix) -> Matrix {
        let x = l.cached_input.as_ref().expect("backward before forward");
        let pre = l.cached_pre.as_ref().expect("backward before forward");
        assert_eq!(grad_out.shape(), pre.shape(), "grad_out shape mismatch");
        let d_pre = grad_out.hadamard(&l.activation.derivative_matrix(pre));
        for i in 0..x.rows() {
            let x_row = x.row(i);
            let d_row = d_pre.row(i);
            for (k, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let g_row = &mut l.grad_w.row_mut(k)[..l.active_out];
                for (g, &d) in g_row.iter_mut().zip(d_row) {
                    *g += xv * d;
                }
            }
        }
        for (g, s) in l.grad_b[..l.active_out].iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        reference_matmul_nt_block(&d_pre, &l.w, l.active_in, l.active_out)
    }

    /// `LowRankDense::backward` with `d_hidden` and its input gradient taken
    /// from the scalar reference product: what the layer must match bit for
    /// bit.
    fn reference_low_rank_backward(l: &mut LowRankDense, grad_out: &Matrix) -> Matrix {
        let x = l.cached_input.as_ref().expect("backward before forward");
        let hidden = l.cached_hidden.as_ref().expect("backward before forward");
        let pre = l.cached_pre.as_ref().expect("backward before forward");
        let r = l.active_rank;
        let d_pre = grad_out.hadamard(&l.activation.derivative_matrix(pre));
        let gv = hidden.matmul_tn(&d_pre);
        for k in 0..r {
            for (g, &d) in l.grad_v.row_mut(k)[..l.active_out]
                .iter_mut()
                .zip(gv.row(k))
            {
                *g += d;
            }
        }
        for (g, s) in l.grad_b[..l.active_out].iter_mut().zip(d_pre.col_sums()) {
            *g += s;
        }
        let d_hidden = reference_matmul_nt_block(&d_pre, &l.v, r, l.active_out);
        let gu = x.matmul_tn(&d_hidden);
        for row in 0..l.active_in {
            for (g, &d) in l.grad_u.row_mut(row)[..r].iter_mut().zip(gu.row(row)) {
                *g += d;
            }
        }
        reference_matmul_nt_block(&d_hidden, &l.u, l.active_in, r)
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
        /// buffer and the returned input gradient.
        fn backward_matches_dot_product_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special = special_share(&mut rng);
            let activation = ACTIVATIONS[rng.gen_range(0..ACTIVATIONS.len())];
            let n = rng.gen_range(1usize..6);
            let (max_in, max_out) = (rng.gen_range(1usize..14), rng.gen_range(1usize..14));
            let (active_in, active_out) = (active_width(&mut rng, max_in), active_width(&mut rng, max_out));

            let mut fast = MaskedDense::new(max_in, max_out, activation, &mut rng);
            fast.w = edge_matrix(&mut rng, special, max_in, max_out);
            fast.b = edge_values(&mut rng, special, max_out);
            fast.grad_w = edge_matrix(&mut rng, special, max_in, max_out);
            fast.set_active(active_in, active_out);
            fast.forward(&edge_matrix(&mut rng, special, n, active_in));
            let grad_out = edge_matrix(&mut rng, special, n, active_out);
            let mut slow = fast.clone();
            let got = fast.backward(&grad_out);
            let want = reference_masked_backward(&mut slow, &grad_out);
            same_bits("masked grad_x", got.as_slice(), want.as_slice())?;
            same_bits("masked grad_w", fast.grad_w.as_slice(), slow.grad_w.as_slice())?;
            same_bits("masked grad_b", &fast.grad_b, &slow.grad_b)?;

            let max_rank = rng.gen_range(1usize..10);
            let rank = active_width(&mut rng, max_rank);
            let mut fast = LowRankDense::new(max_in, max_out, max_rank, activation, &mut rng);
            fast.u = edge_matrix(&mut rng, special, max_in, max_rank);
            fast.v = edge_matrix(&mut rng, special, max_rank, max_out);
            fast.b = edge_values(&mut rng, special, max_out);
            fast.grad_u = edge_matrix(&mut rng, special, max_in, max_rank);
            fast.set_active(active_in, active_out, rank);
            fast.forward(&edge_matrix(&mut rng, special, n, active_in));
            let mut slow = fast.clone();
            let got = fast.backward(&grad_out);
            let want = reference_low_rank_backward(&mut slow, &grad_out);
            same_bits("low-rank grad_x", got.as_slice(), want.as_slice())?;
            same_bits("low-rank grad_u", fast.grad_u.as_slice(), slow.grad_u.as_slice())?;
            same_bits("low-rank grad_v", fast.grad_v.as_slice(), slow.grad_v.as_slice())?;
            same_bits("low-rank grad_b", &fast.grad_b, &slow.grad_b)?;
        }
    }

    #[test]
    fn dense_forward_shape() {
        let mut r = rng();
        let mut d = Dense::new(5, 3, Activation::Relu, &mut r);
        let x = Matrix::xavier(7, 5, &mut r);
        assert_eq!(d.forward(&x).shape(), (7, 3));
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, Activation::Tanh, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        // loss = sum(out); grad_out = ones
        let out = d.forward(&x);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        d.zero_grad();
        d.backward(&ones);
        let analytic = d.grad_w.get(1, 1);
        let eps = 1e-3;
        let orig = d.w.get(1, 1);
        d.w.set(1, 1, orig + eps);
        let lp: f32 = d.infer(&x).as_slice().iter().sum();
        d.w.set(1, 1, orig - eps);
        let lm: f32 = d.infer(&x).as_slice().iter().sum();
        d.w.set(1, 1, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
    }

    #[test]
    fn masked_dense_equals_extracted_dense() {
        let mut r = rng();
        let mut md = MaskedDense::new(8, 8, Activation::Swish, &mut r);
        md.set_active(5, 3);
        let x = Matrix::xavier(4, 5, &mut r);
        let got = md.forward(&x);
        let dense = md.extract_dense(&mut rng());
        let expected = dense.infer(&x);
        for (a, b) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_dense_gradients_confined_to_active_region() {
        let mut r = rng();
        let mut md = MaskedDense::new(6, 6, Activation::Relu, &mut r);
        md.set_active(3, 2);
        let x = Matrix::full(2, 3, 1.0);
        let out = md.forward(&x);
        md.backward(&Matrix::full(out.rows(), out.cols(), 1.0));
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
        let mut md = MaskedDense::new(4, 4, Activation::Relu, &mut r);
        md.set_active(5, 2);
    }

    #[test]
    fn low_rank_full_rank_matches_product() {
        let mut r = rng();
        let mut lr = LowRankDense::new(4, 3, 4, Activation::Identity, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let got = lr.forward(&x);
        let expected = x.matmul(&lr.u).matmul(&lr.v).add_row_broadcast(&lr.b);
        for (a, b) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn low_rank_reduced_rank_changes_output() {
        let mut r = rng();
        let mut lr = LowRankDense::new(4, 3, 4, Activation::Identity, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let full = lr.forward(&x);
        lr.set_active_rank(1);
        let reduced = lr.forward(&x);
        assert_ne!(full, reduced);
    }

    #[test]
    fn low_rank_param_count_scales_with_rank() {
        let mut r = rng();
        let mut lr = LowRankDense::new(10, 8, 6, Activation::Relu, &mut r);
        lr.set_active_rank(2);
        assert_eq!(lr.active_param_count(), 10 * 2 + 2 * 8 + 8);
    }

    #[test]
    fn low_rank_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut lr = LowRankDense::new(3, 2, 2, Activation::Identity, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let out = lr.forward(&x);
        lr.zero_grad();
        lr.backward(&Matrix::full(out.rows(), out.cols(), 1.0));
        let analytic = lr.grad_u.get(0, 0);
        let eps = 1e-3;
        let orig = lr.u.get(0, 0);
        lr.u.set(0, 0, orig + eps);
        let lp: f32 = lr.forward(&x).as_slice().iter().sum();
        lr.u.set(0, 0, orig - eps);
        let lm: f32 = lr.forward(&x).as_slice().iter().sum();
        lr.u.set(0, 0, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
    }

    #[test]
    fn dense_backward_input_gradient_shape() {
        let mut r = rng();
        let mut d = Dense::new(5, 3, Activation::Gelu, &mut r);
        let x = Matrix::xavier(2, 5, &mut r);
        let out = d.forward(&x);
        let gx = d.backward(&Matrix::full(out.rows(), out.cols(), 1.0));
        assert_eq!(gx.shape(), (2, 5));
    }
}
