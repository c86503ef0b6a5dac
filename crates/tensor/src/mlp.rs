//! A multi-layer perceptron container — the workhorse for the H2O-NAS
//! performance model (§6.2.1 of the paper uses a 2×512 MLP) and for test
//! fixtures across the workspace.

use crate::{loss, Activation, Dense, Matrix, OptimConfig, Optimizer};
use rand::Rng;

/// A stack of [`Dense`] layers trained with a shared [`Optimizer`].
///
/// Hidden layers use a common activation; the output layer is linear
/// (identity) so the same network serves regression (performance model) and
/// logit-producing classification heads.
///
/// # Examples
///
/// ```
/// use h2o_tensor::{Mlp, Activation, OptimConfig, Matrix};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Mlp::new(&[4, 16, 1], Activation::Relu, OptimConfig::adam(1e-3), &mut rng);
/// let x = Matrix::zeros(2, 4);
/// assert_eq!(net.infer(&x).shape(), (2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    optimizer: Optimizer,
}

impl Mlp {
    /// Builds an MLP from layer widths `[in, h1, ..., out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(
        widths: &[usize],
        hidden_activation: Activation,
        optim: OptimConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for i in 0..widths.len() - 1 {
            let act = if i + 2 == widths.len() {
                Activation::Identity
            } else {
                hidden_activation
            };
            layers.push(Dense::new(widths[i], widths[i + 1], act, rng));
        }
        Self {
            layers,
            optimizer: Optimizer::new(optim),
        }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.layers[0].n_in()
    }

    /// Output width.
    #[expect(clippy::expect_used, reason = "constructor rejects empty layer lists")]
    pub fn n_out(&self) -> usize {
        self.layers.last().expect("non-empty").n_out()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass with activation caching (call before
    /// [`Mlp::backward_and_step`]).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Inference-only forward pass (no caching, immutable).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.infer(&h);
        }
        h
    }

    /// Backpropagates `grad_out` and applies one optimizer step.
    pub fn backward_and_step(&mut self, grad_out: &Matrix) {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        self.optimizer.begin_step();
        let mut slot = 0;
        for layer in &mut self.layers {
            for (params, grads) in layer.params_grads_mut() {
                self.optimizer.step(slot, params, grads);
                slot += 1;
            }
        }
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// One MSE regression step; returns the loss before the update.
    pub fn train_step_mse(&mut self, x: &Matrix, target: &Matrix) -> f32 {
        let pred = self.forward(x);
        let (l, grad) = loss::mse(&pred, target);
        self.backward_and_step(&grad);
        l
    }

    /// One binary-cross-entropy step on single-logit outputs; returns the
    /// loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if the network output width is not 1.
    pub fn train_step_bce(&mut self, x: &Matrix, labels: &[f32]) -> f32 {
        let pred = self.forward(x);
        let (l, grad) = loss::bce_with_logits(&pred, labels);
        self.backward_and_step(&grad);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_linear_function() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(
            &[2, 16, 1],
            Activation::Relu,
            OptimConfig::adam(0.01),
            &mut rng,
        );
        // y = 2a - b
        let x = Matrix::from_fn(64, 2, |_, _| rng.gen_range(-1.0..1.0));
        let y = Matrix::from_fn(64, 1, |r, _| 2.0 * x.get(r, 0) - x.get(r, 1));
        let mut last = f32::MAX;
        for _ in 0..300 {
            last = net.train_step_mse(&x, &y);
        }
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn learns_xor_with_bce() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::new(
            &[2, 8, 1],
            Activation::Tanh,
            OptimConfig::adam(0.05),
            &mut rng,
        );
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = [0.0, 1.0, 1.0, 0.0];
        let mut last = f32::MAX;
        for _ in 0..800 {
            last = net.train_step_bce(&x, &labels);
        }
        assert!(last < 0.1, "final loss {last}");
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Mlp::new(
            &[3, 5, 2],
            Activation::Relu,
            OptimConfig::sgd(0.1),
            &mut rng,
        );
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(
            &[4, 8, 2],
            Activation::Swish,
            OptimConfig::sgd(0.1),
            &mut rng,
        );
        let x = Matrix::xavier(3, 4, &mut rng);
        assert_eq!(net.forward(&x), net.infer(&x));
    }

    #[test]
    fn output_layer_is_linear() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            OptimConfig::sgd(0.1),
            &mut rng,
        );
        assert_eq!(
            net.layers.last().unwrap().activation(),
            Activation::Identity
        );
    }
}
