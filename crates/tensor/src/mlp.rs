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

/// What [`Mlp::forward`] keeps for [`Mlp::backward_and_step`]: each layer's
/// output and pre-activation.
#[derive(Debug)]
pub struct MlpTape {
    layers: Vec<(Matrix, Matrix)>,
}

impl MlpTape {
    /// The network's output: the last layer's.
    pub fn output(&self) -> &Matrix {
        &self.layers[self.layers.len() - 1].0
    }
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

    /// Forward pass: every layer's output and pre-activation, the tape
    /// [`Mlp::backward_and_step`] takes. [`MlpTape::output`] is the
    /// network's output.
    pub fn forward(&self, x: &Matrix) -> MlpTape {
        let mut layers: Vec<(Matrix, Matrix)> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let pass = layer.forward(layers.last().map_or(x, |(out, _)| out));
            layers.push(pass);
        }
        MlpTape { layers }
    }

    /// Inference-only forward pass: the output alone.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x).0;
        for layer in &self.layers[1..] {
            h = layer.forward(&h).0;
        }
        h
    }

    /// Backpropagates `grad_out` through the tape of [`Mlp::forward`] on
    /// `x` and applies one optimizer step.
    pub fn backward_and_step(&mut self, x: &Matrix, tape: &MlpTape, grad_out: &Matrix) {
        let mut g = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let pre = &tape.layers[i].1;
            let grad = g.as_ref().unwrap_or(grad_out);
            match i.checked_sub(1) {
                Some(j) => g = Some(layer.backward(&tape.layers[j].0, pre, grad)),
                // Layer 0 reads `x`, whose gradient nobody reads.
                None => layer.backward_params(x, pre, grad),
            }
        }
        self.optimizer.begin_step();
        let mut slot = 0;
        for layer in &mut self.layers {
            for (params, grads) in layer.params_grads_mut() {
                self.optimizer.step(slot, params, grads);
                slot += 1;
            }
        }
    }

    /// One MSE regression step; returns the loss before the update.
    pub fn train_step_mse(&mut self, x: &Matrix, target: &Matrix) -> f32 {
        let tape = self.forward(x);
        let (l, grad) = loss::mse(tape.output(), target);
        self.backward_and_step(x, &tape, &grad);
        l
    }

    /// One binary-cross-entropy step on single-logit outputs; returns the
    /// loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if the network output width is not 1.
    pub fn train_step_bce(&mut self, x: &Matrix, labels: &[f32]) -> f32 {
        let tape = self.forward(x);
        let (l, grad) = loss::bce_with_logits(tape.output(), labels);
        self.backward_and_step(x, &tape, &grad);
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
        let net = Mlp::new(
            &[4, 8, 2],
            Activation::Swish,
            OptimConfig::sgd(0.1),
            &mut rng,
        );
        let x = Matrix::xavier(3, 4, &mut rng);
        assert_eq!(net.forward(&x).output(), &net.infer(&x));
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
