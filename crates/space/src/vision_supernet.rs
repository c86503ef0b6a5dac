//! A trainable weight-sharing super-network for vision-style classifiers.
//!
//! The DLRM super-network (§5.1.2) is the paper's novel contribution; this
//! module demonstrates that the same fine-grained sharing machinery (③ in
//! Fig. 3: one maximal weight matrix per layer, candidates use the
//! upper-left sub-matrix) generalises to a second domain — a classifier
//! tower over feature vectors, with **searchable width, depth and
//! activation** per group. It trains for real on `h2o_data::VisionTraffic`
//! and powers the cross-domain one-shot tests.

use crate::decision::{ArchSample, Decision, SearchSpace};
use h2o_tensor::{
    loss, Activation, MaskedDense, Matrix, OptimConfig, Optimizer, StateError, StateReader,
    StateWriter,
};
use rand::Rng;

/// Baseline of one tower group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisionGroupBaseline {
    /// Baseline layer count.
    pub depth: usize,
    /// Baseline layer width.
    pub width: usize,
}

/// Configuration of the vision super-network.
#[derive(Debug, Clone, PartialEq)]
pub struct VisionSupernetConfig {
    /// Input feature dimensionality.
    pub input_features: usize,
    /// Output classes.
    pub classes: usize,
    /// Tower groups.
    pub groups: Vec<VisionGroupBaseline>,
    /// Width step per delta.
    pub width_increment: usize,
}

impl VisionSupernetConfig {
    /// A small configuration for tests and examples.
    pub fn tiny() -> Self {
        Self {
            input_features: 16,
            classes: 4,
            groups: vec![
                VisionGroupBaseline {
                    depth: 1,
                    width: 32,
                },
                VisionGroupBaseline {
                    depth: 1,
                    width: 16,
                },
            ],
            width_increment: 8,
        }
    }
}

/// Per-group searchable choices.
pub mod choices {
    use h2o_tensor::Activation;

    /// Depth deltas.
    pub const DEPTH_DELTAS: [i32; 3] = [-1, 0, 1];
    /// Width deltas (× increment), zero excluded as in Table 5.
    pub const WIDTH_DELTAS: [i32; 6] = [-3, -2, -1, 1, 2, 3];
    /// Activations (the ViT set of Table 5).
    pub const ACTIVATIONS: [Activation; 4] = [
        Activation::Relu,
        Activation::Swish,
        Activation::Gelu,
        Activation::SquaredRelu,
    ];
}

/// Decisions per group (depth, width, activation).
pub const DECISIONS_PER_VISION_GROUP: usize = 3;

/// The weight-sharing classifier super-network.
///
/// # Examples
///
/// ```
/// use h2o_space::{VisionSupernet, VisionSupernetConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng);
/// assert_eq!(net.space().num_decisions(), 6);
/// ```
#[derive(Debug)]
pub struct VisionSupernet {
    config: VisionSupernetConfig,
    space: SearchSpace,
    groups: Vec<Vec<MaskedDense>>,
    head: MaskedDense,
    optimizer: Optimizer,
    active_depths: Vec<usize>,
    sample_applied: bool,
}

impl VisionSupernet {
    /// Allocates the super-network at maximum candidate sizes.
    pub fn new(config: VisionSupernetConfig, rng: &mut impl Rng) -> Self {
        let mut space = SearchSpace::new("vision_mlp");
        for (i, _) in config.groups.iter().enumerate() {
            space.push(Decision::new(
                format!("g{i}/depth"),
                choices::DEPTH_DELTAS.len(),
            ));
            space.push(Decision::new(
                format!("g{i}/width"),
                choices::WIDTH_DELTAS.len(),
            ));
            space.push(Decision::new(
                format!("g{i}/act"),
                choices::ACTIVATIONS.len(),
            ));
        }
        #[expect(
            clippy::expect_used,
            reason = "static choice tables are non-empty consts"
        )]
        let max_delta = *choices::WIDTH_DELTAS.last().expect("non-empty") as usize;
        let max_width = |base: usize| base + max_delta * config.width_increment;
        #[expect(
            clippy::expect_used,
            reason = "static choice tables are non-empty consts"
        )]
        let max_depth_delta = *choices::DEPTH_DELTAS.last().expect("non-empty");
        let mut groups = Vec::with_capacity(config.groups.len());
        let mut prev_max = config.input_features;
        for g in &config.groups {
            let width = max_width(g.width);
            let depth = (g.depth as i32 + max_depth_delta).max(1) as usize;
            let mut layers = Vec::with_capacity(depth);
            for d in 0..depth {
                let max_in = if d == 0 { prev_max } else { width };
                layers.push(MaskedDense::new(max_in, width, Activation::Relu, rng));
            }
            groups.push(layers);
            prev_max = width;
        }
        let head = MaskedDense::new(prev_max, config.classes, Activation::Identity, rng);
        let active_depths = config.groups.iter().map(|g| g.depth).collect();
        // Deep Squared-ReLU towers can explode; clip gradients so every
        // candidate trains stably over the shared weights.
        let mut optimizer = Optimizer::new(OptimConfig::adam(2e-3));
        optimizer.set_grad_clip(1.0);
        Self {
            config,
            space,
            groups,
            head,
            optimizer,
            active_depths,
            sample_applied: false,
        }
    }

    /// The categorical search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The configuration.
    pub fn config(&self) -> &VisionSupernetConfig {
        &self.config
    }

    /// Active trainable parameter count of the current candidate.
    pub fn active_param_count(&self) -> usize {
        let mut total = 0;
        for (layers, &depth) in self.groups.iter().zip(&self.active_depths) {
            for layer in layers.iter().take(depth) {
                let (a_in, a_out) = layer.active_shape();
                total += a_in * a_out + a_out;
            }
        }
        let (h_in, h_out) = self.head.active_shape();
        total + h_in * h_out + h_out
    }

    /// Masks the network down to the candidate described by `sample`.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid.
    pub fn apply_sample(&mut self, sample: &ArchSample) {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract; samples come from this space"
        )]
        self.space.validate(sample).expect("invalid sample");
        let mut prev_active = self.config.input_features;
        for (i, (base, layers)) in self
            .config
            .groups
            .iter()
            .zip(self.groups.iter_mut())
            .enumerate()
        {
            let s = &sample[i * DECISIONS_PER_VISION_GROUP..];
            let depth = ((base.depth as i32 + choices::DEPTH_DELTAS[s[0]]).max(1) as usize)
                .min(layers.len());
            let width = ((base.width as i32
                + choices::WIDTH_DELTAS[s[1]] * self.config.width_increment as i32)
                .max(8) as usize)
                .min(layers[0].max_out());
            let act = choices::ACTIVATIONS[s[2]];
            for (d, layer) in layers.iter_mut().enumerate().take(depth) {
                let a_in = if d == 0 { prev_active } else { width };
                layer.set_active(a_in, width);
                layer.set_activation(act);
            }
            self.active_depths[i] = depth;
            prev_active = width;
        }
        self.head.set_active(prev_active, self.config.classes);
        self.sample_applied = true;
    }

    fn forward(&mut self, features: &Matrix) -> Matrix {
        assert!(self.sample_applied, "apply_sample before forward");
        let mut x = features.clone();
        for (layers, &depth) in self.groups.iter_mut().zip(&self.active_depths) {
            for layer in layers.iter_mut().take(depth) {
                x = layer.forward(&x);
            }
        }
        self.head.forward(&x)
    }

    /// One training step (softmax cross-entropy); returns the loss.
    pub fn train_step(&mut self, features: &Matrix, labels: &[usize]) -> f32 {
        let logits = self.forward(features);
        let (l, grad) = loss::softmax_cross_entropy(&logits, labels);
        let mut g = self.head.backward(&grad);
        for (layers, &depth) in self.groups.iter_mut().zip(&self.active_depths).rev() {
            for layer in layers.iter_mut().take(depth).rev() {
                g = layer.backward(&g);
            }
        }
        self.optimizer.begin_step();
        let mut slot = 0;
        for layers in &mut self.groups {
            for layer in layers.iter_mut() {
                for (params, grads) in layer.params_grads_mut() {
                    self.optimizer.step(slot, params, grads);
                    slot += 1;
                }
            }
        }
        for (params, grads) in self.head.params_grads_mut() {
            self.optimizer.step(slot, params, grads);
            slot += 1;
        }
        for layers in &mut self.groups {
            for layer in layers.iter_mut() {
                layer.zero_grad();
            }
        }
        self.head.zero_grad();
        l
    }

    /// Evaluates the active candidate; returns `(cross_entropy, accuracy)`.
    pub fn evaluate(&mut self, features: &Matrix, labels: &[usize]) -> (f32, f64) {
        let logits = self.forward(features);
        let (ce, _) = loss::softmax_cross_entropy(&logits, labels);
        let mut correct = 0usize;
        for (i, &label) in labels.iter().enumerate() {
            let row = logits.row(i);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c)
                .unwrap_or(0);
            if pred == label {
                correct += 1;
            }
        }
        (ce, correct as f64 / labels.len().max(1) as f64)
    }

    /// Serialises every shared trainable buffer (all group layers, the
    /// head, and the optimizer moments) into a bit-exact blob for
    /// checkpointing. Masks and activations are transient — the next
    /// [`VisionSupernet::apply_sample`] restores them.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        for layers in &self.groups {
            for layer in layers {
                layer.write_state(&mut w);
            }
        }
        self.head.write_state(&mut w);
        self.optimizer.write_state(&mut w);
        w.into_bytes()
    }

    /// Restores a blob written by [`VisionSupernet::save_state`] into a
    /// super-network built from the *same* configuration.
    ///
    /// # Errors
    ///
    /// Fails (leaving the network partially overwritten — rebuild it before
    /// retrying) if the blob was produced by a differently-shaped network
    /// or is truncated.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        for layers in &mut self.groups {
            for layer in layers {
                layer.read_state(&mut r)?;
            }
        }
        self.head.read_state(&mut r)?;
        self.optimizer.read_state(&mut r)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_data::{TrafficSource, VisionTraffic};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn space_has_three_decisions_per_group() {
        let net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        assert_eq!(net.space().num_decisions(), 2 * DECISIONS_PER_VISION_GROUP);
    }

    #[test]
    fn training_learns_the_classification_task() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        net.apply_sample(&vec![1, 4, 0, 1, 4, 0]); // neutral depth, +2 width, relu
        let mut traffic = VisionTraffic::new(4, 16, 0.2, 5);
        for _ in 0..200 {
            let b = traffic.next_batch(64);
            net.train_step(&b.features, &b.labels);
        }
        let eval = traffic.next_batch(512);
        let (_, acc) = net.evaluate(&eval.features, &eval.labels);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn width_changes_active_param_count() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        net.apply_sample(&vec![1, 0, 0, 1, 0, 0]); // -3 width steps
        let small = net.active_param_count();
        net.apply_sample(&vec![1, 5, 0, 1, 5, 0]); // +3 width steps
        let big = net.active_param_count();
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn activation_choice_changes_predictions() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        let mut traffic = VisionTraffic::new(4, 16, 0.2, 6);
        let b = traffic.next_batch(32);
        net.apply_sample(&vec![1, 4, 0, 1, 4, 0]); // relu
        let (ce_relu, _) = net.evaluate(&b.features, &b.labels);
        net.apply_sample(&vec![1, 4, 3, 1, 4, 3]); // squared relu
        let (ce_sq, _) = net.evaluate(&b.features, &b.labels);
        assert_ne!(ce_relu, ce_sq);
    }

    #[test]
    fn shared_training_transfers_across_widths() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        let mut traffic = VisionTraffic::new(4, 16, 0.2, 7);
        let eval = traffic.next_batch(256);
        let narrow = vec![1, 2, 0, 1, 2, 0];
        net.apply_sample(&narrow);
        let (before, _) = net.evaluate(&eval.features, &eval.labels);
        // Train only the *wide* candidate; the narrow one shares its
        // upper-left weights and must improve too.
        net.apply_sample(&vec![1, 5, 0, 1, 5, 0]);
        for _ in 0..150 {
            let b = traffic.next_batch(64);
            net.train_step(&b.features, &b.labels);
        }
        net.apply_sample(&narrow);
        let (after, _) = net.evaluate(&eval.features, &eval.labels);
        assert!(after < before, "sharing must transfer: {before} -> {after}");
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        let sample = vec![1, 4, 0, 1, 4, 0];
        net.apply_sample(&sample);
        let mut traffic = VisionTraffic::new(4, 16, 0.2, 5);
        for _ in 0..5 {
            let b = traffic.next_batch(32);
            net.train_step(&b.features, &b.labels);
        }
        let blob = net.save_state();
        let mut fresh =
            VisionSupernet::new(VisionSupernetConfig::tiny(), &mut StdRng::seed_from_u64(99));
        fresh.load_state(&blob).expect("load");
        assert_eq!(fresh.save_state(), blob);
        fresh.apply_sample(&sample);
        let eval = traffic.next_batch(64);
        let (a, _) = net.evaluate(&eval.features, &eval.labels);
        let (b, _) = fresh.evaluate(&eval.features, &eval.labels);
        assert_eq!(a.to_bits(), b.to_bits(), "restored net must match bitwise");
    }

    #[test]
    #[should_panic(expected = "apply_sample")]
    fn forward_requires_sample() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        let x = Matrix::zeros(2, 16);
        net.train_step(&x, &[0, 1]);
    }
}
