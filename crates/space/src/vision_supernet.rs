//! A trainable weight-sharing super-network for vision-style classifiers.
//!
//! The DLRM super-network (§5.1.2) is the paper's novel contribution; this
//! module demonstrates that the same fine-grained sharing machinery (③ in
//! Fig. 3: one maximal weight matrix per layer, candidates use the
//! upper-left sub-matrix) generalises to a second domain — a classifier
//! tower over feature vectors, with **searchable width, depth and
//! activation** per group. It trains for real on `h2o_data::VisionTraffic`
//! and powers the cross-domain one-shot tests. As in the DLRM
//! super-network, a candidate is an argument: one forward takes the shape a
//! sample selects and returns the tape the training step backpropagates
//! through, and [`VisionSupernet::apply_sample`] only records that shape.

use crate::decision::{ArchSample, Decision, SearchSpace};
use h2o_tensor::{
    loss, Activation, MaskedDense, Matrix, Optimizer, StateError, StateReader, StateWriter,
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
    /// The candidate the last [`VisionSupernet::apply_sample`] recorded.
    candidate: VisionShape,
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
                layers.push(MaskedDense::new(max_in, width, rng));
            }
            groups.push(layers);
            prev_max = width;
        }
        let head = MaskedDense::new(prev_max, config.classes, rng);
        // Deep Squared-ReLU towers can explode; clip gradients so every
        // candidate trains stably over the shared weights.
        let mut optimizer = Optimizer::new(2e-3);
        optimizer.set_grad_clip(1.0);
        Self {
            config,
            space,
            groups,
            head,
            optimizer,
            candidate: VisionShape::default(),
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

    /// Trainable parameter count of the candidate `sample`: its layers'
    /// active sub-matrices and biases, and the head's.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid.
    pub fn param_count_of(&self, sample: &ArchSample) -> usize {
        let shape = self.active_shape(sample);
        let layers = shape
            .groups
            .iter()
            .flat_map(|gs| (0..gs.depth).map(|d| gs.widths(d)));
        let head = (shape.head_in, self.config.classes);
        layers.chain([head]).map(|(i, o)| i * o + o).sum()
    }

    /// Records the candidate described by `sample`: the sub-network the
    /// next [`VisionSupernet::train_step`] trains and
    /// [`VisionSupernet::evaluate`] scores. The layers stay as they are.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid.
    pub fn apply_sample(&mut self, sample: &ArchSample) {
        self.candidate = self.active_shape(sample);
    }

    /// The candidate `sample` selects, as a value.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid.
    fn active_shape(&self, sample: &ArchSample) -> VisionShape {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract; samples come from this space"
        )]
        self.space.validate(sample).expect("invalid sample");
        let mut prev_active = self.config.input_features;
        let mut groups = Vec::with_capacity(self.groups.len());
        for (i, (base, layers)) in self.config.groups.iter().zip(&self.groups).enumerate() {
            let s = &sample[i * DECISIONS_PER_VISION_GROUP..];
            let depth = ((base.depth as i32 + choices::DEPTH_DELTAS[s[0]]).max(1) as usize)
                .min(layers.len());
            let width = ((base.width as i32
                + choices::WIDTH_DELTAS[s[1]] * self.config.width_increment as i32)
                .max(8) as usize)
                .min(layers[0].max_out());
            groups.push(VisionGroupShape {
                input: prev_active,
                depth,
                width,
                activation: choices::ACTIVATIONS[s[2]],
            });
            prev_active = width;
        }
        VisionShape {
            groups,
            head_in: prev_active,
        }
    }

    /// The forward pass of the candidate `shape` on `features`, reading
    /// the network without changing it; returns the tape, which holds the
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics on the empty shape (no sample applied) or if the batch shape
    /// is inconsistent.
    fn forward(&self, shape: &VisionShape, features: &Matrix) -> VisionTape {
        assert_eq!(
            shape.groups.len(),
            self.groups.len(),
            "apply_sample before forward"
        );
        let mut layers: Vec<(Matrix, Matrix)> = Vec::new();
        for (group, gs) in self.groups.iter().zip(&shape.groups) {
            for (d, layer) in group.iter().enumerate().take(gs.depth) {
                let x = layers.last().map_or(features, |(out, _)| out);
                let pass = layer.forward(x, gs.widths(d), gs.activation);
                layers.push(pass);
            }
        }
        let x = layers.last().map_or(features, |(out, _)| out);
        let head = (shape.head_in, self.config.classes);
        let (logits, head_pre) = self.head.forward(x, head, Activation::Identity);
        VisionTape {
            layers,
            logits,
            head_pre,
        }
    }

    /// One training step (softmax cross-entropy) on the candidate
    /// [`VisionSupernet::apply_sample`] recorded; returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if no sample was applied or the batch shape is inconsistent.
    pub fn train_step(&mut self, features: &Matrix, labels: &[usize]) -> f32 {
        let shape = &self.candidate;
        let tape = self.forward(shape, features);
        let (l, grad) = loss::softmax_cross_entropy(&tape.logits, labels);
        let x = tape.layers.last().map_or(features, |(out, _)| out);
        let head = (shape.head_in, self.config.classes);
        let mut g = self
            .head
            .backward(x, &tape.head_pre, &grad, head, Activation::Identity);
        let mut i = tape.layers.len();
        for (group, gs) in self.groups.iter_mut().zip(&shape.groups).rev() {
            for (d, layer) in group.iter_mut().enumerate().take(gs.depth).rev() {
                i -= 1;
                let (pre, widths) = (&tape.layers[i].1, gs.widths(d));
                match i.checked_sub(1) {
                    Some(j) => {
                        g = layer.backward(&tape.layers[j].0, pre, &g, widths, gs.activation)
                    }
                    // The first layer reads the features, whose gradient
                    // nobody reads.
                    None => layer.backward_params(features, pre, &g, widths, gs.activation),
                }
            }
        }
        self.optimizer.begin_step();
        for (slot, (params, grads)) in dense_buffers(&mut self.groups, &mut self.head).enumerate() {
            self.optimizer.step(slot, params, grads);
        }
        l
    }

    /// Evaluates the candidate [`VisionSupernet::apply_sample`] recorded;
    /// returns `(cross_entropy, accuracy)`.
    ///
    /// # Panics
    ///
    /// Panics if no sample was applied or the batch shape is inconsistent.
    pub fn evaluate(&self, features: &Matrix, labels: &[usize]) -> (f32, f64) {
        let logits = self.forward(&self.candidate, features).logits;
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

    /// The mean cross-entropy of the candidate `sample` on a batch: the
    /// bits of [`VisionSupernet::apply_sample`] followed by
    /// [`VisionSupernet::evaluate`]'s first value, from `&self`, so
    /// concurrent calls may share the network. It builds no loss gradient.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid or the batch shape is inconsistent.
    pub fn cross_entropy_of(
        &self,
        sample: &ArchSample,
        features: &Matrix,
        labels: &[usize],
    ) -> f32 {
        let logits = self.forward(&self.active_shape(sample), features).logits;
        loss::softmax_cross_entropy_loss(&logits, labels)
    }

    /// Serialises every shared trainable buffer (all group layers, the
    /// head, and the optimizer moments) into a bit-exact blob for
    /// checkpointing. The recorded candidate is not written: the next
    /// [`VisionSupernet::apply_sample`] records one.
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
    /// retrying) if the blob was produced by a differently-shaped network,
    /// holds optimizer moments that do not fit its buffers, or is
    /// truncated.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        for layers in &mut self.groups {
            for layer in layers {
                layer.read_state(&mut r)?;
            }
        }
        self.head.read_state(&mut r)?;
        self.optimizer.read_state(&mut r)?;
        let lens: Vec<usize> = dense_buffers(&mut self.groups, &mut self.head)
            .map(|(params, _)| params.len())
            .collect();
        self.optimizer.check_slots(&lens)?;
        r.finish()
    }
}

/// One group of a candidate: the prefix of layers it activates, their
/// width and activation.
#[derive(Debug, Clone, Copy)]
struct VisionGroupShape {
    /// Active input width of the group's first layer.
    input: usize,
    depth: usize,
    width: usize,
    activation: Activation,
}

impl VisionGroupShape {
    /// Active `(in, out)` widths of layer `d`.
    fn widths(&self, d: usize) -> (usize, usize) {
        (if d == 0 { self.input } else { self.width }, self.width)
    }
}

/// The sub-network of one sample. The default, empty shape stands for no
/// candidate, and [`VisionSupernet::forward`] rejects it.
#[derive(Debug, Clone, Default)]
struct VisionShape {
    groups: Vec<VisionGroupShape>,
    /// Active input width of the head.
    head_in: usize,
}

/// What one forward over a candidate keeps for its backward pass: each
/// active layer's output and pre-activation, in order, then the head's.
#[derive(Debug)]
struct VisionTape {
    layers: Vec<(Matrix, Matrix)>,
    logits: Matrix,
    head_pre: Matrix,
}

/// Every Adam-trained buffer with its gradient, in optimizer slot order:
/// each layer's weights then bias, group by group, then the head.
fn dense_buffers<'a>(
    groups: &'a mut [Vec<MaskedDense>],
    head: &'a mut MaskedDense,
) -> impl Iterator<Item = (&'a mut [f32], &'a mut [f32])> {
    groups
        .iter_mut()
        .flatten()
        .flat_map(MaskedDense::params_grads_mut)
        .chain(head.params_grads_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_data::{TrafficSource, VisionTraffic};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pure quality of a random candidate equals `apply_sample`
        /// then `evaluate().0` bit for bit, on random batches, whatever
        /// candidate the network last recorded and after training
        /// steps have moved the weights; and it leaves the network as it
        /// was.
        fn cross_entropy_of_matches_apply_sample_then_evaluate(seed in 0u64..u64::MAX) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut r);
            let space = net.space().clone();
            let mut traffic = VisionTraffic::new(4, 16, 0.2, seed);
            for _ in 0..r.gen_range(0..4) {
                net.apply_sample(&space.sample_uniform(&mut r));
                let b = traffic.next_batch(r.gen_range(1..24));
                net.train_step(&b.features, &b.labels);
            }
            for _ in 0..4 {
                let sample = space.sample_uniform(&mut r);
                let b = traffic.next_batch(r.gen_range(1..24));
                let state = net.save_state();
                let pure = net.cross_entropy_of(&sample, &b.features, &b.labels);
                prop_assert!(net.save_state() == state, "cross_entropy_of changed the network");
                net.apply_sample(&sample);
                let (want, _) = net.evaluate(&b.features, &b.labels);
                prop_assert_eq!(pure.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn load_state_rejects_moments_that_do_not_fit_the_buffers() {
        let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        let lens: Vec<usize> = dense_buffers(&mut net.groups, &mut net.head)
            .map(|(params, _)| params.len())
            .collect();
        // The real weights, then an optimizer section of the given slots.
        let untrained = net.save_state();
        let weights = &untrained[..untrained.len() - 16];
        let blob = |slots: &[usize]| {
            let mut w = StateWriter::new();
            w.put_u64(1);
            w.put_u64(slots.len() as u64);
            for &len in slots {
                w.put_f32_slice(&vec![0.0; len]);
                w.put_f32_slice(&vec![0.0; len]);
            }
            [weights, &w.into_bytes()].concat()
        };
        assert_eq!(
            net.load_state(&blob(&[2])),
            Err(StateError::LengthMismatch {
                expected: lens.len(),
                found: 1
            })
        );
        let mut long_last = lens.clone();
        *long_last.last_mut().expect("a head bias") += 1;
        assert_eq!(
            net.load_state(&blob(&long_last)),
            Err(StateError::LengthMismatch {
                expected: lens[lens.len() - 1],
                found: lens[lens.len() - 1] + 1
            })
        );
        net.load_state(&blob(&lens)).expect("fitting slots load");
        net.apply_sample(&vec![1, 4, 0, 1, 4, 0]);
        let b = VisionTraffic::new(4, 16, 0.2, 5).next_batch(8);
        net.train_step(&b.features, &b.labels);
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
    fn width_changes_param_count_of() {
        let net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng());
        let small = net.param_count_of(&vec![1, 0, 0, 1, 0, 0]); // -3 width steps
        let big = net.param_count_of(&vec![1, 5, 0, 1, 5, 0]); // +3 width steps
        assert!(big > small, "{big} vs {small}");
        // Neutral depth, widths 16 and 8 after -2 steps: 16·16 + 16·8 + 8·4
        // weights plus 16 + 8 + 4 biases.
        assert_eq!(net.param_count_of(&vec![1, 1, 0, 1, 1, 0]), 444);
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
