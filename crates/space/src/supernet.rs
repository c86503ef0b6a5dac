//! The trainable weight-sharing DLRM super-network (§5.1.2, Fig. 3).
//!
//! This is the *real* one-shot machinery: a single network holds every
//! candidate in the DLRM search space as a sub-network, using the paper's
//! hybrid sharing scheme —
//!
//! * **fine-grained** width masking of embedding vectors (①) and MLP weight
//!   matrices (③: one `(max_in, max_out)` matrix per layer, smaller
//!   candidates use the upper-left sub-matrix),
//! * **coarse-grained** per-vocabulary embedding tables (②: each vocabulary
//!   size gets its own table to avoid harmful interference),
//! * fine-grained **low-rank** factor sharing (④: shared `U·V` factors,
//!   searchable rank).
//!
//! [`DlrmSupernet::apply_sample`] masks the network down to one candidate;
//! [`DlrmSupernet::train_step`] then trains exactly that sub-network's
//! weights, and [`DlrmSupernet::evaluate`] produces the quality signal
//! `Q(α)` the RL controller consumes.

use crate::decision::ArchSample;
use crate::dlrm::{choices, DlrmSpace, DlrmSpaceConfig, DECISIONS_PER_GROUP, DECISIONS_PER_TABLE};
use h2o_tensor::{
    loss, Activation, LowRankDense, MaskedDense, Matrix, OptimConfig, Optimizer,
    SharedEmbeddingBank, StateError, StateReader, StateWriter,
};
use rand::Rng;

/// One mini-batch of recommendation traffic.
#[derive(Debug, Clone)]
pub struct DlrmBatch {
    /// Dense features, `(batch, dense_features)`.
    pub dense: Matrix,
    /// Sparse ids: `sparse[table][example]` is that example's id list.
    pub sparse: Vec<Vec<Vec<usize>>>,
    /// Click labels in {0.0, 1.0}.
    pub labels: Vec<f32>,
}

impl DlrmBatch {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// A super-network layer: a shared full-rank path and a shared low-rank
/// path; the sampled candidate picks one (④ in Fig. 3).
#[derive(Debug, Clone)]
struct SuperLayer {
    full: MaskedDense,
    low: LowRankDense,
    /// Which path the last forward used (needed by backward).
    used_low: bool,
}

impl SuperLayer {
    fn new(max_in: usize, max_out: usize, rng: &mut impl Rng) -> Self {
        let max_rank = (max_in.min(max_out)).max(1);
        Self {
            full: MaskedDense::new(max_in, max_out, Activation::Relu, rng),
            low: LowRankDense::new(max_in, max_out, max_rank, Activation::Relu, rng),
            used_low: false,
        }
    }

    fn set_active(&mut self, active_in: usize, active_out: usize, low_rank: f64) {
        if low_rank < 1.0 {
            let max_rank = self.low.max_rank();
            let rank = ((max_rank as f64 * low_rank).round() as usize).clamp(1, max_rank);
            self.low.set_active(active_in, active_out, rank);
            self.used_low = true;
        } else {
            self.full.set_active(active_in, active_out);
            self.used_low = false;
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        if self.used_low {
            self.low.forward(x)
        } else {
            self.full.forward(x)
        }
    }

    fn backward(&mut self, grad: &Matrix) -> Matrix {
        if self.used_low {
            self.low.backward(grad)
        } else {
            self.full.backward(grad)
        }
    }

    fn zero_grad(&mut self) {
        self.full.zero_grad();
        self.low.zero_grad();
    }

    fn step(&mut self, opt: &mut Optimizer, slot: &mut usize) {
        for (params, grads) in self.full.params_grads_mut() {
            opt.step(*slot, params, grads);
            *slot += 1;
        }
        for (params, grads) in self.low.params_grads_mut() {
            opt.step(*slot, params, grads);
            *slot += 1;
        }
    }
}

/// A tower group: up to `max_depth` shared layers; a candidate activates a
/// prefix of them.
#[derive(Debug, Clone)]
struct SuperGroup {
    layers: Vec<SuperLayer>,
    max_width: usize,
    bottom: bool,
    active_depth: usize,
    active_width: usize,
    active_rank: f64,
}

/// The weight-sharing DLRM super-network.
///
/// # Examples
///
/// ```
/// use h2o_space::{DlrmSupernet, DlrmSpaceConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
/// assert!(net.space().space().log10_size() > 10.0);
/// ```
#[derive(Debug)]
pub struct DlrmSupernet {
    space: DlrmSpace,
    banks: Vec<SharedEmbeddingBank>,
    groups: Vec<SuperGroup>,
    head: MaskedDense,
    optimizer: Optimizer,
    embedding_lr: f32,
    /// Maximum embedding width per table (concat slot sizes).
    emb_slot_widths: Vec<usize>,
    /// Active embedding width per table.
    emb_active_widths: Vec<usize>,
    bottom_max_width: usize,
    sample_applied: bool,
    /// Active bottom-tower output width from the last forward pass.
    cached_bottom_cols: usize,
}

impl DlrmSupernet {
    /// Builds the super-network for a DLRM space configuration.
    ///
    /// Allocation is at *maximum* candidate sizes: the largest embedding
    /// width, the deepest group depth and the widest MLP layers, so every
    /// candidate is a maskable sub-network. Use [`DlrmSpaceConfig::tiny`]
    /// (or similar) — the production-scale space is for cost modelling, not
    /// CPU training.
    pub fn new(config: DlrmSpaceConfig, embedding_lr: f32, rng: &mut impl Rng) -> Self {
        let space = DlrmSpace::new(config.clone());
        #[expect(
            clippy::unwrap_used,
            reason = "static choice tables are non-empty consts"
        )]
        let max_emb_delta = *choices::EMB_WIDTH_DELTAS.last().unwrap();
        let banks: Vec<SharedEmbeddingBank> = config
            .tables
            .iter()
            .map(|t| {
                let max_width = (t.width as i32 + max_emb_delta * config.emb_width_increment as i32)
                    .max(8) as usize;
                let vocabs: Vec<usize> = choices::VOCAB_SCALES
                    .iter()
                    .map(|s| ((t.vocab as f64 * s).round() as usize).max(1))
                    .collect();
                SharedEmbeddingBank::new(&vocabs, max_width, rng)
            })
            .collect();
        let emb_slot_widths: Vec<usize> = banks.iter().map(|b| b.active().max_width()).collect();
        #[expect(
            clippy::unwrap_used,
            reason = "static choice tables are non-empty consts"
        )]
        let max_depth_delta = *choices::DEPTH_DELTAS.last().unwrap();
        #[expect(
            clippy::unwrap_used,
            reason = "static choice tables are non-empty consts"
        )]
        let max_mlp_delta = *choices::MLP_WIDTH_DELTAS.last().unwrap();
        let max_width_of = |base: usize| {
            (base as i32 + max_mlp_delta * config.mlp_width_increment as i32).max(8) as usize
        };
        let mut groups = Vec::with_capacity(config.mlp_groups.len());
        let mut prev_max = config.dense_features;
        let mut bottom_max_width = config.dense_features;
        // Bottom tower groups first (they chain from the dense features).
        for g in config.mlp_groups.iter().filter(|g| g.bottom) {
            let max_width = max_width_of(g.width);
            let max_depth = (g.depth as i32 + max_depth_delta).max(1) as usize;
            let mut layers = Vec::with_capacity(max_depth);
            for d in 0..max_depth {
                let max_in = if d == 0 { prev_max } else { max_width };
                layers.push(SuperLayer::new(max_in, max_width, rng));
            }
            groups.push(SuperGroup {
                layers,
                max_width,
                bottom: true,
                active_depth: g.depth,
                active_width: g.width,
                active_rank: 1.0,
            });
            prev_max = max_width;
            bottom_max_width = max_width;
        }
        // Top tower: first layer reads the fixed-layout concat
        // (bottom slot + one slot per table at max width).
        let concat_max = bottom_max_width + emb_slot_widths.iter().sum::<usize>();
        let mut prev_max = concat_max;
        for g in config.mlp_groups.iter().filter(|g| !g.bottom) {
            let max_width = max_width_of(g.width);
            let max_depth = (g.depth as i32 + max_depth_delta).max(1) as usize;
            let mut layers = Vec::with_capacity(max_depth);
            for d in 0..max_depth {
                let max_in = if d == 0 { prev_max } else { max_width };
                layers.push(SuperLayer::new(max_in, max_width, rng));
            }
            groups.push(SuperGroup {
                layers,
                max_width,
                bottom: false,
                active_depth: g.depth,
                active_width: g.width,
                active_rank: 1.0,
            });
            prev_max = max_width;
        }
        let head = MaskedDense::new(prev_max, 1, Activation::Identity, rng);
        Self {
            space,
            banks,
            groups,
            head,
            optimizer: Optimizer::new(OptimConfig::adam(1e-3)),
            embedding_lr,
            emb_slot_widths,
            emb_active_widths: config.tables.iter().map(|t| t.width).collect(),
            bottom_max_width,
            sample_applied: false,
            cached_bottom_cols: 0,
        }
    }

    /// The search space this super-network covers.
    pub fn space(&self) -> &DlrmSpace {
        &self.space
    }

    /// Masks the super-network down to the candidate described by `sample`.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for the space.
    pub fn apply_sample(&mut self, sample: &ArchSample) {
        let arch = self.space.decode(sample);
        let config = self.space.config().clone();
        for (i, table) in arch.tables.iter().enumerate() {
            let vocab_choice = sample[i * DECISIONS_PER_TABLE + 1];
            self.banks[i].set_active(vocab_choice, table.width.min(self.emb_slot_widths[i]));
            self.emb_active_widths[i] = table.width.min(self.emb_slot_widths[i]);
        }
        let offset = config.tables.len() * DECISIONS_PER_TABLE;
        let mut prev_active = config.dense_features;
        let mut group_idx = 0;
        // Bottom groups chain from the dense features.
        for (i, base) in config.mlp_groups.iter().enumerate() {
            if !base.bottom {
                continue;
            }
            let s = &sample[offset + i * DECISIONS_PER_GROUP..];
            let group = &mut self.groups[group_idx];
            let depth = ((base.depth as i32 + choices::DEPTH_DELTAS[s[0]]).max(1) as usize)
                .min(group.layers.len());
            let width = ((base.width as i32
                + choices::MLP_WIDTH_DELTAS[s[1]] * config.mlp_width_increment as i32)
                .max(8) as usize)
                .min(group.max_width);
            let rank = choices::low_rank(s[2]);
            for (d, layer) in group.layers.iter_mut().enumerate().take(depth) {
                let a_in = if d == 0 { prev_active } else { width };
                layer.set_active(a_in, width, rank);
            }
            group.active_depth = depth;
            group.active_width = width;
            group.active_rank = rank;
            prev_active = width;
            group_idx += 1;
        }
        // Top groups chain from the fixed-layout concat.
        let concat_max = self.bottom_max_width + self.emb_slot_widths.iter().sum::<usize>();
        let mut prev_active = concat_max;
        for (i, base) in config.mlp_groups.iter().enumerate() {
            if base.bottom {
                continue;
            }
            let s = &sample[offset + i * DECISIONS_PER_GROUP..];
            let group = &mut self.groups[group_idx];
            let depth = ((base.depth as i32 + choices::DEPTH_DELTAS[s[0]]).max(1) as usize)
                .min(group.layers.len());
            let width = ((base.width as i32
                + choices::MLP_WIDTH_DELTAS[s[1]] * config.mlp_width_increment as i32)
                .max(8) as usize)
                .min(group.max_width);
            let rank = choices::low_rank(s[2]);
            for (d, layer) in group.layers.iter_mut().enumerate().take(depth) {
                let a_in = if d == 0 { prev_active } else { width };
                layer.set_active(a_in, width, rank);
            }
            group.active_depth = depth;
            group.active_width = width;
            group.active_rank = rank;
            prev_active = width;
            group_idx += 1;
        }
        self.head.set_active(prev_active, 1);
        self.sample_applied = true;
    }

    /// Forward pass through the active sub-network; returns click logits
    /// `(batch, 1)` plus the cached tower outputs needed by backward.
    ///
    /// # Panics
    ///
    /// Panics if no sample was applied or the batch shape is inconsistent.
    fn forward(&mut self, batch: &DlrmBatch) -> Matrix {
        assert!(self.sample_applied, "apply_sample before forward");
        assert_eq!(
            batch.sparse.len(),
            self.banks.len(),
            "one id list per table"
        );
        let n = batch.len();
        // Bottom tower.
        let mut bottom = batch.dense.clone();
        for group in self.groups.iter_mut().filter(|g| g.bottom) {
            for layer in group.layers.iter_mut().take(group.active_depth) {
                bottom = layer.forward(&bottom);
            }
        }
        // Fixed-layout concat: bottom slot, then one slot per table. Masked
        // widths stay zero, so the top tower's weight layout is stable
        // across candidates (the fine-grained sharing contract of Fig. 3).
        let concat_max = self.bottom_max_width + self.emb_slot_widths.iter().sum::<usize>();
        let mut concat = Matrix::zeros(n, concat_max);
        for r in 0..n {
            concat.row_mut(r)[..bottom.cols()].copy_from_slice(bottom.row(r));
        }
        let mut offset = self.bottom_max_width;
        for (t, bank) in self.banks.iter_mut().enumerate() {
            let emb = bank.lookup_bag(&batch.sparse[t]);
            for r in 0..n {
                concat.row_mut(r)[offset..offset + emb.cols()].copy_from_slice(emb.row(r));
            }
            offset += self.emb_slot_widths[t];
        }
        self.cached_bottom_cols = bottom.cols();
        // Top tower.
        let mut top = concat;
        for group in self.groups.iter_mut().filter(|g| !g.bottom) {
            for layer in group.layers.iter_mut().take(group.active_depth) {
                top = layer.forward(&top);
            }
        }
        self.head.forward(&top)
    }

    /// One unified training step on the active sub-network: forward, BCE
    /// loss, backward through MLPs and embeddings, optimizer update.
    /// Returns the loss before the update.
    pub fn train_step(&mut self, batch: &DlrmBatch) -> f32 {
        let logits = self.forward(batch);
        let (loss_value, grad) = loss::bce_with_logits(&logits, &batch.labels);
        // Backward.
        let mut g = self.head.backward(&grad);
        for group in self.groups.iter_mut().filter(|g| !g.bottom).rev() {
            for layer in group.layers.iter_mut().take(group.active_depth).rev() {
                g = layer.backward(&g);
            }
        }
        // Split the concat gradient back into bottom and embedding slots.
        let n = batch.len();
        let bottom_cols = self.cached_bottom_cols;
        let mut bottom_grad = Matrix::zeros(n, bottom_cols.max(1));
        for r in 0..n {
            bottom_grad
                .row_mut(r)
                .copy_from_slice(&g.row(r)[..bottom_cols]);
        }
        let mut offset = self.bottom_max_width;
        for (t, bank) in self.banks.iter_mut().enumerate() {
            let w = self.emb_active_widths[t];
            let mut emb_grad = Matrix::zeros(n, w.max(1));
            for r in 0..n {
                emb_grad
                    .row_mut(r)
                    .copy_from_slice(&g.row(r)[offset..offset + w]);
            }
            bank.backward(&emb_grad);
            offset += self.emb_slot_widths[t];
        }
        let mut g = bottom_grad;
        for group in self.groups.iter_mut().filter(|g| g.bottom).rev() {
            for layer in group.layers.iter_mut().take(group.active_depth).rev() {
                g = layer.backward(&g);
            }
        }
        // Updates: Adam on dense paths, sparse SGD on the touched embedding
        // rows (as production DLRM trainers do).
        self.optimizer.begin_step();
        let mut slot = 0usize;
        for group in &mut self.groups {
            for layer in &mut group.layers {
                layer.step(&mut self.optimizer, &mut slot);
            }
        }
        for (params, grads) in self.head.params_grads_mut() {
            self.optimizer.step(slot, params, grads);
            slot += 1;
        }
        for group in &mut self.groups {
            for layer in &mut group.layers {
                layer.zero_grad();
            }
        }
        self.head.zero_grad();
        let lr = self.embedding_lr;
        for bank in &mut self.banks {
            bank.apply_sparse_sgd(lr);
        }
        loss_value
    }

    /// Evaluates the active sub-network: returns `(logloss, auc)` — the
    /// quality signal `Q(α)` (higher AUC = better quality).
    pub fn evaluate(&mut self, batch: &DlrmBatch) -> (f32, f64) {
        let logits = self.forward(batch);
        let (logloss, _) = loss::bce_with_logits(&logits, &batch.labels);
        let scores: Vec<f32> = (0..logits.rows()).map(|r| logits.get(r, 0)).collect();
        let auc = loss::auc(&scores, &batch.labels);
        (logloss, auc)
    }

    /// Serialises every shared trainable buffer — embedding banks, both
    /// paths of every super-layer, the head, and the optimizer moments —
    /// into a bit-exact blob for checkpointing. Taken at a step boundary
    /// (after [`DlrmSupernet::train_step`] returns), all gradients are zero
    /// and all masks are reapplied by the next
    /// [`DlrmSupernet::apply_sample`], so weights + optimizer state are the
    /// complete resumable state.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        for bank in &self.banks {
            bank.write_state(&mut w);
        }
        for group in &self.groups {
            for layer in &group.layers {
                layer.full.write_state(&mut w);
                layer.low.write_state(&mut w);
            }
        }
        self.head.write_state(&mut w);
        self.optimizer.write_state(&mut w);
        w.into_bytes()
    }

    /// Restores a blob written by [`DlrmSupernet::save_state`] into a
    /// super-network built from the *same* space configuration.
    ///
    /// # Errors
    ///
    /// Fails (leaving the network partially overwritten — rebuild it before
    /// retrying) if the blob was produced by a differently-shaped network
    /// or is truncated.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        for bank in &mut self.banks {
            bank.read_state(&mut r)?;
        }
        for group in &mut self.groups {
            for layer in &mut group.layers {
                layer.full.read_state(&mut r)?;
                layer.low.read_state(&mut r)?;
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    fn make_batch(net: &DlrmSupernet, n: usize, rng: &mut StdRng) -> DlrmBatch {
        let config = net.space().config();
        let dense = Matrix::from_fn(n, config.dense_features, |_, _| rng.gen_range(-1.0..1.0));
        let sparse: Vec<Vec<Vec<usize>>> = config
            .tables
            .iter()
            .map(|t| (0..n).map(|_| vec![rng.gen_range(0..t.vocab)]).collect())
            .collect();
        // Planted signal: label depends on dense feature 0 and the parity of
        // the first table's id, so both towers carry information.
        let labels = (0..n)
            .map(|i| {
                let d = dense.get(i, 0);
                let s = sparse[0][i][0] % 2;
                if d + s as f32 * 0.5 > 0.25 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        DlrmBatch {
            dense,
            sparse,
            labels,
        }
    }

    #[test]
    fn forward_requires_sample() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let batch = make_batch(&net, 4, &mut r);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.train_step(&batch);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn train_step_reduces_loss() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let sample = net.space().baseline();
        net.apply_sample(&sample);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let batch = make_batch(&net, 64, &mut r);
            let l = net.train_step(&batch);
            if step == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn training_improves_auc_above_chance() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let sample = net.space().baseline();
        net.apply_sample(&sample);
        for _ in 0..150 {
            let batch = make_batch(&net, 64, &mut r);
            net.train_step(&batch);
        }
        let eval = make_batch(&net, 256, &mut r);
        let (_, auc) = net.evaluate(&eval);
        assert!(auc > 0.75, "auc {auc}");
    }

    #[test]
    fn different_samples_give_different_predictions() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let batch = make_batch(&net, 16, &mut r);
        let space = net.space().space().clone();
        let a = space.sample_uniform(&mut r);
        let b = space.sample_uniform(&mut r);
        net.apply_sample(&a);
        let (l_a, _) = net.evaluate(&batch);
        net.apply_sample(&b);
        let (l_b, _) = net.evaluate(&batch);
        // Distinct candidates must be distinct functions (w.h.p.).
        assert_ne!(l_a, l_b);
    }

    #[test]
    fn random_samples_train_without_panicking() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let space = net.space().space().clone();
        for _ in 0..10 {
            let sample = space.sample_uniform(&mut r);
            net.apply_sample(&sample);
            let batch = make_batch(&net, 16, &mut r);
            let l = net.train_step(&batch);
            assert!(l.is_finite());
        }
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let sample = net.space().baseline();
        net.apply_sample(&sample);
        for _ in 0..5 {
            let batch = make_batch(&net, 32, &mut r);
            net.train_step(&batch);
        }
        let blob = net.save_state();
        // A freshly built network (different init seed) must restore to the
        // exact same bytes and the exact same function.
        let mut fresh = DlrmSupernet::new(
            DlrmSpaceConfig::tiny(),
            0.05,
            &mut StdRng::seed_from_u64(99),
        );
        fresh.load_state(&blob).expect("load");
        assert_eq!(fresh.save_state(), blob);
        fresh.apply_sample(&sample);
        net.apply_sample(&sample);
        let eval = make_batch(&net, 64, &mut r);
        let (a, _) = net.evaluate(&eval);
        let (b, _) = fresh.evaluate(&eval);
        assert_eq!(a.to_bits(), b.to_bits(), "restored net must match bitwise");
    }

    #[test]
    fn load_state_rejects_truncated_blob() {
        let mut r = rng();
        let net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let blob = net.save_state();
        let mut other = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng());
        assert!(other.load_state(&blob[..blob.len() / 2]).is_err());
        assert!(other.load_state(&[]).is_err());
    }

    #[test]
    fn weight_sharing_transfers_learning_between_candidates() {
        // Training one candidate should move a *shared-prefix* candidate's
        // loss too (fine-grained sharing), demonstrating Fig. 3's premise.
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let base = net.space().baseline();
        let mut narrow = base.clone();
        // Shrink the first table's embedding width by one step: shares the
        // leading dims with the baseline candidate.
        narrow[0] = 2;
        let eval = make_batch(&net, 128, &mut r);
        net.apply_sample(&narrow);
        let (before, _) = net.evaluate(&eval);
        net.apply_sample(&base);
        for _ in 0..100 {
            let batch = make_batch(&net, 64, &mut r);
            net.train_step(&batch);
        }
        net.apply_sample(&narrow);
        let (after, _) = net.evaluate(&eval);
        assert!(
            after < before,
            "shared training must help: {before} -> {after}"
        );
    }
}
