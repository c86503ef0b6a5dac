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
//! A candidate is an argument, not a state of the layers: one forward
//! takes the shape a sample selects and returns the network's tape.
//! [`DlrmSupernet::apply_sample`] records a candidate's shape;
//! [`DlrmSupernet::train_step`] runs that forward and backpropagates
//! through its tape, training exactly that sub-network's weights, and
//! [`DlrmSupernet::evaluate`] produces the quality signal `Q(α)` the RL
//! controller consumes. [`DlrmSupernet::logloss_of`] scores any sample
//! from `&self`, so several threads can score candidates over the same
//! weights at once.
//!
//! [`DlrmSupernet::train_sequence`] trains several candidates in a row,
//! bit for bit a [`DlrmSupernet::train_step`] each: the Adam update of
//! the paths the next candidate does not read runs beside that
//! candidate's forward and backward.

use crate::decision::ArchSample;
use crate::dlrm::{choices, DlrmSpace, DlrmSpaceConfig, DECISIONS_PER_GROUP, DECISIONS_PER_TABLE};
use h2o_tensor::{
    loss, Activation, LowRankDense, LowRankTape, MaskedDense, Matrix, OptimConfig, Optimizer,
    SharedEmbeddingBank, Slot, StateError, StateReader, StateWriter, Update,
};
use rand::Rng;
use std::{iter, mem};

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
}

/// The tape of the path a super-layer's forward took.
#[derive(Debug)]
enum PathTape {
    /// The full-rank path's pre-activation.
    Full(Matrix),
    /// The low-rank path's tape.
    Low(LowRankTape),
}

impl SuperLayer {
    fn new(max_in: usize, max_out: usize, rng: &mut impl Rng) -> Self {
        let max_rank = (max_in.min(max_out)).max(1);
        Self {
            full: MaskedDense::new(max_in, max_out, rng),
            low: LowRankDense::new(max_in, max_out, max_rank, Activation::Relu, rng),
        }
    }

    /// The low-rank path's rank for a low-rank fraction below 1.
    fn rank(&self, low_rank: f64) -> usize {
        let max_rank = self.low.max_rank();
        ((max_rank as f64 * low_rank).round() as usize).clamp(1, max_rank)
    }

    /// Forward through the `(in, out)` widths of the low-rank path for a
    /// low-rank fraction below 1, else of the full path.
    fn forward(&self, x: &Matrix, widths: (usize, usize), low_rank: f64) -> (Matrix, PathTape) {
        if low_rank < 1.0 {
            let (out, tape) = self.low.forward(x, widths, self.rank(low_rank));
            (out, PathTape::Low(tape))
        } else {
            let (out, pre) = self.full.forward(x, widths, Activation::Relu);
            (out, PathTape::Full(pre))
        }
    }

    fn backward(
        &mut self,
        x: &Matrix,
        tape: &PathTape,
        grad: &Matrix,
        widths: (usize, usize),
        low_rank: f64,
    ) -> Matrix {
        match tape {
            PathTape::Low(tape) => self
                .low
                .backward(x, tape, grad, widths, self.rank(low_rank)),
            PathTape::Full(pre) => self.full.backward(x, pre, grad, widths, Activation::Relu),
        }
    }

    /// [`SuperLayer::backward`] without the gradient w.r.t. `x`.
    fn backward_params(
        &mut self,
        x: &Matrix,
        tape: &PathTape,
        grad: &Matrix,
        widths: (usize, usize),
        low_rank: f64,
    ) {
        match tape {
            PathTape::Low(tape) => {
                let rank = self.rank(low_rank);
                self.low.backward_params(x, tape, grad, widths, rank);
            }
            PathTape::Full(pre) => {
                self.full
                    .backward_params(x, pre, grad, widths, Activation::Relu);
            }
        }
    }

    /// Moves the low-rank (`low`) or full path out, leaving an empty one.
    fn take(&mut self, low: bool) -> Path {
        match low {
            true => Path::Low(mem::take(&mut self.low)),
            false => Path::Full(mem::take(&mut self.full)),
        }
    }

    /// Returns a path [`SuperLayer::take`] moved out.
    fn put(&mut self, path: Path) {
        match path {
            Path::Low(low) => self.low = low,
            Path::Full(full) => self.full = full,
        }
    }
}

/// One path of a super-layer, moved out of the network.
#[derive(Debug)]
enum Path {
    Full(MaskedDense),
    Low(LowRankDense),
}

/// Optimizer slots per path: `[W, b]` for the full path, then `[U, V, b]`
/// for the low-rank one.
const FULL_SLOTS: usize = 2;
const LOW_SLOTS: usize = 3;

/// Applies `update` to each `(params, grads)` buffer with its slot, which
/// zeroes the gradients.
fn apply_all<'a>(
    update: &Update,
    buffers: impl IntoIterator<Item = (&'a mut [f32], &'a mut [f32])>,
    slots: &mut [Slot],
) {
    for ((params, grads), slot) in buffers.into_iter().zip(slots) {
        update.apply(slot, params, grads);
    }
}

/// A path that the next train step's candidate does not read, moved out of
/// the network with its optimizer slots.
#[derive(Debug)]
struct DetachedPath {
    /// Its super-layer: group, then depth.
    layer: (usize, usize),
    /// Its first optimizer slot.
    first: usize,
    path: Path,
    slots: Vec<Slot>,
}

/// The Adam update of one train step for the paths the next step's
/// candidate does not read: it runs while the next step's forward and
/// backward run, which touch none of its buffers.
#[derive(Debug)]
struct Deferred {
    /// The update of the step these paths belong to.
    update: Update,
    paths: Vec<DetachedPath>,
}

impl Deferred {
    /// Updates every path at the deferred step's count, zeroing its
    /// gradients.
    fn run(&mut self) {
        for detached in &mut self.paths {
            let slots = &mut detached.slots;
            match &mut detached.path {
                Path::Full(full) => apply_all(&self.update, full.params_grads_mut(), slots),
                Path::Low(low) => apply_all(&self.update, low.params_grads_mut(), slots),
            }
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
}

/// One group of a candidate: the prefix of layers it activates and their
/// widths.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GroupShape {
    /// Active input width of the group's first layer.
    input: usize,
    depth: usize,
    width: usize,
    /// Low-rank fraction; below 1 the layers take their low-rank path.
    low_rank: f64,
}

impl GroupShape {
    /// Active `(in, out)` widths of layer `d`.
    fn widths(&self, d: usize) -> (usize, usize) {
        (if d == 0 { self.input } else { self.width }, self.width)
    }
}

/// The sub-network of one sample. The default, empty shape stands for no
/// candidate, and [`DlrmSupernet::forward`] rejects it.
#[derive(Debug, Clone, Default, PartialEq)]
struct ActiveShape {
    /// Per table: the vocabulary choice and the active embedding width.
    tables: Vec<(usize, usize)>,
    /// Per group, in `DlrmSupernet::groups` order.
    groups: Vec<GroupShape>,
    /// Active input width of the head.
    head_in: usize,
}

impl ActiveShape {
    /// Whether this candidate's forward reads the low-rank (`low`) or full
    /// path of super-layer `d` of group `g`: a layer inside the group's
    /// depth, on the path its low-rank choice takes.
    fn reads(&self, g: usize, d: usize, low: bool) -> bool {
        let gs = &self.groups[g];
        d < gs.depth && (gs.low_rank < 1.0) == low
    }
}

/// Each layer's output and path tape, in forward order.
type TowerTape = Vec<(Matrix, PathTape)>;

/// What one forward over a candidate keeps for its backward pass.
#[derive(Debug)]
struct Tape {
    bottom: TowerTape,
    /// The top tower's input.
    concat: Matrix,
    top: TowerTape,
    /// Click logits `(batch, 1)`.
    logits: Matrix,
    head_pre: Matrix,
}

/// The output of a tower that ran over `input`.
fn tower_out<'a>(tape: &'a TowerTape, input: &'a Matrix) -> &'a Matrix {
    tape.last().map_or(input, |(out, _)| out)
}

/// Runs the active layers of `groups` over `input`.
fn tower_forward(groups: &[SuperGroup], shapes: &[GroupShape], input: &Matrix) -> TowerTape {
    let mut tape = TowerTape::new();
    for (group, gs) in groups.iter().zip(shapes) {
        for (d, layer) in group.layers.iter().enumerate().take(gs.depth) {
            let pass = layer.forward(tower_out(&tape, input), gs.widths(d), gs.low_rank);
            tape.push(pass);
        }
    }
    tape
}

/// Backpropagates `grad` through the layers [`tower_forward`] ran over
/// `input`. Returns the gradient w.r.t. `input` if `input_grad`; if not,
/// `input` is the network's own input, whose gradient nobody reads, so the
/// first layer skips that product and the gradient w.r.t. its output comes
/// back instead.
fn tower_backward(
    groups: &mut [SuperGroup],
    shapes: &[GroupShape],
    input: &Matrix,
    tape: &TowerTape,
    mut grad: Matrix,
    input_grad: bool,
) -> Matrix {
    let mut i = tape.len();
    for (group, gs) in groups.iter_mut().zip(shapes).rev() {
        for (d, layer) in group.layers.iter_mut().enumerate().take(gs.depth).rev() {
            i -= 1;
            let x = i.checked_sub(1).map_or(input, |j| &tape[j].0);
            let (path, widths) = (&tape[i].1, gs.widths(d));
            if i == 0 && !input_grad {
                layer.backward_params(x, path, &grad, widths, gs.low_rank);
            } else {
                grad = layer.backward(x, path, &grad, widths, gs.low_rank);
            }
        }
    }
    grad
}

/// Every Adam-trained buffer with its gradient, in optimizer slot order:
/// each super-layer's full path then its low-rank path, group by group,
/// then the head.
fn dense_buffers<'a>(
    groups: &'a mut [SuperGroup],
    head: &'a mut MaskedDense,
) -> impl Iterator<Item = (&'a mut [f32], &'a mut [f32])> {
    groups
        .iter_mut()
        .flat_map(|group| group.layers.iter_mut())
        .flat_map(|layer| {
            let [w, b] = layer.full.params_grads_mut();
            let [u, v, low_b] = layer.low.params_grads_mut();
            [w, b, u, v, low_b]
        })
        .chain(head.params_grads_mut())
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
    bottom_max_width: usize,
    /// The candidate the last [`DlrmSupernet::apply_sample`] recorded.
    candidate: ActiveShape,
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
        let (banks, emb_slot_widths): (Vec<SharedEmbeddingBank>, Vec<usize>) = config
            .tables
            .iter()
            .map(|t| {
                let max_width = (t.width as i32 + max_emb_delta * config.emb_width_increment as i32)
                    .max(8) as usize;
                let vocabs: Vec<usize> = choices::VOCAB_SCALES
                    .iter()
                    .map(|s| ((t.vocab as f64 * s).round() as usize).max(1))
                    .collect();
                (SharedEmbeddingBank::new(&vocabs, max_width, rng), max_width)
            })
            .unzip();
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
            });
            prev_max = max_width;
        }
        let head = MaskedDense::new(prev_max, 1, rng);
        Self {
            space,
            banks,
            groups,
            head,
            optimizer: Optimizer::new(OptimConfig::adam(1e-3)),
            embedding_lr,
            emb_slot_widths,
            bottom_max_width,
            candidate: ActiveShape::default(),
        }
    }

    /// The search space this super-network covers.
    pub fn space(&self) -> &DlrmSpace {
        &self.space
    }

    /// Records the candidate described by `sample`: the sub-network the
    /// next [`DlrmSupernet::train_step`] trains and
    /// [`DlrmSupernet::evaluate`] scores. The layers stay as they are.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for the space.
    pub fn apply_sample(&mut self, sample: &ArchSample) {
        self.candidate = self.active_shape(sample);
    }

    /// The candidate `sample` selects, as a value.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for the space.
    fn active_shape(&self, sample: &ArchSample) -> ActiveShape {
        let arch = self.space.decode(sample);
        let config = self.space.config();
        let tables = arch
            .tables
            .iter()
            .zip(&self.emb_slot_widths)
            .enumerate()
            .map(|(i, (table, &slot))| (sample[i * DECISIONS_PER_TABLE + 1], table.width.min(slot)))
            .collect();
        let offset = config.tables.len() * DECISIONS_PER_TABLE;
        let mut groups: Vec<GroupShape> = Vec::with_capacity(self.groups.len());
        // Bottom groups chain from the dense features, top groups from the
        // fixed-layout concat; `self.groups` holds them in that order.
        let mut head_in = 0;
        for (bottom, input) in [(true, config.dense_features), (false, self.concat_width())] {
            let mut prev_active = input;
            for (i, base) in config.mlp_groups.iter().enumerate() {
                if base.bottom != bottom {
                    continue;
                }
                let s = &sample[offset + i * DECISIONS_PER_GROUP..];
                let group = &self.groups[groups.len()];
                let depth = ((base.depth as i32 + choices::DEPTH_DELTAS[s[0]]).max(1) as usize)
                    .min(group.layers.len());
                let width = ((base.width as i32
                    + choices::MLP_WIDTH_DELTAS[s[1]] * config.mlp_width_increment as i32)
                    .max(8) as usize)
                    .min(group.max_width);
                groups.push(GroupShape {
                    input: prev_active,
                    depth,
                    width,
                    low_rank: choices::low_rank(s[2]),
                });
                prev_active = width;
            }
            head_in = prev_active;
        }
        ActiveShape {
            tables,
            groups,
            head_in,
        }
    }

    /// Width of the top tower's input: the bottom slot plus one slot per
    /// table at its maximum width.
    fn concat_width(&self) -> usize {
        self.bottom_max_width + self.emb_slot_widths.iter().sum::<usize>()
    }

    /// How many of `groups`, the first ones, form the bottom tower.
    fn bottom_groups(&self) -> usize {
        self.groups.iter().take_while(|g| g.bottom).count()
    }

    /// The top tower's input for `n` examples: the bottom tower's output,
    /// then each table's embeddings in its fixed slot. Masked widths stay
    /// zero, so the top tower's weight layout is stable across candidates
    /// (the fine-grained sharing contract of Fig. 3).
    fn concat(&self, n: usize, bottom: &Matrix, embs: impl Iterator<Item = Matrix>) -> Matrix {
        let mut concat = Matrix::zeros(n, self.concat_width());
        for r in 0..n {
            concat.row_mut(r)[..bottom.cols()].copy_from_slice(bottom.row(r));
        }
        let mut offset = self.bottom_max_width;
        for (emb, slot) in embs.zip(&self.emb_slot_widths) {
            for r in 0..n {
                concat.row_mut(r)[offset..offset + emb.cols()].copy_from_slice(emb.row(r));
            }
            offset += slot;
        }
        concat
    }

    /// The forward pass of the candidate `shape` on `batch`, reading the
    /// network without changing it; returns the tape, which holds the
    /// click logits.
    ///
    /// # Panics
    ///
    /// Panics on the empty shape (no sample applied) or if the batch shape
    /// is inconsistent.
    fn forward(&self, shape: &ActiveShape, batch: &DlrmBatch) -> Tape {
        assert_eq!(
            shape.groups.len(),
            self.groups.len(),
            "apply_sample before forward"
        );
        assert_eq!(
            batch.sparse.len(),
            self.banks.len(),
            "one id list per table"
        );
        let towers = self.bottom_groups();
        let (bottom_groups, top_groups) = self.groups.split_at(towers);
        let (bottom_shapes, top_shapes) = shape.groups.split_at(towers);
        let bottom = tower_forward(bottom_groups, bottom_shapes, &batch.dense);
        let embs = iter::zip(&self.banks, &shape.tables)
            .zip(&batch.sparse)
            .map(|((bank, &(vocab_choice, width)), ids)| bank.lookup_bag(ids, vocab_choice, width));
        let concat = self.concat(batch.len(), tower_out(&bottom, &batch.dense), embs);
        let top = tower_forward(top_groups, top_shapes, &concat);
        let (logits, head_pre) = self.head.forward(
            tower_out(&top, &concat),
            (shape.head_in, 1),
            Activation::Identity,
        );
        Tape {
            bottom,
            concat,
            top,
            logits,
            head_pre,
        }
    }

    /// One unified training step on the candidate
    /// [`DlrmSupernet::apply_sample`] recorded: forward, BCE loss, backward
    /// through its tape into the MLPs and embeddings, optimizer update.
    /// Returns the loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if no sample was applied or the batch shape is inconsistent.
    pub fn train_step(&mut self, batch: &DlrmBatch) -> f32 {
        let steps = [(mem::take(&mut self.candidate), batch)];
        let losses = self.train_shapes(&steps, |caller, helper| {
            caller();
            helper();
        });
        let [(shape, _)] = steps;
        self.candidate = shape;
        losses[0]
    }

    /// Trains each `(sample, batch)` of `steps` in order and returns each
    /// step's loss before its update: bit for bit
    /// [`DlrmSupernet::apply_sample`] and [`DlrmSupernet::train_step`] per
    /// item, and the last sample stays recorded.
    ///
    /// After each backward, the paths the next item's candidate reads get
    /// their Adam update at once; the update of every other path runs while
    /// the next item's forward and backward run, which touch none of its
    /// buffers. `join` runs those two jobs, the forward and backward first,
    /// and returns once both have: `|a, b| { a(); b(); }` runs them in
    /// order, and a `join` that runs them on two threads at once writes the
    /// same bits. The last item updates every buffer before this returns.
    ///
    /// # Panics
    ///
    /// Panics if a sample is invalid for the space or a batch shape is
    /// inconsistent.
    pub fn train_sequence<J>(&mut self, steps: &[(&ArchSample, &DlrmBatch)], join: J) -> Vec<f32>
    where
        J: for<'j> FnMut(&'j mut (dyn FnMut() + Send + 'j), &'j mut (dyn FnMut() + Send + 'j)),
    {
        let mut steps: Vec<(ActiveShape, &DlrmBatch)> = steps
            .iter()
            .map(|&(sample, batch)| (self.active_shape(sample), batch))
            .collect();
        let losses = self.train_shapes(&steps, join);
        if let Some((shape, _)) = steps.pop() {
            self.candidate = shape;
        }
        losses
    }

    /// [`DlrmSupernet::train_sequence`] over candidate shapes: the one
    /// weight-update path, which [`DlrmSupernet::train_step`] runs with a
    /// single item.
    fn train_shapes<J>(&mut self, steps: &[(ActiveShape, &DlrmBatch)], mut join: J) -> Vec<f32>
    where
        J: for<'j> FnMut(&'j mut (dyn FnMut() + Send + 'j), &'j mut (dyn FnMut() + Send + 'j)),
    {
        let mut losses = Vec::with_capacity(steps.len());
        let mut deferred = Deferred {
            update: self.optimizer.update(),
            paths: Vec::new(),
        };
        for (k, (shape, batch)) in steps.iter().enumerate() {
            let loss = if deferred.paths.is_empty() {
                self.forward_backward(shape, batch)
            } else {
                let mut loss = 0.0;
                join(
                    &mut || loss = self.forward_backward(shape, batch),
                    &mut || deferred.run(),
                );
                self.attach(&mut deferred);
                loss
            };
            losses.push(loss);
            self.update(steps.get(k + 1).map(|(next, _)| next), &mut deferred);
        }
        losses
    }

    /// The forward pass of `shape` on `batch`, its BCE loss, and the
    /// backward pass through its tape into the MLPs and embeddings: the
    /// gradients of exactly the buffers the forward read. Returns the loss.
    fn forward_backward(&mut self, shape: &ActiveShape, batch: &DlrmBatch) -> f32 {
        let tape = self.forward(shape, batch);
        let (loss_value, grad) = loss::bce_with_logits(&tape.logits, &batch.labels);
        let top_out = tower_out(&tape.top, &tape.concat);
        let head = (shape.head_in, 1);
        let g = self
            .head
            .backward(top_out, &tape.head_pre, &grad, head, Activation::Identity);
        let towers = self.bottom_groups();
        let (bottom_groups, top_groups) = self.groups.split_at_mut(towers);
        let (bottom_shapes, top_shapes) = shape.groups.split_at(towers);
        let g = tower_backward(top_groups, top_shapes, &tape.concat, &tape.top, g, true);
        // Split the concat gradient back into bottom and embedding slots.
        let n = batch.len();
        let bottom_cols = tower_out(&tape.bottom, &batch.dense).cols();
        let mut bottom_grad = Matrix::zeros(n, bottom_cols.max(1));
        for r in 0..n {
            bottom_grad
                .row_mut(r)
                .copy_from_slice(&g.row(r)[..bottom_cols]);
        }
        let mut offset = self.bottom_max_width;
        let tables = iter::zip(&mut self.banks, &shape.tables).zip(&batch.sparse);
        for (((bank, &(vocab_choice, w)), ids), slot) in tables.zip(&self.emb_slot_widths) {
            let mut emb_grad = Matrix::zeros(n, w.max(1));
            for r in 0..n {
                emb_grad
                    .row_mut(r)
                    .copy_from_slice(&g.row(r)[offset..offset + w]);
            }
            bank.backward(&emb_grad, ids, vocab_choice, w);
            offset += slot;
        }
        // The bottom tower reads the dense features: nobody reads their
        // gradient.
        tower_backward(
            bottom_groups,
            bottom_shapes,
            &batch.dense,
            &tape.bottom,
            bottom_grad,
            false,
        );
        loss_value
    }

    /// The updates of a train step whose backward just ran: Adam on the
    /// dense buffers, each consuming and zeroing its gradient, and sparse
    /// SGD on the touched embedding rows (as production DLRM trainers do).
    /// The paths `next`, the next step's candidate, does not read move into
    /// `deferred` with their optimizer slots and this step's update; every
    /// other buffer updates now. Without a next step everything does.
    fn update(&mut self, next: Option<&ActiveShape>, deferred: &mut Deferred) {
        self.optimizer.begin_step();
        let update = self.optimizer.update();
        let mut first = 0;
        for (g, group) in self.groups.iter_mut().enumerate() {
            for (d, layer) in group.layers.iter_mut().enumerate() {
                for (low, count) in [(false, FULL_SLOTS), (true, LOW_SLOTS)] {
                    let slots = self.optimizer.slots_mut(first..first + count);
                    if next.is_some_and(|next| !next.reads(g, d, low)) {
                        deferred.paths.push(DetachedPath {
                            layer: (g, d),
                            first,
                            path: layer.take(low),
                            slots: slots.iter_mut().map(mem::take).collect(),
                        });
                    } else if low {
                        apply_all(&update, layer.low.params_grads_mut(), slots);
                    } else {
                        apply_all(&update, layer.full.params_grads_mut(), slots);
                    }
                    first += count;
                }
            }
        }
        let slots = self.optimizer.slots_mut(first..first + FULL_SLOTS);
        apply_all(&update, self.head.params_grads_mut(), slots);
        deferred.update = update;
        let lr = self.embedding_lr;
        for bank in &mut self.banks {
            bank.apply_sparse_sgd(lr);
        }
    }

    /// Returns the paths and slots of a [`Deferred`] update that has run.
    fn attach(&mut self, deferred: &mut Deferred) {
        for detached in deferred.paths.drain(..) {
            let (g, d) = detached.layer;
            self.groups[g].layers[d].put(detached.path);
            let first = detached.first;
            let slots = self
                .optimizer
                .slots_mut(first..first + detached.slots.len());
            for (slot, state) in slots.iter_mut().zip(detached.slots) {
                *slot = state;
            }
        }
    }

    /// Evaluates the candidate [`DlrmSupernet::apply_sample`] recorded:
    /// returns `(logloss, auc)` — the quality signal `Q(α)` (higher AUC =
    /// better quality).
    ///
    /// # Panics
    ///
    /// Panics if no sample was applied or the batch shape is inconsistent.
    pub fn evaluate(&self, batch: &DlrmBatch) -> (f32, f64) {
        let logits = self.forward(&self.candidate, batch).logits;
        let (logloss, _) = loss::bce_with_logits(&logits, &batch.labels);
        let scores: Vec<f32> = (0..logits.rows()).map(|r| logits.get(r, 0)).collect();
        let auc = loss::auc(&scores, &batch.labels);
        (logloss, auc)
    }

    /// The mean logloss of the candidate `sample` on `batch`: the bits of
    /// [`DlrmSupernet::apply_sample`] followed by
    /// [`DlrmSupernet::evaluate`]'s first value, from `&self`, so
    /// concurrent calls may share the network. It skips the AUC's sort and
    /// the loss gradient.
    ///
    /// # Panics
    ///
    /// Panics if the sample is invalid for the space or the batch shape is
    /// inconsistent.
    pub fn logloss_of(&self, sample: &ArchSample, batch: &DlrmBatch) -> f32 {
        let logits = self.forward(&self.active_shape(sample), batch).logits;
        loss::bce_with_logits_loss(&logits, &batch.labels)
    }

    /// Serialises every shared trainable buffer — embedding banks, both
    /// paths of every super-layer, the head, and the optimizer moments —
    /// into a bit-exact blob for checkpointing. Taken at a step boundary
    /// (after [`DlrmSupernet::train_step`] returns), all gradients are zero
    /// and the next [`DlrmSupernet::apply_sample`] records the candidate
    /// anew, so weights + optimizer state are the complete resumable state.
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
    /// retrying) if the blob was produced by a differently-shaped network,
    /// holds optimizer moments that do not fit its buffers, or is
    /// truncated.
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
        let lens: Vec<usize> = dense_buffers(&mut self.groups, &mut self.head)
            .map(|(params, _)| params.len())
            .collect();
        self.optimizer.check_slots(&lens)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// A batch whose examples carry zero to three ids per table, some past
    /// the vocabulary (hashed back in).
    fn bag_batch(net: &DlrmSupernet, n: usize, rng: &mut StdRng) -> DlrmBatch {
        let mut batch = make_batch(net, n, rng);
        for (ids, t) in batch.sparse.iter_mut().zip(&net.space().config().tables) {
            for bag in ids.iter_mut() {
                *bag = (0..rng.gen_range(0..4))
                    .map(|_| rng.gen_range(0..2 * t.vocab))
                    .collect();
            }
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pure quality of a random candidate equals `apply_sample`
        /// then `evaluate().0` bit for bit, on random batches, whatever
        /// candidate the network last recorded and after training
        /// steps have moved the weights; and it leaves the network as it
        /// was.
        fn logloss_of_matches_apply_sample_then_evaluate(seed in 0u64..u64::MAX) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
            let space = net.space().space().clone();
            for _ in 0..r.gen_range(0..4) {
                net.apply_sample(&space.sample_uniform(&mut r));
                let batch = bag_batch(&net, r.gen_range(1..24), &mut r);
                net.train_step(&batch);
            }
            for _ in 0..4 {
                let sample = space.sample_uniform(&mut r);
                let batch = bag_batch(&net, r.gen_range(1..24), &mut r);
                let state = net.save_state();
                let pure = net.logloss_of(&sample, &batch);
                prop_assert!(net.save_state() == state, "logloss_of changed the network");
                net.apply_sample(&sample);
                let (want, _) = net.evaluate(&batch);
                prop_assert_eq!(pure.to_bits(), want.to_bits());
            }
        }
    }

    /// The join of [`DlrmSupernet::train_sequence`] that runs its two jobs
    /// on two threads at once.
    fn two_threads(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        std::thread::scope(|s| {
            s.spawn(b);
            a();
        });
    }

    /// Trains `items` from the network state `start` through
    /// `train_sequence`, with an inline join and with [`two_threads`], and
    /// through `apply_sample` + `train_step` per item: the losses, the
    /// `save_state()` bytes (weights and Adam moments) and the candidate
    /// left recorded must match bit for bit.
    fn check_sequence(start: &[u8], items: &[(ArchSample, DlrmBatch)]) -> Result<(), String> {
        let restored = || {
            let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng());
            net.load_state(start).expect("same shape");
            net
        };
        let mut reference = restored();
        let want: Vec<u32> = items
            .iter()
            .map(|(sample, batch)| {
                reference.apply_sample(sample);
                reference.train_step(batch).to_bits()
            })
            .collect();
        let steps: Vec<(&ArchSample, &DlrmBatch)> = items.iter().map(|(s, b)| (s, b)).collect();
        for threaded in [false, true] {
            let mut net = restored();
            let losses = if threaded {
                net.train_sequence(&steps, two_threads)
            } else {
                net.train_sequence(&steps, |a, b| {
                    a();
                    b();
                })
            };
            let got: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
            prop_assert!(
                got == want,
                "losses {got:?} vs {want:?}, threaded {threaded}"
            );
            prop_assert!(
                net.save_state() == reference.save_state(),
                "state, threaded {threaded}"
            );
            prop_assert!(
                net.candidate == reference.candidate,
                "candidate, threaded {threaded}"
            );
        }
        Ok(())
    }

    /// The offset of group `g`'s decisions in a sample.
    fn group_decisions(net: &DlrmSupernet, g: usize) -> usize {
        net.space().config().tables.len() * DECISIONS_PER_TABLE + g * DECISIONS_PER_GROUP
    }

    /// A sample derived from `prev` by one of the moves that decide which
    /// paths a deferred update takes: the same candidate again, one group's
    /// depth changed, one group's layers flipped between the full and the
    /// low-rank path, or a fresh random sample.
    fn next_sample(net: &DlrmSupernet, prev: &ArchSample, r: &mut StdRng) -> ArchSample {
        let group = group_decisions(net, r.gen_range(0..net.space().config().mlp_groups.len()));
        let mut next = prev.clone();
        match r.gen_range(0..4) {
            0 => {}
            1 => next[group] = r.gen_range(0..choices::DEPTH_DELTAS.len()),
            2 if prev[group + 2] + 1 == choices::LOW_RANK_CHOICES => {
                next[group + 2] = r.gen_range(0..choices::LOW_RANK_CHOICES - 1);
            }
            2 => next[group + 2] = choices::LOW_RANK_CHOICES - 1,
            _ => next = net.space().space().sample_uniform(r),
        }
        next
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sequence trainer equals `apply_sample` + `train_step` per
        /// item, bit for bit (see [`check_sequence`]), on sequences of 1 to
        /// 6 items built by [`next_sample`]'s moves over bag batches, after
        /// a few training steps.
        fn train_sequence_matches_apply_sample_then_train_step(seed in 0u64..u64::MAX) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
            let space = net.space().space().clone();
            for _ in 0..r.gen_range(0..3) {
                net.apply_sample(&space.sample_uniform(&mut r));
                let batch = bag_batch(&net, r.gen_range(1..24), &mut r);
                net.train_step(&batch);
            }
            let mut sample = space.sample_uniform(&mut r);
            let mut items = Vec::new();
            for _ in 0..r.gen_range(1usize..7) {
                items.push((sample.clone(), bag_batch(&net, r.gen_range(1..24), &mut r)));
                sample = next_sample(&net, &sample, &mut r);
            }
            check_sequence(&net.save_state(), &items)?;
        }
    }

    /// [`check_sequence`] on one sequence that makes every move: a
    /// candidate repeated back to back, a deeper group, that group's layers
    /// flipped to the low-rank path and back while another group deepens,
    /// a shallower group, then a random candidate.
    #[test]
    fn train_sequence_matches_through_every_move() {
        let mut r = rng();
        let net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let (g0, g1) = (group_decisions(&net, 0), group_decisions(&net, 1));
        let full = choices::LOW_RANK_CHOICES - 1;
        let mut a = net.space().baseline();
        a[g1 + 2] = full;
        let mut deeper = a.clone();
        deeper[g1] += 2;
        let mut low = deeper.clone();
        low[g1 + 2] = 4;
        let mut back = low.clone();
        back[g1 + 2] = full;
        back[g0] += 2;
        let mut shallow = back.clone();
        shallow[g1] = 0;
        let random = net.space().space().sample_uniform(&mut r);
        let shapes: Vec<_> = [&a, &deeper, &low, &back, &shallow]
            .map(|s| net.active_shape(s).groups)
            .into_iter()
            .collect();
        assert!(shapes[1][1].depth > shapes[0][1].depth);
        assert!(shapes[2][1].low_rank < 1.0 && shapes[1][1].low_rank == 1.0);
        assert!(shapes[3][0].depth > shapes[2][0].depth && shapes[3][1].low_rank == 1.0);
        assert!(shapes[4][1].depth < shapes[3][1].depth);
        let items: Vec<(ArchSample, DlrmBatch)> = [&a, &a, &deeper, &low, &back, &shallow, &random]
            .into_iter()
            .map(|s| (s.clone(), bag_batch(&net, 16, &mut r)))
            .collect();
        check_sequence(&net.save_state(), &items).expect("sequence matches");
    }

    #[test]
    fn load_state_rejects_moments_that_do_not_fit_the_buffers() {
        let mut r = rng();
        let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        let sample = net.space().baseline();
        net.apply_sample(&sample);
        net.train_step(&make_batch(&net, 8, &mut r));
        let lens: Vec<usize> = dense_buffers(&mut net.groups, &mut net.head)
            .map(|(params, _)| params.len())
            .collect();
        // The real weights, then an optimizer section of the given slots.
        let untrained = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r).save_state();
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
        let mut fresh = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
        assert_eq!(
            fresh.load_state(&blob(&[2])),
            Err(StateError::LengthMismatch {
                expected: lens.len(),
                found: 1
            })
        );
        let mut short_first = lens.clone();
        short_first[0] = 2;
        assert_eq!(
            fresh.load_state(&blob(&short_first)),
            Err(StateError::LengthMismatch {
                expected: lens[0],
                found: 2
            })
        );
        // Slots that fit load, and the network trains on them.
        fresh.load_state(&blob(&lens)).expect("fitting slots load");
        fresh
            .load_state(&blob(&[]))
            .expect("an untrained optimizer loads");
        fresh.apply_sample(&sample);
        fresh.train_step(&make_batch(&fresh, 8, &mut r));
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
