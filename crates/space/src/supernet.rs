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
//! bit for bit a [`DlrmSupernet::train_step`] each, on two threads: each
//! dense path's weight gradient and Adam step is a task either thread can
//! run, beside the caller's forward and input-gradient chain.

use crate::decision::ArchSample;
use crate::dlrm::{choices, DlrmSpace, DlrmSpaceConfig, DECISIONS_PER_GROUP, DECISIONS_PER_TABLE};
use h2o_tensor::{
    loss, Activation, LowRankDense, LowRankGrad, LowRankTape, MaskedDense, Matrix, Optimizer,
    SharedEmbeddingBank, Slot, StateError, StateReader, StateWriter, Update,
};
use rand::Rng;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::{iter, mem, thread};

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

/// A dense path moved out of the network for one item's weight update,
/// with what its gradients need: the input of its forward and its
/// input-gradient half's output. That is `None` for a path the item's
/// candidate does not read, whose gradients are zero.
#[derive(Debug)]
enum Work<'a> {
    /// The full path of super-layer `(group, depth)`, or the head for
    /// `None`, and the gradient w.r.t. its pre-activation.
    Full {
        layer: Option<(usize, usize)>,
        path: MaskedDense,
        grad: Option<(Cow<'a, Matrix>, Matrix)>,
    },
    /// The low-rank path of super-layer `(group, depth)`, its tape and its
    /// gradients w.r.t. the pre-activation and `x·U`.
    Low {
        layer: (usize, usize),
        path: LowRankDense,
        grad: Option<(Cow<'a, Matrix>, LowRankTape, LowRankGrad)>,
    },
}

/// One path's weight update: its [`Work`] and optimizer slots.
#[derive(Debug)]
struct Task<'a> {
    work: Work<'a>,
    slots: Vec<Slot>,
}

impl Task<'_> {
    /// Accumulates the path's weight gradients, then applies `update`,
    /// which zeroes them. The gradient pieces are dropped.
    fn run(&mut self, update: &Update) {
        match &mut self.work {
            Work::Full { path, grad, .. } => {
                if let Some((x, d_pre)) = grad.take() {
                    path.accumulate(&x, &d_pre);
                }
                apply_all(update, path.params_grads_mut(), &mut self.slots);
            }
            Work::Low { path, grad, .. } => {
                if let Some((x, tape, hidden)) = grad.take() {
                    path.accumulate(&x, &tape, &hidden);
                }
                apply_all(update, path.params_grads_mut(), &mut self.slots);
            }
        }
    }
}

/// Locks `mutex`, poisoned or not: no guard here is held while a task
/// runs, so a panic cannot leave the guarded data half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The weight updates of one train step, shared by the two jobs of its
/// join. The caller queues each task once nothing of the step reads its
/// path again, then closes the queue; both jobs run tasks until the queue
/// is closed and empty. The caller never waits for the helper: the join
/// does.
#[derive(Debug)]
struct Tasks<'a> {
    update: Update,
    queue: Mutex<VecDeque<Task<'a>>>,
    closed: AtomicBool,
    /// The tasks that have run, whose paths and slots go back into the
    /// network after the join.
    done: Mutex<Vec<Task<'a>>>,
}

/// Closes the queue when dropped, so that the helper stops even when the
/// caller's job unwinds.
struct Close<'t, 'a>(&'t Tasks<'a>);

impl Drop for Close<'_, '_> {
    fn drop(&mut self) {
        // Pairs with the helper's `Acquire` load: a helper that reads the
        // queue closed then finds every task queued before the close.
        self.0.closed.store(true, Ordering::Release);
    }
}

impl<'a> Tasks<'a> {
    /// An open, empty queue for the tasks of `update`.
    fn new(update: Update) -> Self {
        Self {
            update,
            queue: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            done: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, task: Task<'a>) {
        lock(&self.queue).push_back(task);
    }

    /// Runs the oldest queued task, or the newest one if `newest`; `false`
    /// if the queue is empty.
    fn run_one(&self, newest: bool) -> bool {
        let next = {
            let mut queue = lock(&self.queue);
            if newest {
                queue.pop_back()
            } else {
                queue.pop_front()
            }
        };
        let Some(mut task) = next else {
            return false;
        };
        task.run(&self.update);
        lock(&self.done).push(task);
        true
    }

    /// The caller's job: `queue`, which queues tasks, then the close, then
    /// the tasks left, newest first, while their inputs are still in its
    /// cache.
    fn caller<R>(&self, queue: impl FnOnce() -> R) -> R {
        let close = Close(self);
        let out = queue();
        drop(close);
        while self.run_one(true) {}
        out
    }

    /// The helper's job: runs tasks, oldest first, until the queue is
    /// closed and empty.
    fn helper(&self) {
        loop {
            let closed = self.closed.load(Ordering::Acquire);
            if !self.run_one(false) {
                if closed {
                    return;
                }
                thread::yield_now();
            }
        }
    }

    /// The tasks that have run.
    fn into_done(self) -> Vec<Task<'a>> {
        self.done
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
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

/// What one forward over a tower keeps for its backward pass: the tower's
/// input, then each layer's output and path tape, in forward order.
#[derive(Debug)]
struct TowerTape<'a> {
    input: Cow<'a, Matrix>,
    layers: Vec<(Matrix, PathTape)>,
}

impl<'a> TowerTape<'a> {
    /// The tower's output.
    fn out(&self) -> &Matrix {
        self.layers.last().map_or(&self.input, |(out, _)| out)
    }

    /// The tower's output, and each layer's input with its path tape.
    fn into_layers(self) -> (Cow<'a, Matrix>, Vec<(Cow<'a, Matrix>, PathTape)>) {
        let mut x = self.input;
        let mut layers = Vec::with_capacity(self.layers.len());
        for (out, path) in self.layers {
            layers.push((mem::replace(&mut x, Cow::Owned(out)), path));
        }
        (x, layers)
    }
}

/// What one forward over a candidate keeps for its backward pass.
#[derive(Debug)]
struct Tape<'a> {
    bottom: TowerTape<'a>,
    /// Its input is the concat.
    top: TowerTape<'a>,
    /// Click logits `(batch, 1)`.
    logits: Matrix,
    head_pre: Matrix,
}

/// Runs the active layers of `groups` over `input`.
fn tower_forward<'a>(
    groups: &[SuperGroup],
    shapes: &[GroupShape],
    input: Cow<'a, Matrix>,
) -> TowerTape<'a> {
    let mut tape = TowerTape {
        input,
        layers: Vec::new(),
    };
    for (group, gs) in groups.iter().zip(shapes) {
        for (d, layer) in group.layers.iter().enumerate().take(gs.depth) {
            let pass = layer.forward(tape.out(), gs.widths(d), gs.low_rank);
            tape.layers.push(pass);
        }
    }
    tape
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
            optimizer: Optimizer::new(1e-3),
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
    fn forward<'a>(&self, shape: &ActiveShape, batch: &'a DlrmBatch) -> Tape<'a> {
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
        let bottom = tower_forward(bottom_groups, bottom_shapes, Cow::Borrowed(&batch.dense));
        let embs = iter::zip(&self.banks, &shape.tables)
            .zip(&batch.sparse)
            .map(|((bank, &(vocab_choice, width)), ids)| bank.lookup_bag(ids, vocab_choice, width));
        let concat = self.concat(batch.len(), bottom.out(), embs);
        let top = tower_forward(top_groups, top_shapes, Cow::Owned(concat));
        let (logits, head_pre) =
            self.head
                .forward(top.out(), (shape.head_in, 1), Activation::Identity);
        Tape {
            bottom,
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
        let shape = mem::take(&mut self.candidate);
        let loss = self.train_shape(&shape, batch, &mut |caller, helper| {
            caller();
            helper();
        });
        self.candidate = shape;
        loss
    }

    /// Trains each `(sample, batch)` of `steps` in order and returns each
    /// step's loss before its update: bit for bit
    /// [`DlrmSupernet::apply_sample`] and [`DlrmSupernet::train_step`] per
    /// item, and the last sample stays recorded.
    ///
    /// Each item is one call of `join(caller, helper)`, which runs both
    /// jobs and returns once both have. Every dense path's weight gradient
    /// and Adam step is a task on a queue that both jobs drain. The paths
    /// the item's candidate does not read are queued before the join;
    /// their gradients are zero. The caller's job runs the forward, the
    /// loss and the input-gradient chain from the head down, queuing each
    /// read path (the head first) as soon as the chain has read its weights
    /// for the last time; the embeddings' backward and sparse SGD stay on
    /// it. Then it closes the queue and runs the tasks left. The helper's
    /// job runs tasks until the queue is closed and empty. Each buffer
    /// still gets one gradient accumulation and one Adam step at the
    /// item's count, so the bits do not depend on which thread ran what.
    ///
    /// The helper's job waits for tasks the caller's job queues, so `join`
    /// must start the caller's job no later than the helper's: run both at
    /// once on two threads, or the caller's to completion first. `|a, b|
    /// { a(); b(); }` does, and so does an executor that starts its first
    /// job on the calling thread. A panic in either job closes the queue,
    /// so the other one ends and the join can raise it.
    ///
    /// # Panics
    ///
    /// Panics if a sample is invalid for the space or a batch shape is
    /// inconsistent.
    pub fn train_sequence<J>(
        &mut self,
        steps: &[(&ArchSample, &DlrmBatch)],
        mut join: J,
    ) -> Vec<f32>
    where
        J: for<'j> FnMut(&'j mut (dyn FnMut() + Send + 'j), &'j mut (dyn FnMut() + Send + 'j)),
    {
        let mut losses = Vec::with_capacity(steps.len());
        for &(sample, batch) in steps {
            let shape = self.active_shape(sample);
            losses.push(self.train_shape(&shape, batch, &mut join));
            self.candidate = shape;
        }
        losses
    }

    /// One item of [`DlrmSupernet::train_sequence`] on the candidate
    /// `shape`: the one weight-update path, which
    /// [`DlrmSupernet::train_step`] runs with a sequential join.
    fn train_shape<'a, J>(&mut self, shape: &ActiveShape, batch: &'a DlrmBatch, join: &mut J) -> f32
    where
        J: for<'j> FnMut(&'j mut (dyn FnMut() + Send + 'j), &'j mut (dyn FnMut() + Send + 'j)),
    {
        assert_eq!(
            shape.groups.len(),
            self.groups.len(),
            "apply_sample before forward"
        );
        self.optimizer.begin_step();
        let tasks = Tasks::new(self.optimizer.update());
        for g in 0..self.groups.len() {
            for d in 0..self.groups[g].layers.len() {
                if !shape.reads(g, d, false) {
                    tasks.push(self.full_task(Some((g, d)), None));
                }
                if !shape.reads(g, d, true) {
                    tasks.push(self.low_task((g, d), None));
                }
            }
        }
        let mut loss = 0.0;
        join(
            &mut || loss = tasks.caller(|| self.forward_backward(shape, batch, &tasks)),
            &mut || tasks.helper(),
        );
        for task in tasks.into_done() {
            self.attach(task);
        }
        loss
    }

    /// The optimizer slots of `work`'s path: each super-layer's full path
    /// then its low-rank path, group by group, then the head, as in
    /// [`dense_buffers`].
    fn slot_range(&self, work: &Work<'_>) -> Range<usize> {
        let first_of = |group: usize, depth: usize| {
            let before: usize = self.groups[..group].iter().map(|g| g.layers.len()).sum();
            (before + depth) * (FULL_SLOTS + LOW_SLOTS)
        };
        match *work {
            Work::Full {
                layer: Some((g, d)),
                ..
            } => first_of(g, d)..first_of(g, d) + FULL_SLOTS,
            Work::Full { layer: None, .. } => {
                let first = first_of(self.groups.len(), 0);
                first..first + FULL_SLOTS
            }
            Work::Low { layer: (g, d), .. } => {
                let first = first_of(g, d) + FULL_SLOTS;
                first..first + LOW_SLOTS
            }
        }
    }

    /// A task for `work`, whose path the caller has moved out of the
    /// network (leaving an empty one, whose forward rejects every shape),
    /// with its optimizer slots moved out too.
    fn task<'a>(&mut self, work: Work<'a>) -> Task<'a> {
        let range = self.slot_range(&work);
        let slots = self
            .optimizer
            .slots_mut(range)
            .iter_mut()
            .map(mem::take)
            .collect();
        Task { work, slots }
    }

    /// Moves the full path of super-layer `layer`, or the head for `None`,
    /// into a task with `grad` (see [`Work::Full`]).
    fn full_task<'a>(
        &mut self,
        layer: Option<(usize, usize)>,
        grad: Option<(Cow<'a, Matrix>, Matrix)>,
    ) -> Task<'a> {
        let path = match layer {
            Some((g, d)) => mem::take(&mut self.groups[g].layers[d].full),
            None => mem::take(&mut self.head),
        };
        self.task(Work::Full { layer, path, grad })
    }

    /// Moves the low-rank path of super-layer `layer` into a task with
    /// `grad` (see [`Work::Low`]).
    fn low_task<'a>(
        &mut self,
        layer: (usize, usize),
        grad: Option<(Cow<'a, Matrix>, LowRankTape, LowRankGrad)>,
    ) -> Task<'a> {
        let (g, d) = layer;
        let path = mem::take(&mut self.groups[g].layers[d].low);
        self.task(Work::Low { layer, path, grad })
    }

    /// Puts a task's path and slots back into the network.
    fn attach(&mut self, task: Task<'_>) {
        let range = self.slot_range(&task.work);
        for (slot, state) in self.optimizer.slots_mut(range).iter_mut().zip(task.slots) {
            *slot = state;
        }
        match task.work {
            Work::Full {
                layer: Some((g, d)),
                path,
                ..
            } => self.groups[g].layers[d].full = path,
            Work::Full {
                layer: None, path, ..
            } => self.head = path,
            Work::Low {
                layer: (g, d),
                path,
                ..
            } => self.groups[g].layers[d].low = path,
        }
    }

    /// The caller's side of a train step: the forward pass of `shape` on
    /// `batch`, its BCE loss, and the input-gradient chain from the head
    /// down, which queues each dense path's update on `tasks` once the
    /// chain has read its weights for the last time. The embeddings'
    /// backward and sparse SGD on their touched rows (as production DLRM
    /// trainers do) run here. Returns the loss.
    fn forward_backward<'a>(
        &mut self,
        shape: &ActiveShape,
        batch: &'a DlrmBatch,
        tasks: &Tasks<'a>,
    ) -> f32 {
        let Tape {
            bottom,
            top,
            logits,
            head_pre,
        } = self.forward(shape, batch);
        let (loss_value, grad) = loss::bce_with_logits(&logits, &batch.labels);
        let d_pre = Activation::Identity.backprop(&grad, &head_pre);
        let g = self.head.input_grad(&d_pre, shape.head_in);
        let (top_out, top_layers) = top.into_layers();
        tasks.push(self.full_task(None, Some((top_out, d_pre))));
        let towers = self.bottom_groups();
        let top_groups = towers..self.groups.len();
        let g = self.tower_chain(top_groups, top_layers, g, true, shape, tasks);
        // Split the concat gradient back into bottom and embedding slots.
        let n = batch.len();
        let bottom_cols = bottom.out().cols();
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
        let lr = self.embedding_lr;
        for bank in &mut self.banks {
            bank.apply_sparse_sgd(lr);
        }
        // The bottom tower reads the dense features: nobody reads their
        // gradient.
        let (_, bottom_layers) = bottom.into_layers();
        self.tower_chain(0..towers, bottom_layers, bottom_grad, false, shape, tasks);
        loss_value
    }

    /// The input-gradient chain down the tower of `groups` from `grad`, the
    /// gradient w.r.t. its output, given each active layer's input and path
    /// tape in forward order. Each layer's path moves into a task on
    /// `tasks` right after the chain's last read of its weights. Returns
    /// the gradient w.r.t. the tower's input if `input_grad`; if not, that
    /// input is the network's own, whose gradient nobody reads, so the
    /// first layer skips that product and the gradient w.r.t. its output
    /// comes back instead.
    fn tower_chain<'a>(
        &mut self,
        groups: Range<usize>,
        layers: Vec<(Cow<'a, Matrix>, PathTape)>,
        mut grad: Matrix,
        input_grad: bool,
        shape: &ActiveShape,
        tasks: &Tasks<'a>,
    ) -> Matrix {
        let places: Vec<(usize, usize, usize)> = groups
            .flat_map(|g| {
                let gs = shape.groups[g];
                (0..gs.depth).map(move |d| (g, d, gs.widths(d).0))
            })
            .collect();
        let layers = places.into_iter().zip(layers).enumerate().rev();
        for (i, ((g, d, active_in), (x, path))) in layers {
            let needs_dx = input_grad || i > 0;
            let task = match path {
                PathTape::Full(pre) => {
                    let d_pre = Activation::Relu.backprop(&grad, &pre);
                    if needs_dx {
                        grad = self.groups[g].layers[d].full.input_grad(&d_pre, active_in);
                    }
                    self.full_task(Some((g, d)), Some((x, d_pre)))
                }
                PathTape::Low(tape) => {
                    let low = &self.groups[g].layers[d].low;
                    let hidden = low.hidden_grad(&tape, &grad);
                    if needs_dx {
                        grad = low.input_grad(&hidden, active_in);
                    }
                    self.low_task((g, d), Some((x, tape, hidden)))
                }
            };
            tasks.push(task);
        }
        grad
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
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

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

    /// A join whose helper job runs on a second thread, but only after the
    /// caller's job has returned, so the caller runs every task.
    fn helper_after_caller(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        let (returned, caller_returned) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = caller_returned.recv();
                b();
            });
            a();
            let _ = returned.send(());
        });
    }

    /// Trains `items` from the network state `start` through
    /// `train_sequence`, with an inline join, with [`two_threads`] and with
    /// [`helper_after_caller`], and through `apply_sample` + `train_step`
    /// per item: the losses, the `save_state()` bytes (weights and Adam
    /// moments) and the candidate left recorded must match bit for bit.
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
        for join in ["inline", "two threads", "helper after caller"] {
            let mut net = restored();
            let losses = match join {
                "inline" => net.train_sequence(&steps, |a, b| {
                    a();
                    b();
                }),
                "two threads" => net.train_sequence(&steps, two_threads),
                _ => net.train_sequence(&steps, helper_after_caller),
            };
            let got: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
            prop_assert!(got == want, "losses {got:?} vs {want:?}, join {join}");
            prop_assert!(
                net.save_state() == reference.save_state(),
                "state, join {join}"
            );
            prop_assert!(
                net.candidate == reference.candidate,
                "candidate, join {join}"
            );
        }
        Ok(())
    }

    /// Runs `body` on a thread of its own and fails if it has not finished
    /// within a minute, so a join that hangs fails the test instead of
    /// hanging it. A panic in `body` is re-raised.
    fn within_deadline(body: impl FnOnce() + Send + 'static) {
        const DEADLINE: Duration = Duration::from_secs(60);
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(DEADLINE) {
            Err(RecvTimeoutError::Timeout) => panic!("not done within {DEADLINE:?}: a join hung"),
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                if let Err(payload) = runner.join() {
                    panic::resume_unwind(payload);
                }
            }
        }
    }

    /// A caller whose forward panics (the batch has one id list too few)
    /// closes the queue on its way out, so the helper ends and the panic
    /// reaches `train_sequence`'s caller.
    #[test]
    fn a_panic_in_the_callers_job_reaches_the_caller() {
        within_deadline(|| {
            let mut r = rng();
            let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut r);
            let sample = net.space().baseline();
            let mut batch = make_batch(&net, 8, &mut r);
            batch.sparse.pop();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                net.train_sequence(&[(&sample, &batch)], two_threads)
            }));
            assert!(outcome.is_err(), "the forward's panic must surface");
        });
    }

    /// A task that panics on the helper ends the helper's job; the caller
    /// never waits on it, so the join ends and raises the panic.
    #[test]
    fn a_panic_in_a_helper_task_reaches_the_caller() {
        within_deadline(|| {
            let mut r = rng();
            let tasks = Tasks::new(Optimizer::new(1e-3).update());
            // One input row against two gradient rows: the weight gradient
            // product rejects them.
            let grad = Some((Cow::Owned(Matrix::zeros(1, 2)), Matrix::zeros(2, 2)));
            let path = MaskedDense::new(2, 2, &mut r);
            tasks.push(Task {
                work: Work::Full {
                    layer: None,
                    path,
                    grad,
                },
                slots: vec![Slot::default(); FULL_SLOTS],
            });
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                two_threads(
                    // Closes the queue only once the helper has taken the
                    // task.
                    &mut || {
                        tasks.caller(|| {
                            while !lock(&tasks.queue).is_empty() {
                                thread::yield_now();
                            }
                        })
                    },
                    &mut || tasks.helper(),
                );
            }));
            assert!(outcome.is_err(), "the task's panic must surface");
        });
    }

    /// The offset of group `g`'s decisions in a sample.
    fn group_decisions(net: &DlrmSupernet, g: usize) -> usize {
        net.space().config().tables.len() * DECISIONS_PER_TABLE + g * DECISIONS_PER_GROUP
    }

    /// A sample derived from `prev` by one of the moves that decide which
    /// paths an item's candidate reads: the same candidate again, one group's
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
