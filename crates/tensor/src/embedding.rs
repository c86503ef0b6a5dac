//! Embedding tables with the weight-sharing semantics of the H2O-NAS DLRM
//! super-network (§5.1.2, Fig. 3 of the paper).
//!
//! * **Width sharing (fine-grained, ① in Fig. 3):** one embedding vector per
//!   row at the *largest* searchable width; a candidate with width `D` uses
//!   the first `D` entries and masks the rest.
//! * **Vocabulary sharing (coarse-grained, ② in Fig. 3):** each vocabulary
//!   size is a *separate* table to avoid harmful interference between
//!   candidates — see [`SharedEmbeddingBank`].
//!
//! Like the dense layers, a table holds no candidate: its one lookup takes
//! the candidate's width (and, for a bank, vocabulary choice) as
//! arguments, and `backward` takes the same ids and shape.

use crate::state::{StateError, StateReader, StateWriter};
use crate::Matrix;
use rand::Rng;

/// A single embedding table with a searchable (masked) width.
///
/// # Examples
///
/// ```
/// use h2o_tensor::EmbeddingTable;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let table = EmbeddingTable::new(100, 16, &mut rng);
/// let out = table.lookup_bag(&[vec![1, 5], vec![7]], 8);
/// assert_eq!(out.shape(), (2, 8));
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    weights: Matrix,
    /// The rows holding pending gradients, in the order backward first
    /// touched them.
    touched: Vec<usize>,
    /// Their gradients, one max-width row each in `touched` order. The SGD
    /// step clears the buffer without freeing it, so the next step reuses
    /// it: it holds as many rows as one step touches.
    grads: Vec<f32>,
    /// Per row of the table: its index in `touched`, or `usize::MAX` while
    /// it holds no pending gradient.
    position: Vec<usize>,
}

impl EmbeddingTable {
    /// Creates a `vocab × max_width` table with small random initialisation.
    ///
    /// # Panics
    ///
    /// Panics if `vocab == 0` or `max_width == 0`.
    pub fn new(vocab: usize, max_width: usize, rng: &mut impl Rng) -> Self {
        assert!(
            vocab > 0 && max_width > 0,
            "embedding dimensions must be non-zero"
        );
        let scale = 1.0 / (max_width as f32).sqrt();
        let weights = Matrix::from_fn(vocab, max_width, |_, _| rng.gen_range(-scale..scale));
        Self {
            weights,
            touched: Vec::new(),
            grads: Vec::new(),
            position: vec![usize::MAX; vocab],
        }
    }

    /// Vocabulary size (number of rows).
    pub fn vocab(&self) -> usize {
        self.weights.rows()
    }

    /// Maximum (allocated) embedding width.
    pub fn max_width(&self) -> usize {
        self.weights.cols()
    }

    /// Sum-pools the first `width` dimensions of each example's embeddings
    /// ("bag" lookup, as in DLRM sparse features). Returns a
    /// `(batch, width)` matrix.
    ///
    /// Out-of-vocabulary indices are mapped to row `index % vocab`, the usual
    /// hashing-trick behaviour of production DLRM pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the allocated width.
    pub fn lookup_bag(&self, batch: &[Vec<usize>], width: usize) -> Matrix {
        assert!(
            width >= 1 && width <= self.weights.cols(),
            "width {width} out of range"
        );
        let mut out = Matrix::zeros(batch.len().max(1), width);
        for (i, indices) in batch.iter().enumerate() {
            let row = out.row_mut(i);
            for &idx in indices {
                let idx = idx % self.weights.rows();
                for (o, &w) in row.iter_mut().zip(&self.weights.row(idx)[..width]) {
                    *o += w;
                }
            }
        }
        out
    }

    /// Accumulates sparse gradients for the rows that `batch`, the ids of a
    /// [`EmbeddingTable::lookup_bag`] at `width`, touched.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` does not have the lookup's shape.
    pub fn backward(&mut self, grad_out: &Matrix, batch: &[Vec<usize>], width: usize) {
        assert_eq!(grad_out.rows(), batch.len().max(1), "grad rows mismatch");
        assert_eq!(grad_out.cols(), width, "grad cols mismatch");
        let max_width = self.weights.cols();
        for (i, indices) in batch.iter().enumerate() {
            let g_row = grad_out.row(i);
            for &idx in indices {
                let row = idx % self.weights.rows();
                let at = match self.position[row] {
                    usize::MAX => {
                        let at = self.touched.len();
                        self.position[row] = at;
                        self.touched.push(row);
                        self.grads.resize((at + 1) * max_width, 0.0);
                        at
                    }
                    at => at,
                };
                let grad = &mut self.grads[at * max_width..][..width];
                for (g, &d) in grad.iter_mut().zip(g_row) {
                    *g += d;
                }
            }
        }
    }

    /// Applies an SGD step directly to the touched rows and clears the
    /// sparse gradients. Sparse tables use plain SGD (as production DLRM
    /// embedding training commonly does) rather than Adam to avoid dense
    /// moment buffers over the whole vocabulary.
    pub fn apply_sparse_sgd(&mut self, lr: f32) {
        let grads = self.grads.chunks_exact(self.weights.cols());
        for (&row, grad) in self.touched.iter().zip(grads) {
            for (w, &g) in self.weights.row_mut(row).iter_mut().zip(grad) {
                *w -= lr * g;
            }
            self.position[row] = usize::MAX;
        }
        self.touched.clear();
        self.grads.clear();
    }

    /// Number of rows with pending gradients (used by tests/metrics).
    pub fn pending_grad_rows(&self) -> usize {
        self.touched.len()
    }

    /// Serialises the full embedding matrix for checkpointing. Pending
    /// sparse gradients are transient per-step state and are not written
    /// (checkpoints are taken at step boundaries, where gradients have been
    /// applied and cleared).
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_f32_slice(self.weights.as_slice());
    }

    /// Restores weights written by [`EmbeddingTable::write_state`].
    ///
    /// # Errors
    ///
    /// Fails if the recorded length does not match this table's shape.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        r.read_f32_slice(self.weights.as_mut_slice())
    }
}

/// Coarse-grained vocabulary sharing: one [`EmbeddingTable`] per searchable
/// vocabulary size, as in ② of Fig. 3.
///
/// A candidate picks `(vocab_choice, width)`; tables for different vocabulary
/// sizes never share rows, eliminating cross-candidate interference at the
/// cost of more memory — exactly the hybrid trade-off §5.1.2 describes.
#[derive(Debug, Clone)]
pub struct SharedEmbeddingBank {
    tables: Vec<EmbeddingTable>,
}

impl SharedEmbeddingBank {
    /// Creates one table per vocabulary-size candidate, each at the maximum
    /// searchable width.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_sizes` is empty or contains zero.
    pub fn new(vocab_sizes: &[usize], max_width: usize, rng: &mut impl Rng) -> Self {
        assert!(
            !vocab_sizes.is_empty(),
            "at least one vocabulary size required"
        );
        let tables = vocab_sizes
            .iter()
            .map(|&v| {
                assert!(v > 0, "vocabulary size must be non-zero");
                EmbeddingTable::new(v, max_width, rng)
            })
            .collect();
        Self { tables }
    }

    /// Bag lookup through the table of `vocab_choice` at `width`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_choice` is out of range or `width` invalid.
    pub fn lookup_bag(&self, batch: &[Vec<usize>], vocab_choice: usize, width: usize) -> Matrix {
        assert!(
            vocab_choice < self.tables.len(),
            "vocab choice out of range"
        );
        self.tables[vocab_choice].lookup_bag(batch, width)
    }

    /// Backward through the table of `vocab_choice`, for the ids and shape
    /// of a [`SharedEmbeddingBank::lookup_bag`].
    pub fn backward(
        &mut self,
        grad_out: &Matrix,
        batch: &[Vec<usize>],
        vocab_choice: usize,
        width: usize,
    ) {
        self.tables[vocab_choice].backward(grad_out, batch, width);
    }

    /// Sparse SGD on the rows that backward touched since the last call.
    pub fn apply_sparse_sgd(&mut self, lr: f32) {
        for table in &mut self.tables {
            table.apply_sparse_sgd(lr);
        }
    }

    /// Serialises every table in the bank, in vocabulary order.
    pub fn write_state(&self, w: &mut StateWriter) {
        for table in &self.tables {
            table.write_state(w);
        }
    }

    /// Restores state written by [`SharedEmbeddingBank::write_state`].
    ///
    /// # Errors
    ///
    /// Fails if any table's recorded shape does not match.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        for table in &mut self.tables {
            table.read_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn lookup_bag_sums_rows() {
        let t = EmbeddingTable::new(10, 4, &mut rng());
        let out = t.lookup_bag(&[vec![2, 2]], 4);
        let expected: Vec<f32> = t.weights.row(2).iter().map(|w| 2.0 * w).collect();
        for (o, e) in out.row(0).iter().zip(&expected) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_width_truncates_output() {
        let t = EmbeddingTable::new(10, 8, &mut rng());
        let out = t.lookup_bag(&[vec![0]], 3);
        assert_eq!(out.shape(), (1, 3));
        assert_eq!(out.row(0), &t.weights.row(0)[..3]);
    }

    #[test]
    fn oov_indices_hash_into_vocab() {
        let t = EmbeddingTable::new(4, 2, &mut rng());
        let a = t.lookup_bag(&[vec![1]], 2);
        let b = t.lookup_bag(&[vec![5]], 2); // 5 % 4 == 1
        assert_eq!(a, b);
    }

    #[test]
    fn backward_accumulates_only_touched_rows() {
        let mut t = EmbeddingTable::new(10, 4, &mut rng());
        let ids = [vec![3], vec![7]];
        let out = t.lookup_bag(&ids, 4);
        t.backward(&Matrix::full(out.rows(), out.cols(), 1.0), &ids, 4);
        assert_eq!(t.pending_grad_rows(), 2);
    }

    #[test]
    fn sparse_sgd_moves_weights_against_gradient() {
        let mut t = EmbeddingTable::new(5, 2, &mut rng());
        let before = t.weights.row(1).to_vec();
        let out = t.lookup_bag(&[vec![1]], 2);
        t.backward(&Matrix::full(out.rows(), out.cols(), 1.0), &[vec![1]], 2);
        t.apply_sparse_sgd(0.1);
        let after = t.weights.row(1);
        for (b, a) in before.iter().zip(after) {
            assert!((b - a - 0.1).abs() < 1e-6, "expected -0.1*grad step");
        }
        assert_eq!(t.pending_grad_rows(), 0);
    }

    /// Over steps of random bags (repeated and out-of-vocabulary ids, a
    /// new width each step), the table's weights match a reference that
    /// accumulates each touched row in its own zeroed max-width vector in
    /// batch order and steps the rows in row order, bit for bit; and the
    /// SGD step clears the gradient buffer without freeing it.
    #[test]
    fn sparse_sgd_matches_per_row_reference_and_reuses_its_buffer() {
        use std::collections::BTreeMap;
        let mut r = rng();
        let (vocab, max_width) = (12, 6);
        let mut t = EmbeddingTable::new(vocab, max_width, &mut r);
        let mut want = t.weights.clone();
        let mut capacity = 0;
        for step in 0..20 {
            let width = r.gen_range(1..=max_width);
            let ids: Vec<Vec<usize>> = (0..8)
                .map(|_| {
                    (0..r.gen_range(0..4))
                        .map(|_| r.gen_range(0..2 * vocab))
                        .collect()
                })
                .collect();
            let grad = Matrix::from_fn(ids.len(), width, |_, _| r.gen_range(-1.0..1.0));
            t.backward(&grad, &ids, width);
            let mut rows: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
            for (i, bag) in ids.iter().enumerate() {
                for &id in bag {
                    let acc = rows
                        .entry(id % vocab)
                        .or_insert_with(|| vec![0.0; max_width]);
                    for (a, &g) in acc[..width].iter_mut().zip(grad.row(i)) {
                        *a += g;
                    }
                }
            }
            assert_eq!(t.pending_grad_rows(), rows.len());
            t.apply_sparse_sgd(0.1);
            for (row, acc) in rows {
                for (w, g) in want.row_mut(row).iter_mut().zip(acc) {
                    *w -= 0.1 * g;
                }
            }
            assert_eq!(t.weights.as_slice(), want.as_slice(), "step {step}");
            assert_eq!(t.pending_grad_rows(), 0);
            assert!(
                t.grads.capacity() >= capacity,
                "the SGD step freed the buffer"
            );
            capacity = t.grads.capacity();
        }
        assert!(capacity > 0);
        assert!(t.position.iter().all(|&p| p == usize::MAX));
    }

    #[test]
    fn widths_share_leading_dimensions() {
        let t = EmbeddingTable::new(6, 8, &mut rng());
        let wide = t.lookup_bag(&[vec![2]], 8);
        let narrow = t.lookup_bag(&[vec![2]], 4);
        assert_eq!(&wide.row(0)[..4], narrow.row(0));
    }

    #[test]
    fn bank_isolates_vocab_candidates() {
        let mut bank = SharedEmbeddingBank::new(&[4, 8], 4, &mut rng());
        let untouched = bank.tables[1].weights.clone();
        let out = bank.lookup_bag(&[vec![1]], 0, 4);
        bank.backward(&Matrix::full(out.rows(), out.cols(), 1.0), &[vec![1]], 0, 4);
        assert_eq!(bank.tables[0].pending_grad_rows(), 1);
        // The other vocabulary size gets no gradient and keeps its weights.
        assert_eq!(bank.tables[1].pending_grad_rows(), 0);
        bank.apply_sparse_sgd(0.5);
        assert_eq!(bank.tables[1].weights, untouched);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_width() {
        let t = EmbeddingTable::new(4, 4, &mut rng());
        t.lookup_bag(&[vec![0]], 0);
    }
}
