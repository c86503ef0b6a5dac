//! Embedding tables with the weight-sharing semantics of the H2O-NAS DLRM
//! super-network (§5.1.2, Fig. 3 of the paper).
//!
//! * **Width sharing (fine-grained, ① in Fig. 3):** one embedding vector per
//!   row at the *largest* searchable width; a candidate with width `D` uses
//!   the first `D` entries and masks the rest.
//! * **Vocabulary sharing (coarse-grained, ② in Fig. 3):** each vocabulary
//!   size is a *separate* table to avoid harmful interference between
//!   candidates — see [`SharedEmbeddingBank`].

use crate::state::{StateError, StateReader, StateWriter};
use crate::Matrix;
use rand::Rng;
use std::collections::BTreeMap;

/// A single embedding table with a searchable (masked) width.
///
/// # Examples
///
/// ```
/// use h2o_tensor::EmbeddingTable;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut table = EmbeddingTable::new(100, 16, &mut rng);
/// table.set_active_width(8);
/// let out = table.lookup_bag(&[vec![1, 5], vec![7]]);
/// assert_eq!(out.shape(), (2, 8));
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    weights: Matrix,
    active_width: usize,
    grad_rows: BTreeMap<usize, Vec<f32>>,
    cached_batch: Option<Vec<Vec<usize>>>,
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
            active_width: max_width,
            grad_rows: BTreeMap::new(),
            cached_batch: None,
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

    /// Currently active width.
    pub fn active_width(&self) -> usize {
        self.active_width
    }

    /// Masks the table to the first `width` embedding dimensions
    /// (fine-grained weight sharing).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the allocated width.
    pub fn set_active_width(&mut self, width: usize) {
        assert!(
            width >= 1 && width <= self.weights.cols(),
            "width {width} out of range"
        );
        self.active_width = width;
    }

    /// Sum-pools the embeddings of each example's indices ("bag" lookup, as
    /// in DLRM sparse features). Returns a `(batch, active_width)` matrix and
    /// caches the batch for [`EmbeddingTable::backward`].
    ///
    /// Out-of-vocabulary indices are mapped to row `index % vocab`, the usual
    /// hashing-trick behaviour of production DLRM pipelines.
    pub fn lookup_bag(&mut self, batch: &[Vec<usize>]) -> Matrix {
        let width = self.active_width;
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
        self.cached_batch = Some(batch.to_vec());
        out
    }

    /// Accumulates sparse gradients for the rows touched by the last lookup.
    ///
    /// # Panics
    ///
    /// Panics if called before [`EmbeddingTable::lookup_bag`] or if
    /// `grad_out` has the wrong shape.
    pub fn backward(&mut self, grad_out: &Matrix) {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` training-order contract"
        )]
        let batch = self
            .cached_batch
            .as_ref()
            .expect("backward before lookup_bag");
        assert_eq!(grad_out.rows(), batch.len().max(1), "grad rows mismatch");
        assert_eq!(grad_out.cols(), self.active_width, "grad cols mismatch");
        for (i, indices) in batch.iter().enumerate() {
            let g_row = grad_out.row(i);
            for &idx in indices {
                let idx = idx % self.weights.rows();
                let entry = self
                    .grad_rows
                    .entry(idx)
                    .or_insert_with(|| vec![0.0; self.weights.cols()]);
                for (g, &d) in entry[..self.active_width].iter_mut().zip(g_row) {
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
        for (&row, grad) in &self.grad_rows {
            let w_row = self.weights.row_mut(row);
            for (w, &g) in w_row.iter_mut().zip(grad.iter()) {
                *w -= lr * g;
            }
        }
        self.grad_rows.clear();
    }

    /// Number of rows with pending gradients (used by tests/metrics).
    pub fn pending_grad_rows(&self) -> usize {
        self.grad_rows.len()
    }

    /// Parameter count at the active width.
    pub fn active_param_count(&self) -> usize {
        self.weights.rows() * self.active_width
    }

    /// Serialises the full embedding matrix for checkpointing. Pending
    /// sparse gradients and the active width are transient per-step state
    /// and are not written (checkpoints are taken at step boundaries, where
    /// gradients have been applied and cleared).
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
    vocab_sizes: Vec<usize>,
    active_table: usize,
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
        Self {
            tables,
            vocab_sizes: vocab_sizes.to_vec(),
            active_table: 0,
        }
    }

    /// The vocabulary-size candidates.
    pub fn vocab_sizes(&self) -> &[usize] {
        &self.vocab_sizes
    }

    /// Selects the active `(vocab_choice, width)` for a sampled candidate.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_choice` is out of range or `width` invalid.
    pub fn set_active(&mut self, vocab_choice: usize, width: usize) {
        assert!(
            vocab_choice < self.tables.len(),
            "vocab choice out of range"
        );
        self.active_table = vocab_choice;
        self.tables[vocab_choice].set_active_width(width);
    }

    /// The currently selected table.
    pub fn active(&self) -> &EmbeddingTable {
        &self.tables[self.active_table]
    }

    /// Bag lookup through the active table.
    pub fn lookup_bag(&mut self, batch: &[Vec<usize>]) -> Matrix {
        self.tables[self.active_table].lookup_bag(batch)
    }

    /// Backward through the active table.
    pub fn backward(&mut self, grad_out: &Matrix) {
        self.tables[self.active_table].backward(grad_out);
    }

    /// Sparse SGD on the active table.
    pub fn apply_sparse_sgd(&mut self, lr: f32) {
        self.tables[self.active_table].apply_sparse_sgd(lr);
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
        let mut t = EmbeddingTable::new(10, 4, &mut rng());
        let out = t.lookup_bag(&[vec![2, 2]]);
        let expected: Vec<f32> = t.weights.row(2).iter().map(|w| 2.0 * w).collect();
        for (o, e) in out.row(0).iter().zip(&expected) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_width_truncates_output() {
        let mut t = EmbeddingTable::new(10, 8, &mut rng());
        t.set_active_width(3);
        let out = t.lookup_bag(&[vec![0]]);
        assert_eq!(out.shape(), (1, 3));
        assert_eq!(out.row(0), &t.weights.row(0)[..3]);
    }

    #[test]
    fn oov_indices_hash_into_vocab() {
        let mut t = EmbeddingTable::new(4, 2, &mut rng());
        let a = t.lookup_bag(&[vec![1]]);
        let b = t.lookup_bag(&[vec![5]]); // 5 % 4 == 1
        assert_eq!(a, b);
    }

    #[test]
    fn backward_accumulates_only_touched_rows() {
        let mut t = EmbeddingTable::new(10, 4, &mut rng());
        let out = t.lookup_bag(&[vec![3], vec![7]]);
        t.backward(&Matrix::full(out.rows(), out.cols(), 1.0));
        assert_eq!(t.pending_grad_rows(), 2);
    }

    #[test]
    fn sparse_sgd_moves_weights_against_gradient() {
        let mut t = EmbeddingTable::new(5, 2, &mut rng());
        let before = t.weights.row(1).to_vec();
        let out = t.lookup_bag(&[vec![1]]);
        t.backward(&Matrix::full(out.rows(), out.cols(), 1.0));
        t.apply_sparse_sgd(0.1);
        let after = t.weights.row(1);
        for (b, a) in before.iter().zip(after) {
            assert!((b - a - 0.1).abs() < 1e-6, "expected -0.1*grad step");
        }
        assert_eq!(t.pending_grad_rows(), 0);
    }

    #[test]
    fn widths_share_leading_dimensions() {
        let mut t = EmbeddingTable::new(6, 8, &mut rng());
        t.set_active_width(8);
        let wide = t.lookup_bag(&[vec![2]]);
        t.set_active_width(4);
        let narrow = t.lookup_bag(&[vec![2]]);
        assert_eq!(&wide.row(0)[..4], narrow.row(0));
    }

    #[test]
    fn bank_isolates_vocab_candidates() {
        let mut bank = SharedEmbeddingBank::new(&[4, 8], 4, &mut rng());
        bank.set_active(0, 4);
        let out = bank.lookup_bag(&[vec![1]]);
        bank.backward(&Matrix::full(out.rows(), out.cols(), 1.0));
        bank.apply_sparse_sgd(0.5);
        // Switching to the other vocabulary size must see untouched weights.
        bank.set_active(1, 4);
        assert_eq!(bank.active().pending_grad_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_width() {
        let mut t = EmbeddingTable::new(4, 4, &mut rng());
        t.set_active_width(0);
    }

    #[test]
    fn active_param_count_tracks_width() {
        let mut t = EmbeddingTable::new(100, 16, &mut rng());
        t.set_active_width(8);
        assert_eq!(t.active_param_count(), 800);
    }
}
