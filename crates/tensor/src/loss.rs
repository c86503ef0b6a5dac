//! Loss functions with analytic gradients w.r.t. the logits/predictions.

use crate::Matrix;

/// Mean-squared error between predictions and targets.
///
/// Returns `(loss, grad)` where `grad` is `dL/dpred` (already divided by the
/// element count, so it can be fed straight into `backward`).
///
/// # Panics
///
/// Panics on shape mismatch.
///
/// # Examples
///
/// ```
/// use h2o_tensor::{loss, Matrix};
///
/// let pred = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let target = Matrix::from_rows(&[&[1.0, 0.0]]);
/// let (l, _g) = loss::mse(&pred, &target);
/// assert!((l - 2.0).abs() < 1e-6);
/// ```
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = (pred.rows() * pred.cols()) as f32;
    let diff = pred.sub(target);
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Binary cross-entropy with logits (the DLRM click-prediction loss).
///
/// `logits` is `(batch, 1)`, `labels` holds 0.0/1.0 per example. Uses the
/// numerically stable formulation
/// `max(z,0) - z*y + ln(1 + e^{-|z|})`.
///
/// Returns `(mean_loss, grad_wrt_logits)`.
///
/// # Panics
///
/// Panics if `logits.cols() != 1` or the label count mismatches.
pub fn bce_with_logits(logits: &Matrix, labels: &[f32]) -> (f32, Matrix) {
    let loss = bce_with_logits_loss(logits, labels);
    let n = labels.len() as f32;
    let mut grad = Matrix::zeros(logits.rows(), 1);
    for (i, &y) in labels.iter().enumerate() {
        let p = 1.0 / (1.0 + (-logits.get(i, 0)).exp());
        grad.set(i, 0, (p - y) / n);
    }
    (loss, grad)
}

/// The mean loss of [`bce_with_logits`] alone, bit for bit, without
/// building the gradient.
///
/// # Panics
///
/// Panics if `logits.cols() != 1` or the label count mismatches.
pub fn bce_with_logits_loss(logits: &Matrix, labels: &[f32]) -> f32 {
    assert_eq!(logits.cols(), 1, "bce expects a single logit column");
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let mut total = 0.0f32;
    for (i, &y) in labels.iter().enumerate() {
        let z = logits.get(i, 0);
        total += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
    }
    total / labels.len() as f32
}

/// Softmax cross-entropy over class logits.
///
/// `logits` is `(batch, classes)`, `labels` holds the true class index per
/// example. Returns `(mean_loss, grad_wrt_logits)`.
///
/// # Panics
///
/// Panics if the label count mismatches or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let n = labels.len() as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut exps = Vec::with_capacity(logits.cols());
    let mut total = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        let (sum, loss) = softmax_row(logits.row(i), label, &mut exps);
        total += loss;
        let g_row = grad.row_mut(i);
        for (c, g) in g_row.iter_mut().enumerate() {
            let p = exps[c] / sum;
            *g = (p - if c == label { 1.0 } else { 0.0 }) / n;
        }
    }
    (total / n, grad)
}

/// The mean loss of [`softmax_cross_entropy`] alone, bit for bit, without
/// building the gradient.
///
/// # Panics
///
/// Panics if the label count mismatches or a label is out of range.
pub fn softmax_cross_entropy_loss(logits: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let mut exps = Vec::with_capacity(logits.cols());
    let mut total = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        total += softmax_row(logits.row(i), label, &mut exps).1;
    }
    total / labels.len() as f32
}

/// One row of softmax cross-entropy: fills `exps` with `e^(z − max)` and
/// returns their sum and the row's loss `−ln(exps[label] / sum)`.
///
/// # Panics
///
/// Panics if `label` is out of range.
fn softmax_row(row: &[f32], label: usize, exps: &mut Vec<f32>) -> (f32, f32) {
    let classes = row.len();
    assert!(
        label < classes,
        "label {label} out of range for {classes} classes"
    );
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    exps.clear();
    exps.extend(row.iter().map(|&z| (z - max).exp()));
    let sum: f32 = exps.iter().sum();
    (sum, -(exps[label] / sum).ln())
}

/// Binary-classification AUC (area under the ROC curve) — the DLRM quality
/// metric used to compare architectures.
///
/// Returns 0.5 for degenerate inputs (all-positive or all-negative labels).
///
/// # Panics
///
/// Panics if the score/label lengths mismatch.
pub fn auc(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "auc length mismatch");
    let mut paired: Vec<(f32, f32)> = scores.iter().cloned().zip(labels.iter().cloned()).collect();
    // total_cmp, not partial_cmp().unwrap_or(Equal): "NaN equals everything"
    // is not transitive, so a NaN score could leave the slice mis-sorted and
    // corrupt every rank below it. Under total order NaN sorts above +inf —
    // deterministically, whatever the input permutation.
    paired.sort_by(|a, b| a.0.total_cmp(&b.0));
    let positives = labels.iter().filter(|&&l| l > 0.5).count() as f64;
    let negatives = labels.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return 0.5;
    }
    // Rank-sum (Mann-Whitney U) formulation with tie handling via average rank.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < paired.len() {
        let mut j = i;
        while j + 1 < paired.len() && paired[j + 1].0 == paired[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for item in paired.iter().take(j + 1).skip(i) {
            if item.1 > 0.5 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum_pos - positives * (positives + 1.0) / 2.0) / (positives * negatives)
}

/// Normalized root-mean-square error, the metric Table 1 of the paper uses
/// to report performance-model quality. Normalized by the mean of the
/// targets.
///
/// # Panics
///
/// Panics if lengths mismatch, the input is empty, or the target mean is 0.
pub fn nrmse(pred: &[f64], target: &[f64]) -> f64 {
    assert_eq!(pred.len(), target.len(), "nrmse length mismatch");
    assert!(!pred.is_empty(), "nrmse of empty slice");
    let mean_t = target.iter().sum::<f64>() / target.len() as f64;
    assert!(mean_t.abs() > f64::EPSILON, "nrmse target mean is zero");
    let mse = pred
        .iter()
        .zip(target)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64;
    mse.sqrt() / mean_t.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_exact_match() {
        let p = Matrix::from_rows(&[&[1.0, 2.0]]);
        let (l, g) = mse(&p, &p);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let p = Matrix::from_rows(&[&[1.0, 3.0]]);
        let t = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (_, g) = mse(&p, &t);
        let eps = 1e-3;
        let p2 = Matrix::from_rows(&[&[1.0 + eps, 3.0]]);
        let (l2, _) = mse(&p2, &t);
        let p3 = Matrix::from_rows(&[&[1.0 - eps, 3.0]]);
        let (l3, _) = mse(&p3, &t);
        let numeric = (l2 - l3) / (2.0 * eps);
        assert!((g.get(0, 0) - numeric).abs() < 1e-2);
    }

    #[test]
    fn bce_perfect_confidence_near_zero_loss() {
        let logits = Matrix::from_rows(&[&[20.0], &[-20.0]]);
        let (l, _) = bce_with_logits(&logits, &[1.0, 0.0]);
        assert!(l < 1e-6);
    }

    #[test]
    fn bce_wrong_confidence_large_loss() {
        let logits = Matrix::from_rows(&[&[20.0]]);
        let (l, _) = bce_with_logits(&logits, &[0.0]);
        assert!(l > 19.0);
    }

    #[test]
    fn bce_gradient_is_probability_minus_label() {
        let logits = Matrix::from_rows(&[&[0.0]]);
        let (_, g) = bce_with_logits(&logits, &[1.0]);
        assert!((g.get(0, 0) - (0.5 - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn softmax_xent_uniform_logits() {
        let logits = Matrix::zeros(1, 4);
        let (l, _) = softmax_cross_entropy(&logits, &[2]);
        assert!((l - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn softmax_xent_gradient_sums_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let (_, g) = softmax_cross_entropy(&logits, &[0]);
        let sum: f32 = g.row(0).iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    fn auc_perfect_separation_is_one() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert!((auc(&scores, &labels) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auc_inverted_is_zero() {
        let scores = [0.9, 0.8, 0.1, 0.2];
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert!(auc(&scores, &labels) < 1e-9);
    }

    #[test]
    fn auc_with_nan_score_is_finite_and_permutation_invariant() {
        // Regression: partial_cmp().unwrap_or(Equal) made "NaN == everything",
        // a non-transitive comparator — sort produced an order-dependent
        // arrangement and the rank sums drifted with the input permutation.
        // Under total_cmp the NaN ranks above +inf deterministically.
        let scores = [0.1, f32::NAN, 0.8, 0.9, 0.3, 0.2];
        let labels = [0.0, 1.0, 1.0, 1.0, 0.0, 0.0];
        let base = auc(&scores, &labels);
        assert!(base.is_finite(), "AUC with a NaN score must stay finite");
        assert!((0.0..=1.0).contains(&base), "AUC out of range: {base}");
        // Every rotation of the same pairs must agree exactly.
        for shift in 1..scores.len() {
            let mut s = scores.to_vec();
            let mut l = labels.to_vec();
            s.rotate_left(shift);
            l.rotate_left(shift);
            let rotated = auc(&s, &l);
            assert_eq!(
                base.to_bits(),
                rotated.to_bits(),
                "AUC changed under rotation {shift}: {base} vs {rotated}"
            );
        }
        // The NaN ranks above every finite score, so it credits its
        // (positive) label with the top rank: 6 + 5 + 4 ranks for the three
        // positives => AUC (15 - 6) / 9 = 1.0 here.
        assert!((base - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auc_random_ties_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [0.0, 1.0, 0.0, 1.0];
        assert!((auc(&scores, &labels) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn auc_degenerate_labels_is_half() {
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn nrmse_zero_for_exact() {
        assert_eq!(nrmse(&[2.0, 4.0], &[2.0, 4.0]), 0.0);
    }

    #[test]
    fn nrmse_scale_invariant() {
        let a = nrmse(&[1.1, 2.2], &[1.0, 2.0]);
        let b = nrmse(&[11.0, 22.0], &[10.0, 20.0]);
        assert!((a - b).abs() < 1e-9);
    }
}
