//! The two-phase (pretrain + finetune) MLP performance model (§6.2,
//! Table 1).
//!
//! * **Pre-training** regresses simulator-produced performance numbers for
//!   a large sample of architectures (the paper uses ~1 M) onto the
//!   normalised architecture features, learning the non-convex performance
//!   landscape.
//! * **Fine-tuning** absorbs the systematic sim-to-real gap from only
//!   ~20 deployed-hardware measurements, via a closed-form log-space
//!   calibration per head followed by a few low-learning-rate gradient
//!   epochs — reducing NRMSE against production by ~10× (Table 1).
//!
//! The model has **dual heads** (training and serving performance for the
//! same architecture) and works in log-time space: performance spans
//! orders of magnitude, and the dominant real-hardware distortions are
//! multiplicative, hence *linear* in log space and learnable from a
//! handful of points.

use h2o_tensor::{loss::nrmse, Activation, Matrix, Mlp, OptimConfig};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// Which head of the dual-headed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Training step time (seconds).
    Training,
    /// Serving latency (seconds).
    Serving,
}

impl Head {
    const ALL: [Head; 2] = [Head::Training, Head::Serving];

    fn index(self) -> usize {
        match self {
            Head::Training => 0,
            Head::Serving => 1,
        }
    }
}

/// One performance observation for both heads, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfTargets {
    /// Training step time.
    pub training: f64,
    /// Serving latency.
    pub serving: f64,
}

impl PerfTargets {
    fn get(&self, head: Head) -> f64 {
        match head {
            Head::Training => self.training,
            Head::Serving => self.serving,
        }
    }
}

/// A prediction from the model, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPrediction {
    /// Predicted training step time.
    pub training: f64,
    /// Predicted serving latency.
    pub serving: f64,
}

/// What [`PerfModel::infer_one`] returns: the calibrated prediction plus
/// the novelty score the model-served evaluation gate consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPrediction {
    /// Calibrated dual-head prediction, in seconds.
    pub prediction: PerfPrediction,
    /// Extrapolation score: the max over both heads of `|z|`, where `z` is
    /// the network's raw output in z-scored log-target space. Candidates
    /// near the pretraining distribution predict inside the fitted target
    /// spread (`|z|` ≲ 1–2); out-of-distribution candidates extrapolate
    /// and push `|z|` far outside it. A pure function of the feature
    /// vector and the current weights — no clocks, no RNG.
    pub novelty: f64,
}

/// Training hyper-parameters for either phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl TrainConfig {
    /// Defaults for the pre-training phase.
    pub fn pretrain() -> Self {
        Self {
            epochs: 30,
            batch_size: 256,
            lr: 1e-3,
        }
    }

    /// Defaults for the fine-tuning phase (few points, gentle steps).
    pub fn finetune() -> Self {
        Self {
            epochs: 200,
            batch_size: 8,
            lr: 1e-4,
        }
    }
}

/// The MLP performance model (the paper's default is 2 layers × 512
/// neurons, Table 1).
///
/// # Examples
///
/// ```
/// use h2o_perfmodel::{PerfModel, PerfTargets, TrainConfig};
///
/// let mut model = PerfModel::new(4, &[64, 64], 0);
/// let xs = vec![vec![0.0, 0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0, 1.0]];
/// let ys = vec![
///     PerfTargets { training: 0.01, serving: 0.001 },
///     PerfTargets { training: 0.04, serving: 0.004 },
/// ];
/// model.pretrain(&xs, &ys, TrainConfig { epochs: 50, batch_size: 2, lr: 1e-3 });
/// let p = model.predict(&xs[0]);
/// assert!(p.training > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    net: Mlp,
    /// z-score normalisation of log-targets, per head.
    target_mean: [f64; 2],
    target_std: [f64; 2],
    /// Post-finetune linear calibration in log space, per head:
    /// `log_t_prod = a · log_t_sim + b`.
    calibration: [(f64, f64); 2],
    rng: StdRng,
}

impl PerfModel {
    /// Creates an untrained model with the given hidden widths.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut widths = Vec::with_capacity(hidden.len() + 2);
        widths.push(input_dim);
        widths.extend_from_slice(hidden);
        widths.push(2); // dual heads
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&widths, Activation::Relu, OptimConfig::adam(1e-3), &mut rng);
        Self {
            net,
            target_mean: [0.0; 2],
            target_std: [1.0; 2],
            calibration: [(1.0, 0.0); 2],
            rng,
        }
    }

    fn to_z(&self, head: Head, seconds: f64) -> f32 {
        ((seconds.max(1e-12).ln() - self.target_mean[head.index()]) / self.target_std[head.index()])
            as f32
    }

    /// Both heads' z-scored log-time outputs from one network forward.
    fn forward(&self, features: &[f32]) -> [f64; 2] {
        let x = Matrix::from_vec(1, features.len(), features.to_vec());
        let out = self.net.infer(&x);
        Head::ALL.map(|head| out.get(0, head.index()) as f64)
    }

    /// Un-z-scores one head's network output into an uncalibrated log time.
    fn log_time(&self, head: Head, z: f64) -> f64 {
        z * self.target_std[head.index()] + self.target_mean[head.index()]
    }

    /// Predicts both heads for a feature vector, applying the fine-tune
    /// calibration if one has been fitted: [`PerfModel::infer_one`]'s
    /// prediction, counted and timed in the metrics registry.
    pub fn predict(&self, features: &[f32]) -> PerfPrediction {
        let infer_span = h2o_obs::span("perfmodel_infer");
        h2o_obs::counter("h2o_perfmodel_inferences_total").inc();
        let prediction = self.infer_one(features).prediction;
        h2o_obs::histogram("h2o_perfmodel_infer_seconds").record(infer_span.finish());
        prediction
    }

    /// One network forward for both heads: the calibrated prediction plus
    /// the novelty score the model-served evaluation gate consumes. No
    /// instrumentation: the model-served eval path calls this once per
    /// candidate, where the span plus registry lookups cost about as much
    /// as the forward itself at small hidden widths; callers on that path
    /// keep their own served/fallback counters.
    ///
    /// # Panics
    ///
    /// Panics if `features` mismatches the input width.
    pub fn infer_one(&self, features: &[f32]) -> BatchPrediction {
        let z = self.forward(features);
        let mut seconds = [0.0f64; 2];
        let mut novelty = 0.0f64;
        for head in Head::ALL {
            let z = z[head.index()];
            novelty = novelty.max(z.abs());
            let log_sim = self.log_time(head, z);
            let (a, b) = self.calibration[head.index()];
            seconds[head.index()] = (a * log_sim + b).exp();
        }
        BatchPrediction {
            prediction: PerfPrediction {
                training: seconds[0],
                serving: seconds[1],
            },
            novelty,
        }
    }

    /// Phase 1: regresses simulator targets. Returns the final epoch's mean
    /// training loss (z-scored log-space MSE).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or lengths mismatch.
    pub fn pretrain(&mut self, xs: &[Vec<f32>], ys: &[PerfTargets], cfg: TrainConfig) -> f32 {
        let _span = h2o_obs::span("perfmodel_pretrain");
        assert!(!xs.is_empty(), "pretraining data must be non-empty");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        // Fit the log-space normaliser.
        for head in Head::ALL {
            let logs: Vec<f64> = ys.iter().map(|y| y.get(head).max(1e-12).ln()).collect();
            let mean = logs.iter().sum::<f64>() / logs.len() as f64;
            let var = logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / logs.len() as f64;
            self.target_mean[head.index()] = mean;
            self.target_std[head.index()] = var.sqrt().max(1e-6);
        }
        self.train_regression(xs, ys, cfg)
    }

    fn train_regression(&mut self, xs: &[Vec<f32>], ys: &[PerfTargets], cfg: TrainConfig) -> f32 {
        let dim = xs[0].len();
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut last_epoch_loss = 0.0f32;
        let epoch_seconds = h2o_obs::histogram("h2o_perfmodel_train_epoch_seconds");
        let epochs_total = h2o_obs::counter("h2o_perfmodel_train_epochs_total");
        // The Mlp owns an Adam(1e-3) optimizer; per-phase learning rates are
        // honoured by scaling the loss gradient (equivalent for Adam up to
        // its second-moment normalisation, and gentle enough for finetune).
        let lr_scale = cfg.lr / 1e-3;
        for _ in 0..cfg.epochs {
            // The clock read lives inside `Histogram::time` (the obs crate
            // is the one place allowed to touch wall time).
            let (order_out, loss) = epoch_seconds.time(|| {
                let mut order = std::mem::take(&mut order);
                order.shuffle(&mut self.rng);
                let mut epoch_loss = 0.0f32;
                let mut batches = 0;
                for chunk in order.chunks(cfg.batch_size.max(1)) {
                    let mut x = Matrix::zeros(chunk.len(), dim);
                    let mut t = Matrix::zeros(chunk.len(), 2);
                    for (r, &i) in chunk.iter().enumerate() {
                        x.row_mut(r).copy_from_slice(&xs[i]);
                        t.set(r, 0, self.to_z(Head::Training, ys[i].training));
                        t.set(r, 1, self.to_z(Head::Serving, ys[i].serving));
                    }
                    let tape = self.net.forward(&x);
                    let (l, grad) = h2o_tensor::loss::mse(tape.output(), &t);
                    self.net.backward_and_step(&x, &tape, &grad.scale(lr_scale));
                    epoch_loss += l;
                    batches += 1;
                }
                (order, epoch_loss / batches.max(1) as f32)
            });
            order = order_out;
            last_epoch_loss = loss;
            epochs_total.inc();
        }
        last_epoch_loss
    }

    /// Phase 2: fine-tunes on O(20) deployed-hardware measurements.
    ///
    /// Fits a closed-form least-squares calibration per head in log space
    /// (capturing the systematic multiplicative sim-to-real gap), then runs
    /// a few gentle gradient epochs for residual structure.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 measurements are provided.
    pub fn finetune(&mut self, xs: &[Vec<f32>], ys: &[PerfTargets], cfg: TrainConfig) {
        let _span = h2o_obs::span("perfmodel_finetune");
        assert!(xs.len() >= 2, "fine-tuning needs at least two measurements");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        // One forward per measurement serves both heads' fits.
        let zs: Vec<[f64; 2]> = xs.iter().map(|x| self.forward(x)).collect();
        for head in Head::ALL {
            // Least squares of log(measured) on log(pretrained prediction).
            let sims: Vec<f64> = zs
                .iter()
                .map(|z| self.log_time(head, z[head.index()]))
                .collect();
            let prods: Vec<f64> = ys.iter().map(|y| y.get(head).max(1e-12).ln()).collect();
            let n = sims.len() as f64;
            let mean_s = sims.iter().sum::<f64>() / n;
            let mean_p = prods.iter().sum::<f64>() / n;
            let cov: f64 = sims
                .iter()
                .zip(&prods)
                .map(|(s, p)| (s - mean_s) * (p - mean_p))
                .sum();
            let var: f64 = sims.iter().map(|s| (s - mean_s) * (s - mean_s)).sum();
            let a = if var > 1e-12 { cov / var } else { 1.0 };
            let b = mean_p - a * mean_s;
            self.calibration[head.index()] = (a, b);
        }
        // Residual gradient refinement on calibrated targets: invert the
        // calibration so the network learns what the calibration cannot.
        let inverted: Vec<PerfTargets> = ys
            .iter()
            .map(|y| {
                let inv = |head: Head, v: f64| {
                    let (a, b) = self.calibration[head.index()];
                    if a.abs() > 1e-9 {
                        ((v.max(1e-12).ln() - b) / a).exp()
                    } else {
                        v
                    }
                };
                PerfTargets {
                    training: inv(Head::Training, y.training),
                    serving: inv(Head::Serving, y.serving),
                }
            })
            .collect();
        self.train_regression(xs, &inverted, cfg);
    }

    /// NRMSE of predictions against targets, per head — the Table 1 metric.
    pub fn evaluate_nrmse(&self, xs: &[Vec<f32>], ys: &[PerfTargets]) -> PerfTargets {
        let preds: Vec<PerfPrediction> = xs.iter().map(|x| self.predict(x)).collect();
        let t_pred: Vec<f64> = preds.iter().map(|p| p.training).collect();
        let t_true: Vec<f64> = ys.iter().map(|y| y.training).collect();
        let s_pred: Vec<f64> = preds.iter().map(|p| p.serving).collect();
        let s_true: Vec<f64> = ys.iter().map(|y| y.serving).collect();
        PerfTargets {
            training: nrmse(&t_pred, &t_true),
            serving: nrmse(&s_pred, &s_true),
        }
    }

    /// Samples `count` of `pool` indices without replacement, seeded — for
    /// picking the O(20) fine-tuning candidates from the pretraining pool
    /// (§6.2.2).
    pub fn choose_finetune_indices_seeded(pool: usize, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..pool).collect();
        indices.shuffle(&mut rng);
        indices.truncate(count);
        indices
    }

    /// Uniform-random feature vectors (for smoke tests / synthetic pools).
    pub fn random_features(&mut self, dim: usize, count: usize) -> Vec<Vec<f32>> {
        (0..count)
            .map(|_| (0..dim).map(|_| self.rng.gen_range(0.0..1.0)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "simulator": time = exp(2x₀ + x₁), serving = half of it.
    fn synth_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<PerfTargets>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f32> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
            let t = (2.0 * x[0] as f64 + x[1] as f64).exp() * 1e-3;
            xs.push(x);
            ys.push(PerfTargets {
                training: t,
                serving: t * 0.5,
            });
        }
        (xs, ys)
    }

    #[test]
    fn pretrain_fits_smooth_function() {
        let (xs, ys) = synth_data(500, 1);
        let mut model = PerfModel::new(4, &[64, 64], 0);
        model.pretrain(
            &xs,
            &ys,
            TrainConfig {
                epochs: 60,
                batch_size: 64,
                lr: 1e-3,
            },
        );
        let (xt, yt) = synth_data(100, 2);
        let err = model.evaluate_nrmse(&xt, &yt);
        assert!(err.training < 0.05, "training NRMSE {}", err.training);
        assert!(err.serving < 0.05, "serving NRMSE {}", err.serving);
    }

    #[test]
    fn finetune_absorbs_systematic_bias() {
        let (xs, ys) = synth_data(500, 3);
        let mut model = PerfModel::new(4, &[64, 64], 0);
        model.pretrain(
            &xs,
            &ys,
            TrainConfig {
                epochs: 60,
                batch_size: 64,
                lr: 1e-3,
            },
        );
        // "Production" runs 1.4x slower with a +20% exponent skew.
        let biased = |y: &PerfTargets| PerfTargets {
            training: 1.4 * y.training.powf(1.05),
            serving: 1.4 * y.serving.powf(1.05),
        };
        let (fx, fy_raw) = synth_data(20, 4);
        let fy: Vec<PerfTargets> = fy_raw.iter().map(biased).collect();
        let (tx, ty_raw) = synth_data(100, 5);
        let ty: Vec<PerfTargets> = ty_raw.iter().map(biased).collect();
        let before = model.evaluate_nrmse(&tx, &ty);
        model.finetune(
            &fx,
            &fy,
            TrainConfig {
                epochs: 50,
                batch_size: 8,
                lr: 1e-4,
            },
        );
        let after = model.evaluate_nrmse(&tx, &ty);
        assert!(
            after.training < before.training / 3.0,
            "finetune should slash NRMSE: {} -> {}",
            before.training,
            after.training
        );
        assert!(after.training < 0.08, "absolute NRMSE {}", after.training);
    }

    #[test]
    fn predictions_are_positive() {
        let mut model = PerfModel::new(3, &[16], 7);
        let x = model.random_features(3, 1).pop().unwrap();
        let p = model.predict(&x);
        assert!(p.training > 0.0 && p.serving > 0.0);
    }

    #[test]
    fn novelty_scores_flag_out_of_distribution_candidates() {
        let (xs, ys) = synth_data(400, 23);
        let mut model = PerfModel::new(4, &[32, 32], 0);
        model.pretrain(
            &xs,
            &ys,
            TrainConfig {
                epochs: 40,
                batch_size: 64,
                lr: 1e-3,
            },
        );
        // In-distribution points predict inside the fitted z-spread;
        // features far outside the [0, 1) training box extrapolate the
        // network's linear tails and blow the |z| score out.
        let (in_dist, _) = synth_data(20, 24);
        let out_dist: Vec<Vec<f32>> = vec![vec![60.0; 4], vec![-40.0; 4]];
        let in_scores: Vec<_> = in_dist.iter().map(|x| model.infer_one(x)).collect();
        let out_scores: Vec<_> = out_dist.iter().map(|x| model.infer_one(x)).collect();
        let max_in = in_scores.iter().map(|r| r.novelty).fold(0.0, f64::max);
        let min_out = out_scores
            .iter()
            .map(|r| r.novelty)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_out > max_in,
            "out-of-distribution novelty {min_out} must exceed in-distribution {max_in}"
        );
        assert!(in_scores.iter().all(|r| r.novelty.is_finite()));
    }

    #[test]
    fn choose_finetune_indices_unique_and_bounded() {
        let idx = PerfModel::choose_finetune_indices_seeded(100, 20, 9);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pretrain_panics() {
        let mut model = PerfModel::new(2, &[8], 0);
        model.pretrain(&[], &[], TrainConfig::pretrain());
    }

    #[test]
    fn dual_heads_are_independent() {
        let (xs, mut ys) = synth_data(300, 11);
        // Make serving depend on a *different* feature than training.
        for (x, y) in xs.iter().zip(&mut ys) {
            y.serving = (3.0 * x[2] as f64).exp() * 1e-4;
        }
        let mut model = PerfModel::new(4, &[64, 64], 0);
        model.pretrain(
            &xs,
            &ys,
            TrainConfig {
                epochs: 80,
                batch_size: 64,
                lr: 1e-3,
            },
        );
        let err = model.evaluate_nrmse(&xs, &ys);
        assert!(
            err.serving < 0.1,
            "serving head must fit its own target: {}",
            err.serving
        );
    }
}
