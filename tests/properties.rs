//! Property-based tests (proptest) on the core invariants of the system.

use h2o_nas::core::pareto::{pareto_front, ParetoPoint};
use h2o_nas::core::{PerfObjective, Policy, RewardFn, RewardKind};
use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, TrafficSource, VisionTraffic};
use h2o_nas::exec::Executor;
use h2o_nas::graph::{DType, Graph, OpKind};
use h2o_nas::hwsim::{roofline::time_op, HardwareConfig};
use h2o_nas::space::{
    CnnSpace, CnnSpaceConfig, Decision, DlrmSpace, DlrmSpaceConfig, DlrmSupernet, SearchSpace,
    VisionSupernet, VisionSupernetConfig,
};
use h2o_nas::tensor::{loss, Activation, MaskedDense, Matrix, StateWriter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The policy as it was before the cached softmax table: nested logits, a
/// fresh softmax on every read, and an update that still carried a
/// zero-weight entropy term. `Policy` must match it bit for bit.
struct ReferencePolicy {
    logits: Vec<Vec<f64>>,
}

impl ReferencePolicy {
    fn probs(&self, decision: usize) -> Vec<f64> {
        let logits = &self.logits[decision];
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        (0..self.logits.len())
            .map(|d| {
                let probs = self.probs(d);
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for (c, p) in probs.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        return c;
                    }
                }
                probs.len() - 1
            })
            .collect()
    }

    fn mean_entropy(&self) -> f64 {
        let total: f64 = (0..self.logits.len())
            .map(|d| {
                -self
                    .probs(d)
                    .iter()
                    .map(|p| p * p.max(1e-300).ln())
                    .sum::<f64>()
            })
            .sum();
        total / self.logits.len().max(1) as f64
    }

    fn reinforce_update(&mut self, batch: &[(Vec<usize>, f64)], lr: f64) {
        let entropy_weight = 0.0;
        for (sample, advantage) in batch {
            for (d, &chosen) in sample.iter().enumerate() {
                let probs = self.probs(d);
                let entropy: f64 = -probs.iter().map(|p| p * p.max(1e-300).ln()).sum::<f64>();
                for (c, logit) in self.logits[d].iter_mut().enumerate() {
                    let indicator = if c == chosen { 1.0 } else { 0.0 };
                    let policy_grad = advantage * (indicator - probs[c]);
                    let entropy_grad = -probs[c] * (probs[c].max(1e-300).ln() + entropy);
                    *logit += lr * (policy_grad + entropy_weight * entropy_grad);
                }
            }
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `Some(what differs)` unless the two policies agree bit for bit on
/// logits, probabilities, entropy and the samples drawn from `seed`.
fn bitwise_mismatch(policy: &Policy, reference: &ReferencePolicy, seed: u64) -> Option<String> {
    if policy.num_decisions() != reference.logits.len() {
        return Some("decision count".into());
    }
    for (d, (row, want)) in policy.logits().zip(&reference.logits).enumerate() {
        if bits(row) != bits(want) {
            return Some(format!("logits of decision {d}: {row:?} vs {want:?}"));
        }
        if bits(policy.probs(d)) != bits(&reference.probs(d)) {
            return Some(format!("probs of decision {d}"));
        }
    }
    if policy.mean_entropy().to_bits() != reference.mean_entropy().to_bits() {
        return Some("mean entropy".into());
    }
    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    for _ in 0..4 {
        if policy.sample(&mut a) != reference.sample(&mut b) {
            return Some(format!("samples drawn from seed {seed}"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Policy probabilities stay a distribution under arbitrary REINFORCE
    /// updates.
    #[test]
    fn policy_probs_remain_normalised(
        advantages in prop::collection::vec(-5.0f64..5.0, 1..10),
        choices in 2usize..8,
    ) {
        let mut space = SearchSpace::new("p");
        space.push(Decision::new("d", choices));
        let mut policy = Policy::uniform(&space);
        let mut rng = StdRng::seed_from_u64(1);
        for adv in advantages {
            let sample = policy.sample(&mut rng);
            policy.reinforce_update(&[(sample, adv)], 0.2);
            let probs = policy.probs(0);
            let sum: f64 = probs.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(probs.iter().all(|p| *p >= 0.0));
        }
    }

    /// The cached softmax table changes no bit of the search: after every
    /// REINFORCE step the logits, probabilities, entropy and samples equal
    /// the per-call softmax reference, from a uniform or a random start,
    /// with 1-choice decisions and large advantages included. The same
    /// holds for the update split by decision across 1, 2 and 4 executor
    /// workers, spaces with fewer decisions than workers included, and the
    /// entropy it returns has the bits of `mean_entropy`. A checkpoint
    /// round trip through `from_logits` rebuilds the same policy.
    #[test]
    fn policy_table_matches_fresh_softmax_bitwise(
        choices in prop::collection::vec(1usize..11, 1..12),
        steps in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 1..9), 1..10),
        lr in 0.01f64..1.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start: Vec<Vec<f64>> = choices
            .iter()
            .map(|&c| {
                (0..c)
                    .map(|_| if seed % 2 == 0 { 0.0 } else { rng.gen::<f64>() * 8.0 - 4.0 })
                    .collect()
            })
            .collect();
        let mut policy = if seed % 2 == 0 {
            let mut space = SearchSpace::new("bits");
            for (i, &c) in choices.iter().enumerate() {
                space.push(Decision::new(format!("d{i}"), c));
            }
            Policy::uniform(&space)
        } else {
            Policy::from_logits(start.clone())
        };
        let mut reference = ReferencePolicy { logits: start };
        prop_assert_eq!(bitwise_mismatch(&policy, &reference, seed), None);
        let executors = [1, 2, 4].map(Executor::new);
        let mut split = [policy.clone(), policy.clone(), policy.clone()];
        for (step, advantages) in steps.iter().enumerate() {
            let batch: Vec<(Vec<usize>, f64)> =
                advantages.iter().map(|&adv| (policy.sample(&mut rng), adv)).collect();
            policy.reinforce_update(&batch, lr);
            reference.reinforce_update(&batch, lr);
            let draw_seed = seed ^ ((step as u64 + 1) << 32);
            prop_assert_eq!(bitwise_mismatch(&policy, &reference, draw_seed), None);
            for (split, executor) in split.iter_mut().zip(&executors) {
                let entropy = split.reinforce_update_on(&batch, lr, executor);
                let workers = executor.workers();
                prop_assert_eq!(
                    (workers, bitwise_mismatch(split, &reference, draw_seed)),
                    (workers, None)
                );
                prop_assert_eq!(
                    (workers, entropy.to_bits()),
                    (workers, split.mean_entropy().to_bits())
                );
            }
        }
        let restored = Policy::from_logits(policy.logits().map(<[f64]>::to_vec).collect());
        prop_assert_eq!(&restored, &policy);
        prop_assert_eq!(bitwise_mismatch(&restored, &reference, seed), None);
    }

    /// The ReLU reward never penalises being under target, is monotone
    /// non-increasing in the measured value, and agrees with the absolute
    /// reward above target.
    #[test]
    fn relu_reward_properties(
        quality in 0.0f64..100.0,
        target in 0.1f64..10.0,
        beta in -10.0f64..-0.1,
        value in 0.0f64..20.0,
    ) {
        let relu = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", target, beta)]);
        let abs = RewardFn::new(RewardKind::Absolute, vec![PerfObjective::new("t", target, beta)]);
        let r = relu.reward(quality, &[value]);
        prop_assert!(r <= quality + 1e-12);
        if value <= target {
            prop_assert!((r - quality).abs() < 1e-12, "no penalty under target");
        } else {
            prop_assert!((r - abs.reward(quality, &[value])).abs() < 1e-9);
        }
        // Monotone: a strictly larger value can never increase the reward.
        let r2 = relu.reward(quality, &[value * 1.5 + 0.1]);
        prop_assert!(r2 <= r + 1e-12);
    }

    /// Reward scale invariance: scaling value and target together is a
    /// no-op (§6.1: "normalizing by T0 ensures that the reward is
    /// scale-invariant").
    #[test]
    fn reward_scale_invariance(
        scale in 0.01f64..100.0,
        value in 0.1f64..10.0,
        target in 0.1f64..10.0,
    ) {
        let a = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", target, -2.0)]);
        let b = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("t", target * scale, -2.0)],
        );
        let ra = a.reward(50.0, &[value]);
        let rb = b.reward(50.0, &[value * scale]);
        prop_assert!((ra - rb).abs() < 1e-6, "{ra} vs {rb}");
    }

    /// Masked forward equals the extracted dense layer's forward on the
    /// retained sub-matrix, for arbitrary active shapes.
    #[test]
    fn masked_dense_equals_extracted(
        active_in in 1usize..12,
        active_out in 1usize..12,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let md = MaskedDense::new(12, 12, &mut rng);
        let shape = (active_in, active_out);
        let x = Matrix::xavier(batch, active_in, &mut rng);
        let (got, _) = md.forward(&x, shape, Activation::Swish);
        let dense = md.extract_dense(shape, Activation::Swish, &mut rng);
        let (want, _) = dense.forward(&x);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Every uniformly sampled CNN candidate decodes, builds a non-empty
    /// graph, and its cost accounting is internally consistent.
    #[test]
    fn cnn_space_decode_total(seed in 0u64..500) {
        let space = CnnSpace::new(CnnSpaceConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = space.space().sample_uniform(&mut rng);
        prop_assert!(space.space().validate(&sample).is_ok());
        let arch = space.decode(&sample);
        let graph = arch.build_graph(2);
        prop_assert!(graph.total_flops() > 0.0);
        prop_assert!(graph.param_count() > 0.0);
        let cost = graph.total_cost();
        prop_assert!(cost.bytes_read >= cost.weight_bytes);
    }

    /// DLRM decode: widths and vocabularies always positive; embedding
    /// params equal Σ vocab·width exactly.
    #[test]
    fn dlrm_space_decode_total(seed in 0u64..500) {
        let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = space.decode(&space.space().sample_uniform(&mut rng));
        let expected: f64 =
            arch.tables.iter().map(|t| (t.vocab * t.width) as f64).sum();
        prop_assert!((arch.embedding_params() - expected).abs() < 1e-6);
        prop_assert!(arch.mlp_groups.iter().all(|g| g.width >= 8 && g.depth >= 1));
    }

    /// Roofline monotonicity: more FLOPs at the same shape never runs
    /// faster; more bandwidth never runs slower.
    #[test]
    fn roofline_monotonicity(m in 1usize..512, k in 1usize..512, n in 1usize..512) {
        let hw = HardwareConfig::tpu_v4();
        let small = OpKind::MatMul { m, k, n };
        let big = OpKind::MatMul { m: m * 2, k, n };
        let t_small = time_op(&small, &small.cost(DType::Bf16), &hw).time;
        let t_big = time_op(&big, &big.cost(DType::Bf16), &hw).time;
        prop_assert!(t_big >= t_small - 1e-12);

        let mut fast = hw.clone();
        fast.hbm_bw *= 2.0;
        fast.cmem_bw *= 2.0;
        let t_fast = time_op(&small, &small.cost(DType::Bf16), &fast).time;
        prop_assert!(t_fast <= t_small + 1e-12);
    }

    /// Pareto front invariants: pairwise non-domination, and every input
    /// point is dominated-or-equal by some front point.
    #[test]
    fn pareto_front_invariants(
        points in prop::collection::vec((0.0f64..10.0, 0.1f64..10.0), 1..40),
    ) {
        let pts: Vec<ParetoPoint> = points
            .iter()
            .enumerate()
            .map(|(i, &(q, c))| ParetoPoint { quality: q, cost: c, index: i })
            .collect();
        let front = pareto_front(&pts);
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                let dominates = b.quality >= a.quality
                    && b.cost <= a.cost
                    && (b.quality > a.quality || b.cost < a.cost);
                prop_assert!(!dominates, "front contains dominated point");
            }
        }
        for p in &pts {
            prop_assert!(
                front.iter().any(|f| f.quality >= p.quality && f.cost <= p.cost),
                "input point not covered by the front"
            );
        }
    }

    /// AUC is invariant under strictly monotone score transforms and
    /// flips under negation.
    #[test]
    fn auc_monotone_invariance(
        scores in prop::collection::vec(-5.0f32..5.0, 4..40),
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<f32> =
            (0..scores.len()).map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 }).collect();
        let a = loss::auc(&scores, &labels);
        let transformed: Vec<f32> = scores.iter().map(|s| s * 3.0 + 1.0).collect();
        let b = loss::auc(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-9);
        let pos = labels.iter().filter(|&&l| l > 0.5).count();
        if pos > 0 && pos < labels.len() {
            let negated: Vec<f32> = scores.iter().map(|s| -s).collect();
            let c = loss::auc(&negated, &labels);
            prop_assert!((a + c - 1.0).abs() < 1e-6, "{a} + {c} != 1");
        }
    }

    /// NRMSE is non-negative, zero iff exact, and scale-invariant.
    #[test]
    fn nrmse_properties(
        target in prop::collection::vec(0.1f64..10.0, 2..20),
        noise in 0.0f64..1.0,
        scale in 0.1f64..10.0,
    ) {
        let pred: Vec<f64> = target.iter().map(|t| t + noise).collect();
        let e = loss::nrmse(&pred, &target);
        prop_assert!(e >= 0.0);
        if noise == 0.0 {
            prop_assert!(e < 1e-12);
        }
        let pred_s: Vec<f64> = pred.iter().map(|p| p * scale).collect();
        let target_s: Vec<f64> = target.iter().map(|t| t * scale).collect();
        prop_assert!((loss::nrmse(&pred_s, &target_s) - e).abs() < 1e-9);
    }

    /// The textual HLO format round-trips arbitrary random graphs exactly
    /// (cost accounting and topology preserved).
    #[test]
    fn hlo_text_roundtrip(ops in prop::collection::vec((0usize..6, 1usize..64), 1..30)) {
        use h2o_nas::graph::text::{parse, to_text};
        let mut g = Graph::new("fuzz", DType::Bf16);
        let mut prev: Option<h2o_nas::graph::NodeId> = None;
        for (kind_idx, dim) in ops {
            let inputs: Vec<_> = prev.into_iter().collect();
            let kind = match kind_idx {
                0 => OpKind::MatMul { m: dim, k: dim, n: dim },
                1 => OpKind::Elementwise {
                    elems: dim * dim,
                    ops_per_elem: 1.0,
                    label: format!("act_{dim}").into(),
                },
                2 => OpKind::Reshape { elems: dim },
                3 => OpKind::EmbeddingLookup { lookups: dim, width: dim, vocab: dim * 10 },
                4 => OpKind::Concat { elems: dim },
                _ => OpKind::Pool { batch: 1, h: dim, w: dim, c: 4, window: 2 },
            };
            prev = Some(g.add(kind, &inputs));
        }
        g.fuse_elementwise();
        let parsed = parse(&to_text(&g)).expect("roundtrip parse");
        prop_assert_eq!(parsed.len(), g.len());
        prop_assert_eq!(parsed.total_cost(), g.total_cost());
        for (a, b) in g.nodes().iter().zip(parsed.nodes()) {
            prop_assert_eq!(&a.kind, &b.kind);
            prop_assert_eq!(g.inputs(a.id), parsed.inputs(b.id));
            prop_assert_eq!(a.fused, b.fused);
        }
    }

    /// Graph critical path is bounded by the serial sum of node times and
    /// at least the largest single node time.
    #[test]
    fn critical_path_bounds(times in prop::collection::vec(0.0f64..5.0, 1..20)) {
        let mut g = Graph::new("t", DType::Bf16);
        let mut prev: Option<h2o_nas::graph::NodeId> = None;
        for _ in 0..times.len() {
            let inputs: Vec<_> = prev.into_iter().collect();
            prev = Some(g.add(
                OpKind::Elementwise { elems: 1, ops_per_elem: 1.0, label: "e".into() },
                &inputs,
            ));
        }
        let cp = g.critical_path_time(|id| times[id.0]);
        let sum: f64 = times.iter().sum();
        let max = times.iter().cloned().fold(0.0, f64::max);
        prop_assert!(cp <= sum + 1e-9);
        prop_assert!(cp >= max - 1e-9);
    }
}

/// Feeds `bytes` to a fresh DLRM supernet's `load_state`, which must return
/// `Ok` or a `StateError`; after an `Ok` the network must still train a
/// candidate. Returns whether the bytes loaded.
fn dlrm_loads(bytes: &[u8], rng: &mut StdRng) -> bool {
    let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut StdRng::seed_from_u64(0));
    let loaded = net.load_state(bytes).is_ok();
    if loaded {
        net.apply_sample(&net.space().space().sample_uniform(rng));
        net.train_step(&CtrTraffic::new(CtrTrafficConfig::tiny(), 1).next_batch(8));
    }
    loaded
}

/// [`dlrm_loads`] for the vision supernet.
fn vision_loads(bytes: &[u8], rng: &mut StdRng) -> bool {
    let config = VisionSupernetConfig::tiny();
    let mut net = VisionSupernet::new(config, &mut StdRng::seed_from_u64(0));
    let loaded = net.load_state(bytes).is_ok();
    if loaded {
        net.apply_sample(&net.space().sample_uniform(rng));
        let b = VisionTraffic::new(4, 16, 0.2, 1).next_batch(8);
        net.train_step(&b.features, &b.labels);
    }
    loaded
}

/// Both supernets' state after one training step.
fn trained_states() -> [Vec<u8>; 2] {
    let mut rng = StdRng::seed_from_u64(3);
    let mut dlrm = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    dlrm.apply_sample(&dlrm.space().baseline());
    dlrm.train_step(&CtrTraffic::new(CtrTrafficConfig::tiny(), 2).next_batch(8));
    let mut vision = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng);
    vision.apply_sample(&vision.space().baseline_sample());
    let b = VisionTraffic::new(4, 16, 0.2, 2).next_batch(8);
    vision.train_step(&b.features, &b.labels);
    [dlrm.save_state(), vision.save_state()]
}

/// `blob` with one byte changed, cut short or extended, or random bytes.
fn mutated(blob: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let byte = |rng: &mut StdRng| rng.gen::<u32>() as u8;
    let mut bytes = blob.to_vec();
    match rng.gen_range(0..4) {
        0 => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= byte(rng) | 1;
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        2 => bytes.extend((0..rng.gen_range(1..24)).map(|_| byte(rng))),
        _ => bytes = (0..rng.gen_range(0..256)).map(|_| byte(rng)).collect(),
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both supernets' state decoders take any bytes without panicking:
    /// random bytes, and a valid blob with one byte changed, cut short or
    /// extended, each load or return a `StateError`, and a network that
    /// loaded still trains a candidate.
    fn supernet_load_state_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let [dlrm, vision] = trained_states();
        let bytes = mutated(&dlrm, &mut rng);
        dlrm_loads(&bytes, &mut rng);
        let bytes = mutated(&vision, &mut rng);
        vision_loads(&bytes, &mut rng);
    }
}

/// The fixed rows of `supernet_load_state_never_panics`, after each
/// supernet's weights: an optimizer moment whose recorded length overflows
/// its byte count, and a step counter that cannot advance. Both are errors.
#[test]
fn supernet_load_state_rejects_undecodable_optimizer_state() {
    let mut rng = StdRng::seed_from_u64(5);
    let untrained = [
        DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng).save_state(),
        VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng).save_state(),
    ];
    let loads: [fn(&[u8], &mut StdRng) -> bool; 2] = [dlrm_loads, vision_loads];
    for (blob, loads) in untrained.iter().zip(loads) {
        assert!(loads(blob, &mut rng), "an untrained state loads");
        // An untrained optimizer writes a zero step counter and no slots.
        let weights = &blob[..blob.len() - 16];
        for (t, moment_lens) in [(1, vec![1u64 << 62]), (u64::MAX, vec![])] {
            let mut w = StateWriter::new();
            w.put_u64(t);
            w.put_u64(moment_lens.len() as u64);
            for len in moment_lens {
                w.put_u64(len);
            }
            let bytes = [weights, &w.into_bytes()].concat();
            assert!(!loads(&bytes, &mut rng), "step counter {t} loaded");
        }
    }
}
