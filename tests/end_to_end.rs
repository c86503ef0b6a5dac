//! Cross-crate integration tests: full search loops spanning the policy,
//! reward, space, supernet, pipeline, simulator and surrogate crates.

use h2o_nas::core::{
    EvalResult, OneShotConfig, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig,
    SearchDriver, TunasStage, UnifiedStage,
};
use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline, TrafficSource};
use h2o_nas::hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_nas::models::quality::{DatasetScale, VisionQualityModel};
use h2o_nas::space::{ArchSample, CnnSpace, CnnSpaceConfig, DlrmSpaceConfig, DlrmSupernet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The quickstart scenario: hardware-aware CNN search must produce an
/// architecture that meets its step-time budget and beats the quality of a
/// random candidate of the same budget.
#[test]
fn cnn_search_meets_hardware_budget() {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let budget = 0.15;
    let quality = VisionQualityModel::new(DatasetScale::Medium);
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step", budget, -10.0)],
    );
    let make = |_shard: usize| {
        let space = CnnSpace::new(CnnSpaceConfig::default());
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        move |sample: &ArchSample| {
            let arch = space.decode(sample);
            let graph = arch.build_graph(64);
            EvalResult {
                quality: quality.accuracy_of_cnn(&arch, graph.param_count() / 1e6),
                perf_values: vec![
                    sim.simulate_training(&graph, &SystemConfig::training_pod())
                        .time,
                ],
            }
        }
    };
    let cfg = SearchConfig {
        steps: 80,
        shards: 8,
        policy_lr: 0.08,
        ..Default::default()
    };
    let outcome = SearchDriver::new(space.space(), &reward, cfg)
        .run(&mut ParallelStage::new(make, &cfg), None, None)
        .expect("sinkless run");
    let best = space.decode(&outcome.best);
    let graph = best.build_graph(64);
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let time = sim
        .simulate_training(&graph, &SystemConfig::training_pod())
        .time;
    assert!(
        time <= budget * 1.3,
        "searched arch near budget: {time} vs {budget}"
    );
    // The search concentrated: the last recorded entropy is below uniform.
    let last = outcome.history.last().unwrap();
    assert!(last.entropy < 1.3, "entropy {}", last.entropy);
}

/// The full one-shot DLRM flow: real supernet, real traffic, pipeline
/// ordering — the search must learn (AUC above chance) AND end with a
/// feasible model size.
#[test]
fn dlrm_oneshot_search_learns_and_respects_size() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let space = supernet.space().clone();
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 5));
    let base_size = space.decode(&space.baseline()).model_size_bytes();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("size", base_size, -4.0)],
    );
    let perf_space = space.clone();
    let perf = move |s: &ArchSample| vec![perf_space.decode(s).model_size_bytes()];
    let cfg = OneShotConfig {
        steps: 200,
        shards: 4,
        batch_size: 64,
        ..Default::default()
    };
    let outcome = SearchDriver::new(space.space(), &reward, cfg.controller())
        .run(
            &mut UnifiedStage::new(&mut supernet, &pipeline, perf, &cfg),
            None,
            None,
        )
        .expect("sinkless run");

    // Pipeline invariants held for every batch.
    let stats = pipeline.stats();
    assert_eq!(stats.policy_used, stats.weights_used);
    assert_eq!(pipeline.in_flight(), 0);

    // The final architecture is feasible and the supernet learned.
    let best_size = space.decode(&outcome.best).model_size_bytes();
    assert!(best_size <= base_size * 1.05, "{best_size} vs {base_size}");
    supernet.apply_sample(&outcome.best);
    let mut eval = CtrTraffic::new(CtrTrafficConfig::tiny(), 777);
    let batch = eval.next_batch(512);
    let (_, auc) = supernet.evaluate(&batch);
    assert!(auc > 0.65, "final arch AUC {auc}");
}

/// Unified and TuNAS searches must both run on the same supernet type and
/// produce valid samples; unified must not need a second stream.
#[test]
fn unified_and_tunas_agree_on_output_contract() {
    let mut rng = StdRng::seed_from_u64(12);
    let cfg = OneShotConfig {
        steps: 15,
        shards: 2,
        batch_size: 32,
        ..Default::default()
    };

    let mut s1 = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let space = s1.space().clone();
    let base_size = space.decode(&space.baseline()).model_size_bytes();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("size", base_size, -2.0)],
    );
    let p1 = space.clone();
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 6));
    let perf1 = move |s: &ArchSample| vec![p1.decode(s).model_size_bytes()];
    let o1 = SearchDriver::new(space.space(), &reward, cfg.controller())
        .run(
            &mut UnifiedStage::new(&mut s1, &pipeline, perf1, &cfg),
            None,
            None,
        )
        .expect("sinkless run");

    let mut s2 = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let mut train = CtrTraffic::new(CtrTrafficConfig::tiny(), 7);
    let mut valid = CtrTraffic::new(CtrTrafficConfig::tiny(), 8);
    let p2 = space.clone();
    let perf2 = move |s: &ArchSample| vec![p2.decode(s).model_size_bytes()];
    let o2 = SearchDriver::new(space.space(), &reward, cfg.controller())
        .run(
            &mut TunasStage::new(&mut s2, &mut train, &mut valid, perf2, &cfg),
            None,
            None,
        )
        .expect("sinkless run");

    assert!(space.space().validate(&o1.best).is_ok());
    assert!(space.space().validate(&o2.best).is_ok());
    assert_eq!(o1.history.len(), cfg.steps);
    assert_eq!(o2.history.len(), cfg.steps);
}

/// The ReLU reward must never punish overachievers while the absolute
/// reward does — verified end to end through a search that can overshoot.
#[test]
fn relu_reward_tolerates_overachieving_candidates_in_search() {
    // Space: one decision; quality constant; perf halves with choice index.
    // Target sits at the middle; ReLU should pick the fastest (equal
    // reward, ties resolved by sampling noise — accept any at-or-under
    // target), Absolute must pick near-target.
    let mut space = h2o_nas::space::SearchSpace::new("t");
    space.push(h2o_nas::space::Decision::new("speed", 8));
    let eval = |_shard: usize| {
        |s: &ArchSample| EvalResult {
            quality: 1.0,
            perf_values: vec![8.0 - s[0] as f64],
        }
    };
    let cfg = SearchConfig {
        steps: 150,
        shards: 8,
        policy_lr: 0.1,
        ..Default::default()
    };
    let abs_reward = RewardFn::new(
        RewardKind::Absolute,
        vec![PerfObjective::new("t", 4.0, -5.0)],
    );
    let outcome_abs = SearchDriver::new(&space, &abs_reward, cfg)
        .run(&mut ParallelStage::new(eval, &cfg), None, None)
        .expect("sinkless run");
    // Absolute: optimum is exactly at target (choice 4 -> value 4.0).
    assert_eq!(outcome_abs.best[0], 4, "absolute reward pins to the target");

    let relu_reward = RewardFn::new(RewardKind::Relu, vec![PerfObjective::new("t", 4.0, -5.0)]);
    let outcome_relu = SearchDriver::new(&space, &relu_reward, cfg)
        .run(&mut ParallelStage::new(eval, &cfg), None, None)
        .expect("sinkless run");
    // ReLU: anything at-or-under target is optimal; must NOT be above it.
    let value = 8.0 - outcome_relu.best[0] as f64;
    assert!(value <= 4.0, "ReLU must not end over target: {value}");
}

/// Sharded searches must actually exercise parallelism without corrupting
/// shared state (policy updates are serialized, evaluations parallel).
#[test]
fn parallel_shards_do_not_corrupt_policy() {
    let mut space = h2o_nas::space::SearchSpace::new("p");
    for i in 0..6 {
        space.push(h2o_nas::space::Decision::new(format!("d{i}"), 5));
    }
    let eval = |_s: usize| {
        |sample: &ArchSample| EvalResult {
            quality: sample.iter().sum::<usize>() as f64,
            perf_values: vec![],
        }
    };
    let reward = RewardFn::new(RewardKind::Relu, vec![]);
    let cfg = SearchConfig {
        steps: 120,
        shards: 16,
        policy_lr: 0.08,
        ..Default::default()
    };
    let outcome = SearchDriver::new(&space, &reward, cfg)
        .run(&mut ParallelStage::new(eval, &cfg), None, None)
        .expect("sinkless run");
    // Quality is maximised by choosing 4 everywhere.
    assert_eq!(outcome.best, vec![4; 6]);
}
