//! Cross-crate consistency: the analytic accounting, the graph builder and
//! the simulator must agree with each other wherever they overlap.

use h2o_nas::hwsim::{HardwareConfig, ProductionHardware, Simulator, SystemConfig};
use h2o_nas::perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
use h2o_nas::space::{DlrmSpace, DlrmSpaceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DlrmArch's analytic parameter count must agree with the graph builder's
/// op-level accounting (they are independent implementations).
#[test]
fn dlrm_analytic_params_match_graph_params() {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let arch = space.decode(&space.space().sample_uniform(&mut rng));
        let analytic = arch.embedding_params() + arch.mlp_params();
        let graph = arch.build_graph(16, 1);
        let from_graph = graph.param_count();
        let rel = (analytic - from_graph).abs() / analytic.max(1.0);
        assert!(
            rel < 0.05,
            "analytic {analytic} vs graph {from_graph} ({rel:.3})"
        );
    }
}

/// Graph construction must be deterministic: same arch, same costs.
#[test]
fn graph_building_is_deterministic() {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let arch = space.decode(&space.baseline());
    let a = arch.build_graph(32, 4);
    let b = arch.build_graph(32, 4);
    assert_eq!(a.len(), b.len());
    assert_eq!(a.total_cost(), b.total_cost());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    assert_eq!(sim.simulate(&a).time, sim.simulate(&b).time);
}

/// The simulator must be monotone in problem size: uniformly scaling a
/// DLRM's MLP widths up cannot make the step faster.
#[test]
fn simulator_monotone_in_mlp_width() {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let mut small = space.decode(&space.baseline());
    let mut big = small.clone();
    for g in &mut small.mlp_groups {
        g.width = 32;
    }
    for g in &mut big.mlp_groups {
        g.width = 256;
    }
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let t_small = sim.simulate_training(&small.build_graph(64, 1), &pod).time;
    let t_big = sim.simulate_training(&big.build_graph(64, 1), &pod).time;
    assert!(t_big > t_small, "{t_big} vs {t_small}");
}

/// A perf model trained on simulator outputs must *rank* unseen
/// architectures like the simulator does (rank agreement is what the RL
/// controller actually needs).
#[test]
fn perf_model_preserves_simulator_ranking() {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(8);
    let space = DlrmSpace::new(config);
    let featurizer = Featurizer::from_space(space.space());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let mut rng = StdRng::seed_from_u64(4);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..800 {
        let sample = space.space().sample_uniform(&mut rng);
        let t = sim
            .simulate_training(&space.decode(&sample).build_graph(64, 128), &pod)
            .time;
        xs.push(featurizer.featurize(&sample));
        ys.push(PerfTargets {
            training: t,
            serving: t * 0.3,
        });
    }
    let mut model = PerfModel::new(featurizer.dim(), &[128, 128], 1);
    model.pretrain(
        &xs[..600],
        &ys[..600],
        TrainConfig {
            epochs: 60,
            batch_size: 64,
            lr: 1e-3,
        },
    );
    // Kendall-style pairwise rank agreement on held-out candidates.
    let preds: Vec<f64> = xs[600..]
        .iter()
        .map(|x| model.predict(x).training)
        .collect();
    let truth: Vec<f64> = ys[600..].iter().map(|y| y.training).collect();
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..preds.len() {
        for j in i + 1..preds.len() {
            if (truth[i] - truth[j]).abs() / truth[i] < 0.02 {
                continue; // skip near-ties
            }
            total += 1;
            if (preds[i] < preds[j]) == (truth[i] < truth[j]) {
                agree += 1;
            }
        }
    }
    let agreement = agree as f64 / total as f64;
    assert!(agreement > 0.75, "rank agreement {agreement:.3}");
}

/// Production measurements must stay rank-consistent with the simulator
/// (systematic distortion, not rank corruption) — the property that makes
/// 20-sample fine-tuning possible at all.
#[test]
fn production_hardware_is_rank_consistent_with_simulator() {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let prod = ProductionHardware::new(HardwareConfig::tpu_v4(), 42);
    let pod = SystemConfig::training_pod();
    let mut rng = StdRng::seed_from_u64(6);
    let mut pairs = Vec::new();
    for _ in 0..30 {
        let arch = space.decode(&space.space().sample_uniform(&mut rng));
        let g = arch.build_graph(64, 128);
        pairs.push((
            sim.simulate_training(&g, &pod).time,
            prod.measure_step_time(&g, &pod),
        ));
    }
    let mut agree = 0;
    let mut total = 0;
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            if (pairs[i].0 - pairs[j].0).abs() / pairs[i].0 < 0.05 {
                continue;
            }
            total += 1;
            if (pairs[i].0 < pairs[j].0) == (pairs[i].1 < pairs[j].1) {
                agree += 1;
            }
        }
    }
    assert!(agree as f64 / total as f64 > 0.85, "{agree}/{total}");
}

/// Serving on TPUv4i must be slower than TPUv4 for the same graph (sanity
/// across platform presets), and V100 must sit between idle and TPU peaks.
#[test]
fn platform_ordering_is_sane() {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let mut arch = space.decode(&space.baseline());
    for g in &mut arch.mlp_groups {
        g.width = 512; // compute-heavy so peak FLOPS dominates
    }
    let g = arch.build_graph(256, 1);
    let t_v4 = Simulator::new(HardwareConfig::tpu_v4()).simulate(&g).time;
    let t_v4i = Simulator::new(HardwareConfig::tpu_v4i()).simulate(&g).time;
    let t_v100 = Simulator::new(HardwareConfig::gpu_v100()).simulate(&g).time;
    assert!(t_v4 < t_v4i, "TPUv4 must beat TPUv4i: {t_v4} vs {t_v4i}");
    assert!(t_v4 < t_v100, "TPUv4 must beat V100: {t_v4} vs {t_v100}");
}

/// A model dumped to the textual HLO format and parsed back must simulate
/// identically — the interchange path the CLI exposes (`h2o dump` /
/// `h2o simulate --hlo`).
#[test]
fn hlo_text_roundtrip_simulates_identically() {
    use h2o_nas::graph::text::{parse, to_text};
    let model = h2o_nas::models::efficientnet::EfficientNet::x_family()
        .into_iter()
        .next()
        .expect("family non-empty");
    let graph = model.build_graph(8);
    let parsed = parse(&to_text(&graph)).expect("roundtrip");
    let sim = Simulator::new(HardwareConfig::tpu_v4i());
    let a = sim.simulate(&graph);
    let b = sim.simulate(&parsed);
    assert_eq!(a.time, b.time);
    assert_eq!(a.hbm_bytes, b.hbm_bytes);
    assert_eq!(a.energy, b.energy);
}

/// Runtime statistics measured from traffic must change the simulated
/// embedding traffic the way the measured access rates say (§6.2.3 input 3
/// feeding the cost model).
#[test]
fn runtime_stats_flow_into_simulated_costs() {
    use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, RuntimeStats};
    let mut cfg = CtrTrafficConfig::tiny();
    cfg.ids_per_example = 4;
    let mut stream = CtrTraffic::new(cfg, 17);
    let stats = RuntimeStats::collect(&mut stream, 5, 64);
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let baseline = space.decode(&space.baseline());
    let mut measured = baseline.clone();
    stats.apply_to(&mut measured);
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let t_base = sim.simulate(&baseline.build_graph(64, 1)).time;
    let t_measured = sim.simulate(&measured.build_graph(64, 1)).time;
    assert!(
        t_measured >= t_base,
        "4x hotter tables cannot be cheaper: {t_measured} vs {t_base}"
    );
}

/// FNV-1a, 64-bit, over the little-endian bytes it is fed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

/// Hashes every field of the serving and training reports of `graph`, and
/// each `(label, time)` of both breakdowns, in that order.
fn hash_walks(h: &mut Fnv, sim: &Simulator, graph: &h2o_nas::graph::Graph) {
    let pod = SystemConfig::training_pod();
    for system in [None, Some(&pod)] {
        let report = match system {
            None => sim.simulate(graph),
            Some(system) => sim.simulate_training(graph, system),
        };
        let h2o_nas::hwsim::SimReport {
            time,
            flops,
            achieved_flops_rate,
            hbm_bytes,
            cmem_bytes,
            ici_bytes,
            hbm_bw_used,
            cmem_bw_used,
            energy,
            avg_power,
            params,
            mxu_busy,
        } = report;
        for v in [
            time,
            flops,
            achieved_flops_rate,
            hbm_bytes,
            cmem_bytes,
            ici_bytes,
            hbm_bw_used,
            cmem_bw_used,
            energy,
            avg_power,
            params,
            mxu_busy,
        ] {
            h.f64(v);
        }
        for (label, t) in sim.breakdown(graph, system) {
            h.bytes(label.as_bytes());
            h.f64(t);
        }
    }
}

/// Pins the simulator's output bit for bit: every report field and every
/// breakdown entry, serving and training, over 32 seeded production-DLRM
/// candidates, three vision models and one parsed HLO graph. The
/// searchbench digests cover only latency; energy, memory, params and the
/// breakdown feed Fig. 8, `h2o simulate` and `ProductionHardware`.
#[test]
fn simulator_outputs_are_pinned() {
    use h2o_nas::models::coatnet::CoAtNet;
    use h2o_nas::models::efficientnet::EfficientNet;
    use h2o_nas::space::{VitSpace, VitSpaceConfig};
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let mut h = Fnv::new();
    let space = DlrmSpace::new(DlrmSpaceConfig::production());
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..32 {
        let arch = space.decode(&space.space().sample_uniform(&mut rng));
        hash_walks(&mut h, &sim, &arch.build_graph(64, 128));
    }
    let find = |family: Vec<EfficientNet>, name: &str| {
        family
            .into_iter()
            .find(|m| m.name == name)
            .expect("model in family")
    };
    hash_walks(
        &mut h,
        &sim,
        &find(EfficientNet::x_family(), "EfficientNet-X-B0").build_graph(8),
    );
    let coatnet = CoAtNet::family()
        .into_iter()
        .find(|m| m.name == "CoAtNet-0")
        .expect("CoAtNet-0 in family");
    hash_walks(&mut h, &sim, &coatnet.build_graph(8));
    let vit = VitSpace::new(VitSpaceConfig::pure());
    let sample = vit.space().sample_uniform(&mut rng);
    hash_walks(&mut h, &sim, &vit.decode(&sample).build_graph(8, 196));
    let parsed = h2o_nas::graph::text::parse(
        "graph \"pinned\" dtype=bf16 {\n\
         \x20 %0 = reshape(elems=4096)\n\
         \x20 %1 = matmul(m=64, k=64, n=300) inputs=[%0]\n\
         \x20 %2 = elementwise(elems=19200, ops_per_elem=3.5, label=\"hard,swish\") inputs=[%1] fused\n\
         \x20 %3 = embedding_lookup(lookups=640, width=48, vocab=100000)\n\
         \x20 %4 = all_to_all(bytes_per_chip=122880) inputs=[%3]\n\
         \x20 %5 = conv2d(batch=2, h=17, w=17, c_in=3, c_out=40, kh=3, kw=3, stride=2)\n\
         \x20 %6 = depthwise_conv2d(batch=2, h=9, w=9, c=40, kh=5, kw=5, stride=1) inputs=[%5]\n\
         \x20 %7 = pool(batch=2, h=9, w=9, c=40, window=3) inputs=[%6]\n\
         \x20 %8 = batched_matmul(batches=6, m=33, k=17, n=33) inputs=[%7]\n\
         \x20 %9 = all_reduce(bytes_per_chip=65536) inputs=[%8]\n\
         \x20 %10 = concat(elems=20000) inputs=[%2, %4, %9]\n\
         \x20 %11 = elementwise(elems=20000, ops_per_elem=1, label=\"relu\") inputs=[%10, %1]\n\
         }\n",
    )
    .expect("the pinned graph parses");
    hash_walks(&mut h, &sim, &parsed);
    assert_eq!(
        h.0, 0x621b_b667_1407_2118,
        "simulator digest moved: {:#018x}",
        h.0
    );
}

/// Pins the resume and handshake fingerprints. Checkpoints and `--nodes`
/// workers are accepted by fingerprint, so a value that moves would stop
/// every existing checkpoint from resuming and every older worker from
/// joining.
#[test]
fn fingerprints_are_pinned() {
    use h2o_nas::core::{OneShotConfig, SearchConfig};
    use h2o_nas::eval::{BackendSpec, EvalScenario, ModelSpec};
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    assert_eq!(
        SearchConfig::default().fingerprint(space.space()),
        0x37f2_47cb_2199_c8e2
    );
    assert_eq!(
        OneShotConfig::default().fingerprint(space.space()),
        0x23e3_2817_cc78_171d
    );
    for (backend, fingerprint, value_fingerprint) in [
        (BackendSpec::Simulator, 0xf1ff_4d27_2625_733c, 0),
        (
            BackendSpec::Cached { capacity: 4096 },
            0xf1ff_4d27_2625_733c,
            0,
        ),
        (
            BackendSpec::ModelServed {
                fallback_capacity: Some(4096),
                model: ModelSpec::default(),
            },
            0xdf7a_32d3_0572_0dd1,
            0xe468_eb95_7b6b_b618,
        ),
    ] {
        let scenario = EvalScenario::new("dlrm", backend).expect("a dlrm scenario");
        assert_eq!(
            (scenario.fingerprint(), scenario.value_fingerprint()),
            (fingerprint, value_fingerprint),
            "{backend:?}"
        );
    }
}

/// A sample whose decision `d` takes choice `(k + d) % choices`: for `k`
/// over any run of consecutive values as long as the widest decision, every
/// choice of every decision comes up.
fn cycled_sample(space: &h2o_nas::space::SearchSpace, k: usize) -> Vec<usize> {
    let decisions = space.decisions().iter().enumerate();
    decisions.map(|(d, dec)| (k + d) % dec.choices).collect()
}

/// Pins both trained supernets bit for bit: every weight and Adam moment
/// (`save_state`) and the quality of a few candidates, after training
/// steps that visit every choice of every decision: each vocabulary and
/// embedding width, the low-rank and full paths, each depth, width and
/// activation. The CSV goldens see the weights only through losses.
#[test]
fn supernet_states_are_pinned() {
    use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, TrafficSource, VisionTraffic};
    use h2o_nas::space::{DlrmSupernet, VisionSupernet, VisionSupernetConfig};
    let mut h = Fnv::new();

    let mut rng = StdRng::seed_from_u64(29);
    let mut net = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let space = net.space().space().clone();
    let config = CtrTrafficConfig {
        ids_per_example: 2,
        ..CtrTrafficConfig::tiny()
    };
    let mut traffic = CtrTraffic::new(config, 3);
    let widest = space
        .decisions()
        .iter()
        .map(|d| d.choices)
        .max()
        .unwrap_or(1);
    for k in 0..2 * widest {
        net.apply_sample(&cycled_sample(&space, k));
        h.f64(f64::from(net.train_step(&traffic.next_batch(24))));
    }
    h.bytes(&net.save_state());
    let batch = traffic.next_batch(40);
    for _ in 0..4 {
        let sample = space.sample_uniform(&mut rng);
        h.f64(f64::from(net.logloss_of(&sample, &batch)));
    }

    let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng);
    let space = net.space().clone();
    let mut traffic = VisionTraffic::new(4, 16, 0.2, 11);
    let widest = space
        .decisions()
        .iter()
        .map(|d| d.choices)
        .max()
        .unwrap_or(1);
    for k in 0..2 * widest {
        net.apply_sample(&cycled_sample(&space, k));
        let b = traffic.next_batch(24);
        h.f64(f64::from(net.train_step(&b.features, &b.labels)));
    }
    h.bytes(&net.save_state());
    let b = traffic.next_batch(40);
    for _ in 0..4 {
        let sample = space.sample_uniform(&mut rng);
        h.f64(f64::from(net.cross_entropy_of(
            &sample,
            &b.features,
            &b.labels,
        )));
    }
    assert_eq!(
        h.0, 0x4e2c_acdc_89a4_e9cf,
        "supernet digest moved: {:#018x}",
        h.0
    );
}

/// Pins a trained performance model bit for bit: a small dual-head model
/// pretrained on simulator-labelled tiny-DLRM candidates, then fine-tuned
/// on scaled targets, the way a deployed-hardware gap looks (the
/// calibration fit plus `TrainConfig::finetune()`'s gradient epochs). The
/// digest covers the pretrain loss and both heads' predictions for every
/// sample, after each phase. searchbench's reference digests see the
/// model only through a model-served search's CSVs.
#[test]
fn perf_model_outputs_are_pinned() {
    let space = DlrmSpace::new(DlrmSpaceConfig::tiny());
    let featurizer = Featurizer::from_space(space.space());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let mut rng = StdRng::seed_from_u64(30);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..96 {
        let sample = space.space().sample_uniform(&mut rng);
        let graph = space.decode(&sample).build_graph(64, 128);
        xs.push(featurizer.featurize(&sample));
        ys.push(PerfTargets {
            training: sim.simulate_training(&graph, &pod).time,
            serving: sim.simulate(&graph).time,
        });
    }
    let mut h = Fnv::new();
    let hash_predictions = |h: &mut Fnv, model: &PerfModel| {
        for x in &xs {
            let p = model.predict(x);
            h.f64(p.training);
            h.f64(p.serving);
        }
    };
    let mut model = PerfModel::new(featurizer.dim(), &[16, 16], 3);
    let pretrain = TrainConfig {
        epochs: 6,
        batch_size: 16,
        lr: 1e-3,
    };
    let loss = model.pretrain(&xs[..80], &ys[..80], pretrain);
    h.bytes(&loss.to_bits().to_le_bytes());
    hash_predictions(&mut h, &model);
    let measured: Vec<PerfTargets> = ys[80..]
        .iter()
        .map(|y| PerfTargets {
            training: y.training * 1.3,
            serving: y.serving * 0.8,
        })
        .collect();
    model.finetune(&xs[80..], &measured, TrainConfig::finetune());
    hash_predictions(&mut h, &model);
    assert_eq!(
        h.0, 0xf65f_4915_02cc_c33e,
        "perf model digest moved: {:#018x}",
        h.0
    );
}
