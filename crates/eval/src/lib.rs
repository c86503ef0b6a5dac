//! # h2o-eval — the unified evaluation-backend layer
//!
//! Every candidate evaluation in the workspace — in-process search
//! shards, distributed `node-worker` processes, the bench harness, and
//! the integration tests — builds its evaluator through this crate's
//! single `BackendSpec → EvalBackend` factory, so all execution paths
//! produce bit-identical costs for the same candidate.
//!
//! Three backends implement the contract (see `DESIGN.md`,
//! "evaluation-backend contract"):
//!
//! * [`BackendSpec::Simulator`] — every candidate walks the roofline
//!   simulator.
//! * [`BackendSpec::Cached`] — the same walk, memoized by canonical
//!   architecture key through a shared [`h2o_hwsim::EvalCache`].
//! * [`BackendSpec::ModelServed`] — the paper's §6.2.3 hot path: a
//!   pretrained MLP performance model answers in-distribution candidates
//!   from a batched forward pass, a deterministic novelty gate routes
//!   out-of-distribution candidates to the cached simulator, and the
//!   resulting ground truth fine-tunes a refined model generation on a
//!   fixed cadence.
//!
//! An [`EvalScenario`] pairs a search [`Domain`] with a backend spec and
//! derives everything a process needs to participate in a run: the
//! decision space, the handshake fingerprint, the backend flags (parsed
//! and rendered in one place), and per-shard evaluator closures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

mod backend;
mod scenario;

pub use backend::{BackendSpec, EvalBackend, ModelServeStats, ModelServedBackend, ModelSpec};
pub use scenario::{Domain, EvalScenario};

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_hwsim::arch_key;
    use h2o_space::SearchSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dlrm_scenario(backend: BackendSpec) -> EvalScenario {
        EvalScenario::new("dlrm", backend).expect("dlrm scenario")
    }

    fn samples(space: &SearchSpace, n: usize, seed: u64) -> Vec<h2o_space::ArchSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| space.sample_uniform(&mut rng)).collect()
    }

    #[test]
    fn factory_builds_every_kind() {
        let scenario = dlrm_scenario(BackendSpec::Simulator);
        assert!(matches!(
            scenario.backend().expect("sim"),
            EvalBackend::Simulator(_)
        ));
        let scenario = dlrm_scenario(BackendSpec::Cached { capacity: 64 });
        assert!(matches!(
            scenario.backend().expect("cached"),
            EvalBackend::Cached(_)
        ));
        let scenario = dlrm_scenario(BackendSpec::ModelServed {
            fallback_capacity: Some(64),
            model: ModelSpec {
                pretrain_pool: 8,
                ..ModelSpec::default()
            },
        });
        assert!(matches!(
            scenario.backend().expect("model"),
            EvalBackend::ModelServed(_)
        ));
    }

    #[test]
    fn model_backend_rejects_vision_domains() {
        for domain in ["cnn", "vit"] {
            let err = EvalScenario::new(
                domain,
                BackendSpec::ModelServed {
                    fallback_capacity: None,
                    model: ModelSpec::default(),
                },
            )
            .expect_err("vision domains have no model backend");
            assert!(err.contains("does not support"), "unexpected error: {err}");
        }
    }

    #[test]
    fn spec_validation_rejects_degenerate_parameters() {
        let model = |model: ModelSpec| BackendSpec::ModelServed {
            fallback_capacity: None,
            model,
        };
        for (spec, flag) in [
            (
                model(ModelSpec {
                    finetune_cadence: 1,
                    ..ModelSpec::default()
                }),
                "finetune-cadence",
            ),
            (
                model(ModelSpec {
                    gate_threshold: f64::NAN,
                    ..ModelSpec::default()
                }),
                "gate-threshold",
            ),
            (BackendSpec::Cached { capacity: 0 }, "cache capacity"),
            (
                BackendSpec::ModelServed {
                    fallback_capacity: Some(0),
                    model: ModelSpec::default(),
                },
                "cache capacity",
            ),
        ] {
            let err = spec.validate().expect_err("a degenerate spec");
            assert!(err.contains(flag), "{spec:?}: {err}");
        }
        assert!(BackendSpec::Cached { capacity: 1 }.validate().is_ok());
    }

    #[test]
    fn sim_and_cached_agree_candidate_by_candidate() {
        let scenario = dlrm_scenario(BackendSpec::Simulator);
        let space = scenario.space();
        let sim = scenario.backend().expect("sim");
        let cached = dlrm_scenario(BackendSpec::Cached { capacity: 32 })
            .backend()
            .expect("cached");
        let mut eval_sim = scenario.shard_evaluator(&sim);
        let mut eval_cached = scenario.shard_evaluator(&cached);
        for sample in samples(&space, 6, 7) {
            let a = eval_sim(&sample);
            let b = eval_cached(&sample);
            assert_eq!(a.quality.to_bits(), b.quality.to_bits());
            assert_eq!(a.perf_values[0].to_bits(), b.perf_values[0].to_bits());
            // Re-evaluating through the cache must replay the exact value.
            let c = eval_cached(&sample);
            assert_eq!(b.perf_values[0].to_bits(), c.perf_values[0].to_bits());
        }
    }

    #[test]
    fn negative_gate_threshold_matches_cached_backend_exactly() {
        // novelty >= 0 always, so a negative threshold forces every
        // candidate through the fallback — the model backend degenerates
        // bit-for-bit to the cached backend, or to the plain simulator
        // when its fallback is uncached.
        for (fallback_capacity, reference) in [
            (Some(32), BackendSpec::Cached { capacity: 32 }),
            (None, BackendSpec::Simulator),
        ] {
            let scenario = dlrm_scenario(BackendSpec::ModelServed {
                fallback_capacity,
                model: ModelSpec {
                    gate_threshold: -1.0,
                    pretrain_pool: 8,
                    ..ModelSpec::default()
                },
            });
            let space = scenario.space();
            let model = scenario.backend().expect("model");
            let reference = dlrm_scenario(reference).backend().expect("reference");
            let mut eval_model = scenario.shard_evaluator(&model);
            let mut eval_reference = scenario.shard_evaluator(&reference);
            for sample in samples(&space, 5, 11) {
                let a = eval_model(&sample);
                let b = eval_reference(&sample);
                assert_eq!(a.perf_values[0].to_bits(), b.perf_values[0].to_bits());
            }
            let stats = model.model_served().expect("model backend").stats();
            assert_eq!(stats.served, 0);
            assert_eq!(stats.fallback, 5);
            assert_eq!(model.cache().is_some(), fallback_capacity.is_some());
        }
    }

    #[test]
    fn served_values_are_topology_independent() {
        // Two independent clones evaluating disjoint interleavings of the
        // same samples must agree on every value — the frozen-generation
        // rule in action.
        let spec = BackendSpec::ModelServed {
            fallback_capacity: Some(32),
            model: ModelSpec {
                gate_threshold: 2.5,
                finetune_cadence: 2,
                pretrain_pool: 8,
                seed: 3,
            },
        };
        let scenario = dlrm_scenario(spec);
        let space = scenario.space();
        let pool = samples(&space, 8, 13);

        let backend_a = scenario.backend().expect("a");
        let mut eval_a = scenario.shard_evaluator(&backend_a);
        let forward: Vec<u64> = pool
            .iter()
            .map(|s| eval_a(s).perf_values[0].to_bits())
            .collect();

        let backend_b = scenario.backend().expect("b");
        let mut eval_b0 = scenario.shard_evaluator(&backend_b);
        let mut eval_b1 = scenario.shard_evaluator(&backend_b);
        let mut reverse: Vec<u64> = pool
            .iter()
            .rev()
            .enumerate()
            .map(|(i, s)| {
                if i % 2 == 0 {
                    eval_b0(s).perf_values[0].to_bits()
                } else {
                    eval_b1(s).perf_values[0].to_bits()
                }
            })
            .collect();
        reverse.reverse();
        assert_eq!(forward, reverse);
    }

    #[test]
    fn finetune_cadence_accrues_rounds_without_changing_served_values() {
        let scenario = dlrm_scenario(BackendSpec::ModelServed {
            fallback_capacity: Some(32),
            model: ModelSpec {
                gate_threshold: -1.0, // everything falls back → buffer fills
                finetune_cadence: 2,
                pretrain_pool: 8,
                seed: 0,
            },
        });
        let space = scenario.space();
        let backend = scenario.backend().expect("model");
        let mut eval = scenario.shard_evaluator(&backend);
        let pool = samples(&space, 6, 17);
        for sample in &pool {
            eval(sample);
        }
        let served = backend.model_served().expect("model backend");
        let stats = served.stats();
        assert_eq!(stats.buffered, 6);
        assert_eq!(stats.finetune_rounds, 3, "cadence 2 over 6 distinct keys");
        // Duplicate keys neither re-buffer nor re-trigger a round.
        eval(&pool[0]);
        assert_eq!(served.stats().buffered, 6);
        assert_eq!(served.stats().finetune_rounds, 3);
        assert!(served.buffer_nrmse().is_some());
    }

    #[test]
    fn fingerprints_isolate_value_affecting_parameters() {
        let sim = dlrm_scenario(BackendSpec::Simulator);
        let cached = dlrm_scenario(BackendSpec::Cached { capacity: 999 });
        // Memoization is value-invisible: sim and cached interoperate.
        assert_eq!(sim.fingerprint(), cached.fingerprint());
        assert_eq!(sim.value_fingerprint(), 0);
        assert_eq!(cached.value_fingerprint(), 0);

        let model = dlrm_scenario(BackendSpec::ModelServed {
            fallback_capacity: Some(999),
            model: ModelSpec::default(),
        });
        assert_ne!(model.fingerprint(), sim.fingerprint());
        assert_ne!(model.value_fingerprint(), 0);
        // Every model parameter is value-affecting.
        let other = dlrm_scenario(BackendSpec::ModelServed {
            fallback_capacity: Some(999),
            model: ModelSpec {
                seed: 1,
                ..ModelSpec::default()
            },
        });
        assert_ne!(model.fingerprint(), other.fingerprint());
        // Fallback cache capacity is not.
        let resized = dlrm_scenario(BackendSpec::ModelServed {
            fallback_capacity: None,
            model: ModelSpec::default(),
        });
        assert_eq!(model.fingerprint(), resized.fingerprint());
    }

    #[test]
    fn worker_args_round_trip_the_backend() {
        for spec in [
            BackendSpec::Simulator,
            BackendSpec::Cached { capacity: 64 },
            BackendSpec::ModelServed {
                fallback_capacity: Some(128),
                model: ModelSpec::default(),
            },
            BackendSpec::ModelServed {
                fallback_capacity: None,
                model: ModelSpec {
                    gate_threshold: -0.25,
                    finetune_cadence: 3,
                    ..ModelSpec::default()
                },
            },
        ] {
            let scenario = dlrm_scenario(spec);
            let args = scenario.worker_args();
            for pair in args.chunks(2) {
                let name = pair[0].strip_prefix("--").expect("a --flag");
                assert!(
                    name == "domain" || EvalScenario::BACKEND_FLAGS.contains(&name),
                    "{args:?}"
                );
            }
            let flag = |name: &str| {
                let at = args
                    .iter()
                    .position(|a| a.strip_prefix("--") == Some(name))?;
                args.get(at + 1).map(String::as_str)
            };
            let parsed = EvalScenario::parse_backend_flags(flag).expect("worker args parse");
            let round = EvalScenario::new(flag("domain").expect("--domain"), parsed)
                .expect("worker args build a scenario");
            assert_eq!(
                std::mem::discriminant(&round.backend),
                std::mem::discriminant(&spec),
                "{args:?}"
            );
            if let (
                BackendSpec::ModelServed { model: theirs, .. },
                BackendSpec::ModelServed { model: ours, .. },
            ) = (round.backend, spec)
            {
                assert_eq!(theirs, ours, "{args:?}");
            }
            assert_eq!(round.fingerprint(), scenario.fingerprint(), "{args:?}");
        }
    }

    #[test]
    fn backend_flags_are_checked() {
        let parse = |pairs: &[(&str, &str)]| {
            EvalScenario::parse_backend_flags(|name: &str| {
                pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
            })
        };
        assert!(matches!(parse(&[]), Ok(BackendSpec::Cached { .. })));
        for (pairs, expected) in [
            (&[("eval-backend", "cache")][..], "bad --eval-backend"),
            (
                &[("gate-threshold", "1")][..],
                "requires --eval-backend model",
            ),
            (
                &[("eval-backend", "sim"), ("finetune-cadence", "4")][..],
                "requires --eval-backend model",
            ),
            (
                &[("eval-backend", "model"), ("gate-threshold", "x")][..],
                "bad --gate-threshold",
            ),
        ] {
            let err = parse(pairs).expect_err("bad backend flags");
            assert!(err.contains(expected), "{pairs:?}: {err}");
        }
    }

    #[test]
    fn arch_key_is_stable_under_shard_evaluator() {
        // The model backend's dedup store keys on the same canonical
        // arch_key the cache uses — spot-check the key is deterministic.
        let scenario = dlrm_scenario(BackendSpec::Simulator);
        let space = scenario.space();
        let sample = samples(&space, 1, 23).remove(0);
        assert_eq!(arch_key("dlrm", &sample), arch_key("dlrm", &sample));
    }
}
