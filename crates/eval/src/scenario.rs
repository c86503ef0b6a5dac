//! Evaluation scenarios: the domain + backend recipe both sides of a
//! search agree on.
//!
//! A *scenario* ([`EvalScenario`]) is everything a process needs to
//! evaluate candidates exactly like every other process of the same run:
//! the search domain, its decode/quality/simulation stack, and the
//! [`BackendSpec`] that selects how candidate costs are produced
//! (simulated, memoized, or model-served). Both sides of a multi-process
//! run construct the scenario from the same CLI flags, so the
//! controller's [`EvalScenario::fingerprint`] and a worker's agree — and
//! a worker launched against the wrong domain *or a different
//! value-affecting backend* fails the transport handshake with a typed
//! `ScenarioMismatch` instead of silently returning numbers from a
//! different search.

use crate::backend::{BackendSpec, EvalBackend, ModelSpec};
use h2o_core::EvalResult;
use h2o_hwsim::{arch_key, SystemConfig};
use h2o_models::quality::{DatasetScale, DlrmQualityModel, VisionQualityModel};
use h2o_space::{
    ArchSample, CnnSpace, CnnSpaceConfig, DlrmSpace, DlrmSpaceConfig, SearchSpace, VitSpace,
    VitSpaceConfig,
};

/// The search domains with a stateless per-candidate evaluator (the
/// domains of `h2o search`; `dlrm-oneshot` trains a shared supernet and
/// cannot be sharded across processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// EfficientNet-style CNN space, vision quality surrogate.
    Cnn,
    /// Production DLRM space (truncated to 40 tables), DLRM quality model.
    Dlrm,
    /// Pure ViT space, vision quality surrogate.
    Vit,
}

impl Domain {
    /// Parses a `--domain` value; `None` for domains without a stateless
    /// evaluator.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cnn" => Some(Domain::Cnn),
            "dlrm" => Some(Domain::Dlrm),
            "vit" => Some(Domain::Vit),
            _ => None,
        }
    }

    /// The CLI name of the domain.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Cnn => "cnn",
            Domain::Dlrm => "dlrm",
            Domain::Vit => "vit",
        }
    }
}

/// The production DLRM space the CLI searches (truncated to 40 tables,
/// matching the single-process arm).
pub(crate) fn dlrm_space() -> DlrmSpace {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(40);
    DlrmSpace::new(config)
}

/// Entries of the eval cache behind the `cached` backend and the model
/// backend's fallback, as [`EvalScenario::parse_backend_flags`] builds
/// them. Capacity is value-invisible memoization, so no flag sets it.
const CACHE_CAPACITY: usize = 4096;

/// The evaluation recipe both sides of a multi-process run agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalScenario {
    /// The search domain.
    pub domain: Domain,
    /// How candidate costs are produced. Cache capacities inside the spec
    /// are value-invisible memoization and *excluded* from the handshake
    /// fingerprint — cache-on and cache-off processes may legally
    /// interoperate. Model parameters change served values and are
    /// included.
    pub backend: BackendSpec,
}

impl EvalScenario {
    /// Builds the scenario from CLI flag values.
    ///
    /// # Errors
    ///
    /// Rejects domains that have no stateless per-candidate evaluator,
    /// invalid backend parameters, and domain/backend combinations the
    /// factory does not support (the model backend serves DLRM only).
    pub fn new(domain: &str, backend: BackendSpec) -> Result<Self, String> {
        let domain = Domain::parse(domain).ok_or_else(|| {
            format!("domain '{domain}' cannot run multi-process (needs a stateless evaluator)")
        })?;
        backend.validate()?;
        if matches!(backend, BackendSpec::ModelServed { .. }) && domain != Domain::Dlrm {
            return Err(format!(
                "--eval-backend model does not support the {} domain: its quality \
                 surrogate consumes simulated parameter counts, which the \
                 performance model does not predict (use dlrm, or sim|cached)",
                domain.name()
            ));
        }
        Ok(Self { domain, backend })
    }

    /// The decision space this scenario searches — identical to the space
    /// the single-process `h2o search` arm builds for the same domain.
    pub fn space(&self) -> SearchSpace {
        match self.domain {
            Domain::Cnn => CnnSpace::new(CnnSpaceConfig::default()).space().clone(),
            Domain::Dlrm => dlrm_space().space().clone(),
            Domain::Vit => VitSpace::new(VitSpaceConfig::pure()).space().clone(),
        }
    }

    /// The handshake fingerprint: domain identity, the shape of its
    /// decision space, and the backend's value-affecting parameters, so a
    /// controller never exchanges jobs with a worker returning different
    /// numbers. Sim and cached backends share a fingerprint (memoization
    /// is value-invisible); every model parameter changes it.
    pub fn fingerprint(&self) -> u64 {
        let space = self.space();
        let descriptor = format!(
            "h2o-eval-scenario|{}|{}|{:.3}{}",
            self.domain.name(),
            space.num_decisions(),
            space.log10_size(),
            self.backend.value_descriptor()
        );
        h2o_exec::wire::fnv1a(descriptor.as_bytes())
    }

    /// The backend's contribution to *checkpoint* identity: zero for the
    /// value-equivalent sim/cached backends (their checkpoints stay
    /// mutually resumable, as before this layer existed), a nonzero hash
    /// of the model parameters otherwise. XOR into the search-config
    /// fingerprint.
    pub fn value_fingerprint(&self) -> u64 {
        let descriptor = self.backend.value_descriptor();
        if descriptor.is_empty() {
            0
        } else {
            h2o_exec::wire::fnv1a(descriptor.as_bytes())
        }
    }

    /// Builds this scenario's backend through the single
    /// `BackendSpec → EvalBackend` factory. Build once per process and
    /// clone into each shard (clones share cache and fine-tuning state).
    ///
    /// # Errors
    ///
    /// See [`EvalBackend::build`].
    pub fn backend(&self) -> Result<EvalBackend, String> {
        EvalBackend::build(&self.backend, self.domain)
    }

    /// The backend flags, without their leading `--`, that
    /// [`EvalScenario::parse_backend_flags`] reads and
    /// [`EvalScenario::worker_args`] renders.
    pub const BACKEND_FLAGS: [&'static str; 3] =
        ["eval-backend", "gate-threshold", "finetune-cadence"];

    /// Parses the backend flags of `h2o search` and `h2o node-worker`:
    /// `--eval-backend sim|cached|model` (default `cached`) and, for the
    /// model backend only, `--gate-threshold` and `--finetune-cadence`.
    /// `flag(name)` is the value of `--name`, or `None` when it is absent.
    /// The cached backend and the model backend's fallback memoize through
    /// a fixed 4096-entry cache.
    ///
    /// # Errors
    ///
    /// An unknown backend, a value that does not parse, a model flag
    /// without `--eval-backend model`, or a spec
    /// [`BackendSpec::validate`] rejects.
    pub fn parse_backend_flags<'a>(
        flag: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<BackendSpec, String> {
        fn value<T: std::str::FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
            raw.map(|v| v.parse().map_err(|_| format!("bad --{name}")))
                .transpose()
        }
        let gate_threshold = value::<f64>("gate-threshold", flag("gate-threshold"))?;
        let finetune_cadence = value::<usize>("finetune-cadence", flag("finetune-cadence"))?;
        let spec = match flag("eval-backend").unwrap_or("cached") {
            "sim" => BackendSpec::Simulator,
            "cached" => BackendSpec::Cached {
                capacity: CACHE_CAPACITY,
            },
            "model" => {
                let defaults = ModelSpec::default();
                BackendSpec::ModelServed {
                    fallback_capacity: Some(CACHE_CAPACITY),
                    model: ModelSpec {
                        gate_threshold: gate_threshold.unwrap_or(defaults.gate_threshold),
                        finetune_cadence: finetune_cadence.unwrap_or(defaults.finetune_cadence),
                        ..defaults
                    },
                }
            }
            other => return Err(format!("bad --eval-backend '{other}' (sim|cached|model)")),
        };
        if !matches!(spec, BackendSpec::ModelServed { .. }) {
            if gate_threshold.is_some() {
                return Err("--gate-threshold requires --eval-backend model".into());
            }
            if finetune_cadence.is_some() {
                return Err("--finetune-cadence requires --eval-backend model".into());
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The `node-worker` CLI arguments that reconstruct this scenario in a
    /// spawned subprocess: `--domain` plus the backend flags
    /// [`EvalScenario::parse_backend_flags`] reads. Cache capacities are
    /// not forwarded: memoization is value-invisible, so a worker's cache
    /// need not match the controller's.
    pub fn worker_args(&self) -> Vec<String> {
        let backend = match self.backend {
            BackendSpec::Simulator => "sim",
            BackendSpec::Cached { .. } => "cached",
            BackendSpec::ModelServed { .. } => "model",
        };
        let mut args: Vec<String> = ["--domain", self.domain.name(), "--eval-backend", backend]
            .map(String::from)
            .into();
        if let BackendSpec::ModelServed { model, .. } = self.backend {
            args.extend([
                "--gate-threshold".to_string(),
                model.gate_threshold.to_string(),
                "--finetune-cadence".to_string(),
                model.finetune_cadence.to_string(),
            ]);
        }
        args
    }

    /// Builds one shard's evaluator: the pure
    /// `sample → (quality, perf_values)` function both the in-process
    /// `ParallelStage` and a worker's serve loop run. `backend` is a
    /// handle built by [`EvalScenario::backend`]; clones share memoization
    /// and fine-tuning state.
    pub fn shard_evaluator(
        &self,
        backend: &EvalBackend,
    ) -> Box<dyn FnMut(&ArchSample) -> EvalResult + Send> {
        let backend = backend.clone();
        match self.domain {
            Domain::Cnn => {
                let space = CnnSpace::new(CnnSpaceConfig::default());
                let quality = VisionQualityModel::new(DatasetScale::Medium);
                Box::new(move |sample: &ArchSample| {
                    let arch = space.decode(sample);
                    let cost = backend.training_cost(
                        sample,
                        arch_key("cnn", sample),
                        &SystemConfig::training_pod(),
                        || arch.build_graph(64),
                    );
                    EvalResult {
                        quality: quality.accuracy_of_cnn(&arch, cost.params / 1e6),
                        perf_values: vec![cost.latency],
                    }
                })
            }
            Domain::Dlrm => {
                let space = dlrm_space();
                let base = space.decode(&space.baseline());
                let quality = DlrmQualityModel::new(&base, 85.0);
                Box::new(move |sample: &ArchSample| {
                    let arch = space.decode(sample);
                    let cost = backend.training_cost(
                        sample,
                        arch_key("dlrm", sample),
                        &SystemConfig::training_pod(),
                        || arch.build_graph(64, 128),
                    );
                    EvalResult {
                        quality: quality.quality(&arch),
                        perf_values: vec![cost.latency],
                    }
                })
            }
            Domain::Vit => {
                let space = VitSpace::new(VitSpaceConfig::pure());
                let quality = VisionQualityModel::new(DatasetScale::Medium);
                Box::new(move |sample: &ArchSample| {
                    let arch = space.decode(sample);
                    let cost = backend.training_cost(
                        sample,
                        arch_key("vit", sample),
                        &SystemConfig::training_pod(),
                        || arch.build_graph(32, 512),
                    );
                    EvalResult {
                        quality: quality.accuracy_of_vit(&arch, cost.params / 1e6),
                        perf_values: vec![cost.latency],
                    }
                })
            }
        }
    }

    /// Renders the decoded best architecture the way the single-process
    /// search arm prints it.
    pub fn describe_best(&self, best: &ArchSample) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self.domain {
            Domain::Cnn => {
                let space = CnnSpace::new(CnnSpaceConfig::default());
                let arch = space.decode(best);
                let _ = writeln!(out, "best: resolution {}, blocks:", arch.resolution);
                for (i, b) in arch.blocks.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  {i}: {:?} k{} e{} d{} w{}",
                        b.block_type, b.kernel, b.expansion, b.depth, b.width
                    );
                }
            }
            Domain::Dlrm => {
                let space = dlrm_space();
                let arch = space.decode(best);
                let _ = writeln!(
                    out,
                    "best: {} tables totalling {:.0}M embedding params, {} MLP groups, size {:.1} MB",
                    arch.tables.len(),
                    arch.embedding_params() / 1e6,
                    arch.mlp_groups.len(),
                    arch.model_size_bytes() / 1e6
                );
            }
            Domain::Vit => {
                let space = VitSpace::new(VitSpaceConfig::pure());
                let arch = space.decode(best);
                for (i, b) in arch.tfm_blocks.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  block {i}: hidden {} x{} layers, {:?}, rank {:.1}, pool={}, primer={}",
                        b.hidden, b.layers, b.act, b.low_rank, b.seq_pool, b.primer
                    );
                }
            }
        }
        // The arms above end with writeln!, so trim the trailing newline
        // for println!-style use.
        out.truncate(out.trim_end().len());
        out
    }
}
