//! # h2o-obs — metrics and span tracing for the H2O-NAS stack
//!
//! A zero-external-dependency observability layer (only `parking_lot`
//! from the workspace). Three pieces:
//!
//! - **Metrics** ([`metrics`], [`registry`]): named counters, gauges, and
//!   log-linear histograms with p50/p95/p99 estimation. Recording is
//!   atomics-only; counters are cache-line-striped so concurrent search
//!   shards don't contend.
//! - **Spans** ([`mod@span`]): RAII wall-clock timers with hierarchical
//!   per-thread paths (`search_step/policy_sample`). Durations mirror into
//!   the registry as histograms; completed spans buffer for trace export.
//! - **Exporters** ([`export`]): Prometheus text exposition, JSON
//!   snapshot, and Chrome trace-event JSON (loadable in Perfetto).
//!
//! Instrumented crates use the process-global instances via the free
//! functions here:
//!
//! ```
//! let _step = h2o_obs::span("search_step");
//! h2o_obs::counter("h2o_core_steps_total").inc();
//! h2o_obs::gauge("h2o_core_mean_reward").set(0.42);
//! h2o_obs::histogram("h2o_hwsim_walk_seconds").record(1.3e-5);
//! let prom = h2o_obs::export::to_prometheus(&h2o_obs::snapshot());
//! assert!(prom.contains("h2o_core_steps_total 1"));
//! ```
//!
//! Hot loops should hoist the instrument handle out of the loop — handles
//! are `Clone` and record lock-free:
//!
//! ```
//! let walks = h2o_obs::counter("walks_total");
//! for _ in 0..1_000 {
//!     walks.inc();
//! }
//! assert_eq!(walks.value(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

pub mod export;
pub mod metrics;
pub mod registry;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, Stopwatch};
pub use registry::{HistogramSnapshot, Registry, Snapshot};
pub use span::{SpanEvent, SpanGuard, Tracer};

/// The counter `name` in the global registry.
pub fn counter(name: &str) -> Counter {
    registry::global().counter(name)
}

/// The gauge `name` in the global registry.
pub fn gauge(name: &str) -> Gauge {
    registry::global().gauge(name)
}

/// The histogram `name` in the global registry.
pub fn histogram(name: &str) -> Histogram {
    registry::global().histogram(name)
}

/// Opens a span on the global tracer; close it by dropping the guard.
pub fn span(name: &'static str) -> SpanGuard {
    span::global().span(name)
}

/// Times `f` as a span on the global tracer.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span::global().time(name, f)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Drains the global tracer's buffered span events.
pub fn drain_spans() -> Vec<SpanEvent> {
    span::global().drain_events()
}

/// Resets the global registry (between experiments). Span-event buffers
/// are drained as a side effect so traces don't leak across runs.
pub fn reset() {
    registry::global().reset();
    span::global().drain_events();
}
