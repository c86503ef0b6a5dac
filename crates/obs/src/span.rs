//! RAII span timers with hierarchical paths and a trace-event buffer.
//!
//! A [`SpanGuard`] measures wall-clock time from construction to drop. The
//! enclosing span names are tracked per thread, so a guard knows its full
//! path (e.g. `search_step/policy_sample`) and both the per-path duration
//! histogram and the Chrome-trace buffer see properly nested events.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::registry::Registry;

/// One completed span, in microseconds relative to the tracer epoch.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Full `/`-joined span path.
    pub path: String,
    /// Start offset from the tracer epoch, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Stable id of the recording thread.
    pub tid: u64,
}

struct TracerCore {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    /// Spans beyond this are counted but dropped, bounding memory on long
    /// runs.
    capacity: usize,
    dropped: AtomicU64,
}

/// Collects completed spans for Chrome-trace export and mirrors their
/// durations into a [`Registry`] histogram per path
/// (`span_seconds{path=...}` — see the exporters).
#[derive(Clone)]
pub struct Tracer {
    core: Arc<TracerCore>,
    registry: Registry,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(events={})", self.core.events.lock().len())
    }
}

thread_local! {
    /// Stack of span names currently open on this thread.
    static PATH_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A small, stable per-thread id for trace events (std ThreadId is opaque).
fn thread_id() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    }
    TID.with(|t| {
        let mut id = t.get();
        if id == u64::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(1);
            id = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

impl Tracer {
    /// Default cap on buffered span events.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A tracer that mirrors span durations into `registry`.
    pub fn new(registry: Registry) -> Self {
        Self::with_capacity(registry, Self::DEFAULT_CAPACITY)
    }

    /// Like [`Tracer::new`] with an explicit event-buffer cap.
    #[expect(
        clippy::disallowed_methods,
        reason = "the trace epoch: span timings feed the trace export and histograms only, never search state"
    )]
    pub fn with_capacity(registry: Registry, capacity: usize) -> Self {
        Self {
            core: Arc::new(TracerCore {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                capacity,
                dropped: AtomicU64::new(0),
            }),
            registry,
        }
    }

    /// Opens a span named `name`, nested under any span already open on
    /// this thread. Close it by dropping the guard.
    #[expect(
        clippy::disallowed_methods,
        reason = "span timings feed the trace export and histograms only, never search state"
    )]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        PATH_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            tracer: self.clone(),
            start: Instant::now(),
            closed: false,
        }
    }

    /// Times `f`, recording it as a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    /// Number of spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }

    /// Drains and returns all buffered span events, oldest first.
    pub fn drain_events(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.core.events.lock())
    }

    /// Copies the buffered span events without draining them.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.core.events.lock().clone()
    }

    fn finish(&self, start: Instant) {
        #[expect(
            clippy::disallowed_methods,
            reason = "span timings feed the trace export and histograms only, never search state"
        )]
        let end = Instant::now();
        let dur = end.duration_since(start);
        let path = PATH_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        self.registry.record(
            &format!("span_seconds{{path=\"{path}\"}}"),
            dur.as_secs_f64(),
        );
        let mut events = self.core.events.lock();
        if events.len() >= self.core.capacity {
            self.core.dropped.fetch_add(1, Ordering::Relaxed);
            // Also surfaced as a registry counter so silent trace loss is
            // visible in Prometheus/JSON exports. Looked up per drop (not
            // cached) so the series re-registers after a registry reset.
            self.registry.inc("h2o_obs_spans_dropped_total");
            return;
        }
        let start_us = start.saturating_duration_since(self.core.epoch).as_micros() as u64;
        events.push(SpanEvent {
            path,
            start_us,
            dur_us: dur.as_micros() as u64,
            tid: thread_id(),
        });
    }
}

/// Closes its span when dropped.
#[must_use = "a span measures until the guard drops; binding to `_` closes it immediately"]
pub struct SpanGuard {
    tracer: Tracer,
    start: Instant,
    closed: bool,
}

impl SpanGuard {
    /// Elapsed time since the span opened.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Closes the span now and returns its duration in seconds.
    pub fn finish(mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.closed = true;
        self.tracer.finish(self.start);
        secs
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            self.tracer.finish(self.start);
        }
    }
}

/// The process-global tracer, mirroring into the global registry.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(crate::registry::global().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_paths() {
        let r = Registry::new();
        let t = Tracer::new(r.clone());
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let mut events = t.drain_events();
        events.sort_by_key(|e| e.path.clone());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].path, "outer");
        assert_eq!(events[1].path, "outer/inner");
        // Inner closed first, so it nests inside the outer interval.
        let outer = &events[0];
        let inner = &events[1];
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
    }

    #[test]
    fn span_durations_land_in_registry() {
        let r = Registry::new();
        let t = Tracer::new(r.clone());
        t.time("work", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let snap = r.snapshot();
        let h = &snap.histograms["span_seconds{path=\"work\"}"];
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.002, "recorded {}", h.sum);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let r = Registry::new();
        let t = Tracer::with_capacity(r.clone(), 2);
        for _ in 0..5 {
            t.time("x", || {});
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(
            r.snapshot().counters["h2o_obs_spans_dropped_total"],
            3,
            "drops are visible in exports, not just the accessor"
        );
    }

    #[test]
    fn dropped_counter_reregisters_after_reset() {
        let r = Registry::new();
        let t = Tracer::with_capacity(r.clone(), 1);
        t.time("x", || {});
        t.time("x", || {});
        r.reset();
        t.time("x", || {});
        assert_eq!(
            r.snapshot().counters["h2o_obs_spans_dropped_total"],
            1,
            "post-reset drops appear in fresh snapshots"
        );
    }

    #[test]
    fn explicit_finish_returns_duration() {
        let r = Registry::new();
        let t = Tracer::new(r);
        let g = t.span("timed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let secs = g.finish();
        assert!(secs >= 0.001);
        assert_eq!(t.events().len(), 1);
    }
}
