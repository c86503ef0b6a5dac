//! Metric instruments: counters, gauges, and log-linear histograms.
//!
//! All instruments are lock-free on the record path (atomics only) and
//! shared via `Arc` handles, so call sites cache a handle once and record
//! at nanosecond-scale cost from any thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of stripes in a [`Counter`]; increments from concurrent threads
/// land on different cache lines with high probability.
const COUNTER_STRIPES: usize = 16;

/// A cache-line-padded atomic cell (avoids false sharing between
/// stripes).
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, striped across cache lines.
///
/// `value()` sums the stripes, so totals are exact regardless of how many
/// threads incremented concurrently.
#[derive(Clone)]
pub struct Counter {
    stripes: Arc<[PaddedU64; COUNTER_STRIPES]>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A cheap per-thread stripe index: consecutive threads hash to different
/// stripes, so concurrent increments rarely contend.
fn stripe_index() -> usize {
    use std::cell::Cell;
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            idx = NEXT.fetch_add(1, Ordering::Relaxed) as usize % COUNTER_STRIPES;
            s.set(idx);
        }
        idx
    })
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self {
            stripes: Arc::new(std::array::from_fn(|_| PaddedU64::default())),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The exact current total.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Resets to zero (not atomic across stripes; callers quiesce first).
    pub fn reset(&self) {
        for s in self.stripes.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Histogram bucket layout: log-linear, base 2, with [`Histogram::SUBS`]
/// linear sub-buckets per octave.
///
/// Covers `2^MIN_EXP ..= 2^MAX_EXP` (~6e-8 .. ~7e13 at the defaults —
/// nanoseconds to days when recording seconds, and fine for raw counts),
/// with explicit underflow and overflow buckets at the ends.
const MIN_EXP: i32 = -24;
const MAX_EXP: i32 = 46;
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;

/// A thread-safe log-linear histogram with quantile estimation.
///
/// Recording is two relaxed atomic RMWs (bucket count + running sum);
/// quantiles are estimated at read time by walking the cumulative
/// distribution and are exact to within one bucket (≤ ~3% relative error
/// at 32 sub-buckets per octave).
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

struct HistogramCore {
    /// `[underflow, octave buckets..., overflow]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, as f64 bits updated via CAS.
    sum_bits: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={}, sum={})", self.count(), self.sum())
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Linear sub-buckets per power-of-two octave.
    pub const SUBS: usize = 32;

    /// A fresh, empty histogram.
    pub fn new() -> Self {
        let n = OCTAVES * Self::SUBS + 2;
        let buckets = (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramCore {
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
            }),
        }
    }

    /// Total number of buckets (including underflow/overflow).
    pub fn num_buckets() -> usize {
        OCTAVES * Self::SUBS + 2
    }

    /// Maps a value to its bucket index.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value < 2f64.powi(MIN_EXP) {
            return 0; // underflow (and NaN / negatives)
        }
        let exp = value.log2().floor() as i32;
        if exp >= MAX_EXP {
            return OCTAVES * Self::SUBS + 1; // overflow
        }
        let octave = (exp - MIN_EXP) as usize;
        let frac = value / 2f64.powi(exp); // in [1, 2)
        let sub = (((frac - 1.0) * Self::SUBS as f64) as usize).min(Self::SUBS - 1);
        1 + octave * Self::SUBS + sub
    }

    /// Upper bound of a bucket (inclusive representative for quantiles).
    pub fn bucket_upper_bound(index: usize) -> f64 {
        if index == 0 {
            return 2f64.powi(MIN_EXP);
        }
        let i = index - 1;
        if i >= OCTAVES * Self::SUBS {
            return f64::INFINITY;
        }
        let octave = i / Self::SUBS;
        let sub = i % Self::SUBS;
        2f64.powi(MIN_EXP + octave as i32) * (1.0 + (sub + 1) as f64 / Self::SUBS as f64)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: f64) {
        let idx = Self::bucket_index(value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            // f64 add via CAS; contention is rare (histograms are
            // typically recorded from few threads at ns intervals).
            let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + value).to_bits();
                match self.inner.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Times `f` and records its wall-clock duration in seconds.
    ///
    /// This is the sanctioned way for other crates to measure durations:
    /// the workspace bans `Instant::now` (a `disallowed-methods` entry in
    /// `clippy.toml`), so the clock read lives here, where resume
    /// determinism is already out of scope.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "the sanctioned timing path: the reading feeds this histogram only"
        )]
        let start = std::time::Instant::now();
        let out = f();
        self.record(start.elapsed().as_secs_f64());
        out
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() / c as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the rank, exact to within one bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        f64::INFINITY
    }

    /// Snapshot of non-empty buckets as `(upper_bound, count)` pairs, in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (Self::bucket_upper_bound(i), c))
            })
            .collect()
    }

    /// Resets all buckets (not atomic; callers quiesce first).
    pub fn reset(&self) {
        for b in self.inner.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.inner.count.store(0, Ordering::Relaxed);
        self.inner
            .sum_bits
            .store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A started wall-clock timer whose readings feed observability
/// instruments.
///
/// This is the second sanctioned clock access next to
/// [`Histogram::time`]: the workspace bans `Instant::now` (see
/// `clippy.toml`), but utilization metrics — a worker's busy vs idle
/// split, a cache lookup's hit vs miss latency — need a reading *before*
/// the destination instrument is known.
/// `Stopwatch` keeps the clock read inside this crate; by contract its
/// readings go into counters/gauges/histograms only, never into search
/// state, so resume determinism is unaffected.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts the timer now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned timing path: readings feed instruments only"
    )]
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_exactly() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.value(), -2.25);
    }

    #[test]
    fn histogram_mean_and_count() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 6.0).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_roundtrips_with_bounds() {
        for v in [1e-7, 1e-3, 0.5, 1.0, 1.5, 7.3, 1e4, 1e12] {
            let idx = Histogram::bucket_index(v);
            let upper = Histogram::bucket_upper_bound(idx);
            assert!(v <= upper, "{v} > upper {upper}");
            if idx > 0 {
                let lower = Histogram::bucket_upper_bound(idx - 1);
                assert!(v >= lower, "{v} < lower {lower} (idx {idx})");
            }
        }
    }

    #[test]
    fn quantile_of_uniform_values() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0);
        }
        let p50 = h.quantile(0.5);
        assert!(
            (p50 - 0.5).abs() < 0.5 / Histogram::SUBS as f64 * 2.0,
            "p50 {p50}"
        );
        let p99 = h.quantile(0.99);
        assert!((0.98..=1.05).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let secs = sw.elapsed_secs();
        assert!(secs >= 0.001, "read {secs}");
        assert!(sw.elapsed_secs() >= secs, "monotonically increasing");
    }

    #[test]
    fn extreme_values_fall_in_edge_buckets() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(1e300);
        assert_eq!(h.count(), 4);
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(1e300), Histogram::num_buckets() - 1);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }
}
