//! Always-on metrics registry: lock-free-on-the-hot-path counters,
//! gauges and log2-bucketed histograms, registered process-wide by name.
//!
//! Unlike the span/trace recorder (which materializes nothing unless
//! `TIRAMISU_PROFILE` is on), these metrics are **always live**: a
//! [`Counter::inc`] is one relaxed `fetch_add`, a [`Histogram::record`]
//! is three. The registry itself (a mutex around a name map) is touched
//! only at registration and snapshot time — call sites cache the
//! returned `Arc` (typically in a `OnceLock`-initialized struct) so the
//! hot path never locks.
//!
//! # Histograms
//!
//! [`Histogram`] buckets values by `log2`: bucket 0 holds the value `0`,
//! bucket `b ≥ 1` holds `[2^(b-1), 2^b)`, and bucket 64 tops out at
//! `u64::MAX`. That makes `record` branch-free (a `leading_zeros`), keeps
//! the footprint fixed (65 atomics), and gives quantile estimates with
//! bounded relative error (the bucket midpoint is within 2× of any value
//! in it). [`HistogramSnapshot::merge`] is associative and commutative
//! (per-bucket wrapping adds), so per-thread or per-shard snapshots can
//! be folded in any order.
//!
//! # Naming
//!
//! Dotted lowercase paths, coarse-to-fine: `service.memory_hits`,
//! `vm.run_us.jit`, `jit.deopt.oob_load`, `dist.barrier_wait_us`. A
//! `_us` suffix marks microsecond histograms. Registering the same name
//! twice returns the same metric; registering it as a different kind
//! panics (a programming error, caught in tests).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// The log2 bucket index for a value: 0 for 0, `64 - leading_zeros`
/// otherwise (so 1 → bucket 1, 2..=3 → bucket 2, …, `u64::MAX` → 64).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value range of a bucket.
#[must_use]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < HIST_BUCKETS);
    if idx == 0 {
        return (0, 0);
    }
    let lo = 1u64 << (idx - 1);
    let hi = if idx == 64 { u64::MAX } else { (1u64 << idx) - 1 };
    (lo, hi)
}

// ---------------------------------------------------------------------------
// Metric types
// ---------------------------------------------------------------------------

/// A monotonically increasing event count. One relaxed `fetch_add` per
/// [`Counter::inc`]; safe to share across threads.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A zeroed counter (const, so counters can live in statics).
    #[must_use]
    pub const fn new() -> Counter {
        Counter { v: AtomicU64::new(0) }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A last-written-value metric (occupancy, queue depth, cumulative
/// values owned elsewhere). One relaxed store per [`Gauge::set`].
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub const fn new() -> Gauge {
        Gauge { v: AtomicU64::new(0) }
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// The last value set.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples (typically microseconds).
/// Three relaxed `fetch_add`s per [`Histogram::record`]: count, sum
/// (wrapping), and the bucket.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// Wrapping sum of all samples (wrapping keeps merges associative
    /// even with pathological inputs like `u64::MAX`).
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A zeroed histogram (const, so histograms can live in statics).
    #[must_use]
    pub const fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// A point-in-time copy of the distribution. Buckets are loaded
    /// individually (relaxed), so a snapshot taken during concurrent
    /// recording may be off by in-flight samples — never torn per bucket.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, mergeable and queryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Wrapping sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { count: 0, sum: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self`. Associative and commutative: counts and
    /// buckets add, sums wrap — merging per-thread snapshots in any order
    /// yields the same result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`): the midpoint of the
    /// bucket containing the `ceil(q·count)`-th sample. 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                let (lo, hi) = bucket_bounds(idx);
                return lo + (hi - lo) / 2;
            }
        }
        let (lo, hi) = bucket_bounds(HIST_BUCKETS - 1);
        lo + (hi - lo) / 2
    }

    /// Estimated median.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample (0 when empty; meaningless if the sum wrapped).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A registered metric of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn locked() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Returns the counter registered as `name`, creating it on first use.
///
/// # Panics
///
/// If `name` is already registered as a different metric kind.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    match locked()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
    {
        Metric::Counter(c) => Arc::clone(c),
        other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
    }
}

/// Returns the gauge registered as `name`, creating it on first use.
///
/// # Panics
///
/// If `name` is already registered as a different metric kind.
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    match locked()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
    }
}

/// Returns the histogram registered as `name`, creating it on first use.
///
/// # Panics
///
/// If `name` is already registered as a different metric kind.
#[must_use]
pub fn histogram(name: &str) -> Arc<Histogram> {
    match locked()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
    {
        Metric::Histogram(h) => Arc::clone(h),
        other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// The value of one registered metric at snapshot time.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A counter's count.
    Counter(u64),
    /// A gauge's last value.
    Gauge(u64),
    /// A histogram's distribution (boxed: the bucket array is large).
    Histogram(Box<HistogramSnapshot>),
}

/// Every registered metric, sorted by name, with its current value.
#[must_use]
pub fn snapshot() -> Vec<(String, MetricValue)> {
    locked()
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
            };
            (name.clone(), v)
        })
        .collect()
}

/// Renders [`snapshot`] as one JSON object: counters and gauges as
/// `{"type": ..., "value": n}`, histograms with count/sum/p50/p95/p99.
/// Hand-rolled like every exporter in the workspace (std only).
#[must_use]
pub fn snapshot_json() -> String {
    let mut parts = Vec::new();
    for (name, v) in snapshot() {
        let body = match v {
            MetricValue::Counter(n) => format!("{{\"type\":\"counter\",\"value\":{n}}}"),
            MetricValue::Gauge(n) => format!("{{\"type\":\"gauge\",\"value\":{n}}}"),
            MetricValue::Histogram(h) => format!(
                "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count,
                h.sum,
                h.p50(),
                h.p95(),
                h.p99()
            ),
        };
        parts.push(format!("{}:{}", crate::jstr(&name), body));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders [`snapshot`] as a human-readable table (the metrics analogue
/// of [`crate::Timeline::report`]).
#[must_use]
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "metric", "kind", "count/value", "p50", "p95", "p99"
    );
    for (name, v) in snapshot() {
        match v {
            MetricValue::Counter(n) => {
                let _ = writeln!(out, "{name:<34} {:>10} {n:>12}", "counter");
            }
            MetricValue::Gauge(n) => {
                let _ = writeln!(out, "{name:<34} {:>10} {n:>12}", "gauge");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "{name:<34} {:>10} {:>12} {:>10} {:>10} {:>10}",
                    "histogram",
                    h.count,
                    h.p50(),
                    h.p95(),
                    h.p99()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_cover_the_line() {
        let mut next = 0u64;
        for idx in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, next, "bucket {idx} must start where the last ended");
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            if hi == u64::MAX {
                assert_eq!(idx, HIST_BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // Log2 buckets: the p50 estimate must land within 2x of 50.
        let p50 = s.p50();
        assert!((32..=96).contains(&p50), "p50 estimate {p50} out of range");
        assert!(s.p99() >= s.p50());
        assert!((s.mean() - 50.5).abs() < f64::EPSILON);
    }

    #[test]
    fn registry_returns_one_instance_per_name() {
        let a = counter("test.metrics.one");
        let b = counter("test.metrics.one");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let h = histogram("test.metrics.hist");
        h.record(7);
        let json = snapshot_json();
        assert!(json.contains("\"test.metrics.one\":{\"type\":\"counter\",\"value\":1}"));
        assert!(json.contains("\"test.metrics.hist\""));
        assert!(render().contains("test.metrics.one"));
    }
}
