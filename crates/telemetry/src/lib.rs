#![warn(missing_docs)]

//! `telemetry` — the runtime observability layer of the reproduction:
//! span tracing, counters and instant events emitted by all three
//! executors (`loopvm`, `gpusim`, `mpisim`) and by the compile pipeline,
//! unified into one session timeline.
//!
//! # Design
//!
//! There is one event store: the per-thread rings of [`flight`]. Every
//! entry point appends its event once, to the calling thread's ring,
//! under that ring's own (uncontended) lock; no global lock is on the
//! record path. An event recorded while profiling is on is marked for
//! the next [`drain`], which reads every registered ring — running,
//! parked or exited threads alike — and returns the marked events.
//!
//! # Overhead guarantee
//!
//! When profiling is off (no `TIRAMISU_PROFILE`, no [`set_profiling`]
//! override), no event is materialized: the global
//! [`records_materialized`] counter moves only for events recorded while
//! profiling is on, so tests can assert the off path stayed silent,
//! exactly like the compile pipeline's `snapshot_renders()` guarantee.
//! The off path still writes the bounded ring — the always-on flight
//! recorder — whose cost on the fig1 sgemm hot path was measured below
//! the noise (EXPERIMENTS.md).
//!
//! # Always-on observability
//!
//! Two subsystems stay live regardless of `TIRAMISU_PROFILE`:
//!
//! - [`metrics`] — a process-wide registry of counters/gauges/
//!   log2-bucketed histograms (hit rates, queue waits, per-tier run
//!   latencies, deopt reasons), lock-free on the hot path;
//! - [`flight`] — the event store itself, read as a flight recorder:
//!   bounded per-thread rings of recent events, dumped (Chrome trace +
//!   metrics snapshot) to `TIRAMISU_DUMP_DIR` by failure sites via
//!   [`flight::dump`].
//!
//! # Event model
//!
//! Three event kinds, mirroring the Chrome trace-event format the
//! exporter targets:
//!
//! - **spans** (`ph:"X"`): a named duration on one thread, created with
//!   the RAII [`span`] guard or retroactively with [`span_with_wall`],
//! - **counters** (`ph:"C"`): a named sampled value (loop trip counts,
//!   instruction-class totals, bytes sent),
//! - **instants** (`ph:"i"`): a point event (fault injections, retries).
//!
//! [`drain`] collects everything profiled since the last drain into a
//! [`Timeline`], which renders as Chrome trace-event JSON
//! ([`Timeline::to_chrome_json`], loadable in Perfetto /
//! `chrome://tracing`) or as a human-readable aggregate table
//! ([`Timeline::report`]).

pub mod flight;
pub mod json;
pub mod metrics;

pub(crate) use json::jstr;

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI8, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Env flags
// ---------------------------------------------------------------------------

/// The one boolean environment-flag rule shared by every knob in the
/// workspace (`TIRAMISU_TRACE`, `TIRAMISU_PROFILE`, `LOOPVM_TREEWALK`):
/// the flag is **on** iff the variable is set to a non-empty value other
/// than `"0"`. In particular
/// `""` and `"0"` are both off, so `FLAG=0` reliably disables a flag a
/// wrapper script exported.
#[must_use]
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

/// -1 = follow the environment, 0 = forced off, 1 = forced on.
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// Whether profiling is currently enabled: the [`set_profiling`]
/// override if one is in force, otherwise the `TIRAMISU_PROFILE`
/// environment flag (per [`env_flag`] semantics). The environment is
/// read once and cached — this sits on every record path.
#[must_use]
pub fn profile_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => *ENV.get_or_init(|| env_flag("TIRAMISU_PROFILE")),
    }
}

/// Programmatically overrides profiling enablement: `Some(true)` /
/// `Some(false)` force it on/off regardless of the environment, `None`
/// returns control to `TIRAMISU_PROFILE`. Used by the `figures --
/// profile` harness and by tests that must not race on environment
/// variables.
pub fn set_profiling(on: Option<bool>) {
    OVERRIDE.store(match on { Some(false) => 0, Some(true) => 1, None => -1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Recorder internals
// ---------------------------------------------------------------------------

/// Events recorded under profiling since process start (never reset):
/// the observability analogue of the pipeline's `snapshot_renders()`.
/// Tests assert it does not move across a profiling-off run.
static MATERIALIZED: AtomicU64 = AtomicU64::new(0);

/// Number of telemetry events recorded with profiling on since process
/// start — the events a [`drain`] returns. Never moves while profiling is
/// off: the zero-overhead-when-off guarantee, in testable form.
#[must_use]
pub fn records_materialized() -> u64 {
    MATERIALIZED.load(Ordering::Relaxed)
}

/// Session epoch: all timestamps are microseconds since the first
/// telemetry use in the process, so compile-time and runtime spans share
/// one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Stores one event in the calling thread's ring, marked for the next
/// [`drain`] (and counted by [`records_materialized`]) when profiling is
/// on.
fn record(cat: &'static str, name: Cow<'static, str>, ts_us: u64, kind: EventKind) {
    let profiled = profile_enabled();
    if profiled {
        MATERIALIZED.fetch_add(1, Ordering::Relaxed);
    }
    flight::record(cat, name, ts_us, kind, profiled);
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A duration on one thread (Chrome `ph:"X"`).
    Span {
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point event (Chrome `ph:"i"`).
    Instant,
    /// A sampled value (Chrome `ph:"C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
    /// A thread label (Chrome `ph:"M"` `thread_name` metadata); the label
    /// is the event's `name`.
    ThreadName,
}

/// One recorded telemetry event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Category (e.g. `"compile"`, `"vm"`, `"gpu"`, `"dist"`, `"fault"`).
    pub cat: &'static str,
    /// Event name.
    pub name: Cow<'static, str>,
    /// Start timestamp, microseconds since the session epoch.
    pub ts_us: u64,
    /// Recording thread (session-unique id, stable per thread).
    pub tid: u64,
    /// Kind and kind-specific payload.
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Recording entry points
// ---------------------------------------------------------------------------

/// An RAII span guard: records a [`EventKind::Span`] from construction
/// ([`span`]) to drop.
#[must_use = "a span measures until dropped; binding it to `_` drops it immediately"]
pub struct Span {
    start: u64,
    cat: &'static str,
    name: Cow<'static, str>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = now_us().saturating_sub(self.start);
        record(self.cat, std::mem::take(&mut self.name), self.start, EventKind::Span { dur_us: dur });
    }
}

/// Opens a span on the current thread; the span closes (and is recorded)
/// when the returned guard drops.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    Span { start: now_us(), cat, name: name.into() }
}

/// Records a span that ends now and lasted `wall` — for call sites that
/// already measured a duration (e.g. the compile pipeline's per-pass
/// timing).
pub fn span_with_wall(cat: &'static str, name: impl Into<Cow<'static, str>>, wall: Duration) {
    let dur = wall.as_micros() as u64;
    let start = now_us().saturating_sub(dur);
    record(cat, name.into(), start, EventKind::Span { dur_us: dur });
}

/// Records a counter sample.
pub fn counter(cat: &'static str, name: impl Into<Cow<'static, str>>, value: f64) {
    record(cat, name.into(), now_us(), EventKind::Counter { value });
}

/// Records an instant (point) event.
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    record(cat, name.into(), now_us(), EventKind::Instant);
}

/// Labels the current thread in the exported timeline (e.g. `"rank 3"`).
pub fn set_thread_name(name: impl Into<Cow<'static, str>>) {
    record("meta", name.into(), now_us(), EventKind::ThreadName);
}

/// Collects every event recorded with profiling on since the previous
/// drain, on every thread — running, parked or exited — into a
/// [`Timeline`]. The events stay in their threads' rings for
/// [`flight::dump`]; a later drain does not return them again.
#[must_use]
pub fn drain() -> Timeline {
    Timeline { events: flight::drain() }
}

// ---------------------------------------------------------------------------
// Timeline + exporters
// ---------------------------------------------------------------------------

/// A drained session timeline: all events, sorted by timestamp.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// The events, ordered by (`ts_us`, `tid`).
    pub events: Vec<Event>,
}

impl Timeline {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Renders the timeline as Chrome trace-event JSON — an object with a
    /// `traceEvents` array — loadable in Perfetto or `chrome://tracing`.
    /// Thread-name metadata is emitted first; all other events follow in
    /// timestamp order.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
            self.chrome_trace_events()
        )
    }

    /// The comma-joined body of the `traceEvents` array, without the
    /// wrapping object — shared by [`Timeline::to_chrome_json`] and the
    /// flight recorder's dump format (which adds its own top-level keys).
    pub(crate) fn chrome_trace_events(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.events.len());
        for e in self.events.iter().filter(|e| e.kind == EventKind::ThreadName) {
            parts.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                e.tid,
                jstr(&e.name)
            ));
        }
        for e in &self.events {
            let head = format!(
                "\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\"ts\":{}",
                jstr(&e.name),
                jstr(e.cat),
                e.tid,
                e.ts_us
            );
            match e.kind {
                EventKind::Span { dur_us } => {
                    parts.push(format!("{{\"ph\":\"X\",{head},\"dur\":{dur_us}}}"));
                }
                EventKind::Instant => {
                    parts.push(format!("{{\"ph\":\"i\",{head},\"s\":\"t\"}}"));
                }
                EventKind::Counter { value } => {
                    parts.push(format!(
                        "{{\"ph\":\"C\",{head},\"args\":{{\"value\":{}}}}}",
                        jnum(value)
                    ));
                }
                EventKind::ThreadName => {}
            }
        }
        parts.join(",\n")
    }

    /// Writes [`Timeline::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying write.
    pub fn write_chrome(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Writes the timeline, unless it is empty, as Chrome trace JSON to
    /// the path in `TIRAMISU_PROFILE_OUT` (or `default_path` when unset).
    /// Returns the path written to, if any; a failed write is reported on
    /// stderr.
    pub fn export(&self, default_path: &str) -> Option<std::path::PathBuf> {
        if self.is_empty() {
            return None;
        }
        let path = std::env::var("TIRAMISU_PROFILE_OUT")
            .ok()
            .filter(|p| !p.is_empty())
            .unwrap_or_else(|| default_path.to_string());
        let path = std::path::PathBuf::from(path);
        match self.write_chrome(&path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("telemetry: failed to write {}: {e}", path.display());
                None
            }
        }
    }

    /// Renders a human-readable aggregate table: spans grouped by
    /// (category, name) with count/total/mean/max duration columns
    /// sorted by total time (so a 256-case differential run collapses to
    /// one row per span name instead of a flat listing), counters with
    /// sample count, last value and sum, instants with counts.
    #[must_use]
    pub fn report(&self) -> String {
        use std::collections::BTreeMap;
        let mut spans: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
        let mut counters: BTreeMap<(&str, &str), (u64, f64, f64)> = BTreeMap::new();
        let mut instants: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for e in &self.events {
            let key = (e.cat, e.name.as_ref());
            match e.kind {
                EventKind::Span { dur_us } => {
                    let s = spans.entry(key).or_default();
                    s.0 += 1;
                    s.1 += dur_us;
                    s.2 = s.2.max(dur_us);
                }
                EventKind::Counter { value } => {
                    let c = counters.entry(key).or_default();
                    c.0 += 1;
                    c.1 = value;
                    c.2 += value;
                }
                EventKind::Instant => *instants.entry(key).or_default() += 1,
                EventKind::ThreadName => {}
            }
        }
        let mut out = String::new();
        if !spans.is_empty() {
            let _ = writeln!(out, "{:<10} {:<32} {:>8} {:>12} {:>10} {:>10}", "cat", "span", "count", "total(us)", "mean(us)", "max(us)");
            let mut rows: Vec<_> = spans.into_iter().collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1 .1));
            for ((cat, name), (n, total, max)) in rows {
                let _ = writeln!(out, "{:<10} {:<32} {:>8} {:>12} {:>10} {:>10}", cat, name, n, total, total / n.max(1), max);
            }
        }
        if !counters.is_empty() {
            let _ = writeln!(out, "{:<10} {:<32} {:>8} {:>12} {:>12}", "cat", "counter", "count", "last", "sum");
            for ((cat, name), (n, last, sum)) in counters {
                let _ = writeln!(out, "{:<10} {:<32} {:>8} {:>12} {:>12}", cat, name, n, jnum(last), jnum(sum));
            }
        }
        if !instants.is_empty() {
            let _ = writeln!(out, "{:<10} {:<32} {:>8}", "cat", "instant", "count");
            for ((cat, name), n) in instants {
                let _ = writeln!(out, "{:<10} {:<32} {:>8}", cat, name, n);
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

/// Drains the timeline and [`Timeline::export`]s it — but only when
/// profiling is enabled. Returns the path written to, if any. This is the
/// one-call exit hook examples use.
pub fn export_if_enabled(default_path: &str) -> Option<std::path::PathBuf> {
    if !profile_enabled() {
        return None;
    }
    drain().export(default_path)
}

/// Finite-number JSON rendering (integers render without a fraction).
fn jnum(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests here toggle the process-wide override; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn env_flag_rule() {
        let _g = locked();
        std::env::remove_var("TELEMETRY_TEST_FLAG");
        assert!(!env_flag("TELEMETRY_TEST_FLAG"));
        std::env::set_var("TELEMETRY_TEST_FLAG", "");
        assert!(!env_flag("TELEMETRY_TEST_FLAG"));
        std::env::set_var("TELEMETRY_TEST_FLAG", "0");
        assert!(!env_flag("TELEMETRY_TEST_FLAG"));
        std::env::set_var("TELEMETRY_TEST_FLAG", "1");
        assert!(env_flag("TELEMETRY_TEST_FLAG"));
        std::env::set_var("TELEMETRY_TEST_FLAG", "yes");
        assert!(env_flag("TELEMETRY_TEST_FLAG"));
        std::env::remove_var("TELEMETRY_TEST_FLAG");
    }

    #[test]
    fn off_materializes_nothing() {
        let _g = locked();
        set_profiling(Some(false));
        let before = records_materialized();
        let _s = span("t", "noop");
        drop(_s);
        counter("t", "c", 1.0);
        instant("t", "i");
        set_thread_name("nope");
        span_with_wall("t", "w", Duration::from_millis(1));
        assert_eq!(records_materialized(), before);
        set_profiling(None);
    }

    #[test]
    fn on_records_and_drains() {
        let _g = locked();
        set_profiling(Some(true));
        let _ = drain();
        let before = records_materialized();
        {
            let _s = span("t", "outer");
            counter("t", "c", 2.5);
            instant("t", "i");
        }
        let tl = drain();
        assert_eq!(tl.len(), 3);
        assert!(records_materialized() >= before + 3);
        let json = tl.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(tl.report().contains("outer"));
        set_profiling(None);
        let _ = drain();
    }

    #[test]
    fn flight_records_without_materializing() {
        let _g = locked();
        set_profiling(Some(false));
        let before = records_materialized();
        let (_, t0) = flight::current_thread_ring_stats();
        {
            let _s = span("t", "flight-only");
        }
        instant("t", "i");
        let (_, t1) = flight::current_thread_ring_stats();
        assert_eq!(records_materialized(), before, "flight writes must not materialize");
        assert!(t1 >= t0 + 2, "ring should have recorded the span and instant");
        set_profiling(None);
    }

    #[test]
    fn report_aggregates_spans_with_max_column() {
        let mut tl = Timeline::default();
        for dur in [5u64, 9, 1] {
            tl.events.push(Event {
                cat: "t",
                name: "agg".into(),
                ts_us: 0,
                tid: 1,
                kind: EventKind::Span { dur_us: dur },
            });
        }
        let rep = tl.report();
        let row = rep.lines().find(|l| l.contains("agg")).expect("aggregated row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols, ["t", "agg", "3", "15", "5", "9"], "count/total/mean/max");
    }

    #[test]
    fn renders_json_numbers() {
        assert_eq!(jnum(3.0), "3");
        assert_eq!(jnum(3.5), "3.5");
    }
}
