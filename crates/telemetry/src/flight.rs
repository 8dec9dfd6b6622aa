//! The one event store: a per-thread ring of recent telemetry events,
//! read by [`crate::drain`] and dumped to disk on failure.
//!
//! Every [`crate::span`] / [`crate::instant`] / [`crate::counter`] call
//! lands once, in the calling thread's ring. With profiling off the ring
//! is bounded (overwrite-oldest), so when something goes wrong the
//! process still has the last ~[`DEFAULT_RING_CAPACITY`] events per
//! thread. An event recorded with profiling on is also marked for the
//! next [`crate::drain`], and the ring keeps it beside those
//! `capacity` events until a drain has returned it. Every ring is registered when its thread first
//! records, so a drain reads running, parked and exited threads alike.
//!
//! Failure sites — a `DistError::Deadlock`, a rank panic, a corrupt disk
//! artifact — call [`dump`], which merges every thread's ring into one
//! Chrome-trace JSON file (plus a [`crate::metrics`] snapshot) under
//! `TIRAMISU_DUMP_DIR`, turning "it hung once" into an attachable
//! artifact. A drain does not empty the rings, so a dump after a drain
//! still holds each thread's recent past.

use crate::{jstr, Event, EventKind, Timeline};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Events retained per thread (~80 bytes each) unless a test overrides it
/// with [`set_ring_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Total dump files one process may write (guards against a failure
/// storm — e.g. a suite deadlocking hundreds of runs — filling the dump
/// directory).
const MAX_DUMPS: u64 = 32;

/// Registered rings kept after their threads die; beyond this the oldest
/// dead rings are pruned so short-lived worker threads (ranks, parallel
/// loop workers) can't grow memory without bound. A ring still holding
/// events no drain has returned is never pruned.
const MAX_DEAD_RINGS: usize = 64;

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

/// Capacity for rings created after this point.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Overrides the capacity of rings created from now on (existing rings
/// keep theirs; `0` clamps to `1`). A test hook: every ring otherwise
/// holds [`DEFAULT_RING_CAPACITY`] events.
pub fn set_ring_capacity(n: usize) {
    CAPACITY.store(n.max(1), Ordering::Relaxed);
}

struct RingBuf {
    /// Oldest first. The flag marks an event recorded under profiling
    /// that no drain has returned yet.
    events: VecDeque<(Event, bool)>,
    /// Flagged events in `events`.
    undrained: usize,
    cap: usize,
    /// Events ever recorded (so tests can prove overwrite happened).
    total: u64,
}

impl RingBuf {
    fn push(&mut self, e: Event, undrained: bool) {
        self.total += 1;
        self.undrained += usize::from(undrained);
        self.events.push_back((e, undrained));
        // Beyond `cap` unflagged events, evict the oldest one. That is the
        // front unless profiling was switched off with events undrained;
        // then the search walks past those.
        if self.events.len() - self.undrained > self.cap {
            let i = self.events.iter().position(|(_, u)| !u).expect("an unflagged event");
            self.events.remove(i);
        }
    }

    /// Copies the flagged events into `out`, unflags them, and trims the
    /// ring back to capacity.
    fn drain_into(&mut self, out: &mut Vec<Event>) {
        if self.undrained > 0 {
            for (e, u) in &mut self.events {
                if *u {
                    out.push(e.clone());
                    *u = false;
                }
            }
            self.undrained = 0;
        }
        let excess = self.events.len().saturating_sub(self.cap);
        self.events.drain(..excess);
    }
}

struct ThreadRing {
    /// Session-unique id of the owning thread: one thread is one `tid` in
    /// every export.
    tid: u64,
    ring: Mutex<RingBuf>,
}

impl ThreadRing {
    fn lock(&self) -> MutexGuard<'_, RingBuf> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

fn rings() -> MutexGuard<'static, Vec<Arc<ThreadRing>>> {
    RINGS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn register(ring: &Arc<ThreadRing>) {
    let mut v = rings();
    v.push(Arc::clone(ring));
    // A ring whose only owner is the registry belongs to a dead thread.
    // Keep the newest MAX_DEAD_RINGS of those (their last events are
    // still wanted in dumps) and any a drain has yet to read; drop older
    // ones.
    let dead = |r: &Arc<ThreadRing>| Arc::strong_count(r) == 1;
    let mut excess = v.iter().filter(|r| dead(r)).count().saturating_sub(MAX_DEAD_RINGS);
    v.retain(|r| {
        let prune = excess > 0 && dead(r) && r.lock().undrained == 0;
        excess -= usize::from(prune);
        !prune
    });
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static MY_RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(RingBuf {
                events: VecDeque::new(),
                undrained: 0,
                cap: CAPACITY.load(Ordering::Relaxed),
                total: 0,
            }),
        });
        register(&ring);
        ring
    };
}

/// Appends an event to the calling thread's ring, flagged for the next
/// drain when `undrained` (recorded under profiling).
pub(crate) fn record(
    cat: &'static str,
    name: Cow<'static, str>,
    ts_us: u64,
    kind: EventKind,
    undrained: bool,
) {
    // A thread_local access can fail during thread teardown; losing the
    // final events of a dying thread is acceptable.
    let _ = MY_RING.try_with(|r| {
        r.lock().push(Event { cat, name, ts_us, tid: r.tid, kind }, undrained);
    });
}

/// Every registered ring's events recorded under profiling since the
/// previous drain, sorted by `(ts_us, tid)`. The rings keep them for
/// dumps.
pub(crate) fn drain() -> Vec<Event> {
    let mut events = Vec::new();
    for r in rings().iter() {
        r.lock().drain_into(&mut events);
    }
    events.sort_by_key(|e| (e.ts_us, e.tid));
    events
}

/// `(resident, total_recorded)` for the calling thread's ring — lets
/// tests prove the overwrite-oldest bound without reaching into internals.
#[must_use]
pub fn current_thread_ring_stats() -> (usize, u64) {
    MY_RING.try_with(|r| { let g = r.lock(); (g.events.len(), g.total) }).unwrap_or((0, 0))
}

/// A merged copy of every thread's ring, sorted like [`crate::drain`] by
/// `(ts_us, tid)`.
fn snapshot_events() -> Vec<Event> {
    let mut events = Vec::new();
    for r in rings().iter() {
        events.extend(r.lock().events.iter().map(|(e, _)| e.clone()));
    }
    events.sort_by_key(|e| (e.ts_us, e.tid));
    events
}

// ---------------------------------------------------------------------------
// Dumping
// ---------------------------------------------------------------------------

/// Environment variable naming the dump directory. Unset → no dumps.
const DUMP_DIR_ENV: &str = "TIRAMISU_DUMP_DIR";

/// `Some(Some(dir))` = forced dir, `Some(None)` = forced off,
/// `None` = follow the environment.
static DUMP_DIR_OVERRIDE: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);

/// Programmatically overrides the dump directory: `Some(Some(dir))`
/// forces dumps there, `Some(None)` disables dumping, `None` returns
/// control to `TIRAMISU_DUMP_DIR`. Tests use this instead of racing on
/// environment variables.
pub fn set_dump_dir(dir: Option<Option<PathBuf>>) {
    *DUMP_DIR_OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner) = dir;
}

fn resolve_dump_dir() -> Option<PathBuf> {
    if let Some(o) = DUMP_DIR_OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner).clone() {
        return o;
    }
    std::env::var(DUMP_DIR_ENV).ok().filter(|v| !v.is_empty()).map(PathBuf::from)
}

static DUMPS_WRITTEN: AtomicU64 = AtomicU64::new(0);

/// Writes a flight-recorder dump: one JSON file combining a Chrome trace
/// of every thread's recent events (`traceEvents`, loadable in Perfetto —
/// extra top-level keys are ignored there) with the failure `reason` and
/// a full [`crate::metrics::snapshot_json`]. Returns the path written.
///
/// No-ops (returning `None`) when no dump directory is configured, or
/// once this process has written its cap of dumps (`MAX_DUMPS`).
pub fn dump(reason: &str) -> Option<PathBuf> {
    let dir = resolve_dump_dir()?;
    let seq = DUMPS_WRITTEN.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_DUMPS {
        return None;
    }
    std::fs::create_dir_all(&dir).ok()?;
    let tl = Timeline { events: snapshot_events() };
    let safe: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
        .collect();
    let path = dir.join(format!("tiramisu-dump-{safe}-{}-{seq}.json", std::process::id()));
    let body = format!(
        "{{\"reason\":{},\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}],\"metrics\":{}}}\n",
        jstr(reason),
        tl.chrome_trace_events(),
        crate::metrics::snapshot_json()
    );
    match std::fs::write(&path, body) {
        Ok(()) => {
            eprintln!("telemetry: flight recorder dumped ({reason}) to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("telemetry: flight dump to {} failed: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cap: usize) -> RingBuf {
        RingBuf { events: VecDeque::new(), undrained: 0, cap, total: 0 }
    }

    fn ev(ts_us: u64) -> Event {
        Event { cat: "t", name: "e".into(), ts_us, tid: 1, kind: EventKind::Instant }
    }

    fn stamps(r: &RingBuf) -> Vec<u64> {
        r.events.iter().map(|(e, _)| e.ts_us).collect()
    }

    #[test]
    fn undrained_events_outlive_capacity_until_a_drain() {
        let mut r = ring(2);
        for t in 0..5 {
            r.push(ev(t), true);
        }
        assert_eq!(stamps(&r), [0, 1, 2, 3, 4], "nothing undrained is evicted");
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(stamps(&r), [3, 4], "a drain trims to capacity, newest kept");
        r.drain_into(&mut out);
        assert_eq!(out.len(), 5, "drained events are returned once");
        assert_eq!(r.total, 5);
    }

    #[test]
    fn unprofiled_events_stay_bounded_behind_undrained_ones() {
        let mut r = ring(2);
        r.push(ev(0), true);
        r.push(ev(1), true);
        for t in 2..6 {
            r.push(ev(t), false);
        }
        // The undrained events stay beside the newest `cap` unprofiled ones.
        assert_eq!(stamps(&r), [0, 1, 4, 5]);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(out.iter().map(|e| e.ts_us).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(stamps(&r), [4, 5]);
        r.push(ev(6), false);
        r.push(ev(7), false);
        assert_eq!(stamps(&r), [6, 7]);
    }
}
