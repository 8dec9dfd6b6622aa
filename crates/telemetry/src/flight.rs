//! Always-on flight recorder: a fixed-size per-thread ring buffer of the
//! most recent telemetry events, dumped to disk on failure.
//!
//! Even with profiling off, every [`crate::span`] / [`crate::instant`] /
//! [`crate::counter`] call is also copied into the calling thread's ring
//! (bounded memory, overwrite-oldest), so when something goes wrong the
//! process still has the last ~[`DEFAULT_RING_CAPACITY`] events per
//! thread. Failure sites — a `DistError::Deadlock`, a rank panic, a JIT
//! deopt replay that errs, a corrupt disk artifact — call [`dump`],
//! which merges every thread's ring into one Chrome-trace JSON file
//! (plus a [`crate::metrics`] snapshot) under `TIRAMISU_DUMP_DIR`,
//! turning "it hung once" into an attachable artifact.
//!
//! The recorder is on by default; `TIRAMISU_FLIGHT=0` disables it (and
//! [`set_flight`] overrides programmatically, for tests and overhead
//! measurement). Ring writes never touch [`crate::records_materialized`]
//! — that counter keeps meaning "timeline events stored", and the
//! profiling-off guarantee it pins stays intact.

use crate::{jstr, Event, Timeline};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI8, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per thread (~64 bytes each) unless a test overrides it
/// with [`set_ring_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Total dump files one process may write (guards against a failure
/// storm — e.g. a differential suite provoking hundreds of deopts —
/// filling the dump directory).
const MAX_DUMPS: u64 = 32;

/// Registered rings kept after their threads die; beyond this the oldest
/// dead rings are pruned so short-lived worker threads (ranks, parallel
/// loop workers) can't grow memory without bound.
const MAX_DEAD_RINGS: usize = 64;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

/// -1 = follow the environment, 0 = forced off, 1 = forced on.
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// Whether the flight recorder is active: the [`set_flight`] override if
/// one is in force, otherwise **on unless** `TIRAMISU_FLIGHT=0` (the
/// recorder is opt-out, unlike profiling). The environment is read once
/// and cached — this sits on the span hot path.
#[must_use]
pub fn enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => *ENV.get_or_init(|| std::env::var("TIRAMISU_FLIGHT").map_or(true, |v| v != "0")),
    }
}

/// Programmatically overrides the recorder: `Some(false)` disables ring
/// writes (for overhead A/B measurement), `Some(true)` forces them on,
/// `None` returns control to `TIRAMISU_FLIGHT`.
pub fn set_flight(on: Option<bool>) {
    OVERRIDE.store(match on { Some(false) => 0, Some(true) => 1, None => -1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

/// Capacity for rings created after this point.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

fn ring_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Overrides the capacity of rings created from now on (existing rings
/// keep theirs; `0` clamps to `1`). A test hook: every ring otherwise
/// holds [`DEFAULT_RING_CAPACITY`] events.
pub fn set_ring_capacity(n: usize) {
    CAPACITY.store(n.max(1), Ordering::Relaxed);
}

struct RingBuf {
    buf: Vec<Event>,
    /// Next slot to overwrite once the buffer is full.
    next: usize,
    cap: usize,
    /// Events ever recorded (so tests can prove overwrite happened).
    total: u64,
}

impl RingBuf {
    fn push(&mut self, e: Event) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Events oldest-first.
    fn in_order(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

struct ThreadRing {
    ring: Mutex<RingBuf>,
}

impl ThreadRing {
    fn lock(&self) -> std::sync::MutexGuard<'_, RingBuf> {
        self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn rings_locked() -> std::sync::MutexGuard<'static, Vec<Arc<ThreadRing>>> {
    rings().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn register(ring: &Arc<ThreadRing>) {
    let mut v = rings_locked();
    v.push(Arc::clone(ring));
    // Prune: a ring whose only owner is the registry belongs to a dead
    // thread. Keep the newest MAX_DEAD_RINGS of those (their last events
    // are still wanted in dumps), drop older ones.
    let dead = v.iter().filter(|r| Arc::strong_count(r) == 1).count();
    if dead > MAX_DEAD_RINGS {
        let mut to_drop = dead - MAX_DEAD_RINGS;
        v.retain(|r| {
            if to_drop > 0 && Arc::strong_count(r) == 1 {
                to_drop -= 1;
                false
            } else {
                true
            }
        });
    }
}

thread_local! {
    static MY_RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            ring: Mutex::new(RingBuf {
                buf: Vec::new(),
                next: 0,
                cap: ring_capacity(),
                total: 0,
            }),
        });
        register(&ring);
        ring
    };
}

/// Appends an event to the calling thread's ring (overwriting the oldest
/// once full). Called by the `crate` entry points when [`enabled`].
pub(crate) fn record(e: Event) {
    // A thread_local access can fail during thread teardown; losing the
    // final events of a dying thread is acceptable for a flight recorder.
    let _ = MY_RING.try_with(|r| r.lock().push(e));
}

/// `(resident, total_recorded)` for the calling thread's ring — lets
/// tests prove the overwrite-oldest bound without reaching into internals.
#[must_use]
pub fn current_thread_ring_stats() -> (usize, u64) {
    MY_RING.try_with(|r| { let g = r.lock(); (g.buf.len(), g.total) }).unwrap_or((0, 0))
}

/// A merged copy of every thread's ring, oldest-first per thread, sorted
/// like [`crate::drain`] by `(ts_us, tid)`.
#[must_use]
pub fn snapshot_events() -> Vec<Event> {
    let v = rings_locked();
    let mut events = Vec::new();
    for r in v.iter() {
        events.extend(r.lock().in_order());
    }
    drop(v);
    events.sort_by_key(|e| (e.ts_us, e.tid));
    events
}

// ---------------------------------------------------------------------------
// Dumping
// ---------------------------------------------------------------------------

/// Environment variable naming the dump directory. Unset → no dumps.
pub const DUMP_DIR_ENV: &str = "TIRAMISU_DUMP_DIR";

/// `Some(Some(dir))` = forced dir, `Some(None)` = forced off,
/// `None` = follow the environment.
static DUMP_DIR_OVERRIDE: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);

/// Programmatically overrides the dump directory: `Some(Some(dir))`
/// forces dumps there, `Some(None)` disables dumping, `None` returns
/// control to `TIRAMISU_DUMP_DIR`. Tests use this instead of racing on
/// environment variables.
pub fn set_dump_dir(dir: Option<Option<PathBuf>>) {
    *DUMP_DIR_OVERRIDE.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = dir;
}

fn resolve_dump_dir() -> Option<PathBuf> {
    if let Some(o) =
        DUMP_DIR_OVERRIDE.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    {
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
/// No-ops (returning `None`) when the recorder is disabled, when no dump
/// directory is configured, or once this process has written its cap of dumps
/// (`MAX_DUMPS`).
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
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
