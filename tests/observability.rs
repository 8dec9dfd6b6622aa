//! Always-on observability: histogram edge behavior, flight-recorder
//! ring bounds, and the failure-dump path — a forced distributed
//! deadlock must leave a loadable Chrome-trace dump with a metrics
//! snapshot in the dump directory, with profiling **off** the whole
//! time (the layer under test is the one that is on in production).

use loopvm::{Expr, Program};
use mpisim::{CommModel, DistError, DistProgram, DistStmt, RunOptions, WaitingOn};
use std::sync::Mutex;
use std::time::Duration;
use telemetry::metrics::{bucket_bounds, bucket_index, Histogram, HIST_BUCKETS};

/// Flight overrides (enable, capacity, dump dir) are process-global;
/// serialize the tests that touch them.
static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FLIGHT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Histogram edges
// ---------------------------------------------------------------------------

#[test]
fn histogram_bucket_edges_cover_the_u64_line() {
    // 0 and 1 are distinct buckets; u64::MAX lands in the last one.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    // Every value is inside its bucket's bounds, and buckets tile the
    // line with no gaps at the power-of-two boundaries.
    for v in [0u64, 1, 2, 3, 4, 255, 256, 257, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
    }
    for idx in 1..HIST_BUCKETS {
        let (lo, _) = bucket_bounds(idx);
        let (_, prev_hi) = bucket_bounds(idx - 1);
        assert_eq!(lo, prev_hi + 1, "gap between buckets {} and {idx}", idx - 1);
    }
}

#[test]
fn histogram_extreme_values_snapshot_sanely() {
    let h = Histogram::new();
    h.record(0);
    h.record(1);
    h.record(u64::MAX);
    let s = h.snapshot();
    assert_eq!(s.count, 3);
    // The sum wraps (by design, to keep merges associative); quantiles
    // come from buckets and stay monotone regardless.
    assert!(s.p50() >= 1);
    assert!(s.p99() >= s.p50());
    assert_eq!(s.quantile(0.0), 0);
}

#[test]
fn snapshot_merge_is_associative_across_threads() {
    // Three "threads" worth of recordings, including wrap-inducing
    // values: (a + b) + c must equal a + (b + c) field-for-field.
    let mk = |vals: &[u64]| {
        let h = Histogram::new();
        for &v in vals {
            h.record(v);
        }
        h.snapshot()
    };
    let a = mk(&[0, 1, 17]);
    let b = mk(&[u64::MAX, u64::MAX - 1]);
    let c = mk(&[1 << 40, 3, 3, 3]);

    let mut left = a;
    left.merge(&b);
    left.merge(&c);
    let mut bc = b;
    bc.merge(&c);
    let mut right = a;
    right.merge(&bc);
    assert_eq!(left, right);
    assert_eq!(left.count, 9);

    // And merging really does come from concurrent recorders: hammer one
    // shared histogram from several threads and compare against the
    // serial equivalent.
    let shared = std::sync::Arc::new(Histogram::new());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let h = std::sync::Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            for i in 0..1000u64 {
                h.record(t * 1000 + i);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let serial = mk(&(0..4000u64).collect::<Vec<_>>());
    assert_eq!(shared.snapshot(), serial);
}

#[test]
fn registry_snapshot_includes_registered_metrics() {
    telemetry::metrics::counter("test.observability.counter").add(7);
    telemetry::metrics::histogram("test.observability.hist").record(42);
    let snap = telemetry::metrics::snapshot();
    assert!(snap.iter().any(|(n, _)| n == "test.observability.counter"));
    let json = telemetry::metrics::snapshot_json();
    assert!(json.contains("\"test.observability.hist\""), "{json}");
}

// ---------------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------------

#[test]
fn flight_ring_overwrites_oldest_within_bound() {
    let _g = locked();
    telemetry::flight::set_flight(Some(true));
    telemetry::flight::set_ring_capacity(8);
    // A fresh thread gets a fresh ring at the configured capacity.
    let (resident, total) = std::thread::spawn(|| {
        assert!(!telemetry::profile_enabled(), "layer under test is the profiling-off one");
        for i in 0..20 {
            telemetry::instant("flight-test", format!("event {i}"));
        }
        telemetry::flight::current_thread_ring_stats()
    })
    .join()
    .unwrap();
    telemetry::flight::set_ring_capacity(telemetry::flight::DEFAULT_RING_CAPACITY);
    telemetry::flight::set_flight(None);
    assert_eq!(total, 20, "every event recorded");
    assert_eq!(resident, 8, "memory bounded at ring capacity");
}

#[test]
fn flight_recording_never_materializes_timeline_events() {
    let _g = locked();
    telemetry::flight::set_flight(Some(true));
    let before = telemetry::records_materialized();
    std::thread::spawn(|| {
        for _ in 0..100 {
            let _sp = telemetry::span("flight-test", "work");
        }
    })
    .join()
    .unwrap();
    telemetry::flight::set_flight(None);
    assert_eq!(
        telemetry::records_materialized(),
        before,
        "ring writes must not count as materialized timeline records"
    );
}

// ---------------------------------------------------------------------------
// Failure dump on deadlock
// ---------------------------------------------------------------------------

/// Rank 0 posts a receive no peer will ever satisfy. With static
/// validation off, the watchdog converts the hang into a structured
/// [`DistError::Deadlock`] — the flight recorder's dump trigger.
fn orphan_recv_program() -> DistProgram {
    let mut p = Program::new();
    let b = p.buffer("b", 4);
    let rank = p.var("rank");
    DistProgram::new(
        p,
        rank,
        vec![],
        vec![],
        vec![DistStmt::If {
            cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
            body: vec![DistStmt::Recv {
                src: Expr::i64(1),
                buf: b,
                offset: Expr::i64(0),
                count: Expr::i64(1),
            }],
        }],
    )
}

#[test]
fn deadlock_dumps_loadable_trace_and_metrics() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("tiramisu-obs-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::flight::set_flight(Some(true));
    telemetry::flight::set_dump_dir(Some(Some(dir.clone())));

    let prog = orphan_recv_program();
    let opts = RunOptions {
        validate: false,
        watchdog: Duration::from_millis(300),
        poll: Duration::from_millis(5),
        ..RunOptions::default()
    };
    let err = mpisim::run_with_opts(
        &prog,
        2,
        &CommModel::default(),
        &opts,
        |_, _| {},
        |_, _| {},
    )
    .unwrap_err();

    telemetry::flight::set_dump_dir(None);
    telemetry::flight::set_flight(None);

    assert!(
        matches!(
            err,
            DistError::Deadlock { rank: 0, waiting_on: WaitingOn::RecvFrom(1), .. }
        ),
        "expected rank-0 recv deadlock, got {err}"
    );

    // Exactly the failure produced a dump; it parses as JSON and carries
    // the reason, a non-empty Chrome trace, and a metrics snapshot.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir created")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("tiramisu-dump-deadlock"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one deadlock dump expected: {dumps:?}");
    let body = std::fs::read_to_string(&dumps[0]).unwrap();
    let j = bench::json::parse(&body).expect("dump is valid JSON");
    assert_eq!(j.get("reason").and_then(|r| r.as_str()), Some("deadlock"));
    let events = j.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    assert!(!events.is_empty(), "flight rings captured the lead-up");
    // The rank threads' dist spans made it into the ring despite
    // profiling being off.
    let has_dist_span = events.iter().any(|e| {
        e.get("cat").and_then(|c| c.as_str()) == Some("dist")
    });
    assert!(has_dist_span, "expected a dist-category event in {}", &body[..body.len().min(400)]);
    let metrics = j.get("metrics").expect("metrics snapshot present");
    assert!(metrics.as_obj().is_some());

    let _ = std::fs::remove_dir_all(&dir);
}
