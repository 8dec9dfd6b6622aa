//! Telemetry coverage: span nesting, thread interleaving, draining
//! threads that are still alive, the Chrome trace-event export shape,
//! and profiling that never changes which code runs. The
//! zero-overhead-when-off guarantee has a binary of its own
//! (`tests/profiling_off_cost.rs`).

use loopvm::{Error, ExecMode, Expr, LoopKind, Machine, Program, Stmt};
use std::sync::{mpsc, Mutex};
use std::time::Duration;
use telemetry::{drain, set_profiling, set_thread_name, span, EventKind};

/// Tests here flip the process-wide profiling override and drain the
/// global recorder; serialize them.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    PROFILE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn nested_spans_are_contained_in_their_parent() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    {
        let _outer = span("t", "outer");
        std::thread::sleep(Duration::from_millis(2));
        {
            let _inner = span("t", "inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let tl = drain();
    set_profiling(None);
    let find = |name: &str| {
        tl.events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("span {name} not recorded"))
    };
    let (outer, inner) = (find("outer"), find("inner"));
    assert_eq!(outer.tid, inner.tid, "same-thread spans share a tid");
    let dur = |e: &telemetry::Event| match e.kind {
        EventKind::Span { dur_us } => dur_us,
        k => panic!("expected a span, got {k:?}"),
    };
    assert!(inner.ts_us >= outer.ts_us, "inner starts inside outer");
    assert!(
        inner.ts_us + dur(inner) <= outer.ts_us + dur(outer),
        "inner ({}..{}) escapes outer ({}..{})",
        inner.ts_us,
        inner.ts_us + dur(inner),
        outer.ts_us,
        outer.ts_us + dur(outer),
    );
    assert!(dur(outer) > dur(inner), "outer encloses more wall time");
}

#[test]
fn threads_interleave_with_distinct_tids() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    let workers = 3;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    set_thread_name(format!("worker {w}"));
                    let _sp = span("t", format!("work {w}"));
                    std::thread::sleep(Duration::from_millis(1));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
    });
    let tl = drain();
    set_profiling(None);
    let mut span_tids = Vec::new();
    let mut names = Vec::new();
    for e in &tl.events {
        match e.kind {
            EventKind::Span { .. } => span_tids.push(e.tid),
            EventKind::ThreadName => names.push(e.name.to_string()),
            _ => {}
        }
    }
    span_tids.sort_unstable();
    span_tids.dedup();
    assert_eq!(span_tids.len(), workers, "each worker records under its own tid");
    names.sort();
    assert_eq!(names, ["worker 0", "worker 1", "worker 2"]);
    // The drain on this (fourth) thread read every worker's ring.
    for e in &tl.events {
        if let EventKind::ThreadName = e.kind {
            let work = tl.events.iter().find(|o| {
                o.tid == e.tid && matches!(o.kind, EventKind::Span { .. })
            });
            assert!(work.is_some(), "thread {} has a name but no span", e.tid);
        }
    }
}

#[test]
fn drain_sees_a_parked_thread() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    let (recorded_tx, recorded_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        drop(span("t", "before parking"));
        recorded_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    recorded_rx.recv().unwrap();
    // The worker is parked on the channel, alive, while this drains.
    let tl = drain();
    release_tx.send(()).unwrap();
    worker.join().unwrap();
    set_profiling(None);
    assert!(
        tl.events.iter().any(|e| e.name == "before parking"),
        "a live thread's span is missing from the drain"
    );
}

#[test]
fn drain_sees_every_compile_service_span() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    // The service owns no threads: each request compiles on this one and
    // has closed its spans before it returns, so the drain cannot race
    // them.
    let svc = tiramisu::CompileService::new(tiramisu::ServiceConfig {
        workers: 1,
        ..tiramisu::ServiceConfig::default()
    });
    let (f, _, _) = kernels::sgemm::layer1(1.0, 1.0);
    for n in [16, 8] {
        svc.compile_cpu(&f, &[("N", n)], tiramisu::CpuOptions::default()).expect("compile");
    }
    let events = drain().events;
    set_profiling(None);
    let spans = |cat: &str| -> Vec<String> {
        let of_cat = events.iter().filter(|e| e.cat == cat);
        of_cat.filter(|e| matches!(e.kind, EventKind::Span { .. })).map(|e| e.name.to_string()).collect()
    };
    let passes = spans("compile");
    for pass in ["lower", "legality", "astgen", "tag-resolve", "emit", "optimize"] {
        assert!(passes.iter().any(|p| p == pass), "no compile/{pass} span in {passes:?}");
    }
    let job = format!("compile:cpu:{}", f.name);
    assert!(spans("service").contains(&job), "no {job} span");
    drop(svc);
}

/// A request that misses both cache tiers runs the pass pipeline on the
/// thread that asked: its `compile:` span shares the `request:` span's
/// tid.
#[test]
fn a_miss_compiles_on_the_requesting_thread() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    let svc = tiramisu::CompileService::new(tiramisu::ServiceConfig::default());
    let (f, _, _) = kernels::sgemm::layer1(1.0, 1.0);
    svc.compile_cpu(&f, &[("N", 12)], tiramisu::CpuOptions::default()).expect("compile");
    let events = drain().events;
    set_profiling(None);
    let tid_of = |name: String| {
        let mut spans = events.iter().filter(|e| {
            e.cat == "service" && e.name == name && matches!(e.kind, EventKind::Span { .. })
        });
        let span = spans.next().unwrap_or_else(|| panic!("no service span {name}"));
        assert!(spans.next().is_none(), "two {name} spans");
        span.tid
    };
    let request = tid_of(format!("request:cpu:{}", f.name));
    assert_eq!(tid_of(format!("compile:cpu:{}", f.name)), request);
}

#[test]
fn chrome_export_is_valid_json_with_monotonic_timestamps() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    {
        let _sp = span("t", "escape \"quotes\" and\nnewlines");
        telemetry::counter("t", "c", 1.5);
        telemetry::instant("t", "i");
        set_thread_name("main \\ test");
    }
    let tl = drain();
    set_profiling(None);
    let json = tl.to_chrome_json();
    telemetry::json::parse(&json).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    // Drained timelines are timestamp-ordered, so the exported events
    // (metadata aside) are monotonic.
    let ts: Vec<u64> = tl.events.iter().map(|e| e.ts_us).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps not monotonic: {ts:?}");
}

/// Profiling observes the code that runs: a profiled `Machine::run` stays
/// on the native tier, writes the same bits, and fails the same way.
#[test]
fn profiling_never_steers_machine_run() {
    let _g = locked();
    let prep = kernels::sgemm::tiramisu_best(64, 16).expect("sgemm compile");
    let run = |profiled: bool| {
        set_profiling(Some(profiled));
        let mut m = prep.machine();
        m.set_exec_mode(ExecMode::Jit);
        m.run(&prep.program).expect("sgemm run");
        set_profiling(None);
        m.buffer(prep.output).iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let plain = run(false);
    let jit_us = telemetry::metrics::histogram("vm.run.jit_us");
    let bytecode_us = telemetry::metrics::histogram("vm.run.bytecode_us");
    let (jit_before, bytecode_before) = (jit_us.snapshot().count, bytecode_us.snapshot().count);
    let profiled = run(true);
    let _ = drain();
    if loopvm::jit::supported() {
        assert_eq!(jit_us.snapshot().count, jit_before + 1, "the profiled run was not native");
        assert_eq!(bytecode_us.snapshot().count, bytecode_before, "the profiled run interpreted");
    }
    assert!(profiled == plain, "profiling changed the output");

    // `for i in i64::MIN..i64::MAX { A[i] = 1 }`: its trip count overflows
    // `i64`, and its first store is out of bounds.
    let mut p = Program::new();
    let a = p.buffer("A", 4);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        Expr::i64(i64::MIN),
        Expr::i64(i64::MAX),
        LoopKind::Serial,
        vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
    ));
    let outcome = |profiled: bool| {
        set_profiling(Some(profiled));
        let r = Machine::new(&p).run(&p);
        set_profiling(None);
        r.expect_err("the store is out of bounds")
    };
    let plain = outcome(false);
    assert!(matches!(plain, Error::OutOfBounds { index: i64::MIN, .. }), "{plain:?}");
    assert_eq!(outcome(true), plain);
    assert_eq!(Machine::new(&p).run_counted(&p).expect_err("counted"), plain);
}
