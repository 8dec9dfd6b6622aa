//! A program is compiled once: the code a backend built (or decoded from
//! an artifact) is the code `Machine::run` executes, clones share it, and
//! only a mutation recompiles. Observed through the process-wide
//! `vm.bc_cache.*` ("`Machine::run` found a compiled form / had to build
//! one") and `vm.jit.*` counters.

use loopvm::{ExecMode, Expr as V, Machine, Program, Stmt};
use std::sync::{Barrier, Mutex, MutexGuard};
use tiramisu::{CompileService, ServiceConfig};

/// The counters are process-wide; every test here reads deltas.
static COUNTERS: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// (`Machine::run` found code, `Machine::run` built code, JIT compile
/// attempts — successes and declines).
fn counters() -> (u64, u64, u64) {
    let c = |name: &str| telemetry::metrics::counter(name).get();
    (
        c("vm.bc_cache.hits"),
        c("vm.bc_cache.misses"),
        c("vm.jit.compiles") + c("vm.jit.fallbacks"),
    )
}

fn delta(before: (u64, u64, u64)) -> (u64, u64, u64) {
    let now = counters();
    (now.0 - before.0, now.1 - before.1, now.2 - before.2)
}

/// A machine pinned to the top tier, whatever `LOOPVM_*` says: its `run`
/// needs bytecode and asks for native code (interpreting where the JIT
/// does not exist or declines).
fn jit_machine(p: &Program) -> Machine {
    let mut m = Machine::new(p);
    m.set_exec_mode(ExecMode::Jit);
    m
}

fn sgemm(n: i64) -> (tiramisu::Function, tiramisu::CpuOptions, [(&'static str, i64); 1]) {
    let (f, opts) = kernels::sgemm::tiramisu_scheduled(8, true, true).expect("sgemm schedule");
    (f, opts, [("N", n)])
}

#[test]
fn module_to_prepared_to_fresh_machine_compiles_once() {
    let _g = locked();
    let (f, opts, params) = sgemm(16);
    let before = counters();
    let module = tiramisu::compile_cpu(&f, &params, opts).expect("compile");
    // What `kernels::*` constructors do: keep a clone of the program.
    let prep = kernels::Prepared {
        name: "sgemm".into(),
        program: module.program.clone(),
        inputs: ["A", "B", "Cin"].iter().map(|b| module.vm_buffer(b).unwrap()).collect(),
        output: module.vm_buffer("C").unwrap(),
    };
    drop(module);
    let mut m = prep.machine();
    m.set_exec_mode(ExecMode::Jit);
    m.run(&prep.program).expect("run");
    m.run(&prep.program).expect("run again");
    // One JIT compile (the `optimize` pass), none by `run`; both runs
    // found the module's code on the clone.
    assert_eq!(delta(before), (2, 0, 1));
}

#[test]
fn disk_artifact_runs_its_first_request_without_recompiling() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("tiramisu-one-compile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = CompileService::new(ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() });
    let (f, opts, params) = sgemm(16);
    let fresh = svc.compile_cpu(&f, &params, opts.clone()).expect("cold compile");
    svc.clear_memory();
    let before = counters();
    let served = svc.compile_cpu(&f, &params, opts).expect("disk hit");
    assert_eq!(svc.stats().disk_hits, 1);
    // Decoding pays the host-specific native compile, nothing else ...
    assert_eq!(delta(before), (0, 0, 1));
    // ... and the first run executes the decoded code as is.
    let run = |module: &tiramisu::CpuModule| {
        let mut m = jit_machine(&module.program);
        for (k, name) in ["A", "B", "Cin"].iter().enumerate() {
            kernels::fill_buffer(m.buffer_mut(module.vm_buffer(name).unwrap()), k as u64);
        }
        m.run(&module.program).expect("run");
        m.buffer(module.vm_buffer("C").unwrap()).to_vec()
    };
    let before = counters();
    let out = run(&served);
    assert_eq!(delta(before), (1, 0, 0), "first run of a disk-served module recompiled");
    assert_eq!(out, run(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

fn fill_program(value: V) -> Program {
    let mut p = Program::new();
    let out = p.buffer("out", 64);
    let i = p.var("i");
    p.push(Stmt::serial(i, V::i64(0), V::i64(64), vec![Stmt::store(out, V::var(i), value)]));
    p
}

#[test]
fn racing_runs_on_clones_compile_once() {
    let _g = locked();
    const THREADS: usize = 8;
    let p = fill_program(V::f32(3.0));
    let clones: Vec<Program> = (0..THREADS).map(|_| p.clone()).collect();
    let barrier = Barrier::new(THREADS);
    let before = counters();
    std::thread::scope(|s| {
        for q in &clones {
            let barrier = &barrier;
            s.spawn(move || {
                let mut m = jit_machine(q);
                barrier.wait();
                m.run(q).expect("run");
                assert!(m.buffer(q.nth_buffer(0)).iter().all(|&v| v == 3.0));
            });
        }
    });
    assert_eq!(delta(before), (THREADS as u64 - 1, 1, 1));
}

#[test]
fn type_error_is_compiled_once_and_returned_unchanged() {
    let _g = locked();
    // An i64 stored into an f32 buffer.
    let p = fill_program(V::i64(1));
    let before = counters();
    let first = jit_machine(&p).run(&p).expect_err("type error");
    assert!(matches!(first, loopvm::Error::Type(_)), "{first:?}");
    let q = p.clone();
    assert_eq!(jit_machine(&q).run(&q), Err(first.clone()));
    assert_eq!(jit_machine(&p).run(&p), Err(first));
    assert_eq!(delta(before), (2, 1, 0));
}
