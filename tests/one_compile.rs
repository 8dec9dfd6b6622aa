//! A program is compiled once: the code a backend built (or decoded from
//! an artifact) is the code `Machine::run` executes, clones share it, and
//! only a mutation recompiles. A rank program's compute chunks are such
//! programs, shared by every rank of every run, and a GPU kernel's
//! barrier-delimited phases are such programs, found by every launch.
//! Observed through the process-wide
//! `vm.bc_cache.*` ("`Machine::run` found a compiled form / had to build
//! one") and `vm.jit.*` counters.

use loopvm::{ExecMode, Expr as V, Machine, Program, Stmt};
use mpisim::{CommModel, DistError, DistProgram, DistStmt, RunOptions};
use std::sync::{Barrier, Mutex, MutexGuard};
use tiramisu::{CompileService, DistOptions, Expr as E, Function, GpuOptions, ServiceConfig};

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

// ---------------------------------------------------------------------------
// Rank programs: a compute chunk is a program, shared by every rank and run
// ---------------------------------------------------------------------------

/// `out[i] = 4 * in[i]`, block-distributed over two ranks: one chunk.
fn dist_scaled() -> Function {
    let mut f = Function::new("scaled", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    let c = f.computation("out", &[i], f.access(input, &[E::iter("i")]) * E::f32(4.0)).unwrap();
    f.split(c, "i", 8, "i0", "i1").unwrap();
    f.distribute(c, "i0").unwrap();
    f
}

/// Runs `dist` on rank machines that all ask for the top tier and enter
/// their programs together; returns every rank's buffers as bit patterns.
fn run_cluster(dist: &DistProgram, ranks: usize) -> Result<Vec<Vec<u32>>, DistError> {
    let p = dist.program();
    let start = Barrier::new(ranks);
    let snaps = Mutex::new(vec![Vec::new(); ranks]);
    mpisim::run_with_opts(
        dist,
        ranks,
        &CommModel::default(),
        &RunOptions::default(),
        |rank, m| {
            m.set_exec_mode(ExecMode::Jit);
            for b in 0..p.n_buffers() {
                kernels::fill_buffer(m.buffer_mut(p.nth_buffer(b)), (rank * 16 + b) as u64);
            }
            start.wait();
        },
        |rank, m| {
            snaps.lock().unwrap()[rank] = (0..p.n_buffers())
                .flat_map(|b| m.buffer(p.nth_buffer(b)).iter().map(|x| x.to_bits()))
                .collect();
        },
    )?;
    Ok(snaps.into_inner().unwrap())
}

#[test]
fn dist_runs_execute_the_code_the_module_holds() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("tiramisu-one-compile-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = CompileService::new(ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() });
    let (f, params) = (dist_scaled(), [("N", 16)]);
    let fresh = svc.compile_dist(&f, &params, DistOptions::default()).expect("cold compile");
    svc.clear_memory();
    let served = svc.compile_dist(&f, &params, DistOptions::default()).expect("disk hit");
    assert_eq!((svc.stats().disk_hits, served.dist.chunks().len()), (1, 1));
    assert_eq!(served.dist.program(), fresh.dist.program());
    assert_eq!(served.disasm(), fresh.disasm());
    // Both the bytecode `optimize` built and the bytecode an artifact
    // decode installed are found by every chunk execution (2 ranks x 1
    // chunk x 2 runs) of the module's first runs: nothing compiles, and
    // rank chunks stay on the interpreter even when asked for JIT.
    let outs = [&fresh, &served].map(|module| {
        let before = counters();
        let out = run_cluster(&module.dist, 2).expect("run");
        assert_eq!(run_cluster(&module.dist, 2).expect("run again"), out);
        assert_eq!(delta(before), (4, 0, 0));
        out
    });
    assert_eq!(outs[0], outs[1], "the decoded code computes the same bits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bare_rank_programs_compile_each_chunk_once_even_to_an_error() {
    let _g = locked();
    // No `optimize` pass ran: pack (ranks 1..3), unpack (ranks 0..2) and
    // the pipeline chunk (all ranks) compile on their first execution,
    // once each however the four rank threads race.
    let (dist, ranks) =
        kernels::image_dist::halide_dist("conv2D", kernels::image::ImgSize::small(), 4)
            .expect("halide dist");
    assert_eq!((dist.chunks().len(), ranks), (3, 4));
    let before = counters();
    let first = run_cluster(&dist, ranks).expect("run");
    assert_eq!(delta(before), (7, 3, 0), "10 chunk executions, 3 builds");
    let before = counters();
    assert_eq!(run_cluster(&dist, ranks).expect("run again"), first);
    assert_eq!(delta(before), (10, 0, 0));

    // A chunk that does not compile (an i64 stored into an f32 buffer)
    // is built once too, and fails identically on every run.
    let mut p = Program::new();
    let out = p.buffer("out", 1);
    let rank = p.var("rank");
    let chunk = vec![Stmt::store(out, V::i64(0), V::i64(1))];
    let dist = DistProgram::new(p, rank, vec![], vec![chunk], vec![DistStmt::Compute(0)]);
    let before = counters();
    let first = run_cluster(&dist, 1).expect_err("type error");
    assert!(
        matches!(first, DistError::Vm { rank: 0, source: loopvm::Error::Type(_) }),
        "{first:?}"
    );
    assert_eq!(run_cluster(&dist, 1), Err(first));
    assert_eq!(delta(before), (1, 1, 0));
}

// ---------------------------------------------------------------------------
// GPU kernels: a barrier-delimited phase is a program, found by every launch
// ---------------------------------------------------------------------------

/// A 3-tap blur tiled to 8x8 thread blocks with the input tile staged
/// through shared memory (what `kernels::image_gpu::blur_shared_cache`
/// builds): one kernel, two phases — cooperative copy, barrier, compute.
fn gpu_blur() -> Function {
    let mut f = Function::new("blurc", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let padded = [f.var("i", 0, E::param("N")), f.var("j", 0, E::param("N") + E::i64(2))];
    let input = f.input("in", &padded).unwrap();
    let at = |dj: i64| E::Access(input, vec![E::iter("i"), E::iter("j") + E::i64(dj)]);
    let out = f.computation("out", &[i, j], (at(0) + at(1) + at(2)) / E::f32(3.0)).unwrap();
    f.tile_gpu(out, "i", "j", 8, 8).unwrap();
    f.cache_shared_at(input, out, "jB").unwrap();
    f
}

fn phase_code(k: &gpusim::Kernel) -> Vec<*const loopvm::BcProgram> {
    k.phases().iter().map(|p| std::ptr::from_ref(p.compiled().unwrap().bytecode())).collect()
}

#[test]
fn gpu_runs_execute_the_code_the_module_holds() {
    let dir = std::env::temp_dir().join(format!("tiramisu-one-compile-gpu-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = CompileService::new(ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() });
    let (f, params) = (gpu_blur(), [("N", 32)]);
    let fresh = svc.compile_gpu(&f, &params, GpuOptions::default()).expect("cold compile");
    svc.clear_memory();
    let served = svc.compile_gpu(&f, &params, GpuOptions::default()).expect("disk hit");
    assert_eq!(svc.stats().disk_hits, 1);
    let runs = [&fresh, &served].map(|module| {
        assert_eq!((module.kernels.len(), module.kernels[0].phases().len()), (1, 2));
        // The code `optimize` built, or an artifact decode installed, is
        // what every launch executes: the phases hand out the same
        // `BcProgram` before and after the runs, and so does a clone.
        let code = phase_code(&module.kernels[0]);
        let run = || {
            let mut bufs = module.alloc_buffers();
            kernels::fill_buffer(&mut bufs[module.buffer_index("in").unwrap()], 7);
            let stats = module.run(&mut bufs, &gpusim::GpuModel::default()).expect("run").kernels;
            let bits: Vec<Vec<u32>> =
                bufs.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect();
            (bits, stats)
        };
        let first = run();
        assert_eq!(run(), first);
        assert_eq!(phase_code(&module.kernels[0]), code);
        assert_eq!(phase_code(&module.kernels[0].clone()), code);
        first
    });
    assert_eq!(runs[0], runs[1], "the decoded code computes the same bits and counters");
    let disasm = |m: &tiramisu::GpuModule| -> Vec<String> {
        let phases = m.kernels[0].phases().iter();
        phases.map(|p| p.compiled().unwrap().bytecode().disasm(p)).collect()
    };
    assert_eq!(disasm(&served), disasm(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_phase_that_does_not_compile_fails_every_launch_identically() {
    use gpusim::exec::{alloc_buffers, compile_phases, launch_tree_walk};
    // Phase 1 stores an i64 into an f32 buffer.
    let mut p = Program::new();
    let out = p.buffer("out", 32);
    let t = p.var("t");
    let ok = vec![Stmt::store(out, V::var(t), V::f32(1.0))];
    let bad = vec![Stmt::store(out, V::var(t), V::i64(1))];
    let mut k = gpusim::Kernel::phased(p, vec![ok, bad], [1, 1], [32, 1]);
    k.thread_vars[0] = Some(t);
    let model = gpusim::GpuModel::default();
    let mut bufs = alloc_buffers(&k);
    let first = gpusim::launch(&k, &mut bufs, &model).expect_err("type error");
    assert!(matches!(first, loopvm::Error::Type(_)), "{first:?}");
    assert_eq!(gpusim::launch(&k, &mut bufs, &model), Err(first.clone()));
    assert_eq!(compile_phases(&k).map(|_| ()), Err(first.clone()));
    // Like the reference executor, nothing runs before every phase is
    // known to compile: phase 0 left no trace in either.
    let mut reference = alloc_buffers(&k);
    assert_eq!(launch_tree_walk(&k, &mut reference, &model), Err(first));
    assert_eq!(bufs, reference);
    assert!(bufs[0].iter().all(|&v| v == 0.0));
}

#[test]
fn phases_without_statements_are_not_created() {
    let mut p = Program::new();
    let out = p.buffer("out", 1);
    let s = || vec![Stmt::store(out, V::i64(0), V::f32(1.0))];
    let phases = |stmts: Vec<Vec<Stmt>>| -> Vec<usize> {
        let k = gpusim::Kernel::phased(p.clone(), stmts, [1, 1], [1, 1]);
        k.phases().iter().map(|p| p.body().len()).collect()
    };
    // No statements at all: one empty phase, the same kernel `new` makes
    // of an empty program.
    assert_eq!(phases(vec![]), [0]);
    assert_eq!(phases(vec![vec![], vec![]]), [0]);
    assert_eq!(gpusim::Kernel::new(p.clone(), [1, 1], [1, 1]).phases().len(), 1);
    // A trailing (or any other) empty phase would be a barrier nothing
    // waits behind.
    assert_eq!(phases(vec![s(), vec![]]), [1]);
    assert_eq!(phases(vec![s(), vec![], [s(), s()].concat()]), [1, 2]);
}
