//! Cross-backend differential test harness.
//!
//! Random small Layer-I algorithms (one- or two-stage stencils over a
//! padded input) are combined with random *legal* schedule-command
//! sequences, then compiled and executed every way the repo can:
//!
//! - CPU bytecode (the optimizing register-VM path, `Machine::run`),
//! - CPU tree-walk (the reference evaluator, `Machine::run_tree_walk`),
//! - the GPU backend (`tile_gpu` + SIMT simulator),
//! - the distributed backend (`split` + `distribute` over 2 ranks).
//!
//! All paths must produce **bit-identical** buffers. Deliberately illegal
//! schedules (consumer ordered before its producer) must be rejected at
//! compile time, never miscompiled into a runnable module.
//!
//! The vendored proptest stub is deterministic (seeded per test name), so
//! CI runs a fixed sequence; `TIRAMISU_DIFF_CASES` overrides the case
//! count (e.g. to shrink the suite under a tight timeout).

mod common;

use common::diff_cases;
use mpisim::{CommModel, RunOptions};
use proptest::prelude::*;
use std::sync::Mutex;
use tiramisu::{
    compile_cpu, compile_dist, compile_gpu, At, CompId, CpuOptions, DistOptions, Expr as E,
    Function, GpuOptions,
};

const N: i64 = 8; // stage-1 rows
const M: i64 = 8; // columns
const RANKS: usize = 2;

/// Deterministic pseudo-random fill (same as `tests/pipeline_golden.rs`),
/// identical on every backend and rank.
fn fill(buf: &mut [f32], seed: u64) {
    for (k, v) in buf.iter_mut().enumerate() {
        let x = (k as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
        *v = ((x >> 33) % 1009) as f32 / 16.0;
    }
}

// ------------------------------------------------ random Layer-I algebra --

#[derive(Debug, Clone, Copy)]
enum FOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

fn fop() -> impl Strategy<Value = FOp> {
    prop_oneof![Just(FOp::Add), Just(FOp::Sub), Just(FOp::Mul), Just(FOp::Min), Just(FOp::Max)]
}

fn combine(op: FOp, a: E, b: E) -> E {
    match op {
        FOp::Add => a + b,
        FOp::Sub => a - b,
        FOp::Mul => a * b,
        FOp::Min => E::min(a, b),
        FOp::Max => E::max(a, b),
    }
}

/// A random one- or two-stage stencil. Stage 1 (`bx`) combines three
/// in-bounds taps of the padded input; stage 2 (`by`, optional) combines
/// three row-taps of `bx` over a 2-row-smaller domain, creating a
/// bx -> by flow dependence the legality checker must respect.
#[derive(Debug, Clone)]
struct RAlg {
    taps: [(i64, i64); 3], // (di, dj) in 0..=2: always inside the padding
    ops1: [FOp; 2],
    scale: i8,
    stage2: Option<[FOp; 2]>,
}

fn ralg() -> impl Strategy<Value = RAlg> {
    (
        [(0i64..=2, 0i64..=2), (0i64..=2, 0i64..=2), (0i64..=2, 0i64..=2)],
        [fop(), fop()],
        any::<i8>(),
        proptest::option::of([fop(), fop()]),
    )
        .prop_map(|(taps, ops1, scale, stage2)| RAlg { taps, ops1, scale, stage2 })
}

/// A random schedule-command sequence for one computation, shaped so
/// every generated sequence is legal (the commands never reorder the
/// two stages against their dependence).
#[derive(Debug, Clone)]
struct RSched {
    tile: Option<(i64, i64)>,
    interchange: bool,
    shift: i8,
    par: bool,
    inner: u8, // 0 = plain, 1 = vectorize(4), 2 = unroll(2)
}

fn rsched() -> impl Strategy<Value = RSched> {
    (
        proptest::option::of((2i64..=4, 2i64..=4)),
        any::<bool>(),
        -2i8..=2,
        any::<bool>(),
        0u8..=2,
    )
        .prop_map(|(tile, interchange, shift, par, inner)| RSched {
            tile,
            interchange,
            shift,
            par,
            inner,
        })
}

fn apply_sched(f: &mut Function, c: CompId, s: &RSched) {
    if let Some((t1, t2)) = s.tile {
        f.tile(c, "i", "j", t1, t2, ("i0", "j0", "i1", "j1")).unwrap();
        if s.interchange {
            f.interchange(c, "i0", "j0").unwrap();
        }
        if s.shift != 0 {
            f.shift(c, "i1", s.shift as i64).unwrap();
        }
        match s.inner {
            1 => drop(f.vectorize(c, "j1", 4).unwrap()),
            2 => drop(f.unroll(c, "j1", 2).unwrap()),
            _ => {}
        }
        if s.par {
            f.parallelize(c, "i0").unwrap();
        }
    } else {
        if s.interchange {
            f.interchange(c, "i", "j").unwrap();
        }
        if s.shift != 0 {
            f.shift(c, "i", s.shift as i64).unwrap();
        }
        match s.inner {
            1 => drop(f.vectorize(c, "j", 4).unwrap()),
            2 => drop(f.unroll(c, "j", 2).unwrap()),
            _ => {}
        }
        if s.par {
            f.parallelize(c, "i").unwrap();
        }
    }
}

/// Builds the Layer-I function. Returns `(f, bx, by)`; `by` is `None`
/// for single-stage algorithms.
fn build(alg: &RAlg) -> (Function, CompId, Option<CompId>) {
    let mut f = Function::new("diff", &["N", "M"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("M"));
    let input = f
        .input(
            "in",
            &[
                f.var("i", 0, E::param("N") + E::i64(2)),
                f.var("j", 0, E::param("M") + E::i64(2)),
            ],
        )
        .unwrap();
    let tap = |k: usize, alg: &RAlg| {
        E::Access(
            input,
            vec![
                E::iter("i") + E::i64(alg.taps[k].0),
                E::iter("j") + E::i64(alg.taps[k].1),
            ],
        )
    };
    let e1 = combine(
        alg.ops1[1],
        combine(alg.ops1[0], tap(0, alg), tap(1, alg)),
        tap(2, alg) * E::f32(alg.scale as f32 / 8.0),
    );
    let bx = f.computation("bx", &[i, j.clone()], e1).unwrap();
    let bxb = f.buffer("bxb", &[E::param("N"), E::param("M")]);
    f.store_in(bx, bxb, &[E::iter("i"), E::iter("j")]);
    let by = alg.stage2.map(|ops2| {
        let bxa = |d: i64| E::Access(bx, vec![E::iter("i") + E::i64(d), E::iter("j")]);
        let i2 = f.var("i", 0, E::param("N") - E::i64(2));
        let e2 = combine(ops2[1], combine(ops2[0], bxa(0), bxa(1)), bxa(2));
        f.computation("by", &[i2, j], e2).unwrap()
    });
    (f, bx, by)
}

/// Runs the CPU module in one execution mode, returning every buffer's
/// bit pattern.
/// Shared compile service with a disk store for the cached↔fresh lane.
/// One instance (and store directory) per test process.
fn diff_service() -> &'static tiramisu::CompileService {
    static SVC: std::sync::OnceLock<tiramisu::CompileService> = std::sync::OnceLock::new();
    SVC.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("tiramisu-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tiramisu::CompileService::new(tiramisu::ServiceConfig {
            cache_dir: Some(dir),
            ..Default::default()
        })
    })
}

/// `loopvm::opt` emits SSA: the artifact decoder, which rejects a register
/// defined twice, must accept the bytecode of every generated program (the
/// CPU lane goes through a real disk artifact below; GPU phases and rank
/// chunks go through here).
fn bytecode_roundtrips(p: &loopvm::Program) -> bool {
    let mut w = artifacts::wire::Writer::new();
    loopvm::codec::encode_bc(p.compiled().unwrap().bytecode(), &mut w);
    loopvm::codec::decode_bc(&mut artifacts::wire::Reader::new(&w.into_vec()), p).is_ok()
}

fn run_cpu(module: &tiramisu::CpuModule, mode: loopvm::ExecMode) -> Vec<Vec<u32>> {
    let mut m = module.machine();
    m.set_threads(2);
    m.set_exec_mode(mode);
    fill(m.buffer_mut(module.vm_buffer("in").unwrap()), 7);
    m.run(&module.program).unwrap();
    (0..module.program.n_buffers())
        .map(|b| {
            m.buffer(module.program.nth_buffer(b)).iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// The full differential: evaluators agree bit-for-bit, backends
    /// agree bit-for-bit, illegal orderings are rejected.
    #[test]
    fn random_programs_agree_everywhere(
        alg in ralg(),
        sched1 in rsched(),
        sched2 in rsched(),
        illegal_order in any::<bool>(),
    ) {
        // --- illegal schedules must be rejected, not miscompiled -------
        if illegal_order && alg.stage2.is_some() {
            let (mut f, bx, by) = build(&alg);
            // Order the producer *after* its consumer: bx -> by flow
            // dependence now points backwards in time.
            f.after(bx, by.unwrap(), At::Root).unwrap();
            let r = compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default());
            prop_assert!(
                r.is_err(),
                "consumer-before-producer schedule was accepted: {alg:?}"
            );
            return Ok(());
        }

        // --- CPU: scheduled, jit vs bytecode vs tree-walk --------------
        let (mut f, bx, by) = build(&alg);
        apply_sched(&mut f, bx, &sched1);
        if let Some(by) = by {
            apply_sched(&mut f, by, &sched2);
        }
        let module = compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        let fast = run_cpu(&module, loopvm::ExecMode::Bytecode);
        let reference = run_cpu(&module, loopvm::ExecMode::TreeWalk);
        prop_assert_eq!(&fast, &reference, "bytecode vs tree-walk: {:?}", &alg);
        // The native tier must agree bit-for-bit too. Off x86-64/Linux
        // Jit mode falls back to the interpreter, so this lane still
        // passes (trivially) with zero changes.
        let jitted = run_cpu(&module, loopvm::ExecMode::Jit);
        prop_assert_eq!(&fast, &jitted, "bytecode vs jit: {:?}", &alg);

        // The unscheduled program must compute the same values (schedule
        // commands are semantics-preserving by construction).
        let (f0, _, _) = build(&alg);
        let module0 = compile_cpu(&f0, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        let unscheduled = run_cpu(&module0, loopvm::ExecMode::Bytecode);
        let out_name = if alg.stage2.is_some() { "by" } else { "bxb" };
        let out_idx = |m: &tiramisu::CpuModule| m.vm_buffer(out_name).unwrap().index();
        prop_assert_eq!(
            &fast[out_idx(&module)],
            &unscheduled[out_idx(&module0)],
            "schedule changed values: {:?} / {:?} {:?}", &alg, &sched1, &sched2
        );
        let cpu_out = &fast[out_idx(&module)];

        // --- CPU cached lane: disk artifact vs fresh compile -----------
        // First request compiles (or hits a prior case's artifact); after
        // clearing the memory tier the second request must be served by
        // decoding the on-disk artifact, bit-exact vs the direct compile.
        let svc = diff_service();
        svc.compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        svc.clear_memory();
        let disk_hits_before = svc.stats().disk_hits;
        let cached = svc.compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        prop_assert_eq!(
            svc.stats().disk_hits,
            disk_hits_before + 1,
            "second request did not decode from disk: {:?}", &alg
        );
        prop_assert_eq!(&cached.program, &module.program, "decoded program differs: {:?}", &alg);
        let cached_run = run_cpu(&cached, loopvm::ExecMode::Jit);
        prop_assert_eq!(&fast, &cached_run, "cached vs fresh execution: {:?}", &alg);

        // --- GPU backend ----------------------------------------------
        let (mut fg, bxg, byg) = build(&alg);
        fg.tile_gpu(bxg, "i", "j", 4, 4).unwrap();
        if let Some(byg) = byg {
            fg.tile_gpu(byg, "i", "j", 4, 4).unwrap();
        }
        let gm = compile_gpu(&fg, &[("N", N), ("M", M)], GpuOptions::default()).unwrap();
        for phase in gm.kernels.iter().flat_map(|k| k.phases()) {
            prop_assert!(bytecode_roundtrips(phase), "GPU phase is not SSA: {:?}", &alg);
        }
        let mut bufs = gm.alloc_buffers();
        fill(&mut bufs[gm.buffer_index("in").unwrap()], 7);
        gm.run(&mut bufs, &gpusim::GpuModel::default()).unwrap();
        let gpu_out: Vec<u32> =
            bufs[gm.buffer_index(out_name).unwrap()].iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(cpu_out, &gpu_out, "CPU vs GPU: {:?}", &alg);

        // GPU lane: the default run above executed the stored warp
        // bytecode; the tree-walk reference must agree on every buffer.
        let mut tw_bufs = gm.alloc_buffers();
        fill(&mut tw_bufs[gm.buffer_index("in").unwrap()], 7);
        for k in &gm.kernels {
            gpusim::launch_tree_walk(k, &mut tw_bufs, &gpusim::GpuModel::default()).unwrap();
        }
        for (b, (fast_buf, tw_buf)) in bufs.iter().zip(&tw_bufs).enumerate() {
            let fast_bits: Vec<u32> = fast_buf.iter().map(|v| v.to_bits()).collect();
            let tw_bits: Vec<u32> = tw_buf.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                &fast_bits, &tw_bits,
                "GPU bytecode vs tree-walk (buffer {}): {:?}", b, &alg
            );
        }

        // --- distributed backend --------------------------------------
        // Distribute the final stage's rows over 2 ranks; earlier stages
        // are computed redundantly per rank, so no communication is
        // needed and every rank's owned rows must match the CPU result.
        let (mut fd, bxd, byd) = build(&alg);
        let (dist_comp, rows) = match byd {
            Some(byd) => (byd, N - 2),
            None => (bxd, N),
        };
        let chunk = rows / RANKS as i64;
        fd.split(dist_comp, "i", chunk, "i0", "i1").unwrap();
        fd.distribute(dist_comp, "i0").unwrap();
        let dm = compile_dist(&fd, &[("N", N), ("M", M)], DistOptions::default()).unwrap();
        for chunk in dm.dist.chunks() {
            prop_assert!(bytecode_roundtrips(chunk), "rank chunk is not SSA: {:?}", &alg);
        }
        let out_buf = dm.vm_buffer(out_name).unwrap();
        let row_len = M as usize;
        let gathered = Mutex::new(vec![0u32; (chunk as usize) * RANKS * row_len]);
        mpisim::run_with_opts(
            &dm.dist,
            RANKS,
            &CommModel::default(),
            &RunOptions::default(),
            |_rank, machine| {
                fill(machine.buffer_mut(dm.vm_buffer("in").unwrap()), 7);
            },
            |rank, machine| {
                let vals = machine.buffer(out_buf);
                let lo = rank * chunk as usize * row_len;
                let n = chunk as usize * row_len;
                let bits: Vec<u32> = vals[lo..lo + n].iter().map(|v| v.to_bits()).collect();
                gathered.lock().unwrap()[lo..lo + n].copy_from_slice(&bits);
            },
        )
        .unwrap();
        let dist_out = gathered.into_inner().unwrap();
        prop_assert_eq!(
            &cpu_out[..dist_out.len()],
            &dist_out[..],
            "CPU vs dist: {:?}", &alg
        );

        // Dist lane: rerun with every rank forced onto the tree-walk
        // evaluator (the init hook flips the machine before the rank
        // program starts, disabling the memoized chunk bytecode and the
        // comm thunks alike); results must be bit-identical.
        let gathered_tw = Mutex::new(vec![0u32; (chunk as usize) * RANKS * row_len]);
        mpisim::run_with_opts(
            &dm.dist,
            RANKS,
            &CommModel::default(),
            &RunOptions::default(),
            |_rank, machine| {
                machine.set_exec_mode(loopvm::ExecMode::TreeWalk);
                fill(machine.buffer_mut(dm.vm_buffer("in").unwrap()), 7);
            },
            |rank, machine| {
                let vals = machine.buffer(out_buf);
                let lo = rank * chunk as usize * row_len;
                let n = chunk as usize * row_len;
                let bits: Vec<u32> = vals[lo..lo + n].iter().map(|v| v.to_bits()).collect();
                gathered_tw.lock().unwrap()[lo..lo + n].copy_from_slice(&bits);
            },
        )
        .unwrap();
        let dist_tw_out = gathered_tw.into_inner().unwrap();
        prop_assert_eq!(
            &dist_out, &dist_tw_out,
            "dist bytecode vs tree-walk: {:?}", &alg
        );
    }
}

// ----------------------------------------------------- trap differential --

/// Runs `p` under `mode` from a deterministic non-zero fill of every
/// buffer and reduces the observable outcome to a string — `ok`, the
/// runtime `Error`'s display text, or the panic payload text — plus every
/// buffer's bits after the run. The JIT deopts to the interpreter's scalar
/// helpers on every trapping instruction, so all three executors must
/// produce the *same* string, and a failed run must leave the same partial
/// results behind.
fn trap_outcome_and_buffers(
    p: &loopvm::Program,
    mode: loopvm::ExecMode,
) -> (String, Vec<Vec<u32>>) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut m = loopvm::Machine::new(p);
    m.set_threads(2);
    m.set_exec_mode(mode);
    for b in 0..p.n_buffers() {
        fill(m.buffer_mut(p.nth_buffer(b)), 11 + b as u64);
    }
    let outcome = match catch_unwind(AssertUnwindSafe(|| m.run(p))) {
        Ok(Ok(())) => "ok".to_string(),
        Ok(Err(e)) => format!("err: {e}"),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            format!("panic: {text}")
        }
    };
    let bufs = (0..p.n_buffers())
        .map(|b| m.buffer(p.nth_buffer(b)).iter().map(|v| v.to_bits()).collect())
        .collect();
    (outcome, bufs)
}

fn trap_outcome(p: &loopvm::Program, mode: loopvm::ExecMode) -> String {
    trap_outcome_and_buffers(p, mode).0
}

/// Traps (out-of-bounds accesses, division by zero) must produce the
/// identical error or panic on the JIT, bytecode, and tree-walk tiers —
/// values agreeing is not enough, the failure paths must agree too.
#[test]
fn traps_agree_across_executors() {
    use loopvm::{Expr, LoopKind, Program, Stmt};

    // Panics from the deliberately-trapping programs below are expected;
    // silence the default hook's backtrace spew for this test.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut cases: Vec<(&str, Program, &str)> = Vec::new();

    // Store past the end of a buffer inside a serial loop.
    let mut p = Program::new();
    let a = p.buffer("A", 4);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        Expr::i64(0),
        Expr::i64(8),
        vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push(("serial store oob", p, "err: out of bounds: A[4] (size 4)"));

    // Load past the end inside a vectorized loop (the JIT's unrolled
    // 8-lane chunk must trap on the same lane the interpreter does).
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let b = p.buffer("B", 8);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        Expr::i64(0),
        Expr::i64(8),
        LoopKind::Vectorize(8),
        vec![Stmt::store(b, Expr::var(i), Expr::load(a, Expr::var(i) + Expr::i64(1)))],
    ));
    cases.push(("vector load oob", p, "err: out of bounds: A[8] (size 8)"));

    // Store out of bounds inside a parallel loop: the host must surface
    // the first failing worker's error (spawn order), on every tier.
    let mut p = Program::new();
    let a = p.buffer("A", 4);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        Expr::i64(0),
        Expr::i64(8),
        LoopKind::Parallel,
        vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push(("parallel store oob", p, "err: out of bounds: A[4] (size 4)"));

    // Integer division by zero panics (4 / i at i = 0), with the exact
    // libcore message on every tier.
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        Expr::i64(0),
        Expr::i64(4),
        vec![Stmt::store(a, Expr::i64(4) / Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push(("div by zero", p, "panic: attempt to divide by zero"));

    // Remainder by zero ((i + 1) % i at i = 0).
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        Expr::i64(0),
        Expr::i64(4),
        vec![Stmt::store(a, (Expr::var(i) + Expr::i64(1)) % Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push((
        "rem by zero",
        p,
        "panic: attempt to calculate the remainder with a divisor of zero",
    ));

    let mut failures = Vec::new();
    for (name, p, expected) in &cases {
        let jit = trap_outcome(p, loopvm::ExecMode::Jit);
        let bc = trap_outcome(p, loopvm::ExecMode::Bytecode);
        let tw = trap_outcome(p, loopvm::ExecMode::TreeWalk);
        if bc != *expected {
            failures.push(format!("{name}: bytecode produced {bc:?}, expected {expected:?}"));
        }
        if jit != bc {
            failures.push(format!("{name}: jit produced {jit:?}, bytecode {bc:?}"));
        }
        if tw != bc {
            failures.push(format!("{name}: tree-walk produced {tw:?}, bytecode {bc:?}"));
        }
    }

    std::panic::set_hook(prev_hook);
    assert!(failures.is_empty(), "trap outcomes diverged:\n{}", failures.join("\n"));
}

/// The JIT guards a contiguous (or strided) vector access once for all
/// eight lanes and computes uniform values once; whichever lane is the
/// first out of bounds, the error, its index and the lanes stored before
/// it must be exactly the interpreters'.
#[test]
fn vector_lane_traps_agree() {
    use loopvm::{Expr, LoopKind, Program, Stmt};

    // Two chunks over `i in 0..16`; `a_len` places the first failing lane.
    let program = |a_len: usize, body: &dyn Fn(loopvm::BufId, loopvm::BufId, Expr) -> Stmt| {
        let mut p = Program::new();
        let a = p.buffer("A", a_len);
        let b = p.buffer("B", 16);
        let i = p.var("i");
        let stmt = body(a, b, Expr::var(i));
        p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(16), LoopKind::Vectorize(8), vec![stmt]));
        p
    };
    let mut cases: Vec<(String, Program, String)> = Vec::new();
    for lane in 0..8usize {
        // Lane `lane` of the second chunk reads/writes A[8 + lane + 2].
        let len = 8 + lane + 2;
        let oob = format!("err: out of bounds: A[{len}] (size {len})");
        cases.push((
            format!("load, lane {lane}"),
            program(len, &|a, b, i| Stmt::store(b, i.clone(), Expr::load(a, i + Expr::i64(2)))),
            oob.clone(),
        ));
        cases.push((
            format!("store, lane {lane}"),
            program(len, &|a, b, i| Stmt::store(a, i.clone() + Expr::i64(2), Expr::load(b, i))),
            oob,
        ));
        // Stride 3: lane `lane` of the second chunk reads A[3·(8 + lane) + 1].
        let len = 3 * (8 + lane) + 1;
        cases.push((
            format!("strided load, lane {lane}"),
            program(len, &|a, b, i| {
                Stmt::store(b, i.clone(), Expr::load(a, i * Expr::i64(3) + Expr::i64(1)))
            }),
            format!("err: out of bounds: A[{len}] (size {len})"),
        ));
    }
    cases.push((
        "negative lane 0, load".to_string(),
        program(32, &|a, b, i| Stmt::store(b, i.clone(), Expr::load(a, i - Expr::i64(3)))),
        "err: out of bounds: A[-3] (size 32)".to_string(),
    ));
    cases.push((
        "negative lane 0, store".to_string(),
        program(32, &|a, b, i| Stmt::store(a, i.clone() - Expr::i64(3), Expr::load(b, i))),
        "err: out of bounds: A[-3] (size 32)".to_string(),
    ));
    cases.push((
        "uniform-index load".to_string(),
        program(5, &|a, b, i| Stmt::store(b, i, Expr::load(a, Expr::i64(5)))),
        "err: out of bounds: A[5] (size 5)".to_string(),
    ));
    // In place, shifting left: a chunk loads all eight lanes before it
    // stores any, and the second chunk's last load is past the end.
    cases.push((
        "in-place shift".to_string(),
        program(16, &|a, _, i| Stmt::store(a, i.clone(), Expr::load(a, i + Expr::i64(1)))),
        "err: out of bounds: A[16] (size 16)".to_string(),
    ));
    cases.push((
        "in-place shift, in bounds".to_string(),
        program(17, &|a, _, i| Stmt::store(a, i.clone(), Expr::load(a, i + Expr::i64(1)))),
        "ok".to_string(),
    ));

    let mut failures = Vec::new();
    for (name, p, expected) in &cases {
        // The native tier must be what runs, not a silent fallback.
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        assert!(p.compiled().unwrap().jit().is_some(), "{name}: no native code");
        let (bc, bc_bufs) = trap_outcome_and_buffers(p, loopvm::ExecMode::Bytecode);
        if bc != *expected {
            failures.push(format!("{name}: bytecode produced {bc:?}, expected {expected:?}"));
        }
        for mode in [loopvm::ExecMode::Jit, loopvm::ExecMode::TreeWalk] {
            let (out, bufs) = trap_outcome_and_buffers(p, mode);
            if out != bc {
                failures.push(format!("{name}: {mode:?} produced {out:?}, bytecode {bc:?}"));
            }
            if bufs != bc_bufs {
                failures.push(format!("{name}: {mode:?} left different buffers than bytecode"));
            }
        }
    }
    assert!(failures.is_empty(), "vector trap outcomes diverged:\n{}", failures.join("\n"));
}
