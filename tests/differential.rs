//! Cross-backend differential test harness.
//!
//! Random small Layer-I algorithms (one- or two-stage stencils over a
//! padded input) are combined with random *legal* schedule-command
//! sequences, then compiled and executed every way the repo can:
//!
//! - CPU bytecode (the optimizing register-VM path, `Machine::run`),
//! - CPU reference (the plain lowering on the same interpreter,
//!   `Machine::run_tree_walk`),
//! - the test-side walker (`tests/common/walker.rs`), which shares
//!   nothing with the executors but the scalar semantics,
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
#[path = "common/traps.rs"]
mod traps;
#[path = "common/walker.rs"]
mod walker;

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

/// `loopvm::opt` emits strict SSA: the artifact decoder, which rejects a
/// register defined twice or read where its definition does not reach,
/// must accept the bytecode of every generated program — so every case
/// proves the optimizer's output passes the dominance check (the CPU lane
/// goes through a real disk artifact below; GPU phases and rank chunks go
/// through here).
fn bytecode_roundtrips(p: &loopvm::Program) -> bool {
    let mut w = artifacts::wire::Writer::new();
    loopvm::codec::encode_bc(p.compiled().unwrap().bytecode(), &mut w);
    loopvm::codec::decode_bc(&mut artifacts::wire::Reader::new(&w.into_vec()), p).is_ok()
}

fn bits(bufs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    bufs.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect()
}

/// [`run_cpu`] on the walker.
fn walk_cpu(module: &tiramisu::CpuModule) -> Vec<Vec<u32>> {
    let p = &module.program;
    let mut bufs = walker::buffers(p);
    fill(&mut bufs[module.vm_buffer("in").unwrap().index()], 7);
    walker::run(p, &mut bufs).unwrap();
    bits(&bufs)
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
        prop_assert_eq!(&fast, &walk_cpu(&module), "bytecode vs walker: {:?}", &alg);
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

/// One edit of an encoded stream, offsets taken modulo its length: kind 0
/// flips the bits `v` of byte `a`, kind 1 keeps the first `a` bytes, kind
/// 2 copies up to 16 bytes from offset `b` over offset `a`.
fn mutate(bytes: &mut Vec<u8>, (kind, a, b, v): (u8, usize, usize, u8)) {
    let n = bytes.len();
    if n == 0 {
        return;
    }
    let (a, b) = (a % n, b % n);
    match kind {
        0 => bytes[a] ^= v.max(1),
        1 => bytes.truncate(a),
        _ => {
            let len = (v as usize % 16 + 1).min(n - a).min(n - b);
            let src = bytes[b..b + len].to_vec();
            bytes[a..a + len].copy_from_slice(&src);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// The bytecode decoder is a trust boundary: the encoded bytecode of a
    /// generated program with bytes flipped, cut off or spliced decodes to
    /// `Ok` or `Err`, never a panic, and whatever decodes compiles to
    /// native code without one.
    #[test]
    fn mutated_bytecode_decodes_or_errs(
        alg in ralg(),
        sched in rsched(),
        edits in proptest::collection::vec(
            (0u8..3, any::<usize>(), any::<usize>(), any::<u8>()),
            1..5,
        ),
    ) {
        let (mut f, bx, _) = build(&alg);
        apply_sched(&mut f, bx, &sched);
        let module = compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        let p = &module.program;
        let mut w = artifacts::wire::Writer::new();
        loopvm::codec::encode_bc(p.compiled().unwrap().bytecode(), &mut w);
        let mut bytes = w.into_vec();
        for &e in &edits {
            mutate(&mut bytes, e);
        }
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let bc = loopvm::codec::decode_bc(&mut artifacts::wire::Reader::new(&bytes), p).ok()?;
            loopvm::jit::compile(&bc).map(|j| j.code_len())
        }));
        prop_assert!(run.is_ok(), "decode or compile panicked: {:?} after {:?}", &alg, &edits);
    }
}

// ----------------------------------------------------- trap differential --

/// Reduces a run's observable outcome to a string: `ok`, the runtime
/// `Error`'s display text, or the panic payload text.
fn outcome_of(run: impl FnOnce() -> Result<(), loopvm::Error>) -> String {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(run)) {
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
    }
}

/// Runs `p` under `mode` from a deterministic non-zero fill of every
/// buffer: the [`outcome_of`] string plus every buffer's bits after the
/// run. The JIT deopts to the interpreter's scalar helpers on every
/// trapping instruction, so all three executors — and the walker — must
/// produce the *same* string, and a failed run must leave the same
/// partial results behind.
fn trap_outcome_and_buffers(
    p: &loopvm::Program,
    mode: loopvm::ExecMode,
) -> (String, Vec<Vec<u32>>) {
    trap_outcome_on(p, mode, 2)
}

/// [`trap_outcome_and_buffers`] on `threads` threads.
fn trap_outcome_on(
    p: &loopvm::Program,
    mode: loopvm::ExecMode,
    threads: usize,
) -> (String, Vec<Vec<u32>>) {
    let mut m = loopvm::Machine::new(p);
    m.set_threads(threads);
    m.set_exec_mode(mode);
    for b in 0..p.n_buffers() {
        fill(m.buffer_mut(p.nth_buffer(b)), 11 + b as u64);
    }
    let outcome = outcome_of(|| m.run(p));
    let bufs = (0..p.n_buffers())
        .map(|b| m.buffer(p.nth_buffer(b)).iter().map(|v| v.to_bits()).collect())
        .collect();
    (outcome, bufs)
}

/// [`trap_outcome_and_buffers`] on the walker.
fn walker_outcome_and_buffers(p: &loopvm::Program) -> (String, Vec<Vec<u32>>) {
    let mut bufs = walker::buffers(p);
    for (b, buf) in bufs.iter_mut().enumerate() {
        fill(buf, 11 + b as u64);
    }
    let outcome = outcome_of(|| walker::run(p, &mut bufs));
    (outcome, bits(&bufs))
}

fn trap_outcome(p: &loopvm::Program, mode: loopvm::ExecMode, threads: usize) -> String {
    trap_outcome_on(p, mode, threads).0
}

/// Traps (out-of-bounds accesses, division by zero) must produce the
/// identical error or panic on the JIT, bytecode and reference tiers and
/// the walker, on 1, 2 and 3 threads — values agreeing is not enough, the
/// failure paths must agree too. A failed `Parallel` dispatch reports
/// what a serial run does: the first failing chunk in chunk order.
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
    // the first failing chunk's error (chunk order), on every tier.
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

    // Division by zero in a chunk after the first, and an earlier chunk's
    // error before a later chunk's panic; both dispatches go to the crew
    // on 2 and 3 threads. The inline twin runs on the caller and must
    // fail the same way.
    let div = "panic: attempt to divide by zero";
    cases.push(("parallel div by zero", traps::parallel_div_by_zero(), div));
    cases.push(("parallel div by zero inline", traps::parallel_div_by_zero_inline(), div));
    let err = "err: out of bounds: B[8] (size 8)";
    cases.push(("parallel err before panic", traps::parallel_err_before_panic(), err));

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
    for ((name, p, expected), threads) in cases.iter().flat_map(|c| [1, 2, 3].map(|t| (c, t))) {
        let name = format!("{name} on {threads} threads");
        let jit = trap_outcome(p, loopvm::ExecMode::Jit, threads);
        let bc = trap_outcome(p, loopvm::ExecMode::Bytecode, threads);
        let tw = trap_outcome(p, loopvm::ExecMode::TreeWalk, threads);
        let walked = walker_outcome_and_buffers(p).0;
        if bc != *expected {
            failures.push(format!("{name}: bytecode produced {bc:?}, expected {expected:?}"));
        }
        if jit != bc {
            failures.push(format!("{name}: jit produced {jit:?}, bytecode {bc:?}"));
        }
        if tw != bc {
            failures.push(format!("{name}: tree-walk produced {tw:?}, bytecode {bc:?}"));
        }
        if walked != bc {
            failures.push(format!("{name}: walker produced {walked:?}, bytecode {bc:?}"));
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
            oob.clone(),
        ));
        // The stored value and the loaded one are held in XMM pairs by
        // packed arithmetic; the per-lane path reads or refills them.
        cases.push((
            format!("packed store, lane {lane}"),
            program(len, &|a, b, i| {
                let v = Expr::load(b, i.clone());
                Stmt::store(a, i + Expr::i64(2), v.clone() * v + Expr::f32(0.5))
            }),
            oob.clone(),
        ));
        cases.push((
            format!("packed load, lane {lane}"),
            program(len, &|a, b, i| {
                let v = Expr::load(a, i.clone() + Expr::i64(2)) * Expr::f32(2.0);
                Stmt::store(b, i.clone(), v + Expr::load(b, i))
            }),
            oob.clone(),
        ));
        // The same index through `f2i`: its interval fits `i32`, so it is
        // a narrow register, computed on packed dwords, and the unproven
        // access reads its lanes from the dword array per lane.
        let narrow = |i: Expr| Expr::to_i64(Expr::to_f32(i) + Expr::f32(2.0));
        cases.push((
            format!("narrow load, lane {lane}"),
            program(len, &|a, b, i| Stmt::store(b, i.clone(), Expr::load(a, narrow(i)))),
            oob.clone(),
        ));
        cases.push((
            format!("narrow store, lane {lane}"),
            program(len, &|a, b, i| Stmt::store(a, narrow(i.clone()), Expr::load(b, i))),
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
    // `f2i(max(min(v·0, 5), −3) + 20)` with `v` a value the facts know
    // nothing of: `v·0` may be NaN (`v` infinite), so no interval holds
    // it and the index keeps its guard. Loaded `v` is finite: every lane
    // is A[20]. `v = 1/(i − 8 − lane)` is +∞ at that lane of the second
    // chunk: `min(NaN, 5)` is 5, so that lane alone is A[25].
    let clamped = |v: Expr| {
        let c = Expr::max(Expr::min(v * Expr::f32(0.0), Expr::f32(5.0)), Expr::f32(-3.0));
        Expr::to_i64(c + Expr::f32(20.0))
    };
    cases.push((
        "no-fact float index, load".to_string(),
        program(18, &|a, b, i| Stmt::store(b, i.clone(), Expr::load(a, clamped(Expr::load(b, i))))),
        "err: out of bounds: A[20] (size 18)".to_string(),
    ));
    cases.push((
        "no-fact float index, store".to_string(),
        program(18, &|a, b, i| Stmt::store(a, clamped(Expr::load(b, i.clone())), Expr::load(b, i))),
        "err: out of bounds: A[20] (size 18)".to_string(),
    ));
    for lane in [0, 3, 7] {
        let inf_at = |i: Expr| Expr::f32(1.0) / (Expr::to_f32(i) - Expr::f32((8 + lane) as f32));
        cases.push((
            format!("no-fact float index, +inf at lane {lane}"),
            program(24, &|a, b, i| Stmt::store(b, i.clone(), Expr::load(a, clamped(inf_at(i))))),
            "err: out of bounds: A[25] (size 24)".to_string(),
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
    // One element short: the loop bounds put the store in range on every
    // lane but the last of the last chunk, so its guard must stay.
    cases.push((
        "store out of bounds on lane 7 only".to_string(),
        program(15, &|a, b, i| Stmt::store(a, i.clone(), Expr::load(b, i) + Expr::f32(1.0))),
        "err: out of bounds: A[15] (size 15)".to_string(),
    ));

    let mut failures = Vec::new();
    for (name, p, expected) in &cases {
        // The native tier must be what runs, not a silent fallback.
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let code = p.compiled().unwrap();
            assert!(code.jit().is_some(), "{name}: no native code");
            let listing = loopvm::jit::listing(code.bytecode()).unwrap();
            assert!(!name.starts_with("narrow") || listing.contains("cvttps2dq"), "{name}: wide");
        }
        let (bc, bc_bufs) = trap_outcome_and_buffers(p, loopvm::ExecMode::Bytecode);
        if bc != *expected {
            failures.push(format!("{name}: bytecode produced {bc:?}, expected {expected:?}"));
        }
        let runs = [loopvm::ExecMode::Jit, loopvm::ExecMode::TreeWalk]
            .map(|mode| (format!("{mode:?}"), trap_outcome_and_buffers(p, mode)));
        let walked = ("walker".to_string(), walker_outcome_and_buffers(p));
        for (who, (out, bufs)) in runs.into_iter().chain([walked]) {
            if out != bc {
                failures.push(format!("{name}: {who} produced {out:?}, bytecode {bc:?}"));
            }
            if bufs != bc_bufs {
                failures.push(format!("{name}: {who} left different buffers than bytecode"));
            }
        }
    }
    assert!(failures.is_empty(), "vector trap outcomes diverged:\n{}", failures.join("\n"));
}

/// The unguarded accesses of native code are proven for the buffer
/// lengths of the program it was compiled from, and run over no others. A
/// machine built for a program with a shorter buffer runs the longer
/// program's code on the checked interpreter (`Machine::run`: the
/// interpreter's error payload and partial results, bit for bit), or not
/// at all (`Machine::run_jit`: a clean `Err`, every buffer untouched).
#[test]
fn proven_code_never_runs_over_other_buffer_lengths() {
    use loopvm::{Expr, ExecMode, LoopKind, Machine, Program, Stmt};

    let program = |len: usize| {
        let mut p = Program::new();
        let a = p.buffer("A", len);
        let b = p.buffer("B", 16);
        let i = p.var("i");
        let body = vec![Stmt::store(a, Expr::var(i), Expr::load(b, Expr::var(i)) + Expr::f32(1.0))];
        p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(16), LoopKind::Vectorize(8), body.clone()));
        p.push(Stmt::serial(i, Expr::i64(0), Expr::i64(16), body));
        p
    };
    let (long, short) = (program(16), program(11));
    let machine = |mode: ExecMode| {
        let mut m = Machine::new(&short);
        m.set_threads(2);
        m.set_exec_mode(mode);
        for b in 0..short.n_buffers() {
            fill(m.buffer_mut(short.nth_buffer(b)), 11 + b as u64);
        }
        m
    };
    let contents = |m: &Machine| -> Vec<Vec<u32>> {
        (0..short.n_buffers())
            .map(|b| m.buffer(short.nth_buffer(b)).iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    let mut reference = machine(ExecMode::Bytecode);
    let want = outcome_of(|| reference.run(&long));
    assert_eq!(want, "err: out of bounds: A[11] (size 11)");
    let mut m = machine(ExecMode::Jit);
    assert_eq!(outcome_of(|| m.run(&long)), want);
    assert_eq!(contents(&m), contents(&reference), "different partial results");

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let jit = long.compiled().unwrap().jit().expect("native code");
        assert_eq!((jit.n_deopts(), jit.footprint().kept_guards), (0, 0), "proven for 16 elements");
        let mut m = machine(ExecMode::Jit);
        let before = contents(&m);
        let err = m.run_jit(jit).unwrap_err();
        assert!(matches!(err, loopvm::Error::Structure(_)), "{err}");
        assert_eq!(contents(&m), before, "run_jit touched a buffer");
    }
}

/// A value from `Machine::bind` has no fact: an index it drives keeps
/// its guard, and traps exactly like the interpreter.
#[test]
fn a_bound_variable_index_keeps_its_guard() {
    use loopvm::{Expr, ExecMode, Machine, Program, Stmt};

    let mut p = Program::new();
    let a = p.buffer("A", 4);
    let x = p.var("x");
    p.push(Stmt::store(a, Expr::var(x), Expr::f32(1.0)));
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let jit = p.compiled().unwrap().jit().expect("native code");
        assert_eq!((jit.footprint().kept_guards, jit.n_deopts()), (1, 1));
    }
    for (value, want) in [(2, "ok"), (4, "err: out of bounds: A[4] (size 4)"), (-1, "err: out of bounds: A[-1] (size 4)")] {
        let outcomes = [ExecMode::Jit, ExecMode::Bytecode].map(|mode| {
            let mut m = Machine::new(&p);
            m.set_exec_mode(mode);
            m.bind(x, value);
            let out = outcome_of(|| m.run(&p));
            (out, m.buffer(a).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        });
        assert_eq!(outcomes[0].0, want, "x = {value}");
        assert_eq!(outcomes[0], outcomes[1], "x = {value}");
    }
}
