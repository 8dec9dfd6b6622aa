//! A run's `Parallel` traffic, counted: every dispatch the schedule asks
//! for (`vm.par.dispatches`, whether or not the run opened a crew), those
//! whose estimated work pays for the run's crew (`vm.par.splits`), and
//! the crew's workers, spawned once per run, not once per dispatch
//! (`vm.par.spawns`). Every tier decides alike: the JIT, the bytecode
//! interpreter, the reference evaluator, and bare bytecode runs on a clone
//! and on a decoded copy. The counters are process-wide, so this binary
//! holds a single test.

#[path = "common/traps.rs"]
mod traps;

use loopvm::{BcProgram, ExecMode, Machine, Program};

/// Per-run `(dispatches, splits, spawns)`.
type Counts = (u64, u64, u64);

fn counters() -> Counts {
    let c = |name: &str| telemetry::metrics::counter(name).get();
    (c("vm.par.dispatches"), c("vm.par.splits"), c("vm.par.spawns"))
}

/// The counts of each of three runs, after a warm run (the first run may
/// build the program's compiled form). A run may fail: the trap programs
/// do, on purpose.
fn per_run(mut run: impl FnMut() -> loopvm::Result<()>) -> Vec<Counts> {
    let mut run = || std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut run));
    let _ = run();
    (0..3)
        .map(|_| {
            let before = counters();
            let _ = run();
            let after = counters();
            (after.0 - before.0, after.1 - before.1, after.2 - before.2)
        })
        .collect()
}

/// The tiers a program runs on, the JIT first.
const TIERS: [ExecMode; 3] = [ExecMode::Jit, ExecMode::Bytecode, ExecMode::TreeWalk];

/// `per_run` of `p` on `threads` threads in `mode`.
fn mode_runs(p: &Program, m: &mut Machine, threads: usize, mode: ExecMode) -> Vec<Counts> {
    m.set_threads(threads);
    m.set_exec_mode(mode);
    per_run(|| m.run(p))
}

/// `bc`'s bytes decoded again: a copy that carries no estimates.
fn round_trip(bc: &BcProgram, p: &Program) -> BcProgram {
    let mut w = artifacts::wire::Writer::new();
    loopvm::codec::encode_bc(bc, &mut w);
    let bytes = w.into_vec();
    loopvm::codec::decode_bc(&mut artifacts::wire::Reader::new(&bytes), p).expect("decodes")
}

/// `per_run` on a kernel's own machine, on `threads` threads, per tier
/// (the JIT first), then as bare bytecode: a clone of the program's
/// compiled form, and that form encoded and decoded again.
fn kernel_runs(prep: &kernels::Prepared, threads: usize) -> Vec<(String, Vec<Counts>)> {
    let p = &prep.program;
    let mut runs: Vec<_> = TIERS
        .iter()
        .map(|&mode| (format!("{mode:?}"), mode_runs(p, &mut prep.machine(), threads, mode)))
        .collect();
    let bc = p.compiled().expect("compiles").bytecode();
    for (name, bc) in [("bare clone", bc.clone()), ("bare decoded", round_trip(bc, p))] {
        let mut m = prep.machine();
        m.set_threads(threads);
        runs.push((name.to_string(), per_run(|| m.run_bytecode(&bc))));
    }
    runs
}

/// sgemm's §VI-A schedule puts the parallel `i0` inside the serial `j0`
/// panel loop: n / tile panels plus the initialization nest, each one
/// dispatch of `i0`. At n=64/tile 8 no panel pays for the crew, at
/// n=128/tile 32 every panel does. The trap programs of the differential
/// tests split once per run; the inline twin never does.
#[test]
fn a_run_dispatches_per_panel_and_spawns_at_most_threads_minus_one() {
    // Small: every dispatch runs inline, and no worker is spawned.
    let (n, tile, threads) = (64, 8, 2);
    let prep = kernels::sgemm::tiramisu_best(n, tile).expect("sgemm compile");
    let small = kernel_runs(&prep, threads);
    for (mode, runs) in &small {
        for (run, &(dispatches, splits, spawns)) in runs.iter().enumerate() {
            assert_eq!(dispatches as i64, n / tile + 1, "{mode} run {run}: dispatches");
            assert_eq!((splits, spawns), (0, 0), "{mode} run {run}: splits, spawns");
        }
    }

    // Large: every panel splits, on workers spawned once per run.
    let (n, tile, threads) = (128, 32, 3);
    let prep = kernels::sgemm::tiramisu_best(n, tile).expect("sgemm compile");
    let large = kernel_runs(&prep, threads);
    for (mode, runs) in &large {
        for (run, &(dispatches, splits, spawns)) in runs.iter().enumerate() {
            assert_eq!(dispatches as i64, n / tile + 1, "{mode} run {run}: dispatches");
            assert_eq!(splits as i64, n / tile, "{mode} run {run}: every panel splits");
            assert!(
                (1..threads as u64).contains(&spawns),
                "{mode} run {run}: {spawns} spawns on {threads} threads"
            );
        }
    }

    // The trap programs, on the thread counts the differential test uses.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let traps = [
        ("parallel div by zero", traps::parallel_div_by_zero(), 1),
        ("parallel err before panic", traps::parallel_err_before_panic(), 1),
        ("parallel div by zero inline", traps::parallel_div_by_zero_inline(), 0),
    ];
    let mut trap_runs = Vec::new();
    for (name, p, want) in &traps {
        for threads in [2, 3] {
            for mode in TIERS {
                let runs = mode_runs(p, &mut Machine::new(p), threads, mode);
                for (run, &(dispatches, splits, _)) in runs.iter().enumerate() {
                    let at = format!("{name} on {threads} threads, {mode:?} run {run}");
                    assert_eq!((dispatches, splits), (1, *want), "{at}: dispatches, splits");
                }
                trap_runs.push(((name, threads, mode), runs));
            }
        }
    }
    std::panic::set_hook(prev_hook);

    // Every count is the same on every tier as on the JIT.
    let dispatches_and_splits = |runs: &[Counts]| -> Vec<(u64, u64)> {
        runs.iter().map(|&(dispatches, splits, _)| (dispatches, splits)).collect()
    };
    for runs in [&small, &large] {
        let jit = dispatches_and_splits(&runs[0].1);
        for (tier, runs) in &runs[1..] {
            assert_eq!(dispatches_and_splits(runs), jit, "{tier} and JIT counts differ");
        }
        // The first tiers' spawns agree too.
        assert_eq!(runs[0].1, runs[1].1, "bytecode and JIT counts differ");
    }
    for tiers in trap_runs.chunks(TIERS.len()) {
        let jit = dispatches_and_splits(&tiers[0].1);
        for (at, runs) in &tiers[1..] {
            assert_eq!(dispatches_and_splits(runs), jit, "{at:?}: counts differ from the JIT's");
        }
        assert_eq!(tiers[0].1, tiers[1].1, "{:?}: bytecode and JIT counts differ", tiers[1].0);
    }
}
