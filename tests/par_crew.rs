//! A run's `Parallel` traffic, counted: every dispatch the schedule asks
//! for (`vm.par.dispatches`, whether or not the run opened a crew), those
//! whose estimated work pays for the run's crew (`vm.par.splits`), and
//! the crew's workers, spawned once per run, not once per dispatch
//! (`vm.par.spawns`). Both tiers decide alike. The counters are
//! process-wide, so this binary holds a single test.

#[path = "common/traps.rs"]
mod traps;

use loopvm::{ExecMode, Machine, Program};

/// Per-run `(dispatches, splits, spawns)`.
type Counts = (u64, u64, u64);

fn counters() -> Counts {
    let c = |name: &str| telemetry::metrics::counter(name).get();
    (c("vm.par.dispatches"), c("vm.par.splits"), c("vm.par.spawns"))
}

/// The counts of each of three runs of `p` on `m`, after a warm run (the
/// first run may build the program's compiled form). A run may fail: the
/// trap programs do, on purpose.
fn per_run(m: &mut Machine, p: &Program) -> Vec<Counts> {
    let mut run = || std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(p)));
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

/// `per_run` on a kernel's own machine, on `threads` threads, per tier.
fn kernel_runs(prep: &kernels::Prepared, threads: usize) -> Vec<(ExecMode, Vec<Counts>)> {
    [ExecMode::Bytecode, ExecMode::Jit]
        .map(|mode| {
            let mut m = prep.machine();
            m.set_threads(threads);
            m.set_exec_mode(mode);
            (mode, per_run(&mut m, &prep.program))
        })
        .into()
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
            assert_eq!(dispatches as i64, n / tile + 1, "{mode:?} run {run}: dispatches");
            assert_eq!((splits, spawns), (0, 0), "{mode:?} run {run}: splits, spawns");
        }
    }

    // Large: every panel splits, on workers spawned once per run.
    let (n, tile, threads) = (128, 32, 3);
    let prep = kernels::sgemm::tiramisu_best(n, tile).expect("sgemm compile");
    let large = kernel_runs(&prep, threads);
    for (mode, runs) in &large {
        for (run, &(dispatches, splits, spawns)) in runs.iter().enumerate() {
            assert_eq!(dispatches as i64, n / tile + 1, "{mode:?} run {run}: dispatches");
            assert_eq!(splits as i64, n / tile, "{mode:?} run {run}: every panel splits");
            assert!(
                (1..threads as u64).contains(&spawns),
                "{mode:?} run {run}: {spawns} spawns on {threads} threads"
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
            for mode in [ExecMode::Bytecode, ExecMode::Jit] {
                let mut m = Machine::new(p);
                m.set_threads(threads);
                m.set_exec_mode(mode);
                let runs = per_run(&mut m, p);
                for (run, &(dispatches, splits, _)) in runs.iter().enumerate() {
                    let at = format!("{name} on {threads} threads, {mode:?} run {run}");
                    assert_eq!((dispatches, splits), (1, *want), "{at}: dispatches, splits");
                }
                trap_runs.push(((name, threads, mode), runs));
            }
        }
    }
    std::panic::set_hook(prev_hook);

    // Every count is the same on both tiers.
    for runs in [&small, &large] {
        assert_eq!(runs[0].1, runs[1].1, "bytecode and JIT counts differ");
    }
    for pair in trap_runs.chunks(2) {
        assert_eq!(pair[0].1, pair[1].1, "{:?}: bytecode and JIT counts differ", pair[0].0);
    }
}
