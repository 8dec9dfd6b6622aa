//! A run's `Parallel` traffic, counted: every dispatch the schedule asks
//! for reaches the run's crew (`vm.par.dispatches`), and the crew spawns
//! its workers once per run, not once per dispatch (`vm.par.spawns`).
//! The counters are process-wide, so this binary holds a single test.

use loopvm::ExecMode;

fn counters() -> (u64, u64) {
    let c = |name: &str| telemetry::metrics::counter(name).get();
    (c("vm.par.dispatches"), c("vm.par.spawns"))
}

/// sgemm's §VI-A schedule puts the parallel `i0` inside the serial `j0`
/// panel loop: n / tile panels plus the initialization nest, each one
/// dispatch of `i0`.
#[test]
fn a_run_dispatches_per_panel_and_spawns_at_most_threads_minus_one() {
    let (n, tile, threads) = (64, 8, 2);
    let prep = kernels::sgemm::tiramisu_best(n, tile).expect("sgemm compile");
    for mode in [ExecMode::Bytecode, ExecMode::Jit] {
        let mut m = prep.machine();
        m.set_threads(threads);
        m.set_exec_mode(mode);
        // Warm: the first run may build the program's compiled form.
        m.run(&prep.program).expect("warm run");
        for run in 0..3 {
            let before = counters();
            m.run(&prep.program).expect("run");
            let after = counters();
            let (dispatches, spawns) = (after.0 - before.0, after.1 - before.1);
            assert_eq!(dispatches as i64, n / tile + 1, "{mode:?} run {run}: dispatches");
            assert!(
                spawns < threads as u64,
                "{mode:?} run {run}: {spawns} spawns on {threads} threads"
            );
        }
    }
}
