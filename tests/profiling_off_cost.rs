//! The zero-overhead-when-off guarantee on the Figure 1 sgemm path.
//!
//! It times two interleaved series of runs, so this binary holds a
//! single test: no other test of the same binary runs on the host's
//! other threads while the series are timed.

use std::time::{Duration, Instant};
use telemetry::{drain, records_materialized, set_profiling};

#[test]
fn profiling_off_materializes_nothing_and_costs_under_two_percent() {
    set_profiling(Some(false));
    let _ = drain();
    let prep = kernels::sgemm::tiramisu_best(64, 16).expect("sgemm compile");

    // Zero-records: the whole compile + run pipeline, instrumented
    // end-to-end, must not materialize a single telemetry event while
    // profiling is off.
    let before = records_materialized();
    prep.run_wall().expect("sgemm run");
    assert_eq!(
        records_materialized(),
        before,
        "profiling-off run materialized telemetry records"
    );

    // Overhead bound: two interleaved series of identical off-path runs
    // must agree on their median wall time within 2% — the off path is
    // a single relaxed atomic check, not a measurable cost. A run is
    // ~0.3 ms of nothing but instrumented execution (the program arrives
    // compiled; one warm machine, one thread, so worker start-up stays
    // out of the interval), and single runs vary by tens of percent on a
    // small shared host. The packed code reaches its floor only in rare
    // quiet moments, so minima do not converge (two series of 2000 runs
    // were seen 5% apart); the medians of 1000 interleaved pairs agree
    // to a few tenths of a percent. Where there is no native tier a run
    // is ~75 ms of steadier interpretation, and 100 pairs do.
    let mut m = prep.machine();
    m.set_threads(1);
    m.run(&prep.program).expect("warmup");
    let t = Instant::now();
    m.run(&prep.program).expect("sizing run");
    let pairs = if t.elapsed() < Duration::from_millis(5) { 1000 } else { 100 };
    let mut a = Vec::with_capacity(pairs);
    let mut b = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let t = Instant::now();
        m.run(&prep.program).expect("series a");
        a.push(t.elapsed());
        let t = Instant::now();
        m.run(&prep.program).expect("series b");
        b.push(t.elapsed());
    }
    set_profiling(None);
    a.sort();
    b.sort();
    let (med_a, med_b) = (a[pairs / 2], b[pairs / 2]);
    let (lo, hi) = if med_a < med_b { (med_a, med_b) } else { (med_b, med_a) };
    let delta = (hi - lo).as_secs_f64() / lo.as_secs_f64();
    assert!(
        delta < 0.02,
        "off-path wall times diverge by {:.2}% (median_a {med_a:?}, median_b {med_b:?})",
        delta * 100.0
    );
}
