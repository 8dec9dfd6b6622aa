//! Fault-tolerance integration tests: the distributed blur of Figure 3(c)
//! under deterministic seeded fault injection.
//!
//! The contract under test is the runtime's: for any `FaultPlan`, a run
//! either completes with **bit-identical** output to the fault-free
//! reference (drops and corruption are healed by retransmission,
//! duplicates by sequence-number dedupe) or fails with a **structured**
//! [`DistError`] — it never hangs and never silently produces wrong data.

use mpisim::{CommModel, DistError, FaultPlan, RunOptions, WaitingOn};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;
use tiramisu::{compile_dist, DistModule, DistOptions, Expr, Function, Var};

const NODES: i64 = 4;
const CHUNK: i64 = 8;

/// The paper's Figure 3(c) distributed blur: each rank owns CHUNK rows,
/// sends its first row to the left neighbour and receives its halo from
/// the right. `with_send: false` drops the send, leaving receives that
/// can never complete.
fn build_blur(with_send: bool, check_comm: bool) -> tiramisu::Result<DistModule> {
    compile(check_comm, &blur(with_send))
}

fn blur(with_send: bool) -> Function {
    let mut f = Function::new("dblur", &["Nodes", "CHUNK"]);
    let r = f.var("r", 0, Expr::param("Nodes"));
    let i = f.var("i", 0, Expr::param("CHUNK"));
    let lin = f
        .input("lin", &[f.var("i", 0, Expr::param("CHUNK") + Expr::i64(1))])
        .unwrap();
    let bx = f
        .computation(
            "bx",
            &[r, i],
            (f.access(lin, &[Expr::iter("i")])
                + f.access(lin, &[Expr::iter("i") + Expr::i64(1)]))
                / Expr::f32(2.0),
        )
        .unwrap();
    f.distribute(bx, "r").unwrap();
    if with_send {
        let is = Var::new("is", Expr::i64(1), Expr::param("Nodes"));
        let s = f.send(
            is,
            "lin",
            Expr::i64(0),
            Expr::i64(1),
            Expr::iter("is") - Expr::i64(1),
            true,
        );
        f.comm_before(s, bx);
    }
    let ir = Var::new("ir", Expr::i64(0), Expr::param("Nodes") - Expr::i64(1));
    let rv = f.receive(
        ir,
        "lin",
        Expr::param("CHUNK"),
        Expr::i64(1),
        Expr::iter("ir") + Expr::i64(1),
    );
    f.comm_before(rv, bx);
    f
}

const PARAMS: [(&str, i64); 2] = [("Nodes", NODES), ("CHUNK", CHUNK)];

fn compile(check_comm: bool, f: &Function) -> tiramisu::Result<DistModule> {
    compile_dist(f, &PARAMS, DistOptions { check_comm, ..DistOptions::default() })
}

/// Runs `module` and snapshots every buffer of every rank on success.
/// Bit-patterns, not float compares: the claim is *identical*, not close.
fn run_snapshot(
    module: &DistModule,
    opts: &RunOptions,
) -> Result<(mpisim::DistStats, Vec<Vec<u32>>), DistError> {
    let prog = &module.dist.program();
    let lin = prog.buffer_by_name("lin").expect("input buffer");
    let snaps = Mutex::new(vec![Vec::new(); NODES as usize]);
    let stats = mpisim::run_with_opts(
        &module.dist,
        NODES as usize,
        &CommModel::default(),
        opts,
        |rank, m| {
            let buf = m.buffer_mut(lin);
            for (k, x) in buf.iter_mut().enumerate() {
                // Rank-dependent input so halo traffic actually matters.
                *x = ((rank * 131 + k * 17) % 251) as f32 / 251.0;
            }
        },
        |rank, m| {
            let snap: Vec<u32> = (0..prog.n_buffers())
                .flat_map(|b| m.buffer(prog.nth_buffer(b)).iter().map(|x| x.to_bits()))
                .collect();
            snaps.lock().unwrap()[rank] = snap;
        },
    )?;
    Ok((stats, snaps.into_inner().unwrap()))
}

fn reference() -> (mpisim::DistStats, Vec<Vec<u32>>) {
    let module = build_blur(true, true).unwrap();
    run_snapshot(&module, &RunOptions::default()).unwrap()
}

/// `true` when `e` is (or has as root cause) a watchdog deadlock.
fn is_deadlock(e: &DistError) -> bool {
    match e {
        DistError::Deadlock { waiting_on: WaitingOn::RecvFrom(_), .. } => true,
        DistError::Cluster(report) => report
            .root_cause()
            .is_some_and(|f| matches!(f.error, DistError::Deadlock { .. })),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// For arbitrary seeded plans mixing every fault kind, the run either
    /// heals (bit-identical output) or fails with a structured error.
    #[test]
    fn faulty_blur_matches_reference_or_errors_cleanly(
        seed in 0u64..4096,
        kind in 0usize..4,
    ) {
        let plan = match kind {
            0 => FaultPlan::new(seed).with_drop(0.3),
            1 => FaultPlan::new(seed).with_corrupt(0.3),
            2 => FaultPlan::new(seed).with_duplicate(0.5),
            _ => FaultPlan::new(seed)
                .with_drop(0.15)
                .with_corrupt(0.15)
                .with_delay(0.2, 1000.0),
        };
        let module = build_blur(true, true).unwrap();
        let opts = RunOptions { faults: Some(plan), ..RunOptions::default() };
        let (_, ref_snaps) = reference();
        match run_snapshot(&module, &opts) {
            Ok((_, snaps)) => prop_assert_eq!(snaps, ref_snaps),
            Err(e) => {
                // The only legitimate failure under message faults is an
                // exhausted retry budget (possibly folded with the peer
                // cancellations it causes).
                let root_ok = match &e {
                    DistError::RetriesExhausted { .. } => true,
                    DistError::Cluster(r) => r.root_cause().is_some_and(|f| {
                        matches!(f.error, DistError::RetriesExhausted { .. })
                    }),
                    _ => false,
                };
                prop_assert!(root_ok, "unexpected failure: {}", e);
            }
        }
    }
}

#[test]
fn injected_drops_recover_bit_identically_with_costed_retries() {
    // The freshly compiled module, and the same module served from a disk
    // artifact (its chunks run the bytecode the decode installed).
    let dir = std::env::temp_dir().join(format!("tiramisu-dist-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = tiramisu::ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() };
    let svc = tiramisu::CompileService::new(config);
    svc.compile_dist(&blur(true), &PARAMS, DistOptions::default()).unwrap();
    svc.clear_memory();
    let served = svc.compile_dist(&blur(true), &PARAMS, DistOptions::default()).unwrap();
    assert_eq!(svc.stats().disk_hits, 1);
    let (ref_stats, ref_snaps) = reference();
    for module in [&build_blur(true, true).unwrap(), &*served] {
        // Fault decisions are a pure function of the seed; scan for a seed
        // that injects drops and duplicates yet stays within the retry
        // budget.
        let healed = (0..64u64).find_map(|seed| {
            let plan = FaultPlan::new(seed).with_drop(0.5).with_duplicate(0.3);
            let opts = RunOptions { faults: Some(plan), ..RunOptions::default() };
            let (stats, snaps) = run_snapshot(module, &opts).ok()?;
            // One logical message per neighbour pair: every wire copy
            // beyond those and the retransmissions is a duplicate.
            let wire: u64 = stats.messages.iter().sum();
            (stats.total_drops() > 0 && wire > NODES as u64 - 1 + stats.total_retries())
                .then_some((stats, snaps))
        });
        let (stats, snaps) = healed.expect("some seed in 0..64 should heal through drops");
        assert_eq!(snaps, ref_snaps, "healed run must be bit-identical");
        assert!(stats.total_retries() > 0, "drops must cost retransmissions");
        let faulty: f64 = stats.comm_cycles.iter().sum();
        let clean: f64 = ref_stats.comm_cycles.iter().sum();
        assert!(
            faulty > clean,
            "retries must show up in modeled comm cycles ({faulty} vs {clean})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_crash_is_a_structured_error() {
    let module = build_blur(true, true).unwrap();
    let plan = FaultPlan::new(0).crash_at(1, 0);
    let opts = RunOptions { faults: Some(plan), ..RunOptions::default() };
    let err = run_snapshot(&module, &opts).unwrap_err();
    let crashed = match &err {
        DistError::Crash { rank: 1, .. } => true,
        DistError::Cluster(r) => r
            .root_cause()
            .is_some_and(|f| matches!(f.error, DistError::Crash { rank: 1, .. })),
        _ => false,
    };
    assert!(crashed, "expected rank 1 crash, got: {err}");
}

#[test]
fn missing_send_is_rejected_statically() {
    // At compile time (Layer IV check)...
    let err = build_blur(false, true).unwrap_err();
    assert!(
        matches!(&err, tiramisu::Error::Illegal(m) if m.contains("matching receive")),
        "expected illegal-schedule diagnostic, got: {err}"
    );
    // ...and, with the compile-time check disabled, at launch (the
    // runtime validates the lowered program before spawning ranks).
    let module = build_blur(false, false).unwrap();
    let err = run_snapshot(&module, &RunOptions::default()).unwrap_err();
    assert!(
        matches!(err, DistError::CommMismatch { .. }),
        "expected pre-launch mismatch, got: {err}"
    );
}

#[test]
fn missing_send_without_any_static_check_hits_the_watchdog() {
    // Both static nets disabled: this program used to hang forever in the
    // blocked receives. The progress watchdog turns it into a deadlock
    // report instead.
    let module = build_blur(false, false).unwrap();
    let opts = RunOptions {
        validate: false,
        watchdog: Duration::from_millis(400),
        poll: Duration::from_millis(5),
        ..RunOptions::default()
    };
    let err = run_snapshot(&module, &opts).unwrap_err();
    assert!(is_deadlock(&err), "expected watchdog deadlock, got: {err}");
}

#[test]
fn kernels_fault_api_heals_gaussian_halo_exchange() {
    use kernels::image::ImgSize;
    use kernels::image_dist::tiramisu_dist;
    let prep = tiramisu_dist("gaussian", ImgSize::small(), 4).unwrap();
    let n_bufs = prep.module.dist.program().n_buffers();
    let snapshot = |opts: &RunOptions| {
        let snaps = Mutex::new(vec![Vec::new(); 4]);
        let stats = prep
            .run_with_opts(opts, |rank, m| {
                let snap: Vec<u32> = (0..n_bufs)
                    .flat_map(|b| {
                        m.buffer(prep.module.dist.program().nth_buffer(b))
                            .iter()
                            .map(|x| x.to_bits())
                    })
                    .collect();
                snaps.lock().unwrap()[rank] = snap;
            })
            .unwrap();
        (stats, snaps.into_inner().unwrap())
    };
    let (_, ref_snaps) = snapshot(&RunOptions::default());
    let (stats, snaps) = (0..64u64)
        .find_map(|seed| {
            let opts = RunOptions {
                faults: Some(FaultPlan::new(seed).with_drop(0.4).with_duplicate(0.2)),
                ..RunOptions::default()
            };
            let snaps = Mutex::new(vec![Vec::new(); 4]);
            let stats = prep
                .run_with_opts(&opts, |rank, m| {
                    let snap: Vec<u32> = (0..n_bufs)
                        .flat_map(|b| {
                            m.buffer(prep.module.dist.program().nth_buffer(b))
                                .iter()
                                .map(|x| x.to_bits())
                        })
                        .collect();
                    snaps.lock().unwrap()[rank] = snap;
                })
                .ok()?;
            (stats.total_drops() > 0).then(|| (stats, snaps.into_inner().unwrap()))
        })
        .expect("some seed in 0..64 should heal through drops");
    assert_eq!(snaps, ref_snaps, "faulty gaussian must match fault-free bits");
    assert!(stats.total_retries() > 0);
}
