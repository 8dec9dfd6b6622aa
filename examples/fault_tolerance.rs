//! The fault-tolerant cluster runtime, demonstrated on the Figure 3(c)
//! distributed blur.
//!
//! Shows the full contract: under injected drops/corruption/duplication
//! the run heals through retransmission and produces **bit-identical**
//! output (at a visible modeled-cycle cost); unrecoverable schedules fail
//! with structured errors instead of hanging — at compile time when the
//! communication graph is static, via the progress watchdog otherwise.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use mpisim::{CommModel, FaultPlan, RunOptions};
use std::sync::Mutex;
use std::time::Duration;
use tiramisu::{DistModule, DistOptions, Expr as E, Function, Var};

const NODES: i64 = 4;
const CHUNK: i64 = 8;

/// Figure 3(c) blur; `with_send: false` leaves receives with no sender.
fn build(with_send: bool, check_comm: bool) -> tiramisu::Result<DistModule> {
    let mut f = Function::new("dblur", &["Nodes", "CHUNK"]);
    let r = f.var("r", 0, E::param("Nodes"));
    let i = f.var("i", 0, E::param("CHUNK"));
    let lin = f.input("lin", &[f.var("i", 0, E::param("CHUNK") + E::i64(1))])?;
    let bx = f.computation(
        "bx",
        &[r, i],
        (f.access(lin, &[E::iter("i")]) + f.access(lin, &[E::iter("i") + E::i64(1)]))
            / E::f32(2.0),
    )?;
    f.distribute(bx, "r")?;
    if with_send {
        let is = Var::new("is", E::i64(1), E::param("Nodes"));
        let s = f.send(is, "lin", E::i64(0), E::i64(1), E::iter("is") - E::i64(1), true);
        f.comm_before(s, bx);
    }
    let ir = Var::new("ir", E::i64(0), E::param("Nodes") - E::i64(1));
    let rv = f.receive(ir, "lin", E::param("CHUNK"), E::i64(1), E::iter("ir") + E::i64(1));
    f.comm_before(rv, bx);
    tiramisu::compile_dist(
        &f,
        &[("Nodes", NODES), ("CHUNK", CHUNK)],
        DistOptions { check_comm, ..DistOptions::default() },
    )
}

/// Runs and snapshots every rank's buffers (bit patterns).
fn run(
    module: &DistModule,
    opts: &RunOptions,
) -> Result<(mpisim::DistStats, Vec<Vec<u32>>), mpisim::DistError> {
    let prog = &module.dist.program();
    let lin = prog.buffer_by_name("lin").expect("input buffer");
    let snaps = Mutex::new(vec![Vec::new(); NODES as usize]);
    let stats = mpisim::run_with_opts(
        &module.dist,
        NODES as usize,
        &CommModel::default(),
        opts,
        |rank, m| {
            for (k, x) in m.buffer_mut(lin).iter_mut().enumerate() {
                *x = ((rank * 131 + k * 17) % 251) as f32 / 251.0;
            }
        },
        |rank, m| {
            snaps.lock().unwrap()[rank] = (0..prog.n_buffers())
                .flat_map(|b| m.buffer(prog.nth_buffer(b)).iter().map(|x| x.to_bits()))
                .collect();
        },
    )?;
    Ok((stats, snaps.into_inner().unwrap()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = build(true, true)?;
    let (clean, reference) = run(&module, &RunOptions::default())?;
    println!("fault-free: {clean}");

    // Drops, corruption and duplication heal through seq+checksum+retry.
    let plan = FaultPlan::new(11).with_drop(0.3).with_corrupt(0.1).with_duplicate(0.2);
    let opts = RunOptions { faults: Some(plan), ..RunOptions::default() };
    let (faulty, snaps) = run(&module, &opts)?;
    println!(
        "faulty:     output {}",
        if snaps == reference { "bit-identical" } else { "DIVERGED" },
    );
    print!("{}", faulty.report());
    assert_eq!(snaps, reference);

    // A dead link exhausts the retry budget -> structured error, no hang.
    let dead = RunOptions {
        faults: Some(FaultPlan::new(0).with_drop(1.0)),
        ..RunOptions::default()
    };
    println!("dead link:  {}", run(&module, &dead).unwrap_err());

    // An injected rank crash is reported (peers fold away as cancelled).
    let crash = RunOptions {
        faults: Some(FaultPlan::new(0).crash_at(2, 0)),
        ..RunOptions::default()
    };
    println!("crash:      {}", run(&module, &crash).unwrap_err());

    // A send-less schedule is rejected before anything runs...
    println!("static:     {}", build(false, true).unwrap_err());

    // ...and with every static net disabled, the watchdog converts the
    // would-be hang into a deadlock report.
    let module = build(false, false)?;
    let opts = RunOptions {
        validate: false,
        watchdog: Duration::from_millis(300),
        poll: Duration::from_millis(5),
        ..RunOptions::default()
    };
    println!("watchdog:   {}", run(&module, &opts).unwrap_err());
    Ok(())
}
