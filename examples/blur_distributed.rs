//! The paper's Figure 3(c): blur on a distributed machine.
//!
//! Splits the row loop, `distribute()`s the outer part across ranks,
//! `parallelize()`s the inner part, and exchanges exactly two border rows
//! per neighbour with `send()`/`receive()` ({ASYNC}/{SYNC}, as in the
//! paper). The cluster simulator reports per-rank bytes and modeled time.
//!
//! ```text
//! cargo run --release --example blur_distributed
//! ```

use tiramisu::{DistOptions, Expr as E, Function, Var};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (rows, cols, nodes) = (64i64, 48i64, 4i64);
    let chunk = rows / nodes;

    let mut f = Function::new("dblur", &["N", "M", "Nodes"]);
    let i = f.var("i", 0, E::param("N") - E::i64(2));
    let j = f.var("j", 0, E::param("M") - E::i64(2));
    let lin = f.input(
        "lin",
        &[f.var("i", 0, E::param("N")), f.var("j", 0, E::param("M"))],
    )?;
    let at = |di: i64, dj: i64| {
        E::Access(
            lin,
            vec![E::iter("i") + E::i64(di), E::iter("j") + E::i64(dj)],
        )
    };
    let bx = f.computation(
        "bx",
        &[i, j],
        (at(0, 0) + at(1, 0) + at(0, 1)) / E::f32(3.0),
    )?;

    // Figure 3(c): split, parallelize, distribute.
    f.split(bx, "i", chunk, "i0", "i1")?;
    f.parallelize(bx, "i1")?;
    f.distribute(bx, "i0")?;

    // Border exchange: each rank sends its first 2 rows to rank-1.
    let is = Var::new("is", E::i64(1), E::param("Nodes"));
    let ir = Var::new("ir", E::i64(0), E::param("Nodes") - E::i64(1));
    let s = f.send(
        is,
        "lin",
        E::iter("is") * E::i64(chunk) * E::param("M"),
        E::i64(2) * E::param("M"),
        E::iter("is") - E::i64(1),
        true, // {ASYNC}
    );
    let r = f.receive(
        ir,
        "lin",
        (E::iter("ir") + E::i64(1)) * E::i64(chunk) * E::param("M"),
        E::i64(2) * E::param("M"),
        E::iter("ir") + E::i64(1),
    );
    f.comm_before(s, bx);
    f.comm_before(r, bx);

    let module = tiramisu::compile_dist(
        &f,
        &[("N", rows), ("M", cols), ("Nodes", nodes)],
        DistOptions::default(),
    )?;
    let lin_buf = module.vm_buffer("lin").unwrap();
    let stats = mpisim::run_with_init(
        &module.dist,
        nodes as usize,
        &mpisim::CommModel::default(),
        true,
        |_rank, machine| {
            for (k, v) in machine.buffer_mut(lin_buf).iter_mut().enumerate() {
                *v = (k % 255) as f32;
            }
        },
    )?;
    print!("{}", stats.report());
    println!("cluster modeled time: {:.0} cycles", stats.modeled_cycles);
    // With TIRAMISU_PROFILE=1 the compile passes, per-rank comm spans and
    // the ranks' `vm` run spans all land in one Chrome trace. The stats
    // run above prices its compute chunks' plain lowering, not the code
    // a run executes, so add one fast-path run: its `vm` spans time the
    // rank chunks on the tier `Machine::run` picks.
    if telemetry::profile_enabled() {
        mpisim::run_with_init(
            &module.dist,
            nodes as usize,
            &mpisim::CommModel::default(),
            false,
            |_rank, machine| {
                for (k, v) in machine.buffer_mut(lin_buf).iter_mut().enumerate() {
                    *v = (k % 255) as f32;
                }
            },
        )?;
    }
    if let Some(path) = telemetry::export_if_enabled("blur_distributed.trace.json") {
        eprintln!("profile trace written to {}", path.display());
    }
    Ok(())
}
