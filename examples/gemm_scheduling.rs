//! Schedule-space exploration on sgemm: how each Table II command moves
//! the needle, measured by the VM cost model.
//!
//! This walks the optimization ladder of the paper's §VI-A — from the
//! naive nest to the full Tiramisu schedule with two-level blocking,
//! packing, vectorization and unrolling — and prints modeled cycles after
//! each step.
//!
//! ```text
//! cargo run --release --example gemm_scheduling
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, tile) = (64i64, 16i64);
    let steps: Vec<(&str, kernels::Prepared)> = vec![
        ("naive (no schedule)", kernels::sgemm::reference(n)?),
        ("auto (Pluto-like)", kernels::sgemm::pluto_like(n)?),
        ("tile+vectorize+parallel (AlphaZ-like)", kernels::sgemm::alphaz_like(n, tile)?),
        ("+reorder +packing +unroll", kernels::sgemm::tiramisu_ablated(n, tile, true, false)?),
        ("+full/partial tile separation", kernels::sgemm::tiramisu_best(n, tile)?),
    ];
    let vendor = kernels::sgemm::vendor(n, tile);
    let base = vendor.run_modeled()?.cycles;
    println!("hand-written vendor kernel (MKL stand-in): {base:>12.0} cycles (1.00x)\n");
    for (name, prep) in steps {
        let cycles = prep.run_modeled()?.cycles;
        println!("{name:42} {cycles:>12.0} cycles ({:.2}x)", cycles / base);
    }

    // Where compile time itself goes: the pass pipeline's report for the
    // gemm kernel.
    let (f, _, _) = kernels::sgemm::layer1(1.0, 1.0);
    let module = tiramisu::compile_cpu(
        &f,
        &[("N", n)],
        tiramisu::CpuOptions { check_legality: false, trace: true, ..Default::default() },
    )?;
    let report = module.compile_trace().expect("tracing enabled").report();
    println!("\n{}", report.split("\n-- IR").next().unwrap().trim_end());
    Ok(())
}
