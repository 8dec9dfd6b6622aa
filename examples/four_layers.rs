//! Prints the four-layer IR (§IV-C) for the paper's Layer II example:
//! the GPU-tiled blur. This is the textual form used throughout the
//! paper — Layer I iteration domains, Layer II time–space mappings with
//! space tags, Layer III access relations, Layer IV communication.
//! Finally compiles the scheduled function with tracing enabled and
//! prints the pass-by-pass compile report.
//!
//! ```text
//! cargo run --release --example four_layers
//! ```

use tiramisu::{compile_gpu, Expr as E, Function, GpuOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut f = Function::new("blur", &["N", "M"]);
    let i = f.var("i", 0, E::param("N") - E::i64(2));
    let j = f.var("j", 0, E::param("M") - E::i64(2));
    let c = f.var("c", 0, 3);
    let input = f.input(
        "in",
        &[
            f.var("i", 0, E::param("N")),
            f.var("j", 0, E::param("M")),
            c.clone(),
        ],
    )?;
    let at = |dj: i64| {
        E::Access(
            input,
            vec![E::iter("i"), E::iter("j") + E::i64(dj), E::iter("c")],
        )
    };
    let by = f.computation(
        "by",
        &[i, j, c.clone()],
        (at(0) + at(1) + at(2)) / E::f32(3.0),
    )?;

    println!("--- before scheduling ---\n");
    println!("{}", tiramisu::lowering::dump_layers(&f));

    // The Layer II example of §IV-C2: tile 32x32 and map to the GPU.
    f.tile_gpu(by, "i", "j", 32, 32)?;
    // And the Layer III example: SOA storage by[c, i, j].
    let buf = f.buffer(
        "by_soa",
        &[E::i64(3), E::param("N"), E::param("M")],
    );
    f.store_in(by, buf, &[E::iter("c"), E::iter("i"), E::iter("j")]);

    println!("--- after tile_gpu(i, j, 32, 32) and store_in({{c, i, j}}) ---\n");
    println!("{}", tiramisu::lowering::dump_layers(&f));

    // Compile through the pass pipeline with tracing on and show what
    // each pass did.
    let module = compile_gpu(
        &f,
        &[("N", 128), ("M", 128)],
        GpuOptions { trace: true, ..Default::default() },
    )?;
    println!("--- compile report ---\n");
    println!("{}", module.compile_trace().expect("tracing enabled").report());
    Ok(())
}
