//! The image-processing benchmarks of Figure 6 / Figure 7: edgeDetector,
//! cvtColor, conv2D, warpAffine, gaussian, nb and ticket #2373, on all
//! three architectures.
//!
//! Per-benchmark variant matrix (a `-` in the paper's heatmap is an `Err`
//! here):
//!
//! | | Tiramisu | Halide (`halide_lite`) | PENCIL (`autosched`) |
//! |---|---|---|---|
//! | edgeDetector | cyclic buffer dataflow | **unsupported** (cyclic graph) | auto |
//! | cvtColor | ✓ | ✓ | auto |
//! | conv2D | clamped accesses | ✓ | auto |
//! | warpAffine | non-affine bilinear sampling | ✓ | auto |
//! | gaussian | two-stage separable | ✓ | auto (fuses by interchange — the locality pathology) |
//! | nb | 4 stages **fused into one loop** | 4 separate passes (cannot fuse) | auto |
//! | ticket #2373 | triangular domain (exact polyhedral bounds) | **bounds assertion** | auto |

use crate::Prepared;
use halide_lite::{HExpr, Pipeline};
use tiramisu::{CompId, CpuOptions, Expr as E, Function};

/// Image geometry (rows, cols). The paper uses 2112×3520 RGB; the default
/// benchmark size is scaled for the VM substrate.
#[derive(Debug, Clone, Copy)]
pub struct ImgSize {
    /// Rows.
    pub h: i64,
    /// Columns.
    pub w: i64,
}

impl ImgSize {
    /// Default scaled-down benchmark size.
    pub fn small() -> ImgSize {
        ImgSize { h: 32, w: 48 }
    }
}

/// The benchmark names, in the paper's order.
pub const IMAGE_BENCHMARKS: [&str; 7] = [
    "edgeDetector",
    "cvtColor",
    "conv2D",
    "warpAffine",
    "gaussian",
    "nb",
    "ticket #2373",
];

pub(crate) fn params(s: ImgSize) -> Vec<(&'static str, i64)> {
    vec![("H", s.h), ("W", s.w)]
}

fn finish(
    f: &Function,
    s: ImgSize,
    name: &str,
    inputs: &[&str],
    output: &str,
    check: bool,
) -> tiramisu::Result<Prepared> {
    let module = tiramisu::service::global().compile_cpu(
        f,
        &params(s),
        CpuOptions { check_legality: check, ..Default::default() },
    )?;
    Ok(Prepared {
        name: name.to_string(),
        inputs: inputs.iter().map(|b| module.vm_buffer(b).expect("input")).collect(),
        output: module.vm_buffer(output).expect("output"),
        program: module.program.clone(),
    })
}

// ---------------------------------------------------------------------
// Layer I builders (shared by the CPU / GPU / PENCIL variants)
// ---------------------------------------------------------------------

/// edgeDetector: ring blur then Roberts edge filter, *writing back into
/// the image buffer* — the cyclic buffer dataflow Halide cannot express.
pub(crate) fn edge_layer1(s: ImgSize) -> (Function, CompId, CompId) {
    let _ = s;
    let mut f = Function::new("edge", &["H", "W"]);
    let full_i = f.var("i", 0, E::param("H"));
    let full_j = f.var("j", 0, E::param("W"));
    let img = f.input("img", &[full_i.clone(), full_j.clone()]).unwrap();
    let i = f.var("i", 1, E::param("H") - E::i64(2));
    let j = f.var("j", 1, E::param("W") - E::i64(2));
    let at = |di: i64, dj: i64| {
        E::Access(
            img,
            vec![E::iter("i") + E::i64(di), E::iter("j") + E::i64(dj)],
        )
    };
    let ring = (at(-1, -1) + at(-1, 0) + at(-1, 1) + at(0, -1) + at(0, 1) + at(1, -1)
        + at(1, 0)
        + at(1, 1))
        / E::f32(8.0);
    let r = f.computation("R", &[i.clone(), j.clone()], ring).unwrap();
    let rd = |di: i64, dj: i64| {
        E::Access(r, vec![E::iter("i") + E::i64(di), E::iter("j") + E::i64(dj)])
    };
    let out = f
        .computation(
            "out",
            &[f.var("i", 1, E::param("H") - E::i64(3)), f.var("j", 2, E::param("W") - E::i64(3))],
            E::abs(rd(0, 0) - rd(1, -1)) + E::abs(rd(1, 0) - rd(0, -1)),
        )
        .unwrap();
    // Cyclic buffer dataflow: the result is written back into img.
    let img_buf_id = {
        let b = f.buffer("imgbuf", &[E::param("H"), E::param("W")]);
        f.store_in(img, b, &[E::iter("i"), E::iter("j")]);
        b
    };
    f.store_in(out, img_buf_id, &[E::iter("i"), E::iter("j")]);
    (f, r, out)
}

/// cvtColor: RGB→gray over an AOS image (H, W, 3).
pub(crate) fn cvt_layer1(_s: ImgSize) -> (Function, CompId) {
    let mut f = Function::new("cvt", &["H", "W"]);
    let i = f.var("i", 0, E::param("H"));
    let j = f.var("j", 0, E::param("W"));
    let c = f.var("c", 0, 3);
    let img = f.input("img", &[i.clone(), j.clone(), c]).unwrap();
    let ch = |k: i64| E::Access(img, vec![E::iter("i"), E::iter("j"), E::i64(k)]);
    let gray = f
        .computation(
            "gray",
            &[i, j],
            E::f32(0.299) * ch(0) + E::f32(0.587) * ch(1) + E::f32(0.114) * ch(2),
        )
        .unwrap();
    (f, gray)
}

/// conv2D: 3×3 convolution with clamped (non-affine) boundary accesses.
/// Public so the compile-cache bench can drive the service with a real
/// Figure 6 workload.
pub fn conv2d_layer1(s: ImgSize) -> (Function, CompId) {
    let mut f = Function::new("conv2d", &["H", "W"]);
    let i = f.var("i", 0, E::param("H"));
    let j = f.var("j", 0, E::param("W"));
    let img = f.input("img", &[i.clone(), j.clone()]).unwrap();
    let kv = f.var("k", 0, 9);
    let w = f.input("w", &[kv]).unwrap();
    let _ = s;
    let mut acc = E::f32(0.0);
    for ky in -1i64..=1 {
        for kx in -1i64..=1 {
            let iy = E::clamp(
                E::iter("i") + E::i64(ky),
                E::i64(0),
                E::param("H") - E::i64(1),
            );
            let ix = E::clamp(
                E::iter("j") + E::i64(kx),
                E::i64(0),
                E::param("W") - E::i64(1),
            );
            acc = acc
                + E::Access(img, vec![iy, ix])
                    * f.access(w, &[E::i64((ky + 1) * 3 + kx + 1)]);
        }
    }
    let out = f.computation("out", &[i, j], acc).unwrap();
    (f, out)
}

/// warpAffine: bilinear sampling at affine-warped coordinates — non-affine
/// accesses through float→int casts and clamps (§V-B).
pub(crate) fn warp_layer1(_s: ImgSize) -> (Function, CompId) {
    let mut f = Function::new("warp", &["H", "W"]);
    let i = f.var("i", 0, E::param("H"));
    let j = f.var("j", 0, E::param("W"));
    let img = f.input("img", &[i.clone(), j.clone()]).unwrap();
    // Source coordinates: a mild affine warp.
    let sy = E::f32(0.9) * E::cast_f32(E::iter("i")) + E::f32(0.1) * E::cast_f32(E::iter("j"));
    let sx = E::f32(0.8) * E::cast_f32(E::iter("j")) + E::f32(0.05) * E::cast_f32(E::iter("i"));
    let y0 = E::CastI64(Box::new(sy.clone()));
    let x0 = E::CastI64(Box::new(sx.clone()));
    let fy = sy - E::cast_f32(y0.clone());
    let fx = sx - E::cast_f32(x0.clone());
    let cy = |d: i64| {
        E::clamp(y0.clone() + E::i64(d), E::i64(0), E::param("H") - E::i64(1))
    };
    let cx = |d: i64| {
        E::clamp(x0.clone() + E::i64(d), E::i64(0), E::param("W") - E::i64(1))
    };
    let p = |dy: i64, dx: i64| E::Access(img, vec![cy(dy), cx(dx)]);
    let one = E::f32(1.0);
    let bilerp = p(0, 0) * (one.clone() - fy.clone()) * (one.clone() - fx.clone())
        + p(0, 1) * (one.clone() - fy.clone()) * fx.clone()
        + p(1, 0) * fy.clone() * (one.clone() - fx.clone())
        + p(1, 1) * fy * fx;
    let out = f.computation("out", &[i, j], bilerp).unwrap();
    (f, out)
}

/// gaussian: separable 5-tap blur, horizontal then vertical.
pub(crate) fn gaussian_layer1(_s: ImgSize) -> (Function, CompId, CompId) {
    let mut f = Function::new("gaussian", &["H", "W"]);
    let gi = f.var("i", 0, E::param("H"));
    let gj = f.var("j", 0, E::param("W"));
    let img = f.input("img", &[gi.clone(), gj.clone()]).unwrap();
    let kv = f.var("k", 0, 5);
    let g = f.input("g", &[kv]).unwrap();
    // Horizontal pass over all rows, W-4 columns.
    let gx_j = f.var("j", 0, E::param("W") - E::i64(4));
    let mut hacc = E::f32(0.0);
    for k in 0..5i64 {
        hacc = hacc
            + E::Access(img, vec![E::iter("i"), E::iter("j") + E::i64(k)])
                * f.access(g, &[E::i64(k)]);
    }
    let gx = f.computation("gx", &[gi.clone(), gx_j.clone()], hacc).unwrap();
    // Vertical pass: H-4 rows.
    let gy_i = f.var("i", 0, E::param("H") - E::i64(4));
    let mut vacc = E::f32(0.0);
    for k in 0..5i64 {
        vacc = vacc
            + E::Access(gx, vec![E::iter("i") + E::i64(k), E::iter("j")])
                * f.access(g, &[E::i64(k)]);
    }
    let gy = f.computation("gy", &[gy_i, gx_j], vacc).unwrap();
    (f, gx, gy)
}

/// nb: a 4-stage synthetic pipeline (negative, brightened, and two
/// combining stages) from one input.
pub(crate) fn nb_layer1(_s: ImgSize) -> (Function, [CompId; 4]) {
    let mut f = Function::new("nb", &["H", "W"]);
    let i = f.var("i", 0, E::param("H"));
    let j = f.var("j", 0, E::param("W"));
    let img = f.input("img", &[i.clone(), j.clone()]).unwrap();
    let at = || E::Access(img, vec![E::iter("i"), E::iter("j")]);
    let neg = f
        .computation("neg", &[i.clone(), j.clone()], E::f32(255.0) - at())
        .unwrap();
    let bright = f
        .computation(
            "bright",
            &[i.clone(), j.clone()],
            E::min(E::f32(1.5) * at(), E::f32(255.0)),
        )
        .unwrap();
    let mix = f
        .computation(
            "mix",
            &[i.clone(), j.clone()],
            (E::Access(neg, vec![E::iter("i"), E::iter("j")])
                + E::Access(bright, vec![E::iter("i"), E::iter("j")]))
                / E::f32(2.0),
        )
        .unwrap();
    let out = f
        .computation(
            "out",
            &[i, j],
            E::f32(0.5) * E::Access(mix, vec![E::iter("i"), E::iter("j")]) + E::f32(0.5) * at(),
        )
        .unwrap();
    (f, [neg, bright, mix, out])
}

/// ticket #2373: a triangular iteration space (`j <= i`) — exactly what
/// intervals cannot bound.
pub(crate) fn ticket_layer1(_s: ImgSize) -> (Function, CompId) {
    let mut f = Function::new("ticket", &["H", "W"]);
    let i = f.var("i", 0, E::param("H"));
    let j = f.var("j", 0, E::param("H"));
    // The source array is H×H: the triangular read `img(i, i-j)` spans
    // columns 0..=i.
    let img = f.input("img", &[i.clone(), f.var("j", 0, E::param("H"))]).unwrap();
    let out_buf = f.buffer("out", &[E::param("H"), E::param("H")]);
    let out = f
        .computation(
            "out",
            &[i, j],
            E::Access(img, vec![E::iter("i"), E::iter("i") - E::iter("j")]) * E::f32(2.0),
        )
        .unwrap();
    // Triangular constraint: j <= i, expressible exactly in the polyhedral
    // domain.
    let dom = f.comp(out).domain.clone();
    let space = dom.space().clone();
    let n = space.n_cols();
    let tri = dom.with_constraint(polyhedral::Constraint::ineq(
        polyhedral::Aff::var(n, 0).sub(&polyhedral::Aff::var(n, 1)),
    ));
    f.comp_mut(out).domain = tri;
    f.store_in(out, out_buf, &[E::iter("i"), E::iter("j")]);
    (f, out)
}

// ---------------------------------------------------------------------
// CPU variants
// ---------------------------------------------------------------------

/// Tiramisu CPU variant of a named benchmark.
///
/// # Errors
///
/// Compilation errors; unknown names panic.
pub fn tiramisu_cpu(name: &str, s: ImgSize) -> tiramisu::Result<Prepared> {
    match name {
        "edgeDetector" => {
            let (mut f, r, out) = edge_layer1(s);
            f.vectorize(r, "j", 8)?;
            f.vectorize(out, "j", 8)?;
            f.parallelize(r, "i")?;
            f.parallelize(out, "i")?;
            // The input is stored in (and the result written back to)
            // `imgbuf` — the cyclic buffer dataflow.
            finish(&f, s, "Tiramisu", &["imgbuf"], "imgbuf", true)
        }
        "cvtColor" => {
            let (mut f, gray) = cvt_layer1(s);
            f.vectorize(gray, "j", 8)?;
            f.parallelize(gray, "i")?;
            finish(&f, s, "Tiramisu", &["img"], "gray", true)
        }
        "conv2D" => {
            let (mut f, out) = conv2d_layer1(s);
            f.vectorize(out, "j", 8)?;
            f.parallelize(out, "i")?;
            finish(&f, s, "Tiramisu", &["img", "w"], "out", true)
        }
        "warpAffine" => {
            let (mut f, out) = warp_layer1(s);
            f.vectorize(out, "j", 8)?;
            f.parallelize(out, "i")?;
            finish(&f, s, "Tiramisu", &["img"], "out", true)
        }
        "gaussian" => {
            let (mut f, gx, gy) = gaussian_layer1(s);
            f.vectorize(gx, "j", 8)?;
            f.vectorize(gy, "j", 8)?;
            f.parallelize(gx, "i")?;
            f.parallelize(gy, "i")?;
            finish(&f, s, "Tiramisu", &["img", "g"], "gy", true)
        }
        "nb" => {
            // Fuse all four stages into one loop nest (legal by dependence
            // analysis; Halide refuses this), vectorized like Halide's.
            let (mut f, [neg, bright, mix, out]) = nb_layer1(s);
            for c in [neg, bright, mix, out] {
                f.vectorize(c, "j", 8)?;
            }
            f.fuse_after(bright, neg, "j")?;
            f.fuse_after(mix, bright, "j")?;
            f.fuse_after(out, mix, "j")?;
            f.parallelize(neg, "i")?;
            finish(&f, s, "Tiramisu", &["img"], "out", true)
        }
        "ticket #2373" => {
            let (mut f, out) = ticket_layer1(s);
            f.parallelize(out, "i")?;
            finish(&f, s, "Tiramisu", &["img"], "out", true)
        }
        other => panic!("unknown benchmark {other}"),
    }
}

/// Halide CPU variant. `Err` reproduces the paper's `-` cells:
/// edgeDetector (cyclic graph) and ticket #2373 (bounds assertion).
///
/// # Errors
///
/// The structural failures above, or real compilation errors.
pub fn halide_cpu(name: &str, s: ImgSize) -> halide_lite::Result<Prepared> {
    let (h, w) = (s.h, s.w);
    match name {
        "edgeDetector" => {
            // Inexpressible: R and the output form a cycle through the
            // image buffer. Modeled as a two-func cyclic graph.
            let mut p = Pipeline::new();
            let a = halide_lite::FuncId::from_raw(0);
            let b = halide_lite::FuncId::from_raw(1);
            let _ =
                p.func("R", &["y", "x"], HExpr::Call(b, vec![HExpr::var("y"), HExpr::var("x")]));
            let _ = p.func(
                "img2",
                &["y", "x"],
                HExpr::Call(a, vec![HExpr::var("y"), HExpr::var("x")]),
            );
            p.set_output(b);
            p.topo_order()?; // returns Err(CyclicGraph)
            unreachable!("cycle must be rejected")
        }
        "cvtColor" => {
            let mut p = Pipeline::new();
            let img = p.input("img", &[h, w, 3]);
            let ch = |k: i64| {
                HExpr::In(img, vec![HExpr::var("y"), HExpr::var("x"), HExpr::i(k)])
            };
            let gray = p.func(
                "gray",
                &["y", "x"],
                HExpr::f(0.299) * ch(0) + HExpr::f(0.587) * ch(1) + HExpr::f(0.114) * ch(2),
            );
            p.set_output(gray);
            p.vectorize(gray, "x", 8);
            p.parallel(gray, "y");
            halide_prepared(&p, &[h, w], "Halide", gray)
        }
        "conv2D" => {
            let mut p = Pipeline::new();
            let img = p.input("img", &[h, w]);
            let wk = p.input("w", &[9]);
            let mut acc = HExpr::f(0.0);
            for ky in -1i64..=1 {
                for kx in -1i64..=1 {
                    let iy = HExpr::clamp(HExpr::var("y") + HExpr::i(ky), 0, h - 1);
                    let ix = HExpr::clamp(HExpr::var("x") + HExpr::i(kx), 0, w - 1);
                    acc = acc
                        + HExpr::In(img, vec![iy, ix])
                            * HExpr::In(wk, vec![HExpr::i((ky + 1) * 3 + kx + 1)]);
                }
            }
            let out = p.func("out", &["y", "x"], acc);
            p.set_output(out);
            p.vectorize(out, "x", 8);
            p.parallel(out, "y");
            halide_prepared(&p, &[h, w], "Halide", out)
        }
        "warpAffine" => {
            // Halide expresses the warp with the same clamped casts; the
            // interval analysis handles clamp exactly.
            let mut p = Pipeline::new();
            let img = p.input("img", &[h, w]);
            // Approximate integer warp (the float path through CastI):
            let sy = HExpr::CastI(Box::new(
                HExpr::f(0.9) * HExpr::CastF(Box::new(HExpr::var("y")))
                    + HExpr::f(0.1) * HExpr::CastF(Box::new(HExpr::var("x"))),
            ));
            let sx = HExpr::CastI(Box::new(
                HExpr::f(0.8) * HExpr::CastF(Box::new(HExpr::var("x")))
                    + HExpr::f(0.05) * HExpr::CastF(Box::new(HExpr::var("y"))),
            ));
            let cy0 = HExpr::Clamp(Box::new(sy), Box::new(HExpr::i(0)), Box::new(HExpr::i(h - 1)));
            let cx0 = HExpr::Clamp(Box::new(sx), Box::new(HExpr::i(0)), Box::new(HExpr::i(w - 1)));
            let out = p.func("out", &["y", "x"], HExpr::In(img, vec![cy0, cx0]) * HExpr::f(1.0));
            p.set_output(out);
            p.vectorize(out, "x", 8);
            p.parallel(out, "y");
            halide_prepared(&p, &[h, w], "Halide", out)
        }
        "gaussian" => {
            let mut p = Pipeline::new();
            let img = p.input("img", &[h, w]);
            let g = p.input("g", &[5]);
            let mut hacc = HExpr::f(0.0);
            for k in 0..5i64 {
                hacc = hacc
                    + HExpr::In(img, vec![HExpr::var("y"), HExpr::var("x") + HExpr::i(k)])
                        * HExpr::In(g, vec![HExpr::i(k)]);
            }
            let gx = p.func("gx", &["y", "x"], hacc);
            let mut vacc = HExpr::f(0.0);
            for k in 0..5i64 {
                vacc = vacc
                    + HExpr::Call(gx, vec![HExpr::var("y") + HExpr::i(k), HExpr::var("x")])
                        * HExpr::In(g, vec![HExpr::i(k)]);
            }
            let gy = p.func("gy", &["y", "x"], vacc);
            p.set_output(gy);
            p.vectorize(gx, "x", 8);
            p.vectorize(gy, "x", 8);
            p.parallel(gx, "y");
            p.parallel(gy, "y");
            halide_prepared(&p, &[h - 4, w - 4], "Halide", gy)
        }
        "nb" => {
            // Four root passes: Halide cannot fuse them (the 3.77x of
            // Fig. 6).
            let mut p = Pipeline::new();
            let img = p.input("img", &[h, w]);
            let at = || HExpr::In(img, vec![HExpr::var("y"), HExpr::var("x")]);
            let neg = p.func("neg", &["y", "x"], HExpr::f(255.0) - at());
            let bright = p.func(
                "bright",
                &["y", "x"],
                HExpr::Min(Box::new(HExpr::f(1.5) * at()), Box::new(HExpr::f(255.0))),
            );
            let mix = p.func(
                "mix",
                &["y", "x"],
                (HExpr::Call(neg, vec![HExpr::var("y"), HExpr::var("x")])
                    + HExpr::Call(bright, vec![HExpr::var("y"), HExpr::var("x")]))
                    / HExpr::f(2.0),
            );
            let out = p.func(
                "out",
                &["y", "x"],
                HExpr::f(0.5) * HExpr::Call(mix, vec![HExpr::var("y"), HExpr::var("x")])
                    + HExpr::f(0.5) * at(),
            );
            p.set_output(out);
            for f in [neg, bright, mix, out] {
                p.vectorize(f, "x", 8);
                p.parallel(f, "y");
            }
            halide_prepared(&p, &[h, w], "Halide", out)
        }
        "ticket #2373" => {
            // The triangular guard through select: bounds inference
            // over-approximates and raises the assertion.
            let mut p = Pipeline::new();
            let img = p.input("img", &[h, w]);
            let out = p.func(
                "out",
                &["i", "j"],
                HExpr::In(
                    img,
                    vec![
                        HExpr::var("i"),
                        HExpr::Select(
                            Box::new(HExpr::Ge(
                                Box::new(HExpr::var("i")),
                                Box::new(HExpr::var("j")),
                            )),
                            Box::new(HExpr::var("i") - HExpr::var("j")),
                            Box::new(HExpr::var("i") + HExpr::var("j")),
                        ),
                    ],
                ) * HExpr::f(2.0),
            );
            p.set_output(out);
            halide_prepared(&p, &[h, h], "Halide", out) // Err(BoundsAssertion)
        }
        other => panic!("unknown benchmark {other}"),
    }
}

fn halide_prepared(
    p: &Pipeline,
    out_extents: &[i64],
    name: &str,
    out: halide_lite::FuncId,
) -> halide_lite::Result<Prepared> {
    let c = halide_lite::compile(p, out_extents)?;
    Ok(Prepared {
        name: name.to_string(),
        inputs: c.input_buffers.clone(),
        output: c.func_buffers[out.index()],
        program: c.program,
    })
}

/// PENCIL CPU variant: the automatic scheduler over the same Layer I
/// program (no vectorization, interchange-for-fusion enabled).
///
/// # Errors
///
/// Compilation errors.
pub fn pencil_cpu(name: &str, s: ImgSize) -> tiramisu::Result<Prepared> {
    let (mut f, inputs, output): (Function, Vec<&str>, &str) = match name {
        "edgeDetector" => {
            let (f, _, _) = edge_layer1(s);
            (f, vec!["imgbuf"], "imgbuf")
        }
        "cvtColor" => {
            let (f, _) = cvt_layer1(s);
            (f, vec!["img"], "gray")
        }
        "conv2D" => {
            let (f, _) = conv2d_layer1(s);
            (f, vec!["img", "w"], "out")
        }
        "warpAffine" => {
            let (f, _) = warp_layer1(s);
            (f, vec!["img"], "out")
        }
        "gaussian" => {
            let (f, _, _) = gaussian_layer1(s);
            (f, vec!["img", "g"], "gy")
        }
        "nb" => {
            let (f, _) = nb_layer1(s);
            (f, vec!["img"], "out")
        }
        "ticket #2373" => {
            let (f, _) = ticket_layer1(s);
            (f, vec!["img"], "out")
        }
        other => panic!("unknown benchmark {other}"),
    };
    // PENCIL: automatic scheduling, no vectorization (its CPU backend
    // does not vectorize); fusion + parallelism. Tiling is skipped at
    // image-benchmark sizes (as PPCG's heuristics would for these loop
    // depths).
    autosched::auto_schedule(
        &mut f,
        &autosched::AutoOptions { tile: None, ..autosched::AutoOptions::pencil() },
    )?;
    finish(&f, s, "PENCIL", &inputs, output, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn tiramisu_cpu_benchmarks_all_compile_and_run() {
        let s = ImgSize::small();
        for name in IMAGE_BENCHMARKS {
            let p = tiramisu_cpu(name, s).unwrap_or_else(|e| panic!("{name}: {e}"));
            let out = p.run_output().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                out.iter().any(|&v| v != 0.0),
                "{name}: output is all zeros"
            );
        }
    }

    #[test]
    fn halide_unsupported_benchmarks_fail_structurally() {
        let s = ImgSize::small();
        assert!(matches!(
            halide_cpu("edgeDetector", s),
            Err(halide_lite::Error::CyclicGraph(_))
        ));
        assert!(matches!(
            halide_cpu("ticket #2373", s),
            Err(halide_lite::Error::BoundsAssertion { .. })
        ));
    }

    #[test]
    fn halide_supported_benchmarks_run() {
        let s = ImgSize::small();
        for name in ["cvtColor", "conv2D", "gaussian", "nb"] {
            let p = halide_cpu(name, s).unwrap_or_else(|e| panic!("{name}: {e}"));
            p.run_output().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn cvtcolor_tiramisu_matches_halide() {
        let s = ImgSize::small();
        let t = tiramisu_cpu("cvtColor", s).unwrap().run_output().unwrap();
        let h = halide_cpu("cvtColor", s).unwrap().run_output().unwrap();
        assert_close(&t, &h, 1e-4);
    }

    #[test]
    fn conv2d_tiramisu_matches_halide() {
        let s = ImgSize::small();
        let t = tiramisu_cpu("conv2D", s).unwrap().run_output().unwrap();
        let h = halide_cpu("conv2D", s).unwrap().run_output().unwrap();
        assert_close(&t, &h, 1e-3);
    }

    #[test]
    fn gaussian_tiramisu_matches_halide() {
        let s = ImgSize::small();
        let t = tiramisu_cpu("gaussian", s).unwrap().run_output().unwrap();
        let h = halide_cpu("gaussian", s).unwrap().run_output().unwrap();
        assert_close(&t, &h, 1e-3);
    }

    #[test]
    fn nb_tiramisu_matches_halide_and_wins_on_cycles() {
        // Use a size whose working set exceeds the modeled L1 so the
        // fusion locality benefit is visible (as in the paper's full-size
        // images).
        let s = ImgSize { h: 96, w: 128 };
        let t = tiramisu_cpu("nb", s).unwrap();
        let h = halide_cpu("nb", s).unwrap();
        assert_close(&t.run_output().unwrap(), &h.run_output().unwrap(), 1e-3);
        let tc = t.run_modeled().unwrap();
        let hc = h.run_modeled().unwrap();
        assert!(
            hc.cycles > tc.cycles,
            "unfused Halide {:.0} should exceed fused Tiramisu {:.0}",
            hc.cycles,
            tc.cycles
        );
    }

    #[test]
    fn cvtcolor_matches_plain_rust() {
        let s = ImgSize::small();
        let got = tiramisu_cpu("cvtColor", s).unwrap().run_output().unwrap();
        let (h, w) = (s.h as usize, s.w as usize);
        let mut img = vec![0f32; h * w * 3];
        crate::fill_buffer(&mut img, 0x5EED);
        for y in 0..h {
            for x in 0..w {
                let px = &img[(y * w + x) * 3..];
                let e = 0.299 * px[0] + 0.587 * px[1] + 0.114 * px[2];
                let g = got[y * w + x];
                assert!((g - e).abs() < 1e-4, "({y},{x}): {g} vs {e}");
            }
        }
    }

    #[test]
    fn conv2d_matches_plain_rust() {
        let s = ImgSize::small();
        let got = tiramisu_cpu("conv2D", s).unwrap().run_output().unwrap();
        let (h, w) = (s.h as usize, s.w as usize);
        let mut img = vec![0f32; h * w];
        let mut wk = vec![0f32; 9];
        crate::fill_buffer(&mut img, 0x5EED);
        crate::fill_buffer(&mut wk, 0x5EED + 1);
        let clamp = |v: i64, hi: usize| v.clamp(0, hi as i64 - 1) as usize;
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0f32;
                for ky in -1i64..=1 {
                    for kx in -1i64..=1 {
                        acc += img[clamp(y as i64 + ky, h) * w + clamp(x as i64 + kx, w)]
                            * wk[((ky + 1) * 3 + kx + 1) as usize];
                    }
                }
                let g = got[y * w + x];
                assert!((g - acc).abs() < 1e-3, "({y},{x}): {g} vs {acc}");
            }
        }
    }

    #[test]
    fn gaussian_matches_plain_rust() {
        let s = ImgSize::small();
        let got = tiramisu_cpu("gaussian", s).unwrap().run_output().unwrap();
        let (h, w) = (s.h as usize, s.w as usize);
        let mut img = vec![0f32; h * w];
        let mut g5 = vec![0f32; 5];
        crate::fill_buffer(&mut img, 0x5EED);
        crate::fill_buffer(&mut g5, 0x5EED + 1);
        let wout = w - 4;
        let mut gx = vec![0f32; h * wout];
        for y in 0..h {
            for x in 0..wout {
                gx[y * wout + x] =
                    (0..5).map(|k| img[y * w + x + k] * g5[k]).sum::<f32>();
            }
        }
        for y in 0..h - 4 {
            for x in 0..wout {
                let e: f32 = (0..5).map(|k| gx[(y + k) * wout + x] * g5[k]).sum();
                let g = got[y * wout + x];
                assert!((g - e).abs() < 1e-3, "({y},{x}): {g} vs {e}");
            }
        }
    }

    #[test]
    fn pencil_runs_on_every_benchmark() {
        let s = ImgSize::small();
        for name in IMAGE_BENCHMARKS {
            let p = pencil_cpu(name, s).unwrap_or_else(|e| panic!("{name}: {e}"));
            p.run_output().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn ticket_triangular_domain_computes_triangle_only() {
        let s = ImgSize::small();
        let p = tiramisu_cpu("ticket #2373", s).unwrap();
        let out = p.run_output().unwrap();
        let h = s.h as usize;
        // Upper triangle (j > i) must stay zero.
        for i in 0..h {
            for j in 0..h {
                if j > i {
                    assert_eq!(out[i * h + j], 0.0, "({i},{j}) outside triangle");
                }
            }
        }
        // Diagonal computed.
        assert!(out[0] != 0.0 || out[h + 1] != 0.0);
    }
}
