//! Deep-learning benchmarks: Conv and the VGG block (Figure 5).
//!
//! The paper's wins here come from **specialization**: Tiramisu generates
//! versions with *fixed convolution filter sizes* (3×3, 5×5, ...) so the
//! filter loops can be fully unrolled into the expression — "this allows
//! TIRAMISU to unroll the innermost (convolution filter) loops since their
//! size is known at compile time" — while the library baseline stays
//! generic over the filter size. For VGG, Tiramisu additionally **fuses
//! the convolution with the following ReLU** stage, improving locality.

use crate::Prepared;
use tiramisu::{CompId, CpuOptions, Expr as E, Function};

/// Problem size for the DNN benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct ConvSize {
    /// Batch size.
    pub batch: i64,
    /// Input/output feature maps.
    pub feat: i64,
    /// Image height/width.
    pub img: i64,
    /// Filter size (k × k).
    pub k: i64,
}

impl ConvSize {
    /// A VM-friendly scaled-down instance of the paper's 512×512/16-feat
    /// configuration.
    pub fn small() -> ConvSize {
        ConvSize { batch: 2, feat: 4, img: 16, k: 3 }
    }
}

/// Builds the Layer I convolution: `out(b, f, y, x, c)` reduces over input
/// channels `c`, with the k×k filter loops *unrolled into the expression*
/// when `specialize` is true (the Tiramisu version), or expressed through
/// a flattened filter dimension with division/remainder indexing when
/// false (the generic library version).
fn conv_layer1(s: ConvSize, specialize: bool) -> (Function, CompId) {
    let mut fun = Function::new("conv", &["B", "F", "Y", "K"]);
    let b = fun.var("b", 0, E::param("B"));
    let f = fun.var("f", 0, E::param("F"));
    let y = fun.var("y", 0, E::param("Y"));
    let x = fun.var("x", 0, E::param("Y"));
    let c = fun.var("c", 0, E::param("F"));
    let input = fun
        .input(
            "in",
            &[
                b.clone(),
                fun.var("c", 0, E::param("F")),
                fun.var("y", 0, E::param("Y") + E::i64(4)),
                fun.var("x", 0, E::param("Y") + E::i64(4)),
            ],
        )
        .unwrap();
    let w = fun
        .input(
            "w",
            &[
                f.clone(),
                fun.var("c", 0, E::param("F")),
                fun.var("ky", 0, E::param("K")),
                fun.var("kx", 0, E::param("K")),
            ],
        )
        .unwrap();
    let bias = fun.input("bias", std::slice::from_ref(&f)).unwrap();

    let out_buf = fun.buffer(
        "out",
        &[E::param("B"), E::param("F"), E::param("Y"), E::param("Y")],
    );
    // init: out = bias(f)
    let init = fun
        .computation(
            "conv_init",
            &[b.clone(), f.clone(), y.clone(), x.clone()],
            fun.access(bias, &[E::iter("f")]),
        )
        .unwrap();
    fun.store_in(init, out_buf, &[E::iter("b"), E::iter("f"), E::iter("y"), E::iter("x")]);

    let upd_id = CompId::from_raw(4); // in=0, w=1, bias=2, init=3, upd=4
    let upd = if specialize {
        // Fixed k×k: the filter loops are unrolled into the expression.
        let mut acc = E::Access(
            upd_id,
            vec![
                E::iter("b"),
                E::iter("f"),
                E::iter("y"),
                E::iter("x"),
                E::iter("c") - E::i64(1),
            ],
        );
        for ky in 0..s.k {
            for kx in 0..s.k {
                acc = acc
                    + fun.access(
                        input,
                        &[
                            E::iter("b"),
                            E::iter("c"),
                            E::iter("y") + E::i64(ky),
                            E::iter("x") + E::i64(kx),
                        ],
                    ) * fun.access(
                        w,
                        &[E::iter("f"), E::iter("c"), E::i64(ky), E::i64(kx)],
                    );
            }
        }
        fun.computation(
            "conv_upd",
            &[b.clone(), f.clone(), y.clone(), x.clone(), c.clone()],
            acc,
        )
        .unwrap()
    } else {
        // Generic: one flattened filter dimension q = ky*K + kx, indexed
        // with division/remainder (what a size-generic library executes).
        let q = fun.var("q", 0, E::i64(s.k * s.k));
        let read_prev = E::Access(
            upd_id,
            vec![
                E::iter("b"),
                E::iter("f"),
                E::iter("y"),
                E::iter("x"),
                E::iter("c"),
                E::iter("q") - E::i64(1),
            ],
        );
        let ky = E::iter("q") / E::param("K");
        let kx = E::iter("q") % E::param("K");
        let acc = read_prev
            + fun.access(
                input,
                &[
                    E::iter("b"),
                    E::iter("c"),
                    E::iter("y") + ky.clone(),
                    E::iter("x") + kx.clone(),
                ],
            ) * fun.access(w, &[E::iter("f"), E::iter("c"), ky, kx]);
        fun.computation(
            "conv_upd",
            &[b.clone(), f.clone(), y.clone(), x.clone(), c.clone(), q],
            acc,
        )
        .unwrap()
    };
    assert_eq!(upd, upd_id);
    fun.store_in(upd, out_buf, &[E::iter("b"), E::iter("f"), E::iter("y"), E::iter("x")]);
    (fun, upd)
}

fn conv_params(s: ConvSize) -> Vec<(&'static str, i64)> {
    vec![("B", s.batch), ("F", s.feat), ("Y", s.img), ("K", s.k)]
}

fn conv_finish(fun: &Function, s: ConvSize, name: &str) -> tiramisu::Result<Prepared> {
    let module = tiramisu::service::global().compile_cpu(
        fun,
        &conv_params(s),
        CpuOptions { check_legality: false, ..Default::default() },
    )?;
    let inputs = ["in", "w", "bias"]
        .iter()
        .map(|b| module.vm_buffer(b).expect("input buffer"))
        .collect();
    let output = module.vm_buffer("out").expect("output buffer");
    Ok(Prepared { name: name.to_string(), program: module.program.clone(), inputs, output })
}

/// The Tiramisu Conv: fixed filter size (expression-unrolled), vectorized
/// across `x`, parallel over the batch.
///
/// # Errors
///
/// Compilation errors.
pub fn conv_tiramisu(s: ConvSize) -> tiramisu::Result<Prepared> {
    let (mut fun, upd) = conv_layer1(s, true);
    let init = fun.comp_by_name("conv_init").unwrap();
    fun.vectorize(upd, "x", 8)?;
    fun.parallelize(upd, "b")?;
    fun.vectorize(init, "x", 8)?;
    fun.parallelize(init, "b")?;
    conv_finish(&fun, s, "Tiramisu")
}

/// The library baseline ("Intel MKL" class): generic filter size with
/// div/mod indexing in the reduction (vectorized the same way — the gap
/// is specialization, as in the paper).
///
/// # Errors
///
/// Compilation errors.
pub fn conv_generic(s: ConvSize) -> tiramisu::Result<Prepared> {
    let (mut fun, upd) = conv_layer1(s, false);
    let init = fun.comp_by_name("conv_init").unwrap();
    fun.vectorize(upd, "x", 8)?;
    fun.parallelize(upd, "b")?;
    fun.vectorize(init, "x", 8)?;
    fun.parallelize(init, "b")?;
    conv_finish(&fun, s, "Intel MKL")
}

/// Plain-Rust reference result for the convolution.
pub fn conv_reference(s: ConvSize) -> Vec<f32> {
    let (bsz, feat, img, k) = (s.batch as usize, s.feat as usize, s.img as usize, s.k as usize);
    let in_h = img + 4;
    let mut input = vec![0f32; bsz * feat * in_h * in_h];
    let mut w = vec![0f32; feat * feat * k * k];
    let mut bias = vec![0f32; feat];
    crate::fill_buffer(&mut input, 0x5EED);
    crate::fill_buffer(&mut w, 0x5EED + 1);
    crate::fill_buffer(&mut bias, 0x5EED + 2);
    let mut out = vec![0f32; bsz * feat * img * img];
    for b in 0..bsz {
        for f in 0..feat {
            for y in 0..img {
                for x in 0..img {
                    let mut acc = bias[f];
                    for c in 0..feat {
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += input
                                    [((b * feat + c) * in_h + y + ky) * in_h + x + kx]
                                    * w[((f * feat + c) * k + ky) * k + kx];
                            }
                        }
                    }
                    out[((b * feat + f) * img + y) * img + x] = acc;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// VGG block: conv1 -> relu -> conv2
// ---------------------------------------------------------------------

/// Builds the VGG block. With `fuse` (the Tiramisu version) the ReLU is
/// inlined into conv2's reads — one fewer pass over the feature maps; the
/// reference computes each stage separately.
///
/// # Errors
///
/// Compilation errors.
pub fn vgg(s: ConvSize, fuse: bool, name: &str) -> tiramisu::Result<Prepared> {
    let mut fun = Function::new("vgg", &["B", "F", "Y", "K"]);
    let b = fun.var("b", 0, E::param("B"));
    let f = fun.var("f", 0, E::param("F"));
    let y = fun.var("y", 0, E::param("Y"));
    let x = fun.var("x", 0, E::param("Y"));
    let c = fun.var("c", 0, E::param("F"));
    let pad = 4i64;
    let input = fun
        .input(
            "in",
            &[
                b.clone(),
                fun.var("c", 0, E::param("F")),
                fun.var("y", 0, E::param("Y") + E::i64(2 * pad)),
                fun.var("x", 0, E::param("Y") + E::i64(2 * pad)),
            ],
        )
        .unwrap();
    let w1 = fun
        .input(
            "w1",
            &[
                f.clone(),
                fun.var("c", 0, E::param("F")),
                fun.var("ky", 0, E::param("K")),
                fun.var("kx", 0, E::param("K")),
            ],
        )
        .unwrap();
    let w2 = fun
        .input(
            "w2",
            &[
                f.clone(),
                fun.var("c", 0, E::param("F")),
                fun.var("ky", 0, E::param("K")),
                fun.var("kx", 0, E::param("K")),
            ],
        )
        .unwrap();

    // conv1 over padded input, producing (Y + 2) x (Y + 2) maps.
    let y1 = fun.var("y", 0, E::param("Y") + E::i64(2));
    let x1 = fun.var("x", 0, E::param("Y") + E::i64(2));
    let c1_buf = fun.buffer(
        "c1",
        &[
            E::param("B"),
            E::param("F"),
            E::param("Y") + E::i64(2),
            E::param("Y") + E::i64(2),
        ],
    );
    let c1_init = fun
        .computation("c1_init", &[b.clone(), f.clone(), y1.clone(), x1.clone()], E::f32(0.0))
        .unwrap();
    fun.store_in(c1_init, c1_buf, &[E::iter("b"), E::iter("f"), E::iter("y"), E::iter("x")]);
    let c1_id = CompId::from_raw(4); // in=0,w1=1,w2=2,c1_init=3,c1_upd=4
    let mut acc = E::Access(
        c1_id,
        vec![
            E::iter("b"),
            E::iter("f"),
            E::iter("y"),
            E::iter("x"),
            E::iter("c") - E::i64(1),
        ],
    );
    for ky in 0..s.k {
        for kx in 0..s.k {
            acc = acc
                + fun.access(
                    input,
                    &[
                        E::iter("b"),
                        E::iter("c"),
                        E::iter("y") + E::i64(ky),
                        E::iter("x") + E::i64(kx),
                    ],
                ) * fun.access(w1, &[E::iter("f"), E::iter("c"), E::i64(ky), E::i64(kx)]);
        }
    }
    let c1_upd = fun
        .computation("c1_upd", &[b.clone(), f.clone(), y1.clone(), x1.clone(), c.clone()], acc)
        .unwrap();
    assert_eq!(c1_upd, c1_id);
    fun.store_in(c1_upd, c1_buf, &[E::iter("b"), E::iter("f"), E::iter("y"), E::iter("x")]);

    // relu(b, f, y, x) = max(c1, 0) — reading c1's final reduction value.
    let relu = fun
        .computation(
            "relu",
            &[b.clone(), f.clone(), y1.clone(), x1.clone()],
            E::max(
                E::Access(
                    c1_upd,
                    vec![
                        E::iter("b"),
                        E::iter("f"),
                        E::iter("y"),
                        E::iter("x"),
                        E::param("F") - E::i64(1),
                    ],
                ),
                E::f32(0.0),
            ),
        )
        .unwrap();

    // conv2 over relu, producing Y x Y.
    let out_buf = fun.buffer(
        "out",
        &[E::param("B"), E::param("F"), E::param("Y"), E::param("Y")],
    );
    let c2_init = fun
        .computation("c2_init", &[b.clone(), f.clone(), y.clone(), x.clone()], E::f32(0.0))
        .unwrap();
    fun.store_in(c2_init, out_buf, &[E::iter("b"), E::iter("f"), E::iter("y"), E::iter("x")]);
    let c2_id = CompId::from_raw(7);
    let mut acc2 = E::Access(
        c2_id,
        vec![
            E::iter("b"),
            E::iter("f"),
            E::iter("y"),
            E::iter("x"),
            E::iter("c") - E::i64(1),
        ],
    );
    for ky in 0..s.k {
        for kx in 0..s.k {
            acc2 = acc2
                + E::Access(
                    relu,
                    vec![
                        E::iter("b"),
                        E::iter("c"),
                        E::iter("y") + E::i64(ky),
                        E::iter("x") + E::i64(kx),
                    ],
                ) * fun.access(w2, &[E::iter("f"), E::iter("c"), E::i64(ky), E::i64(kx)]);
        }
    }
    let c2_upd = fun
        .computation("c2_upd", &[b.clone(), f.clone(), y.clone(), x.clone(), c.clone()], acc2)
        .unwrap();
    assert_eq!(c2_upd, c2_id);
    fun.store_in(c2_upd, out_buf, &[E::iter("b"), E::iter("f"), E::iter("y"), E::iter("x")]);

    if fuse {
        // Tiramisu: inline the ReLU into conv2 (no separate pass) and
        // vectorize both convolutions.
        fun.inline(relu)?;
        fun.vectorize(c1_upd, "x", 8)?;
        fun.vectorize(c2_upd, "x", 8)?;
        fun.parallelize(c1_upd, "b")?;
        fun.parallelize(c2_upd, "b")?;
    } else {
        // Reference: materialize each stage; same vectorization.
        fun.vectorize(c1_upd, "x", 8)?;
        fun.vectorize(relu, "x", 8)?;
        fun.vectorize(c2_upd, "x", 8)?;
    }
    let module = tiramisu::service::global().compile_cpu(
        &fun,
        &conv_params(s),
        CpuOptions { check_legality: false, ..Default::default() },
    )?;
    let inputs = ["in", "w1", "w2"]
        .iter()
        .map(|b| module.vm_buffer(b).expect("input buffer"))
        .collect();
    let output = module.vm_buffer("out").expect("output buffer");
    Ok(Prepared { name: name.to_string(), program: module.program.clone(), inputs, output })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn conv_variants_match_reference() {
        let s = ConvSize::small();
        let expect = conv_reference(s);
        let t = conv_tiramisu(s).unwrap().run_output().unwrap();
        assert_close(&t, &expect, 1e-3);
        let g = conv_generic(s).unwrap().run_output().unwrap();
        assert_close(&g, &expect, 1e-3);
    }

    #[test]
    fn five_by_five_specialization_also_correct() {
        // The paper generates specialized versions for 3x3/5x5/7x7/9x9/
        // 11x11 filters; check another member of the family.
        let s = ConvSize { batch: 1, feat: 3, img: 12, k: 5 };
        let expect = conv_reference(s);
        let t = conv_tiramisu(s).unwrap().run_output().unwrap();
        assert_close(&t, &expect, 1e-3);
        let g = conv_generic(s).unwrap().run_output().unwrap();
        assert_close(&g, &expect, 1e-3);
    }

    #[test]
    fn specialization_beats_generic() {
        // The paper's Conv result: fixed filter sizes outperform the
        // size-generic library implementation.
        let s = ConvSize::small();
        let t = conv_tiramisu(s).unwrap().run_modeled().unwrap();
        let g = conv_generic(s).unwrap().run_modeled().unwrap();
        assert!(
            t.cycles < g.cycles,
            "specialized {:.0} should beat generic {:.0}",
            t.cycles,
            g.cycles
        );
    }

    #[test]
    fn vgg_fused_matches_unfused() {
        let s = ConvSize::small();
        let fused = vgg(s, true, "Tiramisu").unwrap().run_output().unwrap();
        let unfused = vgg(s, false, "reference").unwrap().run_output().unwrap();
        assert_close(&fused, &unfused, 1e-3);
    }

    #[test]
    fn vgg_fusion_saves_cycles() {
        let s = ConvSize::small();
        let fused = vgg(s, true, "Tiramisu").unwrap().run_modeled().unwrap();
        let unfused = vgg(s, false, "reference").unwrap().run_modeled().unwrap();
        assert!(
            fused.cycles < unfused.cycles,
            "fused {:.0} should beat unfused {:.0}",
            fused.cycles,
            unfused.cycles
        );
    }
}
