//! Linear/tensor algebra benchmarks: the HPCG kernels and the Baryon
//! tensor contraction (Figure 5).
//!
//! **HPCG**: the conjugate-gradient building blocks on a 2-D 5-point
//! stencil — sparse matrix-vector product (`spmv`), vector update
//! (`waxpby`) and dot product. The paper compares Tiramisu with the HPCG
//! reference implementation and lands at parity; here both versions carry
//! the same vectorization so the ratio is ≈ 1 by construction of the
//! schedules (shape preserved).
//!
//! **Baryon**: a dense tensor contraction from Baryon Building Blocks —
//! `B(t) = Σ_{a,b} w(a,b) · P1(a,t) · P2(b,t) · P3(a⊕b,t)`. The paper's
//! speedup comes from vectorization enabled by array expansion; the
//! reference is scalar.

use crate::Prepared;
use loopvm::{Expr as V, LoopKind, Program, Stmt};
use tiramisu::{CompId, CpuOptions, Expr as E, Function};

// ---------------------------------------------------------------------
// HPCG kernels
// ---------------------------------------------------------------------

/// Tiramisu spmv: `y(i,j) = 4*u(i,j) - u(i±1,j) - u(i,j±1)` over the
/// interior of an (n+2)² grid.
///
/// # Errors
///
/// Compilation errors.
pub fn hpcg_spmv_tiramisu(n: i64) -> tiramisu::Result<Prepared> {
    let mut f = Function::new("spmv", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let u = f
        .input(
            "u",
            &[
                f.var("i", 0, E::param("N") + E::i64(2)),
                f.var("j", 0, E::param("N") + E::i64(2)),
            ],
        )
        .unwrap();
    let at = |di: i64, dj: i64| {
        E::Access(
            u,
            vec![
                E::iter("i") + E::i64(1 + di),
                E::iter("j") + E::i64(1 + dj),
            ],
        )
    };
    let y = f
        .computation(
            "y",
            &[i, j],
            E::f32(4.0) * at(0, 0) - at(-1, 0) - at(1, 0) - at(0, -1) - at(0, 1),
        )
        .unwrap();
    f.vectorize(y, "j", 8)?;
    f.parallelize(y, "i")?;
    let module =
        tiramisu::service::global().compile_cpu(&f, &[("N", n)], CpuOptions::default())?;
    Ok(Prepared {
        name: "Tiramisu".into(),
        inputs: vec![module.vm_buffer("u").unwrap()],
        output: module.vm_buffer("y").unwrap(),
        program: module.program.clone(),
    })
}

/// Reference spmv: hand-written VM loops with the same vectorization (the
/// HPCG reference code is already well-written — parity expected).
pub fn hpcg_spmv_reference(n: i64) -> Prepared {
    let mut p = Program::new();
    let side = (n + 2) as usize;
    let u = p.buffer("u", side * side);
    let y = p.buffer("y", (n * n) as usize);
    let (i, j) = (p.var("i"), p.var("j"));
    let s = V::i64(n + 2);
    let at = |di: i64, dj: i64| {
        V::load(
            u,
            (V::var(i) + V::i64(1 + di)) * s.clone() + V::var(j) + V::i64(1 + dj),
        )
    };
    p.push(Stmt::for_(
        i,
        V::i64(0),
        V::i64(n),
        LoopKind::Parallel,
        vec![Stmt::for_(
            j,
            V::i64(0),
            V::i64(n),
            LoopKind::Vectorize(8),
            vec![Stmt::store(
                y,
                V::var(i) * V::i64(n) + V::var(j),
                V::f32(4.0) * at(0, 0) - at(-1, 0) - at(1, 0) - at(0, -1) - at(0, 1),
            )],
        )],
    ));
    Prepared { name: "reference".into(), program: p, inputs: vec![u], output: y }
}

/// Tiramisu waxpby: `w(i) = alpha*x(i) + beta*y(i)`.
///
/// # Errors
///
/// Compilation errors.
pub fn hpcg_waxpby_tiramisu(n: i64, alpha: f32, beta: f32) -> tiramisu::Result<Prepared> {
    let mut f = Function::new("waxpby", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let x = f.input("x", std::slice::from_ref(&i)).unwrap();
    let y = f.input("y", std::slice::from_ref(&i)).unwrap();
    let w = f
        .computation(
            "w",
            &[i],
            E::f32(alpha) * f.access(x, &[E::iter("i")])
                + E::f32(beta) * f.access(y, &[E::iter("i")]),
        )
        .unwrap();
    f.vectorize(w, "i", 8)?;
    let module =
        tiramisu::service::global().compile_cpu(&f, &[("N", n)], CpuOptions::default())?;
    Ok(Prepared {
        name: "Tiramisu".into(),
        inputs: vec![module.vm_buffer("x").unwrap(), module.vm_buffer("y").unwrap()],
        output: module.vm_buffer("w").unwrap(),
        program: module.program.clone(),
    })
}

/// Tiramisu dot product (reduction into a single element).
///
/// # Errors
///
/// Compilation errors.
pub fn hpcg_dot_tiramisu(n: i64) -> tiramisu::Result<Prepared> {
    let mut f = Function::new("dot", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let x = f.input("x", std::slice::from_ref(&i)).unwrap();
    let y = f.input("y", std::slice::from_ref(&i)).unwrap();
    let dot_id = CompId::from_raw(2);
    let d = f
        .computation(
            "d",
            &[i],
            E::Access(dot_id, vec![E::iter("i") - E::i64(1)])
                + f.access(x, &[E::iter("i")]) * f.access(y, &[E::iter("i")]),
        )
        .unwrap();
    assert_eq!(d, dot_id);
    let dbuf = f.buffer("dout", &[E::i64(1)]);
    f.store_in(d, dbuf, &[E::i64(0)]);
    let module =
        tiramisu::service::global().compile_cpu(&f, &[("N", n)], CpuOptions::default())?;
    Ok(Prepared {
        name: "Tiramisu".into(),
        inputs: vec![module.vm_buffer("x").unwrap(), module.vm_buffer("y").unwrap()],
        output: module.vm_buffer("dout").unwrap(),
        program: module.program.clone(),
    })
}

/// Plain-Rust spmv reference values.
pub fn hpcg_spmv_expected(n: i64) -> Vec<f32> {
    let side = (n + 2) as usize;
    let mut u = vec![0f32; side * side];
    crate::fill_buffer(&mut u, 0x5EED);
    let n = n as usize;
    let mut y = vec![0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let c = u[(i + 1) * side + j + 1];
            let up = u[i * side + j + 1];
            let dn = u[(i + 2) * side + j + 1];
            let lf = u[(i + 1) * side + j];
            let rt = u[(i + 1) * side + j + 2];
            y[i * n + j] = 4.0 * c - up - dn - lf - rt;
        }
    }
    y
}

// ---------------------------------------------------------------------
// Baryon contraction
// ---------------------------------------------------------------------

/// Baryon sizes: `a`, `b` range over color×spin (3×4 = 12); `t` is the
/// lattice-time extent.
pub const BARYON_CS: i64 = 12;

/// Builds the Baryon contraction with a given vectorization choice.
///
/// # Errors
///
/// Compilation errors.
pub fn baryon(t_extent: i64, vectorize: bool, name: &str) -> tiramisu::Result<Prepared> {
    let mut f = Function::new("baryon", &["T", "CS"]);
    let t = f.var("t", 0, E::param("T"));
    let a = f.var("a", 0, E::param("CS"));
    let b = f.var("b", 0, E::param("CS"));
    let w = f
        .input("w", &[a.clone(), b.clone()])
        .unwrap();
    let p1 = f.input("P1", &[a.clone(), t.clone()]).unwrap();
    let p2 = f.input("P2", &[b.clone(), t.clone()]).unwrap();
    let p3 = f.input("P3", &[a.clone(), t.clone()]).unwrap();
    let out_buf = f.buffer("Bout", &[E::param("T")]);
    let init = f.computation("b_init", std::slice::from_ref(&t), E::f32(0.0)).unwrap();
    f.store_in(init, out_buf, &[E::iter("t")]);
    let upd_id = CompId::from_raw(5);
    // upd(t, a, b): reduction over (a, b) — previous value read at b-1
    // (and implicitly the last b of a-1 through the contracted buffer).
    let prev = E::Access(
        upd_id,
        vec![E::iter("t"), E::iter("a"), E::iter("b") - E::i64(1)],
    );
    let term = f.access(w, &[E::iter("a"), E::iter("b")])
        * f.access(p1, &[E::iter("a"), E::iter("t")])
        * f.access(p2, &[E::iter("b"), E::iter("t")])
        * f.access(
            p3,
            &[(E::iter("a") + E::iter("b")) % E::param("CS"), E::iter("t")],
        );
    let upd = f
        .computation("b_upd", &[t.clone(), a.clone(), b.clone()], prev + term)
        .unwrap();
    assert_eq!(upd, upd_id);
    f.store_in(upd, out_buf, &[E::iter("t")]);
    if vectorize {
        // Array expansion across t: reorder the reduction outside and
        // vectorize the independent t lanes (the paper's scatter/gather-
        // enabled vectorization).
        f.interchange(upd, "t", "a")?; // (a, t, b)
        f.interchange(upd, "t", "b")?; // (a, b, t)
        f.vectorize(upd, "t", 8)?;
        f.vectorize(init, "t", 8)?;
    }
    let module = tiramisu::service::global().compile_cpu(
        &f,
        &[("T", t_extent), ("CS", BARYON_CS)],
        CpuOptions { check_legality: false, ..Default::default() },
    )?;
    Ok(Prepared {
        name: name.to_string(),
        inputs: vec![
            module.vm_buffer("w").unwrap(),
            module.vm_buffer("P1").unwrap(),
            module.vm_buffer("P2").unwrap(),
            module.vm_buffer("P3").unwrap(),
        ],
        output: module.vm_buffer("Bout").unwrap(),
        program: module.program.clone(),
    })
}

/// Plain-Rust Baryon reference values.
pub fn baryon_expected(t_extent: i64) -> Vec<f32> {
    let cs = BARYON_CS as usize;
    let t_n = t_extent as usize;
    let mut w = vec![0f32; cs * cs];
    let mut p1 = vec![0f32; cs * t_n];
    let mut p2 = vec![0f32; cs * t_n];
    let mut p3 = vec![0f32; cs * t_n];
    crate::fill_buffer(&mut w, 0x5EED);
    crate::fill_buffer(&mut p1, 0x5EED + 1);
    crate::fill_buffer(&mut p2, 0x5EED + 2);
    crate::fill_buffer(&mut p3, 0x5EED + 3);
    let mut out = vec![0f32; t_n];
    for t in 0..t_n {
        let mut acc = 0f32;
        for a in 0..cs {
            for b in 0..cs {
                acc += w[a * cs + b] * p1[a * t_n + t] * p2[b * t_n + t]
                    * p3[((a + b) % cs) * t_n + t];
            }
        }
        out[t] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn spmv_variants_match() {
        let n = 16;
        let expect = hpcg_spmv_expected(n);
        let t = hpcg_spmv_tiramisu(n).unwrap().run_output().unwrap();
        assert_close(&t, &expect, 1e-4);
        let r = hpcg_spmv_reference(n).run_output().unwrap();
        assert_close(&r, &expect, 1e-4);
    }

    #[test]
    fn spmv_parity_with_reference() {
        // The paper's HPCG bar: roughly 1.0 vs the reference.
        let n = 32;
        let t = hpcg_spmv_tiramisu(n).unwrap().run_modeled().unwrap();
        let r = hpcg_spmv_reference(n).run_modeled().unwrap();
        let ratio = t.cycles / r.cycles;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn waxpby_and_dot_compute_correctly() {
        let n = 64;
        let w = hpcg_waxpby_tiramisu(n, 2.0, 3.0).unwrap();
        let mut m = w.machine();
        m.run(&w.program).unwrap();
        let xs = {
            let mut v = vec![0f32; n as usize];
            crate::fill_buffer(&mut v, 0x5EED);
            v
        };
        let ys = {
            let mut v = vec![0f32; n as usize];
            crate::fill_buffer(&mut v, 0x5EED + 1);
            v
        };
        let got = m.buffer(w.output).to_vec();
        for k in 0..n as usize {
            assert!((got[k] - (2.0 * xs[k] + 3.0 * ys[k])).abs() < 1e-4);
        }
        let d = hpcg_dot_tiramisu(n).unwrap();
        let mut m = d.machine();
        m.run(&d.program).unwrap();
        let expect: f32 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert!((m.buffer(d.output)[0] - expect).abs() < 1e-3 * expect.abs());
    }

    #[test]
    fn baryon_variants_match() {
        let t = 16;
        let expect = baryon_expected(t);
        let scalar = baryon(t, false, "reference").unwrap().run_output().unwrap();
        assert_close(&scalar, &expect, 1e-3);
        let vectorized = baryon(t, true, "Tiramisu").unwrap().run_output().unwrap();
        assert_close(&vectorized, &expect, 1e-3);
    }

    #[test]
    fn baryon_vectorization_wins() {
        let t = 32;
        let v = baryon(t, true, "Tiramisu").unwrap().run_modeled().unwrap();
        let s = baryon(t, false, "reference").unwrap().run_modeled().unwrap();
        assert!(
            v.cycles < s.cycles,
            "vectorized {:.0} should beat scalar {:.0}",
            v.cycles,
            s.cycles
        );
    }
}
