//! Lowering pipelines to `loopvm` programs (CPU) and `gpusim` kernels.

use crate::bounds::{infer_bounds, BoundsInfo};
use crate::pipeline::{FuncId, HExpr, Pipeline, Placement};
use crate::{Error, Result};
use loopvm::{BufId, Expr as VExpr, LoopKind, Program, Stmt, Var};
use std::collections::HashMap;

/// A compiled pipeline.
#[derive(Debug)]
pub struct CompiledPipeline {
    /// The VM program.
    pub program: Program,
    /// Buffer of each func.
    pub func_buffers: Vec<BufId>,
    /// Origin (box lower corner) of each func's buffer, per dimension.
    pub func_origin: Vec<Vec<i64>>,
    /// Buffer of each input.
    pub input_buffers: Vec<BufId>,
    /// Inferred bounds.
    pub bounds: BoundsInfo,
}

impl CompiledPipeline {
    /// A machine with storage for the program.
    pub fn machine(&self) -> loopvm::Machine {
        loopvm::Machine::new(&self.program)
    }
}

/// Compiles a pipeline for the CPU substrate, computing the output over
/// `output_extents`. Every schedule choice is read from the pipeline's
/// funcs (placement, `tile`, `vectorize`, `parallel`); there are no other
/// options.
///
/// Placements: `Root` funcs get their own loop nest over their inferred
/// box; `Inline` funcs are substituted. `At` placements are lowered as
/// `Root` in this reproduction (documented simplification; Halide's
/// locality benefit is partially lost, which only *helps* Halide's
/// competitors in comparisons — never Tiramisu).
///
/// # Errors
///
/// Bounds assertions, cyclic graphs, and [`Error::Schedule`] for a bad
/// schedule: a `tile` naming a variable the func lacks, or two variables
/// that are not adjacent.
pub fn compile(p: &Pipeline, output_extents: &[i64]) -> Result<CompiledPipeline> {
    let bounds = infer_bounds(p, output_extents)?;
    let order = p.topo_order()?;
    let mut program = Program::new();

    // Buffers.
    let mut input_buffers = Vec::with_capacity(p.inputs().len());
    for (name, extents) in p.inputs() {
        let size: i64 = extents.iter().product::<i64>().max(1);
        input_buffers.push(program.buffer(name, size as usize));
    }
    let mut func_buffers = Vec::with_capacity(p.funcs().len());
    let mut func_origin = Vec::with_capacity(p.funcs().len());
    for (i, f) in p.funcs().iter().enumerate() {
        let bx = &bounds.func_box[i];
        let size: i64 = bx.iter().map(|iv| iv.extent()).product::<i64>().max(1);
        func_buffers.push(program.buffer(&f.name, size as usize));
        func_origin.push(bx.iter().map(|iv| iv.lo).collect());
    }

    // Vars per func dimension.
    let mut ctx = Lowerer {
        p,
        bounds: &bounds,
        func_buffers: &func_buffers,
        func_origin: &func_origin,
        input_buffers: &input_buffers,
    };

    let mut body = Vec::new();
    for fid in order {
        let f = &p.funcs()[fid.index()];
        if matches!(f.placement, Placement::Inline) {
            continue;
        }
        body.extend(ctx.lower_func(fid, &mut program)?);
    }
    program.set_body(body);
    Ok(CompiledPipeline { program, func_buffers, func_origin, input_buffers, bounds })
}

struct Lowerer<'a> {
    p: &'a Pipeline,
    bounds: &'a BoundsInfo,
    func_buffers: &'a [BufId],
    func_origin: &'a [Vec<i64>],
    input_buffers: &'a [BufId],
}

impl Lowerer<'_> {
    fn lower_func(&mut self, fid: FuncId, program: &mut Program) -> Result<Vec<Stmt>> {
        let f = &self.p.funcs()[fid.index()];
        let bx = &self.bounds.func_box[fid.index()];
        // Declare loop vars.
        let mut vars: HashMap<String, Var> = HashMap::new();
        for v in &f.vars {
            vars.insert(v.clone(), program.var(&format!("{}_{v}", f.name)));
        }
        // Innermost statement.
        let mut env: HashMap<String, VExpr> = f
            .vars
            .iter()
            .map(|v| (v.clone(), VExpr::var(vars[v])))
            .collect();
        let value = self.conv(&f.def, &mut env)?;
        let coords: Vec<VExpr> = f.vars.iter().map(|v| VExpr::var(vars[v])).collect();
        let store_index = self.func_index(fid, &coords);
        let inner = vec![Stmt::store(self.func_buffers[fid.index()], store_index, value)];

        // Simple path: plain rectangular nest (tiling handled by
        // rewriting var = tile_outer*size + tile_inner below).
        let mut stmts = inner;
        let wrap = |var_name: &str, lo: i64, hi: i64, kind: LoopKind, body: Vec<Stmt>| {
            vec![Stmt::For {
                var: vars[var_name],
                lower: VExpr::i64(lo),
                upper: VExpr::i64(hi + 1),
                kind,
                body,
            }]
        };

        match &f.tile {
            None => {
                for (k, v) in f.vars.iter().enumerate().rev() {
                    let iv = bx[k];
                    let mut kind = LoopKind::Serial;
                    if f.parallel.as_deref() == Some(v) {
                        kind = LoopKind::Parallel;
                    }
                    if let Some((vv, w)) = &f.vectorize {
                        if vv == v {
                            kind = LoopKind::Vectorize(*w);
                        }
                    }
                    stmts = wrap(v, iv.lo, iv.hi, kind, stmts);
                }
            }
            Some((vy, vx, ty, tx)) => {
                let iy = f.vars.iter().position(|v| v == vy).ok_or_else(|| {
                    Error::Schedule(format!("tile variable {vy} not found"))
                })?;
                let ix = f.vars.iter().position(|v| v == vx).ok_or_else(|| {
                    Error::Schedule(format!("tile variable {vx} not found"))
                })?;
                if ix != iy + 1 {
                    return Err(Error::Schedule("tile variables must be adjacent".into()));
                }
                let by = bx[iy];
                let bxv = bx[ix];
                // Fresh tile vars.
                let yo = program.var(&format!("{}_{}o", f.name, vy));
                let xo = program.var(&format!("{}_{}o", f.name, vx));
                // y = yo*ty + yi: bind y/x via Lets inside the inner loops.
                let yi = program.var(&format!("{}_{}i", f.name, vy));
                let xi = program.var(&format!("{}_{}i", f.name, vx));
                let ny_tiles = (by.extent() + ty - 1) / ty;
                let nx_tiles = (bxv.extent() + tx - 1) / tx;
                let mut kind_inner = LoopKind::Serial;
                if let Some((vv, w)) = &f.vectorize {
                    if vv == vx {
                        kind_inner = LoopKind::Vectorize(*w);
                    }
                }
                let body = vec![
                    Stmt::let_(
                        vars[vy],
                        VExpr::var(yo) * VExpr::i64(*ty) + VExpr::var(yi) + VExpr::i64(by.lo),
                    ),
                    Stmt::let_(
                        vars[vx],
                        VExpr::var(xo) * VExpr::i64(*tx) + VExpr::var(xi) + VExpr::i64(bxv.lo),
                    ),
                    Stmt::if_then(
                        VExpr::and(
                            VExpr::le(VExpr::var(vars[vy]), VExpr::i64(by.hi)),
                            VExpr::le(VExpr::var(vars[vx]), VExpr::i64(bxv.hi)),
                        ),
                        stmts,
                    ),
                ];
                // Note: the guard prevents vectorizing the xi loop body
                // (If bodies fall back to scalar lanes) — matching the
                // paper's observation that without full/partial tile
                // separation vectorization is hampered.
                let xi_loop = Stmt::for_(xi, VExpr::i64(0), VExpr::i64(*tx), kind_inner, body);
                let yi_loop = Stmt::serial(yi, VExpr::i64(0), VExpr::i64(*ty), vec![xi_loop]);
                let xo_loop =
                    Stmt::serial(xo, VExpr::i64(0), VExpr::i64(nx_tiles), vec![yi_loop]);
                let mut kind_outer = LoopKind::Serial;
                if f.parallel.as_deref() == Some(vy.as_str()) {
                    kind_outer = LoopKind::Parallel;
                }
                let yo_loop =
                    Stmt::for_(yo, VExpr::i64(0), VExpr::i64(ny_tiles), kind_outer, vec![xo_loop]);
                stmts = vec![yo_loop];
                // Leading dims (e.g. channel) wrap outside.
                for (k, v) in f.vars.iter().enumerate().rev() {
                    if k == iy || k == ix {
                        continue;
                    }
                    let ivv = bx[k];
                    stmts = wrap(v, ivv.lo, ivv.hi, LoopKind::Serial, stmts);
                }
            }
        }
        Ok(stmts)
    }

    /// The flat index of `coords` in func `fid`'s buffer, which holds its
    /// inferred box.
    fn func_index(&self, fid: FuncId, coords: &[VExpr]) -> VExpr {
        let extents: Vec<i64> =
            self.bounds.func_box[fid.index()].iter().map(|iv| iv.extent()).collect();
        flat_index(coords, &extents, Some(&self.func_origin[fid.index()]))
    }

    fn conv(&self, e: &HExpr, env: &mut HashMap<String, VExpr>) -> Result<VExpr> {
        Ok(match e {
            HExpr::F32(v) => VExpr::f32(*v),
            HExpr::I64(v) => VExpr::i64(*v),
            HExpr::Var(n) => env
                .get(n)
                .cloned()
                .ok_or_else(|| Error::Schedule(format!("unbound variable {n}")))?,
            HExpr::Call(g, idx) => {
                let gf = &self.p.funcs()[g.index()];
                let coords: Vec<VExpr> =
                    idx.iter().map(|ix| self.conv(ix, env)).collect::<Result<_>>()?;
                if matches!(gf.placement, Placement::Inline) {
                    // Substitute the definition with vars bound to coords.
                    let mut inner_env: HashMap<String, VExpr> = gf
                        .vars
                        .iter()
                        .cloned()
                        .zip(coords.iter().cloned())
                        .collect();
                    return self.conv(&gf.def, &mut inner_env);
                }
                VExpr::load(
                    self.func_buffers[g.index()],
                    self.func_index(*g, &coords),
                )
            }
            HExpr::In(k, idx) => {
                let coords: Vec<VExpr> =
                    idx.iter().map(|ix| self.conv(ix, env)).collect::<Result<_>>()?;
                VExpr::load(
                    self.input_buffers[k.index()],
                    flat_index(&coords, &self.p.inputs()[k.index()].1, None),
                )
            }
            HExpr::Add(a, b) => self.conv(a, env)? + self.conv(b, env)?,
            HExpr::Sub(a, b) => self.conv(a, env)? - self.conv(b, env)?,
            HExpr::Mul(a, b) => self.conv(a, env)? * self.conv(b, env)?,
            HExpr::Div(a, b) => self.conv(a, env)? / self.conv(b, env)?,
            HExpr::Min(a, b) => VExpr::min(self.conv(a, env)?, self.conv(b, env)?),
            HExpr::Max(a, b) => VExpr::max(self.conv(a, env)?, self.conv(b, env)?),
            HExpr::Clamp(x, lo, hi) => VExpr::clamp(
                self.conv(x, env)?,
                self.conv(lo, env)?,
                self.conv(hi, env)?,
            ),
            HExpr::Abs(a) => VExpr::abs(self.conv(a, env)?),
            HExpr::Select(c, a, b) => {
                VExpr::select(self.conv(c, env)?, self.conv(a, env)?, self.conv(b, env)?)
            }
            HExpr::Lt(a, b) => VExpr::lt(self.conv(a, env)?, self.conv(b, env)?),
            HExpr::Ge(a, b) => VExpr::le(self.conv(b, env)?, self.conv(a, env)?),
            HExpr::CastF(a) => VExpr::to_f32(self.conv(a, env)?),
            HExpr::CastI(a) => VExpr::to_i64(self.conv(a, env)?),
        })
    }
}

/// The row-major flat index of `coords` in a box of the given extents,
/// each coordinate first shifted by the box's `origin` when it has one.
fn flat_index(coords: &[VExpr], extents: &[i64], origin: Option<&[i64]>) -> VExpr {
    let mut flat: Option<VExpr> = None;
    let mut stride = 1i64;
    for k in (0..coords.len()).rev() {
        let adj = match origin {
            Some(o) => coords[k].clone() - VExpr::i64(o[k]),
            None => coords[k].clone(),
        };
        let term = if stride == 1 { adj } else { adj * VExpr::i64(stride) };
        flat = Some(match flat {
            None => term,
            Some(acc) => acc + term,
        });
        stride *= extents[k].max(1);
    }
    flat.unwrap_or(VExpr::i64(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;

    fn two_stage(vectorize: bool, tile: bool) -> (CompiledPipeline, BufId, BufId) {
        // bx(y, x) = (in(y,x) + in(y,x+1)) / 2; by = (bx(y,x)+bx(y+1,x))/2
        let mut p = Pipeline::new();
        let (h, w) = (12i64, 10i64);
        let input = p.input("in", &[h, w]);
        let bx = p.func(
            "bx",
            &["y", "x"],
            (HExpr::In(input, vec![HExpr::var("y"), HExpr::var("x")])
                + HExpr::In(input, vec![HExpr::var("y"), HExpr::var("x") + HExpr::i(1)]))
                / HExpr::f(2.0),
        );
        let by = p.func(
            "by",
            &["y", "x"],
            (HExpr::Call(bx, vec![HExpr::var("y"), HExpr::var("x")])
                + HExpr::Call(bx, vec![HExpr::var("y") + HExpr::i(1), HExpr::var("x")]))
                / HExpr::f(2.0),
        );
        p.set_output(by);
        if vectorize {
            p.vectorize(by, "x", 8);
            p.vectorize(bx, "x", 8);
        }
        if tile {
            p.tile(by, "y", "x", 4, 4);
        }
        let c = compile(&p, &[h - 1, w - 1]).unwrap();
        let inb = c.input_buffers[0];
        let outb = c.func_buffers[by.index()];
        (c, inb, outb)
    }

    fn reference(h: i64, w: i64) -> Vec<f32> {
        let input: Vec<f32> = (0..h * w).map(|k| k as f32).collect();
        let mut bx = vec![0f32; (h * (w - 1)) as usize];
        for y in 0..h {
            for x in 0..w - 1 {
                bx[(y * (w - 1) + x) as usize] =
                    (input[(y * w + x) as usize] + input[(y * w + x + 1) as usize]) / 2.0;
            }
        }
        let mut by = vec![0f32; ((h - 1) * (w - 1)) as usize];
        for y in 0..h - 1 {
            for x in 0..w - 1 {
                by[(y * (w - 1) + x) as usize] =
                    (bx[(y * (w - 1) + x) as usize] + bx[((y + 1) * (w - 1) + x) as usize]) / 2.0;
            }
        }
        by
    }

    fn run(c: &CompiledPipeline, inb: BufId, outb: BufId) -> Vec<f32> {
        let mut m = c.machine();
        for (k, v) in m.buffer_mut(inb).iter_mut().enumerate() {
            *v = k as f32;
        }
        m.run(&c.program).unwrap();
        m.buffer(outb).to_vec()
    }

    #[test]
    fn plain_matches_reference() {
        let (c, inb, outb) = two_stage(false, false);
        let got = run(&c, inb, outb);
        let expect = reference(12, 10);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn vectorized_matches_reference() {
        let (c, inb, outb) = two_stage(true, false);
        let got = run(&c, inb, outb);
        let expect = reference(12, 10);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn tiled_matches_reference() {
        let (c, inb, outb) = two_stage(false, true);
        let got = run(&c, inb, outb);
        let expect = reference(12, 10);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    /// A tile over a variable the func lacks, in either position, is a
    /// schedule error, not a panic.
    #[test]
    fn tiling_an_unknown_variable_is_a_schedule_error() {
        for (y, x, missing) in [("z", "x", "z"), ("y", "z", "z"), ("x", "y", "")] {
            let mut p = Pipeline::new();
            let input = p.input("in", &[4, 4]);
            let at = HExpr::In(input, vec![HExpr::var("y"), HExpr::var("x")]);
            let f = p.func("f", &["y", "x"], at);
            p.set_output(f);
            p.tile(f, y, x, 2, 2);
            let want = if missing.is_empty() {
                "tile variables must be adjacent".to_string()
            } else {
                format!("tile variable {missing} not found")
            };
            match compile(&p, &[4, 4]) {
                Err(Error::Schedule(msg)) => assert_eq!(msg, want, "tile({y}, {x})"),
                other => panic!("tile({y}, {x}): {other:?}"),
            }
        }
    }

    #[test]
    fn inline_substitutes_definition() {
        let mut p = Pipeline::new();
        let input = p.input("in", &[4]);
        let a = p.func("a", &["x"], HExpr::In(input, vec![HExpr::var("x")]) * HExpr::f(3.0));
        let b = p.func("b", &["x"], HExpr::Call(a, vec![HExpr::var("x")]) + HExpr::f(1.0));
        p.set_output(b);
        p.compute_inline(a);
        let c = compile(&p, &[4]).unwrap();
        // Only two buffers store data: input and b (a still allocated but
        // unused — matching Halide's inline semantics of not computing a).
        let mut m = c.machine();
        m.buffer_mut(c.input_buffers[0]).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        m.run(&c.program).unwrap();
        assert_eq!(m.buffer(c.func_buffers[b.index()]), &[4.0, 7.0, 10.0, 13.0]);
        // a's buffer untouched.
        assert!(m.buffer(c.func_buffers[a.index()]).iter().all(|&v| v == 0.0));
    }
}
