//! The multicore CPU backend: Layer IV → `loopvm` programs.
//!
//! Mirrors §V-A of the paper: the Cloog-style AST generated from the
//! time–space mapping is traversed and emitted as nested loops; space tags
//! become loop annotations (`cpu` → threaded, `vec` → lane-evaluated,
//! `unroll` → unrolled); access relations become flat buffer indexing; and
//! the backend optionally separates **full tiles from partial tiles**,
//! which the paper calls "crucial to enable vectorization, unrolling and
//! reducing control overhead" in sgemm.
//!
//! The shared AST walk lives in [`crate::backend::lowered`]; this module
//! only contributes the CPU-specific pieces: the tag→loop-kind mapping
//! and the full/partial tile separation.

use crate::backend::lowered::{self, count_vm_stmts, simplify, EmitTarget, LoopNode, LoweredModule};
use crate::function::{Error, Function, Result, Tag};
use crate::pipeline::{self, CompileTrace};
use loopvm::{BufId as VmBuf, Expr as VExpr, LoopKind, Program, Stmt};
use polyhedral::AstExpr;
use std::collections::HashMap;

/// Options controlling CPU code generation.
#[derive(Debug, Clone)]
pub struct CpuOptions {
    /// Verify the schedule against the flow dependences before emitting
    /// code (on by default, as in Tiramisu).
    pub check_legality: bool,
    /// Split loops with `min`-shaped upper bounds into a full-tile loop
    /// and a remainder loop.
    pub separate_tiles: bool,
    /// Record a [`CompileTrace`] (per-pass timings and IR snapshots),
    /// retrievable via [`CpuModule::compile_trace`].
    pub trace: bool,
}

impl Default for CpuOptions {
    fn default() -> Self {
        CpuOptions { check_legality: true, separate_tiles: false, trace: false }
    }
}

/// A compiled CPU module: a `loopvm` program plus the buffer name map.
#[derive(Debug)]
pub struct CpuModule {
    /// The generated program (run it with [`loopvm::Machine`]). It owns
    /// the module's executable code — the bytecode and native code the
    /// `optimize` pass built are its [`loopvm::Program::compiled`] form,
    /// and clones of it (e.g. `kernels::Prepared`) share that code.
    pub program: Program,
    buffer_map: HashMap<String, VmBuf>,
    /// The parameter bindings the module was compiled for.
    pub param_values: Vec<(String, i64)>,
    trace: Option<CompileTrace>,
}

impl CpuModule {
    /// Creates a machine with storage allocated for this module.
    pub fn machine(&self) -> loopvm::Machine {
        loopvm::Machine::new(&self.program)
    }

    /// The VM buffer backing a Tiramisu buffer (or auto-buffer, named
    /// after its computation).
    pub fn vm_buffer(&self, name: &str) -> Option<VmBuf> {
        self.buffer_map.get(name).copied()
    }

    /// The compile trace, when tracing was enabled.
    pub fn compile_trace(&self) -> Option<&CompileTrace> {
        self.trace.as_ref()
    }

    /// The register bytecode produced by the `optimize` pass — the code
    /// [`loopvm::Machine::run`] executes for [`CpuModule::program`].
    /// [`loopvm::Machine::run_bytecode`] runs it on the interpreter
    /// regardless of the machine's mode.
    pub fn bytecode(&self) -> Option<&loopvm::BcProgram> {
        self.program.compiled().ok().map(loopvm::Compiled::bytecode)
    }

    /// The native x86-64 entry compiled from the bytecode by the
    /// `optimize` pass — `None` on targets without the JIT tier or for
    /// programs the JIT declines. [`loopvm::Machine::run`] uses it in
    /// [`loopvm::ExecMode::Jit`]; [`loopvm::Machine::run_jit`] runs it
    /// directly.
    pub fn jit(&self) -> Option<&loopvm::jit::JitProgram> {
        self.program.compiled().ok().and_then(loopvm::Compiled::jit)
    }

    /// Disassembles the optimized bytecode (see `DESIGN.md` §10 for the
    /// format).
    pub fn disasm(&self) -> Option<String> {
        lowered::disasm(&self.programs())
    }

    /// The one program, unlabelled in the listing.
    pub(crate) fn programs(&self) -> Vec<(String, &Program)> {
        vec![(String::new(), &self.program)]
    }

    /// Rebuilds a module from decoded artifact parts ([`crate::service`]):
    /// the pass pipeline does not run. `program` arrives with the decoded
    /// bytecode installed as its compiled form; artifacts never carry
    /// native code, so it is compiled for this host here, where a fresh
    /// compile pays for it too. Reconstructed modules carry no
    /// [`CompileTrace`]: an artifact holds the module and nothing else.
    pub(crate) fn from_parts(
        program: Program,
        buffer_map: HashMap<String, VmBuf>,
        param_values: Vec<(String, i64)>,
    ) -> CpuModule {
        let module = CpuModule { program, buffer_map, param_values, trace: None };
        module.jit();
        module
    }

    /// The Tiramisu-name → VM-buffer map (for the artifact codec).
    pub(crate) fn buffer_map(&self) -> &HashMap<String, VmBuf> {
        &self.buffer_map
    }
}

/// Compiles a function for the CPU substrate with concrete parameter
/// values.
///
/// # Errors
///
/// Legality violations (when enabled), unbound parameters, non-affine
/// buffer extents, untagged-backend tags (GPU tags in CPU code) and
/// malformed expressions.
pub fn compile(f: &Function, params: &[(&str, i64)], options: CpuOptions) -> Result<CpuModule> {
    let check = options.check_legality;
    let trace = options.trace;
    let mut target = CpuTarget { options };
    let (mut module, trace) = pipeline::compile_with(f, params, check, trace, &mut target)?;
    module.trace = trace;
    Ok(module)
}

/// The CPU emit target: plain loop nests with `cpu`/`vec`/`unroll`
/// annotations and optional tile separation.
struct CpuTarget {
    options: CpuOptions,
}

impl EmitTarget for CpuTarget {
    type Module = CpuModule;

    fn name(&self) -> &'static str {
        "cpu"
    }

    fn loop_kind(&self, tag: Option<Tag>) -> Result<LoopKind> {
        Ok(match tag {
            None => LoopKind::Serial,
            Some(Tag::Parallel) => LoopKind::Parallel,
            Some(Tag::Vectorize(w)) => LoopKind::Vectorize(w),
            Some(Tag::Unroll(u)) => LoopKind::Unroll(u),
            Some(Tag::Distribute) => {
                return Err(Error::Backend(
                    "distribute() requires the distributed backend".into(),
                ))
            }
            Some(Tag::GpuBlock(_)) | Some(Tag::GpuThread(_)) => {
                return Err(Error::Backend(
                    "GPU-tagged loop reached statement conversion (malformed kernel nest)"
                        .into(),
                ))
            }
        })
    }

    fn convert_loop(
        &mut self,
        lm: &mut LoweredModule<'_>,
        node: &LoopNode,
    ) -> Result<Option<Vec<Stmt>>> {
        // Separation of full and partial tiles (§V-A): with a two-candidate
        // min upper bound, emit `if (a <= b) full-loop else partial-loop`.
        if !self.options.separate_tiles {
            return Ok(None);
        }
        let LoopNode::Loop { level, tag, lower, upper, body } = node else {
            return Ok(None);
        };
        let AstExpr::Min(cands) = upper else { return Ok(None) };
        if cands.len() != 2 {
            return Ok(None);
        }
        let kind = self.loop_kind(*tag)?;
        let var = lm.time_vars[*level];
        let body_stmts = lm.convert_nodes(body, self)?;
        let lower_e = simplify(lm.conv_bound(lower));
        let a = simplify(lm.conv_qaff(&cands[0]));
        let b = simplify(lm.conv_qaff(&cands[1]));
        let full = Stmt::For {
            var,
            lower: lower_e.clone(),
            upper: a.clone() + VExpr::i64(1),
            kind,
            body: body_stmts.clone(),
        };
        let partial = Stmt::For {
            var,
            lower: lower_e,
            upper: b.clone() + VExpr::i64(1),
            kind,
            body: body_stmts,
        };
        Ok(Some(vec![Stmt::If {
            cond: VExpr::le(a, b),
            then: vec![full],
            else_: vec![partial],
        }]))
    }

    fn emit(&mut self, lm: &mut LoweredModule<'_>, roots: &[LoopNode]) -> Result<CpuModule> {
        let body = lm.convert_nodes(roots, self)?;
        // Bind parameters at the top of the program.
        let mut top = lm.param_lets();
        top.extend(body);
        lm.program.set_body(top);
        Ok(CpuModule {
            program: std::mem::take(&mut lm.program),
            buffer_map: std::mem::take(&mut lm.buffer_map),
            param_values: lm.param_vals.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            trace: None,
        })
    }

    fn module_stats(&self, module: &CpuModule) -> (usize, String) {
        (count_vm_stmts(module.program.body()), module.program.pretty())
    }

    fn programs<'m>(&self, module: &'m CpuModule) -> Vec<(String, &'m Program)> {
        module.programs()
    }

    fn eager_jit(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CompId, Expr};
    use crate::function::Function;

    /// Compiles and runs the paper's blur (Figure 2) at small size and
    /// checks the values.
    fn run_blur(schedule: impl FnOnce(&mut Function, CompId, CompId)) -> Vec<f32> {
        let (n, m) = (10i64, 12i64);
        let mut f = Function::new("blur", &["N", "M"]);
        let i = f.var("i", 0, Expr::param("N") - Expr::i64(2));
        let j = f.var("j", 0, Expr::param("M") - Expr::i64(2));
        let input = f.input("in", &[
            f.var("i", 0, Expr::param("N")),
            f.var("j", 0, Expr::param("M")),
        ]).unwrap();
        let at = |di: i64, dj: i64| {
            Expr::Access(
                input,
                vec![Expr::iter("i") + Expr::i64(di), Expr::iter("j") + Expr::i64(dj)],
            )
        };
        let bx = f
            .computation(
                "bx",
                &[i.clone(), j.clone()],
                (at(0, 0) + at(0, 1) + at(0, 2)) / Expr::f32(3.0),
            )
            .unwrap();
        let bxa = |di: i64| {
            Expr::Access(bx, vec![Expr::iter("i") + Expr::i64(di), Expr::iter("j")])
        };
        // by's rows stop two earlier so that bx(i+2) stays within bx's
        // domain (the paper elides boundary conditions; we shrink).
        let i_by = f.var("i", 0, Expr::param("N") - Expr::i64(4));
        let by = f
            .computation(
                "by",
                &[i_by, j.clone()],
                (bxa(0) + bxa(1) + bxa(2)) / Expr::f32(3.0),
            )
            .unwrap();
        schedule(&mut f, bx, by);
        let module = compile(&f, &[("N", n), ("M", m)], CpuOptions::default()).unwrap();
        let mut machine = module.machine();
        let in_buf = module.vm_buffer("in").unwrap();
        for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
            *v = k as f32;
        }
        machine.run(&module.program).unwrap();
        let by_buf = module.vm_buffer("by").unwrap();
        machine.buffer(by_buf).to_vec()
    }

    fn reference_blur(n: i64, m: i64) -> Vec<f32> {
        let input: Vec<f32> = (0..n * m).map(|k| k as f32).collect();
        let mut bx = vec![0f32; ((n - 2) * (m - 2)) as usize];
        for i in 0..n - 2 {
            for j in 0..m - 2 {
                bx[(i * (m - 2) + j) as usize] = (input[(i * m + j) as usize]
                    + input[(i * m + j + 1) as usize]
                    + input[(i * m + j + 2) as usize])
                    / 3.0;
            }
        }
        let mut by = vec![0f32; ((n - 2) * (m - 2)) as usize];
        for i in 0..n - 4 {
            for j in 0..m - 2 {
                by[(i * (m - 2) + j) as usize] = (bx[(i * (m - 2) + j) as usize]
                    + bx[((i + 1) * (m - 2) + j) as usize]
                    + bx[((i + 2) * (m - 2) + j) as usize])
                    / 3.0;
            }
        }
        by
    }

    #[test]
    fn blur_default_schedule_matches_reference() {
        // by's domain must not read bx rows beyond bx's extent: restrict
        // by's i to 0..N-4 for this test (handled inside run_blur by the
        // domain we declared? by uses i in 0..N-2 and reads bx(i+2) —
        // bx rows go to N-3, so by rows beyond N-5 read junk-but-in-bounds
        // zeros; the reference computes rows 0..N-4 and we compare those).
        let got = run_blur(|_, _, _| {});
        let expect = reference_blur(10, 12);
        let m2 = 10usize; // m - 2
        for i in 0..6usize {
            for j in 0..m2 {
                let k = i * m2 + j;
                assert!(
                    (got[k] - expect[k]).abs() < 1e-4,
                    "mismatch at ({i},{j}): {} vs {}",
                    got[k],
                    expect[k]
                );
            }
        }
    }

    #[test]
    fn blur_tiled_parallel_matches_reference() {
        let got = run_blur(|f, bx, by| {
            f.tile(by, "i", "j", 4, 4, ("i0", "j0", "i1", "j1")).unwrap();
            f.tile(bx, "i", "j", 4, 4, ("i0", "j0", "i1", "j1")).unwrap();
            f.parallelize(by, "i0").unwrap();
            f.parallelize(bx, "i0").unwrap();
        });
        let expect = reference_blur(10, 12);
        let m2 = 10usize;
        for i in 0..6usize {
            for j in 0..m2 {
                let k = i * m2 + j;
                assert!((got[k] - expect[k]).abs() < 1e-4, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn blur_vectorized_matches_reference() {
        let got = run_blur(|f, bx, by| {
            f.vectorize(bx, "j", 8).unwrap();
            f.vectorize(by, "j", 8).unwrap();
        });
        let expect = reference_blur(10, 12);
        let m2 = 10usize;
        for i in 0..6usize {
            for j in 0..m2 {
                let k = i * m2 + j;
                assert!((got[k] - expect[k]).abs() < 1e-4, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn blur_fused_with_compute_at_matches_reference() {
        let got = run_blur(|f, bx, by| {
            f.tile(by, "i", "j", 4, 4, ("i0", "j0", "i1", "j1")).unwrap();
            f.compute_at(bx, by, "j0").unwrap();
        });
        let expect = reference_blur(10, 12);
        let m2 = 10usize;
        for i in 0..6usize {
            for j in 0..m2 {
                let k = i * m2 + j;
                assert!((got[k] - expect[k]).abs() < 1e-4, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn unbound_param_errors() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        f.computation("A", &[i], Expr::f32(1.0)).unwrap();
        assert!(matches!(
            compile(&f, &[], CpuOptions::default()),
            Err(Error::UnknownParam(_))
        ));
    }

    #[test]
    fn illegal_schedule_rejected_at_compile() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let read = f.access(a, &[Expr::iter("i")]);
        let b = f.computation("B", std::slice::from_ref(&i), read).unwrap();
        f.after(a, b, crate::schedule::At::Root).unwrap(); // A after B: illegal
        assert!(matches!(
            compile(&f, &[("N", 8)], CpuOptions::default()),
            Err(Error::Illegal(_))
        ));
        let _ = b;
    }

    #[test]
    fn separate_tiles_emits_branch() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        f.split(a, "i", 4, "i0", "i1").unwrap();
        let module = compile(
            &f,
            &[("N", 10)],
            CpuOptions { separate_tiles: true, ..CpuOptions::default() },
        )
        .unwrap();
        let text = module.program.pretty();
        assert!(text.contains("if ("), "expected tile separation branch:\n{text}");
        let mut machine = module.machine();
        machine.run(&module.program).unwrap();
        let buf = module.vm_buffer("A").unwrap();
        assert!(machine.buffer(buf).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn reduction_gemm_small() {
        // C(i,j) over k: init + update, contracted into a 2-D buffer.
        let n = 6i64;
        let mut f = Function::new("gemm", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let k = f.var("k", 0, Expr::param("N"));
        let a = f.input("A", &[i.clone(), j.clone()]).unwrap();
        let b = f.input("B", &[i.clone(), j.clone()]).unwrap();
        let c_init = f
            .computation("c_init", &[i.clone(), j.clone()], Expr::f32(0.0))
            .unwrap();
        let upd_expr = f.access(c_init, &[Expr::iter("i"), Expr::iter("j")]);
        let _ = upd_expr;
        let c_buf = f.buffer("C", &[Expr::param("N"), Expr::param("N")]);
        let upd = f
            .computation(
                "c_upd",
                &[i.clone(), j.clone(), k.clone()],
                Expr::Access(
                    crate::expr::CompId(3),
                    vec![Expr::iter("i"), Expr::iter("j"), Expr::iter("k") - Expr::i64(1)],
                ) + f.access(a, &[Expr::iter("i"), Expr::iter("k")])
                    * f.access(b, &[Expr::iter("k"), Expr::iter("j")]),
            )
            .unwrap();
        assert_eq!(upd.index(), 3);
        f.store_in(c_init, c_buf, &[Expr::iter("i"), Expr::iter("j")]);
        f.store_in(upd, c_buf, &[Expr::iter("i"), Expr::iter("j")]);
        let module = compile(&f, &[("N", n)], CpuOptions { check_legality: false, ..Default::default() }).unwrap();
        let mut machine = module.machine();
        let a_buf = module.vm_buffer("A").unwrap();
        let b_buf = module.vm_buffer("B").unwrap();
        machine.buffer_mut(a_buf).iter_mut().for_each(|v| *v = 1.0);
        machine.buffer_mut(b_buf).iter_mut().for_each(|v| *v = 2.0);
        machine.run(&module.program).unwrap();
        let c_vm = module.vm_buffer("C").unwrap();
        assert!(machine.buffer(c_vm).iter().all(|&v| v == 2.0 * n as f32));
    }
}
