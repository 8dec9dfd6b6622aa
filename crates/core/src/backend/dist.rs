//! The distributed backend: Layer IV → `mpisim` rank programs.
//!
//! `distribute()`-tagged loops become rank conditionals (paper §V-A:
//! "each distributed loop is converted into a conditional based on the
//! MPI rank of the executing process"), and Layer IV `send`/`receive`
//! operations become `mpisim` messages carrying exactly the bytes the
//! schedule names. The shared AST walk lives in [`crate::backend::lowered`]
//! and the Layer IV op lowering in [`crate::layer4`]; this module is the
//! thin [`EmitTarget`] binding.

use crate::backend::lowered::{self, EmitTarget, LoopNode, LoweredModule};
use crate::function::{Error, Function, Result, Tag};
use crate::layer4;
use crate::pipeline::{self, CompileTrace};
use loopvm::{Expr as VExpr, LoopKind, Stmt};
use mpisim::{CommModel, DistProgram, DistStats};
use std::collections::HashMap;

/// Options for distributed compilation.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Verify the schedule before code generation (on by default).
    pub check_legality: bool,
    /// Statically validate the emitted rank program's send/receive
    /// matching ([`mpisim::validate_comm`]) when the rank graph is
    /// computable (on by default).
    pub check_comm: bool,
    /// Record a [`CompileTrace`] ([`DistModule::compile_trace`]).
    pub trace: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions { check_legality: true, check_comm: true, trace: false }
    }
}

/// A compiled distributed module.
#[derive(Debug)]
pub struct DistModule {
    /// The rank program (run it with [`mpisim::run`]); its compute chunks
    /// own the bytecode the `optimize` pass compiled, which every rank runs.
    pub dist: DistProgram,
    buffer_map: HashMap<String, loopvm::BufId>,
    trace: Option<CompileTrace>,
}

impl DistModule {
    /// VM buffer by Tiramisu name (each rank owns a private instance).
    pub fn vm_buffer(&self, name: &str) -> Option<loopvm::BufId> {
        self.buffer_map.get(name).copied()
    }

    /// The compile trace, when tracing was enabled.
    pub fn compile_trace(&self) -> Option<&CompileTrace> {
        self.trace.as_ref()
    }

    /// The bytecode of each compute chunk in program order (each starts
    /// with the preamble `let`s); `None` when a chunk does not compile.
    pub fn bytecode(&self) -> Option<Vec<&loopvm::BcProgram>> {
        self.dist.chunks().iter().map(|c| c.compiled().ok().map(|c| c.bytecode())).collect()
    }

    /// Disassembles the chunk bytecode.
    pub fn disasm(&self) -> Option<String> {
        lowered::disasm(&self.programs())
    }

    /// The compute chunks in program order.
    pub(crate) fn programs(&self) -> Vec<(String, &loopvm::Program)> {
        let chunks = self.dist.chunks().iter().enumerate();
        chunks.map(|(k, c)| (format!("// chunk {k}"), c)).collect()
    }

    /// Runs the module on `n_ranks` simulated nodes; VM errors from any
    /// rank surface as [`Error::Backend`].
    pub fn run(&self, n_ranks: usize, comm: &CommModel, stats_mode: bool) -> Result<DistStats> {
        mpisim::run(&self.dist, n_ranks, comm, stats_mode)
            .map_err(|e| Error::Backend(e.to_string()))
    }

    /// Rebuilds a module from decoded artifact parts ([`crate::service`]):
    /// the pass pipeline does not run. Reconstructed modules carry no
    /// [`CompileTrace`]: an artifact holds the module and nothing else.
    pub(crate) fn from_parts(
        dist: DistProgram,
        buffer_map: HashMap<String, loopvm::BufId>,
    ) -> DistModule {
        DistModule { dist, buffer_map, trace: None }
    }

    /// The Tiramisu-name → VM-buffer map (for the artifact codec).
    pub(crate) fn buffer_map(&self) -> &HashMap<String, loopvm::BufId> {
        &self.buffer_map
    }
}

/// Compiles a function for the distributed substrate: every rank executes
/// the same program, loops at `distribute()`-tagged levels collapse to the
/// iteration equal to the rank id, and the Layer IV communication
/// operations are interleaved at their scheduled positions.
///
/// # Errors
///
/// Legality violations, unbound parameters, GPU tags, malformed comm
/// expressions, statically detectable send/receive mismatches.
pub fn compile(f: &Function, params: &[(&str, i64)], options: DistOptions) -> Result<DistModule> {
    let mut target = DistTarget { check_comm: options.check_comm, rank_var: None };
    let (mut module, trace) =
        pipeline::compile_with(f, params, options.check_legality, options.trace, &mut target)?;
    module.trace = trace;
    Ok(module)
}

/// Rank conditionals for `distribute()` levels, comm ops at their anchors.
struct DistTarget {
    check_comm: bool,
    rank_var: Option<loopvm::Var>,
}

impl EmitTarget for DistTarget {
    type Module = DistModule;

    fn name(&self) -> &'static str {
        "dist"
    }

    // Rank programs keep their bounds in the raw scheduled form.
    fn fold_bound(&self, e: VExpr) -> VExpr {
        e
    }

    fn loop_kind(&self, tag: Option<Tag>) -> Result<LoopKind> {
        match tag {
            Some(Tag::Parallel) => Ok(LoopKind::Parallel),
            Some(Tag::Vectorize(w)) => Ok(LoopKind::Vectorize(w)),
            Some(Tag::Unroll(u)) => Ok(LoopKind::Unroll(u)),
            Some(Tag::GpuBlock(_) | Tag::GpuThread(_)) => Err(Error::Backend(
                "GPU tags are not supported by the distributed backend".into(),
            )),
            _ => Ok(LoopKind::Serial),
        }
    }

    fn convert_loop(
        &mut self,
        lm: &mut LoweredModule<'_>,
        node: &LoopNode,
    ) -> Result<Option<Vec<Stmt>>> {
        if !matches!(node, LoopNode::Loop { tag: Some(Tag::Distribute), .. }) {
            return Ok(None);
        }
        let rank_var = self.rank_var.expect("rank var allocated at emit start");
        layer4::rank_conditional(lm, self, node, rank_var).map(Some)
    }

    fn emit(&mut self, lm: &mut LoweredModule<'_>, roots: &[LoopNode]) -> Result<DistModule> {
        let rank_var = lm.program.var("rank");
        self.rank_var = Some(rank_var);
        let preamble = lm.param_lets();
        let (chunks, body) = layer4::interleave_comm(lm, self, roots, rank_var)?;
        let program = std::mem::take(&mut lm.program);
        let dist = DistProgram::new(program, rank_var, preamble, chunks, body);
        // A send/receive mismatch is the classic way a hand-scheduled
        // Layer IV program deadlocks: report it here, not as a hang.
        if self.check_comm {
            if let Some(n_ranks) = layer4::static_ranks(lm, rank_var) {
                mpisim::validate_comm(&dist, n_ranks).map_err(|e| Error::Illegal(e.to_string()))?;
            }
        }
        Ok(DistModule { dist, buffer_map: std::mem::take(&mut lm.buffer_map), trace: None })
    }

    fn module_stats(&self, module: &DistModule) -> (usize, String) {
        (layer4::count_dist_stmts(&module.dist, module.dist.body()), module.dist.pretty())
    }

    fn programs<'m>(&self, module: &'m DistModule) -> Vec<(String, &'m loopvm::Program)> {
        module.programs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::function::Var;
    use mpisim::DistStmt;

    /// The paper's Figure 3(c): distributed 1-D blur with halo exchange.
    /// Each rank owns CHUNK rows of `lin`; it sends its first row to the
    /// left neighbour and receives its halo row from the right neighbour.
    fn build_dist_blur(nodes: i64, chunk: i64) -> (Function, DistModule) {
        let mut f = Function::new("dblur", &["Nodes", "CHUNK"]);
        // lin has CHUNK + 1 rows (owned + halo), flattened 1-D here.
        let r = f.var("r", 0, Expr::param("Nodes"));
        let i = f.var("i", 0, Expr::param("CHUNK"));
        let lin = f
            .input("lin", &[f.var("i", 0, Expr::param("CHUNK") + Expr::i64(1))])
            .unwrap();
        let bx = f
            .computation(
                "bx",
                &[r.clone(), i.clone()],
                (f.access(lin, &[Expr::iter("i")])
                    + f.access(lin, &[Expr::iter("i") + Expr::i64(1)]))
                    / Expr::f32(2.0),
            )
            .unwrap();
        f.distribute(bx, "r").unwrap();
        // Halo exchange: rank is (1..Nodes) sends its row 0 to is-1;
        // rank ir (0..Nodes-1) receives into its halo slot CHUNK.
        let is = Var::new("is", Expr::i64(1), Expr::param("Nodes"));
        let ir = Var::new("ir", Expr::i64(0), Expr::param("Nodes") - Expr::i64(1));
        let s = f.send(
            is,
            "lin",
            Expr::i64(0),
            Expr::i64(1),
            Expr::iter("is") - Expr::i64(1),
            true,
        );
        let rv = f.receive(
            ir,
            "lin",
            Expr::param("CHUNK"),
            Expr::i64(1),
            Expr::iter("ir") + Expr::i64(1),
        );
        f.comm_before(s, bx);
        f.comm_before(rv, bx);
        let module = compile(
            &f,
            &[("Nodes", nodes), ("CHUNK", chunk)],
            DistOptions::default(),
        )
        .unwrap();
        (f, module)
    }

    #[test]
    fn distributed_blur_exchanges_halos() {
        let (_, module) = build_dist_blur(4, 8);
        let stats = module.run(4, &CommModel::default(), true).unwrap();
        // Ranks 1..3 send one element (4 bytes).
        assert_eq!(stats.bytes_sent, vec![0, 4, 4, 4]);
        // Every rank computed its CHUNK rows.
        for r in 0..4 {
            assert_eq!(stats.compute[r].stores, 8, "rank {r}");
        }
        assert!(stats.modeled_cycles > 0.0);
    }

    #[test]
    fn distribute_requires_dist_backend_not_cpu() {
        let mut f = Function::new("d", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let c = f.computation("C", &[i], Expr::f32(1.0)).unwrap();
        f.distribute(c, "i").unwrap();
        let err = crate::backend::cpu::compile(
            &f,
            &[("N", 4)],
            crate::backend::cpu::CpuOptions::default(),
        );
        assert!(err.is_err());
        // The distributed backend accepts it.
        let m = compile(&f, &[("N", 4)], DistOptions::default()).unwrap();
        let stats = m.run(4, &CommModel::default(), true).unwrap();
        let total: u64 = stats.compute.iter().map(|c| c.stores).sum();
        assert_eq!(total, 4); // one iteration per rank
    }

    /// A blur whose halo send has no matching receive: every variant of
    /// this used to compile fine and hang at runtime.
    fn build_unmatched_send(nodes: i64, check_comm: bool) -> Result<DistModule> {
        let mut f = Function::new("lonely", &["Nodes", "CHUNK"]);
        let r = f.var("r", 0, Expr::param("Nodes"));
        let i = f.var("i", 0, Expr::param("CHUNK"));
        let lin = f
            .input("lin", &[f.var("i", 0, Expr::param("CHUNK") + Expr::i64(1))])
            .unwrap();
        let bx = f
            .computation("bx", &[r, i], f.access(lin, &[Expr::iter("i")]))
            .unwrap();
        f.distribute(bx, "r").unwrap();
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
        compile(
            &f,
            &[("Nodes", nodes), ("CHUNK", 4)],
            DistOptions { check_comm, ..DistOptions::default() },
        )
    }

    #[test]
    fn unmatched_send_rejected_at_compile_time() {
        let err = build_unmatched_send(4, true).unwrap_err();
        match err {
            Error::Illegal(msg) => {
                assert!(msg.contains("matching receive"), "{msg}");
                assert!(msg.contains("'lin'"), "{msg}");
            }
            other => panic!("expected Illegal, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_send_without_static_check_fails_at_launch() {
        // With the compile-time check off, the runtime's own pre-launch
        // validation (or, for dynamic programs, the watchdog) still turns
        // the would-be hang into a structured error.
        let module = build_unmatched_send(4, false).unwrap();
        let err = module.run(4, &CommModel::default(), false).unwrap_err();
        assert!(err.to_string().contains("communication mismatch"), "{err}");
    }

    #[test]
    fn matched_blur_passes_static_check() {
        // build_dist_blur compiles with DistOptions::default(), i.e. the
        // static comm check enabled — the matched halo exchange passes.
        let (_, module) = build_dist_blur(4, 8);
        let stats = module.run(4, &CommModel::default(), false).unwrap();
        assert_eq!(stats.bytes_sent, vec![0, 4, 4, 4]);
    }

    #[test]
    fn barrier_is_lowered() {
        let mut f = Function::new("b", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let c = f.computation("C", &[i], Expr::f32(1.0)).unwrap();
        f.distribute(c, "i").unwrap();
        let bar = f.barrier();
        f.comm_before(bar, c);
        let m = compile(&f, &[("N", 3)], DistOptions::default()).unwrap();
        assert!(matches!(m.dist.body()[0], DistStmt::Barrier));
        let stats = m.run(3, &CommModel::default(), false).unwrap();
        assert_eq!(stats.compute.len(), 3);
    }
}
