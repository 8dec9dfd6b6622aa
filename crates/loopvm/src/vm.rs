//! The [`Machine`]: buffers, the variable frame, and the evaluators that
//! run a [`Program`] on them.
//!
//! [`Machine::run`] executes a program's own compiled form
//! ([`Program::compiled`]) on the configured [`ExecMode`] tier of the
//! ladder:
//!
//! - **native** ([`ExecMode::Jit`], the default where `crate::jit` has a
//!   backend): the x86-64 code compiled from the register bytecode, with
//!   guard-and-replay deoptimization back to the interpreter;
//! - **register bytecode** ([`ExecMode::Bytecode`],
//!   [`Machine::run_bytecode`]): the interpreter over
//!   [`crate::bytecode::BcProgram`] — `crate::opt`'s folded, CSE'd,
//!   hoisted instruction stream — which also hosts the sampled profiler;
//! - **stack tree-walk** ([`ExecMode::TreeWalk`],
//!   [`Machine::run_tree_walk`]): the seed's evaluator, expressions
//!   compiled one by one to a stack code ([`compile`], [`Op`]) and
//!   interpreted under the statement tree. It is the differential
//!   reference and, const-generic over `STATS`, the only producer of
//!   [`RunStats`] ([`Machine::run_with_stats`]): every modeled cycle count
//!   is priced here.
//!
//! Both interpreters have the same three loop shapes: **serial**;
//! **parallel** ([`LoopKind::Parallel`]), the iteration range split
//! statically across scoped threads by `crate::par::chunks` — buffers are
//! shared, and legality (no cross-iteration dependences) is the
//! *compiler's* responsibility, exactly as with real parallel codegen; and
//! **vector** ([`LoopKind::Vectorize`]), the body evaluated over lanes of
//! [`LANES`] iterations at once, amortizing interpreter dispatch the way
//! SIMD amortizes instruction issue. The tree-walk evaluates its lanes
//! itself, because it prices them; the bytecode interpreter hands each
//! chunk to [`crate::simt`], the lane executor GPU warps run on, at full
//! mask. The scalar semantics every tier must reproduce bit for bit are
//! the `apply_*`/`cmp_*` functions below.

use crate::bytecode::{BCode, BcProgram, BcStmt, File, Inst, InstClassCounts, Reg};
use crate::cost::{CacheSim, CostModel};
use crate::expr::{BinOp, Expr, Ty, UnOp};
use crate::program::{BufId, LoopKind, Program, Stmt};
use crate::simt::{self, WarpHost};
use crate::{Error, Result};
use std::cell::UnsafeCell;

/// Vector lane width of the VM (iterations evaluated per dispatch in
/// vectorized loops).
pub const LANES: usize = 8;

/// Execution statistics gathered by [`Machine::run_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Innermost statement executions.
    pub stores: u64,
    /// Buffer element reads.
    pub loads: u64,
    /// Floating-point binary operations.
    pub flops: u64,
    /// Loop iterations entered (all levels).
    pub iterations: u64,
    /// Modeled execution cycles under the default [`CostModel`]:
    /// arithmetic dispatch + cache-simulated memory costs, with `parallel`
    /// loop bodies divided by the modeled core count and vector operations
    /// amortized per lane group.
    pub cycles: f64,
    /// L1 misses observed by the cache simulator.
    pub l1_misses: u64,
    /// L2 misses observed by the cache simulator.
    pub l2_misses: u64,
}

impl RunStats {
    /// Field-wise accumulation (e.g. a rank's total over its chunks).
    pub fn add(&mut self, o: &RunStats) {
        self.stores += o.stores;
        self.loads += o.loads;
        self.flops += o.flops;
        self.iterations += o.iterations;
        self.cycles += o.cycles;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
    }

    /// Multi-line human-readable rendering (one metric per row), for
    /// examples and observability demos.
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "cpu run stats\n  modeled cycles   {:>14.0}\n  iterations       {:>14}\n  flops            {:>14}\n  loads            {:>14}\n  stores           {:>14}\n  L1 misses        {:>14}\n  L2 misses        {:>14}\n",
            self.cycles,
            self.iterations,
            self.flops,
            self.loads,
            self.stores,
            self.l1_misses,
            self.l2_misses
        )
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} cycles, {} iters, {} flops, {} loads, {} stores, {} L1m, {} L2m",
            self.cycles,
            self.iterations,
            self.flops,
            self.loads,
            self.stores,
            self.l1_misses,
            self.l2_misses
        )
    }
}

// ---------------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------------

/// One bytecode operation (public so device simulators building on the
/// same expression language — e.g. the GPU SIMT simulator — can interpret
/// compiled expressions with their own execution semantics).
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Push an `f32` constant.
    PushF(f32),
    /// Push an `i64` constant.
    PushI(i64),
    /// Push the value of a variable slot.
    LoadVar(u32),
    /// Pop an index, push `buffer[index]`.
    Load(u32),
    /// `f32` binary operation.
    BinF(BinOp),
    /// `i64` binary operation.
    BinI(BinOp),
    /// `f32` comparison (pushes `i64` 0/1).
    CmpF(BinOp),
    /// `i64` comparison (pushes `i64` 0/1).
    CmpI(BinOp),
    /// `f32` unary operation.
    UnF(UnOp),
    /// `i64` unary operation.
    UnI(UnOp),
    /// `f32` select (pops b, a, cond).
    SelF,
    /// `i64` select.
    SelI,
    /// Cast `i64` → `f32`.
    CastIF,
    /// Cast `f32` → `i64`.
    CastFI,
}

/// A compiled expression: a flat operation sequence plus its result type.
#[derive(Debug, Clone)]
pub struct Code {
    /// The operations, in evaluation order.
    pub ops: Vec<Op>,
    /// Result type.
    pub ty: Ty,
}

/// Compiles an expression tree into stack bytecode.
///
/// # Errors
///
/// [`Error::Type`] on operand mismatches.
pub fn compile(e: &Expr) -> Result<Code> {
    let mut ops = Vec::new();
    let ty = compile_into(e, &mut ops)?;
    Ok(Code { ops, ty })
}

fn compile_into(e: &Expr, ops: &mut Vec<Op>) -> Result<Ty> {
    match e {
        Expr::ConstF(v) => {
            ops.push(Op::PushF(*v));
            Ok(Ty::F32)
        }
        Expr::ConstI(v) => {
            ops.push(Op::PushI(*v));
            Ok(Ty::I64)
        }
        Expr::Var(v) => {
            ops.push(Op::LoadVar(v.0));
            Ok(Ty::I64)
        }
        Expr::Load(b, idx) => {
            let t = compile_into(idx, ops)?;
            if t != Ty::I64 {
                return Err(Error::Type("load index must be i64".into()));
            }
            ops.push(Op::Load(b.0));
            Ok(Ty::F32)
        }
        Expr::Bin(op, a, b) => {
            let ta = compile_into(a, ops)?;
            let tb = compile_into(b, ops)?;
            if ta != tb {
                return Err(Error::Type(format!("operands of {op:?} disagree")));
            }
            match op {
                BinOp::Lt | BinOp::Le | BinOp::EqCmp => {
                    ops.push(if ta == Ty::F32 { Op::CmpF(*op) } else { Op::CmpI(*op) });
                    Ok(Ty::I64)
                }
                BinOp::And | BinOp::Or => {
                    if ta != Ty::I64 {
                        return Err(Error::Type("logical ops need i64".into()));
                    }
                    ops.push(Op::BinI(*op));
                    Ok(Ty::I64)
                }
                _ => {
                    ops.push(if ta == Ty::F32 { Op::BinF(*op) } else { Op::BinI(*op) });
                    Ok(ta)
                }
            }
        }
        Expr::Un(op, a) => {
            let t = compile_into(a, ops)?;
            match (op, t) {
                (UnOp::Sqrt | UnOp::Exp, Ty::I64) => {
                    Err(Error::Type(format!("{op:?} needs f32")))
                }
                (UnOp::Not, Ty::F32) => Err(Error::Type("not needs i64".into())),
                (_, Ty::F32) => {
                    ops.push(Op::UnF(*op));
                    Ok(Ty::F32)
                }
                (_, Ty::I64) => {
                    ops.push(Op::UnI(*op));
                    Ok(Ty::I64)
                }
            }
        }
        Expr::Select(c, a, b) => {
            let tc = compile_into(c, ops)?;
            if tc != Ty::I64 {
                return Err(Error::Type("select condition must be i64".into()));
            }
            let ta = compile_into(a, ops)?;
            let tb = compile_into(b, ops)?;
            if ta != tb {
                return Err(Error::Type("select arms disagree".into()));
            }
            ops.push(if ta == Ty::F32 { Op::SelF } else { Op::SelI });
            Ok(ta)
        }
        Expr::Cast(t, a) => {
            let ta = compile_into(a, ops)?;
            match (ta, t) {
                (Ty::I64, Ty::F32) => ops.push(Op::CastIF),
                (Ty::F32, Ty::I64) => ops.push(Op::CastFI),
                _ => {}
            }
            Ok(*t)
        }
    }
}

#[derive(Debug, Clone)]
enum CStmt {
    For { var: u32, lower: Code, upper: Code, kind: LoopKind, body: Vec<CStmt> },
    If { cond: Code, then: Vec<CStmt>, else_: Vec<CStmt> },
    Store { buf: u32, index: Code, value: Code },
    Let { var: u32, value: Code },
}

fn compile_stmt(s: &Stmt) -> Result<CStmt> {
    Ok(match s {
        Stmt::For { var, lower, upper, kind, body } => CStmt::For {
            var: var.0,
            lower: compile(lower)?,
            upper: compile(upper)?,
            kind: *kind,
            body: body.iter().map(compile_stmt).collect::<Result<_>>()?,
        },
        Stmt::If { cond, then, else_ } => CStmt::If {
            cond: compile(cond)?,
            then: then.iter().map(compile_stmt).collect::<Result<_>>()?,
            else_: else_.iter().map(compile_stmt).collect::<Result<_>>()?,
        },
        Stmt::Store { buf, index, value } => {
            let index = compile(index)?;
            let value = compile(value)?;
            if index.ty != Ty::I64 {
                return Err(Error::Type("store index must be i64".into()));
            }
            if value.ty != Ty::F32 {
                return Err(Error::Type("store value must be f32".into()));
            }
            CStmt::Store { buf: buf.0, index, value }
        }
        Stmt::Let { var, value } => {
            let value = compile(value)?;
            if value.ty != Ty::I64 {
                return Err(Error::Type("let binds i64 values".into()));
            }
            CStmt::Let { var: var.0, value }
        }
    })
}

// ---------------------------------------------------------------------------
// Buffers (shared across worker threads)
// ---------------------------------------------------------------------------

pub(crate) struct SharedBuf {
    name: String,
    data: UnsafeCell<Box<[f32]>>,
}

// SAFETY: buffers are raced only inside `Parallel` loops; the compilers
// targeting this VM are responsible for parallelizing only dependence-free
// loops, exactly as with native codegen. Disjoint iterations touch disjoint
// elements; simultaneous writes to one element would be a compiler bug, the
// same class of bug that native OpenMP codegen would exhibit.
unsafe impl Sync for SharedBuf {}

impl SharedBuf {
    #[inline]
    fn get(&self, idx: i64) -> Result<f32> {
        let data = unsafe { &*self.data.get() };
        if idx < 0 || idx as usize >= data.len() {
            return Err(Error::OutOfBounds {
                buffer: self.name.clone(),
                index: idx,
                size: data.len(),
            });
        }
        Ok(unsafe { *data.get_unchecked(idx as usize) })
    }

    #[inline]
    fn set(&self, idx: i64, v: f32) -> Result<()> {
        let data = unsafe { &mut *self.data.get() };
        if idx < 0 || idx as usize >= data.len() {
            return Err(Error::OutOfBounds {
                buffer: self.name.clone(),
                index: idx,
                size: data.len(),
            });
        }
        unsafe {
            *data.get_unchecked_mut(idx as usize) = v;
        }
        Ok(())
    }

    /// Buffer name, as reported in [`Error::OutOfBounds`].
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Element count.
    pub(crate) fn len(&self) -> usize {
        unsafe { &*self.data.get() }.len()
    }

    /// Raw element pointer for the JIT's buffer descriptor table. Aliasing
    /// follows the same rules as `get`/`set` (see the `Sync` safety note).
    pub(crate) fn data_ptr(&self) -> *mut f32 {
        unsafe { &mut *self.data.get() }.as_mut_ptr()
    }
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

/// Which evaluator [`Machine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The optimized register bytecode ([`crate::opt`]): the default fast
    /// path.
    #[default]
    Bytecode,
    /// The original stack-walking evaluator: the reference semantics the
    /// bytecode is differentially tested against. Also selectable
    /// process-wide with the `LOOPVM_TREEWALK` environment variable.
    TreeWalk,
    /// Native x86-64 code generated by [`crate::jit`]: the default on
    /// supported targets (opt out with `LOOPVM_JIT=0`). Programs the JIT
    /// cannot compile — and all programs on unsupported targets — run on
    /// the bytecode interpreter instead, with identical observable
    /// behavior.
    Jit,
}

impl ExecMode {
    /// The one place executor-mode environment variables are interpreted
    /// (all per [`telemetry::env_flag`] semantics).
    ///
    /// `treewalk_var` names the caller's tree-walk override
    /// (`LOOPVM_TREEWALK` for [`Machine`]) and wins when set. Otherwise,
    /// when the caller supports the native tier (`allow_jit`) and the
    /// target does, `Jit` is selected unless `LOOPVM_JIT` is set to an off
    /// value (`0` or empty); everything else resolves to `Bytecode`.
    #[must_use]
    pub fn from_env(treewalk_var: &str, allow_jit: bool) -> ExecMode {
        if telemetry::env_flag(treewalk_var) {
            ExecMode::TreeWalk
        } else if allow_jit
            && crate::jit::supported()
            && (std::env::var_os("LOOPVM_JIT").is_none() || telemetry::env_flag("LOOPVM_JIT"))
        {
            ExecMode::Jit
        } else {
            ExecMode::Bytecode
        }
    }
}

/// An execution machine holding the buffer storage for a [`Program`].
pub struct Machine {
    bufs: Vec<SharedBuf>,
    threads: usize,
    bases: Vec<u64>,
    mode: ExecMode,
    /// Values [`Machine::bind`] put into every run's variable frame.
    bindings: Vec<(crate::expr::Var, i64)>,
}

/// Always-on process-wide VM metrics: whether [`Machine::run`] found a
/// program's compiled form or had to build it (`vm.bc_cache.*`), JIT
/// compile outcomes (recorded by [`crate::Compiled::jit`]), and per-tier
/// run latency histograms.
pub(crate) struct VmMetrics {
    bc_cache_hits: std::sync::Arc<telemetry::metrics::Counter>,
    bc_cache_misses: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_compiles: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_fallbacks: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_compile_us: std::sync::Arc<telemetry::metrics::Histogram>,
    run_jit_us: std::sync::Arc<telemetry::metrics::Histogram>,
    run_bytecode_us: std::sync::Arc<telemetry::metrics::Histogram>,
    run_tree_walk_us: std::sync::Arc<telemetry::metrics::Histogram>,
}

pub(crate) fn vm_metrics() -> &'static VmMetrics {
    static M: std::sync::OnceLock<VmMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| VmMetrics {
        bc_cache_hits: telemetry::metrics::counter("vm.bc_cache.hits"),
        bc_cache_misses: telemetry::metrics::counter("vm.bc_cache.misses"),
        jit_compiles: telemetry::metrics::counter("vm.jit.compiles"),
        jit_fallbacks: telemetry::metrics::counter("vm.jit.fallbacks"),
        jit_compile_us: telemetry::metrics::histogram("vm.jit.compile_us"),
        run_jit_us: telemetry::metrics::histogram("vm.run.jit_us"),
        run_bytecode_us: telemetry::metrics::histogram("vm.run.bytecode_us"),
        run_tree_walk_us: telemetry::metrics::histogram("vm.run.tree_walk_us"),
    })
}

struct ExecCtx<'a> {
    bufs: &'a [SharedBuf],
    bases: &'a [u64],
    threads: usize,
    frame: Vec<i64>,
    istack: Vec<i64>,
    fstack: Vec<f32>,
    vistack: Vec<[i64; LANES]>,
    vfstack: Vec<[f32; LANES]>,
    stats: RunStats,
    cache: CacheSim,
    /// Depth of enclosing parallel loops (cycles are divided by the
    /// modeled core count only at the outermost one).
    parallel_depth: u32,
}

impl Machine {
    /// Allocates zero-initialized storage for every buffer of `p`.
    pub fn new(p: &Program) -> Machine {
        let bufs: Vec<SharedBuf> = p
            .buffers
            .iter()
            .map(|(name, size)| SharedBuf {
                name: name.clone(),
                data: UnsafeCell::new(vec![0.0f32; *size].into_boxed_slice()),
            })
            .collect();
        // Distinct, line-aligned modeled base addresses per buffer.
        let mut bases = Vec::with_capacity(bufs.len());
        let mut next: u64 = 0;
        for (_, size) in &p.buffers {
            bases.push(next);
            next += ((*size as u64 * 4).div_ceil(64) + 1) * 64;
        }
        Machine {
            bufs,
            threads: default_threads(),
            bases,
            mode: default_exec_mode(),
            bindings: Vec::new(),
        }
    }

    /// Binds `var` to `value` at the start of every later run, on every
    /// evaluator: one compiled program serves many parameterizations (the
    /// distributed simulator binds each rank's machine to its rank id).
    /// `var` must be a variable of the programs this machine runs;
    /// rebinding replaces the value, unbound variables start at `0`.
    pub fn bind(&mut self, var: crate::expr::Var, value: i64) {
        self.bindings.retain(|(v, _)| *v != var);
        self.bindings.push((var, value));
    }

    /// A zeroed variable frame with the bound values filled in.
    fn frame(&self, n_vars: usize) -> Vec<i64> {
        let mut frame = vec![0i64; n_vars];
        for (v, val) in &self.bindings {
            frame[v.index()] = *val;
        }
        frame
    }

    /// Overrides the worker thread count used by parallel loops.
    ///
    /// A count of `0` is silently clamped to `1` (serial execution):
    /// parallel loops always run with at least one worker, so
    /// `set_threads(0)` and `set_threads(1)` are equivalent. The clamp is
    /// pinned by a regression test.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// The worker thread count parallel loops will use (after clamping).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selects the evaluator used by [`Machine::run`]. The stats-gathering
    /// path ([`Machine::run_with_stats`]) always uses the tree-walk
    /// evaluator, whose cost accounting is the model's reference.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The evaluator [`Machine::run`] currently uses.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Read access to a buffer's storage.
    pub fn buffer(&self, b: BufId) -> &[f32] {
        unsafe { &*self.bufs[b.index()].data.get() }
    }

    /// Mutable access to a buffer's storage (e.g. to set inputs).
    pub fn buffer_mut(&mut self, b: BufId) -> &mut [f32] {
        unsafe { &mut *self.bufs[b.index()].data.get() }
    }

    /// Runs the program with the configured evaluator (by default the
    /// native tier where it exists, else the optimized register bytecode;
    /// see [`Machine::set_exec_mode`]).
    ///
    /// The code that runs is the program's own [`Program::compiled`] form:
    /// built on the first run of a bare program, already present when a
    /// compiler produced the program (`optimize`, artifact decode), and
    /// dropped by any mutation, so a changed program recompiles.
    ///
    /// # Errors
    ///
    /// Type errors at bytecode compilation and out-of-bounds accesses at
    /// runtime.
    pub fn run(&mut self, p: &Program) -> Result<()> {
        if self.mode == ExecMode::TreeWalk {
            return self.run_tree_walk(p);
        }
        let (code, built) = p.compiled_or_build();
        let m = vm_metrics();
        let traffic = if built { &m.bc_cache_misses } else { &m.bc_cache_hits };
        traffic.inc();
        let code = code?;
        // The bytecode profiler lives in the interpreter, so profiled
        // runs stay on bytecode even in Jit mode.
        let jit = if self.mode == ExecMode::Jit && !telemetry::profile_enabled() {
            code.jit()
        } else {
            None
        };
        match jit {
            Some(j) => self.run_jit(j),
            None => self.run_bytecode(code.bytecode()),
        }
    }

    /// Runs compiled native code (see [`crate::jit::compile`]) against
    /// this machine's buffers — the JIT analog of
    /// [`Machine::run_bytecode`] for callers that amortize compilation.
    /// The program must have been compiled from bytecode for the same
    /// [`Program`] this machine was built for.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime, identical to the interpreter's.
    pub fn run_jit(&mut self, j: &crate::jit::JitProgram) -> Result<()> {
        let _sp = telemetry::span("vm", "run_jit");
        let t0 = std::time::Instant::now();
        let r = j.run(&self.bufs, self.threads, &self.bindings);
        vm_metrics().run_jit_us.record_duration(t0.elapsed());
        r
    }

    /// Runs the program with the reference tree-walk evaluator regardless
    /// of the configured mode (differential baseline).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_tree_walk(&mut self, p: &Program) -> Result<()> {
        let t0 = std::time::Instant::now();
        let r = self.tree_walk::<false>(p).map(|_| ());
        vm_metrics().run_tree_walk_us.record_duration(t0.elapsed());
        r
    }

    /// Runs a precompiled bytecode program (see
    /// [`crate::opt::compile_program`]) for callers that manage
    /// compilation themselves.
    ///
    /// The program must have been compiled from the same [`Program`] this
    /// machine was built for (buffer and variable spaces must match).
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime.
    pub fn run_bytecode(&mut self, bc: &BcProgram) -> Result<()> {
        let _sp = telemetry::span("vm", "run_bytecode");
        let t0 = std::time::Instant::now();
        let mut ctx = BcCtx {
            bufs: &self.bufs,
            threads: self.threads,
            frame: self.frame(bc.n_vars),
            ir: vec![0i64; bc.n_iregs as usize],
            fr: vec![0f32; bc.n_fregs as usize],
            lanes: Lanes::new(bc.n_iregs as usize, bc.n_fregs as usize, bc.n_vars),
            prof: telemetry::profile_enabled().then(Box::<BcProf>::default),
        };
        let r = bc_run_insts(&bc.prologue, &mut ctx)
            .and_then(|()| bc_exec_block(&bc.body, &mut ctx));
        vm_metrics().run_bytecode_us.record_duration(t0.elapsed());
        if let Some(p) = ctx.prof.take() {
            p.emit(&bc.var_names);
        }
        r
    }

    /// Runs the program, gathering [`RunStats`] (slower; for tests, cost
    /// models and the benchmark harness's operation counts).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_with_stats(&mut self, p: &Program) -> Result<RunStats> {
        self.tree_walk::<true>(p)
    }

    fn tree_walk<const STATS: bool>(&mut self, p: &Program) -> Result<RunStats> {
        let compiled: Vec<CStmt> = p.body().iter().map(compile_stmt).collect::<Result<_>>()?;
        let mut ctx = ExecCtx {
            bufs: &self.bufs,
            bases: &self.bases,
            threads: self.threads,
            frame: self.frame(p.n_vars()),
            istack: Vec::with_capacity(16),
            fstack: Vec::with_capacity(16),
            vistack: Vec::with_capacity(16),
            vfstack: Vec::with_capacity(16),
            stats: RunStats::default(),
            cache: CacheSim::new(CostModel::default()),
            parallel_depth: 0,
        };
        exec_block::<STATS>(&compiled, &mut ctx)?;
        ctx.stats.l1_misses = ctx.cache.l1_misses;
        ctx.stats.l2_misses = ctx.cache.l2_misses;
        Ok(ctx.stats)
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn default_exec_mode() -> ExecMode {
    ExecMode::from_env("LOOPVM_TREEWALK", true)
}

// ---------------------------------------------------------------------------
// Scalar execution
// ---------------------------------------------------------------------------

#[inline]
fn eval<const STATS: bool>(code: &Code, ctx: &mut ExecCtx<'_>) -> Result<()> {
    ctx.istack.clear();
    ctx.fstack.clear();
    eval_keep::<STATS>(code, ctx)
}

/// Evaluates without clearing the stacks (caller manages stack discipline).
fn eval_keep<const STATS: bool>(code: &Code, ctx: &mut ExecCtx<'_>) -> Result<()> {
    for op in &code.ops {
        match *op {
            Op::PushF(v) => ctx.fstack.push(v),
            Op::PushI(v) => ctx.istack.push(v),
            Op::LoadVar(v) => ctx.istack.push(ctx.frame[v as usize]),
            Op::Load(b) => {
                let idx = ctx.istack.pop().unwrap();
                let v = ctx.bufs[b as usize].get(idx)?;
                if STATS {
                    ctx.stats.loads += 1;
                    let addr = ctx.bases[b as usize] + (idx as u64) * 4;
                    ctx.stats.cycles += ctx.cache.access(addr);
                }
                ctx.fstack.push(v);
            }
            Op::BinF(op) => {
                let b = ctx.fstack.pop().unwrap();
                let a = ctx.fstack.pop().unwrap();
                if STATS {
                    ctx.stats.flops += 1;
                    ctx.stats.cycles += ctx.cache.model().alu;
                }
                ctx.fstack.push(apply_f(op, a, b));
            }
            Op::BinI(op) => {
                let b = ctx.istack.pop().unwrap();
                let a = ctx.istack.pop().unwrap();
                if STATS {
                    ctx.stats.cycles += ctx.cache.model().alu;
                }
                ctx.istack.push(apply_i(op, a, b));
            }
            Op::CmpF(op) => {
                let b = ctx.fstack.pop().unwrap();
                let a = ctx.fstack.pop().unwrap();
                ctx.istack.push(cmp_f(op, a, b));
            }
            Op::CmpI(op) => {
                let b = ctx.istack.pop().unwrap();
                let a = ctx.istack.pop().unwrap();
                ctx.istack.push(cmp_i(op, a, b));
            }
            Op::UnF(op) => {
                let a = ctx.fstack.pop().unwrap();
                ctx.fstack.push(apply_un_f(op, a));
            }
            Op::UnI(op) => {
                let a = ctx.istack.pop().unwrap();
                ctx.istack.push(apply_un_i(op, a));
            }
            Op::SelF => {
                let b = ctx.fstack.pop().unwrap();
                let a = ctx.fstack.pop().unwrap();
                let c = ctx.istack.pop().unwrap();
                ctx.fstack.push(if c != 0 { a } else { b });
            }
            Op::SelI => {
                let b = ctx.istack.pop().unwrap();
                let a = ctx.istack.pop().unwrap();
                let c = ctx.istack.pop().unwrap();
                ctx.istack.push(if c != 0 { a } else { b });
            }
            Op::CastIF => {
                let a = ctx.istack.pop().unwrap();
                ctx.fstack.push(a as f32);
            }
            Op::CastFI => {
                let a = ctx.fstack.pop().unwrap();
                ctx.istack.push(a as i64);
            }
        }
    }
    Ok(())
}

#[inline(always)]
/// Applies an `f32` binary operation (shared with device simulators).
pub fn apply_f(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        _ => unreachable!("comparison handled elsewhere"),
    }
}

#[inline(always)]
/// Applies an `i64` binary operation.
pub fn apply_i(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.div_euclid(b),
        BinOp::Rem => a.rem_euclid(b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
        _ => unreachable!("comparison handled elsewhere"),
    }
}

#[inline(always)]
/// `f32` comparison yielding 0/1.
pub fn cmp_f(op: BinOp, a: f32, b: f32) -> i64 {
    (match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::EqCmp => a == b,
        _ => unreachable!(),
    }) as i64
}

#[inline(always)]
/// `i64` comparison yielding 0/1.
pub fn cmp_i(op: BinOp, a: i64, b: i64) -> i64 {
    (match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::EqCmp => a == b,
        _ => unreachable!(),
    }) as i64
}

#[inline(always)]
/// Applies an `f32` unary operation.
pub fn apply_un_f(op: UnOp, a: f32) -> f32 {
    match op {
        UnOp::Neg => -a,
        UnOp::Abs => a.abs(),
        UnOp::Sqrt => a.sqrt(),
        UnOp::Exp => a.exp(),
        UnOp::Not => unreachable!(),
    }
}

#[inline(always)]
/// Applies an `i64` unary operation.
pub fn apply_un_i(op: UnOp, a: i64) -> i64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Abs => a.abs(),
        UnOp::Not => (a == 0) as i64,
        UnOp::Sqrt | UnOp::Exp => unreachable!(),
    }
}

fn exec_block<const STATS: bool>(body: &[CStmt], ctx: &mut ExecCtx<'_>) -> Result<()> {
    for s in body {
        exec_stmt::<STATS>(s, ctx)?;
    }
    Ok(())
}

fn eval_i64<const STATS: bool>(code: &Code, ctx: &mut ExecCtx<'_>) -> Result<i64> {
    eval::<STATS>(code, ctx)?;
    Ok(ctx.istack.pop().unwrap())
}

fn exec_stmt<const STATS: bool>(s: &CStmt, ctx: &mut ExecCtx<'_>) -> Result<()> {
    match s {
        CStmt::Let { var, value } => {
            let v = eval_i64::<STATS>(value, ctx)?;
            ctx.frame[*var as usize] = v;
            Ok(())
        }
        CStmt::Store { buf, index, value } => {
            let idx = eval_i64::<STATS>(index, ctx)?;
            eval::<STATS>(value, ctx)?;
            let v = ctx.fstack.pop().unwrap();
            if STATS {
                ctx.stats.stores += 1;
                let addr = ctx.bases[*buf as usize] + (idx as u64) * 4;
                ctx.stats.cycles += ctx.cache.access(addr);
            }
            ctx.bufs[*buf as usize].set(idx, v)
        }
        CStmt::If { cond, then, else_ } => {
            let c = eval_i64::<STATS>(cond, ctx)?;
            if c != 0 {
                exec_block::<STATS>(then, ctx)
            } else {
                exec_block::<STATS>(else_, ctx)
            }
        }
        CStmt::For { var, lower, upper, kind, body } => {
            let lo = eval_i64::<STATS>(lower, ctx)?;
            let hi = eval_i64::<STATS>(upper, ctx)?;
            match kind {
                LoopKind::Parallel if STATS => {
                    // Stats path: run serially (deterministic cache
                    // simulation), then credit the modeled core count to
                    // the outermost parallel loop's body cycles.
                    let before = ctx.stats.cycles;
                    ctx.parallel_depth += 1;
                    for v in lo..hi {
                        ctx.frame[*var as usize] = v;
                        ctx.stats.iterations += 1;
                        exec_block::<STATS>(body, ctx)?;
                    }
                    ctx.parallel_depth -= 1;
                    if ctx.parallel_depth == 0 {
                        let d = (ctx.cache.model().cores as i64).min((hi - lo).max(1)) as f64;
                        let region = ctx.stats.cycles - before;
                        ctx.stats.cycles = before + region / d;
                    }
                    Ok(())
                }
                LoopKind::Parallel if ctx.threads > 1 && hi - lo > 1 => {
                    exec_parallel(*var, lo, hi, body, ctx)
                }
                LoopKind::Vectorize(_) if body_vectorizable(body) => {
                    exec_vector::<STATS>(*var, lo, hi, body, ctx)
                }
                _ => {
                    for v in lo..hi {
                        ctx.frame[*var as usize] = v;
                        if STATS {
                            ctx.stats.iterations += 1;
                        }
                        exec_block::<STATS>(body, ctx)?;
                    }
                    Ok(())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

/// Runs a parallel loop on worker threads. The stats evaluator never gets
/// here: it prices parallel loops serially (`exec_stmt`), so workers
/// gather nothing.
fn exec_parallel(
    var: u32,
    lo: i64,
    hi: i64,
    body: &[CStmt],
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    let bufs = ctx.bufs;
    let bases = ctx.bases;
    let model = *ctx.cache.model();
    let frame_proto = &ctx.frame;
    let results = crate::par::chunks(ctx.threads, lo, hi, |start, end| -> Result<()> {
        let mut sub = ExecCtx {
            bufs,
            bases,
            // Nested parallel loops run serially inside a worker.
            threads: 1,
            frame: frame_proto.clone(),
            istack: Vec::with_capacity(16),
            fstack: Vec::with_capacity(16),
            vistack: Vec::with_capacity(16),
            vfstack: Vec::with_capacity(16),
            stats: RunStats::default(),
            cache: CacheSim::new(model),
            parallel_depth: 1,
        };
        for v in start..end {
            sub.frame[var as usize] = v;
            exec_block::<false>(body, &mut sub)?;
        }
        Ok(())
    });
    results.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Vector execution
// ---------------------------------------------------------------------------

/// A body is lane-executable when it contains only stores and lets (the
/// shape produced by vectorizing an innermost loop).
fn body_vectorizable(body: &[CStmt]) -> bool {
    body.iter().all(|s| matches!(s, CStmt::Store { .. } | CStmt::Let { .. }))
}

fn exec_vector<const STATS: bool>(
    var: u32,
    lo: i64,
    hi: i64,
    body: &[CStmt],
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    let mut v = lo;
    while v + (LANES as i64) <= hi {
        if STATS {
            ctx.stats.iterations += LANES as u64;
        }
        exec_vector_chunk::<STATS>(var, v, body, ctx)?;
        v += LANES as i64;
    }
    // Scalar remainder.
    while v < hi {
        ctx.frame[var as usize] = v;
        if STATS {
            ctx.stats.iterations += 1;
        }
        exec_block::<STATS>(body, ctx)?;
        v += 1;
    }
    Ok(())
}

/// Per-lane variable overlays: the vector frame is the scalar frame plus a
/// lane-varying overlay for the vector var and vector lets.
fn exec_vector_chunk<const STATS: bool>(
    var: u32,
    base: i64,
    body: &[CStmt],
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    // Lane-varying slots: map var slot -> [i64; LANES].
    let mut overlay: Vec<(u32, [i64; LANES])> = Vec::with_capacity(4);
    let mut lanes = [0i64; LANES];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = base + l as i64;
    }
    overlay.push((var, lanes));
    for s in body {
        match s {
            CStmt::Let { var, value } => {
                let mut out = [0i64; LANES];
                veval_i::<STATS>(value, ctx, &overlay, &mut out)?;
                overlay.retain(|(v, _)| v != var);
                overlay.push((*var, out));
            }
            CStmt::Store { buf, index, value } => {
                let mut idx = [0i64; LANES];
                veval_i::<STATS>(index, ctx, &overlay, &mut idx)?;
                let mut val = [0f32; LANES];
                veval_f::<STATS>(value, ctx, &overlay, &mut val)?;
                if STATS {
                    ctx.stats.stores += LANES as u64;
                    ctx.stats.cycles += vector_mem_cost(ctx, *buf, &idx);
                }
                let b = &ctx.bufs[*buf as usize];
                for l in 0..LANES {
                    b.set(idx[l], val[l])?;
                }
            }
            _ => unreachable!("checked by body_vectorizable"),
        }
    }
    Ok(())
}

fn veval_i<const STATS: bool>(
    code: &Code,
    ctx: &mut ExecCtx<'_>,
    overlay: &[(u32, [i64; LANES])],
    out: &mut [i64; LANES],
) -> Result<()> {
    veval::<STATS>(code, ctx, overlay)?;
    *out = ctx.vistack.pop().unwrap();
    Ok(())
}

fn veval_f<const STATS: bool>(
    code: &Code,
    ctx: &mut ExecCtx<'_>,
    overlay: &[(u32, [i64; LANES])],
    out: &mut [f32; LANES],
) -> Result<()> {
    veval::<STATS>(code, ctx, overlay)?;
    *out = ctx.vfstack.pop().unwrap();
    Ok(())
}

fn veval<const STATS: bool>(
    code: &Code,
    ctx: &mut ExecCtx<'_>,
    overlay: &[(u32, [i64; LANES])],
) -> Result<()> {
    ctx.vistack.clear();
    ctx.vfstack.clear();
    for op in &code.ops {
        match *op {
            Op::PushF(v) => ctx.vfstack.push([v; LANES]),
            Op::PushI(v) => ctx.vistack.push([v; LANES]),
            Op::LoadVar(v) => {
                if let Some((_, lanes)) = overlay.iter().rev().find(|(ov, _)| *ov == v) {
                    ctx.vistack.push(*lanes);
                } else {
                    ctx.vistack.push([ctx.frame[v as usize]; LANES]);
                }
            }
            Op::Load(b) => {
                let idx = ctx.vistack.pop().unwrap();
                let mut out = [0f32; LANES];
                let buf = &ctx.bufs[b as usize];
                for l in 0..LANES {
                    out[l] = buf.get(idx[l])?;
                }
                if STATS {
                    ctx.stats.loads += LANES as u64;
                    ctx.stats.cycles += vector_mem_cost(ctx, b, &idx);
                }
                ctx.vfstack.push(out);
            }
            Op::BinF(op) => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.last_mut().unwrap();
                if STATS {
                    ctx.stats.flops += LANES as u64;
                    ctx.stats.cycles += ctx.cache.model().alu;
                }
                for l in 0..LANES {
                    a[l] = apply_f(op, a[l], b[l]);
                }
            }
            Op::BinI(op) => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.last_mut().unwrap();
                if STATS {
                    ctx.stats.cycles += ctx.cache.model().alu;
                }
                for l in 0..LANES {
                    a[l] = apply_i(op, a[l], b[l]);
                }
            }
            Op::CmpF(op) => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = cmp_f(op, a[l], b[l]);
                }
                ctx.vistack.push(out);
            }
            Op::CmpI(op) => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = cmp_i(op, a[l], b[l]);
                }
                ctx.vistack.push(out);
            }
            Op::UnF(op) => {
                let a = ctx.vfstack.last_mut().unwrap();
                for x in a.iter_mut() {
                    *x = apply_un_f(op, *x);
                }
            }
            Op::UnI(op) => {
                let a = ctx.vistack.last_mut().unwrap();
                for x in a.iter_mut() {
                    *x = apply_un_i(op, *x);
                }
            }
            Op::SelF => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.pop().unwrap();
                let c = ctx.vistack.pop().unwrap();
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.vfstack.push(out);
            }
            Op::SelI => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.pop().unwrap();
                let c = ctx.vistack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.vistack.push(out);
            }
            Op::CastIF => {
                let a = ctx.vistack.pop().unwrap();
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = a[l] as f32;
                }
                ctx.vfstack.push(out);
            }
            Op::CastFI => {
                let a = ctx.vfstack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = a[l] as i64;
                }
                ctx.vistack.push(out);
            }
        }
    }
    Ok(())
}

/// Evaluates a load-free integer expression with the given variable
/// bindings (used by runtimes to evaluate message sizes, ranks and
/// offsets). Unbound variables read as `0`.
///
/// # Errors
///
/// [`Error::Type`] for non-integer expressions and
/// [`Error::Structure`] when the expression loads from a buffer — both
/// found by validating the whole expression first, so they are reported
/// even when a division by zero precedes them in evaluation order.
///
/// # Panics
///
/// Division/remainder by zero.
pub fn eval_scalar(e: &Expr, bindings: &[(crate::expr::Var, i64)]) -> Result<i64> {
    let code = compile(e)?;
    if code.ty != Ty::I64 {
        return Err(Error::Type("eval_scalar needs an integer expression".into()));
    }
    // Stack code is straight-line (every op always executes), so
    // validating it first lets the evaluation below assume integer ops.
    for op in &code.ops {
        match op {
            Op::PushI(_) | Op::LoadVar(_) | Op::BinI(_) | Op::CmpI(_) | Op::UnI(_)
            | Op::SelI => {}
            Op::Load(_) => {
                return Err(Error::Structure("eval_scalar cannot load buffers".into()))
            }
            _ => {
                return Err(Error::Type(
                    "eval_scalar needs a pure integer expression".into(),
                ))
            }
        }
    }
    let mut istack: Vec<i64> = Vec::with_capacity(8);
    for op in &code.ops {
        match *op {
            Op::PushI(v) => istack.push(v),
            Op::LoadVar(v) => istack.push(
                bindings
                    .iter()
                    .find(|(var, _)| var.0 == v)
                    .map_or(0, |(_, val)| *val),
            ),
            Op::BinI(op) => {
                let b = istack.pop().unwrap();
                let a = istack.pop().unwrap();
                istack.push(apply_i(op, a, b));
            }
            Op::CmpI(op) => {
                let b = istack.pop().unwrap();
                let a = istack.pop().unwrap();
                istack.push(cmp_i(op, a, b));
            }
            Op::UnI(op) => {
                let a = istack.pop().unwrap();
                istack.push(apply_un_i(op, a));
            }
            Op::SelI => {
                let b = istack.pop().unwrap();
                let a = istack.pop().unwrap();
                let c = istack.pop().unwrap();
                istack.push(if c != 0 { a } else { b });
            }
            _ => unreachable!("validated above: integer ops only"),
        }
    }
    Ok(istack.pop().unwrap())
}

// ---------------------------------------------------------------------------
// Register-bytecode execution (the optimized fast path)
// ---------------------------------------------------------------------------

/// Execution context for the register bytecode: the variable frame, two
/// scalar register files, and the lane state vectorized loops run on.
struct BcCtx<'a> {
    bufs: &'a [SharedBuf],
    threads: usize,
    frame: Vec<i64>,
    ir: Vec<i64>,
    fr: Vec<f32>,
    lanes: Lanes,
    /// Bytecode profile, present only under `TIRAMISU_PROFILE` — the off
    /// path pays one `Option` check per statement block, never an
    /// allocation.
    prof: Option<Box<BcProf>>,
}

/// Every how many entries of a given loop statement one execution is
/// wall-timed. Sampling keeps the profiled path from drowning tight
/// inner loops in clock reads; totals are scaled back up at emission.
const PROF_SAMPLE_PERIOD: u64 = 16;

/// Per-loop profile: how often a `For` statement was entered, total trip
/// count, and a sampled wall-time estimate.
#[derive(Default)]
struct LoopProf {
    entries: u64,
    iters: u64,
    sampled: u64,
    sampled_ns: u64,
}

/// The bytecode profiler state carried by a profiling execution
/// (per-loop attribution plus instruction-class totals).
#[derive(Default)]
struct BcProf {
    loops: std::collections::HashMap<u32, LoopProf>,
    classes: InstClassCounts,
}

impl BcProf {
    fn merge(&mut self, o: &BcProf) {
        for (var, lp) in &o.loops {
            let dst = self.loops.entry(*var).or_default();
            dst.entries += lp.entries;
            dst.iters += lp.iters;
            dst.sampled += lp.sampled;
            dst.sampled_ns += lp.sampled_ns;
        }
        self.classes.merge(&o.classes);
    }

    /// Emits the profile as telemetry counters, labelling loops with
    /// their source variable names. `est_us` counters scale the sampled
    /// wall time back to the full entry count and are inclusive (an
    /// outer loop's estimate contains its inner loops').
    fn emit(&self, var_names: &[String]) {
        let mut loops: Vec<_> = self.loops.iter().collect();
        loops.sort_by_key(|(v, _)| **v);
        for (v, lp) in loops {
            let name = var_names
                .get(*v as usize)
                .cloned()
                .unwrap_or_else(|| format!("v{v}"));
            telemetry::counter("vm", format!("loop {name} iters"), lp.iters as f64);
            if lp.sampled > 0 {
                let est_us = (lp.sampled_ns as f64 / 1000.0)
                    * (lp.entries as f64 / lp.sampled as f64);
                telemetry::counter("vm", format!("loop {name} est_us"), est_us);
            }
        }
        for (class, n) in self.classes.iter() {
            if n > 0 {
                telemetry::counter("vm", format!("inst {class}"), n as f64);
            }
        }
    }
}

fn bc_run_insts(insts: &[Inst], ctx: &mut BcCtx<'_>) -> Result<()> {
    if let Some(p) = ctx.prof.as_deref_mut() {
        p.classes.count(insts);
    }
    for inst in insts {
        match *inst {
            Inst::ConstI { dst, v } => ctx.ir[dst as usize] = v,
            Inst::ConstF { dst, v } => ctx.fr[dst as usize] = v,
            Inst::ReadVar { dst, var } => ctx.ir[dst as usize] = ctx.frame[var as usize],
            Inst::Load { dst, buf, idx } => {
                let i = ctx.ir[idx as usize];
                ctx.fr[dst as usize] = ctx.bufs[buf as usize].get(i)?;
            }
            Inst::BinI { dst, op, a, b } => {
                ctx.ir[dst as usize] = apply_i(op, ctx.ir[a as usize], ctx.ir[b as usize]);
            }
            Inst::BinF { dst, op, a, b } => {
                ctx.fr[dst as usize] = apply_f(op, ctx.fr[a as usize], ctx.fr[b as usize]);
            }
            Inst::CmpI { dst, op, a, b } => {
                ctx.ir[dst as usize] = cmp_i(op, ctx.ir[a as usize], ctx.ir[b as usize]);
            }
            Inst::CmpF { dst, op, a, b } => {
                ctx.ir[dst as usize] = cmp_f(op, ctx.fr[a as usize], ctx.fr[b as usize]);
            }
            Inst::UnI { dst, op, a } => {
                ctx.ir[dst as usize] = apply_un_i(op, ctx.ir[a as usize]);
            }
            Inst::UnF { dst, op, a } => {
                ctx.fr[dst as usize] = apply_un_f(op, ctx.fr[a as usize]);
            }
            Inst::SelI { dst, c, a, b } => {
                ctx.ir[dst as usize] = if ctx.ir[c as usize] != 0 {
                    ctx.ir[a as usize]
                } else {
                    ctx.ir[b as usize]
                };
            }
            Inst::SelF { dst, c, a, b } => {
                ctx.fr[dst as usize] = if ctx.ir[c as usize] != 0 {
                    ctx.fr[a as usize]
                } else {
                    ctx.fr[b as usize]
                };
            }
            Inst::CastIF { dst, a } => ctx.fr[dst as usize] = ctx.ir[a as usize] as f32,
            Inst::CastFI { dst, a } => ctx.ir[dst as usize] = ctx.fr[a as usize] as i64,
        }
    }
    Ok(())
}

fn bc_exec_block(body: &[BcStmt], ctx: &mut BcCtx<'_>) -> Result<()> {
    for s in body {
        bc_exec_stmt(s, ctx)?;
    }
    Ok(())
}

fn bc_eval_bound(code: &BCode, ctx: &mut BcCtx<'_>) -> Result<i64> {
    bc_run_insts(&code.insts, ctx)?;
    Ok(ctx.ir[code.reg as usize])
}

fn bc_exec_stmt(s: &BcStmt, ctx: &mut BcCtx<'_>) -> Result<()> {
    match s {
        BcStmt::Let { code, var, reg } => {
            bc_run_insts(code, ctx)?;
            ctx.frame[*var as usize] = ctx.ir[*reg as usize];
            Ok(())
        }
        BcStmt::Store { code, buf, idx, val } => {
            bc_run_insts(code, ctx)?;
            let i = ctx.ir[*idx as usize];
            let v = ctx.fr[*val as usize];
            ctx.bufs[*buf as usize].set(i, v)
        }
        BcStmt::If { code, cond, then, else_ } => {
            bc_run_insts(code, ctx)?;
            if ctx.ir[*cond as usize] != 0 {
                bc_exec_block(then, ctx)
            } else {
                bc_exec_block(else_, ctx)
            }
        }
        BcStmt::For { var, lower, upper, kind, preamble, body } => {
            let lo = bc_eval_bound(lower, ctx)?;
            let hi = bc_eval_bound(upper, ctx)?;
            // Per-loop attribution: count every entry and trip, wall-time
            // one entry in PROF_SAMPLE_PERIOD.
            let sample_t0 = match ctx.prof.as_deref_mut() {
                Some(p) => {
                    let lp = p.loops.entry(*var).or_default();
                    lp.entries += 1;
                    lp.iters += (hi - lo).max(0) as u64;
                    (lp.entries % PROF_SAMPLE_PERIOD == 1).then(std::time::Instant::now)
                }
                None => None,
            };
            let r = match kind {
                LoopKind::Parallel if ctx.threads > 1 && hi - lo > 1 => {
                    bc_exec_parallel(*var, lo, hi, preamble, body, ctx)
                }
                LoopKind::Vectorize(_) if bc_body_vectorizable(body) => {
                    bc_exec_vector(s, lo, hi, ctx)
                }
                _ => {
                    for v in lo..hi {
                        ctx.frame[*var as usize] = v;
                        bc_run_insts(preamble, ctx)?;
                        bc_exec_block(body, ctx)?;
                    }
                    Ok(())
                }
            };
            if let (Some(t0), Some(p)) = (sample_t0, ctx.prof.as_deref_mut()) {
                let lp = p.loops.entry(*var).or_default();
                lp.sampled += 1;
                lp.sampled_ns += t0.elapsed().as_nanos() as u64;
            }
            r
        }
    }
}

fn bc_exec_parallel(
    var: u32,
    lo: i64,
    hi: i64,
    preamble: &[Inst],
    body: &[BcStmt],
    ctx: &mut BcCtx<'_>,
) -> Result<()> {
    let bufs = ctx.bufs;
    // Workers snapshot the scalar state (registers computed in outer
    // preambles / the prologue stay readable) and run their range with a
    // private context; buffers are the only shared state, as in the
    // tree-walk parallel path.
    let frame_proto = &ctx.frame;
    let ir_proto = &ctx.ir;
    let fr_proto = &ctx.fr;
    let profiled = ctx.prof.is_some();
    let results = crate::par::chunks(ctx.threads, lo, hi, |start, end| {
        let mut sub = BcCtx {
            bufs,
            // Nested parallel loops run serially inside a worker.
            threads: 1,
            frame: frame_proto.clone(),
            ir: ir_proto.clone(),
            fr: fr_proto.clone(),
            lanes: Lanes::new(ir_proto.len(), fr_proto.len(), frame_proto.len()),
            // Workers profile into a private state merged into the
            // parent after the join.
            prof: profiled.then(Box::<BcProf>::default),
        };
        let mut r = Ok(());
        for v in start..end {
            sub.frame[var as usize] = v;
            if let Err(e) = bc_run_insts(preamble, &mut sub)
                .and_then(|()| bc_exec_block(body, &mut sub))
            {
                r = Err(e);
                break;
            }
        }
        (r, sub.prof.take())
    });
    let mut first_err = None;
    for (r, p) in results {
        if let (Some(dst), Some(src)) = (ctx.prof.as_deref_mut(), p) {
            dst.merge(&src);
        }
        if first_err.is_none() {
            first_err = r.err();
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Mirror of [`body_vectorizable`] for the optimized format. Also the
/// JIT's criterion for lane-grouped `Vectorize` loops, so both tiers
/// vectorize exactly the same loops.
pub(crate) fn bc_body_vectorizable(body: &[BcStmt]) -> bool {
    body.iter().all(|s| matches!(s, BcStmt::Store { .. } | BcStmt::Let { .. }))
}

/// Runs a vectorizable `For` over `lo..hi`: full lane groups through
/// [`simt`], then the scalar remainder.
fn bc_exec_vector(s: &BcStmt, lo: i64, hi: i64, ctx: &mut BcCtx<'_>) -> Result<()> {
    let BcStmt::For { var, preamble, body, .. } = s else {
        unreachable!("called on vectorizable loops")
    };
    let mut v = lo;
    if v + (LANES as i64) <= hi {
        let reads = ctx.lanes.reads_of(s, preamble, body);
        while v + (LANES as i64) <= hi {
            bc_exec_chunk(*var, v, reads, preamble, body, ctx)?;
            v += LANES as i64;
        }
    }
    // Scalar remainder (writes the frame, like the tree-walk remainder).
    while v < hi {
        ctx.frame[*var as usize] = v;
        bc_run_insts(preamble, ctx)?;
        bc_exec_block(body, ctx)?;
        v += 1;
    }
    Ok(())
}

/// The active mask of a CPU chunk: every lane.
const FULL: [bool; LANES] = [true; LANES];

/// Runs one lane group — the iterations `base..base + LANES` — through
/// [`simt`] at full mask, after broadcasting what the chunk reads from
/// outside itself (`Lanes::reads[reads]`) and writing the loop variable's
/// lanes. Chunks write only lanes: like the tree-walk's overlay, lets
/// never reach the scalar frame, so they carry neither into the next
/// chunk nor into the scalar remainder.
fn bc_exec_chunk(
    var: u32,
    base: i64,
    reads: usize,
    preamble: &[Inst],
    body: &[BcStmt],
    ctx: &mut BcCtx<'_>,
) -> Result<()> {
    let BcCtx { bufs, frame, ir, fr, lanes, prof, .. } = ctx;
    let Lanes { ir: lane_ir, fr: lane_fr, vars, reads: all_reads } = lanes;
    let reads = &all_reads[reads];
    for &(file, r) in &reads.regs {
        let r = r as usize;
        match file {
            File::I => lane_ir[r] = [ir[r]; LANES],
            File::F => lane_fr[r] = [fr[r]; LANES],
        }
    }
    for &v in &reads.vars {
        vars[v as usize] = [frame[v as usize]; LANES];
    }
    vars[var as usize] = std::array::from_fn(|l| base + l as i64);
    let mut host = CpuHost { bufs };
    let mut w = simt::WarpCtx {
        ir: lane_ir,
        fr: lane_fr,
        vars,
        host: &mut host,
        classes: prof.as_deref_mut().map(|p| &mut p.classes),
    };
    simt::run_insts(preamble, &FULL, &mut w)?;
    simt::exec_block(body, &FULL, &mut w)
}

/// The lane state CPU chunks run on: lane register files, a lane
/// variable frame and each vectorized loop's [`ChunkReads`], allocated
/// once per run (once per parallel worker), never per chunk.
struct Lanes {
    ir: Vec<[i64; LANES]>,
    fr: Vec<[f32; LANES]>,
    vars: Vec<[i64; LANES]>,
    reads: Vec<ChunkReads>,
}

/// What one vectorized loop's chunks read from outside themselves: the
/// values every chunk starts by broadcasting from the scalar state.
struct ChunkReads {
    /// The loop statement (the key: one run executes one program).
    at: *const BcStmt,
    /// Registers a chunk reads before it defines them — values from
    /// outside the chunk, which never writes them.
    regs: Vec<(File, Reg)>,
    /// Frame slots a chunk reads. `let` targets are among them, so every
    /// chunk reads their pre-loop value: lets never carry between chunks.
    vars: Vec<u32>,
}

impl Lanes {
    fn new(n_iregs: usize, n_fregs: usize, n_vars: usize) -> Lanes {
        Lanes {
            ir: vec![[0; LANES]; n_iregs],
            fr: vec![[0.0; LANES]; n_fregs],
            vars: vec![[0; LANES]; n_vars],
            reads: Vec::new(),
        }
    }

    /// The index of loop `s`'s [`ChunkReads`], found by one walk of its
    /// chunk code in execution order the first time this run needs it.
    fn reads_of(&mut self, s: &BcStmt, preamble: &[Inst], body: &[BcStmt]) -> usize {
        if let Some(k) = self.reads.iter().position(|c| std::ptr::eq(c.at, s)) {
            return k;
        }
        let n_iregs = self.ir.len();
        let (mut regs, mut vars) = (Vec::new(), Vec::new());
        // Whether a register has appeared yet (`i` file, then `f` file):
        // one whose first appearance is a read comes from outside.
        let mut seen = vec![false; n_iregs + self.fr.len()];
        let mut appear = |(file, r): (File, Reg), read: bool| {
            let k = r as usize + if file == File::F { n_iregs } else { 0 };
            if !std::mem::replace(&mut seen[k], true) && read {
                regs.push((file, r));
            }
        };
        let stmts = body.iter().map(|s| match s {
            BcStmt::Store { code, idx, val, .. } => {
                (&code[..], [Some((File::I, *idx)), Some((File::F, *val))])
            }
            BcStmt::Let { code, reg, .. } => (&code[..], [Some((File::I, *reg)), None]),
            _ => unreachable!("checked by bc_body_vectorizable"),
        });
        for (code, stmt_reads) in std::iter::once((preamble, [None, None])).chain(stmts) {
            for inst in code {
                for src in inst.srcs().into_iter().flatten() {
                    appear(src, true);
                }
                appear(inst.dst(), false);
                if let Inst::ReadVar { var, .. } = *inst {
                    if !vars.contains(&var) {
                        vars.push(var);
                    }
                }
            }
            for src in stmt_reads.into_iter().flatten() {
                appear(src, true);
            }
        }
        self.reads.push(ChunkReads { at: s, regs, vars });
        self.reads.len() - 1
    }
}

/// The CPU's [`WarpHost`]: a chunk's loads and stores go lane by lane to
/// the machine's buffers, so the first failing lane reports the error and
/// the lanes before it stay stored, exactly as the scalar iterations
/// would; issue and divergence cost nothing.
struct CpuHost<'a> {
    bufs: &'a [SharedBuf],
}

impl WarpHost<LANES> for CpuHost<'_> {
    fn issue(&mut self) {}

    fn load(&mut self, buf: u32, idx: &[i64; LANES], mask: &[bool; LANES]) -> Result<[f32; LANES]> {
        let b = &self.bufs[buf as usize];
        let mut out = [0.0; LANES];
        for l in (0..LANES).filter(|&l| mask[l]) {
            out[l] = b.get(idx[l])?;
        }
        Ok(out)
    }

    fn store(
        &mut self,
        buf: u32,
        idx: &[i64; LANES],
        val: &[f32; LANES],
        mask: &[bool; LANES],
    ) -> Result<()> {
        let b = &self.bufs[buf as usize];
        for l in (0..LANES).filter(|&l| mask[l]) {
            b.set(idx[l], val[l])?;
        }
        Ok(())
    }

    fn divergence(&mut self) {}
}

/// Modeled cost of a vector memory operation: lane addresses go through
/// the cache; contiguous lanes amortize to one dispatch, gathers pay the
/// model's gather penalty.
fn vector_mem_cost(ctx: &mut ExecCtx<'_>, buf: u32, idx: &[i64; LANES]) -> f64 {
    let base = ctx.bases[buf as usize];
    let contiguous = idx.windows(2).all(|w| w[1] == w[0] + 1);
    let mut total = 0.0;
    for &i in idx {
        total += ctx.cache.access(base + (i as u64) * 4);
    }
    if contiguous {
        total / LANES as f64
    } else {
        total * ctx.cache.model().gather_penalty / LANES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::{Program, Stmt};

    fn saxpy_program(kind: LoopKind, n: usize) -> (Program, BufId, BufId) {
        let mut p = Program::new();
        let x = p.buffer("x", n);
        let y = p.buffer("y", n);
        let i = p.var("i");
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(n as i64),
            kind,
            vec![Stmt::store(
                y,
                Expr::var(i),
                Expr::f32(2.0) * Expr::load(x, Expr::var(i)) + Expr::load(y, Expr::var(i)),
            )],
        ));
        (p, x, y)
    }

    fn run_saxpy(kind: LoopKind) -> Vec<f32> {
        let n = 100;
        let (p, x, y) = saxpy_program(kind, n);
        let mut m = Machine::new(&p);
        for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
            *v = k as f32;
        }
        for v in m.buffer_mut(y).iter_mut() {
            *v = 1.0;
        }
        m.run(&p).unwrap();
        m.buffer(y).to_vec()
    }

    #[test]
    fn saxpy_serial_parallel_vector_agree() {
        let serial = run_saxpy(LoopKind::Serial);
        assert_eq!(serial[10], 21.0);
        assert_eq!(run_saxpy(LoopKind::Parallel), serial);
        assert_eq!(run_saxpy(LoopKind::Vectorize(8)), serial);
        assert_eq!(run_saxpy(LoopKind::Unroll(4)), serial);
    }

    #[test]
    fn run_tree_walk_records_its_histogram_like_run_in_tree_walk_mode() {
        let (p, _, _) = saxpy_program(LoopKind::Serial, 4);
        let mut m = Machine::new(&p);
        let h = &vm_metrics().run_tree_walk_us;
        // Other tests record concurrently: each call adds at least one.
        let before = h.snapshot().count;
        m.run_tree_walk(&p).unwrap();
        let direct = h.snapshot().count;
        assert!(direct > before, "run_tree_walk skipped vm.run.tree_walk_us");
        m.set_exec_mode(ExecMode::TreeWalk);
        m.run(&p).unwrap();
        assert!(h.snapshot().count > direct);
    }

    #[test]
    fn eval_scalar_validates_before_it_evaluates() {
        let mut p = Program::new();
        let b = p.buffer("b", 1);
        let boom = || Expr::i64(1) / Expr::i64(0);
        // A type or structure error after a `/0` in evaluation order is
        // reported instead of the panic (validation walks the whole
        // expression first) ...
        let float_cmp = boom() + Expr::lt(Expr::f32(1.0), Expr::f32(2.0));
        assert!(matches!(eval_scalar(&float_cmp, &[]), Err(Error::Type(_))));
        let load = boom() + Expr::to_i64(Expr::load(b, Expr::i64(0)));
        assert!(matches!(eval_scalar(&load, &[]), Err(Error::Structure(_))));
        // ... and a valid expression still panics on the division itself.
        let r = std::panic::catch_unwind(|| eval_scalar(&boom(), &[]));
        assert!(r.is_err(), "1/0 must panic");
        // Bound and unbound variables.
        let v = p.var("v");
        let w = p.var("w");
        let e = Expr::var(v) * Expr::i64(3) + Expr::var(w);
        assert_eq!(eval_scalar(&e, &[(v, 5)]), Ok(15));
    }

    #[test]
    fn stats_count_work() {
        let (p, _, _) = saxpy_program(LoopKind::Serial, 10);
        let mut m = Machine::new(&p);
        let stats = m.run_with_stats(&p).unwrap();
        assert_eq!(stats.stores, 10);
        assert_eq!(stats.loads, 20);
        assert_eq!(stats.flops, 20); // mul + add per element
        assert_eq!(stats.iterations, 10);
    }

    #[test]
    fn nested_loops_and_let() {
        // A[i*4 + j] = i + j via a let-bound row base.
        let mut p = Program::new();
        let a = p.buffer("A", 16);
        let i = p.var("i");
        let j = p.var("j");
        let base = p.var("base");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(4),
            vec![
                Stmt::let_(base, Expr::var(i) * Expr::i64(4)),
                Stmt::serial(
                    j,
                    Expr::i64(0),
                    Expr::i64(4),
                    vec![Stmt::store(
                        a,
                        Expr::var(base) + Expr::var(j),
                        Expr::to_f32(Expr::var(i) + Expr::var(j)),
                    )],
                ),
            ],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.buffer(a)[0], 0.0);
        assert_eq!(m.buffer(a)[5], 2.0); // i=1, j=1
        assert_eq!(m.buffer(a)[15], 6.0);
    }

    #[test]
    fn conditional_guard() {
        // Only even indices written.
        let mut p = Program::new();
        let a = p.buffer("A", 8);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(8),
            vec![Stmt::if_then(
                Expr::eq(Expr::var(i) % Expr::i64(2), Expr::i64(0)),
                vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
            )],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.buffer(a), &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut p = Program::new();
        let a = p.buffer("A", 4);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(8),
            vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
        ));
        let mut m = Machine::new(&p);
        let err = m.run(&p).unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { index: 4, size: 4, .. }));
    }

    #[test]
    fn vector_with_clamped_loads() {
        // y[i] = x[clamp(i-1, 0, 7)] — boundary clamping in vector mode.
        let mut p = Program::new();
        let x = p.buffer("x", 8);
        let y = p.buffer("y", 8);
        let i = p.var("i");
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(8),
            LoopKind::Vectorize(8),
            vec![Stmt::store(
                y,
                Expr::var(i),
                Expr::load(
                    x,
                    Expr::clamp(Expr::var(i) - Expr::i64(1), Expr::i64(0), Expr::i64(7)),
                ),
            )],
        ));
        let mut m = Machine::new(&p);
        for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
            *v = k as f32 * 10.0;
        }
        m.run(&p).unwrap();
        assert_eq!(m.buffer(y), &[0.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
    }

    #[test]
    fn reduction_in_serial_loop() {
        // acc[0] += x[i] — a reduction expressed as load+store.
        let mut p = Program::new();
        let x = p.buffer("x", 32);
        let acc = p.buffer("acc", 1);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(32),
            vec![Stmt::store(
                acc,
                Expr::i64(0),
                Expr::load(acc, Expr::i64(0)) + Expr::load(x, Expr::var(i)),
            )],
        ));
        let mut m = Machine::new(&p);
        for v in m.buffer_mut(x).iter_mut() {
            *v = 1.0;
        }
        m.run(&p).unwrap();
        assert_eq!(m.buffer(acc)[0], 32.0);
    }

    #[test]
    fn dynamic_bounds_from_outer_var() {
        // Triangular: for i in 0..4 { for j in 0..=i { A[i*4+j] = 1 } }
        let mut p = Program::new();
        let a = p.buffer("A", 16);
        let i = p.var("i");
        let j = p.var("j");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(4),
            vec![Stmt::serial(
                j,
                Expr::i64(0),
                Expr::var(i) + Expr::i64(1),
                vec![Stmt::store(a, Expr::var(i) * Expr::i64(4) + Expr::var(j), Expr::f32(1.0))],
            )],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        let total: f32 = m.buffer(a).iter().sum();
        assert_eq!(total, 10.0); // 1 + 2 + 3 + 4
    }

    #[test]
    fn set_threads_zero_clamps_to_one() {
        let (p, _, _) = saxpy_program(LoopKind::Parallel, 8);
        let mut m = Machine::new(&p);
        m.set_threads(0);
        assert_eq!(m.threads(), 1, "set_threads(0) must clamp to serial execution");
        // A clamped machine still runs parallel loops (serially).
        m.run(&p).unwrap();
        m.set_threads(5);
        assert_eq!(m.threads(), 5);
    }

    #[test]
    fn parallel_results_identical_across_thread_counts() {
        let run_with = |threads: usize, mode: ExecMode| {
            let n = 97; // prime, so no thread count divides the range evenly
            let (p, x, y) = saxpy_program(LoopKind::Parallel, n);
            let mut m = Machine::new(&p);
            m.set_threads(threads);
            m.set_exec_mode(mode);
            for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
                *v = (k as f32).sin();
            }
            for (k, v) in m.buffer_mut(y).iter_mut().enumerate() {
                *v = 0.25 * k as f32;
            }
            m.run(&p).unwrap();
            m.buffer(y).to_vec()
        };
        let reference = run_with(1, ExecMode::TreeWalk);
        for threads in [1, 2, 7] {
            for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
                assert_eq!(
                    run_with(threads, mode),
                    reference,
                    "{threads} threads / {mode:?} diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_respects_frame_values() {
        // Outer serial loop sets `base`; inner parallel loop uses it.
        let mut p = Program::new();
        let a = p.buffer("A", 8);
        let o = p.var("o");
        let i = p.var("i");
        p.push(Stmt::serial(
            o,
            Expr::i64(0),
            Expr::i64(2),
            vec![Stmt::for_(
                i,
                Expr::i64(0),
                Expr::i64(4),
                LoopKind::Parallel,
                vec![Stmt::store(
                    a,
                    Expr::var(o) * Expr::i64(4) + Expr::var(i),
                    Expr::to_f32(Expr::var(o) * Expr::i64(100) + Expr::var(i)),
                )],
            )],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.buffer(a), &[0.0, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 103.0]);
    }

    #[test]
    fn bound_variable_seeds_every_evaluator() {
        // A[i] = r * 100 + i for i in 0..r+2: `r` is never assigned, so it
        // reads whatever the machine binds (0 when unbound), in a loop
        // bound, in address math and across a parallel boundary.
        let mut p = Program::new();
        let a = p.buffer("A", 8);
        let r = p.var("r");
        let i = p.var("i");
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::var(r) + Expr::i64(2),
            LoopKind::Parallel,
            vec![Stmt::store(
                a,
                Expr::var(i),
                Expr::to_f32(Expr::var(r) * Expr::i64(100) + Expr::var(i)),
            )],
        ));
        type Evaluator<'a> = &'a dyn Fn(&mut Machine);
        let evaluators: [(&str, Evaluator<'_>); 4] = [
            ("tree-walk", &|m| m.run_tree_walk(&p).unwrap()),
            ("stats", &|m| assert!(m.run_with_stats(&p).is_ok())),
            ("bytecode", &|m| m.run_bytecode(p.compiled().unwrap().bytecode()).unwrap()),
            ("jit", &|m| {
                m.set_exec_mode(ExecMode::Jit);
                m.run(&p).unwrap();
            }),
        ];
        for (name, how) in evaluators {
            for (bound, want) in [
                (Some(3), [300.0f32, 301.0, 302.0, 303.0, 304.0, 0.0, 0.0, 0.0]),
                (None, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            ] {
                let mut m = Machine::new(&p);
                m.set_threads(2);
                if let Some(v) = bound {
                    m.bind(r, 7);
                    m.bind(r, v); // rebinding replaces
                }
                how(&mut m);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(m.buffer(a)), bits(&want), "{name}, r = {bound:?}");
            }
        }
    }
}
