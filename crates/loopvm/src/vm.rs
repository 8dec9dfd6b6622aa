//! The [`Machine`]: buffers, the variable frame, and the one interpreter
//! that runs register bytecode on them.
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
//!   hoisted instruction stream;
//! - **reference** ([`ExecMode::TreeWalk`], [`Machine::run_tree_walk`]):
//!   the same interpreter over the program's *plain lowering*
//!   ([`crate::opt::compile_plain`]: one instruction per expression node,
//!   nothing folded, shared or hoisted), built afresh for the run and
//!   never kept.
//!
//! [`Machine::run_with_stats`] also runs the plain lowering, with a cost
//! hook (`Meter`) on the interpreter: every modeled cycle count of
//! [`RunStats`] is charged there, per source operation.
//! [`Machine::run_counted`] runs the compiled bytecode under the same hook,
//! counting loop trips and instruction classes. An unmetered run is
//! generic over `()`, whose hook compiles away.
//!
//! The interpreter has three loop shapes: **serial**; **parallel**
//! ([`LoopKind::Parallel`]), the iteration range split statically
//! (`crate::par::chunks`) and run on the run's crew (`crate::par::Crew`):
//! a run on more than one thread opens one `std::thread::scope`, spawns
//! its workers at the first dispatch and reuses them for every later one;
//! the caller runs chunk 0, and the first failing chunk in chunk order
//! decides a failed dispatch, as in a serial run. Buffers are shared, and
//! legality (no cross-iteration dependences) is the *compiler's*
//! responsibility, exactly as with real parallel codegen (priced runs keep
//! these loops serial and credit the modeled core count instead); and
//! **vector** ([`LoopKind::Vectorize`]), the body evaluated over lanes of
//! [`LANES`] iterations at once, amortizing interpreter dispatch the way
//! SIMD amortizes instruction issue: each chunk goes to [`crate::simt`],
//! the lane executor GPU warps run on, at full mask. The scalar semantics
//! every tier must reproduce bit for bit are the `apply_*`/`cmp_*`
//! functions below.

use crate::bytecode::{BCode, BcProgram, BcStmt, File, Inst, InstClassCounts, Reg};
use crate::cost::{CacheSim, CostModel};
use crate::expr::{BinOp, Expr, Ty, UnOp};
use crate::par::{Crew, Estimate, Job};
use crate::program::{BufId, LoopKind, Program};
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
// Buffers (shared across worker threads)
// ---------------------------------------------------------------------------

/// One buffer, a cell per element: an access touches only its element,
/// never a reference to the whole buffer while other threads store.
pub(crate) struct SharedBuf {
    name: String,
    data: Box<[UnsafeCell<f32>]>,
}

// SAFETY: buffers are raced only inside `Parallel` loops; the compilers
// targeting this VM are responsible for parallelizing only dependence-free
// loops, exactly as with native codegen. Disjoint iterations touch disjoint
// elements; simultaneous writes to one element would be a compiler bug, the
// same class of bug that native OpenMP codegen would exhibit.
unsafe impl Sync for SharedBuf {}

impl SharedBuf {
    /// `size` zeroed elements.
    fn zeroed(name: &str, size: usize) -> SharedBuf {
        let data = Box::into_raw(vec![0.0f32; size].into_boxed_slice());
        // SAFETY: `UnsafeCell<f32>` is laid out as `f32`; the box is unique.
        let data = unsafe { Box::from_raw(data as *mut [UnsafeCell<f32>]) };
        SharedBuf { name: name.to_string(), data }
    }

    /// The cell of element `idx`, behind the one bounds check of every
    /// access (a negative `idx` wraps past the end).
    #[inline]
    fn cell(&self, idx: i64) -> Result<&UnsafeCell<f32>> {
        self.data.get(idx as usize).ok_or_else(|| Error::OutOfBounds {
            buffer: self.name.clone(),
            index: idx,
            size: self.data.len(),
        })
    }

    #[inline]
    fn get(&self, idx: i64) -> Result<f32> {
        // SAFETY: no other thread writes this element (the `Sync` note).
        Ok(unsafe { *self.cell(idx)?.get() })
    }

    #[inline]
    fn set(&self, idx: i64, v: f32) -> Result<()> {
        // SAFETY: no other thread touches this element (the `Sync` note).
        unsafe { *self.cell(idx)?.get() = v };
        Ok(())
    }
}

/// What the JIT's runtime reads of a buffer.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl SharedBuf {
    /// Buffer name, as reported in [`Error::OutOfBounds`].
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Element count.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Raw element pointer for the JIT's buffer descriptor table. Aliasing
    /// follows the same rules as `get`/`set` (see the `Sync` safety note).
    pub(crate) fn data_ptr(&self) -> *mut f32 {
        UnsafeCell::raw_get(self.data.as_ptr())
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
    /// The reference: the program's plain lowering
    /// ([`crate::opt::compile_plain`]) on the bytecode interpreter, so the
    /// optimizer's output is differentially tested against the source's
    /// own operations. Also selectable process-wide with the
    /// `LOOPVM_TREEWALK` environment variable.
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
/// compile outcomes (recorded by [`crate::Compiled::jit`]), `Parallel`
/// dispatches of two or more iterations on more than one thread, those
/// that reached a crew and the worker threads crews spawned (`vm.par.*`,
/// recorded by `crate::par`), and per-tier run latency histograms.
pub(crate) struct VmMetrics {
    bc_cache_hits: std::sync::Arc<telemetry::metrics::Counter>,
    bc_cache_misses: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_compiles: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_fallbacks: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_compile_us: std::sync::Arc<telemetry::metrics::Histogram>,
    pub(crate) par_dispatches: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) par_splits: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) par_spawns: std::sync::Arc<telemetry::metrics::Counter>,
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
        par_dispatches: telemetry::metrics::counter("vm.par.dispatches"),
        par_splits: telemetry::metrics::counter("vm.par.splits"),
        par_spawns: telemetry::metrics::counter("vm.par.spawns"),
        run_jit_us: telemetry::metrics::histogram("vm.run.jit_us"),
        run_bytecode_us: telemetry::metrics::histogram("vm.run.bytecode_us"),
        run_tree_walk_us: telemetry::metrics::histogram("vm.run.tree_walk_us"),
    })
}

impl Machine {
    /// Allocates zero-initialized storage for every buffer of `p`.
    pub fn new(p: &Program) -> Machine {
        let bufs: Vec<SharedBuf> = p
            .buffers
            .iter()
            .map(|(name, size)| SharedBuf::zeroed(name, *size))
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
    /// path ([`Machine::run_with_stats`]) always prices the plain lowering,
    /// whatever the mode.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The evaluator [`Machine::run`] currently uses.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Read access to a buffer's storage.
    pub fn buffer(&self, b: BufId) -> &[f32] {
        let cells: *const [UnsafeCell<f32>] = &*self.bufs[b.index()].data;
        // SAFETY: runs borrow the machine mutably, so none stores while
        // this borrow lives; the cells are laid out as `f32`s.
        unsafe { &*(cells as *const [f32]) }
    }

    /// Mutable access to a buffer's storage (e.g. to set inputs).
    pub fn buffer_mut(&mut self, b: BufId) -> &mut [f32] {
        let cells: *mut [UnsafeCell<f32>] = &mut *self.bufs[b.index()].data;
        // SAFETY: the borrow is exclusive; the cells are laid out as `f32`s.
        unsafe { &mut *(cells as *mut [f32]) }
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
        // Native code whose bounds proofs assumed other buffer lengths
        // never runs here.
        let jit = if self.mode == ExecMode::Jit {
            code.jit().filter(|j| j.fits(&self.bufs))
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
    /// Out-of-bounds accesses at runtime, identical to the interpreter's;
    /// [`crate::Error::Structure`], before anything runs, when this
    /// machine's buffer lengths are not the ones the code was compiled for.
    pub fn run_jit(&mut self, j: &crate::jit::JitProgram) -> Result<()> {
        let _sp = telemetry::span("vm", "run_jit");
        let t0 = std::time::Instant::now();
        let r = j.run(&self.bufs, self.threads, &self.bindings);
        vm_metrics().run_jit_us.record_duration(t0.elapsed());
        r
    }

    /// Runs the program's plain lowering ([`crate::opt::compile_plain`])
    /// on the interpreter regardless of the configured mode: the
    /// differential reference. The lowering is built for this run and
    /// dropped after it. On more than one thread, a program with
    /// `Parallel` loops builds its [`Program::compiled`] form, if it has
    /// not, for those loops' work estimates.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_tree_walk(&mut self, p: &Program) -> Result<()> {
        let t0 = std::time::Instant::now();
        let r = crate::opt::compile_plain(p).and_then(|mut bc| {
            // The plain lowering has no facts of its own. It numbers its
            // `Parallel` loops as the program's compiled form does, so its
            // dispatches decide on that form's estimates.
            if self.threads > 1 && !crate::par::par_loops(&bc.body).is_empty() {
                if let Ok(code) = p.compiled() {
                    bc.estimates = Box::<[Estimate]>::from(code.bytecode().estimates()).into();
                }
            }
            self.run_unpriced(&bc)
        });
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
    /// On more than one thread, its `Parallel` loops' work estimates are
    /// derived on the first such run, unless the JIT recorded them, and
    /// kept with `bc`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime.
    pub fn run_bytecode(&mut self, bc: &BcProgram) -> Result<()> {
        let _sp = telemetry::span("vm", "run_bytecode");
        let t0 = std::time::Instant::now();
        let r = self.run_unpriced(bc);
        vm_metrics().run_bytecode_us.record_duration(t0.elapsed());
        r
    }

    /// Runs the program's plain lowering under the default [`CostModel`],
    /// gathering [`RunStats`] (slower; for tests, cost models and the
    /// benchmark harness's operation counts). Parallel loops run serially
    /// here: the model credits their modeled cores instead.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_with_stats(&mut self, p: &Program) -> Result<RunStats> {
        let bc = crate::opt::compile_plain(p)?;
        let mut ctx = self.bc_ctx(&bc, Pricing::new(&self.bases), 1, None);
        bc_run(&bc, &mut ctx)?;
        Ok(ctx.meter.finish())
    }

    /// Runs the program's compiled bytecode ([`Program::compiled`]) on one
    /// thread under a counting meter, whatever the mode: `Parallel` loops
    /// run serially, and `Vectorize` loops in lane groups as on the
    /// interpreter. Returns every loop the run entered, by source variable
    /// name in variable order, with its trip total over all its entries,
    /// and the instruction classes the interpreter dispatched (see
    /// [`InstClassCounts`]). The counts are sums over iterations, so a
    /// multi-threaded run of the same bytecode dispatches the same totals.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_counted(&mut self, p: &Program) -> Result<(Vec<(String, u64)>, InstClassCounts)> {
        let bc = p.compiled()?.bytecode();
        let mut ctx = self.bc_ctx(bc, Counts::new(bc.n_vars), 1, None);
        bc_run(bc, &mut ctx)?;
        let Counts { trips, classes } = ctx.meter;
        let name = |v: usize| bc.var_names.get(v).cloned().unwrap_or_else(|| format!("v{v}"));
        let loops = trips.into_iter().enumerate();
        let loops = loops.filter_map(|(v, t)| Some((name(v), t?))).collect();
        Ok((loops, classes))
    }

    /// Runs `bc` unpriced; on more than one thread, when some dispatch can
    /// pay for a crew ([`crate::par::may_split`]), inside one
    /// `std::thread::scope` whose crew every `Parallel` loop of the run
    /// whose work pays for it dispatches to.
    fn run_unpriced(&self, bc: &BcProgram) -> Result<()> {
        if self.threads > 1 && crate::par::may_split(bc.estimates()) {
            std::thread::scope(|s| {
                let crew = Some(Crew::new(s, self.threads));
                bc_run(bc, &mut self.bc_ctx(bc, (), self.threads, crew))
            })
        } else {
            bc_run(bc, &mut self.bc_ctx(bc, (), self.threads, None))
        }
    }

    /// A fresh interpreter context for `bc` on this machine's buffers,
    /// dispatching the `Parallel` loops whose work pays for it on
    /// `threads` to `crew` (serial without one). Only a context on more
    /// than one thread reads `bc`'s estimates.
    fn bc_ctx<'a, M: Meter>(
        &'a self,
        bc: &'a BcProgram,
        meter: M,
        threads: usize,
        crew: Option<Crew<'a, Result<()>>>,
    ) -> BcCtx<'a, M> {
        BcCtx {
            bufs: &self.bufs,
            threads,
            crew,
            estimates: if threads > 1 { bc.estimates() } else { &[] },
            frame: self.frame(bc.n_vars),
            ir: vec![0i64; bc.n_iregs as usize],
            fr: vec![0f32; bc.n_fregs as usize],
            lanes: Lanes::new(bc.n_iregs as usize, bc.n_fregs as usize, bc.n_vars),
            meter,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn default_exec_mode() -> ExecMode {
    ExecMode::from_env("LOOPVM_TREEWALK", true)
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
/// Division/remainder by zero or of `i64::MIN` by `-1`, and (in builds
/// with overflow checks) `Neg`/`Abs` of `i64::MIN`, as the interpreter
/// does; [`try_eval_scalar`] answers `None` there instead.
pub fn eval_scalar(e: &Expr, bindings: &[(crate::expr::Var, i64)]) -> Result<i64> {
    pure_scalar(e)?;
    Ok(eval_int(e, bindings, false).expect("an unchecked evaluation panics instead"))
}

/// [`eval_scalar`] for static checks, which must not panic: the same
/// value where it returns one, and `None` where it errs or would panic.
pub fn try_eval_scalar(e: &Expr, bindings: &[(crate::expr::Var, i64)]) -> Option<i64> {
    pure_scalar(e).ok()?;
    eval_int(e, bindings, true)
}

/// [`eval_scalar`]'s validation: an `i64` expression of integer
/// operations only.
fn pure_scalar(e: &Expr) -> Result<()> {
    if e.ty()? != Ty::I64 {
        return Err(Error::Type("eval_scalar needs an integer expression".into()));
    }
    pure_int(e)
}

/// Checks, in evaluation order, that a well-typed `i64` expression uses
/// integer operations only: the first float constant, load or
/// type-changing cast is the error. Every float operator of a well-typed
/// tree has one of those below it, so they are all this needs to see.
fn pure_int(e: &Expr) -> Result<()> {
    let float = || Err(Error::Type("eval_scalar needs a pure integer expression".into()));
    match e {
        Expr::ConstI(_) | Expr::Var(_) => Ok(()),
        Expr::ConstF(_) => float(),
        Expr::Load(_, idx) => {
            pure_int(idx)?;
            Err(Error::Structure("eval_scalar cannot load buffers".into()))
        }
        Expr::Bin(_, a, b) => pure_int(a).and_then(|()| pure_int(b)),
        Expr::Un(_, a) => pure_int(a),
        Expr::Select(c, a, b) => pure_int(c).and_then(|()| pure_int(a)).and_then(|()| pure_int(b)),
        // A pure operand is `i64`: only the cast to `f32` changes type.
        Expr::Cast(t, a) => pure_int(a).and_then(|()| if *t == Ty::I64 { Ok(()) } else { float() }),
    }
}

/// Evaluates an expression [`pure_int`] accepted, operands left to right
/// (both arms of a select included), with the interpreter's semantics.
/// An operation the interpreter traps on answers `None` when `checked`,
/// and otherwise panics with the interpreter's own message.
fn eval_int(e: &Expr, bindings: &[(crate::expr::Var, i64)], checked: bool) -> Option<i64> {
    let ev = |x: &Expr| eval_int(x, bindings, checked);
    Some(match e {
        Expr::ConstI(v) => *v,
        Expr::Var(v) => bindings.iter().find(|(var, _)| var == v).map_or(0, |(_, val)| *val),
        Expr::Bin(op @ (BinOp::Lt | BinOp::Le | BinOp::EqCmp), a, b) => cmp_i(*op, ev(a)?, ev(b)?),
        Expr::Bin(op, a, b) => {
            let (a, b) = (ev(a)?, ev(b)?);
            if checked && matches!(op, BinOp::Div | BinOp::Rem) {
                a.checked_rem_euclid(b)?;
            }
            apply_i(*op, a, b)
        }
        Expr::Un(op, a) => {
            let a = ev(a)?;
            let overflows = cfg!(debug_assertions) && a == i64::MIN;
            if checked && overflows && matches!(op, UnOp::Neg | UnOp::Abs) {
                return None;
            }
            apply_un_i(*op, a)
        }
        Expr::Select(c, a, b) => {
            let (c, a, b) = (ev(c)?, ev(a)?, ev(b)?);
            if c != 0 {
                a
            } else {
                b
            }
        }
        Expr::Cast(_, a) => ev(a)?,
        Expr::ConstF(_) | Expr::Load(..) => unreachable!("rejected by pure_int"),
    })
}

// ---------------------------------------------------------------------------
// The cost hook
// ---------------------------------------------------------------------------

/// The interpreter's cost hook: a run is generic over its meter, and every
/// site that can cost or count something asks it for the [`Pricing`] to
/// charge or the [`Counts`] to tally. A meter answers `None` to the other
/// at compile time, and `()` to both, so an unmetered run compiles to the
/// interpreter without the hook.
trait Meter {
    #[inline(always)]
    fn pricing(&mut self) -> Option<&mut Pricing> {
        None
    }

    #[inline(always)]
    fn counts(&mut self) -> Option<&mut Counts> {
        None
    }
}

impl Meter for () {}

impl Meter for Pricing {
    #[inline(always)]
    fn pricing(&mut self) -> Option<&mut Pricing> {
        Some(self)
    }
}

impl Meter for Counts {
    #[inline(always)]
    fn counts(&mut self) -> Option<&mut Counts> {
        Some(self)
    }
}

/// The counting meter of [`Machine::run_counted`]: each loop's trip total
/// and the instruction classes dispatched, one count per instruction in
/// scalar code and one per lane group in vector chunks.
struct Counts {
    /// Trip totals by loop variable; `None` for a loop never entered.
    trips: Vec<Option<u64>>,
    classes: InstClassCounts,
}

impl Counts {
    fn new(n_vars: usize) -> Counts {
        Counts { trips: vec![None; n_vars], classes: InstClassCounts::default() }
    }

    /// An entry of loop `var` over `lo..hi`. The difference is taken in
    /// `i128`: over the whole `i64` line it overflows `i64`.
    fn enter(&mut self, var: u32, lo: i64, hi: i64) {
        let n = u64::try_from(i128::from(hi) - i128::from(lo)).unwrap_or(0);
        let t = self.trips[var as usize].get_or_insert(0);
        *t = t.saturating_add(n);
    }
}

/// The cost model's state in a priced run: what [`RunStats`] reports, the
/// cache simulator, each buffer's modeled base address, and how many
/// `Parallel` loops enclose the current point.
///
/// Charges, in execution order: a load or store one cache access (after it
/// succeeded, so the address is never negative) and a `loads`/`stores`
/// count; a binary op one ALU dispatch, plus a flop when it is a float op;
/// every loop iteration one `iterations`. A lane group pays per dispatch:
/// one ALU dispatch per binary op (and a flop per lane), and
/// [`Pricing::lanes_access`] per memory op.
struct Pricing {
    stats: RunStats,
    cache: CacheSim,
    bases: Vec<u64>,
    parallel_depth: u32,
}

impl Pricing {
    fn new(bases: &[u64]) -> Pricing {
        Pricing {
            stats: RunStats::default(),
            cache: CacheSim::new(CostModel::default()),
            bases: bases.to_vec(),
            parallel_depth: 0,
        }
    }

    /// Cache cost of an access to `buf[idx]`, `idx` in bounds.
    fn access(&mut self, buf: u32, idx: i64) -> f64 {
        self.cache.access(self.bases[buf as usize] + (idx as u64) * 4)
    }

    fn load(&mut self, buf: u32, idx: i64) {
        self.stats.loads += 1;
        self.stats.cycles += self.access(buf, idx);
    }

    fn store(&mut self, buf: u32, idx: i64) {
        self.stats.stores += 1;
        self.stats.cycles += self.access(buf, idx);
    }

    /// A binary op over `lanes` lanes.
    fn bin(&mut self, float: bool, lanes: u64) {
        if float {
            self.stats.flops += lanes;
        }
        self.stats.cycles += self.cache.model().alu;
    }

    /// Modeled cost of a lane group's memory op: every lane's address goes
    /// through the cache; contiguous lanes amortize to one dispatch,
    /// gathers pay the model's gather penalty.
    fn lanes_access(&mut self, buf: u32, idx: &[i64; LANES]) -> f64 {
        let contiguous = idx.windows(2).all(|w| w[1] == w[0] + 1);
        let mut total = 0.0;
        for &i in idx {
            total += self.access(buf, i);
        }
        if contiguous {
            total / LANES as f64
        } else {
            total * self.cache.model().gather_penalty / LANES as f64
        }
    }

    /// Enters a `Parallel` loop, returning the cycles before it.
    fn enter_parallel(&mut self) -> f64 {
        self.parallel_depth += 1;
        self.stats.cycles
    }

    /// Leaves a `Parallel` loop of `trips` iterations entered at
    /// `before` cycles: the outermost one divides its region's cycles by
    /// `min(cores, trips)`.
    fn leave_parallel(&mut self, before: f64, trips: i64) {
        self.parallel_depth -= 1;
        if self.parallel_depth == 0 {
            let d = (self.cache.model().cores as i64).min(trips.max(1)) as f64;
            let region = self.stats.cycles - before;
            self.stats.cycles = before + region / d;
        }
    }

    fn finish(self) -> RunStats {
        RunStats { l1_misses: self.cache.l1_misses, l2_misses: self.cache.l2_misses, ..self.stats }
    }
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

/// Execution context for the register bytecode: the variable frame, two
/// scalar register files, the lane state vectorized loops run on, the
/// run's crew and the run's meter.
struct BcCtx<'a, M> {
    bufs: &'a [SharedBuf],
    /// The threads a `Parallel` dispatch here may split over: the run's
    /// at its top level, 1 in priced runs and inside a chunk, where
    /// `Parallel` loops run serially.
    threads: usize,
    /// The crew `Parallel` loops dispatch to; `None` where `threads` is 1,
    /// and in a run no dispatch of which can pay for a crew.
    crew: Option<Crew<'a, Result<()>>>,
    /// The program's `Parallel` loop estimates, by `par` index, that a
    /// dispatch decides on; none where `threads` is 1.
    estimates: &'a [Estimate],
    frame: Vec<i64>,
    ir: Vec<i64>,
    fr: Vec<f32>,
    lanes: Lanes,
    meter: M,
}

/// Runs a whole program: its prologue, then its body.
fn bc_run<'a, M: Meter>(bc: &'a BcProgram, ctx: &mut BcCtx<'a, M>) -> Result<()> {
    bc_run_insts(&bc.prologue, ctx).and_then(|()| bc_exec_block(&bc.body, ctx))
}

fn bc_run_insts<M: Meter>(insts: &[Inst], ctx: &mut BcCtx<'_, M>) -> Result<()> {
    if let Some(c) = ctx.meter.counts() {
        c.classes.count(insts);
    }
    for inst in insts {
        match *inst {
            Inst::ConstI { dst, v } => ctx.ir[dst as usize] = v,
            Inst::ConstF { dst, v } => ctx.fr[dst as usize] = v,
            Inst::ReadVar { dst, var } => ctx.ir[dst as usize] = ctx.frame[var as usize],
            Inst::Load { dst, buf, idx } => {
                let i = ctx.ir[idx as usize];
                ctx.fr[dst as usize] = ctx.bufs[buf as usize].get(i)?;
                if let Some(c) = ctx.meter.pricing() {
                    c.load(buf, i);
                }
            }
            Inst::BinI { dst, op, a, b } => {
                if let Some(c) = ctx.meter.pricing() {
                    c.bin(false, 1);
                }
                ctx.ir[dst as usize] = apply_i(op, ctx.ir[a as usize], ctx.ir[b as usize]);
            }
            Inst::BinF { dst, op, a, b } => {
                if let Some(c) = ctx.meter.pricing() {
                    c.bin(true, 1);
                }
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

fn bc_exec_block<'a, M: Meter>(body: &'a [BcStmt], ctx: &mut BcCtx<'a, M>) -> Result<()> {
    for s in body {
        bc_exec_stmt(s, ctx)?;
    }
    Ok(())
}

fn bc_eval_bound<M: Meter>(code: &BCode, ctx: &mut BcCtx<'_, M>) -> Result<i64> {
    bc_run_insts(&code.insts, ctx)?;
    Ok(ctx.ir[code.reg as usize])
}

fn bc_exec_stmt<'a, M: Meter>(s: &'a BcStmt, ctx: &mut BcCtx<'a, M>) -> Result<()> {
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
            ctx.bufs[*buf as usize].set(i, v)?;
            if let Some(c) = ctx.meter.pricing() {
                c.store(*buf, i);
            }
            Ok(())
        }
        BcStmt::If { code, cond, then, else_ } => {
            bc_run_insts(code, ctx)?;
            if ctx.ir[*cond as usize] != 0 {
                bc_exec_block(then, ctx)
            } else {
                bc_exec_block(else_, ctx)
            }
        }
        BcStmt::For { var, lower, upper, kind, par, preamble, body } => {
            let lo = bc_eval_bound(lower, ctx)?;
            let hi = bc_eval_bound(upper, ctx)?;
            if let Some(c) = ctx.meter.counts() {
                c.enter(*var, lo, hi);
            }
            let per_iter = || ctx.estimates.get(*par as usize).map_or(u64::MAX, |e| e.per_iter);
            let split = *kind == LoopKind::Parallel
                && crate::par::takes(ctx.threads, lo, hi, per_iter())
                && ctx.crew.is_some();
            match kind {
                _ if split => bc_exec_parallel(*var, lo, hi, preamble, body, ctx),
                LoopKind::Vectorize(_) if bc_body_vectorizable(body) => {
                    bc_exec_vector(s, lo, hi, ctx)
                }
                _ => {
                    let parallel = match ctx.meter.pricing() {
                        Some(c) if *kind == LoopKind::Parallel => Some(c.enter_parallel()),
                        _ => None,
                    };
                    for v in lo..hi {
                        ctx.frame[*var as usize] = v;
                        if let Some(c) = ctx.meter.pricing() {
                            c.stats.iterations += 1;
                        }
                        bc_run_insts(preamble, ctx)?;
                        bc_exec_block(body, ctx)?;
                    }
                    if let (Some(before), Some(c)) = (parallel, ctx.meter.pricing()) {
                        c.leave_parallel(before, hi - lo);
                    }
                    Ok(())
                }
            }
        }
    }
}

/// Runs a `Parallel` loop on the run's crew. Metered runs never get here
/// (they have no crew), so chunks charge and count nothing.
fn bc_exec_parallel<'a, M: Meter>(
    var: u32,
    lo: i64,
    hi: i64,
    preamble: &'a [Inst],
    body: &'a [BcStmt],
    ctx: &mut BcCtx<'a, M>,
) -> Result<()> {
    let BcCtx { bufs, crew, frame, ir, fr, .. } = ctx;
    let bufs = *bufs;
    let crew = crew.as_mut().expect("parallel dispatch without a crew");
    // Each chunk runs on a private context whose scalar state (registers
    // computed in outer preambles / the prologue stay readable) is a
    // snapshot taken here, on the caller; buffers are the only shared
    // state.
    let outcomes = crew.dispatch(lo, hi, |start, end| -> Job<'a, Result<()>> {
        let (frame, ir, fr) = (frame.clone(), ir.clone(), fr.clone());
        Box::new(move || {
            let mut sub = BcCtx {
                bufs,
                // Nested parallel loops run serially inside a chunk.
                threads: 1,
                crew: None,
                estimates: &[],
                lanes: Lanes::new(ir.len(), fr.len(), frame.len()),
                frame,
                ir,
                fr,
                meter: (),
            };
            for v in start..end {
                sub.frame[var as usize] = v;
                bc_run_insts(preamble, &mut sub)?;
                bc_exec_block(body, &mut sub)?;
            }
            Ok(())
        })
    });
    crate::par::settle(outcomes).map(drop)
}

/// A body is lane-executable when it contains only stores and lets (the
/// shape produced by vectorizing an innermost loop). Also the JIT's
/// criterion for lane-grouped `Vectorize` loops, so both tiers vectorize
/// exactly the same loops.
pub(crate) fn bc_body_vectorizable(body: &[BcStmt]) -> bool {
    body.iter().all(|s| matches!(s, BcStmt::Store { .. } | BcStmt::Let { .. }))
}

/// Runs a vectorizable `For` over `lo..hi`: full lane groups through
/// [`simt`], then the scalar remainder.
fn bc_exec_vector<'a, M: Meter>(
    s: &'a BcStmt,
    lo: i64,
    hi: i64,
    ctx: &mut BcCtx<'a, M>,
) -> Result<()> {
    let BcStmt::For { var, preamble, body, .. } = s else {
        unreachable!("called on vectorizable loops")
    };
    // `v + LANES <= hi` without wrapping: near `i64::MAX` the sum would
    // wrap below `hi` and run a chunk past the end of the loop.
    let full = |v: i64| v.checked_add(LANES as i64).is_some_and(|end| end <= hi);
    let mut v = lo;
    if full(v) {
        let reads = ctx.lanes.reads_of(s, preamble, body);
        while full(v) {
            if let Some(c) = ctx.meter.pricing() {
                c.stats.iterations += LANES as u64;
            }
            bc_exec_chunk(*var, v, reads, preamble, body, ctx)?;
            v += LANES as i64;
        }
    }
    // Scalar remainder (writes the frame, unlike the chunks).
    while v < hi {
        ctx.frame[*var as usize] = v;
        if let Some(c) = ctx.meter.pricing() {
            c.stats.iterations += 1;
        }
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
/// lanes. Chunks write only lanes: lets never reach the scalar frame, so
/// they carry neither into the next chunk nor into the scalar remainder.
fn bc_exec_chunk<M: Meter>(
    var: u32,
    base: i64,
    reads: usize,
    preamble: &[Inst],
    body: &[BcStmt],
    ctx: &mut BcCtx<'_, M>,
) -> Result<()> {
    let BcCtx { bufs, frame, ir, fr, lanes, meter, .. } = ctx;
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
    // A counting run lends its class tally to the lane executor, which
    // counts one dispatch per lane group.
    let mut classes = meter.counts().map(|c| c.classes);
    let mut host = CpuHost { bufs, meter };
    let mut w = simt::WarpCtx {
        ir: lane_ir,
        fr: lane_fr,
        vars,
        host: &mut host,
        classes: classes.as_mut(),
    };
    let r = simt::run_insts(preamble, &FULL, &mut w)
        .and_then(|()| simt::exec_block(body, &FULL, &mut w));
    if let (Some(k), Some(c)) = (classes, host.meter.counts()) {
        c.classes = k;
    }
    r
}

/// The lane state CPU chunks run on: lane register files, a lane
/// variable frame and each vectorized loop's [`ChunkReads`], allocated
/// once per run (once per `Parallel` chunk), never per lane group.
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
/// would. Issue and divergence cost nothing; binary ops and (successful)
/// memory ops are charged to the run's meter per lane group.
struct CpuHost<'a, M> {
    bufs: &'a [SharedBuf],
    meter: &'a mut M,
}

impl<M: Meter> WarpHost<LANES> for CpuHost<'_, M> {
    fn issue(&mut self) {}

    fn binop(&mut self, float: bool) {
        if let Some(c) = self.meter.pricing() {
            c.bin(float, LANES as u64);
        }
    }

    fn load(&mut self, buf: u32, idx: &[i64; LANES], mask: &[bool; LANES]) -> Result<[f32; LANES]> {
        let b = &self.bufs[buf as usize];
        let mut out = [0.0; LANES];
        for l in (0..LANES).filter(|&l| mask[l]) {
            out[l] = b.get(idx[l])?;
        }
        if let Some(c) = self.meter.pricing() {
            c.stats.loads += LANES as u64;
            c.stats.cycles += c.lanes_access(buf, idx);
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
        if let Some(c) = self.meter.pricing() {
            c.stats.stores += LANES as u64;
            c.stats.cycles += c.lanes_access(buf, idx);
        }
        Ok(())
    }

    fn divergence(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Var};
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

    /// A bare `BcProgram` derives its `Parallel` work estimates on its
    /// first run on more than one thread, never on one thread, and keeps
    /// them; a clone keeps them too, since they index loops by number.
    #[test]
    fn bare_bytecode_derives_its_work_estimates_once() {
        let (p, _, _) = saxpy_program(LoopKind::Parallel, 64);
        let bc = crate::opt::compile_program(&p).unwrap();
        let mut m = Machine::new(&p);
        m.set_threads(1);
        m.run_bytecode(&bc).unwrap();
        assert!(bc.estimates.get().is_none(), "a one-thread run derived estimates");
        m.set_threads(2);
        m.run_bytecode(&bc).unwrap();
        let first: *const [Estimate] = &**bc.estimates.get().expect("estimates after a run");
        m.run_bytecode(&bc).unwrap();
        assert!(std::ptr::eq(first, bc.estimates()), "the second run derived them again");
        let copy = bc.clone();
        assert_eq!(copy.estimates.get().map(|e| &**e), Some(bc.estimates()), "a clone lost them");
    }

    #[test]
    fn reference_and_priced_runs_keep_their_code_to_themselves() {
        let (p, _, _) = saxpy_program(LoopKind::Vectorize(8), 20);
        let mut m = Machine::new(&p);
        m.run_tree_walk(&p).unwrap();
        let stats = m.run_with_stats(&p).unwrap();
        assert_eq!((stats.iterations, stats.loads, stats.flops), (20, 40, 40));
        // Neither run stored its plain lowering as the program's code.
        assert!(p.compiled_or_build().1, "the program already held compiled code");
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

    /// `try_eval_scalar`'s answer to `e`, and `eval_scalar`'s: its value,
    /// or `None` where it errs or panics.
    fn both_answers(e: &Expr, bindings: &[(Var, i64)]) -> (Option<i64>, Option<i64>) {
        let unchecked = std::panic::catch_unwind(|| eval_scalar(e, bindings));
        (try_eval_scalar(e, bindings), unchecked.ok().and_then(|r| r.ok()))
    }

    #[test]
    fn try_eval_scalar_answers_none_where_eval_scalar_traps() {
        let mut p = Program::new();
        let b = p.buffer("b", 1);
        let v = p.var("v");
        let div = |a: i64, d: i64| Expr::i64(a) / Expr::i64(d);
        let boom = || div(1, 0);
        let traps = [
            ("/0", boom()),
            ("%0", Expr::i64(1) % Expr::i64(0)),
            ("MIN / -1", div(i64::MIN, -1)),
            ("MIN % -1", Expr::i64(i64::MIN) % Expr::i64(-1)),
            ("in the taken arm", Expr::select(Expr::i64(1), boom(), Expr::i64(2))),
            ("in the untaken arm", Expr::select(Expr::i64(1), Expr::i64(2), boom())),
            ("bound variable", Expr::i64(1) / Expr::var(v)),
            ("before a load", boom() + Expr::to_i64(Expr::load(b, Expr::i64(0)))),
        ];
        for (name, e) in &traps {
            assert_eq!(both_answers(e, &[(v, 0)]), (None, None), "{name}");
        }
        assert_eq!(both_answers(&div(i64::MIN, 2), &[]), (Some(i64::MIN / 2), Some(i64::MIN / 2)));
        assert_eq!(both_answers(&(Expr::i64(-7) % Expr::var(v)), &[(v, 2)]), (Some(1), Some(1)));
    }

    /// Integer expressions over a bound and an unbound variable, whose
    /// leaves are often the values that trap (`0`, `-1`, `i64::MIN`), with
    /// every integer operator and both-arm selects; a quarter of them are
    /// wrapped in a float constant, a load or a float operator, which
    /// `eval_scalar` rejects.
    fn scalar_expr(v: Var, w: Var, b: BufId) -> impl Strategy<Value = Expr> {
        const BIN: [BinOp; 12] = [
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem, BinOp::Min,
            BinOp::Max, BinOp::Lt, BinOp::Le, BinOp::EqCmp, BinOp::And, BinOp::Or,
        ];
        const UN: [UnOp; 3] = [UnOp::Neg, UnOp::Abs, UnOp::Not];
        let leaf = prop_oneof![
            (0..TRAPPY.len()).prop_map(|k| Expr::i64(TRAPPY[k])),
            any::<i8>().prop_map(|k| Expr::i64(k.into())),
            Just(Expr::var(v)),
            Just(Expr::var(w)),
        ];
        let int = leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (0..BIN.len(), inner.clone(), inner.clone())
                    .prop_map(|(k, a, b)| Expr::Bin(BIN[k], Box::new(a), Box::new(b))),
                (0..UN.len(), inner.clone()).prop_map(|(k, a)| Expr::Un(UN[k], Box::new(a))),
                (inner.clone(), inner.clone(), inner.clone())
                    .prop_map(|(c, x, y)| Expr::select(c, x, y)),
                inner.prop_map(Expr::to_i64),
            ]
        });
        let rejected = prop_oneof![
            (int.clone(), int.clone()).prop_map(move |(a, i)| a + Expr::to_i64(Expr::load(b, i))),
            int.clone().prop_map(|a| a + Expr::to_i64(Expr::f32(0.5))),
            int.clone().prop_map(|a| Expr::to_i64(Expr::sqrt(Expr::to_f32(a)))),
        ];
        prop_oneof![int.clone(), int.clone(), int, rejected]
    }

    /// The leaf and binding values the interpreter traps on, or next to.
    const TRAPPY: [i64; 6] = [0, 1, -1, 2, i64::MIN, i64::MAX];

    /// The variables and buffer of [`scalar_expr`]: `v` is bound, `w` is not.
    fn scalar_names() -> (Var, Var, BufId) {
        let mut p = Program::new();
        (p.var("v"), p.var("w"), p.buffer("b", 1))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `try_eval_scalar` answers `None` exactly where `eval_scalar`
        /// errs or panics, and `eval_scalar`'s value everywhere else.
        #[test]
        fn try_eval_scalar_is_eval_scalar_without_the_panic(
            e in {
                let (v, w, b) = scalar_names();
                scalar_expr(v, w, b)
            },
            k in 0..TRAPPY.len(),
        ) {
            let (v, _, _) = scalar_names();
            let (checked, unchecked) = both_answers(&e, &[(v, TRAPPY[k])]);
            prop_assert_eq!(checked, unchecked, "{:?}", e);
        }
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

    /// `for i in 0..3 (outer) { for j in 0..19 (inner) { y[19i + j] = x[19i + j] } }`.
    fn nest(outer: LoopKind, inner: LoopKind) -> (Program, BufId, BufId) {
        let mut p = Program::new();
        let x = p.buffer("x", 57);
        let y = p.buffer("y", 57);
        let (i, j) = (p.var("i"), p.var("j"));
        let at = || Expr::var(i) * Expr::i64(19) + Expr::var(j);
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(3),
            outer,
            vec![Stmt::for_(
                j,
                Expr::i64(0),
                Expr::i64(19),
                inner,
                vec![Stmt::store(y, at(), Expr::load(x, at()))],
            )],
        ));
        (p, x, y)
    }

    fn counted(p: &Program, threads: usize) -> (Vec<(String, u64)>, InstClassCounts) {
        let mut m = Machine::new(p);
        m.set_threads(threads);
        m.run_counted(p).unwrap()
    }

    fn class(c: &InstClassCounts, name: &str) -> u64 {
        c.iter().find(|&(k, _)| k == name).expect("a class label").1
    }

    #[test]
    fn run_counted_counts_a_parallel_loop_as_a_serial_run_would() {
        let (par, _, _) = nest(LoopKind::Parallel, LoopKind::Serial);
        let (serial, _, _) = nest(LoopKind::Serial, LoopKind::Serial);
        let (loops, classes) = counted(&par, 3);
        assert_eq!(loops, [("i".to_string(), 3), ("j".to_string(), 57)]);
        // One load per iteration of the innermost loop.
        assert_eq!(class(&classes, "load"), 57);
        assert_eq!(counted(&serial, 1), (loops, classes));
    }

    #[test]
    fn run_counted_tallies_a_vector_chunk_once_and_its_remainder_per_iteration() {
        let (vector, _, _) = nest(LoopKind::Serial, LoopKind::Vectorize(8));
        let (serial, _, _) = nest(LoopKind::Serial, LoopKind::Serial);
        let (loops, classes) = counted(&vector, 1);
        // Trips count iterations whatever the loop's shape.
        assert_eq!(loops, [("i".to_string(), 3), ("j".to_string(), 57)]);
        // Each entry of `j` dispatches two lane groups and three scalar
        // iterations: five loads, where the serial run dispatches 19.
        assert_eq!(class(&classes, "load"), 3 * 5);
        assert_eq!(class(&counted(&serial, 1).1, "load"), 3 * 19);
    }

    #[test]
    fn run_counted_reports_a_zero_trip_loop_and_omits_one_never_entered() {
        let mut p = Program::new();
        let y = p.buffer("y", 4);
        let (k, z) = (p.var("k"), p.var("z"));
        p.push(Stmt::for_(
            k,
            Expr::i64(2),
            Expr::i64(0),
            LoopKind::Serial,
            vec![Stmt::for_(
                z,
                Expr::i64(0),
                Expr::i64(4),
                LoopKind::Serial,
                vec![Stmt::store(y, Expr::var(z), Expr::f32(1.0))],
            )],
        ));
        assert_eq!(counted(&p, 1).0, [("k".to_string(), 0)]);
    }

    #[test]
    fn run_counted_leaves_the_buffers_a_run_leaves() {
        for (outer, inner) in [
            (LoopKind::Parallel, LoopKind::Vectorize(8)),
            (LoopKind::Serial, LoopKind::Serial),
        ] {
            let (p, x, y) = nest(outer, inner);
            let after = |count: bool| {
                let mut m = Machine::new(&p);
                m.set_threads(2);
                for (n, v) in m.buffer_mut(x).iter_mut().enumerate() {
                    *v = n as f32 * 0.5;
                }
                if count {
                    m.run_counted(&p).unwrap();
                } else {
                    m.run(&p).unwrap();
                }
                m.buffer(y).iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            assert_eq!(after(true), after(false), "{outer:?}/{inner:?}");
        }
    }
}
