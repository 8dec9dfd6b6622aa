//! The SIMT executor: lockstep warp execution with masks, a memory model
//! and a per-SM scheduler.
//!
//! Two executors share the block/warp scheduler and one memory side: both
//! issue, load, store and diverge through `WarpMem`'s
//! [`loopvm::WarpHost`] implementation, which prices every access and
//! bounds-checks its active lanes. [`launch`] runs the optimized register
//! bytecode each kernel phase owns ([`loopvm::Program::compiled`]) with
//! the lane executor ([`loopvm::simt`]), so per-warp work is
//! O(instructions). [`launch_tree_walk`] is the original stack evaluator
//! (O(tree nodes) per warp), kept as the differential reference.

use crate::{GpuModel, Kernel, MemSpace};
use loopvm::{compile, BcProgram, Code, Error, LoopKind, Op, Result, Stmt, Ty, UnOp, WarpHost};
use loopvm::vm::{apply_f, apply_i, apply_un_f, apply_un_i, cmp_f, cmp_i};

/// Warp width (lanes executing in lockstep).
pub const WARP: usize = 32;

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchStats {
    /// Modeled device cycles (max over SMs of their block queues).
    pub cycles: f64,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// 128-byte global memory segment transactions.
    pub global_transactions: u64,
    /// Shared-memory accesses (bank-conflict degree accumulated).
    pub shared_accesses: u64,
    /// Excess cycles lost to shared-memory bank conflicts.
    pub bank_conflict_degree: u64,
    /// Constant-memory broadcasts.
    pub constant_broadcasts: u64,
    /// Branches (or loops) that diverged within a warp.
    pub divergent_branches: u64,
    /// Warps executed.
    pub warps: u64,
}

impl LaunchStats {
    fn add(&mut self, o: &LaunchStats) {
        self.warp_instructions += o.warp_instructions;
        self.global_transactions += o.global_transactions;
        self.shared_accesses += o.shared_accesses;
        self.bank_conflict_degree += o.bank_conflict_degree;
        self.constant_broadcasts += o.constant_broadcasts;
        self.divergent_branches += o.divergent_branches;
        self.warps += o.warps;
    }

    /// Multi-line human-readable rendering (one metric per row), for
    /// examples and observability demos.
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "gpu launch stats\n  modeled cycles      {:>14.0}\n  warps               {:>14}\n  warp instructions   {:>14}\n  global transactions {:>14}\n  shared accesses     {:>14}\n  bank-conflict cost  {:>14}\n  constant broadcasts {:>14}\n  divergent branches  {:>14}\n",
            self.cycles,
            self.warps,
            self.warp_instructions,
            self.global_transactions,
            self.shared_accesses,
            self.bank_conflict_degree,
            self.constant_broadcasts,
            self.divergent_branches
        )
    }
}

impl std::fmt::Display for LaunchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} cycles, {} warps, {} insts, {} gmem tx, {} smem, {} divergent",
            self.cycles,
            self.warps,
            self.warp_instructions,
            self.global_transactions,
            self.shared_accesses,
            self.divergent_branches
        )
    }
}

/// Allocates zeroed storage for every buffer of a kernel's program.
pub fn alloc_buffers(kernel: &Kernel) -> Vec<Vec<f32>> {
    let p = kernel.program();
    (0..p.n_buffers()).map(|b| vec![0.0f32; p.buffer_info(p.nth_buffer(b)).1]).collect()
}

/// Modeled cost of a host↔device copy of `bytes` bytes.
pub fn copy_cost(model: &GpuModel, bytes: usize) -> f64 {
    model.copy_latency + model.copy_per_byte * bytes as f64
}

#[derive(Debug, Clone)]
enum GStmt {
    For { var: u32, lower: Code, upper: Code, body: Vec<GStmt> },
    If { cond: Code, then: Vec<GStmt>, else_: Vec<GStmt> },
    Store { buf: u32, index: Code, value: Code },
    Let { var: u32, value: Code },
}

fn compile_stmt(s: &Stmt) -> Result<GStmt> {
    Ok(match s {
        Stmt::For { var, lower, upper, kind, body } => {
            // Loop kinds are irrelevant inside a kernel (each thread runs
            // the body); they are accepted and executed serially per warp.
            let _ = matches!(kind, LoopKind::Serial);
            GStmt::For {
                var: var.index() as u32,
                lower: compile(lower)?,
                upper: compile(upper)?,
                body: body.iter().map(compile_stmt).collect::<Result<_>>()?,
            }
        }
        Stmt::If { cond, then, else_ } => GStmt::If {
            cond: compile(cond)?,
            then: then.iter().map(compile_stmt).collect::<Result<_>>()?,
            else_: else_.iter().map(compile_stmt).collect::<Result<_>>()?,
        },
        // The same checks, with the same messages, as the bytecode compiler:
        // the evaluator pops each operand from the stack of its type.
        Stmt::Store { buf, index, value } => {
            let (index, value) = (compile(index)?, compile(value)?);
            if index.ty != Ty::I64 {
                return Err(Error::Type("store index must be i64".into()));
            }
            if value.ty != Ty::F32 {
                return Err(Error::Type("store value must be f32".into()));
            }
            GStmt::Store { buf: buf.index() as u32, index, value }
        }
        Stmt::Let { var, value } => {
            let value = compile(value)?;
            if value.ty != Ty::I64 {
                return Err(Error::Type("let binds i64 values".into()));
            }
            GStmt::Let { var: var.index() as u32, value }
        }
    })
}

struct WarpCtx<'a, 'm> {
    mem: &'a mut WarpMem<'m>,
    vars: &'a mut [[i64; WARP]],
    vistack: Vec<[i64; WARP]>,
    vfstack: Vec<[f32; WARP]>,
}

/// Compiles every phase of a kernel to optimized register bytecode from
/// scratch, bypassing the phases' memoised compiled forms (what [`launch`]
/// runs): for measuring and inspecting the compile itself.
///
/// # Errors
///
/// Type errors at bytecode compilation.
pub fn compile_phases(kernel: &Kernel) -> Result<Vec<BcProgram>> {
    kernel.phases().iter().map(loopvm::opt::compile_program).collect()
}

/// Seeds per-warp variable frames and active masks for one block.
fn seed_warps(
    kernel: &Kernel,
    threads: usize,
    n_warps: usize,
    bx: i64,
    by: i64,
) -> (Vec<Vec<[i64; WARP]>>, Vec<[bool; WARP]>) {
    let mut warp_vars: Vec<Vec<[i64; WARP]>> =
        vec![vec![[0i64; WARP]; kernel.program().n_vars()]; n_warps];
    let mut warp_masks: Vec<[bool; WARP]> = vec![[false; WARP]; n_warps];
    for (w, (vars, mask)) in warp_vars.iter_mut().zip(&mut warp_masks).enumerate() {
        let warp_start = w * WARP;
        let lanes = (threads - warp_start).min(WARP);
        for l in 0..lanes {
            mask[l] = true;
            let tid = warp_start + l;
            let tx = tid as i64 % kernel.block[0];
            let ty = tid as i64 / kernel.block[0];
            if let Some(v) = kernel.block_vars[0] {
                vars[v.index()][l] = bx;
            }
            if let Some(v) = kernel.block_vars[1] {
                vars[v.index()][l] = by;
            }
            if let Some(v) = kernel.thread_vars[0] {
                vars[v.index()][l] = tx;
            }
            if let Some(v) = kernel.thread_vars[1] {
                vars[v.index()][l] = ty;
            }
        }
    }
    (warp_vars, warp_masks)
}

/// The warp-level memory context both executors run through: the
/// simulator's memory model over the launch's buffers, accumulating one
/// warp's statistics and cycles.
struct WarpMem<'a> {
    model: &'a GpuModel,
    spaces: &'a [MemSpace],
    buffers: &'a mut [Vec<f32>],
    buffer_names: &'a [String],
    stats: LaunchStats,
    cycles: f64,
}

/// The block/warp/phase loop both executors share: blocks in order
/// (shared and local memory cleared at each block start), every warp of a
/// block through phase `k` before any warp starts phase `k + 1`, per-warp
/// variable frames persisting across phases, blocks scheduled round-robin
/// over the SMs. `exec_warp(phase, vars, mask, mem)` executes one phase
/// for one warp.
fn launch_with<F>(
    kernel: &Kernel,
    buffers: &mut [Vec<f32>],
    model: &GpuModel,
    mut exec_warp: F,
) -> Result<LaunchStats>
where
    F: FnMut(usize, &mut [[i64; WARP]], &[bool; WARP], &mut WarpMem<'_>) -> Result<()>,
{
    let program = kernel.program();
    assert_eq!(buffers.len(), program.n_buffers(), "buffer count mismatch");
    let buffer_names: Vec<String> = (0..program.n_buffers())
        .map(|b| program.buffer_info(program.nth_buffer(b)).0.to_string())
        .collect();

    let threads = kernel.threads_per_block();
    let mut sm_cycles = vec![0.0f64; model.sms.max(1)];
    let mut total = LaunchStats::default();

    let n_warps = threads.div_ceil(WARP);
    for block_id in 0..kernel.n_blocks() {
        let bx = block_id as i64 % kernel.grid[0];
        let by = block_id as i64 / kernel.grid[0];
        // Shared memory is per-block: clear it.
        for (b, space) in kernel.spaces.iter().enumerate() {
            if *space == MemSpace::Shared || *space == MemSpace::Local {
                buffers[b].iter_mut().for_each(|v| *v = 0.0);
            }
        }
        let mut block_cycles = 0.0f64;
        // Per-warp variable frames persist across phases (registers).
        let (mut warp_vars, warp_masks) = seed_warps(kernel, threads, n_warps, bx, by);
        // Barrier semantics: every warp finishes phase k before any warp
        // starts phase k+1.
        for phase in 0..kernel.phases().len() {
            for (vars, mask) in warp_vars.iter_mut().zip(&warp_masks) {
                let mut mem = WarpMem {
                    model,
                    spaces: &kernel.spaces,
                    buffers,
                    buffer_names: &buffer_names,
                    stats: LaunchStats::default(),
                    cycles: 0.0,
                };
                exec_warp(phase, vars, mask, &mut mem)?;
                block_cycles += mem.cycles;
                total.add(&mem.stats);
            }
        }
        total.warps += n_warps as u64;
        // Round-robin block scheduling over SMs.
        let sm = block_id % sm_cycles.len();
        sm_cycles[sm] += block_cycles;
    }
    total.cycles = sm_cycles.iter().cloned().fold(0.0, f64::max);
    record_launch_metrics(&total);
    Ok(total)
}

/// Launches a kernel on the modeled device, executing the bytecode each
/// phase owns (compiled on first use, or left there by a backend's
/// `optimize` pass or an artifact decode) with the warp-level masked
/// executor. `buffers` must match the kernel program's buffer
/// declarations (see [`alloc_buffers`]); global and constant buffers
/// persist across blocks, shared buffers are cleared at each block start.
///
/// # Errors
///
/// Type errors at bytecode compilation and out-of-bounds accesses.
pub fn launch(
    kernel: &Kernel,
    buffers: &mut [Vec<f32>],
    model: &GpuModel,
) -> Result<LaunchStats> {
    let phases: Vec<&BcProgram> = (kernel.phases().iter())
        .map(|p| p.compiled().map(|c| c.bytecode()))
        .collect::<Result<_>>()?;

    // Per-kernel-phase profile, aggregated across blocks and warps.
    // Allocated only under `TIRAMISU_PROFILE`.
    let _sp = telemetry::span("gpu", "launch");
    let mut prof: Option<Vec<PhaseProf>> = telemetry::profile_enabled()
        .then(|| vec![PhaseProf::default(); phases.len()]);

    // Lane register files, shared by every warp and phase of the launch.
    let (mut ir, mut fr) = (Vec::new(), Vec::new());
    let total = launch_with(kernel, buffers, model, |pi, vars, mask, mem| {
        let Some(pp) = prof.as_deref_mut() else {
            return loopvm::exec_warp(phases[pi], &mut ir, &mut fr, vars, mask, mem, None);
        };
        let t0 = std::time::Instant::now();
        let classes = Some(&mut pp[pi].classes);
        loopvm::exec_warp(phases[pi], &mut ir, &mut fr, vars, mask, mem, classes)?;
        pp[pi].wall += t0.elapsed();
        pp[pi].stats.add(&mem.stats);
        Ok(())
    })?;
    if let Some(pp) = prof {
        emit_phase_prof(&pp);
    }
    Ok(total)
}

/// Always-on launch metrics, accumulated across every launch in the
/// process by both executors (the per-launch numbers stay on the
/// returned [`LaunchStats`]).
fn record_launch_metrics(total: &LaunchStats) {
    struct GpuMetrics {
        launches: std::sync::Arc<telemetry::metrics::Counter>,
        divergent_branches: std::sync::Arc<telemetry::metrics::Counter>,
        bank_conflicts: std::sync::Arc<telemetry::metrics::Counter>,
    }
    static M: std::sync::OnceLock<GpuMetrics> = std::sync::OnceLock::new();
    let m = M.get_or_init(|| GpuMetrics {
        launches: telemetry::metrics::counter("gpu.launches"),
        divergent_branches: telemetry::metrics::counter("gpu.divergent_branches"),
        bank_conflicts: telemetry::metrics::counter("gpu.bank_conflicts"),
    });
    m.launches.inc();
    m.divergent_branches.add(total.divergent_branches);
    m.bank_conflicts.add(total.bank_conflict_degree);
}

/// Launches a kernel with the tree-walk reference executor (the
/// differential baseline): block/warp scheduling, barrier semantics and
/// the memory model are [`launch`]'s; only per-warp instruction issue
/// differs.
///
/// # Errors
///
/// Same as [`launch`].
pub fn launch_tree_walk(
    kernel: &Kernel,
    buffers: &mut [Vec<f32>],
    model: &GpuModel,
) -> Result<LaunchStats> {
    let phases: Vec<Vec<GStmt>> = (kernel.phases().iter())
        .map(|p| p.body().iter().map(compile_stmt).collect())
        .collect::<Result<_>>()?;
    launch_with(kernel, buffers, model, |pi, vars, mask, mem| {
        let mut ctx = WarpCtx {
            mem,
            vars,
            vistack: Vec::with_capacity(16),
            vfstack: Vec::with_capacity(16),
        };
        exec_block(&phases[pi], &mut ctx, *mask)
    })
}

/// Prices warp execution with the simulator's memory model and checks
/// its accesses, for both executors: per-instruction issue cost,
/// coalescing/bank-conflict/broadcast pricing and bounds checks on loads
/// and stores, divergence counting.
impl WarpHost<WARP> for WarpMem<'_> {
    fn issue(&mut self) {
        self.stats.warp_instructions += 1;
        self.cycles += self.model.alu;
    }

    fn load(&mut self, buf: u32, idx: &[i64; WARP], mask: &[bool; WARP]) -> Result<[f32; WARP]> {
        self.price(buf, idx, mask);
        let b = &self.buffers[buf as usize];
        let mut out = [0f32; WARP];
        for l in 0..WARP {
            if mask[l] {
                let i = idx[l];
                if i < 0 || i as usize >= b.len() {
                    return Err(Error::OutOfBounds {
                        buffer: self.buffer_names[buf as usize].clone(),
                        index: i,
                        size: b.len(),
                    });
                }
                out[l] = b[i as usize];
            }
        }
        Ok(out)
    }

    fn store(
        &mut self,
        buf: u32,
        idx: &[i64; WARP],
        val: &[f32; WARP],
        mask: &[bool; WARP],
    ) -> Result<()> {
        self.price(buf, idx, mask);
        let b = &mut self.buffers[buf as usize];
        for l in 0..WARP {
            if mask[l] {
                let i = idx[l];
                if i < 0 || i as usize >= b.len() {
                    return Err(Error::OutOfBounds {
                        buffer: self.buffer_names[buf as usize].clone(),
                        index: i,
                        size: b.len(),
                    });
                }
                b[i as usize] = val[l];
            }
        }
        Ok(())
    }

    fn divergence(&mut self) {
        self.stats.divergent_branches += 1;
    }
}

/// Per-phase profile accumulated by the profiling launch path: wall time
/// across all blocks, divergence/coalescing statistics and
/// instruction-class totals.
#[derive(Debug, Clone, Default)]
struct PhaseProf {
    wall: std::time::Duration,
    stats: LaunchStats,
    classes: loopvm::InstClassCounts,
}

/// Emits one span per kernel phase (wall time summed over every block's
/// execution of that phase) plus divergence/coalescing counters and the
/// warp instruction-class profile.
fn emit_phase_prof(phases: &[PhaseProf]) {
    for (pi, p) in phases.iter().enumerate() {
        telemetry::span_with_wall("gpu", format!("phase {pi}"), p.wall);
        telemetry::counter("gpu", format!("phase {pi} divergent"), p.stats.divergent_branches as f64);
        telemetry::counter(
            "gpu",
            format!("phase {pi} gmem tx"),
            p.stats.global_transactions as f64,
        );
        telemetry::counter(
            "gpu",
            format!("phase {pi} bank conflicts"),
            p.stats.bank_conflict_degree as f64,
        );
        for (class, n) in p.classes.iter() {
            if n > 0 {
                telemetry::counter("gpu", format!("phase {pi} inst {class}"), n as f64);
            }
        }
    }
}

fn exec_block(body: &[GStmt], ctx: &mut WarpCtx<'_, '_>, mask: [bool; WARP]) -> Result<()> {
    for s in body {
        exec_stmt(s, ctx, mask)?;
    }
    Ok(())
}

fn exec_stmt(s: &GStmt, ctx: &mut WarpCtx<'_, '_>, mask: [bool; WARP]) -> Result<()> {
    if !mask.iter().any(|&m| m) {
        return Ok(());
    }
    match s {
        GStmt::Let { var, value } => {
            let v = eval_i(value, ctx, mask)?;
            for l in 0..WARP {
                if mask[l] {
                    ctx.vars[*var as usize][l] = v[l];
                }
            }
            Ok(())
        }
        GStmt::Store { buf, index, value } => {
            let idx = eval_i(index, ctx, mask)?;
            let val = eval_f(value, ctx, mask)?;
            ctx.mem.store(*buf, &idx, &val, &mask)
        }
        GStmt::If { cond, then, else_ } => {
            let c = eval_i(cond, ctx, mask)?;
            let mut then_mask = [false; WARP];
            let mut else_mask = [false; WARP];
            for l in 0..WARP {
                if mask[l] {
                    if c[l] != 0 {
                        then_mask[l] = true;
                    } else {
                        else_mask[l] = true;
                    }
                }
            }
            let any_then = then_mask.iter().any(|&m| m);
            let any_else = else_mask.iter().any(|&m| m);
            if any_then && any_else {
                ctx.mem.divergence();
            }
            if any_then {
                exec_block(then, ctx, then_mask)?;
            }
            if any_else {
                exec_block(else_, ctx, else_mask)?;
            }
            Ok(())
        }
        GStmt::For { var, lower, upper, body } => {
            let lo = eval_i(lower, ctx, mask)?;
            let hi = eval_i(upper, ctx, mask)?;
            let mut glo = i64::MAX;
            let mut ghi = i64::MIN;
            let mut uniform = true;
            let mut first: Option<(i64, i64)> = None;
            for l in 0..WARP {
                if mask[l] {
                    glo = glo.min(lo[l]);
                    ghi = ghi.max(hi[l]);
                    match first {
                        None => first = Some((lo[l], hi[l])),
                        Some(f) => uniform &= f == (lo[l], hi[l]),
                    }
                }
            }
            if !uniform {
                ctx.mem.divergence();
            }
            let mut v = glo;
            while v < ghi {
                let mut iter_mask = [false; WARP];
                for l in 0..WARP {
                    iter_mask[l] = mask[l] && lo[l] <= v && v < hi[l];
                    if iter_mask[l] {
                        ctx.vars[*var as usize][l] = v;
                    }
                }
                exec_block(body, ctx, iter_mask)?;
                v += 1;
            }
            Ok(())
        }
    }
}

fn eval_i(code: &Code, ctx: &mut WarpCtx<'_, '_>, mask: [bool; WARP]) -> Result<[i64; WARP]> {
    eval(code, ctx, mask)?;
    Ok(ctx.vistack.pop().unwrap())
}

fn eval_f(code: &Code, ctx: &mut WarpCtx<'_, '_>, mask: [bool; WARP]) -> Result<[f32; WARP]> {
    eval(code, ctx, mask)?;
    Ok(ctx.vfstack.pop().unwrap())
}

fn eval(code: &Code, ctx: &mut WarpCtx<'_, '_>, mask: [bool; WARP]) -> Result<()> {
    ctx.vistack.clear();
    ctx.vfstack.clear();
    for op in &code.ops {
        ctx.mem.issue();
        match *op {
            Op::PushF(v) => ctx.vfstack.push([v; WARP]),
            Op::PushI(v) => ctx.vistack.push([v; WARP]),
            Op::LoadVar(v) => ctx.vistack.push(ctx.vars[v as usize]),
            Op::Load(b) => {
                let idx = ctx.vistack.pop().unwrap();
                let out = ctx.mem.load(b, &idx, &mask)?;
                ctx.vfstack.push(out);
            }
            Op::BinF(op) => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.last_mut().unwrap();
                for l in 0..WARP {
                    a[l] = apply_f(op, a[l], b[l]);
                }
            }
            Op::BinI(op) => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.last_mut().unwrap();
                for l in 0..WARP {
                    if mask[l] {
                        a[l] = apply_i(op, a[l], b[l]);
                    }
                }
            }
            Op::CmpF(op) => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.pop().unwrap();
                let mut out = [0i64; WARP];
                for l in 0..WARP {
                    out[l] = cmp_f(op, a[l], b[l]);
                }
                ctx.vistack.push(out);
            }
            Op::CmpI(op) => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.pop().unwrap();
                let mut out = [0i64; WARP];
                for l in 0..WARP {
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
                // `neg`/`abs` overflow on i64::MIN: like `BinI`, they run
                // on active lanes only, so an inactive lane's garbage
                // never traps (the masking contract `loopvm::simt` keeps).
                let trapping = matches!(op, UnOp::Neg | UnOp::Abs);
                let a = ctx.vistack.last_mut().unwrap();
                for l in 0..WARP {
                    if mask[l] || !trapping {
                        a[l] = apply_un_i(op, a[l]);
                    }
                }
            }
            Op::SelF => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.pop().unwrap();
                let c = ctx.vistack.pop().unwrap();
                let mut out = [0f32; WARP];
                for l in 0..WARP {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.vfstack.push(out);
            }
            Op::SelI => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.pop().unwrap();
                let c = ctx.vistack.pop().unwrap();
                let mut out = [0i64; WARP];
                for l in 0..WARP {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.vistack.push(out);
            }
            Op::CastIF => {
                let a = ctx.vistack.pop().unwrap();
                let mut out = [0f32; WARP];
                for l in 0..WARP {
                    out[l] = a[l] as f32;
                }
                ctx.vfstack.push(out);
            }
            Op::CastFI => {
                let a = ctx.vfstack.pop().unwrap();
                let mut out = [0i64; WARP];
                for l in 0..WARP {
                    out[l] = a[l] as i64;
                }
                ctx.vistack.push(out);
            }
        }
    }
    Ok(())
}

impl WarpMem<'_> {
    /// Prices one warp memory access to buffer `b` at per-lane element
    /// indices `idx` (4-byte elements): coalescing for global, bank
    /// conflicts for shared, broadcast/serialization for constant, flat
    /// cost for local.
    fn price(&mut self, b: u32, idx: &[i64; WARP], mask: &[bool; WARP]) {
        let model = self.model;
        match self.spaces.get(b as usize).copied().unwrap_or_default() {
            MemSpace::Global => {
                // Coalescing: distinct 128-byte segments among active lanes
                // (at most WARP of them — a stack scratch avoids per-access
                // allocation on this very hot path).
                let mut segs = [0i64; WARP];
                let mut n_segs = 0usize;
                for l in 0..WARP {
                    if mask[l] {
                        let seg = (idx[l] * 4).div_euclid(128);
                        if !segs[..n_segs].contains(&seg) {
                            segs[n_segs] = seg;
                            n_segs += 1;
                        }
                    }
                }
                self.stats.global_transactions += n_segs as u64;
                self.cycles += n_segs as f64 * model.global_segment;
            }
            MemSpace::Shared => {
                // Bank conflicts: 32 banks of 4 bytes; conflict degree =
                // max distinct-address count per bank.
                let mut per_bank = [0u32; 32];
                let mut seen = [0i64; WARP];
                let mut n_seen = 0usize;
                for l in 0..WARP {
                    if mask[l] && !seen[..n_seen].contains(&idx[l]) {
                        seen[n_seen] = idx[l];
                        n_seen += 1;
                        per_bank[(idx[l].rem_euclid(32)) as usize] += 1;
                    }
                }
                let degree = per_bank.iter().copied().max().unwrap_or(1).max(1);
                self.stats.shared_accesses += 1;
                self.stats.bank_conflict_degree += (degree - 1) as u64;
                self.cycles += degree as f64 * model.shared_access;
            }
            MemSpace::Constant => {
                let mut distinct = [0i64; WARP];
                let mut n_distinct = 0usize;
                for l in 0..WARP {
                    if mask[l] && !distinct[..n_distinct].contains(&idx[l]) {
                        distinct[n_distinct] = idx[l];
                        n_distinct += 1;
                    }
                }
                if n_distinct <= 1 {
                    self.stats.constant_broadcasts += 1;
                    self.cycles += model.constant_broadcast;
                } else {
                    self.cycles += n_distinct as f64 * model.constant_serial;
                }
            }
            MemSpace::Local => {
                self.cycles += model.local_access;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopvm::{Expr, Program, Stmt};

    /// y[gid] = x[gid] + 1 with gid = (bx * blockdim + tx).
    fn saxpy_kernel(stride: i64) -> (Kernel, usize, usize) {
        let n = 256usize;
        let mut p = Program::new();
        let x = p.buffer("x", n * stride as usize);
        let y = p.buffer("y", n * stride as usize);
        let bx = p.var("bx");
        let tx = p.var("tx");
        let gid = p.var("gid");
        p.push(Stmt::let_(gid, Expr::var(bx) * Expr::i64(64) + Expr::var(tx)));
        p.push(Stmt::store(
            y,
            Expr::var(gid) * Expr::i64(stride),
            Expr::load(x, Expr::var(gid) * Expr::i64(stride)) + Expr::f32(1.0),
        ));
        let mut k = Kernel::new(p, [4, 1], [64, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        (k, x.index(), y.index())
    }

    #[test]
    fn functional_vector_add() {
        let (k, x, y) = saxpy_kernel(1);
        let mut bufs = alloc_buffers(&k);
        for (i, v) in bufs[x].iter_mut().enumerate() {
            *v = i as f32;
        }
        let stats = launch(&k, &mut bufs, &GpuModel::default()).unwrap();
        assert_eq!(bufs[y][10], 11.0);
        assert_eq!(bufs[y][255], 256.0);
        assert_eq!(stats.warps, 8); // 4 blocks * 64 threads / 32
        assert_eq!(stats.divergent_branches, 0);
    }

    #[test]
    fn coalescing_contiguous_beats_strided() {
        let (k1, _, _) = saxpy_kernel(1);
        let (k32, _, _) = saxpy_kernel(32);
        let mut b1 = alloc_buffers(&k1);
        let mut b32 = alloc_buffers(&k32);
        let s1 = launch(&k1, &mut b1, &GpuModel::default()).unwrap();
        let s32 = launch(&k32, &mut b32, &GpuModel::default()).unwrap();
        // Contiguous: 1 segment per warp per access; strided by 32 floats:
        // each lane touches its own segment.
        assert!(s32.global_transactions >= 8 * s1.global_transactions);
        assert!(s32.cycles > s1.cycles);
    }

    #[test]
    fn divergence_counted_and_costed() {
        // if (tx % 2) y[tx] = 1 else y[tx] = 2
        let mut p = Program::new();
        let y = p.buffer("y", 64);
        let tx = p.var("tx");
        p.push(Stmt::If {
            cond: Expr::eq(Expr::var(tx) % Expr::i64(2), Expr::i64(0)),
            then: vec![Stmt::store(y, Expr::var(tx), Expr::f32(1.0))],
            else_: vec![Stmt::store(y, Expr::var(tx), Expr::f32(2.0))],
        });
        let mut k = Kernel::new(p, [1, 1], [64, 1]);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let stats = launch(&k, &mut bufs, &GpuModel::default()).unwrap();
        assert_eq!(stats.divergent_branches, 2); // one per warp
        assert_eq!(bufs[0][0], 1.0);
        assert_eq!(bufs[0][1], 2.0);
    }

    #[test]
    fn shared_memory_bank_conflicts() {
        // Each lane reads sh[tx * stride]: stride 1 = conflict-free,
        // stride 32 = all lanes hit bank 0.
        let build = |stride: i64| {
            let mut p = Program::new();
            let sh = p.buffer("sh", 32 * 32);
            let y = p.buffer("y", 32);
            let tx = p.var("tx");
            p.push(Stmt::store(
                y,
                Expr::var(tx),
                Expr::load(sh, Expr::var(tx) * Expr::i64(stride)),
            ));
            let mut k = Kernel::new(p, [1, 1], [32, 1]);
            k.thread_vars[0] = Some(tx);
            k.spaces[0] = MemSpace::Shared;
            k
        };
        let k1 = build(1);
        let k32 = build(32);
        let mut b1 = alloc_buffers(&k1);
        let mut b32 = alloc_buffers(&k32);
        let s1 = launch(&k1, &mut b1, &GpuModel::default()).unwrap();
        let s32 = launch(&k32, &mut b32, &GpuModel::default()).unwrap();
        assert_eq!(s1.bank_conflict_degree, 0);
        assert!(s32.bank_conflict_degree >= 31);
        assert!(s32.cycles > s1.cycles);
    }

    #[test]
    fn constant_broadcast_is_cheap() {
        // All lanes read w[0] (uniform) vs w[tx] (diverging constant read).
        let build = |uniform: bool| {
            let mut p = Program::new();
            let w = p.buffer("w", 32);
            let y = p.buffer("y", 32);
            let tx = p.var("tx");
            let idx = if uniform { Expr::i64(0) } else { Expr::var(tx) };
            p.push(Stmt::store(y, Expr::var(tx), Expr::load(w, idx)));
            let mut k = Kernel::new(p, [1, 1], [32, 1]);
            k.thread_vars[0] = Some(tx);
            k.spaces[0] = MemSpace::Constant;
            k
        };
        let ku = build(true);
        let kd = build(false);
        let mut bu = alloc_buffers(&ku);
        let mut bd = alloc_buffers(&kd);
        let su = launch(&ku, &mut bu, &GpuModel::default()).unwrap();
        let sd = launch(&kd, &mut bd, &GpuModel::default()).unwrap();
        assert_eq!(su.constant_broadcasts, 1);
        assert!(sd.cycles > su.cycles);
    }

    #[test]
    fn blocks_spread_over_sms() {
        // 30 identical blocks on 15 SMs: device time ~ 2 blocks' cycles.
        let mut p = Program::new();
        let y = p.buffer("y", 32 * 30);
        let (bx, tx) = (p.var("bx"), p.var("tx"));
        p.push(Stmt::store(
            y,
            Expr::var(bx) * Expr::i64(32) + Expr::var(tx),
            Expr::f32(1.0),
        ));
        let mut k = Kernel::new(p, [30, 1], [32, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let model = GpuModel::default();
        let stats = launch(&k, &mut bufs, &model).unwrap();
        // One-block kernel for reference.
        let mut p1 = Program::new();
        let y1 = p1.buffer("y", 32);
        let tx1 = p1.var("tx");
        p1.push(Stmt::store(y1, Expr::var(tx1), Expr::f32(1.0)));
        let mut k1 = Kernel::new(p1, [1, 1], [32, 1]);
        k1.thread_vars[0] = Some(tx1);
        let mut bufs1 = alloc_buffers(&k1);
        let s1 = launch(&k1, &mut bufs1, &model).unwrap();
        assert!(stats.cycles <= 2.5 * s1.cycles, "{} vs {}", stats.cycles, s1.cycles);
        assert!(bufs[0].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn divergent_loop_bounds_execute_correctly() {
        // for j in 0..tx { y[tx] += 1 }: triangular per-lane trip counts.
        let mut p = Program::new();
        let y = p.buffer("y", 32);
        let tx = p.var("tx");
        let j = p.var("j");
        p.push(Stmt::serial(
            j,
            Expr::i64(0),
            Expr::var(tx),
            vec![Stmt::store(
                y,
                Expr::var(tx),
                Expr::load(y, Expr::var(tx)) + Expr::f32(1.0),
            )],
        ));
        let mut k = Kernel::new(p, [1, 1], [32, 1]);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let stats = launch(&k, &mut bufs, &GpuModel::default()).unwrap();
        assert!(stats.divergent_branches >= 1);
        for (t, v) in bufs[0].iter().enumerate().take(32) {
            assert_eq!(*v, t as f32, "lane {t}");
        }
    }

    #[test]
    fn copy_cost_scales_with_bytes() {
        let m = GpuModel::default();
        assert!(copy_cost(&m, 1 << 20) > copy_cost(&m, 1 << 10));
        assert!(copy_cost(&m, 0) >= m.copy_latency);
    }

    /// A barrier-phased kernel touching loops, redundant subexpressions
    /// and shared memory: staging then consuming through a barrier.
    fn phased_kernel() -> Kernel {
        let mut p = Program::new();
        let x = p.buffer("x", 64);
        let sh = p.buffer("sh", 64);
        let y = p.buffer("y", 64);
        let (bx, tx, j) = (p.var("bx"), p.var("tx"), p.var("j"));
        let gid = p.var("gid");
        let stage = vec![
            Stmt::let_(gid, Expr::var(bx) * Expr::i64(32) + Expr::var(tx)),
            Stmt::store(sh, Expr::var(tx), Expr::load(x, Expr::var(gid))),
        ];
        let consume = vec![Stmt::serial(
            j,
            Expr::i64(0),
            Expr::i64(4),
            vec![Stmt::store(
                y,
                Expr::var(gid),
                Expr::load(y, Expr::var(gid))
                    + Expr::load(sh, Expr::var(tx)) * Expr::f32(0.5)
                    + Expr::load(sh, Expr::var(tx)) * Expr::f32(0.5),
            )],
        )];
        let mut k = Kernel::phased(p, vec![stage, consume], [2, 1], [32, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        k.spaces[1] = MemSpace::Shared;
        k
    }

    #[test]
    fn bytecode_matches_tree_walk_bit_exact() {
        let k = phased_kernel();
        let mut b_bc = alloc_buffers(&k);
        let mut b_tw = alloc_buffers(&k);
        for (i, v) in b_bc[0].iter_mut().enumerate() {
            *v = (i as f32).sin();
        }
        b_tw[0].clone_from(&b_bc[0]);
        let s_bc = launch(&k, &mut b_bc, &GpuModel::default()).unwrap();
        let s_tw = launch_tree_walk(&k, &mut b_tw, &GpuModel::default()).unwrap();
        for (a, b) in b_bc[2].iter().zip(&b_tw[2]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // CSE keeps repeated loads in registers, so the bytecode path may
        // issue *fewer* memory accesses — never more — and the same
        // divergence.
        assert!(s_bc.global_transactions <= s_tw.global_transactions);
        assert!(s_bc.shared_accesses < s_tw.shared_accesses);
        assert_eq!(s_bc.divergent_branches, s_tw.divergent_branches);
        assert_eq!(s_bc.warps, s_tw.warps);
        assert!(
            s_bc.warp_instructions < s_tw.warp_instructions,
            "{} vs {}",
            s_bc.warp_instructions,
            s_tw.warp_instructions
        );
        assert!(s_bc.cycles < s_tw.cycles);
    }

    #[test]
    fn bytecode_faults_like_tree_walk() {
        // Out-of-bounds store at gid = 64..127 for block 1.
        let mut p = Program::new();
        let y = p.buffer("y", 32);
        let (bx, tx) = (p.var("bx"), p.var("tx"));
        p.push(Stmt::store(
            y,
            Expr::var(bx) * Expr::i64(32) + Expr::var(tx),
            Expr::f32(1.0),
        ));
        let mut k = Kernel::new(p, [2, 1], [32, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        let mut b1 = alloc_buffers(&k);
        let mut b2 = alloc_buffers(&k);
        let e_bc = launch(&k, &mut b1, &GpuModel::default()).unwrap_err();
        let e_tw = launch_tree_walk(&k, &mut b2, &GpuModel::default()).unwrap_err();
        assert_eq!(e_bc, e_tw);
    }

    #[test]
    fn inactive_lanes_never_trap_on_either_executor() {
        // if 1 <= tx { y[tx] = f32(abs(select(tx == 0, i64::MIN, tx)) % 1000) }:
        // lane 0 is inactive but holds i64::MIN, whose `abs` overflows
        // (a panic under overflow checks) unless it is masked.
        let mut p = Program::new();
        let y = p.buffer("y", 32);
        let tx = p.var("tx");
        let v = Expr::abs(Expr::select(
            Expr::eq(Expr::var(tx), Expr::i64(0)),
            Expr::i64(i64::MIN),
            Expr::var(tx),
        ));
        p.push(Stmt::if_then(
            Expr::le(Expr::i64(1), Expr::var(tx)),
            vec![Stmt::store(y, Expr::var(tx), Expr::to_f32(v % Expr::i64(1000)))],
        ));
        let mut k = Kernel::new(p, [1, 1], [32, 1]);
        k.thread_vars[0] = Some(tx);
        let mut b_bc = alloc_buffers(&k);
        let mut b_tw = alloc_buffers(&k);
        launch(&k, &mut b_bc, &GpuModel::default()).unwrap();
        launch_tree_walk(&k, &mut b_tw, &GpuModel::default()).unwrap();
        let bits = |b: &[f32]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&b_bc[0]), bits(&b_tw[0]));
        assert_eq!(b_bc[0][0], 0.0);
        assert_eq!(b_bc[0][31], 31.0);
    }
}
