//! Lane execution of register bytecode: GPU warps and CPU `Vectorize`
//! chunks.
//!
//! A lane group executes one statement stream for `W` lanes at once:
//! every value is a lane vector (`[i64; W]` / `[f32; W]`) and an *active
//! mask* says which lanes a statement applies to. This module is the only
//! lane executor of a [`BcProgram`], optimized or plain
//! (`crate::opt::compile_plain`). The GPU simulator runs each warp
//! through [`exec_warp`] (`W = 32`, per-warp masks): its launches run the
//! optimized code, its reference launches the plain lowering. The CPU
//! interpreter (`crate::vm`) runs each full 8-lane chunk of a `Vectorize`
//! loop — its preamble and flat store/let body — through `run_insts` and
//! `exec_block` at full mask. Memory, bounds checking, pricing and
//! divergence accounting stay with the caller, behind the [`WarpHost`]
//! trait.
//!
//! Register files and the variable frame belong to the caller, which
//! keeps them across calls; whatever a previous warp or chunk left in
//! them is never observable, because active lanes write a register before
//! they read it and inactive lanes are never stored.
//!
//! # Masking rules
//!
//! At full mask — every CPU chunk, and every warp away from boundary
//! blocks and divergent branches — the rules below reduce to "every
//! instruction runs on every lane, in lane order", which is what the
//! scalar interpreter's per-iteration semantics need: the first lane
//! whose access fails reports the error, and lanes before it have
//! already been stored.
//!
//! Otherwise most operations run on *all* lanes, and only the points
//! where garbage could become observable are masked: buffer
//! loads/stores, integer binary ops (whose `div`/`rem` can trap), and
//! writes to loop variables and `let` slots:
//!
//! - constants, variable reads, float arithmetic, comparisons, selects
//!   and casts execute on all lanes (none of these can trap, and inactive
//!   lanes are never stored);
//! - integer binary ops and integer `neg`/`abs` execute only on active
//!   lanes — the optimizer pins every *trapping* instruction into
//!   statement-local code (see `crate::opt`), and the plain lowering has
//!   nothing but statement-local code, so these always run under the
//!   exact mask of the statement they came from;
//! - loads and stores go through the host, which prices the access,
//!   bounds-checks active lanes only, and fills inactive load lanes
//!   with `0.0`;
//! - `if` splits the mask at the condition register and reports
//!   divergence when both sides are non-empty; `for` runs the union of
//!   the active lanes' ranges with a per-iteration mask and reports
//!   divergence when active bounds disagree.
//!
//! Hoisted (preamble/prologue) instructions run under the *enclosing*
//! mask — a superset of every mask they would have run under in the
//! source position. That is sound because the optimizer only hoists
//! non-trapping instructions, and mask monotonicity guarantees any lane
//! that later consumes the value was already active at the hoist point.

use crate::bytecode::{BcProgram, BcStmt, Inst, InstClassCounts};
use crate::vm::{apply_f, apply_i, apply_un_f, apply_un_i, cmp_f, cmp_i};
use crate::expr::UnOp;
use crate::Result;

/// Host callbacks for warp-level bytecode execution: the simulator owns
/// instruction pricing, memory-system modeling, bounds checking and
/// divergence accounting; the executor owns the register files and
/// control flow.
pub trait WarpHost<const W: usize> {
    /// Called once per executed instruction (prologue, preamble, bounds
    /// and statement-local alike) — the per-issue cost hook.
    fn issue(&mut self);

    /// Called, after [`WarpHost::issue`], for every integer (`float ==
    /// false`, `and`/`or` included) or float binary op — the hook for a
    /// host that prices arithmetic by kind. Nothing by default.
    fn binop(&mut self, _float: bool) {}

    /// Loads `buf[idx[l]]` for every active lane. The host prices the
    /// (coalesced/banked/broadcast) access over the active lanes, bounds
    /// checks them, and returns `0.0` in inactive lanes.
    ///
    /// # Errors
    ///
    /// [`crate::Error::OutOfBounds`] when an active lane's index is out
    /// of range.
    fn load(&mut self, buf: u32, idx: &[i64; W], mask: &[bool; W]) -> Result<[f32; W]>;

    /// Stores `val[l]` to `buf[idx[l]]` for every active lane, pricing
    /// and bounds checking like [`WarpHost::load`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::OutOfBounds`] when an active lane's index is out
    /// of range.
    fn store(&mut self, buf: u32, idx: &[i64; W], val: &[f32; W], mask: &[bool; W]) -> Result<()>;

    /// Called when control flow diverges: an `if` whose condition splits
    /// the active lanes, or a `for` whose active lanes disagree on
    /// bounds.
    fn divergence(&mut self);
}

/// One lane group's execution state. Every file is borrowed from the
/// caller, which keeps it across warps, phases and chunks.
pub(crate) struct WarpCtx<'a, const W: usize, H: WarpHost<W>> {
    /// Lane register files, at least `n_iregs`/`n_fregs` long.
    pub(crate) ir: &'a mut [[i64; W]],
    pub(crate) fr: &'a mut [[f32; W]],
    /// Lane variable frame: `ReadVar` reads it, `let` and `for` write it.
    pub(crate) vars: &'a mut [[i64; W]],
    pub(crate) host: &'a mut H,
    /// Instruction-class counts, when the caller keeps them (one count per
    /// lane-group dispatch): a counting CPU run's, or a profiled GPU
    /// launch's.
    pub(crate) classes: Option<&'a mut InstClassCounts>,
}

/// `regs[dst][l] = f(regs[a][l], regs[b][l])` for every lane, without
/// copying the 256-byte source vectors out first (this is the hottest
/// loop of the warp executor).
///
/// SAFETY invariants, asserted below: all three indices are in bounds
/// (the bytecode compiler allocates registers densely and every caller
/// sizes the files from `n_iregs`/`n_fregs`). `dst` may alias `a`/`b`:
/// each lane reads both sources before writing the destination lane, so
/// the aliased case degrades to an in-place update, never a torn read.
#[inline]
fn bin_lanes<T: Copy, const W: usize>(
    regs: &mut [[T; W]],
    dst: usize,
    a: usize,
    b: usize,
    f: impl Fn(T, T) -> T,
) {
    assert!(dst < regs.len() && a < regs.len() && b < regs.len());
    let p = regs.as_mut_ptr();
    for l in 0..W {
        unsafe {
            let av = (*p.add(a))[l];
            let bv = (*p.add(b))[l];
            (*p.add(dst))[l] = f(av, bv);
        }
    }
}

/// Masked variant of [`bin_lanes`]: inactive lanes keep their previous
/// destination value (and `f` is never applied to their garbage inputs).
#[inline]
fn bin_lanes_masked<T: Copy, const W: usize>(
    regs: &mut [[T; W]],
    dst: usize,
    a: usize,
    b: usize,
    mask: &[bool; W],
    f: impl Fn(T, T) -> T,
) {
    assert!(dst < regs.len() && a < regs.len() && b < regs.len());
    let p = regs.as_mut_ptr();
    for (l, &m) in mask.iter().enumerate() {
        if m {
            unsafe {
                let av = (*p.add(a))[l];
                let bv = (*p.add(b))[l];
                (*p.add(dst))[l] = f(av, bv);
            }
        }
    }
}

/// `regs[dst][l] = f(regs[a][l])` for every lane; same aliasing contract
/// as [`bin_lanes`].
#[inline]
fn un_lanes<T: Copy, const W: usize>(
    regs: &mut [[T; W]],
    dst: usize,
    a: usize,
    f: impl Fn(T) -> T,
) {
    assert!(dst < regs.len() && a < regs.len());
    let p = regs.as_mut_ptr();
    for l in 0..W {
        unsafe {
            let av = (*p.add(a))[l];
            (*p.add(dst))[l] = f(av);
        }
    }
}

/// Executes a program for one warp.
///
/// `ir`/`fr` are the caller's lane register files, reused from call to
/// call: they only grow, to the largest program they have served, so a
/// caller that keeps them across warps and phases allocates them once.
/// `vars` is the caller-owned variable frame (one
/// lane vector per program variable); it persists across calls so
/// multi-phase kernels keep loop-variable state between barrier-delimited
/// phases. `mask` is the warp's
/// entry mask (lanes beyond the launch extent are inactive). With
/// `classes`, every dispatched instruction is additionally tallied by
/// class (one count per warp dispatch, the same granularity as
/// [`WarpHost::issue`]); the GPU simulator passes it when
/// `TIRAMISU_PROFILE` is on.
///
/// # Errors
///
/// [`crate::Error::OutOfBounds`] surfaced from the host's load/store
/// callbacks.
///
/// # Panics
///
/// Integer division/remainder by zero (or `i64::MIN` overflow cases) in
/// an *active* lane panics, exactly as the scalar interpreter does.
pub fn exec_warp<const W: usize, H: WarpHost<W>>(
    bc: &BcProgram,
    ir: &mut Vec<[i64; W]>,
    fr: &mut Vec<[f32; W]>,
    vars: &mut [[i64; W]],
    mask: &[bool; W],
    host: &mut H,
    classes: Option<&mut InstClassCounts>,
) -> Result<()> {
    if ir.len() < bc.n_iregs as usize {
        ir.resize(bc.n_iregs as usize, [0; W]);
    }
    if fr.len() < bc.n_fregs as usize {
        fr.resize(bc.n_fregs as usize, [0.0; W]);
    }
    let mut ctx = WarpCtx { ir, fr, vars, host, classes };
    run_insts(&bc.prologue, mask, &mut ctx)?;
    exec_block(&bc.body, mask, &mut ctx)
}

/// Runs straight-line instructions under `mask` (a prologue, preamble,
/// bound or statement block).
pub(crate) fn run_insts<const W: usize, H: WarpHost<W>>(
    insts: &[Inst],
    mask: &[bool; W],
    ctx: &mut WarpCtx<'_, W, H>,
) -> Result<()> {
    if let Some(c) = ctx.classes.as_deref_mut() {
        c.count(insts);
    }
    // Fully-active warps (the common case away from boundary blocks) take
    // branch-free per-lane loops the compiler can vectorize.
    let full = mask.iter().all(|&m| m);
    for inst in insts {
        ctx.host.issue();
        match *inst {
            Inst::ConstI { dst, v } => ctx.ir[dst as usize] = [v; W],
            Inst::ConstF { dst, v } => ctx.fr[dst as usize] = [v; W],
            Inst::ReadVar { dst, var } => ctx.ir[dst as usize] = ctx.vars[var as usize],
            Inst::Load { dst, buf, idx } => {
                let v = ctx.host.load(buf, &ctx.ir[idx as usize], mask)?;
                ctx.fr[dst as usize] = v;
            }
            Inst::BinI { dst, op, a, b } => {
                ctx.host.binop(false);
                let (dst, a, b) = (dst as usize, a as usize, b as usize);
                if full {
                    bin_lanes(ctx.ir, dst, a, b, |x, y| apply_i(op, x, y));
                } else {
                    bin_lanes_masked(ctx.ir, dst, a, b, mask, |x, y| apply_i(op, x, y));
                }
            }
            Inst::BinF { dst, op, a, b } => {
                ctx.host.binop(true);
                bin_lanes(ctx.fr, dst as usize, a as usize, b as usize, |x, y| {
                    apply_f(op, x, y)
                });
            }
            Inst::CmpI { dst, op, a, b } => {
                bin_lanes(ctx.ir, dst as usize, a as usize, b as usize, |x, y| {
                    cmp_i(op, x, y)
                });
            }
            Inst::CmpF { dst, op, a, b } => {
                let a = &ctx.fr[a as usize];
                let b = &ctx.fr[b as usize];
                let out = &mut ctx.ir[dst as usize];
                for l in 0..W {
                    out[l] = cmp_f(op, a[l], b[l]);
                }
            }
            Inst::UnI { dst, op, a } => {
                // `neg`/`abs` can overflow on i64::MIN: apply them only to
                // active lanes so garbage in inactive lanes never traps.
                let trapping = matches!(op, UnOp::Neg | UnOp::Abs);
                if full || !trapping {
                    un_lanes(ctx.ir, dst as usize, a as usize, |x| apply_un_i(op, x));
                } else {
                    bin_lanes_masked(ctx.ir, dst as usize, a as usize, a as usize, mask, |x, _| {
                        apply_un_i(op, x)
                    });
                }
            }
            Inst::UnF { dst, op, a } => {
                un_lanes(ctx.fr, dst as usize, a as usize, |x| apply_un_f(op, x));
            }
            Inst::SelI { dst, c, a, b } => {
                // Selects are rare (boundary clamps), so a copy-based
                // select keeps this arm simple.
                let c = ctx.ir[c as usize];
                let a = ctx.ir[a as usize];
                let b = ctx.ir[b as usize];
                let out = &mut ctx.ir[dst as usize];
                for l in 0..W {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
            }
            Inst::SelF { dst, c, a, b } => {
                let c = &ctx.ir[c as usize];
                let a = &ctx.fr[a as usize];
                let b = &ctx.fr[b as usize];
                // Sources live in `fr`, the condition in `ir`; gather into
                // a scratch then write (dst may alias a/b).
                let mut out = [0f32; W];
                for l in 0..W {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.fr[dst as usize] = out;
            }
            Inst::CastIF { dst, a } => {
                let a = &ctx.ir[a as usize];
                let out = &mut ctx.fr[dst as usize];
                for l in 0..W {
                    out[l] = a[l] as f32;
                }
            }
            Inst::CastFI { dst, a } => {
                let a = &ctx.fr[a as usize];
                let out = &mut ctx.ir[dst as usize];
                for l in 0..W {
                    out[l] = a[l] as i64;
                }
            }
        }
    }
    Ok(())
}

/// Runs a statement block under `mask`.
pub(crate) fn exec_block<const W: usize, H: WarpHost<W>>(
    body: &[BcStmt],
    mask: &[bool; W],
    ctx: &mut WarpCtx<'_, W, H>,
) -> Result<()> {
    if !mask.iter().any(|&m| m) {
        return Ok(());
    }
    let full = mask.iter().all(|&m| m);
    for stmt in body {
        match stmt {
            BcStmt::Store { code, buf, idx, val } => {
                run_insts(code, mask, ctx)?;
                let idx = ctx.ir[*idx as usize];
                let val = ctx.fr[*val as usize];
                ctx.host.store(*buf, &idx, &val, mask)?;
            }
            BcStmt::Let { code, var, reg } => {
                run_insts(code, mask, ctx)?;
                let v = ctx.ir[*reg as usize];
                let slot = &mut ctx.vars[*var as usize];
                if full {
                    *slot = v;
                } else {
                    for l in 0..W {
                        if mask[l] {
                            slot[l] = v[l];
                        }
                    }
                }
            }
            BcStmt::If { code, cond, then, else_ } => {
                run_insts(code, mask, ctx)?;
                let c = ctx.ir[*cond as usize];
                let mut then_mask = [false; W];
                let mut else_mask = [false; W];
                for l in 0..W {
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
                    ctx.host.divergence();
                }
                if any_then {
                    exec_block(then, &then_mask, ctx)?;
                }
                if any_else {
                    exec_block(else_, &else_mask, ctx)?;
                }
            }
            BcStmt::For { var, lower, upper, preamble, body, .. } => {
                run_insts(&lower.insts, mask, ctx)?;
                run_insts(&upper.insts, mask, ctx)?;
                let lo = ctx.ir[lower.reg as usize];
                let hi = ctx.ir[upper.reg as usize];
                // The warp iterates the union of the active lanes' ranges;
                // disagreement on bounds is divergence (serialized lanes).
                let mut glo = i64::MAX;
                let mut ghi = i64::MIN;
                let mut uniform = true;
                let mut first: Option<(i64, i64)> = None;
                for l in 0..W {
                    if mask[l] {
                        glo = glo.min(lo[l]);
                        ghi = ghi.max(hi[l]);
                        match first {
                            None => first = Some((lo[l], hi[l])),
                            Some(f) if f != (lo[l], hi[l]) => uniform = false,
                            Some(_) => {}
                        }
                    }
                }
                if uniform {
                    // All active lanes agree on the bounds, so every
                    // iteration's mask is exactly the entry mask — skip
                    // the per-iteration mask rebuild entirely.
                    for v in glo..ghi {
                        let slot = &mut ctx.vars[*var as usize];
                        if full {
                            *slot = [v; W];
                        } else {
                            for l in 0..W {
                                if mask[l] {
                                    slot[l] = v;
                                }
                            }
                        }
                        run_insts(preamble, mask, ctx)?;
                        exec_block(body, mask, ctx)?;
                    }
                    continue;
                }
                ctx.host.divergence();
                for v in glo..ghi {
                    let mut iter_mask = [false; W];
                    let mut any = false;
                    for l in 0..W {
                        if mask[l] && lo[l] <= v && v < hi[l] {
                            iter_mask[l] = true;
                            any = true;
                        }
                    }
                    if !any {
                        continue;
                    }
                    let slot = &mut ctx.vars[*var as usize];
                    for l in 0..W {
                        if iter_mask[l] {
                            slot[l] = v;
                        }
                    }
                    run_insts(preamble, &iter_mask, ctx)?;
                    exec_block(body, &iter_mask, ctx)?;
                }
            }
        }
    }
    Ok(())
}
