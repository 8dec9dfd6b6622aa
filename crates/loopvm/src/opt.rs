//! The optimizing bytecode compiler: [`Program`] expression trees in,
//! flat register [`BcProgram`] out.
//!
//! Four transformations run in one pass over the statement tree, plus a
//! final dead-code sweep:
//!
//! - **constant folding** — operations whose operands are compile-time
//!   constants are evaluated with exactly the runtime semantics
//!   ([`crate::vm::apply_i`] wrapping arithmetic / Euclidean division,
//!   [`crate::vm::apply_f`] IEEE `f32`). Divisions that would trap at
//!   runtime (zero divisor, `i64::MIN / -1`) are *not* folded — the
//!   runtime instruction stays where the tree-walk would have trapped.
//! - **algebraic simplification** — `x+0`, `x*1`, `x*0`, `x-0`, `x-x`,
//!   `x/1`, `x%1`, `min(x,x)`/`max(x,x)` collapse for `i64`; for `f32`
//!   only bit-exact rewrites apply (`x*1.0`, `min/max` of one register,
//!   `select` with equal arms). `x+0.0` is **not** rewritten
//!   (`-0.0 + 0.0 == +0.0` would change sign bits) and `x*0.0` is not
//!   folded (`NaN * 0.0` is `NaN`).
//! - **common-subexpression elimination** — structural value numbering
//!   over registers. Loads value-number within one statement only (a
//!   store in between invalidates nothing *within* a statement, by the
//!   VM's evaluation order), commutative `i64` operators normalize their
//!   operand order first.
//! - **loop-invariant hoisting** — every instruction carries the loop
//!   *level* of its inputs; it is placed in the preamble of that loop
//!   (or the program prologue), not in the statement that mentioned it.
//!   Affine index arithmetic therefore migrates out of inner loops by
//!   construction. Only non-trapping operations hoist: loads and
//!   divisions by non-constant divisors stay pinned at their statement.
//!
//! Two cross-cutting invariants:
//!
//! - a variable re-bound by a `let` inside a loop body is **loop-carried**
//!   — its binding is demoted to a frame read for the whole body before
//!   compilation, so iteration N observes iteration N-1's value exactly
//!   like the tree-walk (a stale outer register would repeat iteration
//!   0's value forever);
//! - the dead-code sweep never removes an instruction that can trap
//!   (`Inst::can_trap`): a fault stays exactly where the tree-walk
//!   reference — which evaluates every operand, including discarded
//!   select arms — would have faulted.
//!
//! The legality argument for all of this is spelled out in `DESIGN.md` §10.

use crate::bytecode::{BCode, BcProgram, BcStmt, File, Inst, OptStats, Reg};
use crate::expr::{BinOp, Expr, Ty, UnOp};
use crate::program::{Program, Stmt};
use crate::vm::{apply_f, apply_i, apply_un_f, apply_un_i, cmp_f, cmp_i};
use crate::{Error, Result};
use std::collections::HashMap;

/// Sentinel level for instructions pinned to their statement (loads,
/// potentially-trapping divisions, frame reads of mutable variables).
const LOCAL: u16 = u16::MAX;

/// Compiles and optimizes a whole program.
///
/// # Errors
///
/// [`Error::Type`] on the same operand mismatches the stack compiler
/// rejects, [`Error::Structure`] if a program exhausts the 16-bit
/// register file.
pub fn compile_program(p: &Program) -> Result<BcProgram> {
    let body = p.body();
    let mut em = Emitter {
        sinks: vec![Vec::new()],
        vn: HashMap::new(),
        const_i: HashMap::new(),
        const_f: HashMap::new(),
        bind: vec![Bind::Frame; p.n_vars()],
        n_iregs: 0,
        n_fregs: 0,
        stats: OptStats { tree_nodes: count_body_nodes(body), ..OptStats::default() },
    };
    let bc_body = em.emit_block(body)?;
    let mut bc = BcProgram {
        prologue: em.sinks.pop().expect("prologue sink"),
        body: bc_body,
        n_iregs: em.n_iregs,
        n_fregs: em.n_fregs,
        n_vars: p.n_vars(),
        var_names: p.vars.clone(),
        stats: em.stats,
    };
    dce(&mut bc);
    bc.stats.insts = bc.n_insts();
    Ok(bc)
}

fn count_expr_nodes(e: &Expr) -> usize {
    1 + match e {
        Expr::ConstF(_) | Expr::ConstI(_) | Expr::Var(_) => 0,
        Expr::Load(_, i) => count_expr_nodes(i),
        Expr::Bin(_, a, b) => count_expr_nodes(a) + count_expr_nodes(b),
        Expr::Un(_, a) | Expr::Cast(_, a) => count_expr_nodes(a),
        Expr::Select(c, a, b) => {
            count_expr_nodes(c) + count_expr_nodes(a) + count_expr_nodes(b)
        }
    }
}

fn count_body_nodes(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::For { lower, upper, body, .. } => {
                count_expr_nodes(lower) + count_expr_nodes(upper) + count_body_nodes(body)
            }
            Stmt::If { cond, then, else_ } => {
                count_expr_nodes(cond) + count_body_nodes(then) + count_body_nodes(else_)
            }
            Stmt::Store { index, value, .. } => {
                count_expr_nodes(index) + count_expr_nodes(value)
            }
            Stmt::Let { value, .. } => count_expr_nodes(value),
        })
        .sum()
}

/// Compile-time knowledge about one variable slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bind {
    /// Value only known from the frame at runtime: read at the statement.
    Frame,
    /// The running variable of the loop at this depth: read once per
    /// iteration, in that loop's preamble.
    LoopVar(u16),
    /// Bound by a `let` in straight-line scope: reads resolve directly to
    /// the register (enabling hoisting of arithmetic on it).
    Reg(Reg, u16),
}

/// Structural value-numbering key. Register operands are SSA, so equal
/// keys denote equal values (loads are special-cased to statement scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    ConstI(i64),
    ConstF(u32),
    ReadVar(u32),
    Load(u32, Reg),
    BinI(BinOp, Reg, Reg),
    BinF(BinOp, Reg, Reg),
    CmpI(BinOp, Reg, Reg),
    CmpF(BinOp, Reg, Reg),
    UnI(UnOp, Reg),
    UnF(UnOp, Reg),
    SelI(Reg, Reg, Reg),
    SelF(Reg, Reg, Reg),
    CastIF(Reg),
    CastFI(Reg),
}

/// Per-statement compilation state: the pinned instruction list and the
/// statement-scoped value numbers (loads and frame reads).
struct Local {
    code: Vec<Inst>,
    vn: HashMap<Key, Reg>,
}

impl Local {
    fn new() -> Local {
        Local { code: Vec::new(), vn: HashMap::new() }
    }
}

struct Emitter {
    /// `sinks[0]` is the prologue; `sinks[d]` the preamble of the loop at
    /// depth `d` currently being compiled.
    sinks: Vec<Vec<Inst>>,
    /// Hoistable value numbers: key -> (register, placement level).
    vn: HashMap<Key, (Reg, u16)>,
    /// Known-constant `i64` registers.
    const_i: HashMap<Reg, i64>,
    /// Known-constant `f32` registers (bit patterns).
    const_f: HashMap<Reg, u32>,
    bind: Vec<Bind>,
    n_iregs: u16,
    n_fregs: u16,
    stats: OptStats,
}

impl Emitter {
    fn depth(&self) -> u16 {
        (self.sinks.len() - 1) as u16
    }

    fn alloc(&mut self, file: File) -> Result<Reg> {
        let ctr = match file {
            File::I => &mut self.n_iregs,
            File::F => &mut self.n_fregs,
        };
        if *ctr == u16::MAX {
            return Err(Error::Structure("bytecode register file overflow".into()));
        }
        let r = *ctr;
        *ctr += 1;
        Ok(r)
    }

    /// Emits (or reuses) one instruction at `level`, returning its result
    /// register. `make` builds the instruction given a fresh destination.
    fn emit(
        &mut self,
        key: Key,
        level: u16,
        file: File,
        local: &mut Local,
        make: impl FnOnce(Reg) -> Inst,
    ) -> Result<Reg> {
        if level == LOCAL {
            if let Some(&r) = local.vn.get(&key) {
                self.stats.cse_hits += 1;
                return Ok(r);
            }
        } else if let Some(&(r, _)) = self.vn.get(&key) {
            self.stats.cse_hits += 1;
            return Ok(r);
        }
        let dst = self.alloc(file)?;
        let inst = make(dst);
        if level == LOCAL {
            local.vn.insert(key, dst);
            local.code.push(inst);
        } else {
            self.vn.insert(key, (dst, level));
            let is_const = matches!(key, Key::ConstI(_) | Key::ConstF(_));
            if level < self.depth() && !is_const {
                self.stats.hoisted += 1;
            }
            self.sinks[level as usize].push(inst);
        }
        Ok(dst)
    }

    fn const_i(&mut self, v: i64) -> Result<Reg> {
        let r = self.emit(Key::ConstI(v), 0, File::I, &mut Local::new(), |dst| {
            Inst::ConstI { dst, v }
        })?;
        self.const_i.insert(r, v);
        Ok(r)
    }

    fn const_f(&mut self, v: f32) -> Result<Reg> {
        let r = self.emit(Key::ConstF(v.to_bits()), 0, File::F, &mut Local::new(), |dst| {
            Inst::ConstF { dst, v }
        })?;
        self.const_f.insert(r, v.to_bits());
        Ok(r)
    }

    fn as_const_i(&self, r: Reg) -> Option<i64> {
        self.const_i.get(&r).copied()
    }

    fn as_const_f(&self, r: Reg) -> Option<f32> {
        self.const_f.get(&r).copied().map(f32::from_bits)
    }

    /// Emits code for an expression; returns `(register, type, level)`.
    fn expr(&mut self, e: &Expr, local: &mut Local) -> Result<(Reg, Ty, u16)> {
        match e {
            Expr::ConstF(v) => Ok((self.const_f(*v)?, Ty::F32, 0)),
            Expr::ConstI(v) => Ok((self.const_i(*v)?, Ty::I64, 0)),
            Expr::Var(v) => match self.bind[v.index()] {
                Bind::Reg(r, lvl) => Ok((r, Ty::I64, lvl)),
                Bind::LoopVar(d) => {
                    let var = v.0;
                    let r = self.emit(Key::ReadVar(var), d, File::I, local, |dst| {
                        Inst::ReadVar { dst, var }
                    })?;
                    Ok((r, Ty::I64, d))
                }
                Bind::Frame => {
                    let var = v.0;
                    let r = self.emit(Key::ReadVar(var), LOCAL, File::I, local, |dst| {
                        Inst::ReadVar { dst, var }
                    })?;
                    Ok((r, Ty::I64, LOCAL))
                }
            },
            Expr::Load(b, idx) => {
                let (ri, ti, _) = self.expr(idx, local)?;
                if ti != Ty::I64 {
                    return Err(Error::Type("load index must be i64".into()));
                }
                let buf = b.0;
                // Loads are pinned: buffer contents can change between
                // iterations, and a hoisted load could fault where the
                // tree-walk would not.
                let r = self.emit(Key::Load(buf, ri), LOCAL, File::F, local, |dst| {
                    Inst::Load { dst, buf, idx: ri }
                })?;
                Ok((r, Ty::F32, LOCAL))
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b, local),
            Expr::Un(op, a) => self.un(*op, a, local),
            Expr::Select(c, a, b) => {
                let (rc, tc, lc) = self.expr(c, local)?;
                if tc != Ty::I64 {
                    return Err(Error::Type("select condition must be i64".into()));
                }
                let (ra, ta, la) = self.expr(a, local)?;
                let (rb, tb, lb) = self.expr(b, local)?;
                if ta != tb {
                    return Err(Error::Type("select arms disagree".into()));
                }
                if let Some(c) = self.as_const_i(rc) {
                    self.stats.folded += 1;
                    return Ok(if c != 0 { (ra, ta, la) } else { (rb, tb, lb) });
                }
                if ra == rb {
                    // Both arms are the same register: the select is the arm.
                    self.stats.folded += 1;
                    return Ok((ra, ta, la.max(lb)));
                }
                let level = lvl3(lc, la, lb);
                let (key, file) = match ta {
                    Ty::I64 => (Key::SelI(rc, ra, rb), File::I),
                    Ty::F32 => (Key::SelF(rc, ra, rb), File::F),
                };
                let r = self.emit(key, level, file, local, |dst| match ta {
                    Ty::I64 => Inst::SelI { dst, c: rc, a: ra, b: rb },
                    Ty::F32 => Inst::SelF { dst, c: rc, a: ra, b: rb },
                })?;
                Ok((r, ta, level))
            }
            Expr::Cast(t, a) => {
                let (ra, ta, la) = self.expr(a, local)?;
                match (ta, *t) {
                    (Ty::I64, Ty::F32) => {
                        if let Some(v) = self.as_const_i(ra) {
                            self.stats.folded += 1;
                            return Ok((self.const_f(v as f32)?, Ty::F32, 0));
                        }
                        let r = self.emit(Key::CastIF(ra), la, File::F, local, |dst| {
                            Inst::CastIF { dst, a: ra }
                        })?;
                        Ok((r, Ty::F32, la))
                    }
                    (Ty::F32, Ty::I64) => {
                        if let Some(v) = self.as_const_f(ra) {
                            self.stats.folded += 1;
                            return Ok((self.const_i(v as i64)?, Ty::I64, 0));
                        }
                        let r = self.emit(Key::CastFI(ra), la, File::I, local, |dst| {
                            Inst::CastFI { dst, a: ra }
                        })?;
                        Ok((r, Ty::I64, la))
                    }
                    // Identity cast: the value passes through.
                    _ => Ok((ra, ta, la)),
                }
            }
        }
    }

    fn bin(&mut self, op: BinOp, a: &Expr, b: &Expr, local: &mut Local) -> Result<(Reg, Ty, u16)> {
        let (ra, ta, la) = self.expr(a, local)?;
        let (rb, tb, lb) = self.expr(b, local)?;
        if ta != tb {
            return Err(Error::Type(format!("operands of {op:?} disagree")));
        }
        match op {
            BinOp::Lt | BinOp::Le | BinOp::EqCmp => {
                if ta == Ty::F32 {
                    if let (Some(x), Some(y)) = (self.as_const_f(ra), self.as_const_f(rb)) {
                        self.stats.folded += 1;
                        return Ok((self.const_i(cmp_f(op, x, y))?, Ty::I64, 0));
                    }
                    let level = la.max(lb);
                    let r = self.emit(Key::CmpF(op, ra, rb), level, File::I, local, |dst| {
                        Inst::CmpF { dst, op, a: ra, b: rb }
                    })?;
                    Ok((r, Ty::I64, level))
                } else {
                    if let (Some(x), Some(y)) = (self.as_const_i(ra), self.as_const_i(rb)) {
                        self.stats.folded += 1;
                        return Ok((self.const_i(cmp_i(op, x, y))?, Ty::I64, 0));
                    }
                    // EqCmp is symmetric: normalize for value numbering.
                    let (ra, rb) =
                        if op == BinOp::EqCmp && rb < ra { (rb, ra) } else { (ra, rb) };
                    let level = la.max(lb);
                    let r = self.emit(Key::CmpI(op, ra, rb), level, File::I, local, |dst| {
                        Inst::CmpI { dst, op, a: ra, b: rb }
                    })?;
                    Ok((r, Ty::I64, level))
                }
            }
            BinOp::And | BinOp::Or => {
                if ta != Ty::I64 {
                    return Err(Error::Type("logical ops need i64".into()));
                }
                if let (Some(x), Some(y)) = (self.as_const_i(ra), self.as_const_i(rb)) {
                    self.stats.folded += 1;
                    return Ok((self.const_i(apply_i(op, x, y))?, Ty::I64, 0));
                }
                let (ra, rb) = if rb < ra { (rb, ra) } else { (ra, rb) };
                let level = la.max(lb);
                let r = self.emit(Key::BinI(op, ra, rb), level, File::I, local, |dst| {
                    Inst::BinI { dst, op, a: ra, b: rb }
                })?;
                Ok((r, Ty::I64, level))
            }
            _ if ta == Ty::F32 => self.bin_f(op, ra, rb, la, lb, local),
            _ => self.bin_i(op, ra, rb, la, lb, local),
        }
    }

    fn bin_i(
        &mut self,
        op: BinOp,
        ra: Reg,
        rb: Reg,
        la: u16,
        lb: u16,
        local: &mut Local,
    ) -> Result<(Reg, Ty, u16)> {
        let ca = self.as_const_i(ra);
        let cb = self.as_const_i(rb);
        // Full fold — except divisions that would trap at runtime, which
        // keep their instruction (and their trap) in place.
        if let (Some(x), Some(y)) = (ca, cb) {
            let trap = matches!(op, BinOp::Div | BinOp::Rem)
                && (y == 0 || (x == i64::MIN && y == -1));
            if !trap {
                self.stats.folded += 1;
                return Ok((self.const_i(apply_i(op, x, y))?, Ty::I64, 0));
            }
        }
        // Algebraic identities (exact under wrapping semantics).
        let simplified = match (op, ca, cb) {
            (BinOp::Add, Some(0), _) => Some((rb, lb)),
            (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => Some((ra, la)),
            (BinOp::Mul, Some(1), _) => Some((rb, lb)),
            (BinOp::Mul, _, Some(1)) | (BinOp::Div, _, Some(1)) => Some((ra, la)),
            (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => {
                Some((self.const_i(0)?, 0))
            }
            (BinOp::Rem, _, Some(1)) => Some((self.const_i(0)?, 0)),
            (BinOp::Sub, _, _) if ra == rb => Some((self.const_i(0)?, 0)),
            (BinOp::Min | BinOp::Max, _, _) if ra == rb => Some((ra, la)),
            _ => None,
        };
        if let Some((r, lvl)) = simplified {
            self.stats.folded += 1;
            return Ok((r, Ty::I64, lvl));
        }
        // A division only hoists when its constant divisor provably cannot
        // trap; otherwise it stays at the statement, like the tree-walk.
        let level = match op {
            BinOp::Div | BinOp::Rem => match cb {
                Some(d) if d != 0 && d != -1 => la.max(lb),
                _ => LOCAL,
            },
            _ => la.max(lb),
        };
        // Normalize commutative operands for value numbering.
        let (ra, rb) = match op {
            BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max if rb < ra => (rb, ra),
            _ => (ra, rb),
        };
        let r = self.emit(Key::BinI(op, ra, rb), level, File::I, local, |dst| {
            Inst::BinI { dst, op, a: ra, b: rb }
        })?;
        Ok((r, Ty::I64, level))
    }

    fn bin_f(
        &mut self,
        op: BinOp,
        ra: Reg,
        rb: Reg,
        la: u16,
        lb: u16,
        local: &mut Local,
    ) -> Result<(Reg, Ty, u16)> {
        let ca = self.as_const_f(ra);
        let cb = self.as_const_f(rb);
        if let (Some(x), Some(y)) = (ca, cb) {
            self.stats.folded += 1;
            return Ok((self.const_f(apply_f(op, x, y))?, Ty::F32, 0));
        }
        // Only bit-exact f32 rewrites: multiplication/division by exactly
        // 1.0, and min/max/collapse of one register. `x + 0.0` is NOT the
        // identity (`-0.0 + 0.0 == +0.0`) and `x * 0.0` is not 0 (NaN).
        let one = 1.0f32;
        let simplified = match (op, ca, cb) {
            (BinOp::Mul, Some(c), _) if c == one => Some((rb, lb)),
            (BinOp::Mul, _, Some(c)) | (BinOp::Div, _, Some(c)) if c == one => {
                Some((ra, la))
            }
            (BinOp::Min | BinOp::Max, _, _) if ra == rb => Some((ra, la)),
            _ => None,
        };
        if let Some((r, lvl)) = simplified {
            self.stats.folded += 1;
            return Ok((r, Ty::F32, lvl));
        }
        // f32 operators are non-commutative bit-wise (NaN payloads), so no
        // operand normalization.
        let level = la.max(lb);
        let r = self.emit(Key::BinF(op, ra, rb), level, File::F, local, |dst| {
            Inst::BinF { dst, op, a: ra, b: rb }
        })?;
        Ok((r, Ty::F32, level))
    }

    fn un(&mut self, op: UnOp, a: &Expr, local: &mut Local) -> Result<(Reg, Ty, u16)> {
        let (ra, ta, la) = self.expr(a, local)?;
        match (op, ta) {
            (UnOp::Sqrt | UnOp::Exp, Ty::I64) => {
                Err(Error::Type(format!("{op:?} needs f32")))
            }
            (UnOp::Not, Ty::F32) => Err(Error::Type("not needs i64".into())),
            (_, Ty::F32) => {
                if let Some(v) = self.as_const_f(ra) {
                    self.stats.folded += 1;
                    return Ok((self.const_f(apply_un_f(op, v))?, Ty::F32, 0));
                }
                let r = self.emit(Key::UnF(op, ra), la, File::F, local, |dst| {
                    Inst::UnF { dst, op, a: ra }
                })?;
                Ok((r, Ty::F32, la))
            }
            (_, Ty::I64) => {
                if let Some(v) = self.as_const_i(ra) {
                    // Neg/Abs of i64::MIN trap in debug builds: leave the
                    // instruction in place like the tree-walk would.
                    if v != i64::MIN || op == UnOp::Not {
                        self.stats.folded += 1;
                        return Ok((self.const_i(apply_un_i(op, v))?, Ty::I64, 0));
                    }
                }
                // Pinned: `-i64::MIN` / `abs(i64::MIN)` panic in debug
                // builds, so speculating them out of a guard is unsound.
                let r = self.emit(Key::UnI(op, ra), LOCAL, File::I, local, |dst| {
                    Inst::UnI { dst, op, a: ra }
                })?;
                Ok((r, Ty::I64, LOCAL))
            }
        }
    }

    fn emit_block(&mut self, body: &[Stmt]) -> Result<Vec<BcStmt>> {
        body.iter().map(|s| self.emit_stmt(s)).collect()
    }

    fn emit_stmt(&mut self, s: &Stmt) -> Result<BcStmt> {
        match s {
            Stmt::Let { var, value } => {
                let mut local = Local::new();
                let (r, ty, lvl) = self.expr(value, &mut local)?;
                if ty != Ty::I64 {
                    return Err(Error::Type("let binds i64 values".into()));
                }
                self.bind[var.index()] = Bind::Reg(r, lvl);
                Ok(BcStmt::Let { code: local.code, var: var.0, reg: r })
            }
            Stmt::Store { buf, index, value } => {
                let mut local = Local::new();
                let (ri, ti, _) = self.expr(index, &mut local)?;
                if ti != Ty::I64 {
                    return Err(Error::Type("store index must be i64".into()));
                }
                let (rv, tv, _) = self.expr(value, &mut local)?;
                if tv != Ty::F32 {
                    return Err(Error::Type("store value must be f32".into()));
                }
                Ok(BcStmt::Store { code: local.code, buf: buf.0, idx: ri, val: rv })
            }
            Stmt::If { cond, then, else_ } => {
                let mut local = Local::new();
                let (rc, tc, _) = self.expr(cond, &mut local)?;
                if tc != Ty::I64 {
                    return Err(Error::Type("if condition must be i64".into()));
                }
                let snap = self.bind.clone();
                let then_bc = self.emit_block(then)?;
                let mut changed = diff(&snap, &self.bind);
                self.bind.clone_from(&snap);
                let else_bc = self.emit_block(else_)?;
                changed.extend(diff(&snap, &self.bind));
                self.bind = snap;
                // A variable re-bound in either branch is only known from
                // the frame afterwards.
                for v in changed {
                    self.bind[v] = Bind::Frame;
                }
                Ok(BcStmt::If { code: local.code, cond: rc, then: then_bc, else_: else_bc })
            }
            Stmt::For { var, lower, upper, kind, body } => {
                let mut lo_local = Local::new();
                let (rlo, tlo, _) = self.expr(lower, &mut lo_local)?;
                let mut hi_local = Local::new();
                let (rhi, thi, _) = self.expr(upper, &mut hi_local)?;
                if tlo != Ty::I64 || thi != Ty::I64 {
                    return Err(Error::Type("loop bounds must be i64".into()));
                }
                let snap = self.bind.clone();
                self.sinks.push(Vec::new());
                // A variable re-bound by a `let` anywhere in the body is
                // loop-carried: its value in iteration N can depend on
                // iteration N-1, so reads inside the body must resolve
                // through the frame (which every `let` writes at runtime),
                // never through a stale outer register binding.
                for slot in let_targets(body) {
                    self.bind[slot] = Bind::Frame;
                }
                self.bind[var.index()] = Bind::LoopVar(self.depth());
                // A nested loop reusing an outer loop's variable slot must
                // not value-number to the outer loop's per-iteration read.
                self.vn.remove(&Key::ReadVar(var.0));
                let body_bc = self.emit_block(body)?;
                let preamble = self.sinks.pop().expect("loop sink");
                // Registers defined per-iteration die with the loop.
                let exited = self.sinks.len() as u16;
                self.vn.retain(|_, &mut (_, lvl)| lvl < exited);
                let changed = diff(&snap, &self.bind);
                self.bind = snap;
                for v in changed {
                    self.bind[v] = Bind::Frame;
                }
                Ok(BcStmt::For {
                    var: var.0,
                    lower: BCode { insts: lo_local.code, reg: rlo },
                    upper: BCode { insts: hi_local.code, reg: rhi },
                    kind: *kind,
                    preamble,
                    body: body_bc,
                })
            }
        }
    }
}

fn lvl3(a: u16, b: u16, c: u16) -> u16 {
    a.max(b).max(c)
}

/// Frame slots re-bound by a `let` anywhere in `body`, recursively.
fn let_targets(body: &[Stmt]) -> Vec<usize> {
    fn walk(body: &[Stmt], out: &mut Vec<usize>) {
        for s in body {
            match s {
                Stmt::Let { var, .. } => out.push(var.index()),
                Stmt::For { body, .. } => walk(body, out),
                Stmt::If { then, else_, .. } => {
                    walk(then, out);
                    walk(else_, out);
                }
                Stmt::Store { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(body, &mut out);
    out
}

/// Variable slots whose binding differs between two snapshots.
fn diff(old: &[Bind], new: &[Bind]) -> Vec<usize> {
    old.iter()
        .zip(new.iter())
        .enumerate()
        .filter(|(_, (o, n))| o != n)
        .map(|(i, _)| i)
        .collect()
}

// ---------------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------------

/// Mark-and-sweep over the SSA def graph: statement roots (store
/// index/value, let values, conditions, bounds) keep their transitive
/// operand chains; everything else is dropped — *except* instructions
/// that can trap (loads, divisions, `neg`/`abs`), which stay even when a
/// fold made their value dead. The tree-walk reference evaluates every
/// operand (both select arms, both sides of `x*0`), so an out-of-bounds
/// load or zero divisor discarded by a fold must still fault here too.
fn dce(bc: &mut BcProgram) {
    let mut defs: HashMap<(File, Reg), Inst> = HashMap::new();
    collect_defs(&bc.prologue, &mut defs);
    collect_defs_body(&bc.body, &mut defs);

    let mut live: std::collections::HashSet<(File, Reg)> = std::collections::HashSet::new();
    let mut work: Vec<(File, Reg)> = Vec::new();
    roots(&bc.body, &mut work);
    for (k, inst) in &defs {
        if inst.can_trap() {
            work.push(*k);
        }
    }
    while let Some(k) = work.pop() {
        if !live.insert(k) {
            continue;
        }
        if let Some(inst) = defs.get(&k) {
            for s in inst.srcs().into_iter().flatten() {
                work.push(s);
            }
        }
    }

    let removed = &mut bc.stats.dce_removed;
    sweep(&mut bc.prologue, &live, removed);
    sweep_body(&mut bc.body, &live, removed);
}

fn collect_defs(insts: &[Inst], defs: &mut HashMap<(File, Reg), Inst>) {
    for i in insts {
        defs.insert(i.dst(), *i);
    }
}

fn collect_defs_body(body: &[BcStmt], defs: &mut HashMap<(File, Reg), Inst>) {
    for s in body {
        match s {
            BcStmt::For { lower, upper, preamble, body, .. } => {
                collect_defs(&lower.insts, defs);
                collect_defs(&upper.insts, defs);
                collect_defs(preamble, defs);
                collect_defs_body(body, defs);
            }
            BcStmt::If { code, then, else_, .. } => {
                collect_defs(code, defs);
                collect_defs_body(then, defs);
                collect_defs_body(else_, defs);
            }
            BcStmt::Store { code, .. } | BcStmt::Let { code, .. } => collect_defs(code, defs),
        }
    }
}

fn roots(body: &[BcStmt], work: &mut Vec<(File, Reg)>) {
    for s in body {
        match s {
            BcStmt::For { lower, upper, body, .. } => {
                work.push((File::I, lower.reg));
                work.push((File::I, upper.reg));
                roots(body, work);
            }
            BcStmt::If { cond, then, else_, .. } => {
                work.push((File::I, *cond));
                roots(then, work);
                roots(else_, work);
            }
            BcStmt::Store { idx, val, .. } => {
                work.push((File::I, *idx));
                work.push((File::F, *val));
            }
            BcStmt::Let { reg, .. } => work.push((File::I, *reg)),
        }
    }
}

fn sweep(insts: &mut Vec<Inst>, live: &std::collections::HashSet<(File, Reg)>, removed: &mut usize) {
    let before = insts.len();
    insts.retain(|i| live.contains(&i.dst()));
    *removed += before - insts.len();
}

fn sweep_body(
    body: &mut [BcStmt],
    live: &std::collections::HashSet<(File, Reg)>,
    removed: &mut usize,
) {
    for s in body {
        match s {
            BcStmt::For { lower, upper, preamble, body, .. } => {
                sweep(&mut lower.insts, live, removed);
                sweep(&mut upper.insts, live, removed);
                sweep(preamble, live, removed);
                sweep_body(body, live, removed);
            }
            BcStmt::If { code, then, else_, .. } => {
                sweep(code, live, removed);
                sweep_body(then, live, removed);
                sweep_body(else_, live, removed);
            }
            BcStmt::Store { code, .. } | BcStmt::Let { code, .. } => {
                sweep(code, live, removed)
            }
        }
    }
}
