//! Binary codec for [`Program`] and [`BcProgram`] — the loopvm half of
//! the persistent artifact format (see the `artifacts` crate for the
//! container and DESIGN.md §13 for the layout).
//!
//! The codec lives in this crate on purpose: [`BcProgram`]'s internals
//! are deliberately not constructible from outside (`crate::bytecode`),
//! so deserialization must happen where the executor's invariants can be
//! re-established. Decoding therefore *validates* everything the
//! optimizer normally guarantees — register indices within the declared
//! files, variable slots within the frame, buffer ids within the
//! program's table — and rejects anything else with a
//! [`WireError`](artifacts::WireError)
//! instead of handing the trusting executor an out-of-range index.
//!
//! A program's memoised compiled form ([`Program::compiled`]) is not part
//! of its encoding: bytecode travels as its own [`encode_bc`] record, and
//! [`decode_bc_into`] is the one way to put decoded bytecode back into a
//! program's slot.

use crate::bytecode::{number_loop, BCode, BcProgram, BcStmt, Inst, OptStats};
use crate::expr::{BinOp, Expr, Ty, UnOp, Var};
use crate::program::{BufId, LoopKind, Program, Stmt};
use artifacts::wire::{malformed, Reader, Writer};

/// Result alias for decoding.
pub type Result<T> = std::result::Result<T, artifacts::WireError>;

// ---------------------------------------------------------------------------
// Program / Stmt / Expr
// ---------------------------------------------------------------------------

/// Serializes a program: declaration tables, then the body.
pub fn encode_program(p: &Program, w: &mut Writer) {
    encode_decls(p, w);
    encode_stmts(p.body(), w);
}

/// Deserializes a program built by [`encode_program`].
pub fn decode_program(r: &mut Reader<'_>) -> Result<Program> {
    let mut p = decode_decls(r)?;
    let body = decode_stmts(r, &p)?;
    p.set_body(body);
    Ok(p)
}

/// Serializes a program's buffer and variable tables without its body
/// (GPU kernel phases share one set of declarations).
pub fn encode_decls(p: &Program, w: &mut Writer) {
    w.usize(p.n_buffers());
    for i in 0..p.n_buffers() {
        let (name, size) = p.buffer_info(p.nth_buffer(i));
        w.str(name);
        w.usize(size);
    }
    w.usize(p.n_vars());
    for name in &p.vars {
        w.str(name);
    }
}

/// Deserializes the declarations [`encode_decls`] wrote into a program
/// with an empty body.
pub fn decode_decls(r: &mut Reader<'_>) -> Result<Program> {
    let mut p = Program::new();
    let n_bufs = r.len(2)?;
    for _ in 0..n_bufs {
        let name = r.str()?;
        let size = r.usize()?;
        p.buffer(&name, size);
    }
    let n_vars = r.len(2)?;
    for _ in 0..n_vars {
        let name = r.str()?;
        p.var(&name);
    }
    Ok(p)
}

/// Serializes a statement list (used standalone for the distributed
/// backend's preamble/compute chunks, which live outside `Program::body`).
pub fn encode_stmts(stmts: &[Stmt], w: &mut Writer) {
    w.usize(stmts.len());
    for s in stmts {
        encode_stmt(s, w);
    }
}

/// Deserializes a statement list, validating every variable and buffer
/// reference against `p`'s declaration tables.
pub fn decode_stmts(r: &mut Reader<'_>, p: &Program) -> Result<Vec<Stmt>> {
    let n = r.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_stmt(r, p)?);
    }
    Ok(out)
}

fn encode_stmt(s: &Stmt, w: &mut Writer) {
    match s {
        Stmt::For { var, lower, upper, kind, body } => {
            w.u8(0);
            encode_var(*var, w);
            encode_expr(lower, w);
            encode_expr(upper, w);
            encode_loop_kind(*kind, w);
            encode_stmts(body, w);
        }
        Stmt::If { cond, then, else_ } => {
            w.u8(1);
            encode_expr(cond, w);
            encode_stmts(then, w);
            encode_stmts(else_, w);
        }
        Stmt::Store { buf, index, value } => {
            w.u8(2);
            w.u32(buf.0);
            encode_expr(index, w);
            encode_expr(value, w);
        }
        Stmt::Let { var, value } => {
            w.u8(3);
            encode_var(*var, w);
            encode_expr(value, w);
        }
    }
}

fn decode_stmt(r: &mut Reader<'_>, p: &Program) -> Result<Stmt> {
    Ok(match r.u8()? {
        0 => Stmt::For {
            var: decode_var(r, p)?,
            lower: decode_expr(r, p)?,
            upper: decode_expr(r, p)?,
            kind: decode_loop_kind(r)?,
            body: decode_stmts(r, p)?,
        },
        1 => Stmt::If {
            cond: decode_expr(r, p)?,
            then: decode_stmts(r, p)?,
            else_: decode_stmts(r, p)?,
        },
        2 => Stmt::Store {
            buf: decode_buf(r, p)?,
            index: decode_expr(r, p)?,
            value: decode_expr(r, p)?,
        },
        3 => Stmt::Let { var: decode_var(r, p)?, value: decode_expr(r, p)? },
        t => return Err(malformed(format!("unknown Stmt tag {t}"))),
    })
}

/// Serializes an expression tree.
pub fn encode_expr(e: &Expr, w: &mut Writer) {
    match e {
        Expr::ConstF(v) => {
            w.u8(0);
            w.f32(*v);
        }
        Expr::ConstI(v) => {
            w.u8(1);
            w.i64(*v);
        }
        Expr::Var(v) => {
            w.u8(2);
            encode_var(*v, w);
        }
        Expr::Load(b, i) => {
            w.u8(3);
            w.u32(b.0);
            encode_expr(i, w);
        }
        Expr::Bin(op, a, b) => {
            w.u8(4);
            w.u8(bin_op_tag(*op));
            encode_expr(a, w);
            encode_expr(b, w);
        }
        Expr::Un(op, a) => {
            w.u8(5);
            w.u8(un_op_tag(*op));
            encode_expr(a, w);
        }
        Expr::Select(c, a, b) => {
            w.u8(6);
            encode_expr(c, w);
            encode_expr(a, w);
            encode_expr(b, w);
        }
        Expr::Cast(t, a) => {
            w.u8(7);
            w.u8(match t {
                Ty::I64 => 0,
                Ty::F32 => 1,
            });
            encode_expr(a, w);
        }
    }
}

/// Deserializes an expression, validating variable/buffer references
/// against `p`.
pub fn decode_expr(r: &mut Reader<'_>, p: &Program) -> Result<Expr> {
    Ok(match r.u8()? {
        0 => Expr::ConstF(r.f32()?),
        1 => Expr::ConstI(r.i64()?),
        2 => Expr::Var(decode_var(r, p)?),
        3 => Expr::Load(decode_buf(r, p)?, Box::new(decode_expr(r, p)?)),
        4 => {
            let op = decode_bin_op(r)?;
            Expr::Bin(op, Box::new(decode_expr(r, p)?), Box::new(decode_expr(r, p)?))
        }
        5 => {
            let op = decode_un_op(r)?;
            Expr::Un(op, Box::new(decode_expr(r, p)?))
        }
        6 => Expr::Select(
            Box::new(decode_expr(r, p)?),
            Box::new(decode_expr(r, p)?),
            Box::new(decode_expr(r, p)?),
        ),
        7 => {
            let t = match r.u8()? {
                0 => Ty::I64,
                1 => Ty::F32,
                t => return Err(malformed(format!("unknown Ty tag {t}"))),
            };
            Expr::Cast(t, Box::new(decode_expr(r, p)?))
        }
        t => return Err(malformed(format!("unknown Expr tag {t}"))),
    })
}

/// Serializes a variable slot reference.
pub fn encode_var(v: Var, w: &mut Writer) {
    w.u32(v.0);
}

/// Deserializes a variable slot, validated against `p`'s frame size.
pub fn decode_var(r: &mut Reader<'_>, p: &Program) -> Result<Var> {
    let i = r.u32()?;
    if (i as usize) < p.n_vars() {
        Ok(Var(i))
    } else {
        Err(malformed(format!("var slot {i} out of range ({} declared)", p.n_vars())))
    }
}

fn decode_buf(r: &mut Reader<'_>, p: &Program) -> Result<BufId> {
    let i = r.u32()?;
    if (i as usize) < p.n_buffers() {
        Ok(BufId(i))
    } else {
        Err(malformed(format!("buffer {i} out of range ({} declared)", p.n_buffers())))
    }
}

/// Serializes a loop-kind annotation.
pub fn encode_loop_kind(k: LoopKind, w: &mut Writer) {
    match k {
        LoopKind::Serial => w.u8(0),
        LoopKind::Parallel => w.u8(1),
        LoopKind::Vectorize(width) => {
            w.u8(2);
            w.usize(width);
        }
        LoopKind::Unroll(factor) => {
            w.u8(3);
            w.usize(factor);
        }
    }
}

/// Deserializes a loop-kind annotation.
pub fn decode_loop_kind(r: &mut Reader<'_>) -> Result<LoopKind> {
    Ok(match r.u8()? {
        0 => LoopKind::Serial,
        1 => LoopKind::Parallel,
        2 => LoopKind::Vectorize(r.usize()?),
        3 => LoopKind::Unroll(r.usize()?),
        t => return Err(malformed(format!("unknown LoopKind tag {t}"))),
    })
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Min => 5,
        BinOp::Max => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::EqCmp => 9,
        BinOp::And => 10,
        BinOp::Or => 11,
    }
}

fn decode_bin_op(r: &mut Reader<'_>) -> Result<BinOp> {
    Ok(match r.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Min,
        6 => BinOp::Max,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::EqCmp,
        10 => BinOp::And,
        11 => BinOp::Or,
        t => return Err(malformed(format!("unknown BinOp tag {t}"))),
    })
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Abs => 1,
        UnOp::Sqrt => 2,
        UnOp::Exp => 3,
        UnOp::Not => 4,
    }
}

fn decode_un_op(r: &mut Reader<'_>) -> Result<UnOp> {
    Ok(match r.u8()? {
        0 => UnOp::Neg,
        1 => UnOp::Abs,
        2 => UnOp::Sqrt,
        3 => UnOp::Exp,
        4 => UnOp::Not,
        t => return Err(malformed(format!("unknown UnOp tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// BcProgram
// ---------------------------------------------------------------------------

/// Serializes an optimized bytecode program.
pub fn encode_bc(bc: &BcProgram, w: &mut Writer) {
    w.u16(bc.n_iregs);
    w.u16(bc.n_fregs);
    w.usize(bc.n_vars);
    w.usize(bc.var_names.len());
    for n in &bc.var_names {
        w.str(n);
    }
    let s = bc.stats;
    for v in [s.tree_nodes, s.insts, s.folded, s.cse_hits, s.hoisted, s.dce_removed] {
        w.usize(v);
    }
    encode_insts(&bc.prologue, w);
    encode_bc_block(&bc.body, w);
}

/// Deserializes a bytecode program, re-establishing the executor's trust
/// invariants: every register operand is checked against the declared
/// file sizes, the frame against `p`'s variables, every buffer id against
/// `p`'s buffer table, and the program is strict SSA — one definition per
/// register, dominating every read (`BcProgram::check_ssa`; the
/// optimizer emits nothing else and the JIT's register facts rely on it).
/// A program that breaks any of these is a [`WireError`](artifacts::WireError)
/// naming the offence. `p` must be the program the machine that will run
/// the bytecode was built for.
pub fn decode_bc(r: &mut Reader<'_>, p: &Program) -> Result<BcProgram> {
    let n_iregs = r.u16()?;
    let n_fregs = r.u16()?;
    let n_vars = r.usize()?;
    if n_vars != p.n_vars() {
        return Err(malformed(format!("{n_vars} frame slots for {} variables", p.n_vars())));
    }
    let n_names = r.len(2)?;
    let mut var_names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        var_names.push(r.str()?);
    }
    let mut stats = OptStats::default();
    for f in [
        &mut stats.tree_nodes,
        &mut stats.insts,
        &mut stats.folded,
        &mut stats.cse_hits,
        &mut stats.hoisted,
        &mut stats.dce_removed,
    ] {
        *f = r.usize()?;
    }
    let lim = Limits { n_iregs, n_fregs, n_vars, n_bufs: p.n_buffers() };
    let prologue = decode_insts(r, &lim)?;
    let body = decode_bc_block(r, &lim, &mut 0)?;
    let buf_sizes = p.buf_sizes();
    let estimates = Default::default();
    let bc = BcProgram {
        prologue,
        body,
        n_iregs,
        n_fregs,
        n_vars,
        var_names,
        buf_sizes,
        stats,
        estimates,
    };
    bc.check_ssa().map_err(|e| malformed(format!("{e} (bytecode must be strict SSA)")))?;
    Ok(bc)
}

/// [`decode_bc`], installing the validated bytecode as `p`'s compiled form
/// so running `p` does not recompile it (native code is host-specific and
/// never travels; [`crate::Compiled::jit`] rebuilds it from the bytecode).
pub fn decode_bc_into(r: &mut Reader<'_>, p: &Program) -> Result<()> {
    let bc = decode_bc(r, p)?;
    p.install_bytecode(bc);
    Ok(())
}

/// Bounds the decoded bytecode must respect.
struct Limits {
    n_iregs: u16,
    n_fregs: u16,
    n_vars: usize,
    n_bufs: usize,
}

impl Limits {
    fn check_inst(&self, inst: &Inst) -> Result<()> {
        let check_reg = |(file, reg): (crate::bytecode::File, u16)| {
            let bound = match file {
                crate::bytecode::File::I => self.n_iregs,
                crate::bytecode::File::F => self.n_fregs,
            };
            if reg < bound {
                Ok(())
            } else {
                Err(malformed(format!("register {reg} out of range ({bound} in file)")))
            }
        };
        check_reg(inst.dst())?;
        for src in inst.srcs().into_iter().flatten() {
            check_reg(src)?;
        }
        // The operators each instruction's executors implement.
        let cmp = |op| matches!(op, BinOp::Lt | BinOp::Le | BinOp::EqCmp);
        let op_fits = match *inst {
            Inst::BinI { op, .. } => !cmp(op),
            Inst::BinF { op, .. } => !cmp(op) && !matches!(op, BinOp::And | BinOp::Or),
            Inst::CmpI { op, .. } | Inst::CmpF { op, .. } => cmp(op),
            Inst::UnI { op, .. } => !matches!(op, UnOp::Sqrt | UnOp::Exp),
            Inst::UnF { op, .. } => op != UnOp::Not,
            _ => true,
        };
        if !op_fits {
            return Err(malformed(format!("no such instruction: {inst:?}")));
        }
        match *inst {
            Inst::ReadVar { var, .. } => self.check_var(var)?,
            Inst::Load { buf, .. } => self.check_buf(buf)?,
            _ => {}
        }
        Ok(())
    }

    fn check_var(&self, var: u32) -> Result<()> {
        if (var as usize) < self.n_vars {
            Ok(())
        } else {
            Err(malformed(format!("frame slot {var} out of range ({})", self.n_vars)))
        }
    }

    fn check_buf(&self, buf: u32) -> Result<()> {
        if (buf as usize) < self.n_bufs {
            Ok(())
        } else {
            Err(malformed(format!("buffer {buf} out of range ({})", self.n_bufs)))
        }
    }

    fn check_ireg(&self, reg: u16) -> Result<()> {
        if reg < self.n_iregs {
            Ok(())
        } else {
            Err(malformed(format!("i-register {reg} out of range ({})", self.n_iregs)))
        }
    }

    fn check_freg(&self, reg: u16) -> Result<()> {
        if reg < self.n_fregs {
            Ok(())
        } else {
            Err(malformed(format!("f-register {reg} out of range ({})", self.n_fregs)))
        }
    }
}

fn encode_insts(insts: &[Inst], w: &mut Writer) {
    w.usize(insts.len());
    for i in insts {
        encode_inst(i, w);
    }
}

fn decode_insts(r: &mut Reader<'_>, lim: &Limits) -> Result<Vec<Inst>> {
    let n = r.len(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let inst = decode_inst(r)?;
        lim.check_inst(&inst)?;
        out.push(inst);
    }
    Ok(out)
}

fn encode_inst(i: &Inst, w: &mut Writer) {
    match *i {
        Inst::ConstI { dst, v } => {
            w.u8(0);
            w.u16(dst);
            w.i64(v);
        }
        Inst::ConstF { dst, v } => {
            w.u8(1);
            w.u16(dst);
            w.f32(v);
        }
        Inst::ReadVar { dst, var } => {
            w.u8(2);
            w.u16(dst);
            w.u32(var);
        }
        Inst::Load { dst, buf, idx } => {
            w.u8(3);
            w.u16(dst);
            w.u32(buf);
            w.u16(idx);
        }
        Inst::BinI { dst, op, a, b } => {
            w.u8(4);
            w.u16(dst);
            w.u8(bin_op_tag(op));
            w.u16(a);
            w.u16(b);
        }
        Inst::BinF { dst, op, a, b } => {
            w.u8(5);
            w.u16(dst);
            w.u8(bin_op_tag(op));
            w.u16(a);
            w.u16(b);
        }
        Inst::CmpI { dst, op, a, b } => {
            w.u8(6);
            w.u16(dst);
            w.u8(bin_op_tag(op));
            w.u16(a);
            w.u16(b);
        }
        Inst::CmpF { dst, op, a, b } => {
            w.u8(7);
            w.u16(dst);
            w.u8(bin_op_tag(op));
            w.u16(a);
            w.u16(b);
        }
        Inst::UnI { dst, op, a } => {
            w.u8(8);
            w.u16(dst);
            w.u8(un_op_tag(op));
            w.u16(a);
        }
        Inst::UnF { dst, op, a } => {
            w.u8(9);
            w.u16(dst);
            w.u8(un_op_tag(op));
            w.u16(a);
        }
        Inst::SelI { dst, c, a, b } => {
            w.u8(10);
            w.u16(dst);
            w.u16(c);
            w.u16(a);
            w.u16(b);
        }
        Inst::SelF { dst, c, a, b } => {
            w.u8(11);
            w.u16(dst);
            w.u16(c);
            w.u16(a);
            w.u16(b);
        }
        Inst::CastIF { dst, a } => {
            w.u8(12);
            w.u16(dst);
            w.u16(a);
        }
        Inst::CastFI { dst, a } => {
            w.u8(13);
            w.u16(dst);
            w.u16(a);
        }
    }
}

fn decode_inst(r: &mut Reader<'_>) -> Result<Inst> {
    Ok(match r.u8()? {
        0 => Inst::ConstI { dst: r.u16()?, v: r.i64()? },
        1 => Inst::ConstF { dst: r.u16()?, v: r.f32()? },
        2 => Inst::ReadVar { dst: r.u16()?, var: r.u32()? },
        3 => Inst::Load { dst: r.u16()?, buf: r.u32()?, idx: r.u16()? },
        4 => Inst::BinI { dst: r.u16()?, op: decode_bin_op(r)?, a: r.u16()?, b: r.u16()? },
        5 => Inst::BinF { dst: r.u16()?, op: decode_bin_op(r)?, a: r.u16()?, b: r.u16()? },
        6 => Inst::CmpI { dst: r.u16()?, op: decode_bin_op(r)?, a: r.u16()?, b: r.u16()? },
        7 => Inst::CmpF { dst: r.u16()?, op: decode_bin_op(r)?, a: r.u16()?, b: r.u16()? },
        8 => Inst::UnI { dst: r.u16()?, op: decode_un_op(r)?, a: r.u16()? },
        9 => Inst::UnF { dst: r.u16()?, op: decode_un_op(r)?, a: r.u16()? },
        10 => Inst::SelI { dst: r.u16()?, c: r.u16()?, a: r.u16()?, b: r.u16()? },
        11 => Inst::SelF { dst: r.u16()?, c: r.u16()?, a: r.u16()?, b: r.u16()? },
        12 => Inst::CastIF { dst: r.u16()?, a: r.u16()? },
        13 => Inst::CastFI { dst: r.u16()?, a: r.u16()? },
        t => return Err(malformed(format!("unknown Inst tag {t}"))),
    })
}

fn encode_bcode(c: &BCode, w: &mut Writer) {
    encode_insts(&c.insts, w);
    w.u16(c.reg);
}

fn decode_bcode(r: &mut Reader<'_>, lim: &Limits) -> Result<BCode> {
    let insts = decode_insts(r, lim)?;
    let reg = r.u16()?;
    lim.check_ireg(reg)?;
    Ok(BCode { insts, reg })
}

fn encode_bc_block(body: &[BcStmt], w: &mut Writer) {
    w.usize(body.len());
    for s in body {
        encode_bc_stmt(s, w);
    }
}

/// Decodes a block, numbering its loops after the `pars` `Parallel` loops
/// decoded before it ([`crate::bytecode::number_loop`]).
fn decode_bc_block(r: &mut Reader<'_>, lim: &Limits, pars: &mut u32) -> Result<Vec<BcStmt>> {
    let n = r.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_bc_stmt(r, lim, pars)?);
    }
    Ok(out)
}

fn encode_bc_stmt(s: &BcStmt, w: &mut Writer) {
    match s {
        BcStmt::For { var, lower, upper, kind, preamble, body, .. } => {
            w.u8(0);
            w.u32(*var);
            encode_bcode(lower, w);
            encode_bcode(upper, w);
            encode_loop_kind(*kind, w);
            encode_insts(preamble, w);
            encode_bc_block(body, w);
        }
        BcStmt::If { code, cond, then, else_ } => {
            w.u8(1);
            encode_insts(code, w);
            w.u16(*cond);
            encode_bc_block(then, w);
            encode_bc_block(else_, w);
        }
        BcStmt::Store { code, buf, idx, val } => {
            w.u8(2);
            encode_insts(code, w);
            w.u32(*buf);
            w.u16(*idx);
            w.u16(*val);
        }
        BcStmt::Let { code, var, reg } => {
            w.u8(3);
            encode_insts(code, w);
            w.u32(*var);
            w.u16(*reg);
        }
    }
}

fn decode_bc_stmt(r: &mut Reader<'_>, lim: &Limits, pars: &mut u32) -> Result<BcStmt> {
    Ok(match r.u8()? {
        0 => {
            let var = r.u32()?;
            lim.check_var(var)?;
            let lower = decode_bcode(r, lim)?;
            let upper = decode_bcode(r, lim)?;
            let kind = decode_loop_kind(r)?;
            let par = number_loop(pars, kind);
            let preamble = decode_insts(r, lim)?;
            let body = decode_bc_block(r, lim, pars)?;
            BcStmt::For { var, lower, upper, kind, par, preamble, body }
        }
        1 => {
            let code = decode_insts(r, lim)?;
            let cond = r.u16()?;
            lim.check_ireg(cond)?;
            BcStmt::If {
                code,
                cond,
                then: decode_bc_block(r, lim, pars)?,
                else_: decode_bc_block(r, lim, pars)?,
            }
        }
        2 => {
            let code = decode_insts(r, lim)?;
            let buf = r.u32()?;
            lim.check_buf(buf)?;
            let idx = r.u16()?;
            lim.check_ireg(idx)?;
            let val = r.u16()?;
            lim.check_freg(val)?;
            BcStmt::Store { code, buf, idx, val }
        }
        3 => {
            let code = decode_insts(r, lim)?;
            let var = r.u32()?;
            lim.check_var(var)?;
            let reg = r.u16()?;
            lim.check_ireg(reg)?;
            BcStmt::Let { code, var, reg }
        }
        t => return Err(malformed(format!("unknown BcStmt tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Reg;
    use crate::Machine;

    /// A small but representative program: nested loops, a let, a
    /// conditional, loads, mixed arithmetic, a vectorized inner loop.
    fn sample() -> Program {
        let mut p = Program::new();
        let a = p.buffer("A", 64);
        let b = p.buffer("B", 64);
        let i = p.var("i");
        let j = p.var("j");
        let t = p.var("t");
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(8),
            LoopKind::Parallel,
            vec![
                Stmt::let_(t, Expr::var(i) * Expr::i64(8)),
                Stmt::for_(
                    j,
                    Expr::i64(0),
                    Expr::i64(8),
                    LoopKind::Vectorize(8),
                    vec![Stmt::if_then(
                        Expr::lt(Expr::var(j), Expr::i64(7)),
                        vec![Stmt::store(
                            b,
                            Expr::var(t) + Expr::var(j),
                            Expr::load(a, Expr::var(t) + Expr::var(j))
                                * Expr::f32(2.0)
                                + Expr::to_f32(Expr::var(j)),
                        )],
                    )],
                ),
            ],
        ));
        p
    }

    #[test]
    fn program_roundtrip_preserves_structure() {
        let p = sample();
        let mut w = Writer::new();
        encode_program(&p, &mut w);
        let buf = w.into_vec();
        let q = decode_program(&mut Reader::new(&buf)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn decoded_bytecode_becomes_the_compiled_form() {
        let p = sample();
        let mut w = Writer::new();
        encode_program(&p, &mut w);
        encode_bc(p.compiled().unwrap().bytecode(), &mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let q = decode_program(&mut r).unwrap();
        decode_bc_into(&mut r, &q).unwrap();
        let (code, built) = q.compiled_or_build();
        assert!(!built, "the installed bytecode is the compiled form");
        assert_eq!(code.unwrap().bytecode().disasm(&q), p.compiled().unwrap().bytecode().disasm(&p));
    }

    #[test]
    fn bytecode_roundtrip_runs_bit_exact() {
        let p = sample();
        let bc = crate::opt::compile_program(&p).unwrap();
        let mut w = Writer::new();
        encode_bc(&bc, &mut w);
        let buf = w.into_vec();
        let bc2 = decode_bc(&mut Reader::new(&buf), &p).unwrap();

        // Same disassembly (structure) and same execution result.
        assert_eq!(bc.disasm(&p), bc2.disasm(&p));
        let run = |bc: &BcProgram| {
            let mut m = Machine::new(&p);
            let a = p.buffer_by_name("A").unwrap();
            m.buffer_mut(a).iter_mut().enumerate().for_each(|(k, v)| *v = k as f32);
            m.run_bytecode(bc).unwrap();
            m.buffer(p.buffer_by_name("B").unwrap()).to_vec()
        };
        assert_eq!(run(&bc), run(&bc2));
    }

    #[test]
    fn decode_rejects_out_of_range_indices() {
        let p = sample();
        let bc = crate::opt::compile_program(&p).unwrap();
        let mut w = Writer::new();
        encode_bc(&bc, &mut w);
        let buf = w.into_vec();
        // Validate against a program with no buffers: the Load's buffer id
        // must be rejected.
        let empty = Program::new();
        assert!(decode_bc(&mut Reader::new(&buf), &empty).is_err());
    }

    #[test]
    fn decode_rejects_a_register_defined_twice() {
        let p = sample();
        let mut bc = crate::opt::compile_program(&p).unwrap();
        let dup = *bc.prologue.iter().find(|i| matches!(i, Inst::ConstI { .. })).unwrap();
        bc.prologue.push(dup);
        let mut w = Writer::new();
        encode_bc(&bc, &mut w);
        let buf = w.into_vec();
        assert!(decode_bc(&mut Reader::new(&buf), &p).is_err());
        // Nothing is installed: the program compiles itself and runs as
        // if no artifact had been there.
        let q = sample();
        assert!(decode_bc_into(&mut Reader::new(&buf), &q).is_err());
        assert!(q.compiled_or_build().1, "rejected bytecode reached the program's slot");
        let run = |p: &Program| {
            let mut m = Machine::new(p);
            let a = p.buffer_by_name("A").unwrap();
            m.buffer_mut(a).iter_mut().enumerate().for_each(|(k, v)| *v = k as f32);
            m.run(p).unwrap();
            m.buffer(p.buffer_by_name("B").unwrap()).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(&q), run(&p));
    }

    /// Encodes hand-built bytecode for [`sample`] (`A` is buffer 0, `i`
    /// frame slot 0) and decodes it.
    fn decode_built(prologue: Vec<Inst>, body: Vec<BcStmt>) -> Result<BcProgram> {
        let p = sample();
        let bc = BcProgram {
            prologue,
            body,
            n_iregs: 8,
            n_fregs: 4,
            n_vars: p.n_vars(),
            var_names: Vec::new(),
            buf_sizes: p.buf_sizes(),
            stats: OptStats::default(),
            estimates: Default::default(),
        };
        let mut w = Writer::new();
        encode_bc(&bc, &mut w);
        decode_bc(&mut Reader::new(&w.into_vec()), &p)
    }

    /// `decode_built`'s error text, which must name the offence.
    fn refusal(prologue: Vec<Inst>, body: Vec<BcStmt>, offence: &str) {
        match decode_built(prologue, body) {
            Ok(_) => panic!("decoded, but {offence}"),
            Err(e) => assert!(e.to_string().contains(offence), "{e} does not say {offence:?}"),
        }
    }

    fn let_i(code: Vec<Inst>, reg: Reg) -> BcStmt {
        BcStmt::Let { code, var: 0, reg }
    }

    fn serial(kind: LoopKind, preamble: Vec<Inst>, body: Vec<BcStmt>) -> BcStmt {
        let bound = |reg| BCode { insts: Vec::new(), reg };
        BcStmt::For { var: 0, lower: bound(0), upper: bound(1), kind, par: 0, preamble, body }
    }

    /// Strict SSA at the trust boundary: a read its definition does not
    /// dominate is refused like a second definition, naming the register.
    #[test]
    fn decode_refuses_reads_their_definition_does_not_reach() {
        let bounds = || vec![Inst::ConstI { dst: 0, v: 0 }, Inst::ConstI { dst: 1, v: 4 }];
        let one = |dst| Inst::ConstI { dst, v: 1 };
        // Defined in an `If` arm, read after the `If`.
        let arm = |then| BcStmt::If { code: vec![], cond: 0, then, else_: vec![] };
        let in_arm = arm(vec![let_i(vec![one(2)], 2)]);
        refusal(bounds(), vec![in_arm, let_i(vec![], 2)], "i2 is read outside the block");
        // Defined in a loop body, read after the loop (which may not run).
        let lp = serial(LoopKind::Serial, vec![], vec![let_i(vec![one(2)], 2)]);
        refusal(bounds(), vec![lp, let_i(vec![], 2)], "i2 is read outside the block");
        // Read before its definition in the same block.
        let add = Inst::BinI { dst: 2, op: BinOp::Add, a: 3, b: 3 };
        refusal(bounds(), vec![let_i(vec![add, one(3)], 2)], "i3 is read before its definition");
        // A chunk register read after its vector loop.
        let store = |code, idx, val| BcStmt::Store { code, buf: 0, idx, val };
        let chunk = vec![store(vec![Inst::ConstF { dst: 0, v: 1.0 }], 0, 0)];
        let lp = serial(LoopKind::Vectorize(8), vec![Inst::ReadVar { dst: 2, var: 0 }], chunk);
        refusal(bounds(), vec![lp, store(vec![], 1, 0)], "f0 is read outside the block");
        // A second definition.
        refusal(bounds(), vec![let_i(vec![one(1)], 1)], "i1 is defined twice");
        // A read in the defining block or a block nested in it is fine.
        let sum = Inst::BinI { dst: 2, op: BinOp::Add, a: 3, b: 0 };
        let body = vec![arm(vec![let_i(vec![sum], 2)]), let_i(vec![], 3)];
        let lp = serial(LoopKind::Serial, vec![one(3)], body);
        assert!(decode_built(bounds(), vec![lp, let_i(vec![], 1)]).is_ok());
    }

    /// Mutated artifacts found these: an operator the instruction has no
    /// executor for, and a frame sized for another program, are refused
    /// rather than met by an `unreachable!` or a huge allocation.
    #[test]
    fn decode_refuses_what_no_executor_runs() {
        let cmp_add = Inst::CmpI { dst: 1, op: BinOp::Add, a: 0, b: 0 };
        for inst in [
            cmp_add,
            Inst::BinI { dst: 1, op: BinOp::Lt, a: 0, b: 0 },
            Inst::UnI { dst: 1, op: UnOp::Sqrt, a: 0 },
            Inst::BinF { dst: 1, op: BinOp::And, a: 0, b: 0 },
            Inst::UnF { dst: 1, op: UnOp::Not, a: 0 },
        ] {
            let zero = match inst.dst().0 {
                crate::bytecode::File::I => Inst::ConstI { dst: 0, v: 0 },
                crate::bytecode::File::F => Inst::ConstF { dst: 0, v: 0.0 },
            };
            refusal(vec![zero, inst], vec![], "no such instruction");
        }
        let p = sample();
        let mut bc = crate::opt::compile_program(&p).unwrap();
        bc.n_vars += 1 << 40;
        let mut w = Writer::new();
        encode_bc(&bc, &mut w);
        let e = decode_bc(&mut Reader::new(&w.into_vec()), &p).unwrap_err();
        assert!(e.to_string().contains("frame slots for 3 variables"), "{e}");
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let p = sample();
        let mut w = Writer::new();
        encode_program(&p, &mut w);
        let buf = w.into_vec();
        // Every proper prefix must fail cleanly (no panic).
        for cut in 0..buf.len() {
            assert!(
                decode_program(&mut Reader::new(&buf[..cut])).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn nan_payloads_roundtrip() {
        let mut p = Program::new();
        let a = p.buffer("A", 1);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(1),
            vec![Stmt::store(a, Expr::var(i), Expr::f32(f32::from_bits(0x7fc0_0042)))],
        ));
        let mut w = Writer::new();
        encode_program(&p, &mut w);
        let buf = w.into_vec();
        let q = decode_program(&mut Reader::new(&buf)).unwrap();
        // NaN never compares equal, so compare the re-encoding bit for bit.
        let mut w = Writer::new();
        encode_program(&q, &mut w);
        assert_eq!(w.into_vec(), buf);
    }
}
