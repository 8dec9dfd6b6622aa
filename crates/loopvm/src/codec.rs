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

use crate::bytecode::{BCode, BcProgram, BcStmt, Inst, OptStats};
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
/// file sizes, every frame slot against `n_vars`, every buffer id against
/// `p`'s buffer table, and every register has one static definition (the
/// optimizer emits SSA; value numbering, the JIT's register allocation and
/// its lane-shape facts rely on it). `p` must be the program the machine
/// that will run the bytecode was built for.
pub fn decode_bc(r: &mut Reader<'_>, p: &Program) -> Result<BcProgram> {
    let n_iregs = r.u16()?;
    let n_fregs = r.u16()?;
    let n_vars = r.usize()?;
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
    let mut lim = Limits {
        n_iregs,
        n_fregs,
        n_vars,
        n_bufs: p.n_buffers(),
        defined_i: vec![false; n_iregs as usize],
        defined_f: vec![false; n_fregs as usize],
    };
    let prologue = decode_insts(r, &mut lim)?;
    let body = decode_bc_block(r, &mut lim)?;
    Ok(BcProgram { prologue, body, n_iregs, n_fregs, n_vars, var_names, stats })
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
    /// Registers already defined by a decoded instruction, per file.
    defined_i: Vec<bool>,
    defined_f: Vec<bool>,
}

impl Limits {
    fn check_inst(&mut self, inst: &Inst) -> Result<()> {
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
        let (file, dst) = inst.dst();
        let defined = match file {
            crate::bytecode::File::I => &mut self.defined_i,
            crate::bytecode::File::F => &mut self.defined_f,
        };
        if std::mem::replace(&mut defined[dst as usize], true) {
            return Err(malformed(format!("register {dst} defined twice (bytecode must be SSA)")));
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

fn decode_insts(r: &mut Reader<'_>, lim: &mut Limits) -> Result<Vec<Inst>> {
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

fn decode_bcode(r: &mut Reader<'_>, lim: &mut Limits) -> Result<BCode> {
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

fn decode_bc_block(r: &mut Reader<'_>, lim: &mut Limits) -> Result<Vec<BcStmt>> {
    let n = r.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_bc_stmt(r, lim)?);
    }
    Ok(out)
}

fn encode_bc_stmt(s: &BcStmt, w: &mut Writer) {
    match s {
        BcStmt::For { var, lower, upper, kind, preamble, body } => {
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

fn decode_bc_stmt(r: &mut Reader<'_>, lim: &mut Limits) -> Result<BcStmt> {
    Ok(match r.u8()? {
        0 => {
            let var = r.u32()?;
            lim.check_var(var)?;
            BcStmt::For {
                var,
                lower: decode_bcode(r, lim)?,
                upper: decode_bcode(r, lim)?,
                kind: decode_loop_kind(r)?,
                preamble: decode_insts(r, lim)?,
                body: decode_bc_block(r, lim)?,
            }
        }
        1 => {
            let code = decode_insts(r, lim)?;
            let cond = r.u16()?;
            lim.check_ireg(cond)?;
            BcStmt::If {
                code,
                cond,
                then: decode_bc_block(r, lim)?,
                else_: decode_bc_block(r, lim)?,
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
