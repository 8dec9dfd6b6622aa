//! Flat register-based bytecode: the optimized execution format.
//!
//! [`crate::opt`] lowers a [`Program`]'s expression trees into this IR:
//! every operation reads and writes slots of a preallocated register file
//! (one `i64` file, one `f32` file) instead of pushing and popping an
//! operand stack. Loop-invariant work is placed in per-loop *preambles*
//! that run once per iteration of the loop that defines their inputs,
//! rather than once per innermost statement execution.
//!
//! The format is deliberately not constructible outside this crate:
//! [`BcProgram`] values only come out of [`crate::opt::compile_program`],
//! so the executor in [`crate::vm`] can trust register indices and buffer
//! ids to be in range.

use crate::expr::{BinOp, UnOp};
use crate::par::Estimate;
use crate::program::{LoopKind, Program};
use std::sync::OnceLock;

/// A register index into one of the two register files (which file is
/// implied by the instruction).
pub(crate) type Reg = u16;

/// One register instruction. `dst` always names a fresh (SSA) register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Inst {
    /// `i[dst] = v`
    ConstI { dst: Reg, v: i64 },
    /// `f[dst] = v`
    ConstF { dst: Reg, v: f32 },
    /// `i[dst] = frame[var]`
    ReadVar { dst: Reg, var: u32 },
    /// `f[dst] = buf[i[idx]]` (bounds-checked)
    Load { dst: Reg, buf: u32, idx: Reg },
    /// `i[dst] = op(i[a], i[b])`
    BinI { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `f[dst] = op(f[a], f[b])`
    BinF { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `i[dst] = op(i[a], i[b]) as 0/1`
    CmpI { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `i[dst] = op(f[a], f[b]) as 0/1`
    CmpF { dst: Reg, op: BinOp, a: Reg, b: Reg },
    /// `i[dst] = op(i[a])`
    UnI { dst: Reg, op: UnOp, a: Reg },
    /// `f[dst] = op(f[a])`
    UnF { dst: Reg, op: UnOp, a: Reg },
    /// `i[dst] = if i[c] != 0 { i[a] } else { i[b] }` (both arms evaluated)
    SelI { dst: Reg, c: Reg, a: Reg, b: Reg },
    /// `f[dst] = if i[c] != 0 { f[a] } else { f[b] }`
    SelF { dst: Reg, c: Reg, a: Reg, b: Reg },
    /// `f[dst] = i[a] as f32`
    CastIF { dst: Reg, a: Reg },
    /// `i[dst] = f[a] as i64`
    CastFI { dst: Reg, a: Reg },
}

/// Which register file an instruction result lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum File {
    /// The `i64` file.
    I,
    /// The `f32` file.
    F,
}

impl Inst {
    /// The destination register and its file.
    pub(crate) fn dst(&self) -> (File, Reg) {
        match *self {
            Inst::ConstI { dst, .. }
            | Inst::ReadVar { dst, .. }
            | Inst::BinI { dst, .. }
            | Inst::CmpI { dst, .. }
            | Inst::CmpF { dst, .. }
            | Inst::UnI { dst, .. }
            | Inst::SelI { dst, .. }
            | Inst::CastFI { dst, .. } => (File::I, dst),
            Inst::ConstF { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::BinF { dst, .. }
            | Inst::UnF { dst, .. }
            | Inst::SelF { dst, .. }
            | Inst::CastIF { dst, .. } => (File::F, dst),
        }
    }

    /// Whether executing this instruction can fault or panic: a load can
    /// be out of bounds, `div`/`rem` can hit a zero divisor or
    /// `i64::MIN / -1`, and `neg`/`abs` of `i64::MIN` overflow. Dead-code
    /// elimination must never drop these — the bytecode traps exactly
    /// where the plain lowering would.
    pub(crate) fn can_trap(&self) -> bool {
        matches!(
            *self,
            Inst::Load { .. }
                | Inst::BinI { op: BinOp::Div | BinOp::Rem, .. }
                | Inst::UnI { op: UnOp::Neg | UnOp::Abs, .. }
        )
    }

    /// Coarse class index for instruction counts (see [`InstClassCounts`]).
    pub(crate) fn class(&self) -> usize {
        match *self {
            Inst::ConstI { .. } | Inst::ConstF { .. } => 0,
            Inst::ReadVar { .. } => 1,
            Inst::Load { .. } => 2,
            Inst::BinI { .. } | Inst::CmpI { .. } | Inst::UnI { .. } | Inst::SelI { .. } => 3,
            Inst::BinF { .. } | Inst::CmpF { .. } | Inst::UnF { .. } | Inst::SelF { .. } => 4,
            Inst::CastIF { .. } | Inst::CastFI { .. } => 5,
        }
    }

    /// Source registers with their files (up to three).
    pub(crate) fn srcs(&self) -> [Option<(File, Reg)>; 3] {
        match *self {
            Inst::ConstI { .. } | Inst::ConstF { .. } | Inst::ReadVar { .. } => {
                [None, None, None]
            }
            Inst::Load { idx, .. } => [Some((File::I, idx)), None, None],
            Inst::BinI { a, b, .. } | Inst::CmpI { a, b, .. } => {
                [Some((File::I, a)), Some((File::I, b)), None]
            }
            Inst::BinF { a, b, .. } | Inst::CmpF { a, b, .. } => {
                [Some((File::F, a)), Some((File::F, b)), None]
            }
            Inst::UnI { a, .. } | Inst::CastIF { a, .. } => [Some((File::I, a)), None, None],
            Inst::UnF { a, .. } | Inst::CastFI { a, .. } => [Some((File::F, a)), None, None],
            Inst::SelI { c, a, b, .. } => {
                [Some((File::I, c)), Some((File::I, a)), Some((File::I, b))]
            }
            Inst::SelF { c, a, b, .. } => {
                [Some((File::I, c)), Some((File::F, a)), Some((File::F, b))]
            }
        }
    }
}

/// A bound expression: instructions to run, then the register holding the
/// result. The instruction list is often empty — invariant bounds live in
/// an enclosing preamble or the prologue.
#[derive(Debug, Clone)]
pub(crate) struct BCode {
    /// Statement-local instructions (pinned ops: loads, trapping divisions).
    pub insts: Vec<Inst>,
    /// Result register (`i64` file).
    pub reg: Reg,
}

/// One optimized statement.
#[derive(Debug, Clone)]
pub(crate) enum BcStmt {
    /// A loop. `preamble` holds instructions whose inputs are defined by
    /// this loop's variable (and outer state): they run once per
    /// iteration, before the body.
    For {
        /// Frame slot of the loop variable.
        var: u32,
        /// Lower bound.
        lower: BCode,
        /// Upper bound (exclusive).
        upper: BCode,
        /// Execution strategy, mirrored from the source loop.
        kind: LoopKind,
        /// How many `Parallel` loops begin before this one in source order
        /// ([`number_loop`]): a `Parallel` loop's index into
        /// [`BcProgram::estimates`], the same in every lowering of a program.
        par: u32,
        /// Hoisted per-iteration instructions.
        preamble: Vec<Inst>,
        /// Loop body.
        body: Vec<BcStmt>,
    },
    /// A conditional.
    If {
        /// Statement-local instructions computing the condition.
        code: Vec<Inst>,
        /// Condition register (`i64`, nonzero = true).
        cond: Reg,
        /// Taken branch.
        then: Vec<BcStmt>,
        /// Fallthrough branch.
        else_: Vec<BcStmt>,
    },
    /// `buf[i[idx]] = f[val]`.
    Store {
        /// Statement-local instructions.
        code: Vec<Inst>,
        /// Destination buffer.
        buf: u32,
        /// Index register.
        idx: Reg,
        /// Value register.
        val: Reg,
    },
    /// `frame[var] = i[reg]`.
    Let {
        /// Statement-local instructions.
        code: Vec<Inst>,
        /// Frame slot written.
        var: u32,
        /// Value register.
        reg: Reg,
    },
}

/// The `par` of a loop of `kind` after `seen` `Parallel` loops, counted
/// into `seen`: each lowering and the decoder call it before the body.
pub(crate) fn number_loop(seen: &mut u32, kind: LoopKind) -> u32 {
    let par = *seen;
    *seen += u32::from(kind == LoopKind::Parallel);
    par
}

/// Human-readable labels for the instruction classes of
/// [`InstClassCounts`], indexed by `Inst::class`.
const CLASS_NAMES: [&str; 6] = ["const", "readvar", "load", "int-alu", "fp-alu", "cast"];

/// Dynamic per-instruction-class execution counts: what
/// [`crate::Machine::run_counted`] counts on the CPU interpreter, and what
/// the GPU warp executor counts when `TIRAMISU_PROFILE` is on. Classes are
/// coarse on purpose — they answer "is this schedule arithmetic-bound or
/// load-bound", not "which opcode ran".
///
/// In vectorized loops and warp execution one count covers one *dispatch*
/// (a whole lane group / warp), mirroring how the executors amortize
/// interpretation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstClassCounts {
    counts: [u64; 6],
}

impl InstClassCounts {
    /// Counts every instruction of a straight-line block.
    pub(crate) fn count(&mut self, insts: &[Inst]) {
        for i in insts {
            self.counts[i.class()] += 1;
        }
    }

    /// Iterates `(class label, count)` pairs in a fixed order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CLASS_NAMES.iter().copied().zip(self.counts.iter().copied())
    }
}

/// Counters describing what the optimizer did to one program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Expression-tree nodes in the source program (statements + bounds).
    pub tree_nodes: usize,
    /// Register instructions after optimization (post-DCE).
    pub insts: usize,
    /// Constant folds and algebraic simplifications applied.
    pub folded: usize,
    /// Value-numbering hits (an expression reused an existing register).
    pub cse_hits: usize,
    /// Instructions hoisted out of at least one enclosing loop.
    pub hoisted: usize,
    /// Instructions removed as dead after folding and CSE.
    pub dce_removed: usize,
}

impl OptStats {
    /// One-line human-readable summary (used as the trace IR snapshot when
    /// full disassembly is not requested).
    pub fn summary(&self) -> String {
        format!(
            "{} tree nodes -> {} insts (folded {}, cse {}, hoisted {}, dce {})",
            self.tree_nodes, self.insts, self.folded, self.cse_hits, self.hoisted, self.dce_removed
        )
    }

    /// Merges another program's counters into this one (used when a module
    /// holds several bytecode programs, e.g. one per GPU kernel).
    pub fn merge(&mut self, o: &OptStats) {
        self.tree_nodes += o.tree_nodes;
        self.insts += o.insts;
        self.folded += o.folded;
        self.cse_hits += o.cse_hits;
        self.hoisted += o.hoisted;
        self.dce_removed += o.dce_removed;
    }
}

/// An optimized, executable program: a prologue of loop-invariant
/// instructions plus the statement tree. Produced by
/// [`crate::opt::compile_program`], executed by
/// [`crate::Machine::run_bytecode`].
#[derive(Debug, Clone)]
pub struct BcProgram {
    /// Instructions run once, before the body (constants, parameter math).
    pub(crate) prologue: Vec<Inst>,
    /// The optimized statement tree.
    pub(crate) body: Vec<BcStmt>,
    /// Size of the `i64` register file.
    pub(crate) n_iregs: u16,
    /// Size of the `f32` register file.
    pub(crate) n_fregs: u16,
    /// Number of variable frame slots.
    pub(crate) n_vars: usize,
    /// Source variable names (by frame slot), carried so
    /// [`crate::Machine::run_counted`] can label loops with their
    /// schedule-level names.
    pub(crate) var_names: Vec<String>,
    /// The element count of every buffer, as declared by the [`Program`]
    /// this code was compiled or decoded against (never encoded). The
    /// JIT's bounds proofs assume them, and its code refuses to run over
    /// buffers of other lengths.
    pub(crate) buf_sizes: Vec<usize>,
    /// What the optimizer did.
    pub(crate) stats: OptStats,
    /// The work estimates of its `Parallel` loops once derived (never
    /// encoded; a clone keeps them).
    pub(crate) estimates: OnceLock<Box<[Estimate]>>,
}

impl BcProgram {
    /// The work estimates every tier's `Parallel` dispatches decide on, by
    /// `par` index: those the JIT recorded when it compiled this program,
    /// else derived on the first call (`crate::jit::interval_estimates`).
    pub(crate) fn estimates(&self) -> &[Estimate] {
        self.estimates.get_or_init(|| crate::jit::interval_estimates(self))
    }

    /// Checks that the program is strict SSA: every register has one
    /// definition, and that definition dominates every read — one in a
    /// `For` preamble or body, or in an `If` arm, reaches only the rest of
    /// that block. The optimizer emits nothing else, the decoder refuses
    /// anything else, and the JIT derives one fact record per register on
    /// the strength of it; the plain lowering reuses registers per
    /// statement and is not SSA. `Err` names the first register that
    /// breaks it. Register indices must be in range.
    pub(crate) fn check_ssa(&self) -> std::result::Result<(), String> {
        let never = |n: u16| vec![Seen::Never; n as usize];
        let mut s = Ssa { seen: [never(self.n_iregs), never(self.n_fregs)], open: Vec::new() };
        s.insts(&self.prologue)?;
        s.block(&self.body)
    }

    /// Optimizer counters for this program.
    pub fn stats(&self) -> OptStats {
        self.stats
    }

    /// Total instruction count (prologue + preambles + statement code).
    pub fn n_insts(&self) -> usize {
        fn count(body: &[BcStmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    BcStmt::For { lower, upper, preamble, body, .. } => {
                        lower.insts.len() + upper.insts.len() + preamble.len() + count(body)
                    }
                    BcStmt::If { code, then, else_, .. } => {
                        code.len() + count(then) + count(else_)
                    }
                    BcStmt::Store { code, .. } | BcStmt::Let { code, .. } => code.len(),
                })
                .sum()
        }
        self.prologue.len() + count(&self.body)
    }

    /// Renders the program as a readable disassembly listing, resolving
    /// variable and buffer names through the source [`Program`]. The
    /// format is pinned by golden tests — see `DESIGN.md` §10 for how to
    /// read it.
    pub fn disasm(&self, p: &Program) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "; {} insts, {} iregs, {} fregs\n; {}\n",
            self.n_insts(),
            self.n_iregs,
            self.n_fregs,
            self.stats.summary()
        ));
        if !self.prologue.is_empty() {
            out.push_str("prologue:\n");
            for i in &self.prologue {
                out.push_str(&format!("  {}\n", disasm_inst(i, p)));
            }
        }
        disasm_block(&self.body, p, 0, &mut out);
        out
    }
}

/// Where [`BcProgram::check_ssa`] stands with one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    /// Not defined yet.
    Never,
    /// Defined in a block that is still open.
    Live,
    /// Defined in a block that has closed.
    Closed,
}

/// The walk of [`BcProgram::check_ssa`].
struct Ssa {
    /// Per file (`File as usize`), per register.
    seen: [Vec<Seen>; 2],
    /// Registers defined in the open blocks, innermost last.
    open: Vec<(File, Reg)>,
}

type SsaResult = std::result::Result<(), String>;

impl Ssa {
    /// `i5`, `f3`: the register as the disassembly names it.
    fn name(file: File, r: Reg) -> String {
        format!("{}{r}", if file == File::I { 'i' } else { 'f' })
    }

    fn read(&self, file: File, r: Reg) -> SsaResult {
        match self.seen[file as usize][r as usize] {
            Seen::Live => Ok(()),
            Seen::Never => Err(format!("{} is read before its definition", Ssa::name(file, r))),
            Seen::Closed => {
                Err(format!("{} is read outside the block that defines it", Ssa::name(file, r)))
            }
        }
    }

    fn insts(&mut self, insts: &[Inst]) -> SsaResult {
        for inst in insts {
            for (file, r) in inst.srcs().into_iter().flatten() {
                self.read(file, r)?;
            }
            let (file, r) = inst.dst();
            let seen = &mut self.seen[file as usize][r as usize];
            if *seen != Seen::Never {
                return Err(format!("{} is defined twice", Ssa::name(file, r)));
            }
            *seen = Seen::Live;
            self.open.push((file, r));
        }
        Ok(())
    }

    /// `f` walking a block of its own: its definitions reach no further.
    fn scoped(&mut self, f: impl FnOnce(&mut Self) -> SsaResult) -> SsaResult {
        let mark = self.open.len();
        f(self)?;
        for (file, r) in self.open.drain(mark..) {
            self.seen[file as usize][r as usize] = Seen::Closed;
        }
        Ok(())
    }

    fn block(&mut self, body: &[BcStmt]) -> SsaResult {
        for s in body {
            match s {
                BcStmt::For { lower, upper, preamble, body, .. } => {
                    self.insts(&lower.insts)?;
                    self.insts(&upper.insts)?;
                    self.read(File::I, lower.reg)?;
                    self.read(File::I, upper.reg)?;
                    self.scoped(|s| {
                        s.insts(preamble)?;
                        s.block(body)
                    })?;
                }
                BcStmt::If { code, cond, then, else_ } => {
                    self.insts(code)?;
                    self.read(File::I, *cond)?;
                    self.scoped(|s| s.block(then))?;
                    self.scoped(|s| s.block(else_))?;
                }
                BcStmt::Store { code, idx, val, .. } => {
                    self.insts(code)?;
                    self.read(File::I, *idx)?;
                    self.read(File::F, *val)?;
                }
                BcStmt::Let { code, reg, .. } => {
                    self.insts(code)?;
                    self.read(File::I, *reg)?;
                }
            }
        }
        Ok(())
    }
}

fn var_name(p: &Program, v: u32) -> String {
    p.vars.get(v as usize).cloned().unwrap_or_else(|| format!("v{v}"))
}

fn buf_name(p: &Program, b: u32) -> String {
    p.buffers
        .get(b as usize)
        .map(|(n, _)| n.clone())
        .unwrap_or_else(|| format!("b{b}"))
}

fn bin_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Min => "min",
        BinOp::Max => "max",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::EqCmp => "==",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn disasm_inst(i: &Inst, p: &Program) -> String {
    match *i {
        Inst::ConstI { dst, v } => format!("i{dst} = const {v}"),
        Inst::ConstF { dst, v } => format!("f{dst} = const {v:?}"),
        Inst::ReadVar { dst, var } => format!("i{dst} = var {}", var_name(p, var)),
        Inst::Load { dst, buf, idx } => {
            format!("f{dst} = load {}[i{idx}]", buf_name(p, buf))
        }
        Inst::BinI { dst, op, a, b } => match op {
            BinOp::Min | BinOp::Max => format!("i{dst} = {}(i{a}, i{b})", bin_sym(op)),
            _ => format!("i{dst} = i{a} {} i{b}", bin_sym(op)),
        },
        Inst::BinF { dst, op, a, b } => match op {
            BinOp::Min | BinOp::Max => format!("f{dst} = {}(f{a}, f{b})", bin_sym(op)),
            _ => format!("f{dst} = f{a} {} f{b}", bin_sym(op)),
        },
        Inst::CmpI { dst, op, a, b } => format!("i{dst} = i{a} {} i{b}", bin_sym(op)),
        Inst::CmpF { dst, op, a, b } => format!("i{dst} = f{a} {} f{b}", bin_sym(op)),
        Inst::UnI { dst, op, a } => format!("i{dst} = {}(i{a})", un_name(op)),
        Inst::UnF { dst, op, a } => format!("f{dst} = {}(f{a})", un_name(op)),
        Inst::SelI { dst, c, a, b } => format!("i{dst} = sel(i{c}, i{a}, i{b})"),
        Inst::SelF { dst, c, a, b } => format!("f{dst} = sel(i{c}, f{a}, f{b})"),
        Inst::CastIF { dst, a } => format!("f{dst} = i2f(i{a})"),
        Inst::CastFI { dst, a } => format!("i{dst} = f2i(f{a})"),
    }
}

fn un_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Abs => "abs",
        UnOp::Sqrt => "sqrt",
        UnOp::Exp => "exp",
        UnOp::Not => "not",
    }
}

fn kind_name(k: LoopKind) -> String {
    match k {
        LoopKind::Serial => "serial".to_string(),
        LoopKind::Parallel => "parallel".to_string(),
        LoopKind::Vectorize(w) => format!("vectorize({w})"),
        LoopKind::Unroll(w) => format!("unroll({w})"),
    }
}

fn disasm_block(body: &[BcStmt], p: &Program, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for s in body {
        match s {
            BcStmt::For { var, lower, upper, kind, preamble, body, .. } => {
                for i in lower.insts.iter().chain(&upper.insts) {
                    out.push_str(&format!("{pad}{}\n", disasm_inst(i, p)));
                }
                out.push_str(&format!(
                    "{pad}for {} = i{} .. i{} {} {{\n",
                    var_name(p, *var),
                    lower.reg,
                    upper.reg,
                    kind_name(*kind)
                ));
                if !preamble.is_empty() {
                    out.push_str(&format!("{pad}  pre:\n"));
                    for i in preamble {
                        out.push_str(&format!("{pad}    {}\n", disasm_inst(i, p)));
                    }
                }
                disasm_block(body, p, depth + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            BcStmt::If { code, cond, then, else_ } => {
                for i in code {
                    out.push_str(&format!("{pad}{}\n", disasm_inst(i, p)));
                }
                out.push_str(&format!("{pad}if i{cond} {{\n"));
                disasm_block(then, p, depth + 1, out);
                if else_.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    disasm_block(else_, p, depth + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            BcStmt::Store { code, buf, idx, val } => {
                for i in code {
                    out.push_str(&format!("{pad}{}\n", disasm_inst(i, p)));
                }
                out.push_str(&format!(
                    "{pad}store {}[i{idx}] = f{val}\n",
                    buf_name(p, *buf)
                ));
            }
            BcStmt::Let { code, var, reg } => {
                for i in code {
                    out.push_str(&format!("{pad}{}\n", disasm_inst(i, p)));
                }
                out.push_str(&format!("{pad}let {} = i{reg}\n", var_name(p, *var)));
            }
        }
    }
}
