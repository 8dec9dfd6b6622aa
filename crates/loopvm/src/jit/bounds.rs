//! Bounds proofs: which loads and stores the JIT emits without a guard.
//!
//! [`prove`] runs once per native compile, over the bytecode about to be
//! compiled, and decides for every `Load` and `Store` whether
//! `0 ≤ index < size` holds on every execution, `size` being the length
//! the program declares for the buffer. A proven access is emitted with
//! no compare, no branch, no slow path and no deopt stub, in scalar code
//! and packed chunks alike; the others keep their guard, labeled with a
//! [`Kept`] reason that `jit::listing` prints. Nothing here is serialized:
//! the proof is derived from the bytecode each time, and
//! `JitProgram::run` refuses buffers whose lengths differ from the sizes
//! it assumed.
//!
//! Two stages, cheapest first:
//!
//! - **Intervals.** One forward walk gives every single-definition
//!   i-register a sound `[lo, hi]`. A loop variable is
//!   `[lower.lo, upper.hi − 1]` (the eight lanes of a chunk are iterations
//!   of it too); a `let` gives its slot the register's interval for the
//!   reads it dominates; entering a loop forgets every slot its body
//!   writes; after an `If` the two arms' slots are joined. A frame read
//!   with no dominating definition — a `Machine::bind` value, a parameter
//!   — has no fact. `+ − ×` that may wrap give no fact; `div`/`rem` by a
//!   positive divisor, `min`/`max`, compares and selects are exact rules.
//!   An `If` whose condition the intervals decide has a dead arm, whose
//!   accesses never run and need no guard.
//! - **Oracle.** An access the intervals leave open whose index is affine
//!   in the enclosing loop variables becomes two integer-feasibility
//!   questions, `index ≤ −1` and `index ≥ size`, over rows from the
//!   enclosing loop bounds (a `min`/`max` bound gives one row per
//!   argument, a division by a constant an existential), the enclosing
//!   `If` conditions (negated on `else`) and the intervals of the opaque
//!   subterms. Both infeasible proves the access; a spent budget keeps
//!   the guard.
//!
//! A register's facts hold only where its one definition dominates the
//! walk: they are set when the walk meets the definition and dropped when
//! it leaves the definition's block. A register read before its
//! definition (last iteration's value, or the initial zero) has none.

use std::collections::{HashMap, HashSet};

use polyhedral::solve::{rows_decide, Feasibility, Row};

use super::GuardCounts;
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::expr::{BinOp, UnOp};
use crate::program::LoopKind;
use crate::vm::bc_body_vectorizable;

/// Loop bounds are trusted only this far from the ends of `i64`: with
/// both within, neither a chunk's `v + 8 ≤ hi` test nor a parallel split's
/// `hi − lo` can wrap, so every iteration lies in `[lo, hi − 1]`.
const SANE: i64 = 1 << 62;

/// Oracle rows stay within these magnitudes, far from the `i128` the
/// solver's combinations need room in. A larger row is left out, which
/// only loses precision.
const MAX_COEFF: u128 = 1 << 20;
const MAX_CONST: u128 = 1 << 40;

/// Why an access keeps its bounds guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kept {
    /// The index goes through a float-to-int cast.
    NonAffine,
    /// The oracle found an index out of bounds, or the index has no fact
    /// to ask it about.
    MayBeOob,
    /// The oracle ran out of budget.
    Budget,
}

impl Kept {
    /// The listing's comment on the guard.
    pub(super) fn why(self) -> &'static str {
        match self {
            Kept::NonAffine => "non-affine index",
            Kept::MayBeOob => "may be out of bounds",
            Kept::Budget => "oracle budget",
        }
    }
}

/// The verdict on every access of one program.
pub(super) struct Proofs {
    /// Keyed by the address of the `Inst::Load` or `BcStmt::Store`; `None`
    /// is proven.
    sites: HashMap<usize, Option<Kept>>,
    /// The addresses of the lane-grouped `For`s whose bounds are both
    /// within [`SANE`]: their chunk test `v + 8 ≤ hi` cannot wrap.
    wrap_free: HashSet<usize>,
    pub(super) guards: GuardCounts,
}

impl Proofs {
    /// Why the load `inst` keeps its guard (`None`: proven in bounds).
    pub(super) fn load(&self, inst: &Inst) -> Option<Kept> {
        self.site(inst as *const Inst as usize)
    }

    /// Why the store `s` keeps its guard (`None`: proven in bounds).
    pub(super) fn store(&self, s: &BcStmt) -> Option<Kept> {
        self.site(s as *const BcStmt as usize)
    }

    /// Whether the lane-grouped loop `s` needs no overflow check on its
    /// chunk test.
    pub(super) fn wrap_free(&self, s: &BcStmt) -> bool {
        self.wrap_free.contains(&(s as *const BcStmt as usize))
    }

    fn site(&self, key: usize) -> Option<Kept> {
        self.sites.get(&key).copied().unwrap_or(Some(Kept::MayBeOob))
    }
}

/// Proves what it can about every access of `bc`.
pub(super) fn prove(bc: &BcProgram) -> Proofs {
    let n_i = bc.n_iregs as usize;
    let mut defs = vec![0u8; n_i];
    let mut def = vec![None; n_i];
    bc.for_each_inst(&mut |inst| {
        if let (File::I, r) = inst.dst() {
            defs[r as usize] = defs[r as usize].saturating_add(1);
            def[r as usize] = Some(*inst);
        }
    });
    for (d, n) in def.iter_mut().zip(defs) {
        if n != 1 {
            *d = None;
        }
    }
    let mut p = Prover {
        sizes: &bc.buf_sizes,
        def,
        ivl: vec![Ivl::TOP; n_i],
        grounded: vec![false; n_i],
        iter_of: vec![None; n_i],
        env: vec![Slot::TOP; bc.n_vars],
        loops: Vec::new(),
        ctx: Vec::new(),
        ctx_version: 0,
        scopes: vec![Vec::new()],
        asked: HashMap::new(),
        proofs: Proofs {
            sites: HashMap::new(),
            wrap_free: HashSet::new(),
            guards: GuardCounts::default(),
        },
    };
    p.insts(&bc.prologue, false);
    p.block(&bc.body, false, false);
    p.proofs
}

/// A closed interval of `i64` values; [`Ivl::TOP`] is no fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ivl {
    lo: i64,
    hi: i64,
}

impl Ivl {
    const TOP: Ivl = Ivl { lo: i64::MIN, hi: i64::MAX };
    const BOOL: Ivl = Ivl { lo: 0, hi: 1 };

    fn point(v: i64) -> Ivl {
        Ivl { lo: v, hi: v }
    }

    /// `[lo, hi]` if it fits `i64` (else the operation may wrap).
    fn fit(lo: i128, hi: i128) -> Option<Ivl> {
        Some(Ivl { lo: i64::try_from(lo).ok()?, hi: i64::try_from(hi).ok()? })
    }

    fn join(self, o: Ivl) -> Ivl {
        Ivl { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// The value as a truth: `Some(b)` when every value in the interval
    /// is (non)zero.
    fn truth(self) -> Option<bool> {
        if self == Ivl::point(0) {
            Some(false)
        } else if self.lo > 0 || self.hi < 0 {
            Some(true)
        } else {
            None
        }
    }

    fn of_truth(t: Option<bool>) -> Ivl {
        t.map_or(Ivl::BOOL, |b| Ivl::point(b as i64))
    }

    fn constant(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }
}

/// `op(a, b)` over intervals, `None` when there is no fact (the operation
/// may wrap, or its divisor may be zero or negative). For `+ − ×` a
/// result means no operand values wrap: the value is the mathematical one.
fn bin(op: BinOp, a: Ivl, b: Ivl) -> Option<Ivl> {
    let (al, ah, bl, bh) = (a.lo as i128, a.hi as i128, b.lo as i128, b.hi as i128);
    match op {
        BinOp::Add => Ivl::fit(al + bl, ah + bh),
        BinOp::Sub => Ivl::fit(al - bh, ah - bl),
        BinOp::Mul => {
            let c = [al * bl, al * bh, ah * bl, ah * bh];
            Ivl::fit(*c.iter().min()?, *c.iter().max()?)
        }
        // Euclidean division by a positive divisor is the floor, monotone
        // in the dividend and, for a dividend of fixed sign, in the
        // divisor: the extremes are at the corners.
        BinOp::Div if bl > 0 => {
            let q = [al.div_euclid(bl), al.div_euclid(bh), ah.div_euclid(bl), ah.div_euclid(bh)];
            Ivl::fit(*q.iter().min()?, *q.iter().max()?)
        }
        BinOp::Rem if bl > 0 => match b.constant() {
            // One period of a constant divisor: the remainders are in order.
            Some(c) if a.lo.div_euclid(c) == a.hi.div_euclid(c) => {
                Some(Ivl { lo: a.lo.rem_euclid(c), hi: a.hi.rem_euclid(c) })
            }
            _ => Some(Ivl { lo: 0, hi: b.hi - 1 }),
        },
        BinOp::Min => Some(Ivl { lo: a.lo.min(b.lo), hi: a.hi.min(b.hi) }),
        BinOp::Max => Some(Ivl { lo: a.lo.max(b.lo), hi: a.hi.max(b.hi) }),
        BinOp::And => Some(Ivl::of_truth(match (a.truth(), b.truth()) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        })),
        BinOp::Or => Some(Ivl::of_truth(match (a.truth(), b.truth()) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        })),
        _ => None,
    }
}

/// `op(a, b)` as 0/1 over intervals.
fn cmp(op: BinOp, a: Ivl, b: Ivl) -> Ivl {
    Ivl::of_truth(match op {
        BinOp::Lt if a.hi < b.lo => Some(true),
        BinOp::Lt if a.lo >= b.hi => Some(false),
        BinOp::Le if a.hi <= b.lo => Some(true),
        BinOp::Le if a.lo > b.hi => Some(false),
        BinOp::EqCmp if a.constant().is_some() && a.constant() == b.constant() => Some(true),
        BinOp::EqCmp if a.hi < b.lo || b.hi < a.lo => Some(false),
        _ => None,
    })
}

/// What the walk knows about a frame slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ivl: Ivl,
    /// The enclosing loop whose current iteration value the slot holds.
    iter: Option<usize>,
}

impl Slot {
    const TOP: Slot = Slot { ivl: Ivl::TOP, iter: None };
}

/// A loop the walk met.
struct Loop {
    lower: Reg,
    upper: Reg,
    /// The variable's interval (`TOP` for bounds that are not sane).
    ivl: Ivl,
    /// Every iteration lies between the bounds (see [`SANE`]).
    sane: bool,
}

/// What encloses the walk's position.
#[derive(Debug, Clone, Copy)]
enum Ctx {
    Loop(usize),
    If { cond: Reg, taken: bool },
}

struct Prover<'a> {
    sizes: &'a [usize],
    /// The one definition of each i-register (`None`: none, or several —
    /// a register defined twice keeps no fact).
    def: Vec<Option<Inst>>,
    /// Interval of each i-register where the walk stands.
    ivl: Vec<Ivl>,
    /// The register's definition, and those of every register it read,
    /// dominate the walk's position: the value an access sees is the one
    /// the definition computed from the values the oracle rows describe.
    grounded: Vec<bool>,
    /// The enclosing loop whose iteration value the register holds.
    iter_of: Vec<Option<usize>>,
    env: Vec<Slot>,
    loops: Vec<Loop>,
    /// Enclosing loops and `If` arms, outermost first.
    ctx: Vec<Ctx>,
    /// Bumped on every change of `ctx`: equal versions, equal context.
    ctx_version: usize,
    /// Registers defined per open block; their facts end with it.
    scopes: Vec<Vec<Reg>>,
    /// Oracle answers per `(index, size, context version)`.
    asked: HashMap<(Reg, usize, usize), Option<Kept>>,
    proofs: Proofs,
}

/// The slots a loop body writes: its lets and its loops' variables.
fn writes(body: &[BcStmt], out: &mut Vec<usize>) {
    for s in body {
        match s {
            BcStmt::Let { var, .. } => out.push(*var as usize),
            BcStmt::For { var, body, .. } => {
                out.push(*var as usize);
                writes(body, out);
            }
            BcStmt::If { then, else_, .. } => {
                writes(then, out);
                writes(else_, out);
            }
            BcStmt::Store { .. } => {}
        }
    }
}

impl<'a> Prover<'a> {
    /// `dead`: no execution reaches this code. `chunk`: the body of a loop
    /// the JIT runs in lane groups.
    fn block(&mut self, body: &'a [BcStmt], dead: bool, chunk: bool) {
        for s in body {
            self.stmt(s, dead, chunk);
        }
    }

    fn stmt(&mut self, s: &'a BcStmt, dead: bool, chunk: bool) {
        match s {
            BcStmt::Let { code, var, reg } => {
                self.insts(code, dead);
                // A chunk keeps its lets in lane arrays and reads the loop
                // variable from its base: a frame read there proves nothing.
                let r = *reg as usize;
                self.env[*var as usize] =
                    if chunk { Slot::TOP } else { Slot { ivl: self.ivl[r], iter: self.iter_of[r] } };
            }
            BcStmt::Store { code, buf, idx, .. } => {
                self.insts(code, dead);
                self.access(s as *const BcStmt as usize, *buf, *idx, dead);
            }
            BcStmt::If { code, cond, then, else_ } => {
                self.insts(code, dead);
                let t = self.ivl[*cond as usize].truth();
                let before = self.env.clone();
                self.arm(then, *cond, true, dead || t == Some(false));
                let after_then = std::mem::replace(&mut self.env, before);
                self.arm(else_, *cond, false, dead || t == Some(true));
                match t {
                    Some(true) => self.env = after_then,
                    Some(false) => {}
                    None => {
                        for (s, o) in self.env.iter_mut().zip(after_then) {
                            *s = Slot {
                                ivl: s.ivl.join(o.ivl),
                                iter: if s.iter == o.iter { s.iter } else { None },
                            };
                        }
                    }
                }
            }
            BcStmt::For { var, lower, upper, kind, preamble, body } => {
                self.insts(&lower.insts, dead);
                self.insts(&upper.insts, dead);
                let (l, u) = (self.ivl[lower.reg as usize], self.ivl[upper.reg as usize]);
                let sane = [l.lo, l.hi, u.lo, u.hi].iter().all(|v| (-SANE..=SANE).contains(v));
                let empty = sane && l.lo > u.hi - 1;
                let ivl = if sane && !empty { Ivl { lo: l.lo, hi: u.hi - 1 } } else { Ivl::TOP };
                let mut written = Vec::new();
                writes(body, &mut written);
                let saved = self.env.clone();
                for &w in &written {
                    self.env[w] = Slot::TOP;
                }
                let id = self.loops.len();
                self.loops.push(Loop { lower: lower.reg, upper: upper.reg, ivl, sane });
                self.env[*var as usize] = Slot { ivl, iter: Some(id) };
                self.enter(Ctx::Loop(id));
                let chunk = matches!(kind, LoopKind::Vectorize(_)) && bc_body_vectorizable(body);
                if chunk && sane {
                    self.proofs.wrap_free.insert(s as *const BcStmt as usize);
                }
                self.insts(preamble, dead || empty);
                self.block(body, dead || empty, chunk);
                self.leave();
                self.env = saved;
                for w in written.into_iter().chain([*var as usize]) {
                    self.env[w] = Slot::TOP;
                }
            }
        }
    }

    fn arm(&mut self, body: &'a [BcStmt], cond: Reg, taken: bool, dead: bool) {
        self.enter(Ctx::If { cond, taken });
        self.block(body, dead, false);
        self.leave();
    }

    /// Opens a block under `c`.
    fn enter(&mut self, c: Ctx) {
        self.ctx.push(c);
        self.ctx_version += 1;
        self.scopes.push(Vec::new());
    }

    /// Closes the innermost block: its registers' facts end.
    fn leave(&mut self) {
        for r in self.scopes.pop().expect("a block is open") {
            let r = r as usize;
            (self.ivl[r], self.grounded[r], self.iter_of[r]) = (Ivl::TOP, false, None);
        }
        self.ctx.pop();
        self.ctx_version += 1;
    }

    fn insts(&mut self, insts: &'a [Inst], dead: bool) {
        for inst in insts {
            if let Inst::Load { buf, idx, .. } = *inst {
                self.access(inst as *const Inst as usize, buf, idx, dead);
            }
            let (File::I, r) = inst.dst() else { continue };
            if self.def[r as usize].is_none() {
                continue;
            }
            let k = r as usize;
            self.ivl[k] = self.eval(inst);
            self.grounded[k] = inst
                .srcs()
                .into_iter()
                .flatten()
                .all(|(file, s)| file == File::F || self.grounded[s as usize]);
            self.iter_of[k] = match *inst {
                Inst::ReadVar { var, .. } => self.env[var as usize].iter,
                _ => None,
            };
            self.scopes.last_mut().expect("a block is open").push(r);
        }
    }

    /// The interval of `inst`'s i-register result.
    fn eval(&self, inst: &Inst) -> Ivl {
        let i = |r: Reg| self.ivl[r as usize];
        match *inst {
            Inst::ConstI { v, .. } => Ivl::point(v),
            Inst::ReadVar { var, .. } => self.env[var as usize].ivl,
            Inst::BinI { op, a, b, .. } => bin(op, i(a), i(b)).unwrap_or(Ivl::TOP),
            Inst::CmpI { op, a, b, .. } => cmp(op, i(a), i(b)),
            Inst::CmpF { .. } => Ivl::BOOL,
            Inst::UnI { op, a, .. } => {
                let a = i(a);
                match op {
                    // `i64::MIN` wraps (or panics): no fact.
                    _ if a.lo == i64::MIN && op != UnOp::Not => Ivl::TOP,
                    UnOp::Neg => Ivl { lo: -a.hi, hi: -a.lo },
                    UnOp::Abs if a.lo >= 0 => a,
                    UnOp::Abs if a.hi <= 0 => Ivl { lo: -a.hi, hi: -a.lo },
                    UnOp::Abs => Ivl { lo: 0, hi: a.hi.max(-a.lo) },
                    UnOp::Not => Ivl::of_truth(a.truth().map(|t| !t)),
                    UnOp::Sqrt | UnOp::Exp => Ivl::TOP,
                }
            }
            Inst::SelI { c, a, b, .. } => match i(c).truth() {
                Some(true) => i(a),
                Some(false) => i(b),
                None => i(a).join(i(b)),
            },
            _ => Ivl::TOP,
        }
    }

    /// Decides one access and records it.
    fn access(&mut self, key: usize, buf: u32, idx: Reg, dead: bool) {
        let i = self.ivl[idx as usize];
        let size = self.sizes.get(buf as usize).copied();
        let verdict = if dead || size.is_some_and(|n| i.lo >= 0 && (i.hi as u64) < n as u64) {
            self.proofs.guards.interval += 1;
            None
        } else {
            let v = match size {
                Some(n) => self.ask(idx, n),
                None => Some(Kept::MayBeOob),
            };
            match v {
                None => self.proofs.guards.oracle += 1,
                Some(_) => self.proofs.guards.kept += 1,
            }
            v
        };
        self.proofs.sites.insert(key, verdict);
    }

    /// The oracle's answer for `idx` against `size` here, asked once per
    /// context.
    fn ask(&mut self, idx: Reg, size: usize) -> Option<Kept> {
        let at = (idx, size, self.ctx_version);
        if let Some(&v) = self.asked.get(&at) {
            return v;
        }
        let v = Query::new(self).ask(idx, size);
        self.asked.insert(at, v);
        v
    }
}

/// An affine form over the oracle's columns, `Σ coeff·col + c` (terms may
/// repeat a column). Arithmetic is checked: a form whose coefficients
/// overflowed is `lost` and yields no row.
#[derive(Debug, Clone)]
struct Lin {
    terms: Vec<(usize, i128)>,
    c: i128,
    lost: bool,
}

impl Lin {
    fn col(k: usize) -> Lin {
        Lin { terms: vec![(k, 1)], c: 0, lost: false }
    }

    fn konst(c: i128) -> Lin {
        Lin { terms: Vec::new(), c, lost: false }
    }

    /// `self + k·o`.
    fn plus(mut self, o: &Lin, k: i128) -> Lin {
        let mut ok = !o.lost;
        for &(col, v) in &o.terms {
            let kv = k.checked_mul(v);
            ok &= kv.is_some();
            self.terms.push((col, kv.unwrap_or(0)));
        }
        match k.checked_mul(o.c).and_then(|kc| self.c.checked_add(kc)) {
            Some(c) if ok => self.c = c,
            _ => self.lost = true,
        }
        self
    }

    fn times(self, k: i128) -> Lin {
        Lin::konst(0).plus(&self, k)
    }

    fn plus_const(self, c: i128) -> Lin {
        self.plus(&Lin::konst(1), c)
    }

    /// The dense row `self ≥ 0` (or `= 0`) over `n` columns, `None` when a
    /// coefficient or the constant is too large to hand the solver.
    fn row(&self, n: usize, eq: bool) -> Option<Row> {
        let mut c = vec![0i128; n + 1];
        for &(k, v) in &self.terms {
            c[k] = c[k].checked_add(v)?;
        }
        c[n] = self.c;
        let small = c[..n].iter().all(|v| v.unsigned_abs() <= MAX_COEFF)
            && self.c.unsigned_abs() <= MAX_CONST;
        (small && !self.lost).then_some(Row { c, eq })
    }
}

/// One access's question to the oracle: columns for the enclosing loops'
/// iterations, existentials and opaque registers, and the rows they obey.
struct Query<'p, 'a> {
    p: &'p Prover<'a>,
    n_cols: usize,
    rows: Vec<(Lin, bool)>,
    memo: HashMap<Reg, Lin>,
    loop_cols: HashMap<usize, usize>,
    /// The expansion met a float-to-int cast.
    cast: bool,
}

impl<'p, 'a> Query<'p, 'a> {
    fn new(p: &'p Prover<'a>) -> Self {
        Query { p, n_cols: 0, rows: Vec::new(), memo: HashMap::new(), loop_cols: HashMap::new(), cast: false }
    }

    /// Proves `0 ≤ idx < size` under the context, or says why not.
    fn ask(mut self, idx: Reg, size: usize) -> Option<Kept> {
        let e = self.lin(idx);
        if self.cast {
            return Some(Kept::NonAffine);
        }
        self.context();
        // A side the index's interval already settles needs no solve.
        let known = self.p.ivl[idx as usize];
        let below = (known.lo < 0).then(|| Lin::konst(-1).plus(&e, -1));
        let above = (known.hi as i128 >= size as i128).then(|| e.plus_const(-(size as i128)));
        let mut budget = false;
        for probe in [below, above].into_iter().flatten() {
            let Some(probe) = probe.row(self.n_cols, false) else {
                return Some(Kept::MayBeOob);
            };
            let rows: Vec<Row> = (self.rows.iter())
                .filter_map(|(l, eq)| l.row(self.n_cols, *eq))
                .chain([probe])
                .collect();
            match rows_decide(&rows, self.n_cols) {
                Some(Feasibility::Infeasible) => {}
                Some(Feasibility::Feasible) => return Some(Kept::MayBeOob),
                None => budget = true,
            }
        }
        budget.then_some(Kept::Budget)
    }

    fn fresh(&mut self) -> usize {
        self.n_cols += 1;
        self.n_cols - 1
    }

    /// `l ≥ 0` (or `l = 0`).
    fn row(&mut self, l: Lin, eq: bool) {
        self.rows.push((l, eq));
    }

    /// A column with `ivl`'s rows.
    fn bounded(&mut self, ivl: Ivl) -> Lin {
        let x = Lin::col(self.fresh());
        if ivl.lo > i64::MIN {
            self.row(x.clone().plus_const(-(ivl.lo as i128)), false);
        }
        if ivl.hi < i64::MAX {
            self.row(Lin::konst(ivl.hi as i128).plus(&x, -1), false);
        }
        x
    }

    fn loop_col(&mut self, id: usize) -> Lin {
        if let Some(&k) = self.loop_cols.get(&id) {
            return Lin::col(k);
        }
        let x = self.bounded(self.p.loops[id].ivl);
        self.loop_cols.insert(id, x.terms[0].0);
        x
    }

    /// The value of i-register `r` where the access stands.
    fn lin(&mut self, r: Reg) -> Lin {
        if let Some(l) = self.memo.get(&r) {
            return l.clone();
        }
        let p = self.p;
        let k = r as usize;
        let l = match p.def[k] {
            Some(inst) if p.grounded[k] => self.expand(r, &inst),
            // A value tied to nothing else the rows mention.
            _ => self.bounded(p.ivl[k]),
        };
        self.memo.insert(r, l.clone());
        l
    }

    fn expand(&mut self, r: Reg, inst: &Inst) -> Lin {
        let p = self.p;
        let ivl = |x: Reg| p.ivl[x as usize];
        match *inst {
            Inst::ConstI { v, .. } => Lin::konst(v as i128),
            Inst::ReadVar { .. } => match p.iter_of[r as usize] {
                Some(id) => self.loop_col(id),
                None => self.bounded(ivl(r)),
            },
            Inst::BinI { op: op @ (BinOp::Add | BinOp::Sub), a, b, .. }
                if bin(op, ivl(a), ivl(b)).is_some() =>
            {
                let (x, y) = (self.lin(a), self.lin(b));
                x.plus(&y, if op == BinOp::Add { 1 } else { -1 })
            }
            Inst::BinI { op: BinOp::Mul, a, b, .. } if bin(BinOp::Mul, ivl(a), ivl(b)).is_some() => {
                match (ivl(a).constant(), ivl(b).constant()) {
                    (_, Some(c)) => self.lin(a).times(c as i128),
                    (Some(c), _) => self.lin(b).times(c as i128),
                    _ => self.bounded(ivl(r)),
                }
            }
            Inst::BinI { op: op @ (BinOp::Div | BinOp::Rem), a, b, .. } => match ivl(b).constant() {
                // a = c·q + m with 0 ≤ m < c: Euclidean division by c > 0.
                Some(c) if c > 0 => {
                    let (x, c) = (self.lin(a), c as i128);
                    let q = Lin::col(self.fresh());
                    let m = x.plus(&q, -c);
                    self.row(m.clone(), false);
                    self.row(Lin::konst(c - 1).plus(&m, -1), false);
                    if op == BinOp::Div {
                        q
                    } else {
                        m
                    }
                }
                _ => self.bounded(ivl(r)),
            },
            // `min(a, b) ≤ a, b` and `max(a, b) ≥ a, b`: a `min` upper
            // bound or `max` lower bound yields a row per argument.
            Inst::BinI { op: op @ (BinOp::Min | BinOp::Max), a, b, .. } => {
                let x = self.bounded(ivl(r));
                for arg in [a, b] {
                    let y = self.lin(arg);
                    let d = if op == BinOp::Min { y.plus(&x, -1) } else { x.clone().plus(&y, -1) };
                    self.row(d, false);
                }
                x
            }
            Inst::UnI { op: UnOp::Neg, a, .. } if ivl(a).lo > i64::MIN => self.lin(a).times(-1),
            Inst::CastFI { .. } => {
                self.cast = true;
                self.bounded(ivl(r))
            }
            _ => self.bounded(ivl(r)),
        }
    }

    /// Rows for the enclosing loop bounds and `If` arms.
    fn context(&mut self) {
        for &c in &self.p.ctx {
            match c {
                Ctx::Loop(id) => {
                    let lp = &self.p.loops[id];
                    if !lp.sane {
                        continue;
                    }
                    let (lower, upper) = (lp.lower, lp.upper);
                    let v = self.loop_col(id);
                    let lo = self.lin(lower);
                    self.row(v.clone().plus(&lo, -1), false);
                    let hi = self.lin(upper);
                    self.row(hi.plus(&v, -1).plus_const(-1), false);
                }
                Ctx::If { cond, taken } => self.cond(cond, taken),
            }
        }
    }

    /// Rows saying i-register `r` is nonzero (`taken`) or zero, where it
    /// can say so affinely.
    fn cond(&mut self, r: Reg, taken: bool) {
        if !self.p.grounded[r as usize] {
            return;
        }
        match self.p.def[r as usize] {
            Some(Inst::CmpI { op, a, b, .. }) => {
                let (x, y) = (self.lin(a), self.lin(b));
                match (op, taken) {
                    (BinOp::Lt, true) => self.row(y.plus(&x, -1).plus_const(-1), false),
                    (BinOp::Lt, false) => self.row(x.plus(&y, -1), false),
                    (BinOp::Le, true) => self.row(y.plus(&x, -1), false),
                    (BinOp::Le, false) => self.row(x.plus(&y, -1).plus_const(-1), false),
                    (BinOp::EqCmp, true) => self.row(x.plus(&y, -1), true),
                    _ => {}
                }
            }
            Some(Inst::BinI { op: BinOp::And, a, b, .. }) if taken => {
                self.cond(a, true);
                self.cond(b, true);
            }
            Some(Inst::BinI { op: BinOp::Or, a, b, .. }) if !taken => {
                self.cond(a, false);
                self.cond(b, false);
            }
            Some(Inst::UnI { op: UnOp::Not, a, .. }) => self.cond(a, !taken),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{apply_i, cmp_i};

    /// Every interval rule contains every value its operation takes on
    /// operands drawn from its input intervals (brute force over small
    /// ones), and a rule that may wrap gives no fact.
    #[test]
    fn interval_rules_contain_every_result() {
        use BinOp::*;
        let ivls = [(-5, -1), (-3, 4), (0, 0), (0, 7), (2, 9), (5, 5), (-8, -8), (1, 1)];
        for (a, b) in ivls.iter().flat_map(|a| ivls.iter().map(move |b| (*a, *b))) {
            let (ia, ib) = (Ivl { lo: a.0, hi: a.1 }, Ivl { lo: b.0, hi: b.1 });
            for op in [Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Lt, Le, EqCmp] {
                let r = match op {
                    Lt | Le | EqCmp => cmp(op, ia, ib),
                    _ => match bin(op, ia, ib) {
                        Some(r) => r,
                        None => continue,
                    },
                };
                for (x, y) in (a.0..=a.1).flat_map(|x| (b.0..=b.1).map(move |y| (x, y))) {
                    let v = match op {
                        Lt | Le | EqCmp => cmp_i(op, x, y),
                        _ => apply_i(op, x, y),
                    };
                    assert!(r.lo <= v && v <= r.hi, "{x} {op:?} {y} = {v} outside {r:?}");
                }
            }
        }
        let near_max = Ivl { lo: i64::MAX - 1, hi: i64::MAX };
        assert_eq!(bin(Add, near_max, Ivl::point(1)), None);
        assert_eq!(bin(Mul, near_max, Ivl::point(2)), None);
        assert_eq!(bin(Div, Ivl::point(7), Ivl { lo: 0, hi: 3 }), None, "a zero divisor");
    }
}
