//! Register facts: what the JIT knows about a program before it emits a
//! byte, from one forward walk.
//!
//! The bytecode the JIT compiles is strict SSA (`BcProgram::check_ssa`):
//! every register has one definition, and that definition dominates every
//! read. So [`derive`] gives each register one [`Fact`], written when the
//! walk meets its definition and true wherever the register is read: its
//! constant value, interval and trailing-zero bound (and lane 0's, in a
//! vector chunk), its lane shape in a chunk's general and steady copies,
//! the loop whose current iteration it holds, and whether a `Parallel`
//! loop reads it from outside (it is *pinned*). The emitter, the
//! allocator and the guard decision read these records; nothing is
//! recomputed while code is emitted.
//!
//! The same walk decides for every `Load` and `Store` whether
//! `0 ≤ index < size` holds on every execution, `size` being the length
//! the program declares for the buffer. A proven access is emitted with
//! no compare, no branch, no slow path and no deopt stub, in scalar code
//! and packed chunks alike; the others keep their guard, labeled with a
//! [`Kept`] reason that `jit::listing` prints. Nothing here is serialized:
//! the facts are derived from the bytecode each time, and
//! `JitProgram::run` refuses buffers whose lengths differ from the sizes
//! the proofs assumed. Two stages, cheapest first:
//!
//! - **Intervals.** A loop variable is `[lower.lo, upper.hi − 1]` (the
//!   eight lanes of a chunk are iterations of it too); a `let` gives its
//!   slot the register's interval for the reads it dominates; entering a
//!   loop forgets every slot its body writes; after an `If` the two arms'
//!   slots are joined. A frame read with no dominating definition — a
//!   `Machine::bind` value, a parameter — has no fact. `+ − ×` that may
//!   wrap give no fact; `div`/`rem` by a positive divisor, `min`/`max`,
//!   compares and selects are exact rules. An `If` whose condition the
//!   intervals decide has a dead arm, whose accesses never run and need
//!   no guard.
//! - **Oracle.** An access the intervals leave open whose index is affine
//!   in the enclosing loop variables becomes two integer-feasibility
//!   questions, `index ≤ −1` and `index ≥ size`, over rows from the
//!   enclosing loop bounds (a `min`/`max` bound gives one row per
//!   argument, a division by a constant an existential), the enclosing
//!   `If` conditions (negated on `else`) and the intervals of the opaque
//!   subterms. Both infeasible proves the access; a spent budget keeps
//!   the guard.
//!
//! Frame slots are not SSA: their facts follow the walk (`env`).
//!
//! # Float intervals
//!
//! An `f32` register gets an interval too ([`FIvl`]), from constants,
//! `i2f`, `+ − ×`, `min`/`max` and `neg`/`abs`. A rule evaluates its
//! operation on the operands' ends in `f64`, where these operations are
//! exact or nearly so, and rounds the result outward by one `f32` ulp: the
//! `f32` the interpreter computes is the real result rounded once, which
//! may lie half an ulp outside the real ends. Loads, any rule with an
//! operand that has no fact (`0 × ∞` is NaN), and any rule whose ends are
//! not finite give no fact, so a register with a fact is never NaN.
//! `f2i` of `[lo, hi]` is `[lo as i64, hi as i64]`, because `as` is
//! monotone.
//!
//! A varying chunk `i64` register is *narrow* when its interval lies in
//! `i32` and it is `f2i` of a varying `f32`, or `+ − ×`/`min`/`max` of
//! narrow registers and of uniform or linear ones whose intervals fit
//! `i32` too: no lane of it or of its operands leaves `i32`, so the
//! emitter computes it on packed dwords, bit-identical to `i64`.
//!
//! # Lane shapes
//!
//! Why emitting a chunk instruction once per [`Shape`] is exact (DESIGN.md
//! §14 has the long form): the interpreter runs a chunk inst-major, so the
//! eight lanes of one instruction execute back to back; when their
//! operands are equal, lane 0 traps first with the payload any lane would
//! carry, so a *uniform* result (and its guard) is computed once.
//! `apply_i` wraps, so `+`, `-` and `· const` are ring homomorphisms on
//! `i64` and a *linear* value `lane 0 + l·s` stays linear under them.
//! `% 2^k` and `/ 2^k` keep that only when the eight lanes share
//! everything above the low bits: lane 0 has `t` proved trailing zeros and
//! `7·s < 2^min(t, k)`, so adding `l·s` never carries out of the bits the
//! mask keeps and the shift drops. In a chunk's steady copy a [`Clamp`]
//! keeps its linear operand's shape; the emitter tests that it may.

use std::collections::{HashMap, HashSet};

use polyhedral::solve::{rows_decide, Feasibility, Row};

use super::Footprint;
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::par::Estimate;
use crate::expr::{BinOp, UnOp};
use crate::program::LoopKind;
use crate::vm::{bc_body_vectorizable, LANES};

/// Loop bounds are trusted only this far from the ends of `i64`: with
/// both within, neither a chunk's `v + 8 ≤ hi` test nor a parallel split's
/// `hi − lo` can wrap, so every iteration lies in `[lo, hi − 1]`.
const SANE: i64 = 1 << 62;

/// Oracle rows stay within these magnitudes, far from the `i128` the
/// solver's combinations need room in. A larger row is left out, which
/// only loses precision.
const MAX_COEFF: u128 = 1 << 20;
const MAX_CONST: u128 = 1 << 40;

/// Largest `|s|` of a [`Shape::Linear`]: keeps the per-lane index offsets
/// `l·s` and byte displacements `4·l·s` (`l < 8`) inside an `imm32`.
const MAX_STRIDE: i64 = i32::MAX as i64 / (4 * (LANES as i64 - 1));

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

/// How the eight lane values of a register defined inside a vectorized
/// chunk relate. Registers defined outside the chunk are uniform; they and
/// the uniform and linear chunk registers keep lane 0 in their scalar
/// home. Varying ones fill an XMM pair (`f32`) or all eight slots of
/// their lane array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Shape {
    /// All lanes equal.
    Uniform,
    /// Lane `l` = lane 0 + `l·s` (wrapping), `0 < |s| <= MAX_STRIDE`.
    Linear(i32),
    /// No known relation (every `f32` result that is not uniform).
    Varying,
}

/// `k` when `c == 2^k` with `k >= 1`: the divisors for which
/// `a.rem_euclid(c) == a & (c - 1)` and `a.div_euclid(c) == a >> k` hold
/// for every `i64`.
pub(super) fn pow2(c: i64) -> Option<u32> {
    (c > 1 && c & (c - 1) == 0).then(|| c.trailing_zeros())
}

/// A `min`/`max` of a `Linear(s)` value `x` and a uniform value `u` that
/// no store of the chunk precedes. Where lanes 0 and 7 of `x` lie on the
/// same side of `u` and `x`'s lanes do not wrap, the result is `x` in
/// every lane: the steady copy gives it `x`'s shape behind that test.
#[derive(Debug, Clone, Copy)]
pub(super) struct Clamp {
    pub(super) dst: Reg,
    pub(super) op: BinOp,
    pub(super) x: Reg,
    pub(super) u: Reg,
    pub(super) s: i32,
}

impl Clamp {
    /// Lane 7's offset from lane 0.
    pub(super) fn lane7(self) -> i32 {
        (LANES as i32 - 1) * self.s
    }

    /// Whether the test compares lane 7 with `u` (else lane 0): the lowest
    /// lane for a `max`, the highest for a `min`.
    pub(super) fn tests_lane7(self) -> bool {
        (self.op == BinOp::Min) == (self.s > 0)
    }
}

/// Everything the walk learned about one register. The value facts
/// `konst` to `iter_of` and `narrow` concern `i64` registers only, `fivl`
/// `f32` ones only; the others stay empty.
#[derive(Debug, Clone, Copy)]
pub(super) struct Fact {
    /// The one definition (for a register no instruction defines, a
    /// placeholder no read can see).
    def: Inst,
    /// The value of a `ConstI`.
    pub(super) konst: Option<i64>,
    /// Every value the register takes lies in it.
    ivl: Ivl,
    /// A lower bound on the trailing zero bits of every value the
    /// register takes (wrapping arithmetic: a sum is divisible by the
    /// smaller power of two, a product by their product).
    tz: u8,
    /// The same bound for lane 0 of a chunk register, whose chunk bases
    /// are aligned where the scalar remainder's iterations are not.
    lane0_tz: Option<u8>,
    /// The lane shape in the general copy of its chunk (`None`: defined
    /// outside every chunk, so uniform in all of them).
    pub(super) general: Option<Shape>,
    /// The lane shape in the steady copy, where a [`Clamp`] is linear.
    pub(super) steady: Option<Shape>,
    /// The enclosing loop whose current iteration value the register
    /// holds.
    iter_of: Option<usize>,
    /// Every value an `f32` register takes lies in it.
    fivl: FIvl,
    /// A varying chunk register whose lanes are packed dwords (see the
    /// module docs).
    pub(super) narrow: bool,
    /// `Parallel` loops around the definition.
    par: u32,
    /// Read inside a `Parallel` loop its definition is outside of: it
    /// lives in the `JitCtx` pin arrays, which worker threads share.
    pub(super) pinned: bool,
}

impl Fact {
    fn blank(file: File, r: Reg) -> Fact {
        Fact {
            def: match file {
                File::I => Inst::ConstI { dst: r, v: 0 },
                File::F => Inst::ConstF { dst: r, v: 0.0 },
            },
            konst: None,
            ivl: Ivl::TOP,
            tz: 0,
            lane0_tz: None,
            general: None,
            steady: None,
            iter_of: None,
            fivl: FIvl::TOP,
            narrow: false,
            par: 0,
            pinned: false,
        }
    }

    /// Whether the `i64` register has dword lanes in a chunk's general or
    /// `steady` copy: it is varying there and narrow, or uniform or linear
    /// there and every value is an `i32`. Packed dword code reads it so.
    pub(super) fn dwords(&self, steady: bool) -> bool {
        match if steady { self.steady } else { self.general } {
            Some(Shape::Varying) => self.narrow,
            _ => self.ivl.fits_i32(),
        }
    }

    /// A constant that fits `i32`. Every read of it is an immediate, or
    /// a `mov` of one: it has no home, and its `ConstI` emits nothing.
    pub(super) fn imm(&self) -> Option<i32> {
        self.konst.and_then(|v| i32::try_from(v).ok())
    }

    /// The trailing-zero bound lane 0 of a chunk has.
    fn lane0(&self) -> u8 {
        self.lane0_tz.unwrap_or(self.tz)
    }
}

/// What a vector chunk's emission needs beyond its registers' facts.
pub(super) struct Chunk {
    /// The clamps its steady copy tests, in order (none: no steady copy).
    pub(super) clamps: Vec<Clamp>,
    /// Both loop bounds are within [`SANE`]: the chunk test `v + 8 ≤ hi`
    /// cannot wrap.
    pub(super) wrap_free: bool,
}

/// The facts of one program.
pub(super) struct Facts {
    /// Per `i64` register.
    pub(super) i: Vec<Fact>,
    /// Per `f32` register.
    pub(super) f: Vec<Fact>,
    /// The verdict on every access, keyed by the address of the
    /// `Inst::Load` or `BcStmt::Store`; `None` is proven.
    sites: HashMap<usize, Option<Kept>>,
    /// Keyed by the address of the lane-grouped `For`.
    chunks: HashMap<usize, Chunk>,
    /// The `ReadVar`s, by address, that read a loop counter (see
    /// [`Walk::reads_counter`]).
    counter_reads: HashSet<usize>,
    /// Per variable: some `ReadVar` reads it through the frame, so the
    /// loops and lets that set it write the frame slot.
    pub(super) frame_read: Vec<bool>,
    /// The guard counts of the program's [`Footprint`].
    pub(super) guards: Footprint,
}

impl Facts {
    /// The record of register `r` of `file`.
    pub(super) fn reg(&self, file: File, r: Reg) -> &Fact {
        match file {
            File::I => &self.i[r as usize],
            File::F => &self.f[r as usize],
        }
    }

    fn reg_mut(&mut self, file: File, r: Reg) -> &mut Fact {
        match file {
            File::I => &mut self.i[r as usize],
            File::F => &mut self.f[r as usize],
        }
    }

    /// Why the load `inst` keeps its guard (`None`: proven in bounds).
    pub(super) fn load(&self, inst: &Inst) -> Option<Kept> {
        self.site(inst as *const Inst as usize)
    }

    /// Why the store `s` keeps its guard (`None`: proven in bounds).
    pub(super) fn store(&self, s: &BcStmt) -> Option<Kept> {
        self.site(s as *const BcStmt as usize)
    }

    fn site(&self, key: usize) -> Option<Kept> {
        self.sites.get(&key).copied().unwrap_or(Some(Kept::MayBeOob))
    }

    /// The chunk of the lane-grouped loop `s`.
    pub(super) fn chunk(&self, s: &BcStmt) -> &Chunk {
        &self.chunks[&(s as *const BcStmt as usize)]
    }

    /// The trip count of a loop whose bounds are both constants and that
    /// runs at least once. An empty loop is compiled like one whose bounds
    /// are not known: its code exists, and the test at its head skips it.
    pub(super) fn trips(&self, lower: Reg, upper: Reg) -> Option<u64> {
        let (lo, hi) = (self.i[lower as usize].konst?, self.i[upper as usize].konst?);
        u64::try_from(i128::from(hi) - i128::from(lo)).ok().filter(|&n| n > 0)
    }

    /// An upper bound on the iterations of a loop from `lower` to
    /// `upper`, from the interval stage: `upper.hi − lower.lo`, and `c`
    /// when `upper` is `lower + c` (through a chain of constant additions
    /// on either side), whichever is smaller; `None` when a bound has no
    /// fact.
    fn trip_bound(&self, lower: Reg, upper: Reg) -> Option<u64> {
        let (l, u) = (self.i[lower as usize].ivl, self.i[upper as usize].ivl);
        if ![l.lo, u.hi].iter().all(|v| (-SANE..=SANE).contains(v)) {
            return None;
        }
        let span = (i128::from(u.hi) - i128::from(l.lo)).max(0);
        let ((lb, lc), (ub, uc)) = (self.offset(lower), self.offset(upper));
        let c = (lb == ub).then(|| (i128::from(uc) - i128::from(lc)).max(0));
        u64::try_from(c.map_or(span, |c| c.min(span))).ok()
    }

    /// `r` as `base + c`, following `+`/`−` of constants to the register
    /// they start from.
    fn offset(&self, r: Reg) -> (Reg, i64) {
        let konst = |r: Reg| self.i[r as usize].konst;
        let (base, c) = match self.i[r as usize].def {
            Inst::BinI { op: BinOp::Add, a, b, .. } => match (konst(a), konst(b)) {
                (_, Some(c)) => (a, c),
                (Some(c), _) => (b, c),
                _ => return (r, 0),
            },
            Inst::BinI { op: BinOp::Sub, a, b, .. } => match konst(b).and_then(i64::checked_neg) {
                Some(c) => (a, c),
                None => return (r, 0),
            },
            _ => return (r, 0),
        };
        let (base, d) = self.offset(base);
        d.checked_add(c).map_or((r, 0), |c| (base, c))
    }

    /// The work of one iteration of a loop with `preamble` and `body`, in
    /// bytecode instructions (an `Inst`, a `Store` or a `Let`), at most:
    /// each instruction counts once, times the [`Facts::trip_bound`] of
    /// every loop around it inside the body, and an `If` counts its
    /// costlier arm, or its only live one when the intervals decide its
    /// condition. A loop with no trip bound makes the work unbounded,
    /// `u64::MAX`; the sums saturate there.
    fn per_iter(&self, preamble: &[Inst], body: &[BcStmt]) -> u64 {
        (preamble.len() as u64).saturating_add(self.block_work(body))
    }

    fn block_work(&self, body: &[BcStmt]) -> u64 {
        body.iter().fold(0u64, |sum, s| {
            let own = match s {
                BcStmt::Let { code, .. } | BcStmt::Store { code, .. } => code.len() as u64 + 1,
                BcStmt::If { code, cond, then, else_ } => {
                    let arm = match self.i[*cond as usize].ivl.truth() {
                        Some(true) => self.block_work(then),
                        Some(false) => self.block_work(else_),
                        None => self.block_work(then).max(self.block_work(else_)),
                    };
                    (code.len() as u64).saturating_add(arm)
                }
                BcStmt::For { lower, upper, preamble, body, .. } => {
                    let bounds = (lower.insts.len() + upper.insts.len()) as u64;
                    let trips = self.trip_bound(lower.reg, upper.reg).unwrap_or(u64::MAX);
                    bounds.saturating_add(trips.saturating_mul(self.per_iter(preamble, body)))
                }
            };
            sum.saturating_add(own)
        })
    }

    /// The work estimate of the loop `s`: the [`Facts::per_iter`] of its
    /// preamble and body, and its [`Facts::trip_bound`], `u64::MAX`
    /// without one.
    pub(super) fn estimate(&self, s: &BcStmt) -> Estimate {
        let BcStmt::For { lower, upper, preamble, body, .. } = s else {
            unreachable!("only loops have an estimate")
        };
        Estimate {
            per_iter: self.per_iter(preamble, body),
            trips: self.trip_bound(lower.reg, upper.reg).unwrap_or(u64::MAX),
        }
    }

    /// The estimate of every `Parallel` loop of `bc`, whose facts these
    /// are, by `par` index.
    pub(super) fn estimates(&self, bc: &BcProgram) -> Box<[Estimate]> {
        crate::par::par_loops(&bc.body).into_iter().map(|s| self.estimate(s)).collect()
    }

    /// Whether a lane-grouped loop runs whole chunks only: its constant
    /// bounds give a multiple of eight iterations, so it has no scalar
    /// remainder.
    pub(super) fn chunks_only(&self, lower: Reg, upper: Reg) -> bool {
        self.trips(lower, upper).is_some_and(|n| n % LANES as u64 == 0)
    }

    /// Whether the native code of the non-parallel loop `s` keeps an
    /// iteration counter: every one does but a lane-grouped loop of exactly
    /// one chunk, whose lanes are constants.
    pub(super) fn has_counter(&self, s: &BcStmt) -> bool {
        let BcStmt::For { lower, upper, kind, body, .. } = s else { return false };
        let one_chunk = self.trips(lower.reg, upper.reg) == Some(LANES as u64);
        *kind != LoopKind::Parallel && !(one_chunk && lane_grouped(*kind, body))
    }

    /// Whether the `ReadVar` `inst` reads the counter of a loop open in
    /// the same native function, not the variable frame.
    pub(super) fn reads_counter(&self, inst: &Inst) -> bool {
        self.counter_reads.contains(&(inst as *const Inst as usize))
    }
}

/// Whether a loop is compiled chunk by chunk.
pub(super) fn lane_grouped(kind: LoopKind, body: &[BcStmt]) -> bool {
    matches!(kind, LoopKind::Vectorize(_)) && bc_body_vectorizable(body)
}

/// Derives the facts of `bc`, which must be strict SSA.
pub(super) fn derive(bc: &BcProgram) -> Facts {
    walk(bc, true)
}

/// The work estimates of `bc`'s `Parallel` loops where the JIT has not
/// recorded them (`BcProgram::estimates`): from the intervals alone, since
/// the oracle decides guards, not trip bounds, so these are the numbers
/// [`derive`]'s facts give. A program that is not strict SSA (the plain
/// lowering) has no facts, and every loop of it is unbounded.
pub(crate) fn interval_estimates(bc: &BcProgram) -> Box<[Estimate]> {
    match bc.check_ssa() {
        Ok(()) => walk(bc, false).estimates(bc),
        Err(_) => vec![Estimate::UNBOUNDED; crate::par::par_loops(&bc.body).len()].into(),
    }
}

/// The walk behind [`derive`]; without the `oracle`, every access the
/// intervals leave open keeps its guard.
fn walk(bc: &BcProgram, oracle: bool) -> Facts {
    let blank = |file, n: u16| (0..n).map(|r| Fact::blank(file, r)).collect();
    let mut w = Walk {
        sizes: &bc.buf_sizes,
        facts: Facts {
            i: blank(File::I, bc.n_iregs),
            f: blank(File::F, bc.n_fregs),
            sites: HashMap::new(),
            chunks: HashMap::new(),
            counter_reads: HashSet::new(),
            frame_read: vec![false; bc.n_vars],
            guards: Footprint::default(),
        },
        env: vec![Slot::TOP; bc.n_vars],
        loops: Vec::new(),
        ctx: Vec::new(),
        ctx_version: 0,
        asked: HashMap::new(),
        chunk: None,
        par: 0,
        oracle,
    };
    w.insts(&bc.prologue, false);
    w.block(&bc.body, false);
    w.facts
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

    /// Every value is an `i32`.
    fn fits_i32(self) -> bool {
        i32::try_from(self.lo).is_ok() && i32::try_from(self.hi).is_ok()
    }
}

/// A closed interval holding every value of an `f32` register, never NaN;
/// [`FIvl::TOP`] is no fact.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FIvl {
    lo: f64,
    hi: f64,
}

impl FIvl {
    const TOP: FIvl = FIvl { lo: f64::NEG_INFINITY, hi: f64::INFINITY };

    /// The interval of the constant `v` (no fact for a non-finite one).
    fn point(v: f32) -> FIvl {
        if v.is_finite() {
            FIvl { lo: v as f64, hi: v as f64 }
        } else {
            FIvl::TOP
        }
    }

    /// The real interval `[lo, hi]` rounded outward by one `f32` ulp, so
    /// that it holds the `f32` rounding of every real in it; no fact when
    /// an end is not finite (or is NaN).
    fn outward(lo: f64, hi: f64) -> FIvl {
        let (lo, hi) = ((lo as f32).next_down(), (hi as f32).next_up());
        if lo.is_finite() && hi.is_finite() {
            FIvl { lo: lo as f64, hi: hi as f64 }
        } else {
            FIvl::TOP
        }
    }

    /// `i2f` of every value of `a`.
    fn of_int(a: Ivl) -> FIvl {
        FIvl::outward(a.lo as f64, a.hi as f64)
    }

    /// `f2i` of every value: `as` is monotone (and saturating, so `TOP`
    /// maps to [`Ivl::TOP`]).
    fn to_int(self) -> Ivl {
        Ivl { lo: self.lo as i64, hi: self.hi as i64 }
    }
}

/// `op(a, b)` over float intervals (no fact for the other operators). An
/// operand with no fact may be NaN or infinite, and so may the result
/// (`0 × ∞` is NaN).
fn fbin(op: BinOp, a: FIvl, b: FIvl) -> FIvl {
    if a == FIvl::TOP || b == FIvl::TOP {
        return FIvl::TOP;
    }
    match op {
        BinOp::Add => FIvl::outward(a.lo + b.lo, a.hi + b.hi),
        BinOp::Sub => FIvl::outward(a.lo - b.hi, a.hi - b.lo),
        BinOp::Mul => {
            let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            let lo = c.into_iter().fold(f64::INFINITY, f64::min);
            FIvl::outward(lo, c.into_iter().fold(f64::NEG_INFINITY, f64::max))
        }
        // Neither operand is NaN, so `f32::min`/`max` is the plain one.
        BinOp::Min => FIvl::outward(a.lo.min(b.lo), a.hi.min(b.hi)),
        BinOp::Max => FIvl::outward(a.lo.max(b.lo), a.hi.max(b.hi)),
        _ => FIvl::TOP,
    }
}

/// `op(a)` over a float interval.
fn fun(op: UnOp, a: FIvl) -> FIvl {
    match op {
        UnOp::Neg => FIvl::outward(-a.hi, -a.lo),
        UnOp::Abs if a.lo >= 0.0 => FIvl::outward(a.lo, a.hi),
        UnOp::Abs if a.hi <= 0.0 => FIvl::outward(-a.hi, -a.lo),
        UnOp::Abs => FIvl::outward(0.0, a.hi.max(-a.lo)),
        _ => FIvl::TOP,
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

/// The trailing-zero bound of `inst`'s result, given its operands'.
fn tz_rule(inst: &Inst, tz: impl Fn(Reg) -> u8) -> u8 {
    match *inst {
        Inst::ConstI { v: 0, .. } => 63,
        Inst::ConstI { v, .. } => v.trailing_zeros() as u8,
        Inst::BinI { op: BinOp::Add | BinOp::Sub, a, b, .. } => tz(a).min(tz(b)),
        Inst::BinI { op: BinOp::Mul, a, b, .. } => (tz(a) + tz(b)).min(63),
        _ => 0,
    }
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
    var: u32,
    /// A `Parallel` loop: its body is a native function of its own.
    par: bool,
    /// Its body writes no frame slot of its variable, so every read of
    /// the variable in its body sees the current iteration.
    stable: bool,
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

/// The vector chunk the walk is in.
struct ChunkWalk {
    /// The loop variable.
    var: u32,
    /// The loop's lower bound (chunk bases are `lo + 8n`).
    lo: Reg,
    /// A store of the chunk has been passed: no later `min`/`max` is a
    /// [`Clamp`].
    stored: bool,
    clamps: Vec<Clamp>,
}

struct Walk<'a> {
    sizes: &'a [usize],
    facts: Facts,
    env: Vec<Slot>,
    loops: Vec<Loop>,
    /// Enclosing loops and `If` arms, outermost first.
    ctx: Vec<Ctx>,
    /// Bumped on every change of `ctx`: equal versions, equal context.
    ctx_version: usize,
    /// Oracle answers per `(index, size, context version)`.
    asked: HashMap<(Reg, usize, usize), Option<Kept>>,
    chunk: Option<ChunkWalk>,
    /// `Parallel` loops around the walk's position.
    par: u32,
    /// Whether accesses the intervals leave open go to the oracle.
    oracle: bool,
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

impl Walk<'_> {
    /// `dead`: no execution reaches this code.
    fn block(&mut self, body: &[BcStmt], dead: bool) {
        for s in body {
            self.stmt(s, dead);
        }
    }

    fn stmt(&mut self, s: &BcStmt, dead: bool) {
        match s {
            BcStmt::Let { code, var, reg } => {
                self.insts(code, dead);
                self.read(File::I, *reg);
                // A chunk keeps its lets in lane arrays and reads the loop
                // variable from its base: a frame read there proves nothing.
                let r = &self.facts.i[*reg as usize];
                self.env[*var as usize] = match self.chunk {
                    Some(_) => Slot::TOP,
                    None => Slot { ivl: r.ivl, iter: r.iter_of },
                };
            }
            BcStmt::Store { code, buf, idx, val } => {
                self.insts(code, dead);
                self.read(File::I, *idx);
                self.read(File::F, *val);
                self.access(s as *const BcStmt as usize, *buf, *idx, dead);
                if let Some(c) = &mut self.chunk {
                    c.stored = true;
                }
            }
            BcStmt::If { code, cond, then, else_ } => {
                self.insts(code, dead);
                self.read(File::I, *cond);
                let t = self.facts.i[*cond as usize].ivl.truth();
                let before = self.env.clone();
                let arm = |taken| Ctx::If { cond: *cond, taken };
                self.under(arm(true), |w| w.block(then, dead || t == Some(false)));
                let after_then = std::mem::replace(&mut self.env, before);
                self.under(arm(false), |w| w.block(else_, dead || t == Some(true)));
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
            BcStmt::For { var, lower, upper, kind, preamble, body, .. } => {
                self.insts(&lower.insts, dead);
                self.insts(&upper.insts, dead);
                self.read(File::I, lower.reg);
                self.read(File::I, upper.reg);
                let ivl_of = |r: Reg| self.facts.i[r as usize].ivl;
                let (l, u) = (ivl_of(lower.reg), ivl_of(upper.reg));
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
                self.loops.push(Loop {
                    var: *var,
                    par: *kind == LoopKind::Parallel,
                    stable: !written.contains(&(*var as usize)),
                    lower: lower.reg,
                    upper: upper.reg,
                    ivl,
                    sane,
                });
                self.env[*var as usize] = Slot { ivl, iter: Some(id) };
                let par = u32::from(*kind == LoopKind::Parallel);
                self.par += par;
                if lane_grouped(*kind, body) {
                    let (var, lo) = (*var, lower.reg);
                    self.chunk = Some(ChunkWalk { var, lo, stored: false, clamps: Vec::new() });
                }
                self.under(Ctx::Loop(id), |w| {
                    w.insts(preamble, dead || empty);
                    w.block(body, dead || empty);
                });
                if let Some(c) = self.chunk.take() {
                    let chunk = Chunk { clamps: c.clamps, wrap_free: sane };
                    self.facts.chunks.insert(s as *const BcStmt as usize, chunk);
                }
                self.par -= par;
                self.env = saved;
                for w in written.into_iter().chain([*var as usize]) {
                    self.env[w] = Slot::TOP;
                }
            }
        }
    }

    /// `f` walking a block that `c` encloses.
    fn under(&mut self, c: Ctx, f: impl FnOnce(&mut Self)) {
        self.ctx.push(c);
        self.ctx_version += 1;
        f(self);
        self.ctx.pop();
        self.ctx_version += 1;
    }

    /// Whether a `ReadVar` of `var` here reads a loop counter: `var` is
    /// the variable of the innermost loop of the current native function
    /// (whose outermost loop may be a `Parallel` one) that has it, and
    /// that loop's body writes no slot of it. Every other read goes
    /// through the frame.
    fn reads_counter(&self, var: u32) -> bool {
        for c in self.ctx.iter().rev() {
            if let Ctx::Loop(id) = *c {
                let l = &self.loops[id];
                if l.var == var {
                    return l.stable;
                }
                if l.par {
                    return false;
                }
            }
        }
        false
    }

    /// A read of register `r` where the walk stands.
    fn read(&mut self, file: File, r: Reg) {
        let par = self.par;
        let f = self.facts.reg_mut(file, r);
        f.pinned |= f.par < par;
    }

    fn insts(&mut self, insts: &[Inst], dead: bool) {
        for inst in insts {
            for (file, r) in inst.srcs().into_iter().flatten() {
                self.read(file, r);
            }
            match *inst {
                Inst::Load { buf, idx, .. } => {
                    self.access(inst as *const Inst as usize, buf, idx, dead)
                }
                Inst::ReadVar { var, .. } if self.reads_counter(var) => {
                    self.facts.counter_reads.insert(inst as *const Inst as usize);
                }
                Inst::ReadVar { var, .. } => self.facts.frame_read[var as usize] = true,
                _ => {}
            }
            self.define(inst);
        }
    }

    /// The record of `inst`'s destination.
    fn define(&mut self, inst: &Inst) {
        let (file, dst) = inst.dst();
        let mut f = Fact { def: *inst, par: self.par, ..Fact::blank(file, dst) };
        if let Some(c) = &self.chunk {
            let loop_var = matches!(*inst, Inst::ReadVar { var, .. } if var == c.var);
            f.general = Some(self.shape(inst, loop_var, false));
            let clamp = if c.stored { None } else { self.clamp(inst) };
            f.steady = Some(match clamp {
                Some(k) => Shape::Linear(k.s),
                None => self.shape(inst, loop_var, true),
            });
            if file == File::I {
                // Lane 0 of the loop variable is the chunk base `lo + 8n`.
                let lo = self.facts.i[c.lo as usize].tz;
                let lane0 = tz_rule(inst, |r| self.facts.i[r as usize].lane0());
                f.lane0_tz = Some(if loop_var { lo.min(3) } else { lane0 });
            }
            if let (Some(k), Some(c)) = (clamp, &mut self.chunk) {
                c.clamps.push(k);
            }
        }
        if file == File::I {
            f.konst = match *inst {
                Inst::ConstI { v, .. } => Some(v),
                _ => None,
            };
            f.ivl = self.eval(inst);
            f.tz = tz_rule(inst, |r| self.facts.i[r as usize].tz);
            f.iter_of = match *inst {
                Inst::ReadVar { var, .. } => self.env[var as usize].iter,
                _ => None,
            };
            f.narrow = f.general == Some(Shape::Varying) && f.ivl.fits_i32() && self.narrows(inst);
        } else {
            f.fivl = self.feval(inst);
        }
        *self.facts.reg_mut(file, dst) = f;
    }

    /// Whether the varying `inst`, whose result fits `i32`, runs on packed
    /// dwords: `f2i` of a varying `f32`, or `+ − ×`/`min`/`max` of narrow
    /// registers and of uniform or linear ones that fit `i32`.
    fn narrows(&self, inst: &Inst) -> bool {
        let dwords = |r: Reg| self.facts.i[r as usize].dwords(false);
        match *inst {
            Inst::CastFI { a, .. } => self.facts.f[a as usize].general == Some(Shape::Varying),
            Inst::BinI { op, a, b, .. } => {
                matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max)
                    && dwords(a)
                    && dwords(b)
            }
            _ => false,
        }
    }

    /// The interval of `inst`'s f-register result.
    fn feval(&self, inst: &Inst) -> FIvl {
        let f = |r: Reg| self.facts.f[r as usize].fivl;
        match *inst {
            Inst::ConstF { v, .. } => FIvl::point(v),
            Inst::CastIF { a, .. } => FIvl::of_int(self.facts.i[a as usize].ivl),
            Inst::BinF { op, a, b, .. } => fbin(op, f(a), f(b)),
            Inst::UnF { op, a, .. } => fun(op, f(a)),
            _ => FIvl::TOP,
        }
    }

    /// The shape of register `r` of `file` in a chunk's general or steady
    /// copy.
    fn shape_of(&self, file: File, r: Reg, steady: bool) -> Shape {
        let f = self.facts.reg(file, r);
        if steady { f.steady } else { f.general }.unwrap_or(Shape::Uniform)
    }

    /// The shape of `inst`'s result in the chunk the walk is in, every
    /// operand's shape being known.
    fn shape(&self, inst: &Inst, loop_var: bool, steady: bool) -> Shape {
        let uniform_srcs = (inst.srcs().into_iter().flatten())
            .all(|(file, r)| self.shape_of(file, r, steady) == Shape::Uniform);
        match *inst {
            _ if loop_var => Shape::Linear(1),
            // Includes constants, other variables and uniform-index loads.
            _ if uniform_srcs => Shape::Uniform,
            Inst::BinI { op, a, b, .. } => self.linear(op, a, b, steady).unwrap_or(Shape::Varying),
            _ => Shape::Varying,
        }
    }

    /// `inst` as a [`Clamp`], in the steady copy's shapes.
    fn clamp(&self, inst: &Inst) -> Option<Clamp> {
        let Inst::BinI { dst, op: op @ (BinOp::Min | BinOp::Max), a, b } = *inst else {
            return None;
        };
        match (self.shape_of(File::I, a, true), self.shape_of(File::I, b, true)) {
            (Shape::Linear(s), Shape::Uniform) => Some(Clamp { dst, op, x: a, u: b, s }),
            (Shape::Uniform, Shape::Linear(s)) => Some(Clamp { dst, op, x: b, u: a, s }),
            _ => None,
        }
    }

    /// The shape of `op(a, b)` when it is a compile-time-linear function
    /// of the lane index.
    fn linear(&self, op: BinOp, a: Reg, b: Reg, steady: bool) -> Option<Shape> {
        let stride = |r: Reg| match self.shape_of(File::I, r, steady) {
            Shape::Uniform => Some(0i64),
            Shape::Linear(s) => Some(s as i64),
            Shape::Varying => None,
        };
        let konst = |r: Reg| self.facts.i[r as usize].konst;
        let (sa, sb) = (stride(a)?, stride(b)?);
        let s = match op {
            BinOp::Add => sa + sb,
            BinOp::Sub => sa - sb,
            BinOp::Mul => match (sa, sb) {
                (s, 0) => s.checked_mul(konst(b)?)?,
                (0, s) => s.checked_mul(konst(a)?)?,
                _ => return None,
            },
            BinOp::Div | BinOp::Rem => {
                // Lane 0 has `t` trailing zeros and `7·s < 2^t`, `t <= k`:
                // adding `l·s` never carries out of the low `t` bits, which
                // `% 2^k` keeps verbatim and `/ 2^k` drops.
                let k = pow2(konst(b)?)?;
                let t = k.min(self.facts.i[a as usize].lane0() as u32);
                if sb != 0 || sa <= 0 || (LANES as i64 - 1) * sa >= 1i64 << t {
                    return None;
                }
                if op == BinOp::Rem {
                    sa
                } else {
                    0
                }
            }
            _ => return None,
        };
        match s {
            0 => Some(Shape::Uniform),
            s if s.unsigned_abs() <= MAX_STRIDE as u64 => Some(Shape::Linear(s as i32)),
            _ => None,
        }
    }

    /// The interval of `inst`'s i-register result.
    fn eval(&self, inst: &Inst) -> Ivl {
        let i = |r: Reg| self.facts.i[r as usize].ivl;
        match *inst {
            Inst::ConstI { v, .. } => Ivl::point(v),
            Inst::ReadVar { var, .. } => self.env[var as usize].ivl,
            Inst::BinI { op, a, b, .. } => bin(op, i(a), i(b)).unwrap_or(Ivl::TOP),
            Inst::CmpI { op, a, b, .. } => cmp(op, i(a), i(b)),
            Inst::CmpF { .. } => Ivl::BOOL,
            Inst::CastFI { a, .. } => self.facts.f[a as usize].fivl.to_int(),
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
        let i = self.facts.i[idx as usize].ivl;
        let size = self.sizes.get(buf as usize).copied();
        let verdict = if dead || size.is_some_and(|n| i.lo >= 0 && (i.hi as u64) < n as u64) {
            self.facts.guards.proven_by_intervals += 1;
            None
        } else {
            let v = match size {
                Some(n) if self.oracle => self.ask(idx, n),
                _ => Some(Kept::MayBeOob),
            };
            match v {
                None => self.facts.guards.proven_by_oracle += 1,
                Some(_) => self.facts.guards.kept_guards += 1,
            }
            v
        };
        self.facts.sites.insert(key, verdict);
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
    p: &'p Walk<'a>,
    n_cols: usize,
    rows: Vec<(Lin, bool)>,
    memo: HashMap<Reg, Lin>,
    loop_cols: HashMap<usize, usize>,
    /// The expansion met a float-to-int cast.
    cast: bool,
}

impl<'p, 'a> Query<'p, 'a> {
    fn new(p: &'p Walk<'a>) -> Self {
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
        let known = self.p.facts.i[idx as usize].ivl;
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
        // The definition dominates the access (strict SSA): every row
        // describes the value it computed.
        let l = self.expand(r, &self.p.facts.i[r as usize].def);
        self.memo.insert(r, l.clone());
        l
    }

    fn expand(&mut self, r: Reg, inst: &Inst) -> Lin {
        let facts = &self.p.facts;
        let ivl = |x: Reg| facts.i[x as usize].ivl;
        match *inst {
            Inst::ConstI { v, .. } => Lin::konst(v as i128),
            Inst::ReadVar { .. } => match facts.i[r as usize].iter_of {
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
        match self.p.facts.i[r as usize].def {
            Inst::CmpI { op, a, b, .. } => {
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
            Inst::BinI { op: BinOp::And, a, b, .. } if taken => {
                self.cond(a, true);
                self.cond(b, true);
            }
            Inst::BinI { op: BinOp::Or, a, b, .. } if !taken => {
                self.cond(a, false);
                self.cond(b, false);
            }
            Inst::UnI { op: UnOp::Not, a, .. } => self.cond(a, !taken),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BCode, OptStats};
    use crate::expr::Expr;
    use crate::program::{Program, Stmt};
    use crate::vm::{apply_i, cmp_i};

    /// The index chain of the sgemm update chunk,
    /// `j = 32·c1 + 8·c11 + c13; … packB[(j % 32) + 32·k]`, parameterized
    /// on what the soundness condition depends on. Register map: i0 = lower
    /// bound, i1 = 32, i2 = 8, i3 = divisor, i4 = lane-stride factor;
    /// i5..i9 are defined by enclosing loops, i10.. by the chunk. Returns
    /// the shapes of `[c13·factor, j, j % d, j / d]`.
    fn chain(lower: i64, factor: i64, divisor: Option<i64>) -> [Shape; 4] {
        use BinOp::{Add, Div, Mul, Rem};
        let mut prologue = vec![
            Inst::ConstI { dst: 0, v: lower },
            Inst::ConstI { dst: 1, v: 32 },
            Inst::ConstI { dst: 2, v: 8 },
            Inst::ConstI { dst: 4, v: factor },
        ];
        prologue.push(match divisor {
            Some(v) => Inst::ConstI { dst: 3, v },
            None => Inst::ReadVar { dst: 3, var: 0 },
        });
        let outer = [
            Inst::ReadVar { dst: 5, var: 1 },
            Inst::BinI { dst: 6, op: Mul, a: 1, b: 5 },
            Inst::ReadVar { dst: 7, var: 2 },
            Inst::BinI { dst: 8, op: Mul, a: 2, b: 7 },
            Inst::BinI { dst: 9, op: Add, a: 6, b: 8 },
        ];
        let chunk = [
            Inst::ReadVar { dst: 10, var: 3 },
            Inst::BinI { dst: 11, op: Mul, a: 10, b: 4 },
            Inst::BinI { dst: 12, op: Add, a: 9, b: 11 },
            Inst::BinI { dst: 13, op: Rem, a: 12, b: 3 },
            Inst::BinI { dst: 14, op: Div, a: 12, b: 3 },
        ];
        let bc = BcProgram {
            prologue,
            body: vec![BcStmt::For {
                var: 3,
                lower: BCode { insts: vec![], reg: 0 },
                upper: BCode { insts: vec![], reg: 1 },
                kind: LoopKind::Vectorize(8),
                par: 0,
                preamble: outer.iter().chain(&chunk).copied().collect(),
                body: vec![],
            }],
            n_iregs: 15,
            n_fregs: 0,
            n_vars: 4,
            var_names: vec![],
            buf_sizes: vec![],
            stats: OptStats::default(),
            estimates: Default::default(),
        };
        let facts = derive(&bc);
        let shapes: Vec<Shape> =
            chunk.iter().map(|inst| facts.reg(File::I, inst.dst().1).general.unwrap()).collect();
        assert_eq!(shapes[0], Shape::Linear(1), "the loop variable");
        // Lane 0 is aligned, the scalar remainder iterations are not: the
        // lane-0 bound is a fact of its own.
        let base_tz = lower.trailing_zeros().min(3) as u8;
        assert_eq!((facts.i[10].lane0_tz, facts.i[10].tz), (Some(base_tz), 0));
        [shapes[1], shapes[2], shapes[3], shapes[4]]
    }

    #[test]
    fn sgemm_index_chain_is_linear_through_rem_32() {
        use Shape::{Linear, Uniform, Varying};
        // Bases are 32·c1 + 8·c11 + (0 + 8n): three proved trailing zeros,
        // 7 < 8, so `% 32` keeps the lanes consecutive and `/ 32` equal.
        assert_eq!(chain(0, 1, Some(32)), [Linear(1), Linear(1), Linear(1), Uniform]);
        assert_eq!(chain(16, 1, Some(8)), [Linear(1), Linear(1), Linear(1), Uniform]);
        // Lower bound 4: two trailing zeros, lanes 4..11 straddle a multiple.
        assert_eq!(chain(4, 1, Some(32)), [Linear(1), Linear(1), Varying, Varying]);
        // Stride 2 against `% 8`: 7·2 >= 8.
        assert_eq!(chain(0, 2, Some(8)), [Linear(2), Linear(2), Varying, Varying]);
        assert_eq!(chain(0, 2, Some(16)), [Linear(2), Linear(2), Varying, Varying]);
        // The divisor caps the alignment that counts: `% 4` of 8 lanes wraps.
        assert_eq!(chain(0, 1, Some(4)), [Linear(1), Linear(1), Varying, Varying]);
        // Not a power of two, not positive, not a constant.
        for d in [Some(24), Some(-32), Some(1), Some(0), None] {
            assert_eq!(chain(0, 1, d), [Linear(1), Linear(1), Varying, Varying], "{d:?}");
        }
        // Negative strides never satisfy the condition; zero is uniform.
        assert_eq!(chain(0, -1, Some(32)), [Linear(-1), Linear(-1), Varying, Varying]);
        assert_eq!(chain(0, 0, Some(32)), [Uniform; 4]);
        // A stride whose lane offsets would leave imm32 is not linear.
        assert_eq!(chain(0, MAX_STRIDE, Some(32))[0], Linear(MAX_STRIDE as i32));
        assert_eq!(chain(0, MAX_STRIDE + 1, Some(32))[0], Varying);
        assert_eq!(chain(0, i64::MAX, Some(32))[0], Varying);
        assert_eq!(chain(0, i64::MIN, Some(32))[0], Varying);
    }

    #[test]
    fn trailing_zero_facts_follow_wrapping_arithmetic() {
        let mut p = Program::new();
        let out = p.buffer("out", 1);
        let x = p.var("x");
        let e = (Expr::var(x) * Expr::i64(48) + Expr::i64(i64::MIN)) * Expr::i64(6)
            - Expr::var(x) * Expr::i64(0);
        p.push(Stmt::store(out, e, Expr::f32(0.0)));
        let bc = crate::opt::compile_program(&p).unwrap();
        let facts = derive(&bc);
        // Every proved bound must hold for the values the program computes.
        for xv in [0, 1, 3, -7, i64::MAX, i64::MIN] {
            let mut ir = vec![0i64; bc.n_iregs as usize];
            let BcStmt::Store { code, .. } = &bc.body[0] else { panic!("one store") };
            for inst in bc.prologue.iter().chain(code) {
                match *inst {
                    Inst::ConstI { dst, v } => ir[dst as usize] = v,
                    Inst::ReadVar { dst, .. } => ir[dst as usize] = xv,
                    Inst::BinI { dst, op, a, b } => {
                        ir[dst as usize] = apply_i(op, ir[a as usize], ir[b as usize]);
                    }
                    Inst::ConstF { .. } => continue,
                    other => panic!("unexpected {other:?}"),
                }
                let (_, dst) = inst.dst();
                let v = ir[dst as usize];
                let tz = facts.i[dst as usize].tz;
                assert!(v == 0 || v.trailing_zeros() >= tz as u32, "{inst:?}: {v} vs tz {tz}");
            }
        }
        assert!(facts.i.iter().any(|f| f.tz >= 4), "48·x should prove four zeros");
    }


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

    /// A xorshift generator: the draws below need no distribution beyond
    /// "many, and repeatable".
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// An endpoint: ±0, an integer near ±2^24 or ±2^31, a small one,
        /// or any finite `f32`.
        fn end(&mut self) -> f32 {
            let sign: f32 = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            let near = |base: f64, r: &mut Rng| sign as f64 * (base + r.below(9) as f64 - 4.0);
            match self.below(6) {
                0 => sign * 0.0,
                1 => near(16_777_216.0, self) as f32,
                2 => near(2_147_483_648.0, self) as f32,
                3 => sign * (self.below(1 << 12) as f32 / 64.0),
                _ => loop {
                    let v = f32::from_bits(self.next() as u32);
                    if v.is_finite() {
                        break v;
                    }
                },
            }
        }

        /// An integer endpoint: near ±2^24, ±2^31 or ±2^53, small, or any
        /// `i64`.
        fn int_end(&mut self) -> i64 {
            let sign = if self.next() & 1 == 0 { 1 } else { -1 };
            let off = self.below(17) as i64 - 8;
            match self.below(5) {
                0 => sign * (1 << 24) + off,
                1 => sign * (1 << 31) + off,
                2 => sign * (1 << 53) + off,
                3 => off,
                _ => self.next() as i64,
            }
        }

        /// `[lo, hi]` from two endpoints, sometimes a point, sometimes no
        /// fact (`[−∞, ∞]`).
        fn ivl(&mut self) -> (f32, f32) {
            let (a, b) = (self.end(), self.end());
            match self.below(8) {
                0 => (f32::NEG_INFINITY, f32::INFINITY),
                1 | 2 => (a, a),
                _ => (a.min(b), a.max(b)),
            }
        }

        /// Values of `[lo, hi]` to try: the ends, their neighbours inside,
        /// and interior points. With no fact: NaN, ±∞, ±0, the largest
        /// finite values and endpoint draws.
        fn points(&mut self, (lo, hi): (f32, f32)) -> Vec<f32> {
            if lo == f32::NEG_INFINITY {
                let mut out = vec![f32::NAN, lo, hi, 0.0, -0.0, f32::MAX, f32::MIN];
                out.extend((0..4).map(|_| self.end()));
                return out;
            }
            let mut out = vec![lo, hi, lo.next_up().min(hi), hi.next_down().max(lo)];
            for _ in 0..4 {
                let t = self.below(1 << 20) as f64 / (1u64 << 20) as f64;
                out.push(((lo as f64) + t * (hi as f64 - lo as f64)) as f32);
            }
            out
        }
    }

    /// Every float rule holds every `f32` its operation computes on values
    /// of its operands' intervals, rounding included: ties, ±0, integers
    /// around 2^24 (where `f32` stops holding every integer), 2^31 and
    /// 2^53, and arbitrary finite values. An operand with no fact may be
    /// anything, NaN and ±∞ included (`0 × ∞` is NaN). A rule with no fact
    /// gives `TOP`; any other result is never NaN.
    #[test]
    fn float_interval_rules_contain_every_result() {
        use crate::vm::{apply_f, apply_un_f};
        let within = |r: FIvl, v: f32, what: &dyn Fn() -> String| {
            if r != FIvl::TOP {
                assert!(r.lo <= v as f64 && v as f64 <= r.hi, "{} = {v:e} outside {r:?}", what());
            }
        };
        let fivl = |(lo, hi): (f32, f32)| FIvl { lo: lo as f64, hi: hi as f64 };
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..20_000 {
            let (a, b) = (rng.ivl(), rng.ivl());
            let (xs, ys) = (rng.points(a), rng.points(b));
            for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max] {
                let r = fbin(op, fivl(a), fivl(b));
                for (&x, &y) in xs.iter().flat_map(|x| ys.iter().map(move |y| (x, y))) {
                    within(r, apply_f(op, x, y), &|| format!("{x:e} {op:?} {y:e}"));
                }
            }
            for op in [UnOp::Neg, UnOp::Abs] {
                let r = fun(op, fivl(a));
                for &x in &xs {
                    within(r, apply_un_f(op, x), &|| format!("{op:?} {x:e}"));
                }
            }
            for &x in &xs {
                within(FIvl::point(x), x, &|| format!("const {x:e}"));
                let i = fivl(a).to_int();
                assert!(i.lo <= x as i64 && x as i64 <= i.hi, "f2i {x:e} outside {i:?}");
            }
            // `i2f` of an integer interval, its ends near the same places.
            let (p, q) = (rng.int_end(), rng.int_end());
            let (lo, hi) = (p.min(q), p.max(q));
            let r = FIvl::of_int(Ivl { lo, hi });
            let t = rng.below(1 << 20) as i128;
            let mid = (lo as i128 + (hi as i128 - lo as i128) * t / (1 << 20)) as i64;
            for n in [lo, hi, lo.saturating_add(1).min(hi), hi.saturating_sub(1).max(lo), mid] {
                within(r, n as f32, &|| format!("i2f {n}"));
            }
        }
        // What has no fact.
        assert_eq!(FIvl::point(f32::NAN), FIvl::TOP);
        assert_eq!(fbin(BinOp::Mul, FIvl::point(f32::MAX), FIvl::point(2.0)), FIvl::TOP);
        assert_eq!(fbin(BinOp::Div, FIvl::point(1.0), FIvl::point(2.0)), FIvl::TOP);
        assert_eq!(FIvl::TOP.to_int(), Ivl::TOP);
        for z in [0.0, -0.0] {
            assert_eq!(fbin(BinOp::Mul, FIvl::TOP, FIvl::point(z)), FIvl::TOP);
            assert_eq!(fbin(BinOp::Mul, FIvl::point(z), FIvl::TOP), FIvl::TOP);
        }
    }

    /// A bytecode program around `body`, with registers and variables
    /// enough for the estimate tests below.
    fn program(prologue: Vec<Inst>, body: Vec<BcStmt>) -> BcProgram {
        BcProgram {
            prologue,
            body,
            n_iregs: 32,
            n_fregs: 4,
            n_vars: 4,
            var_names: vec![],
            buf_sizes: vec![1024],
            stats: OptStats::default(),
            estimates: Default::default(),
        }
    }

    fn bound(reg: Reg) -> BCode {
        BCode { insts: vec![], reg }
    }

    /// `store A[idx] = 1.0`: two instructions, the constant and the store.
    fn store(idx: Reg, f: Reg) -> BcStmt {
        BcStmt::Store { code: vec![Inst::ConstF { dst: f, v: 1.0 }], buf: 0, idx, val: f }
    }

    /// `for v0 in lo..hi parallel { pre; body }`, and its estimate.
    fn par_estimate(prologue: Vec<Inst>, pre: Vec<Inst>, body: Vec<BcStmt>) -> u64 {
        let par = BcStmt::For {
            var: 0,
            lower: bound(0),
            upper: bound(1),
            kind: LoopKind::Parallel,
            par: 0,
            preamble: pre,
            body,
        };
        let bc = program(prologue, vec![par]);
        let work = interval_estimates(&bc);
        assert_eq!(work.len(), 1, "one parallel loop");
        assert_eq!(derive(&bc).estimates(&bc), work, "the oracle moves no estimate");
        assert_eq!(work[0].trips, 4, "registers 0 and 1 hold the bounds 0 and 4");
        work[0].per_iter
    }

    /// Hand-counted: every instruction once, times the trip bound of each
    /// loop around it.
    #[test]
    fn nested_constant_loops_multiply_their_trips() {
        use BinOp::Add;
        // i0 = 0, i1 = 4, i2 = 3: `for v0 in 0..4 parallel { for v1 in
        // 0..3 { for v2 in 0..4 { A[v1 + v2] = 1 } } }`.
        let prologue = vec![
            Inst::ConstI { dst: 0, v: 0 },
            Inst::ConstI { dst: 1, v: 4 },
            Inst::ConstI { dst: 2, v: 3 },
        ];
        let innermost = BcStmt::For {
            var: 2,
            lower: bound(0),
            upper: bound(1),
            kind: LoopKind::Serial,
            par: 0,
            preamble: vec![
                Inst::ReadVar { dst: 5, var: 2 },
                Inst::BinI { dst: 6, op: Add, a: 4, b: 5 },
            ],
            body: vec![store(6, 0)],
        };
        let middle = BcStmt::For {
            var: 1,
            lower: bound(0),
            upper: bound(2),
            kind: LoopKind::Serial,
            par: 0,
            preamble: vec![Inst::ReadVar { dst: 4, var: 1 }],
            body: vec![innermost],
        };
        let pre = vec![Inst::ReadVar { dst: 3, var: 0 }];
        // 1 + 3 × (1 + 4 × (2 + 2)).
        assert_eq!(par_estimate(prologue, pre, vec![middle]), 52);
    }

    /// An `If` the intervals cannot decide counts its costlier arm; one
    /// they decide counts its live arm.
    #[test]
    fn an_if_counts_its_costlier_arm() {
        // v1 is never written: a parameter, with no fact.
        let prologue = vec![
            Inst::ConstI { dst: 0, v: 0 },
            Inst::ConstI { dst: 1, v: 4 },
            Inst::ReadVar { dst: 2, var: 1 },
        ];
        let arms = |cond: Reg| BcStmt::If {
            code: vec![],
            cond,
            then: vec![store(3, 0), store(3, 1), store(3, 2)],
            else_: vec![store(3, 3)],
        };
        let pre = || vec![Inst::ReadVar { dst: 3, var: 0 }];
        // 1 + max(6, 2).
        assert_eq!(par_estimate(prologue.clone(), pre(), vec![arms(2)]), 7);
        // `0` is false: the cheap arm is the only live one, 1 + 2.
        assert_eq!(par_estimate(prologue, pre(), vec![arms(0)]), 3);
    }

    /// `upper = lower + c` bounds a loop by `c`, through chains of
    /// constant additions; the intervals alone give `upper.hi − lower.lo`.
    #[test]
    fn an_offset_upper_bound_gives_its_constant() {
        use BinOp::{Add, Mul, Sub};
        let prologue = vec![
            Inst::ConstI { dst: 0, v: 0 },
            Inst::ConstI { dst: 1, v: 4 },
            Inst::ConstI { dst: 2, v: 8 },
            Inst::ConstI { dst: 3, v: 3 },
            Inst::ConstI { dst: 4, v: 5 },
        ];
        // lower = 8·v0 in [0, 24]; upper = lower + 3 + 5, or 8·v0 + 8
        // computed afresh (an interval [8, 32], no offset of lower).
        let inner = |upper: Reg| BcStmt::For {
            var: 1,
            lower: bound(11),
            upper: bound(upper),
            kind: LoopKind::Serial,
            par: 0,
            preamble: vec![Inst::ReadVar { dst: 15, var: 1 }],
            body: vec![store(15, 0)],
        };
        let pre = || {
            vec![
                Inst::ReadVar { dst: 10, var: 0 },
                Inst::BinI { dst: 11, op: Mul, a: 2, b: 10 },
                Inst::BinI { dst: 12, op: Add, a: 11, b: 3 },
                Inst::BinI { dst: 13, op: Add, a: 4, b: 12 },
                Inst::BinI { dst: 14, op: Mul, a: 2, b: 10 },
                Inst::BinI { dst: 16, op: Add, a: 14, b: 2 },
                Inst::BinI { dst: 17, op: Sub, a: 13, b: 3 },
            ]
        };
        // 7 + 8 × (1 + 2).
        assert_eq!(par_estimate(prologue.clone(), pre(), vec![inner(13)]), 31);
        // 7 + 32 × 3: the interval bound.
        assert_eq!(par_estimate(prologue.clone(), pre(), vec![inner(16)]), 103);
        // lower + 3 + 5 − 3: 7 + 5 × 3.
        assert_eq!(par_estimate(prologue, pre(), vec![inner(17)]), 22);
    }

    /// A loop bound with no fact makes the estimate unbounded, so the
    /// dispatch splits as it would with no estimate at all.
    #[test]
    fn a_bound_with_no_fact_is_unbounded() {
        let prologue = vec![
            Inst::ConstI { dst: 0, v: 0 },
            Inst::ConstI { dst: 1, v: 4 },
            Inst::ReadVar { dst: 2, var: 1 },
        ];
        let inner = BcStmt::For {
            var: 2,
            lower: bound(0),
            upper: bound(2),
            kind: LoopKind::Serial,
            par: 0,
            preamble: vec![Inst::ReadVar { dst: 3, var: 2 }],
            body: vec![store(3, 0)],
        };
        assert_eq!(par_estimate(prologue.clone(), vec![], vec![inner]), u64::MAX);
        assert!(crate::par::pays(2, 2, u64::MAX));
        // The parallel loop's own bound with no fact: it has no trip bound,
        // so the program may split whatever one iteration costs.
        let par = BcStmt::For {
            var: 0,
            lower: bound(0),
            upper: bound(2),
            kind: LoopKind::Parallel,
            par: 0,
            preamble: vec![],
            body: vec![store(0, 0)],
        };
        let work = interval_estimates(&program(prologue, vec![par]));
        assert_eq!(*work, [Estimate { per_iter: 2, trips: u64::MAX }]);
        assert!(crate::par::may_split(&work));
    }

    /// The plain lowering reuses registers, so it has no facts and its
    /// loops are unbounded: they split as before.
    #[test]
    fn a_program_that_is_not_ssa_has_no_estimate() {
        let mut p = Program::new();
        let a = p.buffer("A", 64);
        let i = p.var("i");
        let body = vec![
            Stmt::store(a, Expr::var(i), Expr::f32(1.0)),
            Stmt::store(a, Expr::var(i) + Expr::i64(1), Expr::f32(2.0)),
        ];
        p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(8), LoopKind::Parallel, body));
        let plain = crate::opt::compile_plain(&p).unwrap();
        assert!(plain.check_ssa().is_err());
        assert_eq!(*interval_estimates(&plain), [Estimate::UNBOUNDED]);
        assert_eq!(interval_estimates(&crate::opt::compile_program(&p).unwrap()).len(), 1);
    }
}
