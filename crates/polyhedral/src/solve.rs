//! Exact integer feasibility and optimization: the Omega test.
//!
//! Emptiness of a basic set (a conjunction of affine constraints) over the
//! **integers** is the core oracle of the compiler: dependence analysis and
//! every legality check reduce to it (the paper's "compile-time set
//! emptiness check", Table I). This module implements William Pugh's Omega
//! test: Gaussian-style elimination of equalities using the symmetric
//! modulus trick, followed by Fourier–Motzkin elimination of inequalities
//! refined with the *dark shadow* and, when inexact, *splinter* sub-problems.
//! The procedure is exact and needs only integer arithmetic.
//!
//! A query runs on one flat, row-major `i128` tableau (`Tableau`) that
//! lives in thread-local scratch and is filled straight from the caller's
//! constraints. Every step works in place: eliminating a column removes it
//! from a live-column list, a sub-problem (shadow, splinter, one probe of a
//! bound search) is a *frame* pushed on top of the rows it was derived from
//! and popped when decided. Each level first runs three exact pre-solves —
//! all unit-coefficient equalities in one Gaussian pass, constant-row
//! contradictions, single-variable rows folded into per-variable intervals
//! — and only then eliminates.
//!
//! On pathological inputs the solver may hit its recursion budget; it then
//! answers "feasible", which is the conservative direction for legality
//! checking (a transformation is rejected rather than wrongly accepted).
//! Such answers are counted ([`counters`]), never silent.

use crate::aff::{Aff, Constraint, ConstraintKind};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A solver-input constraint row: coefficients for each variable followed
/// by the constant, plus an equality flag. Rows use `i128` because
/// Fourier–Motzkin combinations multiply coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `[vars..., constant]`
    pub c: Vec<i128>,
    /// `true` for `= 0`, `false` for `>= 0`.
    pub eq: bool,
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Floor division for `b > 0`.
pub fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// The symmetric modulus of Pugh's Omega test: `a - m * floor(a/m + 1/2)`,
/// with result of magnitude at most `m/2`. For `|a| = m - 1` it equals
/// `-sign(a)`, which is what makes the equality-elimination trick work.
pub fn smod(a: i128, m: i128) -> i128 {
    debug_assert!(m > 0);
    a - m * div_floor(2 * a + m, 2 * m)
}

/// Outcome of the feasibility procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// Integer points exist.
    Feasible,
    /// No integer point exists.
    Infeasible,
}

const MAX_DEPTH: usize = 256;
const MAX_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

static SOLVES: AtomicU64 = AtomicU64::new(0);
static PRESOLVED: AtomicU64 = AtomicU64::new(0);
static EXHAUSTED: AtomicU64 = AtomicU64::new(0);
static BOUND_SOLVES: AtomicU64 = AtomicU64::new(0);
static WORST_BOUND: AtomicU64 = AtomicU64::new(0);

/// Process-wide totals of the oracle's work since start-up (relaxed
/// atomics: statistics, they publish nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounters {
    /// Omega-test queries answered.
    pub solves: u64,
    /// Of those, settled by the pre-solves before any elimination step.
    pub presolved: u64,
    /// Of those, answered "feasible" because the budget ran out.
    pub exhausted: u64,
    /// Of those, issued on behalf of [`int_min`]/[`int_max`] bounds.
    pub bound_solves: u64,
    /// Most solves any single bound has needed.
    pub worst_bound: u64,
}

impl OracleCounters {
    /// What was counted after `earlier` was read (`worst_bound` stays the
    /// running maximum).
    pub fn since(self, earlier: OracleCounters) -> OracleCounters {
        OracleCounters {
            solves: self.solves - earlier.solves,
            presolved: self.presolved - earlier.presolved,
            exhausted: self.exhausted - earlier.exhausted,
            bound_solves: self.bound_solves - earlier.bound_solves,
            worst_bound: self.worst_bound,
        }
    }
}

/// Reads the oracle counters.
pub fn counters() -> OracleCounters {
    OracleCounters {
        solves: SOLVES.load(Relaxed),
        presolved: PRESOLVED.load(Relaxed),
        exhausted: EXHAUSTED.load(Relaxed),
        bound_solves: BOUND_SOLVES.load(Relaxed),
        worst_bound: WORST_BOUND.load(Relaxed),
    }
}

// ---------------------------------------------------------------------------
// The tableau
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `row = 0`
    Eq,
    /// `row >= 0`
    Ineq,
    /// Not a constraint: an affine expression carried through every
    /// substitution so it can be read back over the remaining columns.
    Expr,
}

/// What normalizing a constraint row found.
enum Shape {
    /// Unsatisfiable on its own.
    False,
    /// No variable left and satisfied.
    True,
    /// Mentions one or more variables.
    Open,
}

/// What folding the single-variable rows into intervals found.
enum Fold {
    /// The frame is decided: an empty interval, or nothing but intervals.
    Settled(bool),
    /// An interval of one point became an equality.
    Pinned,
    /// Nothing the elimination below could not also see.
    Open,
}

/// Projection of a system onto one column.
enum Projection {
    /// The system has no integer point.
    Empty,
    /// No lower bound known: the column is unbounded below, or the
    /// projection outgrew the row budget.
    NoBound,
    /// Every integer point has the column at least this large.
    AtLeast(i128),
}

/// A stack of constraint systems over one column layout. Row `r` occupies
/// `a[r * stride..(r + 1) * stride]`, constant last. The top frame is the
/// rows from `row0` and the live columns `live[col0..]`; columns that are
/// not live hold zeros in every row of the frame.
#[derive(Default)]
struct Tableau {
    stride: usize,
    a: Vec<i128>,
    kind: Vec<Kind>,
    live: Vec<usize>,
    /// `(row0, col0)` of the frames below the top one.
    frames: Vec<(usize, usize)>,
    row0: usize,
    col0: usize,
    /// Elimination steps (mod-hat, Fourier–Motzkin) taken by the current
    /// query; zero means the pre-solves settled it.
    steps: usize,
    /// Per-column scratch of the interval fold and the mod-hat row.
    lo: Vec<Option<i128>>,
    hi: Vec<Option<i128>>,
    hat: Vec<i128>,
}

thread_local! {
    static ARENA: Cell<Tableau> = Cell::default();
}

/// Runs `f` on this thread's scratch tableau. A nested call (there is none
/// today) would find an empty one and allocate, not alias.
fn with_tableau<R>(f: impl FnOnce(&mut Tableau) -> R) -> R {
    let mut t = ARENA.take();
    let r = f(&mut t);
    ARENA.set(t);
    r
}

impl Tableau {
    /// Empties the tableau for a system over `n_cols` variable columns.
    fn reset(&mut self, n_cols: usize) {
        self.stride = n_cols + 1;
        self.a.clear();
        self.kind.clear();
        self.frames.clear();
        self.live.clear();
        self.live.extend(0..n_cols);
        self.row0 = 0;
        self.col0 = 0;
    }

    /// Appends a row from `[vars..., constant]` coefficients; columns past
    /// `coeffs`' variables (an objective column) start at zero.
    fn push_row(&mut self, kind: Kind, coeffs: impl ExactSizeIterator<Item = i128>) {
        let n = coeffs.len() - 1;
        debug_assert!(n < self.stride);
        let base = self.push_zero(kind);
        for (i, v) in coeffs.enumerate() {
            let at = if i == n { self.stride - 1 } else { i };
            self.a[base + at] = v;
        }
    }

    fn push_constraints(&mut self, cons: &[Constraint]) {
        for c in cons {
            let kind = if c.kind == ConstraintKind::Eq { Kind::Eq } else { Kind::Ineq };
            self.push_row(kind, c.aff.coeffs().iter().map(|&v| v as i128));
        }
    }

    /// Appends an all-zero row and returns the offset of its first column.
    fn push_zero(&mut self, kind: Kind) -> usize {
        let base = self.a.len();
        self.a.resize(base + self.stride, 0);
        self.kind.push(kind);
        base
    }

    /// Appends the row `x[plus] - x[minus]`.
    fn push_diff(&mut self, kind: Kind, plus: usize, minus: usize) {
        let base = self.push_zero(kind);
        self.a[base + plus] += 1;
        self.a[base + minus] -= 1;
    }

    /// Appends the row `coeff * x[col] + constant`.
    fn push_term(&mut self, kind: Kind, col: usize, coeff: i128, constant: i128) {
        let base = self.push_zero(kind);
        self.a[base + col] = coeff;
        self.a[base + self.stride - 1] = constant;
    }

    fn n_rows(&self) -> usize {
        self.kind.len() - self.row0
    }

    fn push_frame(&mut self) {
        self.frames.push((self.row0, self.col0));
        let col0 = self.live.len();
        self.live.extend_from_within(self.col0..);
        self.row0 = self.kind.len();
        self.col0 = col0;
    }

    fn pop_frame(&mut self) {
        self.kind.truncate(self.row0);
        self.a.truncate(self.row0 * self.stride);
        self.live.truncate(self.col0);
        (self.row0, self.col0) = self.frames.pop().expect("a frame was pushed");
    }

    /// Pushes a frame holding the constraint rows of the current one.
    fn push_copy(&mut self) {
        let (p0, p1) = (self.row0, self.kind.len());
        self.push_frame();
        for r in p0..p1 {
            if self.kind[r] != Kind::Expr {
                self.copy_row(r);
            }
        }
    }

    fn copy_row(&mut self, r: usize) {
        self.a.extend_from_within(r * self.stride..(r + 1) * self.stride);
        self.kind.push(self.kind[r]);
    }

    /// Removes row `r` of the top frame (the last row takes its place).
    fn remove_row(&mut self, r: usize) {
        let last = self.kind.len() - 1;
        if r != last {
            self.a.copy_within(last * self.stride..(last + 1) * self.stride, r * self.stride);
        }
        self.kind.swap_remove(r);
        self.a.truncate(last * self.stride);
    }

    fn remove_col(&mut self, c: usize) {
        let at = self.col0
            + self.live[self.col0..].iter().position(|&l| l == c).expect("column is live");
        self.live.swap_remove(at);
    }

    fn at(&self, r: usize, c: usize) -> i128 {
        self.a[r * self.stride + c]
    }

    /// `row r += f * row p` over the live columns and the constant.
    fn add_scaled(&mut self, r: usize, f: i128, p: usize) {
        let (rb, pb, k) = (r * self.stride, p * self.stride, self.stride - 1);
        for &c in &self.live[self.col0..] {
            self.a[rb + c] += f * self.a[pb + c];
        }
        self.a[rb + k] += f * self.a[pb + k];
    }

    /// Divides constraint row `r` by the gcd of its variable coefficients
    /// (tightening an inequality's constant) and classifies it.
    fn normalize(&mut self, r: usize) -> Shape {
        let (base, k) = (r * self.stride, self.stride - 1);
        let mut g: i128 = 0;
        for &c in &self.live[self.col0..] {
            let v = self.a[base + c];
            if v != 0 && g != 1 {
                g = gcd_i128(g, v);
            }
        }
        let eq = self.kind[r] == Kind::Eq;
        let cst = self.a[base + k];
        if g == 0 {
            return if (eq && cst == 0) || (!eq && cst >= 0) { Shape::True } else { Shape::False };
        }
        if g > 1 {
            if eq && cst % g != 0 {
                return Shape::False;
            }
            for &c in &self.live[self.col0..] {
                self.a[base + c] /= g;
            }
            self.a[base + k] = div_floor(cst, g);
        }
        Shape::Open
    }

    /// Normalizes every constraint row of the top frame and drops the
    /// satisfied constant ones; `false` on a contradiction.
    fn normalize_all(&mut self) -> bool {
        let mut r = self.row0;
        while r < self.kind.len() {
            if self.kind[r] == Kind::Expr {
                r += 1;
                continue;
            }
            match self.normalize(r) {
                Shape::False => return false,
                Shape::True => self.remove_row(r),
                Shape::Open => r += 1,
            }
        }
        true
    }

    /// One Gaussian pass: every equality with a `±1` coefficient on a
    /// column other than `keep` is solved for that column and substituted
    /// out of every row (exact over the integers). Returns the number of
    /// columns eliminated.
    fn gauss(&mut self, keep: Option<usize>) -> usize {
        let mut eliminated = 0;
        let mut r = self.row0;
        while r < self.kind.len() {
            let pivot = self.live[self.col0..].iter().copied().find(|&c| {
                self.kind[r] == Kind::Eq && Some(c) != keep && self.at(r, c).abs() == 1
            });
            let Some(k) = pivot else {
                r += 1;
                continue;
            };
            let eps = self.at(r, k);
            for o in self.row0..self.kind.len() {
                let beta = self.at(o, k);
                if o != r && beta != 0 {
                    self.add_scaled(o, -beta * eps, r);
                }
            }
            self.remove_row(r);
            self.remove_col(k);
            eliminated += 1;
            // Substitution may have made an earlier equality unit.
            r = self.row0;
        }
        eliminated
    }

    /// Folds the single-variable inequalities of the (normalized) top frame
    /// into one interval per variable, keeping only the tightest bound on
    /// each side. An interval of one point becomes an equality for the next
    /// Gaussian pass.
    fn fold_intervals(&mut self) -> Fold {
        self.lo.clear();
        self.lo.resize(self.stride, None);
        self.hi.clear();
        self.hi.resize(self.stride, None);
        let mut coupled = false;
        for r in self.row0..self.kind.len() {
            match self.single(r) {
                Some((c, 1, cst)) => self.lo[c] = Some(self.lo[c].map_or(-cst, |l| l.max(-cst))),
                Some((c, _, cst)) => self.hi[c] = Some(self.hi[c].map_or(cst, |h| h.min(cst))),
                None => coupled = true,
            }
        }
        for &c in &self.live[self.col0..] {
            if let (Some(l), Some(h)) = (self.lo[c], self.hi[c]) {
                if l > h {
                    return Fold::Settled(false);
                }
            }
        }
        if !coupled {
            return Fold::Settled(true);
        }
        let mut pinned = false;
        let mut r = self.row0;
        while r < self.kind.len() {
            let Some((c, sign, cst)) = self.single(r) else {
                r += 1;
                continue;
            };
            let (mine, other) = if sign == 1 { (-cst, self.hi[c]) } else { (cst, self.lo[c]) };
            let side = if sign == 1 { &mut self.lo[c] } else { &mut self.hi[c] };
            if *side != Some(mine) {
                // A looser bound, a duplicate, or the far side of a pin.
                self.remove_row(r);
                continue;
            }
            *side = None;
            if other == Some(mine) {
                self.kind[r] = Kind::Eq;
                self.lo[c] = None;
                self.hi[c] = None;
                pinned = true;
            }
            r += 1;
        }
        if pinned {
            Fold::Pinned
        } else {
            Fold::Open
        }
    }

    /// `(column, ±1, constant)` when row `r` is a normalized inequality on
    /// one variable.
    fn single(&self, r: usize) -> Option<(usize, i128, i128)> {
        if self.kind[r] != Kind::Ineq {
            return None;
        }
        let mut found = None;
        for &c in &self.live[self.col0..] {
            let v = self.at(r, c);
            if v != 0 {
                if found.is_some() {
                    return None;
                }
                found = Some((c, v, self.at(r, self.stride - 1)));
            }
        }
        found
    }

    /// Pugh's symmetric-modulus step on equality `e`, which has no unit
    /// coefficient: with `k` its smallest coefficient and `m = |a_k| + 1`,
    /// a fresh variable `σ` satisfies `Σ smod(a_i, m) x_i - m σ +
    /// smod(c, m) = 0`, in which `x_k` has coefficient `-sign(a_k)`.
    /// Solving that for `x_k` and substituting shrinks `e`'s coefficients;
    /// `σ` takes over column `k`, so the layout does not grow.
    fn mod_hat(&mut self, e: usize) {
        let k = self.live[self.col0..]
            .iter()
            .copied()
            .filter(|&c| self.at(e, c) != 0)
            .min_by_key(|&c| self.at(e, c).abs())
            .expect("a normalized equality mentions a variable");
        let a_k = self.at(e, k);
        let (m, s) = (a_k.abs() + 1, a_k.signum());
        let cst = self.stride - 1;
        self.hat.clear();
        self.hat.resize(self.stride, 0);
        for &c in &self.live[self.col0..] {
            self.hat[c] = smod(self.at(e, c), m);
        }
        self.hat[cst] = smod(self.at(e, cst), m);
        self.hat[k] = -m;
        // x_k = s * (Σ_{i≠k} hat_i x_i - m σ + hat_c)
        for r in self.row0..self.kind.len() {
            let base = r * self.stride;
            let beta = self.a[base + k];
            if beta == 0 {
                continue;
            }
            self.a[base + k] = 0;
            for &c in &self.live[self.col0..] {
                self.a[base + c] += beta * s * self.hat[c];
            }
            self.a[base + cst] += beta * s * self.hat[cst];
        }
    }

    /// Lower bounds, upper bounds and exactness of eliminating column `v`
    /// from the inequalities of the top frame: the integer projection is
    /// exact when every lower or every upper coefficient is unit.
    fn tally(&self, v: usize) -> (usize, usize, bool) {
        let (mut nl, mut nu, mut wide_l, mut wide_u) = (0, 0, false, false);
        for r in self.row0..self.kind.len() {
            let a = self.at(r, v);
            if a > 0 {
                nl += 1;
                wide_l |= a != 1;
            } else if a < 0 {
                nu += 1;
                wide_u |= a != -1;
            }
        }
        (nl, nu, !(wide_l && wide_u))
    }

    /// Appends, for every lower/upper pair of `rows` on column `v`, their
    /// Fourier–Motzkin combination; `tighten = 1` gives the dark shadow
    /// (`-(a-1)(b-1)` on each constant).
    fn push_shadow(&mut self, rows: std::ops::Range<usize>, v: usize, tighten: i128) {
        let cst = self.stride - 1;
        for rl in rows.clone() {
            let a = self.at(rl, v);
            if a <= 0 {
                continue;
            }
            for ru in rows.clone() {
                let b = -self.at(ru, v);
                if b <= 0 {
                    continue;
                }
                let base = self.push_zero(Kind::Ineq);
                let (lb, ub) = (rl * self.stride, ru * self.stride);
                for &c in &self.live[self.col0..] {
                    self.a[base + c] = b * self.a[lb + c] + a * self.a[ub + c];
                }
                self.a[base + cst] =
                    b * self.a[lb + cst] + a * self.a[ub + cst] - tighten * (a - 1) * (b - 1);
            }
        }
    }

    /// Real-shadow elimination of column `v` in place: the combinations
    /// replace the rows that mention `v`.
    fn eliminate_in_place(&mut self, v: usize) {
        let end = self.kind.len();
        self.push_shadow(self.row0..end, v, 0);
        for r in (self.row0..end).rev() {
            if self.at(r, v) != 0 {
                self.remove_row(r);
            }
        }
        self.remove_col(v);
    }

    /// Pushes a frame holding a shadow of the current one along `v`.
    fn push_shadow_frame(&mut self, v: usize, tighten: i128) {
        let (p0, p1) = (self.row0, self.kind.len());
        self.push_frame();
        self.remove_col(v);
        for r in p0..p1 {
            if self.at(r, v) == 0 {
                self.copy_row(r);
            }
        }
        self.push_shadow(p0..p1, v, tighten);
    }

    /// Decides the top frame, consuming its rows. `Some(true)` feasible,
    /// `Some(false)` infeasible, `None` budget exhausted. `fold` enables
    /// the interval pre-solve (off only for the debug cross-check).
    fn decide(&mut self, mut depth: usize, fold: bool) -> Option<bool> {
        loop {
            if depth > MAX_DEPTH || self.n_rows() > MAX_ROWS {
                return None;
            }
            // --- Pre-solves ---
            if !self.normalize_all() {
                return Some(false);
            }
            if self.n_rows() == 0 {
                return Some(true);
            }
            let eliminated = self.gauss(None);
            if eliminated > 0 {
                depth += eliminated;
                continue;
            }
            if fold {
                match self.fold_intervals() {
                    Fold::Settled(verdict) => return Some(verdict),
                    Fold::Pinned => continue,
                    Fold::Open => {}
                }
            }

            // --- Equality without a unit coefficient ---
            self.steps += 1;
            depth += 1;
            if let Some(e) = (self.row0..self.kind.len()).find(|&r| self.kind[r] == Kind::Eq) {
                self.mod_hat(e);
                continue;
            }

            // --- Inequalities only: pick a variable to eliminate ---
            // Prefer a variable unbounded on one side (exact projection),
            // then exact Fourier–Motzkin, then the fewest combinations.
            let mut best: Option<(usize, usize, usize, bool)> = None;
            for &v in &self.live[self.col0..] {
                let (nl, nu, exact) = self.tally(v);
                if nl == 0 || nu == 0 {
                    best = Some((v, nl, nu, true));
                    break;
                }
                let better = best.is_none_or(|(_, bl, bu, bexact)| {
                    (exact && !bexact) || (exact == bexact && nl * nu < bl * bu)
                });
                if better {
                    best = Some((v, nl, nu, exact));
                }
            }
            let (v, _, _, exact) = best.expect("a frame with rows has a live column");
            if exact {
                // Includes the unbounded direction, which has no pairs.
                self.eliminate_in_place(v);
                continue;
            }

            // Real shadow: infeasible there means infeasible.
            self.push_shadow_frame(v, 0);
            let real = self.decide(depth, fold);
            self.pop_frame();
            if real != Some(true) {
                return real;
            }
            // Dark shadow: feasible there means feasible.
            self.push_shadow_frame(v, 1);
            let dark = self.decide(depth, fold);
            self.pop_frame();
            if dark != Some(false) {
                return dark;
            }
            // Splinters: for each lower bound a*x >= -r (a > 1), integer
            // solutions missed by the dark shadow must satisfy
            // a*x = -r + i for some 0 <= i <= (a*maxb - a - maxb)/maxb.
            let (p0, p1) = (self.row0, self.kind.len());
            let maxb = (p0..p1).map(|r| -self.at(r, v)).max().expect("v has upper bounds");
            for rl in p0..p1 {
                let a = self.at(rl, v);
                if a <= 1 {
                    continue;
                }
                for i in 0..=div_floor(a * maxb - a - maxb, maxb) {
                    self.push_frame();
                    for r in p0..p1 {
                        self.copy_row(r);
                    }
                    self.copy_row(rl);
                    *self.kind.last_mut().expect("just pushed") = Kind::Eq;
                    *self.a.last_mut().expect("just pushed") -= i; // a*x + r - i = 0
                    let splinter = self.decide(depth, fold);
                    self.pop_frame();
                    if splinter != Some(false) {
                        return splinter;
                    }
                }
            }
            return Some(false);
        }
    }

    /// Answers one query on the top frame (consuming its rows), counting
    /// it. In debug builds the verdict is checked against a run without
    /// the interval pre-solve.
    fn solve(&mut self) -> bool {
        SOLVES.fetch_add(1, Relaxed);
        let plain = cfg!(debug_assertions).then(|| {
            self.push_copy();
            let v = self.decide(0, false);
            self.pop_frame();
            v
        });
        self.steps = 0;
        let verdict = self.decide(0, true);
        if let (Some(Some(p)), Some(v)) = (plain, verdict) {
            debug_assert_eq!(p, v, "pre-solve verdict differs from the plain Omega test");
        }
        match verdict {
            Some(v) => {
                if self.steps == 0 {
                    PRESOLVED.fetch_add(1, Relaxed);
                }
                v
            }
            None => {
                // Resource limit: conservatively report feasible.
                EXHAUSTED.fetch_add(1, Relaxed);
                true
            }
        }
    }

    /// Answers one query on a copy of the top frame plus the rows `extra`
    /// pushes; the frame itself is left as it was.
    fn probe(&mut self, extra: impl FnOnce(&mut Tableau)) -> bool {
        self.push_copy();
        extra(self);
        let v = self.solve();
        self.pop_frame();
        v
    }

    /// Projects the top frame (consuming its rows) onto column `z` by
    /// real-shadow elimination with integer tightening: an
    /// over-approximation of the values `z` takes on integer points, exact
    /// whenever every elimination was.
    fn project_min(&mut self, z: usize) -> Projection {
        loop {
            if self.n_rows() > MAX_ROWS {
                return Projection::NoBound;
            }
            if !self.normalize_all() {
                return Projection::Empty;
            }
            if self.gauss(Some(z)) > 0 {
                continue;
            }
            // A remaining equality is, rationally, two inequalities.
            for r in self.row0..self.kind.len() {
                if self.kind[r] == Kind::Eq {
                    self.kind[r] = Kind::Ineq;
                    self.copy_row(r);
                    let base = (self.kind.len() - 1) * self.stride;
                    for v in &mut self.a[base..] {
                        *v = -*v;
                    }
                }
            }
            let mut best: Option<(usize, usize)> = None;
            for &v in &self.live[self.col0..] {
                let (nl, nu, _) = self.tally(v);
                if v != z && best.is_none_or(|(_, pairs)| nl * nu < pairs) {
                    best = Some((v, nl * nu));
                }
            }
            match best {
                Some((v, _)) => self.eliminate_in_place(v),
                None => break,
            }
        }
        // Every row is now `±z + c >= 0`.
        let (mut lo, mut hi): (Option<i128>, Option<i128>) = (None, None);
        for r in self.row0..self.kind.len() {
            let cst = self.at(r, self.stride - 1);
            if self.at(r, z) > 0 {
                lo = Some(lo.map_or(-cst, |l| l.max(-cst)));
            } else {
                hi = Some(hi.map_or(cst, |h| h.min(cst)));
            }
        }
        match (lo, hi) {
            (Some(l), Some(h)) if l > h => Projection::Empty,
            (Some(l), _) => Projection::AtLeast(l),
            (None, _) => Projection::NoBound,
        }
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Decides whether the conjunction of `rows` over `n_vars` integer
/// variables has an integer solution. All variables (set dimensions *and*
/// symbolic parameters) are treated as free integer unknowns, matching
/// ISL's notion of emptiness for a parametric set: the set is empty iff it
/// is empty for **every** parameter value, i.e. feasibility means "some
/// parameter valuation makes it non-empty".
pub fn rows_feasible(rows: &[Row], n_vars: usize) -> Feasibility {
    with_tableau(|t| {
        t.reset(n_vars);
        for r in rows {
            debug_assert_eq!(r.c.len(), n_vars + 1);
            t.push_row(if r.eq { Kind::Eq } else { Kind::Ineq }, r.c.iter().copied());
        }
        if t.solve() {
            Feasibility::Feasible
        } else {
            Feasibility::Infeasible
        }
    })
}

/// Integer feasibility of a conjunction of [`Constraint`]s over `n_vars`
/// variables (all columns but the constant are variables).
pub fn constraints_feasible(cons: &[Constraint], n_vars: usize) -> bool {
    with_tableau(|t| {
        t.reset(n_vars);
        t.push_constraints(cons);
        t.solve()
    })
}

/// Search bound used by [`int_min`]/[`int_max`]/[`sample_point`]: values
/// beyond this magnitude are treated as unbounded.
pub const SEARCH_BOUND: i64 = 1 << 40;

/// Minimum integer value of the affine `obj` (layout `[vars..., const]`)
/// over the integer points of `cons`.
///
/// The system is first projected onto the objective, which gives a value
/// `l` no integer point undercuts; the oracle then confirms that `obj <= l`
/// is attainable. Only when the projection was inexact (or the set is
/// empty) is there a gap above `l`, crossed by galloping and bisection —
/// every step decided by the same oracle.
///
/// Returns `None` when the set is empty or the minimum does not lie within
/// [`SEARCH_BOUND`] (in particular when the objective is unbounded below).
pub fn int_min(cons: &[Constraint], n_vars: usize, obj: &Aff) -> Option<i64> {
    assert_eq!(obj.n_cols(), n_vars + 1);
    with_tableau(|t| {
        // Columns `[vars..., z, 1]` with `z = obj`.
        let z = n_vars;
        t.reset(n_vars + 1);
        t.push_constraints(cons);
        t.push_row(Kind::Eq, obj.coeffs().iter().map(|&v| -(v as i128)));
        let objective = t.kind.len() - 1;
        t.a[objective * t.stride + z] = 1;

        t.push_copy();
        let projection = t.project_min(z);
        t.pop_frame();

        let mut probes = 0;
        // z <= bound
        let mut leq = |t: &mut Tableau, bound: i64| {
            probes += 1;
            t.probe(|t| t.push_term(Kind::Ineq, z, -1, bound as i128))
        };
        let min = (|| {
            let bound = SEARCH_BOUND as i128;
            // `lo` is a value the objective cannot reach.
            let mut lo = match projection {
                Projection::Empty => return None,
                Projection::AtLeast(l) if l > bound => return None,
                Projection::AtLeast(l) if l > -bound => (l - 1) as i64,
                _ => {
                    if leq(t, -SEARCH_BOUND) {
                        return None; // unbounded below within the search range
                    }
                    -SEARCH_BOUND
                }
            };
            let mut hi = lo + 1;
            if !leq(t, hi) {
                // Inexact projection, or nothing within the bound at all.
                if !leq(t, SEARCH_BOUND) {
                    return None;
                }
                let mut step = 1;
                loop {
                    lo = hi;
                    hi = (lo + step).min(SEARCH_BOUND);
                    if hi == SEARCH_BOUND || leq(t, hi) {
                        break;
                    }
                    step *= 2;
                }
                // Invariant: leq(hi), !leq(lo).
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    if leq(t, mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
            }
            Some(hi)
        })();
        BOUND_SOLVES.fetch_add(probes, Relaxed);
        WORST_BOUND.fetch_max(probes, Relaxed);
        min
    })
}

/// Maximum integer value of `obj` over `cons`; see [`int_min`].
pub fn int_max(cons: &[Constraint], n_vars: usize, obj: &Aff) -> Option<i64> {
    int_min(cons, n_vars, &obj.scale(-1)).map(|v| -v)
}

/// Finds one integer point of the conjunction, fixing variables one at a
/// time at their minimal feasible value.
///
/// Returns `None` when the set is empty (or unbounded beyond the search
/// range in the direction needed).
pub fn sample_point(cons: &[Constraint], n_vars: usize) -> Option<Vec<i64>> {
    let mut fixed: Vec<Constraint> = cons.to_vec();
    let mut point = Vec::with_capacity(n_vars);
    for v in 0..n_vars {
        let obj = Aff::var(n_vars + 1, v);
        let val = match int_min(&fixed, n_vars, &obj) {
            Some(val) => val,
            // Unbounded below: try 0, then the maximum.
            None => {
                let mut trial = fixed.clone();
                trial.push(Constraint::eq(Aff::var(n_vars + 1, v)));
                if constraints_feasible(&trial, n_vars) {
                    0
                } else {
                    int_max(&fixed, n_vars, &obj)?
                }
            }
        };
        let pin = Aff::var(n_vars + 1, v).add(&Aff::constant(n_vars + 1, -val));
        fixed.push(Constraint::eq(pin));
        point.push(val);
    }
    if constraints_feasible(&fixed, n_vars) {
        Some(point)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// A reduced system asked many related questions
// ---------------------------------------------------------------------------

/// A constraint system whose unit equalities have been eliminated once,
/// together with differences `x[plus] - x[minus]` of its variables carried
/// through that elimination. Dependence analysis asks it the run of
/// questions a lexicographic comparison unfolds into — each one the
/// previous plus one pinned difference — without rebuilding the system.
pub struct Reduced {
    t: Tableau,
    /// The system (with what was pinned so far) is already contradictory.
    dead: bool,
}

impl Reduced {
    /// Loads `cons` over `n_vars` variables, tracks `x[plus] - x[minus]`
    /// for every pair of `diffs`, and eliminates the unit equalities.
    pub fn new(cons: &[Constraint], n_vars: usize, diffs: &[(usize, usize)]) -> Reduced {
        let mut t = ARENA.take();
        t.reset(n_vars);
        // Tracked rows first: constraint rows come and go behind them.
        for &(plus, minus) in diffs {
            t.push_diff(Kind::Expr, plus, minus);
        }
        t.push_constraints(cons);
        let mut reduced = Reduced { t, dead: false };
        reduced.reduce();
        reduced
    }

    fn reduce(&mut self) {
        while !self.dead {
            self.dead = !self.t.normalize_all();
            if self.dead || self.t.gauss(None) == 0 {
                break;
            }
        }
    }

    /// The value of tracked difference `k` if the equalities fix it.
    pub fn constant(&self, k: usize) -> Option<i128> {
        let t = &self.t;
        t.live.iter().all(|&c| t.at(k, c) == 0).then(|| t.at(k, t.stride - 1))
    }

    /// Whether the system has an integer point.
    pub fn feasible(&mut self) -> bool {
        !self.dead && self.t.probe(|_| {})
    }

    /// Whether the system has an integer point with `sign * diff_k >= 1`
    /// (`sign` is `1` or `-1`).
    pub fn feasible_beyond(&mut self, k: usize, sign: i128) -> bool {
        !self.dead
            && self.t.probe(|t| {
                t.copy_row(k);
                *t.kind.last_mut().expect("just pushed") = Kind::Ineq;
                let base = t.a.len() - t.stride;
                for v in &mut t.a[base..] {
                    *v *= sign;
                }
                *t.a.last_mut().expect("just pushed") -= 1;
            })
    }

    /// Adds `diff_k = 0` to the system and eliminates what that makes unit.
    pub fn pin(&mut self, k: usize) {
        self.t.copy_row(k);
        *self.t.kind.last_mut().expect("just pushed") = Kind::Eq;
        self.reduce();
    }
}

impl Drop for Reduced {
    fn drop(&mut self) {
        ARENA.set(std::mem::take(&mut self.t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ineq(c: &[i128]) -> Row {
        Row { c: c.to_vec(), eq: false }
    }
    fn eq(c: &[i128]) -> Row {
        Row { c: c.to_vec(), eq: true }
    }

    #[test]
    fn smod_matches_pugh() {
        assert_eq!(smod(5, 6), -1);
        assert_eq!(smod(-5, 6), 1);
        assert_eq!(smod(7, 3), 1);
        assert_eq!(smod(2, 5), 2);
        assert_eq!(smod(3, 5), -2);
    }

    #[test]
    fn box_is_feasible() {
        // 0 <= x <= 10, 0 <= y <= 10
        let rows = vec![
            ineq(&[1, 0, 0]),
            ineq(&[-1, 0, 10]),
            ineq(&[0, 1, 0]),
            ineq(&[0, -1, 10]),
        ];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Feasible);
    }

    #[test]
    fn contradictory_bounds_infeasible() {
        // x >= 5 and x <= 3
        let rows = vec![ineq(&[1, -5]), ineq(&[-1, 3])];
        assert_eq!(rows_feasible(&rows, 1), Feasibility::Infeasible);
    }

    #[test]
    fn rational_but_not_integer_point() {
        // 2x = 1: rationally feasible, integrally infeasible.
        let rows = vec![eq(&[2, -1])];
        assert_eq!(rows_feasible(&rows, 1), Feasibility::Infeasible);
    }

    #[test]
    fn dark_shadow_gap() {
        // 3x >= 1 and 3x <= 2: real shadow feasible (x in [1/3, 2/3]) but
        // no integer x.
        let rows = vec![ineq(&[3, -1]), ineq(&[-3, 2])];
        assert_eq!(rows_feasible(&rows, 1), Feasibility::Infeasible);
    }

    #[test]
    fn coupled_equalities() {
        // 3x + 5y = 1 has integer solutions (x=2, y=-1).
        let rows = vec![eq(&[3, 5, -1])];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Feasible);
        // 6x + 10y = 1 does not (gcd 2 does not divide 1).
        let rows = vec![eq(&[6, 10, -1])];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Infeasible);
    }

    #[test]
    fn pugh_paper_example() {
        // From the Omega paper: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4
        // has no integer solutions.
        let rows = vec![
            ineq(&[11, 13, -27]),
            ineq(&[-11, -13, 45]),
            ineq(&[7, -9, 10]),
            ineq(&[-7, 9, 4]),
        ];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Infeasible);
    }

    #[test]
    fn pugh_like_feasible_variant() {
        // Loosen the previous system until a point exists (x=3, y=0:
        // 11*3=33 in [27,45], 7*3=21 not in [-10,4] — pick x=1,y=2:
        // 11+26=37 ok; 7-18=-11 not ok; widen the last bound).
        let rows = vec![
            ineq(&[11, 13, -27]),
            ineq(&[-11, -13, 45]),
            ineq(&[7, -9, 12]),
            ineq(&[-7, 9, 4]),
        ];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Feasible);
    }

    #[test]
    fn parametric_set_feasibility() {
        // { i : 0 <= i < N } with N a free variable: feasible (N can be 1).
        let rows = vec![ineq(&[1, 0, 0]), ineq(&[-1, 1, -1])];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Feasible);
        // { i : 0 <= i < N, N <= 0 }: infeasible for every N.
        let rows = vec![ineq(&[1, 0, 0]), ineq(&[-1, 1, -1]), ineq(&[0, -1, 0])];
        assert_eq!(rows_feasible(&rows, 2), Feasibility::Infeasible);
    }

    #[test]
    fn tiling_equalities_feasible() {
        // i = 32*i0 + i1, 0 <= i1 < 32, 0 <= i < 100, i0 >= 2
        // => i >= 64 feasible; i0 >= 4 => i >= 128 infeasible.
        let mk = |i0_min: i128| {
            vec![
                eq(&[1, -32, -1, 0]),   // i - 32 i0 - i1 = 0
                ineq(&[0, 0, 1, 0]),    // i1 >= 0
                ineq(&[0, 0, -1, 31]),  // i1 <= 31
                ineq(&[1, 0, 0, 0]),    // i >= 0
                ineq(&[-1, 0, 0, 99]),  // i <= 99
                ineq(&[0, 1, 0, -i0_min]),
            ]
        };
        assert_eq!(rows_feasible(&mk(2), 3), Feasibility::Feasible);
        assert_eq!(rows_feasible(&mk(4), 3), Feasibility::Infeasible);
    }

    #[test]
    fn non_unit_equalities_reuse_their_column() {
        // 7x + 12y + 31z = 17 has solutions; with 0 <= x, y, z <= 1 it
        // does not (the reachable sums are 0, 7, 12, 19, 31, ...).
        let mut rows = vec![eq(&[7, 12, 31, -17])];
        assert_eq!(rows_feasible(&rows, 3), Feasibility::Feasible);
        for v in 0..3 {
            let mut lo = [0i128; 4];
            lo[v] = 1;
            let mut hi = [0i128, 0, 0, 1];
            hi[v] = -1;
            rows.push(ineq(&lo));
            rows.push(ineq(&hi));
        }
        assert_eq!(rows_feasible(&rows, 3), Feasibility::Infeasible);
        // 7x + 12y + 31z = 19 with the same box: x = 1, y = 1, z = 0.
        rows[0] = eq(&[7, 12, 31, -19]);
        assert_eq!(rows_feasible(&rows, 3), Feasibility::Feasible);
    }

    #[test]
    fn boxes_are_settled_by_the_presolves() {
        let before = counters();
        // N = 8, 0 <= i < N, 0 <= j <= 3: the equality substitutes, the
        // rest folds into intervals.
        let rows = vec![
            eq(&[0, 0, 1, -8]),
            ineq(&[1, 0, 0, 0]),
            ineq(&[-1, 0, 1, -1]),
            ineq(&[0, 1, 0, 0]),
            ineq(&[0, -1, 0, 3]),
        ];
        assert_eq!(rows_feasible(&rows, 3), Feasibility::Feasible);
        let after = counters();
        assert!(after.solves > before.solves);
        assert!(after.presolved > before.presolved);
    }

    #[test]
    fn a_spent_budget_is_counted_never_silent() {
        // Found by the brute-force properties at 2048 cases: a probe
        // `obj <= -2^40` over five boxed unknowns with a non-unit equality
        // and the 11x + 13y / 7x - 9y strips. It is infeasible, but
        // Fourier–Motzkin outgrows `MAX_ROWS` first; the conservative
        // "feasible" must then show in the counters.
        let rows = vec![
            ineq(&[1, 0, 0, 0, 0, 0, 3]),
            ineq(&[-1, 0, 0, 0, 0, 0, 3]),
            ineq(&[0, 1, 0, 0, 0, 0, 3]),
            ineq(&[0, -1, 0, 0, 0, 0, 3]),
            ineq(&[0, 0, 1, 0, 0, 0, 3]),
            ineq(&[0, 0, -1, 0, 0, 0, 3]),
            ineq(&[0, 0, 0, 1, 0, 0, 3]),
            ineq(&[0, 0, 0, -1, 0, 0, 3]),
            ineq(&[0, 0, 0, 0, 1, 0, 3]),
            ineq(&[0, 0, 0, 0, -1, 0, 3]),
            eq(&[-3, -1, 4, -2, -3, 0, 2]),
            ineq(&[-2, 3, -3, -2, 2, 0, 5]),
            ineq(&[-2, -1, -2, -1, 1, 0, 3]),
            ineq(&[0, 3, 2, -1, -3, 0, -1]),
            ineq(&[11, 13, 0, 0, 0, 0, -2]),
            ineq(&[-11, -13, 0, 0, 0, 0, 4]),
            ineq(&[7, -9, 0, 0, 0, 0, 12]),
            ineq(&[-7, 9, 0, 0, 0, 0, 3]),
            eq(&[-2, 2, 1, -2, 1, 1, 4]),
            ineq(&[0, 0, 0, 0, 0, -1, -(SEARCH_BOUND as i128)]),
        ];
        let before = counters().exhausted;
        let verdict = rows_feasible(&rows, 6);
        assert!(verdict == Feasibility::Infeasible || counters().exhausted > before);
    }

    #[test]
    fn int_min_max_over_triangle() {
        // { (i,j) : 0 <= i <= 10, 0 <= j <= i } — minimize/maximize i + j.
        let cons = vec![
            Constraint::ineq(Aff::from_coeffs(vec![1, 0, 0])),
            Constraint::ineq(Aff::from_coeffs(vec![-1, 0, 10])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 1, 0])),
            Constraint::ineq(Aff::from_coeffs(vec![1, -1, 0])),
        ];
        let obj = Aff::from_coeffs(vec![1, 1, 0]);
        assert_eq!(int_min(&cons, 2, &obj), Some(0));
        assert_eq!(int_max(&cons, 2, &obj), Some(20));
    }

    #[test]
    fn int_min_unbounded_is_none() {
        // { x : x <= 0 } minimizing x: unbounded below.
        let cons = vec![Constraint::ineq(Aff::from_coeffs(vec![-1, 0]))];
        let obj = Aff::from_coeffs(vec![1, 0]);
        assert_eq!(int_min(&cons, 1, &obj), None);
        assert_eq!(int_max(&cons, 1, &obj), Some(0));
    }

    #[test]
    fn int_min_crosses_the_gap_of_an_inexact_projection() {
        // 3x >= 1 and y = 2x: the rational minimum of y is 2/3, the
        // integer one is 2.
        let cons = vec![
            Constraint::ineq(Aff::from_coeffs(vec![3, 0, -1])),
            Constraint::eq(Aff::from_coeffs(vec![2, -1, 0])),
        ];
        let obj = Aff::from_coeffs(vec![0, 1, 0]);
        assert_eq!(int_min(&cons, 2, &obj), Some(2));
        // Beyond the search bound counts as unbounded.
        let far = vec![Constraint::ineq(Aff::from_coeffs(vec![1, -(SEARCH_BOUND + 1)]))];
        assert_eq!(int_min(&far, 1, &Aff::from_coeffs(vec![1, 0])), None);
        let near = vec![Constraint::ineq(Aff::from_coeffs(vec![1, -SEARCH_BOUND]))];
        assert_eq!(int_min(&near, 1, &Aff::from_coeffs(vec![1, 0])), Some(SEARCH_BOUND));
    }

    #[test]
    fn sample_point_satisfies_constraints() {
        let cons = vec![
            Constraint::ineq(Aff::from_coeffs(vec![1, 0, -3])),  // i >= 3
            Constraint::ineq(Aff::from_coeffs(vec![-1, 0, 7])),  // i <= 7
            Constraint::eq(Aff::from_coeffs(vec![1, -2, 0])),    // i = 2j
        ];
        let p = sample_point(&cons, 2).expect("feasible");
        assert!(p[0] >= 3 && p[0] <= 7 && p[0] == 2 * p[1]);
    }

    #[test]
    fn sample_point_empty_is_none() {
        let cons = vec![
            Constraint::ineq(Aff::from_coeffs(vec![1, -5])),
            Constraint::ineq(Aff::from_coeffs(vec![-1, 3])),
        ];
        assert_eq!(sample_point(&cons, 1), None);
    }

    #[test]
    fn equality_chain_elimination() {
        // x = y, y = z, z = 5, x >= 6: infeasible.
        let rows = vec![
            eq(&[1, -1, 0, 0]),
            eq(&[0, 1, -1, 0]),
            eq(&[0, 0, 1, -5]),
            ineq(&[1, 0, 0, -6]),
        ];
        assert_eq!(rows_feasible(&rows, 3), Feasibility::Infeasible);
    }

    #[test]
    fn reduced_system_answers_a_lexicographic_walk() {
        // x = y + 1, 0 <= y <= 4, u free in [0, 4]; differences x - y and
        // u - y.
        let cons = vec![
            Constraint::eq(Aff::from_coeffs(vec![1, -1, 0, -1])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 1, 0, 0])),
            Constraint::ineq(Aff::from_coeffs(vec![0, -1, 0, 4])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 0, 1, 0])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 0, -1, 4])),
        ];
        let mut r = Reduced::new(&cons, 3, &[(0, 1), (2, 1)]);
        assert_eq!(r.constant(0), Some(1));
        assert_eq!(r.constant(1), None);
        assert!(r.feasible());
        assert!(r.feasible_beyond(1, 1));
        assert!(r.feasible_beyond(1, -1));
        r.pin(1); // u = y
        assert_eq!(r.constant(1), Some(0));
        assert!(r.feasible());
        // Pinning a difference the equalities fixed at 1 kills the system.
        r.pin(0);
        assert!(!r.feasible());
    }
}
