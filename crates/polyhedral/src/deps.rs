//! Polyhedral dependence tests.
//!
//! Tiramisu checks the legality of every scheduling command with exact
//! dependence analysis (§II: "TIRAMISU avoids over-conservative constraints
//! by relying on dependence analysis to check for the correctness of code
//! transformations"). A dependence is a relation of iteration pairs
//! `{ i → j }` whose source must run before its destination; the compiler
//! derives Layer I's value-based flow dependences itself
//! (`tiramisu::legality::flow_deps`) and asks this module two questions
//! about one under given schedules: is every pair still ordered
//! ([`is_respected`]), and does a loop level carry a pair ([`is_carried`]).

use crate::aff::{Aff, Constraint};
use crate::map::{BasicMap, Map};
use crate::solve::Reduced;

/// The system `[i, j, ts, td, params, 1]` that orders the instance pairs
/// of a relation in time: the relation's own constraints, `ts` bound to
/// the source schedule's image of `i` and `td` to the destination
/// schedule's image of `j`. Schedules are embedded as constraint systems
/// (they may involve integer-division structure, e.g. tiling, and thus not
/// be expressible as affine output functions).
struct TimeSystem {
    cons: Vec<Constraint>,
    n_vars: usize,
    /// First `ts` column; `td` starts `m` columns later.
    ts: usize,
    /// Time dimensions per statement.
    m: usize,
}

impl TimeSystem {
    /// `pairs` is over `[i (n_a), j (n_b), params, 1]`; `src` schedules
    /// `i`, `dst` schedules `j`, into one time-space.
    fn new(
        pairs: &[Constraint],
        (n_a, n_b): (usize, usize),
        src: &BasicMap,
        dst: &BasicMap,
    ) -> TimeSystem {
        let m = src.space().n_out();
        assert_eq!(m, dst.space().n_out(), "schedules must share the time-space");
        let ts = n_a + n_b;
        let n_cols = pairs.first().map_or(ts + src.space().n_params() + 1, |c| c.aff.n_cols());
        let total = n_cols + 2 * m;
        let mut cons = Vec::with_capacity(
            pairs.len() + src.constraints().len() + dst.constraints().len(),
        );
        cons.extend(pairs.iter().map(|c| place(c, &[(0, ts, 0)], total)));
        // The schedules are over [i, ts, params, 1] and [j, td, params, 1].
        cons.extend(src.constraints().iter().map(|c| place(c, &[(0, n_a, 0), (n_a, m, ts)], total)));
        cons.extend(
            dst.constraints().iter().map(|c| place(c, &[(0, n_b, n_a), (n_b, m, ts + m)], total)),
        );
        TimeSystem { cons, n_vars: total - 1, ts, m }
    }

    /// The pairs of columns whose differences `ts(k) - td(k)` compare the
    /// two time vectors.
    fn time_diffs(&self) -> Vec<(usize, usize)> {
        (0..self.m).map(|k| (self.ts + k, self.ts + self.m + k)).collect()
    }
}

/// Re-lays a constraint out over `total` columns: each `(from, len, to)`
/// moves a group of variable columns; the parameters and the constant,
/// which follow the last group, stay at the end.
fn place(c: &Constraint, groups: &[(usize, usize, usize)], total: usize) -> Constraint {
    let src = c.aff.coeffs();
    let mut row = vec![0i64; total];
    let mut tail = 0;
    for &(from, len, to) in groups {
        row[to..to + len].copy_from_slice(&src[from..from + len]);
        tail = from + len;
    }
    row[total - (src.len() - tail)..].copy_from_slice(&src[tail..]);
    Constraint { aff: Aff::from_coeffs(row), kind: c.kind }
}

/// Checks whether a dependence relation is respected by a *new* pair of
/// schedules:
/// the violation set `{ (i,j) ∈ D : σ'_dst(j) ⪯ σ'_src(i) }` must be
/// empty.
///
/// The violation is a union over the depth `k` of the first strict time
/// dimension — `ts(t) = td(t)` for `t < k`, `ts(k) > td(k)` — plus the
/// all-equal case. Each piece's system is built and reduced once; the
/// disjuncts are then walked on it, each adding one equality to the last.
/// A dimension whose difference `ts(k) - td(k)` the equalities have fixed
/// (every static dimension between statements of one nest) is decided
/// without a solve: at `0` its strict part is impossible and its equality
/// free; anywhere else no deeper disjunct can hold.
///
pub fn is_respected(relation: &Map, new_sched_src: &BasicMap, new_sched_dst: &BasicMap) -> bool {
    let n_a = relation.space().n_in();
    let n_b = relation.space().n_out();
    'pieces: for bm in relation.basics() {
        let sys = TimeSystem::new(bm.constraints(), (n_a, n_b), new_sched_src, new_sched_dst);
        let mut walk = Reduced::new(&sys.cons, sys.n_vars, &sys.time_diffs());
        for k in 0..sys.m {
            match walk.constant(k) {
                Some(0) => {}
                Some(c) => {
                    if c > 0 && walk.feasible() {
                        return false;
                    }
                    continue 'pieces;
                }
                None => {
                    if walk.feasible_beyond(k, 1) {
                        return false;
                    }
                    walk.pin(k);
                }
            }
        }
        if walk.feasible() {
            return false;
        }
    }
    true
}

/// Whether some pair of the dependence piece `bm` has equal time prefix
/// before dimension `pos` but different values at `pos` under the given
/// schedules: the dependence is *carried* by that loop.
pub fn is_carried(bm: &BasicMap, sched_src: &BasicMap, sched_dst: &BasicMap, pos: usize) -> bool {
    let dims = (bm.space().n_in(), bm.space().n_out());
    let sys = TimeSystem::new(bm.constraints(), dims, sched_src, sched_dst);
    let mut walk = Reduced::new(&sys.cons, sys.n_vars, &sys.time_diffs());
    for t in 0..pos {
        match walk.constant(t) {
            Some(0) => {}
            Some(_) => return false,
            None => walk.pin(t),
        }
    }
    match walk.constant(pos) {
        Some(0) => false,
        Some(_) => walk.feasible(),
        None => walk.feasible_beyond(pos, 1) || walk.feasible_beyond(pos, -1),
    }
}
