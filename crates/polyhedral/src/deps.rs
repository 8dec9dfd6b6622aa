//! Polyhedral dependence analysis.
//!
//! Tiramisu checks the legality of every scheduling command with exact
//! dependence analysis (§II: "TIRAMISU avoids over-conservative constraints
//! by relying on dependence analysis to check for the correctness of code
//! transformations"). This module computes, for every pair of accesses to
//! the same buffer, the relation of iteration pairs that touch the same
//! element in execution order:
//!
//! `D = { i → j : i ∈ dom(S), j ∈ dom(T), A_S(i) = A_T(j), σ_S(i) ≺ σ_T(j) }`
//!
//! Memory-based dependences ([`compute_dependences`]) cover read-after-write
//! (flow), write-after-read (anti) and write-after-write (output) pairs.
//! Value-based flow dependences ([`compute_flow`]) additionally remove
//! pairs whose value is overwritten by an intermediate write (Feautrier's
//! dataflow analysis); the subtraction is applied only when the required
//! projection is exact, so the result is always a *sound* (possibly
//! conservative) dependence set.

use crate::aff::{Aff, Constraint};
use crate::map::{BasicMap, Map};
use crate::set::BasicSet;
use crate::solve::Reduced;
use crate::space::MapSpace;
use crate::Result;

/// One access of a statement to a buffer, together with the statement's
/// domain and schedule.
#[derive(Debug, Clone)]
pub struct Access {
    /// Statement (computation) name.
    pub stmt: String,
    /// Iteration domain of the statement.
    pub domain: BasicSet,
    /// Schedule: domain → common time–space. All accesses passed to the
    /// analysis must share the schedule space dimensionality.
    pub schedule: BasicMap,
    /// Access relation: domain → buffer elements.
    pub access: BasicMap,
    /// Name of the accessed buffer.
    pub buffer: String,
}

/// The kind of a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceKind {
    /// Read after write (flow / true dependence).
    Flow,
    /// Write after read (anti dependence).
    Anti,
    /// Write after write (output dependence).
    Output,
}

impl std::fmt::Display for DependenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DependenceKind::Flow => write!(f, "flow"),
            DependenceKind::Anti => write!(f, "anti"),
            DependenceKind::Output => write!(f, "output"),
        }
    }
}

/// A dependence between two statements: a non-empty relation of iteration
/// pairs ordered by the current schedule.
#[derive(Debug, Clone)]
pub struct Dependence {
    /// Kind (flow, anti, output).
    pub kind: DependenceKind,
    /// Source statement name.
    pub src: String,
    /// Destination statement name.
    pub dst: String,
    /// Buffer through which the statements communicate.
    pub buffer: String,
    /// `{ src iterations → dst iterations }`.
    pub relation: Map,
}

/// The system `[i, j, mid, ts, td, params, 1]` that orders the instance
/// pairs of a relation in time: the relation's own constraints, `ts` bound
/// to the source schedule's image of `i` and `td` to the destination
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
    /// `pairs` is over `[i (n_a), j (n_b), mid (n_mid), params, 1]`; `src`
    /// schedules `i`, `dst` schedules `j`, into one time-space.
    fn new(
        pairs: &[Constraint],
        (n_a, n_b, n_mid): (usize, usize, usize),
        src: &BasicMap,
        dst: &BasicMap,
    ) -> TimeSystem {
        let m = src.space().n_out();
        assert_eq!(m, dst.space().n_out(), "schedules must share the time-space");
        let ts = n_a + n_b + n_mid;
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

/// Builds the raw (ordered, same-element) relation between accesses `a`
/// (source) and `b` (destination). Returns `None` when the relation is
/// empty.
///
/// # Errors
///
/// Propagates space mismatches from the underlying set operations.
pub fn access_pair_relation(a: &Access, b: &Access) -> Result<Option<Map>> {
    if a.buffer != b.buffer {
        return Ok(None);
    }
    let n_a = a.domain.space().n_dims();
    let n_b = b.domain.space().n_dims();
    let n_p = a.domain.space().n_params();
    let n_buf = a.access.space().n_out();
    assert_eq!(
        n_buf,
        b.access.space().n_out(),
        "accesses to one buffer must agree on its dimensionality"
    );

    // Pairs touching one element: [i, j, e, params, 1].
    let width = n_a + n_b + n_buf + n_p + 1;
    let mut pairs: Vec<Constraint> = Vec::new();
    pairs.extend(a.domain.constraints().iter().map(|c| place(c, &[(0, n_a, 0)], width)));
    pairs.extend(b.domain.constraints().iter().map(|c| place(c, &[(0, n_b, n_a)], width)));
    pairs.extend(
        a.access.constraints().iter().map(|c| place(c, &[(0, n_a, 0), (n_a, n_buf, n_a + n_b)], width)),
    );
    pairs.extend(
        b.access
            .constraints()
            .iter()
            .map(|c| place(c, &[(0, n_b, n_a), (n_b, n_buf, n_a + n_b)], width)),
    );
    let sys = TimeSystem::new(&pairs, (n_a, n_b, n_buf), &a.schedule, &b.schedule);
    let total = sys.n_vars + 1;

    // For each depth k, one disjunct: ts prefix equal to td, strictly less
    // at k. Project out [e, ts, td] to get the (i, j) relation.
    let pair_space = MapSpace::new(a.domain.space().clone(), b.domain.space().clone());
    let mut result = Map::empty(pair_space.clone());
    let diffs = sys.time_diffs();
    for k in 0..sys.m {
        let mut rows = sys.cons.clone();
        for &(ts, td) in &diffs[..k] {
            rows.push(Constraint::eq(Aff::var(total, td).sub(&Aff::var(total, ts))));
        }
        let (ts, td) = diffs[k];
        rows.push(Constraint::ineq(
            Aff::var(total, td).sub(&Aff::var(total, ts)).add(&Aff::constant(total, -1)),
        ));
        // Project out the auxiliary columns (buffer element + both time
        // vectors). Inexact projections only widen the relation, which is
        // sound (conservative) for dependence analysis.
        for col in (n_a + n_b..sys.ts + 2 * sys.m).rev() {
            rows = crate::fm::eliminate_col(&rows, col).cons;
        }
        let bm = BasicMap::from_constraints(pair_space.clone(), rows);
        if !bm.is_empty() {
            result = result.union(&Map::from_basic(bm))?;
        }
    }
    if result.is_empty() {
        Ok(None)
    } else {
        Ok(Some(result))
    }
}

/// Computes all memory-based dependences among `writes` and `reads`.
///
/// # Errors
///
/// Propagates space mismatches from the underlying set operations.
pub fn compute_dependences(writes: &[Access], reads: &[Access]) -> Result<Vec<Dependence>> {
    let mut out = Vec::new();
    for w in writes {
        for r in reads {
            if let Some(rel) = access_pair_relation(w, r)? {
                out.push(Dependence {
                    kind: DependenceKind::Flow,
                    src: w.stmt.clone(),
                    dst: r.stmt.clone(),
                    buffer: w.buffer.clone(),
                    relation: rel,
                });
            }
        }
    }
    for r in reads {
        for w in writes {
            if let Some(rel) = access_pair_relation(r, w)? {
                out.push(Dependence {
                    kind: DependenceKind::Anti,
                    src: r.stmt.clone(),
                    dst: w.stmt.clone(),
                    buffer: r.buffer.clone(),
                    relation: rel,
                });
            }
        }
    }
    for w1 in writes {
        for w2 in writes {
            if let Some(rel) = access_pair_relation(w1, w2)? {
                out.push(Dependence {
                    kind: DependenceKind::Output,
                    src: w1.stmt.clone(),
                    dst: w2.stmt.clone(),
                    buffer: w1.buffer.clone(),
                    relation: rel,
                });
            }
        }
    }
    Ok(out)
}

/// Computes value-based flow dependences: memory-based flow dependences
/// minus pairs killed by an intermediate write, when the kill relation can
/// be computed exactly.
///
/// # Errors
///
/// Propagates space mismatches from the underlying set operations.
pub fn compute_flow(writes: &[Access], reads: &[Access]) -> Result<Vec<Dependence>> {
    let mut out = Vec::new();
    for w in writes {
        for r in reads {
            let Some(mut rel) = access_pair_relation(w, r)? else { continue };
            // Remove pairs (i, j) for which some intermediate write w2(k)
            // to the same element lies strictly between them:
            // killed = { i→j : ∃k. (i→k) ∈ D(w, w2) and (k→j) ∈ D(w2, r) }.
            for w2 in writes {
                if w2.buffer != w.buffer {
                    continue;
                }
                let Some(d_w_w2) = access_pair_relation(w, w2)? else { continue };
                let Some(d_w2_r) = access_pair_relation(w2, r)? else { continue };
                let mut killed = Map::empty(rel.space().clone());
                let mut all_exact = true;
                for m1 in d_w_w2.basics() {
                    for m2 in d_w2_r.basics() {
                        let (comp, exact) = m1.apply_range(m2)?;
                        all_exact &= exact;
                        if !comp.is_empty() {
                            killed = killed.union(&Map::from_basic(comp))?;
                        }
                    }
                }
                // Subtracting an over-approximated kill set would drop real
                // dependences (unsound); fall back to memory-based then.
                if all_exact && !killed.is_empty() {
                    rel = rel.subtract(&killed)?;
                }
            }
            if !rel.is_empty() {
                out.push(Dependence {
                    kind: DependenceKind::Flow,
                    src: w.stmt.clone(),
                    dst: r.stmt.clone(),
                    buffer: w.buffer.clone(),
                    relation: rel,
                });
            }
        }
    }
    Ok(out)
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
        let sys = TimeSystem::new(bm.constraints(), (n_a, n_b, 0), new_sched_src, new_sched_dst);
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
    let dims = (bm.space().n_in(), bm.space().n_out(), 0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    /// Builds the classic producer/consumer pair:
    ///   bx[i] = in[i]        (domain 0 <= i < 10, schedule (0, i))
    ///   by[i] = bx[i] + bx[i+1]  (domain 0 <= i < 9, schedule (1, i))
    fn blur_1d() -> (Vec<Access>, Vec<Access>) {
        let dom_bx = Space::set("bx", &["i"], &[]);
        let dom_by = Space::set("by", &["i"], &[]);
        let buf = Space::set("B", &["e"], &[]);
        let sched = Space::set("T", &["t0", "t1"], &[]);

        let n = dom_bx.n_cols();
        let bx_domain =
            BasicSet::from_constraint_strs(&dom_bx, &["i >= 0", "i <= 9"]).unwrap();
        let by_domain =
            BasicSet::from_constraint_strs(&dom_by, &["i >= 0", "i <= 8"]).unwrap();
        let bx_sched = BasicMap::from_output_affs(
            &dom_bx,
            &sched,
            &[Aff::constant(n, 0), Aff::var(n, 0)],
        );
        let by_sched = BasicMap::from_output_affs(
            &dom_by,
            &sched,
            &[Aff::constant(n, 1), Aff::var(n, 0)],
        );
        let bx_write =
            BasicMap::from_output_affs(&dom_bx, &buf, &[Aff::var(n, 0)]);
        let by_read_0 =
            BasicMap::from_output_affs(&dom_by, &buf, &[Aff::var(n, 0)]);
        let by_read_1 = BasicMap::from_output_affs(
            &dom_by,
            &buf,
            &[Aff::var(n, 0).add(&Aff::constant(n, 1))],
        );

        let writes = vec![Access {
            stmt: "bx".into(),
            domain: bx_domain.clone(),
            schedule: bx_sched.clone(),
            access: bx_write,
            buffer: "B".into(),
        }];
        let reads = vec![
            Access {
                stmt: "by".into(),
                domain: by_domain.clone(),
                schedule: by_sched.clone(),
                access: by_read_0,
                buffer: "B".into(),
            },
            Access {
                stmt: "by".into(),
                domain: by_domain,
                schedule: by_sched,
                access: by_read_1,
                buffer: "B".into(),
            },
        ];
        (writes, reads)
    }

    #[test]
    fn flow_dependence_found() {
        let (writes, reads) = blur_1d();
        let deps = compute_dependences(&writes, &reads).unwrap();
        let flows: Vec<_> = deps.iter().filter(|d| d.kind == DependenceKind::Flow).collect();
        assert_eq!(flows.len(), 2); // one per read access
        // bx[3] -> by[3] (aligned read) and bx[3] -> by[2] (shifted read).
        let covers = |target: &[i64]| {
            flows.iter().any(|d| {
                d.relation.basics().iter().any(|bm| bm.wrap().contains(target, &[]))
            })
        };
        assert!(covers(&[3, 3]));
        assert!(covers(&[3, 2]));
        assert!(!covers(&[3, 4])); // by[4] does not read bx[3]
    }

    #[test]
    fn no_dependence_across_different_buffers() {
        let (mut writes, reads) = blur_1d();
        writes[0].buffer = "OTHER".into();
        let deps = compute_dependences(&writes, &reads).unwrap();
        assert!(deps.is_empty());
    }

    #[test]
    fn reversed_schedule_creates_anti_not_flow() {
        // If by runs BEFORE bx (schedules swapped), the former flow pairs
        // become anti dependences (read happens first).
        let (mut writes, mut reads) = blur_1d();
        let dom_bx = Space::set("bx", &["i"], &[]);
        let dom_by = Space::set("by", &["i"], &[]);
        let sched = Space::set("T", &["t0", "t1"], &[]);
        let n = dom_bx.n_cols();
        writes[0].schedule = BasicMap::from_output_affs(
            &dom_bx,
            &sched,
            &[Aff::constant(n, 1), Aff::var(n, 0)],
        );
        for r in &mut reads {
            r.schedule = BasicMap::from_output_affs(
                &dom_by,
                &sched,
                &[Aff::constant(n, 0), Aff::var(n, 0)],
            );
        }
        let deps = compute_dependences(&writes, &reads).unwrap();
        assert!(deps.iter().all(|d| d.kind != DependenceKind::Flow));
        assert!(deps.iter().any(|d| d.kind == DependenceKind::Anti));
    }

    #[test]
    fn legality_check_rejects_reordering() {
        let (writes, reads) = blur_1d();
        let deps = compute_dependences(&writes, &reads).unwrap();
        let flow = deps.iter().find(|d| d.kind == DependenceKind::Flow).unwrap();

        let dom_bx = Space::set("bx", &["i"], &[]);
        let dom_by = Space::set("by", &["i"], &[]);
        let sched = Space::set("T", &["t0", "t1"], &[]);
        let n = dom_bx.n_cols();
        // Legal new schedule: keep bx before by.
        let s_bx = BasicMap::from_output_affs(
            &dom_bx,
            &sched,
            &[Aff::constant(n, 0), Aff::var(n, 0)],
        );
        let s_by = BasicMap::from_output_affs(
            &dom_by,
            &sched,
            &[Aff::constant(n, 1), Aff::var(n, 0)],
        );
        assert!(is_respected(&flow.relation, &s_bx, &s_by));
        // Illegal: run by first.
        let s_bx_late = BasicMap::from_output_affs(
            &dom_bx,
            &sched,
            &[Aff::constant(n, 1), Aff::var(n, 0)],
        );
        let s_by_early = BasicMap::from_output_affs(
            &dom_by,
            &sched,
            &[Aff::constant(n, 0), Aff::var(n, 0)],
        );
        assert!(!is_respected(&flow.relation, &s_bx_late, &s_by_early));
    }

    #[test]
    fn value_based_flow_removes_killed_pairs() {
        // w1: A[i] = ...   (schedule (0, i)), i in 0..10
        // w2: A[i] = ...   (schedule (1, i)), i in 0..10  (overwrites all)
        // r : ... = A[i]   (schedule (2, i)), i in 0..10
        // Memory-based: w1 -> r exists; value-based: only w2 -> r remains.
        let dm = Space::set("S", &["i"], &[]);
        let buf = Space::set("A", &["e"], &[]);
        let sched = Space::set("T", &["t0", "t1"], &[]);
        let n = dm.n_cols();
        let dom = BasicSet::from_constraint_strs(&dm, &["i >= 0", "i <= 9"]).unwrap();
        let acc = BasicMap::from_output_affs(&dm, &buf, &[Aff::var(n, 0)]);
        let mk_sched = |t: i64| {
            BasicMap::from_output_affs(&dm, &sched, &[Aff::constant(n, t), Aff::var(n, 0)])
        };
        let writes = vec![
            Access {
                stmt: "w1".into(),
                domain: dom.clone(),
                schedule: mk_sched(0),
                access: acc.clone(),
                buffer: "A".into(),
            },
            Access {
                stmt: "w2".into(),
                domain: dom.clone(),
                schedule: mk_sched(1),
                access: acc.clone(),
                buffer: "A".into(),
            },
        ];
        let reads = vec![Access {
            stmt: "r".into(),
            domain: dom,
            schedule: mk_sched(2),
            access: acc,
            buffer: "A".into(),
        }];
        let mem = compute_dependences(&writes, &reads).unwrap();
        assert!(mem
            .iter()
            .any(|d| d.kind == DependenceKind::Flow && d.src == "w1" && d.dst == "r"));
        let flow = compute_flow(&writes, &reads).unwrap();
        assert!(!flow.iter().any(|d| d.src == "w1" && d.dst == "r"));
        assert!(flow.iter().any(|d| d.src == "w2" && d.dst == "r"));
    }
}
