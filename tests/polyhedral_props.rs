//! Property-based tests of the polyhedral substrate: set algebra checked
//! against brute-force point enumeration, the Omega test, the integer
//! bounds and the dependence checks against a naive integer search, and
//! AST generation against the lexicographic reference order.
//!
//! Enumeration is the independent oracle throughout: no property compares
//! the solver with another version of itself. (In debug builds the solver
//! additionally checks its pre-solves against the plain Omega test on
//! every query these properties issue.)

mod common;

use common::diff_cases;
use polyhedral::solve::{self, SEARCH_BOUND};
use polyhedral::{
    build_ast, interpret, Aff, AstBuild, BasicMap, BasicSet, Constraint, ScheduledStmt, Set, Space,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const RANGE: std::ops::RangeInclusive<i64> = -4..=10;

/// A random 2-D basic set given as interval bounds plus one extra affine
/// constraint `a*i + b*j + c >= 0`.
#[derive(Debug, Clone)]
struct RandSet {
    lo: [i64; 2],
    hi: [i64; 2],
    extra: [i64; 3],
}

fn rand_set() -> impl Strategy<Value = RandSet> {
    (
        [-2i64..=4, -2i64..=4],
        [0i64..=6, 0i64..=6],
        [-2i64..=2, -2i64..=2, -4i64..=6],
    )
        .prop_map(|(lo, len, extra)| RandSet {
            lo,
            hi: [lo[0] + len[0], lo[1] + len[1]],
            extra,
        })
}

fn build(rs: &RandSet) -> BasicSet {
    let space = Space::set("S", &["i", "j"], &[]);
    let n = space.n_cols();
    let mut cons = Vec::new();
    for d in 0..2 {
        cons.push(polyhedral::Constraint::ineq(
            Aff::var(n, d).add(&Aff::constant(n, -rs.lo[d])),
        ));
        cons.push(polyhedral::Constraint::ineq(
            Aff::var(n, d).scale(-1).add(&Aff::constant(n, rs.hi[d])),
        ));
    }
    cons.push(polyhedral::Constraint::ineq(Aff::from_coeffs(vec![
        rs.extra[0],
        rs.extra[1],
        rs.extra[2],
    ])));
    BasicSet::from_constraints(space, cons)
}

fn points(s: &BasicSet) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for i in RANGE {
        for j in RANGE {
            if s.contains(&[i, j], &[]) {
                out.push((i, j));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emptiness_matches_enumeration(rs in rand_set()) {
        let s = build(&rs);
        // The random sets are confined to RANGE by construction, so
        // enumeration is complete.
        prop_assert_eq!(s.is_empty(), points(&s).is_empty());
    }

    #[test]
    fn intersection_is_pointwise_and(a in rand_set(), b in rand_set()) {
        let (sa, sb) = (build(&a), build(&b));
        let inter = sa.intersect(&sb).unwrap();
        for i in RANGE {
            for j in RANGE {
                let expect = sa.contains(&[i, j], &[]) && sb.contains(&[i, j], &[]);
                prop_assert_eq!(inter.contains(&[i, j], &[]), expect, "at ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn subtraction_is_pointwise_difference(a in rand_set(), b in rand_set()) {
        let (sa, sb) = (Set::from_basic(build(&a)), Set::from_basic(build(&b)));
        let diff = sa.subtract(&sb).unwrap();
        for i in RANGE {
            for j in RANGE {
                let expect = sa.contains(&[i, j], &[]) && !sb.contains(&[i, j], &[]);
                prop_assert_eq!(diff.contains(&[i, j], &[]), expect, "at ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn union_subset_laws(a in rand_set(), b in rand_set()) {
        let (sa, sb) = (Set::from_basic(build(&a)), Set::from_basic(build(&b)));
        let u = sa.union(&sb).unwrap();
        prop_assert!(sa.is_subset(&u).unwrap());
        prop_assert!(sb.is_subset(&u).unwrap());
        // a \ b ⊆ a
        prop_assert!(sa.subtract(&sb).unwrap().is_subset(&sa).unwrap());
        // (a \ b) ∩ b = ∅
        prop_assert!(sa.subtract(&sb).unwrap().intersect(&sb).unwrap().is_empty());
    }

    #[test]
    fn projection_contains_shadow(rs in rand_set()) {
        let s = build(&rs);
        let (proj, _exact) = s.project_out(1, 1);
        // Every point of the set projects into the projection (it may
        // over-approximate, never under-approximate).
        for (i, j) in points(&s) {
            let _ = j;
            prop_assert!(proj.contains(&[i], &[]), "lost point i={}", i);
        }
    }

    #[test]
    fn sample_point_is_member(rs in rand_set()) {
        let s = build(&rs);
        if let Some((dims, params)) = s.sample() {
            prop_assert!(s.contains(&dims, &params));
        } else {
            prop_assert!(s.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Omega test against brute-force enumeration on random 3-variable
    /// systems with an equality (exercising the symmetric-modulus
    /// elimination and dark-shadow paths).
    #[test]
    fn omega_matches_enumeration_with_equalities(
        eq in [[-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6]],
        ineqs in proptest::collection::vec([-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6], 1..4),
    ) {
        use polyhedral::{Aff, BasicSet, Constraint, Space};
        let space = Space::set("S", &["x", "y", "z"], &[]);
        let mut cons = vec![
            // Confine to a box so enumeration is complete.
            Constraint::ineq(Aff::from_coeffs(vec![1, 0, 0, 5])),
            Constraint::ineq(Aff::from_coeffs(vec![-1, 0, 0, 5])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 1, 0, 5])),
            Constraint::ineq(Aff::from_coeffs(vec![0, -1, 0, 5])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 0, 1, 5])),
            Constraint::ineq(Aff::from_coeffs(vec![0, 0, -1, 5])),
        ];
        cons.push(Constraint::eq(Aff::from_coeffs(eq[0].to_vec())));
        for row in &ineqs {
            cons.push(Constraint::ineq(Aff::from_coeffs(row.to_vec())));
        }
        let s = BasicSet::from_constraints(space, cons);
        let mut any = false;
        'search: for x in -5i64..=5 {
            for y in -5i64..=5 {
                for z in -5i64..=5 {
                    if s.contains(&[x, y, z], &[]) {
                        any = true;
                        break 'search;
                    }
                }
            }
        }
        prop_assert_eq!(!s.is_empty(), any);
    }
}

/// Random 2-D schedules: a unimodular-ish transformation plus shifts.
#[derive(Debug, Clone)]
struct RandSched {
    swap: bool,
    skew: i64,
    shift: [i64; 2],
}

fn rand_sched() -> impl Strategy<Value = RandSched> {
    (any::<bool>(), -2i64..=2, [-3i64..=3, -3i64..=3])
        .prop_map(|(swap, skew, shift)| RandSched { swap, skew, shift })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// AST generation visits exactly the domain points, in the
    /// lexicographic order of the schedule.
    #[test]
    fn astgen_matches_reference_order(rs in rand_set(), sc in rand_sched()) {
        let dom = build(&rs);
        if dom.is_empty() {
            return Ok(());
        }
        let space = dom.space().clone();
        let n = space.n_cols();
        // schedule (i, j) -> (a, b): optional swap, skew, shifts.
        let (e0, e1) = if sc.swap {
            (Aff::var(n, 1), Aff::var(n, 0))
        } else {
            (Aff::var(n, 0), Aff::var(n, 1))
        };
        // Unimodular by construction: (o0, o1 + skew*o0) + shifts.
        let affs = vec![
            e0.clone().add(&Aff::constant(n, sc.shift[0])),
            e1.add(&e0.scale(sc.skew)).add(&Aff::constant(n, sc.shift[1])),
        ];
        let tspace = Space::set("T", &["a", "b"], &[]);
        let sched = BasicMap::from_output_affs(&space, &tspace, &affs);
        let stmt = ScheduledStmt { name: "S".into(), domain: dom.clone(), schedule: sched.clone() };
        let ast = build_ast(&[stmt], &AstBuild::default()).unwrap();
        let mut got: Vec<(i64, i64)> = Vec::new();
        interpret(&ast, 2, &[], &mut |_idx, iters| got.push((iters[0], iters[1])));

        // Reference: enumerate, order by schedule image.
        let mut expect: Vec<((i64, i64), (i64, i64))> = points(&dom)
            .into_iter()
            .map(|(i, j)| {
                let t0 = affs[0].eval(&[i, j]);
                let t1 = affs[1].eval(&[i, j]);
                ((t0, t1), (i, j))
            })
            .collect();
        expect.sort();
        let expect: Vec<(i64, i64)> = expect.into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(got, expect);
    }

    /// Tiling schedules also scan every point exactly once.
    #[test]
    fn astgen_tiled_visits_once(rs in rand_set(), t in 2i64..=5) {
        let dom = build(&rs);
        if dom.is_empty() {
            return Ok(());
        }
        let space = dom.space().clone();
        let tspace = Space::set("T", &["i0", "i1", "jo"], &[]);
        let ms = polyhedral::MapSpace::new(space, tspace);
        let cons = [
            format!("i = {t}i0 + i1"),
            "i1 >= 0".to_string(),
            format!("i1 <= {}", t - 1),
            "jo = j".to_string(),
        ];
        let texts: Vec<&str> = cons.iter().map(|s| s.as_str()).collect();
        let sched = BasicMap::from_constraint_strs(&ms, &texts).unwrap();
        let stmt = ScheduledStmt { name: "S".into(), domain: dom.clone(), schedule: sched };
        let ast = build_ast(&[stmt], &AstBuild::default()).unwrap();
        let mut got: Vec<(i64, i64)> = Vec::new();
        interpret(&ast, 3, &[], &mut |_idx, iters| got.push((iters[0], iters[1])));
        let mut expect = points(&dom);
        expect.sort();
        let mut got_sorted = got.clone();
        got_sorted.sort();
        prop_assert_eq!(&got_sorted, &expect, "coverage");
        got_sorted.dedup();
        prop_assert_eq!(got_sorted.len(), got.len(), "duplicate visits");
    }
}

// ------------------------------------------------- the oracle, exactly --

/// Half-width of the box every unknown of a [`HardSys`] lives in.
const HALF: i64 = 3;

/// A system over up to five unknowns built from what makes integer
/// emptiness hard: equalities without unit coefficients, a tiling
/// equality `x0 = T·x1 + x2`, and the Omega paper's `11x + 13y` /
/// `7x - 9y` strips, whose real shadow has points where the set has none.
#[derive(Debug, Clone)]
struct HardSys {
    n: usize,
    eqs: Vec<[i64; 6]>,
    ineqs: Vec<[i64; 6]>,
    tile: Option<i64>,
    /// `lo <= 11 x0 + 13 x1 <= lo + w`, `lo' <= 7 x0 - 9 x1 <= lo' + w'`.
    pugh: Option<[i64; 4]>,
}

fn hard_sys() -> impl Strategy<Value = HardSys> {
    (
        2usize..=5,
        proptest::collection::vec([-4i64..=4, -4i64..=4, -4i64..=4, -4i64..=4, -4i64..=4, -6i64..=6], 0..3),
        proptest::collection::vec([-3i64..=3, -3i64..=3, -3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6], 0..4),
        proptest::option::of(2i64..=3),
        proptest::option::of([-40i64..=40, 0i64..=20, -30i64..=30, 0i64..=16]),
    )
        .prop_map(|(n, eqs, ineqs, tile, pugh)| HardSys {
            n,
            eqs,
            ineqs,
            tile: tile.filter(|_| n >= 3),
            pugh,
        })
}

impl HardSys {
    /// Column `k` of a generated row, the constant being its last entry.
    fn row(&self, r: &[i64; 6]) -> Vec<i64> {
        let mut v = r[..self.n].to_vec();
        v.push(r[5]);
        v
    }

    /// The constraints, with unknown `skip` left out of the box.
    fn constraints(&self, skip: Option<usize>) -> Vec<Constraint> {
        let w = self.n + 1;
        let mut cons = Vec::new();
        for k in (0..self.n).filter(|&k| Some(k) != skip) {
            cons.push(Constraint::ineq(Aff::var(w, k).add(&Aff::constant(w, HALF))));
            cons.push(Constraint::ineq(Aff::var(w, k).scale(-1).add(&Aff::constant(w, HALF))));
        }
        cons.extend(self.eqs.iter().map(|r| Constraint::eq(Aff::from_coeffs(self.row(r)))));
        cons.extend(self.ineqs.iter().map(|r| Constraint::ineq(Aff::from_coeffs(self.row(r)))));
        if let Some(t) = self.tile {
            let x = |k| Aff::var(w, k);
            cons.push(Constraint::eq(x(0).sub(&x(1).scale(t)).sub(&x(2))));
            cons.push(Constraint::ineq(x(2)));
            cons.push(Constraint::ineq(x(2).scale(-1).add(&Aff::constant(w, t - 1))));
        }
        if let Some([lo, wd, lo2, wd2]) = self.pugh {
            let strip = |a: i64, b: i64, lo: i64, wd: i64| {
                let e = Aff::var(w, 0).scale(a).add(&Aff::var(w, 1).scale(b));
                [
                    Constraint::ineq(e.add(&Aff::constant(w, -lo))),
                    Constraint::ineq(e.scale(-1).add(&Aff::constant(w, lo + wd))),
                ]
            };
            cons.extend(strip(11, 13, lo, wd));
            cons.extend(strip(7, -9, lo2, wd2));
        }
        cons
    }

    /// Forgets everything that mentions the last unknown, so that it can
    /// be bounded (or not) independently of the rest.
    fn detach_last(mut self) -> HardSys {
        let k = self.n - 1;
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r[k] = 0;
        }
        self.tile = self.tile.filter(|_| k > 2);
        self.pugh = self.pugh.filter(|_| k > 1);
        self
    }
}

fn satisfies(cons: &[Constraint], point: &[i64]) -> bool {
    cons.iter().all(|c| {
        let v = c.aff.eval(point);
        if c.kind == polyhedral::ConstraintKind::Eq { v == 0 } else { v >= 0 }
    })
}

/// Every point of the box `[lo, hi]^n`.
fn box_points_in(lo: i64, hi: i64, n: usize) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut p = vec![lo; n];
    loop {
        out.push(p.clone());
        let Some(k) = (0..n).find(|&k| p[k] < hi) else { return out };
        p[k] += 1;
        p[..k].fill(lo);
    }
}

/// Every point of the box `[-HALF, HALF]^n` that satisfies `cons`.
fn box_points(cons: &[Constraint], n: usize) -> Vec<Vec<i64>> {
    let mut points = box_points_in(-HALF, HALF, n);
    points.retain(|p| satisfies(cons, p));
    points
}

#[test]
fn omega_matches_enumeration_on_hard_systems() {
    static EMPTY: AtomicUsize = AtomicUsize::new(0);
    static INHABITED: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(diff_cases()))]
        fn run(sys in hard_sys()) {
            let cons = sys.constraints(None);
            let points = box_points(&cons, sys.n);
            prop_assert_eq!(solve::constraints_feasible(&cons, sys.n), !points.is_empty());
            let rows: Vec<solve::Row> = cons
                .iter()
                .map(|c| solve::Row {
                    c: c.aff.coeffs().iter().map(|&v| v as i128).collect(),
                    eq: c.kind == polyhedral::ConstraintKind::Eq,
                })
                .collect();
            let verdict = solve::rows_feasible(&rows, sys.n) == solve::Feasibility::Feasible;
            prop_assert_eq!(verdict, !points.is_empty());
            // sample_point bisects through int_min one unknown at a time.
            match solve::sample_point(&cons, sys.n) {
                Some(p) => prop_assert!(satisfies(&cons, &p), "sampled {:?} outside the set", p),
                None => prop_assert!(points.is_empty()),
            }
            if points.is_empty() { &EMPTY } else { &INHABITED }.fetch_add(1, Relaxed);
        }
    }
    run();
    assert!(EMPTY.load(Relaxed) > 0 && INHABITED.load(Relaxed) > 0);
}

/// How the last unknown of a bound query is constrained.
#[derive(Debug, Clone, Copy)]
enum Reach {
    /// Inside the box like the others.
    Boxed,
    /// Unbounded on the side the objective descends towards.
    Open,
    /// At least `SEARCH_BOUND + shift`, with a unit objective coefficient.
    Far(i64),
}

fn reach() -> impl Strategy<Value = Reach> {
    prop_oneof![Just(Reach::Boxed), Just(Reach::Open), (-4i64..=4).prop_map(Reach::Far)]
}

#[test]
fn int_bounds_match_enumeration() {
    static SEEN: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(diff_cases()))]
        fn run(
            sys in hard_sys(),
            obj in [-3i64..=3, -3i64..=3, -3i64..=3, -3i64..=3, -3i64..=3, -5i64..=5],
            reach in reach(),
        ) {
            let n = sys.n;
            let mut obj = Aff::from_coeffs(sys.row(&obj));
            let value = |p: &[i64]| obj.eval(p);
            match reach {
                Reach::Boxed => {
                    let cons = sys.constraints(None);
                    let points = box_points(&cons, n);
                    let values = || points.iter().map(|p| value(p));
                    prop_assert_eq!(solve::int_min(&cons, n, &obj), values().min());
                    prop_assert_eq!(solve::int_max(&cons, n, &obj), values().max());
                    SEEN[points.is_empty() as usize].fetch_add(1, Relaxed);
                }
                Reach::Open => {
                    // The last unknown keeps one side of its box: the one
                    // the objective climbs towards (either, at zero).
                    let sys = sys.detach_last();
                    let k = n - 1;
                    let c = obj.coeff(k);
                    let mut cons = sys.constraints(Some(k));
                    let side = if c >= 0 { -1 } else { 1 };
                    cons.push(Constraint::ineq(
                        Aff::var(n + 1, k).scale(side).add(&Aff::constant(n + 1, HALF)),
                    ));
                    if c == 0 {
                        // Still bounded in the objective: pin to compare.
                        let mut pinned = cons.clone();
                        pinned.push(Constraint::eq(Aff::var(n + 1, k)));
                        let points = box_points(&pinned, n);
                        prop_assert_eq!(solve::int_min(&cons, n, &obj), points.iter().map(|p| value(p)).min());
                    } else {
                        // Empty or unbounded below: no minimum either way.
                        prop_assert_eq!(solve::int_min(&cons, n, &obj), None);
                        prop_assert_eq!(solve::int_max(&cons, n, &obj.scale(-1)), None);
                        SEEN[2].fetch_add(1, Relaxed);
                    }
                }
                Reach::Far(shift) => {
                    // x_k >= SEARCH_BOUND + shift, objective x_k + rest.
                    let sys = sys.detach_last();
                    let k = n - 1;
                    obj = obj.with_coeff(k, 1);
                    let mut cons = sys.constraints(Some(k));
                    cons.push(Constraint::ineq(
                        Aff::var(n + 1, k).add(&Aff::constant(n + 1, -(SEARCH_BOUND + shift))),
                    ));
                    // The rest of the objective over the rest of the box.
                    let mut pinned = sys.constraints(Some(k));
                    pinned.push(Constraint::eq(Aff::var(n + 1, k)));
                    let rest = box_points(&pinned, n).iter().map(|p| obj.eval(p)).min();
                    let expect = rest.map(|r| SEARCH_BOUND + shift + r).filter(|&v| v <= SEARCH_BOUND);
                    prop_assert_eq!(solve::int_min(&cons, n, &obj), expect);
                    if rest.is_some() && expect.is_none() {
                        SEEN[3].fetch_add(1, Relaxed);
                    }
                }
            }
        }
    }
    run();
    // Bounded, empty, unbounded and beyond-the-search-bound were all met.
    for (k, seen) in SEEN.iter().enumerate() {
        assert!(seen.load(Relaxed) > 0, "bound case {k} never generated");
    }
}

// ------------------------------- dependences under random schedules --

/// Time dimensions of a [`RSched2`]: `[β0, d0, β1, d1, β2, d2, β3]`.
const M: usize = 7;

/// A random schedule of a 2-D statement into the `2d+1` time space:
/// interchange, reversal, shift, optional tiling of the outer dimension
/// (an existential in the map), and a static `β` vector.
#[derive(Debug, Clone)]
struct RSched2 {
    swap: bool,
    neg: [bool; 2],
    shift: [i64; 2],
    tile: Option<i64>,
    beta: [i64; 4],
}

fn rsched2() -> impl Strategy<Value = RSched2> {
    (
        any::<bool>(),
        [any::<bool>(), any::<bool>()],
        [-2i64..=2, -2i64..=2],
        proptest::option::of(2i64..=3),
        [0i64..=1, 0i64..=1, 0i64..=1, 0i64..=1],
    )
        .prop_map(|(swap, neg, shift, tile, beta)| RSched2 { swap, neg, shift, tile, beta })
}

impl RSched2 {
    /// `(coefficient of x, coefficient of y, constant)` of the two
    /// transformed dimensions.
    fn dims(&self) -> [(i64, i64, i64); 2] {
        let pick = |outer: bool| if outer != self.swap { (1, 0) } else { (0, 1) };
        [0, 1].map(|d| {
            let (cx, cy) = pick(d == 0);
            let s = if self.neg[d] { -1 } else { 1 };
            (s * cx, s * cy, self.shift[d])
        })
    }

    /// The time vector of instance `(x, y)`, computed directly.
    fn time(&self, x: i64, y: i64) -> [i64; M] {
        let [u, v] = self.dims().map(|(cx, cy, c)| cx * x + cy * y + c);
        let d = match self.tile {
            Some(t) => [u.div_euclid(t), u.rem_euclid(t), v],
            None => [u, v, 0],
        };
        [self.beta[0], d[0], self.beta[1], d[1], self.beta[2], d[2], self.beta[3]]
    }

    /// The same schedule as a map `S[x, y] -> T[t0..t6]`.
    fn map(&self, dom: &Space) -> BasicMap {
        let names: Vec<String> = (0..M).map(|k| format!("t{k}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let ms = polyhedral::MapSpace::new(dom.clone(), Space::set("T", &refs, &[]));
        let w = ms.n_cols();
        let t = |k: usize| Aff::var(w, 2 + k);
        let [u, v] = self
            .dims()
            .map(|(cx, cy, c)| Aff::var(w, 0).scale(cx).add(&Aff::var(w, 1).scale(cy)).add(&Aff::constant(w, c)));
        let mut cons: Vec<Constraint> = (0..4)
            .map(|k| Constraint::eq(t(2 * k).add(&Aff::constant(w, -self.beta[k]))))
            .collect();
        match self.tile {
            Some(size) => {
                cons.push(Constraint::eq(u.sub(&t(1).scale(size)).sub(&t(3))));
                cons.push(Constraint::ineq(t(3)));
                cons.push(Constraint::ineq(t(3).scale(-1).add(&Aff::constant(w, size - 1))));
                cons.push(Constraint::eq(t(5).sub(&v)));
            }
            None => {
                cons.push(Constraint::eq(t(1).sub(&u)));
                cons.push(Constraint::eq(t(3).sub(&v)));
                cons.push(Constraint::eq(t(5)));
            }
        }
        BasicMap::from_constraints(ms, cons)
    }
}

#[test]
fn dependence_checks_match_lexicographic_brute_force() {
    static RESPECTED: AtomicUsize = AtomicUsize::new(0);
    static VIOLATED: AtomicUsize = AtomicUsize::new(0);
    static CARRIED: AtomicUsize = AtomicUsize::new(0);
    static FREE: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(diff_cases()))]
        fn run(
            n in 2i64..=4,
            delta in [-1i64..=1, -1i64..=1],
            functional in any::<bool>(),
            src in rsched2(),
            dst in proptest::option::of(rsched2()),
            level in 0usize..=2,
        ) {
            // Sharing one schedule makes equal time vectors possible: the
            // one violation no strict comparison finds.
            let dst = dst.unwrap_or_else(|| src.clone());
            // { S[x, y] -> R[x', y'] : x' = x + dx (, y' = y + dy) } on
            // the n×n box; without the second equality one source
            // instance feeds a whole row.
            let s_space = Space::set("S", &["x", "y"], &[]);
            let r_space = Space::set("R", &["xr", "yr"], &[]);
            let ms = polyhedral::MapSpace::new(s_space.clone(), r_space.clone());
            let w = ms.n_cols();
            let mut cons = Vec::new();
            for k in 0..4 {
                cons.push(Constraint::ineq(Aff::var(w, k)));
                cons.push(Constraint::ineq(Aff::var(w, k).scale(-1).add(&Aff::constant(w, n - 1))));
            }
            let link = |k: usize| {
                Constraint::eq(Aff::var(w, 2 + k).sub(&Aff::var(w, k)).add(&Aff::constant(w, -delta[k])))
            };
            cons.push(link(0));
            if functional {
                cons.push(link(1));
            }
            let bm = BasicMap::from_constraints(ms, cons);
            if bm.is_empty() {
                return Ok(());
            }
            let (sm, dm) = (src.map(&s_space), dst.map(&r_space));

            // Brute force over the instance pairs and their time vectors.
            let mut pairs = Vec::new();
            for p in box_points_in(0, n - 1, 4) {
                if bm.wrap().contains(&p, &[]) {
                    let (ts, td) = (src.time(p[0], p[1]), dst.time(p[2], p[3]));
                    // The direct time vectors are the maps' images.
                    let on = |m: &BasicMap, at: &[i64], t: &[i64; M]| {
                        m.wrap().contains(&[at, &t[..]].concat(), &[])
                    };
                    prop_assert!(on(&sm, &p[..2], &ts) && on(&dm, &p[2..], &td));
                    pairs.push((ts, td));
                }
            }
            let violated = pairs.iter().any(|(ts, td)| td <= ts);
            let pos = 2 * level + 1;
            let carried = pairs.iter().any(|(ts, td)| ts[..pos] == td[..pos] && ts[pos] != td[pos]);

            let relation = polyhedral::Map::from_basic(bm.clone());
            prop_assert_eq!(polyhedral::is_respected(&relation, &sm, &dm), !violated);
            prop_assert_eq!(polyhedral::deps::is_carried(&bm, &sm, &dm, pos), carried);
            if violated { &VIOLATED } else { &RESPECTED }.fetch_add(1, Relaxed);
            if carried { &CARRIED } else { &FREE }.fetch_add(1, Relaxed);
        }
    }
    run();
    for seen in [&RESPECTED, &VIOLATED, &CARRIED, &FREE] {
        assert!(seen.load(Relaxed) > 0, "one outcome of the dependence checks never occurred");
    }
}

// ------------------------- the compiler's legality checks, end to end --

/// One dynamic time dimension of a scheduled computation as a function of
/// its iterators `(i, j)`, mirrored command by command.
type Dim = Box<dyn Fn(i64, i64) -> i64>;

/// Scheduling commands for the consumer of a random producer/consumer
/// pair (and, for tiling, the producer too, so fusion stays possible).
#[derive(Debug, Clone)]
struct RCmds {
    interchange: bool,
    shift: [i64; 2],
    tile: Option<(i64, i64)>,
    /// Fuse the consumer after the producer at this producer level.
    fuse: Option<usize>,
}

fn rcmds() -> impl Strategy<Value = RCmds> {
    (
        any::<bool>(),
        [-2i64..=2, -2i64..=2],
        proptest::option::of((2i64..=3, 2i64..=3)),
        proptest::option::of(0usize..=3),
    )
        .prop_map(|(interchange, shift, tile, fuse)| RCmds { interchange, shift, tile, fuse })
}

fn tile_dims(d: Vec<Dim>, (t1, t2): (i64, i64)) -> Vec<Dim> {
    let d: Vec<std::rc::Rc<Dim>> = d.into_iter().map(std::rc::Rc::new).collect();
    let (a, b) = (d[0].clone(), d[1].clone());
    let (a2, b2) = (a.clone(), b.clone());
    vec![
        Box::new(move |i, j| a(i, j).div_euclid(t1)),
        Box::new(move |i, j| b(i, j).div_euclid(t2)),
        Box::new(move |i, j| a2(i, j).rem_euclid(t1)),
        Box::new(move |i, j| b2(i, j).rem_euclid(t2)),
    ]
}

#[test]
fn legality_matches_lexicographic_brute_force() {
    use tiramisu::{legality, lowering, Expr as E, Function};
    static LEGAL: AtomicUsize = AtomicUsize::new(0);
    static ILLEGAL: AtomicUsize = AtomicUsize::new(0);
    static PARALLEL: AtomicUsize = AtomicUsize::new(0);
    static SERIAL: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(diff_cases()))]
        fn run(n in 3i64..=5, delta in [-1i64..=1, -1i64..=1], cmds in rcmds(), level in 0usize..=3) {
            // P(i, j) over the n×n box; C(i, j) = P(i + di, j + dj) where
            // that stays inside it.
            let mut f = Function::new("t", &[]);
            let (i, j) = (f.var("i", 0, n), f.var("j", 0, n));
            let p = f.computation("P", &[i, j], E::f32(1.0)).unwrap();
            let range = |d: i64| (0.max(-d), n.min(n - d));
            let ((i0, i1), (j0, j1)) = (range(delta[0]), range(delta[1]));
            let (ci, cj) = (f.var("i", i0, i1), f.var("j", j0, j1));
            let read = f.access(p, &[E::iter("i") + E::i64(delta[0]), E::iter("j") + E::i64(delta[1])]);
            let c = f.computation("C", &[ci, cj], read).unwrap();

            // Apply the commands, mirroring each on plain closures.
            let mut pd: Vec<Dim> = vec![Box::new(|i, _| i), Box::new(|_, j| j)];
            let mut cd: Vec<Dim> = vec![Box::new(|i, _| i), Box::new(|_, j| j)];
            if cmds.interchange {
                f.interchange(c, "i", "j").unwrap();
                cd.swap(0, 1);
            }
            for (k, s) in cmds.shift.into_iter().enumerate() {
                let name = f.comp(c).dyn_names[k].clone();
                f.shift(c, &name, s).unwrap();
                let old = std::mem::replace(&mut cd[k], Box::new(|_, _| 0));
                cd[k] = Box::new(move |i, j| old(i, j) + s);
            }
            if let Some(t) = cmds.tile {
                for (comp, dims) in [(p, &mut pd), (c, &mut cd)] {
                    let (a, b) = (f.comp(comp).dyn_names[0].clone(), f.comp(comp).dyn_names[1].clone());
                    f.tile(comp, &a, &b, t.0, t.1, ("a0", "b0", "a1", "b1")).unwrap();
                    *dims = tile_dims(std::mem::take(dims), t);
                }
            }
            if let Some(l) = cmds.fuse.filter(|&l| l < pd.len()) {
                let at = f.comp(p).dyn_names[l].clone();
                f.fuse_after(c, p, &at).unwrap();
            }

            // Time vectors: the static betas interleaved with the mirrored
            // dynamic dimensions; each must lie on the compiler's schedule.
            let depth = pd.len();
            let time = |comp, dims: &[Dim], i: i64, j: i64| {
                let betas = &f.comp(comp).betas;
                let mut t = vec![betas[0]];
                for (k, d) in dims.iter().enumerate() {
                    t.extend([d(i, j), betas[k + 1]]);
                }
                t
            };
            let on_schedule = |comp, i: i64, j: i64, t: &[i64]| {
                let m = lowering::full_schedule(&f, comp, depth).unwrap();
                m.wrap().contains(&[&[i, j], t].concat(), &[])
            };
            let mut pairs = Vec::new();
            for i in i0..i1 {
                for j in j0..j1 {
                    let (pi, pj) = (i + delta[0], j + delta[1]);
                    let (ts, td) = (time(p, &pd, pi, pj), time(c, &cd, i, j));
                    prop_assert!(on_schedule(p, pi, pj, &ts) && on_schedule(c, i, j, &td));
                    pairs.push((ts, td));
                }
            }
            let legal = !pairs.iter().any(|(ts, td)| td <= ts);
            prop_assert_eq!(legality::check(&f).unwrap().is_empty(), legal);
            (if legal { &LEGAL } else { &ILLEGAL }).fetch_add(1, Relaxed);

            let level = level.min(depth - 1);
            let pos = 2 * level + 1;
            let parallel = !pairs.iter().any(|(ts, td)| ts[..pos] == td[..pos] && ts[pos] != td[pos]);
            let name = f.comp(c).dyn_names[level].clone();
            prop_assert_eq!(legality::parallel_ok(&f, c, &name).unwrap(), parallel);
            (if parallel { &PARALLEL } else { &SERIAL }).fetch_add(1, Relaxed);
        }
    }
    run();
    for seen in [&LEGAL, &ILLEGAL, &PARALLEL, &SERIAL] {
        assert!(seen.load(Relaxed) > 0, "one outcome of the legality checks never occurred");
    }
}
