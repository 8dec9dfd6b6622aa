//! Affine maps (relations between integer tuples).
//!
//! Maps represent everything that *transforms* in the Tiramisu IR: the
//! schedules mapping Layer I domains into the Layer II time–space domain,
//! the access relations of Layer III, and the lexicographic-order relations
//! used for legality checking.
//!
//! Column layout of a [`BasicMap`]: `[in_dims..., out_dims..., params..., 1]`.

use crate::aff::{parse_constraint, Aff, Constraint, ConstraintKind};
use crate::set::{BasicSet, Set};
use crate::space::{MapSpace, Space};
use crate::{Error, Result};

/// A conjunction of affine constraints relating an input and an output
/// tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicMap {
    space: MapSpace,
    cons: Vec<Constraint>,
}

impl BasicMap {
    /// Builds from constraints over the map columns.
    ///
    /// # Panics
    ///
    /// Panics when a row width disagrees with the space.
    pub fn from_constraints(space: MapSpace, cons: Vec<Constraint>) -> BasicMap {
        for c in &cons {
            assert_eq!(c.aff.n_cols(), space.n_cols(), "constraint width mismatch");
        }
        let mut cons = cons;
        crate::fm::normalize_in_place(&mut cons);
        BasicMap { space, cons }
    }

    /// Parses textual constraints; names are input dims, then output dims,
    /// then params, and must be pairwise distinct (use primes: `i'`).
    ///
    /// # Errors
    ///
    /// Returns parse or unknown-dimension errors.
    pub fn from_constraint_strs(space: &MapSpace, texts: &[&str]) -> Result<BasicMap> {
        let mut names: Vec<String> = space.in_space().dims().to_vec();
        names.extend_from_slice(space.out_space().dims());
        names.extend_from_slice(space.in_space().params());
        let mut cons = Vec::with_capacity(texts.len());
        for t in texts {
            cons.push(parse_constraint(t, &names)?);
        }
        Ok(BasicMap::from_constraints(space.clone(), cons))
    }

    /// The identity map on `space` (`out_i = in_i`).
    pub fn identity(space: &Space) -> BasicMap {
        let out = space.with_name(&format!("{}'", space.name()));
        let ms = MapSpace::new(space.clone(), out);
        let n = ms.n_cols();
        let mut cons = Vec::with_capacity(space.n_dims());
        for i in 0..space.n_dims() {
            let aff = Aff::var(n, ms.out_col(i)).sub(&Aff::var(n, ms.in_col(i)));
            cons.push(Constraint::eq(aff));
        }
        BasicMap { space: ms, cons }
    }

    /// A map defined by one affine expression per output dimension, each
    /// over `[in_dims..., params..., 1]`.
    ///
    /// # Panics
    ///
    /// Panics when an expression has the wrong width.
    pub fn from_output_affs(in_space: &Space, out_space: &Space, affs: &[Aff]) -> BasicMap {
        assert_eq!(affs.len(), out_space.n_dims());
        let ms = MapSpace::new(in_space.clone(), out_space.clone());
        let n = ms.n_cols();
        let n_in = ms.n_in();
        let n_out = ms.n_out();
        let mut cons = Vec::with_capacity(affs.len());
        for (j, a) in affs.iter().enumerate() {
            assert_eq!(a.n_cols(), in_space.n_cols(), "output expression width mismatch");
            // Widen a (over in+params+1) into map columns, then out_j - a = 0.
            let mut row = Aff::zero(n);
            for i in 0..n_in {
                row.coeffs_mut()[ms.in_col(i)] = -a.coeff(i);
            }
            for p in 0..ms.n_params() {
                row.coeffs_mut()[ms.param_col(p)] = -a.coeff(n_in + p);
            }
            row.coeffs_mut()[n - 1] = -a.const_term();
            row.coeffs_mut()[ms.out_col(j)] = 1;
            let _ = n_out;
            cons.push(Constraint::eq(row));
        }
        BasicMap { space: ms, cons }
    }

    /// The map space.
    pub fn space(&self) -> &MapSpace {
        &self.space
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.cons
    }

    /// Converts to a basic set over the wrapped space (pairs flattened).
    pub fn wrap(&self) -> BasicSet {
        BasicSet::from_constraints(self.space.wrapped(), self.cons.clone())
    }

    /// Rebuilds a map from a wrapped basic set.
    pub fn unwrap_from(space: MapSpace, wrapped: &BasicSet) -> BasicMap {
        assert_eq!(wrapped.space().n_dims(), space.n_in() + space.n_out());
        BasicMap { space, cons: wrapped.constraints().to_vec() }
    }

    /// Exact emptiness of the relation.
    pub fn is_empty(&self) -> bool {
        self.wrap().is_empty()
    }

    /// Intersection of two structurally compatible relations.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn intersect(&self, other: &BasicMap) -> Result<BasicMap> {
        if self.space.n_in() != other.space.n_in()
            || self.space.n_out() != other.space.n_out()
            || self.space.in_space().params() != other.space.in_space().params()
        {
            return Err(Error::SpaceMismatch(format!("{} vs {}", self.space, other.space)));
        }
        let mut cons = self.cons.clone();
        cons.extend(other.cons.iter().cloned());
        Ok(BasicMap::from_constraints(self.space.clone(), cons))
    }

    /// Restricts the domain to `set` (a set over the input space).
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when the set does not match the input space.
    pub fn intersect_domain(&self, set: &BasicSet) -> Result<BasicMap> {
        if set.space().n_dims() != self.space.n_in()
            || set.space().params() != self.space.in_space().params()
        {
            return Err(Error::SpaceMismatch(format!(
                "domain {} vs map {}",
                set.space(),
                self.space
            )));
        }
        let mut cons = self.cons.clone();
        for c in set.constraints() {
            cons.push(Constraint {
                aff: c.aff.insert_cols(self.space.n_in(), self.space.n_out()),
                kind: c.kind,
            });
        }
        Ok(BasicMap::from_constraints(self.space.clone(), cons))
    }

    /// Restricts the range to `set` (a set over the output space).
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when the set does not match the output space.
    pub fn intersect_range(&self, set: &BasicSet) -> Result<BasicMap> {
        if set.space().n_dims() != self.space.n_out()
            || set.space().params() != self.space.out_space().params()
        {
            return Err(Error::SpaceMismatch(format!(
                "range {} vs map {}",
                set.space(),
                self.space
            )));
        }
        let mut cons = self.cons.clone();
        for c in set.constraints() {
            let widened = c.aff.insert_cols(0, self.space.n_in());
            cons.push(Constraint { aff: widened, kind: c.kind });
        }
        Ok(BasicMap::from_constraints(self.space.clone(), cons))
    }

    /// The domain of the relation; also reports projection exactness.
    pub fn domain(&self) -> (BasicSet, bool) {
        let (projected, exact) = self.wrap().project_out(self.space.n_in(), self.space.n_out());
        (projected.with_name(self.space.in_space().name()), exact)
    }

    /// The range of the relation; also reports projection exactness.
    pub fn range(&self) -> (BasicSet, bool) {
        let (projected, exact) = self.wrap().project_out(0, self.space.n_in());
        (projected.with_name(self.space.out_space().name()), exact)
    }

    /// Applies the map to a set over the input space: `{ o : ∃ i ∈ set,
    /// (i, o) ∈ self }`. Returns the image and projection exactness.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when the set does not match the input space.
    pub fn apply(&self, set: &BasicSet) -> Result<(BasicSet, bool)> {
        Ok(self.intersect_domain(set)?.range())
    }

    /// The reversed relation.
    pub fn reverse(&self) -> BasicMap {
        let n_in = self.space.n_in();
        let n_out = self.space.n_out();
        let n = self.space.n_cols();
        let cons = self
            .cons
            .iter()
            .map(|c| {
                let mut coeffs = vec![0i64; n];
                for (i, co) in coeffs.iter_mut().enumerate().take(n_out) {
                    *co = c.aff.coeff(n_in + i);
                }
                for i in 0..n_in {
                    coeffs[n_out + i] = c.aff.coeff(i);
                }
                for p in 0..(n - n_in - n_out) {
                    coeffs[n_in + n_out + p] = c.aff.coeff(n_in + n_out + p);
                }
                Constraint { aff: Aff::from_coeffs(coeffs), kind: c.kind }
            })
            .collect();
        BasicMap { space: self.space.reversed(), cons }
    }

    /// Composes `self: A → B` with `after: B → C`, yielding `A → C`
    /// (`after ∘ self`). Returns the composition and projection exactness.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when the intermediate spaces disagree.
    pub fn apply_range(&self, after: &BasicMap) -> Result<(BasicMap, bool)> {
        if self.space.n_out() != after.space.n_in()
            || self.space.in_space().params() != after.space.in_space().params()
        {
            return Err(Error::SpaceMismatch(format!("{} then {}", self.space, after.space)));
        }
        let n_a = self.space.n_in();
        let n_b = self.space.n_out();
        let n_c = after.space.n_out();
        let n_p = self.space.n_params();
        let total = n_a + n_b + n_c + n_p + 1;
        let mut cons: Vec<Constraint> = Vec::new();
        // self constraints: [A, B, P, 1] -> insert C columns after B.
        for c in &self.cons {
            cons.push(Constraint { aff: c.aff.insert_cols(n_a + n_b, n_c), kind: c.kind });
        }
        // after constraints: [B, C, P, 1] -> insert A columns before B.
        for c in &after.cons {
            cons.push(Constraint { aff: c.aff.insert_cols(0, n_a), kind: c.kind });
        }
        debug_assert!(cons.iter().all(|c| c.aff.n_cols() == total));
        // Project out the B columns (indices n_a .. n_a + n_b).
        let mut exact = true;
        for col in (n_a..n_a + n_b).rev() {
            let e = crate::fm::eliminate_col(&cons, col);
            exact &= e.exact;
            cons = e.cons;
        }
        let ms = MapSpace::new(self.space.in_space().clone(), after.space.out_space().clone());
        Ok((BasicMap::from_constraints(ms, cons), exact))
    }

    /// Extracts, for each output dimension, an affine expression over
    /// `[in_dims..., params..., 1]` when the relation is single-valued and
    /// integrally solvable (all our schedules and access relations are).
    ///
    /// Returns `None` when some output is not an affine function of the
    /// inputs.
    pub fn output_affs(&self) -> Option<Vec<Aff>> {
        solve_functional(
            &self.cons,
            self.space.n_in(),
            self.space.n_out(),
            self.space.n_params(),
            false,
        )
    }

    /// Extracts, for each *input* dimension, an affine expression over
    /// `[out_dims..., params..., 1]` when the inverse relation is
    /// single-valued (true for invertible schedules: tile/split/interchange
    /// compositions).
    pub fn input_affs(&self) -> Option<Vec<Aff>> {
        self.reverse().output_affs()
    }

    /// Pretty ISL-like rendering.
    pub fn to_isl_string(&self) -> String {
        let mut names: Vec<String> = self.space.in_space().dims().to_vec();
        names.extend(self.space.out_space().dims().iter().map(|d| format!("{d}'")));
        names.extend_from_slice(self.space.in_space().params());
        let body: Vec<String> = self
            .cons
            .iter()
            .map(|c| {
                let rel = if c.kind == ConstraintKind::Eq { "=" } else { ">=" };
                format!("{} {} 0", c.aff.display_with(&names), rel)
            })
            .collect();
        format!(
            "[{}] -> {{ {}[{}] -> {}[{}] : {} }}",
            self.space.in_space().params().join(", "),
            self.space.in_space().name(),
            self.space.in_space().dims().join(", "),
            self.space.out_space().name(),
            self.space
                .out_space()
                .dims()
                .iter()
                .map(|d| format!("{d}'"))
                .collect::<Vec<_>>()
                .join(", "),
            if body.is_empty() { "true".to_string() } else { body.join(" and ") }
        )
    }
}

impl std::fmt::Display for BasicMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_isl_string())
    }
}

/// Gaussian elimination helper: solves the equalities for each target
/// dimension (outputs when `invert == false`) as an affine function of the
/// other side plus parameters. Exact over the integers (unit pivots or
/// divisible rows only).
fn solve_functional(
    cons: &[Constraint],
    n_in: usize,
    n_out: usize,
    n_params: usize,
    _invert: bool,
) -> Option<Vec<Aff>> {
    let mut eqs: Vec<Aff> = cons
        .iter()
        .filter(|c| c.kind == ConstraintKind::Eq)
        .map(|c| c.aff.clone())
        .collect();
    // Reduce over the output columns: find a pivot per output dim.
    let mut pivot_row: Vec<Option<usize>> = vec![None; n_out];
    for j in 0..n_out {
        let col = n_in + j;
        // Prefer a unit pivot.
        let row_idx = eqs
            .iter()
            .enumerate()
            .filter(|(r, a)| a.coeff(col) != 0 && !pivot_row.contains(&Some(*r)))
            .min_by_key(|(_, a)| a.coeff(col).abs())?
            .0;
        pivot_row[j] = Some(row_idx);
        let pa = eqs[row_idx].clone();
        let pc = pa.coeff(col);
        for (r, a) in eqs.iter_mut().enumerate() {
            if r == row_idx || a.coeff(col) == 0 {
                continue;
            }
            let ac = a.coeff(col);
            // a' = pc * a - ac * pa  (zeroes col), then normalize by gcd.
            let mut na = a.scale(pc).sub(&pa.scale(ac));
            let g = na.coeffs().iter().fold(0i64, |g, &v| crate::aff::gcd(g, v));
            if g > 1 {
                na = Aff::from_coeffs(na.coeffs().iter().map(|&v| v / g).collect());
            }
            if pc < 0 {
                na = na.scale(-1);
            }
            *a = na;
        }
    }
    // Read each output's expression from its pivot row.
    let mut out = Vec::with_capacity(n_out);
    for j in 0..n_out {
        let col = n_in + j;
        let row = &eqs[pivot_row[j]?];
        let k = row.coeff(col);
        // Other output columns must be zero in the pivot row.
        for j2 in 0..n_out {
            if j2 != j && row.coeff(n_in + j2) != 0 {
                return None;
            }
        }
        // out_j = -(rest) / k; require divisibility.
        let mut coeffs = Vec::with_capacity(n_in + n_params + 1);
        for i in 0..n_in {
            coeffs.push(row.coeff(i));
        }
        for p in 0..n_params {
            coeffs.push(row.coeff(n_in + n_out + p));
        }
        coeffs.push(row.const_term());
        if coeffs.iter().any(|&v| v % k != 0) {
            return None;
        }
        out.push(Aff::from_coeffs(coeffs.iter().map(|&v| -v / k).collect()));
    }
    Some(out)
}

/// A finite union of [`BasicMap`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Map {
    space: MapSpace,
    basics: Vec<BasicMap>,
}

impl Map {
    /// The empty relation.
    pub fn empty(space: MapSpace) -> Map {
        Map { space, basics: Vec::new() }
    }

    /// A union with one basic map.
    pub fn from_basic(b: BasicMap) -> Map {
        Map { space: b.space().clone(), basics: vec![b] }
    }

    /// The map space.
    pub fn space(&self) -> &MapSpace {
        &self.space
    }

    /// The basic maps of the union.
    pub fn basics(&self) -> &[BasicMap] {
        &self.basics
    }

    /// Exact emptiness.
    pub fn is_empty(&self) -> bool {
        self.basics.iter().all(|b| b.is_empty())
    }

    /// Union of relations.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn union(&self, other: &Map) -> Result<Map> {
        if self.space.n_in() != other.space.n_in() || self.space.n_out() != other.space.n_out() {
            return Err(Error::SpaceMismatch(format!("{} vs {}", self.space, other.space)));
        }
        let mut basics = self.basics.clone();
        basics.extend(other.basics.iter().cloned());
        Ok(Map { space: self.space.clone(), basics })
    }

    /// Intersection, distributed over the unions.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn intersect(&self, other: &Map) -> Result<Map> {
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let m = a.intersect(b)?;
                if !m.is_empty() {
                    basics.push(m);
                }
            }
        }
        Ok(Map { space: self.space.clone(), basics })
    }

    /// Restricts the domain.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn intersect_domain(&self, set: &Set) -> Result<Map> {
        let mut basics = Vec::new();
        for m in &self.basics {
            for s in set.basics() {
                let r = m.intersect_domain(s)?;
                if !r.is_empty() {
                    basics.push(r);
                }
            }
        }
        Ok(Map { space: self.space.clone(), basics })
    }

    /// Applies the relation to a set; returns the image and exactness.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn apply(&self, set: &Set) -> Result<(Set, bool)> {
        let mut out = Set::empty(self.space.out_space().clone());
        let mut exact = true;
        for m in &self.basics {
            for s in set.basics() {
                let (img, e) = m.apply(s)?;
                exact &= e;
                if !img.is_empty() {
                    out = out.union(&Set::from_basic(img))?;
                }
            }
        }
        Ok((out, exact))
    }

    /// The wrapped union set over pairs.
    pub fn wrap(&self) -> Set {
        let mut s = Set::empty(self.space.wrapped());
        for b in &self.basics {
            s = s.union(&Set::from_basic(b.wrap())).expect("wrapped spaces always compatible");
        }
        s
    }

    /// Subtraction of relations (via the wrapped sets).
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn subtract(&self, other: &Map) -> Result<Map> {
        let w = self.wrap().subtract(&other.wrap())?;
        let mut basics = Vec::new();
        for b in w.basics() {
            basics.push(BasicMap::unwrap_from(self.space.clone(), b));
        }
        Ok(Map { space: self.space.clone(), basics })
    }

    /// The lexicographic strictly-before relation between two spaces of
    /// equal dimensionality: `{ i → j : i ≺ j }`, as a union over the
    /// depth of the first differing dimension.
    pub fn lex_lt(space: &Space) -> Map {
        let out_space = space.with_name(&format!("{}'", space.name()));
        let ms = MapSpace::new(space.clone(), out_space);
        let n = ms.n_cols();
        let d = space.n_dims();
        let mut basics = Vec::new();
        for k in 0..d {
            let mut cons = Vec::with_capacity(k + 1);
            for eq_dim in 0..k {
                let aff = Aff::var(n, ms.out_col(eq_dim)).sub(&Aff::var(n, ms.in_col(eq_dim)));
                cons.push(Constraint::eq(aff));
            }
            // out_k - in_k - 1 >= 0
            let aff = Aff::var(n, ms.out_col(k))
                .sub(&Aff::var(n, ms.in_col(k)))
                .add(&Aff::constant(n, -1));
            cons.push(Constraint::ineq(aff));
            basics.push(BasicMap::from_constraints(ms.clone(), cons));
        }
        Map { space: ms, basics }
    }

    /// Pretty ISL-like rendering.
    pub fn to_isl_string(&self) -> String {
        if self.basics.is_empty() {
            return format!("{} : false", self.space);
        }
        self.basics
            .iter()
            .map(|b| b.to_isl_string())
            .collect::<Vec<_>>()
            .join(" ∪ ")
    }
}

impl std::fmt::Display for Map {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_isl_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp2() -> Space {
        Space::set("S", &["i", "j"], &["N"])
    }

    #[test]
    fn identity_maps_points() {
        let id = BasicMap::identity(&sp2());
        let dom = BasicSet::from_constraint_strs(&sp2(), &["i = 3", "j = 4"]).unwrap();
        let (img, exact) = id.apply(&dom).unwrap();
        assert!(exact);
        assert!(img.contains(&[3, 4], &[0]));
        assert!(!img.contains(&[4, 3], &[0]));
    }

    #[test]
    fn from_output_affs_shift() {
        // (i, j) -> (i + 2, j + N)
        let n = sp2().n_cols();
        let affs = vec![
            Aff::var(n, 0).add(&Aff::constant(n, 2)),
            Aff::var(n, 1).add(&Aff::var(n, 2)),
        ];
        let m = BasicMap::from_output_affs(&sp2(), &sp2().with_name("T"), &affs);
        let dom = BasicSet::from_constraint_strs(&sp2(), &["i = 1", "j = 1", "N = 10"]).unwrap();
        let (img, _) = m.apply(&dom).unwrap();
        assert!(img.contains(&[3, 11], &[10]));
    }

    #[test]
    fn reverse_round_trips() {
        let n = sp2().n_cols();
        let affs = vec![Aff::var(n, 1), Aff::var(n, 0)]; // swap
        let m = BasicMap::from_output_affs(&sp2(), &sp2().with_name("T"), &affs);
        let r = m.reverse();
        let dom = BasicSet::from_constraint_strs(&sp2(), &["i = 5", "j = 7"]).unwrap();
        let (img, _) = m.apply(&dom).unwrap();
        assert!(img.contains(&[7, 5], &[0]));
        let (back, _) = r.apply(&img).unwrap();
        assert!(back.contains(&[5, 7], &[0]));
    }

    #[test]
    fn compose_shift_then_swap() {
        let n = sp2().n_cols();
        let shift = BasicMap::from_output_affs(
            &sp2(),
            &sp2().with_name("T"),
            &[Aff::var(n, 0).add(&Aff::constant(n, 1)), Aff::var(n, 1)],
        );
        let swap = BasicMap::from_output_affs(
            &sp2().with_name("T"),
            &sp2().with_name("U"),
            &[Aff::var(n, 1), Aff::var(n, 0)],
        );
        let (c, exact) = shift.apply_range(&swap).unwrap();
        assert!(exact);
        let outs = c.output_affs().unwrap();
        // (i, j) -> (j, i + 1)
        assert_eq!(outs[0].coeffs(), &[0, 1, 0, 0]);
        assert_eq!(outs[1].coeffs(), &[1, 0, 0, 1]);
    }

    #[test]
    fn output_affs_recovers_tiling() {
        // Tiling-ish map with equalities: (i) -> (i0, i1) where
        // i = 4 i0 + i1 is NOT functional (i0 free) — but with the
        // constraint i1 = i - 4 i0 and i0 = ... we test the functional
        // subcase: (i) -> (2i + 1, i - 3).
        let s1 = Space::set("S", &["i"], &[]);
        let s2 = Space::set("T", &["a", "b"], &[]);
        let n = s1.n_cols();
        let m = BasicMap::from_output_affs(
            &s1,
            &s2,
            &[
                Aff::var(n, 0).scale(2).add(&Aff::constant(n, 1)),
                Aff::var(n, 0).add(&Aff::constant(n, -3)),
            ],
        );
        let outs = m.output_affs().unwrap();
        assert_eq!(outs[0].coeffs(), &[2, 1]);
        assert_eq!(outs[1].coeffs(), &[1, -3]);
        // And the inverse: i = b + 3 (from the second output).
        let ins = m.input_affs().unwrap();
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].eval(&[9, 2]), 5);
    }

    #[test]
    fn lex_lt_orders_points() {
        let s = Space::set("S", &["i", "j"], &[]);
        let lt = Map::lex_lt(&s);
        // (1, 5) < (2, 0) lexicographically.
        let dom = Set::from_constraint_strs(&s, &["i = 1", "j = 5"]).unwrap();
        let (img, _) = lt.apply(&dom).unwrap();
        assert!(img.contains(&[2, 0], &[]));
        assert!(img.contains(&[1, 6], &[]));
        assert!(!img.contains(&[1, 5], &[]));
        assert!(!img.contains(&[0, 9], &[]));
    }

    #[test]
    fn map_subtract_removes_pairs() {
        let s = Space::set("S", &["i"], &[]);
        let lt = Map::lex_lt(&s);
        let le = lt.union(&Map::from_basic(BasicMap::identity(&s))).unwrap();
        // le \ lt = identity.
        let diff = le.subtract(&lt).unwrap();
        let dom = Set::from_constraint_strs(&s, &["i = 4"]).unwrap();
        let (img, _) = diff.apply(&dom).unwrap();
        assert!(img.contains(&[4], &[]));
        assert!(!img.contains(&[5], &[]));
    }

    #[test]
    fn intersect_domain_range() {
        let id = BasicMap::identity(&sp2());
        let dom = BasicSet::from_constraint_strs(&sp2(), &["i >= 0", "i <= 4", "j = 0"]).unwrap();
        let m = id.intersect_domain(&dom).unwrap();
        let (rng, exact) = m.range();
        assert!(exact);
        assert!(rng.contains(&[4, 0], &[0]));
        assert!(!rng.contains(&[5, 0], &[0]));
        let (d2, _) = m.domain();
        assert!(d2.contains(&[0, 0], &[0]));
    }

    #[test]
    fn parse_map_constraints() {
        let ms = MapSpace::new(sp2(), Space::set("T", &["a", "b"], &["N"]));
        let m = BasicMap::from_constraint_strs(&ms, &["a = i + 1", "b = j"]).unwrap();
        let outs = m.output_affs().unwrap();
        assert_eq!(outs[0].coeffs(), &[1, 0, 0, 1]);
    }
}
