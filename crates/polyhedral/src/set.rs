//! Integer sets: unions of basic sets (conjunctions of affine constraints).
//!
//! A [`BasicSet`] is `{ S[i...] : constraints }`; a [`Set`] is a finite
//! union of basic sets over one space. These represent the iteration
//! domains of Layer I and the time–space domains of Layer II in the
//! Tiramisu IR.

use crate::aff::{parse_constraint, Aff, Constraint, ConstraintKind};
use crate::fm::{self, eliminate_col};
use crate::solve;
use crate::space::Space;
use crate::{Error, Result};

/// A conjunction of affine constraints over a [`Space`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicSet {
    space: Space,
    cons: Vec<Constraint>,
}

impl BasicSet {
    /// Builds from constraints; rows must have `space.n_cols()` columns.
    ///
    /// # Panics
    ///
    /// Panics if a constraint row has the wrong width.
    pub fn from_constraints(space: Space, cons: Vec<Constraint>) -> BasicSet {
        for c in &cons {
            assert_eq!(c.aff.n_cols(), space.n_cols(), "constraint width mismatch");
        }
        let mut s = BasicSet { space, cons };
        s.normalize();
        s
    }

    /// Parses textual constraints (`"i >= 0"`, `"i < N"`) over the space's
    /// dimension and parameter names.
    ///
    /// # Errors
    ///
    /// Returns a parse error or an unknown-dimension error.
    pub fn from_constraint_strs(space: &Space, texts: &[&str]) -> Result<BasicSet> {
        let mut names: Vec<String> = space.dims().to_vec();
        names.extend_from_slice(space.params());
        let mut cons = Vec::with_capacity(texts.len());
        for t in texts {
            cons.push(parse_constraint(t, &names)?);
        }
        Ok(BasicSet::from_constraints(space.clone(), cons))
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The constraints of this set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.cons
    }

    /// Adds one constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.aff.n_cols(), self.space.n_cols());
        self.cons.push(c);
        self.normalize();
    }

    /// Returns a copy with the constraint added.
    pub fn with_constraint(&self, c: Constraint) -> BasicSet {
        let mut s = self.clone();
        s.add_constraint(c);
        s
    }

    fn normalize(&mut self) {
        fm::normalize_in_place(&mut self.cons);
    }

    /// Exact integer emptiness (the Omega test). Parameters are treated as
    /// free unknowns: a parametric set is empty iff it is empty for every
    /// parameter value.
    pub fn is_empty(&self) -> bool {
        let n_vars = self.space.n_dims() + self.space.n_params();
        !solve::constraints_feasible(&self.cons, n_vars)
    }

    /// Intersection with a structurally compatible basic set.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when dimensionality or parameters differ.
    pub fn intersect(&self, other: &BasicSet) -> Result<BasicSet> {
        if !self.space.is_compatible(other.space()) {
            return Err(Error::SpaceMismatch(format!(
                "{} vs {}",
                self.space, other.space
            )));
        }
        let mut cons = self.cons.clone();
        cons.extend(other.cons.iter().cloned());
        Ok(BasicSet::from_constraints(self.space.clone(), cons))
    }

    /// Membership test for a concrete point (dims then params).
    pub fn contains(&self, dims: &[i64], params: &[i64]) -> bool {
        assert_eq!(dims.len(), self.space.n_dims());
        assert_eq!(params.len(), self.space.n_params());
        let mut point = Vec::with_capacity(dims.len() + params.len());
        point.extend_from_slice(dims);
        point.extend_from_slice(params);
        self.cons.iter().all(|c| {
            let v = c.aff.eval(&point);
            match c.kind {
                ConstraintKind::Eq => v == 0,
                ConstraintKind::Ineq => v >= 0,
            }
        })
    }

    /// One integer point `(dims, params)` of the set, if any.
    pub fn sample(&self) -> Option<(Vec<i64>, Vec<i64>)> {
        let n_vars = self.space.n_dims() + self.space.n_params();
        let p = solve::sample_point(&self.cons, n_vars)?;
        let (d, q) = p.split_at(self.space.n_dims());
        Some((d.to_vec(), q.to_vec()))
    }

    /// Projects out `count` dimensions starting at `first`. Returns the
    /// projected set and whether the integer projection is exact.
    pub fn project_out(&self, first: usize, count: usize) -> (BasicSet, bool) {
        assert!(first + count <= self.space.n_dims());
        let mut cons = self.cons.clone();
        let mut exact = true;
        // Eliminate from the last to keep column indices stable.
        for col in (first..first + count).rev() {
            let e = eliminate_col(&cons, col);
            exact &= e.exact;
            cons = e.cons;
        }
        let mut dims = self.space.dims().to_vec();
        dims.drain(first..first + count);
        let space = Space::from_names(
            self.space.name().to_string(),
            dims,
            self.space.params().to_vec(),
        );
        (BasicSet::from_constraints(space, cons), exact)
    }

    /// Renames the tuple.
    pub fn with_name(&self, name: &str) -> BasicSet {
        BasicSet { space: self.space.with_name(name), cons: self.cons.clone() }
    }

    /// Minimum integer value of dimension `d` over the set, when the set is
    /// non-parametric in the bound (i.e. the extremum exists and is finite).
    pub fn dim_min(&self, d: usize) -> Option<i64> {
        let n_vars = self.space.n_dims() + self.space.n_params();
        solve::int_min(&self.cons, n_vars, &Aff::var(n_vars + 1, d))
    }

    /// Maximum integer value of dimension `d` over the set; see [`Self::dim_min`].
    pub fn dim_max(&self, d: usize) -> Option<i64> {
        let n_vars = self.space.n_dims() + self.space.n_params();
        solve::int_max(&self.cons, n_vars, &Aff::var(n_vars + 1, d))
    }

    /// Fixes parameter `p` to value `v` (adds the equality).
    pub fn fix_param(&self, p: usize, v: i64) -> BasicSet {
        let n = self.space.n_cols();
        let aff = Aff::var(n, self.space.param_col(p)).add(&Aff::constant(n, -v));
        self.with_constraint(Constraint::eq(aff))
    }

    /// The negation pieces of this basic set: a list of basic sets whose
    /// union is the complement (used by subtraction).
    fn negation_pieces(&self) -> Vec<BasicSet> {
        let n = self.space.n_cols();
        let mut out = Vec::new();
        for c in &self.cons {
            match c.kind {
                ConstraintKind::Ineq => {
                    // ¬(aff >= 0) == -aff - 1 >= 0
                    let na = c.aff.scale(-1).add(&Aff::constant(n, -1));
                    out.push(BasicSet::from_constraints(
                        self.space.clone(),
                        vec![Constraint::ineq(na)],
                    ));
                }
                ConstraintKind::Eq => {
                    let hi = c.aff.add(&Aff::constant(n, -1));
                    let lo = c.aff.scale(-1).add(&Aff::constant(n, -1));
                    out.push(BasicSet::from_constraints(
                        self.space.clone(),
                        vec![Constraint::ineq(hi)],
                    ));
                    out.push(BasicSet::from_constraints(
                        self.space.clone(),
                        vec![Constraint::ineq(lo)],
                    ));
                }
            }
        }
        out
    }

    /// Pretty ISL-like rendering.
    pub fn to_isl_string(&self) -> String {
        let mut names: Vec<String> = self.space.dims().to_vec();
        names.extend_from_slice(self.space.params());
        let body: Vec<String> = self
            .cons
            .iter()
            .map(|c| {
                let rel = match c.kind {
                    ConstraintKind::Eq => "=",
                    ConstraintKind::Ineq => ">=",
                };
                format!("{} {} 0", c.aff.display_with(&names), rel)
            })
            .collect();
        format!(
            "[{}] -> {{ {}[{}] : {} }}",
            self.space.params().join(", "),
            self.space.name(),
            self.space.dims().join(", "),
            if body.is_empty() { "true".to_string() } else { body.join(" and ") }
        )
    }
}

impl std::fmt::Display for BasicSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_isl_string())
    }
}

/// A finite union of [`BasicSet`]s over one space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Set {
    space: Space,
    basics: Vec<BasicSet>,
}

impl Set {
    /// The empty set of `space`.
    pub fn empty(space: Space) -> Set {
        Set { space, basics: Vec::new() }
    }

    /// A set with a single basic set.
    pub fn from_basic(b: BasicSet) -> Set {
        Set { space: b.space().clone(), basics: vec![b] }
    }

    /// Parses textual constraints into a single-basic-set union.
    ///
    /// # Errors
    ///
    /// Returns a parse error or an unknown-dimension error.
    pub fn from_constraint_strs(space: &Space, texts: &[&str]) -> Result<Set> {
        Ok(Set::from_basic(BasicSet::from_constraint_strs(space, texts)?))
    }

    /// The space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The basic sets of the union.
    pub fn basics(&self) -> &[BasicSet] {
        &self.basics
    }

    /// Exact emptiness: every basic set is empty.
    pub fn is_empty(&self) -> bool {
        self.basics.iter().all(|b| b.is_empty())
    }

    /// Union (same space).
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn union(&self, other: &Set) -> Result<Set> {
        if !self.space.is_compatible(other.space()) {
            return Err(Error::SpaceMismatch(format!("{} vs {}", self.space, other.space)));
        }
        let mut basics = self.basics.clone();
        basics.extend(other.basics.iter().cloned());
        Ok(Set { space: self.space.clone(), basics })
    }

    /// Intersection, distributing over the unions.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn intersect(&self, other: &Set) -> Result<Set> {
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let i = a.intersect(b)?;
                if !i.is_empty() {
                    basics.push(i);
                }
            }
        }
        Ok(Set { space: self.space.clone(), basics })
    }

    /// Set difference `self \ other`.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn subtract(&self, other: &Set) -> Result<Set> {
        if !self.space.is_compatible(other.space()) {
            return Err(Error::SpaceMismatch(format!("{} vs {}", self.space, other.space)));
        }
        let mut current = self.basics.clone();
        for b in &other.basics {
            let pieces = b.negation_pieces();
            let mut next = Vec::new();
            for cur in &current {
                if pieces.is_empty() {
                    // `b` is the universe: nothing survives.
                    continue;
                }
                for p in &pieces {
                    let i = cur.intersect(p)?;
                    if !i.is_empty() {
                        next.push(i);
                    }
                }
            }
            current = next;
        }
        Ok(Set { space: self.space.clone(), basics: current })
    }

    /// `self ⊆ other`.
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when incompatible.
    pub fn is_subset(&self, other: &Set) -> Result<bool> {
        Ok(self.subtract(other)?.is_empty())
    }

    /// Membership for a concrete point.
    pub fn contains(&self, dims: &[i64], params: &[i64]) -> bool {
        self.basics.iter().any(|b| b.contains(dims, params))
    }

    /// One integer point of the set, if any.
    pub fn sample(&self) -> Option<(Vec<i64>, Vec<i64>)> {
        self.basics.iter().find_map(|b| b.sample())
    }

    /// Projects out `count` dims starting at `first`; returns the projected
    /// set and whether all projections were exact.
    pub fn project_out(&self, first: usize, count: usize) -> (Set, bool) {
        let mut exact = true;
        let mut basics = Vec::with_capacity(self.basics.len());
        let mut space = None;
        for b in &self.basics {
            let (p, e) = b.project_out(first, count);
            exact &= e;
            space = Some(p.space().clone());
            if !p.is_empty() {
                basics.push(p);
            }
        }
        let space = space.unwrap_or_else(|| {
            let mut dims = self.space.dims().to_vec();
            dims.drain(first..first + count);
            Space::from_names(self.space.name().to_string(), dims, self.space.params().to_vec())
        });
        (Set { space, basics }, exact)
    }

    /// Drops redundant basic sets (those contained in another one).
    pub fn coalesce(&self) -> Set {
        let mut keep: Vec<BasicSet> = Vec::new();
        'outer: for b in &self.basics {
            if b.is_empty() {
                continue;
            }
            for k in &keep {
                let bs = Set::from_basic(b.clone());
                let ks = Set::from_basic(k.clone());
                if bs.is_subset(&ks).unwrap_or(false) {
                    continue 'outer;
                }
            }
            keep.push(b.clone());
        }
        Set { space: self.space.clone(), basics: keep }
    }

    /// Pretty ISL-like rendering.
    pub fn to_isl_string(&self) -> String {
        if self.basics.is_empty() {
            return format!(
                "[{}] -> {{ {}[{}] : false }}",
                self.space.params().join(", "),
                self.space.name(),
                self.space.dims().join(", ")
            );
        }
        self.basics
            .iter()
            .map(|b| b.to_isl_string())
            .collect::<Vec<_>>()
            .join(" ∪ ")
    }
}

impl std::fmt::Display for Set {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_isl_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Space {
        Space::set("S", &["i", "j"], &["N"])
    }

    fn rect(lo_i: i64, hi_i: i64, lo_j: i64, hi_j: i64) -> BasicSet {
        BasicSet::from_constraint_strs(
            &sp(),
            &[
                &format!("i >= {lo_i}"),
                &format!("i <= {hi_i}"),
                &format!("j >= {lo_j}"),
                &format!("j <= {hi_j}"),
            ]
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn emptiness_basic() {
        assert!(!rect(0, 5, 0, 5).is_empty());
        assert!(rect(5, 0, 0, 5).is_empty());
    }

    #[test]
    fn parametric_emptiness() {
        let s = BasicSet::from_constraint_strs(&sp(), &["i >= 0", "i < N", "N <= 0"]).unwrap();
        assert!(s.is_empty());
        let s = BasicSet::from_constraint_strs(&sp(), &["i >= 0", "i < N"]).unwrap();
        assert!(!s.is_empty());
    }

    #[test]
    fn intersect_and_contains() {
        let a = rect(0, 10, 0, 10);
        let b = rect(5, 15, 5, 15);
        let i = a.intersect(&b).unwrap();
        assert!(i.contains(&[7, 7], &[0]));
        assert!(!i.contains(&[2, 7], &[0]));
        assert!(!i.is_empty());
    }

    #[test]
    fn subtract_and_subset() {
        let a = Set::from_basic(rect(0, 9, 0, 9));
        let b = Set::from_basic(rect(0, 9, 0, 4));
        let d = a.subtract(&b).unwrap();
        // d should be rows j in 5..=9.
        assert!(d.contains(&[3, 7], &[0]));
        assert!(!d.contains(&[3, 2], &[0]));
        assert!(b.is_subset(&a).unwrap());
        assert!(!a.is_subset(&b).unwrap());
        // a \ a is empty
        assert!(a.subtract(&a).unwrap().is_empty());
    }

    #[test]
    fn union_covers_both() {
        let a = Set::from_basic(rect(0, 4, 0, 4));
        let b = Set::from_basic(rect(5, 9, 5, 9));
        let u = a.union(&b).unwrap();
        assert!(u.contains(&[1, 1], &[0]));
        assert!(u.contains(&[6, 6], &[0]));
        assert!(!u.contains(&[1, 6], &[0]));
    }

    #[test]
    fn project_out_triangle() {
        // { (i, j) : 0 <= i <= 9, 0 <= j <= i } projected on i: 0 <= i <= 9.
        let t = BasicSet::from_constraint_strs(&sp(), &["i >= 0", "i <= 9", "j >= 0", "j <= i"])
            .unwrap();
        let (p, exact) = t.project_out(1, 1);
        assert!(exact);
        assert_eq!(p.space().n_dims(), 1);
        assert!(p.contains(&[9], &[0]));
        assert!(!p.contains(&[10], &[0]));
    }

    #[test]
    fn dim_min_max() {
        let t = rect(2, 8, -3, 4);
        assert_eq!(t.dim_min(0), Some(2));
        assert_eq!(t.dim_max(0), Some(8));
        assert_eq!(t.dim_min(1), Some(-3));
        assert_eq!(t.dim_max(1), Some(4));
    }

    #[test]
    fn fix_param_bounds_the_set() {
        let s = BasicSet::from_constraint_strs(&sp(), &["i >= 0", "i < N", "j = 0"]).unwrap();
        let f = s.fix_param(0, 10);
        assert_eq!(f.dim_max(0), Some(9));
    }

    #[test]
    fn sample_in_set() {
        let t = rect(3, 6, 10, 12);
        let (d, _) = t.sample().unwrap();
        assert!(t.contains(&d, &[0]));
    }

    #[test]
    fn coalesce_drops_contained() {
        let a = Set::from_basic(rect(0, 9, 0, 9));
        let b = Set::from_basic(rect(2, 4, 2, 4));
        let u = a.union(&b).unwrap().coalesce();
        assert_eq!(u.basics().len(), 1);
    }

    #[test]
    fn display_mentions_constraints() {
        let s = rect(0, 5, 0, 5);
        let text = format!("{s}");
        assert!(text.contains("S[i, j]"));
        assert!(text.contains(">= 0"));
    }
}
