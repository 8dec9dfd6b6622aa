//! Fourier–Motzkin elimination with exactness tracking.
//!
//! Projection is used to compute loop bounds during AST generation and to
//! project out intermediate dimensions when composing maps. Over the
//! integers FM is exact only when, for each combined pair of bounds, one of
//! the two coefficients on the eliminated dimension is unit; this module
//! tracks that and reports inexact projections so callers can compensate
//! (code generation emits guards, dependence analysis falls back to the
//! conservative over-approximation).

use crate::aff::{Aff, Constraint, ConstraintKind};

/// Result of eliminating one column.
#[derive(Debug, Clone)]
pub struct Elimination {
    /// Constraints over the remaining columns (the eliminated column has
    /// been removed from the coefficient rows).
    pub cons: Vec<Constraint>,
    /// Whether the integer projection is exact.
    pub exact: bool,
}

/// Eliminates column `col` from the conjunction `cons`.
///
/// Strategy: if an equality has a `±1` coefficient on `col`, substitute
/// (exact). Otherwise, if an equality mentions `col` at all, substitute with
/// scaling (rationally exact, integrally an over-approximation — marked
/// inexact). Otherwise run Fourier–Motzkin on the inequalities, tracking
/// per-pair exactness.
pub fn eliminate_col(cons: &[Constraint], col: usize) -> Elimination {
    // Exact substitution using a unit-coefficient equality.
    if let Some(i) = cons
        .iter()
        .position(|c| c.kind == ConstraintKind::Eq && c.aff.coeff(col).abs() == 1)
    {
        return Elimination { cons: substitute(cons, i, col, true), exact: true };
    }
    // Scaled substitution using any equality (integrally inexact: the
    // divisibility constraint implied by the equality is dropped).
    if let Some(i) = cons
        .iter()
        .position(|c| c.kind == ConstraintKind::Eq && c.aff.coeff(col) != 0)
    {
        return Elimination { cons: substitute(cons, i, col, false), exact: false };
    }
    // Fourier–Motzkin on inequalities. Constraints not mentioning `col`
    // pass through untouched.
    let mut out: Vec<Constraint> = Vec::new();
    let mut exact = true;
    for c in cons.iter().filter(|c| c.aff.coeff(col) == 0) {
        out.push(Constraint { aff: c.aff.remove_col(col), kind: c.kind });
    }
    let lowers: Vec<&Constraint> = cons
        .iter()
        .filter(|c| c.kind == ConstraintKind::Ineq && c.aff.coeff(col) > 0)
        .collect();
    let uppers: Vec<&Constraint> = cons
        .iter()
        .filter(|c| c.kind == ConstraintKind::Ineq && c.aff.coeff(col) < 0)
        .collect();
    for lo in &lowers {
        let a = lo.aff.coeff(col);
        for up in &uppers {
            let b = -up.aff.coeff(col);
            if a != 1 && b != 1 {
                exact = false;
            }
            let combined = lo.aff.scale(b).add(&up.aff.scale(a)).remove_col(col);
            out.push(Constraint::ineq(combined));
        }
    }
    let mut result = Elimination { cons: out, exact };
    normalize_in_place(&mut result.cons);
    result
}

/// Substitutes `col` out of every constraint using the equality at index
/// `eq_idx`.
///
/// With `unit == true` the coefficient of `col` in the equality is `±1` and
/// the substitution is exact; otherwise constraints are scaled by `|k|`
/// first (rationally exact). The equality row itself is dropped, and the
/// eliminated column removed from every row.
fn substitute(cons: &[Constraint], eq_idx: usize, col: usize, unit: bool) -> Vec<Constraint> {
    let eq = &cons[eq_idx];
    let k = eq.aff.coeff(col);
    debug_assert!(k != 0);
    debug_assert!(!unit || k.abs() == 1);
    let mut out = Vec::with_capacity(cons.len().saturating_sub(1));
    for (i, c) in cons.iter().enumerate() {
        if i == eq_idx {
            continue;
        }
        let beta = c.aff.coeff(col);
        let new_aff = if beta == 0 {
            c.aff.remove_col(col)
        } else if unit {
            // f' = f - beta * sign(k) * e  (zeroes the col coefficient)
            c.aff.sub(&eq.aff.scale(beta * k.signum())).remove_col(col)
        } else {
            // f' = |k| * f - beta * sign(k) * e
            c.aff
                .scale(k.abs())
                .sub(&eq.aff.scale(beta * k.signum()))
                .remove_col(col)
        };
        let mut nc = Constraint { aff: new_aff, kind: c.kind };
        if !nc.normalize() {
            return vec![contradiction(c.aff.n_cols() - 1)];
        }
        if !nc.is_trivial() {
            out.push(nc);
        }
    }
    out
}

/// Normalizes every constraint, drops trivial ones and syntactic
/// duplicates. If some constraint is found integrally unsatisfiable the
/// list is replaced by the canonical contradiction `-1 >= 0`.
pub fn normalize_in_place(cons: &mut Vec<Constraint>) {
    let n_cols = match cons.first() {
        Some(c) => c.aff.n_cols(),
        None => return,
    };
    if !cons.iter_mut().all(Constraint::normalize) {
        *cons = vec![contradiction(n_cols)];
        return;
    }
    // First occurrences stay, in order; the set borrows the rows it keys.
    let mut seen = std::collections::HashSet::with_capacity(cons.len());
    let keep: Vec<bool> = cons
        .iter()
        .map(|c| !c.is_trivial() && seen.insert((c.kind, c.aff.coeffs())))
        .collect();
    let mut keep = keep.iter();
    cons.retain(|_| *keep.next().expect("one flag per constraint"));
}

/// The canonical unsatisfiable constraint `-1 >= 0` over `n_cols` columns.
pub fn contradiction(n_cols: usize) -> Constraint {
    Constraint::ineq(Aff::constant(n_cols, -1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ineq(c: Vec<i64>) -> Constraint {
        Constraint::ineq(Aff::from_coeffs(c))
    }
    fn eq(c: Vec<i64>) -> Constraint {
        Constraint::eq(Aff::from_coeffs(c))
    }

    #[test]
    fn fm_projects_box() {
        // 0 <= x <= 5, 0 <= y <= x  — eliminate x (col 0): 0 <= y <= 5.
        let cons = vec![
            ineq(vec![1, 0, 0]),
            ineq(vec![-1, 0, 5]),
            ineq(vec![0, 1, 0]),
            ineq(vec![1, -1, 0]),
        ];
        let e = eliminate_col(&cons, 0);
        assert!(e.exact);
        assert!(e.cons.contains(&ineq(vec![1, 0])));
        assert!(e.cons.contains(&ineq(vec![-1, 5])));
    }

    #[test]
    fn fm_marks_inexact_pairs() {
        // 2x >= y, 3x <= z — eliminating x pairs coeffs (2, 3): inexact.
        let cons = vec![ineq(vec![2, -1, 0, 0]), ineq(vec![-3, 0, 1, 0])];
        let e = eliminate_col(&cons, 0);
        assert!(!e.exact);
        // 3*(2x - y) + 2*(-3x + z) = -3y + 2z >= 0.
        assert!(e.cons.contains(&ineq(vec![-3, 2, 0])));
    }

    #[test]
    fn equality_substitution_exact() {
        // i = j + 1 (unit), 0 <= i <= 9 — eliminate i: 0 <= j + 1 <= 9.
        let cons = vec![
            eq(vec![1, -1, -1]),
            ineq(vec![1, 0, 0]),
            ineq(vec![-1, 0, 9]),
        ];
        let e = eliminate_col(&cons, 0);
        assert!(e.exact);
        assert!(e.cons.contains(&ineq(vec![1, 1])));
        assert!(e.cons.contains(&ineq(vec![-1, 8])));
    }

    #[test]
    fn scaled_equality_substitution_inexact() {
        // 2i = j, 0 <= i <= 4 — eliminate i: rationally 0 <= j <= 8, but
        // j's evenness is lost (inexact).
        let cons = vec![
            eq(vec![2, -1, 0]),
            ineq(vec![1, 0, 0]),
            ineq(vec![-1, 0, 4]),
        ];
        let e = eliminate_col(&cons, 0);
        assert!(!e.exact);
        assert!(e.cons.contains(&ineq(vec![1, 0])));
        assert!(e.cons.contains(&ineq(vec![-1, 8])));
    }

    #[test]
    fn equalities_passing_through_fm() {
        // x >= y, x <= 5, and an unrelated equality z = 2: eliminate x.
        let cons = vec![
            ineq(vec![1, -1, 0, 0]),
            ineq(vec![-1, 0, 0, 5]),
            eq(vec![0, 0, 1, -2]),
        ];
        let e = eliminate_col(&cons, 0);
        assert!(e.exact);
        assert!(e.cons.contains(&ineq(vec![-1, 0, 5])));
        assert!(e.cons.contains(&eq(vec![0, 1, -2])));
    }

    #[test]
    fn normalize_dedups_and_detects_contradiction() {
        let mut cons = vec![ineq(vec![2, 0]), ineq(vec![1, 0]), ineq(vec![1, 0])];
        normalize_in_place(&mut cons);
        assert_eq!(cons.len(), 1);

        let mut cons = vec![eq(vec![2, 1])]; // 2x + 1 = 0: infeasible
        normalize_in_place(&mut cons);
        assert_eq!(cons, vec![contradiction(2)]);
    }
}
