//! Affine expressions and affine constraints.
//!
//! An [`Aff`] is an integer-coefficient affine function over the columns of
//! a [`Space`](crate::Space) (or a [`MapSpace`](crate::MapSpace), using the
//! flattened column layout). A [`Constraint`] is `aff = 0` or `aff >= 0`.

use crate::Error;

/// Kind of an affine constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintKind {
    /// `expr = 0`
    Eq,
    /// `expr >= 0`
    Ineq,
}

/// An affine expression stored as a dense coefficient row.
///
/// The last column is the constant; preceding columns are dimensions then
/// parameters, following the layout of the owning space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Aff {
    coeffs: Vec<i64>,
}

impl Aff {
    /// The zero expression over `n_cols` columns.
    pub fn zero(n_cols: usize) -> Aff {
        Aff { coeffs: vec![0; n_cols] }
    }

    /// A constant expression.
    pub fn constant(n_cols: usize, c: i64) -> Aff {
        let mut a = Aff::zero(n_cols);
        a.coeffs[n_cols - 1] = c;
        a
    }

    /// The expression that is exactly column `col` (a single variable).
    pub fn var(n_cols: usize, col: usize) -> Aff {
        let mut a = Aff::zero(n_cols);
        a.coeffs[col] = 1;
        a
    }

    /// Builds from a raw coefficient row.
    pub fn from_coeffs(coeffs: Vec<i64>) -> Aff {
        assert!(!coeffs.is_empty(), "affine expression needs at least a constant column");
        Aff { coeffs }
    }

    /// The raw coefficient row.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Mutable access to the raw coefficient row.
    pub fn coeffs_mut(&mut self) -> &mut [i64] {
        &mut self.coeffs
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient at `col`.
    pub fn coeff(&self, col: usize) -> i64 {
        self.coeffs[col]
    }

    /// Sets the coefficient at `col`, returning `self` for chaining.
    pub fn with_coeff(mut self, col: usize, v: i64) -> Aff {
        self.coeffs[col] = v;
        self
    }

    /// The constant term.
    pub fn const_term(&self) -> i64 {
        *self.coeffs.last().unwrap()
    }

    /// Adds another expression (checked: same width).
    pub fn add(&self, other: &Aff) -> Aff {
        assert_eq!(self.n_cols(), other.n_cols());
        Aff {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a.checked_add(*b).expect("affine coefficient overflow"))
                .collect(),
        }
    }

    /// Subtracts another expression.
    pub fn sub(&self, other: &Aff) -> Aff {
        self.add(&other.scale(-1))
    }

    /// Multiplies all coefficients by `k`.
    pub fn scale(&self, k: i64) -> Aff {
        Aff {
            coeffs: self
                .coeffs
                .iter()
                .map(|a| a.checked_mul(k).expect("affine coefficient overflow"))
                .collect(),
        }
    }

    /// True when every coefficient is zero (including the constant).
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// True when only the constant may be non-zero.
    pub fn is_constant(&self) -> bool {
        self.coeffs[..self.coeffs.len() - 1].iter().all(|&c| c == 0)
    }

    /// Evaluates at a full assignment of all non-constant columns.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.n_cols() - 1);
        let mut acc = self.const_term() as i128;
        for (c, v) in self.coeffs[..self.coeffs.len() - 1].iter().zip(point) {
            acc += (*c as i128) * (*v as i128);
        }
        i64::try_from(acc).expect("affine evaluation overflow")
    }

    /// Inserts `count` zero columns starting at position `at`.
    pub fn insert_cols(&self, at: usize, count: usize) -> Aff {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + count);
        coeffs.extend_from_slice(&self.coeffs[..at]);
        coeffs.extend(std::iter::repeat_n(0, count));
        coeffs.extend_from_slice(&self.coeffs[at..]);
        Aff { coeffs }
    }

    /// Removes the column at position `at` (its coefficient must be zero
    /// unless the caller knows better).
    pub fn remove_col(&self, at: usize) -> Aff {
        let mut coeffs = self.coeffs.clone();
        coeffs.remove(at);
        Aff { coeffs }
    }

    /// Renders the expression given names for the non-constant columns.
    pub fn display_with(&self, names: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &c) in self.coeffs[..self.coeffs.len() - 1].iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = names.get(i).map(|s| s.as_str()).unwrap_or("?");
            match c {
                1 => parts.push(name.to_string()),
                -1 => parts.push(format!("-{name}")),
                _ => parts.push(format!("{c}{name}")),
            }
        }
        let c = self.const_term();
        if c != 0 || parts.is_empty() {
            parts.push(c.to_string());
        }
        let mut out = String::new();
        for (i, p) in parts.iter().enumerate() {
            if i == 0 {
                out.push_str(p);
            } else if let Some(rest) = p.strip_prefix('-') {
                out.push_str(" - ");
                out.push_str(rest);
            } else {
                out.push_str(" + ");
                out.push_str(p);
            }
        }
        out
    }
}

/// An affine constraint: `aff = 0` or `aff >= 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Constraint {
    /// The constrained expression.
    pub aff: Aff,
    /// Equality or inequality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `aff = 0`
    pub fn eq(aff: Aff) -> Constraint {
        Constraint { aff, kind: ConstraintKind::Eq }
    }

    /// `aff >= 0`
    pub fn ineq(aff: Aff) -> Constraint {
        Constraint { aff, kind: ConstraintKind::Ineq }
    }

    /// Normalizes in place: divides by the gcd of the variable coefficients
    /// and tightens the constant for inequalities (integer semantics).
    ///
    /// Returns `false` when the constraint is unsatisfiable over the
    /// integers (an equality whose gcd does not divide the constant), in
    /// which case the owning basic set is empty.
    pub fn normalize(&mut self) -> bool {
        let n = self.aff.n_cols();
        let mut g: i64 = 0;
        for &c in &self.aff.coeffs()[..n - 1] {
            g = gcd(g, c.abs());
        }
        if g == 0 {
            // Pure constant constraint.
            let c = self.aff.const_term();
            return match self.kind {
                ConstraintKind::Eq => c == 0,
                ConstraintKind::Ineq => c >= 0,
            };
        }
        if g > 1 {
            let c = self.aff.const_term();
            match self.kind {
                ConstraintKind::Eq => {
                    if c % g != 0 {
                        return false;
                    }
                    for v in self.aff.coeffs_mut() {
                        *v /= g;
                    }
                }
                ConstraintKind::Ineq => {
                    for v in self.aff.coeffs_mut()[..n - 1].iter_mut() {
                        *v /= g;
                    }
                    let last = self.aff.n_cols() - 1;
                    self.aff.coeffs_mut()[last] = c.div_euclid(g);
                }
            }
        }
        true
    }

    /// True when this constraint is trivially satisfied (e.g. `5 >= 0`).
    pub fn is_trivial(&self) -> bool {
        if !self.aff.is_constant() {
            return false;
        }
        match self.kind {
            ConstraintKind::Eq => self.aff.const_term() == 0,
            ConstraintKind::Ineq => self.aff.const_term() >= 0,
        }
    }
}

/// Greatest common divisor of two non-negative integers.
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Parses a constraint string such as `"i + 2j - N + 1 >= 0"` or
/// `"i = 3j"` into a [`Constraint`] over the given column names.
///
/// Supported grammar: a linear combination of named columns with integer
/// coefficients (juxtaposition `2j` or explicit `2*j`), the relations
/// `>=`, `<=`, `=`, `==`, `>`, `<` between two linear sides.
///
/// # Errors
///
/// Returns [`Error::Parse`] for malformed input and [`Error::UnknownDim`]
/// for names not present in `names`.
pub(crate) fn parse_constraint(text: &str, names: &[String]) -> crate::Result<Constraint> {
    let n_cols = names.len() + 1;
    let (rel_pos, rel, rel_len) = find_relation(text)?;
    let lhs = parse_linear(&text[..rel_pos], names, n_cols)?;
    let rhs = parse_linear(&text[rel_pos + rel_len..], names, n_cols)?;
    // Move everything to one side: expr (relation) 0.
    let (aff, kind) = match rel {
        ">=" => (lhs.sub(&rhs), ConstraintKind::Ineq),
        "<=" => (rhs.sub(&lhs), ConstraintKind::Ineq),
        ">" => (lhs.sub(&rhs).add(&Aff::constant(n_cols, -1)), ConstraintKind::Ineq),
        "<" => (rhs.sub(&lhs).add(&Aff::constant(n_cols, -1)), ConstraintKind::Ineq),
        "=" | "==" => (lhs.sub(&rhs), ConstraintKind::Eq),
        _ => unreachable!(),
    };
    Ok(Constraint { aff, kind })
}

fn find_relation(text: &str) -> crate::Result<(usize, &'static str, usize)> {
    for (pat, norm) in [(">=", ">="), ("<=", "<="), ("==", "=="), ("=", "="), (">", ">"), ("<", "<")]
    {
        if let Some(pos) = text.find(pat) {
            return Ok((pos, norm, pat.len()));
        }
    }
    Err(Error::Parse(format!("no relation operator in '{text}'")))
}

fn parse_linear(text: &str, names: &[String], n_cols: usize) -> crate::Result<Aff> {
    let mut aff = Aff::zero(n_cols);
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut sign: i64 = 1;
    let mut any = false;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_whitespace() || c == '*' {
            i += 1;
            continue;
        }
        if c == '+' {
            sign = 1;
            i += 1;
            continue;
        }
        if c == '-' {
            sign = -sign;
            i += 1;
            continue;
        }
        // A term: optional integer, optional identifier.
        let mut coeff: Option<i64> = None;
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let s: String = bytes[start..i].iter().collect();
            coeff = Some(s.parse::<i64>().map_err(|e| Error::Parse(e.to_string()))?);
            while i < bytes.len() && (bytes[i].is_whitespace() || bytes[i] == '*') {
                i += 1;
            }
        }
        let mut ident = String::new();
        if i < bytes.len() && (bytes[i].is_alphabetic() || bytes[i] == '_') {
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'')
            {
                ident.push(bytes[i]);
                i += 1;
            }
        }
        let k = sign * coeff.unwrap_or(1);
        if ident.is_empty() {
            match coeff {
                Some(v) => {
                    let last = n_cols - 1;
                    aff.coeffs_mut()[last] += sign * v;
                }
                None => return Err(Error::Parse(format!("dangling token in '{text}'"))),
            }
        } else {
            let col = names
                .iter()
                .position(|n| *n == ident)
                .ok_or_else(|| Error::UnknownDim(ident.clone()))?;
            aff.coeffs_mut()[col] += k;
        }
        sign = 1;
        any = true;
    }
    if !any {
        return Err(Error::Parse(format!("empty linear expression in '{text}'")));
    }
    Ok(aff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_simple_geq() {
        let ns = names(&["i", "j", "N"]);
        let c = parse_constraint("i + 2j - N + 1 >= 0", &ns).unwrap();
        assert_eq!(c.kind, ConstraintKind::Ineq);
        assert_eq!(c.aff.coeffs(), &[1, 2, -1, 1]);
    }

    #[test]
    fn parse_sides_and_strict() {
        let ns = names(&["i", "N"]);
        let c = parse_constraint("i < N", &ns).unwrap();
        // i < N  ==>  N - i - 1 >= 0
        assert_eq!(c.aff.coeffs(), &[-1, 1, -1]);
        let c2 = parse_constraint("i <= N - 1", &ns).unwrap();
        assert_eq!(c2.aff.coeffs(), c.aff.coeffs());
    }

    #[test]
    fn parse_equality_and_coeff_styles() {
        let ns = names(&["i", "j"]);
        let c = parse_constraint("2*i = 3j + 4", &ns).unwrap();
        assert_eq!(c.kind, ConstraintKind::Eq);
        assert_eq!(c.aff.coeffs(), &[2, -3, -4]);
    }

    #[test]
    fn parse_unknown_dim_errors() {
        let ns = names(&["i"]);
        assert!(matches!(parse_constraint("z >= 0", &ns), Err(Error::UnknownDim(_))));
    }

    #[test]
    fn parse_no_relation_errors() {
        let ns = names(&["i"]);
        assert!(matches!(parse_constraint("i + 1", &ns), Err(Error::Parse(_))));
    }

    #[test]
    fn normalize_divides_and_tightens() {
        // 2i + 4 >= 1  -> stored as 2i + 3 >= 0 -> normalized i + 1 >= 0 (floor(3/2)=1)
        let mut c = Constraint::ineq(Aff::from_coeffs(vec![2, 3]));
        assert!(c.normalize());
        assert_eq!(c.aff.coeffs(), &[1, 1]);
    }

    #[test]
    fn normalize_detects_integer_infeasible_equality() {
        // 2i = 1 has no integer solution.
        let mut c = Constraint::eq(Aff::from_coeffs(vec![2, -1]));
        assert!(!c.normalize());
    }

    #[test]
    fn eval_and_arith() {
        let a = Aff::from_coeffs(vec![1, 2, 3]); // i + 2j + 3
        assert_eq!(a.eval(&[10, 5]), 23);
        let b = a.scale(2);
        assert_eq!(b.coeffs(), &[2, 4, 6]);
        let c = a.sub(&a);
        assert!(c.is_zero());
    }

    #[test]
    fn insert_remove_cols() {
        let a = Aff::from_coeffs(vec![1, 2, 3]);
        let b = a.insert_cols(1, 2);
        assert_eq!(b.coeffs(), &[1, 0, 0, 2, 3]);
        let c = b.remove_col(1);
        assert_eq!(c.coeffs(), &[1, 0, 2, 3]);
    }

    #[test]
    fn display_round_trips_signs() {
        let ns = names(&["i", "j"]);
        let a = Aff::from_coeffs(vec![1, -2, -3]);
        assert_eq!(a.display_with(&ns), "i - 2j - 3");
    }
}
