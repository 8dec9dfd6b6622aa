//! The Tiramisu expression language (the right-hand sides of Layer I
//! computations).
//!
//! Expressions are architecture-independent: they reference *iterators*,
//! *symbolic parameters* and other *computations* (producer–consumer
//! relationships, §IV-C1) — never memory. Data layout enters only in Layer
//! III when access relations map computation coordinates to buffer
//! elements.
//!
//! Index expressions are usually affine ([`Expr::as_affine`]); non-affine
//! indices (e.g. `clamp`ed accesses in the image benchmarks) are supported
//! the way the paper describes (§V-B): they are compiled as-is and
//! dependence analysis over-approximates them.
//!
//! The operators are `loopvm`'s own [`BinOp`] and [`UnOp`]: lowering
//! passes them through unchanged.

use loopvm::{BinOp, UnOp};
use polyhedral::Aff;
use std::hash::{Hash, Hasher};

/// Identifier of a computation (or input) within a
/// [`Function`](crate::Function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// Raw index into the function's computation arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw arena index (for tools iterating over
    /// `Function::comps`, e.g. automatic schedulers).
    pub fn from_raw(i: u32) -> CompId {
        CompId(i)
    }
}

/// An architecture-independent expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `f32` literal.
    F32(f32),
    /// Integer literal.
    I64(i64),
    /// An iterator of the surrounding computation, by name.
    Iter(String),
    /// A symbolic parameter of the function, by name.
    Param(String),
    /// `comp(idx...)`: the value produced by another computation (or
    /// input) at the given coordinates.
    Access(CompId, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `select(cond, a, b)`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Cast an integer expression to `f32`.
    CastF32(Box<Expr>),
    /// Cast to integer (truncating).
    CastI64(Box<Expr>),
}

impl Expr {
    /// Integer literal.
    pub fn i64(v: i64) -> Expr {
        Expr::I64(v)
    }

    /// Float literal.
    pub fn f32(v: f32) -> Expr {
        Expr::F32(v)
    }

    /// Iterator reference.
    pub fn iter(name: &str) -> Expr {
        Expr::Iter(name.to_string())
    }

    /// Parameter reference.
    pub fn param(name: &str) -> Expr {
        Expr::Param(name.to_string())
    }

    /// Minimum.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(a), Box::new(b))
    }

    /// Maximum.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(a), Box::new(b))
    }

    /// `clamp(x, lo, hi)` — the boundary-handling idiom (non-affine).
    pub fn clamp(x: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::min(Expr::max(x, lo), hi)
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(a), Box::new(b))
    }

    /// `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Le, Box::new(a), Box::new(b))
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::EqCmp, Box::new(a), Box::new(b))
    }

    /// Logical and.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }

    /// Logical or.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(a), Box::new(b))
    }

    /// Ternary select.
    pub fn select(c: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Select(Box::new(c), Box::new(a), Box::new(b))
    }

    /// Absolute value.
    pub fn abs(a: Expr) -> Expr {
        Expr::Un(UnOp::Abs, Box::new(a))
    }

    /// Square root.
    pub fn sqrt(a: Expr) -> Expr {
        Expr::Un(UnOp::Sqrt, Box::new(a))
    }

    /// Cast to f32.
    pub fn cast_f32(a: Expr) -> Expr {
        Expr::CastF32(Box::new(a))
    }

    /// Tries to view this expression as an affine function over
    /// `[iters..., params..., 1]` (the given iterator and parameter name
    /// lists). Returns `None` for non-affine expressions (`clamp`,
    /// products of iterators, selects...).
    pub fn as_affine(&self, iters: &[String], params: &[String]) -> Option<Aff> {
        let n = iters.len() + params.len() + 1;
        match self {
            Expr::I64(v) => Some(Aff::constant(n, *v)),
            Expr::Iter(name) => {
                let i = iters.iter().position(|x| x == name)?;
                Some(Aff::var(n, i))
            }
            Expr::Param(name) => {
                let p = params.iter().position(|x| x == name)?;
                Some(Aff::var(n, iters.len() + p))
            }
            Expr::Bin(BinOp::Add, a, b) => {
                Some(a.as_affine(iters, params)?.add(&b.as_affine(iters, params)?))
            }
            Expr::Bin(BinOp::Sub, a, b) => {
                Some(a.as_affine(iters, params)?.sub(&b.as_affine(iters, params)?))
            }
            Expr::Bin(BinOp::Mul, a, b) => {
                let fa = a.as_affine(iters, params);
                let fb = b.as_affine(iters, params);
                match (fa, fb) {
                    (Some(fa), Some(fb)) if fa.is_constant() => Some(fb.scale(fa.const_term())),
                    (Some(fa), Some(fb)) if fb.is_constant() => Some(fa.scale(fb.const_term())),
                    _ => None,
                }
            }
            Expr::Un(UnOp::Neg, a) => Some(a.as_affine(iters, params)?.scale(-1)),
            _ => None,
        }
    }

    /// All computation accesses in this expression (depth-first).
    pub fn accesses(&self) -> Vec<(CompId, &[Expr])> {
        let mut out = Vec::new();
        self.collect_accesses(&mut out);
        out
    }

    fn collect_accesses<'a>(&'a self, out: &mut Vec<(CompId, &'a [Expr])>) {
        match self {
            Expr::Access(id, idx) => {
                out.push((*id, idx.as_slice()));
                for e in idx {
                    e.collect_accesses(out);
                }
            }
            Expr::Bin(_, a, b) => {
                a.collect_accesses(out);
                b.collect_accesses(out);
            }
            Expr::Un(_, a) | Expr::CastF32(a) | Expr::CastI64(a) => a.collect_accesses(out),
            Expr::Select(c, a, b) => {
                c.collect_accesses(out);
                a.collect_accesses(out);
                b.collect_accesses(out);
            }
            _ => {}
        }
    }

    /// Rewrites accesses using `f` (used by `inline`).
    pub fn map_accesses(&self, f: &impl Fn(CompId, &[Expr]) -> Option<Expr>) -> Expr {
        match self {
            Expr::Access(id, idx) => {
                let idx: Vec<Expr> = idx.iter().map(|e| e.map_accesses(f)).collect();
                match f(*id, &idx) {
                    Some(e) => e,
                    None => Expr::Access(*id, idx),
                }
            }
            Expr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(a.map_accesses(f)), Box::new(b.map_accesses(f)))
            }
            Expr::Un(op, a) => Expr::Un(*op, Box::new(a.map_accesses(f))),
            Expr::Select(c, a, b) => Expr::Select(
                Box::new(c.map_accesses(f)),
                Box::new(a.map_accesses(f)),
                Box::new(b.map_accesses(f)),
            ),
            Expr::CastF32(a) => Expr::CastF32(Box::new(a.map_accesses(f))),
            Expr::CastI64(a) => Expr::CastI64(Box::new(a.map_accesses(f))),
            other => other.clone(),
        }
    }

    /// Substitutes iterator names using the mapping (used by `inline` and
    /// `compute_at` rewrites).
    pub fn substitute_iters(&self, map: &dyn Fn(&str) -> Option<Expr>) -> Expr {
        match self {
            Expr::Iter(name) => map(name).unwrap_or_else(|| self.clone()),
            Expr::Access(id, idx) => Expr::Access(
                *id,
                idx.iter().map(|e| e.substitute_iters(map)).collect(),
            ),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.substitute_iters(map)),
                Box::new(b.substitute_iters(map)),
            ),
            Expr::Un(op, a) => Expr::Un(*op, Box::new(a.substitute_iters(map))),
            Expr::Select(c, a, b) => Expr::Select(
                Box::new(c.substitute_iters(map)),
                Box::new(a.substitute_iters(map)),
                Box::new(b.substitute_iters(map)),
            ),
            Expr::CastF32(a) => Expr::CastF32(Box::new(a.substitute_iters(map))),
            Expr::CastI64(a) => Expr::CastI64(Box::new(a.substitute_iters(map))),
            other => other.clone(),
        }
    }
}

macro_rules! impl_expr_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs))
            }
        }
    };
}

impl_expr_op!(Add, add, BinOp::Add);
impl_expr_op!(Sub, sub, BinOp::Sub);
impl_expr_op!(Mul, mul, BinOp::Mul);
impl_expr_op!(Div, div, BinOp::Div);
impl_expr_op!(Rem, rem, BinOp::Rem);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::I64(v)
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Expr {
        Expr::F32(v)
    }
}

/// Hashes the tree structurally, for [`crate::Function::fingerprint`].
/// Each variant writes its own tag first, so the encoding is
/// prefix-free. `F32` hashes its bits: `0.0` and `-0.0` (equal under
/// `==`) and NaNs with different payloads hash apart, as they may
/// compute different values.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            Expr::F32(v) => {
                h.write_u8(0);
                h.write_u32(v.to_bits());
            }
            Expr::I64(v) => {
                h.write_u8(1);
                h.write_i64(*v);
            }
            Expr::Iter(name) => {
                h.write_u8(2);
                name.hash(h);
            }
            Expr::Param(name) => {
                h.write_u8(3);
                name.hash(h);
            }
            Expr::Access(comp, idx) => {
                h.write_u8(4);
                comp.hash(h);
                idx.hash(h);
            }
            Expr::Bin(op, a, b) => {
                h.write_u8(5);
                op.hash(h);
                a.hash(h);
                b.hash(h);
            }
            Expr::Un(op, a) => {
                h.write_u8(6);
                op.hash(h);
                a.hash(h);
            }
            Expr::Select(c, a, b) => {
                h.write_u8(7);
                c.hash(h);
                a.hash(h);
                b.hash(h);
            }
            Expr::CastF32(a) => {
                h.write_u8(8);
                a.hash(h);
            }
            Expr::CastI64(a) => {
                h.write_u8(9);
                a.hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn affine_extraction() {
        let iters = names(&["i", "j"]);
        let params = names(&["N"]);
        // 2*i + j - N + 3
        let e = Expr::i64(2) * Expr::iter("i") + Expr::iter("j") - Expr::param("N")
            + Expr::i64(3);
        let a = e.as_affine(&iters, &params).unwrap();
        assert_eq!(a.coeffs(), &[2, 1, -1, 3]);
    }

    #[test]
    fn non_affine_is_none() {
        let iters = names(&["i", "j"]);
        let e = Expr::iter("i") * Expr::iter("j");
        assert!(e.as_affine(&iters, &[]).is_none());
        let c = Expr::clamp(Expr::iter("i"), Expr::i64(0), Expr::i64(9));
        assert!(c.as_affine(&iters, &[]).is_none());
    }

    #[test]
    fn accesses_collected() {
        let id = CompId(3);
        let e = Expr::Access(id, vec![Expr::iter("i")]) + Expr::f32(1.0);
        let acc = e.accesses();
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].0, id);
    }

    #[test]
    fn substitute_iters_rewrites() {
        let e = Expr::iter("i") + Expr::iter("j");
        let out = e.substitute_iters(&|n| {
            (n == "i").then(|| Expr::iter("x") + Expr::i64(1))
        });
        assert_eq!(
            out,
            Expr::iter("x") + Expr::i64(1) + Expr::iter("j")
        );
    }

    #[test]
    fn map_accesses_inlines() {
        let id = CompId(0);
        let e = Expr::Access(id, vec![Expr::iter("i")]) * Expr::f32(2.0);
        let out = e.map_accesses(&|_, idx| Some(Expr::f32(7.0) + idx[0].clone()));
        assert_eq!(out, (Expr::f32(7.0) + Expr::iter("i")) * Expr::f32(2.0));
    }
}
