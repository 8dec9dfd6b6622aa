//! Expression trees for the loop VM.
//!
//! Expressions are typed (`i64` index arithmetic, `f32` data arithmetic)
//! and support the operators the Tiramisu expression language needs:
//! arithmetic, min/max, comparisons, select (used to lower non-affine
//! conditionals and `clamp`ed accesses, paper §V-B), casts, and a few
//! transcendental intrinsics.

use crate::program::BufId;
use crate::{Error, Result};
use std::ops;

/// A scalar variable slot (loop iterator or `let`-bound value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The two value types of the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer (loop iterators, indices, predicates).
    I64,
    /// 32-bit float (all buffer data).
    F32,
}

/// Binary operators. Arithmetic operators work on both types (both
/// operands must agree); comparisons yield `I64` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (floor division for `I64`).
    Div,
    /// Remainder (Euclidean for `I64`).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// `<` comparison (yields `I64`).
    Lt,
    /// `<=` comparison (yields `I64`).
    Le,
    /// `==` comparison (yields `I64`).
    EqCmp,
    /// Logical and of two `I64` predicates.
    And,
    /// Logical or of two `I64` predicates.
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root (`F32` only).
    Sqrt,
    /// Natural exponential (`F32` only).
    Exp,
    /// Logical not of an `I64` predicate.
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `f32` literal.
    ConstF(f32),
    /// `i64` literal.
    ConstI(i64),
    /// A scalar variable (always `I64`: loop iterators and indices).
    Var(Var),
    /// `buffer[index]` (yields `F32`; `index` must be `I64`).
    Load(BufId, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `select(cond, a, b)` — `cond` is `I64`, `a`/`b` agree in type.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Cast between the two types.
    Cast(Ty, Box<Expr>),
}

impl Expr {
    /// `f32` literal.
    pub fn f32(v: f32) -> Expr {
        Expr::ConstF(v)
    }

    /// `i64` literal.
    pub fn i64(v: i64) -> Expr {
        Expr::ConstI(v)
    }

    /// Variable reference.
    pub fn var(v: Var) -> Expr {
        Expr::Var(v)
    }

    /// Buffer load.
    pub fn load(buf: BufId, index: Expr) -> Expr {
        Expr::Load(buf, Box::new(index))
    }

    /// Minimum of two expressions.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(a), Box::new(b))
    }

    /// Maximum of two expressions.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(a), Box::new(b))
    }

    /// `clamp(x, lo, hi)` = `min(max(x, lo), hi)` — the boundary-handling
    /// idiom of the image benchmarks.
    pub fn clamp(x: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::min(Expr::max(x, lo), hi)
    }

    /// `a < b` (yields `I64` 0/1).
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(a), Box::new(b))
    }

    /// `a <= b` (yields `I64` 0/1).
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Le, Box::new(a), Box::new(b))
    }

    /// `a == b` (yields `I64` 0/1).
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::EqCmp, Box::new(a), Box::new(b))
    }

    /// Logical conjunction of predicates.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }

    /// Logical disjunction of predicates.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(a), Box::new(b))
    }

    /// Ternary select.
    pub fn select(cond: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Select(Box::new(cond), Box::new(a), Box::new(b))
    }

    /// Absolute value.
    pub fn abs(a: Expr) -> Expr {
        Expr::Un(UnOp::Abs, Box::new(a))
    }

    /// Square root.
    pub fn sqrt(a: Expr) -> Expr {
        Expr::Un(UnOp::Sqrt, Box::new(a))
    }

    /// Cast to `f32`.
    pub fn to_f32(a: Expr) -> Expr {
        Expr::Cast(Ty::F32, Box::new(a))
    }

    /// Cast to `i64`.
    pub fn to_i64(a: Expr) -> Expr {
        Expr::Cast(Ty::I64, Box::new(a))
    }

    /// Infers the type of the expression.
    ///
    /// # Errors
    ///
    /// [`Error::Type`] on operand mismatches or ill-typed operators.
    pub fn ty(&self) -> Result<Ty> {
        match self {
            Expr::ConstF(_) => Ok(Ty::F32),
            Expr::ConstI(_) | Expr::Var(_) => Ok(Ty::I64),
            Expr::Load(_, idx) => {
                if idx.ty()? != Ty::I64 {
                    return Err(Error::Type("load index must be i64".into()));
                }
                Ok(Ty::F32)
            }
            Expr::Bin(op, a, b) => {
                let (ta, tb) = (a.ty()?, b.ty()?);
                if ta != tb {
                    return Err(Error::Type(format!("operands of {op:?} disagree")));
                }
                match op {
                    BinOp::Lt | BinOp::Le | BinOp::EqCmp => Ok(Ty::I64),
                    BinOp::And | BinOp::Or => {
                        if ta != Ty::I64 {
                            return Err(Error::Type("logical ops need i64".into()));
                        }
                        Ok(Ty::I64)
                    }
                    _ => Ok(ta),
                }
            }
            Expr::Un(op, a) => {
                let t = a.ty()?;
                match op {
                    UnOp::Sqrt | UnOp::Exp => {
                        if t != Ty::F32 {
                            return Err(Error::Type(format!("{op:?} needs f32")));
                        }
                        Ok(Ty::F32)
                    }
                    UnOp::Not => {
                        if t != Ty::I64 {
                            return Err(Error::Type("not needs i64".into()));
                        }
                        Ok(Ty::I64)
                    }
                    UnOp::Neg | UnOp::Abs => Ok(t),
                }
            }
            Expr::Select(c, a, b) => {
                if c.ty()? != Ty::I64 {
                    return Err(Error::Type("select condition must be i64".into()));
                }
                let (ta, tb) = (a.ty()?, b.ty()?);
                if ta != tb {
                    return Err(Error::Type("select arms disagree".into()));
                }
                Ok(ta)
            }
            Expr::Cast(t, a) => {
                a.ty()?;
                Ok(*t)
            }
        }
    }

    /// Collects every buffer read by this expression.
    pub fn loads(&self, out: &mut Vec<BufId>) {
        match self {
            Expr::Load(b, idx) => {
                out.push(*b);
                idx.loads(out);
            }
            Expr::Bin(_, a, b) => {
                a.loads(out);
                b.loads(out);
            }
            Expr::Un(_, a) => a.loads(out),
            Expr::Select(c, a, b) => {
                c.loads(out);
                a.loads(out);
                b.loads(out);
            }
            Expr::Cast(_, a) => a.loads(out),
            _ => {}
        }
    }
}

macro_rules! impl_bin_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs))
            }
        }
    };
}

impl_bin_op!(Add, add, BinOp::Add);
impl_bin_op!(Sub, sub, BinOp::Sub);
impl_bin_op!(Mul, mul, BinOp::Mul);
impl_bin_op!(Div, div, BinOp::Div);
impl_bin_op!(Rem, rem, BinOp::Rem);

impl ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_inference() {
        let e = Expr::f32(1.0) + Expr::f32(2.0);
        assert_eq!(e.ty().unwrap(), Ty::F32);
        let e = Expr::i64(1) * Expr::var(Var(0));
        assert_eq!(e.ty().unwrap(), Ty::I64);
        let bad = Expr::f32(1.0) + Expr::i64(2);
        assert!(bad.ty().is_err());
    }

    #[test]
    fn comparisons_yield_i64() {
        let e = Expr::lt(Expr::f32(1.0), Expr::f32(2.0));
        assert_eq!(e.ty().unwrap(), Ty::I64);
        let s = Expr::select(e, Expr::f32(1.0), Expr::f32(0.0));
        assert_eq!(s.ty().unwrap(), Ty::F32);
    }

    #[test]
    fn select_arms_must_agree() {
        let s = Expr::select(Expr::i64(1), Expr::f32(1.0), Expr::i64(0));
        assert!(s.ty().is_err());
    }

    #[test]
    fn clamp_builds_min_max() {
        let c = Expr::clamp(Expr::var(Var(0)), Expr::i64(0), Expr::i64(9));
        assert_eq!(c.ty().unwrap(), Ty::I64);
    }

    #[test]
    fn loads_collected() {
        let b0 = BufId(0);
        let b1 = BufId(1);
        let e = Expr::load(b0, Expr::var(Var(0))) + Expr::load(b1, Expr::i64(3));
        let mut v = Vec::new();
        e.loads(&mut v);
        assert_eq!(v, vec![b0, b1]);
    }

    #[test]
    fn sqrt_needs_f32() {
        assert!(Expr::sqrt(Expr::i64(4)).ty().is_err());
        assert!(Expr::sqrt(Expr::f32(4.0)).ty().is_ok());
        // A cast's operand is checked too.
        assert!(Expr::to_i64(Expr::sqrt(Expr::i64(4))).ty().is_err());
    }
}
