#![warn(missing_docs)]

//! A self-contained polyhedral library: the ISL substitute used by the
//! `tiramisu` compiler crate.
//!
//! This crate implements the two mathematical objects the Tiramisu paper
//! builds on (§IV-B): **integer sets** (iteration domains) and **maps**
//! (schedules and access relations), together with the operations the
//! four-layer IR needs:
//!
//! - set algebra: intersection, union, subtraction, projection
//!   (Fourier–Motzkin with exactness tracking), emptiness (exact, via the
//!   Omega test — [`solve`]),
//! - map algebra: application, composition, inversion, domain/range,
//! - lexicographic-order relations (used to order computations in Layer II
//!   and to check transformation legality),
//! - dependence tests under a schedule ([`deps`]: is every pair still
//!   ordered, does a loop carry one),
//! - Cloog-style AST generation ([`astgen`]): scanning a union of scheduled
//!   domains with nested loops, once and only once, in lexicographic order.
//!
//! # Example
//!
//! ```
//! use polyhedral::{Space, Set};
//!
//! // { S[i, j] : 0 <= i < N and 0 <= j <= i }
//! let space = Space::set("S", &["i", "j"], &["N"]);
//! let tri = Set::from_constraint_strs(&space, &[
//!     "i >= 0", "N - 1 - i >= 0", "j >= 0", "i - j >= 0",
//! ]).unwrap();
//! assert!(!tri.is_empty());
//! ```

pub mod aff;
pub mod astgen;
pub mod deps;
pub mod fm;
pub mod map;
pub mod set;
pub mod solve;
pub mod space;

pub use aff::{Aff, Constraint, ConstraintKind};
pub use astgen::{build_ast, interpret, AstBuild, AstExpr, AstNode, QAff, ScheduledStmt};
pub use deps::is_respected;
pub use map::{BasicMap, Map};
pub use set::{BasicSet, Set};
pub use space::{MapSpace, Space};

/// Errors produced by polyhedral operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two objects live in incompatible spaces (different dimensionality or
    /// parameter lists).
    SpaceMismatch(String),
    /// A textual constraint failed to parse.
    Parse(String),
    /// A named dimension was not found in the space.
    UnknownDim(String),
    /// The operation would require an exactness this library cannot provide
    /// (e.g. a non-invertible schedule or an unbounded loop dimension).
    Inexact(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::SpaceMismatch(s) => write!(f, "space mismatch: {s}"),
            Error::Parse(s) => write!(f, "parse error: {s}"),
            Error::UnknownDim(s) => write!(f, "unknown dimension: {s}"),
            Error::Inexact(s) => write!(f, "operation would be inexact: {s}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
