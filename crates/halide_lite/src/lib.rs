#![warn(missing_docs)]

//! `halide_lite` — an interval-based image-pipeline compiler: the Halide
//! stand-in of the Tiramisu reproduction.
//!
//! The paper's comparisons against Halide (§II, Table I, Fig. 6) rest on
//! structural properties of interval-based compilation, all of which this
//! baseline faithfully reproduces:
//!
//! - **bounds inference by interval arithmetic** ([`bounds`]): each
//!   producer's computed region is the rectangular interval hull of its
//!   consumers' accesses. Non-rectangular iteration spaces (the paper's
//!   `ticket #2373`) are over-approximated, and when the inferred region
//!   escapes a declared input the pipeline fails with a bounds assertion —
//!   exactly Halide's observed failure;
//! - **acyclic function graphs only**: a pipeline whose functions form a
//!   cycle (the paper's `edgeDetector`) is rejected at construction;
//! - **no fusion across functions updating one buffer**: every function
//!   owns its buffer and is computed either at root or inside a consumer
//!   (`compute_at`); there is no cross-function loop fusion, so the `nb`
//!   benchmark runs as separate passes (the 3.77× gap of Fig. 6);
//! - **conservative distributed bounds** ([`dist`]): the distributed
//!   lowering over-approximates halo regions for clamped accesses and
//!   packs messages through a staging buffer, reproducing distributed
//!   Halide's extra communication volume (Fig. 6 bottom, Fig. 7).
//!
//! Pipelines lower to the same `loopvm` substrate as every other compiler
//! in this reproduction, so measured differences come from the generated
//! loop structure, not the execution engine.

pub mod bounds;
pub mod dist;
pub mod lower;
pub mod pipeline;

pub use bounds::{infer_bounds, Interval};
pub use dist::{compile_dist, DistCompileOptions};
pub use lower::{compile, CompiledPipeline};
pub use pipeline::{Func, FuncId, HExpr, InputId, Pipeline, Placement};

/// Errors of the interval-based compiler.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The function graph has a cycle (inexpressible in Halide; §II).
    CyclicGraph(String),
    /// Bounds inference required data outside a declared input region —
    /// the runtime assertion Halide raises on `ticket #2373`.
    BoundsAssertion {
        /// The input whose bounds were exceeded.
        input: String,
        /// Inferred required interval (per dimension).
        required: Vec<(i64, i64)>,
        /// Declared extents.
        declared: Vec<i64>,
    },
    /// Unknown function/variable names or malformed schedules.
    Schedule(String),
    /// VM-level failure.
    Backend(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::CyclicGraph(s) => write!(f, "cyclic function graph: {s}"),
            Error::BoundsAssertion { input, required, declared } => write!(
                f,
                "bounds assertion: input {input} requires {required:?} but declares {declared:?}"
            ),
            Error::Schedule(s) => write!(f, "schedule error: {s}"),
            Error::Backend(s) => write!(f, "backend error: {s}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
