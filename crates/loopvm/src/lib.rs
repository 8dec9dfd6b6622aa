#![warn(missing_docs)]

//! `loopvm` — a loop-nest virtual machine: the execution substrate standing
//! in for LLVM/Halide CPU code generation in the Tiramisu reproduction.
//!
//! Every compiler in the evaluation (the Tiramisu port, the interval-based
//! Halide stand-in, the Pluto-like auto-scheduler and the hand-tuned
//! "vendor" kernels) lowers to the same [`Program`] representation: nested
//! loops over flat `f32` buffers, executed as register bytecode. Because
//! all systems share the substrate, *relative* performance between
//! schedules — the quantity the paper's figures report — is produced by
//! the schedules themselves:
//!
//! - `parallel` loops run on real OS threads (work split across cores),
//! - `vectorize` loops evaluate bytecode over lanes of 8, amortizing
//!   dispatch the way SIMD amortizes scalar issue,
//! - fusion and tiling change the actual memory access order seen by the
//!   host CPU's caches,
//! - guards, `min`/`max` bounds and redundant computation cost real work.
//!
//! # Example
//!
//! ```
//! use loopvm::{Program, Expr, LoopKind, Stmt, Machine};
//!
//! // out[i] = in[i] * 2 for i in 0..16
//! let mut p = Program::new();
//! let input = p.buffer("in", 16);
//! let out = p.buffer("out", 16);
//! let i = p.var("i");
//! p.push(Stmt::for_(
//!     i,
//!     Expr::i64(0),
//!     Expr::i64(16),
//!     LoopKind::Serial,
//!     vec![Stmt::store(
//!         out,
//!         Expr::var(i),
//!         Expr::load(input, Expr::var(i)) * Expr::f32(2.0),
//!     )],
//! ));
//! let mut m = Machine::new(&p);
//! m.buffer_mut(input).iter_mut().enumerate().for_each(|(k, v)| *v = k as f32);
//! m.run(&p).unwrap();
//! assert_eq!(m.buffer(out)[3], 6.0);
//! ```

mod bytecode;
pub mod codec;
pub mod cost;
mod expr;
pub mod jit;
pub mod opt;
mod par;
mod program;
pub mod simt;
pub mod vm;

pub use bytecode::{BcProgram, InstClassCounts, OptStats};
pub use cost::CostModel;
pub use expr::{BinOp, Expr, Ty, UnOp, Var};
pub use program::{BufId, Compiled, LoopKind, Program, Stmt};
pub use simt::{exec_warp, WarpHost};
pub use vm::{eval_scalar, ExecMode, Machine, RunStats};

/// Errors produced when compiling or executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An expression mixes integer and float operands illegally.
    Type(String),
    /// A buffer access was out of bounds (buffer, index, size).
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Offending flat index.
        index: i64,
        /// Buffer size in elements.
        size: usize,
    },
    /// Malformed program structure (e.g. an undeclared variable).
    Structure(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Type(s) => write!(f, "type error: {s}"),
            Error::OutOfBounds { buffer, index, size } => {
                write!(f, "out of bounds: {buffer}[{index}] (size {size})")
            }
            Error::Structure(s) => write!(f, "malformed program: {s}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
