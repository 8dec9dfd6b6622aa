#![warn(missing_docs)]

//! `tiramisu` — a Rust reproduction of "Tiramisu: A Polyhedral Compiler
//! for Expressing Fast and Portable Code" (CGO 2019).
//!
//! The crate implements the paper's contribution: a polyhedral compiler
//! with a scheduling language and a four-layer IR.
//!
//! - **Layer I (abstract algorithm)** — [`Function`], [`Computation`],
//!   [`expr::Expr`]: iteration domains + expressions, pure
//!   producer–consumer semantics, no memory, no order.
//! - **Layer II (computation management)** — the scheduling commands in
//!   [`schedule`] transform each computation's affine schedule and static
//!   ordering vector; hardware tags ([`Tag`]) mark dimensions as
//!   `cpu`/`vec`/`unroll`/`node`/`gpuB`/`gpuT`.
//! - **Layer III (data management)** — [`Function::buffer`],
//!   [`Function::store_in`], [`MemSpace`] buffer tags: affine access
//!   relations from computations to buffer elements.
//! - **Layer IV (communication management)** — [`layer4`]: `send`,
//!   `receive`, `barrier`, host/device copies, scheduled like any other
//!   computation.
//!
//! Legality of every transformation can be verified with exact polyhedral
//! dependence analysis ([`legality`]). Backends lower Layer IV to the
//! execution substrates: multicore CPU (`backend::cpu` → `loopvm`), GPU
//! (`backend::gpu` → `gpusim`) and distributed (`backend::dist` →
//! `mpisim`).
//!
//! # Example: the paper's blur (Figure 2)
//!
//! ```
//! use tiramisu::{Function, Expr};
//!
//! let mut f = Function::new("blur", &["N", "M"]);
//! let i = f.var("i", 0, Expr::param("N") - Expr::i64(2));
//! let j = f.var("j", 0, Expr::param("M") - Expr::i64(2));
//! let c = f.var("c", 0, 3);
//! let input = f.input("in", &[i.clone(), j.clone(), c.clone()]).unwrap();
//! let at = |dj: i64| {
//!     Expr::Access(input, vec![Expr::iter("i"), Expr::iter("j") + Expr::i64(dj), Expr::iter("c")])
//! };
//! let bx = f.computation("bx", &[i.clone(), j.clone(), c.clone()],
//!     (at(0) + at(1) + at(2)) / Expr::f32(3.0)).unwrap();
//! // Schedule: tile and parallelize, as in Figure 3(a).
//! f.tile(bx, "i", "j", 32, 32, ("i0", "j0", "i1", "j1")).unwrap();
//! f.parallelize(bx, "i0").unwrap();
//! ```

pub mod backend;
pub mod expr;
pub mod function;
pub mod layer4;
pub mod legality;
pub mod lowering;
pub mod pipeline;
pub mod schedule;
pub mod service;

pub use expr::{CompId, Expr};
pub use loopvm::{BinOp, UnOp};
pub use function::{
    BufId, Buffer, CompKind, Computation, Error, Function, MemSpace, Result, Tag, Var,
};
pub use backend::cpu::{compile as compile_cpu, CpuModule, CpuOptions};
pub use backend::dist::{compile as compile_dist, DistModule, DistOptions};
pub use backend::gpu::{compile as compile_gpu, GpuModule, GpuOptions, GpuRun};
pub use pipeline::{CompileTrace, PassTrace};
pub use schedule::At;
pub use service::{CompileService, ServiceConfig, ServiceStats};
