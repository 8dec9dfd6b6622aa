//! Backends: lowering Layer IV to the execution substrates.
//!
//! - [`cpu`] — multicore CPU via the `loopvm` loop-nest virtual machine
//!   (the paper's LLVM-through-Halide backend, §V-A),
//! - [`gpu`] — CUDA-style execution via the `gpusim` SIMT device
//!   simulator,
//! - [`dist`] — distributed memory via the `mpisim` message-passing
//!   runtime (the paper's MPI backend).
//!
//! All three compile through the shared pass pipeline
//! ([`crate::pipeline`]); the backend-neutral AST walk and the
//! `EmitTarget` contract live in the crate-private `lowered` module.

pub mod cpu;
pub mod dist;
pub mod gpu;
pub(crate) mod gpu_extract;
pub(crate) mod lowered;
