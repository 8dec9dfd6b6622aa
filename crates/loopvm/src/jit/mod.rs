//! Native JIT tier: compiles [`crate::bytecode::BcProgram`] to executable
//! x86-64 machine code.
//!
//! This is the top rung of the executor ladder (plain-lowering reference →
//! register bytecode → native). The compiler is deliberately small: linear-scan
//! register allocation over the host GPR/XMM files — XMM pairs for the
//! varying `f32` values of vector chunks and for their `i64` values the
//! facts prove fit `i32` — with stack spill slots
//! (`regalloc`), a hand-rolled instruction encoder (`asm`), and
//! straight-line code with loop back-edges chained as direct jumps
//! (`compile`). One forward walk gives every register one fact record
//! (`facts`): constants, intervals, lane shapes, pins. Loads and stores
//! that the loop bounds prove in range carry no guard; every other
//! trapping instruction keeps its guard and deopts to the interpreter's
//! scalar helpers, so observable error semantics are bit-identical to the
//! interpreter's (`runtime`).
//!
//! The tier is x86-64-Linux-only by construction, and needs SSE4.1.
//! Everywhere else this module still compiles but [`supported`] is
//! `false` and [`compile`] returns `None`, and callers (the
//! [`crate::Machine`] dispatch, tests, benches) fall back to the bytecode
//! interpreter; [`listing`] checks no CPU feature. The fallback matrix is
//! documented in DESIGN.md §14. [`compile`] takes strict SSA only — what
//! the optimizer emits and the decoder admits — and returns `None` for
//! anything else (the plain lowering), which likewise falls back.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod asm;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod compile;
// Pure analysis, on every target: the native backend reads all of it,
// the interpreter the work estimate of `Parallel` loops.
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), allow(dead_code))]
mod facts;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod regalloc;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod runtime;

pub(crate) use facts::interval_estimates;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use compile::{compile, listing};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use runtime::JitProgram;

/// Whether the JIT backend exists for the current target and host: x86-64
/// Linux with SSE4.1, which the packed dword code of vector chunks uses.
pub fn supported() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    return std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    false
}

/// What some fast-path code costs, counted by the encoder as it emits it
/// (see [`Footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCost {
    /// Instructions.
    pub insts: usize,
    /// Instructions with an `[rsp+…]` operand: the loop counter, spill
    /// slots and lane-array traffic.
    pub stack_refs: usize,
    /// Instructions with an `[r15+…]` operand, a field of the run's
    /// context: one per read of the buffer table or a pin array, and per
    /// write of a pin.
    pub ctx_refs: usize,
    /// Helper calls.
    pub calls: usize,
}

/// What the JIT emitted for a program: a deterministic proxy for how much
/// of its work stays in registers and runs unguarded, which
/// `figures -- tiers` records per kernel.
///
/// A chunk's fast path runs from the chunk loop's head to its back edge,
/// without the out-of-line per-lane paths and deopt stubs. A *steady*
/// copy of a chunk is compiled on the assumption that none of its leading
/// clamps binds. An innermost loop's fast path runs from its head to its
/// back edge: the integer scaffolding around the chunk and the chunk's
/// general copy, without scalar remainder loops, steady copies and
/// out-of-line paths. Accesses are counted once per access in the
/// bytecode, not per emitted copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The fast paths of the general copies of `Vectorize(8)` chunks.
    pub chunk: ChunkCost,
    /// Chunks with a steady copy.
    pub steady_chunks: usize,
    /// Their steady fast paths, with the loop head and back edge, which
    /// both copies run.
    pub steady: ChunkCost,
    /// One iteration of each innermost loop around chunks, summed.
    pub loops: ChunkCost,
    /// Loads and stores the loop-bound intervals proved in range (those
    /// in dead code included).
    pub proven_by_intervals: usize,
    /// Loads and stores the Omega test proved in range.
    pub proven_by_oracle: usize,
    /// Loads and stores that kept their guard.
    pub kept_guards: usize,
    /// Deopt stubs emitted per [`DeoptReason`], indexed like
    /// [`DeoptReason::ALL`] (fired deopts are the `jit.deopt.*` metrics).
    pub deopt_reasons: [usize; 5],
}

/// Why a deopt stub exists (and, when it fires, why execution left
/// native code). Every trapping instruction's guard is labeled with one
/// of these at compile time; fired deopts are counted per reason in the
/// `jit.deopt.*` metrics and surfaced per kernel in `figures -- tiers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeoptReason {
    /// A `Load` bounds check failed.
    OobLoad,
    /// A `Store` bounds check failed.
    OobStore,
    /// Integer division by zero (or `MIN / -1` overflow).
    DivZero,
    /// Integer remainder by zero (or `MIN % -1` overflow).
    RemZero,
    /// `Neg`/`Abs` of `i64::MIN` under overflow checks.
    MinNeg,
}

impl DeoptReason {
    /// Every reason, in stable display order.
    pub const ALL: [DeoptReason; 5] = [
        DeoptReason::OobLoad,
        DeoptReason::OobStore,
        DeoptReason::DivZero,
        DeoptReason::RemZero,
        DeoptReason::MinNeg,
    ];

    /// Stable snake_case label (metric suffix and snapshot key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeoptReason::OobLoad => "oob_load",
            DeoptReason::OobStore => "oob_store",
            DeoptReason::DivZero => "div_zero",
            DeoptReason::RemZero => "rem_zero",
            DeoptReason::MinNeg => "min_neg",
        }
    }

    /// Index into [`DeoptReason::ALL`]-shaped arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DeoptReason::OobLoad => 0,
            DeoptReason::OobStore => 1,
            DeoptReason::DivZero => 2,
            DeoptReason::RemZero => 3,
            DeoptReason::MinNeg => 4,
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod stub {
    use crate::bytecode::BcProgram;
    use crate::expr::Var;
    use crate::vm::SharedBuf;
    use crate::Result;

    /// Unconstructible placeholder for the native-code handle on targets
    /// without a JIT backend; keeps caller code monomorphic so no call
    /// site needs its own `cfg`.
    pub struct JitProgram {
        never: std::convert::Infallible,
    }

    impl std::fmt::Debug for JitProgram {
        fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self.never {}
        }
    }

    impl JitProgram {
        /// Bytes of generated machine code (unreachable).
        pub fn code_len(&self) -> usize {
            match self.never {}
        }

        /// Native function count (unreachable).
        pub fn n_fns(&self) -> usize {
            match self.never {}
        }

        /// Number of deopt stubs (unreachable).
        pub fn n_deopts(&self) -> usize {
            match self.never {}
        }

        /// What was emitted (unreachable).
        pub fn footprint(&self) -> super::Footprint {
            match self.never {}
        }

        pub(crate) fn fits(&self, _bufs: &[SharedBuf]) -> bool {
            match self.never {}
        }

        pub(crate) fn run(
            &self,
            _bufs: &[SharedBuf],
            _threads: usize,
            _seed: &[(Var, i64)],
        ) -> Result<()> {
            match self.never {}
        }
    }

    /// Always `None`: no JIT backend for this target, callers use the
    /// bytecode interpreter.
    pub fn compile(_bc: &BcProgram) -> Option<JitProgram> {
        None
    }

    /// Always `None`: there is no generated code to list.
    pub fn listing(_bc: &BcProgram) -> Option<String> {
        None
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub use stub::{compile, listing, JitProgram};
