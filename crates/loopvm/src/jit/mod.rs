//! Native JIT tier: compiles [`crate::bytecode::BcProgram`] to executable
//! x86-64 machine code.
//!
//! This is the top rung of the executor ladder (tree-walk → register
//! bytecode → native). The compiler is deliberately small: linear-scan
//! register allocation over the host GPR/XMM files with stack spill slots
//! (`regalloc`), a hand-rolled instruction encoder (`asm`), and
//! straight-line code with loop back-edges chained as direct jumps
//! (`compile`). Trapping instructions keep their guards and deopt to the
//! interpreter's scalar helpers, so observable error semantics are
//! bit-identical to the bytecode and tree-walk tiers (`runtime`).
//!
//! The tier is x86-64-Linux-only by construction. Everywhere else this
//! module still compiles but [`supported`] is `false` and [`compile`]
//! returns `None`, and callers (the [`crate::Machine`] dispatch, tests,
//! benches) fall back to the bytecode interpreter — the fallback matrix is
//! documented in DESIGN.md §14. [`compile`] also returns `None` for
//! programs whose register use the allocator does not model (e.g. reads of
//! registers conditionally defined under an `If`), which likewise fall
//! back per-program.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod asm;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod compile;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod regalloc;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod runtime;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use compile::{compile, listing};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use runtime::JitProgram;

/// Whether the JIT backend exists for the current target.
pub fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
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

        /// Deopt-stub counts per [`super::DeoptReason`] (unreachable).
        pub fn deopt_reasons(&self) -> [usize; 5] {
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
