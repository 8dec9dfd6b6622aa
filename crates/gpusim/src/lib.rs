#![warn(missing_docs)]

//! `gpusim` — a SIMT GPU device simulator: the CUDA substitute of the
//! Tiramisu reproduction.
//!
//! The paper's GPU results are explained by a handful of architectural
//! effects: **memory coalescing** (SOA layouts via `store_in`), **shared /
//! constant memory** (`cache_shared_at`, `tag_gpu_constant`), **thread
//! divergence** (PENCIL's complicated control flow), and host↔device copy
//! time. This simulator executes kernels functionally *and* prices exactly
//! those effects:
//!
//! - kernels run warp-by-warp in lockstep over 32 lanes with active masks;
//!   divergent branches execute both paths (and are counted),
//! - global memory accesses are grouped into 128-byte segments per warp —
//!   coalesced access costs one transaction, strided access up to 32,
//! - shared memory models bank conflicts (32 banks of 4 bytes),
//! - constant memory broadcasts uniform reads,
//! - blocks are scheduled round-robin over the modeled SMs; device time is
//!   the maximum per-SM cycle count; host↔device copies pay latency +
//!   bytes/bandwidth.
//!
//! Kernels reuse the `loopvm` program representation (statements,
//! expressions, bytecode): a [`Kernel`] is a sequence of barrier-delimited
//! phases, each a `loopvm` [`Program`] that owns its compiled bytecode;
//! block/thread index variables are designated in the kernel, and each
//! buffer carries a [`MemSpace`]. [`launch`] executes the phases' bytecode
//! warp by warp; [`launch_tree_walk`] is the stack-evaluator reference the
//! differential tests compare it against.

pub mod exec;

pub use exec::{launch, launch_tree_walk, LaunchStats};

use loopvm::{Program, Stmt, Var};

/// GPU memory spaces for kernel buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemSpace {
    /// Device global memory (coalescing-sensitive).
    #[default]
    Global,
    /// Per-block shared memory (bank-conflict-sensitive, reset per block).
    Shared,
    /// Read-only constant memory (broadcast when uniform).
    Constant,
    /// Per-thread local memory.
    Local,
}

/// The modeled device (defaults loosely shaped after the paper's Tesla
/// K40: 15 SMs, 32-wide warps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Cycles per warp ALU instruction.
    pub alu: f64,
    /// Cycles per 128-byte global memory segment transaction.
    pub global_segment: f64,
    /// Cycles per shared-memory access (multiplied by the conflict
    /// degree).
    pub shared_access: f64,
    /// Cycles for a broadcast constant-memory access.
    pub constant_broadcast: f64,
    /// Cycles per distinct constant address when a warp's read diverges.
    pub constant_serial: f64,
    /// Cycles per local-memory access.
    pub local_access: f64,
    /// Host↔device copy latency in cycles.
    pub copy_latency: f64,
    /// Host↔device copy cycles per byte.
    pub copy_per_byte: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            sms: 15,
            alu: 1.0,
            global_segment: 32.0,
            shared_access: 2.0,
            constant_broadcast: 1.0,
            constant_serial: 8.0,
            local_access: 2.0,
            copy_latency: 10_000.0,
            copy_per_byte: 0.05,
        }
    }
}

/// A kernel: barrier-delimited phases executed per thread, plus the
/// launch geometry and buffer space tags.
///
/// Each phase is a [`Program`] of its own — the kernel's declarations with
/// that phase's statements as body — and so owns its compiled form
/// ([`Program::compiled`]), which [`launch`] executes. Every warp of a
/// block finishes phase `k` before any starts phase `k + 1`
/// (`__syncthreads` — used by `cache_shared_at`'s cooperative copy);
/// variable frames persist across phases. The phases are sealed behind
/// [`Kernel::phases`] so that code cannot go stale.
#[derive(Debug, Clone)]
pub struct Kernel {
    phases: Vec<Program>,
    /// Grid dimensions (blocks in x, y).
    pub grid: [i64; 2],
    /// Block dimensions (threads in x, y).
    pub block: [i64; 2],
    /// Variables receiving the block indices.
    pub block_vars: [Option<Var>; 2],
    /// Variables receiving the thread indices.
    pub thread_vars: [Option<Var>; 2],
    /// Memory space per program buffer (parallel to buffer declaration
    /// order; missing entries default to global).
    pub spaces: Vec<MemSpace>,
}

impl Kernel {
    /// Creates a barrier-free kernel: `program` is its one phase.
    pub fn new(program: Program, grid: [i64; 2], block: [i64; 2]) -> Kernel {
        let n = program.n_buffers();
        Kernel {
            phases: vec![program],
            grid,
            block,
            block_vars: [None, None],
            thread_vars: [None, None],
            spaces: vec![MemSpace::Global; n],
        }
    }

    /// Creates a kernel with a block-level barrier between consecutive
    /// `phases`. `decls` declares the buffers and variables (its own body
    /// is not executed). A phase without statements has nothing to
    /// synchronize and is dropped; a kernel without statements keeps one
    /// empty phase.
    pub fn phased(
        decls: Program,
        phases: Vec<Vec<Stmt>>,
        grid: [i64; 2],
        block: [i64; 2],
    ) -> Kernel {
        let phase = |stmts: Vec<Stmt>| {
            let mut p = decls.clone();
            p.set_body(stmts);
            p
        };
        let mut rest = phases.into_iter().filter(|stmts| !stmts.is_empty()).map(phase);
        let first = rest.next().unwrap_or_else(|| phase(Vec::new()));
        let mut kernel = Kernel::new(first, grid, block);
        kernel.phases.extend(rest);
        kernel
    }

    /// The phases in execution order (at least one). All share the same
    /// buffer and variable declarations.
    pub fn phases(&self) -> &[Program] {
        &self.phases
    }

    /// The buffer and variable declarations every phase shares (the first
    /// phase's program; its body is that phase's statements only).
    pub fn program(&self) -> &Program {
        &self.phases[0]
    }

    /// Pretty-prints the statements of every phase in order as pseudo-C.
    pub fn pretty(&self) -> String {
        self.phases.iter().map(Program::pretty).collect()
    }

    /// Total threads per block.
    pub fn threads_per_block(&self) -> usize {
        (self.block[0] * self.block[1]) as usize
    }

    /// Total blocks.
    pub fn n_blocks(&self) -> usize {
        (self.grid[0] * self.grid[1]) as usize
    }
}
