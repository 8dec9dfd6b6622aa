//! Compile tracing: per-pass wall time, statement/node counts, and
//! pretty-printed IR snapshots.
//!
//! Tracing is opt-in, per compile, through the `trace` flag on
//! [`CpuOptions`](crate::CpuOptions) / [`GpuOptions`](crate::GpuOptions) /
//! [`DistOptions`](crate::DistOptions). When tracing is off the pipeline
//! allocates nothing for it: no [`CompileTrace`] is created, no snapshot
//! is rendered, and no vector grows (asserted by `tests/compile_trace.rs`
//! through the [`snapshot_renders`] counter).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Global count of trace records ever materialized (snapshot renders /
/// `Vec` pushes). Only moves while tracing is enabled.
static SNAPSHOT_RENDERS: AtomicU64 = AtomicU64::new(0);

#[doc(hidden)]
/// Test hook: the number of trace records materialized process-wide.
/// Compiling with tracing disabled must leave this unchanged.
pub fn snapshot_renders() -> u64 {
    SNAPSHOT_RENDERS.load(Ordering::Relaxed)
}

/// One pipeline pass as observed by the trace.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Pass name (`lower`, `legality`, `astgen`, `tag-resolve`, `emit`,
    /// `optimize`).
    pub name: &'static str,
    /// Wall-clock time spent in the pass.
    pub wall: Duration,
    /// Lowered statement count after the pass.
    pub stmts: usize,
    /// IR node count after the pass (schedule constraints, dependences,
    /// AST nodes, tree nodes, or generated VM statements — whichever IR
    /// the pass produces).
    pub nodes: usize,
    /// Pretty-printed IR snapshot taken after the pass.
    pub ir: String,
}

/// A structured record of one compilation through the pass pipeline,
/// retrievable from every compiled module via `compile_trace()`.
#[derive(Debug, Clone)]
pub struct CompileTrace {
    /// The emit target the function was compiled for.
    pub target: &'static str,
    /// The compiled function's name.
    pub function: String,
    /// Per-pass records, in execution order.
    pub passes: Vec<PassTrace>,
}

impl CompileTrace {
    pub(crate) fn new(target: &'static str, function: &str) -> CompileTrace {
        CompileTrace { target, function: function.to_string(), passes: Vec::new() }
    }

    pub(crate) fn record(
        &mut self,
        name: &'static str,
        wall: Duration,
        stmts: usize,
        nodes: usize,
        ir: String,
    ) {
        SNAPSHOT_RENDERS.fetch_add(1, Ordering::Relaxed);
        self.passes.push(PassTrace { name, wall, stmts, nodes, ir });
    }

    /// Pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name).collect()
    }

    /// Total wall-clock time across all passes.
    pub fn total_wall(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }

    /// Renders the structured compile report: a timing table followed by
    /// the per-pass IR snapshots.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== compile trace: {} -> {} ==\n",
            self.function, self.target
        ));
        out.push_str(&format!(
            "{:<12} {:>12} {:>7} {:>7}\n",
            "pass", "time", "stmts", "nodes"
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "{:<12} {:>12} {:>7} {:>7}\n",
                p.name,
                format!("{:.1?}", p.wall),
                p.stmts,
                p.nodes
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12}\n",
            "total",
            format!("{:.1?}", self.total_wall())
        ));
        for p in &self.passes {
            out.push_str(&format!("\n-- IR after {} --\n", p.name));
            out.push_str(&p.ir);
            if !p.ir.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}
