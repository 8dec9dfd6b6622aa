//! The unified pass-based lowering pipeline.
//!
//! Every backend compiles through the same six passes:
//!
//! 1. **lower** — interleave Layer II schedules into the shared `2d+1`
//!    time space and specialize parameters
//!    ([`crate::lowering::lower`]);
//! 2. **legality** — verify the schedule against the flow dependences
//!    (when enabled) and run target-specific validation (the distributed
//!    target checks Layer IV communication structure here);
//! 3. **astgen** — generate the Cloog-style loop AST
//!    ([`polyhedral::build_ast`]);
//! 4. **tag-resolve** — annotate every loop with its conflict-checked
//!    hardware tag through the single [`crate::lowering::Lowered::tag_of_node`]
//!    path, producing the backend-neutral [`LoopNode`] tree;
//! 5. **emit** — bind buffers, declare variables, and hand the tree to
//!    the backend's [`EmitTarget`] implementation;
//! 6. **optimize** — lower the emitted VM program's expression trees to
//!    register bytecode (constant folding, CSE, loop-invariant hoisting;
//!    see [`loopvm::opt`]) via [`EmitTarget::optimize`].
//!
//! [`compile_with`] drives the pipeline; the CPU, GPU, and distributed
//! backends are thin [`EmitTarget`] impls over it, and a fourth backend
//! would be one more. A [`CompileTrace`] (opt-in, see [`trace`]) records
//! per-pass wall time, statement/node counts, and IR snapshots.

pub mod trace;

pub use crate::backend::lowered::{
    resolve_tags, simplify, EmitTarget, LoopNode, LoweredModule,
};
pub use trace::{CompileTrace, PassTrace};

use crate::backend::lowered::{count_ast_nodes, count_loop_nodes, pretty_tree};
use crate::function::{Error, Function, Result};
use crate::legality;
use crate::lowering::{lower, specialize_params, Lowered};
use polyhedral::AstNode;
use std::collections::HashMap;
use std::time::Instant;

/// Mutable state threaded through the pipeline passes. Each pass fills in
/// the field it owns; later passes read what earlier passes produced.
pub struct PipelineState<'f> {
    /// The function being compiled.
    pub f: &'f Function,
    /// Concrete parameter bindings.
    pub param_vals: HashMap<String, i64>,
    /// After `lower`: the Layer II-complete time–space view.
    pub lowered: Option<Lowered>,
    /// After `astgen`: the Cloog-style loop AST.
    pub ast: Vec<AstNode>,
    /// After `tag-resolve`: the tag-annotated backend-neutral tree.
    pub tree: Vec<LoopNode>,
}

impl<'f> PipelineState<'f> {
    fn new(f: &'f Function, params: &[(&str, i64)]) -> PipelineState<'f> {
        let mut param_vals = HashMap::new();
        for (k, v) in params {
            param_vals.insert(k.to_string(), *v);
        }
        PipelineState { f, param_vals, lowered: None, ast: Vec::new(), tree: Vec::new() }
    }

    fn lowered(&self) -> &Lowered {
        self.lowered.as_ref().expect("lower pass has run")
    }
}

/// One step of the lowering pipeline. `stats` and `snapshot` are only
/// called when tracing is enabled, so passes keep their observability
/// out of the hot path.
pub trait Pass {
    /// Pass name, shown in traces and reports.
    fn name(&self) -> &'static str;

    /// Runs the pass, updating the state.
    ///
    /// # Errors
    ///
    /// Pass-specific compilation failures.
    fn run(&mut self, state: &mut PipelineState<'_>) -> Result<()>;

    /// `(lowered statement count, IR node count)` after the pass.
    fn stats(&self, state: &PipelineState<'_>) -> (usize, usize);

    /// Pretty-printed IR snapshot after the pass.
    fn snapshot(&self, state: &PipelineState<'_>) -> String;
}

/// Runs passes in order, timing each and recording a [`CompileTrace`]
/// entry when tracing is enabled.
pub struct PassManager {
    trace: Option<CompileTrace>,
}

impl PassManager {
    /// A manager for one compilation. `trace_opt` is the per-compile
    /// option; the `TIRAMISU_TRACE` environment variable also enables
    /// tracing.
    pub fn new(target: &'static str, function: &str, trace_opt: bool) -> PassManager {
        let trace = trace::enabled(trace_opt).then(|| CompileTrace::new(target, function));
        PassManager { trace }
    }

    /// Runs one pass, recording wall time, counts, and an IR snapshot
    /// when tracing.
    ///
    /// # Errors
    ///
    /// Propagates the pass's error.
    pub fn run<P: Pass>(&mut self, pass: &mut P, state: &mut PipelineState<'_>) -> Result<()> {
        let t0 = Instant::now();
        pass.run(state)?;
        let wall = t0.elapsed();
        telemetry::span_with_wall("compile", pass.name(), wall);
        if let Some(tr) = &mut self.trace {
            let (stmts, nodes) = pass.stats(state);
            tr.record(pass.name(), wall, stmts, nodes, pass.snapshot(state));
        }
        Ok(())
    }

    /// Records an externally-timed step (the emit pass, whose result is
    /// the typed module). The stats closure only runs when tracing.
    pub fn record_step(
        &mut self,
        name: &'static str,
        wall: std::time::Duration,
        stmts: usize,
        stats: impl FnOnce() -> (usize, String),
    ) {
        telemetry::span_with_wall("compile", name, wall);
        if let Some(tr) = &mut self.trace {
            let (nodes, ir) = stats();
            tr.record(name, wall, stmts, nodes, ir);
        }
    }

    /// Finishes the run, yielding the trace when one was recorded.
    pub fn into_trace(self) -> Option<CompileTrace> {
        self.trace
    }
}

/// Pass 1: `lower` — schedules into the shared time space, parameters
/// bound and substituted.
struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&mut self, state: &mut PipelineState<'_>) -> Result<()> {
        let mut lowered = lower(state.f)?;
        for p in &state.f.params {
            if !state.param_vals.contains_key(p) {
                return Err(Error::UnknownParam(format!("parameter {p} not bound")));
            }
        }
        specialize_params(&mut lowered, state.f, &state.param_vals);
        state.lowered = Some(lowered);
        Ok(())
    }

    fn stats(&self, state: &PipelineState<'_>) -> (usize, usize) {
        let lw = state.lowered();
        let cons: usize = lw.stmts.iter().map(|s| s.schedule.constraints().len()).sum();
        (lw.stmts.len(), cons)
    }

    fn snapshot(&self, state: &PipelineState<'_>) -> String {
        let lw = state.lowered();
        let mut out = String::new();
        for (k, s) in lw.stmts.iter().enumerate() {
            out.push_str(&format!("{} := {}\n", s.name, s.schedule.to_isl_string()));
            let comp = lw.comp_ids[k].0;
            let mut tags: Vec<_> = lw
                .comp_level_tags
                .iter()
                .filter(|((c, _), _)| *c == comp)
                .map(|((_, pos), t)| (*pos, *t))
                .collect();
            tags.sort_by_key(|(pos, _)| *pos);
            if !tags.is_empty() {
                out.push_str(&format!("  tags: {tags:?}\n"));
            }
        }
        out
    }
}

/// Pass 2: `legality` — exact dependence check plus target validation.
struct LegalityPass<'t, T: EmitTarget> {
    check: bool,
    target: &'t T,
    /// The flow dependences, derived once for the check and the trace.
    deps: std::cell::OnceCell<Result<Vec<legality::FlowDep>>>,
}

impl<T: EmitTarget> LegalityPass<'_, T> {
    fn deps(&self, f: &Function) -> &Result<Vec<legality::FlowDep>> {
        self.deps.get_or_init(|| legality::flow_deps(f))
    }
}

impl<T: EmitTarget> Pass for LegalityPass<'_, T> {
    fn name(&self) -> &'static str {
        "legality"
    }

    fn run(&mut self, state: &mut PipelineState<'_>) -> Result<()> {
        if self.check {
            let deps = self.deps(state.f).as_ref().map_err(Clone::clone)?;
            if let Some(d) = legality::check_deps(state.f, deps)?.first() {
                return Err(legality::illegal(state.f, d));
            }
        }
        self.target.validate(state.f, &state.param_vals)
    }

    fn stats(&self, state: &PipelineState<'_>) -> (usize, usize) {
        let deps = self.deps(state.f).as_ref().map_or(0, Vec::len);
        (state.lowered().stmts.len(), deps)
    }

    fn snapshot(&self, state: &PipelineState<'_>) -> String {
        let mut out = String::new();
        if !self.check {
            out.push_str("(schedule check skipped)\n");
        }
        match self.deps(state.f) {
            Ok(deps) => {
                for d in deps {
                    out.push_str(&format!(
                        "{} -> {}: {}\n",
                        state.f.comp(d.producer).name,
                        state.f.comp(d.consumer).name,
                        d.relation
                    ));
                }
                if deps.is_empty() {
                    out.push_str("(no flow dependences)\n");
                }
            }
            Err(e) => out.push_str(&format!("(dependence analysis failed: {e})\n")),
        }
        out
    }
}

/// Pass 3: `astgen` — polyhedral scanning into the loop AST.
struct AstGenPass;

impl Pass for AstGenPass {
    fn name(&self) -> &'static str {
        "astgen"
    }

    fn run(&mut self, state: &mut PipelineState<'_>) -> Result<()> {
        state.ast = polyhedral::build_ast(&state.lowered().stmts, &polyhedral::AstBuild::default())
            .map_err(|e| Error::Backend(e.to_string()))?;
        Ok(())
    }

    fn stats(&self, state: &PipelineState<'_>) -> (usize, usize) {
        (state.lowered().stmts.len(), count_ast_nodes(&state.ast))
    }

    fn snapshot(&self, state: &PipelineState<'_>) -> String {
        let dims: Vec<String> = (0..state.lowered().m).map(|t| format!("c{t}")).collect();
        polyhedral::astgen::pretty(&state.ast, &dims, &state.f.params)
    }
}

/// Pass 4: `tag-resolve` — loop tags resolved and conflict-checked once
/// for all backends.
struct TagResolvePass;

impl Pass for TagResolvePass {
    fn name(&self) -> &'static str {
        "tag-resolve"
    }

    fn run(&mut self, state: &mut PipelineState<'_>) -> Result<()> {
        state.tree = resolve_tags(state.lowered(), &state.ast)?;
        Ok(())
    }

    fn stats(&self, state: &PipelineState<'_>) -> (usize, usize) {
        (state.lowered().stmts.len(), count_loop_nodes(&state.tree))
    }

    fn snapshot(&self, state: &PipelineState<'_>) -> String {
        pretty_tree(&state.tree, state.lowered(), 0)
    }
}

/// Adds what `polyhedral::solve` has counted since the last call to the
/// `poly.omega.{solves,presolved,exhausted}` metrics. The oracle's own
/// counters are process-wide, so the difference is taken under a lock and
/// concurrent compiles are neither lost nor counted twice. `exhausted`
/// above zero means some verdict was the conservative "feasible" of a
/// spent budget: a schedule may have been rejected, or a bound widened,
/// for no better reason.
fn mirror_oracle_counters() {
    use polyhedral::solve::{counters, OracleCounters};
    use std::sync::{Arc, Mutex, OnceLock};
    use telemetry::metrics::{counter, Counter};
    struct Mirror {
        seen: OracleCounters,
        solves: Arc<Counter>,
        presolved: Arc<Counter>,
        exhausted: Arc<Counter>,
    }
    static MIRROR: OnceLock<Mutex<Mirror>> = OnceLock::new();
    let mut m = MIRROR
        .get_or_init(|| {
            Mutex::new(Mirror {
                seen: OracleCounters::default(),
                solves: counter("poly.omega.solves"),
                presolved: counter("poly.omega.presolved"),
                exhausted: counter("poly.omega.exhausted"),
            })
        })
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let now = counters();
    let spent = now.since(m.seen);
    m.seen = now;
    m.solves.add(spent.solves);
    m.presolved.add(spent.presolved);
    m.exhausted.add(spent.exhausted);
}

/// Compiles `f` through the five-pass pipeline for an arbitrary
/// [`EmitTarget`], returning the target's module and (when enabled) the
/// compile trace.
///
/// # Errors
///
/// Unbound parameters, legality violations, tag conflicts, and
/// target-specific emission failures.
pub fn compile_with<T: EmitTarget>(
    f: &Function,
    params: &[(&str, i64)],
    check_legality: bool,
    trace_opt: bool,
    target: &mut T,
) -> Result<(T::Module, Option<CompileTrace>)> {
    let mut state = PipelineState::new(f, params);
    let mut pm = PassManager::new(target.name(), &f.name, trace_opt);
    pm.run(&mut LowerPass, &mut state)?;
    {
        let mut p =
            LegalityPass { check: check_legality, target: &*target, deps: Default::default() };
        pm.run(&mut p, &mut state)?;
    }
    mirror_oracle_counters();
    pm.run(&mut AstGenPass, &mut state)?;
    pm.run(&mut TagResolvePass, &mut state)?;

    let t0 = Instant::now();
    let lowered = state.lowered.take().expect("lower pass has run");
    let n_stmts = lowered.stmts.len();
    let mut lm = LoweredModule::new(f, lowered, state.param_vals.clone())?;
    let tree = std::mem::take(&mut state.tree);
    let mut module = target.emit(&mut lm, &tree)?;
    pm.record_step("emit", t0.elapsed(), n_stmts, || target.module_stats(&module));
    mirror_oracle_counters();

    let t0 = Instant::now();
    if let Some((stats, ir)) = target.optimize(&mut module)? {
        pm.record_step("optimize", t0.elapsed(), stats.tree_nodes, || (stats.insts, ir));
    }
    Ok((module, pm.into_trace()))
}
