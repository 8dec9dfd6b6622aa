//! The lowering pipeline: one fixed sequence, the same for every backend.
//!
//! 1. **lower** — interleave Layer II schedules into the shared `2d+1`
//!    time space and specialize parameters
//!    ([`crate::lowering::lower`]);
//! 2. **legality** — verify the schedule against the flow dependences
//!    (when enabled);
//! 3. **astgen** — generate the Cloog-style loop AST
//!    ([`polyhedral::build_ast`]);
//! 4. **tag-resolve** — annotate every loop with its conflict-checked
//!    hardware tag through the single [`crate::lowering::Lowered::tag_of_node`]
//!    path, producing the backend-neutral [`LoopNode`] tree;
//! 5. **emit** — bind buffers, declare variables, and hand the tree to
//!    the backend's [`EmitTarget`] implementation (the distributed target
//!    also checks the rank program's send/receive matching here);
//! 6. **optimize** — lower the expression trees of every program the
//!    emitted module holds ([`EmitTarget::programs`]) to register bytecode
//!    (constant folding, CSE, loop-invariant hoisting; see
//!    [`loopvm::opt`]). The code stays in the programs that run it.
//!
//! [`compile_with`] is that sequence, written out; the CPU, GPU, and
//! distributed backends are thin [`EmitTarget`] impls under it, and a
//! fourth backend would be one more. A [`CompileTrace`] (opt-in, see
//! [`trace`]) records per-pass wall time, statement/node counts, and IR
//! snapshots.

pub mod trace;

pub use crate::backend::lowered::{
    resolve_tags, simplify, EmitTarget, LoopNode, LoweredModule,
};
pub use trace::{CompileTrace, PassTrace};

use crate::backend::lowered::{count_ast_nodes, count_loop_nodes, optimize, pretty_tree};
use crate::function::{Error, Function, Result};
use crate::legality::{self, FlowDep};
use crate::lowering::{lower, specialize_params, Lowered};
use std::collections::HashMap;
use std::time::Instant;

/// Closes the pass that started at `t0`: emits its `compile/<name>`
/// telemetry span and, only when tracing, renders and records
/// `observe() = (stmts, nodes, IR snapshot)`.
fn finish_pass(
    trace: &mut Option<CompileTrace>,
    name: &'static str,
    t0: Instant,
    observe: impl FnOnce() -> (usize, usize, String),
) {
    let wall = t0.elapsed();
    telemetry::span_with_wall("compile", name, wall);
    if let Some(tr) = trace {
        let (stmts, nodes, ir) = observe();
        tr.record(name, wall, stmts, nodes, ir);
    }
}

/// The `lower` snapshot: every statement's time-space schedule and tags.
fn schedules(lw: &Lowered) -> String {
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

/// The `legality` snapshot: the flow dependences the check ran against.
fn dependences(f: &Function, checked: bool, deps: &Result<Vec<FlowDep>>) -> String {
    let mut out = String::new();
    if !checked {
        out.push_str("(schedule check skipped)\n");
    }
    match deps {
        Ok(deps) => {
            for d in deps {
                out.push_str(&format!(
                    "{} -> {}: {}\n",
                    f.comp(d.producer).name,
                    f.comp(d.consumer).name,
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

/// Compiles `f` through the six passes for an arbitrary [`EmitTarget`],
/// returning the target's module and (when enabled) the compile trace.
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
    let mut trace = trace_opt.then(|| CompileTrace::new(target.name(), &f.name));
    let param_vals: HashMap<String, i64> =
        params.iter().map(|(k, v)| (k.to_string(), *v)).collect();

    let t0 = Instant::now();
    let mut lowered = lower(f)?;
    if let Some(p) = f.params.iter().find(|p| !param_vals.contains_key(*p)) {
        return Err(Error::UnknownParam(format!("parameter {p} not bound")));
    }
    specialize_params(&mut lowered, f, &param_vals);
    let n_stmts = lowered.stmts.len();
    finish_pass(&mut trace, "lower", t0, || {
        let cons = lowered.stmts.iter().map(|s| s.schedule.constraints().len()).sum();
        (n_stmts, cons, schedules(&lowered))
    });

    let t0 = Instant::now();
    let mut deps = None;
    if check_legality {
        let found = deps.insert(legality::flow_deps(f)?);
        if let Some(d) = legality::check_deps(f, found)?.first() {
            return Err(legality::illegal(f, d));
        }
    }
    finish_pass(&mut trace, "legality", t0, || {
        // An unchecked compile derives the dependences for the trace only.
        let deps = deps.map_or_else(|| legality::flow_deps(f), Ok);
        let n_deps = deps.as_ref().map_or(0, Vec::len);
        (n_stmts, n_deps, dependences(f, check_legality, &deps))
    });
    mirror_oracle_counters();

    let t0 = Instant::now();
    let ast = polyhedral::build_ast(&lowered.stmts, &polyhedral::AstBuild::default())
        .map_err(|e| Error::Backend(e.to_string()))?;
    finish_pass(&mut trace, "astgen", t0, || {
        let dims: Vec<String> = (0..lowered.m).map(|t| format!("c{t}")).collect();
        (n_stmts, count_ast_nodes(&ast), polyhedral::astgen::pretty(&ast, &dims, &f.params))
    });

    let t0 = Instant::now();
    let tree = resolve_tags(&lowered, &ast)?;
    finish_pass(&mut trace, "tag-resolve", t0, || {
        (n_stmts, count_loop_nodes(&tree), pretty_tree(&tree, &lowered, 0))
    });

    let t0 = Instant::now();
    let mut lm = LoweredModule::new(f, lowered, param_vals)?;
    let module = target.emit(&mut lm, &tree)?;
    finish_pass(&mut trace, "emit", t0, || {
        let (nodes, ir) = target.module_stats(&module);
        (n_stmts, nodes, ir)
    });
    mirror_oracle_counters();

    let t0 = Instant::now();
    let stats = optimize(&target.programs(&module), target.eager_jit())?;
    finish_pass(&mut trace, "optimize", t0, || (stats.tree_nodes, stats.insts, stats.summary()));
    Ok((module, trace))
}
