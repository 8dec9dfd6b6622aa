//! The backend-neutral lowering module shared by every emit target.
//!
//! This is the single place where the Cloog-style AST is walked: the
//! `astgen` pass output is first resolved into a [`LoopNode`] tree (loop
//! tags checked once through [`Lowered::tag_of_node`]), and
//! [`LoweredModule`] then converts that tree into `loopvm` statements —
//! buffer binding, guard emission, bound conversion, expression
//! compilation and type promotion all live here. Backends plug in through
//! the [`EmitTarget`] trait and only contribute their hardware-specific
//! steps (loop-kind mapping, tile separation, kernel extraction, rank
//! decomposition).

use crate::expr::{CompId, Expr as TExpr};
use crate::function::{Error, Function, Result, Tag};
use crate::lowering::Lowered;
use loopvm::{BinOp, BufId as VmBuf, Expr as VExpr, LoopKind, Program, Stmt, UnOp, Var as VmVar};
use polyhedral::{AstExpr, AstNode, Constraint, ConstraintKind, QAff};
use std::collections::HashMap;

/// A tag-resolved loop-AST node: the shape of [`polyhedral::AstNode`]
/// with every `For` level annotated by its (conflict-checked) hardware
/// tag. Built once per compile by the `tag-resolve` pass; targets pattern
/// match on this instead of re-deriving tags from the schedule.
#[derive(Debug, Clone)]
pub(crate) enum LoopNode {
    /// A loop over one schedule dimension (inclusive bounds).
    Loop {
        /// Schedule dimension index this loop scans.
        level: usize,
        /// Hardware tag shared by every computation fused under the loop.
        tag: Option<Tag>,
        /// Inclusive lower bound.
        lower: AstExpr,
        /// Inclusive upper bound.
        upper: AstExpr,
        /// Loop body.
        body: Vec<LoopNode>,
    },
    /// A statement instance (see [`polyhedral::AstNode::Stmt`]).
    Stmt {
        /// Index into the lowered statement list.
        index: usize,
        /// Original iterator values over `[schedule dims..., params..., 1]`.
        iters: Vec<QAff>,
        /// Guard constraints; all must hold for the instance to execute.
        guard: Vec<Constraint>,
    },
}

/// Resolves an AST into the tag-annotated [`LoopNode`] tree. This is the
/// only call site of [`Lowered::tag_of_node`], so every backend reports
/// conflicting-tag errors identically.
///
/// # Errors
///
/// [`Error::Command`] when computations fused under one loop carry
/// conflicting tags.
pub(crate) fn resolve_tags(lowered: &Lowered, nodes: &[AstNode]) -> Result<Vec<LoopNode>> {
    nodes
        .iter()
        .map(|n| match n {
            AstNode::For { level, lower, upper, body, .. } => Ok(LoopNode::Loop {
                level: *level,
                tag: lowered.tag_of_node(n)?,
                lower: lower.clone(),
                upper: upper.clone(),
                body: resolve_tags(lowered, body)?,
            }),
            AstNode::Stmt { index, iters, guard, .. } => Ok(LoopNode::Stmt {
                index: *index,
                iters: iters.clone(),
                guard: guard.clone(),
            }),
        })
        .collect()
}

/// Total node count of an AST (loops + statement instances).
pub(crate) fn count_ast_nodes(nodes: &[AstNode]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            AstNode::For { body, .. } => 1 + count_ast_nodes(body),
            AstNode::Stmt { .. } => 1,
        })
        .sum()
}

/// Total node count of a resolved tree.
pub(crate) fn count_loop_nodes(nodes: &[LoopNode]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            LoopNode::Loop { body, .. } => 1 + count_loop_nodes(body),
            LoopNode::Stmt { .. } => 1,
        })
        .sum()
}

/// Total statement count of a generated VM body (loops, guards, stores,
/// lets — every node).
pub(crate) fn count_vm_stmts(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::For { body, .. } => 1 + count_vm_stmts(body),
            Stmt::If { then, else_, .. } => 1 + count_vm_stmts(then) + count_vm_stmts(else_),
            Stmt::Store { .. } | Stmt::Let { .. } => 1,
        })
        .sum()
}

/// Pretty-prints a resolved tree with tags (compile-trace snapshots).
pub(crate) fn pretty_tree(nodes: &[LoopNode], lowered: &Lowered, indent: usize) -> String {
    let mut out = String::new();
    let pad = "  ".repeat(indent);
    for n in nodes {
        match n {
            LoopNode::Loop { level, tag, body, .. } => {
                let tag_s = match tag {
                    Some(t) => format!(" @{t:?}"),
                    None => String::new(),
                };
                out.push_str(&format!("{pad}for c{level}{tag_s} {{\n"));
                out.push_str(&pretty_tree(body, lowered, indent + 1));
                out.push_str(&format!("{pad}}}\n"));
            }
            LoopNode::Stmt { index, guard, .. } => {
                let name = &lowered.stmts[*index].name;
                let g = if guard.is_empty() { "" } else { " [guarded]" };
                out.push_str(&format!("{pad}{name}(...){g};\n"));
            }
        }
    }
    out
}

/// Computation ids reachable under a resolved node (used to anchor
/// Layer IV communication before the loop nest containing a computation).
pub(crate) fn comps_in(node: &LoopNode, lowered: &Lowered) -> Vec<u32> {
    match node {
        LoopNode::Loop { body, .. } => {
            body.iter().flat_map(|n| comps_in(n, lowered)).collect()
        }
        LoopNode::Stmt { index, .. } => vec![lowered.comp_ids[*index].0],
    }
}

/// A backend plugged into the shared lowering pipeline.
///
/// The pipeline handles everything target-independent (lowering, legality,
/// AST generation, tag resolution, buffer binding); an `EmitTarget` only
/// answers the hardware-specific questions:
///
/// - [`loop_kind`](EmitTarget::loop_kind) — how a tagged loop maps to the
///   substrate (or why it cannot);
/// - [`convert_loop`](EmitTarget::convert_loop) — an optional override for
///   loops the target emits specially (tile separation, rank
///   conditionals); returning `Ok(None)` falls back to the shared path;
/// - [`emit`](EmitTarget::emit) — assembles the final module from the
///   resolved tree, typically via [`LoweredModule::convert_nodes`];
/// - [`programs`](EmitTarget::programs) — which `loopvm` programs that
///   module executes, so the shared `optimize` step can compile them.
///
/// Adding a fourth backend is implementing this trait in one file.
pub(crate) trait EmitTarget {
    /// The compiled artifact this target produces.
    type Module;

    /// Target name, used in compile traces and reports.
    fn name(&self) -> &'static str;

    /// Maps a resolved loop tag to a VM loop kind.
    ///
    /// # Errors
    ///
    /// Tags the substrate does not support (e.g. `gpuB` on CPU).
    fn loop_kind(&self, tag: Option<Tag>) -> Result<LoopKind>;

    /// Hook for target-specific loop emission. Return `Ok(Some(stmts))`
    /// to replace the shared conversion of `node`, `Ok(None)` to use it.
    ///
    /// # Errors
    ///
    /// Propagated out of the emit pass.
    fn convert_loop(
        &mut self,
        lm: &mut LoweredModule<'_>,
        node: &LoopNode,
    ) -> Result<Option<Vec<Stmt>>> {
        let _ = (lm, node);
        Ok(None)
    }

    /// Post-processing for generated loop-bound expressions. The default
    /// folds constants; the distributed target keeps raw bounds (its
    /// emission predates the folder and is pinned by golden tests).
    fn fold_bound(&self, e: VExpr) -> VExpr {
        simplify(e)
    }

    /// Assembles the compiled module from the resolved tree.
    ///
    /// # Errors
    ///
    /// Emission failures (unsupported tags, malformed kernel nests, ...).
    fn emit(&mut self, lm: &mut LoweredModule<'_>, roots: &[LoopNode]) -> Result<Self::Module>;

    /// `(generated statement count, pretty-printed module)` for the
    /// compile trace's `emit` entry. Only called when tracing.
    fn module_stats(&self, module: &Self::Module) -> (usize, String);

    /// The programs `module` executes, each under the label its listing
    /// shows (`""` for the one CPU program, `// kernel k phase p`,
    /// `// chunk k`): what the shared `optimize` step compiles.
    fn programs<'m>(&self, module: &'m Self::Module) -> Vec<(String, &'m Program)>;

    /// Whether the `optimize` step also builds native code for those
    /// programs. Only the CPU target's runtime executes native code
    /// (kernel phases run on `loopvm::simt`, rank chunks on the bytecode
    /// interpreter), and there a compile pays for it rather than the
    /// first run.
    fn eager_jit(&self) -> bool {
        false
    }
}

/// The `optimize` step, once for every backend: lowers each program's
/// expression trees to register bytecode (constant folding, CSE,
/// loop-invariant hoisting; see [`loopvm::opt`]) and sums what the
/// optimizer did. The code stays in the program that will run it
/// ([`Program::compiled`]), so nothing is handed back but the counters.
///
/// # Errors
///
/// Bytecode compilation failures (malformed emitted programs).
pub(crate) fn optimize(programs: &[(String, &Program)], jit: bool) -> Result<loopvm::OptStats> {
    let mut stats = loopvm::OptStats::default();
    for (label, p) in programs {
        let code = p.compiled().map_err(|e| {
            let at = label.strip_prefix("// ").map(|l| format!(" ({l})")).unwrap_or_default();
            Error::Backend(format!("bytecode optimization{at}: {e}"))
        })?;
        stats.merge(&code.bytecode().stats());
        if jit {
            code.jit();
        }
    }
    Ok(stats)
}

/// The bytecode listing of a module's programs (see `DESIGN.md` §10 for
/// the format): each labelled program's disassembly under its label, in
/// order. `None` when a program does not compile.
pub(crate) fn disasm(programs: &[(String, &Program)]) -> Option<String> {
    let mut out = String::new();
    for (label, p) in programs {
        if !label.is_empty() {
            out.push_str(label);
            out.push('\n');
        }
        out.push_str(&p.compiled().ok()?.bytecode().disasm(p));
    }
    Some(out)
}

/// Destination-buffer info of one computation.
pub(crate) struct CompInfo {
    pub(crate) vm_buf: VmBuf,
    /// Extents of the destination buffer (row-major).
    pub(crate) extents: Vec<i64>,
    /// Store index expressions over the computation's original iterators
    /// (`None` = identity).
    pub(crate) store_idx: Option<Vec<TExpr>>,
    /// One VM variable per original iterator, `let`-bound per statement
    /// instance (the paper's `int i = i0*32+i1` in Figure 3).
    pub(crate) iter_vars: Vec<VmVar>,
}

/// The shared AST→`loopvm` conversion state: one VM program under
/// construction, the buffer-binding table, and the variable environment.
/// Built by the pipeline's emit pass and handed to the [`EmitTarget`].
pub(crate) struct LoweredModule<'f> {
    /// The function being compiled.
    pub(crate) f: &'f Function,
    /// The Layer II-complete view (schedules specialized to the bound
    /// parameter values).
    pub(crate) lowered: Lowered,
    /// The VM program under construction (buffer and variable tables).
    pub(crate) program: Program,
    /// One VM variable per schedule time dimension (`c0..c{m-1}`).
    pub(crate) time_vars: Vec<VmVar>,
    /// VM variable of each function parameter.
    pub(crate) param_vars: HashMap<String, VmVar>,
    /// Concrete parameter bindings.
    pub(crate) param_vals: HashMap<String, i64>,
    pub(crate) comp_info: HashMap<u32, CompInfo>,
    /// Tiramisu buffer name → VM buffer id.
    pub(crate) buffer_map: HashMap<String, VmBuf>,
}

impl<'f> LoweredModule<'f> {
    /// Binds buffers and declares variables for a lowered function:
    /// explicit buffers first, then per-computation auto buffers and
    /// iterator variables, then parameter and time variables (the
    /// declaration order is part of the emission contract — golden tests
    /// pin it).
    ///
    /// # Errors
    ///
    /// Non-affine or unbounded buffer extents.
    pub(crate) fn new(
        f: &'f Function,
        lowered: Lowered,
        param_vals: HashMap<String, i64>,
    ) -> Result<LoweredModule<'f>> {
        let mut lm = LoweredModule {
            f,
            lowered,
            program: Program::new(),
            time_vars: Vec::new(),
            param_vars: HashMap::new(),
            param_vals,
            comp_info: HashMap::new(),
            buffer_map: HashMap::new(),
        };
        lm.assign_buffers()?;
        lm.declare_vars();
        Ok(lm)
    }

    pub(crate) fn eval_extent(&self, e: &TExpr) -> Result<i64> {
        let aff = e
            .as_affine(&[], &self.f.params)
            .ok_or_else(|| Error::NotAffine("buffer extent".into()))?;
        let point: Vec<i64> = self.f.params.iter().map(|p| self.param_vals[p]).collect();
        Ok(aff.eval(&point))
    }

    fn assign_buffers(&mut self) -> Result<()> {
        // Explicit buffers first.
        let mut explicit: Vec<(String, Vec<i64>)> = Vec::new();
        for b in &self.f.buffers {
            let extents: Vec<i64> =
                b.extents.iter().map(|e| self.eval_extent(e)).collect::<Result<_>>()?;
            explicit.push((b.name.clone(), extents));
        }
        for (name, extents) in &explicit {
            let id = self.program.buffer(name, buffer_len(name, extents)?);
            self.buffer_map.insert(name.clone(), id);
        }
        // Per-computation destinations.
        for (idx, c) in self.f.comps.iter().enumerate() {
            if c.inlined {
                continue;
            }
            let (vm_buf, extents) = match c.store_buffer {
                Some(b) => {
                    let buf = &self.f.buffers[b.index()];
                    let extents = explicit[b.index()].1.clone();
                    (self.buffer_map[&buf.name], extents)
                }
                None => {
                    // Auto buffer sized from the domain bounds under the
                    // concrete parameters.
                    let mut dom = c.domain.clone();
                    for (q, p) in self.f.params.iter().enumerate() {
                        dom = dom.fix_param(q, self.param_vals[p]);
                    }
                    let mut extents = Vec::with_capacity(c.iters.len());
                    for d in 0..c.iters.len() {
                        let lo = dom.dim_min(d).ok_or_else(|| {
                            Error::Backend(format!("domain of {} is unbounded", c.name))
                        })?;
                        let hi = dom.dim_max(d).ok_or_else(|| {
                            Error::Backend(format!("domain of {} is unbounded", c.name))
                        })?;
                        if lo < 0 {
                            return Err(Error::Backend(format!(
                                "auto buffer for {} needs non-negative bounds; use store_in",
                                c.name
                            )));
                        }
                        extents.push(hi + 1);
                    }
                    let id = self.program.buffer(&c.name, buffer_len(&c.name, &extents)?);
                    self.buffer_map.insert(c.name.clone(), id);
                    (id, extents)
                }
            };
            let iter_vars = c
                .iters
                .iter()
                .map(|n| self.program.var(&format!("{}_{n}", c.name)))
                .collect();
            self.comp_info.insert(
                idx as u32,
                CompInfo { vm_buf, extents, store_idx: c.store_idx.clone(), iter_vars },
            );
        }
        Ok(())
    }

    fn declare_vars(&mut self) {
        for p in &self.f.params {
            let v = self.program.var(p);
            self.param_vars.insert(p.clone(), v);
        }
        for t in 0..self.lowered.m {
            self.time_vars.push(self.program.var(&format!("c{t}")));
        }
    }

    /// `let P = value;` bindings for every function parameter, in
    /// declaration order (emitted at the top of programs and kernel
    /// bodies).
    pub(crate) fn param_lets(&self) -> Vec<Stmt> {
        self.f
            .params
            .iter()
            .map(|p| Stmt::let_(self.param_vars[p], VExpr::i64(self.param_vals[p])))
            .collect()
    }

    /// Converts a slice of resolved nodes through the shared walk,
    /// consulting `target` for loop kinds and overrides.
    ///
    /// # Errors
    ///
    /// Unsupported tags and malformed expressions.
    pub(crate) fn convert_nodes<T: EmitTarget + ?Sized>(
        &mut self,
        nodes: &[LoopNode],
        target: &mut T,
    ) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        for n in nodes {
            match n {
                LoopNode::Loop { .. } => out.extend(self.convert_for(n, target)?),
                LoopNode::Stmt { index, iters, guard } => {
                    out.extend(self.convert_stmt(*index, iters, guard)?);
                }
            }
        }
        Ok(out)
    }

    fn convert_for<T: EmitTarget + ?Sized>(
        &mut self,
        node: &LoopNode,
        target: &mut T,
    ) -> Result<Vec<Stmt>> {
        if let Some(custom) = target.convert_loop(self, node)? {
            return Ok(custom);
        }
        let LoopNode::Loop { level, tag, lower, upper, body } = node else {
            unreachable!("convert_for called on a statement");
        };
        let kind = target.loop_kind(*tag)?;
        let var = self.time_vars[*level];
        let body_stmts = self.convert_nodes(body, target)?;
        let lower_e = target.fold_bound(self.conv_bound(lower));
        let upper_e = target.fold_bound(self.conv_bound(upper) + VExpr::i64(1));
        Ok(vec![Stmt::For { var, lower: lower_e, upper: upper_e, kind, body: body_stmts }])
    }

    /// Converts one statement instance: iterator `let` bindings, the
    /// store, the optional non-affine predicate, and polyhedral guards.
    ///
    /// # Errors
    ///
    /// Malformed expressions (type errors, unbound iterators, accesses to
    /// inlined computations).
    pub(crate) fn convert_stmt(
        &mut self,
        index: usize,
        iters: &[QAff],
        guard: &[Constraint],
    ) -> Result<Vec<Stmt>> {
        let comp_id = self.lowered.comp_ids[index];
        let comp = self.f.comp(comp_id);
        debug_assert_eq!(comp.kind, crate::function::CompKind::Computation);
        let expr = comp
            .expr
            .clone()
            .ok_or_else(|| Error::Backend(format!("{} has no expression", comp.name)))?;

        // Bind each original iterator once per statement instance
        // (`int i = i0*32 + i1`, as in the paper's Figure 3 pseudocode),
        // then reference the bound variables from every index expression.
        let info_vars = self.comp_info[&comp_id.0].iter_vars.clone();
        let mut lets: Vec<Stmt> = Vec::with_capacity(comp.iters.len());
        let mut env: HashMap<String, VExpr> = HashMap::new();
        for (k, name) in comp.iters.iter().enumerate() {
            let bound = simplify(self.conv_qaff(&iters[k]));
            lets.push(Stmt::let_(info_vars[k], bound));
            env.insert(name.clone(), VExpr::var(info_vars[k]));
        }

        let (value, ty) = self.conv_expr(&expr, &env)?;
        let value = simplify(coerce_f32(value, ty));
        let store_index = simplify(self.store_index(comp_id, &env)?);
        let info = &self.comp_info[&comp_id.0];
        let mut stmt = Stmt::store(info.vm_buf, store_index, value);

        // Predicate (non-affine conditional, §V-B).
        if let Some(pred) = &comp.predicate {
            let (p, pty) = self.conv_expr(pred, &env)?;
            if pty != VTy::I64 {
                return Err(Error::Backend("predicate must be an integer expression".into()));
            }
            stmt = Stmt::if_then(p, vec![stmt]);
        }
        // Polyhedral guards.
        if !guard.is_empty() {
            let mut cond: Option<VExpr> = None;
            for c in guard {
                let aff_e = simplify(self.conv_aff(&c.aff));
                let piece = match c.kind {
                    ConstraintKind::Ineq => VExpr::le(VExpr::i64(0), aff_e),
                    ConstraintKind::Eq => VExpr::eq(aff_e, VExpr::i64(0)),
                };
                cond = Some(match cond {
                    None => piece,
                    Some(acc) => VExpr::and(acc, piece),
                });
            }
            stmt = Stmt::if_then(cond.unwrap(), vec![stmt]);
        }
        lets.push(stmt);
        Ok(lets)
    }

    /// The flat store index of a computation instance given its iterator
    /// environment.
    fn store_index(&self, comp_id: CompId, env: &HashMap<String, VExpr>) -> Result<VExpr> {
        let comp = self.f.comp(comp_id);
        let info = &self.comp_info[&comp_id.0];
        let idx_exprs: Vec<TExpr> = match &info.store_idx {
            Some(v) => v.clone(),
            None => comp.iters.iter().map(|n| TExpr::Iter(n.clone())).collect(),
        };
        if idx_exprs.len() != info.extents.len() {
            return Err(Error::Backend(format!(
                "{}: store index arity {} does not match buffer rank {}",
                comp.name,
                idx_exprs.len(),
                info.extents.len()
            )));
        }
        let mut flat: Option<VExpr> = None;
        let mut stride = 1i64;
        for (k, e) in idx_exprs.iter().enumerate().rev() {
            let (v, ty) = self.conv_expr(e, env)?;
            if ty != VTy::I64 {
                return Err(Error::Backend("store index must be an integer".into()));
            }
            let term = if stride == 1 { v } else { v * VExpr::i64(stride) };
            flat = Some(match flat {
                None => term,
                Some(acc) => acc + term,
            });
            stride *= info.extents[k];
        }
        Ok(flat.unwrap_or(VExpr::i64(0)))
    }

    /// The flat index of a *read* of `target` at the given (already
    /// compiled) coordinate expressions.
    fn read_index(&self, target: CompId, coords: &[VExpr]) -> Result<VExpr> {
        let comp = self.f.comp(target);
        // Build an environment binding the target's iterators to coords.
        let mut env = HashMap::new();
        for (k, name) in comp.iters.iter().enumerate() {
            env.insert(name.clone(), coords[k].clone());
        }
        self.store_index(target, &env)
    }

    fn conv_expr(&self, e: &TExpr, env: &HashMap<String, VExpr>) -> Result<(VExpr, VTy)> {
        Ok(match e {
            TExpr::F32(v) => (VExpr::f32(*v), VTy::F32),
            TExpr::I64(v) => (VExpr::i64(*v), VTy::I64),
            TExpr::Iter(name) => (
                env.get(name)
                    .ok_or_else(|| Error::Backend(format!("unbound iterator {name}")))?
                    .clone(),
                VTy::I64,
            ),
            TExpr::Param(name) => (
                VExpr::var(
                    *self
                        .param_vars
                        .get(name)
                        .ok_or_else(|| Error::UnknownParam(name.clone()))?,
                ),
                VTy::I64,
            ),
            TExpr::Access(id, idx) => {
                let target = self.f.comp(*id);
                if target.inlined {
                    return Err(Error::Backend(format!(
                        "access to inlined computation {}",
                        target.name
                    )));
                }
                let mut coords = Vec::with_capacity(idx.len());
                for ie in idx {
                    let (v, ty) = self.conv_expr(ie, env)?;
                    if ty != VTy::I64 {
                        return Err(Error::Backend("access index must be an integer".into()));
                    }
                    coords.push(v);
                }
                let info = self.comp_info.get(&id.0).ok_or_else(|| {
                    Error::Backend(format!("{} has no buffer", target.name))
                })?;
                let flat = self.read_index(*id, &coords)?;
                (VExpr::load(info.vm_buf, flat), VTy::F32)
            }
            TExpr::Bin(op, a, b) => {
                let (va, ta) = self.conv_expr(a, env)?;
                let (vb, tb) = self.conv_expr(b, env)?;
                // Type promotion: mixed i64/f32 promotes to f32 (so the
                // paper's `sum / 3` idiom works).
                let (va, vb, ty) = if ta == tb {
                    (va, vb, ta)
                } else {
                    (coerce_f32(va, ta), coerce_f32(vb, tb), VTy::F32)
                };
                let out_ty = match op {
                    BinOp::Lt | BinOp::Le | BinOp::EqCmp | BinOp::And | BinOp::Or => VTy::I64,
                    _ => ty,
                };
                (VExpr::Bin(*op, Box::new(va), Box::new(vb)), out_ty)
            }
            TExpr::Un(op, a) => {
                let (va, ta) = self.conv_expr(a, env)?;
                let (va, ty) = match op {
                    UnOp::Sqrt | UnOp::Exp => (coerce_f32(va, ta), VTy::F32),
                    UnOp::Not => (va, VTy::I64),
                    _ => (va, ta),
                };
                (VExpr::Un(*op, Box::new(va)), ty)
            }
            TExpr::Select(c, a, b) => {
                let (vc, _tc) = self.conv_expr(c, env)?;
                let (va, ta) = self.conv_expr(a, env)?;
                let (vb, tb) = self.conv_expr(b, env)?;
                let (va, vb, ty) = if ta == tb {
                    (va, vb, ta)
                } else {
                    (coerce_f32(va, ta), coerce_f32(vb, tb), VTy::F32)
                };
                (VExpr::select(vc, va, vb), ty)
            }
            TExpr::CastF32(a) => {
                let (va, ta) = self.conv_expr(a, env)?;
                (coerce_f32(va, ta), VTy::F32)
            }
            TExpr::CastI64(a) => {
                let (va, ta) = self.conv_expr(a, env)?;
                let v = if ta == VTy::I64 { va } else { VExpr::to_i64(va) };
                (v, VTy::I64)
            }
        })
    }

    /// Converts a quasi-affine expression (with its divisor/ceil) to a VM
    /// expression over time and parameter variables.
    pub(crate) fn conv_qaff(&self, q: &QAff) -> VExpr {
        let num = self.conv_aff(&q.num);
        if q.den == 1 {
            num
        } else if q.ceil {
            (num + VExpr::i64(q.den - 1)) / VExpr::i64(q.den)
        } else {
            num / VExpr::i64(q.den)
        }
    }

    pub(crate) fn conv_aff(&self, aff: &polyhedral::Aff) -> VExpr {
        // Columns: [m time dims, params, 1].
        let m = self.lowered.m;
        let n_params = self.f.params.len();
        debug_assert_eq!(aff.n_cols(), m + n_params + 1);
        let mut out: Option<VExpr> = None;
        let add = |acc: &mut Option<VExpr>, term: VExpr| {
            *acc = Some(match acc.take() {
                None => term,
                Some(a) => a + term,
            });
        };
        for t in 0..m {
            let c = aff.coeff(t);
            if c != 0 {
                let v = VExpr::var(self.time_vars[t]);
                add(&mut out, if c == 1 { v } else { VExpr::i64(c) * v });
            }
        }
        for (q, p) in self.f.params.iter().enumerate() {
            let c = aff.coeff(m + q);
            if c != 0 {
                let v = VExpr::var(self.param_vars[p]);
                add(&mut out, if c == 1 { v } else { VExpr::i64(c) * v });
            }
        }
        let k = aff.const_term();
        if k != 0 || out.is_none() {
            add(&mut out, VExpr::i64(k));
        }
        out.unwrap()
    }

    /// Converts an AST bound (a min/max over quasi-affine candidates).
    pub(crate) fn conv_bound(&self, e: &AstExpr) -> VExpr {
        match e {
            AstExpr::Max(v) => v
                .iter()
                .map(|q| self.conv_qaff(q))
                .reduce(VExpr::max)
                .expect("empty bound"),
            AstExpr::Min(v) => v
                .iter()
                .map(|q| self.conv_qaff(q))
                .reduce(VExpr::min)
                .expect("empty bound"),
        }
    }
}

/// Element count of a buffer with the given extents (at least one).
fn buffer_len(name: &str, extents: &[i64]) -> Result<usize> {
    let len = extents.iter().try_fold(1i64, |n, &e| n.checked_mul(e));
    len.and_then(|n| usize::try_from(n.max(1)).ok()).ok_or_else(|| {
        Error::Backend(format!("buffer {name}: extents {extents:?} overflow the element count"))
    })
}

/// Peephole simplification of generated VM expressions: constant folding
/// and algebraic identities (`x*1`, `x+0`, `x*0`, nested constants). The
/// polyhedral layers generate expressions like `(1 * A[i]) + 0` and
/// `(0 + 1)`; folding them keeps the interpreted instruction stream close
/// to hand-written code.
pub fn simplify(e: VExpr) -> VExpr {
    use loopvm::BinOp as B;
    match e {
        VExpr::Bin(op, a, b) => {
            let a = simplify(*a);
            let b = simplify(*b);
            match (op, &a, &b) {
                (B::Mul, VExpr::ConstF(x), e) | (B::Mul, e, VExpr::ConstF(x)) if *x == 1.0 => {
                    e.clone()
                }
                (B::Mul, VExpr::ConstI(1), e) | (B::Mul, e, VExpr::ConstI(1)) => e.clone(),
                (B::Mul, VExpr::ConstI(0), _) | (B::Mul, _, VExpr::ConstI(0)) => VExpr::i64(0),
                (B::Add, VExpr::ConstI(0), e) | (B::Add, e, VExpr::ConstI(0)) => e.clone(),
                (B::Add, VExpr::ConstF(x), e) | (B::Add, e, VExpr::ConstF(x)) if *x == 0.0 => {
                    e.clone()
                }
                (B::Sub, e, VExpr::ConstI(0)) => e.clone(),
                // Folded with the executors' own (wrapping) arithmetic.
                (B::Add | B::Sub | B::Mul | B::Min | B::Max, &VExpr::ConstI(x), &VExpr::ConstI(y)) => {
                    VExpr::i64(loopvm::vm::apply_i(op, x, y))
                }
                (B::Div, e, VExpr::ConstI(1)) => e.clone(),
                _ => VExpr::Bin(op, Box::new(a), Box::new(b)),
            }
        }
        VExpr::Un(op, a) => VExpr::Un(op, Box::new(simplify(*a))),
        VExpr::Select(c, a, b) => VExpr::Select(
            Box::new(simplify(*c)),
            Box::new(simplify(*a)),
            Box::new(simplify(*b)),
        ),
        VExpr::Cast(t, a) => VExpr::Cast(t, Box::new(simplify(*a))),
        VExpr::Load(bf, i) => VExpr::Load(bf, Box::new(simplify(*i))),
        other => other,
    }
}

/// The two VM value types, used for promotion during conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VTy {
    I64,
    F32,
}

fn coerce_f32(e: VExpr, ty: VTy) -> VExpr {
    match ty {
        VTy::F32 => e,
        VTy::I64 => VExpr::to_f32(e),
    }
}
