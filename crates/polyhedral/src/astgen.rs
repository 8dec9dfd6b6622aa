//! Cloog-style AST generation: scanning scheduled domains with loop nests.
//!
//! Given a union of statements, each with an iteration domain and an affine
//! schedule into a shared time–space, this module generates a loop AST that
//! visits every computation once and only once, following the
//! lexicographic order of the schedule (paper §V-A).
//!
//! The generator follows the Tiramisu/Halide `2d+1` convention: schedule
//! dimensions alternate *static* dimensions (integer constants ordering
//! statements at a level) and *dynamic* dimensions (loop variables). Static
//! dimensions become statement ordering; dynamic dimensions become `for`
//! loops whose bounds are affine maxima/minima of floor/ceil divisions
//! extracted by projection. When several statements share a loop but
//! disagree on bounds, the loop is widened to the union and per-statement
//! guards are attached (the same strategy Cloog uses in `-f`/`-l` relaxed
//! modes); when a projection is integrally inexact, the statement keeps its
//! full constraint set as a guard, preserving correctness.

use crate::aff::{Aff, Constraint, ConstraintKind};
use crate::map::BasicMap;
use crate::set::BasicSet;
use crate::{Error, Result};

/// A quasi-affine expression: `ceil(num / den)` or `floor(num / den)` of an
/// affine `num` over `[schedule dims..., params..., 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QAff {
    /// Affine numerator over the schedule space columns.
    pub num: Aff,
    /// Strictly positive denominator.
    pub den: i64,
    /// `true` for ceiling, `false` for floor.
    pub ceil: bool,
}

impl QAff {
    /// An exact affine expression (denominator 1).
    pub fn affine(num: Aff) -> QAff {
        QAff { num, den: 1, ceil: false }
    }

    /// Evaluates at concrete schedule-dimension and parameter values.
    pub fn eval(&self, point: &[i64]) -> i64 {
        let v = self.num.eval(point);
        if self.den == 1 {
            v
        } else if self.ceil {
            (v + self.den - 1).div_euclid(self.den)
        } else {
            v.div_euclid(self.den)
        }
    }
}

/// A loop bound: the max (for lower bounds) or min (for upper bounds) of a
/// set of quasi-affine expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AstExpr {
    /// Maximum of the candidates (lower bounds).
    Max(Vec<QAff>),
    /// Minimum of the candidates (upper bounds).
    Min(Vec<QAff>),
}

impl AstExpr {
    /// Evaluates at concrete schedule-dimension and parameter values.
    ///
    /// # Panics
    ///
    /// Panics on an empty candidate list.
    pub fn eval(&self, point: &[i64]) -> i64 {
        match self {
            AstExpr::Max(v) => v.iter().map(|q| q.eval(point)).max().expect("empty Max"),
            AstExpr::Min(v) => v.iter().map(|q| q.eval(point)).min().expect("empty Min"),
        }
    }

    /// The candidate expressions.
    pub fn candidates(&self) -> &[QAff] {
        match self {
            AstExpr::Max(v) | AstExpr::Min(v) => v,
        }
    }
}

/// A node of the generated AST.
#[derive(Debug, Clone)]
pub enum AstNode {
    /// A `for` loop over one dynamic schedule dimension (inclusive bounds).
    For {
        /// Schedule dimension index this loop scans.
        level: usize,
        /// Loop variable name (the schedule-space dimension name).
        var: String,
        /// Inclusive lower bound.
        lower: AstExpr,
        /// Inclusive upper bound.
        upper: AstExpr,
        /// Loop body.
        body: Vec<AstNode>,
    },
    /// A statement instance: evaluate `iters` (the original iteration-domain
    /// coordinates as functions of schedule dims and params) and execute,
    /// provided every `guard` constraint holds.
    Stmt {
        /// Index into the `stmts` slice passed to [`build_ast`].
        index: usize,
        /// Statement name.
        name: String,
        /// Original iterator values over `[schedule dims..., params..., 1]`.
        iters: Vec<QAff>,
        /// Guard constraints over `[schedule dims..., params..., 1]`; all
        /// must hold (`= 0` / `>= 0`) for the instance to execute.
        guard: Vec<Constraint>,
    },
}

/// One statement to scan: a domain and a schedule into the shared
/// time–space.
#[derive(Debug, Clone)]
pub struct ScheduledStmt {
    /// Statement name (used in the AST and error messages).
    pub name: String,
    /// Iteration domain over the statement's own dimensions.
    pub domain: BasicSet,
    /// Schedule: domain → time–space. All statements must share the
    /// schedule space dimensionality and parameters.
    pub schedule: BasicMap,
}

/// AST builder options: none. The struct stays, and [`build_ast`] keeps
/// its parameter, because the separately built `benchmark/` package
/// passes `&AstBuild::default()`. Separating full from partial tiles is
/// the CPU backend's option (`tiramisu::CpuOptions::separate_tiles`).
#[derive(Debug, Clone, Default)]
pub struct AstBuild {}

struct StmtInfo {
    index: usize,
    name: String,
    /// Projections of the scheduled domain: `proj[l]` constrains
    /// `[sched dims 0..=l, params, 1]` (deeper dims projected out).
    proj: Vec<Vec<Constraint>>,
    /// Full scheduled-domain constraints over `[m sched dims, params, 1]`.
    full: Vec<Constraint>,
    /// Whether any projection was integrally inexact (forces a full guard).
    inexact: bool,
    /// Per-level static value when the schedule pins the dimension to a
    /// constant (computed before static folding).
    statics: Vec<Option<i64>>,
    /// Original iterators over `[sched dims, params, 1]`.
    iters: Vec<QAff>,
}

/// Generates the loop AST scanning all `stmts` in the lexicographic order
/// of their schedules.
///
/// # Errors
///
/// - [`Error::SpaceMismatch`] when statements disagree on the schedule
///   space.
/// - [`Error::Inexact`] when a schedule is not invertible (original
///   iterators cannot be expressed in schedule coordinates).
pub fn build_ast(stmts: &[ScheduledStmt], _build: &AstBuild) -> Result<Vec<AstNode>> {
    if stmts.is_empty() {
        return Ok(Vec::new());
    }
    let m = stmts[0].schedule.space().n_out();
    let n_params = stmts[0].domain.space().n_params();
    for s in stmts {
        if s.schedule.space().n_out() != m || s.domain.space().n_params() != n_params {
            return Err(Error::SpaceMismatch(format!(
                "statement {} disagrees on the schedule space",
                s.name
            )));
        }
    }

    let mut infos = Vec::with_capacity(stmts.len());
    for (index, s) in stmts.iter().enumerate() {
        // Scheduled domain over [sched dims, params, 1]: embed the domain
        // into the schedule relation and project out the input dims.
        let rel = s
            .schedule
            .intersect_domain(&s.domain)
            .map_err(|e| Error::SpaceMismatch(format!("stmt {}: {e}", s.name)))?;
        let (tdom, exact_dom) = rel.range();
        if tdom.is_empty() {
            continue;
        }
        // Original iterators as functions of schedule dims.
        let iters_aff = rel.input_affs().ok_or_else(|| {
            Error::Inexact(format!("schedule of {} is not invertible", s.name))
        })?;
        let iters = iters_aff.into_iter().map(QAff::affine).collect();

        // Projection cascade.
        let full: Vec<Constraint> = tdom.constraints().to_vec();
        let mut proj: Vec<Vec<Constraint>> = vec![Vec::new(); m];
        let mut inexact = !exact_dom;
        if m > 0 {
            proj[m - 1] = full.clone();
            let mut current = tdom.clone();
            for l in (0..m.saturating_sub(1)).rev() {
                let (p, e) = current.project_out(l + 1, 1);
                inexact |= !e;
                proj[l] = p.constraints().to_vec();
                current = p;
            }
        }
        let statics: Vec<Option<i64>> =
            (0..m).map(|l| static_value(&proj[l], l)).collect();
        let mut info =
            StmtInfo { index, name: s.name.clone(), proj, full, inexact, iters, statics };
        // Fold statically-pinned dimension values into every expression so
        // bounds, guards and iterator expressions never reference static
        // columns (backends then only need variables for dynamic loops).
        for l in 0..m {
            if let Some(v) = info.statics[l] {
                for k in l..m {
                    for c in &mut info.proj[k] {
                        fold_col(&mut c.aff, l, v);
                    }
                    info.proj[k].retain(|c| !c.is_trivial());
                }
                for c in &mut info.full {
                    fold_col(&mut c.aff, l, v);
                }
                info.full.retain(|c| !c.is_trivial());
                for q in &mut info.iters {
                    fold_col(&mut q.num, l, v);
                }
            }
        }
        infos.push(info);
    }

    let group: Vec<usize> = (0..infos.len()).collect();
    gen_level(&infos, &group, 0, m)
}

/// Recursively generates nodes for schedule dimension `level` over the
/// statements in `group`.
fn gen_level(
    infos: &[StmtInfo],
    group: &[usize],
    level: usize,
    m: usize,
) -> Result<Vec<AstNode>> {
    if group.is_empty() {
        return Ok(Vec::new());
    }
    if level == m {
        // Leaf: emit statements (stable order by input index).
        let mut nodes = Vec::with_capacity(group.len());
        let mut ordered = group.to_vec();
        ordered.sort_by_key(|&g| infos[g].index);
        for g in ordered {
            let info = &infos[g];
            let guard = if info.inexact { info.full.clone() } else { Vec::new() };
            nodes.push(AstNode::Stmt {
                index: info.index,
                name: info.name.clone(),
                iters: info.iters.clone(),
                guard,
            });
        }
        return Ok(nodes);
    }

    // Static dimension? Every statement's schedule must pin `level` to an
    // integer constant.
    let mut static_vals: Vec<Option<i64>> = Vec::with_capacity(group.len());
    for &g in group {
        static_vals.push(infos[g].statics[level]);
    }
    if static_vals.iter().all(|v| v.is_some()) {
        // Group by value, ascending; no loop is emitted for a static dim.
        let mut buckets: std::collections::BTreeMap<i64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (&g, v) in group.iter().zip(&static_vals) {
            buckets.entry(v.unwrap()).or_default().push(g);
        }
        let mut nodes = Vec::new();
        for (_, bucket) in buckets {
            nodes.extend(gen_level(infos, &bucket, level + 1, m)?);
        }
        return Ok(nodes);
    }

    // Dynamic dimension: one loop covering the union of the statements'
    // ranges at this level.
    let mut all_lowers: Vec<Vec<QAff>> = Vec::new();
    let mut all_uppers: Vec<Vec<QAff>> = Vec::new();
    let widen_q = |mut q: QAff| {
        // proj[level] rows span [0..=level dims, params, 1]; widen to the
        // full schedule width by inserting the inner dims as zero columns.
        q.num = q.num.insert_cols(level + 1, m - level - 1);
        q
    };
    for &g in group {
        let (mut lo, mut up) = bounds_at(&infos[g].proj[level], level, &infos[g].name)?;
        // Context for redundancy pruning: the outer-dimension constraints,
        // obtained by eliminating this dimension (an over-approximated
        // context only prunes less — always sound).
        let ctx: Vec<Constraint> =
            crate::fm::eliminate_col(&infos[g].proj[level], level)
                .cons
                .iter()
                .map(|c| Constraint { aff: c.aff.insert_cols(level, 1), kind: c.kind })
                .collect();
        prune_bounds(&mut lo, &ctx, true);
        prune_bounds(&mut up, &ctx, false);
        all_lowers.push(lo.into_iter().map(widen_q).collect());
        all_uppers.push(up.into_iter().map(widen_q).collect());
    }
    // Union loop bounds: min over statements of their max-lower would be
    // exact; we widen to the min of *all* lower candidates (and max of all
    // uppers) and guard statements individually when bounds differ.
    let bounds_agree = all_lowers.windows(2).all(|w| w[0] == w[1])
        && all_uppers.windows(2).all(|w| w[0] == w[1]);
    let (lower, upper) = if group.len() == 1 || bounds_agree {
        (AstExpr::Max(all_lowers[0].clone()), AstExpr::Min(all_uppers[0].clone()))
    } else {
        (
            AstExpr::Min(all_lowers.concat()),
            AstExpr::Max(all_uppers.concat()),
        )
    };
    let needs_guard = !(group.len() == 1 || bounds_agree);

    let body = gen_level(infos, group, level + 1, m)?;
    let body = if needs_guard {
        attach_guards(body, infos, level, m)
    } else {
        body
    };
    let var = format!("c{level}");
    Ok(vec![AstNode::For { level, var, lower, upper, body }])
}

/// Adds each statement's own bound constraints at `level` to its guard
/// (recursing through inner loops). Guards are widened to the full
/// schedule width `m`.
fn attach_guards(nodes: Vec<AstNode>, infos: &[StmtInfo], level: usize, m: usize) -> Vec<AstNode> {
    nodes
        .into_iter()
        .map(|n| match n {
            AstNode::For { level: l, var, lower, upper, body } => AstNode::For {
                level: l,
                var,
                lower,
                upper,
                body: attach_guards(body, infos, level, m),
            },
            AstNode::Stmt { index, name, iters, mut guard } => {
                if let Some(info) = infos.iter().find(|i| i.index == index) {
                    for c in &info.proj[level] {
                        if c.aff.coeff(level) != 0 {
                            let widened = Constraint {
                                aff: c.aff.insert_cols(level + 1, m - level - 1),
                                kind: c.kind,
                            };
                            if !guard.contains(&widened) {
                                guard.push(widened);
                            }
                        }
                    }
                }
                AstNode::Stmt { index, name, iters, guard }
            }
        })
        .collect()
}

/// Replaces references to column `col` by the constant `v` (folding the
/// coefficient into the constant term).
fn fold_col(aff: &mut Aff, col: usize, v: i64) {
    let c = aff.coeff(col);
    if c != 0 {
        let last = aff.n_cols() - 1;
        aff.coeffs_mut()[last] += c * v;
        aff.coeffs_mut()[col] = 0;
    }
}

/// If the constraints pin dimension `level` to an integer constant
/// (equality involving only that dimension and the constant column),
/// returns it.
fn static_value(cons: &[Constraint], level: usize) -> Option<i64> {
    for c in cons {
        if c.kind != ConstraintKind::Eq {
            continue;
        }
        let a = c.aff.coeff(level);
        if a == 0 {
            continue;
        }
        let n = c.aff.n_cols();
        let only_level = (0..n - 1).all(|col| col == level || c.aff.coeff(col) == 0);
        if only_level && c.aff.const_term() % a == 0 {
            return Some(-c.aff.const_term() / a);
        }
    }
    None
}

/// Removes candidates provably dominated by another candidate over the
/// loop's context (the polyhedral analogue of Cloog's bound
/// simplification): a lower-bound candidate is redundant when it is at
/// most some other candidate everywhere; dually for uppers. Only exact
/// (denominator-1) candidates are compared.
fn prune_bounds(cands: &mut Vec<QAff>, ctx: &[Constraint], lower: bool) {
    if cands.len() <= 1 {
        return;
    }
    let n_cols = cands[0].num.n_cols();
    let n_vars = n_cols - 1;
    let mut keep = vec![true; cands.len()];
    // Try to prune complex candidates first, so ties between equivalent
    // bounds keep the structurally simpler one (constants stay, which
    // later lets backends read tile sizes off the bound).
    let mut order: Vec<usize> = (0..cands.len()).collect();
    let complexity =
        |q: &QAff| q.num.coeffs()[..n_vars].iter().filter(|&&c| c != 0).count();
    order.sort_by_key(|&i| std::cmp::Reverse(complexity(&cands[i])));
    for i in order {
        if !keep[i] || cands[i].den != 1 {
            continue;
        }
        for j in 0..cands.len() {
            if i == j || !keep[j] || cands[j].den != 1 {
                continue;
            }
            // For lowers: i redundant when cand_i <= cand_j everywhere,
            // i.e. no context point has cand_i - cand_j >= 1.
            let diff = if lower {
                cands[i].num.sub(&cands[j].num)
            } else {
                cands[j].num.sub(&cands[i].num)
            };
            let mut cons: Vec<Constraint> = ctx.to_vec();
            cons.push(Constraint::ineq(diff.add(&Aff::constant(n_cols, -1))));
            if !crate::solve::constraints_feasible(&cons, n_vars) {
                keep[i] = false;
                break;
            }
        }
    }
    if keep.iter().any(|&k| k) {
        let mut it = keep.iter();
        cands.retain(|_| *it.next().unwrap());
    }
}

/// Extracts lower and upper bound candidates for dimension `level` from a
/// projected constraint set over `[0..=level dims, params, 1]`.
fn bounds_at(
    cons: &[Constraint],
    level: usize,
    name: &str,
) -> Result<(Vec<QAff>, Vec<QAff>)> {
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    for c in cons {
        let a = c.aff.coeff(level);
        if a == 0 {
            continue;
        }
        // rest = aff with the level coefficient zeroed.
        let mut rest = c.aff.clone();
        rest.coeffs_mut()[level] = 0;
        match c.kind {
            ConstraintKind::Ineq => {
                if a > 0 {
                    // a*x + r >= 0  =>  x >= ceil(-r / a)
                    lowers.push(QAff { num: rest.scale(-1), den: a, ceil: true });
                } else {
                    // a*x + r >= 0  =>  x <= floor(r / -a)
                    uppers.push(QAff { num: rest, den: -a, ceil: false });
                }
            }
            ConstraintKind::Eq => {
                let (num_lo, num_hi, den) = if a > 0 {
                    (rest.scale(-1), rest.scale(-1), a)
                } else {
                    (rest.clone(), rest, -a)
                };
                lowers.push(QAff { num: num_lo, den, ceil: true });
                uppers.push(QAff { num: num_hi, den, ceil: false });
            }
        }
    }
    if lowers.is_empty() || uppers.is_empty() {
        return Err(Error::Inexact(format!(
            "statement {name}: schedule dimension {level} is unbounded"
        )));
    }
    Ok((lowers, uppers))
}

/// Walks the AST, calling `visit(stmt_index, original_iters)` for every
/// statement instance, in execution order, for the given parameter values.
/// This reference interpreter defines the semantics of the AST and is used
/// by backends and tests.
pub fn interpret(nodes: &[AstNode], m: usize, params: &[i64], visit: &mut impl FnMut(usize, &[i64])) {
    let mut point = vec![0i64; m + params.len()];
    point[m..].copy_from_slice(params);
    interpret_rec(nodes, &mut point, visit);
}

fn interpret_rec(
    nodes: &[AstNode],
    point: &mut Vec<i64>,
    visit: &mut impl FnMut(usize, &[i64]),
) {
    for n in nodes {
        match n {
            AstNode::For { level, lower, upper, body, .. } => {
                let lo = lower.eval(point);
                let hi = upper.eval(point);
                for v in lo..=hi {
                    point[*level] = v;
                    interpret_rec(body, point, visit);
                }
                point[*level] = 0;
            }
            AstNode::Stmt { index, iters, guard, .. } => {
                let ok = guard.iter().all(|c| {
                    let v = c.aff.eval(point);
                    match c.kind {
                        ConstraintKind::Eq => v == 0,
                        ConstraintKind::Ineq => v >= 0,
                    }
                });
                if ok {
                    let iters: Vec<i64> = iters.iter().map(|q| q.eval(point)).collect();
                    visit(*index, &iters);
                }
            }
        }
    }
}

/// Pretty-prints the AST as pseudo-code (used by tests and the
/// documentation examples).
pub fn pretty(nodes: &[AstNode], dim_names: &[String], param_names: &[String]) -> String {
    let mut out = String::new();
    pretty_rec(nodes, dim_names, param_names, 0, &mut out);
    out
}

fn pretty_rec(
    nodes: &[AstNode],
    dims: &[String],
    params: &[String],
    indent: usize,
    out: &mut String,
) {
    let mut names: Vec<String> = dims.to_vec();
    names.extend_from_slice(params);
    let pad = "  ".repeat(indent);
    for n in nodes {
        match n {
            AstNode::For { var, lower, upper, body, .. } => {
                out.push_str(&format!(
                    "{pad}for ({var} = {}; {var} <= {}; {var}++)\n",
                    fmt_expr(lower, &names),
                    fmt_expr(upper, &names)
                ));
                pretty_rec(body, dims, params, indent + 1, out);
            }
            AstNode::Stmt { name, iters, guard, .. } => {
                let it: Vec<String> =
                    iters.iter().map(|q| fmt_qaff(q, &names)).collect();
                if guard.is_empty() {
                    out.push_str(&format!("{pad}{name}({});\n", it.join(", ")));
                } else {
                    out.push_str(&format!("{pad}if (...) {name}({});\n", it.join(", ")));
                }
            }
        }
    }
}

fn fmt_qaff(q: &QAff, names: &[String]) -> String {
    if q.den == 1 {
        q.num.display_with(names)
    } else if q.ceil {
        format!("ceil(({}) / {})", q.num.display_with(names), q.den)
    } else {
        format!("floor(({}) / {})", q.num.display_with(names), q.den)
    }
}

fn fmt_expr(e: &AstExpr, names: &[String]) -> String {
    match e {
        AstExpr::Max(v) if v.len() == 1 => fmt_qaff(&v[0], names),
        AstExpr::Min(v) if v.len() == 1 => fmt_qaff(&v[0], names),
        AstExpr::Max(v) => format!(
            "max({})",
            v.iter().map(|q| fmt_qaff(q, names)).collect::<Vec<_>>().join(", ")
        ),
        AstExpr::Min(v) => format!(
            "min({})",
            v.iter().map(|q| fmt_qaff(q, names)).collect::<Vec<_>>().join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    /// Brute-force reference: enumerate all domain points, order by
    /// schedule vector, return (stmt_index, iters) sequence.
    fn reference_order(
        stmts: &[ScheduledStmt],
        params: &[i64],
        search: std::ops::RangeInclusive<i64>,
    ) -> Vec<(usize, Vec<i64>)> {
        let mut entries: Vec<(Vec<i64>, usize, Vec<i64>)> = Vec::new();
        for (idx, s) in stmts.iter().enumerate() {
            let n = s.domain.space().n_dims();
            let affs = s.schedule.output_affs().unwrap();
            let mut point = vec![*search.start(); n];
            'enumerate: loop {
                if s.domain.contains(&point, params) {
                    let mut full = point.clone();
                    full.extend_from_slice(params);
                    let t: Vec<i64> = affs.iter().map(|a| a.eval(&full)).collect();
                    entries.push((t, idx, point.clone()));
                }
                // Increment the point odometer.
                let mut d = n;
                loop {
                    if d == 0 {
                        break 'enumerate;
                    }
                    d -= 1;
                    if point[d] < *search.end() {
                        point[d] += 1;
                        for p in point.iter_mut().skip(d + 1) {
                            *p = *search.start();
                        }
                        break;
                    }
                }
            }
        }
        entries.sort();
        entries.into_iter().map(|(_, i, p)| (i, p)).collect()
    }

    fn run_ast(stmts: &[ScheduledStmt], params: &[i64]) -> Vec<(usize, Vec<i64>)> {
        let m = stmts[0].schedule.space().n_out();
        let ast = build_ast(stmts, &AstBuild::default()).unwrap();
        let mut got = Vec::new();
        interpret(&ast, m, params, &mut |i, iters| got.push((i, iters.to_vec())));
        got
    }

    fn simple_stmt(
        name: &str,
        dom: &[&str],
        sched_affs: Vec<Aff>,
        dims: &[&str],
        params: &[&str],
        m: usize,
    ) -> ScheduledStmt {
        let space = Space::set(name, dims, params);
        let domain = BasicSet::from_constraint_strs(&space, dom).unwrap();
        let tnames: Vec<String> = (0..m).map(|i| format!("t{i}")).collect();
        let tname_refs: Vec<&str> = tnames.iter().map(|s| s.as_str()).collect();
        let tspace = Space::set("T", &tname_refs, params);
        let schedule = BasicMap::from_output_affs(&space, &tspace, &sched_affs);
        ScheduledStmt { name: name.to_string(), domain, schedule }
    }

    #[test]
    fn single_rect_loop_nest() {
        // { S[i,j] : 0<=i<4, 0<=j<3 }, schedule (0, i, 0, j, 0).
        let n = 2 + 1;
        let s = simple_stmt(
            "S",
            &["i >= 0", "i <= 3", "j >= 0", "j <= 2"],
            vec![
                Aff::constant(n, 0),
                Aff::var(n, 0),
                Aff::constant(n, 0),
                Aff::var(n, 1),
                Aff::constant(n, 0),
            ],
            &["i", "j"],
            &[],
            5,
        );
        let got = run_ast(std::slice::from_ref(&s), &[]);
        let expect = reference_order(&[s], &[], -1..=5);
        assert_eq!(got, expect);
        assert_eq!(got.len(), 12);
        assert_eq!(got[0], (0, vec![0, 0]));
        assert_eq!(got[11], (0, vec![3, 2]));
    }

    #[test]
    fn triangular_domain() {
        // { S[i,j] : 0<=i<=4, 0<=j<=i } — non-rectangular (the paper's
        // ticket #2373 shape).
        let n = 3;
        let s = simple_stmt(
            "S",
            &["i >= 0", "i <= 4", "j >= 0", "j <= i"],
            vec![Aff::var(n, 0), Aff::var(n, 1)],
            &["i", "j"],
            &[],
            2,
        );
        let got = run_ast(std::slice::from_ref(&s), &[]);
        let expect = reference_order(&[s], &[], -1..=6);
        assert_eq!(got, expect);
        assert_eq!(got.len(), 15); // 1+2+3+4+5
    }

    #[test]
    fn two_statements_ordered_by_static_dim() {
        // A then B at the outermost static level.
        let n = 2;
        let a = simple_stmt(
            "A",
            &["i >= 0", "i <= 2"],
            vec![Aff::constant(n, 0), Aff::var(n, 0)],
            &["i"],
            &[],
            2,
        );
        let b = simple_stmt(
            "B",
            &["i >= 0", "i <= 2"],
            vec![Aff::constant(n, 1), Aff::var(n, 0)],
            &["i"],
            &[],
            2,
        );
        let got = run_ast(&[a, b], &[]);
        assert_eq!(
            got,
            vec![
                (0, vec![0]),
                (0, vec![1]),
                (0, vec![2]),
                (1, vec![0]),
                (1, vec![1]),
                (1, vec![2])
            ]
        );
    }

    #[test]
    fn fused_statements_interleave() {
        // Same schedule prefix (0, i): A(i) then B(i) inside one loop.
        let n = 2;
        let a = simple_stmt(
            "A",
            &["i >= 0", "i <= 2"],
            vec![Aff::constant(n, 0), Aff::var(n, 0), Aff::constant(n, 0)],
            &["i"],
            &[],
            3,
        );
        let b = simple_stmt(
            "B",
            &["i >= 0", "i <= 2"],
            vec![Aff::constant(n, 0), Aff::var(n, 0), Aff::constant(n, 1)],
            &["i"],
            &[],
            3,
        );
        let got = run_ast(&[a, b], &[]);
        assert_eq!(
            got,
            vec![
                (0, vec![0]),
                (1, vec![0]),
                (0, vec![1]),
                (1, vec![1]),
                (0, vec![2]),
                (1, vec![2])
            ]
        );
    }

    #[test]
    fn fused_with_different_extents_guards() {
        // A spans 0..=4, B spans 0..=2 in the same fused loop: guards must
        // keep B silent for i in 3..=4.
        let n = 2;
        let a = simple_stmt(
            "A",
            &["i >= 0", "i <= 4"],
            vec![Aff::var(n, 0), Aff::constant(n, 0)],
            &["i"],
            &[],
            2,
        );
        let b = simple_stmt(
            "B",
            &["i >= 0", "i <= 2"],
            vec![Aff::var(n, 0), Aff::constant(n, 1)],
            &["i"],
            &[],
            2,
        );
        let got = run_ast(&[a.clone(), b.clone()], &[]);
        let expect = reference_order(&[a, b], &[], -1..=6);
        assert_eq!(got, expect);
        assert_eq!(got.iter().filter(|(i, _)| *i == 1).count(), 3);
        assert_eq!(got.iter().filter(|(i, _)| *i == 0).count(), 5);
    }

    #[test]
    fn tiled_schedule_round_trips() {
        // S[i] with i = 4*i0 + i1 schedule (i0, i1): visits 0..=9 in order.
        let space = Space::set("S", &["i"], &[]);
        let domain =
            BasicSet::from_constraint_strs(&space, &["i >= 0", "i <= 9"]).unwrap();
        let tspace = Space::set("T", &["i0", "i1"], &[]);
        let ms = crate::space::MapSpace::new(space.clone(), tspace);
        // i = 4 i0 + i1, 0 <= i1 <= 3.
        let schedule = BasicMap::from_constraint_strs(
            &ms,
            &["i = 4i0 + i1", "i1 >= 0", "i1 <= 3"],
        )
        .unwrap();
        let s = ScheduledStmt { name: "S".into(), domain, schedule };
        let ast = build_ast(&[s], &AstBuild::default()).unwrap();
        let mut got = Vec::new();
        interpret(&ast, 2, &[], &mut |i, iters| got.push((i, iters.to_vec())));
        let expect: Vec<(usize, Vec<i64>)> = (0..=9).map(|i| (0usize, vec![i])).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn parametric_bounds_pretty_print() {
        let n = 3; // columns: [i, N, 1]
        let s = simple_stmt(
            "S",
            &["i >= 0", "i < N"],
            vec![Aff::var(n, 0)],
            &["i"],
            &["N"],
            1,
        );
        let ast = build_ast(&[s], &AstBuild::default()).unwrap();
        let text = pretty(&ast, &["c0".into()], &["N".into()]);
        assert!(text.contains("for (c0 = 0; c0 <= N - 1; c0++)"), "got:\n{text}");
        // Execute with N = 3.
        let mut got = Vec::new();
        interpret(&ast, 1, &[3], &mut |i, iters| got.push((i, iters.to_vec())));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn skewed_schedule_is_scanned_correctly() {
        // Skew: (i, j) -> (i + j, j); a transformation Halide cannot express.
        let n = 3;
        let s = simple_stmt(
            "S",
            &["i >= 0", "i <= 3", "j >= 0", "j <= 3"],
            vec![Aff::var(n, 0).add(&Aff::var(n, 1)), Aff::var(n, 1)],
            &["i", "j"],
            &[],
            2,
        );
        let got = run_ast(std::slice::from_ref(&s), &[]);
        let expect = reference_order(&[s], &[], -1..=8);
        assert_eq!(got, expect);
        assert_eq!(got.len(), 16);
    }

    #[test]
    fn empty_domain_produces_no_nodes() {
        let n = 2;
        let s = simple_stmt(
            "S",
            &["i >= 0", "i <= -1"],
            vec![Aff::var(n, 0)],
            &["i"],
            &[],
            1,
        );
        let ast = build_ast(&[s], &AstBuild::default()).unwrap();
        assert!(ast.is_empty());
    }
}
