//! Lowering Layer II state into the common time–space used by AST
//! generation and legality checking.
//!
//! Every computation's schedule (dynamic relation + static `beta` vector)
//! is interleaved into the classic `2d+1` time vector
//! `[β0, t0, β1, t1, ..., t_{D-1}, β_D]`, padded with zeros to the maximal
//! depth `D` across the function, so that all computations share one
//! schedule space (lexicographic order over it is total execution order).

use crate::expr::CompId;
use crate::function::{CompKind, Error, Function, Result, Tag};
use polyhedral::{Aff, BasicMap, Constraint, MapSpace, ScheduledStmt, Space};
use std::collections::HashMap;

/// The lowered (Layer II-complete) view of a function.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// One scheduled statement per generated computation, aligned with
    /// [`Lowered::comp_ids`].
    pub stmts: Vec<ScheduledStmt>,
    /// The computation each statement came from.
    pub comp_ids: Vec<CompId>,
    /// Number of time dimensions (`2D + 1`).
    pub m: usize,
    /// Maximal dynamic depth `D`.
    pub depth: usize,
    /// Hardware tag per (computation, time position); position `2k+1` is
    /// dynamic level `k` of that computation.
    pub comp_level_tags: HashMap<(u32, usize), Tag>,
}

impl Lowered {
    /// Tag attached by computation `comp` to time position `pos`.
    pub(crate) fn tag_of(&self, comp: u32, pos: usize) -> Option<Tag> {
        self.comp_level_tags.get(&(comp, pos)).copied()
    }

    /// Resolves the tag of an AST loop node: the computations under the
    /// node must agree (fused computations sharing a loop must tag it
    /// identically — conflicting tags are a scheduling error).
    ///
    /// # Errors
    ///
    /// [`Error::Command`] on conflicting tags within one loop.
    pub(crate) fn tag_of_node(&self, node: &polyhedral::AstNode) -> Result<Option<Tag>> {
        let polyhedral::AstNode::For { level, .. } = node else { return Ok(None) };
        let mut stmts = Vec::new();
        collect_stmt_indices(node, &mut stmts);
        let mut found: Option<Tag> = None;
        for s in stmts {
            let comp = self.comp_ids[s].0;
            if let Some(t) = self.tag_of(comp, *level) {
                match found {
                    None => found = Some(t),
                    Some(prev) if prev != t => {
                        return Err(Error::Command(format!(
                            "conflicting tags in one fused loop (position {level}): {prev:?} vs {t:?}"
                        )))
                    }
                    _ => {}
                }
            }
        }
        Ok(found)
    }
}

/// Collects the statement indices under an AST node.
pub(crate) fn collect_stmt_indices(node: &polyhedral::AstNode, out: &mut Vec<usize>) {
    match node {
        polyhedral::AstNode::For { body, .. } => {
            for n in body {
                collect_stmt_indices(n, out);
            }
        }
        polyhedral::AstNode::Stmt { index, .. } => out.push(*index),
    }
}

/// Builds the full interleaved schedule of one computation, padded to
/// depth `depth`.
///
/// # Errors
///
/// None currently; kept fallible for future extension.
pub fn full_schedule(f: &Function, comp: CompId, depth: usize) -> Result<BasicMap> {
    let c = f.comp(comp);
    let d = c.dyn_names.len();
    assert!(d <= depth);
    let m = 2 * depth + 1;
    let param_refs: Vec<&str> = f.params.iter().map(|s| s.as_str()).collect();
    let time_names: Vec<String> = (0..m)
        .map(|p| {
            if p % 2 == 0 {
                format!("b{}", p / 2)
            } else {
                let k = (p - 1) / 2;
                c.dyn_names.get(k).cloned().unwrap_or_else(|| format!("pad{k}"))
            }
        })
        .collect();
    let time_refs: Vec<&str> = time_names.iter().map(|s| s.as_str()).collect();
    let out_space = Space::set("time", &time_refs, &param_refs);
    let ms = MapSpace::new(c.domain.space().clone(), out_space);
    let n_in = ms.n_in();
    let n_out = m;
    let total = ms.n_cols();
    let n_params = f.params.len();

    let mut cons: Vec<Constraint> = Vec::new();
    // Dynamic constraints: remap the sched relation's out column k to time
    // column 2k+1. sched columns: [in, dyn(d), params, 1].
    for con in c.sched.constraints() {
        let mut row = vec![0i64; total];
        for (i, r) in row.iter_mut().enumerate().take(n_in) {
            *r = con.aff.coeff(i);
        }
        for k in 0..d {
            row[n_in + 2 * k + 1] = con.aff.coeff(n_in + k);
        }
        for q in 0..n_params {
            row[n_in + n_out + q] = con.aff.coeff(n_in + d + q);
        }
        row[total - 1] = con.aff.const_term();
        cons.push(Constraint { aff: Aff::from_coeffs(row), kind: con.kind });
    }
    // Static dims: b_k = betas[k] for k <= d, 0 beyond; padded dynamic
    // dims: t_k = 0 for k >= d.
    for k in 0..=depth {
        let v = if k < c.betas.len() { c.betas[k] } else { 0 };
        let aff = Aff::var(total, n_in + 2 * k).add(&Aff::constant(total, -v));
        cons.push(Constraint::eq(aff));
    }
    for k in d..depth {
        cons.push(Constraint::eq(Aff::var(total, n_in + 2 * k + 1)));
    }
    Ok(BasicMap::from_constraints(ms, cons))
}

/// Lowers a function: builds the padded schedules for every generated
/// computation and merges hardware tags per time position.
///
/// # Errors
///
/// [`Error::Command`] when two computations attach *different* tags to the
/// same shared loop level.
pub fn lower(f: &Function) -> Result<Lowered> {
    let mut depth = 1;
    for c in &f.comps {
        if c.kind == CompKind::Computation && !c.inlined {
            depth = depth.max(c.dyn_names.len());
        }
    }
    let m = 2 * depth + 1;
    let mut stmts = Vec::new();
    let mut comp_ids = Vec::new();
    let mut comp_level_tags: HashMap<(u32, usize), Tag> = HashMap::new();
    for (idx, c) in f.comps.iter().enumerate() {
        if c.kind != CompKind::Computation || c.inlined {
            continue;
        }
        let id = CompId(idx as u32);
        let schedule = full_schedule(f, id, depth)?;
        for (k, name) in c.dyn_names.iter().enumerate() {
            if let Some(tag) = c.tags.get(name) {
                comp_level_tags.insert((idx as u32, 2 * k + 1), *tag);
            }
        }
        stmts.push(ScheduledStmt {
            name: c.name.clone(),
            domain: c.domain.clone(),
            schedule,
        });
        comp_ids.push(id);
    }
    Ok(Lowered { stmts, comp_ids, m, depth, comp_level_tags })
}

/// Specializes the lowered statements to concrete parameter values
/// (intersects every domain with `param = value`). Backends do this before
/// AST generation so bound pruning and tile separation can exploit the
/// actual sizes — the same specialization the paper applies when
/// generating fixed-size kernel versions (§VI-A, Conv).
pub fn specialize_params(lowered: &mut Lowered, f: &Function, values: &HashMap<String, i64>) {
    for stmt in &mut lowered.stmts {
        let mut dom = stmt.domain.clone();
        for (q, p) in f.params.iter().enumerate() {
            if let Some(v) = values.get(p) {
                dom = dom.fix_param(q, *v);
            }
        }
        stmt.domain = dom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn full_schedule_interleaves_betas() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let _b = f.computation("B", std::slice::from_ref(&i), Expr::f32(2.0)).unwrap();
        let low = lower(&f).unwrap();
        assert_eq!(low.m, 3); // [b0, t0, b1]
        // A at beta0 = 0, B at beta0 = 1: check via the schedules' images.
        let dom = polyhedral::BasicSet::from_constraint_strs(
            f.comp(a).domain.space(),
            &["i = 5"],
        )
        .unwrap();
        let (img_a, _) = low.stmts[0].schedule.apply(&dom).unwrap();
        assert!(img_a.contains(&[0, 5, 0], &[100]));
        let (img_b, _) = low.stmts[1].schedule.apply(&dom).unwrap();
        assert!(img_b.contains(&[1, 5, 0], &[100]));
    }

    #[test]
    fn padding_to_max_depth() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let _b = f.computation("B", &[i.clone(), j.clone()], Expr::f32(2.0)).unwrap();
        let low = lower(&f).unwrap();
        assert_eq!(low.depth, 2);
        assert_eq!(low.m, 5);
        let dom = polyhedral::BasicSet::from_constraint_strs(
            f.comp(a).domain.space(),
            &["i = 5"],
        )
        .unwrap();
        // A's padded schedule: (0, 5, 0, 0, 0).
        let (img, _) = low.stmts[0].schedule.apply(&dom).unwrap();
        assert!(img.contains(&[0, 5, 0, 0, 0], &[100]));
    }

    #[test]
    fn tags_collected_by_time_position() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let a = f.computation("A", &[i, j], Expr::f32(1.0)).unwrap();
        f.parallelize(a, "i").unwrap();
        let low = lower(&f).unwrap();
        assert_eq!(low.tag_of(a.0, 1), Some(Tag::Parallel));
        assert_eq!(low.tag_of(a.0, 3), None);
    }

    #[test]
    fn conflicting_tags_on_unfused_nests_are_fine() {
        // Two separate top-level nests may tag the same position
        // differently; only fused loops must agree (checked per AST node).
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let b = f.computation("B", std::slice::from_ref(&i), Expr::f32(2.0)).unwrap();
        f.parallelize(a, "i").unwrap();
        let _inner = f.vectorize(b, "i", 8).unwrap();
        assert!(lower(&f).is_ok());
    }

    #[test]
    fn inlined_computations_are_skipped() {
        let mut f = Function::new("t", &[]);
        let i = f.var("i", 0, 10);
        let a = f
            .computation("A", std::slice::from_ref(&i), Expr::cast_f32(Expr::iter("i")))
            .unwrap();
        let acc = f.access(a, &[Expr::iter("i")]);
        let _b = f.computation("B", std::slice::from_ref(&i), acc).unwrap();
        f.inline(a).unwrap();
        let low = lower(&f).unwrap();
        assert_eq!(low.stmts.len(), 1);
        assert_eq!(low.stmts[0].name, "B");
    }
}

/// Renders the four IR layers of a function in the paper's notation
/// (§IV-C): Layer I iteration domains + expressions, Layer II time–space
/// mappings with tags, Layer III access relations, Layer IV communication
/// operations. Useful for debugging schedules and for teaching — this is
/// the textual form the paper's examples use.
pub fn dump_layers(f: &Function) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "=== Layer I (abstract algorithm) ===");
    for c in &f.comps {
        if c.kind != CompKind::Computation || c.inlined {
            continue;
        }
        let _ = writeln!(out, "{} : {}", c.name, c.domain.to_isl_string());
    }
    let _ = writeln!(out, "\n=== Layer II (computation management) ===");
    let depth = f
        .comps
        .iter()
        .filter(|c| c.kind == CompKind::Computation && !c.inlined)
        .map(|c| c.dyn_names.len())
        .max()
        .unwrap_or(1);
    for (i, c) in f.comps.iter().enumerate() {
        if c.kind != CompKind::Computation || c.inlined {
            continue;
        }
        if let Ok(sched) = full_schedule(f, CompId(i as u32), depth) {
            let _ = writeln!(out, "{} : {}", c.name, sched.to_isl_string());
        }
        for (name, tag) in &c.tags {
            let _ = writeln!(out, "  tag {name}: {tag:?}");
        }
    }
    let _ = writeln!(out, "\n=== Layer III (data management) ===");
    for c in &f.comps {
        if c.inlined {
            continue;
        }
        let buf = match c.store_buffer {
            Some(b) => f.buffers[b.index()].name.clone(),
            None => c.name.clone(),
        };
        let idx = match &c.store_idx {
            Some(v) => format!("{v:?}"),
            None => format!("identity over {:?}", c.iters),
        };
        let _ = writeln!(out, "{}({:?}) -> {buf}[{idx}]", c.name, c.iters);
    }
    let _ = writeln!(out, "\n=== Layer IV (communication management) ===");
    if f.comm.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for op in &f.comm {
        let _ = writeln!(out, "{:?} on {} (count {:?})", op.kind, op.buffer, op.count);
    }
    out
}

#[cfg(test)]
mod dump_tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn dump_layers_mentions_all_layers() {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("A", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        f.parallelize(a, "i").unwrap();
        let is = crate::function::Var::new("is", Expr::i64(1), Expr::param("N"));
        let _ = f.send(is, "A", Expr::i64(0), Expr::i64(1), Expr::i64(0), true);
        let text = dump_layers(&f);
        assert!(text.contains("Layer I"));
        assert!(text.contains("Layer II"));
        assert!(text.contains("tag i: Parallel"));
        assert!(text.contains("Layer III"));
        assert!(text.contains("Layer IV"));
        assert!(text.contains("Send"));
    }
}
