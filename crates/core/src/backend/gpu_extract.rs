//! GPU kernel extraction: mapping `gpuB`/`gpuT`-tagged loop nests of the
//! resolved tree to `gpusim` launch geometry.
//!
//! A kernel is rooted at a `gpuB`-tagged loop; the (1–2) block loops form
//! a single-child spine, and the body below them contains one or more
//! *phases* (children), each rooted at `gpuT`-tagged loops — e.g. a
//! cooperative `cache_shared_at` copy followed by the computation. Phases
//! execute with block-level barriers between them. Partial tiles become
//! lane guards (the divergence the simulator prices).

use crate::backend::lowered::{EmitTarget, LoopNode, LoweredModule};
use crate::function::{Error, Result, Tag};
use gpusim::Kernel;
use loopvm::{Expr as VExpr, Stmt};
use polyhedral::{AstExpr, QAff};

/// A recognized GPU loop level: its bounds and schedule position.
struct GpuLevel {
    level: usize,
    lower: AstExpr,
    upper: AstExpr,
}

/// A thread axis extracted from one phase: iteration extent, dynamic
/// start expression, and leftover bound guards.
struct ThreadAxis {
    extent: i64,
    lo: VExpr,
    guards: Vec<(bool, VExpr)>, // (is_lower, bound expr) vs the level var
    level: usize,
}

/// Whether any loop under `node` carries a GPU tag (used to distinguish
/// "malformed kernel nest" from "host-side computation" errors).
pub(crate) fn subtree_has_gpu_tag(node: &LoopNode) -> bool {
    match node {
        LoopNode::Loop { tag, body, .. } => {
            matches!(tag, Some(Tag::GpuBlock(_)) | Some(Tag::GpuThread(_)))
                || body.iter().any(subtree_has_gpu_tag)
        }
        LoopNode::Stmt { .. } => false,
    }
}

/// Tries to extract a kernel from a resolved node rooted at a
/// `gpuB`-tagged loop. Returns `Ok(None)` when the root is not
/// block-tagged.
pub(crate) fn try_extract_kernel<T: EmitTarget + ?Sized>(
    lm: &mut LoweredModule<'_>,
    target: &mut T,
    node: &LoopNode,
    param_lets: &[Stmt],
) -> Result<Option<Kernel>> {
    let LoopNode::Loop { tag: Some(Tag::GpuBlock(_)), .. } = node else {
        return Ok(None);
    };
    // Collect the (1-2) block loops along the single-child spine.
    let mut blocks: Vec<GpuLevel> = Vec::new();
    let mut current = node;
    let phase_nodes: &[LoopNode] = loop {
        let LoopNode::Loop { level, tag, lower, upper, body } = current else {
            return Err(Error::Backend("malformed kernel nest".into()));
        };
        if matches!(tag, Some(Tag::GpuBlock(_))) && blocks.len() < 2 {
            blocks.push(GpuLevel { level: *level, lower: lower.clone(), upper: upper.clone() });
            if body.len() == 1
                && matches!(&body[0], LoopNode::Loop { tag: Some(Tag::GpuBlock(_)), .. })
                && blocks.len() < 2
            {
                current = &body[0];
                continue;
            }
            break body;
        }
        return Err(Error::Backend("malformed kernel nest".into()));
    };

    let mut grid = [1i64, 1i64];
    let mut block_vars = [None, None];
    let mut index_lets: Vec<Stmt> = Vec::new();
    let mut block_guards: Vec<VExpr> = Vec::new();
    for (d, b) in blocks.iter().enumerate() {
        let lo = const_candidate(lm, &b.lower).ok_or_else(|| {
            Error::Backend("block loop lower bound needs a constant candidate".into())
        })?;
        let hi = const_candidate(lm, &b.upper).ok_or_else(|| {
            Error::Backend("block loop upper bound needs a constant candidate".into())
        })?;
        grid[d] = (hi - lo + 1).max(0);
        let raw = lm.program.var(&format!("blockIdx{d}"));
        block_vars[d] = Some(raw);
        index_lets.push(Stmt::let_(
            lm.time_vars[b.level],
            VExpr::var(raw) + VExpr::i64(lo),
        ));
        for q in b.upper.candidates() {
            if aff_is_param_const(lm, q).is_none() {
                let bound = lm.conv_qaff(q);
                block_guards.push(VExpr::le(VExpr::var(lm.time_vars[b.level]), bound));
            }
        }
        for q in b.lower.candidates() {
            if aff_is_param_const(lm, q).is_none() {
                let bound = lm.conv_qaff(q);
                block_guards.push(VExpr::le(bound, VExpr::var(lm.time_vars[b.level])));
            }
        }
    }

    // Extract each phase: its thread loops and converted body.
    struct Phase {
        axes: Vec<ThreadAxis>,
        body: Vec<Stmt>,
    }
    let mut phases: Vec<Phase> = Vec::new();
    for child in phase_nodes {
        let mut axes: Vec<ThreadAxis> = Vec::new();
        let mut cur = child;
        let inner: &[LoopNode] = loop {
            let LoopNode::Loop { level, tag, lower, upper, body } = cur else {
                break std::slice::from_ref(cur);
            };
            if matches!(tag, Some(Tag::GpuThread(_))) && axes.len() < 2 {
                axes.push(thread_axis(lm, *level, lower, upper)?);
                if body.len() == 1 {
                    cur = &body[0];
                    continue;
                }
                break body;
            }
            break std::slice::from_ref(cur);
        };
        if axes.is_empty() {
            return Err(Error::Backend(
                "kernel phase without gpuT-tagged loops (tag the copy/computation loops)"
                    .into(),
            ));
        }
        let body = lm.convert_nodes(inner, target)?;
        phases.push(Phase { axes, body });
    }
    if phases.is_empty() {
        return Err(Error::Backend("gpuB-tagged loop without a kernel body".into()));
    }

    // Block geometry: the max extent over phases, per axis.
    let mut block = [1i64, 1i64];
    for ph in &phases {
        for (d, ax) in ph.axes.iter().enumerate() {
            block[d] = block[d].max(ax.extent.max(0));
        }
    }
    let mut thread_vars = [None, None];
    for (d, tv) in thread_vars.iter_mut().enumerate() {
        if block[d] > 1 || phases.iter().any(|p| p.axes.len() > d) {
            *tv = Some(lm.program.var(&format!("threadIdx{d}")));
        }
    }

    // Assemble the kernel: one phase per child, a block-level barrier
    // between consecutive phases (cooperative phases synchronize
    // block-wide). The parameter and block-index bindings open phase 0;
    // variable frames persist across phases.
    let mut prefix: Vec<Stmt> = param_lets.to_vec();
    prefix.extend(index_lets);
    let mut phase_stmts: Vec<Vec<Stmt>> = Vec::with_capacity(phases.len());
    for ph in phases {
        let mut stmts = std::mem::take(&mut prefix);
        let mut guards: Vec<VExpr> = block_guards.clone();
        for (d, ax) in ph.axes.iter().enumerate() {
            let raw = thread_vars[d].expect("axis var allocated");
            stmts.push(Stmt::let_(
                lm.time_vars[ax.level],
                VExpr::var(raw) + ax.lo.clone(),
            ));
            // Mask lanes beyond this phase's extent (other phases may be
            // wider) and apply leftover bound candidates.
            if ax.extent < block[d] {
                guards.push(VExpr::lt(VExpr::var(raw), VExpr::i64(ax.extent)));
            }
            let v = lm.time_vars[ax.level];
            for (is_lower, bound) in &ax.guards {
                if *is_lower {
                    guards.push(VExpr::le(bound.clone(), VExpr::var(v)));
                } else {
                    guards.push(VExpr::le(VExpr::var(v), bound.clone()));
                }
            }
        }
        match guards.into_iter().reduce(VExpr::and) {
            Some(cond) => stmts.push(Stmt::if_then(cond, ph.body)),
            None => stmts.extend(ph.body),
        }
        phase_stmts.push(stmts);
    }

    let mut kernel = Kernel::phased(lm.program.clone(), phase_stmts, grid, block);
    kernel.block_vars = block_vars;
    kernel.thread_vars = thread_vars;
    Ok(Some(kernel))
}

/// Extracts a thread axis from a `gpuT` loop: picks the candidate bound
/// pair whose difference is a parameter-constant (the structural tile
/// extent), makes the lower bound the dynamic start, and turns every other
/// candidate into a lane guard.
fn thread_axis(
    lm: &mut LoweredModule<'_>,
    level: usize,
    lower: &AstExpr,
    upper: &AstExpr,
) -> Result<ThreadAxis> {
    let mut best: Option<(i64, QAff, QAff)> = None;
    for lc in lower.candidates() {
        if lc.den != 1 {
            continue;
        }
        for uc in upper.candidates() {
            if uc.den != 1 {
                continue;
            }
            let diff = uc.num.sub(&lc.num);
            let q = QAff { num: diff, den: 1, ceil: false };
            if let Some(d) = aff_is_param_const(lm, &q) {
                if best.as_ref().map(|(e, _, _)| d + 1 < *e).unwrap_or(true) {
                    best = Some((d + 1, lc.clone(), uc.clone()));
                }
            }
        }
    }
    let (extent, lc, uc) = best.ok_or_else(|| {
        Error::Backend("thread loop bounds have no constant-extent candidate pair".into())
    })?;
    let mut guards = Vec::new();
    for q in lower.candidates() {
        if q != &lc {
            guards.push((true, lm.conv_qaff(q)));
        }
    }
    for q in upper.candidates() {
        if q != &uc {
            guards.push((false, lm.conv_qaff(q)));
        }
    }
    Ok(ThreadAxis { extent, lo: lm.conv_qaff(&lc), guards, level })
}

/// Evaluates a bound to a constant using only parameter values, picking
/// the structural (tile-size) candidate: smallest constant for `min`
/// uppers, largest for `max` lowers.
fn const_candidate(lm: &LoweredModule<'_>, e: &AstExpr) -> Option<i64> {
    let vals = e.candidates().iter().map(|q| aff_is_param_const(lm, q));
    match e {
        AstExpr::Min(_) => vals.flatten().min(),
        AstExpr::Max(_) => vals.flatten().max(),
    }
}

/// Evaluates a quasi-affine bound when it only references parameters.
fn aff_is_param_const(lm: &LoweredModule<'_>, q: &QAff) -> Option<i64> {
    let m = lm.lowered.m;
    for t in 0..m {
        if q.num.coeff(t) != 0 {
            return None;
        }
    }
    let mut point = vec![0i64; m + lm.f.params.len()];
    for (k, p) in lm.f.params.iter().enumerate() {
        point[m + k] = lm.param_vals[p];
    }
    Some(q.eval(&point))
}
