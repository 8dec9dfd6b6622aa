//! Layer IV: communication management (§IV-C4).
//!
//! The paper's novel scheduling commands for distributed targets:
//! `send({is}, src, size, dest, {ASYNC})`, `receive({ir}, dst, size, src,
//! {SYNC})` and barriers. Communication operations are declared against a
//! rank-domain iterator, carry explicit buffer/offset/size expressions
//! (this explicitness is exactly what lets Tiramisu move *fewer bytes*
//! than distributed Halide, Fig. 6/7), and are ordered relative to
//! computations with [`Function::comm_before`] (the paper's
//! `s.before(r, root)`).

use crate::expr::{CompId, Expr, Op};
use crate::function::{Error, Function, Result, Var};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Identifier of a communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommId(pub(crate) u32);

/// Send or receive.
#[derive(Debug, Clone)]
pub enum CommKind {
    /// Point-to-point send.
    Send {
        /// Destination rank (expression over the op's iterator + params).
        dest: Expr,
        /// `{ASYNC}` vs `{SYNC}` (rendezvous) semantics.
        asynchronous: bool,
    },
    /// Point-to-point receive.
    Recv {
        /// Source rank (expression over the op's iterator + params).
        src: Expr,
    },
    /// Global barrier (`barrier_at`).
    Barrier,
}

/// One communication operation.
#[derive(Debug, Clone)]
pub struct CommOp {
    /// Send/recv/barrier.
    pub kind: CommKind,
    /// Rank-domain iterator: the op executes on every rank inside the
    /// iterator's bounds (the paper's `send({is}, ...)` domain vector).
    pub iter: Var,
    /// Buffer operated on (Tiramisu buffer name, or a computation name for
    /// auto-buffers). Ignored for barriers.
    pub buffer: String,
    /// Element offset into the buffer (expression over `iter` + params).
    pub offset: Expr,
    /// Element count (expression over `iter` + params).
    pub count: Expr,
    /// Execute before this computation's loop nest (`None` = before
    /// everything, in declaration order).
    pub before: Option<CompId>,
}

impl Function {
    /// `send(d, src, s, q, p)` (Table II): creates a send operation over
    /// the rank iterator `iter`, sending `count` elements of `buffer`
    /// starting at `offset` to rank `dest`.
    pub fn send(
        &mut self,
        iter: Var,
        buffer: &str,
        offset: Expr,
        count: Expr,
        dest: Expr,
        asynchronous: bool,
    ) -> CommId {
        self.comm.push(CommOp {
            kind: CommKind::Send { dest, asynchronous },
            iter,
            buffer: buffer.to_string(),
            offset,
            count,
            before: None,
        });
        CommId((self.comm.len() - 1) as u32)
    }

    /// `receive(d, dst, s, q, p)` (Table II): the matching receive.
    pub fn receive(
        &mut self,
        iter: Var,
        buffer: &str,
        offset: Expr,
        count: Expr,
        src: Expr,
    ) -> CommId {
        self.comm.push(CommOp {
            kind: CommKind::Recv { src },
            iter,
            buffer: buffer.to_string(),
            offset,
            count,
            before: None,
        });
        CommId((self.comm.len() - 1) as u32)
    }

    /// `barrier_at(p, i)` — reduced to a global barrier between program
    /// phases in this reproduction.
    pub fn barrier(&mut self) -> CommId {
        self.comm.push(CommOp {
            kind: CommKind::Barrier,
            iter: Var::new("r", Expr::i64(0), Expr::i64(i64::MAX)),
            buffer: String::new(),
            offset: Expr::i64(0),
            count: Expr::i64(0),
            before: None,
        });
        CommId((self.comm.len() - 1) as u32)
    }

    /// Schedules a communication op before the loop nest of `comp`
    /// (the paper's `s.before(bx, root)`).
    pub fn comm_before(&mut self, op: CommId, comp: CompId) {
        self.comm[op.0 as usize].before = Some(comp);
    }
}

/// Enumerating more ranks than this is treated as "not statically
/// analyzable" rather than burning compile time.
const MAX_STATIC_RANKS: i64 = 4096;

/// Statically validates the Layer IV communication structure of `f` with
/// all parameters bound.
///
/// The rank space is inferred from the communication ops themselves (the
/// maximum upper bound of any send/receive rank iterator; barriers are
/// global and excluded). For every rank in every op's domain the partner
/// expression is evaluated, yielding the full point-to-point graph without
/// lowering or running anything; each directed pair must then post as many
/// receives as it is sent messages. A mismatch is the classic way a
/// hand-scheduled Layer IV program deadlocks at runtime — reporting it
/// here turns a hang into a compile-time legality error.
///
/// Programs whose bounds or partners do not evaluate statically (or with
/// rank spaces beyond `MAX_STATIC_RANKS`) pass: enforcement falls back
/// to the runtime's own validation and progress watchdog.
///
/// # Errors
///
/// [`Error::Illegal`] naming the first mismatched directed pair.
pub fn validate_comm(f: &Function, params: &HashMap<String, i64>) -> Result<()> {
    struct Edge {
        sends: u64,
        recvs: u64,
        buffer: String,
    }
    // Resolve every op's rank domain first; any dynamic bound disables the
    // whole check (a partial graph would produce false mismatches).
    let mut domains: Vec<(usize, i64, i64)> = Vec::new();
    let mut n_ranks: i64 = 0;
    for (idx, op) in f.comm.iter().enumerate() {
        if matches!(op.kind, CommKind::Barrier) {
            // Barriers are global in this reproduction (every rank executes
            // each one exactly once), so arity is uniform by construction.
            continue;
        }
        let (Some(lo), Some(hi)) = (
            eval_comm_expr(&op.iter.lo, &op.iter.name, 0, params),
            eval_comm_expr(&op.iter.hi, &op.iter.name, 0, params),
        ) else {
            return Ok(());
        };
        domains.push((idx, lo.max(0), hi));
        n_ranks = n_ranks.max(hi);
    }
    if domains.is_empty() || n_ranks > MAX_STATIC_RANKS {
        return Ok(());
    }

    let mut edges: BTreeMap<(i64, i64), Edge> = BTreeMap::new();
    for (idx, lo, hi) in domains {
        let op = &f.comm[idx];
        for r in lo..hi {
            let partner = match &op.kind {
                CommKind::Send { dest, .. } => dest,
                CommKind::Recv { src } => src,
                CommKind::Barrier => unreachable!(),
            };
            let Some(p) = eval_comm_expr(partner, &op.iter.name, r, params) else {
                return Ok(());
            };
            // Out-of-range partners are skipped by the runtime (guarded
            // edge-of-rank-space ops); mirror that.
            if p < 0 || p >= n_ranks {
                continue;
            }
            let key = match op.kind {
                CommKind::Send { .. } => (r, p),
                _ => (p, r),
            };
            let e = edges.entry(key).or_insert_with(|| Edge {
                sends: 0,
                recvs: 0,
                buffer: op.buffer.clone(),
            });
            match op.kind {
                CommKind::Send { .. } => e.sends += 1,
                _ => e.recvs += 1,
            }
        }
    }
    for ((src, dst), e) in &edges {
        if e.sends != e.recvs {
            return Err(Error::Illegal(format!(
                "communication mismatch on buffer '{}': rank {src} sends {} \
                 message(s) to rank {dst}, which posts {} matching receive(s)",
                e.buffer, e.sends, e.recvs
            )));
        }
    }
    Ok(())
}

/// Builds the rank program's compute chunks and body: Layer IV ops
/// interleaved with the computation roots (one chunk each) at their
/// scheduled anchors. Unanchored ops run first (declaration order); an op
/// anchored `before` a computation is emitted ahead of the top-level loop
/// nest containing it (the paper's `s.before(bx, root)`).
pub(crate) fn interleave_comm<T: crate::backend::lowered::EmitTarget + ?Sized>(
    lm: &mut crate::backend::lowered::LoweredModule<'_>,
    target: &mut T,
    roots: &[crate::backend::lowered::LoopNode],
    rank_var: loopvm::Var,
) -> Result<(Vec<Vec<loopvm::Stmt>>, Vec<mpisim::DistStmt>)> {
    use crate::backend::lowered::comps_in;
    use mpisim::DistStmt;
    let mut unanchored: Vec<&CommOp> = Vec::new();
    let mut anchored: HashMap<u32, Vec<&CommOp>> = HashMap::new();
    for op in &lm.f.comm {
        match op.before {
            Some(c) => anchored.entry(c.0).or_default().push(op),
            None => unanchored.push(op),
        }
    }
    let mut chunks = Vec::new();
    let mut body: Vec<DistStmt> = Vec::new();
    for op in &unanchored {
        body.push(lower_comm(lm, op, rank_var)?);
    }
    for node in roots {
        for c in &comps_in(node, &lm.lowered) {
            if let Some(ops) = anchored.remove(c) {
                for op in ops {
                    body.push(lower_comm(lm, op, rank_var)?);
                }
            }
        }
        body.push(DistStmt::Compute(chunks.len()));
        chunks.push(lm.convert_nodes(std::slice::from_ref(node), target)?);
    }
    Ok((chunks, body))
}

/// Converts a `distribute()`-tagged loop into a rank conditional
/// (paper §V-A): `for (v in lo..=hi) body` becomes
/// `if (lo <= rank <= hi) { v = rank; body }`. Bounds stay in their raw
/// scheduled form (the simulator prices the arithmetic either way).
pub(crate) fn rank_conditional<T: crate::backend::lowered::EmitTarget + ?Sized>(
    lm: &mut crate::backend::lowered::LoweredModule<'_>,
    target: &mut T,
    node: &crate::backend::lowered::LoopNode,
    rank_var: loopvm::Var,
) -> Result<Vec<loopvm::Stmt>> {
    use crate::backend::lowered::LoopNode;
    use loopvm::{Expr as VExpr, Stmt};
    let LoopNode::Loop { level, lower, upper, body, .. } = node else {
        return Err(Error::Backend("distribute() tag on a statement node".into()));
    };
    let lo = lm.conv_bound(lower);
    let hi = lm.conv_bound(upper);
    let var = lm.time_vars[*level];
    let mut inner = vec![Stmt::let_(var, VExpr::var(rank_var))];
    inner.extend(lm.convert_nodes(body, target)?);
    Ok(vec![Stmt::if_then(
        VExpr::and(
            VExpr::le(lo, VExpr::var(rank_var)),
            VExpr::le(VExpr::var(rank_var), hi),
        ),
        inner,
    )])
}

/// VM statements under the rank-program body (comm ops count as one).
pub(crate) fn count_dist_stmts(dist: &mpisim::DistProgram, body: &[mpisim::DistStmt]) -> usize {
    use mpisim::DistStmt;
    body.iter()
        .map(|s| match s {
            DistStmt::Compute(k) => crate::backend::lowered::count_vm_stmts(dist.chunk_stmts(*k)),
            DistStmt::If { body, .. } => 1 + count_dist_stmts(dist, body),
            DistStmt::Send { .. } | DistStmt::Recv { .. } | DistStmt::Barrier => 1,
        })
        .sum()
}

/// Lowers one Layer IV operation to a `DistStmt`, substituting the op's
/// rank iterator with the rank variable and parameters with their values.
pub(crate) fn lower_comm(
    lm: &crate::backend::lowered::LoweredModule<'_>,
    op: &CommOp,
    rank_var: loopvm::Var,
) -> Result<mpisim::DistStmt> {
    use loopvm::Expr as VExpr;
    use mpisim::DistStmt;
    if matches!(op.kind, CommKind::Barrier) {
        return Ok(DistStmt::Barrier);
    }
    let buf = lm
        .buffer_map
        .get(&op.buffer)
        .copied()
        .ok_or_else(|| Error::Backend(format!("unknown buffer {} in comm op", op.buffer)))?;
    let conv = |e: &Expr| -> Result<VExpr> { conv_comm_expr(lm, e, &op.iter.name, rank_var) };
    // Domain guard: lo <= rank < hi.
    let lo = conv(&op.iter.lo)?;
    let hi = conv(&op.iter.hi)?;
    let guard = VExpr::and(
        VExpr::le(lo, VExpr::var(rank_var)),
        VExpr::lt(VExpr::var(rank_var), hi),
    );
    let inner = match &op.kind {
        CommKind::Send { dest, asynchronous } => DistStmt::Send {
            dest: conv(dest)?,
            buf,
            offset: conv(&op.offset)?,
            count: conv(&op.count)?,
            asynchronous: *asynchronous,
        },
        CommKind::Recv { src } => DistStmt::Recv {
            src: conv(src)?,
            buf,
            offset: conv(&op.offset)?,
            count: conv(&op.count)?,
        },
        CommKind::Barrier => unreachable!(),
    };
    Ok(DistStmt::If { cond: guard, body: vec![inner] })
}

/// Converts a Layer IV expression: the op's iterator becomes the rank
/// variable; parameters become constants (comm expressions are evaluated
/// outside VM frames).
fn conv_comm_expr(
    lm: &crate::backend::lowered::LoweredModule<'_>,
    e: &Expr,
    iter_name: &str,
    rank_var: loopvm::Var,
) -> Result<loopvm::Expr> {
    use loopvm::Expr as VExpr;
    Ok(match e {
        Expr::I64(v) => VExpr::i64(*v),
        Expr::Iter(n) if n == iter_name => VExpr::var(rank_var),
        Expr::Iter(n) => {
            return Err(Error::Backend(format!(
                "communication expressions may only use the op iterator (got {n})"
            )))
        }
        Expr::Param(p) => VExpr::i64(
            *lm.param_vals
                .get(p)
                .ok_or_else(|| Error::UnknownParam(p.clone()))?,
        ),
        Expr::Bin(op, a, b) => {
            let va = conv_comm_expr(lm, a, iter_name, rank_var)?;
            let vb = conv_comm_expr(lm, b, iter_name, rank_var)?;
            let vop = match op {
                Op::Add => loopvm::BinOp::Add,
                Op::Sub => loopvm::BinOp::Sub,
                Op::Mul => loopvm::BinOp::Mul,
                Op::Div => loopvm::BinOp::Div,
                Op::Rem => loopvm::BinOp::Rem,
                Op::Min => loopvm::BinOp::Min,
                Op::Max => loopvm::BinOp::Max,
                Op::Lt => loopvm::BinOp::Lt,
                Op::Le => loopvm::BinOp::Le,
                Op::Eq => loopvm::BinOp::EqCmp,
                Op::And => loopvm::BinOp::And,
                Op::Or => loopvm::BinOp::Or,
            };
            VExpr::Bin(vop, Box::new(va), Box::new(vb))
        }
        other => {
            return Err(Error::Backend(format!(
                "unsupported communication expression: {other:?}"
            )))
        }
    })
}

/// Evaluates a Layer IV expression with the op iterator bound to
/// `iter_val` and parameters bound to `params`. `None` means "not
/// statically evaluable" (foreign iterators, accesses, floats).
fn eval_comm_expr(
    e: &Expr,
    iter_name: &str,
    iter_val: i64,
    params: &HashMap<String, i64>,
) -> Option<i64> {
    let ev = |x: &Expr| eval_comm_expr(x, iter_name, iter_val, params);
    match e {
        Expr::I64(v) => Some(*v),
        Expr::Iter(n) if n == iter_name => Some(iter_val),
        Expr::Param(p) => params.get(p).copied(),
        Expr::Bin(op, a, b) => {
            let (a, b) = (ev(a)?, ev(b)?);
            Some(match op {
                Op::Add => a.checked_add(b)?,
                Op::Sub => a.checked_sub(b)?,
                Op::Mul => a.checked_mul(b)?,
                Op::Div => a.checked_div(b)?,
                Op::Rem => a.checked_rem(b)?,
                Op::Min => a.min(b),
                Op::Max => a.max(b),
                Op::Lt => i64::from(a < b),
                Op::Le => i64::from(a <= b),
                Op::Eq => i64::from(a == b),
                Op::And => i64::from(a != 0 && b != 0),
                Op::Or => i64::from(a != 0 || b != 0),
            })
        }
        Expr::Un(crate::expr::UnOp::Neg, a) => ev(a)?.checked_neg(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: i64) -> HashMap<String, i64> {
        HashMap::from([("Nodes".to_string(), n)])
    }

    fn ring(f: &mut Function, with_recv: bool) {
        let is = Var::new("is", Expr::i64(1), Expr::param("Nodes"));
        f.send(
            is,
            "buf",
            Expr::i64(0),
            Expr::i64(1),
            Expr::iter("is") - Expr::i64(1),
            true,
        );
        if with_recv {
            let ir = Var::new("ir", Expr::i64(0), Expr::param("Nodes") - Expr::i64(1));
            f.receive(
                ir,
                "buf",
                Expr::i64(0),
                Expr::i64(1),
                Expr::iter("ir") + Expr::i64(1),
            );
        }
    }

    #[test]
    fn matched_ring_passes() {
        let mut f = Function::new("ok", &["Nodes"]);
        ring(&mut f, true);
        f.barrier();
        assert!(validate_comm(&f, &params(4)).is_ok());
    }

    #[test]
    fn missing_receive_is_illegal() {
        let mut f = Function::new("bad", &["Nodes"]);
        ring(&mut f, false);
        let err = validate_comm(&f, &params(4)).unwrap_err();
        match err {
            Error::Illegal(msg) => {
                assert!(msg.contains("buffer 'buf'"), "{msg}");
                assert!(msg.contains("0 matching receive"), "{msg}");
            }
            other => panic!("expected Illegal, got {other:?}"),
        }
    }

    #[test]
    fn unbound_param_bails_out_conservatively() {
        let mut f = Function::new("dyn", &["Nodes"]);
        ring(&mut f, false);
        // No bindings: bounds do not evaluate, so the check abstains.
        assert!(validate_comm(&f, &HashMap::new()).is_ok());
    }

    #[test]
    fn comm_free_program_passes() {
        let mut f = Function::new("quiet", &["Nodes"]);
        f.barrier();
        assert!(validate_comm(&f, &params(3)).is_ok());
    }
}
