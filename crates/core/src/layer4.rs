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

use crate::expr::{CompId, Expr};
use crate::function::{Error, Function, Result, Var};
use std::collections::HashMap;

/// Identifier of a communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommId(pub(crate) u32);

/// Send or receive.
#[derive(Debug, Clone, Hash)]
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
#[derive(Debug, Clone, Hash)]
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

/// The rank count the Layer IV ops span, for the static communication
/// check (`mpisim::validate_comm`): the largest send/receive rank-domain
/// upper bound (barriers are global and excluded), evaluated with the op
/// iterator at 0. `None` — the check abstains — when a bound does not
/// evaluate statically or exceeds `MAX_STATIC_RANKS`.
pub(crate) fn static_ranks(
    lm: &crate::backend::lowered::LoweredModule<'_>,
    rank_var: loopvm::Var,
) -> Option<usize> {
    let mut n_ranks = 0;
    for op in lm.f.comm.iter().filter(|op| !matches!(op.kind, CommKind::Barrier)) {
        let hi = conv_comm_expr(lm, &op.iter.hi, &op.iter.name, rank_var).ok()?;
        n_ranks = n_ranks.max(loopvm::try_eval_scalar(&hi, &[])?);
    }
    (n_ranks <= MAX_STATIC_RANKS).then_some(n_ranks as usize)
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
            VExpr::Bin(*op, Box::new(va), Box::new(vb))
        }
        other => {
            return Err(Error::Backend(format!(
                "unsupported communication expression: {other:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::dist::{compile, DistModule, DistOptions};

    /// `Nodes` ranks, each owning one element of `buf`; `comm` adds the
    /// Layer IV ops, all before the computation.
    fn compile_ring(comm: impl FnOnce(&mut Function) -> Vec<CommId>) -> Result<DistModule> {
        let mut f = Function::new("ring", &["Nodes"]);
        let r = f.var("r", 0, Expr::param("Nodes"));
        let buf = f.computation("buf", &[r], Expr::f32(1.0)).unwrap();
        f.distribute(buf, "r").unwrap();
        for op in comm(&mut f) {
            f.comm_before(op, buf);
        }
        compile(&f, &[("Nodes", 4)], DistOptions::default())
    }

    /// Ranks `1..Nodes` send to their left neighbour; with `with_recv`,
    /// ranks `0..Nodes-1` receive from their right one.
    fn ring(f: &mut Function, with_recv: bool) -> Vec<CommId> {
        let is = Var::new("is", Expr::i64(1), Expr::param("Nodes"));
        let left = Expr::iter("is") - Expr::i64(1);
        let mut ops = vec![f.send(is, "buf", Expr::i64(0), Expr::i64(1), left, true)];
        if with_recv {
            let ir = Var::new("ir", Expr::i64(0), Expr::param("Nodes") - Expr::i64(1));
            let right = Expr::iter("ir") + Expr::i64(1);
            ops.push(f.receive(ir, "buf", Expr::i64(0), Expr::i64(1), right));
        }
        ops
    }

    #[test]
    fn matched_ring_passes() {
        let m = compile_ring(|f| {
            let mut ops = ring(f, true);
            ops.push(f.barrier());
            ops
        })
        .unwrap();
        assert!(m.run(4, &mpisim::CommModel::default(), false).is_ok());
    }

    #[test]
    fn missing_receive_is_illegal() {
        match compile_ring(|f| ring(f, false)).unwrap_err() {
            Error::Illegal(msg) => {
                assert!(msg.contains("buffer 'buf'"), "{msg}");
                assert!(msg.contains("0 matching receive"), "{msg}");
            }
            other => panic!("expected Illegal, got {other:?}"),
        }
    }

    /// A periodic ring: rank `r` sends to `(r - 1) % Nodes` and receives
    /// from `(r + 1) % Nodes`. The remainder is Euclidean, as in the rank
    /// program, so rank 0 sends to rank 3: the static check must see that
    /// edge, not drop it as a send to rank -1.
    #[test]
    fn periodic_ring_divides_like_the_runtime() {
        let m = compile_ring(|f| {
            let nodes = || Expr::param("Nodes");
            let is = Var::new("is", Expr::i64(0), nodes());
            let left = (Expr::iter("is") - Expr::i64(1)) % nodes();
            let ir = Var::new("ir", Expr::i64(0), nodes());
            let right = (Expr::iter("ir") + Expr::i64(1)) % nodes();
            vec![
                f.send(is, "buf", Expr::i64(0), Expr::i64(1), left, true),
                f.receive(ir, "buf", Expr::i64(0), Expr::i64(1), right),
            ]
        })
        .unwrap();
        let stats = m.run(4, &mpisim::CommModel::default(), false).unwrap();
        assert_eq!(stats.messages, [1; 4]);
    }

    #[test]
    fn comm_free_program_passes() {
        assert!(compile_ring(|f| vec![f.barrier()]).is_ok());
    }

    /// Rank 0 divides by zero in its partner expression, where the runtime
    /// traps: the static check abstains instead of panicking the compile,
    /// as it does for a rank-domain bound that divides by zero.
    #[test]
    fn a_trapping_comm_expression_abstains() {
        assert!(compile_ring(|f| {
            let is = Var::new("is", Expr::i64(0), Expr::param("Nodes"));
            let dest = Expr::i64(4) / Expr::iter("is");
            vec![f.send(is, "buf", Expr::i64(0), Expr::i64(1), dest, true)]
        })
        .is_ok());
        assert!(compile_ring(|f| {
            let hi = Expr::param("Nodes") / (Expr::param("Nodes") - Expr::i64(4));
            let is = Var::new("is", Expr::i64(0), hi);
            vec![f.send(is, "buf", Expr::i64(0), Expr::i64(1), Expr::i64(0), true)]
        })
        .is_ok());
    }
}
