//! Static pre-launch validation of a distributed program's communication
//! graph.
//!
//! For a known rank count, every rank's control flow over [`DistStmt`]s is
//! walked with only the rank variable bound: `If` guards and send/recv
//! partner expressions that are rank-affine evaluate statically, yielding
//! the complete communication graph without running any compute. Two
//! invariants are checked:
//!
//! - every delivered `Send(dst)` on rank `s` has a matching `Recv(src=s)`
//!   on rank `dst` (and vice versa), counted per directed pair, and
//! - every rank executes the same number of `Barrier`s.
//!
//! Violations are the classic ways a hand-scheduled Layer-IV program hangs
//! at runtime; catching them here turns a hang into a compile-time-style
//! diagnostic (the distributed backend runs this check at compile time).
//! Programs whose partners or guards depend on runtime data are not
//! rejected: the walk bails out conservatively (`Ok`) on the first
//! expression it cannot evaluate — including one that divides by zero
//! for some rank, where the runtime traps — leaving enforcement to the
//! runtime watchdog.

use crate::{DistError, DistProgram, DistStmt};
use loopvm::{try_eval_scalar, BufId, Expr};
use std::collections::BTreeMap;

#[derive(Default)]
struct RankEvents {
    /// sends[(src, dst)] = number of messages delivered on that edge.
    sends: BTreeMap<(usize, usize), u64>,
    /// recvs[(src, dst)] = number of receives posted on that edge.
    recvs: BTreeMap<(usize, usize), u64>,
    /// The buffer of the first send or receive walked on each edge.
    buffers: BTreeMap<(usize, usize), BufId>,
    barriers: u64,
}

/// Statically validates the communication structure of `dist` for
/// `n_ranks` ranks.
///
/// # Errors
///
/// [`DistError::CommMismatch`] when a send has no matching receive (or
/// vice versa) or barrier counts differ across ranks. Programs that are
/// not statically analyzable pass (`Ok`).
pub fn validate_comm(dist: &DistProgram, n_ranks: usize) -> Result<(), DistError> {
    let mut events = RankEvents::default();
    let mut barrier_counts = Vec::with_capacity(n_ranks);
    for rank in 0..n_ranks {
        events.barriers = 0;
        if walk_rank(dist, rank, n_ranks, &mut events).is_none() {
            return Ok(());
        }
        barrier_counts.push(events.barriers);
    }

    if let (Some(min), Some(max)) =
        (barrier_counts.iter().min(), barrier_counts.iter().max())
    {
        if min != max {
            let lo = barrier_counts.iter().position(|c| c == min).unwrap_or(0);
            let hi = barrier_counts.iter().position(|c| c == max).unwrap_or(0);
            return Err(DistError::CommMismatch {
                detail: format!(
                    "barrier arity is not uniform: rank {lo} executes {min} barriers \
                     but rank {hi} executes {max}"
                ),
            });
        }
    }

    for (&(src, dst), &buf) in &events.buffers {
        let s = events.sends.get(&(src, dst)).copied().unwrap_or(0);
        let r = events.recvs.get(&(src, dst)).copied().unwrap_or(0);
        if s != r {
            let name = dist.program.buffer_info(buf).0;
            return Err(DistError::CommMismatch {
                detail: format!(
                    "rank {src} sends {s} message(s) of buffer '{name}' to rank {dst}, \
                     which posts {r} matching receive(s)"
                ),
            });
        }
    }
    Ok(())
}

/// Walks one rank's statements, adding its messages to `events`; `None`
/// when an expression on the way is not static.
fn walk_rank(
    dist: &DistProgram,
    rank: usize,
    n_ranks: usize,
    events: &mut RankEvents,
) -> Option<()> {
    let bindings = [(dist.rank_var, rank as i64)];
    // Out-of-range partners are skipped at runtime (guarded
    // edge-of-rank-space ops); mirror that.
    let partner = |e: &Expr| {
        let p = try_eval_scalar(e, &bindings)?;
        Some((0..n_ranks as i64).contains(&p).then_some(p as usize))
    };
    let mut frames: Vec<(&[DistStmt], usize)> = vec![(&dist.body, 0)];
    while let Some((body, pos)) = frames.pop() {
        if pos >= body.len() {
            continue;
        }
        frames.push((body, pos + 1));
        let (edge, buf, counts) = match &body[pos] {
            DistStmt::Compute(_) => continue,
            DistStmt::Barrier => {
                events.barriers += 1;
                continue;
            }
            DistStmt::If { cond, body: inner } => {
                if try_eval_scalar(cond, &bindings)? != 0 {
                    frames.push((inner, 0));
                }
                continue;
            }
            DistStmt::Send { dest, buf, .. } => match partner(dest)? {
                Some(d) => ((rank, d), buf, &mut events.sends),
                None => continue,
            },
            DistStmt::Recv { src, buf, .. } => match partner(src)? {
                Some(s) => ((s, rank), buf, &mut events.recvs),
                None => continue,
            },
        };
        *counts.entry(edge).or_insert(0) += 1;
        events.buffers.entry(edge).or_insert(*buf);
    }
    Some(())
}
