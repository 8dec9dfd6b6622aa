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
//! diagnostic. Programs whose partners or guards depend on runtime data
//! are not rejected: the walk bails out conservatively (`Ok`) on the first
//! expression it cannot evaluate, leaving enforcement to the runtime
//! watchdog.

use crate::{DistError, DistProgram, DistStmt};
use loopvm::eval_scalar;
use std::collections::BTreeMap;

/// Outcome of walking one rank: its emitted events, or "not static".
enum Walk {
    Static,
    Dynamic,
}

#[derive(Default)]
struct RankEvents {
    /// sends[(src, dst)] = number of messages delivered on that edge.
    sends: BTreeMap<(usize, usize), u64>,
    /// recvs[(src, dst)] = number of receives posted on that edge.
    recvs: BTreeMap<(usize, usize), u64>,
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
        match walk_rank(dist, rank, n_ranks, &mut events) {
            Walk::Dynamic => return Ok(()),
            Walk::Static => barrier_counts.push(events.barriers),
        }
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

    let edges: std::collections::BTreeSet<(usize, usize)> =
        events.sends.keys().chain(events.recvs.keys()).copied().collect();
    for (src, dst) in edges {
        let s = events.sends.get(&(src, dst)).copied().unwrap_or(0);
        let r = events.recvs.get(&(src, dst)).copied().unwrap_or(0);
        if s != r {
            return Err(DistError::CommMismatch {
                detail: format!(
                    "rank {src} sends {s} message(s) to rank {dst}, which posts {r} \
                     matching receive(s)"
                ),
            });
        }
    }
    Ok(())
}

fn walk_rank(
    dist: &DistProgram,
    rank: usize,
    n_ranks: usize,
    events: &mut RankEvents,
) -> Walk {
    let bindings = [(dist.rank_var, rank as i64)];
    let mut frames: Vec<(&[DistStmt], usize)> = vec![(&dist.body, 0)];
    while let Some((body, pos)) = frames.pop() {
        if pos >= body.len() {
            continue;
        }
        frames.push((body, pos + 1));
        match &body[pos] {
            DistStmt::Compute(_) => {}
            DistStmt::Barrier => events.barriers += 1,
            DistStmt::If { cond, body: inner } => {
                match eval_scalar(cond, &bindings) {
                    Ok(c) => {
                        if c != 0 {
                            frames.push((inner, 0));
                        }
                    }
                    Err(_) => return Walk::Dynamic,
                }
            }
            DistStmt::Send { dest, .. } => {
                match eval_scalar(dest, &bindings) {
                    Ok(d) => {
                        // Out-of-range destinations are skipped at runtime
                        // (guarded edge-of-rank-space sends); mirror that.
                        if d >= 0 && (d as usize) < n_ranks {
                            *events.sends.entry((rank, d as usize)).or_insert(0) += 1;
                        }
                    }
                    Err(_) => return Walk::Dynamic,
                }
            }
            DistStmt::Recv { src, .. } => {
                match eval_scalar(src, &bindings) {
                    Ok(s) => {
                        if s >= 0 && (s as usize) < n_ranks {
                            *events.recvs.entry((s as usize, rank)).or_insert(0) += 1;
                        }
                    }
                    Err(_) => return Walk::Dynamic,
                }
            }
        }
    }
    Walk::Static
}
