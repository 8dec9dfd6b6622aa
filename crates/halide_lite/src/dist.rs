//! Distributed lowering — the distributed-Halide stand-in.
//!
//! The paper (Fig. 6 bottom, §VI-c) identifies two problems in code
//! generated by distributed Halide relative to Tiramisu's explicit
//! `send`/`receive`:
//!
//! 1. **over-estimated communication**: benchmarks with clamped (not
//!    statically analyzable) accesses make distributed Halide send more
//!    data than needed. This lowering widens the exchanged halo by a
//!    configurable over-approximation factor;
//! 2. **unnecessary packing**: contiguous rows are copied into a staging
//!    buffer before sending (and unpacked after receiving) — real work the
//!    VM executes and the cost model prices.
//!
//! Rows (`y`, the outermost output dimension) are block-distributed over
//! ranks; every rank computes the whole pipeline over its rows plus the
//! received halo.

use crate::bounds::infer_bounds;
use crate::lower::{compile, CompiledPipeline};
use crate::pipeline::Pipeline;
use crate::{Error, Result};
use loopvm::{Expr as VExpr, Stmt};
use mpisim::{DistProgram, DistStmt};

/// Options for the distributed lowering.
#[derive(Debug, Clone)]
pub struct DistCompileOptions {
    /// Halo over-approximation factor (1 = exact; distributed Halide
    /// behaviour corresponds to > 1 for clamped accesses).
    pub halo_overapprox: i64,
    /// Pack messages through a staging buffer (distributed Halide packs;
    /// Tiramisu's explicit commands do not).
    pub pack: bool,
}

impl Default for DistCompileOptions {
    fn default() -> Self {
        DistCompileOptions { halo_overapprox: 2, pack: true }
    }
}

/// A distributed compiled pipeline.
#[derive(Debug)]
pub struct DistCompiled {
    /// The rank program for `mpisim`.
    pub dist: DistProgram,
    /// The per-rank compiled pipeline (buffers, program structure).
    pub local: CompiledPipeline,
    /// Rows owned per rank.
    pub rows_per_rank: i64,
    /// Halo rows exchanged downward (from rank r+1 to r).
    pub halo_rows: i64,
    /// Index of the staging buffer, when packing.
    pub stage: Option<loopvm::BufId>,
}

/// Compiles a single-input pipeline distributed by rows over `ranks`.
///
/// The pipeline's output extent 0 must be divisible by `ranks`. The input
/// must have the same leading extent interpretation (rows); each rank
/// holds `rows_per_rank + halo` input rows locally.
///
/// # Errors
///
/// Bounds/schedule errors, or an indivisible row count.
pub fn compile_dist(
    p: &Pipeline,
    output_extents: &[i64],
    ranks: i64,
    opts: &DistCompileOptions,
) -> Result<DistCompiled> {
    if p.inputs().len() != 1 {
        return Err(Error::Schedule(
            "distributed lowering supports single-input pipelines".into(),
        ));
    }
    let rows_out = output_extents[0];
    if rows_out % ranks != 0 {
        return Err(Error::Schedule(format!(
            "output rows {rows_out} not divisible by {ranks} ranks"
        )));
    }
    let rows_per_rank = rows_out / ranks;

    // Infer the downward halo from full-image bounds: how many input rows
    // beyond its own output rows a rank needs.
    let full = infer_bounds(p, output_extents)?;
    let req_rows = full.input_required[0][0];
    let base_halo = (req_rows.hi - (rows_out - 1)).max(0);
    let halo_rows = (base_halo * opts.halo_overapprox).max(base_halo).min(rows_per_rank);

    // Build the per-rank pipeline: same funcs, input shrunk to the local
    // chunk + halo rows.
    let mut local_p = p.clone();
    let mut local_extents = output_extents.to_vec();
    local_extents[0] = rows_per_rank;
    {
        // Adjust the input's leading extent.
        let (.., extents) = &mut local_p.inputs[0];
        extents[0] = rows_per_rank + halo_rows.max(base_halo);
    }
    let mut local = compile(&local_p, &local_extents)?;

    // Communication: rank r sends its first `halo_rows` input rows to
    // r-1, which receives them into its input buffer after its own rows.
    let input_buf = local.input_buffers[0];
    let row_elems: i64 = local_p.inputs()[0].1[1..].iter().product::<i64>().max(1);
    let rank_var = local.program.var("rank");
    let send_count = halo_rows * row_elems;

    let mut chunks: Vec<Vec<Stmt>> = Vec::new();
    let mut compute = |stmts: Vec<Stmt>| {
        chunks.push(stmts);
        DistStmt::Compute(chunks.len() - 1)
    };
    let mut body: Vec<DistStmt> = Vec::new();
    let (stage, pack_stmts, unpack_stmts, send_buf, send_off): (
        Option<loopvm::BufId>,
        Vec<Stmt>,
        Vec<Stmt>,
        loopvm::BufId,
        VExpr,
    ) = if opts.pack {
        let stage = local.program.buffer("stage", (send_count.max(1)) as usize);
        let k = local.program.var("pack_k");
        // pack: stage[k] = input[k] (the halo rows are the FIRST rows of
        // the sender's chunk).
        let pack = vec![Stmt::serial(
            k,
            VExpr::i64(0),
            VExpr::i64(send_count),
            vec![Stmt::store(stage, VExpr::var(k), VExpr::load(input_buf, VExpr::var(k)))],
        )];
        // unpack: input[own_rows*row + k] = stage[k]
        let k2 = local.program.var("unpack_k");
        let base = rows_per_rank * row_elems;
        let unpack = vec![Stmt::serial(
            k2,
            VExpr::i64(0),
            VExpr::i64(send_count),
            vec![Stmt::store(
                input_buf,
                VExpr::i64(base) + VExpr::var(k2),
                VExpr::load(stage, VExpr::var(k2)),
            )],
        )];
        (Some(stage), pack, unpack, stage, VExpr::i64(0))
    } else {
        (None, Vec::new(), Vec::new(), input_buf, VExpr::i64(0))
    };

    if send_count > 0 {
        if !pack_stmts.is_empty() {
            body.push(DistStmt::If {
                cond: VExpr::le(VExpr::i64(1), VExpr::var(rank_var)),
                body: vec![compute(pack_stmts)],
            });
        }
        body.push(DistStmt::If {
            cond: VExpr::le(VExpr::i64(1), VExpr::var(rank_var)),
            body: vec![DistStmt::Send {
                dest: VExpr::var(rank_var) - VExpr::i64(1),
                buf: send_buf,
                offset: send_off,
                count: VExpr::i64(send_count),
                asynchronous: true,
            }],
        });
        let recv_target = if opts.pack { send_buf } else { input_buf };
        let recv_offset = if opts.pack {
            VExpr::i64(0)
        } else {
            VExpr::i64(rows_per_rank * row_elems)
        };
        body.push(DistStmt::If {
            cond: VExpr::lt(VExpr::var(rank_var), VExpr::i64(ranks - 1)),
            body: vec![DistStmt::Recv {
                src: VExpr::var(rank_var) + VExpr::i64(1),
                buf: recv_target,
                offset: recv_offset,
                count: VExpr::i64(send_count),
            }],
        });
        if !unpack_stmts.is_empty() {
            body.push(DistStmt::If {
                cond: VExpr::lt(VExpr::var(rank_var), VExpr::i64(ranks - 1)),
                body: vec![compute(unpack_stmts)],
            });
        }
    }
    body.push(compute(local.program.body().to_vec()));

    let dist = DistProgram::new(local.program.clone(), rank_var, Vec::new(), chunks, body);
    Ok(DistCompiled { dist, local, rows_per_rank, halo_rows, stage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{HExpr, Pipeline};
    use mpisim::CommModel;

    fn stencil_pipeline(h: i64, w: i64) -> Pipeline {
        let mut p = Pipeline::new();
        let input = p.input("in", &[h + 1, w]);
        let out = p.func(
            "out",
            &["y", "x"],
            (HExpr::In(input, vec![HExpr::var("y"), HExpr::var("x")])
                + HExpr::In(input, vec![HExpr::var("y") + HExpr::i(1), HExpr::var("x")]))
                / HExpr::f(2.0),
        );
        p.set_output(out);
        p
    }

    #[test]
    fn distributed_stencil_runs() {
        let (h, w, ranks) = (16i64, 8i64, 4i64);
        let p = stencil_pipeline(h, w);
        let dc = compile_dist(&p, &[h, w], ranks, &DistCompileOptions::default()).unwrap();
        assert_eq!(dc.rows_per_rank, 4);
        assert!(dc.halo_rows >= 1);
        let stats = mpisim::run(&dc.dist, ranks as usize, &CommModel::default(), true).unwrap();
        // Ranks 1..3 sent halo bytes.
        assert_eq!(stats.bytes_sent[0], 0);
        assert!(stats.bytes_sent[1] > 0);
    }

    #[test]
    fn overapprox_sends_more_than_exact() {
        let (h, w, ranks) = (16i64, 8i64, 4i64);
        let p = stencil_pipeline(h, w);
        let exact = compile_dist(
            &p,
            &[h, w],
            ranks,
            &DistCompileOptions { halo_overapprox: 1, pack: false },
        )
        .unwrap();
        let over = compile_dist(&p, &[h, w], ranks, &DistCompileOptions::default()).unwrap();
        let se = mpisim::run(&exact.dist, ranks as usize, &CommModel::default(), false).unwrap();
        let so = mpisim::run(&over.dist, ranks as usize, &CommModel::default(), false).unwrap();
        let sum = |v: &Vec<u64>| v.iter().sum::<u64>();
        assert!(
            sum(&so.bytes_sent) > sum(&se.bytes_sent),
            "over {} vs exact {}",
            sum(&so.bytes_sent),
            sum(&se.bytes_sent)
        );
    }

    #[test]
    fn packing_costs_extra_stores() {
        let (h, w, ranks) = (16i64, 8i64, 4i64);
        let p = stencil_pipeline(h, w);
        let packed = compile_dist(
            &p,
            &[h, w],
            ranks,
            &DistCompileOptions { halo_overapprox: 1, pack: true },
        )
        .unwrap();
        let unpacked = compile_dist(
            &p,
            &[h, w],
            ranks,
            &DistCompileOptions { halo_overapprox: 1, pack: false },
        )
        .unwrap();
        let sp = mpisim::run(&packed.dist, ranks as usize, &CommModel::default(), true).unwrap();
        let su =
            mpisim::run(&unpacked.dist, ranks as usize, &CommModel::default(), true).unwrap();
        let stores = |s: &mpisim::DistStats| s.compute.iter().map(|c| c.stores).sum::<u64>();
        assert!(stores(&sp) > stores(&su));
    }
}
