#![warn(missing_docs)]

//! `autosched` — a Pluto-like fully automatic scheduler: the
//! Pluto / PENCIL / Polly stand-in of the Tiramisu reproduction.
//!
//! The paper (§II-a) characterizes the Pluto algorithm — used by Pluto,
//! PENCIL and Polly — as "minimiz\[ing\] the distance between producer and
//! consumer statements while maximizing outermost parallelism", and notes
//! the pathologies that follow: it does not weigh data layout or the cost
//! of complicated control flow, and its backends skip key optimizations
//! (no array packing, no register blocking, no full/partial tile
//! separation; PENCIL's CPU backend neither vectorizes nor unrolls).
//!
//! This crate reproduces exactly that recipe on top of the `tiramisu`
//! scheduling language:
//!
//! 1. **maximal fusion**: consecutive producer→consumer pairs are fused
//!    at the deepest depth that dependence analysis accepts, trying loop
//!    *shifting* and — when enabled — loop *interchange* to make fusion
//!    legal (the interchange-to-fuse behaviour that destroys spatial
//!    locality in the paper's `gaussian` analysis);
//! 2. **outermost parallelism**: the outermost loop of every nest is
//!    parallelized when no dependence is carried by it;
//! 3. **default tiling** of the two outermost loops;
//! 4. **no vectorization, no unrolling, no packing** — faithfully absent.
//!
//! The result is a scheduled [`tiramisu::Function`] compiled by the same
//! backends as every other system in the evaluation.

use tiramisu::{legality, CompId, CompKind, Function};

/// Knobs of the automatic scheduler (used to differentiate the paper's
/// automatic compilers: Pluto / PENCIL / Polly presets below).
#[derive(Debug, Clone)]
pub struct AutoOptions {
    /// Attempt maximal producer→consumer fusion.
    pub fuse: bool,
    /// Try interchanging consumer loops when direct fusion is illegal
    /// (the PENCIL `gaussian` pathology).
    pub interchange_for_fusion: bool,
    /// Try shifting the consumer by up to this many iterations to
    /// legalize fusion.
    pub max_shift: i64,
    /// Tile the two outermost loops with this size.
    pub tile: Option<(i64, i64)>,
    /// Parallelize the outermost loop when legal.
    pub parallelize: bool,
}

impl Default for AutoOptions {
    fn default() -> Self {
        AutoOptions {
            fuse: true,
            interchange_for_fusion: true,
            max_shift: 4,
            tile: Some((32, 32)),
            parallelize: true,
        }
    }
}

impl AutoOptions {
    /// The Pluto preset: fusion + tiling + outer parallelism.
    pub fn pluto() -> AutoOptions {
        AutoOptions::default()
    }

    /// The PENCIL preset (same scheduling core; its CPU backend adds no
    /// vectorization — which is already the default here).
    pub fn pencil() -> AutoOptions {
        AutoOptions::default()
    }

    /// The Polly preset: tiling but conservative fusion and no automatic
    /// parallelization (Polly's `-polly-parallel` is off by default).
    pub fn polly() -> AutoOptions {
        AutoOptions {
            fuse: false,
            interchange_for_fusion: false,
            parallelize: false,
            ..AutoOptions::default()
        }
    }
}

/// What the scheduler did (for logs, tests and the paper-table harness).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Fused pairs `(producer, consumer, depth)`.
    pub fused: Vec<(String, String, usize)>,
    /// Consumers interchanged to enable fusion.
    pub interchanged: Vec<String>,
    /// Consumers shifted to enable fusion `(name, level, amount)`.
    pub shifted: Vec<(String, String, i64)>,
    /// Loops parallelized `(comp, level)`.
    pub parallelized: Vec<(String, String)>,
    /// Computations tiled.
    pub tiled: Vec<String>,
}

/// Runs the automatic scheduler on an unscheduled function, mutating its
/// Layer II state in place.
///
/// # Errors
///
/// Propagates scheduling-command and polyhedral errors; all *legality*
/// failures are handled internally by reverting the attempted command.
pub fn auto_schedule(f: &mut Function, opts: &AutoOptions) -> tiramisu::Result<Report> {
    let mut report = Report::default();
    // The search below changes schedules only; the flow dependences are a
    // property of Layer I and hold for every candidate.
    let deps = legality::flow_deps(f)?;
    let legal = |f: &Function| Ok::<_, tiramisu::Error>(legality::check_deps(f, &deps)?.is_empty());
    let comps: Vec<CompId> = (0..f.comps.len() as u32)
        .map(CompId::from_raw)
        .filter(|&c| f.comp(c).kind == CompKind::Computation && !f.comp(c).inlined)
        .collect();

    // --- 1. maximal fusion of producer→consumer chains ---
    if opts.fuse {
        for w in comps.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            if !reads(f, cur, prev) {
                continue;
            }
            let depth = f.comp(prev).dyn_names.len().min(f.comp(cur).dyn_names.len());
            'depths: for d in (1..=depth).rev() {
                let level = f.comp(prev).dyn_names[d - 1].clone();
                // Pluto's primary objective is outermost parallelism: a
                // fusion that kills it is rejected.
                let outer_ok = |f: &Function| -> tiramisu::Result<bool> {
                    if !opts.parallelize {
                        return Ok(true);
                    }
                    let lvl = f.comp(cur).dyn_names[0].clone();
                    legality::parallel_ok_deps(f, &deps, cur, &lvl)
                };
                // Plain fusion.
                let snapshot = f.clone();
                if f.fuse_after(cur, prev, &level).is_ok()
                    && legal(f)?
                    && outer_ok(f)?
                {
                    report.fused.push((
                        f.comp(prev).name.clone(),
                        f.comp(cur).name.clone(),
                        d,
                    ));
                    break 'depths;
                }
                *f = snapshot;
                // Fusion + shifting.
                for s in 1..=opts.max_shift {
                    let snapshot = f.clone();
                    let cur_level = f.comp(cur).dyn_names[d - 1].clone();
                    if f.fuse_after(cur, prev, &level).is_ok()
                        && f.shift(cur, &cur_level, s).is_ok()
                        && legal(f)?
                        && outer_ok(f)?
                    {
                        report.fused.push((
                            f.comp(prev).name.clone(),
                            f.comp(cur).name.clone(),
                            d,
                        ));
                        report.shifted.push((f.comp(cur).name.clone(), cur_level, s));
                        break 'depths;
                    }
                    *f = snapshot;
                }
                // Fusion after interchanging the consumer's two outermost
                // loops (minimizes producer-consumer distance at the cost
                // of locality — the gaussian pathology).
                if opts.interchange_for_fusion && f.comp(cur).dyn_names.len() >= 2 {
                    let snapshot = f.clone();
                    let a = f.comp(cur).dyn_names[0].clone();
                    let b = f.comp(cur).dyn_names[1].clone();
                    if f.interchange(cur, &a, &b).is_ok()
                        && f.fuse_after(cur, prev, &level).is_ok()
                        && legal(f)?
                        && outer_ok(f)?
                    {
                        report.interchanged.push(f.comp(cur).name.clone());
                        report.fused.push((
                            f.comp(prev).name.clone(),
                            f.comp(cur).name.clone(),
                            d,
                        ));
                        break 'depths;
                    }
                    *f = snapshot;
                }
            }
        }
    }

    // --- 2. outermost parallelism ---
    if opts.parallelize {
        for &c in &comps {
            let level = f.comp(c).dyn_names[0].clone();
            if legality::parallel_ok_deps(f, &deps, c, &level)? {
                f.parallelize(c, &level)?;
                report.parallelized.push((f.comp(c).name.clone(), level));
            }
        }
    }

    // --- 3. default tiling of the two outermost loops ---
    if let Some((t1, t2)) = opts.tile {
        for &c in &comps {
            if f.comp(c).dyn_names.len() < 2 {
                continue;
            }
            let i = f.comp(c).dyn_names[0].clone();
            let j = f.comp(c).dyn_names[1].clone();
            let snapshot = f.clone();
            let names = (
                format!("{i}_T"),
                format!("{j}_T"),
                format!("{i}_t"),
                format!("{j}_t"),
            );
            if f.tile(c, &i, &j, t1, t2, (&names.0, &names.1, &names.2, &names.3)).is_ok()
                && legal(f)?
            {
                // Re-point the parallel tag (it was attached to the old
                // outermost name).
                if report.parallelized.iter().any(|(n, _)| *n == f.comp(c).name) {
                    let _ = f.parallelize(c, &names.0);
                }
                report.tiled.push(f.comp(c).name.clone());
            } else {
                *f = snapshot;
            }
        }
    }

    Ok(report)
}

/// Whether `consumer` reads `producer`.
fn reads(f: &Function, consumer: CompId, producer: CompId) -> bool {
    f.comp(consumer)
        .expr
        .as_ref()
        .map(|e| e.accesses().iter().any(|(id, _)| *id == producer))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiramisu::Expr;

    /// A two-stage pipeline where plain fusion is legal.
    fn fusable() -> (Function, CompId, CompId) {
        let mut f = Function::new("p", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let a = f.computation("a", &[i.clone(), j.clone()], Expr::f32(1.0)).unwrap();
        let read = f.access(a, &[Expr::iter("i"), Expr::iter("j")]);
        let b = f.computation("b", &[i, j], read * Expr::f32(2.0)).unwrap();
        (f, a, b)
    }

    #[test]
    fn fuses_aligned_producer_consumer() {
        let (mut f, a, b) = fusable();
        let r = auto_schedule(&mut f, &AutoOptions { tile: None, ..Default::default() }).unwrap();
        assert_eq!(r.fused.len(), 1);
        assert_eq!(r.fused[0].2, 2); // fused at full depth
        // Betas aligned through depth 2.
        assert_eq!(f.comp(b).betas[0], f.comp(a).betas[0]);
        assert_eq!(f.comp(b).betas[1], f.comp(a).betas[1]);
        assert!(legality::check(&f).unwrap().is_empty());
    }

    #[test]
    fn shifting_enables_fusion_with_offset_reads() {
        // b(i) reads a(i + 1): fusion needs a shift.
        let mut f = Function::new("p", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let a = f.computation("a", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let i2 = f.var("i", 0, Expr::param("N") - Expr::i64(1));
        let read = f.access(a, &[Expr::iter("i") + Expr::i64(1)]);
        let _b = f.computation("b", &[i2], read).unwrap();
        let r = auto_schedule(
            &mut f,
            &AutoOptions { tile: None, parallelize: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(r.fused.len(), 1);
        assert!(!r.shifted.is_empty());
        assert!(legality::check(&f).unwrap().is_empty());
    }

    #[test]
    fn reduction_loop_not_parallelized() {
        // acc(k) = acc(k-1) + 1: the k loop carries a dependence.
        let mut f = Function::new("p", &["N"]);
        let k = f.var("k", 1, Expr::param("N"));
        let acc = f
            .computation(
                "acc",
                &[k],
                Expr::Access(CompId::from_raw(0), vec![Expr::iter("k") - Expr::i64(1)])
                    + Expr::f32(1.0),
            )
            .unwrap();
        let _ = acc;
        let r = auto_schedule(&mut f, &AutoOptions { tile: None, ..Default::default() }).unwrap();
        assert!(r.parallelized.is_empty());
    }

    #[test]
    fn independent_loop_parallelized_and_tiled() {
        let (mut f, _, _) = fusable();
        let r = auto_schedule(&mut f, &AutoOptions::default()).unwrap();
        assert_eq!(r.parallelized.len(), 2);
        assert_eq!(r.tiled.len(), 2);
        assert!(legality::check(&f).unwrap().is_empty());
        // Compiles and runs on the CPU backend.
        let module =
            tiramisu::compile_cpu(&f, &[("N", 16)], tiramisu::CpuOptions::default()).unwrap();
        let mut m = module.machine();
        m.run(&module.program).unwrap();
        let b = module.vm_buffer("b").unwrap();
        assert!(m.buffer(b).iter().all(|&v| v == 2.0));
    }

    #[test]
    fn polly_preset_skips_fusion_and_parallelism() {
        let (mut f, _, _) = fusable();
        let r = auto_schedule(&mut f, &AutoOptions::polly()).unwrap();
        assert!(r.fused.is_empty());
        assert!(r.parallelized.is_empty());
        assert_eq!(r.tiled.len(), 2);
    }
}
