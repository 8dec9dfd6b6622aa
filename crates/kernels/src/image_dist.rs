//! Distributed variants of the image benchmarks (Figure 6 bottom block,
//! Figure 7 strong scaling).
//!
//! Rows are block-distributed over ranks, following the paper's Figure
//! 3(c) recipe: split the row loop, `distribute()` the outer part,
//! `parallelize()` the inner part, and exchange halo rows with explicit
//! `send()`/`receive()` commands that name the **exact** byte counts.
//! The distributed-Halide comparison uses `halide_lite::compile_dist`,
//! which over-approximates the halo and packs messages — the two deficits
//! the paper measures.
//!
//! Functionally each rank holds a full (identically seeded) copy of the
//! input, so results are correct regardless of the traffic; the *figures*
//! compare modeled compute + communication, which is what the schedules
//! change.

use crate::image::{params, ImgSize};
use mpisim::{CommModel, DistStats};
use tiramisu::{CompId, DistOptions, Expr as E, Function, Var};

/// A prepared distributed benchmark.
pub struct DistPrep {
    /// Variant name.
    pub name: String,
    /// The compiled module (shared with the compile service's caches).
    pub module: std::sync::Arc<tiramisu::DistModule>,
    /// Input buffer names to seed on every rank.
    pub inputs: Vec<String>,
    /// Rank count the schedule was built for.
    pub ranks: usize,
}

impl DistPrep {
    /// The bytecode of each compute chunk — the code every rank runs.
    pub fn bytecode(&self) -> Option<Vec<&loopvm::BcProgram>> {
        self.module.bytecode()
    }

    /// Disassembly of the rank-chunk bytecode.
    pub fn disasm(&self) -> Option<String> {
        self.module.disasm()
    }

    /// Runs on the simulated cluster with seeded inputs.
    ///
    /// # Errors
    ///
    /// Runtime errors from any rank.
    pub fn run(&self, stats_mode: bool) -> tiramisu::Result<DistStats> {
        let opts = mpisim::RunOptions { stats_mode, ..Default::default() };
        self.run_with_opts(&opts, |_, _| {}).map_err(|e| tiramisu::Error::Backend(e.to_string()))
    }

    /// Runs on the simulated cluster under full [`mpisim::RunOptions`]
    /// control — fault injection, retry policy, watchdog — with the same
    /// seeded inputs as [`DistPrep::run`]. The `finish` hook sees each
    /// rank's machine after a successful run (e.g. to snapshot output
    /// buffers for bit-exact comparison against a fault-free reference).
    ///
    /// Unlike [`DistPrep::run`] this returns the structured
    /// [`mpisim::DistError`] so callers can distinguish deadlocks,
    /// injected crashes, and exhausted retries.
    ///
    /// # Errors
    ///
    /// Any [`mpisim::DistError`] from the cluster.
    pub fn run_with_opts(
        &self,
        opts: &mpisim::RunOptions,
        finish: impl Fn(usize, &loopvm::Machine) + Sync,
    ) -> Result<DistStats, mpisim::DistError> {
        let bufs: Vec<_> = self
            .inputs
            .iter()
            .map(|n| self.module.vm_buffer(n).expect("input buffer"))
            .collect();
        mpisim::run_with_opts(
            &self.module.dist,
            self.ranks,
            &CommModel::default(),
            opts,
            |_rank, machine| {
                for (k, b) in bufs.iter().enumerate() {
                    crate::fill_buffer(machine.buffer_mut(*b), 0x5EED + k as u64);
                }
            },
            finish,
        )
    }
}

/// Builds the Tiramisu distributed variant of a named benchmark for
/// `ranks` nodes. Benchmarks without cross-rank reads (`cvtColor`, `nb`,
/// `ticket #2373`) carry no communication, as in the paper.
///
/// # Errors
///
/// Scheduling/compilation errors; `s.h` must be divisible by `ranks`.
pub fn tiramisu_dist(name: &str, s: ImgSize, ranks: i64) -> tiramisu::Result<DistPrep> {
    tiramisu_dist_opts(name, s, ranks, true)
}

/// [`tiramisu_dist`] with the send mode exposed (the `{ASYNC}` vs
/// `{SYNC}` properties of Table II's `send()` — an ablation knob).
///
/// # Errors
///
/// As for [`tiramisu_dist`].
pub fn tiramisu_dist_opts(
    name: &str,
    s: ImgSize,
    ranks: i64,
    async_send: bool,
) -> tiramisu::Result<DistPrep> {
    assert_eq!(s.h % ranks, 0, "rows must divide evenly across ranks");
    let chunk = s.h / ranks;
    let (mut f, comps, inputs, halo_rows, row_elems): (
        Function,
        Vec<CompId>,
        Vec<&str>,
        i64,
        i64,
    ) = match name {
        "edgeDetector" => {
            let (f, r, out) = crate::image::edge_layer1(s);
            (f, vec![r, out], vec!["imgbuf"], 2, s.w)
        }
        "cvtColor" => {
            let (f, gray) = crate::image::cvt_layer1(s);
            (f, vec![gray], vec!["img"], 0, s.w * 3)
        }
        "conv2D" => {
            let (f, out) = crate::image::conv2d_layer1(s);
            (f, vec![out], vec!["img", "w"], 1, s.w)
        }
        "warpAffine" => {
            // The warp reads a bounded band of source rows around each
            // output row; the schedule exchanges that band.
            let (f, out) = crate::image::warp_layer1(s);
            (f, vec![out], vec!["img"], (chunk / 4).max(1), s.w)
        }
        "gaussian" => {
            let (f, gx, gy) = crate::image::gaussian_layer1(s);
            (f, vec![gx, gy], vec!["img", "g"], 4, s.w)
        }
        "nb" => {
            // Fused, as on a single node.
            let (mut f, [neg, bright, mix, out]) = crate::image::nb_layer1(s);
            f.fuse_after(bright, neg, "j")?;
            f.fuse_after(mix, bright, "j")?;
            f.fuse_after(out, mix, "j")?;
            // All four must be split/distributed identically to keep the
            // fused loops aligned.
            (f, vec![neg, bright, mix, out], vec!["img"], 0, s.w)
        }
        "ticket #2373" => {
            let (f, out) = crate::image::ticket_layer1(s);
            (f, vec![out], vec!["img"], 0, s.w)
        }
        other => panic!("unknown benchmark {other}"),
    };

    // Figure 3(c): split + distribute + parallelize (and vectorize the
    // columns, like the single-node schedules) for every computation.
    for &c in &comps {
        let rows = f.comp(c).dyn_names[0].clone();
        let cols = f.comp(c).dyn_names.get(1).cloned();
        f.split(c, &rows, chunk, "r0", "r1")?;
        f.distribute(c, "r0")?;
        f.parallelize(c, "r1")?;
        if let Some(cols) = cols {
            f.vectorize(c, &cols, 8)?;
        }
    }
    // Halo exchange (exact): rank is sends its first `halo_rows` rows to
    // is-1; rank ir receives them from ir+1 at the natural location (the
    // paper's lin(N,0,0) halo slot generalizes to the same-buffer row).
    if halo_rows > 0 {
        let is = Var::new("is", E::i64(1), E::i64(ranks));
        let ir = Var::new("ir", E::i64(0), E::i64(ranks - 1));
        let count = halo_rows * row_elems;
        let send = f.send(
            is,
            inputs[0],
            E::iter("is") * E::i64(chunk * row_elems),
            E::i64(count),
            E::iter("is") - E::i64(1),
            async_send, // {ASYNC} in Figure 3(c)
        );
        let recv = f.receive(
            ir,
            inputs[0],
            (E::iter("ir") + E::i64(1)) * E::i64(chunk * row_elems),
            E::i64(count),
            E::iter("ir") + E::i64(1),
        );
        f.comm_before(send, comps[0]);
        f.comm_before(recv, comps[0]);
    }
    let module = tiramisu::service::global().compile_dist(
        &f,
        &params(s),
        DistOptions { check_legality: false, ..DistOptions::default() },
    )?;
    Ok(DistPrep {
        name: "Tiramisu".into(),
        module,
        inputs: inputs.iter().map(|s| s.to_string()).collect(),
        ranks: ranks as usize,
    })
}

/// Distributed-Halide variant via `halide_lite::compile_dist`
/// (over-approximated halo + packing). Unsupported benchmarks return Err.
///
/// # Errors
///
/// Structural unsupport or compilation errors.
pub fn halide_dist(
    name: &str,
    s: ImgSize,
    ranks: i64,
) -> halide_lite::Result<(mpisim::DistProgram, usize)> {
    use halide_lite::{DistCompileOptions, HExpr, Pipeline};
    let (h, w) = (s.h, s.w);
    let mut p = Pipeline::new();
    let out = match name {
        "cvtColor" => {
            // Single-input constraint: treat channels as row-major planes
            // in one buffer of w*3 columns.
            let img = p.input("img", &[h, w * 3]);
            let ch = |k: i64| {
                HExpr::In(
                    img,
                    vec![HExpr::var("y"), HExpr::var("x") * HExpr::i(3) + HExpr::i(k)],
                )
            };
            let gray = p.func(
                "gray",
                &["y", "x"],
                HExpr::f(0.299) * ch(0) + HExpr::f(0.587) * ch(1) + HExpr::f(0.114) * ch(2),
            );
            p.set_output(gray);
            gray
        }
        "conv2D" => {
            // Padded-input formulation (the clamped formulation is what
            // makes distributed Halide unable to compute exact footprints;
            // that inability is modeled by `halo_overapprox` below).
            let img = p.input("img", &[h + 2, w + 2]);
            let mut acc = HExpr::f(0.0);
            for ky in 0i64..=2 {
                for kx in 0i64..=2 {
                    acc = acc
                        + HExpr::In(
                            img,
                            vec![
                                HExpr::var("y") + HExpr::i(ky),
                                HExpr::var("x") + HExpr::i(kx),
                            ],
                        ) * HExpr::f(0.111);
                }
            }
            let out = p.func("out", &["y", "x"], acc);
            p.set_output(out);
            out
        }
        "warpAffine" => {
            // Bounded-band formulation: reads up to 2 rows ahead.
            let img = p.input("img", &[h + 2, w]);
            let out = p.func(
                "out",
                &["y", "x"],
                (HExpr::In(img, vec![HExpr::var("y"), HExpr::var("x")])
                    + HExpr::In(img, vec![HExpr::var("y") + HExpr::i(2), HExpr::var("x")]))
                    * HExpr::f(0.5),
            );
            p.set_output(out);
            out
        }
        "gaussian" => {
            let img = p.input("img", &[h + 4, w]);
            let mut acc = HExpr::f(0.0);
            for k in 0..5i64 {
                acc = acc
                    + HExpr::In(img, vec![HExpr::var("y") + HExpr::i(k), HExpr::var("x")])
                        * HExpr::f(0.2);
            }
            let out = p.func("out", &["y", "x"], acc);
            p.set_output(out);
            out
        }
        "nb" => {
            // Four root passes, matching the single-node Halide version.
            let img = p.input("img", &[h, w]);
            let at = || HExpr::In(img, vec![HExpr::var("y"), HExpr::var("x")]);
            let neg = p.func("neg", &["y", "x"], HExpr::f(255.0) - at());
            let bright = p.func(
                "bright",
                &["y", "x"],
                HExpr::Min(Box::new(HExpr::f(1.5) * at()), Box::new(HExpr::f(255.0))),
            );
            let mix = p.func(
                "mix",
                &["y", "x"],
                (HExpr::Call(neg, vec![HExpr::var("y"), HExpr::var("x")])
                    + HExpr::Call(bright, vec![HExpr::var("y"), HExpr::var("x")]))
                    / HExpr::f(2.0),
            );
            let out = p.func(
                "out",
                &["y", "x"],
                HExpr::f(0.5) * HExpr::Call(mix, vec![HExpr::var("y"), HExpr::var("x")])
                    + HExpr::f(0.5) * at(),
            );
            p.set_output(out);
            out
        }
        "edgeDetector" | "ticket #2373" => {
            return Err(halide_lite::Error::Schedule(format!(
                "halide cannot express {name}"
            )))
        }
        other => panic!("unknown benchmark {other}"),
    };
    // Distributed Halide still parallelizes and vectorizes within each
    // node, exactly like the single-node schedules.
    for fid in 0..p.funcs().len() {
        let fid = halide_lite::FuncId::from_raw(fid as u32);
        p.parallel(fid, "y");
        p.vectorize(fid, "x", 8);
    }
    let _ = out;
    let dc = halide_lite::compile_dist(&p, &[h, w], ranks, &DistCompileOptions::default())?;
    Ok((dc.dist, ranks as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::IMAGE_BENCHMARKS;

    #[test]
    fn tiramisu_dist_runs_all_benchmarks() {
        let s = ImgSize::small();
        for name in IMAGE_BENCHMARKS {
            let prep = tiramisu_dist(name, s, 4).unwrap_or_else(|e| panic!("{name}: {e}"));
            let stats = prep.run(true).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(stats.compute.len(), 4, "{name}");
            let work: u64 = stats.compute.iter().map(|c| c.stores).sum();
            assert!(work > 0, "{name}: no work executed");
        }
    }

    #[test]
    fn communication_only_where_expected() {
        let s = ImgSize::small();
        for (name, needs_comm) in [
            ("conv2D", true),
            ("gaussian", true),
            ("edgeDetector", true),
            ("cvtColor", false),
            ("nb", false),
            ("ticket #2373", false),
        ] {
            let prep = tiramisu_dist(name, s, 4).unwrap();
            let stats = prep.run(false).unwrap();
            let bytes: u64 = stats.bytes_sent.iter().sum();
            assert_eq!(bytes > 0, needs_comm, "{name}: sent {bytes} bytes");
        }
    }

    #[test]
    fn dist_halide_sends_more_than_tiramisu() {
        // The paper's Fig. 6 bottom: dist-Halide over-estimates the data
        // to send and packs it.
        let s = ImgSize::small();
        let t = tiramisu_dist("conv2D", s, 4).unwrap();
        let ts = t.run(false).unwrap();
        let (hd, ranks) = halide_dist("conv2D", s, 4).unwrap();
        let hs = mpisim::run(&hd, ranks, &CommModel::default(), false).unwrap();
        let tb: u64 = ts.bytes_sent.iter().sum();
        let hb: u64 = hs.bytes_sent.iter().sum();
        assert!(hb > tb, "halide {hb} bytes should exceed tiramisu {tb}");
    }

    #[test]
    fn strong_scaling_improves_with_ranks() {
        // Figure 7: modeled time shrinks from 2 to 8 ranks (needs a
        // compute-heavy enough image for communication not to dominate).
        let s = ImgSize { h: 384, w: 64 };
        let t2 = tiramisu_dist("conv2D", s, 2).unwrap().run(true).unwrap();
        let t8 = tiramisu_dist("conv2D", s, 8).unwrap().run(true).unwrap();
        assert!(
            t8.modeled_cycles < t2.modeled_cycles,
            "8 ranks {:.0} should beat 2 ranks {:.0}",
            t8.modeled_cycles,
            t2.modeled_cycles
        );
    }
}
