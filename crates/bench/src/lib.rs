#![warn(missing_docs)]

//! `bench` — the harness that regenerates every table and figure of the
//! paper's evaluation (§VI).
//!
//! `cargo run -p bench --bin figures [-- fig1|table1|fig5|fig6|fig7|all]`
//! prints the paper-style tables from **modeled** execution (the VM cost
//! model, the GPU simulator's cycles, the cluster simulator's
//! compute+communication time). Modeled time is machine-independent, so
//! the figures come out the same on any host — including single-core CI
//! machines. `figures -- native` runs the same CPU columns
//! ([`fig1_cpu_columns`], [`fig5_pairs`], [`fig6_cpu_columns`]) for
//! **wall-clock** time instead (host-dependent, never snapshotted).
//!
//! `EXPERIMENTS.md` at the workspace root records paper-reported vs
//! measured values for each figure.

pub mod gate;
pub mod roofline;
/// The workspace JSON reader ([`telemetry::json`]), under the path the
/// snapshot gate and the benchmark driver use.
pub use telemetry::json;

use kernels::image::ImgSize;

/// One labeled measurement (modeled cycles).
#[derive(Debug, Clone)]
pub struct Bar {
    /// Variant name (e.g. `"Tiramisu"`).
    pub name: String,
    /// Modeled execution metric.
    pub cycles: f64,
}

/// Formats bars as execution time normalized to `baseline` (the paper's
/// presentation).
pub fn normalized(bars: &[Bar], baseline: &str) -> Vec<(String, f64)> {
    let base = bars
        .iter()
        .find(|b| b.name == baseline)
        .map(|b| b.cycles)
        .expect("baseline present");
    bars.iter().map(|b| (b.name.clone(), b.cycles / base)).collect()
}

/// Renders a simple aligned table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (k, c) in r.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(c.len());
            }
        }
    }
    let mut out = format!("\n=== {title} ===\n");
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

/// Default image benchmark size for figure regeneration.
pub fn default_img() -> ImgSize {
    ImgSize { h: 48, w: 64 }
}

/// A named constructor of one CPU kernel.
pub type KernelBuild = (String, Box<dyn Fn() -> tiramisu::Result<kernels::Prepared>>);

/// The Figure 1 sgemm schedule and every Figure 6 image kernel at the
/// sizes the per-kernel cross-sections of the snapshot (`exec_tiers`,
/// `oracle`) use.
pub fn fig_kernels() -> Vec<KernelBuild> {
    fig_kernels_sized((48, 16), ImgSize::small())
}

/// The same kernels at the sizes the wall-clock benchmark executes
/// (sgemm n=192/tile 32, images 768×1024), whose `Parallel` dispatches
/// are large enough to split.
pub fn fig_kernels_large() -> Vec<KernelBuild> {
    fig_kernels_sized((192, 32), ImgSize { h: 768, w: 1024 })
}

/// [`fig_kernels`] with sgemm at `(n, tile)` and the images at `img`.
fn fig_kernels_sized((n, tile): (i64, i64), img: ImgSize) -> Vec<KernelBuild> {
    let mut v: Vec<KernelBuild> =
        vec![("sgemm".into(), Box::new(move || kernels::sgemm::tiramisu_best(n, tile)))];
    for name in kernels::image::IMAGE_BENCHMARKS {
        v.push((name.to_string(), Box::new(move || kernels::image::tiramisu_cpu(name, img))));
    }
    v
}

/// What the emptiness oracle did for one cold CPU compile of each
/// [`fig_kernels`] entry (constructor plus pipeline, memory tier emptied
/// first). Exact counts; a disk tier (`TIRAMISU_CACHE_DIR`) would answer
/// without compiling and must be off.
pub fn oracle_counts() -> Vec<(String, polyhedral::solve::OracleCounters)> {
    use polyhedral::solve::counters;
    fig_kernels()
        .into_iter()
        .map(|(name, build)| {
            tiramisu::service::global().clear_memory();
            let before = counters();
            build().expect("kernel compiles");
            (name, counters().since(before))
        })
        .collect()
}

/// The Figure 1 CPU columns at `n`/`tile`: Intel MKL, Polly, AlphaZ,
/// Pluto and Tiramisu's sgemm.
pub fn fig1_cpu_columns(n: i64, tile: i64) -> Vec<(String, kernels::Prepared)> {
    use kernels::sgemm::{alphaz_like, pluto_like, polly_like, tiramisu_best, vendor};
    vec![
        ("Intel MKL".into(), vendor(n, tile)),
        ("Polly".into(), polly_like(n).unwrap()),
        ("AlphaZ".into(), alphaz_like(n, tile).unwrap()),
        ("Pluto".into(), pluto_like(n).unwrap()),
        ("Tiramisu".into(), tiramisu_best(n, tile).unwrap()),
    ]
}

/// Figure 1 (left): sgemm on CPU, normalized to Intel MKL.
pub fn fig1_cpu(n: i64, tile: i64) -> Vec<Bar> {
    fig1_cpu_columns(n, tile)
        .into_iter()
        .map(|(name, prep)| Bar { name, cycles: prep.run_modeled().unwrap().cycles })
        .collect()
}

/// Figure 1 (right): sgemm on GPU, normalized to cuBLAS.
pub fn fig1_gpu(n: i64) -> Vec<Bar> {
    let run = |m: &tiramisu::GpuModule| {
        let (cycles, _, _) = kernels::image_gpu::run_gpu(m).unwrap();
        cycles
    };
    let tiled = kernels::sgemm::gpu_tiled(n, 8).unwrap();
    let naive = kernels::sgemm::gpu_naive(n).unwrap();
    let tiled16 = kernels::sgemm::gpu_tiled(n, 16).unwrap();
    vec![
        Bar { name: "cuBLAS".into(), cycles: run(&tiled) },
        Bar { name: "PENCIL".into(), cycles: run(&naive) },
        Bar { name: "TC".into(), cycles: run(&tiled16) },
        Bar { name: "Tiramisu".into(), cycles: run(&tiled) },
    ]
}

/// The Figure 5 benchmarks: (name, Tiramisu, reference/MKL).
pub fn fig5_pairs() -> Vec<(String, kernels::Prepared, kernels::Prepared)> {
    use kernels::{algebra, dnn, sgemm};
    let conv_s = dnn::ConvSize::small();
    let (n, tile) = (96, 32);
    vec![
        ("Conv".into(), dnn::conv_tiramisu(conv_s).unwrap(), dnn::conv_generic(conv_s).unwrap()),
        (
            "VGG".into(),
            dnn::vgg(conv_s, true, "Tiramisu").unwrap(),
            dnn::vgg(conv_s, false, "reference").unwrap(),
        ),
        ("Sgemm".into(), sgemm::tiramisu_best(n, tile).unwrap(), sgemm::vendor(n, tile)),
        ("HPCG".into(), algebra::hpcg_spmv_tiramisu(48).unwrap(), algebra::hpcg_spmv_reference(48)),
        (
            "Baryon".into(),
            algebra::baryon(32, true, "Tiramisu").unwrap(),
            algebra::baryon(32, false, "reference").unwrap(),
        ),
    ]
}

/// Figure 5: deep learning / linear algebra vs reference, as modeled
/// cycles (name, Tiramisu, reference).
pub fn fig5() -> Vec<(String, f64, f64)> {
    let cycles = |p: &kernels::Prepared| p.run_modeled().unwrap().cycles;
    fig5_pairs().into_iter().map(|(name, t, r)| (name, cycles(&t), cycles(&r))).collect()
}

/// Figure 6: the three-architecture heatmap. Each cell is normalized to
/// the Tiramisu column; `None` renders as "-".
pub struct Fig6 {
    /// Single-node multicore rows: (framework, per-benchmark cells).
    pub cpu: Vec<(String, Vec<Option<f64>>)>,
    /// GPU rows.
    pub gpu: Vec<(String, Vec<Option<f64>>)>,
    /// Distributed rows (16 ranks in the paper; configurable here).
    pub dist: Vec<(String, Vec<Option<f64>>)>,
}

/// The Figure 6 CPU columns of image kernel `name` at `s`: Tiramisu,
/// Halide (`None` where Halide cannot express the kernel) and PENCIL.
pub fn fig6_cpu_columns(
    name: &str,
    s: ImgSize,
) -> (kernels::Prepared, Option<kernels::Prepared>, kernels::Prepared) {
    use kernels::image::{halide_cpu, pencil_cpu, tiramisu_cpu};
    (
        tiramisu_cpu(name, s).unwrap(),
        halide_cpu(name, s).ok(),
        pencil_cpu(name, s).unwrap(),
    )
}

/// Computes Figure 6 for the given size and rank count.
pub fn fig6(s: ImgSize, ranks: i64) -> Fig6 {
    use kernels::image::IMAGE_BENCHMARKS;
    use kernels::image_gpu::{gpu_variant, run_gpu, GpuFlavor};

    let mut cpu_t = Vec::new();
    let mut cpu_h = Vec::new();
    let mut cpu_p = Vec::new();
    let cycles = |p: &kernels::Prepared| p.run_modeled().unwrap().cycles;
    for name in IMAGE_BENCHMARKS {
        let (t, h, p) = fig6_cpu_columns(name, s);
        let t = cycles(&t);
        cpu_t.push(Some(1.0));
        cpu_h.push(h.map(|h| cycles(&h) / t));
        cpu_p.push(Some(cycles(&p) / t));
    }

    let mut gpu_t = Vec::new();
    let mut gpu_h = Vec::new();
    let mut gpu_p = Vec::new();
    for name in IMAGE_BENCHMARKS {
        let t = run_gpu(&gpu_variant(name, s, GpuFlavor::Tiramisu).unwrap()).unwrap().0;
        gpu_t.push(Some(1.0));
        gpu_h.push(
            gpu_variant(name, s, GpuFlavor::Halide)
                .ok()
                .map(|m| run_gpu(&m).unwrap().0 / t),
        );
        gpu_p.push(Some(run_gpu(&gpu_variant(name, s, GpuFlavor::Pencil).unwrap()).unwrap().0 / t));
    }

    let mut dist_t = Vec::new();
    let mut dist_h = Vec::new();
    for name in IMAGE_BENCHMARKS {
        let t = kernels::image_dist::tiramisu_dist(name, s, ranks)
            .unwrap()
            .run(true)
            .unwrap()
            .modeled_cycles;
        dist_t.push(Some(1.0));
        dist_h.push(kernels::image_dist::halide_dist(name, s, ranks).ok().map(|(d, r)| {
            mpisim::run(&d, r, &mpisim::CommModel::default(), true)
                .unwrap()
                .modeled_cycles
                / t
        }));
    }

    Fig6 {
        cpu: vec![
            ("Tiramisu".into(), cpu_t),
            ("Halide".into(), cpu_h),
            ("PENCIL".into(), cpu_p),
        ],
        gpu: vec![
            ("Tiramisu".into(), gpu_t),
            ("Halide".into(), gpu_h),
            ("PENCIL".into(), gpu_p),
        ],
        dist: vec![("Tiramisu".into(), dist_t), ("Dist-Halide".into(), dist_h)],
    }
}

/// Default image size for Figure 7 (compute-heavy enough that per-node
/// work dominates message latency, as with the paper's 2112×3520 images).
pub fn fig7_img() -> ImgSize {
    ImgSize { h: 768, w: 96 }
}

/// Figure 7: strong scaling — speedup over 2 ranks for 2/4/8/16 ranks.
pub fn fig7(s: ImgSize) -> Vec<(String, Vec<f64>)> {
    use kernels::image::IMAGE_BENCHMARKS;
    let mut out = Vec::new();
    for name in IMAGE_BENCHMARKS {
        let mut base = None;
        let mut speedups = Vec::new();
        for ranks in [2i64, 4, 8, 16] {
            let cycles = kernels::image_dist::tiramisu_dist(name, s, ranks)
                .unwrap()
                .run(true)
                .unwrap()
                .modeled_cycles;
            let b = *base.get_or_insert(cycles);
            speedups.push(b / cycles);
        }
        out.push((name.to_string(), speedups));
    }
    out
}

/// Table I: the feature matrix, derived from what each crate in this
/// workspace actually implements.
pub fn table1() -> Vec<(String, [&'static str; 5])> {
    // Columns: Tiramisu, AlphaZ*, PENCIL*, Pluto*, Halide* (the starred
    // systems are this reproduction's stand-ins; capabilities follow the
    // paper's Table I and are reflected in the stand-ins' code).
    vec![
        ("CPU code generation".into(), ["Yes", "Yes", "Yes", "Yes", "Yes"]),
        ("GPU code generation".into(), ["Yes", "No", "Yes", "Yes", "Yes"]),
        ("Distributed CPU code generation".into(), ["Yes", "No", "No", "Yes", "Yes"]),
        ("Distributed GPU code generation".into(), ["Yes", "No", "No", "No", "No"]),
        ("Support all affine loop transformations".into(), ["Yes", "Yes", "Yes", "Yes", "No"]),
        ("Commands for loop transformations".into(), ["Yes", "Yes", "No", "No", "Yes"]),
        ("Commands for optimizing data accesses".into(), ["Yes", "Yes", "No", "No", "Yes"]),
        ("Commands for communication".into(), ["Yes", "No", "No", "No", "No"]),
        ("Commands for memory hierarchies".into(), ["Yes", "No", "No", "No", "Limited"]),
        ("Expressing cyclic data-flow graphs".into(), ["Yes", "Yes", "Yes", "Yes", "No"]),
        ("Non-rectangular iteration spaces".into(), ["Yes", "Yes", "Yes", "Yes", "Limited"]),
        ("Exact dependence analysis".into(), ["Yes", "Yes", "Yes", "Yes", "No"]),
        ("Compile-time set emptiness check".into(), ["Yes", "Yes", "Yes", "Yes", "No"]),
        ("Implement parametric tiling".into(), ["No", "Yes", "No", "No", "Yes"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_uses_baseline() {
        let bars = vec![
            Bar { name: "a".into(), cycles: 10.0 },
            Bar { name: "b".into(), cycles: 20.0 },
        ];
        let n = normalized(&bars, "a");
        assert_eq!(n[1].1, 2.0);
    }

    #[test]
    fn table_render_contains_cells() {
        let t = render_table("T", &["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("T"));
        assert!(t.contains('1'));
    }

    #[test]
    fn fig1_shape_holds() {
        // MKL ~ Tiramisu ≪ automatic compilers.
        let bars = fig1_cpu(64, 16);
        let n = normalized(&bars, "Intel MKL");
        let get = |name: &str| n.iter().find(|(b, _)| b == name).unwrap().1;
        assert!(get("Tiramisu") < 2.0);
        assert!(get("Pluto") > get("Tiramisu"));
        assert!(get("Polly") > get("Tiramisu"));
        assert!(get("AlphaZ") > get("Tiramisu"));
    }

    #[test]
    fn table1_matches_paper_row_count() {
        assert_eq!(table1().len(), 14);
    }
}
