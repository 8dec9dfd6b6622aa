//! The emptiness oracle under the whole compiler: every constructor of the
//! benchmark's `compile_sweep` (58 candidates) and the Fig. 1/6 kernels
//! must compile without the Omega test ever running out of budget, with
//! every integer bound settled in a handful of solves, and with exactly
//! the buffer extents the bisecting `int_min`/`int_max` produced.
//!
//! The oracle's counters are process-wide, so this file holds one test.

use kernels::dnn::ConvSize;
use kernels::image::{ImgSize, IMAGE_BENCHMARKS};
use kernels::image_gpu::GpuFlavor;
use polyhedral::solve::counters;

const SGEMM_N: i64 = 64;
const IMG: ImgSize = ImgSize { h: 64, w: 96 };

/// A constructor of the sweep: builds (schedules and compiles) one
/// candidate and hands back the declarations of the program it runs.
type Build = Box<dyn Fn() -> Result<loopvm::Program, String>>;

fn cpu(build: impl Fn() -> tiramisu::Result<kernels::Prepared> + 'static) -> Build {
    Box::new(move || build().map(|p| p.program.clone()).map_err(|e| e.to_string()))
}

/// `benchmark/src/workloads/sweep.rs::candidates`, constructor for
/// constructor.
fn sweep() -> Vec<(String, Build)> {
    let mut v: Vec<(String, Build)> = Vec::new();
    for tile in [8, 16, 32] {
        for packing in [true, false] {
            for separate in [true, false] {
                v.push((
                    format!("sgemm tile={tile} packing={packing} separate={separate}"),
                    cpu(move || kernels::sgemm::tiramisu_ablated(SGEMM_N, tile, packing, separate)),
                ));
            }
        }
    }
    v.push(("sgemm alphaz".into(), cpu(|| kernels::sgemm::alphaz_like(SGEMM_N, 16))));
    v.push(("sgemm pluto".into(), cpu(|| kernels::sgemm::pluto_like(SGEMM_N))));
    v.push(("sgemm polly".into(), cpu(|| kernels::sgemm::polly_like(SGEMM_N))));
    for name in IMAGE_BENCHMARKS {
        v.push((
            format!("image tiramisu {name}"),
            cpu(move || kernels::image::tiramisu_cpu(name, IMG)),
        ));
        v.push((format!("image pencil {name}"), cpu(move || kernels::image::pencil_cpu(name, IMG))));
    }
    for name in ["cvtColor", "conv2D", "gaussian", "nb"] {
        v.push((
            format!("image halide {name}"),
            Box::new(move || {
                kernels::image::halide_cpu(name, IMG)
                    .map(|p| p.program.clone())
                    .map_err(|e| e.to_string())
            }),
        ));
    }
    let cs = ConvSize::small();
    v.push(("conv tiramisu".into(), cpu(move || kernels::dnn::conv_tiramisu(cs))));
    v.push(("conv generic".into(), cpu(move || kernels::dnn::conv_generic(cs))));
    v.push(("vgg fused".into(), cpu(move || kernels::dnn::vgg(cs, true, "Tiramisu"))));
    v.push(("vgg unfused".into(), cpu(move || kernels::dnn::vgg(cs, false, "reference"))));
    v.push(("hpcg spmv".into(), cpu(|| kernels::algebra::hpcg_spmv_tiramisu(48))));
    v.push(("hpcg waxpby".into(), cpu(|| kernels::algebra::hpcg_waxpby_tiramisu(1024, 2.0, 0.5))));
    v.push(("hpcg dot".into(), cpu(|| kernels::algebra::hpcg_dot_tiramisu(1024))));
    v.push(("baryon".into(), cpu(|| kernels::algebra::baryon(32, true, "Tiramisu"))));

    let gpu = |build: Box<dyn Fn() -> tiramisu::Result<std::sync::Arc<tiramisu::GpuModule>>>| {
        Box::new(move || build().map(|m| m.program.clone()).map_err(|e| e.to_string())) as Build
    };
    for tile in [8, 16] {
        v.push((
            format!("gpu sgemm tiled {tile}"),
            gpu(Box::new(move || kernels::sgemm::gpu_tiled(SGEMM_N, tile))),
        ));
    }
    v.push(("gpu sgemm naive".into(), gpu(Box::new(|| kernels::sgemm::gpu_naive(SGEMM_N)))));
    for name in IMAGE_BENCHMARKS {
        v.push((
            format!("gpu image {name}"),
            gpu(Box::new(move || {
                kernels::image_gpu::gpu_variant(name, IMG, GpuFlavor::Tiramisu)
            })),
        ));
    }
    for name in IMAGE_BENCHMARKS {
        v.push((
            format!("dist image {name}"),
            Box::new(move || {
                kernels::image_dist::tiramisu_dist(name, IMG, 2)
                    .map(|p| p.module.dist.program().clone())
                    .map_err(|e| e.to_string())
            }),
        ));
    }
    v
}

/// `name:size` of every declared buffer, in declaration order.
fn buffers(p: &loopvm::Program) -> String {
    (0..p.n_buffers())
        .map(|i| {
            let (name, size) = p.buffer_info(p.nth_buffer(i));
            format!("{name}:{size}")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn the_sweep_never_exhausts_the_oracle_and_keeps_its_extents() {
    let svc = tiramisu::service::global();
    let candidates = sweep();
    assert_eq!(candidates.len(), 58);
    let start = counters();
    let mut table = String::new();
    for (name, build) in &candidates {
        svc.clear_memory();
        let before = counters();
        let program = build().unwrap_or_else(|e| panic!("{name}: {e}"));
        let solves = counters().solves - before.solves;
        if name == "sgemm tile=16 packing=true separate=true" {
            // 584 with 44-solve bisection and per-disjunct systems.
            assert!(solves <= 146, "{name}: {solves} Omega solves for one cold compile");
        }
        table.push_str(&format!("{name} | {}\n", buffers(&program)));
    }
    for (name, build) in bench::fig_kernels() {
        svc.clear_memory();
        build().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let end = counters();
    assert_eq!(end.exhausted, start.exhausted, "a verdict came from a spent budget");
    assert!(end.bound_solves > start.bound_solves && end.presolved > start.presolved);
    assert!(end.worst_bound <= 4, "some bound took {} solves", end.worst_bound);

    // The pipeline mirrors the counters into the metrics registry.
    let metrics = telemetry::metrics::snapshot_json();
    for name in ["poly.omega.solves", "poly.omega.presolved", "poly.omega.exhausted"] {
        assert!(metrics.contains(name), "{name} is not registered");
    }
    assert_eq!(telemetry::metrics::counter("poly.omega.exhausted").get(), 0);
    assert!(telemetry::metrics::counter("poly.omega.solves").get() > 0);

    // Auto-buffer extents come from `int_min`/`int_max` over the domains;
    // the table was captured with the bisecting implementation.
    let pinned = include_str!("golden/sweep_buffers.txt");
    assert_eq!(table, pinned, "buffer extents moved");
}
