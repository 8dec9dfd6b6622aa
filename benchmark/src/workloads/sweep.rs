//! `compile_sweep`: an autotuner-style sweep in which every request is
//! cold. A request builds one candidate schedule through its `kernels::*`
//! constructor against an empty memory tier, creates the machine the way
//! `Prepared::machine()` does, runs it once and hands back the output.
//! Sizes are small, so `polyhedral` and the `core` pipeline do most of
//! the work and execution little. Each round visits every candidate once
//! in seeded order.

use crate::gen::SplitMix64;
use crate::harness::{counter_sum, probe_ms, timed, Ctx, Recorder, Sample, Workload};
use crate::probes::{self, Acc};
use crate::reference::{self, close, KERNELS_SEED};
use crate::report::Values;
use crate::trace;
use kernels::dnn::ConvSize;
use kernels::image::{ImgSize, IMAGE_BENCHMARKS};
use kernels::image_dist::DistPrep;
use kernels::image_gpu::GpuFlavor;
use kernels::Prepared;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tiramisu::{Expr as E, GpuModule};

pub const SGEMM_N: i64 = 64;
pub const IMG: ImgSize = ImgSize { h: 64, w: 96 };
const RANKS: i64 = 2;
/// The image kernels `halide_lite` compiles (the others are the `-` cells
/// of Figure 6: cyclic graph, float-indexed warp, non-rectangular bounds).
const HALIDE_SUPPORTED: [&str; 4] = ["cvtColor", "conv2D", "gaussian", "nb"];

/// What a candidate's constructor returns, by the substrate that runs it.
enum Built {
    Cpu(Prepared),
    Gpu(Arc<GpuModule>),
    Dist(DistPrep),
}

struct Candidate {
    name: String,
    /// Span name of the constructor (`core.construct`, or
    /// `halide_lite.construct` for the Halide stand-in).
    span: &'static str,
    build: Box<dyn Fn() -> Result<Built, String>>,
    /// GPU and distributed candidates: the name of the output buffer.
    output: &'static str,
    expect: Arc<Vec<f32>>,
    tol: f32,
    /// Distributed candidates only: output rows per rank, row length, and
    /// how many trailing rows of each rank's block depend on rows another
    /// rank produces (not exchanged by the benchmark schedules; skipped).
    dist_rows: Option<(usize, usize, usize)>,
}

fn cpu(
    name: String,
    expect: &Arc<Vec<f32>>,
    tol: f32,
    build: impl Fn() -> tiramisu::Result<Prepared> + 'static,
) -> Candidate {
    Candidate {
        name,
        span: "core.construct",
        build: Box::new(move || build().map(Built::Cpu).map_err(|e| e.to_string())),
        output: "",
        expect: Arc::clone(expect),
        tol,
        dist_rows: None,
    }
}

fn image_output(name: &str) -> &'static str {
    match name {
        "edgeDetector" => "imgbuf",
        "cvtColor" => "gray",
        "gaussian" => "gy",
        _ => "out",
    }
}

fn candidates() -> Vec<Candidate> {
    let mut v = Vec::new();
    let sgemm = Arc::new(kernels::sgemm::reference_result(SGEMM_N));
    for tile in [8, 16, 32] {
        for packing in [true, false] {
            for separate in [true, false] {
                v.push(cpu(
                    format!("sgemm tile={tile} packing={packing} separate={separate}"),
                    &sgemm,
                    1e-4,
                    move || kernels::sgemm::tiramisu_ablated(SGEMM_N, tile, packing, separate),
                ));
            }
        }
    }
    v.push(cpu("sgemm alphaz".into(), &sgemm, 1e-4, || {
        kernels::sgemm::alphaz_like(SGEMM_N, 16)
    }));
    v.push(cpu("sgemm pluto".into(), &sgemm, 1e-4, || {
        kernels::sgemm::pluto_like(SGEMM_N)
    }));
    v.push(cpu("sgemm polly".into(), &sgemm, 1e-4, || {
        kernels::sgemm::polly_like(SGEMM_N)
    }));

    let (h, w) = (IMG.h as usize, IMG.w as usize);
    let image_refs: BTreeMap<&str, Arc<Vec<f32>>> = IMAGE_BENCHMARKS
        .iter()
        .map(|&name| {
            let ins = reference::inputs(KERNELS_SEED, &reference::image_input_sizes(name, h, w));
            (name, Arc::new(reference::image(name, h, w, &ins)))
        })
        .collect();
    for name in IMAGE_BENCHMARKS {
        let expect = &image_refs[name];
        v.push(cpu(
            format!("image tiramisu {name}"),
            expect,
            1e-3,
            move || kernels::image::tiramisu_cpu(name, IMG),
        ));
        v.push(cpu(
            format!("image pencil {name}"),
            expect,
            1e-3,
            move || kernels::image::pencil_cpu(name, IMG),
        ));
    }
    for name in HALIDE_SUPPORTED {
        v.push(Candidate {
            name: format!("image halide {name}"),
            span: "halide_lite.construct",
            build: Box::new(move || {
                kernels::image::halide_cpu(name, IMG)
                    .map(Built::Cpu)
                    .map_err(|e| e.to_string())
            }),
            output: "",
            expect: Arc::clone(&image_refs[name]),
            tol: 1e-3,
            dist_rows: None,
        });
    }

    let cs = ConvSize::small();
    let conv = Arc::new(kernels::dnn::conv_reference(cs));
    v.push(cpu("conv tiramisu".into(), &conv, 1e-3, move || {
        kernels::dnn::conv_tiramisu(cs)
    }));
    v.push(cpu("conv generic".into(), &conv, 1e-3, move || {
        kernels::dnn::conv_generic(cs)
    }));
    let vgg = Arc::new(reference::vgg(cs));
    v.push(cpu("vgg fused".into(), &vgg, 1e-3, move || {
        kernels::dnn::vgg(cs, true, "Tiramisu")
    }));
    v.push(cpu("vgg unfused".into(), &vgg, 1e-3, move || {
        kernels::dnn::vgg(cs, false, "reference")
    }));

    let spmv = Arc::new(kernels::algebra::hpcg_spmv_expected(48));
    v.push(cpu("hpcg spmv".into(), &spmv, 1e-4, || {
        kernels::algebra::hpcg_spmv_tiramisu(48)
    }));
    let waxpby = Arc::new(reference::waxpby(1024, 2.0, 0.5));
    v.push(cpu("hpcg waxpby".into(), &waxpby, 1e-4, || {
        kernels::algebra::hpcg_waxpby_tiramisu(1024, 2.0, 0.5)
    }));
    let dot = Arc::new(reference::dot(1024));
    v.push(cpu("hpcg dot".into(), &dot, 1e-3, || {
        kernels::algebra::hpcg_dot_tiramisu(1024)
    }));
    let baryon = Arc::new(kernels::algebra::baryon_expected(32));
    v.push(cpu("baryon".into(), &baryon, 1e-3, || {
        kernels::algebra::baryon(32, true, "Tiramisu")
    }));

    let gpu = |name: String,
               expect: &Arc<Vec<f32>>,
               tol: f32,
               out: &'static str,
               build: Box<dyn Fn() -> tiramisu::Result<Arc<GpuModule>>>| Candidate {
        name,
        span: "core.construct",
        build: Box::new(move || build().map(Built::Gpu).map_err(|e| e.to_string())),
        output: out,
        expect: Arc::clone(expect),
        tol,
        dist_rows: None,
    };
    for tile in [8, 16] {
        v.push(gpu(
            format!("gpu sgemm tiled {tile}"),
            &sgemm,
            1e-4,
            "C",
            Box::new(move || kernels::sgemm::gpu_tiled(SGEMM_N, tile)),
        ));
    }
    v.push(gpu(
        "gpu sgemm naive".into(),
        &sgemm,
        1e-4,
        "C",
        Box::new(|| kernels::sgemm::gpu_naive(SGEMM_N)),
    ));
    for name in IMAGE_BENCHMARKS {
        v.push(gpu(
            format!("gpu image {name}"),
            &image_refs[name],
            1e-3,
            image_output(name),
            Box::new(move || kernels::image_gpu::gpu_variant(name, IMG, GpuFlavor::Tiramisu)),
        ));
    }

    for name in IMAGE_BENCHMARKS {
        let (row_len, skip) = match name {
            "gaussian" => (w - 4, 4),
            "ticket #2373" => (h, 0),
            "edgeDetector" => (w, 2),
            _ => (w, 0),
        };
        v.push(Candidate {
            name: format!("dist image {name}"),
            span: "core.construct",
            build: Box::new(move || {
                kernels::image_dist::tiramisu_dist(name, IMG, RANKS)
                    .map(Built::Dist)
                    .map_err(|e| e.to_string())
            }),
            output: image_output(name),
            expect: Arc::clone(&image_refs[name]),
            tol: 1e-3,
            dist_rows: Some((h / RANKS as usize, row_len, skip)),
        });
    }
    v
}

pub struct CompileSweep {
    candidates: Vec<Candidate>,
    threads: usize,
    seed: u64,
}

impl CompileSweep {
    /// One cold request for candidate `key`.
    fn request(&self, key: usize, rec: &mut Recorder) {
        let c = &self.candidates[key];
        tiramisu::service::global().clear_memory();
        let t0 = Instant::now();
        let req = trace::enter(trace::REQUEST);
        let (built, compile_ns) = timed(c.span, || (c.build)());
        // Execute once; `got` is the output handed back (per rank for dist).
        let mut got: Vec<(usize, Vec<f32>)> = Vec::new();
        let (ran, run_ns): (Result<(), String>, u64) = match &built {
            Err(e) => (Err(e.clone()), 0),
            Ok(Built::Cpu(prep)) => {
                let mut m = trace::span("loopvm.machine_new", || {
                    let mut m = prep.machine();
                    m.set_threads(self.threads);
                    m
                });
                let (r, ns) = timed("loopvm.run", || m.run(&prep.program));
                got.push((0, m.buffer(prep.output).to_vec()));
                (r.map_err(|e| e.to_string()), ns)
            }
            Ok(Built::Gpu(module)) => {
                let (r, ns) = timed("gpusim.run", || kernels::image_gpu::run_gpu(module));
                match r {
                    Ok((_, _, mut bufs)) => {
                        let idx = module.buffer_index(c.output).expect("gpu output buffer");
                        got.push((0, std::mem::take(&mut bufs[idx])));
                        (Ok(()), ns)
                    }
                    Err(e) => (Err(e.to_string()), ns),
                }
            }
            Ok(Built::Dist(prep)) => {
                let buf = prep.module.vm_buffer(c.output).expect("dist output buffer");
                let outputs = Mutex::new(Vec::new());
                let (r, ns) = timed("mpisim.run", || {
                    prep.run_with_opts(&mpisim::RunOptions::default(), |rank, m| {
                        outputs
                            .lock()
                            .expect("no rank panicked holding the lock")
                            .push((rank, m.buffer(buf).to_vec()));
                    })
                });
                got = outputs
                    .into_inner()
                    .expect("no rank panicked holding the lock");
                (r.map(|_| ()).map_err(|e| e.to_string()), ns)
            }
        };
        let total_ns = t0.elapsed().as_nanos() as u64;
        drop(req);
        if let Err(e) = ran {
            rec.fail(&format!("{}: {e}", c.name));
            return;
        }
        let good = rec.verify(|| match c.dist_rows {
            None => close(&got[0].1, &c.expect, c.tol),
            Some((rows, row_len, skip)) => got.iter().all(|(rank, out)| {
                let (lo, hi) = (rank * rows * row_len, ((rank + 1) * rows - skip) * row_len);
                let hi = hi.min(c.expect.len());
                lo >= hi || close(&out[lo..hi], &c.expect[lo..hi], c.tol)
            }),
        });
        if good {
            rec.ok(Sample {
                class: key as u32,
                key: key as u32,
                cold: true,
                total_ns,
                compile_ns,
                run_ns,
            });
        } else {
            rec.fail(&format!("{}: output differs from the reference", c.name));
        }
    }
}

impl Workload for CompileSweep {
    const NAME: &'static str = "compile_sweep";

    fn setup(ctx: &Ctx) -> Self {
        let w = CompileSweep {
            candidates: candidates(),
            threads: ctx.threads,
            seed: ctx.seed,
        };
        let mut warm = Recorder::default();
        for key in 0..w.candidates.len() {
            w.request(key, &mut warm);
        }
        w
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        let svc = tiramisu::service::global();
        let before = (
            svc.stats(),
            counter_sum("vm.jit.compiles"),
            counter_sum("gpu.launches"),
        );
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        SplitMix64::fork(self.seed, round).shuffle(&mut order);
        for key in order {
            self.request(key, rec);
        }
        let after = svc.stats();
        rec.round_counters.push(BTreeMap::from([
            (
                "service.compiles".to_string(),
                after.compiles - before.0.compiles,
            ),
            (
                "service.memory_hits".to_string(),
                after.memory_hits - before.0.memory_hits,
            ),
            (
                "vm.jit.compiles".to_string(),
                counter_sum("vm.jit.compiles") - before.1,
            ),
            (
                "gpu.launches".to_string(),
                counter_sum("gpu.launches") - before.2,
            ),
        ]));
    }

    fn probes(&mut self, layers: &mut Values, budget: Duration) -> Result<(), String> {
        let slice = budget / 64;
        let mut acc = Acc::default();
        probes::function_compile(&mut acc, &probes::sgemm_function, &[("N", SGEMM_N)], slice);
        probes::function_compile(
            &mut acc,
            &|| probes::conv2d_function(IMG),
            &[("H", IMG.h), ("W", IMG.w)],
            slice,
        );
        for c in &self.candidates {
            match (c.build)().expect("probe subject compiles") {
                Built::Cpu(prep) => probes::program_compile(&mut acc, &prep.program, slice / 8),
                Built::Gpu(module) => {
                    for k in &module.kernels {
                        acc.ms(
                            "gpusim.compile_phases_ms",
                            probe_ms(20, || {
                                std::hint::black_box(
                                    gpusim::exec::compile_phases(k).expect("phase bytecode"),
                                );
                            }),
                        );
                    }
                }
                Built::Dist(prep) => acc.ms(
                    "mpisim.run_ms",
                    probe_ms(20, || {
                        std::hint::black_box(prep.run(false).expect("dist run"));
                    }),
                ),
            }
        }
        for name in HALIDE_SUPPORTED {
            acc.ms(
                "halide_lite.compile_ms",
                probe_ms(20, || {
                    std::hint::black_box(kernels::image::halide_cpu(name, IMG).expect("halide"));
                }),
            );
        }
        acc.ms(
            "autosched.auto_schedule_ms",
            probe_ms(20, || {
                let (mut f, _, _) = kernels::sgemm::layer1(1.0, 1.0);
                std::hint::black_box(
                    autosched::auto_schedule(&mut f, &autosched::AutoOptions::pluto())
                        .expect("auto schedule"),
                );
            }),
        );
        acc.ms(
            "core.compile_gpu_ms",
            probe_ms(20, || {
                std::hint::black_box(gpu_sgemm_direct().expect("gpu compile"));
            }),
        );
        acc.ms(
            "core.compile_dist_ms",
            probe_ms(20, || {
                std::hint::black_box(dist_conv2d_direct().expect("dist compile"));
            }),
        );
        acc.finish(layers);
        Ok(())
    }
}

/// `kernels::sgemm::gpu_tiled`'s schedule compiled directly (no service).
fn gpu_sgemm_direct() -> tiramisu::Result<GpuModule> {
    let (mut f, c_init, c_upd) = kernels::sgemm::layer1(1.0, 1.0);
    f.tile_gpu(c_upd, "i", "j", 8, 8)?;
    f.tile_gpu(c_init, "i", "j", 8, 8)?;
    f.fuse_after(c_upd, c_init, "jT")?;
    tiramisu::compile_gpu(&f, &[("N", SGEMM_N)], tiramisu::GpuOptions::default())
}

/// The Figure 3(c) recipe on conv2D compiled directly (no service):
/// split + distribute + parallelize + vectorize, one halo row exchanged.
fn dist_conv2d_direct() -> tiramisu::Result<tiramisu::DistModule> {
    let (mut f, out) = kernels::image::conv2d_layer1(IMG);
    let chunk = IMG.h / RANKS;
    f.split(out, "i", chunk, "r0", "r1")?;
    f.distribute(out, "r0")?;
    f.parallelize(out, "r1")?;
    f.vectorize(out, "j", 8)?;
    let is = tiramisu::Var::new("is", E::i64(1), E::i64(RANKS));
    let ir = tiramisu::Var::new("ir", E::i64(0), E::i64(RANKS - 1));
    let send = f.send(
        is,
        "img",
        E::iter("is") * E::i64(chunk * IMG.w),
        E::i64(IMG.w),
        E::iter("is") - E::i64(1),
        true,
    );
    let recv = f.receive(
        ir,
        "img",
        (E::iter("ir") + E::i64(1)) * E::i64(chunk * IMG.w),
        E::i64(IMG.w),
        E::iter("ir") + E::i64(1),
    );
    f.comm_before(send, out);
    f.comm_before(recv, out);
    tiramisu::compile_dist(
        &f,
        &[("H", IMG.h), ("W", IMG.w)],
        tiramisu::DistOptions {
            check_legality: false,
            ..Default::default()
        },
    )
}
