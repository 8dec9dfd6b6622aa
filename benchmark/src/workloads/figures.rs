//! `figures_modeled`: the reproducer's journey. Every bar of Figures 1,
//! 5, 6 and 7 is built by the same `kernels` calls `bench::fig*` make and
//! priced under the cost model — the tree-walk stats evaluator for CPU
//! bars, `gpusim` launches for GPU bars, `mpisim` stats mode for
//! distributed ones. A request is one bar from a fresh process's point of
//! view: constructor against an empty memory tier, then pricing. After
//! each round the normalized cells are compared with the committed
//! `BENCH_figures.json`.

use crate::harness::{probe_ms, timed, Ctx, Recorder, Sample, Workload};
use crate::probes::Acc;
use crate::report::Values;
use crate::trace;
use bench::json::Json;
use kernels::image::{ImgSize, IMAGE_BENCHMARKS};
use kernels::image_dist::DistPrep;
use kernels::image_gpu::GpuFlavor;
use kernels::Prepared;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiramisu::GpuModule;

/// The committed snapshot the normalized cells must reproduce.
const SNAPSHOT: &str = include_str!("../../../BENCH_figures.json");
/// Snapshot values are printed with six decimals.
const CELL_TOLERANCE: f64 = 1e-6;

const FIG6_RANKS: i64 = 4;
const FIG7_RANKS: [i64; 2] = [2, 4];

/// What a bar's constructor returns, by the substrate that prices it.
enum Built {
    Cpu(Prepared),
    Gpu(Arc<GpuModule>),
    Dist(DistPrep),
    /// `halide_lite::compile_dist` output and its rank count.
    HalideDist(mpisim::DistProgram, usize),
}

impl Built {
    /// Modeled cycles of this bar.
    fn price(&self) -> Result<f64, String> {
        match self {
            Built::Cpu(p) => p.run_modeled().map(|s| s.cycles).map_err(|e| e.to_string()),
            Built::Gpu(m) => kernels::image_gpu::run_gpu(m)
                .map(|r| r.0)
                .map_err(|e| e.to_string()),
            Built::Dist(p) => p
                .run(true)
                .map(|s| s.modeled_cycles)
                .map_err(|e| e.to_string()),
            Built::HalideDist(d, ranks) => {
                mpisim::run(d, *ranks, &mpisim::CommModel::default(), true)
                    .map(|s| s.modeled_cycles)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Span name of the pricing call (`<substrate>.price`).
    fn price_span(&self) -> &'static str {
        match self {
            Built::Cpu(_) => "loopvm.price",
            Built::Gpu(_) => "gpusim.price",
            Built::Dist(_) | Built::HalideDist(..) => "mpisim.price",
        }
    }

    fn substrate(&self) -> &'static str {
        match self {
            Built::Cpu(_) => "loopvm",
            Built::Gpu(_) => "gpusim",
            Built::Dist(_) | Built::HalideDist(..) => "mpisim",
        }
    }
}

struct Bar {
    /// `<section>/<row>[/<column>]`, e.g. `fig6_cpu/Halide/conv2D`.
    id: String,
    build: Box<dyn Fn() -> Result<Built, String>>,
}

fn bar<E: std::fmt::Display>(id: String, build: impl Fn() -> Result<Built, E> + 'static) -> Bar {
    Bar {
        id,
        build: Box::new(move || build().map_err(|e| e.to_string())),
    }
}

fn ok<T>(v: T) -> Result<T, String> {
    Ok(v)
}

/// Every bar `figures -- all` prices (Figure 7 at ranks 2 and 4).
fn bars() -> Vec<Bar> {
    use kernels::{algebra, dnn, image, image_dist, image_gpu, sgemm};
    let mut v = Vec::new();
    fn cpu(r: tiramisu::Result<Prepared>) -> tiramisu::Result<Built> {
        r.map(Built::Cpu)
    }

    let (n, tile) = (96, 32);
    v.push(bar("fig1_cpu/Intel MKL".into(), move || {
        ok(Built::Cpu(sgemm::vendor(n, tile)))
    }));
    v.push(bar("fig1_cpu/Polly".into(), move || {
        cpu(sgemm::polly_like(n))
    }));
    v.push(bar("fig1_cpu/AlphaZ".into(), move || {
        cpu(sgemm::alphaz_like(n, tile))
    }));
    v.push(bar("fig1_cpu/Pluto".into(), move || {
        cpu(sgemm::pluto_like(n))
    }));
    v.push(bar("fig1_cpu/Tiramisu".into(), move || {
        cpu(sgemm::tiramisu_best(n, tile))
    }));

    let gn = 64;
    v.push(bar("fig1_gpu/cuBLAS".into(), move || {
        sgemm::gpu_tiled(gn, 8).map(Built::Gpu)
    }));
    v.push(bar("fig1_gpu/PENCIL".into(), move || {
        sgemm::gpu_naive(gn).map(Built::Gpu)
    }));
    v.push(bar("fig1_gpu/TC".into(), move || {
        sgemm::gpu_tiled(gn, 16).map(Built::Gpu)
    }));
    v.push(bar("fig1_gpu/Tiramisu".into(), move || {
        sgemm::gpu_tiled(gn, 8).map(Built::Gpu)
    }));

    let cs = dnn::ConvSize::small();
    v.push(bar("fig5/Conv/tiramisu".into(), move || {
        cpu(dnn::conv_tiramisu(cs))
    }));
    v.push(bar("fig5/Conv/reference".into(), move || {
        cpu(dnn::conv_generic(cs))
    }));
    v.push(bar("fig5/VGG/tiramisu".into(), move || {
        cpu(dnn::vgg(cs, true, "Tiramisu"))
    }));
    v.push(bar("fig5/VGG/reference".into(), move || {
        cpu(dnn::vgg(cs, false, "reference"))
    }));
    v.push(bar("fig5/Sgemm/tiramisu".into(), move || {
        cpu(sgemm::tiramisu_best(n, tile))
    }));
    v.push(bar("fig5/Sgemm/reference".into(), move || {
        ok(Built::Cpu(sgemm::vendor(n, tile)))
    }));
    v.push(bar("fig5/HPCG/tiramisu".into(), || {
        cpu(algebra::hpcg_spmv_tiramisu(48))
    }));
    v.push(bar("fig5/HPCG/reference".into(), || {
        ok(Built::Cpu(algebra::hpcg_spmv_reference(48)))
    }));
    v.push(bar("fig5/Baryon/tiramisu".into(), || {
        cpu(algebra::baryon(32, true, "Tiramisu"))
    }));
    v.push(bar("fig5/Baryon/reference".into(), || {
        cpu(algebra::baryon(32, false, "reference"))
    }));

    let s = bench::default_img();
    for name in IMAGE_BENCHMARKS {
        v.push(bar(format!("fig6_cpu/Tiramisu/{name}"), move || {
            cpu(image::tiramisu_cpu(name, s))
        }));
        if image::halide_cpu(name, s).is_ok() {
            v.push(bar(format!("fig6_cpu/Halide/{name}"), move || {
                image::halide_cpu(name, s).map(Built::Cpu)
            }));
        }
        v.push(bar(format!("fig6_cpu/PENCIL/{name}"), move || {
            cpu(image::pencil_cpu(name, s))
        }));
    }
    for name in IMAGE_BENCHMARKS {
        for (row, flavor) in [
            ("Tiramisu", GpuFlavor::Tiramisu),
            ("Halide", GpuFlavor::Halide),
            ("PENCIL", GpuFlavor::Pencil),
        ] {
            if image_gpu::gpu_variant(name, s, flavor).is_ok() {
                v.push(bar(format!("fig6_gpu/{row}/{name}"), move || {
                    image_gpu::gpu_variant(name, s, flavor).map(Built::Gpu)
                }));
            }
        }
    }
    for name in IMAGE_BENCHMARKS {
        v.push(bar(format!("fig6_dist/Tiramisu/{name}"), move || {
            image_dist::tiramisu_dist(name, s, FIG6_RANKS).map(Built::Dist)
        }));
        if image_dist::halide_dist(name, s, FIG6_RANKS).is_ok() {
            v.push(bar(format!("fig6_dist/Dist-Halide/{name}"), move || {
                image_dist::halide_dist(name, s, FIG6_RANKS).map(|(d, r)| Built::HalideDist(d, r))
            }));
        }
    }
    let s7: ImgSize = bench::fig7_img();
    for name in IMAGE_BENCHMARKS {
        for ranks in FIG7_RANKS {
            v.push(bar(format!("fig7/{name}/{ranks}"), move || {
                image_dist::tiramisu_dist(name, s7, ranks).map(Built::Dist)
            }));
        }
    }
    v
}

/// Compares the normalized cells derived from `cycles` (by bar id) with
/// the snapshot; returns one message per cell that is off.
fn check_cells(cycles: &BTreeMap<String, f64>, snapshot: &Json) -> Vec<String> {
    let mut off = Vec::new();
    let cell = |what: String, num: Option<&f64>, den: Option<&f64>, want: f64| match (num, den) {
        (Some(n), Some(d)) if (n / d - want).abs() <= CELL_TOLERANCE => None,
        (Some(n), Some(d)) => Some(format!(
            "{what}: {:.6} but the snapshot says {want:.6}",
            n / d
        )),
        _ => Some(format!("{what}: no bar priced for this cell")),
    };
    let members = |section: &str| -> Vec<(String, Json)> {
        snapshot
            .get(section)
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    for (section, base) in [("fig1_cpu", "Intel MKL"), ("fig1_gpu", "cuBLAS")] {
        for (name, v) in members(section) {
            off.extend(cell(
                format!("{section}/{name}"),
                cycles.get(&format!("{section}/{name}")),
                cycles.get(&format!("{section}/{base}")),
                v.as_f64().unwrap_or(f64::NAN),
            ));
        }
    }
    for (name, v) in members("fig5_reference_over_tiramisu") {
        off.extend(cell(
            format!("fig5/{name}"),
            cycles.get(&format!("fig5/{name}/reference")),
            cycles.get(&format!("fig5/{name}/tiramisu")),
            v.as_f64().unwrap_or(f64::NAN),
        ));
    }
    for section in ["fig6_cpu", "fig6_gpu", "fig6_dist"] {
        for (row, cells) in members(section) {
            for (k, c) in cells.as_arr().unwrap_or_default().iter().enumerate() {
                let id = format!("{section}/{row}/{}", IMAGE_BENCHMARKS[k]);
                match c.as_f64() {
                    Some(want) => off.extend(cell(
                        id.clone(),
                        cycles.get(&id),
                        cycles.get(&format!("{section}/Tiramisu/{}", IMAGE_BENCHMARKS[k])),
                        want,
                    )),
                    None if cycles.contains_key(&id) => {
                        off.push(format!("{id}: priced, but the snapshot has no such cell"))
                    }
                    None => {}
                }
            }
        }
    }
    for (name, speedups) in members("fig7_speedup_over_2_ranks") {
        let want = speedups
            .as_arr()
            .and_then(|a| a.get(1))
            .and_then(Json::as_f64);
        off.extend(cell(
            format!("fig7/{name} at 4 ranks"),
            cycles.get(&format!("fig7/{name}/2")),
            cycles.get(&format!("fig7/{name}/4")),
            want.unwrap_or(f64::NAN),
        ));
    }
    off
}

pub struct FiguresModeled {
    bars: Vec<Bar>,
    snapshot: Json,
}

impl FiguresModeled {
    /// One request: build bar `key` against an empty memory tier, price
    /// it. Returns the modeled cycles and the substrate that priced them.
    fn request(&self, key: usize, rec: &mut Recorder) -> Option<(f64, &'static str)> {
        let b = &self.bars[key];
        tiramisu::service::global().clear_memory();
        let t0 = Instant::now();
        let req = trace::enter(trace::REQUEST);
        let (built, compile_ns) = timed("core.construct", || (b.build)());
        let priced = built.and_then(|built| {
            let t = Instant::now();
            let cycles = trace::span(built.price_span(), || built.price());
            cycles.map(|c| (c, built.substrate(), t.elapsed().as_nanos() as u64))
        });
        let total_ns = t0.elapsed().as_nanos() as u64;
        drop(req);
        match priced {
            Ok((cycles, substrate, run_ns)) => {
                rec.ok(Sample {
                    class: key as u32,
                    key: key as u32,
                    cold: true,
                    total_ns,
                    compile_ns,
                    run_ns,
                });
                Some((cycles, substrate))
            }
            Err(e) => {
                rec.fail(&format!("{}: {e}", b.id));
                None
            }
        }
    }
}

impl Workload for FiguresModeled {
    const NAME: &'static str = "figures_modeled";

    fn setup(_ctx: &Ctx) -> Self {
        let snapshot = bench::json::parse(SNAPSHOT).expect("BENCH_figures.json parses");
        let w = FiguresModeled {
            bars: bars(),
            snapshot,
        };
        // Figure 5 touches the service, the pipeline and the stats evaluator.
        let mut warm = Recorder::default();
        for key in 0..w.bars.len() {
            if w.bars[key].id.starts_with("fig5/") {
                w.request(key, &mut warm);
            }
        }
        w
    }

    fn round(&mut self, _round: u64, rec: &mut Recorder) {
        let mut cycles = BTreeMap::new();
        let mut modeled: BTreeMap<String, u64> = BTreeMap::new();
        for key in 0..self.bars.len() {
            if let Some((c, substrate)) = self.request(key, rec) {
                cycles.insert(self.bars[key].id.clone(), c);
                *modeled
                    .entry(format!("{substrate}.modeled_cycles"))
                    .or_default() += c.round() as u64;
            }
        }
        for msg in rec.verify(|| check_cells(&cycles, &self.snapshot)) {
            rec.violation(&msg);
        }
        rec.round_counters.push(modeled);
    }

    fn probes(&mut self, layers: &mut Values, _budget: Duration) -> Result<(), String> {
        let mut acc = Acc::default();
        let model = gpusim::GpuModel::default();
        for b in &self.bars {
            match (b.build)().expect("probe subject builds") {
                Built::Cpu(p) => {
                    acc.count(
                        "loopvm.modeled_cycles",
                        p.run_modeled().expect("priced").cycles,
                    );
                    acc.ms(
                        "loopvm.run_stats_ms",
                        probe_ms(5, || {
                            std::hint::black_box(p.run_modeled().expect("priced"));
                        }),
                    );
                }
                Built::Gpu(m) => {
                    let (cycles, run, _) = kernels::image_gpu::run_gpu(&m).expect("priced");
                    acc.count("gpusim.modeled_cycles", cycles);
                    for k in &run.kernels {
                        acc.count("gpusim.warp_instructions", k.warp_instructions as f64);
                        acc.count("gpusim.global_transactions", k.global_transactions as f64);
                        acc.count("gpusim.bank_conflict_degree", k.bank_conflict_degree as f64);
                        acc.count("gpusim.divergent_branches", k.divergent_branches as f64);
                    }
                    let mut bufs = m.alloc_buffers();
                    acc.ms(
                        "gpusim.launch_ms",
                        probe_ms(5, || {
                            std::hint::black_box(m.run(&mut bufs, &model).expect("launch"));
                        }),
                    );
                    acc.ms(
                        "gpusim.launch_treewalk_ms",
                        probe_ms(3, || {
                            for k in &m.kernels {
                                std::hint::black_box(
                                    gpusim::exec::launch_tree_walk(k, &mut bufs, &model)
                                        .expect("tree-walk launch"),
                                );
                            }
                        }),
                    );
                }
                Built::Dist(p) => {
                    let s = p.run(true).expect("priced");
                    acc.count("mpisim.modeled_cycles", s.modeled_cycles);
                    acc.count("mpisim.messages", s.messages.iter().sum::<u64>() as f64);
                    acc.count("mpisim.bytes_sent", s.bytes_sent.iter().sum::<u64>() as f64);
                    acc.count("mpisim.retries", s.total_retries() as f64);
                    acc.ms(
                        "mpisim.run_stats_ms",
                        probe_ms(5, || {
                            std::hint::black_box(p.run(true).expect("stats run"));
                        }),
                    );
                    acc.ms(
                        "mpisim.run_ms",
                        probe_ms(5, || {
                            std::hint::black_box(p.run(false).expect("wall run"));
                        }),
                    );
                }
                Built::HalideDist(d, ranks) => {
                    let comm = mpisim::CommModel::default();
                    let s = mpisim::run(&d, ranks, &comm, true).expect("priced");
                    acc.count("mpisim.modeled_cycles", s.modeled_cycles);
                    acc.count("mpisim.messages", s.messages.iter().sum::<u64>() as f64);
                    acc.count("mpisim.bytes_sent", s.bytes_sent.iter().sum::<u64>() as f64);
                }
            }
        }
        acc.finish(layers);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_checked_against_the_snapshot() {
        let snapshot = bench::json::parse(
            r#"{"fig1_cpu": {"Intel MKL": 1.000000, "Tiramisu": 1.250000},
                "fig6_cpu": {"Tiramisu": [1.0, 1.0], "Halide": [null, 2.000000]}}"#,
        )
        .expect("test snapshot parses");
        let mut cycles: BTreeMap<String, f64> = [
            ("fig1_cpu/Intel MKL", 80.0),
            ("fig1_cpu/Tiramisu", 100.0),
            ("fig6_cpu/Tiramisu/edgeDetector", 10.0),
            ("fig6_cpu/Tiramisu/cvtColor", 10.0),
            ("fig6_cpu/Halide/cvtColor", 20.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert_eq!(check_cells(&cycles, &snapshot), Vec::<String>::new());
        cycles.insert("fig1_cpu/Tiramisu".into(), 100.001);
        cycles.insert("fig6_cpu/Halide/edgeDetector".into(), 5.0);
        cycles.remove("fig6_cpu/Halide/cvtColor");
        let off = check_cells(&cycles, &snapshot);
        assert_eq!(off.len(), 3, "{off:?}");
    }
}
