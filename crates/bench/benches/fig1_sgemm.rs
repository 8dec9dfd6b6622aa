//! Figure 1: sgemm wall-clock across the five CPU frameworks and the GPU
//! variants (the modeled-time version of this figure is printed by
//! `cargo run -p bench --bin figures -- fig1`).

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let (n, tile) = (48i64, 16i64);
    let mut g = c.benchmark_group("fig1_sgemm_cpu");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for prep in [
        kernels::sgemm::vendor(n, tile),
        kernels::sgemm::tiramisu_best(n, tile).unwrap(),
        kernels::sgemm::alphaz_like(n, tile).unwrap(),
        kernels::sgemm::pluto_like(n).unwrap(),
        kernels::sgemm::polly_like(n).unwrap(),
    ] {
        let mut machine = prep.machine();
        g.bench_function(&prep.name, |b| {
            b.iter(|| machine.run(&prep.program).unwrap());
        });
    }
    g.finish();

    let mut g = c.benchmark_group("fig1_sgemm_gpu");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for (name, module) in [
        ("cuBLAS-Tiramisu", kernels::sgemm::gpu_tiled(n, 8).unwrap()),
        ("PENCIL", kernels::sgemm::gpu_naive(n).unwrap()),
    ] {
        let mut bufs = module.alloc_buffers();
        g.bench_function(name, |b| {
            b.iter(|| module.run(&mut bufs, &gpusim::GpuModel::default()).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
