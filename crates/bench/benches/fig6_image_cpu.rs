//! Figure 6 (top block): image benchmarks on the CPU substrate,
//! Tiramisu vs Halide vs PENCIL wall-clock.

use criterion::{criterion_group, criterion_main, Criterion};
use kernels::image::{halide_cpu, pencil_cpu, tiramisu_cpu, ImgSize, IMAGE_BENCHMARKS};

fn bench(c: &mut Criterion) {
    let s = ImgSize::small();
    let mut g = c.benchmark_group("fig6_cpu");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for name in IMAGE_BENCHMARKS {
        let t = tiramisu_cpu(name, s).unwrap();
        let mut m = t.machine();
        g.bench_function(format!("{name}/Tiramisu"), |b| {
            b.iter(|| m.run(&t.program).unwrap())
        });
        if let Ok(h) = halide_cpu(name, s) {
            let mut m = h.machine();
            g.bench_function(format!("{name}/Halide"), |b| {
                b.iter(|| m.run(&h.program).unwrap())
            });
        }
        let p = pencil_cpu(name, s).unwrap();
        let mut m = p.machine();
        g.bench_function(format!("{name}/PENCIL"), |b| {
            b.iter(|| m.run(&p.program).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
