//! Figure 6 (bottom block): distributed image benchmarks, Tiramisu vs
//! distributed Halide, on the message-passing simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use kernels::image::{ImgSize, IMAGE_BENCHMARKS};

fn bench(c: &mut Criterion) {
    let s = ImgSize::small();
    let ranks = 4i64;
    let mut g = c.benchmark_group("fig6_dist");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for name in IMAGE_BENCHMARKS {
        let t = kernels::image_dist::tiramisu_dist(name, s, ranks).unwrap();
        g.bench_function(format!("{name}/Tiramisu"), |b| {
            b.iter(|| t.run(false).unwrap())
        });
        if let Ok((hd, r)) = kernels::image_dist::halide_dist(name, s, ranks) {
            g.bench_function(format!("{name}/Dist-Halide"), |b| {
                b.iter(|| {
                    mpisim::run(&hd, r, &mpisim::CommModel::default(), false).unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
