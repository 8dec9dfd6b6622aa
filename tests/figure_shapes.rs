//! Guards the *shapes* of the paper's figures: who wins, and roughly by
//! how much. These are the headline claims of the evaluation section; the
//! exact factors live in EXPERIMENTS.md.

use kernels::image::{halide_cpu, pencil_cpu, tiramisu_cpu, ImgSize};

#[test]
fn figure1_cpu_ordering() {
    // MKL ≈ Tiramisu ≪ {AlphaZ, Pluto, Polly}.
    let bars = bench::fig1_cpu(64, 16);
    let get = |name: &str| {
        bars.iter().find(|b| b.name == name).map(|b| b.cycles).unwrap()
    };
    let mkl = get("Intel MKL");
    assert!(get("Tiramisu") < 2.0 * mkl, "Tiramisu must land in the MKL class");
    for auto in ["AlphaZ", "Pluto", "Polly"] {
        assert!(
            get(auto) > 2.0 * mkl,
            "{auto} must trail the vendor class ({} vs {})",
            get(auto),
            mkl
        );
        assert!(get(auto) > get("Tiramisu"), "{auto} must trail Tiramisu");
    }
}

#[test]
fn figure1_gpu_ordering() {
    let bars = bench::fig1_gpu(32);
    let get = |name: &str| {
        bars.iter().find(|b| b.name == name).map(|b| b.cycles).unwrap()
    };
    assert!((get("Tiramisu") - get("cuBLAS")).abs() < 1e-6, "Tiramisu matches cuBLAS");
    assert!(get("PENCIL") > get("Tiramisu"));
    assert!(get("TC") > get("Tiramisu"));
}

#[test]
fn figure5_speedups() {
    // Tiramisu ≥ reference on Conv/VGG/Baryon; parity on sgemm/HPCG.
    for (name, t, r) in bench::fig5() {
        match name.as_str() {
            "Conv" | "VGG" | "Baryon" => {
                assert!(r > t, "{name}: reference {r:.0} must exceed Tiramisu {t:.0}")
            }
            "Sgemm" | "HPCG" => {
                let ratio = t / r;
                assert!(
                    (0.4..2.5).contains(&ratio),
                    "{name}: expected parity, got ratio {ratio:.2}"
                );
            }
            other => panic!("unexpected row {other}"),
        }
    }
}

#[test]
fn figure6_cpu_shape() {
    let s = ImgSize::small();
    // Halide parity cells: within 1.5x either way.
    for name in ["cvtColor", "conv2D", "gaussian"] {
        let t = tiramisu_cpu(name, s).unwrap().run_modeled().unwrap().cycles;
        let h = halide_cpu(name, s).unwrap().run_modeled().unwrap().cycles;
        let ratio = h / t;
        assert!((0.6..1.6).contains(&ratio), "{name}: Halide ratio {ratio:.2}");
    }
    // nb: Tiramisu's fusion must win at full-size working sets.
    let big = ImgSize { h: 96, w: 128 };
    let t = tiramisu_cpu("nb", big).unwrap().run_modeled().unwrap().cycles;
    let h = halide_cpu("nb", big).unwrap().run_modeled().unwrap().cycles;
    assert!(h > t, "nb: unfused Halide {h:.0} must exceed fused Tiramisu {t:.0}");
    // The two '-' cells.
    assert!(halide_cpu("edgeDetector", s).is_err());
    assert!(halide_cpu("ticket #2373", s).is_err());
    // PENCIL trails everywhere it isn't trivially parallel.
    for name in ["cvtColor", "conv2D", "warpAffine", "gaussian", "nb"] {
        let t = tiramisu_cpu(name, s).unwrap().run_modeled().unwrap().cycles;
        let p = pencil_cpu(name, s).unwrap().run_modeled().unwrap().cycles;
        assert!(p > t, "{name}: PENCIL {p:.0} must exceed Tiramisu {t:.0}");
    }
}

#[test]
fn figure6_gpu_shape() {
    use kernels::image_gpu::{gpu_variant, run_gpu, GpuFlavor};
    let s = ImgSize::small();
    // Constant memory: Tiramisu strictly better on the weighted filters.
    for name in ["conv2D", "gaussian"] {
        let t = run_gpu(&gpu_variant(name, s, GpuFlavor::Tiramisu).unwrap()).unwrap().0;
        let h = run_gpu(&gpu_variant(name, s, GpuFlavor::Halide).unwrap()).unwrap().0;
        assert!(h > t, "{name}: Halide GPU {h:.0} must exceed Tiramisu {t:.0}");
    }
    // nb: kernel fusion wins.
    let t = run_gpu(&gpu_variant("nb", s, GpuFlavor::Tiramisu).unwrap()).unwrap().0;
    let h = run_gpu(&gpu_variant("nb", s, GpuFlavor::Halide).unwrap()).unwrap().0;
    assert!(h > 1.2 * t, "nb GPU: expected >1.2x, got {:.2}", h / t);
}

#[test]
fn figure6_dist_shape() {
    // Dist-Halide moves more bytes on every communicating benchmark.
    let s = ImgSize::small();
    for name in ["conv2D", "gaussian", "warpAffine"] {
        let t = kernels::image_dist::tiramisu_dist(name, s, 4).unwrap();
        let ts = t.run(false).unwrap();
        let (hd, ranks) = kernels::image_dist::halide_dist(name, s, 4).unwrap();
        let hs = mpisim::run(&hd, ranks, &mpisim::CommModel::default(), false).unwrap();
        let tb: u64 = ts.bytes_sent.iter().sum();
        let hb: u64 = hs.bytes_sent.iter().sum();
        assert!(hb > tb, "{name}: halide {hb} bytes vs tiramisu {tb}");
    }
}

#[test]
fn figure7_scaling_shape() {
    // Speedup is monotone in rank count for the stencil benchmarks at
    // paper-like compute densities.
    let rows = bench::fig7(bench::fig7_img());
    for (name, sp) in rows {
        if ["cvtColor", "nb", "conv2D", "gaussian"].contains(&name.as_str()) {
            assert!(
                sp.windows(2).all(|w| w[1] >= w[0] * 0.95),
                "{name}: non-monotone scaling {sp:?}"
            );
            assert!(sp[3] > 1.5, "{name}: 16 ranks only {}x over 2", sp[3]);
        }
    }
}

#[test]
fn ablations_cost_modeled_cycles() {
    // The ablation rows no other test pins (EXPERIMENTS "Ablations").
    // Without full/partial tile separation sgemm costs more. Without array
    // packing it costs less: the cost model prices the packing loop, but
    // its two-level cache holds B's panel at these sizes either way, so
    // the locality packing buys (paper §IV) is not modeled.
    let sgemm = |packing, separate| {
        kernels::sgemm::tiramisu_ablated(48, 16, packing, separate)
            .unwrap()
            .run_modeled()
            .unwrap()
            .cycles
    };
    let full = sgemm(true, true);
    let no_separation = sgemm(true, false);
    assert!(no_separation > full, "tile separation must pay: {no_separation} vs {full}");
    let no_packing = sgemm(false, true);
    assert!(no_packing < full, "packing now pays in the model: {no_packing} vs {full}");

    // Synchronous halo sends serialize the exchange.
    let halo = |async_send| {
        kernels::image_dist::tiramisu_dist_opts("conv2D", ImgSize::small(), 4, async_send)
            .unwrap()
            .run(true)
            .unwrap()
            .modeled_cycles
    };
    let (asynchronous, synchronous) = (halo(true), halo(false));
    assert!(
        synchronous > asynchronous,
        "sync sends must cost more: {synchronous} vs {asynchronous}"
    );
}
