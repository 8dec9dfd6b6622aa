//! Cross-backend golden tests for the lowering pipeline.
//!
//! For `gemm`, `blur`, and one Layer-IV (halo-exchange) kernel, the
//! emitted `loopvm` programs are snapshotted under `tests/golden/` and
//! the emission must stay **byte-identical** across refactors of the
//! lowering pipeline; additionally the computed values must agree across
//! all three backends (CPU, GPU, distributed) bit-for-bit.
//!
//! The goldens were captured from the pre-pipeline (per-backend lowering)
//! code, so they also certify that the unified pass-based pipeline emits
//! exactly what the three hand-rolled backends used to.
//!
//! Regenerate with `TIRAMISU_BLESS=1 cargo test --test pipeline_golden`.

use mpisim::{CommModel, RunOptions};
use std::sync::Mutex;
use tiramisu::{
    compile_cpu, compile_dist, compile_gpu, CompId, CpuOptions, DistModule, DistOptions,
    Expr as E, Function, GpuOptions,
};

/// Deterministic pseudo-random fill, identical on every backend and rank.
fn fill(buf: &mut [f32], seed: u64) {
    for (k, v) in buf.iter_mut().enumerate() {
        let x = (k as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
        *v = ((x >> 33) % 1009) as f32 / 16.0;
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `text` against the stored golden (or rewrites it under
/// `TIRAMISU_BLESS=1`).
fn assert_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var("TIRAMISU_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        text,
        expect,
        "emitted program for `{name}` drifted from the golden snapshot \
         (re-bless with TIRAMISU_BLESS=1 only if the change is intentional)"
    );
}

// ---------------------------------------------------------------- gemm --

const GEMM_N: i64 = 8;
const GEMM_RANKS: usize = 2;

/// Layer I of gemm: C = A*B + Cin, with the k-reduction contracted into
/// the C buffer (the same shape as `kernels::sgemm::layer1`).
fn gemm_layer1() -> (Function, CompId, CompId) {
    let mut f = Function::new("gemm", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let k = f.var("k", 0, E::param("N"));
    let a = f.input("A", &[i.clone(), j.clone()]).unwrap();
    let b = f.input("B", &[i.clone(), j.clone()]).unwrap();
    let c_in = f.input("Cin", &[i.clone(), j.clone()]).unwrap();
    let c_buf = f.buffer("C", &[E::param("N"), E::param("N")]);
    let c_init = f
        .computation(
            "c_init",
            &[i.clone(), j.clone()],
            f.access(c_in, &[E::iter("i"), E::iter("j")]),
        )
        .unwrap();
    let self_id = CompId::from_raw(4);
    let upd = E::Access(
        self_id,
        vec![E::iter("i"), E::iter("j"), E::iter("k") - E::i64(1)],
    ) + f.access(a, &[E::iter("i"), E::iter("k")])
        * f.access(b, &[E::iter("k"), E::iter("j")]);
    let c_upd = f.computation("c_upd", &[i, j, k], upd).unwrap();
    assert_eq!(c_upd, self_id);
    f.store_in(c_init, c_buf, &[E::iter("i"), E::iter("j")]);
    f.store_in(c_upd, c_buf, &[E::iter("i"), E::iter("j")]);
    (f, c_init, c_upd)
}

/// CPU gemm result (and the emission snapshot).
fn gemm_cpu() -> (String, Vec<f32>) {
    let (f, _, _) = gemm_layer1();
    let module = compile_cpu(
        &f,
        &[("N", GEMM_N)],
        CpuOptions { check_legality: false, ..Default::default() },
    )
    .unwrap();
    let mut machine = module.machine();
    for (name, seed) in [("A", 1u64), ("B", 2), ("Cin", 3)] {
        fill(machine.buffer_mut(module.vm_buffer(name).unwrap()), seed);
    }
    machine.run(&module.program).unwrap();
    let c = machine.buffer(module.vm_buffer("C").unwrap()).to_vec();
    (module.program.pretty(), c)
}

fn gemm_gpu() -> (String, Vec<f32>) {
    let (mut f, c_init, c_upd) = gemm_layer1();
    f.tile_gpu(c_upd, "i", "j", 4, 4).unwrap();
    f.tile_gpu(c_init, "i", "j", 4, 4).unwrap();
    f.fuse_after(c_upd, c_init, "jT").unwrap();
    let module = compile_gpu(
        &f,
        &[("N", GEMM_N)],
        GpuOptions { check_legality: false, ..Default::default() },
    )
    .unwrap();
    let mut text = String::new();
    for (ki, k) in module.kernels.iter().enumerate() {
        text.push_str(&format!(
            "// kernel {ki}: grid [{}, {}] block [{}, {}]\n",
            k.grid[0], k.grid[1], k.block[0], k.block[1]
        ));
        text.push_str(&k.pretty());
    }
    let mut bufs = module.alloc_buffers();
    for (name, seed) in [("A", 1u64), ("B", 2), ("Cin", 3)] {
        fill(&mut bufs[module.buffer_index(name).unwrap()], seed);
    }
    module.run(&mut bufs, &gpusim::GpuModel::default()).unwrap();
    let c = bufs[module.buffer_index("C").unwrap()].clone();
    (text, c)
}

/// Runs a distributed module with seeded inputs and stitches the output
/// back together from the rows each rank owns.
fn run_dist_stitched(
    module: &DistModule,
    inputs: &[(&str, u64)],
    out: &str,
    ranks: usize,
    rows_per_rank: usize,
    row_len: usize,
) -> Vec<f32> {
    let in_bufs: Vec<_> = inputs
        .iter()
        .map(|(n, s)| (module.vm_buffer(n).unwrap(), *s))
        .collect();
    let out_buf = module.vm_buffer(out).unwrap();
    let result = Mutex::new(vec![0f32; ranks * rows_per_rank * row_len]);
    mpisim::run_with_opts(
        &module.dist,
        ranks,
        &CommModel::default(),
        &RunOptions::default(),
        |_rank, machine| {
            for (b, seed) in &in_bufs {
                fill(machine.buffer_mut(*b), *seed);
            }
        },
        |rank, machine| {
            let vals = machine.buffer(out_buf);
            let lo = rank * rows_per_rank * row_len;
            let n = rows_per_rank * row_len;
            result.lock().unwrap()[lo..lo + n].copy_from_slice(&vals[lo..lo + n]);
        },
    )
    .unwrap();
    result.into_inner().unwrap()
}

fn gemm_dist() -> (String, Vec<f32>) {
    let (mut f, c_init, c_upd) = gemm_layer1();
    let chunk = GEMM_N / GEMM_RANKS as i64;
    f.split(c_init, "i", chunk, "i0", "i1").unwrap();
    f.split(c_upd, "i", chunk, "i0", "i1").unwrap();
    f.distribute(c_init, "i0").unwrap();
    f.distribute(c_upd, "i0").unwrap();
    let module = compile_dist(
        &f,
        &[("N", GEMM_N)],
        DistOptions { check_legality: false, ..Default::default() },
    )
    .unwrap();
    let text = module.dist.pretty();
    let c = run_dist_stitched(
        &module,
        &[("A", 1), ("B", 2), ("Cin", 3)],
        "C",
        GEMM_RANKS,
        chunk as usize,
        GEMM_N as usize,
    );
    (text, c)
}

#[test]
fn gemm_emission_and_outputs_agree_across_backends() {
    let (cpu_text, cpu_c) = gemm_cpu();
    let (gpu_text, gpu_c) = gemm_gpu();
    let (dist_text, dist_c) = gemm_dist();
    assert_golden("gemm_cpu", &cpu_text);
    assert_golden("gemm_gpu", &gpu_text);
    assert_golden("gemm_dist", &dist_text);
    assert_eq!(cpu_c.len(), gpu_c.len());
    for (k, (a, b)) in cpu_c.iter().zip(&gpu_c).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "CPU vs GPU at {k}: {a} vs {b}");
    }
    for (k, (a, b)) in cpu_c.iter().zip(&dist_c).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "CPU vs dist at {k}: {a} vs {b}");
    }
}

// ---------------------------------------------------------------- blur --

const BLUR_N: i64 = 10;
const BLUR_M: i64 = 12;
const BLUR_RANKS: usize = 2;

/// The paper's Figure 2 blur: bx is a horizontal pass, by a vertical pass
/// over bx. by's rows stop at N-4 so every bx read stays in-domain.
fn blur_layer1() -> (Function, CompId, CompId) {
    let mut f = Function::new("blur", &["N", "M"]);
    let i = f.var("i", 0, E::param("N") - E::i64(2));
    let j = f.var("j", 0, E::param("M") - E::i64(2));
    let input = f
        .input(
            "in",
            &[f.var("i", 0, E::param("N")), f.var("j", 0, E::param("M"))],
        )
        .unwrap();
    let at = |di: i64, dj: i64| {
        E::Access(
            input,
            vec![E::iter("i") + E::i64(di), E::iter("j") + E::i64(dj)],
        )
    };
    let bx = f
        .computation(
            "bx",
            &[i, j.clone()],
            (at(0, 0) + at(0, 1) + at(0, 2)) / E::f32(3.0),
        )
        .unwrap();
    let bxa = |di: i64| E::Access(bx, vec![E::iter("i") + E::i64(di), E::iter("j")]);
    let i_by = f.var("i", 0, E::param("N") - E::i64(4));
    let by = f
        .computation("by", &[i_by, j], (bxa(0) + bxa(1) + bxa(2)) / E::f32(3.0))
        .unwrap();
    (f, bx, by)
}

fn blur_cpu() -> (String, Vec<f32>) {
    let (f, _, _) = blur_layer1();
    let module =
        compile_cpu(&f, &[("N", BLUR_N), ("M", BLUR_M)], CpuOptions::default()).unwrap();
    let mut machine = module.machine();
    fill(machine.buffer_mut(module.vm_buffer("in").unwrap()), 7);
    machine.run(&module.program).unwrap();
    let by = machine.buffer(module.vm_buffer("by").unwrap()).to_vec();
    (module.program.pretty(), by)
}

fn blur_gpu() -> (String, Vec<f32>) {
    let (mut f, bx, by) = blur_layer1();
    f.tile_gpu(bx, "i", "j", 4, 4).unwrap();
    f.tile_gpu(by, "i", "j", 4, 4).unwrap();
    let module =
        compile_gpu(&f, &[("N", BLUR_N), ("M", BLUR_M)], GpuOptions::default()).unwrap();
    let mut text = String::new();
    for (ki, k) in module.kernels.iter().enumerate() {
        text.push_str(&format!(
            "// kernel {ki}: grid [{}, {}] block [{}, {}]\n",
            k.grid[0], k.grid[1], k.block[0], k.block[1]
        ));
        text.push_str(&k.pretty());
    }
    let mut bufs = module.alloc_buffers();
    fill(&mut bufs[module.buffer_index("in").unwrap()], 7);
    module.run(&mut bufs, &gpusim::GpuModel::default()).unwrap();
    let by_vals = bufs[module.buffer_index("by").unwrap()].clone();
    (text, by_vals)
}

fn blur_dist() -> (String, Vec<f32>) {
    // Every rank computes all of bx (redundantly, rank-private) and its
    // own block of by rows; no communication needed.
    let (mut f, _, by) = blur_layer1();
    let by_rows = BLUR_N - 4;
    let chunk = by_rows / BLUR_RANKS as i64;
    f.split(by, "i", chunk, "i0", "i1").unwrap();
    f.distribute(by, "i0").unwrap();
    let module = compile_dist(
        &f,
        &[("N", BLUR_N), ("M", BLUR_M)],
        DistOptions::default(),
    )
    .unwrap();
    let text = module.dist.pretty();
    let by_vals = run_dist_stitched(
        &module,
        &[("in", 7)],
        "by",
        BLUR_RANKS,
        chunk as usize,
        (BLUR_M - 2) as usize,
    );
    (text, by_vals)
}

#[test]
fn blur_emission_and_outputs_agree_across_backends() {
    let (cpu_text, cpu_by) = blur_cpu();
    let (gpu_text, gpu_by) = blur_gpu();
    let (dist_text, dist_by) = blur_dist();
    assert_golden("blur_cpu", &cpu_text);
    assert_golden("blur_gpu", &gpu_text);
    assert_golden("blur_dist", &dist_text);
    assert_eq!(cpu_by.len(), gpu_by.len());
    for (k, (a, b)) in cpu_by.iter().zip(&gpu_by).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "CPU vs GPU at {k}: {a} vs {b}");
    }
    // The dist module only owns by's valid rows; compare that prefix.
    for (k, (a, b)) in dist_by.iter().enumerate().map(|(k, a)| (k, (a, &cpu_by[k]))) {
        assert_eq!(a.to_bits(), b.to_bits(), "dist vs CPU at {k}: {a} vs {b}");
    }
}

// ------------------------------------------------- Layer-IV halo kernel --

/// The paper's Figure 3(c): distributed 1-D blur with an explicit halo
/// exchange (`send`/`receive` Layer-IV operations anchored before the
/// compute).
fn halo_blur() -> (String, DistModule) {
    let mut f = Function::new("dblur", &["Nodes", "CHUNK"]);
    let r = f.var("r", 0, E::param("Nodes"));
    let i = f.var("i", 0, E::param("CHUNK"));
    let lin = f
        .input("lin", &[f.var("i", 0, E::param("CHUNK") + E::i64(1))])
        .unwrap();
    let bx = f
        .computation(
            "bx",
            &[r, i],
            (f.access(lin, &[E::iter("i")]) + f.access(lin, &[E::iter("i") + E::i64(1)]))
                / E::f32(2.0),
        )
        .unwrap();
    f.distribute(bx, "r").unwrap();
    let is = tiramisu::Var::new("is", E::i64(1), E::param("Nodes"));
    let ir = tiramisu::Var::new("ir", E::i64(0), E::param("Nodes") - E::i64(1));
    let s = f.send(is, "lin", E::i64(0), E::i64(1), E::iter("is") - E::i64(1), true);
    let rv = f.receive(ir, "lin", E::param("CHUNK"), E::i64(1), E::iter("ir") + E::i64(1));
    f.comm_before(s, bx);
    f.comm_before(rv, bx);
    let module =
        compile_dist(&f, &[("Nodes", 4), ("CHUNK", 8)], DistOptions::default()).unwrap();
    (module.dist.pretty(), module)
}

#[test]
fn layer4_halo_kernel_emission_and_run() {
    let (text, module) = halo_blur();
    assert_golden("halo_dist", &text);
    let stats = module.run(4, &CommModel::default(), true).unwrap();
    assert_eq!(stats.bytes_sent, vec![0, 4, 4, 4]);
    for r in 0..4 {
        assert_eq!(stats.compute[r].stores, 8, "rank {r}");
    }
}
