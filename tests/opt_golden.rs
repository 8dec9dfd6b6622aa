//! Golden tests for the bytecode optimizer: the disassembly emitted for
//! the gemm and blur kernels is pinned under `tests/golden/`, so any
//! change to constant folding, CSE, hoisting, or register allocation
//! shows up as a readable diff rather than a silent perf/semantics shift.
//!
//! Regenerate with `TIRAMISU_BLESS=1 cargo test --test opt_golden`.

use tiramisu::{
    compile_cpu, compile_dist, compile_gpu, CompId, CpuOptions, DistOptions, Expr as E, Function,
    GpuOptions, Var,
};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

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
        "bytecode disassembly for `{name}` drifted from the golden snapshot \
         (re-bless with TIRAMISU_BLESS=1 only if the change is intentional)"
    );
}

/// The golden-test gemm shape: C = A*B + Cin with the k-reduction
/// contracted into C (same Layer I as `tests/pipeline_golden.rs`).
fn gemm() -> Function {
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
    f
}

/// The paper's Figure 2 blur (same Layer I as `tests/pipeline_golden.rs`).
fn blur() -> Function {
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
    let _by = f
        .computation("by", &[i_by, j], (bxa(0) + bxa(1) + bxa(2)) / E::f32(3.0))
        .unwrap();
    f
}

#[test]
fn gemm_bytecode_disassembly_is_pinned() {
    let f = gemm();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { check_legality: false, ..Default::default() },
    )
    .unwrap();
    let bc = module.bytecode().expect("CPU modules carry optimized bytecode");
    assert_golden("gemm_bytecode", &bc.disasm(&module.program));
    // The contraction's address math is loop-structured, so the
    // optimizer must find invariant subexpressions to hoist and shared
    // subexpressions to deduplicate — not just translate the tree.
    let stats = bc.stats();
    assert!(stats.hoisted > 0, "gemm hoisted nothing: {}", stats.summary());
    assert!(stats.cse_hits > 0, "gemm found no CSE: {}", stats.summary());
    assert!(stats.insts < stats.tree_nodes, "no shrink: {}", stats.summary());
}

/// The native tier's generated code for gemm is pinned too: the textual
/// x86-64 listing the JIT encoder emits alongside the machine bytes is
/// deterministic (helper calls are shown symbolically), so regressions in
/// register allocation, trap guards, or loop chaining show up as a diff.
/// x86-64-Linux-only: elsewhere `jit::compile` returns `None` by design.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn gemm_jit_x86_64_listing_is_pinned() {
    let f = gemm();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { check_legality: false, ..Default::default() },
    )
    .unwrap();
    let jit = module.jit().expect("gemm must be JIT-compilable on x86-64");
    let bc = module.bytecode().expect("CPU modules carry optimized bytecode");
    let listing = loopvm::jit::listing(bc).expect("the listing exists wherever the code does");
    assert_golden("gemm_jit_x86_64", &listing);
    // Sanity on the shape: one main function, real code, and deopt stubs
    // for every trapping load/store in the inner loop.
    assert!(jit.code_len() > 0, "empty code buffer");
    assert!(jit.n_deopts() > 0, "gemm's loads/stores should carry deopt stubs");
}

/// [`blur`] with `vectorize(j, 8)` on both stages: the kernel whose
/// native code has vector chunks (gemm's has none).
fn blur_vectorized() -> Function {
    let mut f = blur();
    for name in ["bx", "by"] {
        let c = f.comp_by_name(name).unwrap();
        f.vectorize(c, "j", 8).unwrap();
    }
    f
}

/// Packed chunk emission is pinned here: one range guard per contiguous
/// access, `movups`/`addps`/`divps` halves, the per-lane paths out of line
/// behind `ret`. N x M = 10 x 20 gives each row two chunks and a scalar
/// remainder.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn blur_jit_x86_64_listing_is_pinned() {
    let f = blur_vectorized();
    let module = compile_cpu(&f, &[("N", 10), ("M", 20)], CpuOptions::default()).unwrap();
    let bc = module.bytecode().expect("CPU modules carry optimized bytecode");
    let listing = loopvm::jit::listing(bc).expect("blur must be JIT-compilable on x86-64");
    assert_golden("blur_jit_x86_64", &listing);
    for packed in ["movups", "addps", "divps"] {
        assert!(listing.contains(packed), "no `{packed}` in the vectorized blur");
    }
}

/// The Fig. 1 schedule is the kernel the lane-shape analysis exists for:
/// its packed-panel index `j % 32` must be proved contiguous, so the
/// update chunk is all packed and nothing in the program divides.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn sgemm_native_code_is_packed_and_division_free() {
    let prep = kernels::sgemm::tiramisu_best(192, 32).unwrap();
    let code = prep.program.compiled().unwrap();
    let jit = code.jit().expect("sgemm must be JIT-compilable on x86-64");
    let listing = loopvm::jit::listing(code.bytecode()).unwrap();
    assert!(listing.contains("mulps") && listing.contains("addps"), "scalar update chunk");
    assert!(!listing.contains("idiv"), "a power-of-two divisor reached idiv");
    let reasons = jit.deopt_reasons();
    let at = |r: loopvm::jit::DeoptReason| reasons[r.index()];
    assert_eq!(at(loopvm::jit::DeoptReason::DivZero), 0);
    assert_eq!(at(loopvm::jit::DeoptReason::RemZero), 0);
    // 16 contiguous vector accesses keep 8 per-lane stubs each behind
    // their one range guard, the 4 uniform `A[..]` loads of the update
    // chunks one each, the scalar loops 22 (262 before lane shapes).
    assert!(jit.n_deopts() <= 154, "{} deopt stubs", jit.n_deopts());
}

#[test]
fn blur_bytecode_disassembly_is_pinned() {
    let f = blur();
    let module =
        compile_cpu(&f, &[("N", 10), ("M", 12)], CpuOptions::default()).unwrap();
    let bc = module.bytecode().expect("CPU modules carry optimized bytecode");
    assert_golden("blur_bytecode", &bc.disasm(&module.program));
    let stats = bc.stats();
    assert!(stats.hoisted > 0, "blur hoisted nothing: {}", stats.summary());
    assert!(stats.folded > 0, "blur folded nothing: {}", stats.summary());
}

#[test]
fn gpu_kernel_bytecode_disassembly_is_pinned() {
    // A shared-memory blur: `cache_shared_at` introduces a block barrier,
    // so the kernel compiles to two warp-bytecode phases (cooperative
    // copy, then compute) — both pinned.
    let mut f = Function::new("gblur", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f
        .input(
            "in",
            &[
                f.var("i", 0, E::param("N")),
                f.var("j", 0, E::param("N") + E::i64(2)),
            ],
        )
        .unwrap();
    let at = |dj: i64| E::Access(input, vec![E::iter("i"), E::iter("j") + E::i64(dj)]);
    let out = f
        .computation("out", &[i, j], (at(0) + at(1) + at(2)) / E::f32(3.0))
        .unwrap();
    f.tile_gpu(out, "i", "j", 8, 8).unwrap();
    f.cache_shared_at(input, out, "jB").unwrap();
    let module = compile_gpu(&f, &[("N", 32)], GpuOptions::default()).unwrap();
    let phases = module.bytecode(0).expect("GPU modules carry phase bytecode");
    assert_eq!(phases.len(), 2, "barrier should split the kernel into two phases");
    let disasm = module.disasm().expect("GPU modules carry phase bytecode");
    // The pinned code is the executed code: the text is exactly what the
    // phase programs — which `gpusim::launch` runs — hold as their
    // compiled form.
    let executed: String = (module.kernels[0].phases().iter().enumerate())
        .map(|(p, ph)| {
            format!("// kernel 0 phase {p}\n{}", ph.compiled().unwrap().bytecode().disasm(ph))
        })
        .collect();
    assert_eq!(module.kernels.len(), 1);
    assert_eq!(disasm, executed);
    assert_golden("gpu_blur_bytecode", &disasm);
    // The compute phase re-reads overlapping shared-memory taps; CSE must
    // collapse the repeated address math.
    assert!(phases[1].stats().cse_hits > 0, "{}", phases[1].stats().summary());
}

#[test]
fn dist_rank_chunk_disassembly_is_pinned() {
    // The paper's Figure 3(c) distributed blur with halo exchange (same
    // Layer I as `crates/core`'s dist tests): the rank program has one
    // compute chunk. A chunk is a program of its own, so its bytecode
    // starts with the preamble's parameter lets (they used to be pinned
    // as a separate "chunk 0" that never ran).
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
    let is = Var::new("is", E::i64(1), E::param("Nodes"));
    let ir = Var::new("ir", E::i64(0), E::param("Nodes") - E::i64(1));
    let s = f.send(is, "lin", E::i64(0), E::i64(1), E::iter("is") - E::i64(1), true);
    let rv = f.receive(ir, "lin", E::param("CHUNK"), E::i64(1), E::iter("ir") + E::i64(1));
    f.comm_before(s, bx);
    f.comm_before(rv, bx);
    let module =
        compile_dist(&f, &[("Nodes", 4), ("CHUNK", 8)], DistOptions::default()).unwrap();
    let disasm = module.disasm().expect("dist modules carry chunk bytecode");
    // The pinned code is the executed code: the text is exactly what the
    // chunk programs — which `mpisim` runs — hold as their compiled form.
    let executed: String = (module.dist.chunks().iter().enumerate())
        .map(|(k, c)| format!("// chunk {k}\n{}", c.compiled().unwrap().bytecode().disasm(c)))
        .collect();
    assert_eq!(module.dist.chunks().len(), 1);
    assert_eq!(disasm, executed);
    assert_golden("dist_blur_bytecode", &disasm);
}

/// The disassembly itself must stay faithful: running the pinned native
/// code and the pinned bytecode produces the same values as the reference
/// tree-walk.
#[test]
fn pinned_kernels_execute_identically_in_both_modes() {
    for (f, params) in [
        (gemm(), vec![("N", 8)]),
        (blur(), vec![("N", 10), ("M", 12)]),
        (blur_vectorized(), vec![("N", 10), ("M", 20)]),
    ] {
        let module = compile_cpu(
            &f,
            &params,
            CpuOptions { check_legality: false, ..Default::default() },
        )
        .unwrap();
        let run = |mode: loopvm::ExecMode| {
            let mut m = module.machine();
            m.set_exec_mode(mode);
            for b in 0..module.program.n_buffers() {
                let id = module.program.nth_buffer(b);
                for (k, v) in m.buffer_mut(id).iter_mut().enumerate() {
                    *v = ((k * 31 + b * 7) % 113) as f32 / 8.0;
                }
            }
            m.run(&module.program).unwrap();
            let out = module.program.nth_buffer(module.program.n_buffers() - 1);
            m.buffer(out).iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let reference = run(loopvm::ExecMode::TreeWalk);
        assert_eq!(run(loopvm::ExecMode::Bytecode), reference, "{} bytecode diverged", f.name);
        assert_eq!(run(loopvm::ExecMode::Jit), reference, "{} jit diverged", f.name);
    }
}
