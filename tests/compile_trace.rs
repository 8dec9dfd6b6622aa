//! CompileTrace coverage: pass order, per-pass counts, report content,
//! and the zero-allocation guarantee when tracing is disabled.

use std::sync::{Mutex, MutexGuard, PoisonError};
use tiramisu::pipeline::trace::snapshot_renders;
use tiramisu::{
    compile_cpu, compile_dist, compile_gpu, CompId, CpuOptions, DistOptions, Expr as E,
    Function, GpuOptions,
};

/// Every test here reads or advances the global `snapshot_renders`
/// counter, so they all serialize on this.
static TRACE_COUNTER: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    TRACE_COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Two-stage 2-D blur (bx then by consuming bx): has flow dependences,
/// fused nests, and loop tags — every pass has real work to report.
fn blur2() -> Function {
    let mut f = Function::new("blur2", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f
        .input(
            "in",
            &[
                f.var("i", 0, E::param("N") + E::i64(2)),
                f.var("j", 0, E::param("N") + E::i64(2)),
            ],
        )
        .unwrap();
    let at = |di: i64| {
        E::Access(input, vec![E::iter("i") + E::i64(di), E::iter("j")])
    };
    let bx = f
        .computation("bx", &[i.clone(), j.clone()], (at(0) + at(1) + at(2)) / E::f32(3.0))
        .unwrap();
    let bxa = |dj: i64| E::Access(bx, vec![E::iter("i"), E::iter("j") + E::i64(dj)]);
    let by = f
        .computation("by", &[i, j], (bxa(0) + bxa(0) + bxa(0)) / E::f32(3.0))
        .unwrap();
    let bx_buf = f.buffer("bxb", &[E::param("N") + E::i64(2), E::param("N") + E::i64(2)]);
    f.store_in(bx, bx_buf, &[E::iter("i"), E::iter("j")]);
    let _ = by;
    f.parallelize(bx, "i").unwrap();
    f
}

/// [`blur2`] with both stages tiled onto the GPU: two kernels.
fn blur2_gpu() -> Function {
    let mut f = blur2();
    f.tile_gpu(CompId::from_raw(1), "i", "j", 4, 4).unwrap();
    f.tile_gpu(CompId::from_raw(2), "i", "j", 4, 4).unwrap();
    f
}

/// [`blur2`] with the second stage's rows distributed over ranks.
fn blur2_dist() -> Function {
    let mut f = blur2();
    f.distribute(CompId::from_raw(2), "i").unwrap();
    f
}

/// `blur2` compiled with tracing on for each backend, at `N = 8`.
fn traced_blur2s() -> (tiramisu::CpuModule, tiramisu::GpuModule, tiramisu::DistModule) {
    let n = [("N", 8)];
    let cpu = CpuOptions { trace: true, ..Default::default() };
    let gpu = GpuOptions { trace: true, ..Default::default() };
    let dist = DistOptions { trace: true, ..Default::default() };
    (
        compile_cpu(&blur2(), &n, cpu).unwrap(),
        compile_gpu(&blur2_gpu(), &n, gpu).unwrap(),
        compile_dist(&blur2_dist(), &n, dist).unwrap(),
    )
}

/// The gemm shape from the golden tests: init + k-contracted update.
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
        .computation("c_init", &[i.clone(), j.clone()], f.access(c_in, &[E::iter("i"), E::iter("j")]))
        .unwrap();
    let self_id = CompId::from_raw(4);
    let upd = E::Access(self_id, vec![E::iter("i"), E::iter("j"), E::iter("k") - E::i64(1)])
        + f.access(a, &[E::iter("i"), E::iter("k")]) * f.access(b, &[E::iter("k"), E::iter("j")]);
    let c_upd = f.computation("c_upd", &[i, j, k], upd).unwrap();
    assert_eq!(c_upd, self_id);
    f.store_in(c_init, c_buf, &[E::iter("i"), E::iter("j")]);
    f.store_in(c_upd, c_buf, &[E::iter("i"), E::iter("j")]);
    f
}

const PASSES: [&str; 6] = ["lower", "legality", "astgen", "tag-resolve", "emit", "optimize"];

/// `CompileTrace::report()` without its wall-clock column: pass names,
/// `stmts`/`nodes` counts and every IR snapshot, which are deterministic.
fn report_without_times(trace: &tiramisu::pipeline::CompileTrace) -> String {
    let report = trace.report();
    let (table, snapshots) = report.split_once("\n\n").expect("table, blank line, snapshots");
    let mut out = String::new();
    for (n, line) in table.lines().enumerate() {
        if n == 0 {
            out.push_str(line);
        } else {
            // `{:<12} {:>12}` then the counts: drop characters 12..25.
            let cells: Vec<char> = line.chars().collect();
            let name: String = cells[..12].iter().collect();
            let counts: String = cells[25..].iter().collect();
            out.push_str(format!("{name}{counts}").trim_end());
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(snapshots);
    out
}

fn assert_golden(name: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("TIRAMISU_BLESS").is_ok() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        text, expect,
        "compile trace `{name}` drifted from the golden snapshot \
         (re-bless with TIRAMISU_BLESS=1 only if the change is intentional)"
    );
}

/// The whole report (minus wall times) of `blur2` on every backend: the
/// six pass names in order, the `stmts`/`nodes` columns and all six IR
/// snapshots. Regenerate with `TIRAMISU_BLESS=1 cargo test --test compile_trace`.
#[test]
fn blur2_trace_report_is_pinned_on_every_backend() {
    let _guard = serialized();
    let (cpu, gpu, dist) = traced_blur2s();
    assert_golden("trace_blur2_cpu", &report_without_times(cpu.compile_trace().unwrap()));
    assert_golden("trace_blur2_gpu", &report_without_times(gpu.compile_trace().unwrap()));
    assert_golden("trace_blur2_dist", &report_without_times(dist.compile_trace().unwrap()));
}

#[test]
fn trace_records_passes_in_pipeline_order() {
    let _guard = serialized();
    let f = blur2();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().expect("tracing was requested");
    assert_eq!(trace.pass_names(), PASSES);
    assert_eq!(trace.target, "cpu");
    assert_eq!(trace.function, "blur2");
}

#[test]
fn every_pass_reports_nonzero_counts_on_nontrivial_kernel() {
    let _guard = serialized();
    let f = blur2();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    for p in &trace.passes {
        assert!(p.stmts > 0, "pass {} reports zero statements", p.name);
        assert!(p.nodes > 0, "pass {} reports zero nodes", p.name);
        assert!(!p.ir.is_empty(), "pass {} has an empty IR snapshot", p.name);
    }
    // The two-stage blur has a bx -> by flow dependence...
    let legality = &trace.passes[1];
    assert!(legality.ir.contains("bx -> by"), "{}", legality.ir);
    // ...and the parallel tag survives to the resolved tree.
    let tree = &trace.passes[3];
    assert!(tree.ir.contains("Parallel"), "{}", tree.ir);
}

#[test]
fn gemm_trace_reports_six_timed_passes() {
    let _guard = serialized();
    let f = gemm();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { check_legality: false, trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    let mut names: Vec<_> = trace.pass_names();
    names.dedup();
    assert!(names.len() >= 6, "expected >=6 distinct passes, got {names:?}");
    let report = trace.report();
    for p in PASSES {
        assert!(report.contains(p), "report lacks pass {p}:\n{report}");
    }
    // Every row carries a formatted duration and the total line sums them.
    assert!(report.contains("== compile trace: gemm -> cpu =="), "{report}");
    assert!(report.contains("total"), "{report}");
    assert!(report.matches("s ").count() > 0, "no timings in:\n{report}");
    assert!(report.contains("-- IR after lower --"), "{report}");
    assert!(report.contains("-- IR after emit --"), "{report}");
}

#[test]
fn gpu_and_dist_modules_carry_traces_too() {
    let _guard = serialized();
    let mut f = Function::new("scale", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
    let out = f
        .computation(
            "out",
            &[i.clone(), j.clone()],
            f.access(input, &[E::iter("i"), E::iter("j")]) * E::f32(2.0),
        )
        .unwrap();
    f.tile_gpu(out, "i", "j", 8, 8).unwrap();
    let module = compile_gpu(
        &f,
        &[("N", 16)],
        GpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    assert_eq!(trace.pass_names(), PASSES);
    assert_eq!(trace.target, "gpu");

    let mut f = Function::new("dscale", &["Nodes"]);
    let r = f.var("r", 0, E::param("Nodes"));
    let c = f.computation("C", &[r], E::f32(1.0)).unwrap();
    f.distribute(c, "r").unwrap();
    let module = compile_dist(
        &f,
        &[("Nodes", 4)],
        DistOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    assert_eq!(trace.pass_names(), PASSES);
    assert_eq!(trace.target, "dist");
}

#[test]
fn optimize_pass_runs_last_and_reports_instruction_counts() {
    let _guard = serialized();
    let f = blur2();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    let opt = trace.passes.last().unwrap();
    assert_eq!(opt.name, "optimize");
    // The stmts column carries source expression-tree nodes, the nodes
    // column the emitted instruction count; folding/CSE/hoisting must
    // leave strictly less work than the tree walk performed.
    assert!(opt.stmts > 0 && opt.nodes > 0);
    assert!(
        opt.nodes < opt.stmts,
        "bytecode ({} insts) not smaller than the tree ({} nodes)",
        opt.nodes,
        opt.stmts
    );
    let bc = module.bytecode().expect("CPU modules carry optimized bytecode");
    assert_eq!(bc.n_insts(), opt.nodes);
    assert_eq!(bc.stats().tree_nodes, opt.stmts);
}

/// The `optimize` snapshot is always the one-line stats summary; the
/// listing is `module.disasm()`, which for every backend is each
/// program's disassembly under the label the module gives it.
#[test]
fn optimize_snapshot_is_the_summary_and_disasm_is_the_labelled_listing() {
    let _guard = serialized();
    let summary_of = |trace: &tiramisu::pipeline::CompileTrace| {
        let ir = trace.passes.last().unwrap().ir.clone();
        assert!(ir.contains("tree nodes ->"), "{ir}");
        assert_eq!(ir.lines().count(), 1, "optimize snapshot is not one line:\n{ir}");
        ir
    };

    let (cpu, gpu, dist) = traced_blur2s();
    let bc = cpu.bytecode().unwrap();
    assert_eq!(summary_of(cpu.compile_trace().unwrap()), bc.stats().summary());
    let listing = cpu.disasm().unwrap();
    assert!(listing.contains("store"), "{listing}");
    assert_eq!(listing, bc.disasm(&cpu.program));

    summary_of(gpu.compile_trace().unwrap());
    let mut expect = String::new();
    for (k, ker) in gpu.kernels.iter().enumerate() {
        for (p, bc) in gpu.bytecode(k).unwrap().iter().enumerate() {
            expect += &format!("// kernel {k} phase {p}\n{}", bc.disasm(&ker.phases()[p]));
        }
    }
    assert!(expect.contains("// kernel 1 phase 0\n"), "{expect}");
    assert_eq!(gpu.disasm().unwrap(), expect);

    summary_of(dist.compile_trace().unwrap());
    let mut expect = String::new();
    for (k, bc) in dist.bytecode().unwrap().iter().enumerate() {
        expect += &format!("// chunk {k}\n{}", bc.disasm(&dist.dist.chunks()[k]));
    }
    assert!(expect.contains("// chunk 0\n"), "{expect}");
    assert_eq!(dist.disasm().unwrap(), expect);
}

#[test]
fn disabled_tracing_materializes_nothing() {
    let _guard = serialized();
    let before = snapshot_renders();
    for _ in 0..3 {
        let f = blur2();
        let module = compile_cpu(&f, &[("N", 8)], CpuOptions::default()).unwrap();
        assert!(module.compile_trace().is_none());
    }
    assert_eq!(
        snapshot_renders(),
        before,
        "tracing-disabled compilation materialized trace records"
    );
}
