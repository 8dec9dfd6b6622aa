//! Error-path coverage: the library must fail loudly and precisely on the
//! misuses the paper's design rules out (illegal schedules, unbound
//! parameters, malformed commands), never silently produce wrong code.

use tiramisu::{CpuOptions, Expr as E, Function};

#[test]
fn illegal_fusion_is_rejected_with_the_dependence_named() {
    // by(i) reads bx(i+1): plain fusion is illegal (needs a shift).
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let bx = f.computation("bx", std::slice::from_ref(&i), E::f32(1.0)).unwrap();
    let i2 = f.var("i", 0, E::param("N") - E::i64(1));
    let read = f.access(bx, &[E::iter("i") + E::i64(1)]);
    let by = f.computation("by", &[i2], read).unwrap();
    f.fuse_after(by, bx, "i").unwrap();
    let err = tiramisu::compile_cpu(&f, &[("N", 8)], CpuOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("bx") && msg.contains("by"), "unhelpful error: {msg}");
}

#[test]
fn unbound_parameter_is_reported_by_name() {
    let mut f = Function::new("t", &["N", "M"]);
    let i = f.var("i", 0, E::param("N"));
    f.computation("c", &[i], E::f32(1.0)).unwrap();
    let err = tiramisu::compile_cpu(&f, &[("N", 4)], CpuOptions::default()).unwrap_err();
    assert!(err.to_string().contains('M'), "got: {err}");
}

#[test]
fn unknown_loop_level_is_reported() {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let c = f.computation("c", &[i], E::f32(1.0)).unwrap();
    assert!(f.tile(c, "i", "nope", 4, 4, ("a", "b", "x", "y")).is_err());
    assert!(f.parallelize(c, "nope").is_err());
    assert!(f.shift(c, "nope", 1).is_err());
}

#[test]
fn invalid_tile_sizes_are_rejected() {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let c = f.computation("c", &[i, j], E::f32(1.0)).unwrap();
    assert!(f.tile(c, "i", "j", 0, 4, ("a", "b", "x", "y")).is_err());
    assert!(f.split(c, "i", -1, "a", "b").is_err());
}

#[test]
fn compute_at_requires_a_read() {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let a = f.computation("a", std::slice::from_ref(&i), E::f32(1.0)).unwrap();
    let b = f.computation("b", &[i], E::f32(2.0)).unwrap(); // no read of a
    assert!(f.compute_at(a, b, "i").is_err());
}

#[test]
fn cache_without_constant_region_is_rejected() {
    // Untiled consumer: the needed region per iteration of the outermost
    // loop spans a parametric extent — no constant cache size exists.
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
    let out = f
        .computation(
            "out",
            &[i, j],
            f.access(input, &[E::iter("i"), E::iter("j")]),
        )
        .unwrap();
    let err = f.cache_shared_at(input, out, "i").unwrap_err();
    assert!(err.to_string().contains("constant"), "got: {err}");
}

#[test]
fn gpu_tags_rejected_by_cpu_backend() {
    let mut f = Function::new("t", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let c = f.computation("c", &[i, j], E::f32(1.0)).unwrap();
    f.tile_gpu(c, "i", "j", 8, 8).unwrap();
    assert!(tiramisu::compile_cpu(&f, &[("N", 16)], CpuOptions::default()).is_err());
}

#[test]
fn non_affine_bounds_rejected_at_declaration() {
    let mut f = Function::new("t", &["N"]);
    let bad = tiramisu::Var::new("i", E::i64(0), E::param("N") * E::param("N"));
    assert!(f.computation("c", &[bad], E::f32(1.0)).is_err());
}

#[test]
fn out_of_bounds_is_a_runtime_error_not_ub() {
    // Reads beyond a producer's buffer surface as a checked VM error.
    let mut f = Function::new("t", &[]);
    let i = f.var("i", 0, 8);
    let input = f.input("in", &[f.var("i", 0, 4)]).unwrap();
    let out = f
        .computation("out", &[i], f.access(input, &[E::iter("i")]))
        .unwrap();
    let _ = out;
    let module = tiramisu::compile_cpu(&f, &[], CpuOptions::default()).unwrap();
    let mut m = module.machine();
    let err = m.run(&module.program).unwrap_err();
    assert!(matches!(err, loopvm::Error::OutOfBounds { .. }));
}

#[test]
fn halide_lite_error_messages_name_the_failure() {
    use halide_lite::{HExpr, Pipeline};
    let mut p = Pipeline::new();
    let input = p.input("img", &[4]);
    let out = p.func(
        "out",
        &["x"],
        HExpr::In(input, vec![HExpr::var("x") + HExpr::i(10)]),
    );
    p.set_output(out);
    let err = halide_lite::compile(&p, &[4]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("img") && msg.contains("bounds"), "got: {msg}");
}

/// The emit path folds integer constants with the executors' own wrapping
/// arithmetic: `i64::MAX + 1` used to panic the compiler in debug builds
/// ("attempt to add with overflow") and wrap in release. Both profiles
/// now fold it to `i64::MIN`, which is what every executor computes.
#[test]
fn emit_time_constant_folding_wraps_like_the_executors() {
    use loopvm::Expr as V;
    use tiramisu::pipeline::simplify;
    assert_eq!(simplify(V::i64(i64::MAX) + V::i64(1)), V::i64(i64::MIN));
    assert_eq!(simplify(V::i64(i64::MIN) - V::i64(1)), V::i64(i64::MAX));
    assert_eq!(simplify(V::i64(i64::MAX) * V::i64(2)), V::i64(-2));

    let mut f = Function::new("wrap", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let sum = E::i64(i64::MAX) + E::i64(1);
    f.computation("out", &[i], E::CastF32(Box::new(sum))).unwrap();
    let m = tiramisu::compile_cpu(&f, &[("N", 4)], CpuOptions::default()).unwrap();
    let out = m.vm_buffer("out").unwrap();
    for mode in [loopvm::ExecMode::TreeWalk, loopvm::ExecMode::Bytecode, loopvm::ExecMode::Jit] {
        let mut machine = m.machine();
        machine.set_exec_mode(mode);
        machine.run(&m.program).unwrap();
        assert_eq!(machine.buffer(out), [i64::MIN as f32; 4], "{mode:?}");
    }
}

/// An `f32` `if` condition or loop bound is the same type error on every
/// executor. The reference paths (`TreeWalk`, `run_with_stats`,
/// `launch_tree_walk`) used to skip these checks and panic on an empty
/// operand stack instead.
#[test]
fn f32_conditions_and_loop_bounds_are_the_same_type_error_everywhere() {
    use loopvm::{ExecMode, Expr as V, Machine, Program, Stmt};
    let mut p = Program::new();
    let y = p.buffer("y", 1);
    let i = p.var("i");
    let store = || vec![Stmt::store(y, V::i64(0), V::f32(1.0))];
    let cases = [
        (Stmt::if_then(V::f32(1.0), store()), "if condition must be i64"),
        (Stmt::if_then(V::f32(1.0), vec![]), "if condition must be i64"),
        (Stmt::serial(i, V::i64(0), V::f32(2.0), store()), "loop bounds must be i64"),
    ];
    let model = gpusim::GpuModel::default();
    for (stmt, msg) in cases {
        let mut p = p.clone();
        p.set_body(vec![stmt]);
        let want = Err(loopvm::Error::Type(msg.into()));
        for mode in [ExecMode::TreeWalk, ExecMode::Bytecode, ExecMode::Jit] {
            let mut m = Machine::new(&p);
            m.set_exec_mode(mode);
            assert_eq!(m.run(&p), want, "{mode:?}: {msg}");
        }
        assert_eq!(Machine::new(&p).run_with_stats(&p).map(|_| ()), want, "stats: {msg}");
        let k = gpusim::Kernel::new(p, [1, 1], [32, 1]);
        let mut bufs = gpusim::exec::alloc_buffers(&k);
        assert_eq!(gpusim::launch(&k, &mut bufs, &model).map(|_| ()), want, "launch: {msg}");
        let tree_walk = gpusim::launch_tree_walk(&k, &mut bufs, &model);
        assert_eq!(tree_walk.map(|_| ()), want, "launch_tree_walk: {msg}");
    }
}

/// A buffer whose element count overflows is a compile error in every
/// build profile: the unchecked product used to panic in debug builds and,
/// in release, wrap to 0 and silently allocate a one-element buffer.
#[test]
fn buffer_element_count_overflow_is_a_compile_error() {
    let mut f = Function::new("huge", &["N"]);
    let i = f.var("i", 0, 4);
    let c = f.computation("c", &[i], E::f32(1.0)).unwrap();
    let b = f.buffer("b", &[E::param("N"), E::param("N")]);
    f.store_in(c, b, &[E::iter("i"), E::i64(0)]);
    let err = tiramisu::compile_cpu(&f, &[("N", 1 << 32)], CpuOptions::default()).unwrap_err();
    assert!(matches!(err, tiramisu::Error::Backend(_)), "{err:?}");
    assert!(err.to_string().contains("buffer b"), "{err}");
}
