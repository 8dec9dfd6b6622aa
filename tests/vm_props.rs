//! Property-based tests of the execution substrate: the three VM
//! execution paths (serial / parallel / vector) must agree on random
//! programs, and the compiler's generated code must agree with a direct
//! interpreter of random scheduled computations.

use loopvm::{ExecMode, Expr as V, LoopKind, Machine, Program, Stmt};
use proptest::prelude::*;

/// `loopvm::opt` emits SSA: the artifact decoder, which rejects a register
/// defined twice, must accept the bytecode of every generated program.
/// Called from the run helpers, so every generator below goes through it.
fn assert_bytecode_roundtrips(p: &Program) {
    let Ok(code) = p.compiled() else { return };
    let mut w = artifacts::wire::Writer::new();
    loopvm::codec::encode_bc(code.bytecode(), &mut w);
    let bytes = w.into_vec();
    let back = loopvm::codec::decode_bc(&mut artifacts::wire::Reader::new(&bytes), p)
        .unwrap_or_else(|e| panic!("compiled bytecode does not decode: {e:?}\n{}", p.pretty()));
    assert_eq!(back.disasm(p), code.bytecode().disasm(p));
}

/// A random elementwise expression over `x[i]`, `y[i]` and `i`.
#[derive(Debug, Clone)]
enum RExpr {
    X,
    Y,
    ConstF(i8),
    Add(Box<RExpr>, Box<RExpr>),
    Sub(Box<RExpr>, Box<RExpr>),
    Mul(Box<RExpr>, Box<RExpr>),
    MinMax(Box<RExpr>, Box<RExpr>, bool),
    SelectIdx(Box<RExpr>, Box<RExpr>),
}

fn rexpr() -> impl Strategy<Value = RExpr> {
    let leaf = prop_oneof![
        Just(RExpr::X),
        Just(RExpr::Y),
        any::<i8>().prop_map(RExpr::ConstF),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), any::<bool>())
                .prop_map(|(a, b, m)| RExpr::MinMax(Box::new(a), Box::new(b), m)),
            (inner.clone(), inner).prop_map(|(a, b)| RExpr::SelectIdx(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_vexpr(e: &RExpr, x: loopvm::BufId, y: loopvm::BufId, i: loopvm::Var) -> V {
    match e {
        RExpr::X => V::load(x, V::var(i)),
        RExpr::Y => V::load(y, V::var(i)),
        RExpr::ConstF(v) => V::f32(*v as f32),
        RExpr::Add(a, b) => to_vexpr(a, x, y, i) + to_vexpr(b, x, y, i),
        RExpr::Sub(a, b) => to_vexpr(a, x, y, i) - to_vexpr(b, x, y, i),
        RExpr::Mul(a, b) => to_vexpr(a, x, y, i) * to_vexpr(b, x, y, i),
        RExpr::MinMax(a, b, true) => V::min(to_vexpr(a, x, y, i), to_vexpr(b, x, y, i)),
        RExpr::MinMax(a, b, false) => V::max(to_vexpr(a, x, y, i), to_vexpr(b, x, y, i)),
        RExpr::SelectIdx(a, b) => V::select(
            V::lt(V::var(i) % V::i64(3), V::i64(1)),
            to_vexpr(a, x, y, i),
            to_vexpr(b, x, y, i),
        ),
    }
}

fn eval_ref(e: &RExpr, xv: f32, yv: f32, i: i64) -> f32 {
    match e {
        RExpr::X => xv,
        RExpr::Y => yv,
        RExpr::ConstF(v) => *v as f32,
        RExpr::Add(a, b) => eval_ref(a, xv, yv, i) + eval_ref(b, xv, yv, i),
        RExpr::Sub(a, b) => eval_ref(a, xv, yv, i) - eval_ref(b, xv, yv, i),
        RExpr::Mul(a, b) => eval_ref(a, xv, yv, i) * eval_ref(b, xv, yv, i),
        RExpr::MinMax(a, b, true) => eval_ref(a, xv, yv, i).min(eval_ref(b, xv, yv, i)),
        RExpr::MinMax(a, b, false) => eval_ref(a, xv, yv, i).max(eval_ref(b, xv, yv, i)),
        RExpr::SelectIdx(a, b) => {
            if i.rem_euclid(3) < 1 {
                eval_ref(a, xv, yv, i)
            } else {
                eval_ref(b, xv, yv, i)
            }
        }
    }
}

fn run_kind(e: &RExpr, kind: LoopKind, n: usize) -> Vec<f32> {
    let mut p = Program::new();
    let x = p.buffer("x", n);
    let y = p.buffer("y", n);
    let out = p.buffer("out", n);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        V::i64(0),
        V::i64(n as i64),
        kind,
        vec![Stmt::store(out, V::var(i), to_vexpr(e, x, y, i))],
    ));
    assert_bytecode_roundtrips(&p);
    let mut m = Machine::new(&p);
    for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
        *v = (k as f32 * 0.5) - 3.0;
    }
    for (k, v) in m.buffer_mut(y).iter_mut().enumerate() {
        *v = 7.0 - k as f32;
    }
    m.run(&p).unwrap();
    m.buffer(out).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial, parallel and vector execution agree bit-for-bit with a
    /// direct Rust evaluation of the same expression.
    #[test]
    fn execution_paths_agree(e in rexpr(), n in 3usize..40) {
        let serial = run_kind(&e, LoopKind::Serial, n);
        for (k, got) in serial.iter().enumerate() {
            let xv = (k as f32 * 0.5) - 3.0;
            let yv = 7.0 - k as f32;
            let expect = eval_ref(&e, xv, yv, k as i64);
            prop_assert!(
                (got - expect).abs() < 1e-4 || (got.is_nan() && expect.is_nan()),
                "serial[{}] = {}, expected {}", k, got, expect
            );
        }
        prop_assert_eq!(&run_kind(&e, LoopKind::Parallel, n), &serial);
        prop_assert_eq!(&run_kind(&e, LoopKind::Vectorize(8), n), &serial);
        prop_assert_eq!(&run_kind(&e, LoopKind::Unroll(4), n), &serial);
    }

    /// The VM's stats path computes identical results to the fast path.
    #[test]
    fn stats_path_matches_fast_path(e in rexpr(), n in 3usize..24) {
        let mut p = Program::new();
        let x = p.buffer("x", n);
        let y = p.buffer("y", n);
        let out = p.buffer("out", n);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            V::i64(0),
            V::i64(n as i64),
            vec![Stmt::store(out, V::var(i), to_vexpr(&e, x, y, i))],
        ));
        let run = |stats: bool| {
            let mut m = Machine::new(&p);
            for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
                *v = k as f32;
            }
            for (k, v) in m.buffer_mut(y).iter_mut().enumerate() {
                *v = -(k as f32);
            }
            if stats {
                m.run_with_stats(&p).unwrap();
            } else {
                m.run(&p).unwrap();
            }
            m.buffer(out).to_vec()
        };
        prop_assert_eq!(run(false), run(true));
    }
}

// ---------------------------------------------------------------------------
// Optimizer equivalence: eval(optimize(e)) == eval(e)
//
// `Machine::run` lowers through `loopvm::opt` (constant folding, CSE,
// hoisting); `Machine::run_tree_walk` is the unoptimized reference. The
// two must agree bit-for-bit on arbitrary well-typed expressions,
// including the value edges where folding is easiest to get wrong.
// ---------------------------------------------------------------------------

/// A random well-typed i64 expression over the loop variable `i`.
/// Divisions are kept trap-free by construction: constant divisors are
/// drawn from a nonzero set without `-1` (so `i64::MIN / -1` cannot
/// occur), and expression divisors are wrapped in `max(d, 1)`.
#[derive(Debug, Clone)]
enum IExpr {
    I,
    Const(i64),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
    DivC(Box<IExpr>, i64),
    RemC(Box<IExpr>, i64),
    DivClamped(Box<IExpr>, Box<IExpr>),
    MinMax(Box<IExpr>, Box<IExpr>, bool),
    Select(Box<IExpr>, Box<IExpr>),
}

fn iconst() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -3i64..=3]
}

fn idenom() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(1i64),
        Just(2),
        Just(3),
        Just(7),
        Just(16),
        Just(65536),
        Just(i64::MAX),
        Just(-2),
        Just(-7),
    ]
}

fn iexpr() -> impl Strategy<Value = IExpr> {
    let leaf = prop_oneof![Just(IExpr::I), iconst().prop_map(IExpr::Const)];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), idenom()).prop_map(|(a, d)| IExpr::DivC(Box::new(a), d)),
            (inner.clone(), idenom()).prop_map(|(a, d)| IExpr::RemC(Box::new(a), d)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IExpr::DivClamped(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), any::<bool>())
                .prop_map(|(a, b, m)| IExpr::MinMax(Box::new(a), Box::new(b), m)),
            (inner.clone(), inner).prop_map(|(a, b)| IExpr::Select(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_ivexpr(e: &IExpr, i: loopvm::Var) -> V {
    match e {
        IExpr::I => V::var(i),
        IExpr::Const(c) => V::i64(*c),
        IExpr::Add(a, b) => to_ivexpr(a, i) + to_ivexpr(b, i),
        IExpr::Sub(a, b) => to_ivexpr(a, i) - to_ivexpr(b, i),
        IExpr::Mul(a, b) => to_ivexpr(a, i) * to_ivexpr(b, i),
        IExpr::DivC(a, d) => to_ivexpr(a, i) / V::i64(*d),
        IExpr::RemC(a, d) => to_ivexpr(a, i) % V::i64(*d),
        IExpr::DivClamped(a, b) => to_ivexpr(a, i) / V::max(to_ivexpr(b, i), V::i64(1)),
        IExpr::MinMax(a, b, true) => V::min(to_ivexpr(a, i), to_ivexpr(b, i)),
        IExpr::MinMax(a, b, false) => V::max(to_ivexpr(a, i), to_ivexpr(b, i)),
        IExpr::Select(a, b) => {
            V::select(V::lt(to_ivexpr(a, i), to_ivexpr(b, i)), to_ivexpr(a, i), to_ivexpr(b, i))
        }
    }
}

/// Stores an i64 expression's exact value as four 16-bit chunks (each
/// exactly representable in f32), so bit-equality of the output buffers
/// implies equality of the full 64-bit values — including the sign, and
/// without routing through a lossy i64→f32 cast of the raw value.
fn ichunk_program(e: &IExpr, n: i64, kind: LoopKind) -> (Program, loopvm::BufId) {
    let mut p = Program::new();
    let out = p.buffer("out", (n * 4) as usize);
    let i = p.var("i");
    let mut body = Vec::new();
    for c in 0..4i64 {
        let shift = 65536i64.pow(c as u32);
        let chunk = (to_ivexpr(e, i) / V::i64(shift)) % V::i64(65536);
        body.push(Stmt::store(
            out,
            V::var(i) * V::i64(4) + V::i64(c),
            V::to_f32(chunk),
        ));
    }
    p.push(Stmt::for_(i, V::i64(0), V::i64(n), kind, body));
    (p, out)
}

/// A random well-typed f32 expression over `in[i]` and special constants.
#[derive(Debug, Clone)]
enum FExpr {
    In,
    Const(u8),
    Add(Box<FExpr>, Box<FExpr>),
    Sub(Box<FExpr>, Box<FExpr>),
    Mul(Box<FExpr>, Box<FExpr>),
    Div(Box<FExpr>, Box<FExpr>),
    MinMax(Box<FExpr>, Box<FExpr>, bool),
    Neg(Box<FExpr>),
    Abs(Box<FExpr>),
    Sqrt(Box<FExpr>),
    Select(Box<FExpr>, Box<FExpr>),
}

/// NaN, infinities, signed zero, exact small values, and the fold-bait
/// identities (1.0, 0.0) the optimizer must only use where IEEE allows.
const F_SPECIALS: [f32; 10] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.0, -1.0, 0.5, -2.25, 3.0e20];

fn fexpr() -> impl Strategy<Value = FExpr> {
    let leaf = prop_oneof![Just(FExpr::In), (0u8..F_SPECIALS.len() as u8).prop_map(FExpr::Const)];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), any::<bool>())
                .prop_map(|(a, b, m)| FExpr::MinMax(Box::new(a), Box::new(b), m)),
            inner.clone().prop_map(|a| FExpr::Neg(Box::new(a))),
            inner.clone().prop_map(|a| FExpr::Abs(Box::new(a))),
            inner.clone().prop_map(|a| FExpr::Sqrt(Box::new(a))),
            (inner.clone(), inner).prop_map(|(a, b)| FExpr::Select(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_fvexpr(e: &FExpr, input: loopvm::BufId, i: loopvm::Var) -> V {
    match e {
        FExpr::In => V::load(input, V::var(i)),
        FExpr::Const(k) => V::f32(F_SPECIALS[*k as usize]),
        FExpr::Add(a, b) => to_fvexpr(a, input, i) + to_fvexpr(b, input, i),
        FExpr::Sub(a, b) => to_fvexpr(a, input, i) - to_fvexpr(b, input, i),
        FExpr::Mul(a, b) => to_fvexpr(a, input, i) * to_fvexpr(b, input, i),
        FExpr::Div(a, b) => to_fvexpr(a, input, i) / to_fvexpr(b, input, i),
        FExpr::MinMax(a, b, true) => V::min(to_fvexpr(a, input, i), to_fvexpr(b, input, i)),
        FExpr::MinMax(a, b, false) => V::max(to_fvexpr(a, input, i), to_fvexpr(b, input, i)),
        FExpr::Neg(a) => -to_fvexpr(a, input, i),
        FExpr::Abs(a) => V::abs(to_fvexpr(a, input, i)),
        FExpr::Sqrt(a) => V::sqrt(to_fvexpr(a, input, i)),
        FExpr::Select(a, b) => V::select(
            V::lt(to_fvexpr(a, input, i), to_fvexpr(b, input, i)),
            to_fvexpr(a, input, i),
            to_fvexpr(b, input, i),
        ),
    }
}

fn run_mode(p: &Program, seed_in: Option<loopvm::BufId>, tree_walk: bool) -> Vec<u32> {
    assert_bytecode_roundtrips(p);
    let mut m = Machine::new(p);
    m.set_threads(2);
    if let Some(b) = seed_in {
        for (k, v) in m.buffer_mut(b).iter_mut().enumerate() {
            *v = F_SPECIALS[k % F_SPECIALS.len()] + (k / F_SPECIALS.len()) as f32;
        }
    }
    if tree_walk {
        m.set_exec_mode(loopvm::ExecMode::TreeWalk);
    }
    m.run(p).unwrap();
    // Compare bit patterns so signed zeros and infinities must match
    // exactly. NaNs are canonicalized first: *whether* an operation
    // produces NaN is deterministic, but the payload/sign of e.g.
    // `+NaN + -NaN` is not — LLVM may commute `fadd`, and x86 `addss`
    // propagates the first operand's NaN, so two inlinings of the same
    // arithmetic can legally differ in payload.
    m.buffer(p.nth_buffer(p.n_buffers() - 1))
        .iter()
        .map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// i64 semantics survive optimization exactly, including Euclidean
    /// division/remainder at `i64::MIN`/`i64::MAX` and wrapping overflow.
    #[test]
    fn optimizer_preserves_i64_semantics(e in iexpr()) {
        for kind in [LoopKind::Serial, LoopKind::Parallel, LoopKind::Vectorize(8)] {
            let (p, _) = ichunk_program(&e, 11, kind);
            prop_assert_eq!(
                run_mode(&p, None, false),
                run_mode(&p, None, true),
                "divergence under {:?} for {:?}", kind, e
            );
        }
    }

    /// f32 semantics survive optimization bit-for-bit: NaN propagation
    /// through min/max/select, signed zeros, and infinities.
    #[test]
    fn optimizer_preserves_f32_nan_semantics(e in fexpr()) {
        for kind in [LoopKind::Serial, LoopKind::Parallel, LoopKind::Vectorize(8)] {
            let n = 23usize;
            let mut p = Program::new();
            let input = p.buffer("in", n);
            let out = p.buffer("out", n);
            let i = p.var("i");
            p.push(Stmt::for_(
                i,
                V::i64(0),
                V::i64(n as i64),
                kind,
                vec![Stmt::store(out, V::var(i), to_fvexpr(&e, input, i))],
            ));
            prop_assert_eq!(
                run_mode(&p, Some(input), false),
                run_mode(&p, Some(input), true),
                "divergence under {:?} for {:?}", kind, e
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Loop-carried `let` mutation: a variable re-bound inside a loop body
// reads the previous iteration's value. The bytecode compiler must route
// such reads through the frame, not a stale outer register.
// ---------------------------------------------------------------------------

/// Every tier, named explicitly: the machine's default depends on the
/// host (`Jit` on x86-64), and the bytecode interpreter must run here too.
const TIERS: [ExecMode; 3] = [ExecMode::TreeWalk, ExecMode::Bytecode, ExecMode::Jit];

fn run_program(p: &Program, out: loopvm::BufId, mode: ExecMode, threads: usize) -> Vec<f32> {
    assert_bytecode_roundtrips(p);
    let mut m = Machine::new(p);
    m.set_threads(threads);
    m.set_exec_mode(mode);
    m.run(p).unwrap();
    m.buffer(out).to_vec()
}

/// The review repro: `let t = 5; for i in 0..4 { let t = t + 1; out[i] = t }`
/// must give [6, 7, 8, 9] — a stale register binding repeats 6 forever.
#[test]
fn loop_carried_let_reads_previous_iteration() {
    let mut p = Program::new();
    let out = p.buffer("out", 4);
    let t = p.var("t");
    let i = p.var("i");
    p.push(Stmt::let_(t, V::i64(5)));
    p.push(Stmt::serial(
        i,
        V::i64(0),
        V::i64(4),
        vec![
            Stmt::let_(t, V::var(t) + V::i64(1)),
            Stmt::store(out, V::var(i), V::to_f32(V::var(t))),
        ],
    ));
    let expect = vec![6.0, 7.0, 8.0, 9.0];
    for mode in TIERS {
        assert_eq!(run_program(&p, out, mode, 1), expect, "{mode:?}");
    }
}

/// Loop-carried rebinding through an `if` arm, and through a nested inner
/// loop whose mutation must survive back out to the outer level.
#[test]
fn loop_carried_let_through_if_and_nested_loop() {
    // let acc = 0; for i in 0..6 { if i % 2 == 0 { let acc = acc + i }; out[i] = acc }
    let mut p = Program::new();
    let out = p.buffer("out", 6);
    let acc = p.var("acc");
    let i = p.var("i");
    p.push(Stmt::let_(acc, V::i64(0)));
    p.push(Stmt::serial(
        i,
        V::i64(0),
        V::i64(6),
        vec![
            Stmt::if_then(
                V::eq(V::var(i) % V::i64(2), V::i64(0)),
                vec![Stmt::let_(acc, V::var(acc) + V::var(i))],
            ),
            Stmt::store(out, V::var(i), V::to_f32(V::var(acc))),
        ],
    ));
    let expect = vec![0.0, 0.0, 2.0, 2.0, 6.0, 6.0];
    for mode in TIERS {
        assert_eq!(run_program(&p, out, mode, 1), expect, "{mode:?}");
    }

    // let s = 0; for i in 0..3 { for j in 0..2 { let s = s + (i*2 + j) } }
    // out[0] = s   — the accumulated value is read *after* both loops.
    let mut p = Program::new();
    let out = p.buffer("out", 1);
    let s = p.var("s");
    let i = p.var("i");
    let j = p.var("j");
    p.push(Stmt::let_(s, V::i64(0)));
    p.push(Stmt::serial(
        i,
        V::i64(0),
        V::i64(3),
        vec![Stmt::serial(
            j,
            V::i64(0),
            V::i64(2),
            vec![Stmt::let_(s, V::var(s) + (V::var(i) * V::i64(2) + V::var(j)))],
        )],
    ));
    p.push(Stmt::store(out, V::i64(0), V::to_f32(V::var(s))));
    for mode in TIERS {
        assert_eq!(run_program(&p, out, mode, 1), vec![15.0], "{mode:?}");
    }
}

/// A fold that discards an expression (here: a constant-condition select
/// arm) must not silence the trap the tree-walk reference would raise
/// while evaluating it — DCE keeps faulting instructions alive.
#[test]
fn folded_out_loads_still_trap() {
    let mut p = Program::new();
    let input = p.buffer("in", 4);
    let out = p.buffer("out", 4);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        V::i64(0),
        V::i64(4),
        vec![Stmt::store(
            out,
            V::var(i),
            V::select(
                V::i64(1),
                V::load(input, V::var(i)),
                V::load(input, V::var(i) + V::i64(100)),
            ),
        )],
    ));
    let mut fast = Machine::new(&p);
    let fast_r = fast.run(&p);
    assert!(fast_r.is_err(), "bytecode must fault like the tree-walk: {fast_r:?}");
    let mut reference = Machine::new(&p);
    reference.set_exec_mode(loopvm::ExecMode::TreeWalk);
    assert_eq!(fast_r, reference.run(&p));
}

/// A program carries its compiled form: repeated runs reuse it, clones
/// share it, and a program rebuilt via `set_body` recompiles — it must
/// never replay the code of the body it used to have, on the machine
/// that ran the old body or on any other.
#[test]
fn set_body_recompiles_and_never_replays_stale_code() {
    let mut p = Program::new();
    let out = p.buffer("out", 2);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        V::i64(0),
        V::i64(2),
        vec![Stmt::store(out, V::var(i), V::f32(1.0))],
    ));
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    m.run(&p).unwrap(); // reuses the compiled form
    assert_eq!(m.buffer(out), &[1.0, 1.0]);
    let ones = p.clone(); // shares the compiled `1.0` body
    let old_code: *const loopvm::Compiled = p.compiled().unwrap();

    let mut body = p.body().to_vec();
    if let Stmt::For { body: inner, .. } = &mut body[0] {
        inner[0] = Stmt::store(out, V::var(i), V::f32(2.0));
    }
    p.set_body(body);
    assert!(!std::ptr::eq(old_code, p.compiled().unwrap()), "set_body kept the old code");
    m.run(&p).unwrap();
    assert_eq!(m.buffer(out), &[2.0, 2.0]);
    // The clone taken before the mutation still runs the old body.
    assert!(std::ptr::eq(old_code, ones.compiled().unwrap()));
    m.run(&ones).unwrap();
    assert_eq!(m.buffer(out), &[1.0, 1.0]);
}

/// An accumulator update drawn for the loop-carried proptest below.
#[derive(Debug, Clone, Copy)]
enum AccOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

fn accop() -> impl Strategy<Value = AccOp> {
    prop_oneof![
        Just(AccOp::Add),
        Just(AccOp::Sub),
        Just(AccOp::Mul),
        Just(AccOp::Min),
        Just(AccOp::Max)
    ]
}

fn acc_apply(op: AccOp, a: i64, b: i64) -> i64 {
    match op {
        AccOp::Add => a.wrapping_add(b),
        AccOp::Sub => a.wrapping_sub(b),
        AccOp::Mul => a.wrapping_mul(b),
        AccOp::Min => a.min(b),
        AccOp::Max => a.max(b),
    }
}

fn acc_expr(op: AccOp, a: V, b: V) -> V {
    match op {
        AccOp::Add => a + b,
        AccOp::Sub => a - b,
        AccOp::Mul => a * b,
        AccOp::Min => V::min(a, b),
        AccOp::Max => V::max(a, b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random chains of loop-carried `let` updates agree with a direct
    /// Rust evaluation on every tier of a serial loop, and the bytecode
    /// and native tiers agree with the tree-walk under every loop kind
    /// (parallel workers snapshot the frame at loop entry, and vector
    /// chunks compute every lane from the pre-loop value, so those shared
    /// semantics are compared tier-vs-tier, not against serial). `n` runs
    /// past several 8-lane chunks, so a let carried from one chunk into
    /// the next — or into the scalar remainder — shows up.
    #[test]
    fn loop_carried_let_chains_agree(
        init in -4i64..=4,
        ops in proptest::collection::vec((accop(), -3i64..=3), 1..4),
        n in 1i64..=40,
    ) {
        let build = |kind: LoopKind| {
            let mut p = Program::new();
            let out = p.buffer("out", n as usize);
            let a = p.var("a");
            let i = p.var("i");
            p.push(Stmt::let_(a, V::i64(init)));
            let mut body = Vec::new();
            for (op, c) in &ops {
                body.push(Stmt::let_(
                    a,
                    acc_expr(*op, V::var(a), V::var(i) + V::i64(*c)),
                ));
            }
            // Store the low 16 bits (exact in f32) so wrapping overflow
            // still round-trips bit-exactly through the f32 buffer.
            body.push(Stmt::store(out, V::var(i), V::to_f32(V::var(a) % V::i64(65536))));
            p.push(Stmt::for_(i, V::i64(0), V::i64(n), kind, body));
            (p, out)
        };

        // Ground truth for the serial path.
        let (p, out) = build(LoopKind::Serial);
        let mut acc = init;
        let mut expect = Vec::new();
        for i in 0..n {
            for (op, c) in &ops {
                acc = acc_apply(*op, acc, i.wrapping_add(*c));
            }
            expect.push(acc.rem_euclid(65536) as f32);
        }
        for mode in TIERS {
            prop_assert_eq!(run_program(&p, out, mode, 1), expect.clone(), "{:?} vs rust", mode);
        }

        // Tier agreement under every loop kind.
        for kind in [
            LoopKind::Serial,
            LoopKind::Parallel,
            LoopKind::Vectorize(4),
            LoopKind::Unroll(2),
        ] {
            let (p, out) = build(kind);
            let reference = run_program(&p, out, ExecMode::TreeWalk, 2);
            for mode in [ExecMode::Bytecode, ExecMode::Jit] {
                prop_assert_eq!(
                    run_program(&p, out, mode, 2),
                    reference.clone(),
                    "{:?} vs tree-walk under {:?}", mode, kind
                );
            }
        }
    }
}

/// Random 2-D tiramisu schedule pipelines compared against the
/// unscheduled semantics: scheduling commands never change results.
#[derive(Debug, Clone)]
struct RandSchedule {
    tile: Option<(u8, u8)>,
    interchange: bool,
    shift: i8,
    vectorize: bool,
    parallel: bool,
}

fn rand_schedule() -> impl Strategy<Value = RandSchedule> {
    (
        proptest::option::of((2u8..=5, 2u8..=5)),
        any::<bool>(),
        -2i8..=2,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(tile, interchange, shift, vectorize, parallel)| RandSchedule {
            tile,
            interchange,
            shift,
            vectorize,
            parallel,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_schedules_preserve_semantics(sc in rand_schedule()) {
        use tiramisu::{CpuOptions, Expr as E, Function};
        let n = 12i64;
        let build = |apply: bool| -> Vec<f32> {
            let mut f = Function::new("t", &["N"]);
            let i = f.var("i", 0, E::param("N"));
            let j = f.var("j", 0, E::param("N"));
            let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
            let c = f
                .computation(
                    "out",
                    &[i, j],
                    f.access(input, &[E::iter("i"), E::iter("j")]) * E::f32(3.0)
                        + E::cast_f32(E::iter("i")),
                )
                .unwrap();
            if apply {
                if let Some((t1, t2)) = sc.tile {
                    f.tile(c, "i", "j", t1 as i64, t2 as i64, ("i0", "j0", "i1", "j1"))
                        .unwrap();
                    if sc.interchange {
                        f.interchange(c, "i0", "j0").unwrap();
                    }
                    if sc.shift != 0 {
                        f.shift(c, "i1", sc.shift as i64).unwrap();
                    }
                    if sc.vectorize {
                        f.vectorize(c, "j1", 4).unwrap();
                    }
                    if sc.parallel {
                        f.parallelize(c, "i0").unwrap();
                    }
                } else {
                    if sc.interchange {
                        f.interchange(c, "i", "j").unwrap();
                    }
                    if sc.shift != 0 {
                        f.shift(c, "i", sc.shift as i64).unwrap();
                    }
                    if sc.vectorize {
                        f.vectorize(c, "j", 4).unwrap();
                    }
                    if sc.parallel {
                        f.parallelize(c, "i").unwrap();
                    }
                }
            }
            let module =
                tiramisu::compile_cpu(&f, &[("N", n)], CpuOptions::default()).unwrap();
            assert_bytecode_roundtrips(&module.program);
            let mut machine = module.machine();
            let in_buf = module.vm_buffer("in").unwrap();
            for (k, v) in machine.buffer_mut(in_buf).iter_mut().enumerate() {
                *v = (k % 13) as f32;
            }
            machine.run(&module.program).unwrap();
            machine.buffer(module.vm_buffer("out").unwrap()).to_vec()
        };
        prop_assert_eq!(build(true), build(false));
    }
}

// ---------------------------------------------------------------------------
// Lane-shape soundness: the JIT computes a vector chunk's index math once
// per *shape* (uniform / linear / varying) instead of once per lane. An
// over-eager `Linear` or `Uniform` — a `% 2^k` kept linear across a wrap,
// a base assumed aligned — shows up as a wrong element, a wrong index in
// an error, or a differing buffer against the bytecode interpreter.
// ---------------------------------------------------------------------------

/// A random index expression over the vector variable `i`, an outer loop
/// variable `o` and constants. Divisors are nonzero constants: no panics.
#[derive(Debug, Clone)]
enum LExpr {
    I,
    O,
    Const(i64),
    Add(Box<LExpr>, Box<LExpr>),
    Sub(Box<LExpr>, Box<LExpr>),
    MulC(Box<LExpr>, i64),
    RemC(Box<LExpr>, i64),
    DivC(Box<LExpr>, i64),
    MinMax(Box<LExpr>, Box<LExpr>, bool),
}

fn lexpr() -> impl Strategy<Value = LExpr> {
    let leaf = prop_oneof![
        Just(LExpr::I),
        Just(LExpr::I),
        Just(LExpr::O),
        (-40i64..=40).prop_map(LExpr::Const),
        prop_oneof![Just(8i64), Just(16), Just(32), Just(-64), Just(i64::MAX)]
            .prop_map(LExpr::Const),
    ];
    // Mostly powers of two (the linear-preserving case), plus the `% n`
    // and negative divisors that must fall back to per-lane code.
    let divisor = || {
        prop_oneof![
            Just(2i64), Just(4), Just(8), Just(8), Just(16), Just(32), Just(64),
            Just(1i64 << 40), Just(3), Just(24), Just(-8), Just(1),
        ]
    };
    leaf.prop_recursive(4, 24, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| LExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| LExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), -3i64..=8).prop_map(|(a, c)| LExpr::MulC(Box::new(a), c)),
            (inner.clone(), divisor()).prop_map(|(a, d)| LExpr::RemC(Box::new(a), d)),
            (inner.clone(), divisor()).prop_map(|(a, d)| LExpr::DivC(Box::new(a), d)),
            (inner.clone(), inner, any::<bool>())
                .prop_map(|(a, b, m)| LExpr::MinMax(Box::new(a), Box::new(b), m)),
        ]
    })
}

fn to_lvexpr(e: &LExpr, i: loopvm::Var, o: loopvm::Var) -> V {
    let bin = |a: &LExpr, b: &LExpr| (to_lvexpr(a, i, o), to_lvexpr(b, i, o));
    match e {
        LExpr::I => V::var(i),
        LExpr::O => V::var(o),
        LExpr::Const(c) => V::i64(*c),
        LExpr::Add(a, b) => {
            let (a, b) = bin(a, b);
            a + b
        }
        LExpr::Sub(a, b) => {
            let (a, b) = bin(a, b);
            a - b
        }
        LExpr::MulC(a, c) => to_lvexpr(a, i, o) * V::i64(*c),
        LExpr::RemC(a, d) => to_lvexpr(a, i, o) % V::i64(*d),
        LExpr::DivC(a, d) => to_lvexpr(a, i, o) / V::i64(*d),
        LExpr::MinMax(a, b, min) => {
            let (a, b) = bin(a, b);
            if *min {
                V::min(a, b)
            } else {
                V::max(a, b)
            }
        }
    }
}

/// How the random index reaches the input buffer.
#[derive(Debug, Clone, Copy)]
enum Wrap {
    /// `in[e % 64]`: in bounds, and linear whenever `e` provably is.
    Pow2,
    /// `in[e % 61]`: in bounds, always per-lane.
    Odd,
    /// `in[e]`: usually an out-of-bounds error whose index must agree.
    Raw,
}

const LANE_IN: usize = 64 + 8;

/// `for o in 0..3 { for i in lo..lo+n vectorize(8) { out[..] = .. } }`
/// with a contiguous store, a load through `e`, and `e`'s low bits added
/// in so every lane's value of `e` is observable even when loads agree.
fn lane_program(e: &LExpr, wrap: Wrap, lo: i64, n: i64) -> Program {
    let mut p = Program::new();
    let input = p.buffer("in", LANE_IN);
    let out = p.buffer("out", (3 * n) as usize);
    let (o, i) = (p.var("o"), p.var("i"));
    let ev = || to_lvexpr(e, i, o);
    let at = match wrap {
        Wrap::Pow2 => ev() % V::i64(64),
        Wrap::Odd => ev() % V::i64(61),
        Wrap::Raw => ev(),
    };
    let value = V::load(input, at) + V::to_f32(ev() % V::i64(4096));
    let slot = V::var(i) - V::i64(lo) + V::var(o) * V::i64(n);
    p.push(Stmt::serial(
        o,
        V::i64(0),
        V::i64(3),
        vec![Stmt::for_(
            i,
            V::i64(lo),
            V::i64(lo + n),
            LoopKind::Vectorize(8),
            vec![Stmt::store(out, slot, value)],
        )],
    ));
    p
}

fn lane_outcome(p: &Program, mode: loopvm::ExecMode) -> (String, Vec<Vec<u32>>) {
    assert_bytecode_roundtrips(p);
    let mut m = Machine::new(p);
    m.set_exec_mode(mode);
    for (k, v) in m.buffer_mut(p.nth_buffer(0)).iter_mut().enumerate() {
        *v = (k * k) as f32 + 0.25;
    }
    let outcome = match m.run(p) {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    };
    let bufs = (0..p.n_buffers())
        .map(|b| m.buffer(p.nth_buffer(b)).iter().map(|v| v.to_bits()).collect())
        .collect();
    (outcome, bufs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// JIT and bytecode agree on every buffer bit, or on the error, for
    /// random index math under random (unaligned, negative) lower bounds.
    #[test]
    fn vector_lane_shapes_are_sound(
        e in lexpr(),
        wrap in prop_oneof![Just(Wrap::Pow2), Just(Wrap::Pow2), Just(Wrap::Odd), Just(Wrap::Raw)],
        lo in prop_oneof![Just(0i64), Just(8), Just(-16), -20i64..=20],
        n in 8i64..=27,
    ) {
        let p = lane_program(&e, wrap, lo, n);
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        prop_assert!(p.compiled().unwrap().jit().is_some(), "no native code for {:?}", e);
        let reference = lane_outcome(&p, loopvm::ExecMode::Bytecode);
        let jit = lane_outcome(&p, loopvm::ExecMode::Jit);
        prop_assert_eq!(&jit, &reference, "jit vs bytecode: {:?} {:?} lo {} n {}", e, wrap, lo, n);
        let tree = lane_outcome(&p, loopvm::ExecMode::TreeWalk);
        prop_assert_eq!(&tree.0, &reference.0, "tree-walk vs bytecode: {:?}", e);
        prop_assert_eq!(&tree.1, &reference.1, "tree-walk vs bytecode: {:?}", e);
    }
}
