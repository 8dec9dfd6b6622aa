//! Property-based tests of the execution substrate: the three VM
//! execution paths (serial / parallel / vector) must agree on random
//! programs, and the compiler's generated code must agree with a direct
//! interpreter of random scheduled computations.

mod common;
#[path = "common/walker.rs"]
mod walker;

use loopvm::{ExecMode, Expr as V, LoopKind, Machine, Program, Stmt};
use proptest::prelude::*;

/// `loopvm::opt` emits strict SSA: the artifact decoder, which rejects a
/// register defined twice or read where its definition does not reach,
/// must accept the bytecode of every generated program. Called from the
/// run helpers, so every generator below proves the optimizer's output
/// passes the dominance check.
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

/// Runs `p` on the test-side walker, returning `out`.
fn walk(p: &Program, out: loopvm::BufId) -> Vec<f32> {
    let mut bufs = walker::buffers(p);
    walker::run(p, &mut bufs).unwrap();
    bufs.swap_remove(out.index())
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
    /// semantics are compared tier-vs-tier, not against serial). On one
    /// thread every tier must also agree with the walker, which runs
    /// `Parallel` loops sequentially and keeps chunk lets in their lanes.
    /// `n` runs past several 8-lane chunks, so a let carried from one
    /// chunk into the next — or into the scalar remainder — shows up.
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
        prop_assert_eq!(walk(&p, out), expect, "walker vs rust");

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
            let walked = walk(&p, out);
            for mode in TIERS {
                prop_assert_eq!(
                    run_program(&p, out, mode, 1),
                    walked.clone(),
                    "{:?} vs walker under {:?}", mode, kind
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

// ---------------------------------------------------------------------------
// Register pressure in packed chunks: a varying `f32` value lives in an XMM
// pair, and goes through its lane array only when it is spilled (more live
// values than pairs, or live across a per-lane helper call), when per-lane
// code reads or defines it, and when a store's range guard fails. Any value
// read from a stale lane array, or a pair clobbered by a call, shows up as
// a differing bit or error against the bytecode interpreter and the walker.
// ---------------------------------------------------------------------------

/// A value of a pressure chain.
#[derive(Debug, Clone, Copy)]
enum PLeaf {
    /// `in[i + off]`: contiguous, one range-guarded load into a pair.
    Contig(u8),
    /// `in[(i·m) % 61]`: a gather, assembled lane by lane.
    Gather(u8),
    /// `in[k]`: uniform across the lanes.
    Uniform(u8),
}

/// How a chain step combines its leaf `l` with the rest of the chain `e`.
#[derive(Debug, Clone, Copy)]
enum PStep {
    Add,
    Sub,
    Mul,
    Div,
    /// `sqrt(|l|) - e`
    Sqrt,
    Min,
    Max,
    Rem,
    /// `l + exp(e · 0.01)`
    Exp,
    /// `l - to_f32(to_i64(e) % 4096)`
    Cast,
    /// `select(l < e, e, l)`
    Select,
}

fn pleaf() -> impl Strategy<Value = PLeaf> {
    let contig = || (0u8..8).prop_map(PLeaf::Contig);
    prop_oneof![
        contig(),
        contig(),
        contig(),
        contig(),
        (2u8..9).prop_map(PLeaf::Gather),
        (0u8..80).prop_map(PLeaf::Uniform),
    ]
}

fn pstep() -> impl Strategy<Value = PStep> {
    use PStep::*;
    prop_oneof![
        Just(Add), Just(Sub), Just(Mul), Just(Add), Just(Mul), Just(Div), Just(Sqrt),
        Just(Min), Just(Max), Just(Rem), Just(Exp), Just(Cast), Just(Select),
    ]
}

const PRESSURE_IN: usize = 80;

/// `for i in lo..lo+n vectorize(8) { out[(i - lo)·stride] = chain }`, the
/// chain right-nested — `s₀(l₀, s₁(l₁, … l_k))` — so every leaf is
/// computed before the first step and stays live until its own: more live
/// varying values than the fourteen XMMs hold as pairs. `out` has `len`
/// elements, so a short one fails a store at some lane of a chunk or the
/// remainder; stride 1 is a range-guarded packed store, stride 2 a
/// per-lane one.
fn pressure_program(
    leaves: &[PLeaf],
    steps: &[PStep],
    (lo, n, stride): (i64, i64, i64),
    len: usize,
) -> Program {
    let mut p = Program::new();
    let input = p.buffer("in", PRESSURE_IN);
    let out = p.buffer("out", len);
    let i = p.var("i");
    let leaf = |l: PLeaf| match l {
        PLeaf::Contig(off) => V::load(input, V::var(i) + V::i64(off as i64)),
        PLeaf::Gather(m) => V::load(input, (V::var(i) * V::i64(m as i64)) % V::i64(61)),
        PLeaf::Uniform(k) => V::load(input, V::i64(k as i64)),
    };
    let mut e = leaf(leaves[steps.len()]);
    for (k, step) in steps.iter().enumerate().rev() {
        let l = leaf(leaves[k]);
        e = match step {
            PStep::Add => l + e,
            PStep::Sub => l - e,
            PStep::Mul => l * e,
            PStep::Div => l / e,
            PStep::Sqrt => V::sqrt(V::abs(l)) - e,
            PStep::Min => V::min(l, e),
            PStep::Max => V::max(e, l),
            PStep::Rem => l % e,
            PStep::Exp => l + V::Un(loopvm::UnOp::Exp, Box::new(e * V::f32(0.01))),
            PStep::Cast => l - V::to_f32(V::to_i64(e) % V::i64(4096)),
            PStep::Select => V::select(V::lt(l.clone(), e.clone()), e, l),
        };
    }
    p.push(Stmt::for_(
        i,
        V::i64(lo),
        V::i64(lo + n),
        LoopKind::Vectorize(8),
        vec![Stmt::store(out, (V::var(i) - V::i64(lo)) * V::i64(stride), e)],
    ));
    p
}

/// The outcome and every buffer bit of `p` on `mode`, or on the walker.
fn pressure_outcome(p: &Program, mode: Option<ExecMode>) -> (String, Vec<Vec<u32>>) {
    let seed = |buf: &mut [f32]| {
        for (k, v) in buf.iter_mut().enumerate() {
            *v = if k % 13 == 5 { 0.0 } else { (k * 37 % 23) as f32 * 0.37 - 3.0 };
        }
    };
    let (outcome, bufs) = match mode {
        Some(mode) => {
            assert_bytecode_roundtrips(p);
            let mut m = Machine::new(p);
            m.set_exec_mode(mode);
            seed(m.buffer_mut(p.nth_buffer(0)));
            let r = m.run(p);
            (r, (0..p.n_buffers()).map(|b| m.buffer(p.nth_buffer(b)).to_vec()).collect())
        }
        None => {
            let mut bufs = walker::buffers(p);
            seed(&mut bufs[0]);
            (walker::run(p, &mut bufs), bufs)
        }
    };
    let outcome = match outcome {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    };
    (outcome, bufs.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::diff_cases()))]

    /// Chains of 9–16 live values (seven pairs fit) with helper calls,
    /// per-lane consumers and producers, and out-of-bounds stores between
    /// a value's definition and its last use: the JIT agrees with the
    /// bytecode interpreter, the plain-lowering reference and the walker
    /// on the outcome and every buffer bit.
    #[test]
    fn packed_values_survive_pressure_calls_and_slow_paths(
        leaves in proptest::collection::vec(pleaf(), 9..=16),
        steps in proptest::collection::vec(pstep(), 15),
        lo in prop_oneof![Just(0i64), Just(1), Just(5)],
        n in 8i64..=27,
        stride in 1i64..=2,
        cut in 0usize..=10,
    ) {
        let steps = &steps[..leaves.len() - 1];
        let len = ((n * stride) as usize + 1).saturating_sub(cut * stride as usize).max(1);
        let p = pressure_program(&leaves, steps, (lo, n, stride), len);
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        prop_assert!(p.compiled().unwrap().jit().is_some(), "no native code");
        let reference = pressure_outcome(&p, Some(ExecMode::Bytecode));
        let case = format!("{leaves:?} {steps:?} lo {lo} n {n} stride {stride} len {len}");
        for mode in [Some(ExecMode::Jit), Some(ExecMode::TreeWalk), None] {
            let got = pressure_outcome(&p, mode);
            prop_assert_eq!(&got.0, &reference.0, "{:?} outcome: {}", mode, case);
            prop_assert!(got.1 == reference.1, "{:?} buffers: {}", mode, case);
        }
    }
}

// ---------------------------------------------------------------------------
// Bounds proofs. The JIT emits a load or store with no guard when the loop
// bounds prove its index in range, here only relationally: a tile
// remainder `k < min(T, n - T·t)`, a `max` lower bound, the arm of a live
// `If`, a dead `If` arm. Each shape also comes off by one — a widened loop
// bound, an index shifted by one — so some access leaves its buffer by
// exactly one element on the first or last iteration, and the loop-carried
// `let`, the `let` under an `If` and the `let` in a loop that may not run
// give slots whose facts must be forgotten or joined. Whatever the prover decides, the JIT must agree with
// the fully checked plain lowering on the outcome and every buffer bit.
// ---------------------------------------------------------------------------

/// Where the relational access sits.
#[derive(Debug, Clone, Copy)]
enum RelShape {
    /// `for t { for k in 0..min(T, n - T·t) { j = T·t + k } }`.
    Tile,
    /// `for t { for k in max(0, s - T·t)..min(T, n - T·t) { j = T·t + k - s } }`.
    Shifted,
    /// `for j { if j < m { out[j] } else { out[j - m] = in[n - 1 - j] } }`.
    Branch,
    /// A tile nest whose `if t < tiles` is always true; the dead `else`
    /// stores far out of range.
    DeadArm,
    /// `let s = 0; for i { out[s] = in[i]; let s = s + 1 }`.
    Carried,
    /// `for j { let x = n + 3; if j < m { let x = j }; out[x] = in[j] }`.
    LetUnderIf,
    /// `for t in 0..2 { let x = s; for k in 0..t·n { let x = k }; out[x] = in[x] }`:
    /// the inner loop runs no iteration when `t = 0`, and `s` may be `n`.
    AfterLoop,
}

#[derive(Debug, Clone, Copy)]
struct RelCase {
    shape: RelShape,
    n: i64,
    tile: i64,
    /// The shift of `Shifted`, the split point `m` of `Branch`/`LetUnderIf`.
    s: i64,
    /// Added to the store's and the load's index.
    off: (i64, i64),
    /// Widens the inner loop by one iteration (the lower bound for
    /// `Shifted`, the upper one elsewhere).
    bump: i64,
    vector: bool,
    parallel: bool,
}

impl RelCase {
    /// Every access is in range by the loop bounds and conditions, so
    /// every one must be proven. (A loop-carried slot has no fact, and the
    /// `let` under an `If` or before a loop may leave its slot out of range.)
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn in_range(&self) -> bool {
        self.off == (0, 0)
            && self.bump == 0
            && !matches!(self.shape, RelShape::Carried | RelShape::LetUnderIf | RelShape::AfterLoop)
    }
}

fn rel_case() -> impl Strategy<Value = RelCase> {
    let shape = prop_oneof![
        Just(RelShape::Tile),
        Just(RelShape::Shifted),
        Just(RelShape::Branch),
        Just(RelShape::DeadArm),
        Just(RelShape::Carried),
        Just(RelShape::LetUnderIf),
        Just(RelShape::AfterLoop),
    ];
    let off = prop_oneof![Just(0i64), Just(0), Just(0), Just(-1), Just(1)];
    let bump = prop_oneof![Just(0i64), Just(0), Just(1)];
    (
        (shape, 1i64..=40, 1i64..=9, 0i64..=40),
        ((off.clone(), off), bump, any::<bool>(), any::<bool>()),
    )
        .prop_map(|((shape, n, tile, s), (off, bump, vector, parallel))| RelCase {
            shape,
            n,
            tile,
            s: match shape {
                RelShape::Shifted => s % 4,
                _ => s % (n + 1),
            },
            off,
            bump,
            vector,
            parallel,
        })
}

fn rel_program(c: &RelCase) -> Program {
    let mut p = Program::new();
    let input = p.buffer("in", c.n as usize);
    let out = p.buffer("out", c.n as usize);
    let (t, k, x) = (p.var("t"), p.var("k"), p.var("x"));
    let (n, tile) = (V::i64(c.n), V::i64(c.tile));
    let inner = if c.vector { LoopKind::Vectorize(8) } else { LoopKind::Serial };
    let outer = if c.parallel { LoopKind::Parallel } else { LoopKind::Serial };
    let access = |j: V| {
        let value = V::load(input, j.clone() + V::i64(c.off.1)) * V::f32(2.0) + V::f32(1.0);
        Stmt::store(out, j + V::i64(c.off.0), value)
    };
    let tiles = V::i64((c.n + c.tile - 1) / c.tile);
    let base = || V::var(t) * tile.clone();
    let tile_nest = |body: Vec<Stmt>| {
        let upper = V::min(tile.clone(), n.clone() - base()) + V::i64(c.bump);
        vec![Stmt::for_(k, V::i64(0), upper, inner, body)]
    };
    let body = match c.shape {
        RelShape::Tile => vec![Stmt::for_(t, V::i64(0), tiles, outer, tile_nest(vec![access(base() + V::var(k))]))],
        RelShape::Shifted => {
            let lower = V::max(V::i64(0), V::i64(c.s) - base()) - V::i64(c.bump);
            let upper = V::min(tile.clone(), n.clone() - base());
            let j = base() + V::var(k) - V::i64(c.s);
            vec![Stmt::for_(t, V::i64(0), tiles, outer, vec![Stmt::for_(k, lower, upper, inner, vec![access(j)])])]
        }
        RelShape::Branch => {
            let j = || V::var(k);
            let far = V::load(input, n.clone() - V::i64(1) - j() + V::i64(c.off.1));
            let split = Stmt::If {
                cond: V::lt(j(), V::i64(c.s)),
                then: vec![access(j())],
                else_: vec![Stmt::store(out, j() - V::i64(c.s) + V::i64(c.off.0), far)],
            };
            // Serial: the two arms write overlapping elements.
            vec![Stmt::serial(k, V::i64(0), n.clone() + V::i64(c.bump), vec![split])]
        }
        RelShape::DeadArm => {
            let arm = Stmt::If {
                cond: V::lt(V::var(t), tiles.clone()),
                then: tile_nest(vec![access(base() + V::var(k))]),
                else_: vec![Stmt::store(out, n.clone() + V::i64(7), V::f32(0.0))],
            };
            vec![Stmt::for_(t, V::i64(0), tiles, outer, vec![arm])]
        }
        RelShape::Carried => vec![
            Stmt::let_(x, V::i64(0)),
            Stmt::for_(
                k,
                V::i64(0),
                n.clone() + V::i64(c.bump),
                if c.vector { LoopKind::Unroll(4) } else { LoopKind::Serial },
                vec![access(V::var(x)), Stmt::let_(x, V::var(x) + V::i64(1))],
            ),
        ],
        RelShape::LetUnderIf => {
            let pick = Stmt::if_then(V::lt(V::var(k), V::i64(c.s)), vec![Stmt::let_(x, V::var(k))]);
            let store = Stmt::store(out, V::var(x) + V::i64(c.off.0), V::load(input, V::var(k)));
            vec![Stmt::for_(
                k,
                V::i64(0),
                n.clone() + V::i64(c.bump),
                LoopKind::Serial,
                vec![Stmt::let_(x, n.clone() + V::i64(3)), pick, store],
            )]
        }
        RelShape::AfterLoop => {
            let runs = V::var(t) * (n.clone() + V::i64(c.bump));
            let last = Stmt::serial(k, V::i64(0), runs, vec![Stmt::let_(x, V::var(k))]);
            let body = vec![Stmt::let_(x, V::i64(c.s)), last, access(V::var(x))];
            vec![Stmt::serial(t, V::i64(0), V::i64(2), body)]
        }
    };
    p.set_body(body);
    p
}

/// The outcome and every buffer bit of `p` on `mode`.
fn rel_outcome(p: &Program, mode: ExecMode) -> (String, Vec<Vec<u32>>) {
    let mut m = Machine::new(p);
    m.set_threads(2);
    m.set_exec_mode(mode);
    for (b, seed) in [(0, 3u64), (1, 7)] {
        for (i, v) in m.buffer_mut(p.nth_buffer(b)).iter_mut().enumerate() {
            *v = ((i as u64 * 2654435761 + seed) % 1000) as f32 * 0.125;
        }
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
    #![proptest_config(ProptestConfig::with_cases(common::diff_cases()))]

    /// Native code with proven accesses unguarded agrees with the fully
    /// checked plain lowering on the outcome, the error payload and every
    /// buffer bit; in-range cases are proven whole.
    #[test]
    fn proven_accesses_agree_with_the_checked_lowering(c in rel_case()) {
        let p = rel_program(&c);
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let code = p.compiled().unwrap();
            let jit = code.jit();
            prop_assert!(jit.is_some(), "no native code: {:?}", c);
            if c.in_range() {
                prop_assert_eq!(jit.unwrap().footprint().kept_guards, 0, "unproven: {:?}\n{}", c, p.pretty());
            }
        }
        let reference = rel_outcome(&p, ExecMode::TreeWalk);
        let jit = rel_outcome(&p, ExecMode::Jit);
        prop_assert_eq!(&jit.0, &reference.0, "outcome: {:?}\n{}", c, p.pretty());
        prop_assert!(jit.1 == reference.1, "buffers: {:?}\n{}", c, p.pretty());
    }
}

// ---------------------------------------------------------------------------
// Steady chunks: a vector chunk whose leading `min`/`max` clamps a linear
// index against a uniform bound runs a steady copy where every such clamp
// is tested on lane 0 and lane 7 and restarts the general copy when it may
// bind. Bounds here bind at every lane position, the clamped index may wrap
// near either end of `i64`, and a clamp can follow a store (its bound is
// loaded, so the optimizer leaves it in the statement): a wrong test or a
// restart that replays a store shows up as a differing bit or error.
// ---------------------------------------------------------------------------

/// Where a clamp's bound comes from.
#[derive(Debug, Clone, Copy)]
enum BoundKind {
    /// A constant, in the chunk preamble.
    Const,
    /// The outer loop's variable plus a constant, in the preamble.
    Outer,
    /// A loaded zero plus a constant, in the statement's code.
    Loaded,
}

#[derive(Debug, Clone, Copy)]
struct SteadyClamp {
    min: bool,
    /// `min(u, x)` rather than `min(x, u)`.
    bound_first: bool,
    kind: BoundKind,
    /// The bound is the index at iteration `lo + at`, plus `nudge`.
    at: i64,
    nudge: i64,
}

#[derive(Debug, Clone)]
struct SteadyCase {
    /// The clamped index is `i·s + origin` (wrapping).
    s: i64,
    origin: i64,
    lo: i64,
    /// Iterations (`lo > hi` when negative).
    n: i64,
    /// Innermost first.
    clamps: Vec<SteadyClamp>,
    /// A store before the clamps' statement: `acc[i − lo] += 1`.
    store_first: bool,
    /// Added to the clamped index's offset from `origin` to address `in`
    /// and `hit` (below 160 some lanes fall out of bounds).
    shift: i64,
}

/// The length of `in` and `hit`.
const STEADY_LEN: usize = 400;

fn steady_case() -> impl Strategy<Value = SteadyCase> {
    let stride = prop_oneof![Just(1i64), Just(-1), Just(2), Just(-2), Just(3), Just(-3)];
    let origin = prop_oneof![
        Just(0i64),
        Just(0),
        (0i64..24).prop_map(|k| i64::MAX - k),
        (0i64..24).prop_map(|k| i64::MIN + k),
    ];
    let kind = prop_oneof![Just(BoundKind::Const), Just(BoundKind::Outer), Just(BoundKind::Loaded)];
    let clamp = (any::<bool>(), any::<bool>(), kind, -2i64..=32, -1i64..=1).prop_map(
        |(min, bound_first, kind, at, nudge)| SteadyClamp { min, bound_first, kind, at, nudge },
    );
    (
        (stride, origin),
        -20i64..=20,
        prop_oneof![Just(-3i64), 0i64..=30, 8i64..=30],
        proptest::collection::vec(clamp, 1..=3),
        any::<bool>(),
        prop_oneof![Just(200i64), Just(200), Just(150)],
    )
        .prop_map(|((s, origin), lo, n, clamps, store_first, shift)| SteadyCase {
            s,
            origin,
            lo,
            n,
            clamps,
            store_first,
            shift,
        })
}

/// `for o in 0..2 { for i in lo..lo+n vectorize(8) { [acc[i−lo] += 1;]
/// out[i−lo] = in[r − origin + shift] + f32(r − origin);
/// hit[r − origin + shift] = f32(r) } }` with `r` the clamp chain of
/// `i·s + origin`.
fn steady_program(c: &SteadyCase) -> Program {
    let mut p = Program::new();
    let input = p.buffer("in", STEADY_LEN);
    let zeros = p.buffer("zeros", 2);
    let acc = p.buffer("acc", c.n.max(0) as usize);
    let out = p.buffer("out", c.n.max(0) as usize);
    let hit = p.buffer("hit", STEADY_LEN);
    let (o, i) = (p.var("o"), p.var("i"));
    let index = |at: i64| at.wrapping_mul(c.s).wrapping_add(c.origin);
    let mut r = V::var(i) * V::i64(c.s) + V::i64(c.origin);
    for k in &c.clamps {
        let value = index(c.lo + k.at).wrapping_add(k.nudge);
        let u = match k.kind {
            BoundKind::Const => V::i64(value),
            BoundKind::Outer => V::var(o) + V::i64(value),
            BoundKind::Loaded => V::to_i64(V::load(zeros, V::var(o))) + V::i64(value),
        };
        let (a, b) = if k.bound_first { (u, r) } else { (r, u) };
        r = if k.min { V::min(a, b) } else { V::max(a, b) };
    }
    let off = || r.clone() - V::i64(c.origin);
    let slot = || V::var(i) - V::i64(c.lo);
    let mut body = Vec::new();
    if c.store_first {
        body.push(Stmt::store(acc, slot(), V::load(acc, slot()) + V::f32(1.0)));
    }
    body.push(Stmt::store(
        out,
        slot(),
        V::load(input, off() + V::i64(c.shift)) + V::to_f32(off()),
    ));
    body.push(Stmt::store(hit, off() + V::i64(c.shift), V::to_f32(r.clone())));
    p.push(Stmt::serial(
        o,
        V::i64(0),
        V::i64(2),
        vec![Stmt::for_(i, V::i64(c.lo), V::i64(c.lo + c.n), LoopKind::Vectorize(8), body)],
    ));
    p
}

/// The seed of buffer `b`'s element `k`.
fn steady_seed(b: usize, k: usize) -> f32 {
    match b {
        0 => (k * 7 % 1000) as f32 + 0.5,
        1 => 0.0,
        _ => -1.0,
    }
}

fn steady_outcome(p: &Program, mode: Option<ExecMode>) -> (String, Vec<Vec<u32>>) {
    let (r, bufs) = match mode {
        Some(mode) => {
            let mut m = Machine::new(p);
            m.set_exec_mode(mode);
            for b in 0..p.n_buffers() {
                for (k, v) in m.buffer_mut(p.nth_buffer(b)).iter_mut().enumerate() {
                    *v = steady_seed(b, k);
                }
            }
            let r = m.run(p);
            (r, (0..p.n_buffers()).map(|b| m.buffer(p.nth_buffer(b)).to_vec()).collect())
        }
        None => {
            let mut bufs = walker::buffers(p);
            for (b, buf) in bufs.iter_mut().enumerate() {
                for (k, v) in buf.iter_mut().enumerate() {
                    *v = steady_seed(b, k);
                }
            }
            (walker::run(p, &mut bufs), bufs)
        }
    };
    let outcome = match r {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    };
    (outcome, bufs.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::diff_cases()))]

    /// Native code with steady chunk copies agrees with the plain lowering
    /// and the walker on the outcome, the error payload and every buffer
    /// bit; a chunk whose first clamp precedes every store has a steady
    /// copy.
    #[test]
    fn steady_chunks_agree_with_the_checked_lowering(c in steady_case()) {
        let p = steady_program(&c);
        let reference = steady_outcome(&p, Some(ExecMode::TreeWalk));
        let walked = steady_outcome(&p, None);
        prop_assert!(walked == reference, "walker vs plain lowering: {:?}\n{}", c, p.pretty());
        let jit = steady_outcome(&p, Some(ExecMode::Jit));
        prop_assert_eq!(&jit.0, &reference.0, "outcome: {:?}\n{}", c, p.pretty());
        prop_assert!(jit.1 == reference.1, "buffers: {:?}\n{}", c, p.pretty());
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let code = p.compiled().unwrap();
            let jit = code.jit();
            prop_assert!(jit.is_some(), "no native code: {:?}", c);
            let leading = !(c.store_first && matches!(c.clamps[0].kind, BoundKind::Loaded));
            prop_assert_eq!(jit.unwrap().footprint().steady_chunks > 0, leading, "{:?}", c);
        }
    }
}

/// A lane group runs only while `v + 8 ≤ hi` holds without wrapping: near
/// `i64::MAX` the wrapped sum is below `hi`, and the loop used to run a
/// whole chunk past its end on every tier. Both ends of the range, against
/// the serial loop and the walker.
#[test]
fn vectorized_loops_stop_at_both_ends_of_i64() {
    let ranges = [
        (i64::MAX - 3, i64::MAX),
        (i64::MAX - 7, i64::MAX),
        (i64::MAX - 8, i64::MAX),
        (i64::MAX - 20, i64::MAX - 1),
        (i64::MIN, i64::MIN + 3),
        (i64::MIN, i64::MIN + 20),
    ];
    for (lo, hi) in ranges {
        let len = (hi - lo) as usize;
        let program = |kind: LoopKind| {
            let mut p = Program::new();
            let out = p.buffer("out", len);
            let i = p.var("i");
            let at = V::var(i) - V::i64(lo);
            let body = vec![Stmt::store(out, at.clone(), V::to_f32(at) + V::f32(1.0))];
            p.push(Stmt::for_(i, V::i64(lo), V::i64(hi), kind, body));
            (p, out)
        };
        let (serial, out) = program(LoopKind::Serial);
        let want = walk(&serial, out);
        assert_eq!(want, (1..=len).map(|k| k as f32).collect::<Vec<_>>());
        let (p, out) = program(LoopKind::Vectorize(8));
        assert_eq!(walk(&p, out), want, "walker, {lo}..{hi}");
        for mode in TIERS {
            assert_eq!(run_program(&p, out, mode, 1), want, "{mode:?}, {lo}..{hi}");
        }
    }
}

/// One step of a narrow-lane chain `y = step(y)`.
#[derive(Debug, Clone, Copy)]
enum NStep {
    AddC(i64),
    MulC(i64),
    MinC(i64),
    MaxC(i64),
    /// `c − y`.
    SubFrom(i64),
    /// `y + i` (the loop variable: linear).
    AddI,
    /// `max(y, i)`.
    MaxI,
    /// `y + x₂`, the second cast.
    AddX2,
    /// `min(y, k) + i32::MAX`: reaches `i32::MAX + k` (`k` ∈ {0, 1}),
    /// the last value a narrow register may take, or the first it may not.
    UpTo(i64),
    /// `max(y, k) + i32::MIN`, the same at the other end (`k` ∈ {0, −1}).
    DownTo(i64),
}

#[derive(Debug, Clone)]
struct NarrowCase {
    /// `x = f2i(cf·f32(i) + co)` and `x₂ = f2i(cf2·f32(i) + co2)`.
    cf: f32,
    co: f32,
    cf2: f32,
    co2: f32,
    lo: i64,
    /// Iterations (`lo > hi` when negative).
    n: i64,
    steps: Vec<NStep>,
    /// The gather reads `in[y]` unclamped, a guarded access that may fail
    /// at any lane.
    raw: bool,
}

/// The length of `in` and `hit`.
const NARROW_LEN: usize = 64;

fn narrow_case() -> impl Strategy<Value = NarrowCase> {
    // Slopes and offsets that keep the casts well inside `i32`, put them
    // across ±2^31, or far outside it.
    let cf = prop_oneof![
        Just(0.5f32),
        Just(-0.75),
        Just(1.5),
        Just(3.0),
        Just(1.0e6),
        Just(-2.5e7),
        Just(1.5e8),
        Just(4.0e8),
    ];
    let co = prop_oneof![
        Just(0.0f32),
        Just(0.5),
        Just(-3.25),
        Just(20.5),
        Just(1000.5),
        Just(2_147_483_520.0),
        Just(-2_147_483_648.0),
        Just(2_147_483_648.0),
        Just(3.0e9),
        Just(-3.0e9),
        Just(1.0e12),
    ];
    let c = prop_oneof![
        Just(0i64),
        Just(1),
        Just(-1),
        Just(5),
        Just(47),
        Just(-100),
        Just(i32::MAX as i64),
        Just(i32::MIN as i64),
    ];
    let step = prop_oneof![
        c.clone().prop_map(NStep::AddC),
        prop_oneof![Just(3i64), Just(-2), Just(48), Just(1 << 20)].prop_map(NStep::MulC),
        c.clone().prop_map(NStep::MinC),
        c.clone().prop_map(NStep::MaxC),
        c.prop_map(NStep::SubFrom),
        Just(NStep::AddI),
        Just(NStep::MaxI),
        Just(NStep::AddX2),
        prop_oneof![Just(0i64), Just(1)].prop_map(NStep::UpTo),
        prop_oneof![Just(0i64), Just(-1)].prop_map(NStep::DownTo),
    ];
    (
        (cf.clone(), co.clone(), cf, co),
        -20i64..=20,
        prop_oneof![Just(-3i64), 0i64..=30, 8i64..=30],
        proptest::collection::vec(step, 0..=4),
        any::<bool>(),
    )
        .prop_map(|((cf, co, cf2, co2), lo, n, steps, raw)| NarrowCase {
            cf,
            co,
            cf2,
            co2,
            lo,
            n,
            steps,
            raw,
        })
}

/// `for o in 0..2 { for i in lo..lo+n vectorize(8) { out[i−lo] = f32(y);
/// got[i−lo] = in[clamp(y, 0, 63)] (or in[y]); hit[clamp(y·3 − o, 0, 63)]
/// = f32(i) } }` with `y` the chain of steps applied to `x`.
fn narrow_program(c: &NarrowCase) -> Program {
    let mut p = Program::new();
    let input = p.buffer("in", NARROW_LEN);
    let _zeros = p.buffer("zeros", 2);
    let len = c.n.max(0) as usize;
    let out = p.buffer("out", len);
    let got = p.buffer("got", len);
    let hit = p.buffer("hit", NARROW_LEN);
    let (o, i) = (p.var("o"), p.var("i"));
    let cast = |f: f32, k: f32| V::to_i64(V::f32(f) * V::to_f32(V::var(i)) + V::f32(k));
    let mut y = cast(c.cf, c.co);
    for s in &c.steps {
        y = match *s {
            NStep::AddC(k) => y + V::i64(k),
            NStep::MulC(k) => y * V::i64(k),
            NStep::MinC(k) => V::min(y, V::i64(k)),
            NStep::MaxC(k) => V::max(V::i64(k), y),
            NStep::SubFrom(k) => V::i64(k) - y,
            NStep::AddI => y + V::var(i),
            NStep::MaxI => V::max(y, V::var(i)),
            NStep::AddX2 => y + cast(c.cf2, c.co2),
            NStep::UpTo(k) => V::min(y, V::i64(k)) + V::i64(i32::MAX as i64),
            NStep::DownTo(k) => V::max(y, V::i64(k)) + V::i64(i32::MIN as i64),
        };
    }
    let clamp = |e: V| V::min(V::max(e, V::i64(0)), V::i64(NARROW_LEN as i64 - 1));
    let at = if c.raw { y.clone() } else { clamp(y.clone()) };
    let slot = || V::var(i) - V::i64(c.lo);
    let body = vec![
        Stmt::store(out, slot(), V::to_f32(y.clone())),
        Stmt::store(got, slot(), V::load(input, at)),
        Stmt::store(hit, clamp(y * V::i64(3) - V::var(o)), V::to_f32(V::var(i))),
    ];
    p.push(Stmt::serial(
        o,
        V::i64(0),
        V::i64(2),
        vec![Stmt::for_(i, V::i64(c.lo), V::i64(c.lo + c.n), LoopKind::Vectorize(8), body)],
    ));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::diff_cases()))]

    /// Chunks whose `f2i` index chains run on packed dwords agree with the
    /// plain lowering and the walker on the outcome, the error payload and
    /// every buffer bit: casts on both sides of ±2^31, clamps, `+ c` that
    /// wraps in `i32` but not in `i64` (by one at either end), `× c`,
    /// linear and second-cast operands, gathers and scatters, `i2f` back.
    /// A cast the intervals put well inside `i32` is narrow.
    #[test]
    fn narrow_lanes_agree_with_the_checked_lowering(c in narrow_case()) {
        let p = narrow_program(&c);
        let reference = steady_outcome(&p, Some(ExecMode::TreeWalk));
        let walked = steady_outcome(&p, None);
        prop_assert!(walked == reference, "walker vs plain lowering: {:?}\n{}", c, p.pretty());
        let jit = steady_outcome(&p, Some(ExecMode::Jit));
        prop_assert_eq!(&jit.0, &reference.0, "outcome: {:?}\n{}", c, p.pretty());
        prop_assert!(jit.1 == reference.1, "buffers: {:?}\n{}", c, p.pretty());
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let code = p.compiled().unwrap();
            prop_assert!(code.jit().is_some(), "no native code: {:?}", c);
            let reach = |f: f32, k: f32| f.abs() * 50.0 + k.abs();
            if c.n >= 8 && reach(c.cf, c.co) < 1.0e9 {
                let listing = loopvm::jit::listing(code.bytecode()).unwrap();
                prop_assert!(listing.contains("cvttps2dq"), "a wide cast: {:?}", c);
            }
        }
    }
}

/// Constants at the edges of `i32` and a few beyond: the two-address code
/// takes an operand that fits `i32` as an immediate, and must not take
/// one that does not.
const LEAN_K: [i64; 10] = [
    i32::MIN as i64,
    i32::MAX as i64,
    1 << 31,
    -(1 << 31) - 1,
    -1,
    0,
    3,
    -7,
    1 << 40,
    i64::MIN,
];

/// An operand of a [`LeanStep`]: an earlier value (counted back from the
/// newest), a constant of [`LEAN_K`], or the nest's base value.
#[derive(Debug, Clone, Copy)]
enum LeanOpnd {
    Back(usize),
    K(usize),
    X,
}

/// One integer operation of a lean-scaffolding chain.
#[derive(Debug, Clone, Copy)]
enum LeanOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    /// `/ 2^k` and `% 2^k`.
    DivP(u32),
    RemP(u32),
}

#[derive(Debug, Clone)]
struct LeanStep {
    op: LeanOp,
    a: LeanOpnd,
    b: LeanOpnd,
    /// The value is stored; otherwise it dies at its last operand use.
    keep: bool,
}

/// A nest of `depth` serial loops (the inner three of two iterations, the
/// others of one, every counter read in the innermost body), around an
/// integer chain, an optional `let` read by a nested `Parallel` body, and
/// a lane-grouped loop of `n` constant iterations from `lo`.
#[derive(Debug, Clone)]
struct LeanCase {
    depth: usize,
    steps: Vec<LeanStep>,
    n: i64,
    lo: i64,
    par: bool,
}

fn lean_case() -> impl Strategy<Value = LeanCase> {
    let opnd = prop_oneof![
        (0usize..4).prop_map(LeanOpnd::Back),
        (0usize..2).prop_map(LeanOpnd::Back),
        (0..LEAN_K.len()).prop_map(LeanOpnd::K),
        Just(LeanOpnd::X),
    ];
    let op = prop_oneof![
        Just(LeanOp::Add),
        Just(LeanOp::Sub),
        Just(LeanOp::Sub),
        Just(LeanOp::Mul),
        Just(LeanOp::Min),
        Just(LeanOp::Max),
        prop_oneof![Just(1u32), Just(5), Just(31), Just(32), Just(40)].prop_map(LeanOp::DivP),
        prop_oneof![Just(1u32), Just(5), Just(31), Just(32), Just(40)].prop_map(LeanOp::RemP),
    ];
    let step = (op, opnd.clone(), opnd, any::<bool>())
        .prop_map(|(op, a, b, keep)| LeanStep { op, a, b, keep });
    let n = prop_oneof![Just(0i64), Just(1), Just(7), Just(8), Just(9), Just(16), Just(17)];
    // The lower bound: small, negative, or so that `lo + n` is within
    // 0..=5 of `i64::MAX`.
    let lo = prop_oneof![-20i64..=20, Just(-9), (0i64..=5).prop_map(|d| -d - 1)];
    let steps = proptest::collection::vec(step, 0..=8);
    (prop_oneof![1usize..=3, Just(10)], steps, n, lo, any::<bool>())
        .prop_map(|(depth, steps, n, lo, par)| LeanCase { depth, steps, n, lo, par })
}

fn lean_program(c: &LeanCase) -> Program {
    // A negative `lo` selector below −1 means "near `i64::MAX`".
    let lo = if c.lo < -1 && c.lo >= -6 { i64::MAX - c.n + c.lo + 1 } else { c.lo };
    let mut p = Program::new();
    let cells = 8usize;
    let n_vals = c.steps.len() + 1;
    let out = p.buffer("out", cells * n_vals * 4);
    let lanes = p.buffer("lanes", cells * c.n.max(1) as usize * 4);
    let par = p.buffer("par", cells * 3 * 4);
    let after = p.buffer("after", cells * 4);
    let vars: Vec<loopvm::Var> = (0..c.depth).map(|k| p.var(&format!("d{k}"))).collect();
    let (j, q, t) = (p.var("j"), p.var("q"), p.var("t"));
    // Loop `k` runs from `3k + 1`; the inner three twice, the others once.
    let first = |k: usize| 3 * k as i64 + 1;
    let inner = c.depth.saturating_sub(3);
    let cell = (inner..c.depth).fold(V::i64(0), |acc, k| {
        acc + (V::var(vars[k]) - V::i64(first(k))) * V::i64(1 << (k - inner))
    });
    // Reads every counter, the spilled outer ones included.
    let x = (vars.iter().enumerate())
        .fold(V::i64(0), |acc, (k, v)| acc + V::var(*v) * V::i64(k as i64 + 1));
    // An `i64` exactly, as four 16-bit pieces.
    let pieces = |buf: loopvm::BufId, at: V, e: V| -> Vec<Stmt> {
        (0..4i64)
            .map(|c| {
                let piece = (e.clone() / V::i64(1 << (16 * c))) % V::i64(65536);
                Stmt::store(buf, at.clone() * V::i64(4) + V::i64(c), V::to_f32(piece))
            })
            .collect()
    };
    let mut vals = vec![x.clone()];
    for s in &c.steps {
        let pick = |o: LeanOpnd| match o {
            LeanOpnd::Back(b) => vals[vals.len() - 1 - b.min(vals.len() - 1)].clone(),
            LeanOpnd::K(k) => V::i64(LEAN_K[k]),
            LeanOpnd::X => x.clone(),
        };
        let (a, b) = (pick(s.a), pick(s.b));
        vals.push(match s.op {
            LeanOp::Add => a + b,
            LeanOp::Sub => a - b,
            LeanOp::Mul => a * b,
            LeanOp::Min => V::min(a, b),
            LeanOp::Max => V::max(a, b),
            LeanOp::DivP(k) => a / V::i64(1 << k),
            LeanOp::RemP(k) => a % V::i64(1 << k),
        });
    }
    let mut body = Vec::new();
    for (k, v) in vals.iter().enumerate() {
        if k + 1 == vals.len() || c.steps[k.saturating_sub(1)].keep {
            let at = cell.clone() * V::i64(n_vals as i64) + V::i64(k as i64);
            body.extend(pieces(out, at, v.clone()));
        }
    }
    let slot = cell.clone() * V::i64(c.n.max(1)) + (V::var(j) - V::i64(lo));
    body.push(Stmt::for_(
        j,
        V::i64(lo),
        V::i64(lo + c.n),
        LoopKind::Vectorize(8),
        pieces(lanes, slot, V::var(j) + x.clone()),
    ));
    if c.par {
        // The body of the `Parallel` loop is a native function of its own.
        // It reads through the frame `j`, after its loop (the last value
        // its remainder wrote), and `t`, which the `let` after it sets in
        // the iteration before; the innermost variable is hoisted out of
        // it into a pinned register.
        let last = V::var(vars[c.depth - 1]);
        let value = V::var(t) + V::var(q) * last + V::var(j);
        let at = cell.clone() * V::i64(3) + V::var(q);
        body.push(Stmt::for_(q, V::i64(0), V::i64(3), LoopKind::Parallel, pieces(par, at, value)));
        body.push(Stmt::let_(t, x.clone() * V::i64(5) + V::i64(LEAN_K[1])));
    }
    for k in (0..c.depth).rev() {
        let trips = if k >= inner { 2 } else { 1 };
        body = vec![Stmt::serial(vars[k], V::i64(first(k)), V::i64(first(k) + trips), body)];
        if k == c.depth - 1 {
            // After their loops, the innermost variable and the lane-grouped
            // one are read from the frame: the last value a loop head (a
            // remainder's, for `j`) wrote there.
            let last = V::var(vars[k]) * V::i64(1000) + V::var(j);
            body.extend(pieces(after, cell.clone(), last));
        }
    }
    p.set_body(body);
    p
}

/// [`steady_outcome`] on two threads, so the `Parallel` body runs on
/// workers with copies of the frame.
fn lean_outcome(p: &Program, mode: Option<ExecMode>) -> (String, Vec<Vec<u32>>) {
    let (r, bufs) = match mode {
        Some(mode) => {
            let mut m = Machine::new(p);
            m.set_threads(2);
            m.set_exec_mode(mode);
            let r = m.run(p);
            (r, (0..p.n_buffers()).map(|b| m.buffer(p.nth_buffer(b)).to_vec()).collect())
        }
        None => {
            let mut bufs = walker::buffers(p);
            (walker::run(p, &mut bufs), bufs)
        }
    };
    let outcome = match r {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    };
    (outcome, bufs.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::diff_cases()))]

    /// Lean loop scaffolding agrees with the plain lowering and the walker
    /// on the outcome and every buffer bit: two-address integer code with
    /// constants at the `i32` edges on either side, `a − b` where `b` dies
    /// (so the result may take `b`'s register), `/ 2^k` and `% 2^k` of
    /// negative values, spilled operands and spilled counters (ten-deep
    /// nests), lane-grouped loops of 0, 1, 7, 8, 9, 16 and 17 constant
    /// iterations from negative bounds and up to `i64::MAX`, a nested
    /// `Parallel` body that reads a loop variable and a `let` variable
    /// through the frame, and loop variables read from the frame after
    /// their loops.
    #[test]
    fn lean_scaffolding_agrees_with_the_checked_lowering(c in lean_case()) {
        let p = lean_program(&c);
        let reference = lean_outcome(&p, Some(ExecMode::TreeWalk));
        let walked = lean_outcome(&p, None);
        prop_assert!(walked == reference, "walker vs plain lowering: {:?}\n{}", c, p.pretty());
        let jit = lean_outcome(&p, Some(ExecMode::Jit));
        prop_assert_eq!(&jit.0, &reference.0, "outcome: {:?}\n{}", c, p.pretty());
        prop_assert!(jit.1 == reference.1, "buffers: {:?}\n{}", c, p.pretty());
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        prop_assert!(p.compiled().unwrap().jit().is_some(), "no native code: {:?}", c);
    }
}

// ---------------------------------------------------------------------------
// Loop invariants in native code. A native function loads the data pointer
// of every buffer it accesses, and every pinned value an enclosing
// function defined, once at its entry; the scan keeps each in a register
// or leaves it where the context keeps it. Here a `Parallel` body reads a
// pinned `i64` `p` and a pinned `f32` `q`, which the enclosing serial loop
// computes, in an inner loop that touches few buffers or more than the
// eleven allocatable GPRs hold, so some data pointers stay in the buffer
// table, and every store is guarded by a shift `sh` the bounds do not
// know, so a shifted row leaves its buffer and the cold paths run. The
// upper bound `rows` has no fact either, so on two and three threads
// every dispatch reaches the crew, whose workers run on copies of the pin
// arrays. On every thread count, the JIT agrees with the interpreter and
// the plain lowering on the outcome and every buffer bit.
// ---------------------------------------------------------------------------

const INV_IN: i64 = 64;

#[derive(Debug, Clone, Copy)]
struct InvCase {
    n_in: usize,
    n_out: usize,
    rows: i64,
    m: i64,
    vector: bool,
    sh: i64,
    k: i64,
}

fn inv_case(
    n_in: std::ops::RangeInclusive<usize>,
    n_out: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = InvCase> {
    let sh = prop_oneof![Just(0i64), Just(0), Just(1), Just(7)];
    ((n_in, n_out, 0i64..=5), (3i64..=20, any::<bool>(), sh, -40i64..=40)).prop_map(
        |((n_in, n_out, rows), (m, vector, sh, k))| InvCase { n_in, n_out, rows, m, vector, sh, k },
    )
}

/// `for t in 0..2 { for i in 0..rows parallel { for j in 0..m {
/// out_o[i·m + j + sh] = in_a[j + (i + p) % 8] · q + in_b[32 + j + (2p + o) % 8]
/// } } }` for each output `o`, with `p = k − 3t` (a subtraction whose
/// result may take its right operand's register) and `q = t/2 + k/4`
/// computed in the serial loop; the variables `rows` and `sh` are bound.
fn inv_program(c: &InvCase) -> (Program, [loopvm::Var; 2]) {
    let mut p = Program::new();
    let ins: Vec<_> = (0..c.n_in).map(|b| p.buffer(&format!("in{b}"), INV_IN as usize)).collect();
    let len = (c.rows * c.m) as usize;
    let outs: Vec<_> = (0..c.n_out).map(|b| p.buffer(&format!("out{b}"), len)).collect();
    let (t, i, j) = (p.var("t"), p.var("i"), p.var("j"));
    let (rows, sh) = (p.var("rows"), p.var("sh"));
    let pin_i = || V::i64(c.k) - V::var(t) * V::i64(3);
    let pin_f = || V::to_f32(V::var(t)) * V::f32(0.5) + V::f32(c.k as f32 * 0.25);
    let body = (outs.iter().enumerate())
        .map(|(o, &out)| {
            let a = ins[o % c.n_in];
            let b = ins[(3 * o + 1) % c.n_in];
            let at_a = V::var(j) + (V::var(i) + pin_i()) % V::i64(8);
            let at_b = V::i64(32) + V::var(j) + (pin_i() * V::i64(2) + V::i64(o as i64)) % V::i64(8);
            let val = V::load(a, at_a) * pin_f() + V::load(b, at_b);
            Stmt::store(out, V::var(i) * V::i64(c.m) + V::var(j) + V::var(sh), val)
        })
        .collect();
    let kind = if c.vector { LoopKind::Vectorize(8) } else { LoopKind::Serial };
    let inner = Stmt::for_(j, V::i64(0), V::i64(c.m), kind, body);
    let par = Stmt::for_(i, V::i64(0), V::var(rows), LoopKind::Parallel, vec![inner]);
    p.push(Stmt::serial(t, V::i64(0), V::i64(2), vec![par]));
    (p, [rows, sh])
}

/// The outcome and every buffer bit of `c`'s program on `mode` and
/// `threads`.
fn inv_outcome(c: &InvCase, mode: ExecMode, threads: usize) -> (String, Vec<Vec<u32>>) {
    let (p, [rows, sh]) = inv_program(c);
    assert_bytecode_roundtrips(&p);
    let mut m = Machine::new(&p);
    m.set_threads(threads);
    m.set_exec_mode(mode);
    m.bind(rows, c.rows);
    m.bind(sh, c.sh);
    for b in 0..c.n_in {
        for (x, v) in m.buffer_mut(p.nth_buffer(b)).iter_mut().enumerate() {
            *v = (b * 64 + x) as f32 * 0.375 - 11.0;
        }
    }
    let outcome = match m.run(&p) {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    };
    let bits = |b: &[f32]| b.iter().map(|v| v.to_bits()).collect();
    (outcome, (0..p.n_buffers()).map(|b| bits(m.buffer(p.nth_buffer(b)))).collect())
}

/// Checks `c` on one, two and three threads: the JIT and the plain
/// lowering against the interpreter, and an `ok` outcome against one
/// thread's.
fn inv_agrees(c: &InvCase) -> Result<(), TestCaseError> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let (p, _) = inv_program(c);
        let text = loopvm::jit::listing(p.compiled().unwrap().bytecode()).expect("no native code");
        prop_assert!(text.contains("; pin "), "no pin kept in a register: {:?}:\n{}", c, text);
        if c.n_in + c.n_out > 11 {
            let spilled = "mov rcx, [r15+0x8]";
            prop_assert!(text.contains(spilled), "no data pointer spilled: {:?}:\n{}", c, text);
        }
    }
    let serial = inv_outcome(c, ExecMode::Bytecode, 1);
    for threads in 1..=3 {
        let reference = inv_outcome(c, ExecMode::Bytecode, threads);
        for mode in [ExecMode::Jit, ExecMode::TreeWalk] {
            let got = inv_outcome(c, mode, threads);
            prop_assert_eq!(&got.0, &reference.0, "{:?} on {} threads: {:?}", mode, threads, c);
            prop_assert!(got.1 == reference.1, "{:?} on {} threads: {:?}", mode, threads, c);
        }
        if reference.0 == "ok" {
            prop_assert!(reference == serial, "{} threads differ from one: {:?}", threads, c);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::diff_cases()))]

    /// Twelve to sixteen buffers in the inner loop: more data pointers
    /// than GPRs, so some are read from the buffer table at every access.
    #[test]
    fn spilled_data_pointers_agree_on_every_thread_count(c in inv_case(4..=8, 8..=8)) {
        inv_agrees(&c)?;
    }

    /// One to three buffers: the data pointers and pins in registers of
    /// the `Parallel` body, read by the guarded stores' deopt stubs and
    /// per-lane slow paths.
    #[test]
    fn pinned_values_agree_on_every_thread_count(c in inv_case(1..=3, 1..=3)) {
        inv_agrees(&c)?;
    }
}
