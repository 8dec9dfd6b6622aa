//! The `Parallel` trap programs shared by the differential and crew
//! tests. Each fails in a chunk after the first on 2 and 3 threads, and
//! each does enough work per iteration that its dispatch reaches the run's
//! crew, so the crew's failure path (`loopvm::par::settle`) is exercised;
//! [`parallel_div_by_zero_inline`] is the small twin that runs inline.

use loopvm::{BufId, Expr, LoopKind, Program, Stmt, Var};

/// Iterations of the inner loop that makes a dispatch worth a crew: eight
/// outer iterations of it are estimated at about 4 M bytecode
/// instructions.
const INNER: i64 = 1 << 17;

/// `for j in 0..INNER { C[i·64 + j % 64] = 3 }`: a row of `C` of its own
/// per outer iteration `i`, so chunks share no element.
fn inner_loop(p: &mut Program, i: Var) -> Stmt {
    let c: BufId = p.buffer("C", 8 * 64);
    let j = p.var("j");
    let at = Expr::var(i) * Expr::i64(64) + Expr::var(j) % Expr::i64(64);
    Stmt::serial(j, Expr::i64(0), Expr::i64(INNER), vec![Stmt::store(c, at, Expr::f32(3.0))])
}

/// Division by zero at i = 4, in chunk 1 on 2 threads ([4, 8)) and on 3
/// ([3, 6)): the panic keeps its own message on every thread count. Every
/// iteration before runs the inner loop.
pub fn parallel_div_by_zero() -> Program {
    div_by_zero(true)
}

/// [`parallel_div_by_zero`] without the inner loop: too small for the
/// crew, it runs inline on the caller and must fail the same way.
pub fn parallel_div_by_zero_inline() -> Program {
    div_by_zero(false)
}

fn div_by_zero(heavy: bool) -> Program {
    let mut p = Program::new();
    let a = p.buffer("A", 16);
    let i = p.var("i");
    let mut body = vec![Stmt::store(
        a,
        Expr::i64(4) / (Expr::var(i) - Expr::i64(4)) + Expr::i64(4),
        Expr::f32(1.0),
    )];
    if heavy {
        body.push(inner_loop(&mut p, i));
    }
    p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(8), LoopKind::Parallel, body));
    p
}

/// B[i + 8] is out of bounds from i = 0 on, in chunk 0; the division by
/// (i - 3) * (i - 4) is by zero at the first iteration of chunk 1 on 2
/// and 3 threads. The earlier chunk's error wins over the later chunk's
/// panic, as in a serial run. No chunk reaches its inner loop.
pub fn parallel_err_before_panic() -> Program {
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let b = p.buffer("B", 8);
    let i = p.var("i");
    let zero_at_3_and_4 = (Expr::var(i) - Expr::i64(3)) * (Expr::var(i) - Expr::i64(4));
    let body = vec![
        Stmt::store(a, Expr::i64(4) / zero_at_3_and_4, Expr::f32(1.0)),
        Stmt::store(b, Expr::var(i) + Expr::i64(8), Expr::f32(2.0)),
        inner_loop(&mut p, i),
    ];
    p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(8), LoopKind::Parallel, body));
    p
}
