//! An independent reference evaluator for the differential tests: a
//! recursive walk over `loopvm::{Stmt, Expr}`. It shares only the scalar
//! semantics (`loopvm::vm::{apply_*, cmp_*}`) with the executors — no
//! bytecode, no interpreter, no lane executor — so a bug in those shows up
//! as a difference against it, even where every executor agrees.
//!
//! - `Parallel` loops run sequentially.
//! - A `Vectorize` loop whose body holds only stores and lets runs like the
//!   executors' lane groups: chunks of `LANES` iterations in which every
//!   node is evaluated for all lanes, in lane order, before its parent,
//!   and every statement before the next; lets stay private to the lanes
//!   of one chunk (they never reach the frame). The iterations left over
//!   run one by one.
//! - Out-of-bounds accesses fail with the executors' `Error::OutOfBounds`,
//!   and integer traps panic with their messages.
//!
//! Programs must be well typed (the executors' compilers check that) and
//! start with every variable at `0`.

use loopvm::vm::{apply_f, apply_i, apply_un_f, apply_un_i, cmp_f, cmp_i, LANES};
use loopvm::{BinOp, Error, Expr, LoopKind, Program, Stmt, Ty};

/// One value per lane being evaluated (one lane outside vector chunks).
enum Val {
    I(Vec<i64>),
    F(Vec<f32>),
}

impl Val {
    fn i(self) -> Vec<i64> {
        match self {
            Val::I(v) => v,
            Val::F(_) => panic!("ill-typed program: expected i64"),
        }
    }

    fn f(self) -> Vec<f32> {
        match self {
            Val::F(v) => v,
            Val::I(_) => panic!("ill-typed program: expected f32"),
        }
    }
}

/// Zeroed storage for every buffer of `p`, in declaration order.
pub fn buffers(p: &Program) -> Vec<Vec<f32>> {
    (0..p.n_buffers())
        .map(|b| vec![0.0; p.buffer_info(p.nth_buffer(b)).1])
        .collect()
}

/// Runs `p` over `bufs` (as [`buffers`] lays them out).
pub fn run(p: &Program, bufs: &mut [Vec<f32>]) -> Result<(), Error> {
    let mut w = Walk { p, bufs };
    w.block(p.body(), &mut vec![0; p.n_vars()])
}

struct Walk<'a> {
    p: &'a Program,
    bufs: &'a mut [Vec<f32>],
}

impl Walk<'_> {
    fn oob(&self, buf: usize, index: i64) -> Error {
        let (name, size) = self.p.buffer_info(self.p.nth_buffer(buf));
        Error::OutOfBounds {
            buffer: name.to_string(),
            index,
            size,
        }
    }

    fn slot(&self, buf: usize, index: i64) -> Result<usize, Error> {
        usize::try_from(index)
            .ok()
            .filter(|&i| i < self.bufs[buf].len())
            .ok_or_else(|| self.oob(buf, index))
    }

    /// Evaluates `e` for every lane, one frame per lane.
    fn eval(&self, e: &Expr, frames: &[Vec<i64>]) -> Result<Val, Error> {
        let n = frames.len();
        Ok(match e {
            Expr::ConstI(v) => Val::I(vec![*v; n]),
            Expr::ConstF(v) => Val::F(vec![*v; n]),
            Expr::Var(v) => Val::I(frames.iter().map(|f| f[v.index()]).collect()),
            Expr::Load(b, idx) => {
                let idx = self.eval(idx, frames)?.i();
                let b = b.index();
                let vals = idx.iter().map(|&i| Ok(self.bufs[b][self.slot(b, i)?]));
                Val::F(vals.collect::<Result<_, Error>>()?)
            }
            Expr::Bin(op, a, b) => {
                let op = *op;
                let cmp = matches!(op, BinOp::Lt | BinOp::Le | BinOp::EqCmp);
                match (self.eval(a, frames)?, self.eval(b, frames)?, cmp) {
                    (Val::I(a), Val::I(b), true) => Val::I(zip(a, b, |x, y| cmp_i(op, x, y))),
                    (Val::I(a), Val::I(b), false) => Val::I(zip(a, b, |x, y| apply_i(op, x, y))),
                    (Val::F(a), Val::F(b), true) => Val::I(zip(a, b, |x, y| cmp_f(op, x, y))),
                    (Val::F(a), Val::F(b), false) => Val::F(zip(a, b, |x, y| apply_f(op, x, y))),
                    _ => panic!("ill-typed program: operands of {op:?} disagree"),
                }
            }
            Expr::Un(op, a) => match self.eval(a, frames)? {
                Val::I(a) => Val::I(a.into_iter().map(|x| apply_un_i(*op, x)).collect()),
                Val::F(a) => Val::F(a.into_iter().map(|x| apply_un_f(*op, x)).collect()),
            },
            Expr::Select(c, a, b) => {
                let c = self.eval(c, frames)?.i();
                match (self.eval(a, frames)?, self.eval(b, frames)?) {
                    (Val::I(a), Val::I(b)) => Val::I(select(&c, a, b)),
                    (Val::F(a), Val::F(b)) => Val::F(select(&c, a, b)),
                    _ => panic!("ill-typed program: select arms disagree"),
                }
            }
            Expr::Cast(t, a) => match (self.eval(a, frames)?, t) {
                (Val::I(a), Ty::F32) => Val::F(a.into_iter().map(|x| x as f32).collect()),
                (Val::F(a), Ty::I64) => Val::I(a.into_iter().map(|x| x as i64).collect()),
                (v, _) => v,
            },
        })
    }

    fn scalar(&self, e: &Expr, frame: &[i64]) -> Result<Val, Error> {
        self.eval(e, std::slice::from_ref(&frame.to_vec()))
    }

    /// Stores lane by lane: the first failing lane reports, earlier lanes
    /// stay stored.
    fn store(&mut self, buf: usize, idx: Vec<i64>, val: Vec<f32>) -> Result<(), Error> {
        for (i, v) in idx.into_iter().zip(val) {
            let k = self.slot(buf, i)?;
            self.bufs[buf][k] = v;
        }
        Ok(())
    }

    fn block(&mut self, body: &[Stmt], frame: &mut Vec<i64>) -> Result<(), Error> {
        body.iter().try_for_each(|s| self.stmt(s, frame))
    }

    fn stmt(&mut self, s: &Stmt, frame: &mut Vec<i64>) -> Result<(), Error> {
        match s {
            Stmt::Let { var, value } => frame[var.index()] = self.scalar(value, frame)?.i()[0],
            Stmt::Store { buf, index, value } => {
                let idx = self.scalar(index, frame)?.i();
                let val = self.scalar(value, frame)?.f();
                self.store(buf.index(), idx, val)?;
            }
            Stmt::If { cond, then, else_ } => {
                let taken = if self.scalar(cond, frame)?.i()[0] != 0 {
                    then
                } else {
                    else_
                };
                self.block(taken, frame)?;
            }
            Stmt::For {
                var,
                lower,
                upper,
                kind,
                body,
            } => {
                let lo = self.scalar(lower, frame)?.i()[0];
                let hi = self.scalar(upper, frame)?.i()[0];
                let lanes = matches!(kind, LoopKind::Vectorize(_))
                    && body
                        .iter()
                        .all(|s| matches!(s, Stmt::Store { .. } | Stmt::Let { .. }));
                let mut v = lo;
                while lanes && v.checked_add(LANES as i64).is_some_and(|end| end <= hi) {
                    self.chunk(var.index(), v, body, frame)?;
                    v += LANES as i64;
                }
                while v < hi {
                    frame[var.index()] = v;
                    self.block(body, frame)?;
                    v += 1;
                }
            }
        }
        Ok(())
    }

    /// Iterations `base..base + LANES` of a store/let body, statement by
    /// statement, on lane-private copies of the frame.
    fn chunk(&mut self, var: usize, base: i64, body: &[Stmt], frame: &[i64]) -> Result<(), Error> {
        let mut lanes: Vec<Vec<i64>> = (0..LANES as i64)
            .map(|l| {
                let mut f = frame.to_vec();
                f[var] = base + l;
                f
            })
            .collect();
        for s in body {
            match s {
                Stmt::Let { var, value } => {
                    let vals = self.eval(value, &lanes)?.i();
                    for (f, x) in lanes.iter_mut().zip(vals) {
                        f[var.index()] = x;
                    }
                }
                Stmt::Store { buf, index, value } => {
                    let idx = self.eval(index, &lanes)?.i();
                    let val = self.eval(value, &lanes)?.f();
                    self.store(buf.index(), idx, val)?;
                }
                _ => unreachable!("lane bodies hold stores and lets only"),
            }
        }
        Ok(())
    }
}

fn zip<T, U>(a: Vec<T>, b: Vec<T>, f: impl Fn(T, T) -> U) -> Vec<U> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// Both arms are evaluated for every lane; the condition picks.
fn select<T>(c: &[i64], a: Vec<T>, b: Vec<T>) -> Vec<T> {
    c.iter()
        .zip(zip(a, b, |x, y| (x, y)))
        .map(|(&c, (x, y))| if c != 0 { x } else { y })
        .collect()
}
