//! Program structure: buffers, statements, loop annotations.

use crate::bytecode::BcProgram;
use crate::expr::{Expr, Var};
use crate::jit::JitProgram;
use crate::Result;
use std::sync::{Arc, OnceLock};

/// Identifier of a flat `f32` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub(crate) u32);

impl BufId {
    /// The raw buffer table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a loop maps to hardware — the lowered form of the paper's space
/// tags (`cpu`, `vec(s)`, `unroll`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Ordinary sequential loop.
    Serial,
    /// Iterations distributed over OS threads (the `cpu` tag /
    /// `parallelize()` command).
    Parallel,
    /// Iterations evaluated in lanes (the `vec(s)` tag / `vectorize()`),
    /// with the requested vector width.
    Vectorize(usize),
    /// Unrolled by the given factor (the `unroll` tag); the VM executes it
    /// with the loop-overhead-free pre-expanded path when possible.
    Unroll(usize),
}

/// A statement of the VM program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var in lower..upper { body }` (upper exclusive).
    For {
        /// Loop variable slot.
        var: Var,
        /// Inclusive lower bound (`i64` expression).
        lower: Expr,
        /// Exclusive upper bound (`i64` expression).
        upper: Expr,
        /// Hardware mapping.
        kind: LoopKind,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if cond { then } else { else_ }` — `cond` is an `i64` predicate.
    If {
        /// Predicate.
        cond: Expr,
        /// Taken branch.
        then: Vec<Stmt>,
        /// Fallback branch.
        else_: Vec<Stmt>,
    },
    /// `buf[index] = value`.
    Store {
        /// Destination buffer.
        buf: BufId,
        /// Flat element index (`i64`).
        index: Expr,
        /// Stored value (`f32`).
        value: Expr,
    },
    /// Binds a scalar `i64` variable for the remainder of the block.
    Let {
        /// Destination slot.
        var: Var,
        /// Bound value (`i64`).
        value: Expr,
    },
}

impl Stmt {
    /// Convenience constructor for a loop.
    pub fn for_(var: Var, lower: Expr, upper: Expr, kind: LoopKind, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var, lower, upper, kind, body }
    }

    /// Convenience constructor for a serial loop.
    pub fn serial(var: Var, lower: Expr, upper: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var, lower, upper, kind: LoopKind::Serial, body }
    }

    /// Convenience constructor for a store.
    pub fn store(buf: BufId, index: Expr, value: Expr) -> Stmt {
        Stmt::Store { buf, index, value }
    }

    /// Convenience constructor for a conditional without else.
    pub fn if_then(cond: Expr, then: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then, else_: Vec::new() }
    }

    /// Convenience constructor for a let binding.
    pub fn let_(var: Var, value: Expr) -> Stmt {
        Stmt::Let { var, value }
    }
}

/// The executable form of a [`Program`]: the optimized register bytecode
/// and, once requested, the native code compiled from it. Obtained from
/// [`Program::compiled`]; there is exactly one per program value (and its
/// clones), so the code a backend produced is the code that runs.
#[derive(Debug)]
pub struct Compiled {
    bc: BcProgram,
    /// `Some(None)` records that the JIT declined (or does not exist on
    /// this target), so an unsupported program is not retried per run.
    jit: OnceLock<Option<JitProgram>>,
}

impl Compiled {
    fn new(bc: BcProgram) -> Compiled {
        Compiled { bc, jit: OnceLock::new() }
    }

    /// The optimized bytecode ([`crate::opt::compile_program`]'s output).
    pub fn bytecode(&self) -> &BcProgram {
        &self.bc
    }

    /// The native code, compiled from the bytecode on the first call —
    /// the one place JIT compilation happens outside explicit
    /// [`crate::jit::compile`] calls, hence where `vm.jit.*` is recorded.
    /// `None` on targets without the JIT tier and for programs it
    /// declines.
    pub fn jit(&self) -> Option<&JitProgram> {
        self.jit
            .get_or_init(|| {
                let m = crate::vm::vm_metrics();
                let t0 = std::time::Instant::now();
                let j = crate::jit::compile(&self.bc);
                match j {
                    Some(_) => m.jit_compiles.inc(),
                    None => m.jit_fallbacks.inc(),
                }
                m.jit_compile_us.record_duration(t0.elapsed());
                j
            })
            .as_ref()
    }
}

/// A complete VM program: buffer table, variable slots, statement list.
///
/// `PartialEq` is structural (and bitwise on `f32` constants apart from
/// NaN, which never compares equal).
///
/// Compilation is a memoised pure function of the IR: a program lazily
/// holds its [`Compiled`] form ([`Program::compiled`]). Clones share it,
/// equality and the codec ignore it, and every `&mut` builder
/// ([`Program::buffer`], [`Program::var`], [`Program::push`],
/// [`Program::set_body`]) drops it, so stale code can never run.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub(crate) buffers: Vec<(String, usize)>,
    pub(crate) vars: Vec<String>,
    /// Top-level statements, executed in order. Mutations go through
    /// [`Program::push`] / [`Program::set_body`] so the memo is dropped.
    pub(crate) body: Vec<Stmt>,
    /// The memoised compile outcome — a compile error is an outcome too.
    code: Arc<OnceLock<Result<Compiled>>>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        // Structural equality only; the compiled form is derived state.
        self.buffers == other.buffers && self.vars == other.vars && self.body == other.body
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Declares a buffer of `size` `f32` elements.
    pub fn buffer(&mut self, name: &str, size: usize) -> BufId {
        self.invalidate();
        self.buffers.push((name.to_string(), size));
        BufId((self.buffers.len() - 1) as u32)
    }

    /// Declares a scalar variable slot.
    pub fn var(&mut self, name: &str) -> Var {
        self.invalidate();
        self.vars.push(name.to_string());
        Var((self.vars.len() - 1) as u32)
    }

    /// Appends a top-level statement.
    pub fn push(&mut self, s: Stmt) {
        self.invalidate();
        self.body.push(s);
    }

    /// The top-level statements.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Replaces the whole statement list (lowering pipelines build bodies
    /// out-of-line).
    pub fn set_body(&mut self, body: Vec<Stmt>) {
        self.invalidate();
        self.body = body;
    }

    /// Drops the memoised compiled form before a mutation. The old slot
    /// stays with the clones that share it (they are unchanged).
    fn invalidate(&mut self) {
        self.code = Arc::default();
    }

    /// The program's compiled form, built by [`crate::opt::compile_program`]
    /// on the first call and shared with every clone.
    ///
    /// # Errors
    ///
    /// The compile error, memoised like a success: every call returns an
    /// equal [`crate::Error`].
    pub fn compiled(&self) -> Result<&Compiled> {
        self.compiled_or_build().0
    }

    /// [`Program::compiled`], also reporting whether this call had to
    /// build the form (the `vm.bc_cache.*` distinction).
    pub(crate) fn compiled_or_build(&self) -> (Result<&Compiled>, bool) {
        let mut built = false;
        let outcome = self.code.get_or_init(|| {
            built = true;
            crate::opt::compile_program(self).map(Compiled::new)
        });
        (outcome.as_ref().map_err(Clone::clone), built)
    }

    /// Installs bytecode decoded and validated against this program as
    /// its compiled form ([`crate::codec::decode_bc_into`]). Like
    /// [`Program::compiled`] this fills the shared slot through `&self`; a
    /// program that already compiled itself keeps that code.
    pub(crate) fn install_bytecode(&self, bc: BcProgram) {
        let _ = self.code.set(Ok(Compiled::new(bc)));
    }

    /// Number of declared buffers.
    pub fn n_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Number of declared scalar slots.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// Name and size of a buffer.
    pub fn buffer_info(&self, b: BufId) -> (&str, usize) {
        let (n, s) = &self.buffers[b.index()];
        (n, *s)
    }

    /// The `i`-th declared buffer (declaration order).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn nth_buffer(&self, i: usize) -> BufId {
        assert!(i < self.buffers.len(), "buffer index {i} out of range");
        BufId(i as u32)
    }

    /// Looks up a buffer by name.
    pub fn buffer_by_name(&self, name: &str) -> Option<BufId> {
        self.buffers.iter().position(|(n, _)| n == name).map(|i| BufId(i as u32))
    }

    /// Pretty-prints the program as pseudo-C (for tests and docs).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        for s in &self.body {
            self.pretty_stmt(s, 0, &mut out);
        }
        out
    }

    /// Pretty-prints a statement slice using this program's buffer and
    /// variable names, at the given starting indent. Used by consumers
    /// that hold statements outside `body` (kernel phases, rank programs,
    /// compile-trace snapshots).
    pub fn pretty_stmts(&self, stmts: &[Stmt], indent: usize) -> String {
        let mut out = String::new();
        for s in stmts {
            self.pretty_stmt(s, indent, &mut out);
        }
        out
    }

    /// Pretty-prints a single expression using this program's names.
    pub fn pretty_expr_str(&self, e: &Expr) -> String {
        self.pretty_expr(e)
    }

    fn pretty_stmt(&self, s: &Stmt, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match s {
            Stmt::For { var, lower, upper, kind, body } => {
                let tag = match kind {
                    LoopKind::Serial => "",
                    LoopKind::Parallel => "parallel ",
                    LoopKind::Vectorize(w) => {
                        out.push_str(&format!("{pad}// vectorize x{w}\n"));
                        ""
                    }
                    LoopKind::Unroll(u) => {
                        out.push_str(&format!("{pad}// unroll x{u}\n"));
                        ""
                    }
                };
                out.push_str(&format!(
                    "{pad}{tag}for ({} = {}; {} < {}; {}++) {{\n",
                    self.vars[var.index()],
                    self.pretty_expr(lower),
                    self.vars[var.index()],
                    self.pretty_expr(upper),
                    self.vars[var.index()],
                ));
                for b in body {
                    self.pretty_stmt(b, indent + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::If { cond, then, else_ } => {
                out.push_str(&format!("{pad}if ({}) {{\n", self.pretty_expr(cond)));
                for b in then {
                    self.pretty_stmt(b, indent + 1, out);
                }
                if !else_.is_empty() {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for b in else_ {
                        self.pretty_stmt(b, indent + 1, out);
                    }
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Store { buf, index, value } => {
                out.push_str(&format!(
                    "{pad}{}[{}] = {};\n",
                    self.buffers[buf.index()].0,
                    self.pretty_expr(index),
                    self.pretty_expr(value)
                ));
            }
            Stmt::Let { var, value } => {
                out.push_str(&format!(
                    "{pad}let {} = {};\n",
                    self.vars[var.index()],
                    self.pretty_expr(value)
                ));
            }
        }
    }

    fn pretty_expr(&self, e: &Expr) -> String {
        use crate::expr::{BinOp, UnOp};
        match e {
            Expr::ConstF(v) => format!("{v}"),
            Expr::ConstI(v) => format!("{v}"),
            Expr::Var(v) => self.vars[v.index()].clone(),
            Expr::Load(b, i) => {
                format!("{}[{}]", self.buffers[b.index()].0, self.pretty_expr(i))
            }
            Expr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Min => return format!("min({}, {})", self.pretty_expr(a), self.pretty_expr(b)),
                    BinOp::Max => return format!("max({}, {})", self.pretty_expr(a), self.pretty_expr(b)),
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::EqCmp => "==",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                format!("({} {} {})", self.pretty_expr(a), sym, self.pretty_expr(b))
            }
            Expr::Un(op, a) => {
                let name = match op {
                    UnOp::Neg => "-",
                    UnOp::Abs => "abs",
                    UnOp::Sqrt => "sqrt",
                    UnOp::Exp => "exp",
                    UnOp::Not => "!",
                };
                format!("{name}({})", self.pretty_expr(a))
            }
            Expr::Select(c, a, b) => format!(
                "({} ? {} : {})",
                self.pretty_expr(c),
                self.pretty_expr(a),
                self.pretty_expr(b)
            ),
            Expr::Cast(t, a) => format!("({t:?})({})", self.pretty_expr(a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn builder_assigns_ids() {
        let mut p = Program::new();
        let a = p.buffer("A", 10);
        let b = p.buffer("B", 20);
        assert_ne!(a, b);
        assert_eq!(p.buffer_info(b), ("B", 20));
        assert_eq!(p.buffer_by_name("A"), Some(a));
        assert_eq!(p.buffer_by_name("zzz"), None);
        let i = p.var("i");
        let j = p.var("j");
        assert_ne!(i, j);
    }

    fn fill(c: f32) -> Program {
        let mut p = Program::new();
        let a = p.buffer("A", 10);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(10),
            vec![Stmt::store(a, Expr::var(i), Expr::f32(c))],
        ));
        p
    }

    #[test]
    fn equality_is_structural_and_ignores_the_compiled_form() {
        let p = fill(1.0);
        p.compiled().unwrap();
        assert_eq!(p, fill(1.0));
        assert_ne!(p, fill(2.0));
    }

    #[test]
    fn clones_share_the_compiled_form_and_builders_drop_it() {
        let p = fill(1.0);
        let q = p.clone();
        // Compiling through either handle fills the one shared slot.
        let code: *const Compiled = q.compiled().unwrap();
        assert!(std::ptr::eq(code, p.compiled().unwrap()));
        assert!(!p.compiled_or_build().1, "second call must not rebuild");

        // Each `&mut` builder detaches the mutated program and leaves the
        // clone's code alone.
        let muts: [fn(&mut Program); 4] = [
            |p| {
                p.buffer("B", 1);
            },
            |p| {
                p.var("j");
            },
            |p| p.push(Stmt::let_(Var(0), Expr::i64(0))),
            |p| p.set_body(fill(2.0).body().to_vec()),
        ];
        for m in muts {
            let mut r = p.clone();
            m(&mut r);
            assert!(r.compiled_or_build().1, "mutated program must recompile");
            assert!(std::ptr::eq(code, p.compiled().unwrap()));
        }
    }

    #[test]
    fn compile_errors_are_memoised() {
        let mut p = Program::new();
        let a = p.buffer("A", 1);
        // An i64 value stored into an f32 buffer.
        p.push(Stmt::store(a, Expr::i64(0), Expr::i64(1)));
        let (first, built) = p.compiled_or_build();
        let first = first.unwrap_err();
        assert!(built && matches!(first, crate::Error::Type(_)));
        let q = p.clone();
        let (again, built) = q.compiled_or_build();
        assert_eq!(again.unwrap_err(), first);
        assert!(!built, "the error is the memoised outcome, not a retry");
    }

    #[test]
    fn pretty_prints_loops() {
        let mut p = Program::new();
        let a = p.buffer("A", 10);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(10),
            vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
        ));
        let text = p.pretty();
        assert!(text.contains("for (i = 0; i < 10; i++)"));
        assert!(text.contains("A[i] = 1;"));
    }
}
