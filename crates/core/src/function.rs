//! Functions, computations, iterators and buffers — Layers I and III of
//! the Tiramisu IR.
//!
//! A [`Function`] is the unit of compilation: a set of symbolic parameters,
//! inputs, and [`Computation`]s (pure statements over iteration domains,
//! §IV-C1). Scheduling state (Layer II) lives inside each computation and
//! is manipulated by the commands in [`crate::schedule`]. Buffers and
//! access relations (Layer III) are attached with [`Function::buffer`] and
//! [`Function::store_in`].

use crate::expr::{CompId, Expr};
use polyhedral::{Aff, BasicMap, BasicSet, Constraint, Space};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// An iterator declaration: a name plus affine bounds (`lo` inclusive,
/// `hi` exclusive), mirroring `Var i(0, N-2)` from the paper's Figure 2.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Var {
    /// Iterator name.
    pub name: String,
    /// Inclusive lower bound (affine in parameters).
    pub lo: Expr,
    /// Exclusive upper bound (affine in parameters).
    pub hi: Expr,
}

impl Var {
    /// Creates an iterator over `lo..hi`.
    pub fn new(name: &str, lo: impl Into<Expr>, hi: impl Into<Expr>) -> Var {
        Var { name: name.to_string(), lo: lo.into(), hi: hi.into() }
    }
}

/// Hardware mapping tags for schedule dimensions (the paper's space tags:
/// `cpu`, `node`, `gpuB`, `gpuT`, `vec(s)`, `unroll`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// `cpu` — iterations spread over shared-memory cores
    /// (`parallelize()`).
    Parallel,
    /// `vec(s)` — SIMD lanes (`vectorize()`).
    Vectorize(usize),
    /// `unroll` — unrolled by a factor (`unroll()`).
    Unroll(usize),
    /// `node` — iterations spread over distributed ranks (`distribute()`).
    Distribute,
    /// `gpuB` — mapped to the given GPU block dimension (0 = x, 1 = y).
    GpuBlock(u8),
    /// `gpuT` — mapped to the given GPU thread dimension.
    GpuThread(u8),
}

/// GPU memory spaces for buffers (Table II's `tag_gpu_*` commands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum MemSpace {
    /// Host memory (CPU backends) / GPU global memory once copied.
    #[default]
    Host,
    /// GPU global memory.
    GpuGlobal,
    /// GPU shared (per-block) memory.
    GpuShared,
    /// GPU local (per-thread) memory.
    GpuLocal,
    /// GPU constant memory (read-only, broadcast-friendly).
    GpuConstant,
}

/// Identifier of a buffer within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub(crate) u32);

impl BufId {
    /// Raw index into the function's buffer table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A multi-dimensional buffer declaration (Layer III).
#[derive(Debug, Clone, Hash)]
pub struct Buffer {
    /// Buffer name.
    pub name: String,
    /// Extents per dimension, affine in the function parameters.
    pub extents: Vec<Expr>,
    /// Memory space tag.
    pub space: MemSpace,
}

/// What kind of statement a computation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompKind {
    /// An external input (no expression; backed by a caller-filled buffer).
    Input,
    /// An ordinary computation.
    Computation,
}

/// One computation: iteration domain + expression + scheduling state.
#[derive(Debug, Clone)]
pub struct Computation {
    /// Name (also the default buffer name).
    pub name: String,
    /// Input or computation.
    pub kind: CompKind,
    /// Original iterator names (Layer I dimensions).
    pub iters: Vec<String>,
    /// Iteration domain over `iters` + function params.
    pub domain: BasicSet,
    /// The computed expression (`None` for inputs).
    pub expr: Option<Expr>,
    /// Optional non-affine predicate (§V-B): the computation only executes
    /// where it evaluates non-zero.
    pub predicate: Option<Expr>,

    // ----- Layer II state -----
    /// Names of the dynamic schedule dimensions, outermost first.
    pub dyn_names: Vec<String>,
    /// Schedule relation: domain → dynamic dimensions. For `compute_at`
    /// computations the leading output dimensions are the host's outer
    /// loops, related (not equal) to this computation's own iterators.
    pub sched: BasicMap,
    /// Static (ordering) coordinates: `betas[k]` sits immediately before
    /// dynamic dimension `k` in the time vector; `betas[d]` after the last.
    pub betas: Vec<i64>,
    /// Hardware tags per dynamic dimension name.
    pub tags: HashMap<String, Tag>,
    /// True when `inline()` removed this computation from code generation.
    pub inlined: bool,
    /// True when `compute_at` made this computation's schedule a genuine
    /// relation (redundant execution / overlapped tiling).
    pub redundant: bool,

    // ----- Layer III state -----
    /// Destination buffer (`None` until lowering assigns the default).
    pub store_buffer: Option<BufId>,
    /// Store index expressions over the *original* iterators (`None` =
    /// identity).
    pub store_idx: Option<Vec<Expr>>,
}

/// Hashes every field, for [`Function::fingerprint`]. The pattern names
/// each field, so a field added later does not compile here until it is
/// hashed.
impl Hash for Computation {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let Computation {
            name,
            kind,
            iters,
            domain,
            expr,
            predicate,
            dyn_names,
            sched,
            betas,
            tags,
            inlined,
            redundant,
            store_buffer,
            store_idx,
        } = self;
        name.hash(h);
        kind.hash(h);
        iters.hash(h);
        domain.hash(h);
        expr.hash(h);
        predicate.hash(h);
        dyn_names.hash(h);
        sched.hash(h);
        betas.hash(h);
        // HashMap iteration order is seeded per process: sort by name.
        let mut tags: Vec<(&String, &Tag)> = tags.iter().collect();
        tags.sort_unstable_by(|a, b| a.0.cmp(b.0));
        tags.hash(h);
        inlined.hash(h);
        redundant.hash(h);
        store_buffer.hash(h);
        store_idx.hash(h);
    }
}

impl Computation {
    /// Position of a dynamic schedule dimension by name.
    pub fn level_of(&self, name: &str) -> Option<usize> {
        self.dyn_names.iter().position(|n| n == name)
    }

    /// The identity schedule for a domain: each iterator maps to one
    /// dynamic dimension, all betas zero.
    pub(crate) fn identity_schedule(domain: &BasicSet) -> (Vec<String>, BasicMap, Vec<i64>) {
        let dims = domain.space().dims().to_vec();
        let out_names: Vec<String> = dims.iter().map(|d| format!("t_{d}")).collect();
        let out_refs: Vec<&str> = out_names.iter().map(|s| s.as_str()).collect();
        let out_space = Space::set(
            "time",
            &out_refs,
            &domain.space().params().iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        let n = domain.space().n_cols();
        let affs: Vec<Aff> = (0..dims.len()).map(|i| Aff::var(n, i)).collect();
        let sched = BasicMap::from_output_affs(domain.space(), &out_space, &affs);
        let betas = vec![0; dims.len() + 1];
        (dims, sched, betas)
    }
}

/// Errors raised while building or scheduling a function.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Unknown iterator/level name for a computation.
    UnknownLevel(String),
    /// Unknown parameter.
    UnknownParam(String),
    /// A bound or index expression had to be affine but was not.
    NotAffine(String),
    /// The command's preconditions do not hold (with explanation).
    Command(String),
    /// A schedule transformation would violate a dependence.
    Illegal(String),
    /// Error from the polyhedral layer.
    Polyhedral(String),
    /// Error from program generation or the VM.
    Backend(String),
    /// The compile service's job queue is full (back-pressure); retry
    /// later or raise the queue capacity.
    Busy(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownLevel(s) => write!(f, "unknown loop level: {s}"),
            Error::UnknownParam(s) => write!(f, "unknown parameter: {s}"),
            Error::NotAffine(s) => write!(f, "expression must be affine: {s}"),
            Error::Command(s) => write!(f, "invalid scheduling command: {s}"),
            Error::Illegal(s) => write!(f, "illegal schedule: {s}"),
            Error::Polyhedral(s) => write!(f, "polyhedral error: {s}"),
            Error::Backend(s) => write!(f, "backend error: {s}"),
            Error::Busy(s) => write!(f, "compile service busy: {s}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<polyhedral::Error> for Error {
    fn from(e: polyhedral::Error) -> Error {
        Error::Polyhedral(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// A Tiramisu function: the unit of compilation.
///
/// Its `Hash` walks every field ([`Function::fingerprint`]).
#[derive(Debug, Clone, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Symbolic parameter names (sizes).
    pub params: Vec<String>,
    /// Computation arena.
    pub comps: Vec<Computation>,
    /// Buffer table.
    pub buffers: Vec<Buffer>,
    /// Layer IV communication operations.
    pub comm: Vec<crate::layer4::CommOp>,
}

impl Function {
    /// Creates a function with the given symbolic parameters.
    pub fn new(name: &str, params: &[&str]) -> Function {
        Function {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            comps: Vec::new(),
            buffers: Vec::new(),
            comm: Vec::new(),
        }
    }

    /// Declares an iterator (`Var i(0, N-2)`).
    pub fn var(&self, name: &str, lo: impl Into<Expr>, hi: impl Into<Expr>) -> Var {
        Var::new(name, lo, hi)
    }

    /// A 64-bit structural fingerprint of the function: name, parameters,
    /// every computation's Layer I–III state (domains and schedules as
    /// their constraint rows, tags sorted by name), the buffer table, and
    /// the Layer IV communication ops.
    ///
    /// It is one walk of the function's `Hash` into an
    /// [`artifacts::KeyHasher`], which has no per-process seed: two
    /// structurally identical functions produce the same value in any
    /// process, so the value can key the persistent artifact cache
    /// ([`crate::service`]). Any scheduling command, tag, store mapping,
    /// or expression edit changes it, an `f32` constant by its bits.
    /// Changing what is hashed or how changes every key: an existing
    /// cache directory then misses once and keeps its old files as
    /// orphans.
    pub fn fingerprint(&self) -> u64 {
        let mut h = artifacts::KeyHasher::default();
        self.hash(&mut h);
        h.finish()
    }

    /// Declares an external input over the given iterators. The input's
    /// values live in a buffer sized from the iterator bounds and filled by
    /// the caller before execution.
    ///
    /// # Errors
    ///
    /// [`Error::NotAffine`] when a bound is not affine in the parameters.
    pub fn input(&mut self, name: &str, vars: &[Var]) -> Result<CompId> {
        self.add_comp(name, vars, None, CompKind::Input)
    }

    /// Declares a computation (`Computation bx(i, j, c); bx(...) = expr`).
    ///
    /// # Errors
    ///
    /// [`Error::NotAffine`] when a bound is not affine in the parameters.
    pub fn computation(&mut self, name: &str, vars: &[Var], expr: Expr) -> Result<CompId> {
        self.add_comp(name, vars, Some(expr), CompKind::Computation)
    }

    pub(crate) fn add_comp(
        &mut self,
        name: &str,
        vars: &[Var],
        expr: Option<Expr>,
        kind: CompKind,
    ) -> Result<CompId> {
        let iters: Vec<String> = vars.iter().map(|v| v.name.clone()).collect();
        let iter_refs: Vec<&str> = iters.iter().map(|s| s.as_str()).collect();
        let param_refs: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        let space = Space::set(name, &iter_refs, &param_refs);
        let n = space.n_cols();
        let mut cons = Vec::new();
        for (d, v) in vars.iter().enumerate() {
            let lo = v
                .lo
                .as_affine(&[], &self.params)
                .ok_or_else(|| Error::NotAffine(format!("lower bound of {}", v.name)))?;
            let hi = v
                .hi
                .as_affine(&[], &self.params)
                .ok_or_else(|| Error::NotAffine(format!("upper bound of {}", v.name)))?;
            // iter - lo >= 0 ; widen bound affs from [params,1] to full cols.
            let lo_w = widen_param_aff(&lo, iters.len(), n);
            let hi_w = widen_param_aff(&hi, iters.len(), n);
            cons.push(Constraint::ineq(Aff::var(n, d).sub(&lo_w)));
            // hi - 1 - iter >= 0
            cons.push(Constraint::ineq(
                hi_w.sub(&Aff::var(n, d)).add(&Aff::constant(n, -1)),
            ));
        }
        let domain = BasicSet::from_constraints(space, cons);
        let (dyn_names, sched, betas) = Computation::identity_schedule(&domain);
        // New top-level statements are ordered after existing ones.
        let mut betas = betas;
        betas[0] = self
            .comps
            .iter()
            .filter(|c| c.kind == CompKind::Computation)
            .map(|c| c.betas[0] + 1)
            .max()
            .unwrap_or(0);
        self.comps.push(Computation {
            name: name.to_string(),
            kind,
            iters,
            domain,
            expr,
            predicate: None,
            dyn_names,
            sched,
            betas,
            tags: HashMap::new(),
            inlined: false,
            redundant: false,
            store_buffer: None,
            store_idx: None,
        });
        Ok(CompId((self.comps.len() - 1) as u32))
    }

    /// Builds an access expression `comp(idx...)`.
    pub fn access(&self, comp: CompId, idx: &[Expr]) -> Expr {
        Expr::Access(comp, idx.to_vec())
    }

    /// Attaches a predicate (non-affine conditional, §V-B) to a
    /// computation: it executes only where `pred` is non-zero.
    pub fn set_predicate(&mut self, comp: CompId, pred: Expr) {
        self.comps[comp.index()].predicate = Some(pred);
    }

    /// Declares a buffer (`Buffer b(sizes, type)`).
    pub fn buffer(&mut self, name: &str, extents: &[Expr]) -> BufId {
        self.buffers.push(Buffer {
            name: name.to_string(),
            extents: extents.to_vec(),
            space: MemSpace::Host,
        });
        BufId((self.buffers.len() - 1) as u32)
    }

    /// Tags a buffer's memory space (`b.tag_gpu_shared()` etc.).
    pub fn tag_buffer(&mut self, buf: BufId, space: MemSpace) {
        self.buffers[buf.index()].space = space;
    }

    /// `C.store_in(b, {e...})`: stores `C(i...)` into `b[e...]` where the
    /// index expressions are over C's original iterators. This is the
    /// Layer III data-mapping command (SOA/AOS layouts, contraction,
    /// modulo storage are all expressible).
    pub fn store_in(&mut self, comp: CompId, buf: BufId, idx: &[Expr]) {
        let c = &mut self.comps[comp.index()];
        c.store_buffer = Some(buf);
        c.store_idx = Some(idx.to_vec());
    }

    /// `C.buffer()` (Table II): the buffer a computation stores into, when
    /// one has been assigned with `store_in`.
    pub fn buffer_of(&self, comp: CompId) -> Option<BufId> {
        self.comps[comp.index()].store_buffer
    }

    /// `b.set_size(sizes)` (Table II): replaces a buffer's extents.
    pub fn set_buffer_size(&mut self, buf: BufId, extents: &[Expr]) {
        self.buffers[buf.index()].extents = extents.to_vec();
    }

    /// Looks up a computation by id.
    pub fn comp(&self, id: CompId) -> &Computation {
        &self.comps[id.index()]
    }

    /// Mutable access to a computation.
    pub fn comp_mut(&mut self, id: CompId) -> &mut Computation {
        &mut self.comps[id.index()]
    }

    /// Looks up a computation id by name.
    pub fn comp_by_name(&self, name: &str) -> Option<CompId> {
        self.comps
            .iter()
            .position(|c| c.name == name)
            .map(|i| CompId(i as u32))
    }
}

/// Widens an affine expression over `[params..., 1]` to `[n_iters dims,
/// params..., 1]`.
pub(crate) fn widen_param_aff(a: &Aff, n_iters: usize, n_cols: usize) -> Aff {
    debug_assert_eq!(a.n_cols() + n_iters, n_cols);
    a.insert_cols(0, n_iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blur_layer1_domains() {
        let mut f = Function::new("blur", &["N", "M"]);
        let i = f.var("i", 0, Expr::param("N") - Expr::i64(2));
        let j = f.var("j", 0, Expr::param("M") - Expr::i64(2));
        let c = f.var("c", 0, 3);
        let input = f.input("in", &[i.clone(), j.clone(), c.clone()]).unwrap();
        let bx = f
            .computation(
                "bx",
                &[i.clone(), j.clone(), c.clone()],
                (f.access(input, &[Expr::iter("i"), Expr::iter("j"), Expr::iter("c")])
                    + f.access(
                        input,
                        &[Expr::iter("i"), Expr::iter("j") + Expr::i64(1), Expr::iter("c")],
                    )
                    + f.access(
                        input,
                        &[Expr::iter("i"), Expr::iter("j") + Expr::i64(2), Expr::iter("c")],
                    ))
                    / Expr::f32(3.0),
            )
            .unwrap();
        assert_eq!(f.comp(bx).iters, vec!["i", "j", "c"]);
        // Domain with N=10, M=10: i in 0..8.
        let dom = f.comp(bx).domain.fix_param(0, 10).fix_param(1, 10);
        assert_eq!(dom.dim_max(0), Some(7));
        assert_eq!(dom.dim_max(2), Some(2));
        // Fresh identity schedule has 3 dynamic dims and 4 betas.
        assert_eq!(f.comp(bx).dyn_names.len(), 3);
        assert_eq!(f.comp(bx).betas.len(), 4);
        // bx is the first computation (input doesn't count): beta0 = 0.
        assert_eq!(f.comp(bx).betas[0], 0);
    }

    #[test]
    fn sequential_computations_get_increasing_beta0() {
        let mut f = Function::new("two", &[]);
        let i = f.var("i", 0, 10);
        let a = f.computation("a", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let b = f.computation("b", std::slice::from_ref(&i), Expr::f32(2.0)).unwrap();
        assert_eq!(f.comp(a).betas[0], 0);
        assert_eq!(f.comp(b).betas[0], 1);
    }

    #[test]
    fn non_affine_bound_rejected() {
        let mut f = Function::new("bad", &["N"]);
        let i = Var::new("i", Expr::i64(0), Expr::param("N") * Expr::param("N"));
        assert!(matches!(
            f.computation("c", &[i], Expr::f32(0.0)),
            Err(Error::NotAffine(_))
        ));
    }

    #[test]
    fn store_in_records_layout() {
        let mut f = Function::new("soa", &[]);
        let i = f.var("i", 0, 4);
        let c = f.var("c", 0, 3);
        let comp = f.computation("x", &[i.clone(), c.clone()], Expr::f32(0.0)).unwrap();
        let b = f.buffer("xb", &[Expr::i64(3), Expr::i64(4)]);
        // SOA: x(i, c) stored at xb[c, i].
        f.store_in(comp, b, &[Expr::iter("c"), Expr::iter("i")]);
        assert_eq!(f.comp(comp).store_buffer, Some(b));
        assert_eq!(
            f.comp(comp).store_idx.as_deref(),
            Some(&[Expr::iter("c"), Expr::iter("i")][..])
        );
    }
}
