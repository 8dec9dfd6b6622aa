//! Bytecode → x86-64 code generation.
//!
//! One native function is emitted for the program (prologue + body) plus
//! one per `Parallel` loop (its per-iteration preamble + body, invoked by
//! worker threads through [`super::runtime::jit_par_dispatch`]). All
//! functions share one code buffer; loop back-edges are direct `jmp`s.
//!
//! # Conventions
//!
//! - `r15` = `JitCtx` pointer, `r14` = variable frame, `r13` = buffer
//!   descriptor table; `rax`/`rcx`/`rdx` and `xmm0`/`xmm1` are statement
//!   scratch. Everything else is allocated by [`super::regalloc`].
//! - Every function returns a `u64` status: `0` ok, `1`/`2` error/panic
//!   already recorded in the host, `id + 3` for deopt stub `id`.
//! - Loads and stores that [`super::bounds`] proves in range are plain
//!   moves. The other trapping instructions (unproven loads/stores,
//!   `div`/`rem`, checked `neg`/`abs`) compare inline and jump to an
//!   out-of-line stub that writes the operand values into the ctx deopt
//!   slots and returns the stub's code; the host then *replays* the
//!   operation through the interpreter's own scalar helpers, so error
//!   payloads and panic messages are identical to bytecode execution by
//!   construction. The listing names why each kept bounds guard stayed.
//! - Vectorized loops are compiled chunk by chunk (8 lanes), inst-major
//!   like the interpreter. Each chunk instruction is emitted once per
//!   *lane shape* (see [`Shape`]), not once per lane: uniform and linear
//!   results are computed for lane 0 only, in the register's scalar home;
//!   a varying `f32` value lives in an XMM pair and its arithmetic is two
//!   packed SSE operations in place on the pairs; a load/store whose
//!   index is linear takes one range guard for all eight lanes and moves
//!   a pair's halves directly. Per-lane code remains for varying integer
//!   values (kept in 8-lane stack arrays), gathers and the helper-call
//!   operations, and — out of line behind the function's `ret` — as the
//!   path a failing range guard jumps to, which finds the first failing
//!   lane exactly as before (a proven access has neither guard nor path).
//!   Per-lane code reads and writes `f32` lanes through the register's
//!   lane array: a pair is written back to it
//!   before the first per-lane read in a chunk (or on the way into a
//!   store's slow path) and reloaded from it after per-lane code defined
//!   it. A varying register without a pair lives in its array. The
//!   scalar remainder loop is emitted separately and is the only part
//!   that writes the loop variable's frame slot.
//!
//! # Lane shapes
//!
//! Why emitting once per shape is exact (DESIGN.md §14 has the long form):
//! the interpreter runs a chunk inst-major, so the eight lanes of one
//! instruction execute back to back; when their operands are equal, lane
//! 0 traps first with the payload any lane would carry, so a *uniform*
//! result (and its guard) is computed once. `apply_i` wraps, so `+`, `-`
//! and `· const` are ring homomorphisms on `i64` and a *linear* value
//! `lane 0 + l·s` stays linear under them. `% 2^k` and `/ 2^k` keep that
//! only when the eight lanes share everything above the low bits: lane 0
//! has `t` proved trailing zeros and `7·s < 2^min(t, k)`, so adding `l·s`
//! never carries out of the bits the mask keeps and the shift drops.
//!
//! # Steady chunks
//!
//! A `min`/`max` of a linear value and a uniform one (a [`Clamp`]) is
//! varying, and so is every access it indexes, although a clamp like
//! conv2D's `clamp(j + kx, 0, W − 1)` binds only at the ends of a row. A
//! chunk with a clamp before its first store is emitted twice: a *steady*
//! copy, in which each such clamp keeps its linear operand's shape behind
//! a test that no lane wraps and that lane 0 and lane 7 lie on the side
//! of the bound the result ignores, and the *general* copy above. A
//! failing test jumps to the general copy's start; the steady copy ran
//! no store before it and computed what the general copy computes, so the
//! restart is exact. DESIGN.md §14 has the argument in full.

use super::asm::{Asm, Cc, Gpr, Label, Mem, Xmm};
use super::bounds::{self, Kept, Proofs};
use super::regalloc::{allocate, compute_pins, FnAlloc, FnCode, Home, Varying};
use super::runtime::{
    self, Deopt, JitProgram, CTX_BUFS, CTX_DEOPT_A, CTX_DEOPT_B, CTX_FRAME, CTX_IPIN,
};
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::expr::{BinOp, UnOp};
use crate::program::LoopKind;
use crate::vm::{bc_body_vectorizable, LANES};

/// Compiles a bytecode program to native code. Returns `None` when the
/// program uses a register pattern the allocator does not model (the
/// caller falls back to the bytecode interpreter).
pub fn compile(bc: &BcProgram) -> Option<JitProgram> {
    let e = emit(bc, Asm::new())?;
    let steady = super::SteadyCost { chunks: e.steady_chunks, cost: e.a.steady };
    JitProgram::new(e.a.code, e.main_off, e.par_fns, e.deopts, (e.a.chunk, steady), e.guards, bc)
}

/// The per-instruction x86-64 listing of the code [`compile`] generates
/// for `bc` (the golden-test disassembly format), or `None` where
/// [`compile`] returns `None`. Built on demand by the same emitter with
/// its text recording switched on, so [`compile`] itself formats nothing.
pub fn listing(bc: &BcProgram) -> Option<String> {
    emit(bc, Asm::with_listing())?.a.listing()
}

/// Everything one emitter run produces.
struct Emitted {
    /// The finished encoder (code bytes, and text if it was listing).
    a: Asm,
    main_off: usize,
    par_fns: Vec<(usize, u32)>,
    deopts: Vec<Deopt>,
    guards: super::GuardCounts,
    /// Vector chunks emitted with a steady copy.
    steady_chunks: usize,
}

fn emit(bc: &BcProgram, a: Asm) -> Option<Emitted> {
    let proofs = bounds::prove(bc);
    let pins = compute_pins(bc);
    let mut lanes = Lanes::new(bc);
    let varying = lanes.varying(bc);
    let main_alloc =
        allocate(bc, &FnCode::Main { prologue: &bc.prologue, body: &bc.body }, &pins, &varying)?;
    let mut e = Emit {
        a,
        bc,
        alloc: main_alloc,
        next_slot: 0,
        exit: Label::INVALID,
        stubs: Vec::new(),
        slow: Vec::new(),
        deopts: Vec::new(),
        pending: Vec::new(),
        next_par_id: 0,
        lane: None,
        chunk: None,
        restart: None,
        steady_chunks: 0,
        synced: vec![false; bc.n_fregs as usize],
        lanes,
        proofs,
    };
    let main_off = e.a.here();
    e.emit_fn(None);
    let mut par_fns = Vec::new();
    let mut i = 0;
    while i < e.pending.len() {
        let w = e.pending[i];
        let alloc = allocate(
            bc,
            &FnCode::ParBody { preamble: w.preamble, body: w.body },
            &pins,
            &varying,
        )?;
        e.alloc = alloc;
        let off = e.a.here();
        e.emit_fn(Some((i, w)));
        par_fns.push((off, w.var));
        i += 1;
    }
    e.a.finish();
    Some(Emitted {
        a: e.a,
        main_off,
        par_fns,
        deopts: e.deopts,
        guards: e.proofs.guards,
        steady_chunks: e.steady_chunks,
    })
}

/// A `Parallel` loop queued for emission as its own function.
#[derive(Clone, Copy)]
struct ParWork<'a> {
    var: u32,
    preamble: &'a [Inst],
    body: &'a [BcStmt],
}

/// Active vector-chunk context.
#[derive(Clone, Copy)]
struct ChunkCtx {
    /// Loop variable of the vectorized loop.
    var: u32,
    /// Stack slot holding the chunk's base iteration value.
    v_slot: i32,
    /// Register holding the loop's lower bound (chunk bases are `lo + 8n`).
    lo: Reg,
}

/// How the eight lane values of a register defined inside a vectorized
/// chunk relate. Registers defined outside the chunk are uniform; they and
/// the uniform and linear chunk registers keep lane 0 in their scalar
/// home (a pinned chunk register in slot 0 of its lane array). Varying
/// ones fill an XMM pair (`f32`) or all eight slots of their lane array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// All lanes equal.
    Uniform,
    /// Lane `l` = lane 0 + `l·s` (wrapping), `0 < |s| <= MAX_STRIDE`.
    Linear(i32),
    /// No known relation (every `f32` result that is not uniform).
    Varying,
}

/// Largest `|s|` of a [`Shape::Linear`]: keeps the per-lane index offsets
/// `l·s` and byte displacements `4·l·s` (`l < 8`) inside an `imm32`.
const MAX_STRIDE: i64 = i32::MAX as i64 / (4 * (LANES as i64 - 1));

/// `k` when `c == 2^k` with `k >= 1`: the divisors for which
/// `a.rem_euclid(c) == a & (c - 1)` and `a.div_euclid(c) == a >> k` hold
/// for every `i64`.
fn pow2(c: i64) -> Option<u32> {
    (c > 1 && c & (c - 1) == 0).then(|| c.trailing_zeros())
}

/// What the emitter knows about register values: program-wide facts
/// about single-assignment registers and, on top of them, the lane shapes
/// and lane-0 facts of the chunk being emitted.
struct Lanes {
    /// The value of every i-register whose one definition is a `ConstI`.
    consts: Vec<Option<i64>>,
    /// A lower bound on each i-register's trailing zero bits, proved for
    /// every value the register takes. The optimizer emits SSA, a decoded
    /// artifact need not be: a register defined twice keeps no fact.
    tz: Vec<u8>,
    /// i-registers with more than one definition.
    redefined: Vec<bool>,
    /// Shape per register defined so far in the current chunk; `None` for
    /// registers defined outside it (the static mirror of the
    /// interpreter's per-chunk broadcast of outside registers — chunks
    /// are straight-line).
    i: Vec<Option<Shape>>,
    f: Vec<Option<Shape>>,
    /// The trailing-zero bound of lane 0, per i-register defined so far in
    /// the current chunk. Chunk bases are aligned, the iterations of the
    /// scalar remainder loop are not, so these never enter `tz`.
    lane0_tz: Vec<Option<u8>>,
    /// Shapes are those of a steady copy: a [`Clamp`] is linear.
    steady: bool,
    /// The current chunk has passed a store: no later `min`/`max` is a
    /// [`Clamp`].
    stored: bool,
}

/// A `min`/`max` of a `Linear(s)` value `x` and a uniform value `u` that
/// no store of the chunk precedes. Where lanes 0 and 7 of `x` lie on the
/// same side of `u` and `x`'s lanes do not wrap, the result is `x` in
/// every lane: the steady copy gives it `x`'s shape behind that test.
#[derive(Debug, Clone, Copy)]
struct Clamp {
    dst: Reg,
    op: BinOp,
    x: Reg,
    u: Reg,
    s: i32,
}

impl Clamp {
    /// Lane 7's offset from lane 0.
    fn lane7(self) -> i32 {
        (LANES as i32 - 1) * self.s
    }

    /// Whether the test compares lane 7 with `u` (else lane 0): the lowest
    /// lane for a `max`, the highest for a `min`.
    fn tests_lane7(self) -> bool {
        (self.op == BinOp::Min) == (self.s > 0)
    }
}

impl Lanes {
    /// Two forward passes over the whole program: count definitions, then
    /// derive the facts of the registers that have one.
    fn new(bc: &BcProgram) -> Lanes {
        let (n_i, n_f) = (bc.n_iregs as usize, bc.n_fregs as usize);
        let mut defs = vec![0u8; n_i];
        bc.for_each_inst(&mut |inst| {
            if let (File::I, dst) = inst.dst() {
                defs[dst as usize] = defs[dst as usize].saturating_add(1);
            }
        });
        let mut l = Lanes {
            consts: vec![None; n_i],
            tz: vec![0; n_i],
            redefined: defs.iter().map(|&n| n > 1).collect(),
            i: vec![None; n_i],
            f: vec![None; n_f],
            lane0_tz: vec![None; n_i],
            steady: false,
            stored: false,
        };
        bc.for_each_inst(&mut |inst| {
            if let (File::I, dst) = inst.dst() {
                if let (Inst::ConstI { v, .. }, false) = (*inst, l.redefined[dst as usize]) {
                    l.consts[dst as usize] = Some(v);
                }
                l.tz[dst as usize] = l.result_tz(inst);
            }
        });
        l
    }

    /// Which registers the vectorized chunks of `bc` define with the
    /// `Varying` shape — what the allocator gives pairs and lane arrays.
    /// The same forward walk as [`Emit::emit_chunk`]'s, so the emitter
    /// meets exactly these shapes again.
    fn varying(&mut self, bc: &BcProgram) -> Varying {
        fn block(l: &mut Lanes, body: &[BcStmt], v: &mut Varying) {
            for s in body {
                match s {
                    BcStmt::For { var, lower, kind, preamble, body, .. }
                        if matches!(kind, LoopKind::Vectorize(_)) && bc_body_vectorizable(body) =>
                    {
                        let c = ChunkCtx { var: *var, v_slot: 0, lo: lower.reg };
                        let code = body.iter().flat_map(|s| match s {
                            BcStmt::Let { code, .. } | BcStmt::Store { code, .. } => code.iter(),
                            _ => unreachable!("checked by bc_body_vectorizable"),
                        });
                        l.reset_chunk();
                        for inst in preamble.iter().chain(code) {
                            if l.define(inst, c) == Shape::Varying {
                                match inst.dst() {
                                    (File::I, dst) => v.i[dst as usize] = true,
                                    (File::F, dst) => v.f[dst as usize] = true,
                                }
                            }
                        }
                        l.reset_chunk();
                    }
                    BcStmt::For { body, .. } => block(l, body, v),
                    BcStmt::If { then, else_, .. } => {
                        block(l, then, v);
                        block(l, else_, v);
                    }
                    BcStmt::Store { .. } | BcStmt::Let { .. } => {}
                }
            }
        }
        let mut v = Varying { i: vec![false; self.i.len()], f: vec![false; self.f.len()] };
        block(self, &bc.body, &mut v);
        v
    }

    /// The bound on `r` in force where the emitter stands: lane 0's inside
    /// a chunk that defined `r`, else the program-wide one.
    fn tz(&self, r: Reg) -> u8 {
        self.lane0_tz[r as usize].unwrap_or(self.tz[r as usize])
    }

    /// Transfer function of the trailing-zero bound (wrapping arithmetic:
    /// a sum is divisible by the smaller power of two, a product by their
    /// product).
    fn result_tz(&self, inst: &Inst) -> u8 {
        match *inst {
            Inst::ConstI { dst, .. } | Inst::BinI { dst, .. } if self.redefined[dst as usize] => 0,
            Inst::ConstI { v: 0, .. } => 63,
            Inst::ConstI { v, .. } => v.trailing_zeros() as u8,
            Inst::BinI { op: BinOp::Add | BinOp::Sub, a, b, .. } => self.tz(a).min(self.tz(b)),
            Inst::BinI { op: BinOp::Mul, a, b, .. } => (self.tz(a) + self.tz(b)).min(63),
            _ => 0,
        }
    }

    /// Forgets the chunk: every register is uniform again and no lane-0
    /// fact outlives the code it was proved for.
    fn reset_chunk(&mut self) {
        self.i.iter_mut().for_each(|s| *s = None);
        self.f.iter_mut().for_each(|s| *s = None);
        self.lane0_tz.iter_mut().for_each(|t| *t = None);
        self.stored = false;
    }

    /// `inst` as a [`Clamp`], given the shapes defined so far.
    fn clamp(&self, inst: &Inst) -> Option<Clamp> {
        let Inst::BinI { dst, op: op @ (BinOp::Min | BinOp::Max), a, b } = *inst else {
            return None;
        };
        match (self.stored, self.shape_i(a), self.shape_i(b)) {
            (false, Shape::Linear(s), Shape::Uniform) => Some(Clamp { dst, op, x: a, u: b, s }),
            (false, Shape::Uniform, Shape::Linear(s)) => Some(Clamp { dst, op, x: b, u: a, s }),
            _ => None,
        }
    }

    /// The clamps a steady copy of the chunk of loop `c` would test, in
    /// order (none: the chunk gets no steady copy).
    fn steady_clamps(&mut self, c: ChunkCtx, preamble: &[Inst], body: &[BcStmt]) -> Vec<Clamp> {
        self.reset_chunk();
        self.steady = true;
        let mut found = Vec::new();
        let mut visit = |l: &mut Lanes, insts: &[Inst]| {
            for inst in insts {
                found.extend(l.clamp(inst));
                l.define(inst, c);
            }
        };
        visit(self, preamble);
        // Up to the first store: no later min/max is a clamp.
        for s in body {
            let (BcStmt::Let { code, .. } | BcStmt::Store { code, .. }) = s else {
                unreachable!("checked by bc_body_vectorizable")
            };
            visit(self, code);
            if matches!(s, BcStmt::Store { .. }) {
                break;
            }
        }
        self.steady = false;
        self.reset_chunk();
        found
    }

    fn shape_i(&self, r: Reg) -> Shape {
        self.i[r as usize].unwrap_or(Shape::Uniform)
    }

    fn shape_f(&self, r: Reg) -> Shape {
        self.f[r as usize].unwrap_or(Shape::Uniform)
    }

    /// What a steady copy assumes, for the listing: per chain of nested
    /// clamps, the register its result equals and the tests that make it
    /// so, e.g. `i19 = i17 while i17 ≥ 0 ∧ i17+7 ≤ 47` for
    /// `i19 = min(max(i17, 0), 47)` with `i17` of stride 1.
    fn assumptions(&self, clamps: &[Clamp]) -> Vec<String> {
        // `(result, root, tests)`: a clamp of an earlier result extends
        // that chain, whose root its operand equals where the tests hold.
        let mut chains: Vec<(Reg, Reg, Vec<String>)> = Vec::new();
        for k in clamps {
            let (root, mut tests) = match chains.iter().position(|ch| ch.0 == k.x) {
                Some(at) => {
                    let (_, root, tests) = chains.remove(at);
                    (root, tests)
                }
                None => (k.x, Vec::new()),
            };
            let end = if k.tests_lane7() {
                format!("i{root}{:+}", k.lane7())
            } else {
                format!("i{root}")
            };
            let rel = if k.op == BinOp::Max { '≥' } else { '≤' };
            let u = self.consts[k.u as usize].map_or(format!("i{}", k.u), |v| v.to_string());
            tests.push(format!("{end} {rel} {u}"));
            chains.push((k.dst, root, tests));
        }
        let line = |(dst, root, tests): &(Reg, Reg, Vec<String>)| {
            format!("i{dst} = i{root} while {}", tests.join(" ∧ "))
        };
        chains.iter().map(line).collect()
    }

    /// Records and returns the shape of `inst`'s destination inside the
    /// chunk of loop `c` (forward over preamble + statement code, so every
    /// operand's shape is already known).
    fn define(&mut self, inst: &Inst, c: ChunkCtx) -> Shape {
        let uniform_srcs = inst.srcs().into_iter().flatten().all(|(file, r)| {
            Shape::Uniform
                == match file {
                    File::I => self.shape_i(r),
                    File::F => self.shape_f(r),
                }
        });
        let loop_var = matches!(*inst, Inst::ReadVar { var, .. } if var == c.var);
        let clamp = if self.steady { self.clamp(inst) } else { None };
        let shape = match *inst {
            _ if loop_var => Shape::Linear(1),
            // Includes constants, other variables and uniform-index loads.
            _ if uniform_srcs => Shape::Uniform,
            // A clamp is linear in a steady copy, which tests it.
            Inst::BinI { op, a, b, .. } => (clamp.map(|k| Shape::Linear(k.s)))
                .or_else(|| self.linear(op, a, b))
                .unwrap_or(Shape::Varying),
            _ => Shape::Varying,
        };
        match inst.dst() {
            (File::I, dst) => {
                self.i[dst as usize] = Some(shape);
                // Lane 0 of the loop variable is the chunk base `lo + 8n`.
                let tz = if loop_var { self.tz(c.lo).min(3) } else { self.result_tz(inst) };
                self.lane0_tz[dst as usize] = Some(tz);
            }
            (File::F, dst) => self.f[dst as usize] = Some(shape),
        }
        shape
    }

    /// The shape of `op(a, b)` when it is a compile-time-linear function
    /// of the lane index.
    fn linear(&self, op: BinOp, a: Reg, b: Reg) -> Option<Shape> {
        let stride = |r: Reg| match self.shape_i(r) {
            Shape::Uniform => Some(0i64),
            Shape::Linear(s) => Some(s as i64),
            Shape::Varying => None,
        };
        let (sa, sb) = (stride(a)?, stride(b)?);
        let s = match op {
            BinOp::Add => sa + sb,
            BinOp::Sub => sa - sb,
            BinOp::Mul => match (sa, sb) {
                (s, 0) => s.checked_mul(self.consts[b as usize]?)?,
                (0, s) => s.checked_mul(self.consts[a as usize]?)?,
                _ => return None,
            },
            BinOp::Div | BinOp::Rem => {
                // Lane 0 has `t` trailing zeros and `7·s < 2^t`, `t <= k`:
                // adding `l·s` never carries out of the low `t` bits, which
                // `% 2^k` keeps verbatim and `/ 2^k` drops.
                let k = pow2(self.consts[b as usize]?)?;
                let t = k.min(self.tz(a) as u32);
                if sb != 0 || sa <= 0 || (LANES as i64 - 1) * sa >= 1i64 << t {
                    return None;
                }
                if op == BinOp::Rem {
                    sa
                } else {
                    0
                }
            }
            _ => return None,
        };
        match s {
            0 => Some(Shape::Uniform),
            s if s.unsigned_abs() <= MAX_STRIDE as u64 => Some(Shape::Linear(s as i32)),
            _ => None,
        }
    }
}

/// A load/store with a linear index: the per-lane sequence a failing
/// range guard jumps to, emitted behind the function's `ret`.
struct SlowPath {
    entry: Label,
    cont: Label,
    op: MemOp,
    /// The shapes the access saw (the table has moved on by the time the
    /// path is emitted).
    idx_shape: Shape,
    val_shape: Option<Shape>,
    /// The stored value's pair is not yet in its lane array, where the
    /// per-lane stores read it.
    write_back: bool,
    /// Why the access is guarded.
    why: Kept,
}

#[derive(Clone, Copy)]
enum MemOp {
    Load { dst: Reg, buf: u32, idx: Reg },
    Store { buf: u32, idx: Reg, val: Reg },
}

impl MemOp {
    /// `(buffer, index register, stored value register)`.
    fn parts(self) -> (u32, Reg, Option<Reg>) {
        match self {
            MemOp::Load { buf, idx, .. } => (buf, idx, None),
            MemOp::Store { buf, idx, val } => (buf, idx, Some(val)),
        }
    }
}

struct Emit<'a> {
    a: Asm,
    bc: &'a BcProgram,
    /// Allocation of the function currently being emitted.
    alloc: FnAlloc,
    /// Next `loop_slots` pair to hand out (walk order, matches regalloc).
    next_slot: usize,
    /// The current function's shared epilogue (expects the status in rax).
    exit: Label,
    /// Deopt stubs to emit after the current function's `ret`.
    stubs: Vec<(Label, usize)>,
    /// Per-lane paths of range-guarded accesses, emitted before the stubs.
    slow: Vec<SlowPath>,
    /// Program-wide deopt table (ids are stub return code − 3).
    deopts: Vec<Deopt>,
    /// Parallel loops discovered so far, in dispatch-id order.
    pending: Vec<ParWork<'a>>,
    next_par_id: usize,
    /// The lane whose value chunk code is computing (`Some(0)` for a
    /// once-per-chunk uniform/linear result); `None` outside chunks.
    lane: Option<usize>,
    chunk: Option<ChunkCtx>,
    /// While a steady copy is emitted: the general copy of the same chunk,
    /// where a failing clamp test restarts.
    restart: Option<Label>,
    /// Vector chunks emitted with a steady copy so far.
    steady_chunks: usize,
    /// Per f-register: its pair has been written to (or loaded from) its
    /// lane array in the current chunk, so the two agree until the chunk
    /// ends (registers are defined once per chunk).
    synced: Vec<bool>,
    lanes: Lanes,
    /// Which accesses carry no bounds guard.
    proofs: Proofs,
}

const SAVED: [Gpr; 6] = [Gpr::Rbx, Gpr::Rbp, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15];

impl<'a> Emit<'a> {
    fn emit_fn(&mut self, par: Option<(usize, ParWork<'a>)>) {
        match par {
            None => self.a.comment(|| "fn main(ctx)".to_string()),
            Some((id, _)) => self.a.comment(|| format!("fn par{id}(ctx, lo, hi)")),
        }
        self.next_slot = 0;
        for r in SAVED {
            self.a.push_r(r);
        }
        let frame = self.alloc.frame_size;
        self.a.sub_ri(Gpr::Rsp, frame);
        self.a.mov_rr(Gpr::R15, Gpr::Rdi);
        self.a.mov_rm(Gpr::R14, Mem::base(Gpr::R15, CTX_FRAME));
        self.a.mov_rm(Gpr::R13, Mem::base(Gpr::R15, CTX_BUFS));
        self.exit = self.a.new_label();
        match par {
            None => {
                let prologue = &self.bc.prologue;
                let body = &self.bc.body;
                self.emit_insts(prologue);
                self.emit_block(body);
            }
            Some((_, w)) => {
                // Bounds arrive in rsi/rdx; iterate like the interpreter's
                // per-worker range loop.
                let (vs, hs) = self.alloc.loop_slots[0];
                self.next_slot = 1;
                self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rsi);
                self.a.mov_mr(Mem::base(Gpr::Rsp, hs), Gpr::Rdx);
                self.emit_counted_loop(vs, hs, w.var, w.preamble, w.body);
            }
        }
        self.a.xor_rr(Gpr::Rax, Gpr::Rax);
        self.a.bind(self.exit);
        self.a.add_ri(Gpr::Rsp, frame);
        for r in SAVED.iter().rev() {
            self.a.pop_r(*r);
        }
        self.a.ret();
        for sp in std::mem::take(&mut self.slow) {
            self.emit_slow_path(sp);
        }
        for (label, id) in std::mem::take(&mut self.stubs) {
            self.a.bind(label);
            self.a.mov_mr(Mem::base(Gpr::R15, CTX_DEOPT_A), Gpr::Rax);
            self.a.mov_mr(Mem::base(Gpr::R15, CTX_DEOPT_B), Gpr::Rcx);
            self.a.mov_ri(Gpr::Rax, (id + 3) as i64);
            self.a.jmp(self.exit);
        }
    }

    // -- operand access ------------------------------------------------------

    /// Reads i-register `r` — in a chunk, its value in the current lane —
    /// into `dst` (uses `dst` itself for the ctx pin-array indirection, so
    /// any scratch register works).
    fn read_i(&mut self, dst: Gpr, r: Reg) {
        if let (Some(l), Some(shape)) = (self.lane, self.lanes.i[r as usize]) {
            let (slot, add) = match shape {
                Shape::Varying => (l, 0),
                Shape::Uniform => (0, 0),
                Shape::Linear(s) => (0, l as i32 * s),
            };
            match self.lane_array_i(r) {
                None => self.read_i_home(dst, r),
                Some(arr) => self.a.mov_rm(dst, Mem::base(Gpr::Rsp, arr + (slot * 8) as i32)),
            }
            if add != 0 {
                self.a.add_ri(dst, add);
            }
            return;
        }
        self.read_i_home(dst, r);
    }

    /// The lane array chunk code keeps i-register `r` in: all eight lanes
    /// of a varying value, lane 0 of a pinned one. Otherwise lane 0 is in
    /// the scalar home — also for a register the steady copy of a chunk
    /// makes linear, which has a lane array for the general copy.
    fn lane_array_i(&self, r: Reg) -> Option<i32> {
        let arr = self.alloc.lanes_i[r as usize];
        let varying = self.lanes.i[r as usize] == Some(Shape::Varying);
        (arr >= 0 && (varying || self.alloc.homes_i[r as usize] == Home::Ctx)).then_some(arr)
    }

    /// Reads i-register `r`'s scalar home into `dst`.
    fn read_i_home(&mut self, dst: Gpr, r: Reg) {
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => self.a.mov_rr(dst, g),
            Home::Stack(off) => self.a.mov_rm(dst, Mem::base(Gpr::Rsp, off)),
            // A pinned constant is rematerialized, not chased through the
            // ctx pin array.
            Home::Ctx => match self.lanes.consts[r as usize] {
                Some(v) => self.a.mov_ri(dst, v),
                None => {
                    self.a.mov_rm(dst, Mem::base(Gpr::R15, CTX_IPIN));
                    self.a.mov_rm(dst, Mem::base(dst, r as i32 * 8));
                }
            },
            Home::Xmm(_) | Home::Pair(..) | Home::Unused => unreachable!("i-reg read from {:?}", r),
        }
    }

    /// Writes rax to i-register `r` — in a chunk, its value in the current
    /// lane (lane 0 of a uniform or linear register) — (clobbers rcx for
    /// ctx homes).
    fn write_i(&mut self, r: Reg) {
        if let (Some(l), Some(arr)) = (self.lane, self.lane_array_i(r)) {
            self.a.mov_mr(Mem::base(Gpr::Rsp, arr + (l * 8) as i32), Gpr::Rax);
            return;
        }
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => self.a.mov_rr(g, Gpr::Rax),
            Home::Stack(off) => self.a.mov_mr(Mem::base(Gpr::Rsp, off), Gpr::Rax),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R15, CTX_IPIN));
                self.a.mov_mr(Mem::base(Gpr::Rcx, r as i32 * 8), Gpr::Rax);
            }
            Home::Xmm(_) | Home::Pair(..) | Home::Unused => {
                unreachable!("i-reg write to {:?}", r)
            }
        }
    }

    /// Reads f-register `r` — in a chunk, its value in the current lane,
    /// which per-lane code finds in the lane array of a varying register —
    /// into `dst` (clobbers rdx for ctx homes).
    fn read_f(&mut self, dst: Xmm, r: Reg) {
        if let (Some(l), Some(shape), arr @ 0..) =
            (self.lane, self.lanes.f[r as usize], self.alloc.lanes_f[r as usize])
        {
            let slot = if shape == Shape::Varying { l } else { 0 };
            self.a.movss_xm(dst, Mem::base(Gpr::Rsp, arr + (slot * 4) as i32));
            return;
        }
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) | Home::Pair(x, _) => self.a.movaps_xx(dst, x),
            Home::Stack(off) => self.a.movss_xm(dst, Mem::base(Gpr::Rsp, off)),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rdx, Mem::base(Gpr::R15, runtime::CTX_FPIN));
                self.a.movss_xm(dst, Mem::base(Gpr::Rdx, r as i32 * 4));
            }
            Home::Gpr(_) | Home::Unused => unreachable!("f-reg read from {:?}", r),
        }
    }

    /// Writes xmm0 to f-register `r` — in a chunk, to the current lane's
    /// slot of its lane array if it has one, else (lane 0 of a uniform
    /// register) to its scalar home — (clobbers rdx for ctx homes).
    fn write_f(&mut self, r: Reg) {
        if let (Some(l), arr @ 0..) = (self.lane, self.alloc.lanes_f[r as usize]) {
            self.a.movss_mx(Mem::base(Gpr::Rsp, arr + (l * 4) as i32), Xmm(0));
            return;
        }
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) | Home::Pair(x, _) => self.a.movaps_xx(x, Xmm(0)),
            Home::Stack(off) => self.a.movss_mx(Mem::base(Gpr::Rsp, off), Xmm(0)),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rdx, Mem::base(Gpr::R15, runtime::CTX_FPIN));
                self.a.movss_mx(Mem::base(Gpr::Rdx, r as i32 * 4), Xmm(0));
            }
            Home::Gpr(_) | Home::Unused => unreachable!("f-reg write to {:?}", r),
        }
    }

    /// Registers a deopt stub; guards jump to the returned label with the
    /// first operand in rax and (when meaningful) the second in rcx.
    fn trap(&mut self, d: Deopt) -> Label {
        let id = self.deopts.len();
        self.deopts.push(d);
        let l = self.a.new_label();
        self.stubs.push((l, id));
        l
    }

    fn call_helper(&mut self, addr: u64, sym: &str) {
        self.a.mov_ri_sym(Gpr::Rax, addr, sym);
        self.a.call_r(Gpr::Rax);
    }

    // -- statements ----------------------------------------------------------

    fn emit_block(&mut self, body: &'a [BcStmt]) {
        for s in body {
            self.emit_stmt(s);
        }
    }

    fn emit_stmt(&mut self, s: &'a BcStmt) {
        match s {
            BcStmt::Let { code, var, reg } => {
                self.emit_insts(code);
                self.read_i(Gpr::Rax, *reg);
                self.a.mov_mr(Mem::base(Gpr::R14, *var as i32 * 8), Gpr::Rax);
            }
            BcStmt::Store { code, buf, idx, val } => {
                self.emit_insts(code);
                self.emit_store(*buf, *idx, *val, self.proofs.store(s));
            }
            BcStmt::If { code, cond, then, else_ } => {
                self.emit_insts(code);
                self.read_i(Gpr::Rax, *cond);
                self.a.test_rr(Gpr::Rax, Gpr::Rax);
                if else_.is_empty() {
                    let end = self.a.new_label();
                    self.a.jcc(Cc::E, end);
                    self.emit_block(then);
                    self.a.bind(end);
                } else {
                    let els = self.a.new_label();
                    let end = self.a.new_label();
                    self.a.jcc(Cc::E, els);
                    self.emit_block(then);
                    self.a.jmp(end);
                    self.a.bind(els);
                    self.emit_block(else_);
                    self.a.bind(end);
                }
            }
            BcStmt::For { var, lower, upper, kind, preamble, body } => {
                self.emit_insts(&lower.insts);
                self.emit_insts(&upper.insts);
                if *kind == LoopKind::Parallel {
                    self.emit_par_call(*var, lower.reg, upper.reg, preamble, body);
                    return;
                }
                let (vs, hs) = self.alloc.loop_slots[self.next_slot];
                self.next_slot += 1;
                self.read_i(Gpr::Rax, lower.reg);
                self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rax);
                self.read_i(Gpr::Rax, upper.reg);
                self.a.mov_mr(Mem::base(Gpr::Rsp, hs), Gpr::Rax);
                if matches!(kind, LoopKind::Vectorize(_)) && bc_body_vectorizable(body) {
                    let c = ChunkCtx { var: *var, v_slot: vs, lo: lower.reg };
                    self.emit_vector_loop(c, hs, self.proofs.wrap_free(s), preamble, body);
                } else {
                    self.emit_counted_loop(vs, hs, *var, preamble, body);
                }
            }
        }
    }

    /// `while [vs] < [hs]: frame[var] = [vs]; preamble; body; [vs] += 1`
    /// with the back edge as a direct conditional jump.
    fn emit_counted_loop(
        &mut self,
        vs: i32,
        hs: i32,
        var: u32,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        self.a.comment(|| format!("loop v{var}"));
        let top = self.a.new_label();
        let done = self.a.new_label();
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, hs));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        self.a.jcc(Cc::Ge, done);
        self.a.bind(top);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.mov_mr(Mem::base(Gpr::R14, var as i32 * 8), Gpr::Rax);
        self.emit_insts(preamble);
        self.emit_block(body);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.add_ri(Gpr::Rax, 1);
        self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rax);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, hs));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        self.a.jcc(Cc::L, top);
        self.a.bind(done);
    }

    /// Lane groups of [`LANES`] while `v + LANES <= hi`, then the scalar
    /// remainder (which alone writes the frame slot, like the
    /// interpreter's vector path). The sum is checked for overflow unless
    /// the bounds prover put both bounds far from the ends of `i64`
    /// (`wrap_free`): near `i64::MAX` it would wrap below `hi`.
    ///
    /// A chunk with [`Clamp`]s is emitted twice: the steady copy, where
    /// the loop head falls through, and the general one, where a failing
    /// clamp test restarts the chunk. Both end at the back edge.
    fn emit_vector_loop(
        &mut self,
        c: ChunkCtx,
        hs: i32,
        wrap_free: bool,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        let (vs, var) = (c.v_slot, c.var);
        self.a.comment(|| format!("vector loop v{var}"));
        let clamps = self.lanes.steady_clamps(c, preamble, body);
        let steady = !clamps.is_empty();
        let chk = self.a.new_label();
        let rem = self.a.new_label();
        self.a.count_chunk(true, steady);
        self.a.bind(chk);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.add_ri(Gpr::Rax, LANES as i32);
        if !wrap_free {
            self.a.jcc(Cc::O, rem);
        }
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, hs));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        self.a.jcc(Cc::G, rem);
        if steady {
            self.steady_chunks += 1;
            let (general, next) = (self.a.new_label(), self.a.new_label());
            for line in self.lanes.assumptions(&clamps) {
                self.a.comment(|| format!("steady: {line}"));
            }
            self.a.count_chunk(false, true);
            self.emit_chunk(c, preamble, body, Some(general));
            self.a.jmp(next);
            self.a.count_chunk(true, false);
            self.a.bind(general);
            self.a.comment(|| "general".to_string());
            self.emit_chunk(c, preamble, body, None);
            self.a.count_chunk(true, true);
            self.a.bind(next);
        } else {
            self.emit_chunk(c, preamble, body, None);
        }
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.add_ri(Gpr::Rax, LANES as i32);
        self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rax);
        self.a.jmp(chk);
        self.a.count_chunk(false, false);
        self.a.bind(rem);
        self.emit_counted_loop(vs, hs, var, preamble, body);
    }

    /// One lane group, inst-major: each instruction once per lane shape,
    /// each store once per statement. Lets do not write the frame. Scalar
    /// homes of chunk registers hold lane 0 here and are the remainder
    /// loop's again after it: every use of a chunk register follows its
    /// definition in the same chunk or iteration.
    ///
    /// With `restart`, this is the steady copy: each [`Clamp`] tests its
    /// operands and jumps to `restart`, the general copy, if it may bind.
    fn emit_chunk(
        &mut self,
        c: ChunkCtx,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
        restart: Option<Label>,
    ) {
        self.lanes.reset_chunk();
        self.lanes.steady = restart.is_some();
        self.restart = restart;
        self.synced.iter_mut().for_each(|s| *s = false);
        self.chunk = Some(c);
        for inst in preamble {
            self.emit_chunk_inst(inst, c);
        }
        for s in body {
            match s {
                BcStmt::Let { code, .. } => {
                    for inst in code {
                        self.emit_chunk_inst(inst, c);
                    }
                }
                BcStmt::Store { code, buf, idx, val } => {
                    for inst in code {
                        self.emit_chunk_inst(inst, c);
                    }
                    self.emit_chunk_store(*buf, *idx, *val, self.proofs.store(s));
                    self.lanes.stored = true;
                }
                _ => unreachable!("checked by bc_body_vectorizable"),
            }
        }
        self.lanes.steady = false;
        self.restart = None;
        self.lanes.reset_chunk();
        self.chunk = None;
    }

    /// A [`Clamp`] in the steady copy: its result is `x` in every lane if
    /// `x`'s lanes do not wrap (`x₀ + 7s` does not overflow) and its lane
    /// nearest `u` — lane 0 or lane 7 — is on the right side of it; else
    /// the chunk restarts in the general copy. Nothing the steady copy ran
    /// before this stored anything, and it computed what the general copy
    /// computes, so the restart is exact.
    fn emit_steady_clamp(&mut self, k: Clamp) {
        let general = self.restart.expect("clamps are tested in steady copies");
        self.in_lane(0, |e| {
            e.read_i(Gpr::Rax, k.x);
            e.a.mov_rr(Gpr::Rdx, Gpr::Rax);
            e.a.add_ri(Gpr::Rdx, k.lane7());
            e.a.jcc(Cc::O, general);
            e.read_i(Gpr::Rcx, k.u);
            let end = if k.tests_lane7() { Gpr::Rdx } else { Gpr::Rax };
            e.a.cmp_rr(end, Gpr::Rcx);
            e.a.jcc(if k.op == BinOp::Max { Cc::L } else { Cc::G }, general);
            e.write_i(k.dst);
        });
    }

    /// `f` emitting lane `l`'s code of the current chunk.
    fn in_lane(&mut self, l: usize, f: impl FnOnce(&mut Self)) {
        let outer = self.lane.replace(l);
        f(self);
        self.lane = outer;
    }

    fn emit_chunk_inst(&mut self, inst: &Inst, c: ChunkCtx) {
        let clamp = if self.lanes.steady { self.lanes.clamp(inst) } else { None };
        let shape = self.lanes.define(inst, c);
        if let Some(k) = clamp {
            return self.emit_steady_clamp(k);
        }
        if shape != Shape::Varying {
            // Lane 0 stands for all eight (guard included: it would trap
            // first, with the payload any lane would carry).
            return self.in_lane(0, |e| e.emit_inst(inst));
        }
        match *inst {
            Inst::Load { dst, buf, idx } => match self.lanes.shape_i(idx) {
                Shape::Linear(s) if s > 0 => {
                    self.emit_linear_load(dst, buf, idx, s, self.proofs.load(inst))
                }
                _ => self.emit_per_lane(inst),
            },
            Inst::BinF { dst, op, a, b }
                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) =>
            {
                // A uniform right operand is broadcast once for both
                // halves; xmm1 stays free for a spilled one otherwise.
                let b_uniform = self.lanes.shape_f(b) != Shape::Varying;
                if b_uniform {
                    self.broadcast(Xmm(1), b);
                }
                for h in 0..2 {
                    let t = self.half_target(dst, h);
                    self.half_into(t, a, h);
                    let src = if b_uniform { Xmm(1) } else { self.half(b, h, Xmm(1)) };
                    match op {
                        BinOp::Add => self.a.addps(t, src),
                        BinOp::Sub => self.a.subps(t, src),
                        BinOp::Mul => self.a.mulps(t, src),
                        _ => self.a.divps(t, src),
                    }
                    self.half_done(dst, h);
                }
            }
            Inst::UnF { dst, op, a } if matches!(op, UnOp::Neg | UnOp::Abs | UnOp::Sqrt) => {
                if op != UnOp::Sqrt {
                    let mask = if op == UnOp::Neg { 0x8000_0000 } else { 0x7FFF_FFFF };
                    self.a.mov_ri32(Gpr::Rax, mask);
                    self.a.movd_xr(Xmm(1), Gpr::Rax);
                    self.a.shufps(Xmm(1), Xmm(1), 0);
                }
                // `a` is varying: a uniform one would make `dst` uniform.
                for h in 0..2 {
                    let t = self.half_target(dst, h);
                    match op {
                        UnOp::Neg | UnOp::Abs => {
                            self.half_into(t, a, h);
                            if op == UnOp::Neg {
                                self.a.xorps(t, Xmm(1));
                            } else {
                                self.a.andps(t, Xmm(1));
                            }
                        }
                        _ => {
                            let src = self.half(a, h, t);
                            self.a.sqrtps(t, src);
                        }
                    }
                    self.half_done(dst, h);
                }
            }
            _ => self.emit_per_lane(inst),
        }
    }

    /// The instruction lane by lane. Its `f32` operands are read from
    /// their lane arrays, so pairs are written back first; a varying
    /// `f32` result is assembled in its lane array and loaded into its
    /// pair after.
    fn emit_per_lane(&mut self, inst: &Inst) {
        for (file, r) in inst.srcs().into_iter().flatten() {
            if file == File::F {
                self.sync(r);
            }
        }
        for l in 0..LANES {
            self.in_lane(l, |e| e.emit_inst(inst));
        }
        if let (File::F, dst) = inst.dst() {
            self.reload(dst);
        }
    }

    /// The pair of a varying chunk f-register (`None`: it lives in its
    /// lane array).
    fn pair(&self, r: Reg) -> Option<[Xmm; 2]> {
        match (self.lanes.f[r as usize], self.alloc.homes_f[r as usize]) {
            (Some(Shape::Varying), Home::Pair(x, y)) => Some([x, y]),
            _ => None,
        }
    }

    /// The lane array bytes of half `h` of f-register `r`.
    fn lane_half(&self, r: Reg, h: usize) -> Mem {
        Mem::base(Gpr::Rsp, self.alloc.lanes_f[r as usize] + (h * 16) as i32)
    }

    /// Writes `r`'s pair to its lane array unless this chunk already did.
    fn sync(&mut self, r: Reg) {
        if let (Some(p), false) = (self.pair(r), self.synced[r as usize]) {
            for (h, x) in p.into_iter().enumerate() {
                self.a.movups_mx(self.lane_half(r, h), x);
            }
            self.synced[r as usize] = true;
        }
    }

    /// Loads `r`'s pair from its lane array, which per-lane code filled.
    fn reload(&mut self, r: Reg) {
        if let Some(p) = self.pair(r) {
            for (h, x) in p.into_iter().enumerate() {
                self.a.movups_xm(x, self.lane_half(r, h));
            }
            self.synced[r as usize] = true;
        }
    }

    /// Lane 0 of the uniform f-register `r` in all four lanes of `dst`.
    fn broadcast(&mut self, dst: Xmm, r: Reg) {
        self.in_lane(0, |e| e.read_f(dst, r));
        self.a.shufps(dst, dst, 0);
    }

    /// Lanes `4h ..` of f-register `r` in an SSE register: its pair's half
    /// as is; otherwise loaded (or, for a uniform register, broadcast)
    /// into `scratch`.
    fn half(&mut self, r: Reg, h: usize, scratch: Xmm) -> Xmm {
        if let Some(p) = self.pair(r) {
            return p[h];
        }
        if self.lanes.shape_f(r) == Shape::Varying {
            self.a.movups_xm(scratch, self.lane_half(r, h));
        } else {
            self.broadcast(scratch, r);
        }
        scratch
    }

    /// [`Self::half`] into `dst` itself.
    fn half_into(&mut self, dst: Xmm, r: Reg, h: usize) {
        let src = self.half(r, h, dst);
        if src != dst {
            self.a.movaps_xx(dst, src);
        }
    }

    /// Where packed code computes half `h` of the varying f-register `r`:
    /// its pair's half, or xmm0 for [`Self::half_done`] to store.
    fn half_target(&self, r: Reg, h: usize) -> Xmm {
        self.pair(r).map_or(Xmm(0), |p| p[h])
    }

    /// Completes half `h` of `r` computed at [`Self::half_target`].
    fn half_done(&mut self, r: Reg, h: usize) {
        if self.pair(r).is_none() {
            self.a.movups_mx(self.lane_half(r, h), Xmm(0));
        }
    }

    /// Lane 0's index in rax and the data pointer in rcx for an access
    /// whose index is `Linear(s)`, behind its one bounds check unless the
    /// access is proven: `idx0 <u len ∧ idx0 + 7·s <u len` puts every lane
    /// in range (`len` is far below `2^63`, so neither end wraps). When
    /// the check fails some lane is out of bounds and the queued per-lane
    /// path finds the first; the caller binds the returned label after the
    /// access.
    fn range_guard(&mut self, op: MemOp, s: i32, guard: Option<Kept>) -> Option<Label> {
        let (buf, idx, val) = op.parts();
        self.in_lane(0, |e| e.read_i(Gpr::Rax, idx));
        let cont = guard.map(|why| {
            let (entry, cont) = (self.a.new_label(), self.a.new_label());
            self.slow.push(SlowPath {
                entry,
                cont,
                op,
                idx_shape: Shape::Linear(s),
                val_shape: val.and_then(|v| self.lanes.f[v as usize]),
                write_back: val.is_some_and(|v| self.pair(v).is_some() && !self.synced[v as usize]),
                why,
            });
            self.a.comment(|| format!("guard: {}", why.why()));
            self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16 + 8));
            self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
            self.a.jcc(Cc::Ae, entry);
            self.a.mov_rr(Gpr::Rdx, Gpr::Rax);
            self.a.add_ri(Gpr::Rdx, (LANES as i32 - 1) * s);
            self.a.cmp_rr(Gpr::Rdx, Gpr::Rcx);
            self.a.jcc(Cc::Ae, entry);
            cont
        });
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16));
        cont
    }

    /// `f[dst] = buf[i[idx]]` for all lanes, `idx` being `Linear(s)`,
    /// `s > 0`: two `movups` when contiguous, else eight `movss` at static
    /// displacements into the lane array.
    fn emit_linear_load(&mut self, dst: Reg, buf: u32, idx: Reg, s: i32, guard: Option<Kept>) {
        let cont = self.range_guard(MemOp::Load { dst, buf, idx }, s, guard);
        if s == 1 {
            for h in 0..2 {
                let t = self.half_target(dst, h);
                self.a.movups_xm(t, Mem::sib(Gpr::Rcx, Gpr::Rax, 4, h as i32 * 16));
                self.half_done(dst, h);
            }
        } else {
            let out = self.alloc.lanes_f[dst as usize];
            for l in 0..LANES as i32 {
                self.a.movss_xm(Xmm(0), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 4 * l * s));
                self.a.movss_mx(Mem::base(Gpr::Rsp, out + 4 * l), Xmm(0));
            }
            self.reload(dst);
        }
        if let Some(cont) = cont {
            self.a.bind(cont);
        }
    }

    /// The store of one chunk statement: two `movups` behind at most one
    /// range guard when the index is contiguous, else lane by lane.
    fn emit_chunk_store(&mut self, buf: u32, idx: Reg, val: Reg, guard: Option<Kept>) {
        if self.lanes.i[idx as usize] != Some(Shape::Linear(1)) {
            self.sync(val);
            for l in 0..LANES {
                self.in_lane(l, |e| e.emit_store(buf, idx, val, guard));
            }
            return;
        }
        let cont = self.range_guard(MemOp::Store { buf, idx, val }, 1, guard);
        let uniform = self.lanes.shape_f(val) != Shape::Varying;
        if uniform {
            self.broadcast(Xmm(0), val);
        }
        for h in 0..2 {
            let src = if uniform { Xmm(0) } else { self.half(val, h, Xmm(0)) };
            self.a.movups_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, h as i32 * 16), src);
        }
        if let Some(cont) = cont {
            self.a.bind(cont);
        }
    }

    /// The out-of-line target of a failed range guard: the access lane by
    /// lane, each lane with its own guard and deopt stub, so the first
    /// failing lane traps with its own index after the lanes before it
    /// took effect — `Error::OutOfBounds` payloads and partial buffer
    /// contents match the interpreter by construction.
    ///
    /// The pair of a stored value is written back on the way in; a loaded
    /// pair is reloaded on the way out (a guard that fails always leaves
    /// a lane that traps, but the path does not rely on it).
    fn emit_slow_path(&mut self, sp: SlowPath) {
        self.a.bind(sp.entry);
        // The shapes and the (not yet) synced state the access saw.
        self.lanes.i[sp.op.parts().1 as usize] = Some(sp.idx_shape);
        match sp.op {
            MemOp::Load { dst, .. } => self.lanes.f[dst as usize] = Some(Shape::Varying),
            MemOp::Store { val, .. } => {
                self.lanes.f[val as usize] = sp.val_shape;
                self.synced[val as usize] = !sp.write_back;
                self.sync(val);
            }
        }
        for l in 0..LANES {
            self.in_lane(l, |e| match sp.op {
                MemOp::Load { dst, buf, idx } => e.emit_load(dst, buf, idx, Some(sp.why)),
                MemOp::Store { buf, idx, val } => e.emit_store(buf, idx, val, Some(sp.why)),
            });
        }
        if let MemOp::Load { dst, .. } = sp.op {
            self.reload(dst);
        }
        self.lanes.reset_chunk();
        self.a.jmp(sp.cont);
    }

    /// `f[dst] = buf[i[idx]]`, behind a bounds check jumping to a deopt
    /// stub unless proven.
    fn emit_load(&mut self, dst: Reg, buf: u32, idx: Reg, guard: Option<Kept>) {
        self.read_i(Gpr::Rax, idx);
        self.bounds_check(Deopt::LoadOob { buf }, buf, guard);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16));
        self.a.movss_xm(Xmm(0), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0));
        self.write_f(dst);
    }

    /// `buf[i[idx]] = f[val]`, behind a bounds check jumping to a deopt
    /// stub unless proven.
    fn emit_store(&mut self, buf: u32, idx: Reg, val: Reg, guard: Option<Kept>) {
        self.read_i(Gpr::Rax, idx);
        self.bounds_check(Deopt::StoreOob { buf }, buf, guard);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16));
        self.read_f(Xmm(0), val);
        self.a.movss_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0), Xmm(0));
    }

    /// `rax <u len(buf)` or deopt, for an access kept guarded (`guard`
    /// says why); nothing for a proven one.
    fn bounds_check(&mut self, d: Deopt, buf: u32, guard: Option<Kept>) {
        let Some(why) = guard else { return };
        self.a.comment(|| format!("guard: {}", why.why()));
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16 + 8));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        let stub = self.trap(d);
        self.a.jcc(Cc::Ae, stub);
    }

    /// Evaluates bounds into arg registers and calls the parallel
    /// dispatch trampoline; a nonzero status propagates to the epilogue.
    fn emit_par_call(
        &mut self,
        var: u32,
        lo_reg: Reg,
        hi_reg: Reg,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        let id = self.next_par_id;
        self.next_par_id += 1;
        self.pending.push(ParWork { var, preamble, body });
        self.a.comment(|| format!("parallel v{var} -> par{id}"));
        self.read_i(Gpr::Rax, lo_reg);
        self.read_i(Gpr::Rcx, hi_reg);
        self.a.mov_rr(Gpr::Rdi, Gpr::R15);
        self.a.mov_ri(Gpr::Rsi, id as i64);
        self.a.mov_rr(Gpr::Rdx, Gpr::Rax);
        self.call_helper(runtime::jit_par_dispatch as *const () as usize as u64, "jit_par_dispatch");
        self.a.test_rr(Gpr::Rax, Gpr::Rax);
        self.a.jcc(Cc::Ne, self.exit);
    }

    // -- instructions --------------------------------------------------------

    fn emit_insts(&mut self, insts: &'a [Inst]) {
        for inst in insts {
            self.emit_inst(inst);
        }
    }

    fn emit_inst(&mut self, inst: &Inst) {
        match *inst {
            Inst::ConstI { dst, v } => {
                self.a.mov_ri(Gpr::Rax, v);
                self.write_i(dst);
            }
            Inst::ConstF { dst, v } => {
                self.a.mov_ri32(Gpr::Rax, v.to_bits());
                self.a.movd_xr(Xmm(0), Gpr::Rax);
                self.write_f(dst);
            }
            Inst::ReadVar { dst, var } => {
                match (self.lane, self.chunk) {
                    (Some(l), Some(c)) if c.var == var => {
                        // The vectorized loop variable: lane value is the
                        // chunk base plus the lane index.
                        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, c.v_slot));
                        if l > 0 {
                            self.a.add_ri(Gpr::Rax, l as i32);
                        }
                    }
                    _ => self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::R14, var as i32 * 8)),
                }
                self.write_i(dst);
            }
            Inst::Load { dst, buf, idx } => self.emit_load(dst, buf, idx, self.proofs.load(inst)),
            Inst::BinI { dst, op, a, b } => {
                self.emit_bin_i(dst, op, a, b);
            }
            Inst::BinF { dst, op, a, b } => {
                self.read_f(Xmm(0), a);
                self.read_f(Xmm(1), b);
                match op {
                    BinOp::Add => self.a.addss(Xmm(0), Xmm(1)),
                    BinOp::Sub => self.a.subss(Xmm(0), Xmm(1)),
                    BinOp::Mul => self.a.mulss(Xmm(0), Xmm(1)),
                    BinOp::Div => self.a.divss(Xmm(0), Xmm(1)),
                    // Rust `f32::min`/`max`/`%` NaN semantics via helpers.
                    BinOp::Min => self.call_helper(runtime::jit_fminf as *const () as usize as u64, "jit_fminf"),
                    BinOp::Max => self.call_helper(runtime::jit_fmaxf as *const () as usize as u64, "jit_fmaxf"),
                    BinOp::Rem => self.call_helper(runtime::jit_fmodf as *const () as usize as u64, "jit_fmodf"),
                    _ => unreachable!("comparison handled elsewhere"),
                }
                self.write_f(dst);
            }
            Inst::CmpI { dst, op, a, b } => {
                self.read_i(Gpr::Rax, a);
                self.read_i(Gpr::Rcx, b);
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                let cc = match op {
                    BinOp::Lt => Cc::L,
                    BinOp::Le => Cc::Le,
                    BinOp::EqCmp => Cc::E,
                    _ => unreachable!(),
                };
                self.a.setcc_r8(cc, Gpr::Rax);
                self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                self.write_i(dst);
            }
            Inst::CmpF { dst, op, a, b } => {
                match op {
                    // `a < b` as `b > a` so unordered (NaN) reads false:
                    // after ucomiss, CF/ZF/PF are all set when unordered
                    // and `a`/`ae` require CF clear.
                    BinOp::Lt | BinOp::Le => {
                        self.read_f(Xmm(0), a);
                        self.read_f(Xmm(1), b);
                        self.a.ucomiss(Xmm(1), Xmm(0));
                        let cc = if op == BinOp::Lt { Cc::A } else { Cc::Ae };
                        self.a.setcc_r8(cc, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                    }
                    BinOp::EqCmp => {
                        self.read_f(Xmm(0), a);
                        self.read_f(Xmm(1), b);
                        self.a.ucomiss(Xmm(0), Xmm(1));
                        // ZF is set for equal *and* unordered; mask with
                        // "ordered" (no parity).
                        self.a.setcc_r8(Cc::E, Gpr::Rax);
                        self.a.setcc_r8(Cc::Np, Gpr::Rcx);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rcx, Gpr::Rcx);
                        self.a.and_rr(Gpr::Rax, Gpr::Rcx);
                    }
                    _ => unreachable!(),
                }
                self.write_i(dst);
            }
            Inst::UnI { dst, op, a } => {
                self.read_i(Gpr::Rax, a);
                match op {
                    UnOp::Neg => {
                        self.guard_min(Deopt::NegAbs { op });
                        self.a.neg_r(Gpr::Rax);
                    }
                    UnOp::Abs => {
                        self.guard_min(Deopt::NegAbs { op });
                        // Branchless |a| (wraps MIN like release `abs`).
                        self.a.mov_rr(Gpr::Rcx, Gpr::Rax);
                        self.a.sar_ri(Gpr::Rcx, 63);
                        self.a.xor_rr(Gpr::Rax, Gpr::Rcx);
                        self.a.sub_rr(Gpr::Rax, Gpr::Rcx);
                    }
                    UnOp::Not => {
                        self.a.test_rr(Gpr::Rax, Gpr::Rax);
                        self.a.setcc_r8(Cc::E, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                    }
                    UnOp::Sqrt | UnOp::Exp => unreachable!(),
                }
                self.write_i(dst);
            }
            Inst::UnF { dst, op, a } => {
                self.read_f(Xmm(0), a);
                match op {
                    UnOp::Neg => {
                        self.a.mov_ri32(Gpr::Rax, 0x8000_0000);
                        self.a.movd_xr(Xmm(1), Gpr::Rax);
                        self.a.xorps(Xmm(0), Xmm(1));
                    }
                    UnOp::Abs => {
                        self.a.mov_ri32(Gpr::Rax, 0x7FFF_FFFF);
                        self.a.movd_xr(Xmm(1), Gpr::Rax);
                        self.a.andps(Xmm(0), Xmm(1));
                    }
                    UnOp::Sqrt => self.a.sqrtss(Xmm(0), Xmm(0)),
                    UnOp::Exp => self.call_helper(runtime::jit_expf as *const () as usize as u64, "jit_expf"),
                    UnOp::Not => unreachable!(),
                }
                self.write_f(dst);
            }
            Inst::SelI { dst, c, a, b } => {
                self.read_i(Gpr::Rax, a);
                self.read_i(Gpr::Rcx, b);
                self.read_i(Gpr::Rdx, c);
                self.a.test_rr(Gpr::Rdx, Gpr::Rdx);
                self.a.cmov_rr(Cc::E, Gpr::Rax, Gpr::Rcx);
                self.write_i(dst);
            }
            Inst::SelF { dst, c, a, b } => {
                self.read_f(Xmm(0), a);
                self.read_f(Xmm(1), b);
                self.read_i(Gpr::Rax, c);
                self.a.test_rr(Gpr::Rax, Gpr::Rax);
                let keep = self.a.new_label();
                self.a.jcc(Cc::Ne, keep);
                self.a.movaps_xx(Xmm(0), Xmm(1));
                self.a.bind(keep);
                self.write_f(dst);
            }
            Inst::CastIF { dst, a } => {
                self.read_i(Gpr::Rax, a);
                self.a.cvtsi2ss(Xmm(0), Gpr::Rax);
                self.write_f(dst);
            }
            Inst::CastFI { dst, a } => {
                // Rust's saturating `f32 as i64` through a helper.
                self.read_f(Xmm(0), a);
                self.call_helper(runtime::jit_f2i as *const () as usize as u64, "jit_f2i");
                self.write_i(dst);
            }
        }
    }

    /// Deopts when rax == i64::MIN — only in builds where the
    /// interpreter's `-a`/`a.abs()` would panic (overflow checks on).
    fn guard_min(&mut self, d: Deopt) {
        if cfg!(debug_assertions) {
            self.a.mov_ri(Gpr::Rcx, i64::MIN);
            self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
            let stub = self.trap(d);
            self.a.jcc(Cc::E, stub);
        }
    }

    fn emit_bin_i(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg) {
        self.read_i(Gpr::Rax, a);
        let divisor = match op {
            BinOp::Div | BinOp::Rem => self.lanes.consts[b as usize],
            _ => None,
        };
        if let Some(k) = divisor.and_then(pow2) {
            // Euclidean `/ 2^k` and `% 2^k` are an arithmetic shift and a
            // mask for every i64, negative ones included: nothing traps.
            if op == BinOp::Div {
                self.a.sar_ri(Gpr::Rax, k as u8);
            } else {
                self.a.mov_ri(Gpr::Rcx, (1i64 << k) - 1);
                self.a.and_rr(Gpr::Rax, Gpr::Rcx);
            }
            return self.write_i(dst);
        }
        self.read_i(Gpr::Rcx, b);
        match op {
            BinOp::Add => self.a.add_rr(Gpr::Rax, Gpr::Rcx),
            BinOp::Sub => self.a.sub_rr(Gpr::Rax, Gpr::Rcx),
            BinOp::Mul => self.a.imul_rr(Gpr::Rax, Gpr::Rcx),
            BinOp::Min => {
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                self.a.cmov_rr(Cc::G, Gpr::Rax, Gpr::Rcx);
            }
            BinOp::Max => {
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                self.a.cmov_rr(Cc::L, Gpr::Rax, Gpr::Rcx);
            }
            BinOp::And | BinOp::Or => {
                self.a.test_rr(Gpr::Rax, Gpr::Rax);
                self.a.setcc_r8(Cc::Ne, Gpr::Rax);
                self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                self.a.test_rr(Gpr::Rcx, Gpr::Rcx);
                self.a.setcc_r8(Cc::Ne, Gpr::Rcx);
                self.a.movzx_r64_r8(Gpr::Rcx, Gpr::Rcx);
                if op == BinOp::And {
                    self.a.and_rr(Gpr::Rax, Gpr::Rcx);
                } else {
                    self.a.or_rr(Gpr::Rax, Gpr::Rcx);
                }
            }
            BinOp::Div | BinOp::Rem => {
                // Guards: b == 0, then MIN / -1 — both replayed through
                // `apply_i` so the panic messages match the interpreter. A
                // constant divisor other than 0 and -1 can hit neither.
                if !matches!(divisor, Some(c) if c != 0 && c != -1) {
                    self.a.test_rr(Gpr::Rcx, Gpr::Rcx);
                    let stub = self.trap(Deopt::DivRem { op });
                    self.a.jcc(Cc::E, stub);
                    self.a.cmp_ri(Gpr::Rcx, -1);
                    let go = self.a.new_label();
                    self.a.jcc(Cc::Ne, go);
                    self.a.mov_ri(Gpr::Rdx, i64::MIN);
                    self.a.cmp_rr(Gpr::Rax, Gpr::Rdx);
                    let stub2 = self.trap(Deopt::DivRem { op });
                    self.a.jcc(Cc::E, stub2);
                    self.a.bind(go);
                }
                self.a.cqo();
                self.a.idiv_r(Gpr::Rcx);
                // Truncated -> Euclidean fixups (rax = q, rdx = r).
                let done = self.a.new_label();
                if op == BinOp::Div {
                    // r < 0: q -= sign(b) i.e. q - (2*(b>>63) + 1).
                    self.a.test_rr(Gpr::Rdx, Gpr::Rdx);
                    self.a.jcc(Cc::Ns, done);
                    self.a.mov_rr(Gpr::Rdx, Gpr::Rcx);
                    self.a.sar_ri(Gpr::Rdx, 63);
                    self.a.add_rr(Gpr::Rdx, Gpr::Rdx);
                    self.a.add_ri(Gpr::Rdx, 1);
                    self.a.sub_rr(Gpr::Rax, Gpr::Rdx);
                    self.a.bind(done);
                } else {
                    // r < 0: r += |b| (wrapping, like `rem_euclid`).
                    self.a.test_rr(Gpr::Rdx, Gpr::Rdx);
                    self.a.jcc(Cc::Ns, done);
                    self.a.mov_rr(Gpr::Rax, Gpr::Rcx);
                    self.a.sar_ri(Gpr::Rcx, 63);
                    self.a.xor_rr(Gpr::Rax, Gpr::Rcx);
                    self.a.sub_rr(Gpr::Rax, Gpr::Rcx);
                    self.a.add_rr(Gpr::Rdx, Gpr::Rax);
                    self.a.bind(done);
                    self.a.mov_rr(Gpr::Rax, Gpr::Rdx);
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::EqCmp => unreachable!("comparison is CmpI"),
        }
        self.write_i(dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BCode, OptStats};
    use crate::expr::Expr;
    use crate::program::{Program, Stmt};
    use crate::vm::{apply_i, Machine};

    /// The index chain of the sgemm update chunk,
    /// `j = 32·c1 + 8·c11 + c13; … packB[(j % 32) + 32·k]`, parameterized
    /// on what the soundness condition depends on. Register map: i0 = lower
    /// bound, i1 = 32, i2 = 8, i3 = divisor, i4 = lane-stride factor;
    /// i5..i9 are defined by enclosing loops, i10.. by the chunk. Returns
    /// the shapes of `[c13·factor, j, j % d, j / d]`.
    fn chain(lower: i64, factor: i64, divisor: Option<i64>) -> [Shape; 4] {
        use BinOp::{Add, Div, Mul, Rem};
        let mut prologue = vec![
            Inst::ConstI { dst: 0, v: lower },
            Inst::ConstI { dst: 1, v: 32 },
            Inst::ConstI { dst: 2, v: 8 },
            Inst::ConstI { dst: 4, v: factor },
        ];
        prologue.push(match divisor {
            Some(v) => Inst::ConstI { dst: 3, v },
            None => Inst::ReadVar { dst: 3, var: 0 },
        });
        let outer = [
            Inst::ReadVar { dst: 5, var: 1 },
            Inst::BinI { dst: 6, op: Mul, a: 1, b: 5 },
            Inst::ReadVar { dst: 7, var: 2 },
            Inst::BinI { dst: 8, op: Mul, a: 2, b: 7 },
            Inst::BinI { dst: 9, op: Add, a: 6, b: 8 },
        ];
        let chunk = [
            Inst::ReadVar { dst: 10, var: 3 },
            Inst::BinI { dst: 11, op: Mul, a: 10, b: 4 },
            Inst::BinI { dst: 12, op: Add, a: 9, b: 11 },
            Inst::BinI { dst: 13, op: Rem, a: 12, b: 3 },
            Inst::BinI { dst: 14, op: Div, a: 12, b: 3 },
        ];
        let bc = BcProgram {
            prologue,
            body: vec![BcStmt::For {
                var: 3,
                lower: BCode { insts: vec![], reg: 0 },
                upper: BCode { insts: vec![], reg: 1 },
                kind: LoopKind::Vectorize(8),
                preamble: outer.iter().chain(&chunk).copied().collect(),
                body: vec![],
            }],
            n_iregs: 15,
            n_fregs: 0,
            n_vars: 4,
            var_names: vec![],
            buf_sizes: vec![],
            stats: OptStats::default(),
        };
        let mut lanes = Lanes::new(&bc);
        lanes.reset_chunk();
        let c = ChunkCtx { var: 3, v_slot: 0, lo: 0 };
        let shapes: Vec<Shape> = chunk.iter().map(|inst| lanes.define(inst, c)).collect();
        assert_eq!(shapes[0], Shape::Linear(1), "the loop variable");
        // Lane 0 is aligned, the scalar remainder iterations are not: the
        // lane-0 bound lives and dies with the chunk.
        let base_tz = lower.trailing_zeros().min(3) as u8;
        assert_eq!((lanes.tz(10), lanes.tz[10]), (base_tz, 0));
        lanes.reset_chunk();
        assert_eq!(lanes.tz(10), 0);
        [shapes[1], shapes[2], shapes[3], shapes[4]]
    }

    #[test]
    fn sgemm_index_chain_is_linear_through_rem_32() {
        use Shape::{Linear, Uniform, Varying};
        // Bases are 32·c1 + 8·c11 + (0 + 8n): three proved trailing zeros,
        // 7 < 8, so `% 32` keeps the lanes consecutive and `/ 32` equal.
        assert_eq!(chain(0, 1, Some(32)), [Linear(1), Linear(1), Linear(1), Uniform]);
        assert_eq!(chain(16, 1, Some(8)), [Linear(1), Linear(1), Linear(1), Uniform]);
        // Lower bound 4: two trailing zeros, lanes 4..11 straddle a multiple.
        assert_eq!(chain(4, 1, Some(32)), [Linear(1), Linear(1), Varying, Varying]);
        // Stride 2 against `% 8`: 7·2 >= 8.
        assert_eq!(chain(0, 2, Some(8)), [Linear(2), Linear(2), Varying, Varying]);
        assert_eq!(chain(0, 2, Some(16)), [Linear(2), Linear(2), Varying, Varying]);
        // The divisor caps the alignment that counts: `% 4` of 8 lanes wraps.
        assert_eq!(chain(0, 1, Some(4)), [Linear(1), Linear(1), Varying, Varying]);
        // Not a power of two, not positive, not a constant.
        for d in [Some(24), Some(-32), Some(1), Some(0), None] {
            assert_eq!(chain(0, 1, d), [Linear(1), Linear(1), Varying, Varying], "{d:?}");
        }
        // Negative strides never satisfy the condition; zero is uniform.
        assert_eq!(chain(0, -1, Some(32)), [Linear(-1), Linear(-1), Varying, Varying]);
        assert_eq!(chain(0, 0, Some(32)), [Uniform; 4]);
        // A stride whose lane offsets would leave imm32 is not linear.
        assert_eq!(chain(0, MAX_STRIDE, Some(32))[0], Linear(MAX_STRIDE as i32));
        assert_eq!(chain(0, MAX_STRIDE + 1, Some(32))[0], Varying);
        assert_eq!(chain(0, i64::MAX, Some(32))[0], Varying);
        assert_eq!(chain(0, i64::MIN, Some(32))[0], Varying);
    }

    #[test]
    fn trailing_zero_facts_follow_wrapping_arithmetic() {
        let mut p = Program::new();
        let out = p.buffer("out", 1);
        let x = p.var("x");
        let e = (Expr::var(x) * Expr::i64(48) + Expr::i64(i64::MIN)) * Expr::i64(6)
            - Expr::var(x) * Expr::i64(0);
        p.push(Stmt::store(out, e, Expr::f32(0.0)));
        let bc = crate::opt::compile_program(&p).unwrap();
        let lanes = Lanes::new(&bc);
        // Every proved bound must hold for the values the program computes.
        for xv in [0, 1, 3, -7, i64::MAX, i64::MIN] {
            let mut ir = vec![0i64; bc.n_iregs as usize];
            let BcStmt::Store { code, .. } = &bc.body[0] else { panic!("one store") };
            for inst in bc.prologue.iter().chain(code) {
                match *inst {
                    Inst::ConstI { dst, v } => ir[dst as usize] = v,
                    Inst::ReadVar { dst, .. } => ir[dst as usize] = xv,
                    Inst::BinI { dst, op, a, b } => {
                        ir[dst as usize] = apply_i(op, ir[a as usize], ir[b as usize]);
                    }
                    Inst::ConstF { .. } => continue,
                    other => panic!("unexpected {other:?}"),
                }
                let (_, dst) = inst.dst();
                let v = ir[dst as usize];
                let tz = lanes.tz[dst as usize];
                assert!(v == 0 || v.trailing_zeros() >= tz as u32, "{inst:?}: {v} vs tz {tz}");
            }
        }
        assert!(lanes.tz.iter().any(|&t| t >= 4), "48·x should prove four zeros");
    }

    /// `a % 2^k` and `a / 2^k` compile to a mask and a shift; both must be
    /// the Euclidean results for every `i64`, the edges included.
    #[test]
    fn power_of_two_divisors_match_apply_i() {
        for k in [1u32, 5, 62] {
            let c = 1i64 << k;
            let mut p = Program::new();
            let out = p.buffer("out", 8);
            let x = p.var("x");
            // Each result as four exactly-representable 16-bit chunks.
            for (slot, op) in [BinOp::Rem, BinOp::Div].into_iter().enumerate() {
                for chunk in 0..4 {
                    let r = match op {
                        BinOp::Rem => Expr::var(x) % Expr::i64(c),
                        _ => Expr::var(x) / Expr::i64(c),
                    };
                    let piece = (r / Expr::i64(1 << (16 * chunk))) % Expr::i64(65536);
                    p.push(Stmt::store(
                        out,
                        Expr::i64((slot * 4 + chunk) as i64),
                        Expr::to_f32(piece),
                    ));
                }
            }
            let bc = crate::opt::compile_program(&p).unwrap();
            let jit = compile(&bc).expect("straight-line stores compile");
            assert_eq!(jit.deopt_reasons()[2..4], [0, 0], "no div/rem guard for 2^{k}");
            let text = listing(&bc).unwrap();
            assert!(!text.contains("idiv"), "2^{k}:\n{text}");
            for a in [i64::MIN, -c - 1, -1, 0, c - 1, i64::MAX] {
                let mut m = Machine::new(&p);
                m.bind(x, a);
                m.run_jit(&jit).unwrap();
                let got = m.buffer(out);
                for (slot, op) in [BinOp::Rem, BinOp::Div].into_iter().enumerate() {
                    let want = apply_i(op, a, c);
                    let have = (0..4).fold(0i64, |acc, chunk| {
                        acc | (got[slot * 4 + chunk] as i64) << (16 * chunk)
                    });
                    assert_eq!(have, want, "{a} {op:?} 2^{k}");
                }
            }
        }
    }

    /// Other constant divisors keep `idiv` but need neither guard; only 0
    /// and -1 (and non-constants) can trap.
    #[test]
    fn constant_divisors_drop_their_guards() {
        let guards = |d: Expr| {
            let mut p = Program::new();
            let out = p.buffer("out", 1);
            let x = p.var("x");
            p.push(Stmt::store(out, Expr::i64(0), Expr::to_f32(Expr::var(x) % d)));
            let bc = crate::opt::compile_program(&p).unwrap();
            compile(&bc).unwrap().deopt_reasons()[3]
        };
        assert_eq!(guards(Expr::i64(24)), 0);
        assert_eq!(guards(Expr::i64(-7)), 0);
        assert_eq!(guards(Expr::i64(i64::MIN)), 0);
        assert_eq!(guards(Expr::i64(-1)), 2);
        let mut p = Program::new();
        let y = p.var("y");
        assert_eq!(guards(Expr::var(y)), 2);
    }

    /// Facts hold for single-assignment registers only. The optimizer
    /// emits nothing else and the allocator turns down a second definition
    /// of a register it places, but not of one pinned in the ctx arrays,
    /// and a decoded artifact is checked for register ranges, not for SSA:
    /// a constant divisor redefined to 0 must meet its guard, not a bare
    /// `idiv`.
    #[test]
    fn a_redefined_register_keeps_no_fact() {
        let mut p = Program::new();
        let out = p.buffer("out", 4);
        let (x, i) = (p.var("x"), p.var("i"));
        let rem = (Expr::var(x) + Expr::var(i)) % Expr::i64(24);
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(4),
            LoopKind::Parallel,
            vec![Stmt::store(out, Expr::var(i), Expr::to_f32(rem))],
        ));
        let mut bc = crate::opt::compile_program(&p).unwrap();
        let mut divisor = None;
        bc.for_each_inst(&mut |inst| {
            if let Inst::BinI { op: BinOp::Rem, b, .. } = *inst {
                divisor = Some(b);
            }
        });
        let divisor = divisor.expect("the remainder");
        assert_eq!(Lanes::new(&bc).consts[divisor as usize], Some(24));
        assert_eq!(compile(&bc).unwrap().deopt_reasons()[3], 0);
        bc.prologue.push(Inst::ConstI { dst: divisor, v: 0 });
        let lanes = Lanes::new(&bc);
        assert_eq!((lanes.consts[divisor as usize], lanes.tz(divisor)), (None, 0));
        assert_eq!(compile(&bc).expect("pinned, so placed").deopt_reasons()[3], 2);
    }

    /// The golden listings cannot drift from what executes: the listing
    /// build and `compile` are the same emitter, and produce the same
    /// bytes.
    #[test]
    fn listing_build_emits_the_code_compile_runs() {
        let mut p = Program::new();
        let a = p.buffer("A", 64);
        let b = p.buffer("B", 64);
        let (i, j) = (p.var("i"), p.var("j"));
        let at = Expr::var(i) * Expr::i64(16) + Expr::var(j);
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(4),
            LoopKind::Parallel,
            vec![Stmt::for_(
                j,
                Expr::i64(0),
                Expr::i64(13),
                LoopKind::Vectorize(8),
                vec![Stmt::store(b, at.clone(), Expr::sqrt(Expr::load(a, at % Expr::i64(64))))],
            )],
        ));
        let bc = crate::opt::compile_program(&p).unwrap();
        let plain = emit(&bc, Asm::new()).unwrap();
        let listed = emit(&bc, Asm::with_listing()).unwrap();
        assert_eq!(plain.a.listing(), None);
        assert_eq!(plain.a.code, listed.a.code);
        assert_eq!((plain.main_off, &plain.par_fns), (listed.main_off, &listed.par_fns));
        let text = listed.a.listing().unwrap();
        assert_eq!(listing(&bc).as_deref(), Some(text.as_str()));
        assert!(text.contains("sqrtps") && text.contains("movups"), "{text}");
    }
}
