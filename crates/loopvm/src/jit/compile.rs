//! Bytecode → x86-64 code generation.
//!
//! One native function is emitted for the program (prologue + body) plus
//! one per `Parallel` loop (its per-iteration preamble + body, invoked by
//! worker threads through [`super::runtime::jit_par_dispatch`]). All
//! functions share one code buffer; loop back-edges are direct `jmp`s.
//! The emitter is split at its seams: this file holds the function and
//! loop scaffolding and the scalar code, [`chunk`] the packed code of
//! vector chunks with its per-lane fallbacks, and [`cold`] the paths
//! behind each function's `ret`.
//!
//! # Conventions
//!
//! - `r15` = `JitCtx` pointer, `r14` = variable frame in a function that
//!   reads or writes it; `rax`/`rcx`/`rdx` and `xmm0`/`xmm1` are statement
//!   scratch. Everything else is allocated by [`super::regalloc`], loop
//!   counters, buffers' data pointers and pins included: the function's
//!   entry loads each data pointer and pin the scan kept in a register,
//!   and an access indexes `[data + index·4]`. A pinned register's
//!   definition also writes its pin slot.
//! - Integer operations are two-address code on their homes (`mov d, a;
//!   op d, b`, a constant `b` that fits `i32` an immediate); see
//!   [`Emit::emit_bin_i`]. A `ReadVar` of an open loop's variable reads
//!   its counter; the frame slot of a variable is written only where some
//!   `ReadVar` reads the frame ([`Facts::frame_read`]).
//! - Every function returns a `u64` status: `0` ok, `1`/`2` error/panic
//!   already recorded in the host, `id + 3` for deopt stub `id`.
//! - Loads and stores that [`super::facts`] proves in range are plain
//!   moves; a guarded one compares its index with the buffer's length as
//!   an immediate. The other trapping instructions (unproven loads/stores,
//!   `div`/`rem`, checked `neg`/`abs`) compare inline and jump to a deopt
//!   stub ([`cold`]); the host then *replays* the operation through the
//!   interpreter's own scalar helpers, so error payloads and panic
//!   messages are identical to bytecode execution by construction. The
//!   listing names why each kept bounds guard stayed.
//! - `f2i` is `cvttss2si`, whose `i64::MIN` for NaN and values out of
//!   range jumps to an out-of-line fix-up ([`cold`]). No instruction calls
//!   a helper but `f32` `min`/`max`/`%`/`exp` and the parallel dispatch.

use super::asm::{Alu, Asm, Cc, Gpr, Label, Mem, Xmm};
use super::facts::{self, lane_grouped, pow2, Clamp, Facts, Kept, Shape};
use super::regalloc::{allocate, remat, FnAlloc, FnCode, Home, Lanes, HALVES};
use super::runtime::{self, Deopt, JitProgram, CTX_BUFS, CTX_FPIN, CTX_FRAME, CTX_IPIN};
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::expr::{BinOp, UnOp};
use crate::program::LoopKind;
use crate::vm::bc_body_vectorizable;
use cold::SlowPath;

mod chunk;
mod cold;

/// Compiles a bytecode program to native code. The program must be
/// strict SSA, as the optimizer's output and every decoded artifact are;
/// any other program (the plain lowering) returns `None` and stays with
/// the bytecode interpreter, and a debug build asserts.
pub fn compile(bc: &BcProgram) -> Option<JitProgram> {
    if !super::supported() {
        return None;
    }
    let e = emit(bc, Asm::new())?;
    JitProgram::new(e.a.code, e.main_off, e.par_fns, e.may_split, e.deopts, e.footprint, bc)
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
    /// Per `Parallel` loop, in dispatch-id order: its code offset and the
    /// work estimate of one iteration, read from `BcProgram::estimates` by
    /// the loop's `par` index.
    par_fns: Vec<(usize, u64)>,
    /// Whether some dispatch can reach a crew (`par::may_split`).
    may_split: bool,
    deopts: Vec<Deopt>,
    footprint: super::Footprint,
}

fn emit(bc: &BcProgram, a: Asm) -> Option<Emitted> {
    let ssa = bc.check_ssa();
    debug_assert!(ssa.is_ok(), "the JIT compiles strict SSA only: {ssa:?}");
    ssa.ok()?;
    let facts = facts::derive(bc);
    let main_alloc = allocate(bc, &FnCode::Main { prologue: &bc.prologue, body: &bc.body }, &facts);
    let mut e = Emit {
        a,
        bc,
        alloc: main_alloc,
        open: Vec::new(),
        exit: Label::INVALID,
        stubs: Vec::new(),
        slow: Vec::new(),
        fixups: Vec::new(),
        steps: Vec::new(),
        deopts: Vec::new(),
        pending: Vec::new(),
        next_par_id: 0,
        lane: None,
        chunk: None,
        steady: false,
        restart: None,
        steady_chunks: 0,
        synced: [vec![false; bc.n_iregs as usize], vec![false; bc.n_fregs as usize]],
        facts,
    };
    let main_off = e.a.here();
    e.emit_fn(None);
    // The program's one store of estimates, filled from these facts
    // unless an interpreter run filled it first with the same numbers.
    let est = bc.estimates.get_or_init(|| e.facts.estimates(bc));
    let mut par_fns = Vec::new();
    let mut i = 0;
    while i < e.pending.len() {
        let w = e.pending[i];
        e.alloc = allocate(bc, &FnCode::ParBody(w.stmt), &e.facts);
        let off = e.a.here();
        e.emit_fn(Some((i, w)));
        par_fns.push((off, est[w.par as usize].per_iter));
        i += 1;
    }
    let may_split = crate::par::may_split(est);
    // After the code, 16-byte aligned as `paddd`'s memory operand must be.
    if !e.steps.is_empty() {
        e.a.align16();
    }
    for (s, l) in std::mem::take(&mut e.steps) {
        for (h, l) in l.into_iter().enumerate() {
            e.a.bind(l);
            e.a.dwords(std::array::from_fn(|k| (4 * h + k) as i32 * s));
        }
    }
    e.a.finish();
    let (chunk, steady, loops) = (e.a.chunk, e.a.steady, e.a.loops);
    let mut footprint =
        super::Footprint { chunk, steady, loops, steady_chunks: e.steady_chunks, ..e.facts.guards };
    for d in &e.deopts {
        footprint.deopt_reasons[d.reason().index()] += 1;
    }
    Some(Emitted { a: e.a, main_off, par_fns, may_split, deopts: e.deopts, footprint })
}

/// A `Parallel` loop queued for emission as its own function.
#[derive(Clone, Copy)]
struct ParWork<'a> {
    /// The `For` itself.
    stmt: &'a BcStmt,
    var: u32,
    /// Its index into the program's estimates.
    par: u32,
    preamble: &'a [Inst],
    body: &'a [BcStmt],
}

/// Active vector-chunk context.
#[derive(Clone, Copy)]
struct ChunkCtx {
    /// Loop variable of the vectorized loop.
    var: u32,
    /// The chunk's base iteration value (lane 0 of the variable).
    base: Base,
}

/// Where a chunk's base iteration value is.
#[derive(Clone, Copy)]
enum Base {
    /// The one chunk of a loop of eight constant iterations starts here.
    Imm(i64),
    /// In the loop's counter.
    Ctr(Home),
}

/// Where two-address code reads an `i64` operand from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    Reg(Gpr),
    Imm(i32),
    Mem(Mem),
}

/// The bound a loop counter is compared with at the back edge.
#[derive(Clone, Copy)]
enum Bound {
    /// A constant.
    Imm(i64),
    /// The home of an upper-bound register that is not one.
    Reg(Reg),
    /// A parallel body's upper bound.
    Home(Home),
}

/// What a counted loop is to [`super::Footprint::loops`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The innermost loop around a chunk: its fast path is counted.
    Innermost,
    /// The scalar remainder of a lane-grouped loop: not counted.
    Remainder,
    /// Counted as part of an enclosing innermost loop, if any.
    Other,
}

impl Role {
    /// The role of a loop with `body`: innermost when a lane-grouped loop
    /// is in it and none is inside a nested loop of another kind (the body
    /// of a nested `Parallel` loop is a function of its own).
    fn of(body: &[BcStmt]) -> Role {
        /// `(a chunk is in body, one is inside a nested loop)`.
        fn scan(body: &[BcStmt]) -> (bool, bool) {
            let (mut any, mut nested) = (false, false);
            for s in body {
                let (a, n) = match s {
                    BcStmt::For { kind: LoopKind::Vectorize(_), body, .. }
                        if bc_body_vectorizable(body) =>
                    {
                        (true, false)
                    }
                    BcStmt::For { body, .. } => {
                        let a = scan(body).0;
                        (a, a)
                    }
                    BcStmt::If { then, else_, .. } => {
                        let (t, e) = (scan(then), scan(else_));
                        (t.0 || e.0, t.1 || e.1)
                    }
                    _ => (false, false),
                };
                any |= a;
                nested |= n;
            }
            (any, nested)
        }
        match scan(body) {
            (true, false) => Role::Innermost,
            _ => Role::Other,
        }
    }

    /// Whether the loop's body is counted (`None`: as around it).
    fn counts(self) -> Option<bool> {
        match self {
            Role::Innermost => Some(true),
            Role::Remainder => Some(false),
            Role::Other => None,
        }
    }
}

struct Emit<'a> {
    a: Asm,
    bc: &'a BcProgram,
    /// Allocation of the function currently being emitted.
    alloc: FnAlloc,
    /// The variable and counter home of every loop open in the function
    /// being emitted, innermost last (a loop whose variable is constant
    /// in its one chunk has none).
    open: Vec<(u32, Home)>,
    /// The current function's shared epilogue (expects the status in rax).
    exit: Label,
    /// Deopt stubs to emit after the current function's `ret`.
    stubs: Vec<(Label, usize)>,
    /// Per-lane paths of range-guarded accesses, emitted before the stubs.
    slow: Vec<SlowPath>,
    /// `(entry, continuation)` of every `f2i` fix-up, emitted after the
    /// slow paths.
    fixups: Vec<(Label, Label)>,
    /// Per stride `s` of a linear register some packed code reads as
    /// dwords, where the lane offsets `l·s` of each half are.
    steps: Vec<(i32, [Label; HALVES])>,
    /// Program-wide deopt table (ids are stub return code − 3).
    deopts: Vec<Deopt>,
    /// Parallel loops discovered so far, in dispatch-id order.
    pending: Vec<ParWork<'a>>,
    next_par_id: usize,
    /// The lane whose value chunk code is computing (`Some(0)` for a
    /// once-per-chunk uniform/linear result); `None` outside chunks.
    lane: Option<usize>,
    chunk: Option<ChunkCtx>,
    /// Lane shapes are the steady copy's: one is emitted, or the slow
    /// path of one of its accesses.
    steady: bool,
    /// While a steady copy is emitted: the general copy of the same chunk,
    /// where a failing clamp test restarts, and the clamps it tests.
    restart: Option<(Label, Vec<Clamp>)>,
    /// Vector chunks emitted with a steady copy so far.
    steady_chunks: usize,
    /// Per file (`File as usize`), per register: its pair has been
    /// written to (or loaded from) its lane array in the current chunk, so
    /// the two agree until the chunk ends (registers are defined once per
    /// chunk).
    synced: [Vec<bool>; 2],
    /// Every register's record, every access's verdict, every chunk's
    /// clamps.
    facts: Facts,
}

const SAVED: [Gpr; 6] = [Gpr::Rbx, Gpr::Rbp, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15];

impl<'a> Emit<'a> {
    fn emit_fn(&mut self, par: Option<(usize, ParWork<'a>)>) {
        match par {
            None => self.a.comment(|| "fn main(ctx)".to_string()),
            Some((id, _)) => self.a.comment(|| format!("fn par{id}(ctx, lo, hi)")),
        }
        for r in SAVED {
            self.a.push_r(r);
        }
        let frame = self.alloc.frame_size;
        self.a.sub_ri(Gpr::Rsp, frame);
        self.a.mov_rr(Gpr::R15, Gpr::Rdi);
        if self.alloc.frame {
            self.a.mov_rm(Gpr::R14, Mem::base(Gpr::R15, CTX_FRAME));
        }
        self.exit = self.a.new_label();
        match par {
            None => {
                let prologue = &self.bc.prologue;
                let body = &self.bc.body;
                self.load_invariants();
                self.emit_insts(prologue);
                self.emit_block(body);
            }
            Some((_, w)) => {
                // Bounds arrive in rsi/rdx (neither is a home the counter
                // could take before rdx is read), and reach their homes
                // before anything else does; iterate like the
                // interpreter's per-worker range loop.
                let ctr = self.counter(w.stmt);
                let hi = self.alloc.par_hi;
                self.set_home(ctr, Src::Reg(Gpr::Rsi));
                self.set_home(hi, Src::Reg(Gpr::Rdx));
                self.load_invariants();
                let role = Role::of(w.body);
                self.emit_counted_loop(w.var, ctr, Bound::Home(hi), true, w.preamble, w.body, role);
            }
        }
        self.a.xor_rr(Gpr::Rax, Gpr::Rax);
        self.a.bind(self.exit);
        self.a.add_ri(Gpr::Rsp, frame);
        for r in SAVED.iter().rev() {
            self.a.pop_r(*r);
        }
        self.a.ret();
        self.emit_cold();
    }

    /// Loads what the function reads and never writes into the registers
    /// the scan gave it, once: the data pointer of every buffer it
    /// accesses, from the buffer table, and every pin an enclosing
    /// function defined, from the pin arrays (broadcast to all four lanes
    /// where it is kept so). One the scan spilled stays where it is.
    fn load_invariants(&mut self) {
        let bases: Vec<(usize, Gpr)> = (self.alloc.bases.iter().enumerate())
            .filter_map(|(buf, h)| if let Home::Gpr(g) = *h { Some((buf, g)) } else { None })
            .collect();
        if !bases.is_empty() {
            self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::R15, CTX_BUFS));
        }
        for (buf, g) in bases {
            self.a.comment(|| format!("data of buffer {buf}"));
            self.a.mov_rm(g, Mem::base(Gpr::Rax, buf as i32 * 8));
        }
        let mut arr = None;
        for (file, r) in std::mem::take(&mut self.alloc.pins) {
            let home = match file {
                File::I => self.alloc.homes_i[r as usize],
                File::F => self.alloc.homes_f[r as usize],
            };
            if home == Home::Ctx {
                continue;
            }
            if arr != Some(file) {
                let at = if file == File::I { CTX_IPIN } else { CTX_FPIN };
                self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::R15, at));
                arr = Some(file);
            }
            self.a.comment(|| format!("pin {}{r}", if file == File::I { 'i' } else { 'f' }));
            match home {
                Home::Gpr(g) => self.a.mov_rm(g, Mem::base(Gpr::Rax, r as i32 * 8)),
                Home::Xmm(x) => {
                    self.a.movss_xm(x, Mem::base(Gpr::Rax, r as i32 * 4));
                    self.set_home_f(r, x);
                }
                h => unreachable!("a pin the scan kept lives in a register: {h:?}"),
            }
        }
    }

    /// A GPR holding buffer `buf`'s data pointer: its home, or rcx loaded
    /// from the buffer table.
    fn base(&mut self, buf: u32) -> Gpr {
        match self.alloc.bases[buf as usize] {
            Home::Gpr(g) => g,
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R15, CTX_BUFS));
                self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rcx, buf as i32 * 8));
                Gpr::Rcx
            }
            h => unreachable!("buffer {buf}'s data pointer lives in {h:?}"),
        }
    }

    /// `cmp x, len(buf)`: the length the code was compiled for, which
    /// `JitProgram::run` checks every buffer has.
    fn cmp_len(&mut self, x: Gpr, buf: u32) {
        let len = self.bc.buf_sizes[buf as usize] as i64;
        match i32::try_from(len) {
            Ok(v) => self.a.cmp_ri(x, v),
            Err(_) => {
                self.a.mov_ri(Gpr::Rcx, len);
                self.a.cmp_rr(x, Gpr::Rcx);
            }
        }
    }

    // -- operand access ------------------------------------------------------

    /// The lane shape of register `r` in the chunk copy being emitted
    /// (`None`: defined outside every chunk).
    fn chunk_shape(&self, file: File, r: Reg) -> Option<Shape> {
        let f = self.facts.reg(file, r);
        if self.steady {
            f.steady
        } else {
            f.general
        }
    }

    /// [`Self::chunk_shape`], a register from outside the chunk uniform.
    fn shape(&self, file: File, r: Reg) -> Shape {
        self.chunk_shape(file, r).unwrap_or(Shape::Uniform)
    }

    /// Reads i-register `r` — in a chunk, its value in the current lane —
    /// into `dst` (uses `dst` itself for the ctx pin-array indirection, so
    /// any scratch register works).
    fn read_i(&mut self, dst: Gpr, r: Reg) {
        if let (Some(l), Some(shape)) = (self.lane, self.chunk_shape(File::I, r)) {
            let (slot, add) = match shape {
                Shape::Varying => (l, 0),
                Shape::Uniform => (0, 0),
                Shape::Linear(s) => (0, l as i32 * s),
            };
            match self.lane_array_i(r) {
                None => self.read_i_home(dst, r),
                // A narrow register's lanes are dwords (see `sync`).
                Some(arr) if self.facts.i[r as usize].narrow => {
                    self.a.movsxd_rm(dst, Mem::base(Gpr::Rsp, arr + (slot * 4) as i32))
                }
                Some(arr) => self.a.mov_rm(dst, Mem::base(Gpr::Rsp, arr + (slot * 8) as i32)),
            }
            if add != 0 {
                self.a.add_ri(dst, add);
            }
            return;
        }
        self.read_i_home(dst, r);
    }

    /// The lane array chunk code keeps the eight lanes of a varying
    /// i-register `r` in. Otherwise lane 0 is in the scalar home — also
    /// for a register the steady copy of a chunk makes linear, which has a
    /// lane array for the general copy.
    fn lane_array_i(&self, r: Reg) -> Option<i32> {
        let lanes = self.lanes(File::I, r)?;
        (self.shape(File::I, r) == Shape::Varying).then_some(lanes.arr)
    }

    /// Register `r`'s place in the lane file, if it has one here.
    fn lanes(&self, file: File, r: Reg) -> Option<Lanes> {
        self.alloc.lanes[file as usize][r as usize]
    }

    /// Reads i-register `r`'s scalar home into `dst`.
    fn read_i_home(&mut self, dst: Gpr, r: Reg) {
        if let Some(v) = remat(&self.facts.i[r as usize]) {
            return self.a.mov_ri(dst, v);
        }
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => self.a.mov_rr(dst, g),
            Home::Stack(off) => self.a.mov_rm(dst, Mem::base(Gpr::Rsp, off)),
            Home::Ctx => {
                self.a.mov_rm(dst, Mem::base(Gpr::R15, CTX_IPIN));
                self.a.mov_rm(dst, Mem::base(dst, r as i32 * 8));
            }
            _ => unreachable!("i-reg read from {:?}", r),
        }
    }

    /// Writes rax to i-register `r` — in a chunk, its value in the current
    /// lane (lane 0 of a uniform or linear register) — (clobbers rcx for a
    /// pinned one).
    fn write_i(&mut self, r: Reg) {
        if let (Some(l), Some(arr)) = (self.lane, self.lane_array_i(r)) {
            debug_assert!(!self.facts.i[r as usize].narrow, "narrow i{r} is defined packed");
            self.a.mov_mr(Mem::base(Gpr::Rsp, arr + (l * 8) as i32), Gpr::Rax);
            return;
        }
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => self.a.mov_rr(g, Gpr::Rax),
            Home::Stack(off) => self.a.mov_mr(Mem::base(Gpr::Rsp, off), Gpr::Rax),
            _ => unreachable!("i-reg write to {:?}", r),
        }
        self.pin_i(Gpr::Rax, r);
    }

    /// Writes `x`, i-register `r`'s new value, to its pin slot if `r` is
    /// pinned, for the `Parallel` bodies that read it (clobbers rcx). A
    /// pinned constant never gets here: its `ConstI` emits nothing.
    fn pin_i(&mut self, x: Gpr, r: Reg) {
        if self.facts.i[r as usize].pinned {
            self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R15, CTX_IPIN));
            self.a.mov_mr(Mem::base(Gpr::Rcx, r as i32 * 8), x);
        }
    }

    /// Reads f-register `r` — in a chunk, its value in the current lane,
    /// which per-lane code finds in the lane array of a varying register —
    /// into `dst`.
    fn read_f(&mut self, dst: Xmm, r: Reg) {
        let x = self.reg_f(r, dst);
        if x != dst {
            self.a.movaps_xx(dst, x);
        }
    }

    /// An XMM holding f-register `r`'s value in lane 0 ([`Self::read_f`]'s
    /// value): its XMM home, or `scratch` loaded with it (clobbers rdx for
    /// a pin read from its pin array).
    fn reg_f(&mut self, r: Reg, scratch: Xmm) -> Xmm {
        if let (Some(l), Some(shape), Some(lanes)) =
            (self.lane, self.chunk_shape(File::F, r), self.lanes(File::F, r))
        {
            let slot = if shape == Shape::Varying { l } else { 0 };
            self.a.movss_xm(scratch, Mem::base(Gpr::Rsp, lanes.arr + (slot * 4) as i32));
            return scratch;
        }
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) => return x,
            Home::Stack(off) => self.a.movss_xm(scratch, Mem::base(Gpr::Rsp, off)),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rdx, Mem::base(Gpr::R15, CTX_FPIN));
                self.a.movss_xm(scratch, Mem::base(Gpr::Rdx, r as i32 * 4));
            }
            _ => unreachable!("f-reg read from {:?}", r),
        }
        scratch
    }

    /// The XMM home [`Self::write_f_from`] writes f-register `r` in, if it
    /// has one here: not a lane of a lane array.
    fn home_xmm(&self, r: Reg) -> Option<Xmm> {
        if self.lane.is_some() && self.lanes(File::F, r).is_some() {
            return None;
        }
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) => Some(x),
            _ => None,
        }
    }

    /// Writes xmm0 to f-register `r` (see [`Self::write_f_from`]).
    fn write_f(&mut self, r: Reg) {
        self.write_f_from(r, Xmm(0));
    }

    /// Writes lane 0 of `src` to f-register `r` — in a chunk, to the
    /// current lane's slot of its lane array if it has one, else (lane 0
    /// of a uniform register) to its scalar home, broadcast to all four
    /// lanes of an XMM home kept so — and to its pin slot if it is pinned
    /// (clobbers rdx then).
    fn write_f_from(&mut self, r: Reg, src: Xmm) {
        if let (Some(l), Some(lanes)) = (self.lane, self.lanes(File::F, r)) {
            self.a.movss_mx(Mem::base(Gpr::Rsp, lanes.arr + (l * 4) as i32), src);
            return;
        }
        self.set_home_f(r, src);
        if self.facts.f[r as usize].pinned {
            self.a.mov_rm(Gpr::Rdx, Mem::base(Gpr::R15, CTX_FPIN));
            self.a.movss_mx(Mem::base(Gpr::Rdx, r as i32 * 4), src);
        }
    }

    /// Writes lane 0 of `src` to f-register `r`'s scalar home.
    fn set_home_f(&mut self, r: Reg, src: Xmm) {
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) => {
                if x != src {
                    self.a.movaps_xx(x, src);
                }
                if self.alloc.splat[r as usize] {
                    self.a.shufps(x, x, 0);
                }
            }
            Home::Stack(off) => self.a.movss_mx(Mem::base(Gpr::Rsp, off), src),
            _ => unreachable!("f-reg write to {:?}", r),
        }
    }

    // -- two-address operands ------------------------------------------------

    /// Where two-address code finds i-register `r`'s value (in a chunk,
    /// lane 0's, which its scalar home holds unless `r` is varying): a
    /// constant that fits `i32` is an immediate, a GPR or stack home is
    /// read in place. `None`: [`Self::read_i`] must fetch it (a pinned
    /// register, or another lane).
    fn src_i(&self, r: Reg) -> Option<Src> {
        if let (Some(l), Some(shape)) = (self.lane, self.chunk_shape(File::I, r)) {
            match shape {
                Shape::Varying => return None,
                Shape::Linear(_) if l > 0 => return None,
                _ => {}
            }
        }
        if let Some(v) = self.facts.i[r as usize].imm() {
            return Some(Src::Imm(v));
        }
        Self::home_src(self.alloc.homes_i[r as usize])
    }

    /// A GPR or stack home as an operand.
    fn home_src(h: Home) -> Option<Src> {
        match h {
            Home::Gpr(g) => Some(Src::Reg(g)),
            Home::Stack(off) => Some(Src::Mem(Mem::base(Gpr::Rsp, off))),
            _ => None,
        }
    }

    /// The GPR two-address code computes i-register `r` in: its home, or
    /// `None` for rax and [`Self::write_i`] (a stack or lane-array
    /// destination).
    fn dst_i(&self, r: Reg) -> Option<Gpr> {
        if self.lane.is_some() && self.lane_array_i(r).is_some() {
            return None;
        }
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => Some(g),
            _ => None,
        }
    }

    /// `d = s`.
    fn load(&mut self, d: Gpr, s: Src) {
        match s {
            Src::Reg(g) if g == d => {}
            Src::Reg(g) => self.a.mov_rr(d, g),
            Src::Imm(v) => self.a.mov_ri(d, v.into()),
            Src::Mem(m) => self.a.mov_rm(d, m),
        }
    }

    /// `r`'s value as an operand, fetched into `scratch` if it has to be.
    fn opnd_i(&mut self, r: Reg, scratch: Gpr) -> Src {
        match self.src_i(r) {
            Some(s) => s,
            None => {
                self.read_i(scratch, r);
                Src::Reg(scratch)
            }
        }
    }

    /// `d = r`.
    fn load_i(&mut self, d: Gpr, r: Reg) {
        let s = self.opnd_i(r, d);
        self.load(d, s);
    }

    /// A GPR holding `r`'s value: its home, or `scratch` loaded with it.
    fn reg_i(&mut self, r: Reg, scratch: Gpr) -> Gpr {
        match self.opnd_i(r, scratch) {
            Src::Reg(g) => g,
            s => {
                self.load(scratch, s);
                scratch
            }
        }
    }

    /// `op d, s`.
    fn alu(&mut self, op: Alu, d: Gpr, s: Src) {
        match s {
            Src::Reg(g) => self.a.alu_rr(op, d, g),
            Src::Imm(v) => self.a.alu_ri(op, d, v),
            Src::Mem(m) => self.a.alu_rm(op, d, m),
        }
    }

    /// Completes two-address code that computed i-register `r` in `d`.
    fn finish_i(&mut self, d: Gpr, r: Reg) {
        if d == Gpr::Rax {
            self.write_i(r);
        } else {
            self.pin_i(d, r);
        }
    }

    // -- loop counters -------------------------------------------------------

    /// The counter home of loop `s`.
    fn counter(&self, s: &BcStmt) -> Home {
        self.alloc.counters[&(s as *const BcStmt as usize)]
    }

    /// Writes `s` to a counter or bound home.
    fn set_home(&mut self, h: Home, s: Src) {
        match h {
            Home::Gpr(g) => self.load(g, s),
            Home::Stack(off) => {
                let x = match s {
                    Src::Reg(g) => g,
                    _ => {
                        self.load(Gpr::Rax, s);
                        Gpr::Rax
                    }
                };
                self.a.mov_mr(Mem::base(Gpr::Rsp, off), x);
            }
            _ => unreachable!("a counter lives in a GPR or a stack slot: {h:?}"),
        }
    }

    /// A GPR holding counter `h`'s value (rax for a spilled one).
    fn counter_reg(&mut self, h: Home) -> Gpr {
        match h {
            Home::Gpr(g) => g,
            Home::Stack(off) => {
                self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, off));
                Gpr::Rax
            }
            _ => unreachable!("a counter lives in a GPR or a stack slot: {h:?}"),
        }
    }

    /// `h += step`, leaving the new value in the returned GPR.
    fn bump(&mut self, h: Home, step: i32) -> Gpr {
        let x = self.counter_reg(h);
        self.a.add_ri(x, step);
        if let Home::Stack(off) = h {
            self.a.mov_mr(Mem::base(Gpr::Rsp, off), x);
        }
        x
    }

    /// The bound of a loop whose upper-bound register is `upper`.
    fn bound(&self, upper: Reg) -> Bound {
        match self.facts.i[upper as usize].konst {
            Some(v) => Bound::Imm(v),
            None => Bound::Reg(upper),
        }
    }

    /// `cmp x, bound`.
    fn cmp_bound(&mut self, x: Gpr, b: Bound) {
        let s = match b {
            Bound::Imm(v) => match i32::try_from(v) {
                Ok(v) => Src::Imm(v),
                Err(_) => {
                    self.a.mov_ri(Gpr::Rcx, v);
                    Src::Reg(Gpr::Rcx)
                }
            },
            Bound::Reg(r) => self.opnd_i(r, Gpr::Rcx),
            Bound::Home(h) => Self::home_src(h).expect("a bound lives in a GPR or a stack slot"),
        };
        self.alu(Alu::Cmp, x, s);
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
                if self.facts.frame_read[*var as usize] {
                    let x = self.reg_i(*reg, Gpr::Rax);
                    self.a.mov_mr(Mem::base(Gpr::R14, *var as i32 * 8), x);
                }
            }
            BcStmt::Store { code, buf, idx, val } => {
                self.emit_insts(code);
                self.emit_store(*buf, *idx, *val, self.facts.store(s));
            }
            BcStmt::If { code, cond, then, else_ } => {
                self.emit_insts(code);
                let x = self.reg_i(*cond, Gpr::Rax);
                self.a.test_rr(x, x);
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
            BcStmt::For { var, lower, upper, kind, preamble, body, .. } => {
                self.emit_insts(&lower.insts);
                self.emit_insts(&upper.insts);
                if *kind == LoopKind::Parallel {
                    self.emit_par_call(s, lower.reg, upper.reg);
                    return;
                }
                if lane_grouped(*kind, body) {
                    return self.emit_vector_loop(s, *var, lower.reg, upper.reg, preamble, body);
                }
                let ctr = self.counter(s);
                let lo = self.opnd_i(lower.reg, Gpr::Rax);
                self.set_home(ctr, lo);
                // Constant bounds with iterations need no test at the head.
                let checked = self.facts.trips(lower.reg, upper.reg).is_none();
                let (bound, role) = (self.bound(upper.reg), Role::of(body));
                self.emit_counted_loop(*var, ctr, bound, checked, preamble, body, role);
            }
        }
    }

    /// `[test ctr < hi;] do { frame[var] = ctr; preamble; body; ctr += 1 }
    /// while ctr < hi`, with the back edge as a direct conditional jump.
    /// `checked`: the loop may run no iteration. The frame slot is written
    /// only where some `ReadVar` reads it ([`Facts::frame_read`]).
    #[allow(clippy::too_many_arguments)]
    fn emit_counted_loop(
        &mut self,
        var: u32,
        ctr: Home,
        hi: Bound,
        checked: bool,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
        role: Role,
    ) {
        let top = self.a.new_label();
        let done = self.a.new_label();
        if checked {
            let x = self.counter_reg(ctr);
            self.cmp_bound(x, hi);
            self.a.jcc(Cc::Ge, done);
        }
        // The listing marks each iteration's code, from here to `end`.
        match role {
            Role::Innermost => self.a.comment(|| format!("innermost loop v{var}")),
            Role::Remainder => self.a.comment(|| format!("remainder v{var}")),
            Role::Other => self.a.comment(|| format!("loop v{var}")),
        }
        self.a.bind(top);
        let outer = role.counts().map(|on| self.a.count_loop(on));
        if self.facts.frame_read[var as usize] {
            let x = self.counter_reg(ctr);
            self.a.mov_mr(Mem::base(Gpr::R14, var as i32 * 8), x);
        }
        self.open.push((var, ctr));
        self.emit_insts(preamble);
        self.emit_block(body);
        self.open.pop();
        let x = self.bump(ctr, 1);
        self.cmp_bound(x, hi);
        self.a.jcc(Cc::L, top);
        if let Some(on) = outer {
            self.a.count_loop(on);
        }
        self.a.comment(|| format!("end v{var}"));
        self.a.bind(done);
    }

    /// `f[dst] = buf[i[idx]]`, behind a bounds check jumping to a deopt
    /// stub unless proven; loaded into `dst`'s XMM home if it has one.
    fn emit_load(&mut self, dst: Reg, buf: u32, idx: Reg, guard: Option<Kept>) {
        let ix = self.index(idx, guard);
        self.bounds_check(Deopt::LoadOob { buf }, buf, guard);
        let base = self.base(buf);
        let x = self.home_xmm(dst).unwrap_or(Xmm(0));
        self.a.movss_xm(x, Mem::sib(base, ix, 4, 0));
        self.write_f_from(dst, x);
    }

    /// The GPR an access indexes with: the index's home for a proven
    /// access, else rax, where a guard's deopt stub expects it.
    fn index(&mut self, idx: Reg, guard: Option<Kept>) -> Gpr {
        match guard {
            None => self.reg_i(idx, Gpr::Rax),
            Some(_) => {
                self.read_i(Gpr::Rax, idx);
                Gpr::Rax
            }
        }
    }

    /// `buf[i[idx]] = f[val]`, behind a bounds check jumping to a deopt
    /// stub unless proven.
    fn emit_store(&mut self, buf: u32, idx: Reg, val: Reg, guard: Option<Kept>) {
        let ix = self.index(idx, guard);
        self.bounds_check(Deopt::StoreOob { buf }, buf, guard);
        let base = self.base(buf);
        let v = self.reg_f(val, Xmm(0));
        self.a.movss_mx(Mem::sib(base, ix, 4, 0), v);
    }

    /// `rax <u len(buf)` or deopt, for an access kept guarded (`guard`
    /// says why); nothing for a proven one.
    fn bounds_check(&mut self, d: Deopt, buf: u32, guard: Option<Kept>) {
        let Some(why) = guard else { return };
        self.a.comment(|| format!("guard: {}", why.why()));
        self.cmp_len(Gpr::Rax, buf);
        let stub = self.trap(d);
        self.a.jcc(Cc::Ae, stub);
    }

    /// Evaluates bounds into arg registers and calls the parallel
    /// dispatch trampoline; a nonzero status propagates to the epilogue.
    fn emit_par_call(&mut self, stmt: &'a BcStmt, lo_reg: Reg, hi_reg: Reg) {
        let BcStmt::For { var, par, preamble, body, .. } = stmt else { unreachable!("a loop") };
        let (var, par) = (*var, *par);
        let id = self.next_par_id;
        self.next_par_id += 1;
        self.pending.push(ParWork { stmt, var, par, preamble, body });
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
            // A rematerialized constant is read as one where it is used.
            Inst::ConstI { dst, .. } if remat(&self.facts.i[dst as usize]).is_some() => {}
            Inst::ConstI { dst, v } => {
                let d = self.dst_i(dst).unwrap_or(Gpr::Rax);
                self.a.mov_ri(d, v);
                self.finish_i(d, dst);
            }
            Inst::ConstF { dst, v } => {
                self.a.mov_ri32(Gpr::Rax, v.to_bits());
                self.a.movd_xr(Xmm(0), Gpr::Rax);
                self.write_f(dst);
            }
            Inst::ReadVar { dst, var } => {
                let d = self.dst_i(dst).unwrap_or(Gpr::Rax);
                match (self.lane, self.chunk) {
                    // The vectorized loop variable: lane value is the chunk
                    // base plus the lane index.
                    (Some(l), Some(c)) if c.var == var => match c.base {
                        Base::Imm(lo) => self.a.mov_ri(d, lo + l as i64),
                        Base::Ctr(h) => {
                            self.load(d, Self::home_src(h).expect("a counter home"));
                            if l > 0 {
                                self.a.add_ri(d, l as i32);
                            }
                        }
                    },
                    _ if self.facts.reads_counter(inst) => {
                        let (_, h) = *(self.open.iter().rev())
                            .find(|(v, _)| *v == var)
                            .expect("a counter read is in its loop");
                        self.load(d, Self::home_src(h).expect("a counter home"));
                    }
                    _ => self.a.mov_rm(d, Mem::base(Gpr::R14, var as i32 * 8)),
                }
                self.finish_i(d, dst);
            }
            Inst::Load { dst, buf, idx } => self.emit_load(dst, buf, idx, self.facts.load(inst)),
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
                // Both operands are read before `dst` is written.
                let d = self.dst_i(dst).unwrap_or(Gpr::Rax);
                let x = self.reg_i(a, Gpr::Rax);
                let y = self.opnd_i(b, Gpr::Rcx);
                self.alu(Alu::Cmp, x, y);
                let cc = match op {
                    BinOp::Lt => Cc::L,
                    BinOp::Le => Cc::Le,
                    BinOp::EqCmp => Cc::E,
                    _ => unreachable!(),
                };
                self.a.setcc_r8(cc, Gpr::Rax);
                self.a.movzx_r64_r8(d, Gpr::Rax);
                self.finish_i(d, dst);
            }
            Inst::CmpF { dst, op, a, b } => {
                self.read_f(Xmm(0), a);
                self.read_f(Xmm(1), b);
                match op {
                    // `a < b` as `b > a` so unordered (NaN) reads false:
                    // after ucomiss, CF/ZF/PF are all set when unordered
                    // and `a`/`ae` require CF clear.
                    BinOp::Lt | BinOp::Le => {
                        self.a.ucomiss(Xmm(1), Xmm(0));
                        let cc = if op == BinOp::Lt { Cc::A } else { Cc::Ae };
                        self.a.setcc_r8(cc, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                    }
                    BinOp::EqCmp => {
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
            Inst::SelI { dst, c, a, b } => self.emit_sel_i(dst, c, a, b),
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
                // Rust's saturating `f32 as i64`: `cvttss2si` truncates
                // alike, except that NaN and every value out of range give
                // `i64::MIN`. Only that value (`rax − 1` overflows) leaves
                // for the out-of-line fix-up.
                self.read_f(Xmm(0), a);
                self.a.cvttss2si(Gpr::Rax, Xmm(0));
                self.a.cmp_ri(Gpr::Rax, 1);
                let (fix, cont) = (self.a.new_label(), self.a.new_label());
                self.a.jcc(Cc::O, fix);
                self.fixups.push((fix, cont));
                self.a.bind(cont);
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

    /// `dst = c ? a : b`. The condition is tested first; the moves that
    /// follow keep the flags, so `dst` may share any operand's home.
    fn emit_sel_i(&mut self, dst: Reg, c: Reg, a: Reg, b: Reg) {
        let d = self.dst_i(dst).unwrap_or(Gpr::Rax);
        let (sa, sb) = (self.src_i(a), self.src_i(b));
        if sb == Some(Src::Reg(d)) && sa != sb {
            // `dst` holds `b` already: keep it unless `c` is set.
            let x = self.reg_i(a, Gpr::Rax);
            let t = self.reg_i(c, Gpr::Rdx);
            self.a.test_rr(t, t);
            self.a.cmov_rr(Cc::Ne, d, x);
        } else {
            let y = self.reg_i(b, Gpr::Rcx);
            // A read that computes (another lane of a linear value) would
            // disturb the flags: it goes to rax before the test.
            let x = self.opnd_i(a, Gpr::Rax);
            let t = self.reg_i(c, Gpr::Rdx);
            self.a.test_rr(t, t);
            self.load(d, x);
            self.a.cmov_rr(Cc::E, d, y);
        }
        self.finish_i(d, dst);
    }

    /// `dst = op(a, b)`. `+ − × min max`, and `/ %` by `2^k`, are
    /// two-address code on the homes: `mov d, a; op d, b`, a constant `b`
    /// that fits `i32` as an immediate. When `d` is `b`'s home, `+ × min
    /// max` swap their operands and `−` goes through rax.
    fn emit_bin_i(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg) {
        let divisor = match op {
            BinOp::Div | BinOp::Rem => self.facts.i[b as usize].konst,
            _ => None,
        };
        if let Some(k) = divisor.and_then(pow2) {
            // Euclidean `/ 2^k` and `% 2^k` are an arithmetic shift and a
            // mask for every i64, negative ones included: nothing traps.
            let d = self.dst_i(dst).unwrap_or(Gpr::Rax);
            self.load_i(d, a);
            if op == BinOp::Div {
                self.a.sar_ri(d, k as u8);
            } else {
                match i32::try_from((1i64 << k) - 1) {
                    Ok(mask) => self.a.alu_ri(Alu::And, d, mask),
                    Err(_) => {
                        self.a.mov_ri(Gpr::Rcx, (1i64 << k) - 1);
                        self.a.and_rr(d, Gpr::Rcx);
                    }
                }
            }
            return self.finish_i(d, dst);
        }
        if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max) {
            return self.emit_two_address(dst, op, a, b);
        }
        self.read_i(Gpr::Rax, a);
        self.read_i(Gpr::Rcx, b);
        match op {
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
            _ => unreachable!("{op:?} is two-address code or a comparison"),
        }
        self.write_i(dst);
    }

    /// [`Self::emit_bin_i`] for `+ − × min max`.
    fn emit_two_address(&mut self, dst: Reg, op: BinOp, mut a: Reg, mut b: Reg) {
        let d = self.dst_i(dst).unwrap_or(Gpr::Rax);
        let (sa, sb) = (self.src_i(a), self.src_i(b));
        let imm = |s: Option<Src>| matches!(s, Some(Src::Imm(_)));
        let in_d = |s: Option<Src>| s == Some(Src::Reg(d));
        // A constant goes right, and so does `d`'s own register.
        if op != BinOp::Sub && ((imm(sa) && !imm(sb)) || (in_d(sb) && !in_d(sa))) {
            std::mem::swap(&mut a, &mut b);
        } else if in_d(sb) && !in_d(sa) {
            // `d − x` into `d`, `d` holding `x`: in rax, then moved.
            self.load_i(Gpr::Rax, a);
            self.a.sub_rr(Gpr::Rax, d);
            self.a.mov_rr(d, Gpr::Rax);
            return self.finish_i(d, dst);
        }
        match op {
            BinOp::Mul => match self.opnd_i(b, Gpr::Rcx) {
                Src::Imm(v) => {
                    let x = self.reg_i(a, d);
                    self.a.imul_rri(d, x, v);
                }
                y => {
                    self.load_i(d, a);
                    match y {
                        Src::Reg(g) => self.a.imul_rr(d, g),
                        Src::Mem(m) => self.a.imul_rm(d, m),
                        Src::Imm(_) => unreachable!(),
                    }
                }
            },
            BinOp::Add | BinOp::Sub => {
                let y = self.opnd_i(b, Gpr::Rcx);
                self.load_i(d, a);
                self.alu(if op == BinOp::Add { Alu::Add } else { Alu::Sub }, d, y);
            }
            _ => {
                // `cmov` takes no immediate.
                let y = self.reg_i(b, Gpr::Rcx);
                self.load_i(d, a);
                self.a.cmp_rr(d, y);
                self.a.cmov_rr(if op == BinOp::Min { Cc::G } else { Cc::L }, d, y);
            }
        }
        self.finish_i(d, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::{Program, Stmt};
    use crate::vm::{apply_i, Machine};

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
            assert_eq!(jit.footprint().deopt_reasons[2..4], [0, 0], "no div/rem guard for 2^{k}");
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
            compile(&bc).unwrap().footprint().deopt_reasons[3]
        };
        assert_eq!(guards(Expr::i64(24)), 0);
        assert_eq!(guards(Expr::i64(-7)), 0);
        assert_eq!(guards(Expr::i64(i64::MIN)), 0);
        assert_eq!(guards(Expr::i64(-1)), 2);
        let mut p = Program::new();
        let y = p.var("y");
        assert_eq!(guards(Expr::var(y)), 2);
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

    /// The estimates the JIT fills in from its facts are the ones a first
    /// run on two threads derives for a fresh copy of the program, and the
    /// native code records them in dispatch-id order, so both tiers decide
    /// every dispatch alike and open a crew only for a program some
    /// dispatch of which can reach it.
    #[test]
    fn par_fns_record_the_interpreters_estimates() {
        let mut p = Program::new();
        let a = p.buffer("A", 4096);
        let (i, j, n) = (p.var("i"), p.var("j"), p.var("n"));
        let at = Expr::var(i) * Expr::i64(64) + Expr::var(j);
        let par = |upper: Expr, inner: i64| {
            Stmt::for_(
                i,
                Expr::i64(0),
                upper,
                LoopKind::Parallel,
                vec![Stmt::serial(
                    j,
                    Expr::i64(0),
                    Expr::i64(inner),
                    vec![Stmt::store(a, at.clone(), Expr::load(a, at.clone()) + Expr::f32(1.0))],
                )],
            )
        };
        p.push(par(Expr::i64(4), 13));
        p.push(par(Expr::i64(64), 64));
        let check = |p: &Program, may_split: bool| {
            let bc = crate::opt::compile_program(p).unwrap();
            let fresh = bc.clone();
            let emitted = emit(&bc, Asm::new()).unwrap();
            let mut m = crate::Machine::new(p);
            m.set_threads(2);
            m.run_bytecode(&fresh).unwrap();
            let want = fresh.estimates.get().expect("the run derived the estimates").to_vec();
            assert_eq!(**bc.estimates.get().expect("the JIT filled the estimates"), *want);
            let got: Vec<u64> = emitted.par_fns.iter().map(|f| f.1).collect();
            assert_eq!(got, want.iter().map(|e| e.per_iter).collect::<Vec<_>>());
            assert_eq!(emitted.may_split, may_split, "{want:?}");
            assert_eq!(crate::par::may_split(&want), may_split, "{want:?}");
            want
        };
        let want = check(&p, false);
        assert_eq!((want[0].trips, want[1].trips), (4, 64));
        assert!(want[0].per_iter < want[1].per_iter && want[1].per_iter < u64::MAX, "{want:?}");
        // A bound with no fact (`n` is a parameter): unbounded, may split.
        p.push(par(Expr::var(n), 64));
        assert_eq!(check(&p, true)[2].trips, u64::MAX);
    }
}
