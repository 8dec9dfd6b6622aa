//! Linear-scan register allocation of bytecode registers, and of the
//! values native code would otherwise fetch again at every use, over host
//! GPRs/XMMs with spill slots.
//!
//! Each native function (the main program plus one body function per
//! `Parallel` loop) is allocated independently:
//!
//! 1. **Linearize**: walk the function's instruction tree in emission
//!    order, assigning every instruction a position and recording loop
//!    regions and helper-call sites.
//! 2. **Intervals**: the program is strict SSA — one def site per
//!    register, dominating every use — so a register's interval is
//!    `[def, last_use]`, extended to the end of any loop it is live into
//!    (values defined before a loop and read inside it must survive the
//!    back edge). A loop of one straight-line chunk has no back edge, and
//!    extends nothing unless its steady copy can restart in its general
//!    one.
//! 3. **Scan**: intervals sorted by start are assigned host registers from
//!    two pools (GPRs for the `i64` file, XMMs for the `f32` file). A
//!    `Varying` `f32` register of a vector chunk asks for a *pair* of
//!    XMMs, the halves of its lanes ([`Lanes`]); the scalar-remainder
//!    loop, disjoint code over the same interval, uses the first one's
//!    low lane. A narrow `i64` chunk register (its lanes are packed
//!    dwords, see [`super::facts`]) keeps the GPR or slot the scan gives
//!    it for the scalar code, and its dwords ask for a pair as an
//!    interval of their own over the same span. Intervals crossing a
//!    helper call get callee-saved GPRs or spill. When the pool is short,
//!    the active intervals that weigh less than the incoming one give up
//!    their registers, lightest first and among equals those that end
//!    last (Poletto & Sarkar's furthest-end rule); otherwise the incoming
//!    interval spills. Every definition and read weighs [`HEAT`] to the
//!    power of its depth in loops that keep a counter, twice that for a
//!    pair, which moves two registers, so in a deep nest the outer loops'
//!    values and counters spill and the innermost ones stay in registers.
//!
//! Every non-parallel loop the emitter keeps a counter for
//! ([`Facts::has_counter`]) has an interval of its own, from the loop
//! head to its back edge, scanned like a register's. A bound that is not
//! a constant is read at the back edge, so its register's interval spans
//! the loop too; a parallel body's upper bound, an argument, gets an
//! interval like a counter's.
//!
//! So do the loop invariants a function reads and never writes: the data
//! pointer of each buffer it accesses ([`FnAlloc::bases`]), and each
//! *pinned* register it reads and an enclosing function defines
//! ([`FnAlloc::pins`]). Registers read inside a `Parallel` loop but
//! defined outside it are pinned: the defining function also writes them
//! to the `JitCtx` pin arrays, so worker threads (a different native
//! frame) see the snapshot the interpreter's workers clone. Both kinds
//! are loaded once at the function's entry, from the buffer table and the
//! pin arrays; one the scan spills needs no stack slot and is read from
//! there at every use ([`Home::Ctx`]). A buffer's length needs no
//! interval: it is the constant the code was compiled for.
//!
//! Some registers get no interval: a constant that fits `i32` (read as an
//! immediate) or is pinned (materialized where it is read, [`remat`]), a
//! `let`'s value whose frame slot nothing reads, and an `i64` register
//! varying in both copies of a chunk with no scalar remainder (it lives in
//! its pair or lane array). r14 holds the variable frame only in a
//! function that reads or writes it, and is allocatable in the others.
//!
//! A GPR interval that ends where another starts may hand it its
//! register: the instruction reads its operands before it writes its
//! result, and the emitter orders two-address code so that holds. An XMM
//! pair is written half by half, after the half of the instruction's
//! first operand is read, so a lane-wise operation hands the pair of a
//! first operand that dies there to its result ([`Scan::hand`]); other
//! XMM intervals stay apart.
//!
//! A uniform `f32` register that packed code reads is broadcast to all
//! four lanes of its XMM home where it is defined ([`FnAlloc::splat`]),
//! not once per read.
//!
//! Chunk registers of the other shapes keep lane 0 in their scalar home.
//! Only `Varying` ones get a place in the lane file ([`Lanes`]): an
//! 8-lane stack array, and the pair the scan gave them, recorded the same
//! way for both register files.
//!
//! Shapes and pins are register facts ([`super::facts`]); this module
//! only linearizes and scans.

use std::collections::HashMap;

use super::asm::{Gpr, Mem, Xmm};
use super::facts::{lane_grouped, Fact, Facts, Shape};
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::expr::BinOp;
use crate::program::LoopKind;

/// Where a bytecode register lives in native code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Home {
    /// A host general-purpose register (i64 file).
    Gpr(Gpr),
    /// A host SSE register (f32 file).
    Xmm(Xmm),
    /// The scan's pair for a `Varying` chunk `f32` register: [`FnAlloc`]
    /// records it in [`Lanes`], and its first XMM as the scalar home.
    Pair(Xmm, Xmm),
    /// An `[rsp + off]` spill slot in the owning function's frame.
    Stack(i32),
    /// Where the run's context keeps it, read there at every use: a
    /// buffer's data pointer or a pin that the scan spilled, which needs no
    /// stack slot.
    Ctx,
    /// Never referenced in this function.
    Unused,
}

/// XMM registers per 8-lane value in the lane file (see [`Lanes`]).
pub(super) const HALVES: usize = 2;

/// The lane file: where chunk code keeps the eight lanes of a `Varying`
/// register — a 16-byte aligned stack array of 8-byte lanes for a wide
/// `i64` register, its only home, and of 4-byte ones for an `f32` or
/// narrow register, which packed code computes with SSE in its pair, if
/// any: [`HALVES`] XMMs of four lanes, half `h` at [`Lanes::offset`]`(h)`
/// in the array and in a contiguous access.
#[derive(Debug, Clone, Copy)]
pub(super) struct Lanes {
    /// The pair, half by half.
    pub regs: Option<[Xmm; HALVES]>,
    /// Stack offset of the lane array.
    pub arr: i32,
}

impl Lanes {
    /// Bytes from lane 0 to half `h`.
    pub(super) fn offset(h: usize) -> i32 {
        h as i32 * 16
    }

    /// Half `h` of the lane array.
    pub(super) fn half(self, h: usize) -> Mem {
        Mem::base(Gpr::Rsp, self.arr + Self::offset(h))
    }
}

/// Allocation result for one native function.
pub(super) struct FnAlloc {
    /// Home per `i64` register.
    pub homes_i: Vec<Home>,
    /// Home per `f32` register.
    pub homes_f: Vec<Home>,
    /// Per file (`File as usize`), per register: its place in the lane
    /// file, for a `Varying` chunk register defined in this function.
    pub lanes: [Vec<Option<Lanes>>; 2],
    /// The counter's home (a GPR or a stack slot) per loop that keeps
    /// one, keyed by the address of its `For` (a parallel body's own
    /// iteration loop included).
    pub counters: HashMap<usize, Home>,
    /// A parallel body's upper bound, which arrives as an argument.
    pub par_hi: Home,
    /// Per buffer: the home of its data pointer, loaded once at the
    /// function's entry (`Unused`: nothing here accesses it).
    pub bases: Vec<Home>,
    /// The pinned registers this function reads and an enclosing one
    /// defines, loaded once at its entry from the pin arrays.
    pub pins: Vec<(File, Reg)>,
    /// Per `f32` register: its XMM home holds its value in all four lanes
    /// (see [`Collect::splat`]).
    pub splat: Vec<bool>,
    /// Whether the function reads or writes the variable frame, whose
    /// pointer then lives in r14; otherwise r14 is allocatable.
    pub frame: bool,
    /// Total `sub rsp, _` size (keeps calls 16-byte aligned).
    pub frame_size: i32,
}

/// One function's code to allocate/emit: either the whole program or the
/// body of one `Parallel` loop (the `For` itself).
pub(super) enum FnCode<'a> {
    Main { prologue: &'a [Inst], body: &'a [BcStmt] },
    ParBody(&'a BcStmt),
}

// ---------------------------------------------------------------------------
// Per-function collection
// ---------------------------------------------------------------------------

/// Whether an instruction calls a helper (f32 rem/min/max/exp go through
/// Rust helpers to stay bit-identical with the interpreter; the f32->i64
/// cast is inline `cvttss2si`).
fn inst_calls(inst: &Inst) -> bool {
    use crate::expr::{BinOp, UnOp};
    matches!(
        inst,
        Inst::BinF { op: BinOp::Rem | BinOp::Min | BinOp::Max, .. }
            | Inst::UnF { op: UnOp::Exp, .. }
    )
}

struct Collect<'f> {
    pos: u64,
    def: Vec<Option<u64>>,
    last_use: Vec<u64>,
    used: Vec<bool>,
    loops: Vec<(u64, u64)>,
    calls: Vec<u64>,
    /// Flat index of the interval of each loop counter, keyed like
    /// [`FnAlloc::counters`]; these come after the registers'.
    counters: Vec<(usize, usize)>,
    n_iregs: usize,
    /// Registers of both files: flat indices from here on are counters
    /// and the parallel body's bound.
    n_regs: usize,
    facts: &'f Facts,
    /// Read by per-lane code between helper calls (see `insts`).
    reread_across_calls: Vec<bool>,
    /// The walk is in the chunk of a loop with no scalar remainder.
    chunks_only: bool,
    /// An `i64` register varying in both copies of such a chunk: chunk
    /// code keeps it in its lane array or pair, and no scalar code reads
    /// it, so it needs no GPR or slot.
    lanes_only: Vec<bool>,
    /// How many loops that keep a counter enclose the walk's position.
    depth: u32,
    /// The variable and counter interval of each of those loops.
    open: Vec<(u32, usize)>,
    /// Per interval: how often its home is touched, every definition and
    /// read weighing [`HEAT`] to the power of its loop depth.
    weight: Vec<u64>,
    /// Per buffer: the interval of its data pointer, once an access here
    /// reads it.
    bases: Vec<Option<usize>>,
    /// Per register: pinned, read here and defined by an enclosing
    /// function, so loaded at the entry.
    pin_in: Vec<bool>,
    /// Per `f32` register: uniform where some packed code reads it, which
    /// would broadcast it there (`Emit::splat`); it is broadcast where it
    /// is defined instead, if it gets an XMM.
    splat: Vec<bool>,
    /// Per register: the operand of its definition whose XMM pair it may
    /// take, if that operand's interval ends there (see `Scan::hand`).
    donor: Vec<Option<usize>>,
    /// The walk is in the chunk of a lane-grouped loop.
    in_chunk: bool,
    /// Some code here reads or writes the variable frame.
    frame: bool,
}

/// How much more often code one loop deeper runs, for spill weights.
const HEAT: u64 = 8;

impl Collect<'_> {
    fn flat(&self, file: File, r: Reg) -> usize {
        match file {
            File::I => r as usize,
            File::F => self.n_iregs + r as usize,
        }
    }

    /// The facts of the register at flat index `k`.
    fn fact(&self, k: usize) -> &Fact {
        match k.checked_sub(self.n_iregs) {
            None => &self.facts.i[k],
            Some(r) => &self.facts.f[r],
        }
    }

    /// Whether flat register `k` is `Varying` in its chunk.
    fn varying(&self, k: usize) -> bool {
        k < self.n_regs && self.fact(k).general == Some(Shape::Varying)
    }

    /// Whether flat register `k` has no interval: a constant read where it
    /// is used ([`remat`]).
    fn homeless(&self, k: usize) -> bool {
        k < self.n_iregs && remat(self.fact(k)).is_some()
    }

    /// A read of register `r` at `pos`. A register read here before any
    /// definition is pinned and defined by an enclosing function: its
    /// interval starts at the entry, which loads it.
    fn use_at(&mut self, file: File, r: Reg, pos: u64) {
        let k = self.flat(file, r);
        if self.homeless(k) {
            return;
        }
        if self.def[k].is_none() {
            debug_assert!(self.fact(k).pinned, "{file:?} register {r} read before its definition");
            (self.def[k], self.pin_in[k], self.weight[k]) = (Some(0), true, 1);
        }
        self.use_flat(k, pos);
    }

    /// A read of buffer `buf`'s data pointer where the walk stands.
    fn use_base(&mut self, buf: u32) {
        let k = match self.bases[buf as usize] {
            Some(k) => k,
            None => {
                let k = self.interval(0, 1);
                self.bases[buf as usize] = Some(k);
                k
            }
        };
        self.use_flat(k, self.pos);
    }

    /// The lane shape of `f32` register `r` in a chunk's general or
    /// `steady` copy.
    fn shape_f(&self, r: Reg, steady: bool) -> Shape {
        let f = &self.facts.f[r as usize];
        (if steady { f.steady } else { f.general }).unwrap_or(Shape::Uniform)
    }

    /// Records, for an instruction of a chunk, which uniform `f32`
    /// operands its packed code broadcasts and which operand's pair its
    /// result may take: those of `+ − × ÷` and of `sqrt`, `neg`, `abs`,
    /// which `Emit::emit_packed` computes in place in the result's pair
    /// after reading the first operand's half, so only that operand may
    /// hand its pair over.
    fn packed(&mut self, inst: &Inst) {
        use crate::expr::UnOp;
        let (dst, a, b) = match *inst {
            Inst::BinF { dst, op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, a, b } => {
                (dst, a, Some(b))
            }
            Inst::UnF { dst, op: UnOp::Sqrt | UnOp::Neg | UnOp::Abs, a } => (dst, a, None),
            _ => return,
        };
        for steady in [false, true] {
            if self.shape_f(dst, steady) == Shape::Varying {
                for r in std::iter::once(a).chain(b) {
                    if self.shape_f(r, steady) == Shape::Uniform {
                        self.splat[r as usize] = true;
                    }
                }
            }
        }
        let (d, a) = (self.flat(File::F, dst), self.flat(File::F, a));
        if self.varying(d) && self.varying(a) {
            self.donor[d] = Some(a);
        }
    }

    /// The store `s` of a chunk: a uniform value is broadcast for its
    /// packed forms, a contiguous store and a proven scatter
    /// (`Emit::emit_chunk_store`).
    fn packed_store(&mut self, s: &BcStmt) {
        let BcStmt::Store { idx, val, .. } = *s else { return };
        for steady in [false, true] {
            let fact = &self.facts.i[idx as usize];
            let packed = match if steady { fact.steady } else { fact.general } {
                Some(Shape::Linear(1)) => true,
                Some(Shape::Varying) => fact.dwords(steady) && self.facts.store(s).is_none(),
                _ => false,
            };
            if packed && self.shape_f(val, steady) == Shape::Uniform {
                self.splat[val as usize] = true;
            }
        }
    }

    fn use_flat(&mut self, k: usize, pos: u64) {
        self.last_use[k] = self.last_use[k].max(pos);
        self.used[k] = true;
        self.touch(k);
    }

    /// Adds one touch at the current depth to `k`'s weight.
    fn touch(&mut self, k: usize) {
        self.weight[k] = self.weight[k].saturating_add(HEAT.saturating_pow(self.depth));
    }

    /// A new interval (a counter or a bound) defined at `pos`.
    fn fresh(&mut self, pos: u64) -> usize {
        let k = self.interval(pos, 0);
        self.touch(k);
        k
    }

    /// A new interval that is not a register's, defined at `pos` and
    /// weighing `weight` so far.
    fn interval(&mut self, pos: u64, weight: u64) -> usize {
        self.def.push(Some(pos));
        self.last_use.push(pos);
        self.used.push(true);
        self.reread_across_calls.push(false);
        self.weight.push(weight);
        self.def.len() - 1
    }

    /// A counted loop of `var`: its counter `ctr` (defined at the head,
    /// before `pos`), then the preamble and body, then the back edge,
    /// which reads the counter and, unless it is a constant `i32`, the
    /// bound `hi`. A loop with no counter is one chunk, which runs its
    /// code again only when its steady copy restarts in its general one
    /// (`looping`): only then do values it reads live to its end.
    fn counted(
        &mut self,
        var: u32,
        (ctr, looping): (Option<usize>, bool),
        hi: Option<usize>,
        preamble: &[Inst],
        body: &[BcStmt],
    ) {
        let start = self.pos;
        self.frame |= self.facts.frame_read[var as usize];
        if let Some(k) = ctr {
            self.open.push((var, k));
            self.depth += 1;
        }
        self.insts(preamble);
        self.block(body);
        for k in ctr.into_iter().chain(hi) {
            self.use_flat(k, self.pos);
        }
        if ctr.is_some() {
            self.open.pop();
            self.depth -= 1;
        }
        if looping {
            self.loops.push((start, self.pos));
        }
        self.pos += 1;
    }

    fn insts(&mut self, insts: &[Inst]) {
        for inst in insts {
            for src in inst.srcs().into_iter().flatten() {
                self.use_at(src.0, src.1, self.pos);
            }
            let (file, dst) = inst.dst();
            let k = self.flat(file, dst);
            if !self.homeless(k) {
                self.def[k] = Some(self.pos);
                self.last_use[k] = self.pos;
                self.used[k] = true;
                self.touch(k);
            }
            match *inst {
                Inst::ReadVar { var, .. } => {
                    let open = self.open.iter().rev().find(|o| o.0 == var);
                    match (self.facts.reads_counter(inst), open) {
                        (true, Some(&(_, ctr))) => self.touch(ctr),
                        (true, None) => {}
                        (false, _) => self.frame = true,
                    }
                }
                Inst::Load { buf, .. } => self.use_base(buf),
                _ => {}
            }
            if self.in_chunk {
                self.packed(inst);
            }
            let f = self.fact(k);
            let varying = |s: Option<Shape>| s == Some(Shape::Varying);
            self.lanes_only[k] =
                self.chunks_only && file == File::I && varying(f.general) && varying(f.steady);
            // A helper with one `Varying` operand runs per lane, and reads
            // the other operand's home once per lane, across the calls of
            // the lanes before: that operand must survive the calls like a
            // value live across them.
            if let Inst::BinF { op: BinOp::Rem | BinOp::Min | BinOp::Max, a, b, .. } = *inst {
                let (a, b) = (self.flat(File::F, a), self.flat(File::F, b));
                let (va, vb) = (self.varying(a), self.varying(b));
                if va != vb {
                    self.reread_across_calls[if va { b } else { a }] = true;
                }
            }
            if inst_calls(inst) {
                self.calls.push(self.pos);
            }
            self.pos += 1;
        }
    }

    fn block(&mut self, body: &[BcStmt]) {
        for s in body {
            match s {
                BcStmt::For { var, lower, upper, kind, preamble, body, .. } => {
                    // Both bounds are read at the loop head, after both
                    // bound blocks ran (as `compile.rs` emits them), so
                    // the lower bound stays live across the upper bound's
                    // instructions.
                    self.insts(&lower.insts);
                    self.insts(&upper.insts);
                    let head = self.pos;
                    self.use_at(File::I, lower.reg, head);
                    self.use_at(File::I, upper.reg, head);
                    self.pos += 1;
                    if *kind == LoopKind::Parallel {
                        // Body belongs to a separate native function; the
                        // parent only evaluates bounds and calls the
                        // dispatch trampoline.
                        self.calls.push(head);
                        continue;
                    }
                    let ctr = self.facts.has_counter(s).then(|| self.fresh(head));
                    if let Some(k) = ctr {
                        self.counters.push((s as *const BcStmt as usize, k));
                    }
                    // A constant bound is an immediate at the back edge.
                    let hi = (self.facts.i[upper.reg as usize].konst.is_none())
                        .then(|| self.flat(File::I, upper.reg))
                        .filter(|&k| !self.homeless(k));
                    self.in_chunk = lane_grouped(*kind, body);
                    self.chunks_only =
                        self.in_chunk && self.facts.chunks_only(lower.reg, upper.reg);
                    let looping = ctr.is_some() || !self.facts.chunk(s).clamps.is_empty();
                    self.counted(*var, (ctr, looping), hi, preamble, body);
                    (self.in_chunk, self.chunks_only) = (false, false);
                }
                BcStmt::If { code, cond, then, else_ } => {
                    self.insts(code);
                    self.use_at(File::I, *cond, self.pos);
                    self.block(then);
                    self.block(else_);
                }
                BcStmt::Store { code, buf, idx, val } => {
                    self.insts(code);
                    self.use_at(File::I, *idx, self.pos);
                    self.use_at(File::F, *val, self.pos);
                    self.use_base(*buf);
                    if self.in_chunk {
                        self.packed_store(s);
                    }
                    self.pos += 1;
                }
                BcStmt::Let { code, reg, var } => {
                    self.insts(code);
                    // Only a frame slot something reads is written.
                    if self.facts.frame_read[*var as usize] {
                        self.use_at(File::I, *reg, self.pos);
                        self.frame = true;
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Linear scan
// ---------------------------------------------------------------------------

/// Allocatable GPRs, which the scan takes from the end of the list:
/// callee-saved rbx/rbp/r12 first, then the caller-saved ones (they die at
/// helper calls), r13 and r14 last; r14 only in a function that keeps no
/// frame pointer in it. rax/rcx/rdx are codegen scratch; r15 holds the
/// ctx pointer.
const GPR_POOL: [Gpr; 11] = [
    Gpr::R14,
    Gpr::R13,
    Gpr::Rsi,
    Gpr::Rdi,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
    Gpr::R11,
    Gpr::Rbx,
    Gpr::Rbp,
    Gpr::R12,
];
const GPR_CALLEE_SAVED: [Gpr; 5] = [Gpr::Rbx, Gpr::Rbp, Gpr::R12, Gpr::R13, Gpr::R14];

/// What an interval asks of the scan.
#[derive(Clone, Copy)]
enum Want {
    /// One GPR; a callee-saved one if the interval crosses a call.
    Gpr { callee_saved: bool },
    Xmm,
    Pair,
}

impl Want {
    fn count(self) -> usize {
        if let Want::Pair = self {
            2
        } else {
            1
        }
    }

    /// How many of the registers of `h` would serve this want.
    fn served_by(self, h: Home) -> usize {
        match (self, h) {
            (Want::Gpr { callee_saved }, Home::Gpr(g)) => {
                usize::from(!callee_saved || GPR_CALLEE_SAVED.contains(&g))
            }
            (Want::Xmm | Want::Pair, Home::Xmm(_)) => 1,
            (Want::Xmm | Want::Pair, Home::Pair(..)) => 2,
            _ => 0,
        }
    }
}

struct Scan {
    free_gpr: Vec<Gpr>,
    free_xmm: Vec<Xmm>,
    /// `(end, flat)` of every interval holding registers.
    active: Vec<(u64, usize)>,
    homes: Vec<Home>,
    /// Stack-homed intervals, in the order their slots are laid out.
    spilled: Vec<usize>,
    /// Spill weight per interval (see `Collect::weight`).
    weight: Vec<u64>,
}

impl Scan {
    fn release(&mut self, h: Home) {
        match h {
            Home::Gpr(g) => self.free_gpr.push(g),
            Home::Xmm(x) => self.free_xmm.push(x),
            Home::Pair(x, y) => self.free_xmm.extend([x, y]),
            _ => {}
        }
    }

    fn spill(&mut self, k: usize) {
        self.homes[k] = Home::Stack(0); // offset patched by the frame layout
        self.spilled.push(k);
    }

    /// Gives interval `k`, live until `end`, the pair of the active
    /// interval `a`, which ends where `k` starts.
    fn hand(&mut self, a: usize, k: usize, end: u64) {
        self.active.retain(|&(_, x)| x != a);
        self.homes[k] = self.homes[a];
        self.active.push((end, k));
    }

    /// Frees the registers of the intervals that end before `start`, and
    /// for an incoming GPR interval (`gpr`) the GPRs of those that end at
    /// it: the instruction defining it reads them first.
    fn expire(&mut self, start: u64, gpr: bool) {
        let mut i = 0;
        while i < self.active.len() {
            let (e, a) = self.active[i];
            if e < start || (gpr && e == start && matches!(self.homes[a], Home::Gpr(_))) {
                self.active.remove(i);
                self.release(self.homes[a]);
            } else {
                i += 1;
            }
        }
    }

    /// Gives interval `k`, live until `end`, the registers it wants. When
    /// too few are free, the active intervals that end last and after
    /// `end` are spilled to make room, as many as it takes; if they cannot
    /// make enough room, `k` is spilled instead.
    fn place(&mut self, k: usize, end: u64, want: Want) {
        let free = match want {
            Want::Gpr { .. } => {
                self.free_gpr.iter().filter(|&&g| want.served_by(Home::Gpr(g)) > 0).count()
            }
            Want::Xmm | Want::Pair => self.free_xmm.len(),
        };
        if free < want.count() {
            // Cheapest first: lightest, then ending last.
            let key = |w: u64, e: u64, a: usize| (w, std::cmp::Reverse((e, a)));
            let mine = key(self.weight[k], end, k);
            let mut victims: Vec<(u64, usize)> = (self.active.iter().copied())
                .filter(|&(_, a)| want.served_by(self.homes[a]) > 0)
                .filter(|&(e, a)| key(self.weight[a], e, a) < mine)
                .collect();
            victims.sort_unstable_by_key(|&(e, a)| key(self.weight[a], e, a));
            let (mut room, mut n) = (free, 0);
            while room < want.count() && n < victims.len() {
                room += want.served_by(self.homes[victims[n].1]);
                n += 1;
            }
            if room < want.count() {
                return self.spill(k);
            }
            for &(_, a) in &victims[..n] {
                self.active.retain(|&(_, x)| x != a);
                self.release(self.homes[a]);
                self.spill(a);
            }
        }
        self.homes[k] = match want {
            Want::Gpr { callee_saved: false } => Home::Gpr(self.free_gpr.pop().expect("counted")),
            Want::Gpr { callee_saved: true } => {
                let i = self.free_gpr.iter().rposition(|g| GPR_CALLEE_SAVED.contains(g));
                Home::Gpr(self.free_gpr.remove(i.expect("counted")))
            }
            Want::Xmm => Home::Xmm(self.free_xmm.pop().expect("counted")),
            Want::Pair => {
                let x = self.free_xmm.pop().expect("counted");
                Home::Pair(x, self.free_xmm.pop().expect("counted"))
            }
        };
        self.active.push((end, k));
    }
}

/// The post-allocation home check (debug builds): two intervals that
/// overlap never share a GPR or an XMM, either half of a pair counting,
/// and a pair's halves differ. `placed` holds every home with its
/// interval, a narrow register's pair beside its scalar home. GPR
/// intervals are half-open at their ends: one that ends where another
/// starts may share its register (see [`Scan::expire`]), and so may a pair
/// the scan hands over ([`Scan::hand`]): its receiver is checked from the
/// position after its start.
fn check_homes(placed: &[(Home, u64, u64)]) {
    let regs = |h: Home| -> Vec<(bool, u8)> {
        match h {
            Home::Gpr(g) => vec![(false, g as u8)],
            Home::Xmm(x) => vec![(true, x.0)],
            Home::Pair(x, y) => {
                assert_ne!(x, y, "a pair's halves are one register");
                vec![(true, x.0), (true, y.0)]
            }
            _ => Vec::new(),
        }
    };
    for (i, &(a, sa, ea)) in placed.iter().enumerate() {
        for &(b, sb, eb) in &placed[i + 1..] {
            let overlap = match (a, b) {
                (Home::Gpr(_), Home::Gpr(_)) => sa < eb && sb < ea,
                _ => sa <= eb && sb <= ea,
            };
            assert!(
                !overlap || regs(a).iter().all(|r| !regs(b).contains(r)),
                "overlapping intervals share a register: {a:?} and {b:?}"
            );
        }
    }
}

/// The value of an `i64` register that has no home and is materialized
/// wherever it is read: a constant that fits `i32`, read as an immediate,
/// or a pinned constant, which no function then writes to its pin slot.
pub(super) fn remat(f: &Fact) -> Option<i64> {
    f.konst.filter(|_| f.pinned || f.imm().is_some())
}

pub(super) fn allocate(bc: &BcProgram, code: &FnCode<'_>, facts: &Facts) -> FnAlloc {
    let n_i = bc.n_iregs as usize;
    let n_f = bc.n_fregs as usize;
    let n_regs = n_i + n_f;
    let mut c = Collect {
        pos: 0,
        def: vec![None; n_regs],
        last_use: vec![0; n_regs],
        used: vec![false; n_regs],
        loops: Vec::new(),
        calls: Vec::new(),
        counters: Vec::new(),
        n_iregs: n_i,
        n_regs,
        facts,
        reread_across_calls: vec![false; n_regs],
        chunks_only: false,
        lanes_only: vec![false; n_regs],
        depth: 0,
        open: Vec::new(),
        weight: vec![0; n_regs],
        bases: vec![None; bc.buf_sizes.len()],
        pin_in: vec![false; n_regs],
        splat: vec![false; n_f],
        donor: vec![None; n_regs],
        in_chunk: false,
        frame: false,
    };
    // A parallel body's own iteration loop: its bounds arrive as
    // arguments and take homes of their own at the function's entry.
    let mut par_hi = None;
    match *code {
        FnCode::Main { prologue, body } => {
            c.insts(prologue);
            c.block(body);
        }
        FnCode::ParBody(s) => {
            let BcStmt::For { var, preamble, body, .. } = s else {
                unreachable!("a parallel loop")
            };
            let (ctr, hi) = (c.fresh(0), c.fresh(0));
            c.counters.push((s as *const BcStmt as usize, ctr));
            par_hi = Some(hi);
            c.pos = 1;
            c.counted(*var, (Some(ctr), true), Some(hi), preamble, body);
        }
    }
    let n_all = c.def.len();

    // Extend intervals over loops they are live into (value must survive
    // the back edge). Fixpoint: extension into an inner loop can make an
    // interval live into the enclosing one.
    let mut start: Vec<u64> = vec![0; n_all];
    let mut end: Vec<u64> = vec![0; n_all];
    for k in 0..n_all {
        if let Some(d) = c.def[k] {
            start[k] = d;
            end[k] = c.last_use[k];
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &(s, e) in &c.loops {
            for k in 0..n_all {
                if c.used[k] && start[k] < s && end[k] >= s && end[k] < e {
                    end[k] = e;
                    changed = true;
                }
            }
        }
    }

    let crosses_call = |k: usize, start: &[u64], end: &[u64]| {
        c.reread_across_calls[k] || c.calls.iter().any(|&cp| start[k] < cp && end[k] > cp)
    };
    // A narrow register keeps its scalar home, and its packed dwords ask
    // for a pair as an interval of their own over the same span, `n_all`
    // on; one without a pair lives in its lane array.
    let narrow: Vec<usize> = (0..n_i)
        .filter(|&k| c.used[k] && c.facts.i[k].narrow && !crosses_call(k, &start, &end))
        .collect();
    let mut weight = c.weight.clone();
    for &k in &narrow {
        start.push(start[k]);
        end.push(end[k]);
        weight.push(c.weight[k]);
    }
    let n_scan = start.len();
    // A pair moves two registers' worth at every touch, kept or spilled.
    for k in (n_i..n_regs).filter(|&k| c.varying(k)).chain(n_all..n_scan) {
        weight[k] = weight[k].saturating_mul(HALVES as u64);
    }
    let crosses_call = |k: usize| crosses_call(k, &start, &end);

    // Linear scan.
    let mut order: Vec<usize> = (0..n_scan).filter(|&k| k >= n_all || c.used[k]).collect();
    order.sort_by_key(|&k| (start[k], k));
    let mut scan = Scan {
        free_gpr: GPR_POOL.into_iter().filter(|&g| g != Gpr::R14 || !c.frame).collect(),
        free_xmm: (2..16).map(Xmm).collect(),
        active: Vec::new(),
        homes: vec![Home::Unused; n_scan],
        spilled: Vec::new(),
        weight,
    };
    let mut handed = vec![false; n_scan];
    for &k in order.iter().filter(|&&k| k >= n_regs || !c.lanes_only[k]) {
        let gpr = k < n_i || (n_regs..n_all).contains(&k);
        scan.expire(start[k], gpr);
        if gpr {
            // Only callee-saved GPRs survive helper calls.
            scan.place(k, end[k], Want::Gpr { callee_saved: crosses_call(k) });
        } else if k >= n_all {
            scan.place(k, end[k], Want::Pair);
        } else if crosses_call(k) {
            // XMMs are all caller-saved; call-crossing floats spill.
            scan.spill(k);
        } else {
            match c.donor[k] {
                Some(a) if matches!(scan.homes[a], Home::Pair(..)) && end[a] == start[k] => {
                    scan.hand(a, k, end[k]);
                    handed[k] = true;
                }
                _ => scan.place(k, end[k], if c.varying(k) { Want::Pair } else { Want::Xmm }),
            }
        }
    }
    let mut homes = scan.homes;
    let mut pairs: Vec<Option<[Xmm; HALVES]>> = vec![None; n_regs];
    for (j, &k) in narrow.iter().enumerate() {
        if let Home::Pair(x, y) = homes[n_all + j] {
            pairs[k] = Some([x, y]);
        }
    }
    if cfg!(debug_assertions) {
        let placed: Vec<_> =
            (0..n_scan).map(|k| (homes[k], start[k] + u64::from(handed[k]), end[k])).collect();
        check_homes(&placed);
    }

    // Frame layout: spill slots, lane arrays; call-aligned. rsp is 16-byte
    // aligned below the frame, and so is every lane array: the `movups` of
    // its halves never split a cache line.
    let mut off: i32 = 0;
    let invariant = |k: usize| if k < n_regs { c.pin_in[k] } else { c.bases.contains(&Some(k)) };
    for &k in scan.spilled.iter().filter(|&&k| k < n_all) {
        if invariant(k) {
            homes[k] = Home::Ctx;
        } else {
            homes[k] = Home::Stack(off);
            off += 8;
        }
    }
    off = (off + 15) / 16 * 16;
    let mut lanes = vec![None; n_regs];
    for k in 0..n_regs {
        // Chunk registers of other functions have no place here.
        if c.def[k].is_none() || !c.varying(k) {
            continue;
        }
        if let Home::Pair(x, y) = homes[k] {
            (homes[k], pairs[k]) = (Home::Xmm(x), Some([x, y]));
        }
        lanes[k] = Some(Lanes { regs: pairs[k], arr: off });
        let wide = k < n_i && !c.facts.i[k].narrow;
        off += if wide { 8 } else { 4 } * crate::vm::LANES as i32;
    }
    // Six pushes leave rsp ≡ 8 (mod 16); the frame restores alignment.
    let frame_size = (off + 8 + 15) / 16 * 16 - 8;
    let file = |k: usize| if k < n_i { (File::I, k as Reg) } else { (File::F, (k - n_i) as Reg) };
    FnAlloc {
        homes_i: homes[..n_i].to_vec(),
        homes_f: homes[n_i..n_regs].to_vec(),
        lanes: [lanes[..n_i].to_vec(), lanes[n_i..].to_vec()],
        counters: c.counters.iter().map(|&(key, k)| (key, homes[k])).collect(),
        par_hi: par_hi.map_or(Home::Unused, |k| homes[k]),
        bases: c.bases.iter().map(|b| b.map_or(Home::Unused, |k| homes[k])).collect(),
        pins: (0..n_regs).filter(|&k| c.pin_in[k]).map(file).collect(),
        splat: (0..n_f).map(|r| c.splat[r] && matches!(homes[n_i + r], Home::Xmm(_))).collect(),
        frame: c.frame,
        frame_size,
    }
}
