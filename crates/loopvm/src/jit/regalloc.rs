//! Linear-scan register allocation of bytecode registers over host
//! GPRs/XMMs with spill slots.
//!
//! Each native function (the main program plus one body function per
//! `Parallel` loop) is allocated independently:
//!
//! 1. **Linearize**: walk the function's instruction tree in emission
//!    order, assigning every instruction a position and recording loop
//!    regions and helper-call sites.
//! 2. **Intervals**: every bytecode register has a single static def site
//!    (the optimizer emits SSA destinations), so its interval is
//!    `[def, last_use]`, extended to the end of any loop it is live into
//!    (values defined before a loop and read inside it must survive the
//!    back edge).
//! 3. **Scan**: intervals sorted by start are assigned host registers from
//!    two pools (GPRs for the `i64` file, XMMs for the `f32` file).
//!    Intervals crossing a helper call get callee-saved GPRs or spill;
//!    everything that doesn't fit lives in a stack slot.
//!
//! Registers read inside a `Parallel` loop but defined outside it are
//! *pinned*: they live in the `JitCtx` spill arrays so worker threads (a
//! different native frame) can snapshot them, mirroring how the
//! interpreter's workers clone the register files.

use super::asm::{Gpr, Xmm};
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::program::LoopKind;
use crate::vm::bc_body_vectorizable;

/// Where a bytecode register lives in native code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Home {
    /// A host general-purpose register (i64 file).
    Gpr(Gpr),
    /// A host SSE register (f32 file).
    Xmm(Xmm),
    /// An `[rsp + off]` spill slot in the owning function's frame.
    Stack(i32),
    /// Slot `reg` of the `JitCtx` pin array for its file (shared with
    /// worker threads across `Parallel` loops).
    Ctx,
    /// Never referenced in this function.
    Unused,
}

/// Allocation result for one native function.
pub(super) struct FnAlloc {
    /// Home per `i64` register.
    pub homes_i: Vec<Home>,
    /// Home per `f32` register.
    pub homes_f: Vec<Home>,
    /// Stack offset of the 8-lane spill array for registers defined inside
    /// vectorizable `Vectorize` bodies (`-1` = none). `i64` lanes are 8
    /// bytes, `f32` lanes 4.
    pub lanes_i: Vec<i32>,
    pub lanes_f: Vec<i32>,
    /// `(v, hi)` stack-slot offsets per non-parallel loop, in walk order.
    pub loop_slots: Vec<(i32, i32)>,
    /// Total `sub rsp, _` size (keeps calls 16-byte aligned).
    pub frame_size: i32,
}

/// Which registers must live in the `JitCtx` pin arrays, computed over the
/// *whole* program (pins cross function boundaries).
pub(super) struct Pins {
    pub i: Vec<bool>,
    pub f: Vec<bool>,
}

/// One function's code to allocate/emit: either the whole program or the
/// body of one `Parallel` loop.
pub(super) enum FnCode<'a> {
    Main { prologue: &'a [Inst], body: &'a [BcStmt] },
    ParBody { preamble: &'a [Inst], body: &'a [BcStmt] },
}

// ---------------------------------------------------------------------------
// Global pin analysis
// ---------------------------------------------------------------------------

struct PinWalk {
    pos: u64,
    def: Vec<Option<u64>>,
    pins: Vec<bool>,
    /// Start positions of the enclosing `Parallel` regions.
    par_stack: Vec<u64>,
    n_iregs: usize,
}

impl PinWalk {
    fn flat(&self, file: File, r: Reg) -> usize {
        match file {
            File::I => r as usize,
            File::F => self.n_iregs + r as usize,
        }
    }

    fn insts(&mut self, insts: &[Inst]) {
        for inst in insts {
            for src in inst.srcs().into_iter().flatten() {
                let k = self.flat(src.0, src.1);
                if let Some(d) = self.def[k] {
                    if self.par_stack.iter().any(|&s| d < s) {
                        self.pins[k] = true;
                    }
                }
            }
            let (file, dst) = inst.dst();
            let k = self.flat(file, dst);
            if self.def[k].is_none() {
                self.def[k] = Some(self.pos);
            }
            self.pos += 1;
        }
    }

    fn reg_use(&mut self, file: File, r: Reg) {
        let k = self.flat(file, r);
        if let Some(d) = self.def[k] {
            if self.par_stack.iter().any(|&s| d < s) {
                self.pins[k] = true;
            }
        }
    }

    fn block(&mut self, body: &[BcStmt]) {
        for s in body {
            match s {
                BcStmt::For { lower, upper, kind, preamble, body, .. } => {
                    self.insts(&lower.insts);
                    self.reg_use(File::I, lower.reg);
                    self.insts(&upper.insts);
                    self.reg_use(File::I, upper.reg);
                    let par = *kind == LoopKind::Parallel;
                    if par {
                        self.par_stack.push(self.pos);
                    }
                    self.insts(preamble);
                    self.block(body);
                    if par {
                        self.par_stack.pop();
                    }
                }
                BcStmt::If { code, cond, then, else_ } => {
                    self.insts(code);
                    self.reg_use(File::I, *cond);
                    self.block(then);
                    self.block(else_);
                }
                BcStmt::Store { code, idx, val, .. } => {
                    self.insts(code);
                    self.reg_use(File::I, *idx);
                    self.reg_use(File::F, *val);
                }
                BcStmt::Let { code, reg, .. } => {
                    self.insts(code);
                    self.reg_use(File::I, *reg);
                }
            }
        }
    }
}

pub(super) fn compute_pins(bc: &BcProgram) -> Pins {
    let n_i = bc.n_iregs as usize;
    let n_f = bc.n_fregs as usize;
    let mut w = PinWalk {
        pos: 0,
        def: vec![None; n_i + n_f],
        pins: vec![false; n_i + n_f],
        par_stack: Vec::new(),
        n_iregs: n_i,
    };
    w.insts(&bc.prologue);
    w.block(&bc.body);
    Pins { i: w.pins[..n_i].to_vec(), f: w.pins[n_i..].to_vec() }
}

// ---------------------------------------------------------------------------
// Per-function collection
// ---------------------------------------------------------------------------

/// Whether a straight-line instruction sequence contains a helper call
/// (f32 rem/min/max/exp and the f32->i64 cast go through Rust helpers to
/// stay bit-identical with the interpreter).
fn inst_calls(inst: &Inst) -> bool {
    use crate::expr::{BinOp, UnOp};
    matches!(
        inst,
        Inst::BinF { op: BinOp::Rem | BinOp::Min | BinOp::Max, .. }
            | Inst::UnF { op: UnOp::Exp, .. }
            | Inst::CastFI { .. }
    )
}

struct Collect {
    pos: u64,
    def: Vec<Option<u64>>,
    last_use: Vec<u64>,
    used: Vec<bool>,
    loops: Vec<(u64, u64)>,
    calls: Vec<u64>,
    /// Needs an 8-lane stack array (defined inside a vectorized chunk).
    lane: Vec<bool>,
    /// Non-parallel loop count (slot pairs).
    n_loop_slots: usize,
    /// `true` once an unsupported pattern is seen (fall back to the
    /// interpreter rather than guess).
    bail: bool,
    n_iregs: usize,
    pinned: Vec<bool>,
    /// Active scope ids (one per enclosing loop / `If` branch).
    scopes: Vec<u32>,
    scope_counter: u32,
    /// Scope stack captured at each register's def site. A use whose scope
    /// stack doesn't extend the def's would read a value the interpreter
    /// resolves through its persistent, zero-initialized register file
    /// (conditional def, zero-trip loop) — those programs stay interpreted.
    def_scope: Vec<Vec<u32>>,
}

impl Collect {
    fn flat(&self, file: File, r: Reg) -> usize {
        match file {
            File::I => r as usize,
            File::F => self.n_iregs + r as usize,
        }
    }

    fn use_at(&mut self, file: File, r: Reg, pos: u64) {
        let k = self.flat(file, r);
        if self.pinned[k] {
            return;
        }
        if self.def[k].is_none() {
            // Use before def: either a cross-function read (defined in a
            // different native frame) or a stale-register pattern the
            // interpreter resolves dynamically. Fall back.
            self.bail = true;
            return;
        }
        let ds = &self.def_scope[k];
        if ds.len() > self.scopes.len() || self.scopes[..ds.len()] != ds[..] {
            self.bail = true;
            return;
        }
        self.last_use[k] = self.last_use[k].max(pos);
        self.used[k] = true;
    }

    fn insts(&mut self, insts: &[Inst], in_chunk: bool) {
        for inst in insts {
            for src in inst.srcs().into_iter().flatten() {
                self.use_at(src.0, src.1, self.pos);
            }
            let (file, dst) = inst.dst();
            let k = self.flat(file, dst);
            if !self.pinned[k] {
                if self.def[k].is_some() {
                    // Two static def sites would break single-interval
                    // allocation; the optimizer never emits this.
                    self.bail = true;
                }
                self.def[k] = Some(self.pos);
                self.def_scope[k] = self.scopes.clone();
                self.last_use[k] = self.pos;
                self.used[k] = true;
            }
            if in_chunk {
                self.lane[k] = true;
            }
            if inst_calls(inst) {
                self.calls.push(self.pos);
            }
            self.pos += 1;
        }
    }

    fn push_scope(&mut self) {
        self.scope_counter += 1;
        self.scopes.push(self.scope_counter);
    }

    fn block(&mut self, body: &[BcStmt]) {
        for s in body {
            match s {
                BcStmt::For { lower, upper, kind, preamble, body, .. } => {
                    // Both bounds are read after both bound blocks ran
                    // (as `compile.rs` emits them), so the lower bound
                    // stays live across the upper bound's instructions.
                    self.insts(&lower.insts, false);
                    self.insts(&upper.insts, false);
                    self.use_at(File::I, lower.reg, self.pos);
                    self.use_at(File::I, upper.reg, self.pos);
                    if *kind == LoopKind::Parallel {
                        // Body belongs to a separate native function; the
                        // parent only evaluates bounds and calls the
                        // dispatch trampoline.
                        self.calls.push(self.pos);
                        self.pos += 1;
                        continue;
                    }
                    self.n_loop_slots += 1;
                    let start = self.pos;
                    let vector = matches!(kind, LoopKind::Vectorize(_))
                        && bc_body_vectorizable(body);
                    self.push_scope();
                    self.insts(preamble, vector);
                    self.block_vec(body, vector);
                    self.scopes.pop();
                    self.loops.push((start, self.pos));
                }
                BcStmt::If { code, cond, then, else_ } => {
                    self.insts(code, false);
                    self.use_at(File::I, *cond, self.pos);
                    self.push_scope();
                    self.block(then);
                    self.scopes.pop();
                    self.push_scope();
                    self.block(else_);
                    self.scopes.pop();
                }
                BcStmt::Store { code, idx, val, .. } => {
                    self.insts(code, false);
                    self.use_at(File::I, *idx, self.pos);
                    self.use_at(File::F, *val, self.pos);
                    self.pos += 1;
                }
                BcStmt::Let { code, reg, .. } => {
                    self.insts(code, false);
                    self.use_at(File::I, *reg, self.pos);
                    self.pos += 1;
                }
            }
        }
    }

    fn block_vec(&mut self, body: &[BcStmt], in_chunk: bool) {
        if !in_chunk {
            self.block(body);
            return;
        }
        for s in body {
            match s {
                BcStmt::Store { code, idx, val, .. } => {
                    self.insts(code, true);
                    self.use_at(File::I, *idx, self.pos);
                    self.use_at(File::F, *val, self.pos);
                    self.pos += 1;
                }
                BcStmt::Let { code, reg, .. } => {
                    self.insts(code, true);
                    self.use_at(File::I, *reg, self.pos);
                    self.pos += 1;
                }
                _ => unreachable!("checked by bc_body_vectorizable"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Linear scan
// ---------------------------------------------------------------------------

/// Allocatable GPRs: caller-saved first (cheap, die at helper calls), then
/// callee-saved (survive calls). rax/rcx/rdx are codegen scratch;
/// r13/r14/r15 hold the buffer table, frame and ctx pointers.
const GPR_POOL: [Gpr; 9] =
    [Gpr::Rsi, Gpr::Rdi, Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11, Gpr::Rbx, Gpr::Rbp, Gpr::R12];
const GPR_CALLEE_SAVED: [Gpr; 3] = [Gpr::Rbx, Gpr::Rbp, Gpr::R12];

pub(super) fn allocate(bc: &BcProgram, code: &FnCode<'_>, pins: &Pins) -> Option<FnAlloc> {
    let n_i = bc.n_iregs as usize;
    let n_f = bc.n_fregs as usize;
    let mut pinned = Vec::with_capacity(n_i + n_f);
    pinned.extend_from_slice(&pins.i);
    pinned.extend_from_slice(&pins.f);
    let mut c = Collect {
        pos: 0,
        def: vec![None; n_i + n_f],
        last_use: vec![0; n_i + n_f],
        used: vec![false; n_i + n_f],
        loops: Vec::new(),
        calls: Vec::new(),
        lane: vec![false; n_i + n_f],
        // A parallel-body function's own iteration loop (bounds arrive as
        // arguments) gets the reserved slot pair 0.
        n_loop_slots: usize::from(matches!(code, FnCode::ParBody { .. })),
        bail: false,
        n_iregs: n_i,
        pinned,
        scopes: Vec::new(),
        scope_counter: 0,
        def_scope: vec![Vec::new(); n_i + n_f],
    };
    match code {
        FnCode::Main { prologue, body } => {
            c.insts(prologue, false);
            c.block(body);
        }
        FnCode::ParBody { preamble, body } => {
            c.insts(preamble, false);
            c.block(body);
        }
    }
    if c.bail {
        return None;
    }

    // Registers defined inside a vectorized chunk but read outside the
    // chunk context read their *scalar* home, which chunk code never
    // writes; the interpreter has the same split (lane register files vs
    // scalar file) and resolves it per chunk. Supporting
    // that would need per-use context tracking — fall back instead. Uses
    // *inside* the loop (including the scalar remainder) are fine: the
    // remainder writes scalar homes.
    // A lane register's scalar def/uses all sit inside its loop region by
    // construction; verify that.
    for k in 0..n_i + n_f {
        if c.lane[k] && c.used[k] {
            let d = c.def[k].unwrap();
            let inside = c
                .loops
                .iter()
                .any(|&(s, e)| d >= s && d < e && c.last_use[k] < e);
            if !inside {
                return None;
            }
        }
    }

    // Extend intervals over loops they are live into (value must survive
    // the back edge). Fixpoint: extension into an inner loop can make an
    // interval live into the enclosing one.
    let mut start: Vec<u64> = vec![0; n_i + n_f];
    let mut end: Vec<u64> = vec![0; n_i + n_f];
    for k in 0..n_i + n_f {
        if let Some(d) = c.def[k] {
            start[k] = d;
            end[k] = c.last_use[k];
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &(s, e) in &c.loops {
            for k in 0..n_i + n_f {
                if c.used[k] && start[k] < s && end[k] >= s && end[k] < e {
                    end[k] = e;
                    changed = true;
                }
            }
        }
    }

    // Linear scan.
    let mut order: Vec<usize> = (0..n_i + n_f).filter(|&k| c.used[k] && !c.pinned[k]).collect();
    order.sort_by_key(|&k| (start[k], k));
    let mut free_gpr: Vec<Gpr> = GPR_POOL.to_vec();
    let mut free_xmm: Vec<Xmm> = (2..16).map(Xmm).collect();
    let mut active: Vec<(u64, usize, Home)> = Vec::new(); // (end, flat, home)
    let mut homes: Vec<Home> = vec![Home::Unused; n_i + n_f];
    let mut spilled: Vec<usize> = Vec::new();
    for k in order {
        active.retain(|&(e, _, h)| {
            if e < start[k] {
                match h {
                    Home::Gpr(g) => free_gpr.push(g),
                    Home::Xmm(x) => free_xmm.push(x),
                    _ => {}
                }
                false
            } else {
                true
            }
        });
        let crosses_call =
            c.calls.iter().any(|&cp| start[k] < cp && end[k] > cp);
        let home = if k < n_i {
            let pick = if crosses_call {
                // Only callee-saved GPRs survive helper calls.
                let idx = free_gpr.iter().rposition(|g| GPR_CALLEE_SAVED.contains(g));
                idx.map(|i| free_gpr.remove(i))
            } else {
                free_gpr.pop()
            };
            match pick {
                Some(g) => Home::Gpr(g),
                None => {
                    spilled.push(k);
                    Home::Stack(0) // offset patched below
                }
            }
        } else if crosses_call {
            // XMMs are all caller-saved; call-crossing floats spill.
            spilled.push(k);
            Home::Stack(0)
        } else {
            match free_xmm.pop() {
                Some(x) => Home::Xmm(x),
                None => {
                    spilled.push(k);
                    Home::Stack(0)
                }
            }
        };
        if let Home::Gpr(_) | Home::Xmm(_) = home {
            active.push((end[k], k, home));
        }
        homes[k] = home;
    }

    // Frame layout: loop slots, spill slots, lane arrays; call-aligned.
    let mut off: i32 = 0;
    let mut loop_slots = Vec::with_capacity(c.n_loop_slots);
    for _ in 0..c.n_loop_slots {
        loop_slots.push((off, off + 8));
        off += 16;
    }
    for &k in &spilled {
        homes[k] = Home::Stack(off);
        off += 8;
    }
    let mut lanes_i = vec![-1i32; n_i];
    let mut lanes_f = vec![-1i32; n_f];
    for (k, lane) in c.lane.iter().enumerate() {
        if !lane {
            continue;
        }
        if k < n_i {
            lanes_i[k] = off;
            off += 8 * crate::vm::LANES as i32;
        } else {
            lanes_f[k - n_i] = off;
            off += 4 * crate::vm::LANES as i32;
        }
    }
    for (k, h) in homes.iter_mut().enumerate() {
        if c.pinned[k] {
            *h = Home::Ctx;
        }
    }
    // Six pushes leave rsp ≡ 8 (mod 16); the frame restores alignment.
    let frame_size = (off + 8 + 15) / 16 * 16 - 8;
    Some(FnAlloc {
        homes_i: homes[..n_i].to_vec(),
        homes_f: homes[n_i..].to_vec(),
        lanes_i,
        lanes_f,
        loop_slots,
        frame_size,
    })
}
