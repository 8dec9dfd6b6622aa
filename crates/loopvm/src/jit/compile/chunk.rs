//! Packed chunk code: lane-grouped loops, their chunks, and the per-lane
//! fallbacks of chunk instructions.
//!
//! Vectorized loops are compiled chunk by chunk (8 lanes), inst-major
//! like the interpreter. Each chunk instruction is emitted once per *lane
//! shape* (see [`Shape`]), not once per lane: uniform and linear results
//! are computed for lane 0 only, in the register's scalar home. A varying
//! `f32` value, or a *narrow* `i64` one (its interval fits `i32`, see
//! [`crate::jit::facts`]), lives in the lane file ([`Lanes`]): its
//! arithmetic is packed SSE in place, half by half ([`Emit::each_half`]),
//! `paddd`/`psubd`/`pmulld`/`pminsd`/`pmaxsd` on a narrow value's dwords,
//! `cvttps2dq` and `cvtdq2ps` for the casts; proven loads and stores a
//! narrow value indexes gather and scatter with `pextrd` +
//! `insertps`/`extractps`. A load/store whose index is linear takes one
//! range guard for all eight lanes and moves the halves directly.
//!
//! Per-lane code remains for the other varying integer values (which live
//! in their lane arrays), the other gathers and the helper-call
//! operations, and — out of line ([`super::cold`]) — as the path a
//! failing range guard jumps to, which finds the first failing lane
//! exactly as before (a proven access has neither guard nor path).
//! Per-lane code reads and writes `f32` lanes, and reads narrow lanes
//! (sign-extending each dword), through the register's lane array: a pair
//! is written back to it before the first per-lane read in a chunk (or on
//! the way into a store's slow path), and an `f32` pair is reloaded from
//! it after per-lane code defined it. The scalar remainder loop is
//! emitted separately and is the only part that writes the loop
//! variable's frame slot.
//!
//! # Lane shapes and steady chunks
//!
//! [`crate::jit::facts`] gives every chunk register its [`Shape`] and
//! says why emitting once per shape is exact. A `min`/`max` of a linear
//! value and a uniform one (a [`Clamp`]) is varying, and so is every
//! access it indexes, although a clamp like conv2D's `clamp(j + kx, 0, W −
//! 1)` binds only at the ends of a row. A chunk with a clamp before its
//! first store is emitted twice: a *steady* copy, in which each such clamp
//! keeps its linear operand's shape behind a test that no lane wraps and
//! that lane 0 and lane 7 lie on the side of the bound the result ignores,
//! and the *general* copy above. A failing test jumps to the general
//! copy's start; the steady copy ran no store before it and computed what
//! the general copy computes, so the restart is exact. DESIGN.md §14 has
//! the argument in full.

use super::cold::{MemOp, SlowPath};
use super::{Base, Bound, ChunkCtx, Emit, Role, Src};
use crate::bytecode::{BcStmt, File, Inst, Reg};
use crate::expr::{BinOp, UnOp};
use crate::jit::asm::{Asm, Cc, Gpr, Label, Mem, Xmm};
use crate::jit::facts::{Clamp, Facts, Kept, Shape};
use crate::jit::regalloc::{Home, Lanes, HALVES};
use crate::vm::LANES;

/// A packed SSE operation `op dst, src` on one half.
type PackedOp = fn(&mut Asm, Xmm, Xmm);

impl<'a> Emit<'a> {
    /// Lane groups of [`LANES`], then the scalar remainder (which alone
    /// writes the frame slot, like the interpreter's vector path).
    ///
    /// With constant bounds and at least eight iterations, the lane groups
    /// and the remainder are counted at compile time: eight iterations are
    /// one straight-line chunk whose loop variable is a constant, a
    /// multiple of eight is a chunk loop with no remainder, and only the
    /// other trip counts have one. Else
    /// the chunk loop runs while `v + LANES <= hi`; the sum is checked for
    /// overflow unless the facts put both bounds far from the ends of
    /// `i64` (`wrap_free`): near `i64::MAX` it would wrap below `hi`.
    pub(super) fn emit_vector_loop(
        &mut self,
        s: &'a BcStmt,
        var: u32,
        lower: Reg,
        upper: Reg,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        self.a.comment(|| format!("vector loop v{var}"));
        let lanes = LANES as i32;
        let hi = self.bound(upper);
        // The loop head and back edge count for both copies of a chunk.
        let steady = !self.facts.chunk(s).clamps.is_empty();
        // Fewer than eight constant iterations keep their chunk code behind
        // the head test like unknown bounds: every lane-grouped loop has
        // its chunk copies.
        if let Some(n) = self.facts.trips(lower, upper).filter(|&n| n >= LANES as u64) {
            let lo = self.facts.i[lower as usize].konst.expect("constant bounds");
            let (chunks, rem) = (n / LANES as u64, n % LANES as u64);
            let ctr = self.facts.has_counter(s).then(|| self.counter(s));
            // The first iteration past the chunks: every value up to `hi`
            // fits `i64`, but from `lo = i64::MIN` the distance to it may
            // not.
            let end = lo.wrapping_add_unsigned(chunks * LANES as u64);
            if chunks == 1 {
                self.a.count_chunk(true, steady);
                self.emit_chunk_copies(s, ChunkCtx { var, base: Base::Imm(lo) }, preamble, body);
                self.a.count_chunk(false, false);
            } else {
                let ctr = ctr.expect("a chunk loop keeps a counter");
                self.set_home_i64(ctr, lo);
                let top = self.a.new_label();
                self.a.count_chunk(true, steady);
                self.a.bind(top);
                self.emit_chunk_copies(s, ChunkCtx { var, base: Base::Ctr(ctr) }, preamble, body);
                let x = self.bump(ctr, lanes);
                self.cmp_bound(x, Bound::Imm(end));
                self.a.jcc(Cc::L, top);
                self.a.count_chunk(false, false);
            }
            if rem > 0 {
                let ctr = ctr.expect("a remainder keeps a counter");
                if chunks == 1 {
                    self.set_home_i64(ctr, end);
                }
                self.emit_counted_loop(var, ctr, hi, false, preamble, body, Role::Remainder);
            }
            return;
        }
        let wrap_free = self.facts.chunk(s).wrap_free;
        let ctr = self.counter(s);
        let lo = self.opnd_i(lower, Gpr::Rax);
        self.set_home(ctr, lo);
        let chk = self.a.new_label();
        let rem = self.a.new_label();
        self.a.count_chunk(true, steady);
        self.a.bind(chk);
        let x = self.counter_reg(ctr);
        if x != Gpr::Rax {
            self.a.mov_rr(Gpr::Rax, x);
        }
        self.a.add_ri(Gpr::Rax, lanes);
        if !wrap_free {
            self.a.jcc(Cc::O, rem);
        }
        self.cmp_bound(Gpr::Rax, hi);
        self.a.jcc(Cc::G, rem);
        self.emit_chunk_copies(s, ChunkCtx { var, base: Base::Ctr(ctr) }, preamble, body);
        self.bump(ctr, lanes);
        self.a.jmp(chk);
        self.a.count_chunk(false, false);
        self.a.bind(rem);
        self.emit_counted_loop(var, ctr, hi, true, preamble, body, Role::Remainder);
    }

    /// `h = v` for any `i64`.
    fn set_home_i64(&mut self, h: Home, v: i64) {
        let x = if let Home::Gpr(g) = h { g } else { Gpr::Rax };
        self.a.mov_ri(x, v);
        self.set_home(h, Src::Reg(x));
    }

    /// One chunk of the lane-grouped loop `s`. A chunk with [`Clamp`]s is
    /// emitted twice: the steady copy, which runs first, and the general
    /// one, where a failing clamp test restarts the chunk. Both end where
    /// the chunk does. Counts the copies' costs, the general copy's in the
    /// enclosing loop's too.
    fn emit_chunk_copies(
        &mut self,
        s: &'a BcStmt,
        c: ChunkCtx,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        let clamps = self.facts.chunk(s).clamps.clone();
        if clamps.is_empty() {
            return self.emit_chunk(c, preamble, body, None);
        }
        self.steady_chunks += 1;
        let (general, next) = (self.a.new_label(), self.a.new_label());
        for line in assumptions(&clamps, &self.facts) {
            self.a.comment(|| format!("steady: {line}"));
        }
        self.a.count_chunk(false, true);
        let outer = self.a.count_loop(false);
        self.emit_chunk(c, preamble, body, Some((general, clamps)));
        self.a.jmp(next);
        self.a.count_loop(outer);
        self.a.count_chunk(true, false);
        self.a.bind(general);
        self.a.comment(|| "general".to_string());
        self.emit_chunk(c, preamble, body, None);
        self.a.count_chunk(true, true);
        self.a.bind(next);
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
        restart: Option<(Label, Vec<Clamp>)>,
    ) {
        self.steady = restart.is_some();
        self.restart = restart;
        self.synced.iter_mut().flatten().for_each(|s| *s = false);
        self.chunk = Some(c);
        for inst in preamble {
            self.emit_chunk_inst(inst);
        }
        for s in body {
            match s {
                BcStmt::Let { code, .. } => {
                    for inst in code {
                        self.emit_chunk_inst(inst);
                    }
                }
                BcStmt::Store { code, buf, idx, val } => {
                    for inst in code {
                        self.emit_chunk_inst(inst);
                    }
                    self.emit_chunk_store(*buf, *idx, *val, self.facts.store(s));
                }
                _ => unreachable!("checked by bc_body_vectorizable"),
            }
        }
        self.steady = false;
        self.restart = None;
        self.chunk = None;
    }

    /// A [`Clamp`] in the steady copy: its result is `x` in every lane if
    /// `x`'s lanes do not wrap (`x₀ + 7s` does not overflow) and its lane
    /// nearest `u` — lane 0 or lane 7 — is on the right side of it; else
    /// the chunk restarts in the general copy. Nothing the steady copy ran
    /// before this stored anything, and it computed what the general copy
    /// computes, so the restart is exact.
    fn emit_steady_clamp(&mut self, k: Clamp) {
        let general = self.restart.as_ref().expect("clamps are tested in steady copies").0;
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
    pub(super) fn in_lane<T>(&mut self, l: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        let outer = self.lane.replace(l);
        let v = f(self);
        self.lane = outer;
        v
    }

    fn emit_chunk_inst(&mut self, inst: &Inst) {
        let (file, dst) = inst.dst();
        let clamp = (self.restart.as_ref())
            .and_then(|(_, ks)| ks.iter().find(|k| file == File::I && k.dst == dst).copied());
        if let Some(k) = clamp {
            return self.emit_steady_clamp(k);
        }
        if self.shape(file, dst) != Shape::Varying {
            // Lane 0 stands for all eight (guard included: it would trap
            // first, with the payload any lane would carry).
            return self.in_lane(0, |e| e.emit_inst(inst));
        }
        match *inst {
            Inst::Load { dst, buf, idx } => match self.shape(File::I, idx) {
                Shape::Linear(s) if s > 0 => {
                    self.emit_linear_load(dst, buf, idx, s, self.facts.load(inst))
                }
                Shape::Varying if self.dwords(idx) && self.facts.load(inst).is_none() => {
                    self.emit_gather(dst, buf, idx)
                }
                _ => self.emit_per_lane(inst),
            },
            Inst::BinF { dst, op, a, b }
                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) =>
            {
                let op = match op {
                    BinOp::Add => Asm::addps,
                    BinOp::Sub => Asm::subps,
                    BinOp::Mul => Asm::mulps,
                    _ => Asm::divps,
                };
                self.emit_packed(File::F, dst, a, Some(b), op);
            }
            Inst::BinI { dst, op, a, b } if self.facts.i[dst as usize].narrow => {
                // `min`/`max`/`+`/`×` commute: a varying operand goes left,
                // where it is computed in place.
                let varying = |r| self.shape(File::I, r) == Shape::Varying;
                let swap = op != BinOp::Sub && !varying(a) && varying(b);
                let (a, b) = if swap { (b, a) } else { (a, b) };
                let op = match op {
                    BinOp::Add => Asm::paddd,
                    BinOp::Sub => Asm::psubd,
                    BinOp::Mul => Asm::pmulld,
                    BinOp::Min => Asm::pminsd,
                    _ => Asm::pmaxsd,
                };
                self.emit_packed(File::I, dst, a, Some(b), op);
            }
            Inst::CastFI { dst, a } if self.facts.i[dst as usize].narrow => {
                self.emit_packed_un(File::I, dst, File::F, a, Asm::cvttps2dq)
            }
            Inst::CastIF { dst, a } if self.dwords(a) => {
                self.emit_packed_un(File::F, dst, File::I, a, Asm::cvtdq2ps)
            }
            Inst::UnF { dst, op: UnOp::Sqrt, a } => {
                self.emit_packed_un(File::F, dst, File::F, a, Asm::sqrtps)
            }
            Inst::UnF { dst, op, a } if matches!(op, UnOp::Neg | UnOp::Abs) => {
                let (mask, op): (u32, PackedOp) = match op {
                    UnOp::Neg => (0x8000_0000, Asm::xorps),
                    _ => (0x7FFF_FFFF, Asm::andps),
                };
                self.a.mov_ri32(Gpr::Rax, mask);
                self.a.movd_xr(Xmm(1), Gpr::Rax);
                self.a.shufps(Xmm(1), Xmm(1), 0);
                // `a` is varying: a uniform one would make `dst` uniform.
                self.emit_packed(File::F, dst, a, None, op);
            }
            _ => self.emit_per_lane(inst),
        }
    }

    /// Packed code for each half of an 8-lane value — the one loop over
    /// the halves: `f(self, h, t)` emits half `h`, and with `dst` computes
    /// the varying register's half in `t`: its pair's half, or xmm0, which
    /// is then stored to its lane array.
    fn each_half(&mut self, dst: Option<(File, Reg)>, mut f: impl FnMut(&mut Self, usize, Xmm)) {
        let pair = dst.and_then(|(file, r)| self.pair(file, r));
        for h in 0..HALVES {
            f(self, h, pair.map_or(Xmm(0), |p| p[h]));
            if let (Some((file, r)), None) = (dst, pair) {
                self.a.movups_mx(self.lane_array(file, r).half(h), Xmm(0));
            }
        }
    }

    /// `dst = op(a, b)` half by half, in place in `dst`'s half: `a`'s
    /// half is moved there (nothing to move where `dst` took `a`'s pair),
    /// then `op` applies `b`'s, or xmm1 as the caller filled it for no
    /// `b`. A uniform `b` is read from its splat home, or broadcast to
    /// xmm1 once for both halves; xmm1 stays free for a spilled one
    /// otherwise. `i64` operands are dword lanes ([`Self::dwords`]).
    fn emit_packed(&mut self, file: File, dst: Reg, a: Reg, b: Option<Reg>, op: PackedOp) {
        let dwords = file == File::F || (self.dwords(a) && b.is_none_or(|b| self.dwords(b)));
        debug_assert!(dwords, "i{dst}: wide operands");
        let uniform = (b.filter(|&b| self.shape(file, b) == Shape::Uniform))
            .map(|b| self.splat(file, b, Xmm(1)));
        self.each_half(Some((file, dst)), |e, h, t| {
            e.half_into(file, t, a, h);
            let src = match (uniform, b) {
                (Some(x), _) => x,
                (None, Some(b)) => e.half(file, b, h, Xmm(1)),
                (None, None) => Xmm(1),
            };
            op(&mut e.a, t, src);
        });
    }

    /// `dst = op(a)` half by half, `a` of file `src`: `op` reads `a`'s
    /// half where it is, or loaded into `dst`'s half.
    fn emit_packed_un(&mut self, file: File, dst: Reg, src: File, a: Reg, op: PackedOp) {
        self.each_half(Some((file, dst)), |e, h, t| {
            let x = e.half(src, a, h, t);
            op(&mut e.a, t, x);
        });
    }

    /// `f[dst] = buf[i[idx]]` for all lanes, `idx` being narrow and the
    /// access proven: each lane's dword index is extracted and its element
    /// inserted into `dst`'s half.
    fn emit_gather(&mut self, dst: Reg, buf: u32, idx: Reg) {
        let base = self.base(buf);
        self.each_half(Some((File::F, dst)), |e, h, t| {
            let ix = e.half(File::I, idx, h, Xmm(1));
            for k in 0..4 {
                // A proven index is non-negative: the zero-extension is
                // its value.
                e.a.pextrd(Gpr::Rax, ix, k);
                let at = Mem::sib(base, Gpr::Rax, 4, 0);
                if k == 0 {
                    e.a.movss_xm(t, at);
                } else {
                    e.a.insertps_xm(t, at, k);
                }
            }
        });
    }

    /// The instruction lane by lane. Its varying operands are read from
    /// their lane arrays, so pairs are written back first (a narrow
    /// register's dwords, which each lane's read sign-extends); a varying
    /// `f32` result is assembled in its lane array and loaded into its
    /// pair after.
    fn emit_per_lane(&mut self, inst: &Inst) {
        for (file, r) in inst.srcs().into_iter().flatten() {
            self.sync(file, r);
        }
        for l in 0..LANES {
            self.in_lane(l, |e| e.emit_inst(inst));
        }
        if let (File::F, dst) = inst.dst() {
            self.reload(dst);
        }
    }

    /// The pair of a varying chunk register — an `f32` one, or a narrow
    /// `i64` one's dwords — (`None`: it lives in its lane array).
    fn pair(&self, file: File, r: Reg) -> Option<[Xmm; HALVES]> {
        if self.chunk_shape(file, r) != Some(Shape::Varying) {
            return None;
        }
        self.lanes(file, r)?.regs
    }

    /// The lane array of a varying chunk register.
    fn lane_array(&self, file: File, r: Reg) -> Lanes {
        self.lanes(file, r).expect("a varying register has a lane array")
    }

    /// Writes `r`'s pair to its lane array unless this chunk already did.
    pub(super) fn sync(&mut self, file: File, r: Reg) {
        if let (Some(p), false) = (self.pair(file, r), self.synced[file as usize][r as usize]) {
            let arr = self.lane_array(file, r);
            self.each_half(None, |e, h, _| e.a.movups_mx(arr.half(h), p[h]));
            self.synced[file as usize][r as usize] = true;
        }
    }

    /// Loads f-register `r`'s pair from its lane array, which per-lane
    /// code filled.
    pub(super) fn reload(&mut self, r: Reg) {
        if let Some(p) = self.pair(File::F, r) {
            let arr = self.lane_array(File::F, r);
            self.each_half(None, |e, h, _| e.a.movups_xm(p[h], arr.half(h)));
            self.synced[File::F as usize][r as usize] = true;
        }
    }

    /// Lane 0 of register `r` in all four lanes of an XMM: an `f32` one's
    /// home if it keeps it so, or `scratch` ([`Self::broadcast`]).
    fn splat(&mut self, file: File, r: Reg, scratch: Xmm) -> Xmm {
        if file == File::F && self.alloc.splat[r as usize] {
            if let Home::Xmm(x) = self.alloc.homes_f[r as usize] {
                return x;
            }
        }
        self.broadcast(file, scratch, r);
        scratch
    }

    /// Lane 0 of register `r` in all four lanes of `dst` (an i-register's
    /// as a dword).
    fn broadcast(&mut self, file: File, dst: Xmm, r: Reg) {
        match file {
            File::F => self.in_lane(0, |e| e.read_f(dst, r)),
            File::I if self.facts.i[r as usize].konst == Some(0) => return self.a.xorps(dst, dst),
            File::I => {
                let x = self.in_lane(0, |e| e.reg_i(r, Gpr::Rax));
                self.a.movd_xr(dst, x);
            }
        }
        self.a.shufps(dst, dst, 0);
    }

    /// Whether i-register `r` has dword lanes in the chunk copy being
    /// emitted (the record's rule, [`crate::jit::facts::Fact::dwords`]).
    fn dwords(&self, r: Reg) -> bool {
        self.facts.i[r as usize].dwords(self.steady)
    }

    /// Lanes `4h ..` of register `r` in an SSE register: its pair's half
    /// as is; otherwise loaded from its lane array, broadcast from a
    /// uniform register or counted up from a linear one's lane 0 in
    /// `scratch`. An i-register's lanes are dwords ([`Self::dwords`]).
    fn half(&mut self, file: File, r: Reg, h: usize, scratch: Xmm) -> Xmm {
        if let Some(p) = self.pair(file, r) {
            return p[h];
        }
        match self.shape(file, r) {
            Shape::Varying => self.a.movups_xm(scratch, self.lane_array(file, r).half(h)),
            Shape::Uniform => return self.splat(file, r, scratch),
            Shape::Linear(s) => {
                self.broadcast(File::I, scratch, r);
                let steps = self.steps(s)[h];
                self.a.paddd_rip(scratch, steps);
            }
        }
        scratch
    }

    /// The constants `l·s` for the lanes `l` of each half, emitted after
    /// the code.
    fn steps(&mut self, s: i32) -> [Label; HALVES] {
        if let Some(&(_, l)) = self.steps.iter().find(|(t, _)| *t == s) {
            return l;
        }
        let l = std::array::from_fn(|_| self.a.new_label());
        self.steps.push((s, l));
        l
    }

    /// [`Self::half`] into `dst` itself.
    fn half_into(&mut self, file: File, dst: Xmm, r: Reg, h: usize) {
        let src = self.half(file, r, h, dst);
        if src != dst {
            self.a.movaps_xx(dst, src);
        }
    }

    /// Lane 0's index in the first returned GPR (its home, or rax) and the
    /// data pointer in the second for an access whose index is
    /// `Linear(s)`, behind its one bounds check unless the access is
    /// proven: `idx0 <u len ∧ idx0 + 7·s <u len` puts every lane in range
    /// (`len` is far below `2^63`, so neither end wraps). When the check
    /// fails some lane is out of bounds and the queued per-lane path finds
    /// the first; the caller binds the returned label after the access.
    fn range_guard(
        &mut self,
        op: MemOp,
        s: i32,
        guard: Option<Kept>,
    ) -> (Gpr, Gpr, Option<Label>) {
        let (buf, idx, val) = op.parts();
        let ix = self.in_lane(0, |e| e.index(idx, guard));
        let cont = guard.map(|why| {
            let (entry, cont) = (self.a.new_label(), self.a.new_label());
            self.slow.push(SlowPath {
                entry,
                cont,
                op,
                steady: self.steady,
                write_back: val.is_some_and(|v| {
                    self.pair(File::F, v).is_some() && !self.synced[File::F as usize][v as usize]
                }),
                why,
            });
            self.a.comment(|| format!("guard: {}", why.why()));
            self.cmp_len(Gpr::Rax, buf);
            self.a.jcc(Cc::Ae, entry);
            self.a.mov_rr(Gpr::Rdx, Gpr::Rax);
            self.a.add_ri(Gpr::Rdx, (LANES as i32 - 1) * s);
            self.cmp_len(Gpr::Rdx, buf);
            self.a.jcc(Cc::Ae, entry);
            cont
        });
        (ix, self.base(buf), cont)
    }

    /// `f[dst] = buf[i[idx]]` for all lanes, `idx` being `Linear(s)`,
    /// `s > 0`: two `movups` when contiguous, else eight `movss` at static
    /// displacements into the lane array.
    fn emit_linear_load(&mut self, dst: Reg, buf: u32, idx: Reg, s: i32, guard: Option<Kept>) {
        let (ix, base, cont) = self.range_guard(MemOp::Load { dst, buf, idx }, s, guard);
        if s == 1 {
            self.each_half(Some((File::F, dst)), |e, h, t| {
                e.a.movups_xm(t, Mem::sib(base, ix, 4, Lanes::offset(h)));
            });
        } else {
            let out = self.lane_array(File::F, dst).arr;
            for l in 0..LANES as i32 {
                self.a.movss_xm(Xmm(0), Mem::sib(base, ix, 4, 4 * l * s));
                self.a.movss_mx(Mem::base(Gpr::Rsp, out + 4 * l), Xmm(0));
            }
            self.reload(dst);
        }
        if let Some(cont) = cont {
            self.a.bind(cont);
        }
    }

    /// The store of one chunk statement: two `movups` behind at most one
    /// range guard when the index is contiguous, a lane-by-lane scatter of
    /// extracted dword indices when it is narrow and the store proven,
    /// else per-lane code.
    fn emit_chunk_store(&mut self, buf: u32, idx: Reg, val: Reg, guard: Option<Kept>) {
        let shape = self.shape(File::I, idx);
        if shape == Shape::Varying && self.dwords(idx) && guard.is_none() {
            let base = self.base(buf);
            return self.each_half(None, |e, h, _| {
                let ix = e.half(File::I, idx, h, Xmm(1));
                let v = e.half(File::F, val, h, Xmm(0));
                for k in 0..4 {
                    e.a.pextrd(Gpr::Rax, ix, k);
                    e.a.extractps_mx(Mem::sib(base, Gpr::Rax, 4, 0), v, k);
                }
            });
        }
        if shape != Shape::Linear(1) {
            self.sync(File::I, idx);
            self.sync(File::F, val);
            for l in 0..LANES {
                self.in_lane(l, |e| e.emit_store(buf, idx, val, guard));
            }
            return;
        }
        let (ix, base, cont) = self.range_guard(MemOp::Store { buf, idx, val }, 1, guard);
        let uniform =
            (self.shape(File::F, val) != Shape::Varying).then(|| self.splat(File::F, val, Xmm(0)));
        self.each_half(None, |e, h, _| {
            let src = uniform.unwrap_or_else(|| e.half(File::F, val, h, Xmm(0)));
            e.a.movups_mx(Mem::sib(base, ix, 4, Lanes::offset(h)), src);
        });
        if let Some(cont) = cont {
            self.a.bind(cont);
        }
    }
}

/// What a steady copy assumes, for the listing: per chain of nested
/// clamps, the register its result equals and the tests that make it so,
/// e.g. `i19 = i17 while i17 ≥ 0 ∧ i17+7 ≤ 47` for
/// `i19 = min(max(i17, 0), 47)` with `i17` of stride 1.
fn assumptions(clamps: &[Clamp], facts: &Facts) -> Vec<String> {
    // `(result, root, tests)`: a clamp of an earlier result extends that
    // chain, whose root its operand equals where the tests hold.
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
        let u = facts.i[k.u as usize].konst.map_or(format!("i{}", k.u), |v| v.to_string());
        tests.push(format!("{end} {rel} {u}"));
        chains.push((k.dst, root, tests));
    }
    let line = |(dst, root, tests): &(Reg, Reg, Vec<String>)| {
        format!("i{dst} = i{root} while {}", tests.join(" ∧ "))
    };
    chains.iter().map(line).collect()
}
