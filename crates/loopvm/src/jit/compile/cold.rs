//! Out-of-line paths: the code behind a function's `ret` that its fast
//! path jumps to — the per-lane slow paths of failed range guards, the
//! `f2i` fix-ups and the deopt stubs, which write the operand values into
//! the ctx deopt slots and return the stub's code.

use super::Emit;
use crate::bytecode::{File, Reg};
use crate::jit::asm::{Cc, Gpr, Label, Mem, Xmm};
use crate::jit::facts::Kept;
use crate::jit::runtime::{Deopt, CTX_DEOPT_A, CTX_DEOPT_B};
use crate::vm::LANES;

/// A load/store with a linear index: the per-lane sequence a failing
/// range guard jumps to, emitted behind the function's `ret`.
pub(super) struct SlowPath {
    pub(super) entry: Label,
    pub(super) cont: Label,
    pub(super) op: MemOp,
    /// The access is in a steady copy, whose shapes the path reads.
    pub(super) steady: bool,
    /// The stored value's pair is not yet in its lane array, where the
    /// per-lane stores read it.
    pub(super) write_back: bool,
    /// Why the access is guarded.
    pub(super) why: Kept,
}

#[derive(Clone, Copy)]
pub(super) enum MemOp {
    Load { dst: Reg, buf: u32, idx: Reg },
    Store { buf: u32, idx: Reg, val: Reg },
}

impl MemOp {
    /// `(buffer, index register, stored value register)`.
    pub(super) fn parts(self) -> (u32, Reg, Option<Reg>) {
        match self {
            MemOp::Load { buf, idx, .. } => (buf, idx, None),
            MemOp::Store { buf, idx, val } => (buf, idx, Some(val)),
        }
    }
}

impl Emit<'_> {
    /// The paths the function's code queued, behind its `ret`: per-lane
    /// slow paths, then `f2i` fix-ups, then deopt stubs.
    pub(super) fn emit_cold(&mut self) {
        for sp in std::mem::take(&mut self.slow) {
            self.emit_slow_path(sp);
        }
        for (fix, cont) in std::mem::take(&mut self.fixups) {
            self.emit_f2i_fixup(fix, cont);
        }
        for (label, id) in std::mem::take(&mut self.stubs) {
            self.a.bind(label);
            self.a.mov_mr(Mem::base(Gpr::R15, CTX_DEOPT_A), Gpr::Rax);
            self.a.mov_mr(Mem::base(Gpr::R15, CTX_DEOPT_B), Gpr::Rcx);
            self.a.mov_ri(Gpr::Rax, (id + 3) as i64);
            self.a.jmp(self.exit);
        }
    }

    /// Registers a deopt stub; guards jump to the returned label with the
    /// first operand in rax and (when meaningful) the second in rcx.
    pub(super) fn trap(&mut self, d: Deopt) -> Label {
        let id = self.deopts.len();
        self.deopts.push(d);
        let l = self.a.new_label();
        self.stubs.push((l, id));
        l
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
        self.steady = sp.steady;
        if let MemOp::Store { val, .. } = sp.op {
            self.synced[File::F as usize][val as usize] = !sp.write_back;
            self.sync(File::F, val);
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
        self.steady = false;
        self.a.jmp(sp.cont);
    }

    /// The fix-up of a `cvttss2si` that returned `i64::MIN` for xmm0:
    /// NaN becomes 0, a positive value `i64::MAX`, and a negative one
    /// (`-2^63` itself included) stays `i64::MIN`.
    fn emit_f2i_fixup(&mut self, fix: Label, cont: Label) {
        self.a.bind(fix);
        self.a.xorps(Xmm(1), Xmm(1));
        self.a.ucomiss(Xmm(0), Xmm(1));
        self.a.mov_ri(Gpr::Rcx, i64::MAX);
        self.a.cmov_rr(Cc::A, Gpr::Rax, Gpr::Rcx);
        self.a.mov_ri(Gpr::Rcx, 0);
        self.a.cmov_rr(Cc::P, Gpr::Rax, Gpr::Rcx);
        self.a.jmp(cont);
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::Expr;
    use crate::jit::{compile, listing};
    use crate::program::{LoopKind, Program, Stmt};
    use crate::vm::{ExecMode, Machine};

    /// `f2i` is inline `cvttss2si`, whose `i64::MIN` sentinel for NaN and
    /// out-of-range values leaves for a fix-up. Rust's saturating `as i64`
    /// must come out at every edge, in scalar code and lane by lane in a
    /// chunk (a loaded value has no interval, so its cast is not narrow).
    #[test]
    fn f2i_matches_the_interpreter_at_every_edge() {
        let two63 = 9_223_372_036_854_775_808f32;
        let values = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            two63,
            -two63,
            two63.next_down(),
            (-two63).next_up(),
            two63.next_up(),
            f32::MAX,
            f32::MIN,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE.next_down(),
            0.5,
            -0.5,
            1.5,
            -1.5,
        ];
        let n = values.len();
        for kind in [LoopKind::Vectorize(8), LoopKind::Serial] {
            let mut p = Program::new();
            let (inp, out) = (p.buffer("in", n), p.buffer("out", 4 * n));
            let i = p.var("i");
            // Each result as four exactly-representable 16-bit chunks.
            let body = (0..4)
                .map(|c| {
                    let v = Expr::to_i64(Expr::load(inp, Expr::var(i)));
                    let piece = (v / Expr::i64(1 << (16 * c))) % Expr::i64(65536);
                    let at = Expr::var(i) * Expr::i64(4) + Expr::i64(c);
                    Stmt::store(out, at, Expr::to_f32(piece))
                })
                .collect();
            p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(n as i64), kind, body));
            let bc = crate::opt::compile_program(&p).unwrap();
            let text = listing(&bc).unwrap();
            assert!(text.contains("cvttss2si") && !text.contains("call"), "{text}");
            let run = |mode: Option<ExecMode>| {
                let mut m = Machine::new(&p);
                m.buffer_mut(inp).copy_from_slice(&values);
                match mode {
                    Some(mode) => {
                        m.set_exec_mode(mode);
                        m.run(&p).unwrap();
                    }
                    None => m.run_jit(&compile(&bc).unwrap()).unwrap(),
                }
                m.buffer(out).to_vec()
            };
            let (native, interpreted) = (run(None), run(Some(ExecMode::Bytecode)));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&native), bits(&interpreted), "{kind:?}");
            for (k, v) in values.iter().enumerate() {
                let have = (0..4).fold(0i64, |acc, c| acc | (native[4 * k + c] as i64) << (16 * c));
                assert_eq!(have, *v as i64, "{kind:?}: {v:e}");
            }
        }
    }

}
