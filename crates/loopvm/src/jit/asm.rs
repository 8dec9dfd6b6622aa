//! A minimal hand-rolled x86-64 instruction encoder.
//!
//! Emits machine code into a byte buffer and, when constructed
//! [`Asm::with_listing`], a textual listing of every instruction. The
//! listing *is* the disassembly pinned by `tests/opt_golden.rs` — text and
//! bytes are produced by the same call, so the golden file cannot drift
//! from what actually executes; a plain [`Asm::new`] formats nothing.
//!
//! Only the instructions the bytecode compiler needs are provided; all
//! jumps use rel32 displacements patched through [`Label`]s, so the
//! encoder never has to re-layout code.
//!
//! While the emitter has [`Asm::count_chunk`] on, the encoder also counts
//! what it emits — instructions, those with an `[rsp+…]` operand, those
//! with an `[r15+…]` one, and calls —
//! into the program's [`ChunkCost`] of general chunk copies, of steady
//! ones, or both (the loop head and back edge both copies run); while
//! [`Asm::count_loop`] is on, into the cost of the innermost loops around
//! chunks.

use super::ChunkCost;

/// A host general-purpose register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)]
pub(super) enum Gpr {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Gpr {
    fn idx(self) -> u8 {
        self as u8
    }

    fn name(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        NAMES[self as usize]
    }

    /// The name of the register's low 32 bits.
    fn name32(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d",
            "r12d", "r13d", "r14d", "r15d",
        ];
        NAMES[self as usize]
    }
}

/// The classic two-operand integer operations, by the `/digit` of their
/// `r/m, imm` forms (`83 /d ib`, `81 /d id`); `8·d + 1` is the `r/m, r`
/// opcode and `8·d + 3` the `r, r/m` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Alu {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

impl Alu {
    fn name(self) -> &'static str {
        match self {
            Alu::Add => "add",
            Alu::Or => "or",
            Alu::And => "and",
            Alu::Sub => "sub",
            Alu::Xor => "xor",
            Alu::Cmp => "cmp",
        }
    }
}

/// A host SSE register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Xmm(pub u8);

impl Xmm {
    fn name(self) -> String {
        format!("xmm{}", self.0)
    }
}

/// Condition codes (the low nibble of `0F 8x`/`0F 9x` opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)]
pub(super) enum Cc {
    /// Below (unsigned `<`; also "carry").
    B = 0x2,
    /// Above or equal (unsigned `>=`).
    Ae = 0x3,
    /// Equal / zero.
    E = 0x4,
    /// Not equal / not zero.
    Ne = 0x5,
    /// Above (unsigned `>`).
    A = 0x7,
    /// Sign (negative).
    S = 0x8,
    /// No sign (non-negative).
    Ns = 0x9,
    /// Parity (after `ucomiss`: unordered).
    P = 0xA,
    /// No parity (ordered).
    Np = 0xB,
    /// Less (signed `<`).
    L = 0xC,
    /// Greater or equal (signed `>=`).
    Ge = 0xD,
    /// Less or equal (signed `<=`).
    Le = 0xE,
    /// Greater (signed `>`).
    G = 0xF,
    /// Overflow (signed).
    O = 0x0,
}

impl Cc {
    fn name(self) -> &'static str {
        match self {
            Cc::B => "b",
            Cc::Ae => "ae",
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::A => "a",
            Cc::S => "s",
            Cc::Ns => "ns",
            Cc::P => "p",
            Cc::Np => "np",
            Cc::L => "l",
            Cc::Ge => "ge",
            Cc::Le => "le",
            Cc::G => "g",
            Cc::O => "o",
        }
    }
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Mem {
    pub base: Gpr,
    pub index: Option<(Gpr, u8)>,
    pub disp: i32,
}

impl Mem {
    pub fn base(base: Gpr, disp: i32) -> Mem {
        Mem { base, index: None, disp }
    }

    pub fn sib(base: Gpr, index: Gpr, scale: u8, disp: i32) -> Mem {
        Mem { base, index: Some((index, scale)), disp }
    }

    fn text(&self) -> String {
        let mut s = format!("[{}", self.base.name());
        if let Some((i, sc)) = self.index {
            s.push_str(&format!("+{}*{}", i.name(), sc));
        }
        match self.disp.cmp(&0) {
            std::cmp::Ordering::Greater => s.push_str(&format!("+{:#x}", self.disp)),
            std::cmp::Ordering::Less => s.push_str(&format!("-{:#x}", -(self.disp as i64))),
            std::cmp::Ordering::Equal => {}
        }
        s.push(']');
        s
    }
}

/// A forward-referencable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Label(usize);

impl Label {
    /// Placeholder for label fields initialized before emission starts;
    /// must be overwritten before any jump references it.
    pub(super) const INVALID: Label = Label(usize::MAX);
}

/// The encoder: machine bytes plus an optional line-per-instruction
/// listing.
pub(super) struct Asm {
    pub code: Vec<u8>,
    /// Listing lines; `None` when only the bytes are wanted.
    text: Option<Vec<String>>,
    /// Bound labels: label index -> code offset.
    labels: Vec<Option<usize>>,
    /// Pending rel32 patches: (offset of the 4 displacement bytes, target).
    fixups: Vec<(usize, Label)>,
    /// Whether emitted instructions are added to `chunk` and `steady`.
    counting: (bool, bool),
    /// Whether emitted instructions are added to `loops`.
    counting_loop: bool,
    /// What the general copies of vector chunks cost.
    pub chunk: ChunkCost,
    /// What the steady copies cost (see `Footprint::steady`).
    pub steady: ChunkCost,
    /// What the innermost loops around chunks cost (see
    /// `Footprint::loops`).
    pub loops: ChunkCost,
}

impl Asm {
    pub fn new() -> Asm {
        Asm {
            code: Vec::new(),
            text: None,
            labels: Vec::new(),
            fixups: Vec::new(),
            counting: (false, false),
            counting_loop: false,
            chunk: ChunkCost::default(),
            steady: ChunkCost::default(),
            loops: ChunkCost::default(),
        }
    }

    /// An encoder that also records the listing.
    pub fn with_listing() -> Asm {
        Asm { text: Some(Vec::new()), ..Asm::new() }
    }

    /// The recorded listing (`None` unless built [`Asm::with_listing`]).
    pub fn listing(&self) -> Option<String> {
        let text = self.text.as_ref()?;
        let mut out = String::new();
        for l in text {
            out.push_str(l);
            out.push('\n');
        }
        Some(out)
    }

    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Records one instruction (every encoder calls this once); `f` runs
    /// only when listing.
    fn line(&mut self, f: impl FnOnce() -> String) {
        self.tally(|c| c.insts += 1);
        if let Some(text) = &mut self.text {
            text.push(format!("  {}", f()));
        }
    }

    /// Emits a comment-only listing line (no code bytes).
    pub fn comment(&mut self, f: impl FnOnce() -> String) {
        if let Some(text) = &mut self.text {
            text.push(format!("  ; {}", f()));
        }
    }

    /// Counts what is emitted from here on as fast-path code of general
    /// chunk copies, of steady ones, both or neither.
    pub fn count_chunk(&mut self, general: bool, steady: bool) {
        self.counting = (general, steady);
    }

    /// Counts what is emitted from here on as a loop's fast path, or not;
    /// returns the previous setting.
    pub fn count_loop(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.counting_loop, on)
    }

    /// Adds to the costs being counted.
    fn tally(&mut self, f: impl Fn(&mut ChunkCost)) {
        if self.counting.0 {
            f(&mut self.chunk);
        }
        if self.counting.1 {
            f(&mut self.steady);
        }
        if self.counting_loop {
            f(&mut self.loops);
        }
    }

    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.code.len());
        if let Some(text) = &mut self.text {
            text.push(format!("L{}:", l.0));
        }
    }

    /// Resolves every pending jump; call once after all code is emitted.
    pub fn finish(&mut self) {
        for (at, l) in std::mem::take(&mut self.fixups) {
            let target = self.labels[l.0].expect("unbound label");
            let rel = target as i64 - (at as i64 + 4);
            let rel32 = i32::try_from(rel).expect("jump out of range");
            self.code[at..at + 4].copy_from_slice(&rel32.to_le_bytes());
        }
    }

    // -- raw emission helpers ------------------------------------------------

    fn b(&mut self, v: u8) {
        self.code.push(v);
    }

    fn d32(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn rex(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let rex = 0x40
            | (u8::from(w) << 3)
            | ((reg >> 3) << 2)
            | ((index >> 3) << 1)
            | (base >> 3);
        if rex != 0x40 || w {
            self.b(rex);
        }
    }

    /// REX that must be present even when 0x40 (byte-register access).
    fn rex_force(&mut self, reg: u8, base: u8) {
        self.b(0x40 | ((reg >> 3) << 2) | (base >> 3));
    }

    fn modrm(&mut self, md: u8, reg: u8, rm: u8) {
        self.b((md << 6) | ((reg & 7) << 3) | (rm & 7));
    }

    /// Emits opcode bytes then a reg-reg ModRM.
    fn op_rr(&mut self, prefix: Option<u8>, w: bool, opcode: &[u8], reg: u8, rm: u8) {
        if let Some(p) = prefix {
            self.b(p);
        }
        self.rex(w, reg, 0, rm);
        self.code.extend_from_slice(opcode);
        self.modrm(3, reg, rm);
    }

    /// Emits opcode bytes then a reg-mem ModRM (+SIB, +disp).
    fn op_rm(&mut self, prefix: Option<u8>, w: bool, opcode: &[u8], reg: u8, m: Mem) {
        match m.base {
            Gpr::Rsp => self.tally(|c| c.stack_refs += 1),
            Gpr::R15 => self.tally(|c| c.ctx_refs += 1),
            _ => {}
        }
        if let Some(p) = prefix {
            self.b(p);
        }
        let (index_bits, has_sib) = match m.index {
            Some((i, _)) => {
                assert!(i != Gpr::Rsp, "rsp cannot index");
                (i.idx(), true)
            }
            None => (0, m.base.idx() & 7 == 4),
        };
        self.rex(w, reg, index_bits, m.base.idx());
        self.code.extend_from_slice(opcode);
        let base_low = m.base.idx() & 7;
        // rbp/r13 base requires an explicit displacement.
        let md = if m.disp == 0 && base_low != 5 {
            0
        } else if i8::try_from(m.disp).is_ok() {
            1
        } else {
            2
        };
        let rm = if has_sib { 4 } else { base_low };
        self.modrm(md, reg, rm);
        if has_sib {
            let (idx_low, scale_bits) = match m.index {
                Some((i, sc)) => {
                    let sb = match sc {
                        1 => 0,
                        2 => 1,
                        4 => 2,
                        8 => 3,
                        _ => panic!("bad scale"),
                    };
                    (i.idx() & 7, sb)
                }
                None => (4, 0),
            };
            self.b((scale_bits << 6) | (idx_low << 3) | base_low);
        }
        match md {
            1 => self.b(m.disp as i8 as u8),
            2 => self.d32(m.disp),
            _ => {}
        }
    }

    // -- GPR moves -----------------------------------------------------------

    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(None, true, &[0x89], src.idx(), dst.idx());
        self.line(|| format!("mov {}, {}", dst.name(), src.name()));
    }

    pub fn mov_rm(&mut self, dst: Gpr, m: Mem) {
        self.op_rm(None, true, &[0x8B], dst.idx(), m);
        self.line(|| format!("mov {}, {}", dst.name(), m.text()));
    }

    pub fn mov_mr(&mut self, m: Mem, src: Gpr) {
        self.op_rm(None, true, &[0x89], src.idx(), m);
        self.line(|| format!("mov {}, {}", m.text(), src.name()));
    }

    pub fn mov_ri(&mut self, dst: Gpr, v: i64) {
        if let Ok(v32) = i32::try_from(v) {
            // mov r/m64, imm32 (sign-extended).
            self.rex(true, 0, 0, dst.idx());
            self.b(0xC7);
            self.modrm(3, 0, dst.idx());
            self.d32(v32);
        } else {
            // movabs r64, imm64.
            self.rex(true, 0, 0, dst.idx());
            self.b(0xB8 + (dst.idx() & 7));
            self.code.extend_from_slice(&v.to_le_bytes());
        }
        self.line(|| format!("mov {}, {v:#x}", dst.name()));
    }

    /// `mov r32, imm32` (zero-extends; used to build f32 bit patterns).
    pub fn mov_ri32(&mut self, dst: Gpr, bits: u32) {
        self.rex(false, 0, 0, dst.idx());
        self.b(0xB8 + (dst.idx() & 7));
        self.code.extend_from_slice(&bits.to_le_bytes());
        self.line(|| format!("mov {}, {bits:#x}", dst.name32()));
    }

    /// `movabs` of a host function address, listed symbolically so the
    /// golden disassembly stays stable across processes.
    pub fn mov_ri_sym(&mut self, dst: Gpr, v: u64, sym: &str) {
        self.rex(true, 0, 0, dst.idx());
        self.b(0xB8 + (dst.idx() & 7));
        self.code.extend_from_slice(&v.to_le_bytes());
        self.line(|| format!("mov {}, <{sym}>", dst.name()));
    }

    // -- GPR arithmetic ------------------------------------------------------

    /// `op dst, src`.
    pub fn alu_rr(&mut self, op: Alu, dst: Gpr, src: Gpr) {
        self.op_rr(None, true, &[(op as u8) << 3 | 1], src.idx(), dst.idx());
        self.line(|| format!("{} {}, {}", op.name(), dst.name(), src.name()));
    }

    /// `op dst, imm` (sign-extended to 64 bits; `ib` when it fits).
    pub fn alu_ri(&mut self, op: Alu, dst: Gpr, v: i32) {
        self.rex(true, 0, 0, dst.idx());
        if let Ok(v8) = i8::try_from(v) {
            self.b(0x83);
            self.modrm(3, op as u8, dst.idx());
            self.b(v8 as u8);
        } else {
            self.b(0x81);
            self.modrm(3, op as u8, dst.idx());
            self.d32(v);
        }
        self.line(|| format!("{} {}, {v:#x}", op.name(), dst.name()));
    }

    /// `op dst, [m]`.
    pub fn alu_rm(&mut self, op: Alu, dst: Gpr, m: Mem) {
        self.op_rm(None, true, &[(op as u8) << 3 | 3], dst.idx(), m);
        self.line(|| format!("{} {}, {}", op.name(), dst.name(), m.text()));
    }

    pub fn add_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(Alu::Add, dst, src);
    }

    pub fn sub_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(Alu::Sub, dst, src);
    }

    pub fn and_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(Alu::And, dst, src);
    }

    pub fn or_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(Alu::Or, dst, src);
    }

    pub fn xor_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(Alu::Xor, dst, src);
    }

    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) {
        self.alu_rr(Alu::Cmp, a, b);
    }

    pub fn test_rr(&mut self, a: Gpr, b: Gpr) {
        self.op_rr(None, true, &[0x85], b.idx(), a.idx());
        self.line(|| format!("test {}, {}", a.name(), b.name()));
    }

    pub fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(None, true, &[0x0F, 0xAF], dst.idx(), src.idx());
        self.line(|| format!("imul {}, {}", dst.name(), src.name()));
    }

    /// `imul dst, [m]`.
    pub fn imul_rm(&mut self, dst: Gpr, m: Mem) {
        self.op_rm(None, true, &[0x0F, 0xAF], dst.idx(), m);
        self.line(|| format!("imul {}, {}", dst.name(), m.text()));
    }

    /// `imul dst, src, imm` (sign-extended; `ib` when it fits).
    pub fn imul_rri(&mut self, dst: Gpr, src: Gpr, v: i32) {
        let short = i8::try_from(v).is_ok();
        self.op_rr(None, true, &[if short { 0x6B } else { 0x69 }], dst.idx(), src.idx());
        if short {
            self.b(v as i8 as u8);
        } else {
            self.d32(v);
        }
        self.line(|| format!("imul {}, {}, {v:#x}", dst.name(), src.name()));
    }

    pub fn add_ri(&mut self, dst: Gpr, v: i32) {
        self.alu_ri(Alu::Add, dst, v);
    }

    pub fn sub_ri(&mut self, dst: Gpr, v: i32) {
        self.alu_ri(Alu::Sub, dst, v);
    }

    pub fn cmp_ri(&mut self, a: Gpr, v: i32) {
        self.alu_ri(Alu::Cmp, a, v);
    }

    pub fn neg_r(&mut self, r: Gpr) {
        self.op_rr(None, true, &[0xF7], 3, r.idx());
        self.line(|| format!("neg {}", r.name()));
    }

    pub fn sar_ri(&mut self, r: Gpr, bits: u8) {
        self.rex(true, 0, 0, r.idx());
        self.b(0xC1);
        self.modrm(3, 7, r.idx());
        self.b(bits);
        self.line(|| format!("sar {}, {bits}", r.name()));
    }

    pub fn cqo(&mut self) {
        self.b(0x48);
        self.b(0x99);
        self.line(|| "cqo".to_string());
    }

    pub fn idiv_r(&mut self, r: Gpr) {
        self.op_rr(None, true, &[0xF7], 7, r.idx());
        self.line(|| format!("idiv {}", r.name()));
    }

    pub fn cmov_rr(&mut self, cc: Cc, dst: Gpr, src: Gpr) {
        self.op_rr(None, true, &[0x0F, 0x40 | cc as u8], dst.idx(), src.idx());
        self.line(|| format!("cmov{} {}, {}", cc.name(), dst.name(), src.name()));
    }

    /// `setcc` on a register's low byte (restricted to rax/rcx/rdx so no
    /// REX ambiguity arises).
    pub fn setcc_r8(&mut self, cc: Cc, r: Gpr) {
        assert!(matches!(r, Gpr::Rax | Gpr::Rcx | Gpr::Rdx), "setcc scratch only");
        self.b(0x0F);
        self.b(0x90 | cc as u8);
        self.modrm(3, 0, r.idx());
        const BYTE: [&str; 3] = ["al", "cl", "dl"];
        self.line(|| format!("set{} {}", cc.name(), BYTE[r.idx() as usize]));
    }

    /// `movzx r64, r8` (again scratch-only).
    pub fn movzx_r64_r8(&mut self, dst: Gpr, src: Gpr) {
        assert!(matches!(src, Gpr::Rax | Gpr::Rcx | Gpr::Rdx));
        self.rex_force(dst.idx(), src.idx());
        // With REX.W: 48 0F B6.
        let rex_at = self.code.len() - 1;
        self.code[rex_at] |= 0x08;
        self.b(0x0F);
        self.b(0xB6);
        self.modrm(3, dst.idx(), src.idx());
        const BYTE: [&str; 3] = ["al", "cl", "dl"];
        self.line(|| format!("movzx {}, {}", dst.name(), BYTE[src.idx() as usize]));
    }

    // -- stack & calls -------------------------------------------------------

    pub fn push_r(&mut self, r: Gpr) {
        self.rex(false, 0, 0, r.idx());
        self.b(0x50 + (r.idx() & 7));
        self.line(|| format!("push {}", r.name()));
    }

    pub fn pop_r(&mut self, r: Gpr) {
        self.rex(false, 0, 0, r.idx());
        self.b(0x58 + (r.idx() & 7));
        self.line(|| format!("pop {}", r.name()));
    }

    pub fn call_r(&mut self, r: Gpr) {
        self.tally(|c| c.calls += 1);
        self.rex(false, 0, 0, r.idx());
        self.b(0xFF);
        self.modrm(3, 2, r.idx());
        self.line(|| format!("call {}", r.name()));
    }

    pub fn ret(&mut self) {
        self.b(0xC3);
        self.line(|| "ret".to_string());
    }

    // -- jumps ---------------------------------------------------------------

    pub fn jmp(&mut self, l: Label) {
        self.b(0xE9);
        let at = self.code.len();
        self.d32(0);
        self.fixups.push((at, l));
        self.line(|| format!("jmp L{}", l.0));
    }

    pub fn jcc(&mut self, cc: Cc, l: Label) {
        self.b(0x0F);
        self.b(0x80 | cc as u8);
        let at = self.code.len();
        self.d32(0);
        self.fixups.push((at, l));
        self.line(|| format!("j{} L{}", cc.name(), l.0));
    }

    // -- SSE scalar f32 ------------------------------------------------------

    pub fn movss_xm(&mut self, dst: Xmm, m: Mem) {
        self.op_rm(Some(0xF3), false, &[0x0F, 0x10], dst.0, m);
        self.line(|| format!("movss {}, {}", dst.name(), m.text()));
    }

    pub fn movss_mx(&mut self, m: Mem, src: Xmm) {
        self.op_rm(Some(0xF3), false, &[0x0F, 0x11], src.0, m);
        self.line(|| format!("movss {}, {}", m.text(), src.name()));
    }

    /// `F3 0F op` (scalar `…ss`) or bare `0F op` (packed `…ps`).
    fn sse_op(&mut self, prefix: Option<u8>, opcode: u8, mnem: &str, dst: Xmm, src: Xmm) {
        self.op_rr(prefix, false, &[0x0F, opcode], dst.0, src.0);
        self.line(|| format!("{mnem} {}, {}", dst.name(), src.name()));
    }

    pub fn addss(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(Some(0xF3), 0x58, "addss", dst, src);
    }

    pub fn subss(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(Some(0xF3), 0x5C, "subss", dst, src);
    }

    pub fn mulss(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(Some(0xF3), 0x59, "mulss", dst, src);
    }

    pub fn divss(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(Some(0xF3), 0x5E, "divss", dst, src);
    }

    pub fn sqrtss(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(Some(0xF3), 0x51, "sqrtss", dst, src);
    }

    // -- SSE packed f32 (four lanes; per lane IEEE-identical to `…ss`) -------

    pub fn movups_xm(&mut self, dst: Xmm, m: Mem) {
        self.op_rm(None, false, &[0x0F, 0x10], dst.0, m);
        self.line(|| format!("movups {}, {}", dst.name(), m.text()));
    }

    pub fn movups_mx(&mut self, m: Mem, src: Xmm) {
        self.op_rm(None, false, &[0x0F, 0x11], src.0, m);
        self.line(|| format!("movups {}, {}", m.text(), src.name()));
    }

    /// `movaps xmm, xmm`: a whole-register copy (no merge with the old
    /// value of `dst`, unlike `movss`).
    pub fn movaps_xx(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x28, "movaps", dst, src);
    }

    pub fn addps(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x58, "addps", dst, src);
    }

    pub fn subps(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x5C, "subps", dst, src);
    }

    pub fn mulps(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x59, "mulps", dst, src);
    }

    pub fn divps(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x5E, "divps", dst, src);
    }

    pub fn sqrtps(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x51, "sqrtps", dst, src);
    }

    /// `shufps dst, src, imm8` (`imm8 = 0` with `dst == src` broadcasts
    /// lane 0).
    pub fn shufps(&mut self, dst: Xmm, src: Xmm, imm: u8) {
        self.op_rr(None, false, &[0x0F, 0xC6], dst.0, src.0);
        self.b(imm);
        self.line(|| format!("shufps {}, {}, {imm:#x}", dst.name(), src.name()));
    }

    pub fn ucomiss(&mut self, a: Xmm, b: Xmm) {
        self.op_rr(None, false, &[0x0F, 0x2E], a.0, b.0);
        self.line(|| format!("ucomiss {}, {}", a.name(), b.name()));
    }

    pub fn xorps(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(None, false, &[0x0F, 0x57], dst.0, src.0);
        self.line(|| format!("xorps {}, {}", dst.name(), src.name()));
    }

    pub fn andps(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(None, false, &[0x0F, 0x54], dst.0, src.0);
        self.line(|| format!("andps {}, {}", dst.name(), src.name()));
    }

    /// `cvtsi2ss xmm, r64` (i64 -> f32, rounds per MXCSR: nearest-even,
    /// matching Rust's `as f32`).
    pub fn cvtsi2ss(&mut self, dst: Xmm, src: Gpr) {
        self.b(0xF3);
        self.rex(true, dst.0, 0, src.idx());
        self.b(0x0F);
        self.b(0x2A);
        self.modrm(3, dst.0, src.idx());
        self.line(|| format!("cvtsi2ss {}, {}", dst.name(), src.name()));
    }

    /// `movd xmm, r32`.
    pub fn movd_xr(&mut self, dst: Xmm, src: Gpr) {
        self.b(0x66);
        self.rex(false, dst.0, 0, src.idx());
        self.b(0x0F);
        self.b(0x6E);
        self.modrm(3, dst.0, src.idx());
        self.line(|| format!("movd {}, {}", dst.name(), src.name32()));
    }

    /// `cvttss2si r64, xmm`: truncates toward zero; `i64::MIN` for NaN
    /// and out-of-range values.
    pub fn cvttss2si(&mut self, dst: Gpr, src: Xmm) {
        self.op_rr(Some(0xF3), true, &[0x0F, 0x2C], dst.idx(), src.0);
        self.line(|| format!("cvttss2si {}, {}", dst.name(), src.name()));
    }

    /// `movsxd r64, m32`: a sign-extending dword load.
    pub fn movsxd_rm(&mut self, dst: Gpr, m: Mem) {
        self.op_rm(None, true, &[0x63], dst.idx(), m);
        self.line(|| format!("movsxd {}, {}", dst.name(), m.text()));
    }

    // -- SSE4.1 packed dwords (four lanes) ------------------------------------

    /// `66 0F …` packed-integer operation, `dst op= src`.
    fn pd_op(&mut self, opcode: &[u8], mnem: &str, dst: Xmm, src: Xmm) {
        self.op_rr(Some(0x66), false, opcode, dst.0, src.0);
        self.line(|| format!("{mnem} {}, {}", dst.name(), src.name()));
    }

    pub fn paddd(&mut self, dst: Xmm, src: Xmm) {
        self.pd_op(&[0x0F, 0xFE], "paddd", dst, src);
    }

    pub fn psubd(&mut self, dst: Xmm, src: Xmm) {
        self.pd_op(&[0x0F, 0xFA], "psubd", dst, src);
    }

    pub fn pmulld(&mut self, dst: Xmm, src: Xmm) {
        self.pd_op(&[0x0F, 0x38, 0x40], "pmulld", dst, src);
    }

    pub fn pminsd(&mut self, dst: Xmm, src: Xmm) {
        self.pd_op(&[0x0F, 0x38, 0x39], "pminsd", dst, src);
    }

    pub fn pmaxsd(&mut self, dst: Xmm, src: Xmm) {
        self.pd_op(&[0x0F, 0x38, 0x3D], "pmaxsd", dst, src);
    }

    /// `paddd xmm, [rip + l]`: adds the four dwords [`Asm::dwords`] put
    /// at `l` (which must be 16-byte aligned).
    pub fn paddd_rip(&mut self, dst: Xmm, l: Label) {
        self.b(0x66);
        self.rex(false, dst.0, 0, 0);
        self.code.extend_from_slice(&[0x0F, 0xFE]);
        self.modrm(0, dst.0, 5);
        // The displacement ends the instruction, as a jump's does.
        let at = self.code.len();
        self.d32(0);
        self.fixups.push((at, l));
        self.line(|| format!("paddd {}, [rip+L{}]", dst.name(), l.0));
    }

    /// Pads with `int3` to a multiple of 16 bytes.
    pub fn align16(&mut self) {
        while !self.code.len().is_multiple_of(16) {
            self.b(0xCC);
        }
    }

    /// Four dwords of data (not an instruction).
    pub fn dwords(&mut self, v: [i32; 4]) {
        for d in v {
            self.d32(d);
        }
        if let Some(text) = &mut self.text {
            text.push(format!("  .long {}, {}, {}, {}", v[0], v[1], v[2], v[3]));
        }
    }

    /// `cvttps2dq`: four `f32` truncated toward zero to `i32`.
    pub fn cvttps2dq(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(Some(0xF3), 0x5B, "cvttps2dq", dst, src);
    }

    /// `cvtdq2ps`: four `i32` to `f32`, rounded per MXCSR like `cvtsi2ss`.
    pub fn cvtdq2ps(&mut self, dst: Xmm, src: Xmm) {
        self.sse_op(None, 0x5B, "cvtdq2ps", dst, src);
    }

    /// `pextrd r32, xmm, lane` (zero-extends into the 64-bit register).
    pub fn pextrd(&mut self, dst: Gpr, src: Xmm, lane: u8) {
        self.op_rr(Some(0x66), false, &[0x0F, 0x3A, 0x16], src.0, dst.idx());
        self.b(lane);
        self.line(|| format!("pextrd {}, {}, {lane}", dst.name32(), src.name()));
    }

    /// `insertps xmm, m32, lane << 4`: loads one `f32` into `lane`.
    pub fn insertps_xm(&mut self, dst: Xmm, m: Mem, lane: u8) {
        self.op_rm(Some(0x66), false, &[0x0F, 0x3A, 0x21], dst.0, m);
        self.b(lane << 4);
        self.line(|| format!("insertps {}, {}, {:#x}", dst.name(), m.text(), lane << 4));
    }

    /// `extractps m32, xmm, lane`: stores one `f32` lane.
    pub fn extractps_mx(&mut self, m: Mem, src: Xmm, lane: u8) {
        self.op_rm(Some(0x66), false, &[0x0F, 0x3A, 0x17], src.0, m);
        self.b(lane);
        self.line(|| format!("extractps {}, {}, {lane}", m.text(), src.name()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_match_reference_bytes() {
        // Spot-check against known assemblies (from a reference assembler).
        let mut a = Asm::new();
        a.mov_rr(Gpr::Rax, Gpr::R15);
        assert_eq!(a.code, [0x4C, 0x89, 0xF8]);

        let mut a = Asm::new();
        a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, 8));
        assert_eq!(a.code, [0x48, 0x8B, 0x4C, 0x24, 0x08]);

        let mut a = Asm::new();
        a.mov_rm(Gpr::Rax, Mem::base(Gpr::R13, 0));
        // r13 base forces a disp8 of 0.
        assert_eq!(a.code, [0x49, 0x8B, 0x45, 0x00]);

        let mut a = Asm::new();
        a.movss_xm(Xmm(2), Mem::sib(Gpr::Rax, Gpr::Rcx, 4, 0));
        assert_eq!(a.code, [0xF3, 0x0F, 0x10, 0x14, 0x88]);

        let mut a = Asm::new();
        a.movss_mx(Mem::sib(Gpr::Rax, Gpr::Rcx, 4, 0), Xmm(0));
        assert_eq!(a.code, [0xF3, 0x0F, 0x11, 0x04, 0x88]);

        let mut a = Asm::new();
        a.addss(Xmm(0), Xmm(8));
        assert_eq!(a.code, [0xF3, 0x41, 0x0F, 0x58, 0xC0]);

        let mut a = Asm::new();
        a.imul_rr(Gpr::Rax, Gpr::Rcx);
        assert_eq!(a.code, [0x48, 0x0F, 0xAF, 0xC1]);

        let mut a = Asm::new();
        a.cqo();
        a.idiv_r(Gpr::Rcx);
        assert_eq!(a.code, [0x48, 0x99, 0x48, 0xF7, 0xF9]);

        let mut a = Asm::new();
        a.setcc_r8(Cc::L, Gpr::Rax);
        a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
        assert_eq!(a.code, [0x0F, 0x9C, 0xC0, 0x48, 0x0F, 0xB6, 0xC0]);

        let mut a = Asm::new();
        a.cvtsi2ss(Xmm(0), Gpr::Rax);
        assert_eq!(a.code, [0xF3, 0x48, 0x0F, 0x2A, 0xC0]);

        let mut a = Asm::new();
        a.mov_ri(Gpr::Rax, i64::MIN);
        assert_eq!(
            a.code,
            [0x48, 0xB8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80]
        );

        let mut a = Asm::new();
        a.mov_ri(Gpr::Rdx, 5);
        assert_eq!(a.code, [0x48, 0xC7, 0xC2, 0x05, 0x00, 0x00, 0x00]);

        // Packed SSE (GNU as, `.intel_syntax noprefix`).
        let mut a = Asm::new();
        a.movups_xm(Xmm(0), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0));
        a.movups_xm(Xmm(1), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 16));
        assert_eq!(a.code, [0x0F, 0x10, 0x04, 0x81, 0x0F, 0x10, 0x4C, 0x81, 0x10]);

        let mut a = Asm::new();
        a.movups_xm(Xmm(8), Mem::sib(Gpr::R13, Gpr::R9, 4, 0x200));
        assert_eq!(a.code, [0x47, 0x0F, 0x10, 0x84, 0x8D, 0x00, 0x02, 0x00, 0x00]);

        let mut a = Asm::new();
        a.movups_mx(Mem::base(Gpr::Rsp, 0x120), Xmm(9));
        a.movups_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 16), Xmm(1));
        assert_eq!(
            a.code,
            [0x44, 0x0F, 0x11, 0x8C, 0x24, 0x20, 0x01, 0x00, 0x00, 0x0F, 0x11, 0x4C, 0x81, 0x10]
        );

        let mut a = Asm::new();
        a.addps(Xmm(0), Xmm(1));
        a.subps(Xmm(0), Xmm(1));
        a.mulps(Xmm(0), Xmm(8));
        a.divps(Xmm(0), Xmm(1));
        a.sqrtps(Xmm(9), Xmm(1));
        assert_eq!(
            a.code,
            [
                0x0F, 0x58, 0xC1, 0x0F, 0x5C, 0xC1, 0x41, 0x0F, 0x59, 0xC0, 0x0F, 0x5E, 0xC1,
                0x44, 0x0F, 0x51, 0xC9
            ]
        );

        let mut a = Asm::new();
        a.shufps(Xmm(0), Xmm(0), 0);
        a.shufps(Xmm(8), Xmm(8), 0);
        a.shufps(Xmm(1), Xmm(2), 0x1B);
        assert_eq!(
            a.code,
            [0x0F, 0xC6, 0xC0, 0x00, 0x45, 0x0F, 0xC6, 0xC0, 0x00, 0x0F, 0xC6, 0xCA, 0x1B]
        );

        let mut a = Asm::new();
        a.movaps_xx(Xmm(0), Xmm(1));
        a.movaps_xx(Xmm(2), Xmm(9));
        a.movaps_xx(Xmm(8), Xmm(0));
        a.movaps_xx(Xmm(15), Xmm(14));
        assert_eq!(
            a.code,
            [
                0x0F, 0x28, 0xC1, 0x41, 0x0F, 0x28, 0xD1, 0x44, 0x0F, 0x28, 0xC0, 0x45, 0x0F, 0x28,
                0xFE
            ]
        );

        // Packed code in place on high XMM pairs: the operand forms above
        // with REX.R / REX.B set.
        let mut a = Asm::new();
        a.movups_xm(Xmm(15), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0));
        a.movups_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 16), Xmm(12));
        a.movups_mx(Mem::base(Gpr::Rsp, 0x188), Xmm(12));
        a.mulps(Xmm(10), Xmm(12));
        a.shufps(Xmm(10), Xmm(10), 0);
        a.sqrtps(Xmm(9), Xmm(14));
        assert_eq!(
            a.code,
            [
                0x44, 0x0F, 0x10, 0x3C, 0x81, 0x44, 0x0F, 0x11, 0x64, 0x81, 0x10, 0x44, 0x0F,
                0x11, 0xA4, 0x24, 0x88, 0x01, 0x00, 0x00, 0x45, 0x0F, 0x59, 0xD4, 0x45, 0x0F,
                0xC6, 0xD2, 0x00, 0x45, 0x0F, 0x51, 0xCE
            ]
        );
    }

    #[test]
    fn packed_dword_encodings_match_reference_bytes() {
        // GNU as, `.intel_syntax noprefix`.
        let mut a = Asm::new();
        a.paddd(Xmm(0), Xmm(1));
        a.paddd(Xmm(10), Xmm(3));
        a.psubd(Xmm(2), Xmm(9));
        a.pmulld(Xmm(0), Xmm(1));
        a.pmulld(Xmm(12), Xmm(13));
        a.pminsd(Xmm(3), Xmm(1));
        a.pmaxsd(Xmm(3), Xmm(11));
        a.cvttps2dq(Xmm(0), Xmm(9));
        a.cvtdq2ps(Xmm(10), Xmm(1));
        assert_eq!(
            a.code,
            [
                0x66, 0x0F, 0xFE, 0xC1, 0x66, 0x44, 0x0F, 0xFE, 0xD3, 0x66, 0x41, 0x0F, 0xFA,
                0xD1, 0x66, 0x0F, 0x38, 0x40, 0xC1, 0x66, 0x45, 0x0F, 0x38, 0x40, 0xE5, 0x66,
                0x0F, 0x38, 0x39, 0xD9, 0x66, 0x41, 0x0F, 0x38, 0x3D, 0xDB, 0xF3, 0x41, 0x0F,
                0x5B, 0xC1, 0x44, 0x0F, 0x5B, 0xD1
            ]
        );

        let mut a = Asm::new();
        a.pextrd(Gpr::Rax, Xmm(0), 1);
        a.pextrd(Gpr::Rax, Xmm(12), 3);
        a.insertps_xm(Xmm(0), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0), 1);
        a.insertps_xm(Xmm(13), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0), 3);
        a.extractps_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0), Xmm(0), 1);
        a.extractps_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0), Xmm(14), 3);
        assert_eq!(
            a.code,
            [
                0x66, 0x0F, 0x3A, 0x16, 0xC0, 0x01, 0x66, 0x44, 0x0F, 0x3A, 0x16, 0xE0, 0x03,
                0x66, 0x0F, 0x3A, 0x21, 0x04, 0x81, 0x10, 0x66, 0x44, 0x0F, 0x3A, 0x21, 0x2C,
                0x81, 0x30, 0x66, 0x0F, 0x3A, 0x17, 0x04, 0x81, 0x01, 0x66, 0x44, 0x0F, 0x3A,
                0x17, 0x34, 0x81, 0x03
            ]
        );

        // `paddd xmm9, [rip+0x10]` from its own end, which is at 9.
        let mut a = Asm::new();
        let l = a.new_label();
        a.paddd_rip(Xmm(9), l);
        a.align16();
        a.bind(l);
        a.dwords([0, 1, 2, 3]);
        a.finish();
        assert_eq!(a.code[..9], [0x66, 0x44, 0x0F, 0xFE, 0x0D, 0x07, 0x00, 0x00, 0x00]);
        assert_eq!(a.code[9..16], [0xCC; 7]);
        assert_eq!(a.code[16..], [0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);

        let mut a = Asm::new();
        a.movsxd_rm(Gpr::Rax, Mem::base(Gpr::Rsp, 0x40));
        a.movsxd_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, 0x1C));
        a.cvttss2si(Gpr::Rax, Xmm(0));
        a.cvttss2si(Gpr::Rax, Xmm(9));
        assert_eq!(
            a.code,
            [
                0x48, 0x63, 0x44, 0x24, 0x40, 0x48, 0x63, 0x4C, 0x24, 0x1C, 0xF3, 0x48, 0x0F,
                0x2C, 0xC0, 0xF3, 0x49, 0x0F, 0x2C, 0xC1
            ]
        );
    }

    #[test]
    fn two_address_encodings_match_reference_bytes() {
        // GNU as, `.intel_syntax noprefix`. `r, imm` forms, `ib` and `id`.
        let mut a = Asm::new();
        a.alu_ri(Alu::Add, Gpr::Rax, 0x7f);
        a.alu_ri(Alu::Add, Gpr::R12, -0x80);
        a.alu_ri(Alu::Add, Gpr::R9, 0x12345);
        a.alu_ri(Alu::Sub, Gpr::Rsi, 1);
        a.alu_ri(Alu::And, Gpr::R8, 0x1f);
        a.alu_ri(Alu::And, Gpr::R8, 0xffff);
        a.alu_ri(Alu::Cmp, Gpr::R11, 4);
        a.alu_ri(Alu::Cmp, Gpr::Rdi, -1);
        a.alu_ri(Alu::Or, Gpr::Rbx, 2);
        a.alu_ri(Alu::Xor, Gpr::R15, 0x100);
        a.alu_ri(Alu::Sub, Gpr::Rbp, 0x1000);
        assert_eq!(
            a.code,
            [
                0x48, 0x83, 0xC0, 0x7F, 0x49, 0x83, 0xC4, 0x80, 0x49, 0x81, 0xC1, 0x45, 0x23,
                0x01, 0x00, 0x48, 0x83, 0xEE, 0x01, 0x49, 0x83, 0xE0, 0x1F, 0x49, 0x81, 0xE0,
                0xFF, 0xFF, 0x00, 0x00, 0x49, 0x83, 0xFB, 0x04, 0x48, 0x83, 0xFF, 0xFF, 0x48,
                0x83, 0xCB, 0x02, 0x49, 0x81, 0xF7, 0x00, 0x01, 0x00, 0x00, 0x48, 0x81, 0xED,
                0x00, 0x10, 0x00, 0x00
            ]
        );

        // `imul r, r, imm`, `ib` and `id`.
        let mut a = Asm::new();
        a.imul_rri(Gpr::Rdi, Gpr::R10, 8);
        a.imul_rri(Gpr::R12, Gpr::R12, 0x90);
        a.imul_rri(Gpr::Rax, Gpr::Rbx, -3);
        assert_eq!(
            a.code,
            [
                0x49, 0x6B, 0xFA, 0x08, 0x4D, 0x69, 0xE4, 0x90, 0x00, 0x00, 0x00, 0x48, 0x6B,
                0xC3, 0xFD
            ]
        );

        // `r, [m]` forms and `r, r` ones.
        let mut a = Asm::new();
        a.alu_rm(Alu::Add, Gpr::R12, Mem::base(Gpr::Rsp, 0x30));
        a.alu_rm(Alu::Sub, Gpr::Rax, Mem::base(Gpr::Rsp, 8));
        a.alu_rm(Alu::Cmp, Gpr::R10, Mem::base(Gpr::Rsp, 0));
        a.alu_rm(Alu::And, Gpr::Rdi, Mem::base(Gpr::R13, 0x10));
        a.imul_rm(Gpr::R9, Mem::base(Gpr::Rsp, 0x18));
        a.alu_rr(Alu::Add, Gpr::Rsi, Gpr::R11);
        a.alu_rr(Alu::Cmp, Gpr::R12, Gpr::Rax);
        assert_eq!(
            a.code,
            [
                0x4C, 0x03, 0x64, 0x24, 0x30, 0x48, 0x2B, 0x44, 0x24, 0x08, 0x4C, 0x3B, 0x14,
                0x24, 0x49, 0x23, 0x7D, 0x10, 0x4C, 0x0F, 0xAF, 0x4C, 0x24, 0x18, 0x4C, 0x01,
                0xDE, 0x49, 0x39, 0xC4
            ]
        );

        // An `r8`–`r15` home as the index of an element access.
        let mut a = Asm::new();
        a.movss_xm(Xmm(0), Mem::sib(Gpr::Rcx, Gpr::R12, 4, 0));
        a.movups_xm(Xmm(15), Mem::sib(Gpr::Rcx, Gpr::R9, 4, 0x10));
        a.movups_mx(Mem::sib(Gpr::Rcx, Gpr::R14, 4, 0), Xmm(3));
        a.movss_mx(Mem::sib(Gpr::Rcx, Gpr::R8, 4, 0), Xmm(0));
        assert_eq!(
            a.code,
            [
                0xF3, 0x42, 0x0F, 0x10, 0x04, 0xA1, 0x46, 0x0F, 0x10, 0x7C, 0x89, 0x10, 0x42,
                0x0F, 0x11, 0x1C, 0xB1, 0xF3, 0x42, 0x0F, 0x11, 0x04, 0x81
            ]
        );
    }

    /// 32-bit operands are listed by the names an assembler accepts.
    #[test]
    fn listings_name_32_bit_registers() {
        let mut a = Asm::with_listing();
        a.mov_ri32(Gpr::Rax, 0x3f80_0000);
        a.mov_ri32(Gpr::R9, 0x7fff_ffff);
        a.movd_xr(Xmm(1), Gpr::R8);
        a.pextrd(Gpr::R10, Xmm(3), 2);
        assert_eq!(
            a.code,
            [
                0xB8, 0x00, 0x00, 0x80, 0x3F, 0x41, 0xB9, 0xFF, 0xFF, 0xFF, 0x7F, 0x66, 0x41,
                0x0F, 0x6E, 0xC8, 0x66, 0x41, 0x0F, 0x3A, 0x16, 0xDA, 0x02
            ]
        );
        let text = "  mov eax, 0x3f800000\n  mov r9d, 0x7fffffff\n  movd xmm1, r8d\n  \
                    pextrd r10d, xmm3, 2\n";
        assert_eq!(a.listing().unwrap(), text);
    }

    #[test]
    fn chunk_cost_counts_only_while_on() {
        let mut a = Asm::with_listing();
        let l = a.new_label();
        a.bind(l);
        a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, 8));
        a.count_chunk(true, true);
        a.comment(|| "not an instruction".to_string());
        a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, 8));
        a.count_chunk(true, false);
        a.movups_mx(Mem::base(Gpr::Rsp, 0x20), Xmm(3));
        a.movups_xm(Xmm(3), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0));
        a.addps(Xmm(3), Xmm(4));
        a.count_chunk(false, true);
        a.jcc(Cc::O, l);
        a.call_r(Gpr::Rax);
        a.count_chunk(false, false);
        a.movss_mx(Mem::base(Gpr::Rsp, 0), Xmm(0));
        a.call_r(Gpr::Rax);
        a.count_chunk(true, false);
        a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R15, 0x10));
        assert_eq!(a.chunk, ChunkCost { insts: 5, stack_refs: 2, ctx_refs: 1, calls: 0 });
        assert_eq!(a.steady, ChunkCost { insts: 3, stack_refs: 1, ctx_refs: 0, calls: 1 });
    }

    #[test]
    fn text_is_recorded_only_when_listing() {
        let emit = |mut a: Asm| {
            let l = a.new_label();
            a.comment(|| "c".to_string());
            a.bind(l);
            a.mov_rr(Gpr::Rax, Gpr::Rcx);
            a.jmp(l);
            a.finish();
            (a.code.clone(), a.listing())
        };
        let (plain, none) = emit(Asm::new());
        let (listed, text) = emit(Asm::with_listing());
        assert_eq!(none, None);
        assert_eq!(text.as_deref(), Some("  ; c\nL0:\n  mov rax, rcx\n  jmp L0\n"));
        assert_eq!(plain, listed);
    }

    #[test]
    fn labels_patch_rel32() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.add_ri(Gpr::Rax, 1); // 4 bytes: 48 83 C0 01
        a.jmp(top); // e9 rel32
        a.finish();
        // jmp displacement: target 0, next-inst offset = 4 + 5 = 9 -> -9.
        assert_eq!(&a.code[5..9], &(-9i32).to_le_bytes());
    }

    #[test]
    fn forward_labels_resolve() {
        let mut a = Asm::new();
        let out = a.new_label();
        a.jcc(Cc::E, out); // 6 bytes
        a.add_ri(Gpr::Rax, 1); // 4 bytes
        a.bind(out);
        a.finish();
        assert_eq!(&a.code[2..6], &4i32.to_le_bytes());
    }
}
