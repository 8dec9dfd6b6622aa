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
        }
    }
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy)]
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
}

impl Asm {
    pub fn new() -> Asm {
        Asm { code: Vec::new(), text: None, labels: Vec::new(), fixups: Vec::new() }
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

    /// Records one instruction's text; `f` runs only when listing.
    fn line(&mut self, f: impl FnOnce() -> String) {
        if let Some(text) = &mut self.text {
            text.push(format!("  {}", f()));
        }
    }

    /// Emits a comment-only listing line (no code bytes).
    pub fn comment(&mut self, f: impl FnOnce() -> String) {
        self.line(|| format!("; {}", f()));
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
        self.line(|| format!("mov {}d, {bits:#x}", dst.name()));
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

    fn alu_rr(&mut self, opcode: u8, mnem: &str, dst: Gpr, src: Gpr) {
        self.op_rr(None, true, &[opcode], src.idx(), dst.idx());
        self.line(|| format!("{mnem} {}, {}", dst.name(), src.name()));
    }

    pub fn add_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x01, "add", dst, src);
    }

    pub fn sub_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x29, "sub", dst, src);
    }

    pub fn and_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x21, "and", dst, src);
    }

    pub fn or_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x09, "or", dst, src);
    }

    pub fn xor_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x31, "xor", dst, src);
    }

    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) {
        self.alu_rr(0x39, "cmp", a, b);
    }

    pub fn test_rr(&mut self, a: Gpr, b: Gpr) {
        self.op_rr(None, true, &[0x85], b.idx(), a.idx());
        self.line(|| format!("test {}, {}", a.name(), b.name()));
    }

    pub fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.op_rr(None, true, &[0x0F, 0xAF], dst.idx(), src.idx());
        self.line(|| format!("imul {}, {}", dst.name(), src.name()));
    }

    pub fn add_ri(&mut self, dst: Gpr, v: i32) {
        self.rex(true, 0, 0, dst.idx());
        if i8::try_from(v).is_ok() {
            self.b(0x83);
            self.modrm(3, 0, dst.idx());
            self.b(v as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm(3, 0, dst.idx());
            self.d32(v);
        }
        self.line(|| format!("add {}, {v:#x}", dst.name()));
    }

    pub fn sub_ri(&mut self, dst: Gpr, v: i32) {
        self.rex(true, 0, 0, dst.idx());
        if i8::try_from(v).is_ok() {
            self.b(0x83);
            self.modrm(3, 5, dst.idx());
            self.b(v as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm(3, 5, dst.idx());
            self.d32(v);
        }
        self.line(|| format!("sub {}, {v:#x}", dst.name()));
    }

    pub fn cmp_ri(&mut self, a: Gpr, v: i32) {
        self.rex(true, 0, 0, a.idx());
        if i8::try_from(v).is_ok() {
            self.b(0x83);
            self.modrm(3, 7, a.idx());
            self.b(v as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm(3, 7, a.idx());
            self.d32(v);
        }
        self.line(|| format!("cmp {}, {v:#x}", a.name()));
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

    pub fn movss_xx(&mut self, dst: Xmm, src: Xmm) {
        self.op_rr(Some(0xF3), false, &[0x0F, 0x10], dst.0, src.0);
        self.line(|| format!("movss {}, {}", dst.name(), src.name()));
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
        self.line(|| format!("movd {}, {}d", dst.name(), src.name()));
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
