//! Binary codecs turning compiled backend modules into artifact sections
//! and back.
//!
//! One codec per [`crate::backend`] module type, layered on the loopvm
//! codec ([`loopvm::codec`]) for programs, statements, and bytecode. The
//! encoded form captures everything needed to *run* the module without
//! re-running the pass pipeline: programs, buffer maps, launch geometry,
//! copy plans, rank bodies, and the optimized bytecode. Compile traces
//! are not part of the module payload — they travel as rendered text in
//! a separate artifact section (their pass names are `&'static str` and
//! cannot be reconstructed), so modules decoded from cache report
//! `compile_trace() == None`.
//!
//! Decoding validates every index against the decoded declarations and
//! returns [`WireError`] on any mismatch; the service treats that as a
//! cache miss and recompiles.

use crate::backend::cpu::CpuModule;
use crate::backend::dist::DistModule;
use crate::backend::gpu::GpuModule;
use artifacts::wire::{malformed, Reader, Writer};
use artifacts::WireError;
use gpusim::{Kernel, MemSpace};
use loopvm::codec as vmc;
use loopvm::{BufId, Program};
use mpisim::{DistProgram, DistStmt};
use std::collections::HashMap;

type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Buffer maps are `HashMap`s; encode in sorted order so equal modules
/// produce byte-identical artifacts.
fn encode_buffer_map(map: &HashMap<String, BufId>, w: &mut Writer) {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.usize(entries.len());
    for (name, buf) in entries {
        w.str(name);
        w.u32(buf.index() as u32);
    }
}

fn decode_buffer_map(r: &mut Reader<'_>, p: &Program) -> Result<HashMap<String, BufId>> {
    let n = r.len(2)?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let i = r.u32()? as usize;
        if i >= p.n_buffers() {
            return Err(malformed(format!(
                "buffer-map entry {name} -> {i} out of range ({} buffers)",
                p.n_buffers()
            )));
        }
        map.insert(name, p.nth_buffer(i));
    }
    Ok(map)
}

fn decode_buf(r: &mut Reader<'_>, p: &Program) -> Result<BufId> {
    let i = r.u32()? as usize;
    if i >= p.n_buffers() {
        return Err(malformed(format!("buffer {i} out of range ({})", p.n_buffers())));
    }
    Ok(p.nth_buffer(i))
}

fn encode_copy_plan(plan: &[(String, usize)], w: &mut Writer) {
    w.usize(plan.len());
    for (name, bytes) in plan {
        w.str(name);
        w.usize(*bytes);
    }
}

fn decode_copy_plan(r: &mut Reader<'_>) -> Result<Vec<(String, usize)>> {
    let n = r.len(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.str()?, r.usize()?));
    }
    Ok(out)
}

/// A program's compiled bytecode: `bool` (does it compile?) + the code.
fn encode_compiled(p: &Program, w: &mut Writer) {
    match p.compiled() {
        Ok(code) => {
            w.bool(true);
            vmc::encode_bc(code.bytecode(), w);
        }
        Err(_) => w.bool(false),
    }
}

/// Validates the bytecode [`encode_compiled`] wrote against `p` and
/// installs it as `p`'s compiled form, so running `p` compiles nothing.
fn decode_compiled(r: &mut Reader<'_>, p: &Program) -> Result<()> {
    if r.bool()? {
        vmc::decode_bc_into(r, p)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CPU
// ---------------------------------------------------------------------------

/// Serializes a CPU module into the artifact "module" section.
pub(crate) fn encode_cpu(m: &CpuModule) -> Vec<u8> {
    let mut w = Writer::new();
    vmc::encode_program(&m.program, &mut w);
    encode_buffer_map(m.buffer_map(), &mut w);
    w.usize(m.param_values.len());
    for (k, v) in &m.param_values {
        w.str(k);
        w.i64(*v);
    }
    encode_compiled(&m.program, &mut w);
    w.into_vec()
}

/// Deserializes a CPU module (see [`encode_cpu`]).
pub(crate) fn decode_cpu(bytes: &[u8]) -> Result<CpuModule> {
    let mut r = Reader::new(bytes);
    let program = vmc::decode_program(&mut r)?;
    let buffer_map = decode_buffer_map(&mut r, &program)?;
    let n = r.len(9)?;
    let mut param_values = Vec::with_capacity(n);
    for _ in 0..n {
        param_values.push((r.str()?, r.i64()?));
    }
    decode_compiled(&mut r, &program)?;
    if !r.is_empty() {
        return Err(malformed("trailing bytes after CPU module"));
    }
    Ok(CpuModule::from_parts(program, buffer_map, param_values))
}

// ---------------------------------------------------------------------------
// GPU
// ---------------------------------------------------------------------------

fn space_tag(s: MemSpace) -> u8 {
    match s {
        MemSpace::Global => 0,
        MemSpace::Shared => 1,
        MemSpace::Constant => 2,
        MemSpace::Local => 3,
    }
}

fn decode_space(r: &mut Reader<'_>) -> Result<MemSpace> {
    Ok(match r.u8()? {
        0 => MemSpace::Global,
        1 => MemSpace::Shared,
        2 => MemSpace::Constant,
        3 => MemSpace::Local,
        t => return Err(malformed(format!("unknown MemSpace tag {t}"))),
    })
}

/// One kernel: the declarations once, each phase's statements, geometry,
/// index variables, buffer spaces, then each phase's bytecode.
fn encode_kernel(k: &Kernel, w: &mut Writer) {
    vmc::encode_decls(k.program(), w);
    w.usize(k.phases().len());
    for p in k.phases() {
        vmc::encode_stmts(p.body(), w);
    }
    for v in k.grid.iter().chain(&k.block) {
        w.i64(*v);
    }
    for ov in k.block_vars.iter().chain(&k.thread_vars) {
        match ov {
            Some(v) => {
                w.bool(true);
                vmc::encode_var(*v, w);
            }
            None => w.bool(false),
        }
    }
    w.usize(k.spaces.len());
    for s in &k.spaces {
        w.u8(space_tag(*s));
    }
    for p in k.phases() {
        encode_compiled(p, w);
    }
}

/// Each phase's bytecode is validated against and installed on its phase
/// program, so the kernel's first launch compiles nothing.
fn decode_kernel(r: &mut Reader<'_>) -> Result<Kernel> {
    let decls = vmc::decode_decls(r)?;
    let n_phases = r.len(1)?;
    let mut phases = Vec::with_capacity(n_phases);
    for _ in 0..n_phases {
        phases.push(vmc::decode_stmts(r, &decls)?);
    }
    let grid = [r.i64()?, r.i64()?];
    let block = [r.i64()?, r.i64()?];
    let mut vars = [None, None, None, None];
    for v in &mut vars {
        if r.bool()? {
            *v = Some(vmc::decode_var(r, &decls)?);
        }
    }
    let n_spaces = r.len(1)?;
    let mut spaces = Vec::with_capacity(n_spaces);
    for _ in 0..n_spaces {
        spaces.push(decode_space(r)?);
    }
    let mut k = Kernel::phased(decls, phases, grid, block);
    k.block_vars = [vars[0], vars[1]];
    k.thread_vars = [vars[2], vars[3]];
    k.spaces = spaces;
    for p in k.phases() {
        decode_compiled(r, p)?;
    }
    Ok(k)
}

/// Serializes a GPU module into the artifact "module" section.
pub(crate) fn encode_gpu(m: &GpuModule) -> Vec<u8> {
    let mut w = Writer::new();
    vmc::encode_program(&m.program, &mut w);
    encode_buffer_map(m.buffer_map(), &mut w);
    encode_copy_plan(&m.h2d, &mut w);
    encode_copy_plan(&m.d2h, &mut w);
    w.usize(m.kernels.len());
    for k in &m.kernels {
        encode_kernel(k, &mut w);
    }
    w.into_vec()
}

/// Deserializes a GPU module (see [`encode_gpu`]).
pub(crate) fn decode_gpu(bytes: &[u8]) -> Result<GpuModule> {
    let mut r = Reader::new(bytes);
    let program = vmc::decode_program(&mut r)?;
    let buffer_map = decode_buffer_map(&mut r, &program)?;
    let h2d = decode_copy_plan(&mut r)?;
    let d2h = decode_copy_plan(&mut r)?;
    let n_kernels = r.len(1)?;
    let mut kernels = Vec::with_capacity(n_kernels);
    for _ in 0..n_kernels {
        kernels.push(decode_kernel(&mut r)?);
    }
    if !r.is_empty() {
        return Err(malformed("trailing bytes after GPU module"));
    }
    Ok(GpuModule::from_parts(kernels, program, buffer_map, h2d, d2h))
}

// ---------------------------------------------------------------------------
// Distributed
// ---------------------------------------------------------------------------

fn encode_dist_stmts(body: &[DistStmt], w: &mut Writer) {
    w.usize(body.len());
    for s in body {
        match s {
            DistStmt::Compute(k) => {
                w.u8(0);
                w.usize(*k);
            }
            DistStmt::Send { dest, buf, offset, count, asynchronous } => {
                w.u8(1);
                vmc::encode_expr(dest, w);
                w.u32(buf.index() as u32);
                vmc::encode_expr(offset, w);
                vmc::encode_expr(count, w);
                w.bool(*asynchronous);
            }
            DistStmt::Recv { src, buf, offset, count } => {
                w.u8(2);
                vmc::encode_expr(src, w);
                w.u32(buf.index() as u32);
                vmc::encode_expr(offset, w);
                vmc::encode_expr(count, w);
            }
            DistStmt::If { cond, body } => {
                w.u8(3);
                vmc::encode_expr(cond, w);
                encode_dist_stmts(body, w);
            }
            DistStmt::Barrier => w.u8(4),
        }
    }
}

fn decode_dist_stmts(r: &mut Reader<'_>, p: &Program, n_chunks: usize) -> Result<Vec<DistStmt>> {
    let n = r.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.u8()? {
            0 => {
                let k = r.usize()?;
                if k >= n_chunks {
                    return Err(malformed(format!("compute chunk {k} out of range ({n_chunks})")));
                }
                DistStmt::Compute(k)
            }
            1 => DistStmt::Send {
                dest: vmc::decode_expr(r, p)?,
                buf: decode_buf(r, p)?,
                offset: vmc::decode_expr(r, p)?,
                count: vmc::decode_expr(r, p)?,
                asynchronous: r.bool()?,
            },
            2 => DistStmt::Recv {
                src: vmc::decode_expr(r, p)?,
                buf: decode_buf(r, p)?,
                offset: vmc::decode_expr(r, p)?,
                count: vmc::decode_expr(r, p)?,
            },
            3 => DistStmt::If {
                cond: vmc::decode_expr(r, p)?,
                body: decode_dist_stmts(r, p, n_chunks)?,
            },
            4 => DistStmt::Barrier,
            t => return Err(malformed(format!("unknown DistStmt tag {t}"))),
        });
    }
    Ok(out)
}

/// Serializes a distributed module into the artifact "module" section:
/// declarations, rank variable, preamble, each chunk's own statements,
/// the rank body, the buffer map, then each chunk's bytecode.
pub(crate) fn encode_dist(m: &DistModule) -> Vec<u8> {
    let d = &m.dist;
    let mut w = Writer::new();
    vmc::encode_program(d.program(), &mut w);
    vmc::encode_var(d.rank_var(), &mut w);
    vmc::encode_stmts(d.preamble(), &mut w);
    w.usize(d.chunks().len());
    for k in 0..d.chunks().len() {
        vmc::encode_stmts(d.chunk_stmts(k), &mut w);
    }
    encode_dist_stmts(d.body(), &mut w);
    encode_buffer_map(m.buffer_map(), &mut w);
    for c in d.chunks() {
        encode_compiled(c, &mut w);
    }
    w.into_vec()
}

/// Deserializes a distributed module (see [`encode_dist`]). Each chunk's
/// bytecode is validated against and installed on its chunk program, so
/// the module's first run compiles nothing.
pub(crate) fn decode_dist(bytes: &[u8]) -> Result<DistModule> {
    let mut r = Reader::new(bytes);
    let program = vmc::decode_program(&mut r)?;
    let rank_var = vmc::decode_var(&mut r, &program)?;
    let preamble = vmc::decode_stmts(&mut r, &program)?;
    let n_chunks = r.len(1)?;
    let mut chunks = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        chunks.push(vmc::decode_stmts(&mut r, &program)?);
    }
    let body = decode_dist_stmts(&mut r, &program, n_chunks)?;
    let buffer_map = decode_buffer_map(&mut r, &program)?;
    let dist = DistProgram::new(program, rank_var, preamble, chunks, body);
    for c in dist.chunks() {
        decode_compiled(&mut r, c)?;
    }
    if !r.is_empty() {
        return Err(malformed("trailing bytes after dist module"));
    }
    Ok(DistModule::from_parts(dist, buffer_map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::cpu::{compile, CpuOptions};
    use crate::expr::Expr;
    use crate::function::Function;

    fn sample_module() -> CpuModule {
        let mut f = Function::new("scale", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let input = f.input("in", std::slice::from_ref(&i)).unwrap();
        let c = f
            .computation(
                "out",
                &[i],
                f.access(input, &[Expr::iter("i")]) * Expr::f32(3.0),
            )
            .unwrap();
        f.vectorize(c, "i", 8).unwrap();
        compile(&f, &[("N", 32)], CpuOptions::default()).unwrap()
    }

    #[test]
    fn cpu_module_roundtrips_and_runs_bit_exact() {
        let m = sample_module();
        let bytes = encode_cpu(&m);
        let m2 = decode_cpu(&bytes).unwrap();
        assert_eq!(m.program, m2.program);
        assert_eq!(m.param_values, m2.param_values);
        assert_eq!(m.disasm(), m2.disasm());

        let run = |m: &CpuModule| {
            let mut machine = m.machine();
            let inb = m.vm_buffer("in").unwrap();
            machine.buffer_mut(inb).iter_mut().enumerate().for_each(|(k, v)| *v = k as f32);
            machine.run_bytecode(m.bytecode().unwrap()).unwrap();
            machine.buffer(m.vm_buffer("out").unwrap()).to_vec()
        };
        assert_eq!(run(&m), run(&m2));
    }

    #[test]
    fn cpu_decode_rejects_truncation() {
        let bytes = encode_cpu(&sample_module());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_cpu(&bytes[..cut]).is_err());
        }
    }
}
