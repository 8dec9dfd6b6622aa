//! The GPU backend: Layer IV → `gpusim` SIMT kernels.
//!
//! Loop levels tagged `gpuB`/`gpuT` (via `gpu()` / `tile_gpu()`, Table II)
//! become the launch geometry; the loops below the thread levels become
//! the per-thread kernel body. Partial tiles turn into thread guards
//! (masked lanes — the divergence the simulator prices). Buffer memory
//! spaces follow the Layer III tags (`tag_gpu_shared`, `tag_gpu_constant`,
//! ...), and host↔device copies are accounted per input/output buffer,
//! mirroring the paper's "the reported times are the total execution
//! times (data copy and kernel execution)".
//!
//! The shared AST walk lives in [`crate::backend::lowered`] and the
//! kernel-nest recognition in the crate-private `gpu_extract` module;
//! this module contributes the tag→loop-kind mapping (CPU tags degrade
//! to serial inside kernels), the copy plan, and the module assembly.

use crate::backend::gpu_extract::{subtree_has_gpu_tag, try_extract_kernel};
use crate::backend::lowered::{self, count_vm_stmts, EmitTarget, LoopNode, LoweredModule};
use crate::expr::CompId;
use crate::function::{CompKind, Error, Function, MemSpace as TMemSpace, Result, Tag};
use crate::pipeline::{self, CompileTrace};
use gpusim::{GpuModel, Kernel, LaunchStats, MemSpace};
use loopvm::LoopKind;
use std::collections::HashMap;

/// Options for GPU compilation.
#[derive(Debug, Clone)]
pub struct GpuOptions {
    /// Verify the schedule before code generation (on by default).
    pub check_legality: bool,
    /// Record a [`CompileTrace`], retrievable via
    /// [`GpuModule::compile_trace`]. The `TIRAMISU_TRACE` environment
    /// variable enables this globally.
    pub trace: bool,
}

impl Default for GpuOptions {
    fn default() -> Self {
        GpuOptions { check_legality: true, trace: false }
    }
}

/// A compiled GPU module: kernels over one shared buffer table, plus the
/// copy plan.
#[derive(Debug)]
pub struct GpuModule {
    /// Kernels in execution order.
    pub kernels: Vec<Kernel>,
    /// The shared program (buffers/vars) all kernels refer to.
    pub program: loopvm::Program,
    buffer_map: HashMap<String, loopvm::BufId>,
    /// Buffers copied host→device before execution (name, bytes).
    pub h2d: Vec<(String, usize)>,
    /// Buffers copied device→host after execution (name, bytes).
    pub d2h: Vec<(String, usize)>,
    trace: Option<CompileTrace>,
}

/// Result of running a GPU module: kernel stats plus copy cycles.
#[derive(Debug, Clone, Default)]
pub struct GpuRun {
    /// Per-kernel launch statistics.
    pub kernels: Vec<LaunchStats>,
    /// Modeled copy cycles (host↔device).
    pub copy_cycles: f64,
    /// Total modeled cycles (kernels + copies).
    pub total_cycles: f64,
}

impl GpuModule {
    /// Allocates storage for the module's buffers.
    pub fn alloc_buffers(&self) -> Vec<Vec<f32>> {
        (0..self.program.n_buffers())
            .map(|b| vec![0.0f32; self.program.buffer_info(self.program.nth_buffer(b)).1])
            .collect()
    }

    /// Index of a buffer by Tiramisu name.
    pub fn buffer_index(&self, name: &str) -> Option<usize> {
        self.buffer_map.get(name).map(|b| b.index())
    }

    /// The compile trace, when tracing was enabled.
    pub fn compile_trace(&self) -> Option<&CompileTrace> {
        self.trace.as_ref()
    }

    /// The bytecode of each barrier-delimited phase of kernel `k` — what
    /// [`GpuModule::run`] executes; `None` when there is no such kernel or
    /// a phase does not compile.
    pub fn bytecode(&self, k: usize) -> Option<Vec<&loopvm::BcProgram>> {
        let phases = self.kernels.get(k)?.phases().iter();
        phases.map(|p| p.compiled().ok().map(|c| c.bytecode())).collect()
    }

    /// Disassembles the kernel bytecode (all kernels, all phases).
    pub fn disasm(&self) -> Option<String> {
        lowered::disasm(&self.programs())
    }

    /// Every barrier-delimited phase of every kernel, in launch order.
    pub(crate) fn programs(&self) -> Vec<(String, &loopvm::Program)> {
        let mut out = Vec::new();
        for (k, ker) in self.kernels.iter().enumerate() {
            for (p, phase) in ker.phases().iter().enumerate() {
                out.push((format!("// kernel {k} phase {p}"), phase));
            }
        }
        out
    }

    /// Rebuilds a module from decoded artifact parts ([`crate::service`]):
    /// the pass pipeline does not run. Reconstructed modules carry no
    /// [`CompileTrace`]: an artifact holds the module and nothing else.
    pub(crate) fn from_parts(
        kernels: Vec<Kernel>,
        program: loopvm::Program,
        buffer_map: HashMap<String, loopvm::BufId>,
        h2d: Vec<(String, usize)>,
        d2h: Vec<(String, usize)>,
    ) -> GpuModule {
        GpuModule { kernels, program, buffer_map, h2d, d2h, trace: None }
    }

    /// The Tiramisu-name → VM-buffer map (for the artifact codec).
    pub(crate) fn buffer_map(&self) -> &HashMap<String, loopvm::BufId> {
        &self.buffer_map
    }

    /// Runs all kernels in order on the modeled device.
    ///
    /// # Errors
    ///
    /// VM/type errors and out-of-bounds accesses from the simulator.
    pub fn run(&self, buffers: &mut [Vec<f32>], model: &GpuModel) -> Result<GpuRun> {
        let mut out = GpuRun::default();
        for (_, bytes) in self.h2d.iter().chain(self.d2h.iter()) {
            out.copy_cycles += gpusim::exec::copy_cost(model, *bytes);
        }
        for k in &self.kernels {
            let stats =
                gpusim::launch(k, buffers, model).map_err(|e| Error::Backend(e.to_string()))?;
            out.total_cycles += stats.cycles;
            out.kernels.push(stats);
        }
        out.total_cycles += out.copy_cycles;
        Ok(out)
    }
}

/// Compiles a function for the GPU substrate.
///
/// # Errors
///
/// Legality violations, malformed kernel nests (GPU tags not forming a
/// block/thread prefix), non-constant launch geometry.
pub fn compile(f: &Function, params: &[(&str, i64)], options: GpuOptions) -> Result<GpuModule> {
    let check = options.check_legality;
    let trace = options.trace;
    let mut target = GpuTarget;
    let (mut module, trace) = pipeline::compile_with(f, params, check, trace, &mut target)?;
    module.trace = trace;
    Ok(module)
}

/// The GPU emit target: kernels extracted from `gpuB`/`gpuT` nests, CPU
/// tags degraded to serial loops inside kernel bodies.
struct GpuTarget;

impl EmitTarget for GpuTarget {
    type Module = GpuModule;

    fn name(&self) -> &'static str {
        "gpu"
    }

    fn loop_kind(&self, tag: Option<Tag>) -> Result<LoopKind> {
        Ok(match tag {
            None | Some(Tag::Parallel) | Some(Tag::Vectorize(_)) => LoopKind::Serial,
            Some(Tag::Unroll(u)) => LoopKind::Unroll(u),
            Some(Tag::Distribute) => {
                return Err(Error::Backend(
                    "distribute() cannot appear inside a GPU kernel".into(),
                ))
            }
            Some(Tag::GpuBlock(_)) | Some(Tag::GpuThread(_)) => {
                return Err(Error::Backend(
                    "GPU-tagged loop reached statement conversion (malformed kernel nest)"
                        .into(),
                ))
            }
        })
    }

    fn emit(&mut self, lm: &mut LoweredModule<'_>, roots: &[LoopNode]) -> Result<GpuModule> {
        // Param bindings are re-emitted inside every kernel body (kernel
        // frames are fresh per launch).
        let param_lets = lm.param_lets();
        let mut kernels = Vec::new();
        for node in roots {
            if let Some(kernel) = try_extract_kernel(lm, self, node, &param_lets)? {
                kernels.push(kernel);
            } else if subtree_has_gpu_tag(node) {
                return Err(Error::Backend(
                    "GPU-tagged loops must form the outermost levels of their nest".into(),
                ));
            } else {
                return Err(Error::Backend(
                    "computation outside any GPU kernel (host-side statements are not \
                     supported by the GPU backend; keep the whole pipeline on device)"
                        .into(),
                ));
            }
        }

        // Copy plan: input buffers go host→device; buffers not read by any
        // computation come back device→host.
        let f = lm.f;
        let mut h2d = Vec::new();
        let mut d2h = Vec::new();
        let mut consumed: Vec<u32> = Vec::new();
        for c in &f.comps {
            if let Some(e) = &c.expr {
                for (id, _) in e.accesses() {
                    consumed.push(id.0);
                }
            }
        }
        for (idx, c) in f.comps.iter().enumerate() {
            if c.inlined {
                continue;
            }
            let Some(vm) = lm.buffer_map.get(buffer_name_of(f, idx)).copied() else {
                continue;
            };
            let bytes = lm.program.buffer_info(vm).1 * 4;
            if c.kind == CompKind::Input {
                h2d.push((buffer_name_of(f, idx).to_string(), bytes));
            } else if !consumed.contains(&(idx as u32)) {
                d2h.push((buffer_name_of(f, idx).to_string(), bytes));
            }
        }

        // Buffer spaces from Layer III tags.
        let spaces = buffer_spaces(f, lm);
        for k in &mut kernels {
            k.spaces = spaces.clone();
        }
        Ok(GpuModule {
            kernels,
            program: std::mem::take(&mut lm.program),
            buffer_map: std::mem::take(&mut lm.buffer_map),
            h2d,
            d2h,
            trace: None,
        })
    }

    fn module_stats(&self, module: &GpuModule) -> (usize, String) {
        let mut nodes = 0;
        let mut out = String::new();
        for (k, ker) in module.kernels.iter().enumerate() {
            nodes += ker.phases().iter().map(|p| count_vm_stmts(p.body())).sum::<usize>();
            out.push_str(&format!(
                "// kernel {k}: grid [{}, {}] block [{}, {}]\n",
                ker.grid[0], ker.grid[1], ker.block[0], ker.block[1]
            ));
            out.push_str(&ker.pretty());
        }
        for (n, b) in &module.h2d {
            out.push_str(&format!("// h2d {n}: {b} bytes\n"));
        }
        for (n, b) in &module.d2h {
            out.push_str(&format!("// d2h {n}: {b} bytes\n"));
        }
        (nodes, out)
    }

    fn programs<'m>(&self, module: &'m GpuModule) -> Vec<(String, &'m loopvm::Program)> {
        module.programs()
    }
}

fn buffer_name_of(f: &Function, comp_idx: usize) -> &str {
    let c = &f.comps[comp_idx];
    match c.store_buffer {
        Some(b) => &f.buffers[b.index()].name,
        None => &c.name,
    }
}

fn buffer_spaces(f: &Function, lm: &LoweredModule<'_>) -> Vec<MemSpace> {
    let mut spaces = vec![MemSpace::Global; lm.program.n_buffers()];
    for b in &f.buffers {
        if let Some(vm) = lm.buffer_map.get(&b.name) {
            spaces[vm.index()] = match b.space {
                TMemSpace::Host | TMemSpace::GpuGlobal => MemSpace::Global,
                TMemSpace::GpuShared => MemSpace::Shared,
                TMemSpace::GpuLocal => MemSpace::Local,
                TMemSpace::GpuConstant => MemSpace::Constant,
            };
        }
    }
    spaces
}

/// `C.host_to_device()` (Table II): records an additional buffer in the
/// copy plan (inputs and outputs are planned automatically).
pub fn host_to_device(module: &mut GpuModule, f: &Function, comp: CompId) {
    let name = buffer_name_of(f, comp.index()).to_string();
    if let Some(vm) = module.buffer_map.get(&name) {
        let bytes = module.program.buffer_info(*vm).1 * 4;
        if !module.h2d.iter().any(|(n, _)| n == &name) {
            module.h2d.push((name, bytes));
        }
    }
}

/// `C.device_to_host()` (Table II).
pub fn device_to_host(module: &mut GpuModule, f: &Function, comp: CompId) {
    let name = buffer_name_of(f, comp.index()).to_string();
    if let Some(vm) = module.buffer_map.get(&name) {
        let bytes = module.program.buffer_info(*vm).1 * 4;
        if !module.d2h.iter().any(|(n, _)| n == &name) {
            module.d2h.push((name, bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::expr::Expr as E;

    /// Element-wise scale on GPU: out(i, j) = 2 * in(i, j), tiled to
    /// blocks/threads.
    fn build_scale() -> Function {
        let mut f = Function::new("scale", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let j = f.var("j", 0, Expr::param("N"));
        let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
        let out = f
            .computation(
                "out",
                &[i.clone(), j.clone()],
                f.access(input, &[Expr::iter("i"), Expr::iter("j")]) * Expr::f32(2.0),
            )
            .unwrap();
        f.tile_gpu(out, "i", "j", 8, 8).unwrap();
        f
    }

    #[test]
    fn gpu_scale_runs_functionally() {
        let n = 32i64;
        let f = build_scale();
        let module = compile(&f, &[("N", n)], GpuOptions::default()).unwrap();
        assert_eq!(module.kernels.len(), 1);
        let k = &module.kernels[0];
        assert_eq!(k.grid, [4, 4]);
        assert_eq!(k.block, [8, 8]);
        let mut bufs = module.alloc_buffers();
        let in_idx = module.buffer_index("in").unwrap();
        for (p, v) in bufs[in_idx].iter_mut().enumerate() {
            *v = p as f32;
        }
        let run = module.run(&mut bufs, &GpuModel::default()).unwrap();
        let out_idx = module.buffer_index("out").unwrap();
        assert_eq!(bufs[out_idx][5], 10.0);
        assert_eq!(bufs[out_idx][1023], 2046.0);
        assert!(run.total_cycles > 0.0);
        assert!(!module.h2d.is_empty());
        assert!(!module.d2h.is_empty());
    }

    #[test]
    fn partial_tiles_guard_and_diverge() {
        // N = 20 with 8x8 tiles: boundary blocks have masked lanes.
        let n = 20i64;
        let f = build_scale();
        let module = compile(&f, &[("N", n)], GpuOptions::default()).unwrap();
        let k = &module.kernels[0];
        assert_eq!(k.grid, [3, 3]);
        assert_eq!(k.block, [8, 8]);
        let mut bufs = module.alloc_buffers();
        let in_idx = module.buffer_index("in").unwrap();
        for (p, v) in bufs[in_idx].iter_mut().enumerate() {
            *v = 1.0 + p as f32;
        }
        let run = module.run(&mut bufs, &GpuModel::default()).unwrap();
        let out_idx = module.buffer_index("out").unwrap();
        for (p, &v) in bufs[out_idx].iter().enumerate().take((n * n) as usize) {
            assert_eq!(v, 2.0 * (1.0 + p as f32), "at {p}");
        }
        assert!(run.kernels[0].divergent_branches > 0);
    }

    #[test]
    fn soa_layout_coalesces_better_than_aos() {
        // x(i, c) over 3 channels; AOS stores at [i*3 + c], SOA at
        // [c*N + i]. Threads map to i; SOA needs fewer global
        // transactions (the paper's store_in({c,i,j}) trick, Fig. 3b).
        let n = 64i64;
        let build = |soa: bool| {
            let mut f = Function::new("layout", &["N"]);
            let i = f.var("i", 0, Expr::param("N"));
            let c = f.var("c", 0, 3);
            let input = f.input("in", &[i.clone(), c.clone()]).unwrap();
            let out = f
                .computation(
                    "out",
                    &[i.clone(), c.clone()],
                    f.access(input, &[Expr::iter("i"), Expr::iter("c")]) + Expr::f32(1.0),
                )
                .unwrap();
            if soa {
                let buf = f.buffer("outb", &[Expr::i64(3), Expr::param("N")]);
                f.store_in(out, buf, &[Expr::iter("c"), Expr::iter("i")]);
                let inbuf = f.buffer("inb", &[Expr::i64(3), Expr::param("N")]);
                f.store_in(input, inbuf, &[Expr::iter("c"), Expr::iter("i")]);
            }
            f.split(out, "i", 32, "i0", "i1").unwrap();
            f.tag_level_gpu_block(out, "i0", 0).unwrap();
            f.tag_level_gpu_thread(out, "i1", 0).unwrap();
            compile(&f, &[("N", n)], GpuOptions::default()).unwrap()
        };
        let aos = build(false);
        let soa = build(true);
        let mut ba = aos.alloc_buffers();
        let mut bs = soa.alloc_buffers();
        let ra = aos.run(&mut ba, &GpuModel::default()).unwrap();
        let rs = soa.run(&mut bs, &GpuModel::default()).unwrap();
        assert!(
            rs.kernels[0].global_transactions < ra.kernels[0].global_transactions,
            "SOA {} vs AOS {}",
            rs.kernels[0].global_transactions,
            ra.kernels[0].global_transactions
        );
    }

    /// Blur reading a 3-wide window of the input, with the input tile
    /// cached in shared memory per block.
    fn blur_cached(_n: i64, cache: bool) -> (GpuModule, bool) {
        let mut f = Function::new("blurc", &["N"]);
        let i = f.var("i", 0, E::param("N"));
        let j = f.var("j", 0, E::param("N"));
        let input = f
            .input(
                "in",
                &[
                    f.var("i", 0, E::param("N")),
                    f.var("j", 0, E::param("N") + E::i64(2)),
                ],
            )
            .unwrap();
        let at = |dj: i64| {
            E::Access(input, vec![E::iter("i"), E::iter("j") + E::i64(dj)])
        };
        let out = f
            .computation("out", &[i, j], (at(0) + at(1) + at(2)) / E::f32(3.0))
            .unwrap();
        f.tile_gpu(out, "i", "j", 8, 8).unwrap();
        if cache {
            f.cache_shared_at(input, out, "jB").unwrap();
        }
        let module = compile(&f, &[("N", 32)], GpuOptions::default()).unwrap();
        (module, cache)
    }

    #[test]
    fn cache_shared_at_functional_and_cheaper() {
        let run = |cache: bool| {
            let (module, _) = blur_cached(32, cache);
            let mut bufs = module.alloc_buffers();
            let idx = module.buffer_index("in").unwrap();
            for (k, v) in bufs[idx].iter_mut().enumerate() {
                *v = (k % 97) as f32;
            }
            let r = module.run(&mut bufs, &GpuModel::default()).unwrap();
            let out = module.buffer_index("out").unwrap();
            (r, bufs[out].clone(), module)
        };
        let (plain, expect, _) = run(false);
        let (cached, got, module) = run(true);
        // Same values.
        for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < 1e-4, "mismatch at {k}: {g} vs {e}");
        }
        // The cached version goes through shared memory...
        assert!(cached.kernels[0].shared_accesses > 0, "no shared traffic");
        // ...with fewer global transactions (each element fetched once per
        // block instead of up to 3 times)...
        assert!(
            cached.kernels[0].global_transactions < plain.kernels[0].global_transactions,
            "cached {} vs plain {} global transactions",
            cached.kernels[0].global_transactions,
            plain.kernels[0].global_transactions
        );
        // ...and the kernel has a barrier between copy and compute phases.
        assert!(module.kernels[0].phases().len() > 1, "no barrier phase");
    }

    #[test]
    fn cache_local_at_compiles_and_runs() {
        let mut f = Function::new("lc", &["N"]);
        let i = f.var("i", 0, E::param("N"));
        let j = f.var("j", 0, E::param("N"));
        let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
        let out = f
            .computation(
                "out",
                &[i, j],
                f.access(input, &[E::iter("i"), E::iter("j")]) * E::f32(2.0),
            )
            .unwrap();
        f.tile_gpu(out, "i", "j", 8, 8).unwrap();
        f.cache_local_at(input, out, "jB").unwrap();
        let module = compile(&f, &[("N", 16)], GpuOptions::default()).unwrap();
        let mut bufs = module.alloc_buffers();
        let idx = module.buffer_index("in").unwrap();
        for (k, v) in bufs[idx].iter_mut().enumerate() {
            *v = k as f32;
        }
        module.run(&mut bufs, &GpuModel::default()).unwrap();
        let out_idx = module.buffer_index("out").unwrap();
        assert_eq!(bufs[out_idx][17], 34.0);
    }

    #[test]
    fn constant_memory_reduces_cycles() {
        // out(i) = in(i) * w(0) — w in constant vs global memory (the
        // conv2D/gaussian win over Halide in Fig. 6).
        let n = 256i64;
        let build = |constant: bool| {
            let mut f = Function::new("w", &["N"]);
            let i = f.var("i", 0, Expr::param("N"));
            let wdom = f.var("k", 0, 16);
            let input = f.input("in", std::slice::from_ref(&i)).unwrap();
            let w = f.input("w", std::slice::from_ref(&wdom)).unwrap();
            let out = f
                .computation(
                    "out",
                    std::slice::from_ref(&i),
                    f.access(input, &[Expr::iter("i")]) * f.access(w, &[Expr::i64(0)]),
                )
                .unwrap();
            if constant {
                let wb = f.buffer("wb", &[Expr::i64(16)]);
                f.tag_buffer(wb, crate::function::MemSpace::GpuConstant);
                f.store_in(w, wb, &[Expr::iter("k")]);
            }
            f.split(out, "i", 32, "i0", "i1").unwrap();
            f.tag_level_gpu_block(out, "i0", 0).unwrap();
            f.tag_level_gpu_thread(out, "i1", 0).unwrap();
            compile(&f, &[("N", n)], GpuOptions::default()).unwrap()
        };
        let global = build(false);
        let constant = build(true);
        let mut bg = global.alloc_buffers();
        let mut bc = constant.alloc_buffers();
        let rg = global.run(&mut bg, &GpuModel::default()).unwrap();
        let rc = constant.run(&mut bc, &GpuModel::default()).unwrap();
        assert!(
            rc.kernels[0].cycles < rg.kernels[0].cycles,
            "constant {} vs global {}",
            rc.kernels[0].cycles,
            rg.kernels[0].cycles
        );
    }
}
