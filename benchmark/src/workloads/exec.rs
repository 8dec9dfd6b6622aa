//! `exec_sgemm` and `exec_image`: requests whose work is execution.
//!
//! A request is what a user of a compiled kernel does: call the
//! `kernels::*` constructor (Layer-I build, schedule, `CompileService`),
//! create the machine, `Machine::run` once. Per round and kernel: one
//! cold request (empty memory tier, fresh machine) and `WARM` warm ones
//! (same service entry, same machine). Inputs are refilled and outputs
//! compared with the plain-Rust reference outside the timed interval.

use crate::gen::SplitMix64;
use crate::harness::{timed, Ctx, Recorder, Sample, Workload};
use crate::probes::{self, Acc};
use crate::reference;
use crate::report::{program_suffix, Values};
use crate::trace;
use kernels::image::{ImgSize, IMAGE_BENCHMARKS};
use kernels::Prepared;
use loopvm::Machine;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Kernel {
    name: &'static str,
    build: Box<dyn Fn() -> tiramisu::Result<Prepared>>,
    /// Pristine input buffers, generated from the seed in set-up.
    inputs: Vec<Vec<f32>>,
    expect: Vec<f32>,
    tol: f32,
}

impl Kernel {
    fn fill(&self, prep: &Prepared, m: &mut Machine) {
        for (b, data) in prep.inputs.iter().zip(&self.inputs) {
            m.buffer_mut(*b).copy_from_slice(data);
        }
    }
}

/// Kernels, how many warm requests follow each cold one, and the exact
/// counters of a round.
struct Exec {
    kernels: Vec<Kernel>,
    warm: usize,
    threads: usize,
    seed: u64,
}

impl Exec {
    /// One request. `machine` is `None` for a cold request (a fresh one is
    /// created inside the request and returned) and the kernel's warm
    /// machine otherwise.
    fn request(&self, key: usize, machine: Option<Machine>, rec: &mut Recorder) -> Option<Machine> {
        let k = &self.kernels[key];
        let cold = machine.is_none();
        let t0 = Instant::now();
        let req = trace::enter(trace::REQUEST);
        let (prep, compile_ns) = timed("core.construct", || (k.build)());
        let prep = match prep {
            Ok(p) => p,
            Err(e) => {
                drop(req);
                rec.fail(&format!("{}: {e}", k.name));
                return None;
            }
        };
        let mut m = machine.unwrap_or_else(|| {
            trace::span("loopvm.machine_new", || {
                let mut m = Machine::new(&prep.program);
                m.set_threads(self.threads);
                k.fill(&prep, &mut m);
                m
            })
        });
        let (ran, run_ns) = timed("loopvm.run", || m.run(&prep.program));
        let total_ns = t0.elapsed().as_nanos() as u64;
        drop(req);
        let good = rec.verify(|| reference::close(m.buffer(prep.output), &k.expect, k.tol));
        match ran {
            Ok(()) if good => rec.ok(Sample {
                class: key as u32 * 2 + u32::from(cold),
                key: key as u32,
                cold,
                total_ns,
                compile_ns,
                run_ns,
            }),
            Ok(()) => rec.fail(&format!("{}: output differs from the reference", k.name)),
            Err(e) => rec.fail(&format!("{}: {e}", k.name)),
        }
        // Refill for the next warm request (edgeDetector overwrites its input).
        k.fill(&prep, &mut m);
        Some(m)
    }

    fn kernel_round(&self, key: usize, warm: usize, rec: &mut Recorder) {
        tiramisu::service::global().clear_memory();
        let mut m = self.request(key, None, rec);
        for _ in 0..warm {
            let Some(machine) = m.take() else { return };
            m = self.request(key, Some(machine), rec);
        }
    }

    fn round(&self, round: u64, rec: &mut Recorder) {
        let svc = tiramisu::service::global();
        let before = (svc.stats(), crate::harness::counter_sum("vm.jit.compiles"));
        let mut order: Vec<usize> = (0..self.kernels.len()).collect();
        SplitMix64::fork(self.seed, round).shuffle(&mut order);
        for key in order {
            self.kernel_round(key, self.warm, rec);
        }
        let after = svc.stats();
        rec.round_counters.push(BTreeMap::from([
            (
                "service.compiles".to_string(),
                after.compiles - before.0.compiles,
            ),
            (
                "service.memory_hits".to_string(),
                after.memory_hits - before.0.memory_hits,
            ),
            (
                "vm.jit.compiles".to_string(),
                crate::harness::counter_sum("vm.jit.compiles") - before.1,
            ),
        ]));
    }

    /// Compile-side and tier probes of every program, plus the `core` /
    /// `polyhedral` probes on `function`.
    fn probes(
        &self,
        layers: &mut Values,
        budget: Duration,
        function: &dyn Fn() -> (tiramisu::Function, tiramisu::CpuOptions),
        params: &[(&str, i64)],
    ) -> Result<(), String> {
        // Tier runs dominate; everything else gets small slices.
        let slice = budget / (self.kernels.len() as u32 * 8);
        let mut acc = Acc::default();
        for k in &self.kernels {
            let prep = (k.build)().expect("probe subject compiles");
            probes::program_compile(&mut acc, &prep.program, slice / 4);
            let same = probes::program_tiers(
                layers,
                &mut acc,
                &program_suffix(k.name),
                &prep.program,
                &|m| k.fill(&prep, m),
                self.threads,
                slice * 2,
            );
            if !same {
                return Err(format!(
                    "{}: JIT, bytecode and tree-walk outputs differ",
                    k.name
                ));
            }
        }
        probes::function_compile(&mut acc, function, params, slice / 4);
        acc.finish(layers);
        Ok(())
    }
}

/// `kernels::sgemm::tiramisu_best(N, 32)`: 1 cold + 9 warm per round.
pub struct ExecSgemm(Exec);

/// Matrix side. Sized so a run completes several hundred requests
/// (p95 needs that many) on the 2-core host the bounds were set on.
pub const SGEMM_N: i64 = 192;
const SGEMM_TILE: i64 = 32;

impl Workload for ExecSgemm {
    const NAME: &'static str = "exec_sgemm";

    fn setup(ctx: &Ctx) -> Self {
        let n = SGEMM_N as usize;
        let inputs = reference::inputs(ctx.seed, &[n * n; 3]);
        let expect = reference::sgemm(n, &inputs);
        let w = Exec {
            kernels: vec![Kernel {
                name: "sgemm",
                build: Box::new(|| kernels::sgemm::tiramisu_best(SGEMM_N, SGEMM_TILE)),
                inputs,
                expect,
                tol: 1e-4,
            }],
            warm: 9,
            threads: ctx.threads,
            seed: ctx.seed,
        };
        w.kernel_round(0, 1, &mut Recorder::default());
        ExecSgemm(w)
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        self.0.round(round, rec);
    }

    fn probes(&mut self, layers: &mut Values, budget: Duration) -> Result<(), String> {
        self.0
            .probes(layers, budget, &probes::sgemm_function, &[("N", SGEMM_N)])
    }
}

/// The seven Figure 6 kernels `kernels::image::tiramisu_cpu(name, 768x1024)`:
/// per round, in seeded order, 1 cold + 4 warm each.
pub struct ExecImage(Exec);

/// 3 MB per plane: past the L2 of the hosts this runs on, and small enough
/// that a run sees every kernel a few hundred times.
pub const IMAGE_SIZE: ImgSize = ImgSize { h: 768, w: 1024 };

impl Workload for ExecImage {
    const NAME: &'static str = "exec_image";

    fn setup(ctx: &Ctx) -> Self {
        let (h, w) = (IMAGE_SIZE.h as usize, IMAGE_SIZE.w as usize);
        let kernels = IMAGE_BENCHMARKS
            .iter()
            .map(|&name| {
                let inputs = reference::inputs(ctx.seed, &reference::image_input_sizes(name, h, w));
                let expect = reference::image(name, h, w, &inputs);
                Kernel {
                    name,
                    build: Box::new(move || kernels::image::tiramisu_cpu(name, IMAGE_SIZE)),
                    inputs,
                    expect,
                    tol: 1e-3,
                }
            })
            .collect();
        let w = Exec {
            kernels,
            warm: 4,
            threads: ctx.threads,
            seed: ctx.seed,
        };
        for key in 0..w.kernels.len() {
            w.kernel_round(key, 1, &mut Recorder::default());
        }
        ExecImage(w)
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        self.0.round(round, rec);
    }

    fn probes(&mut self, layers: &mut Values, budget: Duration) -> Result<(), String> {
        self.0.probes(
            layers,
            budget,
            &|| probes::conv2d_function(IMAGE_SIZE),
            &[("H", IMAGE_SIZE.h), ("W", IMAGE_SIZE.w)],
        )
    }
}
