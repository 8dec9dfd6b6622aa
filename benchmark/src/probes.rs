//! Layer probes of the traced run: each layer's public functions called
//! in isolation, from outside, on the programs a workload runs. Timings
//! are medians of up to 20 calls; counts are exact.

use crate::harness::{probe_ms, probe_samples};
use crate::report::Values;
use crate::stats::geomean;
use loopvm::{Machine, Program};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use tiramisu::{CpuOptions, Function};

/// Accumulates probe results over several programs: timings are averaged
/// with the geometric mean, counts are summed.
#[derive(Default)]
pub struct Acc {
    ms: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Acc {
    pub fn ms(&mut self, name: &'static str, v: f64) {
        self.ms.entry(name).or_default().push(v);
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    pub fn finish(self, layers: &mut Values) {
        for (name, vs) in self.ms {
            layers.insert(name.to_string(), geomean(&vs));
        }
        for (name, v) in self.counts {
            layers.insert(name.to_string(), v);
        }
    }
}

/// Times one call of `f` to size the probe, then takes its median.
fn sized_probe(slice: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    probe_ms(probe_samples(t.elapsed(), slice), f)
}

/// `loopvm` compile side on one program: `opt::compile_program`,
/// `jit::compile`, and the artifact codec round trip.
pub fn program_compile(acc: &mut Acc, p: &Program, slice: Duration) {
    acc.ms(
        "loopvm.opt_ms",
        sized_probe(slice, || {
            std::hint::black_box(loopvm::opt::compile_program(p).expect("bytecode compile"));
        }),
    );
    let bc = loopvm::opt::compile_program(p).expect("bytecode compile");
    let st = bc.stats();
    acc.count("loopvm.bc_insts", st.insts as f64);
    acc.count("loopvm.opt.folded", st.folded as f64);
    acc.count("loopvm.opt.cse_hits", st.cse_hits as f64);
    acc.count("loopvm.opt.hoisted", st.hoisted as f64);
    acc.count("loopvm.opt.dce_removed", st.dce_removed as f64);
    match loopvm::jit::compile(&bc) {
        Some(j) => {
            acc.count("loopvm.jit.code_bytes", j.code_len() as f64);
            acc.count("loopvm.jit.fns", j.n_fns() as f64);
            acc.count("loopvm.jit.deopt_stubs", j.n_deopts() as f64);
            acc.count("loopvm.jit.fallbacks", 0.0);
            acc.ms(
                "loopvm.jit.compile_ms",
                sized_probe(slice, || {
                    std::hint::black_box(loopvm::jit::compile(&bc));
                }),
            );
        }
        None => acc.count("loopvm.jit.fallbacks", 1.0),
    }
    let encode = || {
        let mut w = artifacts::wire::Writer::new();
        loopvm::codec::encode_program(p, &mut w);
        loopvm::codec::encode_bc(&bc, &mut w);
        w.into_vec()
    };
    let bytes = encode();
    acc.count("loopvm.codec.bytes", bytes.len() as f64);
    acc.ms(
        "loopvm.codec.encode_ms",
        sized_probe(slice, || {
            std::hint::black_box(encode());
        }),
    );
    acc.ms(
        "loopvm.codec.decode_ms",
        sized_probe(slice, || {
            let mut r = artifacts::wire::Reader::new(&bytes);
            let p2 = loopvm::codec::decode_program(&mut r).expect("program decodes");
            std::hint::black_box(loopvm::codec::decode_bc(&mut r, &p2).expect("bytecode decodes"));
        }),
    );
}

/// The executor-tier row of one program: `run_jit`, `run_bytecode` and
/// `run_tree_walk` on one warm machine, plus machine creation. Returns
/// whether the three tiers produced byte-identical buffers.
pub fn program_tiers(
    layers: &mut Values,
    acc: &mut Acc,
    suffix: &str,
    p: &Program,
    fill: &dyn Fn(&mut Machine),
    threads: usize,
    slice: Duration,
) -> bool {
    let fresh = || {
        let mut m = Machine::new(p);
        m.set_threads(threads);
        fill(&mut m);
        m
    };
    acc.ms(
        "loopvm.machine_new_ms",
        sized_probe(slice, || {
            std::hint::black_box(fresh());
        }),
    );
    let bc = loopvm::opt::compile_program(p).expect("bytecode compile");
    let jit = loopvm::jit::compile(&bc);
    let snapshot = |m: &Machine| -> Vec<Vec<u32>> {
        (0..p.n_buffers())
            .map(|b| {
                m.buffer(p.nth_buffer(b))
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };
    // One run per tier from identical inputs for the equality check; the
    // timed runs then reuse a warm machine (refilled outside the timer).
    let mut outputs = Vec::new();
    let mut tier = |name: &str, run: &mut dyn FnMut(&mut Machine)| {
        let mut m = fresh();
        let t = Instant::now();
        run(&mut m);
        let n = probe_samples(t.elapsed(), slice);
        outputs.push(snapshot(&m));
        let mut v: Vec<f64> = (0..n)
            .map(|_| {
                fill(&mut m);
                let t = Instant::now();
                run(&mut m);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.insert(
            format!("loopvm.run_{name}_ms.{suffix}"),
            crate::stats::median(&mut v),
        );
    };
    if let Some(j) = &jit {
        tier("jit", &mut |m| m.run_jit(j).expect("jit run"));
    }
    tier("bytecode", &mut |m| {
        m.run_bytecode(&bc).expect("bytecode run")
    });
    tier("treewalk", &mut |m| {
        m.run_tree_walk(p).expect("tree-walk run")
    });
    outputs.windows(2).all(|w| w[0] == w[1])
}

fn count_ast(nodes: &[polyhedral::AstNode], loops: &mut u64, all: &mut u64) {
    for n in nodes {
        *all += 1;
        if let polyhedral::AstNode::For { body, .. } = n {
            *loops += 1;
            count_ast(body, loops, all);
        }
    }
}

/// `core` and `polyhedral` on one scheduled function: Layer-I build +
/// scheduling commands, lowering, the legality check, AST generation,
/// and a direct (service-free) `compile_cpu` with its per-pass trace.
pub fn function_compile(
    acc: &mut Acc,
    build: &dyn Fn() -> (Function, CpuOptions),
    params: &[(&str, i64)],
    slice: Duration,
) {
    acc.ms(
        "core.schedule_ms",
        sized_probe(slice, || {
            std::hint::black_box(build());
        }),
    );
    let (f, opts) = build();
    acc.ms(
        "core.lower_ms",
        sized_probe(slice, || {
            std::hint::black_box(tiramisu::lowering::lower(&f).expect("lower"));
        }),
    );
    acc.ms(
        "core.legality_ms",
        sized_probe(slice, || {
            std::hint::black_box(tiramisu::legality::check(&f).expect("legal schedule"));
        }),
    );
    acc.count(
        "core.legality_deps",
        tiramisu::legality::check(&f).expect("legal").len() as f64,
    );

    let mut lowered = tiramisu::lowering::lower(&f).expect("lower");
    let vals: HashMap<String, i64> = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    tiramisu::lowering::specialize_params(&mut lowered, &f, &vals);
    let build_ast =
        || polyhedral::build_ast(&lowered.stmts, &polyhedral::AstBuild::default()).expect("astgen");
    acc.ms(
        "polyhedral.build_ast_ms",
        sized_probe(slice, || {
            std::hint::black_box(build_ast());
        }),
    );
    let (mut loops, mut all) = (0, 0);
    count_ast(&build_ast(), &mut loops, &mut all);
    acc.count("polyhedral.ast_nodes", all as f64);
    acc.count("polyhedral.ast_loops", loops as f64);

    acc.ms(
        "core.compile_cpu_ms",
        sized_probe(slice, || {
            std::hint::black_box(tiramisu::compile_cpu(&f, params, opts.clone()).expect("compile"));
        }),
    );
    // The existing public CompileTrace gives the per-pass split.
    let traced = CpuOptions {
        trace: true,
        ..opts
    };
    let mut passes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..probe_samples(Duration::from_millis(10), slice) {
        let m = tiramisu::compile_cpu(&f, params, traced.clone()).expect("compile");
        for p in &m.compile_trace().expect("trace requested").passes {
            passes
                .entry(p.name)
                .or_default()
                .push(p.wall.as_secs_f64() * 1e3);
        }
    }
    for (pass, metric) in [
        ("lower", "core.pass.lower_ms"),
        ("legality", "core.pass.legality_ms"),
        ("astgen", "core.pass.astgen_ms"),
        ("tag-resolve", "core.pass.tag-resolve_ms"),
        ("emit", "core.pass.emit_ms"),
        ("optimize", "core.pass.optimize_ms"),
    ] {
        if let Some(v) = passes.get_mut(pass) {
            acc.ms(metric, crate::stats::median(v));
        }
    }
}

/// The scheduled sgemm of `kernels::sgemm::tiramisu_best` as a probe
/// subject (the public Layer-I builder).
pub fn sgemm_function() -> (Function, CpuOptions) {
    kernels::sgemm::tiramisu_scheduled(32, true, true).expect("sgemm schedule")
}

/// The conv2D image kernel with the schedule `tiramisu_cpu("conv2D")`
/// applies, from the public Layer-I builder.
pub fn conv2d_function(s: kernels::image::ImgSize) -> (Function, CpuOptions) {
    let (mut f, out) = kernels::image::conv2d_layer1(s);
    f.vectorize(out, "j", 8).expect("vectorize");
    f.parallelize(out, "i").expect("parallelize");
    (f, CpuOptions::default())
}
