//! `service_replay`: two closed-loop clients replay a seeded key stream
//! against a private `CompileService` with a disk tier.
//!
//! Every round runs the same script on a fresh cache directory:
//! **fill** (each key requested for the first time: cold compiles, encode
//! and atomic put), **steady** (a Zipf(1.0) stream: memory hits, and disk
//! decodes of what the 16-entry LRU evicted), **restart** (drop the
//! service, reopen it on the same directory, replay: disk decodes only,
//! `compiles == 0` is asserted). A request is the service call alone;
//! every distinct module the stream returned is executed and compared
//! with its reference outside the timed stream.

use crate::gen::{SplitMix64, Zipf};
use crate::harness::{probe_ms, timed, Ctx, Recorder, Sample, Workload};
use crate::probes::{self, Acc};
use crate::reference::{self, close, KERNELS_SEED};
use crate::report::Values;
use crate::stats::median;
use crate::trace::{self, Span};
use kernels::image::ImgSize;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tiramisu::{CompileService, CpuModule, CpuOptions, Function, ServiceConfig, ServiceStats};

const CLIENTS: usize = 2;
const STEADY_REQUESTS: usize = 600;
const RESTART_REQUESTS: usize = 200;

struct Key {
    name: String,
    f: Function,
    params: Vec<(&'static str, i64)>,
    opts: CpuOptions,
    inputs: Vec<&'static str>,
    output: &'static str,
    expect: Arc<Vec<f32>>,
    tol: f32,
}

/// 32 scheduled sgemms and 16 conv2D sizes, from the public Layer-I builders.
fn keys() -> Vec<Key> {
    let mut v = Vec::new();
    for n in [32i64, 48, 64, 96] {
        let expect = Arc::new(kernels::sgemm::reference_result(n));
        for tile in [8, 16] {
            for packing in [true, false] {
                for separate in [true, false] {
                    let (f, opts) = kernels::sgemm::tiramisu_scheduled(tile, packing, separate)
                        .expect("sgemm schedule");
                    v.push(Key {
                        name: format!(
                            "sgemm n={n} tile={tile} packing={packing} separate={separate}"
                        ),
                        f,
                        params: vec![("N", n)],
                        opts,
                        inputs: vec!["A", "B", "Cin"],
                        output: "C",
                        expect: Arc::clone(&expect),
                        tol: 1e-4,
                    });
                }
            }
        }
    }
    for h in [32i64, 48, 64, 96] {
        for w in [48i64, 64, 96, 128] {
            let (f, opts) = probes::conv2d_function(ImgSize { h, w });
            let (hu, wu) = (h as usize, w as usize);
            let ins = reference::inputs(
                KERNELS_SEED,
                &reference::image_input_sizes("conv2D", hu, wu),
            );
            v.push(Key {
                name: format!("conv2D {h}x{w}"),
                f,
                params: vec![("H", h), ("W", w)],
                opts,
                inputs: vec!["img", "w"],
                output: "out",
                expect: Arc::new(reference::image("conv2D", hu, wu, &ins)),
                tol: 1e-3,
            });
        }
    }
    v
}

/// One client's requests in one phase, as key indices.
type Stream = Vec<u32>;

/// What both clients request in each phase; the same in every round.
struct Script {
    fill: Vec<Stream>,
    steady: Vec<Stream>,
    restart: Vec<Stream>,
}

impl Script {
    /// `hot` keys take part; Zipf rank `r` maps to the `r`-th key of a
    /// seeded permutation, so which keys are popular depends on the seed.
    fn new(seed: u64, n_keys: usize, hot: usize, steady: usize, restart: usize) -> Script {
        let mut rng = SplitMix64::new(seed);
        let mut perm: Vec<u32> = (0..n_keys as u32).collect();
        rng.shuffle(&mut perm);
        perm.truncate(hot);
        let zipf = Zipf::new(hot, 1.0);
        let split = |items: Vec<u32>| -> Vec<Stream> {
            (0..CLIENTS)
                .map(|c| items.iter().skip(c).step_by(CLIENTS).copied().collect())
                .collect()
        };
        let mut first_touch = perm.clone();
        rng.shuffle(&mut first_touch);
        let mut draw = |n: usize| split((0..n).map(|_| perm[zipf.sample(&mut rng)]).collect());
        let (steady, restart) = (draw(steady), draw(restart));
        Script {
            fill: split(first_touch),
            steady,
            restart,
        }
    }
}

/// What a client brings back from one phase.
#[derive(Default)]
struct PhaseResult {
    samples: Vec<Sample>,
    errors: Vec<String>,
    spans: Vec<Span>,
    /// Every module a request returned, with its key.
    modules: Vec<(u32, Arc<CpuModule>)>,
}

pub struct ServiceReplay {
    keys: Vec<Key>,
    script: Script,
    root: PathBuf,
    threads: usize,
}

fn config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        memory_capacity: 16,
        cache_dir: Some(dir.to_path_buf()),
        register_metrics: false,
    }
}

impl ServiceReplay {
    /// Runs phase `phase_id` (0 fill, 1 steady, 2 restart) with one thread
    /// per stream. The request of stream `c` at position `i` gets a class
    /// of its own: the script is the same in every round, so that request
    /// does the same work every time.
    fn phase(&self, svc: &CompileService, streams: &[Stream], phase_id: u32) -> PhaseResult {
        let (class_base, cold) = (phase_id << 20, phase_id == 0);
        let barrier = Barrier::new(streams.len());
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0) as u32;
        let results: Vec<PhaseResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, stream)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut out = PhaseResult::default();
                        barrier.wait();
                        for (i, &k) in stream.iter().enumerate() {
                            let key = &self.keys[k as usize];
                            let t0 = Instant::now();
                            let req = trace::enter(trace::REQUEST);
                            let (r, ns) = timed("core.service", || {
                                svc.compile_cpu(&key.f, &key.params, key.opts.clone())
                            });
                            let total_ns = t0.elapsed().as_nanos() as u64;
                            drop(req);
                            match r {
                                Ok(module) => {
                                    out.samples.push(Sample {
                                        class: class_base + c as u32 * longest + i as u32,
                                        key: k,
                                        cold,
                                        total_ns,
                                        compile_ns: ns,
                                        run_ns: 0,
                                    });
                                    out.modules.push((k, module));
                                }
                                Err(e) => out.errors.push(format!("{}: {e}", key.name)),
                            }
                        }
                        out.spans = trace::take_local();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut merged = PhaseResult::default();
        for r in results {
            merged.samples.extend(r.samples);
            merged.errors.extend(r.errors);
            merged.spans.extend(r.spans);
            merged.modules.extend(r.modules);
        }
        merged
    }

    /// Executes a module the service returned and compares its output
    /// with the reference. Returns the run time, `None` on a mismatch.
    fn execute(&self, key: &Key, module: &CpuModule) -> Option<u64> {
        let mut m = module.machine();
        m.set_threads(self.threads);
        for (k, name) in key.inputs.iter().enumerate() {
            let b = module.vm_buffer(name).expect("input buffer");
            kernels::fill_buffer(m.buffer_mut(b), KERNELS_SEED + k as u64);
        }
        // The code the service handed out, not a recompilation of it.
        let t = Instant::now();
        let ran = match (module.jit(), module.bytecode()) {
            (Some(j), _) => m.run_jit(j),
            (None, Some(bc)) => m.run_bytecode(bc),
            (None, None) => m.run(&module.program),
        };
        let ns = t.elapsed().as_nanos() as u64;
        let out = module.vm_buffer(key.output).expect("output buffer");
        (ran.is_ok() && close(m.buffer(out), &key.expect, key.tol)).then_some(ns)
    }

    /// Records a finished phase; executes one module per key. For the
    /// per-key metrics the three phases are the keys (`phase_id`): which
    /// service keys a seed makes popular must not move `compile_ms`.
    fn absorb(
        &self,
        phase_id: u32,
        phase: PhaseResult,
        rec: &mut Recorder,
        seen: &mut HashSet<*const CpuModule>,
        held: &mut Vec<Arc<CpuModule>>,
    ) {
        for e in &phase.errors {
            rec.fail(e);
        }
        rec.spans.extend(phase.spans);
        let mut bad: HashSet<u32> = HashSet::new();
        // One module per key per tier: the first one of this phase that
        // an earlier phase has not already executed.
        let mut done: HashSet<u32> = HashSet::new();
        for (k, module) in phase.modules {
            if done.contains(&k) || !seen.insert(Arc::as_ptr(&module)) {
                continue;
            }
            done.insert(k);
            let key = &self.keys[k as usize];
            match rec.verify(|| self.execute(key, &module)) {
                Some(ns) => rec.runs.push((k, ns)),
                None => {
                    bad.insert(k);
                }
            }
            // Held to the end of the round so an address is never reused.
            held.push(module);
        }
        for s in phase.samples {
            if bad.contains(&s.key) {
                rec.fail(&format!(
                    "{}: output differs from the reference",
                    self.keys[s.key as usize].name
                ));
            } else {
                rec.ok(Sample { key: phase_id, ..s });
            }
        }
    }

    fn run_script(&self, script: &Script, tag: &str, rec: &mut Recorder) {
        let dir = self
            .root
            .join(format!("replay-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut seen, mut held) = (HashSet::new(), Vec::new());
        let svc = CompileService::new(config(&dir));
        if svc.cache_dir().is_none() {
            rec.violation(&format!(
                "cannot open the cache directory {}",
                dir.display()
            ));
            return;
        }
        self.absorb(
            0,
            self.phase(&svc, &script.fill, 0),
            rec,
            &mut seen,
            &mut held,
        );
        let after_fill = svc.stats();
        self.absorb(
            1,
            self.phase(&svc, &script.steady, 1),
            rec,
            &mut seen,
            &mut held,
        );
        let first = svc.stats();
        drop(svc);
        let svc = CompileService::new(config(&dir));
        self.absorb(
            2,
            self.phase(&svc, &script.restart, 2),
            rec,
            &mut seen,
            &mut held,
        );
        let second = svc.stats();
        drop(svc);
        if second.compiles != 0 {
            rec.violation(&format!(
                "restart recompiled {} keys that were on disk",
                second.compiles
            ));
        }
        rec.round_counters.push(BTreeMap::from([
            ("fill.compiles".to_string(), after_fill.compiles),
            (
                "steady.compiles".to_string(),
                first.compiles - after_fill.compiles,
            ),
            ("restart.compiles".to_string(), second.compiles),
            (
                "busy_rejections".to_string(),
                first.busy_rejections + second.busy_rejections,
            ),
            (
                "corrupt_artifacts".to_string(),
                first.corrupt_artifacts + second.corrupt_artifacts,
            ),
        ]));
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            rec.violation(&format!("cannot remove {}: {e}", dir.display()));
        }
    }
}

impl Workload for ServiceReplay {
    const NAME: &'static str = "service_replay";
    const CLIENTS: usize = CLIENTS;

    fn setup(ctx: &Ctx) -> Self {
        let keys = keys();
        let script = Script::new(
            ctx.seed,
            keys.len(),
            keys.len(),
            STEADY_REQUESTS,
            RESTART_REQUESTS,
        );
        let w = ServiceReplay {
            keys,
            script,
            root: ctx.out_dir.clone(),
            threads: ctx.threads,
        };
        let warm = Script::new(ctx.seed, w.keys.len(), 8, 64, 16);
        w.run_script(&warm, "warmup", &mut Recorder::default());
        w
    }

    fn round(&mut self, round: u64, rec: &mut Recorder) {
        self.run_script(&self.script, &round.to_string(), rec);
    }

    fn probes(&mut self, layers: &mut Values, budget: Duration) -> Result<(), String> {
        let dir = self
            .root
            .join(format!("replay-{}-probe", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let call = |svc: &CompileService, key: &Key| -> (f64, ServiceStats) {
            let t = Instant::now();
            svc.compile_cpu(&key.f, &key.params, key.opts.clone())
                .expect("probe request");
            (t.elapsed().as_secs_f64() * 1e3, svc.stats())
        };

        // One client, every key through every tier; each request is
        // classified by the ServiceStats delta around it.
        let svc = CompileService::new(config(&dir));
        let (mut cold, mut memory, mut disk) = (Vec::new(), Vec::new(), Vec::new());
        for key in &self.keys {
            let s0 = svc.stats();
            let (t_cold, s1) = call(&svc, key);
            let (t_mem, s2) = call(&svc, key);
            svc.clear_memory();
            let (t_disk, s3) = call(&svc, key);
            if (s1.compiles, s2.memory_hits, s3.disk_hits)
                != (s0.compiles + 1, s1.memory_hits + 1, s2.disk_hits + 1)
            {
                return Err(format!(
                    "{}: expected compile, memory hit, disk hit",
                    key.name
                ));
            }
            cold.push(t_cold);
            memory.push(t_mem);
            disk.push(t_disk);
        }
        layers.insert("core.service.cold_ms".into(), median(&mut cold));
        layers.insert("core.service.memory_hit_ms".into(), median(&mut memory));
        layers.insert("core.service.disk_hit_ms".into(), median(&mut disk));
        drop(svc);

        // The store as the fill left it.
        let mut sizes: Vec<f64> = std::fs::read_dir(&dir)
            .expect("probe cache directory")
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len() as f64)
            .collect();
        layers.insert("artifacts.files".into(), sizes.len() as f64);
        let typical = median(&mut sizes);
        layers.insert("artifacts.bytes".into(), typical);

        // Restart: open on the populated directory, first request.
        let mut k = 0;
        layers.insert(
            "core.service.restart_ms".into(),
            probe_ms(20, || {
                let svc = CompileService::new(config(&dir));
                call(&svc, &self.keys[k % self.keys.len()]);
                k += 1;
            }),
        );

        // The store alone, with a payload of the typical artifact size.
        let store = artifacts::ArtifactStore::open(dir.join("store-probe")).expect("store opens");
        let payload = vec![0xA5u8; typical as usize];
        let akey = artifacts::ArtifactKey::new(1, 2);
        layers.insert(
            "artifacts.put_ms".into(),
            probe_ms(20, || {
                store.put(akey, &[("module", &payload)]).expect("put")
            }),
        );
        layers.insert(
            "artifacts.get_ms".into(),
            probe_ms(20, || {
                std::hint::black_box(store.get(akey).expect("artifact present"));
            }),
        );
        let _ = std::fs::remove_dir_all(&dir);

        // Exact counters of the whole script under one client.
        let solo = |streams: &[Stream]| vec![streams.concat()];
        let script = Script {
            fill: solo(&self.script.fill),
            steady: solo(&self.script.steady),
            restart: solo(&self.script.restart),
        };
        let svc = CompileService::new(config(&dir));
        let mut errors = self.phase(&svc, &script.fill, 0).errors;
        errors.extend(self.phase(&svc, &script.steady, 1).errors);
        let first = svc.stats();
        let (queue_wait, _) = svc.latency_snapshots();
        drop(svc);
        let svc = CompileService::new(config(&dir));
        errors.extend(self.phase(&svc, &script.restart, 2).errors);
        let second = svc.stats();
        drop(svc);
        if !errors.is_empty() {
            return Err(format!("single-client replay failed: {errors:?}"));
        }
        let requests: usize = [&script.fill, &script.steady, &script.restart]
            .iter()
            .map(|streams| streams[0].len())
            .sum();
        let sum = |f: fn(&ServiceStats) -> u64| (f(&first) + f(&second)) as f64;
        layers.insert("core.service.memory_hits".into(), sum(|s| s.memory_hits));
        layers.insert("core.service.disk_hits".into(), sum(|s| s.disk_hits));
        layers.insert("core.service.compiles".into(), sum(|s| s.compiles));
        layers.insert("core.service.dedup_waits".into(), sum(|s| s.dedup_waits));
        layers.insert(
            "core.service.busy_rejections".into(),
            sum(|s| s.busy_rejections),
        );
        layers.insert("core.service.evictions".into(), sum(|s| s.evictions));
        layers.insert(
            "core.service.corrupt_artifacts".into(),
            sum(|s| s.corrupt_artifacts),
        );
        layers.insert(
            "core.service.hit_ratio".into(),
            (sum(|s| s.memory_hits) + sum(|s| s.disk_hits)) / requests as f64,
        );
        layers.insert(
            "core.service.queue_wait_us_p50".into(),
            queue_wait.p50() as f64,
        );
        layers.insert(
            "core.service.queue_wait_us_p95".into(),
            queue_wait.p95() as f64,
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The codec and a direct compile on a sample of the keys' programs.
        let slice = budget / 256;
        let mut acc = Acc::default();
        for key in self.keys.iter().step_by(6) {
            acc.ms(
                "core.compile_cpu_ms",
                probe_ms(20, || {
                    std::hint::black_box(
                        tiramisu::compile_cpu(&key.f, &key.params, key.opts.clone())
                            .expect("compile"),
                    );
                }),
            );
            let module =
                tiramisu::compile_cpu(&key.f, &key.params, key.opts.clone()).expect("compile");
            probes::program_compile(&mut acc, &module.program, slice);
        }
        acc.finish(layers);
        Ok(())
    }
}
