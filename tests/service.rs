//! Integration tests for the compile service: single-flight dedup under
//! concurrency, bit-exactness of cache-served modules against direct
//! compiles, persistence across service restarts,
//! corruption fallback, the compile permits, queue back-pressure, and a
//! compile that panics.

mod common;

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use telemetry::EventKind;
use tiramisu::{
    CompileService, CpuOptions, Error, Expr as E, Function, GpuOptions, ServiceConfig,
};

/// A small 1-D elementwise function; `scale` differentiates programs.
fn scaled(scale: f32) -> Function {
    let mut f = Function::new("scaled", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    f.computation("out", &[i], f.access(input, &[E::iter("i")]) * E::f32(scale)).unwrap();
    f
}

fn fill(buf: &mut [f32], seed: u64) {
    for (k, v) in buf.iter_mut().enumerate() {
        let x = (k as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
        *v = ((x >> 33) % 1009) as f32 / 16.0;
    }
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tiramisu-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cpu_bits(m: &tiramisu::CpuModule) -> Vec<u32> {
    let mut machine = m.machine();
    fill(machine.buffer_mut(m.vm_buffer("in").unwrap()), 3);
    machine.run(&m.program).unwrap();
    machine.buffer(m.vm_buffer("out").unwrap()).iter().map(|v| v.to_bits()).collect()
}

#[test]
fn identical_concurrent_requests_compile_once() {
    let svc = Arc::new(CompileService::new(ServiceConfig::default()));
    let f = scaled(2.0);
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (svc, f, barrier) = (Arc::clone(&svc), f.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap()
            })
        })
        .collect();
    let modules: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for m in &modules {
        assert_eq!(m.program, modules[0].program, "all callers must see the same module");
    }
    let st = svc.stats();
    assert_eq!(st.compiles, 1, "identical requests must be single-flighted: {st:?}");
    assert_eq!(
        st.memory_hits + st.dedup_waits,
        (THREADS - 1) as u64,
        "everyone else piggybacks or hits memory: {st:?}"
    );
    assert_eq!(st.busy_rejections, 0, "{st:?}");
}

#[test]
fn distinct_concurrent_requests_compile_each_once() {
    let svc = Arc::new(CompileService::new(ServiceConfig::default()));
    const DISTINCT: usize = 6;
    const PER: usize = 2;
    let barrier = Arc::new(Barrier::new(DISTINCT * PER));
    let handles: Vec<_> = (0..DISTINCT * PER)
        .map(|t| {
            let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let f = scaled(1.0 + (t % DISTINCT) as f32);
                barrier.wait();
                svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let st = svc.stats();
    assert_eq!(st.compiles, DISTINCT as u64, "compile count == distinct keys: {st:?}");
    assert_eq!(st.memory_hits + st.dedup_waits, (DISTINCT * (PER - 1)) as u64, "{st:?}");
}

/// Serves the same request twice — the second answered by decoding the
/// disk artifact — and checks both against the direct (uncached)
/// compile, bit-for-bit, on the CPU and GPU backends (the distributed
/// module's round trip is in `tests/one_compile.rs`, which also reads the
/// process-wide compile counters).
#[test]
fn cache_served_modules_bit_exact_vs_direct() {
    let dir = temp_store("bitexact");
    let svc = CompileService::new(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });

    // --- CPU (scheduled, so bytecode + buffer maps are non-trivial) ----
    let mut f = scaled(3.0);
    f.split(f.comp_by_name("out").unwrap(), "i", 4, "i0", "i1").unwrap();
    f.vectorize(f.comp_by_name("out").unwrap(), "i1", 4).unwrap();
    let direct = tiramisu::compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
    let first = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
    svc.clear_memory();
    let decoded = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
    assert_eq!(svc.stats().disk_hits, 1, "second request must decode from disk");
    assert_eq!(decoded.program, direct.program);
    assert_eq!(decoded.disasm(), direct.disasm());
    assert_eq!(run_cpu_bits(&decoded), run_cpu_bits(&direct));
    assert_eq!(run_cpu_bits(&first), run_cpu_bits(&direct));

    // --- GPU -----------------------------------------------------------
    let mut g = Function::new("gadd", &["N"]);
    let i = g.var("i", 0, E::param("N"));
    let j = g.var("j", 0, E::param("N"));
    let input = g.input("in", &[i.clone(), j.clone()]).unwrap();
    let out = g
        .computation(
            "out",
            &[i, j],
            g.access(input, &[E::iter("i"), E::iter("j")]) + E::f32(1.0),
        )
        .unwrap();
    g.tile_gpu(out, "i", "j", 4, 4).unwrap();
    let gdirect = tiramisu::compile_gpu(&g, &[("N", 8)], GpuOptions::default()).unwrap();
    svc.compile_gpu(&g, &[("N", 8)], GpuOptions::default()).unwrap();
    svc.clear_memory();
    let gdecoded = svc.compile_gpu(&g, &[("N", 8)], GpuOptions::default()).unwrap();
    assert_eq!(gdecoded.program, gdirect.program);
    assert_eq!(gdecoded.kernels.len(), gdirect.kernels.len());
    assert_eq!(gdecoded.disasm(), gdirect.disasm());
    let run_gpu = |m: &tiramisu::GpuModule| {
        let mut bufs = m.alloc_buffers();
        fill(&mut bufs[m.buffer_index("in").unwrap()], 5);
        m.run(&mut bufs, &gpusim::GpuModel::default()).unwrap();
        bufs[m.buffer_index("out").unwrap()].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(run_gpu(&gdecoded), run_gpu(&gdirect));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_survive_service_restart() {
    let dir = temp_store("restart");
    let config = ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() };
    let f = scaled(7.0);
    let before = {
        let svc = CompileService::new(config.clone());
        let m = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
        assert_eq!(svc.stats().compiles, 1);
        run_cpu_bits(&m)
    }; // service dropped: memory tier gone, disk remains
    let svc = CompileService::new(config);
    let m = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
    let st = svc.stats();
    assert_eq!((st.compiles, st.disk_hits), (0, 1), "restart must be served from disk: {st:?}");
    assert_eq!(run_cpu_bits(&m), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damaged artifacts — truncated files and well-formed files whose module
/// payload is garbage — must read as misses and recompile, never panic.
/// The garbage payload leaves one flight-recorder dump.
#[test]
fn corrupted_artifacts_fall_back_to_recompile() {
    let dir = temp_store("corrupt");
    let config = ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() };
    let f = scaled(9.0);
    let expected = {
        let svc = CompileService::new(config.clone());
        run_cpu_bits(&svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap())
    };
    let artifact_files = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().map(|x| x == "tirart").unwrap_or(false))
            .collect()
    };
    let files = artifact_files();
    assert_eq!(files.len(), 1);

    // Case 1: truncated file — the checksum fails, so the store reports a
    // miss and the service recompiles.
    let bytes = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    {
        let svc = CompileService::new(config.clone());
        let m = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
        let st = svc.stats();
        assert_eq!((st.compiles, st.disk_hits), (1, 0), "{st:?}");
        assert_eq!(run_cpu_bits(&m), expected);
    }

    // Case 2: a checksum-valid artifact whose module payload is garbage —
    // the store hands it over, module decoding fails, and the service
    // counts the corruption and recompiles.
    let stem = files[0].file_stem().unwrap().to_str().unwrap().to_string();
    let (src, cfg) = stem.split_once('-').unwrap();
    let key = artifacts::ArtifactKey::new(
        u64::from_str_radix(src, 16).unwrap(),
        u64::from_str_radix(cfg, 16).unwrap(),
    );
    let store = artifacts::ArtifactStore::open(&dir).unwrap();
    store.put(key, &[("module", b"not a module at all")]).unwrap();
    {
        let svc = CompileService::new(config);
        let m = common::dumps_once("corrupt-artifact", || {
            svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap()
        });
        let st = svc.stats();
        assert_eq!((st.compiles, st.corrupt_artifacts), (1, 1), "{st:?}");
        assert_eq!(run_cpu_bits(&m), expected);
    }
    // The bad artifact was removed and replaced by the recompile: a
    // fresh service now hits disk cleanly.
    let svc = CompileService::new(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
    let st = svc.stats();
    assert_eq!((st.compiles, st.disk_hits, st.corrupt_artifacts), (0, 1, 0), "{st:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One compile permit: eight distinct misses from a barrier all wait for
/// it (64 may wait), none is refused, and their compiles run one at a
/// time on the requesting threads.
#[test]
fn one_permit_serializes_distinct_misses() {
    const THREADS: usize = 8;
    telemetry::set_profiling(Some(true));
    let svc = Arc::new(CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        ..Default::default()
    }));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut f = scaled(200.0 + t as f32);
                f.name = format!("permit{t}");
                barrier.wait();
                svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default())
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap().expect("a miss that may wait is never refused");
    }
    let events = telemetry::drain().events;
    telemetry::set_profiling(None);
    assert_eq!(svc.stats().compiles, THREADS as u64);
    let mut compiles: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.cat == "service" && e.name.starts_with("compile:cpu:permit"))
        .map(|e| match e.kind {
            EventKind::Span { dur_us } => (e.ts_us, e.ts_us + dur_us),
            k => panic!("expected a span, got {k:?}"),
        })
        .collect();
    assert_eq!(compiles.len(), THREADS, "{compiles:?}");
    compiles.sort_unstable();
    for w in compiles.windows(2) {
        assert!(w[0].1 <= w[1].0, "two compiles overlap: {compiles:?}");
    }
}

/// Floods a 1-worker, 1-slot-queue service from a barrier: every request
/// must end as exactly one compile or one `Error::Busy` rejection, with
/// some rejections actually observed under this much pressure.
#[test]
fn back_pressure_rejects_with_busy() {
    const THREADS: usize = 16;
    let svc = Arc::new(CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..Default::default()
    }));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let f = scaled(100.0 + t as f32); // all distinct
                barrier.wait();
                svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default())
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut busy = 0u64;
    for h in handles {
        match h.join().unwrap() {
            Ok(m) => {
                assert!(m.program.n_buffers() > 0);
                ok += 1;
            }
            Err(Error::Busy(msg)) => {
                assert!(msg.contains("queue full"), "unexpected Busy message: {msg}");
                busy += 1;
            }
            Err(e) => panic!("only Ok or Busy are acceptable, got {e}"),
        }
    }
    let st = svc.stats();
    assert_eq!(ok + busy, THREADS as u64);
    assert_eq!(st.compiles, ok, "every accepted request compiles exactly once: {st:?}");
    assert_eq!(st.busy_rejections, busy, "{st:?}");
    assert!(busy > 0, "16 simultaneous requests against a 1-slot queue must reject some");
}

/// A compile that panics on its worker thread (here: a buffer extent
/// `4 * N` that overflows affine evaluation at emit time) used to leave
/// the job slot unfilled and the key in flight: the requester and every
/// piggybacked waiter blocked forever, and the worker was gone. Now all
/// of them get an error and the pool keeps compiling. Runs under a
/// watchdog, since the failure mode is a hang.
#[test]
fn a_panicking_compile_answers_every_waiter_and_keeps_its_worker() {
    let (done, watchdog) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let svc =
            Arc::new(CompileService::new(ServiceConfig { workers: 1, ..Default::default() }));
        // Two identical requests leave a barrier together; repeat (with a
        // fresh key) until the second one is seen to piggyback.
        let mut piggybacked = false;
        for attempt in 0..32 {
            let mut f = scaled(attempt as f32);
            f.buffer("b", &[E::param("N") * E::i64(4)]);
            let dedup_before = svc.stats().dedup_waits;
            let barrier = Arc::new(Barrier::new(2));
            let pair: Vec<_> = (0..2)
                .map(|_| {
                    let (svc, f, barrier) = (Arc::clone(&svc), f.clone(), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        svc.compile_cpu(&f, &[("N", i64::MAX / 2)], CpuOptions::default())
                    })
                })
                .collect();
            for h in pair {
                match h.join().unwrap() {
                    Err(Error::Backend(msg)) => {
                        assert!(msg.starts_with("compile panicked: "), "{msg}")
                    }
                    Err(e) => panic!("expected the panic as a Backend error, got {e}"),
                    Ok(_) => panic!("an overflowing extent compiled"),
                }
            }
            if svc.stats().dedup_waits > dedup_before {
                piggybacked = true;
                break;
            }
        }
        assert!(piggybacked, "no request ever piggybacked on the panicking job");
        // The only worker is still there, and the failed keys are not
        // stuck in flight.
        let m = svc.compile_cpu(&scaled(7.0), &[("N", 16)], CpuOptions::default()).unwrap();
        done.send(run_cpu_bits(&m).len()).unwrap();
    });
    let outputs = watchdog
        .recv_timeout(Duration::from_secs(120))
        .expect("a request hung (or an assertion failed) after a compile panicked");
    assert_eq!(outputs, 16);
    client.join().unwrap();
}
