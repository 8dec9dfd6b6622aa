//! Regenerates the paper's tables and figures from the modeled substrates.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig1 table1 fig5 fig6 fig7 profile tiers oracle cache
//! cargo run --release -p bench --bin figures -- check     # snapshot check
//! cargo run --release -p bench --bin figures -- native    # wall clock, not snapshotted
//! ```
//!
//! `all` (or no argument) additionally writes `BENCH_figures.json` at the
//! workspace root: a machine-readable snapshot of every figure. Modeled
//! time is deterministic, so the snapshot is stable across hosts and is
//! committed for drift tracking.
//!
//! `check` (run in CI) builds the text `all` would write and compares it
//! byte for byte with the committed snapshot. On a difference it names
//! the section and prints the bytes around it, and exits non-zero.
//! Wall-clock regressions are gated by `benchmark/` (see
//! `BENCHMARK.json`), not here.
//!
//! `native` times every CPU column of Figures 1, 5 and 6 on the default
//! tier (the warm p50 of 21 `Machine::run` calls each) and the roofline
//! pair: the JIT's sgemm 192²/32 on one thread against the same loop
//! order compiled by rustc (`bench::roofline`). Wall clock depends on the
//! host, so it is printed only: `native` is not part of `all` and writes
//! nothing.
//!
//! `profile` compiles and runs the Figure 1 sgemm Tiramisu schedule
//! under profiling on the default tier, counts its bytecode's loop trips
//! and instruction classes (`Machine::run_counted`), and prints the
//! telemetry report; the counts are folded into the snapshot. With
//! `TIRAMISU_PROFILE` set it additionally writes the Chrome trace
//! (`TIRAMISU_PROFILE_OUT` or `figures.trace.json`): every thread's
//! events, including the compile passes of the global compile service's
//! cold compiles.

use bench::json::jstr;
use bench::{default_img, fig1_cpu, fig1_gpu, fig5, fig6, fig7, normalized, render_table, table1};
use std::time::Instant;

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn jopt(v: &Option<f64>) -> String {
    match v {
        Some(v) => jnum(*v),
        None => "null".to_string(),
    }
}

fn jbars(pairs: &[(String, f64)]) -> String {
    let cells: Vec<String> =
        pairs.iter().map(|(n, v)| format!("{}: {}", jstr(n), jnum(*v))).collect();
    format!("{{{}}}", cells.join(", "))
}

fn jrows(rows: &[(String, Vec<Option<f64>>)]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|(n, vs)| {
            let vals: Vec<String> = vs.iter().map(jopt).collect();
            format!("{}: [{}]", jstr(n), vals.join(", "))
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

fn snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_figures.json")
}

/// Builds (and prints) every section selected by `want`, returning the
/// snapshot members as `  "key": value` lines. Everything here is modeled
/// or counted, identical on every host.
fn build_sections(want: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut sections: Vec<String> = Vec::new();

    if want("fig1") {
        let bars = fig1_cpu(96, 32);
        let norm = normalized(&bars, "Intel MKL");
        let rows: Vec<Vec<String>> =
            norm.iter().map(|(n, v)| vec![n.clone(), format!("{v:.2}")]).collect();
        print!(
            "{}",
            render_table(
                "Figure 1 (left): sgemm CPU — normalized execution time (MKL = 1)",
                &["framework", "normalized time"],
                &rows
            )
        );
        sections.push(format!("  \"fig1_cpu\": {}", jbars(&norm)));
        let bars = fig1_gpu(64);
        let norm = normalized(&bars, "cuBLAS");
        let rows: Vec<Vec<String>> =
            norm.iter().map(|(n, v)| vec![n.clone(), format!("{v:.2}")]).collect();
        print!(
            "{}",
            render_table(
                "Figure 1 (right): sgemm GPU — normalized execution time (cuBLAS = 1)",
                &["framework", "normalized time"],
                &rows
            )
        );
        sections.push(format!("  \"fig1_gpu\": {}", jbars(&norm)));
    }

    if want("table1") {
        let rows: Vec<Vec<String>> = table1()
            .into_iter()
            .map(|(feat, cols)| {
                let mut r = vec![feat];
                r.extend(cols.iter().map(|c| c.to_string()));
                r
            })
            .collect();
        print!(
            "{}",
            render_table(
                "Table I: comparison between different frameworks",
                &["Feature", "Tiramisu", "AlphaZ", "PENCIL", "Pluto", "Halide"],
                &rows
            )
        );
    }

    if want("fig5") {
        let data = fig5();
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|(name, t, r)| vec![name.clone(), "1.00".to_string(), format!("{:.2}", r / t)])
            .collect();
        print!(
            "{}",
            render_table(
                "Figure 5: deep learning / linear algebra — normalized time (Tiramisu = 1)",
                &["benchmark", "Tiramisu", "Reference/MKL"],
                &rows
            )
        );
        let norm: Vec<(String, f64)> =
            data.iter().map(|(n, t, r)| (n.clone(), r / t)).collect();
        sections.push(format!("  \"fig5_reference_over_tiramisu\": {}", jbars(&norm)));
    }

    if want("fig6") {
        let f = fig6(default_img(), 4);
        let fmt_block = |title: &str, rows: &[(String, Vec<Option<f64>>)]| {
            let header: Vec<&str> = std::iter::once("framework")
                .chain(kernels::image::IMAGE_BENCHMARKS)
                .collect();
            let body: Vec<Vec<String>> = rows
                .iter()
                .map(|(name, cells)| {
                    let mut r = vec![name.clone()];
                    r.extend(cells.iter().map(|c| match c {
                        Some(v) => format!("{v:.2}"),
                        None => "-".to_string(),
                    }));
                    r
                })
                .collect();
            render_table(title, &header, &body)
        };
        print!("{}", fmt_block("Figure 6 (a): single-node multicore (lower is better)", &f.cpu));
        print!("{}", fmt_block("Figure 6 (b): GPU", &f.gpu));
        print!("{}", fmt_block("Figure 6 (c): distributed (4 ranks)", &f.dist));
        let benches: Vec<String> =
            kernels::image::IMAGE_BENCHMARKS.iter().map(|n| jstr(n)).collect();
        sections.push(format!("  \"fig6_benchmarks\": [{}]", benches.join(", ")));
        sections.push(format!("  \"fig6_cpu\": {}", jrows(&f.cpu)));
        sections.push(format!("  \"fig6_gpu\": {}", jrows(&f.gpu)));
        sections.push(format!("  \"fig6_dist\": {}", jrows(&f.dist)));
    }

    if want("fig7") {
        let data = fig7(bench::fig7_img());
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|(name, sp)| {
                let mut r = vec![name.clone()];
                r.extend(sp.iter().map(|v| format!("{v:.2}")));
                r
            })
            .collect();
        print!(
            "{}",
            render_table(
                "Figure 7: distributed strong scaling — speedup over 2 nodes",
                &["benchmark", "2", "4", "8", "16"],
                &rows
            )
        );
        let fig7_rows: Vec<(String, Vec<Option<f64>>)> = data
            .into_iter()
            .map(|(n, sp)| (n, sp.into_iter().map(Some).collect()))
            .collect();
        sections.push(format!("  \"fig7_speedup_over_2_ranks\": {}", jrows(&fig7_rows)));
    }

    if want("profile") {
        // Profile of the Figure 1 sgemm Tiramisu schedule. Profiling is
        // forced on through the override (not the environment) so the
        // section behaves identically under `all`. The kernel runs on the
        // default tier, so the timeline's `vm` spans time the code that
        // runs; its loop trip totals and instruction-class counts come
        // from one counting run of its bytecode, go into the timeline as
        // `vm` counters and, being deterministic, into the snapshot.
        telemetry::set_profiling(Some(true));
        let _ = telemetry::drain();
        let prep = kernels::sgemm::tiramisu_best(96, 32).expect("sgemm compile");
        prep.run_wall().expect("sgemm run");
        let (loops, classes) = prep.machine().run_counted(&prep.program).expect("sgemm count");
        let mut counters: std::collections::BTreeMap<String, f64> =
            std::collections::BTreeMap::new();
        let loops = loops.into_iter().map(|(v, n)| (format!("loop {v} iters"), n));
        let classes = classes.iter().filter(|&(_, n)| n > 0).map(|(c, n)| (format!("inst {c}"), n));
        for (name, n) in loops.chain(classes) {
            telemetry::counter("vm", name.clone(), n as f64);
            *counters.entry(name).or_default() += n as f64;
        }
        let tl = telemetry::drain();
        telemetry::set_profiling(None);
        println!("== profile: sgemm CPU (Tiramisu, n=96, tile=32) ==");
        print!("{}", tl.report());
        let pairs: Vec<(String, f64)> = counters.into_iter().collect();
        sections.push(format!("  \"profile_sgemm\": {}", jbars(&pairs)));
        if telemetry::env_flag("TIRAMISU_PROFILE") {
            if let Some(path) = tl.export("figures.trace.json") {
                eprintln!("wrote {}", path.display());
            }
        }
    }

    if want("tiers") {
        // Executor-tier cross-section: for the Figure 1 sgemm schedule and
        // every Figure 6 image kernel, the deterministic footprint of each
        // tier — bytecode instruction count, and where the native backend
        // exists (x86-64 Linux) the JIT's code size, the instructions of
        // its packed-chunk fast paths, how many of them touch the stack and
        // how many call a helper,
        // the instructions, stack operands and context operands (reads of
        // the buffer table and the pin arrays) of the fast paths and of one
        // iteration of the innermost loops around chunks,
        // the same for the steady copies of chunks whose clamps it tests
        // (count, instructions, stack operands), function count,
        // deopt-stub counts broken down by reason, and per load/store
        // which bounds stage proved it or that it kept its guard, a
        // 64-bit FNV-1a hash of the JIT listing, which pins every emitted
        // instruction, and the `Parallel` dispatches of one run on two
        // threads (entries of a `Parallel` loop with more than one
        // iteration, the same on every tier), and how many dispatches of
        // one two-thread run of the same kernel at the benchmark's size
        // (`bench::fig_kernels_large`) went to the crew, their estimated
        // work reaching the grain (`par_splits`; the small sizes split
        // none). No timing, so the snapshot
        // is host-stable, and a guard or instruction that comes back fails
        // `check`.
        let preps: Vec<(String, kernels::Prepared)> = bench::fig_kernels()
            .into_iter()
            .map(|(name, build)| (name, build().expect("kernel compiles")))
            .collect();
        let dispatches = telemetry::metrics::counter("vm.par.dispatches");
        let splits = telemetry::metrics::counter("vm.par.splits");
        // Counted on the bytecode tier, which every target has; the JIT
        // decides alike.
        let count = |prep: &kernels::Prepared, counter: &telemetry::metrics::Counter| {
            let mut m = prep.machine();
            m.set_threads(2);
            m.set_exec_mode(loopvm::ExecMode::Bytecode);
            let before = counter.get();
            m.run(&prep.program).expect("kernel runs");
            counter.get() - before
        };
        let large = bench::fig_kernels_large();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut cells: Vec<String> = Vec::new();
        for ((name, prep), (_, build_large)) in preps.iter().zip(&large) {
            let p = &prep.program;
            let par_dispatches = count(prep, &dispatches);
            let par_splits = count(&build_large().expect("kernel compiles"), &splits);
            let bc = loopvm::opt::compile_program(p).expect("bytecode compile");
            let insts = bc.stats().insts;
            let jit = loopvm::jit::compile(&bc);
            let fnv = loopvm::jit::listing(&bc)
                .map(|text| format!("{:016x}", artifacts::fnv64(text.as_bytes())));
            // Each JIT column: `-` in the table and `null` in the snapshot
            // where there is no JIT.
            let num = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
            let (code, fns, deopts) = (
                num(jit.as_ref().map(|j| j.code_len())),
                num(jit.as_ref().map(|j| j.n_fns())),
                num(jit.as_ref().map(|j| j.n_deopts())),
            );
            let f = jit.as_ref().map(|j| j.footprint());
            let at = |g: fn(&loopvm::jit::Footprint) -> usize| num(f.as_ref().map(g));
            let chunk = [
                at(|f| f.chunk.insts),
                at(|f| f.chunk.stack_refs),
                at(|f| f.chunk.ctx_refs),
                at(|f| f.chunk.calls),
            ];
            let lp = [at(|f| f.loops.insts), at(|f| f.loops.stack_refs), at(|f| f.loops.ctx_refs)];
            let steady =
                [at(|f| f.steady_chunks), at(|f| f.steady.insts), at(|f| f.steady.stack_refs)];
            let guards =
                [at(|f| f.proven_by_intervals), at(|f| f.proven_by_oracle), at(|f| f.kept_guards)];
            let reasons = f.map(|f| {
                loopvm::jit::DeoptReason::ALL.map(|r| (r.name(), f.deopt_reasons[r.index()]))
            });
            // Compact per-reason listing, only non-zero reasons.
            let listing: Vec<String> = (reasons.iter().flatten())
                .filter(|r| r.1 > 0)
                .map(|(name, n)| format!("{name}={n}"))
                .collect();
            rows.push(vec![
                name.clone(),
                insts.to_string(),
                code.clone(),
                fnv.clone().unwrap_or_else(|| "-".to_string()),
                chunk[0].clone(),
                chunk[1].clone(),
                chunk[2].clone(),
                chunk[3].clone(),
                lp.join("/"),
                steady.join("/"),
                fns.clone(),
                deopts.clone(),
                if listing.is_empty() { "-".to_string() } else { listing.join(" ") },
                guards.join("/"),
                par_dispatches.to_string(),
                par_splits.to_string(),
            ]);
            let jfield = |v: &str| {
                if v == "-" { "null".to_string() } else { v.to_string() }
            };
            let jguards = match f {
                Some(_) => format!(
                    "{{\"interval\": {}, \"oracle\": {}, \"kept\": {}}}",
                    guards[0], guards[1], guards[2]
                ),
                None => "null".to_string(),
            };
            let jreasons = match reasons {
                Some(rs) => {
                    let members: Vec<String> =
                        rs.iter().map(|(name, n)| format!("{}: {n}", jstr(name))).collect();
                    format!("{{{}}}", members.join(", "))
                }
                None => "null".to_string(),
            };
            cells.push(format!(
                "{}: {{\"bc_insts\": {}, \"jit_code_bytes\": {}, \"jit_listing_fnv\": {}, \"jit_chunk_insts\": {}, \"jit_chunk_stack_refs\": {}, \"jit_chunk_ctx_refs\": {}, \"jit_chunk_calls\": {}, \"jit_loop_insts\": {}, \"jit_loop_stack_refs\": {}, \"jit_loop_ctx_refs\": {}, \"jit_steady_chunks\": {}, \"jit_steady_chunk_insts\": {}, \"jit_steady_chunk_stack_refs\": {}, \"jit_fns\": {}, \"jit_deopts\": {}, \"jit_deopt_reasons\": {}, \"jit_guards\": {}, \"par_dispatches\": {}, \"par_splits\": {}}}",
                jstr(name),
                insts,
                jfield(&code),
                fnv.as_deref().map_or("null".to_string(), jstr),
                jfield(&chunk[0]),
                jfield(&chunk[1]),
                jfield(&chunk[2]),
                jfield(&chunk[3]),
                jfield(&lp[0]),
                jfield(&lp[1]),
                jfield(&lp[2]),
                jfield(&steady[0]),
                jfield(&steady[1]),
                jfield(&steady[2]),
                jfield(&fns),
                jfield(&deopts),
                jreasons,
                jguards,
                par_dispatches,
                par_splits
            ));
        }
        print!(
            "{}",
            render_table(
                "Executor tiers: bytecode and native footprint per kernel",
                &[
                    "kernel",
                    "bc insts",
                    "jit bytes",
                    "listing fnv",
                    "chunk insts",
                    "chunk rsp refs",
                    "chunk ctx refs",
                    "chunk calls",
                    "loop insts/rsp/ctx refs",
                    "steady chunks/insts/rsp refs",
                    "jit fns",
                    "jit deopts",
                    "deopt reasons",
                    "guards interval/oracle/kept",
                    "par dispatches",
                    "par splits (large)"
                ],
                &rows
            )
        );
        sections.push(format!("  \"exec_tiers\": {{{}}}", cells.join(", ")));
    }

    if want("oracle") {
        // What the emptiness oracle did for one cold CPU compile of each
        // kernel: Omega-test queries, how many the pre-solves settled, and
        // the solves spent on integer bounds. Exact counts, so `check`
        // fails on any of them moving without a re-bless.
        let counts = bench::oracle_counts();
        let rows: Vec<Vec<String>> = counts
            .iter()
            .map(|(name, c)| {
                vec![
                    name.clone(),
                    c.solves.to_string(),
                    c.presolved.to_string(),
                    c.bound_solves.to_string(),
                    c.exhausted.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                "Emptiness oracle: one cold CPU compile per kernel",
                &["kernel", "solves", "presolved", "bound solves", "exhausted"],
                &rows
            )
        );
        let cells: Vec<String> = counts
            .iter()
            .map(|(name, c)| {
                format!(
                    "{}: {{\"solves\": {}, \"presolved\": {}, \"bound_solves\": {}}}",
                    jstr(name),
                    c.solves,
                    c.presolved,
                    c.bound_solves
                )
            })
            .collect();
        sections.push(format!("  \"oracle\": {{{}}}", cells.join(", ")));
    }

    if want("cache") {
        // Compile-cache demo: a private service with a fresh store
        // directory, exercised cold -> memory hit -> disk hit. Only
        // deterministic event counters go into the snapshot (never wall
        // times), so the committed JSON stays stable across hosts.
        let dir = std::env::temp_dir().join(format!("tiramisu-figures-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = tiramisu::CompileService::new(tiramisu::ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..Default::default()
        });
        let (f, _, _) = kernels::sgemm::layer1(1.0, 1.0);
        let opts = tiramisu::CpuOptions { check_legality: false, ..Default::default() };
        svc.compile_cpu(&f, &[("N", 32)], opts.clone()).expect("cold compile");
        svc.compile_cpu(&f, &[("N", 32)], opts.clone()).expect("memory hit");
        svc.clear_memory();
        svc.compile_cpu(&f, &[("N", 32)], opts).expect("disk hit");
        let st = svc.stats();
        println!("== compile cache: sgemm through cold / memory / disk tiers ==");
        println!(
            "  compiles={} memory_hits={} disk_hits={} corrupt_artifacts={}\n",
            st.compiles, st.memory_hits, st.disk_hits, st.corrupt_artifacts
        );
        sections.push(format!(
            "  \"compile_cache\": {{\"compiles\": {}, \"memory_hits\": {}, \"disk_hits\": {}, \"dedup_waits\": {}, \"busy_rejections\": {}, \"corrupt_artifacts\": {}}}",
            st.compiles, st.memory_hits, st.disk_hits, st.dedup_waits, st.busy_rejections, st.corrupt_artifacts
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    sections
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// Timed `Machine::run` calls per column, after one warm-up run.
const RUNS: usize = 21;
/// Alternating runs of each side of the roofline pair.
const ROOFLINE_RUNS: usize = 41;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Milliseconds that `f` takes.
fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// The warm p50 of [`RUNS`] `Machine::run` calls of `prep`, in ms.
fn warm_p50_ms(prep: &kernels::Prepared) -> f64 {
    let mut m = prep.machine();
    m.run(&prep.program).expect("kernel runs");
    median((0..RUNS).map(|_| time_ms(|| m.run(&prep.program).expect("kernel runs"))).collect())
}

/// `figures -- native`: wall clock of the CPU columns at the snapshot's
/// sizes, and the roofline pair. Printed only.
fn run_native() {
    let ms = |v: f64| format!("{v:.3}");
    let ratio = |v: f64, base: f64| format!("{:.2}", v / base);
    let (n, tile) = (192, 32);
    let roofline = kernels::sgemm::tiramisu_best(n as i64, tile as i64).expect("sgemm compiles");
    let mut m = roofline.machine();
    let tier = m.exec_mode();
    println!("== native: warm p50 of {RUNS} runs per column, {tier:?} tier ==");

    let times: Vec<(String, f64)> =
        bench::fig1_cpu_columns(96, 32).iter().map(|(n, p)| (n.clone(), warm_p50_ms(p))).collect();
    let mkl = times[0].1;
    let rows: Vec<Vec<String>> =
        times.iter().map(|(n, t)| vec![n.clone(), ms(*t), ratio(*t, mkl)]).collect();
    print!(
        "{}",
        render_table(
            "Figure 1 (left), native: sgemm CPU, n=96",
            &["framework", "p50 ms", "vs MKL"],
            &rows
        )
    );

    let rows: Vec<Vec<String>> = bench::fig5_pairs()
        .iter()
        .map(|(n, t, r)| {
            let (t, r) = (warm_p50_ms(t), warm_p50_ms(r));
            vec![n.clone(), ms(t), ms(r), ratio(r, t)]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Figure 5, native",
            &["benchmark", "Tiramisu ms", "Reference/MKL ms", "Reference/Tiramisu"],
            &rows
        )
    );

    let s = default_img();
    let rows: Vec<Vec<String>> = kernels::image::IMAGE_BENCHMARKS
        .iter()
        .map(|name| {
            let (t, h, p) = bench::fig6_cpu_columns(name, s);
            let (t, h, p) = (warm_p50_ms(&t), h.map(|h| warm_p50_ms(&h)), warm_p50_ms(&p));
            let dash = || "-".to_string();
            vec![
                name.to_string(),
                ms(t),
                h.map_or_else(dash, ms),
                ms(p),
                h.map_or_else(dash, |h| ratio(h, t)),
                ratio(p, t),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("Figure 6 (a), native: single-node multicore, {}x{}", s.h, s.w),
            &["kernel", "Tiramisu ms", "Halide ms", "PENCIL ms", "Halide/T", "PENCIL/T"],
            &rows
        )
    );

    // The JIT's sgemm against the same loop order compiled by rustc, on
    // one thread, alternating so both sides see the same host state.
    m.set_threads(1);
    let ins: Vec<Vec<f32>> = roofline.inputs.iter().map(|&b| m.buffer(b).to_vec()).collect();
    let rustc = || std::hint::black_box(bench::roofline::sgemm(n, tile, &ins[0], &ins[1], &ins[2]));
    m.run(&roofline.program).expect("sgemm runs");
    rustc();
    let (mut vm, mut native) = (Vec::new(), Vec::new());
    for _ in 0..ROOFLINE_RUNS {
        vm.push(time_ms(|| m.run(&roofline.program).expect("sgemm runs")));
        native.push(time_ms(|| drop(rustc())));
    }
    let (vm, native) = (median(vm), median(native));
    println!("\n== roofline: sgemm {n}²/{tile}, one thread, {ROOFLINE_RUNS} alternating runs ==");
    println!("  {tier:?} {} ms, rustc {} ms, ratio {:.3}\n", ms(vm), ms(native), vm / native);
}

/// Bytes of context `check` prints on each side of the first difference.
const CONTEXT: usize = 40;

/// The snapshot text `all` writes: one `  "key": value` line per section.
fn snapshot_text(sections: &[String]) -> String {
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

/// Where `fresh` first departs from `committed`: the section key of the
/// line the first differing byte is on and [`CONTEXT`] bytes of each
/// side around it, or `None` when the two are byte-identical.
fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    let (c, f) = (committed.as_bytes(), fresh.as_bytes());
    if c == f {
        return None;
    }
    let at = c.iter().zip(f).position(|(a, b)| a != b).unwrap_or(c.len().min(f.len()));
    let line = c[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let key = c[line..].split(|&b| b == b'"').nth(1).unwrap_or_default();
    let around = |s: &[u8]| {
        String::from_utf8_lossy(&s[at.saturating_sub(CONTEXT)..(at + CONTEXT).min(s.len())])
            .replace('\n', "\\n")
    };
    Some(format!(
        "section `{}` differs at byte {at}\n  committed: {}\n  fresh:     {}",
        String::from_utf8_lossy(key),
        around(c),
        around(f)
    ))
}

/// The snapshot check: the text `all` would write must equal the
/// committed `BENCH_figures.json` byte for byte. Returns the process exit
/// code.
fn run_check() -> i32 {
    let path = snapshot_path();
    let committed = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snapshot check: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    match first_difference(&committed, &snapshot_text(&build_sections(&|_| true))) {
        None => {
            println!("snapshot check: OK ({} is byte-identical)", path.display());
            0
        }
        Some(d) => {
            eprintln!("snapshot check: FAILED, {d}");
            eprintln!("(rewrite the snapshot with `figures -- all` if the change is meant)");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "check") {
        std::process::exit(run_check());
    }

    if args.iter().any(|a| a == "native") {
        run_native();
    }

    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let sections = build_sections(&|k: &str| all || args.iter().any(|a| a == k));

    // Global compile-service counters for this invocation. With
    // `TIRAMISU_CACHE_DIR` set, a second identical run reports its
    // compiles as disk hits; CI greps this line for the warm-cache smoke.
    let st = tiramisu::service::global().stats();
    println!(
        "compile service: compiles={} memory_hits={} disk_hits={} dedup_waits={} busy_rejections={}",
        st.compiles, st.memory_hits, st.disk_hits, st.dedup_waits, st.busy_rejections
    );

    if all {
        let path = snapshot_path();
        std::fs::write(&path, snapshot_text(&sections)).expect("write BENCH_figures.json");
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_passes_and_a_flipped_digit_names_its_section() {
        let committed = std::fs::read_to_string(snapshot_path()).expect("snapshot is committed");
        assert_eq!(first_difference(&committed, &committed), None);
        let line = committed.find("\n  \"exec_tiers\"").expect("exec_tiers section");
        let digit = line + committed[line..].find(|c: char| c.is_ascii_digit()).unwrap();
        let mut edited = committed.clone().into_bytes();
        edited[digit] = if edited[digit] == b'9' { b'0' } else { edited[digit] + 1 };
        let edited = String::from_utf8(edited).unwrap();
        let msg = first_difference(&committed, &edited).expect("one byte differs");
        assert!(msg.starts_with("section `exec_tiers` differs"), "{msg}");
    }
}
