//! Regenerates the paper's tables and figures from the modeled substrates.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig1 table1 fig5 fig6 fig7 profile tiers oracle cache
//! cargo run --release -p bench --bin figures -- check     # perf-regression gate
//! cargo run --release -p bench --bin figures -- overhead  # always-on telemetry cost
//! ```
//!
//! `all` (or no argument) additionally writes `BENCH_figures.json` at the
//! workspace root: a machine-readable snapshot of every figure. Modeled
//! time is deterministic, so the snapshot is stable across hosts and is
//! committed for drift tracking.
//!
//! `check` is the perf-regression gate (run in CI): it recomputes every
//! section and compares it exactly against the committed snapshot. Exits
//! non-zero on any drift. Wall-clock regressions are gated by
//! `benchmark/` (see `BENCHMARK.json`), not here.
//!
//! `profile` runs the Figure 1 sgemm Tiramisu schedule under the
//! bytecode profiler and prints the telemetry report; its deterministic
//! counters (loop trip counts, instruction-class totals) are folded into
//! the snapshot. With `TIRAMISU_PROFILE` set it additionally writes the
//! Chrome trace (`TIRAMISU_PROFILE_OUT` or `figures.trace.json`).

use bench::json::jstr;
use bench::{default_img, fig1_cpu, fig1_gpu, fig5, fig6, fig7, normalized, render_table, table1};

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
        // Bytecode profile of the Figure 1 sgemm Tiramisu schedule.
        // Profiling is forced on through the override (not the
        // environment) so the section behaves identically under `all`;
        // only the deterministic counters — loop trip counts and
        // instruction-class totals — go into the snapshot, never
        // wall-clock spans, so the committed JSON stays stable across
        // hosts.
        telemetry::set_profiling(Some(true));
        let _ = telemetry::drain();
        let prep = kernels::sgemm::tiramisu_best(96, 32).expect("sgemm compile");
        prep.run_wall().expect("sgemm run");
        let tl = telemetry::drain();
        telemetry::set_profiling(None);
        println!("== profile: sgemm CPU (Tiramisu, n=96, tile=32) ==");
        print!("{}", tl.report());
        let mut counters: std::collections::BTreeMap<String, f64> =
            std::collections::BTreeMap::new();
        for e in &tl.events {
            if e.cat != "vm" {
                continue;
            }
            let name = e.name.as_ref();
            if name.ends_with(" iters") || name.starts_with("inst ") {
                if let telemetry::EventKind::Counter { value } = e.kind {
                    *counters.entry(name.to_string()).or_default() += value;
                }
            }
        }
        let pairs: Vec<(String, f64)> = counters.into_iter().collect();
        sections.push(format!("  \"profile_sgemm\": {}", jbars(&pairs)));
        if telemetry::env_flag("TIRAMISU_PROFILE") {
            let path = std::env::var("TIRAMISU_PROFILE_OUT")
                .ok()
                .filter(|p| !p.is_empty())
                .unwrap_or_else(|| "figures.trace.json".to_string());
            tl.write_chrome(&path).expect("write trace");
            eprintln!("wrote {path}");
        }
    }

    if want("tiers") {
        // Executor-tier cross-section: for the Figure 1 sgemm schedule and
        // every Figure 6 image kernel, the deterministic footprint of each
        // tier — bytecode instruction count, and where the native backend
        // exists (x86-64 Linux) the JIT's code size, function count, and
        // deopt-stub counts, broken down by reason. No timing, so the
        // snapshot is host-stable.
        let progs: Vec<(String, loopvm::Program)> = bench::fig_kernels()
            .into_iter()
            .map(|(name, build)| (name, build().expect("kernel compiles").program.clone()))
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut cells: Vec<String> = Vec::new();
        for (name, p) in &progs {
            let bc = loopvm::opt::compile_program(p).expect("bytecode compile");
            let insts = bc.stats().insts;
            let jit = loopvm::jit::compile(&bc);
            let (code, fns, deopts, reasons) = match &jit {
                Some(j) => {
                    let by = j.deopt_reasons();
                    // Compact per-reason listing, only non-zero reasons.
                    let listing: Vec<String> = loopvm::jit::DeoptReason::ALL
                        .iter()
                        .filter(|r| by[r.index()] > 0)
                        .map(|r| format!("{}={}", r.name(), by[r.index()]))
                        .collect();
                    (
                        j.code_len().to_string(),
                        j.n_fns().to_string(),
                        j.n_deopts().to_string(),
                        if listing.is_empty() { "-".to_string() } else { listing.join(" ") },
                    )
                }
                None => ("-".to_string(), "-".to_string(), "-".to_string(), "-".to_string()),
            };
            rows.push(vec![
                name.clone(),
                insts.to_string(),
                code.clone(),
                fns.clone(),
                deopts.clone(),
                reasons,
            ]);
            let jfield = |v: &str| {
                if v == "-" { "null".to_string() } else { v.to_string() }
            };
            let jreasons = match &jit {
                Some(j) => {
                    let by = j.deopt_reasons();
                    let members: Vec<String> = loopvm::jit::DeoptReason::ALL
                        .iter()
                        .map(|r| format!("{}: {}", jstr(r.name()), by[r.index()]))
                        .collect();
                    format!("{{{}}}", members.join(", "))
                }
                None => "null".to_string(),
            };
            cells.push(format!(
                "{}: {{\"bc_insts\": {}, \"jit_code_bytes\": {}, \"jit_fns\": {}, \"jit_deopts\": {}, \"jit_deopt_reasons\": {}}}",
                jstr(name),
                insts,
                jfield(&code),
                jfield(&fns),
                jfield(&deopts),
                jreasons
            ));
        }
        print!(
            "{}",
            render_table(
                "Executor tiers: bytecode and native footprint per kernel",
                &["kernel", "bc insts", "jit bytes", "jit fns", "jit deopts", "deopt reasons"],
                &rows
            )
        );
        sections.push(format!("  \"exec_tiers\": {{{}}}", cells.join(", ")));
    }

    if want("oracle") {
        // What the emptiness oracle did for one cold CPU compile of each
        // kernel: Omega-test queries, how many the pre-solves settled, and
        // the solves spent on integer bounds. Exact counts, so the gate
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

/// The perf-regression gate: every section must match the committed
/// snapshot exactly. Returns the process exit code.
fn run_check() -> i32 {
    let path = snapshot_path();
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf gate: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let committed = match bench::json::parse(&src) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf gate: {} is not valid JSON: {e}", path.display());
            return 1;
        }
    };

    let sections = build_sections(&|_| true);
    let fresh_src = format!("{{\n{}\n}}\n", sections.join(",\n"));
    let fresh = bench::json::parse(&fresh_src).expect("fresh snapshot serializes");

    let failures = bench::gate::compare_deterministic(&committed, &fresh);
    if failures.is_empty() {
        println!("perf gate: OK (deterministic sections match)");
        0
    } else {
        eprintln!("perf gate: FAILED — {} deterministic drift(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        1
    }
}

/// Measures the cost of the always-on observability layer (flight
/// recorder rings + metrics) on the Figure 1 sgemm hot path: interleaved
/// min-of-N with the recorder forced off vs on. Prints the numbers
/// recorded in EXPERIMENTS.md.
fn run_overhead() {
    const RUNS: usize = 40;
    let prep = kernels::sgemm::tiramisu_best(96, 32).expect("sgemm compile");
    prep.run_wall().expect("warmup");
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    // Interleave so frequency scaling / cache state hits both arms alike.
    for _ in 0..RUNS {
        telemetry::flight::set_flight(Some(false));
        off = off.min(prep.run_wall().expect("run").0.as_secs_f64() * 1e6);
        telemetry::flight::set_flight(Some(true));
        on = on.min(prep.run_wall().expect("run").0.as_secs_f64() * 1e6);
    }
    telemetry::flight::set_flight(None);
    let delta = (on - off) / off * 100.0;
    println!("overhead: sgemm(96,32) hot path, min of {RUNS} interleaved runs");
    println!("  flight recorder off: {off:.1}us");
    println!("  flight recorder on:  {on:.1}us");
    println!("  overhead: {delta:+.2}%");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "check") {
        std::process::exit(run_check());
    }
    if args.iter().any(|a| a == "overhead") {
        run_overhead();
        return;
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
        let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
        let path = snapshot_path();
        std::fs::write(&path, json).expect("write BENCH_figures.json");
        eprintln!("wrote {}", path.display());
    }
}
