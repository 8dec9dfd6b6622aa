//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the one small JSON writer that prints
//! results and `BENCHMARK.json` (reading goes through `bench::json`).

use std::collections::BTreeMap;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "exec_sgemm",
        "compute-bound deep nest with 262 deopt guards: loopvm's JIT/interpreter does >90 % of the work",
    ),
    (
        "exec_image",
        "seven memory-bound Fig. 6 kernels: parallel dispatch, short vector bodies, clamped and non-affine accesses",
    ),
    (
        "compile_sweep",
        "autotuner-style sweep, every request cold: polyhedral analysis and the core pipeline dominate, execution is small",
    ),
    (
        "service_replay",
        "two clients replay a Zipf key stream on a private CompileService: memory hits, disk decodes, cold compiles, restart",
    ),
    (
        "figures_modeled",
        "every bar of Fig. 1/5/6/7 priced under the cost model: tree-walk stats evaluator, gpusim and mpisim stats mode",
    ),
];

/// The eight programs of the executor-tier table, as metric suffixes.
pub const PROGRAMS: [&str; 8] = [
    "sgemm",
    "edgeDetector",
    "cvtColor",
    "conv2D",
    "warpAffine",
    "gaussian",
    "nb",
    "ticket2373",
];

/// Metric suffix of a kernel name (`"ticket #2373"` → `"ticket2373"`).
pub fn program_suffix(kernel: &str) -> String {
    kernel
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect()
}

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u32 = 20;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them. `failed_share` is carried by the result's
/// `failed` / `attempted` fields instead of a metric, because it is 0 on
/// a healthy tree.
pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        e("setup_s", "s", "lower", 0.25),
        e("request_ms_p50", "ms", "lower", 0.25),
        e("request_ms_p95", "ms", "lower", 0.20),
        e("requests_per_s", "1/s", "higher", 0.25),
        e("cold_request_ms", "ms", "lower", 0.20),
        e("compile_ms", "ms", "lower", 0.25),
        e("run_ms", "ms", "lower", 0.25),
        e("peak_rss_mb", "MB", "lower", 0.25),
    ]
}

/// Per-layer metrics, recorded in the traced run only. A layer a workload
/// does not exercise reports 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    let mut ms = |names: &[&str]| {
        for n in names {
            v.push(def(n, "ms", "lower"));
        }
    };
    ms(&[
        "polyhedral.build_ast_ms",
        "core.schedule_ms",
        "core.lower_ms",
        "core.legality_ms",
        "core.compile_cpu_ms",
        "core.compile_gpu_ms",
        "core.compile_dist_ms",
        "core.pass.lower_ms",
        "core.pass.legality_ms",
        "core.pass.astgen_ms",
        "core.pass.tag-resolve_ms",
        "core.pass.emit_ms",
        "core.pass.optimize_ms",
        "core.service.memory_hit_ms",
        "core.service.disk_hit_ms",
        "core.service.cold_ms",
        "core.service.restart_ms",
        "artifacts.put_ms",
        "artifacts.get_ms",
        "loopvm.opt_ms",
        "loopvm.jit.compile_ms",
        "loopvm.codec.encode_ms",
        "loopvm.codec.decode_ms",
        "loopvm.machine_new_ms",
        "loopvm.run_stats_ms",
        "gpusim.compile_phases_ms",
        "gpusim.launch_ms",
        "gpusim.launch_treewalk_ms",
        "mpisim.run_ms",
        "mpisim.run_stats_ms",
        "halide_lite.compile_ms",
        "autosched.auto_schedule_ms",
        "telemetry.metrics_snapshot_ms",
        "harness.request_self_ms",
        "harness.verify_ms",
    ]);
    for tier in ["jit", "bytecode", "treewalk"] {
        for prog in PROGRAMS {
            v.push(def(&format!("loopvm.run_{tier}_ms.{prog}"), "ms", "lower"));
        }
    }
    for n in [
        "polyhedral.ast_nodes",
        "polyhedral.ast_loops",
        "core.legality_deps",
        "core.service.compiles",
        "core.service.busy_rejections",
        "core.service.evictions",
        "core.service.corrupt_artifacts",
        "artifacts.files",
        "loopvm.bc_insts",
        "loopvm.jit.fns",
        "loopvm.jit.deopt_stubs",
        "loopvm.jit.fallbacks",
        "loopvm.jit.deopts_fired",
        "loopvm.bc_cache.misses",
        "loopvm.modeled_cycles",
        "gpusim.modeled_cycles",
        "gpusim.warp_instructions",
        "gpusim.global_transactions",
        "gpusim.bank_conflict_degree",
        "gpusim.divergent_branches",
        "mpisim.modeled_cycles",
        "mpisim.messages",
        "mpisim.retries",
        "harness.spans",
    ] {
        v.push(def(n, "count", "lower"));
    }
    for n in [
        "core.service.memory_hits",
        "core.service.disk_hits",
        "core.service.dedup_waits",
        "loopvm.opt.folded",
        "loopvm.opt.cse_hits",
        "loopvm.opt.hoisted",
        "loopvm.opt.dce_removed",
        "loopvm.bc_cache.hits",
    ] {
        v.push(def(n, "count", "higher"));
    }
    for n in [
        "artifacts.bytes",
        "loopvm.jit.code_bytes",
        "loopvm.codec.bytes",
        "mpisim.bytes_sent",
    ] {
        v.push(def(n, "B", "lower"));
    }
    v.push(def("core.service.queue_wait_us_p50", "us", "lower"));
    v.push(def("core.service.queue_wait_us_p95", "us", "lower"));
    v.push(def("core.service.hit_ratio", "ratio", "higher"));
    v.push(def("telemetry.trace_overhead_share", "ratio", "lower"));
    for g in ["compile", "service", "exec", "model"] {
        v.push(def(&format!("harness.share.{g}"), "ratio", "higher"));
    }
    v
}

/// Names are made of letters, digits, `_`, `.` and `-`, start with a
/// letter or digit, and are at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit the measurement has.
///
/// # Panics
///
/// On a non-finite value: a metric that could not be measured is a bug in
/// the harness, not something to print.
pub fn jnum(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// The result object the driver reads from the last line of stdout:
/// exactly `correct`, `attempted`, `failed`, `metrics`, with every metric
/// of `defs` present.
///
/// # Panics
///
/// When a defined metric was not measured.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(&d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(&d.name),
                jnum(*v),
                jstr(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The contents of `BENCHMARK.json`, generated from the tables above so
/// the file and the binary cannot drift (a unit test compares them).
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", jstr(n), jstr(why)))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        end_to_end()
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    jstr(&d.name),
                    jstr(d.unit),
                    jstr(d.better),
                    jnum(d.bound.expect("end-to-end metrics carry a bound"))
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        per_layer()
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    jstr(&d.name),
                    jstr(d.unit),
                    jstr(d.better)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::{parse, Json};

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = end_to_end().into_iter().chain(per_layer());
        for d in all {
            assert!(valid_name(&d.name), "invalid metric name {:?}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w), "invalid workload name {w:?}");
            assert!(why.len() <= 200 && !why.contains('\n'));
            assert!(seen.insert(w.to_string()), "name {w} used twice");
        }
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    }

    #[test]
    fn name_validity_rules() {
        assert!(valid_name("core.pass.tag-resolve_ms"));
        assert!(valid_name("loopvm.run_jit_ms.ticket2373"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("ticket #2373"));
        assert!(!valid_name(&"x".repeat(65)));
        assert_eq!(program_suffix("ticket #2373"), "ticket2373");
        assert!(PROGRAMS.iter().all(|p| valid_name(p)));
    }

    #[test]
    fn bounds_fit_the_contract() {
        let e2e = end_to_end();
        assert!(e2e
            .iter()
            .all(|d| matches!(d.bound, Some(b) if b > 0.0 && b <= 0.25)));
        let setup = e2e
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
        let doc = parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let defs = vec![def("a.b_ms", "ms", "lower"), def("n", "count", "lower")];
        let values: Values = [
            ("a.b_ms".to_string(), 1.234_567_890_123),
            ("n".to_string(), 42.0),
        ]
        .into();
        let line = result_line(true, 10, 0, &defs, &values);
        let doc = parse(&line).expect("result parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("a.b_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.234_567_890_123)
        );
        assert_eq!(
            m.get("n")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("count")
        );
    }
}
