//! `perf run` and `perf selfcheck`: every workload in a child process of
//! its own, one after the other, so that peak memory, set-up time and the
//! process-global `tiramisu::service::global()` are per workload.

use crate::report::{self, jnum, jstr, MetricDef, WORKLOADS};
use crate::stats::quartiles;
use crate::trace::{self, Group};
use crate::Options;
use bench::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run's parsed result line.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and parses the last line it prints.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let doc = bench::json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("no `{k}`"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no `metrics`")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

fn selected(o: &Options) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| o.workloads.is_empty() || o.workloads.iter().any(|w| w == n))
        .collect()
}

fn print_metrics(defs: &[MetricDef], run: &Run, skip_zero: bool) {
    for d in defs {
        let v = run.metrics.get(&d.name).copied().unwrap_or(f64::NAN);
        if !(skip_zero && v == 0.0) {
            println!("  {:<40} {:>18.6} {}", d.name, v, d.unit);
        }
    }
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn run_json(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), jnum(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        jnum(run.attempted),
        jnum(run.failed),
        metrics.join(", ")
    )
}

/// `perf run`: every selected workload untraced, then (with `--trace`)
/// traced; prints every metric by name with its unit and writes
/// `results.json` next to the traces.
pub fn run(o: &Options) -> ExitCode {
    let seconds = if o.quick { 0.0 } else { o.seconds };
    println!(
        "# perf run seed={} seconds={seconds} {}",
        o.seed,
        crate::host_line()
    );
    let mut ok = true;
    let mut rows = Vec::new();
    let mut shares: BTreeMap<&str, BTreeMap<Group, f64>> = BTreeMap::new();
    for w in selected(o) {
        let mut row = Vec::new();
        for traced in [false, true] {
            if traced && !o.trace {
                continue;
            }
            println!(
                "== {w} ({})",
                if traced {
                    "traced: per-layer"
                } else {
                    "end to end"
                }
            );
            match child(w, o.seed, seconds, traced) {
                Ok(r) => {
                    let defs = if traced {
                        report::per_layer()
                    } else {
                        report::end_to_end()
                    };
                    print_metrics(&defs, &r, traced);
                    println!(
                        "  requests attempted {} failed {} failed_share {}",
                        r.attempted,
                        r.failed,
                        r.failed / r.attempted.max(1.0)
                    );
                    ok &= r.correct;
                    if traced {
                        let s: BTreeMap<Group, f64> = Group::ALL
                            .iter()
                            .filter_map(|g| {
                                Some((*g, *r.metrics.get(&format!("harness.share.{}", g.name()))?))
                            })
                            .collect();
                        if let Err(e) = trace::check_share(w, &s) {
                            println!("  SHARE MISSED: {e}");
                            ok = false;
                        }
                        shares.insert(w, s);
                    }
                    row.push(format!(
                        "{}: {}",
                        jstr(if traced { "per_layer" } else { "end_to_end" }),
                        run_json(&r)
                    ));
                }
                Err(e) => {
                    println!("  ERROR: {e}");
                    ok = false;
                }
            }
        }
        rows.push(format!("    {}: {{{}}}", jstr(w), row.join(", ")));
    }
    // A workload's dominant group must be small (< 10 %) on some other
    // workload, or the two workloads would not separate that layer.
    if shares.len() > 1 {
        for w in shares.keys() {
            let Some((group, _)) = trace::expected_share(w) else {
                continue;
            };
            let small_elsewhere = shares
                .iter()
                .any(|(other, s)| other != w && s.get(&group).copied().unwrap_or(0.0) < 0.10);
            if !small_elsewhere {
                println!(
                    "SHARE MISSED: no other workload keeps `{}` below 10 %",
                    group.name()
                );
                ok = false;
            }
        }
    }
    let doc = format!(
        "{{\n  \"git\": {},\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        jstr(&git_revision()),
        jstr(&crate::host_line()),
        o.seed,
        jnum(seconds),
        rows.join(",\n")
    );
    let dir = crate::out_dir();
    let path = dir.join("results.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            println!("# cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(d: &MetricDef, first: f64, second: f64) -> f64 {
    if d.better == "lower" {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// `perf selfcheck`: the untraced suite twice, interleaved (A1 B1 ... A2
/// B2 ...), same code both times. Fails when any end-to-end metric of the
/// two sets differs by more than its own bound.
pub fn selfcheck(o: &Options) -> ExitCode {
    println!(
        "# perf selfcheck seed={} seconds={} {}",
        o.seed,
        o.seconds,
        crate::host_line()
    );
    let names = selected(o);
    let mut sets: Vec<BTreeMap<&str, Run>> = Vec::new();
    for set in 0..2u64 {
        let mut runs = BTreeMap::new();
        for w in &names {
            match child(w, o.seed + set, o.seconds, false) {
                Ok(r) if r.correct => {
                    runs.insert(*w, r);
                }
                Ok(_) => {
                    println!("{w}: incorrect outputs in set {}", set + 1);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    println!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(runs);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "q1", "median", "q3", "differ", "bound"
    );
    for w in &names {
        for d in report::end_to_end() {
            let (a, b) = (sets[0][w].metrics[&d.name], sets[1][w].metrics[&d.name]);
            let [q1, q2, q3] = quartiles(&[a, b]);
            let differ = worsening(&d, a, b).abs().max(worsening(&d, b, a).abs());
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let verdict = if differ <= bound {
                ""
            } else {
                "  <-- beyond its bound"
            };
            ok &= differ <= bound;
            println!(
                "{w:<16} {:<18} {a:>14.5} {b:>14.5} {q1:>14.5} {q2:>14.5} {q3:>14.5} {:>8.2}% {:>6.0}%{verdict}",
                d.name,
                differ * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        println!("# selfcheck passed: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("# selfcheck FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_the_direction() {
        let e2e = report::end_to_end();
        let lower = e2e
            .iter()
            .find(|d| d.name == "request_ms_p50")
            .expect("defined");
        let higher = e2e
            .iter()
            .find(|d| d.name == "requests_per_s")
            .expect("defined");
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
    }
}
