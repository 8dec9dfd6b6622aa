//! `perf` — the repo's benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON result line
//! perf run [--trace] [--quick] [--workload <name>]... [--seed <n>] [--seconds <s>]
//! perf selfcheck [--seed <n>] [--seconds <s>]                      the suite twice, A/A, against the bounds
//! perf manifest                                                    prints BENCHMARK.json
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; see `benchmark/README.md`.

mod gen;
mod harness;
mod probes;
mod reference;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use harness::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Environment variables that change which code runs; a benchmark run
/// with any of them set would not measure the default system.
const REFUSED_ENV: [&str; 6] = [
    "TIRAMISU_CACHE_DIR",
    "LOOPVM_TREEWALK",
    "LOOPVM_JIT",
    "GPUSIM_TREEWALK",
    "TIRAMISU_PROFILE",
    "TIRAMISU_TRACE",
];

/// Refuses to start when `is_set` reports any of [`REFUSED_ENV`].
fn check_env(is_set: impl Fn(&str) -> bool) -> Result<(), String> {
    match REFUSED_ENV.iter().find(|v| is_set(v)) {
        Some(v) => Err(format!(
            "refusing to run with {v} set: it changes the code under test"
        )),
        None => Ok(()),
    }
}

/// Command-line options shared by every mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = value(&mut it, a)?;
                if !report::WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                o.workloads.push(w.clone());
            }
            "--seed" => {
                o.seed = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            // The driver passes `--trace 0|1`; `run --trace` takes no value.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("perf")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The executor tier `Machine::run` uses on this host.
fn executor_tier() -> &'static str {
    match loopvm::ExecMode::from_env("LOOPVM_TREEWALK", true) {
        loopvm::ExecMode::Jit => "jit",
        loopvm::ExecMode::Bytecode => "bytecode",
        loopvm::ExecMode::TreeWalk => "treewalk",
    }
}

fn host_line() -> String {
    format!(
        "arch={} nproc={} vm_threads={} executor={}",
        std::env::consts::ARCH,
        nproc(),
        nproc().min(2),
        executor_tier()
    )
}

/// Runs one workload in this process and prints its result line.
fn run_one(o: &Options) -> ExitCode {
    let name = &o.workloads[0];
    let ctx = Ctx {
        seed: o.seed,
        threads: nproc().min(2),
        out_dir: out_dir(),
    };
    println!(
        "# perf {name} seed={} seconds={} trace={} {}",
        o.seed,
        o.seconds,
        o.trace,
        host_line()
    );
    let Outcome {
        correct,
        attempted,
        failed,
        values,
    } = workloads::run(name, &ctx, o.seconds, o.trace);
    let defs = if o.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for d in &defs {
        println!("{:<40} {:>18.6} {}", d.name, values[&d.name], d.unit);
    }
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &defs, &values)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "selfcheck" | "manifest")) => (m, &args[1..]),
        _ => ("one", &args[..]),
    };
    if mode == "manifest" {
        print!("{}", report::manifest_json());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = check_env(|v| std::env::var_os(v).is_some()) {
        eprintln!("perf: {e}");
        return ExitCode::from(2);
    }
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "run" => suite::run(&options),
        "selfcheck" => suite::selfcheck(&options),
        _ if options.workloads.len() == 1 => run_one(&options),
        _ => {
            eprintln!("perf: name exactly one --workload, or use `perf run`");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn refuses_each_variable_that_changes_the_code_under_test() {
        assert!(check_env(|_| false).is_ok());
        for v in REFUSED_ENV {
            let err = check_env(|name| name == v).unwrap_err();
            assert!(err.contains(v), "{err}");
        }
        assert!(check_env(|name| name == "HOME").is_ok());
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_options(&args(
            "--workload exec_sgemm --seed 7 --seconds 15 --trace 1",
        ))
        .expect("parses");
        assert_eq!(o.workloads, ["exec_sgemm"]);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 15.0, true, false)
        );
        let o = parse_options(&args(
            "--workload compile_sweep --seed 1 --seconds 2 --trace 0",
        ))
        .expect("parses");
        assert!(!o.trace);
    }

    #[test]
    fn parses_the_suite_command_line() {
        let o = parse_options(&args(
            "--trace --quick --workload exec_image --workload exec_sgemm",
        ))
        .expect("parses");
        assert!(o.trace && o.quick);
        assert_eq!(o.workloads.len(), 2);
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seconds -1")).is_err());
        assert!(parse_options(&args("--seed")).is_err());
        assert!(parse_options(&args("--frobnicate")).is_err());
    }
}
