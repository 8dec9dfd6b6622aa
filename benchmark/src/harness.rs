//! The measurement loop every workload runs under: repeated set-up,
//! warm-up, time-bounded rounds of requests, and the fold of the request
//! samples into the end-to-end metrics.

use crate::report::Values;
use crate::stats::{geomean, median, quantile_sorted, tail_percentile};
use crate::trace::{self, Group, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a workload is given besides its own constants.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Fixes every generated sequence and every input buffer.
    pub seed: u64,
    /// VM worker threads: `min(nproc, 2)`, set on every `Machine`.
    pub threads: usize,
    /// Where traces and temporary cache directories go.
    pub out_dir: PathBuf,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Requests of one class do identical work (same key, same
    /// temperature, same position in the round's script); the quiet-host
    /// filter compares a request only with its own class.
    pub class: u32,
    /// Index of the program / candidate / service key the request was for.
    pub key: u32,
    /// Issued against an empty memory tier on a fresh machine.
    pub cold: bool,
    pub total_ns: u64,
    /// The "constructor + service call" part.
    pub compile_ns: u64,
    /// The execute part (0 when the request executes nothing).
    pub run_ns: u64,
}

/// Collects what the rounds produce.
#[derive(Debug, Default)]
pub struct Recorder {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Executions timed outside the request stream, as `(key, ns)`: for
    /// workloads whose request executes nothing, `run_ms` comes from these.
    pub runs: Vec<(u32, u64)>,
    /// Time spent checking outputs (outside every request).
    pub verify_ns: u64,
    /// Spans handed back by client threads the workload joined.
    pub spans: Vec<Span>,
    /// One map of exact counters per round; all rounds must agree.
    pub round_counters: Vec<BTreeMap<String, u64>>,
    complaints: usize,
}

impl Recorder {
    /// A request that completed and whose output equals its reference.
    pub fn ok(&mut self, s: Sample) {
        self.attempted += 1;
        self.samples.push(s);
    }

    /// A request that errored, was refused, or produced a wrong output.
    /// It contributes no latency: it misses every limit.
    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.complain(why);
    }

    /// A check outside any request failed (exact counters, figure cells).
    pub fn violation(&mut self, why: &str) {
        self.failed += 1;
        self.complain(why);
    }

    fn complain(&mut self, why: &str) {
        self.complaints += 1;
        if self.complaints <= 8 {
            eprintln!("FAILED: {why}");
        }
    }

    /// Runs an output check outside the timed interval and accounts for it.
    pub fn verify<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, ns) = timed("harness.verify", f);
        self.verify_ns += ns;
        r
    }

    fn check_round_counters(&mut self) {
        let Some((first, rest)) = self.round_counters.split_first() else {
            return;
        };
        let disagreements: Vec<String> = rest
            .iter()
            .enumerate()
            .filter(|(_, round)| *round != first)
            .map(|(k, round)| {
                let diff: Vec<String> = first
                    .iter()
                    .filter(|(name, v)| round.get(*name) != Some(v))
                    .map(|(name, v)| format!("{name}: {v} vs {:?}", round.get(name)))
                    .collect();
                format!(
                    "exact counters differ in round {}: {}",
                    k + 1,
                    diff.join(", ")
                )
            })
            .collect();
        for d in &disagreements {
            self.violation(d);
        }
    }
}

/// Calls `f` inside a span and returns its wall time in nanoseconds.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = trace::span(name, f);
    (r, t.elapsed().as_nanos() as u64)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of `f` called `samples` times (plus one discarded warm-up
/// call), in milliseconds: the shape of every layer probe.
pub fn probe_ms(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut v)
}

/// Samples per probe: 20, fewer for calls so slow that 20 would not fit
/// the probe's slice of the run, never fewer than 3.
pub fn probe_samples(one_call: Duration, slice: Duration) -> usize {
    let fit = slice.as_secs_f64() / one_call.as_secs_f64().max(1e-9);
    (fit as usize).clamp(3, 20)
}

/// A workload: how to set it up, warm it up, and run one round of requests.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Closed-loop clients issuing requests concurrently.
    const CLIENTS: usize = 1;

    /// Everything between process start and the first timed request:
    /// reference outputs, input generation, key construction, temp dirs,
    /// and a warm-up that lets lazy initialisation finish (its requests
    /// are not recorded).
    fn setup(ctx: &Ctx) -> Self;

    /// One round of requests, recorded into `rec`.
    fn round(&mut self, round: u64, rec: &mut Recorder);

    /// Layer probes of the traced run: each public function of the layers
    /// this workload exercises, called in isolation within `budget`.
    ///
    /// # Errors
    ///
    /// A cross-check the probes make failed (e.g. the executor tiers
    /// disagree on an output).
    fn probes(&mut self, layers: &mut Values, budget: Duration) -> Result<(), String>;
}

/// How often set-up is repeated. The repeats are one class of identical
/// work, so the quiet-host filter applies: `setup_s` is the fastest.
const SETUP_REPEATS: usize = 5;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub values: Values,
}

/// Runs rounds until `budget` is used up (always at least one; exactly
/// one when `budget` is zero). A new round starts only while half an
/// average round still fits.
fn run_rounds<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    budget: Duration,
    first_round: u64,
) -> u64 {
    let start = Instant::now();
    let mut round = first_round;
    loop {
        w.round(round, rec);
        round += 1;
        let elapsed = start.elapsed();
        let avg = elapsed / (round - first_round) as u32;
        if elapsed + avg / 2 >= budget {
            return round;
        }
    }
}

/// Share of each class's samples the quiet-host filter keeps.
const QUIET_SHARE: f64 = 0.1;

/// The quiet-host filter. The hosts this benchmark runs on slow either
/// virtual CPU by a third for seconds at a time (a busy hyper-thread
/// sibling), so a run-wide median mostly measures the neighbours. Requests
/// of one class do identical work; of each class only the fastest tenth
/// is kept (at least one), and every statistic is taken over the kept
/// requests. Classes keep their proportions, so the pooled distribution
/// still shows which kinds of request are slow.
pub fn quiet(samples: &[Sample]) -> Vec<Sample> {
    let mut by_class: BTreeMap<u32, Vec<Sample>> = BTreeMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(*s);
    }
    by_class
        .into_values()
        .flat_map(|ss| fastest_share(ss, |s| s.total_ns))
        .collect()
}

/// The fastest [`QUIET_SHARE`] of one class (at least one item).
fn fastest_share<T>(mut class: Vec<T>, ns: impl Fn(&T) -> u64) -> Vec<T> {
    class.sort_by_key(|x| ns(x));
    class.truncate(((class.len() as f64 * QUIET_SHARE).ceil() as usize).max(1));
    class
}

/// Folds the requests [`quiet`] kept into the end-to-end metrics they
/// define. `runs` are raw out-of-stream executions (filtered here, one
/// class per key).
pub fn summarize(kept: &[Sample], runs: &[(u32, u64)], clients: usize) -> Values {
    let mut v = Values::new();
    let mut totals: Vec<f64> = kept.iter().map(|s| ms(s.total_ns)).collect();
    totals.sort_by(f64::total_cmp);
    v.insert("request_ms_p50".into(), quantile_sorted(&totals, 0.5));
    v.insert("request_ms_p95".into(), quantile_sorted(&totals, 0.95));
    let busy_s: f64 = totals.iter().sum::<f64>() / 1e3 / clients as f64;
    v.insert("requests_per_s".into(), kept.len() as f64 / busy_s);

    let mut by_key: BTreeMap<u32, Vec<&Sample>> = BTreeMap::new();
    for s in kept {
        by_key.entry(s.key).or_default().push(s);
    }
    // Geomean over keys of the per-key median of `pick`ed samples.
    let per_key = |pick: &dyn Fn(&[&Sample]) -> Vec<f64>| {
        let medians: Vec<f64> = by_key
            .values()
            .map(|ss| pick(ss))
            .filter(|xs| !xs.is_empty())
            .map(|mut xs| median(&mut xs))
            .filter(|m| *m > 0.0)
            .collect();
        geomean(&medians)
    };
    let cold_total = |ss: &[&Sample]| -> Vec<f64> {
        ss.iter()
            .filter(|s| s.cold)
            .map(|s| ms(s.total_ns))
            .collect()
    };
    v.insert("cold_request_ms".into(), per_key(&cold_total));
    v.insert(
        "compile_ms".into(),
        per_key(&|ss| ss.iter().map(|s| ms(s.compile_ns)).collect()),
    );
    // The execute part of warm requests; of the first run where a key is
    // only ever requested cold; of the out-of-stream executions where
    // requests execute nothing.
    let run_ms = if runs.is_empty() {
        per_key(&|ss| {
            let ran = |cold_too: bool| -> Vec<f64> {
                ss.iter()
                    .filter(|s| s.run_ns > 0 && (cold_too || !s.cold))
                    .map(|s| ms(s.run_ns))
                    .collect()
            };
            let warm = ran(false);
            if warm.is_empty() {
                ran(true)
            } else {
                warm
            }
        })
    } else {
        let mut by_key: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &(key, ns) in runs {
            by_key.entry(key).or_default().push(ns);
        }
        let medians: Vec<f64> = by_key
            .into_values()
            .map(|class| {
                let mut kept: Vec<f64> =
                    fastest_share(class, |ns| *ns).into_iter().map(ms).collect();
                median(&mut kept)
            })
            .collect();
        geomean(&medians)
    };
    v.insert("run_ms".into(), run_ms);
    v
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sum of the always-on process-wide counters whose name starts with
/// `prefix` (`telemetry::metrics`; read, never reset).
pub fn counter_sum(prefix: &str) -> u64 {
    telemetry::metrics::snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| match v {
            telemetry::metrics::MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

fn print_tail(kept: &[Sample], completed: usize) {
    let mut totals: Vec<f64> = kept.iter().map(|s| ms(s.total_ns)).collect();
    totals.sort_by(f64::total_cmp);
    print!(
        "# {completed} requests completed, {} kept by the quiet-host filter; ",
        totals.len()
    );
    match tail_percentile(totals.len()) {
        Some(p) => println!(
            "highest percentile with >=10 kept samples beyond it: p{p} = {:.4} ms",
            quantile_sorted(&totals, p / 100.0)
        ),
        None => println!("too few for a tail percentile"),
    }
}

/// Runs one workload for `seconds` and returns its metrics: end-to-end
/// (spans off) or, with `traced`, per-layer.
pub fn run_workload<W: Workload>(ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
    let mut setup_s = f64::INFINITY;
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(ctx));
        setup_s = setup_s.min(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("set up at least once");

    let mut rec = Recorder::default();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut values = Values::new();
    if !traced {
        run_rounds(&mut w, &mut rec, budget, 0);
        rec.check_round_counters();
        assert!(!rec.samples.is_empty(), "{}: no request completed", W::NAME);
        let kept = quiet(&rec.samples);
        values = summarize(&kept, &rec.runs, W::CLIENTS);
        values.insert("setup_s".into(), setup_s);
        values.insert("peak_rss_mb".into(), peak_rss_mb());
        print_tail(&kept, rec.samples.len());
    } else {
        // A quarter of the run untraced, a quarter traced (their ratio is
        // the tracing overhead), the rest for the isolated layer probes.
        let vm_counters = [
            ("loopvm.jit.deopts_fired", "jit.deopts_fired"),
            ("loopvm.bc_cache.hits", "vm.bc_cache.hits"),
            ("loopvm.bc_cache.misses", "vm.bc_cache.misses"),
        ];
        let before = vm_counters.map(|(_, counter)| counter_sum(counter));
        let next = run_rounds(&mut w, &mut rec, budget / 4, 0);
        let rate =
            |samples: &[Sample]| summarize(&quiet(samples), &[], W::CLIENTS)["requests_per_s"];
        let untraced = rate(&rec.samples);
        let split = rec.samples.len();
        trace::set_enabled(true);
        run_rounds(&mut w, &mut rec, budget / 4, next);
        trace::set_enabled(false);
        rec.check_round_counters();
        let mut spans = std::mem::take(&mut rec.spans);
        spans.extend(trace::take_local());
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let traced_rate = rate(&rec.samples[split..]);

        for d in crate::report::per_layer() {
            values.insert(d.name, 0.0);
        }
        values.insert(
            "telemetry.trace_overhead_share".into(),
            1.0 - traced_rate / untraced,
        );
        for ((metric, counter), was) in vm_counters.into_iter().zip(before) {
            values.insert(metric.into(), (counter_sum(counter) - was) as f64);
        }
        values.insert(
            "telemetry.metrics_snapshot_ms".into(),
            probe_ms(20, || {
                std::hint::black_box(telemetry::metrics::snapshot());
            }),
        );
        fold_spans(W::NAME, &spans, &rec, &mut values);
        let path = ctx.out_dir.join(format!("trace-{}.json", W::NAME));
        match std::fs::create_dir_all(&ctx.out_dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        {
            Ok(()) => println!("# wrote {} ({} spans)", path.display(), spans.len()),
            Err(e) => rec.violation(&format!("cannot write {}: {e}", path.display())),
        }
        if let Err(e) = w.probes(&mut values, budget / 2) {
            rec.violation(&e);
        }
    }
    drop(w);
    Outcome {
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        values,
    }
}

/// Per-layer numbers that come from the recorded spans.
fn fold_spans(workload: &str, spans: &[Span], rec: &Recorder, values: &mut Values) {
    let shares = trace::group_shares(spans);
    for g in [Group::Compile, Group::Service, Group::Exec, Group::Model] {
        values.insert(format!("harness.share.{}", g.name()), shares[&g]);
    }
    if let Err(e) = trace::check_share(workload, &shares) {
        println!("# WARNING: {e}");
    }
    let by_name = trace::self_by_name(spans);
    println!("# span self time (traced segment): name, count, total self ms");
    for (name, (count, self_ns)) in &by_name {
        println!("#   {name:<24} {count:>7} {:>12.3}", ms(*self_ns));
    }
    let (requests, request_self) = by_name.get(trace::REQUEST).copied().unwrap_or((0, 0));
    values.insert(
        "harness.request_self_ms".into(),
        if requests == 0 {
            0.0
        } else {
            ms(request_self) / requests as f64
        },
    );
    values.insert(
        "harness.verify_ms".into(),
        ms(rec.verify_ns) / rec.attempted.max(1) as f64,
    );
    values.insert("harness.spans".into(), spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(key: u32, cold: bool, total: u64, compile: u64, run: u64) -> Sample {
        Sample {
            class: total as u32,
            key,
            cold,
            total_ns: total,
            compile_ns: compile,
            run_ns: run,
        }
    }

    #[test]
    fn quiet_filter_keeps_the_fastest_tenth_of_each_class() {
        let mut samples = Vec::new();
        for t in 1..=20u64 {
            samples.push(Sample {
                class: 0,
                ..s(0, false, t * 10, 1, 1)
            });
            samples.push(Sample {
                class: 1,
                ..s(0, true, t * 1000, 1, 1)
            });
        }
        samples.push(Sample {
            class: 2,
            ..s(1, true, 7, 1, 1)
        });
        let mut kept: Vec<u64> = quiet(&samples).iter().map(|s| s.total_ns).collect();
        kept.sort_unstable();
        assert_eq!(kept, [7, 10, 20, 1000, 2000]);
    }

    #[test]
    fn summarize_averages_keys_with_the_geomean_of_their_medians() {
        let samples = vec![
            // key 0: cold 10 ms, warm runs 1, 2, 3 ms -> median 2.
            s(0, true, 10_000_000, 8_000_000, 2_000_000),
            s(0, false, 1_100_000, 100_000, 1_000_000),
            s(0, false, 2_100_000, 100_000, 2_000_000),
            s(0, false, 3_100_000, 100_000, 3_000_000),
            // key 1: only cold requests; the first run stands in for run_ms.
            s(1, true, 40_000_000, 32_000_000, 8_000_000),
        ];
        let v = summarize(&quiet(&samples), &[], 1);
        assert!((v["cold_request_ms"] - 20.0).abs() < 1e-9); // sqrt(10 * 40)
        assert!((v["run_ms"] - 4.0).abs() < 1e-9); // sqrt(2 * 8)
        assert!((v["compile_ms"] - (0.1f64 * 32.0).sqrt()).abs() < 1e-9);
        let busy_s = (10.0 + 1.1 + 2.1 + 3.1 + 40.0) / 1e3;
        assert!((v["requests_per_s"] - 5.0 / busy_s).abs() < 1e-6);
        assert!((v["request_ms_p50"] - 3.1).abs() < 1e-9);
        // Two clients share the busy time.
        assert!(
            (summarize(&quiet(&samples), &[], 2)["requests_per_s"] - 10.0 / busy_s).abs() < 1e-6
        );
    }

    #[test]
    fn failed_requests_count_as_attempted_but_carry_no_latency() {
        let mut rec = Recorder::default();
        rec.ok(s(0, false, 1, 1, 0));
        rec.fail("wrong output");
        assert_eq!((rec.attempted, rec.failed, rec.samples.len()), (2, 1, 1));
    }

    #[test]
    fn rounds_must_agree_on_exact_counters() {
        let mut rec = Recorder::default();
        rec.round_counters
            .push([("compiles".to_string(), 48)].into());
        rec.round_counters
            .push([("compiles".to_string(), 48)].into());
        rec.check_round_counters();
        assert_eq!(rec.failed, 0);
        rec.round_counters
            .push([("compiles".to_string(), 47)].into());
        rec.check_round_counters();
        assert_eq!(rec.failed, 1);
    }

    #[test]
    fn probe_sample_count_shrinks_for_slow_calls() {
        let slice = Duration::from_secs(2);
        assert_eq!(probe_samples(Duration::from_millis(1), slice), 20);
        assert_eq!(probe_samples(Duration::from_millis(250), slice), 8);
        assert_eq!(probe_samples(Duration::from_secs(5), slice), 3);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 1.0);
    }
}
