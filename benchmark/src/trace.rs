//! Spans recorded by the harness itself, around each call into a layer.
//!
//! Nothing inside the crates is instrumented: a span starts just before
//! the harness calls a layer's public function and ends when it returns.
//! Spans are kept in memory (one buffer per thread) and written out when
//! the workload ends. A span's *self time* is its duration minus the part
//! of that interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The root span of one request; every other span has a parent.
pub const REQUEST: &str = "request";

/// One recorded interval. `parent == 0` marks a root; `request` is the id
/// of the enclosing [`REQUEST`] span (0 outside any request).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u32,
    stack: Vec<u32>,
    request: u32,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        request: 0,
        spans: Vec::new(),
    });
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// An open span; dropping it records the end time.
pub struct Guard {
    /// Index into the thread's buffer; `None` when recording is off.
    index: Option<usize>,
    name: &'static str,
}

/// Opens a span named `name` on the calling thread (a relaxed load and
/// nothing else when recording is off).
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { index: None, name };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let index = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        if name == REQUEST {
            l.request = id;
        }
        let (request, thread) = (l.request, l.thread);
        l.stack.push(id);
        let start_ns = epoch().elapsed().as_nanos() as u64;
        l.spans.push(Span {
            id,
            parent,
            request,
            name,
            thread,
            start_ns,
            end_ns: start_ns,
        });
        l.spans.len() - 1
    });
    Guard {
        index: Some(index),
        name,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // `take_local` may have emptied the buffer under an open span.
            if let Some(s) = l.spans.get_mut(index) {
                s.end_ns = end_ns;
            }
            l.stack.pop();
            if self.name == REQUEST {
                l.request = 0;
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = enter(name);
    f()
}

/// Removes and returns the calling thread's spans.
pub fn take_local() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus what its children cover
/// (children may nest further and may overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let cover = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
            s.dur_ns() - cover
        })
        .collect()
}

/// The part of a request a span's self time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// Schedule + service + pass pipeline + `loopvm::opt` + JIT compile:
    /// everything a `kernels::*` constructor does.
    Compile,
    /// Direct `CompileService` calls (memory / disk / fresh tiers).
    Service,
    /// Machine creation and wall-clock execution on any substrate.
    Exec,
    /// Pricing under the cost model (`loopvm::cost`, `gpusim`, `mpisim`
    /// stats mode).
    Model,
    /// The request's own glue between layer calls.
    Harness,
}

impl Group {
    pub const ALL: [Group; 5] = [
        Group::Compile,
        Group::Service,
        Group::Exec,
        Group::Model,
        Group::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Group::Compile => "compile",
            Group::Service => "service",
            Group::Exec => "exec",
            Group::Model => "model",
            Group::Harness => "harness",
        }
    }

    /// Span names are `<layer>.<call>`; the call decides the group, so
    /// `gpusim.run` (wall-clock execution) and `gpusim.price` (modeled
    /// cycles for a figure bar) land on different sides.
    pub fn of(span_name: &str) -> Group {
        match span_name {
            REQUEST => Group::Harness,
            "core.service" => Group::Service,
            n if n.ends_with(".construct") => Group::Compile,
            n if n.ends_with(".price") => Group::Model,
            n if n.ends_with(".run") || n.ends_with(".machine_new") => Group::Exec,
            _ => Group::Harness,
        }
    }
}

/// Share of total request time each group's self time holds. Spans
/// outside any request (refill, verification) are not counted.
pub fn group_shares(spans: &[Span]) -> BTreeMap<Group, f64> {
    let selfs = self_times(spans);
    let mut by_group: BTreeMap<Group, u64> = Group::ALL.iter().map(|g| (*g, 0)).collect();
    let mut total = 0u64;
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if s.request == 0 {
            continue;
        }
        if s.name == REQUEST {
            total += s.dur_ns();
        }
        *by_group
            .get_mut(&Group::of(s.name))
            .expect("every group present") += self_ns;
    }
    by_group
        .into_iter()
        .map(|(g, ns)| {
            (
                g,
                if total == 0 {
                    0.0
                } else {
                    ns as f64 / total as f64
                },
            )
        })
        .collect()
}

/// The share a workload's dominant group must hold (stated in
/// `benchmark/README.md` before measuring). `None`: the workload asserts
/// no share.
pub fn expected_share(workload: &str) -> Option<(Group, f64)> {
    match workload {
        "exec_sgemm" => Some((Group::Exec, 0.90)),
        "exec_image" => Some((Group::Exec, 0.85)),
        "compile_sweep" => Some((Group::Compile, 0.60)),
        "service_replay" => Some((Group::Service, 0.80)),
        "figures_modeled" => Some((Group::Model, 0.80)),
        _ => None,
    }
}

/// Checks a workload's dominant-group share against [`expected_share`].
pub fn check_share(workload: &str, shares: &BTreeMap<Group, f64>) -> Result<(), String> {
    let Some((group, floor)) = expected_share(workload) else {
        return Ok(());
    };
    let got = shares.get(&group).copied().unwrap_or(0.0);
    if got >= floor {
        Ok(())
    } else {
        Err(format!(
            "{workload}: group `{}` holds {:.1} % of request time, below the stated {:.0} %",
            group.name(),
            got * 100.0,
            floor * 100.0
        ))
    }
}

/// Per-name `(count, total self ns)` over all spans.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

/// Chrome trace-event JSON ("X" complete events, microseconds), loadable
/// in `chrome://tracing` and Perfetto. `args` carries the span ids so the
/// parent/request linkage survives the export.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            Group::of(s.name).name(),
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, request: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            thread: 1,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // request [0,100] > construct [10,40] > (inner [15,25]); run [50,90].
        let spans = vec![
            sp(1, 0, 1, REQUEST, 0, 100),
            sp(2, 1, 1, "core.construct", 10, 40),
            sp(3, 2, 1, "core.service", 15, 25),
            sp(4, 1, 1, "loopvm.run", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two children overlap on [30,40] and one sticks out past the parent.
        let spans = vec![
            sp(1, 0, 1, REQUEST, 0, 100),
            sp(2, 1, 1, "loopvm.run", 20, 40),
            sp(3, 1, 1, "loopvm.run", 30, 60),
            sp(4, 1, 1, "loopvm.run", 90, 120),
        ];
        // Cover = [20,60] + [90,100] = 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn shares_sum_to_one_and_ignore_spans_outside_requests() {
        let spans = vec![
            sp(1, 0, 1, REQUEST, 0, 100),
            sp(2, 1, 1, "core.construct", 0, 5),
            sp(3, 1, 1, "loopvm.run", 5, 98),
            sp(4, 0, 0, "harness.verify", 100, 400),
        ];
        let shares = group_shares(&spans);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[&Group::Exec] - 0.93).abs() < 1e-12);
        assert!((shares[&Group::Compile] - 0.05).abs() < 1e-12);
        assert!((shares[&Group::Harness] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn dominant_share_assertion_on_a_synthetic_trace() {
        let mostly_exec = vec![
            sp(1, 0, 1, REQUEST, 0, 100),
            sp(2, 1, 1, "core.construct", 0, 4),
            sp(3, 1, 1, "loopvm.run", 4, 99),
        ];
        let shares = group_shares(&mostly_exec);
        assert!(check_share("exec_sgemm", &shares).is_ok());
        // The same trace fails a compile-bound workload's assertion, and
        // the exec group it is made of is what that workload keeps small.
        let err = check_share("compile_sweep", &shares).unwrap_err();
        assert!(err.contains("compile") && err.contains("60 %"), "{err}");
        assert!(check_share("not-a-workload", &shares).is_ok());
    }

    #[test]
    fn groups_follow_the_call_not_the_layer() {
        assert_eq!(Group::of("gpusim.run"), Group::Exec);
        assert_eq!(Group::of("gpusim.price"), Group::Model);
        assert_eq!(Group::of("halide_lite.construct"), Group::Compile);
        assert_eq!(Group::of("loopvm.machine_new"), Group::Exec);
        assert_eq!(Group::of("core.service"), Group::Service);
        assert_eq!(Group::of(REQUEST), Group::Harness);
    }

    #[test]
    fn recorder_links_children_to_their_request() {
        set_enabled(true);
        let _ = take_local();
        span(REQUEST, || {
            span("core.construct", || span("core.service", || ()));
            span("loopvm.run", || ());
        });
        span("harness.verify", || ());
        set_enabled(false);
        span("loopvm.run", || ());
        let spans = take_local();
        assert_eq!(spans.len(), 5);
        let req = spans[0].id;
        assert!(spans[..4].iter().all(|s| s.request == req));
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!((spans[4].parent, spans[4].request), (0, 0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(chrome_json(&spans).contains("\"ph\":\"X\""));
    }
}
