//! The static splitter every executor tier dispatches `Parallel` loops
//! through, and the crew of worker threads that runs the chunks.
//!
//! The split is part of the execution contract: results are identical
//! across thread counts and across tiers because every tier cuts `lo..hi`
//! into the same contiguous chunks, whatever runs inside them.
//!
//! A run with more than one thread, some dispatch of which can pay for a
//! crew ([`may_split`]), opens one `std::thread::scope` and a [`Crew`] on
//! it. The crew spawns its workers at the first dispatch that needs them
//! and keeps them for the rest of the run: every dispatch hands chunks
//! `1..` to the workers over `std::sync::mpsc`, the caller runs chunk 0
//! itself, and the outcomes come back in chunk order. A job owns the state
//! it mutates (snapshots taken on the caller) and borrows only what
//! outlives the scope. The workers exit when the crew drops at the end of
//! the run and the scope joins them, so no thread outlives its run.
//!
//! A dispatch fails as a serial run would ([`settle`]): with the failure
//! of the first failing chunk in chunk order, whether an `Err` or a panic,
//! and a panic keeps its own payload.
//!
//! A dispatch reaches the crew only when its work pays for it ([`takes`]):
//! its iterations times the static estimate of one iteration's bytecode
//! instructions reach [`GRAIN`]. The estimates live in one place, the
//! program's [`Estimate`] per `Parallel` loop, indexed by the loop's
//! `par` number, which every lowering and the decoder assign alike. Below
//! the grain the loop runs inline on the caller, as it does on one thread.
//! Every legal `Parallel` loop gives the same result serially, and a
//! serial run fails at the first failing iteration, which is in the first
//! failing chunk: the decision changes neither a legal loop's output nor
//! the failure a run reports. Every tier decides alike (DESIGN §10).

use crate::bytecode::BcStmt;
use crate::program::LoopKind;
use crate::vm::vm_metrics;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{Scope, ScopedJoinHandle};

/// One chunk's work: built on the caller, run on the caller (chunk 0) or
/// on a worker.
pub(crate) type Job<'scope, R> = Box<dyn FnOnce() -> R + Send + 'scope>;

/// A chunk's result, or the payload it panicked with.
pub(crate) type Outcome<R> = std::thread::Result<R>;

/// `f(start, end)` for every chunk of `lo..hi`, in chunk order: the
/// static split.
///
/// `workers = min(threads, n)` chunks of `ceil(n / workers)` iterations
/// each; chunks the rounding leaves empty are skipped.
pub(crate) fn chunks<R>(
    threads: usize,
    lo: i64,
    hi: i64,
    mut f: impl FnMut(i64, i64) -> R,
) -> Vec<R> {
    let n = (hi - lo).max(0) as usize;
    let workers = threads.min(n).max(1);
    let chunk = n.div_ceil(workers);
    (0..workers)
        .map(|w| (lo + (w * chunk) as i64, (lo + ((w + 1) * chunk) as i64).min(hi)))
        .filter(|(start, end)| start < end)
        .map(|(start, end)| f(start, end))
        .collect()
}

/// The work, in estimated bytecode instructions, from which a dispatch
/// goes to the crew. Calibrated on a 2-core x86-64 host, where a worker
/// round trip costs 14–18 µs and a run's first spawn 40 µs (DESIGN §10):
/// it lies above the largest dispatches that ran no faster on two threads
/// than on one (sgemm n=96/tile 16 panels, 2.0–2.2 M) and below the
/// smallest 768×1024 image kernel's (5.3 M), which two threads ran at
/// least as fast.
pub(crate) const GRAIN: u64 = 3_000_000;

/// Whether a dispatch of `n` iterations of `per_iter` instructions each
/// goes to the crew of a run on `threads` threads: never on one thread or
/// one iteration, else when `n × per_iter` reaches [`GRAIN`].
pub(crate) fn pays(threads: usize, n: u64, per_iter: u64) -> bool {
    threads > 1 && n > 1 && n.saturating_mul(per_iter) >= GRAIN
}

/// Whether a `Parallel` loop over `lo..hi` whose iterations cost
/// `per_iter` each goes to the crew of a run on `threads` threads
/// ([`pays`]); counts it as a dispatch (`vm.par.dispatches`) when it has
/// two or more iterations on more than one thread, whether or not the
/// run opened a crew.
pub(crate) fn takes(threads: usize, lo: i64, hi: i64, per_iter: u64) -> bool {
    let n = u64::try_from(i128::from(hi) - i128::from(lo)).unwrap_or(0);
    if threads < 2 || n < 2 {
        return false;
    }
    vm_metrics().par_dispatches.inc();
    pays(threads, n, per_iter)
}

/// The static work estimate of one `Parallel` loop, from the loop-bound
/// intervals of `jit::facts` (`Facts::estimate`), kept by the program at
/// the loop's `par` index ([`crate::bytecode::BcProgram::estimates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Estimate {
    /// The bytecode instructions one iteration runs at most.
    pub(crate) per_iter: u64,
    /// The iterations one dispatch has at most.
    pub(crate) trips: u64,
}

impl Estimate {
    /// The estimate of a loop with no facts: unbounded, it always splits.
    pub(crate) const UNBOUNDED: Estimate = Estimate { per_iter: u64::MAX, trips: u64::MAX };
}

/// Whether some dispatch of a loop with one of `estimates` can reach a
/// crew: [`pays`] grows with `n`, and no dispatch has more than `trips`
/// iterations. A run of a program whose loops cannot opens none.
pub(crate) fn may_split(estimates: &[Estimate]) -> bool {
    estimates.iter().any(|e| pays(2, e.trips, e.per_iter))
}

/// The `Parallel` loops of `body`, nested ones included, in source
/// order: by `par` index.
pub(crate) fn par_loops(body: &[BcStmt]) -> Vec<&BcStmt> {
    fn walk<'a>(body: &'a [BcStmt], out: &mut Vec<&'a BcStmt>) {
        for s in body {
            match s {
                BcStmt::For { kind, body, .. } => {
                    if *kind == LoopKind::Parallel {
                        out.push(s);
                    }
                    walk(body, out);
                }
                BcStmt::If { then, else_, .. } => {
                    walk(then, out);
                    walk(else_, out);
                }
                BcStmt::Let { .. } | BcStmt::Store { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(body, &mut out);
    out
}

/// A job with the chunk index it reports under.
type Tagged<'scope, R> = (usize, Job<'scope, R>);

/// The worker threads of one run (see the module docs).
pub(crate) struct Crew<'scope, R> {
    threads: usize,
    /// Starts one worker on the run's scope, serving the jobs of the given
    /// queue until its sender drops. A closure over the `Scope` rather than
    /// the `Scope` itself, so that the crew's type (and the contexts that
    /// carry it) names only the lifetime its jobs need, not the scope's
    /// `'env`.
    spawn: Box<dyn FnMut(Receiver<Tagged<'scope, R>>) -> ScopedJoinHandle<'scope, ()> + 'scope>,
    /// One job queue per worker spawned so far.
    queues: Vec<Sender<Tagged<'scope, R>>>,
    /// The workers spawned so far, joined when the crew drops.
    workers: Vec<ScopedJoinHandle<'scope, ()>>,
    /// Where the workers report `(chunk, outcome)`.
    done: Receiver<(usize, Outcome<R>)>,
}

impl<'scope, R: Send + 'scope> Crew<'scope, R> {
    /// A crew of up to `threads - 1` workers on `scope`, none spawned yet.
    pub(crate) fn new<'env>(scope: &'scope Scope<'scope, 'env>, threads: usize) -> Self {
        let (report, done) = channel();
        let spawn = move |jobs: Receiver<Tagged<'scope, R>>| {
            let report: Sender<(usize, Outcome<R>)> = report.clone();
            vm_metrics().par_spawns.inc();
            scope.spawn(move || {
                for (k, job) in jobs {
                    // The caller stops listening only while a run unwinds,
                    // when there is no one left to report to.
                    let _ = report.send((k, catch_unwind(AssertUnwindSafe(job))));
                }
            })
        };
        Crew { threads, spawn: Box::new(spawn), queues: Vec::new(), workers: Vec::new(), done }
    }

    /// Runs `job(start, end)` for every chunk of `lo..hi` ([`chunks`]):
    /// chunk 0 on the caller, chunk `w` on worker `w - 1`, spawned by the
    /// first dispatch that needs it. Returns every chunk's outcome in chunk
    /// order once all of them have finished.
    pub(crate) fn dispatch(
        &mut self,
        lo: i64,
        hi: i64,
        job: impl FnMut(i64, i64) -> Job<'scope, R>,
    ) -> Vec<Outcome<R>> {
        vm_metrics().par_splits.inc();
        let mut jobs = chunks(self.threads, lo, hi, job).into_iter();
        let first = jobs.next().expect("callers dispatch two or more iterations");
        let mut outcomes = vec![None];
        for (w, job) in jobs.enumerate() {
            if w == self.queues.len() {
                let (queue, jobs) = channel();
                self.workers.push((self.spawn)(jobs));
                self.queues.push(queue);
            }
            self.queues[w].send((w + 1, job)).expect("crew worker exited mid-run");
            outcomes.push(None);
        }
        outcomes[0] = Some(catch_unwind(AssertUnwindSafe(first)));
        for _ in 1..outcomes.len() {
            let (k, outcome) = self.done.recv().expect("crew worker exited mid-run");
            outcomes[k] = Some(outcome);
        }
        outcomes.into_iter().map(|o| o.expect("every chunk reports once")).collect()
    }
}

impl<R> Drop for Crew<'_, R> {
    /// Closes the job queues and waits for the workers to exit, so that a
    /// run ends with its threads gone, not still tearing down beside the
    /// caller's next run (the scope alone waits only for their closures).
    fn drop(&mut self) {
        self.queues.clear();
        for worker in self.workers.drain(..) {
            // Workers catch every job's panic, so none is left to report.
            let _ = worker.join();
        }
    }
}

/// A dispatch's outcome as a serial run reports it: every chunk's value in
/// chunk order, or the first failing chunk's failure — its `Err` returned,
/// its panic resumed with the original payload.
pub(crate) fn settle<T>(outcomes: Vec<Outcome<crate::Result<T>>>) -> crate::Result<Vec<T>> {
    let mut values = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Ok(r) => values.push(r?),
            Err(payload) => resume_unwind(payload),
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::{chunks, may_split, par_loops, pays, settle, takes, Crew, Estimate, Job, Outcome};
    use super::{BcStmt, LoopKind, GRAIN};

    #[test]
    fn chunks_are_a_contiguous_balanced_cover() {
        for n in [1i64, 5, 10, 64] {
            for threads in [1usize, 2, 4, 7, 8, 100] {
                let lo = -3;
                let got = chunks(threads, lo, lo + n, |start, end| (start, end));
                let workers = threads.min(n as usize);
                let size = (n as usize).div_ceil(workers) as i64;
                assert!(!got.is_empty() && got.len() <= workers, "n={n} threads={threads}");
                let mut next = lo;
                for (k, &(start, end)) in got.iter().enumerate() {
                    assert_eq!(start, next, "n={n} threads={threads}: gap or overlap");
                    assert!(end > start, "n={n} threads={threads}: empty chunk");
                    // Every chunk is `ceil(n / workers)` long but the last.
                    let want = if k + 1 < got.len() { size } else { lo + n - start };
                    assert_eq!(end - start, want, "n={n} threads={threads} chunk {k}");
                    assert!(want <= size);
                    next = end;
                }
                assert_eq!(next, lo + n, "n={n} threads={threads}: range not covered");
            }
        }
    }

    #[test]
    fn a_crew_reuses_its_workers_and_reports_in_chunk_order() {
        let caller = std::thread::current().id();
        let mut workers = std::collections::HashSet::new();
        std::thread::scope(|s| {
            let mut crew = Crew::new(s, 3);
            for _ in 0..5 {
                let outcomes = crew.dispatch(0, 10, |start, end| -> Job<'_, _> {
                    Box::new(move || ((start, end), std::thread::current().id()))
                });
                let got: Vec<_> = outcomes.into_iter().map(|o| o.expect("no panic")).collect();
                let ranges: Vec<_> = got.iter().map(|g| g.0).collect();
                assert_eq!(ranges, chunks(3, 0, 10, |start, end| (start, end)));
                assert_eq!(got[0].1, caller, "the caller runs chunk 0");
                workers.extend(got[1..].iter().map(|g| g.1));
            }
        });
        assert_eq!(workers.len(), 2, "the same two workers serve every dispatch");
        assert!(!workers.contains(&caller));
    }

    #[test]
    fn the_rule_never_splits_on_one_thread_or_one_iteration() {
        for per_iter in [0, 1, GRAIN - 1, GRAIN, u64::MAX] {
            for n in [0, 1, 2, 1 << 20, u64::MAX] {
                assert!(!pays(1, n, per_iter), "one thread, n={n} per_iter={per_iter}");
            }
            for threads in [2, 3, 64] {
                for n in [0, 1] {
                    assert!(!pays(threads, n, per_iter), "{threads} threads, n={n}");
                }
            }
        }
        assert!(!takes(2, 5, 6, u64::MAX) && !takes(2, 5, 5, u64::MAX));
        assert!(!takes(2, i64::MAX, i64::MIN, u64::MAX), "an empty range");
        assert!(takes(2, i64::MIN, i64::MAX, 1), "a range wider than i64");
        assert!(!takes(1, i64::MIN, i64::MAX, u64::MAX), "one thread");
    }

    /// More work never turns a split into an inline run: the rule reads
    /// `n × per_iter` alone, and splits from [`GRAIN`] on.
    #[test]
    fn the_rule_is_monotone_in_work() {
        let per_iters = [0, 1, GRAIN / 4, GRAIN / 2 - 1, GRAIN / 2, GRAIN - 1, GRAIN, u64::MAX];
        let ns = [2u64, 3, 7, 1 << 20, u64::MAX];
        for threads in [2, 3, 8] {
            for (&n, &per_iter) in ns.iter().flat_map(|n| per_iters.iter().map(move |w| (n, w))) {
                let work = n.saturating_mul(per_iter);
                assert_eq!(pays(threads, n, per_iter), work >= GRAIN, "n={n} per_iter={per_iter}");
            }
        }
        assert!(!pays(2, 2, GRAIN / 2 - 1) && pays(2, 2, GRAIN / 2));
    }

    /// A loop may reach a crew exactly when its largest dispatch would.
    #[test]
    fn a_loop_may_split_when_its_largest_dispatch_pays() {
        let may = |trips, per_iter| may_split(&[Estimate { per_iter, trips }]);
        assert!(may(2, GRAIN / 2) && !may(2, GRAIN / 2 - 1));
        assert!(!may(1, u64::MAX) && !may(0, u64::MAX), "one iteration never splits");
        assert!(may(u64::MAX, 1) && may(u64::MAX, u64::MAX), "unbounded");
        assert!(!may(u64::MAX, 0), "no work");
        for (trips, per_iter) in [(6, 360_776), (768, 6_915), (u64::MAX, 7)] {
            let n = (2..=trips.min(1 << 12)).chain([trips]);
            let any = n.into_iter().any(|n| pays(2, n, per_iter));
            assert_eq!(may(trips, per_iter), any, "trips={trips} per_iter={per_iter}");
        }
    }

    /// A run opens a crew only for a program some dispatch of which can
    /// reach it; a loop with no estimate always can. Both lowerings number
    /// their `Parallel` loops alike, so the plain lowering's dispatches
    /// read the optimized bytecode's estimates.
    #[test]
    fn a_program_may_split_when_some_loop_may() {
        use crate::bytecode::BcProgram;
        use crate::expr::Expr;
        use crate::program::{Program, Stmt};
        let mut p = Program::new();
        let a = p.buffer("A", 64);
        let (i, n) = (p.var("i"), p.var("n"));
        let store = vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))];
        p.push(Stmt::for_(i, Expr::i64(0), Expr::i64(64), LoopKind::Parallel, store.clone()));
        let may = |bc: &BcProgram| may_split(bc.estimates());
        let optimized = |p: &Program| crate::opt::compile_program(p).unwrap();
        assert!(!may(&optimized(&p)), "64 iterations of a store");
        assert!(may(&crate::opt::compile_plain(&p).unwrap()), "no facts");
        assert!(!may_split(&[]), "no loops");
        // `n` is a parameter: the second loop has no trip bound.
        p.push(Stmt::for_(i, Expr::i64(0), Expr::var(n), LoopKind::Parallel, store));
        let opt = optimized(&p);
        assert!(may(&opt));
        assert_eq!(opt.estimates()[1].trips, u64::MAX, "no trip bound");
        let numbers = |bc: &BcProgram| -> Vec<u32> {
            let par = |s: &BcStmt| match s {
                BcStmt::For { par, .. } => *par,
                _ => unreachable!("a loop"),
            };
            par_loops(&bc.body).into_iter().map(par).collect()
        };
        assert_eq!(numbers(&opt), [0, 1]);
        assert_eq!(numbers(&crate::opt::compile_plain(&p).unwrap()), [0, 1]);
    }

    #[test]
    fn settle_reports_the_first_failing_chunk() {
        let oob = || crate::Error::OutOfBounds { buffer: "A".into(), index: 4, size: 4 };
        let boom = || -> Outcome<crate::Result<()>> { Err(Box::new("boom")) };
        assert_eq!(settle(vec![Ok(Ok(1)), Ok(Ok(2))]).expect("no failure"), [1, 2]);
        let err = settle(vec![Ok(Ok(())), Ok(Err(oob())), boom()]);
        assert!(matches!(err, Err(crate::Error::OutOfBounds { index: 4, .. })));
        let panic = std::panic::catch_unwind(|| settle(vec![Ok(Ok(())), boom(), Ok(Err(oob()))]))
            .expect_err("the earlier panic wins");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"boom"), "the payload is kept");
    }
}
