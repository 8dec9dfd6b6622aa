//! The static splitter every executor tier dispatches `Parallel` loops
//! through, and the crew of worker threads that runs the chunks.
//!
//! The split is part of the execution contract: results are identical
//! across thread counts and across tiers because every tier cuts `lo..hi`
//! into the same contiguous chunks, whatever runs inside them.
//!
//! A run with more than one thread opens one `std::thread::scope` and a
//! [`Crew`] on it. The crew spawns its workers at the first dispatch that
//! needs them and keeps them for the rest of the run: every dispatch hands
//! chunks `1..` to the workers over `std::sync::mpsc`, the caller runs
//! chunk 0 itself, and the outcomes come back in chunk order. A job owns
//! the state it mutates (snapshots taken on the caller) and borrows only
//! what outlives the scope. The workers exit when the crew drops at the
//! end of the run and the scope joins them, so no thread outlives its run.
//!
//! A dispatch fails as a serial run would ([`settle`]): with the failure
//! of the first failing chunk in chunk order, whether an `Err` or a panic,
//! and a panic keeps its own payload.

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
        vm_metrics().par_dispatches.inc();
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
    use super::{chunks, settle, Crew, Job, Outcome};

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
