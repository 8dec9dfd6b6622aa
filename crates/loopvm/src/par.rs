//! The static splitter every executor tier dispatches `Parallel` loops
//! through.
//!
//! The split is part of the execution contract: results are identical
//! across thread counts and across tiers because every tier cuts `lo..hi`
//! into the same contiguous chunks, whatever runs inside them.

/// Runs `work(start, end)` on one `std::thread::scope` worker per chunk
/// of `lo..hi` and returns the results in chunk order.
///
/// `workers = min(threads, n)` chunks of `ceil(n / workers)` iterations
/// each; chunks the rounding leaves empty are not spawned. A worker panic
/// propagates as `"worker panicked"` once every worker has been joined.
pub(crate) fn chunks<R: Send>(
    threads: usize,
    lo: i64,
    hi: i64,
    work: impl Fn(i64, i64) -> R + Sync,
) -> Vec<R> {
    let n = (hi - lo).max(0) as usize;
    let workers = threads.min(n).max(1);
    let chunk = n.div_ceil(workers);
    let work = &work;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let start = lo + (w * chunk) as i64;
            let end = (lo + ((w + 1) * chunk) as i64).min(hi);
            if start >= end {
                continue;
            }
            handles.push(scope.spawn(move || work(start, end)));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::chunks;

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
}
