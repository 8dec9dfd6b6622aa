//! Offline stand-in for `criterion`. Benches compile and run as smoke
//! tests: each registered function executes its closure a handful of times
//! and prints one wall-clock line, with no statistics, plotting, or
//! warm-up. The API mirrors the subset the workspace's benches use.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How many iterations a smoke run performs per benchmark.
const SMOKE_ITERS: u32 = 3;

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl ToString) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.to_string(), _parent: self }
    }

    /// Registers and immediately smoke-runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl ToString, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.to_string(), f);
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _parent: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Accepted and ignored (smoke runs are fixed-size).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted and ignored.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted and ignored.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Registers and immediately smoke-runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl ToString, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id.to_string()), f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut b = Bencher { elapsed: Duration::ZERO, iters: 0 };
    f(&mut b);
    let per_iter = if b.iters > 0 { b.elapsed / b.iters } else { Duration::ZERO };
    println!("bench {label}: {per_iter:?}/iter (smoke, {} iters)", b.iters);
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    elapsed: Duration,
    iters: u32,
}

impl Bencher {
    /// Runs the routine a few times, timing each run.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..SMOKE_ITERS {
            let start = Instant::now();
            black_box(routine());
            self.elapsed += start.elapsed();
            self.iters += 1;
        }
    }
}

/// Declares a benchmark group function, like upstream criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main` that runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
