//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! No network access in the build environment, so this workspace vendors
//! the subset of criterion it uses: `criterion_group!` / `criterion_main!`,
//! benchmark groups with `sample_size` / `measurement_time` /
//! `warm_up_time`, `bench_with_input` with a [`BenchmarkId`], and
//! [`Bencher::iter`]. Timing is a plain median-of-samples wall-clock
//! measurement printed to stdout — no statistics engine, no HTML reports —
//! which is enough for the `exp_*` experiment binaries and for CI smoke
//! runs that only need the benches to build and execute.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Benchmark driver (holds global defaults).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size,
        }
    }
}

/// Identifier of one benchmark within a group: `name/parameter`.
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// Build from a function name and a parameter (anything printable).
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }
}

/// A group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; sampling here is count-based.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; one untimed warm-up run is used.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher, input);
        let label = format!("{}/{}/{}", self.name, id.name, id.parameter);
        match median(&mut bencher.samples) {
            Some(m) => println!("{label:<60} {:>12.3} ms", m * 1e3),
            None => println!("{label:<60} {:>12}", "no samples"),
        }
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[samples.len() / 2])
}

/// Per-benchmark measurement handle.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Time the closure: one warm-up call, then `sample_size` timed calls.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }
}

/// Declare a benchmark group function from `fn(&mut Criterion)` items.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare `main` from benchmark group functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn group_runs_and_records() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn macros_expand() {
        benches();
    }
}
