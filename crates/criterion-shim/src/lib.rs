//! A dependency-free stand-in for the subset of the `criterion` API the
//! workspace benches use, so `cargo bench` works without network access.
//!
//! The statistical machinery of real criterion is out of scope; this
//! shim runs each benchmark for a fixed number of timed iterations and
//! prints the mean wall-clock time per iteration. The API mirrors
//! criterion 0.5 closely enough that swapping the real crate back in is
//! a one-line `Cargo.toml` change.

use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How per-iteration setup output is batched (accepted for API
/// compatibility; the shim runs one setup per iteration regardless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One setup per measured batch.
    PerIteration,
}

/// The timing driver handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    total: Duration,
}

impl Bencher {
    /// Times `routine` over the configured number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.total += start.elapsed();
    }

    /// Times `routine` with a fresh `setup()` product per iteration;
    /// setup time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.total += start.elapsed();
        }
    }
}

/// Per-iteration work declared for throughput reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// The benchmark processes this many elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// One finished benchmark measurement, kept by [`Criterion`] so a
/// harness can export machine-readable results after the run (the real
/// criterion writes these under `target/criterion/`; the shim hands
/// them to the caller instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchResult {
    /// Group the benchmark ran in.
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Iterations measured.
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: u64,
    /// Declared per-iteration work, if any.
    pub throughput: Option<Throughput>,
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: u64,
    throughput: Option<Throughput>,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the iteration count (criterion's statistical sample size is
    /// approximated by a plain iteration count here).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = (n as u64).max(1);
        self
    }

    /// Declares the per-iteration work so results can report a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark and prints its mean iteration time.
    pub fn bench_function<S: Into<String>, F>(&mut self, id: S, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            iters: self.samples,
            total: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = b.total.as_nanos() / u128::from(b.iters.max(1));
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if per_iter > 0 => {
                format!(" ({:.1} Melem/s)", n as f64 * 1e3 / per_iter as f64)
            }
            Some(Throughput::Bytes(n)) if per_iter > 0 => {
                format!(
                    " ({:.1} MiB/s)",
                    n as f64 * 1e9 / (per_iter as f64 * 1024.0 * 1024.0)
                )
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: {} ns/iter ({} iters){rate}",
            self.name, id, per_iter, b.iters
        );
        self.parent.results.push(BenchResult {
            group: self.name.clone(),
            id,
            iters: b.iters,
            ns_per_iter: per_iter as u64,
            throughput: self.throughput,
        });
        self
    }

    /// Ends the group (no-op; kept for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    samples: u64,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Default configuration: 20 iterations per benchmark.
    pub fn new() -> Self {
        Criterion {
            samples: 20,
            results: Vec::new(),
        }
    }

    /// Drains every [`BenchResult`] recorded so far, in run order.
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        let samples = self.samples;
        BenchmarkGroup {
            name: name.into(),
            samples,
            throughput: None,
            parent: self,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<S: Into<String>, F>(&mut self, id: S, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares the benchmark list, mirroring criterion's macro. The
/// generated function returns the [`Criterion`] instance so a harness
/// `main` can drain [`Criterion::take_results`] after the run;
/// [`criterion_main!`] ignores the return value, matching the real
/// criterion's `()`-returning groups.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() -> $crate::Criterion {
            let mut c = $crate::Criterion::new();
            $( $target(&mut c); )+
            c
        }
    };
}

/// Declares `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( let _ = $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_routine_the_configured_number_of_times() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("t");
        g.sample_size(7);
        let mut count = 0u64;
        g.bench_function("count", |b| b.iter(|| count += 1));
        g.finish();
        assert_eq!(count, 7);
    }

    #[test]
    fn results_are_recorded_and_drained() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("grp");
        g.sample_size(3)
            .throughput(Throughput::Elements(10))
            .bench_function("work", |b| b.iter(|| 1 + 1));
        g.finish();
        let rs = c.take_results();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].group, "grp");
        assert_eq!(rs[0].id, "work");
        assert_eq!(rs[0].iters, 3);
        assert_eq!(rs[0].throughput, Some(Throughput::Elements(10)));
        assert!(c.take_results().is_empty(), "drained");
    }

    #[test]
    fn iter_batched_gets_fresh_setup_each_iteration() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("t");
        g.sample_size(5);
        let mut setups = 0u64;
        g.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 8]
                },
                |v| v.len(),
                BatchSize::SmallInput,
            )
        });
        assert_eq!(setups, 5);
    }
}
