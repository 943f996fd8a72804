//! Fuzzer throughput: wall-clock cost of one exec on a fresh and on a
//! warm context and of a short campaign, written to `BENCH_fuzz.json`
//! next to the pinned campaign's coverage-over-time series
//! (`dma_lab::benchfile::fuzz`).

use criterion::{criterion_group, Criterion};
use dma_lab::benchfile::{self, SEED};
use fuzz::{run_fuzz, ExecContext, FuzzConfig, FuzzInput};

fn bench_execute(c: &mut Criterion) {
    let input = FuzzInput::generate(SEED, 0);
    let mut g = c.benchmark_group("fuzz");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(1));
    // A cold exec is a fresh context: one template boot plus the exec.
    g.bench_function("execute_one_input", |b| {
        b.iter(|| std::hint::black_box(ExecContext::new().execute(&input).unwrap().signature))
    });
    g.finish();
}

fn bench_execute_warm(c: &mut Criterion) {
    let input = FuzzInput::generate(SEED, 0);
    let mut cx = ExecContext::new();
    // Prime the boot template outside the timed region so the rows
    // compare steady-state warm execs against fresh-context ones.
    cx.execute(&input).expect("prime exec context");
    let mut g = c.benchmark_group("fuzz");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(1));
    g.bench_function("execute_one_input_warm", |b| {
        b.iter(|| std::hint::black_box(cx.execute(&input).unwrap().signature))
    });
    g.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("fuzz");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(16));
    g.bench_function("campaign_16_iters", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_fuzz(&FuzzConfig {
                    seed: SEED,
                    iters: 16,
                    corpus_dir: None,
                })
                .unwrap()
                .coverage_bits,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_execute, bench_execute_warm, bench_campaign);

fn main() {
    let mut c = benches();
    let deterministic = benchfile::fuzz().expect("pinned campaign");
    let path = bench::write_report("fuzz", &deterministic, &c.take_results())
        .expect("write BENCH_fuzz.json");
    eprintln!("report written: {}", path.display());
}
