//! Fuzzer throughput and coverage growth: wall-clock execs/sec plus the
//! deterministic coverage-over-time series, exported to
//! `BENCH_fuzz.json` (its own report — the fuzzer is a consumer of the
//! observability stack, not a section of it).

use criterion::{criterion_group, Criterion};
use fuzz::{run_fuzz, ExecContext, FuzzConfig, FuzzInput};

/// The pinned campaign every surface shares (CI smoke, README, tests):
/// seed 7 for 96 iterations rediscovers all four Figure-1 classes.
const SEED: u64 = 7;
const ITERS: u64 = 96;

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
    let report = run_fuzz(&FuzzConfig {
        seed: SEED,
        iters: ITERS,
        corpus_dir: None,
    })
    .expect("pinned campaign");
    eprintln!(
        "== fuzz campaign (seed {SEED}, {ITERS} iters): {} bits, {} corpus, {} classes ==",
        report.coverage_bits,
        report.corpus.len(),
        report.findings.len()
    );
    let results = c.take_results();
    let path = bench::emit_fuzz_report(&report, &results).expect("write BENCH_fuzz.json");
    eprintln!("report written: {}", path.display());
}
