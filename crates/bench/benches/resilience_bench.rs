//! Crash-safety cost model: what the DESIGN.md §11 robustness layers
//! charge per execution and per checkpoint, written to
//! `BENCH_resilience.json` next to the kill-and-resume verdict and
//! payload sizes (`dma_lab::benchfile::resilience`).
//!
//! Timing rows:
//! - `checkpoint_save_small` / `checkpoint_save_large` — A/B store
//!   write cost for a snapshot captured at two corpus scales.
//! - `checkpoint_load` — validate-and-parse cost of the newest
//!   generation.
//! - `exec_plain` vs `exec_guarded` — the same input on a fresh
//!   execution context, bare and through `catch_unwind` + watchdog
//!   budget.

use criterion::{criterion_group, Criterion};
use dma_core::CheckpointStore;
use dma_lab::benchfile::{self, checkpoint_payload, SEED};
use fuzz::{ExecContext, FuzzInput, DEFAULT_WATCHDOG_BUDGET};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dma-lab-resilience-bench-{}-{name}",
        std::process::id()
    ))
}

fn bench_checkpoint_io(c: &mut Criterion) {
    let small = checkpoint_payload(8).expect("campaign");
    let large = checkpoint_payload(64).expect("campaign");
    let mut g = c.benchmark_group("resilience");
    g.sample_size(20);
    for (id, payload) in [
        ("checkpoint_save_small", &small),
        ("checkpoint_save_large", &large),
    ] {
        let dir = tmp(id);
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).expect("store");
        g.bench_function(id, |b| {
            b.iter(|| std::hint::black_box(store.save(payload).expect("save")))
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let dir = tmp("checkpoint_load");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).expect("store");
        store.save(&large).expect("seed generation");
        g.bench_function("checkpoint_load", |b| {
            b.iter(|| std::hint::black_box(store.load().expect("load").is_some()))
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    g.finish();
}

fn bench_guard_overhead(c: &mut Criterion) {
    let input = FuzzInput::generate(SEED, 0);
    let mut g = c.benchmark_group("resilience");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(1));
    g.bench_function("exec_plain", |b| {
        b.iter(|| std::hint::black_box(ExecContext::new().execute(&input).unwrap().signature))
    });
    g.bench_function("exec_guarded", |b| {
        b.iter(|| {
            let out = catch_unwind(AssertUnwindSafe(|| {
                ExecContext::new().execute_with_budget(&input, DEFAULT_WATCHDOG_BUDGET)
            }))
            .expect("no panic")
            .unwrap();
            std::hint::black_box(out.signature)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_checkpoint_io, bench_guard_overhead);

fn main() {
    let mut c = benches();
    let deterministic = benchfile::resilience().expect("kill and resume");
    let path = bench::write_report("resilience", &deterministic, &c.take_results())
        .expect("write BENCH_resilience.json");
    eprintln!("report written: {}", path.display());
}
