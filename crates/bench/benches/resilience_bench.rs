//! Crash-safety cost model: what the DESIGN.md §11 robustness layers
//! charge per execution and per checkpoint, exported to
//! `BENCH_resilience.json`.
//!
//! Timing rows:
//! - `checkpoint_save_small` / `checkpoint_save_large` — A/B store
//!   write cost for a snapshot captured at two corpus scales.
//! - `checkpoint_load` — validate-and-parse cost of the newest
//!   generation.
//! - `exec_plain` vs `exec_guarded` — the same input on a fresh
//!   execution context, bare and through `catch_unwind` + watchdog
//!   budget; their ratio is the `guard_overhead_x` the campaign pays on
//!   every iteration.
//!
//! The deterministic half re-runs the kill-and-resume experiment and
//! records its verdict, so the bench file also witnesses the
//! byte-identity contract.

use criterion::{criterion_group, Criterion};
use dma_core::jsonw::JsonWriter;
use dma_core::CheckpointStore;
use fuzz::{
    kill_and_resume, Campaign, CampaignConfig, ExecContext, FuzzInput, DEFAULT_WATCHDOG_BUDGET,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The pinned campaign every surface shares (CI smoke, README, tests).
const SEED: u64 = 7;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dma-lab-resilience-bench-{}-{name}",
        std::process::id()
    ))
}

/// Snapshot payload of a campaign run for `iters` iterations.
fn payload_at(iters: u64) -> String {
    let mut c = Campaign::new(CampaignConfig::new(SEED, iters)).expect("campaign");
    c.run_to_end().expect("run");
    c.snapshot_payload()
}

fn bench_checkpoint_io(c: &mut Criterion) {
    let small = payload_at(8);
    let large = payload_at(64);
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

    // Deterministic half: the kill-and-resume experiment, pinned.
    let dir = tmp("kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CampaignConfig::new(SEED, 24);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 6;
    let out = kill_and_resume(&cfg, 13).expect("kill and resume");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.identical(),
        "resumed report diverged from uninterrupted"
    );
    eprintln!(
        "== kill at {} / resume from {}: byte-identical={} recovered={} ==",
        out.kill_at,
        out.resumed_from,
        out.identical(),
        out.recovered
    );

    let small = payload_at(8);
    let large = payload_at(64);
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", SEED);
        w.field_u64("iters", 24);
        w.field_u64("kill_at", out.kill_at);
        w.field_u64("resumed_from", out.resumed_from);
        w.field_bool("byte_identical", out.identical());
        w.field_u64("recovered_generations", out.recovered);
        w.field_u64("payload_bytes_8_iters", small.len() as u64);
        w.field_u64("payload_bytes_64_iters", large.len() as u64);
    });
    let deterministic = w.finish();

    let results = c.take_results();
    let path = bench::emit_resilience_report(&deterministic, &results)
        .expect("write BENCH_resilience.json");
    eprintln!("report written: {}", path.display());
}
