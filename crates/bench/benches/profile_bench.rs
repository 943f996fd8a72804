//! Cycle-attribution profiler benchmarks: what the profiled warm
//! executor sustains and what the flamegraph exports cost, exported to
//! `BENCH_profile.json` (its own report, like `BENCH_fuzz.json`).
//!
//! Timing rows:
//!
//! - `profile_shards_1` — the pinned seed-7, 96-iter profile workload
//!   per exec (the row keeps its historical name; the workload runs on
//!   one context, single-threaded).
//! - `folded_export` / `speedscope_export` — serialising the merged
//!   tree to folded-stack lines and speedscope JSON.
//!
//! The deterministic half is `ProfileRun::deterministic_json` — run
//! facts, the hottest self-cycle frame, and the per-exec phase
//! breakdown — which `dma-lab bench --check BENCH_profile.json`
//! re-derives, plus the two-run folded byte-identity verdict.

use criterion::{BenchResult, Throughput};
use dma_lab::profiling::{run_profile, ProfileConfig};
use std::time::Instant;

/// The pinned campaign seed every surface shares (CI smoke, README).
const SEED: u64 = 7;
/// Iteration budget of the pinned profile workload.
const ITERS: u64 = 96;

fn main() {
    let mut timing = Vec::new();

    let cfg = ProfileConfig::new(SEED, ITERS);
    let start = Instant::now();
    let run = run_profile(&cfg).expect("profile workload");
    let ns = (start.elapsed().as_nanos() / u128::from(ITERS)) as u64;
    timing.push(BenchResult {
        group: "profile".into(),
        id: "profile_shards_1".into(),
        iters: ITERS,
        ns_per_iter: ns,
        throughput: Some(Throughput::Elements(1)),
    });
    eprintln!("== profile workload: {ns} ns/exec ==");

    // Two-run byte-identity of the folded output.
    let rerun = run_profile(&cfg).expect("profile workload rerun");
    let folded_identical = run.profile.folded() == rerun.profile.folded();

    let start = Instant::now();
    let folded = run.profile.folded();
    let folded_ns = start.elapsed().as_nanos() as u64;
    timing.push(BenchResult {
        group: "profile".into(),
        id: "folded_export".into(),
        iters: 1,
        ns_per_iter: folded_ns,
        throughput: Some(Throughput::Elements(folded.lines().count() as u64)),
    });

    let start = Instant::now();
    let speedscope = run.profile.speedscope_json("profile_bench");
    let speedscope_ns = start.elapsed().as_nanos() as u64;
    timing.push(BenchResult {
        group: "profile".into(),
        id: "speedscope_export".into(),
        iters: 1,
        ns_per_iter: speedscope_ns,
        throughput: Some(Throughput::Elements(speedscope.len() as u64)),
    });

    let (top_frame, top_cycles) = run.profile.top_self().unwrap_or_default();
    eprintln!(
        "== seed {SEED}, {ITERS} iters: {} execs, {} total cycles, hottest {top_frame} ({top_cycles} self cycles) ==",
        run.execs, run.total_cycles
    );

    let path = bench::emit_profile_report(&run.deterministic_json(), folded_identical, &timing)
        .expect("write BENCH_profile.json");
    eprintln!("report written: {}", path.display());
    if !folded_identical {
        eprintln!("folded-output byte-identity check failed");
        std::process::exit(1);
    }
}
