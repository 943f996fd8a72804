//! Cycle-attribution profiler benchmarks: what the profiled warm
//! executor sustains and what the flamegraph exports cost, written to
//! `BENCH_profile.json` next to the pinned profile's run facts and
//! phase breakdown (`dma_lab::benchfile::profile`).
//!
//! Timing rows:
//!
//! - `profile_shards_1` — the pinned seed-7, 96-iter profile workload
//!   per exec (the row keeps its historical name; the workload runs on
//!   one context, single-threaded).
//! - `folded_export` / `speedscope_export` — serialising the merged
//!   tree to folded-stack lines and speedscope JSON.

use criterion::{BenchResult, Throughput};
use dma_lab::benchfile::{self, SEED};
use dma_lab::profiling::{run_profile, ProfileConfig};
use std::time::Instant;

/// Iteration budget of the pinned profile workload.
const ITERS: u64 = 96;

fn main() {
    let mut timing = Vec::new();

    let start = Instant::now();
    let run = run_profile(&ProfileConfig::new(SEED, ITERS)).expect("profile workload");
    let ns = (start.elapsed().as_nanos() / u128::from(ITERS)) as u64;
    timing.push(BenchResult {
        group: "profile".into(),
        id: "profile_shards_1".into(),
        iters: ITERS,
        ns_per_iter: ns,
        throughput: Some(Throughput::Elements(1)),
    });
    eprintln!("== profile workload: {ns} ns/exec ==");

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

    let deterministic = benchfile::profile().expect("profile workload");
    let path =
        bench::write_report("profile", &deterministic, &timing).expect("write BENCH_profile.json");
    eprintln!("report written: {}", path.display());
}
