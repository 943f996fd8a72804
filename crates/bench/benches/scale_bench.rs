//! Sharded-campaign throughput: wall-clock cost per exec at 1/2/4/8
//! shards and the merge cost, written to `BENCH_scale.json` next to the
//! merged reports' campaign facts (`dma_lab::benchfile::scale`).
//!
//! The baseline row (`exec_cold`) times a fresh execution context per
//! exec — one template boot each, what every exec cost before
//! boot-template caching; the `shards_N` rows time the sharded engine
//! on up to N host threads (shard execution only — the merge is timed
//! separately as `merge_N`).

use criterion::{BenchResult, Throughput};
use dma_lab::benchfile::{self, SEED};
use fuzz::{ExecContext, FuzzInput, ShardConfig, ShardedCampaign};
use std::time::Instant;

/// Iteration budget **per shard**.
const ITERS: u64 = 96;
/// Execs averaged for the cold (fresh-context) baseline row.
const COLD_EXECS: u64 = 12;

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut timing = Vec::new();

    // Cold baseline: a fresh context, so one full machine boot, per exec.
    let start = Instant::now();
    for i in 0..COLD_EXECS {
        std::hint::black_box(
            ExecContext::new()
                .execute(&FuzzInput::generate(SEED, i))
                .expect("cold exec")
                .signature,
        );
    }
    let cold_ns = (start.elapsed().as_nanos() / u128::from(COLD_EXECS)) as u64;
    timing.push(BenchResult {
        group: "scale".into(),
        id: "exec_cold".into(),
        iters: COLD_EXECS,
        ns_per_iter: cold_ns,
        throughput: Some(Throughput::Elements(1)),
    });
    eprintln!("== cold fresh-context baseline: {cold_ns} ns/exec ==");

    for shards in [1u32, 2, 4, 8] {
        let used = threads.min(shards as usize);
        let sc = ShardedCampaign::new(ShardConfig::new(SEED, ITERS, shards, used));
        let start = Instant::now();
        let outcomes = sc.run_shards(false).expect("shard run");
        let run_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let report = sc.merge(outcomes).expect("merge");
        let merge_ns = start.elapsed().as_nanos() as u64;
        // Every input the engine ran counts — campaign iterations plus
        // the minimizer's signature-preserving probes — matching how
        // the cold baseline is charged (one timed row per execution).
        let all_execs = report.execs + report.minimize_execs;
        let per_exec = run_ns / all_execs.max(1);
        timing.push(BenchResult {
            group: "scale".into(),
            id: format!("shards_{shards}"),
            iters: all_execs,
            ns_per_iter: per_exec,
            throughput: Some(Throughput::Elements(1)),
        });
        timing.push(BenchResult {
            group: "scale".into(),
            id: format!("merge_{shards}"),
            iters: 1,
            ns_per_iter: merge_ns,
            throughput: None,
        });
        eprintln!(
            "== {shards} shard(s) x {ITERS} iters on {used} thread(s): \
             {all_execs} execs, {per_exec} ns/exec, merge {merge_ns} ns =="
        );
    }

    let deterministic = benchfile::scale().expect("sharded campaigns");
    let path =
        bench::write_report("scale", &deterministic, &timing).expect("write BENCH_scale.json");
    eprintln!("report written: {}", path.display());
}
