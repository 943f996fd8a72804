//! Sharded-campaign throughput: wall-clock execs/sec and sim-cycles/sec
//! at 1/2/4/8 shards, merge cost, the thread-identity verdict, and the
//! warm-engine-vs-cold-baseline speedup, exported to `BENCH_scale.json`
//! (its own report, like `BENCH_fuzz.json`).
//!
//! The baseline row (`exec_cold`) times a fresh execution context per
//! exec — one template boot each, what every exec cost before
//! boot-template caching; the `shards_N` rows time
//! the sharded engine end to end (shard execution only — the merge is
//! timed separately as `merge_N`). On a single-core box the shard rows
//! cluster around the same warm per-exec cost and the speedup comes
//! from template reuse; on multi-core hardware thread scaling compounds
//! on top.

use criterion::{BenchResult, Throughput};
use dma_core::jsonw::JsonWriter;
use fuzz::{ExecContext, FuzzInput, ShardConfig, ShardedCampaign};
use std::time::Instant;

/// The pinned campaign every surface shares (CI smoke, README, tests).
const SEED: u64 = 7;
/// Iteration budget **per shard**.
const ITERS: u64 = 96;
/// Execs averaged for the cold (fresh-context) baseline row.
const COLD_EXECS: u64 = 12;
/// Shard counts the scaling table sweeps.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

struct Row {
    shards: u32,
    threads: usize,
    execs: u64,
    minimize_execs: u64,
    total_cycles: u64,
    coverage_bits: u32,
    corpus_entries: usize,
    finding_classes: usize,
    run_ns: u64,
    merge_ns: u64,
}

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

    let mut rows = Vec::new();
    for &shards in &SHARD_COUNTS {
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
             {all_execs} execs, {} bits, {per_exec} ns/exec, merge {merge_ns} ns ==",
            report.coverage_bits
        );
        rows.push(Row {
            shards,
            threads: used,
            execs: report.execs,
            minimize_execs: report.minimize_execs,
            total_cycles: report.total_cycles,
            coverage_bits: report.coverage_bits,
            corpus_entries: report.corpus.len(),
            finding_classes: report.findings.len(),
            run_ns,
            merge_ns,
        });
    }

    // Thread-identity verdict: the 8-shard merged report must not
    // depend on how many OS threads carried the shards.
    let t1 = ShardedCampaign::new(ShardConfig::new(SEED, ITERS, 8, 1))
        .run()
        .expect("T=1 run");
    let t8 = ShardedCampaign::new(ShardConfig::new(SEED, ITERS, 8, 8))
        .run()
        .expect("T=8 run");
    let identity = if t1.to_json() == t8.to_json() {
        "byte-identical"
    } else {
        "MISMATCH"
    };
    eprintln!("== 8-shard merged report, T=1 vs T=8: {identity} ==");

    let mut det = JsonWriter::new();
    det.obj(|w| {
        w.field_u64("seed", SEED);
        w.field_u64("iters_per_shard", ITERS);
        w.field_u64("host_threads", threads as u64);
        w.field_str("thread_identity", identity);
        w.field("rows", |w| {
            w.arr(|w| {
                for r in &rows {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_u64("shards", u64::from(r.shards));
                            w.field_u64("execs", r.execs);
                            w.field_u64("minimize_execs", r.minimize_execs);
                            w.field_u64("coverage_bits", u64::from(r.coverage_bits));
                            w.field_u64("corpus_entries", r.corpus_entries as u64);
                            w.field_u64("finding_classes", r.finding_classes as u64);
                            w.field_u64("total_cycles", r.total_cycles);
                        });
                    });
                }
            });
        });
    });

    let mut scale = JsonWriter::new();
    scale.arr(|w| {
        for r in &rows {
            w.elem(|w| {
                w.obj(|w| {
                    w.field_u64("shards", u64::from(r.shards));
                    w.field_u64("threads", r.threads as u64);
                    let secs = r.run_ns.max(1) as f64 / 1e9;
                    let all_execs = r.execs + r.minimize_execs;
                    w.field_f64("execs_per_sec", all_execs as f64 / secs);
                    w.field_f64("sim_cycles_per_sec", r.total_cycles as f64 / secs);
                    w.field_u64("merge_ns", r.merge_ns);
                    let per_exec = r.run_ns / all_execs.max(1);
                    w.field_f64("speedup_vs_cold_x", cold_ns as f64 / per_exec.max(1) as f64);
                });
            });
        }
    });

    let path = bench::emit_scale_report(&det.finish(), &scale.finish(), &timing)
        .expect("write BENCH_scale.json");
    eprintln!("report written: {}", path.display());
    if identity == "MISMATCH" {
        eprintln!("thread-identity check failed");
        std::process::exit(1);
    }
}
