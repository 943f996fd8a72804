//! D-KASAN overhead (§4.3: "a run-time tool that has a large memory
//! footprint and the obvious overhead of callbacks on each memory
//! access"): event-replay throughput and the Figure-3 workload, written
//! to `BENCH_dkasan.json` next to the deterministic shadow-cost profile
//! (`dma_lab::benchfile::dkasan`).

use criterion::{criterion_group, Criterion};
use dkasan::{run_workload, DKasan, FindingKind, WorkloadConfig};
use dma_lab::benchfile::{self, synth_events};

const REPLAY_EVENTS: usize = 10_000;

fn bench_replay(c: &mut Criterion) {
    let events = synth_events(REPLAY_EVENTS);
    let mut g = c.benchmark_group("dkasan_replay");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(events.len() as u64));
    g.bench_function("process_10k_events", |b| {
        b.iter(|| {
            let mut dk = DKasan::new();
            dk.process(&events);
            std::hint::black_box(dk.findings().len())
        })
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    // Print the Figure-3 shape once.
    let report = run_workload(WorkloadConfig {
        rounds: 200,
        seed: 1,
        fault_seed: None,
    })
    .unwrap();
    eprintln!("== Figure 3 workload findings ==");
    for kind in FindingKind::ALL {
        eprintln!("  {:<18} {}", kind.to_string(), report.count(kind));
    }

    let mut g = c.benchmark_group("dkasan_workload");
    g.sample_size(10);
    g.bench_function("figure3_workload_50_rounds", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(
                run_workload(WorkloadConfig {
                    rounds: 50,
                    seed,
                    fault_seed: None,
                })
                .unwrap()
                .allocs,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_replay, bench_workload);

fn main() {
    let mut c = benches();
    let deterministic = benchfile::dkasan().expect("replay");
    let path = bench::write_report("dkasan", &deterministic, &c.take_results())
        .expect("write BENCH_dkasan.json");
    eprintln!("report written: {}", path.display());
}
