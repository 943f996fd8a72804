//! Flight-recorder overhead and provenance-graph cost: how much the
//! bounded ring buffer costs relative to the unbounded trace baseline,
//! how fast the causal graph ingests an event stream, and how expensive
//! one incident investigation is. The timing rows land in
//! `BENCH_forensics.json` next to the pinned forensics campaign
//! (`dma_lab::benchfile::forensics`).

use criterion::{criterion_group, Criterion};
use dma_core::{ProvenanceGraph, SimCtx};
use dma_lab::benchfile::{self, synth_events, SEED};

/// Events pushed per emit-benchmark iteration — enough to wrap the
/// bounded ring several times.
const STREAM: usize = 4096;

fn bench_emit(c: &mut Criterion) {
    let events = synth_events(STREAM);
    let mut g = c.benchmark_group("forensics");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(STREAM as u64));
    g.bench_function("emit_unbounded", |b| {
        b.iter(|| {
            let mut ctx = SimCtx::traced();
            ctx.trace.record_cpu_access = true;
            for ev in &events {
                ctx.emit(ev.clone());
            }
            std::hint::black_box(ctx.trace.len())
        })
    });
    g.bench_function("emit_recorded_1024", |b| {
        b.iter(|| {
            let mut ctx = SimCtx::recorded(1024);
            ctx.trace.record_cpu_access = true;
            for ev in &events {
                ctx.emit(ev.clone());
            }
            std::hint::black_box(ctx.trace.dropped())
        })
    });
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let events = synth_events(STREAM);
    let mut g = c.benchmark_group("forensics");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(STREAM as u64));
    g.bench_function("graph_ingest", |b| {
        b.iter(|| {
            let mut graph = ProvenanceGraph::new();
            graph.ingest_all(events.iter().cloned());
            std::hint::black_box(graph.edge_count())
        })
    });
    g.finish();
}

fn bench_investigate(c: &mut Criterion) {
    // One forensic execution of the campaign's first iteration; the
    // benchmark then re-investigates its findings against the graph.
    let input = fuzz::FuzzInput::generate(SEED, 0);
    let run = fuzz::ExecContext::new()
        .execute_with_forensics(&input)
        .expect("forensic exec");
    let findings: Vec<_> = run.incidents.iter().map(|i| i.finding.clone()).collect();
    assert!(!findings.is_empty(), "iteration 0 must produce findings");
    let mut g = c.benchmark_group("forensics");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(findings.len() as u64));
    g.bench_function("investigate_findings", |b| {
        b.iter(|| {
            let n: usize = findings
                .iter()
                .map(|f| dkasan::investigate(&run.graph, f).steps.len())
                .sum();
            std::hint::black_box(n)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_emit, bench_graph, bench_investigate);

fn main() {
    let mut c = benches();
    let deterministic = benchfile::forensics().expect("pinned campaign");
    let path = bench::write_report("forensics", &deterministic, &c.take_results())
        .expect("write BENCH_forensics.json");
    eprintln!("report written: {}", path.display());
}
