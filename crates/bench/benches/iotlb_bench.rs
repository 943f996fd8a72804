//! IOTLB behavior under load: hit/miss cost and strict-vs-deferred
//! invalidation, written to `BENCH_iotlb.json` next to the §5.2.1
//! simulated-cycle series (`dma_lab::benchfile::iotlb`).

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use dma_core::vuln::DmaDirection;
use dma_lab::benchfile::{self, iommu_setup, one_io};
use sim_iommu::{dma_map_single, dma_unmap_single, InvalidationMode};

fn bench_hit_vs_miss(c: &mut Criterion) {
    let mut g = c.benchmark_group("iotlb");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    // Hot path: repeated device access to one warm mapping.
    g.bench_function("dev_write_hot_entry", |b| {
        let (mut ctx, mut mem, mut iommu) = iommu_setup(InvalidationMode::Strict);
        let buf = mem.kmalloc(&mut ctx, 2048, "io").unwrap();
        let m = dma_map_single(
            &mut ctx,
            &mut iommu,
            &mem.layout,
            1,
            buf,
            2048,
            DmaDirection::FromDevice,
            "m",
        )
        .unwrap();
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"warm")
            .unwrap();
        b.iter(|| {
            iommu
                .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"payload")
                .unwrap()
        })
    });
    // Cold path: every iteration maps a fresh IOVA, forcing a walk.
    g.bench_function("dev_write_cold_walk", |b| {
        let (mut ctx, mut mem, mut iommu) = iommu_setup(InvalidationMode::Strict);
        let buf = mem.kmalloc(&mut ctx, 2048, "io").unwrap();
        b.iter(|| {
            let m = dma_map_single(
                &mut ctx,
                &mut iommu,
                &mem.layout,
                1,
                buf,
                2048,
                DmaDirection::FromDevice,
                "m",
            )
            .unwrap();
            iommu
                .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"payload")
                .unwrap();
            dma_unmap_single(&mut ctx, &mut iommu, &m).unwrap();
        })
    });
    g.finish();
}

fn bench_invalidation_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("iotlb_invalidation");
    g.sample_size(10);
    g.throughput(Throughput::Elements(64));
    for (name, mode) in [
        ("strict", InvalidationMode::Strict),
        ("deferred", InvalidationMode::Deferred),
    ] {
        g.bench_function(format!("io_cycle_64_{name}"), |b| {
            b.iter_batched(
                || iommu_setup(mode),
                |(mut ctx, mut mem, mut iommu)| {
                    for _ in 0..64 {
                        one_io(&mut ctx, &mut mem, &mut iommu).unwrap();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hit_vs_miss, bench_invalidation_modes);

fn main() {
    let mut c = benches();
    let deterministic = benchfile::iotlb().expect("iotlb series");
    let path = bench::write_report("iotlb", &deterministic, &c.take_results())
        .expect("write BENCH_iotlb.json");
    eprintln!("report written: {}", path.display());
}
